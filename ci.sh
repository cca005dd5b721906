#!/bin/sh
# Offline CI: build, test, lint. No network access required — the
# workspace has no registry dependencies.
set -eu

cd "$(dirname "$0")"

echo "=== cargo fmt --check ==="
cargo fmt --all --check

echo "=== cargo build --release ==="
cargo build --workspace --release --offline

echo "=== cargo test ==="
cargo test --workspace --release --offline -q

echo "=== cargo clippy -D warnings ==="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "=== bench smoke (BENCH_FAST) ==="
BENCH_FAST=1 cargo bench -p vic-bench --offline -q >/dev/null

echo "=== sweep smoke (--quick) ==="
sweep_json="$(mktemp)"
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --quick --json "$sweep_json" >/dev/null
test -s "$sweep_json" || { echo "sweep wrote no JSON"; exit 1; }
rm -f "$sweep_json"

echo "=== hostbench smoke (tiny grid) ==="
# Host-throughput rig: measure the tiny grid once into a scratch file,
# then schema-validate both it and the committed BENCH_host.json. No
# wall-clock gating — CI machines vary; the numbers are informational.
host_json="$(mktemp)"
cargo run --release -p vic-bench --bin hostbench --offline -q -- \
    --tiny --reps 1 --label ci-smoke --json "$host_json" >/dev/null
cargo run --release -p vic-bench --bin hostbench --offline -q -- \
    --check "$host_json" >/dev/null
rm -f "$host_json"
cargo run --release -p vic-bench --bin hostbench --offline -q -- \
    --check BENCH_host.json >/dev/null

echo "=== metrics smoke (sweep --metrics / --check-metrics) ==="
# Fleet telemetry: a tiny sweep must export a metrics document whose
# fleet roll-ups cross-validate against its per-run list, and the
# standalone validator must accept it. The hostbench export shares the
# schema, so the same validator reads it.
metrics_json="$(mktemp)"; scratch_json="$(mktemp)"
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --quick --threads 2 --json "$scratch_json" --metrics "$metrics_json" >/dev/null
grep -q '"engine_version":3' "$metrics_json" || { echo "metrics doc missing version"; exit 1; }
grep -q '"runs_completed":23' "$metrics_json" || { echo "metrics doc missing fleet totals"; exit 1; }
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --check-metrics "$metrics_json" >/dev/null
# (truncate the scratch file first: it holds sweep JSON, not a host doc)
: > "$scratch_json"
cargo run --release -p vic-bench --bin hostbench --offline -q -- \
    --tiny --reps 1 --label ci-metrics --json "$scratch_json" --metrics "$metrics_json" >/dev/null
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --check-metrics "$metrics_json" >/dev/null
rm -f "$metrics_json" "$scratch_json"

echo "=== flight-recorder smoke (chaos divergence dump) ==="
# A sabotaged manager must trip the auditor and leave a post-mortem:
# reason, divergences, the last trace events, and a machine snapshot.
# The run exits 1 (oracle/audit failure) — that's the point.
flight_json="$(mktemp -u)"
if cargo run --release -p vic-bench --bin run --offline -q -- \
    fork-bench chaos-flushes --quick --flight "$flight_json" >/dev/null; then
    echo "chaos run unexpectedly clean"; exit 1
fi
test -s "$flight_json" || { echo "flight recorder wrote no dump"; exit 1; }
grep -q '"engine_version":3' "$flight_json" || { echo "flight dump missing version"; exit 1; }
grep -q '"divergence_count":' "$flight_json" || { echo "flight dump missing divergences"; exit 1; }
grep -q '"snapshot":{"engine_version":3' "$flight_json" || { echo "flight dump missing snapshot"; exit 1; }
rm -f "$flight_json"

echo "=== bulk-vs-word smoke (--no-fast-paths) ==="
# The bulk-run engine must be observably invisible: the run binary's full
# report (simulated values only — no host wall time on stdout) must be
# byte-identical with the fast paths force-disabled. The determinism
# suite proves this over the whole quick grids; this smoke keeps the flag
# itself honest.
bulk_out="$(mktemp)"; word_out="$(mktemp)"
cargo run --release -p vic-bench --bin run --offline -q -- \
    kernel-build F --quick >"$bulk_out"
cargo run --release -p vic-bench --bin run --offline -q -- \
    kernel-build F --quick --no-fast-paths >"$word_out"
cmp "$bulk_out" "$word_out" || { echo "bulk runs changed observable output"; exit 1; }
rm -f "$bulk_out" "$word_out"

echo "=== checkpoint smoke (--checkpoint-at / --restore round trip) ==="
# Pausing a run into a checkpoint and resuming it in a new process must
# be invisible: the final stats JSON is byte-identical to a straight run
# (minus host wall time). The committed fixture locks the schema: it must
# stay restorable at this engine version (after an intentional format
# change, bump ENGINE_VERSION and regenerate it with:
#   cargo run --release -p vic-bench --bin run -- \
#       fork-bench F --quick --checkpoint-at 20000 --checkpoint BENCH_checkpoint.json)
cp_json="$(mktemp -u)"; full_json="$(mktemp)"; resumed_json="$(mktemp)"
cargo run --release -p vic-bench --bin run --offline -q -- \
    fork-bench F --quick --json "$full_json" >/dev/null
cargo run --release -p vic-bench --bin run --offline -q -- \
    fork-bench F --quick --checkpoint-at 20000 --checkpoint "$cp_json" >/dev/null
grep -q '"engine_version":3' "$cp_json" || { echo "checkpoint missing version"; exit 1; }
cargo run --release -p vic-bench --bin run --offline -q -- \
    --restore "$cp_json" --json "$resumed_json" >/dev/null
strip_wall() { sed 's/"wall_seconds":[0-9.e+-]*//' "$1"; }
[ "$(strip_wall "$full_json")" = "$(strip_wall "$resumed_json")" ] \
    || { echo "restored run diverged from the uninterrupted run"; exit 1; }
rm -f "$cp_json" "$full_json" "$resumed_json"
grep -q '^{"engine_version":3,"spec":' BENCH_checkpoint.json \
    || { echo "checkpoint fixture schema drifted"; exit 1; }
cargo run --release -p vic-bench --bin run --offline -q -- \
    --restore BENCH_checkpoint.json >/dev/null

echo "=== sampling smoke (--calibrate / --check BENCH_sample.json) ==="
# Interval-sampled measurement: a fresh calibration must reproduce the
# full-run metrics within the 5% bound (the calibrate mode exits 1 if
# any cell exceeds it), and the committed fixture must still validate —
# the checker recomputes every per-metric relative error from the raw
# estimate/actual pairs, so a stale or hand-edited document fails. The
# committed speedups must hold the >= 5x claim; the fresh run's speedup
# is not gated (CI machines vary). After an intentional engine change,
# regenerate with: cargo run --release -p vic-bench --bin sample -- --calibrate
sample_json="$(mktemp)"
cargo run --release -p vic-bench --bin sample --offline -q -- \
    --calibrate --json "$sample_json" >/dev/null
rm -f "$sample_json"
cargo run --release -p vic-bench --bin sample --offline -q -- \
    --check BENCH_sample.json >/dev/null
grep -q '^{"engine_version":3,"bound_pct":5,' BENCH_sample.json \
    || { echo "sample fixture schema drifted"; exit 1; }
awk 'BEGIN{RS=","} /"speedup":/ {split($0,a,":"); if (a[2]+0 < 5) exit 1}' BENCH_sample.json \
    || { echo "committed sampling speedup fell below 5x"; exit 1; }

echo "=== profile baseline check (BENCH_baseline.json) ==="
# Re-runs the quick Table-4 + Table-5 grids under the cycle-cost
# profiler and diffs against the committed baseline; fails on any run
# >5% slower or on lost coverage. After an intentional cost change,
# refresh with: cargo run --release -p vic-bench --bin profile -- baseline
cargo run --release -p vic-bench --bin profile --offline -q -- --check-baseline

echo "=== result-cache smoke (sweep --cache) ==="
# A cold sweep fills a fresh cache directory; a warm sweep must serve all
# 23 runs from it, print the same tables and write the same JSON (minus
# host time). A torn cache file must be dropped, re-run and rewritten.
cache_dir="$(mktemp -d)"; cold_out="$(mktemp)"; warm_out="$(mktemp)"
cold_json="$(mktemp)"; warm_json="$(mktemp)"
cached_sweep() {
    cargo run --release -p vic-bench --bin sweep --offline -q -- \
        --quick --cache "$cache_dir" --json "$1" > "$2"
}
tables() { sed -n '/^Table 4/,/^cache:/p' "$1" | grep -v '^cache:'; }
strip_all_wall() { sed 's/"wall_seconds":[0-9.e+-]*//g' "$1"; }
cached_sweep "$cold_json" "$cold_out"
cached_sweep "$warm_json" "$warm_out"
grep -q '^cache: 23 hits, 0 misses' "$warm_out" \
    || { echo "warm sweep did not hit the cache 23 times"; exit 1; }
[ "$(tables "$cold_out")" = "$(tables "$warm_out")" ] \
    || { echo "cached tables differ from the cold run's"; exit 1; }
[ "$(strip_all_wall "$cold_json")" = "$(strip_all_wall "$warm_json")" ] \
    || { echo "cached sweep JSON differs from the cold run's"; exit 1; }
torn="$(ls "$cache_dir"/vic-*.json | head -n 1)"
intact="$(mktemp)"; cp "$torn" "$intact"
head -c 100 "$intact" > "$torn"
cached_sweep "$warm_json" "$warm_out"
grep -q '^cache: .* 0 misses' "$warm_out" && { echo "torn cache file was served"; exit 1; }
cmp -s "$torn" "$intact" || { echo "torn cache file was not rewritten"; exit 1; }
[ "$(tables "$cold_out")" = "$(tables "$warm_out")" ] \
    || { echo "tables changed after re-running a torn entry"; exit 1; }
rm -rf "$cache_dir"; rm -f "$cold_out" "$warm_out" "$cold_json" "$warm_json" "$intact"

echo "=== repository benchmark (unit tests + one quick round) ==="
# The benchmark is a package of its own under examples/benchmark; its
# tests and a one-round --smoke set keep it building and running.
cargo test --offline -q --manifest-path examples/benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path examples/benchmark/Cargo.toml -- \
    --smoke >/dev/null

echo "CI OK"
