#!/bin/sh
# Offline CI: build, test, lint. No network access required — the
# workspace has no registry dependencies.
set -eu

cd "$(dirname "$0")"

# The engine version every versioned document is stamped with, read from
# its one definition so a bump edits a single line.
engine_version="$(sed -n 's/^pub const ENGINE_VERSION: u64 = \([0-9]*\);$/\1/p' crates/core/src/lib.rs)"
[ -n "$engine_version" ] || { echo "cannot read ENGINE_VERSION"; exit 1; }

echo "=== cargo fmt --check ==="
cargo fmt --all --check

echo "=== cargo build --release ==="
cargo build --workspace --release --offline

echo "=== cargo test ==="
cargo test --workspace --release --offline -q

echo "=== cargo test (debug) ==="
# The same suites under the debug profile, where the managers'
# debug_assert!s and integer-overflow checks are live: the exhaustive and
# property tests, the checkpoint round trips and the binary contracts run
# against them only here.
cargo test --workspace --offline -q

echo "=== cargo clippy -D warnings ==="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "=== cargo doc -D warnings ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "=== sweep smoke (--quick, --json: the sweep document) ==="
# One quick sweep must write its sweep document: one run entry per spec
# of the grid and an empty failure list. The grid size comes from the
# sweep's header line, `sweep: N runs on T threads`.
sweep_out="$(mktemp)"; sweep_json="$(mktemp)"
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --quick --threads 2 --json "$sweep_json" >"$sweep_out"
runs="$(sed -n 's/^sweep: \([0-9][0-9]*\) runs .*/\1/p' "$sweep_out")"
[ -n "$runs" ] || { echo "sweep printed no run count"; exit 1; }
grep -q "^{\"engine_version\":$engine_version,\"threads\":2," "$sweep_json" || { echo "sweep doc missing version"; exit 1; }
[ "$(grep -o '"oracle_violations":' "$sweep_json" | wc -l)" -eq "$runs" ] \
    || { echo "sweep doc does not hold $runs run entries"; exit 1; }
grep -q '"failures":\[\]}$' "$sweep_json" || { echo "sweep doc lists failures"; exit 1; }
rm -f "$sweep_out" "$sweep_json"

echo "=== flight-recorder smoke (chaos divergence dump) ==="
# A sabotaged manager must trip the auditor and leave its run document
# with the audit, the last trace events, a system snapshot and the error.
# The run exits 1 (oracle/audit failure) — that's the point.
flight_json="$(mktemp -u)"
if cargo run --release -p vic-bench --bin run --offline -q -- \
    fork-bench chaos-flushes --quick --flight "$flight_json" >/dev/null; then
    echo "chaos run unexpectedly clean"; exit 1
fi
test -s "$flight_json" || { echo "flight recorder wrote no dump"; exit 1; }
grep -q "^{\"engine_version\":$engine_version,\"spec\":" "$flight_json" \
    || { echo "flight dump is not a run document"; exit 1; }
for key in '"audit":' '"events":' '"snapshot":'; do
    grep -q "$key" "$flight_json" || { echo "flight dump missing $key"; exit 1; }
done
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
grep -q "\"engine_version\":$engine_version," "$cp_json" || { echo "checkpoint missing version"; exit 1; }
cargo run --release -p vic-bench --bin run --offline -q -- \
    --restore "$cp_json" --json "$resumed_json" >/dev/null
strip_wall() { sed 's/"wall_seconds":[0-9.e+-]*//' "$1"; }
[ "$(strip_wall "$full_json")" = "$(strip_wall "$resumed_json")" ] \
    || { echo "restored run diverged from the uninterrupted run"; exit 1; }
rm -f "$cp_json" "$full_json" "$resumed_json"
grep -q "^{\"engine_version\":$engine_version,\"spec\":" BENCH_checkpoint.json \
    || { echo "checkpoint fixture schema drifted"; exit 1; }
cargo run --release -p vic-bench --bin run --offline -q -- \
    --restore BENCH_checkpoint.json >/dev/null

echo "=== profile baseline check (BENCH_baseline.json) ==="
# Re-runs the quick Table-4 + Table-5 grids under the cycle-cost
# profiler and diffs against the committed baseline; fails on any run
# that spends even one cycle more, or on lost coverage. After an
# intentional cost change, refresh with:
#   cargo run --release -p vic-bench --bin profile -- baseline
cargo run --release -p vic-bench --bin profile --offline -q -- --check-baseline

echo "=== result-cache smoke (sweep --cache) ==="
# A cold sweep fills a fresh cache directory and, the grid listing every
# spec once, hits nothing; a warm sweep must serve all $runs runs from it,
# print the same tables and write the same JSON (minus host time). A torn
# cache file must be dropped, re-run and rewritten.
cache_dir="$(mktemp -d)"; cold_out="$(mktemp)"; warm_out="$(mktemp)"
cold_json="$(mktemp)"; warm_json="$(mktemp)"
cached_sweep() {
    cargo run --release -p vic-bench --bin sweep --offline -q -- \
        --quick --cache "$cache_dir" --json "$1" > "$2"
}
tables() { sed -n '/^Table 1/,/^cache:/p' "$1" | grep -v '^cache:'; }
strip_all_wall() { sed 's/"wall_seconds":[0-9.e+-]*//g' "$1"; }
cached_sweep "$cold_json" "$cold_out"
cached_sweep "$warm_json" "$warm_out"
grep -q "^cache: 0 hits, $runs misses " "$cold_out" \
    || { echo "cold sweep did not miss all $runs runs"; exit 1; }
grep -q "^cache: $runs hits, 0 misses " "$warm_out" \
    || { echo "warm sweep did not hit the cache $runs times"; exit 1; }
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
# --locked: a dependency edit must not rewrite the benchmark's Cargo.lock.
cargo test --locked --offline -q --manifest-path examples/benchmark/Cargo.toml
cargo run --locked --release --offline -q --manifest-path examples/benchmark/Cargo.toml -- \
    --smoke >/dev/null

echo "CI OK"
