//! End-to-end tests of the bench *binaries*: spawn the real executables
//! (via `CARGO_BIN_EXE_*`, so Cargo builds them first) and lock their
//! observable contracts — flags, printed verdicts, exit codes, emitted
//! files. These are the interfaces CI scripts and humans use; the
//! library tests can't see a broken `main`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run_bin(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"))
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vic-bench-test-{}-{name}", std::process::id()));
    p
}

/// `{"engine_version":N,` — the prefix every versioned document starts with.
fn ver_prefix() -> String {
    format!("{{\"engine_version\":{},", vic_core::ENGINE_VERSION)
}

#[test]
fn run_trace_summary_prints_audit_without_a_trace_file() {
    // The satellite contract: `--trace-summary` alone (no `--trace
    // <file>`) wires up the auditor and the histogram sink.
    let out = run_bin(
        env!("CARGO_BIN_EXE_run"),
        &["fork-bench", "F", "--quick", "--trace-summary"],
    );
    assert!(out.status.success(), "run failed: {out:?}");
    let text = stdout_of(&out);
    assert!(
        text.contains("trace summary (cycle cost per event class)"),
        "missing histogram section:\n{text}"
    );
    assert!(
        text.contains("audit:     CLEAN"),
        "missing audit verdict:\n{text}"
    );
    assert!(
        !text.contains("trace:     written"),
        "no trace file was requested:\n{text}"
    );
    assert!(text.contains("oracle:    CLEAN"), "oracle verdict:\n{text}");
}

#[test]
fn run_without_tracing_prints_no_audit() {
    let out = run_bin(env!("CARGO_BIN_EXE_run"), &["fork-bench", "F", "--quick"]);
    assert!(out.status.success(), "run failed: {out:?}");
    let text = stdout_of(&out);
    assert!(
        !text.contains("audit:"),
        "untraced run audits nothing:\n{text}"
    );
    assert!(!text.contains("trace summary"));
}

#[test]
fn run_rejects_unknown_flags_with_usage() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_run"),
        &["fork-bench", "F", "--frobnicate"],
    );
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("unknown flag '--frobnicate'"),
        "stderr:\n{err}"
    );
    assert!(err.contains("usage:"), "stderr:\n{err}");
}

#[test]
fn sweep_honors_threads_flag_and_writes_json() {
    let json = tmp_file("sweep.json");
    let out = run_bin(
        env!("CARGO_BIN_EXE_sweep"),
        &[
            "--quick",
            "--threads",
            "3",
            "--json",
            json.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "sweep failed: {out:?}");
    let text = stdout_of(&out);
    assert!(
        text.contains("on 3 threads"),
        "--threads must reach the engine:\n{text}"
    );
    let n = swept_runs(&text);
    assert!(
        text.contains(&format!("swept {n} specs on 3 threads")),
        "{text}"
    );
    let doc = std::fs::read_to_string(&json).expect("sweep wrote its JSON file");
    let _ = std::fs::remove_file(&json);
    assert!(
        doc.starts_with(&format!(
            "{{\"engine_version\":{},\"threads\":3,",
            vic_core::ENGINE_VERSION
        )),
        "JSON records the engine version and thread count"
    );
    assert_eq!(doc.matches("\"oracle_violations\":0").count(), n);
}

#[test]
fn sweep_rejects_zero_threads() {
    let out = run_bin(env!("CARGO_BIN_EXE_sweep"), &["--quick", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("--threads must be at least 1"),
        "stderr:\n{err}"
    );
}

#[test]
fn profile_binary_reports_diffs_and_gates() {
    let profile = env!("CARGO_BIN_EXE_profile");
    let base = tmp_file("profile-base.json");
    let other = tmp_file("profile-other.json");

    // Report mode: breakdown tables plus a profile document.
    let out = run_bin(
        profile,
        &[
            "fork-bench",
            "F",
            "--quick",
            "--json",
            base.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "profile failed: {out:?}");
    let text = stdout_of(&out);
    assert!(text.contains("% of run"), "breakdown table:\n{text}");
    assert!(text.contains("os:"), "kernel attribution present:\n{text}");

    // Self-diff: clean, exit 0 — the simulator is deterministic.
    let out = run_bin(
        profile,
        &["diff", base.to_str().unwrap(), base.to_str().unwrap()],
    );
    assert!(out.status.success(), "self-diff must be clean: {out:?}");
    assert!(stdout_of(&out).contains("unchanged"));

    // A different spec diffs as lost+gained coverage and exits 1.
    let out = run_bin(
        profile,
        &[
            "fork-bench",
            "A",
            "--quick",
            "--json",
            other.to_str().unwrap(),
        ],
    );
    assert!(out.status.success());
    let out = run_bin(
        profile,
        &["diff", base.to_str().unwrap(), other.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(1), "lost coverage fails the diff");
    assert!(stdout_of(&out).contains("MISSING"));

    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&other);
}

#[test]
fn run_inspect_writes_an_occupancy_series() {
    let csv = tmp_file("inspect.csv");
    let out = run_bin(
        env!("CARGO_BIN_EXE_run"),
        &[
            "fork-bench",
            "F",
            "--quick",
            "--inspect",
            csv.to_str().unwrap(),
            "--sample-every",
            "500",
        ],
    );
    assert!(out.status.success(), "run failed: {out:?}");
    let text = stdout_of(&out);
    assert!(text.contains("inspect:"), "inspect line present:\n{text}");
    assert!(text.contains("every 500 cycles"), "{text}");
    assert!(text.contains("state:"), "final snapshot line:\n{text}");
    let doc = std::fs::read_to_string(&csv).expect("series file written");
    let _ = std::fs::remove_file(&csv);
    let mut lines = doc.lines();
    assert_eq!(
        lines.next(),
        Some("cycle,d_valid_pct,d_dirty_pct,i_valid_pct,tlb_resident,d_valid_lines,d_dirty_lines"),
        "CSV header:\n{doc}"
    );
    assert!(lines.next().is_some(), "at least one sample:\n{doc}");
}

#[test]
fn run_flight_recorder_dumps_on_divergence() {
    let dump = tmp_file("flight.json");
    let _ = std::fs::remove_file(&dump);
    // A chaos manager drops required flushes: the auditor diverges (and
    // the oracle fires, so the run exits 1) — exactly the situation the
    // flight recorder exists for.
    let out = run_bin(
        env!("CARGO_BIN_EXE_run"),
        &[
            "fork-bench",
            "chaos-flushes",
            "--quick",
            "--flight",
            dump.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(1), "chaos violates the oracle");
    let text = stdout_of(&out);
    assert!(text.contains("flight:"), "dump announced:\n{text}");
    assert!(text.contains("audit divergences"), "{text}");
    let doc = std::fs::read_to_string(&dump).expect("post-mortem written");
    let _ = std::fs::remove_file(&dump);
    assert!(doc.starts_with(&ver_prefix()), "{doc}");
    let snapshot_field = format!(
        "\"snapshot\":{{\"engine_version\":{}",
        vic_core::ENGINE_VERSION
    );
    for field in [
        "\"reason\":",
        "\"divergence_count\":",
        "\"events\":[",
        snapshot_field.as_str(),
    ] {
        assert!(doc.contains(field), "missing {field}:\n{doc}");
    }
}

#[test]
fn run_flight_recorder_stays_silent_on_a_clean_run() {
    let dump = tmp_file("flight-clean.json");
    let _ = std::fs::remove_file(&dump);
    let out = run_bin(
        env!("CARGO_BIN_EXE_run"),
        &[
            "fork-bench",
            "F",
            "--quick",
            "--flight",
            dump.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "clean run: {out:?}");
    let text = stdout_of(&out);
    assert!(!text.contains("flight:"), "no dump on a clean run:\n{text}");
    assert!(
        text.contains("audit:     CLEAN"),
        "--flight forces the auditor on:\n{text}"
    );
    assert!(!dump.exists(), "no file on a clean run");
}

#[test]
fn unwritable_output_paths_exit_2_with_a_named_path() {
    // Every file-writing flag must fail cleanly (typed error, exit 2, no
    // panic) on a path under a directory that does not exist.
    let bad = "/nonexistent-vic-dir/out.json";
    // The sweep writes its results JSON before the metrics file; park the
    // results in a scratch path so the failing-metrics case doesn't drop
    // a BENCH_sweep.json into the working directory.
    let scratch = tmp_file("scratch-sweep.json");
    let scratch = scratch.to_str().unwrap();
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_run"),
            vec!["fork-bench", "F", "--quick", "--json", bad],
        ),
        (
            env!("CARGO_BIN_EXE_run"),
            vec!["fork-bench", "F", "--quick", "--inspect", bad],
        ),
        (
            env!("CARGO_BIN_EXE_run"),
            vec!["fork-bench", "chaos-flushes", "--quick", "--flight", bad],
        ),
        (
            env!("CARGO_BIN_EXE_run"),
            vec![
                "fork-bench",
                "F",
                "--quick",
                "--checkpoint-at",
                "1",
                "--checkpoint",
                bad,
            ],
        ),
        (env!("CARGO_BIN_EXE_sweep"), vec!["--quick", "--json", bad]),
        (
            env!("CARGO_BIN_EXE_sweep"),
            vec!["--quick", "--json", scratch, "--metrics", bad],
        ),
        (
            env!("CARGO_BIN_EXE_profile"),
            vec!["fork-bench", "F", "--quick", "--json", bad],
        ),
    ] {
        let out = run_bin(exe, &args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "unwritable path must exit 2: {exe} {args:?}"
        );
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains("cannot access '/nonexistent-vic-dir/out.json'"),
            "typed Io error names the path ({exe} {args:?}):\n{err}"
        );
    }
    // A trace file that opens but cannot take the bytes: the write error
    // surfaces once the sink is finished instead of being lost.
    if cfg!(target_os = "linux") {
        let out = run_bin(
            env!("CARGO_BIN_EXE_run"),
            &["fork-bench", "F", "--quick", "--trace", "/dev/full"],
        );
        assert_eq!(out.status.code(), Some(2), "--trace /dev/full: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.starts_with("run: cannot access '/dev/full': "), "{err}");
        assert!(!stdout_of(&out).contains("trace:     written"), "{out:?}");
    }
}

/// Drop the run-dependent `"wall_seconds":<n>` pair so two result
/// documents from different processes can be compared byte-for-byte.
fn strip_wall(doc: &str) -> String {
    let Some(start) = doc.find("\"wall_seconds\":") else {
        return doc.to_string();
    };
    let rest = &doc[start..];
    let end = rest.find([',', '}']).map_or(doc.len(), |i| {
        start + i + usize::from(rest.as_bytes()[i] == b',')
    });
    format!("{}{}", &doc[..start], &doc[end..])
}

#[test]
fn run_checkpoint_restore_round_trips_through_the_binaries() {
    let run = env!("CARGO_BIN_EXE_run");
    let cp = tmp_file("cp.json");
    let full_json = tmp_file("full-result.json");
    let half_json = tmp_file("resumed-result.json");
    let full_trace = tmp_file("full-trace.jsonl");
    let first_trace = tmp_file("first-trace.jsonl");
    let second_trace = tmp_file("second-trace.jsonl");
    for f in [
        &cp,
        &full_json,
        &half_json,
        &full_trace,
        &first_trace,
        &second_trace,
    ] {
        let _ = std::fs::remove_file(f);
    }
    let spec = ["fork-bench", "F", "--quick"];

    // The uninterrupted reference.
    let out = run_bin(
        run,
        &[
            &spec[..],
            &[
                "--json",
                full_json.to_str().unwrap(),
                "--trace",
                full_trace.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert!(out.status.success(), "straight run: {out:?}");

    // Pause mid-run...
    let out = run_bin(
        run,
        &[
            &spec[..],
            &[
                "--checkpoint-at",
                "20000",
                "--checkpoint",
                cp.to_str().unwrap(),
                "--trace",
                first_trace.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert!(out.status.success(), "paused run: {out:?}");
    let text = stdout_of(&out);
    assert!(text.contains("checkpoint: paused at cycle"), "{text}");
    assert!(text.contains("resume with: run --restore"), "{text}");
    assert!(
        !text.contains("oracle:"),
        "a paused run prints no report:\n{text}"
    );
    let doc = std::fs::read_to_string(&cp).expect("checkpoint written");
    assert!(doc.starts_with(&ver_prefix()), "{doc}");

    // ...and resume: a restored run needs no workload/system arguments
    // and must finish byte-identical (modulo host wall-clock).
    let out = run_bin(
        run,
        &[
            "--restore",
            cp.to_str().unwrap(),
            "--json",
            half_json.to_str().unwrap(),
            "--trace",
            second_trace.to_str().unwrap(),
            "--trace-summary",
        ],
    );
    assert!(out.status.success(), "restored run: {out:?}");
    let text = stdout_of(&out);
    assert!(
        text.contains("audit:     CLEAN"),
        "mid-flight auditor re-attaches cleanly:\n{text}"
    );
    assert!(text.contains("oracle:    CLEAN"), "{text}");

    let full = std::fs::read_to_string(&full_json).unwrap();
    let resumed = std::fs::read_to_string(&half_json).unwrap();
    assert_eq!(
        strip_wall(&full),
        strip_wall(&resumed),
        "result JSON diverged"
    );
    let whole = std::fs::read_to_string(&full_trace).unwrap();
    let first = std::fs::read_to_string(&first_trace).unwrap();
    let second = std::fs::read_to_string(&second_trace).unwrap();
    assert_eq!(
        whole,
        first + &second,
        "concatenated trace halves diverge from the uninterrupted stream"
    );
    for f in [
        &cp,
        &full_json,
        &half_json,
        &full_trace,
        &first_trace,
        &second_trace,
    ] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn run_restore_rejects_bad_checkpoints_cleanly() {
    let run = env!("CARGO_BIN_EXE_run");
    // A real checkpoint to corrupt.
    let cp = tmp_file("bad-cp.json");
    let out = run_bin(
        run,
        &[
            "fork-bench",
            "F",
            "--quick",
            "--checkpoint-at",
            "1",
            "--checkpoint",
            cp.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "checkpoint run: {out:?}");
    let good = std::fs::read_to_string(&cp).unwrap();

    let missing = "/nonexistent-vic-dir/cp.json";
    let mismatched = tmp_file("bad-cp-version.json");
    std::fs::write(
        &mismatched,
        good.replace(
            &format!("\"engine_version\":{}", vic_core::ENGINE_VERSION),
            "\"engine_version\":99",
        ),
    )
    .unwrap();
    let truncated = tmp_file("bad-cp-truncated.json");
    std::fs::write(&truncated, &good[..good.len() / 2]).unwrap();
    let garbage = tmp_file("bad-cp-garbage.json");
    std::fs::write(&garbage, "not a checkpoint\n").unwrap();
    // A run-length count far past any real image must fail before the
    // decoder allocates for it.
    let inflated = tmp_file("bad-cp-inflated.json");
    let huge = good.replacen(",0*2,", ",0*100000000000000,", 1);
    assert_ne!(huge, good, "the checkpoint holds a 0*2 token");
    std::fs::write(&inflated, huge).unwrap();
    // 200 KB of openers used to overflow the JSON parser's stack.
    let nested = tmp_file("bad-cp-nested.json");
    std::fs::write(&nested, "[".repeat(200_000)).unwrap();

    for (path, what) in [
        (missing, "missing file"),
        (mismatched.to_str().unwrap(), "engine-version mismatch"),
        (truncated.to_str().unwrap(), "truncated document"),
        (garbage.to_str().unwrap(), "non-JSON garbage"),
        (inflated.to_str().unwrap(), "inflated RLE count"),
        (nested.to_str().unwrap(), "deeply nested JSON"),
    ] {
        let out = run_bin(run, &["--restore", path]);
        assert_eq!(out.status.code(), Some(2), "{what} must exit 2: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.starts_with("run: ") && err.contains(&format!("'{path}'")),
            "{what}: typed error names the path:\n{err}"
        );
        assert!(!err.contains("panicked"), "{what}: no panic:\n{err}");
    }
    // Restore refuses spec arguments: the checkpoint owns the spec.
    let out = run_bin(run, &["fork-bench", "F", "--restore", cp.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--restore takes its workload"), "{err}");
    // A checkpoint cycle without a file (and vice versa) is a usage error.
    let out = run_bin(run, &["fork-bench", "F", "--quick", "--checkpoint-at", "5"]);
    assert_eq!(out.status.code(), Some(2));
    for f in [&cp, &mismatched, &truncated, &garbage, &inflated, &nested] {
        let _ = std::fs::remove_file(f);
    }
}

/// The run count `N` of a sweep's `sweep: N runs on T threads` header.
fn swept_runs(stdout: &str) -> usize {
    stdout
        .strip_prefix("sweep: ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no sweep header in:\n{stdout}"))
}

/// A sweep's stdout without its header (the `sweep: N runs on T threads`
/// line and the blank line after it) and its summary lines (`metrics:`,
/// `cache:`, `swept`): the tables, which hold no host time.
fn sweep_tables(stdout: &str) -> &str {
    let start = stdout.find("\n\n").expect("header printed") + 2;
    let end = ["\nmetrics: ", "\ncache: ", "\nswept "]
        .iter()
        .filter_map(|tail| stdout.find(tail))
        .min()
        .expect("summary printed");
    &stdout[start..=end]
}

/// `sweep --quick` prints every measured table exactly as the retired
/// `table1`, `table4`, `table5` and `microbench` binaries printed them
/// with `--quick`, concatenated in that order (the fixture is their
/// captured stdout).
#[test]
fn sweep_prints_the_golden_tables() {
    let json = tmp_file("golden-sweep.json");
    let out = run_bin(
        env!("CARGO_BIN_EXE_sweep"),
        &["--quick", "--json", json.to_str().unwrap()],
    );
    let _ = std::fs::remove_file(&json);
    assert!(out.status.success(), "sweep failed: {out:?}");
    let text = stdout_of(&out);
    assert_eq!(
        sweep_tables(&text),
        include_str!("tables_quick.txt"),
        "sweep --quick tables drifted from the golden fixture:\n{text}"
    );
}

/// The `(hits, misses)` of a sweep's `cache:` line.
fn cache_counts(stdout: &str) -> (u64, u64) {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("cache: "))
        .unwrap_or_else(|| panic!("no cache line in:\n{stdout}"));
    let mut words = line.split_whitespace();
    let hits = words.next().and_then(|w| w.parse().ok());
    let misses = words.nth(1).and_then(|w| w.parse().ok());
    (hits.expect("hit count"), misses.expect("miss count"))
}

#[test]
fn sweep_cache_hits_are_byte_identical_across_processes() {
    use std::collections::BTreeMap;
    use vic_bench::experiments::measured_specs;
    use vic_bench::output::run_json;
    use vic_bench::SystemSpec;

    let sweep = env!("CARGO_BIN_EXE_sweep");
    let dir = tmp_file("cache");
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let [a, b, plain, metrics] = [
        "cache-a.json",
        "cache-b.json",
        "cache-plain.json",
        "cache-m.json",
    ]
    .map(tmp_file);
    let [a_s, b_s, plain_s, metrics_s] = [&a, &b, &plain, &metrics].map(|p| p.to_str().unwrap());

    let cold = run_bin(sweep, &["--quick", "--cache", d, "--json", a_s]);
    assert!(cold.status.success(), "cold sweep: {cold:?}");
    let warm = run_bin(
        sweep,
        &[
            "--quick",
            "--cache",
            d,
            "--json",
            b_s,
            "--metrics",
            metrics_s,
        ],
    );
    assert!(warm.status.success(), "warm sweep: {warm:?}");
    let uncached = run_bin(sweep, &["--quick", "--json", plain_s]);
    assert!(uncached.status.success(), "uncached sweep: {uncached:?}");
    let [cold, warm, uncached] = [&cold, &warm, &uncached].map(stdout_of);

    // A fresh directory holds nothing, and the grid lists every spec
    // once, so every run misses.
    let n = swept_runs(&cold) as u64;
    assert_eq!(cache_counts(&cold), (0, n), "a cold cache hits nothing");
    assert_eq!(cache_counts(&warm), (n, 0), "a new process hits it all");
    assert_eq!(sweep_tables(&warm), sweep_tables(&cold));
    assert_eq!(sweep_tables(&warm), sweep_tables(&uncached));
    let [a_doc, b_doc] = [&a, &b].map(|p| std::fs::read_to_string(p).unwrap());
    assert!(b_doc.starts_with(&ver_prefix()), "{b_doc}");
    assert_eq!(strip_all_wall(&a_doc), strip_all_wall(&b_doc));
    // Hits are completed runs in the telemetry, and are counted.
    let m = std::fs::read_to_string(&metrics).unwrap();
    for field in [
        format!("\"runs_completed\":{n},"),
        "\"runs_failed\":0,".to_string(),
        format!("\"cache_hits\":{n},"),
    ] {
        assert!(m.contains(&field), "missing {field} in {m}");
    }

    // Each file is named by the spec digest and holds exactly the
    // in-process run document.
    let specs = measured_specs(true);
    let expected: BTreeMap<String, SystemSpec> = specs
        .iter()
        .map(|s| (format!("vic-{:016x}.json", s.digest()), *s))
        .collect();
    let check_files = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, expected.keys().cloned().collect::<Vec<_>>());
        for (name, spec) in &expected {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            assert_eq!(text, run_json(spec, &spec.run(), None), "{name}");
        }
    };
    check_files();

    // Bad entries are each deleted, re-run and rewritten; the sweep still
    // exits 0.
    let file = |i: usize| dir.join(format!("vic-{:016x}.json", specs[i].digest()));
    let good = std::fs::read_to_string(file(6)).unwrap();
    std::fs::write(file(6), &good[..good.len() / 2]).unwrap();
    let foreign = std::fs::read_to_string(file(9)).unwrap().replacen(
        &format!("\"engine_version\":{}", vic_core::ENGINE_VERSION),
        "\"engine_version\":99",
        1,
    );
    std::fs::write(file(9), foreign).unwrap();
    std::fs::copy(file(0), file(12)).unwrap();
    std::fs::write(file(15), "[".repeat(200_000)).unwrap();
    let out = run_bin(sweep, &["--quick", "--cache", d, "--json", b_s]);
    assert!(out.status.success(), "sweep over bad entries: {out:?}");
    let text = stdout_of(&out);
    assert_eq!(cache_counts(&text), (n - 4, 4), "{text}");
    assert_eq!(sweep_tables(&text), sweep_tables(&cold));
    check_files();

    // The directory must be usable before anything runs.
    for (args, why) in [
        (
            vec!["--quick", "--cache", "/proc/vic-no-such-cache"],
            "cannot access '/proc/vic-no-such-cache'",
        ),
        (
            vec!["--quick", "--cache"],
            "flag '--cache' requires a value",
        ),
    ] {
        let out = run_bin(sweep, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(stdout_of(&out).is_empty(), "{args:?}: nothing ran");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.starts_with("sweep: ") && err.contains(why),
            "{args:?}:\n{err}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    for f in [&a, &b, &plain, &metrics] {
        let _ = std::fs::remove_file(f);
    }
}

/// [`strip_wall`] for every pair: a sweep document has one per run.
fn strip_all_wall(doc: &str) -> String {
    let mut doc = doc.to_string();
    while doc.contains("\"wall_seconds\":") {
        doc = strip_wall(&doc);
    }
    doc
}

#[test]
fn sweep_metrics_exports_and_check_metrics_validates() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    let json = tmp_file("sweep-m.json");
    let metrics = tmp_file("metrics.json");
    let out = run_bin(
        sweep,
        &[
            "--quick",
            "--threads",
            "2",
            "--json",
            json.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "sweep failed: {out:?}");
    let text = stdout_of(&out);
    assert!(text.contains("fleet telemetry written to"), "{text}");
    let n = swept_runs(&text);
    let doc = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(doc.starts_with(&ver_prefix()), "{doc}");
    let completed = format!("\"runs_completed\":{n},");
    assert!(doc.contains(&completed), "{doc}");
    assert!(doc.contains("\"runs_failed\":0,"), "{doc}");

    // The validation mode accepts its own output...
    let out = run_bin(sweep, &["--check-metrics", metrics.to_str().unwrap()]);
    assert!(out.status.success(), "check-metrics failed: {out:?}");
    assert!(
        stdout_of(&out).contains("metrics-valid"),
        "{}",
        stdout_of(&out)
    );

    // ...and rejects tampered fleet totals with exit 2.
    let tampered = format!("\"runs_completed\":{},", n - 1);
    std::fs::write(&metrics, doc.replacen(&completed, &tampered, 1)).unwrap();
    let out = run_bin(sweep, &["--check-metrics", metrics.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "tampered metrics must fail");

    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn profile_check_baseline_is_clean_against_fresh_baseline() {
    // `baseline` then `--check-baseline` against the file it just wrote
    // must pass with zero tolerance: same grid, same determinism.
    let profile = env!("CARGO_BIN_EXE_profile");
    let json = tmp_file("baseline.json");
    let out = run_bin(
        profile,
        &[
            "baseline",
            "--json",
            json.to_str().unwrap(),
            "--threads",
            "2",
        ],
    );
    assert!(out.status.success(), "baseline failed: {out:?}");
    assert!(stdout_of(&out).contains("22 runs profiled"));
    let out = run_bin(
        profile,
        &[
            "--check-baseline",
            json.to_str().unwrap(),
            "--tolerance",
            "0",
            "--threads",
            "2",
        ],
    );
    let text = stdout_of(&out);
    let _ = std::fs::remove_file(&json);
    assert!(
        out.status.success(),
        "fresh baseline must check clean: {text}"
    );
    assert!(text.contains("baseline check: CLEAN"), "{text}");
    assert!(text.contains("0 regressed"), "{text}");
}
