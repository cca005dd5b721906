//! The repository benchmark.
//!
//! ```text
//! benchmark [--seed N] [--out FILE]      full set: 10 interleaved rounds of all
//!                                        four workloads, a traced round, twins
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                                        one workload for S seconds; the last
//!                                        line is the result as one JSON object
//! benchmark --smoke                      one round of each workload, quick scale
//! benchmark --check FILE                 validate a result file (exit 1 if bad)
//! benchmark --compare A B                per-metric verdicts of B against A
//!                                        (exit 1 if any got worse)
//! ```
//!
//! The parent is one single-threaded process that runs its own binary as
//! one child per (round, workload) slice, one child at a time (`--child`,
//! internal). Children give every slice the same heap state, and
//! interleaving the workloads spreads a slow spell of a shared machine over
//! all of them instead of taking out every round of one.
//! Exit codes: 0 clean (for `--workload`, once the result line is printed),
//! 1 a failed run, check or comparison, 2 a usage or file error.

mod probes;
mod report;
mod run;
mod stats;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{Acc, Catalogue, Report};
use run::Mode;
use workload::Workload;

/// glibc's malloc adapts its mmap and trim thresholds to the frees it has
/// seen, so whether `Kernel::new` reuses zeroed heap memory (~3 ms, what a
/// long-running grid pays) or gets fresh lazily-zeroed pages (~0.3 ms, with
/// the faults moved into the run) flips with heap layout from one child to
/// the next. Children run with both thresholds pinned at that steady state:
/// the 16 MB buffers come from the heap and the heap is never trimmed.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=17179869184";

/// Rounds in a full set.
const SET_ROUNDS: usize = 10;
/// Fewest timed rounds a `--workload` run makes, however short `--seconds`.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: benchmark [--seed N] [--out FILE]
       benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
       benchmark --smoke
       benchmark --check FILE
       benchmark --compare A B
workloads: paper-grid, alias-hit, alias-fault, short-runs";

#[derive(Debug, Default)]
struct Args {
    seed: u64,
    out: Option<String>,
    workload: Option<Workload>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check: Option<String>,
    compare: Option<(String, String)>,
    child: Option<Workload>,
    mode: Option<Mode>,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let workload = |v: &str| Workload::parse(v).ok_or(format!("unknown workload '{v}'"));
        match flag.as_str() {
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--out" => a.out = Some(value()?.clone()),
            "--workload" => a.workload = Some(workload(value()?)?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--check" => a.check = Some(value()?.clone()),
            "--compare" => {
                let first = value()?.clone();
                a.compare = Some((first, value()?.clone()));
            }
            "--child" => a.child = Some(workload(value()?)?),
            "--mode" => {
                a.mode = Some(match value()?.as_str() {
                    "timed" => Mode::Timed,
                    "traced" => Mode::Traced,
                    "twins" => Mode::Twins,
                    m => return Err(format!("unknown mode '{m}'")),
                })
            }
            "--quick" => a.quick = true,
            "-h" | "--help" => return Err(String::new()),
            f => return Err(format!("unknown argument '{f}'")),
        }
    }
    let modes = [
        a.workload.is_some(),
        a.smoke,
        a.check.is_some(),
        a.compare.is_some(),
        a.child.is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() > 1 {
        return Err(
            "--workload, --smoke, --check, --compare and --child exclude each other".into(),
        );
    }
    if a.workload.is_none() && (a.seconds.is_some() || a.trace) {
        return Err("--seconds and --trace go with --workload".into());
    }
    Ok(a)
}

/// Run one slice in a child process and parse its report. Runs one child
/// at a time and waits for it.
fn child(w: Workload, seed: u64, quick: bool, mode: Mode) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mode = match mode {
        Mode::Timed => "timed",
        Mode::Traced => "traced",
        Mode::Twins => "twins",
    };
    let mut cmd = Command::new(exe);
    cmd.env("GLIBC_TUNABLES", MALLOC_TUNABLES);
    cmd.args([
        "--child",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--mode",
        mode,
    ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Report::parse(text.lines().last().unwrap_or("")).map_err(|e| format!("bad report: {e}"))
}

/// Run a slice and fold its report into `acc`.
fn slice_into(acc: &mut Acc, seed: u64, quick: bool, mode: Mode) {
    let w = acc.workload;
    match child(w, seed, quick, mode) {
        Ok(rep) => match mode {
            Mode::Timed => acc.timed(&rep),
            Mode::Traced => acc.traced(&rep),
            Mode::Twins => acc.twins(&rep),
        },
        Err(e) => acc.lost(run::order(w, w.jobs(seed, quick).len(), mode).len(), &e),
    }
}

/// The correctness checks that follow the timed rounds: the fast-paths-off
/// twins, and the committed digest where the inputs are the default ones.
fn finish_checks(acc: &mut Acc, seed: u64, quick: bool) {
    slice_into(acc, seed, quick, Mode::Twins);
    if !quick && (seed == 0 || !acc.workload.seeded()) {
        acc.check_expected();
    }
}

/// `--workload`: timed rounds for `seconds`, the checks, and with `trace`
/// a traced round running every probe. Prints the result line, whose
/// `correct` field carries the verdict: the exit code is 0 once it is out.
fn one_workload(w: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let cat = Catalogue::get();
    let mut acc = Acc::new(w, w.jobs(seed, false).len());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        slice_into(&mut acc, seed, false, Mode::Timed);
        rounds += 1;
    }
    if trace {
        slice_into(&mut acc, seed, false, Mode::Traced);
    }
    finish_checks(&mut acc, seed, false);
    let metrics = if trace {
        acc.per_layer()
    } else {
        acc.end_to_end(&cat)
    };
    report::print_metrics(&cat, w, &metrics);
    if trace {
        for (phase, ns) in acc.phases() {
            println!("{:<12} phase {phase:<26} {:>14.4} ms", w.name(), ns / 1e6);
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        acc.failed == 0,
        acc.attempted,
        acc.failed,
        report::metrics_object(&cat, &metrics)
    );
    ExitCode::SUCCESS
}

/// A full set (or, with `quick`, the one-round smoke set): rounds that
/// interleave every workload in a rotating order, then a traced round, then
/// the checks.
fn full_set(seed: u64, quick: bool, out: Option<&str>) -> ExitCode {
    let cat = Catalogue::get();
    let rounds = if quick { 1 } else { SET_ROUNDS };
    let mut accs: Vec<Acc> = Workload::ALL
        .iter()
        .map(|&w| Acc::new(w, w.jobs(seed, quick).len()))
        .collect();
    let n = accs.len();
    let start = Instant::now();
    for r in 0..rounds {
        for i in 0..n {
            slice_into(&mut accs[(r + i) % n], seed, quick, Mode::Timed);
        }
        eprintln!(
            "benchmark: round {}/{rounds} done at {:.1} s",
            r + 1,
            start.elapsed().as_secs_f64()
        );
    }
    for acc in &mut accs {
        slice_into(acc, seed, quick, Mode::Traced);
        finish_checks(acc, seed, quick);
    }
    for acc in &accs {
        report::print_metrics(&cat, acc.workload, &acc.end_to_end(&cat));
        report::print_metrics(&cat, acc.workload, &acc.per_layer());
        println!(
            "{:<12} fail_ratio {}/{} digest {}",
            acc.workload.name(),
            acc.failed,
            acc.attempted,
            acc.digest()
                .map(|d| format!("{d:016x}"))
                .unwrap_or_default()
        );
    }
    println!("set took {:.1} s", start.elapsed().as_secs_f64());
    if let Some(path) = out {
        let path = std::path::Path::new(path);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("benchmark: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(path, report::set_json(&cat, seed, quick, &accs)) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    if accs.iter().all(|a| a.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("benchmark: cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = args.child {
        println!(
            "{}",
            run::slice(w, args.seed, args.quick, args.mode.unwrap_or(Mode::Timed))
        );
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.check {
        let text = match read(path) {
            Ok(t) => t,
            Err(code) => return code,
        };
        let bad = report::check(&Catalogue::get(), &text);
        for b in &bad {
            println!("violation: {b}");
        }
        println!(
            "{}: {}",
            path,
            if bad.is_empty() { "OK" } else { "INVALID" }
        );
        return if bad.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    if let Some((a, b)) = &args.compare {
        let (ta, tb) = match (read(a), read(b)) {
            (Ok(ta), Ok(tb)) => (ta, tb),
            (Err(code), _) | (_, Err(code)) => return code,
        };
        return match report::compare(&Catalogue::get(), &ta, &tb) {
            Ok((table, worse)) => {
                print!("{table}");
                if worse {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(w) = args.workload {
        let seconds = args.seconds.unwrap_or(Catalogue::get().run_seconds);
        return one_workload(w, args.seed, seconds, args.trace);
    }
    full_set(args.seed, args.smoke, args.out.as_deref())
}
