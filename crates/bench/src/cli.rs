//! Shared command-line parsing for every bench binary.
//!
//! One grammar, one set of names, one error type. The binaries used to
//! carry private copies of `parse_system`/`parse_workload` and silently
//! fell back to `usage()` on anything unexpected; now an unknown flag or
//! a conflicting pair produces a specific [`CliError`] naming the problem.

use std::fmt;

use vic_core::managers::DropClass;
use vic_core::policy::Configuration;
use vic_os::SystemKind;
use vic_workloads::WorkloadKind;

use crate::spec::SystemSpec;

/// The accepted workload names, for help text.
pub const WORKLOAD_NAMES: &str =
    "afs-bench | latex-paper | kernel-build | fork-bench | alias-aligned | alias-unaligned";

/// The accepted system names, for help text.
pub const SYSTEM_NAMES: &str = "A B C D E F (CMU configurations) | utah | apollo | tut | sun\n\
     \x20          null | chaos-flushes | chaos-d-purges | chaos-i-purges | chaos-flush-to-purge (broken, for the auditor)";

/// What went wrong while parsing a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A workload name that names no workload.
    UnknownWorkload(String),
    /// A system name that names no system.
    UnknownSystem(String),
    /// A flag this binary does not understand.
    UnknownFlag(String),
    /// A flag that requires a value was given none.
    MissingValue(&'static str),
    /// A required positional argument is absent.
    MissingArg(&'static str),
    /// More positional arguments than the grammar has slots for.
    UnexpectedArg(String),
    /// Two arguments that contradict each other (e.g. the same
    /// value-carrying flag given twice with different values).
    Conflicting(String),
    /// An output or input file could not be written or read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error text.
        err: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownWorkload(s) => {
                write!(
                    f,
                    "unknown workload '{s}' (expected one of: {WORKLOAD_NAMES})"
                )
            }
            CliError::UnknownSystem(s) => {
                write!(f, "unknown system '{s}' (expected one of: A-F, utah, apollo, tut, sun, null, chaos-*)")
            }
            CliError::UnknownFlag(s) => write!(f, "unknown flag '{s}'"),
            CliError::MissingValue(s) => write!(f, "flag '{s}' requires a value"),
            CliError::MissingArg(s) => write!(f, "missing required argument <{s}>"),
            CliError::UnexpectedArg(s) => write!(f, "unexpected extra argument '{s}'"),
            CliError::Conflicting(s) => write!(f, "conflicting arguments: {s}"),
            CliError::Io { path, err } => write!(f, "cannot access '{path}': {err}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Write `contents` to `path`, mapping any OS failure to a typed
/// [`CliError::Io`] (binaries print it and exit nonzero instead of
/// panicking on an unwritable path).
///
/// # Errors
///
/// [`CliError::Io`] naming the path and the OS error.
pub fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Io {
        path: path.to_string(),
        err: e.to_string(),
    })
}

/// Read `path` to a string, mapping any OS failure to a typed
/// [`CliError::Io`].
///
/// # Errors
///
/// [`CliError::Io`] naming the path and the OS error.
pub fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        err: e.to_string(),
    })
}

/// Parse a system name (configuration letters are case-insensitive).
///
/// # Errors
///
/// [`CliError::UnknownSystem`] if the name matches nothing.
pub fn parse_system(s: &str) -> Result<SystemKind, CliError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "a" => SystemKind::Cmu(Configuration::A),
        "b" => SystemKind::Cmu(Configuration::B),
        "c" => SystemKind::Cmu(Configuration::C),
        "d" => SystemKind::Cmu(Configuration::D),
        "e" => SystemKind::Cmu(Configuration::E),
        "f" => SystemKind::Cmu(Configuration::F),
        "utah" => SystemKind::Utah,
        "apollo" => SystemKind::Apollo,
        "tut" => SystemKind::Tut,
        "sun" => SystemKind::Sun,
        "null" => SystemKind::Null,
        "chaos-flushes" => SystemKind::Chaos(DropClass::Flushes),
        "chaos-d-purges" => SystemKind::Chaos(DropClass::DataPurges),
        "chaos-i-purges" => SystemKind::Chaos(DropClass::InsnPurges),
        "chaos-flush-to-purge" => SystemKind::Chaos(DropClass::FlushesBecomePurges),
        _ => return Err(CliError::UnknownSystem(s.to_string())),
    })
}

/// The canonical CLI/JSON name of a system — the inverse of
/// [`parse_system`].
pub fn system_cli_name(s: SystemKind) -> String {
    match s {
        SystemKind::Cmu(c) => c.letter().to_string(),
        SystemKind::Utah => "utah".to_string(),
        SystemKind::Apollo => "apollo".to_string(),
        SystemKind::Tut => "tut".to_string(),
        SystemKind::Sun => "sun".to_string(),
        SystemKind::Null => "null".to_string(),
        SystemKind::Chaos(DropClass::Flushes) => "chaos-flushes".to_string(),
        SystemKind::Chaos(DropClass::DataPurges) => "chaos-d-purges".to_string(),
        SystemKind::Chaos(DropClass::InsnPurges) => "chaos-i-purges".to_string(),
        SystemKind::Chaos(DropClass::FlushesBecomePurges) => "chaos-flush-to-purge".to_string(),
    }
}

/// Parse a workload name.
///
/// # Errors
///
/// [`CliError::UnknownWorkload`] if the name matches nothing.
pub fn parse_workload(s: &str) -> Result<WorkloadKind, CliError> {
    WorkloadKind::parse(s).ok_or_else(|| CliError::UnknownWorkload(s.to_string()))
}

/// Where the `run` binary gets its system from.
#[derive(Debug, Clone, PartialEq)]
pub enum RunMode {
    /// Boot a fresh system from the spec on the command line.
    Fresh(SystemSpec),
    /// Restore a paused system from a checkpoint file; the spec (and the
    /// fast-path setting) come from the file, not the command line.
    Restore(String),
}

/// The parsed command line of the `run` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCli {
    /// Fresh boot or checkpoint restore.
    pub mode: RunMode,
    /// Write every event as JSON lines to this file.
    pub trace: Option<String>,
    /// Print histograms + the consistency audit after the run.
    pub trace_summary: bool,
    /// Write the `RunStats` + spec as one JSON object to this file.
    pub json: Option<String>,
    /// Disable the engine's host-side fast paths (occupancy index,
    /// translation micro-cache, bulk runs) — for equivalence smoke tests;
    /// simulated results must not change.
    pub no_fast_paths: bool,
    /// Sample cache/TLB occupancy during the run and write the time
    /// series to this file (renderer chosen by extension).
    pub inspect: Option<String>,
    /// Sampling interval in simulated cycles (default
    /// [`DEFAULT_SAMPLE_EVERY`] when `--inspect` is given).
    pub sample_every: Option<u64>,
    /// Arm the flight recorder: on an audit divergence or workload error,
    /// write the run document with the audit, the last events, a system
    /// snapshot and the error to this file.
    pub flight: Option<String>,
    /// Pause the run once the simulated cycle counter reaches this value
    /// and write a [`SystemCheckpoint`](crate::checkpoint::SystemCheckpoint)
    /// to the paired file (`--checkpoint-at <cycle> --checkpoint <file>`).
    pub checkpoint: Option<(u64, String)>,
}

/// The default `--inspect` sampling interval in simulated cycles.
pub const DEFAULT_SAMPLE_EVERY: u64 = 10_000;

/// Parse the `run` binary's arguments:
/// `<workload> <system> [--quick] [--colored] [--write-through]
/// [--fast-purge] [--no-fast-paths] [--trace <file>]
/// [--trace-summary] [--json <file>] [--inspect <file>]
/// [--sample-every <n>] [--flight <file>]
/// [--checkpoint-at <cycle> --checkpoint <file>]`
/// or `--restore <file>` in place of the spec arguments.
///
/// # Errors
///
/// A [`CliError`] naming the offending argument.
pub fn parse_run(args: &[String]) -> Result<RunCli, CliError> {
    let mut pos: Vec<&str> = Vec::new();
    let mut quick = false;
    let mut colored = false;
    let mut write_through = false;
    let mut fast_purge = false;
    let mut trace_summary = false;
    let mut no_fast_paths = false;
    let mut trace: Option<String> = None;
    let mut json: Option<String> = None;
    let mut inspect: Option<String> = None;
    let mut sample_every: Option<String> = None;
    let mut flight: Option<String> = None;
    let mut checkpoint_at: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut restore: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--colored" => colored = true,
            "--write-through" => write_through = true,
            "--fast-purge" => fast_purge = true,
            "--trace-summary" => trace_summary = true,
            "--no-fast-paths" => no_fast_paths = true,
            "--trace" => set_value(&mut trace, "--trace", it.next())?,
            "--json" => set_value(&mut json, "--json", it.next())?,
            "--inspect" => set_value(&mut inspect, "--inspect", it.next())?,
            "--sample-every" => set_value(&mut sample_every, "--sample-every", it.next())?,
            "--flight" => set_value(&mut flight, "--flight", it.next())?,
            "--checkpoint-at" => set_value(&mut checkpoint_at, "--checkpoint-at", it.next())?,
            "--checkpoint" => set_value(&mut checkpoint, "--checkpoint", it.next())?,
            "--restore" => set_value(&mut restore, "--restore", it.next())?,
            s if s.starts_with("--") => return Err(CliError::UnknownFlag(s.to_string())),
            s => pos.push(s),
        }
    }
    let sample_every = match sample_every {
        None => None,
        Some(n) => {
            let v = n.parse::<u64>().map_err(|_| {
                CliError::Conflicting(format!(
                    "--sample-every wants a positive integer, got '{n}'"
                ))
            })?;
            if v == 0 {
                return Err(CliError::Conflicting(
                    "--sample-every must be at least 1".to_string(),
                ));
            }
            Some(v)
        }
    };
    if sample_every.is_some() && inspect.is_none() {
        return Err(CliError::Conflicting(
            "--sample-every only makes sense with --inspect <file>".to_string(),
        ));
    }
    let checkpoint = match (checkpoint_at, checkpoint) {
        (None, None) => None,
        (Some(at), Some(file)) => {
            let at = at.parse::<u64>().map_err(|_| {
                CliError::Conflicting(format!("--checkpoint-at wants a cycle count, got '{at}'"))
            })?;
            Some((at, file))
        }
        _ => {
            return Err(CliError::Conflicting(
                "--checkpoint-at <cycle> and --checkpoint <file> must be given together"
                    .to_string(),
            ))
        }
    };
    if let Some(extra) = pos.get(2) {
        return Err(CliError::UnexpectedArg(extra.to_string()));
    }
    let mode = if let Some(file) = restore {
        if !pos.is_empty() || quick || colored || write_through || fast_purge || no_fast_paths {
            return Err(CliError::Conflicting(
                "--restore takes its workload, system and knobs from the checkpoint file"
                    .to_string(),
            ));
        }
        RunMode::Restore(file)
    } else {
        let workload = parse_workload(pos.first().ok_or(CliError::MissingArg("workload"))?)?;
        let system = parse_system(pos.get(1).ok_or(CliError::MissingArg("system"))?)?;
        RunMode::Fresh(SystemSpec {
            workload,
            system,
            quick,
            colored_free_lists: colored,
            write_through,
            fast_purge,
        })
    };
    Ok(RunCli {
        mode,
        trace,
        trace_summary,
        json,
        no_fast_paths,
        inspect,
        sample_every,
        flight,
        checkpoint,
    })
}

/// The parsed command line of the `sweep` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCli {
    /// Quick mode (miniature machine, shortened workloads).
    pub quick: bool,
    /// Worker thread count override (default: `available_parallelism()`).
    pub threads: Option<usize>,
    /// Sweep-document file (default `BENCH_sweep.json`).
    pub json: String,
    /// Print a live progress/ETA line to stderr even when stderr is not a
    /// terminal (when it is a terminal, progress is on by default).
    pub progress: bool,
    /// Result-cache directory: reuse the results stored there and store
    /// every spec run (see [`crate::cache`]).
    pub cache: Option<String>,
}

/// Parse the `sweep` binary's arguments:
/// `[--quick] [--threads <n>] [--json <file>] [--progress] [--cache <dir>]`.
///
/// # Errors
///
/// A [`CliError`] naming the offending argument.
pub fn parse_sweep(args: &[String]) -> Result<SweepCli, CliError> {
    let mut quick = false;
    let mut progress = false;
    let mut threads: Option<String> = None;
    let mut json: Option<String> = None;
    let mut cache: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--progress" => progress = true,
            "--threads" => set_value(&mut threads, "--threads", it.next())?,
            "--json" => set_value(&mut json, "--json", it.next())?,
            "--cache" => set_value(&mut cache, "--cache", it.next())?,
            s if s.starts_with("--") => return Err(CliError::UnknownFlag(s.to_string())),
            s => return Err(CliError::UnexpectedArg(s.to_string())),
        }
    }
    Ok(SweepCli {
        quick,
        threads: parse_threads(threads)?,
        json: json.unwrap_or_else(|| "BENCH_sweep.json".to_string()),
        progress,
        cache,
    })
}

/// How the `profile` binary should render its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Padded plain-text columns (the default).
    Plain,
    /// RFC-4180-style CSV.
    Csv,
    /// GitHub-flavored Markdown.
    Markdown,
}

/// The parsed command line of the `profile` binary — one of four modes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileCli {
    /// Profile one run and print its cycle-cost breakdown.
    Report {
        /// The fully described run.
        spec: SystemSpec,
        /// Table rendering.
        format: ReportFormat,
        /// Also write the run document with its `cost_tree` to this file.
        json: Option<String>,
    },
    /// Compare the cost trees of two run or sweep documents.
    Diff {
        /// The base (older) document path.
        base: String,
        /// The new document path.
        new: String,
    },
    /// Regenerate the committed baseline document.
    Baseline {
        /// Output file (default `BENCH_baseline.json`).
        json: String,
        /// Worker thread count override.
        threads: Option<usize>,
    },
    /// Re-run the baseline grid and compare against the committed file.
    CheckBaseline {
        /// Baseline file to compare against.
        json: String,
        /// Worker thread count override.
        threads: Option<usize>,
    },
}

/// Parse the `profile` binary's arguments. Four modes:
///
/// * `<workload> <system> [--quick] [--colored] [--write-through]
///   [--fast-purge] [--csv|--markdown] [--json <file>]`
/// * `diff <base.json> <new.json>`
/// * `baseline [--json <file>] [--threads <n>]`
/// * `--check-baseline [<file>] [--threads <n>]`
///
/// # Errors
///
/// A [`CliError`] naming the offending argument.
pub fn parse_profile(args: &[String]) -> Result<ProfileCli, CliError> {
    match args.first().map(String::as_str) {
        Some("diff") => parse_profile_diff(&args[1..]),
        Some("baseline") => parse_profile_baseline(&args[1..]),
        _ if args.iter().any(|a| a == "--check-baseline") => parse_profile_check(args),
        _ => parse_profile_report(args),
    }
}

fn parse_profile_report(args: &[String]) -> Result<ProfileCli, CliError> {
    let mut pos: Vec<&str> = Vec::new();
    let mut quick = false;
    let mut colored = false;
    let mut write_through = false;
    let mut fast_purge = false;
    let mut csv = false;
    let mut markdown = false;
    let mut json: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--colored" => colored = true,
            "--write-through" => write_through = true,
            "--fast-purge" => fast_purge = true,
            "--csv" => csv = true,
            "--markdown" => markdown = true,
            "--json" => set_value(&mut json, "--json", it.next())?,
            s if s.starts_with("--") => return Err(CliError::UnknownFlag(s.to_string())),
            s => pos.push(s),
        }
    }
    if csv && markdown {
        return Err(CliError::Conflicting(
            "--csv and --markdown are mutually exclusive".to_string(),
        ));
    }
    if let Some(extra) = pos.get(2) {
        return Err(CliError::UnexpectedArg(extra.to_string()));
    }
    let workload = parse_workload(pos.first().ok_or(CliError::MissingArg("workload"))?)?;
    let system = parse_system(pos.get(1).ok_or(CliError::MissingArg("system"))?)?;
    Ok(ProfileCli::Report {
        spec: SystemSpec {
            workload,
            system,
            quick,
            colored_free_lists: colored,
            write_through,
            fast_purge,
        },
        format: if csv {
            ReportFormat::Csv
        } else if markdown {
            ReportFormat::Markdown
        } else {
            ReportFormat::Plain
        },
        json,
    })
}

fn parse_profile_diff(args: &[String]) -> Result<ProfileCli, CliError> {
    let mut pos: Vec<&str> = Vec::new();
    for a in args {
        match a.as_str() {
            s if s.starts_with("--") => return Err(CliError::UnknownFlag(s.to_string())),
            s => pos.push(s),
        }
    }
    if let Some(extra) = pos.get(2) {
        return Err(CliError::UnexpectedArg(extra.to_string()));
    }
    let base = pos.first().ok_or(CliError::MissingArg("base.json"))?;
    let new = pos.get(1).ok_or(CliError::MissingArg("new.json"))?;
    Ok(ProfileCli::Diff {
        base: base.to_string(),
        new: new.to_string(),
    })
}

fn parse_profile_baseline(args: &[String]) -> Result<ProfileCli, CliError> {
    let mut json: Option<String> = None;
    let mut threads: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => set_value(&mut json, "--json", it.next())?,
            "--threads" => set_value(&mut threads, "--threads", it.next())?,
            s if s.starts_with("--") => return Err(CliError::UnknownFlag(s.to_string())),
            s => return Err(CliError::UnexpectedArg(s.to_string())),
        }
    }
    Ok(ProfileCli::Baseline {
        json: json.unwrap_or_else(|| DEFAULT_BASELINE_FILE.to_string()),
        threads: parse_threads(threads)?,
    })
}

fn parse_profile_check(args: &[String]) -> Result<ProfileCli, CliError> {
    let mut pos: Vec<&str> = Vec::new();
    let mut threads: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check-baseline" => {}
            "--threads" => set_value(&mut threads, "--threads", it.next())?,
            s if s.starts_with("--") => return Err(CliError::UnknownFlag(s.to_string())),
            s => pos.push(s),
        }
    }
    if let Some(extra) = pos.get(1) {
        return Err(CliError::UnexpectedArg(extra.to_string()));
    }
    Ok(ProfileCli::CheckBaseline {
        json: pos
            .first()
            .map_or_else(|| DEFAULT_BASELINE_FILE.to_string(), |s| s.to_string()),
        threads: parse_threads(threads)?,
    })
}

/// The committed perf-regression baseline file.
pub const DEFAULT_BASELINE_FILE: &str = "BENCH_baseline.json";

fn parse_threads(t: Option<String>) -> Result<Option<usize>, CliError> {
    match t {
        None => Ok(None),
        Some(t) => {
            let n = t.parse::<usize>().map_err(|_| {
                CliError::Conflicting(format!("--threads wants a positive integer, got '{t}'"))
            })?;
            if n == 0 {
                return Err(CliError::Conflicting(
                    "--threads must be at least 1".to_string(),
                ));
            }
            Ok(Some(n))
        }
    }
}

fn set_value(
    slot: &mut Option<String>,
    flag: &'static str,
    value: Option<&String>,
) -> Result<(), CliError> {
    let v = value.ok_or(CliError::MissingValue(flag))?;
    match slot {
        Some(old) if old != v => Err(CliError::Conflicting(format!(
            "{flag} given twice ('{old}' and '{v}')"
        ))),
        _ => {
            *slot = Some(v.clone());
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn system_names_roundtrip() {
        for name in [
            "A",
            "b",
            "C",
            "d",
            "E",
            "f",
            "utah",
            "apollo",
            "tut",
            "sun",
            "null",
            "chaos-flushes",
            "chaos-d-purges",
            "chaos-i-purges",
            "chaos-flush-to-purge",
        ] {
            let sys = parse_system(name).unwrap();
            assert_eq!(
                parse_system(&system_cli_name(sys)).unwrap(),
                sys,
                "round trip through {name}"
            );
        }
        assert!(matches!(
            parse_system("hp748"),
            Err(CliError::UnknownSystem(_))
        ));
    }

    #[test]
    fn run_grammar() {
        let cli = parse_run(&s(&[
            "kernel-build",
            "F",
            "--quick",
            "--colored",
            "--json",
            "out.json",
        ]))
        .unwrap();
        let RunMode::Fresh(spec) = cli.mode else {
            panic!("expected Fresh, got {:?}", cli.mode);
        };
        assert_eq!(spec.workload, WorkloadKind::KernelBuild);
        assert_eq!(spec.system, SystemKind::Cmu(Configuration::F));
        assert!(spec.quick && spec.colored_free_lists);
        assert_eq!(cli.json.as_deref(), Some("out.json"));
        assert!(cli.trace.is_none() && !cli.trace_summary);
        assert!(!cli.no_fast_paths);
        assert!(cli.checkpoint.is_none());
        let cli = parse_run(&s(&["afs-bench", "F", "--no-fast-paths"])).unwrap();
        assert!(cli.no_fast_paths);
    }

    #[test]
    fn run_checkpoint_grammar() {
        let cli = parse_run(&s(&[
            "fork-bench",
            "F",
            "--quick",
            "--checkpoint-at",
            "50000",
            "--checkpoint",
            "cp.json",
        ]))
        .unwrap();
        assert_eq!(cli.checkpoint, Some((50_000, "cp.json".to_string())));
        // Both halves of the pair are required.
        assert!(matches!(
            parse_run(&s(&["fork-bench", "F", "--checkpoint-at", "100"])),
            Err(CliError::Conflicting(_))
        ));
        assert!(matches!(
            parse_run(&s(&["fork-bench", "F", "--checkpoint", "cp.json"])),
            Err(CliError::Conflicting(_))
        ));
        assert!(matches!(
            parse_run(&s(&[
                "fork-bench",
                "F",
                "--checkpoint-at",
                "soon",
                "--checkpoint",
                "cp.json"
            ])),
            Err(CliError::Conflicting(_))
        ));
    }

    #[test]
    fn run_restore_grammar() {
        let cli = parse_run(&s(&["--restore", "cp.json"])).unwrap();
        assert_eq!(cli.mode, RunMode::Restore("cp.json".to_string()));
        // The restored spec comes from the file: positionals and spec
        // knobs conflict with --restore.
        for extra in [
            vec!["--restore", "cp.json", "fork-bench", "F"],
            vec!["--restore", "cp.json", "--quick"],
            vec!["--restore", "cp.json", "--no-fast-paths"],
            vec!["--restore", "cp.json", "--write-through"],
        ] {
            assert!(
                matches!(parse_run(&s(&extra)), Err(CliError::Conflicting(_))),
                "{extra:?}"
            );
        }
        // Observers and a further checkpoint re-attach freely.
        let cli = parse_run(&s(&[
            "--restore",
            "cp.json",
            "--trace-summary",
            "--json",
            "out.json",
            "--checkpoint-at",
            "90000",
            "--checkpoint",
            "cp2.json",
        ]))
        .unwrap();
        assert!(cli.trace_summary);
        assert_eq!(cli.checkpoint, Some((90_000, "cp2.json".to_string())));
    }

    #[test]
    fn run_errors_name_the_problem() {
        assert_eq!(
            parse_run(&s(&["afs-bench"])),
            Err(CliError::MissingArg("system"))
        );
        assert_eq!(
            parse_run(&s(&["afs-bench", "F", "extra"])),
            Err(CliError::UnexpectedArg("extra".to_string()))
        );
        assert_eq!(
            parse_run(&s(&["afs-bench", "F", "--frobnicate"])),
            Err(CliError::UnknownFlag("--frobnicate".to_string()))
        );
        assert_eq!(
            parse_run(&s(&["afs-bench", "F", "--trace"])),
            Err(CliError::MissingValue("--trace"))
        );
        assert!(matches!(
            parse_run(&s(&["afs-bench", "F", "--json", "a", "--json", "b"])),
            Err(CliError::Conflicting(_))
        ));
        // Same value twice is harmless.
        assert!(parse_run(&s(&["afs-bench", "F", "--json", "a", "--json", "a"])).is_ok());
    }

    #[test]
    fn run_observability_grammar() {
        let cli = parse_run(&s(&[
            "afs-bench",
            "F",
            "--inspect",
            "occ.csv",
            "--sample-every",
            "500",
            "--flight",
            "dump.json",
        ]))
        .unwrap();
        assert_eq!(cli.inspect.as_deref(), Some("occ.csv"));
        assert_eq!(cli.sample_every, Some(500));
        assert_eq!(cli.flight.as_deref(), Some("dump.json"));
        // --sample-every needs --inspect, a positive integer, and a value.
        assert!(matches!(
            parse_run(&s(&["afs-bench", "F", "--sample-every", "500"])),
            Err(CliError::Conflicting(_))
        ));
        assert!(matches!(
            parse_run(&s(&[
                "afs-bench",
                "F",
                "--inspect",
                "o",
                "--sample-every",
                "0"
            ])),
            Err(CliError::Conflicting(_))
        ));
        assert!(matches!(
            parse_run(&s(&[
                "afs-bench",
                "F",
                "--inspect",
                "o",
                "--sample-every",
                "x"
            ])),
            Err(CliError::Conflicting(_))
        ));
        let cli = parse_run(&s(&["afs-bench", "F", "--inspect", "o.md"])).unwrap();
        assert_eq!(cli.sample_every, None, "interval defaults in the binary");
    }

    #[test]
    fn sweep_grammar() {
        let cli = parse_sweep(&s(&["--quick", "--threads", "4"])).unwrap();
        assert!(cli.quick);
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.json, "BENCH_sweep.json");
        assert!(!cli.progress);
        assert!(parse_sweep(&s(&["--progress"])).unwrap().progress);
        // No fleet-metrics flags: the sweep document holds every total.
        for flag in ["--metrics", "--check-metrics"] {
            assert_eq!(
                parse_sweep(&s(&[flag, "m.json"])),
                Err(CliError::UnknownFlag(flag.to_string()))
            );
        }
        assert!(matches!(
            parse_sweep(&s(&["--threads", "zero"])),
            Err(CliError::Conflicting(_))
        ));
        assert!(matches!(
            parse_sweep(&s(&["--threads", "0"])),
            Err(CliError::Conflicting(_))
        ));
        assert!(matches!(
            parse_sweep(&s(&["table4"])),
            Err(CliError::UnexpectedArg(_))
        ));
    }

    #[test]
    fn sweep_cache_grammar() {
        assert_eq!(parse_sweep(&s(&["--quick"])).unwrap().cache, None);
        let cli = parse_sweep(&s(&["--cache", "d", "--quick"])).unwrap();
        assert_eq!(cli.cache.as_deref(), Some("d"));
        assert!(matches!(
            parse_sweep(&s(&["--cache"])),
            Err(CliError::MissingValue("--cache"))
        ));
        assert!(matches!(
            parse_sweep(&s(&["--cache", "a", "--cache", "b"])),
            Err(CliError::Conflicting(_))
        ));
    }

    #[test]
    fn io_helpers_produce_typed_errors() {
        let err = write_file("/nonexistent-dir-for-vic/x.json", "{}").unwrap_err();
        let CliError::Io { path, .. } = &err else {
            panic!("expected Io, got {err:?}");
        };
        assert_eq!(path, "/nonexistent-dir-for-vic/x.json");
        assert!(err.to_string().contains("cannot access"));
        assert!(matches!(
            read_file("/nonexistent-dir-for-vic/x.json"),
            Err(CliError::Io { .. })
        ));
    }

    #[test]
    fn profile_report_grammar() {
        let cli = parse_profile(&s(&["afs-bench", "F", "--quick", "--markdown"])).unwrap();
        let ProfileCli::Report { spec, format, json } = cli else {
            panic!("expected Report, got {cli:?}");
        };
        assert_eq!(spec.workload, WorkloadKind::Afs);
        assert!(spec.quick);
        assert_eq!(format, ReportFormat::Markdown);
        assert!(json.is_none());
        assert!(matches!(
            parse_profile(&s(&["afs-bench", "F", "--csv", "--markdown"])),
            Err(CliError::Conflicting(_))
        ));
        assert_eq!(
            parse_profile(&s(&["afs-bench"])),
            Err(CliError::MissingArg("system"))
        );
    }

    #[test]
    fn profile_diff_grammar() {
        let cli = parse_profile(&s(&["diff", "a.json", "b.json"])).unwrap();
        assert_eq!(
            cli,
            ProfileCli::Diff {
                base: "a.json".to_string(),
                new: "b.json".to_string(),
            }
        );
        assert_eq!(
            parse_profile(&s(&["diff", "a.json"])),
            Err(CliError::MissingArg("new.json"))
        );
        // The gate is exact: there is no tolerance to set.
        assert_eq!(
            parse_profile(&s(&["diff", "a", "b", "--tolerance", "5"])),
            Err(CliError::UnknownFlag("--tolerance".to_string()))
        );
        assert!(matches!(
            parse_profile(&s(&["diff", "a", "b", "c"])),
            Err(CliError::UnexpectedArg(_))
        ));
    }

    #[test]
    fn profile_baseline_grammar() {
        let cli = parse_profile(&s(&["baseline"])).unwrap();
        assert_eq!(
            cli,
            ProfileCli::Baseline {
                json: DEFAULT_BASELINE_FILE.to_string(),
                threads: None,
            }
        );
        let cli = parse_profile(&s(&["baseline", "--json", "b.json", "--threads", "2"])).unwrap();
        assert_eq!(
            cli,
            ProfileCli::Baseline {
                json: "b.json".to_string(),
                threads: Some(2),
            }
        );
        assert!(matches!(
            parse_profile(&s(&["baseline", "extra"])),
            Err(CliError::UnexpectedArg(_))
        ));
    }

    #[test]
    fn profile_check_grammar() {
        let cli = parse_profile(&s(&["--check-baseline"])).unwrap();
        assert_eq!(
            cli,
            ProfileCli::CheckBaseline {
                json: DEFAULT_BASELINE_FILE.to_string(),
                threads: None,
            }
        );
        let cli = parse_profile(&s(&["--check-baseline", "other.json", "--threads", "3"])).unwrap();
        assert_eq!(
            cli,
            ProfileCli::CheckBaseline {
                json: "other.json".to_string(),
                threads: Some(3),
            }
        );
        assert_eq!(
            parse_profile(&s(&["--check-baseline", "--tolerance", "0"])),
            Err(CliError::UnknownFlag("--tolerance".to_string()))
        );
        assert!(matches!(
            parse_profile(&s(&["--check-baseline", "a", "b"])),
            Err(CliError::UnexpectedArg(_))
        ));
        assert!(matches!(
            parse_profile(&s(&["--check-baseline", "--threads", "0"])),
            Err(CliError::Conflicting(_))
        ));
    }
}
