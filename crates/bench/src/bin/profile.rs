//! Cycle-cost attribution profiler: where every simulated cycle of a run
//! went, which commit moved it, and whether it regressed.
//!
//! ```sh
//! # Where do afs-bench's cycles go under configuration F?
//! cargo run --release -p vic-bench --bin profile -- afs-bench F --quick
//!
//! # The same breakdown as Markdown, plus the run document (with its
//! # cost tree) for diffing.
//! cargo run --release -p vic-bench --bin profile -- afs-bench F --markdown --json before.json
//!
//! # What moved between two profiles?
//! cargo run --release -p vic-bench --bin profile -- diff before.json after.json
//!
//! # Refresh the committed perf baseline; check against it (CI does this).
//! cargo run --release -p vic-bench --bin profile -- baseline
//! cargo run --release -p vic-bench --bin profile -- --check-baseline
//! ```

use vic_bench::cli::{self, ProfileCli, ReportFormat, SYSTEM_NAMES, WORKLOAD_NAMES};
use vic_bench::output::{self, Sections};
use vic_bench::profile;
use vic_bench::sweep::default_threads;
use vic_profile::{DocDiff, ProfileRun};

fn usage() -> String {
    format!(
        "usage: profile <workload> <system> [--quick] [--colored] [--write-through] [--fast-purge]\n\
         \x20                                  [--csv|--markdown] [--json <file>]\n\
         \x20      profile diff <base.json> <new.json>\n\
         \x20      profile baseline [--json <file>] [--threads <n>]\n\
         \x20      profile --check-baseline [<file>] [--threads <n>]\n\
         \n\
         workloads: {WORKLOAD_NAMES}\n\
         systems:   {SYSTEM_NAMES}\n\
         \n\
         The first form runs one profiled simulation and prints its cycle-cost\n\
         breakdown; 'diff' compares the cost trees of two saved run or sweep\n\
         documents; 'baseline' regenerates {baseline}; '--check-baseline'\n\
         re-runs the baseline grid and fails (exit 1) on any run that spends\n\
         more cycles than the baseline or is missing from it.",
        baseline = cli::DEFAULT_BASELINE_FILE,
    )
}

fn read_runs(path: &str) -> Vec<ProfileRun> {
    let text = cli::read_file(path).unwrap_or_else(|e| {
        eprintln!("profile: {e}");
        std::process::exit(2);
    });
    profile::profile_runs(&text).unwrap_or_else(|e| {
        eprintln!("profile: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse_profile(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("profile: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    match cli {
        ProfileCli::Report { spec, format, json } => {
            let (stats, tree) = profile::profiled(&spec);
            assert_eq!(
                tree.total_cycles(),
                stats.cycles,
                "cycle conservation violated (a profiler instrumentation bug)"
            );
            let render = |t: &vic_workloads::report::Table| match format {
                ReportFormat::Plain => t.render(),
                ReportFormat::Csv => t.render_csv(),
                ReportFormat::Markdown => t.render_markdown(),
            };
            println!("{}  ({} cycles)", spec.label(), stats.cycles);
            println!();
            println!("{}", render(&profile::summary_table(&tree)));
            println!("{}", render(&profile::breakdown_table(&tree)));
            if let Some(path) = &json {
                let sections = Sections {
                    cost_tree: Some(&tree),
                    ..Sections::default()
                };
                let doc = output::run_doc(&spec, &stats, None, &sections);
                if let Err(e) = cli::write_file(path, &(doc + "\n")) {
                    eprintln!("profile: {e}");
                    std::process::exit(2);
                }
                println!("json: written to {path}");
            }
        }
        ProfileCli::Diff { base, new } => {
            let d = DocDiff::compare(&read_runs(&base), &read_runs(&new));
            print!("{}", profile::render_diff(&d));
            if !d.is_clean() {
                std::process::exit(1);
            }
        }
        ProfileCli::Baseline { json, threads } => {
            let threads = threads.unwrap_or_else(default_threads);
            let sweep = profile::run_baseline(threads);
            let doc = output::sweep_json(&sweep, false);
            if let Err(e) = cli::write_file(&json, &(doc + "\n")) {
                eprintln!("profile: {e}");
                std::process::exit(2);
            }
            println!(
                "baseline: {} runs profiled on {} threads in {:.2} s, written to {json}",
                sweep.results.len(),
                sweep.threads,
                sweep.wall.as_secs_f64()
            );
        }
        ProfileCli::CheckBaseline { json, threads } => {
            let text = cli::read_file(&json).unwrap_or_else(|e| {
                eprintln!("profile: {e}\n(run `profile baseline` to create it)");
                std::process::exit(2);
            });
            let threads = threads.unwrap_or_else(default_threads);
            let d = profile::check_baseline(&text, threads).unwrap_or_else(|e| {
                eprintln!("profile: {json}: {e}");
                std::process::exit(2);
            });
            print!("{}", profile::render_diff(&d));
            if d.is_clean() {
                println!("baseline check: CLEAN against {json}");
            } else {
                println!("baseline check: FAILED against {json}");
                std::process::exit(1);
            }
        }
    }
}
