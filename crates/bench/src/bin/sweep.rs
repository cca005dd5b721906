//! Regenerate every measured table of the paper — Table 1, Table 4 with
//! the §5.1 summary and what-if, Table 5 and the §2.5 microbenchmark —
//! from one **parallel** sweep, and write the results as JSON.
//!
//! The runs behind those tables (28 distinct specs at paper scale, 27
//! with `--quick`) are described as [`SystemSpec`](vic_bench::SystemSpec)
//! values, each listed once however many tables read it, and fanned
//! across worker threads; every run is a pure function of its spec, so the
//! printed tables do not depend on the thread count. Table 2 comes from
//! the `table2` binary, which runs the model checker instead of the
//! simulator.
//!
//! ```sh
//! cargo run --release -p vic-bench --bin sweep
//! cargo run --release -p vic-bench --bin sweep -- --quick --threads 4 --json results.json
//! cargo run --release -p vic-bench --bin sweep -- --quick --progress --metrics fleet.json
//! cargo run --release -p vic-bench --bin sweep -- --check-metrics fleet.json
//! cargo run --release -p vic-bench --bin sweep -- --quick --cache results/
//! ```
//!
//! With `--metrics <file>` the sweep also exports fleet telemetry — runs
//! completed/failed, simulated cycles retired, host-ns-per-run histograms
//! — as one versioned JSON document whose totals `--check-metrics`
//! cross-validates against the per-run list. `--progress` forces a live
//! progress/ETA line on stderr (on by default when stderr is a terminal).
//! `--cache <dir>` reuses the results stored in `dir` and stores every
//! spec it runs (see `vic_bench::cache` for the key and the validation);
//! the printed tables and JSON are the same as without it.

use vic_bench::cache::ResultCache;
use vic_bench::cli::{self, SweepCli};
use vic_bench::experiments::{measured_specs, render_tables, Grid};
use vic_bench::output::{metrics_json, parse_metrics_doc, sweep_json, RunMetric};
use vic_bench::sweep::{default_threads, run_sweep};
use vic_metrics::ProgressReporter;

fn fail(msg: String) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let SweepCli {
        quick,
        threads,
        json,
        metrics,
        progress,
        check_metrics,
        cache,
    } = cli::parse_sweep(&args).unwrap_or_else(|e| {
        eprintln!(
            "sweep: {e}\nusage: sweep [--quick] [--threads <n>] [--json <file>] [--metrics <file>] [--progress] [--cache <dir>]\n       sweep --check-metrics <file>"
        );
        std::process::exit(2);
    });

    // Standalone validation mode: parse, cross-check, report, exit.
    if let Some(path) = check_metrics {
        let text = cli::read_file(&path).unwrap_or_else(|e| fail(e.to_string()));
        match parse_metrics_doc(&text) {
            Ok(doc) => {
                println!(
                    "{path}: metrics-valid — {} runs completed ({} failed) on {} threads, {} sim-cycles, fleet totals match the run list",
                    doc.runs_completed, doc.runs_failed, doc.threads, doc.sim_cycles
                );
            }
            Err(e) => fail(format!("{path}: {e}")),
        }
        return;
    }

    let store = cache
        .as_deref()
        .map(ResultCache::open)
        .transpose()
        .unwrap_or_else(|e| fail(e.to_string()));

    let specs = measured_specs(quick);

    // The point of the sweep is parallelism: default to every hardware
    // thread, and to at least two even on a single-core host (the engine
    // is deterministic either way). An explicit --threads wins.
    let threads = threads.unwrap_or_else(|| default_threads().max(2));
    println!(
        "sweep: {} runs on {} threads{}\n",
        specs.len(),
        threads,
        if quick { " [quick]" } else { "" }
    );

    let reporter = if progress {
        ProgressReporter::forced("sweep", specs.len() as u64)
    } else {
        ProgressReporter::stderr("sweep", specs.len() as u64)
    };
    let sweep = run_sweep(&specs, threads, &reporter, |spec, shard| match &store {
        Some(cache) => cache.run(spec, shard),
        None => spec.run(),
    });
    for (spec, msg) in &sweep.failures {
        eprintln!("sweep: run {} FAILED: {msg}", spec.label());
    }
    for r in &sweep.results {
        assert_eq!(
            r.out.oracle_violations,
            0,
            "oracle violation under {}",
            r.spec.label()
        );
    }

    if sweep.failures.is_empty() {
        print!("{}", render_tables(&Grid::new(quick, &sweep.results)));
    } else {
        println!(
            "(tables skipped: {} of {} runs failed)\n",
            sweep.failures.len(),
            specs.len()
        );
    }

    if let Err(e) = cli::write_file(&json, &(sweep_json(&sweep) + "\n")) {
        fail(e.to_string());
    }
    if let Some(path) = &metrics {
        let runs: Vec<RunMetric> = sweep
            .results
            .iter()
            .map(|r| RunMetric {
                label: r.spec.label(),
                sim_cycles: r.out.cycles,
                host_ns: r.wall.as_nanos() as u64,
            })
            .collect();
        let doc = metrics_json(
            sweep.threads,
            sweep.wall.as_secs_f64(),
            &sweep.metrics,
            &runs,
        );
        if let Err(e) = cli::write_file(path, &(doc + "\n")) {
            fail(e.to_string());
        }
        println!("metrics: fleet telemetry written to {path}");
    }
    if let Some(dir) = &cache {
        println!(
            "cache: {} hits, {} misses in {dir}",
            sweep.metrics.counter("cache_hits"),
            sweep.metrics.counter("cache_misses")
        );
        let errors = sweep.metrics.counter("cache_store_errors");
        if errors > 0 {
            eprintln!("sweep: warning: {errors} results could not be stored in {dir}");
        }
    }
    let simulated: f64 = sweep.results.iter().map(|r| r.out.seconds).sum();
    println!(
        "swept {} specs on {} threads in {:.2} s wall ({:.2} simulated-seconds); results: {}",
        sweep.results.len(),
        sweep.threads,
        sweep.wall.as_secs_f64(),
        simulated,
        json
    );
    if !sweep.failures.is_empty() {
        std::process::exit(1);
    }
}
