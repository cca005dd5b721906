//! Regenerate the full Table-4 and Table-5 grids **in parallel** and write
//! the results as JSON.
//!
//! The 23 runs (3 benchmarks × configurations A–F, plus afs-bench under
//! the five Table-5 systems) are described as [`SystemSpec`] values and
//! fanned across worker threads; because every run is a pure function of
//! its spec, the printed tables are identical to the serial `table4` and
//! `table5` binaries, only faster.
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
use vic_bench::experiments::{group_table4, render_table4_group};
use vic_bench::output::{metrics_json, parse_metrics_doc, sweep_json, RunMetric};
use vic_bench::spec::SystemSpec;
use vic_bench::sweep::{default_threads, run_observed_sweep_with_threads, Sweep};
use vic_metrics::ProgressReporter;
use vic_workloads::report::{secs, Table};

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

    let mut specs = SystemSpec::table4_grid(quick);
    let table5_start = specs.len();
    specs.extend(SystemSpec::table5_grid(quick));

    // The point of the sweep is parallelism: default to every hardware
    // thread, and to at least two even on a single-core host (the engine
    // is deterministic either way). An explicit --threads wins.
    let threads = threads.unwrap_or_else(|| default_threads().max(2));
    println!(
        "sweep: {} runs ({} Table-4, {} Table-5) on {} threads{}\n",
        specs.len(),
        table5_start,
        specs.len() - table5_start,
        threads,
        if quick { " [quick]" } else { "" }
    );

    let reporter = if progress {
        ProgressReporter::forced("sweep", specs.len() as u64)
    } else {
        ProgressReporter::stderr("sweep", specs.len() as u64)
    };
    let obs = run_observed_sweep_with_threads(&specs, threads, &reporter, store.as_ref());
    for (spec, msg) in &obs.failures {
        eprintln!("sweep: run {} FAILED: {msg}", spec.label());
    }
    for r in &obs.results {
        assert_eq!(
            r.stats.oracle_violations,
            0,
            "oracle violation under {}",
            r.spec.label()
        );
    }

    // Positional split between the Table-4 and Table-5 halves (a spec may
    // appear in both, so the split is by index, which is only meaningful
    // when every run completed).
    if obs.failures.is_empty() {
        println!("Table 4 — benchmarks under configurations A-F (parallel regeneration)\n");
        let t4 = &obs.results[..table5_start];
        for (program, cells) in group_table4(t4.iter().map(|r| (r.spec, r.stats.clone()))) {
            println!("{}", render_table4_group(&program, &cells));
        }

        println!("Table 5 — afs-bench under each system (parallel regeneration)\n");
        let mut t = Table::new(["System", "Elapsed (s)", "Flushes", "Purges", "Cons faults"]);
        for r in &obs.results[table5_start..] {
            t.row([
                r.spec.system.label(),
                secs(r.stats.seconds),
                r.stats.total_flushes().to_string(),
                r.stats.total_purges().to_string(),
                r.stats.os.consistency_faults.to_string(),
            ]);
        }
        println!("{}", t.render());
    } else {
        println!(
            "(tables skipped: {} of {} runs failed)\n",
            obs.failures.len(),
            specs.len()
        );
    }

    let sweep = Sweep {
        results: obs.results.clone(),
        threads: obs.threads,
        wall: obs.wall,
    };
    if let Err(e) = cli::write_file(&json, &(sweep_json(&sweep) + "\n")) {
        fail(e.to_string());
    }
    if let Some(path) = &metrics {
        let runs: Vec<RunMetric> = obs
            .results
            .iter()
            .map(|r| RunMetric {
                label: r.spec.label(),
                sim_cycles: r.stats.cycles,
                host_ns: r.wall.as_nanos() as u64,
            })
            .collect();
        let doc = metrics_json(obs.threads, obs.wall.as_secs_f64(), &obs.metrics, &runs);
        if let Err(e) = cli::write_file(path, &(doc + "\n")) {
            fail(e.to_string());
        }
        println!("metrics: fleet telemetry written to {path}");
    }
    if let Some(dir) = &cache {
        println!(
            "cache: {} hits, {} misses in {dir}",
            obs.metrics.counter("cache_hits"),
            obs.metrics.counter("cache_misses")
        );
        let errors = obs.metrics.counter("cache_store_errors");
        if errors > 0 {
            eprintln!("sweep: warning: {errors} results could not be stored in {dir}");
        }
    }
    let simulated: f64 = obs.results.iter().map(|r| r.stats.seconds).sum();
    println!(
        "swept {} specs on {} threads in {:.2} s wall ({:.2} simulated-seconds); results: {}",
        obs.results.len(),
        obs.threads,
        obs.wall.as_secs_f64(),
        simulated,
        json
    );
    if !obs.failures.is_empty() {
        std::process::exit(1);
    }
}
