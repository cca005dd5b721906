//! A small CLI to run any benchmark under any consistency system and print
//! a full report — the knob-turning tool for exploring the design space.
//!
//! ```sh
//! cargo run --release -p vic-bench --bin run -- kernel-build F
//! cargo run --release -p vic-bench --bin run -- afs-bench utah --quick
//! cargo run --release -p vic-bench --bin run -- alias-unaligned F --colored --write-through
//! cargo run --release -p vic-bench --bin run -- alias-unaligned F --quick --trace trace.jsonl
//! cargo run --release -p vic-bench --bin run -- fork-bench chaos-flushes --quick --trace-summary
//! cargo run --release -p vic-bench --bin run -- afs-bench F --json afs_F.json
//! cargo run --release -p vic-bench --bin run -- afs-bench F --quick --inspect occupancy.csv
//! cargo run --release -p vic-bench --bin run -- fork-bench chaos-flushes --quick --flight dump.json
//! cargo run --release -p vic-bench --bin run -- afs-bench F --quick --checkpoint-at 100000 --checkpoint cp.json
//! cargo run --release -p vic-bench --bin run -- --restore cp.json
//! ```
//!
//! Every run executes through the stepwise driver (`vic_workloads::drive`),
//! so a plain run, a run paused into a checkpoint, and a restored run all
//! take the same code path: pausing and resuming changes no simulated
//! number and no trace event.

use std::sync::{Arc, Mutex};

use vic_bench::checkpoint::SystemCheckpoint;
use vic_bench::cli::{self, RunCli, RunMode, SYSTEM_NAMES, WORKLOAD_NAMES};
use vic_bench::output::{self, Sections};
use vic_core::types::CpuId;
use vic_machine::Observers;
use vic_metrics::{SeriesFormat, SnapshotSampler};
use vic_os::Kernel;
use vic_trace::{
    ConsistencyAuditor, FanoutSink, HistogramSink, JsonLinesSink, RingBufferSink, Tracer,
};
use vic_workloads::{drive, Cursor, DriveOutcome};

/// How many trailing events the flight recorder retains.
const FLIGHT_RING_CAPACITY: usize = 256;

fn usage() -> String {
    format!(
        "usage: run <workload> <system> [--quick] [--colored] [--write-through] [--fast-purge]\n\
         \x20                               [--no-fast-paths] [--trace <file>]\n\
         \x20                               [--trace-summary] [--json <file>] [--inspect <file>]\n\
         \x20                               [--sample-every <n>] [--flight <file>]\n\
         \x20                               [--checkpoint-at <cycle> --checkpoint <file>]\n\
         \x20      run --restore <file> [observer flags] [--checkpoint-at <cycle> --checkpoint <file>]\n\
         \n\
         workloads: {WORKLOAD_NAMES}\n\
         systems:   {SYSTEM_NAMES}\n\
         \n\
         --no-fast-paths  disable the host-side fast paths (bulk runs, occupancy index,\n\
         \x20                translation micro-cache); simulated results must not change\n\
         --trace <file>   write every machine/OS/algorithm event as JSON lines\n\
         --trace-summary  print per-event-class cost histograms and the consistency audit\n\
         --json <file>    write the run document: spec + full statistics as one JSON object\n\
         --inspect <file> sample cache/TLB occupancy during the run and write the time\n\
         \x20                series (by extension: .csv, .md, .json for the run document\n\
         \x20                with a series section, else plain text)\n\
         --sample-every <n>  sampling interval in simulated cycles (default {default_every})\n\
         --flight <file>  arm the flight recorder: on an audit divergence or a workload\n\
         \x20                error, write the run document with the audit, the last {ring}\n\
         \x20                events, a system snapshot and the error\n\
         --checkpoint-at <cycle> --checkpoint <file>\n\
         \x20                pause once the cycle counter reaches <cycle> and write the\n\
         \x20                complete system image (kernel + workload cursor) as JSON\n\
         --restore <file> resume a checkpointed run; workload, system and knobs come\n\
         \x20                from the file, observers re-attach fresh",
        default_every = cli::DEFAULT_SAMPLE_EVERY,
        ring = FLIGHT_RING_CAPACITY,
    )
}

fn write_or_die(binary: &str, path: &str, contents: &str) {
    if let Err(e) = cli::write_file(path, contents) {
        eprintln!("{binary}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let RunCli {
        mode,
        trace,
        trace_summary,
        json,
        no_fast_paths,
        inspect,
        sample_every,
        flight,
        checkpoint,
    } = match cli::parse_run(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("run: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };

    // Build the system: a fresh boot takes its spec from the command
    // line; a restore reads the checkpoint and rebuilds the paused kernel
    // and workload cursor from it (spec and fast-path setting travel
    // inside it).
    let restore_error = |e: String| -> ! {
        eprintln!("run: {e}");
        std::process::exit(2);
    };
    let (spec, mut k, mut cur) = match &mode {
        RunMode::Fresh(spec) => {
            let mut cfg = spec.kernel_config();
            cfg.machine.fast_paths = !no_fast_paths;
            (*spec, Kernel::new(cfg), Cursor::new())
        }
        RunMode::Restore(path) => {
            let cp = SystemCheckpoint::load(path).unwrap_or_else(|e| restore_error(e.to_string()));
            let (k, cur) = cp
                .resume()
                .unwrap_or_else(|e| restore_error(format!("cannot access '{path}': {e}")));
            (cp.spec, k, cur)
        }
    };
    let resumed = matches!(mode, RunMode::Restore(_));

    // Assemble the trace pipeline: a JSON-lines file and/or an in-process
    // histogram aggregator, always joined by the consistency auditor when
    // any tracing is requested. Arming the flight recorder adds a bounded
    // ring of the most recent events (and forces tracing on, since the
    // black box is pointless without the auditor). The inspectable sinks
    // live behind Arc<Mutex<_>>: one handle goes to the tracer, ours
    // reads after the run. A restored run's auditor attaches mid-flight,
    // so it seeds its shadow states from the first claim per page instead
    // of assuming cold caches.
    let tracing = trace.is_some() || trace_summary || flight.is_some();
    let hist = Arc::new(Mutex::new(HistogramSink::new()));
    let auditor = Arc::new(Mutex::new(if resumed {
        ConsistencyAuditor::resumed()
    } else {
        ConsistencyAuditor::new()
    }));
    let ring = Arc::new(Mutex::new(RingBufferSink::new(FLIGHT_RING_CAPACITY)));
    let json_lines = trace.as_ref().map(|path| {
        let sink = JsonLinesSink::create(path).unwrap_or_else(|e| {
            eprintln!("run: cannot create {path}: {e}");
            std::process::exit(2);
        });
        Arc::new(Mutex::new(sink))
    });
    let tracer = if tracing {
        let mut fan = FanoutSink::new().with(auditor.clone());
        if trace_summary {
            fan = fan.with(hist.clone());
        }
        if flight.is_some() {
            fan = fan.with(ring.clone());
        }
        if let Some(sink) = &json_lines {
            fan = fan.with(sink.clone());
        }
        Tracer::new(fan)
    } else {
        Tracer::off()
    };

    // Observers attach *after* a restore — they are never part of a
    // checkpoint (DESIGN.md, "State ownership & serialization") and
    // always start fresh.
    let sampler = inspect
        .as_ref()
        .map(|_| SnapshotSampler::every(sample_every.unwrap_or(cli::DEFAULT_SAMPLE_EVERY)));
    k.machine_mut().attach(Observers {
        tracer,
        sampler,
        ..Observers::default()
    });

    // Drive the stepwise workload — to completion, or to the requested
    // checkpoint cycle. The stop check is a step boundary, so the paused
    // image contains exactly the work an uninterrupted run would have
    // done by that point.
    let step = spec.workload.build_step(spec.quick);
    let pause_at = checkpoint.as_ref().map(|(at, _)| *at);
    let t0 = std::time::Instant::now();
    let outcome = drive(&mut k, CpuId::BOOT, step.as_ref(), &mut cur, pause_at);
    let wall = t0.elapsed();
    let mut observers = k.machine_mut().detach();
    observers.tracer.finish();
    if let (Some(path), Some(sink)) = (&trace, &json_lines) {
        if let Some(e) = sink.lock().expect("trace sink poisoned").io_error() {
            eprintln!("run: cannot access '{path}': {e}");
            std::process::exit(2);
        }
    }
    let snapshot = k.inspect();
    let series = observers.sampler.map(|s| s.into_series(step.name()));
    let result: Result<DriveOutcome, String> =
        outcome.map_err(|e| format!("workload {} failed: {e}", step.name()));
    let s = vic_workloads::runner::collect(&k, step.name());

    // The flight recorder fires on a workload error or any audit
    // divergence — before the report, so a dump exists even if later
    // output stages fail. The dump is the run document as far as the run
    // got, with the audit, the event tail, the snapshot and the error.
    if let Some(path) = &flight {
        let a = auditor.lock().expect("auditor sink poisoned");
        let reason = match &result {
            Err(e) => Some(e.clone()),
            Ok(_) if !a.is_clean() => Some(format!("{} audit divergences", a.divergence_count())),
            Ok(_) => None,
        };
        if let Some(reason) = reason {
            let r = ring.lock().expect("ring sink poisoned");
            let sections = Sections {
                snapshot: Some(&snapshot),
                audit: Some(&a),
                events: Some(&r),
                error: Some(&reason),
                ..Sections::default()
            };
            let doc = output::run_doc(&spec, &s, Some(wall.as_secs_f64()), &sections);
            write_or_die("run", path, &(doc + "\n"));
            println!("flight:    run document written to {path} ({reason})");
        }
    }

    // A paused run writes the checkpoint and stops: the report belongs to
    // whoever finishes the run.
    match result {
        Err(e) => {
            eprintln!("run: {e}");
            std::process::exit(1);
        }
        Ok(DriveOutcome::Paused) => {
            let (at, file) = checkpoint
                .as_ref()
                .expect("drive pauses only at a requested checkpoint cycle");
            let cp = SystemCheckpoint::capture(spec, &k, &cur);
            write_or_die("run", file, &(cp.to_json() + "\n"));
            println!(
                "checkpoint: paused at cycle {} (requested {at}); system image written to \
                 {file}",
                k.machine().cycles()
            );
            println!("            resume with: run --restore {file}");
            return;
        }
        Ok(DriveOutcome::Completed) => {
            if let Some((at, file)) = &checkpoint {
                println!(
                    "checkpoint: run completed at cycle {} without pausing at --checkpoint-at \
                     {at} (the last step crossed it); nothing written to {file}",
                    k.machine().cycles()
                );
            }
        }
    }

    println!("workload:  {}", s.workload);
    println!("system:    {}", s.system);
    println!(
        "elapsed:   {:.4} s  ({} cycles @ 50 MHz)",
        s.seconds, s.cycles
    );
    println!();
    println!(
        "faults:    {} mapping, {} consistency, {} COW ({} copies)",
        s.os.mapping_faults, s.os.consistency_faults, s.os.cow_faults, s.os.cow_copies
    );
    println!(
        "cache ops: {} D flushes (avg {:.0} cyc), {} D purges (avg {:.0} cyc), {} I purges",
        s.machine.d_flush_pages.count,
        s.machine.d_flush_pages.avg(),
        s.machine.d_purge_pages.count,
        s.machine.d_purge_pages.avg(),
        s.machine.i_purge_pages.count
    );
    print!("purge causes:");
    for (cause, n) in s.mgr.d_purge_pages.iter() {
        print!(" {cause}={n}");
    }
    println!();
    println!(
        "memory:    {} loads, {} stores, {} ifetches; D {:.1}% hits, {} writebacks, {} uncached",
        s.machine.loads,
        s.machine.stores,
        s.machine.ifetches,
        100.0 * s.machine.d_hits as f64 / (s.machine.d_hits + s.machine.d_misses).max(1) as f64,
        s.machine.writebacks,
        s.machine.uncached
    );
    println!(
        "I/O:       {} disk reads (DMA-write), {} disk writes (DMA-read), {} buffer misses",
        s.machine.dma_writes, s.machine.dma_reads, s.os.buf_misses
    );
    println!(
        "VM:        {} zero-fills, {} page copies, {} IPC transfers, {} text copies, {} tasks",
        s.os.zero_fills, s.os.page_copies, s.os.ipc_transfers, s.os.d2i_copies, s.os.tasks_created
    );
    println!();
    println!(
        "state:     {} frames tracked; D cache {:.1}% valid ({:.1}% dirty), TLB {}/{} resident",
        snapshot.frames_tracked,
        100.0 * snapshot.machine.dcache.occupancy_ratio(),
        100.0 * snapshot.machine.dcache.dirty_ratio(),
        snapshot.machine.tlb.resident,
        snapshot.machine.tlb.capacity,
    );
    println!();
    if trace_summary {
        let h = hist.lock().expect("histogram sink poisoned");
        println!("trace summary (cycle cost per event class):");
        println!(
            "  {:<14} {:>9} {:>12} {:>8} {:>8}  distribution (1,2,4,... buckets)",
            "class", "events", "cycles", "avg", "p95"
        );
        for (name, count, total, avg, p95, sketch) in h.rows() {
            println!("  {name:<14} {count:>9} {total:>12} {avg:>8.1} {p95:>8}  {sketch}");
        }
        if h.uncosted() > 0 {
            println!("  ({} events carry no cycle cost)", h.uncosted());
        }
        println!();
    }
    if tracing {
        let a = auditor.lock().expect("auditor sink poisoned");
        if a.is_clean() {
            println!(
                "audit:     CLEAN — {} state transitions matched the four-state model",
                a.transitions_checked()
            );
        } else {
            println!(
                "audit:     {} DIVERGENCES from the four-state model in {} transitions",
                a.divergence_count(),
                a.transitions_checked()
            );
            print!("{}", a.report());
        }
        if let Some(path) = &trace {
            println!("trace:     written to {path}");
        }
        println!();
    }
    if let Some(path) = &inspect {
        let series = series.as_ref().expect("--inspect arms the sampler");
        let text = if path.to_ascii_lowercase().ends_with(".json") {
            let sections = Sections {
                series: Some(series),
                ..Sections::default()
            };
            output::run_doc(&spec, &s, Some(wall.as_secs_f64()), &sections) + "\n"
        } else {
            series.render(SeriesFormat::from_path(path))
        };
        write_or_die("run", path, &text);
        println!(
            "inspect:   {} samples (every {} cycles) written to {path}",
            series.samples.len(),
            series.every,
        );
    }
    if let Some(path) = &json {
        let doc = output::run_json(&spec, &s, Some(wall.as_secs_f64()));
        write_or_die("run", path, &(doc + "\n"));
        println!("json:      written to {path}");
    }
    if s.oracle_violations == 0 {
        println!("oracle:    CLEAN — no stale data ever reached the CPU or a device");
    } else {
        println!(
            "oracle:    {} VIOLATIONS (the consistency system is broken!)",
            s.oracle_violations
        );
        std::process::exit(1);
    }
}
