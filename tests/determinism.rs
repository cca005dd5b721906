//! Determinism guarantees of the sendable engine:
//!
//! * a complete simulated system is a single owned `Send` value;
//! * the same `SystemSpec` run twice yields identical `RunStats`
//!   (and byte-identical JSON);
//! * a parallel sweep returns exactly what a serial loop over the same
//!   specs returns, in the same order, regardless of thread count.

use std::sync::{Arc, Mutex};
use vic_core::types::CpuId;

use vic::core::policy::Configuration;
use vic::metrics::ProgressReporter;
use vic::os::{Kernel, KernelConfig, SystemKind};
use vic::trace::{JsonLinesSink, RingBufferSink, Tracer};
use vic::workloads::{run_observed, run_traced, RunStats, WorkloadKind};
use vic_bench::experiments::measured_specs;
use vic_bench::output::{read_doc, run_json, sweep_json};
use vic_bench::sweep::{run_sweep, Sweep};
use vic_bench::SystemSpec;

/// A small but non-trivial grid: two workload kinds, two configurations,
/// one alternative system, one knobbed variant.
fn small_grid() -> Vec<SystemSpec> {
    let mut specs = vec![
        SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::A)),
        SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F)),
        SystemSpec::quick(
            WorkloadKind::AliasUnaligned,
            SystemKind::Cmu(Configuration::F),
        ),
        SystemSpec::quick(WorkloadKind::AliasAligned, SystemKind::Utah),
    ];
    let mut knobbed = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
    knobbed.write_through = true;
    specs.push(knobbed);
    specs
}

#[test]
fn the_simulated_system_is_a_single_owned_send_value() {
    fn assert_send<T: Send>() {}
    assert_send::<vic::machine::Machine>();
    assert_send::<Kernel>();
    assert_send::<Tracer>();
    assert_send::<SystemSpec>();
    assert_send::<RunStats>();

    // And not just in the type system: a kernel built here runs to
    // completion on another thread.
    let cfg = KernelConfig::small(SystemKind::Cmu(Configuration::F));
    let kernel = Kernel::new(cfg);
    let cycles = std::thread::spawn(move || {
        let mut k = kernel;
        let t = k.create_task();
        let va = k.vm_allocate(t, 1).unwrap();
        k.write(CpuId::BOOT, t, va, 7).unwrap();
        assert_eq!(k.read(CpuId::BOOT, t, va).unwrap(), 7);
        k.machine().cycles()
    })
    .join()
    .unwrap();
    assert!(cycles > 0);
}

#[test]
fn same_spec_twice_is_identical() {
    for spec in small_grid() {
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "nondeterministic run for {}", spec.label());
        assert_eq!(
            run_json(&spec, &a, None),
            run_json(&spec, &b, None),
            "JSON must be byte-identical for {}",
            spec.label()
        );
    }
}

/// Run a spec with the engine's host-side fast paths force-disabled (the
/// occupancy short-circuits and the translation micro-cache), capturing
/// the full trace stream as JSON lines.
fn run_slow_traced(spec: &SystemSpec) -> (RunStats, Vec<u8>) {
    let mut cfg = spec.kernel_config();
    assert!(cfg.machine.fast_paths, "fast paths are the default");
    cfg.machine.fast_paths = false;
    let sink = Arc::new(Mutex::new(JsonLinesSink::new(Vec::new())));
    let stats = run_traced(
        cfg,
        spec.build_workload().as_ref(),
        Tracer::shared(sink.clone()),
    );
    let bytes = sink.lock().unwrap().get_ref().clone();
    (stats, bytes)
}

/// The determinism lock for the hot-path rework: over the quick Table-4
/// and Table-5 grids, a run with every fast path disabled produces
/// byte-identical output — same `RunStats`, same result JSON, same trace
/// event stream — as the default engine. The fast paths are host-side
/// only; they must never be observable in the simulation.
#[test]
fn fast_paths_change_nothing_observable() {
    let mut specs = SystemSpec::table4_grid(true);
    specs.extend(SystemSpec::table5_grid(true));
    for spec in specs {
        let fast_sink = Arc::new(Mutex::new(JsonLinesSink::new(Vec::new())));
        let fast = spec.run_traced(Tracer::shared(fast_sink.clone()));
        let (slow, slow_trace) = run_slow_traced(&spec);
        assert_eq!(
            fast,
            slow,
            "{}: stats differ with fast paths off",
            spec.label()
        );
        assert_eq!(
            run_json(&spec, &fast, None),
            run_json(&spec, &slow, None),
            "{}: result JSON differs with fast paths off",
            spec.label()
        );
        let fast_trace = fast_sink.lock().unwrap().get_ref().clone();
        assert_eq!(
            fast_trace,
            slow_trace,
            "{}: trace streams differ with fast paths off",
            spec.label()
        );
    }
}

/// The determinism lock for the bulk-run engine. The traced lock above
/// exercises the word-loop fallback (a live tracer disables bulk runs);
/// this untraced one exercises the live bulk engine: over the same quick
/// grids, the default run — bulk runs eligible everywhere — produces the
/// same `RunStats` and byte-identical result JSON as a run with
/// `fast_paths` off, where every run API degrades to the literal word
/// loop.
#[test]
fn bulk_runs_change_nothing_observable() {
    let mut specs = SystemSpec::table4_grid(true);
    specs.extend(SystemSpec::table5_grid(true));
    for spec in specs {
        let bulk = spec.run();
        let mut cfg = spec.kernel_config();
        assert!(cfg.machine.fast_paths, "fast paths are the default");
        cfg.machine.fast_paths = false;
        let word = run_traced(cfg, spec.build_workload().as_ref(), Tracer::off());
        assert_eq!(
            bulk,
            word,
            "{}: stats differ between bulk runs and the word loop",
            spec.label()
        );
        assert_eq!(
            run_json(&spec, &bulk, None),
            run_json(&spec, &word, None),
            "{}: result JSON differs between bulk runs and the word loop",
            spec.label()
        );
    }
}

/// The determinism lock for the observability layer. Attaching every
/// observer at once — the cycle-driven snapshot sampler, a bounded
/// flight-recorder ring on the trace stream, and the post-run
/// `inspect()` snapshot — must change nothing the simulation can see:
/// same `RunStats`, byte-identical result JSON.
#[test]
fn observability_changes_nothing_observable() {
    for spec in small_grid() {
        let plain = spec.run();
        let ring = Arc::new(Mutex::new(RingBufferSink::new(64)));
        let obs = run_observed(
            spec.kernel_config(),
            spec.build_workload().as_ref(),
            Tracer::shared(ring.clone()),
            Some(500),
        );
        let stats = obs.result.expect("workload succeeds");
        assert_eq!(
            plain,
            stats,
            "{}: stats differ under full observation",
            spec.label()
        );
        assert_eq!(
            run_json(&spec, &plain, None),
            run_json(&spec, &stats, None),
            "{}: result JSON differs under full observation",
            spec.label()
        );
        // And the observers did observe: the sampler produced a series,
        // the ring saw events, the snapshot reflects a finished run.
        assert!(obs.series.is_some_and(|s| !s.samples.is_empty()));
        assert!(ring.lock().unwrap().total_seen() > 0);
        assert_eq!(obs.snapshot.machine.cycles, stats.cycles);
    }
}

/// A plain sweep of `specs` on `threads` workers.
fn sweep(specs: &[SystemSpec], threads: usize) -> Sweep {
    run_sweep(
        specs,
        threads,
        &ProgressReporter::disabled(),
        SystemSpec::run,
    )
}

/// A sweep's fleet telemetry is its sweep document: it lists every
/// completed run with its counters and cycles, and every failed spec, so
/// runs completed and failed and cycles retired are read off it. Without
/// the host-time fields the document is byte-identical whichever of
/// 1/2/4/16 workers ran which spec.
#[test]
fn observed_sweep_metrics_are_thread_count_independent() {
    let specs = small_grid();
    let base = sweep(&specs, 1);
    assert!(base.failures.is_empty());
    let base_doc = sweep_json(&base, false);
    let fleet = read_doc(&base_doc).expect("the sweep document reads back");
    assert!(fleet.failures.is_empty());
    assert_eq!(fleet.runs.len(), specs.len(), "every run listed");
    for (listed, res) in fleet.runs.iter().zip(&base.results) {
        assert_eq!((listed.spec, &listed.stats), (res.spec, &res.out));
    }
    for threads in [2, 4, 16] {
        let obs = sweep(&specs, threads);
        assert!(obs.failures.is_empty());
        assert_eq!(
            sweep_json(&obs, false),
            base_doc,
            "sweep document differs at {threads} threads"
        );
        for (a, b) in base.results.iter().zip(&obs.results) {
            assert_eq!(a.spec, b.spec, "order preserved at {threads} threads");
            assert_eq!(
                a.out,
                b.out,
                "{} differs at {threads} threads",
                a.spec.label()
            );
        }
    }
}

/// Every run the measured tables read — the quick Table-4 and Table-5
/// grids and the rest of `sweep --quick` — comes back from a parallel
/// sweep exactly as a serial loop over the same specs returns it, in spec
/// order, at every thread count.
#[test]
fn parallel_sweep_equals_serial() {
    let specs = measured_specs(true);
    let serial: Vec<RunStats> = specs.iter().map(|s| s.run()).collect();
    for threads in [1, 2, 4] {
        let sweep = sweep(&specs, threads);
        assert!(sweep.failures.is_empty());
        assert_eq!(sweep.results.len(), serial.len());
        for ((spec, serial_stats), res) in specs.iter().zip(&serial).zip(&sweep.results) {
            assert_eq!(res.spec, *spec, "order preserved at {threads} threads");
            assert_eq!(
                res.out,
                *serial_stats,
                "{} differs between serial and {threads}-thread sweep",
                spec.label()
            );
        }
    }
}
