//! Determinism guarantees of the sendable engine:
//!
//! * a complete simulated system is a single owned `Send` value;
//! * the same `SystemSpec` run twice yields identical `RunStats`
//!   (and byte-identical JSON);
//! * a parallel sweep returns exactly what a serial loop over the same
//!   specs returns, in the same order, regardless of thread count.

use std::sync::{Arc, Mutex};
use vic_core::rng::Rng64;
use vic_core::serial::{WordReader, WordWriter};
use vic_core::types::CpuId;

use vic::core::policy::Configuration;
use vic::machine::Observers;
use vic::metrics::{ProgressReporter, SnapshotSampler};
use vic::os::{Kernel, KernelConfig, SystemKind};
use vic::profile::Profiler;
use vic::trace::{JsonLinesSink, RingBufferSink, Tracer};
use vic::workloads::{collect, drive, run, Cursor, DriveOutcome, RunStats, WorkloadKind};
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

/// Assert two runs of `spec` are identical: the same `RunStats` and
/// byte-identical result JSON. `how` names what the second run changed.
fn assert_same_run(spec: &SystemSpec, a: &RunStats, b: &RunStats, how: &str) {
    let label = spec.label();
    assert_eq!(a, b, "{label}: stats differ {how}");
    let (a, b) = (run_json(spec, a, None), run_json(spec, b, None));
    assert_eq!(a, b, "{label}: result JSON differs {how}");
}

#[test]
fn same_spec_twice_is_identical() {
    for spec in small_grid() {
        assert_same_run(&spec, &spec.run(), &spec.run(), "between two runs");
    }
}

/// `spec`'s kernel configuration with the engine's host-side fast paths
/// force-disabled (the occupancy short-circuits, the translation
/// micro-cache and bulk runs).
fn without_fast_paths(spec: &SystemSpec) -> KernelConfig {
    let mut cfg = spec.kernel_config();
    assert!(cfg.machine.fast_paths, "fast paths are the default");
    cfg.machine.fast_paths = false;
    cfg
}

/// A trace sink rendering the full event stream as JSON lines in memory.
type Lines = Arc<Mutex<JsonLinesSink<Vec<u8>>>>;

fn lines() -> Lines {
    Arc::new(Mutex::new(JsonLinesSink::new(Vec::new())))
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
        let (fast_sink, slow_sink) = (lines(), lines());
        let (fast, _) = spec.run_with(Tracer::new(fast_sink.clone()).into());
        let workload = spec.workload.build_step(spec.quick);
        let (slow, _) = run(
            without_fast_paths(&spec),
            workload.as_ref(),
            Tracer::new(slow_sink.clone()).into(),
        );
        assert_same_run(&spec, &fast, &slow, "with fast paths off");
        let (a, b) = (fast_sink.lock().unwrap(), slow_sink.lock().unwrap());
        let label = spec.label();
        assert_eq!(
            a.get_ref(),
            b.get_ref(),
            "{label}: trace differs with fast paths off"
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
        let workload = spec.workload.build_step(spec.quick);
        let (word, _) = run(
            without_fast_paths(&spec),
            workload.as_ref(),
            Observers::default(),
        );
        assert_same_run(&spec, &bulk, &word, "in the word loop");
    }
}

/// The determinism lock for the observability layer. Attaching every
/// observer at once — the cycle-driven snapshot sampler, the cycle-cost
/// profiler, a bounded flight-recorder ring on the trace stream, and the
/// post-run `inspect()` snapshot — must change nothing the simulation can
/// see: same `RunStats`, byte-identical result JSON.
#[test]
fn observability_changes_nothing_observable() {
    for spec in small_grid() {
        let plain = spec.run();
        let ring = Arc::new(Mutex::new(RingBufferSink::new(64)));
        let mut k = Kernel::new(spec.kernel_config());
        k.machine_mut().attach(Observers {
            tracer: Tracer::new(ring.clone()),
            profiler: Profiler::enabled(),
            sampler: Some(SnapshotSampler::every(500)),
        });
        let workload = spec.workload.build_step(spec.quick);
        let mut cur = Cursor::new();
        drive(&mut k, CpuId::BOOT, workload.as_ref(), &mut cur, None).expect("runs");
        let mut observers = k.machine_mut().detach();
        observers.tracer.finish();
        let snapshot = k.inspect();
        let stats = collect(&k, workload.name());
        assert_same_run(&spec, &plain, &stats, "under full observation");
        // And the observers did observe: the sampler produced samples,
        // the profiler attributed every cycle, the ring saw events, the
        // snapshot reflects a finished run.
        assert!(observers.sampler.is_some_and(|s| !s.samples().is_empty()));
        let tree = observers.profiler.take_tree().expect("profiler attached");
        assert_eq!(tree.total_cycles(), stats.cycles);
        assert!(ring.lock().unwrap().total_seen() > 0);
        assert_eq!(snapshot.machine.cycles, stats.cycles);
    }
}

/// Run `spec` on `cfg` uninterrupted, then again paused at a cycle drawn
/// from `rng`, saved through the kernel's and cursor's word streams,
/// restored into a fresh kernel and driven on, and assert the two runs
/// agree byte for byte: `RunStats`, result JSON and the trace stream.
/// Returns whether the run paused (a stop point inside the final step
/// just completes it).
fn assert_resume_is_invisible(spec: &SystemSpec, cfg: KernelConfig, rng: &mut Rng64) -> bool {
    let workload = spec.workload.build_step(spec.quick);
    let w = workload.as_ref();
    let full_sink = lines();
    let (full, _) = run(cfg, w, Tracer::new(full_sink.clone()).into());
    let stop_at = 1 + rng.next_u64() % full.cycles;
    let (assoc, fast) = (cfg.machine.dcache_assoc, cfg.machine.fast_paths);
    let how = format!("after a pause at {stop_at} (assoc={assoc}, fast={fast})");

    let sink = lines();
    let mut k = Kernel::new(cfg);
    k.machine_mut().attach(Tracer::new(sink.clone()).into());
    let mut cur = Cursor::new();
    let outcome = drive(&mut k, CpuId::BOOT, w, &mut cur, Some(stop_at)).expect("runs");
    k.machine_mut().detach().tracer.finish();
    let paused = outcome == DriveOutcome::Paused;
    if paused {
        let mut words = WordWriter::new();
        k.save_state(&mut words);
        cur.save_state(&mut words);
        let words = words.into_words();
        k = Kernel::new(cfg);
        let mut r = WordReader::new(&words);
        k.restore_state(&mut r).expect("kernel restores");
        cur = Cursor::restore_state(&mut r).expect("cursor restores");
        r.finish().expect("stream consumed exactly");
        k.machine_mut().attach(Tracer::new(sink.clone()).into());
        drive(&mut k, CpuId::BOOT, w, &mut cur, None).expect("resumed run completes");
        k.machine_mut().detach().tracer.finish();
    }
    assert_same_run(spec, &full, &collect(&k, w.name()), &how);
    let (a, b) = (full_sink.lock().unwrap(), sink.lock().unwrap());
    assert_eq!(
        a.get_ref(),
        b.get_ref(),
        "{}: trace differs {how}",
        spec.label()
    );
    paused
}

/// A checkpoint rebuilds its kernel from its spec, which has no
/// associativity knob, so pausing set-associative machines is locked
/// here: three managers on 2- and 4-way caches (capacity scaled with the
/// ways, so the set count stays fixed), write-back and write-through,
/// fast paths on and off, each a fork-bench paused and resumed
/// invisibly.
#[test]
fn set_associative_runs_resume_identically() {
    let systems = [
        SystemKind::Cmu(Configuration::F),
        SystemKind::Cmu(Configuration::C),
        SystemKind::Utah,
    ];
    let mut rng = Rng64::seed_from_u64(0xa550_c1a7);
    let (mut points, mut paused) = (0, 0);
    for system in systems {
        for assoc in [2u64, 4] {
            for (write_through, fast_paths) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let mut spec = SystemSpec::quick(WorkloadKind::Fork, system);
                spec.write_through = write_through;
                let mut cfg = spec.kernel_config();
                cfg.machine.dcache_assoc = assoc;
                cfg.machine.icache_assoc = assoc;
                cfg.machine.dcache_bytes *= assoc;
                cfg.machine.icache_bytes *= assoc;
                cfg.machine.fast_paths = fast_paths;
                points += 1;
                paused += usize::from(assert_resume_is_invisible(&spec, cfg, &mut rng));
            }
        }
    }
    assert!(paused * 2 > points, "{paused}/{points} paused");
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
