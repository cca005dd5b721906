//! Checkpoint round-trip lock: pausing a run at an arbitrary step
//! boundary, serializing the complete system through the JSON checkpoint
//! schema, and resuming it with `SystemCheckpoint::resume` must be
//! invisible — statistics, result JSON, and the trace stream are
//! byte-identical to the same run left uninterrupted.
//!
//! The grid crosses consistency managers with write-back vs write-through
//! and host fast paths on/off, pausing each spec at a pseudo-random cycle
//! derived from the spec itself (so the boundary varies across the grid
//! but the test stays deterministic). A checkpoint rebuilds its kernel
//! from the spec, which has no associativity knob, so pausing 2- and
//! 4-way machines is locked through the kernel's own word streams in
//! `tests/determinism.rs` (`set_associative_runs_resume_identically`).

use std::sync::{Arc, Mutex};

use vic_bench::checkpoint::SystemCheckpoint;
use vic_bench::output;
use vic_bench::SystemSpec;
use vic_core::policy::Configuration;
use vic_core::rng::Rng64;
use vic_core::types::CpuId;
use vic_machine::Observers;
use vic_metrics::SnapshotSampler;
use vic_os::{Kernel, KernelConfig, SystemKind};
use vic_trace::{TraceEvent, TraceSink, Tracer};
use vic_workloads::runner::RunStats;
use vic_workloads::{collect, drive, run, Cursor, DriveOutcome, WorkloadKind};

/// Captures the full event stream as rendered lines, for byte comparison.
#[derive(Debug, Default)]
struct CollectSink(Vec<String>);

impl TraceSink for CollectSink {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        self.0.push(format!("{cycle} {event:?}"));
    }
}

type Lines = Arc<Mutex<CollectSink>>;

/// Detach the kernel's observers, finish the trace and take its lines.
fn finish(k: &mut Kernel, sink: &Lines) -> Vec<String> {
    k.machine_mut().detach().tracer.finish();
    std::mem::take(&mut sink.lock().unwrap().0)
}

/// The kernel configuration a checkpoint of `spec` resumes into: the
/// spec's own, with the host fast paths toggled.
fn config(spec: &SystemSpec, fast_paths: bool) -> KernelConfig {
    let mut cfg = spec.kernel_config();
    cfg.machine.fast_paths = fast_paths;
    cfg
}

/// Run `spec` to completion in one go, collecting stats and the trace.
fn uninterrupted(spec: &SystemSpec, fast_paths: bool) -> (RunStats, Vec<String>) {
    let sink = Lines::default();
    let step = spec.workload.build_step(spec.quick);
    let (stats, _) = run(
        config(spec, fast_paths),
        step.as_ref(),
        Tracer::new(sink.clone()).into(),
    );
    let events = std::mem::take(&mut sink.lock().unwrap().0);
    (stats, events)
}

/// Drive `spec` until `stop_at`, round-trip the paused system through the
/// JSON checkpoint schema, resume it, and finish.
fn checkpointed(spec: &SystemSpec, fast_paths: bool, stop_at: u64) -> (RunStats, Vec<String>) {
    // First half: fresh boot, pause at the boundary.
    let sink = Lines::default();
    let mut k = Kernel::new(config(spec, fast_paths));
    k.machine_mut().attach(Tracer::new(sink.clone()).into());
    let step = spec.workload.build_step(spec.quick);
    let mut cur = Cursor::new();
    let outcome = drive(&mut k, CpuId::BOOT, step.as_ref(), &mut cur, Some(stop_at))
        .expect("workload must not fail");
    let mut events = finish(&mut k, &sink);
    if outcome == DriveOutcome::Completed {
        // The final step crossed the boundary before the stop check — the
        // run simply finished; nothing to resume.
        return (collect(&k, step.name()), events);
    }

    // Through the full on-disk schema: words → RLE hex JSON → words.
    let cp = SystemCheckpoint::capture(*spec, &k, &cur);
    assert_eq!(
        cp.fast_paths, fast_paths,
        "the checkpoint records the engine"
    );
    let cp = SystemCheckpoint::parse(&cp.to_json()).expect("checkpoint must round-trip");
    drop(k);

    // Second half: the system rebuilt from the checkpoint, with a fresh
    // observer attached after the restore.
    let (mut k, mut cur) = cp.resume().expect("checkpoint must resume");
    k.machine_mut().attach(Tracer::new(sink.clone()).into());
    let outcome = drive(&mut k, CpuId::BOOT, step.as_ref(), &mut cur, None)
        .expect("resumed workload must not fail");
    assert_eq!(outcome, DriveOutcome::Completed);
    events.extend(finish(&mut k, &sink));
    (collect(&k, step.name()), events)
}

/// One grid point: the resumed run must be byte-identical to the
/// uninterrupted one — `RunStats`, the result JSON document, and the
/// concatenated trace stream.
fn assert_round_trip(spec: &SystemSpec, fast_paths: bool) {
    let (full, full_events) = uninterrupted(spec, fast_paths);
    // A spec-derived pseudo-random boundary strictly inside the run.
    let seed = (u64::from(spec.write_through) << 1) | u64::from(fast_paths);
    let mut rng = Rng64::seed_from_u64(0xc4ec_b0a1 ^ seed.wrapping_mul(0x9e37_79b9));
    let stop_at = 1 + rng.next_u64() % full.cycles;
    let (resumed, resumed_events) = checkpointed(spec, fast_paths, stop_at);
    let label = format!(
        "{} / {} wt={} fast={fast_paths} stop_at={stop_at}",
        full.workload, full.system, spec.write_through
    );
    assert_eq!(resumed, full, "stats diverged: {label}");
    assert_eq!(
        output::run_json(spec, &resumed, None),
        output::run_json(spec, &full, None),
        "result JSON diverged: {label}"
    );
    assert_eq!(resumed_events, full_events, "trace diverged: {label}");
}

#[test]
fn round_trip_across_managers_policy_and_fast_paths() {
    let systems = [
        SystemKind::Cmu(Configuration::F),
        SystemKind::Cmu(Configuration::C),
        SystemKind::Utah,
    ];
    for system in systems {
        for write_through in [false, true] {
            for fast_paths in [false, true] {
                let mut spec = SystemSpec::quick(WorkloadKind::Fork, system);
                spec.write_through = write_through;
                assert_round_trip(&spec, fast_paths);
            }
        }
    }
}

/// Observers are never part of a checkpoint (DESIGN.md "State ownership
/// & serialization"): a run paused, restored, and finished with a tracer,
/// a resumed auditor, and the occupancy sampler all attached must produce
/// the same statistics as an unobserved uninterrupted run — and the
/// mid-flight auditor must stay clean on a correct system.
#[test]
fn observers_attached_across_restore_change_nothing() {
    let spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
    // Baseline: no observers at all.
    let bare = spec.run();
    let sampled = |tracer| Observers {
        tracer,
        sampler: Some(SnapshotSampler::every(500)),
        ..Observers::default()
    };

    // With observers: pause mid-run, restore, re-attach everything.
    let stop_at = bare.cycles / 2;
    let mut k = Kernel::new(spec.kernel_config());
    k.machine_mut()
        .attach(sampled(Tracer::new(CollectSink::default())));
    let step = spec.workload.build_step(spec.quick);
    let mut cur = Cursor::new();
    let outcome = drive(&mut k, CpuId::BOOT, step.as_ref(), &mut cur, Some(stop_at)).unwrap();
    assert_eq!(outcome, DriveOutcome::Paused, "fork-bench pauses mid-run");
    let cp = SystemCheckpoint::capture(spec, &k, &cur);
    drop(k);

    let auditor = Arc::new(Mutex::new(vic_trace::ConsistencyAuditor::resumed()));
    let (mut k, mut cur) = cp.resume().unwrap();
    k.machine_mut().attach(sampled(Tracer::new(
        vic_trace::FanoutSink::new()
            .with(auditor.clone())
            .with(CollectSink::default()),
    )));
    drive(&mut k, CpuId::BOOT, step.as_ref(), &mut cur, None).unwrap();
    k.machine_mut().detach().tracer.finish();
    let observed = collect(&k, step.name());

    assert_eq!(observed, bare, "observers changed a simulated number");
    let a = auditor.lock().unwrap();
    assert!(a.is_clean(), "mid-flight auditor flagged: {}", a.report());
    assert!(a.transitions_checked() > 0, "auditor saw the second half");
}

#[test]
fn round_trip_survives_every_workload() {
    // One representative point per workload (full grid above covers the
    // knobs); the alias microbenchmarks stress unaligned sharing state.
    for workload in WorkloadKind::ALL {
        let spec = SystemSpec::quick(workload, SystemKind::Cmu(Configuration::F));
        assert_round_trip(&spec, true);
    }
}
