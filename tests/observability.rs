//! End-to-end acceptance tests for the `vic-trace` observability layer:
//!
//! * tracing is a pure observer — enabling it changes no cycle count and
//!   no statistic;
//! * the event stream is cycle-stamped monotonically across all three
//!   layers (machine, OS, algorithm);
//! * the [`ConsistencyAuditor`] replaying the transition stream against
//!   the abstract four-state model finds **zero** divergences for the
//!   paper's manager on aliasing and fork/COW workloads, and flags a
//!   sabotaged manager on the same workloads even when the staleness
//!   oracle happens to stay clean (the audit catches protocol violations
//!   *before* they become visible corruption).

use std::sync::{Arc, Mutex};

use vic::core::managers::DropClass;
use vic::core::policy::Configuration;
use vic::machine::Observers;
use vic::os::{KernelConfig, SystemKind};
use vic::trace::{ConsistencyAuditor, JsonLinesSink, RingBufferSink, TraceEvent, Tracer};
use vic::workloads::{run, AliasLoop, ForkBench, RunStats, StepWorkload};

fn run_audited(
    system: SystemKind,
    w: &dyn StepWorkload,
) -> (RunStats, Arc<Mutex<ConsistencyAuditor>>) {
    let auditor = Arc::new(Mutex::new(ConsistencyAuditor::new()));
    let (s, _) = run(
        KernelConfig::small(system),
        w,
        Tracer::new(auditor.clone()).into(),
    );
    (s, auditor)
}

#[test]
fn tracing_changes_nothing() {
    let w = AliasLoop::quick(false);
    let config = KernelConfig::small(SystemKind::Cmu(Configuration::F));
    let (plain, _) = run(config, &w, Observers::default());
    let sink = Arc::new(Mutex::new(RingBufferSink::new(4096)));
    let (traced, _) = run(config, &w, Tracer::new(sink.clone()).into());
    assert!(
        sink.lock().unwrap().total_seen() > 0,
        "the run did emit events"
    );
    assert_eq!(
        traced.cycles, plain.cycles,
        "tracing must not charge cycles"
    );
    assert_eq!(traced.machine, plain.machine, "machine stats unchanged");
    assert_eq!(traced.os, plain.os, "kernel stats unchanged");
    assert_eq!(traced.mgr, plain.mgr, "manager stats unchanged");
    assert_eq!(traced.oracle_violations, plain.oracle_violations);
}

#[test]
fn cycle_stamps_are_monotone_across_layers() {
    let sink = Arc::new(Mutex::new(RingBufferSink::new(2_000_000)));
    run(
        KernelConfig::small(SystemKind::Cmu(Configuration::F)),
        &ForkBench::quick(),
        Tracer::new(sink.clone()).into(),
    );
    let sink = sink.lock().unwrap();
    let mut prev = 0u64;
    let (mut machine, mut os, mut algo) = (0u64, 0u64, 0u64);
    for &(cycle, event) in sink.events() {
        assert!(
            cycle >= prev,
            "cycle stamp went backwards: {prev} then {cycle} at {event}"
        );
        prev = cycle;
        match event.layer() {
            "machine" => machine += 1,
            "os" => os += 1,
            "algo" => algo += 1,
            other => panic!("unknown layer {other}"),
        }
    }
    assert!(machine > 0, "machine events present");
    assert!(os > 0, "OS events present");
    assert!(algo > 0, "algorithm events present");
}

#[test]
fn json_lines_stream_is_well_formed() {
    let buf: Vec<u8> = Vec::new();
    let sink = Arc::new(Mutex::new(JsonLinesSink::new(buf)));
    run(
        KernelConfig::small(SystemKind::Cmu(Configuration::F)),
        &AliasLoop::quick(false),
        Tracer::new(sink.clone()).into(),
    );
    let sink = sink.lock().unwrap();
    assert!(sink.io_error().is_none());
    let text = String::from_utf8(sink.get_ref().clone()).expect("valid UTF-8");
    assert_eq!(sink.lines_written(), text.lines().count() as u64);
    assert!(sink.lines_written() > 0);
    for line in text.lines() {
        assert!(line.starts_with("{\"cycle\":"), "bad line {line:?}");
        assert!(line.ends_with('}'), "bad line {line:?}");
        assert!(line.contains("\"layer\":"), "bad line {line:?}");
        assert!(line.contains("\"ev\":"), "bad line {line:?}");
    }
}

#[test]
fn auditor_is_clean_for_cmu_on_aliases() {
    let (s, auditor) = run_audited(SystemKind::Cmu(Configuration::F), &AliasLoop::quick(false));
    assert_eq!(s.oracle_violations, 0);
    let a = auditor.lock().unwrap();
    assert!(a.transitions_checked() > 0, "transitions were audited");
    assert!(a.is_clean(), "divergences: {}", a.report());
}

#[test]
fn auditor_is_clean_for_cmu_on_fork() {
    let (s, auditor) = run_audited(SystemKind::Cmu(Configuration::F), &ForkBench::quick());
    assert_eq!(s.oracle_violations, 0);
    let a = auditor.lock().unwrap();
    assert!(a.transitions_checked() > 0, "transitions were audited");
    assert!(a.is_clean(), "divergences: {}", a.report());
}

#[test]
fn auditor_is_clean_for_old_eager_configuration_too() {
    // Configuration A performs more (eager) operations, but every one of
    // them is still legal under the four-state model.
    let (s, auditor) = run_audited(SystemKind::Cmu(Configuration::A), &AliasLoop::quick(false));
    assert_eq!(s.oracle_violations, 0);
    assert!(auditor.lock().unwrap().is_clean());
}

#[test]
fn auditor_flags_chaos_managers() {
    for drop in [
        DropClass::Flushes,
        DropClass::DataPurges,
        DropClass::FlushesBecomePurges,
    ] {
        let (_, auditor) = run_audited(SystemKind::Chaos(drop), &AliasLoop::quick(false));
        let a = auditor.lock().unwrap();
        assert!(
            a.divergence_count() >= 1,
            "dropping {drop:?} must diverge from the model"
        );
    }
}

#[test]
fn auditor_flags_chaos_on_fork_even_when_oracle_clean() {
    let (s, auditor) = run_audited(
        SystemKind::Chaos(DropClass::DataPurges),
        &ForkBench::quick(),
    );
    let a = auditor.lock().unwrap();
    assert!(
        a.divergence_count() >= 1,
        "dropped purges must diverge from the model"
    );
    // Whether or not stale data was actually revealed this run, the audit
    // fires: it checks the protocol, not the luck of the access pattern.
    let _ = s.oracle_violations;
}

#[test]
fn transition_events_carry_coherent_fields() {
    let sink = Arc::new(Mutex::new(RingBufferSink::new(2_000_000)));
    run(
        KernelConfig::small(SystemKind::Cmu(Configuration::F)),
        &AliasLoop::quick(false),
        Tracer::new(sink.clone()).into(),
    );
    let sink = sink.lock().unwrap();
    let mut seen = 0u64;
    for &(_, event) in sink.events() {
        if let TraceEvent::Transition { old, new, .. } = event {
            assert_ne!(old, new, "self-loops are not transitions");
            seen += 1;
        }
    }
    assert!(seen > 0, "aliasing workload produces state transitions");
}
