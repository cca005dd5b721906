//! The observability layer up close: run a small aliasing workload twice —
//! once under the paper's manager, once under a sabotaged one — with the
//! full trace pipeline attached, and show what each sink sees.
//!
//! ```sh
//! cargo run --example trace_dump
//! ```

use std::sync::{Arc, Mutex};

use vic::core::managers::DropClass;
use vic::core::policy::Configuration;
use vic::os::{KernelConfig, SystemKind};
use vic::trace::{ConsistencyAuditor, FanoutSink, HistogramSink, RingBufferSink, Tracer};
use vic::workloads::{run, AliasLoop};

fn traced_run(system: SystemKind, label: &str) {
    // Three sinks share one stream: the last few hundred events for a
    // post-mortem dump, per-event-class cost histograms, and the auditor
    // replaying every consistency state transition against the abstract
    // four-state model.
    let ring = Arc::new(Mutex::new(RingBufferSink::new(12)));
    let hist = Arc::new(Mutex::new(HistogramSink::new()));
    let auditor = Arc::new(Mutex::new(ConsistencyAuditor::new()));
    let tracer = Tracer::new(
        FanoutSink::new()
            .with(ring.clone())
            .with(hist.clone())
            .with(auditor.clone()),
    );

    let cfg = KernelConfig::small(system);
    let (stats, _) = run(cfg, &AliasLoop::quick(false), tracer.into());

    println!("=== {label} ===");
    println!(
        "{} cycles, {} flushes, {} purges, oracle violations: {}",
        stats.cycles,
        stats.total_flushes(),
        stats.total_purges(),
        stats.oracle_violations
    );

    println!("\nlast events on the ring buffer:");
    print!("{}", ring.lock().unwrap().dump());

    println!("\ncycle cost by event class:");
    for (name, count, total, avg, p95, sketch) in hist.lock().unwrap().rows() {
        println!("  {name:<14} {count:>7} events {total:>9} cycles  avg {avg:>7.1}  p95 {p95:>6}  {sketch}");
    }

    let a = auditor.lock().unwrap();
    println!();
    if a.is_clean() {
        println!(
            "audit: CLEAN — all {} state transitions legal under the four-state model",
            a.transitions_checked()
        );
    } else {
        println!(
            "audit: {} divergences in {} transitions; the first few:",
            a.divergence_count(),
            a.transitions_checked()
        );
        for d in a.divergences().iter().take(3) {
            println!("  {d}");
        }
    }
    println!();
}

fn main() {
    // The paper's fully optimized manager: lots of flush/purge traffic on
    // the unaligned alias, every transition legal, audit clean.
    traced_run(SystemKind::Cmu(Configuration::F), "CMU configuration F");

    // The same manager with every data-cache flush suppressed: its
    // bookkeeping marches on while the hardware operations never happen,
    // and the auditor flags each dirty line that "became" clean without a
    // flush — even before any stale byte is actually revealed.
    traced_run(
        SystemKind::Chaos(DropClass::Flushes),
        "Chaos: flushes dropped",
    );
}
