//! The sweep engine: fan a `Vec<SystemSpec>` across worker threads,
//! preserve per-spec determinism, merge results in spec order.
//!
//! Because a complete simulated system is a single owned `Send` value
//! (kernel → machine → tracer, no shared ownership anywhere), a run needs
//! nothing from the thread that described it: workers take a spec, build
//! the whole system locally, run it to completion and park the outcome.
//!
//! Scheduling is a self-service queue — one shared atomic index into the
//! spec list; each worker claims the next unclaimed spec when it finishes
//! its current one. That is the useful half of work stealing (no idle
//! worker while work remains, long runs don't convoy behind short ones)
//! without deques or unsafe code, and it keeps the engine std-only.
//!
//! The queue is generic over what a run returns: plain [`RunStats`] for
//! `sweep`, [`RunStats`] with a [`CostTree`] for the profiler's baseline.
//! Every sweep carries fleet telemetry and is failure-tolerant: a
//! panicking run is recorded in [`Sweep::failures`] instead of aborting
//! the others.
//!
//! Determinism: each run is a pure function of its spec, so the *values*
//! in the result vector are independent of thread count and interleaving;
//! only wall-clock timings vary. `parallel == serial` is asserted in
//! `tests/determinism.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vic_metrics::{MetricsShard, ProgressReporter};
use vic_profile::CostTree;
use vic_workloads::RunStats;

use crate::spec::SystemSpec;

/// What one run of a sweep returns: its statistics, perhaps with more.
pub trait Outcome: Send {
    /// The run's statistics.
    fn stats(&self) -> &RunStats;
}

impl Outcome for RunStats {
    fn stats(&self) -> &RunStats {
        self
    }
}

impl Outcome for (RunStats, CostTree) {
    fn stats(&self) -> &RunStats {
        &self.0
    }
}

/// The outcome of one spec within a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult<R = RunStats> {
    /// The spec that was run.
    pub spec: SystemSpec,
    /// What the run returned (identical to a serial run of the spec).
    pub out: R,
    /// Host wall-clock time this run took (not deterministic; excluded
    /// from equality comparisons).
    pub wall: Duration,
}

/// A completed sweep.
#[derive(Debug)]
pub struct Sweep<R = RunStats> {
    /// Completed results, **in spec order** (failed specs omitted).
    pub results: Vec<SweepResult<R>>,
    /// Failed specs and their panic messages, **in spec order**.
    pub failures: Vec<(SystemSpec, String)>,
    /// Worker threads used.
    pub threads: usize,
    /// Host wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Merged fleet telemetry from every worker: `runs_completed`,
    /// `runs_failed`, `sim_cycles`, `peak_sim_cycles` and the
    /// `sim_cycles_per_run` and `host_ns_per_run` histograms, plus
    /// whatever the run function itself counted.
    pub metrics: MetricsShard,
}

/// Where a worker parks one spec's outcome: the result, or the panic
/// message of a failed run.
type Slot<R> = Mutex<Option<Result<SweepResult<R>, String>>>;

/// The default worker count: every hardware thread the host offers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Call `run` on every spec on `threads` workers and return the outcomes
/// in spec order.
///
/// Each worker keeps a private [`MetricsShard`], which `run` may also
/// count into; shards are merged after the scope joins. Because the merge
/// is commutative and associative and every deterministic metric is a
/// pure function of the spec, the merged counters and the
/// `sim_cycles_per_run` histogram are independent of thread count and
/// scheduling — only `host_ns_per_run` (host timing) varies.
/// `progress.tick` fires after every finished run. A run that panics is
/// caught and listed in [`Sweep::failures`].
///
/// # Panics
///
/// Panics only if `threads` is zero.
pub fn run_sweep<R, F>(
    specs: &[SystemSpec],
    threads: usize,
    progress: &ProgressReporter,
    run: F,
) -> Sweep<R>
where
    R: Outcome,
    F: Fn(&SystemSpec, &mut MetricsShard) -> R + Sync,
{
    assert!(threads > 0, "a sweep needs at least one worker");
    let started = Instant::now();
    let threads = threads.min(specs.len()).max(1);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Slot<R>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let shards: Mutex<Vec<MetricsShard>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut shard = MetricsShard::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let t0 = Instant::now();
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run(spec, &mut shard)
                    }));
                    let wall = t0.elapsed();
                    let slot = match outcome {
                        Ok(out) => {
                            let cycles = out.stats().cycles;
                            shard.add("runs_completed", 1);
                            shard.add("sim_cycles", cycles);
                            shard.observe("sim_cycles_per_run", cycles);
                            shard.observe("host_ns_per_run", wall.as_nanos() as u64);
                            shard.gauge_max("peak_sim_cycles", cycles);
                            Ok(SweepResult {
                                spec: *spec,
                                out,
                                wall,
                            })
                        }
                        Err(payload) => {
                            shard.add("runs_failed", 1);
                            Err(panic_message(payload))
                        }
                    };
                    *slots[i].lock().expect("result slot poisoned") = Some(slot);
                    let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                    progress.tick(n as u64);
                }
                shards.lock().expect("shard list poisoned").push(shard);
            });
        }
    });
    progress.finish();
    let mut metrics = MetricsShard::default();
    for shard in shards.into_inner().expect("shard list poisoned") {
        metrics.merge(&shard);
    }
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for (spec, slot) in specs.iter().zip(slots) {
        match slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("every spec claimed and completed")
        {
            Ok(r) => results.push(r),
            Err(msg) => failures.push((*spec, msg)),
        }
    }
    Sweep {
        results,
        failures,
        threads,
        wall: started.elapsed(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    fn plain(specs: &[SystemSpec], threads: usize) -> Sweep {
        run_sweep(specs, threads, &ProgressReporter::disabled(), |s, _| {
            s.run()
        })
    }

    fn small_specs() -> Vec<SystemSpec> {
        [Configuration::A, Configuration::F]
            .into_iter()
            .flat_map(|c| {
                [WorkloadKind::Fork, WorkloadKind::AliasAligned]
                    .into_iter()
                    .map(move |w| SystemSpec::quick(w, SystemKind::Cmu(c)))
            })
            .collect()
    }

    #[test]
    fn empty_sweep_is_fine() {
        let s = plain(&[], 4);
        assert!(s.results.is_empty() && s.failures.is_empty());
        assert_eq!(s.threads, 1, "workers clamp to at least one");
    }

    #[test]
    fn more_threads_than_specs_is_fine() {
        let specs = &small_specs()[..2];
        let sweep = plain(specs, 16);
        assert_eq!(sweep.threads, 2, "workers clamp to the spec count");
        assert_eq!(sweep.results.len(), 2);
        for (spec, res) in specs.iter().zip(&sweep.results) {
            assert_eq!(res.spec, *spec);
            assert_eq!(res.out, spec.run());
        }
    }

    #[test]
    fn results_come_back_in_spec_order() {
        let specs = small_specs();
        let sweep = plain(&specs, 3);
        assert_eq!(sweep.results.len(), specs.len());
        for (spec, res) in specs.iter().zip(&sweep.results) {
            assert_eq!(*spec, res.spec);
            assert_eq!(res.out.oracle_violations, 0);
        }
        assert_eq!(sweep.threads, 3);
    }

    #[test]
    fn sweeps_count_the_fleet() {
        let specs = small_specs();
        let obs = plain(&specs, 2);
        assert!(obs.failures.is_empty());
        assert_eq!(obs.results.len(), specs.len());
        for (spec, r) in specs.iter().zip(&obs.results) {
            assert_eq!(r.out, spec.run(), "telemetry changes nothing");
        }
        let total: u64 = obs.results.iter().map(|r| r.out.cycles).sum();
        let peak = obs.results.iter().map(|r| r.out.cycles).max().unwrap();
        assert_eq!(obs.metrics.counter("runs_completed"), specs.len() as u64);
        assert_eq!(obs.metrics.counter("runs_failed"), 0);
        assert_eq!(obs.metrics.counter("sim_cycles"), total);
        assert_eq!(obs.metrics.gauge("peak_sim_cycles"), Some(peak));
        let h = obs.metrics.histogram("sim_cycles_per_run").unwrap();
        assert_eq!(h.count(), specs.len() as u64);
        assert_eq!(h.total(), total);
    }

    #[test]
    fn panicking_runs_are_failures_not_aborts() {
        let specs = small_specs();
        let poisoned = specs[1];
        let sweep = run_sweep(&specs, 2, &ProgressReporter::disabled(), |s, shard| {
            shard.add("attempts", 1);
            assert!(*s != poisoned, "boom");
            s.run()
        });
        assert_eq!(sweep.results.len(), specs.len() - 1);
        assert_eq!(sweep.failures.len(), 1);
        assert_eq!(sweep.failures[0].0, poisoned);
        assert!(sweep.failures[0].1.contains("boom"), "{:?}", sweep.failures);
        assert_eq!(sweep.metrics.counter("runs_failed"), 1);
        assert_eq!(sweep.metrics.counter("attempts"), specs.len() as u64);
    }

    #[test]
    fn panic_messages_survive_the_catch() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("boom"))), "boom");
        assert_eq!(
            panic_message(Box::new(42u32)),
            "panic with non-string payload"
        );
    }
}
