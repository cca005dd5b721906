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
//! Every sweep is failure-tolerant: a panicking run is recorded in
//! [`Sweep::failures`] instead of aborting the others. Fleet totals (runs
//! completed and failed, cycles retired, host time per run) are read off
//! the sweep document (`output::sweep_json`), which lists every completed
//! run and every failure.
//!
//! Determinism: each run is a pure function of its spec, so the *values*
//! in the result vector are independent of thread count and interleaving;
//! only wall-clock timings vary. `parallel == serial` is asserted in
//! `tests/determinism.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vic_metrics::ProgressReporter;
use vic_profile::CostTree;
use vic_workloads::RunStats;

use crate::spec::SystemSpec;

/// What one run of a sweep returns: its statistics, perhaps with its
/// cost tree (what the sweep document writes for each run).
pub trait Outcome: Send {
    /// The run's statistics.
    fn stats(&self) -> &RunStats;

    /// The run's cycle-cost tree, when it was profiled.
    fn cost_tree(&self) -> Option<&CostTree> {
        None
    }
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

    fn cost_tree(&self) -> Option<&CostTree> {
        Some(&self.1)
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
/// in spec order. Each outcome is a pure function of its spec, so only
/// the wall-clock timings depend on the thread count and scheduling.
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
    R: Send,
    F: Fn(&SystemSpec) -> R + Sync,
{
    assert!(threads > 0, "a sweep needs at least one worker");
    let started = Instant::now();
    let threads = threads.min(specs.len()).max(1);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Slot<R>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let t0 = Instant::now();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(spec)));
                let slot = outcome
                    .map(|out| SweepResult {
                        spec: *spec,
                        out,
                        wall: t0.elapsed(),
                    })
                    .map_err(panic_message);
                *slots[i].lock().expect("result slot poisoned") = Some(slot);
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress.tick(n as u64);
            });
        }
    });
    progress.finish();
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    fn plain(specs: &[SystemSpec], threads: usize) -> Sweep {
        run_sweep(
            specs,
            threads,
            &ProgressReporter::disabled(),
            SystemSpec::run,
        )
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
    fn panicking_runs_are_failures_not_aborts() {
        let specs = small_specs();
        let poisoned = specs[1];
        let attempts = AtomicUsize::new(0);
        let sweep = run_sweep(&specs, 2, &ProgressReporter::disabled(), |s| {
            attempts.fetch_add(1, Ordering::Relaxed);
            assert!(*s != poisoned, "boom");
            s.run()
        });
        assert_eq!(sweep.results.len(), specs.len() - 1);
        assert_eq!(sweep.failures.len(), 1);
        assert_eq!(sweep.failures[0].0, poisoned);
        assert!(sweep.failures[0].1.contains("boom"), "{:?}", sweep.failures);
        assert_eq!(attempts.into_inner(), specs.len());
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
