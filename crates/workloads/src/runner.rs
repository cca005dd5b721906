//! The run harness: execute a workload under a chosen consistency system
//! and collect the statistics the paper's tables report.

use vic_core::manager::MgrStats;
use vic_core::types::CpuId;
use vic_machine::{MachineStats, Observers};
use vic_os::{Kernel, KernelConfig, OsStats};

use crate::step::{drive, Cursor, StepWorkload};

/// Everything measured from one run: the raw material for Tables 1 and 4.
///
/// Derives `PartialEq` so determinism can be asserted directly: the same
/// [`vic_bench`](../vic_bench/index.html)-level spec run twice must produce
/// an *identical* value, bit for bit (the `f64` field is computed from the
/// cycle count, so exact comparison is meaningful).
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Workload name.
    pub workload: String,
    /// Consistency system label.
    pub system: String,
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Elapsed simulated seconds (cycles / 50 MHz).
    pub seconds: f64,
    /// Hardware counters (cache hits/misses, flush/purge cycles, DMA).
    pub machine: MachineStats,
    /// Consistency-manager operation counts by cause.
    pub mgr: MgrStats,
    /// Kernel counters (mapping/consistency faults, preparations, IPC).
    pub os: OsStats,
    /// Staleness-oracle violations (must be 0 for every correct system).
    pub oracle_violations: u64,
}

impl RunStats {
    /// Total data+instruction page flushes (the instruction cache is never
    /// flushed, so this equals data flushes).
    pub fn total_flushes(&self) -> u64 {
        self.mgr.total_flushes()
    }

    /// Total page purges across both caches.
    pub fn total_purges(&self) -> u64 {
        self.mgr.total_purges()
    }

    /// Percent improvement of this run over a baseline run (elapsed time).
    pub fn gain_over(&self, baseline: &RunStats) -> f64 {
        100.0 * (baseline.seconds - self.seconds) / baseline.seconds
    }
}

/// Run `workload` to completion on a fresh kernel built from `cfg`, with
/// `observers` attached for the whole run, and collect its statistics.
/// Returns the observers with what they collected; the tracer's sink has
/// been finished, so file-backed sinks are flushed. Observing changes no
/// statistic and no cycle count.
///
/// # Panics
///
/// Panics if the workload itself fails — drivers are deterministic and a
/// failure is a bug, not a measurement.
pub fn run(
    cfg: KernelConfig,
    workload: &dyn StepWorkload,
    observers: Observers,
) -> (RunStats, Observers) {
    let mut k = Kernel::new(cfg);
    k.machine_mut().attach(observers);
    drive(&mut k, CpuId::BOOT, workload, &mut Cursor::new(), None).unwrap_or_else(|e| {
        panic!(
            "workload {} failed under {:?}: {e}",
            workload.name(),
            cfg.system
        )
    });
    let mut observers = k.machine_mut().detach();
    observers.tracer.finish();
    (collect(&k, workload.name()), observers)
}

/// [`run`] with nothing attached, for the drivers' tests.
#[cfg(test)]
pub(crate) fn plain(cfg: KernelConfig, workload: &dyn StepWorkload) -> RunStats {
    run(cfg, workload, Observers::default()).0
}

/// Snapshot statistics from a kernel after a run.
pub fn collect(k: &Kernel, workload: &str) -> RunStats {
    RunStats {
        workload: workload.to_string(),
        system: k.system().label(),
        cycles: k.machine().cycles(),
        seconds: k.machine().seconds(),
        machine: k.machine().stats().clone(),
        mgr: k.mgr_stats().clone(),
        os: k.os_stats().clone(),
        oracle_violations: k.machine().oracle().violations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_os::{OsError, SystemKind};

    struct Touch;
    impl StepWorkload for Touch {
        fn name(&self) -> &'static str {
            "touch"
        }
        fn step(&self, k: &mut Kernel, cpu: CpuId, _: &mut Cursor) -> Result<bool, OsError> {
            let t = k.create_task();
            let va = k.vm_allocate(t, 1)?;
            k.write(cpu, t, va, 42)?;
            assert_eq!(k.read(cpu, t, va)?, 42);
            Ok(false)
        }
    }

    fn small() -> KernelConfig {
        KernelConfig::small(SystemKind::Cmu(vic_core::policy::Configuration::F))
    }

    #[test]
    fn run_collects_stats() {
        let s = plain(small(), &Touch);
        assert_eq!(s.workload, "touch");
        assert!(s.cycles > 0);
        assert!(s.seconds > 0.0);
        assert_eq!(s.oracle_violations, 0);
        assert_eq!(s.machine.stores, 1 + 64, "one user store + zero-fill");
    }

    #[test]
    fn observed_run_matches_plain_and_samples() {
        let unobserved = plain(small(), &Touch);
        let observers = Observers {
            profiler: vic_profile::Profiler::enabled(),
            sampler: Some(vic_metrics::SnapshotSampler::every(100)),
            ..Observers::default()
        };
        let (stats, mut observers) = run(small(), &Touch, observers);
        assert_eq!(stats, unobserved, "observation changes nothing");
        let tree = observers.profiler.take_tree().expect("profiler attached");
        assert_eq!(tree.total_cycles(), stats.cycles, "every cycle attributed");
        let series = observers
            .sampler
            .expect("sampler attached")
            .into_series("touch");
        assert!(!series.samples.is_empty());
        // The end-of-run snapshot reflects the finished run.
        let mut k = Kernel::new(small());
        drive(&mut k, CpuId::BOOT, &Touch, &mut Cursor::new(), None).unwrap();
        let snapshot = k.inspect();
        assert_eq!(snapshot.machine.cycles, stats.cycles);
        assert!(snapshot.frames_tracked > 0, "manager tracks frames");
    }

    #[test]
    fn gain_over() {
        let mut a = plain(small(), &Touch);
        let mut b = a.clone();
        a.seconds = 90.0;
        b.seconds = 100.0;
        assert!((a.gain_over(&b) - 10.0).abs() < 1e-9);
    }
}
