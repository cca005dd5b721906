//! [`SystemSpec`]: the complete, value-level description of one simulated
//! run — workload, consistency system, machine scale and every knob.
//!
//! A spec is plain `Copy` data: it can be compared, hashed, stored in a
//! grid, shipped to another thread and replayed. Everything with identity
//! (the kernel, the machine, the trace sink) is built *from* the spec at
//! the point of use, which is what makes runs deterministic — two runs of
//! the same spec construct bit-identical systems and therefore produce
//! identical [`RunStats`].
//!
//! Every bench binary that runs the simulator (`run`, `sweep`, `profile`)
//! describes its runs as specs; the duplicated ad-hoc construction logic
//! they used to carry lives here now.

use vic_machine::{Observers, WritePolicy};
use vic_os::{KernelConfig, SystemKind};
use vic_workloads::{run, RunStats, WorkloadKind};

use vic_core::policy::Configuration;

/// Everything needed to reproduce one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemSpec {
    /// Which benchmark to run.
    pub workload: WorkloadKind,
    /// Which consistency system to run it under.
    pub system: SystemKind,
    /// Quick mode: miniature machine + shortened workload (tests, CI).
    pub quick: bool,
    /// The paper's §5.1 colored free page lists.
    pub colored_free_lists: bool,
    /// Write-through instead of write-back data cache.
    pub write_through: bool,
    /// The paper's proposed single-cycle page purge hardware.
    pub fast_purge: bool,
}

impl SystemSpec {
    /// A paper-scale spec with all knobs at their measured-system defaults.
    pub fn new(workload: WorkloadKind, system: SystemKind) -> Self {
        SystemSpec {
            workload,
            system,
            quick: false,
            colored_free_lists: false,
            write_through: false,
            fast_purge: false,
        }
    }

    /// A quick-mode spec (miniature machine, shortened workload).
    pub fn quick(workload: WorkloadKind, system: SystemKind) -> Self {
        SystemSpec {
            quick: true,
            ..SystemSpec::new(workload, system)
        }
    }

    /// The kernel configuration this spec describes.
    pub fn kernel_config(&self) -> KernelConfig {
        let mut cfg = if self.quick {
            KernelConfig::small(self.system)
        } else {
            KernelConfig::new(self.system)
        };
        cfg.colored_free_lists = self.colored_free_lists;
        if self.write_through {
            cfg.machine.write_policy = WritePolicy::WriteThrough;
        }
        if self.fast_purge {
            cfg.machine.costs = cfg.machine.costs.fast_purge();
        }
        cfg
    }

    /// Execute the run, unobserved. Deterministic: the same spec always
    /// returns the same [`RunStats`].
    pub fn run(&self) -> RunStats {
        self.run_with(Observers::default()).0
    }

    /// Execute the run with `observers` attached, and return them with
    /// what they collected. Observing changes no statistic and no cycle
    /// count.
    pub fn run_with(&self, observers: Observers) -> (RunStats, Observers) {
        let workload = self.workload.build_step(self.quick);
        run(self.kernel_config(), workload.as_ref(), observers)
    }

    /// A short one-line label (`workload @ system [+knobs]`).
    pub fn label(&self) -> String {
        let mut s = format!("{} @ {}", self.workload, self.system.label());
        if self.quick {
            s.push_str(" +quick");
        }
        if self.colored_free_lists {
            s.push_str(" +colored");
        }
        if self.write_through {
            s.push_str(" +write-through");
        }
        if self.fast_purge {
            s.push_str(" +fast-purge");
        }
        s
    }

    /// The Table-4 grid: the three paper benchmarks across configurations
    /// A–F, benchmark-major (all six configs of one benchmark, then the
    /// next) — the order Table 4 prints them in.
    pub fn table4_grid(quick: bool) -> Vec<SystemSpec> {
        let mut specs = Vec::new();
        for w in WorkloadKind::TABLE4 {
            for c in Configuration::ALL {
                let mut s = SystemSpec::new(w, SystemKind::Cmu(c));
                s.quick = quick;
                specs.push(s);
            }
        }
        specs
    }

    /// The Table-5 grid: afs-bench under each of the five real systems.
    pub fn table5_grid(quick: bool) -> Vec<SystemSpec> {
        SystemKind::table5()
            .into_iter()
            .map(|sys| {
                let mut s = SystemSpec::new(WorkloadKind::Afs, sys);
                s.quick = quick;
                s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_send_and_copy() {
        fn assert_send<T: Send + Copy>() {}
        assert_send::<SystemSpec>();
    }

    #[test]
    fn knobs_reach_the_config() {
        let mut spec = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Utah);
        spec.colored_free_lists = true;
        spec.write_through = true;
        let cfg = spec.kernel_config();
        assert!(cfg.colored_free_lists);
        assert_eq!(cfg.machine.write_policy, WritePolicy::WriteThrough);
        assert_eq!(cfg.system, SystemKind::Utah);
    }

    #[test]
    fn fast_purge_cheapens_purges() {
        let base = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
        let mut fast = base;
        fast.fast_purge = true;
        assert!(
            fast.kernel_config().machine.costs.icache_purge_page
                < base.kernel_config().machine.costs.icache_purge_page
        );
    }

    #[test]
    fn grids_have_the_paper_shape() {
        let t4 = SystemSpec::table4_grid(true);
        assert_eq!(t4.len(), 18, "3 benchmarks x configurations A-F");
        assert!(t4.iter().all(|s| s.quick));
        let t5 = SystemSpec::table5_grid(true);
        assert_eq!(t5.len(), 5);
        assert!(t5.iter().all(|s| s.workload == WorkloadKind::Afs));
    }
}
