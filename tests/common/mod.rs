//! Helpers shared by the integration tests.

use vic::machine::Observers;
use vic::os::KernelConfig;
use vic::workloads::{run, RunStats, StepWorkload};

/// Run `w` to completion on a kernel built from `cfg`, unobserved.
pub fn unobserved(cfg: KernelConfig, w: &dyn StepWorkload) -> RunStats {
    run(cfg, w, Observers::default()).0
}
