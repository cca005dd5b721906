//! A value-level description of *which* benchmark to run.
//!
//! [`WorkloadKind`] is the `Copy` twin of the [`StepWorkload`] trait
//! objects: it can sit in a spec, travel across threads, be compared,
//! printed and parsed — and it builds the actual driver only at the point
//! of use (the drivers themselves never need to be `Send`). This is what
//! lets a sweep describe hundreds of runs as plain data.

use crate::step::StepWorkload;
use crate::{AfsBench, AliasLoop, ForkBench, KernelBuild, LatexBench};

/// One of the benchmark drivers, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The Andrew File System benchmark (file-intensive).
    Afs,
    /// Formatting the paper with TeX (CPU-heavy).
    Latex,
    /// Building the Mach kernel (task churn, exec text loading).
    KernelBuild,
    /// Copy-on-write fork snapshots.
    Fork,
    /// The alias microbenchmark with cache-aligned addresses.
    AliasAligned,
    /// The alias microbenchmark with unaligned addresses (the paper's
    /// "over 2 minutes" pathological case).
    AliasUnaligned,
}

impl WorkloadKind {
    /// All workloads, in reporting order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::Afs,
        WorkloadKind::Latex,
        WorkloadKind::KernelBuild,
        WorkloadKind::Fork,
        WorkloadKind::AliasAligned,
        WorkloadKind::AliasUnaligned,
    ];

    /// The three benchmarks of the paper's Table 4, in table order.
    pub const TABLE4: [WorkloadKind; 3] = [
        WorkloadKind::Afs,
        WorkloadKind::Latex,
        WorkloadKind::KernelBuild,
    ];

    /// The name used on the command line and in JSON output.
    pub fn cli_name(self) -> &'static str {
        match self {
            WorkloadKind::Afs => "afs-bench",
            WorkloadKind::Latex => "latex-paper",
            WorkloadKind::KernelBuild => "kernel-build",
            WorkloadKind::Fork => "fork-bench",
            WorkloadKind::AliasAligned => "alias-aligned",
            WorkloadKind::AliasUnaligned => "alias-unaligned",
        }
    }

    /// Parse a CLI name (see [`WorkloadKind::cli_name`]).
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.cli_name() == s)
    }

    /// Build the driver at paper scale, or the quick variant used by the
    /// fast test/CI paths, as a resumable state machine (see
    /// [`crate::step`]).
    pub fn build_step(self, quick: bool) -> Box<dyn StepWorkload> {
        match (self, quick) {
            (WorkloadKind::Afs, false) => Box::new(AfsBench::paper()),
            (WorkloadKind::Afs, true) => Box::new(AfsBench::quick()),
            (WorkloadKind::Latex, false) => Box::new(LatexBench::paper()),
            (WorkloadKind::Latex, true) => Box::new(LatexBench::quick()),
            (WorkloadKind::KernelBuild, false) => Box::new(KernelBuild::paper()),
            (WorkloadKind::KernelBuild, true) => Box::new(KernelBuild::quick()),
            (WorkloadKind::Fork, false) => Box::new(ForkBench::paper()),
            (WorkloadKind::Fork, true) => Box::new(ForkBench::quick()),
            (WorkloadKind::AliasAligned, false) => Box::new(AliasLoop::paper(true)),
            (WorkloadKind::AliasAligned, true) => Box::new(AliasLoop::quick(true)),
            (WorkloadKind::AliasUnaligned, false) => Box::new(AliasLoop::paper(false)),
            (WorkloadKind::AliasUnaligned, true) => Box::new(AliasLoop::quick(false)),
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.cli_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips() {
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(w.cli_name()), Some(w));
        }
        assert_eq!(WorkloadKind::parse("no-such-bench"), None);
    }

    #[test]
    fn build_matches_kind() {
        // The built driver reports a name the kind's CLI name is derived
        // from (the alias loop uses a slashed display name internally).
        for w in WorkloadKind::ALL {
            let b = w.build_step(true);
            assert!(!b.name().is_empty());
        }
        assert_eq!(WorkloadKind::Afs.build_step(true).name(), "afs-bench");
        assert_eq!(
            WorkloadKind::AliasUnaligned.build_step(true).name(),
            "alias-loop/unaligned"
        );
    }
}
