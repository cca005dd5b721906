//! Point-in-time views of the simulated machine.
//!
//! A snapshot is plain data produced by `Machine::inspect()` (the
//! hardware view: caches, victim pointers, TLB) and `Kernel::inspect()`
//! (the hardware view plus the consistency manager's per-page state
//! counts). Taking one only *reads* simulator state — no snapshot, and
//! no frequency of snapshots, can change a simulated result.

use vic_core::state::LineState;
use vic_core::types::CacheKind;

/// One cache's occupancy at an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Which cache this is.
    pub kind: CacheKind,
    /// Total lines in the cache.
    pub num_lines: u64,
    /// Set associativity.
    pub associativity: u64,
    /// Per cache page: `(valid lines, dirty lines)`, indexed by cache
    /// page number. Mirrors the engine's occupancy index exactly.
    pub pages: Vec<(u64, u64)>,
    /// Victim-buffer state: `victim_ways[w]` is the number of sets whose
    /// round-robin replacement pointer currently selects way `w`.
    pub victim_ways: Vec<u64>,
}

impl CacheSnapshot {
    /// Valid lines across all cache pages.
    pub fn valid_total(&self) -> u64 {
        self.pages.iter().map(|&(v, _)| v).sum()
    }

    /// Dirty lines across all cache pages.
    pub fn dirty_total(&self) -> u64 {
        self.pages.iter().map(|&(_, d)| d).sum()
    }

    /// Fraction of lines holding valid data, in `[0, 1]`.
    pub fn occupancy_ratio(&self) -> f64 {
        self.valid_total() as f64 / (self.num_lines.max(1)) as f64
    }

    /// Fraction of lines holding dirty data, in `[0, 1]`.
    pub fn dirty_ratio(&self) -> f64 {
        self.dirty_total() as f64 / (self.num_lines.max(1)) as f64
    }
}

/// TLB residency at an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbSnapshot {
    /// Entries currently resident.
    pub resident: u64,
    /// Hardware capacity.
    pub capacity: u64,
}

/// The hardware view: what `Machine::inspect()` returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// Simulated cycle the snapshot was taken at.
    pub cycles: u64,
    /// Data cache occupancy.
    pub dcache: CacheSnapshot,
    /// Instruction cache occupancy.
    pub icache: CacheSnapshot,
    /// TLB residency.
    pub tlb: TlbSnapshot,
}

/// How many of a frame's cache pages sit in each consistency state,
/// summed over every tracked frame, for one cache side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageStateCounts {
    /// Pages in state Empty.
    pub empty: u64,
    /// Pages in state Present.
    pub present: u64,
    /// Pages in state Dirty.
    pub dirty: u64,
    /// Pages in state Stale.
    pub stale: u64,
}

impl PageStateCounts {
    /// Tally one observed state.
    pub fn count(&mut self, s: LineState) {
        match s {
            LineState::Empty => self.empty += 1,
            LineState::Present => self.present += 1,
            LineState::Dirty => self.dirty += 1,
            LineState::Stale => self.stale += 1,
        }
    }

    /// Total pages tallied.
    pub fn total(&self) -> u64 {
        self.empty + self.present + self.dirty + self.stale
    }
}

/// The full system view: what `Kernel::inspect()` returns — the hardware
/// snapshot plus the consistency manager's Table-3 bookkeeping, folded
/// into per-state counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSnapshot {
    /// The hardware view.
    pub machine: MachineSnapshot,
    /// Physical frames the consistency manager tracks state for.
    pub frames_tracked: u64,
    /// Data-side cache-page state counts over all tracked frames.
    pub d_states: PageStateCounts,
    /// Instruction-side cache-page state counts over all tracked frames.
    pub i_states: PageStateCounts,
}

/// A small fixed snapshot for tests across this crate.
#[cfg(test)]
pub(crate) fn test_sample(cycles: u64) -> MachineSnapshot {
    MachineSnapshot {
        cycles,
        dcache: CacheSnapshot {
            kind: CacheKind::Data,
            num_lines: 64,
            associativity: 2,
            pages: vec![(8, 2), (4, 0)],
            victim_ways: vec![20, 12],
        },
        icache: CacheSnapshot {
            kind: CacheKind::Insn,
            num_lines: 32,
            associativity: 1,
            pages: vec![(5, 0)],
            victim_ways: vec![32],
        },
        tlb: TlbSnapshot {
            resident: 7,
            capacity: 96,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycles: u64) -> MachineSnapshot {
        super::test_sample(cycles)
    }

    #[test]
    fn totals_and_ratios() {
        let m = sample(100);
        assert_eq!(m.dcache.valid_total(), 12);
        assert_eq!(m.dcache.dirty_total(), 2);
        assert!((m.dcache.occupancy_ratio() - 12.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn page_states_tally() {
        let mut d = PageStateCounts::default();
        d.count(LineState::Dirty);
        d.count(LineState::Empty);
        d.count(LineState::Empty);
        assert_eq!(d.total(), 3);
        assert_eq!((d.empty, d.dirty), (2, 1));
    }
}
