//! The interface an operating system drives to keep a virtually indexed
//! cache consistent, plus operation statistics.
//!
//! A [`ConsistencyManager`] is notified of every event that can change
//! cache-page consistency state: mapping creation and removal, CPU accesses
//! caught by protection faults, DMA scheduling, and pages returning to the
//! free list. In response it performs cache flushes/purges through a
//! [`ConsistencyHw`] and installs
//! hardware protections that deny access to potentially inconsistent data.
//!
//! Several managers are provided in [`crate::managers`], reproducing the
//! systems compared in the paper's Table 5.

use std::fmt;

use crate::cache_control::ConsistencyHw;
use crate::page_state::PhysPageInfo;
use crate::serial::{SerialError, WordReader, WordWriter};
use crate::types::{Access, CpuId, Mapping, PFrame, Prot};

/// Direction of a DMA transfer, named from the device's point of view as in
/// the paper: a *DMA-write* transfers data **into** the memory system (e.g.
/// a disk read), a *DMA-read* transfers data **out of** it (e.g. a disk
/// write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDir {
    /// Device reads the physical page from the memory system.
    Read,
    /// Device writes the physical page into the memory system.
    Write,
}

impl fmt::Display for DmaDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DmaDir::Read => "DMA-read",
            DmaDir::Write => "DMA-write",
        })
    }
}

/// Semantic hints accompanying an access (the paper's two `CacheControl`
/// booleans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessHints {
    /// The access will completely overwrite the page before any read (e.g.
    /// zero-fill or the destination of a page copy), so stale data need not
    /// be purged first.
    pub will_overwrite: bool,
    /// Dirty cached data will be read again, so it must be flushed rather
    /// than purged when cleaned.
    pub need_data: bool,
}

impl Default for AccessHints {
    /// The conservative hints: nothing will be overwritten, dirty data is
    /// needed.
    fn default() -> Self {
        AccessHints {
            will_overwrite: false,
            need_data: true,
        }
    }
}

impl AccessHints {
    /// Hints for an access that overwrites the whole page (page
    /// preparation).
    pub fn overwrites() -> Self {
        AccessHints {
            will_overwrite: true,
            need_data: true,
        }
    }

    /// Hints for an operation after which the old contents are worthless.
    pub fn discards() -> Self {
        AccessHints {
            will_overwrite: false,
            need_data: false,
        }
    }
}

/// Why a cache operation was performed — the causes broken out in the
/// paper's Table 4 and §5.1 discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCause {
    /// A new (or re-protected) mapping required cleaning an old cache page.
    NewMapping,
    /// Write access to an unaligned alias.
    AliasWrite,
    /// Read access to a page with a dirty unaligned copy.
    AliasRead,
    /// Preparing a DMA-read (device reads memory; dirty data flushed).
    DmaRead,
    /// Preparing a DMA-write (device writes memory; cached copies killed).
    DmaWrite,
    /// Copying instructions from data space to instruction space (exec).
    TextCopy,
    /// Eager cleaning when a mapping was removed (configurations without
    /// lazy unmap).
    UnmapEager,
    /// Page returned to the free list.
    PageFree,
}

impl OpCause {
    /// All causes, in reporting order.
    pub const ALL: [OpCause; 8] = [
        OpCause::NewMapping,
        OpCause::AliasWrite,
        OpCause::AliasRead,
        OpCause::DmaRead,
        OpCause::DmaWrite,
        OpCause::TextCopy,
        OpCause::UnmapEager,
        OpCause::PageFree,
    ];

    fn index(self) -> usize {
        match self {
            OpCause::NewMapping => 0,
            OpCause::AliasWrite => 1,
            OpCause::AliasRead => 2,
            OpCause::DmaRead => 3,
            OpCause::DmaWrite => 4,
            OpCause::TextCopy => 5,
            OpCause::UnmapEager => 6,
            OpCause::PageFree => 7,
        }
    }
}

impl fmt::Display for OpCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpCause::NewMapping => "new mapping",
            OpCause::AliasWrite => "alias write",
            OpCause::AliasRead => "alias read",
            OpCause::DmaRead => "DMA-read",
            OpCause::DmaWrite => "DMA-write",
            OpCause::TextCopy => "data->instr copy",
            OpCause::UnmapEager => "eager unmap",
            OpCause::PageFree => "page free",
        })
    }
}

/// Counts of one operation kind broken down by cause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CauseCounts {
    counts: [u64; 8],
}

impl CauseCounts {
    /// Record `n` operations attributed to `cause`.
    pub fn add(&mut self, cause: OpCause, n: u64) {
        self.counts[cause.index()] += n;
    }

    /// Operations attributed to `cause`.
    pub fn get(&self, cause: OpCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Total across all causes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterate (cause, count) pairs with nonzero counts.
    pub fn iter(&self) -> impl Iterator<Item = (OpCause, u64)> + '_ {
        OpCause::ALL
            .into_iter()
            .map(|c| (c, self.get(c)))
            .filter(|&(_, n)| n > 0)
    }

    /// Serialize all eight counters.
    pub fn save_state(&self, w: &mut WordWriter) {
        for &c in &self.counts {
            w.u64(c);
        }
    }

    /// Restore all eight counters.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        for c in &mut self.counts {
            *c = r.u64()?;
        }
        Ok(())
    }
}

/// Cache-management operation statistics kept by every manager.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MgrStats {
    /// Data-cache page flushes, by cause.
    pub d_flush_pages: CauseCounts,
    /// Data-cache page purges, by cause.
    pub d_purge_pages: CauseCounts,
    /// Instruction-cache page purges, by cause.
    pub i_purge_pages: CauseCounts,
}

impl MgrStats {
    /// Total page flushes (data cache; the instruction cache is never
    /// flushed).
    pub fn total_flushes(&self) -> u64 {
        self.d_flush_pages.total()
    }

    /// Total page purges across both caches.
    pub fn total_purges(&self) -> u64 {
        self.d_purge_pages.total() + self.i_purge_pages.total()
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = MgrStats::default();
    }

    /// Serialize all three cause breakdowns.
    pub fn save_state(&self, w: &mut WordWriter) {
        self.d_flush_pages.save_state(w);
        self.d_purge_pages.save_state(w);
        self.i_purge_pages.save_state(w);
    }

    /// Restore all three cause breakdowns.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.d_flush_pages.restore_state(r)?;
        self.d_purge_pages.restore_state(r)?;
        self.i_purge_pages.restore_state(r)
    }
}

/// Qualitative capabilities of a manager — the columns of the paper's
/// Table 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Features {
    /// How the system copes with unaligned aliases.
    pub unaligned_aliases: &'static str,
    /// Does it delay flush/purge past unmap ("lazy unmap")?
    pub lazy_unmap: bool,
    /// Does it select aligning addresses for multiply mapped pages?
    pub aligns_mappings: &'static str,
    /// Does it prepare pages (copy/zero) through aligned addresses?
    pub aligned_prepare: &'static str,
    /// Does it exploit `need_data` (purge instead of flush for dead data)?
    pub need_data: bool,
    /// Does it exploit `will_overwrite` (skip purges of data about to be
    /// overwritten)?
    pub will_overwrite: bool,
    /// What the consistency state is associated with.
    pub state_granularity: &'static str,
}

/// A software cache-consistency manager for a virtually indexed write-back
/// cache.
///
/// All methods take the hardware interface by `&mut dyn` so one manager can
/// drive either the real simulator or a recording double. Implementations
/// must uphold the contract that after any method returns, no installed
/// protection permits an access that could transfer stale data.
///
/// Every dispatch hook carries the acting [`CpuId`]. The machine is
/// single-CPU today (the id is always [`CpuId::BOOT`]), but the per-page
/// bookkeeping generalizes to per-CPU `mapped`/`stale` vectors, and
/// threading the id now keeps the call graph SMP-ready.
///
/// Managers are required to be `Send` so a kernel owning one is a single
/// owned value that can run on any thread (the parallel sweep runner in
/// `vic-bench` depends on this).
pub trait ConsistencyManager: Send {
    /// Short system name (as in Table 5: "CMU", "Utah", ...).
    fn name(&self) -> &'static str;

    /// Qualitative feature description for the Table 5 matrix.
    fn features(&self) -> Features;

    /// A mapping was entered for `frame` with the given logical protection.
    /// The manager must install an effective hardware protection.
    fn on_map(
        &mut self,
        cpu: CpuId,
        hw: &mut dyn ConsistencyHw,
        frame: PFrame,
        m: Mapping,
        logical: Prot,
    );

    /// A mapping was removed. The manager may clean eagerly or record state
    /// for lazy cleaning.
    fn on_unmap(&mut self, cpu: CpuId, hw: &mut dyn ConsistencyHw, frame: PFrame, m: Mapping);

    /// The logical protection of an existing mapping changed.
    fn on_protect(
        &mut self,
        cpu: CpuId,
        hw: &mut dyn ConsistencyHw,
        frame: PFrame,
        m: Mapping,
        logical: Prot,
    );

    /// A CPU access through mapping `m` was denied by the effective
    /// protection (a consistency fault), or is about to be performed for
    /// the first time. The manager must make the access safe and
    /// re-protect.
    fn on_access(
        &mut self,
        cpu: CpuId,
        hw: &mut dyn ConsistencyHw,
        frame: PFrame,
        m: Mapping,
        access: Access,
        hints: AccessHints,
    );

    /// A DMA transfer touching `frame` is about to be scheduled. (DMA is
    /// not CPU-initiated, but the preparing CPU's caches are the ones the
    /// manager cleans, so the dispatching CPU is threaded through.)
    fn on_dma(
        &mut self,
        cpu: CpuId,
        hw: &mut dyn ConsistencyHw,
        frame: PFrame,
        dir: DmaDir,
        hints: AccessHints,
    );

    /// `frame` was returned to the free page list; its contents are no
    /// longer useful.
    fn on_page_freed(&mut self, cpu: CpuId, hw: &mut dyn ConsistencyHw, frame: PFrame);

    /// Serialize the manager's complete mutable state (per-frame
    /// bookkeeping and statistics) into a word stream. Together with
    /// [`ConsistencyManager::restore_state`] this must round-trip exactly:
    /// a restored manager continues bit-identically to the original.
    /// Construction-time configuration (geometry, policy) is *not*
    /// serialized; the restoring side rebuilds the manager from the same
    /// spec first.
    fn save_state(&self, w: &mut WordWriter);

    /// Restore state saved by [`ConsistencyManager::save_state`] into a
    /// freshly constructed manager of the same spec.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or corrupt stream.
    fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError>;

    /// The per-cache-page consistency state the manager tracks for
    /// `frame`, if it tracks any (managers without per-page state — e.g.
    /// the null manager — return `None`). Observability hooks use this to
    /// snapshot-diff the state around each dispatched event; it must be
    /// side-effect free.
    fn observed_page(&self, _frame: PFrame) -> Option<&PhysPageInfo> {
        None
    }

    /// Operation statistics.
    fn stats(&self) -> &MgrStats;

    /// Reset operation statistics (e.g. after warm-up).
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_constructors() {
        let d = AccessHints::default();
        assert!(!d.will_overwrite && d.need_data);
        let o = AccessHints::overwrites();
        assert!(o.will_overwrite && o.need_data);
        let x = AccessHints::discards();
        assert!(!x.will_overwrite && !x.need_data);
    }

    #[test]
    fn cause_counts() {
        let mut c = CauseCounts::default();
        c.add(OpCause::NewMapping, 3);
        c.add(OpCause::DmaRead, 2);
        c.add(OpCause::NewMapping, 1);
        assert_eq!(c.get(OpCause::NewMapping), 4);
        assert_eq!(c.total(), 6);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(OpCause::NewMapping, 4), (OpCause::DmaRead, 2)]);
    }

    #[test]
    fn stats_totals_and_reset() {
        let mut s = MgrStats::default();
        s.d_flush_pages.add(OpCause::DmaRead, 2);
        s.d_purge_pages.add(OpCause::NewMapping, 3);
        s.i_purge_pages.add(OpCause::TextCopy, 1);
        assert_eq!(s.total_flushes(), 2);
        assert_eq!(s.total_purges(), 4);
        s.reset();
        assert_eq!(s.total_flushes() + s.total_purges(), 0);
    }

    #[test]
    fn dma_dir_display() {
        assert_eq!(DmaDir::Read.to_string(), "DMA-read");
        assert_eq!(DmaDir::Write.to_string(), "DMA-write");
    }

    #[test]
    fn cause_display_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in OpCause::ALL {
            assert!(seen.insert(c.to_string()), "duplicate display for {c:?}");
        }
    }
}
