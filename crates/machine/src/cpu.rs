//! The per-CPU half of the machine: caches, MMU, the translation
//! micro-cache, the cycle account and hardware event counters.
//!
//! The paper's machine is a uniprocessor, but the state split matters
//! anyway: everything in [`Cpu`] is private to one processor (its caches
//! can go inconsistent independently of any other's), while
//! [`SharedState`](crate::shared::SharedState) is the system-wide half a
//! second CPU or a DMA device would observe. Keeping the halves as
//! distinct types makes the boundary a compile-time fact — nothing
//! outside `vic-machine` can reach across it.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::mmu::{Mmu, Pte};
use crate::stats::MachineStats;
use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{CacheKind, Mapping};

/// Section tag bracketing the per-CPU state in a word stream.
const CPU_STATE_TAG: u64 = u64::from_le_bytes(*b"cpu----1");

/// One processor's private hardware state.
#[derive(Debug)]
pub struct Cpu {
    /// The data cache (write-back or write-through per the config).
    pub(crate) dcache: Cache,
    /// The instruction cache.
    pub(crate) icache: Cache,
    /// Address translation: page tables plus the software-filled TLB.
    pub(crate) mmu: Mmu,
    /// One-entry translation micro-cache fronting the MMU: the most recent
    /// successful translation. Correct because that mapping is always still
    /// in the TLB (FIFO eviction only happens while *another* mapping
    /// misses, which replaces this entry too), so a micro-hit is exactly a
    /// `TlbHit` — free, no statistic, no event. Invalidated by every
    /// mapping mutator. Disabled when `cfg.fast_paths` is off.
    pub(crate) xlate_cache: Option<(Mapping, Pte)>,
    /// Cycles elapsed (the 720's on-chip cycle counter).
    pub(crate) cycles: u64,
    /// Hardware event counters.
    pub(crate) stats: MachineStats,
}

impl Cpu {
    /// Power-up state for the given configuration: all cache lines
    /// invalid, TLB empty, counters at zero.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let mut dcache = Cache::with_associativity(
            CacheKind::Data,
            cfg.dcache_bytes,
            cfg.line_size,
            cfg.page_size,
            cfg.dcache_assoc,
        );
        let mut icache = Cache::with_associativity(
            CacheKind::Insn,
            cfg.icache_bytes,
            cfg.line_size,
            cfg.page_size,
            cfg.icache_assoc,
        );
        dcache.set_fast_paths(cfg.fast_paths);
        icache.set_fast_paths(cfg.fast_paths);
        Cpu {
            dcache,
            icache,
            mmu: Mmu::new(cfg.tlb_entries),
            xlate_cache: None,
            cycles: 0,
            stats: MachineStats::default(),
        }
    }

    /// Serialize the per-CPU state. The translation micro-cache is derived
    /// state (always a subset of the TLB) and is not written.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.tag(CPU_STATE_TAG);
        w.u64(self.cycles);
        self.stats.save_state(w);
        self.dcache.save_state(w);
        self.icache.save_state(w);
        self.mmu.save_state(w);
    }

    /// Restore state saved by [`Cpu::save_state`] into a CPU built with
    /// the identical configuration. The translation micro-cache is
    /// cleared; the next access repopulates it through a free TLB hit, so
    /// clearing is observationally identical to having kept it.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        r.expect(CPU_STATE_TAG)?;
        self.cycles = r.u64()?;
        self.stats.restore_state(r)?;
        self.dcache.restore_state(r)?;
        self.icache.restore_state(r)?;
        self.mmu.restore_state(r)?;
        self.xlate_cache = None;
        Ok(())
    }
}
