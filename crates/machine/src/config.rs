//! Machine geometry: page size, cache sizes, line size, memory size.

use crate::cost::CycleCosts;
use vic_core::types::{CacheGeometry, CacheKind, CachePage, PAddr, PFrame, VAddr, VPage};

/// The data cache's write policy.
///
/// The measured machine (HP 720) is write-back; the paper's §3.3 notes
/// that with a **write-through** cache memory is never stale with respect
/// to the cache, so the model's dirty state collapses into present and the
/// flush operation becomes unnecessary. The simulator supports both so the
/// claim can be exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Stores dirty the cache line; memory is updated at write-back.
    #[default]
    WriteBack,
    /// Stores update memory immediately (no-write-allocate); lines are
    /// never dirty.
    WriteThrough,
}

/// Static configuration of the simulated machine.
///
/// All sizes are powers of two. The default, [`MachineConfig::hp720`],
/// matches the paper's evaluation machine: 4 KB pages, a 256 KB data cache
/// and a 128 KB instruction cache with 32-byte lines, so the data cache
/// holds 64 cache pages and the instruction cache 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Virtual/physical page size in bytes.
    pub page_size: u64,
    /// Data cache capacity in bytes.
    pub dcache_bytes: u64,
    /// Instruction cache capacity in bytes.
    pub icache_bytes: u64,
    /// Cache line size in bytes (both caches).
    pub line_size: u64,
    /// Physical memory size in bytes.
    pub mem_bytes: u64,
    /// Cycle cost model.
    pub costs: CycleCosts,
    /// Clock rate in Hz, used to convert cycles to seconds (the 720 runs at
    /// 50 MHz).
    pub clock_hz: u64,
    /// The data cache's write policy (the 720 is write-back).
    pub write_policy: WritePolicy,
    /// Data cache associativity (ways per set; the 720 is direct mapped).
    pub dcache_assoc: u64,
    /// Instruction cache associativity.
    pub icache_assoc: u64,
    /// TLB capacity in entries (the PA-RISC 720 has 96).
    pub tlb_entries: usize,
    /// Use the host-side fast paths (occupancy-index short-circuits in the
    /// caches, the one-entry translation micro-cache, and the bulk-run
    /// access engine behind `Machine::{load,store,copy}_run`). Simulated
    /// behaviour — outcomes, statistics, cycle accounting, trace events —
    /// is identical either way; only host wall-clock differs. A test knob:
    /// the determinism-lock tests run with it off and assert byte-equal
    /// results.
    pub fast_paths: bool,
}

impl MachineConfig {
    /// The paper's machine: HP 9000 Model 720 (50 MHz PA-RISC, 256 KB
    /// D-cache, 128 KB I-cache, 4 KB pages), with 16 MB of memory.
    pub fn hp720() -> Self {
        MachineConfig {
            page_size: 4096,
            dcache_bytes: 256 * 1024,
            icache_bytes: 128 * 1024,
            line_size: 32,
            mem_bytes: 16 * 1024 * 1024,
            costs: CycleCosts::hp720(),
            clock_hz: 50_000_000,
            write_policy: WritePolicy::WriteBack,
            dcache_assoc: 1,
            icache_assoc: 1,
            tlb_entries: 96,
            fast_paths: true,
        }
    }

    /// A miniature geometry for fast, exhaustive tests: 256-byte pages, a
    /// 1 KB data cache (4 cache pages), a 512-byte instruction cache
    /// (2 cache pages), 16-byte lines, 64 KB of memory.
    pub fn small() -> Self {
        MachineConfig {
            page_size: 256,
            dcache_bytes: 1024,
            icache_bytes: 512,
            line_size: 16,
            mem_bytes: 64 * 1024,
            costs: CycleCosts::hp720(),
            clock_hz: 50_000_000,
            write_policy: WritePolicy::WriteBack,
            dcache_assoc: 1,
            icache_assoc: 1,
            tlb_entries: 96,
            fast_paths: true,
        }
    }

    /// Validate the invariants the simulator relies on.
    ///
    /// # Panics
    ///
    /// Panics when a size is not a power of two, the caches are smaller
    /// than a page, or memory is not a whole number of pages.
    pub fn validate(&self) {
        for (name, v) in [
            ("page_size", self.page_size),
            ("dcache_bytes", self.dcache_bytes),
            ("icache_bytes", self.icache_bytes),
            ("line_size", self.line_size),
            ("mem_bytes", self.mem_bytes),
        ] {
            assert!(
                v.is_power_of_two(),
                "{name} must be a power of two, got {v}"
            );
        }
        assert!(self.line_size >= 4, "lines must hold at least one word");
        assert!(
            self.page_size >= self.line_size,
            "pages must hold whole lines"
        );
        assert!(
            self.dcache_bytes >= self.page_size && self.icache_bytes >= self.page_size,
            "caches must hold at least one page"
        );
        assert!(
            self.mem_bytes >= self.page_size,
            "memory smaller than a page"
        );
        assert!(self.tlb_entries >= 1, "the TLB needs at least one entry");
        for (name, a) in [
            ("dcache_assoc", self.dcache_assoc),
            ("icache_assoc", self.icache_assoc),
        ] {
            assert!(
                a >= 1 && a.is_power_of_two(),
                "{name} must be a nonzero power of two, got {a}"
            );
        }
        assert!(
            self.dcache_bytes >= self.page_size * self.dcache_assoc
                && self.icache_bytes >= self.page_size * self.icache_assoc,
            "each way must hold at least one page"
        );
        assert!(
            self.dcache_bytes / (self.page_size * self.dcache_assoc) <= 64
                && self.icache_bytes / (self.page_size * self.icache_assoc) <= 64,
            "at most 64 cache pages per cache (bit-vector representation)"
        );
    }

    /// Number of physical page frames.
    pub fn num_frames(&self) -> u64 {
        self.mem_bytes / self.page_size
    }

    /// The cache index geometry (cache pages per cache). With
    /// set-associativity the index space shrinks: a cache of capacity `S`
    /// with `a` ways holds `S / (a * page)` cache pages.
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry::new(
            (self.dcache_bytes / (self.page_size * self.dcache_assoc)) as u32,
            (self.icache_bytes / (self.page_size * self.icache_assoc)) as u32,
        )
    }

    /// Lines per page (= lines per cache page).
    pub fn lines_per_page(&self) -> u64 {
        self.page_size / self.line_size
    }

    /// The virtual page containing a virtual address.
    pub fn vpage(&self, va: VAddr) -> VPage {
        VPage(va.0 / self.page_size)
    }

    /// Byte offset of a virtual address within its page.
    pub fn offset(&self, va: VAddr) -> u64 {
        va.0 % self.page_size
    }

    /// First virtual address of a virtual page.
    pub fn vaddr(&self, vp: VPage) -> VAddr {
        VAddr(vp.0 * self.page_size)
    }

    /// The physical address of (frame, offset).
    pub fn paddr(&self, frame: PFrame, offset: u64) -> PAddr {
        debug_assert!(offset < self.page_size);
        PAddr(frame.0 * self.page_size + offset)
    }

    /// The cache page a virtual page maps to in the given cache.
    pub fn cache_page(&self, kind: CacheKind, vp: VPage) -> CachePage {
        self.geometry().cache_page(kind, vp)
    }

    /// Convert a cycle count to seconds at this machine's clock rate.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::hp720()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hp720_geometry() {
        let c = MachineConfig::hp720();
        c.validate();
        assert_eq!(c.geometry().pages(CacheKind::Data), 64);
        assert_eq!(c.geometry().pages(CacheKind::Insn), 32);
        assert_eq!(c.num_frames(), 4096);
        assert_eq!(c.lines_per_page(), 128);
    }

    #[test]
    fn small_geometry() {
        let c = MachineConfig::small();
        c.validate();
        assert_eq!(c.geometry().pages(CacheKind::Data), 4);
        assert_eq!(c.geometry().pages(CacheKind::Insn), 2);
        assert_eq!(c.num_frames(), 256);
    }

    #[test]
    fn address_arithmetic() {
        let c = MachineConfig::small();
        assert_eq!(c.vpage(VAddr(0x1ff)), VPage(1));
        assert_eq!(c.offset(VAddr(0x1ff)), 0xff);
        assert_eq!(c.vaddr(VPage(3)), VAddr(768));
        assert_eq!(c.paddr(PFrame(2), 4), PAddr(516));
    }

    #[test]
    fn cycles_to_seconds() {
        let c = MachineConfig::hp720();
        assert!((c.cycles_to_seconds(50_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_odd_sizes() {
        let mut c = MachineConfig::small();
        c.page_size = 300;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 64 cache pages")]
    fn validate_rejects_oversized_cache() {
        let mut c = MachineConfig::small();
        c.dcache_bytes = 256 * c.page_size;
        c.validate();
    }
}
