//! The paper's consistency manager: explicit cache-page state driven by the
//! Figure-1 `CacheControl` algorithm.

use crate::cache_control::{cache_control, effective_prot, CcOp, ConsistencyHw};
use crate::manager::{AccessHints, ConsistencyManager, DmaDir, Features, MgrStats, OpCause};
use crate::page_state::PhysPageInfo;
use crate::policy::PolicyConfig;
use crate::serial::{SerialError, WordReader, WordWriter};
use crate::types::{Access, CacheGeometry, CacheKind, CpuId, Mapping, PFrame, Prot};

/// Section tag bracketing serialized CMU manager state.
const CMU_STATE_TAG: u64 = u64::from_le_bytes(*b"cmumgr-1");

/// The CMU (paper) manager: keeps the Table-3 state per physical page and
/// runs `CacheControl` on every consistency event.
///
/// The manager delays flush/purge operations until an inconsistency would
/// be *revealed* — when the memory system would otherwise transfer a stale
/// value to the CPU or a device — rather than when the inconsistency is
/// created. Aligned aliases require no work at all.
#[derive(Debug)]
pub struct CmuManager {
    geom: CacheGeometry,
    policy: PolicyConfig,
    pages: Vec<PhysPageInfo>,
    stats: MgrStats,
}

impl CmuManager {
    /// A manager for a machine with `num_frames` physical pages.
    pub fn new(num_frames: u64, geom: CacheGeometry, policy: PolicyConfig) -> Self {
        CmuManager {
            geom,
            policy,
            pages: (0..num_frames).map(|_| PhysPageInfo::new(geom)).collect(),
            stats: MgrStats::default(),
        }
    }

    /// The policy knobs this manager honours.
    pub fn policy(&self) -> PolicyConfig {
        self.policy
    }

    /// The consistency state recorded for a physical page (for inspection
    /// and tests).
    pub fn page_info(&self, frame: PFrame) -> &PhysPageInfo {
        &self.pages[frame.0 as usize]
    }

    fn info_mut(&mut self, frame: PFrame) -> &mut PhysPageInfo {
        &mut self.pages[frame.0 as usize]
    }

    /// Filter caller hints through the policy knobs: a disabled knob forces
    /// the conservative value.
    fn filter_hints(&self, hints: AccessHints) -> AccessHints {
        AccessHints {
            will_overwrite: hints.will_overwrite && self.policy.will_overwrite,
            need_data: hints.need_data || !self.policy.need_data,
        }
    }

    fn record(
        &mut self,
        out: crate::cache_control::CcOutcome,
        flush_cause: OpCause,
        purge_cause: OpCause,
    ) {
        self.stats
            .d_flush_pages
            .add(flush_cause, u64::from(out.d_flushes));
        self.stats
            .d_purge_pages
            .add(purge_cause, u64::from(out.d_purges));
        self.stats
            .i_purge_pages
            .add(OpCause::TextCopy, u64::from(out.i_purges));
    }
}

impl ConsistencyManager for CmuManager {
    fn name(&self) -> &'static str {
        "CMU"
    }

    fn features(&self) -> Features {
        Features {
            unaligned_aliases: "full, via cache-page state",
            lazy_unmap: self.policy.lazy_unmap,
            aligns_mappings: if self.policy.align_addresses {
                "all multiply mapped pages"
            } else {
                "no"
            },
            aligned_prepare: if self.policy.aligned_prepare {
                "copy and zero-fill"
            } else {
                "no"
            },
            need_data: self.policy.need_data,
            will_overwrite: self.policy.will_overwrite,
            state_granularity: "cache page x physical page",
        }
    }

    fn on_map(
        &mut self,
        _cpu: CpuId,
        hw: &mut dyn ConsistencyHw,
        frame: PFrame,
        m: Mapping,
        logical: Prot,
    ) {
        let geom = self.geom;
        let info = self.info_mut(frame);
        info.add_mapping(m, logical);
        // The frame has a tenant again: its contents may become useful
        // through writes the manager never sees (an aligned mapping of a
        // dirty page is immediately writable), so the freed-page "purge
        // instead of flush" license ends here.
        info.contents_useless = false;
        // Lazy: no cache operation now. The effective protection derived
        // from the current state denies any access that would reveal an
        // inconsistency; the first access faults and runs CacheControl.
        let prot = effective_prot(info, geom, m.vpage, logical);
        hw.set_protection(m, prot);
    }

    fn on_unmap(&mut self, _cpu: CpuId, hw: &mut dyn ConsistencyHw, frame: PFrame, m: Mapping) {
        let geom = self.geom;
        let lazy = self.policy.lazy_unmap;
        let Self { pages, stats, .. } = self;
        let info = &mut pages[frame.0 as usize];
        if !info.remove_mapping(m) {
            hw.set_protection(m, Prot::NONE);
            return;
        }
        hw.set_protection(m, Prot::NONE);
        if !lazy {
            // Eagerly remove the page's data from the cache through the
            // departing address, unless an aligned mapping still shares the
            // cache page.
            let cd = geom.cache_page(CacheKind::Data, m.vpage);
            let ci = geom.cache_page(CacheKind::Insn, m.vpage);
            let d_shared = info
                .mappings
                .iter()
                .any(|e| geom.cache_page(CacheKind::Data, e.mapping.vpage) == cd);
            let i_shared = info
                .mappings
                .iter()
                .any(|e| geom.cache_page(CacheKind::Insn, e.mapping.vpage) == ci);
            if !d_shared && (info.data.mapped.contains(cd) || info.data.stale.contains(cd)) {
                let dirty_here = info.cache_dirty && info.find_mapped_cache_page() == Some(cd);
                if dirty_here {
                    hw.flush_data_page(cd, frame);
                    stats.d_flush_pages.add(OpCause::UnmapEager, 1);
                    info.cache_dirty = false;
                } else {
                    hw.purge_data_page(cd, frame);
                    stats.d_purge_pages.add(OpCause::UnmapEager, 1);
                }
                info.data.mapped.remove(cd);
                info.data.stale.remove(cd);
            }
            if !i_shared && (info.insn.mapped.contains(ci) || info.insn.stale.contains(ci)) {
                hw.purge_insn_page(ci, frame);
                stats.i_purge_pages.add(OpCause::UnmapEager, 1);
                info.insn.mapped.remove(ci);
                info.insn.stale.remove(ci);
            }
        }
    }

    fn on_protect(
        &mut self,
        _cpu: CpuId,
        hw: &mut dyn ConsistencyHw,
        frame: PFrame,
        m: Mapping,
        logical: Prot,
    ) {
        let geom = self.geom;
        let info = self.info_mut(frame);
        info.add_mapping(m, logical);
        let prot = effective_prot(info, geom, m.vpage, logical);
        hw.set_protection(m, prot);
    }

    fn on_access(
        &mut self,
        _cpu: CpuId,
        hw: &mut dyn ConsistencyHw,
        frame: PFrame,
        m: Mapping,
        access: Access,
        hints: AccessHints,
    ) {
        let hints = self.filter_hints(hints);
        let op = match access {
            Access::Read => CcOp::CpuRead,
            Access::Write => CcOp::CpuWrite,
            Access::Execute => CcOp::InsnFetch,
        };
        let geom = self.geom;
        let info = self.info_mut(frame);
        let alias = info.mappings.len() > 1;
        // If the target's staleness came from a DMA-write (device input),
        // a purge here is DMA cost, not new-mapping cost (Table 4's cause
        // breakdown).
        let target_stale_by_dma = info.stale_from_dma
            && info
                .data
                .stale
                .contains(geom.cache_page(CacheKind::Data, m.vpage));
        let out = cache_control(hw, info, frame, op, Some(m.vpage), hints);
        // Attribute the operations: with more than one live mapping the
        // cleaning is alias traffic; otherwise it is left-over state from a
        // previous mapping of the physical page (a "new mapping" cost).
        let (flush_cause, purge_cause) = match access {
            Access::Write if alias => (OpCause::AliasWrite, OpCause::AliasWrite),
            Access::Read if alias => (OpCause::AliasRead, OpCause::AliasRead),
            Access::Execute => (OpCause::TextCopy, OpCause::TextCopy),
            _ if target_stale_by_dma => (OpCause::NewMapping, OpCause::DmaWrite),
            _ => (OpCause::NewMapping, OpCause::NewMapping),
        };
        self.record(out, flush_cause, purge_cause);
    }

    fn on_dma(
        &mut self,
        _cpu: CpuId,
        hw: &mut dyn ConsistencyHw,
        frame: PFrame,
        dir: DmaDir,
        hints: AccessHints,
    ) {
        let hints = self.filter_hints(hints);
        let op = match dir {
            DmaDir::Read => CcOp::DmaRead,
            DmaDir::Write => CcOp::DmaWrite,
        };
        let info = self.info_mut(frame);
        let out = cache_control(hw, info, frame, op, None, hints);
        let cause = match dir {
            DmaDir::Read => OpCause::DmaRead,
            DmaDir::Write => OpCause::DmaWrite,
        };
        self.record(out, cause, cause);
    }

    fn on_page_freed(&mut self, _cpu: CpuId, _hw: &mut dyn ConsistencyHw, frame: PFrame) {
        let need_data_policy = self.policy.need_data;
        let info = self.info_mut(frame);
        debug_assert!(
            info.mappings.is_empty(),
            "page freed while still mapped: {:?}",
            info.mappings
        );
        // Lazy in every configuration that uses this manager: simply record
        // that the contents are dead so a later cleaning may purge instead
        // of flush (the `need_data` optimization).
        if need_data_policy {
            info.contents_useless = true;
        }
    }

    fn observed_page(&self, frame: PFrame) -> Option<&PhysPageInfo> {
        self.pages.get(frame.0 as usize)
    }

    fn stats(&self) -> &MgrStats {
        &self.stats
    }

    fn save_state(&self, w: &mut WordWriter) {
        w.tag(CMU_STATE_TAG);
        w.usize(self.pages.len());
        for p in &self.pages {
            p.save_state(w);
        }
        self.stats.save_state(w);
    }

    fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        r.expect(CMU_STATE_TAG)?;
        let at = r.position();
        if r.usize()? != self.pages.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "frame count",
            });
        }
        for p in &mut self.pages {
            p.restore_state(r)?;
        }
        self.stats.restore_state(r)
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_control::RecordingHw;
    use crate::types::{SpaceId, VPage};

    fn geom() -> CacheGeometry {
        CacheGeometry::new(8, 4)
    }

    fn mk() -> (RecordingHw, CmuManager) {
        (
            RecordingHw::new(geom()),
            CmuManager::new(16, geom(), PolicyConfig::all_on()),
        )
    }

    fn m(s: u32, v: u64) -> Mapping {
        Mapping::new(SpaceId(s), VPage(v))
    }

    #[test]
    fn new_mapping_starts_inaccessible() {
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        // Empty state: the first access must fault so state can be updated.
        assert_eq!(hw.prot_of(m(1, 0)), Prot::NONE);
    }

    #[test]
    fn lazy_unmap_leaves_cache_alone() {
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_unmap(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0));
        assert!(hw.flushes.is_empty() && hw.purges.is_empty());
        // State remembers the dirty cache page for later.
        assert!(mgr.page_info(PFrame(1)).cache_dirty);
    }

    #[test]
    fn eager_unmap_cleans() {
        let mut hw = RecordingHw::new(geom());
        let mut policy = PolicyConfig::all_on();
        policy.lazy_unmap = false;
        let mut mgr = CmuManager::new(16, geom(), policy);
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_unmap(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0));
        assert_eq!(hw.flushes.len(), 1, "dirty page flushed at unmap");
        assert!(!mgr.page_info(PFrame(1)).cache_dirty);
        assert_eq!(mgr.stats().d_flush_pages.get(OpCause::UnmapEager), 1);
    }

    #[test]
    fn aligned_remap_needs_no_cleaning() {
        // Unmap at vp0, remap at vp8 (aligned): the lazy state is simply
        // reused; the first read hits the dirty data in place.
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_unmap(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0));
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(2, 8), Prot::READ_WRITE);
        // Aligned with the dirty cache page: immediately read-write.
        assert_eq!(hw.prot_of(m(2, 8)), Prot::READ_WRITE);
        assert!(hw.flushes.is_empty() && hw.purges.is_empty());
    }

    #[test]
    fn unaligned_remap_cleans_lazily_on_access() {
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_unmap(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0));
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(2, 1), Prot::READ_WRITE);
        assert_eq!(
            hw.prot_of(m(2, 1)),
            Prot::NONE,
            "unaligned: must fault first"
        );
        assert!(hw.flushes.is_empty(), "still nothing done");
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(2, 1),
            Access::Read,
            AccessHints::default(),
        );
        assert_eq!(hw.flushes.len(), 1, "old dirty page flushed on demand");
        assert_eq!(mgr.stats().d_flush_pages.get(OpCause::NewMapping), 1);
    }

    #[test]
    fn freed_page_is_purged_not_flushed() {
        // A freed page's dirty residue is cleaned for its next tenant with
        // a purge, not a flush: the preparation path declares the old data
        // dead (`need_data = false`, as the kernel's zero-fill does).
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_unmap(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0));
        mgr.on_page_freed(CpuId::BOOT, &mut hw, PFrame(1));
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(2, 1), Prot::READ_WRITE);
        let hints = AccessHints {
            will_overwrite: true,
            need_data: false,
        };
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(2, 1),
            Access::Write,
            hints,
        );
        assert!(hw.flushes.is_empty(), "dead dirty data must not be flushed");
        assert_eq!(hw.purges.len(), 1, "dead dirty data purged instead");
    }

    #[test]
    fn remapping_revives_freed_contents() {
        // Regression (found by property testing): after a freed frame is
        // remapped, silent writes through an aligned dirty mapping can give
        // it fresh contents the manager never observes. The "purge instead
        // of flush" license must end at on_map, or a later DMA-read would
        // discard live data.
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_unmap(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0));
        mgr.on_page_freed(CpuId::BOOT, &mut hw, PFrame(1));
        // New tenant at an aligned page: immediately writable, no fault.
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(2, 8), Prot::READ_WRITE);
        assert_eq!(hw.prot_of(m(2, 8)), Prot::READ_WRITE);
        // The device now reads the frame: the (possibly refreshed) dirty
        // data must be FLUSHED, not purged.
        mgr.on_dma(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            DmaDir::Read,
            AccessHints::default(),
        );
        assert_eq!(hw.flushes.len(), 1, "live data must reach memory");
        assert!(hw.purges.is_empty());
    }

    #[test]
    fn will_overwrite_policy_off_is_conservative() {
        let mut hw = RecordingHw::new(geom());
        let mut policy = PolicyConfig::all_on();
        policy.will_overwrite = false;
        policy.need_data = false;
        let mut mgr = CmuManager::new(16, geom(), policy);
        // Make cache page 1 stale for the frame.
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 1), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 1),
            Access::Read,
            AccessHints::default(),
        );
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        hw.clear_log();
        // Even though the caller promises to overwrite, the knob is off:
        // the stale target is purged anyway.
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 1),
            Access::Write,
            AccessHints::overwrites(),
        );
        assert_eq!(hw.purges.len(), 1);
    }

    #[test]
    fn dma_cause_attribution() {
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(2), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(2),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_dma(
            CpuId::BOOT,
            &mut hw,
            PFrame(2),
            DmaDir::Read,
            AccessHints::default(),
        );
        assert_eq!(mgr.stats().d_flush_pages.get(OpCause::DmaRead), 1);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(2),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_dma(
            CpuId::BOOT,
            &mut hw,
            PFrame(2),
            DmaDir::Write,
            AccessHints::default(),
        );
        assert_eq!(mgr.stats().d_purge_pages.get(OpCause::DmaWrite), 1);
    }

    #[test]
    fn double_unmap_is_harmless() {
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ);
        mgr.on_unmap(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0));
        mgr.on_unmap(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0));
        assert_eq!(hw.prot_of(m(1, 0)), Prot::NONE);
    }

    #[test]
    fn reset_stats() {
        let (mut hw, mut mgr) = mk();
        mgr.on_map(CpuId::BOOT, &mut hw, PFrame(1), m(1, 0), Prot::READ_WRITE);
        mgr.on_access(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            m(1, 0),
            Access::Write,
            AccessHints::default(),
        );
        mgr.on_dma(
            CpuId::BOOT,
            &mut hw,
            PFrame(1),
            DmaDir::Read,
            AccessHints::default(),
        );
        assert!(mgr.stats().total_flushes() > 0);
        mgr.reset_stats();
        assert_eq!(mgr.stats().total_flushes(), 0);
    }
}
