//! The machine-dependent VM layer (Mach's *pmap*), gluing the consistency
//! manager to the simulated machine.
//!
//! The pmap owns two things: the per-mapping **logical** protections the
//! machine-independent VM layer asked for, and the consistency manager that
//! decides the **effective** hardware protections. Every mapping operation
//! and every consistency fault flows through here.

use vic_core::cache_control::ConsistencyHw;
use vic_core::fxhash::FxHashMap;
use vic_core::manager::{AccessHints, ConsistencyManager, DmaDir, MgrStats};
use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{Access, CacheGeometry, CachePage, CpuId, Mapping, PFrame, Prot, VPage};
use vic_machine::Machine;
use vic_profile::Seg;
use vic_trace::{emit_transitions, HwRecorder, MgrOp};

use crate::error::OsError;

/// Adapter exposing the simulated machine's cache-management instructions
/// and protection hardware as the
/// [`ConsistencyHw`] trait the
/// managers drive.
pub struct HwAdapter<'a> {
    machine: &'a mut Machine,
}

impl<'a> HwAdapter<'a> {
    /// Wrap a machine.
    pub fn new(machine: &'a mut Machine) -> Self {
        HwAdapter { machine }
    }
}

impl ConsistencyHw for HwAdapter<'_> {
    fn geometry(&self) -> CacheGeometry {
        self.machine.config().geometry()
    }
    fn flush_data_page(&mut self, c: CachePage, frame: PFrame) {
        self.machine.flush_dcache_page(c, frame);
    }
    fn purge_data_page(&mut self, c: CachePage, frame: PFrame) {
        self.machine.purge_dcache_page(c, frame);
    }
    fn purge_insn_page(&mut self, c: CachePage, frame: PFrame) {
        self.machine.purge_icache_page(c, frame);
    }
    fn set_protection(&mut self, m: Mapping, prot: Prot) {
        self.machine.set_protection(m, prot);
    }
    fn set_uncached(&mut self, m: Mapping, uncached: bool) {
        self.machine.set_uncached(m, uncached);
    }
}

/// The machine-dependent mapping layer.
pub struct Pmap {
    mgr: Box<dyn ConsistencyManager>,
    mappings: FxHashMap<Mapping, (PFrame, Prot)>,
}

impl std::fmt::Debug for Pmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pmap")
            .field("manager", &self.mgr.name())
            .field("mappings", &self.mappings.len())
            .finish()
    }
}

impl Pmap {
    /// A pmap driving the given consistency manager.
    pub fn new(mgr: Box<dyn ConsistencyManager>) -> Self {
        Pmap {
            mgr,
            mappings: FxHashMap::default(),
        }
    }

    /// The manager's name (for reports).
    pub fn manager_name(&self) -> &'static str {
        self.mgr.name()
    }

    /// The manager's flush/purge statistics.
    pub fn mgr_stats(&self) -> &MgrStats {
        self.mgr.stats()
    }

    /// Reset the manager's statistics.
    pub fn reset_mgr_stats(&mut self) {
        self.mgr.reset_stats();
    }

    /// The consistency state the manager tracks for `frame`, if any
    /// (side-effect free; `None` for managers without per-page state).
    pub fn observed_page(&self, frame: PFrame) -> Option<&vic_core::page_state::PhysPageInfo> {
        self.mgr.observed_page(frame)
    }

    /// Number of live mappings (debugging / assertions).
    pub fn mapping_count(&self) -> usize {
        self.mappings.len()
    }

    /// Dispatch one manager event, capturing an algorithm-level trace when
    /// the machine's tracer is live: the manager's per-page consistency
    /// state is snapshotted around the call and every cache-page state
    /// transition (with the hardware operations that accompanied it) is
    /// emitted as a [`vic_trace::TraceEvent::Transition`]. With tracing off
    /// this is exactly one virtual call — no snapshots, no allocation.
    fn dispatch(
        &mut self,
        machine: &mut Machine,
        frame: PFrame,
        op: MgrOp,
        target: Option<VPage>,
        hints: AccessHints,
        f: impl FnOnce(&mut dyn ConsistencyManager, &mut dyn ConsistencyHw),
    ) {
        // Every hardware operation the manager performs is attributed to
        // the manager decision that caused it.
        machine.profiler_mut().push(Seg::Mgr(op.name()));
        if !machine.tracer().is_enabled() {
            f(self.mgr.as_mut(), &mut HwAdapter::new(machine));
            machine.profiler_mut().pop();
            return;
        }
        let before = self.mgr.observed_page(frame).cloned();
        let geom = machine.config().geometry();
        let log = {
            let mut adapter = HwAdapter::new(machine);
            let mut rec = HwRecorder::new(&mut adapter);
            f(self.mgr.as_mut(), &mut rec);
            rec.into_log()
        };
        machine.profiler_mut().pop();
        if let (Some(before), Some(after)) = (before, self.mgr.observed_page(frame)) {
            let cycle = machine.cycles();
            emit_transitions(
                machine.tracer_mut(),
                cycle,
                frame,
                geom,
                op,
                target,
                hints.will_overwrite,
                hints.need_data,
                &before,
                after,
                &log,
            );
        }
    }

    /// Enter a mapping with a logical protection. The effective hardware
    /// protection is chosen by the consistency manager and may be weaker;
    /// the first access then faults and is resolved by
    /// [`Pmap::consistency_fault`].
    pub fn enter(
        &mut self,
        cpu: CpuId,
        machine: &mut Machine,
        m: Mapping,
        frame: PFrame,
        logical: Prot,
    ) {
        self.mappings.insert(m, (frame, logical));
        machine.enter_mapping(m, frame, Prot::NONE);
        self.dispatch(
            machine,
            frame,
            MgrOp::Map,
            Some(m.vpage),
            AccessHints::default(),
            |mgr, hw| mgr.on_map(cpu, hw, frame, m, logical),
        );
    }

    /// Remove a mapping (no-op if absent). Returns the frame it mapped.
    pub fn remove(&mut self, cpu: CpuId, machine: &mut Machine, m: Mapping) -> Option<PFrame> {
        let (frame, _) = self.mappings.remove(&m)?;
        self.dispatch(
            machine,
            frame,
            MgrOp::Unmap,
            Some(m.vpage),
            AccessHints::default(),
            |mgr, hw| mgr.on_unmap(cpu, hw, frame, m),
        );
        machine.remove_mapping(m);
        Some(frame)
    }

    /// Change the logical protection of a live mapping.
    pub fn protect(&mut self, cpu: CpuId, machine: &mut Machine, m: Mapping, logical: Prot) {
        if let Some(e) = self.mappings.get_mut(&m) {
            e.1 = logical;
            let frame = e.0;
            self.dispatch(
                machine,
                frame,
                MgrOp::Protect,
                Some(m.vpage),
                AccessHints::default(),
                |mgr, hw| mgr.on_protect(cpu, hw, frame, m, logical),
            );
        }
    }

    /// The frame a mapping names, if it is live.
    pub fn frame_of(&self, m: Mapping) -> Option<PFrame> {
        self.mappings.get(&m).map(|e| e.0)
    }

    /// Resolve a consistency fault (or run the post-mapping-fault access
    /// transition): the logical protection permits the access, but the
    /// consistency state denied it.
    ///
    /// # Errors
    ///
    /// [`OsError::BadAddress`] if the mapping is not live,
    /// [`OsError::ProtectionViolation`] if the logical protection denies
    /// the access (a genuine program error, not a consistency fault).
    pub fn consistency_fault(
        &mut self,
        cpu: CpuId,
        machine: &mut Machine,
        m: Mapping,
        access: Access,
        hints: AccessHints,
    ) -> Result<(), OsError> {
        let Some(&(frame, logical)) = self.mappings.get(&m) else {
            return Err(OsError::BadAddress { mapping: m, access });
        };
        if !logical.allows(access) {
            return Err(OsError::ProtectionViolation { mapping: m, access });
        }
        let op = match access {
            Access::Read => MgrOp::Read,
            Access::Write => MgrOp::Write,
            Access::Execute => MgrOp::Fetch,
        };
        self.dispatch(machine, frame, op, Some(m.vpage), hints, |mgr, hw| {
            mgr.on_access(cpu, hw, frame, m, access, hints)
        });
        Ok(())
    }

    /// Make the memory system consistent before a DMA transfer touching
    /// `frame`.
    pub fn before_dma(
        &mut self,
        cpu: CpuId,
        machine: &mut Machine,
        frame: PFrame,
        dir: DmaDir,
        hints: AccessHints,
    ) {
        let op = match dir {
            DmaDir::Read => MgrOp::DmaRead,
            DmaDir::Write => MgrOp::DmaWrite,
        };
        self.dispatch(machine, frame, op, None, hints, |mgr, hw| {
            mgr.on_dma(cpu, hw, frame, dir, hints)
        });
    }

    /// Note that `frame` returned to the free list.
    pub fn page_freed(&mut self, cpu: CpuId, machine: &mut Machine, frame: PFrame) {
        self.dispatch(
            machine,
            frame,
            MgrOp::PageFreed,
            None,
            AccessHints::default(),
            |mgr, hw| mgr.on_page_freed(cpu, hw, frame),
        );
    }

    /// Serialize the pmap: the manager's state, then the logical-mapping
    /// table. The table is a point-lookup hash map (its iteration order
    /// never decides behaviour), so it is written in sorted order for a
    /// canonical stream.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.tag(PMAP_STATE_TAG);
        self.mgr.save_state(w);
        let mut entries: Vec<_> = self.mappings.iter().collect();
        entries.sort_by_key(|(m, _)| (m.space.0, m.vpage.0));
        w.usize(entries.len());
        for (m, (frame, logical)) in entries {
            w.mapping(*m);
            w.u64(frame.0);
            w.prot(*logical);
        }
    }

    /// Restore state saved by [`Pmap::save_state`] into a pmap built with
    /// the same manager kind and geometry.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        r.expect(PMAP_STATE_TAG)?;
        self.mgr.restore_state(r)?;
        let n = r.usize()?;
        self.mappings.clear();
        for _ in 0..n {
            let m = r.mapping()?;
            let frame = PFrame(r.u64()?);
            let logical = r.prot()?;
            self.mappings.insert(m, (frame, logical));
        }
        Ok(())
    }
}

/// Section tag bracketing the pmap's state in a word stream.
const PMAP_STATE_TAG: u64 = u64::from_le_bytes(*b"pmap---1");

#[cfg(test)]
mod tests {
    use super::*;
    use vic_core::managers::CmuManager;
    use vic_core::policy::PolicyConfig;
    use vic_core::types::{SpaceId, VPage};
    use vic_machine::MachineConfig;

    fn setup() -> (Machine, Pmap) {
        let machine = Machine::new(MachineConfig::small());
        let geom = machine.config().geometry();
        let frames = machine.config().num_frames();
        let mgr = CmuManager::new(frames, geom, PolicyConfig::all_on());
        (machine, Pmap::new(Box::new(mgr)))
    }

    fn m(s: u32, v: u64) -> Mapping {
        Mapping::new(SpaceId(s), VPage(v))
    }

    #[test]
    fn enter_fault_access_cycle() {
        let (mut mach, mut pmap) = setup();
        let mm = m(1, 0);
        pmap.enter(CpuId::BOOT, &mut mach, mm, PFrame(5), Prot::READ_WRITE);
        let va = mach.config().vaddr(VPage(0));
        // First access faults (empty consistency state).
        let err = mach.store(SpaceId(1), va, 7).unwrap_err();
        let fm = err.mapping();
        pmap.consistency_fault(
            CpuId::BOOT,
            &mut mach,
            fm,
            Access::Write,
            AccessHints::default(),
        )
        .unwrap();
        // Retry succeeds.
        mach.store(SpaceId(1), va, 7).unwrap();
        assert_eq!(mach.load(SpaceId(1), va).unwrap(), 7);
        assert_eq!(mach.oracle().violations(), 0);
    }

    #[test]
    fn alias_cycle_is_oracle_clean() {
        let (mut mach, mut pmap) = setup();
        let a = m(1, 0);
        let b = m(2, 1); // unaligned with a
        pmap.enter(CpuId::BOOT, &mut mach, a, PFrame(5), Prot::READ_WRITE);
        pmap.enter(CpuId::BOOT, &mut mach, b, PFrame(5), Prot::READ_WRITE);
        let va_a = mach.config().vaddr(VPage(0));
        let va_b = mach.config().vaddr(VPage(1));
        // Ping-pong writes and reads through both mappings, resolving
        // faults as they come. The oracle must stay clean throughout.
        for i in 0..10u32 {
            let (sp, va, mm) = if i % 2 == 0 {
                (SpaceId(1), va_a, a)
            } else {
                (SpaceId(2), va_b, b)
            };
            loop {
                match mach.store(sp, va, i) {
                    Ok(()) => break,
                    Err(f) => pmap
                        .consistency_fault(
                            CpuId::BOOT,
                            &mut mach,
                            f.mapping(),
                            f.access(),
                            AccessHints::default(),
                        )
                        .unwrap(),
                }
            }
            assert_eq!(mm.space, sp);
            let (sp2, va2) = if i % 2 == 0 {
                (SpaceId(2), va_b)
            } else {
                (SpaceId(1), va_a)
            };
            loop {
                match mach.load(sp2, va2) {
                    Ok(v) => {
                        assert_eq!(v, i);
                        break;
                    }
                    Err(f) => pmap
                        .consistency_fault(
                            CpuId::BOOT,
                            &mut mach,
                            f.mapping(),
                            f.access(),
                            AccessHints::default(),
                        )
                        .unwrap(),
                }
            }
        }
        assert_eq!(mach.oracle().violations(), 0);
    }

    #[test]
    fn logical_violation_is_an_error() {
        let (mut mach, mut pmap) = setup();
        let mm = m(1, 0);
        pmap.enter(CpuId::BOOT, &mut mach, mm, PFrame(5), Prot::READ);
        let err = pmap
            .consistency_fault(
                CpuId::BOOT,
                &mut mach,
                mm,
                Access::Write,
                AccessHints::default(),
            )
            .unwrap_err();
        assert!(matches!(err, OsError::ProtectionViolation { .. }));
        let err = pmap
            .consistency_fault(
                CpuId::BOOT,
                &mut mach,
                m(9, 9),
                Access::Read,
                AccessHints::default(),
            )
            .unwrap_err();
        assert!(matches!(err, OsError::BadAddress { .. }));
    }

    #[test]
    fn remove_returns_frame() {
        let (mut mach, mut pmap) = setup();
        let mm = m(1, 0);
        pmap.enter(CpuId::BOOT, &mut mach, mm, PFrame(5), Prot::READ);
        assert_eq!(pmap.frame_of(mm), Some(PFrame(5)));
        assert_eq!(pmap.remove(CpuId::BOOT, &mut mach, mm), Some(PFrame(5)));
        assert_eq!(pmap.remove(CpuId::BOOT, &mut mach, mm), None);
        assert_eq!(pmap.mapping_count(), 0);
    }

    #[test]
    fn dma_consistency() {
        let (mut mach, mut pmap) = setup();
        let mm = m(1, 0);
        pmap.enter(CpuId::BOOT, &mut mach, mm, PFrame(5), Prot::READ_WRITE);
        let va = mach.config().vaddr(VPage(0));
        loop {
            match mach.store(SpaceId(1), va, 9) {
                Ok(()) => break,
                Err(f) => pmap
                    .consistency_fault(
                        CpuId::BOOT,
                        &mut mach,
                        f.mapping(),
                        f.access(),
                        AccessHints::default(),
                    )
                    .unwrap(),
            }
        }
        // Device reads the frame: pmap flushes first; oracle clean.
        pmap.before_dma(
            CpuId::BOOT,
            &mut mach,
            PFrame(5),
            DmaDir::Read,
            AccessHints::default(),
        );
        let mut buf = vec![0u8; mach.config().page_size as usize];
        mach.dma_read_page(PFrame(5), &mut buf);
        assert_eq!(mach.oracle().violations(), 0);
        assert_eq!(&buf[..4], &9u32.to_le_bytes());
    }
}
