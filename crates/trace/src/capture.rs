//! Capturing algorithm events at the manager dispatch boundary.
//!
//! The consistency manager mutates its per-page Table-3 state and performs
//! hardware operations through [`ConsistencyHw`]. To observe *transitions*
//! (old→new state per cache page) without entangling the algorithm itself
//! with tracing, the dispatcher:
//!
//! 1. snapshots the page's [`PhysPageInfo`] before the call,
//! 2. interposes an [`HwRecorder`] that logs every flush/purge/protection
//!    the manager performs while forwarding it to the real hardware,
//! 3. snapshots again after the call, and
//! 4. feeds both snapshots plus the log to [`emit_transitions`], which
//!    diffs the Table-3 decode per cache page and emits one
//!    [`TraceEvent::Transition`] per state change (plus a
//!    [`TraceEvent::ProtChange`] per protection installed).
//!
//! The recorder is also how failure injection becomes *observable*: a
//! sabotaged manager (see `vic-core`'s `ChaosManager`) still updates its
//! bookkeeping, but the dropped hardware operation never reaches the
//! recorder — the emitted transition then claims a state change with no
//! operation to justify it, which the
//! [`ConsistencyAuditor`](crate::ConsistencyAuditor) flags.

use vic_core::cache_control::ConsistencyHw;
use vic_core::page_state::PhysPageInfo;
use vic_core::types::{CacheGeometry, CacheKind, CachePage, Mapping, PFrame, Prot, VPage};

use crate::event::{MgrOp, TraceEvent};
use crate::tracer::Tracer;

/// The hardware operations one manager dispatch performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HwLog {
    /// Data cache pages flushed.
    pub d_flushed: Vec<CachePage>,
    /// Data cache pages purged.
    pub d_purged: Vec<CachePage>,
    /// Instruction cache pages purged.
    pub i_purged: Vec<CachePage>,
    /// Protections installed, in order.
    pub prots: Vec<(Mapping, Prot)>,
}

impl HwLog {
    /// Was the given cache page flushed (data side only)?
    pub fn flushed(&self, kind: CacheKind, c: CachePage) -> bool {
        kind == CacheKind::Data && self.d_flushed.contains(&c)
    }

    /// Was the given cache page purged on the given side?
    pub fn purged(&self, kind: CacheKind, c: CachePage) -> bool {
        match kind {
            CacheKind::Data => self.d_purged.contains(&c),
            CacheKind::Insn => self.i_purged.contains(&c),
        }
    }
}

/// A [`ConsistencyHw`] interposer: forwards everything to the real
/// hardware while logging it.
pub struct HwRecorder<'a> {
    inner: &'a mut dyn ConsistencyHw,
    /// The operations seen so far.
    pub log: HwLog,
}

impl<'a> HwRecorder<'a> {
    /// Wrap a hardware implementation.
    pub fn new(inner: &'a mut dyn ConsistencyHw) -> Self {
        HwRecorder {
            inner,
            log: HwLog::default(),
        }
    }

    /// Consume the recorder, releasing the inner borrow and keeping the log.
    pub fn into_log(self) -> HwLog {
        self.log
    }
}

impl ConsistencyHw for HwRecorder<'_> {
    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }
    fn flush_data_page(&mut self, c: CachePage, frame: PFrame) {
        self.log.d_flushed.push(c);
        self.inner.flush_data_page(c, frame);
    }
    fn purge_data_page(&mut self, c: CachePage, frame: PFrame) {
        self.log.d_purged.push(c);
        self.inner.purge_data_page(c, frame);
    }
    fn purge_insn_page(&mut self, c: CachePage, frame: PFrame) {
        self.log.i_purged.push(c);
        self.inner.purge_insn_page(c, frame);
    }
    fn set_protection(&mut self, m: Mapping, prot: Prot) {
        self.log.prots.push((m, prot));
        self.inner.set_protection(m, prot);
    }
    fn set_uncached(&mut self, m: Mapping, uncached: bool) {
        self.inner.set_uncached(m, uncached);
    }
}

/// Diff two Table-3 snapshots of one frame and emit a
/// [`TraceEvent::Transition`] for every cache page whose decoded
/// [`LineState`](vic_core::state::LineState) changed, plus a
/// [`TraceEvent::ProtChange`] for every protection the dispatch installed.
#[allow(clippy::too_many_arguments)]
pub fn emit_transitions(
    tracer: &mut Tracer,
    cycle: u64,
    frame: PFrame,
    geom: CacheGeometry,
    op: MgrOp,
    target: Option<VPage>,
    will_overwrite: bool,
    need_data: bool,
    before: &PhysPageInfo,
    after: &PhysPageInfo,
    log: &HwLog,
) {
    if !tracer.is_enabled() {
        return;
    }
    for kind in [CacheKind::Data, CacheKind::Insn] {
        let target_cp = target.map(|v| geom.cache_page(kind, v));
        // Candidate pages: anything tracked before or after, plus the
        // target (which may have been Empty on both sides of the call).
        let mut candidates: Vec<CachePage> = before
            .side(kind)
            .mapped
            .iter()
            .chain(before.side(kind).stale.iter())
            .chain(after.side(kind).mapped.iter())
            .chain(after.side(kind).stale.iter())
            .chain(target_cp)
            .collect();
        candidates.sort_unstable_by_key(|c| c.0);
        candidates.dedup();
        for c in candidates {
            let old = before.cache_page_state(kind, c);
            let new = after.cache_page_state(kind, c);
            if old == new {
                continue;
            }
            tracer.emit(
                cycle,
                TraceEvent::Transition {
                    frame,
                    kind,
                    cache_page: c,
                    old,
                    new,
                    op,
                    target: target_cp == Some(c),
                    flushed: log.flushed(kind, c),
                    purged: log.purged(kind, c),
                    will_overwrite,
                    need_data,
                },
            );
        }
    }
    for &(m, prot) in &log.prots {
        tracer.emit(
            cycle,
            TraceEvent::ProtChange {
                mapping: m,
                frame,
                prot,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use vic_core::cache_control::RecordingHw;
    use vic_core::state::LineState;
    use vic_core::types::SpaceId;

    use crate::sinks::RingBufferSink;
    use crate::tracer::Tracer;

    #[test]
    fn recorder_forwards_and_logs() {
        let geom = CacheGeometry::new(8, 4);
        let mut hw = RecordingHw::new(geom);
        let mut rec = HwRecorder::new(&mut hw);
        rec.flush_data_page(CachePage(1), PFrame(3));
        rec.purge_data_page(CachePage(2), PFrame(3));
        rec.purge_insn_page(CachePage(0), PFrame(3));
        let m = Mapping::new(SpaceId(1), VPage(0));
        rec.set_protection(m, Prot::READ);
        let log = rec.into_log();
        assert!(log.flushed(CacheKind::Data, CachePage(1)));
        assert!(
            !log.flushed(CacheKind::Insn, CachePage(0)),
            "insn never flushes"
        );
        assert!(log.purged(CacheKind::Data, CachePage(2)));
        assert!(log.purged(CacheKind::Insn, CachePage(0)));
        assert!(!log.purged(CacheKind::Data, CachePage(0)));
        assert_eq!(log.prots, vec![(m, Prot::READ)]);
        // ... and the inner hardware saw everything too.
        assert_eq!(hw.flushes, vec![(CachePage(1), PFrame(3))]);
        assert_eq!(hw.purges, vec![(CachePage(2), PFrame(3))]);
        assert_eq!(hw.prot_of(m), Prot::READ);
    }

    #[test]
    fn diff_emits_only_changes() {
        let geom = CacheGeometry::new(8, 4);
        let before = PhysPageInfo::new(geom);
        let mut after = PhysPageInfo::new(geom);
        after.data.mapped.insert(CachePage(0));
        after.cache_dirty = true;

        let ring = Arc::new(Mutex::new(RingBufferSink::new(16)));
        let mut t = Tracer::new(ring.clone());
        emit_transitions(
            &mut t,
            5,
            PFrame(2),
            geom,
            MgrOp::Write,
            Some(VPage(0)),
            false,
            true,
            &before,
            &after,
            &HwLog::default(),
        );
        let ring = ring.lock().unwrap();
        let evs: Vec<_> = ring.events().collect();
        assert_eq!(evs.len(), 1, "one transition, no prot changes");
        match evs[0].1 {
            TraceEvent::Transition {
                old,
                new,
                target,
                cache_page,
                kind,
                ..
            } => {
                assert_eq!(old, LineState::Empty);
                assert_eq!(new, LineState::Dirty);
                assert!(target);
                assert_eq!(cache_page, CachePage(0));
                assert_eq!(kind, CacheKind::Data);
            }
            ref other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(evs[0].0, 5, "cycle stamp preserved");
    }

    #[test]
    fn disabled_tracer_skips_work() {
        let geom = CacheGeometry::new(8, 4);
        let info = PhysPageInfo::new(geom);
        emit_transitions(
            &mut Tracer::off(),
            0,
            PFrame(0),
            geom,
            MgrOp::Map,
            None,
            false,
            true,
            &info,
            &info,
            &HwLog::default(),
        );
    }
}
