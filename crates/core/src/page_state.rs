//! Per-physical-page consistency bookkeeping (the paper's Table 3).
//!
//! The implementation keeps consistency state on a *cache page* rather than
//! a cache-line basis (paper §4): all cache lines within a cache page share
//! one state, which reduces the state from
//! `O(lines × virtual addresses)` to `O(cache pages × physical pages)` and
//! lets standard virtual-memory hardware implement the transitions.
//!
//! For each physical page `p` the system keeps (paper's `P[p]`):
//!
//! * `mapped` — a bit vector over cache pages: which cache pages may contain
//!   data from `p`;
//! * `stale` — which cache pages may contain *stale* data from `p`;
//! * `cache_dirty` — whether `p` may be dirty within some cache page (that
//!   page is the one whose `mapped` bit is set);
//! * `mappings` — the virtual mappings currently naming `p`.
//!
//! The state of cache page `c` with respect to `p` is encoded as
//! (Table 3):
//!
//! | state   | `mapped[c]` | `stale[c]` | `cache_dirty` |
//! |---------|-------------|------------|----------------|
//! | Empty   | false       | false      | —              |
//! | Present | true        | false      | false          |
//! | Dirty   | true        | false      | true           |
//! | Stale   | false       | true       | —              |
//!
//! Because the HP 9000/700 has split instruction and data caches with no
//! hardware consistency between them, state is kept for both caches
//! ([`CacheSideState`] per [`CacheKind`]); only the data cache can be dirty.

use crate::serial::{SerialError, WordReader, WordWriter};
use crate::state::LineState;
use crate::types::{CacheGeometry, CacheKind, CachePage, Mapping, Prot, VPage};

/// A set of cache pages, stored as a bit vector (the paper's
/// `P[p].mapped` / `P[p].stale` vectors).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CachePageSet {
    bits: u64,
    len: u32,
}

impl CachePageSet {
    /// An empty set over `len` cache pages.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`; the simulated caches hold at most 64 page-sized
    /// slots (the real 720's 256 KB data cache with 4 KB pages has exactly
    /// 64).
    pub fn new(len: u32) -> Self {
        assert!(len <= 64, "at most 64 cache pages supported");
        CachePageSet { bits: 0, len }
    }

    /// Number of cache pages the set ranges over.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Test a bit.
    pub fn contains(&self, c: CachePage) -> bool {
        debug_assert!(c.0 < self.len);
        self.bits & (1u64 << c.0) != 0
    }

    /// Set a bit.
    pub fn insert(&mut self, c: CachePage) {
        debug_assert!(c.0 < self.len);
        self.bits |= 1u64 << c.0;
    }

    /// Clear a bit.
    pub fn remove(&mut self, c: CachePage) {
        debug_assert!(c.0 < self.len);
        self.bits &= !(1u64 << c.0);
    }

    /// Clear every bit (the paper's `bitwise_clear`).
    pub fn clear(&mut self) {
        self.bits = 0;
    }

    /// Or another set into this one (the paper's `bitwise_or`).
    pub fn union_with(&mut self, other: &CachePageSet) {
        debug_assert_eq!(self.len, other.len);
        self.bits |= other.bits;
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// The single set bit, if exactly one is set.
    pub fn sole_member(&self) -> Option<CachePage> {
        if self.count() == 1 {
            Some(CachePage(self.bits.trailing_zeros()))
        } else {
            None
        }
    }

    /// Serialize into a word stream (bits then length).
    pub fn save_state(&self, w: &mut WordWriter) {
        w.u64(self.bits);
        w.u32(self.len);
    }

    /// Restore from a word stream written by [`CachePageSet::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or if the stream encodes bits past the length.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        let at = r.position();
        let bits = r.u64()?;
        let len = r.u32()?;
        if len > 64 || (len < 64 && bits >> len != 0) {
            return Err(SerialError::Corrupt {
                at,
                what: "cache page set",
            });
        }
        self.bits = bits;
        self.len = len;
        Ok(())
    }

    /// Iterate over the set cache pages in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CachePage> + '_ {
        let bits = self.bits;
        (0..self.len).filter_map(move |i| {
            if bits & (1u64 << i) != 0 {
                Some(CachePage(i))
            } else {
                None
            }
        })
    }
}

impl FromIterator<CachePage> for CachePageSet {
    /// Collect cache pages into a 64-slot set (the maximum geometry).
    fn from_iter<I: IntoIterator<Item = CachePage>>(iter: I) -> Self {
        let mut s = CachePageSet::new(64);
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Consistency state of one physical page with respect to one cache
/// (`mapped` and `stale` vectors of Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSideState {
    /// Cache pages that may contain (fresh) data from the physical page.
    pub mapped: CachePageSet,
    /// Cache pages that may contain stale data from the physical page.
    pub stale: CachePageSet,
}

impl CacheSideState {
    /// Empty state over `pages` cache pages.
    pub fn new(pages: u32) -> Self {
        CacheSideState {
            mapped: CachePageSet::new(pages),
            stale: CachePageSet::new(pages),
        }
    }

    /// Mark every mapped page stale and clear the mapped set — the paper's
    /// fourth stanza ("DMA input operations and write operations force all
    /// mapped and stale cache pages to stale, and all mapped pages to
    /// unmapped").
    pub fn all_mapped_to_stale(&mut self) {
        self.stale.union_with(&self.mapped);
        self.mapped.clear();
    }

    /// Serialize both bit vectors.
    pub fn save_state(&self, w: &mut WordWriter) {
        self.mapped.save_state(w);
        self.stale.save_state(w);
    }

    /// Restore both bit vectors.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or corrupt stream.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.mapped.restore_state(r)?;
        self.stale.restore_state(r)
    }
}

/// One entry in a physical page's mapping list: the mapping plus the
/// *logical* protection the VM system granted it. The effective hardware
/// protection is the intersection of the logical protection with what the
/// consistency state permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingEntry {
    /// The virtual mapping.
    pub mapping: Mapping,
    /// The protection the VM system logically granted.
    pub logical: Prot,
}

/// Everything the consistency algorithm keeps per physical page — the
/// paper's `P[p]` structure, extended to the split I/D caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysPageInfo {
    /// Data-cache side (`mapped`, `stale`).
    pub data: CacheSideState,
    /// Instruction-cache side (`mapped`, `stale`; never dirty).
    pub insn: CacheSideState,
    /// `P[p].cache_dirty`: the page may be dirty in the (sole) mapped data
    /// cache page.
    pub cache_dirty: bool,
    /// `P[p].mappings`: virtual mappings currently naming this page.
    pub mappings: Vec<MappingEntry>,
    /// Set when the page is returned to the free list: its contents are no
    /// longer useful, so dirty data may be *purged* instead of flushed (the
    /// paper's `need_data = false` optimization).
    pub contents_useless: bool,
    /// The current stale bits were caused by a DMA-write (device input);
    /// used only to attribute later purges to their cause in the Table 4
    /// breakdown.
    pub stale_from_dma: bool,
}

impl PhysPageInfo {
    /// A fresh page description (everything empty).
    pub fn new(geom: CacheGeometry) -> Self {
        PhysPageInfo {
            data: CacheSideState::new(geom.pages(CacheKind::Data)),
            insn: CacheSideState::new(geom.pages(CacheKind::Insn)),
            cache_dirty: false,
            mappings: Vec::new(),
            contents_useless: false,
            stale_from_dma: false,
        }
    }

    /// The state for one cache kind.
    pub fn side(&self, kind: CacheKind) -> &CacheSideState {
        match kind {
            CacheKind::Data => &self.data,
            CacheKind::Insn => &self.insn,
        }
    }

    /// Decode the Table 3 encoding: the consistency state of cache page `c`
    /// (of cache `kind`) with respect to this physical page.
    pub fn cache_page_state(&self, kind: CacheKind, c: CachePage) -> LineState {
        let side = self.side(kind);
        if side.stale.contains(c) {
            LineState::Stale
        } else if !side.mapped.contains(c) {
            LineState::Empty
        } else if kind == CacheKind::Data && self.cache_dirty {
            LineState::Dirty
        } else {
            LineState::Present
        }
    }

    /// The paper's `find_mapped_cache_page`: the data cache page that may
    /// hold the dirty copy. Meaningful only while `cache_dirty` is set, in
    /// which case the invariant guarantees exactly one mapped data page.
    pub fn find_mapped_cache_page(&self) -> Option<CachePage> {
        self.data.mapped.sole_member()
    }

    /// Add a mapping to the list (no-op if already present).
    pub fn add_mapping(&mut self, mapping: Mapping, logical: Prot) {
        if let Some(e) = self.mappings.iter_mut().find(|e| e.mapping == mapping) {
            e.logical = logical;
        } else {
            self.mappings.push(MappingEntry { mapping, logical });
        }
    }

    /// Remove a mapping from the list; returns true if it was present.
    pub fn remove_mapping(&mut self, mapping: Mapping) -> bool {
        let before = self.mappings.len();
        self.mappings.retain(|e| e.mapping != mapping);
        self.mappings.len() != before
    }

    /// The logical protection recorded for a mapping, if it exists.
    pub fn logical_prot(&self, mapping: Mapping) -> Option<Prot> {
        self.mappings
            .iter()
            .find(|e| e.mapping == mapping)
            .map(|e| e.logical)
    }

    /// Are there any virtual pages mapping this physical page that do not
    /// align with `vpage` in the given cache?
    pub fn has_unaligned_alias(&self, geom: CacheGeometry, kind: CacheKind, vpage: VPage) -> bool {
        let c = geom.cache_page(kind, vpage);
        self.mappings
            .iter()
            .any(|e| geom.cache_page(kind, e.mapping.vpage) != c)
    }

    /// Serialize the full per-page state, including the mapping list in its
    /// exact order (the order is determinism-bearing: managers iterate it).
    pub fn save_state(&self, w: &mut WordWriter) {
        self.data.save_state(w);
        self.insn.save_state(w);
        w.bool(self.cache_dirty);
        w.usize(self.mappings.len());
        for e in &self.mappings {
            w.mapping(e.mapping);
            w.prot(e.logical);
        }
        w.bool(self.contents_useless);
        w.bool(self.stale_from_dma);
    }

    /// Restore state saved by [`PhysPageInfo::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on a truncated or corrupt stream.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.data.restore_state(r)?;
        self.insn.restore_state(r)?;
        self.cache_dirty = r.bool()?;
        let n = r.usize()?;
        self.mappings.clear();
        for _ in 0..n {
            let mapping = r.mapping()?;
            let logical = r.prot()?;
            self.mappings.push(MappingEntry { mapping, logical });
        }
        self.contents_useless = r.bool()?;
        self.stale_from_dma = r.bool()?;
        Ok(())
    }

    /// Model invariant (paper §3.2): the page is dirty in at most one cache
    /// page, and while dirty no other cache page is present (in either
    /// cache). Violations indicate a bug in a manager.
    pub fn check_invariant(&self) -> Result<(), String> {
        if self.cache_dirty {
            if self.data.mapped.count() != 1 {
                return Err(format!(
                    "cache_dirty with {} mapped data pages (must be exactly 1)",
                    self.data.mapped.count()
                ));
            }
            if !self.insn.mapped.is_empty() {
                return Err(
                    "cache_dirty while instruction cache pages are mapped (fetch could miss to stale memory)"
                        .to_string(),
                );
            }
        }
        for side in [&self.data, &self.insn] {
            if side.mapped.iter().any(|c| side.stale.contains(c)) {
                return Err("a cache page is both mapped and stale".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SpaceId;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(8, 4)
    }

    #[test]
    fn set_basics() {
        let mut s = CachePageSet::new(8);
        assert!(s.is_empty());
        s.insert(CachePage(3));
        s.insert(CachePage(5));
        assert!(s.contains(CachePage(3)));
        assert!(!s.contains(CachePage(4)));
        assert_eq!(s.count(), 2);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![CachePage(3), CachePage(5)]
        );
        s.remove(CachePage(3));
        assert_eq!(s.sole_member(), Some(CachePage(5)));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.sole_member(), None);
    }

    #[test]
    fn set_union() {
        let mut a = CachePageSet::new(8);
        a.insert(CachePage(1));
        let mut b = CachePageSet::new(8);
        b.insert(CachePage(2));
        a.union_with(&b);
        assert!(a.contains(CachePage(1)) && a.contains(CachePage(2)));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn set_rejects_oversize() {
        let _ = CachePageSet::new(65);
    }

    #[test]
    fn table3_encoding_exhaustive() {
        // Walk every (mapped, stale, dirty) combination and check the
        // decoded state matches Table 3.
        let c = CachePage(2);
        for mapped in [false, true] {
            for stale in [false, true] {
                for dirty in [false, true] {
                    if mapped && stale {
                        continue; // excluded by the invariant
                    }
                    let mut info = PhysPageInfo::new(geom());
                    if mapped {
                        info.data.mapped.insert(c);
                    }
                    if stale {
                        info.data.stale.insert(c);
                    }
                    info.cache_dirty = dirty;
                    let st = info.cache_page_state(CacheKind::Data, c);
                    let expect = match (mapped, stale) {
                        (false, false) => LineState::Empty,
                        (false, true) => LineState::Stale,
                        (true, false) => {
                            if dirty {
                                LineState::Dirty
                            } else {
                                LineState::Present
                            }
                        }
                        (true, true) => unreachable!(),
                    };
                    assert_eq!(st, expect, "mapped={mapped} stale={stale} dirty={dirty}");
                }
            }
        }
    }

    #[test]
    fn insn_side_never_dirty() {
        let mut info = PhysPageInfo::new(geom());
        info.insn.mapped.insert(CachePage(1));
        info.cache_dirty = true; // refers to the data cache only
        assert_eq!(
            info.cache_page_state(CacheKind::Insn, CachePage(1)),
            LineState::Present
        );
    }

    #[test]
    fn all_mapped_to_stale() {
        let mut side = CacheSideState::new(8);
        side.mapped.insert(CachePage(0));
        side.mapped.insert(CachePage(4));
        side.stale.insert(CachePage(2));
        side.all_mapped_to_stale();
        assert!(side.mapped.is_empty());
        for c in [0, 2, 4] {
            assert!(side.stale.contains(CachePage(c)));
        }
    }

    #[test]
    fn mapping_list() {
        let mut info = PhysPageInfo::new(geom());
        let m1 = Mapping::new(SpaceId(1), VPage(0));
        let m2 = Mapping::new(SpaceId(1), VPage(8));
        info.add_mapping(m1, Prot::READ_WRITE);
        info.add_mapping(m2, Prot::READ);
        info.add_mapping(m1, Prot::READ); // update, not duplicate
        assert_eq!(info.mappings.len(), 2);
        assert_eq!(info.logical_prot(m1), Some(Prot::READ));
        assert!(info.remove_mapping(m1));
        assert!(!info.remove_mapping(m1));
        assert_eq!(info.logical_prot(m1), None);
    }

    #[test]
    fn unaligned_alias_detection() {
        let g = geom();
        let mut info = PhysPageInfo::new(g);
        info.add_mapping(Mapping::new(SpaceId(1), VPage(0)), Prot::READ_WRITE);
        // VPage 8 aligns with VPage 0 in an 8-page data cache.
        assert!(!info.has_unaligned_alias(g, CacheKind::Data, VPage(8)));
        assert!(info.has_unaligned_alias(g, CacheKind::Data, VPage(9)));
    }

    #[test]
    fn invariant_detects_violations() {
        let mut info = PhysPageInfo::new(geom());
        info.cache_dirty = true;
        assert!(info.check_invariant().is_err(), "dirty with 0 mapped");
        info.data.mapped.insert(CachePage(0));
        assert!(info.check_invariant().is_ok());
        info.data.mapped.insert(CachePage(1));
        assert!(info.check_invariant().is_err(), "dirty with 2 mapped");

        let mut info = PhysPageInfo::new(geom());
        info.data.mapped.insert(CachePage(0));
        info.data.stale.insert(CachePage(0));
        assert!(info.check_invariant().is_err(), "mapped and stale");

        let mut info = PhysPageInfo::new(geom());
        info.cache_dirty = true;
        info.data.mapped.insert(CachePage(0));
        info.insn.mapped.insert(CachePage(0));
        assert!(info.check_invariant().is_err(), "dirty with insn mapped");
    }

    #[test]
    fn find_mapped_cache_page() {
        let mut info = PhysPageInfo::new(geom());
        assert_eq!(info.find_mapped_cache_page(), None);
        info.data.mapped.insert(CachePage(6));
        assert_eq!(info.find_mapped_cache_page(), Some(CachePage(6)));
    }

    #[test]
    fn collect_cache_pages() {
        let s: CachePageSet = [CachePage(0), CachePage(63)].into_iter().collect();
        assert!(s.contains(CachePage(63)));
        assert_eq!(s.len(), 64);
    }
}
