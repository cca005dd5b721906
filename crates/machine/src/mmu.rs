//! Address translation: per-space page tables and a software-filled TLB.
//!
//! Translation happens in parallel with cache lookup on the real machine;
//! here it is modelled as: TLB hit (free) or TLB miss (a software-walk cost)
//! followed by the protection check. Changing a mapping or its protection
//! invalidates the corresponding TLB entry, as the consistency algorithm
//! requires ("other structures, however, such as TLB and page table entries,
//! must be invalidated to deny access to the data in the memory system").

use vic_core::fxhash::FxHashMap;
use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{Mapping, PFrame, Prot, SpaceId, VPage};

/// Section tag bracketing the MMU's state in a word stream.
const MMU_STATE_TAG: u64 = u64::from_le_bytes(*b"mmu----1");

/// A page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The physical frame.
    pub frame: PFrame,
    /// The *effective* hardware protection (already capped by the
    /// consistency manager).
    pub prot: Prot,
    /// Accesses bypass the caches (Sun-style alias handling).
    pub uncached: bool,
}

/// Per-space page tables plus the TLB.
#[derive(Debug, Clone)]
pub struct Mmu {
    tables: FxHashMap<SpaceId, FxHashMap<VPage, Pte>>,
    /// TLB: a bounded map with FIFO replacement. Translation consults this
    /// on every simulated access, so it hashes with the cheap deterministic
    /// [`vic_core::fxhash`] hasher rather than `std`'s SipHash.
    tlb: FxHashMap<Mapping, Pte>,
    tlb_fifo: std::collections::VecDeque<Mapping>,
    tlb_capacity: usize,
}

/// Result of a translation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// Found in the TLB.
    TlbHit(Pte),
    /// Found by walking the page tables (TLB miss cost applies).
    TlbMiss(Pte),
    /// No mapping exists.
    Unmapped,
}

impl Mmu {
    /// An MMU with the given TLB capacity (the PA-RISC 720 has 96 entries).
    pub fn new(tlb_capacity: usize) -> Self {
        Mmu {
            tables: FxHashMap::default(),
            tlb: FxHashMap::default(),
            tlb_fifo: std::collections::VecDeque::new(),
            tlb_capacity,
        }
    }

    /// Translate a (space, virtual page) pair.
    pub fn translate(&mut self, m: Mapping) -> Translation {
        if let Some(&pte) = self.tlb.get(&m) {
            return Translation::TlbHit(pte);
        }
        match self.lookup(m) {
            Some(pte) => {
                self.tlb_insert(m, pte);
                Translation::TlbMiss(pte)
            }
            None => Translation::Unmapped,
        }
    }

    /// Look up the page tables without touching the TLB.
    pub fn lookup(&self, m: Mapping) -> Option<Pte> {
        self.tables.get(&m.space)?.get(&m.vpage).copied()
    }

    fn tlb_insert(&mut self, m: Mapping, pte: Pte) {
        if self.tlb.len() >= self.tlb_capacity {
            if let Some(victim) = self.tlb_fifo.pop_front() {
                self.tlb.remove(&victim);
            }
        }
        if self.tlb.insert(m, pte).is_none() {
            self.tlb_fifo.push_back(m);
        }
    }

    /// Enter (or replace) a mapping.
    pub fn enter(&mut self, m: Mapping, pte: Pte) {
        self.tables.entry(m.space).or_default().insert(m.vpage, pte);
        self.tlb_invalidate(m);
    }

    /// Change the effective protection of an existing mapping; no-op if the
    /// mapping does not exist.
    pub fn protect(&mut self, m: Mapping, prot: Prot) {
        if let Some(pte) = self
            .tables
            .get_mut(&m.space)
            .and_then(|t| t.get_mut(&m.vpage))
        {
            pte.prot = prot;
        }
        self.tlb_invalidate(m);
    }

    /// Mark a mapping uncached/cached; no-op if it does not exist.
    pub fn set_uncached(&mut self, m: Mapping, uncached: bool) {
        if let Some(pte) = self
            .tables
            .get_mut(&m.space)
            .and_then(|t| t.get_mut(&m.vpage))
        {
            pte.uncached = uncached;
        }
        self.tlb_invalidate(m);
    }

    /// Remove a mapping; returns the old entry if it existed.
    pub fn remove(&mut self, m: Mapping) -> Option<Pte> {
        let old = self.tables.get_mut(&m.space)?.remove(&m.vpage);
        self.tlb_invalidate(m);
        old
    }

    /// Drop every mapping of an address space (task termination).
    pub fn remove_space(&mut self, space: SpaceId) -> Vec<(VPage, Pte)> {
        let Some(table) = self.tables.remove(&space) else {
            return Vec::new();
        };
        let entries: Vec<_> = table.into_iter().collect();
        for (vp, _) in &entries {
            self.tlb_invalidate(Mapping::new(space, *vp));
        }
        entries
    }

    /// Invalidate one TLB entry.
    pub fn tlb_invalidate(&mut self, m: Mapping) {
        if self.tlb.remove(&m).is_some() {
            self.tlb_fifo.retain(|e| *e != m);
        }
    }

    /// TLB entries currently resident (live inspection; never exceeds
    /// [`Mmu::tlb_capacity`]).
    pub fn tlb_resident(&self) -> usize {
        self.tlb.len()
    }

    /// The TLB's hardware capacity.
    pub fn tlb_capacity(&self) -> usize {
        self.tlb_capacity
    }

    /// All mappings of a space (ordered by page), for teardown iteration.
    pub fn mappings_of(&self, space: SpaceId) -> Vec<(VPage, Pte)> {
        let mut v: Vec<_> = self
            .tables
            .get(&space)
            .map(|t| t.iter().map(|(vp, pte)| (*vp, *pte)).collect())
            .unwrap_or_default();
        v.sort_by_key(|(vp, _)| vp.0);
        v
    }

    /// Serialize the page tables and TLB. Tables are hash maps consulted
    /// by point lookup, so their iteration order carries no behaviour —
    /// they are written in sorted order for a canonical stream. The TLB's
    /// FIFO order *is* behaviour (it decides the next eviction victim) and
    /// is written exactly.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.tag(MMU_STATE_TAG);
        let mut spaces: Vec<_> = self.tables.iter().collect();
        spaces.sort_by_key(|(s, _)| s.0);
        w.usize(spaces.len());
        for (space, table) in spaces {
            w.u32(space.0);
            let mut entries: Vec<_> = table.iter().collect();
            entries.sort_by_key(|(vp, _)| vp.0);
            w.usize(entries.len());
            for (vp, pte) in entries {
                w.u64(vp.0);
                save_pte(w, pte);
            }
        }
        w.usize(self.tlb_fifo.len());
        for m in &self.tlb_fifo {
            w.mapping(*m);
            save_pte(w, &self.tlb[m]);
        }
    }

    /// Restore state saved by [`Mmu::save_state`] into an MMU with the
    /// same TLB capacity, in front of a memory of `frames` frames. A
    /// translation to a frame past that memory is [`SerialError::Corrupt`].
    pub fn restore_state(&mut self, r: &mut WordReader, frames: u64) -> Result<(), SerialError> {
        r.expect(MMU_STATE_TAG)?;
        self.tables.clear();
        self.tlb.clear();
        self.tlb_fifo.clear();
        let num_spaces = r.usize()?;
        for _ in 0..num_spaces {
            let space = SpaceId(r.u32()?);
            let n = r.usize()?;
            let table: &mut FxHashMap<VPage, Pte> = self.tables.entry(space).or_default();
            for _ in 0..n {
                let vp = VPage(r.u64()?);
                table.insert(vp, restore_pte(r, frames)?);
            }
        }
        let at = r.position();
        let resident = r.usize()?;
        if resident > self.tlb_capacity {
            return Err(SerialError::Corrupt {
                at,
                what: "tlb residency",
            });
        }
        for _ in 0..resident {
            let m = r.mapping()?;
            let pte = restore_pte(r, frames)?;
            self.tlb.insert(m, pte);
            self.tlb_fifo.push_back(m);
        }
        Ok(())
    }
}

fn save_pte(w: &mut WordWriter, pte: &Pte) {
    w.u64(pte.frame.0);
    w.prot(pte.prot);
    w.bool(pte.uncached);
}

fn restore_pte(r: &mut WordReader, frames: u64) -> Result<Pte, SerialError> {
    Ok(Pte {
        frame: r.frame(frames)?,
        prot: r.prot()?,
        uncached: r.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(s: u32, v: u64) -> Mapping {
        Mapping::new(SpaceId(s), VPage(v))
    }

    fn pte(f: u64, prot: Prot) -> Pte {
        Pte {
            frame: PFrame(f),
            prot,
            uncached: false,
        }
    }

    #[test]
    fn translate_miss_then_hit() {
        let mut mmu = Mmu::new(8);
        mmu.enter(m(1, 0), pte(3, Prot::READ));
        assert_eq!(
            mmu.translate(m(1, 0)),
            Translation::TlbMiss(pte(3, Prot::READ))
        );
        assert_eq!(
            mmu.translate(m(1, 0)),
            Translation::TlbHit(pte(3, Prot::READ))
        );
        assert_eq!(mmu.translate(m(1, 1)), Translation::Unmapped);
    }

    #[test]
    fn protect_invalidates_tlb() {
        let mut mmu = Mmu::new(8);
        mmu.enter(m(1, 0), pte(3, Prot::READ_WRITE));
        let _ = mmu.translate(m(1, 0));
        mmu.protect(m(1, 0), Prot::NONE);
        // The stale RW entry must not be served from the TLB.
        assert_eq!(
            mmu.translate(m(1, 0)),
            Translation::TlbMiss(pte(3, Prot::NONE))
        );
    }

    #[test]
    fn fifo_replacement() {
        let mut mmu = Mmu::new(2);
        for v in 0..3 {
            mmu.enter(m(1, v), pte(v, Prot::READ));
            let _ = mmu.translate(m(1, v));
        }
        // Entry 0 was evicted; 1 and 2 remain.
        assert!(matches!(mmu.translate(m(1, 0)), Translation::TlbMiss(_)));
    }

    #[test]
    fn spaces_are_distinct() {
        let mut mmu = Mmu::new(8);
        mmu.enter(m(1, 0), pte(3, Prot::READ));
        mmu.enter(m(2, 0), pte(4, Prot::READ_WRITE));
        assert_eq!(mmu.lookup(m(1, 0)).unwrap().frame, PFrame(3));
        assert_eq!(mmu.lookup(m(2, 0)).unwrap().frame, PFrame(4));
    }

    #[test]
    fn remove_space_returns_entries() {
        let mut mmu = Mmu::new(8);
        mmu.enter(m(1, 0), pte(3, Prot::READ));
        mmu.enter(m(1, 7), pte(4, Prot::READ));
        let gone = mmu.remove_space(SpaceId(1));
        assert_eq!(gone.len(), 2);
        assert_eq!(mmu.translate(m(1, 0)), Translation::Unmapped);
    }

    #[test]
    fn set_uncached() {
        let mut mmu = Mmu::new(8);
        mmu.enter(m(1, 0), pte(3, Prot::READ_WRITE));
        mmu.set_uncached(m(1, 0), true);
        assert!(mmu.lookup(m(1, 0)).unwrap().uncached);
        mmu.set_uncached(m(1, 0), false);
        assert!(!mmu.lookup(m(1, 0)).unwrap().uncached);
    }

    #[test]
    fn mappings_of_sorted() {
        let mut mmu = Mmu::new(8);
        mmu.enter(m(1, 9), pte(1, Prot::READ));
        mmu.enter(m(1, 2), pte(2, Prot::READ));
        let ms = mmu.mappings_of(SpaceId(1));
        assert_eq!(ms[0].0, VPage(2));
        assert_eq!(ms[1].0, VPage(9));
    }
}
