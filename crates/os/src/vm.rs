//! The machine-independent VM layer: per-task address maps and virtual
//! address selection.
//!
//! Address selection is where the paper's configuration C ("+align pages")
//! lives: when the kernel is free to choose the virtual address for a
//! multiply mapped or transferred page, choosing one that *aligns* in the
//! cache with the page's previous (or peer) address makes all consistency
//! operations unnecessary.

use std::collections::BTreeMap;

use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{PFrame, Prot, SpaceId, VPage};

use crate::bufcache::BlockId;
use crate::error::OsError;
use crate::fs::FileId;

/// What backs a VM entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Anonymous memory, zero-filled on first touch.
    Anon,
    /// A mapping of a frame shared with other tasks.
    Shared,
    /// Program text (read/execute), copied from the named file page into a
    /// private frame on the first instruction fault.
    Text {
        /// The file holding the text.
        file: FileId,
        /// The page index within the file.
        page: u64,
    },
    /// A page moved in by IPC.
    Ipc,
    /// A read-only mapping of a file page, sharing the buffer cache's
    /// frame (mmap-style).
    FileMap {
        /// The mapped file.
        file: FileId,
        /// The page index within the file.
        page: u64,
    },
    /// A page shared with the Unix server (request/reply channel).
    ServerChannel,
}

impl EntryKind {
    /// The page class, as used in cost-attribution paths and reports.
    pub fn class(&self) -> &'static str {
        match self {
            EntryKind::Anon => "anon",
            EntryKind::Shared => "shared",
            EntryKind::Text { .. } => "text",
            EntryKind::Ipc => "ipc",
            EntryKind::FileMap { .. } => "filemap",
            EntryKind::ServerChannel => "channel",
        }
    }
}

/// One page-sized entry in a task's address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmEntry {
    /// The backing frame, if already materialized (`None` for untouched
    /// zero-fill pages).
    pub frame: Option<PFrame>,
    /// The logical protection.
    pub prot: Prot,
    /// What backs the entry.
    pub kind: EntryKind,
    /// Copy-on-write: the frame is shared; the first write must copy it
    /// (the hardware mapping is capped to read-only until then).
    pub cow: bool,
    /// The swap block holding the page's contents while it is paged out
    /// (`frame` is then `None`).
    pub swap: Option<BlockId>,
}

impl VmEntry {
    /// A lazily materialized zero-fill entry.
    pub fn anon(prot: Prot) -> Self {
        VmEntry {
            frame: None,
            prot,
            kind: EntryKind::Anon,
            cow: false,
            swap: None,
        }
    }

    /// An entry over an existing frame.
    pub fn over(frame: PFrame, prot: Prot, kind: EntryKind) -> Self {
        VmEntry {
            frame: Some(frame),
            prot,
            kind,
            cow: false,
            swap: None,
        }
    }

    /// The protection the hardware layer may grant right now (copy-on-write
    /// caps writes until the copy fault).
    pub fn hw_prot(&self) -> Prot {
        if self.cow {
            self.prot.without(vic_core::types::Access::Write)
        } else {
            self.prot
        }
    }

    /// Serialize one entry.
    pub fn save_state(&self, w: &mut WordWriter) {
        match self.frame {
            Some(f) => {
                w.bool(true);
                w.u64(f.0);
            }
            None => w.bool(false),
        }
        w.prot(self.prot);
        match self.kind {
            EntryKind::Anon => w.u64(0),
            EntryKind::Shared => w.u64(1),
            EntryKind::Text { file, page } => {
                w.u64(2);
                w.u32(file.0);
                w.u64(page);
            }
            EntryKind::Ipc => w.u64(3),
            EntryKind::FileMap { file, page } => {
                w.u64(4);
                w.u32(file.0);
                w.u64(page);
            }
            EntryKind::ServerChannel => w.u64(5),
        }
        w.bool(self.cow);
        match self.swap {
            Some(b) => {
                w.bool(true);
                w.u32(b.0);
            }
            None => w.bool(false),
        }
    }

    /// Restore one entry saved by [`VmEntry::save_state`], resident in
    /// one of `frames` physical frames if it is resident at all.
    pub fn restore_state(r: &mut WordReader, frames: u64) -> Result<Self, SerialError> {
        let frame = if r.bool()? {
            Some(r.frame(frames)?)
        } else {
            None
        };
        let prot = r.prot()?;
        let at = r.position();
        let kind = match r.u64()? {
            0 => EntryKind::Anon,
            1 => EntryKind::Shared,
            2 => EntryKind::Text {
                file: FileId(r.u32()?),
                page: r.u64()?,
            },
            3 => EntryKind::Ipc,
            4 => EntryKind::FileMap {
                file: FileId(r.u32()?),
                page: r.u64()?,
            },
            5 => EntryKind::ServerChannel,
            _ => {
                return Err(SerialError::Corrupt {
                    at,
                    what: "vm entry kind",
                })
            }
        };
        let cow = r.bool()?;
        let swap = if r.bool()? {
            Some(BlockId(r.u32()?))
        } else {
            None
        };
        Ok(VmEntry {
            frame,
            prot,
            kind,
            cow,
            swap,
        })
    }
}

/// How to choose a virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrSelect {
    /// First free range from the bottom of the user region (the original
    /// Mach strategy; reuses freed addresses quickly but rarely aligns
    /// with a *peer* mapping in another space).
    FirstFit,
    /// First free page that aligns in the cache with the given virtual
    /// page (same cache page in both caches).
    AlignedWith(VPage),
    /// First free page that does **not** align with the given virtual page
    /// (used by experiments that need a guaranteed unaligned alias).
    UnalignedWith(VPage),
    /// Exactly this page (fails if busy).
    Exact(VPage),
}

/// First user virtual page (lower pages are reserved to catch null
/// dereferences and for the kernel image window in space 0).
pub const USER_BASE: u64 = 16;

/// A task: an address space and its map.
#[derive(Debug, Clone)]
pub struct Task {
    /// The hardware address-space identifier.
    pub space: SpaceId,
    entries: BTreeMap<VPage, VmEntry>,
    /// Alignment modulus: virtual pages equal modulo this value align in
    /// both caches (max of the two cache-page counts).
    align_mod: u64,
}

impl Task {
    /// A fresh task with an empty map.
    pub fn new(space: SpaceId, align_mod: u64) -> Self {
        assert!(align_mod.is_power_of_two());
        Task {
            space,
            entries: BTreeMap::new(),
            align_mod,
        }
    }

    /// Number of live entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Look up the entry covering a virtual page.
    pub fn entry(&self, vp: VPage) -> Option<&VmEntry> {
        self.entries.get(&vp)
    }

    /// Mutable entry lookup.
    pub fn entry_mut(&mut self, vp: VPage) -> Option<&mut VmEntry> {
        self.entries.get_mut(&vp)
    }

    /// Iterate (page, entry) pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (VPage, &VmEntry)> {
        self.entries.iter().map(|(vp, e)| (*vp, e))
    }

    fn range_free(&self, start: u64, npages: u64) -> bool {
        (start..start + npages).all(|p| !self.entries.contains_key(&VPage(p)))
    }

    /// Choose a free range of `npages` according to `select` and reserve it
    /// with `entry`. Returns the first page.
    ///
    /// # Errors
    ///
    /// [`OsError::AddressInUse`] for a busy [`AddrSelect::Exact`] request;
    /// exhaustion of the virtual space is a panic (it is effectively
    /// unbounded).
    pub fn allocate(
        &mut self,
        npages: u64,
        select: AddrSelect,
        entry: VmEntry,
    ) -> Result<VPage, OsError> {
        let start = match select {
            AddrSelect::Exact(vp) => {
                if !self.range_free(vp.0, npages) {
                    return Err(OsError::AddressInUse(vp));
                }
                vp.0
            }
            AddrSelect::FirstFit => {
                // True first fit from the bottom of the user region:
                // freed ranges are reused immediately. Address reuse is
                // load-bearing for the lazy-unmap configurations — a page
                // remapped at its previous (or an aligned) address needs no
                // cache management.
                let mut p = USER_BASE;
                while !self.range_free(p, npages) {
                    p += 1;
                }
                p
            }
            AddrSelect::AlignedWith(peer) => {
                // First range at/after the user base whose start is
                // congruent to the peer modulo the alignment modulus (a
                // contiguous range then aligns page-for-page).
                let want = peer.0 % self.align_mod;
                let mut p = USER_BASE
                    + (want + self.align_mod - USER_BASE % self.align_mod) % self.align_mod;
                while !self.range_free(p, npages) {
                    p += self.align_mod;
                }
                p
            }
            AddrSelect::UnalignedWith(peer) => {
                debug_assert_eq!(npages, 1, "unaligned selection is per page");
                if self.align_mod == 1 {
                    // Degenerate (physically-indexed-like) geometry: every
                    // page aligns, so an unaligned address does not exist.
                    // Fall back to first fit — alignment is harmless.
                    let mut p = USER_BASE;
                    while !self.range_free(p, npages) {
                        p += 1;
                    }
                    p
                } else {
                    let avoid = peer.0 % self.align_mod;
                    let mut p = USER_BASE;
                    while p % self.align_mod == avoid || !self.range_free(p, npages) {
                        p += 1;
                    }
                    p
                }
            }
        };
        for p in start..start + npages {
            self.entries.insert(VPage(p), entry);
        }
        Ok(VPage(start))
    }

    /// Remove an entry, returning it.
    pub fn remove(&mut self, vp: VPage) -> Option<VmEntry> {
        self.entries.remove(&vp)
    }

    /// Serialize the address space id and the map. The map is a `BTreeMap`,
    /// so its natural iteration order is already canonical.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.u32(self.space.0);
        w.usize(self.entries.len());
        for (vp, e) in &self.entries {
            w.u64(vp.0);
            e.save_state(w);
        }
    }

    /// Restore state saved by [`Task::save_state`], replacing this task's
    /// space and map (the alignment modulus is configuration and is kept).
    /// Resident pages must lie in one of `frames` physical frames.
    pub fn restore_state(&mut self, r: &mut WordReader, frames: u64) -> Result<(), SerialError> {
        self.space = SpaceId(r.u32()?);
        let n = r.usize()?;
        self.entries.clear();
        for _ in 0..n {
            let vp = VPage(r.u64()?);
            self.entries.insert(vp, VmEntry::restore_state(r, frames)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anon() -> VmEntry {
        VmEntry::anon(Prot::READ_WRITE)
    }

    fn task() -> Task {
        Task::new(SpaceId(1), 4)
    }

    #[test]
    fn first_fit_is_contiguous() {
        let mut t = task();
        let a = t.allocate(3, AddrSelect::FirstFit, anon()).unwrap();
        let b = t.allocate(2, AddrSelect::FirstFit, anon()).unwrap();
        assert_eq!(a, VPage(USER_BASE));
        assert_eq!(b, VPage(USER_BASE + 3));
        assert_eq!(t.entry_count(), 5);
    }

    #[test]
    fn aligned_selection_matches_peer() {
        let mut t = task();
        // Occupy a few pages first so the cursor moves.
        t.allocate(5, AddrSelect::FirstFit, anon()).unwrap();
        let got = t
            .allocate(1, AddrSelect::AlignedWith(VPage(2)), anon())
            .unwrap();
        assert_eq!(got.0 % 4, 2, "aligned with peer modulo 4");
        assert!(t.entry(got).is_some());
    }

    #[test]
    fn aligned_selection_skips_busy_slots() {
        let mut t = task();
        let first = t
            .allocate(1, AddrSelect::AlignedWith(VPage(1)), anon())
            .unwrap();
        let second = t
            .allocate(1, AddrSelect::AlignedWith(VPage(1)), anon())
            .unwrap();
        assert_ne!(first, second);
        assert_eq!(second.0 % 4, 1);
    }

    #[test]
    fn exact_selection() {
        let mut t = task();
        let vp = t
            .allocate(1, AddrSelect::Exact(VPage(100)), anon())
            .unwrap();
        assert_eq!(vp, VPage(100));
        let err = t.allocate(1, AddrSelect::Exact(VPage(100)), anon());
        assert!(matches!(err, Err(OsError::AddressInUse(_))));
    }

    #[test]
    fn remove_and_reuse() {
        let mut t = task();
        let vp = t.allocate(1, AddrSelect::FirstFit, anon()).unwrap();
        assert!(t.remove(vp).is_some());
        assert!(t.remove(vp).is_none());
        assert_eq!(t.entry(vp), None);
    }

    #[test]
    fn unaligned_selection_degenerates_gracefully() {
        // Regression: with a single cache page (align_mod 1) no unaligned
        // address exists; the request must fall back instead of spinning.
        let mut t = Task::new(SpaceId(1), 1);
        let vp = t
            .allocate(1, AddrSelect::UnalignedWith(VPage(0)), anon())
            .unwrap();
        assert_eq!(vp, VPage(USER_BASE));
    }

    #[test]
    fn entry_mutation() {
        let mut t = task();
        let vp = t.allocate(1, AddrSelect::FirstFit, anon()).unwrap();
        t.entry_mut(vp).unwrap().frame = Some(PFrame(9));
        assert_eq!(t.entry(vp).unwrap().frame, Some(PFrame(9)));
    }
}
