//! Physical frame accounting: the free page list and per-frame reference
//! counts.
//!
//! The paper notes (§5.1) that ~80 % of all page purges stem from new
//! mappings "when a virtual address is assigned to a random physical page
//! from the kernel's free page list", and suggests that "some of these
//! purges could be eliminated by reducing the associativity of virtual to
//! physical mappings through the use of **multiple free page lists**".
//! [`FrameTable`] implements both disciplines:
//!
//! * a single LIFO list (`colors = 1`) — the measured system;
//! * **colored free lists** (`colors = n`): frames are binned by the cache
//!   page their residue last lived in, and allocation prefers a frame whose
//!   residue aligns with the new mapping, making the left-over state
//!   directly reusable (no purge, no flush). This is the paper's proposed
//!   optimization, reproduced as an ablation.

use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::PFrame;

use crate::error::OsError;

/// The free page list(s) plus reference counts for shared frames.
#[derive(Debug, Clone)]
pub struct FrameTable {
    /// Free lists, one per color (LIFO within a color).
    free: Vec<Vec<PFrame>>,
    colors: u32,
    refs: Vec<u32>,
}

impl FrameTable {
    /// A table over `num_frames` frames with a single free list, all free
    /// except the first `reserved` (held back for the kernel image, never
    /// allocated).
    pub fn new(num_frames: u64, reserved: u64) -> Self {
        Self::with_colors(num_frames, reserved, 1)
    }

    /// A table with `colors` free lists (the multiple-free-page-list
    /// optimization). Fresh frames are distributed round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `colors` is zero.
    pub fn with_colors(num_frames: u64, reserved: u64, colors: u32) -> Self {
        assert!(colors > 0, "at least one free list");
        let mut free: Vec<Vec<PFrame>> = (0..colors).map(|_| Vec::new()).collect();
        for f in reserved..num_frames {
            free[(f % u64::from(colors)) as usize].push(PFrame(f));
        }
        FrameTable {
            free,
            colors,
            refs: vec![0; num_frames as usize],
        }
    }

    /// Number of free lists.
    pub fn colors(&self) -> u32 {
        self.colors
    }

    /// Number of currently free frames (across all colors).
    pub fn free_count(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    fn bucket(&self, color: u32) -> usize {
        (color % self.colors) as usize
    }

    /// Allocate a frame with an initial reference count of 1.
    ///
    /// With colored lists, `preferred` names the cache-page color of the
    /// mapping the frame will live under: a frame whose residue has the
    /// same color is returned if available (its left-over cache state
    /// aligns and needs no cleaning), otherwise the longest other list is
    /// raided.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::OutOfMemory`] when every list is empty.
    pub fn allocate(&mut self, preferred: Option<u32>) -> Result<PFrame, OsError> {
        let start = self.bucket(preferred.unwrap_or(0));
        let f = if let Some(f) = self.free[start].pop() {
            f
        } else {
            // Preferred list empty: take from the longest list so colors
            // stay balanced.
            let richest = (0..self.free.len())
                .max_by_key(|i| self.free[*i].len())
                .expect("at least one list");
            self.free[richest].pop().ok_or(OsError::OutOfMemory)?
        };
        debug_assert_eq!(self.refs[f.0 as usize], 0, "frame on free list had refs");
        self.refs[f.0 as usize] = 1;
        Ok(f)
    }

    /// Add a reference to an allocated frame (shared mappings).
    pub fn add_ref(&mut self, f: PFrame) {
        let r = &mut self.refs[f.0 as usize];
        assert!(*r > 0, "add_ref on unallocated frame {f}");
        *r += 1;
    }

    /// Current reference count.
    pub fn refs(&self, f: PFrame) -> u32 {
        self.refs[f.0 as usize]
    }

    /// Serialize the free lists and reference counts. Free-list order *is*
    /// behaviour (LIFO reuse decides which frame the next allocation
    /// returns), so every list is written exactly.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.usize(self.free.len());
        for list in &self.free {
            w.usize(list.len());
            for f in list {
                w.u64(f.0);
            }
        }
        w.usize(self.refs.len());
        for r in &self.refs {
            w.u32(*r);
        }
    }

    /// Restore state saved by [`FrameTable::save_state`] into a table with
    /// the same color and frame counts. A free frame past the table is
    /// [`SerialError::Corrupt`].
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        let frames = self.refs.len() as u64;
        let at = r.position();
        let colors = r.usize()?;
        if colors != self.free.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "free list color count",
            });
        }
        for list in &mut self.free {
            list.clear();
            let n = r.usize()?;
            for _ in 0..n {
                list.push(r.frame(frames)?);
            }
        }
        let at = r.position();
        let nframes = r.usize()?;
        if nframes != self.refs.len() {
            return Err(SerialError::Corrupt {
                at,
                what: "frame count",
            });
        }
        for slot in &mut self.refs {
            *slot = r.u32()?;
        }
        Ok(())
    }

    /// Drop a reference; `color` is the cache-page color of the mapping the
    /// frame last lived under (its residue's color). Returns true when the
    /// frame became free (the caller must then notify the consistency
    /// manager via `on_page_freed`).
    pub fn release(&mut self, f: PFrame, color: Option<u32>) -> bool {
        let r = &mut self.refs[f.0 as usize];
        assert!(*r > 0, "release of unallocated frame {f}");
        *r -= 1;
        if *r == 0 {
            let b = self.bucket(color.unwrap_or(0));
            self.free[b].push(f);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_reuse_single_list() {
        let mut t = FrameTable::new(8, 2);
        assert_eq!(t.free_count(), 6);
        assert_eq!(t.colors(), 1);
        let a = t.allocate(None).unwrap();
        assert_eq!(a, PFrame(7), "top of the list first");
        assert!(t.release(a, None));
        let b = t.allocate(None).unwrap();
        assert_eq!(b, a, "LIFO: the same frame comes right back");
    }

    #[test]
    fn refcounting() {
        let mut t = FrameTable::new(4, 0);
        let f = t.allocate(None).unwrap();
        assert_eq!(t.refs(f), 1);
        t.add_ref(f);
        assert_eq!(t.refs(f), 2);
        assert!(!t.release(f, None), "still referenced");
        assert!(t.release(f, None), "now free");
        assert_eq!(t.refs(f), 0);
    }

    #[test]
    fn exhaustion() {
        let mut t = FrameTable::new(2, 0);
        let _a = t.allocate(None).unwrap();
        let _b = t.allocate(None).unwrap();
        assert_eq!(t.allocate(None), Err(OsError::OutOfMemory));
    }

    #[test]
    #[should_panic(expected = "release of unallocated")]
    fn double_free_panics() {
        let mut t = FrameTable::new(2, 0);
        let f = t.allocate(None).unwrap();
        t.release(f, None);
        t.release(f, None);
    }

    #[test]
    fn colored_allocation_prefers_matching_residue() {
        let mut t = FrameTable::with_colors(64, 0, 4);
        // Allocate a frame, release it under color 3.
        let f = t.allocate(Some(3)).unwrap();
        t.release(f, Some(3));
        // Asking for color 3 gets it back; the residue aligns.
        assert_eq!(t.allocate(Some(3)).unwrap(), f);
    }

    #[test]
    fn colored_allocation_raids_other_lists_when_empty() {
        let mut t = FrameTable::with_colors(4, 0, 4);
        // Drain color 1's single frame.
        let f1 = t.allocate(Some(1)).unwrap();
        // Color 1 is empty; allocation still succeeds from another list.
        let f2 = t.allocate(Some(1)).unwrap();
        assert_ne!(f1, f2);
        assert_eq!(t.free_count(), 2);
    }

    #[test]
    fn color_wraps_modulo() {
        let mut t = FrameTable::with_colors(8, 0, 4);
        let f = t.allocate(Some(7)).unwrap(); // bucket 3
        t.release(f, Some(7));
        assert_eq!(t.allocate(Some(3)).unwrap(), f, "7 mod 4 == 3");
    }
}
