//! Kernel-level counters: the bookkeeping columns of the paper's Table 4.

use vic_core::serial::{SerialError, WordReader, WordWriter};

/// Operating-system event counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Mapping faults: first touch of a virtual page by an address space.
    /// These occur regardless of the cache architecture (Mach evaluates
    /// page-table entries lazily).
    pub mapping_faults: u64,
    /// Consistency faults: references requiring a cache consistency state
    /// transition that could not be inferred from a mapping fault. Pure
    /// overhead of the virtually indexed cache.
    pub consistency_faults: u64,
    /// Pages prepared by zero-fill.
    pub zero_fills: u64,
    /// Pages prepared by copy.
    pub page_copies: u64,
    /// Pages moved between address spaces by IPC.
    pub ipc_transfers: u64,
    /// Copy-on-write faults taken (first write to a shared page).
    pub cow_faults: u64,
    /// Copy-on-write page copies actually performed (the other owner(s)
    /// still held the frame).
    pub cow_copies: u64,
    /// Pages copied from data space into instruction space (text loading).
    pub d2i_copies: u64,
    /// File-system page reads served (buffer cache hits and misses).
    pub fs_reads: u64,
    /// File-system page writes absorbed by the buffer cache.
    pub fs_writes: u64,
    /// Buffer-cache misses that required a disk DMA transfer.
    pub buf_misses: u64,
    /// Dirty buffers written back to disk (write-behind).
    pub buf_writebacks: u64,
    /// Tasks created.
    pub tasks_created: u64,
    /// Pages allocated from the free list.
    pub pages_allocated: u64,
    /// Pages returned to the free list.
    pub pages_freed: u64,
    /// Anonymous pages written to swap under memory pressure.
    pub page_outs: u64,
    /// Swapped pages brought back on fault.
    pub page_ins: u64,
}

impl OsStats {
    /// Reset all counters.
    pub fn reset(&mut self) {
        *self = OsStats::default();
    }

    /// Serialize every counter in declaration order.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.u64(self.mapping_faults);
        w.u64(self.consistency_faults);
        w.u64(self.zero_fills);
        w.u64(self.page_copies);
        w.u64(self.ipc_transfers);
        w.u64(self.cow_faults);
        w.u64(self.cow_copies);
        w.u64(self.d2i_copies);
        w.u64(self.fs_reads);
        w.u64(self.fs_writes);
        w.u64(self.buf_misses);
        w.u64(self.buf_writebacks);
        w.u64(self.tasks_created);
        w.u64(self.pages_allocated);
        w.u64(self.pages_freed);
        w.u64(self.page_outs);
        w.u64(self.page_ins);
    }

    /// Restore counters saved by [`OsStats::save_state`].
    ///
    /// # Errors
    ///
    /// [`SerialError::Truncated`] if the stream ends early.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.mapping_faults = r.u64()?;
        self.consistency_faults = r.u64()?;
        self.zero_fills = r.u64()?;
        self.page_copies = r.u64()?;
        self.ipc_transfers = r.u64()?;
        self.cow_faults = r.u64()?;
        self.cow_copies = r.u64()?;
        self.d2i_copies = r.u64()?;
        self.fs_reads = r.u64()?;
        self.fs_writes = r.u64()?;
        self.buf_misses = r.u64()?;
        self.buf_writebacks = r.u64()?;
        self.tasks_created = r.u64()?;
        self.pages_allocated = r.u64()?;
        self.pages_freed = r.u64()?;
        self.page_outs = r.u64()?;
        self.page_ins = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset() {
        let mut a = OsStats {
            mapping_faults: 2,
            consistency_faults: 1,
            ..OsStats::default()
        };
        a.reset();
        assert_eq!(a, OsStats::default());
    }
}
