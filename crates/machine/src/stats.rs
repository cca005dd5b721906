//! Hardware event counters and per-operation cycle accounting.

use std::fmt;

use vic_core::serial::{SerialError, WordReader, WordWriter};

/// A count of operations with the cycles they consumed; gives the "average
/// cycles" columns of the paper's Table 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Number of operations.
    pub count: u64,
    /// Total cycles spent in them.
    pub cycles: u64,
}

impl OpStat {
    /// Record one operation costing `cycles`.
    pub fn record(&mut self, cycles: u64) {
        self.count += 1;
        self.cycles += cycles;
    }

    /// Average cycles per operation (0 if none occurred).
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.cycles as f64 / self.count as f64
        }
    }

    /// Serialize both counters.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.u64(self.count);
        w.u64(self.cycles);
    }

    /// Restore counters saved by [`OpStat::save_state`].
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.count = r.u64()?;
        self.cycles = r.u64()?;
        Ok(())
    }
}

impl fmt::Display for OpStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops / {} cycles (avg {:.0})",
            self.count,
            self.cycles,
            self.avg()
        )
    }
}

/// Counters maintained by the simulated machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// CPU loads performed.
    pub loads: u64,
    /// CPU stores performed.
    pub stores: u64,
    /// Instruction fetches performed.
    pub ifetches: u64,
    /// Data cache hits.
    pub d_hits: u64,
    /// Data cache misses.
    pub d_misses: u64,
    /// Instruction cache hits.
    pub i_hits: u64,
    /// Instruction cache misses.
    pub i_misses: u64,
    /// Dirty lines written back at eviction (not by flushes).
    pub writebacks: u64,
    /// Accesses that bypassed the caches (uncached mappings).
    pub uncached: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Data-cache page flushes.
    pub d_flush_pages: OpStat,
    /// Data-cache page purges.
    pub d_purge_pages: OpStat,
    /// Instruction-cache page purges.
    pub i_purge_pages: OpStat,
    /// Lines written back by flushes.
    pub flush_writebacks: u64,
    /// Device-writes-memory transfers (pages).
    pub dma_writes: u64,
    /// Device-reads-memory transfers (pages).
    pub dma_reads: u64,
}

impl MachineStats {
    /// Reset all counters.
    pub fn reset(&mut self) {
        *self = MachineStats::default();
    }

    /// Serialize every counter, in declaration order.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.u64(self.loads);
        w.u64(self.stores);
        w.u64(self.ifetches);
        w.u64(self.d_hits);
        w.u64(self.d_misses);
        w.u64(self.i_hits);
        w.u64(self.i_misses);
        w.u64(self.writebacks);
        w.u64(self.uncached);
        w.u64(self.tlb_misses);
        self.d_flush_pages.save_state(w);
        self.d_purge_pages.save_state(w);
        self.i_purge_pages.save_state(w);
        w.u64(self.flush_writebacks);
        w.u64(self.dma_writes);
        w.u64(self.dma_reads);
    }

    /// Restore counters saved by [`MachineStats::save_state`].
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        self.loads = r.u64()?;
        self.stores = r.u64()?;
        self.ifetches = r.u64()?;
        self.d_hits = r.u64()?;
        self.d_misses = r.u64()?;
        self.i_hits = r.u64()?;
        self.i_misses = r.u64()?;
        self.writebacks = r.u64()?;
        self.uncached = r.u64()?;
        self.tlb_misses = r.u64()?;
        self.d_flush_pages.restore_state(r)?;
        self.d_purge_pages.restore_state(r)?;
        self.i_purge_pages.restore_state(r)?;
        self.flush_writebacks = r.u64()?;
        self.dma_writes = r.u64()?;
        self.dma_reads = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stat_average() {
        let mut s = OpStat::default();
        assert_eq!(s.avg(), 0.0);
        s.record(10);
        s.record(30);
        assert_eq!(s.count, 2);
        assert_eq!(s.avg(), 20.0);
        assert!(s.to_string().contains("avg 20"));
    }

    #[test]
    fn record_and_reset() {
        let mut a = MachineStats {
            loads: 5,
            ..MachineStats::default()
        };
        a.d_flush_pages.record(100);
        a.d_flush_pages.record(50);
        assert_eq!(a.d_flush_pages.count, 2);
        assert_eq!(a.d_flush_pages.cycles, 150);
        a.reset();
        assert_eq!(a, MachineStats::default());
    }

    #[test]
    fn op_stat_display() {
        assert_eq!(OpStat::default().to_string(), "0 ops / 0 cycles (avg 0)");
        let s = OpStat {
            count: 3,
            cycles: 10,
        };
        assert_eq!(s.to_string(), "3 ops / 10 cycles (avg 3)");
    }
}
