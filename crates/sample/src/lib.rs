//! The flattened run counters the repository benchmark digests.
//!
//! [`metrics_of`] flattens a [`RunStats`] into a fixed-order `u64`
//! vector, [`METRICS`] names its entries and [`metric_index`] looks a
//! name up. The benchmark (`examples/benchmark`) hashes this vector into
//! `expected_digests.json` and derives its count metrics from it.
//!
//! It stays a crate of its own because the benchmark depends on it by
//! path and pins the crate graph in its own `Cargo.lock`: moving these
//! items next to [`RunStats`] and deleting the crate is a change to the
//! benchmark.

#![warn(missing_docs)]

use vic_workloads::RunStats;

/// The flattened metric names, in [`metrics_of`] order. Every consumer
/// indexes metrics through this list, so writer and reader cannot
/// drift.
pub const METRICS: &[&str] = &[
    "cycles",
    "loads",
    "stores",
    "ifetches",
    "d_hits",
    "d_misses",
    "i_hits",
    "i_misses",
    "writebacks",
    "uncached",
    "tlb_misses",
    "flush_writebacks",
    "dma_writes",
    "dma_reads",
    "d_flush_pages",
    "d_flush_cycles",
    "d_purge_pages",
    "d_purge_cycles",
    "i_purge_pages",
    "i_purge_cycles",
    "mgr_flushes",
    "mgr_purges",
    "mapping_faults",
    "consistency_faults",
    "zero_fills",
    "page_copies",
    "ipc_transfers",
    "cow_faults",
    "cow_copies",
    "d2i_copies",
    "fs_reads",
    "fs_writes",
    "buf_misses",
    "buf_writebacks",
    "tasks_created",
    "pages_allocated",
    "pages_freed",
    "page_outs",
    "page_ins",
];

/// The position of `name` in [`METRICS`], if it is a known metric.
pub fn metric_index(name: &str) -> Option<usize> {
    METRICS.iter().position(|m| *m == name)
}

/// Flatten a [`RunStats`] into the [`METRICS`]-aligned counter vector.
pub fn metrics_of(s: &RunStats) -> Vec<u64> {
    vec![
        s.cycles,
        s.machine.loads,
        s.machine.stores,
        s.machine.ifetches,
        s.machine.d_hits,
        s.machine.d_misses,
        s.machine.i_hits,
        s.machine.i_misses,
        s.machine.writebacks,
        s.machine.uncached,
        s.machine.tlb_misses,
        s.machine.flush_writebacks,
        s.machine.dma_writes,
        s.machine.dma_reads,
        s.machine.d_flush_pages.count,
        s.machine.d_flush_pages.cycles,
        s.machine.d_purge_pages.count,
        s.machine.d_purge_pages.cycles,
        s.machine.i_purge_pages.count,
        s.machine.i_purge_pages.cycles,
        s.mgr.total_flushes(),
        s.mgr.total_purges(),
        s.os.mapping_faults,
        s.os.consistency_faults,
        s.os.zero_fills,
        s.os.page_copies,
        s.os.ipc_transfers,
        s.os.cow_faults,
        s.os.cow_copies,
        s.os.d2i_copies,
        s.os.fs_reads,
        s.os.fs_writes,
        s.os.buf_misses,
        s.os.buf_writebacks,
        s.os.tasks_created,
        s.os.pages_allocated,
        s.os.pages_freed,
        s.os.page_outs,
        s.os.page_ins,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_vector_stay_aligned() {
        let stats = RunStats {
            workload: "t".to_string(),
            system: "s".to_string(),
            cycles: 7,
            seconds: 0.0,
            machine: vic_machine::MachineStats::default(),
            mgr: vic_core::MgrStats::default(),
            os: vic_os::OsStats::default(),
            oracle_violations: 0,
        };
        let v = metrics_of(&stats);
        assert_eq!(v.len(), METRICS.len());
        assert_eq!(v[metric_index("cycles").unwrap()], 7);
        assert_eq!(metric_index("no-such-metric"), None);
    }
}
