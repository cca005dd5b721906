//! A fork-style workload exercising copy-on-write — the alias source the
//! paper names in §2.2 ("the operating system uses multiple mappings to
//! implement techniques such as copy-on-write").
//!
//! A parent builds a data segment, then repeatedly "forks": the segment is
//! `vm_copy`-snapshotted into a child, the child reads most of it, writes
//! a fraction (breaking exactly those pages), does some work and exits.
//! Under the full system the snapshot aliases align page-for-page and the
//! shared phase is free; under the old system every shared page is an
//! unaligned alias that must be broken eagerly.

use vic_core::types::{CpuId, VAddr};
use vic_core::Rng64;
use vic_os::{Kernel, OsError, TaskId};

use crate::step::{Cursor, StepWorkload};

/// The fork/COW driver.
#[derive(Debug, Clone, Copy)]
pub struct ForkBench {
    /// Number of forks.
    pub forks: u32,
    /// Parent data-segment size in pages.
    pub segment_pages: u64,
    /// Fraction (out of 100) of snapshot pages each child writes.
    pub write_pct: u32,
    /// CPU cycles charged per child.
    pub compute_per_child: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ForkBench {
    /// Paper-scale run.
    pub fn paper() -> Self {
        ForkBench {
            forks: 60,
            segment_pages: 16,
            write_pct: 25,
            compute_per_child: 150_000,
            seed: 0xf0f0,
        }
    }

    /// Scaled-down run for tests.
    pub fn quick() -> Self {
        ForkBench {
            forks: 4,
            segment_pages: 4,
            write_pct: 50,
            compute_per_child: 2_000,
            seed: 0xf0f0,
        }
    }
}

// Cursor register layout: `cur.u[0]` = parent task, `cur.u[1]` = segment
// base address.
const U_PARENT: usize = 0;
const U_SEG: usize = 1;

impl StepWorkload for ForkBench {
    fn name(&self) -> &'static str {
        "fork-bench"
    }

    fn step(&self, k: &mut Kernel, cpu: CpuId, cur: &mut Cursor) -> Result<bool, OsError> {
        let page = k.page_size();
        match cur.phase {
            // The parent builds its data segment.
            0 => {
                cur.rng = Rng64::seed_from_u64(self.seed);
                let parent = k.create_task();
                let seg = k.vm_allocate(parent, self.segment_pages)?;
                for p in 0..self.segment_pages {
                    for w in 0..16u64 {
                        k.write(
                            cpu,
                            parent,
                            VAddr(seg.0 + p * page + w * 8),
                            (p * 31 + w) as u32,
                        )?;
                    }
                }
                cur.u = vec![u64::from(parent.0), seg.0];
                cur.next_phase();
            }
            // One fork lifecycle per step.
            1 => {
                let parent = TaskId(cur.u[U_PARENT] as u32);
                let seg = VAddr(cur.u[U_SEG]);
                let f = cur.i as u32;
                let child = k.create_task();
                let snap = k.vm_copy(cpu, parent, seg, self.segment_pages, child)?;
                // The child reads its whole snapshot...
                for p in 0..self.segment_pages {
                    for w in 0..8u64 {
                        let _ = k.read(cpu, child, VAddr(snap.0 + p * page + w * 16))?;
                    }
                }
                // ...writes a fraction of it (COW breaks those pages)...
                for p in 0..self.segment_pages {
                    if cur.rng.gen_u64(0, 99) < u64::from(self.write_pct) {
                        for w in 0..8u64 {
                            k.write(cpu, child, VAddr(snap.0 + p * page + w * 8), f + w as u32)?;
                        }
                    }
                }
                k.machine_mut().charge(self.compute_per_child);
                // ...and occasionally reports back over the server channel.
                if f.is_multiple_of(8) {
                    k.server_round_trip(cpu, child)?;
                }
                k.terminate_task(cpu, child)?;
                // The parent keeps mutating between forks (breaking its own
                // COW residue).
                let p = u64::from(f) % self.segment_pages;
                k.write(cpu, parent, VAddr(seg.0 + p * page), 0x7000 + f)?;
                cur.i += 1;
                if cur.i == u64::from(self.forks) {
                    k.terminate_task(cpu, parent)?;
                    cur.next_phase();
                    return Ok(false);
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::plain;
    use vic_core::policy::Configuration;
    use vic_os::KernelConfig;
    use vic_os::SystemKind;

    #[test]
    fn runs_clean_all_main_systems() {
        for sys in [
            SystemKind::Cmu(Configuration::A),
            SystemKind::Cmu(Configuration::F),
            SystemKind::Utah,
            SystemKind::Sun,
        ] {
            let s = plain(KernelConfig::small(sys), &ForkBench::quick());
            assert_eq!(s.oracle_violations, 0, "{sys:?}");
            assert!(s.os.cow_faults > 0, "{sys:?}: COW faults happened");
        }
    }

    #[test]
    fn cow_copies_bounded_by_writes() {
        // Only written pages are copied; reads never copy.
        let s = plain(
            KernelConfig::small(SystemKind::Cmu(Configuration::F)),
            &ForkBench::quick(),
        );
        let w = ForkBench::quick();
        let max_copies = u64::from(w.forks) * w.segment_pages + u64::from(w.forks);
        assert!(s.os.cow_copies <= max_copies);
        assert!(s.os.cow_copies > 0);
    }

    #[test]
    fn new_system_wins_on_forks() {
        let old = plain(
            KernelConfig::new(SystemKind::Cmu(Configuration::A)),
            &ForkBench::paper(),
        );
        let new = plain(
            KernelConfig::new(SystemKind::Cmu(Configuration::F)),
            &ForkBench::paper(),
        );
        assert!(
            new.cycles < old.cycles,
            "aligned COW must win: {} vs {}",
            new.cycles,
            old.cycles
        );
        // The aligned snapshot's shared phase is nearly free: far fewer
        // cache operations than the eager/unaligned system.
        assert!(new.total_flushes() * 2 < old.total_flushes());
    }
}
