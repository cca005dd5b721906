//! The contrived alias microbenchmark (§2.5).
//!
//! "A single thread repeatedly wrote one physical address through two
//! virtual addresses. When the virtual addresses were aligned, a loop of
//! 1,000,000 writes completed in a fraction of a second. When unaligned,
//! the loop took over 2 minutes."
//!
//! Unaligned, every write through the other address is a consistency
//! fault: the dirty competing cache page is flushed, the protection
//! flipped, and the write retried. Aligned, both addresses share the cache
//! line and the loop runs at cache speed.

use vic_core::types::{CpuId, VAddr};
use vic_os::{Kernel, OsError, ShareAlignment, TaskId};

use crate::step::{Cursor, StepWorkload};

/// The alias write loop.
#[derive(Debug, Clone, Copy)]
pub struct AliasLoop {
    /// Total writes (alternating between the two addresses).
    pub iters: u64,
    /// Whether the two virtual addresses align in the cache.
    pub aligned: bool,
}

impl AliasLoop {
    /// The paper's loop: 1,000,000 writes.
    pub fn paper(aligned: bool) -> Self {
        AliasLoop {
            iters: 1_000_000,
            aligned,
        }
    }

    /// A scaled loop for tests and Criterion.
    pub fn quick(aligned: bool) -> Self {
        AliasLoop {
            iters: 2_000,
            aligned,
        }
    }
}

/// Writes performed per step: small enough that a checkpoint boundary is
/// never more than a handful of iterations away, large enough that the
/// per-step dispatch cost vanishes against a million writes.
const WRITES_PER_STEP: u64 = 64;

impl StepWorkload for AliasLoop {
    fn name(&self) -> &'static str {
        if self.aligned {
            "alias-loop/aligned"
        } else {
            "alias-loop/unaligned"
        }
    }

    fn step(&self, k: &mut Kernel, cpu: CpuId, cur: &mut Cursor) -> Result<bool, OsError> {
        match cur.phase {
            // Set up the two aliases over one frame.
            0 => {
                let t = k.create_task();
                let va1 = k.vm_allocate(t, 1)?;
                k.write(cpu, t, va1, 0)?; // materialize the frame
                let align = if self.aligned {
                    ShareAlignment::Aligned
                } else {
                    ShareAlignment::Unaligned
                };
                let va2 = k.vm_share_with(cpu, t, va1, t, align)?;
                cur.u = vec![u64::from(t.0), va1.0, va2.0];
                cur.next_phase();
            }
            // A batch of alternating writes per step.
            1 => {
                let t = TaskId(cur.u[0] as u32);
                let (va1, va2) = (VAddr(cur.u[1]), VAddr(cur.u[2]));
                let end = (cur.i + WRITES_PER_STEP).min(self.iters);
                for i in cur.i..end {
                    let va = if i % 2 == 0 { va1 } else { va2 };
                    k.write(cpu, t, va, i as u32)?;
                }
                cur.i = end;
                if cur.i == self.iters {
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
    fn aligned_is_dramatically_faster() {
        let sys = SystemKind::Cmu(Configuration::F);
        let aligned = plain(KernelConfig::small(sys), &AliasLoop::quick(true));
        let unaligned = plain(KernelConfig::small(sys), &AliasLoop::quick(false));
        assert_eq!(aligned.oracle_violations, 0);
        assert_eq!(unaligned.oracle_violations, 0);
        let ratio = unaligned.cycles as f64 / aligned.cycles as f64;
        assert!(
            ratio > 50.0,
            "paper: fraction of a second vs over 2 minutes; got ratio {ratio:.1}"
        );
    }

    #[test]
    fn aligned_loop_causes_no_cache_ops() {
        let sys = SystemKind::Cmu(Configuration::F);
        let s = plain(KernelConfig::small(sys), &AliasLoop::quick(true));
        assert_eq!(s.total_flushes() + s.total_purges(), 0);
    }

    #[test]
    fn unaligned_loop_flushes_per_crossing() {
        let sys = SystemKind::Cmu(Configuration::F);
        let w = AliasLoop::quick(false);
        let s = plain(KernelConfig::small(sys), &w);
        // Every switch between the two addresses flushes the dirty page:
        // about one flush per iteration.
        assert!(
            s.total_flushes() as f64 > w.iters as f64 * 0.9,
            "expected ~{} flushes, got {}",
            w.iters,
            s.total_flushes()
        );
    }
}
