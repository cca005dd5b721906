//! The `latex-paper` benchmark: "formats a version of this paper using
//! TeX" (§2.5).
//!
//! TeX is CPU-bound: it reads a small input, chews on an in-memory working
//! set for several passes, and writes small auxiliary and output files.
//! Cache-consistency overhead is correspondingly smaller than for the
//! file-intensive benchmarks (the paper reports a 5 % gain versus 10 %).

use vic_core::types::{CpuId, VAddr};
use vic_os::fs::FileId;
use vic_os::{Kernel, OsError, TaskId};

use crate::step::{Cursor, StepWorkload};

/// The latex-paper driver.
#[derive(Debug, Clone, Copy)]
pub struct LatexBench {
    /// Formatting passes (TeX runs + re-runs for references).
    pub passes: u32,
    /// Working-set pages (fonts, hyphenation tables, the document tree).
    pub working_pages: u64,
    /// Input file pages.
    pub input_pages: u64,
    /// Pure computation cycles charged per working-set sweep.
    pub compute_per_sweep: u64,
}

impl LatexBench {
    /// Paper-scale run.
    pub fn paper() -> Self {
        LatexBench {
            passes: 4,
            working_pages: 24,
            input_pages: 6,
            compute_per_sweep: 320_000,
        }
    }

    /// Scaled-down run for tests.
    pub fn quick() -> Self {
        LatexBench {
            passes: 2,
            working_pages: 4,
            input_pages: 2,
            compute_per_sweep: 2_000,
        }
    }
}

// Cursor register layout: scalar slots in `cur.u`, style file ids in
// `cur.lists[0]`.
const U_TASK: usize = 0;
const U_BUF: usize = 1;
const U_INPUT: usize = 2;
const U_WS: usize = 3;
const U_AUX: usize = 4;
const U_OUT: usize = 5;

impl StepWorkload for LatexBench {
    fn name(&self) -> &'static str {
        "latex-paper"
    }

    fn step(&self, k: &mut Kernel, cpu: CpuId, cur: &mut Cursor) -> Result<bool, OsError> {
        let page = k.page_size();
        let t = TaskId(cur.u.get(U_TASK).map_or(0, |&v| v as u32));
        let buf = VAddr(cur.u.get(U_BUF).copied().unwrap_or(0));
        match cur.phase {
            // Boot: the TeX task, its I/O buffer, and the .tex input file
            // (written by an "editor" beforehand).
            0 => {
                let t = k.create_task();
                let buf = k.vm_allocate(t, 1)?;
                let input = k.fs_create();
                cur.u = vec![u64::from(t.0), buf.0, u64::from(input.0), 0, 0, 0];
                cur.lists = vec![Vec::new()];
                cur.next_phase();
            }
            // Write the input, one page per step.
            1 => {
                let input = FileId(cur.u[U_INPUT] as u32);
                let p = cur.i;
                let vals: [u32; 16] = std::array::from_fn(|w| (p * 100 + w as u64) as u32);
                k.write_run(cpu, t, buf, 4, &vals)?;
                k.fs_write_page(cpu, t, input, p, buf)?;
                cur.i += 1;
                if cur.i == self.input_pages {
                    k.sync(cpu);
                    cur.next_phase();
                }
            }
            // Style and font files TeX opens on every pass, one per step.
            2 => {
                let s = cur.i as u32;
                let f = k.fs_create();
                let vals: [u32; 16] = std::array::from_fn(|w| 0xf0_0000 + s * 64 + w as u32);
                k.write_run(cpu, t, buf, 4, &vals)?;
                k.fs_write_page(cpu, t, f, 0, buf)?;
                cur.lists[0].push(u64::from(f.0));
                cur.i += 1;
                if cur.i == 8 {
                    k.sync(cpu);
                    let ws = k.vm_allocate(t, self.working_pages)?;
                    let aux = k.fs_create();
                    let out = k.fs_create();
                    cur.u[U_WS] = ws.0;
                    cur.u[U_AUX] = u64::from(aux.0);
                    cur.u[U_OUT] = u64::from(out.0);
                    cur.next_phase();
                }
            }
            // One formatting pass per step.
            3 => {
                let input = FileId(cur.u[U_INPUT] as u32);
                let ws = VAddr(cur.u[U_WS]);
                let aux = FileId(cur.u[U_AUX] as u32);
                let pass = cur.i as u32;
                // Read the input and every style/font file (buffer-cache
                // hits after the first pass, but each read is a server
                // round trip).
                for p in 0..self.input_pages {
                    k.fs_read_page(cpu, t, input, p, buf)?;
                }
                for fi in 0..cur.lists[0].len() {
                    let f = FileId(cur.lists[0][fi] as u32);
                    k.fs_read_page(cpu, t, f, 0, buf)?;
                }
                // The formatting work: sweeps over the working set with
                // register-heavy computation in between.
                for sweep in 0..4u32 {
                    for wp in 0..self.working_pages {
                        let base = ws.0 + wp * page;
                        for w in 0..24u64 {
                            let v = k.read(cpu, t, VAddr(base + w * 8))?;
                            k.write(cpu, t, VAddr(base + w * 8), v.wrapping_add(sweep + 1))?;
                        }
                    }
                    k.machine_mut().charge(self.compute_per_sweep);
                }
                // Auxiliary outputs (.aux/.log): small writes each pass.
                let vals: [u32; 8] = std::array::from_fn(|w| pass * 1000 + w as u32);
                k.write_run(cpu, t, buf, 4, &vals)?;
                k.fs_write_page(cpu, t, aux, u64::from(pass), buf)?;
                cur.i += 1;
                if cur.i == u64::from(self.passes) {
                    cur.next_phase();
                }
            }
            // The .dvi output, then cleanup.
            4 => {
                let out = FileId(cur.u[U_OUT] as u32);
                let aux = FileId(cur.u[U_AUX] as u32);
                for p in 0..2u64 {
                    let vals: [u32; 16] =
                        std::array::from_fn(|w| 0xd41 + (p * 50 + w as u64) as u32);
                    k.write_run(cpu, t, buf, 4, &vals)?;
                    k.fs_write_page(cpu, t, out, p, buf)?;
                }
                k.sync(cpu);
                k.fs_delete(cpu, aux)?;
                for fi in 0..cur.lists[0].len() {
                    k.fs_delete(cpu, FileId(cur.lists[0][fi] as u32))?;
                }
                k.terminate_task(cpu, t)?;
                cur.next_phase();
                return Ok(false);
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
    fn runs_clean() {
        for sys in [
            SystemKind::Cmu(Configuration::A),
            SystemKind::Cmu(Configuration::F),
        ] {
            let s = plain(KernelConfig::small(sys), &LatexBench::quick());
            assert_eq!(s.oracle_violations, 0, "{sys:?}");
        }
    }

    #[test]
    fn cpu_bound_gain_is_smaller_than_afs() {
        // The relative improvement old->new should be smaller for the
        // CPU-bound workload than for the file-intensive one.
        let gain = |w: &dyn StepWorkload| {
            let old = plain(KernelConfig::small(SystemKind::Cmu(Configuration::A)), w);
            let new = plain(KernelConfig::small(SystemKind::Cmu(Configuration::F)), w);
            new.gain_over(&old)
        };
        let latex_gain = gain(&LatexBench::quick());
        let afs_gain = gain(&crate::afs::AfsBench::quick());
        assert!(
            latex_gain < afs_gain,
            "latex {latex_gain:.1}% should gain less than afs {afs_gain:.1}%"
        );
        assert!(latex_gain >= 0.0, "but still not lose: {latex_gain:.1}%");
    }
}
