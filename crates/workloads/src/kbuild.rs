//! The `kernel-build` benchmark: "builds a version of the Mach kernel from
//! about 200 source files" (§2.5).
//!
//! Each compilation execs the compiler (text pages copied from the buffer
//! cache into the process — data→instruction-space traffic), reads its
//! source file, allocates and dirties scratch memory, writes an object
//! file, and exits (mass unmap + frame recycling — the paper's dominant
//! source of new-mapping purges). A final link pass reads every object
//! file and writes the kernel image.

use vic_core::types::{CpuId, VAddr};
use vic_core::Rng64;
use vic_os::fs::FileId;
use vic_os::{Kernel, OsError, TaskId};

use crate::step::{Cursor, StepWorkload};

/// The kernel-build driver.
#[derive(Debug, Clone, Copy)]
pub struct KernelBuild {
    /// Compilation units ("about 200 source files").
    pub units: u32,
    /// Compiler binary size in text pages.
    pub compiler_pages: u64,
    /// Source file size range in pages (inclusive).
    pub src_pages: (u64, u64),
    /// Scratch pages each compilation dirties.
    pub work_pages: u64,
    /// Object file pages per unit.
    pub obj_pages: u64,
    /// Pure compilation cycles charged per unit.
    pub compute_per_unit: u64,
    /// RNG seed.
    pub seed: u64,
}

impl KernelBuild {
    /// Paper-scale run (200 units).
    pub fn paper() -> Self {
        KernelBuild {
            units: 200,
            compiler_pages: 6,
            src_pages: (1, 4),
            work_pages: 12,
            obj_pages: 2,
            compute_per_unit: 660_000,
            seed: 0xb111d,
        }
    }

    /// Scaled-down run for tests.
    pub fn quick() -> Self {
        KernelBuild {
            units: 5,
            compiler_pages: 2,
            src_pages: (1, 2),
            work_pages: 2,
            obj_pages: 1,
            compute_per_unit: 3_000,
            seed: 0xb111d,
        }
    }
}

// Cursor register layout. Scalars (`cur.u`):
const U_SHELL: usize = 0; // the shell task
const U_BUF: usize = 1; // its I/O buffer
const U_CC: usize = 2; // the compiler binary's file id
const U_LD: usize = 3; // the linker task (phase 4 on)
const U_LD_BUF: usize = 4; // the linker's buffer
const U_IMAGE: usize = 5; // the kernel image file id
                          // Sequences (`cur.lists`): source file ids, source page counts, object
                          // file ids.
const L_SRC: usize = 0;
const L_SRC_PAGES: usize = 1;
const L_OBJ: usize = 2;

impl StepWorkload for KernelBuild {
    fn name(&self) -> &'static str {
        "kernel-build"
    }

    #[allow(clippy::too_many_lines)]
    fn step(&self, k: &mut Kernel, cpu: CpuId, cur: &mut Cursor) -> Result<bool, OsError> {
        let page = k.page_size();
        match cur.phase {
            // Setup (not unlike `make depend`): the shell task writes out
            // the compiler binary.
            0 => {
                cur.rng = Rng64::seed_from_u64(self.seed);
                let shell = k.create_task();
                let buf = k.vm_allocate(shell, 1)?;
                let cc = k.fs_create();
                for p in 0..self.compiler_pages {
                    let vals: [u32; 16] =
                        std::array::from_fn(|w| 0xcc00_0000 + (p * 64 + w as u64) as u32);
                    k.write_run(cpu, shell, buf, 4, &vals)?;
                    k.fs_write_page(cpu, shell, cc, p, buf)?;
                }
                cur.u = vec![u64::from(shell.0), buf.0, u64::from(cc.0), 0, 0, 0];
                cur.lists = vec![Vec::new(), Vec::new(), Vec::new()];
                cur.next_phase();
            }
            // ... and the source tree, one file per step.
            1 => {
                let shell = TaskId(cur.u[U_SHELL] as u32);
                let buf = VAddr(cur.u[U_BUF]);
                let s = cur.i as u32;
                let f = k.fs_create();
                let pages = cur.rng.gen_u64(self.src_pages.0, self.src_pages.1);
                for p in 0..pages {
                    let vals: [u32; 16] =
                        std::array::from_fn(|w| s.wrapping_mul(97) + (p * 8 + w as u64) as u32);
                    k.write_run(cpu, shell, buf, 4, &vals)?;
                    k.fs_write_page(cpu, shell, f, p, buf)?;
                }
                cur.lists[L_SRC].push(u64::from(f.0));
                cur.lists[L_SRC_PAGES].push(pages);
                if s % 32 == 31 {
                    k.sync(cpu);
                }
                cur.i += 1;
                if cur.i == u64::from(self.units) {
                    k.sync(cpu);
                    cur.next_phase();
                }
            }
            // The build: one compiler process per unit, one unit per step.
            // Half the processes get a random environment/argv pad,
            // shifting their whole layout: their recycled frames come back
            // under *unaligned* addresses (the paper's dominant new-mapping
            // purges), while the unpadded half re-pair frames with their
            // previous addresses (the aligned reuse that makes lazy unmap
            // pay off).
            2 => {
                let idx = cur.i as usize;
                let cc = FileId(cur.u[U_CC] as u32);
                let src = FileId(cur.lists[L_SRC][idx] as u32);
                let pages = cur.lists[L_SRC_PAGES][idx];
                let cc_task = k.create_task();
                let pad = if cur.rng.gen_bool(0.5) {
                    cur.rng.gen_u64(1, 7)
                } else {
                    0
                };
                let pad_va = if pad > 0 {
                    Some((k.vm_allocate(cc_task, pad)?, pad))
                } else {
                    None
                };
                if let Some((va, _)) = pad_va {
                    k.write(cpu, cc_task, va, 0x0e0e)?; // touch the environment page
                }
                // Exec: map the compiler text; faults copy it from the
                // buffer cache through the data cache into the instruction
                // cache.
                let text = k.exec_text(cc_task, cc, self.compiler_pages)?;
                for p in 0..self.compiler_pages {
                    k.run_text(cpu, cc_task, VAddr(text.0 + p * page), 16)?;
                }
                // Read the source.
                let io = k.vm_allocate(cc_task, 1)?;
                for p in 0..pages {
                    k.fs_read_page(cpu, cc_task, src, p, io)?;
                }
                // Compile: dirty the scratch arena, burn CPU.
                let work = k.vm_allocate(cc_task, self.work_pages)?;
                for wp in 0..self.work_pages {
                    let vals: [u32; 32] = std::array::from_fn(|w| (wp * 40 + w as u64) as u32);
                    k.write_run(cpu, cc_task, VAddr(work.0 + wp * page), 8, &vals)?;
                }
                k.machine_mut().charge(self.compute_per_unit);
                for wp in 0..self.work_pages {
                    for w in 0..16u64 {
                        let v = k.read(cpu, cc_task, VAddr(work.0 + wp * page + w * 8))?;
                        k.write(
                            cpu,
                            cc_task,
                            VAddr(work.0 + wp * page + w * 8 + 4),
                            v ^ 0x5a5a,
                        )?;
                    }
                }
                // Emit the object file.
                let obj = k.fs_create();
                for p in 0..self.obj_pages {
                    k.fs_write_page(
                        cpu,
                        cc_task,
                        obj,
                        p,
                        VAddr(work.0 + (p % self.work_pages) * page),
                    )?;
                }
                cur.lists[L_OBJ].push(u64::from(obj.0));
                // Exit: everything unmapped, frames recycled.
                k.terminate_task(cpu, cc_task)?;
                if cur.lists[L_OBJ].len() % 16 == 15 {
                    k.sync(cpu);
                }
                cur.i += 1;
                if cur.i as usize == cur.lists[L_SRC].len() {
                    k.sync(cpu);
                    let ld = k.create_task();
                    let ld_buf = k.vm_allocate(ld, 1)?;
                    let image = k.fs_create();
                    cur.u[U_LD] = u64::from(ld.0);
                    cur.u[U_LD_BUF] = ld_buf.0;
                    cur.u[U_IMAGE] = u64::from(image.0);
                    cur.next_phase();
                }
            }
            // Link: one process reads every object and writes the image,
            // one object per step.
            3 => {
                let ld = TaskId(cur.u[U_LD] as u32);
                let ld_buf = VAddr(cur.u[U_LD_BUF]);
                let image = FileId(cur.u[U_IMAGE] as u32);
                let out_page = cur.i;
                if out_page as usize == cur.lists[L_OBJ].len() {
                    k.machine_mut().charge(self.compute_per_unit);
                    k.sync(cpu);
                    k.terminate_task(cpu, ld)?;
                    k.terminate_task(cpu, TaskId(cur.u[U_SHELL] as u32))?;
                    cur.next_phase();
                    return Ok(false);
                }
                let obj = FileId(cur.lists[L_OBJ][out_page as usize] as u32);
                for p in 0..self.obj_pages {
                    k.fs_read_page(cpu, ld, obj, p, ld_buf)?;
                }
                if out_page.is_multiple_of(4) {
                    k.fs_write_page(cpu, ld, image, out_page / 4, ld_buf)?;
                }
                cur.i += 1;
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
    use vic_core::manager::OpCause;
    use vic_core::policy::Configuration;
    use vic_os::KernelConfig;
    use vic_os::SystemKind;

    #[test]
    fn runs_clean_old_and_new() {
        for sys in [
            SystemKind::Cmu(Configuration::A),
            SystemKind::Cmu(Configuration::F),
        ] {
            let s = plain(KernelConfig::small(sys), &KernelBuild::quick());
            assert_eq!(s.oracle_violations, 0, "{sys:?}");
            assert!(s.os.d2i_copies > 0, "exec copied text pages");
            assert!(s.os.tasks_created as u32 >= KernelBuild::quick().units);
        }
    }

    #[test]
    fn new_mappings_dominate_purges_under_f() {
        // Paper §5.1: ~80% of page purges under configuration F stem from
        // new mappings (random frames off the free list). Run on the full
        // HP 720 geometry — the 4-cache-page test geometry makes accidental
        // alignment far too common to show the effect.
        let s = plain(
            KernelConfig::new(SystemKind::Cmu(Configuration::F)),
            &KernelBuild::quick(),
        );
        let purges = &s.mgr.d_purge_pages;
        let nm = purges.get(OpCause::NewMapping);
        assert!(
            nm * 2 > purges.total(),
            "new mappings should dominate: {nm} of {}",
            purges.total()
        );
    }

    #[test]
    fn improvement_old_to_new() {
        let old = plain(
            KernelConfig::small(SystemKind::Cmu(Configuration::A)),
            &KernelBuild::quick(),
        );
        let new = plain(
            KernelConfig::small(SystemKind::Cmu(Configuration::F)),
            &KernelBuild::quick(),
        );
        assert!(new.cycles < old.cycles);
    }
}
