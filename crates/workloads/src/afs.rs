//! The Andrew File System benchmark (`afs-bench`): "a file-intensive shell
//! script" (§2.5).
//!
//! The classic Andrew benchmark phases are reproduced as kernel operation
//! streams: **MakeDir/Copy** (create files and write their pages),
//! **ScanDir** and **StatEvery** (Unix-server round trips per file),
//! **ReadAll** (read every page of every file, repeatedly), and **Make**
//! (exec a tool binary and let it read the sources). Between operations the
//! "script" burns a little user CPU, as a shell does.
//!
//! Like every driver, this is a [`StepWorkload`]: one step is one file (or
//! one round trip), and the script's progress — which files exist, how big
//! each is, where the worker task lives — rides in the [`Cursor`] so a run
//! can checkpoint between any two steps.

use vic_core::types::{CpuId, VAddr};
use vic_core::Rng64;
use vic_os::fs::FileId;
use vic_os::{Kernel, OsError, TaskId};

use crate::step::{Cursor, StepWorkload};

/// The afs-bench driver.
#[derive(Debug, Clone, Copy)]
pub struct AfsBench {
    /// Number of files the script manipulates.
    pub files: u32,
    /// Maximum pages per file (sizes are drawn 1..=max, seeded).
    pub max_pages: u64,
    /// Read-all passes.
    pub read_passes: u32,
    /// User CPU cycles charged per script operation.
    pub compute_per_op: u64,
    /// RNG seed (fixed for reproducibility).
    pub seed: u64,
}

impl AfsBench {
    /// Paper-scale run (minutes of simulated time).
    pub fn paper() -> Self {
        AfsBench {
            files: 70,
            max_pages: 3,
            read_passes: 3,
            compute_per_op: 70_000,
            seed: 0x000a_fbec,
        }
    }

    /// Scaled-down run for tests.
    pub fn quick() -> Self {
        AfsBench {
            files: 6,
            max_pages: 2,
            read_passes: 1,
            compute_per_op: 500,
            seed: 0x000a_fbec,
        }
    }
}

// Cursor register layout. Scalars (`cur.u`):
const U_SCRIPT: usize = 0; // the script's task id
const U_BUF: usize = 1; // its I/O buffer address
const U_TOOL: usize = 2; // the Make phase's tool binary file id
const U_WORKER: usize = 3; // the exec'd worker task id
const U_WBUF: usize = 5; // the worker's read buffer address
                         // (`cur.u[4]` holds the worker's text address between phases 5 and 6.)
                         // Sequences (`cur.lists`): source file ids, source page counts, copy file
                         // ids, copy page counts.
const L_SRC: usize = 0;
const L_SRC_PAGES: usize = 1;
const L_COPY: usize = 2;
const L_COPY_PAGES: usize = 3;

impl AfsBench {
    fn script(cur: &Cursor) -> TaskId {
        TaskId(cur.u[U_SCRIPT] as u32)
    }

    /// The `idx`-th file of sources ++ copies, with its page count.
    fn nth_file(cur: &Cursor, idx: usize) -> (FileId, u64) {
        let ns = cur.lists[L_SRC].len();
        if idx < ns {
            (
                FileId(cur.lists[L_SRC][idx] as u32),
                cur.lists[L_SRC_PAGES][idx],
            )
        } else {
            (
                FileId(cur.lists[L_COPY][idx - ns] as u32),
                cur.lists[L_COPY_PAGES][idx - ns],
            )
        }
    }
}

impl StepWorkload for AfsBench {
    fn name(&self) -> &'static str {
        "afs-bench"
    }

    fn step(&self, k: &mut Kernel, cpu: CpuId, cur: &mut Cursor) -> Result<bool, OsError> {
        let page = k.page_size();
        match cur.phase {
            // Boot: the script's task and its I/O buffer.
            0 => {
                cur.rng = Rng64::seed_from_u64(self.seed);
                let t = k.create_task();
                let buf = k.vm_allocate(t, self.max_pages)?;
                cur.u = vec![u64::from(t.0), buf.0, 0, 0, 0, 0];
                cur.lists = vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()];
                cur.next_phase();
            }
            // Phase 1 — MakeDir/CopyIn: create the source tree, one file
            // per step.
            1 => {
                let t = Self::script(cur);
                let buf = VAddr(cur.u[U_BUF]);
                let fi = cur.i as u32;
                let f = k.fs_create();
                let pages = cur.rng.gen_u64(1, self.max_pages);
                for p in 0..pages {
                    // The script produces the file contents...
                    let vals: [u32; 16] = std::array::from_fn(|w| fi.wrapping_mul(31) + w as u32);
                    k.write_run(cpu, t, VAddr(buf.0 + p * page), 4, &vals)?;
                    k.fs_write_page(cpu, t, f, p, VAddr(buf.0 + p * page))?;
                }
                k.machine_mut().charge(self.compute_per_op);
                cur.lists[L_SRC].push(u64::from(f.0));
                cur.lists[L_SRC_PAGES].push(pages);
                if fi % 16 == 15 {
                    k.sync(cpu); // write-behind
                }
                cur.i += 1;
                if cur.i == u64::from(self.files) {
                    cur.next_phase();
                }
            }
            // Phase 2 — Copy: duplicate the tree, one file per step.
            2 => {
                let t = Self::script(cur);
                let buf = VAddr(cur.u[U_BUF]);
                let idx = cur.i as usize;
                let f = FileId(cur.lists[L_SRC][idx] as u32);
                let pages = cur.lists[L_SRC_PAGES][idx];
                let c = k.fs_create();
                for p in 0..pages {
                    k.fs_read_page(cpu, t, f, p, buf)?;
                    k.fs_write_page(cpu, t, c, p, buf)?;
                }
                k.machine_mut().charge(self.compute_per_op);
                cur.lists[L_COPY].push(u64::from(c.0));
                cur.lists[L_COPY_PAGES].push(pages);
                cur.i += 1;
                if cur.i as usize == cur.lists[L_SRC].len() {
                    k.sync(cpu);
                    cur.next_phase();
                }
            }
            // Phase 3 — ScanDir/StatEvery: directory walks are pure server
            // round trips, two per file.
            3 => {
                let t = Self::script(cur);
                k.server_round_trip(cpu, t)?;
                k.machine_mut().charge(self.compute_per_op / 10);
                cur.i += 1;
                let total = 2 * (cur.lists[L_SRC].len() + cur.lists[L_COPY].len()) as u64;
                if cur.i == total {
                    cur.next_phase();
                }
            }
            // Phase 4 — ReadAll: read every byte of every file; one step is
            // one file of one pass (`i` = pass, `j` = file index).
            4 => {
                let total = (cur.lists[L_SRC].len() + cur.lists[L_COPY].len()) as u64;
                if cur.i >= u64::from(self.read_passes) || total == 0 {
                    cur.next_phase();
                    return Ok(true);
                }
                let t = Self::script(cur);
                let buf = VAddr(cur.u[U_BUF]);
                let (f, pages) = Self::nth_file(cur, cur.j as usize);
                for p in 0..pages {
                    k.fs_read_page(cpu, t, f, p, buf)?;
                    // ... and "grep" through it.
                    let mut scan = [0u32; 32];
                    k.read_run(cpu, t, buf, 8, &mut scan)?;
                }
                k.machine_mut().charge(self.compute_per_op / 4);
                cur.j += 1;
                if cur.j == total {
                    cur.j = 0;
                    cur.i += 1;
                    if cur.i == u64::from(self.read_passes) {
                        cur.next_phase();
                    }
                }
            }
            // Phase 5 — Make setup: write out and exec the tool binary.
            5 => {
                let t = Self::script(cur);
                let buf = VAddr(cur.u[U_BUF]);
                let tool = k.fs_create();
                for p in 0..2u64 {
                    let vals: [u32; 16] = std::array::from_fn(|w| 0x9000_0000 + w as u32);
                    k.write_run(cpu, t, buf, 4, &vals)?;
                    k.fs_write_page(cpu, t, tool, p, buf)?;
                }
                k.sync(cpu);
                let worker = k.create_task();
                let text = k.exec_text(worker, tool, 2)?;
                k.run_text(cpu, worker, text, 64)?;
                let wbuf = k.vm_allocate(worker, 1)?;
                cur.u[U_TOOL] = u64::from(tool.0);
                cur.u[U_WORKER] = u64::from(worker.0);
                cur.u[4] = text.0;
                cur.u[U_WBUF] = wbuf.0;
                cur.next_phase();
            }
            // Phase 6 — Make: the tool reads one source file per step.
            6 => {
                if cur.i as usize == cur.lists[L_SRC].len() {
                    k.terminate_task(cpu, TaskId(cur.u[U_WORKER] as u32))?;
                    cur.next_phase();
                    return Ok(true);
                }
                let worker = TaskId(cur.u[U_WORKER] as u32);
                let wbuf = VAddr(cur.u[U_WBUF]);
                let idx = cur.i as usize;
                let f = FileId(cur.lists[L_SRC][idx] as u32);
                let pages = cur.lists[L_SRC_PAGES][idx];
                for p in 0..pages {
                    k.fs_read_page(cpu, worker, f, p, wbuf)?;
                }
                k.machine_mut().charge(self.compute_per_op / 2);
                cur.i += 1;
            }
            // Phase 7 — Cleanup: delete one file per step.
            7 => {
                let total = (cur.lists[L_SRC].len() + cur.lists[L_COPY].len()) as u64;
                if cur.i == total {
                    k.fs_delete(cpu, FileId(cur.u[U_TOOL] as u32))?;
                    k.sync(cpu);
                    k.terminate_task(cpu, Self::script(cur))?;
                    cur.next_phase();
                    return Ok(false);
                }
                let (f, _) = Self::nth_file(cur, cur.i as usize);
                k.fs_delete(cpu, f)?;
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
    use vic_core::policy::Configuration;
    use vic_os::KernelConfig;
    use vic_os::SystemKind;

    #[test]
    fn runs_clean_on_old_and_new() {
        for sys in [
            SystemKind::Cmu(Configuration::A),
            SystemKind::Cmu(Configuration::F),
        ] {
            let s = plain(KernelConfig::small(sys), &AfsBench::quick());
            assert_eq!(s.oracle_violations, 0, "{sys:?}");
            assert!(s.os.fs_reads > 0 && s.os.fs_writes > 0);
            assert!(s.machine.dma_reads > 0, "write-behind reached the disk");
        }
    }

    #[test]
    fn new_system_is_faster_with_fewer_ops() {
        let old = plain(
            KernelConfig::small(SystemKind::Cmu(Configuration::A)),
            &AfsBench::quick(),
        );
        let new = plain(
            KernelConfig::small(SystemKind::Cmu(Configuration::F)),
            &AfsBench::quick(),
        );
        assert!(
            new.cycles < old.cycles,
            "new {} vs old {}",
            new.cycles,
            old.cycles
        );
        assert!(new.total_flushes() < old.total_flushes());
        assert!(new.total_purges() < old.total_purges());
    }

    #[test]
    fn deterministic() {
        let sys = SystemKind::Cmu(Configuration::F);
        let a = plain(KernelConfig::small(sys), &AfsBench::quick());
        let b = plain(KernelConfig::small(sys), &AfsBench::quick());
        assert_eq!(a.cycles, b.cycles);
    }
}
