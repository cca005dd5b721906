//! The kernel façade: tasks, faults, page preparation, IPC, the file
//! system, the Unix server, and program text loading.
//!
//! This is the layer whose *policies* the paper evaluates. Every knob of
//! configurations A–F acts here or in the consistency manager:
//!
//! * **lazy unmap** — the manager's choice (nothing is flushed at
//!   [`Kernel::vm_deallocate`] / [`Kernel::terminate_task`] under B–F);
//! * **align pages** — IPC destinations ([`Kernel::ipc_transfer_page`]),
//!   shared mappings ([`Kernel::vm_share`]) and Unix-server channel pages
//!   pick virtual addresses that align with their peers;
//! * **aligned prepare** — zero-fill and copy preparation run through a
//!   kernel window chosen to align with the page's ultimate mapping;
//! * **need data / will overwrite** — preparation and DMA paths pass
//!   truthful semantic hints; managers honour them per their policy.

use std::collections::BTreeMap;

use vic_core::fxhash::{FxHashMap, FxHashSet};
use vic_core::manager::{AccessHints, DmaDir, MgrStats};
use vic_core::policy::PolicyConfig;
use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{Access, CpuId, Mapping, PFrame, Prot, SpaceId, VAddr, VPage};
use vic_machine::{Fault, Machine, MachineConfig};
use vic_metrics::{PageStateCounts, SystemSnapshot};
use vic_profile::Seg;
use vic_trace::TraceEvent;

use crate::bufcache::{Buf, BufferCache, Disk};
use crate::error::OsError;
use crate::fs::{FileId, FileSystem};
use crate::pmap::Pmap;
use crate::server::{Channel, UnixServer};
use crate::stats::OsStats;
use crate::system::{PrepareScope, SystemKind};
use crate::vm::{AddrSelect, EntryKind, Task, VmEntry};

/// A task handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task:{}", self.0)
    }
}

/// The kernel's own address space (buffer cache, preparation windows).
pub const KERNEL_SPACE: SpaceId = SpaceId(0);
/// The Unix server's address space.
pub const SERVER_SPACE: SpaceId = SpaceId(1);
/// Kernel virtual page of buffer-cache slot 0.
pub const BUF_BASE_VP: u64 = 0x1000;
/// Kernel virtual page of preparation window 0.
pub const WIN_BASE_VP: u64 = 0x2000;

/// A run access for [`Kernel::access_run`]: read a run of words into a
/// buffer, or write a run of words from one.
#[derive(Debug)]
pub enum RunAccess<'a> {
    /// Load `out.len()` words into `out`.
    Read(&'a mut [u32]),
    /// Store the given words.
    Write(&'a [u32]),
}

/// How [`Kernel::vm_share_with`] chooses the destination address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareAlignment {
    /// First-fit (the original Mach strategy).
    FirstFit,
    /// Force a cache-aligned destination.
    Aligned,
    /// Force an unaligned destination.
    Unaligned,
}

/// Kernel construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Which consistency system to run.
    pub system: SystemKind,
    /// Buffer-cache slots.
    pub buffer_slots: usize,
    /// Disk capacity in blocks (block = page).
    pub disk_blocks: u32,
    /// Use multiple (cache-page-colored) free page lists — the paper's
    /// §5.1 proposal for eliminating new-mapping purges. Off by default:
    /// the measured system used a single list.
    pub colored_free_lists: bool,
    /// Swap device capacity in blocks (block = page). Anonymous pages are
    /// paged out here under memory pressure.
    pub swap_blocks: u32,
}

impl KernelConfig {
    /// Full-size (HP 720) machine with the given system. The buffer cache
    /// is sized so that afs-bench and latex-paper, like the paper's runs,
    /// satisfy all file reads from the cache ("there are no disk reads for
    /// either of the first two benchmarks").
    pub fn new(system: SystemKind) -> Self {
        KernelConfig {
            machine: MachineConfig::hp720(),
            system,
            buffer_slots: 512,
            disk_blocks: 2048,
            colored_free_lists: false,
            swap_blocks: 2048,
        }
    }

    /// Miniature machine for fast tests.
    pub fn small(system: SystemKind) -> Self {
        KernelConfig {
            machine: MachineConfig::small(),
            system,
            buffer_slots: 8,
            disk_blocks: 128,
            colored_free_lists: false,
            swap_blocks: 64,
        }
    }
}

/// Kernel preparation windows: transient kernel mappings used to zero-fill
/// or copy pages, optionally at an address aligning with the page's
/// ultimate mapping.
#[derive(Debug)]
struct KernelWindows {
    base: u64,
    size: u64,
    busy: FxHashSet<u64>,
    cursor: u64,
    align_mod: u64,
}

impl KernelWindows {
    fn new(align_mod: u64) -> Self {
        KernelWindows {
            base: WIN_BASE_VP,
            size: 4 * align_mod,
            busy: FxHashSet::default(),
            cursor: 0,
            align_mod,
        }
    }

    /// Allocate a window page; `want` asks for a specific cache-page
    /// residue (aligned preparation), `None` takes the next in first-fit
    /// order (which cycles through cache pages, i.e. rarely aligns).
    fn alloc(&mut self, want: Option<u64>) -> VPage {
        match want {
            Some(cp) => {
                let mut vp = self.base + (cp % self.align_mod);
                while self.busy.contains(&vp) {
                    vp += self.align_mod;
                    assert!(vp < self.base + self.size, "kernel windows exhausted");
                }
                self.busy.insert(vp);
                VPage(vp)
            }
            None => loop {
                let vp = self.base + (self.cursor % self.size);
                self.cursor += 1;
                if !self.busy.contains(&vp) {
                    self.busy.insert(vp);
                    return VPage(vp);
                }
            },
        }
    }

    fn free(&mut self, vp: VPage) {
        let was = self.busy.remove(&vp.0);
        debug_assert!(was, "freeing unallocated window {vp}");
    }
}

/// The kernel.
pub struct Kernel {
    machine: Machine,
    pmap: Pmap,
    frames: crate::frames::FrameTable,
    tasks: BTreeMap<TaskId, Task>,
    space_of: FxHashMap<SpaceId, TaskId>,
    next_task: u32,
    next_space: u32,
    disk: Disk,
    swap: Disk,
    bufcache: BufferCache,
    fs: FileSystem,
    server: UnixServer,
    policy: PolicyConfig,
    prepare_scope: PrepareScope,
    system: SystemKind,
    stats: OsStats,
    kwin: KernelWindows,
    align_mod: u64,
    seq: u32,
    /// Reusable scratch for constant-fill runs (zero-fill): sized once,
    /// never reallocated in the steady state.
    run_buf: Vec<u32>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("system", &self.system)
            .field("tasks", &self.tasks.len())
            .field("cycles", &self.machine.cycles())
            .finish()
    }
}

impl Kernel {
    /// Boot a kernel: build the machine, the consistency manager for the
    /// chosen system, the disk, buffer cache and Unix server.
    pub fn new(cfg: KernelConfig) -> Self {
        let machine = Machine::new(cfg.machine);
        let geom = cfg.machine.geometry();
        let align_mod = u64::from(
            geom.pages(vic_core::types::CacheKind::Data)
                .max(geom.pages(vic_core::types::CacheKind::Insn)),
        );
        let mgr = cfg.system.build_manager(cfg.machine.num_frames(), geom);
        let colors = if cfg.colored_free_lists {
            align_mod as u32
        } else {
            1
        };
        Kernel {
            pmap: Pmap::new(mgr),
            frames: crate::frames::FrameTable::with_colors(cfg.machine.num_frames(), 16, colors),
            tasks: BTreeMap::new(),
            space_of: FxHashMap::default(),
            next_task: 1,
            next_space: 2,
            disk: Disk::new(cfg.disk_blocks, cfg.machine.page_size),
            swap: Disk::new(cfg.swap_blocks, cfg.machine.page_size),
            bufcache: BufferCache::new(cfg.buffer_slots, BUF_BASE_VP),
            fs: FileSystem::new(),
            server: UnixServer::new(SERVER_SPACE, align_mod),
            policy: cfg.system.policy(),
            prepare_scope: cfg.system.prepare_scope(),
            system: cfg.system,
            stats: OsStats::default(),
            kwin: KernelWindows::new(align_mod),
            align_mod,
            seq: 1,
            run_buf: Vec::new(),
            machine,
        }
    }

    // ---------------------------------------------------------------
    // Accessors

    /// The simulated machine (cycles, hardware stats, oracle).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (tests, warm-up resets).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Emit a kernel-level trace event stamped with the current cycle.
    fn trace(&mut self, event: TraceEvent) {
        let cycle = self.machine.cycles();
        if let Some(o) = self.machine.observers() {
            o.tracer.emit(cycle, event);
        }
    }

    /// Run `f` inside a profiling span: every cycle the machine charges
    /// while `f` runs is attributed under `seg`. One branch each side when
    /// nothing is attached.
    fn spanned<R>(&mut self, seg: Seg, f: impl FnOnce(&mut Self) -> R) -> R {
        if let Some(o) = self.machine.observers() {
            o.profiler.push(seg);
        }
        let r = f(self);
        if let Some(o) = self.machine.observers() {
            o.profiler.pop();
        }
        r
    }

    /// Kernel event counters.
    pub fn os_stats(&self) -> &OsStats {
        &self.stats
    }

    /// Consistency-manager flush/purge counters.
    pub fn mgr_stats(&self) -> &MgrStats {
        self.pmap.mgr_stats()
    }

    /// The pmap (manager name / features).
    pub fn pmap(&self) -> &Pmap {
        &self.pmap
    }

    /// The consistency system in use.
    pub fn system(&self) -> SystemKind {
        self.system
    }

    /// The OS-level policy knobs in effect.
    pub fn policy(&self) -> PolicyConfig {
        self.policy
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.machine.config().page_size
    }

    /// The hardware address space of a task.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`] if the task does not exist.
    pub fn task_space(&self, t: TaskId) -> Result<SpaceId, OsError> {
        self.tasks
            .get(&t)
            .map(|task| task.space)
            .ok_or(OsError::NoSuchTask(t.0))
    }

    /// Reset every statistic (cycles, hardware, manager, kernel) after
    /// warm-up, keeping all state.
    pub fn reset_stats(&mut self) {
        self.machine.reset_account();
        self.pmap.reset_mgr_stats();
        self.stats.reset();
    }

    /// Take a point-in-time system snapshot: the machine's hardware view
    /// ([`Machine::inspect`]) plus the consistency manager's per-page
    /// state, folded into per-state counts over every tracked frame.
    /// Reads only — no statistic, cycle or state changes.
    pub fn inspect(&self) -> SystemSnapshot {
        use vic_core::types::{CacheKind, CachePage};
        let machine = self.machine.inspect();
        let mut frames_tracked = 0u64;
        let mut d_states = PageStateCounts::default();
        let mut i_states = PageStateCounts::default();
        let d_pages = machine.dcache.pages.len() as u32;
        let i_pages = machine.icache.pages.len() as u32;
        for f in 0..self.machine.config().num_frames() {
            let Some(info) = self.pmap.observed_page(PFrame(f)) else {
                continue;
            };
            frames_tracked += 1;
            for cp in 0..d_pages {
                d_states.count(info.cache_page_state(CacheKind::Data, CachePage(cp)));
            }
            for cp in 0..i_pages {
                i_states.count(info.cache_page_state(CacheKind::Insn, CachePage(cp)));
            }
        }
        SystemSnapshot {
            machine,
            frames_tracked,
            d_states,
            i_states,
        }
    }

    // ---------------------------------------------------------------
    // Tasks

    /// Create an empty task.
    pub fn create_task(&mut self) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        let space = SpaceId(self.next_space);
        self.next_space += 1;
        self.tasks.insert(id, Task::new(space, self.align_mod));
        self.space_of.insert(space, id);
        self.stats.tasks_created += 1;
        id
    }

    /// Destroy a task: unmap everything, release its frames and its server
    /// channel.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`] if the task does not exist.
    pub fn terminate_task(&mut self, cpu: CpuId, t: TaskId) -> Result<(), OsError> {
        self.spanned(Seg::Os("task.terminate"), |k| {
            k.terminate_task_inner(cpu, t)
        })
    }

    fn terminate_task_inner(&mut self, cpu: CpuId, t: TaskId) -> Result<(), OsError> {
        let task = self.tasks.remove(&t).ok_or(OsError::NoSuchTask(t.0))?;
        self.space_of.remove(&task.space);
        if let Some(ch) = self.server.unregister(t.0) {
            self.server.task.remove(ch.server_vp);
            self.pmap.remove(
                cpu,
                &mut self.machine,
                Mapping::new(SERVER_SPACE, ch.server_vp),
            );
            self.release_frame(cpu, ch.frame, Some(ch.client_vp));
        }
        // Free in descending address order: with the LIFO free list, the
        // next task's (ascending) fault order then re-pairs each frame with
        // the virtual page it previously lived under — so lazy-unmap
        // configurations find their cached data aligned and reusable, the
        // effect the paper credits for configuration B's improvement.
        let mut entries: Vec<(VPage, VmEntry)> = task.iter().map(|(vp, e)| (vp, *e)).collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.0));
        for (vp, entry) in entries {
            let m = Mapping::new(task.space, vp);
            self.pmap.remove(cpu, &mut self.machine, m);
            if let Some(frame) = entry.frame {
                self.release_frame(cpu, frame, Some(vp));
            }
            if let Some(block) = entry.swap {
                self.swap.release(block);
            }
        }
        Ok(())
    }

    /// Allocate a frame, preferring (with colored free lists) one whose
    /// residue aligns with the virtual page it will live under. Under
    /// memory pressure, pages out anonymous victims to swap first.
    fn alloc_frame(&mut self, cpu: CpuId, under: Option<VPage>) -> Result<PFrame, OsError> {
        let color = under.map(|vp| (vp.0 % self.align_mod) as u32);
        match self.frames.allocate(color) {
            Ok(f) => {
                self.stats.pages_allocated += 1;
                Ok(f)
            }
            Err(OsError::OutOfMemory) => {
                // Reclaim: page out an anonymous victim and retry once.
                self.reclaim_one(cpu)?;
                let f = self.frames.allocate(color)?;
                self.stats.pages_allocated += 1;
                Ok(f)
            }
            Err(e) => Err(e),
        }
    }

    /// Find one pageable victim (a materialized, sole-owner, non-COW
    /// anonymous page) and page it out.
    fn reclaim_one(&mut self, cpu: CpuId) -> Result<(), OsError> {
        let victim = self
            .tasks
            .values()
            .flat_map(|task| {
                let space = task.space;
                task.iter().map(move |(vp, e)| (space, vp, *e))
            })
            .find(|(_, _, e)| {
                matches!(e.kind, EntryKind::Anon)
                    && !e.cow
                    && e.frame.is_some_and(|f| self.frames.refs(f) == 1)
            });
        let Some((space, vp, _)) = victim else {
            return Err(OsError::OutOfMemory);
        };
        self.page_out(cpu, space, vp)
    }

    /// Page one anonymous page out to swap: flush its dirty cached data
    /// (the swap device reads memory — a DMA-read), write the block,
    /// break the mapping and free the frame.
    fn page_out(&mut self, cpu: CpuId, space: SpaceId, vp: VPage) -> Result<(), OsError> {
        self.spanned(Seg::Os("vm.page_out"), |k| k.page_out_inner(cpu, space, vp))
    }

    fn page_out_inner(&mut self, cpu: CpuId, space: SpaceId, vp: VPage) -> Result<(), OsError> {
        let entry = *self
            .task_entry(space, vp)
            .expect("paging out a nonexistent entry");
        let frame = entry.frame.expect("paging out an unmaterialized page");
        let block = self.swap.alloc()?;
        self.pmap.before_dma(
            cpu,
            &mut self.machine,
            frame,
            DmaDir::Read,
            AccessHints::default(),
        );
        let mut data = vec![0u8; self.page_size() as usize];
        self.machine.dma_read_page(frame, &mut data);
        self.swap.write(block, &data);
        self.trace(TraceEvent::OsDma {
            dir: DmaDir::Read,
            frame,
        });
        self.pmap
            .remove(cpu, &mut self.machine, Mapping::new(space, vp));
        self.release_frame(cpu, frame, Some(vp));
        let e = if space == SERVER_SPACE {
            self.server.task.entry_mut(vp)
        } else {
            self.space_of
                .get(&space)
                .copied()
                .and_then(|t| self.tasks.get_mut(&t))
                .and_then(|task| task.entry_mut(vp))
        }
        .expect("entry checked above");
        e.frame = None;
        e.swap = Some(block);
        self.stats.page_outs += 1;
        Ok(())
    }

    /// Page a swapped-out page back in: DMA its block into a fresh frame.
    fn page_in(
        &mut self,
        cpu: CpuId,
        block: crate::bufcache::BlockId,
        under: VPage,
    ) -> Result<PFrame, OsError> {
        self.spanned(Seg::Os("vm.page_in"), |k| {
            k.page_in_inner(cpu, block, under)
        })
    }

    fn page_in_inner(
        &mut self,
        cpu: CpuId,
        block: crate::bufcache::BlockId,
        under: VPage,
    ) -> Result<PFrame, OsError> {
        let frame = self.alloc_frame(cpu, Some(under))?;
        self.pmap.before_dma(
            cpu,
            &mut self.machine,
            frame,
            DmaDir::Write,
            AccessHints::discards(),
        );
        let data = self.swap.read(block);
        self.machine.dma_write_page(frame, &data);
        self.trace(TraceEvent::OsDma {
            dir: DmaDir::Write,
            frame,
        });
        self.swap.release(block);
        self.stats.page_ins += 1;
        Ok(frame)
    }

    /// Release a reference; `last_vp` is the virtual page the frame last
    /// lived under (binning its residue by color).
    fn release_frame(&mut self, cpu: CpuId, f: PFrame, last_vp: Option<VPage>) {
        let color = last_vp.map(|vp| (vp.0 % self.align_mod) as u32);
        if self.frames.release(f, color) {
            self.pmap.page_freed(cpu, &mut self.machine, f);
            self.stats.pages_freed += 1;
        }
    }

    // ---------------------------------------------------------------
    // Memory access with fault resolution

    fn task_entry(&self, space: SpaceId, vp: VPage) -> Option<&VmEntry> {
        if space == SERVER_SPACE {
            return self.server.task.entry(vp);
        }
        let t = self.space_of.get(&space)?;
        self.tasks.get(t)?.entry(vp)
    }

    fn set_entry_frame(&mut self, space: SpaceId, vp: VPage, frame: PFrame) {
        let entry = if space == SERVER_SPACE {
            self.server.task.entry_mut(vp)
        } else {
            self.space_of
                .get(&space)
                .copied()
                .and_then(|t| self.tasks.get_mut(&t))
                .and_then(|task| task.entry_mut(vp))
        };
        entry.expect("materializing a nonexistent entry").frame = Some(frame);
    }

    fn clear_entry_swap(&mut self, space: SpaceId, vp: VPage) {
        let entry = if space == SERVER_SPACE {
            self.server.task.entry_mut(vp)
        } else {
            self.space_of
                .get(&space)
                .copied()
                .and_then(|t| self.tasks.get_mut(&t))
                .and_then(|task| task.entry_mut(vp))
        };
        entry.expect("clearing swap of a nonexistent entry").swap = None;
    }

    fn set_entry_cow(&mut self, space: SpaceId, vp: VPage, cow: bool) {
        let entry = if space == SERVER_SPACE {
            self.server.task.entry_mut(vp)
        } else {
            self.space_of
                .get(&space)
                .copied()
                .and_then(|t| self.tasks.get_mut(&t))
                .and_then(|task| task.entry_mut(vp))
        };
        entry.expect("marking a nonexistent entry").cow = cow;
    }

    /// Resolve a copy-on-write fault on mapping `m`: if other owners still
    /// hold the frame, copy it into a private frame (through an aligned
    /// preparation window); either way the entry stops being
    /// copy-on-write. The caller retries the faulting access.
    fn cow_break(&mut self, cpu: CpuId, m: Mapping) -> Result<(), OsError> {
        self.spanned(Seg::Os("cow.break"), |k| k.cow_break_inner(cpu, m))
    }

    fn cow_break_inner(&mut self, cpu: CpuId, m: Mapping) -> Result<(), OsError> {
        let vp = m.vpage;
        let entry = *self.task_entry(m.space, vp).ok_or(OsError::BadAddress {
            mapping: m,
            access: Access::Write,
        })?;
        let old = entry.frame.expect("copy-on-write entry has a frame");
        self.stats.cow_faults += 1;
        if self.frames.refs(old) == 1 {
            // Sole remaining owner: drop the write cap, keep the frame.
            self.set_entry_cow(m.space, vp, false);
            if self.pmap.frame_of(m).is_some() {
                self.pmap.protect(cpu, &mut self.machine, m, entry.prot);
            }
            return Ok(());
        }
        let new = self.alloc_frame(cpu, Some(vp))?;
        self.copy_frame(cpu, old, new, Some(vp))?;
        self.pmap.remove(cpu, &mut self.machine, m);
        self.release_frame(cpu, old, Some(vp));
        self.set_entry_frame(m.space, vp, new);
        self.set_entry_cow(m.space, vp, false);
        self.stats.cow_copies += 1;
        self.trace(TraceEvent::CowBreak { src: old, dst: new });
        Ok(())
    }

    /// Copy a whole frame through kernel windows (source read-only, the
    /// destination optionally aligned with its ultimate mapping).
    fn copy_frame(
        &mut self,
        cpu: CpuId,
        src: PFrame,
        dst: PFrame,
        ultimate: Option<VPage>,
    ) -> Result<(), OsError> {
        let wvp = self.kwin.alloc(None);
        let wm = Mapping::new(KERNEL_SPACE, wvp);
        self.pmap.enter(cpu, &mut self.machine, wm, src, Prot::READ);
        let src_va = VAddr(wvp.0 * self.page_size());
        let r = self.copy_into_frame(cpu, KERNEL_SPACE, src_va, dst, ultimate, false);
        self.pmap.remove(cpu, &mut self.machine, wm);
        self.kwin.free(wvp);
        r
    }

    /// Resolve a hardware fault: either a consistency fault on a live
    /// mapping, or a mapping fault requiring VM materialization.
    fn resolve_fault(
        &mut self,
        cpu: CpuId,
        fault: Fault,
        hints: AccessHints,
    ) -> Result<(), OsError> {
        let m = fault.mapping();
        let access = fault.access();
        let costs = self.machine.config().costs;

        if self.pmap.frame_of(m).is_some() {
            // A write denied on a live copy-on-write mapping is a COW
            // fault, not a consistency fault: break the share; the retry
            // then faults again and maps the private copy.
            if access == Access::Write {
                if let Some(entry) = self.task_entry(m.space, m.vpage).copied() {
                    if entry.cow && entry.prot.allows(Access::Write) {
                        return self.cow_break(cpu, m);
                    }
                }
            }
            // A live mapping whose effective protection denied the access:
            // a consistency fault (pure virtually-indexed-cache overhead).
            return self.spanned(Seg::Os("fault.consistency"), |k| {
                k.machine.charge(costs.consistency_fault_service);
                k.stats.consistency_faults += 1;
                k.trace(TraceEvent::ConsistencyFault {
                    space: m.space,
                    vpage: m.vpage,
                });
                k.pmap
                    .consistency_fault(cpu, &mut k.machine, m, access, hints)
            });
        }

        // A mapping fault: lazily materialize the page-table entry. These
        // occur under any cache architecture.
        self.spanned(Seg::Os("fault.mapping"), |k| {
            k.machine.charge(costs.mapping_fault_service);
            k.stats.mapping_faults += 1;
            k.trace(TraceEvent::MappingFault {
                space: m.space,
                vpage: m.vpage,
            });
            let Some(mut entry) = k.task_entry(m.space, m.vpage).copied() else {
                return Err(OsError::BadAddress { mapping: m, access });
            };
            // A write into a copy-on-write page must break the share first.
            if entry.cow && access == Access::Write && entry.prot.allows(Access::Write) {
                k.cow_break(cpu, m)?;
                entry = *k
                    .task_entry(m.space, m.vpage)
                    .expect("entry survives cow break");
            }
            // Everything from here on is attributed to the page's class.
            k.spanned(Seg::Page(entry.kind.class()), |k| {
                let frame = match entry.frame {
                    Some(f) => f,
                    None => {
                        let f = match (entry.kind, entry.swap) {
                            (_, Some(block)) => {
                                let f = k.page_in(cpu, block, m.vpage)?;
                                k.clear_entry_swap(m.space, m.vpage);
                                f
                            }
                            (EntryKind::Text { file, page }, None) => {
                                k.load_text_frame(cpu, file, page, m.vpage)?
                            }
                            (EntryKind::FileMap { file, page }, None) => {
                                k.map_file_frame(cpu, file, page)?
                            }
                            _ => {
                                let f = k.alloc_frame(cpu, Some(m.vpage))?;
                                k.zero_fill(cpu, f, Some(m.vpage), false)?;
                                f
                            }
                        };
                        k.set_entry_frame(m.space, m.vpage, f);
                        f
                    }
                };
                k.pmap.enter(cpu, &mut k.machine, m, frame, entry.hw_prot());
                // Run the access transition implied by this very access. It
                // is inferred from the mapping fault, so it is NOT counted
                // as a consistency fault (paper §5.1).
                k.pmap
                    .consistency_fault(cpu, &mut k.machine, m, access, hints)
            })
        })
    }

    fn access_word(
        &mut self,
        cpu: CpuId,
        space: SpaceId,
        va: VAddr,
        access: Access,
        value: u32,
        hints: AccessHints,
    ) -> Result<u32, OsError> {
        // A few retries may be needed (mapping fault, then a consistency
        // transition per access kind); anything beyond a small bound is a
        // livelock bug in a manager.
        for _ in 0..8 {
            let r = match access {
                Access::Read => self.machine.load(space, va).map(Some),
                Access::Execute => self.machine.ifetch(space, va).map(Some),
                Access::Write => self.machine.store(space, va, value).map(|()| None),
            };
            match r {
                Ok(v) => return Ok(v.unwrap_or(0)),
                Err(fault) => self.resolve_fault(cpu, fault, hints)?,
            }
        }
        panic!(
            "livelock: {access} at {space}/{va} still faulting after resolution \
             (manager {} failed to grant access)",
            self.pmap.manager_name()
        );
    }

    /// Read a word from a task's address space.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`], [`OsError::BadAddress`],
    /// [`OsError::ProtectionViolation`], [`OsError::OutOfMemory`].
    pub fn read(&mut self, cpu: CpuId, t: TaskId, va: VAddr) -> Result<u32, OsError> {
        let space = self.task_space(t)?;
        self.access_word(cpu, space, va, Access::Read, 0, AccessHints::default())
    }

    /// Write a word into a task's address space.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::read`].
    pub fn write(&mut self, cpu: CpuId, t: TaskId, va: VAddr, value: u32) -> Result<(), OsError> {
        let space = self.task_space(t)?;
        self.access_word(cpu, space, va, Access::Write, value, AccessHints::default())?;
        Ok(())
    }

    /// Fetch an instruction word from a task's address space (through the
    /// instruction cache).
    ///
    /// # Errors
    ///
    /// As for [`Kernel::read`].
    pub fn fetch(&mut self, cpu: CpuId, t: TaskId, va: VAddr) -> Result<u32, OsError> {
        let space = self.task_space(t)?;
        self.access_word(cpu, space, va, Access::Execute, 0, AccessHints::default())
    }

    // ---------------------------------------------------------------
    // Run accesses (the bulk engine's kernel entry points)

    /// How many words of an `n`-word run starting at index `i` share word
    /// `i`'s virtual page.
    fn run_page_span(&self, va: VAddr, stride: u64, i: usize, n: usize) -> usize {
        let page = self.page_size();
        let vp = (va.0 + i as u64 * stride) / page;
        let mut k = 1usize;
        while i + k < n && (va.0 + (i + k) as u64 * stride) / page == vp {
            k += 1;
        }
        k
    }

    /// Access a run of words with fault resolution — equivalent to calling
    /// `Kernel::access_word` per word, but only each page's *first* word
    /// goes through the faulting path: once it succeeds, the page's
    /// mapping exists and its effective protection admits the access, and
    /// nothing below touches the pmap, so the rest of the page cannot
    /// fault and is handed to the machine's bulk-run engine.
    pub fn access_run(
        &mut self,
        cpu: CpuId,
        space: SpaceId,
        va: VAddr,
        stride: u64,
        run: RunAccess<'_>,
        hints: AccessHints,
    ) -> Result<(), OsError> {
        match run {
            RunAccess::Read(out) => {
                let n = out.len();
                let mut i = 0usize;
                while i < n {
                    let seg = self.run_page_span(va, stride, i, n);
                    let w0 = VAddr(va.0 + i as u64 * stride);
                    out[i] = self.access_word(cpu, space, w0, Access::Read, 0, hints)?;
                    if seg > 1 {
                        let rest = VAddr(w0.0 + stride);
                        if let Err(fault) =
                            self.machine
                                .load_run(space, rest, stride, &mut out[i + 1..i + seg])
                        {
                            panic!("run access faulted past its page's first word: {fault}");
                        }
                    }
                    i += seg;
                }
            }
            RunAccess::Write(values) => {
                let n = values.len();
                let mut i = 0usize;
                while i < n {
                    let seg = self.run_page_span(va, stride, i, n);
                    let w0 = VAddr(va.0 + i as u64 * stride);
                    self.access_word(cpu, space, w0, Access::Write, values[i], hints)?;
                    if seg > 1 {
                        let rest = VAddr(w0.0 + stride);
                        if let Err(fault) =
                            self.machine
                                .store_run(space, rest, stride, &values[i + 1..i + seg])
                        {
                            panic!("run access faulted past its page's first word: {fault}");
                        }
                    }
                    i += seg;
                }
            }
        }
        Ok(())
    }

    /// Copy a run of words with fault resolution on both endpoints —
    /// equivalent to the alternating [`Kernel::access_word`] read/write
    /// loop. Each page-pair segment's first word resolves faults through
    /// `access_word` (reads with default hints, writes with `dst_hints`,
    /// exactly as the word loops did); the rest goes through
    /// [`Machine::copy_run`].
    #[allow(clippy::too_many_arguments)] // internal helper: two (space, va) endpoints plus the CPU
    fn copy_run(
        &mut self,
        cpu: CpuId,
        src_space: SpaceId,
        src_va: VAddr,
        dst_space: SpaceId,
        dst_va: VAddr,
        nwords: usize,
        dst_hints: AccessHints,
    ) -> Result<(), OsError> {
        let mut i = 0usize;
        while i < nwords {
            let seg = self
                .run_page_span(src_va, 4, i, nwords)
                .min(self.run_page_span(dst_va, 4, i, nwords));
            let s0 = VAddr(src_va.0 + i as u64 * 4);
            let d0 = VAddr(dst_va.0 + i as u64 * 4);
            let v =
                self.access_word(cpu, src_space, s0, Access::Read, 0, AccessHints::default())?;
            self.access_word(cpu, dst_space, d0, Access::Write, v, dst_hints)?;
            if seg > 1 {
                if let Err(fault) = self.machine.copy_run(
                    src_space,
                    VAddr(s0.0 + 4),
                    dst_space,
                    VAddr(d0.0 + 4),
                    seg - 1,
                ) {
                    panic!("run copy faulted past its pages' first words: {fault}");
                }
            }
            i += seg;
        }
        Ok(())
    }

    /// Read a run of words from a task's address space, `stride` bytes
    /// apart, into `out` — equivalent to [`Kernel::read`] per word.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::read`].
    pub fn read_run(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        va: VAddr,
        stride: u64,
        out: &mut [u32],
    ) -> Result<(), OsError> {
        let space = self.task_space(t)?;
        self.access_run(
            cpu,
            space,
            va,
            stride,
            RunAccess::Read(out),
            AccessHints::default(),
        )
    }

    /// Write a run of words into a task's address space, `stride` bytes
    /// apart — equivalent to [`Kernel::write`] per word.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::read`].
    pub fn write_run(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        va: VAddr,
        stride: u64,
        values: &[u32],
    ) -> Result<(), OsError> {
        let space = self.task_space(t)?;
        self.access_run(
            cpu,
            space,
            va,
            stride,
            RunAccess::Write(values),
            AccessHints::default(),
        )
    }

    // ---------------------------------------------------------------
    // VM operations

    /// Allocate `npages` of zero-filled anonymous memory.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`].
    pub fn vm_allocate(&mut self, t: TaskId, npages: u64) -> Result<VAddr, OsError> {
        let page_size = self.page_size();
        let task = self.tasks.get_mut(&t).ok_or(OsError::NoSuchTask(t.0))?;
        let vp = task.allocate(
            npages,
            AddrSelect::FirstFit,
            VmEntry::anon(Prot::READ_WRITE),
        )?;
        Ok(VAddr(vp.0 * page_size))
    }

    /// Deallocate `npages` starting at `va`.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`].
    pub fn vm_deallocate(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        va: VAddr,
        npages: u64,
    ) -> Result<(), OsError> {
        self.spanned(Seg::Os("vm.deallocate"), |k| {
            k.vm_deallocate_inner(cpu, t, va, npages)
        })
    }

    fn vm_deallocate_inner(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        va: VAddr,
        npages: u64,
    ) -> Result<(), OsError> {
        let page_size = self.page_size();
        let space = self.task_space(t)?;
        for i in (0..npages).rev() {
            let vp = VPage(va.0 / page_size + i);
            let entry = {
                let task = self.tasks.get_mut(&t).expect("checked above");
                task.remove(vp)
            };
            if let Some(entry) = entry {
                self.pmap
                    .remove(cpu, &mut self.machine, Mapping::new(space, vp));
                if let Some(frame) = entry.frame {
                    self.release_frame(cpu, frame, Some(vp));
                }
                if let Some(block) = entry.swap {
                    self.swap.release(block);
                }
            }
        }
        Ok(())
    }

    /// Map one page of `src`'s space into `dst`'s space (shared memory).
    /// With the align-pages policy the destination address aligns with the
    /// source's; otherwise first-fit.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`], [`OsError::OutOfMemory`].
    pub fn vm_share(
        &mut self,
        cpu: CpuId,
        src: TaskId,
        src_va: VAddr,
        dst: TaskId,
    ) -> Result<VAddr, OsError> {
        let select = if self.policy.align_addresses {
            ShareAlignment::Aligned
        } else {
            ShareAlignment::FirstFit
        };
        self.vm_share_with(cpu, src, src_va, dst, select)
    }

    /// [`Kernel::vm_share`] with explicit control over the destination's
    /// alignment — experiments compare aligned against unaligned aliases
    /// independent of the system policy.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`], [`OsError::OutOfMemory`].
    pub fn vm_share_with(
        &mut self,
        cpu: CpuId,
        src: TaskId,
        src_va: VAddr,
        dst: TaskId,
        alignment: ShareAlignment,
    ) -> Result<VAddr, OsError> {
        let page_size = self.page_size();
        let src_vp = VPage(src_va.0 / page_size);
        let mut frame = self.ensure_materialized(cpu, src, src_vp)?;
        // Sharing grants write access to the frame: a copy-on-write page
        // must be privatized first or writes would leak into the other
        // copy-on-write owners' snapshot.
        let src_space = self.task_space(src)?;
        if self.task_entry(src_space, src_vp).is_some_and(|e| e.cow) {
            self.cow_break(cpu, Mapping::new(src_space, src_vp))?;
            frame = self
                .task_entry(src_space, src_vp)
                .and_then(|e| e.frame)
                .expect("cow break materialized");
        }
        self.frames.add_ref(frame);
        let select = match alignment {
            ShareAlignment::FirstFit => AddrSelect::FirstFit,
            ShareAlignment::Aligned => AddrSelect::AlignedWith(src_vp),
            ShareAlignment::Unaligned => AddrSelect::UnalignedWith(src_vp),
        };
        let task = self.tasks.get_mut(&dst).ok_or(OsError::NoSuchTask(dst.0))?;
        let vp = task.allocate(
            1,
            select,
            VmEntry::over(frame, Prot::READ_WRITE, EntryKind::Shared),
        )?;
        Ok(VAddr(vp.0 * page_size))
    }

    /// Copy `npages` from `src`'s space into `dst`'s space **lazily**:
    /// both sides share the frames copy-on-write; the first write on
    /// either side copies the page (Mach's `vm_copy`, one of the alias
    /// sources the paper names). With the align-pages policy the
    /// destination range aligns with the source page-for-page, so even the
    /// shared read-only phase costs no cache management.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`], [`OsError::BadAddress`],
    /// [`OsError::OutOfMemory`].
    pub fn vm_copy(
        &mut self,
        cpu: CpuId,
        src: TaskId,
        src_va: VAddr,
        npages: u64,
        dst: TaskId,
    ) -> Result<VAddr, OsError> {
        let page_size = self.page_size();
        let src_vp0 = VPage(src_va.0 / page_size);
        let src_space = self.task_space(src)?;
        // Materialize and mark every source page copy-on-write.
        let mut frames = Vec::with_capacity(npages as usize);
        for i in 0..npages {
            let vp = VPage(src_vp0.0 + i);
            let frame = self.ensure_materialized(cpu, src, vp)?;
            self.frames.add_ref(frame);
            frames.push(frame);
            let entry = *self.task_entry(src_space, vp).expect("just materialized");
            if !entry.cow {
                self.set_entry_cow(src_space, vp, true);
                let m = Mapping::new(src_space, vp);
                if self.pmap.frame_of(m).is_some() {
                    // Cap the live mapping: the next write faults.
                    self.pmap
                        .protect(cpu, &mut self.machine, m, entry.prot.without(Access::Write));
                }
            }
        }
        // Reserve the destination range (aligned page-for-page when the
        // policy allows address selection).
        let select = if self.policy.align_addresses {
            AddrSelect::AlignedWith(src_vp0)
        } else {
            AddrSelect::FirstFit
        };
        let dst_vp0 = {
            let task = self.tasks.get_mut(&dst).ok_or(OsError::NoSuchTask(dst.0))?;
            task.allocate(npages, select, VmEntry::anon(Prot::READ_WRITE))?
        };
        for (i, frame) in frames.into_iter().enumerate() {
            let vp = VPage(dst_vp0.0 + i as u64);
            let task = self.tasks.get_mut(&dst).expect("checked");
            let e = task.entry_mut(vp).expect("just allocated");
            e.frame = Some(frame);
            e.cow = true;
        }
        Ok(VAddr(dst_vp0.0 * page_size))
    }

    /// Materialize the frame behind a task page (allocating + zero-filling
    /// if untouched).
    fn ensure_materialized(&mut self, cpu: CpuId, t: TaskId, vp: VPage) -> Result<PFrame, OsError> {
        let space = self.task_space(t)?;
        let entry = *self.task_entry(space, vp).ok_or(OsError::BadAddress {
            mapping: Mapping::new(space, vp),
            access: Access::Read,
        })?;
        if let Some(f) = entry.frame {
            return Ok(f);
        }
        let f = match (entry.kind, entry.swap) {
            (_, Some(block)) => {
                let f = self.page_in(cpu, block, vp)?;
                self.clear_entry_swap(space, vp);
                f
            }
            (EntryKind::Text { file, page }, None) => self.load_text_frame(cpu, file, page, vp)?,
            (EntryKind::FileMap { file, page }, None) => self.map_file_frame(cpu, file, page)?,
            _ => {
                let f = self.alloc_frame(cpu, Some(vp))?;
                self.zero_fill(cpu, f, Some(vp), false)?;
                f
            }
        };
        self.set_entry_frame(space, vp, f);
        Ok(f)
    }

    /// Move one page from `from`'s space into `to`'s space — the kernel's
    /// IPC page transfer (Mach moves, rather than copies, message pages).
    /// With the align-pages policy the receiver's address aligns with the
    /// sender's, making all cache management unnecessary.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`], [`OsError::BadAddress`],
    /// [`OsError::OutOfMemory`].
    pub fn ipc_transfer_page(
        &mut self,
        cpu: CpuId,
        from: TaskId,
        va: VAddr,
        to: TaskId,
    ) -> Result<VAddr, OsError> {
        self.spanned(Seg::Os("ipc.transfer"), |k| {
            k.ipc_transfer_page_inner(cpu, from, va, to)
        })
    }

    fn ipc_transfer_page_inner(
        &mut self,
        cpu: CpuId,
        from: TaskId,
        va: VAddr,
        to: TaskId,
    ) -> Result<VAddr, OsError> {
        let page_size = self.page_size();
        let src_vp = VPage(va.0 / page_size);
        let mut frame = self.ensure_materialized(cpu, from, src_vp)?;
        let src_space = self.task_space(from)?;
        // Moving a copy-on-write page would hand the receiver write access
        // to a shared frame; privatize it first.
        if self.task_entry(src_space, src_vp).is_some_and(|e| e.cow) {
            self.cow_break(cpu, Mapping::new(src_space, src_vp))?;
            frame = self
                .task_entry(src_space, src_vp)
                .and_then(|e| e.frame)
                .expect("cow break materialized");
        }
        {
            let task = self.tasks.get_mut(&from).expect("checked");
            task.remove(src_vp);
        }
        self.pmap
            .remove(cpu, &mut self.machine, Mapping::new(src_space, src_vp));
        let select = if self.policy.align_addresses {
            AddrSelect::AlignedWith(src_vp)
        } else {
            AddrSelect::FirstFit
        };
        let task = self.tasks.get_mut(&to).ok_or(OsError::NoSuchTask(to.0))?;
        let vp = task.allocate(
            1,
            select,
            VmEntry::over(frame, Prot::READ_WRITE, EntryKind::Ipc),
        )?;
        self.stats.ipc_transfers += 1;
        self.trace(TraceEvent::IpcTransfer { frame });
        Ok(VAddr(vp.0 * page_size))
    }

    // ---------------------------------------------------------------
    // Page preparation

    /// Zero-fill a frame through a kernel window. With aligned preparation
    /// the window aligns with the page's ultimate mapping; the writes carry
    /// `will_overwrite` (no purge of stale data) and `need_data = false`
    /// (recycled contents may be purged rather than flushed).
    fn zero_fill(
        &mut self,
        cpu: CpuId,
        frame: PFrame,
        ultimate: Option<VPage>,
        is_text: bool,
    ) -> Result<(), OsError> {
        self.spanned(Seg::Os("prepare.zero_fill"), |k| {
            k.zero_fill_inner(cpu, frame, ultimate, is_text)
        })
    }

    fn zero_fill_inner(
        &mut self,
        cpu: CpuId,
        frame: PFrame,
        ultimate: Option<VPage>,
        is_text: bool,
    ) -> Result<(), OsError> {
        let want = self.aligned_prep_target(ultimate, is_text);
        let wvp = self.kwin.alloc(want);
        let m = Mapping::new(KERNEL_SPACE, wvp);
        self.pmap
            .enter(cpu, &mut self.machine, m, frame, Prot::READ_WRITE);
        let base = wvp.0 * self.page_size();
        let hints = AccessHints {
            will_overwrite: true,
            need_data: false,
        };
        let n = (self.page_size() / 4) as usize;
        let mut zeros = std::mem::take(&mut self.run_buf);
        zeros.clear();
        zeros.resize(n, 0);
        // Save the result and tear the window down either way: an `Err`
        // must not leak the window mapping or its busy bit.
        let r = self.access_run(
            cpu,
            KERNEL_SPACE,
            VAddr(base),
            4,
            RunAccess::Write(&zeros),
            hints,
        );
        self.run_buf = zeros;
        self.pmap.remove(cpu, &mut self.machine, m);
        self.kwin.free(wvp);
        r?;
        self.stats.zero_fills += 1;
        self.trace(TraceEvent::ZeroFill { frame });
        Ok(())
    }

    fn aligned_prep_target(&self, ultimate: Option<VPage>, is_text: bool) -> Option<u64> {
        let aligned = match self.prepare_scope {
            PrepareScope::All => true,
            PrepareScope::TextOnly => is_text,
            PrepareScope::None => false,
        };
        match (aligned, ultimate) {
            (true, Some(vp)) => Some(vp.0 % self.align_mod),
            _ => None,
        }
    }

    /// Copy a source page (already mapped at `src_va` in `src_space`) into
    /// `dst_frame` through a kernel window.
    fn copy_into_frame(
        &mut self,
        cpu: CpuId,
        src_space: SpaceId,
        src_va: VAddr,
        dst_frame: PFrame,
        ultimate: Option<VPage>,
        is_text: bool,
    ) -> Result<(), OsError> {
        self.spanned(Seg::Os("prepare.copy"), |k| {
            k.copy_into_frame_inner(cpu, src_space, src_va, dst_frame, ultimate, is_text)
        })
    }

    fn copy_into_frame_inner(
        &mut self,
        cpu: CpuId,
        src_space: SpaceId,
        src_va: VAddr,
        dst_frame: PFrame,
        ultimate: Option<VPage>,
        is_text: bool,
    ) -> Result<(), OsError> {
        let want = self.aligned_prep_target(ultimate, is_text);
        let wvp = self.kwin.alloc(want);
        let m = Mapping::new(KERNEL_SPACE, wvp);
        self.pmap
            .enter(cpu, &mut self.machine, m, dst_frame, Prot::READ_WRITE);
        let dst_base = wvp.0 * self.page_size();
        let hints = AccessHints {
            will_overwrite: true,
            need_data: false,
        };
        let n = (self.page_size() / 4) as usize;
        // Save the result and tear the window down either way: an `Err`
        // (e.g. an unmapped source) must not leak the window mapping or
        // its busy bit.
        let r = self.copy_run(
            cpu,
            src_space,
            src_va,
            KERNEL_SPACE,
            VAddr(dst_base),
            n,
            hints,
        );
        self.pmap.remove(cpu, &mut self.machine, m);
        self.kwin.free(wvp);
        r?;
        self.stats.page_copies += 1;
        if self
            .machine
            .observers()
            .is_some_and(|o| o.tracer.is_enabled())
        {
            let src_vp = VPage(src_va.0 / self.page_size());
            if let Some(src) = self.pmap.frame_of(Mapping::new(src_space, src_vp)) {
                self.trace(TraceEvent::PageCopy {
                    src,
                    dst: dst_frame,
                });
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Buffer cache and file system

    fn buf_vaddr(&self, slot: usize) -> VAddr {
        VAddr(self.bufcache.vpage_of(slot).0 * self.page_size())
    }

    fn write_buffer_to_disk(&mut self, cpu: CpuId, buf: Buf) {
        self.spanned(Seg::Os("buf.writeback"), |k| {
            // The device reads the buffer out of memory: a DMA-read; dirty
            // cached data must reach memory first.
            k.pmap.before_dma(
                cpu,
                &mut k.machine,
                buf.frame,
                DmaDir::Read,
                AccessHints::default(),
            );
            let mut data = vec![0u8; k.page_size() as usize];
            k.machine.dma_read_page(buf.frame, &mut data);
            k.disk.write(buf.block, &data);
            k.stats.buf_writebacks += 1;
            k.trace(TraceEvent::OsDma {
                dir: DmaDir::Read,
                frame: buf.frame,
            });
        });
    }

    /// Get the buffer slot caching `block`, loading it (DMA) on a miss.
    /// The hit path stays span-free (it spends no cycles).
    fn buf_get(
        &mut self,
        cpu: CpuId,
        block: crate::bufcache::BlockId,
        load: bool,
    ) -> Result<usize, OsError> {
        if let Some(slot) = self.bufcache.lookup(block) {
            return Ok(slot);
        }
        self.spanned(Seg::Os("buf.fill"), |k| k.buf_fill(cpu, block, load))
    }

    /// The buffer-cache miss path: evict a victim, then (optionally) DMA
    /// the block in and map the new buffer.
    fn buf_fill(
        &mut self,
        cpu: CpuId,
        block: crate::bufcache::BlockId,
        load: bool,
    ) -> Result<usize, OsError> {
        self.stats.buf_misses += 1;
        let (slot, evicted) = self.bufcache.pick_victim();
        if let Some(old) = evicted {
            if old.dirty {
                self.write_buffer_to_disk(cpu, old);
            }
            let vp = self.bufcache.vpage_of(slot);
            let m = Mapping::new(KERNEL_SPACE, vp);
            self.pmap.remove(cpu, &mut self.machine, m);
            self.release_frame(cpu, old.frame, Some(vp));
        }
        let frame = self.alloc_frame(cpu, Some(self.bufcache.vpage_of(slot)))?;
        if load {
            // The device writes the block into memory: a DMA-write; any
            // cached residue of the recycled frame is killed (purged, not
            // flushed — the data is dead and memory is being overwritten).
            self.pmap.before_dma(
                cpu,
                &mut self.machine,
                frame,
                DmaDir::Write,
                AccessHints::discards(),
            );
            let data = self.disk.read(block);
            self.machine.dma_write_page(frame, &data);
            self.trace(TraceEvent::OsDma {
                dir: DmaDir::Write,
                frame,
            });
        }
        let m = Mapping::new(KERNEL_SPACE, self.bufcache.vpage_of(slot));
        self.pmap
            .enter(cpu, &mut self.machine, m, frame, Prot::READ_WRITE);
        self.bufcache.install(slot, block, frame);
        Ok(slot)
    }

    /// Create an empty file.
    pub fn fs_create(&mut self) -> FileId {
        self.fs.create()
    }

    /// Read one file page into the task's memory at `dst_va` (via the Unix
    /// server and the buffer cache).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`], [`OsError::FileOutOfRange`], plus the
    /// access errors of [`Kernel::read`].
    pub fn fs_read_page(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        f: FileId,
        page: u64,
        dst_va: VAddr,
    ) -> Result<(), OsError> {
        self.spanned(Seg::Os("fs.read"), |k| {
            k.fs_read_page_inner(cpu, t, f, page, dst_va)
        })
    }

    fn fs_read_page_inner(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        f: FileId,
        page: u64,
        dst_va: VAddr,
    ) -> Result<(), OsError> {
        self.server_round_trip(cpu, t)?;
        let block = self.fs.block_at(f, page)?;
        let slot = self.buf_get(cpu, block, true)?;
        let src = self.buf_vaddr(slot);
        let space = self.task_space(t)?;
        let hints = AccessHints {
            will_overwrite: true,
            need_data: true,
        };
        let n = (self.page_size() / 4) as usize;
        self.copy_run(cpu, KERNEL_SPACE, src, space, dst_va, n, hints)?;
        self.stats.fs_reads += 1;
        Ok(())
    }

    /// Write one page of the task's memory at `src_va` into the file
    /// (absorbed by the buffer cache; reaches the disk at the next sync or
    /// eviction — write-behind).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`], [`OsError::DiskFull`], plus the access
    /// errors of [`Kernel::read`].
    pub fn fs_write_page(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        f: FileId,
        page: u64,
        src_va: VAddr,
    ) -> Result<(), OsError> {
        self.spanned(Seg::Os("fs.write"), |k| {
            k.fs_write_page_inner(cpu, t, f, page, src_va)
        })
    }

    fn fs_write_page_inner(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        f: FileId,
        page: u64,
        src_va: VAddr,
    ) -> Result<(), OsError> {
        self.server_round_trip(cpu, t)?;
        let fresh = self.fs.len_pages(f)? <= page;
        let block = self.fs.ensure_block(f, page, &mut self.disk)?;
        // A fresh block has nothing on disk worth DMA-ing in; the copy
        // below overwrites the whole buffer anyway.
        let slot = self.buf_get(cpu, block, !fresh)?;
        let dst = self.buf_vaddr(slot);
        let space = self.task_space(t)?;
        let hints = AccessHints {
            will_overwrite: true,
            need_data: true,
        };
        let n = (self.page_size() / 4) as usize;
        self.copy_run(cpu, space, src_va, KERNEL_SPACE, dst, n, hints)?;
        self.bufcache.mark_dirty(slot);
        self.stats.fs_writes += 1;
        Ok(())
    }

    /// Delete a file: releases its blocks and drops any cached buffers
    /// (dirty data is discarded — the file is gone).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`].
    pub fn fs_delete(&mut self, cpu: CpuId, f: FileId) -> Result<(), OsError> {
        let blocks = self.fs.delete(f, &mut self.disk)?;
        for b in blocks {
            if let Some((slot, buf)) = self.bufcache.evict_block(b) {
                let vp = self.bufcache.vpage_of(slot);
                self.pmap
                    .remove(cpu, &mut self.machine, Mapping::new(KERNEL_SPACE, vp));
                self.release_frame(cpu, buf.frame, Some(vp));
            }
        }
        Ok(())
    }

    /// Write every dirty buffer to disk (the write-behind sync).
    pub fn sync(&mut self, cpu: CpuId) {
        self.spanned(Seg::Os("buf.sync"), |k| {
            for slot in k.bufcache.dirty_slots() {
                let buf = *k.bufcache.buf(slot).expect("dirty slot is occupied");
                k.write_buffer_to_disk(cpu, buf);
                k.bufcache.mark_clean(slot);
            }
        });
    }

    // ---------------------------------------------------------------
    // Exec: text loading with data-to-instruction-space copies

    /// Load a text page: DMA the file block into the buffer cache, then
    /// CPU-copy it into a fresh frame (the copy writes through the *data*
    /// cache; the paper's data-to-instruction-space traffic).
    fn load_text_frame(
        &mut self,
        cpu: CpuId,
        file: FileId,
        page: u64,
        ultimate_vp: VPage,
    ) -> Result<PFrame, OsError> {
        self.spanned(Seg::Os("exec.text_load"), |k| {
            k.load_text_frame_inner(cpu, file, page, ultimate_vp)
        })
    }

    fn load_text_frame_inner(
        &mut self,
        cpu: CpuId,
        file: FileId,
        page: u64,
        ultimate_vp: VPage,
    ) -> Result<PFrame, OsError> {
        let block = self.fs.block_at(file, page)?;
        let slot = self.buf_get(cpu, block, true)?;
        let src = self.buf_vaddr(slot);
        let frame = self.alloc_frame(cpu, Some(ultimate_vp))?;
        self.copy_into_frame(cpu, KERNEL_SPACE, src, frame, Some(ultimate_vp), true)?;
        self.stats.d2i_copies += 1;
        Ok(frame)
    }

    /// Map `npages` of a file as program text (read/execute) into a task.
    /// Pages are copied from the buffer cache on first fault.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`], [`OsError::NoSuchFile`].
    pub fn exec_text(&mut self, t: TaskId, f: FileId, npages: u64) -> Result<VAddr, OsError> {
        self.fs.blocks(f)?; // validate the file exists
        let page_size = self.page_size();
        let task = self.tasks.get_mut(&t).ok_or(OsError::NoSuchTask(t.0))?;
        let mut first = None;
        for page in 0..npages {
            let vp = task.allocate(
                1,
                AddrSelect::FirstFit,
                VmEntry {
                    frame: None,
                    prot: Prot::READ_EXECUTE,
                    kind: EntryKind::Text { file: f, page },
                    cow: false,
                    swap: None,
                },
            )?;
            if first.is_none() {
                first = Some(vp);
            }
        }
        Ok(VAddr(first.expect("npages > 0").0 * page_size))
    }

    /// Fetch `nwords` instruction words starting at `va` (a straight-line
    /// "run" of loaded text).
    ///
    /// # Errors
    ///
    /// As for [`Kernel::fetch`].
    pub fn run_text(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        va: VAddr,
        nwords: u64,
    ) -> Result<(), OsError> {
        for i in 0..nwords {
            self.fetch(cpu, t, VAddr(va.0 + i * 4))?;
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // File mapping (mmap)

    /// The shared frame behind one file page: the buffer cache's frame,
    /// loaded (DMA) if absent, with a reference added for the new mapping.
    fn map_file_frame(&mut self, cpu: CpuId, file: FileId, page: u64) -> Result<PFrame, OsError> {
        let block = self.fs.block_at(file, page)?;
        let slot = self.buf_get(cpu, block, true)?;
        let frame = self.bufcache.buf(slot).expect("just loaded").frame;
        self.frames.add_ref(frame);
        Ok(frame)
    }

    /// Map `npages` of a file read-only into a task's space, **sharing the
    /// buffer cache's frames** (mmap-style). The user mapping aliases the
    /// kernel's buffer mapping — with the align-pages policy the kernel
    /// lets the range align with buffer addresses where possible; file
    /// writes through [`Kernel::fs_write_page`] remain immediately visible
    /// through the mapping (same frame), with the consistency manager
    /// mediating the alias.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`], [`OsError::NoSuchFile`],
    /// [`OsError::FileOutOfRange`].
    pub fn vm_map_file(
        &mut self,
        cpu: CpuId,
        t: TaskId,
        file: FileId,
        first_page: u64,
        npages: u64,
    ) -> Result<VAddr, OsError> {
        let page_size = self.page_size();
        // Validate the range up front.
        for p in 0..npages {
            self.fs.block_at(file, first_page + p)?;
        }
        // With address selection enabled, align the start with the buffer
        // slot that holds (or will hold) the first page, so steady-state
        // reads need no consistency work.
        let select = if self.policy.align_addresses {
            let block = self.fs.block_at(file, first_page)?;
            let slot = self.buf_get(cpu, block, true)?;
            AddrSelect::AlignedWith(self.bufcache.vpage_of(slot))
        } else {
            AddrSelect::FirstFit
        };
        let task = self.tasks.get_mut(&t).ok_or(OsError::NoSuchTask(t.0))?;
        let vp0 = task.allocate(npages, select, VmEntry::anon(Prot::READ))?;
        for p in 0..npages {
            let task = self.tasks.get_mut(&t).expect("checked");
            let e = task.entry_mut(VPage(vp0.0 + p)).expect("just allocated");
            *e = VmEntry {
                frame: None,
                prot: Prot::READ,
                kind: EntryKind::FileMap {
                    file,
                    page: first_page + p,
                },
                cow: false,
                swap: None,
            };
        }
        Ok(VAddr(vp0.0 * page_size))
    }

    /// [`Kernel::vm_map_file`] at a caller-chosen virtual page — the
    /// paper's "shared persistent data structures" case (§2.2): data whose
    /// internal pointers demand a *specific* address, even though it rarely
    /// aligns with the buffer cache's copy. Correct under every manager,
    /// at the price of alias management.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::vm_map_file`], plus [`OsError::AddressInUse`].
    pub fn vm_map_file_at(
        &mut self,
        t: TaskId,
        file: FileId,
        first_page: u64,
        npages: u64,
        at: VAddr,
    ) -> Result<VAddr, OsError> {
        let page_size = self.page_size();
        for p in 0..npages {
            self.fs.block_at(file, first_page + p)?;
        }
        let want = VPage(at.0 / page_size);
        let task = self.tasks.get_mut(&t).ok_or(OsError::NoSuchTask(t.0))?;
        let vp0 = task.allocate(npages, AddrSelect::Exact(want), VmEntry::anon(Prot::READ))?;
        for p in 0..npages {
            let task = self.tasks.get_mut(&t).expect("checked");
            let e = task.entry_mut(VPage(vp0.0 + p)).expect("just allocated");
            *e = VmEntry {
                frame: None,
                prot: Prot::READ,
                kind: EntryKind::FileMap {
                    file,
                    page: first_page + p,
                },
                cow: false,
                swap: None,
            };
        }
        Ok(VAddr(vp0.0 * page_size))
    }

    // ---------------------------------------------------------------
    // Unix server emulation

    /// Establish (or look up) the task's shared channel page with the Unix
    /// server. Returns (client_va, server_va).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchTask`], [`OsError::OutOfMemory`].
    pub fn ensure_channel(&mut self, cpu: CpuId, t: TaskId) -> Result<(VAddr, VAddr), OsError> {
        let page_size = self.page_size();
        if let Some(ch) = self.server.channel(t.0) {
            return Ok((
                VAddr(ch.client_vp.0 * page_size),
                VAddr(ch.server_vp.0 * page_size),
            ));
        }
        let client_vp = {
            let task = self.tasks.get_mut(&t).ok_or(OsError::NoSuchTask(t.0))?;
            task.allocate(
                1,
                AddrSelect::FirstFit,
                VmEntry {
                    frame: None,
                    prot: Prot::READ_WRITE,
                    kind: EntryKind::ServerChannel,
                    cow: false,
                    swap: None,
                },
            )?
        };
        let frame = self.alloc_frame(cpu, Some(client_vp))?;
        self.set_entry_frame(self.task_space(t)?, client_vp, frame);
        self.zero_fill(cpu, frame, Some(client_vp), false)?;
        let server_vp = if self.policy.align_addresses {
            // Let the VM system pick an aligning address.
            self.server.task.allocate(
                1,
                AddrSelect::AlignedWith(client_vp),
                VmEntry::over(frame, Prot::READ_WRITE, EntryKind::ServerChannel),
            )?
        } else {
            // The old behaviour: the server requests a specific address of
            // its own, which rarely aligns with the client's.
            let vp = self.server.next_fixed_vp();
            self.server.task.allocate(
                1,
                AddrSelect::Exact(vp),
                VmEntry::over(frame, Prot::READ_WRITE, EntryKind::ServerChannel),
            )?
        };
        self.frames.add_ref(frame);
        self.server.register(
            t.0,
            Channel {
                frame,
                client_vp,
                server_vp,
            },
        );
        Ok((
            VAddr(client_vp.0 * page_size),
            VAddr(server_vp.0 * page_size),
        ))
    }

    /// One request/reply round trip over the task's server channel: the
    /// client writes a request into the shared page, the server reads it
    /// and writes a reply, the client reads the reply. This is the
    /// high-bandwidth kernel-bypass path whose alias behaviour §4.2
    /// discusses; every Unix-style file operation rides on it.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::read`].
    pub fn server_round_trip(&mut self, cpu: CpuId, t: TaskId) -> Result<(), OsError> {
        self.spanned(Seg::Os("server.round_trip"), |k| {
            k.server_round_trip_inner(cpu, t)
        })
    }

    fn server_round_trip_inner(&mut self, cpu: CpuId, t: TaskId) -> Result<(), OsError> {
        const REQ_WORDS: u64 = 8;
        const REP_WORDS: u64 = 4;
        let (cva, sva) = self.ensure_channel(cpu, t)?;
        let space = self.task_space(t)?;
        for i in 0..REQ_WORDS {
            let v = self.seq;
            self.seq = self.seq.wrapping_add(1);
            self.access_word(
                cpu,
                space,
                VAddr(cva.0 + i * 4),
                Access::Write,
                v,
                AccessHints::default(),
            )?;
        }
        for i in 0..REQ_WORDS {
            self.access_word(
                cpu,
                SERVER_SPACE,
                VAddr(sva.0 + i * 4),
                Access::Read,
                0,
                AccessHints::default(),
            )?;
        }
        let rep_base = REQ_WORDS * 4;
        for i in 0..REP_WORDS {
            let v = self.seq;
            self.seq = self.seq.wrapping_add(1);
            self.access_word(
                cpu,
                SERVER_SPACE,
                VAddr(sva.0 + rep_base + i * 4),
                Access::Write,
                v,
                AccessHints::default(),
            )?;
        }
        for i in 0..REP_WORDS {
            self.access_word(
                cpu,
                space,
                VAddr(cva.0 + rep_base + i * 4),
                Access::Read,
                0,
                AccessHints::default(),
            )?;
        }
        Ok(())
    }
}

/// Section tag bracketing the kernel's state in a word stream.
const KERNEL_STATE_TAG: u64 = u64::from_le_bytes(*b"kernel-1");

impl KernelWindows {
    /// Serialize the window allocator: the busy set (sorted — it is a hash
    /// set consulted by membership only) and the first-fit cursor.
    fn save_state(&self, w: &mut WordWriter) {
        let mut busy: Vec<u64> = self.busy.iter().copied().collect();
        busy.sort_unstable();
        w.usize(busy.len());
        for vp in busy {
            w.u64(vp);
        }
        w.u64(self.cursor);
    }

    /// Restore state saved by [`KernelWindows::save_state`].
    fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        let n = r.usize()?;
        self.busy.clear();
        for _ in 0..n {
            self.busy.insert(r.u64()?);
        }
        self.cursor = r.u64()?;
        Ok(())
    }
}

impl Kernel {
    /// Serialize the complete system state: the machine (CPU + shared
    /// halves), the pmap with its consistency manager, the frame table,
    /// every task's address map, both disks, the buffer cache, the file
    /// system, the Unix server, kernel counters and the window allocator.
    ///
    /// Configuration is *not* written: a checkpoint restores only into a
    /// kernel built with the identical [`KernelConfig`] (restore validates
    /// sized structures and rejects mismatches as
    /// [`SerialError::Corrupt`]). Attached observers
    /// ([`vic_machine::Observers`]) are deliberately not part of the
    /// state — see DESIGN.md.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.tag(KERNEL_STATE_TAG);
        self.machine.save_state(w);
        self.pmap.save_state(w);
        self.frames.save_state(w);
        w.usize(self.tasks.len());
        for (id, task) in &self.tasks {
            w.u32(id.0);
            task.save_state(w);
        }
        w.u32(self.next_task);
        w.u32(self.next_space);
        self.disk.save_state(w);
        self.swap.save_state(w);
        self.bufcache.save_state(w);
        self.fs.save_state(w);
        self.server.save_state(w);
        self.stats.save_state(w);
        self.kwin.save_state(w);
        w.u32(self.seq);
    }

    /// Restore state saved by [`Kernel::save_state`] into a kernel built
    /// with the identical configuration. The space-to-task index is derived
    /// state, rebuilt from the restored tasks; the reusable run scratch
    /// buffer is not state (it is reinitialized before every use).
    ///
    /// # Errors
    ///
    /// [`SerialError::Truncated`] if the stream ends early;
    /// [`SerialError::Corrupt`] on a tag mismatch or a structure whose size
    /// disagrees with this kernel's configuration.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        r.expect(KERNEL_STATE_TAG)?;
        let frames = self.machine.config().num_frames();
        self.machine.restore_state(r)?;
        self.pmap.restore_state(r, frames)?;
        self.frames.restore_state(r)?;
        let n = r.usize()?;
        self.tasks.clear();
        for _ in 0..n {
            let id = TaskId(r.u32()?);
            let mut task = Task::new(SpaceId(0), self.align_mod);
            task.restore_state(r, frames)?;
            self.tasks.insert(id, task);
        }
        self.next_task = r.u32()?;
        self.next_space = r.u32()?;
        self.disk.restore_state(r)?;
        self.swap.restore_state(r)?;
        self.bufcache.restore_state(r, frames)?;
        self.fs.restore_state(r)?;
        self.server.restore_state(r, frames)?;
        self.stats.restore_state(r)?;
        self.kwin.restore_state(r)?;
        self.seq = r.u32()?;
        self.space_of = self
            .tasks
            .iter()
            .map(|(id, task)| (task.space, *id))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_aligned_allocation() {
        let mut w = KernelWindows::new(64);
        let a = w.alloc(Some(5));
        assert_eq!(a.0 % 64, 5);
        // The same residue again: a different window, same color.
        let b = w.alloc(Some(5));
        assert_ne!(a, b);
        assert_eq!(b.0 % 64, 5);
        w.free(a);
        let c = w.alloc(Some(5));
        assert_eq!(c, a, "freed window reused first");
    }

    #[test]
    fn windows_unaligned_cycle_through_colors() {
        let mut w = KernelWindows::new(8);
        let mut colors = std::collections::HashSet::new();
        let mut held = Vec::new();
        for _ in 0..8 {
            let vp = w.alloc(None);
            colors.insert(vp.0 % 8);
            held.push(vp);
        }
        assert_eq!(colors.len(), 8, "first-fit windows visit every color");
        for vp in held {
            w.free(vp);
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn windows_exhaustion_panics() {
        let mut w = KernelWindows::new(4);
        for _ in 0..5 {
            let _ = w.alloc(Some(1));
        }
    }

    #[test]
    fn failed_prepare_frees_the_kernel_window() {
        // Regression: an `Err` out of the access loop used to early-return
        // past `pmap.remove` + `kwin.free`, permanently leaking the window
        // mapping and its busy bit. Inject a failing access by copying from
        // an address space with no VM entry behind it.
        let mut k = Kernel::new(KernelConfig::small(SystemKind::Cmu(
            vic_core::policy::Configuration::F,
        )));
        let frame = k.alloc_frame(CpuId::BOOT, None).unwrap();
        let bogus = SpaceId(99);
        let r = k.copy_into_frame(CpuId::BOOT, bogus, VAddr(0), frame, None, false);
        assert!(
            matches!(r, Err(OsError::BadAddress { .. })),
            "unmapped source must surface as BadAddress, got {r:?}"
        );
        assert!(
            k.kwin.busy.is_empty(),
            "failed page preparation leaked kernel windows: {:?}",
            k.kwin.busy
        );
        // The window (and the pmap slot under it) must be reusable: a
        // follow-up preparation on the same frame succeeds cleanly.
        k.zero_fill(CpuId::BOOT, frame, None, false).unwrap();
        assert!(k.kwin.busy.is_empty());
    }

    #[test]
    fn config_presets() {
        let full = KernelConfig::new(SystemKind::Utah);
        assert_eq!(full.machine.page_size, 4096);
        assert!(!full.colored_free_lists);
        let small = KernelConfig::small(SystemKind::Utah);
        assert_eq!(small.machine.page_size, 256);
        assert!(small.buffer_slots < full.buffer_slots);
    }

    #[test]
    fn kernel_boot_and_debug() {
        let k = Kernel::new(KernelConfig::small(SystemKind::Cmu(
            vic_core::policy::Configuration::F,
        )));
        assert_eq!(k.pmap().manager_name(), "CMU");
        assert_eq!(k.page_size(), 256);
        let dbg = format!("{k:?}");
        assert!(dbg.contains("Kernel"));
        assert!(k.task_space(TaskId(1)).is_err(), "no tasks yet");
    }

    #[test]
    fn kernel_save_restore_continues_identically() {
        let cfg = KernelConfig::small(SystemKind::Cmu(vic_core::policy::Configuration::F));
        let cpu = CpuId::BOOT;
        let mut k = Kernel::new(cfg);
        let t = k.create_task();
        let va = k.vm_allocate(t, 4).unwrap();
        for i in 0..96u32 {
            k.write(cpu, t, VAddr(va.0 + u64::from(i % 160) * 4), i)
                .unwrap();
        }
        let f = k.fs_create();
        k.fs_write_page(cpu, t, f, 0, va).unwrap();

        let mut w = WordWriter::new();
        k.save_state(&mut w);
        let words = w.into_words();
        let mut k2 = Kernel::new(cfg);
        let mut r = WordReader::new(&words);
        k2.restore_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(k2.machine().cycles(), k.machine().cycles());
        assert_eq!(k2.os_stats(), k.os_stats());

        // Continue both kernels in lockstep: every observable value, cycle
        // count and counter must stay identical.
        for i in 0..96u32 {
            let addr = VAddr(va.0 + u64::from(i % 160) * 4);
            assert_eq!(
                k.read(cpu, t, addr).unwrap(),
                k2.read(cpu, t, addr).unwrap()
            );
        }
        let dst = k.vm_allocate(t, 1).unwrap();
        let dst2 = k2.vm_allocate(t, 1).unwrap();
        assert_eq!(dst, dst2, "address selection stays deterministic");
        k.fs_read_page(cpu, t, f, 0, dst).unwrap();
        k2.fs_read_page(cpu, t, f, 0, dst).unwrap();
        k.sync(cpu);
        k2.sync(cpu);
        assert_eq!(k2.machine().cycles(), k.machine().cycles());
        assert_eq!(k2.os_stats(), k.os_stats());
        assert_eq!(k2.machine().stats().clone(), k.machine().stats().clone());
        assert_eq!(k2.machine().oracle().violations(), 0);
    }

    #[test]
    fn kernel_restore_rejects_mismatched_config() {
        let small = KernelConfig::small(SystemKind::Utah);
        let mut k = Kernel::new(small);
        let cpu = CpuId::BOOT;
        let t = k.create_task();
        let va = k.vm_allocate(t, 1).unwrap();
        k.write(cpu, t, va, 7).unwrap();
        let mut w = WordWriter::new();
        k.save_state(&mut w);
        let words = w.into_words();

        // A kernel with a different geometry must reject the stream with a
        // typed error, not panic or restore nonsense.
        let mut big = Kernel::new(KernelConfig::new(SystemKind::Utah));
        let mut r = WordReader::new(&words);
        assert!(matches!(
            big.restore_state(&mut r),
            Err(SerialError::Corrupt { .. })
        ));

        // A truncated stream surfaces as Truncated.
        let mut k2 = Kernel::new(small);
        let mut r = WordReader::new(&words[..words.len() / 2]);
        assert!(matches!(
            k2.restore_state(&mut r),
            Err(SerialError::Truncated { .. })
        ));
    }

    #[test]
    fn share_alignment_enum() {
        assert_ne!(ShareAlignment::Aligned, ShareAlignment::Unaligned);
        assert_eq!(format!("{:?}", ShareAlignment::FirstFit), "FirstFit");
    }
}
