//! The machine façade: CPU accesses, cache management instructions, DMA,
//! mapping control and the cycle account.

use crate::cache::{AccessResult, Cache};
use crate::config::MachineConfig;
use crate::cpu::Cpu;
use crate::mmu::{Pte, Translation};
use crate::oracle::Oracle;
use crate::shared::SharedState;
use crate::stats::MachineStats;
use vic_core::manager::DmaDir;
use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{Access, CacheKind, CachePage, Mapping, PFrame, Prot, SpaceId, VAddr};
use vic_metrics::{CacheSnapshot, MachineSnapshot, SnapshotSampler, TlbSnapshot};
use vic_profile::Profiler;
use vic_trace::{TraceEvent, Tracer};

/// A memory-access fault delivered to the operating system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No translation exists for the page.
    NoMapping {
        /// The faulting mapping (space + virtual page).
        mapping: Mapping,
        /// The attempted access.
        access: Access,
    },
    /// A translation exists but its protection denies the access.
    Protection {
        /// The faulting mapping.
        mapping: Mapping,
        /// The attempted access.
        access: Access,
        /// The protection that denied it.
        prot: Prot,
    },
}

impl Fault {
    /// The faulting mapping.
    pub fn mapping(&self) -> Mapping {
        match self {
            Fault::NoMapping { mapping, .. } | Fault::Protection { mapping, .. } => *mapping,
        }
    }

    /// The attempted access.
    pub fn access(&self) -> Access {
        match self {
            Fault::NoMapping { access, .. } | Fault::Protection { access, .. } => *access,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::NoMapping { mapping, access } => {
                write!(f, "no mapping for {access} at {mapping}")
            }
            Fault::Protection {
                mapping,
                access,
                prot,
            } => write!(f, "protection ({prot}) denies {access} at {mapping}"),
        }
    }
}

/// Section tag bracketing a whole machine's state in a word stream.
const MACHINE_STATE_TAG: u64 = u64::from_le_bytes(*b"machine1");

/// The simulated machine, carved into two halves: a per-CPU half
/// ([`Cpu`]: caches, MMU, cycle account, event counters) and a shared
/// half ([`SharedState`]: physical memory and the staleness oracle) that
/// every agent — CPUs and DMA devices — observes. A single owned value,
/// so a machine is `Send` and a whole simulated system can run on any
/// thread. Observers (tracer, profiler, sampler) attach to the machine
/// itself; they are instrumentation, not simulated state.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    cpu: Cpu,
    shared: SharedState,
    tracer: Tracer,
    profiler: Profiler,
    /// Optional cycle-driven snapshot sampler (`None` by default). Ticked
    /// at operation boundaries; sampling only *reads* machine state and
    /// charges nothing, so enabling it cannot change a simulated result.
    sampler: Option<SnapshotSampler>,
}

impl Machine {
    /// Build a machine from a validated configuration. All cache lines
    /// start invalid (power-up purge) and memory is zero-filled; the
    /// staleness oracle is always on.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        Machine {
            cpu: Cpu::new(&cfg),
            shared: SharedState::new(&cfg),
            tracer: Tracer::off(),
            profiler: Profiler::off(),
            sampler: None,
            cfg,
        }
    }

    /// Serialize the complete simulated-hardware state: the per-CPU half,
    /// then the shared half. The configuration and the attached observers
    /// (tracer, profiler, sampler) are **not** written — a checkpoint is
    /// restored into a machine built from the same spec, and observers
    /// re-attach independently.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.tag(MACHINE_STATE_TAG);
        self.cpu.save_state(w);
        self.shared.save_state(w);
    }

    /// Restore state saved by [`Machine::save_state`] into a machine built
    /// with the identical configuration. On success the machine continues
    /// exactly as the saved one would have; attached observers are left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`SerialError`] if the stream is truncated, corrupt, or
    /// was saved from a machine with a different configuration.
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        r.expect(MACHINE_STATE_TAG)?;
        self.cpu.restore_state(r)?;
        self.shared.restore_state(r)
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Cycles elapsed so far (the 720's on-chip cycle counter).
    pub fn cycles(&self) -> u64 {
        self.cpu.cycles
    }

    /// Elapsed simulated time in seconds.
    pub fn seconds(&self) -> f64 {
        self.cfg.cycles_to_seconds(self.cpu.cycles)
    }

    /// Hardware event counters.
    pub fn stats(&self) -> &MachineStats {
        &self.cpu.stats
    }

    /// Connect a trace sink; machine events flow to it from now on.
    /// Tracing changes no statistic and no cycle count.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer, for emitting events from the layers
    /// above (kernel, pmap) so all layers feed one stream.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Attach a profiler; from now on every cycle charge is attributed to
    /// a cost-tree path. Like tracing, profiling changes no statistic and
    /// no cycle count.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The profiler handle.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Mutable access to the profiler, for the layers above (kernel,
    /// pmap) to open spans around their work.
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// The staleness oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.shared.oracle
    }

    /// Mutable access to the oracle (to toggle panic mode or clear logs).
    pub fn oracle_mut(&mut self) -> &mut Oracle {
        &mut self.shared.oracle
    }

    /// Charge kernel software cycles to the account (fault service,
    /// bookkeeping, mapping updates).
    pub fn charge(&mut self, cycles: u64) {
        self.cpu.cycles += cycles;
        self.profiler.leaf("software", cycles);
        self.sample_tick();
    }

    /// Reset the cycle account and counters (after warm-up), keeping all
    /// memory, cache and mapping state. The profiler's tree (if one is
    /// attached) restarts with the account so it stays conserved.
    pub fn reset_account(&mut self) {
        self.cpu.cycles = 0;
        self.cpu.stats.reset();
        self.profiler.reset_tree();
    }

    /// Emit a write-back event for an eviction that occurred while
    /// filling `va` (the victim line shares the fill's cache page; its own
    /// frame is not tracked by the hardware, so the *filling* frame is
    /// reported for context).
    fn emit_writeback(&mut self, va: VAddr, filling: PFrame) {
        if self.tracer.is_enabled() {
            let cp = self.cfg.cache_page(CacheKind::Data, self.cfg.vpage(va));
            self.tracer.emit(
                self.cpu.cycles,
                TraceEvent::WriteBack {
                    cache_page: cp,
                    frame: filling,
                },
            );
        }
    }

    fn translate(&mut self, m: Mapping, access: Access) -> Result<Pte, Fault> {
        let pte = match self.cpu.xlate_cache {
            // Micro-cache hit: the MMU would report TlbHit — free, no
            // statistic, no event — so skipping it changes nothing.
            Some((last, pte)) if self.cfg.fast_paths && last == m => pte,
            _ => match self.cpu.mmu.translate(m) {
                Translation::TlbHit(pte) => {
                    self.cpu.xlate_cache = Some((m, pte));
                    pte
                }
                Translation::TlbMiss(pte) => {
                    self.cpu.cycles += self.cfg.costs.tlb_miss;
                    self.profiler.leaf("tlb_fill", self.cfg.costs.tlb_miss);
                    self.cpu.stats.tlb_misses += 1;
                    self.tracer.emit(
                        self.cpu.cycles,
                        TraceEvent::TlbFill {
                            space: m.space,
                            vpage: m.vpage,
                            cost: self.cfg.costs.tlb_miss,
                        },
                    );
                    self.cpu.xlate_cache = Some((m, pte));
                    pte
                }
                Translation::Unmapped => {
                    self.cpu.cycles += self.cfg.costs.fault_trap;
                    self.profiler.leaf("fault_trap", self.cfg.costs.fault_trap);
                    return Err(Fault::NoMapping { mapping: m, access });
                }
            },
        };
        if !pte.prot.allows(access) {
            self.cpu.cycles += self.cfg.costs.fault_trap;
            self.profiler.leaf("fault_trap", self.cfg.costs.fault_trap);
            return Err(Fault::Protection {
                mapping: m,
                access,
                prot: pte.prot,
            });
        }
        Ok(pte)
    }

    /// CPU load of an aligned 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns the fault if the page is unmapped or read access is denied.
    pub fn load(&mut self, space: SpaceId, va: VAddr) -> Result<u32, Fault> {
        debug_assert_eq!(va.0 % 4, 0, "aligned word access");
        let m = Mapping::new(space, self.cfg.vpage(va));
        let pte = self.translate(m, Access::Read)?;
        let pa = self.cfg.paddr(pte.frame, self.cfg.offset(va));
        let t0 = self.cpu.cycles;
        let mut hit = true;
        let mut buf = [0u8; 4];
        if pte.uncached {
            self.shared.mem.read(pa, &mut buf);
            self.cpu.cycles += self.cfg.costs.uncached_access;
            self.profiler
                .leaf("load.uncached", self.cfg.costs.uncached_access);
            self.cpu.stats.uncached += 1;
        } else {
            match self.cpu.dcache.read(va, pa, &mut self.shared.mem, &mut buf) {
                AccessResult::Hit => {
                    self.cpu.cycles += self.cfg.costs.cache_hit;
                    self.profiler.leaf("load.hit", self.cfg.costs.cache_hit);
                    self.cpu.stats.d_hits += 1;
                }
                AccessResult::Miss { wrote_back } => {
                    self.cpu.cycles += self.cfg.costs.cache_hit + self.cfg.costs.miss_fill;
                    self.profiler.leaf(
                        "load.miss",
                        self.cfg.costs.cache_hit + self.cfg.costs.miss_fill,
                    );
                    self.cpu.stats.d_misses += 1;
                    hit = false;
                    if wrote_back {
                        self.cpu.cycles += self.cfg.costs.writeback;
                        self.profiler
                            .leaf("load.writeback", self.cfg.costs.writeback);
                        self.cpu.stats.writebacks += 1;
                        self.emit_writeback(va, pte.frame);
                    }
                }
            }
        }
        self.cpu.stats.loads += 1;
        self.shared.oracle.check_read(pa, &buf, "CPU load");
        self.tracer.emit(
            self.cpu.cycles,
            TraceEvent::Load {
                space,
                vaddr: va,
                hit,
                cost: self.cpu.cycles - t0,
            },
        );
        self.sample_tick();
        Ok(u32::from_le_bytes(buf))
    }

    /// CPU store of an aligned 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns the fault if the page is unmapped or write access is denied.
    pub fn store(&mut self, space: SpaceId, va: VAddr, value: u32) -> Result<(), Fault> {
        debug_assert_eq!(va.0 % 4, 0, "aligned word access");
        let m = Mapping::new(space, self.cfg.vpage(va));
        let pte = self.translate(m, Access::Write)?;
        let pa = self.cfg.paddr(pte.frame, self.cfg.offset(va));
        let bytes = value.to_le_bytes();
        let t0 = self.cpu.cycles;
        let mut hit = true;
        if pte.uncached {
            self.shared.mem.write(pa, &bytes);
            self.cpu.cycles += self.cfg.costs.uncached_access;
            self.profiler
                .leaf("store.uncached", self.cfg.costs.uncached_access);
            self.cpu.stats.uncached += 1;
        } else {
            match self.cfg.write_policy {
                crate::config::WritePolicy::WriteBack => {
                    match self.cpu.dcache.write(va, pa, &mut self.shared.mem, &bytes) {
                        AccessResult::Hit => {
                            self.cpu.cycles += self.cfg.costs.cache_hit;
                            self.profiler.leaf("store.hit", self.cfg.costs.cache_hit);
                            self.cpu.stats.d_hits += 1;
                        }
                        AccessResult::Miss { wrote_back } => {
                            self.cpu.cycles += self.cfg.costs.cache_hit + self.cfg.costs.miss_fill;
                            self.profiler.leaf(
                                "store.miss",
                                self.cfg.costs.cache_hit + self.cfg.costs.miss_fill,
                            );
                            self.cpu.stats.d_misses += 1;
                            hit = false;
                            if wrote_back {
                                self.cpu.cycles += self.cfg.costs.writeback;
                                self.profiler
                                    .leaf("store.writeback", self.cfg.costs.writeback);
                                self.cpu.stats.writebacks += 1;
                                self.emit_writeback(va, pte.frame);
                            }
                        }
                    }
                }
                crate::config::WritePolicy::WriteThrough => {
                    // Every store pays the memory write; a hit also updates
                    // the line.
                    match self
                        .cpu
                        .dcache
                        .write_through(va, pa, &mut self.shared.mem, &bytes)
                    {
                        AccessResult::Hit => self.cpu.stats.d_hits += 1,
                        AccessResult::Miss { .. } => {
                            self.cpu.stats.d_misses += 1;
                            hit = false;
                        }
                    }
                    self.cpu.cycles += self.cfg.costs.cache_hit + self.cfg.costs.writeback;
                    self.profiler.leaf(
                        "store.write_through",
                        self.cfg.costs.cache_hit + self.cfg.costs.writeback,
                    );
                }
            }
        }
        self.cpu.stats.stores += 1;
        self.shared.oracle.record_write(pa, &bytes);
        self.tracer.emit(
            self.cpu.cycles,
            TraceEvent::Store {
                space,
                vaddr: va,
                hit,
                cost: self.cpu.cycles - t0,
            },
        );
        self.sample_tick();
        Ok(())
    }

    /// Instruction fetch of an aligned 32-bit word (through the
    /// instruction cache).
    ///
    /// # Errors
    ///
    /// Returns the fault if the page is unmapped or execute access is
    /// denied.
    pub fn ifetch(&mut self, space: SpaceId, va: VAddr) -> Result<u32, Fault> {
        debug_assert_eq!(va.0 % 4, 0, "aligned word access");
        let m = Mapping::new(space, self.cfg.vpage(va));
        let pte = self.translate(m, Access::Execute)?;
        let pa = self.cfg.paddr(pte.frame, self.cfg.offset(va));
        let t0 = self.cpu.cycles;
        let mut hit = true;
        let mut buf = [0u8; 4];
        if pte.uncached {
            self.shared.mem.read(pa, &mut buf);
            self.cpu.cycles += self.cfg.costs.uncached_access;
            self.profiler
                .leaf("ifetch.uncached", self.cfg.costs.uncached_access);
            self.cpu.stats.uncached += 1;
        } else {
            match self.cpu.icache.read(va, pa, &mut self.shared.mem, &mut buf) {
                AccessResult::Hit => {
                    self.cpu.cycles += self.cfg.costs.cache_hit;
                    self.profiler.leaf("ifetch.hit", self.cfg.costs.cache_hit);
                    self.cpu.stats.i_hits += 1;
                }
                AccessResult::Miss { .. } => {
                    self.cpu.cycles += self.cfg.costs.cache_hit + self.cfg.costs.miss_fill;
                    self.profiler.leaf(
                        "ifetch.miss",
                        self.cfg.costs.cache_hit + self.cfg.costs.miss_fill,
                    );
                    self.cpu.stats.i_misses += 1;
                    hit = false;
                }
            }
        }
        self.cpu.stats.ifetches += 1;
        self.shared.oracle.check_read(pa, &buf, "instruction fetch");
        self.tracer.emit(
            self.cpu.cycles,
            TraceEvent::IFetch {
                space,
                vaddr: va,
                hit,
                cost: self.cpu.cycles - t0,
            },
        );
        self.sample_tick();
        Ok(u32::from_le_bytes(buf))
    }

    // ------------------------------------------------------------------
    // The bulk-run engine: process an aligned run of words in one call.
    //
    // Equivalence argument (every branch below is provably identical to
    // the word loop it replaces):
    //
    // * one translation serves the whole run — the word loop's words 1..n
    //   hit the translation micro-cache (same mapping back to back), and a
    //   micro-hit is free, so batching translation changes nothing;
    // * within one page, consecutive lines occupy *distinct* sets (the
    //   cache constructor asserts `num_sets >= lines_per_page`), so a run
    //   can never evict its own lines: after a line's first word touches
    //   it, the remaining k-1 words are guaranteed hits and their
    //   accounting is a closed form, `(k-1) × cache_hit`;
    // * fills and victim write-backs happen in the word loop's order (the
    //   per-line loops below walk ascending addresses and, for copies,
    //   interleave source and destination lines exactly as the alternating
    //   load/store loop does), so memory and cache end states are
    //   bit-identical;
    // * oracle checks/records run per word in ascending order, preserving
    //   the violation count and the first-N sample.
    //
    // When a condition can't be established (tracer attached, fast paths
    // off, run crosses a page, copy endpoints share a cache page, ...) the
    // run degrades to the literal word loop — so callers may use the run
    // APIs unconditionally.
    // ------------------------------------------------------------------

    /// True when the bulk-run engine may replace the word loop: fast paths
    /// on and no tracer attached (per-access events are not synthesized;
    /// falling back keeps the event stream byte-identical by construction).
    fn bulk_ok(&self) -> bool {
        self.cfg.fast_paths && !self.tracer.is_enabled()
    }

    /// Is a word run of `n` words at `va` with `stride` bytes between
    /// words aligned and contained in a single page?
    fn run_in_one_page(&self, va: VAddr, stride: u64, n: usize) -> bool {
        let span = (n as u64 - 1)
            .saturating_mul(stride)
            .saturating_add(self.cfg.offset(va))
            .saturating_add(4);
        va.0.is_multiple_of(4)
            && stride >= 4
            && stride.is_multiple_of(4)
            && span <= self.cfg.page_size
    }

    /// Charge one cached data access exactly as the word loop does — the
    /// shared accounting of `load`/`store` on the write-back path, reused
    /// by the bulk engine for each line's first touching word.
    fn charge_cached_access(
        &mut self,
        res: AccessResult,
        hit_op: &'static str,
        miss_op: &'static str,
        wb_op: &'static str,
        va: VAddr,
        frame: PFrame,
    ) {
        let costs = self.cfg.costs;
        match res {
            AccessResult::Hit => {
                self.cpu.cycles += costs.cache_hit;
                self.profiler.leaf(hit_op, costs.cache_hit);
                self.cpu.stats.d_hits += 1;
            }
            AccessResult::Miss { wrote_back } => {
                self.cpu.cycles += costs.cache_hit + costs.miss_fill;
                self.profiler
                    .leaf(miss_op, costs.cache_hit + costs.miss_fill);
                self.cpu.stats.d_misses += 1;
                if wrote_back {
                    self.cpu.cycles += costs.writeback;
                    self.profiler.leaf(wb_op, costs.writeback);
                    self.cpu.stats.writebacks += 1;
                    self.emit_writeback(va, frame);
                }
            }
        }
    }

    /// CPU load of a run of aligned 32-bit words, `stride` bytes apart —
    /// exactly equivalent to calling [`Machine::load`] per word, but with
    /// one translation and per-*line* cache transitions when the bulk
    /// engine is eligible.
    ///
    /// # Errors
    ///
    /// Returns the fault if the page is unmapped or read access is denied
    /// (at the same point, with the same charges, as the word loop).
    pub fn load_run(
        &mut self,
        space: SpaceId,
        va: VAddr,
        stride: u64,
        out: &mut [u32],
    ) -> Result<(), Fault> {
        if out.is_empty() {
            return Ok(());
        }
        if !self.bulk_ok() || !self.run_in_one_page(va, stride, out.len()) {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.load(space, VAddr(va.0 + i as u64 * stride))?;
            }
            return Ok(());
        }
        let m = Mapping::new(space, self.cfg.vpage(va));
        let pte = self.translate(m, Access::Read)?;
        let costs = self.cfg.costs;
        let n = out.len() as u64;
        if pte.uncached {
            for (i, slot) in out.iter_mut().enumerate() {
                let w = VAddr(va.0 + i as u64 * stride);
                let pa = self.cfg.paddr(pte.frame, self.cfg.offset(w));
                let mut buf = [0u8; 4];
                self.shared.mem.read(pa, &mut buf);
                self.shared.oracle.check_read(pa, &buf, "CPU load");
                *slot = u32::from_le_bytes(buf);
            }
            self.cpu.cycles += n * costs.uncached_access;
            self.profiler
                .leaf_n("load.uncached", n, n * costs.uncached_access);
            self.cpu.stats.uncached += n;
            self.cpu.stats.loads += n;
            self.sample_tick();
            return Ok(());
        }
        let line_shift = self.cfg.line_size.trailing_zeros();
        let line_mask = self.cfg.line_size - 1;
        let mut i = 0usize;
        while i < out.len() {
            let w0 = VAddr(va.0 + i as u64 * stride);
            let line_no = w0.0 >> line_shift;
            let mut k = 1usize;
            while i + k < out.len() && (va.0 + (i + k) as u64 * stride) >> line_shift == line_no {
                k += 1;
            }
            let pa0 = self.cfg.paddr(pte.frame, self.cfg.offset(w0));
            let (res, idx) = self.cpu.dcache.touch_line(w0, pa0, &mut self.shared.mem);
            self.charge_cached_access(
                res,
                "load.hit",
                "load.miss",
                "load.writeback",
                w0,
                pte.frame,
            );
            let rest = (k - 1) as u64;
            self.cpu.cycles += rest * costs.cache_hit;
            self.profiler
                .leaf_n("load.hit", rest, rest * costs.cache_hit);
            self.cpu.stats.d_hits += rest;
            for (j, slot) in out.iter_mut().enumerate().skip(i).take(k) {
                let wj = VAddr(va.0 + j as u64 * stride);
                let pj = self.cfg.paddr(pte.frame, self.cfg.offset(wj));
                let off = (pj.0 & line_mask) as usize;
                let mut buf = [0u8; 4];
                buf.copy_from_slice(&self.cpu.dcache.line_data(idx)[off..off + 4]);
                self.shared.oracle.check_read(pj, &buf, "CPU load");
                *slot = u32::from_le_bytes(buf);
            }
            i += k;
        }
        self.cpu.stats.loads += n;
        self.sample_tick();
        Ok(())
    }

    /// CPU store of a run of aligned 32-bit words, `stride` bytes apart —
    /// exactly equivalent to calling [`Machine::store`] per word.
    ///
    /// # Errors
    ///
    /// Returns the fault if the page is unmapped or write access is denied
    /// (at the same point, with the same charges, as the word loop).
    pub fn store_run(
        &mut self,
        space: SpaceId,
        va: VAddr,
        stride: u64,
        values: &[u32],
    ) -> Result<(), Fault> {
        if values.is_empty() {
            return Ok(());
        }
        if !self.bulk_ok() || !self.run_in_one_page(va, stride, values.len()) {
            for (i, &v) in values.iter().enumerate() {
                self.store(space, VAddr(va.0 + i as u64 * stride), v)?;
            }
            return Ok(());
        }
        let m = Mapping::new(space, self.cfg.vpage(va));
        let pte = self.translate(m, Access::Write)?;
        let costs = self.cfg.costs;
        let n = values.len() as u64;
        if pte.uncached {
            for (i, &v) in values.iter().enumerate() {
                let w = VAddr(va.0 + i as u64 * stride);
                let pa = self.cfg.paddr(pte.frame, self.cfg.offset(w));
                let bytes = v.to_le_bytes();
                self.shared.mem.write(pa, &bytes);
                self.shared.oracle.record_write(pa, &bytes);
            }
            self.cpu.cycles += n * costs.uncached_access;
            self.profiler
                .leaf_n("store.uncached", n, n * costs.uncached_access);
            self.cpu.stats.uncached += n;
            self.cpu.stats.stores += n;
            self.sample_tick();
            return Ok(());
        }
        match self.cfg.write_policy {
            crate::config::WritePolicy::WriteBack => {
                let line_shift = self.cfg.line_size.trailing_zeros();
                let line_mask = self.cfg.line_size - 1;
                let mut i = 0usize;
                while i < values.len() {
                    let w0 = VAddr(va.0 + i as u64 * stride);
                    let line_no = w0.0 >> line_shift;
                    let mut k = 1usize;
                    while i + k < values.len()
                        && (va.0 + (i + k) as u64 * stride) >> line_shift == line_no
                    {
                        k += 1;
                    }
                    let pa0 = self.cfg.paddr(pte.frame, self.cfg.offset(w0));
                    let (res, idx) = self.cpu.dcache.touch_line(w0, pa0, &mut self.shared.mem);
                    self.charge_cached_access(
                        res,
                        "store.hit",
                        "store.miss",
                        "store.writeback",
                        w0,
                        pte.frame,
                    );
                    let rest = (k - 1) as u64;
                    self.cpu.cycles += rest * costs.cache_hit;
                    self.profiler
                        .leaf_n("store.hit", rest, rest * costs.cache_hit);
                    self.cpu.stats.d_hits += rest;
                    self.cpu.dcache.mark_line_dirty(idx);
                    for (j, &v) in values.iter().enumerate().skip(i).take(k) {
                        let wj = VAddr(va.0 + j as u64 * stride);
                        let pj = self.cfg.paddr(pte.frame, self.cfg.offset(wj));
                        let off = (pj.0 & line_mask) as usize;
                        let bytes = v.to_le_bytes();
                        self.cpu.dcache.line_data_mut(idx)[off..off + 4].copy_from_slice(&bytes);
                        self.shared.oracle.record_write(pj, &bytes);
                    }
                    i += k;
                }
            }
            crate::config::WritePolicy::WriteThrough => {
                // No-write-allocate: line residency is fixed for the whole
                // run, every word pays the memory write; hits also update
                // the line — the per-word `write_through` call is kept, only
                // the dispatch and accounting are batched.
                let mut hits = 0u64;
                for (i, &v) in values.iter().enumerate() {
                    let w = VAddr(va.0 + i as u64 * stride);
                    let pa = self.cfg.paddr(pte.frame, self.cfg.offset(w));
                    let bytes = v.to_le_bytes();
                    match self
                        .cpu
                        .dcache
                        .write_through(w, pa, &mut self.shared.mem, &bytes)
                    {
                        AccessResult::Hit => hits += 1,
                        AccessResult::Miss { .. } => {}
                    }
                    self.shared.oracle.record_write(pa, &bytes);
                }
                self.cpu.stats.d_hits += hits;
                self.cpu.stats.d_misses += n - hits;
                self.cpu.cycles += n * (costs.cache_hit + costs.writeback);
                self.profiler.leaf_n(
                    "store.write_through",
                    n,
                    n * (costs.cache_hit + costs.writeback),
                );
            }
        }
        self.cpu.stats.stores += n;
        self.sample_tick();
        Ok(())
    }

    /// May [`Machine::copy_run`] take the bulk path? Beyond the per-run
    /// conditions, a copy needs: room for both translations in the TLB
    /// (a 1-entry TLB thrashes per word in the word loop), congruent line
    /// offsets (so line groups pair one-to-one), both endpoints mapped,
    /// cached and accessible (checked side-effect-free — a doomed run must
    /// fault through the word loop at the exact word the loop would), and
    /// distinct data-cache pages (disjoint sets, so neither side can evict
    /// the other's just-touched line).
    fn copy_run_eligible(
        &self,
        src_space: SpaceId,
        src_va: VAddr,
        dst_space: SpaceId,
        dst_va: VAddr,
        count: usize,
    ) -> bool {
        if !self.bulk_ok() || self.cfg.tlb_entries < 2 {
            return false;
        }
        if !self.run_in_one_page(src_va, 4, count) || !self.run_in_one_page(dst_va, 4, count) {
            return false;
        }
        let line_mask = self.cfg.line_size - 1;
        if src_va.0 & line_mask != dst_va.0 & line_mask {
            return false;
        }
        let src_m = Mapping::new(src_space, self.cfg.vpage(src_va));
        let dst_m = Mapping::new(dst_space, self.cfg.vpage(dst_va));
        let (Some(sp), Some(dp)) = (self.lookup(src_m), self.lookup(dst_m)) else {
            return false;
        };
        if sp.uncached || dp.uncached {
            return false;
        }
        if !sp.prot.allows(Access::Read) || !dp.prot.allows(Access::Write) {
            return false;
        }
        self.cfg.cache_page(CacheKind::Data, self.cfg.vpage(src_va))
            != self.cfg.cache_page(CacheKind::Data, self.cfg.vpage(dst_va))
    }

    /// Copy a run of `count` aligned words from `(src_space, src_va)` to
    /// `(dst_space, dst_va)` — exactly equivalent to the alternating
    /// `load`/`store` word loop. On the bulk path, source and destination
    /// *lines* are interleaved in the word loop's order (so victim
    /// write-backs and fills hit memory in the identical sequence), while
    /// the per-word work shrinks to a line-payload copy plus the oracle's
    /// check/record pair.
    ///
    /// # Errors
    ///
    /// Returns the first fault the word loop would have hit, at the same
    /// point with the same charges.
    pub fn copy_run(
        &mut self,
        src_space: SpaceId,
        src_va: VAddr,
        dst_space: SpaceId,
        dst_va: VAddr,
        count: usize,
    ) -> Result<(), Fault> {
        if count == 0 {
            return Ok(());
        }
        if !self.copy_run_eligible(src_space, src_va, dst_space, dst_va, count) {
            for i in 0..count {
                let off = i as u64 * 4;
                let v = self.load(src_space, VAddr(src_va.0 + off))?;
                self.store(dst_space, VAddr(dst_va.0 + off), v)?;
            }
            return Ok(());
        }
        let src_m = Mapping::new(src_space, self.cfg.vpage(src_va));
        let dst_m = Mapping::new(dst_space, self.cfg.vpage(dst_va));
        let src_pte = self.translate(src_m, Access::Read)?;
        let dst_pte = self.translate(dst_m, Access::Write)?;
        let costs = self.cfg.costs;
        let line_shift = self.cfg.line_size.trailing_zeros();
        let line_mask = self.cfg.line_size - 1;
        let write_through = matches!(
            self.cfg.write_policy,
            crate::config::WritePolicy::WriteThrough
        );
        let mut i = 0usize;
        while i < count {
            let s0 = VAddr(src_va.0 + i as u64 * 4);
            let d0 = VAddr(dst_va.0 + i as u64 * 4);
            let line_no = s0.0 >> line_shift;
            let mut k = 1usize;
            while i + k < count && (src_va.0 + (i + k) as u64 * 4) >> line_shift == line_no {
                k += 1;
            }
            let rest = (k - 1) as u64;
            // Source line: one real access, k-1 guaranteed hits.
            let s_pa0 = self.cfg.paddr(src_pte.frame, self.cfg.offset(s0));
            let (s_res, s_idx) = self.cpu.dcache.touch_line(s0, s_pa0, &mut self.shared.mem);
            self.charge_cached_access(
                s_res,
                "load.hit",
                "load.miss",
                "load.writeback",
                s0,
                src_pte.frame,
            );
            self.cpu.cycles += rest * costs.cache_hit;
            self.profiler
                .leaf_n("load.hit", rest, rest * costs.cache_hit);
            self.cpu.stats.d_hits += rest;
            // Destination line (write-back only; write-through never
            // allocates, its stores are handled per word below).
            let d_idx = if write_through {
                usize::MAX
            } else {
                let d_pa0 = self.cfg.paddr(dst_pte.frame, self.cfg.offset(d0));
                let (d_res, d_idx) = self.cpu.dcache.touch_line(d0, d_pa0, &mut self.shared.mem);
                self.charge_cached_access(
                    d_res,
                    "store.hit",
                    "store.miss",
                    "store.writeback",
                    d0,
                    dst_pte.frame,
                );
                self.cpu.cycles += rest * costs.cache_hit;
                self.profiler
                    .leaf_n("store.hit", rest, rest * costs.cache_hit);
                self.cpu.stats.d_hits += rest;
                self.cpu.dcache.mark_line_dirty(d_idx);
                d_idx
            };
            let mut wt_hits = 0u64;
            for j in i..i + k {
                let sj = VAddr(src_va.0 + j as u64 * 4);
                let dj = VAddr(dst_va.0 + j as u64 * 4);
                let s_pa = self.cfg.paddr(src_pte.frame, self.cfg.offset(sj));
                let d_pa = self.cfg.paddr(dst_pte.frame, self.cfg.offset(dj));
                let s_off = (s_pa.0 & line_mask) as usize;
                let mut buf = [0u8; 4];
                buf.copy_from_slice(&self.cpu.dcache.line_data(s_idx)[s_off..s_off + 4]);
                self.shared.oracle.check_read(s_pa, &buf, "CPU load");
                if write_through {
                    match self
                        .cpu
                        .dcache
                        .write_through(dj, d_pa, &mut self.shared.mem, &buf)
                    {
                        AccessResult::Hit => wt_hits += 1,
                        AccessResult::Miss { .. } => {}
                    }
                } else {
                    let d_off = (d_pa.0 & line_mask) as usize;
                    self.cpu.dcache.line_data_mut(d_idx)[d_off..d_off + 4].copy_from_slice(&buf);
                }
                self.shared.oracle.record_write(d_pa, &buf);
            }
            if write_through {
                let kw = k as u64;
                self.cpu.stats.d_hits += wt_hits;
                self.cpu.stats.d_misses += kw - wt_hits;
                self.cpu.cycles += kw * (costs.cache_hit + costs.writeback);
                self.profiler.leaf_n(
                    "store.write_through",
                    kw,
                    kw * (costs.cache_hit + costs.writeback),
                );
            }
            i += k;
        }
        self.cpu.stats.loads += count as u64;
        self.cpu.stats.stores += count as u64;
        self.sample_tick();
        Ok(())
    }

    /// Flush (write back dirty lines, then invalidate) data cache page
    /// `cp`'s lines holding `frame`.
    pub fn flush_dcache_page(&mut self, cp: CachePage, frame: PFrame) {
        let out = self
            .cpu
            .dcache
            .flush_page(cp, frame, self.cfg.page_size, &mut self.shared.mem);
        let c = &self.cfg.costs;
        let cycles = out.absent * c.line_op_absent
            + out.present * c.line_op_present
            + out.written_back * c.writeback;
        self.cpu.cycles += cycles;
        self.profiler.leaf("flush_page.d", cycles);
        self.cpu.stats.d_flush_pages.record(cycles);
        self.cpu.stats.flush_writebacks += out.written_back;
        self.tracer.emit(
            self.cpu.cycles,
            TraceEvent::FlushPage {
                cache_page: cp,
                frame,
                written_back: out.written_back as u32,
                cost: cycles,
            },
        );
        self.sample_tick();
    }

    /// Purge (invalidate without write-back) data cache page `cp`'s lines
    /// holding `frame`.
    pub fn purge_dcache_page(&mut self, cp: CachePage, frame: PFrame) {
        let out = self.cpu.dcache.purge_page(cp, frame, self.cfg.page_size);
        let c = &self.cfg.costs;
        let cycles = out.absent * c.line_op_absent + out.present * c.line_op_present;
        self.cpu.cycles += cycles;
        self.profiler.leaf("purge_page.d", cycles);
        self.cpu.stats.d_purge_pages.record(cycles);
        self.tracer.emit(
            self.cpu.cycles,
            TraceEvent::PurgePage {
                kind: CacheKind::Data,
                cache_page: cp,
                frame,
                cost: cycles,
            },
        );
        self.sample_tick();
    }

    /// Purge instruction cache page `cp`'s lines holding `frame`. Constant
    /// time regardless of contents (a 720 artifact the paper remarks on).
    pub fn purge_icache_page(&mut self, cp: CachePage, frame: PFrame) {
        let _ = self.cpu.icache.purge_page(cp, frame, self.cfg.page_size);
        let cycles = self.cfg.costs.icache_purge_page;
        self.cpu.cycles += cycles;
        self.profiler.leaf("purge_page.i", cycles);
        self.cpu.stats.i_purge_pages.record(cycles);
        self.tracer.emit(
            self.cpu.cycles,
            TraceEvent::PurgePage {
                kind: CacheKind::Insn,
                cache_page: cp,
                frame,
                cost: cycles,
            },
        );
        self.sample_tick();
    }

    /// A device writes a full page into memory (e.g. a disk read). The
    /// caches are not snooped.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page.
    pub fn dma_write_page(&mut self, frame: PFrame, data: &[u8]) {
        assert_eq!(data.len() as u64, self.cfg.page_size, "DMA is page-sized");
        let pa = self.cfg.paddr(frame, 0);
        self.shared.mem.write(pa, data);
        self.shared.oracle.record_write(pa, data);
        self.profiler.event("dma.write");
        self.cpu.stats.dma_writes += 1;
        self.tracer.emit(
            self.cpu.cycles,
            TraceEvent::DmaPage {
                dir: DmaDir::Write,
                frame,
                cost: 0,
            },
        );
    }

    /// A device reads a full page from memory (e.g. a disk write). The
    /// caches are not snooped; stale memory is detected by the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one page.
    pub fn dma_read_page(&mut self, frame: PFrame, buf: &mut [u8]) {
        assert_eq!(buf.len() as u64, self.cfg.page_size, "DMA is page-sized");
        let pa = self.cfg.paddr(frame, 0);
        self.shared.mem.read(pa, buf);
        self.shared.oracle.check_read(pa, buf, "device (DMA) read");
        self.profiler.event("dma.read");
        self.cpu.stats.dma_reads += 1;
        self.tracer.emit(
            self.cpu.cycles,
            TraceEvent::DmaPage {
                dir: DmaDir::Read,
                frame,
                cost: 0,
            },
        );
    }

    /// Enter a mapping with an effective protection.
    pub fn enter_mapping(&mut self, m: Mapping, frame: PFrame, prot: Prot) {
        self.cpu.xlate_cache = None;
        self.cpu.mmu.enter(
            m,
            Pte {
                frame,
                prot,
                uncached: false,
            },
        );
        self.cpu.cycles += self.cfg.costs.mapping_update;
        self.profiler
            .leaf("mapping_update", self.cfg.costs.mapping_update);
    }

    /// Change the effective protection of a mapping (TLB entry
    /// invalidated).
    pub fn set_protection(&mut self, m: Mapping, prot: Prot) {
        self.cpu.xlate_cache = None;
        self.cpu.mmu.protect(m, prot);
        self.cpu.cycles += self.cfg.costs.mapping_update;
        self.profiler
            .leaf("mapping_update", self.cfg.costs.mapping_update);
    }

    /// Mark a mapping uncached/cached.
    pub fn set_uncached(&mut self, m: Mapping, uncached: bool) {
        self.cpu.xlate_cache = None;
        self.cpu.mmu.set_uncached(m, uncached);
        self.cpu.cycles += self.cfg.costs.mapping_update;
        self.profiler
            .leaf("mapping_update", self.cfg.costs.mapping_update);
    }

    /// Remove a mapping; returns its frame if it existed.
    pub fn remove_mapping(&mut self, m: Mapping) -> Option<PFrame> {
        self.cpu.xlate_cache = None;
        self.cpu.cycles += self.cfg.costs.mapping_update;
        self.profiler
            .leaf("mapping_update", self.cfg.costs.mapping_update);
        self.cpu.mmu.remove(m).map(|pte| pte.frame)
    }

    /// The current translation of a mapping, if any (no TLB side effects).
    pub fn lookup(&self, m: Mapping) -> Option<Pte> {
        self.cpu.mmu.lookup(m)
    }

    /// Does data cache page `cp` currently hold any line of `frame`?
    /// (Testing and assertions.)
    pub fn dcache_holds(&self, cp: CachePage, frame: PFrame) -> bool {
        self.cpu.dcache.page_holds(cp, frame, self.cfg.page_size)
    }

    /// Read physical memory directly, bypassing the caches, **without**
    /// oracle checks or cycle charges. For assertions and debugging only —
    /// the values seen may legitimately be stale while dirty data sits in
    /// the cache.
    pub fn peek_memory(&self, frame: PFrame, offset: u64) -> u32 {
        self.shared.mem.read_u32(self.cfg.paddr(frame, offset))
    }

    fn cache_snapshot(c: &Cache) -> CacheSnapshot {
        CacheSnapshot {
            kind: c.kind(),
            num_lines: c.num_lines(),
            associativity: c.associativity(),
            pages: (0..c.num_cache_pages())
                .map(|cp| c.occupancy(CachePage(cp)))
                .collect(),
            victim_ways: c.victim_way_counts(),
        }
    }

    /// Take a point-in-time hardware snapshot: per-cache-page occupancy
    /// and dirtiness (straight from the occupancy index), victim-buffer
    /// state, and TLB residency. Reads only — no statistic, no cycle, no
    /// cache line changes.
    pub fn inspect(&self) -> MachineSnapshot {
        MachineSnapshot {
            cycles: self.cpu.cycles,
            dcache: Self::cache_snapshot(&self.cpu.dcache),
            icache: Self::cache_snapshot(&self.cpu.icache),
            tlb: TlbSnapshot {
                resident: self.cpu.mmu.tlb_resident() as u64,
                capacity: self.cpu.mmu.tlb_capacity() as u64,
            },
        }
    }

    /// Attach a cycle-driven snapshot sampler. At operation boundaries,
    /// once the clock crosses the sampler's next due point, the machine
    /// hands it an [`Machine::inspect`] snapshot. Sampling changes no
    /// simulated state and charges no cycles.
    pub fn set_sampler(&mut self, sampler: SnapshotSampler) {
        self.sampler = Some(sampler);
    }

    /// Detach and return the sampler (with its collected samples), if one
    /// was attached.
    pub fn take_sampler(&mut self) -> Option<SnapshotSampler> {
        self.sampler.take()
    }

    /// The attached sampler, if any.
    pub fn sampler(&self) -> Option<&SnapshotSampler> {
        self.sampler.as_ref()
    }

    /// Tick the sampler at an operation boundary: one `is_some` branch
    /// when disabled, one comparison when armed.
    #[inline]
    fn sample_tick(&mut self) {
        match &self.sampler {
            Some(s) if s.due(self.cpu.cycles) => {
                let snap = self.inspect();
                if let Some(s) = self.sampler.as_mut() {
                    s.record(snap);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small())
    }

    fn map(mach: &mut Machine, s: u32, vp: u64, f: u64, prot: Prot) -> (Mapping, VAddr) {
        let m = Mapping::new(SpaceId(s), vic_core::types::VPage(vp));
        mach.enter_mapping(m, PFrame(f), prot);
        (m, mach.config().vaddr(vic_core::types::VPage(vp)))
    }

    #[test]
    fn load_store_roundtrip() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        mach.store(SpaceId(1), va, 77).unwrap();
        assert_eq!(mach.load(SpaceId(1), va).unwrap(), 77);
        assert_eq!(mach.oracle().violations(), 0);
        assert_eq!(mach.stats().stores, 1);
        assert_eq!(mach.stats().loads, 1);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut mach = machine();
        let err = mach.load(SpaceId(1), VAddr(0)).unwrap_err();
        assert!(matches!(err, Fault::NoMapping { .. }));
        assert_eq!(err.access(), Access::Read);
    }

    #[test]
    fn protection_fault() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ);
        assert!(mach.load(SpaceId(1), va).is_ok());
        let err = mach.store(SpaceId(1), va, 1).unwrap_err();
        assert!(matches!(err, Fault::Protection { .. }));
        assert_eq!(err.access(), Access::Write);
        let err = mach.ifetch(SpaceId(1), va).unwrap_err();
        assert!(matches!(err, Fault::Protection { .. }));
    }

    #[test]
    fn emergent_staleness_detected_by_oracle() {
        // Unaligned alias without any consistency management: the oracle
        // must catch the stale read. This is the end-to-end demonstration
        // that staleness is emergent, not injected.
        let mut mach = machine();
        // Frame 3 mapped at vp0 (cache page 0) and vp1 (cache page 1).
        let (_, va0) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        let (_, va1) = map(&mut mach, 1, 1, 3, Prot::READ_WRITE);
        // Prime the alias line, then write through the other address.
        let _ = mach.load(SpaceId(1), va1).unwrap();
        mach.store(SpaceId(1), va0, 42).unwrap();
        // Stale read through the alias.
        let v = mach.load(SpaceId(1), va1).unwrap();
        assert_eq!(v, 0, "the alias's line still holds the old value");
        assert_eq!(mach.oracle().violations(), 1);
        assert_eq!(mach.oracle().sample()[0].observer, "CPU load");
    }

    #[test]
    fn flush_restores_consistency() {
        let mut mach = machine();
        let (_, va0) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        let (_, va1) = map(&mut mach, 1, 1, 3, Prot::READ_WRITE);
        mach.store(SpaceId(1), va0, 42).unwrap();
        mach.flush_dcache_page(CachePage(0), PFrame(3));
        assert_eq!(mach.load(SpaceId(1), va1).unwrap(), 42);
        assert_eq!(mach.oracle().violations(), 0);
        assert_eq!(mach.stats().d_flush_pages.count, 1);
        assert_eq!(mach.stats().flush_writebacks, 1);
    }

    #[test]
    fn aligned_alias_needs_nothing() {
        let mut mach = machine();
        // vp0 and vp4 align in a 4-page data cache.
        let (_, va0) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        let (_, va4) = map(&mut mach, 1, 4, 3, Prot::READ_WRITE);
        mach.store(SpaceId(1), va0, 42).unwrap();
        assert_eq!(mach.load(SpaceId(1), va4).unwrap(), 42);
        assert_eq!(mach.oracle().violations(), 0);
    }

    #[test]
    fn dma_write_then_stale_cache_read() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        let _ = mach.load(SpaceId(1), va).unwrap(); // cache the zeros
        let page = vec![0xabu8; mach.config().page_size as usize];
        mach.dma_write_page(PFrame(3), &page);
        // The cache shadows the device's data: stale.
        let _ = mach.load(SpaceId(1), va).unwrap();
        assert_eq!(mach.oracle().violations(), 1);
        // After a purge the fresh data is visible.
        mach.oracle_mut().clear_violations();
        mach.purge_dcache_page(CachePage(0), PFrame(3));
        assert_eq!(
            mach.load(SpaceId(1), va).unwrap(),
            u32::from_le_bytes([0xab; 4])
        );
        assert_eq!(mach.oracle().violations(), 0);
    }

    #[test]
    fn dma_read_sees_stale_memory_without_flush() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        mach.store(SpaceId(1), va, 7).unwrap();
        let mut buf = vec![0u8; mach.config().page_size as usize];
        mach.dma_read_page(PFrame(3), &mut buf);
        assert_eq!(mach.oracle().violations(), 1, "device read stale memory");
        // With the flush, the device sees fresh data.
        mach.oracle_mut().clear_violations();
        mach.flush_dcache_page(CachePage(0), PFrame(3));
        mach.dma_read_page(PFrame(3), &mut buf);
        assert_eq!(mach.oracle().violations(), 0);
        assert_eq!(&buf[0..4], &7u32.to_le_bytes());
    }

    #[test]
    fn split_caches_are_independent() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::ALL);
        mach.store(SpaceId(1), va, 0x1234).unwrap();
        // The store is in the D-cache only; an ifetch misses to stale
        // memory.
        let got = mach.ifetch(SpaceId(1), va).unwrap();
        assert_eq!(got, 0, "instruction cache fetched stale memory");
        assert_eq!(mach.oracle().violations(), 1);
        mach.oracle_mut().clear_violations();
        // Flush D, purge I, refetch: fresh.
        mach.flush_dcache_page(CachePage(0), PFrame(3));
        mach.purge_icache_page(CachePage(0), PFrame(3));
        assert_eq!(mach.ifetch(SpaceId(1), va).unwrap(), 0x1234);
        assert_eq!(mach.oracle().violations(), 0);
    }

    #[test]
    fn uncached_mapping_bypasses_cache() {
        let mut mach = machine();
        let (m0, va0) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        let (m1, va1) = map(&mut mach, 1, 1, 3, Prot::READ_WRITE);
        mach.set_uncached(m0, true);
        mach.set_uncached(m1, true);
        mach.store(SpaceId(1), va0, 5).unwrap();
        assert_eq!(mach.load(SpaceId(1), va1).unwrap(), 5);
        assert_eq!(mach.oracle().violations(), 0);
        assert_eq!(mach.stats().uncached, 2);
    }

    #[test]
    fn cycle_costs_accumulate() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        let before = mach.cycles();
        mach.store(SpaceId(1), va, 1).unwrap(); // tlb miss + cache miss
        let after_miss = mach.cycles();
        mach.store(SpaceId(1), va, 2).unwrap(); // hit
        let after_hit = mach.cycles();
        assert!(after_miss - before > after_hit - after_miss);
        assert_eq!(after_hit - after_miss, mach.config().costs.cache_hit);
    }

    #[test]
    fn flush_costs_depend_on_contents() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        // Flush of an absent page is cheap.
        let c0 = mach.cycles();
        mach.flush_dcache_page(CachePage(0), PFrame(3));
        let absent_cost = mach.cycles() - c0;
        // Fill a page worth of lines, then flush: expensive.
        for off in (0..mach.config().page_size).step_by(4) {
            mach.store(SpaceId(1), VAddr(va.0 + off), 1).unwrap();
        }
        let c1 = mach.cycles();
        mach.flush_dcache_page(CachePage(0), PFrame(3));
        let present_cost = mach.cycles() - c1;
        assert!(
            present_cost > 5 * absent_cost,
            "present {present_cost} vs absent {absent_cost}"
        );
    }

    #[test]
    fn icache_purge_constant_time() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_EXECUTE);
        let c0 = mach.cycles();
        mach.purge_icache_page(CachePage(0), PFrame(3));
        let empty_cost = mach.cycles() - c0;
        for off in (0..mach.config().page_size).step_by(4) {
            let _ = mach.ifetch(SpaceId(1), VAddr(va.0 + off)).unwrap();
        }
        let c1 = mach.cycles();
        mach.purge_icache_page(CachePage(0), PFrame(3));
        let full_cost = mach.cycles() - c1;
        assert_eq!(empty_cost, full_cost, "constant regardless of contents");
    }

    #[test]
    fn remove_mapping_returns_frame() {
        let mut mach = machine();
        let (m, _) = map(&mut mach, 1, 0, 3, Prot::READ);
        assert_eq!(mach.remove_mapping(m), Some(PFrame(3)));
        assert_eq!(mach.remove_mapping(m), None);
    }

    #[test]
    fn inspect_reports_occupancy_and_tlb() {
        let mut mach = machine();
        let snap0 = mach.inspect();
        assert_eq!(snap0.dcache.valid_total(), 0, "power-up purge");
        assert_eq!(snap0.tlb.resident, 0);
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        mach.store(SpaceId(1), va, 7).unwrap();
        let snap = mach.inspect();
        assert_eq!(snap.cycles, mach.cycles());
        assert_eq!(snap.dcache.valid_total(), 1);
        assert_eq!(snap.dcache.dirty_total(), 1);
        assert_eq!(snap.icache.valid_total(), 0);
        assert_eq!(snap.tlb.resident, 1);
        assert_eq!(snap.tlb.capacity, mach.config().tlb_entries as u64);
        assert_eq!(
            snap.dcache.victim_ways.iter().sum::<u64>(),
            snap.dcache.num_lines / snap.dcache.associativity,
            "one pointer per set"
        );
    }

    /// Property: the O(1) occupancy index (PR 4) and [`Machine::inspect`]
    /// agree with a brute-force scan of the line array, for every cache
    /// page, after any interleaving of loads, stores, ifetches, flushes
    /// and purges — across associativities 1, 2 and 4.
    #[test]
    fn inspect_occupancy_matches_line_scan_property() {
        use vic_core::Rng64;
        for assoc in [1u64, 2, 4] {
            let mut cfg = MachineConfig::small();
            cfg.dcache_assoc = assoc;
            cfg.icache_assoc = assoc;
            // Scale capacity with ways so every way still holds at least
            // one page (cache-page count stays constant across the runs).
            cfg.dcache_bytes *= assoc;
            cfg.icache_bytes *= assoc;
            let mut mach = Machine::new(cfg);
            let mut rng = Rng64::seed_from_u64(0x0cc0_d1ce ^ assoc);
            let pages = 6u64;
            let mut vas = Vec::new();
            for vp in 0..pages {
                let prot = if vp % 3 == 0 {
                    Prot::READ_EXECUTE
                } else {
                    Prot::READ_WRITE
                };
                let (_, va) = map(&mut mach, 1, vp, vp + 2, prot);
                vas.push(va);
            }
            let page_size = mach.config().page_size;
            let d_pages = mach.cpu.dcache.num_cache_pages();
            let i_pages = mach.cpu.icache.num_cache_pages();
            for step in 0..300u64 {
                let p = rng.gen_index(pages as usize);
                let va = VAddr(vas[p].0 + rng.gen_u64(0, page_size / 4 - 1) * 4);
                let frame = PFrame(p as u64 + 2);
                let exec = (p as u64).is_multiple_of(3);
                match rng.gen_u64(0, 5) {
                    0 | 1 if !exec => {
                        mach.store(SpaceId(1), va, step as u32).unwrap();
                    }
                    2 if exec => {
                        let _ = mach.ifetch(SpaceId(1), va).unwrap();
                    }
                    3 => mach.flush_dcache_page(CachePage(p as u32 % d_pages), frame),
                    4 => {
                        // Flush before purge, as a correct consistency
                        // manager would — a bare purge of dirty lines is
                        // a staleness-oracle violation by design.
                        let cp = CachePage(p as u32 % d_pages);
                        mach.flush_dcache_page(cp, frame);
                        mach.purge_dcache_page(cp, frame);
                    }
                    5 => mach.purge_icache_page(CachePage(p as u32 % i_pages), frame),
                    _ => {
                        let _ = mach.load(SpaceId(1), va).unwrap();
                    }
                }
                if step % 16 != 0 {
                    continue;
                }
                let snap = mach.inspect();
                for (cache, pages) in [
                    (&mach.cpu.dcache, &snap.dcache),
                    (&mach.cpu.icache, &snap.icache),
                ] {
                    for cp in 0..cache.num_cache_pages() {
                        let index = cache.occupancy(CachePage(cp));
                        let scan = cache.scan_occupancy(CachePage(cp));
                        assert_eq!(
                            index,
                            scan,
                            "assoc {assoc} step {step}: occupancy index drifted from the \
                             line array on {:?} cache page {cp}",
                            cache.kind()
                        );
                        assert_eq!(
                            pages.pages[cp as usize], index,
                            "assoc {assoc} step {step}: inspect() disagrees with the index"
                        );
                    }
                }
            }
            assert_eq!(mach.oracle().violations(), 0);
        }
    }

    #[test]
    fn sampler_collects_without_changing_results() {
        let drive = |mut mach: Machine| {
            let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
            for i in 0..200u32 {
                mach.store(SpaceId(1), VAddr(va.0 + u64::from(i % 8) * 4), i)
                    .unwrap();
            }
            mach
        };
        let plain = drive(machine());
        let mut sampled = machine();
        sampled.set_sampler(SnapshotSampler::every(50));
        let mut sampled = drive(sampled);
        assert_eq!(plain.cycles(), sampled.cycles(), "sampling is free");
        assert_eq!(plain.stats(), sampled.stats());
        let s = sampled.take_sampler().expect("sampler attached");
        assert!(sampled.sampler().is_none(), "take detaches");
        assert!(!s.samples().is_empty(), "samples were collected");
        for w in s.samples().windows(2) {
            assert!(w[0].cycles < w[1].cycles, "cycle-ordered");
        }
    }

    /// Save/restore at an arbitrary point, then drive the restored machine
    /// and the original in lockstep: every observable — cycles, stats,
    /// loaded values, oracle state, hardware snapshot — must stay
    /// identical. This is the machine-level half of the checkpoint
    /// determinism lock.
    #[test]
    fn save_restore_continues_identically() {
        use vic_core::serial::{WordReader, WordWriter};
        let mut mach = machine();
        let (_, va0) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        let (_, va1) = map(&mut mach, 1, 1, 3, Prot::READ_WRITE);
        let (_, va2) = map(&mut mach, 2, 2, 5, Prot::READ_EXECUTE);
        for i in 0..40u32 {
            mach.store(SpaceId(1), VAddr(va0.0 + u64::from(i % 8) * 4), i)
                .unwrap();
            let _ = mach.load(SpaceId(1), va1).unwrap();
            let _ = mach.ifetch(SpaceId(2), va2).unwrap();
        }
        mach.flush_dcache_page(CachePage(0), PFrame(3));
        let page = vec![0x5au8; mach.config().page_size as usize];
        mach.dma_write_page(PFrame(5), &page);

        let mut w = WordWriter::new();
        mach.save_state(&mut w);
        let words = w.into_words();
        let mut restored = Machine::new(MachineConfig::small());
        let mut r = WordReader::new(&words);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.cycles(), mach.cycles());
        assert_eq!(restored.stats(), mach.stats());
        assert_eq!(restored.oracle().violations(), mach.oracle().violations());
        // Continue both in lockstep; divergence at any step would surface
        // in the values read, the cycle account or the snapshot.
        for (step, &va) in [va0, va1].iter().cycle().take(60).enumerate() {
            let a = mach.load(SpaceId(1), va).unwrap();
            let b = restored.load(SpaceId(1), va).unwrap();
            assert_eq!(a, b, "step {step}: loaded value");
            mach.store(SpaceId(1), va, step as u32).unwrap();
            restored.store(SpaceId(1), va, step as u32).unwrap();
            if step % 7 == 0 {
                mach.flush_dcache_page(CachePage(step as u32 % 4), PFrame(3));
                restored.flush_dcache_page(CachePage(step as u32 % 4), PFrame(3));
            }
            assert_eq!(mach.cycles(), restored.cycles(), "step {step}: cycles");
        }
        assert_eq!(mach.stats(), restored.stats());
        let (sa, sb) = (mach.inspect(), restored.inspect());
        assert_eq!(sa.dcache.pages, sb.dcache.pages);
        assert_eq!(sa.icache.pages, sb.icache.pages);
        assert_eq!(sa.tlb.resident, sb.tlb.resident);
        assert_eq!(mach.oracle().violations(), restored.oracle().violations());
    }

    /// Restoring into a machine with a different geometry must fail with a
    /// typed error, never reinterpret the stream.
    #[test]
    fn restore_rejects_mismatched_config() {
        use vic_core::serial::{SerialError, WordReader, WordWriter};
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        mach.store(SpaceId(1), va, 7).unwrap();
        let mut w = WordWriter::new();
        mach.save_state(&mut w);
        let words = w.into_words();

        let mut big = Machine::new(MachineConfig::hp720());
        let mut r = WordReader::new(&words);
        assert!(matches!(
            big.restore_state(&mut r),
            Err(SerialError::Corrupt { .. })
        ));

        // Truncation is typed too.
        let mut fresh = Machine::new(MachineConfig::small());
        let mut r = WordReader::new(&words[..words.len() - 1]);
        assert!(matches!(
            fresh.restore_state(&mut r),
            Err(SerialError::Truncated { .. })
        ));
    }

    #[test]
    fn reset_account_keeps_state() {
        let mut mach = machine();
        let (_, va) = map(&mut mach, 1, 0, 3, Prot::READ_WRITE);
        mach.store(SpaceId(1), va, 9).unwrap();
        mach.reset_account();
        assert_eq!(mach.cycles(), 0);
        assert_eq!(mach.stats().stores, 0);
        // State survives: the cached value is still there.
        assert_eq!(mach.load(SpaceId(1), va).unwrap(), 9);
    }
}

#[cfg(test)]
mod tlb_tests {
    use super::*;
    use vic_core::types::VPage;

    /// A one-entry TLB: every alternate-page access is a TLB miss, yet
    /// protection changes still take effect immediately (the entry is
    /// invalidated, not served stale).
    #[test]
    fn tiny_tlb_correctness_under_protection_changes() {
        let mut cfg = MachineConfig::small();
        cfg.tlb_entries = 1;
        let mut mach = Machine::new(cfg);
        let sp = SpaceId(1);
        let m0 = Mapping::new(sp, VPage(0));
        let m1 = Mapping::new(sp, VPage(1));
        mach.enter_mapping(m0, PFrame(3), Prot::READ_WRITE);
        mach.enter_mapping(m1, PFrame(4), Prot::READ_WRITE);
        let va0 = mach.config().vaddr(VPage(0));
        let va1 = mach.config().vaddr(VPage(1));
        for i in 0..8u32 {
            mach.store(sp, va0, i).unwrap();
            mach.store(sp, va1, i + 100).unwrap();
        }
        assert!(mach.stats().tlb_misses >= 8, "one entry thrashes");
        // Revoke write on a page whose entry is hot in the TLB.
        let _ = mach.load(sp, va0).unwrap();
        mach.set_protection(m0, Prot::READ);
        assert!(
            mach.store(sp, va0, 1).is_err(),
            "stale TLB entry not served"
        );
        assert_eq!(mach.oracle().violations(), 0);
    }
}
