//! The run document — the one result schema of `run`, `sweep` and
//! `profile` — with its one writer and its one reader.
//!
//! The crates are dependency-free, so the writer is a small hand-rolled
//! builder ([`JsonObj`]) and the reader sits on `vic_profile::parse_json`.
//! Output is deterministic: fields in fixed order, integers as integers,
//! and the only floats are derived from cycle counts (seconds) or host
//! timing (wall). A run document (`run --json`), with `V` for
//! [`vic_core::ENGINE_VERSION`]:
//!
//! ```json
//! {
//!   "engine_version": V,
//!   "spec": {"workload": "...", "system": "F", "quick": false, ...},
//!   "workload": "...",
//!   "system": "...",
//!   "elapsed_cycles": 123,
//!   "elapsed_seconds": 0.5,
//!   "wall_seconds": 0.01,          // only when host timing was taken
//!   "machine": { ...counters, flush/purge with cycle totals... },
//!   "mgr": {"d_flush_pages": {"total": n, "by_cause": {...}}, ...},
//!   "os": { ...counters... },
//!   "oracle_violations": 0,
//!   // optional sections (Sections), in this order:
//!   "cost_tree": [{"path": "os:fault.mapping/machine:software", "count": 10, "cycles": 3500}, ...],
//!   "snapshot": {"machine": {"cycles": n, "dcache": {...}, "icache": {...}, "tlb": {...}},
//!                "frames_tracked": n, "d_states": {...}, "i_states": {...}},
//!   "series": {"label": "...", "every": n, "samples": [{"cycles": n, "dcache": {...}, ...}, ...]},
//!   "audit": {"events_seen": n, "transitions_checked": n, "divergence_count": n,
//!             "divergences": ["..."]},
//!   "events": [{"cycle": n, "layer": "...", "ev": "...", ...}, ...],
//!   "error": "..."
//! }
//! ```
//!
//! [`run_json`] writes the plain document; [`run_doc`] appends the
//! sections. `profile --json` adds `cost_tree`, whose rows sum to
//! `elapsed_cycles`; `run --inspect <file>.json` adds `series`; and the
//! flight recorder (`run --flight`) adds `snapshot`, `audit`, `events` (the
//! last trace events, in the `--trace` line format) and `error` (why the
//! dump was taken).
//!
//! A sweep document ([`sweep_json`]) wraps run documents:
//! `{"engine_version": V, "threads": n, "wall_seconds": t, "runs": [...],
//! "failures": [{"spec": {...}, "error": "..."}]}`. `sweep --json` writes
//! it; `profile baseline` writes it with a `cost_tree` in every run and
//! without the host-time fields (`threads` and every `wall_seconds`), so
//! `BENCH_baseline.json` is byte-identical at any thread count.
//!
//! [`read_doc`] reads either kind back (and [`run_from_json`] one run
//! document) for `sweep --cache`, `profile diff` and
//! `profile --check-baseline`. Checkpoints ([`crate::checkpoint`]) and
//! `--trace` lines are not results and keep their own formats.

use std::fmt::Write as _;

use vic_core::manager::{CauseCounts, MgrStats, OpCause};
use vic_core::types::CacheKind;
use vic_core::ENGINE_VERSION;
use vic_machine::{MachineStats, OpStat};
use vic_metrics::{CacheSnapshot, MachineSnapshot, PageStateCounts, SystemSnapshot, TimeSeries};
use vic_os::OsStats;
use vic_profile::{parse_json, CostTree, FlatRow, JsonValue};
use vic_trace::{ConsistencyAuditor, RingBufferSink};
use vic_workloads::RunStats;

use crate::cli::system_cli_name;
use crate::digest::spec_from_json;
use crate::spec::SystemSpec;
use crate::sweep::{Outcome, Sweep};

/// An object under construction. Values are appended in call order; the
/// caller is responsible for key uniqueness.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    empty: bool,
}

impl JsonObj {
    /// Start an object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        push_json_string(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Add a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_json_string(&mut self.buf, v);
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field. Emitted via Rust's shortest-roundtrip `{}`
    /// formatting, so equal values always print identically.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add an already-serialized JSON value (nested object/array).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// [`JsonObj::raw`] when there is a value, else nothing.
    fn opt_raw(self, k: &str, v: Option<String>) -> Self {
        match v {
            Some(v) => self.raw(k, &v),
            None => self,
        }
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

/// Serialize a JSON array from already-serialized elements.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

fn json_string(s: &str) -> String {
    let mut buf = String::new();
    push_json_string(&mut buf, s);
    buf
}

/// The spec as a JSON object (parseable back with the `cli` names).
pub fn spec_json(spec: &SystemSpec) -> String {
    JsonObj::new()
        .str("workload", spec.workload.cli_name())
        .str("system", &system_cli_name(spec.system))
        .bool("quick", spec.quick)
        .bool("colored_free_lists", spec.colored_free_lists)
        .bool("write_through", spec.write_through)
        .bool("fast_purge", spec.fast_purge)
        .finish()
}

fn cause_key(c: OpCause) -> &'static str {
    match c {
        OpCause::NewMapping => "new_mapping",
        OpCause::AliasWrite => "alias_write",
        OpCause::AliasRead => "alias_read",
        OpCause::DmaRead => "dma_read",
        OpCause::DmaWrite => "dma_write",
        OpCause::TextCopy => "text_copy",
        OpCause::UnmapEager => "unmap_eager",
        OpCause::PageFree => "page_free",
    }
}

fn cause_counts_json(c: &CauseCounts) -> String {
    let mut by_cause = JsonObj::new();
    for (cause, n) in c.iter() {
        by_cause = by_cause.u64(cause_key(cause), n);
    }
    JsonObj::new()
        .u64("total", c.total())
        .raw("by_cause", &by_cause.finish())
        .finish()
}

fn op_stat_json(s: OpStat) -> String {
    JsonObj::new()
        .u64("count", s.count)
        .u64("cycles", s.cycles)
        .finish()
}

fn machine_json(m: &MachineStats) -> String {
    JsonObj::new()
        .u64("loads", m.loads)
        .u64("stores", m.stores)
        .u64("ifetches", m.ifetches)
        .u64("d_hits", m.d_hits)
        .u64("d_misses", m.d_misses)
        .u64("i_hits", m.i_hits)
        .u64("i_misses", m.i_misses)
        .u64("writebacks", m.writebacks)
        .u64("uncached", m.uncached)
        .u64("tlb_misses", m.tlb_misses)
        .raw("d_flush_pages", &op_stat_json(m.d_flush_pages))
        .raw("d_purge_pages", &op_stat_json(m.d_purge_pages))
        .raw("i_purge_pages", &op_stat_json(m.i_purge_pages))
        .u64("flush_writebacks", m.flush_writebacks)
        .u64("dma_writes", m.dma_writes)
        .u64("dma_reads", m.dma_reads)
        .finish()
}

fn mgr_json(m: &MgrStats) -> String {
    JsonObj::new()
        .raw("d_flush_pages", &cause_counts_json(&m.d_flush_pages))
        .raw("d_purge_pages", &cause_counts_json(&m.d_purge_pages))
        .raw("i_purge_pages", &cause_counts_json(&m.i_purge_pages))
        .finish()
}

fn os_json(o: &OsStats) -> String {
    JsonObj::new()
        .u64("mapping_faults", o.mapping_faults)
        .u64("consistency_faults", o.consistency_faults)
        .u64("zero_fills", o.zero_fills)
        .u64("page_copies", o.page_copies)
        .u64("ipc_transfers", o.ipc_transfers)
        .u64("cow_faults", o.cow_faults)
        .u64("cow_copies", o.cow_copies)
        .u64("d2i_copies", o.d2i_copies)
        .u64("fs_reads", o.fs_reads)
        .u64("fs_writes", o.fs_writes)
        .u64("buf_misses", o.buf_misses)
        .u64("buf_writebacks", o.buf_writebacks)
        .u64("tasks_created", o.tasks_created)
        .u64("pages_allocated", o.pages_allocated)
        .u64("pages_freed", o.pages_freed)
        .u64("page_outs", o.page_outs)
        .u64("page_ins", o.page_ins)
        .finish()
}

/// One run as a JSON object: the shared schema of `run --json` and the
/// entries of a sweep file. `wall_seconds` (host time, nondeterministic)
/// is included only when provided.
pub fn run_json(spec: &SystemSpec, stats: &RunStats, wall_seconds: Option<f64>) -> String {
    let mut o = JsonObj::new()
        .u64("engine_version", vic_core::ENGINE_VERSION)
        .raw("spec", &spec_json(spec))
        .str("workload", &stats.workload)
        .str("system", &stats.system)
        .u64("elapsed_cycles", stats.cycles)
        .f64("elapsed_seconds", stats.seconds);
    if let Some(w) = wall_seconds {
        o = o.f64("wall_seconds", w);
    }
    o.raw("machine", &machine_json(&stats.machine))
        .raw("mgr", &mgr_json(&stats.mgr))
        .raw("os", &os_json(&stats.os))
        .u64("oracle_violations", stats.oracle_violations)
        .finish()
}

/// The optional sections of a run document. Each is written only when
/// set, after the plain document's fields, in declaration order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sections<'a> {
    /// The run's cycle-cost tree, flattened to `{path, count, cycles}`
    /// rows (`profile`); the rows sum to `elapsed_cycles`.
    pub cost_tree: Option<&'a CostTree>,
    /// The machine and consistency state at the end of the run.
    pub snapshot: Option<&'a SystemSnapshot>,
    /// The occupancy time series (`run --inspect <file>.json`).
    pub series: Option<&'a TimeSeries>,
    /// The consistency auditor's counts and stored divergences.
    pub audit: Option<&'a ConsistencyAuditor>,
    /// The retained trace-event tail, oldest first, one `--trace` line
    /// object per event.
    pub events: Option<&'a RingBufferSink>,
    /// Why the run failed: a workload error, or the audit divergences
    /// that set off the flight recorder.
    pub error: Option<&'a str>,
}

/// A run document: [`run_json`]'s plain document followed by every set
/// section. With no section set it is exactly [`run_json`]'s bytes.
pub fn run_doc(
    spec: &SystemSpec,
    stats: &RunStats,
    wall_seconds: Option<f64>,
    sections: &Sections,
) -> String {
    let mut buf = run_json(spec, stats, wall_seconds);
    buf.pop(); // reopen the object: `run_json` ends with its closing brace
    JsonObj { buf, empty: false }
        .opt_raw("cost_tree", sections.cost_tree.map(cost_tree_json))
        .opt_raw("snapshot", sections.snapshot.map(snapshot_json))
        .opt_raw("series", sections.series.map(series_json))
        .opt_raw("audit", sections.audit.map(audit_json))
        .opt_raw("events", sections.events.map(events_json))
        .opt_raw("error", sections.error.map(json_string))
        .finish()
}

fn cost_tree_json(tree: &CostTree) -> String {
    json_array(tree.flatten().into_iter().map(|r| {
        JsonObj::new()
            .str("path", &r.path)
            .u64("count", r.count)
            .u64("cycles", r.cycles)
            .finish()
    }))
}

fn cache_snapshot_json(c: &CacheSnapshot) -> String {
    JsonObj::new()
        .str(
            "kind",
            match c.kind {
                CacheKind::Data => "data",
                CacheKind::Insn => "insn",
            },
        )
        .u64("num_lines", c.num_lines)
        .u64("associativity", c.associativity)
        .u64("valid", c.valid_total())
        .u64("dirty", c.dirty_total())
        .raw(
            "pages",
            &json_array(c.pages.iter().map(|(v, d)| format!("[{v},{d}]"))),
        )
        .raw(
            "victim_ways",
            &json_array(c.victim_ways.iter().map(u64::to_string)),
        )
        .finish()
}

fn machine_snapshot_json(m: &MachineSnapshot) -> String {
    JsonObj::new()
        .u64("cycles", m.cycles)
        .raw("dcache", &cache_snapshot_json(&m.dcache))
        .raw("icache", &cache_snapshot_json(&m.icache))
        .raw(
            "tlb",
            &JsonObj::new()
                .u64("resident", m.tlb.resident)
                .u64("capacity", m.tlb.capacity)
                .finish(),
        )
        .finish()
}

fn page_states_json(s: &PageStateCounts) -> String {
    JsonObj::new()
        .u64("empty", s.empty)
        .u64("present", s.present)
        .u64("dirty", s.dirty)
        .u64("stale", s.stale)
        .finish()
}

fn snapshot_json(s: &SystemSnapshot) -> String {
    JsonObj::new()
        .raw("machine", &machine_snapshot_json(&s.machine))
        .u64("frames_tracked", s.frames_tracked)
        .raw("d_states", &page_states_json(&s.d_states))
        .raw("i_states", &page_states_json(&s.i_states))
        .finish()
}

fn series_json(ts: &TimeSeries) -> String {
    JsonObj::new()
        .str("label", &ts.label)
        .u64("every", ts.every)
        .raw(
            "samples",
            &json_array(ts.samples.iter().map(machine_snapshot_json)),
        )
        .finish()
}

fn audit_json(a: &ConsistencyAuditor) -> String {
    JsonObj::new()
        .u64("events_seen", a.events_seen())
        .u64("transitions_checked", a.transitions_checked())
        .u64("divergence_count", a.divergence_count())
        .raw(
            "divergences",
            &json_array(a.divergences().iter().map(|d| json_string(&d.to_string()))),
        )
        .finish()
}

fn events_json(ring: &RingBufferSink) -> String {
    json_array(ring.events().map(|(cycle, ev)| {
        let mut s = String::new();
        ev.write_json(*cycle, &mut s);
        s
    }))
}

/// A sweep as a sweep document: every completed run as a run document
/// (with a `cost_tree` when the outcome carries one) and every failed
/// spec with its panic message, both in spec order. With `host_time` the
/// document records the thread count and the sweep's and each run's
/// wall-clock seconds; without, it holds only simulated values and is
/// byte-identical at any thread count (the `BENCH_baseline.json` form).
pub fn sweep_json<R: Outcome>(sweep: &Sweep<R>, host_time: bool) -> String {
    let mut o = JsonObj::new().u64("engine_version", ENGINE_VERSION);
    if host_time {
        o = o
            .u64("threads", sweep.threads as u64)
            .f64("wall_seconds", sweep.wall.as_secs_f64());
    }
    let runs = json_array(sweep.results.iter().map(|r| {
        let sections = Sections {
            cost_tree: r.out.cost_tree(),
            ..Sections::default()
        };
        let wall = host_time.then_some(r.wall.as_secs_f64());
        run_doc(&r.spec, r.out.stats(), wall, &sections)
    }));
    let failures = json_array(sweep.failures.iter().map(|(spec, msg)| {
        JsonObj::new()
            .raw("spec", &spec_json(spec))
            .str("error", msg)
            .finish()
    }));
    o.raw("runs", &runs).raw("failures", &failures).finish()
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn obj_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn op_stat_from_json(v: &JsonValue) -> Result<OpStat, String> {
    Ok(OpStat {
        count: u64_field(v, "count")?,
        cycles: u64_field(v, "cycles")?,
    })
}

fn cause_counts_from_json(v: &JsonValue) -> Result<CauseCounts, String> {
    let JsonValue::Obj(fields) = obj_field(v, "by_cause")? else {
        return Err("'by_cause' is not an object".to_string());
    };
    let mut counts = CauseCounts::default();
    for (key, n) in fields {
        let cause = OpCause::ALL
            .into_iter()
            .find(|&c| cause_key(c) == key)
            .ok_or_else(|| format!("unknown cause '{key}'"))?;
        let n = n
            .as_u64()
            .ok_or_else(|| format!("non-integer count for cause '{key}'"))?;
        if counts.get(cause) != 0 {
            return Err(format!("duplicate cause '{key}'"));
        }
        counts.add(cause, n);
    }
    let sum = counts
        .iter()
        .try_fold(0u64, |sum, (_, n)| sum.checked_add(n))
        .ok_or("cause counts overflow u64")?;
    if u64_field(v, "total")? != sum {
        return Err(format!("cause 'total' is not the sum {sum} of 'by_cause'"));
    }
    Ok(counts)
}

/// One run document read back by [`read_doc`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunDoc {
    /// The spec the run was made from.
    pub spec: SystemSpec,
    /// The run's statistics.
    pub stats: RunStats,
    /// The `cost_tree` rows, when the document has that section. They
    /// sum to `stats.cycles`.
    pub cost_tree: Option<Vec<FlatRow>>,
}

/// A document read back by [`read_doc`]: a sweep document, or a run
/// document read as a sweep of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDoc {
    /// The completed runs, in document order.
    pub runs: Vec<RunDoc>,
    /// The failed specs with their errors (none for a run document).
    pub failures: Vec<(SystemSpec, String)>,
}

fn check_version(doc: &JsonValue) -> Result<(), String> {
    let version = u64_field(doc, "engine_version")?;
    if version != ENGINE_VERSION {
        return Err(format!(
            "engine_version {version} != supported {ENGINE_VERSION}"
        ));
    }
    Ok(())
}

/// The `cost_tree` rows, checked to sum to `elapsed_cycles` (with
/// `checked_add`, so no wrapped sum can pass).
fn cost_tree_from_json(v: &JsonValue, elapsed_cycles: u64) -> Result<Vec<FlatRow>, String> {
    let rows = v.as_arr().ok_or("'cost_tree' is not an array")?;
    let mut out = Vec::with_capacity(rows.len());
    let mut sum = 0u64;
    for (i, r) in rows.iter().enumerate() {
        let at = |e: String| format!("cost_tree[{i}]: {e}");
        let path = str_field(r, "path").map_err(at)?;
        let count = u64_field(r, "count").map_err(at)?;
        let cycles = u64_field(r, "cycles").map_err(at)?;
        sum = sum
            .checked_add(cycles)
            .ok_or("cost_tree cycles overflow u64")?;
        out.push(FlatRow {
            path: path.to_string(),
            count,
            cycles,
        });
    }
    if sum != elapsed_cycles {
        return Err(format!(
            "cost_tree rows sum to {sum} cycles but elapsed_cycles is {elapsed_cycles}"
        ));
    }
    Ok(out)
}

/// Read one run document: the version, the spec, the statistics and the
/// `cost_tree` section. Other sections and unknown fields (such as
/// `wall_seconds`) are skipped.
fn run_from_value(doc: &JsonValue) -> Result<RunDoc, String> {
    check_version(doc)?;
    let spec = spec_from_json(obj_field(doc, "spec")?)?;
    let m = obj_field(doc, "machine")?;
    let machine = MachineStats {
        loads: u64_field(m, "loads")?,
        stores: u64_field(m, "stores")?,
        ifetches: u64_field(m, "ifetches")?,
        d_hits: u64_field(m, "d_hits")?,
        d_misses: u64_field(m, "d_misses")?,
        i_hits: u64_field(m, "i_hits")?,
        i_misses: u64_field(m, "i_misses")?,
        writebacks: u64_field(m, "writebacks")?,
        uncached: u64_field(m, "uncached")?,
        tlb_misses: u64_field(m, "tlb_misses")?,
        d_flush_pages: op_stat_from_json(obj_field(m, "d_flush_pages")?)?,
        d_purge_pages: op_stat_from_json(obj_field(m, "d_purge_pages")?)?,
        i_purge_pages: op_stat_from_json(obj_field(m, "i_purge_pages")?)?,
        flush_writebacks: u64_field(m, "flush_writebacks")?,
        dma_writes: u64_field(m, "dma_writes")?,
        dma_reads: u64_field(m, "dma_reads")?,
    };
    let g = obj_field(doc, "mgr")?;
    let mgr = MgrStats {
        d_flush_pages: cause_counts_from_json(obj_field(g, "d_flush_pages")?)?,
        d_purge_pages: cause_counts_from_json(obj_field(g, "d_purge_pages")?)?,
        i_purge_pages: cause_counts_from_json(obj_field(g, "i_purge_pages")?)?,
    };
    let o = obj_field(doc, "os")?;
    let os = OsStats {
        mapping_faults: u64_field(o, "mapping_faults")?,
        consistency_faults: u64_field(o, "consistency_faults")?,
        zero_fills: u64_field(o, "zero_fills")?,
        page_copies: u64_field(o, "page_copies")?,
        ipc_transfers: u64_field(o, "ipc_transfers")?,
        cow_faults: u64_field(o, "cow_faults")?,
        cow_copies: u64_field(o, "cow_copies")?,
        d2i_copies: u64_field(o, "d2i_copies")?,
        fs_reads: u64_field(o, "fs_reads")?,
        fs_writes: u64_field(o, "fs_writes")?,
        buf_misses: u64_field(o, "buf_misses")?,
        buf_writebacks: u64_field(o, "buf_writebacks")?,
        tasks_created: u64_field(o, "tasks_created")?,
        pages_allocated: u64_field(o, "pages_allocated")?,
        pages_freed: u64_field(o, "pages_freed")?,
        page_outs: u64_field(o, "page_outs")?,
        page_ins: u64_field(o, "page_ins")?,
    };
    let stats = RunStats {
        workload: str_field(doc, "workload")?.to_string(),
        system: str_field(doc, "system")?.to_string(),
        cycles: u64_field(doc, "elapsed_cycles")?,
        seconds: doc
            .get("elapsed_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("missing or non-numeric field 'elapsed_seconds'")?,
        machine,
        mgr,
        os,
        oracle_violations: u64_field(doc, "oracle_violations")?,
    };
    let cost_tree = doc
        .get("cost_tree")
        .map(|v| cost_tree_from_json(v, stats.cycles))
        .transpose()?;
    Ok(RunDoc {
        spec,
        stats,
        cost_tree,
    })
}

fn failure_from_json(v: &JsonValue) -> Result<(SystemSpec, String), String> {
    let spec = spec_from_json(obj_field(v, "spec")?)?;
    Ok((spec, str_field(v, "error")?.to_string()))
}

/// Read a run document or a sweep document: the one reader of every
/// result this crate writes. Each run's cause totals must equal their
/// `by_cause` sums and its `cost_tree` rows must sum to its
/// `elapsed_cycles`; host-time fields are ignored.
///
/// # Errors
///
/// A message naming the JSON error, the engine-version mismatch, or the
/// first missing, mistyped or inconsistent field (prefixed with the run
/// or failure it belongs to).
pub fn read_doc(text: &str) -> Result<SweepDoc, String> {
    let doc = parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
    let Some(runs) = doc.get("runs") else {
        return Ok(SweepDoc {
            runs: vec![run_from_value(&doc)?],
            failures: Vec::new(),
        });
    };
    check_version(&doc)?;
    let runs = runs
        .as_arr()
        .ok_or("'runs' is not an array")?
        .iter()
        .enumerate()
        .map(|(i, r)| run_from_value(r).map_err(|e| format!("runs[{i}]: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let failures = doc
        .get("failures")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array 'failures'")?
        .iter()
        .enumerate()
        .map(|(i, f)| failure_from_json(f).map_err(|e| format!("failures[{i}]: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SweepDoc { runs, failures })
}

/// Read one run document back to the spec and statistics it was written
/// from ([`read_doc`] for a single run): the reader behind the sweep
/// result cache. A caller that must know the document is exactly what
/// this engine writes re-emits the result with [`run_json`] and compares
/// bytes.
///
/// # Errors
///
/// As [`read_doc`]; a sweep document is an error (it has no `spec`).
pub fn run_from_json(text: &str) -> Result<(SystemSpec, RunStats), String> {
    let doc = parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
    let run = run_from_value(&doc)?;
    Ok((run.spec, run.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_shapes() {
        let s = JsonObj::new()
            .str("name", "a \"quoted\"\nvalue")
            .u64("n", 3)
            .bool("flag", true)
            .f64("x", 1.5)
            .raw("nested", &JsonObj::new().u64("y", 1).finish())
            .finish();
        assert_eq!(
            s,
            "{\"name\":\"a \\\"quoted\\\"\\nvalue\",\"n\":3,\"flag\":true,\"x\":1.5,\"nested\":{\"y\":1}}"
        );
        assert_eq!(json_array(vec![]), "[]");
        assert_eq!(json_array(vec!["1".to_string(), "2".to_string()]), "[1,2]");
    }

    /// The quick Table-4+5 grid plus one spec per non-default knob.
    fn reader_specs() -> Vec<SystemSpec> {
        use vic_core::policy::Configuration;
        use vic_os::SystemKind;
        use vic_workloads::WorkloadKind;

        let mut specs = SystemSpec::table4_grid(true);
        specs.extend(SystemSpec::table5_grid(true));
        let base = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
        let mut v = base;
        v.write_through = true;
        specs.push(v);
        let mut v = base;
        v.colored_free_lists = true;
        specs.push(v);
        let mut v = base;
        v.fast_purge = true;
        specs.push(v);
        specs
    }

    #[test]
    fn run_from_json_inverts_run_json_byte_for_byte() {
        for spec in reader_specs() {
            let stats = spec.run();
            let text = run_json(&spec, &stats, None);
            let (back_spec, back) =
                run_from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            assert_eq!(back_spec, spec);
            assert_eq!(back, stats, "{}", spec.label());
            assert_eq!(run_json(&back_spec, &back, None), text);
        }
    }

    #[test]
    fn run_from_json_rejects_every_strict_prefix_and_foreign_versions() {
        use vic_os::SystemKind;
        use vic_workloads::WorkloadKind;

        let spec = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Tut);
        let text = run_json(&spec, &spec.run(), None);
        assert!(!text.contains("wall_seconds"), "no host time unless given");
        // A torn write leaves a prefix: each one is an error, not a panic.
        for end in 0..text.len() {
            assert!(run_from_json(&text[..end]).is_err(), "{end}-byte prefix");
        }
        let foreign = text.replacen(
            &format!("\"engine_version\":{ENGINE_VERSION}"),
            &format!("\"engine_version\":{}", ENGINE_VERSION + 1),
            1,
        );
        let err = run_from_json(&foreign).unwrap_err();
        assert!(err.contains("engine_version"), "{err}");
        let err = run_from_json(&text.replacen("\"dma_read\"", "\"dma_rd\"", 1)).unwrap_err();
        assert!(err.contains("unknown cause"), "{err}");
    }

    #[test]
    fn cost_tree_rows_must_sum_to_elapsed_cycles() {
        use vic_os::SystemKind;
        use vic_workloads::WorkloadKind;

        let spec = SystemSpec::quick(WorkloadKind::AliasAligned, SystemKind::Utah);
        let mut stats = spec.run();
        let rows = |cycles: &[u64]| {
            let mut t = CostTree::new();
            for (i, &c) in cycles.iter().enumerate() {
                let node = t.child(0, vic_profile::Seg::Machine(["a", "b", "c"][i]));
                t.add(node, 1, c);
            }
            t
        };
        let doc = |stats: &RunStats, tree: &CostTree| {
            let sections = Sections {
                cost_tree: Some(tree),
                ..Sections::default()
            };
            read_doc(&run_doc(&spec, stats, None, &sections))
        };
        // Rows whose sum wraps to the stated total are still caught.
        stats.cycles = 5;
        let err = doc(&stats, &rows(&[1 << 63, 1 << 63, 5])).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        let err = doc(&stats, &rows(&[2, 2])).unwrap_err();
        assert!(err.contains("sum to 4"), "{err}");
        assert!(doc(&stats, &rows(&[2, 3])).is_ok());
        stats.cycles = 1 << 63;
        assert!(doc(&stats, &rows(&[1 << 62, 1 << 62])).is_ok());
    }

    #[test]
    fn cause_totals_are_checked() {
        use vic_core::policy::Configuration;
        use vic_os::SystemKind;
        use vic_workloads::WorkloadKind;

        let spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
        let stats = spec.run();
        let text = run_json(&spec, &stats, None);
        let purges = stats.mgr.d_purge_pages.total();
        assert!(purges > 0, "fork-bench purges");
        let pattern = format!("\"total\":{purges},");
        let err = run_from_json(&text.replacen(&pattern, "\"total\":0,", 1)).unwrap_err();
        assert!(err.contains("'total'"), "{err}");
        // A repeated cause key could overflow the count: it is refused.
        let dup = text.replacen(
            "\"by_cause\":{\"new_mapping\":",
            "\"by_cause\":{\"new_mapping\":18446744073709551615,\"new_mapping\":",
            1,
        );
        assert_ne!(dup, text);
        let err = run_from_json(&dup).unwrap_err();
        assert!(err.contains("duplicate cause"), "{err}");
    }

    #[test]
    fn sweep_documents_list_runs_and_failures() {
        use crate::sweep::run_sweep;
        use vic_metrics::ProgressReporter;
        use vic_os::SystemKind;
        use vic_workloads::WorkloadKind;

        let specs = [SystemKind::Utah, SystemKind::Tut, SystemKind::Sun]
            .map(|sys| SystemSpec::quick(WorkloadKind::AliasAligned, sys));
        let sweep = run_sweep(&specs, 2, &ProgressReporter::disabled(), |s| {
            assert!(*s != specs[1], "boom \"quoted\"");
            s.run()
        });
        let text = sweep_json(&sweep, true);
        let head = format!("{{\"engine_version\":{ENGINE_VERSION},\"threads\":2,\"wall_seconds\":");
        assert!(text.starts_with(&head), "{text}");
        let tail = format!(
            ",\"failures\":[{{\"spec\":{},\"error\":\"boom \\\"quoted\\\"\"}}]}}",
            spec_json(&specs[1])
        );
        assert!(text.ends_with(&tail), "{text}");
        assert_eq!(text.matches("\"wall_seconds\":").count(), 3);
        let back = read_doc(&text).expect("own output reads back");
        assert_eq!(back.failures, [(specs[1], "boom \"quoted\"".to_string())]);
        let ran: Vec<_> = back.runs.into_iter().map(|r| (r.spec, r.stats)).collect();
        assert_eq!(ran, [specs[0], specs[2]].map(|s| (s, s.run())));

        // Without host time: no thread count, no wall clock anywhere.
        let stable = sweep_json(&sweep, false);
        let head = format!("{{\"engine_version\":{ENGINE_VERSION},\"runs\":[{{");
        assert!(stable.starts_with(&head) && !stable.contains("wall_seconds"));
        assert_eq!(read_doc(&stable).unwrap().runs.len(), 2);
        // The single-run reader refuses a sweep document, and a sweep
        // document needs its failure list.
        assert!(run_from_json(&stable).is_err());
        assert!(read_doc(&stable.replacen("\"failures\":", "\"fail\":", 1)).is_err());
    }
}
