//! JSON emission for runs and sweeps — one schema for both, so a single
//! `run --json` and a full `sweep` grid are directly comparable when
//! tracking the perf trajectory over time.
//!
//! The crates are dependency-free, so this is a small hand-rolled builder
//! rather than a serialization framework. All output is deterministic:
//! fields in fixed order, integers as integers, and the only floats are
//! quantities derived from cycle counts (seconds) or host timing (wall).
//!
//! Schema of one run object (also the `--json` output of the `run`
//! binary); `V` stands for [`vic_core::ENGINE_VERSION`]:
//!
//! ```json
//! {
//!   "engine_version": V,
//!   "spec": {"workload": "...", "system": "F", "quick": false, ...},
//!   "elapsed_cycles": 123,
//!   "elapsed_seconds": 0.5,
//!   "wall_seconds": 0.01,          // only when host timing was taken
//!   "machine": { ...counters, flush/purge with cycle totals... },
//!   "mgr": {"d_flush_pages": {"total": n, "by_cause": {...}}, ...},
//!   "os": { ...counters... },
//!   "oracle_violations": 0
//! }
//! ```
//!
//! A sweep file wraps the runs:
//! `{"engine_version": V, "threads": n, "wall_seconds": t, "runs": [...]}`.
//!
//! Every versioned document this module emits carries the single
//! [`vic_core::ENGINE_VERSION`] stamp.

use std::fmt::Write as _;

use vic_core::manager::{CauseCounts, MgrStats, OpCause};
use vic_core::ENGINE_VERSION;
use vic_machine::{MachineStats, OpStat};
use vic_metrics::MetricsShard;
use vic_os::OsStats;
use vic_profile::{parse_json, JsonValue};
use vic_trace::Histogram;
use vic_workloads::RunStats;

use crate::cli::system_cli_name;
use crate::digest::spec_from_json;
use crate::spec::SystemSpec;
use crate::sweep::Sweep;

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

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn obj_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
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
        counts.add(cause, n);
    }
    Ok(counts)
}

/// Parse a [`run_json`] document back to the spec and statistics it was
/// written from: the reader behind the sweep result cache. A
/// `wall_seconds` field is ignored. Redundant fields (cause totals) are
/// not cross-checked; a caller that must know the document is exactly
/// what this engine writes re-emits the result with [`run_json`] and
/// compares bytes.
///
/// # Errors
///
/// A message naming the JSON error, the engine-version mismatch, or the
/// first missing or mistyped field.
pub fn run_from_json(text: &str) -> Result<(SystemSpec, RunStats), String> {
    let doc = parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
    let version = u64_field(&doc, "engine_version")?;
    if version != ENGINE_VERSION {
        return Err(format!(
            "engine_version {version} != supported {ENGINE_VERSION}"
        ));
    }
    let spec = spec_from_json(obj_field(&doc, "spec")?)?;
    let str_field = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string field '{key}'"))
    };
    let m = obj_field(&doc, "machine")?;
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
    let g = obj_field(&doc, "mgr")?;
    let mgr = MgrStats {
        d_flush_pages: cause_counts_from_json(obj_field(g, "d_flush_pages")?)?,
        d_purge_pages: cause_counts_from_json(obj_field(g, "d_purge_pages")?)?,
        i_purge_pages: cause_counts_from_json(obj_field(g, "i_purge_pages")?)?,
    };
    let o = obj_field(&doc, "os")?;
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
        workload: str_field("workload")?,
        system: str_field("system")?,
        cycles: u64_field(&doc, "elapsed_cycles")?,
        seconds: doc
            .get("elapsed_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("missing or non-numeric field 'elapsed_seconds'")?,
        machine,
        mgr,
        os,
        oracle_violations: u64_field(&doc, "oracle_violations")?,
    };
    Ok((spec, stats))
}

/// One profiled run as a JSON object: the entry format of a profile
/// document (read back by `vic_profile::ProfileDoc`). Runs are matched
/// between documents by the spec's label.
pub fn profile_run_json(spec: &SystemSpec, tree: &vic_profile::CostTree) -> String {
    let rows = json_array(tree.flatten().into_iter().map(|r| {
        JsonObj::new()
            .str("path", &r.path)
            .u64("count", r.count)
            .u64("cycles", r.cycles)
            .finish()
    }));
    JsonObj::new()
        .raw("spec", &spec_json(spec))
        .str("label", &spec.label())
        .u64("total_cycles", tree.total_cycles())
        .raw("rows", &rows)
        .finish()
}

/// A whole profile document (the `BENCH_baseline.json` format): versioned,
/// one entry per (spec, tree) pair, in input order.
pub fn profile_json<'a, I>(runs: I) -> String
where
    I: IntoIterator<Item = (&'a SystemSpec, &'a vic_profile::CostTree)>,
{
    JsonObj::new()
        .u64("engine_version", vic_core::ENGINE_VERSION)
        .raw(
            "runs",
            &json_array(runs.into_iter().map(|(s, t)| profile_run_json(s, t))),
        )
        .finish()
}

/// One run's contribution to a metrics document: its label, deterministic
/// simulated cycle count, and (nondeterministic) host nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMetric {
    /// Human-readable run label (the spec's label).
    pub label: String,
    /// Simulated cycles the run retired.
    pub sim_cycles: u64,
    /// Host wall-clock nanoseconds the run took.
    pub host_ns: u64,
}

fn histogram_json(h: &Histogram) -> String {
    JsonObj::new()
        .u64("count", h.count())
        .u64("total", h.total())
        .u64("min", h.min())
        .u64("max", h.max())
        .raw(
            "buckets",
            &json_array(h.buckets().iter().map(|n| n.to_string())),
        )
        .finish()
}

/// The fleet-telemetry metrics document: versioned, with a `fleet`
/// roll-up (runs completed/failed, cycles retired, host time), the raw
/// counters/gauges/histograms from the merged [`MetricsShard`], and one
/// entry per run. The fleet totals are *redundant* with the per-run list
/// on purpose — `parse_metrics_doc` cross-checks them, so a reader can
/// detect a truncated or hand-edited file.
pub fn metrics_json(
    threads: usize,
    wall_seconds: f64,
    shard: &MetricsShard,
    runs: &[RunMetric],
) -> String {
    let host_ns = shard
        .histogram("host_ns_per_run")
        .map_or(0, Histogram::total);
    let fleet = JsonObj::new()
        .u64("runs_completed", shard.counter("runs_completed"))
        .u64("runs_failed", shard.counter("runs_failed"))
        .u64("sim_cycles", shard.counter("sim_cycles"))
        .u64("host_ns", host_ns)
        .finish();
    let mut counters = JsonObj::new();
    for (name, n) in shard.counters() {
        counters = counters.u64(name, n);
    }
    let mut gauges = JsonObj::new();
    for (name, v) in shard.gauges() {
        gauges = gauges.u64(name, v);
    }
    let mut histograms = JsonObj::new();
    for (name, h) in shard.histograms() {
        histograms = histograms.raw(name, &histogram_json(h));
    }
    let runs = json_array(runs.iter().map(|r| {
        JsonObj::new()
            .str("label", &r.label)
            .u64("sim_cycles", r.sim_cycles)
            .u64("host_ns", r.host_ns)
            .finish()
    }));
    JsonObj::new()
        .u64("engine_version", vic_core::ENGINE_VERSION)
        .u64("threads", threads as u64)
        .f64("wall_seconds", wall_seconds)
        .raw("fleet", &fleet)
        .raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("histograms", &histograms.finish())
        .raw("runs", &runs)
        .finish()
}

/// A parsed and cross-checked metrics document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsDoc {
    /// Worker threads the sweep used.
    pub threads: u64,
    /// Fleet roll-up: runs completed.
    pub runs_completed: u64,
    /// Fleet roll-up: runs failed.
    pub runs_failed: u64,
    /// Fleet roll-up: total simulated cycles.
    pub sim_cycles: u64,
    /// Fleet roll-up: total host nanoseconds across runs.
    pub host_ns: u64,
    /// The per-run entries, in document order.
    pub runs: Vec<RunMetric>,
}

/// Parse a [`metrics_json`] document and verify its internal consistency:
/// the version matches, and the fleet totals (`runs_completed`,
/// `sim_cycles`, `host_ns`) equal the sums over the per-run list.
///
/// # Errors
///
/// A message naming the missing field, version mismatch, or the first
/// fleet total that disagrees with the run list.
pub fn parse_metrics_doc(text: &str) -> Result<MetricsDoc, String> {
    let doc = parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
    let version = u64_field(&doc, "engine_version")?;
    if version != ENGINE_VERSION {
        return Err(format!(
            "engine_version {version} != supported {ENGINE_VERSION}"
        ));
    }
    let threads = u64_field(&doc, "threads")?;
    let fleet = obj_field(&doc, "fleet")?;
    let runs_completed = u64_field(fleet, "runs_completed")?;
    let runs_failed = u64_field(fleet, "runs_failed")?;
    let sim_cycles = u64_field(fleet, "sim_cycles")?;
    let host_ns = u64_field(fleet, "host_ns")?;
    let mut runs = Vec::new();
    for (i, r) in doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array 'runs'")?
        .iter()
        .enumerate()
    {
        runs.push(RunMetric {
            label: r
                .get("label")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("run {i}: missing 'label'"))?
                .to_string(),
            sim_cycles: u64_field(r, "sim_cycles").map_err(|e| format!("run {i}: {e}"))?,
            host_ns: u64_field(r, "host_ns").map_err(|e| format!("run {i}: {e}"))?,
        });
    }
    if runs_completed != runs.len() as u64 {
        return Err(format!(
            "fleet.runs_completed {runs_completed} != {} run entries",
            runs.len()
        ));
    }
    let run_cycles: u64 = runs.iter().map(|r| r.sim_cycles).sum();
    if sim_cycles != run_cycles {
        return Err(format!(
            "fleet.sim_cycles {sim_cycles} != sum over runs {run_cycles}"
        ));
    }
    let run_ns: u64 = runs.iter().map(|r| r.host_ns).sum();
    if host_ns != run_ns {
        return Err(format!("fleet.host_ns {host_ns} != sum over runs {run_ns}"));
    }
    Ok(MetricsDoc {
        threads,
        runs_completed,
        runs_failed,
        sim_cycles,
        host_ns,
        runs,
    })
}

/// A whole sweep as a JSON object (the `BENCH_sweep.json` format).
pub fn sweep_json(sweep: &Sweep) -> String {
    JsonObj::new()
        .u64("engine_version", vic_core::ENGINE_VERSION)
        .u64("threads", sweep.threads as u64)
        .f64("wall_seconds", sweep.wall.as_secs_f64())
        .raw(
            "runs",
            &json_array(
                sweep
                    .results
                    .iter()
                    .map(|r| run_json(&r.spec, &r.out, Some(r.wall.as_secs_f64()))),
            ),
        )
        .finish()
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

    fn sample_metrics() -> (MetricsShard, Vec<RunMetric>) {
        let mut shard = MetricsShard::default();
        let runs: Vec<RunMetric> = [("a", 100, 7), ("b", 250, 9)]
            .into_iter()
            .map(|(label, sim_cycles, host_ns)| RunMetric {
                label: label.to_string(),
                sim_cycles,
                host_ns,
            })
            .collect();
        for r in &runs {
            shard.add("runs_completed", 1);
            shard.add("sim_cycles", r.sim_cycles);
            shard.observe("sim_cycles_per_run", r.sim_cycles);
            shard.observe("host_ns_per_run", r.host_ns);
            shard.gauge_max("peak_sim_cycles", r.sim_cycles);
        }
        (shard, runs)
    }

    #[test]
    fn metrics_doc_round_trips_and_cross_checks() {
        let (shard, runs) = sample_metrics();
        let text = metrics_json(4, 0.5, &shard, &runs);
        assert!(
            text.starts_with(&format!(
                "{{\"engine_version\":{},",
                vic_core::ENGINE_VERSION
            )),
            "{text}"
        );
        let doc = parse_metrics_doc(&text).expect("own output parses");
        assert_eq!(doc.threads, 4);
        assert_eq!(doc.runs_completed, 2);
        assert_eq!(doc.runs_failed, 0);
        assert_eq!(doc.sim_cycles, 350);
        assert_eq!(doc.host_ns, 16);
        assert_eq!(doc.runs, runs);

        // Tampered totals are caught.
        let bad = text.replace("\"sim_cycles\":350", "\"sim_cycles\":351");
        let err = parse_metrics_doc(&bad).expect_err("tampered total");
        assert!(err.contains("sim_cycles"), "{err}");
        let bad = text.replace(
            &format!("\"engine_version\":{}", vic_core::ENGINE_VERSION),
            "\"engine_version\":99",
        );
        assert!(parse_metrics_doc(&bad).is_err());
        assert!(parse_metrics_doc("{}").is_err());
        assert!(parse_metrics_doc("not json").is_err());
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
    fn run_json_is_deterministic_and_balanced() {
        use vic_core::policy::Configuration;
        use vic_os::SystemKind;
        use vic_workloads::WorkloadKind;

        let spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
        let a = run_json(&spec, &spec.run(), None);
        let b = run_json(&spec, &spec.run(), None);
        assert_eq!(a, b, "same spec, same JSON, byte for byte");
        // Structurally sane: balanced braces, expected fields present.
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "balanced: {a}"
        );
        for field in [
            "\"spec\":",
            "\"elapsed_cycles\":",
            "\"oracle_violations\":0",
        ] {
            assert!(a.contains(field), "missing {field} in {a}");
        }
        assert!(!a.contains("wall_seconds"));
    }
}
