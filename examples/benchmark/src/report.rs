//! The parent side: fold child reports into metrics, run the correctness
//! gate, and write, check and compare result files.
//!
//! Metric names, units, directions and bounds live in one place, the
//! repository's `BENCHMARK.json`, which is compiled in; this module only
//! knows how to compute each named metric.

use std::collections::BTreeMap;

use vic_bench::output::{json_array, JsonObj};
use vic_profile::{parse_json, JsonValue};

use crate::run::Spans;
use crate::stats::{median, percentile, quartiles, spread, verdict, Verdict};
use crate::workload::Workload;

/// The benchmark definition, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The default-seed digests of every workload's results (`--seed 0`,
/// paper scale), compiled in.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// The share of the parent's median by which it may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
    /// How long one `--workload` run measures, in seconds.
    pub run_seconds: f64,
}

impl Catalogue {
    /// The compiled-in catalogue.
    ///
    /// # Panics
    ///
    /// If `BENCHMARK.json` is malformed (it is part of the source).
    pub fn get() -> Catalogue {
        let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing '{key}'"))
        };
        let str_of = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: entry without '{key}'"))
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: str_of(m, "name"),
                    unit: str_of(m, "unit"),
                    higher_is_better: str_of(m, "better") == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
                .collect()
        };
        Catalogue {
            workloads: list("workloads")
                .iter()
                .map(|w| str_of(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("BENCHMARK.json: missing 'run_seconds'"),
        }
    }

    fn def(&self, name: &str) -> &MetricDef {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"))
    }
}

/// Metric names: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// One timed child's round.
#[derive(Debug, Clone, Copy)]
struct Round {
    p50_ms: f64,
    p90_ms: f64,
    runs_per_s: f64,
    ns_per_sim_cycle: f64,
    setup_s: f64,
    rss_mb: f64,
}

/// One run as a child reports it.
struct RunLine {
    job: usize,
    ok: bool,
    spans: Spans,
    digest: u64,
}

/// A parsed child report.
pub struct Report {
    elapsed_ns: u64,
    vmhwm_kb: u64,
    runs: Vec<RunLine>,
    sim_cycles: u64,
    counts: Vec<(String, f64)>,
    untraced_walls: Vec<f64>,
    phases: Vec<(String, f64)>,
    probes: Vec<(String, f64)>,
}

impl Report {
    /// Parse a child's report line.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part.
    pub fn parse(line: &str) -> Result<Report, String> {
        let doc = parse_json(line).map_err(|e| e.to_string())?;
        let u = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("report: missing '{key}'"))
        };
        let arr = |v: &'_ JsonValue| v.as_arr().map(<[JsonValue]>::to_vec).unwrap_or_default();
        let numbers = |key: &str| match doc.get(key) {
            Some(JsonValue::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        };
        let mut runs = Vec::new();
        for r in arr(doc.get("runs").ok_or("report: missing 'runs'")?) {
            let r = arr(&r);
            let n: Vec<u64> = r.iter().filter_map(JsonValue::as_u64).collect();
            let digest = r
                .get(8)
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let (Some(digest), 8) = (digest, n.len()) else {
                return Err("report: malformed run".into());
            };
            runs.push(RunLine {
                job: n[0] as usize,
                ok: n[1] == 1,
                spans: Spans {
                    boot: n[2],
                    drive: n[3],
                    collect: n[4],
                    output: n[5],
                    teardown: n[6],
                    wall: n[7],
                },
                digest,
            });
        }
        Ok(Report {
            elapsed_ns: u(&doc, "elapsed_ns")?,
            vmhwm_kb: u(&doc, "vmhwm_kb")?,
            runs,
            sim_cycles: u(&doc, "sim_cycles")?,
            counts: numbers("counts"),
            untraced_walls: doc
                .get("untraced_walls")
                .map(arr)
                .unwrap_or_default()
                .iter()
                .filter_map(JsonValue::as_f64)
                .collect(),
            phases: numbers("phases"),
            probes: numbers("probes"),
        })
    }
}

/// Everything one workload's children reported in one set, and its gate.
pub struct Acc {
    /// The workload.
    pub workload: Workload,
    jobs: usize,
    timed_runs: usize,
    rounds: Vec<Round>,
    job_digests: Vec<Option<u64>>,
    /// The count metrics of the first round whose runs all passed, and
    /// how many runs they cover.
    counts: Option<(Vec<(String, f64)>, usize)>,
    /// Runs attempted, timed, traced and twins.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    traced: Vec<Spans>,
    untraced_walls: Vec<f64>,
    phases: BTreeMap<String, f64>,
    probes: Vec<(String, f64)>,
}

impl Acc {
    /// An empty accumulator for a workload of `jobs` distinct jobs.
    pub fn new(workload: Workload, jobs: usize) -> Acc {
        Acc {
            workload,
            jobs,
            timed_runs: 0,
            rounds: Vec::new(),
            job_digests: vec![None; jobs],
            counts: None,
            attempted: 0,
            failed: 0,
            traced: Vec::new(),
            untraced_walls: Vec::new(),
            phases: BTreeMap::new(),
            probes: Vec::new(),
        }
    }

    /// Timed runs made.
    pub fn runs(&self) -> usize {
        self.timed_runs
    }

    /// A child that crashed or printed no report: all its runs failed.
    pub fn lost(&mut self, planned: usize, why: &str) {
        eprintln!("benchmark: {} child failed: {why}", self.workload.name());
        self.attempted += planned as u64;
        self.failed += planned as u64;
    }

    /// Check one run's results: it completed cleanly and matches every
    /// earlier run of the same job. Returns whether it passed.
    fn gate(&mut self, r: &RunLine) -> bool {
        self.attempted += 1;
        let ok = r.ok
            && r.job < self.jobs
            && *self.job_digests[r.job].get_or_insert(r.digest) == r.digest;
        if !ok {
            eprintln!(
                "benchmark: {} job {} failed its check",
                self.workload.name(),
                r.job
            );
            self.failed += 1;
        }
        ok
    }

    /// Fold in a timed child's report.
    pub fn timed(&mut self, rep: &Report) {
        let mut walls = Vec::new();
        let mut setups = Vec::new();
        let mut per_job: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut all_ok = true;
        for r in &rep.runs {
            all_ok &= self.gate(r);
            walls.push(r.spans.wall as f64);
            setups.push(r.spans.boot as f64);
            per_job.entry(r.job).or_default().push(r.spans.wall as f64);
        }
        if walls.is_empty() {
            return;
        }
        if all_ok && self.counts.is_none() {
            self.counts = Some((rep.counts.clone(), rep.runs.len()));
        }
        // The median over jobs of each job's median run: where a round mixes
        // short and long jobs half and half (short-runs), the median of raw
        // runs falls between the slowest short run and the fastest long
        // one, two extremes that noise moves most.
        let job_medians: Vec<f64> = per_job.values().map(|w| median(w)).collect();
        self.rounds.push(Round {
            p50_ms: median(&job_medians) / 1e6,
            p90_ms: percentile(&walls, 90.0) / 1e6,
            runs_per_s: walls.len() as f64 / (rep.elapsed_ns as f64 / 1e9),
            ns_per_sim_cycle: rep.elapsed_ns as f64 / rep.sim_cycles.max(1) as f64,
            setup_s: median(&setups) / 1e9,
            rss_mb: rep.vmhwm_kb as f64 / 1024.0,
        });
        self.timed_runs += walls.len();
    }

    /// Fold in the traced child's report.
    pub fn traced(&mut self, rep: &Report) {
        for r in &rep.runs {
            self.gate(r);
            self.traced.push(r.spans);
        }
        self.untraced_walls.extend(&rep.untraced_walls);
        for (k, v) in &rep.phases {
            *self.phases.entry(k.clone()).or_default() += v;
        }
        self.probes.extend(rep.probes.iter().cloned());
    }

    /// Fold in the fast-paths-off twins: each must match its job.
    pub fn twins(&mut self, rep: &Report) {
        for r in &rep.runs {
            self.gate(r);
        }
    }

    /// The workload's digest, once every job has one: the fold of the
    /// jobs' digests in pass order.
    pub fn digest(&self) -> Option<u64> {
        let d: Option<Vec<u64>> = self.job_digests.iter().copied().collect();
        d.map(|d| vic_core::hash_words(&d))
    }

    /// Compare the workload's digest with the committed default-seed one;
    /// a miss fails one pass's worth of runs.
    pub fn check_expected(&mut self) {
        let name = self.workload.name();
        let expected = parse_json(EXPECTED_DIGESTS)
            .ok()
            .and_then(|d| d.get(name).and_then(JsonValue::as_str).map(str::to_string));
        let got = self.digest().map(|d| format!("{d:016x}"));
        if got.is_none() || got != expected {
            eprintln!(
                "benchmark: {name} digest {} != expected {}",
                got.as_deref().unwrap_or("(incomplete)"),
                expected.as_deref().unwrap_or("(none)")
            );
            self.attempted += self.jobs as u64;
            self.failed += self.jobs as u64;
        }
    }

    /// The end-to-end metrics, each from the best round: noise on a shared
    /// host only ever slows a round down, often for seconds at a time, so
    /// the best of a run's rounds repeats far better than their median.
    /// Peak memory is the largest round's. Every round's value is kept.
    pub fn end_to_end(&self, cat: &Catalogue) -> Vec<Measured> {
        if self.rounds.is_empty() {
            return Vec::new();
        }
        let n = self.rounds.len();
        let best = |name: &str, f: fn(&Round) -> f64| {
            let v: Vec<f64> = self.rounds.iter().map(f).collect();
            let pick = if cat.def(name).higher_is_better {
                f64::max
            } else {
                f64::min
            };
            let value = v.iter().copied().reduce(pick).expect("at least one round");
            Measured::new(name, value, n, v)
        };
        let rss: Vec<f64> = self.rounds.iter().map(|r| r.rss_mb).collect();
        vec![
            best("run_ms_p50", |r| r.p50_ms),
            best("run_ms_p90", |r| r.p90_ms),
            best("runs_per_s", |r| r.runs_per_s),
            best("ns_per_sim_cycle", |r| r.ns_per_sim_cycle),
            best("setup_s", |r| r.setup_s),
            Measured::new(
                "peak_rss_mb",
                rss.iter().copied().fold(0.0, f64::max),
                n,
                rss,
            ),
        ]
    }

    /// The per-layer metrics: spans and probes from the traced round,
    /// counts from the timed runs.
    pub fn per_layer(&self) -> Vec<Measured> {
        let mut out = Vec::new();
        if !self.traced.is_empty() && !self.untraced_walls.is_empty() {
            let n = self.traced.len();
            let span = |f: fn(&Spans) -> u64| {
                median(&self.traced.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
            };
            let total = |f: fn(&Spans) -> u64| self.traced.iter().map(f).sum::<u64>() as f64;
            let parts = total(|s| s.boot + s.drive + s.collect + s.output + s.teardown);
            let wall = total(|s| s.wall);
            let overhead = span(|s| s.wall) / median(&self.untraced_walls) - 1.0;
            for (name, v) in [
                ("os.boot_ms", span(|s| s.boot) / 1e6),
                ("workloads.drive_ms", span(|s| s.drive) / 1e6),
                ("workloads.collect_us", span(|s| s.collect) / 1e3),
                ("bench.output_us", span(|s| s.output) / 1e3),
                ("os.teardown_ms", span(|s| s.teardown) / 1e6),
                ("trace.unattributed_pct", 100.0 * (wall - parts) / wall),
                ("trace.overhead_pct", 100.0 * overhead),
            ] {
                out.push(Measured::one(name, v, n));
            }
        }
        for (name, v) in &self.probes {
            out.push(Measured::one(name, *v, 1));
        }
        if let Some((counts, n)) = &self.counts {
            for (name, v) in counts {
                out.push(Measured::one(name, *v, *n));
            }
        }
        out
    }

    /// Drive time per `driver/phase`, from the traced round.
    pub fn phases(&self) -> &BTreeMap<String, f64> {
        &self.phases
    }
}

/// One computed metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
    /// Per-round values (end-to-end metrics).
    pub rounds: Vec<f64>,
}

impl Measured {
    fn new(name: &str, value: f64, samples: usize, rounds: Vec<f64>) -> Measured {
        Measured {
            name: name.to_string(),
            value,
            samples,
            rounds,
        }
    }

    fn one(name: &str, value: f64, samples: usize) -> Measured {
        Measured::new(name, value, samples, Vec::new())
    }
}

/// The `{"name": {"value": v, "unit": u}, ...}` object of the
/// `--workload` result line.
pub fn metrics_object(cat: &Catalogue, ms: &[Measured]) -> String {
    ms.iter()
        .fold(JsonObj::new(), |o, m| {
            let def = cat.def(&m.name);
            o.raw(
                &m.name,
                &JsonObj::new()
                    .f64("value", m.value)
                    .str("unit", &def.unit)
                    .finish(),
            )
        })
        .finish()
}

/// Print each metric as `workload  name  value unit  (n=samples)`.
pub fn print_metrics(cat: &Catalogue, w: Workload, ms: &[Measured]) {
    for m in ms {
        println!(
            "{:<12} {:<32} {:>14.4} {:<8} (n={})",
            w.name(),
            m.name,
            m.value,
            cat.def(&m.name).unit,
            m.samples
        );
    }
}

/// The whole set as a result file.
pub fn set_json(cat: &Catalogue, seed: u64, quick: bool, accs: &[Acc]) -> String {
    let workloads = accs.iter().fold(JsonObj::new(), |o, a| {
        let metrics =
            a.end_to_end(cat)
                .into_iter()
                .chain(a.per_layer())
                .fold(JsonObj::new(), |o, m| {
                    o.raw(
                        &m.name,
                        &JsonObj::new()
                            .f64("value", m.value)
                            .str("unit", &cat.def(&m.name).unit)
                            .u64("samples", m.samples as u64)
                            .raw(
                                "rounds",
                                &json_array(m.rounds.iter().map(|v| v.to_string())),
                            )
                            .finish(),
                    )
                });
        let phases = a
            .phases()
            .iter()
            .fold(JsonObj::new(), |o, (k, v)| o.f64(k, *v));
        o.raw(
            a.workload.name(),
            &JsonObj::new()
                .u64("runs", a.runs() as u64)
                .u64("attempted", a.attempted)
                .u64("failed", a.failed)
                .f64("fail_ratio", a.failed as f64 / a.attempted.max(1) as f64)
                .str(
                    "digest",
                    &a.digest().map(|d| format!("{d:016x}")).unwrap_or_default(),
                )
                .raw("metrics", &metrics.finish())
                .raw("phase_ns", &phases.finish())
                .finish(),
        )
    });
    JsonObj::new()
        .u64("seed", seed)
        .bool("quick", quick)
        .raw("workloads", &workloads.finish())
        .finish()
}

/// Validate a result file against `BENCHMARK.json`; returns every
/// violation found.
pub fn check(cat: &Catalogue, text: &str) -> Vec<String> {
    let mut bad = Vec::new();
    let doc = match parse_json(text) {
        Ok(d) => d,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    for m in cat.end_to_end.iter().chain(&cat.per_layer) {
        if !valid_name(&m.name) {
            bad.push(format!("bad metric name '{}'", m.name));
        }
    }
    for wname in &cat.workloads {
        let Some(w) = doc.get("workloads").and_then(|ws| ws.get(wname)) else {
            bad.push(format!("{wname}: missing"));
            continue;
        };
        let runs = w.get("runs").and_then(JsonValue::as_u64).unwrap_or(0);
        if runs < 100 {
            bad.push(format!("{wname}: {runs} runs, need at least 100"));
        }
        for def in cat.end_to_end.iter().chain(&cat.per_layer) {
            let Some(m) = w.get("metrics").and_then(|ms| ms.get(&def.name)) else {
                bad.push(format!("{wname}: metric {} missing", def.name));
                continue;
            };
            if m.get("unit").and_then(JsonValue::as_str) != Some(def.unit.as_str()) {
                bad.push(format!(
                    "{wname}: metric {} lacks unit {}",
                    def.name, def.unit
                ));
            }
            if m.get("value").and_then(JsonValue::as_f64).is_none() {
                bad.push(format!("{wname}: metric {} has no value", def.name));
            }
            if m.get("samples").and_then(JsonValue::as_u64).unwrap_or(0) == 0 {
                bad.push(format!("{wname}: metric {} has no sample count", def.name));
            }
        }
        let unattributed = w
            .get("metrics")
            .and_then(|ms| ms.get("trace.unattributed_pct"))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64);
        if unattributed.is_some_and(|u| u > 2.0) {
            bad.push(format!(
                "{wname}: trace.unattributed_pct {:.2} > 2",
                unattributed.unwrap_or(0.0)
            ));
        }
    }
    bad
}

/// Compare two result files metric by metric: the medians and quartiles of
/// the rounds with their verdict, and the change of the headline value.
/// Returns the printed table and whether any metric got worse.
///
/// # Errors
///
/// A message if either file is not a result file.
pub fn compare(cat: &Catalogue, a: &str, b: &str) -> Result<(String, bool), String> {
    let a = parse_json(a).map_err(|e| format!("first file: {e}"))?;
    let b = parse_json(b).map_err(|e| format!("second file: {e}"))?;
    let metric = |doc: &JsonValue, w: &str, m: &str| -> Option<(f64, Vec<f64>)> {
        let m = doc.get("workloads")?.get(w)?.get("metrics")?.get(m)?;
        let rounds: Vec<f64> = m
            .get("rounds")?
            .as_arr()?
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect();
        (!rounds.is_empty()).then_some((m.get("value")?.as_f64()?, rounds))
    };
    let mut out = format!(
        "{:<12} {:<17} {:>26} {:>26} {:>8} {:>8} {:>6}  verdict on the rounds\n",
        "workload",
        "metric",
        "a: median [q1, q3]",
        "b: median [q1, q3]",
        "median",
        "value",
        "bound"
    );
    let mut worse = false;
    for w in &cat.workloads {
        for def in &cat.end_to_end {
            let (Some((va, ra)), Some((vb, rb))) =
                (metric(&a, w, &def.name), metric(&b, w, &def.name))
            else {
                out.push_str(&format!("{w:<12} {:<17} missing in one file\n", def.name));
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let v = verdict(&ra, &rb, def.higher_is_better, bound);
            worse |= v == Verdict::Worse;
            let fmt = |r: &[f64]| {
                let (q1, q3) = quartiles(r);
                format!("{:.4} [{:.4}, {:.4}]", median(r), q1, q3)
            };
            let pct = |x: f64, y: f64| 100.0 * (y / x - 1.0);
            out.push_str(&format!(
                "{w:<12} {:<17} {:>26} {:>26} {:>+7.2}% {:>+7.2}% {:>5.0}%  {v:?} (spreads {:.1}% / {:.1}%)\n",
                def.name,
                fmt(&ra),
                fmt(&rb),
                pct(median(&ra), median(&rb)),
                pct(va, vb),
                100.0 * bound,
                100.0 * spread(&ra),
                100.0 * spread(&rb),
            ));
        }
    }
    Ok((out, worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::PROBES;
    use crate::workload::count_metrics;

    fn line(runs: &[(usize, bool, u64, u64)], probes: &[(&str, f64)]) -> String {
        // (job, ok, wall, digest); every span is a fifth-ish of the wall.
        let runs = json_array(runs.iter().map(|&(j, ok, wall, d)| {
            let part = wall / 5;
            format!(
                "[{j},{},{part},{part},{part},{part},{part},{wall},\"{d:016x}\"]",
                u64::from(ok)
            )
        }));
        let probes = probes.iter().fold(JsonObj::new(), |o, (k, v)| o.f64(k, *v));
        let counts = count_metrics(&vec![2; vic_sample::METRICS.len()], 1, 1)
            .into_iter()
            .fold(JsonObj::new(), |o, (k, v)| o.f64(k, v));
        JsonObj::new()
            .u64("elapsed_ns", 1_000_000)
            .u64("vmhwm_kb", 51_200)
            .raw("runs", &runs)
            .raw("untraced_walls", "[100,110]")
            .u64("sim_cycles", 2)
            .raw("counts", &counts.finish())
            .raw("phases", &JsonObj::new().u64("afs-bench/1", 5).finish())
            .raw("probes", &probes.finish())
            .finish()
    }

    fn acc_with_everything() -> Acc {
        let all_probes: Vec<(&str, f64)> = PROBES.iter().map(|p| (p.0, 1.0)).collect();
        let mut acc = Acc::new(Workload::AliasHit, 1);
        let rep = Report::parse(&line(&[(0, true, 100, 7), (0, true, 110, 7)], &[])).unwrap();
        acc.timed(&rep);
        acc.timed(&rep);
        acc.traced(&Report::parse(&line(&[(0, true, 120, 7)], &all_probes)).unwrap());
        acc.twins(&Report::parse(&line(&[(0, true, 0, 7)], &[])).unwrap());
        acc
    }

    #[test]
    fn the_code_emits_exactly_the_names_in_benchmark_json() {
        let cat = Catalogue::get();
        let acc = acc_with_everything();
        let names = |ms: Vec<Measured>| {
            let mut v: Vec<String> = ms.into_iter().map(|m| m.name).collect();
            v.sort();
            v
        };
        let sorted = |defs: &[MetricDef]| {
            let mut v: Vec<String> = defs.iter().map(|m| m.name.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(names(acc.end_to_end(&cat)), sorted(&cat.end_to_end));
        assert_eq!(names(acc.per_layer()), sorted(&cat.per_layer));
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(cat.workloads, workloads);
        for m in cat.end_to_end.iter().chain(&cat.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
        }
        assert!(cat.per_layer.len() <= 40);
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("os.boot_ms"));
        assert!(valid_name("run_ms_p50"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("µs"));
    }

    #[test]
    fn gate_counts_mismatches_and_losses() {
        let acc = acc_with_everything();
        assert_eq!((acc.attempted, acc.failed), (6, 0));
        let mut acc = Acc::new(Workload::AliasHit, 1);
        acc.timed(&Report::parse(&line(&[(0, true, 100, 7), (0, true, 100, 8)], &[])).unwrap());
        assert_eq!(acc.failed, 1, "stats differ between runs of one job");
        acc.twins(&Report::parse(&line(&[(0, true, 0, 9)], &[])).unwrap());
        assert_eq!(acc.failed, 2, "the twin does not match");
        acc.timed(&Report::parse(&line(&[(0, false, 100, 7)], &[])).unwrap());
        assert_eq!(acc.failed, 3, "a run that reports failure");
        acc.lost(10, "test");
        assert_eq!((acc.attempted, acc.failed), (14, 13));
    }

    #[test]
    fn metric_values_follow_their_definitions() {
        let acc = acc_with_everything();
        let e2e = acc.end_to_end(&Catalogue::get());
        let get = |ms: &[Measured], n: &str| ms.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get(&e2e, "run_ms_p50"), 105.0 / 1e6);
        assert_eq!(get(&e2e, "run_ms_p90"), 110.0 / 1e6);
        assert_eq!(get(&e2e, "setup_s"), 21.0 / 1e9);
        assert_eq!(get(&e2e, "runs_per_s"), 2000.0);
        assert_eq!(get(&e2e, "peak_rss_mb"), 50.0);
        assert_eq!(get(&e2e, "ns_per_sim_cycle"), 1_000_000.0 / 2.0);
        let pl = acc.per_layer();
        assert_eq!(get(&pl, "trace.unattributed_pct"), 0.0);
        assert_eq!(get(&pl, "machine.cycles_per_run"), 2.0);
        let overhead = get(&pl, "trace.overhead_pct");
        assert!((overhead - 100.0 * (120.0 / 105.0 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn p50_is_the_median_of_job_medians() {
        // Raw runs 10 10 30 | 100 100 100 have median 65; the jobs' own
        // medians are 10 and 100.
        let mut acc = Acc::new(Workload::ShortRuns, 2);
        let runs = [(0, true, 10, 7), (0, true, 10, 7), (0, true, 30, 7)];
        let more = [(1, true, 100, 8), (1, true, 100, 8), (1, true, 100, 8)];
        let all: Vec<_> = runs.into_iter().chain(more).collect();
        acc.timed(&Report::parse(&line(&all, &[])).unwrap());
        let e2e = acc.end_to_end(&Catalogue::get());
        let p50 = e2e.iter().find(|m| m.name == "run_ms_p50").unwrap().value;
        assert_eq!(p50, 55.0 / 1e6);
    }

    #[test]
    fn check_flags_missing_metrics_and_short_sets() {
        let cat = Catalogue::get();
        let bad = check(&cat, "{\"workloads\":{}}");
        assert_eq!(bad.len(), 4, "{bad:?}");
        let accs: Vec<Acc> = Workload::ALL
            .iter()
            .map(|&w| {
                let mut a = acc_with_everything();
                a.workload = w;
                a
            })
            .collect();
        let bad = check(&cat, &set_json(&cat, 0, false, &accs));
        assert!(
            bad.iter().all(|b| b.contains("runs, need at least 100")),
            "{bad:?}"
        );
        assert_eq!(bad.len(), 4);
    }
}
