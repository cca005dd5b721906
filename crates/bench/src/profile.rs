//! The cycle-cost profiling harness: breakdown reports, differential
//! comparison and the committed perf-regression baseline.
//!
//! This is the library behind the `profile` binary. The measurement
//! itself lives in `vic_profile` (the [`CostTree`] every profiled run
//! produces) and the plumbing in [`crate::sweep`] ([`run_sweep`] over
//! [`SystemSpec::run_profiled`]); this module turns trees into the three
//! artifacts the tooling needs:
//!
//! * **reports** — Table-2/Table-3-style breakdowns of where a run's
//!   cycles went, rendered through the same [`Table`] the experiment
//!   binaries use (plain, CSV or Markdown);
//! * **diffs** — a human-readable rendering of a
//!   [`DocDiff`] between two profile documents;
//! * **the baseline** — `BENCH_baseline.json`, the profile of the quick
//!   Table-4 + Table-5 grids, regenerated by `profile baseline` and
//!   checked by `profile --check-baseline` in CI. The simulator is
//!   deterministic, so an unchanged tree diffs to exactly zero; any
//!   drift is a real change some commit made.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vic_metrics::ProgressReporter;
use vic_profile::{CostTree, DocDiff, ProfileDoc, RunDiff};
use vic_workloads::report::Table;
use vic_workloads::RunStats;

use crate::output;
use crate::spec::SystemSpec;
use crate::sweep::{run_sweep, Sweep};

/// A sweep whose every run carries its cost tree.
pub type ProfiledSweep = Sweep<(RunStats, CostTree)>;

/// The grid the committed baseline profiles: the quick Table-4 grid
/// (3 benchmarks × configurations A–F) plus the quick Table-5 grid
/// (afs-bench under the five real systems) — every workload and every
/// consistency system the tables exercise. Labels are the diff key, so
/// the one spec both grids share (afs-bench under CMU-F) appears once.
pub fn baseline_specs() -> Vec<SystemSpec> {
    let mut specs = SystemSpec::table4_grid(true);
    specs.extend(SystemSpec::table5_grid(true));
    let mut seen = std::collections::BTreeSet::new();
    specs.retain(|s| seen.insert(s.label()));
    specs
}

/// Run `specs` profiled on `threads` workers.
///
/// # Panics
///
/// Panics if a workload fails or `threads` is zero.
fn run_profiled(specs: &[SystemSpec], threads: usize) -> ProfiledSweep {
    let sweep = run_sweep(specs, threads, &ProgressReporter::disabled(), |spec, _| {
        spec.run_profiled()
    });
    if let Some((spec, msg)) = sweep.failures.first() {
        panic!("profiled run {} failed: {msg}", spec.label());
    }
    sweep
}

/// Run the baseline grid profiled on `threads` workers.
///
/// # Panics
///
/// Panics if a workload fails or `threads` is zero.
pub fn run_baseline(threads: usize) -> ProfiledSweep {
    run_profiled(&baseline_specs(), threads)
}

/// A profiled sweep as a profile JSON document (the
/// `BENCH_baseline.json` format).
pub fn sweep_profile_json(sweep: &ProfiledSweep) -> String {
    output::profile_json(sweep.results.iter().map(|r| (&r.spec, &r.out.1)))
}

/// Re-run the baseline grid and compare it against a baseline document.
///
/// The current grid is serialized and re-parsed through the same
/// reader the baseline file goes through, so the comparison also
/// exercises writer/reader agreement on every run.
///
/// # Errors
///
/// A description of why `baseline_text` is not a valid profile
/// document.
///
/// # Panics
///
/// Panics if a workload fails or `threads` is zero.
pub fn check_baseline(baseline_text: &str, threads: usize) -> Result<DocDiff, String> {
    let base = ProfileDoc::parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let current = ProfileDoc::parse(&sweep_profile_json(&run_baseline(threads)))
        .expect("a freshly generated profile document parses");
    Ok(DocDiff::compare(&base, &current))
}

/// The full per-path breakdown of one run: every cost-tree path with
/// its operation count, self cycles and share of the run.
pub fn breakdown_table(tree: &CostTree) -> Table {
    let total = tree.total_cycles().max(1);
    let mut t = Table::new(["path", "count", "cycles", "% of run"]);
    for r in tree.flatten() {
        t.row([
            r.path.clone(),
            r.count.to_string(),
            r.cycles.to_string(),
            format!("{:.2}%", 100.0 * r.cycles as f64 / total as f64),
        ]);
    }
    t
}

/// The top-level summary of one run: cycles aggregated (self plus
/// everything nested below) by the first path component — user-context
/// machine operations stand alone, kernel entry points absorb all the
/// hardware work done on their behalf.
pub fn summary_table(tree: &CostTree) -> Table {
    let total = tree.total_cycles().max(1);
    let mut by_top: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in tree.flatten() {
        let top = r.path.split('/').next().unwrap_or(&r.path).to_string();
        let e = by_top.entry(top).or_insert((0, 0));
        // Count only the component's own invocations, not nested rows'.
        if !r.path.contains('/') {
            e.0 += r.count;
        }
        e.1 += r.cycles;
    }
    let mut rows: Vec<(String, u64, u64)> =
        by_top.into_iter().map(|(k, v)| (k, v.0, v.1)).collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    let mut t = Table::new(["where", "count", "cycles", "% of run"]);
    for (top, count, cycles) in rows {
        t.row([
            top,
            count.to_string(),
            cycles.to_string(),
            format!("{:.2}%", 100.0 * cycles as f64 / total as f64),
        ]);
    }
    t
}

/// How many per-path rows [`render_diff`] prints per run.
const DIFF_ROWS_SHOWN: usize = 8;

fn fmt_rel(rel: f64) -> String {
    if rel.is_infinite() {
        "new".to_string()
    } else {
        format!("{:+.2}%", 100.0 * rel)
    }
}

fn render_run_diff(out: &mut String, r: &RunDiff, tolerance_pct: f64) {
    let verdict = if r.regressed(tolerance_pct) {
        "REGRESSED"
    } else if r.total_delta() < 0 {
        "faster"
    } else if r.total_delta() == 0 {
        "unchanged"
    } else {
        "slower, within tolerance"
    };
    let _ = writeln!(
        out,
        "{}: {} -> {} cycles ({}, {verdict})",
        r.label,
        r.base_total,
        r.new_total,
        fmt_rel(r.total_rel())
    );
    for d in r.rows.iter().take(DIFF_ROWS_SHOWN) {
        let _ = writeln!(
            out,
            "    {:<55} {:>12} -> {:<12} ({:+}, {})",
            d.path,
            d.base_cycles,
            d.new_cycles,
            d.delta(),
            fmt_rel(d.rel())
        );
    }
    if r.rows.len() > DIFF_ROWS_SHOWN {
        let _ = writeln!(
            out,
            "    ... and {} more changed paths",
            r.rows.len() - DIFF_ROWS_SHOWN
        );
    }
}

/// Render a document comparison as a plain-text report: coverage
/// changes first, then every matched run with its verdict against the
/// tolerance and its largest per-path cycle movements.
pub fn render_diff(d: &DocDiff, tolerance_pct: f64) -> String {
    let mut out = String::new();
    for label in &d.only_in_base {
        let _ = writeln!(
            out,
            "MISSING: '{label}' is in the base document only (coverage lost)"
        );
    }
    for label in &d.only_in_new {
        let _ = writeln!(out, "added:   '{label}' is new in this document");
    }
    if !(d.only_in_base.is_empty() && d.only_in_new.is_empty()) {
        out.push('\n');
    }
    for r in &d.runs {
        render_run_diff(&mut out, r, tolerance_pct);
    }
    let regressions = d.regressions(tolerance_pct);
    let _ = writeln!(
        out,
        "\n{} runs compared, {} regressed (tolerance {tolerance_pct}%), {} missing",
        d.runs.len(),
        regressions.len(),
        d.only_in_base.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    #[test]
    fn baseline_grid_covers_both_tables() {
        let specs = baseline_specs();
        // 18 Table-4 cells + 5 Table-5 systems, minus the shared
        // afs-bench-under-CMU-F cell.
        assert_eq!(specs.len(), 18 + 5 - 1);
        assert!(specs.iter().all(|s| s.quick), "the baseline is quick-mode");
        // Labels are unique — they are the diff key.
        let mut labels: Vec<String> = specs.iter().map(SystemSpec::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), specs.len());
        // Every real system appears.
        assert!(
            labels.iter().any(|l| l.contains("Utah")) || labels.iter().any(|l| l.contains("utah"))
        );
    }

    #[test]
    fn tables_account_for_every_cycle() {
        let spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
        let (stats, tree) = spec.run_profiled();
        let sum_pct = |t: &Table| -> u64 {
            t.render_csv()
                .lines()
                .skip(1)
                .map(|l| l.split(',').nth(2).unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(sum_pct(&breakdown_table(&tree)), stats.cycles);
        assert_eq!(sum_pct(&summary_table(&tree)), stats.cycles);
    }

    #[test]
    fn check_against_self_is_clean() {
        // A baseline generated now, checked now, must diff to zero on
        // every path — the determinism the whole gate rests on. One
        // spec keeps the test fast.
        let specs = vec![SystemSpec::quick(
            WorkloadKind::AliasUnaligned,
            SystemKind::Cmu(Configuration::A),
        )];
        let text = sweep_profile_json(&run_profiled(&specs, 1));
        let doc = ProfileDoc::parse(&text).unwrap();
        let again = ProfileDoc::parse(&sweep_profile_json(&run_profiled(&specs, 1))).unwrap();
        let d = DocDiff::compare(&doc, &again);
        assert!(d.is_clean(0.0), "deterministic: zero tolerance holds");
        assert!(d.runs[0].rows.is_empty());
        let report = render_diff(&d, 0.0);
        assert!(report.contains("unchanged"), "report: {report}");
        assert!(report.contains("0 regressed"));
    }

    #[test]
    fn diff_report_names_regressions() {
        use vic_profile::{FlatRow, ProfileRun};
        let run = |cycles: u64| ProfileRun {
            label: "l".to_string(),
            total_cycles: cycles,
            rows: vec![FlatRow {
                path: "machine:load.hit".to_string(),
                count: 1,
                cycles,
            }],
        };
        let base = ProfileDoc {
            runs: vec![run(100)],
        };
        let new = ProfileDoc {
            runs: vec![run(200)],
        };
        let d = DocDiff::compare(&base, &new);
        let report = render_diff(&d, 5.0);
        assert!(report.contains("REGRESSED"), "report: {report}");
        assert!(report.contains("+100.00%"));
        assert!(report.contains("machine:load.hit"));
        assert!(render_diff(&DocDiff::compare(&new, &base), 5.0).contains("faster"));
    }
}
