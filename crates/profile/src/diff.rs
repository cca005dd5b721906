//! Differential comparison of two sets of profiled runs: where did the
//! cycles move, and is the movement a regression?
//!
//! Runs are matched by label; within a matched pair, rows are matched by
//! path. Deltas are absolute (cycles) and relative (fraction of the base).
//! The simulator is deterministic, so there is no noise to tolerate: a
//! run that spends more cycles than its base, or a base run that is gone,
//! is a regression. Deltas are `i128`, so any two `u64` cycle counts
//! subtract exactly.

use std::collections::BTreeMap;

use crate::tree::FlatRow;

/// One profiled run as the diff reads it: its label, its total cycles
/// and its flattened cost tree, whose row cycles sum to the total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRun {
    /// The spec's canonical label — the key runs are matched by.
    pub label: String,
    /// Total cycles of the run.
    pub total_cycles: u64,
    /// Flattened cost-tree rows, in the tree's deterministic order.
    pub rows: Vec<FlatRow>,
}

/// The delta of one path between two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathDelta {
    /// The cost-tree path.
    pub path: String,
    /// Count in the base run (0 when the path is new).
    pub base_count: u64,
    /// Count in the new run (0 when the path vanished).
    pub new_count: u64,
    /// Cycles in the base run.
    pub base_cycles: u64,
    /// Cycles in the new run.
    pub new_cycles: u64,
}

/// Relative change from `base` to `new` as a fraction of `base`;
/// `INFINITY` for growth from 0, 0 when both are 0.
fn rel(base: u64, new: u64) -> f64 {
    if base == 0 {
        if new == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (i128::from(new) - i128::from(base)) as f64 / base as f64
    }
}

impl PathDelta {
    /// Signed cycle delta (new - base).
    pub fn delta(&self) -> i128 {
        i128::from(self.new_cycles) - i128::from(self.base_cycles)
    }

    /// Relative delta as a fraction of the base; `INFINITY` for a new
    /// path with cycles, 0 when both sides are 0.
    pub fn rel(&self) -> f64 {
        rel(self.base_cycles, self.new_cycles)
    }
}

/// The comparison of one matched run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// The shared label.
    pub label: String,
    /// Base total cycles.
    pub base_total: u64,
    /// New total cycles.
    pub new_total: u64,
    /// Per-path deltas where anything changed, largest |cycle delta|
    /// first (ties broken by path for determinism).
    pub rows: Vec<PathDelta>,
}

impl RunDiff {
    /// Signed total-cycle delta (new - base).
    pub fn total_delta(&self) -> i128 {
        i128::from(self.new_total) - i128::from(self.base_total)
    }

    /// Relative total delta as a fraction of the base.
    pub fn total_rel(&self) -> f64 {
        rel(self.base_total, self.new_total)
    }

    /// Does the new run spend more cycles than the base? (Getting
    /// *faster* is never a regression.)
    pub fn regressed(&self) -> bool {
        self.new_total > self.base_total
    }
}

/// A full comparison of two sets of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DocDiff {
    /// Matched runs, in base order.
    pub runs: Vec<RunDiff>,
    /// Labels present only in the base (coverage lost).
    pub only_in_base: Vec<String>,
    /// Labels present only in the new set (coverage gained).
    pub only_in_new: Vec<String>,
}

fn find<'a>(runs: &'a [ProfileRun], label: &str) -> Option<&'a ProfileRun> {
    runs.iter().find(|r| r.label == label)
}

impl DocDiff {
    /// Compare two sets of runs.
    pub fn compare(base: &[ProfileRun], new: &[ProfileRun]) -> DocDiff {
        let mut runs = Vec::new();
        let mut only_in_base = Vec::new();
        for b in base {
            match find(new, &b.label) {
                Some(n) => runs.push(diff_runs(b, n)),
                None => only_in_base.push(b.label.clone()),
            }
        }
        let only_in_new = new
            .iter()
            .filter(|n| find(base, &n.label).is_none())
            .map(|n| n.label.clone())
            .collect();
        DocDiff {
            runs,
            only_in_base,
            only_in_new,
        }
    }

    /// The matched runs that spend more cycles than the base.
    pub fn regressions(&self) -> Vec<&RunDiff> {
        self.runs.iter().filter(|r| r.regressed()).collect()
    }

    /// Clean means: every base run is still present, and none spends
    /// more cycles. New runs (coverage gained) are fine.
    pub fn is_clean(&self) -> bool {
        self.only_in_base.is_empty() && self.regressions().is_empty()
    }
}

fn diff_runs(base: &ProfileRun, new: &ProfileRun) -> RunDiff {
    let mut by_path: BTreeMap<&str, PathDelta> = BTreeMap::new();
    for r in &base.rows {
        by_path.insert(
            &r.path,
            PathDelta {
                path: r.path.clone(),
                base_count: r.count,
                new_count: 0,
                base_cycles: r.cycles,
                new_cycles: 0,
            },
        );
    }
    for r in &new.rows {
        by_path
            .entry(&r.path)
            .and_modify(|d| {
                d.new_count = r.count;
                d.new_cycles = r.cycles;
            })
            .or_insert_with(|| PathDelta {
                path: r.path.clone(),
                base_count: 0,
                new_count: r.count,
                base_cycles: 0,
                new_cycles: r.cycles,
            });
    }
    let mut rows: Vec<PathDelta> = by_path
        .into_values()
        .filter(|d| d.base_cycles != d.new_cycles || d.base_count != d.new_count)
        .collect();
    rows.sort_by(|a, b| {
        b.delta()
            .abs()
            .cmp(&a.delta().abs())
            .then_with(|| a.path.cmp(&b.path))
    });
    RunDiff {
        label: base.label.clone(),
        base_total: base.total_cycles,
        new_total: new.total_cycles,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(label: &str, rows: &[(&str, u64, u64)]) -> ProfileRun {
        ProfileRun {
            label: label.to_string(),
            total_cycles: rows.iter().map(|r| r.2).sum(),
            rows: rows
                .iter()
                .map(|(p, c, cy)| FlatRow {
                    path: p.to_string(),
                    count: *c,
                    cycles: *cy,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_runs_are_clean() {
        let a = vec![run("r1", &[("machine:load.hit", 10, 10)])];
        let d = DocDiff::compare(&a, &a.clone());
        assert!(d.is_clean());
        assert_eq!(d.runs.len(), 1);
        assert!(d.runs[0].rows.is_empty(), "no changed rows");
        assert_eq!(d.runs[0].total_delta(), 0);
    }

    #[test]
    fn any_extra_cycle_regresses() {
        let base = vec![run("r1", &[("machine:load.hit", 100, 1000)])];
        let new = vec![run("r1", &[("machine:load.hit", 100, 1001)])];
        let d = DocDiff::compare(&base, &new);
        assert!((d.runs[0].total_rel() - 0.001).abs() < 1e-12);
        assert!(!d.is_clean(), "one cycle more is a regression");
        assert_eq!(d.regressions().len(), 1);
        // Getting faster never regresses.
        let fast = vec![run("r1", &[("machine:load.hit", 100, 500)])];
        assert!(DocDiff::compare(&base, &fast).is_clean());
    }

    #[test]
    fn deltas_span_the_whole_u64_range() {
        let huge = 1u64 << 63;
        let base = vec![run("r", &[("machine:x", 1, huge)])];
        let new = vec![run("r", &[("machine:x", 1, 0), ("machine:y", 1, u64::MAX)])];
        let d = DocDiff::compare(&base, &new);
        let rows = &d.runs[0].rows;
        assert_eq!(rows[0].path, "machine:y");
        assert_eq!(rows[0].delta(), i128::from(u64::MAX));
        assert_eq!(rows[1].delta(), -i128::from(huge));
        assert_eq!(d.runs[0].total_delta(), i128::from(u64::MAX - huge));
        assert!(d.runs[0].regressed());
        let back = DocDiff::compare(&new, &base);
        assert_eq!(back.runs[0].total_delta(), -i128::from(u64::MAX - huge));
        assert!(back.is_clean());
    }

    #[test]
    fn paths_appear_and_vanish() {
        let base = vec![run(
            "r1",
            &[("machine:load.hit", 1, 10), ("machine:old", 1, 5)],
        )];
        let new = vec![run(
            "r1",
            &[("machine:load.hit", 1, 10), ("machine:new", 2, 30)],
        )];
        let d = DocDiff::compare(&base, &new);
        let rows = &d.runs[0].rows;
        assert_eq!(rows.len(), 2);
        // Sorted by |delta| descending: new (+30) before old (-5).
        assert_eq!(rows[0].path, "machine:new");
        assert_eq!(rows[0].delta(), 30);
        assert!(rows[0].rel().is_infinite());
        assert_eq!(rows[1].path, "machine:old");
        assert_eq!(rows[1].delta(), -5);
        assert_eq!(rows[1].new_count, 0);
    }

    #[test]
    fn missing_runs_fail_clean() {
        let base = vec![run("gone", &[("machine:x", 1, 1)])];
        let new = vec![run("added", &[("machine:x", 1, 1)])];
        let d = DocDiff::compare(&base, &new);
        assert_eq!(d.only_in_base, vec!["gone".to_string()]);
        assert_eq!(d.only_in_new, vec!["added".to_string()]);
        assert!(!d.is_clean(), "lost coverage is never clean");
    }

    #[test]
    fn zero_base_relative() {
        let base = vec![run("r", &[])];
        let new = vec![run("r", &[("machine:x", 1, 7)])];
        let d = DocDiff::compare(&base, &new);
        assert!(d.runs[0].total_rel().is_infinite());
        assert!(d.runs[0].regressed());
        let d0 = DocDiff::compare(&base, &base.clone());
        assert_eq!(d0.runs[0].total_rel(), 0.0);
    }
}
