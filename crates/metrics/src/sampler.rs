//! Cycle-driven snapshot sampling and the time-series document.
//!
//! A [`SnapshotSampler`] attaches to the machine as one of its observers
//! (`vic_machine::Observers::sampler`, `None` by default) and is ticked
//! at operation boundaries: when the simulated
//! clock has crossed the next due point, the machine hands it a fresh
//! [`MachineSnapshot`]. The sampler never writes machine state and
//! charges no cycles, so enabling it cannot change a simulated result —
//! the determinism tests assert exactly that.
//!
//! The collected samples become a [`TimeSeries`] with plain, CSV and
//! Markdown renderers; the `run --inspect <file>` flag picks the renderer
//! from the file extension, and writes a `.json` file as the `series`
//! section of a `vic-bench` run document.

use crate::snapshot::MachineSnapshot;

/// Records a [`MachineSnapshot`] every `every` simulated cycles.
#[derive(Debug, Clone)]
pub struct SnapshotSampler {
    every: u64,
    next_due: u64,
    samples: Vec<MachineSnapshot>,
}

impl SnapshotSampler {
    /// A sampler firing every `every` simulated cycles (at least 1).
    /// The first sample is due at or after cycle `every`.
    pub fn every(every: u64) -> Self {
        let every = every.max(1);
        SnapshotSampler {
            every,
            next_due: every,
            samples: Vec::new(),
        }
    }

    /// True when the clock has reached the next sample point. This is
    /// the only check on the simulation's hot path: one comparison.
    #[inline]
    pub fn due(&self, cycles: u64) -> bool {
        cycles >= self.next_due
    }

    /// Record a snapshot and advance the due point past its cycle stamp.
    pub fn record(&mut self, snap: MachineSnapshot) {
        // Advance to the first multiple of `every` strictly after the
        // sample, so a long bulk operation that skips several intervals
        // yields one sample, not a burst.
        self.next_due = (snap.cycles / self.every + 1) * self.every;
        self.samples.push(snap);
    }

    /// Samples taken so far.
    pub fn samples(&self) -> &[MachineSnapshot] {
        &self.samples
    }

    /// Consume the sampler into a labelled [`TimeSeries`].
    pub fn into_series(self, label: &str) -> TimeSeries {
        TimeSeries {
            label: label.to_string(),
            every: self.every,
            samples: self.samples,
        }
    }
}

/// How to render a [`TimeSeries`] as text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesFormat {
    /// Fixed-width text table.
    Plain,
    /// Comma-separated values with a header row.
    Csv,
    /// GitHub-flavoured Markdown table.
    Markdown,
}

impl SeriesFormat {
    /// Pick a format from a file name's extension: `.csv`, `.md` /
    /// `.markdown`, anything else plain text.
    pub fn from_path(path: &str) -> Self {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".csv") {
            SeriesFormat::Csv
        } else if lower.ends_with(".md") || lower.ends_with(".markdown") {
            SeriesFormat::Markdown
        } else {
            SeriesFormat::Plain
        }
    }
}

/// A labelled sequence of machine snapshots over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// What was sampled (typically the run's spec label).
    pub label: String,
    /// Sampling interval in simulated cycles.
    pub every: u64,
    /// The snapshots, in cycle order.
    pub samples: Vec<MachineSnapshot>,
}

impl TimeSeries {
    /// Render in the requested format (with trailing newline).
    pub fn render(&self, format: SeriesFormat) -> String {
        match format {
            SeriesFormat::Plain => self.render_plain(),
            SeriesFormat::Csv => self.render_csv(),
            SeriesFormat::Markdown => self.render_markdown(),
        }
    }

    fn rows(&self) -> impl Iterator<Item = [String; 7]> + '_ {
        self.samples.iter().map(|s| {
            [
                s.cycles.to_string(),
                format!("{:.1}", 100.0 * s.dcache.occupancy_ratio()),
                format!("{:.1}", 100.0 * s.dcache.dirty_ratio()),
                format!("{:.1}", 100.0 * s.icache.occupancy_ratio()),
                s.tlb.resident.to_string(),
                s.dcache.valid_total().to_string(),
                s.dcache.dirty_total().to_string(),
            ]
        })
    }

    const HEADER: [&'static str; 7] = [
        "cycle",
        "d_valid_pct",
        "d_dirty_pct",
        "i_valid_pct",
        "tlb_resident",
        "d_valid_lines",
        "d_dirty_lines",
    ];

    /// Fixed-width text table.
    pub fn render_plain(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "inspection of {} (every {} cycles, {} samples)\n",
            self.label,
            self.every,
            self.samples.len()
        );
        let _ = writeln!(
            out,
            "{:>14} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14}",
            Self::HEADER[0],
            Self::HEADER[1],
            Self::HEADER[2],
            Self::HEADER[3],
            Self::HEADER[4],
            Self::HEADER[5],
            Self::HEADER[6],
        );
        for r in self.rows() {
            let _ = writeln!(
                out,
                "{:>14} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14}",
                r[0], r[1], r[2], r[3], r[4], r[5], r[6]
            );
        }
        out
    }

    /// CSV with a header row.
    pub fn render_csv(&self) -> String {
        let mut out = Self::HEADER.join(",");
        out.push('\n');
        for r in self.rows() {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = format!("| {} |\n", Self::HEADER.join(" | "));
        out.push_str(&format!("|{}\n", " ---: |".repeat(Self::HEADER.len())));
        for r in self.rows() {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::test_sample;

    #[test]
    fn sampler_fires_on_interval_and_skips_bursts() {
        let mut s = SnapshotSampler::every(100);
        assert!(!s.due(0));
        assert!(!s.due(99));
        assert!(s.due(100));
        s.record(test_sample(100));
        assert!(!s.due(150), "next due point is 200");
        // A bulk op that jumps far past several intervals yields exactly
        // one sample, then re-arms past the observed cycle.
        assert!(s.due(1234));
        s.record(test_sample(1234));
        assert!(!s.due(1299));
        assert!(s.due(1300));
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn zero_interval_clamps_to_one() {
        let s = SnapshotSampler::every(0);
        assert!(!s.due(0), "the first sample is due at cycle 1");
        assert!(s.due(1));
    }

    fn series() -> TimeSeries {
        let mut s = SnapshotSampler::every(50);
        s.record(test_sample(50));
        s.record(test_sample(100));
        s.into_series("afs-bench @ F")
    }

    #[test]
    fn renderers_cover_every_format() {
        let ts = series();
        let plain = ts.render(SeriesFormat::Plain);
        assert!(plain.contains("inspection of afs-bench @ F"), "{plain}");
        assert!(plain.contains("d_valid_pct"), "{plain}");

        let csv = ts.render(SeriesFormat::Csv);
        assert!(csv.starts_with("cycle,d_valid_pct"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "{csv}");

        let md = ts.render(SeriesFormat::Markdown);
        assert!(md.starts_with("| cycle |"), "{md}");
        assert!(md.contains("| 100 |"), "{md}");
    }

    #[test]
    fn format_from_extension() {
        assert_eq!(SeriesFormat::from_path("a.csv"), SeriesFormat::Csv);
        assert_eq!(SeriesFormat::from_path("a.MD"), SeriesFormat::Markdown);
        assert_eq!(SeriesFormat::from_path("a.json"), SeriesFormat::Plain);
        assert_eq!(SeriesFormat::from_path("a.txt"), SeriesFormat::Plain);
    }
}
