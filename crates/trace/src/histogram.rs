//! Cycle-bucketed latency histograms: per-operation-class distributions,
//! not just the averages `MachineStats` already keeps.
//!
//! Buckets are powers of two: bucket `i` counts costs in `[2^i, 2^(i+1))`,
//! with bucket 0 also absorbing zero-cost events and the last bucket
//! absorbing everything at or above its lower bound (saturation). Sixteen
//! buckets cover 1 cycle up to 32 K cycles — beyond any single operation
//! the simulated machine can produce — while keeping the aggregator a
//! fixed-size array.

use std::collections::BTreeMap;

use crate::event::TraceEvent;
use crate::tracer::TraceSink;

/// Number of power-of-two buckets per histogram.
pub const NUM_BUCKETS: usize = 16;

/// A single latency distribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    total: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket a cost falls into.
    pub fn bucket_index(cost: u64) -> usize {
        if cost <= 1 {
            0
        } else {
            (63 - cost.leading_zeros() as usize).min(NUM_BUCKETS - 1)
        }
    }

    /// The `[lo, hi)` bounds of bucket `i`; the last bucket's `hi` is
    /// `u64::MAX` (it saturates).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < NUM_BUCKETS);
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i == NUM_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << (i + 1)
        };
        (lo, hi)
    }

    /// Record one sample.
    pub fn record(&mut self, cost: u64) {
        self.buckets[Self::bucket_index(cost)] += 1;
        if self.count == 0 {
            self.min = cost;
            self.max = cost;
        } else {
            self.min = self.min.min(cost);
            self.max = self.max.max(cost);
        }
        self.count += 1;
        self.total = self.total.saturating_add(cost);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all sample costs.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean cost (0.0 if empty).
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// A crude quantile from the bucketed data: the *upper bound* of the
    /// bucket containing the q-th sample (q in `[0,1]`). Good enough to
    /// tell a bimodal hit/miss mix from a uniform one.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_bounds(i).1;
            }
        }
        Self::bucket_bounds(NUM_BUCKETS - 1).1
    }

    /// A compact sparkline-style rendering of the bucket occupancy.
    pub fn sketch(&self) -> String {
        const GLYPHS: [char; 5] = ['.', '▁', '▃', '▅', '█'];
        if self.count == 0 {
            return "-".repeat(NUM_BUCKETS);
        }
        let peak = *self.buckets.iter().max().unwrap();
        self.buckets
            .iter()
            .map(|&b| {
                if b == 0 {
                    GLYPHS[0]
                } else {
                    let level = 1 + (b * (GLYPHS.len() as u64 - 2) / peak) as usize;
                    GLYPHS[level.min(GLYPHS.len() - 1)]
                }
            })
            .collect()
    }
}

/// A [`TraceSink`] aggregating every cost-carrying event into a histogram
/// per operation class (`load.hit`, `flush_page`, ...).
#[derive(Debug, Clone, Default)]
pub struct HistogramSink {
    classes: BTreeMap<&'static str, Histogram>,
    /// Events that carried no cost (counted, not bucketed).
    uncosted: u64,
}

impl HistogramSink {
    /// An empty aggregator.
    pub fn new() -> Self {
        HistogramSink::default()
    }

    /// The histogram for one class, if any samples arrived.
    pub fn class(&self, name: &str) -> Option<&Histogram> {
        self.classes.get(name)
    }

    /// All classes, sorted by name.
    pub fn classes(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.classes.iter().map(|(k, v)| (*k, v))
    }

    /// Events seen that carried no cycle cost.
    pub fn uncosted(&self) -> u64 {
        self.uncosted
    }

    /// Summary rows: `(class, count, total cycles, avg, max, sketch)` —
    /// ready to feed a report table.
    pub fn rows(&self) -> Vec<(String, u64, u64, f64, u64, String)> {
        self.classes
            .iter()
            .map(|(name, h)| {
                (
                    (*name).to_string(),
                    h.count(),
                    h.total(),
                    h.avg(),
                    h.max(),
                    h.sketch(),
                )
            })
            .collect()
    }
}

impl TraceSink for HistogramSink {
    fn emit(&mut self, _cycle: u64, event: &TraceEvent) {
        match event.cost_class() {
            Some((class, cost)) => {
                self.classes.entry(class).or_default().record(cost);
            }
            None => self.uncosted += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_core::types::{PFrame, SpaceId, VAddr};

    #[test]
    fn bucket_boundaries() {
        // Bucket 0: 0 and 1. Bucket i >= 1: [2^i, 2^(i+1)).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(7), 2);
        assert_eq!(Histogram::bucket_index(8), 3);
        assert_eq!(Histogram::bucket_index((1 << 14) - 1), 13);
        assert_eq!(Histogram::bucket_index(1 << 14), 14);
        // Every boundary value lands inside its own bounds.
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo.max(1)), i);
            if i < NUM_BUCKETS - 1 {
                assert_eq!(Histogram::bucket_index(hi - 1), i);
                assert_eq!(Histogram::bucket_index(hi), i + 1);
            }
        }
    }

    #[test]
    fn saturation_clamps_to_last_bucket() {
        assert_eq!(Histogram::bucket_index(1 << 15), NUM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1 << 40), NUM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1 << 20);
        assert_eq!(h.buckets()[NUM_BUCKETS - 1], 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.total(), u64::MAX, "the total saturates");
        let (lo, hi) = Histogram::bucket_bounds(NUM_BUCKETS - 1);
        assert_eq!(lo, 1 << (NUM_BUCKETS - 1));
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn empty_stream() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.avg(), 0.0);
        assert_eq!(h.quantile_bound(0.5), 0);
        assert_eq!(h.sketch(), "-".repeat(NUM_BUCKETS));
        let sink = HistogramSink::new();
        assert!(sink.rows().is_empty());
        assert_eq!(sink.uncosted(), 0);
    }

    #[test]
    fn aggregates_by_class() {
        let mut sink = HistogramSink::new();
        for (hit, cost) in [(true, 1), (true, 1), (false, 12)] {
            sink.emit(
                0,
                &TraceEvent::Load {
                    space: SpaceId(1),
                    vaddr: VAddr(0),
                    hit,
                    cost,
                },
            );
        }
        sink.emit(0, &TraceEvent::ZeroFill { frame: PFrame(0) });
        assert_eq!(sink.class("load.hit").unwrap().count(), 2);
        assert_eq!(sink.class("load.miss").unwrap().total(), 12);
        assert!(sink.class("store.hit").is_none());
        assert_eq!(sink.uncosted(), 1);
        let rows = sink.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "load.hit"); // BTreeMap: sorted
    }

    #[test]
    fn quantiles_of_empty_are_zero() {
        // Percentile queries on a histogram that never saw a sample:
        // every q, including the degenerate and out-of-range ones,
        // answers 0 rather than dividing by the zero count.
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 1.0, -3.0, 7.0, f64::NAN] {
            assert_eq!(h.quantile_bound(q), 0, "q={q}");
        }
    }

    #[test]
    fn stats_track_min_max_avg() {
        let mut h = Histogram::new();
        for c in [4, 8, 12] {
            h.record(c);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), 24);
        assert_eq!(h.min(), 4);
        assert_eq!(h.max(), 12);
        assert!((h.avg() - 8.0).abs() < f64::EPSILON);
        assert!(h.quantile_bound(1.0) >= 12);
    }
}
