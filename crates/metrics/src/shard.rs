//! Per-worker metric shards with a commutative merge.
//!
//! Each sweep worker owns a private [`MetricsShard`] — no locks, no
//! contention — and the shards are merged when the fleet finishes.
//! Counters merge by addition, gauges by maximum, and histograms by
//! bucket-wise addition ([`vic_trace::Histogram::merge`] is associative
//! and commutative), so the merged result is independent of thread
//! count and of which worker ran which spec. The determinism tests
//! merge the same fleet under 1/2/4/16 workers and assert equality.

use std::collections::BTreeMap;

use vic_trace::Histogram;

/// A set of named counters, gauges and histograms owned by one worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsShard {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsShard {
    /// An empty shard.
    pub fn new() -> Self {
        MetricsShard::default()
    }

    /// Add `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Raise the named gauge to at least `v` (merge keeps the maximum).
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(v);
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Fold another shard into this one. Commutative and associative:
    /// any merge order over any partition of the observations produces
    /// the same shard.
    pub fn merge(&mut self, other: &MetricsShard) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(pairs: &[(&str, u64)]) -> MetricsShard {
        let mut s = MetricsShard::new();
        for (k, v) in pairs {
            s.add(k, *v);
            s.observe("h", *v);
            s.gauge_max("g", *v);
        }
        s
    }

    #[test]
    fn counters_gauges_histograms() {
        let mut s = MetricsShard::new();
        s.add("runs", 1);
        s.add("runs", 2);
        s.gauge_max("peak", 5);
        s.gauge_max("peak", 3);
        s.observe("ns", 100);
        s.observe("ns", 200);
        assert_eq!(s.counter("runs"), 3);
        assert_eq!(s.counter("absent"), 0);
        assert_eq!(s.gauge("peak"), Some(5));
        assert_eq!(s.histogram("ns").unwrap().count(), 2);
        assert_eq!(s.histogram("ns").unwrap().total(), 300);
        assert!(!s.is_empty());
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = shard(&[("x", 1), ("y", 7)]);
        let b = shard(&[("x", 2)]);
        let c = shard(&[("z", 40)]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut c_ba = c.clone();
        let mut ba = b.clone();
        ba.merge(&a);
        c_ba.merge(&ba);

        assert_eq!(ab_c, c_ba);
        assert_eq!(ab_c.counter("x"), 3);
        assert_eq!(ab_c.gauge("g"), Some(40));
        assert_eq!(ab_c.histogram("h").unwrap().count(), 4);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = shard(&[("x", 9)]);
        let mut merged = a.clone();
        merged.merge(&MetricsShard::new());
        assert_eq!(merged, a);
        let mut empty = MetricsShard::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }
}
