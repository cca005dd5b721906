#![warn(missing_docs)]
//! # vic-metrics — live inspection and telemetry for the vic simulator
//!
//! The tracing layer (`vic-trace`) and the profiler (`vic-profile`) are
//! after-the-fact instruments: they explain a run once it is over. This
//! crate is the *while it runs* layer:
//!
//! * [`snapshot`] — versioned point-in-time views of the simulated
//!   machine: per-cache-page occupancy and dirtiness, victim-pointer
//!   spread, TLB residency, and (at the kernel level) per-page
//!   consistency-state counts. `vic-machine` and `vic-os` construct
//!   these from their `inspect()` methods;
//! * [`sampler`] — a cycle-driven [`SnapshotSampler`] that records a
//!   snapshot every N simulated cycles into a [`TimeSeries`] document
//!   with plain/CSV/Markdown/JSON renderers. Sampling only *reads*
//!   machine state, so enabling it provably changes no simulated result;
//! * [`shard`] — per-worker-thread [`MetricsShard`]s (counters, gauges,
//!   and `vic_trace::Histogram`s) whose merge is commutative, so a
//!   parallel sweep's fleet telemetry is independent of thread count and
//!   scheduling;
//! * [`progress`] — a rate-limited stderr progress/ETA reporter for long
//!   sweeps, automatically silent when stderr is not a terminal;
//! * [`flight`] — the post-mortem flight-recorder document: the last K
//!   trace events from a [`vic_trace::RingBufferSink`], any auditor
//!   divergences, and a full machine snapshot, rendered as one JSON
//!   object for debugging a failed or divergent run.
//!
//! Everything here is deterministic except host-time measurements
//! (explicitly labelled `host_ns`), which callers exclude from equality
//! comparisons.

pub mod flight;
pub mod progress;
pub mod sampler;
pub mod shard;
pub mod snapshot;

mod json;

pub use flight::{post_mortem_json, PostMortem};
pub use progress::ProgressReporter;
pub use sampler::{SeriesFormat, SnapshotSampler, TimeSeries};
pub use shard::MetricsShard;
pub use snapshot::{CacheSnapshot, MachineSnapshot, PageStateCounts, SystemSnapshot, TlbSnapshot};
