#![warn(missing_docs)]
//! # vic-metrics — live inspection for the vic simulator
//!
//! The tracing layer (`vic-trace`) and the profiler (`vic-profile`) are
//! after-the-fact instruments: they explain a run once it is over. This
//! crate is the *while it runs* layer:
//!
//! * [`snapshot`] — point-in-time views of the simulated machine:
//!   per-cache-page occupancy and dirtiness, victim-pointer spread, TLB
//!   residency, and (at the kernel level) per-page consistency-state
//!   counts. `vic-machine` and `vic-os` construct these from their
//!   `inspect()` methods;
//! * [`sampler`] — a cycle-driven [`SnapshotSampler`] that records a
//!   snapshot every N simulated cycles into a [`TimeSeries`] with
//!   plain/CSV/Markdown renderers. Sampling only *reads* machine state,
//!   so enabling it provably changes no simulated result;
//! * [`progress`] — a rate-limited stderr progress/ETA reporter for long
//!   sweeps, automatically silent when stderr is not a terminal.
//!
//! The types here are plain data. Their JSON form is a section of the
//! `vic-bench` run document (`snapshot`, `series`), written and read
//! there with the one run-document writer and reader.

pub mod progress;
pub mod sampler;
pub mod snapshot;

pub use progress::ProgressReporter;
pub use sampler::{SeriesFormat, SnapshotSampler, TimeSeries};
pub use snapshot::{CacheSnapshot, MachineSnapshot, PageStateCounts, SystemSnapshot, TlbSnapshot};
