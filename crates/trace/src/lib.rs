//! # vic-trace — structured event tracing for the VIC simulator
//!
//! A zero-dependency observability layer threaded through every level of
//! the stack:
//!
//! * **machine** events — cache hits/misses, write-backs, flushes, purges,
//!   TLB fills, DMA transfers — emitted by `vic-machine`;
//! * **OS** events — mapping and consistency faults, zero-fills, page
//!   copies, IPC transfers, COW breaks, paging DMA — emitted by `vic-os`;
//! * **algorithm** events — one [`TraceEvent::Transition`] per cache-page
//!   consistency-state change at the manager dispatch boundary, with the
//!   hardware operations that justified it — captured by [`HwRecorder`] +
//!   [`emit_transitions`].
//!
//! Events flow through an owned [`Tracer`] handle into a
//! [`TraceSink`]. A disconnected tracer (the default everywhere) is a
//! single `Option` check: tracing off changes no result and no statistic.
//! The tracer owns its sink (`Box<dyn TraceSink + Send>`), so a machine —
//! and the whole simulated system built on it — is a single owned `Send`
//! value that can run on any thread; keep an `Arc<Mutex<S>>` handle and
//! give the tracer a clone ([`TraceSink`] is implemented for it) when a
//! sink must be inspected after the run.
//!
//! Sinks provided here:
//!
//! * [`RingBufferSink`] — the last N events, for post-mortem dumps;
//! * [`HistogramSink`] — power-of-two latency distributions per
//!   operation class;
//! * [`JsonLinesSink`] — one JSON object per line to any writer;
//! * [`ConsistencyAuditor`] — replays transitions against the paper's
//!   abstract four-state model and flags divergences;
//! * [`FanoutSink`] — plumbing.

#![warn(missing_docs)]

pub mod audit;
pub mod capture;
pub mod event;
pub mod histogram;
pub mod sinks;
pub mod tracer;

pub use audit::{ConsistencyAuditor, Divergence, DivergenceKind};
pub use capture::{emit_transitions, HwLog, HwRecorder};
pub use event::{MgrOp, TraceEvent};
pub use histogram::{Histogram, HistogramSink, NUM_BUCKETS};
pub use sinks::{JsonLinesSink, RingBufferSink};
pub use tracer::{FanoutSink, TraceSink, Tracer};
