#![warn(missing_docs)]
//! # vic — consistency management for virtually indexed caches
//!
//! Umbrella crate for the reproduction of Wheeler & Bershad, *"Consistency
//! Management for Virtually Indexed Caches"* (ASPLOS 1992). It re-exports
//! the workspace crates so examples and integration tests can use a single
//! dependency:
//!
//! * [`vic_core`] (as `core`) — the consistency model (Table 2), per-page state
//!   (Table 3), the `CacheControl` algorithm (Figure 1), policy
//!   configurations A–F, and the Table 5 baseline managers;
//! * [`vic_machine`] (as `machine`) — the simulated HP 9000/700-class memory
//!   system (virtually indexed physically tagged write-back caches, TLB,
//!   DMA, cycle accounting, staleness oracle);
//! * [`vic_os`] (as `os`) — the Mach-like kernel (address spaces, pmap, fault
//!   handling, IPC page transfer, buffer-cache file system);
//! * [`vic_workloads`] (as `workloads`) — the paper's benchmark drivers
//!   (afs-bench, latex-paper, kernel-build, alias microbenchmark);
//! * [`vic_trace`] (as `trace`) — the structured event-tracing and metrics
//!   layer (ring-buffer/JSON/histogram sinks, and the consistency auditor
//!   that replays a trace against the abstract four-state model);
//! * [`vic_metrics`] (as `metrics`) — the observability layer (live
//!   [`Machine::inspect`](vic_machine::Machine::inspect) snapshots, the
//!   cycle-driven occupancy sampler, sharded run metrics with a
//!   commutative merge, progress/ETA reporting, and the flight-recorder
//!   post-mortem format);
//! * [`vic_profile`] (as `profile`) — the cycle-cost attribution profiler
//!   (hierarchical cost trees keyed to the simulated clock, profile
//!   documents, differential comparison for the perf-regression baseline);
//! * [`vic_sample`] (as `sample`) — the flattened run-counter vector the
//!   repository benchmark digests.

pub use vic_core as core;
pub use vic_core::ENGINE_VERSION;
pub use vic_machine as machine;
pub use vic_metrics as metrics;
pub use vic_os as os;
pub use vic_profile as profile;
pub use vic_sample as sample;
pub use vic_trace as trace;
pub use vic_workloads as workloads;
