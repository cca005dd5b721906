#![warn(missing_docs)]
//! # vic-bench — the experiment harness
//!
//! Regenerates every table and figure of Wheeler & Bershad (ASPLOS 1992):
//!
//! | artifact | binary | library entry |
//! |---|---|---|
//! | Table 1 (old vs new, 3 benchmarks) | `table1` | [`experiments::table1`] |
//! | Table 2 + Table 3 + Figure 1 checks | `table2` | [`experiments::table2_report`] |
//! | Table 4 (configurations A–F) | `table4` | [`experiments::table4`] |
//! | Table 5 (system comparison) | `table5` | [`experiments::table5`] |
//! | §2.5 alias microbenchmark | `microbench` | [`experiments::microbench`] |
//! | Tables 4+5 in parallel, JSON results | `sweep` | [`sweep::run_sweep`] |
//! | on-disk result cache (`sweep --cache`) | `sweep` | [`cache::ResultCache`] |
//! | cycle-cost attribution, diffs, perf baseline | `profile` | [`profile`] |
//! | host wall-clock throughput, `BENCH_host.json` | `hostbench` | [`hostbench`] |
//!
//! A run is described by a [`SystemSpec`] — workload, system and every
//! knob as one `Copy` value — and a simulated system is a single owned
//! `Send` value, so the [`sweep`] engine fans specs across
//! `available_parallelism()` worker threads with results identical to a
//! serial loop (asserted in `crates/bench/tests/sweep.rs`). The [`cli`]
//! module gives every binary the same argument grammar and the [`output`]
//! module one JSON schema for single runs and sweeps.
//!
//! The bench targets (`benches/`, plain `main()`s over the internal
//! [`harness`]) measure the simulator and algorithm primitives themselves
//! (flush/purge costs, `CacheControl` overhead, the alias loop, and
//! end-to-end workload throughput).
//!
//! Absolute simulated seconds are not expected to match the paper's HP 720
//! wall-clock numbers (the substrate is a simulator); the *shape* — who
//! wins, by what factor, where the costs sit — is asserted in
//! `tests/experiments.rs` at the workspace root.

pub mod cache;
pub mod checkpoint;
pub mod cli;
pub mod digest;
pub mod experiments;
pub mod harness;
pub mod hostbench;
pub mod output;
pub mod profile;
pub mod spec;
pub mod sweep;

pub use checkpoint::SystemCheckpoint;
pub use digest::spec_from_json;
pub use experiments::{
    microbench, table1, table2_report, table4, table5, MicrobenchResult, Table1Row, Table4Cell,
    Table5Row,
};
pub use hostbench::{HostEntry, HostGrid, HostRun};
pub use output::{metrics_json, parse_metrics_doc, MetricsDoc, RunMetric};
pub use spec::SystemSpec;
pub use sweep::{
    run_observed_sweep_with_threads, run_profiled_sweep_with_threads, run_sweep,
    run_sweep_with_threads, ObservedSweep, ProfiledResult, ProfiledSweep, Sweep, SweepResult,
};
