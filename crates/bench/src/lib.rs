#![warn(missing_docs)]
//! # vic-bench — the experiment harness
//!
//! Regenerates every table and figure of Wheeler & Bershad (ASPLOS 1992):
//!
//! | artifact | binary | library entry |
//! |---|---|---|
//! | Table 2 + Table 3 + Figure 1 checks | `table2` | [`experiments::table2_report`] |
//! | Tables 1, 4 (with §5.1) and 5, §2.5 microbenchmark | `sweep` | [`experiments::measured_specs`], [`experiments::render_tables`] |
//! | parallel runs, JSON results | `sweep` | [`sweep::run_sweep`] |
//! | on-disk result cache (`sweep --cache`) | `sweep` | [`cache::ResultCache`] |
//! | cycle-cost attribution, diffs, perf baseline | `profile` | [`profile`] |
//!
//! A run is described by a [`SystemSpec`] — workload, system and every
//! knob as one `Copy` value — and a simulated system is a single owned
//! `Send` value, so the [`sweep`] engine fans specs across
//! `available_parallelism()` worker threads with results identical to a
//! serial loop (asserted in `tests/determinism.rs`). The [`cli`] module
//! gives every binary the same argument grammar and the [`output`] module
//! one JSON schema for single runs and sweeps.
//!
//! Host time is measured from outside the program by the repository
//! benchmark (`examples/benchmark`): end to end, per layer, and per
//! primitive.
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
pub mod output;
pub mod profile;
pub mod spec;
pub mod sweep;

pub use checkpoint::SystemCheckpoint;
pub use digest::spec_from_json;
pub use experiments::table2_report;
pub use output::{metrics_json, parse_metrics_doc, MetricsDoc, RunMetric};
pub use spec::SystemSpec;
pub use sweep::{run_sweep, Sweep, SweepResult};
