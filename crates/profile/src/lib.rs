//! `vic-profile`: span-based cycle-cost attribution for the simulator.
//!
//! The paper's argument is a cost-attribution argument: every cycle spent
//! on cache consistency is charged to a specific operation (flush, purge,
//! fault service, preparation copy/zero) performed for a specific reason
//! under a specific manager. This crate makes that attribution a live,
//! queryable artifact instead of a set of scattered counters:
//!
//! * [`Profiler`] — the handle the machine's observers hold. Layers open
//!   spans around their work (the kernel around fault service and
//!   preparation, the pmap around each manager dispatch) and the machine
//!   charges each cycle-costing operation as a leaf under the innermost
//!   span. Disabled (the default), every site is one branch — the same
//!   zero-cost discipline as tracing.
//! * [`CostTree`] — the accumulated hierarchy. Its total equals the
//!   machine's cycle counter *exactly* (conservation: cycles enter the
//!   tree at the same statements that bump the counter).
//! * [`DocDiff`] — the differential comparison of two sets of
//!   [`ProfileRun`]s used by `profile diff` and the CI baseline gate. The
//!   runs come from the `cost_tree` sections of `vic_bench` run
//!   documents, read with the dependency-free [`parse_json`] parser that
//!   lives here.
//!
//! The crate deliberately depends on nothing: the machine crate depends
//! on it, not the other way around.

#![warn(missing_docs)]

pub mod diff;
pub mod json;
pub mod profiler;
pub mod tree;

pub use diff::{DocDiff, PathDelta, ProfileRun, RunDiff};
pub use json::{parse_json, JsonError, JsonValue};
pub use profiler::Profiler;
pub use tree::{path_string, CostTree, FlatRow, Seg};
