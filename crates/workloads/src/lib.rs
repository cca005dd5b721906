#![warn(missing_docs)]
//! # vic-workloads — the paper's benchmark drivers
//!
//! Deterministic, seeded reproductions of the three benchmark programs of
//! Wheeler & Bershad's evaluation (§2.5, §5), plus the contrived alias
//! microbenchmark:
//!
//! * [`AfsBench`] — the Andrew File System benchmark: a file-intensive
//!   script (create/copy/scan/read phases) exercising the Unix server and
//!   buffer cache;
//! * [`LatexBench`] — formatting this paper with TeX: CPU-heavy passes
//!   over a working set with light file I/O;
//! * [`KernelBuild`] — building the Mach kernel from ~200 source files:
//!   task churn, exec text loading (data→instruction copies), heavy
//!   new-mapping traffic;
//! * [`AliasLoop`] — a single thread repeatedly writing one physical
//!   address through two virtual addresses, aligned versus unaligned
//!   (§2.5's "fraction of a second" versus "over 2 minutes");
//! * [`ForkBench`] — an extension workload exercising copy-on-write
//!   snapshots (§2.2 names COW as an alias source).
//!
//! Every driver issues the same *kinds* of kernel operations as the paper's
//! Unix programs did: the measured consistency traffic (flushes, purges,
//! mapping and consistency faults) emerges from the kernel paths, not from
//! scripted counts. The [`runner`] module runs a workload under a selected
//! [`SystemKind`](vic_os::SystemKind) and collects a [`RunStats`].
//!
//! ## Example: old versus new on one benchmark
//!
//! ```
//! use vic_core::policy::Configuration;
//! use vic_os::SystemKind;
//! use vic_workloads::{run_on, AfsBench, MachineSize};
//!
//! let old = run_on(SystemKind::Cmu(Configuration::A), MachineSize::Small, &AfsBench::quick());
//! let new = run_on(SystemKind::Cmu(Configuration::F), MachineSize::Small, &AfsBench::quick());
//! assert!(new.cycles < old.cycles, "the paper's system wins");
//! assert_eq!(new.oracle_violations, 0);
//! ```

pub mod afs;
pub mod alias;
pub mod fork;
pub mod kbuild;
pub mod latex;
pub mod report;
pub mod runner;
pub mod spec;
pub mod step;

pub use afs::AfsBench;
pub use alias::AliasLoop;
pub use fork::ForkBench;
pub use kbuild::KernelBuild;
pub use latex::LatexBench;
pub use runner::{
    collect, run_observed, run_on, run_profiled, run_traced, run_with_config, MachineSize,
    Observed, RunStats, Workload,
};
pub use spec::WorkloadKind;
pub use step::{drive, Cursor, DriveOutcome, StepWorkload};
