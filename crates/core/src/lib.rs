#![warn(missing_docs)]
//! # vic-core — consistency management for virtually indexed caches
//!
//! This crate implements the consistency *model* and the software
//! *algorithm* of Wheeler & Bershad, **"Consistency Management for Virtually
//! Indexed Caches"** (ASPLOS 1992).
//!
//! A virtually indexed cache selects a cache line by virtual address, so a
//! physical address mapped at more than one virtual address (an *alias*) can
//! occupy more than one line at a time. With a write-back cache, memory can
//! also become stale with respect to the cache. The paper's solution is a
//! four-state consistency model (Empty / Present / Dirty / Stale, the
//! [`LineState`] type) over *cache pages*, plus a short code sequence
//! ([`cache_control`](cache_control::cache_control), the paper's Figure 1)
//! that uses ordinary virtual-memory protection hardware to deny access to
//! potentially inconsistent data, delaying — and often eliding — cache flush
//! and purge operations.
//!
//! The crate is organized as:
//!
//! * [`types`] — address, page, protection and mapping newtypes shared by
//!   the whole workspace;
//! * [`state`] — the pure state-transition function of the paper's Table 2,
//!   exhaustively tested against a literal copy of the table;
//! * [`page_state`] — the per-physical-page encoding of the paper's Table 3
//!   (`mapped` / `stale` bit vectors and the `cache_dirty` bit);
//! * [`cache_control`] — the Figure-1 algorithm, generic over a hardware
//!   trait so it can drive either the real simulator or the abstract model;
//! * [`policy`] — the paper's configurations A–F as a set of policy knobs;
//! * [`manager`] — the [`manager::ConsistencyManager`]
//!   interface an operating system drives, plus operation statistics;
//! * [`managers`] — the paper's manager (CMU) and the Table-5 baselines
//!   (Utah/Apollo eager, Tut, Sun);
//! * [`spec`] — a small-scope exhaustive checker proving the transition
//!   table never lets a stale value reach the CPU or a device, and that the
//!   flushes/purges it demands are necessary.
//!
//! ## Quick example
//!
//! ```
//! use vic_core::types::{CacheGeometry, CpuId, Mapping, Prot, SpaceId, VPage, PFrame, Access};
//! use vic_core::manager::{ConsistencyManager, AccessHints};
//! use vic_core::managers::CmuManager;
//! use vic_core::policy::PolicyConfig;
//! use vic_core::cache_control::RecordingHw;
//!
//! let geom = CacheGeometry::new(8, 4);
//! let mut hw = RecordingHw::new(geom);
//! let mut mgr = CmuManager::new(16, geom, PolicyConfig::all_on());
//!
//! // Map frame 3 at two unaligned virtual pages and write through the first.
//! let a = Mapping::new(SpaceId(1), VPage(0));
//! let b = Mapping::new(SpaceId(2), VPage(1));
//! mgr.on_map(CpuId::BOOT, &mut hw, PFrame(3), a, Prot::READ_WRITE);
//! mgr.on_map(CpuId::BOOT, &mut hw, PFrame(3), b, Prot::READ_WRITE);
//! mgr.on_access(CpuId::BOOT, &mut hw, PFrame(3), a, Access::Write, AccessHints::default());
//!
//! // The second mapping is now denied access: reading through it must fault
//! // first so the dirty data can be flushed.
//! assert_eq!(hw.prot_of(b), Prot::NONE);
//! mgr.on_access(CpuId::BOOT, &mut hw, PFrame(3), b, Access::Read, AccessHints::default());
//! assert!(hw.prot_of(b).allows(Access::Read));
//! assert_eq!(hw.flushes.len(), 1); // the dirty cache page was flushed once
//! ```

pub mod cache_control;
pub mod fxhash;
pub mod manager;
pub mod managers;
pub mod page_state;
pub mod policy;
pub mod rng;
pub mod serial;
pub mod spec;
pub mod state;
pub mod types;

/// The engine schema version, stamped into every versioned JSON document
/// the workspace emits (run/sweep/profile/metrics/flight/checkpoint). One
/// constant for the whole engine: any change to simulated behaviour or to
/// a serialized schema bumps it, and a checkpoint or cached result from
/// another version is rejected rather than reinterpreted.
pub const ENGINE_VERSION: u64 = 4;

pub use fxhash::{hash_words, FxBuildHasher, FxHashMap, FxHashSet};
pub use manager::{AccessHints, ConsistencyManager, DmaDir, MgrStats};
pub use page_state::{CachePageSet, CacheSideState, PhysPageInfo};
pub use policy::{Configuration, PolicyConfig};
pub use rng::Rng64;
pub use serial::{SerialError, WordReader, WordWriter};
pub use state::{transition, CacheAction, LineState, ModelOp, Role, Transition};
pub use types::{
    Access, CacheGeometry, CacheKind, CachePage, CpuId, Mapping, PFrame, Prot, SpaceId, VAddr,
    VPage,
};
