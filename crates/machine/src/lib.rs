#![warn(missing_docs)]
//! # vic-machine — a simulated HP 9000/700-class memory system
//!
//! A functional, cycle-cost-modelled simulator of the memory system the
//! paper's evaluation ran on (HP 9000 Series 700, Model 720):
//!
//! * separate **instruction and data caches**, both direct mapped,
//!   **virtually indexed and physically tagged**; the data cache is
//!   **write-back** with write-allocate ([`cache::Cache`]);
//! * a software-managed **TLB** over per-address-space page tables with
//!   read/write/execute protections ([`mmu`]);
//! * **DMA** devices that transfer directly to and from physical memory and
//!   do not snoop the caches ([`Machine::dma_write_page`] /
//!   [`Machine::dma_read_page`]);
//! * cache management instructions exported to the processor: **flush** and
//!   **purge** by (cache page, physical frame) ([`Machine::flush_dcache_page`]
//!   etc.), with the 720's observed cost behaviour — an operation on a line
//!   that is present in the cache is several times more expensive than on an
//!   absent one, instruction-cache page purges take constant time, and
//!   purges are no faster than flushes ([`cost::CycleCosts`]);
//! * a deterministic **cycle account** ([`Machine::cycles`]) standing in for
//!   the 720's on-chip cycle counter;
//! * a **staleness oracle** ([`oracle::Oracle`]): shadow memory recording
//!   the last value written to every physical byte, checked on every CPU
//!   load, instruction fetch and device read. Staleness in this simulator is
//!   *emergent* — the caches really go inconsistent when mismanaged — and
//!   the oracle is how tests prove a consistency manager correct.
//!
//! The alias behaviour of the real hardware emerges from the geometry: two
//! virtual pages that *align* (equal cache page) share physical cache lines
//! (the tags match), while unaligned aliases occupy distinct lines that can
//! drift apart.
//!
//! ## Example: reproduce the stale-alias hazard by hand
//!
//! ```
//! use vic_core::types::{CachePage, Mapping, PFrame, Prot, SpaceId, VPage};
//! use vic_machine::{Machine, MachineConfig};
//!
//! let mut m = Machine::new(MachineConfig::small());
//! let sp = SpaceId(1);
//! // One frame, two UNALIGNED virtual pages (cache pages 0 and 1).
//! m.enter_mapping(Mapping::new(sp, VPage(0)), PFrame(3), Prot::READ_WRITE);
//! m.enter_mapping(Mapping::new(sp, VPage(1)), PFrame(3), Prot::READ_WRITE);
//! let va0 = m.config().vaddr(VPage(0));
//! let va1 = m.config().vaddr(VPage(1));
//!
//! let _ = m.load(sp, va1)?;      // prime the alias's line
//! m.store(sp, va0, 42)?;         // dirty the other line
//! assert_eq!(m.load(sp, va1)?, 0);                  // stale!
//! assert_eq!(m.oracle().violations(), 1);           // ...and detected.
//!
//! // The software fix: flush the dirty page, purge the stale one.
//! m.flush_dcache_page(CachePage(0), PFrame(3));
//! m.purge_dcache_page(CachePage(1), PFrame(3));
//! assert_eq!(m.load(sp, va1)?, 42);
//! # Ok::<(), vic_machine::Fault>(())
//! ```

pub mod cache;
pub mod config;
pub mod cost;
pub mod cpu;
pub mod machine;
pub mod mem;
pub mod mmu;
pub mod oracle;
pub mod shared;
pub mod stats;

pub use config::{MachineConfig, WritePolicy};
pub use cost::CycleCosts;
pub use cpu::Cpu;
pub use machine::{Fault, Machine, Observers};
pub use oracle::{Oracle, Violation};
pub use shared::SharedState;
pub use stats::{MachineStats, OpStat};
pub use vic_metrics::{CacheSnapshot, MachineSnapshot, SnapshotSampler, TlbSnapshot};
