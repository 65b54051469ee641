//! Cache-hierarchy substrate with MESI coherence and the event counters the
//! paper measures.
//!
//! The paper evaluates thread mappings by their effect on three hardware
//! events (Figures 7–9, Table IV):
//!
//! * **cache-line invalidations** — a write to a line another cache holds
//!   forces that copy invalid (MESI `BusRdX`/upgrade),
//! * **snoop transactions** — a miss serviced by *another cache* instead of
//!   memory (cache-to-cache transfer),
//! * **L2 misses** — with a taxonomy (cold / capacity / coherence) matching
//!   the discussion in Section III-A.
//!
//! The modelled hierarchy mirrors the paper's Figure 3 / Table II: private
//! write-through L1s per core and write-back MESI L2s shared by groups of
//! cores, all L2s connected by a snooping bus whose cache-to-cache latency
//! differs between intra- and inter-chip transfers.

pub mod cache;
pub mod config;
pub mod hierarchy;
mod lineset;
pub mod mesi;
pub mod stats;

pub use cache::{Cache, EvictedLine, LineAddr};
pub use config::{CacheConfig, HierarchyConfig, L2Group};
pub use hierarchy::{AccessKind, AccessOutcome, MemOp, MemoryHierarchy};
pub use mesi::MesiState;
pub use stats::{CacheStats, MissKind};
