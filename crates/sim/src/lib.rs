//! Trace-driven multicore simulator.
//!
//! This crate plays the role Simics plays in the paper: it executes
//! per-thread memory-access traces on a modelled machine — per-core MMUs/TLBs
//! from [`tlbmap_mem`], the coherent cache hierarchy from [`tlbmap_cache`] —
//! and exposes the two observation hooks the paper's mechanisms need:
//!
//! * [`SimHooks::on_tlb_miss`] — fired between the TLB miss and its fill,
//!   exactly where a software-managed TLB traps to the OS (SM mechanism),
//! * [`SimHooks::on_tick`] — fired on a configurable cycle period, modelling
//!   the periodic interrupt of the hardware-managed mechanism (HM).
//!
//! Both hooks receive a [`TlbView`] of every core's TLB, which is what the
//! paper's TLB mirrors (SM) or proposed TLB-read instruction (HM) would
//! provide.
//!
//! The engine is deterministic for a fixed seed: cores are interleaved by a
//! smallest-clock-first discipline, barriers synchronize all threads, and
//! the optional compute-time jitter is drawn from a seeded RNG so repeated
//! runs (Table V's standard deviations) are reproducible.

pub mod codec;
pub mod config;
pub mod engine;
pub mod hooks;
pub mod jitter;
pub mod mapping;
pub mod numa;
mod sched;
pub mod stats;
pub mod topology;
pub mod trace;

pub use codec::{decode_traces, encode_traces, CodecError};
pub use config::SimConfig;
pub use engine::{simulate, simulate_observed, simulate_with_plan, ExecPlan};
pub use hooks::{NoHooks, SimHooks, TlbView};
pub use jitter::JitterConfig;
pub use mapping::Mapping;
pub use numa::{NumaConfig, NumaPolicy};
pub use stats::RunStats;
pub use topology::Topology;
pub use trace::{PackedEvent, ThreadTrace, TraceEvent};

// Re-export the types that appear in this crate's public API.
pub use tlbmap_cache::{AccessKind, AccessOutcome, MemOp};
pub use tlbmap_mem::{FrameAlloc, PageGeometry, VirtAddr};
pub use tlbmap_obs::{ObsConfig, Recorder};
