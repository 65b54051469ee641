//! The paper's contribution: detecting the communication pattern of a
//! shared-memory parallel application from TLB contents.
//!
//! Two mechanisms are implemented, exactly following Section IV:
//!
//! * [`SmDetector`] — **software-managed TLBs** (Figure 1a): every TLB miss
//!   traps to the OS; a sampling counter decides whether to search the other
//!   cores' TLB mirrors for the missing page. One match = one unit of
//!   communication between the two threads. Θ(P) per sampled miss with a
//!   set-associative TLB.
//! * [`HmDetector`] — **hardware-managed TLBs** (Figure 1b): a periodic
//!   interrupt dumps all TLBs (via the paper's proposed TLB-read
//!   instruction) and cross-compares every pair, set by set. Θ(P²·S).
//!
//! Both accumulate a [`CommMatrix`]. For validation, [`GroundTruthDetector`]
//! implements the expensive full-trace detection of the prior work the paper
//! compares against (\[10\], \[11\] — every memory access recorded), and
//! [`metrics`] quantifies how close a detected matrix is to that truth.
//!
//! [`overhead`] reproduces the cost model of Section VI-C (231-cycle SM
//! routine, 84,297-cycle HM routine for the paper's configuration), and
//! [`dynamic`] implements the future-work extension: an online remapper
//! that migrates threads when the detected pattern changes phase.

pub mod counters;
pub mod decayed;
pub mod dynamic;
pub mod ground_truth;
pub mod hm;
pub mod matrix;
pub mod metrics;
pub mod overhead;
pub mod sm;

pub use counters::{CounterConfig, CounterEstimator};
pub use decayed::DecayedMatrix;
pub use dynamic::OnlineRemapper;
pub use ground_truth::{GroundTruthConfig, GroundTruthDetector};
pub use hm::{HmConfig, HmDetector};
pub use matrix::CommMatrix;
pub use sm::{SmConfig, SmDetector};
