//! # tlbmap-obs — structured observability for the TLB-mapping simulator
//!
//! In-house event tracing, metrics, and run-artifact export. The crate has
//! **zero dependencies** (the build environment cannot reach crates.io), so
//! JSON encoding/decoding, the histogram machinery, and the trace formats
//! all live here.
//!
//! Five layers:
//!
//! * **Events** ([`Event`]) — discrete occurrences (TLB misses, detection
//!   searches, matrix increments, barriers, migrations, phase changes)
//!   kept in a bounded ring and exported as JSONL or Chrome `trace_event`
//!   JSON.
//! * **Metrics** ([`CounterId`], [`HistId`], [`Histogram`]) — monotonic
//!   counters and log₂-bucketed histograms with a lock-free hot path.
//! * **Live windows** ([`LiveRegistry`], [`WindowedHistogram`]) — rolling
//!   wall-clock windows of N rotating log₂ slots, snapshotable by any
//!   thread without stopping the writers, so a long-running server can
//!   answer "what are p50/p99 *right now*" instead of since-boot.
//! * **Flight recorder** ([`FlightWindow`], [`crate::flight`]) — a bounded
//!   ring of windowed communication-matrix *deltas* plus per-core activity,
//!   maintained on the detector hot path, with an online phase detector
//!   that stamps a `phase_id` into events and splits the cycle profile
//!   per phase (judged by the shared [`PhaseTracker`]).
//! * **Self-profiling** ([`ProfId`], [`Profile`]) — scoped accounting of
//!   where *simulated* cycles go (compute, TLB, cache, detection scans,
//!   barriers, migrations, mapper), rendered as inclusive/exclusive
//!   totals and collapsed-stack/flamegraph text.
//!
//! The entry point is [`Recorder`]: a cheap cloneable handle threaded
//! through the engine, detectors, and mapper. [`Recorder::disabled`]
//! reduces every probe to a single branch, so simulations not being
//! observed pay nothing.
//!
//! ```
//! use tlbmap_obs::{CounterId, ObsConfig, Recorder};
//!
//! let rec = Recorder::new(ObsConfig::new(4).with_flight_window(Some(1000)));
//! rec.advance(500);
//! rec.record_tlb_miss(0, 0, 0x77, true);
//! rec.record_matrix_inc(0, 1, 2);
//! rec.finish(2500);
//! assert_eq!(rec.counter(CounterId::TlbMisses), 1);
//! assert_eq!(rec.flight_windows().len(), 3);
//! ```

#![warn(missing_docs)]

pub mod drift;
pub mod event;
pub mod flight;
pub mod json;
pub mod live;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod ring;

pub use drift::{PhaseTracker, Verdict, DEFAULT_PHASE_THRESHOLD};
pub use event::{Event, Mechanism};
pub use flight::FlightWindow;
pub use json::{Items, Json, JsonError};
pub use live::{LiveConfig, LiveRegistry, WindowSnapshot, WindowedHistogram};
pub use metrics::{
    bucket_index, bucket_lo, CounterId, HistId, Histogram, COUNTERS, HISTS, N_BUCKETS,
};
pub use profile::{ProfId, Profile, PROF_NODES};
pub use recorder::{ObsConfig, Recorder};
pub use ring::RingBuffer;
