//! # tlbmap-prof — answering questions with run artifacts
//!
//! The observability layer (`tlbmap-obs`) *emits* artifacts: event
//! traces, a metrics registry and the flight recorder's windowed
//! communication matrices. This crate *consumes* them:
//!
//! * [`timeline`] — how detection accuracy evolves over a run: at every
//!   retained flight window, SM/HM-vs-ground-truth similarity scores,
//!   both cumulative and windowed (delta matrices), with phase boundaries
//!   where the flight recorder started a phase. This quantifies the
//!   paper's core claim that the detected matrices converge to the true
//!   communication pattern, per application phase.
//! * [`phases`] — the flight recorder's phase timeline and per-phase
//!   aggregates, parsed back from a metrics document's `flight` section
//!   for `tlbmap inspect` and phase-level analysis.
//! * [`diff`] — compare two runs' metrics documents stat by stat, with a
//!   configurable regression gate (`--fail-above`) suitable for CI.
//!
//! Everything here is deterministic given deterministic inputs: two
//! identical seeded runs produce byte-identical timelines and an empty
//! diff. Host timing is not measured here; `perfbench/` owns it.

#![warn(missing_docs)]

pub mod diff;
pub mod phases;
pub mod timeline;

pub use diff::{diff_docs, DiffEntry, DiffReport, Direction};
pub use phases::{FlightReport, PhaseComponent, PhaseSummary, PhaseWindow};
pub use timeline::{compute_timeline, Scores, Timeline, TimelineEntry};
pub use tlbmap_obs::DEFAULT_PHASE_THRESHOLD;
