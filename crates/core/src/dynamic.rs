//! Dynamic-behaviour support — the paper's future-work direction.
//!
//! Section III-B property 4 demands detecting *changes* in the
//! communication pattern; the conclusion names dynamic migration as future
//! work, citing \[18\] for pattern-change detection. [`OnlineRemapper`]
//! closes a detection window every few barriers, hands it to the shared
//! phase judge ([`PhaseTracker`]) and remaps the threads when a new phase
//! starts (see `examples/dynamic_phases.rs`).

use crate::matrix::CommMatrix;
use tlbmap_mem::{VirtAddr, Vpn};
use tlbmap_obs::{PhaseTracker, Recorder, Verdict};
use tlbmap_sim::{AccessKind, Mapping, MemOp, SimHooks, TlbView};

/// A detector whose accumulated matrix can be harvested.
pub trait MatrixSource {
    /// Take the matrix out, resetting the accumulation.
    fn take_matrix(&mut self) -> CommMatrix;
}

impl MatrixSource for crate::sm::SmDetector {
    fn take_matrix(&mut self) -> CommMatrix {
        crate::sm::SmDetector::take_matrix(self)
    }
}

impl MatrixSource for crate::hm::HmDetector {
    fn take_matrix(&mut self) -> CommMatrix {
        crate::hm::HmDetector::take_matrix(self)
    }
}

/// An online dynamic remapper — the full future-work loop of Section VII,
/// runnable inside the engine.
///
/// Wraps any matrix-producing detector. Every `interval_barriers` barriers
/// it closes a detection window and judges it with a default
/// [`PhaseTracker`]; when the window starts a phase (the first non-empty
/// window, or one that diverges from the phase's reference) it asks its
/// `mapper` callback for a fresh placement and returns it from
/// [`SimHooks::on_barrier`], which migrates the threads.
pub struct OnlineRemapper<D> {
    detector: D,
    mapper: Box<dyn FnMut(&CommMatrix) -> Mapping + Send>,
    interval_barriers: u64,
    tracker: PhaseTracker,
    last_mapping: Option<Mapping>,
    remaps: u64,
    windows_closed: u64,
    recorder: Recorder,
}

impl<D: MatrixSource + SimHooks> OnlineRemapper<D> {
    /// Wrap `detector`; `mapper` turns a window matrix into a placement.
    ///
    /// # Panics
    /// Panics if `interval_barriers` is zero.
    pub fn new(
        detector: D,
        interval_barriers: u64,
        mapper: Box<dyn FnMut(&CommMatrix) -> Mapping + Send>,
    ) -> Self {
        assert!(interval_barriers > 0, "interval must be positive");
        OnlineRemapper {
            detector,
            mapper,
            interval_barriers,
            tracker: PhaseTracker::default(),
            last_mapping: None,
            remaps: 0,
            windows_closed: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Report phase changes to `rec`.
    #[must_use]
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// How many times a new mapping was issued.
    pub fn remaps(&self) -> u64 {
        self.remaps
    }

    /// Detection windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Access to the wrapped detector.
    pub fn detector(&self) -> &D {
        &self.detector
    }
}

impl<D: MatrixSource + SimHooks> SimHooks for OnlineRemapper<D> {
    /// Per-access callbacks only reach the wrapped detector.
    fn is_inert(&self) -> bool {
        self.detector.is_inert()
    }

    fn on_access(&mut self, core: usize, thread: usize, vaddr: VirtAddr, op: MemOp) {
        self.detector.on_access(core, thread, vaddr, op);
    }

    fn on_tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        view: &TlbView<'_>,
    ) -> u64 {
        self.detector.on_tlb_miss(core, thread, vpn, kind, view)
    }

    fn on_tick(&mut self, now: u64, view: &TlbView<'_>) -> u64 {
        self.detector.on_tick(now, view)
    }

    fn on_barrier(&mut self, barrier_idx: u64, _view: &TlbView<'_>) -> Option<Mapping> {
        if !(barrier_idx + 1).is_multiple_of(self.interval_barriers) {
            return None;
        }
        let window = self.detector.take_matrix();
        self.windows_closed += 1;
        let Verdict::Changed(similarity_ppm) = self.tracker.judge(&window.upper_cells()) else {
            return None;
        };
        self.recorder
            .record_phase_change(self.windows_closed - 1, similarity_ppm.unwrap_or(0));
        let new_mapping = (self.mapper)(&window);
        if self.last_mapping.as_ref() == Some(&new_mapping) {
            return None;
        }
        self.last_mapping = Some(new_mapping.clone());
        self.remaps += 1;
        Some(new_mapping)
    }
}
