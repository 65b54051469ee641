//! Dynamic-behaviour support — the paper's future-work direction.
//!
//! Section III-B property 4 demands detecting *changes* in the
//! communication pattern; the conclusion names dynamic migration as future
//! work, citing \[18\] for pattern-change detection. This module provides the
//! detection half: a [`WindowedDetector`] splits any detector's
//! accumulation into fixed-size windows, and [`detect_phase_changes`] flags
//! windows whose pattern diverges from their predecessor — the trigger a
//! dynamic remapper would act on (see `examples/dynamic_phases.rs`).

use crate::matrix::CommMatrix;
use crate::metrics::cosine_similarity;
use tlbmap_mem::{VirtAddr, Vpn};
use tlbmap_obs::Recorder;
use tlbmap_sim::{AccessKind, Mapping, MemOp, SimHooks, TlbView};

/// A detector whose accumulated matrix can be harvested.
pub trait MatrixSource {
    /// The matrix accumulated since the last harvest.
    fn matrix(&self) -> &CommMatrix;
    /// Take the matrix out, resetting the accumulation.
    fn take_matrix(&mut self) -> CommMatrix;
}

impl MatrixSource for crate::sm::SmDetector {
    fn matrix(&self) -> &CommMatrix {
        crate::sm::SmDetector::matrix(self)
    }
    fn take_matrix(&mut self) -> CommMatrix {
        crate::sm::SmDetector::take_matrix(self)
    }
}

impl MatrixSource for crate::hm::HmDetector {
    fn matrix(&self) -> &CommMatrix {
        crate::hm::HmDetector::matrix(self)
    }
    fn take_matrix(&mut self) -> CommMatrix {
        crate::hm::HmDetector::take_matrix(self)
    }
}

/// Windowing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseConfig {
    /// Close a window every this many observed memory accesses.
    pub window_accesses: u64,
    /// Two consecutive windows with cosine similarity below this are a
    /// phase change.
    pub similarity_threshold: f64,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            window_accesses: 100_000,
            similarity_threshold: 0.7,
        }
    }
}

/// Wraps a detector, harvesting its matrix every `window_accesses` accesses.
#[derive(Debug)]
pub struct WindowedDetector<D> {
    inner: D,
    config: PhaseConfig,
    accesses: u64,
    windows: Vec<CommMatrix>,
}

impl<D: MatrixSource + SimHooks> WindowedDetector<D> {
    /// Wrap `inner` with the given windowing.
    ///
    /// # Panics
    /// Panics if `window_accesses` is zero.
    pub fn new(inner: D, config: PhaseConfig) -> Self {
        assert!(config.window_accesses > 0, "window must be positive");
        WindowedDetector {
            inner,
            config,
            accesses: 0,
            windows: Vec::new(),
        }
    }

    /// Access to the wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Completed windows so far.
    pub fn windows(&self) -> &[CommMatrix] {
        &self.windows
    }

    /// Close the current (possibly partial) window and return all windows.
    pub fn finish(mut self) -> Vec<CommMatrix> {
        let tail = self.inner.take_matrix();
        if tail.total() > 0 || !self.accesses.is_multiple_of(self.config.window_accesses) {
            self.windows.push(tail);
        }
        self.windows
    }

    /// Sum of all windows plus the in-progress accumulation.
    pub fn cumulative_matrix(&self) -> CommMatrix {
        let mut sum = self.inner.matrix().clone();
        for w in &self.windows {
            sum.merge(w);
        }
        sum
    }
}

impl<D: MatrixSource + SimHooks> SimHooks for WindowedDetector<D> {
    fn on_access(&mut self, core: usize, thread: usize, vaddr: VirtAddr, op: MemOp) {
        self.inner.on_access(core, thread, vaddr, op);
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.config.window_accesses) {
            let w = self.inner.take_matrix();
            self.windows.push(w);
        }
    }

    fn on_tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        view: &TlbView<'_>,
    ) -> u64 {
        self.inner.on_tlb_miss(core, thread, vpn, kind, view)
    }

    fn on_tick(&mut self, now: u64, view: &TlbView<'_>) -> u64 {
        self.inner.on_tick(now, view)
    }
}

/// An online dynamic remapper — the full future-work loop of Section VII,
/// runnable inside the engine.
///
/// Wraps any matrix-producing detector. Every `interval_barriers` barriers
/// it closes a detection window; if the window's pattern diverges from the
/// previous one (cosine similarity below the threshold) — or on the very
/// first window — it asks its `mapper` callback for a fresh placement and
/// returns it from [`SimHooks::on_barrier`], which migrates the threads.
pub struct OnlineRemapper<D> {
    detector: D,
    mapper: Box<dyn FnMut(&CommMatrix) -> Mapping + Send>,
    interval_barriers: u64,
    similarity_threshold: f64,
    prev_window: Option<CommMatrix>,
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
        similarity_threshold: f64,
        mapper: Box<dyn FnMut(&CommMatrix) -> Mapping + Send>,
    ) -> Self {
        assert!(interval_barriers > 0, "interval must be positive");
        OnlineRemapper {
            detector,
            mapper,
            interval_barriers,
            similarity_threshold,
            prev_window: None,
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

    /// Swap the observability sink in place.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.recorder = rec;
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
        if window.total() == 0 {
            // Sampling detectors legitimately produce empty windows; keep
            // the previous pattern and placement.
            return None;
        }
        let similarity = match &self.prev_window {
            None => 0.0,
            Some(prev) => cosine_similarity(prev, &window),
        };
        let changed = self.prev_window.is_none() || similarity < self.similarity_threshold;
        self.prev_window = Some(window);
        if !changed {
            return None;
        }
        self.recorder
            .record_phase_change(self.windows_closed - 1, similarity);
        let new_mapping = (self.mapper)(self.prev_window.as_ref().expect("just set"));
        if self.last_mapping.as_ref() == Some(&new_mapping) {
            return None;
        }
        self.last_mapping = Some(new_mapping.clone());
        self.remaps += 1;
        Some(new_mapping)
    }
}

/// Indices `w` such that window `w` diverges from window `w-1` (cosine
/// similarity below the threshold). Windows in which nothing was detected
/// are skipped — sampling detectors legitimately produce empty windows.
pub fn detect_phase_changes(windows: &[CommMatrix], threshold: f64) -> Vec<usize> {
    let mut changes = Vec::new();
    let mut prev: Option<usize> = None;
    for (w, m) in windows.iter().enumerate() {
        if m.total() == 0 {
            continue;
        }
        if let Some(p) = prev {
            if cosine_similarity(&windows[p], m) < threshold {
                changes.push(w);
            }
        }
        prev = Some(w);
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sm::{SmConfig, SmDetector};

    fn neighbor_matrix(n: usize, offset: usize) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            let j = (i + 1 + offset) % n;
            m.add(i, j, 10);
        }
        m
    }

    #[test]
    fn stable_pattern_has_no_changes() {
        let windows: Vec<CommMatrix> = (0..5).map(|_| neighbor_matrix(6, 0)).collect();
        assert!(detect_phase_changes(&windows, 0.7).is_empty());
    }

    #[test]
    fn pattern_shift_is_detected() {
        let mut windows: Vec<CommMatrix> = (0..3).map(|_| neighbor_matrix(6, 0)).collect();
        windows.extend((0..3).map(|_| neighbor_matrix(6, 2)));
        let changes = detect_phase_changes(&windows, 0.7);
        assert_eq!(changes, vec![3]);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut windows = vec![neighbor_matrix(4, 0), CommMatrix::new(4)];
        windows.push(neighbor_matrix(4, 0));
        assert!(detect_phase_changes(&windows, 0.7).is_empty());
    }

    #[test]
    fn windowed_detector_rotates_on_access_count() {
        let det = SmDetector::new(2, SmConfig::every_miss());
        let mut w = WindowedDetector::new(
            det,
            PhaseConfig {
                window_accesses: 10,
                similarity_threshold: 0.7,
            },
        );
        for i in 0..25 {
            w.on_access(0, 0, VirtAddr(i * 64), MemOp::Read);
        }
        assert_eq!(w.windows().len(), 2);
        let all = w.finish();
        assert_eq!(all.len(), 3); // 2 full + 1 partial
    }

    #[test]
    fn cumulative_matrix_sums_windows() {
        struct Fake {
            m: CommMatrix,
        }
        impl MatrixSource for Fake {
            fn matrix(&self) -> &CommMatrix {
                &self.m
            }
            fn take_matrix(&mut self) -> CommMatrix {
                std::mem::replace(&mut self.m, CommMatrix::new(2))
            }
        }
        impl SimHooks for Fake {
            fn on_access(&mut self, _: usize, _: usize, _: VirtAddr, _: MemOp) {
                self.m.add(0, 1, 1);
            }
        }
        let mut w = WindowedDetector::new(
            Fake {
                m: CommMatrix::new(2),
            },
            PhaseConfig {
                window_accesses: 3,
                similarity_threshold: 0.5,
            },
        );
        for _ in 0..7 {
            w.on_access(0, 0, VirtAddr(0), MemOp::Read);
        }
        assert_eq!(w.cumulative_matrix().get(0, 1), 7);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        WindowedDetector::new(
            SmDetector::new(2, SmConfig::every_miss()),
            PhaseConfig {
                window_accesses: 0,
                similarity_threshold: 0.5,
            },
        );
    }
}
