//! Pattern-similarity math and the one phase judge.
//!
//! These are the pearson/cosine kernels behind
//! `tlbmap_core::metrics::{pearson_correlation, cosine_similarity}`, and
//! [`PhaseTracker`], the drift rule every phase-aware part of the
//! workspace applies: the flight recorder ([`crate::flight`]), the
//! `tlbmap_prof` accuracy timeline, the engine's `OnlineRemapper` and the
//! service's streaming sessions. They live here — at the bottom of the
//! dependency chain — because `tlbmap-core` depends on `tlbmap-obs`, not
//! the other way around. Each caller keeps only its own windowing.
//!
//! Conventions (identical to the matrix-level wrappers): empty or
//! constant inputs score `0.0`, never `NaN` — a windowed detector must be
//! able to compare degenerate windows without poisoning downstream
//! arithmetic.

/// Pearson correlation of two equal-length samples; `0.0` when either
/// input has fewer than two elements or zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len(), "sample lengths differ");
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Cosine similarity of two equal-length vectors; scale-invariant, `0.0`
/// when either vector is all zero.
pub fn cosine(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len(), "vector lengths differ");
    let dot: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let na: f64 = xs.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = ys.iter().map(|y| y * y).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

/// [`cosine`] over integer cell vectors (the flight recorder's windowed
/// matrix deltas are `u64` counts).
pub fn cosine_u64(xs: &[u64], ys: &[u64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len(), "vector lengths differ");
    let dot: f64 = xs.iter().zip(ys).map(|(&x, &y)| x as f64 * y as f64).sum();
    let na: f64 = xs.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = ys.iter().map(|&y| (y as f64).powi(2)).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

/// Cosine similarity below which a judged window starts a new phase, for
/// every in-process phase judge. Streaming sessions carry their own
/// threshold on the wire.
pub const DEFAULT_PHASE_THRESHOLD: f64 = 0.75;

/// A similarity in `[0, 1]` as integral parts per million, the unit every
/// phase decision is made and exported in.
pub fn ppm(similarity: f64) -> u64 {
    (similarity.clamp(0.0, 1.0) * 1e6).round() as u64
}

/// Consecutive sparse windows after which a drop in traffic is taken to
/// be lasting rather than one clipped window: the last of the run is
/// judged, and its total becomes the reference's.
const SPARSE_RUN: u64 = 4;

/// What [`PhaseTracker::judge`] decided about one window. The judged
/// variants carry the window's cosine similarity to the phase reference,
/// in ppm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No traffic: not judged, the reference stays.
    Empty,
    /// Less than a quarter of the reference's traffic, and not the last
    /// window of a run of `SPARSE_RUN`: not judged, the reference stays.
    Sparse,
    /// At or above the threshold: the phase continues.
    Stable(u64),
    /// Below the threshold, but within the cooldown after the last change:
    /// the change is suppressed and the reference stays.
    Cooldown(u64),
    /// A new phase starts here and this window becomes its reference.
    /// `None` for the first phase, which has nothing to diverge from.
    Changed(Option<u64>),
}

impl Verdict {
    /// Similarity to the reference in ppm, when the window was compared.
    pub fn similarity_ppm(self) -> Option<u64> {
        match self {
            Verdict::Empty | Verdict::Sparse => None,
            Verdict::Stable(s) | Verdict::Cooldown(s) => Some(s),
            Verdict::Changed(s) => s,
        }
    }
}

/// The phase judge: compares each window's cells against the current
/// phase's reference window.
///
/// - The first non-empty window starts phase 0 and becomes its reference.
/// - Empty windows are not judged — sampling detectors legitimately
///   produce them.
/// - A window with less than a quarter of the reference's traffic is not
///   judged: with sampling detectors it holds an arbitrary fragment of the
///   pattern (an iteration tail clipped by the window boundary), and
///   comparing fragments flags sampling noise as phase changes. A run of
///   `SPARSE_RUN` such windows (empty ones neither count nor break it)
///   means the traffic itself dropped: the last of the run is judged and
///   its total becomes the reference's, so a quieter phase is still seen.
/// - A judged window below the threshold starts a new phase and becomes
///   the reference, unless it falls within `cooldown` judged windows of
///   the last change.
///
/// Callers pass every window in the same cell layout (the upper triangle
/// of the window's matrix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTracker {
    threshold_ppm: u64,
    cooldown: u64,
    /// The current phase's reference cells; empty before the first phase.
    reference: Vec<u64>,
    reference_total: u64,
    /// Sparse windows since the last judged one.
    sparse_run: u64,
    judged_since_change: u64,
    phase: u64,
}

impl Default for PhaseTracker {
    /// [`DEFAULT_PHASE_THRESHOLD`], no cooldown.
    fn default() -> Self {
        PhaseTracker::new(ppm(DEFAULT_PHASE_THRESHOLD), 0)
    }
}

impl PhaseTracker {
    /// A judge that starts a phase below `threshold_ppm` and suppresses a
    /// change within `cooldown` judged windows of the last one.
    pub fn new(threshold_ppm: u64, cooldown: u64) -> Self {
        PhaseTracker {
            threshold_ppm,
            cooldown,
            reference: Vec::new(),
            reference_total: 0,
            sparse_run: 0,
            judged_since_change: 0,
            phase: 0,
        }
    }

    /// Index of the current phase (0 until a window diverges from the
    /// first phase).
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Judge one window's cells.
    pub fn judge(&mut self, cells: &[u64]) -> Verdict {
        let total: u64 = cells.iter().sum();
        if total == 0 {
            return Verdict::Empty;
        }
        if self.reference_total == 0 {
            self.rebase(cells, total);
            return Verdict::Changed(None);
        }
        if total.saturating_mul(4) < self.reference_total {
            self.sparse_run += 1;
            if self.sparse_run < SPARSE_RUN {
                return Verdict::Sparse;
            }
            self.reference_total = total;
        }
        self.sparse_run = 0;
        let similarity = ppm(cosine_u64(&self.reference, cells));
        self.judged_since_change += 1;
        if similarity >= self.threshold_ppm {
            return Verdict::Stable(similarity);
        }
        if self.judged_since_change <= self.cooldown {
            return Verdict::Cooldown(similarity);
        }
        self.phase += 1;
        self.rebase(cells, total);
        Verdict::Changed(Some(similarity))
    }

    fn rebase(&mut self, cells: &[u64], total: u64) {
        self.reference.clear();
        self.reference.extend_from_slice(cells);
        self.reference_total = total;
        self.judged_since_change = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_shapes_score_one() {
        let a = [10.0, 0.0, 10.0, 1.0];
        let b = [70.0, 0.0, 70.0, 7.0]; // same shape, 7x the scale
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-12);
        assert!((cosine_u64(&[10, 0, 10, 1], &[70, 0, 70, 7]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_patterns_score_zero_cosine() {
        assert_eq!(cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(cosine_u64(&[5, 0, 0], &[0, 3, 0]), 0.0);
    }

    #[test]
    fn opposite_trends_anticorrelate() {
        assert!(pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) < -0.99);
    }

    #[test]
    fn degenerate_inputs_are_zero_not_nan() {
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[5.0, 5.0], &[1.0, 2.0]), 0.0, "zero variance");
        assert_eq!(cosine(&[], &[]), 0.0);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_u64(&[0, 0], &[0, 0]), 0.0);
    }

    #[test]
    fn first_window_starts_phase_zero_and_a_divergent_one_the_next() {
        let mut t = PhaseTracker::default();
        assert_eq!(t.judge(&[0, 0, 0]), Verdict::Empty);
        assert_eq!(t.judge(&[10, 0, 0]), Verdict::Changed(None));
        assert_eq!(t.phase(), 0);
        assert_eq!(t.judge(&[30, 0, 0]), Verdict::Stable(1_000_000));
        assert_eq!(t.judge(&[0, 10, 0]), Verdict::Changed(Some(0)));
        assert_eq!(t.phase(), 1);
        // The divergent window is the new reference.
        assert_eq!(t.judge(&[0, 7, 0]), Verdict::Stable(1_000_000));
    }

    #[test]
    fn sparse_and_empty_windows_leave_the_reference() {
        let mut t = PhaseTracker::default();
        t.judge(&[40, 0]);
        assert_eq!(t.judge(&[0, 9]), Verdict::Sparse, "9 * 4 < 40");
        assert_eq!(t.judge(&[0, 0]), Verdict::Empty);
        assert_eq!(
            t.judge(&[10, 0]),
            Verdict::Stable(1_000_000),
            "a quarter is judged"
        );
        assert_eq!(t.phase(), 0);
    }

    #[test]
    fn a_run_of_sparse_windows_is_judged_at_the_new_volume() {
        // A tenth of the volume, same shape or a new one: the run's last
        // window is judged, then every quieter window is. Empty windows do
        // not count, and a judged window ends the run.
        let same = Verdict::Stable(1_000_000);
        for (quiet, last) in [([40, 0], same), ([0, 40], Verdict::Changed(Some(0)))] {
            let mut t = PhaseTracker::default();
            t.judge(&[400, 0]);
            assert_eq!(t.judge(&quiet), Verdict::Sparse);
            assert_eq!(t.judge(&[100, 0]), same, "ends the run");
            for _ in 1..SPARSE_RUN {
                assert_eq!(t.judge(&quiet), Verdict::Sparse);
                assert_eq!(t.judge(&[0, 0]), Verdict::Empty);
            }
            assert_eq!(t.judge(&quiet), last);
            assert_eq!(t.judge(&quiet), same);
        }
    }

    #[test]
    fn the_threshold_is_inclusive_in_ppm() {
        // cos([1, 0], [1, 1]) = 0.7071... -> 707,107 ppm.
        let mut t = PhaseTracker::new(707_107, 0);
        t.judge(&[1, 0]);
        assert_eq!(t.judge(&[1, 1]), Verdict::Stable(707_107));
        let mut t = PhaseTracker::new(707_108, 0);
        t.judge(&[1, 0]);
        assert_eq!(t.judge(&[1, 1]), Verdict::Changed(Some(707_107)));
    }

    #[test]
    fn cooldown_counts_judged_windows_since_the_last_change() {
        let mut t = PhaseTracker::new(1_000_000, 2);
        t.judge(&[1, 0]);
        // The first phase is never suppressed; the next two judged
        // windows are, however far they drift.
        assert_eq!(t.judge(&[0, 1]), Verdict::Cooldown(0));
        assert_eq!(t.judge(&[0, 0]), Verdict::Empty, "not counted");
        assert_eq!(t.judge(&[0, 1]), Verdict::Cooldown(0));
        assert_eq!(t.judge(&[0, 1]), Verdict::Changed(Some(0)));
        assert_eq!(t.judge(&[1, 0]), Verdict::Cooldown(0));
    }
}
