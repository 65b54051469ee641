//! Exponentially decayed sliding-window communication matrix.
//!
//! The streaming session subsystem in `tlbmap-serve` ingests sparse
//! [`CommMatrix`] deltas from a long-running tenant. Between deltas the
//! observed pattern must *age*: communication seen many windows ago should
//! count less than communication seen just now, otherwise a phase change
//! is drowned by history and the drift judge never fires.
//!
//! [`DecayedMatrix`] implements the classic exponential moving window with
//! **saturating integer arithmetic only** — `v -= v >> shift` then a
//! saturating add of the incoming delta. No floats are involved, so two
//! replicas fed the same delta sequence hold byte-identical windows (the
//! same determinism contract the detectors and the flight recorder keep).
//!
//! With decay shift `s`, each round keeps a fraction `1 - 2^-s` of the old
//! mass: `s = 1` halves history every delta (fast tracking), `s = 4` keeps
//! 93.75% (smooth, slow tracking). `s = 0` is the degenerate memoryless
//! window — every delta fully replaces the last.

use crate::matrix::CommMatrix;

/// A [`CommMatrix`] whose cells decay exponentially as deltas stream in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecayedMatrix {
    window: CommMatrix,
    shift: u32,
}

impl DecayedMatrix {
    /// An all-zero window for `n` threads with decay shift `shift`
    /// (shifts above 63 are clamped — `v >> 64` is UB-adjacent and a
    /// shift of 63 already keeps effectively all history).
    pub fn new(n: usize, shift: u32) -> Self {
        DecayedMatrix {
            window: CommMatrix::new(n),
            shift: shift.min(63),
        }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.window.num_threads()
    }

    /// The current window as a plain matrix (what the mapper consumes).
    pub fn window(&self) -> &CommMatrix {
        &self.window
    }

    /// Age the window one round, then accumulate `delta` (saturating).
    ///
    /// # Panics
    /// Panics if `delta` is sized for a different thread count.
    pub fn ingest(&mut self, delta: &CommMatrix) {
        assert_eq!(
            self.window.num_threads(),
            delta.num_threads(),
            "delta sized for {} threads, window holds {}",
            delta.num_threads(),
            self.window.num_threads()
        );
        let n = self.window.num_threads();
        let mut next = CommMatrix::new(n);
        for (i, j, v) in self.window.pairs() {
            let aged = if self.shift == 0 {
                0
            } else {
                v - (v >> self.shift)
            };
            let cell = aged.saturating_add(delta.get(i, j));
            if cell != 0 {
                next.add(i, j, cell);
            }
        }
        self.window = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_obs::drift::cosine_u64;

    fn delta(n: usize, cells: &[(usize, usize, u64)]) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for &(i, j, v) in cells {
            m.add(i, j, v);
        }
        m
    }

    #[test]
    fn shift_one_halves_history_each_round() {
        let mut w = DecayedMatrix::new(4, 1);
        w.ingest(&delta(4, &[(0, 1, 1000)]));
        assert_eq!(w.window().get(0, 1), 1000);
        w.ingest(&CommMatrix::new(4));
        assert_eq!(w.window().get(0, 1), 500);
        w.ingest(&CommMatrix::new(4));
        assert_eq!(w.window().get(0, 1), 250);
    }

    #[test]
    fn shift_zero_is_memoryless() {
        let mut w = DecayedMatrix::new(4, 0);
        w.ingest(&delta(4, &[(0, 1, 7)]));
        w.ingest(&delta(4, &[(2, 3, 9)]));
        assert_eq!(w.window().get(0, 1), 0, "previous delta fully replaced");
        assert_eq!(w.window().get(2, 3), 9);
    }

    #[test]
    fn window_tracks_a_phase_shift() {
        // Phase A: a 0-1 hot pair. Phase B: a 2-3 hot pair. After a few
        // phase-B deltas the decayed window must look like B, not A.
        let mut w = DecayedMatrix::new(4, 1);
        let a = delta(4, &[(0, 1, 100)]);
        let b = delta(4, &[(2, 3, 100)]);
        for _ in 0..8 {
            w.ingest(&a);
        }
        for _ in 0..8 {
            w.ingest(&b);
        }
        let want: Vec<u64> = b.pairs().map(|(_, _, v)| v).collect();
        let sim = cosine_u64(&w.window().upper_cells(), &want);
        assert!(sim > 0.99, "window should track phase B, cosine = {sim}");
    }

    #[test]
    fn identical_streams_produce_identical_windows() {
        let mut a = DecayedMatrix::new(8, 3);
        let mut b = DecayedMatrix::new(8, 3);
        for k in 0..32u64 {
            let d = delta(8, &[(0, 1, k * 17 + 1), ((k % 7) as usize, 7, k)]);
            a.ingest(&d);
            b.ingest(&d);
        }
        assert_eq!(a, b, "same delta stream must give a byte-identical window");
        assert_eq!(a.window().fingerprint(), b.window().fingerprint());
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut w = DecayedMatrix::new(2, 4);
        let huge = delta(2, &[(0, 1, u64::MAX)]);
        w.ingest(&huge);
        w.ingest(&huge);
        assert_eq!(w.window().get(0, 1), u64::MAX);
        assert!(w.window().invariants_hold());
    }

    #[test]
    fn oversized_shift_is_clamped() {
        let mut w = DecayedMatrix::new(2, 200);
        w.ingest(&delta(2, &[(0, 1, 1000)]));
        w.ingest(&CommMatrix::new(2));
        assert_eq!(w.window().get(0, 1), 1000, "shift 63 keeps all history");
    }

    #[test]
    #[should_panic(expected = "delta sized for")]
    fn mismatched_delta_panics() {
        let mut w = DecayedMatrix::new(4, 1);
        w.ingest(&CommMatrix::new(5));
    }
}
