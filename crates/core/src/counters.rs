//! Indirect, hardware-counter-based communication estimation — the
//! related-work baseline (Azimi et al., Section II of the paper).
//!
//! Hardware performance counters see *events per core* — cache misses,
//! remote-cache (snoop-serviced) accesses — but not which other core the
//! data came from, let alone which page. Estimators built on them must
//! infer pairwise communication from temporal correlation: cores whose
//! coherence activity spikes in the same interval are probably
//! communicating with each other.
//!
//! [`CounterEstimator`] implements that scheme: it accumulates per-thread
//! snoop-serviced access counts over fixed windows and, at each window
//! boundary, credits every thread pair with the *smaller* of their two
//! activity counts (the co-activity they could have shared). The paper's
//! critique — "hardware counters can only be used to estimate the
//! communication pattern between the threads indirectly" — is exactly what
//! the accuracy ablation shows: on heterogeneous applications this blurs
//! the structure the TLB mechanisms capture directly.

use crate::dynamic::MatrixSource;
use crate::matrix::CommMatrix;
use tlbmap_sim::{AccessOutcome, SimHooks};

/// Estimator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterConfig {
    /// Correlation window, in observed accesses.
    pub window_accesses: u64,
}

impl Default for CounterConfig {
    fn default() -> Self {
        CounterConfig {
            window_accesses: 20_000,
        }
    }
}

/// The counter-correlation estimator.
#[derive(Debug, Clone)]
pub struct CounterEstimator {
    config: CounterConfig,
    matrix: CommMatrix,
    /// Snoop-serviced accesses per thread in the current window.
    activity: Vec<u64>,
    accesses: u64,
    windows: u64,
}

impl CounterEstimator {
    /// Estimator for `n_threads` threads.
    ///
    /// # Panics
    /// Panics for a zero window.
    pub fn new(n_threads: usize, config: CounterConfig) -> Self {
        assert!(config.window_accesses > 0, "window must be positive");
        CounterEstimator {
            config,
            matrix: CommMatrix::new(n_threads),
            activity: vec![0; n_threads],
            accesses: 0,
            windows: 0,
        }
    }

    /// The estimated communication matrix.
    pub fn matrix(&self) -> &CommMatrix {
        &self.matrix
    }

    /// Windows correlated so far. Activity in a trailing partial window
    /// is not yet in the matrix; call [`CounterEstimator::flush_window`]
    /// at end of run if it should count.
    pub fn windows_closed(&self) -> u64 {
        self.windows
    }

    /// Force-close the current (partial) window.
    pub fn flush_window(&mut self) {
        if self.activity.iter().any(|&a| a > 0) {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        self.windows += 1;
        let n = self.activity.len();
        for i in 0..n {
            for j in (i + 1)..n {
                // Co-activity: the communication the pair *could* have
                // exchanged this window. All the estimator can say.
                let credit = self.activity[i].min(self.activity[j]);
                self.matrix.add(i, j, credit);
            }
        }
        self.activity.iter_mut().for_each(|a| *a = 0);
    }
}

impl MatrixSource for CounterEstimator {
    fn take_matrix(&mut self) -> CommMatrix {
        let n = self.matrix.num_threads();
        std::mem::replace(&mut self.matrix, CommMatrix::new(n))
    }
}

impl SimHooks for CounterEstimator {
    fn on_access_outcome(&mut self, _core: usize, thread: usize, outcome: &AccessOutcome) {
        if outcome.snooped {
            self.activity[thread] += 1;
        }
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.config.window_accesses) {
            self.close_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_sim::AccessOutcome;

    fn outcome(snooped: bool) -> AccessOutcome {
        AccessOutcome {
            cycles: 10,
            l1_hit: false,
            l2_hit: false,
            snooped,
        }
    }

    #[test]
    fn correlates_co_active_threads() {
        let mut e = CounterEstimator::new(
            3,
            CounterConfig {
                window_accesses: 10,
            },
        );
        // Threads 0 and 1 snoop heavily, thread 2 never.
        for i in 0..10 {
            let t = i % 2;
            e.on_access_outcome(t, t, &outcome(true));
        }
        assert_eq!(e.windows_closed(), 1);
        assert_eq!(e.matrix().get(0, 1), 5);
        assert_eq!(e.matrix().get(0, 2), 0);
        assert_eq!(e.matrix().get(1, 2), 0);
    }

    #[test]
    fn cannot_distinguish_partners_within_a_window() {
        // The estimator's fundamental blindness: four equally active
        // threads yield a homogeneous matrix even if in truth 0 only talks
        // to 1 and 2 only to 3.
        let mut e = CounterEstimator::new(4, CounterConfig { window_accesses: 8 });
        for t in 0..4 {
            e.on_access_outcome(t, t, &outcome(true));
            e.on_access_outcome(t, t, &outcome(true));
        }
        let m = e.matrix();
        assert_eq!(m.get(0, 1), m.get(0, 2), "indirect estimate is pair-blind");
        assert_eq!(m.get(0, 1), m.get(2, 3));
    }

    #[test]
    fn non_snooped_accesses_carry_no_signal() {
        let mut e = CounterEstimator::new(2, CounterConfig { window_accesses: 4 });
        for _ in 0..8 {
            e.on_access_outcome(0, 0, &outcome(false));
        }
        assert_eq!(e.windows_closed(), 2);
        assert_eq!(e.matrix().total(), 0);
    }

    #[test]
    fn matrix_source_resets() {
        let mut e = CounterEstimator::new(2, CounterConfig { window_accesses: 2 });
        e.on_access_outcome(0, 0, &outcome(true));
        e.on_access_outcome(1, 1, &outcome(true));
        assert_eq!(e.matrix().get(0, 1), 1);
        let m = e.take_matrix();
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(e.matrix().total(), 0);
    }

    #[test]
    fn flush_counts_partial_window() {
        let mut e = CounterEstimator::new(
            2,
            CounterConfig {
                window_accesses: 100,
            },
        );
        e.on_access_outcome(0, 0, &outcome(true));
        e.on_access_outcome(1, 1, &outcome(true));
        assert_eq!(e.matrix().total(), 0, "partial window not yet counted");
        e.flush_window();
        assert_eq!(e.matrix().get(0, 1), 1);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        CounterEstimator::new(2, CounterConfig { window_accesses: 0 });
    }
}
