//! Ground-truth communication detection by full memory tracing.
//!
//! This is the expensive mechanism of the related work the paper positions
//! itself against (Barrow-Williams et al. \[7\], Cruz et al. \[10\], Diener et
//! al. \[11\]): record *every* memory access and derive page-level sharing
//! from the trace. We use it as the accuracy reference for the SM/HM
//! detectors (Section VI-A judges their patterns qualitatively; `metrics`
//! makes the comparison quantitative).
//!
//! To avoid the *false communication* problem of Section III-B (threads that
//! touch the same page far apart in time are not communicating), an access
//! by thread `t` to page `p` counts as communication with thread `u` only
//! if `u` touched `p` within the last `window` accesses.

use crate::matrix::CommMatrix;
use std::collections::HashMap;
use tlbmap_mem::{PageGeometry, VirtAddr, Vpn};
use tlbmap_obs::Recorder;
use tlbmap_sim::{MemOp, SimHooks};

/// Ground-truth detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruthConfig {
    /// Page geometry used to bucket addresses.
    pub geometry: PageGeometry,
    /// Temporal window in accesses: a co-access older than this is treated
    /// as false communication and ignored.
    pub window: u64,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        GroundTruthConfig {
            geometry: PageGeometry::new_4k(),
            window: 100_000,
        }
    }
}

/// Full-trace, page-granular communication detector.
#[derive(Debug, Clone)]
pub struct GroundTruthDetector {
    config: GroundTruthConfig,
    matrix: CommMatrix,
    /// Per page: per thread, the logical time of its last access.
    last_access: HashMap<Vpn, Vec<Option<u64>>>,
    now: u64,
    n_threads: usize,
    recorder: Recorder,
}

impl GroundTruthDetector {
    /// Detector for `n_threads` threads.
    pub fn new(n_threads: usize, config: GroundTruthConfig) -> Self {
        GroundTruthDetector {
            config,
            matrix: CommMatrix::new(n_threads),
            last_access: HashMap::new(),
            now: 0,
            n_threads,
            recorder: Recorder::disabled(),
        }
    }

    /// Report matrix increments to `rec`.
    #[must_use]
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Swap the observability sink in place.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.recorder = rec;
    }

    /// The accumulated communication matrix.
    pub fn matrix(&self) -> &CommMatrix {
        &self.matrix
    }

    /// Total accesses observed.
    pub fn accesses_seen(&self) -> u64 {
        self.now
    }

    /// Number of distinct pages touched.
    pub fn pages_seen(&self) -> usize {
        self.last_access.len()
    }

    /// Record one access (public so traces can be replayed without the
    /// engine).
    pub fn observe(&mut self, thread: usize, vaddr: VirtAddr) {
        self.now += 1;
        let vpn = vaddr.vpn(self.config.geometry);
        let slots = self
            .last_access
            .entry(vpn)
            .or_insert_with(|| vec![None; self.n_threads]);
        for (u, slot) in slots.iter_enumerate_mut() {
            if u == thread {
                continue;
            }
            if let Some(t) = *slot {
                if self.now - t <= self.config.window {
                    self.matrix.record(thread, u);
                    self.recorder.record_matrix_inc(thread, u, 1);
                }
            }
        }
        slots[thread] = Some(self.now);
    }
}

/// Tiny helper so the loop above reads naturally.
trait IterEnumerateMut<T> {
    fn iter_enumerate_mut(&mut self) -> std::iter::Enumerate<std::slice::IterMut<'_, T>>;
}

impl<T> IterEnumerateMut<T> for Vec<T> {
    fn iter_enumerate_mut(&mut self) -> std::iter::Enumerate<std::slice::IterMut<'_, T>> {
        self.iter_mut().enumerate()
    }
}

impl SimHooks for GroundTruthDetector {
    fn on_access(&mut self, _core: usize, thread: usize, vaddr: VirtAddr, _op: MemOp) {
        self.observe(thread, vaddr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u64) -> VirtAddr {
        VirtAddr(i * 4096)
    }

    #[test]
    fn co_access_within_window_counts() {
        let mut d = GroundTruthDetector::new(2, GroundTruthConfig::default());
        d.observe(0, page(5));
        d.observe(1, page(5));
        assert_eq!(d.matrix().get(0, 1), 1);
    }

    #[test]
    fn distant_co_access_is_false_communication() {
        let mut d = GroundTruthDetector::new(
            3,
            GroundTruthConfig {
                geometry: PageGeometry::new_4k(),
                window: 5,
            },
        );
        d.observe(0, page(5));
        // Thread 2 generates 10 unrelated accesses, aging thread 0's touch
        // beyond the window.
        for i in 0..10 {
            d.observe(2, page(100 + i));
        }
        d.observe(1, page(5));
        assert_eq!(d.matrix().get(0, 1), 0, "stale co-access must not count");
    }

    #[test]
    fn same_page_different_offsets_count() {
        // Page-granularity: false sharing inside a page still counts, as the
        // paper states ("any access to the same memory page is considered
        // as communication, regardless of the offset").
        let mut d = GroundTruthDetector::new(2, GroundTruthConfig::default());
        d.observe(0, VirtAddr(4096));
        d.observe(1, VirtAddr(4096 + 64));
        assert_eq!(d.matrix().get(0, 1), 1);
    }

    #[test]
    fn private_pages_yield_no_communication() {
        let mut d = GroundTruthDetector::new(2, GroundTruthConfig::default());
        for i in 0..50 {
            d.observe(0, page(i));
            d.observe(1, page(1000 + i));
        }
        assert_eq!(d.matrix().total(), 0);
        assert_eq!(d.pages_seen(), 100);
    }

    #[test]
    fn self_accesses_do_not_count() {
        let mut d = GroundTruthDetector::new(2, GroundTruthConfig::default());
        d.observe(0, page(1));
        d.observe(0, page(1));
        d.observe(0, page(1));
        assert_eq!(d.matrix().total(), 0);
    }

    #[test]
    fn repeated_sharing_accumulates() {
        let mut d = GroundTruthDetector::new(2, GroundTruthConfig::default());
        for _ in 0..10 {
            d.observe(0, page(7));
            d.observe(1, page(7));
        }
        assert_eq!(d.matrix().get(0, 1), 19); // first access has no partner
    }
}
