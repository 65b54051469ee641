//! The software-managed-TLB detection mechanism (Section IV-A, Figure 1a).
//!
//! Every TLB miss already traps to the OS on a software-managed
//! architecture, so the detector rides along for free:
//!
//! ```text
//! TLB miss
//!   ├─ counter < threshold?  → counter += 1, return        (cheap path)
//!   └─ else                  → counter = 0,
//!                              search the missing VPN in every *other*
//!                              core's TLB mirror (same set only),
//!                              matrix[me][them] += 1 per match
//! ```
//!
//! With a set-associative TLB only the ways of one set are compared per
//! remote core, so the search is Θ(P) — the key line of the paper's Table I.

use crate::matrix::CommMatrix;
use crate::overhead;
use tlbmap_mem::Vpn;
use tlbmap_obs::{Mechanism, Recorder};
use tlbmap_sim::{AccessKind, SimHooks, TlbView};

/// SM detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmConfig {
    /// Run the search on one out of `sample_threshold` TLB misses. The
    /// paper uses 100 (1% sampling, Table I: n = 100).
    pub sample_threshold: u32,
}

impl SmConfig {
    /// Paper configuration: search every 100th miss.
    pub const fn paper_default() -> Self {
        SmConfig {
            sample_threshold: 100,
        }
    }

    /// Search on every miss (the "all TLB misses" variant of Section VI-A).
    pub const fn every_miss() -> Self {
        SmConfig {
            sample_threshold: 1,
        }
    }
}

/// The software-managed-TLB communication detector.
#[derive(Debug, Clone)]
pub struct SmDetector {
    config: SmConfig,
    matrix: CommMatrix,
    counter: u32,
    misses_seen: u64,
    searches_run: u64,
    matches_found: u64,
    recorder: Recorder,
}

impl SmDetector {
    /// Detector for `n_threads` threads.
    ///
    /// # Panics
    /// Panics if the sampling threshold is zero.
    pub fn new(n_threads: usize, config: SmConfig) -> Self {
        assert!(
            config.sample_threshold >= 1,
            "sample threshold must be >= 1"
        );
        SmDetector {
            config,
            matrix: CommMatrix::new(n_threads),
            counter: 0,
            misses_seen: 0,
            searches_run: 0,
            matches_found: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Report search costs and matrix increments to `rec`.
    #[must_use]
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// The communication matrix accumulated so far.
    pub fn matrix(&self) -> &CommMatrix {
        &self.matrix
    }

    /// Take the matrix out, resetting the accumulation (windowed use).
    pub fn take_matrix(&mut self) -> CommMatrix {
        let n = self.matrix.num_threads();
        std::mem::replace(&mut self.matrix, CommMatrix::new(n))
    }

    /// TLB misses observed (sampled or not) — Table III's denominator.
    pub fn misses_seen(&self) -> u64 {
        self.misses_seen
    }

    /// Searches actually executed — Table III's "TLB misses for which we
    /// run SM" numerator.
    pub fn searches_run(&self) -> u64 {
        self.searches_run
    }

    /// Matches recorded into the matrix.
    pub fn matches_found(&self) -> u64 {
        self.matches_found
    }

    /// Fraction of misses that triggered a search.
    pub fn sampled_fraction(&self) -> f64 {
        if self.misses_seen == 0 {
            0.0
        } else {
            self.searches_run as f64 / self.misses_seen as f64
        }
    }
}

impl SimHooks for SmDetector {
    /// Observes TLB misses only, never individual accesses.
    fn is_inert(&self) -> bool {
        true
    }

    fn on_tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        view: &TlbView<'_>,
    ) -> u64 {
        // Only data misses are of interest (§VI-C): instruction pages are
        // shared by every thread and would pollute the matrix with noise.
        if kind == AccessKind::Instr {
            return 0;
        }
        self.misses_seen += 1;
        // Figure 1a: the counter gate.
        if self.counter + 1 < self.config.sample_threshold {
            self.counter += 1;
            return 0;
        }
        self.counter = 0;
        self.searches_run += 1;
        self.recorder.record_search_start(Mechanism::Sm, core);

        // Search every *other* core's TLB for the missing page. Only the
        // set the VPN indexes needs scanning (set-associative shortcut);
        // the modelled routine compares every valid entry of that set, so
        // the cost counts the set's occupancy even though `contains` can
        // answer from the set's signature without scanning.
        let mut entries_compared = 0u64;
        let mut matches_here = 0u64;
        for other in 0..view.num_cores() {
            if other == core {
                continue;
            }
            let tlb = view.tlb(other);
            entries_compared += tlb.set_len(tlb.set_index(vpn)) as u64;
            if tlb.contains(vpn) {
                if let Some(other_thread) = view.thread_on(other) {
                    self.matrix.record(thread, other_thread);
                    self.recorder.record_matrix_inc(thread, other_thread, 1);
                    matches_here += 1;
                }
            }
        }
        self.matches_found += matches_here;
        let cost = overhead::sm_search_cycles(entries_compared);
        self.recorder
            .record_search_end(Mechanism::Sm, core, entries_compared, matches_here, cost);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_mem::{Mmu, MmuConfig, PageGeometry, PageTable, VirtAddr};

    fn make_mmus(n: usize) -> (Vec<Mmu>, PageTable) {
        let geo = PageGeometry::new_4k();
        (
            (0..n)
                .map(|_| Mmu::new(MmuConfig::paper_software_managed(), geo))
                .collect(),
            PageTable::new(geo),
        )
    }

    fn touch(mmus: &mut [Mmu], pt: &mut PageTable, core: usize, page: u64) {
        mmus[core].translate(VirtAddr(page * 4096), pt);
    }

    #[test]
    fn detects_shared_page() {
        let (mut mmus, mut pt) = make_mmus(4);
        // Cores 1 and 2 already have page 7 resident.
        touch(&mut mmus, &mut pt, 1, 7);
        touch(&mut mmus, &mut pt, 2, 7);
        let threads: Vec<Option<usize>> = vec![Some(0), Some(1), Some(2), Some(3)];
        let view = TlbView::new(&mmus, &threads);
        let mut det = SmDetector::new(4, SmConfig::every_miss());
        let cost = det.on_tlb_miss(0, 0, Vpn(7), AccessKind::Data, &view);
        assert!(cost > 0);
        assert_eq!(det.matrix().get(0, 1), 1);
        assert_eq!(det.matrix().get(0, 2), 1);
        assert_eq!(det.matrix().get(0, 3), 0);
        assert_eq!(det.matches_found(), 2);
    }

    #[test]
    fn sampling_gate_skips_most_misses() {
        let (mmus, _pt) = make_mmus(2);
        let threads = vec![Some(0), Some(1)];
        let view = TlbView::new(&mmus, &threads);
        let mut det = SmDetector::new(
            2,
            SmConfig {
                sample_threshold: 10,
            },
        );
        let mut charged = 0u64;
        for _ in 0..100 {
            charged += det
                .on_tlb_miss(0, 0, Vpn(3), AccessKind::Data, &view)
                .min(1);
        }
        assert_eq!(det.misses_seen(), 100);
        assert_eq!(det.searches_run(), 10);
        // Searches on an empty remote TLB compare 0 entries but still cost
        // the fixed part, so they are charged.
        assert_eq!(charged, 10);
        assert!((det.sampled_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn own_tlb_not_searched() {
        let (mut mmus, mut pt) = make_mmus(2);
        // Only the faulting core itself has the page (re-fault after
        // invalidation scenario) — must not self-match.
        touch(&mut mmus, &mut pt, 0, 9);
        let threads = vec![Some(0), Some(1)];
        let view = TlbView::new(&mmus, &threads);
        let mut det = SmDetector::new(2, SmConfig::every_miss());
        det.on_tlb_miss(0, 0, Vpn(9), AccessKind::Data, &view);
        assert_eq!(det.matrix().total(), 0);
    }

    #[test]
    fn idle_core_match_not_recorded() {
        let (mut mmus, mut pt) = make_mmus(2);
        touch(&mut mmus, &mut pt, 1, 5);
        let threads = vec![Some(0), None]; // core 1 idle (stale entries)
        let view = TlbView::new(&mmus, &threads);
        let mut det = SmDetector::new(1, SmConfig::every_miss());
        det.on_tlb_miss(0, 0, Vpn(5), AccessKind::Data, &view);
        assert_eq!(det.matrix().total(), 0);
    }

    #[test]
    fn search_cost_matches_paper_for_8_core_4way() {
        // 7 remote TLBs × 4 ways compared (full sets) = 28 entries → the
        // paper's 231-cycle routine.
        let (mut mmus, mut pt) = make_mmus(8);
        // Fill the set that VPN 0 maps to in all remote TLBs. With 16 sets,
        // VPNs 0, 16, 32, 48 share set 0.
        for core in 1..8 {
            for k in 0..4 {
                touch(&mut mmus, &mut pt, core, k * 16);
            }
        }
        let threads: Vec<Option<usize>> = (0..8).map(Some).collect();
        let view = TlbView::new(&mmus, &threads);
        let mut det = SmDetector::new(8, SmConfig::every_miss());
        let cost = det.on_tlb_miss(0, 0, Vpn(0), AccessKind::Data, &view);
        assert_eq!(cost, 231);
    }

    #[test]
    fn take_matrix_resets() {
        let (mut mmus, mut pt) = make_mmus(2);
        touch(&mut mmus, &mut pt, 1, 5);
        let threads = vec![Some(0), Some(1)];
        let view = TlbView::new(&mmus, &threads);
        let mut det = SmDetector::new(2, SmConfig::every_miss());
        det.on_tlb_miss(0, 0, Vpn(5), AccessKind::Data, &view);
        let m = det.take_matrix();
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(det.matrix().total(), 0);
    }

    #[test]
    fn instruction_misses_are_ignored() {
        let (mut mmus, mut pt) = make_mmus(2);
        touch(&mut mmus, &mut pt, 1, 5);
        let threads = vec![Some(0), Some(1)];
        let view = TlbView::new(&mmus, &threads);
        let mut det = SmDetector::new(2, SmConfig::every_miss());
        let cost = det.on_tlb_miss(0, 0, Vpn(5), AccessKind::Instr, &view);
        assert_eq!(cost, 0, "instruction misses must not trigger a search");
        assert_eq!(det.misses_seen(), 0);
        assert_eq!(det.matrix().total(), 0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        SmDetector::new(
            2,
            SmConfig {
                sample_threshold: 0,
            },
        );
    }
}
