//! The hardware-managed-TLB detection mechanism (Section IV-B, Figure 1b).
//!
//! x86-style TLBs are invisible to the OS, so the paper proposes a minor
//! hardware addition — an instruction that reads TLB contents — plus a
//! periodic interrupt. On each interrupt the kernel dumps every TLB and
//! compares **all pairs** of them set by set, incrementing the
//! communication matrix once per page resident in both.
//!
//! The engine drives the period (`SimConfig::tick_period`, the paper's
//! n = 10,000,000 cycles); this hook only does the comparison and reports
//! its cost, which is Θ(P²·S) for set-associative TLBs — the expensive side
//! of Table I.

use crate::matrix::CommMatrix;
use crate::overhead;
use tlbmap_mem::{Tlb, Vpn};
use tlbmap_obs::{Mechanism, Recorder};
use tlbmap_sim::{SimHooks, TlbView};

/// HM detector parameters.
///
/// Simulated runs are orders of magnitude shorter than the real executions
/// the paper measures, so experiments often *fire* the interrupt more often
/// than the deployment period to collect a comparable number of searches.
/// The overhead charged per search is scaled by `actual / nominal` so the
/// overhead **fraction** of execution time stays the deployment value
/// (routine cost / nominal period, < 0.85% in the paper) rather than
/// ballooning with the compressed timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmConfig {
    /// Deployment interrupt period (the paper's n = 10,000,000 cycles).
    pub nominal_period_cycles: u64,
    /// Period the engine actually fires `on_tick` at (its `tick_period`).
    pub actual_period_cycles: u64,
}

impl HmConfig {
    /// Paper configuration: a search every 10 million cycles, charged at
    /// full routine cost.
    pub const fn paper_default() -> Self {
        HmConfig {
            nominal_period_cycles: 10_000_000,
            actual_period_cycles: 10_000_000,
        }
    }

    /// Fire every `actual` cycles while modelling the paper's 10M-cycle
    /// deployment overhead fraction.
    pub const fn scaled(actual: u64) -> Self {
        HmConfig {
            nominal_period_cycles: 10_000_000,
            actual_period_cycles: actual,
        }
    }

    /// Fire and charge at the same period (full-cost model).
    pub const fn full_cost(period: u64) -> Self {
        HmConfig {
            nominal_period_cycles: period,
            actual_period_cycles: period,
        }
    }

    fn scale_cost(&self, cycles: u64) -> u64 {
        if self.actual_period_cycles >= self.nominal_period_cycles {
            return cycles;
        }
        let scaled = (cycles as f64 * self.actual_period_cycles as f64
            / self.nominal_period_cycles as f64)
            .round() as u64;
        scaled.max(1)
    }
}

/// The hardware-managed-TLB communication detector.
#[derive(Debug, Clone)]
pub struct HmDetector {
    config: HmConfig,
    matrix: CommMatrix,
    searches_run: u64,
    matches_found: u64,
    recorder: Recorder,
    /// Per-core scratch: sorted VPNs of each TLB set, rebuilt at the start
    /// of every search and reused across searches to avoid reallocation.
    /// Sorting once per core lets every pair comparison run as a linear
    /// merge instead of a nested scan.
    snaps: Vec<Vec<Vec<u64>>>,
}

impl HmDetector {
    /// Detector for `n_threads` threads.
    pub fn new(n_threads: usize, config: HmConfig) -> Self {
        HmDetector {
            config,
            matrix: CommMatrix::new(n_threads),
            searches_run: 0,
            matches_found: 0,
            recorder: Recorder::disabled(),
            snaps: Vec::new(),
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

    /// Interrupts that ran the all-pairs search.
    pub fn searches_run(&self) -> u64 {
        self.searches_run
    }

    /// Matches recorded into the matrix.
    pub fn matches_found(&self) -> u64 {
        self.matches_found
    }

    /// Compare every pair of TLBs in `view`, recording matches. Public so
    /// tools can drive a search outside the engine. Returns the number of
    /// entry comparisons the modelled routine performs — this feeds the
    /// cycle cost and is *not* reduced by the shortcuts below, which only
    /// cut the simulator's own work.
    ///
    /// Same geometry: matching pages live in the same set index, so sets
    /// are compared pairwise — by 64-bit signature AND first (an O(1)
    /// proof of disjointness), then a linear merge of the sorted
    /// snapshots, Θ(w) instead of the nested Θ(w²) scan. Differing
    /// geometries index the same VPN into *different* sets, so each of
    /// A's entries probes the set it indexes in B.
    pub fn search_all_pairs(&mut self, view: &TlbView<'_>) -> u64 {
        self.searches_run += 1;
        let p = view.num_cores();
        self.rebuild_snapshots(view);
        let mut comparisons = 0u64;
        for a in 0..p {
            let ta = match view.thread_on(a) {
                Some(t) => t,
                None => continue,
            };
            for b in (a + 1)..p {
                let tb = match view.thread_on(b) {
                    Some(t) => t,
                    None => continue,
                };
                let tlb_a = view.tlb(a);
                let tlb_b = view.tlb(b);
                if tlb_a.config().sets() == tlb_b.config().sets() {
                    for set in 0..tlb_a.config().sets() {
                        let na = tlb_a.set_len(set) as u64;
                        let nb = tlb_b.set_len(set) as u64;
                        // The routine compares every pair of valid entries.
                        comparisons += na * nb;
                        if na == 0 || nb == 0 {
                            continue;
                        }
                        if tlb_a.set_signature(set) & tlb_b.set_signature(set) == 0 {
                            continue;
                        }
                        let sa = &self.snaps[a][set];
                        let sb = &self.snaps[b][set];
                        let (mut i, mut j) = (0, 0);
                        while i < sa.len() && j < sb.len() {
                            match sa[i].cmp(&sb[j]) {
                                std::cmp::Ordering::Less => i += 1,
                                std::cmp::Ordering::Greater => j += 1,
                                std::cmp::Ordering::Equal => {
                                    self.matrix.record(ta, tb);
                                    self.recorder.record_matrix_inc(ta, tb, 1);
                                    self.matches_found += 1;
                                    i += 1;
                                    j += 1;
                                }
                            }
                        }
                    }
                } else {
                    for set_vpns in &self.snaps[a] {
                        for &vpn in set_vpns {
                            let set_b = tlb_b.set_index(Vpn(vpn));
                            comparisons += tlb_b.set_len(set_b) as u64;
                            if tlb_b.set_signature(set_b) & Tlb::signature_bit(Vpn(vpn)) == 0 {
                                continue;
                            }
                            if self.snaps[b][set_b].binary_search(&vpn).is_ok() {
                                self.matrix.record(ta, tb);
                                self.recorder.record_matrix_inc(ta, tb, 1);
                                self.matches_found += 1;
                            }
                        }
                    }
                }
            }
        }
        comparisons
    }

    /// Rebuild the per-core sorted-VPN snapshots for the cores that
    /// participate in this search.
    fn rebuild_snapshots(&mut self, view: &TlbView<'_>) {
        let p = view.num_cores();
        if self.snaps.len() < p {
            self.snaps.resize_with(p, Vec::new);
        }
        for c in 0..p {
            if view.thread_on(c).is_none() {
                continue;
            }
            let tlb = view.tlb(c);
            let sets = tlb.config().sets();
            let snap = &mut self.snaps[c];
            snap.resize_with(sets, Vec::new);
            for (set, buf) in snap.iter_mut().enumerate() {
                buf.clear();
                buf.extend(tlb.set_entries(set).map(|e| e.vpn.0));
                buf.sort_unstable();
            }
        }
    }

    /// The pre-optimization search, kept as the oracle for the property
    /// test: every entry of A probes the set it indexes in B, with plain
    /// nested loops and no signatures. Must stay behaviourally identical
    /// to [`HmDetector::search_all_pairs`] (matrix, match count, and
    /// comparison count).
    #[cfg(test)]
    fn search_all_pairs_naive(&mut self, view: &TlbView<'_>) -> u64 {
        self.searches_run += 1;
        let p = view.num_cores();
        let mut comparisons = 0u64;
        for a in 0..p {
            let ta = match view.thread_on(a) {
                Some(t) => t,
                None => continue,
            };
            for b in (a + 1)..p {
                let tb = match view.thread_on(b) {
                    Some(t) => t,
                    None => continue,
                };
                let tlb_a = view.tlb(a);
                let tlb_b = view.tlb(b);
                for ea in tlb_a.entries() {
                    let set_b = tlb_b.set_index(ea.vpn);
                    for eb in tlb_b.set_entries(set_b) {
                        comparisons += 1;
                        if ea.vpn == eb.vpn {
                            self.matrix.record(ta, tb);
                            self.recorder.record_matrix_inc(ta, tb, 1);
                            self.matches_found += 1;
                        }
                    }
                }
            }
        }
        comparisons
    }
}

impl SimHooks for HmDetector {
    /// Observes the periodic tick only, never individual accesses.
    fn is_inert(&self) -> bool {
        true
    }

    fn on_tick(&mut self, _now: u64, view: &TlbView<'_>) -> u64 {
        // The periodic interrupt is machine-wide; its cost is charged to
        // whichever core the engine interrupted, but the trace attributes
        // it to core 0 (the kernel's bookkeeping CPU).
        self.recorder.record_search_start(Mechanism::Hm, 0);
        let matches_before = self.matches_found;
        let comparisons = self.search_all_pairs(view);
        let cost = self
            .config
            .scale_cost(overhead::hm_search_cycles(comparisons));
        self.recorder.record_search_end(
            Mechanism::Hm,
            0,
            comparisons,
            self.matches_found - matches_before,
            cost,
        );
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tlbmap_mem::{Mmu, MmuConfig, PageGeometry, PageTable, VirtAddr};
    use tlbmap_sim::TlbView;

    fn make_mmus(n: usize) -> (Vec<Mmu>, PageTable) {
        let geo = PageGeometry::new_4k();
        (
            (0..n)
                .map(|_| Mmu::new(MmuConfig::paper_hardware_managed(), geo))
                .collect(),
            PageTable::new(geo),
        )
    }

    fn touch(mmus: &mut [Mmu], pt: &mut PageTable, core: usize, page: u64) {
        mmus[core].translate(VirtAddr(page * 4096), pt);
    }

    #[test]
    fn finds_all_shared_pages_across_pairs() {
        let (mut mmus, mut pt) = make_mmus(4);
        // Pages 1,2 shared by cores 0-1; page 3 shared by cores 2-3.
        touch(&mut mmus, &mut pt, 0, 1);
        touch(&mut mmus, &mut pt, 0, 2);
        touch(&mut mmus, &mut pt, 1, 1);
        touch(&mut mmus, &mut pt, 1, 2);
        touch(&mut mmus, &mut pt, 2, 3);
        touch(&mut mmus, &mut pt, 3, 3);
        let threads: Vec<Option<usize>> = (0..4).map(Some).collect();
        let view = TlbView::new(&mmus, &threads);
        let mut det = HmDetector::new(4, HmConfig::paper_default());
        det.search_all_pairs(&view);
        assert_eq!(det.matrix().get(0, 1), 2);
        assert_eq!(det.matrix().get(2, 3), 1);
        assert_eq!(det.matrix().get(0, 2), 0);
        assert_eq!(det.matches_found(), 3);
    }

    #[test]
    fn idle_cores_skipped() {
        let (mut mmus, mut pt) = make_mmus(2);
        touch(&mut mmus, &mut pt, 0, 1);
        touch(&mut mmus, &mut pt, 1, 1);
        let threads = vec![Some(0), None];
        let view = TlbView::new(&mmus, &threads);
        let mut det = HmDetector::new(1, HmConfig::paper_default());
        let comparisons = det.search_all_pairs(&view);
        assert_eq!(comparisons, 0);
        assert_eq!(det.matrix().total(), 0);
    }

    #[test]
    fn tick_charges_paper_cost_when_tlbs_full() {
        // Fill all 8 TLBs completely: 64 entries each, 4 ways × 16 sets.
        let (mut mmus, mut pt) = make_mmus(8);
        for core in 0..8 {
            for page in 0..64 {
                touch(&mut mmus, &mut pt, core, page);
            }
        }
        let threads: Vec<Option<usize>> = (0..8).map(Some).collect();
        let view = TlbView::new(&mmus, &threads);
        let mut det = HmDetector::new(8, HmConfig::paper_default());
        let cost = det.on_tick(0, &view);
        // 28 pairs × 16 sets × 4×4 comparisons = 7168 comparisons → the
        // paper's 84,297-cycle routine.
        assert_eq!(cost, 84_297);
        assert_eq!(det.searches_run(), 1);
    }

    #[test]
    fn pairwise_search_is_symmetric_in_matrix() {
        let (mut mmus, mut pt) = make_mmus(3);
        touch(&mut mmus, &mut pt, 0, 9);
        touch(&mut mmus, &mut pt, 2, 9);
        let threads: Vec<Option<usize>> = (0..3).map(Some).collect();
        let view = TlbView::new(&mmus, &threads);
        let mut det = HmDetector::new(3, HmConfig::paper_default());
        det.search_all_pairs(&view);
        assert!(det.matrix().invariants_hold());
        assert_eq!(det.matrix().get(0, 2), det.matrix().get(2, 0));
    }

    #[test]
    fn mixed_geometries_still_find_shared_pages() {
        use tlbmap_mem::TlbConfig;
        let geo = PageGeometry::new_4k();
        // Core 0: 64-entry 4-way (16 sets); core 1: 8-entry 4-way (2 sets).
        // VPN 5 indexes set 5 on core 0 but set 1 on core 1 — the old
        // min-sets loop never scanned set 5 of core 0 and dropped the match.
        let mk = |entries, ways| {
            Mmu::new(
                MmuConfig {
                    tlb: TlbConfig { entries, ways },
                    ..MmuConfig::paper_hardware_managed()
                },
                geo,
            )
        };
        let mut mmus = vec![mk(64, 4), mk(8, 4)];
        let mut pt = PageTable::new(geo);
        touch(&mut mmus, &mut pt, 0, 5);
        touch(&mut mmus, &mut pt, 1, 5);
        let threads = vec![Some(0), Some(1)];
        let view = TlbView::new(&mmus, &threads);
        let mut det = HmDetector::new(2, HmConfig::paper_default());
        let comparisons = det.search_all_pairs(&view);
        assert_eq!(det.matrix().get(0, 1), 1, "cross-geometry match dropped");
        assert_eq!(det.matches_found(), 1);
        // One entry in A probing a one-entry set in B.
        assert_eq!(comparisons, 1);
    }

    proptest! {
        /// The signature/merge search is behaviourally identical to the
        /// naive probe oracle on random TLB states: mixed geometries,
        /// partially-filled sets, and idle cores included.
        #[test]
        fn search_matches_naive_oracle_on_random_states(
            cores in prop::collection::vec(
                (0usize..5, prop::collection::vec(0u64..48, 0..40), prop::bool::weighted(0.2)),
                2..6,
            ),
        ) {
            use tlbmap_mem::TlbConfig;
            let geo = PageGeometry::new_4k();
            // (entries, ways) pairs with power-of-two set counts, mixed sizes.
            let geometries = [(64usize, 4usize), (16, 4), (8, 4), (8, 2), (4, 4)];
            let mut mmus = Vec::new();
            let mut threads = Vec::new();
            let mut pt = PageTable::new(geo);
            for (i, (g, pages, idle)) in cores.iter().enumerate() {
                let (entries, ways) = geometries[*g];
                let mut mmu = Mmu::new(
                    MmuConfig {
                        tlb: TlbConfig { entries, ways },
                        ..MmuConfig::paper_hardware_managed()
                    },
                    geo,
                );
                for &p in pages {
                    mmu.translate(VirtAddr(p * 4096), &mut pt);
                }
                mmus.push(mmu);
                threads.push(if *idle { None } else { Some(i) });
            }
            let view = TlbView::new(&mmus, &threads);
            let n = mmus.len();
            let mut fast = HmDetector::new(n, HmConfig::paper_default());
            let mut naive = HmDetector::new(n, HmConfig::paper_default());
            let c_fast = fast.search_all_pairs(&view);
            let c_naive = naive.search_all_pairs_naive(&view);
            prop_assert_eq!(c_fast, c_naive);
            prop_assert_eq!(fast.matrix(), naive.matrix());
            prop_assert_eq!(fast.matches_found(), naive.matches_found());
            // Repeat on the same view: snapshot reuse must not go stale.
            let c_fast2 = fast.search_all_pairs(&view);
            prop_assert_eq!(c_fast2, c_naive);
        }
    }

    #[test]
    fn repeated_ticks_accumulate() {
        let (mut mmus, mut pt) = make_mmus(2);
        touch(&mut mmus, &mut pt, 0, 4);
        touch(&mut mmus, &mut pt, 1, 4);
        let threads = vec![Some(0), Some(1)];
        let view = TlbView::new(&mmus, &threads);
        let mut det = HmDetector::new(2, HmConfig::paper_default());
        det.on_tick(0, &view);
        det.on_tick(10_000_000, &view);
        assert_eq!(det.matrix().get(0, 1), 2);
        assert_eq!(det.searches_run(), 2);
    }
}
