//! A set-associative Translation Lookaside Buffer with LRU replacement.
//!
//! This is the structure both detection mechanisms observe. The paper's key
//! insight is that its *contents* — the set of recently touched pages — are a
//! cheap, hardware-maintained proxy for what a core is communicating about,
//! so this implementation deliberately exposes read-only views:
//!
//! * [`Tlb::contains`] — a non-perturbing probe (does not update LRU), used
//!   by the SM detector to search other cores' TLB mirrors,
//! * [`Tlb::set_entries`] — all valid entries of one set, used by both
//!   detectors to restrict the search to the set the address indexes
//!   (the Θ(P) / Θ(P²·S) optimization of Section IV),
//! * [`Tlb::entries`] — a full snapshot, used by the HM detector's
//!   all-pairs comparison and by fully-associative configurations.
//!
//! Replacement is true-LRU per set, driven by a monotonic access counter.

use crate::addr::{Pfn, Vpn};

/// Geometry of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total number of entries. The paper uses 64 (UltraSparc default, and
    /// the Nehalem L1 TLB size).
    pub entries: usize,
    /// Associativity. The paper uses 4-way; `ways == entries` models a fully
    /// associative TLB.
    pub ways: usize,
}

impl TlbConfig {
    /// The paper's evaluated configuration: 64 entries, 4-way.
    pub const fn paper_default() -> Self {
        TlbConfig {
            entries: 64,
            ways: 4,
        }
    }

    /// Fully associative TLB with `entries` entries.
    pub const fn fully_associative(entries: usize) -> Self {
        TlbConfig {
            entries,
            ways: entries,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }

    /// Validate the configuration.
    ///
    /// # Panics
    /// Panics if `entries` is zero, `ways` is zero, `ways > entries`,
    /// `entries` is not a multiple of `ways`, or the set count is not a
    /// power of two (required for bit-mask indexing).
    pub fn validate(&self) {
        assert!(self.entries > 0, "TLB must have at least one entry");
        assert!(self.ways > 0, "TLB associativity must be at least 1");
        assert!(
            self.ways <= self.entries,
            "associativity {} exceeds entry count {}",
            self.ways,
            self.entries
        );
        assert!(
            self.entries.is_multiple_of(self.ways),
            "entries {} not divisible by ways {}",
            self.entries,
            self.ways
        );
        let sets = self.sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
    }
}

/// One valid TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The cached virtual page number.
    pub vpn: Vpn,
    /// Its translation.
    pub pfn: Pfn,
    /// The page's dense index ([`crate::WalkResult::page`]), carried so
    /// that a hit names the page without another lookup.
    pub page: u32,
}

/// Outcome of a translating lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// Entry present with this frame and page index; LRU updated.
    Hit(Pfn, u32),
    /// Entry absent; the MMU must fill it.
    Miss,
}

/// Hit/miss counters for one TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translating lookups that hit.
    pub hits: u64,
    /// Translating lookups that missed.
    pub misses: u64,
}

impl TlbStats {
    /// Total translating lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; `0` when no accesses happened.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// [`Slot::page`] of an empty slot; the page table never hands it out.
const EMPTY: u32 = u32::MAX;

/// One way, 32 bytes: the page index doubles as the valid flag, so the
/// slot needs no `Option` tag beside it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    vpn: Vpn,
    pfn: Pfn,
    /// Monotonic timestamp of the last touch; smallest = LRU victim.
    last_use: u64,
    /// The entry's page index, or [`EMPTY`].
    page: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        vpn: Vpn(0),
        pfn: Pfn(0),
        last_use: 0,
        page: EMPTY,
    };

    #[inline]
    fn entry(&self) -> Option<TlbEntry> {
        (self.page != EMPTY).then_some(TlbEntry {
            vpn: self.vpn,
            pfn: self.pfn,
            page: self.page,
        })
    }

    /// Whether the slot holds `vpn`. The VPN compare comes first: it fails
    /// on almost every way a lookup scans.
    #[inline]
    fn holds(&self, vpn: Vpn) -> bool {
        self.vpn == vpn && self.page != EMPTY
    }

    #[inline]
    fn set(&mut self, vpn: Vpn, pfn: Pfn, page: u32, clock: u64) {
        *self = Slot {
            vpn,
            pfn,
            last_use: clock,
            page,
        };
    }
}

/// A set-associative, LRU-replaced TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// `sets() - 1`, kept so that indexing needs no divide.
    set_mask: usize,
    /// `sets() * ways` slots, set-major.
    slots: Vec<Slot>,
    clock: u64,
    stats: TlbStats,
    /// Micro-TLB: the most recently hit or inserted entry. Valid only while
    /// its slot holds the globally largest `last_use` stamp; every operation
    /// that stamps a different slot or can remove this entry refreshes or
    /// clears it. A memo hit skips the set scan *and* the LRU bookkeeping —
    /// re-stamping the globally most-recent slot cannot change any future
    /// eviction decision, so replacement behaviour is bit-identical.
    memo: Option<TlbEntry>,
    /// Per-set 64-bit occupancy signature: the OR of [`Tlb::signature_bit`]
    /// over the set's valid VPNs. Detectors use `sig_a & sig_b == 0` as an
    /// O(1) proof that two sets share no VPN.
    sigs: Vec<u64>,
    /// Per-set count of valid entries.
    lens: Vec<u32>,
}

impl Tlb {
    /// Create an empty TLB.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`TlbConfig::validate`]).
    pub fn new(config: TlbConfig) -> Self {
        config.validate();
        Tlb {
            config,
            set_mask: config.sets() - 1,
            slots: vec![Slot::EMPTY; config.entries],
            clock: 0,
            stats: TlbStats::default(),
            memo: None,
            sigs: vec![0; config.sets()],
            lens: vec![0; config.sets()],
        }
    }

    /// This TLB's geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// The set a VPN indexes into.
    #[inline]
    pub fn set_index(&self, vpn: Vpn) -> usize {
        (vpn.0 as usize) & self.set_mask
    }

    #[inline]
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let start = set * self.config.ways;
        start..start + self.config.ways
    }

    /// Translating lookup: returns the translation and updates LRU state and
    /// statistics. This is the access the core performs on every memory
    /// reference.
    ///
    /// Back-to-back accesses to the same VPN take a one-entry micro-TLB fast
    /// path that skips the set scan and LRU stamping; the observable
    /// behaviour (result, statistics, future replacement decisions) is
    /// identical to the slow path.
    #[inline]
    pub fn access(&mut self, vpn: Vpn) -> TlbLookup {
        if let Some(m) = self.memo {
            if m.vpn == vpn {
                self.stats.hits += 1;
                return TlbLookup::Hit(m.pfn, m.page);
            }
        }
        self.clock += 1;
        let range = self.set_range(self.set_index(vpn));
        for slot in &mut self.slots[range] {
            if slot.holds(vpn) {
                slot.last_use = self.clock;
                self.stats.hits += 1;
                self.memo = slot.entry();
                return TlbLookup::Hit(slot.pfn, slot.page);
            }
        }
        self.stats.misses += 1;
        TlbLookup::Miss
    }

    /// Non-perturbing probe: is `vpn` resident? Does **not** touch LRU or
    /// statistics — this is what a detector searching a TLB mirror does.
    #[inline]
    pub fn contains(&self, vpn: Vpn) -> bool {
        let set = self.set_index(vpn);
        if self.sigs[set] & Self::signature_bit(vpn) == 0 {
            return false;
        }
        let range = self.set_range(set);
        self.slots[range].iter().any(|s| s.holds(vpn))
    }

    /// Insert a translation of `vpn` to frame `pfn` and page index `page`,
    /// evicting the LRU entry of its set if full. Returns the evicted
    /// entry, if any.
    ///
    /// # Panics
    /// Panics if `page` is `u32::MAX`, which marks an empty slot.
    pub fn insert(&mut self, vpn: Vpn, pfn: Pfn, page: u32) -> Option<TlbEntry> {
        assert_ne!(page, EMPTY, "page index u32::MAX marks an empty TLB slot");
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_index(vpn);
        let range = self.set_range(set_idx);
        let set = &mut self.slots[range];
        // The inserted slot carries the globally newest stamp.
        self.memo = Some(TlbEntry { vpn, pfn, page });

        // Refresh in place if already present (can happen when a detector
        // pre-fills a mirror).
        if let Some(slot) = set.iter_mut().find(|s| s.holds(vpn)) {
            slot.set(vpn, pfn, page, clock);
            return None;
        }
        // Fill an empty way if there is one.
        if let Some(slot) = set.iter_mut().find(|s| s.page == EMPTY) {
            slot.set(vpn, pfn, page, clock);
            self.sigs[set_idx] |= Self::signature_bit(vpn);
            self.lens[set_idx] += 1;
            return None;
        }
        // Evict true-LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|s| s.last_use)
            .expect("ways >= 1 guaranteed by config validation");
        let evicted = victim.entry();
        victim.set(vpn, pfn, page, clock);
        self.recompute_signature(set_idx);
        evicted
    }

    /// Invalidate everything (context switch / full shootdown).
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.page = EMPTY;
        }
        self.memo = None;
        self.sigs.fill(0);
        self.lens.fill(0);
    }

    /// Rebuild one set's signature from its valid entries.
    fn recompute_signature(&mut self, set: usize) {
        let range = self.set_range(set);
        let sig = self.slots[range]
            .iter()
            .filter_map(Slot::entry)
            .fold(0u64, |acc, e| acc | Self::signature_bit(e.vpn));
        self.sigs[set] = sig;
    }

    /// All valid entries, set-major order. This is the snapshot the HM
    /// mechanism's hypothetical `rdtlb` instruction would return.
    pub fn entries(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        self.slots.iter().filter_map(Slot::entry)
    }

    /// Valid entries of one set — the restricted search used by the
    /// set-associative variants of both mechanisms.
    #[inline]
    pub fn set_entries(&self, set: usize) -> impl Iterator<Item = TlbEntry> + '_ {
        self.slots[self.set_range(set)]
            .iter()
            .filter_map(Slot::entry)
    }

    /// Number of valid entries in one set, without iterating it.
    #[inline]
    pub fn set_len(&self, set: usize) -> usize {
        self.lens[set] as usize
    }

    /// One set's 64-bit occupancy signature: the OR of [`Tlb::signature_bit`]
    /// over the set's valid VPNs. `a.set_signature(s) & b.set_signature(s) ==
    /// 0` proves the two sets share no VPN; a nonzero AND is inconclusive.
    #[inline]
    pub fn set_signature(&self, set: usize) -> u64 {
        self.sigs[set]
    }

    /// The signature bit a VPN contributes to its set's signature. The bit
    /// index is taken from the *high* bits of a multiplicative hash so it
    /// stays well-distributed regardless of TLB geometry (set indexing
    /// consumes the low VPN bits).
    #[inline]
    pub fn signature_bit(vpn: Vpn) -> u64 {
        1u64 << (vpn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
    }

    /// Number of valid entries currently resident.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tlb {
        // 8 entries, 2-way → 4 sets.
        Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        })
    }

    #[test]
    fn slots_stay_32_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    #[test]
    #[should_panic(expected = "marks an empty TLB slot")]
    fn the_empty_page_index_is_refused() {
        small().insert(Vpn(1), Pfn(1), EMPTY);
    }

    #[test]
    fn paper_default_geometry() {
        let c = TlbConfig::paper_default();
        assert_eq!(c.entries, 64);
        assert_eq!(c.ways, 4);
        assert_eq!(c.sets(), 16);
        c.validate();
    }

    #[test]
    fn miss_then_hit() {
        let mut t = small();
        assert_eq!(t.access(Vpn(5)), TlbLookup::Miss);
        t.insert(Vpn(5), Pfn(9), 9);
        assert_eq!(t.access(Vpn(5)), TlbLookup::Hit(Pfn(9), 9));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn contains_does_not_perturb() {
        let mut t = small();
        t.insert(Vpn(5), Pfn(9), 9);
        let before = t.stats();
        assert!(t.contains(Vpn(5)));
        assert!(!t.contains(Vpn(6)));
        assert_eq!(t.stats(), before);
    }

    #[test]
    fn lru_evicts_least_recently_used_in_set() {
        let mut t = small(); // 4 sets, 2 ways
                             // VPNs 0, 4, 8 all map to set 0.
        t.insert(Vpn(0), Pfn(0), 0);
        t.insert(Vpn(4), Pfn(1), 1);
        // Touch 0 so 4 becomes LRU.
        assert_eq!(t.access(Vpn(0)), TlbLookup::Hit(Pfn(0), 0));
        let evicted = t.insert(Vpn(8), Pfn(2), 2);
        assert_eq!(
            evicted,
            Some(TlbEntry {
                vpn: Vpn(4),
                pfn: Pfn(1),
                page: 1,
            })
        );
        assert!(t.contains(Vpn(0)));
        assert!(t.contains(Vpn(8)));
        assert!(!t.contains(Vpn(4)));
    }

    #[test]
    fn insert_refreshes_existing_entry_without_eviction() {
        let mut t = small();
        t.insert(Vpn(0), Pfn(0), 0);
        t.insert(Vpn(4), Pfn(1), 1);
        assert_eq!(t.insert(Vpn(0), Pfn(7), 7), None);
        assert_eq!(t.access(Vpn(0)), TlbLookup::Hit(Pfn(7), 7));
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn flush_empties_the_tlb() {
        let mut t = small();
        t.insert(Vpn(1), Pfn(0), 0);
        t.insert(Vpn(2), Pfn(1), 1);
        assert_eq!(t.occupancy(), 2);
        t.flush();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn set_entries_only_reports_that_set() {
        let mut t = small();
        t.insert(Vpn(0), Pfn(0), 0); // set 0
        t.insert(Vpn(1), Pfn(1), 1); // set 1
        t.insert(Vpn(4), Pfn(2), 2); // set 0
        let set0: Vec<_> = t.set_entries(0).map(|e| e.vpn).collect();
        assert_eq!(set0.len(), 2);
        assert!(set0.contains(&Vpn(0)) && set0.contains(&Vpn(4)));
        let set1: Vec<_> = t.set_entries(1).map(|e| e.vpn).collect();
        assert_eq!(set1, vec![Vpn(1)]);
    }

    #[test]
    fn fully_associative_uses_single_set() {
        let mut t = Tlb::new(TlbConfig::fully_associative(4));
        for i in 0..4 {
            t.insert(Vpn(i), Pfn(i), i as u32);
            assert_eq!(t.set_index(Vpn(i)), 0);
        }
        assert_eq!(t.occupancy(), 4);
        // Fifth insert evicts the LRU (Vpn 0).
        t.insert(Vpn(100), Pfn(100), 100);
        assert!(!t.contains(Vpn(0)));
        assert_eq!(t.occupancy(), 4);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut t = small();
        for i in 0..1000 {
            t.insert(Vpn(i), Pfn(i), i as u32);
        }
        assert!(t.occupancy() <= 8);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn rejects_ways_above_entries() {
        Tlb::new(TlbConfig {
            entries: 4,
            ways: 8,
        });
    }

    #[test]
    fn miss_rate_computation() {
        let mut t = small();
        t.access(Vpn(1)); // miss
        t.insert(Vpn(1), Pfn(1), 1);
        t.access(Vpn(1)); // hit
        t.access(Vpn(1)); // hit
        t.access(Vpn(9)); // miss (set 1)
        assert!((t.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memo_counts_repeated_hits() {
        let mut t = small();
        t.insert(Vpn(3), Pfn(30), 30);
        for _ in 0..10 {
            assert_eq!(t.access(Vpn(3)), TlbLookup::Hit(Pfn(30), 30));
        }
        assert_eq!(t.stats().hits, 10);
        assert_eq!(t.stats().misses, 0);
    }

    #[test]
    fn memo_cleared_on_flush() {
        let mut t = small();
        t.insert(Vpn(3), Pfn(30), 30);
        assert_eq!(t.access(Vpn(3)), TlbLookup::Hit(Pfn(30), 30));
        t.flush();
        assert_eq!(t.access(Vpn(3)), TlbLookup::Miss);
    }

    #[test]
    fn memo_does_not_change_lru_order() {
        // Same scenario as `lru_evicts_least_recently_used_in_set`, but the
        // re-touch of VPN 0 goes through the memo fast path (it was just
        // inserted). The eviction decision must be unchanged.
        let mut t = small();
        t.insert(Vpn(4), Pfn(1), 1);
        t.insert(Vpn(0), Pfn(0), 0);
        assert_eq!(t.access(Vpn(0)), TlbLookup::Hit(Pfn(0), 0)); // memo hit
        let evicted = t.insert(Vpn(8), Pfn(2), 2);
        assert_eq!(evicted.map(|e| e.vpn), Some(Vpn(4)));
    }

    #[test]
    fn signatures_track_set_contents() {
        let mut t = small();
        assert_eq!(t.set_signature(0), 0);
        t.insert(Vpn(0), Pfn(0), 0); // set 0
        t.insert(Vpn(4), Pfn(1), 1); // set 0
        let sig = t.set_signature(0);
        assert_ne!(sig & Tlb::signature_bit(Vpn(0)), 0);
        assert_ne!(sig & Tlb::signature_bit(Vpn(4)), 0);
        assert_eq!(t.set_len(0), 2);
        // Evicting VPN 0 (the set's LRU) recomputes the signature.
        t.insert(Vpn(8), Pfn(2), 2);
        assert_eq!(t.set_len(0), 2);
        let sig = t.set_signature(0);
        assert_ne!(sig & Tlb::signature_bit(Vpn(4)), 0);
        assert_ne!(sig & Tlb::signature_bit(Vpn(8)), 0);
        t.flush();
        assert_eq!(t.set_signature(0), 0);
        assert_eq!(t.set_len(0), 0);
    }

    /// The pre-optimization TLB: no memo, no signatures, an `Option` per
    /// way. Used as the oracle for the randomized equivalence test below.
    struct NaiveTlb {
        config: TlbConfig,
        slots: Vec<(Option<TlbEntry>, u64)>,
        clock: u64,
        stats: TlbStats,
    }

    impl NaiveTlb {
        fn new(config: TlbConfig) -> Self {
            NaiveTlb {
                config,
                slots: vec![(None, 0); config.entries],
                clock: 0,
                stats: TlbStats::default(),
            }
        }

        fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
            let set = (vpn.0 as usize) & (self.config.sets() - 1);
            let start = set * self.config.ways;
            start..start + self.config.ways
        }

        fn holding(&mut self, vpn: Vpn) -> Option<&mut (Option<TlbEntry>, u64)> {
            let range = self.set_range(vpn);
            self.slots[range]
                .iter_mut()
                .find(|(e, _)| e.is_some_and(|e| e.vpn == vpn))
        }

        fn access(&mut self, vpn: Vpn) -> TlbLookup {
            self.clock += 1;
            let clock = self.clock;
            match self.holding(vpn) {
                Some((Some(e), stamp)) => {
                    *stamp = clock;
                    let e = *e;
                    self.stats.hits += 1;
                    TlbLookup::Hit(e.pfn, e.page)
                }
                _ => {
                    self.stats.misses += 1;
                    TlbLookup::Miss
                }
            }
        }

        fn insert(&mut self, vpn: Vpn, pfn: Pfn, page: u32) -> Option<TlbEntry> {
            self.clock += 1;
            let new = (Some(TlbEntry { vpn, pfn, page }), self.clock);
            if let Some(slot) = self.holding(vpn) {
                *slot = new;
                return None;
            }
            let range = self.set_range(vpn);
            let set = &mut self.slots[range];
            if let Some(slot) = set.iter_mut().find(|(e, _)| e.is_none()) {
                *slot = new;
                return None;
            }
            let victim = set.iter_mut().min_by_key(|(_, stamp)| *stamp).unwrap();
            std::mem::replace(victim, new).0
        }

        fn flush(&mut self) {
            self.slots.fill((None, 0));
        }
    }

    #[test]
    fn memo_and_signatures_preserve_behaviour() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x7AB5);
        for _ in 0..50 {
            let ways = [1usize, 2, 4][rng.gen_range(0usize..3)];
            let sets = [1usize, 2, 4, 8][rng.gen_range(0usize..4)];
            let config = TlbConfig {
                entries: sets * ways,
                ways,
            };
            let mut fast = Tlb::new(config);
            let mut naive = NaiveTlb::new(config);
            for _ in 0..500 {
                // Skewed VPN distribution so repeats (memo hits) are common.
                let vpn = Vpn(if rng.gen_range(0u32..3) == 0 {
                    rng.gen_range(0u64..4)
                } else {
                    rng.gen_range(0u64..64)
                });
                match rng.gen_range(0u32..9) {
                    0..=4 => assert_eq!(fast.access(vpn), naive.access(vpn)),
                    5..=7 => {
                        let (pfn, page) =
                            (Pfn(rng.gen_range(0u64..1000)), rng.gen_range(0u32..1000));
                        assert_eq!(fast.insert(vpn, pfn, page), naive.insert(vpn, pfn, page));
                    }
                    _ => {
                        fast.flush();
                        naive.flush();
                    }
                }
                assert_eq!(fast.stats(), naive.stats);
                // Residency and per-set bookkeeping agree after every op.
                for v in 0..64 {
                    let resident = naive.holding(Vpn(v)).is_some();
                    assert_eq!(fast.contains(Vpn(v)), resident);
                }
                for s in 0..config.sets() {
                    assert_eq!(fast.set_len(s), fast.set_entries(s).count());
                }
            }
        }
    }
}
