//! Event counters — the quantities the paper reports in Figures 7–9 and
//! Table IV.

/// Classification of an L2 miss, following the taxonomy of Section III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// First access to the line by this cache ever (compulsory).
    Cold,
    /// Line was previously resident but evicted by replacement.
    Capacity,
    /// Line was previously resident but invalidated by coherence — the
    /// "invalidation misses" the paper's mapping primarily attacks.
    Coherence,
}

/// Aggregate hierarchy counters for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Data-L1 hits.
    pub l1d_hits: u64,
    /// Data-L1 misses.
    pub l1d_misses: u64,
    /// Instruction-L1 hits.
    pub l1i_hits: u64,
    /// Instruction-L1 misses.
    pub l1i_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Total L2 misses (== cold + capacity + coherence).
    pub l2_misses: u64,
    /// Compulsory L2 misses.
    pub l2_cold_misses: u64,
    /// Replacement-induced L2 misses.
    pub l2_capacity_misses: u64,
    /// Coherence-invalidation-induced L2 misses.
    pub l2_coherence_misses: u64,
    /// Remote cache-line copies invalidated by stores (Figure 7).
    pub invalidations: u64,
    /// Misses serviced cache-to-cache instead of from memory (Figure 8).
    pub snoop_transactions: u64,
    /// Snoop transactions whose two L2s sit on the same chip.
    pub snoops_intra_chip: u64,
    /// Snoop transactions crossing the inter-chip interconnect.
    pub snoops_inter_chip: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
    /// Lines fetched from main memory.
    pub memory_fetches: u64,
    /// Memory fetches whose home NUMA node was the local chip.
    pub mem_fetches_local: u64,
    /// Memory fetches that crossed to a remote NUMA node.
    pub mem_fetches_remote: u64,
}

impl CacheStats {
    /// Record one L2 miss of the given kind.
    pub fn record_l2_miss(&mut self, kind: MissKind) {
        self.l2_misses += 1;
        match kind {
            MissKind::Cold => self.l2_cold_misses += 1,
            MissKind::Capacity => self.l2_capacity_misses += 1,
            MissKind::Coherence => self.l2_coherence_misses += 1,
        }
    }

    /// Element-wise sum — used when aggregating repeated runs.
    pub fn merge(&mut self, other: &CacheStats) {
        self.l1d_hits += other.l1d_hits;
        self.l1d_misses += other.l1d_misses;
        self.l1i_hits += other.l1i_hits;
        self.l1i_misses += other.l1i_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.l2_cold_misses += other.l2_cold_misses;
        self.l2_capacity_misses += other.l2_capacity_misses;
        self.l2_coherence_misses += other.l2_coherence_misses;
        self.invalidations += other.invalidations;
        self.snoop_transactions += other.snoop_transactions;
        self.snoops_intra_chip += other.snoops_intra_chip;
        self.snoops_inter_chip += other.snoops_inter_chip;
        self.writebacks += other.writebacks;
        self.memory_fetches += other.memory_fetches;
        self.mem_fetches_local += other.mem_fetches_local;
        self.mem_fetches_remote += other.mem_fetches_remote;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_taxonomy_sums_to_total() {
        let mut s = CacheStats::default();
        s.record_l2_miss(MissKind::Cold);
        s.record_l2_miss(MissKind::Cold);
        s.record_l2_miss(MissKind::Capacity);
        s.record_l2_miss(MissKind::Coherence);
        assert_eq!(s.l2_misses, 4);
        assert_eq!(
            s.l2_cold_misses + s.l2_capacity_misses + s.l2_coherence_misses,
            s.l2_misses
        );
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CacheStats {
            l1d_hits: 1,
            snoop_transactions: 2,
            ..Default::default()
        };
        let b = CacheStats {
            l1d_hits: 10,
            invalidations: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.l1d_hits, 11);
        assert_eq!(a.invalidations, 5);
        assert_eq!(a.snoop_transactions, 2);
    }
}
