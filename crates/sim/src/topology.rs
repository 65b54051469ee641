//! Hierarchical machine topology: chips → shared-L2 groups → cores.
//!
//! Thread mapping exploits exactly this hierarchy (Section III-A): threads
//! on the same L2 share cache lines for free; threads on the same chip snoop
//! each other cheaply; threads on different chips pay the inter-chip
//! interconnect.

use tlbmap_cache::L2Group;

/// A regular three-level machine topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of chips (packages).
    pub chips: usize,
    /// Shared L2 caches per chip.
    pub l2_per_chip: usize,
    /// Cores behind each L2.
    pub cores_per_l2: usize,
}

/// How far apart two cores are in the hierarchy. Lower is closer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Proximity {
    /// Same core (distance 0).
    SameCore,
    /// Different cores behind the same L2 (distance 1).
    SameL2,
    /// Same chip, different L2s (distance 2).
    SameChip,
    /// Different chips (distance 3).
    CrossChip,
}

impl Proximity {
    /// Numeric distance used by mapping cost functions.
    pub fn distance(self) -> u64 {
        match self {
            Proximity::SameCore => 0,
            Proximity::SameL2 => 1,
            Proximity::SameChip => 2,
            Proximity::CrossChip => 3,
        }
    }
}

impl Topology {
    /// The paper's evaluation machine (Figure 3): two Harpertown-like chips,
    /// four cores each, L2 shared by core pairs — 8 cores total.
    pub const fn harpertown() -> Self {
        Topology {
            chips: 2,
            l2_per_chip: 2,
            cores_per_l2: 2,
        }
    }

    /// A regular topology with the given arities.
    ///
    /// # Panics
    /// Panics if any level has zero arity.
    pub fn new(chips: usize, l2_per_chip: usize, cores_per_l2: usize) -> Self {
        assert!(
            chips > 0 && l2_per_chip > 0 && cores_per_l2 > 0,
            "all topology arities must be positive"
        );
        Topology {
            chips,
            l2_per_chip,
            cores_per_l2,
        }
    }

    /// A topology for `cores` total cores, scaling the paper's machine
    /// shape upward. Small counts keep the Harpertown flavour (pairs of
    /// cores per L2); from 64 cores the machine is fixed at 8 chips × 4
    /// L2s (32 L2 groups — within the owner directory's 64-group bitmap)
    /// and the cores-per-L2 arity grows instead.
    ///
    /// # Errors
    /// `cores` must be a power of two and at least 4.
    pub fn scaled(cores: usize) -> Result<Self, String> {
        if !cores.is_power_of_two() || cores < 4 {
            return Err(format!(
                "core count must be a power of two >= 4, got {cores}"
            ));
        }
        Ok(match cores {
            4 => Topology::new(1, 2, 2),
            8 => Topology::new(2, 2, 2),
            16 => Topology::new(2, 4, 2),
            32 => Topology::new(4, 4, 2),
            n => Topology::new(8, 4, n / 32),
        })
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.chips * self.l2_per_chip * self.cores_per_l2
    }

    /// [`Topology::num_cores`], or `None` when the product overflows.
    pub fn checked_num_cores(&self) -> Option<usize> {
        self.chips
            .checked_mul(self.l2_per_chip)?
            .checked_mul(self.cores_per_l2)
    }

    /// Total number of shared L2 caches.
    pub fn num_l2(&self) -> usize {
        self.chips * self.l2_per_chip
    }

    /// Index of the L2 behind which `core` sits.
    pub fn l2_of(&self, core: usize) -> usize {
        core / self.cores_per_l2
    }

    /// Chip on which `core` sits.
    pub fn chip_of(&self, core: usize) -> usize {
        core / (self.cores_per_l2 * self.l2_per_chip)
    }

    /// Hierarchical proximity of two cores.
    pub fn proximity(&self, a: usize, b: usize) -> Proximity {
        if a == b {
            Proximity::SameCore
        } else if self.l2_of(a) == self.l2_of(b) {
            Proximity::SameL2
        } else if self.chip_of(a) == self.chip_of(b) {
            Proximity::SameChip
        } else {
            Proximity::CrossChip
        }
    }

    /// Shorthand for `proximity(a, b).distance()`.
    pub fn distance(&self, a: usize, b: usize) -> u64 {
        self.proximity(a, b).distance()
    }

    /// Group sizes from the leaves up, excluding the core level: first the
    /// number of cores that share an L2, then cores per chip, then the whole
    /// machine. The hierarchical mapper pairs threads level by level until
    /// the group size reaches each of these.
    pub fn level_group_sizes(&self) -> Vec<usize> {
        vec![
            self.cores_per_l2,
            self.cores_per_l2 * self.l2_per_chip,
            self.num_cores(),
        ]
    }

    /// The L2 groups in the shape [`tlbmap_cache::HierarchyConfig`] expects.
    pub fn l2_groups(&self) -> Vec<L2Group> {
        (0..self.num_l2())
            .map(|g| L2Group {
                cores: (g * self.cores_per_l2..(g + 1) * self.cores_per_l2).collect(),
                chip: g / self.l2_per_chip,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harpertown_shape() {
        let t = Topology::harpertown();
        assert_eq!(t.num_cores(), 8);
        assert_eq!(t.num_l2(), 4);
        assert_eq!(t.level_group_sizes(), vec![2, 4, 8]);
    }

    #[test]
    fn core_placement() {
        let t = Topology::harpertown();
        assert_eq!(t.l2_of(0), 0);
        assert_eq!(t.l2_of(1), 0);
        assert_eq!(t.l2_of(2), 1);
        assert_eq!(t.chip_of(3), 0);
        assert_eq!(t.chip_of(4), 1);
        assert_eq!(t.l2_of(7), 3);
    }

    #[test]
    fn proximity_levels() {
        let t = Topology::harpertown();
        assert_eq!(t.proximity(3, 3), Proximity::SameCore);
        assert_eq!(t.proximity(0, 1), Proximity::SameL2);
        assert_eq!(t.proximity(0, 2), Proximity::SameChip);
        assert_eq!(t.proximity(0, 4), Proximity::CrossChip);
        assert_eq!(t.distance(0, 4), 3);
    }

    #[test]
    fn proximity_is_symmetric() {
        let t = Topology::new(2, 3, 2);
        for a in 0..t.num_cores() {
            for b in 0..t.num_cores() {
                assert_eq!(t.proximity(a, b), t.proximity(b, a));
            }
        }
    }

    #[test]
    fn l2_groups_cover_all_cores_once() {
        let t = Topology::new(3, 2, 4);
        let groups = t.l2_groups();
        assert_eq!(groups.len(), 6);
        let mut seen = vec![false; t.num_cores()];
        for g in &groups {
            assert_eq!(g.cores.len(), 4);
            for &c in &g.cores {
                assert!(!seen[c]);
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Chips assigned in blocks of l2_per_chip.
        assert_eq!(groups[0].chip, 0);
        assert_eq!(groups[1].chip, 0);
        assert_eq!(groups[2].chip, 1);
        assert_eq!(groups[5].chip, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_arity_rejected() {
        Topology::new(2, 0, 2);
    }

    #[test]
    fn scaled_covers_powers_of_two() {
        assert_eq!(Topology::scaled(8).unwrap(), Topology::harpertown());
        for n in [4usize, 8, 16, 32, 64, 128, 256, 512] {
            let t = Topology::scaled(n).unwrap();
            assert_eq!(t.num_cores(), n);
            assert!(t.num_l2() <= 64, "directory bitmap limit");
        }
        assert_eq!(Topology::scaled(64).unwrap().num_l2(), 32);
        assert_eq!(Topology::scaled(256).unwrap().cores_per_l2, 8);
        assert!(Topology::scaled(0).is_err());
        assert!(Topology::scaled(2).is_err());
        assert!(Topology::scaled(48).is_err());
    }
}
