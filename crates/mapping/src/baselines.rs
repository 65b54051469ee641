//! Baseline mappings the paper's mapper is compared against.

use crate::hierarchy_map::match_levels;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tlbmap_core::CommMatrix;
use tlbmap_obs::Recorder;
use tlbmap_sim::{Mapping, Topology};

/// Scatter placement: consecutive threads spread across different L2
/// groups first (what a load-balancing scheduler tends to do).
///
/// # Panics
/// Panics if there are more threads than cores.
pub fn scatter(n_threads: usize, topo: &Topology) -> Mapping {
    let n_cores = topo.num_cores();
    assert!(n_threads <= n_cores, "more threads than cores");
    let n_l2 = topo.num_l2();
    let mapping = (0..n_threads)
        .map(|t| (t % n_l2) * topo.cores_per_l2 + (t / n_l2))
        .collect();
    Mapping::new(mapping)
}

/// Uniformly random placement with a fixed seed (models the run-to-run
/// variance of an oblivious scheduler — the paper observes the OS "maps the
/// threads incorrectly during many executions").
///
/// # Panics
/// Panics if there are more threads than cores.
pub fn random(n_threads: usize, topo: &Topology, seed: u64) -> Mapping {
    let n_cores = topo.num_cores();
    assert!(n_threads <= n_cores, "more threads than cores");
    let mut cores: Vec<usize> = (0..n_cores).collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    cores.shuffle(&mut rng);
    Mapping::new(cores.into_iter().take(n_threads).collect())
}

/// Adversarial placement: hierarchically matches the *least*-communicating
/// groups together, approximately maximizing communication-weighted
/// distance. Useful as an upper bound on how much mapping can matter. It
/// runs [`crate::HierarchicalMapper`]'s level loop on negated weights.
///
/// # Panics
/// Same preconditions as [`crate::HierarchicalMapper::map`], including its
/// bound on the matrix's cell total.
pub fn worst_case(matrix: &CommMatrix, topo: &Topology) -> Mapping {
    match match_levels(matrix, -1, topo, &Recorder::disabled()) {
        Ok(mapping) => mapping,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::mapping_cost;
    use crate::hierarchy_map::HierarchicalMapper;

    #[test]
    fn scatter_spreads_consecutive_threads() {
        let topo = Topology::harpertown();
        let m = scatter(8, &topo);
        // Threads 0..4 land on distinct L2s.
        let l2s: std::collections::HashSet<_> = (0..4).map(|t| topo.l2_of(m.core_of(t))).collect();
        assert_eq!(l2s.len(), 4);
    }

    #[test]
    fn random_is_a_permutation_and_seed_dependent() {
        let topo = Topology::harpertown();
        let a = random(8, &topo, 1);
        let b = random(8, &topo, 2);
        let mut seen = [false; 8];
        for t in 0..8 {
            assert!(!seen[a.core_of(t)]);
            seen[a.core_of(t)] = true;
        }
        assert_ne!(a.as_slice(), b.as_slice());
        assert_eq!(random(8, &topo, 1).as_slice(), a.as_slice());
    }

    #[test]
    fn worst_case_is_worse_than_best_case() {
        let mut m = CommMatrix::new(8);
        for (a, b) in [(0, 1), (2, 3), (4, 5), (6, 7)] {
            m.add(a, b, 100);
        }
        let topo = Topology::harpertown();
        let best = HierarchicalMapper::new().map(&m, &topo);
        let worst = worst_case(&m, &topo);
        assert!(
            mapping_cost(&m, &worst, &topo) > mapping_cost(&m, &best, &topo),
            "worst-case mapping should cost more than the hierarchical mapping"
        );
        // With pair weights dominating, worst case sends every pair
        // cross-chip: cost = 400 * 3.
        assert_eq!(mapping_cost(&m, &worst, &topo), 1200);
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn worst_case_refuses_totals_above_the_bound() {
        // Negating a total above `i64::MAX` used to wrap: `u64::MAX as i64`
        // is -1, so these cells read as weight 1.
        let mut m = CommMatrix::new(8);
        m.add(0, 1, u64::MAX);
        m.add(2, 3, 1);
        worst_case(&m, &Topology::harpertown());
    }

    #[test]
    fn fewer_threads_than_cores_supported() {
        let topo = Topology::harpertown();
        assert_eq!(scatter(3, &topo).num_threads(), 3);
        assert_eq!(random(3, &topo, 0).num_threads(), 3);
    }

    #[test]
    #[should_panic(expected = "more threads than cores")]
    fn too_many_threads_rejected() {
        scatter(9, &Topology::harpertown());
    }
}
