//! The paper's hierarchical mapping algorithm (Section V-A).
//!
//! Level by level up the memory hierarchy:
//!
//! 1. Run maximum-weight perfect matching on the communication matrix —
//!    matched threads will share an L2.
//! 2. Build the *group* communication matrix. For pairs this is exactly the
//!    paper's heuristic `H((x,y),(z,k)) = M(x,z)+M(x,k)+M(y,z)+M(y,k)`; in
//!    general the weight between two groups is the sum of `M` over their
//!    cross product.
//! 3. Re-run the matching on groups; matched groups will share a chip.
//! 4. Repeat until one group spans the machine.
//!
//! When a matched pair of groups merges, their members become adjacent in
//! core order, so the final flattened order maps straight onto the
//! topology's core numbering (cores `0,1` share L2 0, cores `0..4` share
//! chip 0, …). As the paper notes, this does not guarantee the optimal
//! grouping beyond pairs — the pair matrix carries no information about
//! groups larger than two — but it is a polynomial-time approximation.

use crate::matching::{perfect_matching_pairs, perfect_matching_pairs_warm};
use tlbmap_core::CommMatrix;
use tlbmap_obs::Recorder;
use tlbmap_sim::{Mapping, Topology};

/// The largest cell total (sum of the upper triangle) the mapper accepts
/// for an `n`-thread matrix: `i64::MAX / 2n`.
///
/// Every group weight is a sum of cells, so none exceeds the total `T`.
/// The certificates double weights and add potentials, staying within
/// `2T`. The blossom (which never runs on two vertices, where the
/// certificate always holds) keeps every doubled dual within
/// `(n/2 + 1)·T` of zero: its dual objective starts at `n·T`, never falls
/// below zero and drops by at least `2δ` per dual step of `δ`. Its slack
/// sums therefore stay within `(n + 4)·T`, which is at most `i64::MAX`
/// for `n ≥ 4`.
pub fn max_matrix_total(n: usize) -> u64 {
    i64::MAX as u64 / (2 * n.max(1) as u64)
}

/// The cell total of `matrix`, or an error naming the bound when it
/// exceeds [`max_matrix_total`] (the sum is checked, so cells near
/// `u64::MAX` are refused rather than wrapped).
pub fn check_matrix_total(matrix: &CommMatrix) -> Result<u64, String> {
    let n = matrix.num_threads();
    let bound = max_matrix_total(n);
    matrix
        .pairs()
        .try_fold(0u64, |sum, (_, _, v)| sum.checked_add(v))
        .filter(|&total| total <= bound)
        .ok_or_else(|| {
            format!(
                "matrix cell total exceeds the mapper's bound of {bound} \
                 (i64::MAX / 2n for n = {n} threads); scale the counts down"
            )
        })
}

/// The level-by-level matching mapper.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalMapper {
    _private: (),
}

/// Result of a warm-started hierarchical map: the mapping itself plus the
/// per-level group pairings to seed the *next* solve with, and how many
/// levels the warm certificate actually carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmMapResult {
    /// The thread-to-core mapping.
    pub mapping: Mapping,
    /// Group-index pairings chosen at each matching level, in level order.
    /// Feed these back as the `seed` of the next warm solve.
    pub pairings: Vec<Vec<(usize, usize)>>,
    /// Levels where the warm seed was certified (no cold recompute).
    pub warm_levels: u32,
    /// Total matching levels run.
    pub total_levels: u32,
}

impl WarmMapResult {
    /// True when every matching level reused the seed without a cold
    /// blossom recompute.
    pub fn fully_warm(&self) -> bool {
        self.warm_levels == self.total_levels
    }
}

impl HierarchicalMapper {
    /// Create a mapper.
    pub fn new() -> Self {
        HierarchicalMapper { _private: () }
    }

    /// Map `matrix.num_threads()` threads onto `topo`.
    ///
    /// # Panics
    /// Panics unless the thread count equals the core count (the paper's
    /// setting), every topology level size is a power-of-two multiple of
    /// the previous one (pairwise matching doubles group sizes) and the
    /// matrix's cell total is at most [`max_matrix_total`].
    pub fn map(&self, matrix: &CommMatrix, topo: &Topology) -> Mapping {
        self.map_observed(matrix, topo, &Recorder::disabled())
    }

    /// [`map`](HierarchicalMapper::map), reporting each matching level
    /// (group counts and captured pair weight) to `rec`.
    ///
    /// # Panics
    /// Same conditions as [`map`](HierarchicalMapper::map).
    pub fn map_observed(&self, matrix: &CommMatrix, topo: &Topology, rec: &Recorder) -> Mapping {
        match self.try_map_observed(matrix, topo, rec) {
            Ok(mapping) => mapping,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`map`](HierarchicalMapper::map) without the panics: invalid input
    /// (thread/core mismatch, non-power-of-two level arities, a cell total
    /// above [`max_matrix_total`]) comes back as a `Display`able error.
    /// This is the entry point for callers that receive the matrix and
    /// topology from outside the process — the mapping service must
    /// answer a malformed request with an error frame, not die.
    pub fn try_map(&self, matrix: &CommMatrix, topo: &Topology) -> Result<Mapping, String> {
        self.try_map_observed(matrix, topo, &Recorder::disabled())
    }

    /// [`try_map`](HierarchicalMapper::try_map), reporting each matching
    /// level to `rec`.
    pub fn try_map_observed(
        &self,
        matrix: &CommMatrix,
        topo: &Topology,
        rec: &Recorder,
    ) -> Result<Mapping, String> {
        self.try_map_warm_observed(matrix, topo, None, rec)
            .map(|r| r.mapping)
    }

    /// Warm-started variant for the streaming remap loop: `seed` carries
    /// the per-level pairings of the previous solve (from
    /// [`WarmMapResult::pairings`]). Each level tries
    /// [`perfect_matching_pairs_warm`] with its seed slice — verified and
    /// locally improved, falling back to a cold blossom solve when the
    /// certificate fails — so near-identical back-to-back instances skip
    /// the O(n³) recompute. With `seed = None` every level runs cold and
    /// the mapping is bit-identical to
    /// [`try_map_observed`](HierarchicalMapper::try_map_observed).
    pub fn try_map_warm_observed(
        &self,
        matrix: &CommMatrix,
        topo: &Topology,
        seed: Option<&[Vec<(usize, usize)>]>,
        rec: &Recorder,
    ) -> Result<WarmMapResult, String> {
        let n = matrix.num_threads();
        if n != topo.num_cores() {
            return Err(format!(
                "hierarchical mapper expects one thread per core ({} threads, {} cores)",
                n,
                topo.num_cores()
            ));
        }
        check_matrix_total(matrix)?;
        if n == 1 {
            return Ok(WarmMapResult {
                mapping: Mapping::identity(1),
                pairings: Vec::new(),
                warm_levels: 0,
                total_levels: 0,
            });
        }

        // groups[g] = ordered list of member threads.
        let mut groups: Vec<Vec<usize>> = (0..n).map(|t| vec![t]).collect();
        let mut size = 1usize;
        let mut level = 0u32;
        let mut pairings: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut warm_levels = 0u32;

        for target in topo.level_group_sizes() {
            if target % size != 0 || !(target / size).is_power_of_two() {
                return Err(format!(
                    "level size {target} not a power-of-two multiple of current group size {size}"
                ));
            }
            while size < target {
                let before = groups.len() as u32;
                let level_seed = seed
                    .and_then(|s| s.get(level as usize))
                    .map(|v| v.as_slice());
                let (merged, pairs, warm) = merge_by_matching_warm(&groups, matrix, level_seed);
                groups = merged;
                if warm {
                    warm_levels += 1;
                }
                pairings.push(pairs);
                let weight: u64 = groups
                    .iter()
                    .map(|g| {
                        let (a, b) = g.split_at(g.len() / 2);
                        group_weight(a, b, matrix)
                    })
                    .sum();
                rec.record_mapper_round(level, before, groups.len() as u32, weight);
                level += 1;
                size *= 2;
            }
        }
        debug_assert_eq!(groups.len(), 1);

        // The flattened member order is the core order.
        let order = &groups[0];
        let mut thread_to_core = vec![0usize; n];
        for (core, &thread) in order.iter().enumerate() {
            thread_to_core[thread] = core;
        }
        Ok(WarmMapResult {
            mapping: Mapping::new(thread_to_core),
            pairings,
            warm_levels,
            total_levels: level,
        })
    }
}

/// Weight between two groups: sum of the communication matrix over their
/// cross product (the generalization of the paper's `H`).
pub fn group_weight(a: &[usize], b: &[usize], matrix: &CommMatrix) -> u64 {
    let mut sum = 0;
    for &i in a {
        for &j in b {
            sum += matrix.get(i, j);
        }
    }
    sum
}

/// One matching level: pair up the groups and merge matched pairs.
/// With a seed, the warm path verifies/improves it; without one, this is
/// exactly the cold [`perfect_matching_pairs`] level. Returns the merged
/// groups, the pairing chosen (the seed for the next solve's same level),
/// and whether the warm certificate held.
fn merge_by_matching_warm(
    groups: &[Vec<usize>],
    matrix: &CommMatrix,
    seed: Option<&[(usize, usize)]>,
) -> (Vec<Vec<usize>>, Vec<(usize, usize)>, bool) {
    let g = groups.len();
    debug_assert!(g.is_multiple_of(2));
    let weight =
        |a: usize, b: usize| -> i64 { group_weight(&groups[a], &groups[b], matrix) as i64 };
    let (pairs, warm) = match seed {
        Some(prev) => perfect_matching_pairs_warm(g, &weight, prev),
        None => (perfect_matching_pairs(g, &weight), false),
    };
    let merged = pairs
        .iter()
        .map(|&(a, b)| {
            let mut merged = groups[a].clone();
            merged.extend_from_slice(&groups[b]);
            merged
        })
        .collect();
    (merged, pairs, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::mapping_cost;

    /// Matrix with strong pairs (0,1) (2,3) (4,5) (6,7) and stronger
    /// quad-affinity between pairs {01,23} and {45,67}.
    fn structured() -> CommMatrix {
        let mut m = CommMatrix::new(8);
        for (a, b) in [(0, 1), (2, 3), (4, 5), (6, 7)] {
            m.add(a, b, 100);
        }
        // Quad affinity.
        for (a, b) in [(0, 2), (1, 3), (4, 6), (5, 7)] {
            m.add(a, b, 10);
        }
        m
    }

    #[test]
    fn pairs_end_up_on_shared_l2() {
        let topo = Topology::harpertown();
        let mapping = HierarchicalMapper::new().map(&structured(), &topo);
        for (a, b) in [(0, 1), (2, 3), (4, 5), (6, 7)] {
            assert_eq!(
                topo.l2_of(mapping.core_of(a)),
                topo.l2_of(mapping.core_of(b)),
                "threads {a},{b} should share an L2"
            );
        }
    }

    #[test]
    fn quads_end_up_on_shared_chip() {
        let topo = Topology::harpertown();
        let mapping = HierarchicalMapper::new().map(&structured(), &topo);
        for group in [[0usize, 1, 2, 3], [4, 5, 6, 7]] {
            let chip = topo.chip_of(mapping.core_of(group[0]));
            for &t in &group[1..] {
                assert_eq!(topo.chip_of(mapping.core_of(t)), chip);
            }
        }
    }

    #[test]
    fn beats_scattered_identity_on_shuffled_pattern() {
        // Strong pairs deliberately placed far apart by identity.
        let mut m = CommMatrix::new(8);
        for (a, b) in [(0, 4), (1, 5), (2, 6), (3, 7)] {
            m.add(a, b, 50);
        }
        let topo = Topology::harpertown();
        let mapped = HierarchicalMapper::new().map(&m, &topo);
        let identity = Mapping::identity(8);
        assert!(
            mapping_cost(&m, &mapped, &topo) < mapping_cost(&m, &identity, &topo),
            "mapper must beat identity on an anti-affine pattern"
        );
        // In fact each strong pair must share an L2 (distance 1, the
        // optimum) because pair weights dominate.
        assert_eq!(mapping_cost(&m, &mapped, &topo), 200);
    }

    #[test]
    fn homogeneous_matrix_yields_valid_permutation() {
        let mut m = CommMatrix::new(8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                m.add(i, j, 7);
            }
        }
        let topo = Topology::harpertown();
        let mapping = HierarchicalMapper::new().map(&m, &topo);
        let mut seen = [false; 8];
        for t in 0..8 {
            let c = mapping.core_of(t);
            assert!(!seen[c]);
            seen[c] = true;
        }
    }

    #[test]
    fn empty_matrix_is_mapped_without_panic() {
        let topo = Topology::harpertown();
        let mapping = HierarchicalMapper::new().map(&CommMatrix::new(8), &topo);
        assert_eq!(mapping.num_threads(), 8);
    }

    #[test]
    fn group_weight_matches_paper_h() {
        let mut m = CommMatrix::new(4);
        m.add(0, 2, 1);
        m.add(0, 3, 2);
        m.add(1, 2, 3);
        m.add(1, 3, 4);
        // H((0,1),(2,3)) = M(0,2)+M(0,3)+M(1,2)+M(1,3) = 10.
        assert_eq!(group_weight(&[0, 1], &[2, 3], &m), 10);
    }

    #[test]
    fn observed_map_reports_every_level() {
        use tlbmap_obs::{CounterId, Event, ObsConfig, Recorder};
        let rec = Recorder::new(ObsConfig::new(8));
        let topo = Topology::harpertown();
        let mapping = HierarchicalMapper::new().map_observed(&structured(), &topo, &rec);
        assert_eq!(mapping, HierarchicalMapper::new().map(&structured(), &topo));
        // 8 → 4 → 2 → 1 groups: three matching levels.
        assert_eq!(rec.counter(CounterId::MapperRounds), 3);
        let rounds: Vec<_> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::MapperRound {
                    level,
                    groups_before,
                    groups_after,
                    weight,
                } => Some((level, groups_before, groups_after, weight)),
                _ => None,
            })
            .collect();
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[0].1, 8);
        assert_eq!(rounds[0].2, 4);
        // Level 0 pairs the strong couples: 4 × 100 captured weight.
        assert_eq!(rounds[0].3, 400);
        assert_eq!(rounds[2], (2, 2, 1, 0));
    }

    #[test]
    fn single_core_machine() {
        let topo = Topology::new(1, 1, 1);
        let mapping = HierarchicalMapper::new().map(&CommMatrix::new(1), &topo);
        assert_eq!(mapping.core_of(0), 0);
    }

    #[test]
    #[should_panic(expected = "one thread per core")]
    fn thread_core_mismatch_rejected() {
        HierarchicalMapper::new().map(&CommMatrix::new(4), &Topology::harpertown());
    }

    #[test]
    fn try_map_reports_errors_instead_of_panicking() {
        let mapper = HierarchicalMapper::new();
        let err = mapper
            .try_map(&CommMatrix::new(4), &Topology::harpertown())
            .unwrap_err();
        assert!(err.contains("one thread per core"), "{err}");
        // Three cores per L2 is not a power-of-two multiple of 1.
        let topo = Topology::new(1, 1, 3);
        let err = mapper.try_map(&CommMatrix::new(3), &topo).unwrap_err();
        assert!(err.contains("power-of-two"), "{err}");
        // And valid input agrees with the panicking path.
        let topo = Topology::harpertown();
        let ok = mapper.try_map(&structured(), &topo).unwrap();
        assert_eq!(ok, mapper.map(&structured(), &topo));
    }

    #[test]
    fn cell_totals_above_the_bound_are_refused() {
        let topo = Topology::harpertown();
        let mapper = HierarchicalMapper::new();
        // Three saturated cells: the total does not even fit a u64, and
        // before the bound the doubled i64 weights wrapped into a mapping
        // that split threads 0 and 5 across L2s.
        let mut m = CommMatrix::new(8);
        for (a, b) in [(0, 5), (1, 2), (0, 1)] {
            m.add(a, b, u64::MAX);
        }
        let err = mapper.try_map(&m, &topo).unwrap_err();
        assert!(err.contains("bound"), "{err}");
        assert!(check_matrix_total(&m).is_err());
        // One past the bound is refused, the bound itself is accepted.
        let bound = max_matrix_total(8);
        let mut at = CommMatrix::new(8);
        at.add(0, 5, bound);
        assert_eq!(check_matrix_total(&at), Ok(bound));
        let mapping = mapper.try_map(&at, &topo).unwrap();
        assert_eq!(
            topo.l2_of(mapping.core_of(0)),
            topo.l2_of(mapping.core_of(5))
        );
        at.add(2, 3, 1);
        assert!(mapper.try_map(&at, &topo).is_err());
    }

    #[test]
    fn matrices_at_the_bound_map_without_overflow() {
        // Overflow checks are on in test builds, so any wrap in a group
        // weight, certificate or blossom slack would panic here. The
        // single heavy cell ties every other vertex at zero, so the
        // blossom runs with the whole bound as its largest weight; the
        // uniform matrix ties at every level.
        let topo = Topology::new(8, 4, 2);
        let n = topo.num_cores();
        let (bound, cells) = (max_matrix_total(n), (n * (n - 1) / 2) as u64);
        let mut single = CommMatrix::new(n);
        single.add(0, 1, bound);
        let mut uniform = CommMatrix::new(n);
        let mut ring = CommMatrix::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                uniform.add(i, j, bound / cells);
            }
            ring.add(i, (i + 1) % n, bound / n as u64);
        }
        let mapper = HierarchicalMapper::new();
        for m in [&single, &uniform, &ring] {
            assert!(check_matrix_total(m).is_ok());
            assert_eq!(mapper.try_map(m, &topo).unwrap().num_threads(), n);
        }
    }

    #[test]
    fn wider_topology_16_cores() {
        let topo = Topology::new(2, 2, 4);
        let mut m = CommMatrix::new(16);
        // Four quads of heavy communication.
        for q in 0..4 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    m.add(q * 4 + i, q * 4 + j, 100);
                }
            }
        }
        let mapping = HierarchicalMapper::new().map(&m, &topo);
        // Each quad must land on one L2 (4 cores per L2).
        for q in 0..4 {
            let l2 = topo.l2_of(mapping.core_of(q * 4));
            for i in 1..4 {
                assert_eq!(topo.l2_of(mapping.core_of(q * 4 + i)), l2);
            }
        }
    }
}
