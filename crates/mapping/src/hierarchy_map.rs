//! The paper's hierarchical mapping algorithm (Section V-A).
//!
//! Level by level up the memory hierarchy:
//!
//! 1. Run maximum-weight perfect matching on the communication matrix —
//!    matched threads will share an L2.
//! 2. Build the *group* communication matrix. For pairs this is exactly the
//!    paper's heuristic `H((x,y),(z,k)) = M(x,z)+M(x,k)+M(y,z)+M(y,k)`; in
//!    general the weight between two groups is the sum of `M` over their
//!    cross product. Each level contracts the previous level's matrix the
//!    same way, `W'(p, q) = W(a,c)+W(a,d)+W(b,c)+W(b,d)` for merged pairs
//!    `p = (a,b)`, `q = (c,d)`, which sums the same cells.
//! 3. Re-run the matching on groups; matched groups will share a chip.
//! 4. Repeat until one group spans the machine.
//!
//! When a matched pair of groups merges, their members become adjacent in
//! core order, so the final flattened order maps straight onto the
//! topology's core numbering (cores `0,1` share L2 0, cores `0..4` share
//! chip 0, …). As the paper notes, this does not guarantee the optimal
//! grouping beyond pairs — the pair matrix carries no information about
//! groups larger than two — but it is a polynomial-time approximation.

use crate::matching::CompleteMatcher;
use std::cell::Cell;
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
        match_levels(matrix, 1, topo, rec)
    }
}

thread_local! {
    /// The buffers of this thread's last map, reused by its next one, so
    /// that a service worker's maps do not allocate the weight tables and
    /// the blossom's buffers again each time.
    static SPARE_LEVELS: Cell<Option<Levels>> = const { Cell::new(None) };
}

/// The largest map whose buffers a thread keeps: its weight table is
/// 512 KiB. Larger maps allocate their own, so one big request does not
/// leave megabytes behind on every thread that served it.
const KEPT_THREADS: usize = 256;

/// The level loop of [`HierarchicalMapper`] and
/// [`worst_case`](crate::baselines::worst_case): check the input, then
/// match and merge until one group spans the machine, on the matrix's
/// weights times `sign` (`-1` pairs the groups that communicate least).
pub(crate) fn match_levels(
    matrix: &CommMatrix,
    sign: i64,
    topo: &Topology,
    rec: &Recorder,
) -> Result<Mapping, String> {
    let mut levels = SPARE_LEVELS.with(Cell::take).unwrap_or_default();
    let result = match_levels_in(&mut levels, matrix, sign, topo, rec);
    if matrix.num_threads() <= KEPT_THREADS {
        SPARE_LEVELS.with(|spare| spare.set(Some(levels)));
    }
    result
}

/// [`match_levels`] on the buffers of `levels`, whatever they last held.
fn match_levels_in(
    levels: &mut Levels,
    matrix: &CommMatrix,
    sign: i64,
    topo: &Topology,
    rec: &Recorder,
) -> Result<Mapping, String> {
    let n = matrix.num_threads();
    if n != topo.num_cores() {
        return Err(format!(
            "hierarchical mapper expects one thread per core ({} threads, {} cores)",
            n,
            topo.num_cores()
        ));
    }
    levels.reset(matrix, sign)?;
    // Each level size must be a power-of-two multiple of the one below.
    // The last is the core count, so matching halves the groups until one
    // spans the machine, and each level's groups are exactly its size.
    let mut size = 1usize;
    for target in topo.level_group_sizes() {
        if target % size != 0 || !(target / size).is_power_of_two() {
            return Err(format!(
                "level size {target} not a power-of-two multiple of current group size {size}"
            ));
        }
        size = target;
    }

    let mut level = 0u32;
    while levels.groups() > 1 {
        let before = levels.groups() as u32;
        levels.pair();
        let weight = levels.merge();
        rec.record_mapper_round(level, before, levels.groups() as u32, weight as u64);
        level += 1;
    }
    Ok(levels.mapping())
}

/// One hierarchical map in progress: the groups, as consecutive runs of
/// one flattened thread order, and the weights between them.
///
/// [`HierarchicalMapper`] steps it one level at a time: [`pair`] matches
/// the groups, [`merge`] merges each matched pair into one group (its
/// members adjacent in core order) and contracts the weights. It is public
/// so that the two steps can be timed apart.
///
/// [`pair`]: Levels::pair
/// [`merge`]: Levels::merge
#[derive(Debug, Default)]
pub struct Levels {
    /// Group `k` is `order[k * size..(k + 1) * size]`.
    order: Vec<usize>,
    size: usize,
    /// Symmetric group weights, `w[p * g + q]` for `g` groups: the matrix
    /// summed over the cross product of groups `p` and `q`.
    w: Vec<i64>,
    /// The pairing of the last [`pair`](Levels::pair), not yet merged.
    pairs: Vec<(usize, usize)>,
    /// Buffers of the next level, swapped in by `merge`.
    next_w: Vec<i64>,
    next_order: Vec<usize>,
    matcher: CompleteMatcher,
}

impl Levels {
    /// Level 0 of `matrix`: one group per thread, weighted by the cells.
    /// Refuses a cell total above [`max_matrix_total`].
    pub fn new(matrix: &CommMatrix) -> Result<Levels, String> {
        Levels::with_sign(matrix, 1)
    }

    /// [`Levels::new`] with every weight multiplied by `sign` (±1).
    fn with_sign(matrix: &CommMatrix, sign: i64) -> Result<Levels, String> {
        let mut levels = Levels::default();
        levels.reset(matrix, sign)?;
        Ok(levels)
    }

    /// Level 0 of `matrix` with every weight multiplied by `sign` (±1),
    /// in the buffers of whatever map these levels held before.
    fn reset(&mut self, matrix: &CommMatrix, sign: i64) -> Result<(), String> {
        check_matrix_total(matrix)?;
        let n = matrix.num_threads();
        // No cell exceeds the checked total, far below `i64::MAX`.
        self.w.clear();
        for i in 0..n {
            self.w
                .extend((0..n).map(|j| sign * matrix.get(i, j) as i64));
        }
        self.order.clear();
        self.order.extend(0..n);
        self.size = 1;
        self.pairs.clear();
        Ok(())
    }

    /// The number of groups at this level.
    pub fn groups(&self) -> usize {
        self.order.len() / self.size
    }

    /// The group weights, `weights()[p * groups() + q]` between groups `p`
    /// and `q`: the matrix summed over their cross product (times the
    /// sign), symmetric, zero on the diagonal.
    pub fn weights(&self) -> &[i64] {
        &self.w
    }

    /// Pair up the groups by maximum-weight perfect matching
    /// ([`perfect_matching_pairs`](crate::perfect_matching_pairs)) and
    /// return the sorted pairs.
    ///
    /// # Panics
    /// Panics if the number of groups is odd.
    pub fn pair(&mut self) -> &[(usize, usize)] {
        let g = self.groups();
        assert!(
            g.is_multiple_of(2),
            "perfect matching requires an even vertex count"
        );
        self.pairs = self.matcher.perfect_pairs(g, &self.w);
        &self.pairs
    }

    /// Merge the groups of each pair from the last [`pair`](Levels::pair),
    /// in pair order, and contract the weights. Returns the weight the
    /// pairs captured, `Σ W(a, b)`.
    ///
    /// # Panics
    /// Panics unless the groups were paired since the last merge.
    pub fn merge(&mut self) -> i64 {
        let g = self.groups();
        assert_eq!(
            2 * self.pairs.len(),
            g,
            "merge needs the pairing of the groups"
        );
        let h = g / 2;
        let (w, next) = (&self.w, &mut self.next_w);
        next.clear();
        next.resize(h * h, 0);
        let mut captured = 0;
        for (p, &(a, b)) in self.pairs.iter().enumerate() {
            captured += w[a * g + b];
            let (wa, wb) = (&w[a * g..(a + 1) * g], &w[b * g..(b + 1) * g]);
            for (q, &(c, d)) in self.pairs.iter().enumerate().skip(p + 1) {
                let x = wa[c] + wa[d] + wb[c] + wb[d];
                next[p * h + q] = x;
                next[q * h + p] = x;
            }
        }
        std::mem::swap(&mut self.w, &mut self.next_w);
        let s = self.size;
        self.next_order.clear();
        for &(a, b) in &self.pairs {
            self.next_order
                .extend_from_slice(&self.order[a * s..(a + 1) * s]);
            self.next_order
                .extend_from_slice(&self.order[b * s..(b + 1) * s]);
        }
        std::mem::swap(&mut self.order, &mut self.next_order);
        self.size *= 2;
        self.pairs.clear();
        captured
    }

    /// The mapping that puts the flattened order on cores `0, 1, …`.
    pub fn mapping(&self) -> Mapping {
        let mut thread_to_core = vec![0usize; self.order.len()];
        for (core, &thread) in self.order.iter().enumerate() {
            thread_to_core[thread] = core;
        }
        Mapping::new(thread_to_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::mapping_cost;

    /// Weight between two groups: sum of the communication matrix over
    /// their cross product (the generalization of the paper's `H`).
    fn group_weight(a: &[usize], b: &[usize], matrix: &CommMatrix) -> u64 {
        let mut sum = 0;
        for &i in a {
            for &j in b {
                sum += matrix.get(i, j);
            }
        }
        sum
    }

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
    fn contraction_is_paper_h() {
        let mut m = CommMatrix::new(4);
        m.add(0, 1, 100);
        m.add(2, 3, 100);
        m.add(0, 2, 1);
        m.add(0, 3, 2);
        m.add(1, 2, 3);
        m.add(1, 3, 4);
        let mut levels = Levels::new(&m).unwrap();
        assert_eq!(levels.pair(), [(0, 1), (2, 3)]);
        assert_eq!(levels.merge(), 200);
        // H((0,1),(2,3)) = M(0,2)+M(0,3)+M(1,2)+M(1,3) = 10.
        assert_eq!(levels.weights(), &[0, 10, 10, 0]);
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

    /// An `n`-thread matrix of `seed`: a quarter of the cells set, to
    /// weights in `1..1000` for even seeds and to tie-heavy `1..3` for odd.
    fn random_matrix(n: usize, seed: u64) -> CommMatrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let top = if seed.is_multiple_of(2) { 1000 } else { 3 };
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_range(0..4) == 0 {
                    m.add(i, j, rng.gen_range(1..top));
                }
            }
        }
        m
    }

    #[test]
    fn contracted_weights_are_cross_product_sums_at_every_level() {
        for seed in 0..16 {
            let m = random_matrix(8 << (seed % 4), seed);
            for sign in [1, -1] {
                let mut levels = Levels::with_sign(&m, sign).unwrap();
                loop {
                    let (g, s) = (levels.groups(), levels.size);
                    let group = |p: usize| &levels.order[p * s..(p + 1) * s];
                    for p in 0..g {
                        for q in 0..g {
                            let cells = sign * group_weight(group(p), group(q), &m) as i64;
                            let want = if p == q { 0 } else { cells };
                            assert_eq!(levels.weights()[p * g + q], want, "seed {seed} groups {g}");
                        }
                    }
                    if g == 1 {
                        break;
                    }
                    levels.pair();
                    levels.merge();
                }
            }
        }
    }

    /// The mapper without contraction or the dense blossom: group weights
    /// summed from the cells at every level, times `sign`, paired by the
    /// edge-list blossom.
    fn reference_mapping(m: &CommMatrix, sign: i64) -> Mapping {
        let n = m.num_threads();
        let mut groups: Vec<Vec<usize>> = (0..n).map(|t| vec![t]).collect();
        while groups.len() > 1 {
            let g = groups.len();
            let mut edges = Vec::new();
            for a in 0..g {
                for b in a + 1..g {
                    let w = sign * group_weight(&groups[a], &groups[b], m) as i64;
                    edges.push((a, b, w));
                }
            }
            let mate = crate::max_weight_matching(g, &edges, true);
            groups = (0..g)
                .filter_map(|a| {
                    mate[a]
                        .filter(|&b| a < b)
                        .map(|b| [&groups[a][..], &groups[b]].concat())
                })
                .collect();
        }
        let mut thread_to_core = vec![0; n];
        for (core, &thread) in groups[0].iter().enumerate() {
            thread_to_core[thread] = core;
        }
        Mapping::new(thread_to_core)
    }

    #[test]
    fn reused_buffers_map_as_fresh_ones_do() {
        let fresh = map_on_fresh_buffers;
        let (a, b) = (random_matrix(16, 4), random_matrix(64, 5));
        let (a_map, b_map, b_worst) = (fresh(&a, 1), fresh(&b, 1), fresh(&b, -1));
        let (ta, tb) = (Topology::scaled(16).unwrap(), Topology::scaled(64).unwrap());
        let mapper = HierarchicalMapper::new();
        // A, then B of another size (and B's worst case, on negated
        // weights), then A again, all on this thread's buffers.
        assert_eq!(mapper.map(&a, &ta), a_map);
        assert_eq!(mapper.map(&b, &tb), b_map);
        assert_eq!(crate::baselines::worst_case(&b, &tb), b_worst);
        assert_eq!(mapper.map(&a, &ta), a_map);
        assert_eq!(mapper.map(&b, &tb), b_map);
        let kept = || {
            SPARE_LEVELS.with(|spare| {
                let levels = spare.take();
                let cells = levels
                    .as_ref()
                    .map_or(0, |l| l.w.capacity().max(l.next_w.capacity()));
                spare.set(levels);
                cells
            })
        };
        assert!(kept() >= 64 * 64);
        // A map above the bound leaves no buffers behind. Each group's
        // heaviest partner is unique at every level of this one, so the
        // certified pairing decides them all without a blossom.
        let n = 2 * KEPT_THREADS;
        let mut big = CommMatrix::new(n);
        for i in 0..n {
            for j in i + 1..n {
                big.add(i, j, 1 << (12 - (i ^ j).ilog2()));
            }
        }
        let tbig = Topology::scaled(n).unwrap();
        assert_eq!(mapper.map(&big, &tbig), fresh(&big, 1));
        assert_eq!(kept(), 0);
        assert_eq!(mapper.map(&a, &ta), a_map);
    }

    /// A map of `m` (times `sign`) on new buffers, not this thread's.
    fn map_on_fresh_buffers(m: &CommMatrix, sign: i64) -> Mapping {
        let topo = Topology::scaled(m.num_threads()).unwrap();
        let mut levels = Levels::default();
        match_levels_in(&mut levels, m, sign, &topo, &Recorder::disabled()).unwrap()
    }

    #[test]
    fn mapper_and_worst_case_match_the_cross_product_reference() {
        for seed in 0..16 {
            let n = 8 << (seed % 4);
            let (m, topo) = (random_matrix(n, seed), Topology::scaled(n).unwrap());
            assert_eq!(
                HierarchicalMapper::new().map(&m, &topo),
                reference_mapping(&m, 1)
            );
            assert_eq!(
                crate::baselines::worst_case(&m, &topo),
                reference_mapping(&m, -1)
            );
        }
    }
}
