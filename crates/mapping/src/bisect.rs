//! Recursive-bisection mapping — the Scotch-style alternative the paper
//! mentions (*Dual Recursive Bipartitioning*, Section V-A).
//!
//! The thread set is split into two equal halves minimizing the cut
//! (communication crossing the split), recursively, until single threads
//! remain; the in-order leaves map onto the topology's core order. Each
//! bisection uses a greedy growth seed refined with Kernighan–Lin-style
//! swap passes.

use tlbmap_core::CommMatrix;
use tlbmap_sim::{Mapping, Topology};

/// The recursive-bisection mapper.
#[derive(Debug, Clone)]
pub struct RecursiveBisectionMapper {
    /// Maximum KL refinement passes per bisection.
    pub refinement_passes: usize,
}

impl Default for RecursiveBisectionMapper {
    fn default() -> Self {
        RecursiveBisectionMapper {
            refinement_passes: 8,
        }
    }
}

impl RecursiveBisectionMapper {
    /// Mapper with default refinement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Map `matrix.num_threads()` threads onto `topo`.
    ///
    /// # Panics
    /// Panics unless the thread count equals the core count and is a power
    /// of two (bisection halves exactly).
    pub fn map(&self, matrix: &CommMatrix, topo: &Topology) -> Mapping {
        let n = matrix.num_threads();
        assert_eq!(
            n,
            topo.num_cores(),
            "bisection mapper expects one thread per core"
        );
        assert!(
            n.is_power_of_two(),
            "bisection requires a power-of-two thread count"
        );
        let all: Vec<usize> = (0..n).collect();
        let order = self.order(all, matrix);
        let mut thread_to_core = vec![0usize; n];
        for (core, &thread) in order.iter().enumerate() {
            thread_to_core[thread] = core;
        }
        Mapping::new(thread_to_core)
    }

    fn order(&self, threads: Vec<usize>, matrix: &CommMatrix) -> Vec<usize> {
        if threads.len() <= 1 {
            return threads;
        }
        let (a, b) = self.bisect(&threads, matrix);
        let mut out = self.order(a, matrix);
        out.extend(self.order(b, matrix));
        out
    }

    /// Split `threads` into two equal halves, minimizing the cut weight.
    fn bisect(&self, threads: &[usize], matrix: &CommMatrix) -> (Vec<usize>, Vec<usize>) {
        let n = threads.len();
        let half = n / 2;

        // Greedy growth: seed with the thread of highest total weight, then
        // repeatedly pull in the thread most connected to the growing half.
        let total_w = |t: usize| -> u64 { threads.iter().map(|&u| matrix.get(t, u)).sum() };
        let seed = *threads
            .iter()
            .max_by_key(|&&t| (total_w(t), std::cmp::Reverse(t)))
            .expect("non-empty thread set");
        let mut in_a: Vec<bool> = threads.iter().map(|&t| t == seed).collect();
        let mut a_count = 1;
        while a_count < half {
            let mut best: Option<(u64, usize)> = None;
            for (idx, &t) in threads.iter().enumerate() {
                if in_a[idx] {
                    continue;
                }
                let conn: u64 = threads
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| in_a[*j])
                    .map(|(_, &u)| matrix.get(t, u))
                    .sum();
                let better = match best {
                    None => true,
                    Some((bw, bidx)) => conn > bw || (conn == bw && idx < bidx),
                };
                if better {
                    best = Some((conn, idx));
                }
            }
            in_a[best.expect("candidates remain").1] = true;
            a_count += 1;
        }

        // KL refinement: swap the pair with the largest positive gain.
        for _ in 0..self.refinement_passes {
            let mut best_gain: i64 = 0;
            let mut best_pair: Option<(usize, usize)> = None;
            for (ia, &ta) in threads.iter().enumerate() {
                if !in_a[ia] {
                    continue;
                }
                for (ib, &tb) in threads.iter().enumerate() {
                    if in_a[ib] {
                        continue;
                    }
                    // Gain of swapping ta <-> tb: external minus internal
                    // connection difference, corrected for the direct edge.
                    let ext_a: i64 = threads
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| !in_a[*j])
                        .map(|(_, &u)| matrix.get(ta, u) as i64)
                        .sum();
                    let int_a: i64 = threads
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| in_a[*j])
                        .map(|(_, &u)| matrix.get(ta, u) as i64)
                        .sum();
                    let ext_b: i64 = threads
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| in_a[*j])
                        .map(|(_, &u)| matrix.get(tb, u) as i64)
                        .sum();
                    let int_b: i64 = threads
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| !in_a[*j])
                        .map(|(_, &u)| matrix.get(tb, u) as i64)
                        .sum();
                    let gain = (ext_a - int_a) + (ext_b - int_b) - 2 * matrix.get(ta, tb) as i64;
                    if gain > best_gain {
                        best_gain = gain;
                        best_pair = Some((ia, ib));
                    }
                }
            }
            match best_pair {
                Some((ia, ib)) => {
                    in_a[ia] = false;
                    in_a[ib] = true;
                }
                None => break,
            }
        }

        let mut a = Vec::with_capacity(half);
        let mut b = Vec::with_capacity(n - half);
        for (idx, &t) in threads.iter().enumerate() {
            if in_a[idx] {
                a.push(t);
            } else {
                b.push(t);
            }
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::mapping_cost;

    fn clustered() -> CommMatrix {
        // Two tight clusters {0,1,2,3} and {4,5,6,7} with weak cross-talk.
        let mut m = CommMatrix::new(8);
        for c in 0..2 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    m.add(c * 4 + i, c * 4 + j, 50);
                }
            }
        }
        m.add(0, 4, 1);
        m
    }

    #[test]
    fn bisection_separates_clusters() {
        let m = clustered();
        let mapper = RecursiveBisectionMapper::new();
        let threads: Vec<usize> = (0..8).collect();
        let (mut a, _) = mapper.bisect(&threads, &m);
        a.sort_unstable();
        // Only the weak edge (0,4) crosses: each half is one cluster.
        assert!(a == [0, 1, 2, 3] || a == [4, 5, 6, 7], "split {a:?}");
    }

    #[test]
    fn mapping_keeps_clusters_on_chips() {
        let m = clustered();
        let topo = Topology::harpertown();
        let mapping = RecursiveBisectionMapper::new().map(&m, &topo);
        for cluster in [[0usize, 1, 2, 3], [4, 5, 6, 7]] {
            let chip = topo.chip_of(mapping.core_of(cluster[0]));
            for &t in &cluster[1..] {
                assert_eq!(topo.chip_of(mapping.core_of(t)), chip);
            }
        }
    }

    #[test]
    fn refinement_fixes_bad_greedy_split() {
        // Pattern where pure greedy growth can go wrong: a chain.
        let mut m = CommMatrix::new(4);
        m.add(0, 1, 10);
        m.add(1, 2, 1);
        m.add(2, 3, 10);
        let mapper = RecursiveBisectionMapper::new();
        let (mut a, _) = mapper.bisect(&[0, 1, 2, 3], &m);
        a.sort_unstable();
        // Only the weight-1 edge (1,2) crosses.
        assert!(a == [0, 1] || a == [2, 3], "split {a:?}");
    }

    #[test]
    fn beats_identity_on_anti_affine_pattern() {
        let mut m = CommMatrix::new(8);
        for (a, b) in [(0, 4), (1, 5), (2, 6), (3, 7)] {
            m.add(a, b, 50);
        }
        let topo = Topology::harpertown();
        let mapped = RecursiveBisectionMapper::new().map(&m, &topo);
        assert!(mapping_cost(&m, &mapped, &topo) < mapping_cost(&m, &Mapping::identity(8), &topo));
    }

    #[test]
    fn result_is_a_permutation() {
        let m = clustered();
        let mapping = RecursiveBisectionMapper::new().map(&m, &Topology::harpertown());
        let mut seen = [false; 8];
        for t in 0..8 {
            assert!(!seen[mapping.core_of(t)]);
            seen[mapping.core_of(t)] = true;
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let topo = Topology::new(1, 3, 2);
        RecursiveBisectionMapper::new().map(&CommMatrix::new(6), &topo);
    }
}
