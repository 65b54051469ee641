//! Property-based tests of the detection layer.

use proptest::prelude::*;
use tlbmap_core::metrics::{cosine_similarity, normalized_mse, pearson_correlation};
use tlbmap_core::{CommMatrix, GroundTruthConfig, GroundTruthDetector};
use tlbmap_mem::{PageGeometry, VirtAddr};

fn add_op() -> impl Strategy<Value = (usize, usize, u64)> {
    (0usize..6, 0usize..6, 0u64..1000)
}

proptest! {
    /// The communication matrix stays symmetric with a zero diagonal under
    /// arbitrary add/merge sequences, and `total` matches the sum of pairs.
    #[test]
    fn matrix_invariants(adds in prop::collection::vec(add_op(), 0..100),
                         merges in prop::collection::vec(add_op(), 0..100)) {
        let mut a = CommMatrix::new(6);
        for (i, j, w) in adds {
            a.add(i, j, w);
            prop_assert!(a.invariants_hold());
        }
        let mut b = CommMatrix::new(6);
        for (i, j, w) in merges {
            b.add(i, j, w);
        }
        a.merge(&b);
        prop_assert!(a.invariants_hold());
        let total: u64 = a.pairs().map(|(_, _, v)| v).sum();
        prop_assert_eq!(total, a.total());
    }

    /// Similarity metrics are symmetric, bounded, and maximal on identical
    /// shapes regardless of scale.
    #[test]
    fn metric_properties(adds in prop::collection::vec(add_op(), 1..50), scale in 1u64..20) {
        let mut a = CommMatrix::new(6);
        for &(i, j, w) in &adds {
            a.add(i, j, w);
        }
        let mut b = CommMatrix::new(6);
        for &(i, j, w) in &adds {
            b.add(i, j, w * scale);
        }
        let r = pearson_correlation(&a, &b);
        let c = cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0 + 1e-9).contains(&r), "r out of range: {r}");
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c), "cosine out of range: {c}");
        // Same shape at different scale: cosine 1, mse 0 (unless matrix is
        // all-zero or constant).
        if a.total() > 0 {
            prop_assert!((c - 1.0).abs() < 1e-9, "cosine of scaled copy: {c}");
            prop_assert!(normalized_mse(&a, &b) < 1e-12);
        }
        // Symmetry.
        prop_assert!((pearson_correlation(&b, &a) - r).abs() < 1e-12);
        prop_assert!((cosine_similarity(&b, &a) - c).abs() < 1e-12);
    }

    /// The ground-truth detector records communication iff two different
    /// threads touch the same page within the window; its matrix total is
    /// bounded by accesses × (threads - 1).
    #[test]
    fn ground_truth_bounds(accesses in prop::collection::vec((0usize..4, 0u64..16), 1..300),
                           window in 1u64..100) {
        let n = 4;
        let mut d = GroundTruthDetector::new(n, GroundTruthConfig {
            geometry: PageGeometry::new_4k(),
            window,
        });
        for &(t, page) in &accesses {
            d.observe(t, VirtAddr(page * 4096));
        }
        prop_assert!(d.matrix().invariants_hold());
        prop_assert!(d.matrix().total() <= accesses.len() as u64 * (n as u64 - 1));
        // Replays are deterministic.
        let mut d2 = GroundTruthDetector::new(n, GroundTruthConfig {
            geometry: PageGeometry::new_4k(),
            window,
        });
        for &(t, page) in &accesses {
            d2.observe(t, VirtAddr(page * 4096));
        }
        prop_assert_eq!(d.matrix(), d2.matrix());
    }

    /// A wider window never detects less communication.
    #[test]
    fn window_monotonicity(accesses in prop::collection::vec((0usize..4, 0u64..8), 1..200),
                           w1 in 1u64..50, extra in 1u64..50) {
        let run = |window: u64| -> u64 {
            let mut d = GroundTruthDetector::new(4, GroundTruthConfig {
                geometry: PageGeometry::new_4k(),
                window,
            });
            for &(t, page) in &accesses {
                d.observe(t, VirtAddr(page * 4096));
            }
            d.matrix().total()
        };
        prop_assert!(run(w1 + extra) >= run(w1), "wider window detected less");
    }
}
