//! Thread-to-core mapping from communication matrices.
//!
//! The paper maps threads with a heuristic built on the **maximum-weight
//! perfect matching** problem (Section V-A, Figure 2): model threads as
//! vertices of a complete graph weighted by the communication matrix, pair
//! them up with Edmonds' algorithm so paired threads share an L2, then build
//! the *pairs-of-pairs* matrix
//! `H((x,y),(z,k)) = M(x,z) + M(x,k) + M(y,z) + M(y,k)` and re-run the
//! matching one level up the memory hierarchy, and so on.
//!
//! * [`matching`] — a full O(n³) blossom implementation of maximum-weight
//!   matching on general graphs (with the max-cardinality option that makes
//!   it a maximum-weight *perfect* matching on complete graphs), its dense
//!   complete-graph form that the mapper runs, the O(n²) certified
//!   heaviest-neighbour pairing tried before it, plus a brute-force oracle
//!   and a greedy baseline.
//! * [`hierarchy_map`] — the paper's level-by-level mapper, contracting the
//!   group weights from one level to the next.
//! * [`bisect`] — a Scotch-style recursive-bisection mapper (the alternative
//!   method the paper mentions), used as an ablation baseline.
//! * [`baselines`] — OS/identity, round-robin, random and worst-case
//!   mappings.
//! * [`cost`] — mapping cost functions for comparing all of the above.

pub mod baselines;
pub mod bisect;
pub mod cost;
pub mod exhaustive;
pub mod hierarchy_map;
pub mod matching;

pub use bisect::RecursiveBisectionMapper;
pub use cost::{mapping_cost, normalized_mapping_quality};
pub use exhaustive::exhaustive_best_mapping;
pub use hierarchy_map::{check_matrix_total, max_matrix_total, HierarchicalMapper};
pub use matching::{
    brute_force_max_weight_perfect_matching, certified_unique_pairing, greedy_matching,
    max_weight_matching, perfect_matching_pairs,
};
// The Mapping type itself lives next to the engine that consumes it.
pub use tlbmap_sim::Mapping;
