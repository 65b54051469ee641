//! Property-based tests of the coherent cache hierarchy.

use proptest::prelude::*;
use tlbmap_cache::{
    AccessKind, CacheConfig, HierarchyConfig, L2Group, LineAddr, MemOp, MemoryHierarchy,
};

fn small_hierarchy() -> MemoryHierarchy {
    MemoryHierarchy::new(small_config())
}

fn small_config() -> HierarchyConfig {
    let l1 = CacheConfig {
        size_bytes: 64 * 8,
        line_size: 64,
        ways: 2,
        latency: 2,
    };
    let l2 = CacheConfig {
        size_bytes: 64 * 32,
        line_size: 64,
        ways: 4,
        latency: 8,
    };
    HierarchyConfig {
        l1i: l1,
        l1d: l1,
        l2,
        mem_latency: 200,
        c2c_intra_chip: 40,
        c2c_inter_chip: 120,
        write_invalidate_penalty: 20,
        numa_remote_penalty: 0,
        groups: vec![
            L2Group {
                cores: vec![0, 1],
                chip: 0,
            },
            L2Group {
                cores: vec![2, 3],
                chip: 1,
            },
        ],
    }
}

#[derive(Debug, Clone)]
struct Step {
    core: usize,
    addr: u64,
    write: bool,
    instr: bool,
}

fn step() -> impl Strategy<Value = Step> {
    (
        0usize..4,
        0u64..40,
        any::<bool>(),
        prop::bool::weighted(0.1),
    )
        .prop_map(|(core, line, write, instr)| Step {
            core,
            addr: line * 64 + (line % 8), // within-line offsets too
            write: write && !instr,       // no instruction writes
            instr,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any access sequence: MESI exclusivity holds for every line,
    /// L1⊆L2 inclusion holds, and the miss taxonomy adds up.
    #[test]
    fn coherence_invariants(steps in prop::collection::vec(step(), 1..300)) {
        let mut h = small_hierarchy();
        let mut lines = std::collections::HashSet::new();
        for s in &steps {
            let op = if s.write { MemOp::Write } else { MemOp::Read };
            let kind = if s.instr { AccessKind::Instr } else { AccessKind::Data };
            h.access(s.core, s.addr, op, kind);
            lines.insert(LineAddr::of(s.addr, 6));
        }
        for &l in &lines {
            prop_assert!(h.mesi_invariant_holds(l), "MESI violated for {:?}", l);
        }
        prop_assert!(h.inclusion_holds(), "L1 line without L2 backing");
        let st = h.stats();
        prop_assert_eq!(
            st.l2_misses,
            st.l2_cold_misses + st.l2_capacity_misses + st.l2_coherence_misses
        );
        prop_assert_eq!(
            st.snoop_transactions,
            st.snoops_intra_chip + st.snoops_inter_chip
        );
        prop_assert_eq!(st.l1d_hits + st.l1d_misses + st.l1i_hits + st.l1i_misses,
            steps.len() as u64);
    }

    /// Reads never invalidate anything, and a single-core workload never
    /// produces coherence traffic.
    #[test]
    fn single_core_has_no_coherence_traffic(addrs in prop::collection::vec(0u64..100, 1..200)) {
        let mut h = small_hierarchy();
        for (i, &a) in addrs.iter().enumerate() {
            let op = if i % 3 == 0 { MemOp::Write } else { MemOp::Read };
            h.access(0, a * 64, op, AccessKind::Data);
        }
        prop_assert_eq!(h.stats().invalidations, 0);
        prop_assert_eq!(h.stats().snoop_transactions, 0);
        prop_assert_eq!(h.stats().l2_coherence_misses, 0);
    }

    /// Access cost is exactly one of the legal latency combinations.
    #[test]
    fn cycles_come_from_the_latency_model(steps in prop::collection::vec(step(), 1..100)) {
        let mut h = small_hierarchy();
        for s in &steps {
            let op = if s.write { MemOp::Write } else { MemOp::Read };
            let out = h.access(s.core, s.addr, op, AccessKind::Data);
            // Enumerate legal cost structures:
            //   reads: 2 | 2+8 | 2+8+{40,120,200}
            //   writes: 2 (+20 upgrade) | 2+8+{40,120,200} (+20)
            let legal = [
                2, 2 + 8, 2 + 8 + 40, 2 + 8 + 120, 2 + 8 + 200,
                2 + 20, 2 + 8 + 40 + 20, 2 + 8 + 120 + 20, 2 + 8 + 200 + 20,
            ];
            prop_assert!(
                legal.contains(&out.cycles),
                "unexpected access cost {} for {:?}",
                out.cycles,
                s
            );
        }
    }

    /// Writing threads placed behind the same L2 never cause interconnect
    /// invalidations; the same accesses split across chips can.
    #[test]
    fn co_location_eliminates_invalidations(lines in prop::collection::vec(0u64..16, 10..60)) {
        // Same-L2 pair: cores 0 and 1.
        let mut near = small_hierarchy();
        for (i, &l) in lines.iter().enumerate() {
            let core = i % 2; // cores 0,1
            let op = if i % 2 == 0 { MemOp::Write } else { MemOp::Read };
            near.access(core, l * 64, op, AccessKind::Data);
        }
        prop_assert_eq!(near.stats().invalidations, 0);
        // Cross-chip pair: cores 0 and 2, same access pattern.
        let mut far = small_hierarchy();
        let mut far_inv = 0;
        for (i, &l) in lines.iter().enumerate() {
            let core = if i % 2 == 0 { 0 } else { 2 };
            let op = if i % 2 == 0 { MemOp::Write } else { MemOp::Read };
            far.access(core, l * 64, op, AccessKind::Data);
            far_inv = far.stats().invalidations;
        }
        // Far placement is allowed to invalidate; near must not.
        prop_assert!(far_inv >= near.stats().invalidations);
    }
}

/// A hierarchy with `groups` L2 groups of two cores each, split across
/// `chips` chips. Tiny caches force evictions so the directory sees the
/// full install/evict/invalidate lifecycle, not just installs.
fn mixed_hierarchy(groups: usize, chips: usize) -> MemoryHierarchy {
    let l1 = CacheConfig {
        size_bytes: 64 * 8,
        line_size: 64,
        ways: 2,
        latency: 2,
    };
    let l2 = CacheConfig {
        size_bytes: 64 * 16,
        line_size: 64,
        ways: 4,
        latency: 8,
    };
    MemoryHierarchy::new(HierarchyConfig {
        l1i: l1,
        l1d: l1,
        l2,
        mem_latency: 200,
        c2c_intra_chip: 40,
        c2c_inter_chip: 120,
        write_invalidate_penalty: 20,
        numa_remote_penalty: 0,
        groups: (0..groups)
            .map(|g| L2Group {
                cores: vec![2 * g, 2 * g + 1],
                chip: g * chips / groups,
            })
            .collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sparse owner directory must agree with a full snoop scan —
    /// both on who holds a line and on which supplier the miss path would
    /// pick — after every step of a random access sequence, across
    /// topologies from a single chip to eight L2 groups on four chips.
    #[test]
    fn directory_matches_full_snoop_scan(
        shape in prop::sample::select(vec![(2usize, 1usize), (2, 2), (4, 2), (8, 4)]),
        accesses in prop::collection::vec((0usize..16, 0u64..24, any::<bool>()), 1..250),
    ) {
        let (groups, chips) = shape;
        let cores = groups * 2;
        let mut h = mixed_hierarchy(groups, chips);
        let mut lines = std::collections::HashSet::new();
        for &(core, line, write) in &accesses {
            let op = if write { MemOp::Write } else { MemOp::Read };
            h.access(core % cores, line * 64, op, AccessKind::Data);
            lines.insert(LineAddr::of(line * 64, 6));
            for &l in &lines {
                prop_assert_eq!(
                    h.directory_mask(l),
                    h.residency_mask_scan(l),
                    "directory out of sync for {:?} after touching line {}",
                    l,
                    line
                );
                for g in 0..groups {
                    prop_assert_eq!(
                        h.find_holder_directory(g, l),
                        h.find_holder_scan(g, l),
                        "supplier choice diverged for {:?} from group {}",
                        l,
                        g
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cold / capacity / coherence miss counts equal those of a naive
    /// model after every step, across the topologies above. The model keeps,
    /// per L2, a set of lines ever resident and a set of lines lost to an
    /// invalidation, and updates them from the residency every L2 shows
    /// before and after each access: a line appearing in an L2 is ever
    /// resident there, and the accessed line vanishing from another L2 was
    /// invalidated. A miss is coherence if the line was lost (which the miss
    /// forgets), else capacity if it was ever resident, else cold.
    #[test]
    fn miss_taxonomy_matches_naive_model(
        shape in prop::sample::select(vec![(2usize, 1usize), (2, 2), (4, 2), (8, 4)]),
        accesses in prop::collection::vec((0usize..16, 0u64..24, any::<bool>()), 1..250),
    ) {
        let (groups, chips) = shape;
        let cores = groups * 2;
        let mut h = mixed_hierarchy(groups, chips);
        let mut ever = vec![std::collections::HashSet::new(); groups];
        let mut lost = vec![std::collections::HashSet::new(); groups];
        let mut want = [0u64; 3]; // cold, capacity, coherence
        for (step, &(core, line, write)) in accesses.iter().enumerate() {
            let core = core % cores;
            let g = h.l2_of(core);
            let before: Vec<u64> = (0..24).map(|l| h.residency_mask_scan(LineAddr(l))).collect();
            let misses = h.stats().l2_misses;
            let op = if write { MemOp::Write } else { MemOp::Read };
            h.access(core, line * 64, op, AccessKind::Data);
            if h.stats().l2_misses > misses {
                let kind = if lost[g].remove(&line) {
                    2
                } else if ever[g].contains(&line) {
                    1
                } else {
                    0
                };
                want[kind] += 1;
            }
            for (l, was) in (0u64..).zip(before) {
                let now = h.residency_mask_scan(LineAddr(l));
                for x in 0..groups {
                    let bit = 1 << x;
                    if now & bit != 0 {
                        ever[x].insert(l);
                    }
                    if l == line && x != g && was & !now & bit != 0 {
                        lost[x].insert(l);
                    }
                }
            }
            let st = h.stats();
            prop_assert_eq!(
                [st.l2_cold_misses, st.l2_capacity_misses, st.l2_coherence_misses],
                want,
                "taxonomy diverged at step {} (core {}, line {}, write {})",
                step,
                core,
                line,
                write
            );
        }
    }
}
