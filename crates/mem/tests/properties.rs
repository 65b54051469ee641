//! Property-based tests of the virtual-memory substrate.

use proptest::prelude::*;
use tlbmap_mem::{PageGeometry, PageTable, Pfn, Tlb, TlbConfig, TlbLookup, Vpn};

/// Arbitrary legal TLB geometry: entries = ways * sets, sets a power of 2.
fn tlb_config() -> impl Strategy<Value = TlbConfig> {
    (1usize..=8, 0u32..=5).prop_map(|(ways, set_log)| TlbConfig {
        entries: ways << set_log,
        ways,
    })
}

#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    Insert(u64),
    Invalidate(u64),
    Flush,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..64).prop_map(Op::Access),
        4 => (0u64..64).prop_map(Op::Insert),
        1 => (0u64..64).prop_map(Op::Invalidate),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    /// The TLB never holds more entries than its capacity, never holds a
    /// VPN twice, and every resident VPN sits in the set it indexes to.
    #[test]
    fn tlb_structural_invariants(cfg in tlb_config(), ops in prop::collection::vec(op(), 0..200)) {
        let mut tlb = Tlb::new(cfg);
        for o in ops {
            match o {
                Op::Access(v) => { tlb.access(Vpn(v)); }
                Op::Insert(v) => { tlb.insert(Vpn(v), Pfn(v + 1000), v as u32); }
                Op::Invalidate(v) => { tlb.invalidate(Vpn(v)); }
                Op::Flush => tlb.flush(),
            }
            prop_assert!(tlb.occupancy() <= cfg.entries);
            let mut seen = std::collections::HashSet::new();
            for e in tlb.entries() {
                prop_assert!(seen.insert(e.vpn), "duplicate VPN {:?}", e.vpn);
            }
            for set in 0..cfg.sets() {
                for e in tlb.set_entries(set) {
                    prop_assert_eq!(tlb.set_index(e.vpn), set, "entry in wrong set");
                }
            }
        }
    }

    /// After an insert, the entry is resident; a subsequent access hits
    /// with the inserted translation.
    #[test]
    fn insert_then_hit(cfg in tlb_config(), v in 0u64..1000, p in 0u64..1000) {
        let mut tlb = Tlb::new(cfg);
        tlb.insert(Vpn(v), Pfn(p), p as u32);
        prop_assert!(tlb.contains(Vpn(v)));
        prop_assert_eq!(tlb.access(Vpn(v)), TlbLookup::Hit(Pfn(p), p as u32));
    }

    /// `contains` never changes observable state: stats, occupancy and the
    /// full entry set are identical before and after.
    #[test]
    fn contains_is_pure(cfg in tlb_config(), vs in prop::collection::vec(0u64..64, 0..40), probe in 0u64..64) {
        let mut tlb = Tlb::new(cfg);
        for v in vs {
            tlb.insert(Vpn(v), Pfn(v), v as u32);
        }
        let stats_before = tlb.stats();
        let entries_before: Vec<_> = tlb.entries().collect();
        let _ = tlb.contains(Vpn(probe));
        prop_assert_eq!(tlb.stats(), stats_before);
        prop_assert_eq!(tlb.entries().collect::<Vec<_>>(), entries_before);
    }

    /// True LRU within a set: after filling a set and touching a chosen
    /// entry, inserting one more into the same set never evicts the
    /// touched entry.
    #[test]
    fn lru_protects_most_recent(ways in 2usize..8, touch_idx in 0usize..8) {
        let cfg = TlbConfig { entries: ways * 4, ways };
        let sets = cfg.sets() as u64;
        let mut tlb = Tlb::new(cfg);
        // Fill set 0 exactly: VPNs 0, sets, 2*sets, ...
        for k in 0..ways as u64 {
            tlb.insert(Vpn(k * sets), Pfn(k), k as u32);
        }
        let touched = Vpn((touch_idx as u64 % ways as u64) * sets);
        tlb.access(touched);
        tlb.insert(Vpn(ways as u64 * sets), Pfn(99), 99);
        prop_assert!(tlb.contains(touched), "most recently used entry was evicted");
    }

    /// Page table: walks are stable (same VPN → same PFN and page index),
    /// injective (different VPNs → different PFNs), page indices count
    /// first touches densely from 0, and lookup sees exactly the walked pages.
    #[test]
    fn page_table_stable_and_injective(vpns in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let mut first: std::collections::HashMap<u64, (Pfn, u32)> = std::collections::HashMap::new();
        for &v in &vpns {
            let r = pt.walk(Vpn(v));
            if let Some(&p) = first.get(&v) {
                prop_assert_eq!((r.pfn, r.page), p, "translation changed");
                prop_assert!(!r.allocated);
            } else {
                prop_assert!(r.allocated);
                prop_assert_eq!(r.page as usize, first.len(), "page index not dense");
                first.insert(v, (r.pfn, r.page));
            }
        }
        let distinct: std::collections::HashSet<_> = first.values().map(|&(pfn, _)| pfn).collect();
        prop_assert_eq!(distinct.len(), first.len(), "PFN reused");
        for (&v, &(pfn, _)) in &first {
            prop_assert_eq!(pt.lookup(Vpn(v)), Some(pfn));
        }
        prop_assert_eq!(pt.lookup(Vpn(10_000)), None);
    }
}
