//! The self-profiler: scoped cycle accounting for the simulator itself.
//!
//! Answers "where do simulated cycles go?" — the engine charges every
//! cycle it spends to a component in a fixed tree (compute, TLB lookup,
//! cache access, detection scans, barriers, migrations, ticks, mapper
//! rounds). Components form a static stack, so the profile exports as
//! inclusive/exclusive totals with call counts per `root;...;leaf` path,
//! which `tlbmap analyze` renders as collapsed-stack/flamegraph text.
//!
//! Charging uses *simulated* cycles, not host time, so two identical
//! seeded runs produce byte-identical profiles — the property the
//! `tlbmap analyze` / `tlbmap diff` pipeline gates on. The profile lives
//! inside the [`crate::Recorder`]; a disabled recorder charges nothing
//! and the engine's monomorphized probes compile away entirely.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Components of the static profile tree.
///
/// The tree:
///
/// ```text
/// engine
/// ├── compute
/// ├── access
/// │   ├── tlb          (lookup + fill: trap and page-walk cycles)
/// │   ├── detect       (detection scans triggered by TLB misses)
/// │   └── cache        (hierarchy access, coherence, memory)
/// ├── tick
/// │   └── detect       (periodic HM scans)
/// ├── barrier
/// └── migration
/// mapper
/// └── level            (one hierarchical-matching round each)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfId {
    /// The execution engine (root; charged only via children).
    Engine,
    /// Compute (non-memory) trace events.
    EngineCompute,
    /// Memory-access trace events (parent of tlb/detect/cache).
    EngineAccess,
    /// TLB lookups and fills (trap + page-walk cycles on a miss).
    TlbLookup,
    /// Detection scans charged on TLB misses (SM mechanism).
    MissDetectScan,
    /// Cache-hierarchy accesses (hits, coherence, memory fetches).
    CacheAccess,
    /// Periodic interrupts (parent of the HM scan).
    EngineTick,
    /// Detection scans charged by the periodic tick (HM mechanism).
    TickDetectScan,
    /// Barrier release costs.
    Barrier,
    /// Thread-migration costs.
    Migration,
    /// The thread mapper (root; charged only via children).
    Mapper,
    /// One hierarchical-matching level (call counts; mapping runs
    /// off the simulated clock so it charges no cycles).
    MapperLevel,
}

/// All components, in tree order (parents before children).
pub const PROF_NODES: [ProfId; 12] = [
    ProfId::Engine,
    ProfId::EngineCompute,
    ProfId::EngineAccess,
    ProfId::TlbLookup,
    ProfId::MissDetectScan,
    ProfId::CacheAccess,
    ProfId::EngineTick,
    ProfId::TickDetectScan,
    ProfId::Barrier,
    ProfId::Migration,
    ProfId::Mapper,
    ProfId::MapperLevel,
];

impl ProfId {
    /// Short component name (one stack frame).
    pub fn as_str(self) -> &'static str {
        match self {
            ProfId::Engine => "engine",
            ProfId::EngineCompute => "compute",
            ProfId::EngineAccess => "access",
            ProfId::TlbLookup => "tlb",
            ProfId::MissDetectScan => "detect",
            ProfId::CacheAccess => "cache",
            ProfId::EngineTick => "tick",
            ProfId::TickDetectScan => "detect",
            ProfId::Barrier => "barrier",
            ProfId::Migration => "migration",
            ProfId::Mapper => "mapper",
            ProfId::MapperLevel => "level",
        }
    }

    /// Enclosing component, `None` for roots.
    pub fn parent(self) -> Option<ProfId> {
        match self {
            ProfId::Engine | ProfId::Mapper => None,
            ProfId::EngineCompute
            | ProfId::EngineAccess
            | ProfId::EngineTick
            | ProfId::Barrier
            | ProfId::Migration => Some(ProfId::Engine),
            ProfId::TlbLookup | ProfId::MissDetectScan | ProfId::CacheAccess => {
                Some(ProfId::EngineAccess)
            }
            ProfId::TickDetectScan => Some(ProfId::EngineTick),
            ProfId::MapperLevel => Some(ProfId::Mapper),
        }
    }

    /// Full `root;...;leaf` stack path (the collapsed-stack key).
    pub fn path(self) -> String {
        match self.parent() {
            None => self.as_str().to_string(),
            Some(p) => format!("{};{}", p.path(), self.as_str()),
        }
    }
}

/// Lock-free per-component cycle and call accumulators.
#[derive(Debug)]
pub struct Profile {
    cycles: [AtomicU64; PROF_NODES.len()],
    calls: [AtomicU64; PROF_NODES.len()],
}

impl Default for Profile {
    fn default() -> Self {
        Profile {
            cycles: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Profile {
    /// Charge `cycles` (exclusive) to `id` and count one call.
    #[inline]
    pub fn charge(&self, id: ProfId, cycles: u64) {
        self.calls[id as usize].fetch_add(1, Ordering::Relaxed);
        if cycles > 0 {
            self.cycles[id as usize].fetch_add(cycles, Ordering::Relaxed);
        }
    }

    /// Exclusive cycles charged directly to `id`.
    pub fn exclusive_cycles(&self, id: ProfId) -> u64 {
        self.cycles[id as usize].load(Ordering::Relaxed)
    }

    /// Calls charged to `id` (its own, not descendants').
    pub fn calls(&self, id: ProfId) -> u64 {
        self.calls[id as usize].load(Ordering::Relaxed)
    }

    /// Inclusive cycles: `id`'s own plus every descendant's.
    pub fn inclusive_cycles(&self, id: ProfId) -> u64 {
        let mut total = self.exclusive_cycles(id);
        for node in PROF_NODES {
            let mut cur = node.parent();
            while let Some(p) = cur {
                if p == id {
                    total += self.exclusive_cycles(node);
                    break;
                }
                cur = p.parent();
            }
        }
        total
    }

    /// Whether `id` or any descendant saw a call.
    fn active(&self, id: ProfId) -> bool {
        if self.calls(id) > 0 {
            return true;
        }
        PROF_NODES.iter().any(|&node| {
            let mut cur = node.parent();
            while let Some(p) = cur {
                if p == id {
                    return self.calls(node) > 0;
                }
                cur = p.parent();
            }
            false
        })
    }

    /// JSON export: one record per active component with call counts and
    /// inclusive/exclusive cycles, in tree order.
    pub fn to_json(&self) -> Json {
        let items: Vec<Json> = PROF_NODES
            .iter()
            .filter(|&&n| self.active(n))
            .map(|&n| {
                Json::obj(vec![
                    ("component", Json::Str(n.path())),
                    ("calls", Json::U64(self.calls(n))),
                    ("exclusive_cycles", Json::U64(self.exclusive_cycles(n))),
                    ("inclusive_cycles", Json::U64(self.inclusive_cycles(n))),
                ])
            })
            .collect();
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_follow_the_tree() {
        assert_eq!(ProfId::Engine.path(), "engine");
        assert_eq!(ProfId::TlbLookup.path(), "engine;access;tlb");
        assert_eq!(ProfId::TickDetectScan.path(), "engine;tick;detect");
        assert_eq!(ProfId::MapperLevel.path(), "mapper;level");
    }

    #[test]
    fn inclusive_sums_descendants() {
        let p = Profile::default();
        p.charge(ProfId::TlbLookup, 100);
        p.charge(ProfId::CacheAccess, 40);
        p.charge(ProfId::EngineCompute, 10);
        p.charge(ProfId::MissDetectScan, 0); // call only
        assert_eq!(p.exclusive_cycles(ProfId::TlbLookup), 100);
        assert_eq!(p.inclusive_cycles(ProfId::EngineAccess), 140);
        assert_eq!(p.inclusive_cycles(ProfId::Engine), 150);
        assert_eq!(p.calls(ProfId::MissDetectScan), 1);
    }

    #[test]
    fn json_includes_parents_of_active_leaves() {
        let p = Profile::default();
        p.charge(ProfId::TickDetectScan, 84_297);
        let j = p.to_json();
        let items = j.as_array().unwrap();
        let paths: Vec<&str> = items
            .iter()
            .map(|i| i.get("component").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(paths, vec!["engine", "engine;tick", "engine;tick;detect"]);
        // The parent's inclusive cycles cover the leaf.
        assert_eq!(
            items[0].get("inclusive_cycles").unwrap().as_u64(),
            Some(84_297)
        );
        assert_eq!(items[0].get("exclusive_cycles").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn empty_profile_renders_empty() {
        let p = Profile::default();
        assert_eq!(p.to_json().as_array().unwrap().len(), 0);
    }
}
