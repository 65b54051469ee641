//! Observation hooks — where the paper's detectors plug into the machine.

use crate::mapping::Mapping;
use tlbmap_cache::{AccessKind, AccessOutcome, MemOp};
use tlbmap_mem::{Mmu, Tlb, VirtAddr, Vpn};

/// Read-only view of every core's TLB plus the thread-on-core assignment,
/// handed to detectors. For the SM mechanism this models the in-memory TLB
/// mirrors; for HM it models the proposed TLB-read instruction.
pub struct TlbView<'a> {
    mmus: &'a [Mmu],
    thread_on_core: &'a [Option<usize>],
}

impl<'a> TlbView<'a> {
    /// Construct a view (engine-internal, public for tests and tools).
    pub fn new(mmus: &'a [Mmu], thread_on_core: &'a [Option<usize>]) -> Self {
        debug_assert_eq!(mmus.len(), thread_on_core.len());
        TlbView {
            mmus,
            thread_on_core,
        }
    }

    /// Number of cores in the machine.
    pub fn num_cores(&self) -> usize {
        self.mmus.len()
    }

    /// The TLB of `core`.
    pub fn tlb(&self, core: usize) -> &Tlb {
        self.mmus[core].tlb()
    }

    /// Which thread is pinned to `core` (`None` for idle cores).
    pub fn thread_on(&self, core: usize) -> Option<usize> {
        self.thread_on_core[core]
    }
}

/// Callbacks fired by the engine. All have no-op defaults so a detector
/// implements only what it observes. Cycle counts returned by the TLB-miss
/// and tick hooks are charged to the interrupted core — this is how
/// detection *overhead* (Table III, §VI-C) becomes visible in execution
/// time.
pub trait SimHooks {
    /// Declare that the two per-access callbacks, [`on_access`] and
    /// [`on_access_outcome`], are no-ops. When `true`, the engine skips
    /// them — behaviourally identical, since the skipped bodies would
    /// observe nothing, but it removes two dynamic dispatches from every
    /// simulated access. The rare callbacks (TLB miss, tick, barrier) are
    /// always dispatched. Any implementation that overrides a per-access
    /// callback must return `false` (the default).
    ///
    /// [`on_access`]: SimHooks::on_access
    /// [`on_access_outcome`]: SimHooks::on_access_outcome
    fn is_inert(&self) -> bool {
        false
    }

    /// Every memory access, before translation. Ground-truth detectors use
    /// this; the paper's mechanisms cannot (that would be full tracing).
    fn on_access(&mut self, core: usize, thread: usize, vaddr: VirtAddr, op: MemOp) {
        let _ = (core, thread, vaddr, op);
    }

    /// After the cache hierarchy serviced an access: the timing/routing
    /// outcome, i.e. what per-core hardware performance counters observe
    /// (hits, misses, snoop-serviced). Indirect estimators in the style of
    /// Azimi et al. (related work, Section II) build on this — they never
    /// see addresses, only events.
    fn on_access_outcome(&mut self, core: usize, thread: usize, outcome: &AccessOutcome) {
        let _ = (core, thread, outcome);
    }

    /// A TLB miss on `core`, before the fill — the software-managed trap.
    /// `kind` distinguishes data from instruction misses: the paper's SM
    /// mechanism only searches on *data* misses ("we are only interested
    /// in TLB misses due to data accesses", §VI-C), since code pages are
    /// shared by every thread and would add pure noise. Returns extra
    /// cycles to charge to the faulting core.
    fn on_tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        view: &TlbView<'_>,
    ) -> u64 {
        let _ = (core, thread, vpn, kind, view);
        0
    }

    /// The periodic interrupt (hardware-managed mechanism). `now` is the
    /// global cycle estimate. Returns extra cycles to charge to the
    /// interrupted core.
    fn on_tick(&mut self, now: u64, view: &TlbView<'_>) -> u64 {
        let _ = (now, view);
        0
    }

    /// Fired when a barrier releases — the engine's safe migration point
    /// (every thread is parked). Returning `Some(mapping)` migrates
    /// threads to the new placement: the engine flushes the affected
    /// cores' TLBs and charges `SimConfig::migration_cost` per moved
    /// thread. This is the entry point for the paper's future-work
    /// dynamic migration strategies.
    fn on_barrier(&mut self, barrier_idx: u64, view: &TlbView<'_>) -> Option<Mapping> {
        let _ = (barrier_idx, view);
        None
    }
}

/// A hook that observes nothing — plain simulation.
pub struct NoHooks;

impl SimHooks for NoHooks {
    fn is_inert(&self) -> bool {
        true
    }
}

/// Run several hooks in sequence (e.g. a detector plus a tracer); overhead
/// cycles are summed.
pub struct ChainedHooks<'a> {
    hooks: Vec<&'a mut dyn SimHooks>,
}

impl<'a> ChainedHooks<'a> {
    /// Chain the given hooks, fired in order.
    pub fn new(hooks: Vec<&'a mut dyn SimHooks>) -> Self {
        ChainedHooks { hooks }
    }
}

impl SimHooks for ChainedHooks<'_> {
    fn is_inert(&self) -> bool {
        self.hooks.iter().all(|h| h.is_inert())
    }

    fn on_access(&mut self, core: usize, thread: usize, vaddr: VirtAddr, op: MemOp) {
        for h in &mut self.hooks {
            h.on_access(core, thread, vaddr, op);
        }
    }

    fn on_access_outcome(&mut self, core: usize, thread: usize, outcome: &AccessOutcome) {
        for h in &mut self.hooks {
            h.on_access_outcome(core, thread, outcome);
        }
    }

    fn on_tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        view: &TlbView<'_>,
    ) -> u64 {
        self.hooks
            .iter_mut()
            .map(|h| h.on_tlb_miss(core, thread, vpn, kind, view))
            .sum()
    }

    fn on_tick(&mut self, now: u64, view: &TlbView<'_>) -> u64 {
        self.hooks.iter_mut().map(|h| h.on_tick(now, view)).sum()
    }

    fn on_barrier(&mut self, barrier_idx: u64, view: &TlbView<'_>) -> Option<Mapping> {
        // Last hook returning a mapping wins (later hooks see fresher
        // state; chaining two remappers is a configuration error anyway).
        self.hooks
            .iter_mut()
            .filter_map(|h| h.on_barrier(barrier_idx, view))
            .last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_mem::{MmuConfig, PageGeometry};

    struct Counter {
        accesses: u64,
        misses: u64,
        ticks: u64,
        cost: u64,
    }

    impl SimHooks for Counter {
        fn on_access(&mut self, _: usize, _: usize, _: VirtAddr, _: MemOp) {
            self.accesses += 1;
        }
        fn on_tlb_miss(
            &mut self,
            _: usize,
            _: usize,
            _: Vpn,
            _: AccessKind,
            _: &TlbView<'_>,
        ) -> u64 {
            self.misses += 1;
            self.cost
        }
        fn on_tick(&mut self, _: u64, _: &TlbView<'_>) -> u64 {
            self.ticks += 1;
            self.cost
        }
    }

    fn mmus(n: usize) -> Vec<Mmu> {
        (0..n)
            .map(|_| Mmu::new(MmuConfig::paper_software_managed(), PageGeometry::new_4k()))
            .collect()
    }

    #[test]
    fn view_exposes_tlbs_and_threads() {
        let mmus = mmus(2);
        let on_core = vec![Some(1), None];
        let view = TlbView::new(&mmus, &on_core);
        assert_eq!(view.num_cores(), 2);
        assert_eq!(view.thread_on(0), Some(1));
        assert_eq!(view.thread_on(1), None);
        assert_eq!(view.tlb(0).occupancy(), 0);
    }

    #[test]
    fn no_hooks_charge_nothing() {
        let mmus = mmus(1);
        let on_core = vec![Some(0)];
        let view = TlbView::new(&mmus, &on_core);
        let mut h = NoHooks;
        assert_eq!(h.on_tlb_miss(0, 0, Vpn(1), AccessKind::Data, &view), 0);
        assert_eq!(h.on_tick(100, &view), 0);
    }

    #[test]
    fn chained_hooks_fire_all_and_sum_costs() {
        let mmus = mmus(1);
        let on_core = vec![Some(0)];
        let view = TlbView::new(&mmus, &on_core);
        let mut a = Counter {
            accesses: 0,
            misses: 0,
            ticks: 0,
            cost: 3,
        };
        let mut b = Counter {
            accesses: 0,
            misses: 0,
            ticks: 0,
            cost: 4,
        };
        {
            let mut chain = ChainedHooks::new(vec![&mut a, &mut b]);
            chain.on_access(0, 0, VirtAddr(0), MemOp::Read);
            assert_eq!(chain.on_tlb_miss(0, 0, Vpn(0), AccessKind::Data, &view), 7);
            assert_eq!(chain.on_tick(5, &view), 7);
        }
        assert_eq!((a.accesses, a.misses, a.ticks), (1, 1, 1));
        assert_eq!((b.accesses, b.misses, b.ticks), (1, 1, 1));
    }
}
