//! The cycle-interleaved execution engine.
//!
//! Threads execute their traces on the cores the [`Mapping`] pins them to.
//! The engine always advances the thread whose core clock is smallest, so
//! accesses from different cores interleave in (approximate) global cycle
//! order — the property the coherence protocol and the detectors depend on.
//! For speed, the chosen thread runs a *batch* of events until its clock
//! passes the next-smallest running clock; within a batch no other core can
//! have issued an access anyway.
//!
//! Barriers implement OpenMP-style phase structure: every live thread must
//! arrive before any proceeds, and all participants restart at the same
//! cycle (plus a configurable barrier cost).

use crate::config::SimConfig;
use crate::hooks::{SimHooks, TlbView};
use crate::jitter::Jitter;
use crate::mapping::Mapping;
use crate::numa::PageHomes;
use crate::sched::RunQueue;
use crate::stats::RunStats;
use crate::topology::Topology;
use crate::trace::{barriers_consistent, ThreadTrace, TraceEvent};
use tlbmap_cache::{AccessKind, MemoryHierarchy};
use tlbmap_mem::{Mmu, PageTable};
use tlbmap_obs::{CounterId, ProfId, Recorder};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Running,
    AtBarrier,
    Done,
}

/// The serial engine's only execution plan. Exists only because the
/// benchmark harness (`perfbench/`) calls
/// `simulate_with_plan(…, ExecPlan::serial())`; goes with that harness's
/// next change.
#[derive(Debug, Clone, Copy)]
pub struct ExecPlan;

impl ExecPlan {
    /// The exact serial engine.
    pub fn serial() -> Self {
        ExecPlan
    }
}

/// Run `traces` on the machine described by `cfg`/`topo` under `mapping`,
/// firing `hooks` at the architectural observation points.
///
/// # Panics
/// Panics if the mapping size does not match the trace count, a mapped core
/// id exceeds the topology, the hierarchy's core count disagrees with the
/// topology, or the traces have inconsistent barrier counts.
pub fn simulate(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
) -> RunStats {
    simulate_observed(cfg, topo, traces, mapping, hooks, &Recorder::disabled())
}

/// [`simulate`], additionally feeding engine-level events (TLB misses,
/// barriers, migrations, ticks) and flight-recorder windows into `rec`. Pass
/// [`Recorder::disabled`] to observe nothing; every probe then collapses
/// to a single branch.
///
/// # Panics
/// Same conditions as [`simulate`].
pub fn simulate_observed(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
    rec: &Recorder,
) -> RunStats {
    // Monomorphize so the unobserved engine contains no probe code at all:
    // the per-event `advance` call would otherwise cost a branch in the
    // hottest loop of the simulator.
    if rec.is_enabled() {
        run::<true>(cfg, topo, traces, mapping, hooks, rec)
    } else {
        run::<false>(cfg, topo, traces, mapping, hooks, rec)
    }
}

/// [`simulate`], wrapped for the benchmark harness (`perfbench/`); goes
/// with that harness's next change.
///
/// # Errors
/// Never; the `Result` keeps the harness's call site compiling.
///
/// # Panics
/// Same conditions as [`simulate`].
pub fn simulate_with_plan(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
    _plan: ExecPlan,
) -> Result<RunStats, String> {
    Ok(simulate(cfg, topo, traces, mapping, hooks))
}

fn run<const OBSERVED: bool>(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
    rec: &Recorder,
) -> RunStats {
    let n_threads = traces.len();
    let n_cores = topo.num_cores();
    assert_eq!(
        mapping.num_threads(),
        n_threads,
        "mapping covers {} threads but {} traces were given",
        mapping.num_threads(),
        n_threads
    );
    assert_eq!(
        cfg.hierarchy.num_cores(),
        n_cores,
        "hierarchy configured for {} cores but topology has {}",
        cfg.hierarchy.num_cores(),
        n_cores
    );
    assert!(
        barriers_consistent(traces),
        "threads disagree on barrier count; the workload would deadlock"
    );

    let mut thread_on_core = mapping.threads_on_cores(n_cores);
    let mut core_of: Vec<usize> = (0..n_threads).map(|t| mapping.core_of(t)).collect();

    let mut page_table = PageTable::new(cfg.geometry);
    let mut mmus: Vec<Mmu> = (0..n_cores)
        .map(|_| Mmu::new(cfg.mmu, cfg.geometry))
        .collect();
    // Lines are numbered by the page index their TLB entry carries.
    let mut hierarchy =
        MemoryHierarchy::with_page_shift(cfg.hierarchy.clone(), cfg.geometry.page_shift);
    let mut jitter = Jitter::new(cfg.jitter, n_threads);
    let mut page_homes = cfg.numa.map(|nc| PageHomes::new(nc.policy, topo.chips));

    let mut clocks = vec![0u64; n_cores];
    let mut pos = vec![0usize; n_threads];
    let mut state = vec![ThreadState::Running; n_threads];
    for (t, trace) in traces.iter().enumerate() {
        if trace.is_empty() {
            state[t] = ThreadState::Done;
        }
    }

    // Run queue over runnable threads, keyed by core clock. Invariant: a
    // thread is queued iff its state is `Running`, at its core's current
    // clock. Keeps next-thread selection O(log T) instead of a full scan.
    let mut runq = RunQueue::new(n_threads);
    for t in 0..n_threads {
        if state[t] == ThreadState::Running {
            runq.push(t, clocks[core_of[t]]);
        }
    }

    // A hook set that observes no per-access callback (plain simulation,
    // the SM and HM detectors) lets the engine skip the two per-access
    // dynamic dispatches; the skipped bodies would observe nothing. The
    // rare callbacks (TLB miss, tick, barrier) are always dispatched.
    let inert = hooks.is_inert();

    let mut next_tick = cfg.tick_period;
    let mut detection_overhead = 0u64;
    let mut detection_searches = 0u64;
    let mut accesses = 0u64;
    let mut barriers_crossed = 0u64;
    let mut migrations = 0u64;

    loop {
        // Pick the running thread with the smallest core clock; the batch
        // limit is the second-smallest running clock. Ordering in the queue
        // is (clock, thread id), matching the scan this replaced: lowest
        // thread id wins clock ties.
        let (t, limit) = match runq.peek() {
            Some((t, _)) => (t, runq.second_min_clock()),
            None => {
                // Nobody runnable: either everyone is done, or every live
                // thread waits at the barrier — release it.
                if state.iter().all(|&s| s == ThreadState::Done) {
                    break;
                }
                let release_at = (0..n_threads)
                    .filter(|&t| state[t] == ThreadState::AtBarrier)
                    .map(|t| clocks[core_of[t]])
                    .max()
                    .expect("at least one thread waits at the barrier")
                    + cfg.barrier_cost;
                for t in 0..n_threads {
                    if state[t] == ThreadState::AtBarrier {
                        clocks[core_of[t]] = release_at;
                        state[t] = ThreadState::Running;
                    }
                }
                barriers_crossed += 1;
                if OBSERVED {
                    rec.record_barrier(barriers_crossed - 1, release_at);
                    rec.prof_charge(ProfId::Barrier, cfg.barrier_cost);
                }

                // Barrier release is the safe migration point: every live
                // thread is parked at the same cycle.
                let view = TlbView::new(&mmus, &thread_on_core);
                let requested = hooks.on_barrier(barriers_crossed - 1, &view);
                if let Some(new_map) = requested {
                    assert_eq!(
                        new_map.num_threads(),
                        n_threads,
                        "remapper returned a mapping for {} threads, run has {}",
                        new_map.num_threads(),
                        n_threads
                    );
                    let mut new_clocks = clocks.clone();
                    for t in 0..n_threads {
                        let oc = core_of[t];
                        let nc = new_map.core_of(t);
                        assert!(nc < n_cores, "remapper core {nc} out of range");
                        // Done threads are repositioned for bookkeeping
                        // consistency but pay no migration.
                        if state[t] == ThreadState::Done {
                            core_of[t] = nc;
                            continue;
                        }
                        if oc != nc {
                            migrations += 1;
                            if OBSERVED {
                                rec.record_migration(t, oc, nc);
                                rec.prof_charge(ProfId::Migration, cfg.migration_cost);
                            }
                            // The thread's translations stay behind on the
                            // old core and are useless to whoever arrives
                            // there; both TLBs start cold.
                            mmus[oc].flush();
                            mmus[nc].flush();
                            new_clocks[nc] = release_at + cfg.migration_cost;
                        }
                        core_of[t] = nc;
                    }
                    clocks = new_clocks;
                    thread_on_core = new_map.threads_on_cores(n_cores);
                }
                // The queue was empty (no thread was Running); requeue the
                // released threads at their post-barrier/migration clocks.
                for t in 0..n_threads {
                    if state[t] == ThreadState::Running {
                        runq.push(t, clocks[core_of[t]]);
                    }
                }
                continue;
            }
        };
        let core = core_of[t];

        // Execute a batch: until this thread's clock passes the next
        // runnable thread, or it blocks/finishes. The trace position and
        // core clock live in locals for the batch (written back on exit),
        // keeping bounds-checked slice traffic out of the per-event loop.
        // The batch streams packed 8-byte words and decodes inline; the
        // enum never materializes in memory.
        let trace = traces[t].words();
        let mut p = pos[t];
        let mut clk = clocks[core];
        while state[t] == ThreadState::Running && clk <= limit {
            let Some(&word) = trace.get(p) else {
                // Trace ended on a barrier: nothing left after release.
                state[t] = ThreadState::Done;
                break;
            };
            p += 1;
            // The running core's clock is the global minimum, so it is the
            // best cycle estimate for events and flight-window scheduling.
            if OBSERVED {
                rec.advance(clk);
            }
            match word.unpack() {
                TraceEvent::Compute(c) => {
                    let scaled = jitter.scale(t, c);
                    if OBSERVED {
                        rec.prof_charge(ProfId::EngineCompute, scaled);
                    }
                    clk += scaled;
                }
                TraceEvent::Barrier => {
                    state[t] = ThreadState::AtBarrier;
                }
                TraceEvent::Access { vaddr, op, kind } => {
                    accesses += 1;
                    if !inert {
                        hooks.on_access(core, t, vaddr, op);
                    }
                    let mut cycles = 0u64;
                    let translation = match mmus[core].lookup(vaddr) {
                        Some(tr) => tr,
                        None => {
                            let vpn = vaddr.vpn(cfg.geometry);
                            if OBSERVED {
                                rec.record_tlb_miss(core, t, vpn.0, kind == AccessKind::Data);
                            }
                            let view = TlbView::new(&mmus, &thread_on_core);
                            let overhead = hooks.on_tlb_miss(core, t, vpn, kind, &view);
                            if overhead > 0 {
                                detection_overhead += overhead;
                                detection_searches += 1;
                                cycles += overhead;
                                if OBSERVED {
                                    rec.prof_charge(ProfId::MissDetectScan, overhead);
                                }
                            }
                            mmus[core].fill(vaddr, &mut page_table)
                        }
                    };
                    cycles += translation.cycles;
                    let home_chip = page_homes.as_mut().map(|ph| {
                        ph.home_of(
                            translation.page,
                            vaddr.vpn(cfg.geometry),
                            topo.chip_of(core),
                        )
                    });
                    let out = hierarchy.access_page(
                        core,
                        translation.paddr.0,
                        translation.page,
                        op,
                        kind,
                        home_chip,
                    );
                    if !inert {
                        hooks.on_access_outcome(core, t, &out);
                    }
                    cycles += out.cycles;
                    if OBSERVED {
                        rec.prof_charge(ProfId::EngineAccess, 0);
                        rec.prof_charge(ProfId::TlbLookup, translation.cycles);
                        rec.prof_charge(ProfId::CacheAccess, out.cycles);
                    }
                    clk += cycles;
                }
            }
            if p == trace.len() && state[t] == ThreadState::Running {
                state[t] = ThreadState::Done;
            }

            // Periodic tick (HM interrupt). Fired against the minimum
            // (this) core's clock, which tracks global progress.
            if let Some(period) = cfg.tick_period {
                // A single large Compute event can jump several periods;
                // fire every interrupt that became due.
                let mut tick_at = next_tick.expect("next_tick set when period set");
                while clk >= tick_at {
                    if OBSERVED {
                        rec.set_cycle(tick_at);
                        rec.inc(CounterId::Ticks);
                    }
                    let view = TlbView::new(&mmus, &thread_on_core);
                    let overhead = hooks.on_tick(tick_at, &view);
                    if OBSERVED {
                        rec.prof_charge(ProfId::TickDetectScan, overhead);
                    }
                    if overhead > 0 {
                        detection_overhead += overhead;
                        detection_searches += 1;
                        clk += overhead;
                    }
                    tick_at += period;
                }
                next_tick = Some(tick_at);
            }
        }
        pos[t] = p;
        clocks[core] = clk;

        // Reposition the thread at its new clock, or drop it from the queue
        // if the batch ended at a barrier or end-of-trace. The batch thread
        // was the queue minimum and its clock only advanced, so both are
        // root-only heap operations.
        if state[t] == ThreadState::Running {
            runq.advance_min(clocks[core]);
        } else {
            runq.pop_min();
        }
    }

    let total_cycles = clocks.iter().copied().max().unwrap_or(0);
    if OBSERVED {
        rec.add(CounterId::Accesses, accesses);
        rec.finish(total_cycles);
    }

    RunStats {
        total_cycles,
        core_cycles: clocks,
        tlb: mmus.iter().map(|m| m.tlb_stats()).collect(),
        cache: *hierarchy.stats(),
        detection_overhead_cycles: detection_overhead,
        detection_searches,
        accesses,
        barriers: barriers_crossed,
        migrations,
        frequency_hz: cfg.frequency_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use tlbmap_mem::{VirtAddr, Vpn};

    fn topo() -> Topology {
        Topology::harpertown()
    }

    fn cfg() -> SimConfig {
        SimConfig::paper_software_managed(&topo())
    }

    fn page(i: u64) -> VirtAddr {
        VirtAddr(i * 4096)
    }

    #[test]
    fn empty_traces_finish_immediately() {
        let traces: Vec<ThreadTrace> = vec![ThreadTrace::new(); 8];
        let stats = simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::identity(8),
            &mut NoHooks,
        );
        assert_eq!(stats.total_cycles, 0);
        assert_eq!(stats.accesses, 0);
    }

    #[test]
    fn single_thread_sequential_costs() {
        let traces: Vec<ThreadTrace> = vec![vec![
            TraceEvent::Compute(100),
            TraceEvent::read(page(1)),
            TraceEvent::read(page(1)),
        ]
        .into()];
        // Machine still has 8 cores; one thread on core 0.
        let mut cfg8 = cfg();
        cfg8.barrier_cost = 0;
        let m = Mapping::new(vec![0]);
        let stats = simulate(&cfg8, &topo(), &traces, &m, &mut NoHooks);
        // 100 compute + (miss: trap 120 + 3*100 walk, then L1 miss → L2 miss
        // → memory: 2+8+200) + (hit: 0 translation, L1 hit: 2 cycles)
        assert_eq!(stats.total_cycles, 100 + 420 + 210 + 2);
        assert_eq!(stats.tlb_misses(), 1);
        assert_eq!(stats.accesses, 2);
    }

    #[test]
    fn profiler_accounts_every_simulated_cycle() {
        use tlbmap_obs::{Json, ObsConfig};
        // Same workload as `single_thread_sequential_costs`: the known
        // breakdown is 100 compute + 420 TLB (trap + walk) + 212 cache.
        let traces: Vec<ThreadTrace> = vec![vec![
            TraceEvent::Compute(100),
            TraceEvent::read(page(1)),
            TraceEvent::read(page(1)),
        ]
        .into()];
        let mut cfg8 = cfg();
        cfg8.barrier_cost = 0;
        let rec = Recorder::new(ObsConfig::new(1));
        let stats = simulate_observed(
            &cfg8,
            &topo(),
            &traces,
            &Mapping::new(vec![0]),
            &mut NoHooks,
            &rec,
        );
        // Read back through the exported metrics document.
        let doc = rec.metrics_json();
        let profile = doc.get("profile").and_then(Json::as_array).unwrap();
        let field = |id: ProfId, name: &str| {
            profile
                .iter()
                .find(|c| c.get("component").and_then(Json::as_str) == Some(id.path().as_str()))
                .map_or(0, |c| c.get(name).and_then(Json::as_u64).unwrap())
        };
        assert_eq!(field(ProfId::EngineCompute, "exclusive_cycles"), 100);
        assert_eq!(field(ProfId::TlbLookup, "exclusive_cycles"), 420);
        assert_eq!(field(ProfId::CacheAccess, "exclusive_cycles"), 212);
        assert_eq!(field(ProfId::EngineAccess, "calls"), 2);
        let exclusive_sum: u64 = profile
            .iter()
            .map(|c| c.get("exclusive_cycles").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(exclusive_sum, stats.total_cycles);
        assert_eq!(
            field(ProfId::Engine, "inclusive_cycles"),
            stats.total_cycles
        );
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        // Thread 0 computes 1000 cycles, thread 1 computes 10; both then
        // read their own page. After the barrier both clocks align.
        let traces: Vec<ThreadTrace> = vec![
            vec![
                TraceEvent::Compute(1000),
                TraceEvent::Barrier,
                TraceEvent::Compute(1),
            ]
            .into(),
            vec![
                TraceEvent::Compute(10),
                TraceEvent::Barrier,
                TraceEvent::Compute(1),
            ]
            .into(),
        ];
        let mut c = cfg();
        c.barrier_cost = 500;
        let stats = simulate(
            &c,
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut NoHooks,
        );
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.core_cycles[0], 1000 + 500 + 1);
        assert_eq!(stats.core_cycles[1], 1000 + 500 + 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn inconsistent_barriers_rejected() {
        let traces: Vec<ThreadTrace> = vec![vec![TraceEvent::Barrier].into(), ThreadTrace::new()];
        simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut NoHooks,
        );
    }

    #[test]
    fn shared_page_hits_tlb_hook() {
        struct MissCounter {
            misses: u64,
            sharers_seen: u64,
        }
        impl SimHooks for MissCounter {
            fn on_tlb_miss(
                &mut self,
                core: usize,
                _t: usize,
                vpn: Vpn,
                _kind: tlbmap_cache::AccessKind,
                view: &TlbView<'_>,
            ) -> u64 {
                self.misses += 1;
                for other in 0..view.num_cores() {
                    if other != core && view.tlb(other).contains(vpn) {
                        self.sharers_seen += 1;
                    }
                }
                0
            }
        }
        // Thread 0 touches page 7 first; after the barrier thread 1 touches
        // it too and must observe thread 0's TLB entry.
        let traces: Vec<ThreadTrace> = vec![
            vec![TraceEvent::read(page(7)), TraceEvent::Barrier].into(),
            vec![TraceEvent::Barrier, TraceEvent::read(page(7))].into(),
        ];
        let mut hook = MissCounter {
            misses: 0,
            sharers_seen: 0,
        };
        simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut hook,
        );
        assert_eq!(hook.misses, 2);
        assert_eq!(hook.sharers_seen, 1);
    }

    #[test]
    fn inert_hooks_skip_only_the_per_access_callbacks() {
        #[derive(Default)]
        struct RareOnly {
            misses: u64,
            ticks: u64,
            barriers: u64,
        }
        impl SimHooks for RareOnly {
            fn is_inert(&self) -> bool {
                true
            }
            fn on_access(&mut self, _: usize, _: usize, _: VirtAddr, _: tlbmap_cache::MemOp) {
                panic!("an inert hook must not see per-access callbacks");
            }
            fn on_tlb_miss(
                &mut self,
                _: usize,
                _: usize,
                _: Vpn,
                _: tlbmap_cache::AccessKind,
                _: &TlbView<'_>,
            ) -> u64 {
                self.misses += 1;
                0
            }
            fn on_tick(&mut self, _now: u64, _view: &TlbView<'_>) -> u64 {
                self.ticks += 1;
                0
            }
            fn on_barrier(&mut self, _: u64, _: &TlbView<'_>) -> Option<Mapping> {
                self.barriers += 1;
                None
            }
        }
        let traces: Vec<ThreadTrace> = vec![
            vec![
                TraceEvent::read(page(3)),
                TraceEvent::Barrier,
                TraceEvent::Compute(5000),
            ]
            .into(),
            vec![TraceEvent::Barrier, TraceEvent::read(page(4))].into(),
        ];
        let c = cfg().with_tick_period(Some(1000));
        let mut hook = RareOnly::default();
        simulate(&c, &topo(), &traces, &Mapping::new(vec![0, 1]), &mut hook);
        assert_eq!(hook.misses, 2);
        assert_eq!(hook.barriers, 1);
        assert!(hook.ticks >= 4, "expected ticks, got {}", hook.ticks);
    }

    #[test]
    fn tick_hook_fires_periodically() {
        struct TickCounter(u64);
        impl SimHooks for TickCounter {
            fn on_tick(&mut self, _now: u64, _view: &TlbView<'_>) -> u64 {
                self.0 += 1;
                1 // nonzero so the engine counts the search
            }
        }
        let traces: Vec<ThreadTrace> = vec![vec![TraceEvent::Compute(100); 100].into()]; // 10k cycles
        let mut c = cfg().with_tick_period(Some(1000));
        c.barrier_cost = 0;
        let mut hook = TickCounter(0);
        let stats = simulate(&c, &topo(), &traces, &Mapping::new(vec![0]), &mut hook);
        assert!(hook.0 >= 9, "expected ~10 ticks, got {}", hook.0);
        assert_eq!(stats.detection_searches, hook.0);
        assert_eq!(stats.detection_overhead_cycles, hook.0);
    }

    #[test]
    fn detection_overhead_slows_the_core() {
        struct Expensive;
        impl SimHooks for Expensive {
            fn on_tlb_miss(
                &mut self,
                _: usize,
                _: usize,
                _: Vpn,
                _: tlbmap_cache::AccessKind,
                _: &TlbView<'_>,
            ) -> u64 {
                10_000
            }
        }
        let traces: Vec<ThreadTrace> = vec![vec![TraceEvent::read(page(1))].into()];
        let m = Mapping::new(vec![0]);
        let base = simulate(&cfg(), &topo(), &traces, &m, &mut NoHooks);
        let slowed = simulate(&cfg(), &topo(), &traces, &m, &mut Expensive);
        assert_eq!(slowed.total_cycles, base.total_cycles + 10_000);
        assert_eq!(slowed.detection_overhead_cycles, 10_000);
    }

    #[test]
    fn mapping_changes_which_cores_work() {
        let traces: Vec<ThreadTrace> = vec![
            vec![TraceEvent::read(page(1))].into(),
            vec![TraceEvent::read(page(2))].into(),
        ];
        let stats = simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::new(vec![5, 2]),
            &mut NoHooks,
        );
        assert!(stats.core_cycles[5] > 0);
        assert!(stats.core_cycles[2] > 0);
        assert_eq!(stats.core_cycles[0], 0);
    }

    #[test]
    fn sharing_mapping_affects_snoops() {
        // Threads ping-pong writes on one page. On the same L2 there are no
        // interconnect snoops; on different chips every re-read snoops.
        let mut a = ThreadTrace::new();
        let mut b = ThreadTrace::new();
        for _ in 0..50 {
            a.push(TraceEvent::write(page(3)));
            a.push(TraceEvent::Barrier);
            b.push(TraceEvent::Barrier);
            b.push(TraceEvent::read(page(3)));
            a.push(TraceEvent::Barrier);
            b.push(TraceEvent::Barrier);
        }
        let near = simulate(
            &cfg(),
            &topo(),
            &[a.clone(), b.clone()],
            &Mapping::new(vec![0, 1]),
            &mut NoHooks,
        );
        let far = simulate(
            &cfg(),
            &topo(),
            &[a, b],
            &Mapping::new(vec![0, 4]),
            &mut NoHooks,
        );
        assert_eq!(near.cache.snoop_transactions, 0);
        assert!(far.cache.snoop_transactions > 10);
        assert!(far.cache.invalidations > 10);
        assert_eq!(near.cache.invalidations, 0);
    }

    #[test]
    fn deterministic_without_jitter() {
        let traces: Vec<ThreadTrace> = (0..4)
            .map(|t| {
                (0..100)
                    .map(|i| TraceEvent::read(page((t * 13 + i * 7) % 40)))
                    .collect()
            })
            .collect();
        let m = Mapping::new(vec![0, 2, 4, 6]);
        let a = simulate(&cfg(), &topo(), &traces, &m, &mut NoHooks);
        let b = simulate(&cfg(), &topo(), &traces, &m, &mut NoHooks);
        assert_eq!(a, b);
    }

    #[test]
    fn barrier_migration_moves_threads_and_charges_cost() {
        struct SwapOnce(bool);
        impl SimHooks for SwapOnce {
            fn on_barrier(&mut self, _idx: u64, _view: &TlbView<'_>) -> Option<Mapping> {
                if self.0 {
                    None
                } else {
                    self.0 = true;
                    Some(Mapping::new(vec![4, 1])) // thread 0: core 0 -> 4
                }
            }
        }
        // Two phases; thread 0 touches page 9 in both.
        let traces: Vec<ThreadTrace> = vec![
            vec![
                TraceEvent::read(page(9)),
                TraceEvent::Barrier,
                TraceEvent::read(page(9)),
            ]
            .into(),
            vec![TraceEvent::Barrier, TraceEvent::Compute(1)].into(),
        ];
        let mut c = cfg();
        c.barrier_cost = 0;
        c.migration_cost = 5_000;
        let stats = simulate(
            &c,
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut SwapOnce(false),
        );
        assert_eq!(stats.migrations, 1);
        // Thread 0 finished phase 2 on core 4.
        assert!(
            stats.core_cycles[4] > 0,
            "migrated thread must run on core 4"
        );
        // Migration cost is visible and the refetch is a TLB miss (cold
        // TLB on the new core): 2 misses total for thread 0's page.
        assert!(stats.core_cycles[4] >= 5_000);
        assert_eq!(stats.tlb_misses(), 2);
    }

    #[test]
    fn no_migration_when_hook_returns_same_mapping() {
        struct SameMapping;
        impl SimHooks for SameMapping {
            fn on_barrier(&mut self, _idx: u64, _view: &TlbView<'_>) -> Option<Mapping> {
                Some(Mapping::new(vec![0, 1]))
            }
        }
        let traces: Vec<ThreadTrace> = vec![
            vec![
                TraceEvent::read(page(1)),
                TraceEvent::Barrier,
                TraceEvent::read(page(1)),
            ]
            .into(),
            vec![TraceEvent::Barrier, TraceEvent::Compute(1)].into(),
        ];
        let stats = simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut SameMapping,
        );
        assert_eq!(stats.migrations, 0);
        // TLB survives: second read of page 1 hits.
        assert_eq!(stats.tlb_misses(), 1);
    }

    #[test]
    fn numa_first_touch_penalizes_cross_chip_consumers() {
        use crate::numa::NumaPolicy;
        use tlbmap_cache::{CacheConfig, HierarchyConfig, L2Group};
        // Tiny L2s so the producer's buffer spills to memory before the
        // consumer reads it — forcing true memory fetches.
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
        let topo = Topology::new(2, 1, 2); // 2 chips x 1 L2 x 2 cores
        let hierarchy = HierarchyConfig {
            l1i: l1,
            l1d: l1,
            l2,
            mem_latency: 200,
            c2c_intra_chip: 40,
            c2c_inter_chip: 120,
            write_invalidate_penalty: 20,
            numa_remote_penalty: 150,
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
        };
        let mut c = SimConfig::paper_software_managed(&topo);
        c.hierarchy = hierarchy;
        c.numa = Some(crate::numa::NumaConfig {
            policy: NumaPolicy::FirstTouch,
        });
        c.barrier_cost = 0;

        // Producer (thread 0) writes 64 lines; consumer (thread 1) reads
        // them after a barrier.
        let mut producer = ThreadTrace::new();
        let mut consumer = ThreadTrace::new();
        consumer.push(TraceEvent::Barrier);
        for i in 0..64u64 {
            producer.push(TraceEvent::write(VirtAddr(i * 64)));
            consumer.push(TraceEvent::read(VirtAddr(i * 64)));
        }
        producer.push(TraceEvent::Barrier);
        let traces = vec![producer, consumer];

        // Same chip: all fetches local to the producer's node.
        let near = simulate(&c, &topo, &traces, &Mapping::new(vec![0, 1]), &mut NoHooks);
        // Cross chip: the consumer's fetches go remote.
        let far = simulate(&c, &topo, &traces, &Mapping::new(vec![0, 2]), &mut NoHooks);
        assert_eq!(near.cache.mem_fetches_remote, 0);
        assert!(
            far.cache.mem_fetches_remote > 0,
            "cross-chip consumer must fetch remotely"
        );
        assert!(
            far.total_cycles > near.total_cycles,
            "NUMA must penalize the cross-chip placement ({} vs {})",
            far.total_cycles,
            near.total_cycles
        );
    }

    #[test]
    fn jitter_varies_total_cycles() {
        let traces: Vec<ThreadTrace> = vec![vec![TraceEvent::Compute(10_000); 50].into()];
        let m = Mapping::new(vec![0]);
        let a = simulate(&cfg().with_jitter(1), &topo(), &traces, &m, &mut NoHooks);
        let b = simulate(&cfg().with_jitter(2), &topo(), &traces, &m, &mut NoHooks);
        assert_ne!(a.total_cycles, b.total_cycles);
    }
}
