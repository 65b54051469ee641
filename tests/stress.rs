//! Randomized cross-component stress: every detector chained together on
//! randomized workloads, mappings and machine knobs. Hunts for panics,
//! counter inconsistencies and invariant violations that targeted tests
//! might miss.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlbmap::detect::{
    CounterConfig, CounterEstimator, GroundTruthConfig, GroundTruthDetector, HmConfig, HmDetector,
    SmConfig, SmDetector,
};
use tlbmap::mapping::{baselines, HierarchicalMapper};
use tlbmap::mem::TlbConfig;
use tlbmap::sim::hooks::ChainedHooks;
use tlbmap::sim::{
    simulate, Mapping, MemOp, NumaPolicy, SimConfig, SimHooks, ThreadTrace, Topology, TraceEvent,
    VirtAddr,
};

/// Counts the accesses a chained non-inert hook is shown.
struct Seen(u64);

impl SimHooks for Seen {
    fn on_access(&mut self, _: usize, _: usize, _: VirtAddr, _: MemOp) {
        self.0 += 1;
    }
}

fn random_traces(rng: &mut SmallRng, n_threads: usize) -> Vec<ThreadTrace> {
    let phases = rng.gen_range(1..4);
    (0..n_threads)
        .map(|t| {
            let mut trace = ThreadTrace::new();
            for _ in 0..phases {
                let events = rng.gen_range(0..300);
                for _ in 0..events {
                    match rng.gen_range(0..10) {
                        0 => trace.push(TraceEvent::Compute(rng.gen_range(1..500))),
                        1 => trace.push(TraceEvent::fetch(VirtAddr(
                            0xC0_0000 + rng.gen_range(0..4u64) * 4096,
                        ))),
                        r => {
                            // Mix of private and shared pages.
                            let page = if r < 6 {
                                (t as u64 + 1) * 0x10_0000 / 4096 + rng.gen_range(0..80)
                            } else {
                                rng.gen_range(0..40)
                            };
                            let a = VirtAddr(page * 4096 + rng.gen_range(0..512) * 8);
                            trace.push(if rng.gen_bool(0.3) {
                                TraceEvent::write(a)
                            } else {
                                TraceEvent::read(a)
                            });
                        }
                    }
                }
                trace.push(TraceEvent::Barrier);
            }
            trace
        })
        .collect()
}

#[test]
fn chained_detectors_survive_random_workloads() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for round in 0..25 {
        let topo = Topology::harpertown();
        let n = rng.gen_range(2..=topo.num_cores());
        let traces = random_traces(&mut rng, n);

        let mut cfg = SimConfig::paper_software_managed(&topo)
            .with_tick_period(Some(rng.gen_range(1_000..200_000)));
        if rng.gen_bool(0.3) {
            cfg = cfg.with_numa(NumaPolicy::FirstTouch, rng.gen_range(0..300));
        }
        if rng.gen_bool(0.3) {
            cfg = cfg.with_jitter(round as u64);
        }
        if rng.gen_bool(0.3) {
            cfg.mmu.tlb = TlbConfig {
                entries: 16,
                ways: [1usize, 2, 4][rng.gen_range(0..3)],
            };
        }
        let mapping = baselines::random(n, &topo, round as u64);

        let mut sm = SmDetector::new(
            n,
            SmConfig {
                sample_threshold: rng.gen_range(1..20),
            },
        );
        let mut hm = HmDetector::new(n, HmConfig::scaled(50_000));
        let mut gt = GroundTruthDetector::new(n, GroundTruthConfig::default());
        let mut counters = CounterEstimator::new(
            n,
            CounterConfig {
                window_accesses: 500,
            },
        );
        let mut seen = Seen(0);
        let stats = {
            let mut chain =
                ChainedHooks::new(vec![&mut sm, &mut hm, &mut gt, &mut counters, &mut seen]);
            simulate(&cfg, &topo, &traces, &mapping, &mut chain)
        };

        // Cross-detector and engine consistency.
        assert!(sm.matrix().invariants_hold(), "round {round}: SM matrix");
        assert!(hm.matrix().invariants_hold(), "round {round}: HM matrix");
        assert!(gt.matrix().invariants_hold(), "round {round}: GT matrix");
        assert!(
            counters.matrix().invariants_hold(),
            "round {round}: counters"
        );
        assert_eq!(seen.0, stats.accesses, "round {round}: GT saw every access");
        assert!(stats.tlb_misses() <= stats.tlb_accesses());
        let c = &stats.cache;
        assert_eq!(
            c.l2_misses,
            c.l2_cold_misses + c.l2_capacity_misses + c.l2_coherence_misses,
            "round {round}: miss taxonomy"
        );
        assert_eq!(
            c.snoop_transactions,
            c.snoops_intra_chip + c.snoops_inter_chip,
            "round {round}: snoop split"
        );

        // Mapping the detected matrix must always be possible when every
        // core is occupied.
        if n == topo.num_cores() && gt.matrix().total() > 0 {
            let mapped = HierarchicalMapper::new().map(gt.matrix(), &topo);
            assert_eq!(mapped.num_threads(), n);
        }
    }
}

#[test]
fn migration_under_stress_preserves_consistency() {
    use tlbmap::detect::OnlineRemapper;
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let rounds = 10;
    let (mut remaps, mut migrations) = (0, 0);
    for round in 0..rounds {
        let topo = Topology::harpertown();
        let n = topo.num_cores();
        let traces = random_traces(&mut rng, n);
        let cfg = SimConfig::paper_software_managed(&topo);
        let t2 = topo;
        let mut hook = OnlineRemapper::new(
            SmDetector::new(n, SmConfig::every_miss()),
            1, // judge every barrier
            Box::new(move |m| HierarchicalMapper::new().map(m, &t2)),
        );
        let stats = simulate(&cfg, &topo, &traces, &Mapping::identity(n), &mut hook);
        assert!(
            stats.migrations <= stats.barriers * n as u64,
            "round {round}: impossible migration count"
        );
        assert_eq!(
            stats.total_cycles,
            stats.core_cycles.iter().copied().max().unwrap_or(0)
        );
        remaps += hook.remaps();
        migrations += stats.migrations;
    }
    // Every round remaps on its first window; the random traces must
    // also drive remaps in later windows, so migration happens mid-run
    // (14 remaps and 84 migrations over the 10 rounds).
    assert!(
        remaps > rounds && migrations > 0,
        "{remaps} remaps, {migrations} migrations over {rounds} rounds"
    );
}
