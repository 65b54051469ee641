//! Integration tests of the dynamic-migration extension: the full
//! future-work loop (detect → drift → remap → migrate) running inside the
//! engine.

use tlbmap::detect::dynamic::MatrixSource;
use tlbmap::detect::{CommMatrix, OnlineRemapper, SmConfig, SmDetector};
use tlbmap::mapping::HierarchicalMapper;
use tlbmap::mem::Vpn;
use tlbmap::obs::drift::ppm;
use tlbmap::obs::{Event, ObsConfig, Recorder, DEFAULT_PHASE_THRESHOLD};
use tlbmap::serve::{DeltaDecision, ServeConfig, SessionRegistry};
use tlbmap::sim::{simulate, AccessKind, Mapping, SimConfig, SimHooks, TlbView, Topology};
use tlbmap::workloads::synthetic;

fn topo() -> Topology {
    Topology::harpertown()
}

fn remapper(n: usize) -> OnlineRemapper<SmDetector> {
    let topo = topo();
    OnlineRemapper::new(
        SmDetector::new(n, SmConfig::every_miss()),
        2, // consider remapping every 2 barriers
        Box::new(move |matrix| HierarchicalMapper::new().map(matrix, &topo)),
    )
}

#[test]
fn online_remapper_migrates_on_phase_change() {
    let n = 8;
    // Neighbours for the first half, distant pairs for the second.
    let workload = synthetic::phase_shift(n, 64, 12);
    let cfg = SimConfig::paper_software_managed(&topo());
    let mut hook = remapper(n);
    let stats = simulate(
        &cfg,
        &topo(),
        &workload.traces,
        &Mapping::identity(n),
        &mut hook,
    );
    assert!(
        hook.remaps() >= 2,
        "expected an initial mapping plus at least one phase remap, got {}",
        hook.remaps()
    );
    assert!(stats.migrations > 0, "remaps must actually migrate threads");
}

#[test]
fn dynamic_migration_beats_stale_static_mapping() {
    let n = 8;
    // Long phases: migration refills each thread's working set from the
    // old core's L2 (a few thousand cache-to-cache transfers), so the
    // remap only pays off when the new phase lasts long enough — 20
    // iterations per phase amortize it comfortably.
    let workload = synthetic::phase_shift(n, 64, 40);
    let topo = topo();
    let cfg = SimConfig::paper_software_managed(&topo);

    // Static mapping computed from phase-1 behaviour only (goes stale when
    // the pattern flips at the midpoint). phase_shift's first phase is a
    // ring with offset 1, so identity — neighbours adjacent — is that
    // stale optimum. Both runs carry the same always-on detector so the
    // comparison isolates the migration benefit from detection overhead.
    let stale = Mapping::identity(n);
    let mut static_det = SmDetector::new(n, SmConfig::every_miss());
    let static_run = simulate(&cfg, &topo, &workload.traces, &stale, &mut static_det);

    let mut hook = remapper(n);
    let dynamic_run = simulate(&cfg, &topo, &workload.traces, &stale, &mut hook);

    assert!(
        dynamic_run.cache.snoop_transactions < static_run.cache.snoop_transactions,
        "dynamic remapping should reduce snoops ({} vs {})",
        dynamic_run.cache.snoop_transactions,
        static_run.cache.snoop_transactions
    );
    assert!(
        dynamic_run.total_cycles < static_run.total_cycles,
        "dynamic remapping should pay off despite migration costs ({} vs {})",
        dynamic_run.total_cycles,
        static_run.total_cycles
    );
}

#[test]
fn stable_pattern_triggers_at_most_one_remap() {
    let n = 8;
    // Pure ring pattern throughout: after the initial placement there is
    // no drift, so no further migrations.
    let workload = synthetic::ring_neighbors(n, 64, 8);
    let cfg = SimConfig::paper_software_managed(&topo());
    let mut hook = remapper(n);
    let stats = simulate(
        &cfg,
        &topo(),
        &workload.traces,
        &Mapping::identity(n),
        &mut hook,
    );
    assert!(
        hook.remaps() <= 1,
        "stable pattern must not thrash the mapping (remaps = {})",
        hook.remaps()
    );
    assert!(stats.migrations <= n as u64);
}

/// An SM detector that keeps a copy of every window the remapper closes
/// (forwarding the hooks `SmDetector` implements).
struct Logged {
    inner: SmDetector,
    windows: Vec<CommMatrix>,
}

impl MatrixSource for Logged {
    fn take_matrix(&mut self) -> CommMatrix {
        let window = self.inner.take_matrix();
        self.windows.push(window.clone());
        window
    }
}

impl SimHooks for Logged {
    fn is_inert(&self) -> bool {
        self.inner.is_inert()
    }
    fn on_tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        view: &TlbView<'_>,
    ) -> u64 {
        self.inner.on_tlb_miss(core, thread, vpn, kind, view)
    }
}

/// Run the remapper (a window every 2 barriers) on the 12-iteration
/// two-phase workload under SM sampling 1-in-`sample`; returns the
/// remapper, and the windows it judged a phase change with their
/// similarity.
fn sampled_run(sample: u32) -> (OnlineRemapper<Logged>, Vec<(u64, u64)>) {
    let n = 8;
    let topo = topo();
    let rec = Recorder::new(ObsConfig::new(n));
    let config = SmConfig {
        sample_threshold: sample,
    };
    let detector = Logged {
        inner: SmDetector::new(n, config),
        windows: Vec::new(),
    };
    let mut hook = OnlineRemapper::new(
        detector,
        2,
        Box::new(move |matrix| HierarchicalMapper::new().map(matrix, &topo)),
    )
    .with_recorder(rec.clone());
    let traces = synthetic::phase_shift(n, 64, 12).traces;
    let cfg = SimConfig::paper_software_managed(&topo);
    simulate(&cfg, &topo, &traces, &Mapping::identity(n), &mut hook);
    let mut changes = Vec::new();
    for e in rec.events() {
        if let Event::PhaseChange {
            window,
            similarity_ppm: ppm,
            ..
        } = e
        {
            changes.push((window, ppm));
        }
    }
    (hook, changes)
}

#[test]
fn sampled_windows_remap_once_per_phase() {
    // Windows 0-2 cover phase 0 and 3-5 phase 1. Whatever the sampling,
    // the remapper installs one mapping per phase, and phase 1 starts at
    // window 3. The list is not pinned: at 1-in-4 the judge also flags
    // window 5 without remapping, a known over-trigger.
    for sample in [1, 2, 4] {
        let (hook, changes) = sampled_run(sample);
        let windows: Vec<u64> = changes.iter().map(|&(w, _)| w).collect();
        assert_eq!(hook.remaps(), 2, "sampling 1-in-{sample}");
        assert!(windows.starts_with(&[0, 3]), "1-in-{sample}: {windows:?}");
    }
}

#[test]
fn engine_remapper_and_session_judge_windows_alike() {
    // The engine's tumbling windows, replayed as deltas into a memoryless
    // session (decay shift 0) with no cooldown at the same threshold,
    // must get the same verdict window for window.
    for sample in [1, 4] {
        let (hook, changes) = sampled_run(sample);
        let windows = &hook.detector().windows;
        assert_eq!(windows.len() as u64, hook.windows_closed());
        let rec = Recorder::disabled();
        let registry = SessionRegistry::new(&ServeConfig::new());
        let threshold = Some(ppm(DEFAULT_PHASE_THRESHOLD));
        let (id, _) = registry
            .open(topo(), Some(0), threshold, Some(0), &rec)
            .unwrap();
        for (w, window) in windows.iter().enumerate() {
            let out = registry.delta(id, window, &rec).unwrap();
            let engine = changes.iter().find(|&&(cw, _)| cw == w as u64);
            let session = (out.decision == DeltaDecision::Remap).then_some(out.similarity_ppm);
            assert_eq!(
                engine.map(|&(_, ppm)| ppm),
                session,
                "sampling 1-in-{sample}, window {w}: {out:?}"
            );
        }
    }
}
