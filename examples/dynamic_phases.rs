//! Dynamic behaviour: detect a phase change and remap online.
//!
//! The paper's future work ("develop dynamic migration strategies which
//! use the mechanisms described here"): a workload whose communication
//! pattern *changes* half-way — neighbours first, distant pairs after.
//! The SM detector's matrix is cut into cycle windows (the flight
//! recorder's ring), and the workspace's one phase judge
//! ([`PhaseTracker`]) splits them into phases; the mapper recomputes the
//! placement for each phase.
//!
//! The example compares three strategies on the two-phase workload:
//!   static mapping from phase-1 data only (goes stale),
//!   static mapping from whole-run data (a compromise),
//!   per-phase remapping driven by the detected phase change,
//! and then runs the full in-engine migration loop ([`OnlineRemapper`]):
//! the engine migrates threads at the barrier where the drift is detected,
//! paying the migration and cache-refill costs for real.
//!
//! Run with: `cargo run --release --example dynamic_phases`

use tlbmap::detect::{CommMatrix, OnlineRemapper, SmConfig, SmDetector};
use tlbmap::mapping::{mapping_cost, HierarchicalMapper};
use tlbmap::obs::{ObsConfig, PhaseTracker, Recorder, Verdict};
use tlbmap::sim::{simulate, simulate_observed, Mapping, SimConfig, Topology};
use tlbmap::workloads::synthetic;

fn main() {
    let topo = Topology::harpertown();
    let n = topo.num_cores();
    // 12 iterations: neighbours (offset 1) for the first 6, distant pairs
    // (offset n/2) for the last 6.
    let workload = synthetic::phase_shift(n, 64, 12);
    println!(
        "two-phase workload: {} events, phase change at the midpoint",
        workload.total_events()
    );

    // A plain run sizes the windows (about one per iteration) and gives
    // the whole-run matrix.
    let sim = SimConfig::paper_software_managed(&topo);
    let identity = Mapping::identity(n);
    let mut whole = SmDetector::new(n, SmConfig::every_miss());
    let plain = simulate(&sim, &topo, &workload.traces, &identity, &mut whole);
    let cumulative = whole.matrix().clone();

    // The same run again, its matrix windowed by the flight recorder.
    let rec = Recorder::new(ObsConfig::new(n).with_flight_window(Some(plain.total_cycles / 12)));
    let mut windowed = SmDetector::new(n, SmConfig::every_miss()).with_recorder(rec.clone());
    simulate_observed(
        &sim,
        &topo,
        &workload.traces,
        &identity,
        &mut windowed,
        &rec,
    );

    // Judge the windows and sum each phase's traffic.
    let mut tracker = PhaseTracker::default();
    let mut phases: Vec<CommMatrix> = Vec::new();
    for window in rec.flight_windows() {
        let m = CommMatrix::from_rows(n, window.cells);
        let verdict = tracker.judge(&m.upper_cells());
        println!("window {:>2}: {verdict:?}", window.index);
        if matches!(verdict, Verdict::Changed(_)) {
            phases.push(CommMatrix::new(n));
        }
        if let Some(phase) = phases.last_mut() {
            phase.merge(&m);
        }
    }
    println!("phases detected: {}", phases.len());
    let (phase1, phase2) = match phases.as_slice() {
        [first, .., last] => (first.clone(), last.clone()),
        _ => panic!("expected the midpoint flip to start a second phase"),
    };
    println!("\nphase 1 pattern:");
    print!("{}", phase1.heatmap());
    println!("phase 2 pattern:");
    print!("{}", phase2.heatmap());

    let mapper = HierarchicalMapper::new();
    let stale = mapper.map(&phase1, &topo); // static, from phase 1 only
    let blended = mapper.map(&cumulative, &topo); // static, whole run
    let map1 = stale.clone(); // dynamic strategy, phase 1
    let map2 = mapper.map(&phase2, &topo); // dynamic strategy, phase 2

    // Evaluate: cost of each strategy against each phase's true pattern.
    println!("\nmapping cost against each phase (lower is better):");
    println!(
        "  stale (phase-1 static):   phase1 {:>8}, phase2 {:>8}",
        mapping_cost(&phase1, &stale, &topo),
        mapping_cost(&phase2, &stale, &topo)
    );
    println!(
        "  blended (whole-run):      phase1 {:>8}, phase2 {:>8}",
        mapping_cost(&phase1, &blended, &topo),
        mapping_cost(&phase2, &blended, &topo)
    );
    println!(
        "  dynamic (remap on change):phase1 {:>8}, phase2 {:>8}",
        mapping_cost(&phase1, &map1, &topo),
        mapping_cost(&phase2, &map2, &topo)
    );

    // End-to-end: the real thing. Run a long two-phase workload once with
    // a static stale mapping and once with the in-engine OnlineRemapper,
    // both carrying the same always-on detector, so the difference is the
    // migration benefit net of migration and cache-refill costs.
    let long = synthetic::phase_shift(n, 64, 40);
    let mut static_det = SmDetector::new(n, SmConfig::every_miss());
    let static_run = simulate(&sim, &topo, &long.traces, &stale, &mut static_det);
    let topo2 = topo;
    let mut online = OnlineRemapper::new(
        SmDetector::new(n, SmConfig::every_miss()),
        2,
        Box::new(move |m| HierarchicalMapper::new().map(m, &topo2)),
    );
    let dynamic_run = simulate(&sim, &topo, &long.traces, &stale, &mut online);
    println!("\n== in-engine migration (40 iterations, 20 per phase) ==");
    println!(
        "static stale mapping:  {} cycles, {} snoops",
        static_run.total_cycles, static_run.cache.snoop_transactions
    );
    println!(
        "online remapper:       {} cycles, {} snoops ({} remaps, {} threads migrated)",
        dynamic_run.total_cycles,
        dynamic_run.cache.snoop_transactions,
        online.remaps(),
        dynamic_run.migrations
    );
    let gain = 100.0 * (1.0 - dynamic_run.total_cycles as f64 / static_run.total_cycles as f64);
    println!("net gain from migrating at the detected phase change: {gain:.1}%");
}
