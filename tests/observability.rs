//! Cross-crate observability guarantees: the recorder must be deterministic
//! (identical runs produce byte-identical traces) and its flight recorder
//! must close exactly `ceil(total_cycles / window)` windows that tile the
//! run.

use tlbmap::detect::{SmConfig, SmDetector};
use tlbmap::obs::{CounterId, Json, ObsConfig, Recorder};
use tlbmap::prof::FlightReport;
use tlbmap::sim::{simulate_observed, Mapping, SimConfig, Topology};
use tlbmap::workloads::synthetic;

/// One observed SM run of a seeded synthetic workload.
fn observed_run(flight_window: Option<u64>) -> (Recorder, tlbmap::sim::RunStats) {
    let w = synthetic::ring_neighbors(8, 80, 4);
    let topo = Topology::harpertown();
    let cfg = SimConfig::paper_software_managed(&topo);
    let rec = Recorder::new(ObsConfig::new(8).with_flight_window(flight_window));
    let mut det = SmDetector::new(8, SmConfig::every_miss()).with_recorder(rec.clone());
    let stats = simulate_observed(
        &cfg,
        &topo,
        &w.traces,
        &Mapping::identity(8),
        &mut det,
        &rec,
    );
    (rec, stats)
}

#[test]
fn identical_runs_produce_byte_identical_jsonl() {
    let (rec_a, stats_a) = observed_run(Some(100_000));
    let (rec_b, stats_b) = observed_run(Some(100_000));
    assert_eq!(
        stats_a, stats_b,
        "the simulator itself must be deterministic"
    );

    let mut jsonl_a = Vec::new();
    let mut jsonl_b = Vec::new();
    rec_a.write_jsonl(&mut jsonl_a).unwrap();
    rec_b.write_jsonl(&mut jsonl_b).unwrap();
    assert!(!jsonl_a.is_empty());
    assert_eq!(
        jsonl_a, jsonl_b,
        "traces of identical runs must match byte-for-byte"
    );

    let mut chrome_a = Vec::new();
    let mut chrome_b = Vec::new();
    rec_a.write_chrome_trace(&mut chrome_a).unwrap();
    rec_b.write_chrome_trace(&mut chrome_b).unwrap();
    assert_eq!(chrome_a, chrome_b);

    assert_eq!(
        rec_a.metrics_json().render(),
        rec_b.metrics_json().render(),
        "metrics exports must match too"
    );
}

#[test]
fn trace_lines_are_valid_json_and_cycle_monotone() {
    let (rec, _) = observed_run(None);
    let mut out = Vec::new();
    rec.write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let mut lines = text.lines();
    let meta = Json::parse(lines.next().expect("meta line")).unwrap();
    assert_eq!(meta.get("ev").and_then(Json::as_str), Some("meta"));
    let mut parsed = 0u64;
    let mut prev_cycle = 0u64;
    for line in lines {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e:?}"));
        let cycle = j.get("cycle").and_then(Json::as_u64).expect("cycle field");
        assert!(cycle >= prev_cycle, "events must be emitted in cycle order");
        prev_cycle = cycle;
        parsed += 1;
    }
    assert_eq!(meta.get("events").and_then(Json::as_u64), Some(parsed));
    assert!(parsed > 0, "an every-miss SM run must emit events");
}

#[test]
fn flight_window_count_is_total_cycles_over_window_rounded_up() {
    for window in [20_000u64, 50_000, 100_000] {
        let (rec, stats) = observed_run(Some(window));
        let total = stats.total_cycles;
        let expected = total.div_ceil(window);
        assert!(
            expected >= 3,
            "workload too short to exercise window {window}: {total} cycles"
        );
        let report = FlightReport::from_json(&rec.flight_json()).unwrap();
        assert_eq!(
            report.windows_closed, expected,
            "window {window} over {total} cycles"
        );
        assert_eq!(rec.counter(CounterId::FlightWindows), expected);
        assert_eq!(report.windows_dropped, 0);
        assert_eq!(report.windows.len() as u64, expected);
        // Windows end on multiples of the window; the last ends the run.
        for (k, w) in report.windows.iter().enumerate() {
            let k = k as u64;
            assert_eq!(w.index, k);
            assert_eq!(w.start_cycle, k * window);
            assert_eq!(w.end_cycle, ((k + 1) * window).min(total));
        }
        assert_eq!(report.windows.last().unwrap().end_cycle, total);
        // Cumulative volume never falls, and ends at the phases' total.
        let cumulative: Vec<u64> = report
            .windows
            .iter()
            .scan(0, |acc, w| {
                *acc += w.matrix.cells().iter().sum::<u64>();
                Some(*acc)
            })
            .collect();
        assert!(cumulative.windows(2).all(|c| c[0] <= c[1]));
        let volume: u64 = report.phases.iter().map(|p| p.volume).sum();
        assert_eq!(*cumulative.last().unwrap(), volume);
        assert!(volume > 0, "ring workload must accumulate communication");
    }
}

#[test]
fn disabled_recorder_changes_nothing() {
    let w = synthetic::ring_neighbors(8, 80, 4);
    let topo = Topology::harpertown();
    let cfg = SimConfig::paper_software_managed(&topo);
    let run = |rec: &Recorder| {
        let mut det = SmDetector::new(8, SmConfig::every_miss()).with_recorder(rec.clone());
        simulate_observed(&cfg, &topo, &w.traces, &Mapping::identity(8), &mut det, rec)
    };
    let off = run(&Recorder::disabled());
    let on = run(&Recorder::new(ObsConfig::new(8)));
    assert_eq!(off, on, "recording must not perturb simulation results");
    let mut out = Vec::new();
    Recorder::disabled().write_jsonl(&mut out).unwrap();
    assert!(out.is_empty(), "a disabled recorder exports nothing");
}
