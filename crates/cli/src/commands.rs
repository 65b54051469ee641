//! Subcommand implementations.

use crate::opts::{Options, OutputFormat};
use tlbmap_core::{
    CommMatrix, GroundTruthConfig, GroundTruthDetector, HmConfig, HmDetector, SmConfig, SmDetector,
};
use tlbmap_mapping::matching::greedy_matching;
use tlbmap_mapping::{
    baselines, exhaustive_best_mapping, mapping_cost, HierarchicalMapper, Mapping,
    RecursiveBisectionMapper,
};
use tlbmap_obs::{Json, ObsConfig, Recorder, COUNTERS, HISTS};
use tlbmap_prof::{compute_timeline, Timeline};
use tlbmap_sim::{simulate, simulate_observed, NoHooks, RunStats, SimConfig, Topology};

fn topology(o: &Options) -> Topology {
    o.topology()
}

/// A recorder sized for this run — enabled only when the options request
/// an artifact, so unobserved runs pay nothing.
fn recorder_for(o: &Options, n_threads: usize) -> Recorder {
    if o.observing() {
        Recorder::new(
            ObsConfig::new(n_threads)
                .with_snapshot_period(o.snapshot_every)
                .with_flight_window(o.effective_flight_window())
                .with_flight_capacity(o.flight_capacity),
        )
    } else {
        Recorder::disabled()
    }
}

/// The ground-truth communication matrix of the options' workload: a
/// separate unobserved run under the exact detector (every access, no
/// sampling, no simulated overhead).
fn ground_truth_matrix(o: &Options) -> Result<CommMatrix, String> {
    let topo = topology(o);
    let n = topo.num_cores();
    let workload = o.workload()?;
    let mapping = Mapping::identity(n);
    let sim = SimConfig::paper_software_managed(&topo);
    let mut det = GroundTruthDetector::new(n, GroundTruthConfig::default());
    simulate_observed(
        &sim,
        &topo,
        &workload.traces,
        &mapping,
        &mut det,
        &Recorder::disabled(),
    );
    Ok(det.matrix().clone())
}

/// Compute the accuracy timeline of a recorded run: each matrix snapshot
/// scored against a ground-truth run of the same workload. `None` when
/// nothing was recorded or no metrics artifact was requested (the
/// ground-truth run is not free).
fn accuracy_timeline(o: &Options, rec: &Recorder) -> Result<Option<Timeline>, String> {
    if o.metrics_out.is_none() || !rec.is_enabled() {
        return Ok(None);
    }
    let snaps = rec.snapshots();
    if snaps.is_empty() {
        return Ok(None);
    }
    let truth = ground_truth_matrix(o)?;
    Ok(Some(compute_timeline(&snaps, &truth)))
}

/// Write every artifact the options asked for. `timeline` (when present)
/// is appended to the metrics document as its `timeline` section.
fn write_artifacts(o: &Options, rec: &Recorder, timeline: Option<&Timeline>) -> Result<(), String> {
    if !rec.is_enabled() {
        return Ok(());
    }
    if let Some(path) = &o.trace_out {
        let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        rec.write_jsonl(&mut f)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# trace written to {path}");
    }
    if let Some(path) = &o.chrome_out {
        let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        rec.write_chrome_trace(&mut f)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# chrome trace written to {path} (open in chrome://tracing)");
    }
    if let Some(path) = &o.metrics_out {
        let mut doc = rec.metrics_json();
        if let (Some(tl), Json::Obj(pairs)) = (timeline, &mut doc) {
            pairs.push(("timeline".to_string(), tl.to_json()));
        }
        let mut text = doc.render();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# metrics written to {path}");
    }
    Ok(())
}

/// `tlbmap topo`
pub fn topo() -> Result<(), String> {
    let t = Topology::harpertown();
    println!(
        "machine: {} chips x {} L2 groups x {} cores = {} cores (Harpertown-like, Figure 3)",
        t.chips,
        t.l2_per_chip,
        t.cores_per_l2,
        t.num_cores()
    );
    for chip in 0..t.chips {
        println!("chip {chip}:");
        for l2 in 0..t.l2_per_chip {
            let g = chip * t.l2_per_chip + l2;
            let first = g * t.cores_per_l2;
            let cores: Vec<String> = (first..first + t.cores_per_l2)
                .map(|c| format!("core {c}"))
                .collect();
            println!("  L2 {g}: [{}]", cores.join(", "));
        }
    }
    Ok(())
}

/// Detect a matrix with the mechanism named in the options, reporting
/// engine and detector events to `rec`.
fn detect_matrix(o: &Options, rec: &Recorder) -> Result<(CommMatrix, RunStats), String> {
    let topo = topology(o);
    let n = topo.num_cores();
    let workload = o.workload()?;
    let mapping = Mapping::identity(n);
    match o.mechanism.as_str() {
        "sm" => {
            let sim = SimConfig::paper_software_managed(&topo);
            let mut det = SmDetector::new(
                n,
                SmConfig {
                    sample_threshold: o.sm_threshold,
                },
            )
            .with_recorder(rec.clone());
            let stats = simulate_observed(&sim, &topo, &workload.traces, &mapping, &mut det, rec);
            Ok((det.take_matrix(), stats))
        }
        "hm" => {
            let sim = SimConfig::paper_hardware_managed(&topo).with_tick_period(Some(o.hm_period));
            let mut det =
                HmDetector::new(n, HmConfig::scaled(o.hm_period)).with_recorder(rec.clone());
            let stats = simulate_observed(&sim, &topo, &workload.traces, &mapping, &mut det, rec);
            Ok((det.take_matrix(), stats))
        }
        "gt" => {
            let sim = SimConfig::paper_software_managed(&topo);
            let mut det = GroundTruthDetector::new(n, GroundTruthConfig::default())
                .with_recorder(rec.clone());
            let stats = simulate_observed(&sim, &topo, &workload.traces, &mapping, &mut det, rec);
            Ok((det.matrix().clone(), stats))
        }
        other => Err(format!("unknown mechanism `{other}` (sm|hm|gt)")),
    }
}

/// `tlbmap detect`
pub fn detect(o: Options) -> Result<(), String> {
    let rec = recorder_for(&o, topology(&o).num_cores());
    let (matrix, stats) = detect_matrix(&o, &rec)?;
    eprintln!(
        "# {} via {}: {} communication units, TLB miss rate {:.3}%, detection overhead {:.3}%",
        o.app,
        o.mechanism,
        matrix.total(),
        stats.tlb_miss_rate() * 100.0,
        stats.detection_overhead_fraction() * 100.0
    );
    match o.format {
        OutputFormat::Heatmap => print!("{}", matrix.heatmap()),
        OutputFormat::Csv => print!("{}", matrix.to_csv()),
        OutputFormat::Json => println!("{}", matrix.to_json().render()),
    }
    let tl = accuracy_timeline(&o, &rec)?;
    write_artifacts(&o, &rec, tl.as_ref())
}

fn build_mapping(
    o: &Options,
    matrix: &CommMatrix,
    topo: &Topology,
    rec: &Recorder,
) -> Result<Mapping, String> {
    match o.mapper.as_str() {
        "hierarchical" => Ok(HierarchicalMapper::new().map_observed(matrix, topo, rec)),
        "bisect" => Ok(RecursiveBisectionMapper::new().map(matrix, topo)),
        "exhaustive" => Ok(exhaustive_best_mapping(matrix, topo)),
        "greedy" => {
            let n = matrix.num_threads();
            let pairs = greedy_matching(n, &|i, j| matrix.get(i, j) as i64);
            let mut thread_to_core = vec![0usize; n];
            for (k, (a, b)) in pairs.iter().enumerate() {
                thread_to_core[*a] = 2 * k;
                thread_to_core[*b] = 2 * k + 1;
            }
            Ok(Mapping::new(thread_to_core))
        }
        other => Err(format!("unknown mapper `{other}`")),
    }
}

/// `tlbmap map`
pub fn map(o: Options) -> Result<(), String> {
    let topo = topology(&o);
    let rec = recorder_for(&o, topo.num_cores());
    let (matrix, _) = detect_matrix(&o, &rec)?;
    let mapping = build_mapping(&o, &matrix, &topo, &rec)?;
    println!("thread -> core: {:?}", mapping.as_slice());
    println!(
        "mapping cost {} (identity: {})",
        mapping_cost(&matrix, &mapping, &topo),
        mapping_cost(&matrix, &Mapping::identity(matrix.num_threads()), &topo)
    );
    let tl = accuracy_timeline(&o, &rec)?;
    write_artifacts(&o, &rec, tl.as_ref())
}

fn parse_mapping(o: &Options, topo: &Topology) -> Result<Mapping, String> {
    let n = topo.num_cores();
    if o.mapping == "identity" {
        Ok(Mapping::identity(n))
    } else if o.mapping == "scatter" {
        Ok(baselines::scatter(n, topo))
    } else if o.mapping == "auto" {
        // The preparatory detection run is not part of the observed
        // simulation; keep its events out of the artifacts.
        let (matrix, _) = detect_matrix(o, &Recorder::disabled())?;
        build_mapping(o, &matrix, topo, &Recorder::disabled())
    } else if let Some(seed) = o.mapping.strip_prefix("random=") {
        let seed: u64 = seed.parse().map_err(|e| format!("random seed: {e}"))?;
        Ok(baselines::random(n, topo, seed))
    } else {
        Err(format!(
            "unknown mapping `{}` (identity|scatter|random=<seed>|auto)",
            o.mapping
        ))
    }
}

fn print_stats(stats: &RunStats) {
    println!("cycles:             {}", stats.total_cycles);
    println!("simulated seconds:  {:.6}", stats.seconds());
    println!("accesses:           {}", stats.accesses);
    println!("TLB miss rate:      {:.4}%", stats.tlb_miss_rate() * 100.0);
    println!("L2 misses:          {}", stats.cache.l2_misses);
    println!("  cold:             {}", stats.cache.l2_cold_misses);
    println!("  capacity:         {}", stats.cache.l2_capacity_misses);
    println!("  coherence:        {}", stats.cache.l2_coherence_misses);
    println!("invalidations:      {}", stats.cache.invalidations);
    println!("snoop transactions: {}", stats.cache.snoop_transactions);
    println!("  intra-chip:       {}", stats.cache.snoops_intra_chip);
    println!("  inter-chip:       {}", stats.cache.snoops_inter_chip);
    println!("writebacks:         {}", stats.cache.writebacks);
    println!("memory fetches:     {}", stats.cache.memory_fetches);
}

/// `tlbmap simulate`
pub fn simulate_cmd(o: Options) -> Result<(), String> {
    let topo = topology(&o);
    let rec = recorder_for(&o, topo.num_cores());
    let workload = o.workload()?;
    let mapping = parse_mapping(&o, &topo)?;
    println!("mapping (thread -> core): {:?}", mapping.as_slice());
    let sim = SimConfig::paper_hardware_managed(&topo).with_tick_period(None);
    let stats = simulate_observed(&sim, &topo, &workload.traces, &mapping, &mut NoHooks, &rec);
    print_stats(&stats);
    // No detector ran, so there is no detected matrix to score: the
    // metrics document carries no timeline.
    write_artifacts(&o, &rec, None)
}

/// `tlbmap stats`
pub fn stats(o: Options) -> Result<(), String> {
    let workload = o.workload()?;
    let s = tlbmap_workloads::TraceStats::analyze(&workload);
    println!("== {} trace statistics ==", workload.name);
    print!("{}", s.render());
    Ok(())
}

/// `tlbmap export`
pub fn export(o: Options) -> Result<(), String> {
    let path = o
        .out
        .clone()
        .ok_or_else(|| "export needs --out <FILE>".to_string())?;
    let workload = o.workload()?;
    let bytes = tlbmap_sim::encode_traces(&workload.traces);
    let events = workload.total_events();
    std::fs::write(&path, &bytes).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {path}: {} events in {} bytes ({:.2} bytes/event)",
        events,
        bytes.len(),
        bytes.len() as f64 / events.max(1) as f64
    );
    Ok(())
}

/// `tlbmap report`
pub fn report(o: Options) -> Result<(), String> {
    if let Some(path) = &o.from {
        return report_from(path);
    }
    let topo = topology(&o);
    let rec = recorder_for(&o, topo.num_cores());
    let workload = o.workload()?;
    let (matrix, det_stats) = detect_matrix(&o, &rec)?;
    println!("== detected pattern ({}) ==", o.mechanism);
    print!("{}", matrix.heatmap());
    println!(
        "TLB miss rate {:.3}%, detection overhead {:.3}%",
        det_stats.tlb_miss_rate() * 100.0,
        det_stats.detection_overhead_fraction() * 100.0
    );

    let mapping = build_mapping(&o, &matrix, &topo, &rec)?;
    println!("\n== mapping ==\nthread -> core: {:?}", mapping.as_slice());

    let sim = SimConfig::paper_hardware_managed(&topo).with_tick_period(None);
    let baseline = baselines::random(topo.num_cores(), &topo, o.seed);
    let before = simulate(&sim, &topo, &workload.traces, &baseline, &mut NoHooks);
    let after = simulate(&sim, &topo, &workload.traces, &mapping, &mut NoHooks);
    println!("\n== baseline (random placement, seed {}) ==", o.seed);
    print_stats(&before);
    println!("\n== mapped ==");
    print_stats(&after);
    let dt = 100.0 * (1.0 - after.total_cycles as f64 / before.total_cycles.max(1) as f64);
    println!("\nexecution time improvement: {dt:.1}%");
    let tl = accuracy_timeline(&o, &rec)?;
    write_artifacts(&o, &rec, tl.as_ref())
}

/// `tlbmap report --from <metrics.json>`: pretty-print a recorded run.
fn report_from(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;

    println!("== counters ({path}) ==");
    let counters = doc
        .get("counters")
        .ok_or_else(|| format!("{path}: no `counters` object"))?;
    for c in COUNTERS {
        if let Some(v) = counters.get(c.as_str()).and_then(Json::as_u64) {
            println!("{:<28} {v}", c.as_str());
        }
    }

    println!("\n== histograms ==");
    let hists = doc
        .get("histograms")
        .ok_or_else(|| format!("{path}: no `histograms` object"))?;
    for h in HISTS {
        let Some(hist) = hists.get(h.as_str()) else {
            continue;
        };
        let count = hist.get("count").and_then(Json::as_u64).unwrap_or(0);
        if count == 0 {
            println!("{}: empty", h.as_str());
            continue;
        }
        let sum = hist.get("sum").and_then(Json::as_u64).unwrap_or(0);
        println!(
            "{}: count {count}, mean {:.1}, min {}, max {}",
            h.as_str(),
            sum as f64 / count as f64,
            hist.get("min").and_then(Json::as_u64).unwrap_or(0),
            hist.get("max").and_then(Json::as_u64).unwrap_or(0),
        );
        if let Some(buckets) = hist.get("buckets").and_then(Json::items) {
            let peak = buckets
                .iter()
                .filter_map(|b| b.get("count").and_then(Json::as_u64))
                .max()
                .unwrap_or(1)
                .max(1);
            for b in buckets.iter() {
                let lo = b.get("lo").and_then(Json::as_u64).unwrap_or(0);
                let n = b.get("count").and_then(Json::as_u64).unwrap_or(0);
                let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
                println!("  >= {lo:>12} {n:>10} {bar}");
            }
        }
    }

    println!("\n== snapshots ==");
    let snaps = doc
        .get("snapshots")
        .and_then(Json::items)
        .unwrap_or_default();
    if snaps.is_empty() {
        println!("none recorded (run with --snapshot-every)");
    }
    for snap in snaps.iter() {
        let index = snap.get("index").and_then(Json::as_u64).unwrap_or(0);
        let cycle = snap.get("cycle").and_then(Json::as_u64).unwrap_or(0);
        let barrier = snap.get("barrier").and_then(Json::as_u64).unwrap_or(0);
        match snapshot_matrix(&snap) {
            Some(m) => {
                println!(
                    "snapshot {index} @ cycle {cycle} (after {barrier} barriers), {} units:",
                    m.total()
                );
                print!("{}", m.heatmap());
            }
            None => println!("snapshot {index} @ cycle {cycle}: malformed rows"),
        }
    }
    Ok(())
}

/// Rebuild a snapshot's matrix from its JSON `rows`.
fn snapshot_matrix(snap: &Json) -> Option<CommMatrix> {
    CommMatrix::from_json(snap).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Options;

    fn opts(words: &[&str]) -> Options {
        Options::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn topo_runs() {
        assert!(topo().is_ok());
    }

    #[test]
    fn detect_all_mechanisms() {
        for mech in ["sm", "hm", "gt"] {
            let o = opts(&[
                "ring",
                "--scale",
                "test",
                "--mechanism",
                mech,
                "--sm-threshold",
                "1",
                "--hm-period",
                "2000",
            ]);
            assert!(detect(o).is_ok(), "mechanism {mech}");
        }
        let o = opts(&["ring", "--scale", "test", "--mechanism", "bogus"]);
        assert!(detect(o).is_err());
    }

    #[test]
    fn map_all_mappers() {
        for mapper in ["hierarchical", "bisect", "greedy", "exhaustive"] {
            let mut o = opts(&["pairs", "--scale", "test", "--sm-threshold", "1"]);
            o.mapper = mapper.to_string();
            assert!(map(o).is_ok(), "mapper {mapper}");
        }
        let mut o = opts(&["pairs", "--scale", "test"]);
        o.mapper = "bogus".to_string();
        assert!(map(o).is_err());
    }

    #[test]
    fn simulate_all_mapping_selectors() {
        for m in ["identity", "scatter", "random=7", "auto"] {
            let mut o = opts(&["EP", "--scale", "test", "--sm-threshold", "1"]);
            o.mapping = m.to_string();
            assert!(simulate_cmd(o).is_ok(), "mapping {m}");
        }
        let mut o = opts(&["EP", "--scale", "test"]);
        o.mapping = "bogus".to_string();
        assert!(simulate_cmd(o).is_err());
    }

    #[test]
    fn stats_runs() {
        let o = opts(&["MG", "--scale", "test"]);
        assert!(stats(o).is_ok());
    }

    #[test]
    fn export_then_replay_from_trace_file() {
        let dir = std::env::temp_dir().join("tlbmap_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.tlbt");
        let mut o = opts(&["ring", "--scale", "test"]);
        o.out = Some(path.to_string_lossy().into_owned());
        assert!(export(o).is_ok());
        // Replay: stats + simulate from the file.
        let arg = format!("trace={}", path.to_string_lossy());
        let o2 = opts(&[&arg, "--scale", "test"]);
        assert!(stats(o2).is_ok());
        let mut o3 = opts(&[&arg, "--scale", "test"]);
        o3.mapping = "identity".to_string();
        assert!(simulate_cmd(o3).is_ok());
    }

    #[test]
    fn report_full_pipeline() {
        let o = opts(&["SP", "--scale", "test", "--sm-threshold", "1"]);
        assert!(report(o).is_ok());
    }

    #[test]
    fn detect_formats() {
        for fmt in ["heatmap", "csv", "json"] {
            let o = opts(&["ring", "--scale", "test", "--format", fmt]);
            assert!(detect(o).is_ok(), "format {fmt}");
        }
    }

    #[test]
    fn detect_writes_artifacts_and_report_reads_them() {
        let dir = std::env::temp_dir().join("tlbmap_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run.jsonl");
        let chrome = dir.join("run.trace.json");
        let metrics = dir.join("metrics.json");
        let mut o = opts(&["ring", "--scale", "test", "--sm-threshold", "1"]);
        o.trace_out = Some(trace.to_string_lossy().into_owned());
        o.chrome_out = Some(chrome.to_string_lossy().into_owned());
        o.metrics_out = Some(metrics.to_string_lossy().into_owned());
        o.snapshot_every = Some(2_000);
        detect(o).unwrap();

        // Every JSONL line parses and the meta line leads.
        let text = std::fs::read_to_string(&trace).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 1, "trace must hold events");
        assert!(lines[0].contains("\"ev\":\"meta\""));
        for line in &lines {
            Json::parse(line).unwrap();
        }

        // The chrome trace is one valid JSON document.
        let chrome_doc = Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        assert!(!chrome_doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());

        // Metrics parse, and `report --from` pretty-prints them.
        let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(
            doc.get("counters")
                .unwrap()
                .get("accesses")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        assert!(!doc.get("snapshots").unwrap().as_array().unwrap().is_empty());
        // Schema 2 extras: the self-profile and the accuracy timeline.
        assert_eq!(doc.get("schema").unwrap().as_u64(), Some(3));
        assert!(!doc.get("profile").unwrap().as_array().unwrap().is_empty());
        let timeline = doc.get("timeline").expect("timeline section");
        assert!(!timeline
            .get("entries")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        // Schema 3: the flight recorder rides along whenever snapshots
        // are on (the window defaults to the snapshot period).
        let flight = doc.get("flight").expect("flight section");
        assert!(flight.get("windows_closed").unwrap().as_u64().unwrap() > 0);
        let mut from = opts(&[]);
        from.from = Some(metrics.to_string_lossy().into_owned());
        report(from).unwrap();
    }

    #[test]
    fn unknown_app_propagates() {
        let o = opts(&["nonsense", "--scale", "test"]);
        assert!(detect(o).is_err());
    }
}
