//! `tlbmap inspect` — the one reader of a recorded run.
//!
//! Consumes a metrics document written by `--metrics-out` and renders, in
//! order: the non-zero counters; the histograms; when the flight
//! recorder was on, its summary, one per-window table (phase, drift and
//! volume, plus the accuracy timeline's scores when the document holds
//! them), the phase boundaries and one section per phase (heatmap,
//! mapping quality, cycle attribution, per-core activity); and the
//! whole-run cycle profile with its collapsed stacks. Optional exports:
//! a self-contained HTML report with SVG heatmaps (`--html-out`) and a
//! speedscope-importable profile (`--speedscope-out`).
//!
//! All renderers are string-returning and derive everything from the
//! document, so identical inputs produce byte-identical reports — the
//! determinism tests rely on that. The document comes from outside the
//! process: a malformed one is an error, never a panic.

use crate::opts::InspectOptions;
use std::collections::HashMap;
use tlbmap_bench::{bar, sparkline, Table};
use tlbmap_core::CommMatrix;
use tlbmap_mapping::{mapping_cost, normalized_mapping_quality, HierarchicalMapper, Mapping};
use tlbmap_obs::{Json, COUNTERS, HISTS};
use tlbmap_prof::{FlightReport, PhaseSummary, Timeline};
use tlbmap_sim::Topology;

/// Width of the share bars in attribution tables.
const BAR_WIDTH: usize = 20;

/// Read and parse a metrics document.
pub(crate) fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `tlbmap inspect --from <metrics.json> [--html-out F] [--speedscope-out F]`
pub fn inspect(o: InspectOptions) -> Result<(), String> {
    let doc = load(&o.from)?;
    print!("{}", inspect_to_string(&doc)?);
    if let Some(out) = &o.html_out {
        std::fs::write(out, html_report_string(&doc)?).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("# html report written to {out}");
    }
    if let Some(out) = &o.speedscope_out {
        std::fs::write(out, speedscope_string(&doc)?).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("# speedscope profile written to {out}");
    }
    Ok(())
}

fn fmt_similarity(ppm: Option<u64>) -> String {
    match ppm {
        Some(ppm) => format!("{:.3}", ppm as f64 / 1e6),
        None => "-".to_string(),
    }
}

/// A sum that a hostile document cannot overflow.
fn saturating_sum(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0, u64::saturating_add)
}

/// Communication volume of a matrix: the sum of all its cells.
fn volume(matrix: &CommMatrix) -> u64 {
    saturating_sum(matrix.cells().iter().copied())
}

/// Render the full text report. `Err` when the document is not a run
/// document (no `counters` object) or a section it holds is malformed.
pub(crate) fn inspect_to_string(doc: &Json) -> Result<String, String> {
    let counters = doc
        .get("counters")
        .ok_or("not a run document: no `counters` object")?;
    let mut out = String::new();
    out.push_str("== run summary ==\n");
    let mut t = Table::new(vec!["counter", "value"]);
    for c in COUNTERS {
        if let Some(v) = counters.get(c.as_str()).and_then(Json::as_u64) {
            if v > 0 {
                t.row(vec![c.as_str().to_string(), v.to_string()]);
            }
        }
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&render_histograms(doc));

    match FlightReport::from_metrics(doc)? {
        Some(report) => {
            let timeline = doc.get("timeline").map(Timeline::from_json).transpose()?;
            out.push('\n');
            out.push_str(&render_flight(&report, timeline.as_ref()));
            for phase in &report.phases {
                out.push('\n');
                out.push_str(&render_phase(&report, phase));
            }
        }
        None => out.push_str(
            "\n== flight summary ==\nnone recorded (run with --flight-window and --metrics-out)\n",
        ),
    }
    out.push('\n');
    out.push_str(&render_profile(doc));
    Ok(out)
}

/// The histogram section: count, mean and range of each histogram, and
/// its buckets as bars scaled to the fullest one.
fn render_histograms(doc: &Json) -> String {
    let mut out = String::new();
    out.push_str("== histograms ==\n");
    let Some(hists) = doc.get("histograms") else {
        out.push_str("none recorded\n");
        return out;
    };
    for h in HISTS {
        let Some(hist) = hists.get(h.as_str()) else {
            continue;
        };
        let field = |key: &str| hist.get(key).and_then(Json::as_u64).unwrap_or(0);
        let count = field("count");
        if count == 0 {
            out.push_str(&format!("{}: empty\n", h.as_str()));
            continue;
        }
        out.push_str(&format!(
            "{}: count {count}, mean {:.1}, min {}, max {}\n",
            h.as_str(),
            field("sum") as f64 / count as f64,
            field("min"),
            field("max"),
        ));
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
                let bar = "#".repeat(n.saturating_mul(40).div_ceil(peak) as usize);
                out.push_str(&format!("  >= {lo:>12} {n:>10} {bar}\n"));
            }
        }
    }
    out
}

/// The flight summary and the phase timeline: one row per retained
/// window, with the accuracy timeline's scores joined by window index
/// when the document holds them, volume and drift sparklines over the
/// whole retained ring, and the windows where a phase began.
fn render_flight(report: &FlightReport, timeline: Option<&Timeline>) -> String {
    let mut out = String::new();
    out.push_str("== flight summary ==\n");
    let mut t = Table::new(vec!["stat", "value"]);
    for (stat, value) in [
        ("threads", report.n as u64),
        ("window_cycles", report.window_cycles),
        ("windows_closed", report.windows_closed),
        ("windows_retained", report.windows.len() as u64),
        ("windows_dropped", report.windows_dropped),
    ] {
        t.row(vec![stat.to_string(), value.to_string()]);
    }
    out.push_str(&t.render());
    // The stable machine-greppable phase count (CI asserts on this line).
    out.push_str(&format!("phases: {}\n", report.phase_count()));

    out.push_str("\n== phase timeline ==\n");
    if report.windows.is_empty() {
        out.push_str("no windows retained (run shorter than one window?)\n");
        return out;
    }
    let mut columns = vec!["window", "cycles", "phase", "similarity", "volume", "drift"];
    if timeline.is_some() {
        columns.extend(["pearson", "cosine", "nmse", "w.cosine"]);
    }
    let scores: HashMap<u64, _> = timeline
        .map(|tl| tl.entries.iter().map(|e| (e.index, e)).collect())
        .unwrap_or_default();
    let mut t = Table::new(columns);
    for w in &report.windows {
        // The drift bar shows *divergence* (1 - similarity): taller bar,
        // bigger pattern shift.
        let drift = w.similarity_ppm.map_or(0.0, |ppm| 1.0 - (ppm as f64 / 1e6));
        let mut row = vec![
            w.index.to_string(),
            format!("{}..{}", w.start_cycle, w.end_cycle),
            w.phase.to_string(),
            fmt_similarity(w.similarity_ppm),
            volume(&w.matrix).to_string(),
            bar(drift, 1.0, BAR_WIDTH),
        ];
        if timeline.is_some() {
            match scores.get(&w.index) {
                Some(e) => row.extend(
                    [
                        e.cumulative.pearson,
                        e.cumulative.cosine,
                        e.cumulative.nmse,
                        e.windowed.cosine,
                    ]
                    .map(|score| format!("{score:.4}")),
                ),
                None => row.extend(["-"; 4].map(String::from)),
            }
        }
        t.row(row);
    }
    out.push_str(&t.render());

    let volumes: Vec<f64> = report
        .windows
        .iter()
        .map(|w| volume(&w.matrix) as f64)
        .collect();
    let drifts: Vec<f64> = report
        .windows
        .iter()
        .map(|w| {
            w.similarity_ppm
                .map_or(f64::NAN, |ppm| 1.0 - (ppm as f64 / 1e6))
        })
        .collect();
    out.push_str(&format!("volume {}\n", sparkline(&volumes)));
    out.push_str(&format!("drift  {}\n", sparkline(&drifts)));
    if let Some(tl) = timeline {
        out.push_str(&format!(
            "pearson/cosine/nmse: cumulative matrix vs ground truth, w.cosine: the window's; \
             phase threshold {}\n",
            tl.phase_threshold
        ));
    }
    if report.windows_dropped > 0 {
        out.push_str(&format!(
            "windows_dropped: {} (the table covers the {} retained windows; \
             raise --flight-capacity for more)\n",
            report.windows_dropped,
            report.windows.len()
        ));
    }
    // Window k spans cycles k·W..(k+1)·W, the last one ending the run,
    // and every phase after the first starts with a window: name it and
    // the cycle it closed at, whether the ring kept it or not.
    let ends: HashMap<u64, u64> = report
        .windows
        .iter()
        .map(|w| (w.index, w.end_cycle))
        .collect();
    let at: Vec<String> = report
        .boundary_cycles()
        .into_iter()
        .map(|start| {
            let index = start / report.window_cycles.max(1);
            let end = ends
                .get(&index)
                .copied()
                .unwrap_or(start.saturating_add(report.window_cycles));
            format!("window {index} (cycle {end})")
        })
        .collect();
    if at.is_empty() {
        out.push_str("phase boundaries: none\n");
    } else {
        out.push_str(&format!("phase boundaries: {}\n", at.join(", ")));
    }
    out
}

/// One phase's section: heatmap, mapping quality, cycle attribution and
/// per-core activity.
fn render_phase(report: &FlightReport, phase: &PhaseSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== phase {} (cycles {}..{}, {} windows, volume {}) ==\n",
        phase.phase, phase.start_cycle, phase.end_cycle, phase.windows, phase.volume
    ));
    let matrix = &phase.matrix;
    out.push_str(&matrix.heatmap());

    // The document does not record the machine; the scaling-study
    // topology of the thread count is the one `--cores` ran on.
    if let Some(topo) = Topology::scaled(report.n).ok().filter(|_| phase.volume > 0) {
        match HierarchicalMapper::new().try_map(matrix, &topo) {
            Ok(mapped) => {
                let identity = Mapping::identity(report.n);
                let before = mapping_cost(matrix, &identity, &topo);
                let after = mapping_cost(matrix, &mapped, &topo);
                let mut t = Table::new(vec!["mapping", "cost", "quality"]);
                for (name, cost, mapping) in [
                    ("identity", before, &identity),
                    ("hierarchical", after, &mapped),
                ] {
                    t.row(vec![
                        name.to_string(),
                        cost.to_string(),
                        format!("{:.4}", normalized_mapping_quality(matrix, mapping, &topo)),
                    ]);
                }
                out.push_str(&t.render());
                let saved = 100.0 * before.saturating_sub(after) as f64 / before.max(1) as f64;
                out.push_str(&format!("mapping gain over identity: {saved:.1}%\n"));
            }
            Err(e) => out.push_str(&format!("mapping: not computed ({e})\n")),
        }
    }

    if !phase.profile.is_empty() {
        let total = saturating_sum(phase.profile.iter().map(|c| c.exclusive_cycles));
        let mut t = Table::new(vec!["component", "calls", "exclusive", "share", "trend"]);
        for c in &phase.profile {
            let share = c.exclusive_cycles as f64 / total.max(1) as f64;
            t.row(vec![
                c.component.clone(),
                c.calls.to_string(),
                c.exclusive_cycles.to_string(),
                format!("{:.1}%", 100.0 * share),
                bar(share, 1.0, BAR_WIDTH),
            ]);
        }
        out.push_str(&t.render());
    }

    if phase.core_activity.iter().any(|&c| c > 0) {
        let activity: Vec<f64> = phase.core_activity.iter().map(|&c| c as f64).collect();
        out.push_str(&format!("core activity {}\n", sparkline(&activity)));
    }
    out
}

/// The whole-run cycle profile, as a table and as collapsed stacks.
fn render_profile(doc: &Json) -> String {
    let mut out = String::new();
    out.push_str("== cycle profile ==\n");
    let Some(items) = doc.get("profile").and_then(Json::items) else {
        out.push_str("none recorded (metrics schema < 2)\n");
        return out;
    };
    if items.is_empty() {
        out.push_str("empty (nothing charged)\n");
        return out;
    }
    let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_u64).unwrap_or(0);
    let total = saturating_sum(items.iter().map(|i| field(&i, "exclusive_cycles")));
    let mut t = Table::new(vec![
        "component",
        "calls",
        "exclusive",
        "inclusive",
        "share",
        "trend",
    ]);
    for item in items.iter() {
        let path = item
            .get("component")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let excl = field(&item, "exclusive_cycles");
        let share = excl as f64 / total.max(1) as f64;
        t.row(vec![
            path,
            field(&item, "calls").to_string(),
            excl.to_string(),
            field(&item, "inclusive_cycles").to_string(),
            format!("{:.1}%", 100.0 * share),
            bar(share, 1.0, BAR_WIDTH),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n== collapsed stacks (flamegraph.pl / speedscope) ==\n");
    for item in items.iter() {
        if let Some(path) = item.get("component").and_then(Json::as_str) {
            out.push_str(&format!("{path} {}\n", field(&item, "exclusive_cycles")));
        }
    }
    out
}

// ---------------------------------------------------------------------
// HTML report
// ---------------------------------------------------------------------

/// Map a normalized cell intensity to a CSS color (white → dark blue).
fn heat_color(v: f64) -> String {
    let v = v.clamp(0.0, 1.0);
    let r = (255.0 - 205.0 * v) as u8;
    let g = (255.0 - 175.0 * v) as u8;
    let b = (255.0 - 85.0 * v) as u8;
    format!("#{r:02x}{g:02x}{b:02x}")
}

/// An SVG heatmap of a communication matrix (self-contained, no scripts).
fn svg_heatmap(matrix: &CommMatrix) -> String {
    const CELL: usize = 16;
    let n = matrix.num_threads();
    let norm = matrix.normalized();
    let size = n * CELL;
    let mut svg = format!(
        "<svg width=\"{size}\" height=\"{size}\" viewBox=\"0 0 {size} {size}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">"
    );
    for i in 0..n {
        for j in 0..n {
            let v = norm[i * n + j];
            svg.push_str(&format!(
                "<rect x=\"{}\" y=\"{}\" width=\"{CELL}\" height=\"{CELL}\" fill=\"{}\">\
                 <title>t{j} ↔ t{i}: {}</title></rect>",
                j * CELL,
                i * CELL,
                heat_color(v),
                matrix.get(i, j),
            ));
        }
    }
    svg.push_str("</svg>");
    svg
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// The self-contained HTML report (phase timeline + SVG heatmaps +
/// per-phase attribution). No external assets, no scripts.
pub(crate) fn html_report_string(doc: &Json) -> Result<String, String> {
    let report = FlightReport::from_metrics(doc)?
        .ok_or_else(|| "no flight section in this document".to_string())?;
    let mut html = String::new();
    html.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>tlbmap flight report</title><style>\
         body{font-family:sans-serif;margin:2em;max-width:60em}\
         table{border-collapse:collapse;margin:0.5em 0}\
         td,th{border:1px solid #ccc;padding:0.2em 0.6em;text-align:right}\
         th{background:#eee}td:first-child,th:first-child{text-align:left}\
         .phase{margin-top:2em;border-top:2px solid #335;padding-top:0.5em}\
         </style></head><body>\n<h1>tlbmap flight report</h1>\n",
    );
    html.push_str(&format!(
        "<p>{} threads, window {} cycles, {} windows closed ({} retained, {} dropped), \
         <strong>{} phases</strong>.</p>\n",
        report.n,
        report.window_cycles,
        report.windows_closed,
        report.windows.len(),
        report.windows_dropped,
        report.phase_count()
    ));

    html.push_str(
        "<h2>Phase timeline</h2>\n<table><tr><th>window</th><th>cycles</th>\
                   <th>phase</th><th>similarity</th><th>volume</th></tr>\n",
    );
    for w in &report.windows {
        html.push_str(&format!(
            "<tr><td>{}</td><td>{}..{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            w.index,
            w.start_cycle,
            w.end_cycle,
            w.phase,
            fmt_similarity(w.similarity_ppm),
            volume(&w.matrix)
        ));
    }
    html.push_str("</table>\n");

    for phase in &report.phases {
        html.push_str(&format!(
            "<div class=\"phase\"><h2>Phase {}</h2>\
             <p>cycles {}..{}, {} windows, volume {}</p>\n",
            phase.phase, phase.start_cycle, phase.end_cycle, phase.windows, phase.volume
        ));
        html.push_str(&svg_heatmap(&phase.matrix));
        if !phase.profile.is_empty() {
            html.push_str(
                "<table><tr><th>component</th><th>calls</th><th>exclusive cycles</th></tr>\n",
            );
            for c in &phase.profile {
                html.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                    html_escape(&c.component),
                    c.calls,
                    c.exclusive_cycles
                ));
            }
            html.push_str("</table>\n");
        }
        html.push_str("</div>\n");
    }
    html.push_str("</body></html>\n");
    Ok(html)
}

// ---------------------------------------------------------------------
// Speedscope export
// ---------------------------------------------------------------------

/// One speedscope "sampled" profile from collapsed `(stack, weight)`
/// entries, interning frames into `frames` (name → index, in order of
/// first use).
fn speedscope_profile(
    name: &str,
    entries: &[(String, u64)],
    frames: &mut HashMap<String, usize>,
) -> Json {
    let mut samples: Vec<Json> = Vec::new();
    let mut weights: Vec<Json> = Vec::new();
    let mut total = 0u64;
    for (stack, weight) in entries {
        if *weight == 0 {
            continue;
        }
        let indices: Vec<Json> = stack
            .split(';')
            .map(|frame| {
                let next = frames.len();
                Json::U64(*frames.entry(frame.to_string()).or_insert(next) as u64)
            })
            .collect();
        samples.push(Json::Arr(indices));
        weights.push(Json::U64(*weight));
        total = total.saturating_add(*weight);
    }
    Json::obj(vec![
        ("type", Json::Str("sampled".into())),
        ("name", Json::Str(name.into())),
        ("unit", Json::Str("none".into())),
        ("startValue", Json::U64(0)),
        ("endValue", Json::U64(total)),
        ("samples", Json::Arr(samples)),
        ("weights", Json::Arr(weights)),
    ])
}

/// A speedscope file: the whole-run collapsed profile, plus one profile
/// per phase when the flight recorder was on. Importable at
/// <https://www.speedscope.app> (or `speedscope <file>`).
pub(crate) fn speedscope_string(doc: &Json) -> Result<String, String> {
    let items = doc
        .get("profile")
        .and_then(Json::items)
        .ok_or("no `profile` section: record with --metrics-out (schema >= 2)")?;
    let run_entries: Vec<(String, u64)> = items
        .iter()
        .filter_map(|i| {
            let path = i.get("component").and_then(Json::as_str)?;
            let excl = i.get("exclusive_cycles").and_then(Json::as_u64)?;
            Some((path.to_string(), excl))
        })
        .collect();

    let mut frames: HashMap<String, usize> = HashMap::new();
    let mut profiles = vec![speedscope_profile("run", &run_entries, &mut frames)];
    if let Some(report) = FlightReport::from_metrics(doc)? {
        for phase in &report.phases {
            let entries: Vec<(String, u64)> = phase
                .profile
                .iter()
                .map(|c| (c.component.clone(), c.exclusive_cycles))
                .collect();
            profiles.push(speedscope_profile(
                &format!("phase {}", phase.phase),
                &entries,
                &mut frames,
            ));
        }
    }

    let mut frame_objs = vec![Json::Null; frames.len()];
    for (name, idx) in frames {
        frame_objs[idx] = Json::obj(vec![("name", Json::Str(name))]);
    }
    let file = Json::obj(vec![
        (
            "$schema",
            Json::Str("https://www.speedscope.app/file-format-schema.json".into()),
        ),
        ("shared", Json::obj(vec![("frames", Json::Arr(frame_objs))])),
        ("profiles", Json::Arr(profiles)),
        ("exporter", Json::Str("tlbmap inspect".into())),
    ]);
    let mut text = file.render();
    text.push('\n');
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{diff, diff_to_string};
    use crate::commands;
    use crate::opts::{DiffOptions, Options};
    use tlbmap_prof::diff_docs;

    /// The committed golden run (`detect ring --scale test
    /// --sm-threshold 1 --flight-window 2000 --metrics-out F`).
    const GOLDEN: &str = include_str!("../../../results/golden_metrics.json");

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("tlbmap_cli_inspect_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// `detect APP --scale test --sm-threshold 1 --flight-window 2000
    /// EXTRA --metrics-out NAME`; returns the metrics path.
    fn recorded_run(app: &str, extra: &[&str], name: &str) -> String {
        let path = tmp(name);
        let mut words = vec![app, "--scale", "test", "--sm-threshold", "1"];
        words.extend(["--flight-window", "2000", "--metrics-out", &path]);
        words.extend(extra);
        let words: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        commands::detect(Options::parse(&words).unwrap()).unwrap();
        path
    }

    fn report_of(doc: &Json) -> FlightReport {
        FlightReport::from_metrics(doc)
            .unwrap()
            .expect("flight recorded")
    }

    fn timeline_of(doc: &Json) -> Timeline {
        Timeline::from_json(doc.get("timeline").expect("timeline section")).unwrap()
    }

    #[test]
    fn inspect_finds_the_two_phase_boundary_within_one_window() {
        // The synthetic two-phase workload has a known mid-run
        // communication shift; the flight recorder must detect exactly
        // one phase change, within one window of the true boundary (the
        // barrier between the two iteration halves).
        let doc = load(&recorded_run("phased", &[], "phased_metrics.json")).unwrap();
        let report = report_of(&doc);
        assert_eq!(report.phase_count(), 2, "exactly one phase change");
        let boundaries = report.boundary_cycles();
        assert_eq!(boundaries.len(), 1);

        // The true shift is the barrier where the partner offset flips
        // from 1 to n/2 — the instant distant-pair traffic first becomes
        // possible. The detected boundary must be within one window of
        // the first window that carries any distant-pair cell.
        let n = report.n;
        let distant =
            |w: &tlbmap_prof::PhaseWindow| (0..n).any(|t| w.matrix.get(t, (t + n / 2) % n) > 0);
        let first_distant = report
            .windows
            .iter()
            .find(|w| distant(w))
            .expect("phase-B traffic appears in some window");
        let detected = boundaries[0];
        assert!(
            detected.abs_diff(first_distant.start_cycle) <= report.window_cycles,
            "boundary {detected} not within one window ({}) of the first \
             distant-pair window at {}",
            report.window_cycles,
            first_distant.start_cycle
        );
        // And no window before it was attributed to phase 1.
        for w in &report.windows {
            if w.start_cycle < first_distant.start_cycle {
                assert_eq!(w.phase, 0, "window {} misattributed", w.index);
            }
        }

        // Both phases carry traffic and distinct patterns: phase 0 is
        // neighbor-ring (0↔1 hot), phase 1 is distant pairs (0↔n/2 hot).
        assert!(report.phases[0].matrix.get(0, 1) > 0, "phase 0 neighbors");
        assert!(report.phases[1].matrix.get(0, n / 2) > 0, "phase 1 pairs");

        let text = inspect_to_string(&doc).unwrap();
        assert!(text.contains("\nphases: 2\n"), "{text}");
        assert!(text.contains("\nphase boundaries: window 10 ("), "{text}");
        assert!(text.contains("== phase 0 "), "{text}");
        assert!(text.contains("== phase 1 "), "{text}");
        assert!(text.contains("mapping gain over identity"), "{text}");
        assert!(text.contains("drift"), "{text}");
    }

    #[test]
    fn timeline_boundaries_are_the_flight_recorders_phase_starts() {
        for (app, windows) in [
            ("phased", vec![10]),
            ("SP", vec![5]),
            ("LU", vec![4, 12]),
            ("MG", vec![2, 3]),
        ] {
            let doc = load(&recorded_run(app, &[], &format!("boundaries_{app}.json"))).unwrap();
            let tl = timeline_of(&doc);
            let flagged = tl.entries.iter().filter(|e| e.phase_boundary);
            let at: Vec<u64> = flagged.map(|e| e.index).collect();
            assert_eq!(at, windows, "{app}");
            let report = report_of(&doc);
            let starts: Vec<u64> = at
                .iter()
                .map(|&w| report.windows[w as usize].start_cycle)
                .collect();
            assert_eq!(starts, report.boundary_cycles(), "{app}");
            // The report names each boundary window and its closing cycle.
            let line: Vec<String> = at
                .iter()
                .map(|&w| format!("window {w} (cycle {})", tl.entries[w as usize].cycle))
                .collect();
            let text = inspect_to_string(&doc).unwrap();
            let expected = format!("\nphase boundaries: {}\n", line.join(", "));
            assert!(text.contains(&expected), "{app}: {text}");
        }
    }

    #[test]
    fn a_small_flight_ring_keeps_the_retained_entries_exact() {
        let full = load(&recorded_run("LU", &[], "ring_full.json")).unwrap();
        let capped = load(&recorded_run(
            "LU",
            &["--flight-capacity", "4"],
            "ring_capped.json",
        ))
        .unwrap();
        let (full_report, capped_report) = (report_of(&full), report_of(&capped));
        let closed = full_report.windows_closed as usize;
        assert!(closed > 4 && full_report.windows_dropped == 0);
        assert_eq!(capped_report.windows_dropped as usize, closed - 4);
        // The retained windows, their scores and their cumulative scores
        // are the full run's last four.
        assert_eq!(capped_report.windows, full_report.windows[closed - 4..]);
        assert_eq!(
            timeline_of(&capped).entries,
            timeline_of(&full).entries[closed - 4..]
        );
        // So are the cumulative cells: the capped run's phase totals minus
        // the retained windows after each one are the full run's prefix
        // sums.
        let n = full_report.n;
        let mut prefix = vec![0u64; n * n];
        let mut prefixes = Vec::new();
        for w in &full_report.windows {
            prefix
                .iter_mut()
                .zip(w.matrix.cells())
                .for_each(|(p, &c)| *p += c);
            prefixes.push(prefix.clone());
        }
        let mut cumulative = vec![0u64; n * n];
        for p in &capped_report.phases {
            cumulative
                .iter_mut()
                .zip(p.matrix.cells())
                .for_each(|(s, &c)| *s += c);
        }
        for w in capped_report.windows.iter().rev() {
            assert_eq!(cumulative, prefixes[w.index as usize], "window {}", w.index);
            cumulative
                .iter_mut()
                .zip(w.matrix.cells())
                .for_each(|(s, &c)| *s -= c);
        }
        let text = inspect_to_string(&capped).unwrap();
        assert!(
            text.contains(&format!("windows_dropped: {} (", closed - 4)),
            "{text}"
        );
        let full_text = inspect_to_string(&full).unwrap();
        assert!(!full_text.contains("windows_dropped: "));
        // The boundary line still names the dropped boundary windows.
        let boundaries = |text: &str| {
            let at = text.find("\nphase boundaries: ").unwrap();
            text[at..].lines().nth(1).unwrap().to_string()
        };
        assert_eq!(
            boundaries(&text),
            "phase boundaries: window 4 (cycle 10000), window 12 (cycle 26000)"
        );
        assert_eq!(boundaries(&text), boundaries(&full_text));
    }

    #[test]
    fn inspect_renders_every_section_in_order() {
        let doc = Json::parse(GOLDEN).unwrap();
        let text = inspect_to_string(&doc).unwrap();
        let mut from = 0;
        for section in [
            "== run summary ==\n",
            "== histograms ==\n",
            "detection_search_cycles: count ",
            "== flight summary ==\n",
            "\nphases: 1\n",
            "== phase timeline ==\n",
            "w.cosine",
            "\nphase boundaries: none\n",
            "== phase 0 ",
            "mapping gain over identity",
            "== cycle profile ==\n",
            "== collapsed stacks",
            "engine;access;tlb ",
        ] {
            let at = text[from..]
                .find(section)
                .unwrap_or_else(|| panic!("`{section}` missing or out of order:\n{text}"));
            from += at + section.len();
        }
        // Every retained window has its timeline scores.
        let timeline = &text[text.find("== phase timeline ==").unwrap()..];
        let rows: Vec<&str> = timeline.lines().skip(3).take(14).collect();
        assert!(rows.iter().all(|r| r.ends_with(".0000")), "{timeline}");
        // The charged leaves partition the profile: the roots (`engine`,
        // `mapper`) only aggregate, so every cycle lands in a leaf.
        let profile = doc.get("profile").and_then(Json::as_array).unwrap();
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_u64).unwrap();
        let total: u64 = profile.iter().map(|i| field(i, "exclusive_cycles")).sum();
        let leaves: u64 = profile
            .iter()
            .filter(|i| field(i, "calls") > 0)
            .filter(|i| {
                let component = i.get("component").and_then(Json::as_str).unwrap();
                !matches!(component, "engine" | "mapper")
            })
            .map(|i| field(i, "exclusive_cycles"))
            .sum();
        assert!(total > 0);
        assert_eq!(leaves, total, "leaf cycles must partition the profile");
    }

    #[test]
    fn regenerated_metrics_match_committed_golden_byte_for_byte() {
        // The counters-unchanged invariant behind the owner directory and
        // the packed trace encoding: regenerating the analysis-gate
        // artifact must reproduce the committed
        // results/golden_metrics.json exactly — not merely within a diff
        // tolerance. Any drift in modeled snoops, invalidations, miss
        // taxonomy or cycle charging shows up here first.
        let fresh = std::fs::read_to_string(recorded_run("ring", &[], "metrics_golden_check.json"))
            .unwrap();
        assert_eq!(
            fresh, GOLDEN,
            "regenerated metrics drifted from results/golden_metrics.json — \
             a hot-path change altered modeled behavior"
        );
    }

    #[test]
    fn a_run_without_a_flight_section_renders_its_summary_and_profile() {
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/golden_metrics_uniform32.json");
        let doc = load(&golden.to_string_lossy()).unwrap();
        assert!(doc.get("flight").is_some_and(|f| *f == Json::Null));
        let text = inspect_to_string(&doc).unwrap();
        assert!(text.contains("== run summary ==\n"), "{text}");
        assert!(text.contains("\ntlb_misses "), "{text}");
        assert!(
            text.contains("== flight summary ==\nnone recorded"),
            "{text}"
        );
        assert!(text.contains("== cycle profile ==\n"), "{text}");
        assert!(text.contains("engine;access;tlb "), "{text}");
        // The speedscope export needs only the profile; the HTML report
        // is the flight recorder's.
        speedscope_string(&doc).unwrap();
        assert!(html_report_string(&doc).unwrap_err().contains("flight"));
        // A document that is not a run at all is refused.
        let err = inspect_to_string(&Json::parse(r#"{"hello":"world"}"#).unwrap()).unwrap_err();
        assert!(err.contains("counters"), "{err}");
    }

    #[test]
    fn a_64_core_run_gets_mapping_quality_rows() {
        let doc = load(&recorded_run("ring", &["--cores", "64"], "ring64.json")).unwrap();
        assert_eq!(report_of(&doc).n, 64);
        let text = inspect_to_string(&doc).unwrap();
        assert!(text.contains("\nhierarchical "), "{text}");
        assert!(text.contains("mapping gain over identity"), "{text}");
    }

    #[test]
    fn identical_seeded_runs_are_byte_identical() {
        // Two identical seeded runs must produce byte-identical metrics
        // documents, text, HTML and speedscope reports, and a clean diff
        // even at a 0% gate.
        let a = recorded_run("phased", &[], "phased_det_a.json");
        let b = recorded_run("phased", &[], "phased_det_b.json");
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
            "metrics artifacts must be reproducible"
        );
        let (doc_a, doc_b) = (load(&a).unwrap(), load(&b).unwrap());
        assert_eq!(
            inspect_to_string(&doc_a).unwrap(),
            inspect_to_string(&doc_b).unwrap()
        );
        assert_eq!(
            html_report_string(&doc_a).unwrap(),
            html_report_string(&doc_b).unwrap()
        );
        assert_eq!(
            speedscope_string(&doc_a).unwrap(),
            speedscope_string(&doc_b).unwrap()
        );

        let report = diff_docs(&doc_a, &doc_b, Some(0.0));
        assert!(report.passed(), "identical runs must pass a 0% gate");
        let rendered = diff_to_string(&report, "a", "b");
        assert!(rendered.contains("no differences"), "{rendered}");
        // The command form agrees: exit success.
        diff(DiffOptions {
            baseline: a,
            candidate: b,
            fail_above: Some(0.0),
        })
        .unwrap();
    }

    #[test]
    fn inspect_writes_html_and_speedscope_artifacts() {
        let html = tmp("report.html");
        let speedscope = tmp("profile.speedscope.json");
        inspect(InspectOptions {
            from: recorded_run("phased", &[], "phased_artifacts.json"),
            html_out: Some(html.clone()),
            speedscope_out: Some(speedscope.clone()),
        })
        .unwrap();

        let html_text = std::fs::read_to_string(&html).unwrap();
        assert!(html_text.starts_with("<!DOCTYPE html>"));
        assert!(html_text.contains("<svg"), "SVG heatmaps inline");
        assert!(html_text.contains("Phase 1"), "per-phase sections");

        let ss = Json::parse(&std::fs::read_to_string(&speedscope).unwrap()).unwrap();
        assert!(ss
            .get("$schema")
            .and_then(Json::as_str)
            .unwrap()
            .contains("speedscope"));
        let profiles = ss.get("profiles").and_then(Json::as_array).unwrap();
        assert_eq!(profiles.len(), 3, "run + two phases");
        // Weights within each profile sum to its endValue.
        for p in profiles {
            let end = p.get("endValue").and_then(Json::as_u64).unwrap();
            let sum: u64 = p
                .get("weights")
                .and_then(Json::items)
                .and_then(|w| w.u64s())
                .unwrap()
                .iter()
                .sum();
            assert_eq!(sum, end);
        }
    }

    #[test]
    fn heat_colors_span_white_to_dark() {
        assert_eq!(heat_color(0.0), "#ffffff");
        assert_eq!(heat_color(1.0), "#3250aa");
        // Out-of-range intensities clamp instead of wrapping.
        assert_eq!(heat_color(-1.0), "#ffffff");
        assert_eq!(heat_color(2.0), "#3250aa");
    }

    /// Every unsigned integer in `json`, packed matrix rows included.
    fn integers(json: &mut Json) -> Vec<&mut u64> {
        match json {
            Json::U64(v) => vec![v],
            Json::U64s(values) => values.iter_mut().collect(),
            Json::Arr(items) => items.iter_mut().flat_map(integers).collect(),
            Json::Obj(pairs) => pairs.iter_mut().flat_map(|(_, v)| integers(v)).collect(),
            _ => Vec::new(),
        }
    }

    /// Every `rows` array in `json`: the flight windows' and phases'.
    fn matrices(json: &mut Json) -> Vec<&mut Json> {
        match json {
            Json::Arr(items) => items.iter_mut().flat_map(matrices).collect(),
            Json::Obj(pairs) => pairs
                .iter_mut()
                .flat_map(|(k, v)| if k == "rows" { vec![v] } else { matrices(v) })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Zero, one, a large count, the mapper's reach, the top of `u64`,
    /// or `raw`.
    fn extreme(pick: usize, raw: u64) -> u64 {
        [0, 1, 1 << 40, i64::MAX as u64, u64::MAX]
            .get(pick)
            .copied()
            .unwrap_or(raw)
    }

    /// Run every reader of a recorded run on `doc`; each may refuse it,
    /// none may panic.
    fn read_everything(doc: &Json, golden: &Json) {
        let _ = inspect_to_string(doc);
        let _ = html_report_string(doc);
        let _ = speedscope_string(doc);
        let _ = diff_docs(golden, doc, Some(0.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn mutated_metrics_documents_never_panic(
            edits in proptest::prop::collection::vec((0usize..1 << 14, 0usize..34, 0u8..=255), 1..8),
            cut in 0usize..1 << 14,
            leaves in proptest::prop::collection::vec((0usize..1 << 12, 0usize..7, proptest::any::<u64>()), 1..4),
            pairs in proptest::prop::collection::vec((0usize..64, 0usize..8, 0usize..8, 0usize..7, proptest::any::<u64>()), 1..4),
        ) {
            let golden = Json::parse(GOLDEN).unwrap();
            // Byte-mutated: bytes that steer the parser, or an arbitrary
            // one, and sometimes a truncation.
            let mut bytes = GOLDEN.as_bytes().to_vec();
            let steering = b"[]{},:\"-.eE09 \\\0\xff";
            for (at, pick, byte) in edits {
                let at = at % bytes.len();
                bytes[at] = steering.get(pick).copied().unwrap_or(byte);
            }
            if cut < bytes.len() && cut % 3 == 0 {
                bytes.truncate(cut);
            }
            if let Ok(doc) = Json::parse(&String::from_utf8_lossy(&bytes)) {
                read_everything(&doc, &golden);
            }
            // Cell-mutated: any integer of the document, then symmetric
            // pairs of a flight matrix, which pass the decoder's checks.
            let mut doc = golden.clone();
            let mut ints = integers(&mut doc);
            for (at, pick, raw) in leaves {
                let count = ints.len();
                *ints[at % count] = extreme(pick, raw);
            }
            read_everything(&doc, &golden);
            let mut doc = golden.clone();
            let mut found = matrices(&mut doc);
            for (m, i, j, pick, raw) in pairs {
                let count = found.len();
                if let Json::Arr(rows) = &mut *found[m % count] {
                    for (r, c) in [(i, j), (j, i)] {
                        if let Some(Json::U64s(row)) = rows.get_mut(r) {
                            row[c] = if i == j { 0 } else { extreme(pick, raw) };
                        }
                    }
                }
            }
            read_everything(&doc, &golden);
        }
    }
}
