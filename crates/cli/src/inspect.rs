//! `tlbmap inspect` — the flight-recorder run explorer.
//!
//! Consumes a recorded metrics document (schema 3, with a `flight`
//! section) and renders the run's *phase structure*: a phase timeline
//! with drift sparklines, a per-phase communication heatmap, per-phase
//! mapping quality (what the mapper would do with each phase's matrix),
//! and per-phase cycle attribution. Optional exports: a self-contained
//! HTML report with SVG heatmaps (`--html-out`) and a
//! speedscope-importable profile (`--speedscope-out`).
//!
//! All renderers are string-returning and derive everything from the
//! document, so identical inputs produce byte-identical reports — the
//! determinism tests rely on that.

use crate::opts::Options;
use tlbmap_bench::{bar, sparkline, Table};
use tlbmap_core::CommMatrix;
use tlbmap_mapping::{mapping_cost, normalized_mapping_quality, HierarchicalMapper, Mapping};
use tlbmap_obs::Json;
use tlbmap_prof::{FlightReport, PhaseSummary};
use tlbmap_sim::Topology;

/// Width of the share bars in attribution tables.
const BAR_WIDTH: usize = 20;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `tlbmap inspect --from <metrics.json> [--html-out F] [--speedscope-out F]`
pub fn inspect(o: Options) -> Result<(), String> {
    let path = o
        .from
        .as_ref()
        .ok_or_else(|| "inspect needs --from <metrics.json>".to_string())?;
    let doc = load(path)?;
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

/// The scaling-study topology matching a thread count, if any — the
/// metrics document does not record the machine, so per-phase mapping
/// quality is only derivable for the four known machine sizes.
fn topology_for(n: usize) -> Option<Topology> {
    match n {
        4 => Some(Topology::new(1, 2, 2)),
        8 => Some(Topology::harpertown()),
        16 => Some(Topology::new(2, 4, 2)),
        32 => Some(Topology::new(4, 4, 2)),
        _ => None,
    }
}

fn fmt_similarity(ppm: Option<u64>) -> String {
    match ppm {
        Some(ppm) => format!("{:.3}", ppm as f64 / 1e6),
        None => "-".to_string(),
    }
}

/// Render the full text report. `Err` when the document has no usable
/// flight section (never recorded, or the recorder was disabled).
pub(crate) fn inspect_to_string(doc: &Json) -> Result<String, String> {
    let report = FlightReport::from_metrics(doc)?.ok_or_else(|| {
        "no flight section: record with --flight-window and --metrics-out".to_string()
    })?;

    let mut out = String::new();
    out.push_str("== flight summary ==\n");
    let mut t = Table::new(vec!["stat", "value"]);
    t.row(vec!["threads".to_string(), report.n.to_string()]);
    t.row(vec![
        "window_cycles".to_string(),
        report.window_cycles.to_string(),
    ]);
    t.row(vec![
        "windows_closed".to_string(),
        report.windows_closed.to_string(),
    ]);
    t.row(vec![
        "windows_retained".to_string(),
        report.windows.len().to_string(),
    ]);
    t.row(vec![
        "windows_dropped".to_string(),
        report.windows_dropped.to_string(),
    ]);
    out.push_str(&t.render());
    // The stable machine-greppable phase count (CI asserts on this line).
    out.push_str(&format!("phases: {}\n", report.phase_count()));

    out.push('\n');
    out.push_str(&render_timeline(&report));
    for phase in &report.phases {
        out.push('\n');
        out.push_str(&render_phase(&report, phase));
    }
    Ok(out)
}

/// The phase-timeline section: one row per retained window, plus volume
/// and drift sparklines over the whole retained ring.
fn render_timeline(report: &FlightReport) -> String {
    let mut out = String::new();
    out.push_str("== phase timeline ==\n");
    if report.windows.is_empty() {
        out.push_str("no windows retained (run shorter than one window?)\n");
        return out;
    }
    let mut t = Table::new(vec![
        "window",
        "cycles",
        "phase",
        "similarity",
        "volume",
        "drift",
    ]);
    for w in &report.windows {
        let volume: u64 = w.cells.iter().sum();
        // The drift bar shows *divergence* (1 - similarity): taller bar,
        // bigger pattern shift.
        let drift = w.similarity_ppm.map_or(0.0, |ppm| 1.0 - (ppm as f64 / 1e6));
        t.row(vec![
            w.index.to_string(),
            format!("{}..{}", w.start_cycle, w.end_cycle),
            w.phase.to_string(),
            fmt_similarity(w.similarity_ppm),
            volume.to_string(),
            bar(drift, 1.0, BAR_WIDTH),
        ]);
    }
    out.push_str(&t.render());

    let volumes: Vec<f64> = report
        .windows
        .iter()
        .map(|w| w.cells.iter().sum::<u64>() as f64)
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

    let boundaries = report.boundary_cycles();
    if boundaries.is_empty() {
        out.push_str("phase boundaries: none\n");
    } else {
        let at: Vec<String> = boundaries.iter().map(|c| format!("cycle {c}")).collect();
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
    let matrix = phase.matrix(report.n);
    out.push_str(&matrix.heatmap());

    if let Some(topo) = topology_for(report.n) {
        if phase.volume > 0 {
            let identity = Mapping::identity(report.n);
            let mapped = HierarchicalMapper::new().map(&matrix, &topo);
            let before = mapping_cost(&matrix, &identity, &topo);
            let after = mapping_cost(&matrix, &mapped, &topo);
            let mut t = Table::new(vec!["mapping", "cost", "quality"]);
            t.row(vec![
                "identity".to_string(),
                before.to_string(),
                format!(
                    "{:.4}",
                    normalized_mapping_quality(&matrix, &identity, &topo)
                ),
            ]);
            t.row(vec![
                "hierarchical".to_string(),
                after.to_string(),
                format!("{:.4}", normalized_mapping_quality(&matrix, &mapped, &topo)),
            ]);
            out.push_str(&t.render());
            let saved = 100.0 * (before.saturating_sub(after)) as f64 / (before.max(1)) as f64;
            out.push_str(&format!("mapping gain over identity: {saved:.1}%\n"));
        }
    }

    if !phase.profile.is_empty() {
        let total: u64 = phase.profile.iter().map(|c| c.exclusive_cycles).sum();
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
        let volume: u64 = w.cells.iter().sum();
        html.push_str(&format!(
            "<tr><td>{}</td><td>{}..{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            w.index,
            w.start_cycle,
            w.end_cycle,
            w.phase,
            fmt_similarity(w.similarity_ppm),
            volume
        ));
    }
    html.push_str("</table>\n");

    for phase in &report.phases {
        html.push_str(&format!(
            "<div class=\"phase\"><h2>Phase {}</h2>\
             <p>cycles {}..{}, {} windows, volume {}</p>\n",
            phase.phase, phase.start_cycle, phase.end_cycle, phase.windows, phase.volume
        ));
        html.push_str(&svg_heatmap(&phase.matrix(report.n)));
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
/// entries, interning frames into `frames`.
fn speedscope_profile(name: &str, entries: &[(String, u64)], frames: &mut Vec<String>) -> Json {
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
                let idx = match frames.iter().position(|f| f == frame) {
                    Some(idx) => idx,
                    None => {
                        frames.push(frame.to_string());
                        frames.len() - 1
                    }
                };
                Json::U64(idx as u64)
            })
            .collect();
        samples.push(Json::Arr(indices));
        weights.push(Json::U64(*weight));
        total += weight;
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

    let mut frames: Vec<String> = Vec::new();
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

    let frame_objs: Vec<Json> = frames
        .into_iter()
        .map(|name| Json::obj(vec![("name", Json::Str(name))]))
        .collect();
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
    use crate::commands;
    use crate::opts::Options;

    fn opts(words: &[&str]) -> Options {
        Options::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("tlbmap_cli_inspect_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// A recorded two-phase run: the `phased` synthetic workload under a
    /// dense sampling threshold, with the flight window sized so each
    /// phase spans several windows.
    fn phased_run(name: &str) -> String {
        let path = tmp(name);
        let mut o = opts(&["phased", "--scale", "test", "--sm-threshold", "1"]);
        o.metrics_out = Some(path.clone());
        o.flight_window = Some(2_000);
        commands::detect(o).unwrap();
        path
    }

    #[test]
    fn inspect_finds_the_two_phase_boundary_within_one_window() {
        // Satellite: the synthetic two-phase workload has a known
        // mid-run communication shift; the flight recorder must detect
        // exactly one phase change, within one window of the true
        // boundary (the barrier between the two iteration halves).
        let doc = load(&phased_run("phased_metrics.json")).unwrap();
        let report = tlbmap_prof::FlightReport::from_metrics(&doc)
            .unwrap()
            .expect("flight recorded");
        assert_eq!(report.phase_count(), 2, "exactly one phase change");
        let boundaries = report.boundary_cycles();
        assert_eq!(boundaries.len(), 1);

        // The true shift is the barrier where the partner offset flips
        // from 1 to n/2 — the instant distant-pair traffic first becomes
        // possible. The detected boundary must be within one window of
        // the first window that carries any distant-pair cell.
        let n = report.n;
        let distant =
            |w: &tlbmap_prof::PhaseWindow| (0..n).any(|t| w.cells[t * n + (t + n / 2) % n] > 0);
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
        let p0 = report.phases[0].matrix(n);
        let p1 = report.phases[1].matrix(n);
        assert!(p0.get(0, 1) > 0, "phase 0 has neighbor traffic");
        assert!(p1.get(0, n / 2) > 0, "phase 1 has distant-pair traffic");

        let text = inspect_to_string(&doc).unwrap();
        assert!(text.contains("phases: 2"), "{text}");
        assert!(text.contains("== phase timeline =="), "{text}");
        assert!(text.contains("== phase 0 "), "{text}");
        assert!(text.contains("== phase 1 "), "{text}");
        assert!(text.contains("phase boundaries: cycle"), "{text}");
        assert!(text.contains("mapping gain over identity"), "{text}");
        assert!(text.contains("drift"), "{text}");
    }

    #[test]
    fn inspect_report_is_byte_identical_across_runs() {
        // Satellite: determinism. Two identical seeded runs must render
        // byte-identical inspect reports (text, HTML, and speedscope).
        let a = load(&phased_run("phased_det_a.json")).unwrap();
        let b = load(&phased_run("phased_det_b.json")).unwrap();
        assert_eq!(
            inspect_to_string(&a).unwrap(),
            inspect_to_string(&b).unwrap()
        );
        assert_eq!(
            html_report_string(&a).unwrap(),
            html_report_string(&b).unwrap()
        );
        assert_eq!(
            speedscope_string(&a).unwrap(),
            speedscope_string(&b).unwrap()
        );
    }

    #[test]
    fn inspect_writes_html_and_speedscope_artifacts() {
        let metrics = phased_run("phased_artifacts.json");
        let html = tmp("report.html");
        let speedscope = tmp("profile.speedscope.json");
        let mut o = opts(&[]);
        o.from = Some(metrics);
        o.html_out = Some(html.clone());
        o.speedscope_out = Some(speedscope.clone());
        inspect(o).unwrap();

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
    fn inspect_without_flight_section_is_a_display_error() {
        let doc = Json::parse(r#"{"schema":2,"counters":{}}"#).unwrap();
        let err = inspect_to_string(&doc).unwrap_err();
        assert!(err.contains("flight"), "{err}");
        // The command wrapper needs --from.
        assert!(inspect(opts(&[])).is_err());
    }

    #[test]
    fn heat_colors_span_white_to_dark() {
        assert_eq!(heat_color(0.0), "#ffffff");
        assert_eq!(heat_color(1.0), "#3250aa");
        // Out-of-range intensities clamp instead of wrapping.
        assert_eq!(heat_color(-1.0), "#ffffff");
        assert_eq!(heat_color(2.0), "#3250aa");
    }
}
