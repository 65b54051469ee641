//! `tlbmap analyze` and `tlbmap diff` — the run-analysis subcommands
//! built on [`tlbmap_prof`].
//!
//! `analyze` pretty-prints the accuracy timeline and cycle profile out of
//! a recorded metrics document. `diff` compares two documents and
//! optionally gates on regressions.
//!
//! The renderers are string-returning so tests can assert byte-identical
//! output across identical seeded runs.

use crate::opts::{DiffOptions, Options};
use tlbmap_bench::{bar, Table};
use tlbmap_obs::{Json, COUNTERS};
use tlbmap_prof::{diff_docs, DiffReport, Timeline};

/// Width of the sparkline bars in `analyze` tables.
const BAR_WIDTH: usize = 20;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `tlbmap analyze --from <metrics.json>`
pub fn analyze(o: Options) -> Result<(), String> {
    let path = o
        .from
        .as_ref()
        .ok_or_else(|| "analyze needs --from <metrics.json>".to_string())?;
    let doc = load(path)?;
    print!("{}", analyze_to_string(&doc)?);
    Ok(())
}

/// Render the analysis of a run document. Public within the crate so the
/// determinism tests can compare outputs without capturing stdout.
pub(crate) fn analyze_to_string(doc: &Json) -> Result<String, String> {
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
    out.push_str(&render_timeline(doc)?);
    out.push('\n');
    out.push_str(&render_profile(doc));
    Ok(out)
}

/// The accuracy-timeline section of `analyze`.
fn render_timeline(doc: &Json) -> Result<String, String> {
    let mut out = String::new();
    out.push_str("== accuracy timeline ==\n");
    let Some(section) = doc.get("timeline") else {
        out.push_str("none recorded (run with --snapshot-every and --metrics-out)\n");
        return Ok(out);
    };
    let tl = Timeline::from_json(section)?;
    if tl.entries.is_empty() {
        out.push_str("empty (no snapshots, or ground truth unavailable)\n");
        return Ok(out);
    }
    let mut t = Table::new(vec![
        "window", "cycle", "barrier", "pearson", "cosine", "nmse", "w.cosine", "phase", "trend",
    ]);
    for e in &tl.entries {
        t.row(vec![
            e.index.to_string(),
            e.cycle.to_string(),
            e.barrier.to_string(),
            format!("{:.4}", e.cumulative.pearson),
            format!("{:.4}", e.cumulative.cosine),
            format!("{:.4}", e.cumulative.nmse),
            format!("{:.4}", e.windowed.cosine),
            if e.phase_boundary { "*" } else { "" }.to_string(),
            bar(e.cumulative.cosine, 1.0, BAR_WIDTH),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "cumulative/windowed scores vs ground truth; phase threshold {}\n",
        tl.phase_threshold
    ));
    let boundaries = tl.phase_boundaries();
    if boundaries.is_empty() {
        out.push_str("phase boundaries: none\n");
    } else {
        let at: Vec<String> = boundaries
            .iter()
            .map(|&i| {
                format!(
                    "window {} (cycle {})",
                    tl.entries[i].index, tl.entries[i].cycle
                )
            })
            .collect();
        out.push_str(&format!("phase boundaries: {}\n", at.join(", ")));
    }
    Ok(out)
}

/// The cycle-profile section of `analyze`.
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
    let total: u64 = items
        .iter()
        .filter_map(|i| i.get("exclusive_cycles").and_then(Json::as_u64))
        .sum();
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
        let calls = item.get("calls").and_then(Json::as_u64).unwrap_or(0);
        let excl = item
            .get("exclusive_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let incl = item
            .get("inclusive_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let share = excl as f64 / total.max(1) as f64;
        t.row(vec![
            path,
            calls.to_string(),
            excl.to_string(),
            incl.to_string(),
            format!("{:.1}%", 100.0 * share),
            bar(share, 1.0, BAR_WIDTH),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n== collapsed stacks (flamegraph.pl / speedscope) ==\n");
    for item in items.iter() {
        let excl = item
            .get("exclusive_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if let Some(path) = item.get("component").and_then(Json::as_str) {
            out.push_str(&format!("{path} {excl}\n"));
        }
    }
    out
}

/// `tlbmap diff [--fail-above <pct>] <a.json> <b.json>`
///
/// Returns `Err` — a non-zero process exit — when the gate is armed and
/// any stat regressed beyond the threshold (or the schemas drifted).
pub fn diff(d: DiffOptions) -> Result<(), String> {
    let a = load(&d.baseline)?;
    let b = load(&d.candidate)?;
    let report = diff_docs(&a, &b, d.fail_above);
    print!("{}", diff_to_string(&report, &d.baseline, &d.candidate));
    let breaches = report.regressions().len();
    if breaches > 0 {
        return Err(format!(
            "{breaches} stat(s) regressed beyond {:.2}% (see table above)",
            d.fail_above.unwrap_or(0.0)
        ));
    }
    Ok(())
}

/// Render a diff report as an aligned table of changed stats.
pub(crate) fn diff_to_string(report: &DiffReport, a_name: &str, b_name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("== diff: {a_name} -> {b_name} ==\n"));
    let changed = report.changed();
    if changed.is_empty() {
        out.push_str(&format!(
            "no differences ({} stats compared)\n",
            report.entries.len()
        ));
        return out;
    }
    let fmt = |v: Option<f64>| v.map_or_else(|| "missing".to_string(), |x| format!("{x}"));
    let mut t = Table::new(vec!["stat", "baseline", "candidate", "delta", "gate"]);
    for e in &changed {
        let delta = match e.delta_pct {
            Some(pct) => format!("{pct:+.2}%"),
            None if e.a.is_none() || e.b.is_none() => "schema drift".to_string(),
            None => "from zero".to_string(),
        };
        t.row(vec![
            e.key.clone(),
            fmt(e.a),
            fmt(e.b),
            delta,
            if e.regression { "BREACH" } else { "ok" }.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "{} stats compared, {} changed, {} regression(s)",
        report.entries.len(),
        changed.len(),
        report.regressions().len()
    ));
    match report.fail_above_pct {
        Some(pct) => out.push_str(&format!(" (gate: fail above {pct}%)\n")),
        None => out.push_str(" (no gate)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands;
    use crate::opts::Options;

    fn opts(words: &[&str]) -> Options {
        Options::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tlbmap_cli_analysis_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Run `detect` with metrics + snapshots into `name`, return the path.
    fn recorded_run(name: &str) -> String {
        let path = tmp(name).to_string_lossy().into_owned();
        let mut o = opts(&["ring", "--scale", "test", "--sm-threshold", "1"]);
        o.metrics_out = Some(path.clone());
        o.snapshot_every = Some(2_000);
        commands::detect(o).unwrap();
        path
    }

    #[test]
    fn analyze_renders_timeline_and_profile() {
        let path = recorded_run("metrics_analyze.json");
        let doc = load(&path).unwrap();
        let text = analyze_to_string(&doc).unwrap();
        assert!(text.contains("== run summary =="), "{text}");
        assert!(text.contains("== accuracy timeline =="), "{text}");
        assert!(text.contains("pearson"), "{text}");
        assert!(text.contains("== cycle profile =="), "{text}");
        assert!(text.contains("engine;access;tlb"), "{text}");
        assert!(text.contains("== collapsed stacks"), "{text}");
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
        // The command wrapper needs --from.
        assert!(analyze(opts(&[])).is_err());
        let mut o = opts(&[]);
        o.from = Some(path);
        analyze(o).unwrap();
    }

    #[test]
    fn regenerated_metrics_match_committed_golden_byte_for_byte() {
        // The counters-unchanged invariant behind the owner directory and
        // the packed trace encoding: regenerating the analysis-gate
        // artifact (`detect ring --scale test --sm-threshold 1
        // --snapshot-every 2000`) must reproduce the committed
        // results/golden_metrics.json exactly — not merely within a diff
        // tolerance. Any drift in modeled snoops, invalidations, miss
        // taxonomy or cycle charging shows up here first.
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/golden_metrics.json");
        let committed = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        let fresh = std::fs::read_to_string(recorded_run("metrics_golden_check.json")).unwrap();
        assert_eq!(
            fresh, committed,
            "regenerated metrics drifted from results/golden_metrics.json — \
             a hot-path change altered modeled behavior"
        );
    }

    #[test]
    fn analyze_rejects_non_run_documents() {
        let doc = Json::parse(r#"{"hello":"world"}"#).unwrap();
        assert!(analyze_to_string(&doc).is_err());
    }

    #[test]
    fn identical_seeded_runs_are_byte_identical() {
        // Satellite: determinism. Two identical seeded runs must produce
        // byte-identical metrics documents, analyze output, and a clean
        // diff even at a 0% gate.
        let a = recorded_run("metrics_det_a.json");
        let b = recorded_run("metrics_det_b.json");
        let text_a = std::fs::read_to_string(&a).unwrap();
        let text_b = std::fs::read_to_string(&b).unwrap();
        assert_eq!(text_a, text_b, "metrics artifacts must be reproducible");

        let doc_a = load(&a).unwrap();
        let doc_b = load(&b).unwrap();
        assert_eq!(
            analyze_to_string(&doc_a).unwrap(),
            analyze_to_string(&doc_b).unwrap()
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
    fn diff_gate_exit_semantics() {
        let a = tmp("gate_a.json");
        let b = tmp("gate_b.json");
        std::fs::write(&a, r#"{"counters":{"tlb_misses":100}}"#).unwrap();
        std::fs::write(&b, r#"{"counters":{"tlb_misses":110}}"#).unwrap();
        let d = |fail_above| DiffOptions {
            baseline: a.to_string_lossy().into_owned(),
            candidate: b.to_string_lossy().into_owned(),
            fail_above,
        };
        // 10% more misses: breaches a 5% gate, passes a 20% gate,
        // and passes with no gate at all.
        assert!(diff(d(Some(5.0))).is_err());
        assert!(diff(d(Some(20.0))).is_ok());
        assert!(diff(d(None)).is_ok());
    }
}
