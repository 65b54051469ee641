//! `tlbmap diff` — compare two recorded runs stat by stat with
//! [`tlbmap_prof::diff_docs`], optionally gating on regressions.
//!
//! The renderer is string-returning so tests can assert byte-identical
//! output across identical seeded runs.

use crate::inspect::load;
use crate::opts::DiffOptions;
use tlbmap_bench::Table;
use tlbmap_prof::{diff_docs, DiffReport};

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

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tlbmap_cli_analysis_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
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
