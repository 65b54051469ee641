//! Run diffing and regression gating.
//!
//! Compares the numeric stats of two metrics documents (as written by
//! `--metrics-out`) and decides whether the second run regressed. Stats
//! are flattened to dotted keys (`counters.tlb_misses`,
//! `histograms.detection_search_cycles.sum`, …); arrays (flight windows,
//! events, buckets, timeline entries) are summarized by the scalars
//! around them rather than diffed cell by cell.
//!
//! A seeded run's stats are simulated, so two runs of the same
//! configuration agree bit for bit. The gate is direction-aware:
//! cost-style keys (misses, overhead, cycles, drops) regress when they
//! *grow*, and everything else breaches on *any* relative change beyond
//! the threshold. A key present in only one document is schema drift
//! and always breaches.

use tlbmap_obs::Json;

/// Which direction of change counts as a regression for a stat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (cost): regression when the value grows.
    LowerIsBetter,
    /// Deterministic stat: any drift beyond the threshold is a regression.
    Exact,
}

impl Direction {
    /// Classify a flattened key by naming convention.
    pub fn of_key(key: &str) -> Direction {
        let leaf = key.rsplit('.').next().unwrap_or(key);
        if leaf.contains("miss")
            || leaf.contains("overhead")
            || leaf.contains("cycles")
            || leaf.contains("dropped")
        {
            Direction::LowerIsBetter
        } else {
            Direction::Exact
        }
    }
}

/// One compared stat.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Flattened dotted key.
    pub key: String,
    /// Value in the baseline document (`None` = key missing there).
    pub a: Option<f64>,
    /// Value in the candidate document (`None` = key missing there).
    pub b: Option<f64>,
    /// Relative change in percent, baseline-relative. `None` when either
    /// side is missing or the baseline is zero with a nonzero candidate.
    pub delta_pct: Option<f64>,
    /// Gate direction applied to this key.
    pub direction: Direction,
    /// Whether this stat breached the gate.
    pub regression: bool,
}

/// The full comparison of two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every compared stat, in the baseline document's key order (keys
    /// only in the candidate follow, in its order).
    pub entries: Vec<DiffEntry>,
    /// Gate threshold in percent, if one was requested.
    pub fail_above_pct: Option<f64>,
}

impl DiffReport {
    /// Stats that breached the gate.
    pub fn regressions(&self) -> Vec<&DiffEntry> {
        self.entries.iter().filter(|e| e.regression).collect()
    }

    /// Whether the candidate passes the gate.
    pub fn passed(&self) -> bool {
        self.entries.iter().all(|e| !e.regression)
    }

    /// Stats that changed at all (including missing keys).
    pub fn changed(&self) -> Vec<&DiffEntry> {
        self.entries
            .iter()
            .filter(|e| e.a != e.b || e.a.is_none() || e.b.is_none())
            .collect()
    }
}

/// Flatten a document's numeric leaves to `(dotted_key, value)` pairs,
/// skipping arrays (flight windows, traces, buckets, timeline entries) and
/// non-numeric leaves. Key order follows the document.
pub fn flatten_stats(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten_into(doc, String::new(), &mut out);
    out
}

fn flatten_into(json: &Json, prefix: String, out: &mut Vec<(String, f64)>) {
    match json {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(v, key, out);
            }
        }
        Json::U64(_) | Json::I64(_) | Json::F64(_) => {
            if let Some(v) = json.as_f64() {
                out.push((prefix, v));
            }
        }
        // Arrays, strings, bools, nulls: not gated stats.
        _ => {}
    }
}

/// Compare two documents. `fail_above_pct` arms the regression gate: any
/// stat whose adverse change exceeds it (or whose key exists on only one
/// side) is marked a regression.
pub fn diff_docs(a: &Json, b: &Json, fail_above_pct: Option<f64>) -> DiffReport {
    let av = flatten_stats(a);
    let bv = flatten_stats(b);
    let b_lookup: Vec<(&str, f64)> = bv.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let find = |pairs: &[(&str, f64)], key: &str| -> Option<f64> {
        pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    };

    let mut entries = Vec::new();
    for (key, va) in &av {
        let vb = find(&b_lookup, key);
        entries.push(entry(key, Some(*va), vb, fail_above_pct));
    }
    for (key, vb) in &bv {
        if !av.iter().any(|(k, _)| k == key) {
            entries.push(entry(key, None, Some(*vb), fail_above_pct));
        }
    }
    DiffReport {
        entries,
        fail_above_pct,
    }
}

fn entry(key: &str, a: Option<f64>, b: Option<f64>, gate: Option<f64>) -> DiffEntry {
    let direction = Direction::of_key(key);
    let delta_pct = match (a, b) {
        (Some(va), Some(vb)) => {
            if va == vb {
                Some(0.0)
            } else if va == 0.0 {
                None // new signal out of nothing: no finite percentage
            } else {
                Some(100.0 * (vb - va) / va)
            }
        }
        _ => None,
    };
    let regression = match gate {
        None => false,
        Some(threshold) => match (a, b, delta_pct) {
            // Schema drift: a stat appeared or vanished.
            (None, _, _) | (_, None, _) => true,
            // Baseline zero, candidate nonzero: infinite relative growth.
            (Some(_), Some(vb), None) => vb != 0.0,
            (Some(_), Some(_), Some(pct)) => match direction {
                Direction::LowerIsBetter => pct > threshold,
                Direction::Exact => pct.abs() > threshold,
            },
        },
    };
    DiffEntry {
        key: key.to_string(),
        a,
        b,
        delta_pct,
        direction,
        regression,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn identical_docs_pass_any_gate() {
        let a = doc(r#"{"counters":{"accesses":100,"tlb_misses":7},"rate":0.5}"#);
        let r = diff_docs(&a, &a, Some(0.0));
        assert!(r.passed());
        assert!(r.changed().is_empty());
        assert_eq!(r.entries.len(), 3);
        assert!(r.entries.iter().all(|e| e.delta_pct == Some(0.0)));
    }

    #[test]
    fn directionality_of_the_gate() {
        let a = doc(r#"{"counters":{"tlb_misses":100,"accesses":50}}"#);
        // Misses down, accesses unchanged: fine.
        let better = doc(r#"{"counters":{"tlb_misses":80,"accesses":50}}"#);
        assert!(diff_docs(&a, &better, Some(5.0)).passed());
        // Misses up 10%: breach.
        let missier = doc(r#"{"counters":{"tlb_misses":110,"accesses":50}}"#);
        let r = diff_docs(&a, &missier, Some(5.0));
        assert!(!r.passed());
        assert_eq!(r.regressions()[0].key, "counters.tlb_misses");
        // Exact stat drifting either way: breach.
        let drifted = doc(r#"{"counters":{"tlb_misses":100,"accesses":40}}"#);
        assert!(!diff_docs(&a, &drifted, Some(5.0)).passed());
    }

    #[test]
    fn within_threshold_changes_pass() {
        let a = doc(r#"{"counters":{"accesses":1000,"tlb_misses":100}}"#);
        let b = doc(r#"{"counters":{"accesses":970,"tlb_misses":103}}"#);
        assert!(diff_docs(&a, &b, Some(5.0)).passed());
        assert!(!diff_docs(&a, &b, Some(2.0)).passed());
        // No gate: nothing regresses, but changes are still reported.
        let r = diff_docs(&a, &b, None);
        assert!(r.passed());
        assert_eq!(r.changed().len(), 2);
    }

    #[test]
    fn schema_drift_always_breaches() {
        let a = doc(r#"{"counters":{"accesses":100}}"#);
        let b = doc(r#"{"counters":{"accesses":100,"new_counter":1}}"#);
        let r = diff_docs(&a, &b, Some(50.0));
        assert!(!r.passed());
        assert_eq!(r.regressions()[0].key, "counters.new_counter");
        let r = diff_docs(&b, &a, Some(50.0));
        assert!(!r.passed(), "vanished key is drift too");
    }

    #[test]
    fn zero_baseline_growth_breaches_cost_stats() {
        let a = doc(r#"{"counters":{"events_dropped":0,"barriers":0}}"#);
        let b = doc(r#"{"counters":{"events_dropped":5,"barriers":0}}"#);
        let r = diff_docs(&a, &b, Some(5.0));
        assert!(!r.passed());
        assert_eq!(r.regressions()[0].key, "counters.events_dropped");
        assert_eq!(r.regressions()[0].delta_pct, None);
    }

    #[test]
    fn arrays_are_not_diffed() {
        let a = doc(r#"{"windows":[{"cycle":1}],"n":2}"#);
        let b = doc(r#"{"windows":[{"cycle":1},{"cycle":2}],"n":2}"#);
        assert!(diff_docs(&a, &b, Some(0.0)).passed());
    }

    #[test]
    fn direction_classification() {
        assert_eq!(
            Direction::of_key("counters.tlb_misses"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            Direction::of_key("counters.detection_overhead_cycles"),
            Direction::LowerIsBetter
        );
        assert_eq!(Direction::of_key("counters.accesses"), Direction::Exact);
        assert_eq!(Direction::of_key("schema"), Direction::Exact);
    }
}
