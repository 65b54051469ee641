//! Committed expectations for the default seed.
//!
//! A pass's outputs are reduced to named facts — one per run statistics
//! record, detected matrix and mapping — and compared with the facts
//! committed in `perfbench/expected/<workload>.json`. Simulated statistics
//! are deterministic, so every fact must repeat exactly.

use crate::sim::{Detected, KernelOutcome};
use std::collections::BTreeMap;
use tlbmap_core::CommMatrix;
use tlbmap_obs::Json;
use tlbmap_sim::{Mapping, RunStats};

/// The seed whose outputs are committed.
pub const DEFAULT_SEED: u64 = 1;

pub type Facts = BTreeMap<String, String>;

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue `fnv` over more bytes: `fnv_extend(fnv(a), b) == fnv(a ++ b)`.
pub fn fnv_extend(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_fact(r: &RunStats) -> String {
    format!(
        "cycles={} accesses={} tlb_misses={} l2_misses={} invalidations={} snoops={} overhead={} digest={:016x}",
        r.total_cycles,
        r.accesses,
        r.tlb_misses(),
        r.cache.l2_misses,
        r.cache.invalidations,
        r.cache.snoop_transactions,
        r.detection_overhead_cycles,
        fnv(format!("{r:?}").as_bytes())
    )
}

fn matrix_fact(m: &CommMatrix) -> String {
    let n = m.num_threads();
    let cells: Vec<u8> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .flat_map(|(i, j)| m.get(i, j).to_le_bytes())
        .collect();
    format!("n={n} total={} digest={:016x}", m.total(), fnv(&cells))
}

fn mapping_fact(m: &Mapping) -> String {
    let cores: Vec<String> = m.as_slice().iter().map(usize::to_string).collect();
    cores.join(",")
}

fn detected_facts(facts: &mut Facts, prefix: &str, d: &Detected) {
    facts.insert(format!("{prefix}.run"), run_fact(&d.run));
    facts.insert(format!("{prefix}.matrix"), matrix_fact(&d.matrix));
    facts.insert(format!("{prefix}.searches"), d.searches.to_string());
    facts.insert(format!("{prefix}.mapping"), mapping_fact(&d.mapping));
    facts.insert(format!("{prefix}.mapped_run"), run_fact(&d.mapped));
}

/// Every checked output of one pass, by name.
pub fn sim_facts(outcomes: &[KernelOutcome]) -> Facts {
    let mut facts = Facts::new();
    for o in outcomes {
        facts.insert(format!("{}.baseline_run", o.name), run_fact(&o.baseline));
        detected_facts(&mut facts, &format!("{}.sm", o.name), &o.sm);
        detected_facts(&mut facts, &format!("{}.hm", o.name), &o.hm);
    }
    facts
}

/// Render facts as a JSON object, one key per line, for committing.
pub fn render(workload: &str, seed: u64, facts: &Facts) -> String {
    let mut out =
        format!("{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"facts\": {{\n");
    let lines: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("    \"{k}\": \"{v}\""))
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Parse a committed expectation file.
pub fn parse(text: &str) -> Result<Facts, String> {
    let doc = Json::parse(text).map_err(|e| format!("expectation is not JSON: {e:?}"))?;
    match doc.get("facts") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| match v {
                Json::Str(s) => Ok((k.clone(), s.clone())),
                _ => Err(format!("fact {k} is not a string")),
            })
            .collect(),
        _ => Err("expectation has no facts object".to_string()),
    }
}

/// Facts that differ between `expected` and `got`, each described once.
pub fn mismatches(expected: &Facts, got: &Facts) -> Vec<String> {
    let mut out = Vec::new();
    for (k, v) in got {
        match expected.get(k) {
            Some(e) if e == v => {}
            Some(e) => out.push(format!("{k}: expected `{e}`, got `{v}`")),
            None => out.push(format!("{k}: not in the expectation")),
        }
    }
    for k in expected.keys().filter(|k| !got.contains_key(*k)) {
        out.push(format!("{k}: expected but not produced"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_facts_parse_back() {
        let mut f = Facts::new();
        f.insert("BT.sm.mapping".into(), "0,1,2,3".into());
        f.insert("BT.sm.searches".into(), "12".into());
        assert_eq!(parse(&render("npb-pipeline", 1, &f)).unwrap(), f);
    }

    #[test]
    fn mismatches_name_changed_missing_and_extra_facts() {
        let mut e = Facts::new();
        e.insert("a".into(), "1".into());
        e.insert("b".into(), "2".into());
        let mut g = e.clone();
        g.insert("a".into(), "9".into());
        g.remove("b");
        g.insert("c".into(), "3".into());
        let m = mismatches(&e, &g);
        assert_eq!(m.len(), 3, "{m:?}");
    }
}
