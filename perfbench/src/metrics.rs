//! The metrics the benchmark reports, with their units.
//!
//! Untraced runs report every end-to-end metric; traced runs report every
//! per-layer metric. A layer a workload never calls reports 0 there (for
//! example `serve.encode_us` on the simulator workloads).

use std::collections::BTreeMap;

/// A metric's name, unit and direction.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`; read by the tests that hold `BENCHMARK.json`
    /// to these declarations.
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("throughput_per_s", "1/s", "higher"),
    m("latency_ms", "ms", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("ok_ratio", "ratio", "higher"),
];

pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.generate_ms", "ms", "lower"),
    m("sim.simulate_ns_per_event", "ns", "lower"),
    m("mem.translate_ns", "ns", "lower"),
    m("cache.access_ns", "ns", "lower"),
    m("sim.unexplained_ns_per_event", "ns", "lower"),
    m("sim.explained_pct", "%", "higher"),
    m("sim.replayed_ms", "ms", "lower"),
    m("mem.tlb_miss_ratio", "ratio", "lower"),
    m("cache.l2_miss_ratio", "ratio", "lower"),
    m("cache.invalidations_per_kaccess", "count", "lower"),
    m("cache.snoops_per_kaccess", "count", "lower"),
    m("detect.sm_ns_per_event", "ns", "lower"),
    m("detect.sm_searches", "count", "lower"),
    m("detect.hm_search_us", "us", "lower"),
    m("detect.hm_searches", "count", "lower"),
    m("mapping.map_us", "us", "lower"),
    m("serve.encode_us", "us", "lower"),
    m("serve.parse_us", "us", "lower"),
    m("serve.session_delta_us", "us", "lower"),
    m("serve.queue_wait_us", "us", "lower"),
    m("serve.compute_us", "us", "lower"),
    m("serve.unexplained_us", "us", "lower"),
    m("serve.cache_hit_ratio", "ratio", "higher"),
    m("serve.remap_ratio", "ratio", "lower"),
    m("serve.warm_ratio", "ratio", "higher"),
    m("serve.miss_per_s", "1/s", "higher"),
    m("serve.hit_per_s", "1/s", "higher"),
    m("serve.delta_per_s", "1/s", "higher"),
    m("serve.miss_p50_ms", "ms", "lower"),
    m("serve.hit_p50_ms", "ms", "lower"),
    m("serve.delta_p50_ms", "ms", "lower"),
    m("serve.latency_p99_ms", "ms", "lower"),
    m("serve.latency_samples", "count", "higher"),
    m("host.slowdown", "ratio", "lower"),
    m("trace.throughput_per_s", "1/s", "higher"),
    m("trace.overhead_pct", "%", "lower"),
    m("trace.spans", "count", "lower"),
];

/// Values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    /// The `metrics` object over `defs`: every declared metric, in
    /// declaration order, with its unit. Unset metrics read 0.
    pub fn render(&self, defs: &[MetricDef]) -> String {
        let items: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.0.get(d.name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median of a sample (the mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_name_a_unit_and_a_direction() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "metric {} declared twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} of {}",
                d.unit,
                d.name
            );
            assert!(d.better == "lower" || d.better == "higher");
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        use tlbmap_obs::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let declared: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
