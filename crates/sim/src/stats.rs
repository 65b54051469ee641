//! Per-run results: cycles, TLB behaviour, cache events, detection overhead.

use tlbmap_cache::CacheStats;
use tlbmap_mem::TlbStats;
use tlbmap_obs::{Items, Json, JsonError};

/// Everything measured during one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Final clock of each core (idle cores stay at 0).
    pub core_cycles: Vec<u64>,
    /// Makespan: the maximum core clock.
    pub total_cycles: u64,
    /// Per-core TLB hit/miss counters.
    pub tlb: Vec<TlbStats>,
    /// Aggregated cache-hierarchy counters.
    pub cache: CacheStats,
    /// Cycles charged by detection hooks (TLB-miss searches + tick
    /// searches) across all cores.
    pub detection_overhead_cycles: u64,
    /// Number of times a detection hook actually ran a search.
    pub detection_searches: u64,
    /// Memory accesses executed (data + instruction).
    pub accesses: u64,
    /// Barriers crossed.
    pub barriers: u64,
    /// Threads migrated between cores by a dynamic remapper.
    pub migrations: u64,
    /// Clock frequency used for seconds conversions.
    pub frequency_hz: u64,
}

impl RunStats {
    /// Aggregate TLB accesses over all cores.
    pub fn tlb_accesses(&self) -> u64 {
        self.tlb.iter().map(|t| t.accesses()).sum()
    }

    /// Aggregate TLB misses over all cores.
    pub fn tlb_misses(&self) -> u64 {
        self.tlb.iter().map(|t| t.misses).sum()
    }

    /// Aggregate TLB miss rate (Table III column 1).
    pub fn tlb_miss_rate(&self) -> f64 {
        let acc = self.tlb_accesses();
        if acc == 0 {
            0.0
        } else {
            self.tlb_misses() as f64 / acc as f64
        }
    }

    /// Execution time in seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 / self.frequency_hz as f64
    }

    /// Fraction of total cycles spent in detection (Table III column 3).
    pub fn detection_overhead_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.detection_overhead_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Serialize every field to JSON (schema-stable key names).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "core_cycles",
                Json::Arr(self.core_cycles.iter().map(|&c| Json::U64(c)).collect()),
            ),
            ("total_cycles", Json::U64(self.total_cycles)),
            (
                "tlb",
                Json::Arr(
                    self.tlb
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("hits", Json::U64(t.hits)),
                                ("misses", Json::U64(t.misses)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cache", cache_to_json(&self.cache)),
            (
                "detection_overhead_cycles",
                Json::U64(self.detection_overhead_cycles),
            ),
            ("detection_searches", Json::U64(self.detection_searches)),
            ("accesses", Json::U64(self.accesses)),
            ("barriers", Json::U64(self.barriers)),
            ("migrations", Json::U64(self.migrations)),
            ("frequency_hz", Json::U64(self.frequency_hz)),
        ])
    }

    /// Rebuild from [`RunStats::to_json`] output.
    ///
    /// # Errors
    /// Returns an error naming the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<RunStats, JsonError> {
        let core_cycles = req_array(json, "core_cycles")?
            .u64s()
            .ok_or_else(|| schema_err("core_cycles element"))?
            .into_owned();
        let tlb = req_array(json, "tlb")?
            .iter()
            .map(|t| {
                Ok(TlbStats {
                    hits: req_u64(&t, "hits")?,
                    misses: req_u64(&t, "misses")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let cache = cache_from_json(json.get("cache").ok_or_else(|| schema_err("cache"))?)?;
        Ok(RunStats {
            core_cycles,
            total_cycles: req_u64(json, "total_cycles")?,
            tlb,
            cache,
            detection_overhead_cycles: req_u64(json, "detection_overhead_cycles")?,
            detection_searches: req_u64(json, "detection_searches")?,
            accesses: req_u64(json, "accesses")?,
            barriers: req_u64(json, "barriers")?,
            migrations: req_u64(json, "migrations")?,
            frequency_hz: req_u64(json, "frequency_hz")?,
        })
    }
}

fn schema_err(what: &str) -> JsonError {
    JsonError {
        message: format!("missing or mistyped field: {what}"),
        offset: 0,
    }
}

fn req_u64(json: &Json, key: &str) -> Result<u64, JsonError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| schema_err(key))
}

fn req_array<'j>(json: &'j Json, key: &str) -> Result<Items<'j>, JsonError> {
    json.get(key)
        .and_then(Json::items)
        .ok_or_else(|| schema_err(key))
}

macro_rules! cache_stats_fields {
    ($apply:ident) => {
        $apply!(
            l1d_hits,
            l1d_misses,
            l1i_hits,
            l1i_misses,
            l2_hits,
            l2_misses,
            l2_cold_misses,
            l2_capacity_misses,
            l2_coherence_misses,
            invalidations,
            snoop_transactions,
            snoops_intra_chip,
            snoops_inter_chip,
            writebacks,
            memory_fetches,
            mem_fetches_local,
            mem_fetches_remote
        )
    };
}

fn cache_to_json(c: &CacheStats) -> Json {
    macro_rules! to_pairs {
        ($($field:ident),+) => {
            Json::obj(vec![$((stringify!($field), Json::U64(c.$field))),+])
        };
    }
    cache_stats_fields!(to_pairs)
}

fn cache_from_json(json: &Json) -> Result<CacheStats, JsonError> {
    let mut c = CacheStats::default();
    macro_rules! from_pairs {
        ($($field:ident),+) => {
            $(c.$field = req_u64(json, stringify!($field))?;)+
        };
    }
    cache_stats_fields!(from_pairs);
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            core_cycles: vec![100, 250, 0],
            total_cycles: 250,
            tlb: vec![
                TlbStats {
                    hits: 90,
                    misses: 10,
                },
                TlbStats {
                    hits: 45,
                    misses: 5,
                },
                TlbStats::default(),
            ],
            cache: CacheStats::default(),
            detection_overhead_cycles: 25,
            detection_searches: 3,
            accesses: 150,
            barriers: 2,
            migrations: 0,
            frequency_hz: 1000,
        }
    }

    #[test]
    fn tlb_aggregates() {
        let s = sample();
        assert_eq!(s.tlb_accesses(), 150);
        assert_eq!(s.tlb_misses(), 15);
        assert!((s.tlb_miss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn seconds() {
        let s = sample();
        assert!((s.seconds() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overhead_fraction() {
        let s = sample();
        assert!((s.detection_overhead_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut s = sample();
        s.cache.l2_coherence_misses = 7;
        s.cache.mem_fetches_remote = 42;
        s.migrations = 9;
        let text = s.to_json().render();
        let back = RunStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // Derived rates survive the trip too.
        assert_eq!(back.tlb_miss_rate(), s.tlb_miss_rate());
    }

    #[test]
    fn from_json_names_missing_fields() {
        let err = RunStats::from_json(&Json::parse("{}").unwrap()).unwrap_err();
        assert!(err.message.contains("core_cycles"), "got: {}", err.message);
        let mut j = sample().to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "cache");
        }
        let err = RunStats::from_json(&j).unwrap_err();
        assert!(err.message.contains("cache"), "got: {}", err.message);
    }

    #[test]
    fn zero_run_is_safe() {
        let s = RunStats {
            core_cycles: vec![],
            total_cycles: 0,
            tlb: vec![],
            cache: CacheStats::default(),
            detection_overhead_cycles: 0,
            detection_searches: 0,
            accesses: 0,
            barriers: 0,
            migrations: 0,
            frequency_hz: 1000,
        };
        assert_eq!(s.tlb_miss_rate(), 0.0);
        assert_eq!(s.detection_overhead_fraction(), 0.0);
    }
}
