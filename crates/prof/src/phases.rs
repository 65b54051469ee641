//! Consuming the flight recorder's `flight` metrics section.
//!
//! The in-engine flight recorder (`tlbmap_obs::flight`) exports a bounded
//! ring of windowed communication-matrix deltas, an online phase timeline,
//! and exact per-phase aggregates inside the metrics document. This module
//! parses that section back into a typed [`FlightReport`] so `tlbmap
//! inspect` (and tests) can render phase timelines, per-phase heatmaps and
//! per-phase cycle attribution without re-deriving anything.

use std::borrow::Cow;
use tlbmap_core::CommMatrix;
use tlbmap_obs::Json;

/// One retained flight window (a communication-matrix *delta* plus
/// per-core activity over one window of simulated cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseWindow {
    /// Zero-based window index over the whole run (the ring may have
    /// dropped earlier indices).
    pub index: u64,
    /// First cycle covered by the window.
    pub start_cycle: u64,
    /// Cycle the window closed at (exclusive).
    pub end_cycle: u64,
    /// Phase the window belongs to.
    pub phase: u64,
    /// Cosine similarity to the phase reference in parts-per-million;
    /// `None` when the window was not judged (empty, or the first
    /// non-empty window of the run).
    pub similarity_ppm: Option<u64>,
    /// TLB misses per core inside the window.
    pub core_activity: Vec<u64>,
    /// The window's communication delta.
    pub matrix: CommMatrix,
}

/// One component row of a phase's cycle attribution (a delta of the
/// self-profiler between two phase boundaries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseComponent {
    /// The profiler node's path (e.g. `engine/tlb`).
    pub component: String,
    /// Scope entries attributed to this phase.
    pub calls: u64,
    /// Exclusive simulated cycles attributed to this phase.
    pub exclusive_cycles: u64,
}

/// Exact aggregate of one phase (never dropped, even when the window
/// ring wrapped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase id (0 = the first phase).
    pub phase: u64,
    /// First cycle of the phase.
    pub start_cycle: u64,
    /// Last cycle of the phase (exclusive; end of its last closed window).
    pub end_cycle: u64,
    /// Closed windows attributed to the phase.
    pub windows: u64,
    /// Total communication volume (sum of all delta cells).
    pub volume: u64,
    /// TLB misses per core inside the phase.
    pub core_activity: Vec<u64>,
    /// Per-component cycle attribution (zero rows omitted).
    pub profile: Vec<PhaseComponent>,
    /// The phase's aggregated communication matrix.
    pub matrix: CommMatrix,
}

/// The parsed `flight` section of a metrics document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightReport {
    /// Window length in simulated cycles.
    pub window_cycles: u64,
    /// Thread count of the matrices.
    pub n: usize,
    /// Windows closed over the whole run.
    pub windows_closed: u64,
    /// Windows evicted from the ring (aggregates still include them).
    pub windows_dropped: u64,
    /// Retained windows, oldest first.
    pub windows: Vec<PhaseWindow>,
    /// Exact per-phase aggregates, phase order.
    pub phases: Vec<PhaseSummary>,
}

fn u(json: &Json, k: &str) -> Result<u64, String> {
    json.get(k)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("flight: missing numeric `{k}`"))
}

fn u64s(json: &Json, k: &str) -> Result<Vec<u64>, String> {
    json.get(k)
        .and_then(Json::items)
        .ok_or_else(|| format!("flight: missing array `{k}`"))?
        .u64s()
        .map(Cow::into_owned)
        .ok_or_else(|| format!("flight: non-integer entry in `{k}`"))
}

/// A window's or phase's `n × n` `rows`, through the checks of
/// [`CommMatrix::from_json`]: shape before any cell is reserved, then the
/// diagonal and symmetry.
fn matrix(json: &Json, n: usize) -> Result<CommMatrix, String> {
    let rows = json
        .get("rows")
        .and_then(Json::items)
        .ok_or("flight: missing `rows`")?;
    CommMatrix::from_json_rows(n, rows).map_err(|e| format!("flight: {}", e.message))
}

impl FlightReport {
    /// Parse the flight section of a whole metrics document. `Ok(None)`
    /// when the recorder was disabled (`"flight": null` or absent — e.g.
    /// a pre-schema-3 document).
    pub fn from_metrics(doc: &Json) -> Result<Option<FlightReport>, String> {
        match doc.get("flight") {
            None | Some(Json::Null) => Ok(None),
            Some(section) => FlightReport::from_json(section).map(Some),
        }
    }

    /// Parse a flight section object.
    pub fn from_json(json: &Json) -> Result<FlightReport, String> {
        let n = u(json, "n")? as usize;
        let windows = json
            .get("windows")
            .and_then(Json::items)
            .ok_or("flight: missing `windows` array")?
            .iter()
            .map(|w| {
                Ok(PhaseWindow {
                    index: u(&w, "index")?,
                    start_cycle: u(&w, "start_cycle")?,
                    end_cycle: u(&w, "end_cycle")?,
                    phase: u(&w, "phase")?,
                    similarity_ppm: w.get("similarity_ppm").and_then(Json::as_u64),
                    core_activity: u64s(&w, "core_activity")?,
                    matrix: matrix(&w, n)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let phases = json
            .get("phases")
            .and_then(Json::items)
            .ok_or("flight: missing `phases` array")?
            .iter()
            .map(|p| {
                let profile = p
                    .get("profile")
                    .and_then(Json::items)
                    .ok_or("flight: phase missing `profile`")?
                    .iter()
                    .map(|c| {
                        Ok(PhaseComponent {
                            component: c
                                .get("component")
                                .and_then(Json::as_str)
                                .ok_or("flight: profile row missing `component`")?
                                .to_string(),
                            calls: u(&c, "calls")?,
                            exclusive_cycles: u(&c, "exclusive_cycles")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(PhaseSummary {
                    phase: u(&p, "phase")?,
                    start_cycle: u(&p, "start_cycle")?,
                    end_cycle: u(&p, "end_cycle")?,
                    windows: u(&p, "windows")?,
                    volume: u(&p, "volume")?,
                    core_activity: u64s(&p, "core_activity")?,
                    profile,
                    matrix: matrix(&p, n)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FlightReport {
            window_cycles: u(json, "window_cycles")?,
            n,
            windows_closed: u(json, "windows_closed")?,
            windows_dropped: u(json, "windows_dropped")?,
            windows,
            phases,
        })
    }

    /// Number of phases the run saw (at least 1 once any window closed).
    pub fn phase_count(&self) -> u64 {
        self.phases.len() as u64
    }

    /// Cycles at which new phases began (empty for a single-phase run):
    /// the `start_cycle` of every phase after the first.
    pub fn boundary_cycles(&self) -> Vec<u64> {
        self.phases.iter().skip(1).map(|p| p.start_cycle).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_obs::{ObsConfig, Recorder};

    /// Drive a real recorder through two synthetic phases and parse the
    /// exported document back — the full producer→consumer loop.
    fn two_phase_report() -> FlightReport {
        let rec = Recorder::new(
            ObsConfig::new(4)
                .with_flight_window(Some(100))
                .with_flight_capacity(16),
        );
        // Phase A: neighbor pairs, three windows.
        for w in 0..3u64 {
            rec.record_matrix_inc(0, 1, 10);
            rec.record_matrix_inc(2, 3, 10);
            rec.record_tlb_miss(0, 0, 0x10, true);
            rec.advance((w + 1) * 100);
        }
        // Phase B: opposite pairs, three windows.
        for w in 3..6u64 {
            rec.record_matrix_inc(0, 2, 10);
            rec.record_matrix_inc(1, 3, 10);
            rec.record_tlb_miss(2, 2, 0x20, true);
            rec.advance((w + 1) * 100);
        }
        rec.finish(600);
        let doc = Json::parse(&rec.metrics_json().render()).unwrap();
        FlightReport::from_metrics(&doc).unwrap().expect("enabled")
    }

    #[test]
    fn round_trips_a_real_two_phase_run() {
        let r = two_phase_report();
        assert_eq!(r.window_cycles, 100);
        assert_eq!(r.n, 4);
        assert_eq!(r.windows_closed, 6);
        assert_eq!(r.windows_dropped, 0);
        assert_eq!(r.phase_count(), 2);
        assert_eq!(r.windows.len(), 6);
        // The divergent window (index 3) opens the new phase.
        assert_eq!(r.boundary_cycles(), vec![300]);
        assert_eq!(r.windows[3].phase, 1);
        assert!(r.windows[3].similarity_ppm.unwrap() < 750_000);

        // Exact per-phase aggregates: volumes and matrices.
        assert_eq!(r.phases[0].volume, 120, "3 windows × 2 pairs × 10 × sym");
        assert_eq!(r.phases[1].volume, 120);
        assert_eq!(r.phases[0].matrix.get(0, 1), 30);
        assert_eq!(r.phases[1].matrix.get(0, 2), 30);
        assert_eq!(r.phases[0].matrix.get(0, 2), 0);

        // Per-core activity split: core 0 active in phase A, core 2 in B.
        assert_eq!(r.phases[0].core_activity[0], 3);
        assert_eq!(r.phases[1].core_activity[2], 3);
    }

    #[test]
    fn disabled_flight_parses_as_none() {
        let rec = Recorder::new(ObsConfig::new(4));
        rec.finish(100);
        let doc = Json::parse(&rec.metrics_json().render()).unwrap();
        assert_eq!(FlightReport::from_metrics(&doc).unwrap(), None);
        // Pre-flight documents (no key at all) are also "disabled".
        assert_eq!(
            FlightReport::from_metrics(&Json::obj(vec![])).unwrap(),
            None
        );
    }

    #[test]
    fn malformed_sections_are_display_errors() {
        let bad = Json::parse(r#"{"flight":{"n":"four"}}"#).unwrap();
        let err = FlightReport::from_metrics(&bad).unwrap_err();
        assert!(err.contains('n'), "{err}");
        let truncated = Json::parse(r#"{"flight":{"n":2,"windows":[{"index":0}]}}"#).unwrap();
        assert!(FlightReport::from_metrics(&truncated).is_err());
    }

    /// The golden run's metrics document.
    fn golden() -> Json {
        Json::parse(include_str!("../../../results/golden_metrics.json")).unwrap()
    }

    /// The value at `path` in `json`: object keys, or array indices.
    fn at<'a>(json: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(json, |json, key| match json {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1,
            Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
            other => panic!("no `{key}` in {other:?}"),
        })
    }

    #[test]
    fn hostile_rows_are_refused_before_any_cell_is_reserved() {
        assert!(FlightReport::from_metrics(&golden()).unwrap().is_some());
        // 100,000 empty rows claim 10^10 cells in a few hundred KB.
        let mut doc = golden();
        *at(&mut doc, &["flight", "n"]) = Json::U64(100_000);
        *at(&mut doc, &["flight", "windows", "0", "rows"]) =
            Json::Arr(vec![Json::Arr(Vec::new()); 100_000]);
        let err = FlightReport::from_metrics(&doc).unwrap_err();
        assert_eq!(err, "flight: ragged row");
        // One phase cell off by one breaks symmetry.
        let mut doc = golden();
        match at(&mut doc, &["flight", "phases", "0", "rows", "1"]) {
            Json::U64s(row) => row[0] += 1,
            other => panic!("packed row expected, got {other:?}"),
        }
        let err = FlightReport::from_metrics(&doc).unwrap_err();
        assert_eq!(err, "flight: matrix not symmetric");
    }
}
