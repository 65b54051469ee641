//! Detection-accuracy timelines.
//!
//! The paper validates SM/HM detection by comparing final matrices to the
//! known application structure (Section VI-A). The timeline makes that
//! comparison *temporal*: every flight-recorder window of a run
//! (`--flight-window`) yields one entry scoring the detector's matrix
//! against ground truth — both the cumulative matrix (does detection
//! converge?) and the window's delta matrix (what was detected
//! *recently*, which shifts at phase changes). Phase boundaries are the
//! windows where the flight recorder started a phase; the timeline does
//! not judge phases a second time.

use crate::phases::FlightReport;
use tlbmap_core::metrics::{cosine_similarity, normalized_mse, pearson_correlation};
use tlbmap_core::CommMatrix;
use tlbmap_obs::{Json, DEFAULT_PHASE_THRESHOLD};

/// Accuracy scores of one matrix against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scores {
    /// Pearson correlation of the upper triangles.
    pub pearson: f64,
    /// Cosine similarity of the upper triangles.
    pub cosine: f64,
    /// Mean squared error between peak-normalized matrices.
    pub nmse: f64,
}

impl Scores {
    /// Score `m` against `truth`.
    pub fn of(m: &CommMatrix, truth: &CommMatrix) -> Scores {
        Scores {
            pearson: pearson_correlation(m, truth),
            cosine: cosine_similarity(m, truth),
            nmse: normalized_mse(m, truth),
        }
    }

    /// JSON export.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pearson", Json::F64(self.pearson)),
            ("cosine", Json::F64(self.cosine)),
            ("nmse", Json::F64(self.nmse)),
        ])
    }

    /// Rebuild from JSON.
    pub fn from_json(json: &Json) -> Result<Scores, String> {
        let field = |k: &str| {
            json.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("scores: missing numeric `{k}`"))
        };
        Ok(Scores {
            pearson: field("pearson")?,
            cosine: field("cosine")?,
            nmse: field("nmse")?,
        })
    }
}

/// One flight window's accuracy scores.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Flight-window index (zero-based over the whole run).
    pub index: u64,
    /// Cycle the window closed at (its `end_cycle`).
    pub cycle: u64,
    /// Scores of the cumulative detected matrix vs ground truth.
    pub cumulative: Scores,
    /// Scores of this window's delta matrix vs ground truth.
    pub windowed: Scores,
    /// Whether the flight recorder started a new phase at this window.
    pub phase_boundary: bool,
}

/// The full accuracy timeline of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Windowed-similarity threshold the flight recorder judged phases
    /// at.
    pub phase_threshold: f64,
    /// One entry per retained flight window, in cycle order.
    pub entries: Vec<TimelineEntry>,
}

impl Timeline {
    /// JSON export (the metrics document's `timeline` section).
    pub fn to_json(&self) -> Json {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("index", Json::U64(e.index)),
                    ("cycle", Json::U64(e.cycle)),
                    ("cumulative", e.cumulative.to_json()),
                    ("windowed", e.windowed.to_json()),
                    ("phase_boundary", Json::Bool(e.phase_boundary)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("phase_threshold", Json::F64(self.phase_threshold)),
            ("entries", Json::Arr(entries)),
        ])
    }

    /// Rebuild from a metrics document's `timeline` section.
    pub fn from_json(json: &Json) -> Result<Timeline, String> {
        let phase_threshold = json
            .get("phase_threshold")
            .and_then(Json::as_f64)
            .ok_or("timeline: missing numeric `phase_threshold`")?;
        let entries = json
            .get("entries")
            .and_then(Json::items)
            .ok_or("timeline: missing `entries` array")?
            .iter()
            .map(|e| {
                let u = |k: &str| {
                    e.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("timeline entry: missing `{k}`"))
                };
                Ok(TimelineEntry {
                    index: u("index")?,
                    cycle: u("cycle")?,
                    cumulative: Scores::from_json(
                        e.get("cumulative")
                            .ok_or("timeline entry: no `cumulative`")?,
                    )?,
                    windowed: Scores::from_json(
                        e.get("windowed").ok_or("timeline entry: no `windowed`")?,
                    )?,
                    phase_boundary: e
                        .get("phase_boundary")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Timeline {
            phase_threshold,
            entries,
        })
    }
}

/// Compute the accuracy timeline of a run from its flight section and
/// the ground-truth matrix: one entry per retained window. A window's
/// cumulative matrix is the whole run's (the sum of the exact per-phase
/// aggregates) minus the retained windows after it, so it stays exact
/// when the ring has dropped older windows. Returns an empty timeline
/// when no window was retained or the matrix sizes disagree (e.g. truth
/// from a different machine configuration).
pub fn compute_timeline(report: &FlightReport, truth: &CommMatrix) -> Timeline {
    let n = report.n;
    let mut entries = Vec::new();
    if n == truth.num_threads() {
        let mut cumulative = vec![0u64; n * n];
        for phase in &report.phases {
            for (acc, &c) in cumulative.iter_mut().zip(phase.matrix.cells()) {
                *acc = acc.saturating_add(c);
            }
        }
        let boundaries = report.boundary_cycles();
        for w in report.windows.iter().rev() {
            entries.push(TimelineEntry {
                index: w.index,
                cycle: w.end_cycle,
                cumulative: Scores::of(&CommMatrix::from_rows(n, cumulative.clone()), truth),
                windowed: Scores::of(&w.matrix, truth),
                phase_boundary: boundaries.contains(&w.start_cycle),
            });
            for (acc, &c) in cumulative.iter_mut().zip(w.matrix.cells()) {
                *acc = acc.saturating_sub(c);
            }
        }
        entries.reverse();
    }
    Timeline {
        phase_threshold: DEFAULT_PHASE_THRESHOLD,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_obs::{ObsConfig, Recorder};

    fn ring_matrix(n: usize, scale: u64) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            m.add(i, (i + 1) % n, 10 * scale);
        }
        m
    }

    /// Record one 100-cycle flight window per matrix (its upper cells as
    /// increments) in a ring of `capacity`, and parse the flight section
    /// back, as `tlbmap` does after a run.
    fn report_of(windows: &[CommMatrix], capacity: usize) -> FlightReport {
        let n = windows[0].num_threads();
        let rec = Recorder::new(
            ObsConfig::new(n)
                .with_flight_window(Some(100))
                .with_flight_capacity(capacity),
        );
        for (k, m) in windows.iter().enumerate() {
            for (i, j, v) in m.pairs().filter(|&(_, _, v)| v > 0) {
                rec.record_matrix_inc(i, j, v);
            }
            rec.advance((k as u64 + 1) * 100);
        }
        rec.finish(windows.len() as u64 * 100);
        FlightReport::from_json(&rec.flight_json()).unwrap()
    }

    #[test]
    fn converging_run_scores_perfectly() {
        let truth = ring_matrix(4, 5);
        let windows = [ring_matrix(4, 1), ring_matrix(4, 2), ring_matrix(4, 3)];
        let tl = compute_timeline(&report_of(&windows, 16), &truth);
        assert_eq!(tl.entries.len(), 3);
        for (k, e) in tl.entries.iter().enumerate() {
            assert_eq!(e.index, k as u64);
            assert_eq!(e.cycle, (k as u64 + 1) * 100, "keyed to end_cycle");
            // Same shape at every scale: perfect cumulative and windowed
            // scores, no phase boundaries.
            assert!((e.cumulative.cosine - 1.0).abs() < 1e-12);
            assert!((e.windowed.cosine - 1.0).abs() < 1e-12);
            assert!(e.cumulative.nmse < 1e-12);
            assert!(!e.phase_boundary);
        }
        assert!(tl.entries.iter().all(|e| !e.phase_boundary));
    }

    #[test]
    fn boundaries_are_where_the_flight_recorder_starts_a_phase() {
        // Phase 1: ring. Phase 2: disjoint pairs — the windowed delta
        // flips pattern at window 2 while the cumulative matrix blurs.
        let ring = ring_matrix(4, 1);
        let mut pairs = CommMatrix::new(4);
        pairs.add(0, 2, 10);
        pairs.add(1, 3, 10);
        let report = report_of(&[ring.clone(), ring, pairs], 16);
        assert_eq!(report.boundary_cycles(), vec![200]);
        let tl = compute_timeline(&report, &ring_matrix(4, 3));
        let flagged: Vec<bool> = tl.entries.iter().map(|e| e.phase_boundary).collect();
        assert_eq!(flagged, [false, false, true]);
        // The windowed score of the new phase is far from the ring truth.
        assert!(tl.entries[2].windowed.cosine < 0.5);
        assert!(tl.entries[1].windowed.cosine > 0.99);
        assert!(tl.entries[2].cumulative.cosine > tl.entries[2].windowed.cosine);
    }

    #[test]
    fn dropped_windows_leave_the_retained_entries_exact() {
        let ring = ring_matrix(4, 1);
        let mut pairs = CommMatrix::new(4);
        pairs.add(0, 2, 10);
        pairs.add(1, 3, 10);
        let windows = [
            ring.clone(),
            ring_matrix(4, 2),
            ring.clone(),
            pairs.clone(),
            pairs,
            ring,
        ];
        let truth = ring_matrix(4, 3);
        let full = compute_timeline(&report_of(&windows, 16), &truth);
        let report = report_of(&windows, 2);
        assert_eq!(report.windows_dropped, 4);
        let tail = compute_timeline(&report, &truth);
        assert_eq!(tail.entries, full.entries[4..]);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let truth = ring_matrix(4, 2);
        let report = report_of(&[ring_matrix(4, 1), ring_matrix(4, 2)], 16);
        let tl = compute_timeline(&report, &truth);
        let parsed = Timeline::from_json(&Json::parse(&tl.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, tl);
    }

    #[test]
    fn mismatched_truth_yields_empty_timeline() {
        let report = report_of(&[ring_matrix(4, 1)], 16);
        assert_eq!(
            compute_timeline(&report, &ring_matrix(4, 1)).entries.len(),
            1
        );
        assert!(compute_timeline(&report, &ring_matrix(8, 1))
            .entries
            .is_empty());
    }

    #[test]
    fn empty_windows_do_not_flag_phases() {
        // A window without increments is an all-zero delta; the phase
        // judge skips it rather than flag a spurious change.
        let ring = ring_matrix(4, 1);
        let report = report_of(&[ring.clone(), CommMatrix::new(4), ring], 16);
        let tl = compute_timeline(&report, &ring_matrix(4, 2));
        assert!(tl.entries.iter().all(|e| !e.phase_boundary));
        assert_eq!(tl.entries[1].windowed.cosine, 0.0, "empty delta window");
        assert_eq!(tl.entries[1].cumulative, tl.entries[0].cumulative);
    }
}
