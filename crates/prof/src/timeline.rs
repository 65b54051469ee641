//! Detection-accuracy timelines.
//!
//! The paper validates SM/HM detection by comparing final matrices to the
//! known application structure (Section VI-A). The timeline makes that
//! comparison *temporal*: every `--snapshot-every` window of a run yields
//! one entry scoring the detector's matrix against ground truth — both the
//! cumulative matrix (does detection converge?) and the windowed delta
//! matrix (what was detected *recently*, which shifts at phase changes).
//! Phase boundaries are flagged where the shared phase judge
//! ([`PhaseTracker`]) starts a new phase on a windowed delta — the same
//! rule the flight recorder applies online.

use tlbmap_core::metrics::{cosine_similarity, normalized_mse, pearson_correlation};
use tlbmap_core::CommMatrix;
use tlbmap_obs::{Json, MatrixSnapshot, PhaseTracker, Verdict, DEFAULT_PHASE_THRESHOLD};

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

/// One snapshot window's accuracy scores.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Snapshot index (zero-based).
    pub index: u64,
    /// Cycle the snapshot was keyed to.
    pub cycle: u64,
    /// Barriers crossed when it was taken.
    pub barrier: u64,
    /// Scores of the cumulative detected matrix vs ground truth.
    pub cumulative: Scores,
    /// Scores of this window's delta matrix vs ground truth.
    pub windowed: Scores,
    /// Whether this window starts a new phase (windowed pattern diverged
    /// from the current phase's reference window).
    pub phase_boundary: bool,
}

/// The full accuracy timeline of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Windowed-similarity threshold used for phase flagging.
    pub phase_threshold: f64,
    /// One entry per snapshot, in cycle order.
    pub entries: Vec<TimelineEntry>,
}

impl Timeline {
    /// Indices of entries flagged as phase boundaries.
    pub fn phase_boundaries(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.phase_boundary)
            .map(|(i, _)| i)
            .collect()
    }

    /// JSON export (the metrics document's `timeline` section).
    pub fn to_json(&self) -> Json {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("index", Json::U64(e.index)),
                    ("cycle", Json::U64(e.cycle)),
                    ("barrier", Json::U64(e.barrier)),
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
                    barrier: u("barrier")?,
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

/// Rebuild a snapshot's communication matrix.
fn snapshot_matrix(snap: &MatrixSnapshot) -> CommMatrix {
    CommMatrix::from_rows(snap.n, snap.cells.clone())
}

/// Compute the accuracy timeline of a run from its matrix snapshots and
/// the ground-truth matrix, flagging phases at
/// [`DEFAULT_PHASE_THRESHOLD`]. Returns an empty timeline when there are
/// no snapshots or the matrix sizes disagree (e.g. truth from a different
/// machine configuration).
pub fn compute_timeline(snaps: &[MatrixSnapshot], truth: &CommMatrix) -> Timeline {
    let phase_threshold = DEFAULT_PHASE_THRESHOLD;
    let usable = snaps
        .iter()
        .all(|s| s.n == truth.num_threads() && s.cells.len() == s.n * s.n);
    if snaps.is_empty() || !usable {
        return Timeline {
            phase_threshold,
            entries: Vec::new(),
        };
    }

    // Windowed delta matrices: what was detected in each period alone.
    // Snapshot cells grow monotonically, so consecutive differences are
    // well-defined.
    let mut windows: Vec<CommMatrix> = Vec::with_capacity(snaps.len());
    for (i, snap) in snaps.iter().enumerate() {
        let cells: Vec<u64> = if i == 0 {
            snap.cells.clone()
        } else {
            snap.cells
                .iter()
                .zip(&snaps[i - 1].cells)
                .map(|(&cur, &prev)| cur.saturating_sub(prev))
                .collect()
        };
        windows.push(CommMatrix::from_rows(snap.n, cells));
    }

    let mut tracker = PhaseTracker::default();
    let entries = snaps
        .iter()
        .zip(&windows)
        .map(|(snap, window)| TimelineEntry {
            index: snap.index,
            cycle: snap.cycle,
            barrier: snap.barrier,
            cumulative: Scores::of(&snapshot_matrix(snap), truth),
            windowed: Scores::of(window, truth),
            phase_boundary: matches!(
                tracker.judge(&window.upper_cells()),
                Verdict::Changed(Some(_))
            ),
        })
        .collect();
    Timeline {
        phase_threshold,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_matrix(n: usize, scale: u64) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            m.add(i, (i + 1) % n, 10 * scale);
        }
        m
    }

    fn snap_of(index: u64, cycle: u64, m: &CommMatrix) -> MatrixSnapshot {
        let n = m.num_threads();
        MatrixSnapshot {
            index,
            cycle,
            barrier: index,
            n,
            cells: (0..n * n).map(|k| m.get(k / n, k % n)).collect(),
        }
    }

    #[test]
    fn converging_run_scores_perfectly() {
        let truth = ring_matrix(4, 5);
        let snaps = vec![
            snap_of(0, 1000, &ring_matrix(4, 1)),
            snap_of(1, 2000, &ring_matrix(4, 2)),
            snap_of(2, 3000, &ring_matrix(4, 3)),
        ];
        let tl = compute_timeline(&snaps, &truth);
        assert_eq!(tl.entries.len(), 3);
        for e in &tl.entries {
            // Same shape at every scale: perfect cumulative and windowed
            // scores, no phase boundaries.
            assert!((e.cumulative.cosine - 1.0).abs() < 1e-12);
            assert!((e.windowed.cosine - 1.0).abs() < 1e-12);
            assert!(e.cumulative.nmse < 1e-12);
            assert!(!e.phase_boundary);
        }
        assert!(tl.phase_boundaries().is_empty());
    }

    #[test]
    fn phase_change_flags_windowed_divergence() {
        // Phase 1: ring. Phase 2: disjoint pairs — the windowed delta
        // flips pattern at snapshot 2 while the cumulative matrix blurs.
        let ring = ring_matrix(4, 1);
        let mut pairs = CommMatrix::new(4);
        pairs.add(0, 2, 10);
        pairs.add(1, 3, 10);
        let mut cumulative2 = ring.clone();
        cumulative2.merge(&ring);
        let mut cumulative3 = cumulative2.clone();
        cumulative3.merge(&pairs);
        let snaps = vec![
            snap_of(0, 1000, &ring),
            snap_of(1, 2000, &cumulative2),
            snap_of(2, 3000, &cumulative3),
        ];
        let tl = compute_timeline(&snaps, &ring_matrix(4, 3));
        assert_eq!(tl.phase_boundaries(), vec![2]);
        assert!(tl.entries[2].phase_boundary);
        // The windowed score of the new phase is far from the ring truth.
        assert!(tl.entries[2].windowed.cosine < 0.5);
        assert!(tl.entries[1].windowed.cosine > 0.99);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let truth = ring_matrix(4, 2);
        let snaps = vec![
            snap_of(0, 500, &ring_matrix(4, 1)),
            snap_of(1, 1000, &ring_matrix(4, 2)),
        ];
        let tl = compute_timeline(&snaps, &truth);
        let parsed = Timeline::from_json(&Json::parse(&tl.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, tl);
    }

    #[test]
    fn empty_or_mismatched_snapshots_yield_empty_timeline() {
        let truth = ring_matrix(4, 1);
        assert!(compute_timeline(&[], &truth).entries.is_empty());
        let bad = snap_of(0, 1000, &ring_matrix(8, 1));
        assert!(compute_timeline(&[bad], &truth).entries.is_empty());
    }

    #[test]
    fn empty_windows_do_not_flag_phases() {
        // Identical consecutive snapshots produce an all-zero delta; the
        // phase detector must skip it rather than flag a spurious change.
        let ring = ring_matrix(4, 1);
        let snaps = vec![
            snap_of(0, 1000, &ring),
            snap_of(1, 2000, &ring),
            snap_of(2, 3000, &ring),
        ];
        let tl = compute_timeline(&snaps, &ring_matrix(4, 2));
        assert!(tl.phase_boundaries().is_empty());
        assert_eq!(tl.entries[1].windowed.cosine, 0.0, "empty delta window");
    }
}
