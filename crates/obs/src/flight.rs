//! The flight recorder: a bounded in-engine ring of windowed
//! communication-matrix deltas with an online phase detector.
//!
//! The `tlbmap_prof` accuracy timeline judges phases after a batch run,
//! over the deltas of full matrix snapshots. The flight recorder is its
//! online counterpart: while the engine runs, it accumulates the *delta*
//! of the communication matrix over fixed-length cycle windows plus
//! per-core TLB-miss activity, closes each window as the clock passes its
//! boundary, and hands the closed window to the same judge the timeline
//! uses ([`PhaseTracker`]: compared against the current phase's reference
//! window, sparse and empty windows left unjudged). A window the judge
//! calls a change starts a new phase: the recorder emits
//! [`crate::Event::PhaseChange`], bumps the run's `phase_id`, and
//! snapshots the cumulative cycle profile and core counters so exports
//! can attribute cycles *per phase* without any hot-path cost (per-phase
//! values are deltas between marks, not split atomics).
//!
//! Memory is bounded: the window ring keeps the newest
//! `flight_capacity` windows (older ones are dropped and counted), while
//! per-phase aggregates stay exact — one accumulator per phase, not per
//! window. Everything is keyed to simulated cycles, so two identical
//! seeded runs produce byte-identical flight sections.

use crate::drift::{PhaseTracker, Verdict};
use crate::json::Json;
use crate::profile::{Profile, PROF_NODES};
use std::collections::VecDeque;

/// One closed flight-recorder window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightWindow {
    /// Zero-based window index (monotonic, survives ring drops).
    pub index: u64,
    /// First cycle the window covers (inclusive).
    pub start_cycle: u64,
    /// Last cycle the window covers (exclusive).
    pub end_cycle: u64,
    /// Phase the window was attributed to (after judging it).
    pub phase: u64,
    /// Row-major n×n communication-matrix delta accumulated in the window.
    pub cells: Vec<u64>,
    /// TLB misses per core observed in the window.
    pub core_activity: Vec<u64>,
    /// Cosine similarity to the phase reference, in parts-per-million
    /// (kept integral so exports stay byte-stable). `None` when the window
    /// was not compared: empty, sparse, or the run's first phase opening.
    pub similarity_ppm: Option<u64>,
}

impl FlightWindow {
    /// Total communication volume of the window.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// JSON export (matrix rendered as rows, like [`crate::MatrixSnapshot`]).
    pub fn to_json(&self, n: usize) -> Json {
        let rows: Vec<Json> = (0..n)
            .map(|i| Json::Arr((0..n).map(|j| Json::U64(self.cells[i * n + j])).collect()))
            .collect();
        Json::obj(vec![
            ("index", Json::U64(self.index)),
            ("start_cycle", Json::U64(self.start_cycle)),
            ("end_cycle", Json::U64(self.end_cycle)),
            ("phase", Json::U64(self.phase)),
            (
                "similarity_ppm",
                self.similarity_ppm.map_or(Json::Null, Json::U64),
            ),
            (
                "core_activity",
                Json::Arr(self.core_activity.iter().map(|&c| Json::U64(c)).collect()),
            ),
            ("rows", Json::Arr(rows)),
        ])
    }
}

/// Cumulative profiler state captured at a phase boundary. Per-phase
/// cycle attribution is the delta between consecutive marks (matrix and
/// core-activity attribution is exact per window via [`PhaseAgg`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PhaseMark {
    /// Cumulative exclusive cycles per [`crate::ProfId`], in
    /// [`PROF_NODES`] order.
    prof_cycles: Vec<u64>,
    /// Cumulative calls per [`crate::ProfId`], in [`PROF_NODES`] order.
    prof_calls: Vec<u64>,
}

impl PhaseMark {
    fn of(prof: &Profile) -> PhaseMark {
        PhaseMark {
            prof_cycles: PROF_NODES
                .iter()
                .map(|&id| prof.exclusive_cycles(id))
                .collect(),
            prof_calls: PROF_NODES.iter().map(|&id| prof.calls(id)).collect(),
        }
    }
}

/// Exact per-phase aggregate (never dropped, one per phase).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PhaseAgg {
    phase: u64,
    start_cycle: u64,
    end_cycle: u64,
    windows: u64,
    cells: Vec<u64>,
    core_activity: Vec<u64>,
}

/// What closing one window produced, for the recorder to turn into
/// events and counters (the state itself stays lock-scoped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowClose {
    /// Index of the window that closed.
    pub index: u64,
    /// End cycle of the window.
    pub end_cycle: u64,
    /// Similarity to the phase reference, ppm, if judged.
    pub similarity_ppm: Option<u64>,
    /// `Some(new_phase)` when the window started a new phase.
    pub phase_change: Option<u64>,
    /// Whether the ring dropped its oldest window to make room.
    pub dropped: bool,
}

/// Mutable flight-recorder state (lives behind the recorder's mutex).
#[derive(Debug)]
pub(crate) struct FlightState {
    /// Thread count (matrix dimension).
    n: usize,
    /// Window length in cycles (guarded non-zero by `ObsConfig`).
    window_cycles: u64,
    /// Windows retained in the ring (guarded non-zero by `ObsConfig`).
    capacity: usize,
    /// Current (open) window's matrix delta.
    cells: Vec<u64>,
    /// Current (open) window's per-core miss counts.
    core_activity: Vec<u64>,
    /// Cumulative per-core miss counts across the whole run.
    cum_core_activity: Vec<u64>,
    /// First cycle of the open window.
    window_start: u64,
    /// Next window index to assign.
    next_index: u64,
    /// The ring of closed windows, oldest first.
    windows: VecDeque<FlightWindow>,
    /// Closed windows dropped from the ring.
    dropped: u64,
    /// The phase judge; its phase index is the current phase id.
    tracker: PhaseTracker,
    /// Cumulative state at each phase boundary (len = phase count - 1).
    marks: Vec<PhaseMark>,
    /// Exact per-phase aggregates.
    aggs: Vec<PhaseAgg>,
}

impl FlightState {
    pub(crate) fn new(n: usize, window_cycles: u64, capacity: usize) -> FlightState {
        FlightState {
            n,
            window_cycles,
            capacity,
            cells: vec![0; n * n],
            core_activity: Vec::new(),
            cum_core_activity: Vec::new(),
            window_start: 0,
            next_index: 0,
            windows: VecDeque::new(),
            dropped: 0,
            tracker: PhaseTracker::default(),
            marks: Vec::new(),
            aggs: Vec::new(),
        }
    }

    /// Window length in cycles.
    pub(crate) fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Whether the open window began before `cycle` (i.e. closing at
    /// `cycle` would close a non-degenerate partial window).
    pub(crate) fn open_window_started_before(&self, cycle: u64) -> bool {
        self.window_start < cycle
    }

    /// Current phase id.
    #[cfg(test)]
    pub(crate) fn phase(&self) -> u64 {
        self.tracker.phase()
    }

    /// Record a symmetric matrix increment into the open window.
    pub(crate) fn record_inc(&mut self, a: usize, b: usize, amount: u64) {
        let n = self.n;
        if a < n && b < n && a != b {
            self.cells[a * n + b] += amount;
            self.cells[b * n + a] += amount;
        }
    }

    /// Record one TLB miss on `core` into the open window.
    pub(crate) fn record_miss(&mut self, core: usize) {
        if core >= self.core_activity.len() {
            self.core_activity.resize(core + 1, 0);
        }
        self.core_activity[core] += 1;
    }

    /// Close the open window at `end_cycle`, judge it against the phase
    /// reference, and open the next. The caller (the recorder) emits the
    /// events and counters described by the returned [`WindowClose`].
    pub(crate) fn close_window(&mut self, end_cycle: u64, prof: &Profile) -> WindowClose {
        let cells = std::mem::replace(&mut self.cells, vec![0; self.n * self.n]);
        let core_activity = std::mem::take(&mut self.core_activity);
        if self.cum_core_activity.len() < core_activity.len() {
            self.cum_core_activity.resize(core_activity.len(), 0);
        }
        for (cum, &w) in self.cum_core_activity.iter_mut().zip(&core_activity) {
            *cum += w;
        }

        let index = self.next_index;
        self.next_index += 1;
        let start_cycle = self.window_start;
        self.window_start = end_cycle;

        let n = self.n;
        let upper: Vec<u64> = (0..n)
            .flat_map(|i| cells[i * n + i + 1..(i + 1) * n].iter().copied())
            .collect();
        let verdict = self.tracker.judge(&upper);
        let phase_change = matches!(verdict, Verdict::Changed(Some(_))).then(|| {
            self.marks.push(PhaseMark::of(prof));
            self.tracker.phase()
        });
        let similarity_ppm = verdict.similarity_ppm();

        let window = FlightWindow {
            index,
            start_cycle,
            end_cycle,
            phase: self.tracker.phase(),
            cells,
            core_activity,
            similarity_ppm,
        };
        self.aggregate(&window);
        let dropped = self.windows.len() >= self.capacity;
        if dropped {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(window);
        WindowClose {
            index,
            end_cycle,
            similarity_ppm,
            phase_change,
            dropped,
        }
    }

    /// Fold a closed window into its phase's exact aggregate.
    fn aggregate(&mut self, w: &FlightWindow) {
        let agg = match self.aggs.last_mut() {
            Some(agg) if agg.phase == w.phase => agg,
            _ => {
                self.aggs.push(PhaseAgg {
                    phase: w.phase,
                    start_cycle: w.start_cycle,
                    end_cycle: w.end_cycle,
                    windows: 0,
                    cells: vec![0; self.n * self.n],
                    core_activity: Vec::new(),
                });
                self.aggs.last_mut().expect("just pushed")
            }
        };
        agg.end_cycle = w.end_cycle;
        agg.windows += 1;
        for (acc, &c) in agg.cells.iter_mut().zip(&w.cells) {
            *acc += c;
        }
        if agg.core_activity.len() < w.core_activity.len() {
            agg.core_activity.resize(w.core_activity.len(), 0);
        }
        for (acc, &c) in agg.core_activity.iter_mut().zip(&w.core_activity) {
            *acc += c;
        }
    }

    /// Retained windows, oldest first.
    pub(crate) fn retained(&self) -> Vec<FlightWindow> {
        self.windows.iter().cloned().collect()
    }

    /// JSON export of the whole flight section. `prof` supplies the final
    /// cumulative profile so the last (still-open) phase gets attributed.
    pub(crate) fn to_json(&self, prof: &Profile) -> Json {
        let windows: Vec<Json> = self.windows.iter().map(|w| w.to_json(self.n)).collect();
        let final_mark = PhaseMark::of(prof);
        let zero = PhaseMark {
            prof_cycles: vec![0; PROF_NODES.len()],
            prof_calls: vec![0; PROF_NODES.len()],
        };
        let phases: Vec<Json> = self
            .aggs
            .iter()
            .enumerate()
            .map(|(i, agg)| {
                let from = if i == 0 { &zero } else { &self.marks[i - 1] };
                let to = self.marks.get(i).unwrap_or(&final_mark);
                let profile: Vec<Json> = PROF_NODES
                    .iter()
                    .enumerate()
                    .filter_map(|(k, &id)| {
                        let calls = to.prof_calls[k].saturating_sub(from.prof_calls[k]);
                        let cycles = to.prof_cycles[k].saturating_sub(from.prof_cycles[k]);
                        if calls == 0 && cycles == 0 {
                            return None;
                        }
                        Some(Json::obj(vec![
                            ("component", Json::Str(id.path())),
                            ("calls", Json::U64(calls)),
                            ("exclusive_cycles", Json::U64(cycles)),
                        ]))
                    })
                    .collect();
                // Core activity comes from the exact per-window aggregate
                // (the divergent window that *opens* a phase is attributed
                // to that phase, like its matrix cells — mark deltas would
                // hand it to the previous phase).
                let core_activity: Vec<Json> =
                    agg.core_activity.iter().map(|&c| Json::U64(c)).collect();
                let rows: Vec<Json> = (0..self.n)
                    .map(|r| {
                        Json::Arr(
                            (0..self.n)
                                .map(|c| Json::U64(agg.cells[r * self.n + c]))
                                .collect(),
                        )
                    })
                    .collect();
                Json::obj(vec![
                    ("phase", Json::U64(agg.phase)),
                    ("start_cycle", Json::U64(agg.start_cycle)),
                    ("end_cycle", Json::U64(agg.end_cycle)),
                    ("windows", Json::U64(agg.windows)),
                    ("volume", Json::U64(agg.cells.iter().sum())),
                    ("core_activity", Json::Arr(core_activity)),
                    ("profile", Json::Arr(profile)),
                    ("rows", Json::Arr(rows)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("window_cycles", Json::U64(self.window_cycles)),
            ("capacity", Json::U64(self.capacity as u64)),
            ("n", Json::U64(self.n as u64)),
            ("windows_closed", Json::U64(self.next_index)),
            ("windows_dropped", Json::U64(self.dropped)),
            ("phase", Json::U64(self.tracker.phase())),
            ("windows", Json::Arr(windows)),
            ("phases", Json::Arr(phases)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfId;

    fn close(state: &mut FlightState, end: u64) -> WindowClose {
        let prof = Profile::default();
        state.close_window(end, &prof)
    }

    #[test]
    fn divergent_window_starts_a_new_phase() {
        let mut s = FlightState::new(4, 100, 8);
        s.record_inc(0, 1, 10);
        close(&mut s, 100);
        s.record_inc(0, 1, 10);
        close(&mut s, 200);
        // Pattern flips to a disjoint pair: cosine 0 < threshold.
        s.record_inc(2, 3, 10);
        let c = close(&mut s, 300);
        assert_eq!(c.similarity_ppm, Some(0));
        assert_eq!(c.phase_change, Some(1));
        assert_eq!(s.phase(), 1);
        // The new pattern is now the reference: staying on it is stable.
        s.record_inc(2, 3, 10);
        let c = close(&mut s, 400);
        assert_eq!(c.phase_change, None);
        assert_eq!(c.similarity_ppm, Some(1_000_000));
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut s = FlightState::new(2, 10, 3);
        for k in 0..5u64 {
            s.record_inc(0, 1, 1);
            let c = close(&mut s, (k + 1) * 10);
            assert_eq!(c.dropped, k >= 3);
        }
        let retained = s.retained();
        assert_eq!(retained.len(), 3);
        assert_eq!(retained[0].index, 2, "oldest two dropped");
        assert_eq!(s.dropped, 2);
        // Exact aggregates survive the drops.
        assert_eq!(s.aggs[0].windows, 5);
        assert_eq!(s.aggs[0].cells[1], 5);
    }

    #[test]
    fn per_core_activity_is_windowed_and_aggregated() {
        let mut s = FlightState::new(2, 100, 8);
        s.record_miss(0);
        s.record_miss(0);
        s.record_miss(3);
        s.record_inc(0, 1, 1);
        close(&mut s, 100);
        s.record_miss(1);
        s.record_inc(0, 1, 1);
        close(&mut s, 200);
        let w = s.retained();
        assert_eq!(w[0].core_activity, vec![2, 0, 0, 1]);
        assert_eq!(w[1].core_activity, vec![0, 1]);
        assert_eq!(s.cum_core_activity, vec![2, 1, 0, 1]);
        assert_eq!(s.aggs[0].core_activity, vec![2, 1, 0, 1]);
    }

    #[test]
    fn phase_marks_split_the_profile() {
        let prof = Profile::default();
        let mut s = FlightState::new(4, 100, 8);
        prof.charge(ProfId::EngineCompute, 100);
        s.record_inc(0, 1, 10);
        s.close_window(100, &prof);
        prof.charge(ProfId::EngineCompute, 40);
        s.record_inc(2, 3, 10); // divergence -> phase 1 boundary here
        s.close_window(200, &prof);
        prof.charge(ProfId::EngineCompute, 7);
        s.record_inc(2, 3, 10);
        s.close_window(300, &prof);

        let doc = s.to_json(&prof);
        let phases = doc.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 2);
        // Phase 0 ends at the boundary mark: 100 + 40 cycles.
        let p0 = phases[0].get("profile").unwrap().as_array().unwrap();
        assert_eq!(
            p0[0].get("component").unwrap().as_str(),
            Some("engine;compute")
        );
        assert_eq!(p0[0].get("exclusive_cycles").unwrap().as_u64(), Some(140));
        // Phase 1 gets the remainder.
        let p1 = phases[1].get("profile").unwrap().as_array().unwrap();
        assert_eq!(p1[0].get("exclusive_cycles").unwrap().as_u64(), Some(7));
        // Volumes partition the run.
        assert_eq!(phases[0].get("volume").unwrap().as_u64(), Some(20));
        assert_eq!(phases[1].get("volume").unwrap().as_u64(), Some(40));
    }

    #[test]
    fn json_section_is_complete_and_parses() {
        let prof = Profile::default();
        let mut s = FlightState::new(2, 50, 4);
        s.record_inc(0, 1, 3);
        s.record_miss(1);
        s.close_window(50, &prof);
        let doc = s.to_json(&prof);
        for key in [
            "window_cycles",
            "capacity",
            "n",
            "windows_closed",
            "windows_dropped",
            "phase",
            "windows",
            "phases",
        ] {
            assert!(doc.get(key).is_some(), "missing `{key}`");
        }
        let rendered = doc.render();
        assert!(Json::parse(&rendered).is_ok(), "{rendered}");
        let w = doc.get("windows").unwrap().as_array().unwrap();
        assert_eq!(w[0].get("rows").unwrap().as_array().unwrap().len(), 2);
    }
}
