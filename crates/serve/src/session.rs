//! Streaming sessions: decayed windows and the incremental remap loop.
//!
//! A session is the server-side state behind the `open_session` / `delta`
//! / `close_session` frames: an exponentially decayed [`DecayedMatrix`]
//! window of the client's communication deltas, the currently installed
//! mapping, and a [`PhaseTracker`] holding the window the mapping was
//! computed from. Each delta drives one turn of the control loop:
//!
//! ```text
//!            ingest delta into the decayed window
//!                           │
//!           judge the window (PhaseTracker::judge)
//!                           │
//!   Empty / Sparse / Stable │ Cooldown              Changed
//!              │            │    │                     │
//!           stable          │ cooldown     remap: map the decayed
//!     (remap suppressed)    │ (remap       window from scratch, exactly as
//!                           │ suppressed)  a `map` request would, install
//!                           │              the result (the window is the
//!                           │              new reference)
//!                           ▼
//! ```
//!
//! The judge is the workspace's one phase rule (see [`PhaseTracker`]) with
//! the session's wire-level threshold and cooldown. The loop is
//! deliberately hysteretic: a remap re-anchors the reference to the window
//! that triggered it, and the next `cooldown_deltas` judged deltas cannot
//! remap even if they cross the threshold again — a phase change costs one
//! remap, not one per delta while the window catches up.
//!
//! The registry is two-level locked: a short-held table mutex to resolve
//! an ID to its session, then a per-session mutex held for the whole
//! delta (ingest + judge + possible remap). Deltas for one session are
//! therefore processed in arrival order while different sessions proceed
//! in parallel on their own connection threads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tlbmap_core::{CommMatrix, DecayedMatrix};
use tlbmap_mapping::{check_matrix_total, max_matrix_total, HierarchicalMapper};
use tlbmap_obs::{CounterId, Event, HistId, PhaseTracker, Recorder, Verdict};
use tlbmap_sim::Topology;

use crate::config::ServeConfig;
use crate::protocol::{DeltaDecision, ErrorCode};

/// A rejected session operation: the stable error code plus a message
/// naming what was wrong (mirroring the `AdminKind::from_wire` style of
/// listing the accepted values).
pub type SessionError = (ErrorCode, String);

/// What one `delta` frame did to its session — everything the `delta`
/// response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// 1-based sequence number of this delta within the session.
    pub seq: u64,
    /// Cosine similarity of the decayed window to the installed mapping's
    /// reference, scaled by 1e6 (0 when the window was not compared).
    pub similarity_ppm: u64,
    /// What the control loop decided.
    pub decision: DeltaDecision,
    /// The freshly installed mapping when `decision` is `Remap`.
    pub mapping: Option<Vec<usize>>,
}

/// One row of the `admin sessions` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// Session ID.
    pub id: u64,
    /// Threads in the session's window (one per topology core).
    pub threads: usize,
    /// Deltas ingested so far.
    pub deltas: u64,
    /// Remaps triggered so far.
    pub remaps: u64,
    /// Similarity the most recent delta scored (1e6 ppm; 0 before the
    /// first delta).
    pub last_similarity_ppm: u64,
}

struct Session {
    id: u64,
    topo: Topology,
    window: DecayedMatrix,
    /// The phase judge; its reference is the window the current mapping
    /// was computed from.
    tracker: PhaseTracker,
    mapping: Vec<usize>,
    seq: u64,
    remaps: u64,
    last_similarity_ppm: u64,
    last_active: Instant,
}

impl Session {
    /// One turn of the control loop. The caller has already checked that
    /// the delta's size matches the session's window.
    fn apply_delta(
        &mut self,
        delta: &CommMatrix,
        mapper: &HierarchicalMapper,
        rec: &Recorder,
    ) -> DeltaOutcome {
        self.seq += 1;
        self.last_active = Instant::now();
        rec.inc(CounterId::SessionDeltas);
        self.window.ingest(delta);
        let verdict = self.tracker.judge(&self.window.window().upper_cells());
        let similarity_ppm = verdict.similarity_ppm().unwrap_or(0);
        self.last_similarity_ppm = similarity_ppm;
        let decision = match verdict {
            Verdict::Changed(_) => DeltaDecision::Remap,
            Verdict::Cooldown(_) => DeltaDecision::Cooldown,
            Verdict::Empty | Verdict::Sparse | Verdict::Stable(_) => DeltaDecision::Stable,
        };
        if decision != DeltaDecision::Remap {
            rec.inc(CounterId::RemapsSuppressed);
            return DeltaOutcome {
                seq: self.seq,
                similarity_ppm,
                decision,
                mapping: None,
            };
        }
        let start = Instant::now();
        let mapping = mapper
            .try_map_observed(self.window.window(), &self.topo, rec)
            .expect("session window is sized for its topology and within the bound");
        let compute_us = start.elapsed().as_micros() as u64;
        self.mapping = mapping.as_slice().to_vec();
        self.remaps += 1;
        rec.inc(CounterId::RemapsTriggered);
        rec.observe(HistId::ServeRemapLatencyUs, compute_us);
        let (session, seq) = (self.id, self.seq);
        rec.emit(|_| Event::Remap {
            session,
            seq,
            similarity_ppm,
            compute_us,
        });
        DeltaOutcome {
            seq: self.seq,
            similarity_ppm,
            decision: DeltaDecision::Remap,
            mapping: Some(self.mapping.clone()),
        }
    }
}

struct RegistryState {
    sessions: HashMap<u64, Arc<Mutex<Session>>>,
    next_id: u64,
}

/// The server's table of open sessions, sized and tuned from
/// [`ServeConfig`] at startup.
pub struct SessionRegistry {
    max_sessions: usize,
    decay_shift: u32,
    drift_threshold_ppm: u64,
    cooldown_deltas: u64,
    idle: Option<Duration>,
    mapper: HierarchicalMapper,
    inner: Mutex<RegistryState>,
}

impl SessionRegistry {
    /// An empty registry tuned from the server configuration's effective
    /// (hazard-free) session knobs.
    pub fn new(cfg: &ServeConfig) -> SessionRegistry {
        SessionRegistry {
            max_sessions: cfg.effective_max_sessions(),
            decay_shift: cfg.effective_session_decay_shift(),
            drift_threshold_ppm: cfg.effective_session_drift_threshold_ppm(),
            cooldown_deltas: cfg.session_cooldown_deltas,
            idle: cfg.effective_session_idle_ms().map(Duration::from_millis),
            mapper: HierarchicalMapper::new(),
            inner: Mutex::new(RegistryState {
                sessions: HashMap::new(),
                next_id: 1,
            }),
        }
    }

    /// Open a session: evict idle ones, enforce the cap, compute the
    /// initial mapping on the (empty) window. Per-session overrides fall
    /// back to the server defaults.
    pub fn open(
        &self,
        topo: Topology,
        decay_shift: Option<u32>,
        drift_threshold_ppm: Option<u64>,
        cooldown_deltas: Option<u64>,
        rec: &Recorder,
    ) -> Result<(u64, Vec<usize>), SessionError> {
        let n = topo.num_cores();
        let window = DecayedMatrix::new(n, decay_shift.unwrap_or(self.decay_shift));
        // The empty window maps deterministically (all-zero weights), so a
        // session always has an installed mapping; the first non-empty
        // window starts the judge's first phase and remaps onto the first
        // real traffic.
        let mapping = self
            .mapper
            .try_map_observed(window.window(), &topo, rec)
            .map_err(|message| (ErrorCode::BadRequest, message))?;
        let mut state = self.inner.lock().unwrap();
        self.sweep(&mut state, rec);
        if state.sessions.len() >= self.max_sessions {
            return Err((
                ErrorCode::Overloaded,
                format!(
                    "session table is full ({} sessions open); close or let one idle out",
                    state.sessions.len()
                ),
            ));
        }
        let id = state.next_id;
        state.next_id += 1;
        let mapping = mapping.as_slice().to_vec();
        let session = Session {
            id,
            topo,
            window,
            tracker: PhaseTracker::new(
                drift_threshold_ppm
                    .unwrap_or(self.drift_threshold_ppm)
                    .min(1_000_000),
                cooldown_deltas.unwrap_or(self.cooldown_deltas),
            ),
            mapping: mapping.clone(),
            seq: 0,
            remaps: 0,
            last_similarity_ppm: 0,
            last_active: Instant::now(),
        };
        state.sessions.insert(id, Arc::new(Mutex::new(session)));
        rec.inc(CounterId::SessionsOpened);
        Ok((id, mapping))
    }

    /// Ingest one delta and run the control loop. The registry lock is
    /// dropped before the (possibly remapping) session work so other
    /// sessions are never stalled behind a slow solve.
    pub fn delta(
        &self,
        id: u64,
        delta: &CommMatrix,
        rec: &Recorder,
    ) -> Result<DeltaOutcome, SessionError> {
        let session = {
            let mut state = self.inner.lock().unwrap();
            self.sweep(&mut state, rec);
            match state.sessions.get(&id) {
                Some(session) => Arc::clone(session),
                None => return Err(self.unknown_session(&state, id)),
            }
        };
        let mut session = session.lock().unwrap();
        if delta.num_threads() != session.window.num_threads() {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "delta is sized for {} threads but session {} holds {}",
                    delta.num_threads(),
                    id,
                    session.window.num_threads()
                ),
            ));
        }
        // Decay only shrinks the window, so the window total plus the
        // delta total bounds the next window: refuse a delta that could
        // push it past what the mapper accepts, leaving the session as it
        // was.
        let window_total = check_matrix_total(session.window.window())
            .expect("every accepted delta kept the window within the bound");
        let bound = max_matrix_total(delta.num_threads());
        let within =
            check_matrix_total(delta).is_ok_and(|delta_total| window_total + delta_total <= bound);
        if !within {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "delta would raise session {id}'s window total past the mapper's bound \
                     of {bound}"
                ),
            ));
        }
        Ok(session.apply_delta(delta, &self.mapper, rec))
    }

    /// Close a session, returning its lifetime `(deltas, remaps)`.
    pub fn close(&self, id: u64, rec: &Recorder) -> Result<(u64, u64), SessionError> {
        let mut state = self.inner.lock().unwrap();
        self.sweep(&mut state, rec);
        match state.sessions.remove(&id) {
            Some(session) => {
                rec.inc(CounterId::SessionsClosed);
                let session = session.lock().unwrap();
                Ok((session.seq, session.remaps))
            }
            None => Err(self.unknown_session(&state, id)),
        }
    }

    /// Number of currently open sessions (evicting stale ones first).
    pub fn open_count(&self, rec: &Recorder) -> usize {
        let mut state = self.inner.lock().unwrap();
        self.sweep(&mut state, rec);
        state.sessions.len()
    }

    /// One summary row per open session, sorted by ID (for `admin
    /// sessions`).
    pub fn summaries(&self, rec: &Recorder) -> Vec<SessionSummary> {
        let mut state = self.inner.lock().unwrap();
        self.sweep(&mut state, rec);
        let mut rows: Vec<SessionSummary> = state
            .sessions
            .values()
            .map(|session| {
                let s = session.lock().unwrap();
                SessionSummary {
                    id: s.id,
                    threads: s.window.num_threads(),
                    deltas: s.seq,
                    remaps: s.remaps,
                    last_similarity_ppm: s.last_similarity_ppm,
                }
            })
            .collect();
        rows.sort_by_key(|row| row.id);
        rows
    }

    /// Evict sessions idle past the timeout. A session whose mutex is
    /// held is mid-delta — active by definition — and is skipped rather
    /// than waited on.
    fn sweep(&self, state: &mut RegistryState, rec: &Recorder) {
        let Some(idle) = self.idle else { return };
        let stale: Vec<u64> = state
            .sessions
            .iter()
            .filter_map(|(&id, session)| {
                let session = session.try_lock().ok()?;
                (session.last_active.elapsed() > idle).then_some(id)
            })
            .collect();
        for id in stale {
            state.sessions.remove(&id);
            rec.inc(CounterId::SessionsEvicted);
        }
    }

    /// The stable unknown-session answer: names the offender and lists
    /// what *would* be accepted, like the unknown-admin-kind message.
    fn unknown_session(&self, state: &RegistryState, id: u64) -> SessionError {
        let mut open: Vec<u64> = state.sessions.keys().copied().collect();
        open.sort_unstable();
        let message = if open.is_empty() {
            format!("unknown session `{id}` (no open sessions)")
        } else {
            let list = open
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" | ");
            format!("unknown session `{id}` (open sessions: {list})")
        };
        (ErrorCode::BadRequest, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_obs::ObsConfig;

    fn recorder() -> Recorder {
        Recorder::new(ObsConfig::new(0).with_ring_capacity(64))
    }

    /// A delta concentrating traffic on thread pairs `(0,1)`, `(2,3)`, …
    fn phase_a(n: usize) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in (0..n).step_by(2) {
            m.add(i, i + 1, 1_000);
        }
        m
    }

    /// The opposite phase: traffic on `(0,n/2)`, `(1,n/2+1)`, …
    fn phase_b(n: usize) -> CommMatrix {
        scaled_b(n, 1_000)
    }

    /// Phase B with `amount` on each pair.
    fn scaled_b(n: usize, amount: u64) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n / 2 {
            m.add(i, i + n / 2, amount);
        }
        m
    }

    #[test]
    fn first_delta_installs_the_first_real_mapping() {
        let rec = recorder();
        let reg = SessionRegistry::new(&ServeConfig::new());
        let (id, mapping) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        assert_eq!(mapping.len(), 8);
        let out = reg.delta(id, &phase_a(8), &rec).unwrap();
        assert_eq!(out.decision, DeltaDecision::Remap);
        assert_eq!(out.seq, 1);
        assert_eq!(out.similarity_ppm, 0, "empty reference scores zero");
        assert!(out.mapping.is_some());
        assert_eq!(rec.counter(CounterId::RemapsTriggered), 1);
    }

    #[test]
    fn stationary_stream_never_remaps_again() {
        let rec = recorder();
        let reg = SessionRegistry::new(&ServeConfig::new());
        let (id, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        reg.delta(id, &phase_a(8), &rec).unwrap();
        for _ in 0..10 {
            let out = reg.delta(id, &phase_a(8), &rec).unwrap();
            assert_eq!(out.decision, DeltaDecision::Stable);
            assert_eq!(out.similarity_ppm, 1_000_000);
            assert!(out.mapping.is_none());
        }
        assert_eq!(rec.counter(CounterId::RemapsTriggered), 1);
        assert_eq!(rec.counter(CounterId::RemapsSuppressed), 10);
        let (deltas, remaps) = reg.close(id, &rec).unwrap();
        assert_eq!((deltas, remaps), (11, 1));
    }

    #[test]
    fn phase_shift_remaps_exactly_once_under_cooldown() {
        let rec = recorder();
        let cfg = ServeConfig::new().with_session_cooldown_deltas(8);
        let reg = SessionRegistry::new(&cfg);
        let (id, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        for _ in 0..8 {
            reg.delta(id, &phase_a(8), &rec).unwrap();
        }
        assert_eq!(rec.counter(CounterId::RemapsTriggered), 1);
        // Phase shift: the decayed window swings toward B; the threshold
        // crossing remaps once, then cooldown holds while the window
        // finishes converging.
        let mut decisions = Vec::new();
        for _ in 0..8 {
            decisions.push(reg.delta(id, &phase_b(8), &rec).unwrap().decision);
        }
        let remaps = decisions
            .iter()
            .filter(|&&d| d == DeltaDecision::Remap)
            .count();
        assert_eq!(remaps, 1, "decisions were {decisions:?}");
        assert_eq!(rec.counter(CounterId::RemapsTriggered), 2);
    }

    #[test]
    fn cooldown_expires_and_the_next_crossing_remaps() {
        let rec = recorder();
        // Threshold 1e6: any similarity below exactly 1.0 crosses, so
        // alternating phases cross on every delta.
        let cfg = ServeConfig::new()
            .with_session_drift_threshold_ppm(1_000_000)
            .with_session_cooldown_deltas(2);
        let reg = SessionRegistry::new(&cfg);
        let (id, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        // Alternate phases only briefly: once the decayed window converges
        // to the alternating fixpoint, same-parity windows become nearly
        // parallel and similarity rounds back up to 1.0.
        let phases = [phase_a(8), phase_b(8)];
        let mut decisions = Vec::new();
        for i in 0..4 {
            decisions.push(reg.delta(id, &phases[i % 2], &rec).unwrap().decision);
        }
        use DeltaDecision::{Cooldown, Remap};
        assert_eq!(decisions, vec![Remap, Cooldown, Cooldown, Remap]);
    }

    #[test]
    fn capacity_answers_overloaded() {
        let rec = recorder();
        let cfg = ServeConfig::new().with_max_sessions(1);
        let reg = SessionRegistry::new(&cfg);
        reg.open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        let err = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap_err();
        assert_eq!(err.0, ErrorCode::Overloaded);
        assert!(err.1.contains("session table is full"), "{}", err.1);
    }

    #[test]
    fn unknown_session_lists_open_ids() {
        let rec = recorder();
        let reg = SessionRegistry::new(&ServeConfig::new());
        let (code, message) = reg.delta(9, &phase_a(8), &rec).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert_eq!(message, "unknown session `9` (no open sessions)");
        let (a, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        let (b, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        let (_, message) = reg.close(99, &rec).unwrap_err();
        assert_eq!(
            message,
            format!("unknown session `99` (open sessions: {a} | {b})")
        );
    }

    #[test]
    fn mismatched_delta_is_a_bad_request() {
        let rec = recorder();
        let reg = SessionRegistry::new(&ServeConfig::new());
        let (id, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        let (code, message) = reg.delta(id, &phase_a(4), &rec).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(message.contains("sized for 4 threads"), "{message}");
    }

    #[test]
    fn idle_sessions_are_evicted_on_access() {
        let rec = recorder();
        let cfg = ServeConfig::new().with_session_idle_ms(1);
        let reg = SessionRegistry::new(&cfg);
        let (id, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(reg.open_count(&rec), 0);
        assert_eq!(rec.counter(CounterId::SessionsEvicted), 1);
        let (_, message) = reg.delta(id, &phase_a(8), &rec).unwrap_err();
        assert!(message.contains("no open sessions"), "{message}");
    }

    #[test]
    fn summaries_report_per_session_progress() {
        let rec = recorder();
        let reg = SessionRegistry::new(&ServeConfig::new());
        let (a, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        let (b, _) = reg
            .open(Topology::harpertown(), None, None, None, &rec)
            .unwrap();
        reg.delta(a, &phase_a(8), &rec).unwrap();
        reg.delta(a, &phase_a(8), &rec).unwrap();
        let rows = reg.summaries(&rec);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, a);
        assert_eq!((rows[0].deltas, rows[0].remaps), (2, 1));
        assert_eq!(rows[0].last_similarity_ppm, 1_000_000);
        assert_eq!((rows[1].id, rows[1].deltas, rows[1].remaps), (b, 0, 0));
    }

    /// A new phase that arrives at a fortieth of the old volume still
    /// remaps and then settles, with the default decayed window and with a
    /// memoryless one: the judge's sparse rule skips a clipped window, not
    /// a lasting drop in traffic.
    #[test]
    fn quieter_new_phase_still_remaps() {
        for decay_shift in [None, Some(0)] {
            let rec = recorder();
            let reg = SessionRegistry::new(&ServeConfig::new());
            let (id, _) = reg
                .open(Topology::harpertown(), decay_shift, None, None, &rec)
                .unwrap();
            for _ in 0..16 {
                reg.delta(id, &phase_a(8), &rec).unwrap();
            }
            assert_eq!(rec.counter(CounterId::RemapsTriggered), 1);
            let decisions: Vec<_> = (0..32)
                .map(|_| reg.delta(id, &scaled_b(8, 25), &rec).unwrap().decision)
                .collect();
            let last = decisions.iter().rposition(|&d| d == DeltaDecision::Remap);
            assert!(
                last.is_some_and(|i| i < 16),
                "decay_shift {decay_shift:?}: decisions were {decisions:?}"
            );
        }
    }
}
