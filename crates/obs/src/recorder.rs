//! The recorder: a cloneable handle threaded through the engine, the
//! detectors and the mapper.
//!
//! A disabled recorder holds no state at all (`inner: None`); every method
//! is `#[inline]` and reduces to one `Option` discriminant check, so the
//! simulation hot path pays nothing measurable when observability is off —
//! verified by the `engine_throughput` benchmark. An enabled recorder
//! funnels counters and histograms into lock-free atomics and events into
//! a bounded ring buffer.

use crate::event::Event;
use crate::flight::FlightState;
use crate::json::Json;
use crate::metrics::{CounterId, HistId, Histogram, COUNTERS, HISTS};
use crate::profile::{ProfId, Profile};
use crate::ring::RingBuffer;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Recorder construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Thread count of the run (sizes the snapshot matrix).
    pub n_threads: usize,
    /// Maximum events retained in the trace ring.
    pub ring_capacity: usize,
    /// Take a communication-matrix snapshot every this many cycles.
    pub snapshot_period: Option<u64>,
    /// Flight-recorder window length in cycles (`None` disables the
    /// flight recorder and the online phase detector).
    pub flight_window: Option<u64>,
    /// Closed flight windows retained in the bounded ring.
    pub flight_capacity: usize,
}

impl ObsConfig {
    /// Defaults: 1 Mi events, no periodic snapshots, flight recorder off,
    /// 64 retained flight windows once enabled.
    pub fn new(n_threads: usize) -> Self {
        ObsConfig {
            n_threads,
            ring_capacity: 1 << 20,
            snapshot_period: None,
            flight_window: None,
            flight_capacity: 64,
        }
    }

    /// Override the ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Snapshot the matrix every `period` cycles (`None` disables).
    pub fn with_snapshot_period(mut self, period: Option<u64>) -> Self {
        self.snapshot_period = period;
        self
    }

    /// Close a flight-recorder window every `window` cycles (`None`
    /// disables the flight recorder).
    pub fn with_flight_window(mut self, window: Option<u64>) -> Self {
        self.flight_window = window;
        self
    }

    /// Override how many closed flight windows the ring retains.
    pub fn with_flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity;
        self
    }

    /// The snapshot period with the zero hazard removed: a period of 0
    /// would never advance the snapshot scheduler (`due += 0` forever), so
    /// it is treated as "no snapshots". The CLI rejects `--snapshot-every
    /// 0` up front; this guards library callers.
    fn effective_snapshot_period(&self) -> Option<u64> {
        self.snapshot_period.filter(|&p| p > 0)
    }

    /// The flight-window length with the zero hazard removed, mirroring
    /// the snapshot-period-0 guard: a zero-length window would never
    /// advance the window scheduler, so it is treated as "flight recorder
    /// off". The CLI rejects `--flight-window 0` up front; this guards
    /// library callers.
    pub fn effective_flight_window(&self) -> Option<u64> {
        self.flight_window.filter(|&w| w > 0)
    }

    /// The flight-ring capacity with the zero hazard removed: a
    /// zero-capacity ring would drop every window the moment it closed,
    /// so it is clamped to one retained window.
    pub fn effective_flight_capacity(&self) -> usize {
        self.flight_capacity.max(1)
    }
}

/// One periodic communication-matrix snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixSnapshot {
    /// Zero-based snapshot index.
    pub index: u64,
    /// Cycle the snapshot is keyed to (a multiple of the period).
    pub cycle: u64,
    /// Barriers crossed when it was taken.
    pub barrier: u64,
    /// Thread count.
    pub n: usize,
    /// Row-major n×n matrix cells.
    pub cells: Vec<u64>,
}

impl MatrixSnapshot {
    /// JSON export.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = (0..self.n)
            .map(|i| {
                Json::Arr(
                    (0..self.n)
                        .map(|j| Json::U64(self.cells[i * self.n + j]))
                        .collect(),
                )
            })
            .collect();
        Json::obj(vec![
            ("index", Json::U64(self.index)),
            ("cycle", Json::U64(self.cycle)),
            ("barrier", Json::U64(self.barrier)),
            ("n", Json::U64(self.n as u64)),
            ("rows", Json::Arr(rows)),
        ])
    }
}

/// Snapshot accumulator: the recorder's own copy of the communication
/// matrix, grown by `matrix_inc` events and sampled periodically.
#[derive(Debug)]
struct SnapState {
    n: usize,
    cells: Vec<u64>,
    period: Option<u64>,
    barrier: u64,
    snaps: Vec<MatrixSnapshot>,
}

impl SnapState {
    fn take(&mut self, cycle: u64) -> u64 {
        let index = self.snaps.len() as u64;
        self.snaps.push(MatrixSnapshot {
            index,
            cycle,
            barrier: self.barrier,
            n: self.n,
            cells: self.cells.clone(),
        });
        index
    }
}

#[derive(Debug)]
struct Inner {
    counters: [AtomicU64; COUNTERS.len()],
    hists: [Histogram; HISTS.len()],
    /// Global cycle estimate, stamped onto emitted events.
    now: AtomicU64,
    /// Cycle of the previous TLB miss (`u64::MAX` = none yet).
    last_miss: AtomicU64,
    /// Cycle at which the next snapshot is due (`u64::MAX` = never).
    next_snap: AtomicU64,
    /// Cycle at which the next flight window closes (`u64::MAX` = never).
    next_flight: AtomicU64,
    /// Current phase id, minted by whichever online detector is active
    /// (the flight recorder or an external windowed detector).
    phase: AtomicU64,
    ring: Mutex<RingBuffer<Event>>,
    snap: Mutex<SnapState>,
    flight: Option<Mutex<FlightState>>,
    prof: Profile,
}

/// Cloneable observability handle. `Recorder::disabled()` is the no-op.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder: every call is a single `None` check.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder.
    pub fn new(cfg: ObsConfig) -> Recorder {
        let period = cfg.effective_snapshot_period();
        let flight_window = cfg.effective_flight_window();
        Recorder {
            inner: Some(Arc::new(Inner {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| Histogram::default()),
                now: AtomicU64::new(0),
                last_miss: AtomicU64::new(u64::MAX),
                next_snap: AtomicU64::new(period.unwrap_or(u64::MAX)),
                next_flight: AtomicU64::new(flight_window.unwrap_or(u64::MAX)),
                phase: AtomicU64::new(0),
                ring: Mutex::new(RingBuffer::new(cfg.ring_capacity)),
                snap: Mutex::new(SnapState {
                    n: cfg.n_threads,
                    cells: vec![0; cfg.n_threads * cfg.n_threads],
                    period,
                    barrier: 0,
                    snaps: Vec::new(),
                }),
                flight: flight_window.map(|w| {
                    Mutex::new(FlightState::new(
                        cfg.n_threads,
                        w,
                        cfg.effective_flight_capacity(),
                    ))
                }),
                prof: Profile::default(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.counters[id as usize].load(Ordering::Relaxed))
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&self, id: HistId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.hists[id as usize].observe(value);
        }
    }

    /// Stamp the global cycle estimate (the engine calls this as its clock
    /// advances; detectors never see cycles directly).
    #[inline]
    pub fn set_cycle(&self, cycle: u64) {
        if let Some(inner) = &self.inner {
            inner.now.store(cycle, Ordering::Relaxed);
        }
    }

    /// The last stamped cycle.
    pub fn now(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.now.load(Ordering::Relaxed))
    }

    /// Stamp the cycle and take any snapshots / close any flight windows
    /// that became due. The engine calls this once per executed trace
    /// event; with neither scheduler armed the cost is two relaxed loads.
    #[inline]
    pub fn advance(&self, cycle: u64) {
        if let Some(inner) = &self.inner {
            inner.now.store(cycle, Ordering::Relaxed);
            if cycle >= inner.next_snap.load(Ordering::Relaxed) {
                self.take_due_snapshots(inner, cycle);
            }
            if cycle >= inner.next_flight.load(Ordering::Relaxed) {
                self.close_due_flight_windows(inner, cycle);
            }
        }
    }

    #[cold]
    fn take_due_snapshots(&self, inner: &Inner, cycle: u64) {
        let mut snap = inner.snap.lock().expect("snapshot state poisoned");
        let period = match snap.period {
            Some(p) => p,
            None => return,
        };
        let mut due = inner.next_snap.load(Ordering::Relaxed);
        while cycle >= due {
            let index = snap.take(due);
            self.push_event(inner, Event::Snapshot { cycle: due, index });
            inner.counters[CounterId::SnapshotsTaken as usize].fetch_add(1, Ordering::Relaxed);
            due += period;
        }
        inner.next_snap.store(due, Ordering::Relaxed);
    }

    #[cold]
    fn close_due_flight_windows(&self, inner: &Inner, cycle: u64) {
        let flight = match &inner.flight {
            Some(flight) => flight,
            None => return,
        };
        let mut state = flight.lock().expect("flight state poisoned");
        let window = state.window_cycles();
        let mut due = inner.next_flight.load(Ordering::Relaxed);
        while cycle >= due {
            let close = state.close_window(due, &inner.prof);
            self.apply_window_close(inner, close);
            due += window;
        }
        inner.next_flight.store(due, Ordering::Relaxed);
    }

    /// Turn one [`FlightState`] window close into counters and events.
    fn apply_window_close(&self, inner: &Inner, close: crate::flight::WindowClose) {
        inner.counters[CounterId::FlightWindows as usize].fetch_add(1, Ordering::Relaxed);
        if close.dropped {
            inner.counters[CounterId::FlightWindowsDropped as usize]
                .fetch_add(1, Ordering::Relaxed);
        }
        if let Some(phase) = close.phase_change {
            inner.phase.store(phase, Ordering::Relaxed);
            inner.counters[CounterId::PhaseChanges as usize].fetch_add(1, Ordering::Relaxed);
            self.push_event(
                inner,
                Event::PhaseChange {
                    cycle: close.end_cycle,
                    window: close.index,
                    phase,
                    similarity_ppm: close.similarity_ppm.unwrap_or(0),
                },
            );
        }
    }

    /// Close the run: fill in any snapshots still due so that exactly
    /// `floor(total_cycles / period)` exist, close the partial flight
    /// window (if any cycles remain in it), and stamp the final cycle.
    pub fn finish(&self, total_cycles: u64) {
        if let Some(inner) = &self.inner {
            inner.now.store(total_cycles, Ordering::Relaxed);
            self.take_due_snapshots(inner, total_cycles);
            if inner.next_flight.load(Ordering::Relaxed) != u64::MAX {
                self.close_due_flight_windows(inner, total_cycles);
                if let Some(flight) = &inner.flight {
                    let mut state = flight.lock().expect("flight state poisoned");
                    if state.open_window_started_before(total_cycles) {
                        let close = state.close_window(total_cycles, &inner.prof);
                        self.apply_window_close(inner, close);
                        inner
                            .next_flight
                            .store(total_cycles + state.window_cycles(), Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Append a raw event, stamped with the current cycle by the caller.
    #[inline]
    pub fn emit(&self, make: impl FnOnce(u64) -> Event) {
        if let Some(inner) = &self.inner {
            let event = make(inner.now.load(Ordering::Relaxed));
            self.push_event(inner, event);
        }
    }

    fn push_event(&self, inner: &Inner, event: Event) {
        let mut ring = inner.ring.lock().expect("event ring poisoned");
        if ring.push(event) {
            inner.counters[CounterId::EventsDropped as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    // ----- composite helpers (one call per observation point) -----

    /// A TLB miss: event + counter + inter-arrival histogram + the flight
    /// recorder's per-core/per-window activity.
    #[inline]
    pub fn record_tlb_miss(&self, core: usize, thread: usize, vpn: u64, data: bool) {
        if let Some(inner) = &self.inner {
            let cycle = inner.now.load(Ordering::Relaxed);
            inner.counters[CounterId::TlbMisses as usize].fetch_add(1, Ordering::Relaxed);
            let prev = inner.last_miss.swap(cycle, Ordering::Relaxed);
            if prev != u64::MAX {
                inner.hists[HistId::TlbMissInterArrival as usize]
                    .observe(cycle.saturating_sub(prev));
            }
            if let Some(flight) = &inner.flight {
                flight
                    .lock()
                    .expect("flight state poisoned")
                    .record_miss(core);
            }
            self.push_event(
                inner,
                Event::TlbMiss {
                    cycle,
                    core: core as u32,
                    thread: thread as u32,
                    vpn,
                    data,
                },
            );
        }
    }

    /// A detection search is about to scan remote TLBs.
    #[inline]
    pub fn record_search_start(&self, mech: crate::event::Mechanism, core: usize) {
        self.emit(|cycle| Event::SearchStart {
            cycle,
            mech,
            core: core as u32,
        });
    }

    /// A detection search finished: event + counters + latency histogram.
    #[inline]
    pub fn record_search_end(
        &self,
        mech: crate::event::Mechanism,
        core: usize,
        entries: u64,
        matches: u64,
        charged_cycles: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner.counters[CounterId::DetectionSearches as usize].fetch_add(1, Ordering::Relaxed);
            inner.counters[CounterId::DetectionOverheadCycles as usize]
                .fetch_add(charged_cycles, Ordering::Relaxed);
            inner.counters[CounterId::SearchEntriesCompared as usize]
                .fetch_add(entries, Ordering::Relaxed);
            inner.hists[HistId::DetectionSearchCycles as usize].observe(charged_cycles);
            self.push_event(
                inner,
                Event::SearchEnd {
                    cycle: inner.now.load(Ordering::Relaxed),
                    mech,
                    core: core as u32,
                    entries,
                    matches,
                    charged_cycles,
                },
            );
        }
    }

    /// A matrix increment: event + counter + amount histogram + the
    /// recorder's own matrix copy (what snapshots sample).
    #[inline]
    pub fn record_matrix_inc(&self, a: usize, b: usize, amount: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[CounterId::MatrixIncrements as usize].fetch_add(1, Ordering::Relaxed);
            inner.hists[HistId::MatrixIncrementAmount as usize].observe(amount);
            {
                let mut snap = inner.snap.lock().expect("snapshot state poisoned");
                let n = snap.n;
                if a < n && b < n && a != b {
                    snap.cells[a * n + b] += amount;
                    snap.cells[b * n + a] += amount;
                }
            }
            if let Some(flight) = &inner.flight {
                flight
                    .lock()
                    .expect("flight state poisoned")
                    .record_inc(a, b, amount);
            }
            self.push_event(
                inner,
                Event::MatrixInc {
                    cycle: inner.now.load(Ordering::Relaxed),
                    a: a as u32,
                    b: b as u32,
                    amount,
                },
            );
        }
    }

    /// A barrier release.
    #[inline]
    pub fn record_barrier(&self, index: u64, cycle: u64) {
        if let Some(inner) = &self.inner {
            inner.now.store(cycle, Ordering::Relaxed);
            inner.counters[CounterId::Barriers as usize].fetch_add(1, Ordering::Relaxed);
            inner.snap.lock().expect("snapshot state poisoned").barrier = index + 1;
            self.push_event(inner, Event::Barrier { cycle, index });
        }
    }

    /// A thread migration (plus the TLB flushes it implies).
    #[inline]
    pub fn record_migration(&self, thread: usize, from_core: usize, to_core: usize) {
        if let Some(inner) = &self.inner {
            let cycle = inner.now.load(Ordering::Relaxed);
            inner.counters[CounterId::Migrations as usize].fetch_add(1, Ordering::Relaxed);
            self.push_event(
                inner,
                Event::Migration {
                    cycle,
                    thread: thread as u32,
                    from_core: from_core as u32,
                    to_core: to_core as u32,
                },
            );
            for core in [from_core, to_core] {
                self.push_event(
                    inner,
                    Event::TlbFlush {
                        cycle,
                        core: core as u32,
                    },
                );
            }
        }
    }

    /// A phase change flagged by an external windowed detector (the
    /// in-engine flight recorder mints its own). Bumps the run's phase id
    /// and stamps it into the event.
    #[inline]
    pub fn record_phase_change(&self, window: u64, similarity_ppm: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[CounterId::PhaseChanges as usize].fetch_add(1, Ordering::Relaxed);
            let phase = inner.phase.fetch_add(1, Ordering::Relaxed) + 1;
            self.push_event(
                inner,
                Event::PhaseChange {
                    cycle: inner.now.load(Ordering::Relaxed),
                    window,
                    phase,
                    similarity_ppm,
                },
            );
        }
    }

    /// One hierarchical-mapper matching level.
    #[inline]
    pub fn record_mapper_round(
        &self,
        level: u32,
        groups_before: u32,
        groups_after: u32,
        weight: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner.counters[CounterId::MapperRounds as usize].fetch_add(1, Ordering::Relaxed);
            inner.hists[HistId::MapperLevelWeight as usize].observe(weight);
            // The mapper runs off the simulated clock; profile call counts
            // only (zero cycles charged).
            inner.prof.charge(ProfId::MapperLevel, 0);
            self.push_event(
                inner,
                Event::MapperRound {
                    level,
                    groups_before,
                    groups_after,
                    weight,
                },
            );
        }
    }

    // ----- self-profiling -----

    /// Charge `cycles` of simulated time (and one call) to a profile
    /// component. The engine is the main caller; see [`ProfId`] for the
    /// component tree.
    #[inline]
    pub fn prof_charge(&self, id: ProfId, cycles: u64) {
        if let Some(inner) = &self.inner {
            inner.prof.charge(id, cycles);
        }
    }

    // ----- flight recorder -----

    /// Current phase id (0 until an online detector flags a change).
    pub fn phase(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.phase.load(Ordering::Relaxed))
    }

    /// Closed flight windows still retained in the ring, oldest first.
    pub fn flight_windows(&self) -> Vec<crate::flight::FlightWindow> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.flight.as_ref().map_or_else(Vec::new, |f| {
                f.lock().expect("flight state poisoned").retained()
            })
        })
    }

    /// The flight-recorder section of the metrics document: window ring,
    /// per-phase aggregates, and per-phase profile attribution.
    /// [`Json::Null`] when the flight recorder is disabled.
    pub fn flight_json(&self) -> Json {
        self.inner.as_ref().map_or(Json::Null, |i| {
            i.flight.as_ref().map_or(Json::Null, |f| {
                f.lock().expect("flight state poisoned").to_json(&i.prof)
            })
        })
    }

    // ----- export -----

    /// Snapshots taken so far.
    pub fn snapshots(&self) -> Vec<MatrixSnapshot> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.snap
                .lock()
                .expect("snapshot state poisoned")
                .snaps
                .clone()
        })
    }

    /// Events retained in the ring (oldest first).
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.ring
                .lock()
                .expect("event ring poisoned")
                .iter()
                .cloned()
                .collect()
        })
    }

    /// Write the trace as JSONL: a meta line, then one event per line.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return Ok(()),
        };
        let ring = inner.ring.lock().expect("event ring poisoned");
        let meta = Json::obj(vec![
            ("ev", Json::Str("meta".into())),
            ("schema", Json::U64(1)),
            ("events", Json::U64(ring.len() as u64)),
            ("dropped", Json::U64(ring.dropped())),
        ]);
        writeln!(w, "{}", meta.render())?;
        for event in ring.iter() {
            writeln!(w, "{}", event.to_json().render())?;
        }
        Ok(())
    }

    /// Write the trace in Chrome `trace_event` format (open the file in
    /// `chrome://tracing` or Perfetto; 1 cycle renders as 1 µs).
    pub fn write_chrome_trace(&self, w: &mut dyn Write) -> io::Result<()> {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return write!(w, "{{\"traceEvents\":[]}}"),
        };
        let ring = inner.ring.lock().expect("event ring poisoned");
        write!(w, "{{\"traceEvents\":[")?;
        for (i, event) in ring.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "{}", event.to_chrome().render())?;
        }
        write!(w, "],\"displayTimeUnit\":\"ns\"}}")
    }

    /// The metrics registry plus snapshots as one JSON document.
    pub fn metrics_json(&self) -> Json {
        let counters = Json::Obj(
            COUNTERS
                .iter()
                .map(|&c| (c.as_str().to_string(), Json::U64(self.counter(c))))
                .collect(),
        );
        let hists = Json::Obj(
            HISTS
                .iter()
                .map(|&h| {
                    let json = self.inner.as_ref().map_or_else(
                        || Histogram::default().to_json(),
                        |i| i.hists[h as usize].to_json(),
                    );
                    (h.as_str().to_string(), json)
                })
                .collect(),
        );
        let snapshots = Json::Arr(
            self.snapshots()
                .iter()
                .map(MatrixSnapshot::to_json)
                .collect(),
        );
        let profile = self
            .inner
            .as_ref()
            .map_or(Json::Arr(Vec::new()), |i| i.prof.to_json());
        Json::obj(vec![
            ("schema", Json::U64(3)),
            ("counters", counters),
            ("histograms", hists),
            ("profile", profile),
            ("snapshots", snapshots),
            ("flight", self.flight_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Mechanism;

    /// A histogram's observation count, as the metrics document exports it.
    fn hist_count(r: &Recorder, id: HistId) -> u64 {
        let m = r.metrics_json();
        let hist = m.get("histograms").and_then(|h| h.get(id.as_str()));
        hist.and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
    }

    /// One field of a component's record in the metrics document's
    /// `profile` section (0 when the component is absent).
    fn prof_field(r: &Recorder, component: &str, field: &str) -> u64 {
        let m = r.metrics_json();
        let profile = m.get("profile").and_then(Json::as_array).unwrap();
        profile
            .iter()
            .find(|c| c.get("component").and_then(Json::as_str) == Some(component))
            .map_or(0, |c| c.get(field).and_then(Json::as_u64).unwrap())
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.inc(CounterId::Accesses);
        r.observe(HistId::DetectionSearchCycles, 5);
        r.record_tlb_miss(0, 0, 7, true);
        r.record_matrix_inc(0, 1, 1);
        r.advance(1_000_000);
        r.finish(2_000_000);
        assert_eq!(r.counter(CounterId::Accesses), 0);
        assert_eq!(hist_count(&r, HistId::DetectionSearchCycles), 0);
        assert!(r.events().is_empty());
        assert!(r.snapshots().is_empty());
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let r = Recorder::new(ObsConfig::new(4));
        r.inc(CounterId::Accesses);
        r.add(CounterId::Accesses, 9);
        r.observe(HistId::DetectionSearchCycles, 231);
        assert_eq!(r.counter(CounterId::Accesses), 10);
        assert_eq!(hist_count(&r, HistId::DetectionSearchCycles), 1);
    }

    #[test]
    fn miss_interarrival_histogram() {
        let r = Recorder::new(ObsConfig::new(2));
        r.set_cycle(100);
        r.record_tlb_miss(0, 0, 1, true); // first miss: no inter-arrival
        r.set_cycle(160);
        r.record_tlb_miss(1, 1, 2, true); // gap 60
        assert_eq!(r.counter(CounterId::TlbMisses), 2);
        assert_eq!(hist_count(&r, HistId::TlbMissInterArrival), 1);
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].cycle(), 160);
    }

    #[test]
    fn snapshots_fire_on_period_multiples() {
        let r = Recorder::new(ObsConfig::new(2).with_snapshot_period(Some(1000)));
        r.record_matrix_inc(0, 1, 5);
        r.advance(999);
        assert!(r.snapshots().is_empty());
        r.advance(1001);
        assert_eq!(r.snapshots().len(), 1);
        r.record_matrix_inc(0, 1, 2);
        // A big jump takes every snapshot that became due.
        r.advance(4000);
        let snaps = r.snapshots();
        assert_eq!(snaps.len(), 4);
        assert_eq!(snaps[0].cycle, 1000);
        assert_eq!(snaps[0].cells, vec![0, 5, 5, 0]);
        assert_eq!(snaps[3].cycle, 4000);
        assert_eq!(snaps[3].cells, vec![0, 7, 7, 0]);
        assert_eq!(r.counter(CounterId::SnapshotsTaken), 4);
    }

    #[test]
    fn finish_tops_up_to_floor() {
        let r = Recorder::new(ObsConfig::new(2).with_snapshot_period(Some(100)));
        r.advance(250);
        assert_eq!(r.snapshots().len(), 2);
        r.finish(1050);
        assert_eq!(r.snapshots().len(), 10, "floor(1050/100) snapshots");
        assert_eq!(r.snapshots().last().unwrap().cycle, 1000);
    }

    #[test]
    fn search_records_all_series() {
        let r = Recorder::new(ObsConfig::new(8));
        r.set_cycle(42);
        r.record_search_start(Mechanism::Sm, 3);
        r.record_search_end(Mechanism::Sm, 3, 28, 2, 231);
        assert_eq!(r.counter(CounterId::DetectionSearches), 1);
        assert_eq!(r.counter(CounterId::DetectionOverheadCycles), 231);
        assert_eq!(r.counter(CounterId::SearchEntriesCompared), 28);
        assert_eq!(hist_count(&r, HistId::DetectionSearchCycles), 1);
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::SearchStart { cycle: 42, .. }));
    }

    #[test]
    fn jsonl_has_meta_line_and_one_line_per_event() {
        let r = Recorder::new(ObsConfig::new(2));
        r.record_barrier(0, 500);
        r.record_migration(1, 0, 3);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // meta + barrier + migration + 2 flushes
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"ev\":\"meta\""));
        for line in &lines {
            assert!(Json::parse(line).is_ok(), "invalid JSONL line: {line}");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let r = Recorder::new(ObsConfig::new(2));
        r.set_cycle(10);
        r.record_search_end(Mechanism::Hm, 0, 7168, 12, 84_297);
        r.record_tlb_miss(1, 1, 99, true);
        let mut out = Vec::new();
        r.write_chrome_trace(&mut out).unwrap();
        let doc = Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("dur").unwrap().as_u64(), Some(84_297));
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let r = Recorder::new(ObsConfig::new(2).with_ring_capacity(3));
        for i in 0..10 {
            r.record_barrier(i, i * 100);
        }
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.counter(CounterId::EventsDropped), 7);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().next().unwrap().contains("\"dropped\":7"));
    }

    #[test]
    fn metrics_json_names_every_series() {
        let r = Recorder::new(ObsConfig::new(2).with_snapshot_period(Some(10)));
        r.record_matrix_inc(0, 1, 3);
        r.finish(25);
        let m = r.metrics_json();
        let counters = match m.get("counters").unwrap() {
            Json::Obj(pairs) => pairs.len(),
            _ => 0,
        };
        let hists = match m.get("histograms").unwrap() {
            Json::Obj(pairs) => pairs.len(),
            _ => 0,
        };
        assert!(counters + hists >= 8, "acceptance floor: 8 series");
        assert_eq!(m.get("snapshots").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            m.get("counters")
                .unwrap()
                .get("matrix_increments")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn zero_snapshot_period_disables_snapshots() {
        // Period 0 would never advance the scheduler (`due += 0`); the
        // config treats it as "no snapshots" instead of looping forever.
        let r = Recorder::new(ObsConfig::new(2).with_snapshot_period(Some(0)));
        r.record_matrix_inc(0, 1, 3);
        r.advance(10_000);
        r.finish(1_000_000);
        assert!(r.snapshots().is_empty());
        assert_eq!(r.counter(CounterId::SnapshotsTaken), 0);
    }

    #[test]
    fn profiler_accumulates_and_exports() {
        use crate::profile::ProfId;
        let r = Recorder::new(ObsConfig::new(2));
        r.prof_charge(ProfId::EngineCompute, 100);
        r.prof_charge(ProfId::TlbLookup, 420);
        r.prof_charge(ProfId::CacheAccess, 210);
        assert_eq!(prof_field(&r, "engine;access;tlb", "exclusive_cycles"), 420);
        assert_eq!(prof_field(&r, "engine", "inclusive_cycles"), 730);
        assert_eq!(prof_field(&r, "engine;compute", "calls"), 1);
        assert_eq!(r.metrics_json().get("schema").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn disabled_recorder_profiles_nothing() {
        use crate::profile::ProfId;
        let r = Recorder::disabled();
        r.prof_charge(ProfId::EngineCompute, 1_000);
        assert_eq!(
            r.metrics_json().get("profile"),
            Some(&Json::Arr(Vec::new()))
        );
    }

    #[test]
    fn flight_windows_roll_with_the_clock() {
        let r = Recorder::new(ObsConfig::new(4).with_flight_window(Some(1000)));
        assert_ne!(r.flight_json(), Json::Null);
        r.advance(10);
        r.record_tlb_miss(2, 2, 0x10, true);
        r.record_matrix_inc(0, 1, 3);
        r.advance(999);
        assert!(r.flight_windows().is_empty(), "window not due yet");
        r.advance(1500);
        let windows = r.flight_windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].start_cycle, 0);
        assert_eq!(windows[0].end_cycle, 1000);
        assert_eq!(windows[0].total(), 6, "symmetric cells: 3 + 3");
        assert_eq!(windows[0].core_activity, vec![0, 0, 1]);
        assert_eq!(r.counter(CounterId::FlightWindows), 1);
        // A big jump closes every window that became due.
        r.advance(4200);
        assert_eq!(r.flight_windows().len(), 4);
        assert_eq!(r.counter(CounterId::FlightWindows), 4);
    }

    #[test]
    fn finish_closes_the_partial_flight_window() {
        let r = Recorder::new(ObsConfig::new(2).with_flight_window(Some(1000)));
        r.advance(100);
        r.record_matrix_inc(0, 1, 2);
        r.finish(1300);
        let windows = r.flight_windows();
        assert_eq!(windows.len(), 2, "one full window + the partial tail");
        assert_eq!(windows[1].start_cycle, 1000);
        assert_eq!(windows[1].end_cycle, 1300);
        // Finishing exactly on a boundary leaves no degenerate window.
        let r = Recorder::new(ObsConfig::new(2).with_flight_window(Some(1000)));
        r.advance(10);
        r.finish(2000);
        assert_eq!(r.flight_windows().len(), 2);
    }

    #[test]
    fn flight_phase_change_emits_a_stamped_event() {
        let r = Recorder::new(ObsConfig::new(4).with_flight_window(Some(100)));
        r.advance(1);
        r.record_matrix_inc(0, 1, 10);
        r.advance(101);
        r.record_matrix_inc(0, 1, 10);
        r.advance(201);
        assert_eq!(r.phase(), 0, "stable pattern: still phase 0");
        // Disjoint pair: cosine 0 against the reference.
        r.record_matrix_inc(2, 3, 10);
        r.advance(301);
        assert_eq!(r.phase(), 1);
        assert_eq!(r.counter(CounterId::PhaseChanges), 1);
        let change = r
            .events()
            .into_iter()
            .find(|e| matches!(e, Event::PhaseChange { .. }))
            .expect("phase change event");
        match change {
            Event::PhaseChange {
                cycle,
                window,
                phase,
                similarity_ppm,
            } => {
                assert_eq!(cycle, 300);
                assert_eq!(window, 2);
                assert_eq!(phase, 1);
                assert_eq!(similarity_ppm, 0);
            }
            _ => unreachable!(),
        }
        let windows = r.flight_windows();
        assert_eq!(windows[2].phase, 1, "divergent window opens the phase");
    }

    #[test]
    fn flight_ring_capacity_bounds_memory() {
        let r = Recorder::new(
            ObsConfig::new(2)
                .with_flight_window(Some(10))
                .with_flight_capacity(2),
        );
        for k in 1..=5u64 {
            r.record_matrix_inc(0, 1, 1);
            r.advance(k * 10);
        }
        assert_eq!(r.flight_windows().len(), 2);
        assert_eq!(r.counter(CounterId::FlightWindows), 5);
        assert_eq!(r.counter(CounterId::FlightWindowsDropped), 3);
    }

    #[test]
    fn zero_flight_window_disables_the_flight_recorder() {
        // Satellite guard: window length 0 mirrors snapshot-period-0 —
        // it means "off", never a scheduler that can't advance.
        let r = Recorder::new(ObsConfig::new(2).with_flight_window(Some(0)));
        assert_eq!(r.flight_json(), Json::Null);
        r.record_matrix_inc(0, 1, 3);
        r.advance(10_000);
        r.finish(1_000_000);
        assert!(r.flight_windows().is_empty());
        assert_eq!(r.counter(CounterId::FlightWindows), 0);
        assert_eq!(r.flight_json(), Json::Null);
        assert_eq!(ObsConfig::new(2).effective_flight_window(), None);
        assert_eq!(
            ObsConfig::new(2)
                .with_flight_window(Some(500))
                .effective_flight_window(),
            Some(500)
        );
    }

    #[test]
    fn zero_flight_capacity_clamps_to_one() {
        // Satellite guard: a zero-capacity ring would drop every window
        // as it closed; clamp to one retained window instead.
        assert_eq!(
            ObsConfig::new(2)
                .with_flight_capacity(0)
                .effective_flight_capacity(),
            1
        );
        let r = Recorder::new(
            ObsConfig::new(2)
                .with_flight_window(Some(10))
                .with_flight_capacity(0),
        );
        r.record_matrix_inc(0, 1, 1);
        r.advance(25);
        assert_eq!(r.flight_windows().len(), 1);
    }

    #[test]
    fn metrics_flight_section_round_trips() {
        let r = Recorder::new(ObsConfig::new(2).with_flight_window(Some(100)));
        r.advance(5);
        r.record_tlb_miss(0, 0, 1, true);
        r.record_matrix_inc(0, 1, 4);
        r.finish(250);
        let m = r.metrics_json();
        let flight = m.get("flight").unwrap();
        assert_eq!(flight.get("window_cycles").unwrap().as_u64(), Some(100));
        assert_eq!(flight.get("windows_closed").unwrap().as_u64(), Some(3));
        assert_eq!(flight.get("phase").unwrap().as_u64(), Some(0));
        let phases = flight.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].get("volume").unwrap().as_u64(), Some(8));
        // Disabled recorders export an explicit null, keeping the key set
        // schema-stable.
        let plain = Recorder::new(ObsConfig::new(2));
        assert_eq!(plain.metrics_json().get("flight").unwrap(), &Json::Null);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::new(ObsConfig::new(2));
        let clone = r.clone();
        clone.inc(CounterId::MapperRounds);
        assert_eq!(r.counter(CounterId::MapperRounds), 1);
    }

    #[test]
    fn recorder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Recorder>();
    }
}
