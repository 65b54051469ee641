//! Load generators: an open loop for one-shot `map` requests (target
//! arrival rate, latency from *scheduled* send time) and a streaming
//! campaign for sessions.
//!
//! The open loop ([`run_curve`]) fixes an arrival schedule at a target
//! RPS — request *j* of a point is due at `start + j/rps`, striped
//! round-robin across the connections — and measures each latency from
//! its **scheduled** send time, so a stalled server keeps accumulating
//! due requests and the stall shows up in the percentiles. A closed loop
//! (send, wait, send) would instead slow its own arrivals whenever the
//! server slows, and the queueing delay would hide (coordinated
//! omission). Sweeping several RPS points yields a p99-vs-offered-load
//! curve, the shape capacity planning actually needs.
//!
//! Latencies are merged across connections and summarized with the
//! nearest-rank percentiles from `tlbmap-bench`, putting service latency
//! in the same statistical vocabulary as the simulator's benchmarks.
//!
//! Every sweep is bracketed by one `admin stats` scrape before the first
//! point and one after the last, each on its own connection, so the
//! report can check the server's own counters against the client's
//! totals ([`CurveReport::map_requests_delta`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tlbmap_bench::{percentile, sparkline, Table};
use tlbmap_core::CommMatrix;
use tlbmap_obs::Json;
use tlbmap_sim::Topology;

use crate::client::{Client, ServeError};
use crate::protocol::{AdminKind, DeltaDecision};

/// Pull a `u64` field out of an admin-stats document.
fn stat_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

fn error_label(e: &ServeError) -> String {
    match e {
        ServeError::Remote { code, .. } => code.as_str().to_string(),
        ServeError::Transport(_) => "transport".to_string(),
    }
}

/// One `admin stats` scrape on a fresh connection; `None` if it failed.
fn scrape_stats(addr: &str) -> Option<Json> {
    Client::connect(addr)
        .and_then(|mut c| c.admin(AdminKind::Stats))
        .ok()
}

/// What the open-loop load generator sends (`tlbmap loadgen`).
#[derive(Debug, Clone)]
pub struct CurveConfig {
    /// Connections the arrival schedule is striped across.
    pub connections: usize,
    /// Offered-load points to sweep, in requests per second.
    pub rps_points: Vec<u64>,
    /// How long each point runs, in milliseconds.
    pub duration_ms: u64,
    /// Per-request deadline in milliseconds (0 = server default).
    pub deadline_ms: u64,
    /// Artificial worker delay per request in milliseconds.
    pub delay_ms: u64,
    /// The matrix every request carries.
    pub matrix: CommMatrix,
    /// The topology every request targets.
    pub topo: Topology,
}

impl CurveConfig {
    /// A small default sweep: 500 / 2000 / 8000 offered RPS for 1 s each
    /// over 4 connections, every request an 8-thread ring matrix on the
    /// paper's 2×2×2 machine.
    pub fn new() -> Self {
        let mut matrix = CommMatrix::new(8);
        for t in 0..8 {
            matrix.add(t, (t + 1) % 8, 100);
        }
        CurveConfig {
            connections: 4,
            rps_points: vec![500, 2000, 8000],
            duration_ms: 1000,
            deadline_ms: 0,
            delay_ms: 0,
            matrix,
            topo: Topology::harpertown(),
        }
    }
}

impl Default for CurveConfig {
    fn default() -> Self {
        CurveConfig::new()
    }
}

/// One offered-load point of an open-loop sweep.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// The target arrival rate of this point (requests per second).
    pub offered_rps: u64,
    /// Requests the schedule called for: `offered_rps × duration / 1 s`.
    /// A request a broken connection never got to send counts here and
    /// as a `transport` error.
    pub sent: usize,
    /// Requests answered with a mapping.
    pub ok: usize,
    /// Of the `ok` answers, how many the server served from cache.
    pub cached: usize,
    /// Failures by error label.
    pub errors: BTreeMap<String, usize>,
    /// Median latency in microseconds, measured from *scheduled* send.
    pub p50_us: f64,
    /// 90th percentile, scheduled-send basis.
    pub p90_us: f64,
    /// 99th percentile, scheduled-send basis.
    pub p99_us: f64,
    /// Completions per second actually achieved over the point's wall
    /// clock. Tracks `offered_rps` until the server saturates.
    pub achieved_rps: f64,
    /// Worst observed send lag behind schedule in microseconds — how far
    /// the *generator* fell behind, as opposed to the server. Large
    /// values mean the curve under-offered and the point should be read
    /// with suspicion.
    pub max_lag_us: f64,
    /// Wall-clock duration of the point in milliseconds.
    pub wall_ms: f64,
}

impl CurvePoint {
    /// JSON shape used inside the curve report's `points` array.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("offered_rps", Json::U64(self.offered_rps)),
            ("sent", Json::U64(self.sent as u64)),
            ("ok", Json::U64(self.ok as u64)),
            ("cached", Json::U64(self.cached as u64)),
            (
                "errors",
                Json::Obj(
                    self.errors
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v as u64)))
                        .collect(),
                ),
            ),
            ("p50_us", Json::F64(self.p50_us)),
            ("p90_us", Json::F64(self.p90_us)),
            ("p99_us", Json::F64(self.p99_us)),
            ("achieved_rps", Json::F64(self.achieved_rps)),
            ("max_lag_us", Json::F64(self.max_lag_us)),
            ("wall_ms", Json::F64(self.wall_ms)),
        ])
    }
}

/// Aggregated result of an open-loop sweep: one [`CurvePoint`] per
/// offered-load level, in the order they were run.
#[derive(Debug, Clone)]
pub struct CurveReport {
    /// Connections the schedule was striped across.
    pub connections: usize,
    /// Milliseconds each point ran.
    pub duration_ms: u64,
    /// The measured points.
    pub points: Vec<CurvePoint>,
    /// `admin stats` scraped just before the first point (`None` if the
    /// scrape failed).
    pub server_before: Option<Json>,
    /// `admin stats` scraped just after the last point.
    pub server_after: Option<Json>,
}

impl CurveReport {
    /// Total failed requests across all points.
    pub fn total_errors(&self) -> usize {
        self.points
            .iter()
            .map(|p| p.errors.values().sum::<usize>())
            .sum()
    }

    /// Requests the schedule called for, summed over the points.
    pub fn sent(&self) -> usize {
        self.points.iter().map(|p| p.sent).sum()
    }

    /// How many `map` requests the *server* says it saw between the
    /// before/after scrapes. With no other traffic on the server this
    /// equals [`CurveReport::sent`] — the consistency check the service CI
    /// gate enforces. `None` when either scrape failed.
    pub fn map_requests_delta(&self) -> Option<u64> {
        let before = stat_u64(self.server_before.as_ref()?, "map_requests")?;
        let after = stat_u64(self.server_after.as_ref()?, "map_requests")?;
        Some(after.saturating_sub(before))
    }

    /// Whether achieved throughput is monotone (non-decreasing, within
    /// `tolerance` as a fraction) in offered load across the sweep — the
    /// sanity property the CI service gate asserts: more offered load
    /// must never *reduce* completions until the generator itself lags.
    pub fn monotone_achieved(&self, tolerance: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].achieved_rps >= w[0].achieved_rps * (1.0 - tolerance))
    }

    /// The report as a benchmark-artifact JSON document (kind
    /// `"loadgen_curve"`), shaped like the other `results/BENCH_*.json`
    /// files. `monotone_achieved` is precomputed (10% tolerance) so
    /// text-level CI gates can grep for it; the `server` scrapes come after
    /// `points`, so the first `p99_us` in the text is point 0's.
    pub fn to_json(&self) -> Json {
        let opt = |doc: &Option<Json>| doc.clone().unwrap_or(Json::Null);
        Json::obj(vec![
            ("kind", Json::Str("loadgen_curve".into())),
            ("connections", Json::U64(self.connections as u64)),
            ("duration_ms_per_point", Json::U64(self.duration_ms)),
            (
                "monotone_achieved",
                Json::Bool(self.monotone_achieved(0.10)),
            ),
            ("sent", Json::U64(self.sent() as u64)),
            (
                "points",
                Json::Arr(self.points.iter().map(CurvePoint::to_json).collect()),
            ),
            (
                "server",
                Json::obj(vec![
                    ("before", opt(&self.server_before)),
                    ("after", opt(&self.server_after)),
                    (
                        "map_requests_delta",
                        self.map_requests_delta().map_or(Json::Null, Json::U64),
                    ),
                ]),
            ),
        ])
    }

    /// Render the sweep as a plain-text table, one row per point.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "offered rps",
            "achieved rps",
            "ok",
            "errors",
            "p50 (us)",
            "p99 (us)",
            "max lag (us)",
        ]);
        for p in &self.points {
            table.row(vec![
                p.offered_rps.to_string(),
                format!("{:.0}", p.achieved_rps),
                p.ok.to_string(),
                p.errors.values().sum::<usize>().to_string(),
                format!("{:.1}", p.p50_us),
                format!("{:.1}", p.p99_us),
                format!("{:.0}", p.max_lag_us),
            ]);
        }
        let mut out = table.render();
        if self.points.len() > 1 {
            let p99: Vec<f64> = self.points.iter().map(|p| p.p99_us).collect();
            out.push_str(&format!("  p99 vs load  {}\n", sparkline(&p99)));
        }
        if let Some(delta) = self.map_requests_delta() {
            out.push_str(&format!(
                "  server map_requests delta = {delta} (client sent {})\n",
                self.sent()
            ));
        }
        out
    }
}

/// One connection's share of an open-loop point, sent on `client`
/// (connected before `start`): requests `first`, `first + stride`, … below
/// `total`, each due at `start + j/rps` on the *global* schedule. Sleeps until each due time, then measures from the
/// due time — a late send (server stall backing up this connection)
/// charges its wait to the latency, which is the whole point of an open
/// loop. A transport error ends the connection; its remaining share of the
/// schedule counts as `transport` errors, so the point's `sent` always
/// equals the schedule.
#[allow(clippy::too_many_arguments)]
fn run_open_loop_connection(
    mut client: Client,
    cfg: &CurveConfig,
    rps: u64,
    first: usize,
    stride: usize,
    total: usize,
    start: Instant,
) -> PointOutcome {
    let mut outcome = PointOutcome::default();
    let deadline = if cfg.deadline_ms > 0 {
        Some(cfg.deadline_ms)
    } else {
        None
    };
    let mut j = first;
    while j < total {
        let due = start + Duration::from_nanos((j as u64).saturating_mul(1_000_000_000) / rps);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let lag_us = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6;
        outcome.max_lag_us = outcome.max_lag_us.max(lag_us);
        let result = client.map(&cfg.matrix, &cfg.topo, deadline, cfg.delay_ms);
        let latency_us = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6;
        outcome.sent += 1;
        match result {
            Ok(reply) => {
                outcome.latencies.push(latency_us);
                outcome.ok += 1;
                if reply.cached {
                    outcome.cached += 1;
                }
            }
            Err(e) => {
                if matches!(e, ServeError::Transport(_)) {
                    let unsent = (j + stride..total).step_by(stride).count();
                    outcome.sent += unsent;
                    *outcome.errors.entry(error_label(&e)).or_insert(0) += 1 + unsent;
                    break;
                }
                *outcome.errors.entry(error_label(&e)).or_insert(0) += 1;
            }
        }
        j += stride;
    }
    outcome
}

#[derive(Default)]
struct PointOutcome {
    latencies: Vec<f64>,
    sent: usize,
    ok: usize,
    cached: usize,
    errors: BTreeMap<String, usize>,
    max_lag_us: f64,
}

/// Run one offered-load point of the sweep.
fn run_curve_point(addr: &str, cfg: &CurveConfig, rps: u64) -> Result<CurvePoint, String> {
    let total = ((rps.saturating_mul(cfg.duration_ms)) / 1000).max(1) as usize;
    // Every connection is up before the schedule's origin, so no request
    // is due while its connection is still being made.
    let clients = (0..cfg.connections.min(total))
        .map(|_| Client::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(first, client)| {
                scope.spawn(move || {
                    run_open_loop_connection(client, cfg, rps, first, cfg.connections, total, start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "open-loop connection thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = start.elapsed();
    let mut latencies = Vec::new();
    let mut point = CurvePoint {
        offered_rps: rps,
        sent: 0,
        ok: 0,
        cached: 0,
        errors: BTreeMap::new(),
        p50_us: 0.0,
        p90_us: 0.0,
        p99_us: 0.0,
        achieved_rps: 0.0,
        max_lag_us: 0.0,
        wall_ms: wall.as_secs_f64() * 1e3,
    };
    for o in outcomes {
        latencies.extend(o.latencies);
        point.sent += o.sent;
        point.ok += o.ok;
        point.cached += o.cached;
        point.max_lag_us = point.max_lag_us.max(o.max_lag_us);
        for (label, count) in o.errors {
            *point.errors.entry(label).or_insert(0) += count;
        }
    }
    point.p50_us = percentile(&latencies, 50.0).unwrap_or(0.0);
    point.p90_us = percentile(&latencies, 90.0).unwrap_or(0.0);
    point.p99_us = percentile(&latencies, 99.0).unwrap_or(0.0);
    if wall.as_secs_f64() > 0.0 {
        point.achieved_rps = point.ok as f64 / wall.as_secs_f64();
    }
    Ok(point)
}

/// Run the open-loop sweep against a live server at `addr`: one
/// [`CurvePoint`] per entry of [`CurveConfig::rps_points`], in order.
/// Points run back to back on fresh connections, so later points start
/// with the server's cache warm from the earlier ones — deliberate: the
/// curve isolates *load* effects, not cold-start effects. The sweep is
/// bracketed by `admin stats` scrapes; a failed scrape leaves its field
/// `None` and never fails the run.
pub fn run_curve(addr: &str, cfg: &CurveConfig) -> Result<CurveReport, String> {
    if cfg.connections == 0 || cfg.rps_points.is_empty() || cfg.duration_ms == 0 {
        return Err(
            "open-loop loadgen needs at least 1 connection, 1 rps point, and a positive duration"
                .to_string(),
        );
    }
    if cfg.rps_points.contains(&0) {
        return Err("open-loop rps points must be positive".to_string());
    }
    let server_before = scrape_stats(addr);
    let mut points = Vec::with_capacity(cfg.rps_points.len());
    for &rps in &cfg.rps_points {
        points.push(run_curve_point(addr, cfg, rps)?);
    }
    Ok(CurveReport {
        connections: cfg.connections,
        duration_ms: cfg.duration_ms,
        points,
        server_before,
        server_after: scrape_stats(addr),
    })
}

/// What the streaming load generator sends (`loadgen --stream`).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Concurrent sessions (threads, one session each).
    pub sessions: usize,
    /// Deltas per session.
    pub deltas: usize,
    /// Flip the communication phase every this many deltas (0 = a
    /// stationary stream that never changes phase).
    pub phase_every: usize,
    /// The topology every session maps onto.
    pub topo: Topology,
}

impl StreamConfig {
    /// A small default campaign: 2 sessions × 24 deltas, phase flip every
    /// 8, on the paper's 2×2×2 machine.
    pub fn new() -> Self {
        StreamConfig {
            sessions: 2,
            deltas: 24,
            phase_every: 8,
            topo: Topology::harpertown(),
        }
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig::new()
    }
}

/// Aggregated result of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Sessions opened successfully.
    pub sessions: usize,
    /// Deltas answered (any decision).
    pub deltas_sent: usize,
    /// Deltas the server answered with a fresh mapping.
    pub remaps_triggered: usize,
    /// Deltas answered `stable` or `cooldown` (no remap).
    pub remaps_suppressed: usize,
    /// Failures by error label.
    pub errors: BTreeMap<String, usize>,
    /// Median round-trip latency of remapping deltas in microseconds.
    pub remap_p50_us: f64,
    /// 99th-percentile latency of remapping deltas in microseconds.
    pub remap_p99_us: f64,
    /// Median round-trip latency of non-remapping deltas in microseconds.
    pub suppressed_p50_us: f64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
}

impl StreamReport {
    /// Total failed operations.
    pub fn total_errors(&self) -> usize {
        self.errors.values().sum()
    }

    /// The report as a benchmark-artifact JSON document (kind
    /// `"loadgen_stream"`), shaped like the other `results/BENCH_*.json`
    /// sections.
    pub fn to_json(&self, cfg: &StreamConfig) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("loadgen_stream".into())),
            ("sessions", Json::U64(cfg.sessions as u64)),
            ("deltas_per_session", Json::U64(cfg.deltas as u64)),
            ("phase_every", Json::U64(cfg.phase_every as u64)),
            ("deltas_sent", Json::U64(self.deltas_sent as u64)),
            ("remaps_triggered", Json::U64(self.remaps_triggered as u64)),
            (
                "remaps_suppressed",
                Json::U64(self.remaps_suppressed as u64),
            ),
            (
                "errors",
                Json::Obj(
                    self.errors
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v as u64)))
                        .collect(),
                ),
            ),
            ("remap_p50_us", Json::F64(self.remap_p50_us)),
            ("remap_p99_us", Json::F64(self.remap_p99_us)),
            ("suppressed_p50_us", Json::F64(self.suppressed_p50_us)),
            ("wall_ms", Json::F64(self.wall_ms)),
        ])
    }

    /// Render the report as a plain-text table.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec!["metric", "value"]);
        table.row(vec!["sessions".to_string(), self.sessions.to_string()]);
        table.row(vec!["deltas".to_string(), self.deltas_sent.to_string()]);
        table.row(vec![
            "remaps triggered".to_string(),
            self.remaps_triggered.to_string(),
        ]);
        table.row(vec![
            "remaps suppressed".to_string(),
            self.remaps_suppressed.to_string(),
        ]);
        table.row(vec!["errors".to_string(), self.total_errors().to_string()]);
        table.row(vec![
            "remap p50 (us)".to_string(),
            format!("{:.1}", self.remap_p50_us),
        ]);
        table.row(vec![
            "remap p99 (us)".to_string(),
            format!("{:.1}", self.remap_p99_us),
        ]);
        table.row(vec![
            "suppressed p50 (us)".to_string(),
            format!("{:.1}", self.suppressed_p50_us),
        ]);
        table.row(vec![
            "wall time (ms)".to_string(),
            format!("{:.1}", self.wall_ms),
        ]);
        let mut out = table.render();
        for (label, count) in &self.errors {
            out.push_str(&format!("  error[{label}] = {count}\n"));
        }
        out
    }
}

/// The delta a streaming connection sends at step `step`: neighbour pairs
/// in the even phases, across-the-machine pairs in the odd ones (the same
/// two patterns the simulator's phase benchmarks use). `phase_every = 0`
/// pins phase 0 forever.
pub fn stream_delta(topo: &Topology, step: usize, phase_every: usize) -> CommMatrix {
    let n = topo.num_cores();
    let phase = step.checked_div(phase_every).map_or(0, |p| p % 2);
    let mut delta = CommMatrix::new(n);
    if phase == 0 {
        for i in (0..n.saturating_sub(1)).step_by(2) {
            delta.add(i, i + 1, 1_000);
        }
    } else {
        for i in 0..n / 2 {
            delta.add(i, i + n / 2, 1_000);
        }
    }
    delta
}

struct StreamOutcome {
    opened: bool,
    deltas: usize,
    remap_latencies: Vec<f64>,
    suppressed_latencies: Vec<f64>,
    remaps: usize,
    suppressed: usize,
    errors: BTreeMap<String, usize>,
}

fn run_stream_connection(addr: &str, cfg: &StreamConfig) -> Result<StreamOutcome, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut outcome = StreamOutcome {
        opened: false,
        deltas: 0,
        remap_latencies: Vec::new(),
        suppressed_latencies: Vec::new(),
        remaps: 0,
        suppressed: 0,
        errors: BTreeMap::new(),
    };
    let session = match client.open_session(&cfg.topo, None, None, None) {
        Ok((session, _)) => session,
        Err(e) => {
            *outcome.errors.entry(error_label(&e)).or_insert(0) += 1;
            return Ok(outcome);
        }
    };
    outcome.opened = true;
    for step in 0..cfg.deltas {
        let delta = stream_delta(&cfg.topo, step, cfg.phase_every);
        let start = Instant::now();
        match client.delta(session, &delta) {
            Ok(reply) => {
                let latency_us = start.elapsed().as_secs_f64() * 1e6;
                outcome.deltas += 1;
                if reply.decision == DeltaDecision::Remap {
                    outcome.remaps += 1;
                    outcome.remap_latencies.push(latency_us);
                } else {
                    outcome.suppressed += 1;
                    outcome.suppressed_latencies.push(latency_us);
                }
            }
            Err(e) => {
                *outcome.errors.entry(error_label(&e)).or_insert(0) += 1;
                if matches!(e, ServeError::Transport(_)) {
                    return Ok(outcome);
                }
            }
        }
    }
    if let Err(e) = client.close_session(session) {
        *outcome.errors.entry(error_label(&e)).or_insert(0) += 1;
    }
    Ok(outcome)
}

/// Run the streaming campaign against a live server at `addr`: each
/// connection opens one session, streams `deltas` deltas through the
/// phased (or stationary) workload, and closes.
pub fn run_stream_loadgen(addr: &str, cfg: &StreamConfig) -> Result<StreamReport, String> {
    if cfg.sessions == 0 || cfg.deltas == 0 {
        return Err("stream loadgen needs at least 1 session and 1 delta".to_string());
    }
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|_| scope.spawn(|| run_stream_connection(addr, cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "stream connection thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = start.elapsed();

    let mut report = StreamReport {
        sessions: 0,
        deltas_sent: 0,
        remaps_triggered: 0,
        remaps_suppressed: 0,
        errors: BTreeMap::new(),
        remap_p50_us: 0.0,
        remap_p99_us: 0.0,
        suppressed_p50_us: 0.0,
        wall_ms: wall.as_secs_f64() * 1e3,
    };
    let mut remap_latencies = Vec::new();
    let mut suppressed_latencies = Vec::new();
    for outcome in outcomes {
        report.sessions += usize::from(outcome.opened);
        report.deltas_sent += outcome.deltas;
        report.remaps_triggered += outcome.remaps;
        report.remaps_suppressed += outcome.suppressed;
        remap_latencies.extend(outcome.remap_latencies);
        suppressed_latencies.extend(outcome.suppressed_latencies);
        for (label, count) in outcome.errors {
            *report.errors.entry(label).or_insert(0) += count;
        }
    }
    report.remap_p50_us = percentile(&remap_latencies, 50.0).unwrap_or(0.0);
    report.remap_p99_us = percentile(&remap_latencies, 99.0).unwrap_or(0.0);
    report.suppressed_p50_us = percentile(&suppressed_latencies, 50.0).unwrap_or(0.0);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sized_campaigns_are_rejected() {
        let mut cfg = StreamConfig::new();
        cfg.sessions = 0;
        assert!(run_stream_loadgen("127.0.0.1:1", &cfg).is_err());
    }

    fn sample_point(rps: u64, achieved: f64, p99: f64) -> CurvePoint {
        CurvePoint {
            offered_rps: rps,
            sent: 100,
            ok: 100,
            cached: 99,
            errors: BTreeMap::new(),
            p50_us: 100.0,
            p90_us: 200.0,
            p99_us: p99,
            achieved_rps: achieved,
            max_lag_us: 40.0,
            wall_ms: 1000.0,
        }
    }

    /// A sweep over `points` whose scrapes failed.
    fn curve(points: Vec<CurvePoint>) -> CurveReport {
        CurveReport {
            connections: 4,
            duration_ms: 1000,
            points,
            server_before: None,
            server_after: None,
        }
    }

    #[test]
    fn curve_report_json_has_the_benchmark_shape() {
        let mut report = curve(vec![
            sample_point(500, 499.0, 300.0),
            sample_point(2000, 1998.0, 450.0),
            sample_point(8000, 7100.0, 2200.0),
        ]);
        report.server_before = Some(Json::obj(vec![("map_requests", Json::U64(10))]));
        report.server_after = Some(Json::obj(vec![("map_requests", Json::U64(310))]));
        let json = report.to_json();
        assert_eq!(
            json.get("kind").and_then(Json::as_str),
            Some("loadgen_curve")
        );
        assert_eq!(json.get("monotone_achieved"), Some(&Json::Bool(true)));
        let points = json.get("points").and_then(Json::as_array).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(
            points[0].get("offered_rps").and_then(Json::as_u64),
            Some(500)
        );
        assert_eq!(points[2].get("p99_us"), Some(&Json::F64(2200.0)));
        let text = report.render();
        assert!(text.contains("offered rps"), "{text}");
        assert!(text.contains("p99 vs load"), "{text}");
        assert_eq!(report.total_errors(), 0);
        // The server scrapes agree with the client's 3 × 100 requests, and
        // the rendered report shows the consistency line.
        assert_eq!(json.get("sent").and_then(Json::as_u64), Some(300));
        let server = json.get("server").unwrap();
        assert_eq!(
            server.get("map_requests_delta").and_then(Json::as_u64),
            Some(300)
        );
        assert!(text.contains("map_requests delta = 300"), "{text}");
        // `server` follows `points`, so a text grep for the first p99
        // reads point 0.
        let rendered = json.render();
        let first_p99 = rendered.find("\"p99_us\":").unwrap();
        assert!(
            rendered[first_p99..].starts_with("\"p99_us\":300"),
            "{rendered}"
        );
        assert!(first_p99 < rendered.find("\"server\":").unwrap());
    }

    #[test]
    fn failed_scrapes_leave_server_fields_null() {
        let report = curve(vec![sample_point(500, 499.0, 300.0)]);
        assert_eq!(report.map_requests_delta(), None);
        let json = report.to_json();
        assert_eq!(json.get("sent").and_then(Json::as_u64), Some(100));
        let server = json.get("server").unwrap();
        assert_eq!(server.get("before"), Some(&Json::Null));
        assert_eq!(server.get("after"), Some(&Json::Null));
        assert_eq!(server.get("map_requests_delta"), Some(&Json::Null));
        assert!(!report.render().contains("map_requests delta"));
    }

    #[test]
    fn curve_monotonicity_allows_tolerance_but_not_collapse() {
        let rising = curve(vec![
            sample_point(500, 500.0, 300.0),
            sample_point(2000, 1900.0, 400.0),
        ]);
        assert!(rising.monotone_achieved(0.10));
        // A small sag within tolerance still counts as monotone…
        let sag = curve(vec![
            sample_point(500, 500.0, 300.0),
            sample_point(2000, 460.0, 400.0),
        ]);
        assert!(sag.monotone_achieved(0.10));
        // …but a collapse does not.
        let collapse = curve(vec![
            sample_point(500, 500.0, 300.0),
            sample_point(2000, 300.0, 400.0),
        ]);
        assert!(!collapse.monotone_achieved(0.10));
    }

    #[test]
    fn zero_sized_curves_are_rejected() {
        let mut cfg = CurveConfig::new();
        cfg.rps_points.clear();
        assert!(run_curve("127.0.0.1:1", &cfg).is_err());
        let mut cfg = CurveConfig::new();
        cfg.rps_points = vec![500, 0];
        assert!(run_curve("127.0.0.1:1", &cfg).is_err());
        let mut cfg = CurveConfig::new();
        cfg.duration_ms = 0;
        assert!(run_curve("127.0.0.1:1", &cfg).is_err());
    }

    #[test]
    fn stream_deltas_alternate_phases_on_schedule() {
        let topo = Topology::harpertown();
        // phase_every = 4: steps 0-3 are neighbour pairs, 4-7 across.
        let early = stream_delta(&topo, 0, 4);
        assert_eq!(early.get(0, 1), 1_000);
        assert_eq!(early.get(0, 4), 0);
        let late = stream_delta(&topo, 5, 4);
        assert_eq!(late.get(0, 1), 0);
        assert_eq!(late.get(0, 4), 1_000);
        // Stationary: phase 0 forever.
        let stationary = stream_delta(&topo, 999, 0);
        assert_eq!(stationary.get(0, 1), 1_000);
    }

    #[test]
    fn stream_report_json_has_the_benchmark_shape() {
        let cfg = StreamConfig::new();
        let report = StreamReport {
            sessions: 2,
            deltas_sent: 48,
            remaps_triggered: 6,
            remaps_suppressed: 42,
            errors: BTreeMap::new(),
            remap_p50_us: 400.0,
            remap_p99_us: 900.0,
            suppressed_p50_us: 80.0,
            wall_ms: 12.0,
        };
        let json = report.to_json(&cfg);
        assert_eq!(
            json.get("kind").and_then(Json::as_str),
            Some("loadgen_stream")
        );
        assert_eq!(json.get("remaps_triggered").and_then(Json::as_u64), Some(6));
        assert_eq!(
            json.get("remaps_suppressed").and_then(Json::as_u64),
            Some(42)
        );
        let text = report.render();
        assert!(text.contains("remaps triggered"), "{text}");
    }
}
