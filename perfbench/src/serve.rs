//! The `serve-mix` workload: a closed loop from one client connection
//! against an in-process `tlbmap-serve` server with one worker.
//!
//! The connection replays a request schedule drawn from the seed:
//! - 60 % `map` requests for distinct 64-thread matrices. The connection
//!   cycles through a pool of 200, far more than the 128-entry cache
//!   holds, so these always miss and run the mapper;
//! - 30 % `map` requests for one of 8 hot matrices, which stay cached;
//! - 10 % `delta` frames into the connection's streaming session, whose
//!   32-thread pattern flips every 8 deltas (remap and suppress paths).
//!
//! The shares are a modelling choice, not a measured trace: nothing in the
//! repository records a request mix. Misses are the majority so that the
//! mapper, the work the service exists for, carries most of the loop's
//! time; hits and deltas keep the protocol-only path and the session write
//! path in every stretch of the loop. Each class's throughput and median
//! latency are reported on their own (`CLASSES`), so a change can be
//! judged per class and not only on the blend.
//!
//! The connection sends its next request only after the previous reply.
//! One connection and one worker keep the loop to one busy thread at a
//! time, fewer than the host's CPUs, so it measures the service and not
//! the host's scheduler.

use crate::host::{Probe, PROBE_EVERY};
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::time::{Duration, Instant};
use tlbmap_core::CommMatrix;
use tlbmap_mapping::HierarchicalMapper;
use tlbmap_obs::{Json, ObsConfig, Recorder};
use tlbmap_serve::protocol::{read_frame, write_frame};
use tlbmap_serve::{
    AdminKind, Client, DeltaOutcome, Request, ServeConfig, ServeError, Server, ServerHandle,
    SessionRegistry,
};
use tlbmap_sim::Topology;

const MAP_THREADS: usize = 64;
const SESSION_THREADS: usize = 32;
const HOT: usize = 8;
const POOL: usize = 200;
const SCHEDULE_LEN: usize = 1000;
const SESSION_DELTAS: usize = 64;
const FLIP_EVERY: usize = 8;
const MISS_SHARE: f64 = 0.6;
const HIT_SHARE: f64 = 0.3;
/// Server workers: one, like the one connection.
const WORKERS: usize = 1;
/// Requests sent in the untimed warm pass: enough to fill the cache with
/// the hot matrices, and to make a set-up long enough (about 0.4 s) for
/// the probe to sample it a dozen times.
const WARM_REQUESTS: usize = 250;
/// Requests replayed in-process to time encode and parse.
const CODEC_SAMPLE: usize = 400;
/// Miss matrices mapped directly to time the mapper.
const MAP_SAMPLE: usize = 40;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `map` of `matrices[i]`.
    Map(usize),
    /// `delta` of `deltas[i]`.
    Delta(usize),
}

/// The request classes of the mix, indexed by `Op::class`.
pub const CLASSES: [&str; 3] = ["miss", "hit", "delta"];

impl Op {
    /// Index into `CLASSES`.
    pub fn class(self) -> usize {
        match self {
            Op::Map(i) if i >= HOT => 0,
            Op::Map(_) => 1,
            Op::Delta(_) => 2,
        }
    }
}

/// One timed round trip.
#[derive(Debug, Clone, Copy)]
pub struct Trip {
    pub ms: f64,
    /// Index into `CLASSES`.
    pub class: usize,
}

/// Everything the client sends, generated from the seed.
pub struct ServeInputs {
    pub map_topo: Topology,
    pub session_topo: Topology,
    /// `[0, HOT)` are hot, `[HOT, HOT + POOL)` the misses.
    pub matrices: Vec<CommMatrix>,
    pub deltas: Vec<CommMatrix>,
    pub schedule: Vec<Op>,
}

/// A `map` matrix: strong pairs over a random permutation plus light
/// random cells, so the mapper has structure to find.
fn pair_matrix(n: usize, rng: &mut SmallRng) -> CommMatrix {
    let mut m = CommMatrix::new(n);
    let mut threads: Vec<usize> = (0..n).collect();
    threads.shuffle(rng);
    for pair in threads.chunks(2) {
        m.add(pair[0], pair[1], rng.gen_range(1_000..5_000));
    }
    for _ in 0..n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            m.add(a, b, rng.gen_range(1..100));
        }
    }
    m
}

/// A session delta: neighbour pairs `(2i, 2i+1)` in phase 0, halves
/// `(i, i + n/2)` in phase 1, with seeded weights.
fn phase_delta(n: usize, phase: usize, rng: &mut SmallRng) -> CommMatrix {
    let mut m = CommMatrix::new(n);
    for i in 0..n / 2 {
        let (a, b) = if phase == 0 {
            (2 * i, 2 * i + 1)
        } else {
            (i, i + n / 2)
        };
        m.add(a, b, rng.gen_range(50..150));
    }
    m
}

impl ServeInputs {
    /// The hot matrices and the connection's pool, deltas and schedule
    /// come from two streams of the seed.
    pub fn generate(seed: u64) -> ServeInputs {
        let stream =
            |i: u64| SmallRng::seed_from_u64(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut hot = stream(0);
        let mut matrices: Vec<CommMatrix> = (0..HOT)
            .map(|_| pair_matrix(MAP_THREADS, &mut hot))
            .collect();
        let mut rng = stream(1);
        matrices.extend((0..POOL).map(|_| pair_matrix(MAP_THREADS, &mut rng)));
        let deltas = (0..SESSION_DELTAS)
            .map(|j| phase_delta(SESSION_THREADS, (j / FLIP_EVERY) % 2, &mut rng))
            .collect();
        let (mut misses, mut sent_deltas) = (0, 0);
        let schedule = (0..SCHEDULE_LEN)
            .map(|_| {
                let u: f64 = rng.gen();
                if u < MISS_SHARE {
                    misses += 1;
                    Op::Map(HOT + (misses - 1) % POOL)
                } else if u < MISS_SHARE + HIT_SHARE {
                    Op::Map(rng.gen_range(0..HOT))
                } else {
                    sent_deltas += 1;
                    Op::Delta((sent_deltas - 1) % SESSION_DELTAS)
                }
            })
            .collect();
        ServeInputs {
            map_topo: Topology::scaled(MAP_THREADS).expect("64 is a power of two"),
            session_topo: Topology::scaled(SESSION_THREADS).expect("32 is a power of two"),
            matrices,
            deltas,
            schedule,
        }
    }

    fn op(&self, pos: usize) -> Op {
        self.schedule[pos % SCHEDULE_LEN]
    }

    /// The request sent at schedule position `pos`.
    pub fn request(&self, pos: usize, session: u64) -> Request {
        match self.op(pos) {
            Op::Map(i) => Request::Map {
                matrix: self.matrices[i].clone(),
                topo: self.map_topo,
                deadline_ms: None,
                delay_ms: 0,
            },
            Op::Delta(i) => Request::Delta {
                session,
                delta: self.deltas[i].clone(),
            },
        }
    }

    /// Length and `fnv` digest of the first `count` request frames, as
    /// bytes on the wire (session IDs start at 1 per server). One frame is
    /// held at a time: the run's peak RSS is read after this, and a buffer
    /// of all 400 frames (3 MiB) landed in fresh pages in some runs and in
    /// free heap in others.
    pub fn frames_digest(&self, count: usize) -> (usize, u64) {
        let (mut len, mut digest) = (0, crate::expect::fnv(&[]));
        let mut frame = Vec::new();
        for pos in 0..count {
            frame.clear();
            write_frame(&mut frame, &self.request(pos, 1).to_json())
                .expect("writing to memory cannot fail");
            len += frame.len();
            digest = crate::expect::fnv_extend(digest, &frame);
        }
        (len, digest)
    }
}

/// What the connection sent and received.
#[derive(Default)]
struct ConnLog {
    /// Next schedule position.
    pos: usize,
    session: u64,
    /// Timed round trips `(request position, start, end)`.
    trips: Vec<(usize, Instant, Instant)>,
    /// Loop time spent on requests, the probe's pauses excluded.
    busy: Duration,
    /// `(matrix index, mapping digest)` of every map reply, warm pass
    /// included. A digest, not the mapping: a small allocation kept per
    /// reply, between the requests' large transient ones, fragmented the
    /// heap by a varying amount.
    maps: Vec<(usize, u64)>,
    /// `(request position, delta index, outcome)` in the order sent, warm
    /// pass included.
    deltas: Vec<(usize, usize, DeltaOutcome)>,
    initial_mapping: Vec<usize>,
    errors: u64,
    transport: Option<String>,
}

/// Send `count` requests, or, when timing, requests until `deadline`,
/// pausing for the probe after every `PROBE_EVERY` of loop time.
fn drive(
    client: &mut Client,
    inputs: &ServeInputs,
    log: &mut ConnLog,
    count: Option<usize>,
    mut timing: Option<(Instant, &mut Probe)>,
) {
    let mut sent = 0;
    let mut since_probe = Instant::now();
    loop {
        if let Some((_, probe)) = timing.as_mut() {
            let work = since_probe.elapsed();
            if work >= PROBE_EVERY {
                log.busy += work;
                probe.after(work);
                since_probe = Instant::now();
            }
        }
        if count.is_some_and(|c| sent >= c)
            || timing.as_ref().is_some_and(|(d, _)| Instant::now() >= *d)
        {
            if timing.is_some() {
                log.busy += since_probe.elapsed();
            }
            return;
        }
        let pos = log.pos;
        log.pos += 1;
        sent += 1;
        let start = Instant::now();
        let reply = match inputs.op(pos) {
            Op::Map(i) => client
                .map(&inputs.matrices[i], &inputs.map_topo, None, 0)
                .map(|r| log.maps.push((i, mapping_digest(&r.mapping)))),
            Op::Delta(i) => client
                .delta(log.session, &inputs.deltas[i])
                .map(|o| log.deltas.push((pos, i, o))),
        };
        let end = Instant::now();
        if timing.is_some() {
            log.trips.push((pos, start, end));
        }
        match reply {
            Ok(()) => {}
            Err(ServeError::Remote { .. }) => log.errors += 1,
            Err(e) => {
                log.errors += 1;
                log.transport = Some(e.to_string());
                return;
            }
        }
    }
}

pub struct ServeSetup {
    handle: ServerHandle,
    client: Client,
    log: ConnLog,
    cfg: ServeConfig,
}

fn server_config(traced: bool) -> ServeConfig {
    let cfg = ServeConfig::new().with_workers(WORKERS);
    // Traced runs log every request to the slow-request ring, which the
    // admin `trace` frame exposes with its queue wait.
    if traced {
        cfg.with_slow_threshold_us(1)
    } else {
        cfg
    }
}

/// Start a server, connect, open the session and run the untimed warm
/// pass.
pub fn setup(inputs: &ServeInputs, traced: bool) -> Result<ServeSetup, String> {
    let cfg = server_config(traced);
    let rec = Recorder::new(ObsConfig::new(0).with_ring_capacity(64));
    let handle = Server::start("127.0.0.1:0", cfg, rec).map_err(|e| e.to_string())?;
    let mut client = Client::connect(&handle.addr().to_string()).map_err(|e| e.to_string())?;
    let (session, initial_mapping) = client
        .open_session(&inputs.session_topo, None, None, None)
        .map_err(|e| e.to_string())?;
    let mut log = ConnLog {
        session,
        initial_mapping,
        ..ConnLog::default()
    };
    drive(&mut client, inputs, &mut log, Some(WARM_REQUESTS), None);
    Ok(ServeSetup {
        handle,
        client,
        log,
        cfg,
    })
}

/// Close the connection, stop the server and wait for its threads.
pub fn teardown(setup: ServeSetup) {
    drop(setup.client);
    setup.handle.shutdown();
    setup.handle.join();
}

/// Results of the timed loop and the checks after it.
pub struct ServeRun {
    /// Requests sent, warm pass included: every reply is checked.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub trips: Vec<Trip>,
    /// Loop time spent on requests, the probe's pauses excluded.
    pub busy_s: f64,
    pub stats: Json,
    /// The admin `trace` document (traced runs).
    pub slow_ring: Json,
}

/// The timed closed loop, then the correctness checks.
pub fn run(
    inputs: &ServeInputs,
    mut setup: ServeSetup,
    seconds: f64,
    probe: &mut Probe,
    tr: &mut Tracer,
) -> ServeRun {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    drive(
        &mut setup.client,
        inputs,
        &mut setup.log,
        None,
        Some((deadline, probe)),
    );

    let traced = tr.enabled();
    let (stats, slow_ring) = match setup.client.admin(AdminKind::Stats) {
        Ok(stats) => {
            let ring = if traced {
                setup.client.admin(AdminKind::Trace).unwrap_or(Json::Null)
            } else {
                Json::Null
            };
            (stats, ring)
        }
        Err(_) => (Json::Null, Json::Null),
    };

    let log = &setup.log;
    let mut failures = Vec::new();
    if let Some(e) = &log.transport {
        failures.push(format!("connection: {e}"));
    }
    let mut trips = Vec::new();
    for &(pos, s, e) in &log.trips {
        trips.push(Trip {
            ms: e.duration_since(s).as_secs_f64() * 1e3,
            class: inputs.op(pos).class(),
        });
        tr.record("serve.round_trip", pos as u64, s, e, 1);
    }
    if log.errors > 0 {
        failures.push(format!("{} error replies", log.errors));
    }
    let attempted = log.pos as u64;
    let failed = log.errors
        + check_maps(inputs, log, &mut failures)
        + check_sessions(inputs, &setup, tr, &mut failures);
    let busy_s = log.busy.as_secs_f64();
    teardown(setup);

    ServeRun {
        attempted,
        failed,
        failures,
        trips,
        busy_s,
        stats,
        slow_ring,
    }
}

/// FNV-1a over a mapping's cores, one core per step; allocates nothing.
fn mapping_digest(cores: &[usize]) -> u64 {
    cores.iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
        (h ^ c as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every served mapping must equal a direct `HierarchicalMapper::map` of
/// the same matrix. Returns the number of mismatching replies.
fn check_maps(inputs: &ServeInputs, log: &ConnLog, failures: &mut Vec<String>) -> u64 {
    let mapper = HierarchicalMapper::new();
    let mut direct: BTreeMap<usize, u64> = BTreeMap::new();
    let mut bad = 0;
    for (i, served) in &log.maps {
        let want = direct.entry(*i).or_insert_with(|| {
            mapping_digest(
                mapper
                    .map(&inputs.matrices[*i], &inputs.map_topo)
                    .as_slice(),
            )
        });
        if want != served {
            bad += 1;
            if bad <= 3 {
                failures.push(format!(
                    "matrix {i}: served mapping differs from a direct map"
                ));
            }
        }
    }
    bad
}

/// Replay the connection's deltas through an in-process
/// `SessionRegistry`: every decision, similarity and mapping must match
/// what the server answered. The replay is also where
/// `serve.session_delta` is timed. Returns the number of mismatches.
fn check_sessions(
    inputs: &ServeInputs,
    setup: &ServeSetup,
    tr: &mut Tracer,
    failures: &mut Vec<String>,
) -> u64 {
    let rec = Recorder::disabled();
    let registry = SessionRegistry::new(&setup.cfg);
    let log = &setup.log;
    let (id, initial) = match registry.open(inputs.session_topo, None, None, None, &rec) {
        Ok(opened) => opened,
        Err((_, e)) => {
            failures.push(format!("in-process session: {e}"));
            return 1;
        }
    };
    let mut bad = 0;
    if initial != log.initial_mapping {
        bad += 1;
        failures.push("initial session mapping differs".to_string());
    }
    for (seq, (pos, i, served)) in log.deltas.iter().enumerate() {
        let delta = &inputs.deltas[*i];
        let got = tr.span("serve.session_delta", *pos as u64, 1, |_| {
            registry.delta(id, delta, &rec)
        });
        if got.as_ref().ok() != Some(served) {
            bad += 1;
            if bad <= 3 {
                failures.push(format!("delta {seq}: served {served:?}, replay {got:?}"));
            }
        }
    }
    bad
}

/// Time the client-side codec and the mapper on samples of the schedule
/// (traced runs). Span names: `serve.encode`, `serve.parse`,
/// `mapping.map`. Every encoded request must parse back to itself; returns
/// the number of checks and the failures.
pub fn measure_codec_and_mapper(inputs: &ServeInputs, tr: &mut Tracer) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    for pos in 0..CODEC_SAMPLE {
        let id = pos as u64;
        let request = inputs.request(pos, 1);
        let bytes = tr.span("serve.encode", id, 1, |_| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &request.to_json()).expect("writing to memory cannot fail");
            bytes
        });
        let parsed = tr.span("serve.parse", id, 1, |_| {
            read_frame(&mut Cursor::new(&bytes), usize::MAX)
                .map_err(|e| e.to_string())
                .and_then(|json| Request::from_json(&json))
        });
        if parsed.as_ref() != Ok(&request) {
            failures.push(format!("request {pos} does not parse back to itself"));
        }
    }
    let mapper = HierarchicalMapper::new();
    for i in 0..MAP_SAMPLE {
        let matrix = &inputs.matrices[HOT + i];
        tr.span("mapping.map", i as u64, 1, |_| {
            std::hint::black_box(mapper.map(matrix, &inputs.map_topo))
        });
    }
    (CODEC_SAMPLE as u64, failures)
}

/// Outputs committed for the default seed: the digest of the first
/// request frames and the direct mapping of every hot matrix.
pub fn facts(inputs: &ServeInputs) -> crate::expect::Facts {
    let mut facts = crate::expect::Facts::new();
    let (len, digest) = inputs.frames_digest(CODEC_SAMPLE);
    facts.insert(
        "conn0.frames".to_string(),
        format!("bytes={len} digest={digest:016x}"),
    );
    let mapper = HierarchicalMapper::new();
    for i in 0..HOT {
        let mapping = mapper.map(&inputs.matrices[i], &inputs.map_topo);
        let cores: Vec<String> = mapping.as_slice().iter().map(usize::to_string).collect();
        facts.insert(format!("hot{i}.mapping"), cores.join(","));
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_frames_and_another_seed_differs() {
        let a = ServeInputs::generate(7);
        let b = ServeInputs::generate(7);
        let c = ServeInputs::generate(8);
        assert_eq!(a.frames_digest(200), b.frames_digest(200));
        assert_ne!(a.frames_digest(200), c.frames_digest(200));
    }

    #[test]
    fn the_mix_has_misses_hits_and_deltas() {
        let inputs = ServeInputs::generate(1);
        let count = |class| {
            inputs
                .schedule
                .iter()
                .filter(|op| op.class() == class)
                .count()
        };
        let (misses, hits, deltas) = (count(0), count(1), count(2));
        assert!(
            misses > hits && hits > deltas && deltas > 0,
            "{misses} {hits} {deltas}"
        );
    }

    #[test]
    fn committed_expectation_holds_and_a_tampered_copy_is_caught() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/serve-mix.json");
        let committed = crate::expect::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let got = facts(&ServeInputs::generate(crate::expect::DEFAULT_SEED));
        assert_eq!(
            crate::expect::mismatches(&committed, &got),
            Vec::<String>::new()
        );
        let mut tampered = committed.clone();
        tampered.insert("hot0.mapping".into(), "0,1".into());
        assert_eq!(crate::expect::mismatches(&tampered, &got).len(), 1);
    }
}
