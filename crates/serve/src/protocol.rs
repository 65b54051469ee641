//! The wire protocol: length-prefixed JSON frames, versioned schemas.
//!
//! ## Frame layout
//!
//! Every message — in both directions — is one *frame*:
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 BE | payload: JSON bytes |
//! +----------------+---------------------+
//! ```
//!
//! The length counts payload bytes only. Payloads are UTF-8 JSON objects
//! carrying a `"v"` protocol-version field; peers reject frames whose
//! version they do not speak, so the protocol can evolve without silent
//! misparses.
//!
//! ## Requests (client → server)
//!
//! | `req`           | fields                                                            |
//! |-----------------|-------------------------------------------------------------------|
//! | `map`           | `matrix` (CommMatrix JSON), `topology` (optional, default 2×2×2), `deadline_ms` (optional), `delay_ms` (optional, testing/loadgen) |
//! | `health`        | —                                                                 |
//! | `stats`         | —                                                                 |
//! | `admin`         | `kind`: `stats` (live telemetry snapshot), `health` (liveness + uptime), `trace` (slow-request log), `flight` (flight-recorder windows + phases), `sessions` (streaming-session registry) |
//! | `open_session`  | `topology` (optional, default 2×2×2, at most [`MAX_SESSION_THREADS`] cores), `decay_shift` / `drift_threshold_ppm` / `cooldown_deltas` (optional per-session overrides) |
//! | `delta`         | `session`, `n` (thread count, at most [`MAX_SESSION_THREADS`]), `cells` (sparse upper-triangle `[i, j, amount]` triples) |
//! | `close_session` | `session`                                                         |
//! | `shutdown`      | —                                                                 |
//!
//! ## Responses (server → client)
//!
//! Success: `{"v":1,"ok":true,"resp":...}` with per-kind fields (`map`
//! carries `mapping` + `cached`; `stats` carries the counters document).
//! Failure: `{"v":1,"ok":false,"code":<ErrorCode>,"message":...}`.
//! The error codes are stable API — clients branch on them.

use std::io::{self, Read, Write};
use tlbmap_core::CommMatrix;
use tlbmap_obs::Json;
use tlbmap_sim::Topology;

/// Protocol version spoken by this crate.
pub const PROTOCOL_VERSION: u64 = 1;

/// Largest thread count a streaming session (and so a `delta`) may carry.
/// A session's window is a dense n² matrix allocated as the frame is
/// handled, so the cap is what bounds per-session memory; 256 is the
/// largest machine the repository simulates (`--cores 256`).
pub const MAX_SESSION_THREADS: usize = 256;

/// Stable error codes carried by error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad length, non-JSON payload,
    /// wrong protocol version).
    BadFrame,
    /// The frame decoded but the request is invalid (unknown kind,
    /// malformed matrix, impossible topology).
    BadRequest,
    /// The work queue is full; retry later.
    Overloaded,
    /// The request's deadline passed before a worker got to it.
    Timeout,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The request was accepted but its response was lost server-side.
    Internal,
}

impl ErrorCode {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse a wire name back into a code.
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_frame" => ErrorCode::BadFrame,
            "bad_request" => ErrorCode::BadRequest,
            "overloaded" => ErrorCode::Overloaded,
            "timeout" => ErrorCode::Timeout,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// What an `admin` frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminKind {
    /// Live telemetry snapshot: uptime, queue depth, worker utilization,
    /// cache rates, per-error-code counts, windowed latency quantiles.
    Stats,
    /// Liveness plus uptime and shutdown state.
    Health,
    /// The slow-request log (most recent entries, oldest first).
    Trace,
    /// The flight recorder: retained windows, phase timeline, per-phase
    /// aggregates (`null` when the recorder is disabled).
    Flight,
    /// The streaming-session registry: per-session control-loop state
    /// plus the aggregate session counters.
    Sessions,
}

impl AdminKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            AdminKind::Stats => "stats",
            AdminKind::Health => "health",
            AdminKind::Trace => "trace",
            AdminKind::Flight => "flight",
            AdminKind::Sessions => "sessions",
        }
    }

    /// Parse a wire name back into a kind.
    pub fn from_wire(s: &str) -> Option<AdminKind> {
        Some(match s {
            "stats" => AdminKind::Stats,
            "health" => AdminKind::Health,
            "trace" => AdminKind::Trace,
            "flight" => AdminKind::Flight,
            "sessions" => AdminKind::Sessions,
            _ => return None,
        })
    }
}

/// What the session control loop decided about one ingested delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDecision {
    /// Drift crossed the threshold: a new mapping was computed and
    /// installed (the response carries it).
    Remap,
    /// The decayed window still matches the installed mapping's
    /// reference; no remap needed.
    Stable,
    /// Drift crossed the threshold but the session is inside its cooldown
    /// (hysteresis): the remap was suppressed to avoid thrashing.
    Cooldown,
}

impl DeltaDecision {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            DeltaDecision::Remap => "remap",
            DeltaDecision::Stable => "stable",
            DeltaDecision::Cooldown => "cooldown",
        }
    }

    /// Parse a wire name back into a decision.
    pub fn from_wire(s: &str) -> Option<DeltaDecision> {
        Some(match s {
            "remap" => DeltaDecision::Remap,
            "stable" => DeltaDecision::Stable,
            "cooldown" => DeltaDecision::Cooldown,
            _ => return None,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compute (or fetch from cache) the hierarchical mapping of a
    /// communication matrix on a topology.
    Map {
        /// The detected communication matrix.
        matrix: CommMatrix,
        /// The machine to map onto.
        topo: Topology,
        /// Per-request deadline in milliseconds (overrides the server
        /// default; 0/absent = server default).
        deadline_ms: Option<u64>,
        /// Artificial worker delay in milliseconds, for load generation
        /// and deterministic overload/deadline testing.
        delay_ms: u64,
    },
    /// Liveness probe.
    Health,
    /// Counter/queue snapshot.
    Stats,
    /// Live-telemetry admin query (stats, health, or the slow-request
    /// trace) — the operator/scraper surface.
    Admin {
        /// What to snapshot.
        kind: AdminKind,
    },
    /// Open a streaming session: the server allocates a decayed-window
    /// matrix sized for `topo` and an identity initial mapping, and hands
    /// back a session ID for subsequent `delta` frames.
    OpenSession {
        /// The machine the session maps onto.
        topo: Topology,
        /// Per-session decay shift override (`None` = server default).
        decay_shift: Option<u32>,
        /// Per-session drift threshold override in ppm of cosine
        /// similarity (`None` = server default).
        drift_threshold_ppm: Option<u64>,
        /// Per-session remap cooldown override, in deltas (`None` =
        /// server default).
        cooldown_deltas: Option<u64>,
    },
    /// Ingest one sparse communication-matrix delta into a session's
    /// decayed window and run the remap control loop on it.
    Delta {
        /// The session the delta belongs to.
        session: u64,
        /// The delta, already assembled from the wire's sparse cells.
        delta: CommMatrix,
    },
    /// Close a streaming session and free its window.
    CloseSession {
        /// The session to close.
        session: u64,
    },
    /// Begin graceful shutdown: drain queued work, then exit.
    Shutdown,
}

/// Serialize a topology for the wire.
pub fn topology_to_json(topo: &Topology) -> Json {
    Json::obj(vec![
        ("chips", Json::U64(topo.chips as u64)),
        ("l2_per_chip", Json::U64(topo.l2_per_chip as u64)),
        ("cores_per_l2", Json::U64(topo.cores_per_l2 as u64)),
    ])
}

/// Parse a wire topology, rejecting zero arities (which `Topology::new`
/// would panic on) and core counts that overflow `usize`.
pub fn topology_from_json(json: &Json) -> Result<Topology, String> {
    let field = |name: &str| -> Result<usize, String> {
        let v = json
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("topology: missing or mistyped field `{name}`"))?;
        if v == 0 || v > 1 << 16 {
            return Err(format!("topology: `{name}` must be in 1..=65536, got {v}"));
        }
        Ok(v as usize)
    };
    let topo = Topology {
        chips: field("chips")?,
        l2_per_chip: field("l2_per_chip")?,
        cores_per_l2: field("cores_per_l2")?,
    };
    match topo.checked_num_cores() {
        Some(_) => Ok(topo),
        None => Err("topology: core count overflows".to_string()),
    }
}

impl Request {
    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("v", Json::U64(PROTOCOL_VERSION))];
        match self {
            Request::Map {
                matrix,
                topo,
                deadline_ms,
                delay_ms,
            } => {
                pairs.push(("req", Json::Str("map".into())));
                pairs.push(("matrix", matrix.to_json()));
                pairs.push(("topology", topology_to_json(topo)));
                if let Some(d) = deadline_ms {
                    pairs.push(("deadline_ms", Json::U64(*d)));
                }
                if *delay_ms > 0 {
                    pairs.push(("delay_ms", Json::U64(*delay_ms)));
                }
            }
            Request::Health => pairs.push(("req", Json::Str("health".into()))),
            Request::Stats => pairs.push(("req", Json::Str("stats".into()))),
            Request::Admin { kind } => {
                pairs.push(("req", Json::Str("admin".into())));
                pairs.push(("kind", Json::Str(kind.as_str().into())));
            }
            Request::OpenSession {
                topo,
                decay_shift,
                drift_threshold_ppm,
                cooldown_deltas,
            } => {
                pairs.push(("req", Json::Str("open_session".into())));
                pairs.push(("topology", topology_to_json(topo)));
                if let Some(s) = decay_shift {
                    pairs.push(("decay_shift", Json::U64(u64::from(*s))));
                }
                if let Some(t) = drift_threshold_ppm {
                    pairs.push(("drift_threshold_ppm", Json::U64(*t)));
                }
                if let Some(c) = cooldown_deltas {
                    pairs.push(("cooldown_deltas", Json::U64(*c)));
                }
            }
            Request::Delta { session, delta } => {
                pairs.push(("req", Json::Str("delta".into())));
                pairs.push(("session", Json::U64(*session)));
                pairs.push(("n", Json::U64(delta.num_threads() as u64)));
                let cells: Vec<Json> = delta
                    .pairs()
                    .filter(|&(_, _, v)| v > 0)
                    .map(|(i, j, v)| {
                        Json::Arr(vec![Json::U64(i as u64), Json::U64(j as u64), Json::U64(v)])
                    })
                    .collect();
                pairs.push(("cells", Json::Arr(cells)));
            }
            Request::CloseSession { session } => {
                pairs.push(("req", Json::Str("close_session".into())));
                pairs.push(("session", Json::U64(*session)));
            }
            Request::Shutdown => pairs.push(("req", Json::Str("shutdown".into()))),
        }
        Json::obj(pairs)
    }

    /// Decode a request payload. The version must already have been
    /// checked by [`check_version`].
    pub fn from_json(json: &Json) -> Result<Request, String> {
        match json.get("req").and_then(Json::as_str) {
            Some("map") => {
                let matrix_json = json
                    .get("matrix")
                    .ok_or_else(|| "map request: missing `matrix`".to_string())?;
                let matrix = CommMatrix::from_json(matrix_json)
                    .map_err(|e| format!("map request: bad matrix: {}", e.message))?;
                let topo = match json.get("topology") {
                    Some(t) => topology_from_json(t)?,
                    None => Topology::harpertown(),
                };
                let deadline_ms = json
                    .get("deadline_ms")
                    .and_then(Json::as_u64)
                    .filter(|&d| d > 0);
                let delay_ms = json.get("delay_ms").and_then(Json::as_u64).unwrap_or(0);
                Ok(Request::Map {
                    matrix,
                    topo,
                    deadline_ms,
                    delay_ms,
                })
            }
            Some("health") => Ok(Request::Health),
            Some("stats") => Ok(Request::Stats),
            Some("admin") => match json.get("kind").and_then(Json::as_str) {
                Some(kind) => AdminKind::from_wire(kind)
                    .map(|kind| Request::Admin { kind })
                    .ok_or_else(|| {
                        format!(
                            "unknown admin kind `{kind}` \
                             (stats | health | trace | flight | sessions)"
                        )
                    }),
                None => Err("admin request: missing or mistyped field `kind`".to_string()),
            },
            Some("open_session") => {
                let topo = match json.get("topology") {
                    Some(t) => topology_from_json(t)?,
                    None => Topology::harpertown(),
                };
                let cores = topo.num_cores();
                if cores > MAX_SESSION_THREADS {
                    return Err(format!(
                        "open_session request: {cores} cores exceed the session limit \
                         of {MAX_SESSION_THREADS} threads"
                    ));
                }
                let decay_shift = json
                    .get("decay_shift")
                    .and_then(Json::as_u64)
                    .map(|s| s.min(63) as u32);
                let drift_threshold_ppm = json.get("drift_threshold_ppm").and_then(Json::as_u64);
                let cooldown_deltas = json.get("cooldown_deltas").and_then(Json::as_u64);
                Ok(Request::OpenSession {
                    topo,
                    decay_shift,
                    drift_threshold_ppm,
                    cooldown_deltas,
                })
            }
            Some("delta") => {
                let session = json.get("session").and_then(Json::as_u64).ok_or_else(|| {
                    "delta request: missing or mistyped field `session`".to_string()
                })?;
                let n = json
                    .get("n")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "delta request: missing or mistyped field `n`".to_string())?;
                if n == 0 || n > MAX_SESSION_THREADS as u64 {
                    return Err(format!(
                        "delta request: `n` must be in 1..={MAX_SESSION_THREADS}, got {n}"
                    ));
                }
                let n = n as usize;
                let cells = json.get("cells").and_then(Json::as_array).ok_or_else(|| {
                    "delta request: missing or mistyped field `cells`".to_string()
                })?;
                let mut delta = CommMatrix::new(n);
                for cell in cells {
                    let triple = cell
                        .as_array()
                        .filter(|t| t.len() == 3)
                        .and_then(|t| Some((t[0].as_u64()?, t[1].as_u64()?, t[2].as_u64()?)))
                        .ok_or_else(|| {
                            "delta request: each cell must be an [i, j, amount] triple".to_string()
                        })?;
                    let (i, j, amount) = triple;
                    if i >= j || j >= n as u64 {
                        return Err(format!(
                            "delta request: cell ({i}, {j}) is not an upper-triangle pair of {n} threads"
                        ));
                    }
                    delta.add(i as usize, j as usize, amount);
                }
                Ok(Request::Delta { session, delta })
            }
            Some("close_session") => json
                .get("session")
                .and_then(Json::as_u64)
                .map(|session| Request::CloseSession { session })
                .ok_or_else(|| {
                    "close_session request: missing or mistyped field `session`".to_string()
                }),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown request kind `{other}`")),
            None => Err("missing or mistyped field `req`".to_string()),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A computed (or cached) mapping: `mapping[thread] = core`.
    Map {
        /// The thread→core assignment.
        mapping: Vec<usize>,
        /// Whether the result came from the cache (hit or coalesced).
        cached: bool,
    },
    /// Liveness answer.
    Health,
    /// Counter/queue snapshot (opaque JSON document).
    Stats(Json),
    /// Admin answer: which kind it is and its document (a flat object
    /// for `stats`/`health`, an array of slow-log entries for `trace`).
    Admin {
        /// The queried kind.
        kind: AdminKind,
        /// The snapshot document.
        doc: Json,
    },
    /// A streaming session was opened.
    OpenSession {
        /// The allocated session ID — carry it in every `delta` /
        /// `close_session` frame.
        session: u64,
        /// The initial mapping (identity until the first remap).
        mapping: Vec<usize>,
    },
    /// One delta was ingested; the control loop's verdict.
    Delta {
        /// The session the delta landed in.
        session: u64,
        /// Sequence number of this delta within the session (1-based).
        seq: u64,
        /// Cosine similarity of the decayed window to the installed
        /// mapping's reference matrix, in ppm.
        similarity_ppm: u64,
        /// What the control loop decided.
        decision: DeltaDecision,
        /// Whether the remap's matching was fully warm-started (only
        /// meaningful when `decision` is `remap`).
        warm: bool,
        /// The newly installed mapping when `decision` is `remap`.
        mapping: Option<Vec<usize>>,
    },
    /// A streaming session was closed; its lifetime summary.
    CloseSession {
        /// The closed session's ID.
        session: u64,
        /// Deltas it ingested.
        deltas: u64,
        /// Remaps it installed.
        remaps: u64,
    },
    /// Shutdown acknowledged; the server drains and exits.
    Shutdown,
    /// The request failed.
    Error {
        /// Stable machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("v", Json::U64(PROTOCOL_VERSION))];
        match self {
            Response::Map { mapping, cached } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("resp", Json::Str("map".into())));
                pairs.push((
                    "mapping",
                    Json::Arr(mapping.iter().map(|&c| Json::U64(c as u64)).collect()),
                ));
                pairs.push(("cached", Json::Bool(*cached)));
            }
            Response::Health => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("resp", Json::Str("health".into())));
            }
            Response::Stats(doc) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("resp", Json::Str("stats".into())));
                pairs.push(("stats", doc.clone()));
            }
            Response::Admin { kind, doc } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("resp", Json::Str("admin".into())));
                pairs.push(("kind", Json::Str(kind.as_str().into())));
                pairs.push(("body", doc.clone()));
            }
            Response::OpenSession { session, mapping } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("resp", Json::Str("open_session".into())));
                pairs.push(("session", Json::U64(*session)));
                pairs.push((
                    "mapping",
                    Json::Arr(mapping.iter().map(|&c| Json::U64(c as u64)).collect()),
                ));
            }
            Response::Delta {
                session,
                seq,
                similarity_ppm,
                decision,
                warm,
                mapping,
            } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("resp", Json::Str("delta".into())));
                pairs.push(("session", Json::U64(*session)));
                pairs.push(("seq", Json::U64(*seq)));
                pairs.push(("similarity_ppm", Json::U64(*similarity_ppm)));
                pairs.push(("decision", Json::Str(decision.as_str().into())));
                pairs.push(("warm", Json::Bool(*warm)));
                if let Some(mapping) = mapping {
                    pairs.push((
                        "mapping",
                        Json::Arr(mapping.iter().map(|&c| Json::U64(c as u64)).collect()),
                    ));
                }
            }
            Response::CloseSession {
                session,
                deltas,
                remaps,
            } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("resp", Json::Str("close_session".into())));
                pairs.push(("session", Json::U64(*session)));
                pairs.push(("deltas", Json::U64(*deltas)));
                pairs.push(("remaps", Json::U64(*remaps)));
            }
            Response::Shutdown => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("resp", Json::Str("shutdown".into())));
            }
            Response::Error { code, message } => {
                pairs.push(("ok", Json::Bool(false)));
                pairs.push(("code", Json::Str(code.as_str().into())));
                pairs.push(("message", Json::Str(message.clone())));
            }
        }
        Json::obj(pairs)
    }

    /// Decode a response payload.
    pub fn from_json(json: &Json) -> Result<Response, String> {
        match json.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                let code = json
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::from_wire)
                    .ok_or_else(|| "error response: missing or unknown `code`".to_string())?;
                let message = json
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                return Ok(Response::Error { code, message });
            }
            None => return Err("response: missing `ok`".to_string()),
        }
        match json.get("resp").and_then(Json::as_str) {
            Some("map") => {
                let mapping = json
                    .get("mapping")
                    .and_then(Json::as_array)
                    .ok_or_else(|| "map response: missing `mapping`".to_string())?
                    .iter()
                    .map(|v| v.as_u64().map(|c| c as usize))
                    .collect::<Option<Vec<usize>>>()
                    .ok_or_else(|| "map response: non-integer core".to_string())?;
                let cached = json.get("cached").and_then(Json::as_bool).unwrap_or(false);
                Ok(Response::Map { mapping, cached })
            }
            Some("health") => Ok(Response::Health),
            Some("stats") => Ok(Response::Stats(
                json.get("stats").cloned().unwrap_or(Json::Null),
            )),
            Some("admin") => {
                let kind = json
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(AdminKind::from_wire)
                    .ok_or_else(|| "admin response: missing or unknown `kind`".to_string())?;
                Ok(Response::Admin {
                    kind,
                    doc: json.get("body").cloned().unwrap_or(Json::Null),
                })
            }
            Some("open_session") => {
                let session = json
                    .get("session")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "open_session response: missing `session`".to_string())?;
                let mapping = json
                    .get("mapping")
                    .and_then(Json::as_array)
                    .ok_or_else(|| "open_session response: missing `mapping`".to_string())?
                    .iter()
                    .map(|v| v.as_u64().map(|c| c as usize))
                    .collect::<Option<Vec<usize>>>()
                    .ok_or_else(|| "open_session response: non-integer core".to_string())?;
                Ok(Response::OpenSession { session, mapping })
            }
            Some("delta") => {
                let field = |name: &str| -> Result<u64, String> {
                    json.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("delta response: missing `{name}`"))
                };
                let decision = json
                    .get("decision")
                    .and_then(Json::as_str)
                    .and_then(DeltaDecision::from_wire)
                    .ok_or_else(|| "delta response: missing or unknown `decision`".to_string())?;
                let warm = json.get("warm").and_then(Json::as_bool).unwrap_or(false);
                let mapping = match json.get("mapping").and_then(Json::as_array) {
                    Some(arr) => Some(
                        arr.iter()
                            .map(|v| v.as_u64().map(|c| c as usize))
                            .collect::<Option<Vec<usize>>>()
                            .ok_or_else(|| "delta response: non-integer core".to_string())?,
                    ),
                    None => None,
                };
                Ok(Response::Delta {
                    session: field("session")?,
                    seq: field("seq")?,
                    similarity_ppm: field("similarity_ppm")?,
                    decision,
                    warm,
                    mapping,
                })
            }
            Some("close_session") => {
                let field = |name: &str| -> Result<u64, String> {
                    json.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("close_session response: missing `{name}`"))
                };
                Ok(Response::CloseSession {
                    session: field("session")?,
                    deltas: field("deltas")?,
                    remaps: field("remaps")?,
                })
            }
            Some("shutdown") => Ok(Response::Shutdown),
            Some(other) => Err(format!("unknown response kind `{other}`")),
            None => Err("response: missing `resp`".to_string()),
        }
    }
}

/// Check a decoded payload's protocol version.
pub fn check_version(json: &Json) -> Result<(), String> {
    match json.get("v").and_then(Json::as_u64) {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(v) => Err(format!(
            "unsupported protocol version {v} (this peer speaks {PROTOCOL_VERSION})"
        )),
        None => Err("missing protocol version field `v`".to_string()),
    }
}

/// Why a frame read failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Transport error (includes mid-frame EOF).
    Io(io::Error),
    /// The announced length exceeds the configured cap.
    TooLarge(usize),
    /// The payload is not valid JSON.
    Parse(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds the size cap"),
            FrameError::Parse(e) => write!(f, "payload is not valid JSON: {e}"),
        }
    }
}

/// Write one frame.
pub fn write_frame(w: &mut dyn Write, payload: &Json) -> io::Result<()> {
    let body = payload.render().into_bytes();
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    // One write for header + payload: two small writes would trip the
    // Nagle/delayed-ACK interaction and cost ~40 ms per frame.
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&body);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame, capping the payload at `max_bytes`.
///
/// A clean EOF before any length byte is [`FrameError::Closed`]; EOF in
/// the middle of a frame is an I/O error (truncated stream).
pub fn read_frame(r: &mut dyn Read, max_bytes: usize) -> Result<Json, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_bytes {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let text =
        std::str::from_utf8(&payload).map_err(|e| FrameError::Parse(format!("not UTF-8: {e}")))?;
    Json::parse(text).map_err(|e| FrameError::Parse(e.message))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> CommMatrix {
        let mut m = CommMatrix::new(4);
        m.add(0, 1, 10);
        m.add(2, 3, 7);
        m
    }

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Map {
                matrix: sample_matrix(),
                topo: Topology::harpertown(),
                deadline_ms: Some(250),
                delay_ms: 5,
            },
            Request::Health,
            Request::Stats,
            Request::Admin {
                kind: AdminKind::Stats,
            },
            Request::Admin {
                kind: AdminKind::Health,
            },
            Request::Admin {
                kind: AdminKind::Trace,
            },
            Request::Admin {
                kind: AdminKind::Flight,
            },
            Request::Admin {
                kind: AdminKind::Sessions,
            },
            Request::OpenSession {
                topo: Topology::harpertown(),
                decay_shift: Some(3),
                drift_threshold_ppm: Some(850_000),
                cooldown_deltas: None,
            },
            Request::Delta {
                session: 7,
                delta: sample_matrix(),
            },
            Request::CloseSession { session: 7 },
            Request::Shutdown,
        ];
        for req in reqs {
            let json = req.to_json();
            check_version(&json).unwrap();
            assert_eq!(Request::from_json(&json).unwrap(), req, "{:?}", req);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Map {
                mapping: vec![3, 1, 0, 2],
                cached: true,
            },
            Response::Health,
            Response::Stats(Json::obj(vec![("queue_depth", Json::U64(3))])),
            Response::Admin {
                kind: AdminKind::Stats,
                doc: Json::obj(vec![
                    ("requests", Json::U64(12)),
                    ("window_p99_us", Json::U64(1536)),
                ]),
            },
            Response::Admin {
                kind: AdminKind::Trace,
                doc: Json::Arr(vec![Json::obj(vec![("req_id", Json::U64(7))])]),
            },
            Response::OpenSession {
                session: 3,
                mapping: vec![0, 1, 2, 3],
            },
            Response::Delta {
                session: 3,
                seq: 12,
                similarity_ppm: 431_337,
                decision: DeltaDecision::Remap,
                warm: true,
                mapping: Some(vec![2, 3, 0, 1]),
            },
            Response::Delta {
                session: 3,
                seq: 13,
                similarity_ppm: 991_000,
                decision: DeltaDecision::Stable,
                warm: false,
                mapping: None,
            },
            Response::CloseSession {
                session: 3,
                deltas: 13,
                remaps: 2,
            },
            Response::Shutdown,
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
        ];
        for resp in resps {
            let json = resp.to_json();
            check_version(&json).unwrap();
            assert_eq!(Response::from_json(&json).unwrap(), resp, "{:?}", resp);
        }
    }

    #[test]
    fn version_is_enforced() {
        let mut json = Request::Health.to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs[0].1 = Json::U64(99);
        }
        assert!(check_version(&json).unwrap_err().contains("version 99"));
        assert!(check_version(&Json::obj(vec![])).is_err());
    }

    #[test]
    fn malformed_requests_are_rejected_with_display_errors() {
        for text in [
            r#"{"v":1}"#,
            r#"{"v":1,"req":"warp"}"#,
            r#"{"v":1,"req":"map"}"#,
            r#"{"v":1,"req":"map","matrix":{"n":2,"rows":[[0,1],[2,0]]}}"#,
            r#"{"v":1,"req":"map","matrix":{"n":2,"rows":[[0,1],[1,0]]},"topology":{"chips":0,"l2_per_chip":1,"cores_per_l2":2}}"#,
        ] {
            let json = Json::parse(text).unwrap();
            let err = Request::from_json(&json).unwrap_err();
            assert!(!err.is_empty(), "{text}");
        }
    }

    #[test]
    fn unknown_admin_kind_is_a_bad_request() {
        // Satellite 3: the unknown-frame-kind error path. An `admin` frame
        // whose `kind` is unrecognized (or absent) must decode to a
        // descriptive error, which the server surfaces as `bad_request`.
        let json = Json::parse(r#"{"v":1,"req":"admin","kind":"flamegraph"}"#).unwrap();
        let err = Request::from_json(&json).unwrap_err();
        assert!(err.contains("flamegraph"), "{err}");
        assert!(
            err.contains("stats | health | trace | flight | sessions"),
            "{err}"
        );

        let missing = Json::parse(r#"{"v":1,"req":"admin"}"#).unwrap();
        let err = Request::from_json(&missing).unwrap_err();
        assert!(err.contains("kind"), "{err}");

        // Same guard on the response side: a peer cannot hand back an
        // admin document under a kind this version does not speak.
        let resp =
            Json::parse(r#"{"v":1,"ok":true,"resp":"admin","kind":"heap","body":{}}"#).unwrap();
        assert!(Response::from_json(&resp).is_err());
    }

    #[test]
    fn admin_kind_wire_names_are_stable() {
        for kind in [
            AdminKind::Stats,
            AdminKind::Health,
            AdminKind::Trace,
            AdminKind::Flight,
            AdminKind::Sessions,
        ] {
            assert_eq!(AdminKind::from_wire(kind.as_str()), Some(kind));
        }
        assert_eq!(AdminKind::from_wire("metrics"), None);
    }

    #[test]
    fn delta_decision_wire_names_are_stable() {
        for d in [
            DeltaDecision::Remap,
            DeltaDecision::Stable,
            DeltaDecision::Cooldown,
        ] {
            assert_eq!(DeltaDecision::from_wire(d.as_str()), Some(d));
        }
        assert_eq!(DeltaDecision::from_wire("thrash"), None);
    }

    #[test]
    fn malformed_session_frames_are_rejected() {
        for text in [
            r#"{"v":1,"req":"delta"}"#,
            r#"{"v":1,"req":"delta","session":1}"#,
            r#"{"v":1,"req":"delta","session":1,"n":0,"cells":[]}"#,
            r#"{"v":1,"req":"delta","session":1,"n":4,"cells":[[0,0,5]]}"#,
            r#"{"v":1,"req":"delta","session":1,"n":4,"cells":[[1,0,5]]}"#,
            r#"{"v":1,"req":"delta","session":1,"n":4,"cells":[[0,9,5]]}"#,
            r#"{"v":1,"req":"delta","session":1,"n":4,"cells":[[0,1]]}"#,
            r#"{"v":1,"req":"close_session"}"#,
            r#"{"v":1,"req":"open_session","topology":{"chips":0,"l2_per_chip":1,"cores_per_l2":2}}"#,
        ] {
            let json = Json::parse(text).unwrap();
            assert!(Request::from_json(&json).is_err(), "{text}");
        }
        // Sparse cells accumulate: duplicate triples on the same pair sum.
        let json =
            Json::parse(r#"{"v":1,"req":"delta","session":1,"n":4,"cells":[[0,1,5],[0,1,2]]}"#)
                .unwrap();
        match Request::from_json(&json).unwrap() {
            Request::Delta { delta, .. } => assert_eq!(delta.get(0, 1), 7),
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = Request::Map {
            matrix: sample_matrix(),
            topo: Topology::harpertown(),
            deadline_ms: None,
            delay_ms: 0,
        }
        .to_json();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &Request::Health.to_json()).unwrap();
        let mut cursor = &buf[..];
        let a = read_frame(&mut cursor, 1 << 20).unwrap();
        let b = read_frame(&mut cursor, 1 << 20).unwrap();
        assert_eq!(a, payload);
        assert_eq!(b, Request::Health.to_json());
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Health.to_json()).unwrap();
        assert!(matches!(
            read_frame(&mut &buf[..], 4),
            Err(FrameError::TooLarge(_))
        ));
        // Truncate mid-payload.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut &cut[..], 1 << 20),
            Err(FrameError::Io(_))
        ));
        // Garbage payload with a valid length prefix.
        let mut garbage = Vec::new();
        garbage.extend_from_slice(&5u32.to_be_bytes());
        garbage.extend_from_slice(b"not{j");
        assert!(matches!(
            read_frame(&mut &garbage[..], 1 << 20),
            Err(FrameError::Parse(_))
        ));
    }

    #[test]
    fn topology_wire_round_trip() {
        let topo = Topology::new(2, 4, 2);
        let back = topology_from_json(&topology_to_json(&topo)).unwrap();
        assert_eq!(back, topo);
        assert!(topology_from_json(&Json::obj(vec![])).is_err());
    }
}
