//! A blocking client for the mapping service.

use std::net::TcpStream;

use tlbmap_core::CommMatrix;
use tlbmap_obs::Json;
use tlbmap_sim::Topology;

use crate::protocol::{
    check_version, read_frame, write_frame, AdminKind, ErrorCode, FrameError, Request, Response,
};
use crate::session::DeltaOutcome;

/// Largest response frame a client will accept.
const MAX_RESPONSE_BYTES: usize = 1 << 20;

/// Why a client call failed.
#[derive(Debug)]
pub enum ServeError {
    /// The server answered with an error frame.
    Remote {
        /// The stable error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The request never completed: connection refused, broken stream,
    /// malformed response.
    Transport(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Remote { code, message } => {
                write!(f, "server error [{}]: {}", code.as_str(), message)
            }
            ServeError::Transport(message) => write!(f, "transport error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    fn transport(context: &str, e: impl std::fmt::Display) -> ServeError {
        ServeError::Transport(format!("{context}: {e}"))
    }
}

/// A successful `map` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapReply {
    /// `mapping[thread] = core`.
    pub mapping: Vec<usize>,
    /// Whether the server served it from its result cache.
    pub cached: bool,
}

/// A connected client. One request is in flight at a time (the protocol
/// is strictly request/response per connection).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server at `addr` (e.g. `"127.0.0.1:7411"`).
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::transport(&format!("connect to {addr}"), e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| ServeError::transport("set TCP_NODELAY", e))?;
        Ok(Client { stream })
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, &request.to_json())
            .map_err(|e| ServeError::transport("send request", e))?;
        let json = match read_frame(&mut self.stream, MAX_RESPONSE_BYTES) {
            Ok(json) => json,
            Err(FrameError::Closed) => {
                return Err(ServeError::Transport(
                    "server closed the connection before answering".to_string(),
                ))
            }
            Err(e) => return Err(ServeError::transport("read response", e)),
        };
        check_version(&json).map_err(ServeError::Transport)?;
        let response = Response::from_json(&json).map_err(ServeError::Transport)?;
        if let Response::Error { code, message } = response {
            return Err(ServeError::Remote { code, message });
        }
        Ok(response)
    }

    /// Ask the server to map `matrix` onto `topo`. `deadline_ms` bounds
    /// the time the request may wait in the server's queue (None = the
    /// server default); `delay_ms` asks the worker to sleep before
    /// computing (a load-generation/testing hook — use 0).
    pub fn map(
        &mut self,
        matrix: &CommMatrix,
        topo: &Topology,
        deadline_ms: Option<u64>,
        delay_ms: u64,
    ) -> Result<MapReply, ServeError> {
        let request = Request::Map {
            matrix: matrix.clone(),
            topo: *topo,
            deadline_ms,
            delay_ms,
        };
        match self.round_trip(&request)? {
            Response::Map { mapping, cached } => Ok(MapReply { mapping, cached }),
            other => Err(ServeError::Transport(format!(
                "expected a map response, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn health(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Request::Health)? {
            Response::Health => Ok(()),
            other => Err(ServeError::Transport(format!(
                "expected a health response, got {other:?}"
            ))),
        }
    }

    /// Fetch the server's counter/queue snapshot.
    pub fn stats(&mut self) -> Result<Json, ServeError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(doc) => Ok(doc),
            other => Err(ServeError::Transport(format!(
                "expected a stats response, got {other:?}"
            ))),
        }
    }

    /// Query the live-telemetry admin surface: `stats` for the rolling
    /// snapshot (queue depth, utilization, windowed quantiles), `health`
    /// for liveness + uptime, `trace` for the slow-request log.
    pub fn admin(&mut self, kind: AdminKind) -> Result<Json, ServeError> {
        match self.round_trip(&Request::Admin { kind })? {
            Response::Admin { kind: got, doc } if got == kind => Ok(doc),
            other => Err(ServeError::Transport(format!(
                "expected an admin {} response, got {other:?}",
                kind.as_str()
            ))),
        }
    }

    /// Open a streaming session on `topo`. `None` knobs take the server's
    /// defaults. Returns the session ID and the initial mapping (computed
    /// on the empty window — the first delta installs the first real one).
    pub fn open_session(
        &mut self,
        topo: &Topology,
        decay_shift: Option<u32>,
        drift_threshold_ppm: Option<u64>,
        cooldown_deltas: Option<u64>,
    ) -> Result<(u64, Vec<usize>), ServeError> {
        let request = Request::OpenSession {
            topo: *topo,
            decay_shift,
            drift_threshold_ppm,
            cooldown_deltas,
        };
        match self.round_trip(&request)? {
            Response::OpenSession { session, mapping } => Ok((session, mapping)),
            other => Err(ServeError::Transport(format!(
                "expected an open_session response, got {other:?}"
            ))),
        }
    }

    /// Stream one communication delta into an open session; the reply says
    /// what the control loop decided (and carries the new mapping when it
    /// remapped).
    pub fn delta(&mut self, session: u64, delta: &CommMatrix) -> Result<DeltaOutcome, ServeError> {
        let request = Request::Delta {
            session,
            delta: delta.clone(),
        };
        match self.round_trip(&request)? {
            Response::Delta {
                seq,
                similarity_ppm,
                decision,
                mapping,
                ..
            } => Ok(DeltaOutcome {
                seq,
                similarity_ppm,
                decision,
                mapping,
            }),
            other => Err(ServeError::Transport(format!(
                "expected a delta response, got {other:?}"
            ))),
        }
    }

    /// Close a session, returning its lifetime `(deltas, remaps)`.
    pub fn close_session(&mut self, session: u64) -> Result<(u64, u64), ServeError> {
        match self.round_trip(&Request::CloseSession { session })? {
            Response::CloseSession { deltas, remaps, .. } => Ok((deltas, remaps)),
            other => Err(ServeError::Transport(format!(
                "expected a close_session response, got {other:?}"
            ))),
        }
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Shutdown => Ok(()),
            other => Err(ServeError::Transport(format!(
                "expected a shutdown response, got {other:?}"
            ))),
        }
    }

    /// Send raw bytes down the connection — a testing hook for exercising
    /// the server's frame-error handling.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        use std::io::Write as _;
        self.stream
            .write_all(bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| ServeError::transport("send raw bytes", e))
    }

    /// Read one raw response frame — pairs with [`Self::send_raw`].
    pub fn read_response(&mut self) -> Result<Response, ServeError> {
        let json = read_frame(&mut self.stream, MAX_RESPONSE_BYTES)
            .map_err(|e| ServeError::transport("read response", e))?;
        check_version(&json).map_err(ServeError::Transport)?;
        Response::from_json(&json).map_err(ServeError::Transport)
    }
}
