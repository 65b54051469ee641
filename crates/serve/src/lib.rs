//! # tlbmap-serve — mapping as a service
//!
//! The paper's end product is a *mapping decision*: a communication matrix
//! goes in, a hierarchical thread placement comes out (§V). This crate
//! turns that decision into a long-running **service** so the placement can
//! be consulted repeatedly at runtime (the online-mapping setting of the
//! STM thread-mapping line of work) instead of re-running the whole
//! in-process pipeline per decision.
//!
//! Everything is built on `std` only (`std::net` + hand-rolled threading
//! primitives) — consistent with the workspace's vendored-deps policy.
//! The pieces:
//!
//! * [`protocol`] — length-prefixed JSON frames, versioned request and
//!   response schemas, stable error codes.
//! * [`ServeConfig`] — worker/queue/cache sizing with the zero hazards
//!   guarded (mirroring `ObsConfig`'s snapshot-period-0 precedent).
//! * [`MapCache`]/[`ShardedCache`] — an LRU result cache keyed by the
//!   matrix [fingerprint](tlbmap_core::CommMatrix::fingerprint) +
//!   topology, with single-flight coalescing of identical concurrent
//!   requests; the server shards it by fingerprint hash (one shard per
//!   worker by default) so unrelated requests never contend on one lock.
//! * [`sys`] — a `std`-only epoll/eventfd wrapper over raw fds (the four
//!   syscalls the readiness loop needs, declared against the libc `std`
//!   already links).
//! * [`Server`]/[`ServerHandle`] — the TCP server: a nonblocking
//!   **readiness loop** owns every socket (connections are slab entries,
//!   not threads; frames arriving in the same tick decode as one batch),
//!   and a handwritten worker pool behind a **bounded** queue evaluates
//!   `map` requests against one shared resident mapper (overload answers
//!   an `overloaded` error frame instead of hanging), with per-request
//!   deadlines and graceful shutdown that drains in-flight work on an
//!   eventfd doorbell.
//! * [`Client`] — a blocking client speaking the same frames.
//! * [`loadgen`] — an open loop ([`run_curve`]: fixed arrival rates,
//!   latency from scheduled send time, a p99-vs-offered-load curve checked
//!   against the server's own `admin stats` counters) and a streaming
//!   session campaign ([`run_stream_loadgen`]).
//!
//! The server records everything through `tlbmap-obs` (request counters,
//! latency histogram, queue-depth histogram, cache hit/miss counters), so
//! a service run exports through the exact same metrics-JSON schema as a
//! simulation run.
//!
//! On top of the since-boot recorder sits a **live telemetry plane**:
//! every request is tagged with an ID and span-timed through parse →
//! queue wait → compute; latencies feed rolling-window histograms
//! ([`tlbmap_obs::LiveRegistry`]) so the versioned `admin` frame kind
//! ([`AdminKind`]: `stats` | `health` | `trace`) answers with *current*
//! p50/p99, queue depth, worker utilization, cache rates, and per-error
//! counts. Requests over a configurable threshold land in a slow-request
//! ring (and optionally a JSONL log), and a plain `GET` on the service
//! port returns a text exposition for `curl`/scrapers. `tlbmap top`
//! renders the admin stats as a live dashboard.
//!
//! ```
//! use tlbmap_core::CommMatrix;
//! use tlbmap_obs::{ObsConfig, Recorder};
//! use tlbmap_serve::{Client, ServeConfig, Server};
//! use tlbmap_sim::Topology;
//!
//! let rec = Recorder::new(ObsConfig::new(0).with_ring_capacity(64));
//! let handle = Server::start("127.0.0.1:0", ServeConfig::new(), rec).unwrap();
//! let mut client = Client::connect(&handle.addr().to_string()).unwrap();
//! let mut m = CommMatrix::new(8);
//! m.add(0, 7, 100);
//! let reply = client.map(&m, &Topology::harpertown(), None, 0).unwrap();
//! assert_eq!(reply.mapping.len(), 8);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod config;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod session;
pub mod sys;

pub use cache::{CacheKey, CacheOutcome, MapCache, ShardedCache};
pub use client::{Client, MapReply, ServeError};
pub use config::ServeConfig;
pub use loadgen::{
    run_curve, run_stream_loadgen, stream_delta, CurveConfig, CurvePoint, CurveReport,
    StreamConfig, StreamReport,
};
pub use protocol::{
    AdminKind, DeltaDecision, ErrorCode, Request, Response, MAX_SESSION_THREADS, PROTOCOL_VERSION,
};
pub use server::{Server, ServerHandle};
pub use session::{DeltaOutcome, SessionRegistry, SessionSummary};
