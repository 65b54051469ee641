//! The mapping server: a nonblocking readiness loop, bounded work queue,
//! worker pool, and the live telemetry plane.
//!
//! ## Threading model
//!
//! ```text
//!            epoll (level-triggered)
//!                      │
//!               event-loop thread ◀──eventfd wake── workers
//!      accept / read / decode / answer inline           ▲
//!                      │                                │
//!              bounded job queue ──▶ worker pool ── completions
//!                      │                  │
//!               full → `overloaded`       ▼
//!                            sharded cache / shared mapper
//! ```
//!
//! One **event-loop thread** owns every socket: it accepts, reads, and
//! writes nonblocking fds behind an epoll interest list ([`crate::sys`]),
//! keeping per-connection read/write state machines with partial-frame
//! buffers. Frames that arrive in the same readiness tick are decoded
//! together — one *batch* — and answered against shared resident state
//! (one [`HierarchicalMapper`], one sharded result cache) instead of
//! per-thread copies. Concurrency is bounded by fds, not OS threads: a
//! thousand idle keep-alive connections cost a thousand slab slots and
//! zero stacks.
//!
//! Cheap requests (`health`, `stats`, `admin`, the session plane, and
//! `shutdown`) are answered inline on the loop. `map` requests are
//! admitted to the bounded job queue and picked up by the worker pool;
//! workers publish completions to a shared vector and ring an `eventfd`
//! doorbell, so the loop wakes exactly when there is work to deliver —
//! there is no sleep-based polling anywhere.
//!
//! Backpressure is explicit: a full queue answers an `overloaded` error
//! frame immediately instead of letting latency grow without bound.
//! Deadlines are checked when a worker dequeues a job. Requests on one
//! connection are answered strictly in order (a connection with a map in
//! flight buffers subsequent bytes until the answer is queued), so the
//! wire contract matches the old thread-per-connection server exactly.
//!
//! ## Drain protocol
//!
//! Shutdown (client `shutdown` frame or [`ServerHandle::shutdown`]) stops
//! the listener at once but keeps every open connection serviced:
//! admitted jobs finish, refusals (`shutting_down`) are answered for new
//! map/session work, and `close_session` is still honoured. The loop
//! exits only once no job is in flight, every write buffer has drained,
//! and a short linger window has passed with no new traffic — so a client
//! that probes right after its `shutdown` response still gets answers,
//! exactly as it did when each connection had a dedicated thread.
//!
//! ## Telemetry plane
//!
//! Every request gets an ID at the connection (connection ID in the high
//! 32 bits, per-connection sequence in the low 32) and is timed through
//! parse → queue wait → compute. The spans land in three places:
//!
//! * the [`Recorder`] event ring as [`Event::ServeRequest`] entries,
//! * a [`LiveRegistry`] of rolling-window histograms so the `admin stats`
//!   frame answers "what is p99 *right now*" instead of since-boot,
//! * a bounded slow-request ring (served by `admin trace`) plus an
//!   optional JSONL writer, for requests over
//!   [`ServeConfig::slow_threshold_us`].
//!
//! The loop itself is measured too: ticks ([`CounterId::ServeLoopTicks`]),
//! per-tick batch sizes ([`HistId::ServeBatchSize`]), accepted and open
//! connections, and registered fds, all surfaced as a nested `loop`
//! object in the `admin stats` document.
//!
//! Per-error-code counting happens at the single response-queue choke
//! point, so every `bad_frame`/`overloaded`/`timeout`/… answer is counted
//! exactly once no matter where it originated. A plain `GET` on the
//! service port (detected by the 4 length-prefix bytes spelling `"GET "`)
//! is answered with a plain-text metrics exposition so `curl` and
//! scrapers work without speaking the frame protocol.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tlbmap_core::CommMatrix;
use tlbmap_mapping::{check_matrix_total, HierarchicalMapper};
use tlbmap_obs::{CounterId, Event, HistId, Json, LiveRegistry, Recorder};
use tlbmap_sim::Topology;

use crate::cache::{CacheKey, CacheOutcome, ShardedCache};
use crate::config::ServeConfig;
use crate::protocol::{
    check_version, write_frame, AdminKind, ErrorCode, FrameError, Request, Response,
};
use crate::session::SessionRegistry;
use crate::sys::{Epoll, EpollEvent, WakeFd, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Most recent slow-request entries retained for `admin trace`.
const SLOW_RING_CAP: usize = 256;
/// Readiness reports drained per `epoll_wait` call. Level-triggered
/// registration makes this a throughput knob, not a correctness one:
/// anything beyond the batch stays ready and lands in the next tick.
const EVENT_BATCH: usize = 256;
/// epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// epoll token of the wake doorbell.
const TOKEN_WAKE: u64 = 1;
/// Connection tokens start here: token = slot index + `TOKEN_CONN_BASE`.
const TOKEN_CONN_BASE: u64 = 2;
/// After drain quiesces (no in-flight work, buffers flushed), the loop
/// lingers this long so a client can still probe the draining server on
/// an open connection — the event-loop analogue of the old per-thread
/// read-poll grace.
const DRAIN_LINGER: Duration = Duration::from_millis(100);
/// How long an HTTP `GET` may dribble headers before the exposition is
/// answered with whatever arrived.
const HTTP_HEADER_TIMEOUT: Duration = Duration::from_millis(200);
/// HTTP header bytes drained before answering regardless.
const HTTP_HEADER_CAP: usize = 8192;

/// A worker's verdict plus the worker-side span timings.
struct WorkerDone {
    response: Response,
    /// Time the job spent queued before a worker dequeued it.
    queue_us: u64,
    /// Worker time (artificial delay + cache probe + mapper).
    compute_us: u64,
}

/// A finished job on its way back to the event loop.
struct Completion {
    /// Slab slot of the owning connection.
    slot: usize,
    /// Slot generation at admission — a reused slot ignores stale
    /// completions addressed to its previous occupant.
    generation: u64,
    req_id: u64,
    parse_us: u64,
    /// When the request frame was decoded (total-latency anchor).
    started: Instant,
    done: WorkerDone,
}

struct Job {
    req_id: u64,
    slot: usize,
    generation: u64,
    parse_us: u64,
    started: Instant,
    matrix: CommMatrix,
    topo: Topology,
    deadline: Option<Instant>,
    delay_ms: u64,
    enqueued_at: Instant,
}

enum SubmitError {
    Full,
    Closed,
}

/// Bounded MPMC job queue: producers fail fast when full, consumers drain
/// everything admitted before observing closure.
struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Admit a job, or fail fast. On success returns the queue depth
    /// *after* the push (for the queue-depth histogram).
    fn try_push(&self, job: Job) -> Result<usize, SubmitError> {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        state.jobs.push_back(job);
        let depth = state.jobs.len();
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Block for the next job. Returns the job plus the queue depth
    /// *after* the pop (so drain is visible in the depth histogram, not
    /// just buildup). `None` only once the queue is closed **and** empty,
    /// so admitted work is always drained.
    fn pop(&self) -> Option<(Job, usize)> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                let depth = state.jobs.len();
                return Some((job, depth));
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }

    fn depth(&self) -> usize {
        self.state.lock().unwrap().jobs.len()
    }
}

struct Shared {
    cfg: ServeConfig,
    queue: JobQueue,
    cache: Option<ShardedCache>,
    /// The shared resident mapper every worker maps through (the mapper
    /// is stateless, so sharing one is free — and it is the single
    /// evaluation point the per-tick batches converge on).
    mapper: HierarchicalMapper,
    rec: Recorder,
    /// Rolling-window live metrics behind the admin endpoint.
    live: LiveRegistry,
    /// Wall clock the uptime and utilization are measured against.
    started: Instant,
    /// Next connection ID (the high half of every request ID).
    next_conn_id: AtomicU64,
    /// Workers currently processing a job (gauge).
    busy_workers: AtomicU64,
    /// Cumulative worker busy time in microseconds (for utilization).
    busy_us: AtomicU64,
    /// Open connections (gauge, maintained by the event loop).
    conns_open: AtomicU64,
    /// Fds on the epoll interest list (gauge: conns + listener + wake).
    fds_registered: AtomicU64,
    /// Finished jobs awaiting delivery; workers push, the loop drains.
    completions: Mutex<Vec<Completion>>,
    /// The doorbell that wakes the loop for completions and drain.
    wake: WakeFd,
    /// Most recent slow requests, oldest first (`admin trace`).
    slow_ring: Mutex<VecDeque<Json>>,
    /// Optional JSONL sink for slow requests (one object per line).
    slow_writer: Option<Mutex<Box<dyn Write + Send>>>,
    /// Open streaming sessions (the `open_session`/`delta` plane).
    sessions: SessionRegistry,
    shutdown: AtomicBool,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// The mapping server. Construct with [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7411"`, or port 0 for an ephemeral
    /// port) and start the event-loop and worker threads. All
    /// observability flows through `rec`.
    pub fn start(addr: &str, cfg: ServeConfig, rec: Recorder) -> io::Result<ServerHandle> {
        Server::start_with_slow_log(addr, cfg, rec, None)
    }

    /// [`Server::start`] with a sink for the slow-request log: every
    /// request slower than [`ServeConfig::slow_threshold_us`] is appended
    /// to `slow_log` as one JSON object per line, in addition to the
    /// in-memory ring `admin trace` serves.
    pub fn start_with_slow_log(
        addr: &str,
        cfg: ServeConfig,
        rec: Recorder,
        slow_log: Option<Box<dyn Write + Send>>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.effective_queue_capacity()),
            // One cache shard per worker, so workers rarely contend on
            // one lock.
            cache: cfg
                .effective_cache_capacity()
                .map(|cap| ShardedCache::new(cap, cfg.effective_workers())),
            mapper: HierarchicalMapper::new(),
            rec,
            live: LiveRegistry::new(cfg.effective_telemetry()),
            started: Instant::now(),
            next_conn_id: AtomicU64::new(1),
            busy_workers: AtomicU64::new(0),
            busy_us: AtomicU64::new(0),
            conns_open: AtomicU64::new(0),
            fds_registered: AtomicU64::new(0),
            completions: Mutex::new(Vec::new()),
            wake: WakeFd::new()?,
            slow_ring: Mutex::new(VecDeque::new()),
            slow_writer: slow_log.map(Mutex::new),
            sessions: SessionRegistry::new(&cfg),
            shutdown: AtomicBool::new(false),
            cfg,
        });

        let workers = (0..cfg.effective_workers())
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let event_loop = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-loop".to_string())
                .spawn(move || event_loop(listener, &shared))
                .expect("spawn event-loop thread")
        };

        Ok(ServerHandle {
            addr: local_addr,
            shared,
            event_loop: Some(event_loop),
            workers,
        })
    }
}

/// A running server: its address, its recorder, and the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The recorder the server reports into — read counters or export
    /// metrics from here after (or during) a run.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.rec
    }

    /// The live rolling-window registry the admin endpoint snapshots.
    pub fn live(&self) -> &LiveRegistry {
        &self.shared.live
    }

    /// Begin graceful shutdown from the hosting process: stop accepting,
    /// drain admitted work, then let every thread exit. The doorbell
    /// wakes the loop immediately — there is no polling interval to wait
    /// out.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        self.shared.wake.wake();
    }

    /// Wait for the server to finish. Only returns once shutdown has been
    /// triggered (by [`Self::shutdown`] or a client request) and all
    /// in-flight work has drained.
    pub fn join(mut self) {
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One connection's state machine on the loop: partial-frame read buffer,
/// pending-write buffer, and the in-order dispatch gate.
struct Conn {
    stream: TcpStream,
    /// Guards completions against slab-slot reuse.
    generation: u64,
    conn_id: u64,
    seq: u64,
    /// Bytes read but not yet decoded (may end mid-frame).
    rbuf: Vec<u8>,
    /// Encoded responses not yet written.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has been written.
    wpos: usize,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// `Some(when detected)` once the length-prefix bytes spelled
    /// `"GET "`: the connection is an HTTP scraper, not a frame peer.
    http: Option<Instant>,
    /// The peer closed its write half (EOF observed).
    peer_closed: bool,
    /// Close once `wbuf` drains (oversized frame, HTTP one-shot).
    close_after_flush: bool,
    /// A map job is out with the workers; frames buffered behind it wait
    /// so responses stay in request order.
    inflight: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }
}

/// Loop-private state: the connection slab and drain bookkeeping.
struct LoopState {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    /// Jobs admitted but not yet completed (across all connections).
    inflight_total: usize,
    /// Last accept/frame/completion activity, for the drain linger.
    last_activity: Instant,
}

fn event_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let Ok(epoll) = Epoll::new() else {
        shared.begin_shutdown();
        return;
    };
    let mut listener = Some(listener);
    if let Some(l) = &listener {
        if epoll.add(l.as_raw_fd(), EPOLLIN, TOKEN_LISTENER).is_err() {
            shared.begin_shutdown();
            return;
        }
    }
    if epoll.add(shared.wake.fd(), EPOLLIN, TOKEN_WAKE).is_err() {
        shared.begin_shutdown();
        return;
    }
    shared.fds_registered.store(2, Ordering::Relaxed);

    let mut state = LoopState {
        conns: Vec::new(),
        free: Vec::new(),
        next_generation: 0,
        inflight_total: 0,
        last_activity: Instant::now(),
    };
    let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];

    loop {
        let timeout = next_timeout(&state, shared);
        let n = match epoll.wait(&mut events, timeout) {
            Ok(n) => n,
            Err(_) => {
                shared.begin_shutdown();
                break;
            }
        };
        shared.rec.inc(CounterId::ServeLoopTicks);

        // A drain stops the listener at once; open connections live on.
        if shared.shutting_down() {
            if let Some(l) = listener.take() {
                let _ = epoll.del(l.as_raw_fd());
                shared.fds_registered.fetch_sub(1, Ordering::Relaxed);
            }
        }

        let mut activity = false;
        let mut accept_ready = false;
        let mut touched: Vec<usize> = Vec::new();
        for ev in &events[..n] {
            match ev.token() {
                TOKEN_WAKE => shared.wake.drain(),
                TOKEN_LISTENER => accept_ready = true,
                token => {
                    let slot = (token - TOKEN_CONN_BASE) as usize;
                    if ev.readiness() & EPOLLOUT != 0 {
                        touched.push(slot);
                    }
                    // Read on anything else too (ERR/HUP surface as read
                    // errors or EOF, which is how they are handled).
                    if ev.readiness() & !EPOLLOUT != 0 {
                        match read_into(&mut state.conns, slot) {
                            Ok(read_any) => {
                                activity |= read_any;
                                touched.push(slot);
                            }
                            Err(()) => close_conn(&epoll, &mut state, shared, slot),
                        }
                    }
                }
            }
        }

        if accept_ready {
            if let Some(l) = &listener {
                activity |= accept_burst(&epoll, l, shared, &mut state, &mut touched);
            }
        }

        // Deliver finished jobs before decoding: a connection whose map
        // just completed may have buffered frames waiting their turn.
        activity |= deliver_completions(shared, &mut state, &mut touched);

        // HTTP header timeouts fire even on quiet ticks.
        for slot in 0..state.conns.len() {
            if let Some(conn) = &state.conns[slot] {
                if let Some(started) = conn.http {
                    if started.elapsed() >= HTTP_HEADER_TIMEOUT && !conn.close_after_flush {
                        touched.push(slot);
                    }
                }
            }
        }

        touched.sort_unstable();
        touched.dedup();

        // The batch: every frame decoded across every readable
        // connection this tick, dispatched against the shared state.
        let mut batch: u64 = 0;
        for &slot in &touched {
            process_conn(&epoll, &mut state, shared, slot, &mut batch);
        }
        if batch > 0 {
            activity = true;
            shared.rec.observe(HistId::ServeBatchSize, batch);
            shared.live.observe(HistId::ServeBatchSize, batch);
        }
        for &slot in &touched {
            finalize_conn(&epoll, &mut state, shared, slot);
        }

        if activity {
            state.last_activity = Instant::now();
        }

        if shared.shutting_down()
            && state.inflight_total == 0
            && state.conns.iter().flatten().all(|conn| conn.flushed())
            && state.last_activity.elapsed() >= DRAIN_LINGER
        {
            break;
        }
    }

    // Drop of the slab closes every remaining socket; `epoll` and the
    // listener close on drop as well.
    shared.conns_open.store(0, Ordering::Relaxed);
    shared.fds_registered.store(0, Ordering::Relaxed);
}

/// The epoll timeout for the next tick: `None` (wait forever — accepts,
/// reads, and the doorbell are all edge sources) unless a timer is
/// pending: the drain linger, or an HTTP header deadline.
fn next_timeout(state: &LoopState, shared: &Shared) -> Option<u64> {
    let mut timeout: Option<u64> = None;
    let mut consider = |ms: u64| {
        timeout = Some(timeout.map_or(ms, |t| t.min(ms)));
    };
    if shared.shutting_down() && state.inflight_total == 0 {
        let waited = state.last_activity.elapsed();
        consider(DRAIN_LINGER.saturating_sub(waited).as_millis() as u64 + 1);
    }
    for conn in state.conns.iter().flatten() {
        if let Some(started) = conn.http {
            if !conn.close_after_flush {
                let waited = started.elapsed();
                consider(HTTP_HEADER_TIMEOUT.saturating_sub(waited).as_millis() as u64 + 1);
            }
        }
    }
    timeout
}

/// Accept until the listener runs dry. Returns whether anything arrived.
fn accept_burst(
    epoll: &Epoll,
    listener: &TcpListener,
    shared: &Arc<Shared>,
    state: &mut LoopState,
    touched: &mut Vec<usize>,
) -> bool {
    let mut any = false;
    while let Ok((stream, _)) = listener.accept() {
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let slot = state.free.pop().unwrap_or_else(|| {
            state.conns.push(None);
            state.conns.len() - 1
        });
        let token = TOKEN_CONN_BASE + slot as u64;
        if epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
            .is_err()
        {
            state.free.push(slot);
            continue;
        }
        state.next_generation += 1;
        state.conns[slot] = Some(Conn {
            stream,
            generation: state.next_generation,
            conn_id: shared.next_conn_id.fetch_add(1, Ordering::Relaxed),
            seq: 0,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            http: None,
            peer_closed: false,
            close_after_flush: false,
            inflight: false,
        });
        shared.rec.inc(CounterId::ServeConnsAccepted);
        shared.conns_open.fetch_add(1, Ordering::Relaxed);
        shared.fds_registered.fetch_add(1, Ordering::Relaxed);
        touched.push(slot);
        any = true;
    }
    any
}

/// Read everything currently available on `slot` into its `rbuf`.
/// `Err(())` means the transport failed and the connection must close.
fn read_into(conns: &mut [Option<Conn>], slot: usize) -> Result<bool, ()> {
    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
        return Ok(false);
    };
    let mut buf = [0u8; 4096];
    let mut any = false;
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.peer_closed = true;
                return Ok(any);
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&buf[..n]);
                any = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(any),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// Route finished jobs back to their connections. The generation check
/// drops completions addressed to a connection that closed and whose
/// slot was reused while the job was with a worker.
fn deliver_completions(
    shared: &Arc<Shared>,
    state: &mut LoopState,
    touched: &mut Vec<usize>,
) -> bool {
    let pending = std::mem::take(&mut *shared.completions.lock().unwrap());
    let any = !pending.is_empty();
    for comp in pending {
        state.inflight_total -= 1;
        let Some(conn) = state.conns.get_mut(comp.slot).and_then(Option::as_mut) else {
            continue;
        };
        if conn.generation != comp.generation {
            continue;
        }
        conn.inflight = false;
        let cached = matches!(comp.done.response, Response::Map { cached: true, .. });
        let handled = Handled {
            response: comp.done.response,
            kind: "map",
            parse_us: comp.parse_us,
            queue_us: comp.done.queue_us,
            compute_us: comp.done.compute_us,
            cached,
        };
        let total_us = comp.started.elapsed().as_micros() as u64;
        finish_request(shared, comp.req_id, &handled, total_us);
        queue_response(shared, conn, &handled.response);
        touched.push(comp.slot);
    }
    any
}

/// What one decode attempt on a read buffer yielded.
enum Decoded {
    /// A complete, valid frame payload (consumed from the buffer).
    Frame(Json),
    /// A complete frame whose payload is not UTF-8/JSON (consumed; the
    /// framing itself stayed intact, so the connection survives).
    BadPayload(String),
    /// The length prefix announces more than the cap allows.
    TooLarge(usize),
    /// Not enough bytes yet.
    NeedMore,
}

fn decode_one(rbuf: &mut Vec<u8>, max_bytes: usize) -> Decoded {
    if rbuf.len() < 4 {
        return Decoded::NeedMore;
    }
    let len = u32::from_be_bytes([rbuf[0], rbuf[1], rbuf[2], rbuf[3]]) as usize;
    if len > max_bytes {
        return Decoded::TooLarge(len);
    }
    if rbuf.len() < 4 + len {
        return Decoded::NeedMore;
    }
    let parsed = match std::str::from_utf8(&rbuf[4..4 + len]) {
        Ok(text) => Json::parse(text).map_err(|e| e.message),
        Err(e) => Err(format!("not UTF-8: {e}")),
    };
    rbuf.drain(..4 + len);
    match parsed {
        Ok(json) => Decoded::Frame(json),
        Err(message) => Decoded::BadPayload(message),
    }
}

/// Decode and dispatch everything ready on `slot`: detect HTTP, decode
/// frames in order (pausing behind an in-flight map so responses keep
/// request order), answer inline kinds, and admit map jobs.
fn process_conn(
    epoll: &Epoll,
    state: &mut LoopState,
    shared: &Arc<Shared>,
    slot: usize,
    batch: &mut u64,
) {
    let max_bytes = shared.cfg.effective_max_frame_bytes();
    loop {
        let Some(conn) = state.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.close_after_flush {
            return;
        }
        if conn.http.is_none() && conn.rbuf.len() >= 4 && &conn.rbuf[..4] == b"GET " {
            // An HTTP scraper announced itself in the length-prefix
            // position ("GET " as a big-endian u32 would be a ~1.2 GiB
            // frame, so the protocols cannot collide under any sane cap).
            if !shared.cfg.http_stats {
                close_conn(epoll, state, shared, slot);
                return;
            }
            let Some(conn) = state.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            conn.http = Some(Instant::now());
        }
        let Some(conn) = state.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.http.is_some() {
            try_finish_http(shared, conn);
            return;
        }
        if conn.inflight {
            // Frames behind the in-flight map stay buffered in `rbuf`
            // until its completion reopens the gate.
            return;
        }
        match decode_one(&mut conn.rbuf, max_bytes) {
            Decoded::NeedMore => return,
            Decoded::BadPayload(message) => {
                *batch += 1;
                queue_response(
                    shared,
                    conn,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        message: FrameError::Parse(message).to_string(),
                    },
                );
            }
            Decoded::TooLarge(len) => {
                // Oversized frames cannot be resynchronized without
                // reading (and discarding) the announced bytes; answer,
                // then close once the answer flushes.
                queue_response(
                    shared,
                    conn,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        message: FrameError::TooLarge(len).to_string(),
                    },
                );
                conn.close_after_flush = true;
                return;
            }
            Decoded::Frame(json) => {
                *batch += 1;
                let started = Instant::now();
                conn.seq += 1;
                let req_id = (conn.conn_id << 32) | (conn.seq & 0xffff_ffff);
                let generation = conn.generation;
                match handle_frame(&json, shared, req_id, slot, generation, started) {
                    Dispatch::Reply(handled) => {
                        let total_us = started.elapsed().as_micros() as u64;
                        finish_request(shared, req_id, &handled, total_us);
                        let Some(conn) = state.conns.get_mut(slot).and_then(Option::as_mut) else {
                            return;
                        };
                        queue_response(shared, conn, &handled.response);
                    }
                    Dispatch::InFlight => {
                        let Some(conn) = state.conns.get_mut(slot).and_then(Option::as_mut) else {
                            return;
                        };
                        conn.inflight = true;
                        state.inflight_total += 1;
                    }
                }
            }
        }
    }
}

/// Flush pending writes, then settle the connection's fate: close when
/// flagged (or the peer is gone and nothing is owed), otherwise keep the
/// epoll interest mask in step with whether writes are pending.
fn finalize_conn(epoll: &Epoll, state: &mut LoopState, shared: &Arc<Shared>, slot: usize) {
    let Some(conn) = state.conns.get_mut(slot).and_then(Option::as_mut) else {
        return;
    };
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                close_conn(epoll, state, shared, slot);
                return;
            }
        }
    }
    if conn.flushed() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    let flushed = conn.flushed();
    if conn.close_after_flush && flushed {
        close_conn(epoll, state, shared, slot);
        return;
    }
    // Clean EOF with nothing owed and nothing in flight: the peer hung
    // up (any partial frame left in `rbuf` dies silently, matching the
    // old mid-frame-EOF behavior).
    if conn.peer_closed && flushed && !conn.inflight && conn.http.is_none() {
        let has_complete_frame = conn.rbuf.len() >= 4 && {
            let len = u32::from_be_bytes([conn.rbuf[0], conn.rbuf[1], conn.rbuf[2], conn.rbuf[3]])
                as usize;
            len > shared.cfg.effective_max_frame_bytes() || conn.rbuf.len() >= 4 + len
        };
        if !has_complete_frame {
            close_conn(epoll, state, shared, slot);
            return;
        }
    }
    let want = EPOLLIN | EPOLLRDHUP | if flushed { 0 } else { EPOLLOUT };
    if want != conn.interest
        && epoll
            .modify(conn.stream.as_raw_fd(), want, TOKEN_CONN_BASE + slot as u64)
            .is_ok()
    {
        conn.interest = want;
    }
}

fn close_conn(epoll: &Epoll, state: &mut LoopState, shared: &Shared, slot: usize) {
    if let Some(conn) = state.conns.get_mut(slot).and_then(Option::take) {
        let _ = epoll.del(conn.stream.as_raw_fd());
        state.free.push(slot);
        shared.conns_open.fetch_sub(1, Ordering::Relaxed);
        shared.fds_registered.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Answer the HTTP exposition once the header is complete (blank line),
/// the peer stopped sending, the cap is hit, or the header timeout
/// passed — whichever comes first.
fn try_finish_http(shared: &Shared, conn: &mut Conn) {
    let Some(started) = conn.http else { return };
    if conn.close_after_flush {
        return;
    }
    let complete = conn.rbuf.windows(4).any(|w| w == b"\r\n\r\n")
        || conn.peer_closed
        || conn.rbuf.len() >= HTTP_HEADER_CAP
        || started.elapsed() >= HTTP_HEADER_TIMEOUT;
    if !complete {
        return;
    }
    let body = exposition_text(shared);
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    conn.wbuf.extend_from_slice(response.as_bytes());
    conn.close_after_flush = true;
}

/// Count an outgoing error frame by its stable code, then append the
/// encoded frame to the connection's write buffer. The single choke
/// point: every error answer — from frame decoding, admission control,
/// the workers — is counted exactly once, and the counters stay ahead of
/// the client's view of the response.
fn queue_response(shared: &Shared, conn: &mut Conn, response: &Response) {
    if let Response::Error { code, .. } = response {
        let counter = match code {
            ErrorCode::BadFrame => CounterId::ServeBadFrames,
            ErrorCode::BadRequest => CounterId::ServeBadRequests,
            ErrorCode::Overloaded => CounterId::ServeOverloaded,
            ErrorCode::Timeout => CounterId::ServeTimeouts,
            ErrorCode::ShuttingDown => CounterId::ServeShuttingDown,
            ErrorCode::Internal => CounterId::ServeInternalErrors,
        };
        shared.rec.inc(counter);
    }
    // Writing into a Vec cannot fail.
    let _ = write_frame(&mut conn.wbuf, &response.to_json());
}

/// A handled request: the answer plus everything the telemetry plane
/// wants to know about how it went.
struct Handled {
    response: Response,
    /// Stable request-kind name (`map`, `health`, … or `?` for frames
    /// that failed validation).
    kind: &'static str,
    parse_us: u64,
    queue_us: u64,
    compute_us: u64,
    cached: bool,
}

impl Handled {
    fn inline(response: Response, kind: &'static str, parse_us: u64) -> Handled {
        Handled {
            response,
            kind,
            parse_us,
            queue_us: 0,
            compute_us: 0,
            cached: false,
        }
    }
}

/// How a frame was dispatched: answered now, or admitted to the workers
/// (the answer arrives later as a [`Completion`]).
enum Dispatch {
    Reply(Handled),
    InFlight,
}

/// Post-response bookkeeping: span timings into the live windows and the
/// event ring, plus the slow-request log.
fn finish_request(shared: &Shared, req_id: u64, done: &Handled, total_us: u64) {
    let outcome = match &done.response {
        Response::Error { code, .. } => code.as_str(),
        _ => "ok",
    };
    if done.kind == "map" {
        shared.rec.observe(HistId::ServeRequestLatencyUs, total_us);
        shared.live.observe(HistId::ServeRequestLatencyUs, total_us);
    }
    let kind = done.kind;
    let (parse_us, queue_us, compute_us, cached) =
        (done.parse_us, done.queue_us, done.compute_us, done.cached);
    shared.rec.emit(|_| Event::ServeRequest {
        req_id,
        kind,
        parse_us,
        queue_us,
        compute_us,
        total_us,
        cached,
        outcome,
    });
    if let Some(threshold) = shared.cfg.effective_slow_threshold_us() {
        if total_us >= threshold {
            shared.rec.inc(CounterId::ServeSlowRequests);
            let entry = Json::obj(vec![
                ("req_id", Json::U64(req_id)),
                ("kind", Json::Str(kind.into())),
                ("parse_us", Json::U64(parse_us)),
                ("queue_us", Json::U64(queue_us)),
                ("compute_us", Json::U64(compute_us)),
                ("total_us", Json::U64(total_us)),
                ("cached", Json::Bool(cached)),
                ("outcome", Json::Str(outcome.into())),
            ]);
            if let Some(writer) = &shared.slow_writer {
                let mut w = writer.lock().unwrap();
                let _ = writeln!(w, "{}", entry.render());
                let _ = w.flush();
            }
            let mut ring = shared.slow_ring.lock().unwrap();
            if ring.len() == SLOW_RING_CAP {
                ring.pop_front();
            }
            ring.push_back(entry);
        }
    }
}

fn handle_frame(
    json: &Json,
    shared: &Arc<Shared>,
    req_id: u64,
    slot: usize,
    generation: u64,
    started: Instant,
) -> Dispatch {
    let parse_start = Instant::now();
    if let Err(message) = check_version(json) {
        return Dispatch::Reply(Handled::inline(
            Response::Error {
                code: ErrorCode::BadFrame,
                message,
            },
            "?",
            parse_start.elapsed().as_micros() as u64,
        ));
    }
    let request = match Request::from_json(json) {
        Ok(request) => request,
        Err(message) => {
            return Dispatch::Reply(Handled::inline(
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message,
                },
                "?",
                parse_start.elapsed().as_micros() as u64,
            ))
        }
    };
    let parse_us = parse_start.elapsed().as_micros() as u64;
    shared.rec.inc(CounterId::ServeRequests);
    let reply = |handled| Dispatch::Reply(handled);
    match request {
        Request::Health => reply(Handled::inline(Response::Health, "health", parse_us)),
        Request::Stats => reply(Handled::inline(
            Response::Stats(stats_doc(shared)),
            "stats",
            parse_us,
        )),
        Request::Admin { kind } => {
            let doc = match kind {
                AdminKind::Stats => admin_stats_doc(shared),
                AdminKind::Health => admin_health_doc(shared),
                AdminKind::Trace => admin_trace_doc(shared),
                AdminKind::Flight => admin_flight_doc(shared),
                AdminKind::Sessions => admin_sessions_doc(shared),
            };
            reply(Handled::inline(
                Response::Admin { kind, doc },
                "admin",
                parse_us,
            ))
        }
        Request::OpenSession {
            topo,
            decay_shift,
            drift_threshold_ppm,
            cooldown_deltas,
        } => {
            if shared.shutting_down() {
                return reply(Handled::inline(drain_refusal(), "open_session", parse_us));
            }
            let start = Instant::now();
            let response = match shared.sessions.open(
                topo,
                decay_shift,
                drift_threshold_ppm,
                cooldown_deltas,
                &shared.rec,
            ) {
                Ok((session, mapping)) => Response::OpenSession { session, mapping },
                Err((code, message)) => Response::Error { code, message },
            };
            let mut done = Handled::inline(response, "open_session", parse_us);
            done.compute_us = start.elapsed().as_micros() as u64;
            reply(done)
        }
        Request::Delta { session, delta } => {
            if shared.shutting_down() {
                return reply(Handled::inline(drain_refusal(), "delta", parse_us));
            }
            let start = Instant::now();
            let response = match shared.sessions.delta(session, &delta, &shared.rec) {
                Ok(outcome) => Response::Delta {
                    session,
                    seq: outcome.seq,
                    similarity_ppm: outcome.similarity_ppm,
                    decision: outcome.decision,
                    mapping: outcome.mapping,
                },
                Err((code, message)) => Response::Error { code, message },
            };
            let mut done = Handled::inline(response, "delta", parse_us);
            done.compute_us = start.elapsed().as_micros() as u64;
            reply(done)
        }
        // Close is honoured even while draining: it is how a streaming
        // client finishes, so a drain must not strand its sessions.
        Request::CloseSession { session } => {
            let response = match shared.sessions.close(session, &shared.rec) {
                Ok((deltas, remaps)) => Response::CloseSession {
                    session,
                    deltas,
                    remaps,
                },
                Err((code, message)) => Response::Error { code, message },
            };
            reply(Handled::inline(response, "close_session", parse_us))
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            reply(Handled::inline(Response::Shutdown, "shutdown", parse_us))
        }
        Request::Map {
            matrix,
            topo,
            deadline_ms,
            delay_ms,
        } => {
            shared.rec.inc(CounterId::ServeMapRequests);
            let refused = |code: ErrorCode, message: String| {
                Dispatch::Reply(Handled {
                    response: Response::Error { code, message },
                    kind: "map",
                    parse_us,
                    queue_us: 0,
                    compute_us: 0,
                    cached: false,
                })
            };
            if shared.shutting_down() {
                return refused(
                    ErrorCode::ShuttingDown,
                    "server is draining for shutdown".to_string(),
                );
            }
            let deadline = deadline_ms
                .or(shared.cfg.effective_default_deadline_ms())
                .map(|ms| started + Duration::from_millis(ms));
            let job = Job {
                req_id,
                slot,
                generation,
                parse_us,
                started,
                matrix,
                topo,
                deadline,
                delay_ms,
                enqueued_at: started,
            };
            match shared.queue.try_push(job) {
                Ok(depth) => {
                    shared.rec.observe(HistId::ServeQueueDepth, depth as u64);
                    shared.live.observe(HistId::ServeQueueDepth, depth as u64);
                    Dispatch::InFlight
                }
                Err(SubmitError::Full) => refused(
                    ErrorCode::Overloaded,
                    format!(
                        "work queue is full ({} requests waiting)",
                        shared.cfg.effective_queue_capacity()
                    ),
                ),
                Err(SubmitError::Closed) => refused(
                    ErrorCode::ShuttingDown,
                    "server is draining for shutdown".to_string(),
                ),
            }
        }
    }
}

/// The legacy `stats` document (stable keys — older clients parse these).
fn stats_doc(shared: &Shared) -> Json {
    let rec = &shared.rec;
    Json::obj(vec![
        ("requests", Json::U64(rec.counter(CounterId::ServeRequests))),
        (
            "overloaded",
            Json::U64(rec.counter(CounterId::ServeOverloaded)),
        ),
        ("timeouts", Json::U64(rec.counter(CounterId::ServeTimeouts))),
        (
            "cache_hits",
            Json::U64(rec.counter(CounterId::ServeCacheHits)),
        ),
        (
            "cache_misses",
            Json::U64(rec.counter(CounterId::ServeCacheMisses)),
        ),
        ("queue_depth", Json::U64(shared.queue.depth() as u64)),
        (
            "cache_entries",
            Json::U64(shared.cache.as_ref().map_or(0, ShardedCache::len) as u64),
        ),
        ("workers", Json::U64(shared.cfg.effective_workers() as u64)),
    ])
}

/// The `admin stats` document: a flat object (easy to grep, easy for
/// `tlbmap top` to tabulate) of counters, gauges, and the rolling-window
/// latency quantiles, plus a nested `loop` object describing the event
/// loop. Quantile keys are `null` when the window is empty.
fn admin_stats_doc(shared: &Shared) -> Json {
    let rec = &shared.rec;
    let c = |id: CounterId| Json::U64(rec.counter(id));
    // Satellite fix: the queue depth histograms were only fed at enqueue,
    // so an idle (or fully drained) queue was invisible. Sampling here
    // makes every admin snapshot a depth observation too.
    let depth = shared.queue.depth() as u64;
    rec.observe(HistId::ServeQueueDepth, depth);
    shared.live.observe(HistId::ServeQueueDepth, depth);

    let uptime_ms = shared.uptime_ms();
    let workers = shared.cfg.effective_workers() as u64;
    let busy_us = shared.busy_us.load(Ordering::Relaxed);
    let capacity_us = (uptime_ms * 1000).max(1) * workers;
    let utilization = (busy_us as f64 / capacity_us as f64).min(1.0);

    let window = shared.live.window(HistId::ServeRequestLatencyUs);
    let lifetime = shared.live.lifetime(HistId::ServeRequestLatencyUs);
    let window_ms = shared.live.window_ms();
    let window_rps = window.count as f64 / (window_ms as f64 / 1000.0);
    let q = |snap: Option<u64>| snap.map_or(Json::Null, Json::U64);

    let ticks = rec.counter(CounterId::ServeLoopTicks);
    let ticks_per_s = ticks as f64 / (uptime_ms.max(1) as f64 / 1000.0);
    let batch = shared.live.window(HistId::ServeBatchSize);
    let loop_doc = Json::obj(vec![
        ("ticks", Json::U64(ticks)),
        ("ticks_per_s", Json::F64(ticks_per_s)),
        (
            "fds",
            Json::U64(shared.fds_registered.load(Ordering::Relaxed)),
        ),
        (
            "conns_open",
            Json::U64(shared.conns_open.load(Ordering::Relaxed)),
        ),
        ("conns_accepted", c(CounterId::ServeConnsAccepted)),
        ("batch_p50", q(batch.quantile(50.0))),
        ("batch_p99", q(batch.quantile(99.0))),
    ]);

    Json::obj(vec![
        ("uptime_ms", Json::U64(uptime_ms)),
        ("requests", c(CounterId::ServeRequests)),
        ("map_requests", c(CounterId::ServeMapRequests)),
        ("queue_depth", Json::U64(depth)),
        (
            "queue_capacity",
            Json::U64(shared.cfg.effective_queue_capacity() as u64),
        ),
        ("workers", Json::U64(workers)),
        (
            "workers_busy",
            Json::U64(shared.busy_workers.load(Ordering::Relaxed)),
        ),
        ("utilization", Json::F64(utilization)),
        ("cache_hits", c(CounterId::ServeCacheHits)),
        ("cache_misses", c(CounterId::ServeCacheMisses)),
        ("cache_coalesced", c(CounterId::ServeCacheCoalesced)),
        (
            "cache_entries",
            Json::U64(shared.cache.as_ref().map_or(0, ShardedCache::len) as u64),
        ),
        ("err_bad_frame", c(CounterId::ServeBadFrames)),
        ("err_bad_request", c(CounterId::ServeBadRequests)),
        ("err_overloaded", c(CounterId::ServeOverloaded)),
        ("err_timeout", c(CounterId::ServeTimeouts)),
        ("err_shutting_down", c(CounterId::ServeShuttingDown)),
        ("err_internal", c(CounterId::ServeInternalErrors)),
        ("window_ms", Json::U64(window_ms)),
        ("window_count", Json::U64(window.count)),
        ("window_rps", Json::F64(window_rps)),
        ("window_p50_us", q(window.quantile(50.0))),
        ("window_p90_us", q(window.quantile(90.0))),
        ("window_p99_us", q(window.quantile(99.0))),
        ("lifetime_p50_us", q(lifetime.quantile(50.0))),
        ("lifetime_p99_us", q(lifetime.quantile(99.0))),
        ("slow_threshold_us", Json::U64(shared.cfg.slow_threshold_us)),
        ("slow_requests", c(CounterId::ServeSlowRequests)),
        (
            "open_sessions",
            Json::U64(shared.sessions.open_count(rec) as u64),
        ),
        ("sessions_opened", c(CounterId::SessionsOpened)),
        ("sessions_closed", c(CounterId::SessionsClosed)),
        ("sessions_evicted", c(CounterId::SessionsEvicted)),
        ("session_deltas", c(CounterId::SessionDeltas)),
        ("remaps_triggered", c(CounterId::RemapsTriggered)),
        ("remaps_suppressed", c(CounterId::RemapsSuppressed)),
        ("loop", loop_doc),
    ])
}

/// The `admin sessions` document: the same counters the stats document
/// carries (so `tlbmap top` needs one scrape), plus one row per open
/// session.
fn admin_sessions_doc(shared: &Shared) -> Json {
    let rec = &shared.rec;
    let c = |id: CounterId| Json::U64(rec.counter(id));
    let rows: Vec<Json> = shared
        .sessions
        .summaries(rec)
        .into_iter()
        .map(|row| {
            Json::obj(vec![
                ("id", Json::U64(row.id)),
                ("threads", Json::U64(row.threads as u64)),
                ("deltas", Json::U64(row.deltas)),
                ("remaps", Json::U64(row.remaps)),
                ("last_similarity_ppm", Json::U64(row.last_similarity_ppm)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("open_sessions", Json::U64(rows.len() as u64)),
        (
            "max_sessions",
            Json::U64(shared.cfg.effective_max_sessions() as u64),
        ),
        ("sessions_opened", c(CounterId::SessionsOpened)),
        ("sessions_closed", c(CounterId::SessionsClosed)),
        ("sessions_evicted", c(CounterId::SessionsEvicted)),
        ("session_deltas", c(CounterId::SessionDeltas)),
        ("remaps_triggered", c(CounterId::RemapsTriggered)),
        ("remaps_suppressed", c(CounterId::RemapsSuppressed)),
        ("sessions", Json::Arr(rows)),
    ])
}

/// The refusal open/delta frames get while the server drains.
fn drain_refusal() -> Response {
    Response::Error {
        code: ErrorCode::ShuttingDown,
        message: "server is draining for shutdown".to_string(),
    }
}

/// The `admin health` document: liveness with uptime and drain state.
fn admin_health_doc(shared: &Shared) -> Json {
    let draining = shared.shutting_down();
    Json::obj(vec![
        (
            "status",
            Json::Str(if draining { "draining" } else { "ok" }.into()),
        ),
        ("uptime_ms", Json::U64(shared.uptime_ms())),
        ("shutting_down", Json::Bool(draining)),
    ])
}

/// The `admin trace` document: the slow-request ring, oldest first.
fn admin_trace_doc(shared: &Shared) -> Json {
    Json::Arr(shared.slow_ring.lock().unwrap().iter().cloned().collect())
}

/// The `admin flight` document: the recorder's flight section (retained
/// windows, phase timeline, per-phase aggregates), or `null` when the
/// flight recorder is disabled.
fn admin_flight_doc(shared: &Shared) -> Json {
    shared.rec.flight_json()
}

/// Render the plain-text exposition: one `tlbmap_<key> <value>` line per
/// numeric field of the admin stats document, in document order. The
/// nested `loop` object flattens to `tlbmap_loop_<key>` lines.
fn exposition_text(shared: &Shared) -> String {
    let doc = admin_stats_doc(shared);
    let mut out = String::new();
    let mut line = |key: &str, value: &Json| match value {
        Json::U64(n) => out.push_str(&format!("tlbmap_{key} {n}\n")),
        Json::F64(x) => out.push_str(&format!("tlbmap_{key} {x:.6}\n")),
        // Null quantiles (empty window) are omitted rather than
        // reported as 0 — a scraper must not graph "infinitely
        // fast" out of "no traffic".
        _ => {}
    };
    if let Json::Obj(pairs) = &doc {
        for (key, value) in pairs {
            if let ("loop", Json::Obj(inner)) = (key.as_str(), value) {
                for (k, v) in inner {
                    line(&format!("loop_{k}"), v);
                }
            } else {
                line(key, value);
            }
        }
    }
    out
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((job, depth)) = shared.queue.pop() {
        // Satellite fix: sample the depth at dequeue too, so the
        // histograms see the queue draining, not only filling.
        shared.rec.observe(HistId::ServeQueueDepth, depth as u64);
        shared.live.observe(HistId::ServeQueueDepth, depth as u64);
        let queue_us = job.enqueued_at.elapsed().as_micros() as u64;
        shared.busy_workers.fetch_add(1, Ordering::Relaxed);
        let busy_start = Instant::now();
        if job.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(job.delay_ms));
        }
        let expired = job
            .deadline
            .is_some_and(|deadline| Instant::now() > deadline);
        let response = if expired {
            Response::Error {
                code: ErrorCode::Timeout,
                message: format!(
                    "request {:#x}: deadline passed before a worker reached it",
                    job.req_id
                ),
            }
        } else {
            compute_map(shared, &job.matrix, &job.topo)
        };
        let compute_us = busy_start.elapsed().as_micros() as u64;
        shared.busy_us.fetch_add(compute_us, Ordering::Relaxed);
        shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
        shared.completions.lock().unwrap().push(Completion {
            slot: job.slot,
            generation: job.generation,
            req_id: job.req_id,
            parse_us: job.parse_us,
            started: job.started,
            done: WorkerDone {
                response,
                queue_us,
                compute_us,
            },
        });
        shared.wake.wake();
    }
}

fn compute_map(shared: &Arc<Shared>, matrix: &CommMatrix, topo: &Topology) -> Response {
    // The cache key is scale-invariant, so a matrix above the mapper's
    // bound could hit its scaled-down pattern's entry. Refuse it before
    // the lookup: the answer must not depend on what is cached.
    if let Err(message) = check_matrix_total(matrix) {
        return Response::Error {
            code: ErrorCode::BadRequest,
            message,
        };
    }
    let mapper = &shared.mapper;
    let compute = || mapper.try_map(matrix, topo).map(|m| m.as_slice().to_vec());
    let (result, outcome) = match &shared.cache {
        Some(cache) => {
            let key = CacheKey {
                fingerprint: matrix.fingerprint(),
                chips: topo.chips,
                l2_per_chip: topo.l2_per_chip,
                cores_per_l2: topo.cores_per_l2,
            };
            cache.get_or_compute(key, compute)
        }
        None => (compute(), CacheOutcome::Miss),
    };
    match outcome {
        CacheOutcome::Hit => shared.rec.inc(CounterId::ServeCacheHits),
        CacheOutcome::Coalesced => {
            // A coalesced follower is a hit for rate purposes (stable
            // `cache_hits` semantics), counted separately as well.
            shared.rec.inc(CounterId::ServeCacheHits);
            shared.rec.inc(CounterId::ServeCacheCoalesced);
        }
        CacheOutcome::Miss => shared.rec.inc(CounterId::ServeCacheMisses),
    }
    match result {
        Ok(mapping) => Response::Map {
            mapping,
            cached: outcome != CacheOutcome::Miss,
        },
        Err(message) => Response::Error {
            code: ErrorCode::BadRequest,
            message,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The integers held packed anywhere in `json`.
    fn packed_integers(json: &Json) -> usize {
        match json {
            Json::U64s(values) => values.len(),
            Json::Arr(items) => items.iter().map(packed_integers).sum(),
            Json::Obj(pairs) => pairs.iter().map(|(_, v)| packed_integers(v)).sum(),
            _ => 0,
        }
    }

    /// A framed `map` request for an `n`-thread matrix with `cells`.
    fn map_frame(n: usize, cells: &[(usize, usize, u64)]) -> Vec<u8> {
        let mut matrix = CommMatrix::new(n);
        for &(i, j, v) in cells {
            if i < n && j < n {
                matrix.add(i, j, v);
            }
        }
        let request = Request::Map {
            matrix,
            topo: Topology::new(1, 1, n),
            deadline_ms: Some(5),
            delay_ms: 0,
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &request.to_json()).unwrap();
        frame
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn decode_one_takes_one_whole_frame_or_nothing(
            (n, cells) in (1usize..12, prop::collection::vec((0usize..12, 0usize..12, 0u64..100_000), 0..10)),
            (noise, noise_len) in (prop::collection::vec(0usize..16, 0..64), 0usize..64),
            edits in prop::collection::vec((0usize..4096, 0usize..40, 0u8..=255), 0..6),
            (prefix, delta, raw) in (0u8..5, 0usize..8, any::<u32>()),
            (cut, max_bytes, next) in (0usize..4096, prop_oneof![Just(1usize << 20), 0usize..64, 0usize..1024], any::<bool>()),
        ) {
            // The payload: a map request (packed rows), or a run of bytes
            // that make integer arrays, some of them broken.
            let mut buf = if noise.is_empty() {
                map_frame(n, &cells)
            } else {
                let alphabet = b"[[]],,,0123456789 -.";
                let mut payload = vec![b'['];
                payload.extend(noise.iter().cycle().take(noise.len() + noise_len).map(|&k| {
                    alphabet.get(k).copied().unwrap_or(b'7')
                }));
                payload.push(b']');
                [&(payload.len() as u32).to_be_bytes()[..], &payload].concat()
            };
            let steering = b"[]{},:\"-.eE09 \\\0\xff";
            for (at, pick, byte) in edits {
                let at = 4 + at % (buf.len() - 4).max(1);
                if at < buf.len() {
                    buf[at] = steering.get(pick).copied().unwrap_or(byte);
                }
            }
            // The length prefix: kept, off by a few either way, arbitrary
            // or near `u32::MAX`.
            let actual = buf.len() - 4;
            let len = match prefix {
                0 | 1 => actual as u32,
                2 => (actual + delta) as u32,
                3 => actual.saturating_sub(delta) as u32,
                _ => raw | if delta % 2 == 0 { 0 } else { 0xff00_0000 },
            };
            buf[..4].copy_from_slice(&len.to_be_bytes());
            if cut < buf.len() && cut % 3 == 0 {
                buf.truncate(cut);
            }
            if next {
                buf.extend_from_slice(&map_frame(2, &[(0, 1, 3)]));
            }

            let before = buf.clone();
            let decoded = decode_one(&mut buf, max_bytes);
            let consumed = before.len() - buf.len();
            let len = len as usize;
            prop_assert_eq!(&before[consumed..], &buf[..]);
            match decoded {
                Decoded::Frame(json) => {
                    prop_assert!(len <= max_bytes && consumed == 4 + len);
                    // Every integer of a packed array took a digit and a
                    // `,` or `]` of the payload.
                    prop_assert!(2 * packed_integers(&json) <= len, "{}", json.render());
                }
                Decoded::BadPayload(_) => prop_assert!(len <= max_bytes && consumed == 4 + len),
                Decoded::TooLarge(claimed) => {
                    prop_assert!(claimed == len && len > max_bytes && consumed == 0);
                }
                Decoded::NeedMore => {
                    prop_assert!(consumed == 0 && (before.len() < 4 || before.len() < 4 + len));
                }
            }
        }
    }

    #[test]
    fn decode_one_reads_a_packed_map_frame_and_leaves_the_next() {
        let mut buf = map_frame(4, &[(0, 1, 9), (2, 3, 1234)]);
        let first = buf.len();
        buf.extend_from_slice(&map_frame(2, &[(0, 1, 3)]));
        let Decoded::Frame(json) = decode_one(&mut buf, 1 << 20) else {
            panic!("a whole frame decodes");
        };
        assert_eq!(packed_integers(&json), 16);
        assert_eq!(buf, map_frame(2, &[(0, 1, 3)]));
        assert!(first > buf.len());
        let Ok(Request::Map { matrix, .. }) = Request::from_json(&json) else {
            panic!("the frame is a map request");
        };
        assert_eq!((matrix.get(0, 1), matrix.get(3, 2)), (9, 1234));
        buf.truncate(buf.len() - 1);
        assert!(matches!(decode_one(&mut buf, 1 << 20), Decoded::NeedMore));
        assert!(matches!(decode_one(&mut buf, 8), Decoded::TooLarge(_)));
    }
}
