//! End-to-end tests over a loopback TCP connection: a real server, real
//! client, real frames — exercising correctness, error paths,
//! backpressure, deadlines, and graceful shutdown.

use std::time::Duration;

use tlbmap_core::{CommMatrix, DecayedMatrix};
use tlbmap_mapping::HierarchicalMapper;
use tlbmap_obs::{CounterId, Event, Json, ObsConfig, Recorder};
use tlbmap_serve::{
    run_curve, AdminKind, Client, CurveConfig, DeltaDecision, ErrorCode, ServeConfig, ServeError,
    Server, ServerHandle,
};
use tlbmap_sim::Topology;

fn ring_matrix(n: usize) -> CommMatrix {
    let mut m = CommMatrix::new(n);
    for t in 0..n {
        m.add(t, (t + 1) % n, 50 + t as u64);
    }
    m
}

fn start(cfg: ServeConfig) -> ServerHandle {
    let rec = Recorder::new(ObsConfig::new(0).with_ring_capacity(64));
    Server::start("127.0.0.1:0", cfg, rec).expect("bind loopback server")
}

#[test]
fn served_mapping_matches_the_direct_library_call() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let matrix = ring_matrix(8);
    let topo = Topology::harpertown();

    let mut client = Client::connect(&addr).unwrap();
    let reply = client.map(&matrix, &topo, None, 0).unwrap();
    let direct = HierarchicalMapper::new().map(&matrix, &topo);
    assert_eq!(reply.mapping, direct.as_slice().to_vec());
    assert!(!reply.cached, "first request must be a cache miss");

    // The identical request again: served from cache, same answer.
    let again = client.map(&matrix, &topo, None, 0).unwrap();
    assert_eq!(again.mapping, reply.mapping);
    assert!(again.cached, "second identical request must hit the cache");

    // A uniformly scaled matrix shares the fingerprint, so it hits too.
    let mut scaled = CommMatrix::new(8);
    for (a, b, v) in matrix.pairs() {
        scaled.add(a, b, v * 3);
    }
    let scaled_reply = client.map(&scaled, &topo, None, 0).unwrap();
    assert!(scaled_reply.cached);
    assert_eq!(scaled_reply.mapping, reply.mapping);

    assert!(handle.recorder().counter(CounterId::ServeCacheHits) >= 2);
    assert_eq!(handle.recorder().counter(CounterId::ServeCacheMisses), 1);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn matrices_above_the_mapper_bound_answer_bad_request() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let topo = Topology::harpertown();
    let mut client = Client::connect(&addr).unwrap();
    let expect_bound_error = |result: Result<(), ServeError>| match result {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("bound"), "{message}");
        }
        other => panic!("expected a bad_request naming the bound, got {other:?}"),
    };

    // Saturated cells whose total does not fit a u64.
    let mut saturated = CommMatrix::new(8);
    for (a, b) in [(0, 5), (1, 2), (0, 1)] {
        saturated.add(a, b, u64::MAX);
    }
    expect_bound_error(client.map(&saturated, &topo, None, 0).map(drop));

    // A cached pattern scaled past the bound shares its fingerprint, but
    // is refused rather than answered from the cache.
    let ring = ring_matrix(8);
    client.map(&ring, &topo, None, 0).unwrap();
    let mut scaled = CommMatrix::new(8);
    for (a, b, v) in ring.pairs() {
        scaled.add(a, b, v << 54);
    }
    assert_eq!(scaled.fingerprint(), ring.fingerprint());
    expect_bound_error(client.map(&scaled, &topo, None, 0).map(drop));

    // A session delta that would push the window past the bound is
    // refused and leaves the session usable.
    let (session, _) = client.open_session(&topo, None, None, None).unwrap();
    expect_bound_error(client.delta(session, &saturated).map(drop));
    let reply = client.delta(session, &ring).unwrap();
    assert_eq!(reply.seq, 1, "the refused delta must not count");
    client.close_session(session).unwrap();

    assert_eq!(handle.recorder().counter(CounterId::ServeBadRequests), 3);
    client.health().unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn malformed_frame_gets_an_error_and_the_connection_survives() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // A well-formed frame wrapping a non-JSON payload.
    let payload = b"this is not json";
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    client.send_raw(&frame).unwrap();
    match client.read_response().unwrap() {
        tlbmap_serve::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::BadFrame)
        }
        other => panic!("expected a bad_frame error, got {other:?}"),
    }

    // Valid JSON but the wrong protocol version: also bad_frame.
    let payload = br#"{"v":99,"req":"health"}"#;
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    client.send_raw(&frame).unwrap();
    match client.read_response().unwrap() {
        tlbmap_serve::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::BadFrame)
        }
        other => panic!("expected a bad_frame error, got {other:?}"),
    }

    // Valid frame, unknown request kind: bad_request.
    let payload = br#"{"v":1,"req":"warp"}"#;
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    client.send_raw(&frame).unwrap();
    match client.read_response().unwrap() {
        tlbmap_serve::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::BadRequest)
        }
        other => panic!("expected a bad_request error, got {other:?}"),
    }

    // The same connection still serves real requests.
    client.health().unwrap();
    let reply = client
        .map(&ring_matrix(8), &Topology::harpertown(), None, 0)
        .unwrap();
    assert_eq!(reply.mapping.len(), 8);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn deeply_nested_frame_is_refused_and_the_server_keeps_serving() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Half a megabyte of `[`: the parser must refuse it at its nesting cap
    // rather than recurse once per byte on the event-loop thread.
    let payload = vec![b'['; 500_000];
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    client.send_raw(&frame).unwrap();
    match client.read_response().unwrap() {
        tlbmap_serve::Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected a bad_frame error, got {other:?}"),
    }

    let mut fresh = Client::connect(&addr).unwrap();
    fresh.health().unwrap();
    fresh.shutdown().unwrap();
    handle.join();
}

#[test]
fn oversized_session_frames_are_refused_and_the_server_keeps_serving() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();

    // Each frame is tiny but names a thread count whose dense n² window
    // would take gigabytes (or petabytes) to allocate.
    let mut empty_rows = String::from(r#"{"v":1,"req":"map","matrix":{"n":300000,"rows":["#);
    empty_rows.push_str(&vec!["[]"; 300_000].join(","));
    empty_rows.push_str("]}}");
    let frames = [
        r#"{"v":1,"req":"open_session","topology":{"chips":1,"l2_per_chip":1,"cores_per_l2":65536}}"#
            .to_string(),
        r#"{"v":1,"req":"open_session","topology":{"chips":65536,"l2_per_chip":65536,"cores_per_l2":65536}}"#
            .to_string(),
        r#"{"v":1,"req":"delta","session":1,"n":65536,"cells":[]}"#.to_string(),
        empty_rows,
    ];
    for payload in &frames {
        let mut client = Client::connect(&addr).unwrap();
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload.as_bytes());
        client.send_raw(&frame).unwrap();
        match client.read_response().unwrap() {
            tlbmap_serve::Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::BadRequest, "frame {}", &payload[..60])
            }
            other => panic!("expected a bad_request error, got {other:?}"),
        }
        let mut fresh = Client::connect(&addr).unwrap();
        fresh.health().unwrap();
    }

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn queue_saturation_answers_overloaded() {
    // One worker, one queue slot: a slow request occupies the worker, a
    // second fills the queue, a third must bounce.
    let handle = start(
        ServeConfig::new()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_capacity(0),
    );
    let addr = handle.addr().to_string();
    let matrix = ring_matrix(8);
    let topo = Topology::harpertown();

    let slow = {
        let addr = addr.clone();
        let matrix = matrix.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.map(&matrix, &topo, None, 500).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let queued = {
        let addr = addr.clone();
        let matrix = matrix.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.map(&matrix, &topo, None, 0).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    let mut c = Client::connect(&addr).unwrap();
    match c.map(&matrix, &topo, None, 0) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded, got {other:?}"),
    }
    assert_eq!(handle.recorder().counter(CounterId::ServeOverloaded), 1);

    // The slow and queued requests still complete normally.
    assert_eq!(slow.join().unwrap().mapping.len(), 8);
    assert_eq!(queued.join().unwrap().mapping.len(), 8);

    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn expired_deadline_answers_timeout() {
    let handle = start(ServeConfig::new().with_workers(1).with_cache_capacity(0));
    let addr = handle.addr().to_string();
    let matrix = ring_matrix(8);
    let topo = Topology::harpertown();

    // Occupy the single worker for 300 ms.
    let slow = {
        let addr = addr.clone();
        let matrix = matrix.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.map(&matrix, &topo, None, 300).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    // This request can only be reached after ~300 ms but allows 50 ms.
    let mut c = Client::connect(&addr).unwrap();
    match c.map(&matrix, &topo, Some(50), 0) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("expected timeout, got {other:?}"),
    }
    assert_eq!(handle.recorder().counter(CounterId::ServeTimeouts), 1);
    slow.join().unwrap();

    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let handle = start(ServeConfig::new().with_workers(1));
    let addr = handle.addr().to_string();
    let topo = Topology::harpertown();

    // An in-flight request that takes ~300 ms.
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.map(&ring_matrix(8), &topo, None, 300)
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    // Shut down from a second connection while the first is in flight.
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();

    // New work is refused...
    match c.map(&ring_matrix(8), &topo, None, 0) {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::ShuttingDown)
        }
        other => panic!("expected shutting_down, got {other:?}"),
    }

    // ...but the in-flight request still completes with a real answer.
    let reply = in_flight
        .join()
        .unwrap()
        .expect("in-flight request drained");
    assert_eq!(reply.mapping.len(), 8);

    // And the whole server winds down.
    handle.join();
}

#[test]
fn admin_frames_answer_over_loopback() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    // health: alive, not draining.
    let health = c.admin(AdminKind::Health).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health.get("shutting_down").and_then(Json::as_bool),
        Some(false)
    );

    // stats: the flat document, with the map traffic counted and a
    // non-empty latency window.
    c.map(&ring_matrix(8), &Topology::harpertown(), None, 0)
        .unwrap();
    let stats = c.admin(AdminKind::Stats).unwrap();
    assert_eq!(stats.get("map_requests").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("queue_capacity").and_then(Json::as_u64), Some(64));
    assert!(stats.get("window_p50_us").and_then(Json::as_u64).is_some());
    assert!(stats.get("uptime_ms").and_then(Json::as_u64).is_some());
    assert!(stats.get("utilization").and_then(Json::as_f64).is_some());

    // trace: empty — slow logging is off by default.
    let trace = c.admin(AdminKind::Trace).unwrap();
    assert_eq!(trace.as_array().map(<[Json]>::len), Some(0));

    // flight: the recorder has no flight window configured, so the
    // document is null (disabled), not an empty object.
    let flight = c.admin(AdminKind::Flight).unwrap();
    assert_eq!(flight, Json::Null);

    // Unknown admin kind over the real wire: bad_request, with the
    // connection intact afterwards.
    let payload = br#"{"v":1,"req":"admin","kind":"flamegraph"}"#;
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    client_send_expect_bad_request(&mut c, &frame);
    c.health().unwrap();
    assert_eq!(handle.recorder().counter(CounterId::ServeBadRequests), 1);

    c.shutdown().unwrap();
    handle.join();
}

fn client_send_expect_bad_request(c: &mut Client, frame: &[u8]) {
    c.send_raw(frame).unwrap();
    match c.read_response().unwrap() {
        tlbmap_serve::Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("flamegraph"), "{message}");
        }
        other => panic!("expected a bad_request error, got {other:?}"),
    }
}

/// A `Write` sink backed by shared memory, standing in for the slow-log
/// JSONL file.
#[derive(Clone)]
struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn slow_requests_land_in_the_trace_ring_and_the_jsonl_sink() {
    let sink = SharedSink(std::sync::Arc::new(std::sync::Mutex::new(Vec::new())));
    let rec = Recorder::new(ObsConfig::new(0).with_ring_capacity(64));
    // Threshold 1 µs: every request qualifies as slow.
    let handle = Server::start_with_slow_log(
        "127.0.0.1:0",
        ServeConfig::new().with_slow_threshold_us(1),
        rec,
        Some(Box::new(sink.clone())),
    )
    .expect("bind loopback server");
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.map(&ring_matrix(8), &Topology::harpertown(), None, 2)
        .unwrap();
    let trace = c.admin(AdminKind::Trace).unwrap();
    let entries = trace.as_array().expect("trace is an array");
    assert!(!entries.is_empty(), "the map request must be in the ring");
    let entry = &entries[0];
    assert_eq!(entry.get("kind").and_then(Json::as_str), Some("map"));
    assert_eq!(entry.get("outcome").and_then(Json::as_str), Some("ok"));
    assert!(entry.get("req_id").and_then(Json::as_u64).unwrap() > 0);
    assert!(entry.get("total_us").and_then(Json::as_u64).unwrap() >= 1);
    assert!(handle.recorder().counter(CounterId::ServeSlowRequests) >= 1);

    // The JSONL sink got one parseable object per line.
    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let first = text.lines().next().expect("at least one slow-log line");
    let parsed = Json::parse(first).expect("slow-log line is valid JSON");
    assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("map"));

    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn http_get_on_the_service_port_serves_the_exposition() {
    use std::io::{Read as _, Write as _};

    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();

    // Prime a counter so the exposition has something non-zero.
    let mut c = Client::connect(&addr).unwrap();
    c.map(&ring_matrix(8), &Topology::harpertown(), None, 0)
        .unwrap();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GET / HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.contains("Content-Type: text/plain"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("tlbmap_map_requests 1"), "{body}");
    assert!(body.contains("tlbmap_uptime_ms "), "{body}");
    // Empty-window quantiles are omitted, never zero; after one map the
    // latency window is non-empty, so p50 must be present.
    assert!(body.contains("tlbmap_window_p50_us "), "{body}");

    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn http_get_is_refused_when_exposition_is_disabled() {
    use std::io::{Read as _, Write as _};

    let handle = start(ServeConfig::new().with_http_stats(false));
    let addr = handle.addr().to_string();
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
    // The server closes without answering; depending on timing the close
    // lands as a clean EOF or a reset (unread bytes), but never as data.
    let mut response = Vec::new();
    let _ = raw.read_to_end(&mut response);
    assert!(response.is_empty(), "disabled exposition must just close");

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn admin_flight_serves_the_recorder_document() {
    // A server whose recorder has the flight recorder on answers `admin
    // flight` with the structured document (even before any simulated
    // cycles have closed a window).
    let rec = Recorder::new(
        ObsConfig::new(0)
            .with_ring_capacity(64)
            .with_flight_window(Some(1_000))
            .with_flight_capacity(8),
    );
    let handle =
        Server::start("127.0.0.1:0", ServeConfig::new(), rec).expect("bind loopback server");
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    let flight = c.admin(AdminKind::Flight).unwrap();
    assert_ne!(flight, Json::Null, "flight recorder is enabled");
    assert_eq!(
        flight.get("window_cycles").and_then(Json::as_u64),
        Some(1_000)
    );
    assert_eq!(flight.get("capacity").and_then(Json::as_u64), Some(8));
    assert_eq!(flight.get("windows_closed").and_then(Json::as_u64), Some(0));
    assert_eq!(flight.get("phase").and_then(Json::as_u64), Some(0));

    c.shutdown().unwrap();
    handle.join();
}

/// An open-loop sweep of one point that the schedule sizes to exactly
/// `requests` requests over `connections` connections.
fn one_point_curve(connections: usize, requests: u64) -> CurveConfig {
    let mut cfg = CurveConfig::new();
    cfg.connections = connections;
    cfg.rps_points = vec![requests * 4];
    cfg.duration_ms = 250;
    cfg.matrix = ring_matrix(8);
    cfg
}

#[test]
fn live_telemetry_agrees_with_a_thousand_request_loadgen() {
    // The acceptance bar: ≥1000 requests through loadgen; the server's own
    // live counters, scraped before and after the sweep, must agree with
    // the client-observed totals, and the windowed quantiles must be
    // present.
    let handle = start(ServeConfig::new().with_workers(4).with_queue_capacity(64));
    let addr = handle.addr().to_string();

    let report = run_curve(&addr, &one_point_curve(8, 1000)).unwrap();
    let point = &report.points[0];

    assert_eq!(report.sent(), 1000);
    assert_eq!(point.ok, 1000);
    assert_eq!(report.total_errors(), 0, "errors: {:?}", point.errors);

    // Server-side delta agrees with the client's count.
    assert_eq!(report.map_requests_delta(), Some(1000));
    let after = report.server_after.as_ref().expect("after scrape");
    assert_eq!(after.get("map_requests").and_then(Json::as_u64), Some(1000));
    let hits = after.get("cache_hits").and_then(Json::as_u64).unwrap();
    let misses = after.get("cache_misses").and_then(Json::as_u64).unwrap();
    assert_eq!(hits + misses, 1000, "every map is a hit or a miss");

    // The rolling window saw the traffic: non-empty quantiles, and the
    // recorder's counters line up with the admin view.
    assert!(after.get("window_count").and_then(Json::as_u64).unwrap() > 0);
    assert!(after.get("window_p50_us").and_then(Json::as_u64).is_some());
    assert!(after.get("window_p99_us").and_then(Json::as_u64).is_some());
    assert_eq!(handle.recorder().counter(CounterId::ServeMapRequests), 1000);

    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join();
}

#[test]
fn loadgen_completes_cleanly_below_the_queue_bound() {
    let handle = start(ServeConfig::new().with_workers(4).with_queue_capacity(64));
    let addr = handle.addr().to_string();

    let report = run_curve(&addr, &one_point_curve(4, 100)).unwrap();
    let point = &report.points[0];

    assert_eq!(point.sent, 100);
    assert_eq!(point.ok, 100);
    assert_eq!(report.total_errors(), 0, "errors: {:?}", point.errors);
    assert!(point.cached >= 90, "identical requests should mostly hit");
    assert!(point.p50_us > 0.0 && point.p99_us >= point.p50_us);
    assert!(point.achieved_rps > 0.0);

    // 100 maps plus the sweep's before/after `admin stats` scrapes.
    let rec = handle.recorder();
    assert!(rec.counter(CounterId::ServeCacheHits) > 0);
    assert_eq!(rec.counter(CounterId::ServeRequests), 102);

    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.get("requests").and_then(tlbmap_obs::Json::as_u64),
        Some(103),
        "stats counts the stats request itself"
    );
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn broken_connections_count_their_whole_schedule_as_transport_errors() {
    // A listener that accepts and immediately drops every connection: each
    // loadgen connection fails its first request, and the requests it never
    // got to send must still count, so `sent` equals the schedule.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            drop(stream);
        }
    });

    let mut cfg = CurveConfig::new();
    cfg.rps_points = vec![200, 400];
    cfg.duration_ms = 100;
    let report = run_curve(&addr, &cfg).expect("a dead server is a report, not an error");

    for (point, scheduled) in report.points.iter().zip([20, 40]) {
        assert_eq!(point.sent, scheduled, "point {}", point.offered_rps);
        assert_eq!(point.ok, 0);
        assert_eq!(point.errors.get("transport"), Some(&scheduled));
    }
    assert_eq!(report.sent(), 60);
    assert_eq!(report.total_errors(), 60);
    // Neither scrape got an answer, and that does not fail the run.
    assert_eq!(report.server_before, None);
    assert_eq!(report.map_requests_delta(), None);
}

/// A communication pattern whose hierarchy optimum is unique at every
/// level: dominant pairs (0,1)/(2,3)/(4,5)/(6,7) carry the given weights,
/// and the 500-weight cross ties (0,2) and (4,6) break the upper-level
/// ties. Permuting `a..d` changes the matrix *direction* (so cosine drift
/// fires) without moving the optimal pairing structure.
fn pattern(a: u64, b: u64, c: u64, d: u64) -> CommMatrix {
    let mut m = CommMatrix::new(8);
    m.add(0, 1, a);
    m.add(2, 3, b);
    m.add(4, 5, c);
    m.add(6, 7, d);
    m.add(0, 2, 500);
    m.add(4, 6, 500);
    m
}

fn remap_events(handle: &ServerHandle) -> Vec<Event> {
    handle
        .recorder()
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::Remap { .. }))
        .collect()
}

#[test]
fn streaming_session_tracks_a_phase_shift_end_to_end() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let topo = Topology::harpertown();
    let mut client = Client::connect(&addr).unwrap();

    // Decay shift 1, threshold 1.0 (remap on any measurable drift), no
    // cooldown: the control loop's decisions depend only on direction.
    let (session, initial) = client
        .open_session(&topo, Some(1), Some(1_000_000), Some(0))
        .unwrap();
    assert_eq!(initial.len(), 8, "the empty window still yields a mapping");

    // Mirror the server's decayed window client-side to check the final
    // mapping against a one-shot `map` on the same window.
    let mut mirror = DecayedMatrix::new(8, 1);
    let phase_a = pattern(4000, 3000, 2000, 1000);
    let phase_b = pattern(1000, 2000, 3000, 4000);

    // Four stationary deltas: the first installs the first real mapping,
    // the repeats leave the window exactly proportional to the reference
    // (all weights are even, so the decay is exact) and must be stable.
    let mut outcomes = Vec::new();
    for _ in 0..4 {
        mirror.ingest(&phase_a);
        outcomes.push(client.delta(session, &phase_a).unwrap());
    }
    // The phase shift: same pair structure, permuted magnitudes.
    mirror.ingest(&phase_b);
    outcomes.push(client.delta(session, &phase_b).unwrap());

    let decisions: Vec<DeltaDecision> = outcomes.iter().map(|o| o.decision).collect();
    assert_eq!(
        decisions,
        vec![
            DeltaDecision::Remap,
            DeltaDecision::Stable,
            DeltaDecision::Stable,
            DeltaDecision::Stable,
            DeltaDecision::Remap,
        ],
        "outcomes: {outcomes:?}"
    );
    assert_eq!(outcomes[1].similarity_ppm, 1_000_000, "exactly parallel");
    assert!(outcomes[4].similarity_ppm < 1_000_000, "the shift drifted");

    // The decayed window tracked the new phase, and the session's final
    // mapping is exactly what a one-shot `map` on that window returns.
    let final_mapping = outcomes[4].mapping.clone().expect("remap carries mapping");
    let one_shot = client.map(mirror.window(), &topo, None, 0).unwrap();
    assert_eq!(final_mapping, one_shot.mapping);

    // Exactly one remap event beyond the first-delta install.
    let remaps = remap_events(&handle);
    assert_eq!(remaps.len(), 2, "install + one phase-shift remap");
    match remaps[1] {
        Event::Remap {
            session: s, seq, ..
        } => {
            assert_eq!(s, session);
            assert_eq!(seq, 5);
        }
        _ => unreachable!(),
    }
    let rec = handle.recorder();
    assert_eq!(rec.counter(CounterId::RemapsTriggered), 2);
    assert_eq!(rec.counter(CounterId::RemapsSuppressed), 3);

    assert_eq!(client.close_session(session).unwrap(), (5, 2));
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn stationary_stream_never_remaps_after_the_install() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Server-default knobs (threshold 0.8, cooldown 2, shift 2): the
    // weights are all divisible by four, so repeats stay exactly parallel.
    let (session, _) = client
        .open_session(&Topology::harpertown(), None, None, None)
        .unwrap();
    let matrix = pattern(4000, 3000, 2000, 1000);
    for i in 0..8 {
        let outcome = client.delta(session, &matrix).unwrap();
        let expected = if i == 0 {
            DeltaDecision::Remap
        } else {
            DeltaDecision::Stable
        };
        assert_eq!(outcome.decision, expected, "delta {i}: {outcome:?}");
    }
    assert_eq!(client.close_session(session).unwrap(), (8, 1));

    assert_eq!(remap_events(&handle).len(), 1, "only the install remaps");
    let rec = handle.recorder();
    assert_eq!(rec.counter(CounterId::RemapsTriggered), 1);
    assert_eq!(rec.counter(CounterId::RemapsSuppressed), 7);
    assert_eq!(rec.counter(CounterId::SessionDeltas), 8);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn session_errors_answer_stable_bad_requests() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let delta = pattern(100, 100, 100, 100);

    // Unknown session, nothing open: the message says so.
    match client.delta(77, &delta) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert_eq!(message, "unknown session `77` (no open sessions)");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    // Unknown session with peers open: the open IDs are listed, mirroring
    // the accepted-kinds list of an unknown admin kind.
    let (session, _) = client
        .open_session(&Topology::harpertown(), None, None, None)
        .unwrap();
    match client.delta(77, &delta) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert_eq!(
                message,
                format!("unknown session `77` (open sessions: {session})")
            );
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    // Wrong delta size for an open session.
    match client.delta(session, &CommMatrix::new(4)) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("4 threads"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    // A delta for a just-closed session is an unknown session again.
    client.close_session(session).unwrap();
    match client.delta(session, &delta) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("unknown session"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    // The connection survives all of it.
    client.health().unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn sessions_admin_kind_reports_totals_and_rows() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let (first, _) = client
        .open_session(&Topology::harpertown(), None, None, None)
        .unwrap();
    let (second, _) = client
        .open_session(&Topology::harpertown(), None, None, None)
        .unwrap();
    client
        .delta(first, &pattern(4000, 3000, 2000, 1000))
        .unwrap();

    let doc = client.admin(AdminKind::Sessions).unwrap();
    assert_eq!(doc.get("open_sessions").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("max_sessions").and_then(Json::as_u64), Some(32));
    assert_eq!(doc.get("sessions_opened").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("session_deltas").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("remaps_triggered").and_then(Json::as_u64), Some(1));
    let rows = doc
        .get("sessions")
        .and_then(Json::as_array)
        .expect("sessions rows");
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get("id").and_then(Json::as_u64), Some(first));
    assert_eq!(rows[0].get("deltas").and_then(Json::as_u64), Some(1));
    assert_eq!(rows[0].get("remaps").and_then(Json::as_u64), Some(1));
    assert_eq!(rows[1].get("id").and_then(Json::as_u64), Some(second));
    assert_eq!(rows[1].get("deltas").and_then(Json::as_u64), Some(0));

    // The session counters also surface in the flat stats document (which
    // is what `tlbmap top` and the text exposition scrape).
    let stats = client.admin(AdminKind::Stats).unwrap();
    assert_eq!(stats.get("open_sessions").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("sessions_opened").and_then(Json::as_u64), Some(2));

    client.close_session(first).unwrap();
    client.close_session(second).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn draining_server_refuses_session_work_but_honours_close() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let topo = Topology::harpertown();

    let (session, _) = client.open_session(&topo, None, None, None).unwrap();
    client.shutdown().unwrap();

    // New streaming work is refused during the drain...
    match client.open_session(&topo, None, None, None) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    match client.delta(session, &pattern(100, 100, 100, 100)) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }

    // ...but closing an open session is part of draining cleanly.
    assert_eq!(client.close_session(session).unwrap(), (0, 0));
    handle.join();
}

/// Current thread count of this process, from `/proc/self/status`.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
fn a_thousand_idle_connections_cost_no_threads_and_no_latency() {
    // Both ends of every connection live in this process, so the default
    // 1024-fd soft limit would cap the test well short of 1000 conns.
    tlbmap_serve::sys::raise_nofile_limit(8192).expect("raise RLIMIT_NOFILE");
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();

    // Thread-count baseline once the server (event loop + workers) is up.
    let baseline_threads = thread_count();

    // Park 1000 idle keep-alive connections on the server. Under the old
    // thread-per-connection server this was 1000 OS threads; the event
    // loop must absorb them with zero new threads.
    let idle: Vec<std::net::TcpStream> = (0..1000)
        .map(|i| {
            std::net::TcpStream::connect(&addr)
                .unwrap_or_else(|e| panic!("idle connection {i}: {e}"))
        })
        .collect();
    // Other loopback tests run concurrently in this process and start or
    // join their own servers, so the global count jitters by a few — the
    // assertion is that 1000 connections did not add ~1000 threads.
    let after_connect = thread_count();
    assert!(
        after_connect <= baseline_threads + 32,
        "idle connections must not spawn threads ({baseline_threads} -> {after_connect})"
    );

    // The server sees them: the loop gauge counts all 1000.
    let mut admin = Client::connect(&addr).unwrap();
    let stats = admin.admin(AdminKind::Stats).unwrap();
    let conns_open = stats
        .get("loop")
        .and_then(|l| l.get("conns_open"))
        .and_then(Json::as_u64)
        .expect("loop.conns_open in admin stats");
    assert!(conns_open >= 1001, "gauge saw {conns_open} connections");

    // A full loadgen campaign completes with sane latency while the 1000
    // idle connections stay parked.
    let report = run_curve(&addr, &one_point_curve(4, 100)).expect("loadgen");
    let point = &report.points[0];
    assert_eq!(report.total_errors(), 0, "errors: {:?}", point.errors);
    assert_eq!(point.ok, 100);
    assert!(
        point.p99_us < 200_000.0,
        "p99 {} us under 1000 idle connections",
        point.p99_us
    );
    // Loadgen's scoped threads have joined: still flat (same jitter
    // allowance for concurrent tests).
    let after_campaign = thread_count();
    assert!(
        after_campaign <= baseline_threads + 32,
        "thread count must stay flat after the campaign ({baseline_threads} -> {after_campaign})"
    );

    drop(idle);
    admin.shutdown().unwrap();
    handle.join();
}

#[test]
fn open_loop_curve_sweeps_points_against_a_live_server() {
    let handle = start(ServeConfig::new());
    let addr = handle.addr().to_string();

    let mut cfg = CurveConfig::new();
    cfg.rps_points = vec![200, 800, 2000];
    cfg.duration_ms = 250;
    let report = run_curve(&addr, &cfg).expect("curve");

    assert_eq!(report.points.len(), 3);
    for point in &report.points {
        assert!(point.sent > 0, "point {} sent nothing", point.offered_rps);
        assert_eq!(
            point.errors.values().sum::<usize>(),
            0,
            "point {} errors: {:?}",
            point.offered_rps,
            point.errors
        );
        assert_eq!(point.ok, point.sent);
        assert!(point.achieved_rps > 0.0);
        assert!(point.p99_us > 0.0);
    }
    // The schedule sizes each point: rps × duration.
    assert_eq!(report.points[0].sent, 50);
    assert_eq!(report.points[2].sent, 500);
    // The JSON document round-trips with the curve kind.
    let json = report.to_json();
    assert_eq!(
        json.get("kind").and_then(Json::as_str),
        Some("loadgen_curve")
    );
    assert_eq!(
        json.get("points").and_then(Json::as_array).map(|p| p.len()),
        Some(3)
    );

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    handle.join();
}
