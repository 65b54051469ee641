//! The service-side subcommands: `serve`, `client`, `loadgen`.
//!
//! These have their own option grammar (address/connection flags rather
//! than workload flags), so they parse separately from [`crate::opts`].

use tlbmap_core::CommMatrix;
use tlbmap_obs::{Json, ObsConfig, Recorder};
use tlbmap_serve::{
    run_curve, run_stream_loadgen, AdminKind, Client, CurveConfig, ServeConfig, Server,
    StreamConfig,
};
use tlbmap_sim::Topology;

/// Default service address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7411";

fn parse_u64(flag: &str, raw: &str) -> Result<u64, String> {
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parse a `CxLxK` topology spec (e.g. `2x2x2`).
fn parse_topo(raw: &str) -> Result<Topology, String> {
    let parts: Vec<&str> = raw.split('x').collect();
    if parts.len() != 3 {
        return Err(format!(
            "--topo expects CHIPSxL2xCORES (e.g. 2x2x2), got `{raw}`"
        ));
    }
    let mut dims = [0usize; 3];
    for (slot, part) in dims.iter_mut().zip(&parts) {
        *slot = part
            .parse()
            .map_err(|e| format!("--topo component `{part}`: {e}"))?;
        if *slot == 0 {
            return Err("--topo components must be positive".into());
        }
    }
    Ok(Topology {
        chips: dims[0],
        l2_per_chip: dims[1],
        cores_per_l2: dims[2],
    })
}

/// Load a communication matrix from a JSON file (the format written by
/// `tlbmap detect --format json`).
fn load_matrix(path: &str) -> Result<CommMatrix, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    CommMatrix::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

/// Options of `tlbmap serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: String,
    /// Server sizing.
    pub cfg: ServeConfig,
    /// Write the recorder's metrics JSON here after shutdown.
    pub metrics_out: Option<String>,
    /// Append slow requests (over `--slow-threshold-us`) as JSONL here.
    pub slow_log: Option<String>,
}

impl ServeOptions {
    /// Parse everything after `serve`.
    pub fn parse(args: &[String]) -> Result<ServeOptions, String> {
        let mut o = ServeOptions {
            addr: DEFAULT_ADDR.to_string(),
            cfg: ServeConfig::new(),
            metrics_out: None,
            slow_log: None,
        };
        let mut i = 0;
        while i < args.len() {
            let value = |name: &str| -> Result<String, String> {
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match args[i].as_str() {
                "--addr" => o.addr = value("--addr")?,
                "--workers" => {
                    o.cfg.workers = parse_u64("--workers", &value("--workers")?)? as usize
                }
                "--queue" => {
                    o.cfg.queue_capacity = parse_u64("--queue", &value("--queue")?)? as usize
                }
                "--cache" => {
                    o.cfg.cache_capacity = parse_u64("--cache", &value("--cache")?)? as usize
                }
                "--deadline-ms" => {
                    o.cfg.default_deadline_ms =
                        parse_u64("--deadline-ms", &value("--deadline-ms")?)?
                }
                "--metrics-out" => o.metrics_out = Some(value("--metrics-out")?),
                "--window-ms" => {
                    o.cfg.telemetry_window_ms = parse_u64("--window-ms", &value("--window-ms")?)?
                }
                "--window-buckets" => {
                    o.cfg.telemetry_slots =
                        parse_u64("--window-buckets", &value("--window-buckets")?)? as usize
                }
                "--slow-threshold-us" => {
                    o.cfg.slow_threshold_us =
                        parse_u64("--slow-threshold-us", &value("--slow-threshold-us")?)?
                }
                "--slow-log" => o.slow_log = Some(value("--slow-log")?),
                "--flight-window" => {
                    o.cfg.flight_window = parse_u64("--flight-window", &value("--flight-window")?)?
                }
                "--flight-capacity" => {
                    o.cfg.flight_capacity =
                        parse_u64("--flight-capacity", &value("--flight-capacity")?)? as usize
                }
                "--max-sessions" => {
                    o.cfg.max_sessions =
                        parse_u64("--max-sessions", &value("--max-sessions")?)? as usize
                }
                "--session-decay-shift" => {
                    o.cfg.session_decay_shift =
                        parse_u64("--session-decay-shift", &value("--session-decay-shift")?)? as u32
                }
                "--session-drift-ppm" => {
                    o.cfg.session_drift_threshold_ppm =
                        parse_u64("--session-drift-ppm", &value("--session-drift-ppm")?)?
                }
                "--session-cooldown" => {
                    o.cfg.session_cooldown_deltas =
                        parse_u64("--session-cooldown", &value("--session-cooldown")?)?
                }
                "--session-idle-ms" => {
                    o.cfg.session_idle_ms =
                        parse_u64("--session-idle-ms", &value("--session-idle-ms")?)?
                }
                "--no-http" => {
                    // Valueless flag: disable the plain-text GET exposition.
                    o.cfg.http_stats = false;
                    i += 1;
                    continue;
                }
                flag => return Err(format!("unknown flag `{flag}`")),
            }
            i += 2;
        }
        Ok(o)
    }
}

/// `tlbmap serve` — run the mapping service until a client asks it to
/// shut down, then optionally export metrics.
pub fn serve(o: ServeOptions) -> Result<(), String> {
    let rec = Recorder::new(
        ObsConfig::new(0)
            .with_ring_capacity(64)
            .with_flight_window(o.cfg.effective_flight_window())
            .with_flight_capacity(o.cfg.effective_flight_capacity()),
    );
    let slow_log: Option<Box<dyn std::io::Write + Send>> = match &o.slow_log {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            Some(Box::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    let handle = Server::start_with_slow_log(&o.addr, o.cfg, rec, slow_log)
        .map_err(|e| format!("bind {}: {e}", o.addr))?;
    eprintln!(
        "# tlbmap serve listening on {} ({} workers, queue {}, cache {}, window {} ms)",
        handle.addr(),
        o.cfg.effective_workers(),
        o.cfg.effective_queue_capacity(),
        o.cfg.effective_cache_capacity().unwrap_or(0),
        o.cfg.effective_telemetry().window_ms,
    );
    let rec = handle.recorder().clone();
    handle.join();
    if let Some(path) = &o.metrics_out {
        let mut text = rec.metrics_json().render();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# metrics written to {path}");
    }
    eprintln!("# tlbmap serve: shut down cleanly");
    Ok(())
}

/// Options of `tlbmap client` and `tlbmap loadgen`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOptions {
    /// `map`, `health`, `stats` or `shutdown` (client only).
    pub action: String,
    /// Server address.
    pub addr: String,
    /// Matrix JSON file (`map`/loadgen; loadgen falls back to a ring).
    pub matrix: Option<String>,
    /// Target topology.
    pub topo: Topology,
    /// Per-request deadline in ms (0 = server default).
    pub deadline_ms: u64,
    /// Artificial worker delay per request in ms.
    pub delay_ms: u64,
    /// Loadgen: concurrent connections.
    pub connections: usize,
    /// Loadgen: write the report JSON here.
    pub out: Option<String>,
    /// Loadgen: drive streaming sessions (`--stream`) instead of one-shot
    /// `map` requests.
    pub stream: bool,
    /// Stream loadgen: deltas per session.
    pub deltas: usize,
    /// Stream loadgen: flip the workload phase every this many deltas
    /// (0 = stationary).
    pub phase_every: usize,
    /// `client session`: the JSONL event trace (from `--trace-out`) to
    /// replay as deltas.
    pub trace: Option<String>,
    /// `client session`: flush a delta every this many `matrix_inc`
    /// events (0 = flush on `barrier` events only).
    pub batch: u64,
    /// Loadgen: open-loop offered-load points in requests per second
    /// (comma-separated `--rps` list).
    pub rps: Vec<u64>,
    /// Loadgen: how long each open-loop point runs, in milliseconds.
    pub duration_ms: u64,
}

/// Flags only `loadgen` takes; `client` refuses them.
const LOADGEN_ONLY: [&str; 7] = [
    "--connections",
    "--out",
    "--stream",
    "--deltas",
    "--phase-every",
    "--rps",
    "--duration-ms",
];

/// Flags only `client` takes; `loadgen` refuses them.
const CLIENT_ONLY: [&str; 2] = ["--trace", "--batch"];

impl ClientOptions {
    /// Parse args. With `positional_action`, the first bare word is the
    /// client action (`tlbmap client <action>`); loadgen has none. Each
    /// command refuses the other's flags rather than ignoring them.
    pub fn parse(args: &[String], positional_action: bool) -> Result<ClientOptions, String> {
        let (command, foreign) = if positional_action {
            ("client", &LOADGEN_ONLY[..])
        } else {
            ("loadgen", &CLIENT_ONLY[..])
        };
        let mut o = ClientOptions {
            action: String::new(),
            addr: DEFAULT_ADDR.to_string(),
            matrix: None,
            topo: Topology::harpertown(),
            deadline_ms: 0,
            delay_ms: 0,
            connections: 4,
            out: None,
            stream: false,
            deltas: 24,
            phase_every: 8,
            trace: None,
            batch: 0,
            rps: CurveConfig::new().rps_points,
            duration_ms: 1000,
        };
        let mut i = 0;
        while i < args.len() {
            let value = |name: &str| -> Result<String, String> {
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            if foreign.contains(&args[i].as_str()) {
                return Err(format!("unknown flag `{}` for {command}", args[i]));
            }
            match args[i].as_str() {
                "--addr" => o.addr = value("--addr")?,
                "--matrix" => o.matrix = Some(value("--matrix")?),
                "--topo" => o.topo = parse_topo(&value("--topo")?)?,
                "--deadline-ms" => {
                    o.deadline_ms = parse_u64("--deadline-ms", &value("--deadline-ms")?)?
                }
                "--delay-ms" => o.delay_ms = parse_u64("--delay-ms", &value("--delay-ms")?)?,
                "--connections" => {
                    o.connections = parse_u64("--connections", &value("--connections")?)? as usize
                }
                "--out" => o.out = Some(value("--out")?),
                "--stream" => {
                    // Valueless flag: switch loadgen to streaming sessions.
                    o.stream = true;
                    i += 1;
                    continue;
                }
                "--deltas" => o.deltas = parse_u64("--deltas", &value("--deltas")?)? as usize,
                "--phase-every" => {
                    o.phase_every = parse_u64("--phase-every", &value("--phase-every")?)? as usize
                }
                "--trace" => o.trace = Some(value("--trace")?),
                "--batch" => o.batch = parse_u64("--batch", &value("--batch")?)?,
                "--rps" => {
                    o.rps = value("--rps")?
                        .split(',')
                        .map(|part| parse_u64("--rps", part.trim()))
                        .collect::<Result<Vec<u64>, String>>()?;
                    if o.rps.is_empty() {
                        return Err("--rps needs at least one point".into());
                    }
                }
                "--duration-ms" => {
                    o.duration_ms = parse_u64("--duration-ms", &value("--duration-ms")?)?
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                word if positional_action && o.action.is_empty() => {
                    o.action = word.to_string();
                    i += 1;
                    continue;
                }
                word => return Err(format!("unexpected argument `{word}`")),
            }
            i += 2;
        }
        if positional_action && o.action.is_empty() {
            return Err(
                "client needs an action: map | session | health | stats | live | trace | flight | shutdown"
                    .into(),
            );
        }
        Ok(o)
    }
}

/// `tlbmap client <action>` — one request against a running server.
pub fn client(o: ClientOptions) -> Result<(), String> {
    let mut client = Client::connect(&o.addr).map_err(|e| e.to_string())?;
    match o.action.as_str() {
        "map" => {
            let path = o
                .matrix
                .as_deref()
                .ok_or_else(|| "client map needs --matrix <FILE>".to_string())?;
            let matrix = load_matrix(path)?;
            let deadline = if o.deadline_ms > 0 {
                Some(o.deadline_ms)
            } else {
                None
            };
            let reply = client
                .map(&matrix, &o.topo, deadline, o.delay_ms)
                .map_err(|e| e.to_string())?;
            for (thread, core) in reply.mapping.iter().enumerate() {
                println!("thread {thread} -> core {core}");
            }
            eprintln!(
                "# {} ({})",
                o.addr,
                if reply.cached {
                    "cache hit"
                } else {
                    "computed"
                }
            );
            Ok(())
        }
        "session" => {
            let path = o
                .trace
                .as_deref()
                .ok_or_else(|| "client session needs --trace <FILE> (a JSONL event trace from --trace-out)".to_string())?;
            replay_session(&mut client, path, &o)
        }
        "health" => {
            client.health().map_err(|e| e.to_string())?;
            println!("ok");
            Ok(())
        }
        "stats" => {
            let doc = client.stats().map_err(|e| e.to_string())?;
            println!("{}", doc.render());
            Ok(())
        }
        "live" => {
            // The rolling-window admin snapshot (versus the legacy
            // since-boot `stats`).
            let doc = client.admin(AdminKind::Stats).map_err(|e| e.to_string())?;
            println!("{}", doc.render());
            Ok(())
        }
        "trace" => {
            let doc = client.admin(AdminKind::Trace).map_err(|e| e.to_string())?;
            match doc.items() {
                Some(entries) if !entries.is_empty() => {
                    for entry in entries.iter() {
                        println!("{}", entry.render());
                    }
                }
                _ => eprintln!("# slow-request log is empty"),
            }
            Ok(())
        }
        "flight" => {
            let doc = client.admin(AdminKind::Flight).map_err(|e| e.to_string())?;
            if doc == Json::Null {
                eprintln!("# flight recorder is disabled (start the server with --flight-window)");
            } else {
                println!("{}", doc.render());
            }
            Ok(())
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("shutdown acknowledged");
            Ok(())
        }
        other => Err(format!(
            "unknown client action `{other}` (map | session | health | stats | live | trace | flight | shutdown)"
        )),
    }
}

/// `tlbmap client session` — replay a simulator event trace against a
/// live server as a streaming session: `matrix_inc` events accumulate
/// into deltas, each `barrier` (or every `--batch` increments) flushes
/// one `delta` frame, and every control-loop decision is printed.
fn replay_session(client: &mut Client, path: &str, o: &ClientOptions) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let n = o.topo.num_cores();
    let (session, _) = client
        .open_session(&o.topo, None, None, None)
        .map_err(|e| e.to_string())?;
    eprintln!("# session {session} open on {} ({n} threads)", o.addr);

    let mut delta = CommMatrix::new(n);
    let mut pending: u64 = 0;
    let mut sent = 0u64;
    let mut remaps = 0u64;
    let flush = |delta: &mut CommMatrix, client: &mut Client, sent: &mut u64, remaps: &mut u64| {
        if delta.total() == 0 {
            return Ok(());
        }
        let reply = client
            .delta(session, delta)
            .map_err(|e: tlbmap_serve::ServeError| e.to_string())?;
        *sent += 1;
        let label = reply.decision.as_str();
        let similarity = reply.similarity_ppm as f64 / 1e6;
        match reply.mapping {
            Some(mapping) => {
                *remaps += 1;
                println!(
                    "delta {:>4}  similarity {similarity:.4}  {label}  mapping {mapping:?}",
                    reply.seq,
                );
            }
            None => println!(
                "delta {:>4}  similarity {similarity:.4}  {label}",
                reply.seq
            ),
        }
        *delta = CommMatrix::new(n);
        Ok::<(), String>(())
    };
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        match json.get("ev").and_then(Json::as_str) {
            Some("matrix_inc") => {
                let field = |key: &str| {
                    json.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("{path}:{}: matrix_inc lacks `{key}`", lineno + 1))
                };
                let (a, b) = (field("a")? as usize, field("b")? as usize);
                let amount = field("amount")?;
                if a >= n || b >= n {
                    return Err(format!(
                        "{path}:{}: pair ({a},{b}) exceeds the {n}-core topology (pass --topo)",
                        lineno + 1
                    ));
                }
                if a != b {
                    delta.add(a.min(b), a.max(b), amount);
                    pending += 1;
                    if o.batch > 0 && pending >= o.batch {
                        flush(&mut delta, client, &mut sent, &mut remaps)?;
                        pending = 0;
                    }
                }
            }
            Some("barrier") if o.batch == 0 => {
                flush(&mut delta, client, &mut sent, &mut remaps)?;
                pending = 0;
            }
            _ => {}
        }
    }
    flush(&mut delta, client, &mut sent, &mut remaps)?;
    let (deltas, total_remaps) = client.close_session(session).map_err(|e| e.to_string())?;
    eprintln!(
        "# session {session} closed: {deltas} deltas, {total_remaps} remaps ({sent} sent, {remaps} remapped this replay)"
    );
    Ok(())
}

/// `tlbmap loadgen` — an open-loop offered-load sweep against a running
/// server: each `--rps` point offers a fixed arrival rate for
/// `--duration-ms`, and the report is a p99-vs-offered-load curve plus the
/// server's `map_requests` delta over the sweep. Exits non-zero if any
/// request failed. With `--stream`, each connection opens a streaming
/// session instead and the report shows remap decisions and latencies.
pub fn loadgen(o: ClientOptions) -> Result<(), String> {
    if o.stream {
        return stream_loadgen(&o);
    }
    let matrix = match &o.matrix {
        Some(path) => load_matrix(path)?,
        None => CurveConfig::new().matrix,
    };
    let cfg = CurveConfig {
        connections: o.connections,
        rps_points: o.rps,
        duration_ms: o.duration_ms,
        deadline_ms: o.deadline_ms,
        delay_ms: o.delay_ms,
        matrix,
        topo: o.topo,
    };
    let report = run_curve(&o.addr, &cfg)?;
    print!("{}", report.render());
    if let Some(path) = &o.out {
        let mut text = report.to_json().render();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# loadgen curve written to {path}");
    }
    if report.total_errors() > 0 {
        return Err(format!(
            "open-loop sweep saw {} failed requests",
            report.total_errors()
        ));
    }
    Ok(())
}

/// The `--stream` arm of `tlbmap loadgen`: sessions instead of one-shot
/// maps.
fn stream_loadgen(o: &ClientOptions) -> Result<(), String> {
    let cfg = StreamConfig {
        sessions: o.connections,
        deltas: o.deltas,
        phase_every: o.phase_every,
        topo: o.topo,
    };
    let report = run_stream_loadgen(&o.addr, &cfg)?;
    print!("{}", report.render());
    if let Some(path) = &o.out {
        let mut text = report.to_json(&cfg).render();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# stream loadgen report written to {path}");
    }
    if report.total_errors() > 0 {
        return Err(format!(
            "{} streaming operations failed: {:?}",
            report.total_errors(),
            report.errors
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_serve_options() {
        let o = ServeOptions::parse(&words(&[
            "--addr",
            "127.0.0.1:9000",
            "--workers",
            "2",
            "--queue",
            "8",
            "--cache",
            "16",
            "--deadline-ms",
            "250",
            "--metrics-out",
            "m.json",
        ]))
        .unwrap();
        assert_eq!(o.addr, "127.0.0.1:9000");
        assert_eq!(o.cfg.workers, 2);
        assert_eq!(o.cfg.queue_capacity, 8);
        assert_eq!(o.cfg.cache_capacity, 16);
        assert_eq!(o.cfg.default_deadline_ms, 250);
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(ServeOptions::parse(&[]).unwrap().addr, DEFAULT_ADDR);
    }

    #[test]
    fn parses_telemetry_serve_options() {
        let o = ServeOptions::parse(&words(&[
            "--window-ms",
            "5000",
            "--window-buckets",
            "5",
            "--slow-threshold-us",
            "250000",
            "--slow-log",
            "slow.jsonl",
            "--no-http",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.cfg.telemetry_window_ms, 5000);
        assert_eq!(o.cfg.telemetry_slots, 5);
        assert_eq!(o.cfg.slow_threshold_us, 250_000);
        assert_eq!(o.slow_log.as_deref(), Some("slow.jsonl"));
        assert!(!o.cfg.http_stats);
        // --no-http is valueless: the flag after it still parses.
        assert_eq!(o.cfg.workers, 2);
    }

    #[test]
    fn parses_flight_serve_options() {
        let o = ServeOptions::parse(&words(&[
            "--flight-window",
            "5000",
            "--flight-capacity",
            "16",
        ]))
        .unwrap();
        assert_eq!(o.cfg.flight_window, 5000);
        assert_eq!(o.cfg.flight_capacity, 16);
        // Default: flight recorder off.
        let d = ServeOptions::parse(&[]).unwrap();
        assert_eq!(d.cfg.effective_flight_window(), None);
    }

    #[test]
    fn rejects_bad_serve_options() {
        assert!(ServeOptions::parse(&words(&["--workers"])).is_err());
        assert!(ServeOptions::parse(&words(&["--workers", "two"])).is_err());
        assert!(ServeOptions::parse(&words(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn parses_client_options() {
        let o = ClientOptions::parse(
            &words(&["map", "--matrix", "m.json", "--topo", "2x4x2"]),
            true,
        )
        .unwrap();
        assert_eq!(o.action, "map");
        assert_eq!(o.matrix.as_deref(), Some("m.json"));
        assert_eq!(o.topo, Topology::new(2, 4, 2));
        assert!(ClientOptions::parse(&[], true).is_err(), "action required");
    }

    #[test]
    fn client_and_loadgen_refuse_each_others_flags() {
        let err = ClientOptions::parse(
            &words(&["health", "--rps", "5", "--stream", "--deltas", "3"]),
            true,
        )
        .unwrap_err();
        assert_eq!(err, "unknown flag `--rps` for client");
        for flag in LOADGEN_ONLY {
            let err = ClientOptions::parse(&words(&["health", flag, "1"]), true).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
            let alone = if flag == "--stream" {
                vec![flag]
            } else {
                vec![flag, "1"]
            };
            assert!(
                ClientOptions::parse(&words(&alone), false).is_ok(),
                "{flag}"
            );
        }
        for flag in CLIENT_ONLY {
            let err = ClientOptions::parse(&words(&[flag, "1"]), false).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
            assert!(ClientOptions::parse(&words(&["session", flag, "1"]), true).is_ok());
        }
    }

    #[test]
    fn parses_loadgen_options() {
        let o = ClientOptions::parse(&words(&["--connections", "8", "--delay-ms", "1"]), false)
            .unwrap();
        assert_eq!(o.connections, 8);
        assert_eq!(o.delay_ms, 1);
        // The closed loop's flags are gone.
        for flag in ["--requests", "--sample-ms"] {
            let err = ClientOptions::parse(&words(&[flag, "5"]), false).unwrap_err();
            assert!(err.contains("unknown flag"), "{err}");
        }
        assert!(
            ClientOptions::parse(&words(&["stray"]), false).is_err(),
            "loadgen takes no positional argument"
        );
    }

    #[test]
    fn parses_open_loop_loadgen_options() {
        let o = ClientOptions::parse(&words(&["--rps", "200,800", "--duration-ms", "750"]), false)
            .unwrap();
        assert_eq!(o.rps, vec![200, 800]);
        assert_eq!(o.duration_ms, 750);
        // Default: the library's default sweep.
        let o = ClientOptions::parse(&[], false).unwrap();
        assert_eq!(o.rps, vec![500, 2000, 8000]);
        assert_eq!(o.duration_ms, 1000);
        assert!(ClientOptions::parse(&words(&["--rps", "5x0"]), false).is_err());
    }

    #[test]
    fn parses_session_serve_options() {
        let o = ServeOptions::parse(&words(&[
            "--max-sessions",
            "4",
            "--session-decay-shift",
            "3",
            "--session-drift-ppm",
            "700000",
            "--session-cooldown",
            "1",
            "--session-idle-ms",
            "5000",
        ]))
        .unwrap();
        assert_eq!(o.cfg.max_sessions, 4);
        assert_eq!(o.cfg.session_decay_shift, 3);
        assert_eq!(o.cfg.session_drift_threshold_ppm, 700_000);
        assert_eq!(o.cfg.session_cooldown_deltas, 1);
        assert_eq!(o.cfg.session_idle_ms, 5000);
    }

    #[test]
    fn parses_stream_loadgen_options() {
        let o = ClientOptions::parse(
            &words(&[
                "--stream",
                "--connections",
                "3",
                "--deltas",
                "40",
                "--phase-every",
                "10",
            ]),
            false,
        )
        .unwrap();
        assert!(o.stream);
        assert_eq!(o.connections, 3);
        assert_eq!(o.deltas, 40);
        assert_eq!(o.phase_every, 10);
        // --stream is valueless: defaults survive when it is the only flag.
        let o = ClientOptions::parse(&words(&["--stream"]), false).unwrap();
        assert!(o.stream);
        assert_eq!(o.deltas, 24);
    }

    #[test]
    fn parses_session_replay_options() {
        let o = ClientOptions::parse(
            &words(&["session", "--trace", "run.jsonl", "--batch", "64"]),
            true,
        )
        .unwrap();
        assert_eq!(o.action, "session");
        assert_eq!(o.trace.as_deref(), Some("run.jsonl"));
        assert_eq!(o.batch, 64);
        // The action list in the missing-action error names `session`.
        let err = ClientOptions::parse(&[], true).unwrap_err();
        assert!(err.contains("session"), "{err}");
    }

    #[test]
    fn rejects_bad_topo_specs() {
        assert!(parse_topo("2x2").is_err());
        assert!(parse_topo("2x0x2").is_err());
        assert!(parse_topo("axbxc").is_err());
        assert_eq!(parse_topo("1x2x4").unwrap(), Topology::new(1, 2, 4));
    }

    #[test]
    fn missing_matrix_file_is_a_display_error() {
        let err = load_matrix("/nonexistent/matrix.json").unwrap_err();
        assert!(err.contains("/nonexistent/matrix.json"));
    }
}
