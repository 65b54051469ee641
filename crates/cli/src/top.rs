//! `tlbmap top` — a live dashboard over the serve admin endpoint.
//!
//! Polls a running server's `admin stats` frame on an interval and
//! renders the flat document as an aligned table plus rolling sparklines
//! of request rate and windowed p99, in the spirit of `top(1)`. With
//! `--raw` the screen is never cleared (each refresh appends), which is
//! what scripts and CI logs want; `--iterations N` bounds the run so a
//! gate can take a single snapshot and exit.

use tlbmap_bench::{sparkline, Table};
use tlbmap_obs::Json;
use tlbmap_serve::{AdminKind, Client};

use crate::serve_cmd::DEFAULT_ADDR;

/// How many poll results the sparkline histories keep.
const HISTORY: usize = 60;

/// Options of `tlbmap top`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopOptions {
    /// Server address to poll.
    pub addr: String,
    /// Milliseconds between polls.
    pub interval_ms: u64,
    /// Number of polls before exiting; 0 = run until interrupted (or the
    /// server goes away).
    pub iterations: u64,
    /// Never clear the screen; append each refresh (script/CI mode).
    pub raw: bool,
}

impl TopOptions {
    /// Parse everything after `top`.
    pub fn parse(args: &[String]) -> Result<TopOptions, String> {
        let mut o = TopOptions {
            addr: DEFAULT_ADDR.to_string(),
            interval_ms: 1000,
            iterations: 0,
            raw: false,
        };
        let mut i = 0;
        while i < args.len() {
            let value = |name: &str| -> Result<String, String> {
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            let parse = |name: &str, raw: &str| -> Result<u64, String> {
                raw.parse().map_err(|e| format!("{name}: {e}"))
            };
            match args[i].as_str() {
                "--addr" => o.addr = value("--addr")?,
                "--interval-ms" => {
                    o.interval_ms = parse("--interval-ms", &value("--interval-ms")?)?
                }
                "--iterations" => o.iterations = parse("--iterations", &value("--iterations")?)?,
                "--raw" => {
                    o.raw = true;
                    i += 1;
                    continue;
                }
                flag => return Err(format!("unknown flag `{flag}`")),
            }
            i += 2;
        }
        if o.interval_ms == 0 {
            return Err("--interval-ms must be positive".into());
        }
        Ok(o)
    }
}

fn u64_of(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn f64_of(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// A windowed quantile: `Null` (empty window) renders as `-`, never 0.
fn quantile_cell(doc: &Json, key: &str) -> String {
    match doc.get(key).and_then(Json::as_u64) {
        Some(us) => format!("{us}"),
        None => "-".to_string(),
    }
}

/// Render the event-loop rows from the `loop` object of an `admin stats`
/// document: open connections, registered fds, tick rate, and the
/// per-tick batch-size quantiles. An older server without the field just
/// loses these rows.
pub fn render_loop_rows(table: &mut Table, doc: &Json) {
    let Some(loop_doc) = doc.get("loop") else {
        return;
    };
    table.row(vec![
        "connections".to_string(),
        format!(
            "{} open, {} accepted",
            u64_of(loop_doc, "conns_open"),
            u64_of(loop_doc, "conns_accepted"),
        ),
    ]);
    table.row(vec![
        "event loop".to_string(),
        format!(
            "{} fds, {:.1} ticks/s",
            u64_of(loop_doc, "fds"),
            f64_of(loop_doc, "ticks_per_s"),
        ),
    ]);
    table.row(vec![
        "batch size".to_string(),
        format!(
            "p50 {} / p99 {}",
            quantile_cell(loop_doc, "batch_p50"),
            quantile_cell(loop_doc, "batch_p99"),
        ),
    ]);
}

/// Render the streaming-sessions rows from an `admin sessions` document:
/// open sessions, delta throughput and remap decisions.
pub fn render_sessions_rows(table: &mut Table, doc: &Json, deltas_per_s: f64) {
    table.row(vec![
        "sessions".to_string(),
        format!(
            "{}/{} open, {deltas_per_s:.1} deltas/s",
            u64_of(doc, "open_sessions"),
            u64_of(doc, "max_sessions"),
        ),
    ]);
    table.row(vec![
        "remaps".to_string(),
        format!(
            "{} triggered / {} suppressed",
            u64_of(doc, "remaps_triggered"),
            u64_of(doc, "remaps_suppressed"),
        ),
    ]);
}

/// Render one poll of the admin stats document (plus, when the scrape
/// succeeded, the `admin sessions` rows).
pub fn render_frame(
    doc: &Json,
    sessions: Option<&Json>,
    deltas_per_s: f64,
    rps_history: &[f64],
    p99_history: &[f64],
) -> String {
    let uptime_s = u64_of(doc, "uptime_ms") / 1000;
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["uptime (s)".to_string(), uptime_s.to_string()]);
    table.row(vec![
        "requests".to_string(),
        u64_of(doc, "requests").to_string(),
    ]);
    table.row(vec![
        "map requests".to_string(),
        u64_of(doc, "map_requests").to_string(),
    ]);
    table.row(vec![
        "window rps".to_string(),
        format!("{:.1}", f64_of(doc, "window_rps")),
    ]);
    table.row(vec![
        "window p50 (us)".to_string(),
        quantile_cell(doc, "window_p50_us"),
    ]);
    table.row(vec![
        "window p99 (us)".to_string(),
        quantile_cell(doc, "window_p99_us"),
    ]);
    table.row(vec![
        "queue".to_string(),
        format!(
            "{}/{}",
            u64_of(doc, "queue_depth"),
            u64_of(doc, "queue_capacity")
        ),
    ]);
    table.row(vec![
        "workers busy".to_string(),
        format!("{}/{}", u64_of(doc, "workers_busy"), u64_of(doc, "workers")),
    ]);
    table.row(vec![
        "utilization".to_string(),
        format!("{:.1}%", f64_of(doc, "utilization") * 100.0),
    ]);
    let hits = u64_of(doc, "cache_hits");
    let misses = u64_of(doc, "cache_misses");
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64 * 100.0
    } else {
        0.0
    };
    table.row(vec![
        "cache hit rate".to_string(),
        format!("{hit_rate:.1}% ({hits}h/{misses}m)"),
    ]);
    let errors: u64 = [
        "err_bad_frame",
        "err_bad_request",
        "err_overloaded",
        "err_timeout",
        "err_shutting_down",
        "err_internal",
    ]
    .iter()
    .map(|k| u64_of(doc, k))
    .sum();
    table.row(vec!["errors".to_string(), errors.to_string()]);
    table.row(vec![
        "slow requests".to_string(),
        u64_of(doc, "slow_requests").to_string(),
    ]);
    render_loop_rows(&mut table, doc);
    if let Some(sessions) = sessions {
        render_sessions_rows(&mut table, sessions, deltas_per_s);
    }
    let mut out = table.render();
    if rps_history.len() > 1 {
        out.push_str(&format!("  rps  {}\n", sparkline(rps_history)));
        out.push_str(&format!("  p99  {}\n", sparkline(p99_history)));
    }
    out
}

/// `tlbmap top` — poll and render until `iterations` runs out (0 = until
/// the server goes away or the process is interrupted).
pub fn top(o: TopOptions) -> Result<(), String> {
    let mut client: Option<Client> = None;
    let mut rps_history: Vec<f64> = Vec::new();
    let mut p99_history: Vec<f64> = Vec::new();
    let mut iteration: u64 = 0;
    let mut last_deltas: Option<u64> = None;
    loop {
        iteration += 1;
        // (Re)connect lazily so a restarting server only costs one poll.
        if client.is_none() {
            client = Client::connect(&o.addr).ok();
        }
        let doc = match client.as_mut().map(|c| c.admin(AdminKind::Stats)) {
            Some(Ok(doc)) => Some(doc),
            _ => {
                client = None;
                None
            }
        };
        // The sessions scrape rides the same connection; an older server
        // that rejects the kind just loses the sessions rows.
        let sessions = client
            .as_mut()
            .and_then(|c| c.admin(AdminKind::Sessions).ok());
        match doc {
            Some(doc) => {
                rps_history.push(f64_of(&doc, "window_rps"));
                p99_history
                    .push(doc.get("window_p99_us").and_then(Json::as_u64).unwrap_or(0) as f64);
                if rps_history.len() > HISTORY {
                    rps_history.remove(0);
                    p99_history.remove(0);
                }
                let deltas_per_s = sessions
                    .as_ref()
                    .map(|s| u64_of(s, "session_deltas"))
                    .map_or(0.0, |now| {
                        let rate = last_deltas.map_or(0.0, |prev| {
                            now.saturating_sub(prev) as f64 / (o.interval_ms as f64 / 1000.0)
                        });
                        last_deltas = Some(now);
                        rate
                    });
                if !o.raw {
                    // Clear screen + home, like top(1).
                    print!("\x1b[2J\x1b[H");
                }
                println!("tlbmap top — {} (poll {iteration})", o.addr);
                print!(
                    "{}",
                    render_frame(
                        &doc,
                        sessions.as_ref(),
                        deltas_per_s,
                        &rps_history,
                        &p99_history
                    )
                );
            }
            None if o.iterations == 0 => {
                println!("# {} unreachable, retrying", o.addr);
            }
            None => return Err(format!("{}: server unreachable", o.addr)),
        }
        if o.iterations > 0 && iteration >= o.iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(o.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_top_options() {
        let words: Vec<String> = [
            "--addr",
            "127.0.0.1:9000",
            "--interval-ms",
            "200",
            "--iterations",
            "3",
            "--raw",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = TopOptions::parse(&words).unwrap();
        assert_eq!(o.addr, "127.0.0.1:9000");
        assert_eq!(o.interval_ms, 200);
        assert_eq!(o.iterations, 3);
        assert!(o.raw);
        let defaults = TopOptions::parse(&[]).unwrap();
        assert_eq!(defaults.interval_ms, 1000);
        assert_eq!(defaults.iterations, 0);
        assert!(!defaults.raw);
    }

    #[test]
    fn rejects_bad_top_options() {
        let w = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert!(TopOptions::parse(&w(&["--interval-ms", "0"])).is_err());
        assert!(TopOptions::parse(&w(&["--interval-ms"])).is_err());
        assert!(TopOptions::parse(&w(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn renders_a_frame_from_an_admin_doc() {
        let doc = Json::obj(vec![
            ("uptime_ms", Json::U64(65_000)),
            ("requests", Json::U64(1200)),
            ("map_requests", Json::U64(1000)),
            ("window_rps", Json::F64(85.5)),
            ("window_p50_us", Json::U64(96)),
            ("window_p99_us", Json::U64(1536)),
            ("queue_depth", Json::U64(3)),
            ("queue_capacity", Json::U64(64)),
            ("workers", Json::U64(4)),
            ("workers_busy", Json::U64(2)),
            ("utilization", Json::F64(0.42)),
            ("cache_hits", Json::U64(900)),
            ("cache_misses", Json::U64(100)),
            ("err_timeout", Json::U64(2)),
            ("slow_requests", Json::U64(5)),
        ]);
        let frame = render_frame(
            &doc,
            None,
            0.0,
            &[10.0, 50.0, 85.5],
            &[800.0, 1200.0, 1536.0],
        );
        assert!(frame.contains("uptime (s)"), "{frame}");
        assert!(frame.contains("65"), "{frame}");
        assert!(frame.contains("3/64"), "{frame}");
        assert!(frame.contains("2/4"), "{frame}");
        assert!(frame.contains("42.0%"), "{frame}");
        assert!(frame.contains("90.0%"), "{frame}");
        // The max of each history renders as the tallest sparkline glyph.
        assert!(frame.contains('█'), "{frame}");
        // Error total sums the per-code counters.
        assert!(frame.contains("errors"), "{frame}");
        // Without a sessions scrape the sessions rows stay out of the frame.
        assert!(!frame.contains("sessions"), "{frame}");
    }

    #[test]
    fn renders_event_loop_rows_from_the_loop_field() {
        let doc = Json::obj(vec![
            ("uptime_ms", Json::U64(2000)),
            ("window_rps", Json::F64(10.0)),
            (
                "loop",
                Json::obj(vec![
                    ("ticks", Json::U64(480)),
                    ("ticks_per_s", Json::F64(240.5)),
                    ("fds", Json::U64(7)),
                    ("conns_open", Json::U64(5)),
                    ("conns_accepted", Json::U64(19)),
                    ("batch_p50", Json::U64(2)),
                    ("batch_p99", Json::Null),
                ]),
            ),
        ]);
        let frame = render_frame(&doc, None, 0.0, &[], &[]);
        assert!(frame.contains("5 open, 19 accepted"), "{frame}");
        assert!(frame.contains("7 fds, 240.5 ticks/s"), "{frame}");
        assert!(frame.contains("p50 2 / p99 -"), "{frame}");
        // The loop rows must not trip the no-sessions assertion.
        assert!(!frame.contains("sessions"), "{frame}");
    }

    #[test]
    fn renders_session_rows_from_a_sessions_doc() {
        let doc = Json::obj(vec![
            ("uptime_ms", Json::U64(1000)),
            ("window_rps", Json::F64(1.0)),
        ]);
        let sessions = Json::obj(vec![
            ("open_sessions", Json::U64(2)),
            ("max_sessions", Json::U64(32)),
            ("session_deltas", Json::U64(480)),
            ("remaps_triggered", Json::U64(5)),
            ("remaps_suppressed", Json::U64(40)),
        ]);
        let frame = render_frame(&doc, Some(&sessions), 12.5, &[1.0], &[1.0]);
        assert!(frame.contains("2/32 open, 12.5 deltas/s"), "{frame}");
        assert!(frame.contains("5 triggered / 40 suppressed"), "{frame}");
    }

    #[test]
    fn empty_window_quantiles_render_as_dashes() {
        let doc = Json::obj(vec![
            ("uptime_ms", Json::U64(1000)),
            ("window_p50_us", Json::Null),
            ("window_p99_us", Json::Null),
        ]);
        let frame = render_frame(&doc, None, 0.0, &[], &[]);
        assert!(frame.contains("window p50 (us)"), "{frame}");
        assert!(frame.contains('-'), "{frame}");
        assert!(!frame.contains('█'), "single poll: no sparkline yet");
    }
}
