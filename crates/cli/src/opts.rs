//! Hand-rolled option parsing (no external CLI dependency).

use tlbmap_workloads::npb::{NpbApp, NpbParams, ProblemScale};
pub use tlbmap_workloads::PatternClass;
use tlbmap_workloads::{synthetic, Workload};

/// Top-level usage text.
pub const USAGE: &str = "\
tlbmap — TLB-based communication detection and thread mapping

USAGE:
  tlbmap topo
  tlbmap detect   [APP] [--mechanism sm|hm|gt] [--format heatmap|csv|json] [OBS] [COMMON]
  tlbmap map      [APP] [--mapper hierarchical|bisect|greedy|exhaustive] [OBS] [COMMON]
  tlbmap simulate [APP] [--mapping identity|scatter|random=<seed>|auto] [OBS] [COMMON]
  tlbmap report   [APP] [OBS] [COMMON]
  tlbmap report   --from <metrics.json>
  tlbmap analyze  --from <metrics.json>
  tlbmap inspect  --from <metrics.json> [--html-out <FILE>]
                  [--speedscope-out <FILE>]
  tlbmap diff     [--fail-above <pct>] <a.json> <b.json>
  tlbmap stats    [APP] [COMMON]
  tlbmap export   [APP] --out <FILE> [COMMON]
  tlbmap serve    [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
                  [--deadline-ms D] [--metrics-out <FILE>]
                  [--window-ms W] [--window-buckets B] [--slow-threshold-us T]
                  [--slow-log <FILE>] [--no-http]
                  [--flight-window CYCLES] [--flight-capacity N]
                  [--max-sessions N] [--session-decay-shift S]
                  [--session-drift-ppm P] [--session-cooldown N]
                  [--session-idle-ms I]
  tlbmap client   map|session|health|stats|live|trace|flight|shutdown
                  [--addr HOST:PORT] [--matrix <FILE>] [--topo CxLxK]
                  [--deadline-ms D] [--delay-ms D]
                  [--trace <FILE>] [--batch N]
  tlbmap loadgen  [--addr HOST:PORT] [--connections N] [--rps P1,P2,..]
                  [--duration-ms D] [--matrix <FILE>] [--topo CxLxK]
                  [--deadline-ms D] [--delay-ms D] [--out <FILE>]
  tlbmap loadgen  --stream [--addr HOST:PORT] [--connections N] [--deltas N]
                  [--phase-every N] [--topo CxLxK] [--out <FILE>]
  tlbmap top      [--addr HOST:PORT] [--interval-ms I] [--iterations N] [--raw]

APP defaults to CG. It may also be `trace=<FILE>` (a file written by
`tlbmap export`) in detect/map/simulate/report/stats.

APP: BT CG EP FT IS LU MG SP UA | ring pairs pipeline uniform private master_worker turns phased

OBS (run-artifact export; any of these enables recording):
  --trace-out <FILE>            event trace as JSONL
  --chrome-out <FILE>           event trace as Chrome trace_event JSON
  --metrics-out <FILE>          counters/histograms/snapshots as JSON
  --snapshot-every <CYCLES>     periodic communication-matrix snapshots
  --flight-window <CYCLES>      flight-recorder window length (defaults
                                to --snapshot-every when recording)
  --flight-capacity <N>         retained flight windows        [64]

COMMON:
  --scale test|small|workshop   problem size              [workshop]
  --cores <N>                   machine size: any power of two >= 4
                                (8 = the paper's Harpertown)  [8]
  --seed <u64>                  workload seed             [1819]
  --sm-threshold <u32>          SM sampling threshold     [100]
  --hm-period <u64>             HM tick period (cycles)   [250000]

ANALYSIS:
  analyze   accuracy timeline, phase boundaries and cycle profile of a
            recorded metrics file (detect/map/report with --metrics-out
            and --snapshot-every fill in the timeline)
  inspect   flight-recorder run explorer: phase timeline with drift
            sparklines, per-phase communication heatmaps, mapping
            quality and cycle attribution; `--html-out` writes a
            self-contained HTML report with SVG heatmaps,
            `--speedscope-out` a speedscope-importable profile
  diff      per-stat comparison of two metrics JSON files; with
            --fail-above <pct> acts as a regression gate (non-zero exit
            when any gated stat regresses by more than <pct> percent)

SERVICE:
  serve     run the mapping service: a TCP server with a bounded work
            queue, worker pool, and LRU result cache (shut it down with
            `tlbmap client shutdown`)
  client    one request against a running service; `map` needs a matrix
            JSON file as written by `tlbmap detect --format json`;
            `session` replays a `--trace-out` JSONL trace as a streaming
            session (a delta per barrier, or every `--batch N` increments)
  loadgen   open-loop sweep against a running service: each `--rps`
            point offers a fixed arrival rate for `--duration-ms`
            [500,2000,8000 for 1000 ms]; reports p50/p90/p99 latency from
            scheduled send time, achieved throughput and the server's
            `map_requests` delta over the sweep, and exits non-zero if
            any request failed; `--stream` drives streaming sessions
            instead (remap decisions and delta latencies)
  top       poll the admin endpoint and render a live dashboard with
            rolling-window latency sparklines (`--raw` for CI logs;
            the server also answers plain HTTP GET on its port with a
            text exposition unless started with `--no-http`)";

/// How `detect` prints the communication matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// ASCII heatmap (the paper's Figures 4–5 look).
    Heatmap,
    /// CSV with a `t0,t1,...` header row.
    Csv,
    /// JSON (`CommMatrix::to_json`).
    Json,
}

/// Parsed command options.
pub struct Options {
    /// Application or synthetic pattern name.
    pub app: String,
    /// Detection mechanism for `detect`.
    pub mechanism: String,
    /// Mapper name for `map`.
    pub mapper: String,
    /// Mapping selector for `simulate`.
    pub mapping: String,
    /// Matrix output format for `detect`.
    pub format: OutputFormat,
    /// JSONL event-trace output path.
    pub trace_out: Option<String>,
    /// Chrome trace_event output path.
    pub chrome_out: Option<String>,
    /// Metrics-JSON output path.
    pub metrics_out: Option<String>,
    /// Snapshot the communication matrix every this many cycles.
    pub snapshot_every: Option<u64>,
    /// Flight-recorder window length in cycles (defaults to
    /// `--snapshot-every` when any recording is active).
    pub flight_window: Option<u64>,
    /// Flight-recorder ring capacity (retained windows).
    pub flight_capacity: usize,
    /// Recorded metrics file for `report --from`.
    pub from: Option<String>,
    /// HTML report output path for `inspect`.
    pub html_out: Option<String>,
    /// Speedscope profile output path for `inspect`.
    pub speedscope_out: Option<String>,
    /// Machine size: any power of two >= 4 cores (8 = Harpertown).
    pub cores: usize,
    /// Problem scale.
    pub scale: ProblemScale,
    /// Workload seed.
    pub seed: u64,
    /// SM sampling threshold.
    pub sm_threshold: u32,
    /// HM tick period.
    pub hm_period: u64,
    /// Output path for `export`.
    pub out: Option<String>,
}

impl Options {
    /// Parse `args` (everything after the subcommand).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            app: String::new(),
            mechanism: "sm".into(),
            mapper: "hierarchical".into(),
            mapping: "auto".into(),
            format: OutputFormat::Heatmap,
            trace_out: None,
            chrome_out: None,
            metrics_out: None,
            snapshot_every: None,
            flight_window: None,
            flight_capacity: 64,
            from: None,
            html_out: None,
            speedscope_out: None,
            out: None,
            cores: 8,
            scale: ProblemScale::Workshop,
            seed: 1819,
            sm_threshold: 100,
            hm_period: 250_000,
        };
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let value = |name: &str| -> Result<String, String> {
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--mechanism" => {
                    o.mechanism = value("--mechanism")?;
                    i += 2;
                }
                "--mapper" => {
                    o.mapper = value("--mapper")?;
                    i += 2;
                }
                "--mapping" => {
                    o.mapping = value("--mapping")?;
                    i += 2;
                }
                "--format" => {
                    o.format = match value("--format")?.as_str() {
                        "heatmap" => OutputFormat::Heatmap,
                        "csv" => OutputFormat::Csv,
                        "json" => OutputFormat::Json,
                        other => return Err(format!("unknown format `{other}`")),
                    };
                    i += 2;
                }
                "--trace-out" => {
                    o.trace_out = Some(value("--trace-out")?);
                    i += 2;
                }
                "--chrome-out" => {
                    o.chrome_out = Some(value("--chrome-out")?);
                    i += 2;
                }
                "--metrics-out" => {
                    o.metrics_out = Some(value("--metrics-out")?);
                    i += 2;
                }
                "--snapshot-every" => {
                    let period: u64 = value("--snapshot-every")?
                        .parse()
                        .map_err(|e| format!("--snapshot-every: {e}"))?;
                    if period == 0 {
                        return Err("--snapshot-every must be positive".into());
                    }
                    o.snapshot_every = Some(period);
                    i += 2;
                }
                "--flight-window" => {
                    let window: u64 = value("--flight-window")?
                        .parse()
                        .map_err(|e| format!("--flight-window: {e}"))?;
                    if window == 0 {
                        return Err("--flight-window must be positive".into());
                    }
                    o.flight_window = Some(window);
                    i += 2;
                }
                "--flight-capacity" => {
                    o.flight_capacity = value("--flight-capacity")?
                        .parse()
                        .map_err(|e| format!("--flight-capacity: {e}"))?;
                    if o.flight_capacity == 0 {
                        return Err("--flight-capacity must be at least 1".into());
                    }
                    i += 2;
                }
                "--from" => {
                    o.from = Some(value("--from")?);
                    i += 2;
                }
                "--html-out" => {
                    o.html_out = Some(value("--html-out")?);
                    i += 2;
                }
                "--speedscope-out" => {
                    o.speedscope_out = Some(value("--speedscope-out")?);
                    i += 2;
                }
                "--out" => {
                    o.out = Some(value("--out")?);
                    i += 2;
                }
                "--cores" => {
                    o.cores = value("--cores")?
                        .parse()
                        .map_err(|e| format!("--cores: {e}"))?;
                    // Validate eagerly so the error names the flag.
                    tlbmap_sim::Topology::scaled(o.cores).map_err(|e| format!("--cores: {e}"))?;
                    i += 2;
                }
                "--scale" => {
                    o.scale = match value("--scale")?.as_str() {
                        "test" => ProblemScale::Test,
                        "small" => ProblemScale::Small,
                        "workshop" => ProblemScale::Workshop,
                        other => return Err(format!("unknown scale `{other}`")),
                    };
                    i += 2;
                }
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                    i += 2;
                }
                "--sm-threshold" => {
                    o.sm_threshold = value("--sm-threshold")?
                        .parse()
                        .map_err(|e| format!("--sm-threshold: {e}"))?;
                    if o.sm_threshold == 0 {
                        return Err("--sm-threshold must be at least 1".into());
                    }
                    i += 2;
                }
                "--hm-period" if args.get(i + 1).map(|v| v == "0").unwrap_or(false) => {
                    return Err("--hm-period must be positive".into());
                }
                "--hm-period" => {
                    o.hm_period = value("--hm-period")?
                        .parse()
                        .map_err(|e| format!("--hm-period: {e}"))?;
                    i += 2;
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag `{flag}`"));
                }
                name => {
                    if !o.app.is_empty() {
                        return Err(format!("unexpected argument `{name}`"));
                    }
                    o.app = name.to_string();
                    i += 1;
                }
            }
        }
        if o.app.is_empty() {
            o.app = "CG".into();
        }
        Ok(o)
    }

    /// Whether any observability artifact was requested.
    pub fn observing(&self) -> bool {
        self.trace_out.is_some()
            || self.chrome_out.is_some()
            || self.metrics_out.is_some()
            || self.snapshot_every.is_some()
            || self.flight_window.is_some()
    }

    /// The flight-recorder window for observed runs: an explicit
    /// `--flight-window`, falling back to the snapshot period so any
    /// snapshotted run gets a phase timeline for free.
    pub fn effective_flight_window(&self) -> Option<u64> {
        self.flight_window.or(self.snapshot_every)
    }

    /// The simulated machine for `--cores`: the scaling-study topology
    /// family, with 8 cores being the paper's Harpertown.
    pub fn topology(&self) -> tlbmap_sim::Topology {
        tlbmap_sim::Topology::scaled(self.cores).expect("validated at parse time")
    }

    /// Generate the requested workload (one thread per `--cores` core),
    /// or load it from a `trace=<file>` argument.
    pub fn workload(&self) -> Result<Workload, String> {
        let n = self.cores;
        if let Some(path) = self.app.strip_prefix("trace=") {
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            let traces = tlbmap_sim::decode_traces(&bytes).map_err(|e| format!("{path}: {e}"))?;
            return Ok(Workload {
                name: format!("trace:{path}"),
                traces,
                expected_pattern: crate::opts::PatternClass::DomainDecomposition,
                footprint_bytes: 0,
            });
        }
        if let Some(app) = NpbApp::from_name(&self.app) {
            let params = NpbParams {
                n_threads: n,
                scale: self.scale,
                seed: self.seed,
            };
            return Ok(app.generate(&params));
        }
        let (pages, iters) = match self.scale {
            ProblemScale::Test => (8, 2),
            ProblemScale::Small => (32, 4),
            ProblemScale::Workshop => (80, 6),
        };
        match self.app.as_str() {
            "ring" => Ok(synthetic::ring_neighbors(n, pages, iters)),
            "pairs" => Ok(synthetic::producer_consumer(n, pages / 2, iters)),
            "pipeline" => Ok(synthetic::pipeline(n, pages / 2, iters)),
            "uniform" => Ok(synthetic::uniform_all_to_all(n, pages / 2, iters)),
            "private" => Ok(synthetic::private_only(n, pages, iters)),
            "master_worker" => Ok(synthetic::master_worker(n, pages / 4, iters)),
            "turns" => Ok(synthetic::turn_taking(n, pages / 4, iters)),
            "phased" => Ok(synthetic::phase_shift(n, pages / 2, iters)),
            other => Err(format!("unknown app `{other}`")),
        }
    }
}

/// Options of `tlbmap diff` (two positional files, unlike [`Options`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOptions {
    /// Baseline document path.
    pub baseline: String,
    /// Candidate document path.
    pub candidate: String,
    /// Regression-gate threshold in percent (`None` = report only).
    pub fail_above: Option<f64>,
}

impl DiffOptions {
    /// Parse `args` (everything after `diff`).
    pub fn parse(args: &[String]) -> Result<DiffOptions, String> {
        let mut files: Vec<String> = Vec::new();
        let mut fail_above = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--fail-above" => {
                    let raw = args
                        .get(i + 1)
                        .ok_or_else(|| "--fail-above needs a value".to_string())?;
                    let pct: f64 = raw.parse().map_err(|e| format!("--fail-above: {e}"))?;
                    if !pct.is_finite() || pct < 0.0 {
                        return Err("--fail-above must be a non-negative percentage".into());
                    }
                    fail_above = Some(pct);
                    i += 2;
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag `{flag}`"));
                }
                file => {
                    files.push(file.to_string());
                    i += 1;
                }
            }
        }
        match files.len() {
            2 => Ok(DiffOptions {
                baseline: files.remove(0),
                candidate: files.remove(0),
                fail_above,
            }),
            n => Err(format!("diff needs exactly two files, got {n}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Options, String> {
        Options::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn parse_diff(words: &[&str]) -> Result<DiffOptions, String> {
        DiffOptions::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_diff_options() {
        let d = parse_diff(&["a.json", "b.json"]).unwrap();
        assert_eq!(d.baseline, "a.json");
        assert_eq!(d.candidate, "b.json");
        assert_eq!(d.fail_above, None);
        let d = parse_diff(&["--fail-above", "5", "a.json", "b.json"]).unwrap();
        assert_eq!(d.fail_above, Some(5.0));
        let d = parse_diff(&["a.json", "b.json", "--fail-above", "2.5"]).unwrap();
        assert_eq!(d.fail_above, Some(2.5));
    }

    #[test]
    fn rejects_bad_diff_options() {
        assert!(parse_diff(&["a.json"]).is_err());
        assert!(parse_diff(&["a.json", "b.json", "c.json"]).is_err());
        assert!(parse_diff(&["a.json", "b.json", "--fail-above"]).is_err());
        assert!(parse_diff(&["a.json", "b.json", "--fail-above", "-1"]).is_err());
        assert!(parse_diff(&["a.json", "b.json", "--fail-above", "NaN"]).is_err());
        assert!(parse_diff(&["a.json", "b.json", "--bogus"]).is_err());
    }

    #[test]
    fn parses_app_and_flags() {
        let o = parse(&[
            "SP",
            "--scale",
            "small",
            "--mechanism",
            "hm",
            "--format",
            "csv",
        ])
        .unwrap();
        assert_eq!(o.app, "SP");
        assert_eq!(o.scale, ProblemScale::Small);
        assert_eq!(o.mechanism, "hm");
        assert_eq!(o.format, OutputFormat::Csv);
        assert!(!o.observing());
    }

    #[test]
    fn app_defaults_to_cg() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.app, "CG");
        assert_eq!(o.format, OutputFormat::Heatmap);
        let o = parse(&["--mechanism", "hm"]).unwrap();
        assert_eq!(o.app, "CG");
        assert_eq!(o.mechanism, "hm");
    }

    #[test]
    fn parses_observability_flags() {
        let o = parse(&[
            "--trace-out",
            "run.jsonl",
            "--chrome-out",
            "run.trace.json",
            "--metrics-out",
            "metrics.json",
            "--snapshot-every",
            "100000",
        ])
        .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("run.jsonl"));
        assert_eq!(o.chrome_out.as_deref(), Some("run.trace.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.json"));
        assert_eq!(o.snapshot_every, Some(100_000));
        assert!(o.observing());
        let o = parse(&["--from", "metrics.json"]);
        assert_eq!(o.unwrap().from.as_deref(), Some("metrics.json"));
    }

    #[test]
    fn parses_flight_flags() {
        let o = parse(&["ring", "--flight-window", "5000", "--flight-capacity", "16"]).unwrap();
        assert_eq!(o.flight_window, Some(5_000));
        assert_eq!(o.flight_capacity, 16);
        assert_eq!(o.effective_flight_window(), Some(5_000));
        assert!(o.observing(), "--flight-window alone enables recording");
        // The window defaults to the snapshot period...
        let o = parse(&["ring", "--snapshot-every", "2000"]).unwrap();
        assert_eq!(o.flight_window, None);
        assert_eq!(o.effective_flight_window(), Some(2_000));
        // ...and an explicit window wins over the snapshot period.
        let o = parse(&["ring", "--snapshot-every", "2000", "--flight-window", "500"]).unwrap();
        assert_eq!(o.effective_flight_window(), Some(500));
        // Zero knobs are rejected at parse time, like --snapshot-every 0.
        assert!(parse(&["ring", "--flight-window", "0"]).is_err());
        assert!(parse(&["ring", "--flight-capacity", "0"]).is_err());
    }

    #[test]
    fn parses_inspect_outputs() {
        let o = parse(&[
            "--from",
            "m.json",
            "--html-out",
            "report.html",
            "--speedscope-out",
            "prof.speedscope.json",
        ])
        .unwrap();
        assert_eq!(o.from.as_deref(), Some("m.json"));
        assert_eq!(o.html_out.as_deref(), Some("report.html"));
        assert_eq!(o.speedscope_out.as_deref(), Some("prof.speedscope.json"));
    }

    #[test]
    fn phased_workload_exists() {
        let mut o = parse(&["phased", "--scale", "test"]).unwrap();
        assert_eq!(o.workload().unwrap().name, "phase_shift");
        o.cores = 4;
        assert_eq!(o.workload().unwrap().traces.len(), 4);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["SP", "--bogus"]).is_err());
        assert!(
            parse(&["SP", "--csv"]).is_err(),
            "--csv was replaced by --format"
        );
        assert!(parse(&["SP", "--format", "xml"]).is_err());
        assert!(parse(&["SP", "--seed", "abc"]).is_err());
        assert!(parse(&["SP", "--sm-threshold", "0"]).is_err());
        assert!(parse(&["SP", "--hm-period", "0"]).is_err());
        assert!(parse(&["SP", "--snapshot-every", "0"]).is_err());
        assert!(parse(&["SP", "--trace-out"]).is_err(), "needs a value");
        assert!(parse(&["SP", "extra"]).is_err());
    }

    #[test]
    fn parses_cores_and_picks_the_scaling_topology() {
        let o = parse(&["ring", "--cores", "32", "--scale", "test"]).unwrap();
        assert_eq!(o.cores, 32);
        assert_eq!(o.topology().num_cores(), 32);
        assert_eq!(o.workload().unwrap().traces.len(), 32);
        let o = parse(&[]).unwrap();
        assert_eq!(o.cores, 8);
        assert_eq!(o.topology().num_cores(), 8);
        assert!(parse(&["ring", "--cores", "7"]).is_err());
        assert!(parse(&["ring", "--cores", "abc"]).is_err());
        // Any power of two >= 4 works, the scaling study's sizes included.
        for n in ["64", "128", "256"] {
            let o = parse(&["ring", "--cores", n]).unwrap();
            assert_eq!(o.topology().num_cores(), n.parse::<usize>().unwrap());
        }
        assert!(parse(&["ring", "--cores", "48"]).is_err());
    }

    /// Every `"--flag"` string literal in the non-test part of `source`.
    fn flag_literals(source: &str) -> Vec<&str> {
        let code = source.split("#[cfg(test)]").next().unwrap();
        code.match_indices("\"--")
            .filter_map(|(at, _)| {
                let rest = &code[at + 1..];
                let len = 2 + rest[2..]
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len() - 2);
                // `len > 2` skips the bare `"--"` of the unknown-flag arm.
                (len > 2 && rest[len..].starts_with('"')).then(|| &rest[..len])
            })
            .collect()
    }

    #[test]
    fn usage_names_every_service_flag() {
        let flags = flag_literals(include_str!("serve_cmd.rs"));
        // The serve, client and loadgen parsers all live there.
        for expected in ["--window-buckets", "--session-idle-ms", "--batch", "--rps"] {
            assert!(flags.contains(&expected), "{expected} not scanned");
        }
        for flag in flags {
            let named = USAGE
                .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .any(|word| word == flag);
            assert!(named, "USAGE does not name {flag}");
        }
        for gone in ["--requests", "--sample-ms", "--cache-shards"] {
            assert!(!USAGE.contains(gone), "USAGE still names {gone}");
        }
    }

    #[test]
    fn builds_npb_and_synthetic_workloads() {
        let mut o = parse(&["bt", "--scale", "test"]).unwrap();
        assert_eq!(o.workload().unwrap().name, "BT");
        o.app = "ring".into();
        assert_eq!(o.workload().unwrap().name, "ring");
        o.app = "nope".into();
        assert!(o.workload().is_err());
    }
}
