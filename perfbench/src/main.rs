//! `tlbmap-perfbench`: runs one benchmark workload against the library's
//! public API, checks its outputs and prints its metrics.
//!
//! ```text
//! tlbmap-perfbench --workload <npb-pipeline|serve-mix>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--spans-out <file>] [--write-expect]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is a
//! `detail` object (sample counts, check failures, digests). The exit code
//! is 1 when any check failed.

mod expect;
mod host;
mod layers;
mod metrics;
mod serve;
mod sim;
mod trace;

use host::Probe;
use metrics::{mean, median, quantile, Values, END_TO_END, PER_LAYER};
use sim::SimInputs;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is the median of their normalised times.
const SETUP_REPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_out: Option<String>,
    write_expect: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: expect::DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        spans_out: None,
        write_expect: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--write-expect" {
            args.write_expect = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans-out" => args.spans_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    Ok(args)
}

/// What a workload run hands back for printing.
#[derive(Default)]
struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    detail: Vec<(&'static str, String)>,
}

impl Outcome {
    fn check(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu = host::pin_to_one_cpu();
    let mut tr = Tracer::new(args.traced);
    let result = match args.workload.as_str() {
        "npb-pipeline" => run_sim(&args, &mut tr),
        "serve-mix" => run_serve(&args, &mut tr),
        other => Err(format!(
            "unknown workload `{other}` (npb-pipeline, serve-mix)"
        )),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.spans_out {
        if let Err(e) = tr.write_jsonl(path) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    out.values.set("peak_rss_mib", metrics::peak_rss_mib());
    let attempted = out.attempted.max(1);
    out.values
        .set("ok_ratio", 1.0 - out.failed as f64 / attempted as f64);
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    let mut detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    detail.push(format!(
        "\"pinned_cpu\": {}",
        cpu.map_or("null".into(), |c| c.to_string())
    ));
    let failures: Vec<String> = out.failures.iter().map(|f| format!("{f:?}")).collect();
    detail.push(format!("\"failures\": [{}]", failures.join(", ")));
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.failed,
        out.values.render(defs)
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compare `facts` with the committed expectation (default seed) or with
/// `reference` (any other seed: every pass must repeat the first). A
/// `partial` pass is compared with the facts of the kernels it ran.
fn check_facts(
    args: &Args,
    facts: &expect::Facts,
    partial: bool,
    reference: &mut Option<expect::Facts>,
    out: &mut Outcome,
) -> Result<(), String> {
    if args.seed == expect::DEFAULT_SEED && reference.is_none() {
        let path = format!(
            "{}/expected/{}.json",
            env!("CARGO_MANIFEST_DIR"),
            args.workload
        );
        if args.write_expect {
            std::fs::write(&path, expect::render(&args.workload, args.seed, facts))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        *reference = Some(expect::parse(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    let want = reference.get_or_insert_with(|| facts.clone());
    let kernel = |key: &String| key.split('.').next().map(str::to_string);
    let ran: std::collections::BTreeSet<_> = facts.keys().filter_map(kernel).collect();
    let want: expect::Facts = want
        .iter()
        .filter(|(key, _)| !partial || kernel(key).is_some_and(|k| ran.contains(&k)))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    out.check(facts.len() as u64, expect::mismatches(&want, facts));
    Ok(())
}

/// Set-up times, each divided by the host's slowdown measured right after
/// it; `setup_s` is their median.
#[derive(Default)]
struct Setups {
    raw_s: Vec<f64>,
    normalised_s: Vec<f64>,
}

impl Setups {
    fn push(&mut self, took: Duration, probe: &mut Probe) {
        probe.after(took);
        self.raw_s.push(took.as_secs_f64());
        self.normalised_s
            .push(took.as_secs_f64() / probe.slowdown());
    }

    fn report(&self, out: &mut Outcome) {
        out.values.set("setup_s", median(&self.normalised_s));
        out.detail
            .push(("setup_samples", format!("{:?}", self.normalised_s)));
        out.detail
            .push(("raw_setup_samples", format!("{:?}", self.raw_s)));
    }
}

/// Set `throughput_per_s` and `latency_ms` from the timed loop's raw
/// figures divided by the host's slowdown over the loop, and record the
/// raw figures. Returns the normalised throughput.
fn report_timing(
    out: &mut Outcome,
    probe: &Probe,
    raw_throughput: f64,
    raw_latency_ms: f64,
) -> f64 {
    let slowdown = probe.slowdown();
    let throughput = raw_throughput * slowdown;
    out.values.set("throughput_per_s", throughput);
    out.values.set("latency_ms", raw_latency_ms / slowdown);
    out.values.set("host.slowdown", slowdown);
    out.detail.push(("slowdown", format!("{slowdown:?}")));
    out.detail
        .push(("probe_samples", probe.samples().to_string()));
    out.detail
        .push(("raw_throughput_per_s", format!("{raw_throughput:?}")));
    out.detail
        .push(("raw_latency_ms", format!("{raw_latency_ms:?}")));
    throughput
}

fn run_sim(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: generate the inputs and run one untimed warm pipeline. Every
    // pipeline allocates the same engine state whatever its trace, so the
    // smallest kernel's is enough for first-touch page faults to land here.
    let mut setups = Setups::default();
    let mut inputs: Option<SimInputs> = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let mut probe = Probe::new();
        let t = Instant::now();
        let fresh = sim::generate(args.seed, tr);
        sim::kernel_pipeline(
            &fresh,
            fresh.smallest_kernel(),
            u64::MAX >> 8,
            &mut Tracer::new(false),
        );
        setups.push(t.elapsed(), &mut probe);
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    setups.report(&mut out);
    let (gen_ns, _) = tr.total("workloads.generate");
    out.values.set(
        "workloads.generate_ms",
        gen_ns as f64 / 1e6 / SETUP_REPS as f64,
    );

    let n_kernels = inputs.kernels.len();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<Vec<sim::KernelOutcome>> = Vec::new();
    let mut pipeline_ms = Vec::new();
    let mut layer_counts = Vec::new();
    let mut probe = Probe::new();
    // Kernels run round-robin until the deadline, after at least one whole
    // pass; the last pass may stop part-way. The probe samples after each
    // pipeline, in proportion to its time.
    for i in 0.. {
        let (pass_idx, k) = ((i / n_kernels) as u64, i % n_kernels);
        if i >= n_kernels && Instant::now() >= deadline {
            break;
        }
        if k == 0 {
            passes.push(Vec::new());
        }
        let t = Instant::now();
        let outcome = sim::kernel_pipeline(&inputs, k, pass_idx, tr);
        let took = t.elapsed();
        pipeline_ms.push(took.as_secs_f64() * 1e3);
        probe.after(took);
        passes.last_mut().expect("pass opened").push(outcome);
        if tr.enabled() {
            let id = sim::kernel_id(pass_idx, k);
            layer_counts.push(layers::measure_kernel(&inputs, k, id, tr));
        }
    }

    // Checks, outside the timed loop.
    let mut reference = None;
    for outcomes in &passes {
        let partial = outcomes.len() < n_kernels;
        let facts = expect::sim_facts(outcomes);
        check_facts(args, &facts, partial, &mut reference, &mut out)?;
    }
    let invariants = sim::check_invariants(&inputs, &passes[0]);
    out.check(invariants.checks, invariants.violations);
    for c in &layer_counts {
        out.check(layers::CHECKS, c.failures.clone());
    }

    // A pass is timed as the sum over kernels of each kernel's mean
    // pipeline time in the run (a traced run's layer replays between
    // pipelines do not count), and latency is the geometric mean of the
    // same nine times: the pipelines run 0.25-3 s, so their median would be
    // one kernel's time and their arithmetic mean the largest kernels'.
    // Both are divided by the host's slowdown over the same pipelines.
    let events_per_pass: u64 = (0..n_kernels).map(|k| inputs.pipeline_events(k)).sum();
    let mean_pipeline_ms: Vec<f64> = (0..n_kernels)
        .map(|k| {
            let samples: Vec<f64> = pipeline_ms[k..]
                .iter()
                .step_by(n_kernels)
                .copied()
                .collect();
            mean(&samples)
        })
        .collect();
    let pass_s = mean_pipeline_ms.iter().sum::<f64>() / 1e3;
    let raw_throughput = events_per_pass as f64 / pass_s;
    let log_mean = mean_pipeline_ms.iter().map(|ms| ms.ln()).sum::<f64>() / n_kernels as f64;
    let raw_latency = log_mean.exp();
    let throughput = report_timing(&mut out, &probe, raw_throughput, raw_latency);
    if tr.enabled() {
        sim_layer_metrics(&inputs, &passes[0], &layer_counts, tr, &mut out);
        out.values.set("trace.throughput_per_s", throughput);
    }

    out.detail.push(("passes", passes.len().to_string()));
    out.detail.push(("pass_s", format!("{pass_s:?}")));
    out.detail
        .push(("mean_pipeline_ms", format!("{mean_pipeline_ms:?}")));
    out.detail.push(("pipeline_ms", format!("{pipeline_ms:?}")));
    out.detail
        .push(("events_per_pass", events_per_pass.to_string()));
    out.detail.push((
        "costlier_than_identity",
        format!("{:?}", invariants.costlier_than_identity),
    ));
    let digest = expect::fnv(format!("{:?}", expect::sim_facts(&passes[0])).as_bytes());
    out.detail
        .push(("facts_digest", format!("\"{digest:016x}\"")));
    Ok(out)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of a traced simulator run, from its spans and the
/// replayed work counts of one pass.
fn sim_layer_metrics(
    inputs: &SimInputs,
    first_pass: &[sim::KernelOutcome],
    counts: &[layers::LayerCounts],
    tr: &Tracer,
    out: &mut Outcome,
) {
    let per_op = |name: &str| {
        let (ns, ops) = tr.total(name);
        ratio(ns, ops)
    };
    let (base_ns, base_events) = tr.total("sim.nohooks_detect_cfg");
    let (translate_ns, _) = tr.total("mem.translate");
    let (access_ns, _) = tr.total("cache.access");
    let v = &mut out.values;
    v.set("sim.simulate_ns_per_event", per_op("sim.simulate"));
    v.set("mem.translate_ns", per_op("mem.translate"));
    v.set("cache.access_ns", per_op("cache.access"));
    let unexplained = base_ns as f64 - translate_ns as f64 - access_ns as f64;
    v.set(
        "sim.unexplained_ns_per_event",
        unexplained / base_events.max(1) as f64,
    );
    v.set(
        "sim.explained_pct",
        100.0 * ratio(translate_ns + access_ns, base_ns),
    );
    let first_pass_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "sim.nohooks_detect_cfg" && s.id >> 8 == 0)
        .map(trace::Span::ns)
        .sum();
    v.set("sim.replayed_ms", first_pass_ns as f64 / 1e6);
    v.set(
        "detect.sm_ns_per_event",
        per_op("detect.sm") - per_op("sim.nohooks_detect_cfg"),
    );
    v.set("detect.hm_search_us", per_op("detect.hm_search") / 1e3);
    v.set("mapping.map_us", per_op("mapping.map") / 1e3);

    // Work counts of one pass: they repeat exactly for a fixed seed.
    let one_pass = &counts[..inputs.kernels.len()];
    let sum = |f: fn(&layers::LayerCounts) -> u64| one_pass.iter().map(f).sum::<u64>();
    let accesses = sum(|c| c.accesses);
    v.set("mem.tlb_miss_ratio", ratio(sum(|c| c.tlb_misses), accesses));
    v.set(
        "cache.l2_miss_ratio",
        ratio(sum(|c| c.l2_misses), sum(|c| c.l2_hits + c.l2_misses)),
    );
    v.set(
        "cache.invalidations_per_kaccess",
        1e3 * ratio(sum(|c| c.invalidations), accesses),
    );
    v.set(
        "cache.snoops_per_kaccess",
        1e3 * ratio(sum(|c| c.snoops), accesses),
    );
    v.set(
        "detect.sm_searches",
        first_pass.iter().map(|o| o.sm.searches).sum::<u64>() as f64,
    );
    v.set(
        "detect.hm_searches",
        first_pass.iter().map(|o| o.hm.searches).sum::<u64>() as f64,
    );
    tracing_overhead(tr, out);
}

/// Estimate what recording spans cost: time empty spans on a scratch
/// tracer and scale by the spans this run recorded.
fn tracing_overhead(tr: &Tracer, out: &mut Outcome) {
    const PROBES: u64 = 100_000;
    let mut probe = Tracer::new(true);
    let t = Instant::now();
    for i in 0..PROBES {
        probe.span("probe", i, 1, |_| ());
    }
    let per_span_ns = t.elapsed().as_nanos() as f64 / PROBES as f64;
    let spans = tr.spans().len() as f64;
    let run_ns = tr
        .spans()
        .iter()
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    out.values.set("trace.spans", spans);
    out.values
        .set("trace.overhead_pct", 100.0 * spans * per_span_ns / run_ns);
}

/// Replies per second of `busy_s` and median latency in milliseconds.
fn rate_and_p50(trips: &[serve::Trip], busy_s: f64) -> (f64, f64) {
    let ms: Vec<f64> = trips.iter().map(|t| t.ms).collect();
    (trips.len() as f64 / busy_s, median(&ms))
}

/// Per-class metric names, indexed like `serve::CLASSES`.
const CLASS_RATE: [&str; 3] = ["serve.miss_per_s", "serve.hit_per_s", "serve.delta_per_s"];
const CLASS_P50: [&str; 3] = [
    "serve.miss_p50_ms",
    "serve.hit_p50_ms",
    "serve.delta_p50_ms",
];

fn run_serve(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: generate the request schedule, start a server, connect,
    // open the session and run the warm pass. Only the last server is
    // kept for the timed loop.
    let mut setups = Setups::default();
    let mut kept = None;
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        let mut probe = Probe::new();
        let t = Instant::now();
        let fresh = serve::ServeInputs::generate(args.seed);
        let setup = serve::setup(&fresh, tr.enabled())?;
        setups.push(t.elapsed(), &mut probe);
        if rep + 1 < SETUP_REPS {
            serve::teardown(setup);
        } else {
            kept = Some(setup);
        }
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    setups.report(&mut out);

    let mut probe = Probe::new();
    let run = serve::run(
        &inputs,
        kept.expect("a set-up is kept"),
        args.seconds,
        &mut probe,
        tr,
    );
    out.attempted += run.attempted;
    out.failed += run.failed;
    out.failures.extend(run.failures);

    let mut reference = None;
    check_facts(
        args,
        &serve::facts(&inputs),
        false,
        &mut reference,
        &mut out,
    )?;

    // Throughput is replies per second of loop time, the probe's pauses
    // excluded; latency is the mean round trip. The loop has one
    // connection, so the two are nearly each other's inverse. The mean and
    // not the median: with 60 % misses at about 2 ms and 30 % hits at
    // about 0.45 ms, the blend's median sits at the edge of the miss mode
    // and jumps with the mix of the moment, while the mean weighs every
    // round trip, as the probe's mean weighs the host's phases.
    let lat_ms: Vec<f64> = run.trips.iter().map(|t| t.ms).collect();
    let raw_throughput = run.trips.len() as f64 / run.busy_s;
    let throughput = report_timing(&mut out, &probe, raw_throughput, mean(&lat_ms));
    let mut class_detail = Vec::new();
    for (c, name) in serve::CLASSES.iter().enumerate() {
        let of_class: Vec<serve::Trip> =
            run.trips.iter().filter(|t| t.class == c).copied().collect();
        let (rate, p50) = rate_and_p50(&of_class, run.busy_s);
        if tr.enabled() {
            out.values.set(CLASS_RATE[c], rate);
            out.values.set(CLASS_P50[c], p50);
        }
        class_detail.push(format!(
            "\"{name}\": {{\"per_s\": {rate}, \"p50_ms\": {p50}, \"samples\": {}}}",
            of_class.len()
        ));
    }
    let p99 = quantile(&lat_ms, 0.99);
    if tr.enabled() {
        let (checks, failures) = serve::measure_codec_and_mapper(&inputs, tr);
        out.check(checks, failures);
        let us = |name: &str| {
            let d: Vec<f64> = tr
                .durations(name)
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect();
            median(&d)
        };
        let ring = run.slow_ring.as_array().unwrap_or(&[]).to_vec();
        let ring_us = |key: &str| {
            let xs: Vec<f64> = ring
                .iter()
                .filter_map(|e| e.get(key).and_then(tlbmap_obs::Json::as_u64))
                .map(|x| x as f64)
                .collect();
            median(&xs)
        };
        let stat = |key: &str| {
            run.stats
                .get(key)
                .and_then(tlbmap_obs::Json::as_u64)
                .unwrap_or(0)
        };
        let (encode, parse, compute) =
            (us("serve.encode"), us("serve.parse"), ring_us("compute_us"));
        let v = &mut out.values;
        v.set("serve.encode_us", encode);
        v.set("serve.parse_us", parse);
        v.set("serve.session_delta_us", us("serve.session_delta"));
        v.set("mapping.map_us", us("mapping.map"));
        v.set("serve.queue_wait_us", ring_us("queue_us"));
        v.set("serve.compute_us", compute);
        v.set(
            "serve.unexplained_us",
            median(&lat_ms) * 1e3 - encode - parse - compute,
        );
        let (hits, misses) = (stat("cache_hits"), stat("cache_misses"));
        v.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
        v.set(
            "serve.remap_ratio",
            ratio(stat("remaps_triggered"), stat("session_deltas")),
        );
        let (warm, cold) = (stat("warm_start_hits"), stat("warm_start_fallbacks"));
        v.set("serve.warm_ratio", ratio(warm, warm + cold));
        v.set("serve.latency_p99_ms", p99);
        v.set("serve.latency_samples", lat_ms.len() as f64);
        v.set("trace.throughput_per_s", throughput);
        tracing_overhead(tr, &mut out);
        out.detail
            .push(("slow_ring_samples", ring.len().to_string()));
    }

    out.detail
        .push(("latency_samples", lat_ms.len().to_string()));
    out.detail.push(("busy_s", format!("{:?}", run.busy_s)));
    out.detail
        .push(("classes", format!("{{{}}}", class_detail.join(", "))));
    out.detail
        .push(("latency_p50_all_ms", format!("{}", median(&lat_ms))));
    out.detail.push(("latency_p99_ms", format!("{p99}")));
    out.detail.push(("server_stats", run.stats.render()));
    Ok(out)
}
