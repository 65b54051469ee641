//! Detection and performance campaign runners.
//!
//! The paper's methodology (Section V): detect each application's
//! communication pattern inside the simulator, build a static thread
//! mapping from the detected matrix, then run the application under the OS
//! baseline and under the SM/HM mappings, 100 times each, measuring
//! execution time, invalidations, snoop transactions and L2 misses.
//!
//! The OS baseline is modelled as a *different random placement per
//! repetition* — the paper attributes the OS scheduler's high variance to
//! exactly this ("the operating system scheduler maps the threads
//! incorrectly during many executions").

use tlbmap_core::{
    CommMatrix, GroundTruthConfig, GroundTruthDetector, HmConfig, HmDetector, SmConfig, SmDetector,
};
use tlbmap_mapping::baselines;
use tlbmap_mapping::HierarchicalMapper;
use tlbmap_sim::{simulate, Mapping, NoHooks, RunStats, SimConfig, Topology};
use tlbmap_workloads::npb::{NpbApp, NpbParams, ProblemScale};
use tlbmap_workloads::Workload;

/// Knobs shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Problem scale for the NPB kernels.
    pub scale: ProblemScale,
    /// Repetitions per configuration (the paper uses 100; default 10 keeps
    /// the full campaign under a minute).
    pub reps: usize,
    /// SM sampling threshold (paper: 100 → 1% of misses).
    pub sm_threshold: u32,
    /// HM interrupt period in cycles (paper: 10,000,000).
    pub hm_period: u64,
    /// Base seed for workload generation, jitter and OS placements.
    pub seed: u64,
    /// Run repetitions on multiple OS threads.
    pub parallel: bool,
    /// Worker-thread cap for repetition sharding (`--workers N`); `None`
    /// means one worker per available core.
    pub workers: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            scale: ProblemScale::Workshop,
            reps: 10,
            // The paper's 1-in-100 sampling. The kernels' trace subsampling
            // inflates the per-access miss rate by about the same factor as
            // it shortens the run, so the overhead fraction at threshold 100
            // lands in the paper's Table III range without further scaling.
            sm_threshold: 100,
            // The paper interrupts every 10M cycles on runs of 10^8-10^9
            // cycles. Our subsampled traces run ~10^6-10^7 cycles, so the
            // period is scaled by the same factor to keep the number of
            // searches per run comparable.
            hm_period: 250_000,
            seed: 0x71B,
            parallel: true,
            workers: None,
        }
    }
}

impl CampaignConfig {
    /// Parse overrides from command-line arguments:
    /// `--reps N --scale test|small|workshop --sm-threshold N
    ///  --hm-period N --seed N --workers N --sequential`.
    ///
    /// # Panics
    /// Panics on malformed values, with a message naming the flag.
    pub fn from_args() -> Self {
        Self::parse(&std::env::args().collect::<Vec<_>>())
    }

    /// Parse from an explicit argument list (index 0 is skipped as the
    /// program name). Binaries with extra flags filter theirs out first.
    ///
    /// # Panics
    /// Panics on malformed values or unknown flags.
    pub fn parse(args: &[String]) -> Self {
        let mut cfg = CampaignConfig::default();
        let mut i = 1;
        while i < args.len() {
            let need_value = |i: usize| -> &str {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
            };
            match args[i].as_str() {
                "--reps" => {
                    cfg.reps = need_value(i).parse().expect("--reps takes an integer");
                    i += 2;
                }
                "--scale" => {
                    cfg.scale = match need_value(i) {
                        "test" => ProblemScale::Test,
                        "small" => ProblemScale::Small,
                        "workshop" => ProblemScale::Workshop,
                        other => panic!("unknown scale {other}"),
                    };
                    i += 2;
                }
                "--sm-threshold" => {
                    cfg.sm_threshold = need_value(i)
                        .parse()
                        .expect("--sm-threshold takes an integer");
                    i += 2;
                }
                "--hm-period" => {
                    cfg.hm_period = need_value(i).parse().expect("--hm-period takes an integer");
                    i += 2;
                }
                "--seed" => {
                    cfg.seed = need_value(i).parse().expect("--seed takes an integer");
                    i += 2;
                }
                "--workers" => {
                    cfg.workers = Some(need_value(i).parse().expect("--workers takes an integer"));
                    i += 2;
                }
                "--sequential" => {
                    cfg.parallel = false;
                    i += 1;
                }
                other => panic!("unknown flag {other}"),
            }
        }
        cfg
    }

    /// One-line reproducibility banner for experiment outputs.
    pub fn banner(&self) -> String {
        format!(
            "# config: scale={:?} reps={} sm_threshold={} hm_period={} seed={}",
            self.scale, self.reps, self.sm_threshold, self.hm_period, self.seed,
        )
    }

    /// The machine: the paper's 8-core Harpertown pair.
    pub fn topology(&self) -> Topology {
        Topology::harpertown()
    }

    /// Worker threads to shard `jobs` repetitions across: `--workers N`
    /// wins, otherwise one per available core (or a single worker under
    /// `--sequential`), always clamped to the job count.
    pub fn worker_count(&self, jobs: usize) -> usize {
        let n = match self.workers {
            Some(n) => n.max(1),
            None if self.parallel => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            None => 1,
        };
        n.min(jobs.max(1))
    }

    /// Workload parameters for an app under this config.
    pub fn npb_params(&self) -> NpbParams {
        NpbParams {
            n_threads: self.topology().num_cores(),
            scale: self.scale,
            seed: self.seed,
        }
    }
}

/// Matrices detected for one application, plus the SM run's statistics
/// (Table III feeds from these).
pub struct DetectedMatrices {
    /// The workload the matrices were detected on.
    pub workload: Workload,
    /// Software-managed mechanism result.
    pub sm: CommMatrix,
    /// Hardware-managed mechanism result.
    pub hm: CommMatrix,
    /// Full-trace ground truth.
    pub ground_truth: CommMatrix,
    /// Stats of the SM detection run (TLB miss rate, overhead …).
    pub sm_run: RunStats,
    /// Fraction of TLB misses for which SM ran the search.
    pub sm_sampled_fraction: f64,
    /// Stats of the HM detection run.
    pub hm_run: RunStats,
    /// HM searches executed.
    pub hm_searches: u64,
}

/// Run the three detectors on `app` (detection happens under the identity
/// placement, like tracing inside Simics).
pub fn detect_matrices(app: NpbApp, cfg: &CampaignConfig) -> DetectedMatrices {
    let topo = cfg.topology();
    let n = topo.num_cores();
    let workload = app.generate(&cfg.npb_params());
    let mapping = Mapping::identity(n);

    let sm_cfg = SimConfig::paper_software_managed(&topo);
    let mut sm = SmDetector::new(
        n,
        SmConfig {
            sample_threshold: cfg.sm_threshold,
        },
    );
    let sm_run = simulate(&sm_cfg, &topo, &workload.traces, &mapping, &mut sm);

    let hm_cfg = SimConfig::paper_hardware_managed(&topo).with_tick_period(Some(cfg.hm_period));
    let mut hm = HmDetector::new(n, HmConfig::scaled(cfg.hm_period));
    let hm_run = simulate(&hm_cfg, &topo, &workload.traces, &mapping, &mut hm);

    let mut gt = GroundTruthDetector::new(n, GroundTruthConfig::default());
    simulate(&sm_cfg, &topo, &workload.traces, &mapping, &mut gt);

    DetectedMatrices {
        workload,
        sm_sampled_fraction: sm.sampled_fraction(),
        sm: sm.take_matrix(),
        hm_searches: hm.searches_run(),
        hm: hm.take_matrix(),
        ground_truth: gt.matrix().clone(),
        sm_run,
        hm_run,
    }
}

/// Order-preserving parallel map over independent repetition jobs.
///
/// Items are strided round-robin across up to `workers` scoped threads (so
/// structurally similar long jobs spread out instead of piling onto one
/// shard), then reassembled in input order. With one worker it degenerates
/// to a plain sequential map — results are identical either way because
/// every job is a pure function of its input.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let mut shards: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        shards[i % workers].push((i, item));
    }
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                s.spawn(move || {
                    shard
                        .into_iter()
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Per-app performance campaign result.
pub struct PerfResult {
    /// One run per repetition under a fresh random OS placement.
    pub os: Vec<RunStats>,
    /// Runs under the SM-derived static mapping.
    pub sm: Vec<RunStats>,
    /// Runs under the HM-derived static mapping.
    pub hm: Vec<RunStats>,
    /// The SM mapping used.
    pub sm_mapping: Mapping,
    /// The HM mapping used.
    pub hm_mapping: Mapping,
    /// The detection products (patterns, Table III inputs).
    pub detected: DetectedMatrices,
}

impl PerfResult {
    /// Extract a metric across the repetitions of one mapping.
    pub fn metric(&self, runs: &[RunStats], f: impl Fn(&RunStats) -> f64) -> Vec<f64> {
        runs.iter().map(f).collect()
    }
}

/// Full paper pipeline for one app: detect → map → run `reps` repetitions
/// under OS/SM/HM.
pub fn run_performance(app: NpbApp, cfg: &CampaignConfig) -> PerfResult {
    let topo = cfg.topology();
    let detected = detect_matrices(app, cfg);
    let mapper = HierarchicalMapper::new();
    let sm_mapping = mapper.map(&detected.sm, &topo);
    let hm_mapping = mapper.map(&detected.hm, &topo);

    // The paper's measured runs all execute on the same real (x86,
    // hardware-managed) machine with *static* precomputed mappings and no
    // detector attached — detection cost is evaluated separately in
    // Table III / Section VI-C. Mirror that: one architecture, three
    // mappings, no hooks.
    let traces = &detected.workload.traces;
    let run_one = |rep: usize, which: u8| -> RunStats {
        let jitter_seed = cfg.seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sim = SimConfig::paper_hardware_managed(&topo)
            .with_tick_period(None)
            .with_jitter(jitter_seed);
        let mapping = match which {
            0 => baselines::random(topo.num_cores(), &topo, cfg.seed + rep as u64),
            1 => sm_mapping.clone(),
            _ => hm_mapping.clone(),
        };
        simulate(&sim, &topo, traces, &mapping, &mut NoHooks)
    };

    let jobs: Vec<(usize, u8)> = (0..cfg.reps)
        .flat_map(|rep| [0u8, 1, 2].map(|w| (rep, w)))
        .collect();
    let workers = cfg.worker_count(jobs.len());
    let results: Vec<(usize, u8, RunStats)> =
        parallel_map(jobs, workers, |(rep, w)| (rep, w, run_one(rep, w)));

    let mut os = Vec::with_capacity(cfg.reps);
    let mut sm = Vec::with_capacity(cfg.reps);
    let mut hm = Vec::with_capacity(cfg.reps);
    for (_, w, stats) in results {
        match w {
            0 => os.push(stats),
            1 => sm.push(stats),
            _ => hm.push(stats),
        }
    }

    PerfResult {
        os,
        sm,
        hm,
        sm_mapping,
        hm_mapping,
        detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_core::metrics::pearson_correlation;

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            scale: ProblemScale::Test,
            reps: 3,
            sm_threshold: 1,
            hm_period: 2_000,
            seed: 7,
            parallel: false,
            workers: None,
        }
    }

    #[test]
    fn detect_produces_nonempty_matrices_for_bt() {
        let d = detect_matrices(NpbApp::Bt, &tiny());
        assert!(d.sm.total() > 0, "SM found nothing");
        assert!(d.hm.total() > 0, "HM found nothing");
        assert!(d.ground_truth.total() > 0);
        assert!(d.sm_run.tlb_misses() > 0);
    }

    #[test]
    fn sm_tracks_ground_truth_on_small_scale() {
        let mut cfg = tiny();
        cfg.scale = ProblemScale::Small;
        let d = detect_matrices(NpbApp::Sp, &cfg);
        let r = pearson_correlation(&d.sm, &d.ground_truth);
        assert!(r > 0.5, "SM/GT correlation too low: {r}");
    }

    #[test]
    fn performance_campaign_shapes() {
        let cfg = tiny();
        let p = run_performance(NpbApp::Ep, &cfg);
        assert_eq!(p.os.len(), 3);
        assert_eq!(p.sm.len(), 3);
        assert_eq!(p.hm.len(), 3);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let mut cfg = tiny();
        let seq = run_performance(NpbApp::Ft, &cfg);
        cfg.parallel = true;
        let par = run_performance(NpbApp::Ft, &cfg);
        assert_eq!(seq.sm_mapping, par.sm_mapping);
        for (a, b) in seq.os.iter().zip(&par.os) {
            assert_eq!(
                a.total_cycles, b.total_cycles,
                "parallelism changed results"
            );
        }
    }

    #[test]
    fn workers_flag_parses_and_clamps() {
        let args: Vec<String> = ["prog", "--workers", "3", "--reps", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = CampaignConfig::parse(&args);
        assert_eq!(cfg.workers, Some(3));
        assert_eq!(cfg.worker_count(100), 3);
        assert_eq!(cfg.worker_count(2), 2, "clamped to job count");
        let mut one = cfg.clone();
        one.workers = Some(0);
        assert_eq!(one.worker_count(10), 1, "zero rounds up to one worker");
        let mut auto = cfg;
        auto.workers = None;
        auto.parallel = false;
        assert_eq!(auto.worker_count(10), 1, "--sequential means one worker");
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [1, 2, 5, 64] {
            let out = parallel_map(items.clone(), workers, |x| x * x);
            let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
        assert!(parallel_map(Vec::<u64>::new(), 4, |x| x).is_empty());
    }
}
