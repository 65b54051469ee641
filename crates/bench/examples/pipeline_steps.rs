//! Where a pipeline pass's host time goes, kernel by kernel, and how much
//! host memory the cache hierarchy's line state takes.
//!
//! For each NPB kernel at Workshop scale on 8-core Harpertown this runs the
//! loop of the `npb-pipeline` benchmark: SM and HM detection under the
//! identity placement, a hierarchical mapping of each matrix, then the
//! measured runs (a random baseline and both mappings). It prints per
//! kernel:
//!
//! - `pipeline_ms`, the median over `PASSES` passes of the whole loop;
//! - `lines` and `blocks`, the distinct cache lines the SM detection run
//!   touches and the 64-line blocks they fall in;
//! - `way_kib` and `record_kib`, host bytes of the hierarchy's way words
//!   and of its line records after that run;
//! - one digest over all five `RunStats` and both mappings, which changes
//!   if any simulated result does.
//!
//! The footprint comes from a replay: the detection run's access stream is
//! captured through a hook, translated through fresh MMUs and fed to a
//! fresh `MemoryHierarchy`, the way the benchmark's layer replay does.
//! Line ids and records depend only on which lines are accessed, so the
//! replay sends every access as a data access.
//!
//! With `footprint` instead of numbers it prints only the footprints, for
//! the synthetic patterns at 32 cores (Workshop sizes, as `tlbmap detect
//! <pattern> --cores 32` runs them) and for NPB at Small scale on
//! Harpertown, with the bytes of line records per touched line.
//!
//! Run with:
//! `cargo run --release -p tlbmap-bench --example pipeline_steps -- [PASSES] [SEED]`
//! (defaults 3 and 1), or `... --example pipeline_steps -- footprint`.

use std::time::Instant;
use tlbmap_cache::{AccessKind, LineFootprint, MemOp, MemoryHierarchy};
use tlbmap_core::{HmConfig, HmDetector, SmConfig, SmDetector};
use tlbmap_mapping::{baselines, HierarchicalMapper};
use tlbmap_mem::{Mmu, PageTable, VirtAddr};
use tlbmap_sim::{
    simulate, Mapping, NoHooks, RunStats, SimConfig, SimHooks, ThreadTrace, Topology,
};
use tlbmap_workloads::{synthetic, NpbApp, NpbParams, ProblemScale};

/// HM interrupt period in cycles, as in the benchmark and the paper's
/// evaluation harness.
const HM_PERIOD: u64 = 250_000;

/// The five runs and two mappings of one kernel's pipeline.
struct Outcome {
    runs: [RunStats; 5],
    mappings: [Mapping; 2],
}

fn pipeline(topo: &Topology, traces: &[ThreadTrace], kernel_seed: u64) -> Outcome {
    let n = topo.num_cores();
    let identity = Mapping::identity(n);
    let mapper = HierarchicalMapper::new();

    let mut sm = SmDetector::new(n, SmConfig::paper_default());
    let sm_run = simulate(
        &SimConfig::paper_software_managed(topo),
        topo,
        traces,
        &identity,
        &mut sm,
    );
    let sm_map = mapper.map(&sm.take_matrix(), topo);

    let hm_cfg = SimConfig::paper_hardware_managed(topo).with_tick_period(Some(HM_PERIOD));
    let mut hm = HmDetector::new(n, HmConfig::scaled(HM_PERIOD));
    let hm_run = simulate(&hm_cfg, topo, traces, &identity, &mut hm);
    let hm_map = mapper.map(&hm.take_matrix(), topo);

    let measure = SimConfig::paper_hardware_managed(topo)
        .with_tick_period(None)
        .with_jitter(kernel_seed);
    let baseline = baselines::random(n, topo, kernel_seed);
    let measured = |m: &Mapping| simulate(&measure, topo, traces, m, &mut NoHooks);
    Outcome {
        runs: [
            sm_run,
            hm_run,
            measured(&baseline),
            measured(&sm_map),
            measured(&hm_map),
        ],
        mappings: [sm_map, hm_map],
    }
}

/// FNV-1a over the outcome's debug rendering.
fn digest(outcomes: &[Outcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in outcomes {
        let text = format!("{:?}{:?}", o.runs, o.mappings);
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Records each access's core, address and operation in engine order.
#[derive(Default)]
struct Capture(Vec<(usize, VirtAddr, MemOp)>);

impl SimHooks for Capture {
    fn on_access(&mut self, core: usize, _thread: usize, vaddr: VirtAddr, op: MemOp) {
        self.0.push((core, vaddr, op));
    }
}

/// The line-state footprint of the detection machine's identity run.
fn footprint(topo: &Topology, traces: &[ThreadTrace]) -> LineFootprint {
    let cfg = SimConfig::paper_software_managed(topo);
    let mut capture = Capture::default();
    simulate(
        &cfg,
        topo,
        traces,
        &Mapping::identity(topo.num_cores()),
        &mut capture,
    );
    let mut page_table = PageTable::with_alloc(cfg.geometry, cfg.frame_alloc);
    let mut mmus: Vec<Mmu> = (0..topo.num_cores())
        .map(|_| Mmu::new(cfg.mmu, cfg.geometry))
        .collect();
    let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy.clone());
    for (core, vaddr, op) in capture.0 {
        let paddr = mmus[core].translate(vaddr, &mut page_table).paddr.0;
        hierarchy.access(core, paddr, op, AccessKind::Data);
    }
    hierarchy.line_footprint()
}

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

fn npb(scale: ProblemScale, seed: u64) -> Vec<(String, Vec<ThreadTrace>)> {
    let params = NpbParams {
        n_threads: 8,
        scale,
        seed,
    };
    NpbApp::ALL
        .iter()
        .map(|app| {
            let w = app.generate(&params);
            (w.name, w.traces)
        })
        .collect()
}

fn print_footprints() {
    println!("workload         cores    lines  blocks  record_kib  record_bytes_per_line");
    let row = |name: &str, topo: &Topology, traces: &[ThreadTrace]| {
        let f = footprint(topo, traces);
        println!(
            "{name:<16} {:>5} {:>8} {:>7} {:>11.1} {:>22.1}",
            topo.num_cores(),
            f.lines,
            f.blocks,
            kib(f.record_bytes),
            f.record_bytes as f64 / f.lines.max(1) as f64,
        );
    };
    let topo = Topology::scaled(32).expect("32 is a power of two");
    let (n, pages, iters) = (32, 80, 6);
    let patterns = [
        ("ring", synthetic::ring_neighbors(n, pages, iters)),
        ("pairs", synthetic::producer_consumer(n, pages / 2, iters)),
        ("pipeline", synthetic::pipeline(n, pages / 2, iters)),
        (
            "uniform",
            synthetic::uniform_all_to_all(n, pages / 2, iters),
        ),
        ("private", synthetic::private_only(n, pages, iters)),
        (
            "master_worker",
            synthetic::master_worker(n, pages / 4, iters),
        ),
        ("turns", synthetic::turn_taking(n, pages / 4, iters)),
        ("phased", synthetic::phase_shift(n, pages / 2, iters)),
    ];
    for (name, w) in &patterns {
        row(name, &topo, &w.traces);
    }
    let harpertown = Topology::harpertown();
    for (name, traces) in npb(ProblemScale::Small, 1) {
        row(&format!("{name} small"), &harpertown, &traces);
    }
}

fn arg(i: usize, default: u64) -> u64 {
    std::env::args()
        .nth(i)
        .map(|a| {
            a.parse()
                .expect("arguments are PASSES and SEED, or `footprint`")
        })
        .unwrap_or(default)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("footprint") {
        print_footprints();
        return;
    }
    let (passes, seed) = (arg(1, 3).max(1), arg(2, 1));
    let topo = Topology::harpertown();
    let kernels = npb(ProblemScale::Workshop, seed);
    println!("NPB Workshop on Harpertown, seed {seed}, median of {passes} passes");
    println!("kernel  pipeline_ms     lines  blocks  way_kib  record_kib");
    let (mut total_ms, mut outcomes) = (0.0, Vec::new());
    for (k, (name, traces)) in kernels.iter().enumerate() {
        // The benchmark's per-kernel seed for the baseline and the jitter.
        let kernel_seed = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut times = Vec::new();
        let mut first = None;
        for _ in 0..passes {
            let t = Instant::now();
            let outcome = pipeline(&topo, traces, kernel_seed);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            let d = digest(std::slice::from_ref(&outcome));
            assert_eq!(*first.get_or_insert(d), d, "{name}: passes disagree");
            if outcomes.len() == k {
                outcomes.push(outcome);
            }
        }
        times.sort_by(f64::total_cmp);
        let ms = times[times.len() / 2];
        total_ms += ms;
        let f = footprint(&topo, traces);
        println!(
            "{name:<6} {ms:>12.1} {:>9} {:>7} {:>8.1} {:>11.1}",
            f.lines,
            f.blocks,
            kib(f.way_bytes),
            kib(f.record_bytes),
        );
    }
    println!("all    {total_ms:>12.1}");
    println!("results digest {:016x}", digest(&outcomes));
}
