//! The simulator workload: the paper's NPB pipeline on 8-core Harpertown.
//!
//! One pass runs, for every kernel: SM and HM detection under the identity
//! placement, hierarchical mapping of each detected matrix, then the
//! measured runs (a random baseline and each mapping) with `NoHooks` on the
//! exact serial engine.

use crate::trace::Tracer;
use tlbmap_core::{CommMatrix, HmConfig, HmDetector, SmConfig, SmDetector};
use tlbmap_mapping::{baselines, mapping_cost, HierarchicalMapper};
use tlbmap_sim::{
    simulate_with_plan, ExecPlan, Mapping, NoHooks, RunStats, SimConfig, SimHooks, ThreadTrace,
    Topology,
};
use tlbmap_workloads::{NpbApp, NpbParams, ProblemScale};

/// HM interrupt period in cycles, as in the paper's evaluation harness.
pub const HM_PERIOD: u64 = 250_000;

/// One kernel's traces.
pub struct Kernel {
    pub name: String,
    pub traces: Vec<ThreadTrace>,
    pub events: u64,
}

/// Everything a pass needs, generated from the seed.
pub struct SimInputs {
    pub seed: u64,
    pub topo: Topology,
    pub kernels: Vec<Kernel>,
}

impl SimInputs {
    /// Trace events one kernel's pipeline simulates: every simulate call
    /// (SM, HM and three measured runs) replays the kernel's whole trace.
    pub fn pipeline_events(&self, kernel: usize) -> u64 {
        self.kernels[kernel].events * 5
    }

    /// The kernel with the fewest events.
    pub fn smallest_kernel(&self) -> usize {
        (0..self.kernels.len())
            .min_by_key(|&k| self.kernels[k].events)
            .expect("every workload has a kernel")
    }

    pub fn sm_config(&self) -> SimConfig {
        SimConfig::paper_software_managed(&self.topo)
    }

    pub fn hm_config(&self) -> SimConfig {
        SimConfig::paper_hardware_managed(&self.topo).with_tick_period(Some(HM_PERIOD))
    }

    /// The measured runs: the hardware-managed machine with no detector
    /// attached and seeded compute-time jitter.
    pub fn measure_config(&self, kernel: usize) -> SimConfig {
        SimConfig::paper_hardware_managed(&self.topo)
            .with_tick_period(None)
            .with_jitter(self.kernel_seed(kernel))
    }

    /// The placement the mappings are measured against: an independent
    /// random placement per kernel, as the OS scheduler would give each
    /// application.
    pub fn baseline(&self, kernel: usize) -> Mapping {
        baselines::random(self.topo.num_cores(), &self.topo, self.kernel_seed(kernel))
    }

    fn kernel_seed(&self, kernel: usize) -> u64 {
        self.seed ^ (kernel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Generate the workload's inputs from `seed`.
pub fn generate(seed: u64, tracer: &mut Tracer) -> SimInputs {
    let params = NpbParams {
        n_threads: 8,
        scale: ProblemScale::Workshop,
        seed,
    };
    let kernels = NpbApp::ALL
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let w = tracer.span("workloads.generate", i as u64, 1, |_| app.generate(&params));
            kernel(w.name, w.traces)
        })
        .collect();
    SimInputs {
        seed,
        topo: Topology::harpertown(),
        kernels,
    }
}

fn kernel(name: String, traces: Vec<ThreadTrace>) -> Kernel {
    let events = traces.iter().map(|t| t.len() as u64).sum();
    Kernel {
        name,
        traces,
        events,
    }
}

/// What one detector produced and the mapping derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Detected {
    pub run: RunStats,
    pub matrix: CommMatrix,
    pub searches: u64,
    pub mapping: Mapping,
    pub mapped: RunStats,
}

/// One kernel's pass outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutcome {
    pub name: String,
    pub baseline: RunStats,
    pub sm: Detected,
    pub hm: Detected,
}

pub fn serial(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
) -> RunStats {
    simulate_with_plan(cfg, topo, traces, mapping, hooks, ExecPlan::serial())
        .expect("the serial plan is always accepted")
}

/// Spans of one kernel in one pass share this ID.
pub fn kernel_id(pass_idx: u64, kernel: usize) -> u64 {
    pass_idx << 8 | kernel as u64
}

/// The paper's loop for one kernel: detect, map, measure.
pub fn kernel_pipeline(
    inputs: &SimInputs,
    k: usize,
    pass_idx: u64,
    tracer: &mut Tracer,
) -> KernelOutcome {
    let topo = &inputs.topo;
    let n = topo.num_cores();
    let identity = Mapping::identity(n);
    let mapper = HierarchicalMapper::new();
    let kern = &inputs.kernels[k];
    let id = kernel_id(pass_idx, k);
    let ev = kern.events;
    let traces = &kern.traces;
    tracer.span("pipeline.kernel", id, ev, |tr| {
        let sm_cfg = inputs.sm_config();
        let mut sm = SmDetector::new(n, SmConfig::paper_default());
        let sm_run = tr.span("detect.sm", id, ev, |_| {
            serial(&sm_cfg, topo, traces, &identity, &mut sm)
        });
        let sm_matrix = sm.take_matrix();
        let sm_map = tr.span("mapping.map", id, 1, |_| mapper.map(&sm_matrix, topo));

        let hm_cfg = inputs.hm_config();
        let mut hm = HmDetector::new(n, HmConfig::scaled(HM_PERIOD));
        let hm_run = tr.span("detect.hm", id, ev, |_| {
            serial(&hm_cfg, topo, traces, &identity, &mut hm)
        });
        let hm_matrix = hm.take_matrix();
        let hm_map = tr.span("mapping.map", id, 1, |_| mapper.map(&hm_matrix, topo));

        let measure = inputs.measure_config(k);
        let measured = |tr: &mut Tracer, mapping: &Mapping| {
            tr.span("sim.simulate", id, ev, |_| {
                serial(&measure, topo, traces, mapping, &mut NoHooks)
            })
        };
        let baseline = measured(tr, &inputs.baseline(k));
        let sm_mapped = measured(tr, &sm_map);
        let hm_mapped = measured(tr, &hm_map);
        KernelOutcome {
            name: kern.name.clone(),
            baseline,
            sm: Detected {
                run: sm_run,
                searches: sm.searches_run(),
                matrix: sm_matrix,
                mapping: sm_map,
                mapped: sm_mapped,
            },
            hm: Detected {
                run: hm_run,
                searches: hm.searches_run(),
                matrix: hm_matrix,
                mapping: hm_map,
                mapped: hm_mapped,
            },
        }
    })
}

/// Kernels whose communication has the structure the paper's mapping
/// exploits (Figs. 6–9: CG, EP, FT and UA show no gain to speak of).
pub const GAINING_KERNELS: [&str; 5] = ["BT", "IS", "LU", "MG", "SP"];

/// Communication a placement keeps inside core pairs `(2i, 2i + 1)`.
fn pair_weight(matrix: &CommMatrix, mapping: &Mapping) -> u64 {
    let on_core = mapping.threads_on_cores(mapping.num_threads());
    on_core
        .chunks(2)
        .map(|pair| match pair {
            [Some(a), Some(b)] => matrix.get(*a, *b),
            _ => 0,
        })
        .sum()
}

/// What the invariant checks found.
#[derive(Debug, Default)]
pub struct Invariants {
    pub checks: u64,
    pub violations: Vec<String>,
    /// Mappings that cost more than the identity: reported, not failed.
    pub costlier_than_identity: Vec<String>,
}

/// The paper's invariants, checked at any seed.
///
/// - Every mapping keeps at least as much communication inside core pairs
///   as the identity: the first level of the mapper is an exact
///   maximum-weight perfect matching (Section V-A).
/// - Over BT, IS, LU, MG and SP together, each mechanism's mapped runs
///   beat the random baselines: the geometric mean of mapped ÷ baseline
///   cycles is below 1. One random placement can match a mapping by chance
///   (BT at seed 1009 came within 22 cycles of one), so the paper's claim,
///   like its Figs. 6–9, is about normalized times, not each draw.
///
/// A mapping whose `mapping_cost` exceeds the identity's is listed but not
/// failed: above the first level the mapper is a heuristic, as its
/// documentation says, and it does lose to the identity by a hair (UA SM
/// at seed 301: 70 against 69; IS HM at seed 507: 6541 against 6535).
pub fn check_invariants(inputs: &SimInputs, outcomes: &[KernelOutcome]) -> Invariants {
    let topo = &inputs.topo;
    let identity = Mapping::identity(topo.num_cores());
    let mut found = Invariants::default();
    let mut log_gain = [0.0f64; 2];
    for o in outcomes {
        for (i, (label, d)) in [("sm", &o.sm), ("hm", &o.hm)].into_iter().enumerate() {
            found.checks += 1;
            let (mapped, ident) = (
                pair_weight(&d.matrix, &d.mapping),
                pair_weight(&d.matrix, &identity),
            );
            if mapped < ident {
                found.violations.push(format!(
                    "{} {label}: mapped pairs keep {mapped}, identity pairs {ident}",
                    o.name
                ));
            }
            let (mapped, ident) = (
                mapping_cost(&d.matrix, &d.mapping, topo),
                mapping_cost(&d.matrix, &identity, topo),
            );
            if mapped > ident {
                found.costlier_than_identity.push(format!(
                    "{} {label}: mapped cost {mapped}, identity cost {ident}",
                    o.name
                ));
            }
            if GAINING_KERNELS.contains(&o.name.as_str()) {
                log_gain[i] += (d.mapped.total_cycles as f64 / o.baseline.total_cycles as f64).ln();
            }
        }
    }
    for (label, log) in ["sm", "hm"].iter().zip(log_gain) {
        found.checks += 1;
        let geomean = (log / GAINING_KERNELS.len() as f64).exp();
        if geomean >= 1.0 {
            found.violations.push(format!(
                "{label}: BT/IS/LU/MG/SP mapped runs take {geomean:.3}x the random baselines"
            ));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expect;
    use tlbmap_sim::encode_traces;

    fn encoded(inputs: &SimInputs) -> Vec<Vec<u8>> {
        inputs
            .kernels
            .iter()
            .map(|k| encode_traces(&k.traces))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_traces_and_another_seed_differs() {
        let mut tr = Tracer::new(false);
        let a = encoded(&generate(7, &mut tr));
        let b = encoded(&generate(7, &mut tr));
        let c = encoded(&generate(8, &mut tr));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// Runs the smallest kernel's pipeline (EP); slow in a debug build, so
    /// run the self-tests with `--release`.
    #[test]
    fn committed_expectation_holds_and_a_tampered_copy_is_caught() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/npb-pipeline.json");
        let mut tr = Tracer::new(false);
        let inputs = generate(expect::DEFAULT_SEED, &mut tr);
        let k = inputs.smallest_kernel();
        let prefix = format!("{}.", inputs.kernels[k].name);
        let committed: expect::Facts = expect::parse(&std::fs::read_to_string(path).unwrap())
            .unwrap()
            .into_iter()
            .filter(|(key, _)| key.starts_with(&prefix))
            .collect();
        assert!(!committed.is_empty(), "no committed facts for {prefix}");
        let got = expect::sim_facts(&[kernel_pipeline(&inputs, k, 0, &mut tr)]);
        assert_eq!(expect::mismatches(&committed, &got), Vec::<String>::new());
        let key = format!("{prefix}sm.mapped_run");
        let mut tampered = committed.clone();
        let value = tampered[&key].replacen("cycles=", "cycles=1", 1);
        tampered.insert(key.clone(), value);
        let caught = expect::mismatches(&tampered, &got);
        assert_eq!(caught.len(), 1, "{caught:?}");
        assert!(caught[0].starts_with(&key));
    }
}
