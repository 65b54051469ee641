//! Per-layer costs of the simulator, measured from outside the engine.
//!
//! An untimed run captures the exact interleaved access stream through a
//! recording `SimHooks::on_access` hook. The stream is then replayed
//! through `Mmu::translate` (one MMU per core over a shared page table)
//! and the translated addresses through `MemoryHierarchy::access`, each
//! replay inside one span. Replaying the same stream on fresh state
//! reproduces the engine's TLB and cache statistics exactly, which the
//! replay checks.

use crate::sim::{serial, SimInputs, HM_PERIOD};
use crate::trace::Tracer;
use tlbmap_cache::{AccessKind, CacheStats, MemOp, MemoryHierarchy};
use tlbmap_core::{HmConfig, HmDetector};
use tlbmap_mem::{Mmu, PageTable, TlbStats, VirtAddr};
use tlbmap_sim::{Mapping, NoHooks, RunStats, SimHooks, ThreadTrace, TlbView, TraceEvent};

/// Checks one kernel's replay makes: the captured stream against the
/// traces, the capture run, the TLB and the cache statistics against the
/// `NoHooks` run.
pub const CHECKS: u64 = 4;

/// `search_all_pairs` calls timed per kernel.
const HM_SEARCH_REPS: u64 = 500;

/// One captured access, in global engine order.
#[derive(Debug, Clone, Copy)]
struct Access {
    vaddr: VirtAddr,
    core: u32,
    op: MemOp,
    kind: AccessKind,
}

/// Records every access. The hook sees core, thread, address and
/// operation; the access kind comes from the thread's own trace, read at
/// a per-thread cursor that advances with each access.
struct Capture<'a> {
    traces: &'a [ThreadTrace],
    cursor: Vec<usize>,
    stream: Vec<Access>,
    mismatches: u64,
}

impl SimHooks for Capture<'_> {
    fn on_access(&mut self, core: usize, thread: usize, vaddr: VirtAddr, op: MemOp) {
        let trace = &self.traces[thread];
        let mut kind = AccessKind::Data;
        let mut found = false;
        while let Some(event) = trace.get(self.cursor[thread]) {
            self.cursor[thread] += 1;
            if let TraceEvent::Access {
                vaddr: v,
                op: o,
                kind: k,
            } = event
            {
                found = v == vaddr && o == op;
                kind = k;
                break;
            }
        }
        self.mismatches += u64::from(!found);
        self.stream.push(Access {
            vaddr,
            core: core as u32,
            op,
            kind,
        });
    }
}

/// Work counts and check results of one kernel's replay.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub accesses: u64,
    pub tlb_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub invalidations: u64,
    pub snoops: u64,
    /// Replayed statistics that differ from the engine's run.
    pub failures: Vec<String>,
}

/// Measure one kernel's layers: the `NoHooks` run on the detection
/// machine (the base the replays explain), the capture, the translate and
/// access replays, and — on the NPB pipeline — `search_all_pairs` on the
/// replayed TLBs. Span names: `sim.nohooks_detect_cfg`, `mem.translate`,
/// `cache.access`, `detect.hm_search`.
pub fn measure_kernel(inputs: &SimInputs, k: usize, id: u64, tr: &mut Tracer) -> LayerCounts {
    let kern = &inputs.kernels[k];
    let cfg = inputs.sm_config();
    let topo = &inputs.topo;
    let n_cores = topo.num_cores();
    let identity = Mapping::identity(n_cores);
    let traces = &kern.traces;

    let base: RunStats = tr.span("sim.nohooks_detect_cfg", id, kern.events, |_| {
        serial(&cfg, topo, traces, &identity, &mut NoHooks)
    });

    let mut capture = Capture {
        traces,
        cursor: vec![0; traces.len()],
        stream: Vec::with_capacity(base.accesses as usize),
        mismatches: 0,
    };
    let captured = serial(&cfg, topo, traces, &identity, &mut capture);
    let stream = capture.stream;
    let mut failures = Vec::new();
    if capture.mismatches > 0 {
        failures.push(format!(
            "{}: {} captured accesses disagree with their trace",
            kern.name, capture.mismatches
        ));
    }
    if captured != base {
        failures.push(format!(
            "{}: capture run differs from NoHooks run",
            kern.name
        ));
    }

    let mut page_table = PageTable::with_alloc(cfg.geometry, cfg.frame_alloc);
    let mut mmus: Vec<Mmu> = (0..n_cores)
        .map(|_| Mmu::new(cfg.mmu, cfg.geometry))
        .collect();
    let ops = stream.len() as u64;
    let paddrs: Vec<u64> = tr.span("mem.translate", id, ops, |_| {
        stream
            .iter()
            .map(|a| {
                mmus[a.core as usize]
                    .translate(a.vaddr, &mut page_table)
                    .paddr
                    .0
            })
            .collect()
    });

    let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy.clone());
    tr.span("cache.access", id, ops, |_| {
        for (a, &paddr) in stream.iter().zip(&paddrs) {
            hierarchy.access(a.core as usize, paddr, a.op, a.kind);
        }
    });

    let tlb: Vec<TlbStats> = mmus.iter().map(Mmu::tlb_stats).collect();
    if tlb != base.tlb {
        failures.push(format!("{}: replayed TLB statistics differ", kern.name));
    }
    let cache: CacheStats = *hierarchy.stats();
    if cache != base.cache {
        failures.push(format!("{}: replayed cache statistics differ", kern.name));
    }

    let placed = identity.threads_on_cores(n_cores);
    let view = TlbView::new(&mmus, &placed);
    let mut hm = HmDetector::new(n_cores, HmConfig::scaled(HM_PERIOD));
    tr.span("detect.hm_search", id, HM_SEARCH_REPS, |_| {
        for _ in 0..HM_SEARCH_REPS {
            std::hint::black_box(hm.search_all_pairs(&view));
        }
    });

    LayerCounts {
        accesses: ops,
        tlb_misses: base.tlb_misses(),
        l2_hits: cache.l2_hits,
        l2_misses: cache.l2_misses,
        invalidations: cache.invalidations,
        snoops: cache.snoop_transactions,
        failures,
    }
}
