//! Whole-engine oracle: the engine against a naive reference simulator.
//!
//! Every fast path in the engine — the run-queue heap, the micro-TLB memo,
//! the caches' hot-line memo and packed recency-ordered sets, the owner
//! directory, dense line ids — claims to change no simulated result. The
//! layer tests check each one alone; this file checks how they compose.
//! [`Reference`] runs the same traces in the most direct style there is:
//! it scans threads linearly, keeps stamp-LRU TLBs and caches as `Vec`s
//! keyed by VPN and line address, runs MESI by snooping every L2, and has
//! no memos and no line ids. The property feeds both random small traces
//! with barriers and with shared and private pages, across topologies, set
//! counts, NUMA and page sizes, with and without an SM-style miss hook, a
//! tick hook and a barrier-migration hook, and requires equal `RunStats`
//! and an equal digest of every hook callback, `AccessOutcome`s included.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use tlbmap_cache::{CacheConfig, CacheStats, HierarchyConfig, MesiState};
use tlbmap_mem::{PageGeometry, TlbConfig, TlbMode, TlbStats, Vpn};
use tlbmap_sim::jitter::Jitter;
use tlbmap_sim::{
    simulate, simulate_observed, AccessKind, AccessOutcome, Mapping, MemOp, NoHooks, NumaPolicy,
    ObsConfig, Recorder, RunStats, SimConfig, SimHooks, ThreadTrace, TlbView, Topology, TraceEvent,
    VirtAddr,
};

/// FNV-1a step over one 64-bit word.
fn mix(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// The test's hook logic, shared by the engine's adapter ([`EngineHooks`])
/// and the reference: what it charges and returns depends only on its
/// arguments, so equal machines give equal digests.
#[derive(Debug, Clone)]
struct Probe {
    /// Charge SM-style search overhead on sampled data-TLB misses.
    sm: bool,
    /// Remap threads at some barriers.
    migrate: bool,
    seed: u64,
    data_misses: u64,
    digest: u64,
}

impl Probe {
    fn new(sm: bool, migrate: bool, seed: u64) -> Self {
        Probe {
            sm,
            migrate,
            seed,
            data_misses: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn access(&mut self, core: usize, thread: usize, vaddr: VirtAddr, op: MemOp) {
        for v in [1, core as u64, thread as u64, vaddr.0, op as u64] {
            mix(&mut self.digest, v);
        }
    }

    fn outcome(&mut self, core: usize, thread: usize, out: &AccessOutcome) {
        let flags =
            u64::from(out.l1_hit) | u64::from(out.l2_hit) << 1 | u64::from(out.snooped) << 2;
        for v in [2, core as u64, thread as u64, out.cycles, flags] {
            mix(&mut self.digest, v);
        }
    }

    /// `sharers`: bitmap of the other cores whose TLB holds `vpn`.
    fn tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        sharers: u64,
    ) -> u64 {
        for v in [3, core as u64, thread as u64, vpn.0, kind as u64, sharers] {
            mix(&mut self.digest, v);
        }
        if !self.sm || kind != AccessKind::Data {
            return 0;
        }
        self.data_misses += 1;
        // Sample one data miss in three, as the SM mechanism samples.
        if self.data_misses.is_multiple_of(3) {
            40 + 7 * u64::from(sharers.count_ones())
        } else {
            0
        }
    }

    /// `resident`: valid entries over every core's TLB.
    fn tick(&mut self, now: u64, resident: usize) -> u64 {
        for v in [4, now, resident as u64] {
            mix(&mut self.digest, v);
        }
        (resident as u64 % 5) * 10
    }

    fn barrier(&mut self, idx: u64, n_threads: usize, n_cores: usize) -> Option<Mapping> {
        mix(&mut self.digest, 5);
        mix(&mut self.digest, idx);
        if !self.migrate || (idx + self.seed) % 2 == 1 {
            return None;
        }
        let mut rng = SmallRng::seed_from_u64(self.seed ^ idx.wrapping_mul(0x9E37_79B9));
        let mut cores: Vec<usize> = (0..n_cores).collect();
        for i in (1..n_cores).rev() {
            cores.swap(i, rng.gen_range(0..=i));
        }
        cores.truncate(n_threads);
        Some(Mapping::new(cores))
    }
}

/// [`Probe`] as engine hooks, reading the engine's TLBs through the view.
struct EngineHooks(Probe);

impl SimHooks for EngineHooks {
    fn on_access(&mut self, core: usize, thread: usize, vaddr: VirtAddr, op: MemOp) {
        self.0.access(core, thread, vaddr, op);
    }

    fn on_access_outcome(&mut self, core: usize, thread: usize, outcome: &AccessOutcome) {
        self.0.outcome(core, thread, outcome);
    }

    fn on_tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        view: &TlbView<'_>,
    ) -> u64 {
        let sharers = (0..view.num_cores())
            .filter(|&c| c != core && view.tlb(c).contains(vpn))
            .fold(0u64, |m, c| m | 1 << c);
        self.0.tlb_miss(core, thread, vpn, kind, sharers)
    }

    fn on_tick(&mut self, now: u64, view: &TlbView<'_>) -> u64 {
        let resident = (0..view.num_cores()).map(|c| view.tlb(c).occupancy()).sum();
        self.0.tick(now, resident)
    }

    fn on_barrier(&mut self, idx: u64, view: &TlbView<'_>) -> Option<Mapping> {
        let n_threads = (0..view.num_cores())
            .filter(|&c| view.thread_on(c).is_some())
            .count();
        self.0.barrier(idx, n_threads, view.num_cores())
    }
}

/// A stamp-LRU set-associative TLB: `sets[s]` holds `(vpn, pfn, stamp)`.
#[derive(Debug, Clone)]
struct RefTlb {
    sets: Vec<Vec<(u64, u64, u64)>>,
    ways: usize,
    clock: u64,
    stats: TlbStats,
}

impl RefTlb {
    fn new(c: TlbConfig) -> Self {
        RefTlb {
            sets: vec![Vec::new(); c.entries / c.ways],
            ways: c.ways,
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    fn set(&mut self, vpn: u64) -> &mut Vec<(u64, u64, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(vpn % n) as usize]
    }

    fn access(&mut self, vpn: u64) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let hit = self.set(vpn).iter_mut().find(|e| e.0 == vpn).map(|e| {
            e.2 = clock;
            e.1
        });
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    fn insert(&mut self, vpn: u64, pfn: u64) {
        self.clock += 1;
        let (clock, ways) = (self.clock, self.ways);
        let set = self.set(vpn);
        if let Some(e) = set.iter_mut().find(|e| e.0 == vpn) {
            *e = (vpn, pfn, clock);
        } else if set.len() < ways {
            set.push((vpn, pfn, clock));
        } else {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
            set[lru] = (vpn, pfn, clock);
        }
    }

    fn contains(&self, vpn: u64) -> bool {
        self.sets.iter().flatten().any(|e| e.0 == vpn)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// A stamp-LRU set-associative cache: `sets[s]` holds `(line, state,
/// stamp)`, set `line % sets`.
#[derive(Debug, Clone)]
struct RefCache {
    sets: Vec<Vec<(u64, MesiState, u64)>>,
    ways: usize,
    clock: u64,
}

impl RefCache {
    fn new(c: CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); c.sets()],
            ways: c.ways,
            clock: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, MesiState, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn peek(&self, line: u64) -> Option<MesiState> {
        let n = self.sets.len() as u64;
        self.sets[(line % n) as usize]
            .iter()
            .find(|w| w.0 == line)
            .map(|w| w.1)
    }

    fn touch(&mut self, line: u64) -> Option<MesiState> {
        self.clock += 1;
        let clock = self.clock;
        self.set(line).iter_mut().find(|w| w.0 == line).map(|w| {
            w.2 = clock;
            w.1
        })
    }

    fn set_state(&mut self, line: u64, state: MesiState) {
        self.set(line).iter_mut().find(|w| w.0 == line).unwrap().1 = state;
    }

    fn remove(&mut self, line: u64) -> Option<MesiState> {
        let set = self.set(line);
        let i = set.iter().position(|w| w.0 == line)?;
        Some(set.remove(i).1)
    }

    /// Install an absent line; returns the evicted `(line, state)`.
    fn insert(&mut self, line: u64, state: MesiState) -> Option<(u64, MesiState)> {
        self.clock += 1;
        let (clock, ways) = (self.clock, self.ways);
        let set = self.set(line);
        if set.len() < ways {
            set.push((line, state, clock));
            return None;
        }
        let lru = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
        let victim = std::mem::replace(&mut set[lru], (line, state, clock));
        Some((victim.0, victim.1))
    }
}

/// The coherent hierarchy, MESI by snooping every other L2.
struct RefHierarchy {
    cfg: HierarchyConfig,
    l1d: Vec<RefCache>,
    l1i: Vec<RefCache>,
    l2: Vec<RefCache>,
    /// `(l2, line)` pairs ever installed, and those an invalidation
    /// destroyed since that L2's last miss on the line.
    ever: HashSet<(usize, u64)>,
    lost: HashSet<(usize, u64)>,
    stats: CacheStats,
}

impl RefHierarchy {
    fn new(cfg: &HierarchyConfig) -> Self {
        let cores = cfg.num_cores();
        RefHierarchy {
            l1d: vec![RefCache::new(cfg.l1d); cores],
            l1i: vec![RefCache::new(cfg.l1i); cores],
            l2: vec![RefCache::new(cfg.l2); cfg.num_l2()],
            ever: HashSet::new(),
            lost: HashSet::new(),
            stats: CacheStats::default(),
            cfg: cfg.clone(),
        }
    }

    fn l2_of(&self, core: usize) -> usize {
        self.cfg
            .groups
            .iter()
            .position(|g| g.cores.contains(&core))
            .unwrap()
    }

    fn l1(&mut self, core: usize, kind: AccessKind) -> &mut RefCache {
        match kind {
            AccessKind::Data => &mut self.l1d[core],
            AccessKind::Instr => &mut self.l1i[core],
        }
    }

    fn note_l1(&mut self, kind: AccessKind, hit: bool) {
        let s = &mut self.stats;
        match (kind, hit) {
            (AccessKind::Data, true) => s.l1d_hits += 1,
            (AccessKind::Data, false) => s.l1d_misses += 1,
            (AccessKind::Instr, true) => s.l1i_hits += 1,
            (AccessKind::Instr, false) => s.l1i_misses += 1,
        }
    }

    fn chip(&self, g: usize) -> usize {
        self.cfg.groups[g].chip
    }

    /// The L2 that supplies `line` to `g` among `holders` (ascending, with
    /// their states): a Modified holder, else the first on `g`'s chip,
    /// else the first.
    fn supplier(&self, g: usize, holders: &[(usize, MesiState)]) -> Option<usize> {
        let modified = holders.iter().find(|h| h.1 == MesiState::Modified);
        let near = holders.iter().find(|h| self.chip(h.0) == self.chip(g));
        modified.or(near).or(holders.first()).map(|h| h.0)
    }

    fn holders(&self, g: usize, line: u64) -> Vec<(usize, MesiState)> {
        (0..self.l2.len())
            .filter(|&o| o != g)
            .filter_map(|o| self.l2[o].peek(line).map(|s| (o, s)))
            .collect()
    }

    fn snoop(&mut self, g: usize, h: usize) -> u64 {
        self.stats.snoop_transactions += 1;
        if self.chip(g) == self.chip(h) {
            self.stats.snoops_intra_chip += 1;
            self.cfg.c2c_intra_chip
        } else {
            self.stats.snoops_inter_chip += 1;
            self.cfg.c2c_inter_chip
        }
    }

    fn memory(&mut self, g: usize, home: Option<usize>) -> u64 {
        self.stats.memory_fetches += 1;
        match home {
            Some(chip) if chip != self.chip(g) => {
                self.stats.mem_fetches_remote += 1;
                self.cfg.mem_latency + self.cfg.numa_remote_penalty
            }
            Some(_) => {
                self.stats.mem_fetches_local += 1;
                self.cfg.mem_latency
            }
            None => self.cfg.mem_latency,
        }
    }

    fn classify(&mut self, g: usize, line: u64) {
        if self.lost.remove(&(g, line)) {
            self.stats.l2_coherence_misses += 1;
        } else if self.ever.contains(&(g, line)) {
            self.stats.l2_capacity_misses += 1;
        } else {
            self.stats.l2_cold_misses += 1;
        }
        self.stats.l2_misses += 1;
    }

    fn drop_from_l1s(&mut self, g: usize, line: u64) {
        for c in self.cfg.groups[g].cores.clone() {
            self.l1d[c].remove(line);
            self.l1i[c].remove(line);
        }
    }

    fn install(&mut self, g: usize, line: u64, state: MesiState) {
        self.ever.insert((g, line));
        if let Some((victim, old)) = self.l2[g].insert(line, state) {
            if old == MesiState::Modified {
                self.stats.writebacks += 1;
            }
            self.drop_from_l1s(g, victim);
        }
    }

    /// Remove every remote copy; returns how many and the supplier.
    fn invalidate_remote(&mut self, g: usize, line: u64) -> (u64, Option<usize>) {
        let holders = self.holders(g, line);
        let supplier = self.supplier(g, &holders);
        for &(o, _) in &holders {
            self.l2[o].remove(line);
            self.lost.insert((o, line));
            self.drop_from_l1s(o, line);
        }
        self.stats.invalidations += holders.len() as u64;
        (holders.len() as u64, supplier)
    }

    fn access(
        &mut self,
        core: usize,
        paddr: u64,
        op: MemOp,
        kind: AccessKind,
        home: Option<usize>,
    ) -> AccessOutcome {
        let line = paddr >> self.cfg.l2.line_shift();
        let g = self.l2_of(core);
        let l1_latency = self.cfg.l1d.latency;
        let (mut cycles, mut l2_hit, mut snooped) = (l1_latency, true, false);
        match op {
            MemOp::Read => {
                if self.l1(core, kind).touch(line).is_some() {
                    self.note_l1(kind, true);
                    return AccessOutcome {
                        cycles,
                        l1_hit: true,
                        l2_hit: false,
                        snooped,
                    };
                }
                self.note_l1(kind, false);
                cycles += self.cfg.l2.latency;
                if self.l2[g].touch(line).is_some() {
                    self.stats.l2_hits += 1;
                } else {
                    l2_hit = false;
                    self.classify(g, line);
                    let holders = self.holders(g, line);
                    for &(o, _) in &holders {
                        self.l2[o].set_state(line, MesiState::Shared);
                    }
                    let state = match self.supplier(g, &holders) {
                        Some(h) => {
                            if holders.iter().any(|x| x.1 == MesiState::Modified) {
                                self.stats.writebacks += 1;
                            }
                            cycles += self.snoop(g, h);
                            snooped = true;
                            MesiState::Shared
                        }
                        None => {
                            cycles += self.memory(g, home);
                            MesiState::Exclusive
                        }
                    };
                    self.install(g, line, state);
                }
                self.l1(core, kind).insert(line, MesiState::Shared);
            }
            MemOp::Write => {
                match self.l2[g].touch(line) {
                    Some(MesiState::Modified) => {}
                    Some(MesiState::Exclusive) => self.l2[g].set_state(line, MesiState::Modified),
                    Some(MesiState::Shared) => {
                        if self.invalidate_remote(g, line).0 > 0 {
                            cycles += self.cfg.write_invalidate_penalty;
                        }
                        self.l2[g].set_state(line, MesiState::Modified);
                    }
                    Some(MesiState::Invalid) | None => {
                        l2_hit = false;
                        self.classify(g, line);
                        let (count, supplier) = self.invalidate_remote(g, line);
                        cycles += self.cfg.l2.latency;
                        cycles += match supplier {
                            Some(h) => {
                                snooped = true;
                                self.snoop(g, h)
                            }
                            None => self.memory(g, home),
                        };
                        if count > 0 {
                            cycles += self.cfg.write_invalidate_penalty;
                        }
                        self.install(g, line, MesiState::Modified);
                    }
                }
                if l2_hit {
                    self.stats.l2_hits += 1;
                }
                for c in self.cfg.groups[g].cores.clone() {
                    if c != core {
                        self.l1d[c].remove(line);
                    }
                }
                let hit = self.l1(core, kind).touch(line).is_some();
                if !hit {
                    self.l1(core, kind).insert(line, MesiState::Shared);
                }
                self.note_l1(kind, hit);
            }
        }
        AccessOutcome {
            cycles,
            l1_hit: false,
            l2_hit,
            snooped,
        }
    }
}

/// Splitmix64's finalizer: the page table's first-touch frame scramble.
fn frame_of(counter: u64) -> u64 {
    let mut z = counter;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    AtBarrier,
    Done,
}

/// The reference simulator: the engine's semantics, written directly.
struct Reference<'a> {
    cfg: &'a SimConfig,
    topo: &'a Topology,
    traces: &'a [ThreadTrace],
}

impl Reference<'_> {
    fn run(&self, mapping: &Mapping, probe: &mut Probe) -> RunStats {
        let (cfg, n_threads, n_cores) = (self.cfg, self.traces.len(), self.topo.num_cores());
        let shift = cfg.geometry.page_shift;
        let mut core_of: Vec<usize> = mapping.as_slice().to_vec();
        let mut frames: HashMap<u64, u64> = HashMap::new();
        let mut homes: HashMap<u64, usize> = HashMap::new();
        let mut l1tlb: Vec<RefTlb> = vec![RefTlb::new(cfg.mmu.tlb); n_cores];
        let mut l2tlb: Vec<Option<RefTlb>> = vec![cfg.mmu.l2_tlb.map(RefTlb::new); n_cores];
        let mut caches = RefHierarchy::new(&cfg.hierarchy);
        let mut jitter = Jitter::new(cfg.jitter, n_threads);
        let mut clocks = vec![0u64; n_cores];
        let mut pos = vec![0usize; n_threads];
        let mut state: Vec<State> = self
            .traces
            .iter()
            .map(|t| {
                if t.is_empty() {
                    State::Done
                } else {
                    State::Running
                }
            })
            .collect();
        let mut next_tick = cfg.tick_period;
        let (mut overhead_total, mut searches, mut accesses, mut barriers, mut migrations) =
            (0, 0, 0, 0, 0);

        loop {
            // The running thread with the smallest (clock, thread), and the
            // smallest clock among the other running threads.
            let running: Vec<usize> = (0..n_threads)
                .filter(|&t| state[t] == State::Running)
                .collect();
            let Some(&t) = running.iter().min_by_key(|&&t| (clocks[core_of[t]], t)) else {
                if state.iter().all(|&s| s == State::Done) {
                    break;
                }
                let waiting: Vec<usize> = (0..n_threads)
                    .filter(|&t| state[t] == State::AtBarrier)
                    .collect();
                let release =
                    waiting.iter().map(|&t| clocks[core_of[t]]).max().unwrap() + cfg.barrier_cost;
                for &t in &waiting {
                    clocks[core_of[t]] = release;
                    state[t] = State::Running;
                }
                barriers += 1;
                if let Some(m) = probe.barrier(barriers - 1, n_threads, n_cores) {
                    let mut new_clocks = clocks.clone();
                    for (t, core) in core_of.iter_mut().enumerate() {
                        let nc = m.core_of(t);
                        if state[t] != State::Done && *core != nc {
                            migrations += 1;
                            for c in [*core, nc] {
                                l1tlb[c].flush();
                                l2tlb[c].iter_mut().for_each(RefTlb::flush);
                            }
                            new_clocks[nc] = release + cfg.migration_cost;
                        }
                        *core = nc;
                    }
                    clocks = new_clocks;
                }
                continue;
            };
            let limit = running
                .iter()
                .filter(|&&u| u != t)
                .map(|&u| clocks[core_of[u]])
                .min()
                .unwrap_or(u64::MAX);
            let core = core_of[t];
            let trace = &self.traces[t];
            while state[t] == State::Running && clocks[core] <= limit {
                let Some(event) = trace.get(pos[t]) else {
                    state[t] = State::Done;
                    break;
                };
                pos[t] += 1;
                match event {
                    TraceEvent::Compute(c) => clocks[core] += jitter.scale(t, c),
                    TraceEvent::Barrier => state[t] = State::AtBarrier,
                    TraceEvent::Access { vaddr, op, kind } => {
                        accesses += 1;
                        probe.access(core, t, vaddr, op);
                        let vpn = vaddr.0 >> shift;
                        let mut cycles = 0;
                        let pfn = match l1tlb[core].access(vpn) {
                            Some(pfn) => pfn,
                            None => match l2tlb[core].as_mut().and_then(|l2| l2.access(vpn)) {
                                Some(pfn) => {
                                    l1tlb[core].insert(vpn, pfn);
                                    cycles += cfg.mmu.l2_tlb_latency;
                                    pfn
                                }
                                None => {
                                    let sharers = (0..n_cores)
                                        .filter(|&c| c != core && l1tlb[c].contains(vpn))
                                        .fold(0u64, |m, c| m | 1 << c);
                                    let overhead = probe.tlb_miss(core, t, Vpn(vpn), kind, sharers);
                                    if overhead > 0 {
                                        overhead_total += overhead;
                                        searches += 1;
                                        cycles += overhead;
                                    }
                                    let walks = if frames.contains_key(&vpn) { 2 } else { 3 };
                                    let next = frames.len() as u64;
                                    let pfn = *frames.entry(vpn).or_insert_with(|| frame_of(next));
                                    l1tlb[core].insert(vpn, pfn);
                                    if let Some(l2) = l2tlb[core].as_mut() {
                                        l2.insert(vpn, pfn);
                                    }
                                    cycles += walks * cfg.mmu.walk_access_cycles;
                                    if cfg.mmu.mode == TlbMode::SoftwareManaged {
                                        cycles += cfg.mmu.trap_cycles;
                                    }
                                    pfn
                                }
                            },
                        };
                        let home = cfg.numa.map(|n| match n.policy {
                            NumaPolicy::Interleave => vpn as usize % self.topo.chips,
                            NumaPolicy::FirstTouch => {
                                *homes.entry(vpn).or_insert(self.topo.chip_of(core))
                            }
                        });
                        let paddr = pfn << shift | vaddr.0 & (cfg.geometry.page_size() - 1);
                        let out = caches.access(core, paddr, op, kind, home);
                        probe.outcome(core, t, &out);
                        clocks[core] += cycles + out.cycles;
                    }
                }
                if pos[t] == trace.len() && state[t] == State::Running {
                    state[t] = State::Done;
                }
                if let Some(period) = cfg.tick_period {
                    let mut at = next_tick.unwrap();
                    while clocks[core] >= at {
                        let resident = l1tlb.iter().map(RefTlb::len).sum();
                        let overhead = probe.tick(at, resident);
                        if overhead > 0 {
                            overhead_total += overhead;
                            searches += 1;
                            clocks[core] += overhead;
                        }
                        at += period;
                    }
                    next_tick = Some(at);
                }
            }
        }
        RunStats {
            total_cycles: clocks.iter().copied().max().unwrap_or(0),
            core_cycles: clocks,
            tlb: l1tlb.iter().map(|t| t.stats).collect(),
            cache: caches.stats,
            detection_overhead_cycles: overhead_total,
            detection_searches: searches,
            accesses,
            barriers,
            migrations,
            frequency_hz: cfg.frequency_hz,
        }
    }
}

/// One randomized machine and workload.
#[derive(Debug, Clone)]
struct Case {
    cfg: SimConfig,
    topo: Topology,
    traces: Vec<ThreadTrace>,
    mapping: Mapping,
}

/// Build a case: `machine` picks Harpertown, `Topology::scaled(16)`,
/// Harpertown with a 6-set L2 or Harpertown with first-touch NUMA;
/// `shift` is the page shift. Caches and TLBs are shrunk so that small
/// traces evict, and every thread shares a few pages and owns a few.
fn case(machine: u8, shift: u32, seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let topo = match machine {
        1 => Topology::scaled(16).unwrap(),
        _ => Topology::harpertown(),
    };
    let mut cfg = if rng.gen_bool(0.5) {
        SimConfig::paper_software_managed(&topo)
    } else {
        SimConfig::paper_hardware_managed(&topo)
    };
    cfg.geometry = PageGeometry::with_shift(shift);
    cfg.tick_period = rng.gen_bool(0.5).then(|| rng.gen_range(200u64..3000));
    cfg.barrier_cost = rng.gen_range(0u64..600);
    cfg.migration_cost = rng.gen_range(0u64..4000);
    if rng.gen_bool(0.3) {
        cfg = cfg.with_jitter(seed);
    }
    let ways = [1usize, 2, 4][rng.gen_range(0usize..3)];
    cfg.mmu.tlb = TlbConfig {
        entries: ways * [1usize, 2, 4][rng.gen_range(0usize..3)],
        ways,
    };
    cfg.mmu.l2_tlb = rng.gen_bool(0.3).then_some(TlbConfig {
        entries: 16,
        ways: 4,
    });
    let line = |sets: u64, ways: usize, latency: u64| CacheConfig {
        size_bytes: 64 * sets * ways as u64,
        line_size: 64,
        ways,
        latency,
    };
    cfg.hierarchy.l1d = line(rng.gen_range(1u64..5), rng.gen_range(1usize..3), 2);
    cfg.hierarchy.l1i = cfg.hierarchy.l1d;
    let l2_sets = if machine == 2 {
        6
    } else {
        [4u64, 8][rng.gen_range(0usize..2)]
    };
    cfg.hierarchy.l2 = line(l2_sets, rng.gen_range(1usize..5), 8);
    if machine == 3 {
        let policy = if rng.gen_bool(0.5) {
            NumaPolicy::FirstTouch
        } else {
            NumaPolicy::Interleave
        };
        cfg = cfg.with_numa(policy, 150);
    }

    let n_cores = topo.num_cores();
    let n_threads = rng.gen_range(2..=n_cores);
    let mut cores: Vec<usize> = (0..n_cores).collect();
    for i in (1..n_cores).rev() {
        cores.swap(i, rng.gen_range(0..=i));
    }
    cores.truncate(n_threads);
    let mapping = Mapping::new(cores);

    // Pages 0..4 are shared; thread t owns pages 16 + 4t .. 16 + 4t + 4.
    // Offsets pick one of a few lines near the page start or its end, so
    // large pages still see several lines per page.
    let page_size = 1u64 << shift;
    let lines = (page_size / 64).min(64);
    let phases = rng.gen_range(1usize..4);
    let traces = (0..n_threads)
        .map(|t| {
            let mut trace = ThreadTrace::new();
            for _ in 0..phases {
                for _ in 0..rng.gen_range(0usize..40) {
                    let page = if rng.gen_bool(0.5) {
                        rng.gen_range(0u64..4)
                    } else {
                        16 + 4 * t as u64 + rng.gen_range(0u64..4)
                    };
                    let l = rng.gen_range(0..lines);
                    let offset = if rng.gen_bool(0.8) {
                        l * 64
                    } else {
                        page_size - 64 * (l + 1)
                    } + rng.gen_range(0u64..64);
                    let a = VirtAddr(page * page_size + offset);
                    trace.push(match rng.gen_range(0u32..10) {
                        0..=4 => TraceEvent::read(a),
                        5..=8 => TraceEvent::write(a),
                        _ => TraceEvent::fetch(a),
                    });
                    if rng.gen_bool(0.3) {
                        trace.push(TraceEvent::Compute(rng.gen_range(0u64..300)));
                    }
                }
                trace.push(TraceEvent::Barrier);
            }
            // Some threads end on their last barrier, some run on after it.
            if rng.gen_bool(0.5) {
                trace.push(TraceEvent::Compute(rng.gen_range(1u64..500)));
            }
            trace
        })
        .collect();
    Case {
        cfg,
        topo,
        traces,
        mapping,
    }
}

fn check(c: &Case, sm: bool, migrate: bool, seed: u64) -> Result<(), String> {
    let mut engine = EngineHooks(Probe::new(sm, migrate, seed));
    let got = simulate(&c.cfg, &c.topo, &c.traces, &c.mapping, &mut engine);
    let mut probe = Probe::new(sm, migrate, seed);
    let want = Reference {
        cfg: &c.cfg,
        topo: &c.topo,
        traces: &c.traces,
    }
    .run(&c.mapping, &mut probe);
    prop_assert_eq!(
        &got,
        &want,
        "RunStats differ (sm {}, migrate {})",
        sm,
        migrate
    );
    prop_assert_eq!(
        engine.0.digest,
        probe.digest,
        "callback digests differ (sm {}, migrate {})",
        sm,
        migrate
    );

    // The observed engine and the inert fast path give the same stats.
    let mut again = EngineHooks(Probe::new(sm, migrate, seed));
    let observed = simulate_observed(
        &c.cfg,
        &c.topo,
        &c.traces,
        &c.mapping,
        &mut again,
        &Recorder::new(ObsConfig::new(1)),
    );
    prop_assert_eq!(&observed, &want, "observed run differs");
    if !sm && !migrate && c.cfg.tick_period.is_none() {
        let plain = simulate(&c.cfg, &c.topo, &c.traces, &c.mapping, &mut NoHooks);
        prop_assert_eq!(&plain, &want, "inert run differs");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The engine equals the reference on every machine, page size and
    /// hook combination.
    #[test]
    fn engine_matches_the_reference_simulator(
        machine in 0u8..4,
        shift in prop::sample::select(vec![6u32, 10, 12, 21]),
        seed in any::<u64>(),
    ) {
        let c = case(machine, shift, seed);
        for (sm, migrate) in [(false, false), (true, false), (false, true), (true, true)] {
            check(&c, sm, migrate, seed)?;
        }
    }
}

/// The reference is not vacuous: its traces reach every event the
/// oracle is meant to compare.
#[test]
fn reference_cases_exercise_every_counter() {
    let mut total = CacheStats::default();
    let (mut misses, mut migrations, mut searches) = (0, 0, 0);
    for seed in 0..40u64 {
        let c = case(
            (seed % 4) as u8,
            [6, 10, 12, 21][(seed / 4 % 4) as usize],
            seed,
        );
        let mut probe = Probe::new(true, true, seed);
        let s = Reference {
            cfg: &c.cfg,
            topo: &c.topo,
            traces: &c.traces,
        }
        .run(&c.mapping, &mut probe);
        total.merge(&s.cache);
        misses += s.tlb_misses();
        migrations += s.migrations;
        searches += s.detection_searches;
    }
    for (name, n) in [
        ("capacity misses", total.l2_capacity_misses),
        ("coherence misses", total.l2_coherence_misses),
        ("invalidations", total.invalidations),
        ("intra-chip snoops", total.snoops_intra_chip),
        ("inter-chip snoops", total.snoops_inter_chip),
        ("writebacks", total.writebacks),
        ("remote NUMA fetches", total.mem_fetches_remote),
        ("L1I hits", total.l1i_hits),
        ("TLB misses", misses),
        ("migrations", migrations),
        ("detection searches", searches),
    ] {
        assert!(n > 0, "no {name} in 40 reference cases");
    }
}
