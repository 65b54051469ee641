//! The full memory hierarchy: private write-through L1s, shared write-back
//! L2s kept coherent with MESI over a snooping bus.
//!
//! Event accounting follows the paper's definitions:
//!
//! * an **invalidation** is one remote L2 copy destroyed because some core
//!   wrote the line (`BusRdX`/upgrade). Sibling-L1 invalidations under the
//!   *same* L2 are tracked separately — they never cross the interconnect
//!   and the paper's mapping does not target them.
//! * a **snoop transaction** is a miss whose data was supplied by another
//!   cache rather than memory ("a core requests data that is not present in
//!   its cache and has to retrieve the data from another cache", §VI-B).
//! * **L2 misses** are classified cold / capacity / coherence so that the
//!   invalidation-miss reduction of Section III-A is directly observable.

use crate::cache::{Cache, LineAddr};
use crate::config::HierarchyConfig;
use crate::linetable::{LineTable, EVER, HOLDERS, LOST};
use crate::mesi::MesiState;
use crate::stats::{CacheStats, MissKind};
use tlbmap_mem::{PageGeometry, PageTable, Vpn};

/// log2 of the lines in a block that [`MemoryHierarchy::access`] numbers as
/// one page.
const BLOCK_LINES: u32 = 6;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Instruction fetch vs data access — routed to different L1s. The paper
/// notes data accesses dominate mapping-relevant communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data access (L1D).
    Data,
    /// Instruction fetch (L1I).
    Instr,
}

/// Timing and routing result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycles the access took.
    pub cycles: u64,
    /// Whether the L1 hit.
    pub l1_hit: bool,
    /// Whether the L2 hit (meaningless when `l1_hit`).
    pub l2_hit: bool,
    /// Whether the access was serviced cache-to-cache.
    pub snooped: bool,
}

/// The choice of the remote L2 that supplies a missing line, fed the
/// holders in ascending L2 order with their states: a Modified holder wins
/// outright (it must write back or hand over its data); otherwise the
/// first holder, replaced once by a later intra-chip holder if it is
/// inter-chip. This is the full-snoop scan's rule, so the holder bitmap
/// changes which L2s are visited, never which one supplies.
#[derive(Debug, Default)]
struct Supplier {
    best: Option<usize>,
    modified: bool,
}

impl Supplier {
    /// Offer holder `other` in `state` as supplier to L2 `g`.
    #[inline]
    fn offer(&mut self, cfg: &HierarchyConfig, g: usize, other: usize, state: MesiState) {
        if self.modified {
            return;
        }
        if state == MesiState::Modified {
            self.best = Some(other);
            self.modified = true;
        } else if self.best.is_none_or(|b| {
            let chip = cfg.groups[g].chip;
            cfg.groups[other].chip == chip && cfg.groups[b].chip != chip
        }) {
            self.best = Some(other);
        }
    }
}

/// The L2 indices whose bits are set in `mask`, ascending — the order the
/// full-snoop scan visited them in.
#[inline]
fn l2s_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let g = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (g < 64).then_some(g)
    })
}

/// Host memory a hierarchy's line state takes
/// ([`MemoryHierarchy::line_footprint`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineFootprint {
    /// Distinct lines an L2 installed.
    pub lines: usize,
    /// Pages those lines fall in.
    pub pages: usize,
    /// Bytes of way words over every L1 and L2.
    pub way_bytes: usize,
    /// Bytes of the line table: coherence records (64 per written chunk of
    /// 64 ids, plus the shared zero chunk), chunk offsets and page bases.
    pub record_bytes: usize,
}

/// The coherent hierarchy for one machine.
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    /// `core_to_l2[core]` = index into `l2` / `cfg.groups`.
    core_to_l2: Vec<usize>,
    stats: CacheStats,
    /// Sibling-L1 copies invalidated under the same L2 (not an interconnect
    /// event; kept out of `CacheStats::invalidations`).
    l1_sibling_invalidations: u64,
    /// Line table: the dense id of every line an access has named (what
    /// the caches' ways store), numbered from its page index and its place
    /// in the page, and per id the bitmaps of L2s that hold the
    /// line now (the sparse owner directory), ever held it (cold vs
    /// capacity misses) and lost it to an invalidation (coherence misses).
    /// Holder bits change only where L2 residency does
    /// ([`Self::install_l2`] and the two invalidation paths), so holder
    /// search, sharer invalidation and MESI audits iterate the popcount of
    /// actual sharers instead of scanning every L2. The table changes
    /// *where* the protocol looks, never *what* it charges: all modeled
    /// latencies and counters are identical to the full-snoop scan it
    /// replaced.
    lines: LineTable,
    /// For a hierarchy built by [`Self::new`]: the first-touch numbering of
    /// the 64-line blocks [`Self::access`] names, kept as a page table of
    /// block-sized pages. `None` for one built by
    /// [`Self::with_page_shift`], whose caller passes the page indices.
    /// Fixing the source at build time keeps two numberings from naming
    /// two pages with one index.
    blocks: Option<PageTable>,
}

impl MemoryHierarchy {
    /// Build an empty hierarchy for [`Self::access`], which numbers lines
    /// by blocks of 64.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: HierarchyConfig) -> Self {
        let blocks = PageGeometry::with_shift(cfg.l2.line_shift() + BLOCK_LINES);
        Self::with_page_lines(cfg, BLOCK_LINES, Some(PageTable::new(blocks)))
    }

    /// Build an empty hierarchy for [`Self::access_page`] on pages of
    /// 2^`page_shift` bytes.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or a page is smaller than a
    /// line.
    pub fn with_page_shift(cfg: HierarchyConfig, page_shift: u32) -> Self {
        let line_shift = cfg.l2.line_shift();
        assert!(
            page_shift >= line_shift,
            "a page of 2^{page_shift} bytes is smaller than a {}-byte line",
            cfg.l2.line_size
        );
        Self::with_page_lines(cfg, page_shift - line_shift, None)
    }

    fn with_page_lines(cfg: HierarchyConfig, page_lines: u32, blocks: Option<PageTable>) -> Self {
        cfg.validate();
        let n_cores = cfg.num_cores();
        let n_l2 = cfg.num_l2();
        assert!(
            n_l2 <= 64,
            "owner directory packs holders into a u64 bitmap; got {n_l2} L2 groups"
        );
        let mut core_to_l2 = vec![usize::MAX; n_cores];
        for (g, group) in cfg.groups.iter().enumerate() {
            for &c in &group.cores {
                core_to_l2[c] = g;
            }
        }
        MemoryHierarchy {
            l1i: (0..n_cores).map(|_| Cache::new(cfg.l1i)).collect(),
            l1d: (0..n_cores).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: (0..n_l2).map(|_| Cache::new(cfg.l2)).collect(),
            core_to_l2,
            stats: CacheStats::default(),
            l1_sibling_invalidations: 0,
            lines: LineTable::new(page_lines),
            blocks,
            cfg,
        }
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Sibling-L1 invalidations (same-L2; not part of [`CacheStats`]).
    pub fn l1_sibling_invalidations(&self) -> u64 {
        self.l1_sibling_invalidations
    }

    /// Which L2 a core sits behind.
    pub fn l2_of(&self, core: usize) -> usize {
        self.core_to_l2[core]
    }

    /// MESI state of `line` in L2 `g` (test/diagnostic hook).
    pub fn l2_state(&self, g: usize, line: LineAddr) -> Option<MesiState> {
        let id = self.lines.find(line.0)?;
        self.l2[g].peek(line, id)
    }

    /// Host memory the line state takes (diagnostic hook): the caches' way
    /// words and the line table's records.
    #[doc(hidden)]
    pub fn line_footprint(&self) -> LineFootprint {
        let caches = self.l1i.iter().chain(&self.l1d).chain(&self.l2);
        LineFootprint {
            lines: self.lines.records().iter().filter(|r| r[EVER] != 0).count(),
            pages: self.lines.pages(),
            way_bytes: caches.map(Cache::way_bytes).sum(),
            record_bytes: self.lines.bytes(),
        }
    }

    /// Perform one memory access by `core` to physical address `paddr`
    /// on a UMA machine (no NUMA home-node accounting). The hierarchy
    /// numbers the address's 64-line block itself, in first-touch order:
    /// the path for callers that have no page index.
    ///
    /// # Panics
    /// Panics if the hierarchy was built by [`Self::with_page_shift`].
    #[inline]
    pub fn access(
        &mut self,
        core: usize,
        paddr: u64,
        op: MemOp,
        kind: AccessKind,
    ) -> AccessOutcome {
        let blocks = self.blocks.as_mut().expect(
            "a hierarchy built by `with_page_shift` takes its page indices from `access_page`",
        );
        let page = blocks.walk(Vpn(paddr >> blocks.geometry().page_shift)).page;
        self.access_line(core, paddr, page, op, kind, None)
    }

    /// Perform one memory access by `core` to physical address `paddr`,
    /// which lies in the page with dense first-touch index `page` (the
    /// index the translating TLB entry carries; a new page must take the
    /// next index), with an optional NUMA home chip for the page: memory
    /// fetches from a different chip's node pay `numa_remote_penalty`
    /// extra cycles and are counted separately.
    ///
    /// # Panics
    /// Panics if the hierarchy was built by [`Self::new`], if `page` skips
    /// an index, or once the pages touched cover more than 2^29 lines.
    #[inline]
    pub fn access_page(
        &mut self,
        core: usize,
        paddr: u64,
        page: u32,
        op: MemOp,
        kind: AccessKind,
        home_chip: Option<usize>,
    ) -> AccessOutcome {
        assert!(
            self.blocks.is_none(),
            "a hierarchy built by `new` numbers its own pages; build it with `with_page_shift`"
        );
        self.access_line(core, paddr, page, op, kind, home_chip)
    }

    /// One access to `paddr` in page `page`, whichever source numbered it.
    #[inline]
    fn access_line(
        &mut self,
        core: usize,
        paddr: u64,
        page: u32,
        op: MemOp,
        kind: AccessKind,
        home_chip: Option<usize>,
    ) -> AccessOutcome {
        let line = LineAddr::of(paddr, self.cfg.l2.line_shift());
        let id = self.lines.id(page, line.0);
        debug_assert_eq!(
            self.lines.line_of(id),
            line.0,
            "line id {id} of page {page} names another line"
        );
        match op {
            MemOp::Read => self.read(core, line, id, kind, home_chip),
            MemOp::Write => self.write(core, line, id, kind, home_chip),
        }
    }

    /// Record a memory fetch by L2 `g`, returning the fetch latency with
    /// any NUMA penalty applied.
    fn memory_fetch(&mut self, g: usize, home_chip: Option<usize>) -> u64 {
        self.stats.memory_fetches += 1;
        match home_chip {
            Some(chip) if chip != self.cfg.groups[g].chip => {
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

    fn l1_mut(&mut self, core: usize, kind: AccessKind) -> &mut Cache {
        match kind {
            AccessKind::Data => &mut self.l1d[core],
            AccessKind::Instr => &mut self.l1i[core],
        }
    }

    fn note_l1(&mut self, kind: AccessKind, hit: bool) {
        match (kind, hit) {
            (AccessKind::Data, true) => self.stats.l1d_hits += 1,
            (AccessKind::Data, false) => self.stats.l1d_misses += 1,
            (AccessKind::Instr, true) => self.stats.l1i_hits += 1,
            (AccessKind::Instr, false) => self.stats.l1i_misses += 1,
        }
    }

    fn read(
        &mut self,
        core: usize,
        line: LineAddr,
        id: u32,
        kind: AccessKind,
        home_chip: Option<usize>,
    ) -> AccessOutcome {
        let l1_latency = self.cfg.l1d.latency;
        if self.l1_mut(core, kind).touch(line, id).is_some() {
            self.note_l1(kind, true);
            return AccessOutcome {
                cycles: l1_latency,
                l1_hit: true,
                l2_hit: false,
                snooped: false,
            };
        }
        self.note_l1(kind, false);

        let g = self.core_to_l2[core];
        let mut cycles = l1_latency + self.cfg.l2.latency;
        let mut l2_hit = true;
        let mut snooped = false;

        if self.l2[g].touch(line, id).is_none() {
            // L2 read miss: classify, snoop, fetch, install.
            l2_hit = false;
            self.classify_miss(g, id);
            let (extra, was_snooped) = self.service_read_miss(g, line, id, home_chip);
            cycles += extra;
            snooped = was_snooped;
        } else {
            self.stats.l2_hits += 1;
        }

        // The L2 path above only ever removes L1 lines, so the line that
        // just missed in this L1 is still absent: install it directly.
        self.l1_mut(core, kind).insert(line, id, MesiState::Shared);
        AccessOutcome {
            cycles,
            l1_hit: false,
            l2_hit,
            snooped,
        }
    }

    fn write(
        &mut self,
        core: usize,
        line: LineAddr,
        id: u32,
        kind: AccessKind,
        home_chip: Option<usize>,
    ) -> AccessOutcome {
        let g = self.core_to_l2[core];
        let mut cycles = self.cfg.l1d.latency;
        let mut l2_hit = true;
        let mut snooped = false;

        match self.l2[g].touch(line, id) {
            Some(MesiState::Modified) => {}
            Some(MesiState::Exclusive) => {
                // Silent E→M upgrade.
                self.l2[g].set_state(line, id, MesiState::Modified);
            }
            Some(MesiState::Shared) => {
                // Upgrade: invalidate every remote copy.
                let (invalidated, _) = self.invalidate_remote_copies(g, line, id);
                if invalidated > 0 {
                    cycles += self.cfg.write_invalidate_penalty;
                }
                self.l2[g].set_state(line, id, MesiState::Modified);
            }
            Some(MesiState::Invalid) | None => {
                // Write miss: read-for-ownership (BusRdX).
                l2_hit = false;
                self.classify_miss(g, id);
                let (extra, was_snooped) = self.service_write_miss(g, line, id, home_chip);
                cycles += self.cfg.l2.latency + extra;
                snooped = was_snooped;
            }
        }
        if l2_hit {
            self.stats.l2_hits += 1;
        }

        // Keep sibling L1 copies (cores under the same L2) coherent: they
        // would otherwise read a stale line through their write-through L1.
        self.invalidate_sibling_l1s(core, g, line, id);

        // Write-allocate into the local L1 (write-through to L2 is implied).
        let (hit, _) = self
            .l1_mut(core, kind)
            .touch_or_insert(line, id, MesiState::Shared);
        self.note_l1(kind, hit);
        AccessOutcome {
            cycles,
            l1_hit: false,
            l2_hit,
            snooped,
        }
    }

    /// Snoop the remote L2s for `line` (line id `id`) on a read miss;
    /// transfer cache-to-cache if anyone has it, otherwise fetch from
    /// memory. Installs the line in `g` and handles the eviction. Returns
    /// `(extra_cycles, snooped)`.
    fn service_read_miss(
        &mut self,
        g: usize,
        line: LineAddr,
        id: u32,
        home_chip: Option<usize>,
    ) -> (u64, bool) {
        #[cfg(debug_assertions)]
        let expected = self.holder_scan(g, line, id);
        // One pass over the holder bitmap: every holder is demoted to
        // Shared (BusRd seen) while its old state picks the supplier.
        let mut supplier = Supplier::default();
        for other in l2s_in(self.lines[id][HOLDERS] & !(1u64 << g)) {
            let old = self.l2[other].replace_state(line, id, MesiState::Shared);
            debug_assert!(old.is_some(), "holder bit set for non-resident line");
            if let Some(old) = old {
                supplier.offer(&self.cfg, g, other, old);
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(supplier.best, expected);
        let (extra, state, snooped) = match supplier.best {
            Some(h) => {
                if supplier.modified {
                    // Dirty supplier writes back and both end Shared.
                    self.stats.writebacks += 1;
                }
                self.record_snoop(g, h);
                (self.c2c_latency(g, h), MesiState::Shared, true)
            }
            None => {
                let latency = self.memory_fetch(g, home_chip);
                (latency, MesiState::Exclusive, false)
            }
        };
        self.install_l2(g, line, id, state);
        (extra, snooped)
    }

    /// Snoop on a write miss (`BusRdX`): any remote copy supplies the data
    /// (dirty ownership migrates without a memory writeback) and every
    /// remote copy is invalidated. Returns `(extra_cycles, snooped)`.
    fn service_write_miss(
        &mut self,
        g: usize,
        line: LineAddr,
        id: u32,
        home_chip: Option<usize>,
    ) -> (u64, bool) {
        #[cfg(debug_assertions)]
        let expected = self.holder_scan(g, line, id);
        let (invalidated, supplier) = self.invalidate_remote_copies(g, line, id);
        #[cfg(debug_assertions)]
        debug_assert_eq!(supplier, expected);
        let (extra, snooped) = match supplier {
            Some(h) => {
                self.record_snoop(g, h);
                (self.c2c_latency(g, h), true)
            }
            None => (self.memory_fetch(g, home_chip), false),
        };
        let penalty = if invalidated > 0 {
            self.cfg.write_invalidate_penalty
        } else {
            0
        };
        self.install_l2(g, line, id, MesiState::Modified);
        (extra + penalty, snooped)
    }

    /// The remote L2 that would supply `line` to L2 `g`, found from the
    /// holder bitmap (test hook; the miss paths pick the same supplier in
    /// their own pass over the bitmap).
    #[doc(hidden)]
    pub fn find_holder_directory(&self, g: usize, line: LineAddr) -> Option<usize> {
        let id = self.lines.find(line.0)?;
        let mut supplier = Supplier::default();
        for other in l2s_in(self.lines[id][HOLDERS] & !(1u64 << g)) {
            let state = self.l2[other].peek(line, id);
            debug_assert!(state.is_some(), "holder bit set for non-resident line");
            if let Some(state) = state {
                supplier.offer(&self.cfg, g, other, state);
            }
        }
        supplier.best
    }

    /// The pre-directory holder search: peek every other L2 in ascending
    /// order. Kept as the oracle the holder bitmap is property-tested (and
    /// debug-asserted) against.
    #[doc(hidden)]
    pub fn find_holder_scan(&self, g: usize, line: LineAddr) -> Option<usize> {
        self.holder_scan(g, line, self.lines.find(line.0)?)
    }

    fn holder_scan(&self, g: usize, line: LineAddr, id: u32) -> Option<usize> {
        let mut supplier = Supplier::default();
        for other in (0..self.l2.len()).filter(|&o| o != g) {
            if let Some(state) = self.l2[other].peek(line, id) {
                supplier.offer(&self.cfg, g, other, state);
            }
        }
        supplier.best
    }

    /// The holder bitmap for `line` (test hook).
    #[doc(hidden)]
    pub fn directory_mask(&self, line: LineAddr) -> u64 {
        self.lines.get(line.0)[HOLDERS]
    }

    /// Residency bitmap rebuilt by peeking every L2 (test oracle for
    /// [`Self::directory_mask`]).
    #[doc(hidden)]
    pub fn residency_mask_scan(&self, line: LineAddr) -> u64 {
        let Some(id) = self.lines.find(line.0) else {
            return 0;
        };
        let mut mask = 0u64;
        for (g, l2) in self.l2.iter().enumerate() {
            if l2.peek(line, id).is_some() {
                mask |= 1 << g;
            }
        }
        mask
    }

    fn c2c_latency(&self, a: usize, b: usize) -> u64 {
        if self.cfg.groups[a].chip == self.cfg.groups[b].chip {
            self.cfg.c2c_intra_chip
        } else {
            self.cfg.c2c_inter_chip
        }
    }

    fn record_snoop(&mut self, a: usize, b: usize) {
        self.stats.snoop_transactions += 1;
        if self.cfg.groups[a].chip == self.cfg.groups[b].chip {
            self.stats.snoops_intra_chip += 1;
        } else {
            self.stats.snoops_inter_chip += 1;
        }
    }

    /// Invalidate every copy of `line` (line id `id`) in L2s other
    /// than `g`, and in the L1s of the cores behind them. Returns how many
    /// L2 copies were destroyed and which of them supplies the data to a
    /// write miss. A remote Modified copy invalidated by `BusRdX` hands its
    /// data to the requester with no memory writeback.
    fn invalidate_remote_copies(
        &mut self,
        g: usize,
        line: LineAddr,
        id: u32,
    ) -> (u64, Option<usize>) {
        let record = &mut self.lines[id];
        let remote = record[HOLDERS] & !(1u64 << g);
        record[HOLDERS] &= !remote;
        record[LOST] |= remote;
        let mut supplier = Supplier::default();
        for other in l2s_in(remote) {
            let state = self.l2[other].remove(line, id);
            debug_assert!(state.is_some(), "holder bit set for non-resident line");
            if let Some(state) = state {
                supplier.offer(&self.cfg, g, other, state);
            }
            self.back_invalidate_l1s(other, line, id);
        }
        let count = u64::from(remote.count_ones());
        self.stats.invalidations += count;
        (count, supplier.best)
    }

    /// Drop `line` from the L1s of every core behind L2 `g` (inclusive
    /// back-invalidation).
    fn back_invalidate_l1s(&mut self, g: usize, line: LineAddr, id: u32) {
        for &c in &self.cfg.groups[g].cores {
            self.l1d[c].remove(line, id);
            self.l1i[c].remove(line, id);
        }
    }

    /// Drop `line` from the L1s of `core`'s siblings under the same L2.
    fn invalidate_sibling_l1s(&mut self, core: usize, g: usize, line: LineAddr, id: u32) {
        for &c in &self.cfg.groups[g].cores {
            if c != core && self.l1d[c].remove(line, id).is_some() {
                self.l1_sibling_invalidations += 1;
            }
        }
    }

    /// Install `line` (line id `id`) into L2 `g`, recording residence and
    /// handling the evicted victim (writeback if dirty, back-invalidate
    /// L1s, which needs the victim's address from the line table).
    fn install_l2(&mut self, g: usize, line: LineAddr, id: u32, state: MesiState) {
        let bit = 1u64 << g;
        let record = &mut self.lines[id];
        record[HOLDERS] |= bit;
        record[EVER] |= bit;
        if let Some(ev) = self.l2[g].insert(line, id, state) {
            self.lines[ev.id][HOLDERS] &= !bit;
            if ev.state.dirty() {
                self.stats.writebacks += 1;
            }
            let victim = LineAddr(self.lines.line_of(ev.id));
            self.back_invalidate_l1s(g, victim, ev.id);
        }
    }

    /// Classify an L2 miss of `g` on line `id`.
    fn classify_miss(&mut self, g: usize, id: u32) {
        let bit = 1u64 << g;
        let record = &mut self.lines[id];
        let kind = if record[LOST] & bit != 0 {
            record[LOST] &= !bit;
            MissKind::Coherence
        } else if record[EVER] & bit != 0 {
            MissKind::Capacity
        } else {
            MissKind::Cold
        };
        self.stats.record_l2_miss(kind);
    }

    /// Check the MESI exclusivity invariant for one line: if any L2 holds it
    /// Modified or Exclusive, no other L2 may hold it at all. Used by
    /// property tests. Audits only the L2s the holder bitmap names, so
    /// the check is O(popcount) rather than O(groups).
    pub fn mesi_invariant_holds(&self, line: LineAddr) -> bool {
        let Some(id) = self.lines.find(line.0) else {
            return true; // never accessed, so held nowhere
        };
        let holders = self.lines[id][HOLDERS];
        let mut exclusive_holders = 0u32;
        for g in l2s_in(holders) {
            match self.l2[g].peek(line, id) {
                Some(MesiState::Modified) | Some(MesiState::Exclusive) => exclusive_holders += 1,
                Some(_) => {}
                None => return false, // holder bit for a non-resident line
            }
        }
        exclusive_holders == 0 || holders.count_ones() == 1
    }

    /// Check the inclusion invariant: every line resident in a core's L1
    /// must also be resident in that core's L2 (the model back-invalidates
    /// L1s on L2 eviction/invalidation, so this must always hold). Used by
    /// property tests.
    pub fn inclusion_holds(&self) -> bool {
        for core in 0..self.core_to_l2.len() {
            let g = self.core_to_l2[core];
            for l1 in [&self.l1d[core], &self.l1i[core]] {
                for (id, _) in l1.lines() {
                    let line = LineAddr(self.lines.line_of(id));
                    if self.l2[g].peek(line, id).is_none() {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, L2Group};

    /// Small hierarchy: 4 cores, 2 L2s (one per chip), tiny caches.
    fn small() -> MemoryHierarchy {
        let l1 = CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 64 * 32,
            line_size: 64,
            ways: 4,
            latency: 8,
        };
        MemoryHierarchy::new(HierarchyConfig {
            l1i: l1,
            l1d: l1,
            l2,
            mem_latency: 200,
            c2c_intra_chip: 40,
            c2c_inter_chip: 120,
            write_invalidate_penalty: 20,
            numa_remote_penalty: 0,
            groups: vec![
                L2Group {
                    cores: vec![0, 1],
                    chip: 0,
                },
                L2Group {
                    cores: vec![2, 3],
                    chip: 1,
                },
            ],
        })
    }

    #[test]
    fn cold_read_fetches_from_memory() {
        let mut h = small();
        let out = h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(!out.l1_hit && !out.l2_hit && !out.snooped);
        assert_eq!(out.cycles, 2 + 8 + 200);
        assert_eq!(h.stats().memory_fetches, 1);
        assert_eq!(h.stats().l2_cold_misses, 1);
    }

    #[test]
    fn second_read_hits_l1() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        let out = h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(out.l1_hit);
        assert_eq!(out.cycles, 2);
    }

    #[test]
    fn sibling_core_hits_shared_l2() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        let out = h.access(1, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(!out.l1_hit && out.l2_hit && !out.snooped);
        assert_eq!(out.cycles, 2 + 8);
        assert_eq!(h.stats().snoop_transactions, 0);
    }

    #[test]
    fn remote_read_is_a_snoop_transaction() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        let out = h.access(2, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(out.snooped);
        assert_eq!(out.cycles, 2 + 8 + 120); // inter-chip transfer
        assert_eq!(h.stats().snoop_transactions, 1);
        assert_eq!(h.stats().snoops_inter_chip, 1);
        // Both copies are now Shared.
        assert_eq!(
            h.l2_state(0, LineAddr::of(0x1000, 6)),
            Some(MesiState::Shared)
        );
        assert_eq!(
            h.l2_state(1, LineAddr::of(0x1000, 6)),
            Some(MesiState::Shared)
        );
    }

    #[test]
    fn write_to_shared_line_invalidates_remote_copy() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        h.access(2, 0x1000, MemOp::Read, AccessKind::Data); // both Shared
        let out = h.access(0, 0x1000, MemOp::Write, AccessKind::Data);
        assert_eq!(h.stats().invalidations, 1);
        assert_eq!(h.l2_state(1, LineAddr::of(0x1000, 6)), None);
        assert_eq!(
            h.l2_state(0, LineAddr::of(0x1000, 6)),
            Some(MesiState::Modified)
        );
        assert!(out.cycles >= 20); // paid the invalidate penalty
    }

    #[test]
    fn invalidated_line_remiss_is_coherence_miss() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        h.access(2, 0x1000, MemOp::Read, AccessKind::Data);
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // invalidates L2 1
        h.access(2, 0x1000, MemOp::Read, AccessKind::Data); // must re-fetch
        assert_eq!(h.stats().l2_coherence_misses, 1);
    }

    #[test]
    fn dirty_remote_line_is_written_back_on_read() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // M in L2 0
        h.access(2, 0x1000, MemOp::Read, AccessKind::Data);
        assert_eq!(h.stats().writebacks, 1);
        assert_eq!(
            h.l2_state(0, LineAddr::of(0x1000, 6)),
            Some(MesiState::Shared)
        );
    }

    #[test]
    fn write_miss_steals_dirty_line_without_writeback() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // M in L2 0
        h.access(2, 0x1000, MemOp::Write, AccessKind::Data); // BusRdX
        assert_eq!(h.stats().writebacks, 0);
        assert_eq!(h.stats().invalidations, 1);
        assert_eq!(h.stats().snoop_transactions, 1);
        assert_eq!(h.l2_state(0, LineAddr::of(0x1000, 6)), None);
        assert_eq!(
            h.l2_state(1, LineAddr::of(0x1000, 6)),
            Some(MesiState::Modified)
        );
    }

    #[test]
    fn exclusive_upgrade_is_silent() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data); // E
        let inv_before = h.stats().invalidations;
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // E→M, silent
        assert_eq!(h.stats().invalidations, inv_before);
        assert_eq!(
            h.l2_state(0, LineAddr::of(0x1000, 6)),
            Some(MesiState::Modified)
        );
    }

    #[test]
    fn sibling_l1_copy_invalidated_on_write() {
        let mut h = small();
        h.access(1, 0x1000, MemOp::Read, AccessKind::Data); // core 1 L1 has it
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // sibling writes
        assert_eq!(h.l1_sibling_invalidations(), 1);
        // Not counted as an interconnect invalidation.
        assert_eq!(h.stats().invalidations, 0);
        // Core 1's next read must come from L2, not a stale L1.
        let out = h.access(1, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(!out.l1_hit && out.l2_hit);
    }

    #[test]
    fn capacity_miss_classified_after_eviction() {
        let mut h = small();
        // L2 is 4-way x 8 sets. Fill one set beyond capacity: lines with the
        // same set index are 8 apart (32 lines / 4 ways = 8 sets).
        for i in 0..5u64 {
            h.access(0, i * 8 * 64, MemOp::Read, AccessKind::Data);
        }
        // Line 0 was evicted; re-reading it is a capacity miss.
        h.access(0, 0, MemOp::Read, AccessKind::Data);
        assert_eq!(h.stats().l2_capacity_misses, 1);
        assert_eq!(h.stats().l2_cold_misses, 5);
    }

    #[test]
    fn intra_chip_snoop_is_cheaper() {
        // Rebuild with both L2s on one chip to compare.
        let l1 = CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 64 * 32,
            line_size: 64,
            ways: 4,
            latency: 8,
        };
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            l1i: l1,
            l1d: l1,
            l2,
            mem_latency: 200,
            c2c_intra_chip: 40,
            c2c_inter_chip: 120,
            write_invalidate_penalty: 20,
            numa_remote_penalty: 0,
            groups: vec![
                L2Group {
                    cores: vec![0, 1],
                    chip: 0,
                },
                L2Group {
                    cores: vec![2, 3],
                    chip: 0,
                },
            ],
        });
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        let out = h.access(2, 0x1000, MemOp::Read, AccessKind::Data);
        assert_eq!(out.cycles, 2 + 8 + 40);
        assert_eq!(h.stats().snoops_intra_chip, 1);
        assert_eq!(h.stats().snoops_inter_chip, 0);
    }

    #[test]
    fn mesi_invariant_after_mixed_traffic() {
        let mut h = small();
        let addrs = [0x0u64, 0x1000, 0x2000, 0x40, 0x1040];
        for (i, &a) in addrs.iter().cycle().take(100).enumerate() {
            let core = i % 4;
            let op = if i % 3 == 0 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            h.access(core, a, op, AccessKind::Data);
            for &chk in &addrs {
                assert!(h.mesi_invariant_holds(LineAddr::of(chk, 6)));
            }
        }
    }

    #[test]
    fn numa_remote_fetch_pays_penalty_and_is_counted() {
        let l1 = CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 64 * 32,
            line_size: 64,
            ways: 4,
            latency: 8,
        };
        let mut h = MemoryHierarchy::with_page_shift(
            HierarchyConfig {
                l1i: l1,
                l1d: l1,
                l2,
                mem_latency: 200,
                c2c_intra_chip: 40,
                c2c_inter_chip: 120,
                write_invalidate_penalty: 20,
                numa_remote_penalty: 150,
                groups: vec![
                    L2Group {
                        cores: vec![0, 1],
                        chip: 0,
                    },
                    L2Group {
                        cores: vec![2, 3],
                        chip: 1,
                    },
                ],
            },
            12,
        );
        // Core 0 (chip 0) fetches a page homed on chip 1: remote.
        let remote = h.access_page(0, 0x1000, 0, MemOp::Read, AccessKind::Data, Some(1));
        assert_eq!(remote.cycles, 2 + 8 + 200 + 150);
        // Core 0 fetches a page homed on chip 0: local.
        let local = h.access_page(0, 0x2000, 1, MemOp::Read, AccessKind::Data, Some(0));
        assert_eq!(local.cycles, 2 + 8 + 200);
        assert_eq!(h.stats().mem_fetches_remote, 1);
        assert_eq!(h.stats().mem_fetches_local, 1);
        assert_eq!(h.stats().memory_fetches, 2);
    }

    #[test]
    fn uma_access_counts_no_numa_fetches() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        assert_eq!(h.stats().memory_fetches, 1);
        assert_eq!(h.stats().mem_fetches_local, 0);
        assert_eq!(h.stats().mem_fetches_remote, 0);
    }

    #[test]
    fn address_path_numbers_blocks_in_first_touch_order() {
        let mut h = small();
        // Blocks 7, 2, 7 again, 9: three pages, numbered 0, 1, 2.
        for paddr in [7 << 12 | 0xC0, 2 << 12, 7 << 12 | 0xFC0, 9 << 12 | 0x40] {
            h.access(0, paddr, MemOp::Read, AccessKind::Data);
        }
        assert_eq!(h.line_footprint().pages, 3);
        assert_eq!(
            h.l2_state(0, LineAddr(7 << 6 | 63)),
            Some(MesiState::Exclusive)
        );
    }

    #[test]
    #[should_panic(expected = "takes its page indices from `access_page`")]
    fn a_page_indexed_hierarchy_refuses_address_numbering() {
        let mut h = MemoryHierarchy::with_page_shift(small().config().clone(), 12);
        h.access_page(0, 0x1000, 0, MemOp::Read, AccessKind::Data, None);
        h.access(0, 0x2000, MemOp::Read, AccessKind::Data);
    }

    #[test]
    #[should_panic(expected = "numbers its own pages")]
    fn an_address_numbered_hierarchy_refuses_page_indices() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        h.access_page(0, 0x2000, 1, MemOp::Read, AccessKind::Data, None);
    }

    #[test]
    fn numa_penalty_not_charged_on_cache_to_cache() {
        let l1 = CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 64 * 32,
            line_size: 64,
            ways: 4,
            latency: 8,
        };
        let mut h = MemoryHierarchy::with_page_shift(
            HierarchyConfig {
                l1i: l1,
                l1d: l1,
                l2,
                mem_latency: 200,
                c2c_intra_chip: 40,
                c2c_inter_chip: 120,
                write_invalidate_penalty: 20,
                numa_remote_penalty: 150,
                groups: vec![
                    L2Group {
                        cores: vec![0, 1],
                        chip: 0,
                    },
                    L2Group {
                        cores: vec![2, 3],
                        chip: 1,
                    },
                ],
            },
            12,
        );
        h.access_page(0, 0x1000, 0, MemOp::Read, AccessKind::Data, Some(1)); // remote fill
                                                                             // Core 2 now reads it cache-to-cache — NUMA is irrelevant.
        let out = h.access_page(2, 0x1000, 0, MemOp::Read, AccessKind::Data, Some(1));
        assert!(out.snooped);
        assert_eq!(out.cycles, 2 + 8 + 120);
        assert_eq!(h.stats().mem_fetches_remote, 1);
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Instr);
        assert_eq!(h.stats().l1i_misses, 1);
        assert_eq!(h.stats().l1d_misses, 0);
        let out = h.access(0, 0x1000, MemOp::Read, AccessKind::Instr);
        assert!(out.l1_hit);
        assert_eq!(h.stats().l1i_hits, 1);
    }
}
