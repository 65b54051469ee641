//! Per-core MMU: ties a private TLB to the shared page table and models the
//! cost difference between software- and hardware-managed TLB fills.
//!
//! The paper's two mechanisms hook the MMU at different points:
//!
//! * **software-managed** (SPARC/MIPS style): a TLB miss traps to the OS,
//!   which walks the table and refills the TLB. The trap itself is the
//!   natural hook for the SM detector — the simulator calls back *between*
//!   detecting the miss and performing the fill.
//! * **hardware-managed** (x86 style): the hardware walks the table with no
//!   OS involvement; only a periodic interrupt (the HM detector) ever looks
//!   at TLB contents.
//!
//! The MMU does not perform the fill transparently inside `translate`; the
//! engine drives the two-phase `lookup → fill` sequence so detectors can
//! observe the machine state at the precise architectural moment.

use crate::addr::{PageGeometry, PhysAddr, VirtAddr, Vpn};
use crate::page_table::PageTable;
use crate::tlb::{Tlb, TlbConfig, TlbLookup, TlbStats};

/// How TLB misses are serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbMode {
    /// Miss traps to the OS (SPARC, MIPS). Fill cost includes the trap and
    /// context-switch overhead; the SM detector piggybacks on this trap.
    SoftwareManaged,
    /// Miss is serviced by a hardware walker (x86, x86-64). Cheap fills; the
    /// OS cannot see TLB contents without the paper's proposed instruction.
    HardwareManaged,
}

/// MMU timing and geometry configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuConfig {
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Fill discipline.
    pub mode: TlbMode,
    /// Cycles to enter and leave the OS trap handler (software-managed only).
    pub trap_cycles: u64,
    /// Cycles per page-table memory access during a walk.
    pub walk_access_cycles: u64,
    /// Optional second-level TLB (hardware-managed designs after the
    /// paper's era — e.g. Nehalem's 512-entry L2 TLB behind the 64-entry
    /// L1 the paper cites). L1 misses that hit here refill silently,
    /// *without* reaching the OS — so they are invisible to the SM
    /// mechanism, an extension trade-off the geometry ablation measures.
    pub l2_tlb: Option<TlbConfig>,
    /// L2 TLB hit latency in cycles.
    pub l2_tlb_latency: u64,
}

impl MmuConfig {
    /// Paper-like software-managed configuration (64-entry 4-way TLB).
    pub fn paper_software_managed() -> Self {
        MmuConfig {
            tlb: TlbConfig::paper_default(),
            mode: TlbMode::SoftwareManaged,
            trap_cycles: 120,
            walk_access_cycles: 100,
            l2_tlb: None,
            l2_tlb_latency: 7,
        }
    }

    /// Paper-like hardware-managed configuration (64-entry 4-way TLB).
    pub fn paper_hardware_managed() -> Self {
        MmuConfig {
            tlb: TlbConfig::paper_default(),
            mode: TlbMode::HardwareManaged,
            trap_cycles: 0,
            walk_access_cycles: 100,
            l2_tlb: None,
            l2_tlb_latency: 7,
        }
    }
}

/// Result of a completed translation (lookup + fill if needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub paddr: PhysAddr,
    /// The page's dense first-touch index ([`crate::WalkResult::page`]),
    /// as the TLB entry that translated it carries it.
    pub page: u32,
    /// Whether the TLB missed.
    pub missed: bool,
    /// Cycles spent translating (0 on a hit; trap + walk on a miss).
    pub cycles: u64,
}

/// A per-core MMU.
#[derive(Debug, Clone)]
pub struct Mmu {
    config: MmuConfig,
    geo: PageGeometry,
    tlb: Tlb,
    l2_tlb: Option<Tlb>,
}

impl Mmu {
    /// Create an MMU with an empty TLB.
    pub fn new(config: MmuConfig, geo: PageGeometry) -> Self {
        Mmu {
            config,
            geo,
            tlb: Tlb::new(config.tlb),
            l2_tlb: config.l2_tlb.map(Tlb::new),
        }
    }

    /// The fill discipline this MMU models.
    pub fn mode(&self) -> TlbMode {
        self.config.mode
    }

    /// Read access to the TLB — what a detector inspecting this core's TLB
    /// mirror (SM) or TLB dump (HM) sees.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// TLB statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Phase 1: look up `vaddr` in the TLB hierarchy. On an L1 hit the
    /// translation is free; an L1 miss that hits a configured L2 TLB
    /// refills the L1 silently at `l2_tlb_latency` (never reaching the OS
    /// — invisible to the SM mechanism); a full miss returns `None` and
    /// the caller must invoke [`Mmu::fill`] (after letting any detector
    /// observe the miss).
    #[inline]
    pub fn lookup(&mut self, vaddr: VirtAddr) -> Option<Translation> {
        let vpn = vaddr.vpn(self.geo);
        match self.tlb.access(vpn) {
            TlbLookup::Hit(pfn, page) => Some(Translation {
                paddr: pfn.with_offset(vaddr.page_offset(self.geo), self.geo),
                page,
                missed: false,
                cycles: 0,
            }),
            TlbLookup::Miss => {
                let l2 = self.l2_tlb.as_mut()?;
                match l2.access(vpn) {
                    TlbLookup::Hit(pfn, page) => {
                        self.tlb.insert(vpn, pfn, page);
                        Some(Translation {
                            paddr: pfn.with_offset(vaddr.page_offset(self.geo), self.geo),
                            page,
                            missed: false,
                            cycles: self.config.l2_tlb_latency,
                        })
                    }
                    TlbLookup::Miss => None,
                }
            }
        }
    }

    /// Phase 2: service a miss — walk the shared page table, install the
    /// entry, and return the finished translation with its cycle cost.
    pub fn fill(&mut self, vaddr: VirtAddr, page_table: &mut PageTable) -> Translation {
        let vpn = vaddr.vpn(self.geo);
        let walk = page_table.walk(vpn);
        self.tlb.insert(vpn, walk.pfn, walk.page);
        if let Some(l2) = self.l2_tlb.as_mut() {
            l2.insert(vpn, walk.pfn, walk.page);
        }
        let mut cycles = walk.memory_accesses as u64 * self.config.walk_access_cycles;
        if self.config.mode == TlbMode::SoftwareManaged {
            cycles += self.config.trap_cycles;
        }
        Translation {
            paddr: walk.pfn.with_offset(vaddr.page_offset(self.geo), self.geo),
            page: walk.page,
            missed: true,
            cycles,
        }
    }

    /// One-shot translate: lookup then fill. Convenient for tests and tools
    /// that do not need the detector hook between the phases.
    pub fn translate(&mut self, vaddr: VirtAddr, page_table: &mut PageTable) -> Translation {
        match self.lookup(vaddr) {
            Some(t) => t,
            None => self.fill(vaddr, page_table),
        }
    }

    /// Invalidate one page (TLB shootdown on page-table update).
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let l2_had = self
            .l2_tlb
            .as_mut()
            .map(|l2| l2.invalidate(vpn))
            .unwrap_or(false);
        self.tlb.invalidate(vpn) || l2_had
    }

    /// Flush the whole TLB hierarchy (context switch / migration).
    pub fn flush(&mut self) {
        self.tlb.flush();
        if let Some(l2) = self.l2_tlb.as_mut() {
            l2.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(mode: TlbMode) -> (Mmu, PageTable) {
        let geo = PageGeometry::new_4k();
        let config = MmuConfig {
            tlb: TlbConfig {
                entries: 8,
                ways: 2,
            },
            mode,
            trap_cycles: 120,
            walk_access_cycles: 100,
            l2_tlb: None,
            l2_tlb_latency: 7,
        };
        (Mmu::new(config, geo), PageTable::new(geo))
    }

    #[test]
    fn hit_costs_nothing() {
        let (mut mmu, mut pt) = setup(TlbMode::HardwareManaged);
        let a = VirtAddr(0x1234);
        let first = mmu.translate(a, &mut pt);
        assert!(first.missed);
        let second = mmu.translate(a, &mut pt);
        assert!(!second.missed);
        assert_eq!(second.cycles, 0);
        assert_eq!(first.paddr, second.paddr);
    }

    #[test]
    fn software_managed_miss_includes_trap() {
        let (mut mmu, mut pt) = setup(TlbMode::SoftwareManaged);
        let t = mmu.translate(VirtAddr(0x5000), &mut pt);
        // 3 walk accesses (2 levels + allocation) * 100 + 120 trap.
        assert_eq!(t.cycles, 300 + 120);
    }

    #[test]
    fn hardware_managed_miss_has_no_trap() {
        let (mut mmu, mut pt) = setup(TlbMode::HardwareManaged);
        let t = mmu.translate(VirtAddr(0x5000), &mut pt);
        assert_eq!(t.cycles, 300);
    }

    #[test]
    fn same_page_same_frame_across_cores() {
        let geo = PageGeometry::new_4k();
        let mut pt = PageTable::new(geo);
        let (mut a, _) = setup(TlbMode::HardwareManaged);
        let (mut b, _) = setup(TlbMode::HardwareManaged);
        let t1 = a.translate(VirtAddr(0x9000), &mut pt);
        let t2 = b.translate(VirtAddr(0x9004), &mut pt);
        // Same page → same frame and page index, different offsets.
        assert_eq!(t1.paddr.0 & !0xFFF, t2.paddr.0 & !0xFFF);
        assert_eq!(t2.paddr.0 & 0xFFF, 4);
        assert_eq!((t1.page, t2.page), (0, 0));
        assert_eq!(a.translate(VirtAddr(0x1000), &mut pt).page, 1);
        assert_eq!(
            b.translate(VirtAddr(0x9008), &mut pt).page,
            0,
            "a hit keeps the index"
        );
    }

    #[test]
    fn two_phase_lookup_then_fill() {
        let (mut mmu, mut pt) = setup(TlbMode::SoftwareManaged);
        let a = VirtAddr(0x7008);
        assert!(mmu.lookup(a).is_none());
        let t = mmu.fill(a, &mut pt);
        assert!(t.missed);
        assert!(mmu.lookup(a).is_some());
    }

    #[test]
    fn l2_tlb_absorbs_refill_misses() {
        let geo = PageGeometry::new_4k();
        let config = MmuConfig {
            tlb: TlbConfig {
                entries: 4,
                ways: 2,
            },
            mode: TlbMode::HardwareManaged,
            trap_cycles: 0,
            walk_access_cycles: 100,
            l2_tlb: Some(TlbConfig {
                entries: 64,
                ways: 4,
            }),
            l2_tlb_latency: 7,
        };
        let mut mmu = Mmu::new(config, geo);
        let mut pt = PageTable::new(geo);
        // Touch 8 pages: more than L1 (4) but within L2 (64).
        for i in 0..8 {
            mmu.translate(VirtAddr(i * 4096), &mut pt);
        }
        // Page 0 is long gone from L1 but still in the L2 TLB: lookup
        // succeeds at L2 latency, no fill needed — the OS never sees it.
        let t = mmu.lookup(VirtAddr(0)).expect("L2 TLB must hold page 0");
        assert!(!t.missed);
        assert_eq!(t.cycles, 7);
        assert_eq!(t.page, 0, "the L2 TLB carries the page index too");
        assert_eq!(mmu.lookup(VirtAddr(4096 * 7)).map(|t| t.page), Some(7));
    }

    #[test]
    fn l2_tlb_flush_and_invalidate_cover_both_levels() {
        let geo = PageGeometry::new_4k();
        let config = MmuConfig {
            l2_tlb: Some(TlbConfig {
                entries: 16,
                ways: 4,
            }),
            ..MmuConfig::paper_hardware_managed()
        };
        let mut mmu = Mmu::new(config, geo);
        let mut pt = PageTable::new(geo);
        mmu.translate(VirtAddr(0x5000), &mut pt);
        assert!(mmu.invalidate(VirtAddr(0x5000).vpn(geo)));
        assert!(
            mmu.lookup(VirtAddr(0x5000)).is_none(),
            "both levels invalidated"
        );
        mmu.translate(VirtAddr(0x5000), &mut pt);
        mmu.flush();
        assert!(
            mmu.lookup(VirtAddr(0x5000)).is_none(),
            "flush clears both levels"
        );
    }

    #[test]
    fn invalidate_forces_refill() {
        let (mut mmu, mut pt) = setup(TlbMode::HardwareManaged);
        let a = VirtAddr(0x3000);
        mmu.translate(a, &mut pt);
        assert!(mmu.invalidate(a.vpn(PageGeometry::new_4k())));
        assert!(mmu.lookup(a).is_none());
    }
}
