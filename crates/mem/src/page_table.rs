//! A two-level page table with on-demand physical frame allocation.
//!
//! The simulator does not store page *contents* — workload kernels compute on
//! their own Rust data — so the page table's job is purely to provide a
//! stable, deterministic virtual→physical mapping plus a *walk cost* in
//! memory accesses, which the MMU converts into cycles.
//!
//! Frames are handed out by a bump allocator in first-touch order. This keeps
//! runs reproducible: the same trace always produces the same physical
//! layout, so cache-index conflicts are stable across repetitions.

use crate::addr::{PageGeometry, Pfn, Vpn};
use std::collections::HashMap;

/// Bijective frame-number scramble (the splitmix64 finalizer — every step
/// is invertible, so distinct counters yield distinct frames). A *linear*
/// scramble would not do: multiplying an arithmetic progression of
/// counters (stride = thread count under interleaved first touch) by any
/// constant yields another arithmetic progression, which still collapses
/// onto few cache colors. The xor-shift rounds break that structure and
/// make colors near-uniform.
#[inline]
fn scramble_frame(counter: u64) -> u64 {
    let mut z = counter;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of levels the modelled page table has. Each level costs one memory
/// access during a walk, mirroring a two-level SPARC-style or classic x86
/// table.
pub const WALK_LEVELS: u32 = 2;

/// Result of a page-table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The frame the page maps to.
    pub pfn: Pfn,
    /// Number of memory accesses the walk performed (== [`WALK_LEVELS`] for
    /// a hit in the table, plus one extra when a frame had to be allocated,
    /// modelling the OS minor-fault path).
    pub memory_accesses: u32,
    /// Whether the walk allocated the frame (first touch).
    pub allocated: bool,
}

/// How physical frames are assigned to virtual pages. First touch is the
/// only policy; the type exists only because the benchmark harness
/// (`perfbench/`) builds its page table through
/// [`PageTable::with_alloc`], and goes with that harness's next change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameAlloc {
    /// Bump counter in first-touch order, scrambled for color diversity.
    /// The frame a page gets depends on *when* it was first touched
    /// relative to every other page.
    FirstTouch,
}

/// A process-wide page table shared by every core running that process.
#[derive(Debug, Clone)]
pub struct PageTable {
    geo: PageGeometry,
    map: HashMap<Vpn, Pfn>,
    next_frame: u64,
}

impl PageTable {
    /// Create an empty page table with first-touch frame allocation.
    pub fn new(geo: PageGeometry) -> Self {
        PageTable {
            geo,
            map: HashMap::new(),
            next_frame: 0,
        }
    }

    /// [`PageTable::new`]; exists only for the benchmark harness
    /// (`perfbench/`) and goes with that harness's next change.
    pub fn with_alloc(geo: PageGeometry, _alloc: FrameAlloc) -> Self {
        Self::new(geo)
    }

    /// The geometry this table was built for.
    pub fn geometry(&self) -> PageGeometry {
        self.geo
    }

    /// Translate `vpn`, allocating a frame on first touch.
    pub fn walk(&mut self, vpn: Vpn) -> WalkResult {
        if let Some(&pfn) = self.map.get(&vpn) {
            WalkResult {
                pfn,
                memory_accesses: WALK_LEVELS,
                allocated: false,
            }
        } else {
            let pfn = Pfn(scramble_frame(self.next_frame));
            self.next_frame += 1;
            self.map.insert(vpn, pfn);
            WalkResult {
                pfn,
                memory_accesses: WALK_LEVELS + 1,
                allocated: true,
            }
        }
    }

    /// Translate without allocating. Returns `None` for untouched pages.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pfn> {
        self.map.get(&vpn).copied()
    }

    /// Number of pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Resident set size in bytes implied by the mapped pages.
    pub fn resident_bytes(&self) -> u64 {
        self.map.len() as u64 * self.geo.page_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;

    #[test]
    fn first_touch_allocates_sequential_frames() {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let r0 = pt.walk(Vpn(100));
        let r1 = pt.walk(Vpn(42));
        assert!(r0.allocated && r1.allocated);
        assert_ne!(r0.pfn, r1.pfn);
        assert_eq!(r0.memory_accesses, WALK_LEVELS + 1);
    }

    #[test]
    fn second_walk_is_stable_and_cheaper() {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let first = pt.walk(Vpn(7));
        let second = pt.walk(Vpn(7));
        assert_eq!(first.pfn, second.pfn);
        assert!(!second.allocated);
        assert_eq!(second.memory_accesses, WALK_LEVELS);
    }

    #[test]
    fn lookup_does_not_allocate() {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        assert_eq!(pt.lookup(Vpn(3)), None);
        assert_eq!(pt.mapped_pages(), 0);
        let pfn = pt.walk(Vpn(3)).pfn;
        assert_eq!(pt.lookup(Vpn(3)), Some(pfn));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn resident_bytes_counts_pages() {
        let geo = PageGeometry::new_4k();
        let mut pt = PageTable::new(geo);
        for i in 0..5 {
            pt.walk(VirtAddr(i * geo.page_size()).vpn(geo));
        }
        assert_eq!(pt.resident_bytes(), 5 * 4096);
    }

    #[test]
    fn frame_colors_are_diverse_under_strided_allocation() {
        // Simulate 32 threads' interleaved first touches: the i-th
        // allocation belongs to thread i % 32. Each thread's frames must
        // spread over many cache colors (192 = a 6 MiB 8-way 64 B cache),
        // not collapse onto colors/32.
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let mut colors_of_thread0 = std::collections::HashSet::new();
        for i in 0..(32 * 64) {
            let r = pt.walk(Vpn(1000 + i));
            if i % 32 == 0 {
                colors_of_thread0.insert(r.pfn.0 % 192);
            }
        }
        assert!(
            colors_of_thread0.len() > 30,
            "only {} colors for one thread's 64 pages",
            colors_of_thread0.len()
        );
    }

    #[test]
    fn distinct_vpns_get_distinct_frames() {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let a = pt.walk(Vpn(1)).pfn;
        let b = pt.walk(Vpn(2)).pfn;
        assert_ne!(a, b);
    }
}
