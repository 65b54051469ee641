//! A two-level page table with on-demand physical frame allocation.
//!
//! The simulator does not store page *contents* — workload kernels compute on
//! their own Rust data — so the page table's job is purely to provide a
//! stable, deterministic virtual→physical mapping plus a *walk cost* in
//! memory accesses, which the MMU converts into cycles.
//!
//! Frames are handed out by a bump allocator in first-touch order. This keeps
//! runs reproducible: the same trace always produces the same physical
//! layout, so cache-index conflicts are stable across repetitions. The bump
//! counter is also the page's dense *index* ([`WalkResult::page`]): the
//! TLBs carry it next to the frame, and the cache hierarchy numbers a line
//! by its page index and its place in the page, with no lookup of its own.

use crate::addr::{PageGeometry, Pfn, Vpn};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A multiplicative hasher for VPN keys: one multiply per key where SipHash
/// runs several rounds on every TLB miss. The rotate moves the product's
/// well-mixed high bits to where `HashMap` picks buckets, so strided VPNs
/// spread too. Nothing iterates the map, so its order reaches no output.
#[derive(Debug, Clone, Copy, Default)]
struct VpnHasher(u64);

impl Hasher for VpnHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }
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
    /// The page's index: how many pages were first touched before it.
    /// Dense from 0, and the frame is its scramble.
    pub page: u32,
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
    /// Each touched page's index; its frame is the index scrambled.
    map: HashMap<Vpn, u32, BuildHasherDefault<VpnHasher>>,
}

impl PageTable {
    /// Create an empty page table with first-touch frame allocation.
    pub fn new(geo: PageGeometry) -> Self {
        PageTable {
            geo,
            map: HashMap::default(),
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
    ///
    /// # Panics
    /// Panics when a page would get the index `u32::MAX`, which a TLB slot
    /// reserves for "empty".
    pub fn walk(&mut self, vpn: Vpn) -> WalkResult {
        let touched = self.map.len();
        let page = *self.map.entry(vpn).or_insert_with(|| {
            u32::try_from(touched)
                .ok()
                .filter(|&p| p != u32::MAX)
                .expect("page index space exhausted: 2^32 - 1 pages touched")
        });
        let allocated = self.map.len() > touched;
        WalkResult {
            pfn: Pfn(scramble_frame(u64::from(page))),
            page,
            memory_accesses: WALK_LEVELS + u32::from(allocated),
            allocated,
        }
    }

    /// Translate without allocating. Returns `None` for untouched pages.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pfn> {
        self.map
            .get(&vpn)
            .map(|&page| Pfn(scramble_frame(u64::from(page))))
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
        assert_eq!((r0.page, r1.page), (0, 1), "pages count first touches");
        assert_eq!(pt.walk(Vpn(100)).page, 0);
        assert_eq!(r1.pfn, Pfn(scramble_frame(1)));
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
        assert!(pt.map.is_empty());
        let pfn = pt.walk(Vpn(3)).pfn;
        assert_eq!(pt.lookup(Vpn(3)), Some(pfn));
        assert_eq!(pt.map.len(), 1);
    }

    #[test]
    fn addresses_within_a_page_map_it_once() {
        let geo = PageGeometry::new_4k();
        let mut pt = PageTable::new(geo);
        for i in 0..5 {
            for offset in [0, geo.page_size() - 1] {
                pt.walk(VirtAddr(i * geo.page_size() + offset).vpn(geo));
            }
        }
        assert_eq!(pt.map.len(), 5);
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
