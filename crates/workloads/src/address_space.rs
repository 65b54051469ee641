//! Virtual address-space layout for workloads.
//!
//! A bump allocator hands out page-aligned arrays in a single shared
//! virtual address space — the layout every thread of the modelled process
//! sees. Keeping allocations page-aligned makes the ownership structure of
//! an array explicit at page granularity, which is exactly the granularity
//! the TLB detectors observe.

use tlbmap_mem::{PageGeometry, VirtAddr};

/// A page-aligned array of fixed-size elements in the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayHandle {
    /// First byte of the array (page-aligned).
    pub base: VirtAddr,
    /// Number of elements.
    pub len: u64,
    /// Element size in bytes.
    pub elem_size: u64,
}

impl ArrayHandle {
    /// Address of element `i`.
    ///
    /// # Panics
    /// Panics (debug) on out-of-bounds indices.
    #[inline]
    pub fn addr(&self, i: u64) -> VirtAddr {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        VirtAddr(self.base.0 + i * self.elem_size)
    }

    /// Bytes the array occupies.
    pub fn bytes(&self) -> u64 {
        self.len * self.elem_size
    }

    /// Number of pages the array spans under `geo`.
    pub fn pages(&self, geo: PageGeometry) -> u64 {
        self.bytes().div_ceil(geo.page_size())
    }
}

/// Bump allocator of page-aligned arrays.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    geo: PageGeometry,
    next: u64,
}

impl AddressSpace {
    /// A fresh address space starting at a non-zero base (so address 0 is
    /// never valid data — it catches uninitialized handles in tests).
    pub fn new(geo: PageGeometry) -> Self {
        AddressSpace {
            geo,
            next: geo.page_size(),
        }
    }

    /// The page geometry used for alignment.
    pub fn geometry(&self) -> PageGeometry {
        self.geo
    }

    /// Allocate `len` elements of `elem_size` bytes, page-aligned.
    ///
    /// # Panics
    /// Panics if `elem_size` is zero or does not divide the page size
    /// (elements must not straddle page boundaries for ownership to be
    /// page-exact).
    pub fn alloc(&mut self, len: u64, elem_size: u64) -> ArrayHandle {
        assert!(elem_size > 0, "element size must be positive");
        assert!(
            self.geo.page_size().is_multiple_of(elem_size),
            "element size {elem_size} must divide the page size {}",
            self.geo.page_size()
        );
        let base = VirtAddr(self.next);
        let bytes = len * elem_size;
        let pages = bytes.div_ceil(self.geo.page_size()).max(1);
        self.next += pages * self.geo.page_size();
        ArrayHandle {
            base,
            len,
            elem_size,
        }
    }

    /// Allocate an array of f64-sized elements.
    pub fn alloc_f64(&mut self, len: u64) -> ArrayHandle {
        self.alloc(len, 8)
    }

    /// Total bytes reserved so far.
    pub fn footprint(&self) -> u64 {
        self.next - self.geo.page_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let geo = PageGeometry::new_4k();
        let mut a = AddressSpace::new(geo);
        let x = a.alloc_f64(100); // < 1 page
        let y = a.alloc_f64(600); // > 1 page
        let z = a.alloc_f64(1);
        for h in [x, y, z] {
            assert_eq!(h.base.0 % 4096, 0, "unaligned base {:?}", h.base);
        }
        assert!(x.base.0 + 4096 <= y.base.0);
        assert_eq!(y.pages(geo), 2);
        assert!(y.base.0 + 2 * 4096 <= z.base.0);
    }

    #[test]
    fn element_addressing() {
        let mut a = AddressSpace::new(PageGeometry::new_4k());
        let h = a.alloc_f64(1000);
        assert_eq!(h.addr(0), h.base);
        // 512 eight-byte elements fill one 4 KiB page.
        assert_eq!(h.addr(512).0, h.base.0 + 4096);
    }

    #[test]
    fn footprint_accumulates() {
        let mut a = AddressSpace::new(PageGeometry::new_4k());
        a.alloc_f64(512); // exactly 1 page
        a.alloc_f64(513); // 2 pages
        assert_eq!(a.footprint(), 3 * 4096);
    }

    #[test]
    fn zero_base_never_allocated() {
        let mut a = AddressSpace::new(PageGeometry::new_4k());
        let h = a.alloc_f64(10);
        assert!(h.base.0 > 0);
    }

    #[test]
    #[should_panic(expected = "divide the page size")]
    fn straddling_elements_rejected() {
        AddressSpace::new(PageGeometry::new_4k()).alloc(10, 24);
    }
}
