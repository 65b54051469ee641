//! NUMA page placement — the extension the paper's conclusion predicts
//! gains from ("Expected performance improvements in NUMA architectures
//! are higher, because of larger differences in communication latencies").
//!
//! Each chip owns a memory node; every virtual page is *homed* on one node
//! by the placement policy, and memory fetches from another chip's node
//! pay `HierarchyConfig::numa_remote_penalty` extra cycles.
//!
//! * **First-touch** (Linux default): a page is homed on the chip of the
//!   core that first accesses it. Under a communication-aware mapping,
//!   threads that share pages sit on the same chip, so their shared pages
//!   are local to both — thread mapping *becomes* data mapping.
//! * **Interleave**: pages round-robin across nodes; placement-neutral,
//!   used as the policy baseline.

use tlbmap_mem::Vpn;

/// Page-to-node placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumaPolicy {
    /// Home each page on the chip that first touches it.
    FirstTouch,
    /// Round-robin pages across chips by VPN.
    Interleave,
}

/// NUMA model configuration (the penalty itself lives in
/// [`tlbmap_cache::HierarchyConfig::numa_remote_penalty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaConfig {
    /// Placement policy.
    pub policy: NumaPolicy,
}

/// Tracks the home chip of every touched page during a run.
#[derive(Debug, Clone)]
pub struct PageHomes {
    policy: NumaPolicy,
    chips: usize,
    /// First-touch homes by page index ([`tlbmap_mem::Translation::page`]).
    homes: Vec<usize>,
}

impl PageHomes {
    /// Empty tracker for a machine with `chips` chips.
    ///
    /// # Panics
    /// Panics for zero chips.
    pub fn new(policy: NumaPolicy, chips: usize) -> Self {
        assert!(chips > 0, "need at least one chip");
        PageHomes {
            policy,
            chips,
            homes: Vec::new(),
        }
    }

    /// Home chip of the page `vpn`, whose dense first-touch index is
    /// `page`, for an access by a core on `accessor_chip`, assigning it per
    /// policy on first touch. A page index not seen before must be the
    /// next one, as the page table hands them out.
    ///
    /// # Panics
    /// Panics under first touch if a new `page` skips an index.
    pub fn home_of(&mut self, page: u32, vpn: Vpn, accessor_chip: usize) -> usize {
        match self.policy {
            NumaPolicy::Interleave => (vpn.0 as usize) % self.chips,
            NumaPolicy::FirstTouch => {
                if let Some(&home) = self.homes.get(page as usize) {
                    return home;
                }
                assert_eq!(
                    page as usize,
                    self.homes.len(),
                    "page {page} skips an index"
                );
                self.homes.push(accessor_chip);
                accessor_chip
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_sticks() {
        let mut h = PageHomes::new(NumaPolicy::FirstTouch, 2);
        assert_eq!(h.home_of(0, Vpn(5), 1), 1);
        // Later touches from elsewhere do not migrate the page.
        assert_eq!(h.home_of(0, Vpn(5), 0), 1);
        assert_eq!(h.home_of(1, Vpn(9), 0), 0);
        assert_eq!(h.homes, [1, 0]);
    }

    #[test]
    fn interleave_round_robins() {
        let mut h = PageHomes::new(NumaPolicy::Interleave, 4);
        assert_eq!(h.home_of(0, Vpn(0), 3), 0);
        assert_eq!(h.home_of(1, Vpn(1), 3), 1);
        assert_eq!(h.home_of(2, Vpn(5), 0), 1);
        assert_eq!(h.home_of(3, Vpn(7), 0), 3);
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn zero_chips_rejected() {
        PageHomes::new(NumaPolicy::FirstTouch, 0);
    }
}
