//! Simulation configuration tying together MMU, cache hierarchy and timing.

use crate::jitter::JitterConfig;
use crate::numa::{NumaConfig, NumaPolicy};
use crate::topology::Topology;
use tlbmap_cache::HierarchyConfig;
use tlbmap_mem::{FrameAlloc, MmuConfig, PageGeometry};

/// Everything the engine needs besides the traces and the mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Page geometry shared by page table, TLBs and detectors.
    pub geometry: PageGeometry,
    /// Per-core MMU/TLB configuration.
    pub mmu: MmuConfig,
    /// Cache hierarchy configuration (groups must match the topology).
    pub hierarchy: HierarchyConfig,
    /// Fire [`crate::SimHooks::on_tick`] every this many cycles (`None`
    /// disables ticks). The paper's HM mechanism uses 10,000,000.
    pub tick_period: Option<u64>,
    /// Cost in cycles for one barrier synchronization.
    pub barrier_cost: u64,
    /// Cycles charged per thread migrated by [`crate::SimHooks::on_barrier`]
    /// (context switch + cold-start, on top of the natural TLB refill).
    pub migration_cost: u64,
    /// Compute-time jitter; `None` for fully deterministic runs.
    pub jitter: Option<JitterConfig>,
    /// NUMA page placement; `None` models the paper's UMA Harpertown.
    /// Takes effect when the hierarchy's `numa_remote_penalty` is nonzero.
    pub numa: Option<NumaConfig>,
    /// Physical-frame allocation policy; always first touch. The field
    /// exists only because the benchmark harness (`perfbench/`) reads it,
    /// and goes with that harness's next change.
    pub frame_alloc: FrameAlloc,
    /// Clock frequency in Hz, used only to convert cycles to seconds for
    /// Table IV-style "per second" reporting (2 GHz Xeon E5405).
    pub frequency_hz: u64,
}

impl SimConfig {
    fn paper_base(topo: &Topology, mmu: MmuConfig, tick_period: Option<u64>) -> Self {
        let mut hierarchy = HierarchyConfig::paper_harpertown();
        hierarchy.groups = topo.l2_groups();
        SimConfig {
            geometry: PageGeometry::new_4k(),
            mmu,
            hierarchy,
            tick_period,
            barrier_cost: 500,
            migration_cost: 3_000,
            jitter: None,
            numa: None,
            frame_alloc: FrameAlloc::FirstTouch,
            frequency_hz: 2_000_000_000,
        }
    }

    /// The paper's software-managed configuration: 64-entry 4-way TLB,
    /// SPARC-style miss traps, no periodic tick.
    pub fn paper_software_managed(topo: &Topology) -> Self {
        Self::paper_base(topo, MmuConfig::paper_software_managed(), None)
    }

    /// The paper's hardware-managed configuration: same TLB, hardware page
    /// walks, periodic tick every 10 M cycles for the HM detector.
    pub fn paper_hardware_managed(topo: &Topology) -> Self {
        Self::paper_base(topo, MmuConfig::paper_hardware_managed(), Some(10_000_000))
    }

    /// Enable jitter with the given seed (builder style).
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter = Some(JitterConfig::with_seed(seed));
        self
    }

    /// Override the tick period (builder style).
    pub fn with_tick_period(mut self, period: Option<u64>) -> Self {
        self.tick_period = period;
        self
    }

    /// Enable NUMA with the given placement policy and remote-fetch
    /// penalty (builder style).
    pub fn with_numa(mut self, policy: NumaPolicy, remote_penalty: u64) -> Self {
        self.numa = Some(NumaConfig { policy });
        self.hierarchy.numa_remote_penalty = remote_penalty;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbmap_mem::TlbMode;

    #[test]
    fn sm_config_has_trap_and_no_tick() {
        let c = SimConfig::paper_software_managed(&Topology::harpertown());
        assert_eq!(c.mmu.mode, TlbMode::SoftwareManaged);
        assert_eq!(c.tick_period, None);
        assert_eq!(c.hierarchy.num_cores(), 8);
    }

    #[test]
    fn hm_config_ticks_every_10m_cycles() {
        let c = SimConfig::paper_hardware_managed(&Topology::harpertown());
        assert_eq!(c.mmu.mode, TlbMode::HardwareManaged);
        assert_eq!(c.tick_period, Some(10_000_000));
    }

    #[test]
    fn builders() {
        let c = SimConfig::paper_software_managed(&Topology::harpertown())
            .with_jitter(9)
            .with_tick_period(Some(5));
        assert_eq!(c.jitter.unwrap().seed, 9);
        assert_eq!(c.tick_period, Some(5));
    }

    #[test]
    fn groups_follow_custom_topology() {
        let topo = Topology::new(1, 2, 4);
        let c = SimConfig::paper_software_managed(&topo);
        assert_eq!(c.hierarchy.num_cores(), 8);
        assert_eq!(c.hierarchy.num_l2(), 2);
        c.hierarchy.validate();
    }
}
