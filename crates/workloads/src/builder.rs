//! Multi-thread trace construction with consistent barriers.

use crate::address_space::ArrayHandle;
use tlbmap_sim::{ThreadTrace, TraceEvent};

/// Builds one trace per thread, enforcing that barriers are emitted for
/// every thread at once (the engine rejects inconsistent barrier counts).
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    traces: Vec<ThreadTrace>,
}

impl WorkloadBuilder {
    /// Builder for `n_threads` threads.
    ///
    /// # Panics
    /// Panics for zero threads.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        WorkloadBuilder {
            traces: vec![ThreadTrace::new(); n_threads],
        }
    }

    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.traces.len()
    }

    /// Record a load of element `i` of `array` by `thread`.
    #[inline]
    pub fn read(&mut self, thread: usize, array: ArrayHandle, i: u64) {
        self.traces[thread].push(TraceEvent::read(array.addr(i)));
    }

    /// Record a store to element `i` of `array` by `thread`.
    #[inline]
    pub fn write(&mut self, thread: usize, array: ArrayHandle, i: u64) {
        self.traces[thread].push(TraceEvent::write(array.addr(i)));
    }

    /// Record `cycles` of pure computation on `thread`.
    #[inline]
    pub fn compute(&mut self, thread: usize, cycles: u64) {
        if cycles > 0 {
            self.traces[thread].push(TraceEvent::Compute(cycles));
        }
    }

    /// Emit a global barrier (for every thread).
    pub fn barrier(&mut self) {
        for t in &mut self.traces {
            t.push(TraceEvent::Barrier);
        }
    }

    /// Total events across all threads.
    pub fn total_events(&self) -> usize {
        self.traces.iter().map(|t| t.len()).sum()
    }

    /// Finish, returning the per-thread traces.
    pub fn build(self) -> Vec<ThreadTrace> {
        debug_assert!(tlbmap_sim::trace::barriers_consistent(&self.traces));
        self.traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_space::AddressSpace;
    use tlbmap_mem::PageGeometry;
    use tlbmap_sim::trace::{barrier_count, barriers_consistent};

    #[test]
    fn builds_consistent_barriers() {
        let mut b = WorkloadBuilder::new(3);
        let mut a = AddressSpace::new(PageGeometry::new_4k());
        let h = a.alloc_f64(100);
        b.read(0, h, 5);
        b.barrier();
        b.write(2, h, 7);
        b.barrier();
        let traces = b.build();
        assert!(barriers_consistent(&traces));
        assert_eq!(barrier_count(&traces[1]), 2);
        assert_eq!(traces[0].len(), 3);
    }

    #[test]
    fn compute_zero_is_elided() {
        let mut b = WorkloadBuilder::new(1);
        b.compute(0, 0);
        b.compute(0, 10);
        assert_eq!(b.total_events(), 1);
    }

    #[test]
    fn events_record_correct_addresses() {
        let mut b = WorkloadBuilder::new(1);
        let mut a = AddressSpace::new(PageGeometry::new_4k());
        let h = a.alloc_f64(600);
        b.write(0, h, 512);
        let traces = b.build();
        match traces[0].get(0).unwrap() {
            TraceEvent::Access { vaddr, .. } => assert_eq!(vaddr.0, h.base.0 + 4096),
            _ => panic!("expected access"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        WorkloadBuilder::new(0);
    }
}
