//! Per-thread trace events consumed by the engine.
//!
//! Workload kernels (crate `tlbmap-workloads`) execute their computation in
//! plain Rust and record what each thread *did to memory* as a sequence of
//! these events. Barriers mark the phase structure (OpenMP parallel regions
//! in the original benchmarks) so the engine interleaves threads faithfully.
//!
//! Storage is packed: a [`ThreadTrace`] holds one 8-byte word per event
//! ([`PackedEvent`]) instead of the 24-byte [`TraceEvent`] enum, so the
//! engine's batch loop streams a third of the memory. [`TraceEvent`] remains
//! the logical event type — builders push it and consumers iterate it; the
//! packing is invisible outside this module.
//!
//! # Packed layout
//!
//! The low two bits of the word select the event:
//!
//! | bits\[1:0\] | event                  | payload                      |
//! |-------------|------------------------|------------------------------|
//! | `00`        | data read              | vaddr in bits\[63:2\]        |
//! | `01`        | data write             | vaddr in bits\[63:2\]        |
//! | `10`        | instruction fetch      | vaddr in bits\[63:2\]        |
//! | `11`        | escape: bit\[2\] clear | compute, cycles bits\[63:3\] |
//! | `11`        | escape: bit\[2\] set   | barrier (word == `0b111`)    |
//!
//! Accesses are by far the most common event, so they get the three cheap
//! tags; compute deltas and barriers share the escape tag. The payload
//! widths (62-bit addresses, 61-bit cycle deltas) are far beyond what the
//! simulated machines address; [`PackedEvent::pack`] asserts them.

use tlbmap_cache::{AccessKind, MemOp};
use tlbmap_mem::VirtAddr;

/// One event in a thread's trace (the logical, unpacked view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A memory access.
    Access {
        /// Virtual address touched.
        vaddr: VirtAddr,
        /// Load or store.
        op: MemOp,
        /// Data access or instruction fetch.
        kind: AccessKind,
    },
    /// `cycles` of pure computation (no memory traffic modelled).
    Compute(u64),
    /// A global barrier: every live thread must arrive before any proceeds.
    Barrier,
}

impl TraceEvent {
    /// Shorthand for a data load.
    pub fn read(vaddr: VirtAddr) -> Self {
        TraceEvent::Access {
            vaddr,
            op: MemOp::Read,
            kind: AccessKind::Data,
        }
    }

    /// Shorthand for a data store.
    pub fn write(vaddr: VirtAddr) -> Self {
        TraceEvent::Access {
            vaddr,
            op: MemOp::Write,
            kind: AccessKind::Data,
        }
    }

    /// Shorthand for an instruction fetch.
    pub fn fetch(vaddr: VirtAddr) -> Self {
        TraceEvent::Access {
            vaddr,
            op: MemOp::Read,
            kind: AccessKind::Instr,
        }
    }
}

const TAG_MASK: u64 = 0b11;
const TAG_READ: u64 = 0b00;
const TAG_WRITE: u64 = 0b01;
const TAG_FETCH: u64 = 0b10;
const TAG_ESCAPE: u64 = 0b11;
const ESCAPE_BARRIER_BIT: u64 = 0b100;
const BARRIER_WORD: u64 = TAG_ESCAPE | ESCAPE_BARRIER_BIT;

/// Maximum encodable virtual address (62 payload bits).
pub const MAX_VADDR: u64 = (1 << 62) - 1;
/// Maximum encodable compute delta (61 payload bits).
pub const MAX_COMPUTE: u64 = (1 << 61) - 1;

/// One trace event packed into 8 bytes (see the module docs for layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct PackedEvent(u64);

impl PackedEvent {
    /// Pack a logical event.
    ///
    /// # Panics
    /// Panics if an access address exceeds [`MAX_VADDR`] or a compute delta
    /// exceeds [`MAX_COMPUTE`] — both far beyond any simulated machine.
    #[inline]
    pub fn pack(e: TraceEvent) -> Self {
        match e {
            TraceEvent::Access { vaddr, op, kind } => {
                assert!(vaddr.0 <= MAX_VADDR, "vaddr {:#x} unencodable", vaddr.0);
                let tag = match (kind, op) {
                    (AccessKind::Instr, _) => TAG_FETCH,
                    (AccessKind::Data, MemOp::Write) => TAG_WRITE,
                    (AccessKind::Data, MemOp::Read) => TAG_READ,
                };
                PackedEvent((vaddr.0 << 2) | tag)
            }
            TraceEvent::Compute(cycles) => {
                assert!(cycles <= MAX_COMPUTE, "compute delta {cycles} unencodable");
                PackedEvent((cycles << 3) | TAG_ESCAPE)
            }
            TraceEvent::Barrier => PackedEvent(BARRIER_WORD),
        }
    }

    /// Unpack to the logical event.
    #[inline(always)]
    pub fn unpack(self) -> TraceEvent {
        let w = self.0;
        match w & TAG_MASK {
            TAG_ESCAPE => {
                if w & ESCAPE_BARRIER_BIT == 0 {
                    TraceEvent::Compute(w >> 3)
                } else {
                    TraceEvent::Barrier
                }
            }
            tag => TraceEvent::Access {
                vaddr: VirtAddr(w >> 2),
                op: if tag == TAG_WRITE {
                    MemOp::Write
                } else {
                    MemOp::Read
                },
                kind: if tag == TAG_FETCH {
                    AccessKind::Instr
                } else {
                    AccessKind::Data
                },
            },
        }
    }
}

// The whole point: one word per event.
const _: () = assert!(std::mem::size_of::<PackedEvent>() == 8);

/// The whole trace of one thread, stored packed (8 bytes per event).
///
/// Build it by [`push`](ThreadTrace::push)ing [`TraceEvent`]s (or collect /
/// convert from a `Vec<TraceEvent>`); read it back with
/// [`iter`](ThreadTrace::iter) or [`get`](ThreadTrace::get), which yield
/// decoded events by value. The engine streams the raw words via
/// [`words`](ThreadTrace::words).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    words: Vec<PackedEvent>,
    /// Barrier events in `words`, kept by every method that adds events.
    barriers: usize,
}

impl ThreadTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ThreadTrace::default()
    }

    /// An empty trace with room for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        ThreadTrace {
            words: Vec::with_capacity(n),
            barriers: 0,
        }
    }

    /// Append an event.
    #[inline]
    pub fn push(&mut self, e: TraceEvent) {
        self.barriers += usize::from(e == TraceEvent::Barrier);
        self.words.push(PackedEvent::pack(e));
    }

    /// Insert an event at `index`, shifting everything after it.
    pub fn insert(&mut self, index: usize, e: TraceEvent) {
        self.barriers += usize::from(e == TraceEvent::Barrier);
        self.words.insert(index, PackedEvent::pack(e));
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the trace has no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The event at `index`, decoded.
    #[inline]
    pub fn get(&self, index: usize) -> Option<TraceEvent> {
        self.words.get(index).map(|w| w.unpack())
    }

    /// Iterate the events, decoded by value.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.words.iter().map(|w| w.unpack())
    }

    /// The raw packed words (the engine's view).
    #[inline]
    pub fn words(&self) -> &[PackedEvent] {
        &self.words
    }
}

impl From<Vec<TraceEvent>> for ThreadTrace {
    fn from(events: Vec<TraceEvent>) -> Self {
        events.into_iter().collect()
    }
}

impl FromIterator<TraceEvent> for ThreadTrace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut trace = ThreadTrace::with_capacity(iter.size_hint().0);
        for e in iter {
            trace.push(e);
        }
        trace
    }
}

impl<'a> IntoIterator for &'a ThreadTrace {
    type Item = TraceEvent;
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, PackedEvent>, fn(&PackedEvent) -> TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.iter().map(|w| w.unpack())
    }
}

/// Count the barriers in a trace (phases = barriers + 1). O(1): the trace
/// keeps the count as events are added.
pub fn barrier_count(trace: &ThreadTrace) -> usize {
    trace.barriers
}

/// Check that every thread has the same number of barriers — a malformed
/// workload would deadlock a real barrier implementation; the engine
/// requires this instead. O(threads).
pub fn barriers_consistent(traces: &[ThreadTrace]) -> bool {
    let mut counts = traces.iter().map(barrier_count);
    match counts.next() {
        None => true,
        Some(first) => counts.all(|c| c == first),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorthands() {
        let r = TraceEvent::read(VirtAddr(8));
        assert!(matches!(
            r,
            TraceEvent::Access {
                op: MemOp::Read,
                kind: AccessKind::Data,
                ..
            }
        ));
        let w = TraceEvent::write(VirtAddr(8));
        assert!(matches!(
            w,
            TraceEvent::Access {
                op: MemOp::Write,
                ..
            }
        ));
        let f = TraceEvent::fetch(VirtAddr(8));
        assert!(matches!(
            f,
            TraceEvent::Access {
                kind: AccessKind::Instr,
                ..
            }
        ));
    }

    #[test]
    fn pack_round_trips_every_event_shape() {
        let samples = [
            TraceEvent::read(VirtAddr(0)),
            TraceEvent::read(VirtAddr(0xdead_beef)),
            TraceEvent::read(VirtAddr(MAX_VADDR)),
            TraceEvent::write(VirtAddr(4096)),
            TraceEvent::write(VirtAddr(MAX_VADDR)),
            TraceEvent::fetch(VirtAddr(64)),
            TraceEvent::fetch(VirtAddr(MAX_VADDR)),
            TraceEvent::Compute(0),
            TraceEvent::Compute(1),
            TraceEvent::Compute(MAX_COMPUTE),
            TraceEvent::Barrier,
        ];
        for e in samples {
            assert_eq!(PackedEvent::pack(e).unpack(), e, "{e:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unencodable")]
    fn oversized_vaddr_rejected() {
        PackedEvent::pack(TraceEvent::read(VirtAddr(MAX_VADDR + 1)));
    }

    #[test]
    #[should_panic(expected = "unencodable")]
    fn oversized_compute_rejected() {
        PackedEvent::pack(TraceEvent::Compute(MAX_COMPUTE + 1));
    }

    #[test]
    fn trace_collects_and_iterates() {
        let events = vec![
            TraceEvent::read(VirtAddr(4096)),
            TraceEvent::Compute(17),
            TraceEvent::Barrier,
            TraceEvent::write(VirtAddr(8192)),
        ];
        let t = ThreadTrace::from(events.clone());
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
        assert_eq!(t.get(1), Some(TraceEvent::Compute(17)));
        assert_eq!(t.get(4), None);
        // &trace iterates decoded events too.
        let again: Vec<TraceEvent> = (&t).into_iter().collect();
        assert_eq!(again, events);
        // insert shifts.
        let mut t2 = t.clone();
        t2.insert(0, TraceEvent::Compute(1));
        assert_eq!(t2.get(0), Some(TraceEvent::Compute(1)));
        assert_eq!(t2.get(1), Some(TraceEvent::read(VirtAddr(4096))));
        assert_eq!(t2.len(), 5);
    }

    #[test]
    fn barrier_counting() {
        let t: ThreadTrace = vec![
            TraceEvent::read(VirtAddr(0)),
            TraceEvent::Barrier,
            TraceEvent::Compute(5),
            TraceEvent::Barrier,
        ]
        .into();
        assert_eq!(barrier_count(&t), 2);
    }

    #[test]
    fn barrier_count_follows_every_way_of_adding_events() {
        let decoded = |t: &ThreadTrace| t.iter().filter(|&e| e == TraceEvent::Barrier).count();
        let events = [
            TraceEvent::Barrier,
            TraceEvent::read(VirtAddr(64)),
            TraceEvent::Barrier,
            TraceEvent::Compute(3),
        ];
        let collected: ThreadTrace = events.iter().copied().collect();
        let mut pushed = ThreadTrace::with_capacity(4);
        for e in events {
            pushed.push(e);
        }
        assert_eq!(pushed, collected);
        let mut t = collected;
        assert_eq!(barrier_count(&t), 2);
        t.insert(1, TraceEvent::Barrier);
        t.insert(0, TraceEvent::write(VirtAddr(8)));
        t.insert(t.len(), TraceEvent::Barrier);
        assert_eq!(barrier_count(&t), 4);
        assert_eq!(barrier_count(&t), decoded(&t));
        assert_eq!(barrier_count(&ThreadTrace::new()), 0);
        let c: ThreadTrace = vec![TraceEvent::Barrier; 4].into();
        assert!(barriers_consistent(&[t, c]));
    }

    #[test]
    fn consistency_check() {
        let a: ThreadTrace = vec![TraceEvent::Barrier, TraceEvent::Barrier].into();
        let b: ThreadTrace = vec![
            TraceEvent::read(VirtAddr(0)),
            TraceEvent::Barrier,
            TraceEvent::Barrier,
        ]
        .into();
        let c: ThreadTrace = vec![TraceEvent::Barrier].into();
        assert!(barriers_consistent(&[a.clone(), b.clone()]));
        assert!(!barriers_consistent(&[a, c]));
        assert!(barriers_consistent(&[]));
    }
}
