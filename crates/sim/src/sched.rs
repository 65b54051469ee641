//! The engine's run queue: a binary min-heap over runnable threads,
//! keyed by their core clock.
//!
//! The engine repeatedly needs two things: the running thread with the
//! smallest core clock (to execute next) and the second-smallest running
//! clock (the batch `limit` — the chosen thread may run ahead until its
//! clock passes it). A linear scan makes both O(T) per batch; since a
//! batch is often a single trace event, the scan dominated the engine's
//! scheduling cost. The heap gives peek-min and second-min in O(1) and
//! repositioning after a batch in O(log T).
//!
//! The engine's access pattern lets the heap stay lean: the thread it
//! advances or retires is *always* the current minimum (it only executes
//! the peeked thread), and new threads are pushed only at start-up and
//! barrier release. So the mutating hot-path operations are root-only —
//! [`RunQueue::advance_min`] and [`RunQueue::pop_min`] — and need a single
//! hole-based sift-down with no thread→slot index to maintain.
//!
//! Ordering is lexicographic on `(clock, thread)`, which reproduces the
//! scan's tie-break exactly: among equal clocks the lowest thread id runs
//! first, so the heap-driven engine is event-for-event identical to the
//! scan-driven one. Each entry packs that pair into one `u64` key,
//! `clock << 16 | thread`, whose integer order is the pair's order, so a
//! sift step compares single words. Keys hold threads below 2^16 and
//! clocks below [`CLOCK_LIMIT`]; reaching either limit panics rather than
//! wrapping into a wrong order.

/// Key bits below the clock, holding the thread id.
const THREAD_BITS: u32 = 16;
const THREAD_MASK: u64 = (1 << THREAD_BITS) - 1;

/// Exclusive upper bound of a queued core clock: 2^48 cycles, about 33
/// hours of simulated time at the paper's 2.33 GHz.
const CLOCK_LIMIT: u64 = 1 << (u64::BITS - THREAD_BITS);

/// The packed `(clock, thread)` key.
///
/// # Panics
/// Panics if `clock` reaches [`CLOCK_LIMIT`].
#[inline]
fn key(thread: usize, clock: u64) -> u64 {
    assert!(
        clock < CLOCK_LIMIT,
        "core clock {clock} reached the run-queue clock limit 2^48"
    );
    (clock << THREAD_BITS) | thread as u64
}

/// A binary min-heap of packed `(clock, thread)` keys with root-only
/// mutation.
#[derive(Debug, Clone)]
pub(crate) struct RunQueue {
    /// Binary heap of keys (see [`key`]).
    heap: Vec<u64>,
}

impl RunQueue {
    /// An empty queue able to hold `n_threads` threads.
    ///
    /// # Panics
    /// Panics if `n_threads` exceeds 2^16, the thread ids a key can hold.
    pub fn new(n_threads: usize) -> Self {
        assert!(
            n_threads as u64 <= THREAD_MASK + 1,
            "run queue keys hold at most 2^16 threads, got {n_threads}"
        );
        RunQueue {
            heap: Vec::with_capacity(n_threads),
        }
    }

    /// Whether any thread is queued.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enqueue `thread` at `clock` (start-up and barrier release only —
    /// not a hot-path operation).
    ///
    /// # Panics
    /// Panics if `clock` reaches [`CLOCK_LIMIT`].
    pub fn push(&mut self, thread: usize, clock: u64) {
        debug_assert!(
            !self.heap.iter().any(|&k| k & THREAD_MASK == thread as u64),
            "thread {thread} queued twice"
        );
        let mut i = self.heap.len();
        let entry = key(thread, clock);
        self.heap.push(entry);
        // Hole-based sift-up: shift displaced parents down, write once.
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= entry {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    /// The queued thread with the smallest `(clock, thread)` key.
    #[inline]
    pub fn peek(&self) -> Option<(usize, u64)> {
        self.heap
            .first()
            .map(|&k| ((k & THREAD_MASK) as usize, k >> THREAD_BITS))
    }

    /// The smallest clock among queued threads *other than* the minimum —
    /// the engine's batch limit. `u64::MAX` when fewer than two threads are
    /// queued. In a binary min-heap the second-smallest key is one of the
    /// root's children, and every child clock bounds it from above, so the
    /// smaller child clock is exact.
    #[inline]
    pub fn second_min_clock(&self) -> u64 {
        match self.heap.len() {
            0 | 1 => u64::MAX,
            2 => self.heap[1] >> THREAD_BITS,
            _ => self.heap[1].min(self.heap[2]) >> THREAD_BITS,
        }
    }

    /// Reposition the minimum thread after its clock advanced (its key can
    /// only grow, so a single sift-down restores the heap).
    ///
    /// # Panics
    /// Panics if `clock` reaches [`CLOCK_LIMIT`]; panics (debug) if the
    /// queue is empty or the clock went backwards.
    #[inline]
    pub fn advance_min(&mut self, clock: u64) {
        debug_assert!(!self.heap.is_empty(), "advance_min on empty queue");
        debug_assert!(self.heap[0] >> THREAD_BITS <= clock, "clock went backwards");
        self.heap[0] = key((self.heap[0] & THREAD_MASK) as usize, clock);
        self.sift_down_root();
    }

    /// Remove the minimum thread (it blocked at a barrier or finished).
    ///
    /// # Panics
    /// Panics (debug) if the queue is empty.
    #[inline]
    pub fn pop_min(&mut self) {
        debug_assert!(!self.heap.is_empty(), "pop_min on empty queue");
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down_root();
        }
    }

    /// Restore the heap property downward from the root. Hole-based: the
    /// moving entry is held in a register while smaller children shift up
    /// into the hole, so each step writes one slot instead of swapping two.
    /// The smaller child is picked by arithmetic on the comparison rather
    /// than a branch, which would mispredict about every other step.
    #[inline]
    fn sift_down_root(&mut self) {
        let len = self.heap.len();
        let entry = self.heap[0];
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = self.heap.get(left + 1).copied().unwrap_or(u64::MAX);
            let smallest = left + usize::from(right < self.heap[left]);
            if entry <= self.heap[smallest] {
                break;
            }
            self.heap[i] = self.heap[smallest];
            i = smallest;
        }
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Reference: the engine's original linear scan over running threads.
    fn scan(clocks: &[Option<u64>]) -> (Option<usize>, u64) {
        let mut current: Option<usize> = None;
        let mut limit = u64::MAX;
        for (t, c) in clocks.iter().enumerate() {
            let c = match c {
                Some(c) => *c,
                None => continue,
            };
            match current {
                None => current = Some(t),
                Some(cur) => {
                    let cur_c = clocks[cur].unwrap();
                    if c < cur_c {
                        limit = cur_c;
                        current = Some(t);
                    } else if c < limit {
                        limit = c;
                    }
                }
            }
        }
        (current, limit)
    }

    #[test]
    fn empty_queue() {
        let q = RunQueue::new(4);
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        assert_eq!(q.second_min_clock(), u64::MAX);
    }

    #[test]
    fn single_thread_has_no_limit() {
        let mut q = RunQueue::new(4);
        q.push(2, 100);
        assert_eq!(q.peek(), Some((2, 100)));
        assert_eq!(q.second_min_clock(), u64::MAX);
    }

    #[test]
    fn min_and_second_min() {
        let mut q = RunQueue::new(4);
        q.push(0, 30);
        q.push(1, 10);
        q.push(2, 20);
        q.push(3, 40);
        assert_eq!(q.peek(), Some((1, 10)));
        assert_eq!(q.second_min_clock(), 20);
    }

    #[test]
    fn equal_clocks_pick_lowest_thread_and_limit_equals_min() {
        let mut q = RunQueue::new(3);
        q.push(2, 50);
        q.push(0, 50);
        q.push(1, 50);
        // Ties: lowest thread id first, and the limit is the shared clock.
        assert_eq!(q.peek(), Some((0, 50)));
        assert_eq!(q.second_min_clock(), 50);
    }

    #[test]
    fn advance_min_moves_thread_back() {
        let mut q = RunQueue::new(3);
        q.push(0, 10);
        q.push(1, 20);
        q.push(2, 30);
        q.advance_min(25); // thread 0: 10 → 25
        assert_eq!(q.peek(), Some((1, 20)));
        assert_eq!(q.second_min_clock(), 25);
        q.advance_min(100); // thread 1: 20 → 100
        assert_eq!(q.peek(), Some((0, 25)));
        assert_eq!(q.second_min_clock(), 30);
    }

    #[test]
    fn pop_min_retires_the_front() {
        let mut q = RunQueue::new(5);
        for (t, c) in [(0, 50), (1, 10), (2, 40), (3, 20), (4, 30)] {
            q.push(t, c);
        }
        q.pop_min(); // thread 1 at 10
        assert_eq!(q.peek(), Some((3, 20)));
        q.pop_min(); // thread 3 at 20
        assert_eq!(q.peek(), Some((4, 30)));
        assert_eq!(q.second_min_clock(), 40);
        q.pop_min();
        q.pop_min();
        q.pop_min();
        assert!(q.is_empty());
    }

    #[test]
    fn matches_linear_scan_on_random_traffic() {
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        for round in 0..200 {
            // Up to 256 threads; every other round runs within a few cycles
            // of the clock limit, where the packed key's top bits are set.
            let n = rng.gen_range(1usize..=256);
            let base = if round % 2 == 0 { 0 } else { CLOCK_LIMIT - 80 };
            let mut clocks: Vec<Option<u64>> = vec![None; n];
            let mut q = RunQueue::new(n);
            for _ in 0..300 {
                // Random op, mirroring the engine: advance or retire the
                // *minimum* thread, or push an absent one.
                let (min_t, _) = scan(&clocks);
                let push_absent = clocks.iter().any(|c| c.is_none())
                    && (min_t.is_none() || rng.gen_range(0u32..4) == 0);
                if push_absent {
                    let t = loop {
                        let t = rng.gen_range(0usize..n);
                        if clocks[t].is_none() {
                            break t;
                        }
                    };
                    let c = base + rng.gen_range(0u64..50);
                    clocks[t] = Some(c);
                    q.push(t, c);
                } else if let Some(t) = min_t {
                    if rng.gen_range(0u32..4) == 0 {
                        clocks[t] = None;
                        q.pop_min();
                    } else {
                        let c = (clocks[t].unwrap() + rng.gen_range(0u64..20)).min(CLOCK_LIMIT - 1);
                        clocks[t] = Some(c);
                        q.advance_min(c);
                    }
                }
                let (want_t, want_limit) = scan(&clocks);
                assert_eq!(q.peek().map(|(t, _)| t), want_t);
                assert_eq!(q.peek().map(|(_, c)| c), want_t.and_then(|t| clocks[t]));
                if want_t.is_some() {
                    assert_eq!(q.second_min_clock(), want_limit);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "run-queue clock limit 2^48")]
    fn clock_at_the_limit_panics() {
        let mut q = RunQueue::new(2);
        q.push(0, CLOCK_LIMIT - 1);
        q.push(1, CLOCK_LIMIT - 1);
        q.advance_min(CLOCK_LIMIT);
    }
}
