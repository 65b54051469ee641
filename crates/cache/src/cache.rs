//! A generic set-associative cache of line metadata with LRU replacement.
//!
//! Only metadata is stored — line ids and MESI state — because the
//! simulator never needs line *contents* (workloads compute on native Rust
//! data). One structure serves both L1s (which ignore the MESI field beyond
//! valid/invalid) and the coherent L2s. Every operation names its line
//! twice: by [`LineAddr`], which picks the set, and by the dense `u32` id
//! the hierarchy's line table gave it, which is what a way stores.
//!
//! ## Packed, recency-ordered sets of 32-bit ids
//!
//! Every set is `ways` consecutive `u32` words in one flat `n_sets × ways`
//! array. A resident line is the word `id << 3 | VALID | mesi`; line ids
//! are below 2^29, so the word fits. An empty way is `0`, so the array is
//! one zeroed allocation, and when the allocator maps it fresh the pages of
//! sets a run never touches are never faulted in. The set index is
//! `line address % n_sets`, the same function of the same address as when
//! ways held addresses, so every set, victim and counter is unchanged; only
//! the tag is narrower: a set of the paper's 8-way L2 is 32 bytes, and the
//! array of one 6 MiB L2 is 384 KiB instead of 768 KiB.
//!
//! Each set keeps its most recently used word first and its empty ways at
//! the tail, which makes LRU a word's *position* rather than a stored
//! stamp:
//!
//! * `touch`, `touch_or_insert` and `insert` move the line to the front;
//! * `peek`, `set_state` and `replace_state` leave it where it is;
//! * the eviction victim is the last word of a full set;
//! * `remove` shifts the rest of the set left over the hole.
//!
//! Position order is the order per-line LRU stamps would give — stamps are
//! unique, monotone and only ever compared within one set — so every victim
//! is the one stamp-based LRU picks; the tests drive the cache against such
//! a reference model.
//!
//! ## Set indexing without a divide
//!
//! The paper's L2 has 12288 = 3 · 2^12 sets, and engine line addresses are
//! about 58 bits wide, so `addr % n_sets` would be a 64-bit hardware divide
//! on every L2 probe. `SetIndex` computes the quotient with a precomputed
//! reciprocal of the set count instead; power-of-two set counts take a
//! mask.

use crate::config::CacheConfig;
use crate::mesi::MesiState;

/// A cache-line-granular physical address (physical address >> line shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Line address of a byte-granular physical address.
    #[inline]
    pub fn of(paddr: u64, line_shift: u32) -> Self {
        LineAddr(paddr >> line_shift)
    }
}

/// A line pushed out of the cache by replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EvictedLine {
    /// The evicted line's id.
    pub id: u32,
    /// The state it was in (dirty ⇒ writeback needed).
    pub state: MesiState,
}

/// Set in every resident way word, so that an empty way is `0`.
const VALID: u32 = 0b100;

/// Width of a line id: a way word is `id << 3 | VALID | mesi` in a `u32`.
pub(crate) const ID_BITS: u32 = u32::BITS - 3;

/// `hot_id` when no line is memoised; never a line id.
const NO_LINE: u32 = u32::MAX;

#[inline]
fn encode_state(state: MesiState) -> u32 {
    match state {
        MesiState::Modified => 0,
        MesiState::Exclusive => 1,
        MesiState::Shared => 2,
        MesiState::Invalid => 3,
    }
}

#[inline]
fn decode_state(word: u32) -> MesiState {
    match word & 3 {
        0 => MesiState::Modified,
        1 => MesiState::Exclusive,
        2 => MesiState::Shared,
        _ => MesiState::Invalid,
    }
}

/// The way word of line `id` with its MESI bits cleared — what a resident
/// word of that line equals under `& !3`.
#[inline]
fn tag_of(id: u32) -> u32 {
    debug_assert!(id >> ID_BITS == 0, "line id {id} exceeds {ID_BITS} bits");
    (id << 3) | VALID
}

/// The set-index function `addr % n_sets` for a fixed set count, with no
/// hardware divide.
///
/// A power-of-two set count takes a mask. Any other count `d` takes the
/// quotient `addr / d` as a multiply-high by a precomputed reciprocal plus
/// two shifts (Granlund & Montgomery, "Division by Invariant Integers using
/// Multiplication", 1994, Fig. 4.1), exact for every 64-bit dividend, and
/// the remainder as `addr - q * d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SetIndex {
    n_sets: u64,
    /// `floor(2^64 · (2^l − n_sets) / n_sets) + 1` with
    /// `l = ceil(log2 n_sets)`; unused for a power of two.
    magic: u64,
    /// `l − 1`.
    post: u32,
}

impl SetIndex {
    fn new(n_sets: u64) -> Self {
        assert!(n_sets > 0, "cache must have at least one set");
        let l = u64::BITS - (n_sets - 1).leading_zeros();
        let d = u128::from(n_sets);
        SetIndex {
            n_sets,
            magic: ((((1u128 << l) - d) << 64) / d + 1) as u64,
            post: l.saturating_sub(1),
        }
    }

    /// `addr % n_sets`.
    #[inline]
    fn of(self, addr: u64) -> u64 {
        if self.n_sets & (self.n_sets - 1) == 0 {
            return addr & (self.n_sets - 1);
        }
        let t = ((u128::from(addr) * u128::from(self.magic)) >> 64) as u64;
        let q = (t + ((addr - t) >> 1)) >> self.post;
        addr - q * self.n_sets
    }
}

/// Set-associative cache of line metadata.
#[derive(Debug, Clone)]
pub(crate) struct Cache {
    config: CacheConfig,
    /// `words[set * ways ..][..ways]`: one set, most recent line first,
    /// empty (`0`) ways at the tail. See the module docs.
    words: Vec<u32>,
    sets: SetIndex,
    /// Id of the most recently used line ([`NO_LINE`] when unset), with its
    /// current state. That line is at the front of its set, so a repeat
    /// probe may return its state without moving anything. Back-to-back
    /// probes of the same line — the common case under spatial locality —
    /// then skip the set scan.
    hot_id: u32,
    hot_state: MesiState,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let n_sets = config.sets();
        Cache {
            config,
            words: vec![0; n_sets * config.ways],
            sets: SetIndex::new(n_sets as u64),
            hot_id: NO_LINE,
            hot_state: MesiState::Invalid,
        }
    }

    /// Index of the first word of `line`'s set.
    #[inline]
    fn base(&self, line: LineAddr) -> usize {
        self.sets.of(line.0) as usize * self.config.ways
    }

    /// Way of line `id` within the set starting at word `base`, if resident.
    #[inline]
    fn find(&self, base: usize, id: u32) -> Option<usize> {
        let tag = tag_of(id);
        self.words[base..base + self.config.ways]
            .iter()
            .position(|&w| w & !3 == tag)
    }

    /// Shift the first `way` words of the set at `base` one place towards
    /// the tail and put `word` first.
    #[inline]
    fn move_to_front(&mut self, base: usize, way: usize, word: u32) {
        let mut carry = word;
        for slot in &mut self.words[base..=base + way] {
            carry = std::mem::replace(slot, carry);
        }
    }

    /// Put the absent line `id` with `state` at the front of the set at
    /// `base`, evicting the set's last (least recently used) line if the
    /// set is full.
    #[inline]
    fn install(&mut self, base: usize, id: u32, state: MesiState) -> Option<EvictedLine> {
        let last = self.config.ways - 1;
        let victim = self.words[base + last];
        self.move_to_front(base, last, tag_of(id) | encode_state(state));
        self.hot_id = id;
        self.hot_state = state;
        (victim != 0).then(|| EvictedLine {
            id: victim >> 3,
            state: decode_state(victim),
        })
    }

    /// State of the line if resident, touching LRU.
    #[inline]
    pub fn touch(&mut self, line: LineAddr, id: u32) -> Option<MesiState> {
        if id == self.hot_id {
            return Some(self.hot_state);
        }
        let base = self.base(line);
        let way = self.find(base, id)?;
        let word = self.words[base + way];
        self.move_to_front(base, way, word);
        self.hot_id = id;
        self.hot_state = decode_state(word);
        Some(self.hot_state)
    }

    /// State of the line if resident, without touching LRU (snoop path).
    #[inline]
    pub fn peek(&self, line: LineAddr, id: u32) -> Option<MesiState> {
        if id == self.hot_id {
            return Some(self.hot_state);
        }
        let base = self.base(line);
        self.find(base, id)
            .map(|way| decode_state(self.words[base + way]))
    }

    /// Change the state of a resident line. Returns `false` if absent.
    pub fn set_state(&mut self, line: LineAddr, id: u32, state: MesiState) -> bool {
        self.replace_state(line, id, state).is_some()
    }

    /// Change the state of a resident line, returning its previous state
    /// (`None` if absent). One set scan where a `peek` + [`Cache::set_state`]
    /// pair would take two — the coherence miss paths read the old state and
    /// write the new one for every holder the owner directory names.
    #[inline]
    pub fn replace_state(
        &mut self,
        line: LineAddr,
        id: u32,
        state: MesiState,
    ) -> Option<MesiState> {
        debug_assert_ne!(state, MesiState::Invalid, "use remove() to invalidate");
        let base = self.base(line);
        let way = self.find(base, id)?;
        let word = &mut self.words[base + way];
        let old = decode_state(*word);
        *word = (*word & !3) | encode_state(state);
        if id == self.hot_id {
            self.hot_state = state;
        }
        Some(old)
    }

    /// Install the line with `state`, evicting the LRU line of the set if
    /// it is full. Returns the evicted line, if any.
    ///
    /// # Panics
    /// Panics (debug) if the line is already resident — callers must use
    /// [`Cache::set_state`] for state changes.
    pub fn insert(&mut self, line: LineAddr, id: u32, state: MesiState) -> Option<EvictedLine> {
        let base = self.base(line);
        debug_assert!(
            self.find(base, id).is_none(),
            "insert of already-resident line {line:?}"
        );
        self.install(base, id, state)
    }

    /// Write-allocate probe: move the line to the front of its set if it is
    /// resident, else install it with `state` (evicting the set's LRU line
    /// if full). Returns whether the line was already resident, plus any
    /// eviction.
    #[inline]
    pub fn touch_or_insert(
        &mut self,
        line: LineAddr,
        id: u32,
        state: MesiState,
    ) -> (bool, Option<EvictedLine>) {
        if self.touch(line, id).is_some() {
            return (true, None);
        }
        (false, self.install(self.base(line), id, state))
    }

    /// Remove the line (coherence invalidation or back-invalidation).
    /// Returns the state it was in, if resident.
    #[inline]
    pub fn remove(&mut self, line: LineAddr, id: u32) -> Option<MesiState> {
        if id == self.hot_id {
            self.hot_id = NO_LINE;
        }
        let base = self.base(line);
        let way = self.find(base, id)?;
        let set = &mut self.words[base..base + self.config.ways];
        let word = set[way];
        set.copy_within(way + 1.., way);
        set[set.len() - 1] = 0;
        Some(decode_state(word))
    }

    /// Iterate over all resident lines as `(id, state)`.
    pub fn lines(&self) -> impl Iterator<Item = (u32, MesiState)> + '_ {
        self.words
            .iter()
            .filter(|&&w| w != 0)
            .map(|&w| (w >> 3, decode_state(w)))
    }

    /// Host bytes of the way words.
    pub fn way_bytes(&self) -> usize {
        std::mem::size_of_val(self.words.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linetable::LineTable;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways of 64-byte lines.
        Cache::new(CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 1,
        })
    }

    /// A small line and an id for it: the cache treats ids as opaque
    /// tags, so any one-to-one choice below 2^29 will do.
    fn l(addr: u64) -> (LineAddr, u32) {
        (LineAddr(addr), addr as u32 + 1)
    }

    fn resident(c: &Cache) -> usize {
        c.lines().count()
    }

    #[test]
    fn insert_then_touch() {
        let mut c = tiny();
        let (a, id) = l(1);
        assert_eq!(c.touch(a, id), None);
        c.insert(a, id, MesiState::Exclusive);
        assert_eq!(c.touch(a, id), Some(MesiState::Exclusive));
    }

    #[test]
    fn peek_does_not_update_lru() {
        let mut c = tiny();
        // Set 0: lines 0, 4 (4 sets → addr & 3).
        let [zero, four, eight] = [l(0), l(4), l(8)];
        c.insert(zero.0, zero.1, MesiState::Shared);
        c.insert(four.0, four.1, MesiState::Shared);
        // Peek line 0 — should NOT protect it from eviction.
        assert_eq!(c.peek(zero.0, zero.1), Some(MesiState::Shared));
        let ev = c.insert(eight.0, eight.1, MesiState::Shared).unwrap();
        assert_eq!(ev.id, zero.1);
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut c = tiny();
        let [zero, four, eight] = [l(0), l(4), l(8)];
        c.insert(zero.0, zero.1, MesiState::Shared);
        c.insert(four.0, four.1, MesiState::Shared);
        c.touch(zero.0, zero.1);
        let ev = c.insert(eight.0, eight.1, MesiState::Shared).unwrap();
        assert_eq!(ev.id, four.1);
    }

    #[test]
    fn eviction_reports_dirty_state() {
        let mut c = tiny();
        let [zero, four, eight] = [l(0), l(4), l(8)];
        c.insert(zero.0, zero.1, MesiState::Modified);
        c.insert(four.0, four.1, MesiState::Exclusive);
        let ev = c.insert(eight.0, eight.1, MesiState::Shared).unwrap();
        assert_eq!(ev.state, MesiState::Modified);
        assert!(ev.state.dirty());
    }

    #[test]
    fn remove_returns_state() {
        let mut c = tiny();
        let (a, id) = l(5);
        c.insert(a, id, MesiState::Modified);
        assert_eq!(c.remove(a, id), Some(MesiState::Modified));
        assert_eq!(c.remove(a, id), None);
        assert_eq!(resident(&c), 0);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = tiny();
        let (a, id) = l(2);
        c.insert(a, id, MesiState::Exclusive);
        assert!(c.set_state(a, id, MesiState::Modified));
        assert_eq!(c.peek(a, id), Some(MesiState::Modified));
        let (b, other) = l(99);
        assert!(!c.set_state(b, other, MesiState::Shared));
    }

    #[test]
    fn resident_lines_bounded_by_capacity() {
        let mut c = tiny();
        for i in 0..100 {
            let (a, id) = l(i);
            if c.peek(a, id).is_none() {
                c.insert(a, id, MesiState::Shared);
            }
        }
        assert_eq!(resident(&c), 8);
        assert_eq!(c.way_bytes(), 8 * 4);
    }

    #[test]
    fn the_largest_id_round_trips_through_a_way_word() {
        let mut c = tiny();
        let (a, id) = (LineAddr((1 << 58) - 1), (1 << 29) - 1);
        c.insert(a, id, MesiState::Modified);
        assert_eq!(c.lines().collect::<Vec<_>>(), [(id, MesiState::Modified)]);
        // Lines 4 and 8 below it share its set (4 sets → addr & 3).
        c.insert(LineAddr(a.0 - 4), 1, MesiState::Shared);
        c.touch(LineAddr(a.0 - 4), 1);
        let ev = c.insert(LineAddr(a.0 - 8), 2, MesiState::Shared).unwrap();
        assert_eq!(
            ev,
            EvictedLine {
                id,
                state: MesiState::Modified
            }
        );
    }

    #[test]
    fn set_index_is_modulo_for_every_64_bit_address() {
        // The paper's L2 (12288 = 3 · 4096 sets), powers of two, and set
        // counts up to the largest u64 with every reciprocal shape between. Engine
        // line addresses come from scrambled 64-bit frame numbers and are
        // about 58 bits wide; sample the whole 64-bit range, not 32 bits.
        let n_sets = [
            12288u64,
            1,
            2,
            64,
            3,
            5,
            6,
            7,
            12,
            999,
            1 << 63,
            (1 << 63) + 1,
            3 << 62,
            10_007,
            (1 << 32) + 1,
            (1 << 62) + 1,
            u64::MAX,
            u64::MAX - 2,
        ];
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let samples: Vec<u64> = (0..10_000)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> (i % 8)
            })
            .collect();
        for n in n_sets {
            let index = SetIndex::new(n);
            let edges = [0, 1, n - 1, n, n.wrapping_add(1), u32::MAX as u64 + 1];
            let ends = [(1 << 58) - 1, u64::MAX - 1, u64::MAX];
            for &a in edges.iter().chain(&ends).chain(&samples) {
                assert_eq!(index.of(a), a % n, "addr {a:#x} mod {n}");
            }
        }
        let c = Cache::new(CacheConfig {
            size_bytes: 64 * 12288 * 8,
            line_size: 64,
            ways: 8,
            latency: 15,
        });
        assert_eq!(c.sets, SetIndex::new(12288));
        assert_eq!(c.base(LineAddr(12288 * 5 + 7)), 7 * 8);
    }

    #[test]
    fn line_addr_of_strips_offset() {
        assert_eq!(LineAddr::of(0x1040, 6), LineAddr(0x41));
        assert_eq!(LineAddr::of(0x107F, 6), LineAddr(0x41));
        assert_eq!(LineAddr::of(0x1080, 6), LineAddr(0x42));
    }

    /// Stamp-based LRU, the reference model for the proptest below: each
    /// line carries the cache clock of its last use and the victim is the
    /// set's oldest stamp. The model keys lines by address and reports
    /// victims by id.
    struct StampLru {
        ways: usize,
        clock: u64,
        /// Per set: `(addr, id, state, stamp)` in no particular order.
        sets: Vec<Vec<(u64, u32, MesiState, u64)>>,
    }

    impl StampLru {
        fn set(&mut self, addr: LineAddr) -> &mut Vec<(u64, u32, MesiState, u64)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(addr.0 % n) as usize]
        }

        fn lookup(&mut self, addr: LineAddr, stamp: bool) -> Option<MesiState> {
            self.clock += 1;
            let clock = self.clock;
            let line = self.set(addr).iter_mut().find(|l| l.0 == addr.0)?;
            if stamp {
                line.3 = clock;
            }
            Some(line.2)
        }

        fn replace_state(&mut self, addr: LineAddr, state: MesiState) -> Option<MesiState> {
            let line = self.set(addr).iter_mut().find(|l| l.0 == addr.0)?;
            Some(std::mem::replace(&mut line.2, state))
        }

        fn install(&mut self, addr: LineAddr, id: u32, state: MesiState) -> Option<EvictedLine> {
            self.clock += 1;
            let (clock, ways) = (self.clock, self.ways);
            let set = self.set(addr);
            let evicted = (set.len() == ways).then(|| {
                let oldest = (0..ways).min_by_key(|&i| set[i].3).unwrap();
                let (_, vid, vstate, _) = set.swap_remove(oldest);
                EvictedLine {
                    id: vid,
                    state: vstate,
                }
            });
            set.push((addr.0, id, state, clock));
            evicted
        }

        fn remove(&mut self, addr: LineAddr) -> Option<MesiState> {
            let set = self.set(addr);
            let i = set.iter().position(|l| l.0 == addr.0)?;
            Some(set.swap_remove(i).2)
        }
    }

    /// Each set of `cache` must hold exactly the reference set's lines,
    /// packed at the front in most-recent-first order with unique ids and
    /// an all-empty tail.
    fn check_sets(cache: &Cache, model: &StampLru) -> Result<(), String> {
        for (i, lines) in model.sets.iter().enumerate() {
            let set = &cache.words[i * cache.config.ways..(i + 1) * cache.config.ways];
            let mut expect = lines.clone();
            expect.sort_by_key(|l| std::cmp::Reverse(l.3));
            let got: Vec<_> = set[..expect.len()]
                .iter()
                .map(|&w| (w >> 3, decode_state(w)))
                .collect();
            let want: Vec<_> = expect.iter().map(|l| (l.1, l.2)).collect();
            if got != want {
                return Err(format!(
                    "set {i}: {got:x?} is not {want:x?} (most recent first)"
                ));
            }
            let mut ids: Vec<_> = set.iter().filter(|&&w| w != 0).map(|&w| w >> 3).collect();
            let resident = ids.len();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() != resident
                || resident != expect.len()
                || set[resident..].iter().any(|&w| w != 0)
            {
                return Err(format!("set {i} is not packed with unique ids: {set:x?}"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packed, recency-ordered layout behaves exactly like
        /// stamp-based LRU on every operation, including 1-way sets,
        /// non-power-of-two set counts and 58-bit line addresses. Ids come
        /// from a line table, as in the hierarchy, so the lines that share
        /// a set have ids from different blocks.
        #[test]
        fn packed_layout_matches_stamp_lru(
            (n_sets, ways) in prop::sample::select(vec![(1, 1), (4, 1), (3, 1), (1, 4), (4, 2), (6, 3), (5, 4), (12, 8)]),
            base in prop::sample::select(vec![0u64, 0x2AB_CDEF_0123_4567, (1 << 58) - 64]),
            ops in prop::collection::vec((0u8..6, 0u64..40, 0usize..3), 1..400),
        ) {
            let mut cache = Cache::new(CacheConfig {
                size_bytes: 64 * (n_sets * ways) as u64,
                line_size: 64,
                ways,
                latency: 1,
            });
            let mut model = StampLru { ways, clock: 0, sets: vec![Vec::new(); n_sets] };
            let mut ids = LineTable::default();
            let states = [MesiState::Modified, MesiState::Exclusive, MesiState::Shared];
            for (step, &(op, offset, s)) in ops.iter().enumerate() {
                let (addr, state) = (LineAddr(base + offset), states[s]);
                let id = ids.id_of(addr.0);
                match op {
                    0 => prop_assert_eq!(cache.touch(addr, id), model.lookup(addr, true), "touch @{}", step),
                    1 => prop_assert_eq!(cache.peek(addr, id), model.lookup(addr, false), "peek @{}", step),
                    2 => prop_assert_eq!(
                        cache.replace_state(addr, id, state),
                        model.replace_state(addr, state),
                        "replace_state @{}", step
                    ),
                    3 => {
                        let want = match model.lookup(addr, true) {
                            Some(_) => (true, None),
                            None => (false, model.install(addr, id, state)),
                        };
                        prop_assert_eq!(cache.touch_or_insert(addr, id, state), want, "touch_or_insert @{}", step);
                    }
                    4 => {
                        // `insert` requires an absent line.
                        if model.lookup(addr, false).is_none() {
                            prop_assert_eq!(cache.insert(addr, id, state), model.install(addr, id, state), "insert @{}", step);
                        }
                    }
                    _ => prop_assert_eq!(cache.remove(addr, id), model.remove(addr), "remove @{}", step),
                }
                let occupancy: usize = model.sets.iter().map(Vec::len).sum();
                prop_assert_eq!(resident(&cache), occupancy, "occupancy @{}", step);
                if let Err(msg) = check_sets(&cache, &model) {
                    return Err(format!("after step {step}: {msg}"));
                }
            }
        }
    }
}
