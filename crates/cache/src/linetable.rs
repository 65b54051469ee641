//! The line table: a dense `u32` id for every line the hierarchy sees, and
//! one coherence record per id.
//!
//! Lines are grouped into blocks of [`BLOCK_LINES`] consecutive line
//! addresses. A small open-addressing map takes a block to its dense index,
//! handed out in first-touch order, and a `Vec` keeps each index's block
//! address; a line's id is `index << 6 | line & 63` ([`line_id`]). Ids let
//! every cache store 32-bit way words and let the records live in one flat
//! `Vec` indexed by id, with no hashing and no stored key. The map stays
//! small — a block covers a whole 4 KiB page of 64-byte lines, and no
//! Workshop-scale NPB kernel touches more than 2,049 blocks — so the lookup
//! an access pays stays in the host's L1.
//!
//! Each record holds three bitmaps over L2 indices side by side: the L2s
//! that hold the line now (the sparse MESI owner directory), the L2s it was
//! ever resident in (cold vs capacity misses) and the L2s whose copy an
//! invalidation destroyed since their last miss on it (coherence misses).
//! A block's 64 records are allocated together, zeroed, when the block is
//! first touched. "Ever resident" is sticky, so neither a block nor a
//! record is ever removed.

use crate::cache::ID_BITS;

/// Lines per block; ids are handed out a block at a time.
const BLOCK_LINES: usize = 1 << BLOCK_SHIFT;
const BLOCK_SHIFT: u32 = 6;

/// Blocks the id space holds. Ids must fit the caches' way words, so the
/// space ends at 2^29 lines, 32 GiB of touched 64-byte lines.
const MAX_BLOCKS: usize = 1 << (ID_BITS - BLOCK_SHIFT);

/// The id of `line` when its block has dense index `index`.
///
/// # Panics
/// Panics if `index` is past the last block of the 2^29-line id space;
/// ids never wrap.
#[inline]
pub(crate) fn line_id(index: usize, line: u64) -> u32 {
    assert!(
        index < MAX_BLOCKS,
        "line id space exhausted: more than 2^29 distinct lines \
         ({MAX_BLOCKS} blocks of {BLOCK_LINES}) touched"
    );
    (index << BLOCK_SHIFT) as u32 | (line as u32 & (BLOCK_LINES as u32 - 1))
}

/// One line's coherence record: one bitmap per field, bit *g* for L2 *g*.
pub(crate) type LineRecord = [u64; 3];

/// Index of the bitmap of L2s holding the line now.
pub(crate) const HOLDERS: usize = 0;
/// Index of the bitmap of L2s the line was ever installed in.
pub(crate) const EVER: usize = 1;
/// Index of the bitmap of L2s that lost their copy to an invalidation and
/// have not missed on the line since.
pub(crate) const LOST: usize = 2;

/// Fibonacci-style multiplicative hash spreading low-entropy integer keys
/// across the high bits (the probe start uses the top `log2(capacity)`).
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Dense line ids and their coherence records. Records are addressed by
/// id, so a miss can look its line up once and then update the record
/// while it also borrows the caches.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineTable {
    /// Power-of-two open-addressing map from a block to `index + 1` (0 is
    /// an empty slot), at most half full; empty until the first insert.
    slots: Vec<u32>,
    /// Block address of each dense index, in first-touch order.
    blocks: Vec<u64>,
    /// Coherence records by line id, [`BLOCK_LINES`] per block.
    records: Vec<LineRecord>,
}

impl LineTable {
    /// Index of the first slot of `block`'s probe chain.
    #[inline]
    fn start(&self, block: u64) -> usize {
        (spread(block) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The map slot holding `block`, or the empty slot where it would go.
    #[inline]
    fn slot(&self, block: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.start(block);
        loop {
            let slot = i & mask;
            match self.slots[slot] {
                0 => return slot,
                s if self.blocks[s as usize - 1] == block => return slot,
                _ => i += 1,
            }
        }
    }

    /// The id of `line`, if its block has been touched. Never allocates.
    #[inline]
    pub fn find(&self, line: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.slot(line >> BLOCK_SHIFT)] {
            0 => None,
            // Indices in the map passed `line_id`'s check when inserted.
            s => Some(((s - 1) << BLOCK_SHIFT) | (line as u32 & (BLOCK_LINES as u32 - 1))),
        }
    }

    /// The id of `line`, touching its block (with zeroed records) first if
    /// it is new.
    ///
    /// # Panics
    /// Panics once the 2^29-line id space is exhausted (see [`line_id`]).
    #[inline]
    pub fn id_of(&mut self, line: u64) -> u32 {
        match self.find(line) {
            Some(id) => id,
            None => self.insert(line),
        }
    }

    /// Touch `line`'s new block: the only call that grows the table. Kept
    /// out of line so that [`Self::id_of`] inlines into the access path.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, line: u64) -> u32 {
        let id = line_id(self.blocks.len(), line);
        if (self.blocks.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let block = line >> BLOCK_SHIFT;
        let slot = self.slot(block);
        self.blocks.push(block);
        self.slots[slot] = self.blocks.len() as u32;
        self.records
            .resize(self.records.len() + BLOCK_LINES, [0; 3]);
        id
    }

    /// The line address of `id`.
    #[inline]
    pub fn line_of(&self, id: u32) -> u64 {
        self.blocks[(id >> BLOCK_SHIFT) as usize] << BLOCK_SHIFT
            | u64::from(id) & (BLOCK_LINES as u64 - 1)
    }

    /// `line`'s record, or an all-zero one if its block is untouched.
    pub fn get(&self, line: u64) -> LineRecord {
        self.find(line).map_or([0; 3], |id| self[id])
    }

    /// Blocks touched so far.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// All records, by id.
    pub fn records(&self) -> &[LineRecord] {
        &self.records
    }

    /// Double the map's capacity (16 slots at first) and reinsert every
    /// block by its stored address.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots = vec![0; cap];
        for (index, &block) in self.blocks.iter().enumerate() {
            let slot = self.slot(block);
            self.slots[slot] = index as u32 + 1;
        }
    }
}

impl std::ops::Index<u32> for LineTable {
    type Output = LineRecord;

    #[inline]
    fn index(&self, id: u32) -> &LineRecord {
        &self.records[id as usize]
    }
}

impl std::ops::IndexMut<u32> for LineTable {
    #[inline]
    fn index_mut(&mut self, id: u32) -> &mut LineRecord {
        &mut self.records[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The largest line a 64-bit physical address of 64-byte lines gives.
    const LARGEST: u64 = (1 << 58) - 1;

    #[test]
    fn empty_table_answers_without_allocating() {
        let t = LineTable::default();
        assert_eq!(t.find(0), None);
        assert_eq!(t.get(7)[HOLDERS], 0);
        assert!(t.slots.is_empty() && t.records.is_empty());
    }

    #[test]
    fn records_survive_growth_and_stay_findable() {
        let mut t = LineTable::default();
        for k in 0..1000u64 {
            let id = t.id_of(k * 12288);
            t[id][HOLDERS] = k;
        }
        assert_eq!(t.blocks(), 1000);
        assert_eq!(t.records.len(), 1000 * BLOCK_LINES);
        assert!(t.slots.len() >= 2000, "load factor must stay at most 1/2");
        for k in 0..1000u64 {
            assert_eq!(t.get(k * 12288)[HOLDERS], k, "line {k}");
        }
        assert_eq!(t.find(12288 * 1000), None);
    }

    #[test]
    fn the_id_space_ends_at_2_pow_29_lines() {
        assert_eq!(line_id(0, LARGEST), 63);
        assert_eq!(line_id(MAX_BLOCKS - 1, LARGEST), (1 << ID_BITS) - 1);
        let word = u64::from(line_id(MAX_BLOCKS - 1, 0)) << 3 | 0b111;
        assert!(
            word <= u64::from(u32::MAX),
            "the last id's way word fits 32 bits"
        );
    }

    #[test]
    #[should_panic(expected = "more than 2^29 distinct lines")]
    fn the_first_block_past_the_id_space_panics() {
        line_id(MAX_BLOCKS, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random 58-bit lines: ids round-trip to their line, blocks get
        /// dense indices in first-touch order, `find` agrees and never
        /// allocates, and two tables fed the same lines hand out the same
        /// ids.
        #[test]
        fn ids_are_dense_in_first_touch_order_and_round_trip(
            picks in prop::collection::vec((0usize..24, 0u64..64), 1..300),
            far in prop::collection::vec(0u64..(1 << 52), 22),
        ) {
            // Line 0's block, the largest line's block and 22 random ones;
            // picks choose a block and a line within it.
            let blocks: Vec<u64> = [0, LARGEST >> BLOCK_SHIFT].into_iter().chain(far).collect();
            let lines: Vec<u64> = picks.iter().map(|&(b, l)| blocks[b] << BLOCK_SHIFT | l).collect();
            let (mut t, mut twin) = (LineTable::default(), LineTable::default());
            let mut first_touch: Vec<u64> = Vec::new();
            for &line in lines.iter().chain([&0, &LARGEST]) {
                let block = line >> BLOCK_SHIFT;
                let known = t.find(line);
                let (slots, records) = (t.slots.len(), t.records.len());
                let again = t.find(line);
                prop_assert_eq!((t.slots.len(), t.records.len()), (slots, records), "find allocated");
                prop_assert_eq!(known, again);
                let id = t.id_of(line);
                prop_assert_eq!(twin.id_of(line), id);
                let index = match first_touch.iter().position(|&b| b == block) {
                    Some(i) => {
                        prop_assert_eq!(known, Some(id));
                        i
                    }
                    None => {
                        prop_assert_eq!(known, None);
                        first_touch.push(block);
                        first_touch.len() - 1
                    }
                };
                prop_assert_eq!(id as usize >> BLOCK_SHIFT, index);
                prop_assert_eq!(t.line_of(id), line);
                prop_assert_eq!(t.find(line), Some(id));
            }
            prop_assert_eq!(t.blocks(), first_touch.len());
            prop_assert_eq!(t.records.len(), first_touch.len() * BLOCK_LINES);
        }
    }
}
