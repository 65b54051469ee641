//! The coherence line table: one open-addressing map from line addresses
//! to everything the hierarchy tracks about a line across its L2s.
//!
//! Each slot holds the line key and three bitmaps over L2 indices side by
//! side: the L2s that hold the line now (the sparse MESI owner directory),
//! the L2s it was ever resident in (cold vs capacity misses) and the L2s
//! whose copy an invalidation destroyed since their last miss on it
//! (coherence misses). An L2 miss probes one slot for the line and one for
//! the victim, and one 32-byte slot is half a host cache line.
//!
//! "Ever resident" is sticky, so an entry is never removed: the table only
//! grows, and needs no tombstones. Line addresses are already
//! well-distributed integers private to one hierarchy, so a multiplicative
//! hash with linear probing suffices where keyed SipHash would be overhead.

/// One line's coherence record: a stored key, then one bitmap per field
/// with bit *g* for L2 *g*. The stored key is the line address plus one,
/// so an all-zero record is an empty slot and a freshly allocated table
/// comes zeroed from the allocator instead of being filled. Line addresses
/// are physical addresses shifted right by the line size, so `line + 1`
/// never overflows.
pub(crate) type LineEntry = [u64; 4];

/// Index of the stored key (`line + 1`, 0 = empty slot).
const KEY: usize = 0;
/// Index of the bitmap of L2s holding the line now.
pub(crate) const HOLDERS: usize = 1;
/// Index of the bitmap of L2s the line was ever installed in.
pub(crate) const EVER: usize = 2;
/// Index of the bitmap of L2s that lost their copy to an invalidation and
/// have not missed on the line since.
pub(crate) const LOST: usize = 3;

/// Fibonacci-style multiplicative hash spreading low-entropy integer keys
/// across the high bits (the probe start uses the top `log2(capacity)`).
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// An insert-only open-addressing table of [`LineEntry`]s, at most half
/// full. Slots are addressed by index so that a miss can look its line up
/// once and then update it while it also borrows the caches.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineTable {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<LineEntry>,
    /// Occupied slots.
    len: usize,
}

impl LineTable {
    /// Index of the first slot of `key`'s probe chain.
    #[inline]
    fn start(&self, key: u64) -> usize {
        (spread(key) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `line`, if present.
    #[inline]
    pub fn find(&self, line: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let key = line + 1;
        let mask = self.slots.len() - 1;
        let mut i = self.start(key);
        loop {
            let slot = i & mask;
            match self.slots[slot][KEY] {
                k if k == key => return Some(slot),
                0 => return None,
                _ => i += 1,
            }
        }
    }

    /// The slot holding `line`, inserting an entry with empty bitmaps if
    /// absent. Only this call can grow the table, so indices stay valid
    /// until the next one.
    #[inline]
    pub fn find_or_insert(&mut self, line: u64) -> usize {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let key = line + 1;
        let mask = self.slots.len() - 1;
        let mut i = self.start(key);
        loop {
            let slot = i & mask;
            match self.slots[slot][KEY] {
                k if k == key => return slot,
                0 => {
                    self.slots[slot][KEY] = key;
                    self.len += 1;
                    return slot;
                }
                _ => i += 1,
            }
        }
    }

    /// `line`'s entry, or an all-zero one if absent.
    #[inline]
    pub fn get(&self, line: u64) -> LineEntry {
        self.find(line).map_or([0; 4], |slot| self.slots[slot])
    }

    /// Double the capacity (16 slots at first) and rehash. The new array
    /// is all empty slots straight from the zeroing allocator.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![[0; 4]; cap]);
        let mask = cap - 1;
        for entry in old.into_iter().filter(|e| e[KEY] != 0) {
            let mut i = self.start(entry[KEY]);
            while self.slots[i & mask][KEY] != 0 {
                i += 1;
            }
            self.slots[i & mask] = entry;
        }
    }
}

impl std::ops::Index<usize> for LineTable {
    type Output = LineEntry;

    #[inline]
    fn index(&self, slot: usize) -> &LineEntry {
        &self.slots[slot]
    }
}

impl std::ops::IndexMut<usize> for LineTable {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut LineEntry {
        &mut self.slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn empty_table_answers_without_allocating() {
        let t = LineTable::default();
        assert_eq!(t.find(0), None);
        assert_eq!(t.get(7)[HOLDERS], 0);
        assert!(t.slots.is_empty());
    }

    #[test]
    fn zero_is_a_valid_key() {
        let mut t = LineTable::default();
        let slot = t.find_or_insert(0);
        t[slot][EVER] = 1;
        assert_eq!(t.find(0), Some(slot));
        assert_eq!(t.get(0)[EVER], 1);
        assert_eq!(t.find_or_insert(0), slot);
    }

    #[test]
    fn entries_survive_growth_and_stay_findable() {
        let mut t = LineTable::default();
        for k in 0..1000u64 {
            let slot = t.find_or_insert(k * 12288);
            t[slot][HOLDERS] = k;
        }
        assert_eq!(t.len, 1000);
        assert!(t.slots.len() >= 2000, "load factor must stay at most 1/2");
        for k in 0..1000u64 {
            assert_eq!(t.get(k * 12288)[HOLDERS], k, "key {k}");
        }
        assert_eq!(t.find(12288 * 1000), None);
    }

    /// The largest line address: its stored key is `u64::MAX`.
    const LARGEST: u64 = u64::MAX - 1;

    #[test]
    fn matches_std_hashmap_on_random_traffic() {
        let mut rng = SmallRng::seed_from_u64(0xD1_8EC7);
        for _ in 0..20 {
            let mut ours = LineTable::default();
            let mut std_map: HashMap<u64, [u64; 3]> = HashMap::new();
            for _ in 0..3000 {
                // Line 0 and the largest line the stored key can represent
                // are the two ends of the key space.
                let key = match rng.gen_range(0u64..302) {
                    300 => 0,
                    301 => LARGEST,
                    k => k,
                };
                let (field, bit) = (rng.gen_range(0usize..3), rng.gen_range(0u32..64));
                let set = rng.gen_bool(0.5);
                let slot = ours.find_or_insert(key);
                let word = &mut ours[slot][HOLDERS + field];
                let model = &mut std_map.entry(key).or_default()[field];
                for w in [word, model] {
                    if set {
                        *w |= 1 << bit;
                    } else {
                        *w &= !(1 << bit);
                    }
                }
            }
            assert_eq!(ours.len, std_map.len());
            for key in (0..300).chain([LARGEST]) {
                let e = ours.get(key);
                let want = std_map.get(&key).copied().unwrap_or_default();
                assert_eq!([e[HOLDERS], e[EVER], e[LOST]], want, "key {key}");
            }
        }
    }
}
