//! The line table: a dense `u32` id for every line the hierarchy sees, and
//! one coherence record per id.
//!
//! A line's id names its page and its place in the page:
//! `page << page_lines | line & (2^page_lines - 1)` ([`LineTable::id`]),
//! where a page holds 2^`page_lines` lines and `page` is the page's dense
//! first-touch index. The engine takes that index from the TLB entry that
//! translated the access (`tlbmap_mem::Translation::page`), so numbering a
//! line costs a shift and a mask, with no lookup. The table keeps one base
//! line per page, so an id's line address is one load away
//! ([`LineTable::line_of`]). At 4 KiB pages and 64-byte lines these are the
//! ids the table handed out when it numbered 64-line blocks through a hash
//! map in first-touch order: a page's first access to the hierarchy comes
//! straight after the TLB fill that numbered it, so page order is block
//! order. Ids let every cache store 32-bit way words and let the records
//! live in one flat `Vec`, with no stored key.
//!
//! A caller with only a physical address (`MemoryHierarchy::access`)
//! numbers 64-line blocks in first-touch order through a page table of its
//! own instead. One table takes its page indices from one of the two
//! sources, fixed when the hierarchy is built.
//!
//! Each record holds three bitmaps over L2 indices side by side: the L2s
//! that hold the line now (the sparse MESI owner directory), the L2s it was
//! ever resident in (cold vs capacity misses) and the L2s whose copy an
//! invalidation destroyed since their last miss on it (coherence misses).
//! Records come in chunks of [`CHUNK`] consecutive ids, allocated zeroed
//! when one of their ids is first written, so a 2 MiB page whose program
//! touches a few lines pays for a few chunks, not for 32,768 records.
//! Until then a chunk reads as the shared all-zero chunk at the front of
//! the record `Vec`. "Ever resident" is sticky, so neither a page nor a
//! record is ever removed.

use crate::cache::ID_BITS;

/// Ids per record chunk.
const CHUNK: usize = 1 << CHUNK_SHIFT;
const CHUNK_SHIFT: u32 = 6;

/// One line's coherence record: one bitmap per field, bit *g* for L2 *g*.
pub(crate) type LineRecord = [u64; 3];

/// Index of the bitmap of L2s holding the line now.
pub(crate) const HOLDERS: usize = 0;
/// Index of the bitmap of L2s the line was ever installed in.
pub(crate) const EVER: usize = 1;
/// Index of the bitmap of L2s that lost their copy to an invalidation and
/// have not missed on the line since.
pub(crate) const LOST: usize = 2;

/// Dense line ids and their coherence records. Records are addressed by
/// id, so a miss can name its line once and then update the record while
/// it also borrows the caches.
#[derive(Debug, Clone)]
pub(crate) struct LineTable {
    /// log2 of the lines in a page.
    page_lines: u32,
    /// `2^page_lines - 1`: the line-in-page bits of a line address.
    in_page: u32,
    /// Base line address of each page, by page index.
    bases: Vec<u64>,
    /// Offset in `records` of each chunk of [`CHUNK`] ids; 0, the shared
    /// all-zero chunk, until the chunk is first written.
    chunks: Vec<u32>,
    /// Coherence records, [`CHUNK`] per written chunk after the zero chunk.
    records: Vec<LineRecord>,
}

impl LineTable {
    /// An empty table for pages of 2^`page_lines` lines.
    pub fn new(page_lines: u32) -> Self {
        assert!(
            page_lines < ID_BITS,
            "a page of 2^{page_lines} lines does not fit the 2^{ID_BITS}-line id space"
        );
        LineTable {
            page_lines,
            in_page: (1 << page_lines) - 1,
            bases: Vec::new(),
            chunks: Vec::new(),
            records: vec![[0; 3]; CHUNK],
        }
    }

    /// The id of `line`, which lies in page `page`. A page index the table
    /// has not seen must be the next one ([`Self::pages`]).
    ///
    /// # Panics
    /// Panics if a new page skips an index, or once the pages cover more
    /// than the 2^29 lines of the id space (ids never wrap).
    #[inline]
    pub fn id(&mut self, page: u32, line: u64) -> u32 {
        if page as usize >= self.bases.len() {
            self.touch(page, line);
        }
        page << self.page_lines | line as u32 & self.in_page
    }

    /// Record `line`'s page as page `page`: the only call that grows the
    /// table. Kept out of line so that [`Self::id`] inlines into the
    /// access path.
    #[cold]
    #[inline(never)]
    fn touch(&mut self, page: u32, line: u64) {
        check_page(page, self.page_lines);
        assert_eq!(
            page as usize,
            self.bases.len(),
            "pages must be numbered densely in first-touch order"
        );
        self.bases.push(line & !u64::from(self.in_page));
        let ids = self.bases.len() << self.page_lines;
        self.chunks.resize(ids.div_ceil(CHUNK), 0);
    }

    /// The line address of `id`.
    #[inline]
    pub fn line_of(&self, id: u32) -> u64 {
        self.bases[(id >> self.page_lines) as usize] | u64::from(id & self.in_page)
    }

    /// The id of `line`, if its page has been touched, by a scan of the
    /// pages (a diagnostic; the access path never searches).
    pub fn find(&self, line: u64) -> Option<u32> {
        let base = line & !u64::from(self.in_page);
        let page = self.bases.iter().position(|&b| b == base)?;
        Some((page as u32) << self.page_lines | line as u32 & self.in_page)
    }

    /// `line`'s record, or an all-zero one if its page is untouched.
    pub fn get(&self, line: u64) -> LineRecord {
        self.find(line).map_or([0; 3], |id| self[id])
    }

    /// Pages touched so far.
    pub fn pages(&self) -> usize {
        self.bases.len()
    }

    /// Records of the written chunks, the zero chunk excluded.
    pub fn records(&self) -> &[LineRecord] {
        &self.records[CHUNK..]
    }

    /// Host bytes of the table: records, chunk offsets and page bases.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.records[..])
            + std::mem::size_of_val(&self.chunks[..])
            + std::mem::size_of_val(&self.bases[..])
    }

    /// Allocate chunk `c`'s records, zeroed.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self, c: usize) {
        self.chunks[c] = self.records.len() as u32;
        self.records.resize(self.records.len() + CHUNK, [0; 3]);
    }
}

/// Check that page `page` of 2^`page_lines` lines ends inside the id space.
///
/// # Panics
/// Panics, naming the limit, once the page's ids would pass 2^29 lines
/// (ids never wrap).
fn check_page(page: u32, page_lines: u32) {
    let limit = 1u64 << (ID_BITS - page_lines);
    assert!(
        u64::from(page) < limit,
        "line id space exhausted: page {page} of 2^{page_lines} lines ends past the \
         2^{ID_BITS}-line limit ({limit} pages)"
    );
}

impl std::ops::Index<u32> for LineTable {
    type Output = LineRecord;

    #[inline]
    fn index(&self, id: u32) -> &LineRecord {
        let chunk = self.chunks[(id >> CHUNK_SHIFT) as usize] as usize;
        &self.records[chunk + (id as usize & (CHUNK - 1))]
    }
}

impl std::ops::IndexMut<u32> for LineTable {
    /// `id`'s record, allocating its chunk on first write.
    #[inline]
    fn index_mut(&mut self, id: u32) -> &mut LineRecord {
        let c = (id >> CHUNK_SHIFT) as usize;
        if self.chunks[c] == 0 {
            self.allocate(c);
        }
        let chunk = self.chunks[c] as usize;
        &mut self.records[chunk + (id as usize & (CHUNK - 1))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The largest line a 64-bit physical address of 64-byte lines gives.
    const LARGEST: u64 = (1 << 58) - 1;

    #[test]
    fn empty_table_answers_without_allocating() {
        let t = LineTable::new(6);
        assert_eq!(t.find(0), None);
        assert_eq!(t.get(7)[HOLDERS], 0);
        assert!(t.bases.is_empty() && t.records().is_empty());
    }

    #[test]
    fn records_are_allocated_per_written_chunk() {
        // 2 MiB pages of 64-byte lines: 32,768 ids per page.
        let mut t = LineTable::new(15);
        let id = t.id(0, 5 << 15 | 40_000 & 0x7fff);
        assert_eq!(t[id], [0; 3], "an unwritten chunk reads as zeros");
        assert!(t.records().is_empty(), "reading allocates nothing");
        t[id][EVER] = 1;
        let far = t.id(0, 5 << 15 | 3);
        t[far][HOLDERS] = 2;
        assert_eq!(t.records().len(), 2 * CHUNK, "two chunks written");
        assert_eq!((t[id], t[far]), ([0, 1, 0], [2, 0, 0]));
        assert_eq!(t.get(5 << 15 | 3)[HOLDERS], 2);
        assert_eq!(t.chunks.len(), (1 << 15) / CHUNK);
    }

    #[test]
    #[should_panic(expected = "numbered densely")]
    fn a_skipped_page_index_panics() {
        LineTable::new(6).id(1, 0);
    }

    /// The id space ends at 2^29 lines whatever the page size: the last
    /// page that fits is accepted and holds the last id, whose way word
    /// still fits 32 bits; the next page panics. The check runs before the
    /// table grows, so it is tested on its own, with no 2^29-id table.
    fn the_id_space_ends_at_2_pow_29_lines(page_lines: u32) {
        let pages = 1u32 << (ID_BITS - page_lines);
        check_page(pages - 1, page_lines);
        let last = (pages - 1) << page_lines | ((1 << page_lines) - 1);
        assert_eq!(last, (1 << ID_BITS) - 1);
        let word = u64::from(last) << 3 | 0b111;
        assert!(
            word <= u64::from(u32::MAX),
            "the last way word fits 32 bits"
        );
        check_page(pages, page_lines);
    }

    #[test]
    #[should_panic(expected = "past the 2^29-line limit (8388608 pages)")]
    fn the_id_space_ends_at_2_pow_29_lines_at_4k_pages() {
        the_id_space_ends_at_2_pow_29_lines(6);
    }

    #[test]
    #[should_panic(expected = "past the 2^29-line limit (16384 pages)")]
    fn the_id_space_ends_at_2_pow_29_lines_at_2m_pages() {
        the_id_space_ends_at_2_pow_29_lines(15);
    }

    /// A table whose pages reach the limit refuses the next page before it
    /// allocates anything: pages of 2^28 lines leave room for two.
    #[test]
    #[should_panic(expected = "page 2 of 2^28 lines ends past the 2^29-line limit (2 pages)")]
    fn a_table_refuses_the_page_past_the_limit() {
        let mut t = LineTable::new(28);
        // Two pages without their 2^29 ids of chunk table.
        t.bases.resize(2, 0);
        t.id(2, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// At every page size from one line (page shift 6) to 2 MiB (21),
        /// over random 58-bit page bases: ids are unique per line, stable,
        /// dense by page, and `line_of` and `find` round-trip them.
        #[test]
        fn ids_are_unique_per_line_and_round_trip(
            page_shift in 6u32..=21,
            picks in prop::collection::vec((0usize..12, any::<u64>()), 1..200),
            far in prop::collection::vec(0..=LARGEST, 10),
        ) {
            let page_lines = page_shift - 6;
            let in_page = (1u64 << page_lines) - 1;
            // The pages of line 0, of the largest line and of ten random
            // lines.
            let bases: Vec<u64> = [0, LARGEST].into_iter().chain(far).collect();
            let mut t = LineTable::new(page_lines);
            let mut pages: Vec<u64> = Vec::new();
            let mut ids: HashMap<u64, u32> = HashMap::new();
            for &(b, offset) in &picks {
                let base = bases[b] & !in_page;
                let line = base | offset & in_page;
                let page = match pages.iter().position(|&p| p == base) {
                    Some(p) => p,
                    None => {
                        pages.push(base);
                        pages.len() - 1
                    }
                } as u32;
                let id = t.id(page, line);
                prop_assert_eq!(id >> page_lines, page);
                prop_assert_eq!(t.line_of(id), line);
                prop_assert_eq!(t.find(line), Some(id));
                let known = *ids.entry(line).or_insert(id);
                prop_assert_eq!(known, id, "line {} renumbered", line);
            }
            let distinct: std::collections::HashSet<u32> = ids.values().copied().collect();
            prop_assert_eq!(distinct.len(), ids.len(), "two lines share an id");
            prop_assert_eq!(t.pages(), pages.len());
        }
    }
}
