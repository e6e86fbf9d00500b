//! The next-reference oracle.
//!
//! All four prefetching algorithms assume full advance knowledge of the
//! request sequence (§1). The oracle answers the two queries they need —
//! *when is block B next referenced at or after position p?* (for Belady
//! replacement and the do-no-harm rule), and *which block is referenced
//! at position p?* (for prefetch candidates, which the missing-block
//! index in `crate::cache` finds per disk).
//!
//! Internally every block is assigned a dense **compact index** (`u32`),
//! so the hot paths work over plain arrays instead of hash maps: occurrence
//! lists are indexed by compact index, a run's next-use queries walk
//! forward cursors into them, and the cache keys its bitsets and slot
//! arrays by the same index. The only hash lookup left is the
//! cold [`Oracle::index_of`] boundary used to enter the dense world.

use parcache_disk::layout::Layout;
use parcache_trace::Trace;
use parcache_types::{BlockId, DiskId, FastMap};
use std::sync::OnceLock;

/// Sentinel position for "never referenced again" — compares greater than
/// every real position, which is exactly what Belady comparisons want.
pub(crate) const NEVER: usize = usize::MAX;

/// Reserved block id returned by [`Oracle::block_at`] for undisclosed
/// positions (see [`Oracle::from_positions`]). Never equals a real block.
pub(crate) const UNKNOWN_BLOCK: BlockId = BlockId(u64::MAX);

/// Internal sentinel for "no compact index" in the `u32`-packed position
/// array.
const NONE32: u32 = u32::MAX;

/// Compact row storage: all rows concatenated into one flat allocation,
/// sliced by an offsets table. The oracle's occurrence and disk-position
/// lists used to be one `Vec` per block; at hundreds to thousands of
/// blocks per trace that dominated the per-simulation allocation count
/// (and, in the multi-threaded sweep, the allocator contention). Two
/// counted passes build the same lists in exactly two allocations.
#[derive(Debug)]
struct Rows<T> {
    /// `offsets[i]..offsets[i + 1]` delimits row `i` in `data`.
    offsets: Vec<u32>,
    /// All rows, concatenated.
    data: Vec<T>,
}

impl<T: Copy + Default> Rows<T> {
    /// An all-default store with row `i` sized to `counts[i]`, ready to
    /// be filled in place.
    fn from_counts(counts: &[u32]) -> Rows<T> {
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        assert!(total < u32::MAX as usize, "row data must fit u32 offsets");
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut at = 0u32;
        offsets.push(0);
        for &c in counts {
            at += c;
            offsets.push(at);
        }
        Rows {
            offsets,
            data: vec![T::default(); total],
        }
    }

    /// Row `i` as a slice.
    #[inline]
    fn row(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Precomputed full-knowledge index of one trace under one disk layout.
#[derive(Debug)]
pub struct Oracle {
    /// Compact index of the block at each position (`NONE32` for
    /// undisclosed positions). Together with `blocks` this is also the
    /// reference sequence: [`Oracle::block_at`] reads through it.
    seq_idx: Vec<u32>,
    /// Compact index assignment. Disclosed blocks come first, in
    /// first-appearance order; universe-only blocks (known to exist but
    /// never disclosed) follow.
    index: FastMap<BlockId, u32>,
    /// Inverse of `index`.
    blocks: Vec<BlockId>,
    /// Every position at which each block is referenced, ascending, by
    /// compact index. Universe-only blocks have empty rows.
    occurrences: Rows<u32>,
    /// Disk of each block (cached from the layout).
    layout: Layout,
    /// The compact indices in `BlockId` order, built on first use.
    ranks: OnceLock<Ranks>,
}

/// The compact indices of an [`Oracle`] ordered by `BlockId`: the order
/// Belady's rule breaks ties in among blocks never referenced again.
#[derive(Debug)]
pub(crate) struct Ranks {
    /// Compact index of each rank, ascending by `BlockId`.
    pub(crate) by_rank: Vec<u32>,
    /// Rank of each compact index (the inverse of `by_rank`).
    pub(crate) rank: Vec<u32>,
}

impl Oracle {
    /// Builds the oracle for `trace` under `layout`.
    pub fn new(trace: &Trace, layout: Layout) -> Oracle {
        let entries: Vec<(usize, BlockId)> = trace
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.block))
            .collect();
        Oracle::from_positions(entries.len(), entries, layout)
    }

    /// Builds the oracle from explicit `(position, block)` entries over a
    /// sequence of length `len`. Positions absent from `entries` are
    /// *undisclosed*: they have no occurrences and [`block_at`] returns a
    /// reserved unknown block for them. This is how incomplete hints
    /// (`crate::hints`) restrict a policy's knowledge.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range or appears twice.
    ///
    /// [`block_at`]: Oracle::block_at
    pub(crate) fn from_positions(
        len: usize,
        entries: Vec<(usize, BlockId)>,
        layout: Layout,
    ) -> Oracle {
        Oracle::from_positions_with_universe(len, entries, &[], layout)
    }

    /// [`Oracle::from_positions`], additionally assigning compact indices
    /// to every block of `universe` (deduplicated against the disclosed
    /// blocks). The engine uses this so blocks the application references
    /// without disclosing them still live in the dense index space: their
    /// cache state can then be tracked by bitset like any other block,
    /// while their (empty) occurrence lists keep them invisible to
    /// policies.
    pub(crate) fn from_positions_with_universe(
        len: usize,
        mut entries: Vec<(usize, BlockId)>,
        universe: &[BlockId],
        layout: Layout,
    ) -> Oracle {
        assert!(
            len < NONE32 as usize,
            "sequence length must fit the u32 position encoding"
        );
        if !entries.is_sorted_by_key(|&(pos, _)| pos) {
            entries.sort_by_key(|&(pos, _)| pos);
        }
        let mut seq_idx = vec![NONE32; len];
        // Sized by growth, not by `entries.len()`: a trace has far fewer
        // distinct blocks than references, and a table sized per
        // reference stays resident for the oracle's whole life.
        let mut index: FastMap<BlockId, u32> = FastMap::default();
        let mut blocks: Vec<BlockId> = Vec::new();
        // Pass 1: assign compact indices and count each block's entries,
        // so the occurrence lists can be laid out flat (one allocation)
        // instead of one growing `Vec` per block.
        let mut counts: Vec<u32> = Vec::new();
        for &(pos, block) in &entries {
            assert!(pos < len, "entry position {pos} out of range");
            assert_eq!(seq_idx[pos], NONE32, "duplicate entry position {pos}");
            let idx = *index.entry(block).or_insert_with(|| {
                blocks.push(block);
                counts.push(0);
                (blocks.len() - 1) as u32
            });
            seq_idx[pos] = idx;
            counts[idx as usize] += 1;
        }
        for &block in universe {
            index.entry(block).or_insert_with(|| {
                blocks.push(block);
                counts.push(0);
                (blocks.len() - 1) as u32
            });
        }
        // Pass 2: fill the occurrence rows in place. Entries are
        // ascending by position, so each row fills in ascending order.
        let mut occurrences = Rows::<u32>::from_counts(&counts);
        let mut occ_cursor: Vec<u32> = occurrences.offsets[..counts.len()].to_vec();
        for &(pos, _) in &entries {
            let idx = seq_idx[pos] as usize;
            occurrences.data[occ_cursor[idx] as usize] = pos as u32;
            occ_cursor[idx] += 1;
        }
        Oracle {
            seq_idx,
            index,
            blocks,
            occurrences,
            layout,
            ranks: OnceLock::new(),
        }
    }

    /// The compact indices ranked by `BlockId`, computed once per oracle
    /// on first use: runs that share an oracle share its ranks.
    pub(crate) fn ranks(&self) -> &Ranks {
        self.ranks.get_or_init(|| {
            let mut by_rank: Vec<u32> = (0..self.blocks.len() as u32).collect();
            by_rank.sort_unstable_by_key(|&i| self.blocks[i as usize]);
            let mut rank = vec![0u32; by_rank.len()];
            for (r, &i) in by_rank.iter().enumerate() {
                rank[i as usize] = r as u32;
            }
            Ranks { by_rank, rank }
        })
    }

    /// Number of references in the sequence.
    pub fn len(&self) -> usize {
        self.seq_idx.len()
    }

    /// True for an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.seq_idx.is_empty()
    }

    /// Number of blocks holding a compact index (disclosed plus
    /// universe-only). This is the capacity the cache sizes its dense
    /// structures to.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block referenced at `pos`, or `UNKNOWN_BLOCK` for an
    /// undisclosed position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn block_at(&self, pos: usize) -> BlockId {
        match self.seq_idx[pos] {
            NONE32 => UNKNOWN_BLOCK,
            idx => self.blocks[idx as usize],
        }
    }

    /// The compact index of the (disclosed) block at `pos`, or `None`
    /// for an undisclosed position. O(1).
    #[inline]
    pub fn index_at(&self, pos: usize) -> Option<u32> {
        let i = self.seq_idx[pos];
        (i != NONE32).then_some(i)
    }

    /// The compact index of the block at every position, `u32::MAX` at
    /// undisclosed ones.
    pub(crate) fn seq_indices(&self) -> &[u32] {
        &self.seq_idx
    }

    /// The compact index of `block`, if it has one. This is the single
    /// remaining hash lookup; hot paths resolve it once per block and
    /// stay in index space afterwards.
    pub fn index_of(&self, block: BlockId) -> Option<u32> {
        self.index.get(&block).copied()
    }

    /// The block holding compact index `idx`. O(1).
    #[inline]
    pub(crate) fn block_of(&self, idx: u32) -> BlockId {
        self.blocks[idx as usize]
    }

    /// The layout used to build this oracle.
    pub(crate) fn layout(&self) -> Layout {
        self.layout
    }

    /// The disk holding `block`.
    pub(crate) fn disk_of(&self, block: BlockId) -> DiskId {
        self.layout.disk_of(block)
    }

    /// The first position `>= at` referencing the block with compact
    /// index `idx`, or `NEVER`: binary search over the block's dense
    /// occurrence list, no hashing. A caller whose queries never move
    /// backwards reads the same answers from a [`NextUseCursors`] in
    /// amortized O(1).
    pub fn next_occurrence_idx(&self, idx: u32, at: usize) -> usize {
        let occ = self.occurrences.row(idx as usize);
        let i = occ.partition_point(|&p| (p as usize) < at);
        occ.get(i).map_or(NEVER, |&p| p as usize)
    }

    /// Whether block `idx` is referenced at or after position `at`: its
    /// last occurrence is at least `at`. O(1).
    #[inline]
    pub(crate) fn occurs_at_or_after(&self, idx: u32, at: usize) -> bool {
        self.occurrences
            .row(idx as usize)
            .last()
            .is_some_and(|&p| p as usize >= at)
    }

    /// The last position `< before` referencing `block`, or `None` —
    /// binary search over the block's sorted occurrence list.
    pub(crate) fn last_occurrence_before(&self, block: BlockId, before: usize) -> Option<usize> {
        let idx = self.index_of(block)?;
        let occ = self.occurrences.row(idx as usize);
        let i = occ.partition_point(|&p| (p as usize) < before);
        i.checked_sub(1).map(|i| occ[i] as usize)
    }

    /// The distinct *disclosed* blocks of the sequence, in
    /// first-appearance order: the blocks with occurrences, which hold
    /// the leading compact indices.
    #[cfg(test)]
    pub(crate) fn distinct_blocks(&self) -> Vec<BlockId> {
        let disclosed = (0..self.blocks.len()).take_while(|&i| !self.occurrences.row(i).is_empty());
        disclosed.map(|i| self.blocks[i]).collect()
    }
}

/// Run-local forward cursors into an [`Oracle`]'s occurrence rows: one
/// per block, pointing at the first occurrence not behind the block's
/// last query.
///
/// A run builds one set, owned by its [`Cache`](crate::cache::Cache),
/// and every next-use query of the run goes through it: a referenced
/// block's new key, a completed fetch's key, a predicted key's check,
/// and the positions the missing-block index moves on a fetch, an
/// eviction or an abandoned fetch.
///
/// Within one run the cursor position a caller asks from never moves
/// backwards, so a block's cursor only advances, and the work of every
/// query of a run together is bounded by the rows' total length: each
/// query is amortized O(1) instead of [`Oracle::next_occurrence_idx`]'s
/// binary search. A query that does move backwards is still answered
/// exactly, by re-seeking the block's cursor with that binary search,
/// which stays the spec every answer is checked against in debug builds.
#[derive(Debug, Clone)]
pub struct NextUseCursors {
    /// Per compact index: an offset into the oracle's flat occurrence
    /// data inside the block's row; every occurrence before it lies
    /// before the block's last query position.
    at: Vec<u32>,
}

impl NextUseCursors {
    /// Cursors at the start of every row of `oracle`.
    pub fn new(oracle: &Oracle) -> NextUseCursors {
        NextUseCursors {
            at: oracle.occurrences.offsets[..oracle.num_blocks()].to_vec(),
        }
    }

    /// The first position `>= at` referencing block `idx`, or `NEVER`:
    /// [`Oracle::next_occurrence_idx`], read from the block's cursor.
    #[inline]
    pub fn next(&mut self, oracle: &Oracle, idx: u32, at: usize) -> usize {
        let i = idx as usize;
        let offsets = &oracle.occurrences.offsets;
        let data = &oracle.occurrences.data;
        let end = offsets[i + 1] as usize;
        let mut c = self.at[i] as usize;
        if c < end && (data[c] as usize) < at {
            // Forward: a query usually passes one occurrence at most.
            // Gallop, then finish with a binary search, so a long jump
            // costs its logarithm rather than its length.
            let mut lo = c + 1;
            let mut step = 1;
            let hi = loop {
                let probe = c + step;
                if probe >= end {
                    break end;
                }
                if data[probe] as usize >= at {
                    break probe;
                }
                lo = probe + 1;
                step *= 2;
            };
            c = lo + data[lo..hi].partition_point(|&p| (p as usize) < at);
        } else {
            let start = offsets[i] as usize;
            if c > start && data[c - 1] as usize >= at {
                // The query moved backwards: re-seek from the row start.
                c = start + data[start..c].partition_point(|&p| (p as usize) < at);
            }
        }
        self.at[i] = c as u32;
        let next = if c < end { data[c] as usize } else { NEVER };
        debug_assert_eq!(
            next,
            oracle.next_occurrence_idx(idx, at),
            "next-use cursor of block index {idx} at {at}"
        );
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_trace::Request;
    use parcache_types::Nanos;

    fn trace_of(blocks: &[u64]) -> Trace {
        Trace::new(
            "t",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_millis(1),
                })
                .collect(),
            4,
        )
    }

    #[test]
    fn next_occurrence_binary_search() {
        let t = trace_of(&[1, 2, 1, 3, 1]);
        let o = Oracle::new(&t, Layout::striped(1));
        let (one, three) = (
            o.index_of(BlockId(1)).unwrap(),
            o.index_of(BlockId(3)).unwrap(),
        );
        assert_eq!(o.next_occurrence_idx(one, 0), 0);
        assert_eq!(o.next_occurrence_idx(one, 1), 2);
        assert_eq!(o.next_occurrence_idx(one, 3), 4);
        assert_eq!(o.next_occurrence_idx(one, 5), NEVER);
        assert_eq!(o.next_occurrence_idx(three, 0), 3);
        assert_eq!(o.index_of(BlockId(99)), None);
    }

    #[test]
    fn distinct_blocks_in_first_appearance_order() {
        let t = trace_of(&[5, 3, 5, 7, 3]);
        let o = Oracle::new(&t, Layout::striped(1));
        assert_eq!(
            o.distinct_blocks(),
            vec![BlockId(5), BlockId(3), BlockId(7)]
        );
        let firsts: Vec<usize> = (0..3).map(|i| o.next_occurrence_idx(i, 0)).collect();
        assert_eq!(firsts, vec![0, 1, 3]);
    }

    #[test]
    fn block_at_and_len() {
        let t = trace_of(&[9, 8]);
        let o = Oracle::new(&t, Layout::striped(1));
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
        assert_eq!(o.block_at(1), BlockId(8));
    }

    #[test]
    fn never_sentinel_orders_after_everything() {
        const { assert!(NEVER > 1_000_000_000) };
    }

    #[test]
    fn compact_indices_cover_the_sequence() {
        let t = trace_of(&[5, 3, 5, 7, 3]);
        let o = Oracle::new(&t, Layout::striped(2));
        assert_eq!(o.num_blocks(), 3);
        for pos in 0..o.len() {
            let idx = o.index_at(pos).expect("fully disclosed");
            assert_eq!(o.block_of(idx), o.block_at(pos));
            assert_eq!(o.index_of(o.block_at(pos)), Some(idx));
        }
        assert_eq!(o.index_of(BlockId(99)), None);
    }

    #[test]
    fn next_use_cursors_match_binary_search() {
        // Mostly forward queries, as one run asks them, with occasional
        // jumps back (re-seeks) and far ahead (gallops), over universes
        // holding never-referenced blocks: every cursor answer must equal
        // the binary search, and so must `occurs_at_or_after`.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0xc0_5e55);
        for case in 0..200 {
            let len = rng.gen_range(1usize..=300);
            let universe = rng.gen_range(1u64..=24);
            let mut entries: Vec<(usize, BlockId)> = Vec::new();
            for i in 0..len {
                if rng.gen_bool(0.8) {
                    entries.push((i, BlockId(rng.gen_range(0..universe))));
                }
            }
            let extras: Vec<BlockId> = (universe..universe + 3).map(BlockId).collect();
            let o = Oracle::from_positions_with_universe(len, entries, &extras, Layout::striped(1));
            let mut cursors = NextUseCursors::new(&o);
            let mut at = 0usize;
            for _ in 0..400 {
                at = match rng.gen_range(0u64..20) {
                    0 => rng.gen_range(0..=len),
                    1 => at + rng.gen_range(0..=len / 2 + 1),
                    _ => at + rng.gen_range(0usize..=2),
                }
                .min(len + 1);
                let idx = rng.gen_range(0..o.num_blocks()) as u32;
                let want = o.next_occurrence_idx(idx, at);
                assert_eq!(
                    cursors.next(&o, idx, at),
                    want,
                    "case {case}: {idx} at {at}"
                );
                assert_eq!(o.occurs_at_or_after(idx, at), want != NEVER, "case {case}");
            }
        }
    }

    #[test]
    fn universe_blocks_get_indices_without_occurrences() {
        let entries = vec![(0, BlockId(4)), (2, BlockId(6))];
        let o = Oracle::from_positions_with_universe(
            3,
            entries,
            &[BlockId(6), BlockId(9)],
            Layout::striped(1),
        );
        assert_eq!(o.num_blocks(), 3, "6 deduplicates, 9 appended");
        let nine = o.index_of(BlockId(9)).expect("universe block indexed");
        assert_eq!(o.next_occurrence_idx(nine, 0), NEVER);
        assert_eq!(o.block_of(nine), BlockId(9));
        // Universe-only blocks stay invisible to disclosed-world queries.
        assert_eq!(o.distinct_blocks(), vec![BlockId(4), BlockId(6)]);
        assert_eq!(o.block_at(1), UNKNOWN_BLOCK);
        assert_eq!(o.index_at(1), None);
    }

    #[test]
    fn ranks_order_every_indexed_block_by_id() {
        let entries = vec![(0, BlockId(7)), (1, BlockId(2)), (2, BlockId(7))];
        let o = Oracle::from_positions_with_universe(
            3,
            entries,
            &[BlockId(9), BlockId(1)],
            Layout::striped(1),
        );
        let ranks = o.ranks();
        let ids: Vec<BlockId> = ranks.by_rank.iter().map(|&i| o.block_of(i)).collect();
        assert_eq!(ids, [1, 2, 7, 9].map(BlockId));
        for (r, &i) in ranks.by_rank.iter().enumerate() {
            assert_eq!(ranks.rank[i as usize] as usize, r);
        }
    }

    #[test]
    fn unsorted_entries_are_normalized() {
        let entries = vec![(3, BlockId(1)), (0, BlockId(1)), (2, BlockId(5))];
        let o = Oracle::from_positions(4, entries, Layout::striped(1));
        let idx = o.index_of(BlockId(1)).unwrap();
        assert_eq!(o.next_occurrence_idx(idx, 0), 0);
        assert_eq!(o.next_occurrence_idx(idx, 1), 3);
        assert_eq!(o.distinct_blocks(), vec![BlockId(1), BlockId(5)]);
    }

    #[test]
    fn last_occurrence_before_binary_search() {
        let t = trace_of(&[1, 2, 1, 3, 1]);
        let o = Oracle::new(&t, Layout::striped(1));
        assert_eq!(o.last_occurrence_before(BlockId(1), 5), Some(4));
        assert_eq!(o.last_occurrence_before(BlockId(1), 4), Some(2));
        assert_eq!(o.last_occurrence_before(BlockId(1), 1), Some(0));
        assert_eq!(o.last_occurrence_before(BlockId(1), 0), None);
        assert_eq!(o.last_occurrence_before(BlockId(9), 5), None);
        assert_eq!(o.last_occurrence_before(BlockId(3), NEVER), Some(3));
    }
}
