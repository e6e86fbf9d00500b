//! The block cache: residency, in-flight frame reservation, and
//! furthest-next-reference (Belady) eviction.
//!
//! §2.1 semantics: the cache holds `K` frames. Issuing a fetch reserves a
//! frame immediately — the evicted block becomes unavailable at issue time
//! and the incoming block becomes available at completion; neither is
//! accessible in between. `resident + in-flight <= K` always.
//!
//! All per-block state is keyed by the oracle's compact block index
//! (`u32`): residency and in-flight are bitsets, the LRU recency estimate
//! is a slot array. Membership tests on the reference hot path are a load
//! and a mask, with no hashing.
//!
//! The Belady victim is found on one next-use index in every
//! [`Knowledge`] regime; what the regime decides is how keys are formed
//! and whether a query checks them.

use crate::oracle::{NextUseCursors, Oracle, NEVER};
use parcache_types::{BitSet, FastMap, PosSet};
use std::collections::hash_map::Entry;

/// Sentinel in the `last_use` slot array for "never used".
const NO_USE: usize = usize::MAX;

/// What the policies' oracle knows about the future. It is fixed when
/// the cache is built and decides how Belady keys are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knowledge {
    /// The oracle holds exactly the references to come: oracle hints
    /// that disclose every reference, or reverse aggressive's pass over
    /// the disclosed sequence. A resident block's key is its next
    /// reference, which changes only when the block is referenced or its
    /// fetch completes.
    Exact,
    /// Oracle hints that disclose only some references. Blocks with no
    /// disclosed future are valued by LRU recency (`last use +
    /// capacity`), the way TIP2 values unhinted pages. Keys still change
    /// only when a block is referenced or its fetch completes.
    LruEstimate,
    /// Hints from an online predictor: the LRU estimate as above, and in
    /// addition the cursor passing a wrong guess moves the guessed
    /// block's next occurrence with no reference to push it. A block's
    /// key is then the one it was last given, and
    /// [`Cache::furthest_resident`] checks the top block's key against
    /// its current next use, re-keying it if stale, before answering.
    Predicted,
}

/// The cache state.
#[derive(Debug, Clone)]
pub struct Cache {
    capacity: usize,
    resident: BitSet,
    inflight: BitSet,
    knowledge: Knowledge,
    /// Every resident block by its Belady key.
    index: NextUseIndex,
    /// Most recent reference (or first fetch) position per compact
    /// index, for the LRU estimate; empty under [`Knowledge::Exact`].
    last_use: Vec<usize>,
    /// The run's next-use cursors: every next-use query of the run,
    /// the missing-block index's included, reads them.
    next_use: NextUseCursors,
    /// The block the application is about to reference, exempt from
    /// eviction. Without this, a block demand-fetched for an
    /// *undisclosed* reference (whose policy-visible next use is NEVER)
    /// would be evicted the instant it arrived, re-demanded, and the
    /// simulation would livelock — a real OS never evicts a page with an
    /// outstanding demand on it.
    pinned: Option<u32>,
}

/// Flag in [`NextUseIndex::slot`] for a block on a side chain.
const CHAINED: u32 = 1 << 31;

/// Sentinel in [`NextUseIndex::below`] for the last block of a chain.
const END: u32 = u32::MAX;

/// The next-use index: one member per resident block, ordered by
/// `(key, BlockId)`, so the largest member is Belady's victim with ties
/// going to the larger `BlockId`. A block's slot is its key, over
/// `[0, n + K + 1 + U)` for a sequence of `n` references, `K` frames
/// and `U` indexed blocks:
///
/// - a block keyed by its next use `p` sits in `sole` at `p`, the one
///   slot the oracle gives that block at `p`;
/// - a block never used again sits in `sole` at `n + K + 1 + rank`, its
///   rank in `BlockId` order, above every other key;
/// - a block keyed by the LRU estimate (at most `n + K`) sits in
///   `shared`, where several blocks, and a `sole` block too, may share
///   the slot: they hang on a short side chain in descending `BlockId`
///   order.
#[derive(Debug, Clone)]
struct NextUseIndex {
    /// Slots holding one block each, found from the slot itself.
    sole: PosSet,
    /// Slots holding a side chain (empty under [`Knowledge::Exact`]).
    shared: PosSet,
    /// Each side chain's first block, by slot.
    heads: FastMap<u32, u32>,
    /// Per block on a side chain, the next block down its chain or
    /// [`END`] (empty under [`Knowledge::Exact`]).
    below: Vec<u32>,
    /// Each resident block's slot, by compact index, with [`CHAINED`]
    /// set for a block on a side chain (meaningless for blocks that are
    /// not resident).
    slot: Vec<u32>,
    /// The sequence length `n`.
    len: usize,
    /// The first never-again slot, `n + K + 1`.
    never: usize,
    /// An inclusive upper bound on every member's slot, in `sole` and
    /// `shared` alike: [`NextUseIndex::insert`] raises it, and
    /// [`NextUseIndex::furthest`] lowers it to the largest member it
    /// finds, so a victim query starts just above the members instead
    /// of scanning down from the top of the range.
    top: usize,
}

impl NextUseIndex {
    fn new(oracle: &Oracle, capacity: usize, shared: bool) -> NextUseIndex {
        let (len, blocks) = (oracle.len(), oracle.num_blocks());
        let never = len + capacity + 1;
        assert!(
            never + blocks < CHAINED as usize,
            "sequence, cache and universe must fit u32 slots"
        );
        let chains = if shared { blocks } else { 0 };
        NextUseIndex {
            sole: PosSet::new(never + blocks),
            shared: PosSet::new(if shared { never } else { 0 }),
            heads: FastMap::default(),
            below: vec![END; chains],
            slot: vec![0; blocks],
            len,
            never,
            top: 0,
        }
    }

    /// Makes `key` block `idx`'s member: a position or [`NEVER`], or
    /// with `lru` an LRU estimate.
    fn insert(&mut self, idx: u32, key: usize, lru: bool, oracle: &Oracle) {
        if !lru {
            let s = match key {
                NEVER => self.never + oracle.ranks().rank[idx as usize] as usize,
                p => p,
            };
            let newly = self.sole.insert(s);
            debug_assert!(newly, "slot {s} held twice");
            self.slot[idx as usize] = s as u32;
            self.top = self.top.max(s);
            return;
        }
        assert!(key < self.never, "LRU estimate {key} out of range");
        self.slot[idx as usize] = key as u32 | CHAINED;
        self.top = self.top.max(key);
        let id = oracle.block_of(idx);
        match self.heads.entry(key as u32) {
            Entry::Vacant(e) => {
                e.insert(idx);
                self.below[idx as usize] = END;
                self.shared.insert(key);
            }
            Entry::Occupied(mut e) => {
                let head = *e.get();
                if id > oracle.block_of(head) {
                    self.below[idx as usize] = head;
                    e.insert(idx);
                    return;
                }
                let mut at = head;
                loop {
                    let next = self.below[at as usize];
                    if next == END || oracle.block_of(next) < id {
                        break;
                    }
                    at = next;
                }
                self.below[idx as usize] = self.below[at as usize];
                self.below[at as usize] = idx;
            }
        }
    }

    /// Removes block `idx`'s member and returns its key.
    fn remove(&mut self, idx: u32) -> usize {
        let m = self.slot[idx as usize];
        if m & CHAINED == 0 {
            let present = self.sole.remove(m as usize);
            debug_assert!(present, "block index {idx} holds no member");
            return self.key_at(m as usize);
        }
        let s = (m & !CHAINED) as usize;
        let below = self.below[idx as usize];
        let head = self.heads.get_mut(&(s as u32)).expect("chained slot");
        if *head == idx {
            if below == END {
                self.heads.remove(&(s as u32));
                self.shared.remove(s);
            } else {
                *head = below;
            }
        } else {
            let mut at = *head;
            while self.below[at as usize] != idx {
                at = self.below[at as usize];
            }
            self.below[at as usize] = below;
        }
        s
    }

    /// The key a slot stands for.
    fn key_at(&self, s: usize) -> usize {
        if s < self.never {
            s
        } else {
            NEVER
        }
    }

    /// The block in `sole` at slot `s`.
    fn sole_at(&self, s: usize, oracle: &Oracle) -> u32 {
        if s < self.len {
            oracle
                .index_at(s)
                .expect("members sit at disclosed positions")
        } else {
            oracle.ranks().by_rank[s - self.never]
        }
    }

    /// The block with the largest member other than `skip`, with its
    /// key: predecessor queries from the bound [`NextUseIndex::top`],
    /// repeated once to step past `skip`. The bound drops to the largest
    /// member's slot (0 when there is none).
    fn furthest(&mut self, skip: Option<u32>, oracle: &Oracle) -> Option<(u32, usize)> {
        let mut top = 0;
        let found = self.furthest_below(self.top, skip, oracle, &mut top);
        debug_assert!(
            {
                let mut naive = 0;
                let want = self.furthest_below(usize::MAX, skip, oracle, &mut naive);
                (found, top) == (want, naive)
            },
            "victim query from bound {} disagrees with one from the top",
            self.top
        );
        self.top = top;
        found
    }

    /// [`NextUseIndex::furthest`] among the members at or below slot
    /// `from`, raising `top` to the largest member's slot.
    fn furthest_below(
        &self,
        from: usize,
        skip: Option<u32>,
        oracle: &Oracle,
        top: &mut usize,
    ) -> Option<(u32, usize)> {
        if self.shared.is_empty() {
            // Every member is in `sole`, one block per slot.
            let mut s = self.sole.prev_at_or_before(from)?;
            *top = s;
            let mut b = self.sole_at(s, oracle);
            if Some(b) == skip {
                s = self.sole.prev_at_or_before(s.checked_sub(1)?)?;
                b = self.sole_at(s, oracle);
            }
            return Some((b, self.key_at(s)));
        }
        let mut from = from;
        loop {
            let sole = self.sole.prev_at_or_before(from);
            let chained = self.shared.prev_at_or_before(from);
            let s = sole.max(chained)?;
            *top = (*top).max(s);
            let mut best = (sole == Some(s))
                .then(|| self.sole_at(s, oracle))
                .filter(|&b| Some(b) != skip);
            if chained == Some(s) {
                let mut at = self.heads[&(s as u32)];
                if Some(at) == skip {
                    at = self.below[at as usize];
                }
                if at != END && best.is_none_or(|b| oracle.block_of(at) > oracle.block_of(b)) {
                    best = Some(at);
                }
            }
            if let Some(b) = best {
                return Some((b, self.key_at(s)));
            }
            from = s.checked_sub(1)?;
        }
    }
}

impl Cache {
    /// Creates an empty cache of `capacity` frames over `oracle`'s block
    /// universe, forming Belady keys the way `knowledge` allows.
    pub fn new(capacity: usize, oracle: &Oracle, knowledge: Knowledge) -> Cache {
        assert!(capacity > 0, "cache must hold at least one block");
        let universe = oracle.num_blocks();
        let lru = knowledge != Knowledge::Exact;
        Cache {
            capacity,
            resident: BitSet::with_capacity(universe),
            inflight: BitSet::with_capacity(universe),
            knowledge,
            index: NextUseIndex::new(oracle, capacity, lru),
            last_use: if lru {
                vec![NO_USE; universe]
            } else {
                Vec::new()
            },
            next_use: NextUseCursors::new(oracle),
            pinned: None,
        }
    }

    /// Block `idx`'s Belady key given its next occurrence `next`, and
    /// whether it is an LRU estimate: that occurrence, or — under the
    /// LRU estimate, for a block with no disclosed future — its last use
    /// plus the cache capacity.
    fn key(&self, idx: u32, next: usize) -> (usize, bool) {
        if next != NEVER || self.knowledge == Knowledge::Exact {
            return (next, false);
        }
        match self.last_use[idx as usize] {
            NO_USE => (NEVER, false),
            lu => (lu + self.capacity, true),
        }
    }

    /// Keys resident block `idx` by its next occurrence `next`.
    fn push(&mut self, idx: u32, next: usize, oracle: &Oracle) {
        let (key, lru) = self.key(idx, next);
        self.index.insert(idx, key, lru, oracle);
    }

    /// The first position `>= at` referencing block `idx`, or `NEVER`,
    /// read from the run's next-use cursors: amortized O(1) while the
    /// positions asked about one block never move backwards.
    pub(crate) fn next_use(&mut self, idx: u32, at: usize, oracle: &Oracle) -> usize {
        self.next_use.next(oracle, idx, at)
    }

    /// The Belady key of block `idx` for an event at position `pos`.
    fn key_for(&self, idx: u32, pos: usize, oracle: &Oracle) -> usize {
        self.key(idx, oracle.next_occurrence_idx(idx, pos)).0
    }

    /// Pins block `idx` against eviction (the engine pins the current
    /// reference); `None` unpins.
    pub(crate) fn pin(&mut self, idx: Option<u32>) {
        self.pinned = idx;
    }

    /// The currently pinned block, if any.
    pub(crate) fn pinned(&self) -> Option<u32> {
        self.pinned
    }

    /// Frame count.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when block `idx` is available in the cache.
    #[inline]
    pub fn resident(&self, idx: u32) -> bool {
        self.resident.contains(idx)
    }

    /// True when a fetch of block `idx` has been issued but not completed.
    #[inline]
    pub fn inflight(&self, idx: u32) -> bool {
        self.inflight.contains(idx)
    }

    /// Number of resident blocks.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// True when a fetch can be issued without evicting anything.
    pub fn has_free_frame(&self) -> bool {
        self.resident.len() + self.inflight.len() < self.capacity
    }

    /// Begins a fetch of block `idx`, evicting `evict` if given.
    ///
    /// # Panics
    ///
    /// Panics on violated invariants: fetching a resident or in-flight
    /// block, evicting a non-resident block, or fetching without a frame.
    pub fn start_fetch(&mut self, idx: u32, evict: Option<u32>) {
        assert!(!self.resident(idx), "fetching resident block index {idx}");
        assert!(!self.inflight(idx), "duplicate fetch of block index {idx}");
        if let Some(e) = evict {
            assert!(Some(e) != self.pinned, "evicting pinned block index {e}");
            assert!(
                self.resident.remove(e),
                "evicting non-resident block index {e}"
            );
            self.index.remove(e);
        } else {
            assert!(
                self.resident.len() + self.inflight.len() < self.capacity,
                "no free frame and no eviction"
            );
        }
        self.inflight.insert(idx);
    }

    /// Completes the fetch of block `idx` at cursor position `cursor`:
    /// the block becomes resident, keyed by its next occurrence, read
    /// from the cache's run-local cursors (amortized O(1) while `cursor`
    /// never moves backwards).
    ///
    /// # Panics
    ///
    /// Panics if no fetch of block `idx` was in flight.
    pub fn complete_fetch(&mut self, idx: u32, cursor: usize, oracle: &Oracle) {
        assert!(
            self.inflight.remove(idx),
            "completing unfetched block index {idx}"
        );
        self.resident.insert(idx);
        if self.last_use.get(idx as usize) == Some(&NO_USE) {
            self.last_use[idx as usize] = cursor;
        }
        let next = self.next_use.next(oracle, idx, cursor);
        self.push(idx, next, oracle);
    }

    /// Abandons the in-flight fetch of block `idx`: the reserved frame is
    /// released and the block is neither resident nor in flight (the
    /// driver gave up on the request; see the engine's retry policy).
    ///
    /// # Panics
    ///
    /// Panics if no fetch of block `idx` was in flight.
    pub(crate) fn cancel_fetch(&mut self, idx: u32) {
        assert!(
            self.inflight.remove(idx),
            "cancelling unfetched block index {idx}"
        );
    }

    /// Records that the application consumed block `idx` at position
    /// `pos`: refreshes its Belady key to the next occurrence after
    /// `pos`, read from the run's cursors at `pos + 1`.
    pub(crate) fn on_reference(&mut self, idx: u32, pos: usize, oracle: &Oracle) {
        debug_assert!(
            self.resident(idx),
            "consumed non-resident block index {idx}"
        );
        let old = self.index.remove(idx);
        debug_assert!(
            self.knowledge != Knowledge::Exact || old == pos,
            "referenced block index {idx} is keyed elsewhere"
        );
        if let Some(lu) = self.last_use.get_mut(idx as usize) {
            *lu = pos + 1;
        }
        let next = self.next_use.next(oracle, idx, pos + 1);
        self.push(idx, next, oracle);
    }

    /// The evictable resident block whose key is largest, with that key
    /// (`NEVER` if it is never referenced again). `None` when nothing
    /// evictable is resident. The pinned block is never returned. Ties on
    /// the key go to the larger `BlockId`.
    ///
    /// Under [`Knowledge::Exact`] and [`Knowledge::LruEstimate`] every
    /// key is current (it changes only when pushed), so this is a
    /// predecessor query on the next-use index, and callers may ask early
    /// or often without changing any later answer: a query only lowers
    /// the index's upper bound on its members' slots to the largest
    /// member, which changes where later queries start and not what they
    /// find. Under
    /// [`Knowledge::Predicted`] the top block's key is checked against
    /// its next use at or after `cursor`: a stale one is re-keyed and the
    /// query looks again, and a pinned one is set aside. Re-keying
    /// changes the index, so there the number and timing of these calls
    /// are part of the run's output.
    pub fn furthest_resident(&mut self, cursor: usize, oracle: &Oracle) -> Option<(u32, usize)> {
        if self.knowledge != Knowledge::Predicted {
            let found = self.index.furthest(self.pinned, oracle);
            debug_assert!(
                found.is_none_or(|(idx, key)| key == self.key_for(idx, cursor, oracle)),
                "next-use index holds a stale key at cursor {cursor}"
            );
            return found;
        }
        let mut skip = None;
        loop {
            let (idx, held) = self.index.furthest(skip, oracle)?;
            let next = self.next_use.next(oracle, idx, cursor);
            let (key, lru) = self.key(idx, next);
            if key != held {
                self.index.remove(idx);
                self.index.insert(idx, key, lru, oracle);
            } else if Some(idx) == self.pinned {
                skip = self.pinned;
            } else {
                return Some((idx, key));
            }
        }
    }

    /// Iterates over resident block indices, ascending.
    pub(crate) fn resident_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.resident.ones()
    }
}

/// Dynamic index of *missing* blocks' next occurrences.
///
/// For every block that is neither resident nor in flight, the tracker
/// holds the position of its next reference, globally and per disk, in
/// [`PosSet`] bitsets over the trace's positions. This is what lets every
/// policy find "the first missing block (on disk D)" in near-constant
/// time instead of scanning the future.
#[derive(Debug, Clone)]
pub(crate) struct MissingTracker {
    /// Next-occurrence positions of missing blocks, global.
    global: PosSet,
    /// The same positions partitioned by disk.
    per_disk: Vec<PosSet>,
    /// Per-disk insertion epochs: bumped on every insert that actually
    /// adds a position to that disk's set. Consumers (forestall's
    /// incremental stall predictor) cache derived verdicts keyed by the
    /// two direction-split epochs; no-stall verdicts are insensitive to
    /// removals (fewer missing blocks can only weaken a stall), so they
    /// key on this counter alone, plus the positions in `recent_ins`.
    /// Queries and `NEVER`-position no-ops never bump.
    ins_epochs: Vec<u64>,
    /// Per-disk removal epochs: the mirror of `ins_epochs` for removes.
    /// Stall-predicted verdicts are insensitive to insertions (more
    /// missing blocks can only strengthen a stall) and key on this.
    rem_epochs: Vec<u64>,
    /// Per-disk ring of the last [`RECENT_INS`] inserted positions, slot
    /// `epoch % RECENT_INS` holding the insert that bumped `ins_epochs`
    /// to `epoch`. [`MissingTracker::inserts_since`] hands a cached
    /// verdict the few insertions since its last check, so the verdict
    /// can absorb them instead of being thrown away.
    recent_ins: Vec<[usize; RECENT_INS]>,
}

/// Ring capacity of [`MissingTracker::recent_ins`]: enough to span the
/// insertions a policy's whole fetch batch causes between two decision
/// points.
const RECENT_INS: usize = 32;

impl MissingTracker {
    /// Builds the tracker for a cold cache: every distinct block is
    /// missing at its first occurrence.
    pub(crate) fn new(oracle: &Oracle) -> MissingTracker {
        let disks = oracle.layout().disks();
        let mut t = MissingTracker {
            global: PosSet::new(oracle.len()),
            per_disk: vec![PosSet::new(oracle.len()); disks],
            ins_epochs: vec![0; disks],
            rem_epochs: vec![0; disks],
            recent_ins: vec![[0; RECENT_INS]; disks],
        };
        for idx in 0..oracle.num_blocks() as u32 {
            t.on_evicted_idx(idx, oracle.next_occurrence_idx(idx, 0), oracle);
        }
        t
    }

    /// The insertion epoch of `disk`'s position set.
    #[inline]
    pub(crate) fn ins_epoch(&self, disk: usize) -> u64 {
        self.ins_epochs[disk]
    }

    /// The removal epoch of `disk`'s position set.
    #[inline]
    pub(crate) fn rem_epoch(&self, disk: usize) -> u64 {
        self.rem_epochs[disk]
    }

    /// The positions inserted on `disk` since insertion epoch `since`,
    /// oldest first. Returns `None` when more than `RECENT_INS`
    /// insertions happened since and the ring no longer remembers them
    /// all.
    #[inline]
    pub(crate) fn inserts_since(
        &self,
        disk: usize,
        since: u64,
    ) -> Option<impl Iterator<Item = usize> + '_> {
        let now = self.ins_epochs[disk];
        debug_assert!(since <= now, "insertion epochs only grow");
        if now - since > RECENT_INS as u64 {
            return None;
        }
        let ring = &self.recent_ins[disk];
        Some((since + 1..=now).map(move |e| ring[(e % RECENT_INS as u64) as usize]))
    }

    #[inline]
    fn record_insert(&mut self, disk: usize, pos: usize) {
        let e = self.ins_epochs[disk] + 1;
        self.ins_epochs[disk] = e;
        self.recent_ins[disk][(e % RECENT_INS as u64) as usize] = pos;
    }

    /// A fetch of block `idx` was issued: it is no longer missing at
    /// `pos`, its next use at or after the cursor, which the caller reads
    /// from [`Cache::next_use`]. `NEVER` is a no-op.
    pub(crate) fn on_fetch_issued_idx(&mut self, idx: u32, pos: usize, oracle: &Oracle) {
        if pos == NEVER {
            return;
        }
        debug_assert_eq!(oracle.block_at(pos), oracle.block_of(idx));
        let d = oracle.disk_of(oracle.block_of(idx)).index();
        self.global.remove(pos);
        self.per_disk[d].remove(pos);
        self.rem_epochs[d] += 1;
    }

    /// Block `idx` was evicted, or its fetch abandoned: it is missing
    /// again at `pos`, its next use at or after the cursor, which the
    /// caller reads from [`Cache::next_use`]. `NEVER` is a no-op. A cold
    /// tracker starts every block this way at its first occurrence.
    pub(crate) fn on_evicted_idx(&mut self, idx: u32, pos: usize, oracle: &Oracle) {
        if pos == NEVER {
            return;
        }
        debug_assert_eq!(oracle.block_at(pos), oracle.block_of(idx));
        let d = oracle.disk_of(oracle.block_of(idx)).index();
        self.global.insert(pos);
        self.per_disk[d].insert(pos);
        self.record_insert(d, pos);
    }

    /// The first position `>= from` whose block is missing, globally.
    #[inline]
    pub(crate) fn first_missing(&self, from: usize) -> Option<usize> {
        self.global.next_at_or_after(from)
    }

    /// The first position `>= from` whose block is missing and lives on
    /// `disk`.
    #[inline]
    pub(crate) fn first_missing_on_disk(&self, disk: usize, from: usize) -> Option<usize> {
        self.per_disk[disk].next_at_or_after(from)
    }

    /// Positions of missing blocks at or after `from` on `disk`,
    /// ascending, as the concrete [`PosSet`] iterator. Unlike
    /// [`MissingTracker::missing_on_disk_in_window`] the window bound is
    /// the caller's job; in exchange the iterator's popcount-skipping
    /// `nth` stays reachable (an adapter like `take_while` would hide it
    /// behind the one-step default).
    #[inline]
    pub(crate) fn missing_on_disk_from(
        &self,
        disk: usize,
        from: usize,
    ) -> parcache_types::posset::Iter<'_> {
        self.per_disk[disk].iter_from(from)
    }

    /// Positions of missing blocks in `[from, to)` on `disk`, ascending.
    pub(crate) fn missing_on_disk_in_window(
        &self,
        disk: usize,
        from: usize,
        to: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        self.per_disk[disk]
            .iter_from(from)
            .take_while(move |&p| p < to)
    }

    /// Total missing-block entries (diagnostics).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.global.len()
    }

    /// True when nothing is missing.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.global.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_disk::layout::Layout;
    use parcache_trace::{Request, Trace};
    use parcache_types::{BlockId, Nanos};
    use std::collections::BinaryHeap;

    /// Oracle over `blocks`, with `extras` given compact indices despite
    /// never being referenced (the way the engine indexes the full trace
    /// universe under incomplete hints).
    fn oracle_with_extras(blocks: &[u64], disks: usize, extras: &[u64]) -> Oracle {
        let entries: Vec<(usize, BlockId)> = blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| (i, BlockId(b)))
            .collect();
        let universe: Vec<BlockId> = extras.iter().map(|&b| BlockId(b)).collect();
        Oracle::from_positions_with_universe(
            blocks.len(),
            entries,
            &universe,
            Layout::striped(disks),
        )
    }

    fn oracle_of(blocks: &[u64], disks: usize) -> Oracle {
        let t = Trace::new(
            "t",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_millis(1),
                })
                .collect(),
            4,
        );
        Oracle::new(&t, Layout::striped(disks))
    }

    fn idx(o: &Oracle, b: u64) -> u32 {
        o.index_of(BlockId(b)).unwrap()
    }

    #[test]
    fn fetch_lifecycle() {
        let o = oracle_of(&[1, 2, 1], 1);
        let mut c = Cache::new(2, &o, Knowledge::Exact);
        let b1 = idx(&o, 1);
        assert!(c.has_free_frame());
        c.start_fetch(b1, None);
        assert!(c.inflight(b1));
        assert!(!c.resident(b1));
        c.complete_fetch(b1, 0, &o);
        assert!(c.resident(b1));
        assert!(!c.inflight(b1));
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn frames_are_reserved_at_issue() {
        let o = oracle_of(&[1, 2, 3], 1);
        let mut c = Cache::new(2, &o, Knowledge::Exact);
        let (b1, b2, b3) = (idx(&o, 1), idx(&o, 2), idx(&o, 3));
        c.start_fetch(b1, None);
        c.start_fetch(b2, None);
        assert!(!c.has_free_frame());
        c.complete_fetch(b1, 0, &o);
        c.complete_fetch(b2, 0, &o);
        // Full cache: must evict to fetch.
        c.start_fetch(b3, Some(b1));
        assert!(!c.resident(b1));
        // The freed frame went to the fetch of block 3: one resident
        // block, one in flight, no frame to spare.
        assert!(c.resident(b2) && c.inflight(b3));
        assert_eq!(c.resident_count(), 1);
        assert!(!c.has_free_frame());
    }

    #[test]
    #[should_panic(expected = "no free frame")]
    fn overcommit_panics() {
        let o = oracle_of(&[0, 1], 1);
        let mut c = Cache::new(1, &o, Knowledge::Exact);
        c.start_fetch(idx(&o, 0), None);
        c.start_fetch(idx(&o, 1), None);
    }

    #[test]
    fn cancel_fetch_releases_the_frame() {
        let o = oracle_of(&[1, 2], 1);
        let mut c = Cache::new(1, &o, Knowledge::Exact);
        let b1 = idx(&o, 1);
        c.start_fetch(b1, None);
        assert!(!c.has_free_frame());
        c.cancel_fetch(b1);
        assert!(!c.inflight(b1));
        assert!(!c.resident(b1));
        // The frame is reusable, including for the same block again.
        c.start_fetch(b1, None);
        c.complete_fetch(b1, 0, &o);
        assert!(c.resident(b1));
    }

    #[test]
    #[should_panic(expected = "cancelling unfetched")]
    fn cancel_of_unfetched_block_panics() {
        let o = oracle_of(&[0, 1], 1);
        let mut c = Cache::new(2, &o, Knowledge::Exact);
        c.cancel_fetch(idx(&o, 1));
    }

    #[test]
    #[should_panic(expected = "duplicate fetch")]
    fn duplicate_fetch_panics() {
        let o = oracle_of(&[0, 1], 1);
        let mut c = Cache::new(2, &o, Knowledge::Exact);
        c.start_fetch(idx(&o, 1), None);
        c.start_fetch(idx(&o, 1), None);
    }

    #[test]
    fn belady_picks_furthest() {
        // Sequence: 1 2 3 1 2 3 ... blocks 9 and 42 never referenced but
        // part of the indexed universe.
        let o = oracle_with_extras(&[1, 2, 3, 1, 2, 3], 1, &[9, 42]);
        let mut c = Cache::new(4, &o, Knowledge::Exact);
        for b in [1u64, 2, 3, 9] {
            c.start_fetch(idx(&o, b), None);
            c.complete_fetch(idx(&o, b), 0, &o);
        }
        // Block 9 is never referenced: furthest.
        let (b, key) = c.furthest_resident(0, &o).unwrap();
        assert_eq!(b, idx(&o, 9));
        assert_eq!(key, NEVER);
        c.start_fetch(idx(&o, 42), Some(idx(&o, 9)));
        // Now block 3 (next ref at 2) is furthest among 1(0), 2(1), 3(2).
        let (b, key) = c.furthest_resident(0, &o).unwrap();
        assert_eq!((b, key), (idx(&o, 3), 2));
        // Block 42 lands never to be used again, like block 9 before it;
        // pinning it steps the index past it.
        c.complete_fetch(idx(&o, 42), 0, &o);
        assert_eq!(c.furthest_resident(0, &o).unwrap(), (idx(&o, 42), NEVER));
        c.pin(Some(idx(&o, 42)));
        assert_eq!(c.furthest_resident(0, &o).unwrap(), (idx(&o, 3), 2));
    }

    #[test]
    fn belady_keys_refresh_as_cursor_advances() {
        let o = oracle_of(&[1, 2, 1, 2], 1);
        let mut c = Cache::new(2, &o, Knowledge::Exact);
        let (b1, b2) = (idx(&o, 1), idx(&o, 2));
        for b in [b1, b2] {
            c.start_fetch(b, None);
            c.complete_fetch(b, 0, &o);
        }
        // At cursor 0: block 2 next at 1... block 1 at 0; furthest is 2.
        assert_eq!(c.furthest_resident(0, &o).unwrap().0, b2);
        // Consume positions 0 and 1; at cursor 2, next refs are 1->2, 2->3.
        c.on_reference(b1, 0, &o);
        c.on_reference(b2, 1, &o);
        assert_eq!(c.furthest_resident(2, &o).unwrap(), (b2, 3));
        // At cursor 4 both are NEVER; the tie goes to the larger block.
        c.on_reference(b1, 2, &o);
        c.on_reference(b2, 3, &o);
        assert_eq!(c.furthest_resident(4, &o).unwrap(), (b2, NEVER));
    }

    /// Asks `ix` for its victim past `skip`, and checks the answer and
    /// the bound against the same query from the top: the bound covers
    /// every member before the query and is the largest member's slot
    /// after it.
    fn ask(ix: &mut NextUseIndex, skip: Option<u32>, o: &Oracle) -> Option<(u32, usize)> {
        let highest = ix.sole.prev_at_or_before(usize::MAX);
        let highest = highest.max(ix.shared.prev_at_or_before(usize::MAX));
        assert!(
            highest <= Some(ix.top),
            "bound {} below {highest:?}",
            ix.top
        );
        let mut top = 0;
        let want = ix.furthest_below(usize::MAX, skip, o, &mut top);
        assert_eq!(ix.furthest(skip, o), want, "bound {top} skipping {skip:?}");
        assert_eq!(ix.top, top);
        want
    }

    #[test]
    fn victim_query_from_the_bound_matches_a_query_from_the_top() {
        // n = 10 references, K = 4 frames: the first never-again slot
        // is 15, and LRU estimates lie below it.
        let o = oracle_with_extras(&[1, 2, 3, 4, 5, 1, 2, 3, 4, 5], 1, &[9, 42]);
        let b = |id| idx(&o, id);
        let mut ix = NextUseIndex::new(&o, 4, true);
        for (id, pos) in [(1, 0), (2, 1), (3, 2), (4, 3)] {
            ix.insert(b(id), pos, false, &o);
        }
        assert_eq!(ask(&mut ix, None, &o), Some((b(4), 3)));
        // Evicting the top member leaves the bound above the rest.
        ix.remove(b(4));
        assert_eq!(ask(&mut ix, None, &o), Some((b(3), 2)));
        assert_eq!(ix.top, 2);
        // A never-again block lands above the bound.
        ix.insert(b(9), NEVER, false, &o);
        assert_eq!(ask(&mut ix, None, &o), Some((b(9), NEVER)));
        ix.remove(b(9));
        assert_eq!(ask(&mut ix, None, &o), Some((b(3), 2)));
        // An LRU estimate lands above every `sole` slot.
        ix.insert(b(5), 12, true, &o);
        assert_eq!(ask(&mut ix, None, &o), Some((b(5), 12)));
        ix.remove(b(5));
        assert_eq!(ask(&mut ix, None, &o), Some((b(3), 2)));
        // A predicted re-key raises block 3's key to its next use.
        ix.remove(b(3));
        ix.insert(b(3), 7, false, &o);
        assert_eq!(ask(&mut ix, None, &o), Some((b(3), 7)));
        // Emptied, the index has no victim and a bound of 0; refilled
        // lower, it finds the new top.
        for id in [1, 2, 3] {
            ix.remove(b(id));
        }
        assert_eq!(ask(&mut ix, None, &o), None);
        assert_eq!(ix.top, 0);
        ix.insert(b(1), 0, false, &o);
        ix.insert(b(2), 1, false, &o);
        assert_eq!(ask(&mut ix, None, &o), Some((b(2), 1)));
        // A pinned top is stepped past without lowering the bound below
        // it, in `sole` and on a side chain.
        ix.insert(b(4), 8, false, &o);
        assert_eq!(ask(&mut ix, Some(b(4)), &o), Some((b(2), 1)));
        assert_eq!(ix.top, 8);
        assert_eq!(ask(&mut ix, None, &o), Some((b(4), 8)));
        ix.insert(b(5), 12, true, &o);
        ix.insert(b(42), 12, true, &o);
        assert_eq!(ask(&mut ix, Some(b(42)), &o), Some((b(5), 12)));
        assert_eq!(ask(&mut ix, Some(b(5)), &o), Some((b(42), 12)));
        assert_eq!(ix.top, 12);
    }

    /// The naive spec of [`Cache::furthest_resident`] when every key
    /// change is pushed: a linear scan of the resident set for the
    /// largest `(key, block, index)`.
    fn furthest_by_scan(c: &Cache, cursor: usize, o: &Oracle) -> Option<(u32, usize)> {
        c.resident_indices()
            .filter(|&i| Some(i) != c.pinned())
            .map(|i| (c.key_for(i, cursor, o), o.block_of(i), i))
            .max()
            .map(|(key, _, i)| (i, key))
    }

    /// The reference lazy heap, the spec of [`Knowledge::Predicted`]:
    /// every key a block is given is pushed as a new entry, evictions
    /// leave their entries behind, and a query pops the top, drops it if
    /// evicted, re-pushes it re-keyed if stale, sets it aside if pinned,
    /// else pushes it back and answers.
    #[derive(Debug, Clone)]
    struct RefHeap {
        heap: BinaryHeap<(usize, BlockId, u32)>,
        last_use: Vec<usize>,
        capacity: usize,
    }

    impl RefHeap {
        fn new(o: &Oracle, capacity: usize) -> RefHeap {
            RefHeap {
                heap: BinaryHeap::new(),
                last_use: vec![NO_USE; o.num_blocks()],
                capacity,
            }
        }

        fn key(&self, idx: u32, next: usize) -> usize {
            match (next, self.last_use[idx as usize]) {
                (NEVER, NO_USE) => NEVER,
                (NEVER, lu) => lu + self.capacity,
                (next, _) => next,
            }
        }

        fn push(&mut self, idx: u32, next: usize, o: &Oracle) {
            let key = self.key(idx, next);
            self.heap.push((key, o.block_of(idx), idx));
        }

        fn complete_fetch(&mut self, idx: u32, cursor: usize, o: &Oracle) {
            if self.last_use[idx as usize] == NO_USE {
                self.last_use[idx as usize] = cursor;
            }
            self.push(idx, o.next_occurrence_idx(idx, cursor), o);
        }

        fn on_reference(&mut self, idx: u32, pos: usize, o: &Oracle) {
            self.last_use[idx as usize] = pos + 1;
            self.push(idx, o.next_occurrence_idx(idx, pos + 1), o);
        }

        fn furthest(&mut self, c: &Cache, cursor: usize, o: &Oracle) -> Option<(u32, usize)> {
            let mut stash = None;
            let mut found = None;
            while let Some((key, block, idx)) = self.heap.pop() {
                if !c.resident(idx) {
                    continue;
                }
                let actual = self.key(idx, o.next_occurrence_idx(idx, cursor));
                if actual != key {
                    self.heap.push((actual, block, idx));
                } else if Some(idx) == c.pinned() {
                    stash = Some((key, block, idx));
                } else {
                    self.heap.push((key, block, idx));
                    found = Some((idx, key));
                    break;
                }
            }
            if let Some(entry) = stash {
                self.heap.push(entry);
            }
            found
        }
    }

    /// A cache under test with the spec it is checked against: the
    /// linear scan, or under [`Knowledge::Predicted`] a reference lazy
    /// heap fed the same completions and references.
    struct Driven<'o> {
        c: Cache,
        shadow: Option<RefHeap>,
        o: &'o Oracle,
        case: usize,
    }

    impl Driven<'_> {
        fn complete_fetch(&mut self, idx: u32, cursor: usize) {
            self.c.complete_fetch(idx, cursor, self.o);
            if let Some(h) = &mut self.shadow {
                h.complete_fetch(idx, cursor, self.o);
            }
        }

        fn on_reference(&mut self, idx: u32, pos: usize) {
            self.c.on_reference(idx, pos, self.o);
            if let Some(h) = &mut self.shadow {
                h.on_reference(idx, pos, self.o);
            }
        }

        /// Asks the cache for its victim and checks the answer.
        fn check(&mut self, cursor: usize) -> Option<(u32, usize)> {
            let want = match &mut self.shadow {
                Some(h) => h.furthest(&self.c, cursor, self.o),
                None => furthest_by_scan(&self.c, cursor, self.o),
            };
            let got = self.c.furthest_resident(cursor, self.o);
            assert_eq!(got, want, "case {} at {cursor}", self.case);
            got
        }

        /// Asks zero to three times in a row, half the time.
        fn maybe_check(&mut self, cursor: usize, rng: &mut parcache_types::rng::Rng) {
            if rng.gen_bool(0.5) {
                for _ in 0..rng.gen_range(1usize..=3) {
                    self.check(cursor);
                }
            }
        }
    }

    /// Drives caches the way the engine does (pin the reference, random
    /// prefetches with random or Belady victims, completions and cancels
    /// at random later points, pins moved off a block without a
    /// reference to it, then consume), asks for the victim at random
    /// extra points as well (repeatedly at one cursor, with the pin
    /// moved, before and after completions), and checks every
    /// [`Cache::furthest_resident`] answer.
    ///
    /// - [`Knowledge::Exact`]: every position is disclosed and the
    ///   universe holds never-referenced blocks, so never-again ties
    ///   arise among many blocks; each answer must equal the linear
    ///   scan.
    /// - [`Knowledge::LruEstimate`]: partial disclosure puts undisclosed
    ///   blocks in the universe; each answer must equal the linear scan.
    /// - [`Knowledge::Predicted`]: a third of the disclosed positions
    ///   also guess a wrong block; each answer must equal the reference
    ///   lazy heap's.
    fn drive_cache(seed: u64, knowledge: Knowledge) {
        let mut rng = parcache_types::rng::Rng::seed_from_u64(seed);
        let exact = knowledge == Knowledge::Exact;
        let predicted = knowledge == Knowledge::Predicted;
        for case in 0..400 {
            let len = rng.gen_range(1usize..=200);
            let universe = rng.gen_range(1u64..=24);
            let blocks: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..universe)).collect();
            let mut entries: Vec<(usize, BlockId)> = Vec::new();
            for (i, &b) in blocks.iter().enumerate() {
                if exact || rng.gen_bool(0.8) {
                    let guess = match predicted && rng.gen_bool(0.3) {
                        true => rng.gen_range(0u64..universe),
                        false => b,
                    };
                    entries.push((i, BlockId(guess)));
                }
            }
            // Exact runs index a few blocks the trace never references.
            let all: Vec<BlockId> = (0..universe + if exact { 4 } else { 0 })
                .map(BlockId)
                .collect();
            let o = Oracle::from_positions_with_universe(len, entries, &all, Layout::striped(1));
            let capacity = rng.gen_range(1usize..=6);
            let mut d = Driven {
                c: Cache::new(capacity, &o, knowledge),
                shadow: predicted.then(|| RefHeap::new(&o, capacity)),
                o: &o,
                case,
            };
            let mut inflight: Vec<u32> = Vec::new();
            for (pos, &b) in blocks.iter().enumerate() {
                let r = o.index_of(BlockId(b)).unwrap();
                d.c.pin(Some(r));
                for _ in 0..rng.gen_range(0usize..4) {
                    d.check(pos);
                    if rng.gen_bool(0.5) {
                        let resident: Vec<u32> = d.c.resident_indices().collect();
                        d.c.pin(rng.choose(&resident).copied());
                        d.maybe_check(pos, &mut rng);
                        d.check(pos);
                        d.c.pin(Some(r));
                    }
                    if !inflight.is_empty() && rng.gen_bool(0.5) {
                        let i = inflight.swap_remove(rng.gen_range(0..inflight.len()));
                        d.maybe_check(pos, &mut rng);
                        if rng.gen_bool(0.2) {
                            d.c.cancel_fetch(i);
                        } else {
                            d.complete_fetch(i, pos);
                        }
                        d.maybe_check(pos, &mut rng);
                        continue;
                    }
                    let f = rng.gen_range(0..o.num_blocks()) as u32;
                    if d.c.resident(f) || d.c.inflight(f) {
                        continue;
                    }
                    let victim = if d.c.has_free_frame() {
                        None
                    } else if rng.gen_bool(0.5) {
                        d.check(pos).map(|(v, _)| v)
                    } else {
                        let evictable: Vec<u32> =
                            d.c.resident_indices()
                                .filter(|&i| Some(i) != d.c.pinned())
                                .collect();
                        rng.choose(&evictable).copied()
                    };
                    if victim.is_none() && !d.c.has_free_frame() {
                        continue;
                    }
                    d.c.start_fetch(f, victim);
                    inflight.push(f);
                }
                if d.c.inflight(r) {
                    inflight.retain(|&i| i != r);
                    d.maybe_check(pos, &mut rng);
                    d.complete_fetch(r, pos);
                } else if !d.c.resident(r) {
                    if !d.c.has_free_frame() {
                        if furthest_by_scan(&d.c, pos, &o).is_none() {
                            // Every other frame is in flight: land one.
                            let i = inflight.pop().unwrap();
                            d.complete_fetch(i, pos);
                        }
                        let (v, _) = furthest_by_scan(&d.c, pos, &o).unwrap();
                        d.c.start_fetch(r, Some(v));
                    } else {
                        d.c.start_fetch(r, None);
                    }
                    d.complete_fetch(r, pos);
                }
                d.check(pos);
                d.on_reference(r, pos);
                d.maybe_check(pos, &mut rng);
                d.c.pin(None);
                d.check(pos + 1);
            }
        }
    }

    #[test]
    fn next_use_index_matches_linear_scan() {
        drive_cache(0x1dec_5e75, Knowledge::Exact);
    }

    #[test]
    fn furthest_resident_matches_linear_scan() {
        drive_cache(0xbe1a_d711, Knowledge::LruEstimate);
    }

    #[test]
    fn furthest_resident_matches_the_lazy_heap_under_predicted_keys() {
        drive_cache(0x9e55_0d17, Knowledge::Predicted);
    }

    #[test]
    fn empty_cache_has_no_furthest() {
        let o = oracle_of(&[1], 1);
        for knowledge in [Knowledge::Exact, Knowledge::LruEstimate] {
            let mut c = Cache::new(2, &o, knowledge);
            assert_eq!(c.furthest_resident(0, &o), None);
        }
    }

    #[test]
    fn resident_indices_are_ascending() {
        let o = oracle_of(&[1, 2, 3], 1);
        let mut c = Cache::new(3, &o, Knowledge::Exact);
        for b in [3u64, 1, 2] {
            c.start_fetch(idx(&o, b), None);
            c.complete_fetch(idx(&o, b), 0, &o);
        }
        let got: Vec<u32> = c.resident_indices().collect();
        let mut want = vec![idx(&o, 1), idx(&o, 2), idx(&o, 3)];
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn tracker_initializes_with_first_occurrences() {
        let o = oracle_of(&[5, 6, 5, 7], 2);
        let t = MissingTracker::new(&o);
        assert_eq!(t.len(), 3);
        assert_eq!(t.first_missing(0), Some(0));
        assert_eq!(t.first_missing(1), Some(1));
        assert_eq!(t.first_missing(2), Some(3)); // 5 registered at 0 only
    }

    #[test]
    fn tracker_fetch_and_evict_cycle() {
        let o = oracle_of(&[5, 6, 5, 7], 1);
        let mut t = MissingTracker::new(&o);
        // Fetch 5 at cursor 0: its entry at position 0 goes.
        t.on_fetch_issued_idx(idx(&o, 5), 0, &o);
        assert_eq!(t.first_missing(0), Some(1)); // block 6
                                                 // Evict 5 at cursor 1: re-registered at its next ref, position 2.
        t.on_evicted_idx(idx(&o, 5), 2, &o);
        assert_eq!(t.first_missing(0), Some(1));
        assert_eq!(t.first_missing(2), Some(2));
    }

    #[test]
    fn tracker_per_disk_views() {
        // Striped over 2 disks: blocks 0,2 on disk 0; 1,3 on disk 1.
        let o = oracle_of(&[0, 1, 2, 3], 2);
        let t = MissingTracker::new(&o);
        assert_eq!(t.first_missing_on_disk(0, 0), Some(0));
        assert_eq!(t.first_missing_on_disk(1, 0), Some(1));
        assert_eq!(t.first_missing_on_disk(0, 1), Some(2));
        let w: Vec<usize> = t.missing_on_disk_in_window(1, 0, 4).collect();
        assert_eq!(w, vec![1, 3]);
    }

    #[test]
    fn tracker_ignores_never_referenced_evictions() {
        let o = oracle_of(&[1, 2], 1);
        let mut t = MissingTracker::new(&o);
        t.on_fetch_issued_idx(idx(&o, 1), 0, &o);
        t.on_fetch_issued_idx(idx(&o, 2), 1, &o);
        assert!(t.is_empty());
        // Evicting block 1 at cursor 2 (past its last reference): no entry.
        t.on_evicted_idx(idx(&o, 1), NEVER, &o);
        assert!(t.is_empty());
    }

    #[test]
    fn window_queries() {
        let o = oracle_of(&[0, 1, 2, 3, 4], 1);
        let t = MissingTracker::new(&o);
        assert_eq!(t.first_missing(1), Some(1));
        assert_eq!(t.first_missing(5), None);
        // One disk holds every block, so its window is the global one.
        let w: Vec<usize> = t.missing_on_disk_in_window(0, 1, 4).collect();
        assert_eq!(w, vec![1, 2, 3]);
    }

    #[test]
    fn epochs_bump_exactly_on_per_disk_mutation() {
        // Striped over 2 disks: blocks 0,2 on disk 0; 1,3 on disk 1.
        let o = oracle_of(&[0, 1, 2, 3, 0], 2);
        let mut t = MissingTracker::new(&o);
        let (i0, r0) = (t.ins_epoch(0), t.rem_epoch(0));
        let (i1, r1) = (t.ins_epoch(1), t.rem_epoch(1));
        // Queries never bump.
        let _ = t.first_missing_on_disk(0, 0);
        let _: Vec<usize> = t.missing_on_disk_in_window(1, 0, 5).collect();
        assert_eq!((t.ins_epoch(0), t.rem_epoch(0)), (i0, r0));
        // A fetch on disk 0 bumps only disk 0's removal epoch.
        t.on_fetch_issued_idx(idx(&o, 0), 0, &o);
        assert_eq!((t.ins_epoch(0), t.rem_epoch(0)), (i0, r0 + 1));
        assert_eq!((t.ins_epoch(1), t.rem_epoch(1)), (i1, r1));
        // An eviction re-registering block 0 at its next use (position 4)
        // bumps only disk 0's insertion epoch.
        t.on_evicted_idx(idx(&o, 0), 4, &o);
        assert_eq!((t.ins_epoch(0), t.rem_epoch(0)), (i0 + 1, r0 + 1));
        assert_eq!((t.ins_epoch(1), t.rem_epoch(1)), (i1, r1));
        // A `NEVER`-position no-op (block 1 evicted past its last use)
        // leaves the set untouched and must not bump.
        t.on_fetch_issued_idx(idx(&o, 1), 1, &o);
        let (i1b, r1b) = (t.ins_epoch(1), t.rem_epoch(1));
        t.on_evicted_idx(idx(&o, 1), NEVER, &o);
        assert_eq!((t.ins_epoch(1), t.rem_epoch(1)), (i1b, r1b));
    }

    #[test]
    fn insert_ring_answers_guard_queries() {
        // Disk 0 owns every block (1-disk layout); the ring remembers
        // the positions of recent insertions for a cached verdict.
        let blocks: Vec<u64> = (0..80).collect();
        let o = oracle_of(&blocks, 1);
        let t = MissingTracker::new(&o);
        let base = t.ins_epoch(0);
        // Two evictions re-register blocks 0 and 1 at their (never)
        // next use -- pick re-referenced blocks instead.
        let blocks2: Vec<u64> = (0..40).chain(0..40).collect();
        let o = oracle_of(&blocks2, 1);
        let mut t2 = MissingTracker::new(&o);
        let base2 = t2.ins_epoch(0);
        // Evicting block 3 at cursor 10 re-inserts position 43; block 7
        // re-inserts position 47.
        t2.on_fetch_issued_idx(idx(&o, 3), 3, &o);
        t2.on_fetch_issued_idx(idx(&o, 7), 7, &o);
        let since = t2.ins_epoch(0);
        t2.on_evicted_idx(idx(&o, 3), 43, &o);
        t2.on_evicted_idx(idx(&o, 7), 47, &o);
        assert_eq!(t2.ins_epoch(0), since + 2);
        // The ring hands back both positions, oldest first.
        let since_list =
            |t: &MissingTracker, since| t.inserts_since(0, since).map(|it| it.collect::<Vec<_>>());
        assert_eq!(since_list(&t2, since), Some(vec![43, 47]));
        assert_eq!(since_list(&t2, since + 1), Some(vec![47]));
        // An unchanged epoch has nothing to report.
        assert_eq!(since_list(&t2, t2.ins_epoch(0)), Some(vec![]));
        // Exhausting the ring reports None rather than guessing.
        for _ in 0..2 {
            for b in 0..40u64 {
                t2.on_fetch_issued_idx(idx(&o, b), b as usize, &o);
                t2.on_evicted_idx(idx(&o, b), b as usize, &o);
            }
        }
        assert_eq!(since_list(&t2, since), None);
        // Quiet tracker: the cold-start epoch still answers.
        assert_eq!(t.ins_epoch(0), base);
        let _ = base2;
        assert_eq!(since_list(&t, base), Some(vec![]));
    }

    #[test]
    fn missing_on_disk_in_window_matches_naive_filter() {
        // Boundary property test for the iterator the incremental stall
        // predictor's invalidation contract depends on: `[from, to)`
        // semantics (inclusive start, exclusive end), a cursor sitting
        // exactly on a missing position, disks with no missing entries at
        // all, and empty (`from >= to`) windows — all against a naive
        // filter over the full per-disk missing set.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x5eed_2026);
        for case in 0..100 {
            let len = rng.gen_range(1usize..=40);
            let universe = rng.gen_range(1u64..=12);
            let disks = rng.gen_range(1usize..=4);
            let blocks: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..universe)).collect();
            let o = oracle_of(&blocks, disks);
            let mut t = MissingTracker::new(&o);
            // Mutate a little so the set is not just first occurrences.
            for _ in 0..rng.gen_range(0usize..4) {
                let b = BlockId(rng.gen_range(0..universe));
                if let Some(i) = o.index_of(b) {
                    let at = rng.gen_range(0usize..=len);
                    let next = o.next_occurrence_idx(i, at);
                    t.on_fetch_issued_idx(i, next, &o);
                    t.on_evicted_idx(i, next, &o);
                }
            }
            // The full per-disk ground truth via an unbounded window.
            for d in 0..disks {
                let all: Vec<usize> = t.missing_on_disk_in_window(d, 0, usize::MAX).collect();
                // Every edge combination, including from == to and
                // from > to (empty), from on a missing position
                // (inclusive), and to on a missing position (exclusive).
                let mut edges: Vec<usize> = vec![0, len, len + 1];
                edges.extend(all.iter().copied());
                edges.extend(all.iter().map(|&p| p + 1));
                for &from in &edges {
                    for &to in &edges {
                        let got: Vec<usize> = t.missing_on_disk_in_window(d, from, to).collect();
                        let naive: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&p| p >= from && p < to)
                            .collect();
                        assert_eq!(
                            got, naive,
                            "case {case}: disk {d} window [{from}, {to}) over {blocks:?}"
                        );
                    }
                }
            }
        }
    }
}
