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
//! How the Belady victim is found depends on what the policies know
//! ([`Knowledge`]): an exact next-use index when keys are exact, a lazy
//! max-heap otherwise.

use crate::oracle::{NextUseCursors, Oracle, NEVER};
use parcache_types::{BitSet, BlockId, PosSet};
use std::collections::BinaryHeap;

/// Sentinel in the `last_use` slot array for "never used".
const NO_USE: usize = usize::MAX;

/// The lazy Belady heap is rebuilt from the resident set once it holds
/// more than this many entries per cache frame; below that, stale
/// entries are cheaper to skip lazily than to sweep.
const HEAP_SLACK: usize = 4;

/// What the policies' oracle knows about the future. It is fixed when
/// the cache is built and decides how the cache finds its Belady victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knowledge {
    /// The oracle holds exactly the references to come: oracle hints
    /// that disclose every reference, or reverse aggressive's pass over
    /// the disclosed sequence. A resident block's key is its next
    /// reference, which changes only when the block is referenced or its
    /// fetch completes, so the cache keeps an exact next-use index.
    Exact,
    /// Oracle hints that disclose only some references. Blocks with no
    /// disclosed future are valued by LRU recency (`last use +
    /// capacity`), the way TIP2 values unhinted pages; those keys go
    /// stale as the cursor moves, so the cache keeps a lazy heap and
    /// rebuilds it once stale entries pile up.
    LruEstimate,
    /// Hints from an online predictor: the LRU estimate as above, and in
    /// addition the cursor passing a wrong guess moves the guessed
    /// block's next occurrence with no reference to push it. A block may
    /// then hold only stale entries below its current key, and which
    /// block [`Cache::furthest_resident`] returns depends on the entries
    /// the heap holds, so the heap is never rebuilt.
    Predicted,
    /// Exact knowledge answered by the lazy heap: the next-use index's
    /// executable spec.
    #[cfg(test)]
    ExactHeap,
}

/// The cache state.
#[derive(Debug, Clone)]
pub struct Cache {
    capacity: usize,
    resident: BitSet,
    inflight: BitSet,
    /// How the furthest-future resident block is found.
    belady: Belady,
    /// Next-use lookups of completions and heap validation, which all
    /// ask from the run's cursor.
    next_use: NextUseCursors,
    /// The block the application is about to reference, exempt from
    /// eviction. Without this, a block demand-fetched for an
    /// *undisclosed* reference (whose policy-visible next use is NEVER)
    /// would be evicted the instant it arrived, re-demanded, and the
    /// simulation would livelock — a real OS never evicts a page with an
    /// outstanding demand on it.
    pinned: Option<u32>,
}

/// The Belady structure of one [`Knowledge`] regime.
#[derive(Debug, Clone)]
enum Belady {
    Index(NextUseIndex),
    Heap(LazyHeap),
}

/// The exact next-use index: one member per resident block, in a
/// [`PosSet`] over `[0, n + U)` for a sequence of `n` references over
/// `U` indexed blocks. A block next used at position `p` holds member
/// `p`; a block never used again holds `n + rank`, its rank in `BlockId`
/// order, so the largest member is Belady's victim with ties among
/// never-again blocks going to the larger `BlockId`, as on the heap.
/// Members are unique: one block per position, one rank per block.
#[derive(Debug, Clone)]
struct NextUseIndex {
    members: PosSet,
    /// Each resident block's member, by compact index (meaningless for
    /// blocks that are not resident).
    member: Vec<u32>,
    /// The sequence length `n`.
    len: usize,
}

impl NextUseIndex {
    fn new(oracle: &Oracle) -> NextUseIndex {
        let (len, blocks) = (oracle.len(), oracle.num_blocks());
        assert!(
            len + blocks < u32::MAX as usize,
            "sequence and universe must fit u32 members"
        );
        NextUseIndex {
            members: PosSet::new(len + blocks),
            member: vec![0; blocks],
            len,
        }
    }

    /// Makes `next` (a position or [`NEVER`]) block `idx`'s member.
    fn insert(&mut self, idx: u32, next: usize, oracle: &Oracle) {
        let m = match next {
            NEVER => self.len + oracle.ranks().rank[idx as usize] as usize,
            p => p,
        };
        let newly = self.members.insert(m);
        debug_assert!(newly, "member {m} held twice");
        self.member[idx as usize] = m as u32;
    }

    /// Removes block `idx`'s member and returns its key.
    fn remove(&mut self, idx: u32) -> usize {
        let m = self.member[idx as usize] as usize;
        let present = self.members.remove(m);
        debug_assert!(present, "block index {idx} holds no member");
        self.key_of(m)
    }

    /// The key a member stands for.
    fn key_of(&self, m: usize) -> usize {
        if m < self.len {
            m
        } else {
            NEVER
        }
    }

    /// The block holding member `m`.
    fn block_at(&self, m: usize, oracle: &Oracle) -> u32 {
        if m < self.len {
            oracle
                .index_at(m)
                .expect("members sit at disclosed positions")
        } else {
            oracle.ranks().by_rank[m - self.len]
        }
    }

    /// The block with the largest member other than `pinned`, with its
    /// key: a predecessor query from the top, repeated once to step
    /// past the pinned block.
    fn furthest(&self, pinned: Option<u32>, oracle: &Oracle) -> Option<(u32, usize)> {
        let mut m = self.members.prev_at_or_before(usize::MAX)?;
        let mut idx = self.block_at(m, oracle);
        if Some(idx) == pinned {
            m = self.members.prev_at_or_before(m.checked_sub(1)?)?;
            idx = self.block_at(m, oracle);
        }
        Some((idx, self.key_of(m)))
    }
}

/// Lazy max-heap over resident blocks keyed by next-reference position,
/// for keys that are not exact. Entries go stale as the cursor advances
/// or blocks are evicted; they are validated against the oracle when
/// they reach the top.
#[derive(Debug, Clone)]
struct LazyHeap {
    /// `(key, block, index)` entries. The `BlockId` breaks ties on equal
    /// keys; the trailing compact index never influences the order
    /// because equal `(key, block)` implies an equal index.
    heap: BinaryHeap<(usize, BlockId, u32)>,
    /// Whether blocks with no disclosed future are valued by LRU recency
    /// (see [`Knowledge::LruEstimate`]).
    lru_estimate: bool,
    /// Most recent reference (or fetch) position per compact index, for
    /// the LRU estimate. Only maintained when `lru_estimate` is on.
    last_use: Vec<usize>,
    /// Whether the heap may be rebuilt from the resident set (off under
    /// [`Knowledge::Predicted`]).
    compact: bool,
}

impl LazyHeap {
    fn new(universe: usize, lru_estimate: bool, compact: bool) -> LazyHeap {
        LazyHeap {
            heap: BinaryHeap::new(),
            lru_estimate,
            last_use: if lru_estimate {
                vec![NO_USE; universe]
            } else {
                Vec::new()
            },
            compact,
        }
    }

    /// The key of block `idx` given its next occurrence `next`: that
    /// occurrence, or — under the LRU estimate — its last use plus the
    /// cache capacity.
    fn key_from_next(&self, idx: u32, next: usize, capacity: usize) -> usize {
        if next != NEVER || !self.lru_estimate {
            return next;
        }
        match self.last_use[idx as usize] {
            NO_USE => NEVER,
            lu => lu.saturating_add(capacity),
        }
    }
}

impl Cache {
    /// Creates an empty cache of `capacity` frames over `oracle`'s block
    /// universe, finding Belady victims the way `knowledge` allows.
    pub fn new(capacity: usize, oracle: &Oracle, knowledge: Knowledge) -> Cache {
        assert!(capacity > 0, "cache must hold at least one block");
        let universe = oracle.num_blocks();
        let belady = match knowledge {
            Knowledge::Exact => Belady::Index(NextUseIndex::new(oracle)),
            Knowledge::LruEstimate => Belady::Heap(LazyHeap::new(universe, true, true)),
            Knowledge::Predicted => Belady::Heap(LazyHeap::new(universe, true, false)),
            #[cfg(test)]
            Knowledge::ExactHeap => Belady::Heap(LazyHeap::new(universe, false, true)),
        };
        Cache {
            capacity,
            resident: BitSet::with_capacity(universe),
            inflight: BitSet::with_capacity(universe),
            belady,
            next_use: NextUseCursors::new(oracle),
            pinned: None,
        }
    }

    /// The Belady key of block `idx` for an event at position `pos`.
    #[cfg(test)]
    fn key_for(&self, idx: u32, pos: usize, oracle: &Oracle) -> usize {
        let next = oracle.next_occurrence_idx(idx, pos);
        match &self.belady {
            Belady::Index(_) => next,
            Belady::Heap(h) => h.key_from_next(idx, next, self.capacity),
        }
    }

    /// Pins block `idx` against eviction (the engine pins the current
    /// reference); `None` unpins.
    pub fn pin(&mut self, idx: Option<u32>) {
        self.pinned = idx;
    }

    /// The currently pinned block, if any.
    pub fn pinned(&self) -> Option<u32> {
        self.pinned
    }

    /// Frame count.
    pub fn capacity(&self) -> usize {
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

    /// Number of in-flight fetches.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// True when a fetch can be issued without evicting anything.
    pub fn has_free_frame(&self) -> bool {
        self.resident.len() + self.inflight.len() < self.capacity
    }

    /// Begins a fetch of block `idx`, evicting `evict` if given. Under
    /// [`Knowledge::Exact`] an eviction returns the victim's next
    /// occurrence at or after the cursor ([`NEVER`] if none), which the
    /// caller can hand to [`MissingTracker::on_evicted_idx`] instead of
    /// searching for it; otherwise it returns `None`.
    ///
    /// # Panics
    ///
    /// Panics on violated invariants: fetching a resident or in-flight
    /// block, evicting a non-resident block, or fetching without a frame.
    pub fn start_fetch(&mut self, idx: u32, evict: Option<u32>) -> Option<usize> {
        assert!(!self.resident(idx), "fetching resident block index {idx}");
        assert!(!self.inflight(idx), "duplicate fetch of block index {idx}");
        let mut next = None;
        if let Some(e) = evict {
            assert!(Some(e) != self.pinned, "evicting pinned block index {e}");
            assert!(
                self.resident.remove(e),
                "evicting non-resident block index {e}"
            );
            // A heap entry for `e` goes stale and is skipped on pop.
            if let Belady::Index(ix) = &mut self.belady {
                next = Some(ix.remove(e));
            }
        } else {
            assert!(
                self.resident.len() + self.inflight.len() < self.capacity,
                "no free frame and no eviction"
            );
        }
        self.inflight.insert(idx);
        next
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
        let next = self.next_use.next(oracle, idx, cursor);
        let capacity = self.capacity;
        match &mut self.belady {
            Belady::Index(ix) => ix.insert(idx, next, oracle),
            Belady::Heap(h) => {
                if h.lru_estimate && h.last_use[idx as usize] == NO_USE {
                    h.last_use[idx as usize] = cursor;
                }
                let key = h.key_from_next(idx, next, capacity);
                h.heap.push((key, oracle.block_of(idx), idx));
            }
        }
    }

    /// Abandons the in-flight fetch of block `idx`: the reserved frame is
    /// released and the block is neither resident nor in flight (the
    /// driver gave up on the request; see the engine's retry policy).
    ///
    /// # Panics
    ///
    /// Panics if no fetch of block `idx` was in flight.
    pub fn cancel_fetch(&mut self, idx: u32) {
        assert!(
            self.inflight.remove(idx),
            "cancelling unfetched block index {idx}"
        );
    }

    /// Records that the application consumed block `idx` at position
    /// `pos`: refreshes its Belady key to the next occurrence after `pos`
    /// (an O(1) next-pointer walk when `pos` references `idx`, which it
    /// always does on this path).
    pub fn on_reference(&mut self, idx: u32, pos: usize, oracle: &Oracle) {
        debug_assert!(
            self.resident(idx),
            "consumed non-resident block index {idx}"
        );
        let next = oracle.next_after_idx(idx, pos);
        let capacity = self.capacity;
        match &mut self.belady {
            Belady::Index(ix) => {
                debug_assert_eq!(
                    ix.member[idx as usize] as usize, pos,
                    "referenced block index {idx} is keyed elsewhere"
                );
                ix.remove(idx);
                ix.insert(idx, next, oracle);
            }
            Belady::Heap(h) => {
                if h.lru_estimate {
                    h.last_use[idx as usize] = pos + 1;
                }
                let key = h.key_from_next(idx, next, capacity);
                h.heap.push((key, oracle.block_of(idx), idx));
            }
        }
    }

    /// The evictable resident block whose next reference (at or after
    /// `cursor`) is furthest in the future, with that position ([`NEVER`]
    /// if it is never referenced again). `None` when nothing evictable is
    /// resident. The pinned block is never returned. Ties on the key go
    /// to the larger `BlockId`.
    ///
    /// Under [`Knowledge::Exact`] this is a predecessor query on the
    /// next-use index. Otherwise the lazy heap repairs stale entries as
    /// they reach the top; amortized cost is logarithmic. A valid,
    /// unpinned top entry is answered from `peek` with no heap traffic,
    /// and a stale top is re-keyed in place; both leave the heap holding
    /// the same entries as popping and re-pushing would. When a block's
    /// key changes only through a push (a reference to it, or its fetch
    /// completing) every resident block has an entry holding its current
    /// key, so the answer is the maximum over the resident set: callers
    /// may then ask early or often without changing any later answer,
    /// and once stale entries push the heap past `HEAP_SLACK` × capacity
    /// it is rebuilt from the resident set (except under
    /// [`Knowledge::Predicted`]).
    pub fn furthest_resident(&mut self, cursor: usize, oracle: &Oracle) -> Option<(u32, usize)> {
        let h = match &mut self.belady {
            Belady::Index(ix) => {
                let found = ix.furthest(self.pinned, oracle);
                debug_assert!(
                    found.is_none_or(|(_, key)| key >= cursor),
                    "next-use index answered behind the cursor {cursor}"
                );
                return found;
            }
            Belady::Heap(h) => h,
        };
        if h.compact && h.heap.len() > HEAP_SLACK * self.capacity {
            // Replace the heap with one current entry per resident
            // block, dropping the stale entries that accumulate as keys
            // refresh.
            let mut entries = std::mem::take(&mut h.heap).into_vec();
            entries.clear();
            for idx in self.resident.ones() {
                let key =
                    h.key_from_next(idx, self.next_use.next(oracle, idx, cursor), self.capacity);
                entries.push((key, oracle.block_of(idx), idx));
            }
            h.heap = BinaryHeap::from(entries);
        }
        let mut stash: Option<(usize, BlockId, u32)> = None;
        let mut found = None;
        while let Some(&(key, block, idx)) = h.heap.peek() {
            if !self.resident.contains(idx) {
                h.heap.pop(); // evicted since this entry was pushed
                continue;
            }
            let actual =
                h.key_from_next(idx, self.next_use.next(oracle, idx, cursor), self.capacity);
            if actual != key {
                // Re-key in place; the sift restores the heap order.
                *h.heap.peek_mut().expect("peeked entry") = (actual, block, idx);
                continue;
            }
            if Some(idx) == self.pinned {
                // Valid entry, but exempt: set it aside and keep looking.
                stash = h.heap.pop();
                continue;
            }
            found = Some((idx, key));
            break;
        }
        if let Some(entry) = stash {
            h.heap.push(entry);
        }
        found
    }

    /// Iterates over resident block indices, ascending.
    pub fn resident_indices(&self) -> impl Iterator<Item = u32> + '_ {
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
pub struct MissingTracker {
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
    /// to `epoch`. Lets [`MissingTracker::inserts_all_at_or_beyond`]
    /// re-validate a cached verdict across a few insertions when they
    /// all landed beyond the verdict's horizon (the common case:
    /// evicted blocks re-enter at far-future next occurrences).
    recent_ins: Vec<[usize; RECENT_INS]>,
    /// Next-use lookups of the compact-index updates, which ask from the
    /// run's cursor.
    next_use: NextUseCursors,
}

/// Ring capacity of [`MissingTracker::recent_ins`]: enough to span the
/// insertions a policy's whole fetch batch causes between two decision
/// points.
const RECENT_INS: usize = 32;

impl MissingTracker {
    /// Builds the tracker for a cold cache: every distinct block is
    /// missing at its first occurrence.
    pub fn new(oracle: &Oracle) -> MissingTracker {
        let disks = oracle.layout().disks();
        let mut t = MissingTracker {
            global: PosSet::new(oracle.len()),
            per_disk: vec![PosSet::new(oracle.len()); disks],
            ins_epochs: vec![0; disks],
            rem_epochs: vec![0; disks],
            recent_ins: vec![[0; RECENT_INS]; disks],
            next_use: NextUseCursors::new(oracle),
        };
        for (block, pos) in oracle.first_occurrences() {
            t.insert(block, pos, oracle);
        }
        t
    }

    /// The insertion epoch of `disk`'s position set.
    #[inline]
    pub fn ins_epoch(&self, disk: usize) -> u64 {
        self.ins_epochs[disk]
    }

    /// The removal epoch of `disk`'s position set.
    #[inline]
    pub fn rem_epoch(&self, disk: usize) -> u64 {
        self.rem_epochs[disk]
    }

    /// Whether every position inserted on `disk` since insertion epoch
    /// `since` landed at or beyond `guard`. Returns `None` when more
    /// than `RECENT_INS` insertions happened since and the ring no
    /// longer remembers them all.
    #[inline]
    pub fn inserts_all_at_or_beyond(&self, disk: usize, since: u64, guard: usize) -> Option<bool> {
        let now = self.ins_epochs[disk];
        debug_assert!(since <= now, "insertion epochs only grow");
        if now - since > RECENT_INS as u64 {
            return None;
        }
        let ring = &self.recent_ins[disk];
        let mut e = since;
        while e < now {
            e += 1;
            if ring[(e % RECENT_INS as u64) as usize] < guard {
                return Some(false);
            }
        }
        Some(true)
    }

    #[inline]
    fn record_insert(&mut self, disk: usize, pos: usize) {
        let e = self.ins_epochs[disk] + 1;
        self.ins_epochs[disk] = e;
        self.recent_ins[disk][(e % RECENT_INS as u64) as usize] = pos;
    }

    fn insert(&mut self, block: BlockId, pos: usize, oracle: &Oracle) {
        if pos == NEVER {
            return;
        }
        debug_assert_eq!(oracle.block_at(pos), block);
        let d = oracle.disk_of(block).index();
        self.global.insert(pos);
        self.per_disk[d].insert(pos);
        self.record_insert(d, pos);
    }

    /// [`MissingTracker::insert`] by compact index (no hashing).
    fn insert_idx(&mut self, idx: u32, pos: usize, oracle: &Oracle) {
        if pos == NEVER {
            return;
        }
        debug_assert_eq!(oracle.block_at(pos), oracle.block_of(idx));
        let d = oracle.disk_of(oracle.block_of(idx)).index();
        self.global.insert(pos);
        self.per_disk[d].insert(pos);
        self.record_insert(d, pos);
    }

    /// A fetch of block `idx` was issued at cursor position `cursor`: it
    /// is no longer missing. Its next occurrence is read from the
    /// tracker's run-local cursors: amortized O(1) while `cursor` never
    /// moves backwards.
    pub fn on_fetch_issued_idx(&mut self, idx: u32, cursor: usize, oracle: &Oracle) {
        let pos = self.next_use.next(oracle, idx, cursor);
        if pos == NEVER {
            return;
        }
        let d = oracle.disk_of(oracle.block_of(idx)).index();
        self.global.remove(pos);
        self.per_disk[d].remove(pos);
        self.rem_epochs[d] += 1;
    }

    /// Block `idx` was evicted at cursor position `cursor`: it is missing
    /// again from its next occurrence on. `next` is that occurrence when
    /// the caller already knows it (the exact-knowledge cache returns it
    /// from [`Cache::start_fetch`]); `None` reads it from the tracker's
    /// run-local cursors.
    pub fn on_evicted_idx(
        &mut self,
        idx: u32,
        cursor: usize,
        next: Option<usize>,
        oracle: &Oracle,
    ) {
        let pos = match next {
            Some(pos) => {
                debug_assert_eq!(pos, oracle.next_occurrence_idx(idx, cursor));
                pos
            }
            None => self.next_use.next(oracle, idx, cursor),
        };
        self.insert_idx(idx, pos, oracle);
    }

    /// The first position `>= from` whose block is missing, globally.
    #[inline]
    pub fn first_missing(&self, from: usize) -> Option<usize> {
        self.global.next_at_or_after(from)
    }

    /// The first position `>= from` whose block is missing and lives on
    /// `disk`.
    #[inline]
    pub fn first_missing_on_disk(&self, disk: usize, from: usize) -> Option<usize> {
        self.per_disk[disk].next_at_or_after(from)
    }

    /// Positions of missing blocks in `[from, to)`, globally, ascending.
    pub fn missing_in_window(&self, from: usize, to: usize) -> impl Iterator<Item = usize> + '_ {
        self.global.iter_from(from).take_while(move |&p| p < to)
    }

    /// Positions of missing blocks at or after `from` on `disk`,
    /// ascending, as the concrete [`PosSet`] iterator. Unlike
    /// [`MissingTracker::missing_on_disk_in_window`] the window bound is
    /// the caller's job; in exchange the iterator's popcount-skipping
    /// `nth` stays reachable (an adapter like `take_while` would hide it
    /// behind the one-step default).
    #[inline]
    pub fn missing_on_disk_from(
        &self,
        disk: usize,
        from: usize,
    ) -> parcache_types::posset::Iter<'_> {
        self.per_disk[disk].iter_from(from)
    }

    /// Positions of missing blocks in `[from, to)` on `disk`, ascending.
    pub fn missing_on_disk_in_window(
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
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// True when nothing is missing.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_disk::layout::Layout;
    use parcache_trace::{Request, Trace};
    use parcache_types::Nanos;

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
        // Full cache: must evict to fetch. The exact regime hands back
        // the victim's next use.
        assert_eq!(c.start_fetch(b3, Some(b1)), Some(0));
        assert!(!c.resident(b1));
        assert_eq!(c.resident_count() + c.inflight_count(), 2);
    }

    #[test]
    fn only_the_exact_regime_reports_the_victims_next_use() {
        let o = oracle_of(&[1, 2, 3, 1], 1);
        let (b1, b2, b3) = (idx(&o, 1), idx(&o, 2), idx(&o, 3));
        for knowledge in [
            Knowledge::Exact,
            Knowledge::LruEstimate,
            Knowledge::Predicted,
        ] {
            let mut c = Cache::new(2, &o, knowledge);
            for b in [b1, b2] {
                c.start_fetch(b, None);
                c.complete_fetch(b, 0, &o);
            }
            c.on_reference(b1, 0, &o);
            let want = (knowledge == Knowledge::Exact).then_some(3);
            assert_eq!(c.start_fetch(b3, Some(b1)), want, "{knowledge:?}");
            // A block never used again reports NEVER.
            c.complete_fetch(b3, 1, &o);
            c.on_reference(b2, 1, &o);
            let want = (knowledge == Knowledge::Exact).then_some(NEVER);
            assert_eq!(c.start_fetch(b1, Some(b2)), want, "{knowledge:?}");
        }
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

    /// The lazy heap of a heap-regime cache.
    fn heap_mut(c: &mut Cache) -> &mut BinaryHeap<(usize, BlockId, u32)> {
        match &mut c.belady {
            Belady::Heap(h) => &mut h.heap,
            Belady::Index(_) => panic!("cache is on the next-use index"),
        }
    }

    /// The reference lazy heap, for keys that can change unpushed: pop
    /// the top, drop it if evicted, re-push it re-keyed if stale, set it
    /// aside if pinned, else push it back and answer.
    fn furthest_by_pop_push(c: &mut Cache, cursor: usize, o: &Oracle) -> Option<(u32, usize)> {
        let mut heap = std::mem::take(heap_mut(c));
        let mut stash = None;
        let mut found = None;
        while let Some((key, block, idx)) = heap.pop() {
            if !c.resident(idx) {
                continue;
            }
            let actual = c.key_for(idx, cursor, o);
            if actual != key {
                heap.push((actual, block, idx));
            } else if Some(idx) == c.pinned {
                stash = Some((key, block, idx));
            } else {
                heap.push((key, block, idx));
                found = Some((idx, key));
                break;
            }
        }
        if let Some(entry) = stash {
            heap.push(entry);
        }
        *heap_mut(c) = heap;
        found
    }

    /// The heap's entries, sorted: equal for two heaps holding the same
    /// entries in any layout.
    fn heap_entries(c: &mut Cache) -> Vec<(usize, BlockId, u32)> {
        let mut v = heap_mut(c).clone().into_vec();
        v.sort_unstable();
        v
    }

    /// Drives caches the way the engine does (pin the reference, random
    /// prefetches with random or Belady victims, completions and cancels
    /// at random later points, pins moved off a block without a
    /// reference to it, then consume) and checks every
    /// [`Cache::furthest_resident`] answer.
    ///
    /// - [`Knowledge::Exact`]: every position is disclosed and the
    ///   universe holds never-referenced blocks, so never-again ties
    ///   arise among many blocks. Half the cases run the next-use index,
    ///   half the heap; each answer must equal the linear scan.
    /// - [`Knowledge::LruEstimate`]: partial disclosure puts undisclosed
    ///   blocks in the universe; each answer must equal the linear scan.
    /// - [`Knowledge::Predicted`]: a third of the disclosed positions
    ///   also guess a wrong block; each answer and the heap's entries
    ///   afterwards must equal the reference lazy heap's.
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
            let regime = match knowledge {
                Knowledge::Exact if case % 2 == 1 => Knowledge::ExactHeap,
                k => k,
            };
            let mut c = Cache::new(rng.gen_range(1usize..=6), &o, regime);
            let mut inflight: Vec<u32> = Vec::new();
            let check = |c: &mut Cache, cursor: usize| {
                if predicted {
                    let mut twin = c.clone();
                    let want = furthest_by_pop_push(&mut twin, cursor, &o);
                    assert_eq!(
                        c.furthest_resident(cursor, &o),
                        want,
                        "case {case} at {cursor}"
                    );
                    assert_eq!(heap_entries(c), heap_entries(&mut twin), "case {case}");
                } else {
                    let want = furthest_by_scan(c, cursor, &o);
                    assert_eq!(
                        c.furthest_resident(cursor, &o),
                        want,
                        "case {case} at {cursor}"
                    );
                }
            };
            for (pos, &b) in blocks.iter().enumerate() {
                let r = o.index_of(BlockId(b)).unwrap();
                c.pin(Some(r));
                for _ in 0..rng.gen_range(0usize..4) {
                    check(&mut c, pos);
                    if rng.gen_bool(0.5) {
                        let resident: Vec<u32> = c.resident_indices().collect();
                        c.pin(rng.choose(&resident).copied());
                        check(&mut c, pos);
                        c.pin(Some(r));
                    }
                    if !inflight.is_empty() && rng.gen_bool(0.5) {
                        let i = inflight.swap_remove(rng.gen_range(0..inflight.len()));
                        if rng.gen_bool(0.2) {
                            c.cancel_fetch(i);
                        } else {
                            c.complete_fetch(i, pos, &o);
                        }
                        continue;
                    }
                    let f = rng.gen_range(0..o.num_blocks()) as u32;
                    if c.resident(f) || c.inflight(f) {
                        continue;
                    }
                    let victim = if c.has_free_frame() {
                        None
                    } else if rng.gen_bool(0.5) {
                        c.furthest_resident(pos, &o).map(|(v, _)| v)
                    } else {
                        let evictable: Vec<u32> = c
                            .resident_indices()
                            .filter(|&i| Some(i) != c.pinned())
                            .collect();
                        rng.choose(&evictable).copied()
                    };
                    if victim.is_none() && !c.has_free_frame() {
                        continue;
                    }
                    let want = victim.map(|v| o.next_occurrence_idx(v, pos));
                    let got = c.start_fetch(f, victim);
                    if regime == Knowledge::Exact {
                        assert_eq!(got, want, "case {case}: victim's next use");
                    }
                    inflight.push(f);
                }
                if c.inflight(r) {
                    inflight.retain(|&i| i != r);
                    c.complete_fetch(r, pos, &o);
                } else if !c.resident(r) {
                    if !c.has_free_frame() {
                        if furthest_by_scan(&c, pos, &o).is_none() {
                            // Every other frame is in flight: land one.
                            let i = inflight.pop().unwrap();
                            c.complete_fetch(i, pos, &o);
                        }
                        let (v, _) = furthest_by_scan(&c, pos, &o).unwrap();
                        c.start_fetch(r, Some(v));
                    } else {
                        c.start_fetch(r, None);
                    }
                    c.complete_fetch(r, pos, &o);
                }
                check(&mut c, pos);
                c.on_reference(r, pos, &o);
                c.pin(None);
                check(&mut c, pos + 1);
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
        t.on_fetch_issued_idx(idx(&o, 5), 0, &o);
        assert_eq!(t.first_missing(0), Some(1)); // block 6
                                                 // Evict 5 at cursor 1: re-registered at its next ref, position 2.
        t.on_evicted_idx(idx(&o, 5), 1, None, &o);
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
        t.on_fetch_issued_idx(idx(&o, 2), 0, &o);
        assert!(t.is_empty());
        // Evicting block 1 at cursor 2 (past its last reference): no entry.
        t.on_evicted_idx(idx(&o, 1), 2, None, &o);
        assert!(t.is_empty());
    }

    #[test]
    fn window_queries() {
        let o = oracle_of(&[0, 1, 2, 3, 4], 1);
        let t = MissingTracker::new(&o);
        let w: Vec<usize> = t.missing_in_window(1, 4).collect();
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
        t.on_evicted_idx(idx(&o, 0), 1, None, &o);
        assert_eq!((t.ins_epoch(0), t.rem_epoch(0)), (i0 + 1, r0 + 1));
        assert_eq!((t.ins_epoch(1), t.rem_epoch(1)), (i1, r1));
        // A `NEVER`-position no-op (block 1 evicted past its last use)
        // leaves the set untouched and must not bump.
        t.on_fetch_issued_idx(idx(&o, 1), 0, &o);
        let (i1b, r1b) = (t.ins_epoch(1), t.rem_epoch(1));
        t.on_evicted_idx(idx(&o, 1), 2, None, &o);
        assert_eq!((t.ins_epoch(1), t.rem_epoch(1)), (i1b, r1b));
    }

    #[test]
    fn insert_ring_answers_guard_queries() {
        // Disk 0 owns every block (1-disk layout); the ring remembers
        // the positions of recent insertions for guard re-validation.
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
        t2.on_fetch_issued_idx(idx(&o, 3), 0, &o);
        t2.on_fetch_issued_idx(idx(&o, 7), 0, &o);
        let since = t2.ins_epoch(0);
        t2.on_evicted_idx(idx(&o, 3), 10, None, &o);
        t2.on_evicted_idx(idx(&o, 7), 10, None, &o);
        assert_eq!(t2.ins_epoch(0), since + 2);
        // Both landed at or beyond 43.
        assert_eq!(t2.inserts_all_at_or_beyond(0, since, 43), Some(true));
        // ...but not beyond 44 (position 43 is below that guard).
        assert_eq!(t2.inserts_all_at_or_beyond(0, since, 44), Some(false));
        // An unchanged epoch passes any guard vacuously.
        assert_eq!(
            t2.inserts_all_at_or_beyond(0, t2.ins_epoch(0), usize::MAX),
            Some(true)
        );
        // Exhausting the ring reports None rather than guessing.
        for _ in 0..2 {
            for b in 0..40u64 {
                t2.on_fetch_issued_idx(idx(&o, b), 0, &o);
                t2.on_evicted_idx(idx(&o, b), 0, None, &o);
            }
        }
        assert_eq!(t2.inserts_all_at_or_beyond(0, since, 0), None);
        // Quiet tracker: the cold-start epoch still answers.
        assert_eq!(t.ins_epoch(0), base);
        let _ = base2;
        assert_eq!(t.inserts_all_at_or_beyond(0, base, usize::MAX), Some(true));
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
                    t.on_fetch_issued_idx(i, at, &o);
                    t.on_evicted_idx(i, at, None, &o);
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
