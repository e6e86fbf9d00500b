//! The reverse aggressive algorithm (§2.5, §2.7).
//!
//! Reverse aggressive is offline: before the run it constructs a complete
//! prefetching schedule, then replays it against the real disk model.
//!
//! **Reverse pass.** Assuming a fixed fetch-time/compute-time ratio F̂, it
//! simulates the batched aggressive algorithm over the *reversed* request
//! sequence in the uniform fetch-time model: whenever a disk is free, it
//! fetches the first missing block on that disk, evicting the resident
//! block not needed for the longest time, provided the eviction's next
//! request falls after the fetched block's (do no harm), in batches.
//!
//! **Transformation.** Each reverse *eviction* of block E at reverse
//! cursor c becomes a forward *fetch* of E, ordered by the forward
//! request index it serves (E's most recent reverse use before c maps to
//! E's next forward use after the fetch point). Each reverse *fetch* of
//! block B serving its use at reverse position r becomes a forward
//! *eviction* of B with release time `n - r` — one past B's last forward
//! use before it is refetched. Blocks still resident at the end of the
//! reverse pass become cold-start forward fetches keyed by their first
//! forward use. Fetches are sorted by request index, evictions by release
//! point, and matched in order (the first K fetches fill cold frames).
//!
//! **Forward replay.** Whenever a disk D is free, the first up to
//! batch-size released pairs whose fetch block lives on D are issued
//! (§2.7). Demand misses consume the block's scheduled pair early; stale
//! evictions are repaired with the current furthest-future resident.

use crate::cache::{Cache, Knowledge, MissingTracker};
use crate::config::SimConfig;
use crate::engine::Ctx;
use crate::hints::HintSpec;
use crate::oracle::Oracle;
use crate::policy::{demand_fetch_idx, Indexes, Policy};
use parcache_disk::Layout;
use parcache_trace::Trace;
use parcache_types::{BitSet, BlockId, DiskId};
use std::collections::VecDeque;

/// One scheduled forward fetch/eviction pair. Blocks are compact indices
/// into the oracle of the reversed sequence the schedule was planned
/// over; positions are forward reference positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Compact index of the block to fetch.
    pub block: u32,
    /// Forward position of the fetched block's next use (ordering key).
    pub key: u32,
    /// Compact index of the block to evict, or `NO_EVICT`.
    pub evict: u32,
    /// Earliest cursor position at which the eviction may happen.
    pub release: u32,
}

/// [`Pair::evict`] of a pair whose schedule calls for no eviction.
pub(crate) const NO_EVICT: u32 = u32::MAX;

/// Outcome of attempting to issue a scheduled pair.
enum IssueOutcome {
    /// A fetch went out.
    Issued,
    /// The pair was obsolete (block already resident or in flight).
    Skipped,
    /// No frame could be freed; the pair stays pending.
    Blocked,
}

/// The reverse aggressive policy.
pub struct ReverseAggressive {
    /// Pairs sorted by `key`, in the planning oracle's compact indices.
    schedule: Vec<Pair>,
    /// The block of each of the planning oracle's compact indices.
    planned_blocks: Vec<BlockId>,
    batch_size: usize,
    /// The forward replay's state, built against the run's oracle on the
    /// first call into the policy.
    replay: Option<Replay>,
}

impl ReverseAggressive {
    /// Builds the offline schedule for `trace` under `config`.
    ///
    /// The fetch-time estimate F̂ is `config.reverse_fetch_estimate`
    /// compute-steps per fetch; the batch size is
    /// `config.reverse_batch_size`.
    pub fn new(trace: &Trace, config: &SimConfig) -> ReverseAggressive {
        let reversed = reversed_oracle(trace, Layout::striped(config.disks), &config.hints);
        ReverseAggressive::with_reversed(&reversed, config)
    }

    /// [`ReverseAggressive::new`] over the oracle of the trace's reversed
    /// disclosed sequence under `config`'s array size and hint spec, as
    /// [`Prepared::reversed_oracle`] builds it once for many runs.
    ///
    /// [`Prepared::reversed_oracle`]: crate::engine::Prepared::reversed_oracle
    pub fn with_reversed(reversed: &Oracle, config: &SimConfig) -> ReverseAggressive {
        debug_assert_eq!(
            reversed.layout().disks(),
            config.disks,
            "reversed oracle layout"
        );
        ReverseAggressive {
            schedule: build_schedule::<DiskFifos>(
                reversed,
                config.cache_blocks,
                config.reverse_fetch_estimate,
                config.reverse_batch_size,
            ),
            planned_blocks: (0..reversed.num_blocks() as u32)
                .map(|i| reversed.block_of(i))
                .collect(),
            batch_size: config.reverse_batch_size,
            replay: None,
        }
    }

    /// The constructed schedule, in key order (diagnostics, tests).
    pub fn schedule(&self) -> &[Pair] {
        &self.schedule
    }

    /// The replay state, built against `oracle` on first use.
    fn replay(&mut self, oracle: &Oracle) -> &mut Replay {
        let (schedule, blocks) = (&self.schedule, &self.planned_blocks);
        self.replay
            .get_or_insert_with(|| Replay::new(schedule, blocks, oracle))
    }
}

/// Sentinel for "none" in the replay's `u32` slot links.
const NO_SLOT: u32 = u32::MAX;

/// The forward replay's index over the schedule.
///
/// Each pair gets a *slot*: slots group the pairs by the fetched block's
/// disk (disk d owns `disk_off[d]..disk_off[d + 1]`), in key order within
/// a disk. §2.7's replay attempts a disk's pending pairs in key order
/// while they are released. Releases never decrease along key order
/// (asserted in [`Replay::new`]), so a disk's released pending pairs are
/// a prefix of its pending pairs, and its scan walks slots from a head
/// cursor: it passes consumed slots for good and stops at the first
/// unreleased or blocked pair, which stays at the head. A scan costs
/// what it attempts plus the consumed slots it passes once.
///
/// The head slot's release is the disk's *wake*: no slot at or past the
/// head is released before it, and demand consumption only removes
/// pairs, so while the cursor is below the wake a scan would attempt
/// nothing, and the disk is skipped without touching its slots.
struct Replay {
    /// The schedule in slot order, blocks as the run oracle's indices.
    pairs: Vec<Pair>,
    disk_off: Vec<u32>,
    /// Per disk: every slot of the disk below it is consumed.
    head: Vec<u32>,
    /// Per disk: the release of its head slot, `u32::MAX` past its last.
    wake: Vec<u32>,
    /// Slots whose pair was issued, found obsolete, or taken by a demand
    /// miss.
    consumed: BitSet,
    /// Per run-oracle block: its first slot not yet passed by demand
    /// consumption; `next_same` links each slot to the block's next slot
    /// in key order.
    block_head: Vec<u32>,
    next_same: Vec<u32>,
    /// Coverage: scans of a free disk the wake skipped.
    #[cfg(test)]
    skipped_scans: usize,
}

impl Replay {
    /// Slots `schedule` against the run oracle `oracle`;
    /// `planned_blocks` names the block of each planning index.
    fn new(schedule: &[Pair], planned_blocks: &[BlockId], oracle: &Oracle) -> Replay {
        // `build_schedule` hands the release-sorted evictions to the
        // key-sorted fetches in order, after `cache_blocks` release-0
        // cold fills. The head-cursor scan and the wake are exact only
        // under this.
        assert!(
            schedule.windows(2).all(|w| w[0].release <= w[1].release),
            "schedule releases decrease along key order"
        );
        let to_run: Vec<u32> = planned_blocks
            .iter()
            .map(|&b| {
                oracle
                    .index_of(b)
                    .expect("scheduled block outside the indexed universe")
            })
            .collect();
        let layout = oracle.layout();
        let disk_of = |p: &Pair| layout.disk_of(planned_blocks[p.block as usize]).index();
        let disks = layout.disks();
        let mut disk_off = vec![0u32; disks + 1];
        for p in schedule {
            disk_off[disk_of(p) + 1] += 1;
        }
        for d in 0..disks {
            disk_off[d + 1] += disk_off[d];
        }
        let mut fill = disk_off[..disks].to_vec();
        let mut pairs = vec![
            Pair {
                block: 0,
                key: 0,
                evict: NO_EVICT,
                release: 0,
            };
            schedule.len()
        ];
        for p in schedule {
            let s = &mut fill[disk_of(p)];
            pairs[*s as usize] = Pair {
                block: to_run[p.block as usize],
                evict: match p.evict {
                    NO_EVICT => NO_EVICT,
                    e => to_run[e as usize],
                },
                ..*p
            };
            *s += 1;
        }
        let mut block_head = vec![NO_SLOT; oracle.num_blocks()];
        let mut next_same = vec![NO_SLOT; pairs.len()];
        for (s, p) in pairs.iter().enumerate().rev() {
            next_same[s] = block_head[p.block as usize];
            block_head[p.block as usize] = s as u32;
        }
        let wake = (0..disks)
            .map(|d| match disk_off[d] < disk_off[d + 1] {
                true => pairs[disk_off[d] as usize].release,
                false => u32::MAX,
            })
            .collect();
        Replay {
            head: disk_off[..disks].to_vec(),
            wake,
            disk_off,
            consumed: BitSet::with_capacity(pairs.len()),
            pairs,
            block_head,
            next_same,
            #[cfg(test)]
            skipped_scans: 0,
        }
    }

    /// Issues up to `batch` of disk `d`'s released pending pairs, in key
    /// order, stopping at the first unreleased or blocked pair.
    fn scan(&mut self, ctx: &mut Ctx<'_>, d: usize, batch: usize) {
        let end = self.disk_off[d + 1];
        let mut s = self.head[d];
        let mut issued = 0;
        while issued < batch && s < end {
            if !self.consumed.contains(s) {
                let p = self.pairs[s as usize];
                if p.release as usize > ctx.cursor {
                    break;
                }
                match try_issue(ctx, p.block, p.evict) {
                    IssueOutcome::Issued => issued += 1,
                    IssueOutcome::Skipped => {}
                    IssueOutcome::Blocked => break,
                }
                self.consumed.insert(s);
            }
            s += 1;
        }
        self.head[d] = s;
        self.wake[d] = match s < end {
            true => self.pairs[s as usize].release,
            false => u32::MAX,
        };
    }

    /// Consumes the next pending pair that fetches block `idx`, if any.
    fn consume_block(&mut self, idx: u32) {
        let mut s = self.block_head[idx as usize];
        while s != NO_SLOT {
            let newly = self.consumed.insert(s);
            s = self.next_same[s as usize];
            if newly {
                break;
            }
        }
        self.block_head[idx as usize] = s;
    }
}

/// Attempts to fetch block `idx` evicting `evict` (or [`NO_EVICT`]),
/// repairing a stale eviction.
fn try_issue(ctx: &mut Ctx<'_>, idx: u32, evict: u32) -> IssueOutcome {
    if ctx.cache.resident(idx) || ctx.cache.inflight(idx) {
        return IssueOutcome::Skipped; // already handled (e.g. demand fetch)
    }
    // Deviations from the planned schedule (demand consumption of an
    // earlier pair, eviction repair, an abandoned faulted fetch) can
    // leave a pair pending after the block's last disclosed use has
    // been served from residency. Issuing it then would fetch data
    // nothing will ever reference — wasted bandwidth mid-run, and a
    // fetch that never completes if it happens at the end of the run.
    if !ctx.oracle.occurs_at_or_after(idx, ctx.cursor) {
        return IssueOutcome::Skipped;
    }
    // Resolve the eviction: prefer the scheduled victim, fall back to
    // a free frame or the current furthest-future resident.
    let evict = match evict {
        e if e != NO_EVICT && ctx.cache.resident(e) && Some(e) != ctx.cache.pinned() => Some(e),
        _ if ctx.cache.has_free_frame() => None,
        _ => match ctx.cache.furthest_resident(ctx.cursor, ctx.oracle) {
            Some((victim, _)) => Some(victim),
            // Every frame is in flight; keep the pair for later.
            None => return IssueOutcome::Blocked,
        },
    };
    ctx.issue_fetch_idx(idx, evict);
    IssueOutcome::Issued
}

impl Policy for ReverseAggressive {
    fn name(&self) -> &'static str {
        "reverse-aggressive"
    }

    fn decide(&mut self, ctx: &mut Ctx<'_>) {
        let batch = self.batch_size;
        let replay = self.replay(ctx.oracle);
        for d in 0..ctx.config.disks {
            if replay.wake[d] as usize > ctx.cursor {
                #[cfg(test)]
                if ctx.array.is_free(DiskId(d)) {
                    replay.skipped_scans += 1;
                }
                continue;
            }
            if ctx.array.is_free(DiskId(d)) {
                replay.scan(ctx, d, batch);
            }
        }
    }

    fn on_miss(&mut self, ctx: &mut Ctx<'_>, block: BlockId) {
        // Consume the block's next scheduled pair, if any, then fetch.
        let idx = ctx.index_of_missed(block);
        self.replay(ctx.oracle).consume_block(idx);
        demand_fetch_idx(ctx, idx);
    }

    /// The replay follows its own schedule: it reads neither index.
    fn indexes(&self) -> Indexes {
        Indexes::NONE
    }
}

/// The oracle over the reversed disclosed sequence of `trace`: the
/// offline pass only knows the disclosed references, so the sequence is
/// reversed keeping only hinted positions (reverse index j maps to
/// forward index n-1-j).
pub(crate) fn reversed_oracle(trace: &Trace, layout: Layout, hints: &HintSpec) -> Oracle {
    let n = trace.requests.len();
    let mask = hints.mask(n);
    let entries: Vec<(usize, BlockId)> = (0..n)
        .filter(|&j| mask[n - 1 - j])
        .map(|j| (j, trace.requests[n - 1 - j].block))
        .collect();
    Oracle::from_positions(n, entries, layout)
}

/// Sentinel for "none" in the reverse pass's `u32` slot arrays.
const NONE32: u32 = u32::MAX;

/// Sentinel in `completion_of` for "no pending fetch".
const NO_COMPLETION: u64 = u64::MAX;

/// A multiset of positions: one bit per position, and the rare repeats
/// of a position on the side.
struct Positions {
    seen: BitSet,
    repeats: Vec<u32>,
}

impl Positions {
    fn new(capacity: usize) -> Positions {
        Positions {
            seen: BitSet::with_capacity(capacity),
            repeats: Vec::new(),
        }
    }

    fn add(&mut self, pos: usize) {
        if !self.seen.insert(pos as u32) {
            self.repeats.push(pos as u32);
        }
    }

    /// How many positions were added.
    fn len(&self) -> usize {
        self.seen.len() + self.repeats.len()
    }

    /// Every position added, ascending, as often as it was added.
    fn ascending(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.repeats.sort_unstable();
        let mut repeats = self.repeats.iter().copied().peekable();
        let mut seen = self.seen.ones().peekable();
        // Every repeat is also a seen position, so it is emitted just
        // before the seen copy of its position.
        std::iter::from_fn(move || match (seen.peek(), repeats.peek()) {
            (Some(&pos), Some(&rep)) if rep == pos => repeats.next(),
            _ => seen.next(),
        })
        .map(|pos| pos as usize)
    }
}

/// Runs the reverse pass over `reversed` and transforms it into the
/// forward schedule. Its completions wait in `Q`, [`DiskFifos`] outside
/// tests.
fn build_schedule<Q: Completions>(
    reversed: &Oracle,
    cache_blocks: usize,
    fetch_estimate: u64,
    batch_size: usize,
) -> Vec<Pair> {
    let n = reversed.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        n < u32::MAX as usize,
        "trace too long for u32 schedule positions"
    );
    let mut pass = ReversePass::<Q>::new(reversed, cache_blocks, fetch_estimate, batch_size);
    pass.run();
    let ReversePass {
        cache,
        last_use,
        mut fetches,
        mut evictions,
        ..
    } = pass;
    // Blocks resident at reverse end: cold-start forward fetches keyed by
    // their last reverse use, which is their first forward use.
    for b in cache.resident_indices() {
        let last = last_use[b as usize];
        debug_assert_eq!(
            (last != NONE32).then_some(last as usize),
            reversed.last_occurrence_before(reversed.block_of(b), n),
            "resident block's recorded last use"
        );
        if last != NONE32 {
            fetches.add(n - 1 - last as usize);
        }
    }
    // Reading the positions in order sorts both lists. A fetch keyed k
    // serves the forward use at k, reverse position n - 1 - k; an
    // eviction released at r was fetched for reverse position n - r. Each
    // position holds one block, so the position alone names it.
    let block_at = |pos: usize| {
        reversed
            .index_at(pos)
            .expect("scheduled positions are disclosed")
    };
    // The schedule lives through the replay: size it exactly.
    let mut schedule = Vec::with_capacity(fetches.len());
    let fetches = fetches
        .ascending()
        .map(|key| (key as u32, block_at(n - 1 - key)));
    let mut ev_iter = evictions
        .ascending()
        .map(|release| (release as u32, block_at(n - release)));

    // Match fetches to evictions in order; the first `cache_blocks`
    // fetches fill cold frames. Surplus evictions are dropped.
    schedule.extend(fetches.enumerate().map(|(i, (key, block))| {
        let (release, evict) = if i < cache_blocks {
            (0, NO_EVICT)
        } else {
            ev_iter.next().unwrap_or((0, NO_EVICT))
        };
        Pair {
            block,
            key,
            evict,
            release,
        }
    }));
    schedule
}

/// The reverse pass's pending fetch completions.
trait Completions {
    fn new(disks: usize) -> Self;
    /// Block `idx` (`block`), fetched on `disk`, completes at `done`.
    fn push(&mut self, disk: usize, done: u64, block: BlockId, idx: u32);
    /// Removes every completion due at or before `time`, handing each
    /// block index to `apply`.
    fn drain_due(&mut self, time: u64, apply: impl FnMut(u32));
}

/// One FIFO of pending completions per disk.
///
/// In the uniform model a fetch on disk d completes at
/// `max(busy_until[d], time) + F̂`, so with F̂ ≥ 1 a disk's completion
/// times strictly increase in issue order, and each FIFO is sorted. The
/// completions one drain applies all land at the same cursor, and each
/// only makes its own block resident, keyed by its own next use, so
/// their order changes nothing: applying them disk by disk leaves the
/// state that merging the FIFO heads on `(time, BlockId)`, the order of
/// the min-heap this replaced, would leave.
struct DiskFifos {
    /// Per disk: `(time, index)` in completion order.
    queues: Vec<VecDeque<(u64, u32)>>,
    /// The earliest pending completion, `u64::MAX` when none is pending.
    next: u64,
}

impl Completions for DiskFifos {
    fn new(disks: usize) -> DiskFifos {
        DiskFifos {
            queues: vec![VecDeque::new(); disks],
            next: u64::MAX,
        }
    }

    #[inline]
    fn push(&mut self, disk: usize, done: u64, _block: BlockId, idx: u32) {
        let queue = &mut self.queues[disk];
        debug_assert!(
            queue.back().is_none_or(|&(t, _)| t < done),
            "disk {disk}'s completion times must strictly increase"
        );
        queue.push_back((done, idx));
        self.next = self.next.min(done);
    }

    #[inline]
    fn drain_due(&mut self, time: u64, mut apply: impl FnMut(u32)) {
        if time < self.next {
            return;
        }
        let mut next = u64::MAX;
        for queue in &mut self.queues {
            while let Some(&(t, idx)) = queue.front() {
                if t > time {
                    next = next.min(t);
                    break;
                }
                queue.pop_front();
                apply(idx);
            }
        }
        self.next = next;
    }
}

/// Batched aggressive over the reversed sequence in the uniform
/// fetch-time model (§2.5; the module docs give the transformation).
/// Instead of an event log it records the forward fetches and evictions
/// directly, by position, and it records every block's last
/// reverse use as it consumes references, so keying the forward fetch of
/// an evicted block needs no occurrence-list search. An eviction with no
/// prior use would serve no forward reference and is dropped.
struct ReversePass<'o, Q> {
    oracle: &'o Oracle,
    cache: Cache,
    missing: MissingTracker,
    fetch_time: u64,
    batch_size: usize,
    /// Current reverse time, in compute steps.
    time: u64,
    busy_until: Vec<u64>,
    /// A lower bound on the earliest `busy_until`: before then no disk is
    /// free and a decision point can do nothing. Issuing only raises busy
    /// times, so the bound is refreshed when a decision point passes it.
    next_free: u64,
    /// Pending completions.
    completions: Q,
    /// Pending completion time per compact index.
    completion_of: Vec<u64>,
    /// Last consumed reverse position per compact index.
    last_use: Vec<u32>,
    /// Per-disk batch budget and scan start of the current decision.
    budget: Vec<usize>,
    from: Vec<usize>,
    /// Per disk: its first missing position at or after `from`, for disks
    /// with budget left (`usize::MAX` for the rest, or when none). Valid
    /// inside one decision once `decide` has filled it; an issue changes
    /// only the issuing disk's and the evicted block's disk's entry.
    first: Vec<usize>,
    /// Forward fetches by key, the forward position they serve.
    fetches: Positions,
    /// Forward evictions by release position.
    evictions: Positions,
}

impl<'o, Q: Completions> ReversePass<'o, Q> {
    fn new(oracle: &'o Oracle, cache_blocks: usize, fetch_time: u64, batch_size: usize) -> Self {
        // Configs built by struct literal bypass `with_reverse_params`;
        // per-disk completion order needs every fetch to take time.
        assert!(fetch_time >= 1, "reverse fetch estimate must be at least 1");
        let disks = oracle.layout().disks();
        let blocks = oracle.num_blocks();
        ReversePass {
            oracle,
            // The pass knows exactly the disclosed sequence it plans over.
            cache: Cache::new(cache_blocks, oracle, Knowledge::Exact),
            missing: MissingTracker::new(oracle),
            fetch_time,
            batch_size,
            time: 0,
            busy_until: vec![0; disks],
            next_free: 0,
            completions: Q::new(disks),
            completion_of: vec![NO_COMPLETION; blocks],
            last_use: vec![NONE32; blocks],
            budget: vec![0; disks],
            from: vec![0; disks],
            first: vec![usize::MAX; disks],
            fetches: Positions::new(oracle.len()),
            evictions: Positions::new(oracle.len() + 1),
        }
    }

    fn run(&mut self) {
        for i in 0..self.oracle.len() {
            // Undisclosed references are invisible to the offline
            // planner: they cost their compute step but trigger nothing.
            let Some(bi) = self.oracle.index_at(i) else {
                self.time += 1;
                continue;
            };
            self.advance(i);
            self.decide(i);
            if !self.cache.resident(bi) {
                if !self.cache.inflight(bi) {
                    // Demand fetch with the best possible eviction.
                    let evict = if self.cache.has_free_frame() {
                        None
                    } else {
                        self.cache
                            .furthest_resident(i, self.oracle)
                            .map(|(victim, _)| victim)
                    };
                    self.issue(bi, evict, i, i);
                }
                let arrival = self.completion_of[bi as usize];
                assert_ne!(arrival, NO_COMPLETION, "stalled block has a pending fetch");
                self.time = self.time.max(arrival);
                self.advance(i);
            }
            self.cache.on_reference(bi, i, self.oracle);
            self.last_use[bi as usize] = i as u32;
            self.time += 1;
        }
    }

    /// Applies all completions due by the current time.
    fn advance(&mut self, cursor: usize) {
        let (cache, completion_of, oracle) =
            (&mut self.cache, &mut self.completion_of, self.oracle);
        self.completions.drain_due(self.time, |idx| {
            completion_of[idx as usize] = NO_COMPLETION;
            cache.complete_fetch(idx, cursor, oracle);
        });
    }

    /// Disk `d`'s entry of `first`: its first missing position at or
    /// after `from[d]` while it has budget left.
    fn first_on(&self, d: usize) -> usize {
        match self.budget[d] {
            0 => usize::MAX,
            _ => self
                .missing
                .first_missing_on_disk(d, self.from[d])
                .unwrap_or(usize::MAX),
        }
    }

    /// The first missing position on a disk with batch budget left, and
    /// its disk, from `first`. Positions are unique across disks.
    fn candidate(&self) -> Option<(usize, usize)> {
        let (disk, &pos) = self.first.iter().enumerate().min_by_key(|&(_, &p)| p)?;
        let found = (pos != usize::MAX).then_some((pos, disk));
        debug_assert_eq!(found, self.candidate_by_query(), "cached first missing");
        found
    }

    /// [`ReversePass::candidate`] from one missing-set query per disk:
    /// the spec of the cached `first`.
    fn candidate_by_query(&self) -> Option<(usize, usize)> {
        (0..self.budget.len())
            .filter(|&d| self.budget[d] > 0)
            .filter_map(|d| Some((self.missing.first_missing_on_disk(d, self.from[d])?, d)))
            .min()
    }

    /// Fills batches on free disks, aggressive-style: whenever a disk is
    /// free, fetch the first missing block on it, evicting the furthest
    /// resident block provided its next use falls after the fetched
    /// block's (do no harm), else stop entirely.
    fn decide(&mut self, cursor: usize) {
        if self.time < self.next_free {
            debug_assert!(self.busy_until.iter().all(|&b| b > self.time));
            return;
        }
        self.next_free = self.busy_until.iter().copied().min().unwrap_or(u64::MAX);
        if self.time < self.next_free {
            return;
        }
        for d in 0..self.busy_until.len() {
            self.budget[d] = if self.busy_until[d] <= self.time {
                self.batch_size
            } else {
                0
            };
            self.from[d] = cursor;
        }
        let mut first_ready = false;
        loop {
            let victim = if self.cache.has_free_frame() {
                None
            } else {
                let Some((victim, key)) = self.cache.furthest_resident(cursor, self.oracle) else {
                    return;
                };
                // Every candidate sits at or after the global first
                // missing position, so a victim needed no later than it
                // stops the batch before any per-disk scan.
                if self
                    .missing
                    .first_missing(cursor)
                    .is_none_or(|first| key <= first)
                {
                    debug_assert!(self.candidate_by_query().is_none_or(|(pos, _)| key <= pos));
                    return;
                }
                Some((victim, key))
            };
            if !first_ready {
                for d in 0..self.first.len() {
                    self.first[d] = self.first_on(d);
                }
                first_ready = true;
            }
            let Some((pos, disk)) = self.candidate() else {
                return;
            };
            let evict = match victim {
                Some((_, key)) if key <= pos => return, // do no harm: stop entirely
                v => v.map(|(victim, _)| victim),
            };
            let idx = self
                .oracle
                .index_at(pos)
                .expect("missing-tracker positions are disclosed");
            debug_assert_eq!(self.oracle.disk_of(self.oracle.block_of(idx)).index(), disk);
            self.issue(idx, evict, cursor, pos);
            self.budget[disk] -= 1;
            self.from[disk] = pos + 1;
            self.first[disk] = self.first_on(disk);
            if let Some(e) = evict {
                // The victim is missing again from its next use on.
                let d = self.oracle.disk_of(self.oracle.block_of(e)).index();
                self.first[d] = self.first_on(d);
            }
        }
    }

    /// Fetches block `idx` for its use at `target`, evicting `evict`, and
    /// records the forward eviction and fetch the two halves become.
    fn issue(&mut self, idx: u32, evict: Option<u32>, cursor: usize, target: usize) {
        let oracle = self.oracle;
        let block = oracle.block_of(idx);
        self.cache.start_fetch(idx, evict);
        let next = self.cache.next_use(idx, cursor, oracle);
        self.missing.on_fetch_issued_idx(idx, next, oracle);
        let n = oracle.len();
        self.evictions.add(n - target);
        if let Some(e) = evict {
            let next = self.cache.next_use(e, cursor, oracle);
            self.missing.on_evicted_idx(e, next, oracle);
            let last = self.last_use[e as usize];
            debug_assert_eq!(
                (last != NONE32).then_some(last as usize),
                oracle.last_occurrence_before(oracle.block_of(e), cursor),
                "evicted block's recorded last use"
            );
            if last != NONE32 {
                self.fetches.add(n - 1 - last as usize);
            }
        }
        let disk = oracle.disk_of(block).index();
        let done = self.busy_until[disk].max(self.time) + self.fetch_time;
        self.busy_until[disk] = done;
        self.completions.push(disk, done, block, idx);
        self.completion_of[idx as usize] = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskModelKind;
    use crate::engine::{simulate, simulate_with};
    use crate::policy::{demand_fetch, PolicyKind};
    use parcache_trace::Request;
    use parcache_types::Nanos;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    /// The global min-heap on `(time, BlockId, index)` the per-disk
    /// FIFOs replaced, kept as their executable spec: it pops due
    /// completions in time order, ties by block.
    struct HeapOrder(BinaryHeap<Reverse<(u64, BlockId, u32)>>);

    impl Completions for HeapOrder {
        fn new(_disks: usize) -> HeapOrder {
            HeapOrder(BinaryHeap::new())
        }

        fn push(&mut self, _disk: usize, done: u64, block: BlockId, idx: u32) {
            self.0.push(Reverse((done, block, idx)));
        }

        fn drain_due(&mut self, time: u64, mut apply: impl FnMut(u32)) {
            while let Some(&Reverse((t, _, idx))) = self.0.peek() {
                if t > time {
                    break;
                }
                self.0.pop();
                apply(idx);
            }
        }
    }

    /// The probe-window replay the head-cursor scan replaced, kept as its
    /// executable spec. Each scan pops the disk's pending pairs in key
    /// order: consumed pairs are dropped, released ones attempted, and
    /// unreleased ones set aside and pushed back, until `b` fetches went
    /// out, a pair was blocked, or more than `2b` unreleased pairs were
    /// set aside. A scan that changes nothing memoizes the earliest
    /// release among the pairs it set aside, and the disk's next scans
    /// are skipped until the cursor reaches it or a demand miss consumes
    /// one of the disk's pairs.
    struct ProbeWindowReplay {
        schedule: Vec<Pair>,
        planned_blocks: Vec<BlockId>,
        consumed: Vec<bool>,
        /// Pending pair indexes per disk, in key order.
        per_disk: Vec<VecDeque<usize>>,
        /// Pending pair indexes per block, in key order.
        per_block: HashMap<BlockId, VecDeque<usize>>,
        pair_disk: Vec<usize>,
        batch_size: usize,
        requeue: Vec<usize>,
        scan_dirty: Vec<bool>,
        next_release: Vec<usize>,
        /// Coverage: attempts that found no frame to free.
        blocked: usize,
        /// Coverage: demand misses that consumed a pair inside its
        /// disk's probe window.
        consumed_in_window: usize,
    }

    impl ProbeWindowReplay {
        fn new(plan: &ReverseAggressive, disks: usize) -> ProbeWindowReplay {
            let layout = Layout::striped(disks);
            let mut per_disk = vec![VecDeque::new(); disks];
            let mut per_block: HashMap<BlockId, VecDeque<usize>> = HashMap::new();
            let mut pair_disk = Vec::new();
            for (i, p) in plan.schedule.iter().enumerate() {
                let block = plan.planned_blocks[p.block as usize];
                let d = layout.disk_of(block).index();
                per_disk[d].push_back(i);
                per_block.entry(block).or_default().push_back(i);
                pair_disk.push(d);
            }
            ProbeWindowReplay {
                schedule: plan.schedule.clone(),
                planned_blocks: plan.planned_blocks.clone(),
                consumed: vec![false; plan.schedule.len()],
                per_disk,
                per_block,
                pair_disk,
                batch_size: plan.batch_size,
                requeue: Vec::new(),
                scan_dirty: vec![true; disks],
                next_release: vec![0; disks],
                blocked: 0,
                consumed_in_window: 0,
            }
        }

        fn issue_pair(&mut self, ctx: &mut Ctx<'_>, i: usize) -> IssueOutcome {
            let pair = self.schedule[i];
            let run_idx = |ctx: &Ctx<'_>, planned: u32| {
                ctx.oracle
                    .index_of(self.planned_blocks[planned as usize])
                    .expect("scheduled block outside the indexed universe")
            };
            let idx = run_idx(ctx, pair.block);
            let evict = match pair.evict {
                NO_EVICT => NO_EVICT,
                e => run_idx(ctx, e),
            };
            let outcome = try_issue(ctx, idx, evict);
            match outcome {
                IssueOutcome::Blocked => self.blocked += 1,
                IssueOutcome::Issued | IssueOutcome::Skipped => self.consumed[i] = true,
            }
            outcome
        }

        /// Whether pending pair `i` on disk `d` lies inside the disk's
        /// probe window at `cursor`.
        fn in_window(&self, d: usize, i: usize, cursor: usize) -> bool {
            let mut unreleased = 0;
            for &j in &self.per_disk[d] {
                if j == i {
                    return true;
                }
                if !self.consumed[j] && self.schedule[j].release as usize > cursor {
                    unreleased += 1;
                    if unreleased > 2 * self.batch_size {
                        return false;
                    }
                }
            }
            false
        }
    }

    impl Policy for ProbeWindowReplay {
        fn name(&self) -> &'static str {
            "reverse-aggressive"
        }

        fn decide(&mut self, ctx: &mut Ctx<'_>) {
            for d in 0..ctx.config.disks {
                if !ctx.array.is_free(DiskId(d)) {
                    continue;
                }
                if !self.scan_dirty[d] && ctx.cursor < self.next_release[d] {
                    continue;
                }
                let mut issued = 0;
                let mut mutated = false;
                let mut min_release = usize::MAX;
                self.requeue.clear();
                while issued < self.batch_size {
                    let Some(i) = self.per_disk[d].pop_front() else {
                        break;
                    };
                    if self.consumed[i] {
                        mutated = true;
                        continue;
                    }
                    let release = self.schedule[i].release as usize;
                    if release > ctx.cursor {
                        self.requeue.push(i);
                        min_release = min_release.min(release);
                        if self.requeue.len() > 2 * self.batch_size {
                            break;
                        }
                        continue;
                    }
                    match self.issue_pair(ctx, i) {
                        IssueOutcome::Issued => {
                            issued += 1;
                            mutated = true;
                        }
                        IssueOutcome::Skipped => mutated = true,
                        IssueOutcome::Blocked => {
                            self.requeue.push(i);
                            mutated = true;
                            break;
                        }
                    }
                }
                for &i in self.requeue.iter().rev() {
                    self.per_disk[d].push_front(i);
                }
                if !mutated {
                    self.scan_dirty[d] = false;
                    self.next_release[d] = min_release;
                }
            }
        }

        fn on_miss(&mut self, ctx: &mut Ctx<'_>, block: BlockId) {
            let mut taken = None;
            if let Some(queue) = self.per_block.get_mut(&block) {
                while let Some(i) = queue.pop_front() {
                    if !self.consumed[i] {
                        taken = Some(i);
                        break;
                    }
                }
            }
            if let Some(i) = taken {
                let d = self.pair_disk[i];
                if self.in_window(d, i, ctx.cursor) {
                    self.consumed_in_window += 1;
                }
                self.consumed[i] = true;
                self.scan_dirty[d] = true;
            }
            demand_fetch(ctx, block);
        }
    }

    #[test]
    fn indexed_scan_matches_the_probe_window_reference() {
        // Every reverse_grid configuration (F̂ in {1, 4, 16, 64} × batch
        // in {4, 40}) under full, partial and predicted hints, on a
        // healthy array and under read faults plus an outage, on 1-4
        // disks: the head-cursor replay must produce the reference's
        // report and event stream exactly.
        use crate::engine::simulate_with_probed;
        use crate::predict::{HintMode, PredictorKind};
        use crate::probe::Event;
        use parcache_disk::FaultPlan;
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x2b1_1996);
        let (mut blocked, mut consumed_in_window, mut skipped_scans) = (0, 0, 0);
        for case in 0..12u64 {
            let disks = 1 + case as usize % 4;
            let len = rng.gen_range(80usize..=220);
            let universe = rng.gen_range(4u64..=40);
            let stride = rng.gen_range(1u64..=3);
            // Loops with random jumps, so runs, reuse and misses all occur.
            let mut b = 0u64;
            let requests: Vec<Request> = (0..len)
                .map(|_| {
                    b = if rng.gen_bool(0.2) {
                        rng.gen_range(0..universe)
                    } else {
                        (b + stride) % universe
                    };
                    Request {
                        block: BlockId(b),
                        compute: Nanos::from_micros(rng.gen_range(200u64..=3000)),
                    }
                })
                .collect();
            let cache = rng.gen_range(2usize..=10);
            let trace = Trace::new("spec", requests, cache);
            let hint_modes = [
                SimConfig::new(disks, cache),
                SimConfig::new(disks, cache).with_hints(HintSpec::Fraction {
                    fraction: 0.6,
                    seed: case,
                }),
                SimConfig::new(disks, cache)
                    .with_hint_mode(HintMode::Predicted(PredictorKind::Markov)),
            ];
            for base in hint_modes {
                let faulty = base.clone().with_faults(
                    FaultPlan::parse(&format!("flaky:*:0.05,outage:0:20:300,seed:{case}"))
                        .expect("valid fault plan"),
                );
                for plan in [base, faulty] {
                    for f in [1u64, 4, 16, 64] {
                        for batch in [4usize, 40] {
                            let cfg = plan.clone().with_reverse_params(f, batch);
                            let mut fast = ReverseAggressive::new(&trace, &cfg);
                            let mut spec = ProbeWindowReplay::new(&fast, disks);
                            let (mut fast_events, mut spec_events) = (Vec::new(), Vec::new());
                            let got =
                                simulate_with_probed(&trace, &mut fast, &cfg, &mut |e: &Event| {
                                    fast_events.push(*e)
                                });
                            let want =
                                simulate_with_probed(&trace, &mut spec, &cfg, &mut |e: &Event| {
                                    spec_events.push(*e)
                                });
                            let what = format!("case {case}, F̂ {f}, batch {batch}, {cfg:?}");
                            assert_eq!(got, want, "{what}");
                            assert!(fast_events == spec_events, "event streams differ: {what}");
                            blocked += spec.blocked;
                            consumed_in_window += spec.consumed_in_window;
                            skipped_scans += fast.replay.as_ref().map_or(0, |r| r.skipped_scans);
                        }
                    }
                }
            }
        }
        // The corpus reaches both paths that can end or widen a window
        // outside the release cursor.
        assert!(blocked > 0, "no attempt was blocked");
        assert!(
            consumed_in_window > 0,
            "no demand miss consumed a windowed pair"
        );
        // The wake gate skipped scans of free disks with nothing
        // released, and the replays still matched.
        assert!(skipped_scans > 0, "the wake never skipped a scan");
    }

    #[test]
    fn reverse_pass_on_disk_fifos_matches_the_completion_heap() {
        // Every grid configuration under full, fraction, segment and
        // prefix hints on 1-4 disks: the per-disk completion FIFOs must
        // plan the schedule the global completion heap plans, including
        // where completions on different disks fall due together.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0xf1f0_4ea9);
        for case in 0..24u64 {
            let disks = 1 + case as usize % 4;
            let len = rng.gen_range(40usize..=240);
            let universe = rng.gen_range(4u64..=40);
            let blocks: Vec<u64> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
            let cache = rng.gen_range(2usize..=10);
            let trace = trace_of(&blocks, cache);
            let specs = [
                HintSpec::Full,
                HintSpec::Fraction {
                    fraction: 0.6,
                    seed: case,
                },
                HintSpec::Segments {
                    fraction: 0.5,
                    mean_run: 12,
                    seed: case,
                },
                HintSpec::Prefix { disclosed: len / 2 },
            ];
            for hints in specs {
                let reversed = reversed_oracle(&trace, Layout::striped(disks), &hints);
                for f in [1u64, 4, 16, 64] {
                    for batch in [4usize, 40] {
                        let fifos = build_schedule::<DiskFifos>(&reversed, cache, f, batch);
                        let heap = build_schedule::<HeapOrder>(&reversed, cache, f, batch);
                        assert_eq!(
                            fifos, heap,
                            "case {case}, {disks} disks, {hints:?}, F̂ {f}, batch {batch}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn positions_ascend_with_their_repeats() {
        // The schedule's fetch and eviction lists, as a sort would give
        // them: random positions, many added more than once.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x9051_7105);
        for _ in 0..50 {
            let cap = rng.gen_range(1usize..=300);
            let mut positions = Positions::new(cap);
            let mut want: Vec<usize> = (0..rng.gen_range(0usize..=400))
                .map(|_| rng.gen_range(0..cap))
                .collect();
            for &p in &want {
                positions.add(p);
            }
            want.sort_unstable();
            assert_eq!(positions.ascending().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    #[should_panic(expected = "reverse fetch estimate must be at least 1")]
    fn zero_fetch_estimate_is_rejected() {
        // A struct-literal config bypasses `with_reverse_params`.
        let mut c = cfg(2, 4, 2);
        c.reverse_fetch_estimate = 0;
        ReverseAggressive::new(&trace_of(&[1, 2, 3], 4), &c);
    }

    fn trace_of(blocks: &[u64], cache: usize) -> Trace {
        Trace::new(
            "t",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_millis(1),
                })
                .collect(),
            cache,
        )
    }

    fn cfg(disks: usize, cache: usize, fetch_ms: u64) -> SimConfig {
        let mut c = SimConfig::new(disks, cache);
        c.disk_model = DiskModelKind::Uniform(Nanos::from_millis(fetch_ms));
        c.driver_overhead = Nanos::ZERO;
        c.reverse_fetch_estimate = fetch_ms;
        c.reverse_batch_size = 4;
        c
    }

    #[test]
    fn schedule_covers_every_distinct_block() {
        let blocks: Vec<u64> = (0..20).chain(0..20).collect();
        let t = trace_of(&blocks, 8);
        let c = cfg(2, 8, 3);
        let p = ReverseAggressive::new(&t, &c);
        let scheduled: std::collections::HashSet<BlockId> = p
            .schedule()
            .iter()
            .map(|q| p.planned_blocks[q.block as usize])
            .collect();
        for b in 0..20u64 {
            assert!(scheduled.contains(&BlockId(b)), "block {b} unscheduled");
        }
    }

    #[test]
    fn schedule_keys_are_sorted() {
        let blocks: Vec<u64> = (0..30).chain((0..30).rev()).collect();
        let t = trace_of(&blocks, 10);
        let c = cfg(3, 10, 4);
        let p = ReverseAggressive::new(&t, &c);
        let keys: Vec<u32> = p.schedule().iter().map(|q| q.key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn replay_serves_everything() {
        let blocks: Vec<u64> = (0..40).map(|i| (i * 7) % 15).collect();
        let t = trace_of(&blocks, 6);
        let c = cfg(2, 6, 5);
        let mut p = ReverseAggressive::new(&t, &c);
        let r = simulate_with(&t, &mut p, &c);
        assert_eq!(r.elapsed, r.compute + r.driver + r.stall);
        assert!(r.fetches >= 15, "fetches {}", r.fetches);
    }

    #[test]
    fn competitive_with_aggressive_on_balanced_load() {
        // On a balanced striped sequential load, reverse aggressive should
        // be in the same league as aggressive (paper: never much better,
        // rarely much worse).
        let blocks: Vec<u64> = (0..60).collect();
        let t = trace_of(&blocks, 16);
        let c = cfg(2, 16, 4);
        let agg = simulate(&t, PolicyKind::Aggressive, &c);
        let rev = simulate(&t, PolicyKind::ReverseAggressive, &c);
        let ratio = rev.elapsed.as_nanos() as f64 / agg.elapsed.as_nanos() as f64;
        assert!(
            ratio < 1.3,
            "reverse {} vs aggressive {}",
            rev.elapsed,
            agg.elapsed
        );
    }

    #[test]
    fn beats_demand_fetching() {
        let blocks: Vec<u64> = (0..50).collect();
        let t = trace_of(&blocks, 10);
        let c = cfg(2, 10, 6);
        let demand = simulate(&t, PolicyKind::Demand, &c);
        let rev = simulate(&t, PolicyKind::ReverseAggressive, &c);
        assert!(rev.elapsed < demand.elapsed);
    }

    #[test]
    fn last_occurrence_before_works() {
        let t = trace_of(&[1, 2, 1, 3, 1], 4);
        let o = Oracle::new(&t, Layout::striped(1));
        assert_eq!(o.last_occurrence_before(BlockId(1), 5), Some(4));
        assert_eq!(o.last_occurrence_before(BlockId(1), 4), Some(2));
        assert_eq!(o.last_occurrence_before(BlockId(1), 1), Some(0));
        assert_eq!(o.last_occurrence_before(BlockId(1), 0), None);
        assert_eq!(o.last_occurrence_before(BlockId(9), 5), None);
    }

    #[test]
    fn last_occurrence_before_matches_naive_scan() {
        // Property test: the binary-searched answer must equal a naive
        // backward scan over fuzzer-style randomized traces.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x5eed_1996);
        for case in 0..200 {
            let len = rng.gen_range(1usize..=60);
            let universe = rng.gen_range(1u64..=20);
            let blocks: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..universe)).collect();
            let t = trace_of(&blocks, 4);
            let o = Oracle::new(&t, Layout::striped(rng.gen_range(1usize..=4)));
            for before in 0..=len {
                for b in 0..universe {
                    let naive = (0..before).rev().find(|&i| blocks[i] == b);
                    assert_eq!(
                        o.last_occurrence_before(BlockId(b), before),
                        naive,
                        "case {case}: block {b} before {before} in {blocks:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_trace_yields_empty_schedule() {
        let t = trace_of(&[], 4);
        let c = cfg(1, 4, 2);
        let p = ReverseAggressive::new(&t, &c);
        assert!(p.schedule().is_empty());
    }

    #[test]
    fn stall_is_charged_to_late_prefetches() {
        // Pinned stall provenance: reverse aggressive's forward replay
        // issues every block's fetch from its precomputed schedule, and
        // on an I/O-bound single-disk scan the app only ever catches up
        // to a fetch already on the platter. All stall is a prefetch
        // that was merely late — none of it a missing or evicted fetch.
        use crate::probe::StallCause;
        let blocks: Vec<u64> = (0..30).collect();
        let t = trace_of(&blocks, 8);
        let c = cfg(1, 8, 4);
        let mut p = ReverseAggressive::new(&t, &c);
        let r = simulate_with(&t, &mut p, &c);
        assert!(r.stall > Nanos::ZERO);
        assert_eq!(r.stall_by_cause.get(StallCause::LatePrefetch), r.stall);
        assert_eq!(r.stall_by_cause.total(), r.stall);
    }
}
