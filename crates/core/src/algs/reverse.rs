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

use crate::cache::{Cache, MissingTracker};
use crate::config::SimConfig;
use crate::engine::Ctx;
use crate::hints::HintSpec;
use crate::oracle::{Oracle, NEVER};
use crate::policy::{demand_fetch, Policy};
use parcache_disk::Layout;
use parcache_trace::Trace;
use parcache_types::{BlockId, DiskId, FastMap};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled forward fetch/eviction pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// The block to fetch.
    pub block: BlockId,
    /// Forward position of the fetched block's next use (ordering key).
    pub key: usize,
    /// The block to evict, if the schedule calls for one.
    pub evict: Option<BlockId>,
    /// Earliest cursor position at which the eviction may happen.
    pub release: usize,
}

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
    /// Pairs sorted by `key`.
    schedule: Vec<Pair>,
    consumed: Vec<bool>,
    /// Pending pair indexes per disk, in key order.
    per_disk: Vec<VecDeque<usize>>,
    /// Pending pair indexes per block (for demand misses), in CSR form:
    /// [`block_slot`](Self::block_slot) maps a block to a slot `s`, and
    /// `by_block_idx[by_block_off[s] .. by_block_off[s + 1]]` lists the
    /// slot's pair indexes in key order. Three flat arrays plus one map
    /// instead of a heap-allocated queue per distinct block — the queues
    /// were the policy's entire ~19k-allocation footprint.
    block_slot: FastMap<BlockId, u32>,
    by_block_off: Vec<u32>,
    by_block_idx: Vec<u32>,
    /// Per slot: consume cursor into its `by_block_idx` range. Entries
    /// behind the cursor are spent (popped by earlier demand misses).
    by_block_head: Vec<u32>,
    batch_size: usize,
    /// Scratch for unreleased pairs pulled during a decide scan; reused
    /// across decision points to avoid a per-disk allocation.
    requeue: Vec<usize>,
    /// Disk each scheduled pair's fetch lives on.
    pair_disk: Vec<u32>,
    /// Per disk: a scan is needed. Cleared when a scan changes nothing,
    /// set again when a pair on the disk is consumed out of band.
    scan_dirty: Vec<bool>,
    /// Per disk: when `scan_dirty` is clear, the earliest cursor at which
    /// a pending pair in the probe window becomes released. Until then a
    /// rescan would observably do nothing, so `decide` skips it.
    next_release: Vec<usize>,
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
        let layout = reversed.layout();
        debug_assert_eq!(layout.disks(), config.disks, "reversed oracle layout");
        let schedule = build_schedule(
            reversed,
            config.cache_blocks,
            config.reverse_fetch_estimate,
            config.reverse_batch_size,
        );
        assert!(
            schedule.len() <= u32::MAX as usize,
            "schedule too large for u32 pair indexes"
        );
        let mut per_disk: Vec<VecDeque<usize>> = vec![VecDeque::new(); config.disks];
        let mut pair_disk: Vec<u32> = Vec::with_capacity(schedule.len());
        // First pass: assign slots in first-seen order and count each
        // slot's pairs.
        let mut block_slot: FastMap<BlockId, u32> = FastMap::default();
        let mut counts: Vec<u32> = Vec::new();
        for (i, p) in schedule.iter().enumerate() {
            let d = layout.disk_of(p.block).index();
            per_disk[d].push_back(i);
            pair_disk.push(d as u32);
            let next = counts.len() as u32;
            let s = *block_slot.entry(p.block).or_insert(next);
            if s == next {
                counts.push(0);
            }
            counts[s as usize] += 1;
        }
        // Prefix sums, then a second pass scatters the pair indexes into
        // their slot ranges (schedule order is key order, preserved
        // within each slot).
        let mut by_block_off: Vec<u32> = Vec::with_capacity(counts.len() + 1);
        by_block_off.push(0);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            by_block_off.push(acc);
        }
        let by_block_head: Vec<u32> = by_block_off[..counts.len()].to_vec();
        let mut write = by_block_head.clone();
        let mut by_block_idx: Vec<u32> = vec![0; schedule.len()];
        for (i, p) in schedule.iter().enumerate() {
            let s = block_slot[&p.block] as usize;
            by_block_idx[write[s] as usize] = i as u32;
            write[s] += 1;
        }
        ReverseAggressive {
            consumed: vec![false; schedule.len()],
            schedule,
            per_disk,
            block_slot,
            by_block_off,
            by_block_idx,
            by_block_head,
            batch_size: config.reverse_batch_size,
            requeue: Vec::new(),
            pair_disk,
            scan_dirty: vec![true; config.disks],
            next_release: vec![0; config.disks],
        }
    }

    /// The constructed schedule (diagnostics, tests).
    pub fn schedule(&self) -> &[Pair] {
        &self.schedule
    }

    /// Attempts to issue pair `i`, repairing a stale eviction.
    fn issue_pair(&mut self, ctx: &mut Ctx<'_>, i: usize) -> IssueOutcome {
        let pair = self.schedule[i];
        let idx = ctx
            .oracle
            .index_of(pair.block)
            .expect("scheduled block outside the indexed universe");
        if ctx.cache.resident(idx) || ctx.cache.inflight(idx) {
            self.consumed[i] = true; // already handled (e.g. demand fetch)
            return IssueOutcome::Skipped;
        }
        // Deviations from the planned schedule (demand consumption of an
        // earlier pair, eviction repair, an abandoned faulted fetch) can
        // leave a pair pending after the block's last disclosed use has
        // been served from residency. Issuing it then would fetch data
        // nothing will ever reference — wasted bandwidth mid-run, and a
        // fetch that never completes if it happens at the end of the run.
        if ctx.oracle.next_occurrence_idx(idx, ctx.cursor) == NEVER {
            self.consumed[i] = true;
            return IssueOutcome::Skipped;
        }
        // Resolve the eviction: prefer the scheduled victim, fall back to
        // a free frame or the current furthest-future resident.
        let scheduled_evict = pair.evict.and_then(|e| ctx.oracle.index_of(e));
        let evict = match scheduled_evict {
            Some(e) if ctx.cache.resident(e) && Some(e) != ctx.cache.pinned() => Some(e),
            _ if ctx.cache.has_free_frame() => None,
            _ => match ctx.cache.furthest_resident(ctx.cursor, ctx.oracle) {
                Some((victim, _)) => Some(victim),
                // Every frame is in flight; keep the pair for later.
                None => return IssueOutcome::Blocked,
            },
        };
        self.consumed[i] = true;
        ctx.issue_fetch_idx(idx, evict);
        IssueOutcome::Issued
    }
}

impl Policy for ReverseAggressive {
    fn name(&self) -> &'static str {
        "reverse-aggressive"
    }

    fn decide(&mut self, ctx: &mut Ctx<'_>) {
        for d in 0..ctx.config.disks {
            if !ctx.array.is_free(DiskId(d)) {
                continue;
            }
            // A previous scan proved the probe window holds only
            // unreleased pairs; until the cursor reaches the earliest of
            // their releases (or a pair on this disk is consumed out of
            // band, widening the window) a rescan would do nothing.
            if !self.scan_dirty[d] && ctx.cursor < self.next_release[d] {
                continue;
            }
            let mut issued = 0;
            let mut mutated = false;
            let mut min_release = usize::MAX;
            // Scan this disk's pending pairs in key order, issuing the
            // released ones. Releases are near-sorted by construction, so
            // stop at the first pair released well in the future.
            self.requeue.clear();
            while issued < self.batch_size {
                let Some(i) = self.per_disk[d].pop_front() else {
                    break;
                };
                if self.consumed[i] {
                    mutated = true;
                    continue;
                }
                if self.schedule[i].release > ctx.cursor {
                    self.requeue.push(i);
                    min_release = min_release.min(self.schedule[i].release);
                    // Unreleased; deeper pairs release even later in the
                    // common case. Probe a bounded window then stop.
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
            // Put unreleased pairs back, preserving order.
            for j in (0..self.requeue.len()).rev() {
                let i = self.requeue[j];
                self.per_disk[d].push_front(i);
            }
            if !mutated {
                // Nothing issued, consumed, or blocked: the window is
                // stable until `min_release` or out-of-band consumption.
                self.scan_dirty[d] = false;
                self.next_release[d] = min_release;
            }
        }
    }

    fn on_miss(&mut self, ctx: &mut Ctx<'_>, block: BlockId) {
        // Consume the block's next scheduled pair, if any, then fetch.
        if let Some(&slot) = self.block_slot.get(&block) {
            let s = slot as usize;
            let end = self.by_block_off[s + 1];
            let mut head = self.by_block_head[s];
            while head < end {
                let i = self.by_block_idx[head as usize] as usize;
                head += 1;
                if !self.consumed[i] {
                    self.consumed[i] = true;
                    // Consuming a pair widens another scan's probe
                    // window, so that disk must rescan.
                    self.scan_dirty[self.pair_disk[i] as usize] = true;
                    break;
                }
            }
            self.by_block_head[s] = head;
        }
        demand_fetch(ctx, block);
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

/// Packs a schedule position and a compact block index into one sort
/// key: sorting the packed keys sorts by position, and equal positions
/// always carry the same block.
fn pack(pos: usize, idx: u32) -> u64 {
    (pos as u64) << 32 | u64::from(idx)
}

/// Runs the reverse pass over `reversed` and transforms it into the
/// forward schedule.
fn build_schedule(
    reversed: &Oracle,
    cache_blocks: usize,
    fetch_estimate: u64,
    batch_size: usize,
) -> Vec<Pair> {
    let n = reversed.len();
    if n == 0 {
        return Vec::new();
    }
    let mut pass = ReversePass::new(reversed, cache_blocks, fetch_estimate, batch_size);
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
            fetches.push(pack(n - 1 - last as usize, b));
        }
    }
    fetches.sort_unstable();
    evictions.sort_unstable();

    // Match fetches to evictions in order; the first `cache_blocks`
    // fetches fill cold frames. Surplus evictions are dropped.
    let unpack = |k: u64| ((k >> 32) as usize, reversed.block_of(k as u32));
    let mut pairs: Vec<Pair> = Vec::with_capacity(fetches.len());
    let mut ev_iter = evictions.into_iter().map(unpack);
    for (i, (key, block)) in fetches.into_iter().map(unpack).enumerate() {
        let (evict, release) = if i < cache_blocks {
            (None, 0)
        } else {
            match ev_iter.next() {
                Some((release, e)) => (Some(e), release),
                None => (None, 0),
            }
        };
        pairs.push(Pair {
            block,
            key,
            evict,
            release,
        });
    }
    pairs
}

/// Batched aggressive over the reversed sequence in the uniform
/// fetch-time model (§2.5; the module docs give the transformation).
/// Instead of an event log it emits the forward fetches and evictions
/// directly, as packed sort keys, and it records every block's last
/// reverse use as it consumes references, so keying the forward fetch of
/// an evicted block needs no occurrence-list search. An eviction with no
/// prior use would serve no forward reference and is dropped.
struct ReversePass<'o> {
    oracle: &'o Oracle,
    cache: Cache,
    missing: MissingTracker,
    fetch_time: u64,
    batch_size: usize,
    /// Current reverse time, in compute steps.
    time: u64,
    busy_until: Vec<u64>,
    /// The earliest `busy_until`: before then no disk is free and a
    /// decision point can do nothing.
    next_free: u64,
    /// Pending completions: (time, block, index), min-heap. The block id
    /// sits in the middle so ties order exactly as they did before the
    /// compact index existed; the index rides along for the dense
    /// lookups.
    completions: BinaryHeap<Reverse<(u64, BlockId, u32)>>,
    /// Pending completion time per compact index.
    completion_of: Vec<u64>,
    /// Last consumed reverse position per compact index.
    last_use: Vec<u32>,
    /// Per-disk batch budget and scan start of the current decision.
    budget: Vec<usize>,
    from: Vec<usize>,
    /// Forward fetches as packed `(key, index)`.
    fetches: Vec<u64>,
    /// Forward evictions as packed `(release, index)`.
    evictions: Vec<u64>,
}

impl<'o> ReversePass<'o> {
    fn new(oracle: &'o Oracle, cache_blocks: usize, fetch_time: u64, batch_size: usize) -> Self {
        let disks = oracle.layout().disks();
        let blocks = oracle.num_blocks();
        ReversePass {
            oracle,
            cache: Cache::new(cache_blocks, blocks),
            missing: MissingTracker::new(oracle),
            fetch_time,
            batch_size,
            time: 0,
            busy_until: vec![0; disks],
            next_free: 0,
            completions: BinaryHeap::new(),
            completion_of: vec![NO_COMPLETION; blocks],
            last_use: vec![NONE32; blocks],
            budget: vec![0; disks],
            from: vec![0; disks],
            fetches: Vec::new(),
            evictions: Vec::new(),
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
        while let Some(&Reverse((t, _, idx))) = self.completions.peek() {
            if t > self.time {
                break;
            }
            self.completions.pop();
            self.completion_of[idx as usize] = NO_COMPLETION;
            self.cache.complete_fetch(idx, cursor, self.oracle);
        }
    }

    /// The first missing position on a disk with batch budget left, and
    /// its disk.
    fn candidate(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for d in 0..self.budget.len() {
            if self.budget[d] == 0 {
                continue;
            }
            if let Some(p) = self.missing.first_missing_on_disk(d, self.from[d]) {
                if best.is_none_or(|(bp, _)| p < bp) {
                    best = Some((p, d));
                }
            }
        }
        best
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
        for d in 0..self.busy_until.len() {
            self.budget[d] = if self.busy_until[d] <= self.time {
                self.batch_size
            } else {
                0
            };
            self.from[d] = cursor;
        }
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
                    debug_assert!(self.candidate().is_none_or(|(pos, _)| key <= pos));
                    return;
                }
                Some((victim, key))
            };
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
        }
    }

    /// Fetches block `idx` for its use at `target`, evicting `evict`, and
    /// records the forward eviction and fetch the two halves become.
    fn issue(&mut self, idx: u32, evict: Option<u32>, cursor: usize, target: usize) {
        let oracle = self.oracle;
        let block = oracle.block_of(idx);
        self.cache.start_fetch(idx, evict);
        self.missing.on_fetch_issued_idx(idx, cursor, oracle);
        let n = oracle.len();
        self.evictions.push(pack(n - target, idx));
        if let Some(e) = evict {
            self.missing.on_evicted_idx(e, cursor, oracle);
            let last = self.last_use[e as usize];
            debug_assert_eq!(
                (last != NONE32).then_some(last as usize),
                oracle.last_occurrence_before(oracle.block_of(e), cursor),
                "evicted block's recorded last use"
            );
            if last != NONE32 {
                self.fetches.push(pack(n - 1 - last as usize, e));
            }
        }
        let disk = oracle.disk_of(block).index();
        let done = self.busy_until[disk].max(self.time) + self.fetch_time;
        self.busy_until[disk] = done;
        self.next_free = self.busy_until.iter().copied().min().unwrap_or(u64::MAX);
        self.completions.push(Reverse((done, block, idx)));
        self.completion_of[idx as usize] = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskModelKind;
    use crate::engine::{simulate, simulate_with};
    use crate::policy::PolicyKind;
    use parcache_trace::Request;
    use parcache_types::Nanos;

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
        let scheduled: std::collections::HashSet<BlockId> =
            p.schedule().iter().map(|q| q.block).collect();
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
        let keys: Vec<usize> = p.schedule().iter().map(|q| q.key).collect();
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
