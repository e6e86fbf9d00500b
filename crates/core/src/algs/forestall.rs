//! The forestall algorithm (§5) — the paper's new hybrid.
//!
//! Forestall behaves like fixed horizon when there is no danger of
//! stalling (late fetches, best replacements) and like aggressive when
//! stalls loom. For each disk it estimates F' — an overestimate of the
//! ratio of fetch time to inter-reference compute time — and predicts a
//! stall whenever the i-th missing block on the disk sits within `i * F'`
//! references of the cursor (`iF' > d_i`): the disk cannot fetch i blocks
//! in less time than the application takes to reach them. When a stall is
//! predicted on a free disk, forestall prefetches there in batches exactly
//! as aggressive does; independently, fixed horizon's rule issues any
//! fetch whose block is within H references.
//!
//! F is estimated per disk from the most recent 100 fetch times and the
//! most recent 100 compute times; the overestimate is F' = F for disks
//! averaging under 5 ms per access (sequential, readahead-served loads)
//! and F' = 4F otherwise, per §5's "practical considerations". A static
//! multiplier can be configured instead (appendix H).

use crate::algs::aggressive::{fill_free_disk_batches, BatchScratch};
use crate::algs::fixed_horizon::FixedHorizon;
use crate::engine::Ctx;
use crate::policy::{Indexes, Policy};
use parcache_types::{DiskId, Nanos};
use std::cmp::Ordering;

/// Disks averaging under this per-access time use the low F' multiplier.
const FAST_DISK_THRESHOLD: Nanos = Nanos::from_millis(5);

/// Lookahead for stall prediction: `2K` references (§5).
const LOOKAHEAD_CACHES: usize = 2;

/// Fallback F when a disk has no fetch history yet: a conservative
/// average response time, as used to derive the prefetch horizon (§2.6).
const DEFAULT_FETCH: Nanos = Nanos::from_millis(15);

/// Floor on the compute average in the cold-start F fallback. Without a
/// floor the fallback divides the 15 ms [`DEFAULT_FETCH`] by whatever
/// compute average happens to be in the window — microsecond computes
/// made a history-less disk report F' in the tens of thousands, and the
/// first decision issued a phantom prefetch storm across the whole
/// window. Flooring the divisor at the same 1 ms the absent-history
/// default uses caps the cold-start ratio at `avg_fetch / 1 ms` (15 for
/// a disk with no fetch history at all).
const COLD_COMPUTE_FLOOR: Nanos = Nanos::from_millis(1);

/// Most insertions below the scan's window edge one FALSE certificate
/// absorbs before the scan is redone. Each adds a point checked on its
/// own and one rank to every later entry, so the certificate weakens
/// with each; a handful covers the evictions of a fetch batch.
const INSIDE_CAP: usize = 4;

/// A cached stall-prediction verdict for one disk. The two verdicts are
/// invalidated by *opposite* halves of the missing set's churn, which is
/// what makes the cache survive the steady state:
///
/// * A TRUE verdict is insensitive to insertions — more missing blocks
///   only strengthen a stall (the trigger entry's rank can only grow,
///   and `rank * F' >= d` holds a fortiori). It is keyed on the disk's
///   *removal* epoch alone.
/// * A FALSE verdict is insensitive to removals — every rank can only
///   shrink, so `rank * F' < d` keeps holding. Its certificate
///   ([`NoStall`]) absorbs insertions too, one by one from the tracker's
///   recent-insert ring, and turns removals at the window's front into
///   more slack.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// The scan found a trigger: the `index`-th missing entry in the
    /// window sits at position `pos`, with the disk's removal epoch at
    /// `epoch`. With no removals since, no entry at or below `pos` was
    /// consumed, so the entry's rank is at least `index`, and the exact
    /// trigger test re-runs in O(1) against the current cursor and F'.
    Stall { epoch: u64, index: u64, pos: usize },
    /// The scan proved no trigger exists; the disk's [`NoStall`] holds
    /// the certificate, which has absorbed every insertion up to
    /// insertion epoch `ins_epoch`.
    NoStall { ins_epoch: u64 },
}

/// The certificate of a FALSE scan at cursor `c0 = cursor` under F' =
/// `f_scan`, with the state it keeps to absorb the missing set's churn.
///
/// The scan left `R` entries in its window `[c0, window_end)`, the
/// `j`-th (1-based) at distance `d_j = dist[j - 1]` from `c0`, and `p*`,
/// the first missing position at or past `window_end`. Since then, at
/// cursor `c = c0 + delta`:
///
/// * the first `k = dropped` scanned entries have left the window (the
///   first missing position at or past `c` lies beyond them);
/// * `m = inside.len()` insertions landed in `[c, window_end)`;
/// * every insertion at or past `window_end` was folded into `tail`,
///   which stays the least missing position there.
///
/// Every missing position in the current window is then a surviving
/// scanned entry, an inside insertion or a tail entry, so with ranks
/// counted from `c` (positions are distinct):
///
/// * a surviving entry `j > k` has rank at most `j - k + m`;
/// * an inside insertion `x` with `b` scanned entries below it has rank
///   at most `max(b - k, 0) + m`;
/// * a tail entry at window distance `e` has rank at most
///   `(R - k + m + 1) + (e + delta - (p* - c0))`, whose no-trigger
///   slack is worst at the far edge `e = far`: the whole tail is clear
///   while `(a* + delta) * F' < far` with
///   `a* = (R - k + m + 1) - ((p* - c0) - far)` clamped at zero, and no
///   tail entry is even in the window while `delta <= p* - window_end`.
///
/// [`NoStall::max_advance`] turns these bounds into the largest covered
/// `delta` at a given F'. `fast` caches it at `f_scan`, which covers
/// every `F' <= f_scan` (the predicate is monotone in F') in O(1).
#[derive(Debug, Default)]
struct NoStall {
    /// The scan's cursor `c0`.
    cursor: usize,
    /// `c0 + window`: the scan's window edge.
    window_end: usize,
    /// The window's far edge, `window - 1`.
    far: u64,
    /// The F' the scan ran under.
    f_scan: f64,
    /// The largest covered advance at any `F' <= f_scan` for the current
    /// state; `None` when not even the scan's cursor is covered.
    fast: Option<u64>,
    /// The scanned entries' distances from `c0`, by rank.
    dist: Vec<u64>,
    /// `k`: how many leading scanned entries have left the window.
    dropped: usize,
    /// Insertions in `[c, window_end)` since the scan, each with the
    /// number of scanned entries below it.
    inside: Vec<(usize, usize)>,
    /// `p*`: the least missing position at or past `window_end`, over
    /// the scan's tail and every insertion there since.
    tail: Option<usize>,
    /// The lower hull of the surviving scanned entries.
    hull: SuffixHull,
}

impl NoStall {
    /// Whether the certificate still proves that no missing entry of the
    /// current window triggers at `cursor` under `f`, after absorbing
    /// `inserted` (every position inserted on the disk since the last
    /// call). `first_missing(c)` is the disk's first missing position at
    /// or past `c`. A `false` leaves the certificate unusable.
    fn covers(
        &mut self,
        inserted: impl IntoIterator<Item = usize>,
        first_missing: impl FnOnce(usize) -> Option<usize>,
        cursor: usize,
        f: f64,
    ) -> bool {
        debug_assert!(cursor >= self.cursor, "cursor moved backwards");
        let delta = (cursor - self.cursor) as u64;
        // An insertion at or past `guard` cannot lower `fast`: its own
        // tail bound `x - window_end` already reaches past it.
        let guard = self
            .fast
            .map_or(0, |d| usize::try_from(d).unwrap_or(usize::MAX))
            .saturating_add(self.window_end);
        let mut stale = false;
        for x in inserted {
            if x >= self.window_end {
                stale |= x < guard;
                self.tail = Some(self.tail.map_or(x, |p| p.min(x)));
            } else if x >= cursor {
                if self.inside.len() == INSIDE_CAP {
                    return false;
                }
                let below = self.entries_below(x);
                self.inside.push((x, below));
                stale = true;
            }
        }
        if stale {
            self.fast = self.max_advance(self.f_scan);
        }
        if self.advance_covered(delta, f) {
            return true;
        }
        // Front removals: the scanned entries below the first missing
        // position at or past the cursor have left the window, and so
        // have inside insertions the cursor has passed. Either only
        // adds slack.
        let k = first_missing(cursor).map_or(self.dist.len(), |q| self.entries_below(q));
        let live = self.inside.len();
        self.inside.retain(|&(x, _)| x >= cursor);
        if k <= self.dropped && self.inside.len() == live {
            return false;
        }
        if k > self.dropped {
            self.hull.drop_front(self.dropped, k);
            self.dropped = k;
        }
        self.fast = self.max_advance(self.f_scan);
        self.advance_covered(delta, f)
    }

    /// Whether advance `delta` is covered at `f` in the current state.
    fn advance_covered(&mut self, delta: u64, f: f64) -> bool {
        let reach = if f <= self.f_scan {
            self.fast
        } else {
            self.max_advance(f)
        };
        reach.is_some_and(|r| delta <= r)
    }

    /// The number of scanned entries at positions below `pos >= c0`.
    fn entries_below(&self, pos: usize) -> usize {
        let distance = (pos - self.cursor) as u64;
        self.dist.partition_point(|&d| d < distance)
    }

    /// The largest advance `delta` for which every bound in [`NoStall`]
    /// stays clear under `f`, or `None` when even `delta = 0` fails.
    /// Exact for the bounds: the prefix's minimum of `d_j - rank_j * f`
    /// sits at a vertex of its lower hull, and for integers `delta + x <
    /// d` holds iff `delta <= d - 1 - floor(x)`.
    fn max_advance(&mut self, f: f64) -> Option<u64> {
        let m = self.inside.len() as u64;
        let k = self.dropped;
        let mut reach = u64::MAX;
        if k < self.dist.len() {
            if !self.hull.built {
                self.hull.build(&self.dist, k);
            }
            let j = self.hull.min_vertex(&self.dist, f);
            reach = slack((j - k) as u64 + 1 + m, f, self.dist[j])?;
        }
        for &(x, below) in &self.inside {
            let rank = below.saturating_sub(k) as u64 + m;
            reach = reach.min(slack(rank, f, (x - self.cursor) as u64)?);
        }
        Some(reach.min(self.tail_reach(f)))
    }

    /// The tail's covered advance under `f` (see [`NoStall`]).
    fn tail_reach(&self, f: f64) -> u64 {
        self.tail.map_or(u64::MAX, |p| {
            let enter = (p - self.window_end) as u64;
            let live = (self.dist.len() - self.dropped + self.inside.len()) as u64;
            let anchor = (live + 1).saturating_sub((p - self.cursor) as u64 - self.far);
            // With `anchor > quota` the count bound never holds, and
            // `enter >= 0` dominates the saturated zero.
            scaled_quota(f, self.far).saturating_sub(anchor).max(enter)
        })
    }
}

/// The largest `delta` with `delta + rank * f < d`, or `None` when
/// `rank * f >= d` already.
#[inline]
fn slack(rank: u64, f: f64, d: u64) -> Option<u64> {
    let floor = scaled_floor(u128::from(rank), f)?;
    (floor < u128::from(d)).then(|| d - 1 - floor as u64)
}

/// The lower convex hull of `(rank, distance)` points `dist[from..]`
/// (rank `j + 1` at index `j`), built right to left so that dropping the
/// leftmost point is an undo: each push logs the points it popped, and
/// dropping the point restores them. Every point is popped and restored
/// at most once, so all drops together cost O(n).
#[derive(Debug, Default)]
struct SuffixHull {
    /// Whether `stack` holds the hull of the certificate's points.
    built: bool,
    /// Hull vertices as indexes into `dist`, rightmost first: the top is
    /// the leftmost surviving point.
    stack: Vec<usize>,
    /// The points popped by each push, in popping order.
    undo: Vec<usize>,
    /// `marks[j]`: the length of `undo` before `j` was pushed.
    marks: Vec<usize>,
}

impl SuffixHull {
    fn build(&mut self, dist: &[u64], from: usize) {
        self.stack.clear();
        self.undo.clear();
        self.marks.resize(dist.len(), 0);
        for j in (from..dist.len()).rev() {
            self.marks[j] = self.undo.len();
            // Distances ascend with rank, so every difference is
            // positive. The top `a` stays only if its edge from `j` is
            // strictly shallower than its edge to `b`.
            while let [.., b, a] = self.stack[..] {
                let left = u128::from(dist[a] - dist[j]) * (b - a) as u128;
                let right = u128::from(dist[b] - dist[a]) * (a - j) as u128;
                if left < right {
                    break;
                }
                self.undo.push(a);
                self.stack.pop();
            }
            self.stack.push(j);
        }
        self.built = true;
    }

    /// Drops the points `from..to` (the leftmost surviving ones): undoes
    /// their pushes, last pushed first.
    fn drop_front(&mut self, from: usize, to: usize) {
        if !self.built {
            return;
        }
        for j in from..to {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(j), "the leftmost point is the top");
            let mark = self.marks[j];
            while self.undo.len() > mark {
                let a = self.undo.pop().expect("undo entries past the mark");
                self.stack.push(a);
            }
        }
    }

    /// The vertex minimizing `d_j - j * f`: edge slopes increase along
    /// the hull, so it follows the last edge whose slope `dd / dj` is at
    /// most `f`, found by binary search with exact comparisons.
    fn min_vertex(&self, dist: &[u64], f: f64) -> usize {
        let n = self.stack.len();
        let at = |i: usize| self.stack[n - 1 - i];
        let (mut lo, mut hi) = (0, n - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (j0, j1) = (at(mid), at(mid + 1));
            if scaled_cmp((j1 - j0) as u128, f, dist[j1] - dist[j0]) != Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        at(lo)
    }
}

/// One disk's incremental predictor: the cached verdict and the FALSE
/// certificate's state, whose buffers every scan reuses.
#[derive(Debug, Default)]
struct DiskPredictor {
    verdict: Option<Verdict>,
    cert: NoStall,
}

/// The forestall policy.
#[derive(Debug)]
pub(crate) struct Forestall {
    batch_size: usize,
    horizon_rule: FixedHorizon,
    /// Static F' multiplier; `None` selects the dynamic 1x/4x rule.
    static_multiplier: Option<f64>,
    scratch: BatchScratch,
    /// Per-disk cached stall verdicts (the incremental predictor).
    preds: Vec<DiskPredictor>,
    /// Force the naive full-rescan predictor (differential fuzzing).
    naive: bool,
}

impl Forestall {
    /// Creates the policy from the run configuration.
    pub(crate) fn new(config: &crate::config::SimConfig) -> Forestall {
        Forestall {
            batch_size: config.batch_size,
            horizon_rule: FixedHorizon::new(config.horizon),
            static_multiplier: config.forestall_static_f,
            scratch: BatchScratch::default(),
            preds: (0..config.disks)
                .map(|_| DiskPredictor::default())
                .collect(),
            naive: config.forestall_naive_scan,
        }
    }

    /// The overestimated fetch/compute ratio F' for `disk`.
    fn f_prime(&self, ctx: &Ctx<'_>, disk: usize) -> f64 {
        let history = ctx.history();
        let avg_fetch = history.avg_fetch(disk).unwrap_or(DEFAULT_FETCH);
        let f = history
            .fetch_compute_ratio(disk)
            .unwrap_or_else(|| cold_start_ratio(avg_fetch, history.avg_compute()));
        let multiplier = self.static_multiplier.unwrap_or({
            if avg_fetch < FAST_DISK_THRESHOLD {
                1.0
            } else {
                4.0
            }
        });
        (f * multiplier).max(1.0)
    }

    /// True when, at the current cache state, the application will surely
    /// stall on some missing block of `disk`: exists i with `i * F' >= d_i`.
    ///
    /// Incremental: the verdict of the last full scan is cached per disk
    /// ([`Verdict`]). A call first tries to re-validate it — O(1) for a
    /// TRUE verdict or a FALSE one at `F' <= f_scan`, O(log n) in the
    /// hull otherwise, after absorbing the insertions since the last
    /// call — and only when that fails does the full [`scan_certified`]
    /// rescan run. Byte-identity with the naive scan holds by
    /// construction (each certificate implies the naive scan's answer)
    /// and is re-checked here by a `debug_assert!` oracle on every
    /// verdict.
    fn stall_predicted(&mut self, ctx: &Ctx<'_>, disk: usize) -> bool {
        let f_prime = self.f_prime(ctx, disk);
        if self.naive {
            return naive_scan(ctx, disk, f_prime);
        }
        let cursor = ctx.cursor;
        let missing = ctx.missing();
        let p = &mut self.preds[disk];
        match p.verdict {
            // No removal means the entry was not consumed, and
            // insertions since can only have grown its rank past `index`.
            // Under exact hints the cursor reaching the entry would have
            // fetched it, so `pos >= cursor`. A predicted hint can be a
            // wrong guess the cursor passes without fetching, which
            // leaves the entry behind the cursor: the certificate then
            // fails and the scan decides.
            Some(Verdict::Stall { epoch, index, pos })
                if missing.rem_epoch(disk) == epoch
                    && pos >= cursor
                    && scaled_cmp(u128::from(index), f_prime, (pos - cursor) as u64)
                        != Ordering::Less =>
            {
                debug_assert!(naive_scan(ctx, disk, f_prime));
                return true;
            }
            Some(Verdict::NoStall { ins_epoch }) => {
                let covered = missing
                    .inserts_since(disk, ins_epoch)
                    .is_some_and(|inserted| {
                        p.cert.covers(
                            inserted,
                            |from| missing.first_missing_on_disk(disk, from),
                            cursor,
                            f_prime,
                        )
                    });
                if covered {
                    // Every insertion so far is absorbed; the ring only
                    // ever needs to hold those since the previous call.
                    p.verdict = Some(Verdict::NoStall {
                        ins_epoch: missing.ins_epoch(disk),
                    });
                    debug_assert!(!naive_scan(ctx, disk, f_prime));
                    return false;
                }
            }
            _ => {}
        }
        let window = LOOKAHEAD_CACHES * ctx.cache.capacity();
        let trigger = scan_certified(
            missing.missing_on_disk_from(disk, cursor),
            cursor,
            window,
            f_prime,
            &mut p.cert,
        );
        p.verdict = Some(match trigger {
            Some((index, pos)) => Verdict::Stall {
                epoch: missing.rem_epoch(disk),
                index,
                pos,
            },
            None => Verdict::NoStall {
                ins_epoch: missing.ins_epoch(disk),
            },
        });
        debug_assert_eq!(trigger.is_some(), naive_scan(ctx, disk, f_prime));
        trigger.is_some()
    }
}

/// The cold-start F fallback: `avg_fetch` over the floored compute
/// average (see [`COLD_COMPUTE_FLOOR`]).
fn cold_start_ratio(avg_fetch: Nanos, avg_compute: Option<Nanos>) -> f64 {
    let c = avg_compute.map_or(COLD_COMPUTE_FLOOR, |c| c.max(COLD_COMPUTE_FLOOR));
    avg_fetch.as_nanos() as f64 / c.as_nanos() as f64
}

/// The naive stall predictor: a full rescan of the window, exactly the
/// pre-incremental implementation. Kept as the differential oracle — the
/// `debug_assert!`s in [`Forestall::stall_predicted`] check every
/// verdict against it, and the fuzzer's differential mode runs whole
/// simulations on it via `SimConfig::forestall_naive_scan`.
fn naive_scan(ctx: &Ctx<'_>, disk: usize, f_prime: f64) -> bool {
    let cursor = ctx.cursor;
    let window = LOOKAHEAD_CACHES * ctx.cache.capacity();
    let in_window =
        ctx.missing()
            .missing_on_disk_in_window(disk, cursor, cursor.saturating_add(window));
    naive_verdict(in_window, cursor, window, f_prime)
}

/// [`naive_scan`] over `in_window`, the disk's missing positions in
/// `[cursor, cursor + window)`, ascending.
fn naive_verdict(
    in_window: impl IntoIterator<Item = usize>,
    cursor: usize,
    window: usize,
    f_prime: f64,
) -> bool {
    // `window >= 2`: the cache holds at least one block.
    let far = (window - 1) as u64;
    // Early exit: a later j-th missing block at distance d_j has
    // j <= i + (d_j - d_i) (positions are distinct), so a trigger
    // there needs (i + d_j - d_i) * F' >= d_j. The slack in that
    // inequality is monotone in d_j for F' >= 1, so its value at the
    // window edge d_j = far decides the whole tail: once
    // (i + far - d_i) * F' < far, nothing ahead can trigger and the
    // scan's answer is already false. Both the trigger and the exit
    // compare a count times F' against a distance in exact integer
    // arithmetic (`scaled_cmp`), so distances beyond 2^53 or
    // platform FP differences can never flip a prefetch decision.
    let mut i = 0u64;
    for pos in in_window {
        i += 1;
        let distance = (pos - cursor) as u64;
        if scaled_cmp(u128::from(i), f_prime, distance) != Ordering::Less {
            return true;
        }
        if scaled_cmp(u128::from(i) + u128::from(far - distance), f_prime, far) == Ordering::Less {
            return false;
        }
    }
    false
}

/// The full scan over `positions` (the disk's missing positions from
/// `cursor` on, ascending). Returns the trigger's `(rank, position)`, or
/// `None` after resetting `cert` to the FALSE certificate of this scan
/// (see [`NoStall`]). Its answer is byte-identical to [`naive_scan`]'s:
/// the trigger tests decide exactly as `scaled_cmp` on the same entries
/// in the same order, and the one place the control flow differs —
/// naive's early exit — is itself a proof that no later entry can
/// trigger, so scanning past it can never flip the verdict. Scanning
/// the whole window is deliberate: anchoring the tail bound at the
/// *last* real entry instead of the early-exit entry is what gives the
/// FALSE certificate a useful advance slack (the early-exit anchor
/// assumes a densely packed tail and its slack degenerates to ~0).
///
/// The trigger `rank * F' >= distance` is decided by two fixed-point
/// accumulators that bracket `rank * F' * 2^32` (see
/// [`fixed_point_bracket`]), one step added per entry; only when the
/// bracket straddles `distance * 2^32` does the exact `scaled_cmp` run.
/// The scan only records each entry's distance and the running minimum
/// of its advance slack at `F' = f_scan`: entry `i` stays clear while
/// `delta + i * f_scan < d_i`, that is `delta <= d_i - 1 - floor(i *
/// f_scan)`, and the upper accumulator bounds the floor from above, so
/// the slack is conservative. The hull a larger F' or a churned set
/// needs is built only when a check first asks for it.
fn scan_certified(
    positions: impl IntoIterator<Item = usize>,
    cursor: usize,
    window: usize,
    f_prime: f64,
    cert: &mut NoStall,
) -> Option<(u64, usize)> {
    let window_end = cursor.saturating_add(window);
    let (lo_step, hi_step) = fixed_point_bracket(f_prime);
    let (mut lo, mut hi) = (0u128, 0u128);
    // Running minimum of the per-entry advance slacks under `f_prime`.
    let mut reach = u64::MAX;
    let mut rank = 0u64;
    // First missing position at or past the window edge: the tail anchor.
    let mut p_star = None;
    cert.dist.clear();
    for pos in positions {
        if pos >= window_end {
            p_star = Some(pos);
            break;
        }
        rank += 1;
        lo += lo_step;
        hi += hi_step;
        let distance = (pos - cursor) as u64;
        // The paper's trigger, byte-identical to [`naive_scan`]'s.
        if fixed_point_trigger(lo, hi, rank, f_prime, distance) {
            return Some((rank, pos));
        }
        // No trigger, so `distance >= 1`, and the slack saturates at
        // zero rather than wrapping.
        let floor_ub = u64::try_from(hi >> 32).unwrap_or(u64::MAX);
        reach = reach.min((distance - 1).saturating_sub(floor_ub));
        cert.dist.push(distance);
    }
    cert.cursor = cursor;
    cert.window_end = window_end;
    // `window >= 2`: the cache holds at least one block.
    cert.far = (window - 1) as u64;
    cert.f_scan = f_prime;
    cert.dropped = 0;
    cert.inside.clear();
    cert.tail = p_star;
    cert.hull.built = false;
    cert.fast = Some(reach.min(cert.tail_reach(f_prime)));
    None
}

/// Whether `rank * f >= distance`, exactly, given `lo <= rank * f * 2^32
/// <= hi` (the accumulators of [`fixed_point_bracket`]'s steps): the
/// bracket decides unless it straddles `distance * 2^32`, and
/// `scaled_cmp` decides then.
#[inline]
fn fixed_point_trigger(lo: u128, hi: u128, rank: u64, f: f64, distance: u64) -> bool {
    let scaled = u128::from(distance) << 32;
    lo >= scaled || (hi >= scaled && scaled_cmp(u128::from(rank), f, distance) != Ordering::Less)
}

/// `(floor(f * 2^32), ceil(f * 2^32))` for finite `f >= 1.0`: per-entry
/// steps of two accumulators bracketing `rank * f * 2^32`. They differ
/// only when `f` has more than 32 fractional bits. Steps saturate at
/// 2^100, above every `distance * 2^32 < 2^96`, so a saturated lower
/// accumulator decides the trigger at the first entry; accumulators
/// then stay below 2^101 and never overflow.
fn fixed_point_bracket(f: f64) -> (u128, u128) {
    const SATURATED: u128 = 1 << 100;
    let (m, exp) = decompose(f);
    let shift = exp + 32;
    if shift >= 0 {
        // m < 2^53, so the shifted mantissa stays below 2^100 while
        // shift <= 47.
        let step = if shift > 47 { SATURATED } else { m << shift };
        (step, step)
    } else {
        // -shift <= 20 because f >= 1 means exp >= -52.
        let floor = m >> -shift;
        let ceil = floor + u128::from(floor << -shift != m);
        (floor, ceil)
    }
}

/// `f = m * 2^exp` with `2^52 <= m < 2^53` and `exp >= -52`, for finite
/// `f >= 1.0`: the exact IEEE-754 decomposition the integer comparisons
/// below are built on.
#[inline]
fn decompose(f: f64) -> (u128, i32) {
    debug_assert!(f.is_finite() && f >= 1.0, "factor must be finite and >= 1");
    let bits = f.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1075;
    let m = u128::from((bits & ((1u64 << 52) - 1)) | (1u64 << 52));
    (m, exp)
}

/// Compares `a * f` with `b` exactly, for finite `f >= 1.0`.
///
/// `f` is decomposed into its IEEE-754 mantissa and exponent (`f = m *
/// 2^e` with `2^52 <= m < 2^53`, and `e >= -52` because `f >= 1`), so
/// the product `a * m` and the power-of-two rescaling are carried out
/// in `u128` with no rounding at any magnitude. Overflow can only mean
/// the left side dwarfs any `u64` right side (`b * 2^-e < 2^116`), so
/// it decides as `Greater`.
fn scaled_cmp(a: u128, f: f64, b: u64) -> Ordering {
    let (m, exp) = decompose(f);
    let lhs = match a.checked_mul(m) {
        Some(l) => l,
        None => return Ordering::Greater,
    };
    if exp >= 0 {
        if lhs == 0 {
            return 0u128.cmp(&u128::from(b));
        }
        if exp as u32 > lhs.leading_zeros() {
            // lhs * 2^exp >= 2^128 > b.
            return Ordering::Greater;
        }
        (lhs << exp).cmp(&u128::from(b))
    } else {
        // -exp <= 52, so b * 2^-exp < 2^116 fits u128.
        lhs.cmp(&(u128::from(b) << (-exp) as u32))
    }
}

/// Exact `floor(a * f)` for finite `f >= 1.0`, or `None` when the
/// product exceeds `u128`: the slack of a certificate's bounds, and the
/// spec the scan's upper accumulator bounds from above.
///
/// Same IEEE-754 decomposition as [`scaled_cmp`]: `f = m * 2^e` with
/// `2^52 <= m < 2^53`, so `a * f = (a * m) * 2^e` and the floor is a
/// single shift of the exact `u128` product.
fn scaled_floor(a: u128, f: f64) -> Option<u128> {
    let (m, exp) = decompose(f);
    let prod = a.checked_mul(m)?;
    if exp >= 0 {
        if prod == 0 {
            return Some(0);
        }
        if exp as u32 > prod.leading_zeros() {
            return None;
        }
        Some(prod << exp)
    } else {
        // -exp <= 52 because f >= 1.
        Some(prod >> (-exp) as u32)
    }
}

/// The largest integer `t` with `t * f < b`, exactly, for finite
/// `f >= 1.0` and `b >= 1` (so `t` exists and `t <= b - 1` fits `u64`).
///
/// With `f = m * 2^e` as in [`scaled_cmp`]: for `e < 0` the condition is
/// `t * m < b * 2^-e`, giving `t = (b * 2^-e - 1) / m`; for `e >= 0` it
/// is `t * (m * 2^e) < b`, giving `t = (b - 1) / (m * 2^e)` (zero when
/// the shifted mantissa already exceeds `b`). All intermediates fit
/// `u128` (`b * 2^-e < 2^116`, `m * 2^e` only needed while `e < 64`).
fn scaled_quota(f: f64, b: u64) -> u64 {
    debug_assert!(b >= 1, "bound must be positive");
    let (m, exp) = decompose(f);
    if exp >= 0 {
        if exp >= 64 {
            return 0;
        }
        (u128::from(b - 1) / (m << exp)) as u64
    } else {
        let scaled = u128::from(b) << (-exp) as u32;
        ((scaled - 1) / m) as u64
    }
}

impl Policy for Forestall {
    fn name(&self) -> &'static str {
        "forestall"
    }

    fn decide(&mut self, ctx: &mut Ctx<'_>) {
        // Aggressive-style batches on every free disk that would stall.
        for d in 0..ctx.config.disks {
            if ctx.array.is_free(DiskId(d)) && self.stall_predicted(ctx, d) {
                fill_free_disk_batches(ctx, self.batch_size, Some(d), &mut self.scratch);
            }
        }
        // Fixed horizon's rule: never let a block inside H go unfetched
        // (guards against CSCAN reordering stalls, §5).
        self.horizon_rule.decide(ctx);
    }

    fn indexes(&self) -> Indexes {
        Indexes::ALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DiskModelKind, SimConfig};
    use crate::engine::simulate_with;
    use crate::policy::PolicyKind;
    use parcache_trace::{Request, Trace};
    use parcache_types::{BlockId, Nanos};

    fn trace_of(blocks: &[u64], compute_ms: u64, cache: usize) -> Trace {
        Trace::new(
            "t",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_millis(compute_ms),
                })
                .collect(),
            cache,
        )
    }

    fn cfg(disks: usize, cache: usize, fetch_ms: u64) -> SimConfig {
        let mut c = SimConfig::new(disks, cache);
        c.disk_model = DiskModelKind::Uniform(Nanos::from_millis(fetch_ms));
        c.driver_overhead = Nanos::ZERO;
        c.horizon = 4;
        c.batch_size = 4;
        c
    }

    #[test]
    fn io_bound_behaves_like_aggressive() {
        // Compute 1ms, fetch 8ms: heavily I/O bound. Forestall should
        // keep the disk busy like aggressive, not idle like fixed horizon.
        let blocks: Vec<u64> = (0..40).collect();
        let t = trace_of(&blocks, 1, 16);
        let c = cfg(1, 16, 8);
        let agg = crate::engine::simulate(&t, PolicyKind::Aggressive, &c);
        let mut p = Forestall::new(&c);
        let f = simulate_with(&t, &mut p, &c);
        // Within 5% of aggressive's elapsed time.
        let ratio = f.elapsed.as_nanos() as f64 / agg.elapsed.as_nanos() as f64;
        assert!(
            ratio < 1.05,
            "forestall {} vs aggressive {}",
            f.elapsed,
            agg.elapsed
        );
    }

    #[test]
    fn a_wrong_guess_behind_the_cursor_fails_the_cached_stall_certificate() {
        // Under `seq` hints on the `ld` trace at 2 disks, the cursor
        // passes wrong guesses without fetching them. A cached TRUE
        // verdict can then rest on a missing entry behind the cursor
        // with no removal since. Its certificate must fail (debug builds
        // used to panic here, and release builds computed a wrapped
        // distance), and the incremental predictor must still give the
        // naive scan's report.
        use crate::predict::{HintMode, PredictorKind};
        let trace = parcache_trace::trace_by_name("ld", 1996).expect("paper trace");
        let c = SimConfig::for_trace(2, &trace)
            .with_hint_mode(HintMode::Predicted(PredictorKind::Sequential));
        let fast = simulate_with(&trace, &mut Forestall::new(&c), &c);
        let mut naive = c.clone();
        naive.forestall_naive_scan = true;
        assert_eq!(
            fast,
            crate::engine::simulate(&trace, PolicyKind::Forestall, &naive)
        );
    }

    #[test]
    fn compute_bound_behaves_like_fixed_horizon() {
        // Compute 20ms, fetch 2ms: compute-bound with a hot re-reference
        // pattern. Forestall should not fetch more than fixed horizon.
        let mut blocks: Vec<u64> = Vec::new();
        for _ in 0..10 {
            blocks.extend(0..6u64);
        }
        let t = trace_of(&blocks, 20, 4);
        let c = cfg(1, 4, 2);
        let fh = crate::engine::simulate(&t, PolicyKind::FixedHorizon, &c);
        let mut p = Forestall::new(&c);
        let f = simulate_with(&t, &mut p, &c);
        assert!(
            f.fetches <= fh.fetches + 2,
            "forestall fetched {} vs fixed horizon {}",
            f.fetches,
            fh.fetches
        );
        assert!(f.elapsed <= fh.elapsed + Nanos::from_millis(2));
    }

    #[test]
    fn static_multiplier_is_respected() {
        let blocks: Vec<u64> = (0..20).collect();
        let t = trace_of(&blocks, 1, 8);
        let mut c = cfg(1, 8, 8);
        c.forestall_static_f = Some(8.0);
        let mut p = Forestall::new(&c);
        assert_eq!(p.static_multiplier, Some(8.0));
        let r = simulate_with(&t, &mut p, &c);
        assert_eq!(r.fetches, 20);
    }

    #[test]
    fn serves_all_references() {
        let blocks: Vec<u64> = (0..50).map(|i| i % 10).collect();
        let t = trace_of(&blocks, 2, 4);
        let c = cfg(2, 4, 5);
        let mut p = Forestall::new(&c);
        let r = simulate_with(&t, &mut p, &c);
        assert_eq!(r.elapsed, r.compute + r.driver + r.stall);
        assert!(r.fetches >= 10);
    }

    #[test]
    fn scaled_cmp_is_exact_where_f64_rounding_flips_the_decision() {
        // Boundary regression for the old `i as f64 * f_prime >=
        // distance as f64` trigger: 2^53 + 3 is not representable in
        // f64 and rounds *up* to 2^53 + 4 (ties-to-even), so the f64
        // comparison claims i * 1.0 >= d — a phantom stall prediction.
        let a = (1u128 << 53) + 3;
        let b = (1u64 << 53) + 4;
        assert!(
            (((1u64 << 53) + 3) as f64) >= (b as f64),
            "the f64 path really does flip at this boundary"
        );
        assert_eq!(scaled_cmp(a, 1.0, b), Ordering::Less);
        // And one ulp the other way: 2^53 + 5 rounds down to 2^53 + 4.
        assert!((((1u64 << 53) + 5) as f64) <= (b as f64 + 0.0));
        assert_eq!(scaled_cmp((1u128 << 53) + 5, 1.0, b), Ordering::Greater);
    }

    #[test]
    fn scaled_cmp_matches_exact_rational_arithmetic() {
        // Every factor here is dyadic (num / 2^k exactly representable
        // in f64), so cross-multiplication in u128 is the ground truth.
        let factors: &[(f64, u128, u128)] = &[
            (1.0, 1, 1),
            (1.25, 5, 4),
            (1.5, 3, 2),
            (2.0, 2, 1),
            (3.0, 3, 1),
            (4.5, 9, 2),
            (1.0 + f64::EPSILON, (1 << 52) + 1, 1 << 52),
        ];
        let values: &[u64] = &[
            0,
            1,
            2,
            3,
            7,
            62,
            1 << 30,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &(f, num, den) in factors {
            for &a in values {
                for &b in values {
                    let exact = (u128::from(a) * num).cmp(&(u128::from(b) * den));
                    assert_eq!(scaled_cmp(u128::from(a), f, b), exact, "{a} * {f} vs {b}");
                }
            }
        }
    }

    #[test]
    fn scaled_cmp_survives_extreme_magnitudes() {
        // Huge factors overflow the u128 product path and must decide
        // Greater (the true product dwarfs any u64), except when a = 0.
        assert_eq!(scaled_cmp(1, 1e300, u64::MAX), Ordering::Greater);
        assert_eq!(scaled_cmp(u128::MAX, 4.0, u64::MAX), Ordering::Greater);
        assert_eq!(scaled_cmp(0, 1e300, 5), Ordering::Less);
        assert_eq!(scaled_cmp(0, 1e300, 0), Ordering::Equal);
        assert_eq!(scaled_cmp(0, 1.0, 0), Ordering::Equal);
        // Large exponent against a large a: 2^64 * 2^64 overflows into
        // the checked_mul arm.
        assert_eq!(scaled_cmp(1u128 << 100, 2.0, u64::MAX), Ordering::Greater);
    }

    #[test]
    fn fixed_point_trigger_matches_scaled_cmp() {
        // The accumulator bracket must decide exactly as scaled_cmp, and
        // its upper end must bound floor(rank * f) from above (the slack
        // stays conservative). Factors with more than 32 fractional bits
        // make the bracket straddle; distances at floor(rank * f) and
        // one either side hit the straddle on purpose.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x5ca1_ed32);
        let mut factors = vec![
            1.0,
            1.5,
            4.0,
            1.0 + f64::EPSILON,
            1.0 + 2f64.powi(-33),
            17.0 / 3.0,
        ];
        factors.extend((0..200).map(|_| 1.0 + rng.next_f64() * 64.0));
        factors.extend((0..50).map(|_| 4.0 * (1.0 + rng.next_f64())));
        let mut straddled = 0;
        for f in factors {
            let (lo_step, hi_step) = fixed_point_bracket(f);
            assert!(lo_step <= hi_step && hi_step - lo_step <= 1, "{f}");
            for _ in 0..64 {
                let rank = rng.gen_range(1u64..=1 << 21);
                let (lo, hi) = (u128::from(rank) * lo_step, u128::from(rank) * hi_step);
                let floor = scaled_floor(u128::from(rank), f).expect("small product");
                assert!(
                    hi >> 32 >= floor,
                    "upper accumulator below floor: {rank} * {f}"
                );
                assert!(
                    lo >> 32 <= floor,
                    "lower accumulator above floor: {rank} * {f}"
                );
                let at = u64::try_from(floor).expect("fits");
                let random = rng.gen_range(0u64..=at.saturating_mul(2).max(1));
                for distance in [at.saturating_sub(1), at, at + 1, at + 2, random] {
                    let scaled = u128::from(distance) << 32;
                    straddled += usize::from(lo < scaled && hi >= scaled);
                    assert_eq!(
                        fixed_point_trigger(lo, hi, rank, f, distance),
                        scaled_cmp(u128::from(rank), f, distance) != Ordering::Less,
                        "{rank} * {f} vs {distance}"
                    );
                }
            }
        }
        assert!(straddled > 0, "no input reached the exact fallback");
        // Large factors, saturated ones included, at the first entry.
        for f in [2f64.powi(47), 2f64.powi(68), 2f64.powi(70), 1e300] {
            let (lo, hi) = fixed_point_bracket(f);
            for distance in [1, 1 << 40, u64::MAX] {
                assert_eq!(
                    fixed_point_trigger(lo, hi, 1, f, distance),
                    scaled_cmp(1, f, distance) != Ordering::Less,
                    "{f} vs {distance}"
                );
            }
        }
    }

    /// Ascending positions of `set` in `[from, to)`.
    fn span(set: &std::collections::BTreeSet<usize>, from: usize, to: usize) -> Vec<usize> {
        set.range(from..to).copied().collect()
    }

    #[test]
    fn cached_no_stall_certificates_imply_the_naive_verdict() {
        // The FALSE certificate's spec: whenever it re-validates at an
        // advanced cursor and a new F', the naive scan there must find
        // no trigger. Each certificate is re-checked over a run of
        // advances, as the predictor re-checks it, until it fails.
        // Between checks the missing set churns the ways a run churns
        // it: the first entries at the cursor go (as fetches take them)
        // and random others too; positions are inserted inside the
        // scanned window, between its edge and the scan-time guard
        // `window_end + fast`, and past that guard, some of them
        // re-inserting a removed entry. F' moves up and down, including
        // the dynamic rule's 4x jump.
        use std::collections::BTreeSet;
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0xce57_1f1e);
        let (mut covered, mut above, mut tail_only, mut empty) = (0, 0, 0, 0);
        let (mut front, mut below_guard, mut inside, mut past_guard) = (0, 0, 0, 0);
        let mut cert = NoStall::default();
        for case in 0..20_000 {
            let window = rng.gen_range(2usize..=64);
            let cursor = rng.gen_range(0usize..=40);
            let n = cursor + 4 * window + 40;
            // Sparse to dense sets; some leave the window empty.
            let density = [0.02, 0.1, 0.3, 0.6][case % 4];
            let mut set: BTreeSet<usize> = (0..n).filter(|_| rng.gen_bool(density)).collect();
            if case % 5 == 0 {
                set.retain(|&p| p >= cursor + window);
            }
            let f_scan = 1.0 + rng.next_f64() * [0.5, 3.0, 12.0][case % 3];
            if scan_certified(span(&set, cursor, n), cursor, window, f_scan, &mut cert).is_some() {
                continue;
            }
            assert!(!naive_verdict(
                span(&set, cursor, cursor + window),
                cursor,
                window,
                f_scan
            ));
            let window_end = cursor + window;
            let reach = cert.fast.expect("a FALSE scan covers its own cursor");
            let guard = window_end + reach.min(2 * window as u64) as usize;
            let (mut now, mut at) = (set.clone(), cursor);
            let mut churn = [false; 3];
            for _ in 0..12 {
                at += rng.gen_range(0usize..=window / 4 + 1);
                if rng.gen_bool(0.6) {
                    let gone: Vec<usize> = now
                        .range(at..)
                        .take(rng.gen_range(1usize..=3))
                        .copied()
                        .collect();
                    for p in gone {
                        now.remove(&p);
                    }
                }
                now.retain(|_| !rng.gen_bool(0.03));
                let mut inserted = Vec::new();
                for _ in 0..rng.gen_range(0usize..=2) {
                    let region = rng.gen_range(0usize..3);
                    let (lo, hi) = [
                        (at, window_end),
                        (window_end, guard),
                        (guard, guard + window),
                    ][region];
                    if lo >= hi {
                        continue;
                    }
                    let x = rng.gen_range(lo..hi);
                    if now.insert(x) {
                        inserted.push(x);
                        churn[region] = true;
                    }
                }
                let f = match rng.gen_range(0usize..4) {
                    0 => f_scan * 4.0,
                    1 => f_scan * (1.0 + rng.next_f64() * 0.3),
                    2 => (f_scan * (0.5 + rng.next_f64())).max(1.0),
                    _ => f_scan + rng.next_f64() * 8.0,
                };
                let first = |from: usize| now.range(from..).next().copied();
                if !cert.covers(inserted, first, at, f) {
                    break;
                }
                let in_window = span(&now, at, at + window);
                assert!(
                    !naive_verdict(in_window, at, window, f),
                    "case {case}: certificate at cursor {cursor}, F' {f_scan} covered \
                     cursor {at}, F' {f}, but the naive scan triggers"
                );
                covered += 1;
                above += usize::from(f > f_scan);
                tail_only += usize::from(cert.dist.is_empty() && cert.tail.is_some());
                empty += usize::from(cert.dist.is_empty() && cert.tail.is_none());
                // Advances past the scan's own reach are covered only
                // because front entries left the window.
                front += usize::from((at - cursor) as u64 > reach);
                inside += usize::from(churn[0] && !cert.inside.is_empty());
                below_guard += usize::from(churn[1]);
                past_guard += usize::from(churn[2]);
            }
        }
        assert!(covered > 10_000, "{covered}");
        assert!(above > 5_000, "F' above the scan's: {above}");
        assert!(tail_only > 100, "tail-only windows: {tail_only}");
        assert!(empty > 100, "empty windows: {empty}");
        assert!(front > 1_000, "advances past the scan's reach: {front}");
        assert!(inside > 2_000, "insertions inside the window: {inside}");
        assert!(
            below_guard > 2_000,
            "insertions below the guard: {below_guard}"
        );
        assert!(
            past_guard > 2_000,
            "insertions past the guard: {past_guard}"
        );
    }

    #[test]
    fn scaled_floor_and_quota_match_exact_rational_arithmetic() {
        // Dyadic factors (num / 2^k) are exactly representable in f64,
        // so plain u128 rational arithmetic is the ground truth.
        let factors: &[(f64, u128, u128)] = &[
            (1.0, 1, 1),
            (1.0625, 17, 16),
            (1.25, 5, 4),
            (1.5, 3, 2),
            (2.0, 2, 1),
            (3.0, 3, 1),
            (4.5, 9, 2),
            (1.0 + f64::EPSILON, (1 << 52) + 1, 1 << 52),
        ];
        let values: &[u64] = &[
            1,
            2,
            3,
            7,
            62,
            1 << 30,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &(f, num, den) in factors {
            for &a in values {
                let exact = u128::from(a) * num / den;
                assert_eq!(scaled_floor(u128::from(a), f), Some(exact), "floor {a}*{f}");
            }
            assert_eq!(scaled_floor(0, f), Some(0));
            for &b in values {
                // Largest t with t * num / den < b, i.e. t * num < b * den.
                let exact = ((u128::from(b) * den - 1) / num) as u64;
                assert_eq!(scaled_quota(f, b), exact, "quota {f} under {b}");
            }
        }
        // Overflowing products report None rather than a wrapped floor.
        assert_eq!(scaled_floor(u128::MAX, 2.0), None);
        assert_eq!(scaled_floor(1u128 << 120, 1e30), None);
        // Huge factors can never fit even once below the bound.
        assert_eq!(scaled_quota(1e300, u64::MAX), 0);
    }

    #[test]
    fn quota_and_floor_agree_with_scaled_cmp_at_the_boundary() {
        // scaled_quota's defining property, checked against the
        // independent scaled_cmp implementation: t * f < b <= (t+1) * f.
        let factors = [1.0, 1.0625, 1.17, 3.5, 15.0, 60.0, 1234.567];
        let bounds = [1u64, 2, 31, 2559, 1 << 33, u64::MAX];
        for f in factors {
            for b in bounds {
                let t = scaled_quota(f, b);
                assert_eq!(scaled_cmp(u128::from(t), f, b), Ordering::Less, "{f} {b}");
                assert_ne!(
                    scaled_cmp(u128::from(t) + 1, f, b),
                    Ordering::Less,
                    "{f} {b}"
                );
                // And floor is consistent: floor(t * f) < b.
                let fl = scaled_floor(u128::from(t), f).expect("small product");
                assert!(fl < u128::from(b));
            }
        }
    }

    #[test]
    fn cold_start_ratio_is_clamped() {
        // A microsecond compute average must not blow the cold-start F
        // up to 15000x: the divisor floors at 1 ms, capping the
        // history-less ratio at DEFAULT_FETCH / 1 ms = 15.
        assert_eq!(
            cold_start_ratio(DEFAULT_FETCH, Some(Nanos::from_micros(1))),
            15.0
        );
        assert_eq!(cold_start_ratio(DEFAULT_FETCH, None), 15.0);
        assert_eq!(
            cold_start_ratio(DEFAULT_FETCH, Some(Nanos::from_millis(1))),
            15.0
        );
        // Above the floor the observed average is used as-is.
        assert_eq!(
            cold_start_ratio(DEFAULT_FETCH, Some(Nanos::from_millis(2))),
            7.5
        );
        assert_eq!(
            cold_start_ratio(DEFAULT_FETCH, Some(Nanos::from_millis(30))),
            0.5
        );
    }

    #[test]
    fn cold_start_does_not_storm_prefetch_across_the_window() {
        // Regression for the F' = 15000x phantom storm: after the first
        // reference the compute window holds a 1 us sample while disk 1
        // still has no fetch history, so its F' falls back to
        // DEFAULT_FETCH over the compute average. Unclamped that made
        // the very first decision predict a stall on a block ~100
        // references ahead and prefetch it at t ~ 0; clamped (F' = 60)
        // the fetch waits until the block is genuinely close.
        use crate::probe::{Event, Probe};
        struct FirstIssue {
            block: BlockId,
            at: Option<Nanos>,
        }
        impl Probe for FirstIssue {
            fn on_event(&mut self, event: &Event) {
                if let Event::FetchIssued { now, block, .. } = event {
                    if *block == self.block && self.at.is_none() {
                        self.at = Some(*now);
                    }
                }
            }
        }
        // Striped layout: even blocks on disk 0, block 1 on disk 1. The
        // lone disk-1 reference sits ~100 references out, well past the
        // clamped F' = 4 * 15 = 60 but inside an unclamped 15000.
        let mut blocks: Vec<u64> = (0..100).map(|i| i * 2).collect();
        blocks.push(1);
        let t = Trace::new(
            "cold",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_micros(1),
                })
                .collect(),
            100,
        );
        let c = cfg(2, 100, 15);
        let mut p = Forestall::new(&c);
        let mut probe = FirstIssue {
            block: BlockId(1),
            at: None,
        };
        let r = crate::engine::simulate_with_probed(&t, &mut p, &c, &mut probe);
        assert_eq!(r.elapsed, r.compute + r.driver + r.stall);
        let at = probe.at.expect("block 1 is eventually fetched");
        // The first demand fetch alone takes 15 ms; a sane predictor
        // cannot want block 1 before that completes. The storm issued it
        // within the first millisecond.
        assert!(
            at >= Nanos::from_millis(5),
            "block 1 prefetched during cold start at {at}"
        );
    }

    #[test]
    fn incremental_predictor_matches_naive_simulation_reports() {
        // Differential pin: the cached-verdict predictor must be
        // byte-identical to the naive full-rescan predictor on whole
        // runs — randomized multi-disk traces with re-references, plus
        // a faulted run. (In debug builds every cache-served verdict is
        // additionally oracle-checked inside stall_predicted.)
        use parcache_disk::FaultPlan;
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0xf0e5_7a11);
        for case in 0..12 {
            let disks = 1 + (case % 4);
            let cache = 3 + (case % 5) * 7;
            let universe = 4 + (case % 3) * 30;
            let n = 60 + (case % 4) * 45;
            let blocks: Vec<u64> = (0..n).map(|_| rng.gen_range(0..universe as u64)).collect();
            let compute_ms = 1 + (case as u64 % 3) * 6;
            let t = trace_of(&blocks, compute_ms, cache);
            let mut c = cfg(disks, cache, 1 + (case as u64 % 4) * 5);
            if case % 3 == 0 {
                c = c.with_faults(FaultPlan::parse("outage:0:5:20").expect("valid fault plan"));
            }
            let mut naive_cfg = c.clone();
            naive_cfg.forestall_naive_scan = true;
            let mut fast = Forestall::new(&c);
            let mut slow = Forestall::new(&naive_cfg);
            let fast_report = simulate_with(&t, &mut fast, &c);
            let slow_report = simulate_with(&t, &mut slow, &naive_cfg);
            assert_eq!(fast_report, slow_report, "case {case} diverged");
        }
    }

    #[test]
    fn outage_stalls_are_charged_to_fault_retries() {
        // Pinned stall provenance: a hard outage covering the start of
        // the run rejects every early fetch, so the driver retries with
        // backoff while the app stalls on the first blocks. A stall that
        // sees a fault on its block (or begins with a retry pending)
        // charges to `retry`, taking precedence over the in-flight and
        // demand-miss causes.
        use crate::probe::StallCause;
        use parcache_disk::FaultPlan;
        let blocks: Vec<u64> = (0..20).collect();
        let t = trace_of(&blocks, 1, 8);
        let c =
            cfg(1, 8, 2).with_faults(FaultPlan::parse("outage:0:0:50").expect("valid fault plan"));
        let mut p = Forestall::new(&c);
        let r = simulate_with(&t, &mut p, &c);
        assert!(r.stall > Nanos::ZERO);
        assert!(r.stall_by_cause.get(StallCause::FaultRetry) > Nanos::ZERO);
        assert_eq!(r.stall_by_cause.total(), r.stall);
    }
}
