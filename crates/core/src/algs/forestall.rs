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
use crate::policy::Policy;
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

/// Dyadic headroom folded into the F' bound a cached FALSE verdict is
/// certified against (see [`scan_certified`]). F' moves a little on
/// every reference (the compute window slides), so certifying against
/// exactly today's F' would invalidate the verdict on the next call;
/// certifying against `F' * 17/16` keeps it valid through small upward
/// drift at the cost of slightly smaller cursor slack.
const F_CAP_MARGIN: f64 = 1.0625;

/// Relative safety margin for the conservative float bounds the
/// certificate is built from ([`floor_upper_bound`] and
/// [`quota_lower_bound`]). The certificate only needs *valid* bounds,
/// not tight ones — under-claiming slack merely causes a rescan — so the
/// hot path uses one f64 multiply or divide nudged by this margin instead
/// of an exact `u128` division (~10x cheaper on the scan path). The
/// margin dwarfs the few-ulp rounding error of the float computation
/// (`~4 * 2^-53 < 1e-15`) while costing only a part in 10^12 of slack.
const FLOAT_SLOP: f64 = 1e-12;

/// A cached stall-prediction verdict for one disk, carrying the
/// certificate that re-validates it in O(1) against everything that can
/// move between decisions: the cursor, F', and the disk's missing set.
///
/// The two variants are invalidated by *opposite* halves of the missing
/// set's churn, which is what makes the cache survive the steady state:
///
/// * A TRUE verdict is insensitive to insertions — more missing blocks
///   only strengthen a stall (the trigger entry's rank can only grow,
///   and `rank * F' >= d` holds a fortiori). It is keyed on the disk's
///   *removal* epoch alone.
/// * A FALSE verdict is insensitive to removals — for any subset of the
///   scanned entries every rank can only shrink, so `rank * F' < d`
///   keeps holding, and both tail arguments (the position-count bound
///   and the first-entry-past-the-window bound) are monotone the right
///   way. It is keyed on the disk's *insertion* epoch, and even then an
///   insertion at or beyond `guard` (past every window the certificate
///   covers) is provably harmless — the tracker's recent-insert ring
///   lets the verdict survive those too.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// The scan found a trigger: the `index`-th missing entry in the
    /// window sits at position `pos`. With no removals since, no entry
    /// at or below `pos` was consumed, so `pos >= cursor`, the entry's
    /// rank is at least `index`, and the exact trigger test re-runs in
    /// O(1) against the current cursor and F'.
    True { index: u64, pos: usize },
    /// The scan proved no trigger exists at cursor `cursor`, and the
    /// proof survives a cursor advance of `delta_scan` for any
    /// `F' <= f_scan` (the F' the scan ran under), or `delta_cap` for
    /// any `F' <= f_cap` (a slightly larger cap absorbing upward F'
    /// drift; `f_cap == f_scan` when the capped bounds degenerated).
    /// Insertions at or beyond `guard` cannot reach any covered window
    /// and leave the certificate intact.
    False {
        cursor: usize,
        f_scan: f64,
        delta_scan: u64,
        f_cap: f64,
        delta_cap: u64,
        guard: usize,
    },
}

/// A [`Verdict`] tied to the missing-set epoch it was derived from:
/// the disk's removal epoch for TRUE, insertion epoch for FALSE (see
/// [`Verdict`] for why each direction is the harmless one).
#[derive(Debug, Clone, Copy)]
struct CachedPrediction {
    epoch: u64,
    verdict: Verdict,
}

/// The forestall policy.
#[derive(Debug)]
pub struct Forestall {
    batch_size: usize,
    horizon_rule: FixedHorizon,
    /// Static F' multiplier; `None` selects the dynamic 1x/4x rule.
    static_multiplier: Option<f64>,
    scratch: BatchScratch,
    /// Per-disk cached stall verdicts (the incremental predictor).
    preds: Vec<Option<CachedPrediction>>,
    /// Force the naive full-rescan predictor (differential fuzzing).
    naive: bool,
}

impl Forestall {
    /// Creates the policy from the run configuration.
    pub fn new(config: &crate::config::SimConfig) -> Forestall {
        Forestall {
            batch_size: config.batch_size,
            horizon_rule: FixedHorizon::new(config.horizon),
            static_multiplier: config.forestall_static_f,
            scratch: BatchScratch::default(),
            preds: vec![None; config.disks],
            naive: config.forestall_naive_scan,
        }
    }

    /// The overestimated fetch/compute ratio F' for `disk`.
    fn f_prime(&self, ctx: &Ctx<'_>, disk: usize) -> f64 {
        let avg_fetch = ctx.history.avg_fetch(disk).unwrap_or(DEFAULT_FETCH);
        let f = ctx
            .history
            .fetch_compute_ratio(disk)
            .unwrap_or_else(|| cold_start_ratio(avg_fetch, ctx.history.avg_compute()));
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
    /// with a certificate ([`Verdict`]) and an epoch of the disk's
    /// missing set. A call first tries to re-validate the cached verdict
    /// in O(1); only when the certificate no longer covers the current
    /// (cursor, F') — or the missing set mutated — does the full
    /// [`scan_certified`] rescan run. Byte-identity with the naive scan
    /// holds by construction (each certificate implies the naive scan's
    /// answer exactly) and is re-checked here by a `debug_assert!`
    /// oracle on every cache-served verdict.
    fn stall_predicted(&mut self, ctx: &Ctx<'_>, disk: usize) -> bool {
        let f_prime = self.f_prime(ctx, disk);
        if self.naive {
            return naive_scan(ctx, disk, f_prime);
        }
        let cursor = ctx.cursor;
        if let Some(p) = self.preds[disk].as_mut() {
            match p.verdict {
                Verdict::True { index, pos } => {
                    // No removal means the entry was not consumed, and
                    // insertions since can only have grown its rank past
                    // `index`. Under exact hints the cursor reaching the
                    // entry would have fetched it, so `pos >= cursor`.
                    // A predicted hint can be a wrong guess the cursor
                    // passes without fetching, which leaves the entry
                    // behind the cursor: the certificate then fails and
                    // the scan decides.
                    if ctx.missing.rem_epoch(disk) == p.epoch
                        && pos >= cursor
                        && scaled_cmp(u128::from(index), f_prime, (pos - cursor) as u64)
                            != Ordering::Less
                    {
                        debug_assert!(naive_scan(ctx, disk, f_prime));
                        return true;
                    }
                }
                Verdict::False {
                    cursor: c0,
                    f_scan,
                    delta_scan,
                    f_cap,
                    delta_cap,
                    guard,
                } => {
                    debug_assert!(cursor >= c0, "cursor moved backwards");
                    let delta = (cursor - c0) as u64;
                    let covered = if f_prime <= f_scan {
                        delta <= delta_scan
                    } else if f_prime <= f_cap {
                        delta <= delta_cap
                    } else {
                        false
                    };
                    if covered {
                        let ins_now = ctx.missing.ins_epoch(disk);
                        if ins_now == p.epoch
                            || ctx.missing.inserts_all_at_or_beyond(disk, p.epoch, guard)
                                == Some(true)
                        {
                            // Every insertion since the scan landed past
                            // all covered windows; re-arm the epoch so
                            // the ring only ever needs to cover the
                            // insertions since the *previous* call.
                            p.epoch = ins_now;
                            debug_assert!(!naive_scan(ctx, disk, f_prime));
                            return false;
                        }
                    }
                }
            }
        }
        let rem_epoch = ctx.missing.rem_epoch(disk);
        let ins_epoch = ctx.missing.ins_epoch(disk);
        let (predicted, verdict) = scan_certified(ctx, disk, f_prime);
        let epoch = match verdict {
            Verdict::True { .. } => rem_epoch,
            Verdict::False { .. } => ins_epoch,
        };
        self.preds[disk] = Some(CachedPrediction { epoch, verdict });
        predicted
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
/// cache-served verdict against it, and the fuzzer's differential mode
/// runs whole simulations on it via `SimConfig::forestall_naive_scan`.
fn naive_scan(ctx: &Ctx<'_>, disk: usize, f_prime: f64) -> bool {
    let cursor = ctx.cursor;
    let window = LOOKAHEAD_CACHES * ctx.cache.capacity();
    let window_end = cursor.saturating_add(window);
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
    for pos in ctx
        .missing
        .missing_on_disk_in_window(disk, cursor, window_end)
    {
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

/// The full scan, additionally deriving the [`Verdict`] certificate the
/// incremental cache stores. The returned bool is byte-identical to
/// [`naive_scan`]: the trigger tests are the same `scaled_cmp` calls on
/// the same entries in the same order, and the one place the control
/// flow differs — naive's early exit — is itself a proof that no later
/// entry can trigger, so scanning past it can never flip the verdict.
/// Scanning the whole window is deliberate: anchoring the tail bound at
/// the *last* real entry instead of the early-exit entry is what gives
/// the FALSE certificate a useful advance slack (the early-exit anchor
/// assumes a densely packed tail and its slack degenerates to ~0).
///
/// Certificate soundness, with the disk's missing set fixed (enforced by
/// the epoch) and `delta` the cursor advance since the scan:
///
/// * Positions only leave the window by being consumed, which mutates
///   the set — so the scanned entries keep both their positions and
///   their 1-based indexes, and new entries appear only past the old
///   window's far edge.
/// * *Prefix*: for a scanned entry `i` at distance `d_i`, the no-trigger
///   condition at the advanced cursor is `i * F' < d_i - delta`. Since
///   `floor(x) <= N - 1  <=>  x < N` for integer `N`, this holds for
///   every `F' <= f_bound` exactly while
///   `delta <= d_i - 1 - floor(i * f_bound)` ([`floor_upper_bound`] is
///   conservative).
/// * *Tail*: entries past the scanned prefix all sit at or beyond `p*`,
///   the first missing position at or past the old window edge. One at
///   advanced-window distance `d` has rank `j <= (R + 1) + (d + delta -
///   (p* - cursor))` with `R` the scanned count (positions are
///   distinct), and the no-trigger slack of that claim is worst at the
///   edge `d = far`, so the whole tail is trigger-free for every
///   `F' <= f_bound` while `delta <= t - a*`, with `t` the largest
///   integer with `t * f_bound < far` ([`quota_lower_bound`] is
///   conservative) and `a* = (R + 1) - ((p* - cursor) - far)` (clamped
///   at zero — a negative anchor only adds slack). Independently, no
///   tail entry even enters the window while `delta <= p* - window_end`;
///   both arguments are valid, so the tail slack is their max. With no
///   `p*` the tail is empty and the certificate is cursor-unbounded.
///
/// When any bound degenerates (the capped F' already violates a prefix
/// slack, or `f_cap` overflows), the stored FALSE verdict falls back to
/// `(f_cap = F', delta_max = 0)`, which is sound from monotonicity
/// alone: the predicate is monotone non-decreasing in F', so the scan's
/// FALSE at F' covers any smaller F' at the same cursor.
fn scan_certified(ctx: &Ctx<'_>, disk: usize, f_prime: f64) -> (bool, Verdict) {
    let cursor = ctx.cursor;
    let window = LOOKAHEAD_CACHES * ctx.cache.capacity();
    let window_end = cursor.saturating_add(window);
    let far = (window - 1) as u64;
    let f_cap = f_prime * F_CAP_MARGIN;
    let mut cap_dead = !f_cap.is_finite();
    // Running minima of the per-entry advance slacks, under the scan's
    // own F' and under the drift cap.
    let mut d_scan = u64::MAX;
    let mut d_cap = u64::MAX;
    let mut rank = 0u64;
    // First missing position at or past the window edge: the tail anchor.
    let mut p_star = None;
    for pos in ctx.missing.missing_on_disk_from(disk, cursor) {
        if pos >= window_end {
            p_star = Some(pos);
            break;
        }
        rank += 1;
        let distance = (pos - cursor) as u64;
        // The paper's trigger, byte-identical to [`naive_scan`]'s.
        if scaled_cmp(u128::from(rank), f_prime, distance) != Ordering::Less {
            debug_assert!(naive_scan(ctx, disk, f_prime));
            return (true, Verdict::True { index: rank, pos });
        }
        // This entry's advance slack: `rank * f < distance - delta`
        // holds while `delta <= distance - 1 - floor(rank * f)`,
        // saturating at zero rather than wrapping.
        let lhs = u128::from(distance - 1);
        let s = lhs.saturating_sub(floor_upper_bound(u128::from(rank), f_prime));
        d_scan = d_scan.min(u64::try_from(s).unwrap_or(u64::MAX));
        if !cap_dead {
            let fl = floor_upper_bound(u128::from(rank), f_cap);
            if fl > lhs {
                cap_dead = true;
            } else {
                d_cap = d_cap.min(u64::try_from(lhs - fl).unwrap_or(u64::MAX));
            }
        }
    }
    if let Some(p) = p_star {
        // Tail slack, the max of the two independent arguments in the
        // doc comment: the count bound anchored at `p*`, and the gap
        // until anything enters the window at all.
        let enter = (p - window_end) as u64;
        let a = (rank + 1).saturating_sub((p - cursor) as u64 - far);
        d_scan = d_scan.min(quota_lower_bound(f_prime, far).saturating_sub(a).max(enter));
        if !cap_dead {
            d_cap = d_cap.min(quota_lower_bound(f_cap, far).saturating_sub(a).max(enter));
        }
    }
    debug_assert!(!naive_scan(ctx, disk, f_prime));
    (
        false,
        finish(cursor, window, f_prime, d_scan, f_cap, d_cap, cap_dead),
    )
}

/// Assembles the FALSE verdict from the folded advance slacks: the
/// degenerate cap collapses onto the scan bound, and the guard marks the
/// first position no covered window can reach
/// (`cursor + window + delta_scan`).
fn finish(
    cursor: usize,
    window: usize,
    f_scan: f64,
    delta_scan: u64,
    f_cap: f64,
    delta_cap: u64,
    cap_dead: bool,
) -> Verdict {
    let (f_cap, delta_cap) = if cap_dead {
        (f_scan, delta_scan)
    } else {
        (f_cap, delta_cap)
    };
    let guard = cursor
        .saturating_add(window)
        .saturating_add(usize::try_from(delta_scan).unwrap_or(usize::MAX));
    Verdict::False {
        cursor,
        f_scan,
        delta_scan,
        f_cap,
        delta_cap,
        guard,
    }
}

/// An upper bound on `floor(a * f)` from one float multiply nudged up by
/// [`FLOAT_SLOP`] (saturating at `u128::MAX`), checked against the exact
/// [`scaled_floor`] in debug builds. Used only for certificate slack,
/// where over-estimating the floor merely shrinks the covered advance.
///
/// Both conversions go through `u64` when the value fits: the `u128`
/// ones are software routines, and each `u64` conversion rounds (or
/// truncates, saturating) exactly as the `u128` one does in its range.
#[inline]
fn floor_upper_bound(a: u128, f: f64) -> u128 {
    /// 2^64 as an `f64` (exact).
    const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
    let af = match u64::try_from(a) {
        Ok(a) => a as f64,
        Err(_) => a as f64,
    };
    let ub = af * f * (1.0 + FLOAT_SLOP);
    let ub = if ub < TWO_POW_64 {
        u128::from(ub as u64)
    } else {
        ub as u128
    };
    debug_assert!(scaled_floor(a, f).is_none_or(|fl| ub >= fl));
    ub
}

/// A lower bound on the largest `t` with `t * f < b`, from one float
/// divide nudged down by [`FLOAT_SLOP`], checked against the exact
/// [`scaled_quota`] in debug builds. Under-estimating the quota only
/// shrinks the certificate's covered advance.
#[inline]
fn quota_lower_bound(f: f64, b: u64) -> u64 {
    let lb = (b as f64) / f * (1.0 - FLOAT_SLOP);
    let lb = lb as u64;
    debug_assert!(lb <= scaled_quota(f, b));
    lb
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
    debug_assert!(f.is_finite() && f >= 1.0, "factor must be finite and >= 1");
    let bits = f.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1075;
    let m = u128::from((bits & ((1u64 << 52) - 1)) | (1u64 << 52));
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
/// product exceeds `u128` (the true product then dwarfs any window
/// distance, so callers treat it as an unusable bound).
///
/// Same IEEE-754 decomposition as [`scaled_cmp`]: `f = m * 2^e` with
/// `2^52 <= m < 2^53`, so `a * f = (a * m) * 2^e` and the floor is a
/// single shift of the exact `u128` product.
fn scaled_floor(a: u128, f: f64) -> Option<u128> {
    debug_assert!(f.is_finite() && f >= 1.0, "factor must be finite and >= 1");
    let bits = f.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1075;
    let m = u128::from((bits & ((1u64 << 52) - 1)) | (1u64 << 52));
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
    debug_assert!(f.is_finite() && f >= 1.0, "factor must be finite and >= 1");
    debug_assert!(b >= 1, "bound must be positive");
    let bits = f.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1075;
    let m = u128::from((bits & ((1u64 << 52) - 1)) | (1u64 << 52));
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
    fn floor_upper_bound_matches_the_direct_u128_conversion() {
        // The u64 fast paths must reproduce `((a as f64) * f * (1 +
        // FLOAT_SLOP)) as u128` on both sides of 2^64, in `a` and in the
        // result.
        let direct = |a: u128, f: f64| ((a as f64) * f * (1.0 + FLOAT_SLOP)) as u128;
        let two_64 = 1u128 << 64;
        let values = [
            0,
            1,
            3,
            (1 << 53) + 1,
            two_64 - 1,
            two_64,
            two_64 + 1,
            (1u128 << 100) + 12_345,
            u128::MAX,
        ];
        let factors = [
            1.0,
            1.0 + f64::EPSILON,
            1.0625,
            1.5,
            4096.0,
            1e19,
            1e30,
            1e300,
        ];
        for a in values {
            for f in factors {
                assert_eq!(floor_upper_bound(a, f), direct(a, f), "{a} * {f}");
            }
        }
        // Results straddling 2^64 from a small rank.
        let near = 18_446_744_073_709_551_616.0 / (1.0 + FLOAT_SLOP);
        for f in [near * (1.0 - 1e-15), near, near * (1.0 + 1e-15)] {
            assert_eq!(floor_upper_bound(1, f), direct(1, f), "1 * {f}");
        }
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
