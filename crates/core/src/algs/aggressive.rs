//! The multi-disk aggressive algorithm (§2.4, §2.7).
//!
//! "Whenever a disk D is free, construct a batch of at most batch-size
//! fetches to initiate on D: as long as the first missing block B on disk
//! D precedes the block B' whose next request is furthest in the future,
//! add the fetch/eviction pair B/B' to the batch."
//!
//! When several disks are free simultaneously their missing blocks are
//! considered together in increasing request-index order; each is issued
//! to its disk (with the best possible eviction) while its batch has room
//! and the do-no-harm rule allows it.

use crate::engine::Ctx;
use crate::policy::{Indexes, Policy};

/// The aggressive policy.
#[derive(Debug)]
pub(crate) struct Aggressive {
    batch_size: usize,
    scratch: BatchScratch,
}

impl Aggressive {
    /// Creates the policy with the given per-disk batch size (Table 6
    /// gives the paper's defaults by array size).
    pub(crate) fn new(batch_size: usize) -> Aggressive {
        assert!(batch_size > 0, "the batch size must be positive");
        Aggressive {
            batch_size,
            scratch: BatchScratch::default(),
        }
    }

    /// The configured batch size.
    #[cfg(test)]
    pub(crate) fn batch_size(&self) -> usize {
        self.batch_size
    }
}

/// Reusable per-disk working vectors for [`fill_free_disk_batches`]. The
/// function runs at every decision point; owning the buffers in the policy
/// keeps the hot path free of per-call allocation.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Remaining batch budget for each free disk.
    budget: Vec<Option<usize>>,
    /// Per-disk scan positions over the missing-block index.
    from: Vec<usize>,
}

/// Builds batches for every currently-free disk: missing blocks are taken
/// in increasing request-index order, each fetch paired with the
/// furthest-future eviction, subject to do-no-harm. Shared with forestall,
/// whose batch construction is identical once it decides to prefetch.
pub(crate) fn fill_free_disk_batches(
    ctx: &mut Ctx<'_>,
    batch_size: usize,
    only_disk: Option<usize>,
    scratch: &mut BatchScratch,
) {
    let cursor = ctx.cursor;
    let disks = ctx.config.disks;
    scratch.budget.clear();
    scratch.budget.extend((0..disks).map(|d| {
        let eligible = only_disk.is_none_or(|o| o == d);
        (eligible && ctx.array.is_free(parcache_types::DiskId(d))).then_some(batch_size)
    }));
    if scratch.budget.iter().all(|b| b.is_none()) {
        return;
    }
    scratch.from.clear();
    scratch.from.resize(disks, cursor);
    loop {
        // The earliest missing block among disks with budget.
        let mut best: Option<(usize, usize)> = None; // (pos, disk)
        for d in 0..disks {
            if scratch.budget[d].is_none_or(|b| b == 0) {
                continue;
            }
            if let Some(p) = ctx.missing().first_missing_on_disk(d, scratch.from[d]) {
                if best.is_none_or(|(bp, _)| p < bp) {
                    best = Some((p, d));
                }
            }
        }
        let Some((pos, disk)) = best else { return };
        let idx = ctx
            .oracle
            .index_at(pos)
            .expect("missing-tracker positions are disclosed");
        debug_assert_eq!(ctx.oracle.disk_of(ctx.oracle.block_of(idx)).index(), disk);

        if ctx.cache.has_free_frame() {
            ctx.issue_fetch_idx(idx, None);
        } else {
            match ctx.cache.furthest_resident(cursor, ctx.oracle) {
                // Do no harm: only evict a block whose next reference is
                // after the fetched block's.
                Some((victim, key)) if key > pos => {
                    ctx.issue_fetch_idx(idx, Some(victim));
                }
                // The rule forbids this fetch. Every remaining candidate
                // has a larger `pos`, so the furthest resident, which did
                // not beat this one, cannot beat them either. Stop.
                _ => return,
            }
        }
        *scratch.budget[disk].as_mut().expect("disk had budget") -= 1;
        scratch.from[disk] = pos + 1;
    }
}

impl Policy for Aggressive {
    fn name(&self) -> &'static str {
        "aggressive"
    }

    fn decide(&mut self, ctx: &mut Ctx<'_>) {
        fill_free_disk_batches(ctx, self.batch_size, None, &mut self.scratch);
    }

    fn indexes(&self) -> Indexes {
        Indexes::MISSING
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DiskModelKind, SimConfig};
    use crate::engine::simulate_with;
    use parcache_trace::{Request, Trace};
    use parcache_types::{BlockId, Nanos};

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

    fn cfg(disks: usize, cache: usize, fetch_ms: u64, batch: usize) -> SimConfig {
        let mut c = SimConfig::new(disks, cache);
        c.disk_model = DiskModelKind::Uniform(Nanos::from_millis(fetch_ms));
        c.driver_overhead = Nanos::ZERO;
        c.batch_size = batch;
        c
    }

    #[test]
    fn prefetches_deeply_when_io_bound() {
        // Sequential scan, fetch 4x the compute time, one disk: aggressive
        // keeps the disk busy continuously; elapsed ~ disk time.
        let blocks: Vec<u64> = (0..30).collect();
        let t = trace_of(&blocks, 8);
        let c = cfg(1, 8, 4, 4);
        let mut p = Aggressive::new(4);
        let r = simulate_with(&t, &mut p, &c);
        // Disk-bound floor: 30 fetches x 4ms = 120ms.
        assert!(r.elapsed >= Nanos::from_millis(120));
        assert!(
            r.elapsed <= Nanos::from_millis(128),
            "elapsed {}",
            r.elapsed
        );
        assert_eq!(r.fetches, 30);
    }

    #[test]
    fn respects_do_no_harm() {
        // Cache of 2 over an alternating hot pair: fetching block 2 early
        // would evict a block needed sooner than 2, so aggressive waits.
        let blocks = vec![0, 1, 0, 1, 0, 1, 2];
        let t = trace_of(&blocks, 2);
        let c = cfg(1, 2, 2, 8);
        let mut p = Aggressive::new(8);
        let r = simulate_with(&t, &mut p, &c);
        // Exactly three fetches: 0, 1, and 2 — do-no-harm prevented any
        // wasteful refetching of 0/1.
        assert_eq!(r.fetches, 3);
    }

    #[test]
    fn uses_parallel_disks() {
        // Blocks striped over 4 disks; aggressive fills all four batches
        // and overlaps fetches, beating the serial lower bound.
        let blocks: Vec<u64> = (0..40).collect();
        let t = trace_of(&blocks, 16);
        let c = cfg(4, 16, 8, 4);
        let mut p = Aggressive::new(4);
        let r = simulate_with(&t, &mut p, &c);
        // Serial would need 40 x 8 = 320ms of fetching; 4-way overlap plus
        // 40ms compute should land well under 160ms.
        assert!(r.elapsed < Nanos::from_millis(160), "elapsed {}", r.elapsed);
    }

    #[test]
    fn batch_size_bounds_outstanding_requests() {
        // With batch 2 on one disk, at most 2 requests are ever queued at
        // once; verified indirectly: aggressive still fetches everything.
        let blocks: Vec<u64> = (0..12).collect();
        let t = trace_of(&blocks, 6);
        let c = cfg(1, 6, 2, 2);
        let mut p = Aggressive::new(2);
        let r = simulate_with(&t, &mut p, &c);
        assert_eq!(r.fetches, 12);
    }

    #[test]
    fn stall_is_charged_to_late_prefetches() {
        // Pinned stall provenance: on an I/O-bound sequential scan over
        // one disk, aggressive has already issued every block's fetch by
        // the time the app catches up, and FCFS serves blocks in
        // reference order — so each stall finds its block's fetch on the
        // platter. The prefetches were late, never absent.
        use crate::probe::StallCause;
        let blocks: Vec<u64> = (0..30).collect();
        let t = trace_of(&blocks, 8);
        let r = simulate_with(&t, &mut Aggressive::new(4), &cfg(1, 8, 4, 4));
        assert!(r.stall > Nanos::ZERO);
        assert_eq!(r.stall_by_cause.get(StallCause::LatePrefetch), r.stall);
        assert_eq!(r.stall_by_cause.total(), r.stall);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        Aggressive::new(0);
    }

    #[test]
    fn accessor() {
        assert_eq!(Aggressive::new(40).batch_size(), 40);
    }
}
