//! The fixed horizon algorithm (§2.3, §2.7).
//!
//! "Whenever there is a missing block at most H references away, issue a
//! fetch for that block, replacing the block whose next reference is
//! furthest in the future", provided that replacement's next reference is
//! beyond the horizon. Fetches are issued as soon as a missing block
//! enters the horizon, so a disk may hold up to H outstanding requests —
//! which is what gives the head scheduler its reordering opportunities.

use crate::engine::Ctx;
use crate::oracle::NEVER;
use crate::policy::{Indexes, Policy};

/// The fixed horizon policy.
#[derive(Debug)]
pub(crate) struct FixedHorizon {
    horizon: usize,
}

impl FixedHorizon {
    /// Creates the policy with prefetch horizon `horizon` (the paper uses
    /// H = 62 by default).
    pub(crate) fn new(horizon: usize) -> FixedHorizon {
        assert!(horizon > 0, "the horizon must be positive");
        FixedHorizon { horizon }
    }

    /// The configured horizon.
    #[cfg(test)]
    pub(crate) fn horizon(&self) -> usize {
        self.horizon
    }
}

impl Policy for FixedHorizon {
    fn name(&self) -> &'static str {
        "fixed-horizon"
    }

    fn indexes(&self) -> Indexes {
        Indexes::MISSING
    }

    fn decide(&mut self, ctx: &mut Ctx<'_>) {
        let cursor = ctx.cursor;
        let end = cursor.saturating_add(self.horizon);
        loop {
            // The earliest missing block within the horizon window.
            let Some(pos) = ctx.missing().first_missing(cursor) else {
                return;
            };
            if pos >= end {
                return;
            }
            let idx = ctx
                .oracle
                .index_at(pos)
                .expect("missing-tracker positions are disclosed");
            if ctx.cache.has_free_frame() {
                ctx.issue_fetch_idx(idx, None);
                continue;
            }
            match ctx.cache.furthest_resident(cursor, ctx.oracle) {
                // Replace only a block not needed within the horizon.
                Some((victim, key)) if key == NEVER || key > end => {
                    ctx.issue_fetch_idx(idx, Some(victim));
                }
                _ => return,
            }
        }
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

    fn cfg(disks: usize, cache: usize, fetch_ms: u64, horizon: usize) -> SimConfig {
        let mut c = SimConfig::new(disks, cache);
        c.disk_model = DiskModelKind::Uniform(Nanos::from_millis(fetch_ms));
        c.driver_overhead = Nanos::ZERO;
        c.horizon = horizon;
        c
    }

    #[test]
    fn prefetches_within_horizon_eliminate_stall() {
        // Fetch time = 2 compute steps; horizon 4 >= 2 suffices to hide
        // all latency on one disk for a sequential scan after warmup.
        let blocks: Vec<u64> = (0..20).collect();
        let t = trace_of(&blocks, 8);
        let c = cfg(1, 8, 2, 4);
        let mut p = FixedHorizon::new(c.horizon);
        let r = simulate_with(&t, &mut p, &c);
        // First block must stall (2ms); afterwards prefetching hides the
        // 2ms fetches behind 1ms computes only partially on one disk:
        // the disk needs 40ms total, compute is 20ms, so elapsed ~ 40ms.
        assert!(r.elapsed <= Nanos::from_millis(43), "elapsed {}", r.elapsed);
        assert_eq!(r.fetches, 20);
    }

    #[test]
    fn does_not_fetch_beyond_horizon() {
        // Block 5 is referenced last, far beyond the horizon from t=0.
        // With a long compute gap, fixed horizon leaves the disk idle
        // instead of fetching early.
        let t = Trace::new(
            "t",
            vec![
                Request {
                    block: BlockId(0),
                    compute: Nanos::from_millis(50),
                },
                Request {
                    block: BlockId(1),
                    compute: Nanos::from_millis(1),
                },
                Request {
                    block: BlockId(2),
                    compute: Nanos::from_millis(1),
                },
                Request {
                    block: BlockId(3),
                    compute: Nanos::from_millis(1),
                },
                Request {
                    block: BlockId(4),
                    compute: Nanos::from_millis(1),
                },
                Request {
                    block: BlockId(5),
                    compute: Nanos::from_millis(1),
                },
            ],
            8,
        );
        let c = cfg(1, 8, 2, 2);
        let mut p = FixedHorizon::new(2);
        let r = simulate_with(&t, &mut p, &c);
        // All six blocks are eventually fetched exactly once (no waste).
        assert_eq!(r.fetches, 6);
    }

    #[test]
    fn replacement_respects_horizon_guard() {
        // Cache of 2. Sequence: 0 1 0 1 ... 2. Blocks 0 and 1 are always
        // within the horizon; fetching 2 would require evicting one of
        // them, so fixed horizon must wait (and demand-fetch 2 at its
        // reference, evicting whichever is no longer needed).
        let blocks = vec![0, 1, 0, 1, 0, 1, 2];
        let t = trace_of(&blocks, 2);
        let c = cfg(1, 2, 2, 4);
        let mut p = FixedHorizon::new(4);
        let r = simulate_with(&t, &mut p, &c);
        assert_eq!(r.fetches, 3);
        // The fetch of 2 happened on demand (stall >= fetch time minus
        // overlap): there must be some stall.
        assert!(r.stall > Nanos::ZERO);
    }

    #[test]
    fn degraded_drive_stalls_are_congestion_not_late_prefetch() {
        // Pinned stall provenance: a fail-slow window covering the whole
        // run degrades the only drive. Stalls still begin with the
        // block's fetch in flight, but a degraded drive is contention by
        // the provenance rules (the prefetch was issued in time; the
        // drive could not keep up), so the stall charges to
        // `congestion`, not `late_prefetch`. Fail-slow injects no media
        // errors, so nothing can classify as a fault retry.
        use crate::probe::StallCause;
        use parcache_disk::FaultPlan;
        let blocks: Vec<u64> = (0..20).collect();
        let t = trace_of(&blocks, 8);
        let c = cfg(1, 8, 2, 4)
            .with_faults(FaultPlan::parse("slow:0:0:10000:3").expect("valid fault plan"));
        let mut p = FixedHorizon::new(c.horizon);
        let r = simulate_with(&t, &mut p, &c);
        assert!(r.stall > Nanos::ZERO);
        assert!(r.stall_by_cause.get(StallCause::DiskCongestion) > Nanos::ZERO);
        assert_eq!(r.stall_by_cause.get(StallCause::LatePrefetch), Nanos::ZERO);
        assert_eq!(r.stall_by_cause.get(StallCause::FaultRetry), Nanos::ZERO);
        assert_eq!(r.stall_by_cause.total(), r.stall);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_horizon_rejected() {
        FixedHorizon::new(0);
    }

    #[test]
    fn horizon_accessor() {
        assert_eq!(FixedHorizon::new(62).horizon(), 62);
    }
}
