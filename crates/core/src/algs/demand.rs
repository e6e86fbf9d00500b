//! Demand fetching with optimal (offline) cache replacement.
//!
//! The paper's §4.1 baseline: "whenever a block is fetched, the block in
//! the cache whose next reference is furthest in the future is replaced".
//! No prefetching — every fetch is triggered by a miss — but replacement
//! uses full future knowledge, making the comparison as favorable to
//! demand fetching as possible.

use crate::engine::Ctx;
use crate::policy::{Indexes, Policy};

/// The optimal-replacement demand-fetching baseline.
#[derive(Debug, Default)]
pub(crate) struct Demand;

impl Policy for Demand {
    fn name(&self) -> &'static str {
        "demand"
    }

    fn decide(&mut self, _ctx: &mut Ctx<'_>) {
        // Never prefetches; all fetching happens in the default on_miss.
    }

    fn indexes(&self) -> Indexes {
        Indexes::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DiskModelKind, SimConfig};
    use crate::engine::simulate_with;
    use parcache_trace::{Request, Trace};
    use parcache_types::{BlockId, Nanos};

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
            3,
        )
    }

    fn cfg(cache: usize) -> SimConfig {
        let mut c = SimConfig::new(1, cache);
        c.disk_model = DiskModelKind::Uniform(Nanos::from_millis(2));
        c.driver_overhead = Nanos::ZERO;
        c
    }

    #[test]
    fn fetch_count_is_belady_optimal() {
        // Classic Belady example: with a 3-block cache over
        // 1 2 3 4 1 2 5 1 2 3 4 5, OPT misses 7 times.
        let t = trace_of(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]);
        let r = simulate_with(&t, &mut Demand, &cfg(3));
        assert_eq!(r.fetches, 7);
    }

    #[test]
    fn stalls_on_every_miss() {
        let t = trace_of(&[1, 2, 3]);
        let r = simulate_with(&t, &mut Demand, &cfg(3));
        // 3 compute + 3 fetches x 2ms stall each.
        assert_eq!(r.elapsed, Nanos::from_millis(9));
        assert_eq!(r.stall, Nanos::from_millis(6));
    }

    #[test]
    fn never_prefetches() {
        // Re-referencing cached blocks: exactly distinct-many fetches.
        let t = trace_of(&[1, 2, 1, 2, 1, 2, 1, 2]);
        let r = simulate_with(&t, &mut Demand, &cfg(3));
        assert_eq!(r.fetches, 2);
    }

    #[test]
    fn stall_splits_into_first_touch_and_eviction_refetch() {
        // Pinned stall provenance for the no-prefetch policy. Cache of 1
        // over 1 2 1: the first two misses are first touches (no fetch
        // was ever issued for those blocks — `no_prefetch`), while the
        // re-miss of 1 exists only because fetching 2 evicted it
        // (`eviction_refetch`). Each miss stalls the full 2ms fetch.
        use crate::probe::StallCause;
        let t = trace_of(&[1, 2, 1]);
        let r = simulate_with(&t, &mut Demand, &cfg(1));
        assert_eq!(r.stall, Nanos::from_millis(6));
        assert_eq!(
            r.stall_by_cause.get(StallCause::NoPrefetch),
            Nanos::from_millis(4)
        );
        assert_eq!(
            r.stall_by_cause.get(StallCause::EvictionRefetch),
            Nanos::from_millis(2)
        );
        // Demand never issues early fetches, so no stall can be merely
        // "late": the in-flight causes must stay empty.
        assert_eq!(r.stall_by_cause.get(StallCause::LatePrefetch), Nanos::ZERO);
        assert_eq!(
            r.stall_by_cause.get(StallCause::DiskCongestion),
            Nanos::ZERO
        );
        assert_eq!(r.stall_by_cause.total(), r.stall);
    }
}
