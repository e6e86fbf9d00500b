//! The theoretical model of §2.1 as a configuration of the real engine.
//!
//! In the theoretical model every inter-reference compute time is one
//! unit, every fetch takes exactly F units, there is no driver overhead,
//! and fetches on one disk are serialized while different disks proceed
//! in parallel. All of that is expressible with the real engine: a trace
//! with unit compute times, the uniform disk model, and zero overhead —
//! so the theory and the practical simulator share one code path, and the
//! worked example of the paper's Figure 1 can be tested directly.

use crate::config::{DiskModelKind, SimConfig};
use parcache_trace::{Request, Trace};
use parcache_types::{BlockId, Nanos};

/// One "time unit" of the theoretical model, as simulated time.
pub(crate) const UNIT: Nanos = Nanos::from_millis(1);

/// Builds a theoretical-model trace: unit compute time per reference.
pub fn unit_trace(blocks: &[u64], cache_blocks: usize) -> Trace {
    Trace::new(
        "theory",
        blocks
            .iter()
            .map(|&b| Request {
                block: BlockId(b),
                compute: UNIT,
            })
            .collect(),
        cache_blocks,
    )
}

/// A theoretical-model configuration: `d` disks, cache of `k` blocks,
/// fetch time `f` units, no driver overhead, FCFS heads (scheduling is
/// irrelevant under uniform fetch times).
pub fn theory_config(d: usize, k: usize, f: u64) -> SimConfig {
    let mut c = SimConfig::new(d, k);
    c.disk_model = DiskModelKind::Uniform(UNIT * f);
    c.driver_overhead = Nanos::ZERO;
    c.discipline = parcache_disk::sched::Discipline::Fcfs;
    // In the theoretical model there is no benefit to batching; H = F.
    c.horizon = f as usize;
    c.batch_size = 1;
    c.reverse_fetch_estimate = f;
    c.reverse_batch_size = 1;
    c
}

/// Elapsed time of a run, in theoretical time units.
pub fn elapsed_units(report: &crate::engine::Report) -> u64 {
    report.elapsed.as_nanos() / UNIT.as_nanos()
}

/// A hard lower bound on the elapsed time of a run under the uniform
/// model with fetch time `f` (§2.1): the CPU timeline (compute +
/// driver) is serial, any fetch at all takes a full `f` that cannot
/// finish before the run does, and each drive serializes its requests
/// at `f` apiece. Reporting less than this is impossible physics, so
/// the audit layer treats it as an accounting violation.
pub(crate) fn uniform_elapsed_lower_bound(report: &crate::engine::Report, f: Nanos) -> Nanos {
    let mut bound = report.compute + report.driver;
    if report.fetches > 0 {
        bound = bound.max(f);
    }
    for d in &report.per_disk {
        bound = bound.max(f.checked_mul(d.served).unwrap_or(Nanos::MAX));
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::policy::PolicyKind;

    /// The Figure 1 scenario: cache k=4, fetch F=2, two disks. One disk
    /// holds A, C, E, F; the other holds b, d. The cache initially holds
    /// A, b, d, F and the program references A b C d E F.
    ///
    /// Figure 1(a): the straightforward greedy schedule takes 7 units.
    /// Figure 1(b): offloading an early eviction to the idle disk takes 6.
    ///
    /// Block numbering places A,C,E,F on disk 0 (even) and b,d on disk 1
    /// (odd): A=0, C=2, E=4, F=6, b=1, d=3.
    fn figure1_trace() -> Trace {
        // Warm the cache with A, b, d, F through a prefix the policies
        // cannot avoid (references to each), then measure the suffix...
        // The paper assumes a pre-warmed cache; our engine starts cold, so
        // we emulate the full sequence including the warmup and compare
        // policies to each other rather than to the absolute 6/7 numbers.
        unit_trace(&[0, 1, 3, 6, /* warm A,b,d,F */ 0, 1, 2, 3, 4, 6], 4)
    }

    #[test]
    fn figure1_policies_complete_and_agree_on_breakdown() {
        let t = figure1_trace();
        let c = theory_config(2, 4, 2);
        for kind in PolicyKind::ALL {
            let r = simulate(&t, kind, &c);
            assert_eq!(r.elapsed, r.compute + r.driver + r.stall, "{kind}");
            // 10 references, 1 unit each.
            assert_eq!(r.compute, UNIT * 10, "{kind}");
        }
    }

    #[test]
    fn figure1_prefetchers_beat_demand() {
        let t = figure1_trace();
        let c = theory_config(2, 4, 2);
        let demand = simulate(&t, PolicyKind::Demand, &c);
        for kind in PolicyKind::PREFETCHING {
            let r = simulate(&t, kind, &c);
            assert!(
                r.elapsed <= demand.elapsed,
                "{kind}: {} > demand {}",
                r.elapsed,
                demand.elapsed
            );
        }
    }

    #[test]
    fn single_disk_aggressive_matches_known_optimum() {
        // Single disk, F=2, k=2, sequence 0 1 0 1 2: aggressive fetches
        // 0 and 1 (4 units of disk time overlapped with compute), then 2
        // when do-no-harm allows.
        let t = unit_trace(&[0, 1, 0, 1, 2], 2);
        let c = theory_config(1, 2, 2);
        let r = simulate(&t, PolicyKind::Aggressive, &c);
        // Lower bound: 5 compute units + first-fetch stall 2.
        assert!(elapsed_units(&r) >= 7);
        assert!(elapsed_units(&r) <= 11, "{} units", elapsed_units(&r));
    }

    #[test]
    fn fixed_horizon_is_optimal_with_enough_disks() {
        // With one disk per distinct block and H >= F, fixed horizon
        // serves a sequential scan with only the cold-start stall.
        let t = unit_trace(&[0, 1, 2, 3, 0, 1, 2, 3], 4);
        let c = theory_config(4, 4, 2);
        let r = simulate(&t, PolicyKind::FixedHorizon, &c);
        // 8 compute + at most F cold stall.
        assert!(elapsed_units(&r) <= 11, "{} units", elapsed_units(&r));
    }

    #[test]
    fn uniform_lower_bound_is_respected_by_real_runs() {
        let t = unit_trace(&[0, 1, 2, 3, 0, 1, 2, 3], 4);
        let f = 3u64;
        for kind in PolicyKind::ALL {
            let c = theory_config(2, 3, f);
            let r = simulate(&t, kind, &c);
            let bound = uniform_elapsed_lower_bound(&r, UNIT * f);
            assert!(
                r.elapsed >= bound,
                "{kind}: elapsed {} below bound {bound}",
                r.elapsed
            );
            // The bound is not vacuous: it at least covers compute and
            // one full fetch.
            assert!(bound >= r.compute.max(UNIT * f));
        }
    }

    #[test]
    fn unit_trace_shape() {
        let t = unit_trace(&[1, 2, 3], 8);
        assert_eq!(t.len(), 3);
        assert_eq!(t.cache_blocks, 8);
        assert!(t.requests.iter().all(|r| r.compute == UNIT));
    }
}
