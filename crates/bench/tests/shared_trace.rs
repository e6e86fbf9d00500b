//! The sweep's shared-trace contract. Cells carry `Arc<Trace>` handles
//! resolved when the grid is built, so worker threads never take the
//! process-wide trace-cache lock — the serialization point behind the
//! sweep's old negative thread scaling. Two invariants pin that:
//!
//! 1. running a pre-generated grid causes **zero** trace-cache traffic
//!    (no hits, no misses — workers simply never get there), and
//! 2. the CSV is byte-identical at 1, 2, and 4 threads, compared by
//!    SHA-256 digest on a real paper trace.

use parcache_bench::sweep::{run_cells_failsoft, sweep_csv, FailSoft, SweepSpec};
use parcache_bench::{sha256_hex, trace_cache_stats, Algo};
use parcache_disk::FaultPlan;

#[test]
fn shared_trace_sweep_is_digest_identical_and_cache_silent() {
    // Building the spec resolves "ld" (the suite's smallest trace)
    // through the cache once, up front.
    let spec = SweepSpec::named(&["ld"], &Algo::APPENDIX_A, None, 2);
    let cells = spec.cells();
    assert!(!cells.is_empty());

    let before = trace_cache_stats();
    let digests: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let (faults, policy) = (FaultPlan::default(), FailSoft::default());
            let outcomes =
                run_cells_failsoft(&cells, threads, false, false, &faults, &policy, None)
                    .expect_clean();
            sha256_hex(sweep_csv(&outcomes).as_bytes())
        })
        .collect();
    let after = trace_cache_stats();

    assert_eq!(digests[0], digests[1], "2-thread CSV diverged");
    assert_eq!(digests[0], digests[2], "4-thread CSV diverged");
    assert_eq!(
        before, after,
        "sweep workers touched the trace cache after pre-generation"
    );
}
