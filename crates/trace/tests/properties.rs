//! Property-style tests of the trace substrate: placement, calibration,
//! compute-time generation, and the generators themselves, over seeded
//! random inputs from the workspace's own deterministic [`Rng`].

use parcache_trace::calibrate::calibrate_counts;
use parcache_trace::compute::{calibrate_total, ComputeDist, ComputeSampler};
use parcache_trace::placement::{GroupPlacer, GROUPS, GROUP_BLOCKS};
use parcache_trace::{trace_by_name, Request, TRACE_NAMES};
use parcache_types::rng::Rng;
use parcache_types::{BlockId, Nanos};
use std::collections::HashSet;

const CASES: u64 = 64;

/// Placement never aliases two file blocks, for any mix of sizes and
/// strides, and never escapes the placement area.
#[test]
fn placement_is_always_injective() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let seed = rng.next_u64();
        let n_files = rng.gen_range(1usize..40);
        let files: Vec<(u64, u64)> = (0..n_files)
            .map(|_| (rng.gen_range(1u64..200), rng.gen_range(1u64..3)))
            .collect();
        let mut placer = GroupPlacer::new(seed);
        let mut seen: HashSet<BlockId> = HashSet::new();
        for (len, stride) in files {
            let f = placer.place_strided(len, stride);
            for off in 0..len {
                let b = f.block(off);
                assert!(seen.insert(b), "case {case}: aliased {b}");
                assert!(b.raw() < GROUPS * GROUP_BLOCKS, "case {case}");
            }
        }
    }
}

/// Scattered placement has the same guarantees.
#[test]
fn scattered_placement_is_injective() {
    for case in 100..100 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let seed = rng.next_u64();
        let n = rng.gen_range(1usize..60);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..50)).collect();
        let mut placer = GroupPlacer::new(seed);
        let files = placer.place_all_scattered(&sizes, 2);
        let mut seen: HashSet<BlockId> = HashSet::new();
        for f in &files {
            for off in 0..f.len {
                assert!(seen.insert(f.block(off)), "case {case}");
            }
        }
    }
}

/// Count calibration always hits its targets exactly when they are
/// reachable (at least as many reads as distinct blocks, no more distinct
/// than requested).
#[test]
fn calibration_hits_targets() {
    for case in 200..200 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let n = rng.gen_range(1usize..120);
        let base: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..30)).collect();
        let extra_distinct = rng.gen_range(0usize..10);
        let extra_reads = rng.gen_range(0usize..60);
        let mut blocks: Vec<BlockId> = base.iter().map(|&b| BlockId(b)).collect();
        let current_distinct = base.iter().collect::<HashSet<_>>().len();
        let target_distinct = current_distinct + extra_distinct;
        // Reachable: enough room for the fresh blocks plus the padding.
        let target_reads = blocks.len() + extra_distinct + extra_reads;
        let mut next = 1000u64;
        calibrate_counts(&mut blocks, target_reads, target_distinct, || {
            next += 1;
            BlockId(next)
        });
        assert_eq!(blocks.len(), target_reads, "case {case}");
        let distinct = blocks.iter().collect::<HashSet<_>>().len();
        assert_eq!(distinct, target_distinct, "case {case}");
    }
}

/// Total-compute calibration is exact for any distribution.
#[test]
fn compute_calibration_is_exact() {
    for case in 300..300 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let n = rng.gen_range(1usize..500);
        let target_ms = rng.gen_range(1u64..100_000);
        let mut sampler = ComputeSampler::new(ComputeDist::Exponential { mean_ms: 2.0 });
        let mut xs: Vec<Request> = (0..n)
            .map(|_| Request {
                block: BlockId(0),
                compute: sampler.sample(&mut rng),
            })
            .collect();
        let target = Nanos::from_millis(target_ms);
        calibrate_total(&mut xs, target);
        let total: Nanos = xs.iter().map(|r| r.compute).sum();
        assert_eq!(total, target, "case {case}");
    }
}

/// Every registered trace is deterministic in its seed and fits the
/// single-disk HP 97560.
#[test]
fn traces_fit_and_are_deterministic() {
    for seed in 0u64..12 {
        for name in TRACE_NAMES {
            let t = trace_by_name(name, seed).unwrap();
            assert!(t.max_block().unwrap().raw() < 167_751, "{name} seed {seed}");
            assert!(t.requests.iter().all(|r| r.compute >= Nanos::ZERO));
        }
    }
}

/// Trace statistics are invariant across seeds (placement moves, counts
/// do not).
#[test]
fn stats_are_seed_invariant() {
    for name in TRACE_NAMES {
        let a = trace_by_name(name, 1).unwrap().stats();
        let b = trace_by_name(name, 99).unwrap().stats();
        assert_eq!(a.reads, b.reads, "{name}");
        assert_eq!(a.distinct_blocks, b.distinct_blocks, "{name}");
        assert_eq!(a.compute, b.compute, "{name}");
    }
}
