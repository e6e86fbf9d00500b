//! The `cscope[1-3]` traces: source-code searches over a package of files.
//!
//! §3.1: cscope is an interactive C-source examination tool; with multiple
//! queries it "will read multiple files sequentially multiple times".
//!
//! * cscope1 — eight symbol searches over an 18 MB package: 8673 reads of
//!   1073 distinct blocks, 24.9 s compute.
//! * cscope2 — four text searches over the same package: 20,206 reads of
//!   2462 distinct blocks, 37.1 s compute.
//! * cscope3 — four text searches over a 10 MB package: 30,200 reads of
//!   3910 distinct blocks, 74.1 s compute with *bursty* inter-reference
//!   times (runs near 1 ms interleaved with runs near 7 ms, §4.3).
//!
//! Workload structure, pinned down by the paper's appendix fetch counts:
//!
//! * cscope1's fixed-horizon run fetches 4953 blocks ≈ the Belady minimum
//!   for eight cyclic passes over 1073 blocks with a 512-block cache —
//!   symbol search reads the cscope index files once per query.
//! * cscope2's fetches 5966 ≈ the Belady minimum for *four* cyclic passes
//!   over 2462 blocks (cache 1280) even though the trace holds ~8.2
//!   passes' worth of reads — text search touches each source file twice
//!   in quick succession per query (scan + match display), and the
//!   immediate re-read always hits the cache. cscope3 likewise (11739 ≈
//!   four-pass Belady over 3910 blocks).
//! * cscope2/3's ~9.5 ms single-disk fetch times come from a package of
//!   many small source files scattered across cylinder groups, versus
//!   cscope1's few large index files read at near-media rate.

use super::{assemble, file_sizes};
use crate::calibrate::calibrate_counts;
use crate::compute::ComputeDist;
use crate::placement::{FileExtent, GroupPlacer};
use crate::Trace;
use parcache_types::rng::Rng;
use parcache_types::Nanos;

/// Builds a cscope-style trace: `queries` passes over the package's
/// files, each file read `reads_per_file` times in succession.
#[allow(clippy::too_many_arguments)]
fn cscope(
    name: &str,
    reads: usize,
    distinct: usize,
    queries: usize,
    reads_per_file: usize,
    files: Vec<FileExtent>,
    compute: Nanos,
    dist: ComputeDist,
    cache_blocks: usize,
    seed: u64,
) -> Trace {
    let mut blocks = Vec::with_capacity(reads + 4096);
    'outer: loop {
        for _ in 0..queries.max(1) {
            for f in &files {
                for _ in 0..reads_per_file {
                    for off in 0..f.len {
                        blocks.push(f.block(off));
                    }
                }
            }
            if blocks.len() >= reads {
                break 'outer;
            }
        }
    }
    calibrate_counts(&mut blocks, reads, distinct, || {
        unreachable!("full passes cover every distinct block")
    });

    assemble(name, blocks, dist, compute, cache_blocks, seed)
}

/// cscope1: eight symbol searches over the package's index files
/// (compute-bound; large sequential files, one read per query).
pub(crate) fn cscope1(seed: u64) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    let mut placer = GroupPlacer::new(seed ^ 0x5EED);
    let sizes = file_sizes(&mut rng, 1_073, 30, 160);
    let files = placer.place_all(&sizes);
    cscope(
        "cscope1",
        8_673,
        1_073,
        8,
        1,
        files,
        Nanos(24_900_000_000),
        ComputeDist::Jittered {
            mean_ms: 24_900.0 / 8_673.0,
            jitter_frac: 0.3,
        },
        512,
        seed,
    )
}

/// cscope2: four text searches over the package's source files — many
/// small scattered files, each read twice per query.
pub(crate) fn cscope2(seed: u64) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    let mut placer = GroupPlacer::new(seed ^ 0x5EED);
    let sizes = file_sizes(&mut rng, 2_462, 1, 9);
    let files = placer.place_all_scattered(&sizes, 2);
    cscope(
        "cscope2",
        20_206,
        2_462,
        4,
        2,
        files,
        Nanos(37_100_000_000),
        ComputeDist::Jittered {
            mean_ms: 37_100.0 / 20_206.0,
            jitter_frac: 0.3,
        },
        1280,
        seed,
    )
}

/// cscope3: four text searches over a 10 MB package, bursty compute
/// times.
///
/// The short/long mix is chosen so ~1 ms and ~7 ms runs average to the
/// Table 3 mean (74.1 s / 30,200 = 2.45 ms): with levels 1 and 7,
/// the short fraction must be (7 - 2.45)/(7 - 1) ≈ 0.758.
pub(crate) fn cscope3(seed: u64) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    let mut placer = GroupPlacer::new(seed ^ 0x5EED);
    let sizes = file_sizes(&mut rng, 3_910, 1, 9);
    let files = placer.place_all_scattered(&sizes, 2);
    cscope(
        "cscope3",
        30_200,
        3_910,
        4,
        2,
        files,
        Nanos(74_100_000_000),
        ComputeDist::Bursty {
            short_ms: 1.0,
            long_ms: 7.0,
            mean_run_short: 47.0,
            mean_run_long: 15.0,
        },
        1280,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cscope1_matches_table_3() {
        let s = cscope1(1).stats();
        assert_eq!(
            (s.reads, s.distinct_blocks, s.compute),
            (8_673, 1_073, Nanos(24_900_000_000))
        );
    }

    #[test]
    fn cscope2_matches_table_3() {
        let s = cscope2(1).stats();
        assert_eq!(
            (s.reads, s.distinct_blocks, s.compute),
            (20_206, 2_462, Nanos(37_100_000_000))
        );
    }

    #[test]
    fn cscope3_matches_table_3() {
        let s = cscope3(1).stats();
        assert_eq!(
            (s.reads, s.distinct_blocks, s.compute),
            (30_200, 3_910, Nanos(74_100_000_000))
        );
    }

    #[test]
    fn cscope3_compute_is_bursty() {
        let t = cscope3(1);
        // The paper: the fetch/compute ratio varies ~1..8 because compute
        // alternates between ~1ms and ~7ms runs. Verify both levels exist
        // in quantity and that values cluster at the levels.
        let short = t
            .requests
            .iter()
            .filter(|r| r.compute.as_millis_f64() < 2.0)
            .count();
        let long = t
            .requests
            .iter()
            .filter(|r| r.compute.as_millis_f64() > 5.0)
            .count();
        assert!(short > 15_000, "short runs missing: {short}");
        assert!(long > 4_000, "long runs missing: {long}");
        assert!(short + long > 29_000, "levels not crisp");
    }

    #[test]
    fn passes_are_sequential_per_file() {
        let t = cscope1(1);
        // Most consecutive pairs within a pass ascend by exactly one block
        // (file-internal sequentiality).
        let ascending = t
            .requests
            .windows(2)
            .filter(|w| w[1].block.raw() == w[0].block.raw() + 1)
            .count();
        assert!(
            ascending * 10 > t.len() * 8,
            "only {ascending}/{} ascending steps",
            t.len()
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(cscope2(4), cscope2(4));
    }
}
