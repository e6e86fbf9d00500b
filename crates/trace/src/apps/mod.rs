//! Synthetic generators for the paper's nine application traces.
//!
//! Each generator reproduces the exact Table 3 statistics (reads, distinct
//! blocks, total compute time) and the qualitative access structure §3.1
//! describes. See each submodule for the per-application model.

pub(crate) mod cscope;
pub(crate) mod dinero;
pub(crate) mod glimpse;
pub(crate) mod ld;
pub(crate) mod postgres;
pub(crate) mod xds;

use crate::compute::{calibrate_total, ComputeDist, ComputeSampler};
use crate::{Request, Trace};
use parcache_types::rng::Rng;
use parcache_types::{BlockId, Nanos};

/// Draws per-reference compute times from `dist`, calibrates their total
/// to exactly `total_compute`, and zips them with `blocks` into a trace.
pub(crate) fn assemble(
    name: &str,
    blocks: Vec<BlockId>,
    dist: ComputeDist,
    total_compute: Nanos,
    cache_blocks: usize,
    seed: u64,
) -> Trace {
    let mut rng = Rng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut sampler = ComputeSampler::new(dist);
    let mut requests: Vec<Request> = blocks
        .into_iter()
        .map(|block| Request {
            block,
            compute: sampler.sample(&mut rng),
        })
        .collect();
    calibrate_total(&mut requests, total_compute);
    Trace::new(name, requests, cache_blocks)
}

/// Random file sizes (in blocks) in `[min, max]` summing exactly to
/// `total`. The final file takes the remainder.
pub(crate) fn file_sizes(rng: &mut Rng, total: u64, min: u64, max: u64) -> Vec<u64> {
    assert!(min >= 1 && min <= max && total >= 1);
    let mut sizes = Vec::new();
    let mut left = total;
    while left > 0 {
        let s = if left <= max {
            left
        } else {
            let s = rng.gen_range(min..=max);
            // Never strand a remainder smaller than `min`.
            if left - s < min {
                left
            } else {
                s
            }
        };
        sizes.push(s);
        left -= s;
    }
    sizes
}

/// Appends a full sequential read of every file in `files` to `out`.
pub(crate) fn sequential_pass(out: &mut Vec<BlockId>, files: &[crate::placement::FileExtent]) {
    for f in files {
        for off in 0..f.len {
            out.push(f.block(off));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_sizes_sum_exactly() {
        let mut rng = Rng::seed_from_u64(5);
        for total in [10u64, 137, 1073, 4947] {
            let sizes = file_sizes(&mut rng, total, 4, 80);
            assert_eq!(sizes.iter().sum::<u64>(), total);
            // All but possibly the last respect the minimum.
            for &s in &sizes {
                assert!(s >= 1);
            }
        }
    }

    #[test]
    fn assemble_produces_exact_compute_total() {
        let blocks = vec![BlockId(1), BlockId(2), BlockId(3)];
        let t = assemble(
            "x",
            blocks,
            ComputeDist::Jittered {
                mean_ms: 2.0,
                jitter_frac: 0.1,
            },
            Nanos::from_millis(100),
            512,
            1,
        );
        assert_eq!(t.stats().compute, Nanos::from_millis(100));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn sequential_pass_lists_every_block_in_order() {
        let mut p = crate::placement::GroupPlacer::new(1);
        let files = p.place_all(&[3, 2]);
        let mut out = Vec::new();
        sequential_pass(&mut out, &files);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], files[0].block(0));
        assert_eq!(out[2], files[0].block(2));
        assert_eq!(out[3], files[1].block(0));
    }
}
