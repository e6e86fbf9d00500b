//! The `synth` trace: repeated sequential passes over a block loop.
//!
//! §3.1: "a synthetic trace synth containing 50 passes through a loop of
//! 2000 sequential blocks. Compute times between read requests were
//! generated according to a Poisson distribution with a 1 ms mean." The
//! trace names blocks by logical filesystem block number, so the loop sits
//! at the start of the logical block space.

use crate::compute::{calibrate_total, ComputeDist, ComputeSampler};
use crate::{Request, Trace};
use parcache_types::rng::Rng;
use parcache_types::{BlockId, Nanos};

/// Total compute time of the full-size trace (Table 3: 99.9 s).
const TABLE3_COMPUTE: Nanos = Nanos(99_900_000_000);

/// Builds a synth-style trace of `passes` passes over `loop_blocks`
/// sequential blocks, with exponential ~1 ms compute times.
///
/// `synth_trace(50, 2000, seed)` is the paper's trace; smaller values make
/// convenient test workloads.
pub fn synth_trace(passes: usize, loop_blocks: usize, seed: u64) -> Trace {
    assert!(passes > 0 && loop_blocks > 0);
    let mut rng = Rng::seed_from_u64(seed);
    let mut sampler = ComputeSampler::new(ComputeDist::Exponential { mean_ms: 1.0 });
    let n = passes * loop_blocks;
    let mut requests: Vec<Request> = (0..n)
        .map(|i| Request {
            block: BlockId((i % loop_blocks) as u64),
            compute: sampler.sample(&mut rng),
        })
        .collect();
    // Scale the total so the full-size trace matches Table 3 exactly; the
    // per-reference mean stays ~1 ms at any size.
    let target = Nanos(TABLE3_COMPUTE.as_nanos() * n as u64 / 100_000);
    calibrate_total(&mut requests, target);
    Trace::new("synth", requests, 1280)
}

/// The paper's synth trace: 50 passes over 2000 blocks.
pub(crate) fn paper_synth(seed: u64) -> Trace {
    synth_trace(50, 2000, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table_3() {
        let t = paper_synth(42);
        let s = t.stats();
        assert_eq!(s.reads, 100_000);
        assert_eq!(s.distinct_blocks, 2_000);
        assert_eq!(s.compute, TABLE3_COMPUTE);
    }

    #[test]
    fn blocks_cycle_sequentially() {
        let t = synth_trace(3, 5, 1);
        let blocks: Vec<u64> = t.requests.iter().map(|r| r.block.raw()).collect();
        assert_eq!(blocks, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(synth_trace(2, 10, 9), synth_trace(2, 10, 9));
        assert_ne!(
            synth_trace(2, 10, 9).requests[0].compute,
            synth_trace(2, 10, 10).requests[0].compute
        );
    }

    #[test]
    fn mean_compute_is_about_one_ms() {
        let t = synth_trace(5, 1000, 3);
        let mean = t.mean_compute().as_millis_f64();
        assert!((0.9..1.1).contains(&mean), "mean {mean}");
    }
}
