//! The `dinero` trace: a cache simulator re-reading one input file.
//!
//! §3.1: "a cache simulator written by Mark Hill. This application reads
//! one file sequentially multiple times." Table 3: 8867 reads, 986
//! distinct blocks, 103.5 s of compute. That is eight full sequential
//! passes plus a ninth partial pass, with long (~11.7 ms) per-reference
//! compute times — a compute-bound workload.

use super::assemble;
use crate::compute::ComputeDist;
use crate::placement::GroupPlacer;
use crate::Trace;
use parcache_types::Nanos;

/// Table 3 targets.
pub(crate) const READS: usize = 8_867;
/// Distinct blocks (the input file's size).
pub(crate) const DISTINCT: usize = 986;
/// Total compute time: 103.5 s.
pub(crate) const COMPUTE: Nanos = Nanos(103_500_000_000);

/// Generates the dinero trace.
pub(crate) fn dinero(seed: u64) -> Trace {
    let mut placer = GroupPlacer::new(seed);
    let file = placer.place(DISTINCT as u64);

    let mut blocks = Vec::with_capacity(READS);
    while blocks.len() < READS {
        let remaining = READS - blocks.len();
        for off in 0..(DISTINCT.min(remaining) as u64) {
            blocks.push(file.block(off));
        }
    }
    debug_assert_eq!(blocks.len(), READS);

    assemble(
        "dinero",
        blocks,
        ComputeDist::Jittered {
            mean_ms: COMPUTE.as_millis_f64() / READS as f64,
            jitter_frac: 0.15,
        },
        COMPUTE,
        512,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table_3() {
        let t = dinero(1);
        let s = t.stats();
        assert_eq!(s.reads, READS);
        assert_eq!(s.distinct_blocks, DISTINCT);
        assert_eq!(s.compute, COMPUTE);
        assert_eq!(t.cache_blocks, 512);
    }

    #[test]
    fn access_is_repeated_sequential() {
        let t = dinero(1);
        let first = t.requests[0].block;
        // The pass restarts at the file start every DISTINCT reads.
        assert_eq!(t.requests[DISTINCT].block, first);
        assert_eq!(t.requests[2 * DISTINCT].block, first);
        // Within a pass, blocks ascend by one.
        assert_eq!(t.requests[1].block.raw(), first.raw() + 1);
    }

    #[test]
    fn deterministic() {
        assert_eq!(dinero(9), dinero(9));
    }
}
