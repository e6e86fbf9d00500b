//! The `ld` trace: the Ultrix link-editor building a kernel.
//!
//! §3.1: "the Ultrix link-editor, building the Ultrix 4.3 kernel from
//! about 25 MB of object files." Table 3: 5881 reads, 2882 distinct
//! blocks, 8.2 s compute — a strongly I/O-bound workload (1.4 ms mean
//! compute).
//!
//! Model: ~170 object files, processed one at a time with strong per-file
//! locality — the linker reads a file's header, then its full contents,
//! then re-reads most of it while relocating, before moving on. The
//! paper's fixed-horizon fetch count (2904 ≈ the 2882 distinct blocks)
//! shows that virtually every re-read hits the cache, which only
//! per-file locality can achieve given a working set twice the cache.

use super::{assemble, file_sizes};
use crate::calibrate::calibrate_counts;
use crate::compute::ComputeDist;
use crate::placement::GroupPlacer;
use crate::Trace;
use parcache_types::rng::Rng;
use parcache_types::Nanos;

/// Table 3 targets.
pub(crate) const READS: usize = 5_881;
/// Distinct blocks (~25 MB of object files).
pub(crate) const DISTINCT: usize = 2_882;
/// Total compute: 8.2 s.
pub(crate) const COMPUTE: Nanos = Nanos(8_200_000_000);

/// Generates the ld trace.
pub(crate) fn ld(seed: u64) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    let mut placer = GroupPlacer::new(seed ^ 0x5EED);
    // Several hundred small object files (a mid-90s kernel build tree),
    // scattered across cylinder groups with FFS rotdelay interleaving.
    let sizes = file_sizes(&mut rng, DISTINCT as u64, 2, 16);
    let files = placer.place_all_scattered(&sizes, 2);

    let mut blocks = Vec::with_capacity(READS + 512);
    // Per-file processing: header, full contents, then a relocation
    // re-read of most of the file — all before the next file.
    for f in &files {
        blocks.push(f.block(0)); // symbol table / header
        for off in 0..f.len {
            blocks.push(f.block(off));
        }
        let reread = (f.len as f64 * 0.98).round() as u64;
        for off in 0..reread.min(f.len) {
            blocks.push(f.block(off));
        }
    }
    calibrate_counts(&mut blocks, READS, DISTINCT, || {
        unreachable!("the full pass covers every block")
    });

    assemble(
        "ld",
        blocks,
        ComputeDist::Jittered {
            mean_ms: COMPUTE.as_millis_f64() / READS as f64,
            jitter_frac: 0.3,
        },
        COMPUTE,
        1280,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table_3() {
        let s = ld(1).stats();
        assert_eq!(
            (s.reads, s.distinct_blocks, s.compute),
            (READS, DISTINCT, COMPUTE)
        );
    }

    #[test]
    fn is_io_bound() {
        // 8.2s compute over 5881 reads: ~1.4 ms mean, far below a disk
        // access time — the paper's I/O-bound end of the spectrum.
        let mean = ld(1).mean_compute().as_millis_f64();
        assert!((1.0..2.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn headers_are_reread() {
        let t = ld(1);
        let mut counts = std::collections::HashMap::new();
        for r in &t.requests {
            *counts.entry(r.block).or_insert(0usize) += 1;
        }
        // Header blocks (read in passes 1, 2, and 3) appear at least 3x.
        let multi = counts.values().filter(|&&c| c >= 3).count();
        assert!(multi >= 100, "only {multi} blocks read 3+ times");
    }

    #[test]
    fn deterministic() {
        assert_eq!(ld(2), ld(2));
    }
}
