//! The `xds` trace: 3-D visualization slices.
//!
//! §3.1: "a 3-D data visualization program, XDataSlice, generating 25
//! planar slice images at random orientations from a 64 MB data file."
//! Table 3: 10,435 reads, 5392 distinct blocks, 30.8 s compute.
//!
//! Model: the 64 MB file (8192 blocks) is a 32 x 16 x 16 grid of blocks.
//! Each slice selects the blocks a plane passes through and reads them in
//! file order — producing the strided access patterns that make xds's
//! per-disk load unusually irregular. An interactive user rotates and
//! pans gradually, so successive slice orientations form a random walk:
//! consecutive slices overlap heavily, and those re-reads hit the cache
//! (the paper's fixed-horizon run fetches 5900 blocks over 10,435 reads
//! of 5392 distinct — nearly every block is fetched only once).

use super::assemble;
use crate::calibrate::calibrate_counts;
use crate::compute::ComputeDist;
use crate::placement::GroupPlacer;
use crate::Trace;
use parcache_types::rng::Rng;
use parcache_types::Nanos;
use std::collections::HashSet;

/// Table 3 targets.
pub(crate) const READS: usize = 10_435;
/// Distinct blocks.
pub(crate) const DISTINCT: usize = 5_392;
/// Total compute: 30.8 s.
pub(crate) const COMPUTE: Nanos = Nanos(30_800_000_000);

/// Block-grid dimensions of the visualized volume. Deliberately not
/// powers of two: with a 32 x 16 x 16 grid every axis-aligned slice
/// strides by a multiple of the array size and lands on a single disk of
/// an even-sized array — a striping-aliasing pathology the paper's xds
/// (random orientations over real data) does not exhibit.
const NX: i64 = 31;
const NY: i64 = 17;
const NZ: i64 = 15;
/// Total blocks in the 64 MB data file (the grid occupies the front
/// 31 * 17 * 15 = 7905 blocks; the remainder is header/colormap data).
const FILE_BLOCKS: u64 = 8192;

/// Generates the xds trace.
pub(crate) fn xds(seed: u64) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    // A large dataset written in one pass is laid out contiguously (no
    // rotdelay stride: a global stride would alias against even array
    // sizes under one-block striping and starve half the disks, which
    // the paper's xds does not exhibit).
    let mut placer = GroupPlacer::new(seed ^ 0x5EED);
    let file = placer.place(FILE_BLOCKS);

    let mut blocks = Vec::with_capacity(READS + 1024);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut walk = SliceWalk::new(&mut rng);
    // Keep slicing until we have enough reads; never exceed the distinct
    // target (extra-new blocks within a slice are skipped once reached).
    while blocks.len() < READS {
        for off in walk.next_slice(&mut rng) {
            let is_new = !seen.contains(&off);
            if is_new && seen.len() >= DISTINCT {
                continue;
            }
            seen.insert(off);
            blocks.push(off);
        }
    }
    let mut blocks: Vec<_> = blocks.into_iter().map(|off| file.block(off)).collect();
    let mut unused = (0..FILE_BLOCKS).filter(move |o| !seen.contains(o));
    calibrate_counts(&mut blocks, READS, DISTINCT, || {
        file.block(unused.next().expect("file larger than distinct target"))
    });

    assemble(
        "xds",
        blocks,
        ComputeDist::Jittered {
            mean_ms: COMPUTE.as_millis_f64() / READS as f64,
            jitter_frac: 0.4,
        },
        COMPUTE,
        1280,
        seed,
    )
}

/// A gradually-evolving slice orientation: normal and anchor point walk
/// randomly, so consecutive slices overlap like an interactive session.
struct SliceWalk {
    normal: (f64, f64, f64),
    point: (f64, f64, f64),
}

impl SliceWalk {
    fn new(rng: &mut Rng) -> SliceWalk {
        SliceWalk {
            normal: random_unit(rng),
            point: (
                rng.gen_range(4.0..NX as f64 - 4.0),
                rng.gen_range(2.0..NY as f64 - 2.0),
                rng.gen_range(2.0..NZ as f64 - 2.0),
            ),
        }
    }

    /// Perturbs the orientation slightly and returns the new slice's
    /// block offsets, in file order.
    fn next_slice(&mut self, rng: &mut Rng) -> Vec<u64> {
        let (mut a, mut b, mut c) = self.normal;
        a += rng.gen_range(-0.15..=0.15);
        b += rng.gen_range(-0.15..=0.15);
        c += rng.gen_range(-0.15..=0.15);
        let n = (a * a + b * b + c * c).sqrt();
        if n > 0.1 {
            self.normal = (a / n, b / n, c / n);
        } else {
            self.normal = random_unit(rng);
        }
        let (px, py, pz) = &mut self.point;
        *px = (*px + rng.gen_range(-1.5..=1.5)).clamp(2.0, NX as f64 - 2.0);
        *py = (*py + rng.gen_range(-1.0..=1.0)).clamp(1.0, NY as f64 - 1.0);
        *pz = (*pz + rng.gen_range(-1.0..=1.0)).clamp(1.0, NZ as f64 - 1.0);
        plane_slice(self.normal, self.point)
    }
}

/// A random unit vector (rejection-free, renormalized).
fn random_unit(rng: &mut Rng) -> (f64, f64, f64) {
    loop {
        let a: f64 = rng.gen_range(-1.0..=1.0);
        let b: f64 = rng.gen_range(-1.0..=1.0);
        let c: f64 = rng.gen_range(-1.0..=1.0);
        let n = (a * a + b * b + c * c).sqrt();
        if n > 0.1 {
            return (a / n, b / n, c / n);
        }
    }
}

/// Block offsets the plane through `point` with `normal` passes through,
/// in file order.
fn plane_slice(normal: (f64, f64, f64), point: (f64, f64, f64)) -> Vec<u64> {
    let (a, b, c) = normal;
    let (px, py, pz) = point;
    let d = a * px + b * py + c * pz;
    // One-block-thick slab: |distance| < half the block diagonal reach.
    let half = 0.5 * (a.abs() + b.abs() + c.abs());

    let mut out = Vec::new();
    for z in 0..NZ {
        for y in 0..NY {
            for x in 0..NX {
                let dist = a * x as f64 + b * y as f64 + c * z as f64 - d;
                if dist.abs() <= half {
                    out.push((x + NX * (y + NY * z)) as u64);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table_3() {
        let s = xds(1).stats();
        assert_eq!(
            (s.reads, s.distinct_blocks, s.compute),
            (READS, DISTINCT, COMPUTE)
        );
    }

    #[test]
    fn slices_mix_sequential_and_strided_access() {
        let t = xds(1);
        // Slices perpendicular to the file's fast axis read contiguous
        // runs; other orientations produce strides. Both regimes must be
        // present in quantity — that mix is what makes xds's disk loads
        // irregular.
        let adjacent = t
            .requests
            .windows(2)
            .filter(|w| w[1].block.raw() == w[0].block.raw() + 1)
            .count();
        // (File stride is 1, so in-slice runs step by exactly one block.)
        let strided = t.len() - 1 - adjacent;
        assert!(
            adjacent * 10 > t.len(),
            "{adjacent}/{} adjacent steps — no sequential slices",
            t.len()
        );
        assert!(
            strided * 10 > t.len(),
            "{strided}/{} strided steps — too sequential for xds",
            t.len()
        );
    }

    #[test]
    fn plane_slices_have_reasonable_size() {
        // Individual slices vary a lot (a plane can clip a corner), but
        // every slice is non-trivial and the average is a real
        // cross-section of the 32 x 16 x 16 volume.
        let mut rng = Rng::seed_from_u64(4);
        let mut walk = SliceWalk::new(&mut rng);
        let sizes: Vec<usize> = (0..50).map(|_| walk.next_slice(&mut rng).len()).collect();
        for &s in &sizes {
            assert!((8..4100).contains(&s), "slice of {s} blocks");
        }
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((150.0..1500.0).contains(&mean), "mean slice {mean}");
    }

    #[test]
    fn consecutive_slices_overlap() {
        // The interactive random walk means adjacent slices share many
        // blocks — that is what keeps re-reads cache-resident.
        let mut rng = Rng::seed_from_u64(9);
        let mut walk = SliceWalk::new(&mut rng);
        let mut prev: Option<std::collections::HashSet<u64>> = None;
        let mut overlaps = Vec::new();
        for _ in 0..20 {
            let s: std::collections::HashSet<u64> = walk.next_slice(&mut rng).into_iter().collect();
            if let Some(p) = &prev {
                let inter = s.intersection(p).count();
                overlaps.push(inter as f64 / s.len().max(1) as f64);
            }
            prev = Some(s);
        }
        let mean = overlaps.iter().sum::<f64>() / overlaps.len() as f64;
        assert!(mean > 0.25, "mean consecutive overlap {mean}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(xds(2), xds(2));
    }
}
