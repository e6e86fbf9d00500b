//! File placement into cylinder groups.
//!
//! §3.2 of the paper: traces that name blocks by (file, offset) have each
//! file placed at a random starting point within a group of 8550 8 KB
//! blocks (100 cylinders on the HP 97560), "corresponding to typical file
//! system clustering mechanisms". Placement here is injective — two file
//! blocks never alias to the same logical block — which the paper's real
//! filesystem guarantees implicitly.

use parcache_types::rng::Rng;
use parcache_types::BlockId;

/// Blocks per cylinder group: 100 cylinders of the HP 97560.
///
/// Kept numerically in sync with the disk crate's geometry by a test there
/// (`hundred_cylinder_group_is_8550_blocks`).
pub const GROUP_BLOCKS: u64 = 8550;

/// Number of groups used for placement. 19 groups of 8550 blocks fit
/// within a single HP 97560 (167,751 blocks), the binding case (one disk).
pub const GROUPS: u64 = 19;

/// Assigns files to starting logical blocks within cylinder groups.
#[derive(Debug)]
pub struct GroupPlacer {
    rng: Rng,
    /// Next free offset within each group.
    free: Vec<u64>,
    /// Next group to try, for round-robin spreading.
    cursor: usize,
}

/// A placed file: a (possibly strided) run of logical blocks.
///
/// A stride of 1 is a contiguous extent. A stride of 2 models mid-90s
/// FFS "rotdelay" allocation, where logically consecutive file blocks are
/// physically separated by a gap so the CPU of the era could keep up with
/// the rotation — the reason per-block access to a file cost close to a
/// full rotation rather than streaming at media rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileExtent {
    /// First logical block of the file.
    pub start: BlockId,
    /// Length in blocks.
    pub len: u64,
    /// Spacing between consecutive file blocks.
    pub stride: u64,
}

impl FileExtent {
    /// The logical block at `offset` within the file.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len` — an out-of-range file offset is a bug in
    /// the trace generator.
    pub fn block(&self, offset: u64) -> BlockId {
        assert!(
            offset < self.len,
            "offset {offset} beyond file of {} blocks",
            self.len
        );
        BlockId(self.start.raw() + offset * self.stride)
    }
}

impl GroupPlacer {
    /// Creates a placer with a deterministic seed.
    pub fn new(seed: u64) -> GroupPlacer {
        GroupPlacer {
            rng: Rng::seed_from_u64(seed),
            free: vec![0; GROUPS as usize],
            cursor: 0,
        }
    }

    /// Places a file of `len` blocks: picks the next group (round-robin)
    /// with room, at a small random gap past the group's previous file —
    /// random placement within the group, clustered like a real FFS.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot fit in any group (trace generators stay
    /// far below this limit).
    pub(crate) fn place(&mut self, len: u64) -> FileExtent {
        self.place_strided(len, 1)
    }

    /// Like `place`, with a block stride: a stride
    /// of 2 interleaves the file with a one-block gap, modeling FFS
    /// rotdelay allocation.
    ///
    /// # Panics
    ///
    /// Panics if the (strided) file cannot fit in any group.
    pub fn place_strided(&mut self, len: u64, stride: u64) -> FileExtent {
        assert!(stride >= 1, "stride must be at least 1");
        let span = (len - 1) * stride + 1;
        assert!(
            len > 0 && span <= GROUP_BLOCKS,
            "file of {len} blocks (stride {stride}) cannot be placed"
        );
        for _ in 0..self.free.len() {
            let g = self.cursor;
            self.cursor = (self.cursor + 1) % self.free.len();
            let used = self.free[g];
            let remaining = GROUP_BLOCKS - used;
            if remaining < span {
                continue;
            }
            // Random gap before the file, bounded so the file still fits.
            let slack = remaining - span;
            let gap = if slack == 0 {
                0
            } else {
                self.rng.gen_range(0..=slack.min(64))
            };
            let start = g as u64 * GROUP_BLOCKS + used + gap;
            self.free[g] = used + gap + span;
            return FileExtent {
                start: BlockId(start),
                len,
                stride,
            };
        }
        panic!("no group has room for a file of {len} blocks (stride {stride})");
    }

    /// Places a run of files of the given sizes.
    pub(crate) fn place_all(&mut self, sizes: &[u64]) -> Vec<FileExtent> {
        sizes.iter().map(|&s| self.place(s)).collect()
    }

    /// Like [`place_strided`](GroupPlacer::place_strided), but into a
    /// *random* group instead of the round-robin next one — models a
    /// package of files accreted over time and scattered across the
    /// filesystem's cylinder groups (used by the small-file app traces).
    pub(crate) fn place_scattered(&mut self, len: u64, stride: u64) -> FileExtent {
        // Jump the round-robin cursor to a random group, then reuse the
        // ordinary placement path (which scans forward on overflow).
        self.cursor = self.rng.gen_range(0..self.free.len());
        self.place_strided(len, stride)
    }

    /// Places a run of files of the given sizes into random groups, with
    /// the given block stride.
    pub fn place_all_scattered(&mut self, sizes: &[u64], stride: u64) -> Vec<FileExtent> {
        sizes
            .iter()
            .map(|&s| self.place_scattered(s, stride))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn placement_is_injective() {
        let mut p = GroupPlacer::new(1);
        let files = p.place_all(&[100, 200, 50, 400, 8000, 300]);
        let mut seen = HashSet::new();
        for f in &files {
            for off in 0..f.len {
                assert!(seen.insert(f.block(off)), "aliased block in {f:?}");
            }
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let a = GroupPlacer::new(7).place_all(&[10, 20, 30]);
        let b = GroupPlacer::new(7).place_all(&[10, 20, 30]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GroupPlacer::new(1).place(100);
        let b = GroupPlacer::new(2).place(100);
        // Starts may coincide by chance for one file, but gaps are random;
        // placing several files should diverge.
        let mut pa = GroupPlacer::new(1);
        let mut pb = GroupPlacer::new(2);
        let fa = pa.place_all(&[100, 100, 100, 100]);
        let fb = pb.place_all(&[100, 100, 100, 100]);
        assert!(a == a && b == b);
        assert_ne!(fa, fb);
    }

    #[test]
    fn files_stay_within_their_group() {
        let mut p = GroupPlacer::new(3);
        for _ in 0..30 {
            let f = p.place(500);
            let g_start = f.start.raw() / GROUP_BLOCKS;
            let g_end = (f.start.raw() + f.len - 1) / GROUP_BLOCKS;
            assert_eq!(g_start, g_end, "file crosses a group boundary");
        }
    }

    #[test]
    fn placement_fits_one_disk() {
        let mut p = GroupPlacer::new(4);
        let files = p.place_all(&vec![100; 200]);
        let max = files.iter().map(|f| f.start.raw() + f.len).max().unwrap();
        assert!(max <= GROUPS * GROUP_BLOCKS);
        // 19 groups of 8550 fit in the HP 97560's 167,751 blocks.
        const { assert!(GROUPS * GROUP_BLOCKS <= 167_751) };
    }

    #[test]
    #[should_panic(expected = "cannot be placed")]
    fn oversized_file_rejected() {
        GroupPlacer::new(0).place(GROUP_BLOCKS + 1);
    }

    #[test]
    #[should_panic(expected = "beyond file")]
    fn out_of_range_offset_panics() {
        let mut p = GroupPlacer::new(0);
        let f = p.place(10);
        f.block(10);
    }
}
