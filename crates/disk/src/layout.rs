//! Data placement across the array.
//!
//! The paper stripes data across the array with a one-block stripe unit
//! (§3.2): logical block `b` lives on disk `b mod d` at disk-block
//! `b div d`. File-clustering (placing each file at a random start within a
//! 100-cylinder, 8550-block group) happens at trace-generation time in
//! `parcache-trace`; by the time blocks reach this crate they are plain
//! logical block numbers.

use crate::geometry::SectorSpan;
use parcache_types::{BlockId, DiskId};

/// One-block striping of a logical block space across `disks` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    disks: usize,
}

impl Layout {
    /// Creates a striping layout over `disks` drives.
    ///
    /// # Panics
    ///
    /// Panics if `disks == 0`.
    pub fn striped(disks: usize) -> Layout {
        assert!(disks > 0, "an array needs at least one disk");
        Layout { disks }
    }

    /// Number of drives.
    pub fn disks(&self) -> usize {
        self.disks
    }

    /// The drive holding logical block `block`.
    pub fn disk_of(&self, block: BlockId) -> DiskId {
        DiskId((block.raw() % self.disks as u64) as usize)
    }

    /// The block index *within its drive* for logical block `block`.
    pub fn disk_block_of(&self, block: BlockId) -> u64 {
        block.raw() / self.disks as u64
    }

    /// The physical sector span of logical block `block` on its drive.
    pub(crate) fn span_of(&self, block: BlockId) -> SectorSpan {
        SectorSpan::for_block(self.disk_block_of(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_striping() {
        let l = Layout::striped(3);
        assert_eq!(l.disk_of(BlockId(0)), DiskId(0));
        assert_eq!(l.disk_of(BlockId(1)), DiskId(1));
        assert_eq!(l.disk_of(BlockId(2)), DiskId(2));
        assert_eq!(l.disk_of(BlockId(3)), DiskId(0));
        assert_eq!(l.disk_block_of(BlockId(3)), 1);
        assert_eq!(l.disk_block_of(BlockId(7)), 2);
    }

    #[test]
    fn single_disk_is_identity() {
        let l = Layout::striped(1);
        assert_eq!(l.disk_of(BlockId(41)), DiskId(0));
        assert_eq!(l.disk_block_of(BlockId(41)), 41);
        assert_eq!(l.span_of(BlockId(2)).start, 32);
    }

    #[test]
    fn consecutive_blocks_are_consecutive_on_disk() {
        // With d-way striping, blocks b and b+d are adjacent on one drive —
        // this is what keeps per-disk access sequential for sequential
        // workloads, a property the paper's results depend on.
        let l = Layout::striped(4);
        let a = l.span_of(BlockId(5));
        let b = l.span_of(BlockId(9));
        assert_eq!(l.disk_of(BlockId(5)), l.disk_of(BlockId(9)));
        assert_eq!(b.start, a.end());
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        Layout::striped(0);
    }
}
