//! Shared primitive types for the `parcache` simulator.
//!
//! This crate holds the handful of vocabulary types every other crate speaks:
//! simulated time ([`Nanos`]), logical data blocks ([`BlockId`]), and the
//! block-size constants the paper fixes (8 KB blocks of sixteen 512-byte
//! sectors).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod hash;
pub mod posset;
pub mod rng;
mod time;

pub use bitset::BitSet;
pub use hash::FastMap;
pub use posset::PosSet;
pub use time::Nanos;

/// Size of one data block in bytes (the paper uses 8 KB file blocks).
const BLOCK_SIZE: u64 = 8 * 1024;

/// Size of one disk sector in bytes (HP 97560: 512 bytes).
const SECTOR_SIZE: u64 = 512;

/// Number of sectors occupied by one data block.
pub const SECTORS_PER_BLOCK: u64 = BLOCK_SIZE / SECTOR_SIZE;

/// Identifier of a logical data block.
///
/// Logical blocks are the unit of caching, prefetching, and striping. The
/// mapping from a logical block to a physical position on a particular disk
/// is the job of `parcache-disk`'s layout module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl BlockId {
    /// Returns the raw block number.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of a disk within an array (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiskId(pub usize);

impl DiskId {
    /// Returns the raw disk index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for DiskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_constants_are_consistent() {
        assert_eq!(SECTORS_PER_BLOCK, 16);
        assert_eq!(SECTORS_PER_BLOCK * SECTOR_SIZE, BLOCK_SIZE);
    }

    #[test]
    fn block_id_display_and_order() {
        assert_eq!(BlockId(7).to_string(), "b7");
        assert!(BlockId(1) < BlockId(2));
        assert_eq!(BlockId(3).raw(), 3);
    }

    #[test]
    fn disk_id_display_and_index() {
        assert_eq!(DiskId(2).to_string(), "d2");
        assert_eq!(DiskId(5).index(), 5);
    }
}
