//! Physical disk geometry and sector addressing.
//!
//! A drive is a linear space of sectors organized as
//! `cylinders × tracks-per-cylinder × sectors-per-track`. Logical disk
//! blocks map to contiguous sector spans; the geometry decodes a sector
//! number into its cylinder (for seek distances and CSCAN ordering), track,
//! and rotational position.

use parcache_types::SECTORS_PER_BLOCK;

/// A contiguous span of sectors on one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorSpan {
    /// First sector of the span (absolute sector number on the disk).
    pub start: u64,
    /// Number of sectors.
    pub len: u64,
}

impl SectorSpan {
    /// Creates a span covering one 8 KB block starting at `disk_block`.
    pub fn for_block(disk_block: u64) -> SectorSpan {
        SectorSpan {
            start: disk_block * SECTORS_PER_BLOCK,
            len: SECTORS_PER_BLOCK,
        }
    }

    /// One past the last sector of the span.
    pub(crate) fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// The track/cylinder organization of a drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Sectors on each track.
    pub sectors_per_track: u64,
    /// Tracks (surfaces) per cylinder.
    pub tracks_per_cylinder: u64,
    /// Number of cylinders.
    pub cylinders: u64,
}

impl DiskGeometry {
    /// The HP 97560 geometry from Table 1 of the paper.
    pub const HP97560: DiskGeometry = DiskGeometry {
        sectors_per_track: 72,
        tracks_per_cylinder: 19,
        cylinders: 1962,
    };

    /// Sectors per cylinder.
    pub fn sectors_per_cylinder(&self) -> u64 {
        self.sectors_per_track * self.tracks_per_cylinder
    }

    /// Total sectors on the drive.
    #[cfg(test)]
    pub(crate) fn capacity_sectors(&self) -> u64 {
        self.sectors_per_cylinder() * self.cylinders
    }

    /// Total 8 KB blocks the drive can hold.
    #[cfg(test)]
    pub(crate) fn capacity_blocks(&self) -> u64 {
        self.capacity_sectors() / SECTORS_PER_BLOCK
    }

    /// The cylinder containing `sector`.
    pub fn cylinder_of(&self, sector: u64) -> u64 {
        sector / self.sectors_per_cylinder()
    }

    /// The track index within its cylinder containing `sector`.
    pub fn track_of(&self, sector: u64) -> u64 {
        (sector % self.sectors_per_cylinder()) / self.sectors_per_track
    }

    /// The rotational sector index (position around the platter) of `sector`.
    pub fn rotational_index(&self, sector: u64) -> u64 {
        sector % self.sectors_per_track
    }

    /// Number of track boundaries crossed when reading `span` contiguously.
    pub(crate) fn track_crossings(&self, span: &SectorSpan) -> u64 {
        if span.len == 0 {
            return 0;
        }
        let first = span.start / self.sectors_per_track;
        let last = (span.end() - 1) / self.sectors_per_track;
        last - first
    }

    /// Number of cylinder boundaries crossed when reading `span` contiguously.
    pub(crate) fn cylinder_crossings(&self, span: &SectorSpan) -> u64 {
        if span.len == 0 {
            return 0;
        }
        let first = self.cylinder_of(span.start);
        let last = self.cylinder_of(span.end() - 1);
        last - first
    }

    /// First sector of the cylinder *after* the one containing `sector`.
    pub(crate) fn next_cylinder_start(&self, sector: u64) -> u64 {
        (self.cylinder_of(sector) + 1) * self.sectors_per_cylinder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: DiskGeometry = DiskGeometry::HP97560;

    #[test]
    fn hp97560_capacity_matches_paper() {
        // 1962 cyl x 19 trk x 72 sec = 2,684,016 sectors = ~1.3 GB.
        assert_eq!(G.capacity_sectors(), 2_684_016);
        assert_eq!(G.capacity_blocks(), 167_751);
    }

    #[test]
    fn hundred_cylinder_group_is_8550_blocks() {
        // The paper places files within groups of 8550 8 KB blocks and notes
        // those occupy 100 cylinders on the HP 97560.
        let blocks_per_100_cyl = G.sectors_per_cylinder() * 100 / SECTORS_PER_BLOCK;
        assert_eq!(blocks_per_100_cyl, 8550);
    }

    #[test]
    fn sector_decoding() {
        let spc = G.sectors_per_cylinder(); // 1368
        assert_eq!(G.cylinder_of(0), 0);
        assert_eq!(G.cylinder_of(spc - 1), 0);
        assert_eq!(G.cylinder_of(spc), 1);
        assert_eq!(G.track_of(0), 0);
        assert_eq!(G.track_of(72), 1);
        assert_eq!(G.rotational_index(73), 1);
    }

    #[test]
    fn block_spans() {
        let s = SectorSpan::for_block(3);
        assert_eq!(s.start, 48);
        assert_eq!(s.len, 16);
        assert_eq!(s.end(), 64);
    }

    #[test]
    fn crossings() {
        // A block fully inside track 0.
        let inside = SectorSpan { start: 0, len: 16 };
        assert_eq!(G.track_crossings(&inside), 0);
        // A block straddling the track boundary at sector 72.
        let straddle = SectorSpan { start: 64, len: 16 };
        assert_eq!(G.track_crossings(&straddle), 1);
        assert_eq!(G.cylinder_crossings(&straddle), 0);
        // A span straddling a cylinder boundary (sector 1368).
        let cylspan = SectorSpan {
            start: 1360,
            len: 16,
        };
        assert_eq!(G.cylinder_crossings(&cylspan), 1);
    }

    #[test]
    fn next_cylinder_start_is_aligned() {
        assert_eq!(G.next_cylinder_start(0), 1368);
        assert_eq!(G.next_cylinder_start(1367), 1368);
        assert_eq!(G.next_cylinder_start(1368), 2736);
    }

    #[test]
    fn zero_length_span_has_no_crossings() {
        let z = SectorSpan { start: 71, len: 0 };
        assert_eq!(G.track_crossings(&z), 0);
        assert_eq!(G.cylinder_crossings(&z), 0);
    }
}
