//! A coarse second-opinion drive model for cross-validation.
//!
//! The paper validated its results across two independently written
//! simulators: UW's detailed HP 97560 model and CMU's RaidSim configured
//! for IBM 0661 "Lightning" drives, and reported that the remaining
//! differences between the two were consistent with the differences in the
//! disk models (Table 2). This module plays the RaidSim role: an
//! independently parameterized, deliberately coarser model — linear seek
//! curve, constant average rotational latency, a simple sequential-access
//! fast path instead of a readahead cache — with Lightning-like mechanics
//! scaled to the HP's capacity so the same traces fit both drives.

use crate::geometry::{DiskGeometry, SectorSpan};
use crate::model::DiskModel;
use parcache_types::Nanos;

/// Lightning-like geometry, scaled in cylinder count so the drive holds at
/// least as many blocks as the HP 97560 (traces are placed once and must
/// fit either drive).
const GEOMETRY: DiskGeometry = DiskGeometry {
    sectors_per_track: 48,
    tracks_per_cylinder: 14,
    cylinders: 4000,
};

/// Fixed per-request overhead (controller + command processing).
const OVERHEAD: Nanos = Nanos::from_micros(700);

/// Constant rotational latency: half a 4316 rpm rotation.
const HALF_ROTATION: Nanos = Nanos::from_micros(6_950);

/// Media time per sector (13.9 ms rotation / 48 sectors).
const SECTOR_TIME: Nanos = Nanos(289_583);

/// Linear seek curve parameters (milliseconds).
const SEEK_BASE_MS: f64 = 1.8;
const SEEK_PER_CYL_MS: f64 = 0.0065;

/// The coarse drive model.
#[derive(Debug, Clone)]
pub struct CoarseDisk {
    head_cylinder: u64,
    /// End sector of the previous read, for the sequential fast path.
    prev_end: Option<u64>,
}

impl Default for CoarseDisk {
    fn default() -> CoarseDisk {
        CoarseDisk::new()
    }
}

impl CoarseDisk {
    /// Creates a drive with the head at cylinder 0.
    pub fn new() -> CoarseDisk {
        CoarseDisk {
            head_cylinder: 0,
            prev_end: None,
        }
    }

    fn seek_time(&self, distance: u64) -> Nanos {
        if distance == 0 {
            Nanos::ZERO
        } else {
            Nanos::from_millis_f64(SEEK_BASE_MS + SEEK_PER_CYL_MS * distance as f64)
        }
    }
}

impl DiskModel for CoarseDisk {
    fn service(&mut self, now: Nanos, span: &SectorSpan) -> Nanos {
        if span.len == 0 {
            return now;
        }
        let transfer = SECTOR_TIME * span.len;
        let done = if self.prev_end == Some(span.start) {
            // Sequential continuation: media streaming, no repositioning.
            now + OVERHEAD + transfer
        } else {
            let target = GEOMETRY.cylinder_of(span.start);
            let seek = self.seek_time(target.abs_diff(self.head_cylinder));
            now + OVERHEAD + seek + HALF_ROTATION + transfer
        };
        self.head_cylinder = GEOMETRY.cylinder_of(span.end() - 1);
        self.prev_end = Some(span.end());
        done
    }

    fn cylinder_of(&self, sector: u64) -> u64 {
        GEOMETRY.cylinder_of(sector)
    }

    fn head_cylinder(&self) -> u64 {
        self.head_cylinder
    }

    fn name(&self) -> &'static str {
        "coarse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_covers_hp97560() {
        assert!(GEOMETRY.capacity_blocks() >= DiskGeometry::HP97560.capacity_blocks());
    }

    #[test]
    fn sequential_fast_path() {
        let mut d = CoarseDisk::new();
        let t1 = d.service(Nanos::ZERO, &SectorSpan { start: 0, len: 16 });
        let t2 = d.service(t1, &SectorSpan { start: 16, len: 16 });
        let seq_service = t2 - t1;
        assert_eq!(seq_service, OVERHEAD + SECTOR_TIME * 16);
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let mut d = CoarseDisk::new();
        let far = SectorSpan {
            start: 2000 * GEOMETRY.sectors_per_cylinder(),
            len: 16,
        };
        let t = d.service(Nanos::ZERO, &far);
        let expected = OVERHEAD + d.seek_time(2000) + HALF_ROTATION + SECTOR_TIME * 16;
        assert_eq!(t, expected);
        assert_eq!(d.head_cylinder(), 2000);
    }

    #[test]
    fn average_random_time_is_comparable_to_hp() {
        use parcache_types::rng::Rng;
        let mut d = CoarseDisk::new();
        let mut rng = Rng::seed_from_u64(3);
        let mut now = Nanos::ZERO;
        let mut total = Nanos::ZERO;
        let n = 1000;
        for _ in 0..n {
            let b = rng.gen_range(0..GEOMETRY.capacity_blocks());
            let span = SectorSpan::for_block(b);
            let done = d.service(now, &span);
            total += done - now;
            now = done;
        }
        let avg = total.as_millis_f64() / n as f64;
        assert!((15.0..30.0).contains(&avg), "avg {avg:.2} ms");
    }
}
