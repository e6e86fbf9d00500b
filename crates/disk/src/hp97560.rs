//! A detailed service-time model of the HP 97560 disk drive.
//!
//! This reproduces, in Rust, the behavior the paper obtains from the Kotz
//! et al. simulator (itself based on Ruemmler & Wilkes): the Table 1
//! geometry, the published seek curve, rotational-position tracking on the
//! absolute simulation clock, sector-granularity media transfer, a 10 MB/s
//! SCSI bus, and a 128 KB readahead cache that keeps reading sequentially
//! past each mechanical access.
//!
//! Approximations relative to a cycle-accurate drive model, all documented
//! here because they bound what conclusions the simulator supports:
//!
//! * Tracks are angularly aligned and track skew is ideal: a multi-track
//!   media transfer pays a fixed head-switch (and cylinder-switch) penalty
//!   instead of re-synchronizing rotation.
//! * The readahead fill never stalls on a full buffer; instead the *hit
//!   window* is bounded to the buffer capacity ahead of the last consumed
//!   sector.
//! * Bus transfer overlaps media transfer on mechanical reads (the bus is
//!   4x faster than the media), so mechanical completion time is the media
//!   completion time.
//!
//! The tests validate the model against the figures the paper itself
//! quotes: ~22.8 ms average for random 8 KB accesses, 3-4 ms for sequential
//! runs, and a 7.24 ms maximum seek within a 100-cylinder group.

use crate::geometry::{DiskGeometry, SectorSpan};
use crate::model::DiskModel;
use crate::seek::SeekCurve;
use parcache_types::Nanos;

/// Time to read one sector off the media.
///
/// 4002 rpm gives a 14.99 ms rotation; with 72 sectors per track each
/// sector takes ~208.2 us under the head.
const SECTOR_TIME: Nanos = Nanos(208_229);

/// One full platter rotation (72 sector times, kept exactly consistent with
/// [`SECTOR_TIME`] so rotational arithmetic never drifts).
const ROTATION: Nanos = Nanos(SECTOR_TIME.0 * 72);

/// Fixed per-request controller/command overhead on the drive.
const CONTROLLER_OVERHEAD: Nanos = Nanos::from_micros(500);

/// Time to switch heads at a track boundary during a contiguous transfer.
const HEAD_SWITCH: Nanos = Nanos::from_micros(1_000);

/// Time to step to the adjacent cylinder during a contiguous transfer.
const CYLINDER_SWITCH: Nanos = Nanos::from_micros(2_000);

/// SCSI-II bus transfer time per sector: 512 bytes at 10 MB/s.
const BUS_SECTOR_TIME: Nanos = Nanos(51_200);

/// Readahead cache capacity in sectors (128 KB of 512-byte sectors).
const READAHEAD_SECTORS: u64 = 256;

/// Sequential readahead state: after a mechanical read the drive keeps
/// reading forward into its buffer until the end of the cylinder.
///
/// The fill's progress is tracked explicitly (`frontier` as of
/// `frontier_time`) rather than derived from the run's start, so a fill
/// that pauses — the buffer full, waiting for the host to consume — loses
/// real time. Back-dating the fill as if it had run continuously reported
/// sectors available before the media could have delivered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Readahead {
    /// Sector where the current fill run began (end of the mechanical
    /// read); the cylinder-end stop is fixed by this.
    origin: u64,
    /// Next sector the fill will read: sectors in
    /// `consumed_to..frontier` are buffered.
    frontier: u64,
    /// Fill progress timestamp: the frontier sector starts reading at
    /// `frontier_time` (or later, if the fill is paused).
    frontier_time: Nanos,
    /// Oldest still-buffered sector; earlier sectors have been discarded.
    consumed_to: u64,
}

impl Readahead {
    /// Advances the fill to `now` at media rate, stopping at the buffer
    /// capacity and the cylinder end. A fill that hits a stop pauses:
    /// its clock moves to `now` so no retroactive progress is credited
    /// once the stop lifts.
    fn advance(&mut self, now: Nanos, geometry: &DiskGeometry) {
        if now <= self.frontier_time {
            return;
        }
        let stop = self.stop(geometry);
        if self.frontier >= stop {
            // Already paused: the fill marks time until capacity frees.
            self.frontier_time = now;
            return;
        }
        let elapsed = now - self.frontier_time;
        let filled = elapsed.as_nanos() / SECTOR_TIME.as_nanos();
        if self.frontier + filled >= stop {
            self.frontier = stop;
            self.frontier_time = now;
        } else {
            self.frontier += filled;
            // Keep the sub-sector remainder: the frontier sector is
            // mid-read.
            self.frontier_time += SECTOR_TIME * filled;
        }
    }

    /// The sector (exclusive) at which the fill currently stops: buffer
    /// capacity ahead of the consumption point, or the cylinder end.
    fn stop(&self, geometry: &DiskGeometry) -> u64 {
        let by_capacity = self.consumed_to + READAHEAD_SECTORS;
        let by_cylinder = geometry.next_cylinder_start(self.origin);
        by_capacity.min(by_cylinder)
    }

    /// The latest sector (exclusive) this fill run can ever deliver.
    fn limit(&self, geometry: &DiskGeometry) -> u64 {
        self.stop(geometry)
    }

    /// When sector `upto` (exclusive) will have been buffered, given the
    /// fill keeps running from its current progress point.
    fn available_at(&self, upto: u64) -> Nanos {
        self.frontier_time + SECTOR_TIME * upto.saturating_sub(self.frontier)
    }
}

/// The HP 97560 drive model.
#[derive(Debug, Clone)]
pub struct Hp97560 {
    geometry: DiskGeometry,
    seek: SeekCurve,
    head_cylinder: u64,
    readahead: Option<Readahead>,
    readahead_enabled: bool,
    stats: ModelStats,
}

/// Internal service-mix counters, exposed for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ModelStats {
    /// Requests served entirely from the readahead buffer.
    pub buffer_hits: u64,
    /// Requests that waited for the in-progress readahead fill.
    pub buffer_waits: u64,
    /// Requests that required a mechanical (seek + rotate) access.
    pub mechanical: u64,
}

impl Default for Hp97560 {
    fn default() -> Hp97560 {
        Hp97560::new()
    }
}

impl Hp97560 {
    /// Creates a drive with the paper's Table 1 geometry, head at cylinder 0.
    pub fn new() -> Hp97560 {
        Hp97560 {
            geometry: DiskGeometry::HP97560,
            seek: SeekCurve::HP97560,
            head_cylinder: 0,
            readahead: None,
            readahead_enabled: true,
            stats: ModelStats::default(),
        }
    }

    /// Creates a drive with the readahead cache disabled — every access
    /// is mechanical. Ablation: quantifies how much of the drive's
    /// sequential performance the 128 KB cache provides.
    pub fn without_readahead() -> Hp97560 {
        Hp97560 {
            readahead_enabled: false,
            ..Hp97560::new()
        }
    }

    /// The drive geometry.
    #[cfg(test)]
    pub(crate) fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// Service-mix counters accumulated since construction.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> ModelStats {
        self.stats
    }

    /// Completion time of a full mechanical access started at `now`:
    /// controller overhead, seek, rotational latency, then media transfer
    /// with track/cylinder switch penalties. Pure — state is committed by
    /// the caller once the mechanical path is chosen.
    fn mechanical_completion(&self, now: Nanos, span: &SectorSpan) -> Nanos {
        let target_cyl = self.geometry.cylinder_of(span.start);
        let distance = target_cyl.abs_diff(self.head_cylinder);
        let after_seek = now + CONTROLLER_OVERHEAD + self.seek.seek_time(distance);

        // Rotational latency: wait for the target sector's angular position.
        let target_angle = SECTOR_TIME * self.geometry.rotational_index(span.start);
        let current_angle = Nanos(after_seek.as_nanos() % ROTATION.as_nanos());
        let rot_wait =
            Nanos((target_angle + ROTATION - current_angle).as_nanos() % ROTATION.as_nanos());

        let media = SECTOR_TIME * span.len
            + HEAD_SWITCH * self.geometry.track_crossings(span)
            + CYLINDER_SWITCH * self.geometry.cylinder_crossings(span);
        after_seek + rot_wait + media
    }

    /// Commits a mechanical access ending at `done`.
    fn commit_mechanical(&mut self, span: &SectorSpan, done: Nanos) {
        self.stats.mechanical += 1;
        self.head_cylinder = self.geometry.cylinder_of(span.end() - 1);
        self.readahead = self.readahead_enabled.then_some(Readahead {
            origin: span.end(),
            frontier: span.end(),
            frontier_time: done,
            consumed_to: span.end(),
        });
    }
}

impl DiskModel for Hp97560 {
    fn service(&mut self, now: Nanos, span: &SectorSpan) -> Nanos {
        if span.len == 0 {
            return now;
        }
        let mech_done = self.mechanical_completion(now, span);
        if let Some(ra) = self.readahead.as_mut() {
            ra.advance(now, &self.geometry);
        }
        if let Some(ra) = self.readahead {
            let within = span.start >= ra.consumed_to && span.end() <= ra.limit(&self.geometry);
            if within {
                let paused_for_capacity = ra.frontier == ra.consumed_to + READAHEAD_SECTORS
                    && ra.frontier < self.geometry.next_cylinder_start(ra.origin);
                let (hit, data_ready) = if span.end() <= ra.frontier {
                    (true, now)
                } else {
                    (false, ra.available_at(span.end()))
                };
                let done = data_ready.max(now + CONTROLLER_OVERHEAD) + BUS_SECTOR_TIME * span.len;
                // Firmware aborts the readahead when seeking is faster
                // than waiting for the fill to reach the data.
                if done <= mech_done {
                    if hit {
                        self.stats.buffer_hits += 1;
                    } else {
                        self.stats.buffer_waits += 1;
                    }
                    self.head_cylinder = self.geometry.cylinder_of(span.end() - 1);
                    let mut ra = ra;
                    ra.consumed_to = span.end();
                    if hit {
                        // Consuming the hit frees buffer frames; a fill
                        // paused on capacity resumes once this transfer
                        // has delivered the data — not retroactively.
                        if paused_for_capacity {
                            ra.frontier_time = done;
                        }
                    } else {
                        // The fill has read exactly up to the requested
                        // sectors at the moment they became available.
                        ra.frontier = span.end();
                        ra.frontier_time = data_ready;
                    }
                    self.readahead = Some(ra);
                    return done;
                }
            }
        }
        self.commit_mechanical(span, mech_done);
        mech_done
    }

    fn cylinder_of(&self, sector: u64) -> u64 {
        self.geometry.cylinder_of(sector)
    }

    fn head_cylinder(&self) -> u64 {
        self.head_cylinder
    }

    fn name(&self) -> &'static str {
        "hp97560"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_types::rng::Rng;

    fn block_span(disk_block: u64) -> SectorSpan {
        SectorSpan::for_block(disk_block)
    }

    #[test]
    fn random_access_average_matches_table_1() {
        // Table 1: average 8 KB access time 22.8 ms. Our model should land
        // in the same neighborhood for uniformly random block reads.
        let mut d = Hp97560::new();
        let mut rng = Rng::seed_from_u64(42);
        let cap = d.geometry().capacity_blocks();
        let mut now = Nanos::ZERO;
        let mut total = Nanos::ZERO;
        let n = 2000;
        for _ in 0..n {
            let b = rng.gen_range(0..cap);
            let done = d.service(now, &block_span(b));
            total += done - now;
            now = done;
        }
        let avg_ms = total.as_millis_f64() / n as f64;
        assert!(
            (18.0..28.0).contains(&avg_ms),
            "random average {avg_ms:.2} ms outside expected band"
        );
    }

    #[test]
    fn sequential_access_is_fast() {
        // Back-to-back sequential blocks should stream at roughly media
        // rate (~3.3 ms per 8 KB block), the regime the paper reports as
        // 3-4 ms response times on sequential traces.
        let mut d = Hp97560::new();
        let mut now = Nanos::ZERO;
        // Prime: first access is mechanical.
        now = d.service(now, &block_span(0));
        let mut total = Nanos::ZERO;
        let n = 80; // stays within the first cylinder (85 blocks).
        for b in 1..=n {
            let done = d.service(now, &block_span(b));
            total += done - now;
            now = done;
        }
        let avg_ms = total.as_millis_f64() / n as f64;
        assert!(
            (2.5..4.5).contains(&avg_ms),
            "sequential average {avg_ms:.2} ms outside expected band"
        );
    }

    #[test]
    fn idle_disk_fills_readahead_and_serves_from_buffer() {
        let mut d = Hp97560::new();
        let done = d.service(Nanos::ZERO, &block_span(0));
        // Leave the disk idle long enough to fill the readahead buffer,
        // then read the next block: it should be served at bus speed.
        let later = done + Nanos::from_millis(100);
        let done2 = d.service(later, &block_span(1));
        let service = done2 - later;
        let expect = CONTROLLER_OVERHEAD + BUS_SECTOR_TIME * 16;
        assert_eq!(service, expect, "buffered read took {service}");
        assert_eq!(d.stats().buffer_hits, 1);
    }

    #[test]
    fn backward_access_is_mechanical() {
        let mut d = Hp97560::new();
        let t1 = d.service(Nanos::ZERO, &block_span(100));
        let t2 = d.service(t1, &block_span(99));
        assert_eq!(d.stats().mechanical, 2);
        // A mechanical access includes at least the media transfer.
        assert!(t2 - t1 >= SECTOR_TIME * 16);
    }

    #[test]
    fn readahead_stops_at_cylinder_boundary() {
        let mut d = Hp97560::new();
        // Block 84 occupies sectors 1344..1360; cylinder 0 ends at 1368, so
        // block 85 (sectors 1360..1376) straddles the boundary and can never
        // be served by a fill run that began in cylinder 0.
        let done = d.service(Nanos::ZERO, &block_span(84));
        let later = done + Nanos::from_millis(200);
        d.service(later, &block_span(85));
        assert_eq!(d.stats().mechanical, 2);
    }

    #[test]
    fn service_is_monotone_in_time() {
        let mut d = Hp97560::new();
        let done = d.service(Nanos::from_millis(5), &block_span(1000));
        assert!(done > Nanos::from_millis(5));
    }

    #[test]
    fn rotational_wait_is_bounded_by_one_rotation() {
        let mut d = Hp97560::new();
        let mut rng = Rng::seed_from_u64(7);
        let cap = d.geometry().capacity_blocks();
        let mut now = Nanos::ZERO;
        for _ in 0..500 {
            let b = rng.gen_range(0..cap);
            let span = block_span(b);
            let done = d.service(now, &span);
            let dist = d
                .geometry()
                .cylinder_of(span.start)
                .abs_diff(d.head_cylinder());
            let _ = dist;
            let upper = CONTROLLER_OVERHEAD
                + SeekCurve::HP97560.seek_time(1961)
                + ROTATION
                + SECTOR_TIME * 16
                + HEAD_SWITCH
                + CYLINDER_SWITCH;
            assert!(done - now <= upper, "service exceeded physical bound");
            now = done;
        }
    }

    #[test]
    fn disabled_readahead_makes_everything_mechanical() {
        let mut d = Hp97560::without_readahead();
        let mut now = Nanos::ZERO;
        for b in 0..20 {
            now = d.service(now, &block_span(b));
        }
        let s = d.stats();
        assert_eq!(s.mechanical, 20);
        assert_eq!(s.buffer_hits + s.buffer_waits, 0);
    }

    #[test]
    fn capacity_paused_fill_is_not_backdated() {
        let mut d = Hp97560::new();
        let t0 = d.service(Nanos::ZERO, &block_span(0));
        // Idle far past the point the 256-sector buffer fills (~53 ms):
        // the fill pauses at sector 272 for lack of space.
        let now = t0 + Nanos::from_millis(100);
        let done1 = d.service(now, &block_span(1));
        assert_eq!(d.stats().buffer_hits, 1);
        // Consuming block 1 freed 16 sectors, letting the paused fill
        // resume — at done1, not retroactively. Block 17 (sectors
        // 272..288) therefore cannot be ready before the media has read
        // 16 more sectors; back-dating the fill to the start of the run
        // reported it at bus speed (~1.3 ms).
        let done2 = d.service(done1, &block_span(17));
        assert!(
            done2 - done1 >= SECTOR_TIME * 16,
            "paused readahead back-dated: block served in {}",
            done2 - done1
        );
    }

    #[test]
    fn repeated_same_block_is_not_a_buffer_hit() {
        // The buffer only holds data *ahead* of the last access.
        let mut d = Hp97560::new();
        let t1 = d.service(Nanos::ZERO, &block_span(10));
        d.service(t1 + Nanos::from_millis(50), &block_span(10));
        assert_eq!(d.stats().mechanical, 2);
    }
}
