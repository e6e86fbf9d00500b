//! Property-style tests of the disk substrate: geometry, seek curve,
//! drive models, schedulers, and the array, over seeded random inputs
//! from the workspace's own deterministic [`Rng`].

use parcache_disk::disk::ReqKind;
use parcache_disk::geometry::{DiskGeometry, SectorSpan};
use parcache_disk::model::DiskModel;
use parcache_disk::sched::Discipline;
use parcache_disk::seek::SeekCurve;
use parcache_disk::{Disk, DiskArray, Hp97560, Layout, UniformDisk};
use parcache_types::rng::Rng;
use parcache_types::{BlockId, Nanos};

const CASES: u64 = 128;

/// A block that fits the smallest drive (HP 97560).
fn arb_block(rng: &mut Rng) -> u64 {
    rng.gen_range(0u64..167_000)
}

fn arb_blocks(rng: &mut Rng, max: usize) -> Vec<u64> {
    let n = rng.gen_range(1usize..max);
    (0..n).map(|_| arb_block(rng)).collect()
}

fn arb_discipline(rng: &mut Rng) -> Discipline {
    *rng.choose(&[
        Discipline::Fcfs,
        Discipline::Cscan,
        Discipline::Scan { ascending: true },
        Discipline::Sstf,
    ])
    .unwrap()
}

/// Geometry decoding is consistent: every sector's (cylinder, track,
/// rotational index) recombine to the sector number.
#[test]
fn geometry_decode_recombines() {
    let mut rng = Rng::seed_from_u64(1);
    for _ in 0..10 * CASES {
        let sector = rng.gen_range(0u64..2_684_016);
        let g = DiskGeometry::HP97560;
        let c = g.cylinder_of(sector);
        let t = g.track_of(sector);
        let r = g.rotational_index(sector);
        assert!(c < g.cylinders);
        assert!(t < g.tracks_per_cylinder);
        assert!(r < g.sectors_per_track);
        let rebuilt = c * g.sectors_per_cylinder() + t * g.sectors_per_track + r;
        assert_eq!(rebuilt, sector);
    }
}

/// The seek curve is monotone and continuous-ish at the breakpoint.
#[test]
fn seek_curve_monotone() {
    let mut rng = Rng::seed_from_u64(2);
    for _ in 0..10 * CASES {
        let a = rng.gen_range(0u64..1962);
        let b = rng.gen_range(0u64..1962);
        let c = SeekCurve::HP97560;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(c.seek_time(lo) <= c.seek_time(hi));
    }
}

/// Service time never travels backwards and is bounded by the drive's
/// physical worst case.
#[test]
fn hp97560_service_is_bounded() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let blocks = arb_blocks(&mut rng, 60);
        let mut d = Hp97560::new();
        let mut now = Nanos::ZERO;
        // Physical bound: overhead + full seek + rotation + transfer + switches.
        let bound = Nanos::from_millis(45);
        for b in blocks {
            let done = d.service(now, &SectorSpan::for_block(b));
            assert!(done >= now, "case {case}");
            assert!(
                done - now <= bound,
                "case {case}: service {} too long",
                done - now
            );
            now = done;
        }
    }
}

/// Every enqueued request is eventually served exactly once, under any
/// discipline — schedulers never starve or duplicate.
#[test]
fn disk_serves_every_request_once() {
    for case in 100..100 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let blocks = arb_blocks(&mut rng, 40);
        let discipline = arb_discipline(&mut rng);
        let mut disk = Disk::new(Box::new(Hp97560::new()), discipline);
        for (i, &b) in blocks.iter().enumerate() {
            let outcome = disk.enqueue(
                Nanos::from_micros(i as u64),
                BlockId(b),
                0,
                SectorSpan::for_block(b),
                ReqKind::Read,
                |_| {},
            );
            assert!(!outcome.is_rejected(), "case {case}: healthy drive");
        }
        let mut served = Vec::new();
        while let Some(t) = disk.next_completion() {
            served.push(disk.complete(t, |_| {}).block);
        }
        assert!(disk.is_free(), "case {case}");
        served.sort_unstable();
        let mut expected: Vec<BlockId> = blocks.iter().map(|&b| BlockId(b)).collect();
        expected.sort_unstable();
        assert_eq!(served, expected, "case {case}");
        assert_eq!(disk.stats().served, blocks.len() as u64, "case {case}");
    }
}

/// Striping is a bijection between logical blocks and
/// (disk, disk-block) pairs.
#[test]
fn striping_is_bijective() {
    for case in 200..200 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let disks = rng.gen_range(1usize..17);
        let blocks = arb_blocks(&mut rng, 50);
        let l = Layout::striped(disks);
        for &b in &blocks {
            let d = l.disk_of(BlockId(b));
            let db = l.disk_block_of(BlockId(b));
            assert!(d.index() < disks, "case {case}");
            let rebuilt = db * disks as u64 + d.index() as u64;
            assert_eq!(rebuilt, b, "case {case}");
        }
    }
}

/// Array completions happen in non-decreasing time order, every request
/// is served, and per-disk serialization holds (busy time on a disk never
/// exceeds the span of the run).
#[test]
fn array_conserves_requests() {
    for case in 300..300 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let disks = rng.gen_range(1usize..9);
        let blocks = arb_blocks(&mut rng, 60);
        let mut a = DiskArray::new(disks, Discipline::Cscan, |_| Box::new(Hp97560::new()));
        for &b in &blocks {
            assert!(!a.enqueue(Nanos::ZERO, BlockId(b)).is_rejected());
        }
        let mut last = Nanos::ZERO;
        let mut count = 0u64;
        let mut final_t = Nanos::ZERO;
        while let Some((t, d)) = a.next_event() {
            assert!(t >= last, "case {case}");
            last = t;
            let done = a.complete(t, d);
            assert_eq!(done.kind, ReqKind::Read, "case {case}");
            final_t = t;
            count += 1;
        }
        assert_eq!(count, blocks.len() as u64, "case {case}");
        assert_eq!(a.total_served(), blocks.len() as u64, "case {case}");
        for s in a.stats() {
            assert!(
                s.busy <= final_t,
                "case {case}: disk busier than the run is long"
            );
        }
    }
}

/// The uniform model is exactly uniform under queueing: with one disk,
/// the k-th completion lands at exactly k * F.
#[test]
fn uniform_queueing_is_exact() {
    for case in 400..400 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let n = rng.gen_range(1usize..30);
        let f_ms = rng.gen_range(1u64..20);
        let mut d = Disk::new(
            Box::new(UniformDisk::new(Nanos::from_millis(f_ms))),
            Discipline::Fcfs,
        );
        for i in 0..n {
            let outcome = d.enqueue(
                Nanos::ZERO,
                BlockId(i as u64),
                0,
                SectorSpan::for_block(i as u64),
                ReqKind::Read,
                |_| {},
            );
            assert!(!outcome.is_rejected(), "case {case}: healthy drive");
        }
        for k in 1..=n {
            let t = d.next_completion().expect("queued work");
            assert_eq!(t, Nanos::from_millis(f_ms * k as u64), "case {case}");
            d.complete(t, |_| {});
        }
    }
}

/// Under transient faults, every accepted request still completes exactly
/// once (as a success or a media error), attempts conserve, and the busy
/// time stays bounded by the run — the fault layer must not break the
/// drive's conservation properties.
#[test]
fn faulty_drive_conserves_requests() {
    use parcache_disk::fault::{FaultPlan, FaultyDisk};
    for case in 600..600 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let blocks = arb_blocks(&mut rng, 40);
        let discipline = arb_discipline(&mut rng);
        let p = rng.gen_range(0.05..0.5);
        let plan = FaultPlan {
            seed: case,
            specs: vec![parcache_disk::fault::FaultSpec {
                disk: parcache_disk::fault::DiskSel::All,
                kind: parcache_disk::fault::FaultKind::Transient { probability: p },
            }],
        };
        let mut disk = Disk::new(
            Box::new(FaultyDisk::new(
                Box::new(Hp97560::new()),
                plan.for_disk(0).unwrap(),
                plan.rng_for_disk(0),
            )),
            discipline,
        );
        for (i, &b) in blocks.iter().enumerate() {
            let outcome = disk.enqueue(
                Nanos::from_micros(i as u64),
                BlockId(b),
                0,
                SectorSpan::for_block(b),
                ReqKind::Read,
                |_| {},
            );
            assert!(!outcome.is_rejected(), "case {case}: no outage declared");
        }
        let mut completions = 0u64;
        let mut last = Nanos::ZERO;
        while let Some(t) = disk.next_completion() {
            assert!(t >= last, "case {case}");
            last = t;
            disk.complete(t, |_| {});
            completions += 1;
        }
        assert!(disk.is_free(), "case {case}");
        assert_eq!(completions, blocks.len() as u64, "case {case}");
        let s = disk.stats();
        assert_eq!(s.served + s.failed, blocks.len() as u64, "case {case}");
        assert!(s.busy <= last, "case {case}: busier than the run is long");
    }
}

/// CSCAN always picks the nearest queued cylinder at or ahead of the
/// head, wrapping when nothing is ahead.
#[test]
fn cscan_picks_ahead_or_wraps() {
    use parcache_disk::disk::Pending;
    for case in 500..500 + CASES {
        let mut rng = Rng::seed_from_u64(case);
        let n = rng.gen_range(1usize..20);
        let cyls: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1962)).collect();
        let head = rng.gen_range(0u64..1962);
        let queue: Vec<Pending> = cyls
            .iter()
            .enumerate()
            .map(|(i, &c)| Pending {
                block: BlockId(i as u64),
                tag: 0,
                kind: ReqKind::Read,
                span: SectorSpan {
                    start: c * 1368,
                    len: 16,
                },
                cylinder: c,
                enqueued: Nanos::ZERO,
                seq: i as u64,
            })
            .collect();
        let mut d = Discipline::Cscan;
        let picked = d.select(&queue, head).expect("non-empty");
        let picked_cyl = cyls[picked];
        let ahead: Vec<u64> = cyls.iter().copied().filter(|&c| c >= head).collect();
        if ahead.is_empty() {
            assert_eq!(picked_cyl, *cyls.iter().min().unwrap(), "case {case}");
        } else {
            assert_eq!(picked_cyl, *ahead.iter().min().unwrap(), "case {case}");
        }
    }
}

/// The HP 97560 model as it was written before the buffered-read
/// shortcut: the mechanical completion is worked out first, then the
/// readahead buffer is asked whether it can do better. The executable
/// spec `hp97560_buffered_shortcut_matches_the_eager_model` holds the
/// drive to. It also counts which path each read took, so the test can
/// check that its streams reach every one.
mod eager {
    use parcache_disk::geometry::{DiskGeometry, SectorSpan};
    use parcache_disk::seek::SeekCurve;
    use parcache_types::Nanos;

    const G: DiskGeometry = DiskGeometry::HP97560;
    const SECTOR_TIME: u64 = 208_229;
    const ROTATION: u64 = SECTOR_TIME * 72;
    const CONTROLLER_OVERHEAD: u64 = 500_000;
    const HEAD_SWITCH: u64 = 1_000_000;
    const CYLINDER_SWITCH: u64 = 2_000_000;
    const BUS_SECTOR_TIME: u64 = 51_200;
    const READAHEAD_SECTORS: u64 = 256;

    #[derive(Clone, Copy)]
    struct Readahead {
        origin: u64,
        frontier: u64,
        frontier_time: u64,
        consumed_to: u64,
    }

    impl Readahead {
        fn stop(&self) -> u64 {
            let by_cylinder = (G.cylinder_of(self.origin) + 1) * G.sectors_per_cylinder();
            (self.consumed_to + READAHEAD_SECTORS).min(by_cylinder)
        }

        fn advance(&mut self, now: u64) {
            if now <= self.frontier_time {
                return;
            }
            let stop = self.stop();
            if self.frontier >= stop {
                self.frontier_time = now;
                return;
            }
            let filled = (now - self.frontier_time) / SECTOR_TIME;
            if self.frontier + filled >= stop {
                self.frontier = stop;
                self.frontier_time = now;
            } else {
                self.frontier += filled;
                self.frontier_time += SECTOR_TIME * filled;
            }
        }
    }

    /// How often each path was taken.
    #[derive(Debug, Default)]
    pub struct Paths {
        /// Served from sectors already buffered.
        pub hits: u64,
        /// Hits that resumed a fill paused at the buffer's capacity.
        pub paused_hits: u64,
        /// Served by waiting for the in-progress fill.
        pub waits: u64,
        /// Inside the buffer window, but a mechanical access was sooner.
        pub buffer_lost: u64,
        /// Mechanical accesses.
        pub mechanical: u64,
        /// Mechanical accesses whose span crosses a cylinder end.
        pub cylinder_crossing: u64,
    }

    pub struct EagerHp97560 {
        head: u64,
        readahead: Option<Readahead>,
        pub paths: Paths,
    }

    impl EagerHp97560 {
        pub fn new() -> EagerHp97560 {
            EagerHp97560 {
                head: 0,
                readahead: None,
                paths: Paths::default(),
            }
        }

        pub fn head_cylinder(&self) -> u64 {
            self.head
        }

        fn mechanical(&self, now: u64, span: &SectorSpan) -> u64 {
            let end = span.start + span.len;
            let distance = G.cylinder_of(span.start).abs_diff(self.head);
            let after_seek =
                now + CONTROLLER_OVERHEAD + SeekCurve::HP97560.seek_time(distance).as_nanos();
            let target_angle = SECTOR_TIME * G.rotational_index(span.start);
            let rot_wait = (target_angle + ROTATION - after_seek % ROTATION) % ROTATION;
            let tracks = (end - 1) / G.sectors_per_track - span.start / G.sectors_per_track;
            let cylinders = G.cylinder_of(end - 1) - G.cylinder_of(span.start);
            after_seek
                + rot_wait
                + SECTOR_TIME * span.len
                + HEAD_SWITCH * tracks
                + CYLINDER_SWITCH * cylinders
        }

        pub fn service(&mut self, now: Nanos, span: &SectorSpan) -> Nanos {
            let now = now.as_nanos();
            if span.len == 0 {
                return Nanos(now);
            }
            let end = span.start + span.len;
            let mech_done = self.mechanical(now, span);
            if let Some(ra) = self.readahead.as_mut() {
                ra.advance(now);
            }
            if let Some(mut ra) = self.readahead {
                if span.start >= ra.consumed_to && end <= ra.stop() {
                    let paused_for_capacity = ra.frontier == ra.consumed_to + READAHEAD_SECTORS
                        && ra.frontier < (G.cylinder_of(ra.origin) + 1) * G.sectors_per_cylinder();
                    let hit = end <= ra.frontier;
                    let data_ready = if hit {
                        now
                    } else {
                        ra.frontier_time + SECTOR_TIME * end.saturating_sub(ra.frontier)
                    };
                    let done =
                        data_ready.max(now + CONTROLLER_OVERHEAD) + BUS_SECTOR_TIME * span.len;
                    if done <= mech_done {
                        self.head = G.cylinder_of(end - 1);
                        ra.consumed_to = end;
                        if hit {
                            self.paths.hits += 1;
                            if paused_for_capacity {
                                self.paths.paused_hits += 1;
                                ra.frontier_time = done;
                            }
                        } else {
                            self.paths.waits += 1;
                            ra.frontier = end;
                            ra.frontier_time = data_ready;
                        }
                        self.readahead = Some(ra);
                        return Nanos(done);
                    }
                    self.paths.buffer_lost += 1;
                }
            }
            self.paths.mechanical += 1;
            if G.cylinder_of(end - 1) != G.cylinder_of(span.start) {
                self.paths.cylinder_crossing += 1;
            }
            self.head = G.cylinder_of(end - 1);
            self.readahead = Some(Readahead {
                origin: end,
                frontier: end,
                frontier_time: mech_done,
                consumed_to: end,
            });
            Nanos(mech_done)
        }
    }
}

/// The HP 97560's buffered-read shortcut is exact: `Hp97560::service`
/// decides the readahead path before any mechanical arithmetic, and
/// must give the eager model's completion time and head cylinder at
/// every step. The seeded streams mix sequential reads (buffer hits,
/// waits on the in-progress fill, fills paused at the 256-sector
/// capacity), reads straddling a cylinder end, short forward strides
/// inside and past the buffer window, random and backward mechanical
/// reads, and idle gaps from none to long enough to fill the buffer.
#[test]
fn hp97560_buffered_shortcut_matches_the_eager_model() {
    const SPC: u64 = 1368;
    let mut paths = eager::Paths::default();
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5eed_0000 + case);
        let mut drive = Hp97560::new();
        let mut spec = eager::EagerHp97560::new();
        let mut now = Nanos::ZERO;
        let mut next = 0u64;
        for step in 0..400 {
            let len = *rng.choose(&[16u64, 16, 16, 8, 1, 40]).unwrap();
            let start = match rng.gen_range(0usize..20) {
                // Sequential: the sector after the last read.
                0..=9 => next,
                // A short forward stride, inside or past the window.
                10..=12 => next + rng.gen_range(1u64..320),
                // A read ending just past a cylinder end.
                13 | 14 => {
                    let cyl_end = (next / SPC + 1) * SPC;
                    cyl_end - rng.gen_range(1u64..len + 1).min(cyl_end)
                }
                // Backward, within the last few hundred sectors.
                15 => next.saturating_sub(rng.gen_range(1u64..400)),
                // Random.
                _ => rng.gen_range(0u64..2_680_000),
            };
            let gap = match rng.gen_range(0usize..8) {
                0..=3 => Nanos::ZERO,
                4 => Nanos(rng.gen_range(0u64..1_000_000)),
                5 => Nanos(rng.gen_range(0u64..20_000_000)),
                6 => Nanos(rng.gen_range(0u64..80_000_000)),
                _ => Nanos(rng.gen_range(0u64..400_000_000)),
            };
            let span = SectorSpan { start, len };
            now += gap;
            let want = spec.service(now, &span);
            let got = drive.service(now, &span);
            assert_eq!(got, want, "case {case} step {step}: {span:?} at {now}");
            assert_eq!(
                drive.head_cylinder(),
                spec.head_cylinder(),
                "case {case} step {step}: head after {span:?}"
            );
            now = got;
            next = start + len;
        }
        let p = &spec.paths;
        paths.hits += p.hits;
        paths.paused_hits += p.paused_hits;
        paths.waits += p.waits;
        paths.buffer_lost += p.buffer_lost;
        paths.mechanical += p.mechanical;
        paths.cylinder_crossing += p.cylinder_crossing;
    }
    // Every path the shortcut must agree on was reached, many times.
    for (name, n) in [
        ("hits", paths.hits),
        ("hits resuming a capacity-paused fill", paths.paused_hits),
        ("waits on the fill", paths.waits),
        (
            "buffer window lost to the mechanical path",
            paths.buffer_lost,
        ),
        ("mechanical reads", paths.mechanical),
        ("reads across a cylinder end", paths.cylinder_crossing),
    ] {
        assert!(n >= 100, "{name}: only {n} ({paths:?})");
    }
}
