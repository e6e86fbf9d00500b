//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed for this kind of
//! work (hash lookups and pointer chasing over a cache-sized working set)
//! swings by a factor of 1.5 or more for seconds to minutes at a time,
//! while pure arithmetic stays put. Taking the fastest or median time of
//! repeated work inside one run cannot remove a slow stretch that covers
//! the whole run. So every timed unit of work is paired with the speed of
//! the machine around it: between units the benchmark runs a fixed
//! reference kernel, a small LRU cache simulation over a hash map, and
//! times it. A unit's *calibrated* time is its host time scaled by
//! [`REF_SECS`] over the kernel time measured around it, that is, the
//! time the unit would take on a machine where the kernel takes
//! [`REF_SECS`]. The kernel is part of the benchmark, not of the program
//! it measures, so it is the same on every commit compared.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The reference kernel time, in seconds: the kernel's fastest time on a
/// quiet Intel Xeon (Sapphire Rapids class) vCPU. Calibrated times read
/// as host seconds on that machine.
pub const REF_SECS: f64 = 2.0e-3;

/// The power of the speed ratio that set-up times are scaled by. Set-up
/// (trace generation) mixes arithmetic, which the slow state leaves
/// nearly alone, with hash-map and allocation work, which it slows like
/// the kernel. Over ten seeds per workload with full scaling,
/// `appendix-a`'s set-up read the same in either state, while
/// `engine-stress`'s (mostly exponential sampling of compute times) read
/// 20% higher in the fast state: it slows about half as much as the
/// kernel, in log terms. 0.75 splits the difference and keeps either
/// set-up within about 11% between a run made wholly in one state and a
/// run made wholly in the other.
pub const SETUP_EXPONENT: f64 = 0.75;

/// Least host time between two speed points, in seconds. Points are only
/// taken between units, so a long unit is bracketed by the points on
/// either side of it.
const POINT_EVERY_SECS: f64 = 0.1;

/// Kernel runs per speed point; the point is the fastest of them, which
/// drops a run that was preempted.
const RUNS_PER_POINT: usize = 3;

/// Frames of the kernel's LRU cache.
const FRAMES: usize = 4096;
/// References the kernel simulates per run.
const REFS: usize = 30_000;
/// Simulated fetch latency of a miss, in references.
const FETCH_DELAY: u64 = 64;

/// The hits one kernel run counts; any other count is a broken kernel.
const KERNEL_HITS: u64 = 4_020;

/// One kernel run: an LRU cache of [`FRAMES`] frames (a hash map plus an
/// intrusive doubly linked list) over a reference stream that is three
/// quarters a sequential loop and one quarter random blocks, with misses
/// queued on a completion heap. Returns the hit count.
fn kernel() -> u64 {
    const NIL: usize = usize::MAX;
    // SipHash with fixed keys: the same work on every run and process.
    let mut map: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(FRAMES * 2, Default::default());
    let mut prev = vec![NIL; FRAMES];
    let mut next = vec![NIL; FRAMES];
    let mut key = vec![0u64; FRAMES];
    let mut pending: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
    let (mut head, mut tail, mut used) = (NIL, NIL, 0usize);
    let (mut x, mut seq, mut hits) = (0x9E37_79B9_7F4A_7C15u64, 0u64, 0u64);
    for now in 0..REFS as u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = if x % 4 == 0 {
            x % 16_384
        } else {
            seq = (seq + 1) % 6_000;
            seq
        };
        while pending.peek().is_some_and(|p| p.0 .0 <= now) {
            pending.pop();
        }
        let slot = if let Some(&s) = map.get(&block) {
            hits += 1;
            if prev[s] != NIL {
                next[prev[s]] = next[s];
            } else {
                head = next[s];
            }
            if next[s] != NIL {
                prev[next[s]] = prev[s];
            } else {
                tail = prev[s];
            }
            s
        } else {
            pending.push(std::cmp::Reverse((now + FETCH_DELAY, block)));
            let s = if used < FRAMES {
                used += 1;
                used - 1
            } else {
                let s = tail;
                tail = prev[s];
                if tail != NIL {
                    next[tail] = NIL;
                } else {
                    head = NIL;
                }
                map.remove(&key[s]);
                s
            };
            map.insert(block, s);
            key[s] = block;
            s
        };
        prev[slot] = NIL;
        next[slot] = head;
        if head != NIL {
            prev[head] = slot;
        }
        head = slot;
        if tail == NIL {
            tail = slot;
        }
    }
    hits
}

/// One speed point: the fastest of [`RUNS_PER_POINT`] kernel runs, in
/// seconds.
fn speed_point() -> f64 {
    (0..RUNS_PER_POINT)
        .map(|_| {
            let t0 = Instant::now();
            let hits = std::hint::black_box(kernel());
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(hits, KERNEL_HITS, "the calibration kernel is deterministic");
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

/// Timed units of work interleaved with speed points.
pub struct Timeline {
    origin: Instant,
    /// `(taken at, kernel seconds)`, in time order.
    points: Vec<(f64, f64)>,
    /// `(unit, started at, host seconds)`, in time order.
    runs: Vec<(usize, f64, f64)>,
    units: usize,
}

impl Timeline {
    /// A timeline for units `0..units`, starting with a speed point.
    pub fn new(units: usize) -> Timeline {
        let mut t = Timeline {
            origin: Instant::now(),
            points: Vec::new(),
            runs: Vec::new(),
            units,
        };
        t.point();
        t
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn point(&mut self) {
        let at = self.now();
        let secs = speed_point();
        self.points.push((at, secs));
    }

    /// Runs `f` as one repetition of `unit` and records its host time.
    pub fn time<T>(&mut self, unit: usize, f: impl FnOnce() -> T) -> T {
        assert!(unit < self.units, "unit {unit} out of range");
        let last = self.points.last().map_or(f64::NEG_INFINITY, |p| p.0);
        if self.now() - last >= POINT_EVERY_SECS {
            self.point();
        }
        let start = self.now();
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let secs = t0.elapsed().as_secs_f64();
        self.runs.push((unit, start, secs));
        r
    }

    /// Closes the timeline with a last speed point and returns each
    /// unit's runs. A run's machine speed is the mean of the last point
    /// before it and the first point after it.
    pub fn finish(mut self) -> Calibrated {
        self.point();
        let mut per_unit = vec![Vec::new(); self.units];
        for &(unit, start, secs) in &self.runs {
            let after = self.points.partition_point(|p| p.0 <= start);
            let speed = (self.points[after - 1].1 + self.points[after].1) / 2.0;
            per_unit[unit].push((secs, REF_SECS / speed));
        }
        let kernel = self.points.iter().map(|p| p.1).collect();
        Calibrated { per_unit, kernel }
    }
}

/// The runs of a finished timeline.
pub struct Calibrated {
    /// Each unit's runs, in run order: host seconds, and [`REF_SECS`]
    /// over the machine's kernel time around the run.
    per_unit: Vec<Vec<(f64, f64)>>,
    /// Every speed point's kernel time, in seconds.
    pub kernel: Vec<f64>,
}

impl Calibrated {
    fn median_scaled(&self, unit: usize, exponent: f64) -> f64 {
        let times: Vec<f64> = self.per_unit[unit]
            .iter()
            .map(|&(secs, ratio)| secs * ratio.powf(exponent))
            .collect();
        crate::median(&times)
    }

    /// The median calibrated time of `unit`, in seconds.
    pub fn median(&self, unit: usize) -> f64 {
        self.median_scaled(unit, 1.0)
    }

    /// The median set-up time of `unit`, in seconds, scaled by the speed
    /// ratio to the power [`SETUP_EXPONENT`].
    pub fn setup_median(&self, unit: usize) -> f64 {
        self.median_scaled(unit, SETUP_EXPONENT)
    }

    /// The sum of the median calibrated times of `units`.
    pub fn sum_of_medians(&self, units: std::ops::Range<usize>) -> f64 {
        units.map(|u| self.median(u)).sum()
    }
}
