//! Metrics built from the probe event stream: counters, log₂-bucketed
//! latency histograms with quantile summaries, and a time-sliced per-disk
//! utilization/queue-depth timeline.
//!
//! [`MetricsProbe`] is a [`Probe`] that folds the stream into a
//! [`RunMetrics`]; everything renders to JSON (through [`crate::json`])
//! and to plain ASCII tables.

use crate::json::{self, Fixed, Raw};
use crate::probe::{Event, Probe};
use parcache_types::Nanos;

/// A histogram over `u64` samples with power-of-two bucket boundaries.
///
/// Bucket `0` holds the value `0`; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Quantiles are estimated by linear interpolation
/// inside the containing bucket, which is exact to within a factor of two
/// and much tighter in practice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The lower edge of bucket `i` (inclusive).
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The upper edge of bucket `i` (exclusive; saturates at `u64::MAX`).
    fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`Nanos`] sample.
    pub(crate) fn record_nanos(&mut self, value: Nanos) {
        self.record(value.as_nanos());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// The estimated `q`-quantile (`q` in `[0, 1]`), by interpolating
    /// within the containing bucket. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Tighten the bucket edges with the observed extremes.
                // Clamping `hi` to the true max (not `max.max(1)`) keeps
                // quantile(1.0) exact: the old floor of 1 made an
                // all-zeros histogram report a top quantile of 1.
                let lo = Self::bucket_lo(i).max(self.min());
                let hi = Self::bucket_hi(i).min(self.max);
                if hi <= lo {
                    return lo;
                }
                // The rank landing on the bucket's last sample returns the
                // (clamped) upper edge exactly: going through the f64
                // interpolation would lose low bits of 64-bit values, so
                // quantile(1.0) would miss max by a few ULPs.
                if rank - seen == n {
                    return hi;
                }
                let frac = (rank - seen) as f64 / n as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen += n;
        }
        self.max
    }

    /// Folds `other` into `self`, as if every sample recorded in `other`
    /// had been recorded here. Associative and commutative, so per-thread
    /// histograms can be merged in any grouping (the sweep runner merges
    /// them in cell-index order for deterministic output).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        // The empty-histogram sentinels (min = u64::MAX, max = 0) are
        // identities for min/max, so merging an empty side is a no-op.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// p50, p90, and p99 in one call.
    pub(crate) fn summary(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }

    /// Occupied buckets as `(lo, hi, count)` triples, low to high.
    pub(crate) fn occupied_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_lo(i), Self::bucket_hi(i), n))
            .collect()
    }

    /// This histogram as a JSON object. Samples are dimensionless here;
    /// callers name the field so units are clear (`*_ns` for times).
    pub(crate) fn to_json(&self) -> String {
        let (p50, p90, p99) = self.summary();
        let buckets = self.occupied_buckets().into_iter().map(|(lo, hi, n)| {
            json::object()
                .field("lo", lo)
                .field("hi", hi)
                .field("count", n)
        });
        json::object()
            .field("count", self.count)
            .field("mean", Fixed(self.mean(), 1))
            .field("min", self.min())
            .field("max", self.max())
            .field("p50", p50)
            .field("p90", p90)
            .field("p99", p99)
            .array("buckets", buckets)
            .finish()
    }

    /// An ASCII rendering: one row per occupied bucket with a proportional
    /// bar, preceded by a one-line summary. `unit` scales and labels the
    /// values (e.g. [`Unit::Millis`] for nanosecond samples).
    pub(crate) fn render_ascii(&self, title: &str, unit: Unit) -> String {
        let mut out = String::new();
        let (p50, p90, p99) = self.summary();
        out.push_str(&format!(
            "{title}: n={} mean={} p50={} p90={} p99={} max={}\n",
            self.count,
            unit.fmt(self.mean() as u64),
            unit.fmt(p50),
            unit.fmt(p90),
            unit.fmt(p99),
            unit.fmt(self.max()),
        ));
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (lo, hi, n) in self.occupied_buckets() {
            let bar_len = (n as f64 / peak as f64 * 40.0).ceil() as usize;
            out.push_str(&format!(
                "  [{:>10} .. {:>10}) {:>8} {}\n",
                unit.fmt(lo),
                unit.fmt(hi),
                n,
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

/// How to print a histogram's raw `u64` samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    /// Samples are nanoseconds; print as milliseconds.
    Millis,
    /// Samples are plain counts; print bare.
    Count,
}

impl Unit {
    fn fmt(self, v: u64) -> String {
        match self {
            Unit::Millis => format!("{:.2}ms", v as f64 / 1e6),
            Unit::Count => format!("{v}"),
        }
    }
}

/// Monotonic event counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Policy decision points.
    pub decisions: u64,
    /// References that found their block resident.
    pub cache_hits: u64,
    /// References that did not.
    pub cache_misses: u64,
    /// Blocks evicted to make room for fetches.
    pub evictions: u64,
    /// Fetches issued (demand + prefetch).
    pub fetches_issued: u64,
    /// Fetches issued from the demand-miss path.
    pub demand_fetches: u64,
    /// Write-behind flushes issued.
    pub writes_issued: u64,
    /// Drive service starts (reads and writes).
    pub services_started: u64,
    /// Drive service completions (reads and writes).
    pub services_completed: u64,
    /// Stall intervals begun.
    pub stalls_begun: u64,
    /// Stall intervals ended.
    pub stalls_ended: u64,
    /// Faults charged to requests (media errors + outage rejections).
    pub faults_injected: u64,
    /// Driver retries issued in response to faults.
    pub retries: u64,
    /// Requests the driver gave up on.
    pub requests_abandoned: u64,
}

impl Counters {
    /// Adds `other`'s counts into `self`.
    pub(crate) fn merge(&mut self, other: &Counters) {
        self.decisions += other.decisions;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.evictions += other.evictions;
        self.fetches_issued += other.fetches_issued;
        self.demand_fetches += other.demand_fetches;
        self.writes_issued += other.writes_issued;
        self.services_started += other.services_started;
        self.services_completed += other.services_completed;
        self.stalls_begun += other.stalls_begun;
        self.stalls_ended += other.stalls_ended;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.requests_abandoned += other.requests_abandoned;
    }

    /// These counters as a JSON object. The fault counters appear only
    /// when nonzero, so healthy-run output is byte-identical to output
    /// from before fault support existed.
    pub(crate) fn to_json(self) -> String {
        json::object()
            .field("decisions", self.decisions)
            .field("cache_hits", self.cache_hits)
            .field("cache_misses", self.cache_misses)
            .field("evictions", self.evictions)
            .field("fetches_issued", self.fetches_issued)
            .field("demand_fetches", self.demand_fetches)
            .field("writes_issued", self.writes_issued)
            .field("services_started", self.services_started)
            .field("services_completed", self.services_completed)
            .field("stalls_begun", self.stalls_begun)
            .field("stalls_ended", self.stalls_ended)
            .opt("faults_injected", json::nonzero(self.faults_injected))
            .opt("retries", json::nonzero(self.retries))
            .opt("requests_abandoned", json::nonzero(self.requests_abandoned))
            .finish()
    }
}

/// One drive's latency and queueing distributions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiskMetrics {
    /// Pure service times (ns).
    pub service: Histogram,
    /// Response times — queueing plus service (ns).
    pub response: Histogram,
    /// Queue depth sampled at each arrival.
    pub queue_depth: Histogram,
}

/// Per-disk activity aggregated into fixed-width time slices.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    slice: Nanos,
    disks: usize,
    /// `slices[s][d]` = (busy ns, max depth seen) for disk `d` in slice `s`.
    slices: Vec<Vec<(u64, usize)>>,
}

impl Timeline {
    fn new(disks: usize, slice: Nanos) -> Timeline {
        Timeline {
            slice,
            disks,
            slices: Vec::new(),
        }
    }

    /// The slice width.
    pub fn slice_width(&self) -> Nanos {
        self.slice
    }

    /// True when no activity has been recorded.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    fn slot(&mut self, index: usize) -> &mut Vec<(u64, usize)> {
        while self.slices.len() <= index {
            self.slices.push(vec![(0, 0); self.disks]);
        }
        &mut self.slices[index]
    }

    /// Credits `disk` with busy time over `[start, end)`, split across the
    /// slices the interval overlaps.
    fn add_busy(&mut self, disk: usize, start: Nanos, end: Nanos) {
        let w = self.slice.as_nanos().max(1);
        let (mut t, end) = (start.as_nanos(), end.as_nanos());
        while t < end {
            let idx = (t / w) as usize;
            let slice_end = (idx as u64 + 1) * w;
            let chunk = end.min(slice_end) - t;
            self.slot(idx)[disk].0 += chunk;
            t += chunk;
        }
    }

    /// Records a queue-depth sample for `disk` at time `t`.
    fn sample_depth(&mut self, disk: usize, t: Nanos, depth: usize) {
        let idx = (t.as_nanos() / self.slice.as_nanos().max(1)) as usize;
        let cell = &mut self.slot(idx)[disk];
        cell.1 = cell.1.max(depth);
    }

    /// Per-slice rows: `(slice start, per-disk utilization in [0,1],
    /// per-disk max queue depth)`.
    pub fn rows(&self) -> Vec<(Nanos, Vec<f64>, Vec<usize>)> {
        let w = self.slice.as_nanos().max(1);
        self.slices
            .iter()
            .enumerate()
            .map(|(i, cells)| {
                (
                    Nanos(i as u64 * w),
                    cells
                        .iter()
                        .map(|&(busy, _)| busy as f64 / w as f64)
                        .collect(),
                    cells.iter().map(|&(_, depth)| depth).collect(),
                )
            })
            .collect()
    }

    /// This timeline as a JSON object.
    pub(crate) fn to_json(&self) -> String {
        let slices = self.rows().into_iter().map(|(start, util, depth)| {
            json::object()
                .field("start_ns", start.as_nanos())
                .array("utilization", util.into_iter().map(|u| Fixed(u, 4)))
                .array("max_depth", depth)
        });
        json::object()
            .field("slice_ns", self.slice.as_nanos())
            .array("slices", slices)
            .finish()
    }
}

/// The run-wide half of [`RunMetrics`]: the event counters and the four
/// array-wide distributions. A sweep's aggregate is one of these folded
/// over its cells, so the fold, the JSON fields and the ASCII rendering
/// of the five are written once, here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTotals {
    /// Event counters.
    pub counters: Counters,
    /// Service times across all drives (ns).
    pub fetch_service: Histogram,
    /// Response times across all drives (ns).
    pub fetch_response: Histogram,
    /// Stall durations (ns).
    pub stall_duration: Histogram,
    /// Queue depth at enqueue, across all drives.
    pub queue_depth: Histogram,
}

impl RunTotals {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &RunTotals) {
        self.counters.merge(&other.counters);
        self.fetch_service.merge(&other.fetch_service);
        self.fetch_response.merge(&other.fetch_response);
        self.stall_duration.merge(&other.stall_duration);
        self.queue_depth.merge(&other.queue_depth);
    }

    /// `obj` with the five fields appended, in their document order.
    pub(crate) fn json_fields(&self, obj: json::Obj) -> json::Obj {
        obj.field("counters", Raw(self.counters.to_json()))
            .field("fetch_service_ns", Raw(self.fetch_service.to_json()))
            .field("fetch_response_ns", Raw(self.fetch_response.to_json()))
            .field("stall_ns", Raw(self.stall_duration.to_json()))
            .field("queue_depth", Raw(self.queue_depth.to_json()))
    }

    /// These totals as a JSON object.
    pub fn to_json(&self) -> String {
        self.json_fields(json::object()).finish()
    }

    /// ASCII rendering of the four distributions.
    pub fn render_ascii(&self) -> String {
        [
            (&self.fetch_service, "fetch service time", Unit::Millis),
            (&self.fetch_response, "fetch response time", Unit::Millis),
            (&self.stall_duration, "stall duration", Unit::Millis),
            (&self.queue_depth, "queue depth at enqueue", Unit::Count),
        ]
        .into_iter()
        .map(|(h, title, unit)| h.render_ascii(title, unit))
        .collect()
    }
}

/// Everything [`MetricsProbe`] accumulates over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// The counters and array-wide distributions.
    pub totals: RunTotals,
    /// Per-drive distributions.
    pub per_disk: Vec<DiskMetrics>,
    /// Time-sliced per-disk activity.
    pub timeline: Timeline,
}

impl RunMetrics {
    /// Empty metrics for an array of `disks` drives with the given
    /// timeline slice width.
    pub(crate) fn new(disks: usize, slice: Nanos) -> RunMetrics {
        RunMetrics {
            totals: RunTotals::default(),
            per_disk: vec![DiskMetrics::default(); disks],
            timeline: Timeline::new(disks, slice),
        }
    }

    /// These metrics as a JSON object.
    pub fn to_json(&self) -> String {
        let per_disk = self.per_disk.iter().map(|d| {
            json::object()
                .field("service_ns", Raw(d.service.to_json()))
                .field("response_ns", Raw(d.response.to_json()))
                .field("queue_depth", Raw(d.queue_depth.to_json()))
        });
        self.totals
            .json_fields(json::object())
            .array("per_disk", per_disk)
            .field("timeline", Raw(self.timeline.to_json()))
            .finish()
    }
}

/// A [`Probe`] that folds the event stream into [`RunMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsProbe {
    metrics: RunMetrics,
}

impl MetricsProbe {
    /// A metrics probe for an array of `disks` drives, slicing the
    /// timeline into `slice`-wide windows.
    pub(crate) fn new(disks: usize, slice: Nanos) -> MetricsProbe {
        MetricsProbe {
            metrics: RunMetrics::new(disks, slice),
        }
    }

    /// A metrics probe with the default 100 ms timeline slice.
    pub fn for_disks(disks: usize) -> MetricsProbe {
        MetricsProbe::new(disks, Nanos::from_millis(100))
    }

    /// The accumulated metrics.
    pub fn finish(self) -> RunMetrics {
        self.metrics
    }
}

impl Probe for MetricsProbe {
    fn on_event(&mut self, event: &Event) {
        let m = &mut self.metrics;
        match *event {
            Event::PolicyDecision { .. } => m.totals.counters.decisions += 1,
            Event::CacheHit { .. } => m.totals.counters.cache_hits += 1,
            Event::CacheMiss { .. } => m.totals.counters.cache_misses += 1,
            Event::Eviction { .. } => m.totals.counters.evictions += 1,
            Event::FetchIssued { demand, .. } => {
                m.totals.counters.fetches_issued += 1;
                if demand {
                    m.totals.counters.demand_fetches += 1;
                }
            }
            Event::WriteIssued { .. } => m.totals.counters.writes_issued += 1,
            Event::QueueDepth { now, disk, depth } => {
                m.totals.queue_depth.record(depth as u64);
                m.per_disk[disk.index()].queue_depth.record(depth as u64);
                m.timeline.sample_depth(disk.index(), now, depth);
            }
            Event::FetchStarted {
                now,
                disk,
                completes,
                ..
            } => {
                m.totals.counters.services_started += 1;
                m.timeline.add_busy(disk.index(), now, completes);
            }
            Event::FetchCompleted {
                disk,
                service,
                response,
                ..
            } => {
                m.totals.counters.services_completed += 1;
                m.totals.fetch_service.record_nanos(service);
                m.totals.fetch_response.record_nanos(response);
                let d = &mut m.per_disk[disk.index()];
                d.service.record_nanos(service);
                d.response.record_nanos(response);
            }
            Event::StallBegin { .. } => m.totals.counters.stalls_begun += 1,
            Event::StallEnd { stalled, .. } => {
                m.totals.counters.stalls_ended += 1;
                m.totals.stall_duration.record_nanos(stalled);
            }
            Event::FaultInjected { .. } => m.totals.counters.faults_injected += 1,
            Event::RetryIssued { .. } => m.totals.counters.retries += 1,
            Event::RequestAbandoned { .. } => m.totals.counters.requests_abandoned += 1,
            // Degraded-window boundaries shape the latency distributions
            // already folded above; the boundaries themselves are audited
            // in `crate::audit`, not counted here.
            Event::DiskDegraded { .. } | Event::DiskRecovered { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::StallCause;
    use parcache_types::{BlockId, DiskId};

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        let buckets = h.occupied_buckets();
        // 0 | [1,2) | [2,4) x2 | [4,8) x2 | [8,16) | [512,1024)
        assert_eq!(
            buckets,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (2, 4, 2),
                (4, 8, 2),
                (8, 16, 1),
                (512, 1024, 1)
            ]
        );
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = h.summary();
        // Interpolation within a power-of-two bucket: right order of
        // magnitude and monotone.
        assert!((256..=1000).contains(&p50), "{p50}");
        assert!(p90 >= p50 && p99 >= p90, "{p50} {p90} {p99}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Extreme quantiles stay within a bucket (factor of two) of the
        // true extremes.
        assert!(h.quantile(0.0) >= 1 && h.quantile(0.0) <= 2);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        // Property: for random sample sets, quantile(q) never decreases
        // as q grows, and the extremes stay within the observed range.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(7);
        for case in 0..50u64 {
            let mut h = Histogram::new();
            let n = 1 + (case as usize % 40) * 7;
            for _ in 0..n {
                // Mix magnitudes so many buckets are exercised.
                let v = rng.next_u64() >> (rng.next_u64() % 60);
                h.record(v);
            }
            let mut prev = 0u64;
            for step in 0..=100u64 {
                let q = step as f64 / 100.0;
                let v = h.quantile(q);
                assert!(v >= prev, "case {case}: q={q} gave {v} < {prev}");
                assert!(v <= h.max(), "case {case}: q={q} gave {v} > max");
                prev = v;
            }
            assert!(h.quantile(0.0) >= h.min());
            assert_eq!(h.quantile(1.0), h.max(), "case {case}");
        }
    }

    #[test]
    fn quantile_is_exact_for_single_valued_data() {
        // Every quantile of a constant distribution is that constant —
        // including 0, which the old `max.max(1)` clamp reported as 1.
        for v in [0u64, 1, 2, 3, 5, 1023, 1024, 1_000_000, u64::MAX] {
            let mut h = Histogram::new();
            for _ in 0..17 {
                h.record(v);
            }
            for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "quantile({q}) of constant {v}");
            }
        }
    }

    #[test]
    fn merge_combines_histograms_exactly() {
        let mut rng = parcache_types::rng::Rng::seed_from_u64(1996);
        for case in 0..20u64 {
            let mut parts: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
            let mut whole = Histogram::new();
            for i in 0..200usize {
                let v = rng.next_u64() >> (rng.next_u64() % 60);
                parts[i % 4].record(v);
                whole.record(v);
            }
            // Fold the shards (one stays empty-ish if case is small) and
            // compare against recording everything into one histogram.
            let mut merged = Histogram::new(); // start from the identity
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(merged, whole, "case {case}");
            assert_eq!(merged.quantile(1.0), whole.max(), "case {case}");
            assert_eq!(merged.count(), whole.count());
            assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        }
        // Merging an empty histogram is the identity in both directions.
        let mut h = Histogram::new();
        h.record(42);
        let snapshot = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, snapshot);
        let mut e = Histogram::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn run_totals_merge_folds_counters_and_histograms() {
        let mut a = RunTotals::default();
        let mut b = RunTotals::default();
        a.counters.fetches_issued = 3;
        b.counters.fetches_issued = 4;
        a.fetch_service.record(100);
        b.fetch_service.record(300);
        b.queue_depth.record(7);
        a.merge(&b);
        assert_eq!(a.counters.fetches_issued, 7);
        assert_eq!(a.fetch_service.count(), 2);
        assert_eq!(a.fetch_service.max(), 300);
        assert_eq!(a.queue_depth.count(), 1);
        assert_eq!(a.queue_depth.max(), 7);
        assert_eq!(a.stall_duration.count(), 0);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.summary(), (0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        assert!(h.to_json().contains(r#""count":0"#));
    }

    #[test]
    fn timeline_splits_busy_across_slices() {
        let mut t = Timeline::new(2, Nanos::from_millis(10));
        // 15ms of busy on disk 0 spanning 25ms..40ms: slices 2, 3.
        t.add_busy(0, Nanos::from_millis(25), Nanos::from_millis(40));
        t.sample_depth(1, Nanos::from_millis(5), 4);
        let rows = t.rows();
        assert_eq!(rows.len(), 4);
        assert!((rows[2].1[0] - 0.5).abs() < 1e-9, "{:?}", rows[2]);
        assert!((rows[3].1[0] - 1.0).abs() < 1e-9, "{:?}", rows[3]);
        assert_eq!(rows[0].2[1], 4);
        assert_eq!(rows[0].1[1], 0.0);
    }

    #[test]
    fn metrics_probe_folds_events() {
        let mut p = MetricsProbe::new(2, Nanos::from_millis(10));
        let now = Nanos::from_millis(1);
        p.on_event(&Event::PolicyDecision { now, cursor: 0 });
        p.on_event(&Event::CacheMiss {
            now,
            block: BlockId(1),
        });
        p.on_event(&Event::FetchIssued {
            now,
            block: BlockId(1),
            disk: DiskId(1),
            demand: true,
            evicted: Some(BlockId(9)),
        });
        p.on_event(&Event::Eviction {
            now,
            block: BlockId(9),
        });
        p.on_event(&Event::QueueDepth {
            now,
            disk: DiskId(1),
            depth: 1,
        });
        p.on_event(&Event::FetchStarted {
            now,
            block: BlockId(1),
            disk: DiskId(1),
            write: false,
            head_cylinder: 3,
            completes: Nanos::from_millis(6),
        });
        p.on_event(&Event::FetchCompleted {
            now: Nanos::from_millis(6),
            block: BlockId(1),
            disk: DiskId(1),
            write: false,
            service: Nanos::from_millis(5),
            response: Nanos::from_millis(5),
            head_cylinder: 3,
            depth: 0,
            faulted: false,
        });
        p.on_event(&Event::StallBegin {
            now,
            block: BlockId(1),
        });
        p.on_event(&Event::StallEnd {
            now: Nanos::from_millis(6),
            block: BlockId(1),
            stalled: Nanos::from_millis(5),
            cause: StallCause::NoPrefetch,
            charged: Nanos::from_millis(5),
        });
        let m = p.finish();
        assert_eq!(m.totals.counters.decisions, 1);
        assert_eq!(m.totals.counters.cache_misses, 1);
        assert_eq!(m.totals.counters.fetches_issued, 1);
        assert_eq!(m.totals.counters.demand_fetches, 1);
        assert_eq!(m.totals.counters.evictions, 1);
        assert_eq!(
            m.totals.counters.stalls_begun,
            m.totals.counters.stalls_ended
        );
        assert_eq!(m.totals.fetch_service.count(), 1);
        assert_eq!(m.per_disk[1].service.count(), 1);
        assert_eq!(m.per_disk[0].service.count(), 0);
        assert_eq!(m.totals.queue_depth.count(), 1);
        assert_eq!(m.totals.stall_duration.count(), 1);
        // Busy 1ms..6ms lands half in slice 0, half in slice 1... actually
        // 9ms of slice 0 covers 1..10: all 5ms of busy is in slice 0.
        let rows = m.timeline.rows();
        assert!((rows[0].1[1] - 0.5).abs() < 1e-9);
        let json = m.to_json();
        assert!(json.contains(r#""counters""#), "{json}");
        assert!(json.contains(r#""timeline""#), "{json}");
    }

    #[test]
    fn fault_counters_fold_and_stay_out_of_healthy_json() {
        use crate::probe::FaultCause;
        let healthy = Counters::default().to_json();
        assert!(!healthy.contains("fault"), "{healthy}");
        assert!(!healthy.contains("retries"), "{healthy}");
        assert!(!healthy.contains("abandoned"), "{healthy}");
        let mut p = MetricsProbe::new(1, Nanos::from_millis(10));
        let now = Nanos::from_millis(1);
        p.on_event(&Event::FaultInjected {
            now,
            block: BlockId(1),
            disk: DiskId(0),
            write: false,
            cause: FaultCause::MediaError,
            attempt: 1,
        });
        p.on_event(&Event::RetryIssued {
            now,
            block: BlockId(1),
            disk: DiskId(0),
            attempt: 1,
        });
        p.on_event(&Event::RequestAbandoned {
            now,
            block: BlockId(1),
            disk: DiskId(0),
            write: false,
            attempts: 2,
        });
        p.on_event(&Event::DiskDegraded {
            now,
            disk: DiskId(0),
        });
        p.on_event(&Event::DiskRecovered {
            now,
            disk: DiskId(0),
        });
        let mut m = p.finish();
        let other = Counters {
            retries: 2,
            ..Default::default()
        };
        m.totals.counters.merge(&other);
        assert_eq!(m.totals.counters.faults_injected, 1);
        assert_eq!(m.totals.counters.retries, 3);
        assert_eq!(m.totals.counters.requests_abandoned, 1);
        let json = m.totals.counters.to_json();
        assert!(json.contains(r#""faults_injected":1"#), "{json}");
        assert!(json.contains(r#""retries":3"#), "{json}");
        assert!(json.contains(r#""requests_abandoned":1"#), "{json}");
    }

    #[test]
    fn ascii_rendering_has_bars() {
        let mut h = Histogram::new();
        for v in [1_000_000u64, 2_000_000, 2_500_000, 9_000_000] {
            h.record(v);
        }
        let s = h.render_ascii("service", Unit::Millis);
        assert!(s.starts_with("service: n=4"), "{s}");
        assert!(s.contains('#'), "{s}");
        assert!(s.contains("ms"), "{s}");
    }
}
