//! Wall-clock self-profiling for the harness (std-only).
//!
//! The simulated-time side of observability lives in parcache-core
//! (stall provenance, the audit layer); this module is the wall-clock
//! side: where do the harness's own microseconds and allocations go?
//! It mirrors the engine's zero-cost probe design — code is generic over
//! [`Prof`], and the disabled implementation ([`NoopProf`]) carries
//! `ENABLED = false` as an associated constant, so every profiling
//! branch monomorphizes away exactly like the engine's `NoopProbe`
//! branches do.
//!
//! Three instruments:
//!
//! * **Hierarchical span timers** ([`WallProf`], [`Span`]): scoped RAII
//!   guards accumulate *self time* per `a;b;c` path — the time charged
//!   to a span excludes its children, so path times sum to the profiled
//!   wall time exactly and emit directly as flamegraph-compatible
//!   folded-stack lines.
//! * **Per-phase allocation counters**: an injected sampler (the binary's
//!   counting allocator; the library stays `forbid(unsafe_code)`)
//!   attributes heap allocations to the open span the same way.
//! * **Effective parallelism detection** ([`detect_parallelism`]):
//!   `std::thread::available_parallelism` clamped by the cgroup CPU
//!   quota when readable, so a single-core container reports "scaling
//!   not measurable" instead of committing negative-scaling numbers.

use parcache_core::json::{self, Fixed};
use std::sync::Mutex;
use std::time::Instant;

/// A wall-clock profiler the harness's phases are generic over.
///
/// The `ENABLED` constant lets call sites guard with
/// `if P::ENABLED { ... }`: with [`NoopProf`] the branch is
/// const-false and the profiling code is compiled out entirely.
pub trait Prof {
    /// False only for [`NoopProf`]: lets generic code skip profiling
    /// work entirely when monomorphized with the no-op.
    const ENABLED: bool = true;

    /// Opens a nested span; prefer the RAII [`Prof::span`].
    fn enter(&self, name: &'static str);

    /// Closes the innermost open span.
    fn exit(&self);

    /// Opens a span closed when the returned guard drops.
    fn span(&self, name: &'static str) -> Span<'_, Self>
    where
        Self: Sized,
    {
        if Self::ENABLED {
            self.enter(name);
        }
        Span { prof: self }
    }
}

/// RAII guard for one open span; closes it on drop.
pub struct Span<'a, P: Prof> {
    prof: &'a P,
}

impl<P: Prof> Drop for Span<'_, P> {
    fn drop(&mut self) {
        if P::ENABLED {
            self.prof.exit();
        }
    }
}

/// The disabled profiler: all operations are empty and `ENABLED` is
/// false, so profiled code paths monomorphize to their unprofiled
/// selves (the same trick as the engine's `NoopProbe`).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopProf;

impl Prof for NoopProf {
    const ENABLED: bool = false;

    #[inline(always)]
    fn enter(&self, _name: &'static str) {}

    #[inline(always)]
    fn exit(&self) {}
}

/// Accumulated cost of one span path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PathCost {
    /// Self time in microseconds: time inside this path excluding
    /// children, so costs over all paths sum to the profiled wall time.
    self_us: u64,
    /// Heap allocations charged to this path (when a sampler is set).
    allocs: u64,
}

/// Span-stack state behind [`WallProf`]'s mutex.
#[derive(Debug, Default)]
struct Inner {
    /// Open span names, outermost first.
    stack: Vec<&'static str>,
    /// Microseconds since `start` when the current self-time segment
    /// began (last enter or exit).
    segment_from: u64,
    /// Allocation count at the segment start.
    allocs_from: u64,
    /// Accumulated costs keyed by `a;b;c` path, insertion-ordered so
    /// output is deterministic for a deterministic phase sequence.
    paths: Vec<(String, PathCost)>,
}

impl Inner {
    /// Charges the running segment to the currently-open path.
    fn charge(&mut self, now_us: u64, allocs_now: u64) {
        if self.stack.is_empty() {
            self.segment_from = now_us;
            self.allocs_from = allocs_now;
            return;
        }
        let path = self.stack.join(";");
        let d_us = now_us.saturating_sub(self.segment_from);
        let d_allocs = allocs_now.saturating_sub(self.allocs_from);
        match self.paths.iter_mut().find(|(p, _)| *p == path) {
            Some((_, cost)) => {
                cost.self_us += d_us;
                cost.allocs += d_allocs;
            }
            None => self.paths.push((
                path,
                PathCost {
                    self_us: d_us,
                    allocs: d_allocs,
                },
            )),
        }
        self.segment_from = now_us;
        self.allocs_from = allocs_now;
    }
}

/// The enabled profiler: accumulates self time (and allocations, when a
/// sampler is injected) per hierarchical span path.
///
/// Span operations take a mutex — [`WallProf`] instruments the
/// harness's orchestration phases, which open a handful of spans per
/// run, not the simulator hot path.
pub struct WallProf {
    start: Instant,
    /// Samples the process-wide allocation count; `None` when the
    /// binary's counting allocator is not wired in.
    alloc_sampler: Option<fn() -> u64>,
    inner: Mutex<Inner>,
}

impl WallProf {
    /// A profiler with no allocation sampling.
    pub(crate) fn new() -> WallProf {
        WallProf::with_alloc_sampler_opt(None)
    }

    /// A profiler charging allocation deltas from `sampler` to spans.
    pub fn with_alloc_sampler(sampler: fn() -> u64) -> WallProf {
        WallProf::with_alloc_sampler_opt(Some(sampler))
    }

    fn with_alloc_sampler_opt(alloc_sampler: Option<fn() -> u64>) -> WallProf {
        WallProf {
            start: Instant::now(),
            alloc_sampler,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn sample_allocs(&self) -> u64 {
        self.alloc_sampler.map_or(0, |f| f())
    }

    /// Total wall time since construction, in microseconds.
    pub fn wall_us(&self) -> u64 {
        self.now_us()
    }

    /// The accumulated `(path, self_us, allocs)` rows, insertion order.
    /// Open spans are not charged until they exit.
    pub(crate) fn rows(&self) -> Vec<(String, u64, u64)> {
        let inner = self.inner.lock().expect("profiler mutex poisoned");
        inner
            .paths
            .iter()
            .map(|(p, c)| (p.clone(), c.self_us, c.allocs))
            .collect()
    }

    /// Flamegraph-compatible folded-stack text: one `path self_us` line
    /// per span path, self times in microseconds as the sample unit.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, self_us, _) in self.rows() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&self_us.to_string());
            out.push('\n');
        }
        out
    }

    /// The span table as a JSON array.
    pub fn spans_json(&self) -> String {
        json::array(self.rows().into_iter().map(|(path, self_us, allocs)| {
            json::object()
                .field("path", path)
                .field("self_us", self_us)
                .field("allocs", allocs)
        }))
    }
}

impl Default for WallProf {
    fn default() -> WallProf {
        WallProf::new()
    }
}

impl Prof for WallProf {
    fn enter(&self, name: &'static str) {
        let now = self.now_us();
        let allocs = self.sample_allocs();
        let mut inner = self.inner.lock().expect("profiler mutex poisoned");
        inner.charge(now, allocs);
        inner.stack.push(name);
    }

    fn exit(&self) {
        let now = self.now_us();
        let allocs = self.sample_allocs();
        let mut inner = self.inner.lock().expect("profiler mutex poisoned");
        inner.charge(now, allocs);
        inner
            .stack
            .pop()
            .expect("span exit without a matching enter");
    }
}

/// Wall-clock telemetry for one sweep worker thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items (cells, cases) this worker executed.
    pub items: u64,
    /// Microseconds spent inside item closures.
    pub busy_us: u64,
    /// Microseconds from thread start to thread end.
    pub wall_us: u64,
    /// Heap allocations made *inside* item closures, sampled from a
    /// thread-local counter when the embedding binary provides one
    /// (0 otherwise). Excludes worker setup — thread spawn, queue
    /// bookkeeping, result collection — so summed over workers it is a
    /// pure function of the item set, identical at any thread count.
    pub work_allocs: u64,
    /// Items this worker ran that ended in failure (panicked or timed
    /// out) under the fail-soft executor. 0 on plain executors, where a
    /// failure aborts the run instead of being counted.
    pub failed: u64,
    /// Items this worker drained as skipped after a fail-fast halt.
    pub skipped: u64,
    /// Extra attempts this worker spent retrying failed items (an item
    /// that succeeds on its third attempt contributes 2).
    pub retries: u64,
}

impl WorkerStats {
    /// Microseconds the worker was not executing items: queue waits,
    /// scheduling, and the tail after the queue drained.
    pub(crate) fn idle_us(&self) -> u64 {
        self.wall_us.saturating_sub(self.busy_us)
    }

    /// These stats as a JSON object.
    pub fn to_json(&self) -> String {
        json::object()
            .field("items", self.items)
            .field("busy_us", self.busy_us)
            .field("idle_us", self.idle_us())
            .field("wall_us", self.wall_us)
            .field("work_allocs", self.work_allocs)
            .field("failed", self.failed)
            .field("skipped", self.skipped)
            .field("retries", self.retries)
            .finish()
    }
}

/// What the machine can actually run in parallel, as far as the harness
/// can tell from inside its container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveParallelism {
    /// `std::thread::available_parallelism` (1 when undeterminable).
    pub available: usize,
    /// CPU-cores-worth of cgroup quota (`cpu.max` on v2,
    /// `cpu.cfs_quota_us / cpu.cfs_period_us` on v1), when readable and
    /// bounded.
    pub cgroup_quota: Option<f64>,
    /// The binding estimate: the quota when it is tighter than the
    /// visible CPU count, the CPU count otherwise.
    pub effective: f64,
}

impl EffectiveParallelism {
    /// True when thread-scaling measurements are meaningful here: with
    /// fewer than two effective cores, a multi-thread run measures
    /// timeslicing overhead, not scaling.
    pub fn scaling_measurable(&self) -> bool {
        self.effective >= 2.0
    }

    /// This detection as a JSON object.
    pub fn to_json(&self) -> String {
        json::object()
            .field("available", self.available)
            .field("cgroup_quota", self.cgroup_quota.map(|q| Fixed(q, 2)))
            .field("effective", Fixed(self.effective, 2))
            .field("scaling_measurable", self.scaling_measurable())
            .finish()
    }
}

/// Parses a cgroup-v2 `cpu.max` file: `"max 100000"` (unbounded) or
/// `"200000 100000"` (quota period) — cores = quota / period.
fn parse_cpu_max(s: &str) -> Option<f64> {
    let mut it = s.split_whitespace();
    let quota = it.next()?;
    if quota == "max" {
        return None;
    }
    let quota: f64 = quota.parse().ok()?;
    let period: f64 = it.next().unwrap_or("100000").parse().ok()?;
    if quota <= 0.0 || period <= 0.0 {
        return None;
    }
    Some(quota / period)
}

/// Reads the cgroup CPU quota in cores, v2 first then v1; `None` when
/// unreadable or unbounded.
fn cgroup_quota() -> Option<f64> {
    if let Ok(s) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        return parse_cpu_max(&s);
    }
    let quota: f64 = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    if quota <= 0.0 {
        // -1 means unbounded.
        return None;
    }
    let period: f64 = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    if period <= 0.0 {
        return None;
    }
    Some(quota / period)
}

/// Detects the effective parallelism of the current environment.
pub fn detect_parallelism() -> EffectiveParallelism {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let quota = cgroup_quota();
    let effective = match quota {
        Some(q) => q.min(available as f64),
        None => available as f64,
    };
    EffectiveParallelism {
        available,
        cgroup_quota: quota,
        effective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_prof_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopProf>(), 0);
        // Pin the associated constants: compile-time checks that the
        // no-op stays disabled and the real profiler enabled.
        const { assert!(!NoopProf::ENABLED) };
        const { assert!(WallProf::ENABLED) };
        // Spans through the no-op compile and cost nothing observable.
        let p = NoopProf;
        let _outer = p.span("outer");
        let _inner = p.span("inner");
    }

    #[test]
    fn self_times_nest_and_sum_to_profiled_wall() {
        let p = WallProf::new();
        {
            let _a = p.span("sweep");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = p.span("cells");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _c = p.span("csv");
            }
        }
        let rows = p.rows();
        let paths: Vec<&str> = rows.iter().map(|(p, _, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["sweep", "sweep;cells", "sweep;csv"]);
        let total: u64 = rows.iter().map(|(_, us, _)| us).sum();
        assert!(total <= p.wall_us(), "{total} > {}", p.wall_us());
        // Both sleeps actually registered, in their own paths.
        assert!(rows[0].1 >= 1_000, "sweep self {}", rows[0].1);
        assert!(rows[1].1 >= 1_000, "cells self {}", rows[1].1);
    }

    #[test]
    fn folded_output_is_one_sample_line_per_path() {
        let p = WallProf::new();
        {
            let _a = p.span("a");
            let _b = p.span("b");
        }
        let folded = p.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("a "), "{folded}");
        assert!(lines[1].starts_with("a;b "), "{folded}");
        for l in &lines {
            let (path, us) = l.rsplit_once(' ').expect("path us");
            assert!(!path.is_empty());
            us.parse::<u64>().expect("sample count parses");
        }
    }

    #[test]
    fn alloc_sampler_charges_deltas_to_the_open_span() {
        fn fake_counter() -> u64 {
            use std::sync::atomic::{AtomicU64, Ordering};
            static N: AtomicU64 = AtomicU64::new(0);
            N.fetch_add(7, Ordering::Relaxed)
        }
        let p = WallProf::with_alloc_sampler(fake_counter);
        {
            let _a = p.span("alloc-heavy");
        }
        let rows = p.rows();
        assert_eq!(rows.len(), 1);
        // The fake counter advances by 7 per sample; enter and exit each
        // sample once, so the span sees exactly one delta of 7.
        assert_eq!(rows[0].2, 7, "{rows:?}");
    }

    #[test]
    fn cpu_max_parses_bounded_and_unbounded() {
        assert_eq!(parse_cpu_max("max 100000\n"), None);
        assert_eq!(parse_cpu_max("200000 100000\n"), Some(2.0));
        assert_eq!(parse_cpu_max("50000 100000"), Some(0.5));
        assert_eq!(parse_cpu_max("garbage"), None);
        assert_eq!(parse_cpu_max("-1 100000"), None);
    }

    #[test]
    fn detection_reports_consistent_bounds() {
        let p = detect_parallelism();
        assert!(p.available >= 1);
        assert!(p.effective >= 0.0 && p.effective <= p.available as f64);
        let json = p.to_json();
        assert!(json.contains(r#""available":"#), "{json}");
        assert!(json.contains(r#""scaling_measurable":"#), "{json}");
    }

    #[test]
    fn worker_stats_account_idle_as_the_complement() {
        let w = WorkerStats {
            items: 3,
            busy_us: 40,
            wall_us: 100,
            work_allocs: 12,
            failed: 1,
            skipped: 2,
            retries: 4,
        };
        assert_eq!(w.idle_us(), 60);
        assert_eq!(
            w.to_json(),
            r#"{"items":3,"busy_us":40,"idle_us":60,"wall_us":100,"work_allocs":12,"failed":1,"skipped":2,"retries":4}"#
        );
    }
}
