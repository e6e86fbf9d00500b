//! The event-driven execution engine.
//!
//! The engine replays a trace against a disk array under one policy and
//! accounts elapsed time exactly as the paper's figures do: elapsed =
//! application compute + driver overhead + I/O stall.
//!
//! Timing model (§2.1, §2.6):
//!
//! * The application alternates compute and references; compute times come
//!   from the trace.
//! * Each issued I/O charges 0.5 ms of driver overhead to the CPU — it is
//!   inserted into the application's CPU timeline and delays subsequent
//!   references.
//! * A reference to a resident block is free (its cost is inside the
//!   traced compute times); a reference to a missing block stalls until
//!   the block arrives.
//! * Issuing a fetch reserves a cache frame immediately: the eviction
//!   victim becomes unavailable at issue time.
//!
//! Policies run at every decision point: simulation start, each
//! consumption, each fetch completion, and demand misses.

use crate::cache::{Cache, Knowledge, MissingTracker};
use crate::config::{DiskModelKind, SimConfig};
use crate::json::{self, Fixed, Raw};
use crate::oracle::Oracle;
use crate::policy::{Indexes, Policy, PolicyKind};
use crate::predict::HintStats;
use crate::probe::{Event, FaultCause, NoopProbe, Probe, StallCause};
use parcache_disk::coarse::CoarseDisk;
use parcache_disk::disk::{DiskStats, EnqueueOutcome, ReqKind};
use parcache_disk::fault::FaultyDisk;
use parcache_disk::hp97560::Hp97560;
use parcache_disk::model::DiskModel;
use parcache_disk::uniform::UniformDisk;
use parcache_disk::{DiskArray, Layout};
use parcache_trace::Trace;
use parcache_types::{BitSet, BlockId, DiskId, FastMap, Nanos};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// How many recent observations forestall's estimator keeps (§5: "the
/// most recent 100 disk access times and the most recent 100
/// interreference CPU times").
const HISTORY: usize = 100;

/// Recent fetch-time and compute-time observations, for forestall.
///
/// Window sums are maintained incrementally — an observation is added on
/// push and subtracted when it slides out — so the averages and ratio the
/// estimator reads at every decision point are O(1) instead of re-summing
/// up to `HISTORY` entries. The arithmetic is exact (`u64` adds and
/// subtracts), so results are bit-identical to re-summing the window.
/// The means are divided out on the first read after a push and kept
/// until the next one: forestall may read them several times between
/// pushes, or not at all.
#[derive(Debug)]
pub(crate) struct FetchHistory {
    per_disk_fetch: Vec<VecDeque<Nanos>>,
    per_disk_sum: Vec<Nanos>,
    /// Each disk's window mean, rounded to the nearest nanosecond and as
    /// an `f64`, once read since the disk's last push.
    per_disk_mean: Vec<Cell<Option<(Nanos, f64)>>>,
    compute: VecDeque<Nanos>,
    compute_sum: Nanos,
    /// The compute window's mean as an `f64`, once read since the last
    /// push.
    compute_mean: Cell<Option<f64>>,
}

impl FetchHistory {
    fn new(disks: usize) -> FetchHistory {
        FetchHistory {
            per_disk_fetch: vec![VecDeque::with_capacity(HISTORY); disks],
            per_disk_sum: vec![Nanos::ZERO; disks],
            per_disk_mean: vec![Cell::new(None); disks],
            compute: VecDeque::with_capacity(HISTORY),
            compute_sum: Nanos::ZERO,
            compute_mean: Cell::new(None),
        }
    }

    fn push_fetch(&mut self, disk: usize, t: Nanos) {
        let q = &mut self.per_disk_fetch[disk];
        if q.len() == HISTORY {
            self.per_disk_sum[disk] -= q.pop_front().expect("non-empty window");
        }
        q.push_back(t);
        self.per_disk_sum[disk] += t;
        self.per_disk_mean[disk].set(None);
    }

    fn push_compute(&mut self, t: Nanos) {
        if self.compute.len() == HISTORY {
            self.compute_sum -= self.compute.pop_front().expect("non-empty window");
        }
        self.compute.push_back(t);
        self.compute_sum += t;
        self.compute_mean.set(None);
    }

    /// `disk`'s window mean, rounded and as an `f64`; the window must be
    /// non-empty.
    fn fetch_mean(&self, disk: usize) -> (Nanos, f64) {
        let cell = &self.per_disk_mean[disk];
        cell.get().unwrap_or_else(|| {
            let sum = self.per_disk_sum[disk];
            let n = self.per_disk_fetch[disk].len() as u64;
            let mean = (sum.div_rounded(n), sum.as_nanos() as f64 / n as f64);
            cell.set(Some(mean));
            mean
        })
    }

    /// The compute window's mean as an `f64`; the window must be
    /// non-empty.
    fn compute_mean(&self) -> f64 {
        self.compute_mean.get().unwrap_or_else(|| {
            let mean = self.compute_sum.as_nanos() as f64 / self.compute.len() as f64;
            self.compute_mean.set(Some(mean));
            mean
        })
    }

    /// Mean of the recent fetch times on `disk`, rounded to the nearest
    /// nanosecond, or `None` with no history.
    pub(crate) fn avg_fetch(&self, disk: usize) -> Option<Nanos> {
        if self.per_disk_fetch[disk].is_empty() {
            return None;
        }
        Some(self.fetch_mean(disk).0)
    }

    /// Mean of the recent inter-reference compute times, rounded to the
    /// nearest nanosecond, or `None`.
    pub(crate) fn avg_compute(&self) -> Option<Nanos> {
        if self.compute.is_empty() {
            return None;
        }
        Some(self.compute_sum.div_rounded(self.compute.len() as u64))
    }

    /// The ratio of recent fetch-time sum to recent compute-time sum on
    /// `disk` — forestall's dynamic F — or `None` without history.
    pub(crate) fn fetch_compute_ratio(&self, disk: usize) -> Option<f64> {
        if self.per_disk_fetch[disk].is_empty() || self.compute_sum == Nanos::ZERO {
            return None;
        }
        // Normalize: both windows may hold fewer than HISTORY entries.
        Some(self.fetch_mean(disk).1 / self.compute_mean())
    }
}

/// Charges one I/O's driver overhead at `now`: the driver's own time,
/// and the CPU, which runs it after whatever it is already busy with.
fn charge_driver(driver_time: &mut Nanos, cpu_done: &mut Nanos, now: Nanos, overhead: Nanos) {
    *driver_time += overhead;
    *cpu_done = (*cpu_done).max(now) + overhead;
}

/// The mutable view a policy gets at a decision point.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: Nanos,
    /// Index of the next unconsumed reference.
    pub cursor: usize,
    /// Full-knowledge oracle over the trace.
    pub oracle: &'a Oracle,
    /// Cache state.
    pub cache: &'a mut Cache,
    /// The disk array (free/busy queries).
    pub array: &'a mut DiskArray,
    /// The run configuration.
    pub config: &'a SimConfig,
    /// Index of missing blocks' next occurrences; `None` unless the
    /// policy declared it (see [`Ctx::missing`]).
    missing: Option<&'a mut MissingTracker>,
    /// Recent fetch/compute observations; `None` unless the policy
    /// declared them (see [`Ctx::history`]).
    history: Option<&'a FetchHistory>,
    cpu_done: &'a mut Nanos,
    driver_time: &'a mut Nanos,
    fetches: &'a mut u64,
    /// The engine's probe, for events raised inside policy calls; `None`
    /// when it is [`NoopProbe`], and then no event is built (Ctx must
    /// stay non-generic: [`Policy`] is a trait object).
    emit: Option<&'a mut dyn FnMut(&Event)>,
    /// True inside [`Policy::on_miss`], so issued fetches are tagged
    /// demand rather than prefetch.
    demand: bool,
    /// Fetches whose enqueue an out-of-service drive rejected during this
    /// policy call; the engine converts them into driver faults after the
    /// call returns (see `Engine::settle_rejections`).
    rejected: &'a mut Vec<BlockId>,
    /// One bit per compact block index, set on eviction: stall provenance
    /// uses it to tell a re-miss on a once-resident block
    /// ([`StallCause::EvictionRefetch`]) from a plain
    /// [`StallCause::NoPrefetch`] miss.
    evicted_ever: &'a mut BitSet,
}

impl Ctx<'_> {
    /// Issues a fetch of block `idx`, evicting `evict` (required when the
    /// cache has no free frame). Charges driver overhead to the CPU
    /// timeline and enqueues the request on the block's disk. This is the
    /// hot-path entry: everything stays in compact-index space except the
    /// O(1) index-to-block translations the disks and probes need.
    ///
    /// # Panics
    ///
    /// Panics on cache-invariant violations (fetching a resident block,
    /// evicting a non-resident block, overcommitting frames).
    pub fn issue_fetch_idx(&mut self, idx: u32, evict_idx: Option<u32>) {
        let block = self.oracle.block_of(idx);
        let evict = evict_idx.map(|e| self.oracle.block_of(e));
        self.cache.start_fetch(idx, evict_idx);
        if let Some(missing) = self.missing.as_deref_mut() {
            let next = self.cache.next_use(idx, self.cursor, self.oracle);
            missing.on_fetch_issued_idx(idx, next, self.oracle);
            if let Some(e) = evict_idx {
                let next = self.cache.next_use(e, self.cursor, self.oracle);
                missing.on_evicted_idx(e, next, self.oracle);
            }
        }
        if let Some(e) = evict_idx {
            // Every eviction of a resident block flows through here
            // (abandoning an in-flight fetch is not an eviction: the
            // block was never resident).
            self.evicted_ever.insert(e);
        }
        charge_driver(
            self.driver_time,
            self.cpu_done,
            self.now,
            self.config.driver_overhead,
        );
        *self.fetches += 1;
        let now = self.now;
        if let Some(emit) = &mut self.emit {
            if let Some(e) = evict {
                emit(&Event::Eviction { now, block: e });
            }
            emit(&Event::FetchIssued {
                now,
                block,
                disk: self.array.disk_of(block),
                demand: self.demand,
                evicted: evict,
            });
        }
        let emit = &mut self.emit;
        let outcome = self
            .array
            .enqueue_observed(now, block, ReqKind::Read, |d, e| {
                if let Some(emit) = emit {
                    emit(&Event::from_disk(now, d, e));
                }
            });
        if outcome.is_rejected() {
            // The drive is mid-outage: the request never reached its
            // queue. The frame stays reserved; the driver retries (or
            // abandons) once the policy call returns.
            self.rejected.push(block);
        }
    }

    /// The index of missing blocks' next occurrences.
    ///
    /// # Panics
    ///
    /// Panics unless the policy declared it in [`Policy::indexes`]: the
    /// engine does not maintain an undeclared index, so a read would be
    /// stale.
    pub(crate) fn missing(&self) -> &MissingTracker {
        self.missing
            .as_deref()
            .expect("the policy reads the missing-block index without declaring it")
    }

    /// The recent fetch and compute observations (forestall's
    /// estimator).
    ///
    /// # Panics
    ///
    /// Panics unless the policy declared them in [`Policy::indexes`].
    pub(crate) fn history(&self) -> &FetchHistory {
        self.history
            .expect("the policy reads the fetch history without declaring it")
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Trace name.
    pub trace: String,
    /// Policy name.
    pub policy: String,
    /// Array size.
    pub disks: usize,
    /// Total elapsed time (always `compute + driver + stall`).
    pub elapsed: Nanos,
    /// Application compute time (fixed by the trace).
    pub compute: Nanos,
    /// Driver overhead (0.5 ms per issued I/O).
    pub driver: Nanos,
    /// I/O stall time.
    pub stall: Nanos,
    /// The stall decomposed by cause. The engine attributes every charged
    /// stall nanosecond to exactly one [`StallCause`], so
    /// `stall_by_cause.total() == stall` always (panic-enforced at the
    /// end of every run).
    pub stall_by_cause: StallBreakdown,
    /// Fetches issued.
    pub fetches: u64,
    /// Write-behind flushes issued (0 in the paper's read-only setting).
    pub writes: u64,
    /// Mean disk service time per request (includes write-behind
    /// flushes when the writes extension is enabled).
    pub avg_fetch_time: Nanos,
    /// Mean per-disk utilization (busy / elapsed, averaged over disks).
    pub avg_disk_utilization: f64,
    /// Per-disk statistics.
    pub per_disk: Vec<DiskStats>,
    /// Fault and retry accounting; `Some` exactly when the run's
    /// [`FaultPlan`](parcache_disk::fault::FaultPlan) was non-empty, so
    /// healthy-run reports render byte-identically to reports from before
    /// fault support existed.
    pub fault: Option<FaultSummary>,
    /// Prediction accounting; `Some` exactly when the run used a
    /// predicted hint source ([`HintMode::Predicted`]), so oracle-hint
    /// reports render byte-identically to reports from before hint
    /// sources existed.
    ///
    /// [`HintMode::Predicted`]: crate::predict::HintMode::Predicted
    pub hints: Option<HintStats>,
}

/// Fault, retry, and degraded-time accounting for a run executed under a
/// non-empty fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// Faults charged to requests: media errors on completion plus
    /// outage rejections at enqueue. Always equals
    /// `retries + abandoned` — every fault is answered by exactly one
    /// retry or one abandonment.
    pub faults_injected: u64,
    /// Driver retries issued after backoff.
    pub retries: u64,
    /// Requests the driver gave up on (retry budget or timeout spent,
    /// plus every faulted best-effort write).
    pub abandoned: u64,
    /// Declared degraded time (fail-slow or outage windows) per disk,
    /// clipped to the run's elapsed time.
    pub per_disk_degraded: Vec<Nanos>,
    /// Fraction of disk-time the array was out of its declared degraded
    /// windows: `1 − Σ degraded / (disks × elapsed)`.
    pub availability: f64,
}

impl FaultSummary {
    /// This summary as a JSON object.
    pub(crate) fn to_json(&self) -> String {
        json::object()
            .field("faults_injected", self.faults_injected)
            .field("retries", self.retries)
            .field("abandoned", self.abandoned)
            .array(
                "per_disk_degraded_ns",
                self.per_disk_degraded.iter().map(|d| d.as_nanos()),
            )
            .field("availability", Fixed(self.availability, 6))
            .finish()
    }

    /// Total declared degraded time across the array.
    pub(crate) fn total_degraded(&self) -> Nanos {
        self.per_disk_degraded.iter().copied().sum()
    }
}

/// Stall time decomposed by [`StallCause`].
///
/// Each stall window is charged to exactly one cause, and only the part
/// of the window not accounted to driver overhead is charged — so the
/// five components sum to the report's `stall` field exactly, with no
/// rounding or residue. See DESIGN.md "Stall provenance".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallBreakdown {
    /// A fetch was issued but still in flight at the reference, with the
    /// block itself on the platter of a healthy drive.
    pub late_prefetch: Nanos,
    /// A demand miss on a block never fetched (nor previously resident).
    pub no_prefetch: Nanos,
    /// The awaited fetch was queued behind other work, or its drive was
    /// inside a declared degraded window.
    pub congestion: Nanos,
    /// The stall overlapped driver retry/backoff for the awaited block.
    pub retry: Nanos,
    /// A demand miss on a block that was resident earlier, then evicted.
    pub eviction_refetch: Nanos,
}

impl StallBreakdown {
    /// All-zero breakdown (the state before any stall is charged).
    pub(crate) const ZERO: StallBreakdown = StallBreakdown {
        late_prefetch: Nanos::ZERO,
        no_prefetch: Nanos::ZERO,
        congestion: Nanos::ZERO,
        retry: Nanos::ZERO,
        eviction_refetch: Nanos::ZERO,
    };

    /// The component charged to `cause`.
    pub fn get(&self, cause: StallCause) -> Nanos {
        match cause {
            StallCause::LatePrefetch => self.late_prefetch,
            StallCause::NoPrefetch => self.no_prefetch,
            StallCause::DiskCongestion => self.congestion,
            StallCause::FaultRetry => self.retry,
            StallCause::EvictionRefetch => self.eviction_refetch,
        }
    }

    /// Charges `t` to `cause`.
    pub(crate) fn add(&mut self, cause: StallCause, t: Nanos) {
        match cause {
            StallCause::LatePrefetch => self.late_prefetch += t,
            StallCause::NoPrefetch => self.no_prefetch += t,
            StallCause::DiskCongestion => self.congestion += t,
            StallCause::FaultRetry => self.retry += t,
            StallCause::EvictionRefetch => self.eviction_refetch += t,
        }
    }

    /// Sum of all components; equals the report's `stall` exactly.
    pub fn total(&self) -> Nanos {
        StallCause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// This breakdown as a JSON object keyed by cause name, in
    /// nanoseconds.
    pub(crate) fn to_json(self) -> String {
        StallCause::ALL
            .iter()
            .fold(json::object(), |o, &c| {
                o.field(c.name(), self.get(c).as_nanos())
            })
            .finish()
    }
}

impl Default for StallBreakdown {
    fn default() -> StallBreakdown {
        StallBreakdown::ZERO
    }
}

impl Report {
    /// Elapsed time in seconds (the paper's reporting unit).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Column names for [`to_csv_row`](Report::to_csv_row).
    pub fn csv_header() -> &'static str {
        "trace,policy,disks,elapsed_s,compute_s,driver_s,stall_s,fetches,writes,avg_fetch_ms,avg_disk_utilization"
    }

    /// This report as one CSV row matching [`csv_header`] — plus five
    /// fault-accounting columns (faults injected, retries, abandoned,
    /// degraded seconds, availability) when the run had a fault plan.
    ///
    /// [`csv_header`]: Report::csv_header
    pub fn to_csv_row(&self) -> String {
        let mut row = format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{},{},{:.4},{:.4}",
            self.trace,
            self.policy,
            self.disks,
            self.elapsed.as_secs_f64(),
            self.compute.as_secs_f64(),
            self.driver.as_secs_f64(),
            self.stall.as_secs_f64(),
            self.fetches,
            self.writes,
            self.avg_fetch_time.as_millis_f64(),
            self.avg_disk_utilization,
        );
        if let Some(f) = &self.fault {
            row.push_str(&format!(
                ",{},{},{},{:.6},{:.6}",
                f.faults_injected,
                f.retries,
                f.abandoned,
                f.total_degraded().as_secs_f64(),
                f.availability,
            ));
        }
        row
    }

    /// This report as a JSON object. The `failed`, `fault` and `hints`
    /// fields appear only on faulted or predicted-hint runs, so a healthy
    /// oracle-hint report keeps the shape it had before either existed.
    pub fn to_json(&self) -> String {
        let per_disk = self.per_disk.iter().map(|d| {
            json::object()
                .field("served", d.served)
                .field("busy_ns", d.busy.as_nanos())
                .field("avg_service_ms", Fixed(d.avg_service().as_millis_f64(), 4))
                .field(
                    "avg_response_ms",
                    Fixed(d.avg_response().as_millis_f64(), 4),
                )
                .opt("failed", json::nonzero(d.failed))
        });
        json::object()
            .field("trace", &self.trace)
            .field("policy", &self.policy)
            .field("disks", self.disks)
            .field("elapsed_s", Fixed(self.elapsed.as_secs_f64(), 6))
            .field("compute_s", Fixed(self.compute.as_secs_f64(), 6))
            .field("driver_s", Fixed(self.driver.as_secs_f64(), 6))
            .field("stall_s", Fixed(self.stall.as_secs_f64(), 6))
            .field("stall_by_cause", Raw(self.stall_by_cause.to_json()))
            .field("fetches", self.fetches)
            .field("writes", self.writes)
            .field(
                "avg_fetch_ms",
                Fixed(self.avg_fetch_time.as_millis_f64(), 4),
            )
            .field("avg_disk_utilization", Fixed(self.avg_disk_utilization, 4))
            .array("per_disk", per_disk)
            .opt("fault", self.fault.as_ref().map(|f| Raw(f.to_json())))
            .opt("hints", self.hints.as_ref().map(|h| Raw(h.to_json())))
            .finish()
    }
}

/// Builds the drive model for position `index` in the array: the
/// configured base model, wrapped in a [`FaultyDisk`] exactly when the
/// fault plan names that drive. Un-faulted drives are built bare, so an
/// empty plan produces the same array as a build without fault support.
fn build_model(config: &SimConfig, index: usize) -> Box<dyn DiskModel> {
    let base: Box<dyn DiskModel> = match config.disk_model {
        DiskModelKind::Hp97560 => Box::new(Hp97560::new()),
        DiskModelKind::Hp97560NoReadahead => Box::new(Hp97560::without_readahead()),
        DiskModelKind::Coarse => Box::new(CoarseDisk::new()),
        DiskModelKind::Uniform(f) => Box::new(UniformDisk::new(f)),
    };
    match config.faults.for_disk(index) {
        Some(faults) => Box::new(FaultyDisk::new(
            base,
            faults,
            config.faults.rng_for_disk(index),
        )),
        None => base,
    }
}

/// Runs `trace` under `policy` and `config`; convenience wrapper that
/// builds the policy from its kind.
pub fn simulate(trace: &Trace, policy: PolicyKind, config: &SimConfig) -> Report {
    simulate_probed(trace, policy, config, &mut NoopProbe)
}

/// Runs `trace` under an already-constructed policy.
pub fn simulate_with(trace: &Trace, policy: &mut dyn Policy, config: &SimConfig) -> Report {
    simulate_with_probed(trace, policy, config, &mut NoopProbe)
}

/// [`simulate`], reporting every simulation [`Event`] to `probe`.
pub fn simulate_probed<P: Probe>(
    trace: &Trace,
    policy: PolicyKind,
    config: &SimConfig,
    probe: &mut P,
) -> Report {
    let mut p = policy.build(trace, config);
    simulate_with_probed(trace, p.as_mut(), config, probe)
}

/// [`simulate_with`], reporting every simulation [`Event`] to `probe`.
pub fn simulate_with_probed<P: Probe>(
    trace: &Trace,
    policy: &mut dyn Policy,
    config: &SimConfig,
    probe: &mut P,
) -> Report {
    Prepared::new(trace, config).run(policy, probe)
}

/// The set-up every run of one trace under one [`SimConfig`] shares: the
/// configuration itself, the policies' oracle (for a predicted mode, the
/// output of the deterministic predictor pre-pass), the compact index of
/// every reference, and, built on first use, the reversed oracle reverse
/// aggressive plans over.
///
/// Runs borrow it and never change it, so repeated runs of one trace —
/// the tuned reverse-aggressive search runs eight — build it once. The
/// engine reads neither reverse-aggressive parameter, so the search runs
/// each of its policies, built from its own grid configuration, on the
/// one value built from the base configuration.
/// [`simulate_with_probed`] builds a one-shot value per call.
pub struct Prepared<'t> {
    trace: &'t Trace,
    config: SimConfig,
    oracle: Oracle,
    /// Prediction accounting from the hint-source pre-pass; `Some`
    /// exactly when the hint mode is predicted.
    hint_stats: Option<HintStats>,
    /// Compact index of each trace reference, so the main loop's
    /// residency checks and Belady refreshes never hash. `None` when the
    /// oracle discloses every reference exactly: its own per-position
    /// indices are then the same array.
    ref_idx: Option<Vec<u32>>,
    reversed: std::sync::OnceLock<Oracle>,
    /// What is left to run after each reference, built on the first
    /// [`Prepared::run_until`] that can abandon.
    ahead: std::sync::OnceLock<WorkAhead>,
}

impl<'t> Prepared<'t> {
    /// Builds the shared state of runs of `trace` under `config`.
    pub fn new(trace: &'t Trace, config: &SimConfig) -> Prepared<'t> {
        let layout = Layout::striped(config.disks);
        // Policies only know what the hint source told them. Under the
        // oracle mode that is the application's disclosed subsequence;
        // under a predicted mode it is the epoch pre-pass of an online
        // predictor (wrong guesses included — the policy prefetches
        // them, paying the wasted bandwidth). Undisclosed blocks still
        // receive compact indices (with empty occurrence lists) so the
        // cache can track them densely when the application
        // demand-misses on them.
        let (oracle, hint_stats) = match config.hint_mode {
            crate::predict::HintMode::Oracle => {
                let oracle = match config.hints {
                    crate::hints::HintSpec::Full => Oracle::new(trace, layout),
                    ref spec => {
                        let mask = spec.mask(trace.requests.len());
                        crate::hints::hinted_oracle(trace, layout, &mask)
                    }
                };
                (oracle, None)
            }
            crate::predict::HintMode::Predicted(kind) => {
                let mut source = kind.build();
                let (oracle, stats) = crate::predict::predicted_oracle(
                    trace,
                    layout,
                    source.as_mut(),
                    crate::predict::DEFAULT_EPOCH,
                );
                (oracle, Some(stats))
            }
        };
        let ref_idx = (!fully_hinted(trace, config)).then(|| {
            trace
                .requests
                .iter()
                .map(|r| {
                    oracle
                        .index_of(r.block)
                        .expect("every trace block is in the indexed universe")
                })
                .collect()
        });
        Prepared {
            trace,
            config: config.clone(),
            oracle,
            hint_stats,
            ref_idx,
            reversed: std::sync::OnceLock::new(),
            ahead: std::sync::OnceLock::new(),
        }
    }

    /// The oracle over the reversed disclosed sequence that reverse
    /// aggressive's offline pass plans over, built on first use.
    pub fn reversed_oracle(&self) -> &Oracle {
        self.reversed.get_or_init(|| {
            crate::algs::reverse::reversed_oracle(
                self.trace,
                Layout::striped(self.config.disks),
                &self.config.hints,
            )
        })
    }

    /// Runs the trace under `policy` and this value's configuration,
    /// reporting every simulation [`Event`] to `probe`.
    pub(crate) fn run<P: Probe>(&self, policy: &mut dyn Policy, probe: &mut P) -> Report {
        self.run_until(policy, probe, &NoCutoff)
            .expect("a run without a cutoff is never abandoned")
    }

    /// Runs the trace under `policy` and this value's configuration,
    /// reporting every simulation [`Event`] to `probe`, abandoned as soon
    /// as `cutoff` rejects a lower bound on the run's final elapsed time.
    /// The engine computes the bound after every consumed reference (see
    /// [`Cutoff`]); with `NoCutoff` it computes nothing.
    pub fn run_until<P: Probe, C: Cutoff>(
        &self,
        policy: &mut dyn Policy,
        probe: &mut P,
        cutoff: &C,
    ) -> Result<Report, Abandoned> {
        let ahead = C::ENABLED.then(|| self.work_ahead());
        Engine::new(self, self.knowledge(), policy.indexes()).run(policy, probe, cutoff, ahead)
    }

    /// The per-reference inputs of the remaining-time bound, built on
    /// first use from the trace itself: under partial or predicted hints
    /// the oracle is not the trace.
    fn work_ahead(&self) -> &WorkAhead {
        self.ahead.get_or_init(|| {
            let ref_idx = self
                .ref_idx
                .as_deref()
                .unwrap_or_else(|| self.oracle.seq_indices());
            WorkAhead::new(self.trace, ref_idx, self.oracle.num_blocks())
        })
    }

    /// What the run's policies know, which fixes its cache's Belady
    /// structure: exact under oracle hints that disclose every
    /// reference, where absence of a disclosed future is exact
    /// knowledge too; otherwise the LRU estimate values blocks with no
    /// disclosed future, as TIP2 does for unhinted pages. Predicted
    /// hints are never complete knowledge — the predictor can go silent
    /// or guess wrong — and wrong guesses move keys with no reference to
    /// push them (see [`Knowledge::Predicted`]).
    fn knowledge(&self) -> Knowledge {
        if matches!(
            self.config.hint_mode,
            crate::predict::HintMode::Predicted(_)
        ) {
            Knowledge::Predicted
        } else if fully_hinted(self.trace, &self.config) {
            Knowledge::Exact
        } else {
            Knowledge::LruEstimate
        }
    }
}

/// Whether the policies' oracle holds exactly the trace's references:
/// oracle hints that disclose every position. Only then is absence of a
/// disclosed future exact knowledge.
fn fully_hinted(trace: &Trace, config: &SimConfig) -> bool {
    matches!(config.hint_mode, crate::predict::HintMode::Oracle)
        && config.hints.fully_disclosing(trace.requests.len())
}

/// A test the engine puts to a lower bound on a run's final elapsed time
/// after every consumed reference; see [`Prepared::run_until`].
///
/// After reference `i` is consumed, with `K` the cache size, the run
/// ends at or after
///
/// ```text
/// lb(i) = max(now, cpu_done) + C(i) + driver_overhead × max(0, D(i) − K)
/// ```
///
/// where `C(i)` is the compute of the references after `i` and `D(i)`
/// the number of distinct blocks they reference. Proof: every later
/// compute step and every later driver charge advances the CPU timeline
/// one after another (`cpu_done = max(cpu_done, now) + x`), and the run
/// ends only once the clock has reached the final `cpu_done`. Resident
/// and in-flight blocks share the `K` frames, so at most `K` of the
/// `D(i)` blocks are resident or in flight now, and each of the others
/// must be fetched at least once more before its reference, each fetch
/// charging `driver_overhead`. Retries, abandons, wrong guesses and
/// write-behind flushes only add charges, so the bound holds under
/// full, partial and predicted hints, on healthy and faulted arrays.
/// Debug builds check it: a run that completes ends at or after every
/// bound it computed.
///
/// The engine is generic over the cutoff, as over [`Probe`]: with
/// `NoCutoff` it never computes the bound, and the check compiles
/// away.
pub trait Cutoff {
    /// Whether the engine computes the bound at all.
    const ENABLED: bool = true;

    /// Whether to abandon a run whose final elapsed time is known to be
    /// at least `lower_bound`.
    fn abandon(&self, lower_bound: Nanos) -> bool;
}

/// The cutoff that never abandons a run. Zero-sized, `ENABLED = false`:
/// an engine monomorphized over it contains no bound code at all.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoCutoff;

impl Cutoff for NoCutoff {
    const ENABLED: bool = false;

    #[inline(always)]
    fn abandon(&self, _lower_bound: Nanos) -> bool {
        false
    }
}

/// A run that [`Prepared::run_until`] abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abandoned {
    /// The bound the cutoff rejected: the run would have taken at least
    /// this long.
    pub lower_bound: Nanos,
}

/// What is left of a trace after each reference: the inputs of the
/// [`Cutoff`] bound. Built from the trace, not the oracle: under partial
/// or predicted hints the oracle is not what the application references.
/// It holds one bit per reference; a run keeps `C` and `D` as two
/// counters ([`Remaining`]).
#[derive(Debug)]
struct WorkAhead {
    /// Bit `i` is set when reference `i` is the last one to its block.
    last_ref: Vec<u64>,
    /// Compute of the whole trace.
    compute: Nanos,
    /// Distinct blocks of the whole trace.
    distinct: usize,
}

impl WorkAhead {
    /// Scans `trace` backwards; `ref_idx` holds each reference's compact
    /// index, all below `universe`.
    fn new(trace: &Trace, ref_idx: &[u32], universe: usize) -> WorkAhead {
        let mut last_ref = vec![0u64; ref_idx.len().div_ceil(64)];
        let mut seen = BitSet::with_capacity(universe);
        for (i, &idx) in ref_idx.iter().enumerate().rev() {
            if seen.insert(idx) {
                last_ref[i / 64] |= 1 << (i % 64);
            }
        }
        WorkAhead {
            last_ref,
            compute: trace.requests.iter().map(|r| r.compute).sum(),
            distinct: seen.len(),
        }
    }
}

/// One run's position in its [`WorkAhead`]: the compute and distinct
/// blocks still ahead of the cursor.
struct Remaining<'a> {
    last_ref: &'a [u64],
    compute: Nanos,
    distinct: usize,
    /// The largest bound computed so far, kept in debug builds only: a
    /// run that completes must end at or after it.
    highest: Nanos,
}

impl<'a> Remaining<'a> {
    fn new(ahead: &'a WorkAhead) -> Remaining<'a> {
        Remaining {
            last_ref: &ahead.last_ref,
            compute: ahead.compute,
            distinct: ahead.distinct,
            highest: Nanos::ZERO,
        }
    }

    /// Consumes reference `i`, whose compute step was `compute`, and
    /// returns `lb(i)` given the run's `clock = max(now, cpu_done)`.
    #[inline]
    fn after(&mut self, i: usize, compute: Nanos, clock: Nanos, config: &SimConfig) -> Nanos {
        self.compute -= compute;
        self.distinct -= usize::from(self.last_ref[i / 64] & (1 << (i % 64)) != 0);
        let fetches = self.distinct.saturating_sub(config.cache_blocks) as u64;
        let lb = clock + self.compute + config.driver_overhead * fetches;
        if cfg!(debug_assertions) {
            self.highest = self.highest.max(lb);
        }
        lb
    }
}

/// The engine's next event, as [`Engine::next_pending`] chooses it.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// The in-service request on a disk completes.
    Completion(Nanos, DiskId),
    /// The earliest driver retry timer fires.
    Retry(Nanos),
}

impl Pending {
    fn time(self) -> Nanos {
        match self {
            Pending::Completion(t, _) | Pending::Retry(t) => t,
        }
    }
}

/// Per-request driver retry progress.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Faults this request has absorbed so far (1-based attempt number).
    attempts: u32,
    /// When the request's first fault occurred (the timeout anchor).
    first_fault: Nanos,
}

/// Bookkeeping for the stall window currently open, captured at stall
/// begin and resolved into one [`StallCause`] at stall end. Tracked
/// unconditionally (not probe-gated) so probed and unprobed runs report
/// identical per-cause totals.
#[derive(Debug, Clone, Copy)]
struct StallOpen {
    /// Compact index of the awaited block.
    idx: u32,
    /// The awaited block.
    block: BlockId,
    /// When the stall began.
    from: Nanos,
    /// Driver time already accumulated at stall begin; the delta at stall
    /// end is the driver work issued inside the window, which is charged
    /// to `driver`, never to the stall.
    driver0: Nanos,
    /// A fetch of the block was already in flight at stall begin.
    began_inflight: bool,
    /// At stall begin the block itself was being read off the platter of
    /// a drive outside any declared degraded window — the defining shape
    /// of a late prefetch (vs. congestion: queued, or degraded service).
    on_platter: bool,
    /// The driver was already mid-retry on this block at stall begin.
    was_retrying: bool,
    /// A read fault was charged to this block while the window was open.
    fault_seen: bool,
}

struct Engine<'t> {
    trace: &'t Trace,
    config: &'t SimConfig,
    oracle: &'t Oracle,
    /// Compact index of each trace reference (see [`Prepared`]).
    ref_idx: &'t [u32],
    cache: Cache,
    /// The indexes the policy declared ([`Policy::indexes`]); `None`
    /// when undeclared, and then never built or updated.
    missing: Option<MissingTracker>,
    array: DiskArray,
    history: Option<FetchHistory>,
    now: Nanos,
    cursor: usize,
    cpu_done: Nanos,
    driver_time: Nanos,
    fetches: u64,
    writes: u64,
    /// Pending driver retries as `(fire time, block)` in a min-heap;
    /// the tuple order makes ties deterministic.
    retry_timers: BinaryHeap<Reverse<(Nanos, BlockId)>>,
    /// Retry progress per faulted in-flight fetch. Keyed by block, which
    /// is unique: the cache holds at most one in-flight fetch per block.
    retrying: FastMap<BlockId, RetryState>,
    /// Scratch buffer for enqueues rejected inside a policy call.
    rejected_buf: Vec<BlockId>,
    /// Upcoming degraded-window boundaries `(time, disk, entering)` from
    /// the fault plan, ascending; drained into [`Event::DiskDegraded`] /
    /// [`Event::DiskRecovered`] as the clock passes them (probed runs
    /// only — the events carry no engine state).
    boundaries: VecDeque<(Nanos, DiskId, bool)>,
    faults_injected: u64,
    retries: u64,
    abandoned: u64,
    /// The stall window currently open, if any (at most one: the
    /// application blocks on one reference at a time).
    stall_open: Option<StallOpen>,
    /// Per-cause stall totals, maintained unconditionally; the run's end
    /// enforces that they sum to the accounted stall exactly.
    stall_by_cause: StallBreakdown,
    /// Declared degraded windows per disk (sorted, disjoint), precomputed
    /// so stall-begin can ask "was this drive degraded at t?" without
    /// re-deriving the plan. Empty vectors for healthy runs.
    degraded_windows: Vec<Vec<(Nanos, Nanos)>>,
    /// One bit per compact block index, set when the block is evicted
    /// after real residency (see [`Ctx::issue_fetch_idx`]).
    evicted_ever: BitSet,
    /// Prediction accounting from the hint-source pre-pass; `Some`
    /// exactly when the run uses a predicted hint mode.
    hint_stats: Option<HintStats>,
}

impl<'t> Engine<'t> {
    fn new(prepared: &'t Prepared<'_>, knowledge: Knowledge, indexes: Indexes) -> Engine<'t> {
        let config = &prepared.config;
        if !config.faults.is_empty() {
            // Guard configs built by struct literal rather than through
            // the validating builders: a bad plan or retry policy must
            // fail here, not livelock the event loop.
            config.faults.validate().expect("invalid fault plan");
            config.retry.validate();
        }
        let trace = prepared.trace;
        let oracle = &prepared.oracle;
        let ref_idx = prepared
            .ref_idx
            .as_deref()
            .unwrap_or_else(|| oracle.seq_indices());
        let missing = indexes.missing.then(|| MissingTracker::new(oracle));
        let array = DiskArray::new(config.disks, config.discipline, |i| build_model(config, i));
        let degraded_windows: Vec<Vec<(Nanos, Nanos)>> = (0..config.disks)
            .map(|i| config.faults.degraded_windows(i))
            .collect();
        let mut boundaries: Vec<(Nanos, DiskId, bool)> = Vec::new();
        for (i, windows) in degraded_windows.iter().enumerate() {
            for &(from, until) in windows {
                boundaries.push((from, DiskId(i), true));
                boundaries.push((until, DiskId(i), false));
            }
        }
        boundaries.sort_by_key(|&(t, d, entering)| (t, d.index(), entering));
        let evicted_ever = BitSet::with_capacity(oracle.num_blocks());
        let cache = Cache::new(config.cache_blocks, oracle, knowledge);
        Engine {
            trace,
            config,
            oracle,
            ref_idx,
            cache,
            missing,
            array,
            history: indexes.history.then(|| FetchHistory::new(config.disks)),
            now: Nanos::ZERO,
            cursor: 0,
            cpu_done: Nanos::ZERO,
            driver_time: Nanos::ZERO,
            fetches: 0,
            writes: 0,
            retry_timers: BinaryHeap::new(),
            retrying: FastMap::default(),
            rejected_buf: Vec::new(),
            boundaries: boundaries.into(),
            faults_injected: 0,
            retries: 0,
            abandoned: 0,
            stall_open: None,
            stall_by_cause: StallBreakdown::ZERO,
            degraded_windows,
            evicted_ever,
            hint_stats: prepared.hint_stats.clone(),
        }
    }

    /// Whether `disk` is inside a declared degraded window at `t`. The
    /// window lists are tiny (usually empty); a linear scan is cheaper
    /// than anything clever.
    fn degraded_at(&self, disk: DiskId, t: Nanos) -> bool {
        self.degraded_windows[disk.index()]
            .iter()
            .any(|&(from, until)| from <= t && t < until)
    }

    /// Whether block `idx` has ever been evicted after real residency.
    fn was_evicted(&self, idx: u32) -> bool {
        self.evicted_ever.contains(idx)
    }

    /// Opens the stall window for a reference to missing block `idx`,
    /// capturing the state that classifies the stall at close: whether a
    /// fetch was in flight and where it physically was, and whether the
    /// driver was mid-retry on it.
    fn open_stall(&mut self, idx: u32, block: BlockId) {
        let began_inflight = self.cache.inflight(idx);
        // `in_service` checks short-circuit behind the inflight test:
        // demand misses never touch the disk lookup.
        let on_platter = began_inflight
            && self.array.in_service(block)
            && !self.degraded_at(self.array.disk_of(block), self.now);
        let was_retrying = !self.retrying.is_empty() && self.retrying.contains_key(&block);
        self.stall_open = Some(StallOpen {
            idx,
            block,
            from: self.now,
            driver0: self.driver_time,
            began_inflight,
            on_platter,
            was_retrying,
            fault_seen: false,
        });
    }

    /// Closes the open stall window (if any): computes the charged time
    /// (window minus driver work issued inside it), resolves the cause,
    /// and accumulates into the per-cause totals. Returns what the
    /// [`Event::StallEnd`] needs, or `None` when no window was open.
    fn close_stall(&mut self) -> Option<(Nanos, StallCause, Nanos)> {
        let open = self.stall_open.take()?;
        let window = self.now - open.from;
        let in_driver = self.driver_time - open.driver0;
        let charged = window.checked_sub(in_driver).unwrap_or_else(|| {
            panic!(
                "stall window {window} shorter than the driver work {in_driver} issued inside it"
            )
        });
        let cause = if open.fault_seen || open.was_retrying {
            StallCause::FaultRetry
        } else if open.began_inflight {
            if open.on_platter {
                StallCause::LatePrefetch
            } else {
                StallCause::DiskCongestion
            }
        } else if self.was_evicted(open.idx) {
            StallCause::EvictionRefetch
        } else {
            StallCause::NoPrefetch
        };
        self.stall_by_cause.add(cause, charged);
        Some((window, cause, charged))
    }

    /// Emits every degraded-window boundary at or before `upto` (probed
    /// runs only; the boundaries change no engine state). Called wherever
    /// the clock is about to advance, so boundary events stay
    /// monotonically ordered within the stream.
    fn flush_boundaries<P: Probe>(&mut self, upto: Nanos, probe: &mut P) {
        if !P::ENABLED {
            return;
        }
        while let Some(&(t, disk, entering)) = self.boundaries.front() {
            if t > upto {
                break;
            }
            self.boundaries.pop_front();
            let e = if entering {
                Event::DiskDegraded { now: t, disk }
            } else {
                Event::DiskRecovered { now: t, disk }
            };
            probe.on_event(&e);
        }
    }

    /// Lets the policy act at the current instant.
    fn decide<P: Probe>(&mut self, policy: &mut dyn Policy, probe: &mut P) {
        if P::ENABLED {
            probe.on_event(&Event::PolicyDecision {
                now: self.now,
                cursor: self.cursor,
            });
        }
        self.call_policy(probe, false, |ctx| policy.decide(ctx));
    }

    /// Asks the policy to handle a demand miss.
    fn miss<P: Probe>(&mut self, policy: &mut dyn Policy, probe: &mut P, block: BlockId) {
        self.call_policy(probe, true, |ctx| policy.on_miss(ctx, block));
    }

    /// Runs one policy call on the engine's [`Ctx`], its fetches tagged
    /// demand when `demand`, then settles the enqueues it had rejected.
    fn call_policy<P: Probe>(&mut self, probe: &mut P, demand: bool, call: impl FnOnce(&mut Ctx)) {
        let mut emit = |e: &Event| probe.on_event(e);
        let mut ctx = Ctx {
            now: self.now,
            cursor: self.cursor,
            oracle: self.oracle,
            cache: &mut self.cache,
            array: &mut self.array,
            config: self.config,
            missing: self.missing.as_mut(),
            history: self.history.as_ref(),
            cpu_done: &mut self.cpu_done,
            driver_time: &mut self.driver_time,
            fetches: &mut self.fetches,
            emit: P::ENABLED.then_some(&mut emit as &mut dyn FnMut(&Event)),
            demand,
            rejected: &mut self.rejected_buf,
            evicted_ever: &mut self.evicted_ever,
        };
        call(&mut ctx);
        self.settle_rejections(probe);
    }

    /// Converts enqueues an out-of-service drive rejected during the last
    /// policy call into driver faults (retry or abandonment).
    fn settle_rejections<P: Probe>(&mut self, probe: &mut P) {
        if self.rejected_buf.is_empty() {
            return;
        }
        let mut rejected = std::mem::take(&mut self.rejected_buf);
        for block in rejected.drain(..) {
            let disk = self.array.disk_of(block);
            self.read_fault(block, disk, FaultCause::Rejected, probe);
        }
        // Hand the (now empty) allocation back for the next burst.
        self.rejected_buf = rejected;
    }

    /// Charges one fault against the in-flight fetch of `block` and
    /// answers it: schedule a backed-off retry while the budget lasts,
    /// abandon the request otherwise. Abandonment releases the cache
    /// frame and restores the block to the missing index, so policies can
    /// re-plan it (and a blocked demand miss re-issues immediately).
    fn read_fault<P: Probe>(
        &mut self,
        block: BlockId,
        disk: DiskId,
        cause: FaultCause,
        probe: &mut P,
    ) {
        let now = self.now;
        if let Some(open) = &mut self.stall_open {
            if open.block == block {
                // The application is waiting on this very block: whatever
                // the stall looked like at begin, retry/backoff is now
                // holding it open.
                open.fault_seen = true;
            }
        }
        let state = self.retrying.entry(block).or_insert(RetryState {
            attempts: 0,
            first_fault: now,
        });
        state.attempts += 1;
        let attempt = state.attempts;
        let first_fault = state.first_fault;
        self.faults_injected += 1;
        if P::ENABLED {
            probe.on_event(&Event::FaultInjected {
                now,
                block,
                disk,
                write: false,
                cause,
                attempt,
            });
        }
        let policy = &self.config.retry;
        let timed_out = policy
            .timeout
            .is_some_and(|limit| now - first_fault > limit);
        if attempt <= policy.max_retries && !timed_out {
            let fire = now + policy.backoff_for(attempt);
            self.retry_timers.push(Reverse((fire, block)));
        } else {
            self.abandoned += 1;
            if P::ENABLED {
                probe.on_event(&Event::RequestAbandoned {
                    now,
                    block,
                    disk,
                    write: false,
                    attempts: attempt,
                });
            }
            self.retrying.remove(&block);
            let idx = self
                .oracle
                .index_of(block)
                .expect("abandoned block outside the indexed universe");
            self.cache.cancel_fetch(idx);
            if let Some(missing) = &mut self.missing {
                let next = self.cache.next_use(idx, self.cursor, self.oracle);
                missing.on_evicted_idx(idx, next, self.oracle);
            }
        }
    }

    /// Records a fault on a write-behind flush. Writes are best-effort
    /// and never retried: the block is still clean in the cache, so the
    /// flush is simply abandoned.
    fn write_fault<P: Probe>(
        &mut self,
        block: BlockId,
        disk: DiskId,
        cause: FaultCause,
        probe: &mut P,
    ) {
        self.faults_injected += 1;
        self.abandoned += 1;
        if P::ENABLED {
            probe.on_event(&Event::FaultInjected {
                now: self.now,
                block,
                disk,
                write: true,
                cause,
                attempt: 1,
            });
            probe.on_event(&Event::RequestAbandoned {
                now: self.now,
                block,
                disk,
                write: true,
                attempts: 1,
            });
        }
    }

    /// The earliest pending event from either source — a disk completion
    /// or a driver retry timer, completions first on ties.
    fn next_pending(&self) -> Option<Pending> {
        let completion = self.array.next_event();
        let retry = self.retry_timers.peek().map(|r| r.0 .0);
        match (completion, retry) {
            (Some((tc, _)), Some(tr)) if tr < tc => Some(Pending::Retry(tr)),
            (Some((tc, d)), _) => Some(Pending::Completion(tc, d)),
            (None, retry) => retry.map(Pending::Retry),
        }
    }

    /// Processes the earliest pending event, advancing `now` to it.
    fn pop_event<P: Probe>(&mut self, policy: &mut dyn Policy, probe: &mut P) {
        let event = self
            .next_pending()
            .expect("waiting with no pending I/O and no retry timer — policy deadlock");
        self.pop_pending(event, policy, probe);
    }

    /// Processes `event`, which [`Engine::next_pending`] just returned.
    fn pop_pending<P: Probe>(&mut self, event: Pending, policy: &mut dyn Policy, probe: &mut P) {
        match event {
            Pending::Completion(t, d) => self.pop_completion(t, d, policy, probe),
            Pending::Retry(_) => {
                let Reverse((t, block)) = self.retry_timers.pop().expect("peeked a timer");
                self.fire_retry(t, block, probe);
            }
        }
    }

    /// Processes the disk completion on `d` at time `t`.
    fn pop_completion<P: Probe>(
        &mut self,
        t: Nanos,
        d: DiskId,
        policy: &mut dyn Policy,
        probe: &mut P,
    ) {
        debug_assert!(t >= self.now);
        self.flush_boundaries(t, probe);
        self.now = t;
        let done = self.array.complete_observed(t, d, |disk, e| {
            if P::ENABLED {
                probe.on_event(&Event::from_disk(t, disk, e));
            }
        });
        match done.kind {
            ReqKind::Read => {
                if done.outcome.is_ok() {
                    if !self.retrying.is_empty() {
                        self.retrying.remove(&done.block);
                    }
                    if let Some(history) = &mut self.history {
                        history.push_fetch(d.index(), done.service);
                    }
                    let idx = self
                        .oracle
                        .index_of(done.block)
                        .expect("completed block outside the indexed universe");
                    self.cache.complete_fetch(idx, self.cursor, self.oracle);
                } else {
                    // A media error: the platter time was spent but no
                    // data arrived. The frame stays reserved pending the
                    // retry decision, and the estimator only learns from
                    // successful fetches.
                    self.read_fault(done.block, d, FaultCause::MediaError, probe);
                }
            }
            // A finished write frees disk bandwidth but changes nothing
            // in the cache: the block stayed available throughout.
            ReqKind::Write => {
                if !done.outcome.is_ok() {
                    self.write_fault(done.block, d, FaultCause::MediaError, probe);
                }
            }
        }
        self.decide(policy, probe);
    }

    /// Re-issues the faulted fetch of `block` whose backoff expired at
    /// `t`. The retry charges driver overhead like any issue; a drive
    /// still mid-outage rejects it, which counts as a further fault.
    fn fire_retry<P: Probe>(&mut self, t: Nanos, block: BlockId, probe: &mut P) {
        debug_assert!(t >= self.now);
        self.flush_boundaries(t, probe);
        self.now = t;
        let attempt = self
            .retrying
            .get(&block)
            .expect("retry timer for an untracked request")
            .attempts;
        let disk = self.array.disk_of(block);
        charge_driver(
            &mut self.driver_time,
            &mut self.cpu_done,
            self.now,
            self.config.driver_overhead,
        );
        self.retries += 1;
        if P::ENABLED {
            probe.on_event(&Event::RetryIssued {
                now: t,
                block,
                disk,
                attempt,
            });
        }
        if self.enqueue(block, ReqKind::Read, probe).is_rejected() {
            self.read_fault(block, disk, FaultCause::Rejected, probe);
        }
    }

    /// Write-behind extension: flushes `block`, which the application
    /// just updated. The application does not wait for the flush, but it
    /// consumes disk bandwidth and driver CPU.
    fn write_behind<P: Probe>(&mut self, block: BlockId, probe: &mut P) {
        self.writes += 1;
        charge_driver(
            &mut self.driver_time,
            &mut self.cpu_done,
            self.now,
            self.config.driver_overhead,
        );
        let disk = self.array.disk_of(block);
        if P::ENABLED {
            probe.on_event(&Event::WriteIssued {
                now: self.now,
                block,
                disk,
            });
        }
        if self.enqueue(block, ReqKind::Write, probe).is_rejected() {
            // Best-effort write to an out-of-service drive: dropped,
            // never retried.
            self.write_fault(block, disk, FaultCause::Rejected, probe);
        }
    }

    /// Enqueues a `kind` request for `block` at the current instant,
    /// passing the drive's events to `probe`.
    fn enqueue<P: Probe>(
        &mut self,
        block: BlockId,
        kind: ReqKind,
        probe: &mut P,
    ) -> EnqueueOutcome {
        let now = self.now;
        self.array.enqueue_observed(now, block, kind, |d, e| {
            if P::ENABLED {
                probe.on_event(&Event::from_disk(now, d, e));
            }
        })
    }

    /// Advances to `cpu_done`, processing any completions (and retry
    /// timers) on the way. Completions may add driver work, pushing
    /// `cpu_done` out further.
    fn advance_cpu<P: Probe>(&mut self, policy: &mut dyn Policy, probe: &mut P) {
        while let Some(event) = self.next_pending() {
            if event.time() > self.cpu_done {
                break;
            }
            self.pop_pending(event, policy, probe);
        }
        self.flush_boundaries(self.cpu_done, probe);
        self.now = self.cpu_done;
    }

    /// Runs the trace to its end, or until `cutoff` rejects the bound
    /// that `ahead` gives after a reference (`ahead` is `Some` exactly
    /// when `C::ENABLED`).
    fn run<P: Probe, C: Cutoff>(
        &mut self,
        policy: &mut dyn Policy,
        probe: &mut P,
        cutoff: &C,
        ahead: Option<&WorkAhead>,
    ) -> Result<Report, Abandoned> {
        let mut remaining = ahead.map(Remaining::new);
        // Degraded windows opening at time zero are announced before
        // anything else happens.
        self.flush_boundaries(Nanos::ZERO, probe);
        // Initial decision point: prefetching can begin at time zero.
        self.decide(policy, probe);

        for i in 0..self.trace.requests.len() {
            let req = self.trace.requests[i];
            let req_idx = self.ref_idx[i];
            // The block about to be referenced may not be evicted (see
            // Cache::pin); critical under incomplete hints.
            self.cache.pin(Some(req_idx));
            // The application computes before the reference.
            if let Some(history) = &mut self.history {
                history.push_compute(req.compute);
            }
            self.cpu_done = self.cpu_done.max(self.now) + req.compute;
            self.advance_cpu(policy, probe);

            // A stall starts if the block has not arrived by the time the
            // application references it. The pin above guarantees a
            // resident block stays resident, so this is decided once.
            // Provenance bookkeeping is unconditional — the per-cause
            // breakdown is part of the report, probe or no probe.
            let resident = self.cache.resident(req_idx);
            if P::ENABLED {
                let e = if resident {
                    Event::CacheHit {
                        now: self.now,
                        block: req.block,
                    }
                } else {
                    Event::CacheMiss {
                        now: self.now,
                        block: req.block,
                    }
                };
                probe.on_event(&e);
                if !resident {
                    probe.on_event(&Event::StallBegin {
                        now: self.now,
                        block: req.block,
                    });
                }
            }
            if !resident {
                self.open_stall(req_idx, req.block);
            }

            // The reference: stall until the block is available and the
            // CPU backlog (driver work issued meanwhile) has drained.
            loop {
                if self.cache.resident(req_idx) {
                    if self.now < self.cpu_done {
                        self.advance_cpu(policy, probe);
                        continue;
                    }
                    break;
                }
                if !self.cache.inflight(req_idx) {
                    self.miss(policy, probe, req.block);
                }
                self.pop_event(policy, probe);
            }

            if let Some((stalled, cause, charged)) = self.close_stall() {
                if P::ENABLED {
                    probe.on_event(&Event::StallEnd {
                        now: self.now,
                        block: req.block,
                        stalled,
                        cause,
                        charged,
                    });
                }
            }

            // Consume. The reference is satisfied, so the pin lifts: the
            // just-used block is an ordinary eviction candidate again.
            self.cache.pin(None);
            self.cache.on_reference(req_idx, i, self.oracle);
            self.cursor = i + 1;
            if self
                .config
                .write_behind_period
                .is_some_and(|period| (i + 1) % period == 0)
            {
                self.write_behind(req.block, probe);
            }
            self.decide(policy, probe);
            if C::ENABLED {
                let remaining = remaining.as_mut().expect("a cutoff comes with its bound");
                let clock = self.now.max(self.cpu_done);
                let lower_bound = remaining.after(i, req.compute, clock, self.config);
                if cutoff.abandon(lower_bound) {
                    return Err(Abandoned { lower_bound });
                }
            }
        }

        // Driver overhead charged at or after the final reference
        // (write-behind flushes on the last consume, fetches issued by
        // the final decide()) sits in the CPU backlog: it is already in
        // `driver_time` but the clock has not advanced over it. Drain it
        // so `elapsed` covers every charged nanosecond.
        if self.cpu_done > self.now {
            self.advance_cpu(policy, probe);
        }
        // Under exact or partial hints every fetched block is referenced
        // at or after its issue, and the blocking loop retries until the
        // block arrives — so no read can still be mid-retry once the last
        // reference is consumed. A predictor's wrong guess can be fetched
        // and never referenced, so only a predicted run may end with one.
        debug_assert!(
            self.retry_timers.is_empty() || self.hint_stats.is_some(),
            "retry timer outlived the run"
        );

        let elapsed = self.now;
        if let Some(remaining) = &remaining {
            debug_assert!(
                elapsed >= remaining.highest,
                "elapsed {elapsed} below the remaining-time bound {}",
                remaining.highest
            );
        }
        let compute: Nanos = self.trace.requests.iter().map(|r| r.compute).sum();
        // Checked, not saturating: a component exceeding the total is an
        // accounting bug and must fail loudly, not clamp stall to zero.
        let stall = elapsed
            .checked_sub(compute)
            .and_then(|rest| rest.checked_sub(self.driver_time))
            .unwrap_or_else(|| {
                panic!(
                    "accounting identity violated: elapsed {} < compute {} + driver {}",
                    elapsed, compute, self.driver_time
                )
            });
        // Provenance conservation: every charged stall nanosecond was
        // attributed to exactly one cause. This holds by construction
        // (non-stall segments advance the clock by exactly their compute
        // and driver charges), so any imbalance is an engine bug.
        let attributed = self.stall_by_cause.total();
        assert!(
            attributed == stall,
            "stall attribution leaked: per-cause total {attributed} != accounted stall {stall}"
        );
        let fault = if self.config.faults.is_empty() {
            None
        } else {
            let per_disk_degraded: Vec<Nanos> = (0..self.config.disks)
                .map(|i| self.config.faults.degraded_nanos(i, elapsed))
                .collect();
            let total: Nanos = per_disk_degraded.iter().copied().sum();
            let availability = if elapsed == Nanos::ZERO {
                1.0
            } else {
                1.0 - total.as_nanos() as f64
                    / (elapsed.as_nanos() as f64 * self.config.disks as f64)
            };
            Some(FaultSummary {
                faults_injected: self.faults_injected,
                retries: self.retries,
                abandoned: self.abandoned,
                per_disk_degraded,
                availability,
            })
        };
        Ok(Report {
            trace: self.trace.name.clone(),
            policy: policy.name().to_string(),
            disks: self.config.disks,
            elapsed,
            compute,
            driver: self.driver_time,
            stall,
            stall_by_cause: self.stall_by_cause,
            fetches: self.fetches,
            writes: self.writes,
            avg_fetch_time: self.array.avg_fetch_time(),
            avg_disk_utilization: self.array.avg_utilization(elapsed),
            // stats_at, not stats: a request still on the platter when the
            // run ends contributes its partial service time to `busy`.
            per_disk: self.array.stats_at(elapsed),
            fault,
            hints: self.hint_stats.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_trace::Request;

    fn unit_trace(blocks: &[u64], compute_ms: u64) -> Trace {
        Trace::new(
            "unit",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_millis(compute_ms),
                })
                .collect(),
            4,
        )
    }

    fn theory_config(disks: usize, cache: usize, fetch_ms: u64) -> SimConfig {
        let mut c = SimConfig::new(disks, cache);
        c.disk_model = DiskModelKind::Uniform(Nanos::from_millis(fetch_ms));
        c.driver_overhead = Nanos::ZERO;
        c
    }

    #[test]
    fn demand_fetch_timing_matches_theory() {
        // One block, compute 1ms, fetch 5ms: elapsed = 1 (compute) + 5
        // (demand stall) = 6ms.
        let t = unit_trace(&[0], 1);
        let cfg = theory_config(1, 4, 5);
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        assert_eq!(r.elapsed, Nanos::from_millis(6));
        assert_eq!(r.compute, Nanos::from_millis(1));
        assert_eq!(r.stall, Nanos::from_millis(5));
        assert_eq!(r.fetches, 1);
    }

    #[test]
    fn cache_hit_costs_nothing_extra() {
        let t = unit_trace(&[0, 0, 0], 2);
        let cfg = theory_config(1, 4, 5);
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        // One fetch (5ms stall) + 3 x 2ms compute.
        assert_eq!(r.elapsed, Nanos::from_millis(11));
        assert_eq!(r.fetches, 1);
    }

    #[test]
    fn one_prepared_value_serves_every_policy() {
        // Reusing one Prepared across policies and runs must give exactly
        // the reports of independent one-shot simulations, under full,
        // partial and predicted hints. The engine reads neither reverse
        // parameter, so a policy built from any (F̂, batch) runs on the
        // value prepared for the base configuration.
        let blocks: Vec<u64> = (0..40).map(|i| (i * 7) % 13).collect();
        let t = unit_trace(&blocks, 1);
        let full = theory_config(2, 4, 3);
        let partial = full.clone().with_hints(crate::hints::HintSpec::Fraction {
            fraction: 0.5,
            seed: 5,
        });
        let predicted = full
            .clone()
            .with_hint_mode(crate::predict::HintMode::Predicted(
                crate::predict::PredictorKind::Markov,
            ));
        for cfg in [full, partial, predicted] {
            let prepared = Prepared::new(&t, &cfg);
            for (f, batch) in [(16, 1), (1, 4), (64, 40)] {
                let tuned = cfg.clone().with_reverse_params(f, batch);
                for kind in PolicyKind::ALL {
                    let mut p = kind.build(&t, &tuned);
                    let shared = prepared.run(p.as_mut(), &mut NoopProbe);
                    assert_eq!(shared, simulate(&t, kind, &tuned), "{kind} {f} {batch}");
                }
            }
        }
    }

    #[test]
    fn breakdown_always_sums_to_elapsed() {
        let t = unit_trace(&[0, 1, 2, 3, 0, 1, 2, 3], 1);
        for kind in PolicyKind::ALL {
            let mut cfg = theory_config(2, 3, 4);
            cfg.driver_overhead = Nanos::from_micros(500);
            let r = simulate(&t, kind, &cfg);
            assert_eq!(
                r.elapsed,
                r.compute + r.driver + r.stall,
                "{kind} breakdown broken"
            );
            assert_eq!(r.compute, Nanos::from_millis(8), "{kind}");
        }
    }

    #[test]
    fn driver_overhead_is_charged_per_fetch() {
        let t = unit_trace(&[0, 1], 1);
        let mut cfg = theory_config(1, 4, 5);
        cfg.driver_overhead = Nanos::from_millis(1);
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        assert_eq!(r.fetches, 2);
        assert_eq!(r.driver, Nanos::from_millis(2));
        assert_eq!(r.elapsed, r.compute + r.driver + r.stall);
    }

    #[test]
    fn prefetching_beats_demand_on_sequential_io_bound_work() {
        // 32 distinct blocks on 2 disks, tiny compute: demand stalls on
        // every block; any prefetcher overlaps fetches with stalls.
        let blocks: Vec<u64> = (0..32).collect();
        let t = unit_trace(&blocks, 1);
        let cfg = theory_config(2, 8, 10);
        let demand = simulate(&t, PolicyKind::Demand, &cfg);
        for kind in PolicyKind::PREFETCHING {
            let r = simulate(&t, kind, &cfg);
            assert!(
                r.elapsed < demand.elapsed,
                "{kind}: {} !< {}",
                r.elapsed,
                demand.elapsed
            );
        }
    }

    #[test]
    fn all_policies_serve_every_reference() {
        let blocks: Vec<u64> = (0..40).map(|i| i % 10).collect();
        let t = unit_trace(&blocks, 1);
        for kind in PolicyKind::ALL {
            let cfg = theory_config(3, 4, 7);
            let r = simulate(&t, kind, &cfg);
            assert!(r.elapsed >= r.compute, "{kind}");
            assert!(r.fetches >= 10, "{kind} fetched {} < distinct", r.fetches);
        }
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let t = unit_trace(&[0, 1], 4);
        let r = simulate(&t, PolicyKind::Demand, &theory_config(1, 4, 2));
        let header_cols = Report::csv_header().split(',').count();
        let row = r.to_csv_row();
        assert_eq!(row.split(',').count(), header_cols);
        assert!(row.starts_with("unit,demand,1,"));
    }

    #[test]
    fn fetch_history_window_and_ratio() {
        let mut h = FetchHistory::new(2);
        assert_eq!(h.avg_fetch(0), None);
        assert_eq!(h.avg_compute(), None);
        assert_eq!(h.fetch_compute_ratio(0), None);
        for _ in 0..150 {
            h.push_fetch(0, Nanos::from_millis(10));
            h.push_compute(Nanos::from_millis(2));
        }
        // Window capped at 100; averages are exact.
        assert_eq!(h.avg_fetch(0), Some(Nanos::from_millis(10)));
        assert_eq!(h.avg_compute(), Some(Nanos::from_millis(2)));
        let f = h.fetch_compute_ratio(0).unwrap();
        assert!((f - 5.0).abs() < 1e-9, "{f}");
        // Disk 1 has no history.
        assert_eq!(h.avg_fetch(1), None);
        assert_eq!(h.fetch_compute_ratio(1), None);
    }

    #[test]
    fn fetch_history_rolling_sums_match_naive_recomputation() {
        // Property test: after every push in a randomized observation
        // stream, the O(1) incrementally-maintained averages and ratio
        // must equal recomputing them from the raw windows.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x0f5e_2026);
        let disks = 3;
        let mut h = FetchHistory::new(disks);
        let mut naive_fetch: Vec<Vec<u64>> = vec![Vec::new(); disks];
        let mut naive_compute: Vec<u64> = Vec::new();
        for _ in 0..2_000 {
            if rng.gen_bool(0.5) {
                let d = rng.gen_range(0usize..disks);
                let t = rng.gen_range(0u64..50_000_000);
                h.push_fetch(d, Nanos(t));
                naive_fetch[d].push(t);
            } else {
                let t = rng.gen_range(0u64..5_000_000);
                h.push_compute(Nanos(t));
                naive_compute.push(t);
            }
            let window =
                |xs: &[u64]| -> Vec<u64> { xs[xs.len().saturating_sub(HISTORY)..].to_vec() };
            let avg = |xs: &[u64]| -> Option<Nanos> {
                if xs.is_empty() {
                    return None;
                }
                Some(Nanos(xs.iter().sum::<u64>()).div_rounded(xs.len() as u64))
            };
            let cw = window(&naive_compute);
            assert_eq!(h.avg_compute(), avg(&cw));
            for (d, fetches) in naive_fetch.iter().enumerate() {
                let fw = window(fetches);
                assert_eq!(h.avg_fetch(d), avg(&fw), "disk {d}");
                let expect_ratio = if fw.is_empty() || cw.iter().sum::<u64>() == 0 {
                    None
                } else {
                    let f = fw.iter().sum::<u64>() as f64 / fw.len() as f64;
                    let c = cw.iter().sum::<u64>() as f64 / cw.len() as f64;
                    Some(f / c)
                };
                assert_eq!(h.fetch_compute_ratio(d), expect_ratio, "disk {d}");
            }
        }
    }

    #[test]
    fn unhinted_references_become_demand_misses() {
        use crate::hints::HintSpec;
        let t = unit_trace(&[0, 1, 2, 3], 8);
        let mut cfg = theory_config(1, 8, 4);
        cfg.hints = HintSpec::None;
        for kind in PolicyKind::ALL {
            let r = simulate(&t, kind, &cfg);
            // Nothing disclosed: no prefetching possible, every block
            // demand-missed with a full F=4 stall.
            assert_eq!(r.fetches, 4, "{kind}");
            assert_eq!(r.stall, Nanos::from_millis(16), "{kind}");
        }
    }

    #[test]
    fn hint_stream_ending_mid_run_is_not_full_disclosure() {
        // A hint stream that stops mid-run (an application that quits
        // hinting, a predictor gone silent) must leave the engine
        // believing *nothing* about the tail — not that the tail holds
        // no future references. Regression for the disclosure
        // bookkeeping: the complete-knowledge gate now asks
        // `fully_disclosing(n)`, which a mid-run prefix never satisfies.
        use crate::hints::HintSpec;
        // Four distinct blocks through a three-frame cache, with block 0
        // referenced once early and again only after the cutoff. Full
        // disclosure sees that far reuse; a stream ending at 9 must fall
        // back to the recency estimate for it, so replacement genuinely
        // depends on how much of the future is known and a cutoff
        // changes the outcome — for every policy, demand included.
        let blocks = [0, 1, 2, 3, 2, 1, 2, 2, 1, 3, 0];
        let t = unit_trace(&blocks, 8);
        for kind in PolicyKind::ALL {
            let cfg = |spec: HintSpec| {
                let mut c = theory_config(2, 3, 4);
                c.hints = spec;
                c
            };
            let full = simulate(&t, kind, &cfg(HintSpec::Full));
            let none = simulate(&t, kind, &cfg(HintSpec::None));
            // The degenerate prefixes are exactly the closed-form specs.
            assert_eq!(
                simulate(&t, kind, &cfg(HintSpec::Prefix { disclosed: 0 })),
                none,
                "{kind}: an immediately-exhausted stream is no hints at all"
            );
            assert_eq!(
                simulate(
                    &t,
                    kind,
                    &cfg(HintSpec::Prefix {
                        disclosed: blocks.len()
                    })
                ),
                full,
                "{kind}: a stream covering the whole trace is full disclosure"
            );
            // A mid-run cutoff is strictly partial knowledge: the policy
            // cannot do better than full disclosure, and the audited run
            // must satisfy every conservation invariant.
            let (half, outcome) =
                crate::audit::simulate_audited(&t, kind, &cfg(HintSpec::Prefix { disclosed: 9 }));
            outcome.assert_clean();
            assert_ne!(half, full, "{kind}: exhausted stream treated as omniscient");
            assert!(
                half.elapsed >= full.elapsed,
                "{kind}: partial hints beat full disclosure"
            );
            assert_eq!(half.elapsed, half.compute + half.driver + half.stall);
        }
    }

    #[test]
    fn predicted_hint_modes_run_every_policy_audit_clean() {
        // Smoke the predictor path end to end at engine level: each
        // online source drives each policy through the audited engine,
        // stats are attached, and the accounting identity holds. A
        // looping trace gives the predictors something learnable.
        use crate::predict::{HintMode, PredictorKind};
        let blocks: Vec<u64> = (0..4).flat_map(|_| 0..12u64).collect();
        let t = unit_trace(&blocks, 2);
        for kind in PolicyKind::ALL {
            for pk in PredictorKind::ALL {
                let mut cfg = theory_config(2, 6, 4);
                cfg.hint_mode = HintMode::Predicted(pk);
                let (r, outcome) = crate::audit::simulate_audited(&t, kind, &cfg);
                outcome.assert_clean();
                let stats = r.hints.as_ref().unwrap_or_else(|| {
                    panic!("{kind}/{}: predicted run must carry HintStats", pk.name())
                });
                assert_eq!(stats.source, pk.name());
                assert_eq!(stats.references, blocks.len() as u64);
                assert!(stats.correct <= stats.predicted);
                assert_eq!(r.elapsed, r.compute + r.driver + r.stall, "{kind}");
            }
            // Oracle mode stays stats-free so its reports render
            // byte-identically to pre-hint-source builds.
            let cfg = theory_config(2, 6, 4);
            assert!(simulate(&t, kind, &cfg).hints.is_none());
        }
    }

    #[test]
    fn trailing_write_behind_driver_work_lands_in_elapsed() {
        // The final reference triggers a write-behind flush whose driver
        // overhead is charged to the CPU timeline after the last consume.
        // Before the end-of-run drain, that overhead sat in `driver` but
        // not in `elapsed`, breaking elapsed = compute + driver + stall
        // (the saturating subtraction clamped stall instead of failing).
        let t = unit_trace(&[0, 1], 5);
        let mut cfg = theory_config(2, 4, 3);
        cfg.driver_overhead = Nanos::from_millis(1);
        cfg.write_behind_period = Some(2);
        let r = simulate(&t, PolicyKind::Aggressive, &cfg);
        // Both blocks prefetched at t=0 (2ms driver), hidden under the
        // 10ms of compute; the flush after the last reference adds 1ms of
        // driver work that the clock must drain: elapsed = 10 + 3 + 0.
        assert_eq!(r.writes, 1);
        assert_eq!(r.driver, Nanos::from_millis(3));
        assert_eq!(r.compute, Nanos::from_millis(10));
        assert_eq!(r.stall, Nanos::ZERO);
        assert_eq!(r.elapsed, Nanos::from_millis(13));
        assert_eq!(r.elapsed, r.compute + r.driver + r.stall);
    }

    #[test]
    fn trailing_drain_holds_for_demand_with_mid_run_stall() {
        // Same shape but with a real stall in the middle, checking the
        // drain composes with nonzero stall: the cold miss at t=4 waits
        // 1ms of driver + 2ms of stall; the final flush adds 1ms more
        // driver that elapsed must cover.
        let t = unit_trace(&[0, 0], 4);
        let mut cfg = theory_config(1, 4, 3);
        cfg.driver_overhead = Nanos::from_millis(1);
        cfg.write_behind_period = Some(2);
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        assert_eq!(r.writes, 1);
        assert_eq!(r.compute, Nanos::from_millis(8));
        assert_eq!(r.driver, Nanos::from_millis(2));
        assert_eq!(r.stall, Nanos::from_millis(2));
        assert_eq!(r.elapsed, Nanos::from_millis(12));
        assert_eq!(r.elapsed, r.compute + r.driver + r.stall);
    }

    #[test]
    fn fetch_history_averages_round_to_nearest() {
        // 1ns and 2ns observations average to 1.5ns: div_rounded keeps
        // the nearest nanosecond (2) where truncating `/` dropped to 1.
        let mut h = FetchHistory::new(1);
        h.push_fetch(0, Nanos(1));
        h.push_fetch(0, Nanos(2));
        assert_eq!(h.avg_fetch(0), Some(Nanos(2)));
        h.push_compute(Nanos(1));
        h.push_compute(Nanos(2));
        assert_eq!(h.avg_compute(), Some(Nanos(2)));
    }

    #[test]
    fn write_behind_consumes_bandwidth_without_stalling_directly() {
        let t = unit_trace(&[0, 0, 0, 0, 0, 0, 0, 0], 4);
        let mut cfg = theory_config(1, 4, 3);
        cfg.write_behind_period = Some(2);
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        assert_eq!(r.writes, 4);
        assert_eq!(r.fetches, 1);
        // All-hit trace: the single cold miss stalls (3ms); the four
        // writes proceed in the background and add no stall.
        assert_eq!(r.stall, Nanos::from_millis(3));
    }

    // ------------------------------------------------------------------
    // Fault injection: hand-computable retry, abandonment, and degraded
    // accounting scenarios.

    use crate::config::RetryPolicy;
    use parcache_disk::FaultPlan;

    fn faults(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("test fault spec parses")
    }

    #[test]
    fn outage_retries_with_exponential_backoff_until_recovery() {
        // Disk 0 is out of service for [0, 10ms). The demand miss at
        // t=1ms is rejected; retries back off 1, 2, 4, 8ms (rejected at
        // 2, 4, 8; accepted at 16). Service is 5ms: elapsed = 21ms.
        let t = unit_trace(&[0], 1);
        let cfg = theory_config(1, 4, 5).with_faults(faults("outage:0:0:10"));
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        assert_eq!(r.elapsed, Nanos::from_millis(21));
        assert_eq!(r.compute, Nanos::from_millis(1));
        assert_eq!(r.stall, Nanos::from_millis(20));
        assert_eq!(r.fetches, 1);
        let f = r.fault.as_ref().expect("non-empty plan yields a summary");
        assert_eq!(f.faults_injected, 4);
        assert_eq!(f.retries, 4);
        assert_eq!(f.abandoned, 0);
        assert_eq!(f.per_disk_degraded, vec![Nanos::from_millis(10)]);
        let expect = 1.0 - 10.0 / 21.0;
        assert!((f.availability - expect).abs() < 1e-9, "{}", f.availability);
    }

    #[test]
    fn exhausted_retry_budget_abandons_and_reissues_demand_fetches() {
        // A 100ms outage with a one-retry budget: each second-fault
        // abandonment re-issues the demand fetch (the application cannot
        // proceed without the block), so issues march at 1ms intervals
        // until the retry at t=100ms lands. 99 fetches are issued, 98
        // abandoned, and every fault is answered by exactly one retry or
        // one abandonment.
        let t = unit_trace(&[0], 1);
        let cfg = theory_config(1, 4, 5)
            .with_faults(faults("outage:0:0:100"))
            .with_retry(RetryPolicy {
                max_retries: 1,
                backoff: Nanos::from_millis(1),
                backoff_cap: Nanos::from_millis(1),
                timeout: None,
            });
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        assert_eq!(r.elapsed, Nanos::from_millis(105));
        assert_eq!(r.fetches, 99);
        let f = r.fault.as_ref().unwrap();
        assert_eq!(f.retries, 99);
        assert_eq!(f.abandoned, 98);
        assert_eq!(f.faults_injected, f.retries + f.abandoned);
    }

    #[test]
    fn fail_slow_window_stretches_service_without_faulting() {
        // Factor 2 on a 5ms uniform disk: the demand fetch takes 10ms,
        // elapsed = 1 + 10 = 11ms. No faults are injected; the whole run
        // sits inside the declared window, so availability is zero.
        let t = unit_trace(&[0], 1);
        let cfg = theory_config(1, 4, 5).with_faults(faults("slow:0:0:100:2"));
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        assert_eq!(r.elapsed, Nanos::from_millis(11));
        assert_eq!(r.stall, Nanos::from_millis(10));
        let f = r.fault.as_ref().unwrap();
        assert_eq!(f.faults_injected, 0);
        assert_eq!(f.retries, 0);
        assert_eq!(f.abandoned, 0);
        assert_eq!(f.per_disk_degraded, vec![Nanos::from_millis(11)]);
        assert_eq!(f.availability, 0.0);
    }

    #[test]
    fn empty_plan_reports_no_fault_summary() {
        let t = unit_trace(&[0, 1, 2, 3], 1);
        let cfg = theory_config(2, 4, 5);
        let r = simulate(&t, PolicyKind::Aggressive, &cfg);
        assert!(r.fault.is_none());
        let json = r.to_json();
        assert!(!json.contains("fault"), "{json}");
        assert!(!json.contains("failed"), "{json}");
        assert!(!json.contains("degraded"), "{json}");
    }

    #[test]
    fn faulted_runs_are_identical_probed_and_unprobed() {
        // The probe layer must observe, never perturb — including the
        // retry machine, degraded-boundary flushing and write-behind.
        let blocks: Vec<u64> = (0..24).map(|i| i % 12).collect();
        let t = unit_trace(&blocks, 1);
        let cfg = theory_config(2, 6, 5)
            .with_faults(faults("flaky:*:0.2,slow:0:5:40:3,outage:1:10:30,seed:7"));
        let mut flushing = cfg.clone();
        flushing.write_behind_period = Some(3);
        for cfg in [cfg, flushing] {
            for kind in PolicyKind::ALL {
                let plain = simulate(&t, kind, &cfg);
                let mut events = Vec::new();
                let probed = simulate_probed(&t, kind, &cfg, &mut |e: &Event| events.push(*e));
                assert_eq!(plain, probed, "{kind}: probing changed a faulted run");
                let flushes = events.iter().enumerate().filter_map(|(i, e)| match *e {
                    Event::WriteIssued { now, disk, .. } => Some((now, disk, events.get(i + 1))),
                    _ => None,
                });
                let mut issued = 0;
                for (now, disk, next) in flushes {
                    // The flush reaches its drive's queue at the instant it
                    // is issued, unless the drive is out and turns it away.
                    let queued = matches!(next, Some(&Event::QueueDepth { now: t, disk: d, .. })
                        if (t, d) == (now, disk));
                    let turned_away = matches!(next, Some(&Event::FaultInjected {
                        now: t, disk: d, write: true, cause: FaultCause::Rejected, ..
                    }) if (t, d) == (now, disk));
                    assert!(
                        queued || turned_away,
                        "{kind}: flush at {now} then {next:?}"
                    );
                    issued += 1;
                }
                assert_eq!(issued, plain.writes, "{kind}");
                assert_eq!(
                    plain.writes > 0,
                    cfg.write_behind_period.is_some(),
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn timeout_caps_the_retry_window() {
        // With a 3ms timeout measured from the first fault, the fetch
        // first faulted at t=1ms abandons once a fault lands past t=4ms:
        // retries at 2 and 4 are within budget, the fault at 4 schedules
        // a retry at 8 only if 4 - 1 <= 3 — it is, so the abandon comes
        // from the fault at t=8 (7ms after the first). The re-issued
        // fetch at t=8 then walks the same ladder shifted.
        let t = unit_trace(&[0], 1);
        let cfg = theory_config(1, 4, 5)
            .with_faults(faults("outage:0:0:10"))
            .with_retry(RetryPolicy {
                max_retries: 8,
                backoff: Nanos::from_millis(1),
                backoff_cap: Nanos::from_millis(64),
                timeout: Some(Nanos::from_millis(3)),
            });
        let r = simulate(&t, PolicyKind::Demand, &cfg);
        let f = r.fault.as_ref().unwrap();
        assert!(f.abandoned > 0, "timeout never abandoned: {f:?}");
        assert_eq!(f.faults_injected, f.retries + f.abandoned);
        // The run still terminates with the block served after recovery.
        assert_eq!(r.fetches, f.abandoned + 1);
        assert!(r.elapsed > Nanos::from_millis(10));
    }

    /// Checks the missing-block index against a recount before the
    /// wrapped policy decides or handles a miss: every block neither
    /// resident nor in flight must sit at its next use at or after the
    /// cursor, on its disk and globally, and nothing else may sit at or
    /// after the cursor. Declares every index.
    struct Recounted(Box<dyn Policy>);

    impl Recounted {
        fn check(ctx: &Ctx<'_>) {
            let (o, cursor) = (ctx.oracle, ctx.cursor);
            let mut want: Vec<Vec<usize>> = vec![Vec::new(); o.layout().disks()];
            for idx in 0..o.num_blocks() as u32 {
                let next = o.next_occurrence_idx(idx, cursor);
                if !ctx.cache.resident(idx)
                    && !ctx.cache.inflight(idx)
                    && next != crate::oracle::NEVER
                {
                    want[o.disk_of(o.block_of(idx)).index()].push(next);
                }
            }
            let missing = ctx.missing();
            for (d, want) in want.iter_mut().enumerate() {
                want.sort_unstable();
                let got: Vec<usize> = missing.missing_on_disk_from(d, cursor).collect();
                assert_eq!(got, *want, "disk {d} at cursor {cursor}");
            }
            let mut all = want.concat();
            all.sort_unstable();
            let got: Vec<usize> = std::iter::successors(missing.first_missing(cursor), |&p| {
                missing.first_missing(p + 1)
            })
            .collect();
            assert_eq!(got, all, "globally at cursor {cursor}");
        }
    }

    impl Policy for Recounted {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn decide(&mut self, ctx: &mut Ctx<'_>) {
            Recounted::check(ctx);
            self.0.decide(ctx);
        }

        fn on_miss(&mut self, ctx: &mut Ctx<'_>, block: BlockId) {
            Recounted::check(ctx);
            self.0.on_miss(ctx, block);
        }
    }

    #[test]
    fn missing_index_matches_a_recount_at_every_decision() {
        // The callers hand the index the positions it moves (the cache's
        // next-use cursors answer them): on every issue, every eviction
        // and, under the faulted plan, every abandoned fetch, which the
        // check before a miss sees before the block is fetched again.
        // Windows of the paper traces keep the debug-build run short.
        // Predicted hints are left out: there the index keeps a passed
        // wrong guess by design.
        use crate::hints::HintSpec;
        let partial = HintSpec::Fraction {
            fraction: 0.8,
            seed: 7,
        };
        let mut abandoned = 0;
        for name in parcache_trace::TRACE_NAMES {
            let full = parcache_trace::trace_by_name(name, 1996).expect("paper trace");
            let window = full.requests[..full.requests.len().min(300)].to_vec();
            let trace = Trace::new(name, window, full.cache_blocks);
            for disks in [1, 4] {
                for hints in [HintSpec::Full, partial.clone()] {
                    for plan in ["", "flaky:*:0.05,outage:0:100:600,seed:9"] {
                        let mut config =
                            SimConfig::for_trace(disks, &trace).with_faults(faults(plan));
                        config.hints = hints.clone();
                        for kind in [
                            PolicyKind::FixedHorizon,
                            PolicyKind::Aggressive,
                            PolicyKind::Forestall,
                            PolicyKind::Demand,
                        ] {
                            let policy = kind.build(&trace, &config);
                            let r = simulate_with(&trace, &mut Recounted(policy), &config);
                            abandoned += r.fault.map_or(0, |f| f.abandoned);
                        }
                    }
                }
            }
        }
        assert!(abandoned > 0, "no run reached the abandon path");
    }
}
