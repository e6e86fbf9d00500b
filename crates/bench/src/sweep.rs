//! Deterministic multi-threaded sweep engine.
//!
//! A sweep expands a trace × algorithm × disk-count grid into indexed
//! cells, executes the cells on `std::thread::scope` workers pulling from
//! a shared atomic queue, and reassembles the results in cell-index order.
//! Every cell is an independent simulation (its own engine, cache, and
//! disk array over a shared immutable [`Arc<Trace>`]), so the output is
//! **byte-identical** at `--threads 1` and `--threads N`: parallelism
//! changes wall-clock time, never results.
//!
//! The same work-queue core ([`run_indexed`]) drives reverse aggressive's
//! per-configuration parameter search
//! (`best_reverse`), so every independent
//! simulation in the harness scales with cores. Everything here is
//! std-only, consistent with the workspace's hermetic-build rule.

use crate::experiments::Algo;
use crate::prof::WorkerStats;
use crate::runner::{best_reverse_search, panic_message, try_trace, TraceError};
use parcache_core::audit::{audit_rerun, AuditOutcome};
use parcache_core::engine::{simulate_probed, Report};
use parcache_core::json::{self, Obj, Raw};
use parcache_core::metrics::{MetricsProbe, RunMetrics, RunTotals};
use parcache_core::policy::PolicyKind;
use parcache_core::predict::HintMode;
use parcache_core::probe::StallCause;
use parcache_core::SimConfig;
use parcache_disk::FaultPlan;
use parcache_trace::Trace;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The worker count used when the caller does not specify one: the
/// machine's *effective* parallelism — available cores capped by the
/// cgroup CPU quota (see [`crate::prof::detect_parallelism`]), floored
/// so a fractional quota never oversubscribes, and at least 1.
///
/// A container limited to `200000 100000` (2 CPUs) on a 16-core host
/// gets 2 workers, not 16: extra workers past the quota only add
/// scheduler churn and skew per-worker telemetry.
pub fn default_threads() -> usize {
    let p = crate::prof::detect_parallelism();
    (p.effective.floor() as usize).max(1)
}

/// Samples a *thread-local* allocation counter: the embedding binary's
/// counting allocator maintains one exact counter per thread, so a
/// worker reading it before and after an item sees exactly the item's
/// own allocations — no cross-thread noise, no shared cache line.
/// `None` disables allocation accounting (the counters read 0).
pub type ThreadAllocSampler = Option<fn() -> u64>;

/// Runs `run(0..n)` on `threads` scoped workers and returns the results
/// **in index order**: [`run_indexed_observed`] without telemetry.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn run_indexed<T, F>(n: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_observed(n, threads, None, run, |_, _| {}).0
}

/// Runs `run(0..n)` on `threads` scoped workers pulling indices from a
/// shared atomic counter, and returns the results **in index order**
/// regardless of which worker computed what — the deterministic core of
/// the sweep engine. With one thread (or one task) the closure runs
/// inline, so the serial path is exactly a `map` over `0..n`.
///
/// Alongside the results come per-worker wall-clock telemetry: how many
/// items each worker ran, how long it was busy inside them, and its
/// total thread lifetime (idle = wall − busy covers queue waits and the
/// tail after the queue drains). The serial path reports one worker.
///
/// When a `sampler` is given, each item's allocations are read off the
/// worker's own thread-local counter and accumulated into
/// [`WorkerStats::work_allocs`]. Worker *setup* — thread spawn, the
/// result vector, queue bookkeeping — falls outside the sampled windows,
/// so `work_allocs` summed over workers is a pure function of the item
/// set: identical at any thread count.
///
/// After each item is produced (and its time/allocation windows closed),
/// `observe` may fold item-derived counts into the worker's own
/// [`WorkerStats`]. The fail-soft executor attributes ok/failed/skipped/
/// retry counts to the worker that ran each cell this way.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn run_indexed_observed<T, F, O>(
    n: usize,
    threads: usize,
    sampler: ThreadAllocSampler,
    run: F,
    observe: O,
) -> (Vec<T>, Vec<WorkerStats>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: Fn(&T, &mut WorkerStats) + Sync,
{
    use std::time::Instant;
    let sample = move || sampler.map_or(0, |f| f());
    // One item inside its time and allocation windows, then observed.
    let item = |i: usize, stats: &mut WorkerStats| {
        let t0 = Instant::now();
        let a0 = sample();
        let r = run(i);
        stats.work_allocs += sample().saturating_sub(a0);
        stats.busy_us += t0.elapsed().as_micros() as u64;
        stats.items += 1;
        observe(&r, stats);
        r
    };
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        let from = Instant::now();
        let mut stats = WorkerStats::default();
        let out: Vec<T> = (0..n).map(|i| item(i, &mut stats)).collect();
        stats.wall_us = from.elapsed().as_micros() as u64;
        return (out, vec![stats]);
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut workers: Vec<WorkerStats> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let from = Instant::now();
                    // Sized for an even split up front: result collection
                    // should almost never grow mid-loop.
                    let mut local = Vec::with_capacity(n / threads + 1);
                    let mut stats = WorkerStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, item(i, &mut stats)));
                    }
                    stats.wall_us = from.elapsed().as_micros() as u64;
                    (local, stats)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((part, stats)) => {
                    collected.extend(part);
                    workers.push(stats);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Reassemble in cell-index order: the output must not depend on the
    // scheduler's interleaving.
    collected.sort_by_key(|&(i, _)| i);
    (collected.into_iter().map(|(_, t)| t).collect(), workers)
}

/// One trace of a sweep, with the array sizes to run it at.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// The (shared) trace.
    pub trace: Arc<Trace>,
    /// Array sizes to simulate, in output order.
    pub disks: Vec<usize>,
}

/// A sweep specification: the grid before expansion.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Traces and their disk counts, in output order.
    pub entries: Vec<SweepEntry>,
    /// Algorithms to run at every (trace, disks) point, in output order.
    pub algos: Vec<Algo>,
    /// Hint sources to run every grid point under, in output order. An
    /// empty list means the default oracle source, so pre-existing specs
    /// expand to exactly the cells they always did.
    pub hints: Vec<HintMode>,
}

/// One expanded grid point.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the expanded grid (and in the output).
    pub index: usize,
    /// The trace this cell simulates.
    pub trace: Arc<Trace>,
    /// The algorithm.
    pub algo: Algo,
    /// The array size.
    pub disks: usize,
    /// Where the policy's hints come from.
    pub hints: HintMode,
}

/// One finished cell: the cell, its report, and (for probed sweeps) the
/// run's metrics.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// The grid point.
    pub cell: SweepCell,
    /// The simulation report.
    pub report: Report,
    /// Probe metrics, when the sweep ran probed.
    pub metrics: Option<RunMetrics>,
}

impl SweepSpec {
    /// The full appendix-A grid: every paper trace at every published
    /// array size under the four prefetching algorithms (332 cells).
    /// Traces are generated in parallel on `threads` workers (each is
    /// generated once and shared; see [`trace`](crate::runner::trace)).
    pub fn appendix_a(threads: usize) -> SweepSpec {
        SweepSpec::named(
            &parcache_trace::TRACE_NAMES,
            &Algo::APPENDIX_A,
            None,
            threads,
        )
    }

    /// A grid over named paper traces. `disks` of `None` selects each
    /// trace's published appendix-A array sizes.
    ///
    /// # Panics
    ///
    /// Panics when a trace is unknown or fails to generate; callers that
    /// want the failure as a value use [`SweepSpec::try_named`].
    pub fn named(
        names: &[&str],
        algos: &[Algo],
        disks: Option<&[usize]>,
        threads: usize,
    ) -> SweepSpec {
        Self::try_named(names, algos, disks, threads).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SweepSpec::named`] with trace resolution failures returned as
    /// typed [`TraceError`]s instead of panicking a worker thread — an
    /// unknown name or a generator panic surfaces as a value the CLI can
    /// turn into a diagnostic and an exit code. The first failing name
    /// (in input order) wins.
    pub fn try_named(
        names: &[&str],
        algos: &[Algo],
        disks: Option<&[usize]>,
        threads: usize,
    ) -> Result<SweepSpec, TraceError> {
        // Resolve (generate) distinct traces in parallel; the per-name
        // cache in `runner::try_trace` hands every worker the same Arc,
        // and caches failures too, so no worker ever unwinds here.
        let traces = run_indexed(names.len(), threads, |i| try_trace(names[i]));
        let mut entries = Vec::with_capacity(names.len());
        for (name, t) in names.iter().zip(traces) {
            entries.push(SweepEntry {
                disks: disks
                    .map(<[usize]>::to_vec)
                    .or_else(|| crate::paper::paper_cells(name).map(<[usize]>::to_vec))
                    .unwrap_or_else(|| crate::runner::DISK_COUNTS.to_vec()),
                trace: t?,
            });
        }
        Ok(SweepSpec {
            entries,
            algos: algos.to_vec(),
            hints: Vec::new(),
        })
    }

    /// Expands the grid into indexed cells: traces outermost, then hint
    /// sources, then array sizes, then algorithms — the appendix tables'
    /// row order, repeated per hint source.
    pub fn cells(&self) -> Vec<SweepCell> {
        let default_hints = [HintMode::Oracle];
        let hints: &[HintMode] = if self.hints.is_empty() {
            &default_hints
        } else {
            &self.hints
        };
        let mut cells = Vec::new();
        for entry in &self.entries {
            for &h in hints {
                for &d in &entry.disks {
                    for &algo in &self.algos {
                        cells.push(SweepCell {
                            index: cells.len(),
                            trace: Arc::clone(&entry.trace),
                            algo,
                            disks: d,
                            hints: h,
                        });
                    }
                }
            }
        }
        cells
    }
}

/// Executes one cell. Tuned reverse aggressive runs its parameter search
/// serially here — the sweep already owns the machine's parallelism, and
/// nested worker pools would oversubscribe it. With `audited`, the
/// policy and configuration that produced the report (for tuned reverse
/// aggressive, the search's winner) run once more under the audit; the
/// row is the unaudited one either way, so output bytes never depend on
/// the audit.
fn run_cell(
    cell: &SweepCell,
    probed: bool,
    audited: bool,
    faults: &FaultPlan,
) -> (CellRow, Option<AuditOutcome>) {
    let cfg = SimConfig::for_trace(cell.disks, &cell.trace).with_hint_mode(cell.hints);
    // An empty plan leaves the config untouched, so healthy sweeps stay
    // byte-identical to builds without fault support.
    let cfg = if faults.is_empty() {
        cfg
    } else {
        cfg.with_faults(faults.clone())
    };
    let (report, kind, cfg) = match cell.algo {
        Algo::TunedReverse => {
            let (report, best_cfg) = best_reverse_search(&cell.trace, &cfg, 1);
            (Some(report), PolicyKind::ReverseAggressive, best_cfg)
        }
        algo => {
            let kind = algo.policy_kind().expect("only TunedReverse lacks a kind");
            (None, kind, cfg)
        }
    };
    let (report, metrics) = if probed {
        // The simulator is deterministic, so re-running a tuned winner
        // under the probe reproduces the search's report.
        let mut probe = MetricsProbe::for_disks(cell.disks);
        let report = simulate_probed(&cell.trace, kind, &cfg, &mut probe);
        (report, Some(probe.finish()))
    } else {
        let report = report.unwrap_or_else(|| parcache_core::simulate(&cell.trace, kind, &cfg));
        (report, None)
    };
    let audit = audited.then(|| audit_rerun(&cell.trace, kind, &cfg, &report));
    let row = CellRow {
        cell: cell.clone(),
        report,
        metrics,
    };
    (row, audit)
}

// ---------------------------------------------------------------------------
// Fail-soft execution
// ---------------------------------------------------------------------------

/// Fail-soft execution policy for a sweep. The default — no timeout, no
/// retries, no fail-fast, no injection — runs every cell exactly once,
/// inline on its worker, behind a `catch_unwind` boundary; a clean grid
/// produces the same rows as running each cell directly.
#[derive(Debug, Clone, Default)]
pub struct FailSoft {
    /// Wall-clock deadline per cell attempt. When set, each attempt runs
    /// on a dedicated watchdog thread; an attempt that overruns is
    /// recorded as [`CellOutcome::TimedOut`] and its thread is detached
    /// (Rust cannot kill a thread, so a truly hung cell parks one thread
    /// until it finishes or the process exits — its allocations and CPU
    /// time are no longer attributed to the sweep's workers).
    pub cell_timeout: Option<Duration>,
    /// How many times a failed (panicked or timed-out) attempt is
    /// retried before the failure is recorded. 0 = one attempt.
    pub max_retries: u32,
    /// Stop dispatching new cells after the first failure, restoring the
    /// historical abort semantics. Cells never dispatched are recorded
    /// as [`CellOutcome::Skipped`]. With more than one worker, *which*
    /// cells are skipped depends on scheduling; at one thread the cut is
    /// deterministic.
    pub fail_fast: bool,
    /// Deterministic crash injection, for exercising the machinery.
    pub inject: Option<Injection>,
}

/// A deterministic, index-addressed fault injected *inside* the
/// isolation boundary, so tests and CI exercise the real
/// catch/watchdog/retry paths rather than a simulation of them. The CLI
/// parses one from the `PARCACHE_FAIL_CELL` environment hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Grid index of the cell to sabotage.
    pub cell: usize,
    /// What the sabotage does.
    pub kind: InjectionKind,
    /// How many attempts fail before the cell is allowed to succeed;
    /// `u32::MAX` (the parse default) means every attempt fails.
    pub times: u32,
}

/// The kinds of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// Panic before running the cell.
    Panic,
    /// Sleep this long before running the cell (trips the watchdog).
    Hang(Duration),
}

impl Injection {
    /// Parses an injection spec: `panic:<cell>[:<times>]` or
    /// `hang:<cell>:<ms>[:<times>]`.
    pub(crate) fn parse(spec: &str) -> Result<Injection, String> {
        let int = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("bad {what} {s:?} in injection spec {spec:?}"))
        };
        let parts: Vec<&str> = spec.split(':').collect();
        match parts.as_slice() {
            ["panic", cell] | ["panic", cell, ""] => Ok(Injection {
                cell: int(cell, "cell index")? as usize,
                kind: InjectionKind::Panic,
                times: u32::MAX,
            }),
            ["panic", cell, times] => Ok(Injection {
                cell: int(cell, "cell index")? as usize,
                kind: InjectionKind::Panic,
                times: int(times, "attempt count")?.min(u32::MAX as u64) as u32,
            }),
            ["hang", cell, ms] => Ok(Injection {
                cell: int(cell, "cell index")? as usize,
                kind: InjectionKind::Hang(Duration::from_millis(int(ms, "hang millis")?)),
                times: u32::MAX,
            }),
            ["hang", cell, ms, times] => Ok(Injection {
                cell: int(cell, "cell index")? as usize,
                kind: InjectionKind::Hang(Duration::from_millis(int(ms, "hang millis")?)),
                times: int(times, "attempt count")?.min(u32::MAX as u64) as u32,
            }),
            _ => Err(format!(
                "bad injection spec {spec:?}: expected panic:<cell>[:<times>] or hang:<cell>:<ms>[:<times>]"
            )),
        }
    }

    /// Reads the `PARCACHE_FAIL_CELL` environment hook. `Ok(None)` when
    /// unset; a set-but-malformed value is an error, never a silent
    /// no-op (a typo must not quietly disable a CI crash test).
    pub fn from_env() -> Result<Option<Injection>, String> {
        match std::env::var("PARCACHE_FAIL_CELL") {
            Ok(v) => Injection::parse(&v).map(Some),
            Err(_) => Ok(None),
        }
    }
}

/// How one cell ended: the outcome lattice of the fail-soft executor.
/// `Ok` carries the finished row; `Panicked` and `TimedOut` record a
/// failure after all attempts; `Skipped` means the executor never
/// dispatched the cell (fail-fast halt). Everything but `Ok` is re-run
/// by `--resume`.
///
/// `Ok` dwarfs the failure variants, but it is also the variant nearly
/// every instance holds — boxing the row would buy nothing and cost an
/// allocation per healthy cell.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell finished and produced its row.
    Ok(CellRow),
    /// Every attempt panicked; the last panic payload, as a string.
    Panicked {
        /// The rendered panic payload.
        msg: String,
    },
    /// Every attempt overran the watchdog deadline.
    TimedOut {
        /// The deadline each attempt overran.
        limit: Duration,
    },
    /// Never dispatched: a fail-fast halt landed first.
    Skipped,
}

impl CellOutcome {
    /// The finished row, when the cell completed.
    pub fn row(&self) -> Option<&CellRow> {
        match self {
            CellOutcome::Ok(row) => Some(row),
            _ => None,
        }
    }

    /// Whether a resumed run must re-execute this cell (anything that
    /// did not produce a row).
    pub(crate) fn needs_rerun(&self) -> bool {
        self.row().is_none()
    }
}

/// One cell's trip through the fail-soft executor.
#[derive(Debug, Clone)]
pub struct CellExecution {
    /// Grid index of the cell.
    pub index: usize,
    /// Attempts consumed (0 for a skipped cell).
    pub attempts: u32,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// The audit verdict, for audited runs whose cell produced a row.
    pub audit: Option<AuditOutcome>,
}

/// A fail-soft run: per-cell executions in grid order, plus per-worker
/// telemetry carrying the outcome counters.
#[derive(Debug, Clone)]
pub struct FailSoftRun {
    /// One execution per dispatched grid cell, in cell-index order.
    pub executions: Vec<CellExecution>,
    /// Per-worker telemetry (`failed`/`skipped`/`retries` populated).
    pub workers: Vec<WorkerStats>,
}

impl FailSoftRun {
    /// How many cells did not produce a row.
    pub fn failures(&self) -> usize {
        self.executions
            .iter()
            .filter(|e| e.outcome.needs_rerun())
            .count()
    }

    /// The finished rows, in cell-index order.
    pub fn rows(&self) -> impl Iterator<Item = &CellRow> {
        self.executions.iter().filter_map(|e| e.outcome.row())
    }

    /// Every cell's row, in cell-index order, for callers that need the
    /// whole grid (tests, the golden digest, the bench harness): a caught
    /// panic must still fail them rather than quietly shrink the work.
    ///
    /// # Panics
    ///
    /// Panics with the [`failsoft_summary`](crate::report::failsoft_summary)
    /// of the run — each failed cell's index and diagnosis — when any cell
    /// produced no row.
    pub fn expect_clean(self) -> Vec<CellRow> {
        let failures = crate::report::failsoft_summary(&[], &self.executions);
        assert!(failures.is_empty(), "sweep cells failed:\n{failures}");
        self.executions
            .into_iter()
            .filter_map(|e| match e.outcome {
                CellOutcome::Ok(row) => Some(row),
                _ => None,
            })
            .collect()
    }
}

/// Runs pre-expanded cells under a fail-soft `policy`: every attempt is
/// isolated behind `catch_unwind` (and, with a timeout, a watchdog
/// thread), failures are retried up to `policy.max_retries` times, and
/// the executor keeps draining the queue — one poisoned cell costs that
/// cell, not the sweep. Results come back in cell-index order, so the
/// surviving rows render byte-identically to the same cells of a clean
/// run at any thread count.
///
/// This is the one way to run sweep cells. `probed` attaches a metrics
/// probe to every cell, so rows carry [`RunMetrics`] (and fold into a
/// sweep [`aggregate`]); `audited` gives every finished cell an audit
/// verdict; a non-empty `faults` plan applies to every cell (its own
/// seed stream keeps the sweep deterministic at any thread count); a
/// `sampler` attributes each cell's allocations to its worker (see
/// [`run_indexed_observed`]). Callers that need every cell take the rows
/// with [`FailSoftRun::expect_clean`].
pub fn run_cells_failsoft(
    cells: &[SweepCell],
    threads: usize,
    probed: bool,
    audited: bool,
    faults: &FaultPlan,
    policy: &FailSoft,
    sampler: ThreadAllocSampler,
) -> FailSoftRun {
    let halt = AtomicBool::new(false);
    let (executions, workers) = run_indexed_observed(
        cells.len(),
        threads,
        sampler,
        |i| {
            let cell = &cells[i];
            if policy.fail_fast && halt.load(Ordering::Relaxed) {
                return CellExecution {
                    index: cell.index,
                    attempts: 0,
                    outcome: CellOutcome::Skipped,
                    audit: None,
                };
            }
            let exec = run_cell_failsoft(cell, probed, audited, faults, policy);
            if policy.fail_fast && exec.outcome.needs_rerun() {
                halt.store(true, Ordering::Relaxed);
            }
            exec
        },
        |exec: &CellExecution, stats: &mut WorkerStats| {
            match exec.outcome {
                CellOutcome::Ok(_) => {}
                CellOutcome::Skipped => stats.skipped += 1,
                CellOutcome::Panicked { .. } | CellOutcome::TimedOut { .. } => stats.failed += 1,
            }
            stats.retries += u64::from(exec.attempts.saturating_sub(1));
        },
    );
    FailSoftRun {
        executions,
        workers,
    }
}

/// One cell through the bounded-retry loop.
fn run_cell_failsoft(
    cell: &SweepCell,
    probed: bool,
    audited: bool,
    faults: &FaultPlan,
    policy: &FailSoft,
) -> CellExecution {
    let max_attempts = policy.max_retries.saturating_add(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let injected = policy
            .inject
            .filter(|inj| inj.cell == cell.index && attempts <= inj.times);
        let (outcome, audit) =
            attempt_cell(cell, probed, audited, faults, policy.cell_timeout, injected);
        if !outcome.needs_rerun() || attempts >= max_attempts {
            return CellExecution {
                index: cell.index,
                attempts,
                outcome,
                audit,
            };
        }
    }
}

/// One isolated attempt at a cell: its outcome and, when it finished
/// audited, the verdict.
fn attempt_cell(
    cell: &SweepCell,
    probed: bool,
    audited: bool,
    faults: &FaultPlan,
    timeout: Option<Duration>,
    injected: Option<Injection>,
) -> (CellOutcome, Option<AuditOutcome>) {
    let result = match timeout {
        // No deadline: run inline on the worker behind the unwind
        // boundary alone — the zero-cost clean path.
        None => catch_unwind(AssertUnwindSafe(|| {
            cell_body(cell, probed, audited, faults, injected)
        })),
        Some(limit) => {
            // Watchdog: the attempt runs on its own thread and reports
            // over a channel; the worker waits at most `limit`. On
            // timeout the thread is detached, never joined — the cell
            // may still be spinning, but the sweep moves on.
            let (tx, rx) = mpsc::channel();
            let cell = cell.clone();
            let faults = faults.clone();
            std::thread::spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    cell_body(&cell, probed, audited, &faults, injected)
                }));
                // The receiver may have given up on us; that's fine.
                let _ = tx.send(result);
            });
            match rx.recv_timeout(limit) {
                Ok(result) => result,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return (CellOutcome::TimedOut { limit }, None)
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let msg = "cell worker vanished without reporting".to_string();
                    return (CellOutcome::Panicked { msg }, None);
                }
            }
        }
    };
    match result {
        Ok((row, audit)) => (CellOutcome::Ok(row), audit),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            (CellOutcome::Panicked { msg }, None)
        }
    }
}

/// The work inside the isolation boundary: the injection point, then the
/// real cell. Injection fires in here — not in the dispatch loop — so an
/// injected panic unwinds through exactly the machinery a real one would.
fn cell_body(
    cell: &SweepCell,
    probed: bool,
    audited: bool,
    faults: &FaultPlan,
    injected: Option<Injection>,
) -> (CellRow, Option<AuditOutcome>) {
    if let Some(inj) = injected {
        match inj.kind {
            InjectionKind::Panic => panic!("injected failure in cell {}", cell.index),
            InjectionKind::Hang(d) => std::thread::sleep(d),
        }
    }
    run_cell(cell, probed, audited, faults)
}

/// The run-wide totals folded over the probed outcomes (in the order
/// given — callers pass cell-index order for deterministic output), or
/// `None` when no outcome carries metrics. Cells with different array
/// sizes cannot merge their per-disk vectors, so a sweep aggregates the
/// counters and the array-wide distributions only.
pub fn aggregate(outcomes: &[CellRow]) -> Option<RunTotals> {
    let mut agg: Option<RunTotals> = None;
    for m in outcomes.iter().filter_map(|o| o.metrics.as_ref()) {
        agg.get_or_insert_with(RunTotals::default).merge(&m.totals);
    }
    agg
}

/// The column gates of a sweep CSV document: which optional column
/// groups the header and every row carry. Fault columns appear iff the
/// run carries fault accounting; hint columns iff any cell runs a
/// predicted source. Both are **pure functions of the grid**:
/// [`Report::fault`] is `Some` exactly when the fault plan was
/// non-empty, and a cell's hint column depends only on its own
/// [`SweepCell::hints`]. [`CsvGates::for_grid`] therefore renders any
/// *subset* of a grid's rows with the same bytes the full run would
/// produce — the fact that makes a resumed sweep's spliced CSV
/// byte-identical to an uninterrupted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvGates {
    /// Append the fault accounting columns.
    pub faulted: bool,
    /// Append the hint-source column (plus accuracy, with `explain`).
    pub hinted: bool,
    /// Render the `--explain` flavor (per-cause stall columns).
    pub explain: bool,
}

impl CsvGates {
    /// The gates a grid will render under, before any cell has run.
    pub fn for_grid(cells: &[SweepCell], faults: &FaultPlan, explain: bool) -> CsvGates {
        CsvGates {
            faulted: !faults.is_empty() && !cells.is_empty(),
            hinted: cells.iter().any(|c| c.hints != HintMode::Oracle),
            explain,
        }
    }

    /// The gates a finished row set renders under — the historical,
    /// outcome-driven computation. Identical to [`CsvGates::for_grid`]
    /// of the cells the rows came from (pinned by test).
    pub fn for_rows(rows: &[CellRow], explain: bool) -> CsvGates {
        CsvGates {
            faulted: rows.iter().any(|o| o.report.fault.is_some()),
            hinted: rows
                .iter()
                .any(|o| o.cell.hints != HintMode::Oracle || o.report.hints.is_some()),
            explain,
        }
    }

    /// The header line (with trailing newline): the report columns, then
    /// each gated group in the order rows append them.
    pub(crate) fn header(&self) -> String {
        let mut out = String::from(Report::csv_header());
        if self.faulted {
            out.push_str(",faults_injected,retries,abandoned,degraded_s,availability");
        }
        if self.explain {
            for c in StallCause::ALL {
                let _ = write!(out, ",stall_{}_s", c.name());
            }
        }
        if self.hinted {
            out.push_str(",hints");
            if self.explain {
                out.push_str(",hint_precision,hint_recall");
            }
        }
        out.push('\n');
        out
    }

    /// One row (with trailing newline), rendered under these gates. The
    /// fault columns come from [`Report::to_csv_row`] itself, which
    /// appends them exactly when the run had a fault plan.
    pub fn row(&self, o: &CellRow) -> String {
        let mut out = o.report.to_csv_row();
        if self.explain {
            for c in StallCause::ALL {
                let secs = o.report.stall_by_cause.get(c).as_secs_f64();
                let _ = write!(out, ",{secs:.6}");
            }
        }
        if self.hinted {
            out.push(',');
            out.push_str(o.cell.hints.name());
            if self.explain {
                // The oracle source is by definition perfectly precise
                // and complete; predicted cells report measured figures.
                let (precision, recall) = match &o.report.hints {
                    Some(stats) => (stats.precision(), stats.recall()),
                    None => (1.0, 1.0),
                };
                let _ = write!(out, ",{precision:.4},{recall:.4}");
            }
        }
        out.push('\n');
        out
    }

    /// The rows as a CSV document under these gates: the header, then
    /// one row per cell in the order given.
    pub fn document(&self, rows: &[CellRow]) -> String {
        let per_row = if self.explain { 128 } else { 96 };
        let mut out = String::with_capacity(rows.len() * per_row + 160);
        out.push_str(&self.header());
        for o in rows {
            out.push_str(&self.row(o));
        }
        out
    }
}

/// The outcomes as a CSV document (header plus one row per cell, in cell
/// order). Identical input produces identical bytes, whatever the thread
/// count that computed it.
pub fn sweep_csv(outcomes: &[CellRow]) -> String {
    CsvGates::for_rows(outcomes, false).document(outcomes)
}

/// One run as `{"report":…,"metrics":…}`, metrics only when the run
/// was probed: an item of the sweep document's `cells` and of the
/// single-run document's `runs`.
pub fn run_json(report: &Report, metrics: Option<&RunMetrics>) -> Obj {
    json::object()
        .field("report", Raw(report.to_json()))
        .opt("metrics", metrics.map(|m| Raw(m.to_json())))
}

/// The outcomes as one JSON document: `{"cells":[...]}`, each cell's
/// [`run_json`] in cell order, plus the aggregate over probed cells when
/// present.
pub fn sweep_json(outcomes: &[CellRow]) -> String {
    let cells = outcomes
        .iter()
        .map(|o| run_json(&o.report, o.metrics.as_ref()));
    json::object()
        .array("cells", cells)
        .opt("aggregate", aggregate(outcomes).map(|a| Raw(a.to_json())))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_order_across_threads() {
        for threads in [1, 2, 4, 9] {
            let out = run_indexed(57, threads, |i| i * i);
            assert_eq!(out, (0..57).map(|i| i * i).collect::<Vec<_>>(), "{threads}");
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn run_indexed_runs_every_index_exactly_once() {
        use std::sync::Mutex;
        let seen = Mutex::new(vec![0u32; 100]);
        let out = run_indexed(100, 4, |i| {
            seen.lock().unwrap()[i] += 1;
            i
        });
        assert_eq!(out.len(), 100);
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn run_indexed_propagates_worker_panics() {
        run_indexed(8, 3, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn run_indexed_observed_matches_run_indexed() {
        for threads in [1, 3] {
            let (out, workers) = run_indexed_observed(23, threads, None, |i| i * 3, |_, _| {});
            assert_eq!(out, run_indexed(23, threads, |i| i * 3));
            assert_eq!(workers.len(), threads);
            assert_eq!(workers.iter().map(|w| w.items).sum::<u64>(), 23);
            for w in &workers {
                assert!(w.wall_us >= w.busy_us, "{w:?}");
            }
        }
        let (out, workers) = run_indexed_observed(0, 4, None, |i| i, |_, _| {});
        assert!(out.is_empty());
        assert_eq!(workers.len(), 1);
    }

    #[test]
    fn observed_work_allocs_are_thread_count_invariant() {
        use std::cell::Cell;
        thread_local! {
            static FAKE: Cell<u64> = const { Cell::new(0) };
        }
        fn read_fake() -> u64 {
            FAKE.with(Cell::get)
        }
        // Each item "allocates" i + 1 ticks on whichever worker runs it;
        // anything outside the items never touches the counter, so the
        // summed figure must be a pure function of the item set.
        let run = |i: usize| {
            FAKE.with(|c| c.set(c.get() + i as u64 + 1));
            i * 2
        };
        let expected: u64 = (1..=40).sum();
        for threads in [1, 2, 4] {
            let (out, workers) = run_indexed_observed(40, threads, Some(read_fake), run, |_, _| {});
            assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
            let total: u64 = workers.iter().map(|w| w.work_allocs).sum();
            assert_eq!(total, expected, "{threads} threads");
        }
        // Without a sampler the counters stay zero.
        let (_, workers) = run_indexed_observed(8, 2, None, |i| i, |_, _| {});
        assert!(workers.iter().all(|w| w.work_allocs == 0));
    }

    /// Runs `spec` through the fail-soft executor, requiring every cell.
    fn run_clean(spec: &SweepSpec, policy: &FailSoft) -> Vec<CellRow> {
        let faults = FaultPlan::default();
        run_cells_failsoft(&spec.cells(), 2, false, false, &faults, policy, None).expect_clean()
    }

    #[test]
    #[should_panic(expected = "cell 1: panicked after 1 attempt(s): injected failure in cell 1")]
    fn expect_clean_names_a_failed_cell() {
        let spec = SweepSpec {
            entries: vec![SweepEntry {
                trace: Arc::new(parcache_trace::synth::synth_trace(2, 40, 5)),
                disks: vec![1],
            }],
            algos: vec![Algo::Demand, Algo::Aggressive, Algo::FixedHorizon],
            hints: Vec::new(),
        };
        let inject = Injection::parse("panic:1").ok();
        run_clean(
            &spec,
            &FailSoft {
                inject,
                ..FailSoft::default()
            },
        );
    }

    #[test]
    fn explain_csv_appends_cause_columns_without_touching_default() {
        let t = Arc::new(parcache_trace::synth::synth_trace(2, 60, 5));
        let spec = SweepSpec {
            entries: vec![SweepEntry {
                trace: t,
                disks: vec![1],
            }],
            algos: vec![Algo::Demand, Algo::Aggressive],
            hints: Vec::new(),
        };
        let outcomes = run_clean(&spec, &FailSoft::default());
        let plain = sweep_csv(&outcomes);
        let explain = CsvGates::for_rows(&outcomes, true).document(&outcomes);
        let plain_cols = plain.lines().next().unwrap().split(',').count();
        for (p, e) in plain.lines().zip(explain.lines()) {
            // Every explain row is its default row plus five columns —
            // the default bytes are a strict prefix.
            assert!(e.starts_with(p), "{e}\nvs\n{p}");
            assert_eq!(e.split(',').count(), plain_cols + 5);
        }
        assert!(explain
            .lines()
            .next()
            .unwrap()
            .ends_with("stall_late_prefetch_s,stall_no_prefetch_s,stall_congestion_s,stall_retry_s,stall_eviction_refetch_s"));
    }

    #[test]
    fn cells_expand_in_row_order() {
        let t = Arc::new(parcache_trace::synth::synth_trace(2, 40, 5));
        let spec = SweepSpec {
            entries: vec![SweepEntry {
                trace: t,
                disks: vec![1, 2],
            }],
            algos: vec![Algo::Demand, Algo::FixedHorizon],
            hints: Vec::new(),
        };
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.hints == HintMode::Oracle));
        let order: Vec<(usize, &str)> = cells.iter().map(|c| (c.disks, c.algo.name())).collect();
        assert_eq!(
            order,
            vec![
                (1, "demand"),
                (1, "fixed-horizon"),
                (2, "demand"),
                (2, "fixed-horizon")
            ]
        );
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
    }

    #[test]
    fn hint_axis_multiplies_the_grid_and_gates_the_csv_columns() {
        use parcache_core::predict::PredictorKind;
        let t = Arc::new(parcache_trace::synth::synth_trace(2, 60, 5));
        let spec = SweepSpec {
            entries: vec![SweepEntry {
                trace: t,
                disks: vec![1],
            }],
            algos: vec![Algo::Demand, Algo::Aggressive],
            hints: vec![
                HintMode::Oracle,
                HintMode::Predicted(PredictorKind::Sequential),
            ],
        };
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        let order: Vec<&str> = cells.iter().map(|c| c.hints.name()).collect();
        assert_eq!(order, vec!["oracle", "oracle", "seq", "seq"]);
        let outcomes = run_clean(&spec, &FailSoft::default());
        // Oracle cells stay stats-free; predicted cells carry stats.
        assert!(outcomes[0].report.hints.is_none());
        assert!(outcomes[2].report.hints.is_some());
        let csv = sweep_csv(&outcomes);
        assert!(csv.lines().next().unwrap().ends_with(",hints"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",oracle"));
        assert!(csv.lines().nth(3).unwrap().ends_with(",seq"));
        let explain = CsvGates::for_rows(&outcomes, true).document(&outcomes);
        let header = explain.lines().next().unwrap();
        assert!(header.ends_with(",hints,hint_precision,hint_recall"));
        // Oracle rows render as perfectly precise and complete.
        assert!(explain
            .lines()
            .nth(1)
            .unwrap()
            .contains(",oracle,1.0000,1.0000"));
        // The plain document for an oracle-only subset keeps its
        // historical bytes: no hints column at all.
        let oracle_only = sweep_csv(&outcomes[..2]);
        assert!(!oracle_only.contains("hints"));
    }

    #[test]
    fn appendix_a_grid_has_332_cells() {
        // Grid shape only — expansion does not run any simulation, but it
        // does generate the traces, so share the process-wide cache.
        let spec = SweepSpec::appendix_a(2);
        assert_eq!(spec.cells().len(), 332);
    }
}
