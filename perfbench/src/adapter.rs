//! The benchmark's only door into the parcache crates.
//!
//! Every call the benchmark makes into the library goes through this
//! module, so a change to the library's entry points (for example,
//! collapsing the `simulate*` family or the sweep entry points into one
//! path) is absorbed here and nowhere else. Sweeps run through the
//! fail-soft executor, `run_cells_failsoft`, the entry point that is a
//! superset of the others.

use parcache_bench::sweep::{self, FailSoft, SweepEntry, SweepSpec};
use parcache_core::engine::{simulate_probed, simulate_with_probed};
use parcache_core::oracle::Oracle;
use parcache_core::{NoopProbe, Policy, PredictorKind, Probe};
use parcache_disk::{DiskArray, Hp97560, Layout};
use parcache_types::{BlockId, DiskId, Nanos};
use std::sync::Arc;

pub use parcache_bench::sweep::{CellRow, SweepCell};
pub use parcache_bench::Algo;
pub use parcache_core::engine::Report;
pub use parcache_core::{Event, HintMode, PolicyKind, SimConfig};
pub use parcache_disk::FaultPlan;
pub use parcache_trace::Trace;

/// The seed every published experiment uses; the golden digest of the
/// appendix-A sweep CSV is pinned at this seed.
pub const GOLDEN_SEED: u64 = parcache_bench::SEED;

/// The committed digest of the appendix-A sweep CSV at [`GOLDEN_SEED`].
pub const GOLDEN_DIGEST: &str =
    include_str!("../../crates/bench/tests/fixtures/appendix_a_sweep.sha256");

/// The fault plan of `engine-stress`'s predicted-hint runs, before its
/// seed clause.
pub const STRESS_FAULTS: &str = "flaky:*:0.05,slow:0:0:2000:2,outage:1:100:600";

/// The hint source of `engine-stress`'s predicted-hint runs.
pub const STRESS_PREDICTOR: PredictorKind = PredictorKind::Markov;

/// Shape of the `engine-stress` trace: passes over a sequential loop of
/// this many blocks, striped over this many disks. The same shape as the
/// repository's engine bench, so the rates are comparable.
pub const STRESS_PASSES: usize = 60;
/// Blocks in the stress trace's loop.
pub const STRESS_LOOP_BLOCKS: usize = 4000;
/// Disks the stress trace is striped over.
pub const STRESS_DISKS: usize = 4;

/// The ten paper traces, generated from `seed`, in registry order.
pub fn paper_trace_names() -> &'static [&'static str] {
    &parcache_trace::TRACE_NAMES
}

/// Generates one paper trace from `seed`.
pub fn paper_trace(name: &str, seed: u64) -> Arc<Trace> {
    Arc::new(parcache_trace::trace_by_name(name, seed).expect("registry trace name"))
}

/// Generates the `engine-stress` trace from `seed`.
pub fn stress_trace(seed: u64) -> Trace {
    parcache_trace::synth::synth_trace(STRESS_PASSES, STRESS_LOOP_BLOCKS, seed)
}

/// The two configurations every `engine-stress` policy runs under:
/// oracle hints on a healthy array, then [`STRESS_PREDICTOR`]'s hints on
/// an array under [`STRESS_FAULTS`] with `seed` as its fault seed.
pub fn stress_configs(trace: &Trace, seed: u64) -> [SimConfig; 2] {
    let healthy = SimConfig::for_trace(STRESS_DISKS, trace);
    let faults =
        FaultPlan::parse(&format!("{STRESS_FAULTS},seed:{seed}")).expect("valid fault plan");
    let predicted = healthy
        .clone()
        .with_hint_mode(HintMode::Predicted(STRESS_PREDICTOR))
        .with_faults(faults);
    [healthy, predicted]
}

/// The array sizes appendix A publishes for `trace`.
pub fn paper_disks(trace: &str) -> Vec<usize> {
    parcache_bench::paper_cells(trace)
        .expect("every paper trace has published cells")
        .to_vec()
}

/// The paper's elapsed time in seconds for one cell, if published.
pub fn paper_elapsed(trace: &str, policy: &str, disks: usize) -> Option<f64> {
    parcache_bench::paper_elapsed(trace, policy, disks)
}

/// Expands an oracle-hinted grid: traces outermost, then array sizes,
/// then algorithms (the appendix tables' row order).
pub fn expand(traces: &[(Arc<Trace>, Vec<usize>)], algos: &[Algo]) -> Vec<SweepCell> {
    SweepSpec {
        entries: traces
            .iter()
            .map(|(trace, disks)| SweepEntry {
                trace: Arc::clone(trace),
                disks: disks.clone(),
            })
            .collect(),
        algos: algos.to_vec(),
        hints: Vec::new(),
    }
    .cells()
}

/// The configuration a sweep cell runs under: the same construction the
/// sweep executor uses on a healthy array, so direct runs reproduce its
/// rows.
pub fn cell_config(cell: &SweepCell) -> SimConfig {
    run_config(&cell.trace, cell.disks)
}

/// The configuration of one oracle-hinted run of `trace` on `disks`
/// healthy drives.
pub fn run_config(trace: &Trace, disks: usize) -> SimConfig {
    SimConfig::for_trace(disks, trace)
}

/// The cell's policy, or `None` for the tuned reverse-aggressive search.
pub fn cell_policy(cell: &SweepCell) -> Option<PolicyKind> {
    cell.algo.policy_kind()
}

/// The outcome of one sweep through the fail-soft executor.
pub struct SweepOutcome {
    /// One entry per cell in grid order; `None` where the cell panicked.
    pub rows: Vec<Option<CellRow>>,
    /// Heap allocations made inside the cells, when a sampler was given.
    pub work_allocs: u64,
}

/// Runs `cells` through the fail-soft executor on `threads` workers, on
/// a healthy array. `sampler` reads the calling thread's allocation
/// count.
pub fn run_sweep(
    cells: &[SweepCell],
    threads: usize,
    sampler: Option<fn() -> u64>,
) -> SweepOutcome {
    let run = sweep::run_cells_failsoft(
        cells,
        threads,
        false,
        false,
        &FaultPlan::default(),
        &FailSoft::default(),
        sampler,
    );
    SweepOutcome {
        rows: run
            .executions
            .iter()
            .map(|e| e.outcome.row().cloned())
            .collect(),
        work_allocs: run.workers.iter().map(|w| w.work_allocs).sum(),
    }
}

/// Runs `n` independent jobs on `threads` workers, results in index order.
pub fn run_parallel<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    sweep::run_indexed(n, threads, job)
}

/// The sweep CSV document for finished rows, exactly as the CLI renders it.
pub fn sweep_csv(rows: &[CellRow]) -> String {
    sweep::sweep_csv(rows)
}

/// A CSV document of bare reports (header plus one row each).
pub fn reports_csv(reports: &[Report]) -> String {
    let mut out = String::from(Report::csv_header());
    out.push('\n');
    for r in reports {
        out.push_str(&r.to_csv_row());
        out.push('\n');
    }
    out
}

/// Lowercase hex SHA-256 of `bytes`.
pub fn sha256_hex(bytes: &[u8]) -> String {
    parcache_bench::sha256_hex(bytes)
}

/// A finished row for `cell`, for rendering direct runs as sweep CSV.
pub fn cell_row(cell: &SweepCell, report: Report) -> CellRow {
    CellRow {
        cell: cell.clone(),
        report,
        metrics: None,
    }
}

/// Whether a report keeps the engine's time identity
/// `elapsed == compute + driver + stall`.
pub fn time_identity_holds(r: &Report) -> bool {
    r.elapsed == r.compute + r.driver + r.stall
}

/// Simulated stall of a report, in seconds.
pub fn stall_secs(r: &Report) -> f64 {
    r.stall.as_secs_f64()
}

/// One simulation with no probe: the path sweep cells take.
pub fn simulate(trace: &Trace, kind: PolicyKind, cfg: &SimConfig) -> Report {
    simulate_probed(trace, kind, cfg, &mut NoopProbe)
}

/// One simulation reporting every event to `probe`.
pub fn simulate_observed<P: Probe>(
    trace: &Trace,
    kind: PolicyKind,
    cfg: &SimConfig,
    probe: &mut P,
) -> Report {
    simulate_probed(trace, kind, cfg, probe)
}

/// The eight reverse-aggressive configurations the tuned search tries,
/// in its grid order: fetch estimate F̂ in {1, 4, 16, 64} × batch size
/// in {4, 40} (appendix A).
pub fn reverse_configs(base: &SimConfig) -> Vec<SimConfig> {
    [1u64, 4, 16, 64]
        .iter()
        .flat_map(|&f| [4usize, 40].map(|b| base.clone().with_reverse_params(f, b)))
        .collect()
}

/// The library's serial tuned reverse-aggressive search.
pub fn best_reverse_search(trace: &Trace, base: &SimConfig) -> (Report, SimConfig) {
    parcache_bench::best_reverse_search(trace, base, 1)
}

/// Builds the full-knowledge oracle the engine builds for an
/// oracle-hinted run.
pub fn build_oracle(trace: &Trace, cfg: &SimConfig) -> Oracle {
    Oracle::new(trace, Layout::striped(cfg.disks))
}

/// Runs the predictor pre-pass the engine runs for a predicted-hint
/// cell; `None` for an oracle-hinted configuration.
pub fn predict_oracle(trace: &Trace, cfg: &SimConfig) -> Option<Oracle> {
    match cfg.hint_mode {
        HintMode::Oracle => None,
        HintMode::Predicted(kind) => {
            let mut source = kind.build();
            let (oracle, _) = parcache_core::predict::predicted_oracle(
                trace,
                Layout::striped(cfg.disks),
                source.as_mut(),
                parcache_core::predict::DEFAULT_EPOCH,
            );
            Some(oracle)
        }
    }
}

/// Whether a configuration takes its hints from a predictor.
pub fn is_predicted(cfg: &SimConfig) -> bool {
    cfg.hint_mode != HintMode::Oracle
}

/// Instantiates a policy (reverse aggressive builds its offline
/// schedule here).
pub fn build_policy(trace: &Trace, kind: PolicyKind, cfg: &SimConfig) -> Box<dyn Policy> {
    kind.build(trace, cfg)
}

/// Runs the engine's event loop over an already-built policy.
pub fn run_policy<P: Probe>(
    trace: &Trace,
    policy: &mut dyn Policy,
    cfg: &SimConfig,
    probe: &mut P,
) -> Report {
    simulate_with_probed(trace, policy, cfg, probe)
}

/// Counts every simulation event.
#[derive(Debug, Default)]
pub struct CountProbe {
    /// Events seen.
    pub events: u64,
}

impl Probe for CountProbe {
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
    }
}

/// One disk-array call, as the engine made it.
#[derive(Debug, Clone, Copy)]
pub enum DiskOp {
    /// A fetch of `block` enqueued at `now`.
    Issue { now: Nanos, block: BlockId },
    /// The in-service request on `disk` completed at `now`.
    Complete { now: Nanos, disk: DiskId },
}

/// Counts the events of each layer at the engine's probe boundary and,
/// when `capture` is set, records the disk-array calls for replay.
#[derive(Debug, Default)]
pub struct LayerProbe {
    /// All events.
    pub events: u64,
    /// Policy decision points.
    pub decisions: u64,
    /// References found resident.
    pub hits: u64,
    /// References not resident.
    pub misses: u64,
    /// Resident blocks that lost their frame.
    pub evictions: u64,
    /// Faults charged to requests.
    pub faults: u64,
    /// Driver retries.
    pub retries: u64,
    /// Requests given up on.
    pub abandoned: u64,
    /// The run's disk-array calls, in the order the engine made them.
    pub capture: Option<Vec<DiskOp>>,
}

impl Probe for LayerProbe {
    fn on_event(&mut self, event: &Event) {
        self.events += 1;
        match *event {
            Event::PolicyDecision { .. } => self.decisions += 1,
            Event::CacheHit { .. } => self.hits += 1,
            Event::CacheMiss { .. } => self.misses += 1,
            Event::Eviction { .. } => self.evictions += 1,
            Event::FaultInjected { .. } => self.faults += 1,
            Event::RetryIssued { .. } => self.retries += 1,
            Event::RequestAbandoned { .. } => self.abandoned += 1,
            Event::FetchIssued { now, block, .. } => {
                if let Some(ops) = &mut self.capture {
                    ops.push(DiskOp::Issue { now, block });
                }
            }
            Event::FetchCompleted { now, disk, .. } => {
                if let Some(ops) = &mut self.capture {
                    ops.push(DiskOp::Complete { now, disk });
                }
            }
            _ => {}
        }
    }
}

/// Replays captured disk-array calls into a fresh healthy HP 97560
/// array configured like `cfg`, returning each drive's
/// `(served, total service ns)`.
pub fn replay_disks(cfg: &SimConfig, ops: &[DiskOp]) -> Vec<(u64, u64)> {
    let mut array = DiskArray::new(cfg.disks, cfg.discipline, |_| Box::new(Hp97560::new()));
    for op in ops {
        match *op {
            DiskOp::Issue { now, block } => {
                let outcome = array.enqueue(now, block);
                assert!(!outcome.is_rejected(), "a healthy drive never rejects");
            }
            DiskOp::Complete { now, disk } => {
                array.complete(now, disk);
            }
        }
    }
    array
        .stats()
        .iter()
        .map(|s| (s.served, s.total_service.as_nanos()))
        .collect()
}

/// Each drive's `(served, total service ns)` as a report states them.
pub fn report_disks(r: &Report) -> Vec<(u64, u64)> {
    r.per_disk
        .iter()
        .map(|s| (s.served, s.total_service.as_nanos()))
        .collect()
}

/// Whether the run's array is the healthy HP 97560 array that
/// [`replay_disks`] rebuilds.
pub fn replayable(cfg: &SimConfig) -> bool {
    cfg.faults.is_empty() && cfg.disk_model == parcache_core::config::DiskModelKind::Hp97560
}

/// The machine's effective parallelism: available cores capped by the
/// cgroup CPU quota.
pub fn effective_cores() -> f64 {
    parcache_bench::detect_parallelism().effective
}
