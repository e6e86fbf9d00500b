//! `perfbench`: the parcache simulator's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <appendix-a|engine-stress>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload for about `--seconds`
//! seconds with tracing off, single-threaded, and prints the end-to-end
//! metrics in calibrated time (see `calib`). With `--trace 1` it makes
//! one untraced parallel pass (`appendix-a`), one untraced serial pass
//! and one traced serial pass, and prints the per-layer metrics. Either
//! way the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! records the machine and build context. See `README.md`.

mod adapter;
mod alloc;
mod calib;
mod spans;
mod traced;

use adapter::{Algo, CellRow, PolicyKind, Report, SweepCell, Trace};
use calib::Timeline;
use spans::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Worker threads of the untimed direct pass and of the traced run's
/// parallel pass. Timed work runs on one thread: on a machine with few
/// cores, more threads than one measure the scheduler as much as the
/// program.
const SWEEP_THREADS: usize = 2;

/// Reference digests of each workload's rendered CSV, one
/// `<workload> <seed> <sha256>` per line.
const REFERENCES: &str = include_str!("../references.txt");

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The paper's 332-cell appendix-A grid through the sweep executor.
    AppendixA,
    /// The synthetic stress loop through each policy, with oracle hints
    /// on a healthy array and with predicted hints on a faulty one.
    EngineStress,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "appendix-a" => Some(Workload::AppendixA),
            "engine-stress" => Some(Workload::EngineStress),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AppendixA => "appendix-a",
            Workload::EngineStress => "engine-stress",
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Named metric values with their units, in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values cannot appear in JSON; a metric with
                // no samples reads 0 (adding 0.0 also turns the -0.0 of
                // an empty float sum into 0.0).
                let v = if value.is_finite() { value + 0.0 } else { 0.0 };
                format!(r#""{name}":{{"value":{v:?},"unit":"{unit}"}}"#)
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// What one run prints.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: sweep cells, or single policy runs.
    pub attempted: u64,
    /// Operations that panicked or produced output that differs from the
    /// reference.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
    /// The digest of the workload's rendered CSV.
    pub digest: String,
    /// Whether a stored reference digest existed for this seed.
    pub referenced: bool,
    /// Median calibration kernel time of a timed run, in milliseconds.
    pub kernel_ms: Option<f64>,
}

/// The stored reference digest of `workload` at `seed`, if any. The
/// appendix-A grid at the paper's seed is pinned by the repository's
/// own golden fixture.
fn reference(workload: Workload, seed: u64) -> Option<String> {
    if workload == Workload::AppendixA && seed == adapter::GOLDEN_SEED {
        return Some(adapter::GOLDEN_DIGEST.trim().to_string());
    }
    REFERENCES.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload.name() && s.parse() == Ok(seed)).then(|| d.to_string())
    })
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident memory of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The position of `kind` in [`PolicyKind::ALL`].
pub fn policy_index(kind: PolicyKind) -> usize {
    PolicyKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every policy is in ALL")
}

/// Mean |simulated − published| ÷ published elapsed time, in percent,
/// over the rows the paper publishes; `None` when it publishes none.
fn paper_error_pct(reports: &[&Report]) -> Option<f64> {
    let errors: Vec<f64> = reports
        .iter()
        .filter_map(|r| {
            let published = adapter::paper_elapsed(&r.trace, &r.policy, r.disks)?;
            Some((r.elapsed_secs() - published).abs() / published * 100.0)
        })
        .collect();
    (!errors.is_empty()).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
}

/// Expands the appendix-A grid over the paper traces generated from
/// `seed`, recording `trace.gen` and `sweep.expand` spans.
fn sweep_setup(seed: u64, t: &mut Tracer) -> Vec<SweepCell> {
    let traces: Vec<(Arc<Trace>, Vec<usize>)> = t.span("trace.gen", None, |_| {
        adapter::paper_trace_names()
            .iter()
            .map(|name| (adapter::paper_trace(name, seed), adapter::paper_disks(name)))
            .collect()
    });
    t.span("sweep.expand", None, |_| {
        adapter::expand(&traces, &Algo::APPENDIX_A)
    })
}

/// Generates the stress trace from `seed`, recording a `trace.gen` span.
fn stress_setup(seed: u64, t: &mut Tracer) -> Trace {
    t.span("trace.gen", None, |_| adapter::stress_trace(seed))
}

/// Adds `events_per_s.<policy>` for each policy, in [`PolicyKind::ALL`]
/// order.
fn put_policy_rates(m: &mut Metrics, rates: [f64; 5]) {
    for (kind, rate) in PolicyKind::ALL.iter().zip(rates) {
        m.put(format!("events_per_s.{}", kind.name()), rate, "1/s");
    }
}

/// One simulation of the direct (executor-free) pass over a grid.
struct Job {
    /// The grid cell whose trace and configuration the job runs.
    cell: usize,
    kind: PolicyKind,
    cfg: adapter::SimConfig,
}

/// Every simulation the sweep performs, in grid order: one per cell, or
/// all eight configurations of a tuned reverse-aggressive cell.
fn direct_jobs(cells: &[SweepCell]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (cell, c) in cells.iter().enumerate() {
        let cfg = adapter::cell_config(c);
        match adapter::cell_policy(c) {
            Some(kind) => jobs.push(Job { cell, kind, cfg }),
            None => jobs.extend(adapter::reverse_configs(&cfg).into_iter().map(|cfg| Job {
                cell,
                kind: PolicyKind::ReverseAggressive,
                cfg,
            })),
        }
    }
    jobs
}

/// The direct pass: every simulation of the grid straight through the
/// engine on [`SWEEP_THREADS`] workers, with an event-counting probe.
/// Returns the grid's rows as this independent path computes them (for a
/// tuned-reverse cell, the first of its configurations with the smallest
/// elapsed time, the library search's own tie-break) and the simulated
/// events of the whole grid.
fn direct_pass(cells: &[SweepCell]) -> (Vec<CellRow>, u64) {
    let jobs = direct_jobs(cells);
    let results = adapter::run_parallel(jobs.len(), SWEEP_THREADS, |j| {
        let job = &jobs[j];
        let mut probe = adapter::CountProbe::default();
        let r = adapter::simulate_observed(&cells[job.cell].trace, job.kind, &job.cfg, &mut probe);
        (r, probe.events)
    });
    let mut best: Vec<Option<Report>> = vec![None; cells.len()];
    let mut events = 0;
    for (job, (report, e)) in jobs.iter().zip(results) {
        events += e;
        let b = &mut best[job.cell];
        if b.as_ref().is_none_or(|b| report.elapsed < b.elapsed) {
            *b = Some(report);
        }
    }
    let rows = cells
        .iter()
        .zip(best)
        .map(|(cell, r)| adapter::cell_row(cell, r.expect("every cell ran")))
        .collect();
    (rows, events)
}

/// One policy's probe run: a fixed simulation repeated across the window
/// for that policy's rate.
struct ProbeRun {
    trace: Arc<Trace>,
    kind: PolicyKind,
    cfg: adapter::SimConfig,
    /// The counted run's report and events, which every timed run repeats.
    expected: Report,
    events: u64,
}

/// `appendix-a`'s probe runs: each policy on the grid's largest
/// trace, `synth`, at one disk, in [`PolicyKind::ALL`] order. Each is
/// counted once here, untimed.
fn probe_runs(cells: &[SweepCell]) -> Vec<ProbeRun> {
    let synth = &cells
        .iter()
        .find(|c| c.trace.name == "synth")
        .expect("every grid has the synth trace")
        .trace;
    let cfg = adapter::run_config(synth, 1);
    PolicyKind::ALL
        .iter()
        .map(|&kind| {
            let mut probe = adapter::CountProbe::default();
            let expected = adapter::simulate_observed(synth, kind, &cfg, &mut probe);
            ProbeRun {
                trace: Arc::clone(synth),
                kind,
                cfg: cfg.clone(),
                expected,
                events: probe.events,
            }
        })
        .collect()
}

/// The untraced run of `appendix-a`.
///
/// Units of the timeline: each grid cell alone through the executor, on
/// one worker (`0..n`), each policy's probe run (`n..n + 5`) and one
/// set-up (`n + 5`). A round runs every cell in grid order; after each
/// trace's cells come the five probe runs and one set-up. Rounds repeat
/// until the budget is spent, after at least one full round. Each unit's
/// figure is the median of its calibrated times.
fn timed_sweep(seed: u64, seconds: u64) -> Outcome {
    let cells = sweep_setup(seed, &mut Tracer::new());
    let n = cells.len();
    let probes = probe_runs(&cells);
    let (probe_unit, setup_unit) = (n, n + probes.len());
    let mut tl = Timeline::new(setup_unit + 1);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();

    // The first round's rows; later rounds must repeat them exactly.
    let mut rows: Vec<Option<CellRow>> = vec![None; n];
    let (mut attempted, mut failed) = (0u64, 0u64);
    'window: for round in 0.. {
        for i in 0..n {
            if round > 0 && start.elapsed() >= budget {
                break 'window;
            }
            let out = tl.time(i, || {
                adapter::run_sweep(std::slice::from_ref(&cells[i]), 1, None)
            });
            let row = out.rows.into_iter().next().flatten();
            let ok = match (&rows[i], &row) {
                (_, None) => false,
                (None, Some(r)) => adapter::time_identity_holds(&r.report),
                (Some(r0), Some(r)) => r0.report == r.report,
            };
            failed += u64::from(!ok);
            attempted += 1;
            if rows[i].is_none() {
                rows[i] = row;
            }

            let trace_ends = cells
                .get(i + 1)
                .is_none_or(|next| !Arc::ptr_eq(&next.trace, &cells[i].trace));
            if trace_ends {
                for (k, p) in probes.iter().enumerate() {
                    let r = tl.time(probe_unit + k, || {
                        adapter::simulate(&p.trace, p.kind, &p.cfg)
                    });
                    failed += u64::from(r != p.expected);
                    attempted += 1;
                }
                tl.time(setup_unit, || sweep_setup(seed, &mut Tracer::new()));
            }
        }
    }
    let cal = tl.finish();
    let peak_rss = peak_rss_mb();

    let swept: Vec<CellRow> = rows.into_iter().flatten().collect();
    let digest = adapter::sha256_hex(adapter::sweep_csv(&swept).as_bytes());
    let (direct, grid_events) = direct_pass(&cells);
    let direct_digest = adapter::sha256_hex(adapter::sweep_csv(&direct).as_bytes());
    attempted += n as u64;
    let stored = reference(Workload::AppendixA, seed);
    let expected = stored.clone().unwrap_or_else(|| direct_digest.clone());
    // A wrong digest fails every cell of the pass that produced it.
    if digest != expected {
        eprintln!("perfbench: the sweep's CSV disagrees with the reference digest");
        failed += n as u64;
    }
    if direct_digest != expected {
        eprintln!("perfbench: the direct pass's CSV disagrees with the reference digest");
        failed += n as u64;
    }

    let grid_s = cal.sum_of_medians(0..n);
    let mut m = Metrics::default();
    m.put("cells_per_s", n as f64 / grid_s, "1/s");
    m.put("events_per_s", grid_events as f64 / grid_s, "1/s");
    put_policy_rates(
        &mut m,
        std::array::from_fn(|k| probes[k].events as f64 / cal.median(probe_unit + k)),
    );
    m.put("setup_s", cal.setup_median(setup_unit), "s");
    m.put("peak_rss_mb", peak_rss, "MB");
    let reports: Vec<&Report> = direct.iter().map(|r| &r.report).collect();
    m.put(
        "paper_err_pct",
        paper_error_pct(&reports).unwrap_or(0.0),
        "%",
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        digest,
        referenced: stored.is_some(),
        kernel_ms: Some(median(&cal.kernel) * 1e3),
    }
}

/// The appendix-A cells of the `synth` trace at `seed`, through the
/// sweep executor: `engine-stress`'s accuracy figure, since its stress
/// loop is the same generator scaled up and has no published times.
fn synth_paper_rows(seed: u64) -> Vec<CellRow> {
    let traces = [(
        adapter::paper_trace("synth", seed),
        adapter::paper_disks("synth"),
    )];
    let cells = adapter::expand(&traces, &Algo::APPENDIX_A);
    let out = adapter::run_sweep(&cells, SWEEP_THREADS, None);
    out.rows.into_iter().flatten().collect()
}

/// The policy runs of `engine-stress`, in order: every policy under the
/// healthy configuration, then every policy under the predicted, faulty
/// one. Unit `c * 5 + k` is configuration `c`, policy `k`.
pub fn stress_runs(configs: &[adapter::SimConfig; 2]) -> Vec<(PolicyKind, &adapter::SimConfig)> {
    configs
        .iter()
        .flat_map(|cfg| PolicyKind::ALL.iter().map(move |&kind| (kind, cfg)))
        .collect()
}

/// The untraced run of `engine-stress`.
///
/// Units of the timeline: each of the ten policy runs (`0..10`) and one
/// set-up (`10`). A round runs each once, in order. Rounds repeat until
/// the budget is spent. Each unit's figure is the median of its
/// calibrated times.
fn timed_engine(seed: u64, seconds: u64) -> Outcome {
    let trace = stress_setup(seed, &mut Tracer::new());
    let configs = adapter::stress_configs(&trace, seed);
    let runs = stress_runs(&configs);
    // Event counts are deterministic: count them once, untimed, in a
    // round that also warms the caches and fixes each run's report.
    let mut events = Vec::new();
    let mut expected: Vec<Report> = Vec::new();
    for &(kind, cfg) in &runs {
        let mut probe = adapter::CountProbe::default();
        expected.push(adapter::simulate_observed(&trace, kind, cfg, &mut probe));
        events.push(probe.events);
    }
    let digest = adapter::sha256_hex(adapter::reports_csv(&expected).as_bytes());
    let stored = reference(Workload::EngineStress, seed);
    let reference_ok = stored.as_ref().is_none_or(|d| *d == digest);
    if !reference_ok {
        eprintln!("perfbench: the stress reports disagree with the reference digest");
    }

    let setup_unit = runs.len();
    let mut tl = Timeline::new(setup_unit + 1);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while attempted == 0 || start.elapsed() < budget {
        for (u, &(kind, cfg)) in runs.iter().enumerate() {
            let r = tl.time(u, || adapter::simulate(&trace, kind, cfg));
            attempted += 1;
            if !reference_ok || r != expected[u] || !adapter::time_identity_holds(&r) {
                failed += 1;
            }
        }
        tl.time(setup_unit, || stress_setup(seed, &mut Tracer::new()));
    }
    let cal = tl.finish();
    let peak_rss = peak_rss_mb();
    let synth = synth_paper_rows(seed);
    let mut m = Metrics::default();
    let round = cal.sum_of_medians(0..runs.len());
    m.put("cells_per_s", runs.len() as f64 / round, "1/s");
    m.put(
        "events_per_s",
        events.iter().sum::<u64>() as f64 / round,
        "1/s",
    );
    let per_policy = PolicyKind::ALL.len();
    put_policy_rates(
        &mut m,
        std::array::from_fn(|k| {
            let (a, b) = (k, per_policy + k);
            (events[a] + events[b]) as f64 / (cal.median(a) + cal.median(b))
        }),
    );
    m.put("setup_s", cal.setup_median(setup_unit), "s");
    m.put("peak_rss_mb", peak_rss, "MB");
    let reports: Vec<&Report> = synth.iter().map(|r| &r.report).collect();
    m.put(
        "paper_err_pct",
        paper_error_pct(&reports).unwrap_or(0.0),
        "%",
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        digest,
        referenced: stored.is_some(),
        kernel_ms: Some(median(&cal.kernel) * 1e3),
    }
}

/// First `model name` line of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <appendix-a|engine-stress> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = match (args.workload, args.trace) {
        (Workload::AppendixA, false) => timed_sweep(args.seed, args.seconds),
        (Workload::EngineStress, false) => timed_engine(args.seed, args.seconds),
        (Workload::AppendixA, true) => traced::traced_sweep(args.seed),
        (Workload::EngineStress, true) => traced::traced_engine(args.seed),
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "{{\"context\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"effective_cores\":{},\
         \"cpu_model\":{},\"rustc\":{},\"commit\":{},\"csv_sha256\":{},\"reference\":{},\
         \"calib_kernel_ms\":{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        adapter::effective_cores(),
        json_str(&cpu_model()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&outcome.digest),
        json_str(if outcome.referenced {
            "stored"
        } else {
            "computed"
        }),
        outcome
            .kernel_ms
            .map_or("null".to_string(), |ms| format!("{ms:?}")),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
}
