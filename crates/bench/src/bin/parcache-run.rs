//! Ad-hoc experiment runner.
//!
//! ```sh
//! parcache-run <trace> [policy] [disks] [--json] [--events <path>] [--hist]
//! parcache-run synth aggressive 1,2,3,4
//! parcache-run postgres-select all 1,2,4,8,16
//! parcache-run ./my-app.trace forestall 1,2,4   # your own trace file
//! parcache-run glimpse forestall 4 --json       # machine-readable report
//! parcache-run glimpse forestall 4 --hist       # ASCII latency histograms
//! parcache-run glimpse forestall 4 --events events.jsonl
//!
//! parcache-run --sweep [traces] [algos] [disks] [--threads N] [--json] [--hist]
//! parcache-run --sweep                           # full appendix-A grid, CSV
//! parcache-run --sweep all all --threads 4 --json
//! parcache-run --sweep dinero,cscope1 aggressive,tuned-reverse 1,2,4
//!
//! parcache-run --bench                               # full benchmark, writes BENCH_*.json
//! parcache-run --bench-smoke [--baseline BENCH_sweep.json]
//! parcache-run --fuzz 200 [--seed S] [--threads N]   # differential fuzzer
//! parcache-run --sweep --audit                       # audited sweep
//! parcache-run glimpse forestall 4 --audit           # audited single runs
//! parcache-run glimpse forestall 4 --faults outage:0:100:400
//! parcache-run --sweep --faults flaky:*:0.01,seed:7  # degraded-array sweep
//! parcache-run glimpse all 4 --explain               # stall-by-cause table
//! parcache-run --sweep --explain                     # CSV with per-cause columns
//! parcache-run --sweep --profile prof.json           # harness self-profile
//! parcache-run synth forestall 4 --hints markov      # online predicted hints
//! parcache-run --sweep synth all 4 --hints oracle,seq,markov,mithril
//! parcache-run --sweep --out sweep.csv               # atomic CSV + failure manifest
//! parcache-run --sweep --cell-timeout 5000 --max-cell-retries 1 --out sweep.csv
//! parcache-run --sweep --resume sweep.csv.manifest.json --out sweep.csv
//! ```
//!
//! The trace argument is one of the paper's trace names, or a path to a
//! trace file in the `parcache-trace` text format.
//!
//! * `--json` prints one JSON document (report + counters + histograms +
//!   per-disk timeline per run) instead of the human table.
//! * `--events <path>` streams every simulation event to `path` as JSON
//!   lines.
//! * `--hist` prints ASCII histogram tables (service, response, stall,
//!   queue depth) after the breakdown table.
//!
//! Any of the three attaches a metrics probe to the engine; without them
//! the run uses the zero-cost no-op probe.
//!
//! `--sweep` expands a trace × algorithm × disk-count grid and runs the
//! cells on `--threads` workers (default: all available cores). Traces
//! and algorithms accept `all` or comma-separated lists; algorithms are
//! the appendix-A names (`demand`, `fixed-horizon`, `aggressive`,
//! `tuned-reverse`, `forestall`); omitted disk counts default to each
//! trace's published appendix-A array sizes. Output is CSV (or one JSON
//! document with `--json`; `--hist` attaches probes and adds aggregate
//! histograms) and is byte-identical for every `--threads` value — only
//! wall-clock time changes. `--events` is not available under `--sweep`.
//!
//! * `--audit` reruns every cell (or run) under the conservation-checking
//!   audit probe. Stdout is unchanged — the audited rerun only verifies;
//!   violations go to stderr and the exit status becomes 1.
//! * `--fuzz <n>` runs the differential fuzzer for `n` generated cases
//!   (each case runs every policy, plain and audited) and exits nonzero
//!   on any violation or divergence. `--seed <s>` picks the stream
//!   (default 1996); `--threads` applies.
//! * `--bench` runs the continuous benchmark harness: the smoke sweep
//!   subset, the full appendix-A grid at 1/2/4 worker threads, and the
//!   synthetic engine stress trace under every policy. Results (wall
//!   time, cells/sec, simulated events/sec, allocation counts) are
//!   written to `BENCH_sweep.json` and `BENCH_engine.json` in the
//!   current directory.
//! * `--bench-smoke` runs only the smoke subset and prints its JSON to
//!   stdout; with `--baseline <path>` it compares cells/sec against a
//!   committed `BENCH_sweep.json` and exits 1 on a regression beyond
//!   the harness tolerance (25%). Both bench modes also apply the
//!   scaling-efficiency gate: on machines with at least two effective
//!   cores, 2-thread cells/sec must reach 75% of linear scaling over
//!   the 1-thread rate (effectively single-core machines skip with a
//!   note).
//! * `--faults <spec>` runs everything under a deterministic fault plan
//!   (single runs and sweeps). The spec is comma-separated
//!   `flaky:<disk|*>:<p>`, `slow:<disk|*>:<from_ms>:<until_ms>:<factor>`,
//!   `outage:<disk|*>:<from_ms>:<until_ms>`, and `seed:<u64>` clauses;
//!   reports and sweep CSV grow fault-accounting fields. Output stays
//!   byte-identical across `--threads` values.
//! * `--explain` breaks the stall column down by cause (late prefetch,
//!   no prefetch, congestion, fault retry, eviction refetch): single
//!   runs append a per-policy stall-by-cause table, and sweeps emit CSV
//!   with `stall_<cause>_s` columns plus per-trace tables on stderr.
//!   The default sweep CSV is untouched — the extra columns exist only
//!   under this flag. (`--json` output always carries
//!   `stall_by_cause`, so the flag changes nothing there.)
//! * `--hints <list>` swaps the disclosed-future oracle for an online
//!   predictor (`seq`, `markov`, `mithril`; `oracle` is the default
//!   disclosed future). Single runs take one source and print its
//!   precision/recall; sweeps accept a comma-separated list as an extra
//!   grid axis and gain a `hints` CSV column (plus
//!   `hint_precision`/`hint_recall` under `--explain`).
//! * Contradictory flag combinations (`--bench --sweep`, `--seed`
//!   without `--fuzz`, `--explain` under `--fuzz`, ...) are rejected up
//!   front with exit status 2 instead of being silently ignored.
//! * `--profile <path>` profiles the harness itself: hierarchical span
//!   self-times with per-span allocation counts, per-worker busy/idle
//!   telemetry for sweeps, trace-cache hit/miss counts, and the
//!   detected effective parallelism, written as one JSON document to
//!   `path` plus flamegraph-compatible folded stacks to `path.folded`.
//!   Without the flag the profiling code monomorphizes away entirely
//!   (the same zero-cost trick as the engine's no-op probe), so default
//!   runs pay nothing.
//!
//! Sweeps execute fail-soft: each cell runs behind an unwind boundary,
//! so one panicking cell costs that cell, not the sweep. The surviving
//! rows keep their exact clean-run bytes; the exit status becomes 1.
//!
//! * `--out <path>` writes the sweep document to `path` atomically
//!   (write-temp-then-rename) instead of stdout, and — in CSV modes —
//!   a failure manifest to `<path>.manifest.json` recording every
//!   cell's outcome, attempts, and panic payloads, plus a grid hash.
//! * `--resume <manifest>` re-runs only the cells a previous manifest
//!   records as failed, skipped, or missing, splices the stored rows
//!   back in cell order, and produces a document byte-identical to an
//!   uninterrupted run at any `--threads`. A manifest from a different
//!   grid, flag set, or trace content is rejected up front (exit 2).
//! * `--cell-timeout <ms>` puts each cell attempt under a wall-clock
//!   watchdog; an attempt that overruns is recorded as timed out.
//! * `--max-cell-retries <n>` retries a panicked or timed-out cell up
//!   to `n` more times before recording the failure.
//! * `--fail-fast` restores the historical abort semantics: stop
//!   dispatching new cells after the first failure (undispatched cells
//!   are recorded as skipped, so `--resume` picks them up).
//!
//! All file outputs (sweep documents, manifests, bench baselines,
//! profiles, event logs) are written atomically, so a killed process
//! never leaves a truncated artifact under a destination name.

use parcache_bench::bench;
use parcache_bench::fsio::{write_atomic, AtomicFile};
use parcache_bench::manifest::{self, SweepManifest};
use parcache_bench::prof::{detect_parallelism, NoopProf, Prof, WallProf, WorkerStats};
use parcache_bench::report::{explain_table, failsoft_summary};
use parcache_bench::runner::{trace_cache_stats, TraceError};
use parcache_bench::sweep::{self, CellRow, SweepAggregate, SweepEntry, SweepSpec};
use parcache_bench::{breakdown_table, trace, Algo, BreakdownRow, DISK_COUNTS};
use parcache_core::audit::{audit_rerun, AuditOutcome};
use parcache_core::engine::{simulate, simulate_probed};
use parcache_core::metrics::{MetricsProbe, RunMetrics, Unit};
use parcache_core::policy::PolicyKind;
use parcache_core::predict::HintMode;
use parcache_core::probe::{Event, Probe};
use parcache_core::{Report, SimConfig};
use parcache_disk::FaultPlan;
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// A pass-through global allocator that counts allocation calls, so the
/// benchmark harness can report per-stage allocation totals. The library
/// crates stay `forbid(unsafe_code)`; the counter lives only in this
/// binary.
///
/// The count is kept twice:
///
/// * a *sharded* global — each thread bumps its own cache-line-padded
///   stripe, summed on read. A single shared atomic used to bounce its
///   cache line between every worker on every allocation (~10.8M times
///   per full bench), which showed up as negative thread scaling in the
///   sweep bench. Striping makes the write purely thread-local in the
///   cache; reads are rare (a handful per bench stage).
/// * an *exact per-thread* counter — a plain thread-local `Cell`, read
///   by the sweep's per-cell sampling so comparable allocation figures
///   are a pure function of the cell set, independent of `--threads`.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Stripes the global total is sharded over: comfortably more than
    /// any plausible worker count, so concurrent threads land on
    /// different cache lines.
    const STRIPES: usize = 64;

    /// One padded counter. 128 bytes covers the spatial-prefetcher pair
    /// of 64-byte lines on current x86.
    #[repr(align(128))]
    struct Stripe(AtomicU64);

    /// Total allocation calls (alloc + realloc + alloc_zeroed), sharded.
    static STRIPE_COUNTS: [Stripe; STRIPES] = [const { Stripe(AtomicU64::new(0)) }; STRIPES];

    /// Round-robin stripe assignment for threads.
    static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        /// This thread's assigned stripe; `usize::MAX` until first use.
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
        /// Allocation calls made by this thread. `u64` has no
        /// destructor and the init is const, so touching it from inside
        /// the allocator cannot recurse into the allocator.
        static LOCAL: Cell<u64> = const { Cell::new(0) };
    }

    #[inline]
    fn bump() {
        // `try_with` covers TLS teardown: late allocations fall back to
        // stripe 0 and drop out of the (already sampled) local count.
        let idx = STRIPE
            .try_with(|s| {
                let mut idx = s.get();
                if idx == usize::MAX {
                    idx = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
                    s.set(idx);
                }
                idx
            })
            .unwrap_or(0);
        STRIPE_COUNTS[idx].0.fetch_add(1, Ordering::Relaxed);
        let _ = LOCAL.try_with(|l| l.set(l.get() + 1));
    }

    /// Process-wide allocation calls so far: the sum over all stripes.
    /// Monotonic, but an unsynchronized snapshot — fine for deltas
    /// around quiesced stages.
    pub fn total() -> u64 {
        STRIPE_COUNTS
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Allocation calls made by the calling thread so far.
    pub fn thread_total() -> u64 {
        LOCAL.try_with(Cell::get).unwrap_or(0)
    }

    /// The counting wrapper around the system allocator.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc_zeroed(layout) }
        }
    }
}

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Reads the process-wide allocation counter.
fn alloc_count() -> u64 {
    counting_alloc::total()
}

/// Reads the calling thread's allocation counter — the sampler the sweep
/// threads through to per-cell work accounting.
fn thread_alloc_count() -> u64 {
    counting_alloc::thread_total()
}

/// One-screen usage summary, printed alongside argument errors.
const USAGE: &str = "\
usage: parcache-run <trace> [policy] [disks] [--json] [--hist] [--audit]
                    [--explain] [--events <path>] [--faults <spec>]
                    [--hints <source>] [--profile <path>]
       parcache-run --sweep [traces] [algos] [disks] [--threads N]
                    [--json] [--hist] [--audit] [--explain]
                    [--faults <spec>] [--hints <list>] [--profile <path>]
                    [--out <path>] [--resume <manifest>] [--cell-timeout <ms>]
                    [--max-cell-retries <n>] [--fail-fast]
       parcache-run --fuzz <n> [--seed <s>] [--threads N] [--differential]
                    [--profile <path>]
       parcache-run --bench [--profile <path>]
       parcache-run --bench-smoke [--baseline <BENCH_sweep.json>]
       parcache-run --bench-engine [--baseline <BENCH_engine.json>]

traces:  paper trace names (or `all`), or a path to a trace file
faults:  comma-separated flaky:<disk|*>:<p>, slow:<disk|*>:<from_ms>:<until_ms>:<factor>,
         outage:<disk|*>:<from_ms>:<until_ms>, seed:<u64>
hints:   oracle (disclosed future, the default), seq, markov, mithril —
         comma-separated under --sweep to add a hint-source sweep axis";

/// What stopped the CLI: a bad invocation (exit 2, with usage) or a
/// runtime I/O failure (exit 1).
#[derive(Debug)]
enum CliError {
    /// The command line does not parse or names something unknown.
    Usage(String),
    /// An I/O operation on behalf of the user failed.
    Io(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

fn parse_policies(arg: &str) -> Vec<PolicyKind> {
    if arg == "all" {
        return PolicyKind::ALL.to_vec();
    }
    PolicyKind::ALL
        .into_iter()
        .filter(|k| k.name() == arg)
        .collect()
}

/// The probe the CLI attaches when any observability flag is set: folds
/// metrics, and optionally streams each event as a JSON line.
struct CliProbe<'a> {
    metrics: MetricsProbe,
    log: Option<&'a mut std::io::BufWriter<AtomicFile>>,
}

impl Probe for CliProbe<'_> {
    fn on_event(&mut self, event: &Event) {
        self.metrics.on_event(event);
        if let Some(w) = self.log.as_deref_mut() {
            writeln!(w, "{}", event.to_json()).unwrap_or_else(|e| {
                eprintln!("failed to write event log: {e}");
                std::process::exit(1);
            });
        }
    }
}

struct Options {
    json: bool,
    hist: bool,
    sweep: bool,
    audit: bool,
    explain: bool,
    fuzz: Option<usize>,
    /// `--differential`: the fuzzer additionally replays every forestall
    /// case on the naive full-rescan predictor and every case's tuned
    /// reverse-aggressive search as eight independent runs, and compares
    /// the results.
    differential: bool,
    bench: bool,
    bench_smoke: bool,
    /// `--bench-engine`: the engine stress bench alone, JSON to stdout,
    /// optionally gated against a committed `BENCH_engine.json`.
    bench_engine: bool,
    baseline: Option<String>,
    /// `--seed` as given; `None` means the flag was absent, so the
    /// fuzzer falls back to its default stream.
    seed: Option<u64>,
    threads: Option<usize>,
    events: Option<String>,
    profile: Option<String>,
    faults: FaultPlan,
    /// `--hints` as given; `None` means the flag was absent (oracle).
    hints: Option<Vec<HintMode>>,
    /// `--out`: write the sweep document here (atomically) instead of
    /// stdout, plus a failure manifest alongside in CSV modes.
    out: Option<String>,
    /// `--resume`: a manifest from a previous `--out` run whose
    /// finished rows are carried forward.
    resume: Option<String>,
    /// `--cell-timeout` in milliseconds; `None` means no watchdog.
    cell_timeout: Option<u64>,
    /// `--max-cell-retries`; 0 means one attempt per cell.
    max_cell_retries: u32,
    /// `--fail-fast`: stop dispatching cells after the first failure.
    fail_fast: bool,
    positional: Vec<String>,
}

fn parse_args(args: Vec<String>) -> Result<Options, CliError> {
    let mut opts = Options {
        json: false,
        hist: false,
        sweep: false,
        audit: false,
        explain: false,
        fuzz: None,
        differential: false,
        bench: false,
        bench_smoke: false,
        bench_engine: false,
        baseline: None,
        seed: None,
        threads: None,
        events: None,
        profile: None,
        faults: FaultPlan::default(),
        hints: None,
        out: None,
        resume: None,
        cell_timeout: None,
        max_cell_retries: 0,
        fail_fast: false,
        positional: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--hist" => opts.hist = true,
            "--sweep" => opts.sweep = true,
            "--audit" => opts.audit = true,
            "--explain" => opts.explain = true,
            "--fuzz" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.fuzz = Some(n),
                _ => {
                    return Err(CliError::Usage(
                        "--fuzz requires a positive case count".to_string(),
                    ))
                }
            },
            "--bench" => opts.bench = true,
            "--bench-smoke" => opts.bench_smoke = true,
            "--bench-engine" => opts.bench_engine = true,
            "--differential" => opts.differential = true,
            "--baseline" => match it.next() {
                Some(p) => opts.baseline = Some(p),
                None => {
                    return Err(CliError::Usage(
                        "--baseline requires a path to a committed bench JSON".to_string(),
                    ))
                }
            },
            "--seed" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(s) => opts.seed = Some(s),
                None => {
                    return Err(CliError::Usage(
                        "--seed requires an unsigned integer".to_string(),
                    ))
                }
            },
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.threads = Some(n),
                _ => {
                    return Err(CliError::Usage(
                        "--threads requires a positive integer".to_string(),
                    ))
                }
            },
            "--events" => match it.next() {
                Some(p) => opts.events = Some(p),
                None => return Err(CliError::Usage("--events requires a path".to_string())),
            },
            "--profile" => match it.next() {
                Some(p) => opts.profile = Some(p),
                None => {
                    return Err(CliError::Usage(
                        "--profile requires an output path".to_string(),
                    ))
                }
            },
            "--faults" => match it.next() {
                Some(spec) => {
                    opts.faults = FaultPlan::parse(&spec)
                        .map_err(|e| CliError::Usage(format!("bad --faults spec: {e}")))?;
                }
                None => {
                    return Err(CliError::Usage(
                        "--faults requires a fault-plan spec".to_string(),
                    ))
                }
            },
            "--hints" => match it.next() {
                Some(list) => {
                    let modes = list
                        .split(',')
                        .map(|n| {
                            HintMode::by_name(n).ok_or_else(|| {
                                CliError::Usage(format!(
                                    "unknown hint source {n:?}; choose from: {}",
                                    HintMode::ALL
                                        .iter()
                                        .map(|m| m.name())
                                        .collect::<Vec<_>>()
                                        .join(" ")
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    opts.hints = Some(modes);
                }
                None => {
                    return Err(CliError::Usage(
                        "--hints requires a comma-separated source list".to_string(),
                    ))
                }
            },
            "--out" => match it.next() {
                Some(p) => opts.out = Some(p),
                None => return Err(CliError::Usage("--out requires an output path".to_string())),
            },
            "--resume" => match it.next() {
                Some(p) => opts.resume = Some(p),
                None => {
                    return Err(CliError::Usage(
                        "--resume requires a manifest path".to_string(),
                    ))
                }
            },
            "--cell-timeout" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => opts.cell_timeout = Some(ms),
                _ => {
                    return Err(CliError::Usage(
                        "--cell-timeout requires a positive millisecond count".to_string(),
                    ))
                }
            },
            "--max-cell-retries" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => opts.max_cell_retries = n,
                None => {
                    return Err(CliError::Usage(
                        "--max-cell-retries requires an unsigned integer".to_string(),
                    ))
                }
            },
            "--fail-fast" => opts.fail_fast = true,
            f if f.starts_with("--") => {
                return Err(CliError::Usage(format!(
                    "unknown flag {f}; known flags: --json --hist --sweep --audit \
                     --explain --fuzz <n> --differential --bench --bench-smoke \
                     --bench-engine --baseline <path> \
                     --seed <s> --threads <n> --events <path> --faults <spec> \
                     --hints <list> --profile <path> --out <path> \
                     --resume <manifest> --cell-timeout <ms> \
                     --max-cell-retries <n> --fail-fast"
                )))
            }
            _ => opts.positional.push(a),
        }
    }
    Ok(opts)
}

/// Rejects contradictory flag combinations up front, before any mode
/// runs. The dispatcher used to pick the first matching mode and the
/// losing flags were silently ignored — `--bench --sweep` benched,
/// `--fuzz --seed`-less sweeps accepted `--seed`, and so on. Every
/// rejected combination exits 2 with the usage text, like any other
/// malformed command line.
fn validate(opts: &Options) -> Result<(), CliError> {
    let usage = |msg: &str| Err(CliError::Usage(msg.to_string()));
    let bench_mode = opts.bench || opts.bench_smoke || opts.bench_engine;
    let fuzzing = opts.fuzz.is_some();
    if [opts.bench, opts.bench_smoke, opts.bench_engine]
        .iter()
        .filter(|&&b| b)
        .count()
        > 1
    {
        return usage(
            "--bench, --bench-smoke, and --bench-engine are mutually exclusive; pick one",
        );
    }
    if bench_mode && opts.sweep {
        return usage(
            "--bench/--bench-smoke/--bench-engine and --sweep are mutually exclusive; \
             run one mode at a time",
        );
    }
    if bench_mode && fuzzing {
        return usage(
            "--bench/--bench-smoke/--bench-engine and --fuzz are mutually exclusive; \
             run one mode at a time",
        );
    }
    if fuzzing && opts.sweep {
        return usage("--fuzz and --sweep are mutually exclusive; run one mode at a time");
    }
    if opts.baseline.is_some() && !opts.bench_smoke && !opts.bench_engine {
        return usage("--baseline only applies to --bench-smoke and --bench-engine");
    }
    if opts.differential && !fuzzing {
        return usage("--differential only applies to --fuzz");
    }
    if opts.seed.is_some() && !fuzzing {
        return usage("--seed only applies to --fuzz; sweeps and single runs are deterministic");
    }
    if opts.threads.is_some() && !opts.sweep && !fuzzing {
        return usage("--threads only applies to --sweep and --fuzz");
    }
    if opts.events.is_some() {
        if opts.sweep {
            return usage(
                "--events is not supported with --sweep; run the cell on its own instead",
            );
        }
        if fuzzing || bench_mode {
            return usage("--events only applies to single runs");
        }
    }
    if opts.explain && (fuzzing || bench_mode) {
        return usage("--explain only applies to single runs and --sweep");
    }
    if opts.audit && (fuzzing || bench_mode) {
        return usage(
            "--audit only applies to single runs and --sweep; --fuzz already audits every case",
        );
    }
    if opts.hist && (fuzzing || bench_mode) {
        return usage("--hist only applies to single runs and --sweep");
    }
    if opts.json && (fuzzing || bench_mode) {
        return usage("--json only applies to single runs and --sweep");
    }
    if !opts.faults.is_empty() && (fuzzing || bench_mode) {
        return usage(
            "--faults only applies to single runs and --sweep; --fuzz draws its own fault plans",
        );
    }
    if let Some(hints) = opts.hints.as_deref() {
        if fuzzing || bench_mode {
            return usage(
                "--hints only applies to single runs and --sweep; --fuzz cycles hint sources on its own",
            );
        }
        if !opts.sweep && hints.len() != 1 {
            return usage(
                "single runs take exactly one --hints source; use --sweep to compare several",
            );
        }
    }
    if !opts.positional.is_empty() && (fuzzing || bench_mode) {
        return usage("--fuzz/--bench take no trace/policy/disks arguments");
    }
    if opts.out.is_some() && !opts.sweep {
        return usage("--out only applies to --sweep; single runs print to stdout");
    }
    if (opts.cell_timeout.is_some() || opts.max_cell_retries > 0 || opts.fail_fast) && !opts.sweep {
        return usage("--cell-timeout/--max-cell-retries/--fail-fast only apply to --sweep");
    }
    if opts.resume.is_some() {
        if !opts.sweep {
            return usage("--resume only applies to --sweep");
        }
        if opts.json || opts.hist {
            return usage(
                "--resume splices stored CSV rows and is incompatible with --json and --hist",
            );
        }
    }
    Ok(())
}

fn parse_disks(s: &str) -> Result<Vec<usize>, CliError> {
    s.split(',')
        .map(|x| match x.parse::<usize>() {
            Ok(d) if d > 0 => Ok(d),
            _ => Err(CliError::Usage(format!(
                "bad disk count {x:?}: expected positive integers like 1,2,4"
            ))),
        })
        .collect()
}

/// Resolves a trace argument: a paper trace name through the shared
/// cache, anything path-like through the trace-file loader.
fn resolve_trace(name: &str) -> Result<Arc<parcache_trace::Trace>, CliError> {
    if parcache_trace::TRACE_NAMES.contains(&name) {
        return Ok(trace(name));
    }
    if name.contains('/') || name.contains('.') {
        return match parcache_trace::load(name) {
            Ok(t) => Ok(Arc::new(t)),
            Err(e) => Err(CliError::Io(format!("failed to load {name}: {e}"))),
        };
    }
    Err(CliError::Usage(format!(
        "unknown trace {name}; choose one of: {} — or pass a path to a trace file",
        parcache_trace::TRACE_NAMES.join(" ")
    )))
}

/// Telemetry gathered along the way that belongs in the `--profile`
/// document but is produced deep inside a mode's run (per-worker sweep
/// stats). Stays empty when profiling is off.
#[derive(Default)]
struct ProfileExtras {
    workers: Vec<WorkerStats>,
}

/// `--sweep` mode: expand the grid, run it on the worker pool, print CSV
/// or JSON. The output is byte-identical for every thread count.
fn sweep_main<P: Prof>(
    opts: &Options,
    prof: &P,
    extras: &mut ProfileExtras,
) -> Result<(), CliError> {
    let _span = prof.span("sweep");
    let threads = opts.threads.unwrap_or_else(sweep::default_threads);
    let trace_arg = opts.positional.first().map(String::as_str).unwrap_or("all");
    let algo_arg = opts.positional.get(1).map(String::as_str).unwrap_or("all");
    let disks: Option<Vec<usize>> = match opts.positional.get(2) {
        Some(s) => Some(parse_disks(s)?),
        None => None,
    };

    let algos: Vec<Algo> = if algo_arg == "all" {
        Algo::APPENDIX_A.to_vec()
    } else {
        algo_arg
            .split(',')
            .map(|n| {
                Algo::by_name(n).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown algorithm {n}; choose from: all demand fixed-horizon \
                         aggressive tuned-reverse forestall"
                    ))
                })
            })
            .collect::<Result<_, _>>()?
    };

    let names: Vec<&str> = if trace_arg == "all" {
        parcache_trace::TRACE_NAMES.to_vec()
    } else {
        trace_arg.split(',').collect()
    };
    let mut spec = if names
        .iter()
        .all(|n| parcache_trace::TRACE_NAMES.contains(n))
    {
        // Paper traces: generated in parallel through the shared cache.
        // A generator panic surfaces as a typed error here instead of
        // unwinding a worker thread.
        SweepSpec::try_named(&names, &algos, disks.as_deref(), threads).map_err(|e| match &e {
            TraceError::Unknown(_) => CliError::Usage(e.to_string()),
            TraceError::Generation { .. } => CliError::Io(e.to_string()),
        })?
    } else {
        let entries = names
            .iter()
            .map(|n| {
                Ok(SweepEntry {
                    trace: resolve_trace(n)?,
                    disks: disks.clone().unwrap_or_else(|| DISK_COUNTS.to_vec()),
                })
            })
            .collect::<Result<_, CliError>>()?;
        SweepSpec {
            entries,
            algos,
            hints: Vec::new(),
        }
    };
    // An absent --hints leaves the spec's default (oracle-only) grid,
    // keeping the flag-less sweep CSV byte-identical to what it always
    // was.
    if let Some(hints) = opts.hints.clone() {
        spec.hints = hints;
    }

    let cells = {
        let _span = prof.span("expand");
        spec.cells()
    };
    let gates = sweep::CsvGates::for_grid(&cells, &opts.faults, opts.explain);
    let inject = sweep::Injection::from_env()
        .map_err(|e| CliError::Usage(format!("bad PARCACHE_FAIL_CELL: {e}")))?;
    let failsoft = sweep::FailSoft {
        cell_timeout: opts.cell_timeout.map(std::time::Duration::from_millis),
        max_retries: opts.max_cell_retries,
        fail_fast: opts.fail_fast,
        inject,
    };

    // Manifests describe CSV-rendered sweeps; the grid hash keys both
    // reading one (--resume validation) and writing one (--out).
    let write_manifest = opts.out.is_some() && !opts.json;
    let grid_hash = if opts.resume.is_some() || write_manifest {
        Some(manifest::grid_hash(&cells, &opts.faults))
    } else {
        None
    };

    // A --resume manifest carries finished rows forward; everything it
    // records as failed, skipped, or missing (and, without a manifest,
    // everything) runs now.
    let (stored, to_run) = match opts.resume.as_deref() {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                CliError::Io(format!("failed to read --resume manifest {path}: {e}"))
            })?;
            let man = SweepManifest::parse(&text)
                .map_err(|e| CliError::Usage(format!("cannot resume from {path}: {e}")))?;
            let plan = manifest::plan_resume(
                &man,
                cells.len(),
                grid_hash.as_deref().expect("hash computed for --resume"),
                gates,
                opts.audit,
            )
            .map_err(|e| CliError::Usage(format!("cannot resume from {path}: {e}")))?;
            if !plan.stale_audit_failures.is_empty() {
                eprintln!(
                    "resume: re-running {} cell(s) whose recorded audit failed",
                    plan.stale_audit_failures.len()
                );
            }
            eprintln!(
                "resume: {} of {} cells carried forward from {path}, {} to run",
                plan.stored.len(),
                cells.len(),
                plan.to_run.len()
            );
            (plan.stored, plan.to_run)
        }
        None => (HashMap::new(), (0..cells.len()).collect()),
    };
    let carried = stored.len();
    let run_cells: Vec<sweep::SweepCell> = to_run.iter().map(|&i| cells[i].clone()).collect();

    let wall = Instant::now();
    let cells_span = prof.span("cells");
    // The fail-soft executor isolates every cell; profiled runs also
    // thread the per-thread allocation sampler through so worker
    // telemetry carries comparable figures. Results are identical
    // either way — only telemetry differs.
    let sampler: sweep::ThreadAllocSampler = if P::ENABLED {
        Some(thread_alloc_count)
    } else {
        None
    };
    let run = sweep::run_cells_failsoft(
        &run_cells,
        threads,
        opts.hist,
        opts.audit,
        &opts.faults,
        &failsoft,
        sampler,
    );
    if P::ENABLED {
        extras.workers = run.workers.clone();
    }
    drop(cells_span);
    let elapsed = wall.elapsed();

    let _span = prof.span("render");
    let (document, outcomes) = if opts.json {
        // --resume is CSV-only (validated), so every row here is fresh.
        let rows: Vec<CellRow> = run.rows().cloned().collect();
        (sweep::sweep_json(&rows) + "\n", Vec::new())
    } else {
        // Fresh entries where this run produced them, stored ones where
        // the manifest carried them forward: the CSV and the manifest
        // are both rendered from this one splice.
        let outcomes = manifest::splice(cells.len(), gates, stored, &run.executions);
        (manifest::csv_document(gates, &outcomes), outcomes)
    };
    let aggregate = if !opts.json && opts.hist {
        let rows: Vec<CellRow> = run.rows().cloned().collect();
        SweepAggregate::fold(&rows).map(|agg| agg.render_ascii())
    } else {
        None
    };

    if let Some(path) = opts.out.as_deref() {
        write_atomic(path, document.as_bytes())
            .map_err(|e| CliError::Io(format!("failed to write {path}: {e}")))?;
        eprintln!("wrote {path}");
    } else {
        print!("{document}");
        if aggregate.is_some() {
            println!();
        }
    }
    if let Some(agg) = &aggregate {
        print!("{agg}");
    }
    if write_manifest {
        let out = opts.out.as_deref().expect("write_manifest implies --out");
        let man = SweepManifest {
            grid_hash: grid_hash.expect("hash computed for --out"),
            cells: cells.len(),
            gates,
            audited: opts.audit,
            outcomes,
        };
        let man_path = format!("{out}.manifest.json");
        write_atomic(&man_path, man.to_json())
            .map_err(|e| CliError::Io(format!("failed to write {man_path}: {e}")))?;
        eprintln!("wrote {man_path}");
    }
    if opts.explain && !opts.json {
        // Per-trace stall-by-cause tables on stderr, so stdout stays
        // machine-readable CSV.
        let mut tables: Vec<(String, Vec<BreakdownRow>)> = Vec::new();
        for o in run.rows() {
            let row = BreakdownRow::new(o.report.clone());
            match tables.iter_mut().find(|(t, _)| *t == o.report.trace) {
                Some((_, rows)) => rows.push(row),
                None => tables.push((o.report.trace.clone(), vec![row])),
            }
        }
        for (trace_name, rows) in &tables {
            eprint!("{}", explain_table(trace_name, rows));
        }
    }
    eprintln!(
        "({} cells on {} thread(s) in {:.2?})",
        run.executions.len(),
        threads,
        elapsed
    );
    let failures = run.failures();
    if failures > 0 {
        eprint!("{}", failsoft_summary(&cells, &run.executions));
        match opts.out.as_deref() {
            Some(out) if !opts.json => eprintln!("resume with: --resume {out}.manifest.json"),
            _ => eprintln!("hint: add --out <path> to get a resumable failure manifest"),
        }
    }
    if opts.audit {
        // Carried-forward cells were already audited clean (dirty ones
        // re-ran); fresh rows carry their verdicts.
        let mut bad = 0usize;
        let mut audited_cells = carried;
        for e in &run.executions {
            if let (Some(row), Some(audit)) = (e.outcome.row(), e.audit.as_ref()) {
                audited_cells += 1;
                if !audit.is_clean() {
                    bad += 1;
                    eprintln!("{}", audit_failure(&row.report, audit));
                }
            }
        }
        if bad > 0 {
            eprintln!("audit: {bad}/{audited_cells} cells FAILED");
            std::process::exit(1);
        }
        eprintln!("audit: all {audited_cells} cells clean");
    }
    if failures > 0 {
        // Partial results (and, with --out, the manifest) are already on
        // disk; the exit status still says the sweep did not finish.
        std::process::exit(1);
    }
    Ok(())
}

/// The stderr block of one failed audit: the run, then each violation.
fn audit_failure(report: &Report, audit: &AuditOutcome) -> String {
    let (t, p, d) = (&report.trace, &report.policy, report.disks);
    format!(
        "audit FAILED for {t}/{p}/{d} disk(s):\n  {}",
        audit.lines().join("\n  ")
    )
}

/// `--fuzz` mode: run the differential fuzzer and exit nonzero on any
/// audit violation or audited/unaudited divergence.
fn fuzz_main<P: Prof>(opts: &Options, cases: usize, prof: &P) {
    let _span = prof.span("fuzz");
    let threads = opts.threads.unwrap_or_else(sweep::default_threads);
    let wall = Instant::now();
    let seed = opts.seed.unwrap_or(parcache_bench::SEED);
    let report = if opts.differential {
        parcache_bench::fuzz_differential(seed, cases, threads)
    } else {
        parcache_bench::fuzz(seed, cases, threads)
    };
    println!("{report}");
    eprintln!("({} runs in {:.2?})", report.runs, wall.elapsed());
    if !report.is_clean() {
        for f in &report.failures {
            eprintln!("case {} under {}:", f.case, f.policy.name());
            for d in &f.details {
                eprintln!("  {d}");
            }
        }
        std::process::exit(1);
    }
}

/// `--bench` / `--bench-smoke` / `--bench-engine`: the continuous
/// benchmark harness.
///
/// Smoke mode prints the smoke-sweep JSON to stdout and, when
/// `--baseline` names a committed `BENCH_sweep.json`, applies the 25%
/// cells/sec regression gate. Engine mode runs only the per-policy
/// stress bench, prints the engine JSON (schema v2) to stdout, and with
/// `--baseline <BENCH_engine.json>` applies the per-policy throughput,
/// allocation-ceiling, and forestall/demand-gap gates. Full mode
/// additionally replays the complete appendix-A grid at 1/2/4 threads
/// and the engine stress trace, writing `BENCH_sweep.json` and
/// `BENCH_engine.json`. Sweep-based modes apply the scaling-efficiency
/// gate on machines with at least two effective cores (elsewhere it
/// skips with a note).
fn bench_main<P: Prof>(opts: &Options, prof: &P) -> Result<(), CliError> {
    let _span = prof.span("bench");
    let alloc: &dyn Fn() -> u64 = &alloc_count;
    if opts.bench_engine {
        eprintln!(
            "benchmarking: engine stress trace ({} passes x {} blocks, {} disks)...",
            bench::STRESS_PASSES,
            bench::STRESS_LOOP_BLOCKS,
            bench::STRESS_DISKS
        );
        let engine_span = prof.span("engine-bench");
        let engine_bench = bench::run_engine_bench(Some(alloc));
        drop(engine_span);
        for (policy, stage) in &engine_bench.runs {
            eprintln!(
                "{policy}: {} events in {:.2}s ({:.0} events/sec)",
                stage.units,
                stage.wall.as_secs_f64(),
                stage.per_sec()
            );
        }
        if let Some(path) = opts.baseline.as_deref() {
            let baseline = std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("failed to read baseline {path}: {e}")))?;
            match bench::check_engine(&engine_bench, &baseline) {
                Ok(verdict) => eprintln!("{verdict}"),
                Err(verdict) => {
                    eprintln!("BENCH ENGINE: {verdict}");
                    std::process::exit(1);
                }
            }
        }
        println!("{}", bench::engine_bench_json(&engine_bench));
        return Ok(());
    }
    let full = opts.bench;
    eprintln!(
        "benchmarking: smoke sweep ({} traces)...",
        bench::SMOKE_TRACES.len()
    );
    let sweep_span = prof.span("sweep-bench");
    let sweep_bench = bench::run_sweep_bench(full, Some(alloc), Some(thread_alloc_count));
    drop(sweep_span);
    eprintln!(
        "smoke: {} cells in {:.2}s ({:.1} cells/sec)",
        sweep_bench.smoke.units,
        sweep_bench.smoke.wall.as_secs_f64(),
        sweep_bench.smoke.per_sec()
    );
    if let Some(stage) = &sweep_bench.smoke_scaling {
        eprintln!(
            "smoke @ {} threads: {} cells in {:.2}s ({:.1} cells/sec)",
            bench::SCALING_GATE_THREADS,
            stage.units,
            stage.wall.as_secs_f64(),
            stage.per_sec()
        );
    }
    for (threads, stage) in &sweep_bench.scaling {
        let eff = match sweep_bench.scaling_efficiency(*threads) {
            Some(e) => format!(", efficiency {e:.3}"),
            None => String::new(),
        };
        eprintln!(
            "full grid @ {threads} thread(s): {} cells in {:.2}s ({:.1} cells/sec{eff})",
            stage.units,
            stage.wall.as_secs_f64(),
            stage.per_sec()
        );
    }
    if full && !sweep_bench.parallelism.scaling_measurable() {
        eprintln!(
            "note: effective parallelism {:.2} (available {}, cgroup quota {}) — \
             scaling not measurable; full grid ran single-threaded only",
            sweep_bench.parallelism.effective,
            sweep_bench.parallelism.available,
            sweep_bench
                .parallelism
                .cgroup_quota
                .map_or("unbounded".to_string(), |q| format!("{q:.2}")),
        );
    }

    if let Some(path) = opts.baseline.as_deref() {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("failed to read baseline {path}: {e}")))?;
        match bench::check_regression(&sweep_bench.smoke, &baseline) {
            Ok(verdict) => eprintln!("{verdict}"),
            Err(verdict) => {
                eprintln!("BENCH REGRESSION: {verdict}");
                std::process::exit(1);
            }
        }
    }

    match bench::check_scaling(&sweep_bench) {
        Ok(verdict) => eprintln!("{verdict}"),
        Err(verdict) => {
            eprintln!("BENCH SCALING: {verdict}");
            std::process::exit(1);
        }
    }

    if !full {
        println!("{}", bench::sweep_bench_json(&sweep_bench));
        return Ok(());
    }

    eprintln!(
        "benchmarking: engine stress trace ({} passes x {} blocks, {} disks)...",
        bench::STRESS_PASSES,
        bench::STRESS_LOOP_BLOCKS,
        bench::STRESS_DISKS
    );
    let engine_span = prof.span("engine-bench");
    let engine_bench = bench::run_engine_bench(Some(alloc));
    drop(engine_span);
    for (policy, stage) in &engine_bench.runs {
        eprintln!(
            "{policy}: {} events in {:.2}s ({:.0} events/sec)",
            stage.units,
            stage.wall.as_secs_f64(),
            stage.per_sec()
        );
    }

    for (path, contents) in [
        ("BENCH_sweep.json", bench::sweep_bench_json(&sweep_bench)),
        ("BENCH_engine.json", bench::engine_bench_json(&engine_bench)),
    ] {
        write_atomic(path, contents + "\n")
            .map_err(|e| CliError::Io(format!("failed to write {path}: {e}")))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn print_histograms(policy: &str, disks: usize, m: &RunMetrics) {
    println!("--- {policy} on {disks} disk(s) ---");
    print!(
        "{}",
        m.fetch_service
            .render_ascii("fetch service time", Unit::Millis)
    );
    print!(
        "{}",
        m.fetch_response
            .render_ascii("fetch response time", Unit::Millis)
    );
    print!(
        "{}",
        m.stall_duration
            .render_ascii("stall duration", Unit::Millis)
    );
    print!(
        "{}",
        m.queue_depth
            .render_ascii("queue depth at enqueue", Unit::Count)
    );
    println!();
}

fn main() {
    match real_main() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("{e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            std::process::exit(e.exit_code());
        }
    }
}

fn real_main() -> Result<(), CliError> {
    let opts = parse_args(std::env::args().skip(1).collect())?;
    validate(&opts)?;
    match opts.profile.clone() {
        // No --profile: monomorphize every mode with the no-op profiler,
        // compiling the instrumentation out entirely.
        None => dispatch(&opts, &NoopProf, &mut ProfileExtras::default()),
        Some(path) => {
            let prof = WallProf::with_alloc_sampler(alloc_count);
            let mut extras = ProfileExtras::default();
            let result = dispatch(&opts, &prof, &mut extras);
            write_profile(&path, &prof, &extras)?;
            result
        }
    }
}

/// Routes the parsed command line to its mode, generic over the
/// profiler so the default path pays nothing for instrumentation.
fn dispatch<P: Prof>(opts: &Options, prof: &P, extras: &mut ProfileExtras) -> Result<(), CliError> {
    if let Some(cases) = opts.fuzz {
        fuzz_main(opts, cases, prof);
        return Ok(());
    }
    if opts.bench || opts.bench_smoke || opts.bench_engine {
        return bench_main(opts, prof);
    }
    if opts.sweep {
        return sweep_main(opts, prof, extras);
    }
    single_main(opts, prof)
}

/// Writes the `--profile` outputs: the JSON document to `path` and the
/// flamegraph-compatible folded stacks to `path.folded`.
fn write_profile(path: &str, prof: &WallProf, extras: &ProfileExtras) -> Result<(), CliError> {
    let folded = prof.folded();
    let workers: Vec<String> = extras.workers.iter().map(|w| w.to_json()).collect();
    let (hits, misses) = trace_cache_stats();
    let json = format!(
        r#"{{"wall_us":{},"parallelism":{},"trace_cache":{{"hits":{},"misses":{}}},"workers":[{}],"spans":{}}}"#,
        prof.wall_us(),
        detect_parallelism().to_json(),
        hits,
        misses,
        workers.join(","),
        prof.spans_json(),
    );
    write_atomic(path, json + "\n")
        .map_err(|e| CliError::Io(format!("failed to write {path}: {e}")))?;
    let folded_path = format!("{path}.folded");
    write_atomic(&folded_path, folded)
        .map_err(|e| CliError::Io(format!("failed to write {folded_path}: {e}")))?;
    eprintln!("profile: wrote {path} and {folded_path}");
    Ok(())
}

/// Single-run mode: one trace, one or more policies and array sizes.
fn single_main<P: Prof>(opts: &Options, prof: &P) -> Result<(), CliError> {
    let _span = prof.span("single");
    let trace_name = opts
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("synth");
    let policy_arg = opts.positional.get(1).map(String::as_str).unwrap_or("all");
    let disks: Vec<usize> = match opts.positional.get(2) {
        Some(s) => parse_disks(s)?,
        None => DISK_COUNTS.to_vec(),
    };

    let policies = parse_policies(policy_arg);
    if policies.is_empty() {
        return Err(CliError::Usage(format!(
            "unknown policy {policy_arg}; choose one of: all {}",
            PolicyKind::ALL.map(|k| k.name()).join(" ")
        )));
    }

    // A path loads a user trace file; otherwise use the paper's traces.
    let trace_span = prof.span("trace");
    let t = resolve_trace(trace_name)?;
    drop(trace_span);
    let stats = t.stats();
    if !opts.json {
        println!(
            "trace {trace_name}: {} reads, {} distinct, {:.1}s compute, cache {} blocks",
            stats.reads,
            stats.distinct_blocks,
            stats.compute.as_secs_f64(),
            t.cache_blocks
        );
    }

    let probed = opts.json || opts.hist || opts.events.is_some();
    let mut event_log = match opts.events.as_ref() {
        Some(path) => match AtomicFile::create(path) {
            Ok(f) => Some(std::io::BufWriter::new(f)),
            Err(e) => return Err(CliError::Io(format!("failed to create {path}: {e}"))),
        },
        None => None,
    };

    let mut results: Vec<(Report, Option<RunMetrics>)> = Vec::new();
    let mut audit_failures: Vec<String> = Vec::new();
    let wall = Instant::now();
    let runs_span = prof.span("runs");
    // validate() has already pinned --hints to at most one source here.
    let hint_mode = opts
        .hints
        .as_deref()
        .and_then(|h| h.first().copied())
        .unwrap_or(HintMode::Oracle);
    for &d in &disks {
        let cfg = SimConfig::for_trace(d, &t).with_hint_mode(hint_mode);
        // An empty --faults plan leaves the config untouched, keeping
        // healthy-run output byte-identical.
        let cfg = if opts.faults.is_empty() {
            cfg
        } else {
            cfg.with_faults(opts.faults.clone())
        };
        for &kind in &policies {
            let (report, metrics) = if probed {
                let mut probe = CliProbe {
                    metrics: MetricsProbe::for_disks(d),
                    log: event_log.as_mut(),
                };
                let report = simulate_probed(&t, kind, &cfg, &mut probe);
                (report, Some(probe.metrics.finish()))
            } else {
                (simulate(&t, kind, &cfg), None)
            };
            if opts.audit {
                let outcome = audit_rerun(&t, kind, &cfg, &report);
                if !outcome.is_clean() {
                    audit_failures.push(audit_failure(&report, &outcome));
                }
            }
            results.push((report, metrics));
        }
    }
    drop(runs_span);
    let elapsed = wall.elapsed();

    if let Some(w) = event_log.take() {
        // Publish the event log: flush the buffer, then rename the
        // temporary into place.
        let file = w
            .into_inner()
            .map_err(|e| CliError::Io(format!("failed to flush event log: {e}")))?;
        file.commit()
            .map_err(|e| CliError::Io(format!("failed to publish event log: {e}")))?;
    }

    let _render = prof.span("render");
    if opts.json {
        let runs: Vec<String> = results
            .iter()
            .map(|(report, metrics)| match metrics {
                Some(m) => format!(
                    r#"{{"report":{},"metrics":{}}}"#,
                    report.to_json(),
                    m.to_json()
                ),
                None => format!(r#"{{"report":{}}}"#, report.to_json()),
            })
            .collect();
        println!(
            r#"{{"trace":"{}","reads":{},"distinct_blocks":{},"cache_blocks":{},"runs":[{}]}}"#,
            parcache_core::metrics::json_escape(trace_name),
            stats.reads,
            stats.distinct_blocks,
            t.cache_blocks,
            runs.join(",")
        );
    } else {
        let rows: Vec<BreakdownRow> = results
            .iter()
            .map(|(r, _)| BreakdownRow::new(r.clone()))
            .collect();
        println!("{}", breakdown_table(trace_name, &rows));
        for (report, _) in &results {
            if let Some(h) = &report.hints {
                println!(
                    "hints {}: {}/{} predictions correct over {} references \
                     (precision {:.4}, recall {:.4}) for {} on {} disk(s)",
                    h.source,
                    h.correct,
                    h.predicted,
                    h.references,
                    h.precision(),
                    h.recall(),
                    report.policy,
                    report.disks
                );
            }
        }
        if opts.explain {
            println!("{}", explain_table(trace_name, &rows));
        }
        if opts.hist {
            for (report, metrics) in &results {
                if let Some(m) = metrics {
                    print_histograms(&report.policy, report.disks, m);
                }
            }
        }
    }
    eprintln!("({} runs in {:.2?})", results.len(), elapsed);
    if opts.audit {
        if !audit_failures.is_empty() {
            for f in &audit_failures {
                eprintln!("{f}");
            }
            eprintln!(
                "audit: {}/{} runs FAILED",
                audit_failures.len(),
                results.len()
            );
            std::process::exit(1);
        }
        eprintln!("audit: all {} runs clean", results.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_core::predict::PredictorKind;

    fn parsed(args: &[&str]) -> Result<Options, CliError> {
        parse_args(args.iter().map(|s| s.to_string()).collect())
    }

    /// Parses and validates, the way `real_main` does.
    fn checked(args: &[&str]) -> Result<Options, CliError> {
        let opts = parsed(args)?;
        validate(&opts)?;
        Ok(opts)
    }

    fn assert_usage(args: &[&str]) {
        match checked(args) {
            Err(e @ CliError::Usage(_)) => assert_eq!(e.exit_code(), 2, "{args:?}"),
            Err(e) => panic!("{args:?} should be a usage error, got {e}"),
            Ok(_) => panic!("{args:?} should be rejected as a usage error"),
        }
    }

    #[test]
    fn hints_flag_parses_a_source_list() {
        let opts = parsed(&["--sweep", "--hints", "oracle,seq,markov,mithril"]).unwrap();
        assert_eq!(
            opts.hints,
            Some(vec![
                HintMode::Oracle,
                HintMode::Predicted(PredictorKind::Sequential),
                HintMode::Predicted(PredictorKind::Markov),
                HintMode::Predicted(PredictorKind::Mithril),
            ])
        );
        assert!(parsed(&["--hints"]).is_err());
        assert!(parsed(&["--hints", "psychic"]).is_err());
    }

    #[test]
    fn contradictory_flag_combinations_exit_2() {
        // Mode flags are mutually exclusive.
        assert_usage(&["--bench", "--sweep"]);
        assert_usage(&["--bench-smoke", "--sweep"]);
        assert_usage(&["--bench", "--bench-smoke"]);
        assert_usage(&["--bench", "--bench-engine"]);
        assert_usage(&["--bench-smoke", "--bench-engine"]);
        assert_usage(&["--bench-engine", "--sweep"]);
        assert_usage(&["--bench-engine", "--fuzz", "10"]);
        assert_usage(&["--bench", "--fuzz", "10"]);
        assert_usage(&["--fuzz", "10", "--sweep"]);
        // Flags that only make sense for one mode.
        assert_usage(&["--sweep", "--baseline", "BENCH_sweep.json"]);
        assert_usage(&["--bench", "--baseline", "BENCH_sweep.json"]);
        assert_usage(&["--sweep", "--differential"]);
        assert_usage(&["--bench", "--differential"]);
        assert_usage(&["synth", "all", "4", "--differential"]);
        assert_usage(&["--sweep", "--seed", "7"]);
        assert_usage(&["synth", "all", "4", "--seed", "7"]);
        assert_usage(&["synth", "--threads", "4"]);
        assert_usage(&["--bench", "--threads", "4"]);
        assert_usage(&["--sweep", "--events", "out.jsonl"]);
        assert_usage(&["--fuzz", "10", "--events", "out.jsonl"]);
        assert_usage(&["--fuzz", "10", "--explain"]);
        assert_usage(&["--bench", "--explain"]);
        assert_usage(&["--fuzz", "10", "--audit"]);
        assert_usage(&["--fuzz", "10", "--hist"]);
        assert_usage(&["--fuzz", "10", "--json"]);
        assert_usage(&["--fuzz", "10", "--faults", "flaky:*:0.01"]);
        assert_usage(&["--fuzz", "10", "--hints", "seq"]);
        assert_usage(&["--bench", "--hints", "seq"]);
        assert_usage(&["--fuzz", "10", "synth"]);
        assert_usage(&["--bench", "synth"]);
        // Single runs take exactly one hint source.
        assert_usage(&["synth", "all", "4", "--hints", "seq,markov"]);
        // Fail-soft flags are sweep-only.
        assert_usage(&["synth", "all", "4", "--out", "x.csv"]);
        assert_usage(&["--bench", "--out", "x.csv"]);
        assert_usage(&["synth", "all", "4", "--cell-timeout", "1000"]);
        assert_usage(&["--fuzz", "10", "--cell-timeout", "1000"]);
        assert_usage(&["synth", "all", "4", "--max-cell-retries", "2"]);
        assert_usage(&["synth", "all", "4", "--fail-fast"]);
        assert_usage(&["--bench", "--fail-fast"]);
        assert_usage(&["synth", "all", "4", "--resume", "x.csv.manifest.json"]);
        assert_usage(&["--fuzz", "10", "--resume", "x.csv.manifest.json"]);
        // --resume splices CSV rows; JSON and histogram modes have no
        // stored form to splice into.
        assert_usage(&["--sweep", "--resume", "m.json", "--json"]);
        assert_usage(&["--sweep", "--resume", "m.json", "--hist"]);
    }

    #[test]
    fn well_formed_invocations_validate() {
        for args in [
            &["--sweep", "--threads", "4", "--hints", "seq,markov"][..],
            &["--sweep", "synth", "all", "1,2", "--audit", "--explain"],
            &["--fuzz", "10", "--seed", "7", "--threads", "2"],
            &["--fuzz", "300", "--differential", "--threads", "2"],
            &["--bench-smoke", "--baseline", "BENCH_sweep.json"],
            &["--bench-engine", "--baseline", "BENCH_engine.json"],
            &["--bench-engine"],
            &["synth", "forestall", "4", "--hints", "mithril", "--json"],
            &["synth", "all", "1,2", "--faults", "flaky:*:0.01,seed:7"],
            &["--sweep", "--out", "sweep.csv", "--cell-timeout", "5000"],
            &["--sweep", "--max-cell-retries", "2", "--fail-fast"],
            &[
                "--sweep",
                "--resume",
                "sweep.csv.manifest.json",
                "--out",
                "sweep.csv",
            ],
            &["--sweep", "--resume", "m.json", "--audit", "--explain"],
            &["--sweep", "--out", "sweep.json", "--json"],
        ] {
            assert!(checked(args).is_ok(), "{args:?} should validate");
        }
    }

    #[test]
    fn failsoft_flags_parse_their_values() {
        let opts = parsed(&[
            "--sweep",
            "--out",
            "sweep.csv",
            "--resume",
            "old.csv.manifest.json",
            "--cell-timeout",
            "2500",
            "--max-cell-retries",
            "3",
            "--fail-fast",
        ])
        .unwrap();
        assert_eq!(opts.out.as_deref(), Some("sweep.csv"));
        assert_eq!(opts.resume.as_deref(), Some("old.csv.manifest.json"));
        assert_eq!(opts.cell_timeout, Some(2500));
        assert_eq!(opts.max_cell_retries, 3);
        assert!(opts.fail_fast);
        // Malformed values are rejected at parse time.
        assert!(parsed(&["--sweep", "--cell-timeout", "0"]).is_err());
        assert!(parsed(&["--sweep", "--cell-timeout", "soon"]).is_err());
        assert!(parsed(&["--sweep", "--max-cell-retries", "-1"]).is_err());
        assert!(parsed(&["--sweep", "--out"]).is_err());
        assert!(parsed(&["--sweep", "--resume"]).is_err());
    }

    #[test]
    fn single_run_picks_up_the_one_allowed_hint_source() {
        let opts = checked(&["synth", "all", "4", "--hints", "markov"]).unwrap();
        assert_eq!(
            opts.hints.as_deref().and_then(|h| h.first().copied()),
            Some(HintMode::Predicted(PredictorKind::Markov))
        );
    }

    #[test]
    fn allocation_counters_observe_an_allocation() {
        let before_total = alloc_count();
        let before_local = thread_alloc_count();
        let v: Vec<u64> = Vec::with_capacity(32);
        assert!(alloc_count() > before_total);
        assert!(thread_alloc_count() > before_local);
        drop(v);
    }

    #[test]
    fn thread_counter_starts_fresh_per_thread() {
        // Warm the main thread's counter well past zero.
        let _v: Vec<u64> = Vec::with_capacity(8);
        assert!(thread_alloc_count() > 0);
        let (before, after) = std::thread::spawn(|| {
            let before = thread_alloc_count();
            let v: Vec<u64> = Vec::with_capacity(8);
            let after = thread_alloc_count();
            drop(v);
            (before, after)
        })
        .join()
        .unwrap();
        assert!(after > before);
        // A fresh thread's counter reflects only its own few startup
        // allocations, not the process history.
        assert!(before < 100, "fresh thread counter started at {before}");
    }

    #[test]
    fn sharded_total_sees_every_thread() {
        let before = alloc_count();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let v: Vec<u8> = Vec::with_capacity(128);
                    drop(v);
                });
            }
        });
        assert!(alloc_count() >= before + 4);
    }

    #[test]
    fn work_allocs_are_thread_count_invariant_under_real_allocator() {
        // Each item allocates a deterministic amount; the summed
        // per-item figure sampled from the real thread-local counter
        // must not depend on the worker count. This is the pinned form
        // of the old drift bug, where the comparable bench number moved
        // by dozens of allocations between --threads values.
        let run = |i: usize| -> usize {
            let mut v = Vec::new();
            for k in 0..(i % 5) + 1 {
                v.push(vec![k as u8; 64]);
            }
            v.len()
        };
        let totals: Vec<u64> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let (results, workers) = parcache_bench::run_indexed_observed(
                    12,
                    threads,
                    Some(thread_alloc_count),
                    run,
                    |_, _| {},
                );
                assert_eq!(results.len(), 12);
                workers.iter().map(|w| w.work_allocs).sum()
            })
            .collect();
        assert!(totals[0] > 0);
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[0], totals[2]);
    }
}
