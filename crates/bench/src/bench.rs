//! Continuous benchmark harness (std-only, no external harness crate).
//!
//! Two workloads, chosen to cover the two performance surfaces that
//! matter:
//!
//! * **Sweep bench** — replays the appendix-A trace × algorithm × disks
//!   grid through the normal sweep runner and reports cells per second:
//!   the end-to-end number a user doing parameter studies experiences.
//!   A *smoke* subset (three traces, every algorithm) runs in seconds
//!   and anchors the CI regression gate; the full grid additionally runs
//!   at 1, 2, and 4 worker threads to record thread scaling.
//! * **Engine bench** — replays one large synthetic stress trace (an
//!   oversized `synth`: many passes over a big sequential loop) through
//!   every policy with an event-counting probe attached, reporting
//!   simulated events per second: the inner-loop number that isolates
//!   the engine and policies from trace generation and the thread pool.
//!
//! Wall-clock timing uses [`std::time::Instant`]. Allocation counts are
//! reported when the embedding binary installs a counting global
//! allocator and passes a reader down (`parcache-run` does); the
//! library itself stays `forbid(unsafe_code)`.
//!
//! Regression checking is intentionally tolerant: CI fails only when the
//! smoke grid's cells/sec drops by more than [`REGRESSION_TOLERANCE`]
//! (25%) against the committed baseline. Single-core runners, noisy
//! neighbours, and debug-adjacent codegen differences produce swings in
//! the 10–20% range; a genuine hot-path regression shows up far larger.
//!
//! A second gate watches *scaling*: on machines with at least two
//! effective cores, cells/sec at [`SCALING_GATE_THREADS`] threads must
//! reach [`SCALING_EFFICIENCY_FLOOR`] of perfect linear scaling over the
//! 1-thread rate ([`check_scaling`]). Effectively single-core
//! environments skip with an explicit note instead of timing the
//! scheduler.

use crate::prof::{detect_parallelism, EffectiveParallelism};
use crate::sweep::{self, FailSoft, SweepCell, SweepSpec, ThreadAllocSampler};
use crate::Algo;
use parcache_core::engine::simulate_probed;
use parcache_core::metrics::json_escape;
use parcache_core::policy::PolicyKind;
use parcache_core::probe::{Event, Probe};
use parcache_core::SimConfig;
use parcache_disk::FaultPlan;
use std::time::{Duration, Instant};

/// Thread counts the full sweep bench records scaling for.
pub const SCALING_THREADS: [usize; 3] = [1, 2, 4];

/// The thread count the scaling-efficiency gate measures at.
pub const SCALING_GATE_THREADS: usize = 2;

/// Relative cells/sec drop versus the baseline that fails the CI gate.
/// 25%: big enough to ignore scheduler noise on shared single-core
/// runners, small enough to catch any real hot-path regression.
pub const REGRESSION_TOLERANCE: f64 = 0.25;

/// Minimum acceptable scaling efficiency at [`SCALING_GATE_THREADS`]
/// threads — cells/sec at N threads ÷ (N × cells/sec at 1 thread) — on
/// machines whose detected effective parallelism is ≥ 2. Two workers on
/// two real cores should come close to 1.0; the committed sweep once
/// scored *negative* scaling (0.39 at 2 threads), so the floor sits
/// well above any contention regression while leaving room for shared
/// runners.
pub const SCALING_EFFICIENCY_FLOOR: f64 = 0.75;

/// Traces of the smoke subset: small, fast, and together exercising
/// every algorithm including the 8-configuration tuned-reverse search.
pub const SMOKE_TRACES: [&str; 3] = ["dinero", "cscope1", "ld"];

/// Per-policy allocation ceiling for one engine-bench run. Every policy
/// sits near ~130 steady-state allocations; reverse-aggressive once
/// carried ~19k from a heap-allocated queue per scheduled block. The
/// ceiling is machine-independent (allocation counts are deterministic),
/// so it is enforced whenever a counting allocator is installed.
pub const ENGINE_ALLOC_CEILING: u64 = 1_000;

/// Ceiling on how many times slower than demand paging the forestall
/// policy may simulate. Wall-clock rates vary machine to machine, but
/// the *gap between policies on the same machine* is a property of the
/// code: forestall's stall predictor was a full window rescan per
/// decision (10.9x slower than demand) before it became incremental.
pub const ENGINE_FORESTALL_DEMAND_RATIO: f64 = 4.0;

/// Stress-trace shape for the engine bench: passes over a sequential
/// loop, sized well past any trace in the paper's suite.
pub const STRESS_PASSES: usize = 60;
/// Blocks in the stress trace's loop.
pub const STRESS_LOOP_BLOCKS: usize = 4000;
/// Disks the stress trace is striped over.
pub const STRESS_DISKS: usize = 4;

/// One timed stage: how many units of work in how long.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Work units completed (cells or simulated events).
    pub units: u64,
    /// Wall-clock time for the stage at full [`Instant`] resolution.
    /// Rates derive from this unrounded duration; rounding happens only
    /// at the JSON/display edge.
    pub wall: Duration,
    /// Heap allocations attributable to the work itself, when countable.
    /// For sweep stages this is the sum of per-cell counts sampled on
    /// the worker threads — a pure function of the cell set, identical
    /// at any `--threads`. For engine stages (single-threaded) it is the
    /// process-wide delta.
    pub allocations: Option<u64>,
    /// Allocations the harness spent *around* the work (process-wide
    /// delta minus [`Stage::allocations`]): queue bookkeeping, result
    /// collection, output assembly. Thread-count-dependent by nature, so
    /// kept out of the comparable number.
    pub harness_allocations: Option<u64>,
}

impl Stage {
    /// Work units per wall-clock second, from the unrounded duration.
    pub fn per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.units as f64 / secs
        } else {
            0.0
        }
    }
}

/// Results of the sweep bench.
#[derive(Debug)]
pub struct SweepBench {
    /// What the environment can actually run in parallel. Recorded with
    /// every bench document so scaling rows are interpretable: on an
    /// effectively single-core container multi-thread numbers measure
    /// timeslicing, not scaling.
    pub parallelism: EffectiveParallelism,
    /// The smoke subset at one thread (always present; the CI regression
    /// gate keys off this).
    pub smoke: Stage,
    /// The smoke subset re-run at [`SCALING_GATE_THREADS`] threads —
    /// the cheap input to the scaling-efficiency gate, recorded in
    /// smoke-only mode on machines where scaling is measurable.
    pub smoke_scaling: Option<Stage>,
    /// Full appendix-A grid per thread count (empty in smoke-only mode;
    /// only the single-thread row when scaling is not measurable here).
    pub scaling: Vec<(usize, Stage)>,
}

impl SweepBench {
    /// Scaling efficiency of the full grid at `threads`: cells/sec at
    /// `threads` ÷ (`threads` × cells/sec at one thread). 1.0 is
    /// perfect scaling; the 1-thread row scores exactly 1.0.
    pub fn scaling_efficiency(&self, threads: usize) -> Option<f64> {
        let base = self.scaling.iter().find(|(t, _)| *t == 1)?.1;
        let row = self.scaling.iter().find(|(t, _)| *t == threads)?.1;
        efficiency(&base, threads, &row)
    }

    /// Scaling efficiency of the smoke grid at [`SCALING_GATE_THREADS`],
    /// when the re-run was recorded.
    pub fn smoke_efficiency(&self) -> Option<f64> {
        let s = self.smoke_scaling.as_ref()?;
        efficiency(&self.smoke, SCALING_GATE_THREADS, s)
    }
}

/// Rate at `threads` ÷ (`threads` × rate at one thread).
fn efficiency(base: &Stage, threads: usize, at_n: &Stage) -> Option<f64> {
    let denom = threads as f64 * base.per_sec();
    (denom > 0.0).then(|| at_n.per_sec() / denom)
}

/// Results of the engine bench: one entry per policy.
#[derive(Debug)]
pub struct EngineBench {
    /// Requests in the stress trace.
    pub requests: usize,
    /// Per-policy stages, in [`PolicyKind::ALL`] order.
    pub runs: Vec<(&'static str, Stage)>,
}

/// Reads the current allocation count, when a counting allocator is
/// installed by the embedding binary.
pub type AllocReader<'a> = Option<&'a dyn Fn() -> u64>;

fn timed<R>(alloc: AllocReader<'_>, f: impl FnOnce() -> R) -> (R, Duration, Option<u64>) {
    let before = alloc.map(|a| a());
    let start = Instant::now();
    let r = f();
    let wall = start.elapsed();
    let allocs = match (before, alloc) {
        (Some(b), Some(a)) => Some(a().saturating_sub(b)),
        _ => None,
    };
    (r, wall, allocs)
}

/// The smoke subset: [`SMOKE_TRACES`] × every appendix-A algorithm at
/// each trace's published disk counts.
pub fn smoke_spec(threads: usize) -> SweepSpec {
    SweepSpec::named(&SMOKE_TRACES, &Algo::APPENDIX_A, None, threads)
}

/// Runs the sweep bench. With `full`, also replays the complete
/// appendix-A grid at every [`SCALING_THREADS`] count.
///
/// `thread_alloc` reads the *calling thread's* allocation count (the
/// thread-local counter of the embedding binary's counting allocator);
/// when provided, every stage's comparable `allocations` figure is the
/// sum of per-cell counts sampled on the worker threads, which is
/// identical at any thread count.
pub fn run_sweep_bench(
    full: bool,
    alloc: AllocReader<'_>,
    thread_alloc: ThreadAllocSampler,
) -> SweepBench {
    let parallelism = detect_parallelism();
    let faults = FaultPlan::default();
    // Traces are generated and grids expanded before any clock starts:
    // the first timed region used to pay for generating every trace in
    // its grid, inflating the smoke row and charging the scaling table's
    // whole generation cost to the 1-thread row.
    let smoke_cells = smoke_spec(sweep::default_threads()).cells();
    let smoke = timed_cells(&smoke_cells, 1, &faults, alloc, thread_alloc);

    let mut scaling = Vec::new();
    if full {
        // On an effectively single-core machine the multi-thread rows
        // would record timeslicing overhead as negative scaling; run
        // only the single-thread row and let the recorded parallelism
        // say why.
        let thread_counts: &[usize] = if parallelism.scaling_measurable() {
            &SCALING_THREADS
        } else {
            &SCALING_THREADS[..1]
        };
        let cells = SweepSpec::appendix_a(sweep::default_threads()).cells();
        for &threads in thread_counts {
            scaling.push((
                threads,
                timed_cells(&cells, threads, &faults, alloc, thread_alloc),
            ));
        }
    }
    // The efficiency gate needs a measurement at SCALING_GATE_THREADS;
    // in smoke-only mode on a multi-core machine, re-run the smoke
    // subset there (seconds, not minutes).
    let smoke_scaling = (parallelism.scaling_measurable() && scaling.is_empty()).then(|| {
        timed_cells(
            &smoke_cells,
            SCALING_GATE_THREADS,
            &faults,
            alloc,
            thread_alloc,
        )
    });
    SweepBench {
        parallelism,
        smoke,
        smoke_scaling,
        scaling,
    }
}

/// Times one sweep over `cells` at `threads` workers through the
/// fail-soft executor, splitting the allocation count into the
/// comparable per-cell work figure and the thread-count-dependent
/// harness overhead.
///
/// # Panics
///
/// Panics when any cell fails: a caught panic would shrink the work and
/// inflate cells/sec.
fn timed_cells(
    cells: &[SweepCell],
    threads: usize,
    faults: &FaultPlan,
    alloc: AllocReader<'_>,
    thread_alloc: ThreadAllocSampler,
) -> Stage {
    let policy = FailSoft::default();
    let (run, wall, total) = timed(alloc, || {
        sweep::run_cells_failsoft(cells, threads, false, false, faults, &policy, thread_alloc)
    });
    let work: Option<u64> = thread_alloc
        .is_some()
        .then(|| run.workers.iter().map(|w| w.work_allocs).sum());
    run.expect_clean();
    let harness = match (total, work) {
        (Some(t), Some(w)) => Some(t.saturating_sub(w)),
        _ => None,
    };
    Stage {
        units: cells.len() as u64,
        wall,
        // Without a per-thread sampler, fall back to the process-wide
        // delta rather than reporting nothing.
        allocations: work.or(total),
        harness_allocations: harness,
    }
}

/// Event-counting probe: one `u64` bump per simulation event.
struct CountProbe {
    events: u64,
}

impl Probe for CountProbe {
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
    }
}

/// Runs the engine bench: the synthetic stress trace through every
/// policy with an event-counting probe.
pub fn run_engine_bench(alloc: AllocReader<'_>) -> EngineBench {
    let t = parcache_trace::synth::synth_trace(STRESS_PASSES, STRESS_LOOP_BLOCKS, crate::SEED);
    let cfg = SimConfig::for_trace(STRESS_DISKS, &t);
    let mut runs = Vec::new();
    for kind in PolicyKind::ALL {
        let mut probe = CountProbe { events: 0 };
        let (_, wall, allocs) = timed(alloc, || {
            simulate_probed(&t, kind, &cfg, &mut probe);
        });
        runs.push((
            kind.name(),
            Stage {
                units: probe.events,
                wall,
                allocations: allocs,
                // Engine stages run single-threaded with nothing around
                // the simulate call; there is no separate harness share.
                // The engine schema (v2) carries no such field.
                harness_allocations: None,
            },
        ));
    }
    EngineBench {
        requests: t.requests.len(),
        runs,
    }
}

fn stage_json(s: &Stage, unit: &str) -> String {
    let allocs = match s.allocations {
        Some(a) => a.to_string(),
        None => "null".to_string(),
    };
    let harness = match s.harness_allocations {
        Some(a) => a.to_string(),
        None => "null".to_string(),
    };
    // `wall_secs` is rounded for display only; `{unit}_per_sec` comes
    // from the unrounded nanoseconds via `Stage::per_sec`.
    format!(
        r#"{{"{unit}":{},"wall_secs":{:.3},"{unit}_per_sec":{:.3},"allocations":{allocs},"harness_allocations":{harness}}}"#,
        s.units,
        s.wall.as_secs_f64(),
        s.per_sec(),
    )
}

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(e) => format!("{e:.3}"),
        None => "null".to_string(),
    }
}

/// Serializes a [`SweepBench`] as the `BENCH_sweep.json` document.
pub fn sweep_bench_json(b: &SweepBench) -> String {
    let scaling: Vec<String> = b
        .scaling
        .iter()
        .map(|(threads, s)| {
            format!(
                r#"{{"threads":{threads},"efficiency":{},{}"#,
                opt_f64(b.scaling_efficiency(*threads)),
                &stage_json(s, "cells")[1..]
            )
        })
        .collect();
    let smoke_scaling = match &b.smoke_scaling {
        Some(s) => format!(
            r#"{{"threads":{SCALING_GATE_THREADS},"efficiency":{},{}"#,
            opt_f64(b.smoke_efficiency()),
            &stage_json(s, "cells")[1..]
        ),
        None => "null".to_string(),
    };
    // `parallelism` sits before `smoke`: `baseline_smoke_cells_per_sec`
    // is positional (split on the `"smoke"` key), so new fields must not
    // appear after it. (`smoke_scaling` and `smoke_traces` are safe: the
    // split pattern is the quoted key `"smoke":`, which matches neither.)
    format!(
        "{{\"schema\":\"parcache-bench-sweep-v2\",\"grid\":\"appendix-a\",\
         \"parallelism\":{},\"smoke_traces\":[{}],\"smoke\":{},\
         \"smoke_scaling\":{},\"scaling\":[{}]}}",
        b.parallelism.to_json(),
        SMOKE_TRACES
            .iter()
            .map(|t| format!("\"{}\"", json_escape(t)))
            .collect::<Vec<_>>()
            .join(","),
        stage_json(&b.smoke, "cells"),
        smoke_scaling,
        scaling.join(",")
    )
}

/// Serializes an [`EngineBench`] as the `BENCH_engine.json` document
/// (schema v2).
///
/// v2 drops v1's `harness_allocations` field, which was `null` on every
/// row: engine stages are single-threaded with nothing around the
/// simulate call, so there is no harness share to split out, and a
/// permanently-null column invites a downstream parser to key on it.
pub fn engine_bench_json(b: &EngineBench) -> String {
    let runs: Vec<String> = b
        .runs
        .iter()
        .map(|(name, s)| {
            let allocs = match s.allocations {
                Some(a) => a.to_string(),
                None => "null".to_string(),
            };
            // Field order is a compatibility surface:
            // `baseline_engine_events_per_sec` splits on `"policy":"…"`
            // then takes the next `"events_per_sec":`, so the rate must
            // stay inside its policy's row.
            format!(
                r#"{{"policy":"{}","events":{},"wall_secs":{:.3},"events_per_sec":{:.3},"allocations":{allocs}}}"#,
                json_escape(name),
                s.units,
                s.wall.as_secs_f64(),
                s.per_sec(),
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"parcache-bench-engine-v2\",\"trace\":\"synth-stress\",\
         \"passes\":{},\"loop_blocks\":{},\"disks\":{},\"requests\":{},\"runs\":[{}]}}",
        STRESS_PASSES,
        STRESS_LOOP_BLOCKS,
        STRESS_DISKS,
        b.requests,
        runs.join(",")
    )
}

/// Pulls `"cells_per_sec":<number>` out of the `"smoke"` object of a
/// `BENCH_sweep.json` document. Deliberately minimal: it parses only the
/// documents this module writes.
pub fn baseline_smoke_cells_per_sec(json: &str) -> Option<f64> {
    let smoke = json.split("\"smoke\":").nth(1)?;
    let field = smoke.split("\"cells_per_sec\":").nth(1)?;
    let end = field
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(field.len());
    field[..end].parse().ok()
}

/// Compares a fresh smoke measurement against a committed baseline
/// document. `Ok` carries a human-readable verdict; `Err` means the
/// measurement regressed beyond [`REGRESSION_TOLERANCE`].
pub fn check_regression(current: &Stage, baseline_json: &str) -> Result<String, String> {
    let Some(base) = baseline_smoke_cells_per_sec(baseline_json) else {
        return Err("baseline JSON has no smoke cells_per_sec field".to_string());
    };
    let cur = current.per_sec();
    if base <= 0.0 {
        return Ok(format!(
            "baseline {base:.1} cells/sec is not positive; skipping gate"
        ));
    }
    let ratio = cur / base;
    let verdict = format!(
        "smoke: {cur:.1} cells/sec vs baseline {base:.1} ({:+.1}%)",
        (ratio - 1.0) * 100.0
    );
    if ratio < 1.0 - REGRESSION_TOLERANCE {
        Err(format!(
            "{verdict} — exceeds the {:.0}% regression tolerance",
            REGRESSION_TOLERANCE * 100.0
        ))
    } else {
        Ok(verdict)
    }
}

/// Pulls `"events_per_sec":<number>` for one policy's row out of a
/// `BENCH_engine.json` document (v1 or v2 — the row shape it relies on
/// is shared). Positional, like [`baseline_smoke_cells_per_sec`]: it
/// parses only the documents this module writes. The quoted
/// `"policy":"name"` pattern cannot match inside another policy's name
/// (`aggressive` never matches `reverse-aggressive`'s row: the leading
/// quote anchors the full name).
pub fn baseline_engine_events_per_sec(json: &str, policy: &str) -> Option<f64> {
    let row = json
        .split(&format!("\"policy\":\"{}\"", json_escape(policy)))
        .nth(1)?;
    let field = row.split("\"events_per_sec\":").nth(1)?;
    let end = field
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(field.len());
    field[..end].parse().ok()
}

/// Applies the per-policy engine gates to a fresh engine bench against a
/// committed `BENCH_engine.json` baseline.
///
/// Three gates, `Err` on any violation (all violations are reported):
///
/// * **Throughput floor** — each policy's events/sec must stay within
///   [`REGRESSION_TOLERANCE`] of its own baseline row. A policy missing
///   from the baseline is an error: a silently unguarded policy is how
///   the forestall gap went unnoticed.
/// * **Allocation ceiling** — each policy's allocation count (when a
///   counting allocator is installed) must stay under
///   [`ENGINE_ALLOC_CEILING`]. Deterministic, so no tolerance.
/// * **Relative gap** — forestall's rate must stay within
///   [`ENGINE_FORESTALL_DEMAND_RATIO`] of demand's *from the same run*,
///   which holds even when the machine differs from the baseline's.
pub fn check_engine(b: &EngineBench, baseline_json: &str) -> Result<String, String> {
    let mut lines = Vec::new();
    let mut errors = Vec::new();
    let mut demand_rate = None;
    let mut forestall_rate = None;
    for (name, s) in &b.runs {
        let cur = s.per_sec();
        match *name {
            "demand" => demand_rate = Some(cur),
            "forestall" => forestall_rate = Some(cur),
            _ => {}
        }
        match baseline_engine_events_per_sec(baseline_json, name) {
            Some(base) if base > 0.0 => {
                let ratio = cur / base;
                let verdict = format!(
                    "engine {name}: {cur:.0} events/sec vs baseline {base:.0} ({:+.1}%)",
                    (ratio - 1.0) * 100.0
                );
                if ratio < 1.0 - REGRESSION_TOLERANCE {
                    errors.push(format!(
                        "{verdict} — exceeds the {:.0}% regression tolerance",
                        REGRESSION_TOLERANCE * 100.0
                    ));
                } else {
                    lines.push(verdict);
                }
            }
            _ => errors.push(format!(
                "baseline JSON has no positive events_per_sec for policy {name}"
            )),
        }
        if let Some(a) = s.allocations {
            if a > ENGINE_ALLOC_CEILING {
                errors.push(format!(
                    "engine {name}: {a} allocations exceed the {ENGINE_ALLOC_CEILING} ceiling"
                ));
            }
        }
    }
    if let (Some(d), Some(f)) = (demand_rate, forestall_rate) {
        if f > 0.0 {
            let gap = d / f;
            let verdict = format!(
                "engine forestall/demand gap: {gap:.2}x (ceiling {ENGINE_FORESTALL_DEMAND_RATIO:.1}x)"
            );
            if gap > ENGINE_FORESTALL_DEMAND_RATIO {
                errors.push(format!("{verdict} — forestall fell out of its band"));
            } else {
                lines.push(verdict);
            }
        }
    }
    if errors.is_empty() {
        Ok(lines.join("\n"))
    } else {
        Err(errors.join("\n"))
    }
}

/// Applies the scaling-efficiency gate to a sweep bench.
///
/// `Ok` carries a human-readable verdict — including an explicit
/// skip-with-note on machines whose effective parallelism is below 2,
/// where a multi-thread run would time the scheduler, not the harness.
/// `Err` means efficiency at [`SCALING_GATE_THREADS`] threads fell
/// below [`SCALING_EFFICIENCY_FLOOR`]. The full grid's measurement is
/// preferred; the smoke re-run is the fallback in smoke-only mode.
pub fn check_scaling(b: &SweepBench) -> Result<String, String> {
    if !b.parallelism.scaling_measurable() {
        return Ok(format!(
            "scaling gate skipped: effective parallelism {:.2} < 2 \
             (multi-thread timing here would measure timeslicing)",
            b.parallelism.effective
        ));
    }
    let (source, eff) = if let Some(e) = b.scaling_efficiency(SCALING_GATE_THREADS) {
        ("full grid", e)
    } else if let Some(e) = b.smoke_efficiency() {
        ("smoke grid", e)
    } else {
        return Err(format!(
            "scaling gate: no {SCALING_GATE_THREADS}-thread measurement to judge"
        ));
    };
    let verdict = format!(
        "scaling: {source} efficiency {eff:.3} at {SCALING_GATE_THREADS} threads \
         (floor {SCALING_EFFICIENCY_FLOOR:.2})"
    );
    if eff < SCALING_EFFICIENCY_FLOOR {
        Err(format!("{verdict} — below the committed floor"))
    } else {
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage with the given units and wall milliseconds, no counters.
    fn stage(units: u64, millis: u64) -> Stage {
        Stage {
            units,
            wall: Duration::from_millis(millis),
            allocations: None,
            harness_allocations: None,
        }
    }

    fn multi_core() -> EffectiveParallelism {
        EffectiveParallelism {
            available: 4,
            cgroup_quota: None,
            effective: 4.0,
        }
    }

    #[test]
    fn smoke_spec_covers_all_algorithms() {
        let spec = smoke_spec(1);
        let cells = spec.cells();
        assert!(!cells.is_empty());
        for algo in Algo::APPENDIX_A {
            assert!(
                cells.iter().any(|c| c.algo == algo),
                "{} missing from smoke grid",
                algo.name()
            );
        }
    }

    #[test]
    fn stage_math() {
        assert_eq!(stage(100, 2000).per_sec(), 50.0);
        assert_eq!(stage(5, 0).per_sec(), 0.0);
    }

    #[test]
    fn per_sec_uses_unrounded_nanos() {
        // A sub-millisecond stage: had the rate been computed from the
        // 3-decimal `wall_secs` that lands in the JSON, this would be a
        // division by 0.000. The rate must come from the full-resolution
        // duration, with rounding confined to the display edge.
        let s = Stage {
            units: 10,
            wall: Duration::from_micros(400),
            allocations: None,
            harness_allocations: None,
        };
        assert_eq!(s.per_sec(), 25_000.0);
        let json = stage_json(&s, "cells");
        assert!(json.contains("\"wall_secs\":0.000"), "{json}");
        assert!(json.contains("\"cells_per_sec\":25000.000"), "{json}");
    }

    #[test]
    fn efficiency_math() {
        let b = SweepBench {
            parallelism: multi_core(),
            smoke: stage(100, 1000),              // 100 cells/sec
            smoke_scaling: Some(stage(100, 625)), // 160 cells/sec at 2 threads
            scaling: vec![(1, stage(332, 1000)), (2, stage(332, 550))],
        };
        let eff = b.scaling_efficiency(2).unwrap();
        assert!((eff - 1.0 / 0.55 / 2.0).abs() < 1e-9, "{eff}");
        assert!((b.scaling_efficiency(1).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(b.scaling_efficiency(4), None);
        assert!((b.smoke_efficiency().unwrap() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn json_round_trips_cells_per_sec() {
        let b = SweepBench {
            parallelism: EffectiveParallelism {
                available: 4,
                cgroup_quota: Some(1.5),
                effective: 1.5,
            },
            smoke: Stage {
                units: 42,
                wall: Duration::from_millis(500),
                allocations: Some(1234),
                harness_allocations: Some(56),
            },
            smoke_scaling: None,
            scaling: vec![(1, stage(332, 10_000))],
        };
        let json = sweep_bench_json(&b);
        // The positional smoke parser must survive the parallelism
        // object and the smoke_scaling key around the "smoke" key.
        assert_eq!(baseline_smoke_cells_per_sec(&json), Some(84.0));
        assert!(
            json.contains("\"schema\":\"parcache-bench-sweep-v2\""),
            "{json}"
        );
        assert!(
            json.contains("\"threads\":1,\"efficiency\":1.000"),
            "{json}"
        );
        assert!(json.contains("\"smoke_scaling\":null"), "{json}");
        assert!(json.contains("\"allocations\":1234"));
        assert!(json.contains("\"harness_allocations\":56"));
        assert!(json.contains("\"allocations\":null"));
        assert!(json.contains("\"parallelism\":{\"available\":4"), "{json}");
        assert!(json.contains("\"scaling_measurable\":false"), "{json}");
    }

    #[test]
    fn json_records_smoke_scaling_with_efficiency() {
        let b = SweepBench {
            parallelism: multi_core(),
            smoke: stage(100, 1000),
            smoke_scaling: Some(stage(100, 625)),
            scaling: Vec::new(),
        };
        let json = sweep_bench_json(&b);
        assert!(
            json.contains("\"smoke_scaling\":{\"threads\":2,\"efficiency\":0.800"),
            "{json}"
        );
        // The smoke re-run must not confuse the positional baseline
        // parser: the plain "smoke" object still wins.
        assert_eq!(baseline_smoke_cells_per_sec(&json), Some(100.0));
    }

    #[test]
    fn regression_gate_triggers_only_past_tolerance() {
        let base = SweepBench {
            parallelism: detect_parallelism(),
            smoke: stage(100, 1000),
            smoke_scaling: None,
            scaling: Vec::new(),
        };
        let json = sweep_bench_json(&base);
        let ok = stage(80, 1000); // -20%: inside tolerance
        assert!(check_regression(&ok, &json).is_ok());
        let bad = stage(70, 1000); // -30%: outside
        assert!(check_regression(&bad, &json).is_err());
        let better = stage(200, 1000);
        assert!(check_regression(&better, &json).is_ok());
    }

    #[test]
    fn scaling_gate_skips_below_two_effective_cores() {
        let b = SweepBench {
            parallelism: EffectiveParallelism {
                available: 1,
                cgroup_quota: None,
                effective: 1.0,
            },
            smoke: stage(100, 1000),
            smoke_scaling: None,
            scaling: vec![(1, stage(332, 1000))],
        };
        let note = check_scaling(&b).unwrap();
        assert!(note.contains("skipped"), "{note}");
    }

    #[test]
    fn scaling_gate_enforces_the_floor() {
        // Healthy scaling (0.909 at 2 threads) passes on the full grid.
        let good = SweepBench {
            parallelism: multi_core(),
            smoke: stage(100, 1000),
            smoke_scaling: None,
            scaling: vec![(1, stage(332, 1000)), (2, stage(332, 550))],
        };
        assert!(check_scaling(&good).unwrap().contains("full grid"));
        // The committed bug's shape — *slower* with two threads — fails.
        let inverse = SweepBench {
            parallelism: multi_core(),
            smoke: stage(100, 1000),
            smoke_scaling: None,
            scaling: vec![(1, stage(332, 1000)), (2, stage(332, 1800))],
        };
        let err = check_scaling(&inverse).unwrap_err();
        assert!(err.contains("below the committed floor"), "{err}");
        // Smoke-only mode falls back to the smoke re-run.
        let smoke_only = SweepBench {
            parallelism: multi_core(),
            smoke: stage(100, 1000),
            smoke_scaling: Some(stage(100, 625)),
            scaling: Vec::new(),
        };
        assert!(check_scaling(&smoke_only).unwrap().contains("smoke grid"));
        // Measurable machine but no 2-thread point at all: an error, not
        // a silent pass.
        let missing = SweepBench {
            parallelism: multi_core(),
            smoke: stage(100, 1000),
            smoke_scaling: None,
            scaling: Vec::new(),
        };
        assert!(check_scaling(&missing).is_err());
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        let s = stage(1, 1000);
        assert!(check_regression(&s, "{}").is_err());
        assert!(check_regression(&s, "not json at all").is_err());
    }

    /// An engine bench with the given (policy, events, millis, allocs)
    /// rows.
    fn engine(rows: &[(&'static str, u64, u64, Option<u64>)]) -> EngineBench {
        EngineBench {
            requests: 240_000,
            runs: rows
                .iter()
                .map(|&(name, units, millis, allocations)| {
                    (
                        name,
                        Stage {
                            units,
                            wall: Duration::from_millis(millis),
                            allocations,
                            harness_allocations: None,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn engine_json_is_v2_without_harness_allocations() {
        let b = engine(&[
            ("demand", 16_000, 1000, Some(111)),
            ("forestall", 8_000, 1000, None),
        ]);
        let json = engine_bench_json(&b);
        assert!(
            json.contains("\"schema\":\"parcache-bench-engine-v2\""),
            "{json}"
        );
        assert!(!json.contains("harness_allocations"), "{json}");
        assert!(json.contains("\"policy\":\"demand\",\"events\":16000"));
        assert!(json.contains("\"allocations\":111"));
        assert!(json.contains("\"allocations\":null"));
        assert_eq!(
            baseline_engine_events_per_sec(&json, "demand"),
            Some(16000.0)
        );
        assert_eq!(
            baseline_engine_events_per_sec(&json, "forestall"),
            Some(8000.0)
        );
        assert_eq!(baseline_engine_events_per_sec(&json, "aggressive"), None);
    }

    #[test]
    fn engine_baseline_parse_anchors_full_policy_names() {
        // "aggressive" must not match inside reverse-aggressive's row.
        let b = engine(&[
            ("aggressive", 7_000, 1000, Some(131)),
            ("reverse-aggressive", 5_000, 1000, Some(150)),
        ]);
        let json = engine_bench_json(&b);
        assert_eq!(
            baseline_engine_events_per_sec(&json, "aggressive"),
            Some(7000.0)
        );
        assert_eq!(
            baseline_engine_events_per_sec(&json, "reverse-aggressive"),
            Some(5000.0)
        );
    }

    #[test]
    fn engine_gate_enforces_per_policy_floors() {
        let base = engine(&[
            ("demand", 16_000, 1000, Some(111)),
            ("forestall", 8_000, 1000, Some(132)),
        ]);
        let baseline = engine_bench_json(&base);
        // Within tolerance on both policies: passes, verdict names both.
        let ok = engine(&[
            ("demand", 14_000, 1000, Some(111)),
            ("forestall", 7_000, 1000, Some(132)),
        ]);
        let verdict = check_engine(&ok, &baseline).unwrap();
        assert!(verdict.contains("engine demand"), "{verdict}");
        assert!(verdict.contains("engine forestall"), "{verdict}");
        assert!(verdict.contains("gap"), "{verdict}");
        // One policy regressing past tolerance fails even when the
        // others improve.
        let bad = engine(&[
            ("demand", 20_000, 1000, Some(111)),
            ("forestall", 5_000, 1000, Some(132)),
        ]);
        let err = check_engine(&bad, &baseline).unwrap_err();
        assert!(err.contains("engine forestall"), "{err}");
        assert!(err.contains("regression tolerance"), "{err}");
    }

    #[test]
    fn engine_gate_enforces_the_allocation_ceiling_and_gap() {
        let base = engine(&[
            ("demand", 16_000, 1000, Some(111)),
            ("forestall", 8_000, 1000, Some(132)),
        ]);
        let baseline = engine_bench_json(&base);
        // The old reverse-aggressive shape: allocations far past the
        // ceiling fail deterministically.
        let alloc_heavy = engine(&[
            ("demand", 16_000, 1000, Some(19_400)),
            ("forestall", 8_000, 1000, Some(132)),
        ]);
        let err = check_engine(&alloc_heavy, &baseline).unwrap_err();
        assert!(err.contains("allocations exceed"), "{err}");
        // The old forestall shape: 10.9x slower than demand on the same
        // machine fails the relative gap even if the baseline row is met.
        let gapped = engine(&[
            ("demand", 87_200, 1000, Some(111)),
            ("forestall", 8_000, 1000, Some(132)),
        ]);
        let err = check_engine(&gapped, &baseline).unwrap_err();
        assert!(err.contains("fell out of its band"), "{err}");
        // No allocator installed: the ceiling is simply not judged.
        let uncounted = engine(&[
            ("demand", 16_000, 1000, None),
            ("forestall", 8_000, 1000, None),
        ]);
        assert!(check_engine(&uncounted, &baseline).is_ok());
        // A policy missing from the baseline is an error, not a skip.
        let extra = engine(&[
            ("demand", 16_000, 1000, None),
            ("aggressive", 7_000, 1000, None),
            ("forestall", 8_000, 1000, None),
        ]);
        let err = check_engine(&extra, &baseline).unwrap_err();
        assert!(err.contains("no positive events_per_sec"), "{err}");
    }

    #[test]
    fn engine_bench_counts_events() {
        // A miniature version of the stress run: the probe must see at
        // least one event per request.
        let t = parcache_trace::synth::synth_trace(2, 50, crate::SEED);
        let cfg = SimConfig::for_trace(2, &t);
        let mut probe = CountProbe { events: 0 };
        simulate_probed(&t, PolicyKind::Demand, &cfg, &mut probe);
        assert!(probe.events >= t.requests.len() as u64);
    }
}
