//! The traced run: per-layer attribution from outside the program.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public functions, so each layer is timed as its caller
//! sees it:
//!
//! * `trace.gen` — trace generation (parcache-trace);
//! * `oracle.build` / `oracle.predict` — `Oracle::new`, or the predictor
//!   pre-pass `predicted_oracle`, called on their own (the engine makes
//!   the same call again inside `engine.run.*`);
//! * `policy.build` — `PolicyKind::build`, where reverse aggressive
//!   builds its offline schedule;
//! * `engine.run.<policy>` — the event loop, including policy `decide`,
//!   the cache and the disk array;
//! * `disk.replay` — the run's disk-array calls replayed into a fresh
//!   `DiskArray` (healthy runs only);
//! * `runner.search` — the library's serial `best_reverse_search`;
//! * `report.render` — CSV rendering plus SHA-256.
//!
//! Before the traced pass the run makes, for `appendix-a`, an untraced
//! pass at two workers (`sweep.makespan_ratio`), and then an untraced
//! serial pass (per-cell latency, allocations, `sweep.serial_s`).
//! `engine-stress` warms up with one untimed round instead of the
//! parallel pass.

use crate::adapter::{self, CellRow, LayerProbe, PolicyKind, Report, SimConfig, Trace};
use crate::spans::Tracer;
use crate::{median, policy_index, quantile, Metrics, Outcome, Workload};
use std::time::Instant;

/// Leaf spans: the layers. Coverage is their summed time over the
/// traced pass's wall time.
const LAYERS: [&str; 11] = [
    "oracle.build",
    "oracle.predict",
    "policy.build",
    "engine.run.demand",
    "engine.run.fixed-horizon",
    "engine.run.aggressive",
    "engine.run.reverse-aggressive",
    "engine.run.forestall",
    "disk.replay",
    "runner.search",
    "report.render",
];

/// Minimum share of the traced pass that named layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;

fn engine_span(kind: PolicyKind) -> &'static str {
    LAYERS[3 + policy_index(kind)]
}

/// Counts gathered across every engine run of the traced pass.
#[derive(Default)]
struct Layers {
    events: [u64; 5],
    decisions: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    faults: u64,
    retries: u64,
    abandoned: u64,
    stall_s: f64,
    disk_requests: u64,
    /// Runs whose replayed per-disk `served`/`total_service` differ.
    replay_mismatches: u64,
    /// Tuned-reverse cells whose span-by-span re-run disagrees with the
    /// library's search.
    search_mismatches: u64,
}

impl Layers {
    fn add(&mut self, kind: PolicyKind, p: &LayerProbe, r: &Report) {
        self.events[policy_index(kind)] += p.events;
        self.decisions += p.decisions;
        self.hits += p.hits;
        self.misses += p.misses;
        self.evictions += p.evictions;
        self.faults += p.faults;
        self.retries += p.retries;
        self.abandoned += p.abandoned;
        self.stall_s += adapter::stall_secs(r);
    }
}

/// One simulation, span by span: hint pre-pass, policy build, event
/// loop, then the disk replay of a healthy run.
fn traced_run(
    t: &mut Tracer,
    layers: &mut Layers,
    cell: usize,
    trace: &Trace,
    kind: PolicyKind,
    cfg: &SimConfig,
) -> Report {
    if adapter::is_predicted(cfg) {
        t.span("oracle.predict", Some(cell), |_| {
            std::hint::black_box(adapter::predict_oracle(trace, cfg))
        });
    } else {
        t.span("oracle.build", Some(cell), |_| {
            std::hint::black_box(adapter::build_oracle(trace, cfg))
        });
    }
    let mut policy = t.span("policy.build", Some(cell), |_| {
        adapter::build_policy(trace, kind, cfg)
    });
    let mut probe = LayerProbe {
        capture: adapter::replayable(cfg).then(Vec::new),
        ..LayerProbe::default()
    };
    let report = t.span(engine_span(kind), Some(cell), |_| {
        adapter::run_policy(trace, policy.as_mut(), cfg, &mut probe)
    });
    layers.add(kind, &probe, &report);
    if let Some(ops) = probe.capture.take() {
        let replayed = t.span("disk.replay", Some(cell), |_| {
            adapter::replay_disks(cfg, &ops)
        });
        layers.disk_requests += ops
            .iter()
            .filter(|op| matches!(op, adapter::DiskOp::Issue { .. }))
            .count() as u64;
        if replayed != adapter::report_disks(&report) {
            layers.replay_mismatches += 1;
        }
    }
    report
}

/// One sweep cell, span by span. A tuned reverse-aggressive cell runs
/// the library's search as one opaque `runner.search` span, then re-runs
/// its eight configurations span by span and checks that they pick the
/// same winner and the same report.
fn traced_cell(t: &mut Tracer, layers: &mut Layers, cell: &adapter::SweepCell) -> Report {
    let cfg = adapter::cell_config(cell);
    let i = cell.index;
    t.span("cell", Some(i), |t| match adapter::cell_policy(cell) {
        Some(kind) => traced_run(t, layers, i, &cell.trace, kind, &cfg),
        None => {
            let (report, winner) = t.span("runner.search", Some(i), |_| {
                adapter::best_reverse_search(&cell.trace, &cfg)
            });
            let configs = adapter::reverse_configs(&cfg);
            let mut best: Option<(usize, Report)> = None;
            t.span("runner.rerun", Some(i), |t| {
                for (j, c) in configs.iter().enumerate() {
                    let r = traced_run(t, layers, i, &cell.trace, PolicyKind::ReverseAggressive, c);
                    if best.as_ref().is_none_or(|(_, b)| r.elapsed < b.elapsed) {
                        best = Some((j, r));
                    }
                }
            });
            let (j, rerun) = best.expect("eight configurations");
            if configs[j] != winner || rerun != report {
                layers.search_mismatches += 1;
            }
            report
        }
    })
}

/// Seconds of the spans that redo exactly the untraced cells' work:
/// `runner.search`, plus `policy.build` and `engine.run.*` directly under
/// a cell (not under a tuned-reverse re-run).
fn equivalent_secs(t: &Tracer) -> f64 {
    let spans = t.spans();
    spans
        .iter()
        .filter(|s| {
            s.name == "runner.search"
                || ((s.name == "policy.build" || s.name.starts_with("engine.run."))
                    && s.parent.is_some_and(|p| spans[p].name == "cell"))
        })
        .map(|s| s.secs())
        .sum()
}

/// Timings of the untraced passes a traced run compares against.
struct Untraced {
    /// Per-cell wall times of the serial pass, in seconds.
    cell_secs: Vec<f64>,
    /// Allocations per cell in the serial pass.
    allocs_per_cell: f64,
    /// Wall time at two workers ÷ (serial time ÷ 2); 0 when not run.
    makespan_ratio: f64,
}

/// Adds every per-layer metric; layers a workload does not exercise
/// read 0.
fn put_layers(
    m: &mut Metrics,
    t: &Tracer,
    traced_span: usize,
    layers: &Layers,
    untraced: &Untraced,
) -> u64 {
    m.put("trace.gen_s", t.total("trace.gen"), "s");
    m.put("oracle.build_s", t.total("oracle.build"), "s");
    m.put("oracle.predict_s", t.total("oracle.predict"), "s");
    m.put("policy.build_s", t.total("policy.build"), "s");
    for (k, kind) in PolicyKind::ALL.iter().enumerate() {
        let run_s = t.total(engine_span(*kind));
        let events = layers.events[k];
        m.put(format!("engine.run_s.{}", kind.name()), run_s, "s");
        let ns = if events > 0 {
            run_s * 1e9 / events as f64
        } else {
            0.0
        };
        m.put(format!("engine.ns_per_event.{}", kind.name()), ns, "ns");
        m.put(
            format!("engine.events.{}", kind.name()),
            events as f64,
            "count",
        );
    }
    m.put("engine.decisions", layers.decisions as f64, "count");
    m.put("engine.stall_s", layers.stall_s, "s");
    m.put("cache.hits", layers.hits as f64, "count");
    m.put("cache.misses", layers.misses as f64, "count");
    m.put("cache.evictions", layers.evictions as f64, "count");
    let refs = layers.hits + layers.misses;
    let hit_ratio = if refs > 0 {
        layers.hits as f64 / refs as f64
    } else {
        0.0
    };
    m.put("cache.hit_ratio", hit_ratio, "ratio");
    let replay_s = t.total("disk.replay");
    m.put("disk.replay_s", replay_s, "s");
    m.put("disk.requests", layers.disk_requests as f64, "count");
    let ns_per_req = if layers.disk_requests > 0 {
        replay_s * 1e9 / layers.disk_requests as f64
    } else {
        0.0
    };
    m.put("disk.ns_per_request", ns_per_req, "ns");
    m.put("disk.faults", layers.faults as f64, "count");
    m.put("disk.retries", layers.retries as f64, "count");
    m.put("disk.abandoned", layers.abandoned as f64, "count");
    let serial_s: f64 = untraced.cell_secs.iter().sum();
    let search_s = t.total("runner.search");
    m.put("runner.search_s", search_s, "s");
    m.put("runner.search_share", search_s / serial_s, "ratio");
    m.put("sweep.serial_s", serial_s, "s");
    let ms: Vec<f64> = untraced.cell_secs.iter().map(|s| s * 1e3).collect();
    m.put("sweep.cell_p50_ms", median(&ms), "ms");
    m.put("sweep.cell_p99_ms", quantile(&ms, 0.99), "ms");
    m.put("sweep.cell_max_ms", quantile(&ms, 1.0), "ms");
    m.put("sweep.cell_samples", ms.len() as f64, "count");
    m.put("sweep.makespan_ratio", untraced.makespan_ratio, "ratio");
    m.put("sweep.allocs_per_cell", untraced.allocs_per_cell, "count");
    m.put("report.render_s", t.total("report.render"), "s");
    let overhead = (equivalent_secs(t) - serial_s) / serial_s * 100.0;
    m.put("trace_overhead_pct", overhead, "%");
    let traced = &t.spans()[traced_span];
    let covered: f64 = t
        .spans()
        .iter()
        .filter(|s| LAYERS.contains(&s.name) && s.start_ns >= traced.start_ns)
        .map(|s| s.secs())
        .sum();
    let coverage = covered / traced.secs();
    m.put("spans.coverage_pct", coverage * 100.0, "%");
    let violations = t.nesting_violations() as u64;
    let mut failed = layers.replay_mismatches + layers.search_mismatches + violations;
    if coverage < MIN_COVERAGE {
        eprintln!(
            "perfbench: named spans cover {:.1}% of the traced pass",
            coverage * 100.0
        );
        failed += 1;
    }
    if failed > 0 {
        eprintln!(
            "perfbench: fidelity: {} replay mismatches, {} search mismatches, {} nesting violations",
            layers.replay_mismatches, layers.search_mismatches, violations
        );
    }
    failed
}

/// Where the spans go, relative to the working directory.
const SPANS_DIR: &str = ".bench_out";

fn write_spans(t: &Tracer, workload: Workload, seed: u64) {
    let path =
        std::path::Path::new(SPANS_DIR).join(format!("spans-{}-{seed}.csv", workload.name()));
    if let Err(e) = t.write_csv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Finishes a traced run: the error rate, then the outcome.
fn finish(
    mut m: Metrics,
    attempted: u64,
    failed: u64,
    fidelity_failures: u64,
    digest: String,
    referenced: bool,
) -> Outcome {
    m.put("error_rate", failed as f64 / attempted as f64, "ratio");
    Outcome {
        correct: failed == 0 && fidelity_failures == 0,
        attempted,
        failed,
        metrics: m,
        digest,
        referenced,
        kernel_ms: None,
    }
}

/// The traced run of `appendix-a`.
pub fn traced_sweep(seed: u64) -> Outcome {
    let workload = Workload::AppendixA;
    let mut t = Tracer::new();
    let cells = crate::sweep_setup(seed, &mut t);
    let n = cells.len() as u64;

    // Untraced pass at two workers; it also warms the allocator and
    // caches for the serial and traced passes, which are compared.
    let t0 = Instant::now();
    let parallel = adapter::run_sweep(&cells, crate::SWEEP_THREADS, None);
    let parallel_s = t0.elapsed().as_secs_f64();
    let parallel_rows: Vec<CellRow> = parallel.rows.into_iter().flatten().collect();

    // Untraced serial pass: each cell alone through the executor.
    let mut cell_secs = Vec::with_capacity(cells.len());
    let mut allocs = 0;
    let mut serial_rows = Vec::with_capacity(cells.len());
    for cell in &cells {
        let t0 = Instant::now();
        let out = adapter::run_sweep(
            std::slice::from_ref(cell),
            1,
            Some(crate::alloc::thread_allocs),
        );
        cell_secs.push(t0.elapsed().as_secs_f64());
        allocs += out.work_allocs;
        serial_rows.extend(out.rows.into_iter().flatten());
    }
    let serial_s: f64 = cell_secs.iter().sum();

    // Traced serial pass.
    let mut layers = Layers::default();
    let traced_span = t.spans().len();
    let (traced_rows, digest) = t.span("traced", None, |t| {
        let rows: Vec<CellRow> = cells
            .iter()
            .map(|c| adapter::cell_row(c, traced_cell(t, &mut layers, c)))
            .collect();
        let digest = t.span("report.render", None, |_| {
            adapter::sha256_hex(adapter::sweep_csv(&rows).as_bytes())
        });
        (rows, digest)
    });

    let stored = crate::reference(workload, seed);
    let expected = stored.clone().unwrap_or_else(|| digest.clone());
    let mut failed = 0;
    for rows in [&serial_rows, &parallel_rows, &traced_rows] {
        let d = adapter::sha256_hex(adapter::sweep_csv(rows).as_bytes());
        failed += if d == expected {
            n - rows.len() as u64
                + rows
                    .iter()
                    .filter(|r| !adapter::time_identity_holds(&r.report))
                    .count() as u64
        } else {
            n
        };
    }
    let untraced = Untraced {
        allocs_per_cell: allocs as f64 / n as f64,
        makespan_ratio: parallel_s / (serial_s / crate::SWEEP_THREADS as f64),
        cell_secs,
    };
    let mut m = Metrics::default();
    let fidelity = put_layers(&mut m, &t, traced_span, &layers, &untraced);
    write_spans(&t, workload, seed);
    finish(m, 3 * n, failed, fidelity, digest, stored.is_some())
}

/// The traced run of `engine-stress`.
pub fn traced_engine(seed: u64) -> Outcome {
    let mut t = Tracer::new();
    let trace = crate::stress_setup(seed, &mut t);
    let configs = adapter::stress_configs(&trace, seed);
    let runs = crate::stress_runs(&configs);

    // A warm-up round, then the untraced serial pass: each run once.
    for &(kind, cfg) in &runs {
        std::hint::black_box(adapter::simulate(&trace, kind, cfg));
    }
    let mut cell_secs = Vec::new();
    let mut allocs = 0;
    let mut untraced_reports = Vec::new();
    for &(kind, cfg) in &runs {
        let a0 = crate::alloc::thread_allocs();
        let t0 = Instant::now();
        untraced_reports.push(adapter::simulate(&trace, kind, cfg));
        cell_secs.push(t0.elapsed().as_secs_f64());
        allocs += crate::alloc::thread_allocs() - a0;
    }

    let mut layers = Layers::default();
    let traced_span = t.spans().len();
    let (reports, digest) = t.span("traced", None, |t| {
        let reports: Vec<Report> = runs
            .iter()
            .enumerate()
            .map(|(k, &(kind, cfg))| {
                t.span("cell", Some(k), |t| {
                    traced_run(t, &mut layers, k, &trace, kind, cfg)
                })
            })
            .collect();
        let digest = t.span("report.render", None, |_| {
            adapter::sha256_hex(adapter::reports_csv(&reports).as_bytes())
        });
        (reports, digest)
    });

    let n = runs.len() as u64;
    let stored = crate::reference(Workload::EngineStress, seed);
    let untraced_digest = adapter::sha256_hex(adapter::reports_csv(&untraced_reports).as_bytes());
    let expected = stored.clone().unwrap_or_else(|| digest.clone());
    let mut failed = 0;
    for (d, rs) in [(&untraced_digest, &untraced_reports), (&digest, &reports)] {
        failed += if *d == expected {
            rs.iter()
                .filter(|r| !adapter::time_identity_holds(r))
                .count() as u64
        } else {
            n
        };
    }
    let untraced = Untraced {
        allocs_per_cell: allocs as f64 / n as f64,
        makespan_ratio: 0.0,
        cell_secs,
    };
    let mut m = Metrics::default();
    let fidelity = put_layers(&mut m, &t, traced_span, &layers, &untraced);
    write_spans(&t, Workload::EngineStress, seed);
    finish(m, 2 * n, failed, fidelity, digest, stored.is_some())
}
