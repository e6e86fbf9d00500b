//! Determinism contract of the multi-threaded sweep engine: the same
//! specification produces byte-identical output at every thread count,
//! and every cell matches what a direct `Algo::run` computes on its own
//! (the executor's naive spec).

use parcache_bench::sweep::{
    run_cells_failsoft, sweep_csv, sweep_json, CellRow, FailSoft, SweepEntry, SweepSpec,
};
use parcache_bench::Algo;
use parcache_core::SimConfig;
use parcache_disk::FaultPlan;
use std::sync::Arc;

/// A small grid — two tiny traces, three array sizes, three algorithms
/// (including the tuned reverse search) — that still exercises every
/// sweep code path.
fn small_spec() -> SweepSpec {
    let a = Arc::new(parcache_trace::synth::synth_trace(2, 150, 11));
    let b = Arc::new(parcache_trace::synth::synth_trace(3, 90, 5));
    SweepSpec {
        entries: vec![
            SweepEntry {
                trace: a,
                disks: vec![1, 3],
            },
            SweepEntry {
                trace: b,
                disks: vec![2],
            },
        ],
        algos: vec![Algo::Demand, Algo::Aggressive, Algo::TunedReverse],
        hints: Vec::new(),
    }
}

/// Runs `spec` through the fail-soft executor, requiring every cell.
fn sweep(spec: &SweepSpec, threads: usize, probed: bool) -> Vec<CellRow> {
    let (faults, policy) = (FaultPlan::default(), FailSoft::default());
    run_cells_failsoft(
        &spec.cells(),
        threads,
        probed,
        false,
        &faults,
        &policy,
        None,
    )
    .expect_clean()
}

#[test]
fn sweep_output_is_byte_identical_across_thread_counts() {
    let spec = small_spec();
    let serial = sweep(&spec, 1, false);
    for threads in [2, 4] {
        let threaded = sweep(&spec, threads, false);
        assert_eq!(
            sweep_csv(&serial),
            sweep_csv(&threaded),
            "{threads} threads"
        );
        assert_eq!(
            sweep_json(&serial),
            sweep_json(&threaded),
            "{threads} threads"
        );
    }
}

#[test]
fn probed_sweep_output_is_byte_identical_across_thread_counts() {
    let spec = small_spec();
    let serial = sweep(&spec, 1, true);
    let threaded = sweep(&spec, 4, true);
    // The probed JSON covers counters, histograms, and per-disk
    // timelines, so this pins the full metrics pipeline, not just the
    // headline report.
    assert_eq!(sweep_json(&serial), sweep_json(&threaded));
}

#[test]
fn sweep_cells_match_serial_runs_exactly() {
    let spec = small_spec();
    let outcomes = sweep(&spec, 4, false);
    assert_eq!(outcomes.len(), 9);
    for o in &outcomes {
        let cfg = SimConfig::for_trace(o.cell.disks, &o.cell.trace);
        let expected = o.cell.algo.run(&o.cell.trace, &cfg);
        assert_eq!(
            o.report,
            expected,
            "{} on {} disks",
            o.cell.algo.name(),
            o.cell.disks
        );
    }
}

#[test]
fn probed_sweep_reports_match_unprobed_and_carry_metrics() {
    let spec = small_spec();
    let plain = sweep(&spec, 2, false);
    let probed = sweep(&spec, 2, true);
    assert_eq!(plain.len(), probed.len());
    for (a, b) in plain.iter().zip(&probed) {
        // Attaching a probe must not change the simulation.
        assert_eq!(a.report, b.report);
        assert!(a.metrics.is_none());
        let m = b.metrics.as_ref().expect("probed cells carry metrics");
        assert_eq!(m.counters.fetches_issued, b.report.fetches);
        assert_eq!(m.per_disk.len(), b.cell.disks);
    }
}
