//! End-to-end contract of the online hint predictors: predicted-hint
//! sweeps stay byte-identical at every thread count, every predictor ×
//! policy × discipline combination runs clean under the audit probe,
//! the hint columns appear in the CSV only when a predicted source is
//! in the grid, and on a sequential trace the sequential predictor
//! actually closes part of the demand ↔ forestall-on-perfect-hints
//! stall gap.

use parcache_bench::sweep::{
    run_cells_failsoft, sweep_csv, sweep_json, CellRow, CsvGates, FailSoft, SweepEntry, SweepSpec,
};
use parcache_bench::Algo;
use parcache_core::audit::simulate_audited;
use parcache_core::predict::{HintMode, PredictorKind};
use parcache_core::theory::unit_trace;
use parcache_core::{simulate, PolicyKind, SimConfig};
use parcache_disk::sched::Discipline;
use parcache_disk::FaultPlan;
use std::sync::Arc;

/// A small grid over every hint source and every appendix-A policy —
/// big enough to exercise eviction pressure and the predictors' warm-up,
/// small enough to run at three thread counts.
fn predicted_spec() -> SweepSpec {
    SweepSpec {
        entries: vec![
            SweepEntry {
                trace: Arc::new(parcache_trace::synth::synth_trace(2, 150, 11)),
                disks: vec![1, 3],
            },
            SweepEntry {
                trace: Arc::new(parcache_trace::synth::synth_trace(3, 90, 5)),
                disks: vec![2],
            },
        ],
        algos: Algo::APPENDIX_A.to_vec(),
        hints: HintMode::ALL.to_vec(),
    }
}

/// Runs `spec` through the fail-soft executor, requiring every cell.
fn sweep(spec: &SweepSpec, threads: usize) -> Vec<CellRow> {
    let (faults, policy) = (FaultPlan::default(), FailSoft::default());
    run_cells_failsoft(&spec.cells(), threads, false, false, &faults, &policy, None).expect_clean()
}

/// The `--explain` flavor of [`sweep_csv`].
fn explain_csv(rows: &[CellRow]) -> String {
    CsvGates::for_rows(rows, true).document(rows)
}

#[test]
fn predicted_sweeps_are_byte_identical_across_thread_counts() {
    let spec = predicted_spec();
    let serial = sweep(&spec, 1);
    for threads in [2, 4] {
        let threaded = sweep(&spec, threads);
        assert_eq!(
            sweep_csv(&serial),
            sweep_csv(&threaded),
            "{threads} threads"
        );
        assert_eq!(
            explain_csv(&serial),
            explain_csv(&threaded),
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
fn every_predictor_is_audit_clean_across_the_policy_discipline_matrix() {
    // The audit matrix trace from the audit suite: reuse, eviction
    // pressure, and a write-behind tail — now driven by each online
    // predictor instead of the disclosing oracle.
    let t = unit_trace(&[0, 1, 2, 3, 0, 4, 1, 5, 2, 0, 3, 5], 3);
    let disciplines = [
        Discipline::Fcfs,
        Discipline::Cscan,
        Discipline::Scan { ascending: true },
        Discipline::Sstf,
    ];
    for predictor in PredictorKind::ALL {
        for discipline in disciplines {
            for kind in PolicyKind::ALL {
                let cfg = SimConfig::for_trace(2, &t)
                    .with_hint_mode(HintMode::Predicted(predictor))
                    .with_discipline(discipline)
                    .with_write_behind(3);
                let (report, outcome) = simulate_audited(&t, kind, &cfg);
                assert!(
                    outcome.is_clean(),
                    "{kind} / {} / {discipline:?}: {:?}",
                    predictor.name(),
                    outcome.violations
                );
                let stats = report.hints.as_ref().expect("predicted run carries stats");
                assert_eq!(stats.source, predictor.name());
                assert_eq!(stats.references, t.requests.len() as u64);
                // The audit probe must not perturb the simulation.
                assert_eq!(
                    report,
                    simulate(&t, kind, &cfg),
                    "{kind} / {} / {discipline:?}",
                    predictor.name()
                );
            }
        }
    }
}

#[test]
fn hint_columns_appear_only_when_a_predicted_source_is_in_the_grid() {
    let mut oracle_only = predicted_spec();
    oracle_only.hints = Vec::new();
    let plain = sweep(&oracle_only, 2);
    let csv = sweep_csv(&plain);
    assert!(
        !csv.lines().next().unwrap().contains("hints"),
        "oracle-only sweep CSV must keep the historical column set"
    );

    let predicted = sweep(&predicted_spec(), 2);
    let csv = sweep_csv(&predicted);
    assert!(csv.lines().next().unwrap().ends_with(",hints"));
    for mode in HintMode::ALL {
        assert!(
            csv.lines()
                .any(|l| l.ends_with(&format!(",{}", mode.name()))),
            "CSV carries rows for {}",
            mode.name()
        );
    }
    let explain = explain_csv(&predicted);
    assert!(explain
        .lines()
        .next()
        .unwrap()
        .ends_with(",hints,hint_precision,hint_recall"));
    assert!(
        explain.lines().any(|l| l.contains(",oracle,1.0000,1.0000")),
        "oracle rows render as perfect precision/recall"
    );
}

#[test]
fn sequential_predictor_closes_part_of_the_stall_gap_on_a_sequential_trace() {
    // The synthetic trace is sequential loop passes — the sequential
    // predictor's ideal input. Forestall on its predictions must beat
    // plain demand fetching, and perfect (oracle) hints must bound it
    // from below.
    // Long enough that the predictor's cold first epoch (no observations
    // yet, so nothing to extrapolate) is amortized away.
    let t = Arc::new(parcache_trace::synth::synth_trace(4, 1500, 7));
    let cfg = SimConfig::for_trace(4, &t);
    let demand = simulate(&t, PolicyKind::Demand, &cfg);
    let oracle = simulate(&t, PolicyKind::Forestall, &cfg);
    let predicted = simulate(
        &t,
        PolicyKind::Forestall,
        &cfg.clone()
            .with_hint_mode(HintMode::Predicted(PredictorKind::Sequential)),
    );
    let stats = predicted.hints.as_ref().expect("stats are reported");
    assert!(
        stats.precision() > 0.8 && stats.recall() > 0.8,
        "sequential predictor should be accurate on loop passes, got \
         precision {:.4} recall {:.4}",
        stats.precision(),
        stats.recall()
    );
    assert!(
        oracle.stall <= predicted.stall,
        "perfect hints bound the predictor from below: {:?} vs {:?}",
        oracle.stall,
        predicted.stall
    );
    assert!(
        predicted.stall < demand.stall,
        "predicted prefetching must reduce stall below demand fetching: \
         {:?} vs {:?}",
        predicted.stall,
        demand.stall
    );
    // The stall identity survives the predicted-hint path.
    assert_eq!(
        predicted.elapsed,
        predicted.compute + predicted.driver + predicted.stall
    );
}
