//! The audit layer's contract, end to end: every policy × discipline ×
//! disk-model combination runs clean under the audit probe, the audited
//! sweep is a pure observer (byte-identical output), and the differential
//! fuzzer is a deterministic function of its seed.

use parcache_bench::fuzz::fuzz;
use parcache_bench::sweep::{
    run_cells_failsoft, sweep_csv, sweep_json, CellRow, FailSoft, SweepCell, SweepEntry, SweepSpec,
};
use parcache_bench::Algo;
use parcache_core::audit::simulate_audited;
use parcache_core::config::DiskModelKind;
use parcache_core::theory::unit_trace;
use parcache_core::{simulate, PolicyKind, SimConfig};
use parcache_disk::sched::Discipline;
use parcache_disk::FaultPlan;
use parcache_types::Nanos;
use std::sync::Arc;

const DISCIPLINES: [Discipline; 4] = [
    Discipline::Fcfs,
    Discipline::Cscan,
    Discipline::Scan { ascending: true },
    Discipline::Sstf,
];

const MODELS: [DiskModelKind; 4] = [
    DiskModelKind::Uniform(Nanos::from_millis(2)),
    DiskModelKind::Coarse,
    DiskModelKind::Hp97560,
    DiskModelKind::Hp97560NoReadahead,
];

/// Runs `cells` through the fail-soft executor, requiring every cell to
/// finish and, when `audited`, every cell's audit to come back clean.
fn sweep(cells: &[SweepCell], threads: usize, audited: bool, faults: &FaultPlan) -> Vec<CellRow> {
    let policy = FailSoft::default();
    let run = run_cells_failsoft(cells, threads, false, audited, faults, &policy, None);
    for e in run.executions.iter().filter(|_| audited) {
        let audit = e.audit.as_ref().expect("an audited cell carries a verdict");
        assert!(audit.is_clean(), "cell {}: {:?}", e.index, audit.violations);
        assert!(audit.events > 0, "the audit probe saw the event stream");
    }
    run.expect_clean()
}

#[test]
fn audit_is_clean_across_the_full_feature_matrix() {
    // A reference string with reuse, eviction pressure (cache 3 over 6
    // distinct blocks), and a tail that leaves write-behind work pending.
    let t = unit_trace(&[0, 1, 2, 3, 0, 4, 1, 5, 2, 0, 3, 5], 3);
    for discipline in DISCIPLINES {
        for model in MODELS {
            for kind in PolicyKind::ALL {
                let cfg = SimConfig::for_trace(2, &t)
                    .with_discipline(discipline)
                    .with_disk_model(model)
                    .with_write_behind(3);
                let (report, outcome) = simulate_audited(&t, kind, &cfg);
                assert!(
                    outcome.is_clean(),
                    "{kind} / {discipline:?} / {model:?}: {:?}",
                    outcome.violations
                );
                // The audit probe must not perturb the simulation.
                assert_eq!(report, simulate(&t, kind, &cfg), "{kind} / {discipline:?}");
            }
        }
    }
}

#[test]
fn audited_sweep_is_byte_identical_to_unaudited() {
    let spec = SweepSpec {
        entries: vec![SweepEntry {
            trace: Arc::new(parcache_trace::synth::synth_trace(2, 120, 9)),
            disks: vec![1, 3],
        }],
        algos: vec![Algo::Demand, Algo::Aggressive, Algo::TunedReverse],
        hints: Vec::new(),
    };
    let cells = spec.cells();
    let plain = sweep(&cells, 2, false, &FaultPlan::default());
    let audited = sweep(&cells, 2, true, &FaultPlan::default());
    assert_eq!(sweep_csv(&plain), sweep_csv(&audited));
    assert_eq!(sweep_json(&plain), sweep_json(&audited));
}

#[test]
fn audit_is_clean_across_the_feature_matrix_under_faults() {
    // The full discipline × model matrix again, this time with media
    // errors, a fail-slow window, and an outage active. Every
    // conservation law — including the fault identities — must hold, and
    // the audited rerun must still be a pure observer.
    let t = unit_trace(&[0, 1, 2, 3, 0, 4, 1, 5, 2, 0, 3, 5], 3);
    let plan = FaultPlan::parse("flaky:*:0.2,slow:0:1:30:2,outage:1:2:20,seed:5")
        .expect("fault spec parses");
    for discipline in DISCIPLINES {
        for model in MODELS {
            for kind in PolicyKind::ALL {
                let cfg = SimConfig::for_trace(2, &t)
                    .with_discipline(discipline)
                    .with_disk_model(model)
                    .with_write_behind(3)
                    .with_faults(plan.clone());
                let (report, outcome) = simulate_audited(&t, kind, &cfg);
                assert!(
                    outcome.is_clean(),
                    "{kind} / {discipline:?} / {model:?}: {:?}",
                    outcome.violations
                );
                let f = report.fault.as_ref().expect("faulted run carries summary");
                assert_eq!(
                    f.faults_injected,
                    f.retries + f.abandoned,
                    "{kind} / {discipline:?} / {model:?}"
                );
                assert_eq!(report, simulate(&t, kind, &cfg), "{kind} / {discipline:?}");
            }
        }
    }
}

fn faulted_spec() -> (SweepSpec, FaultPlan) {
    let spec = SweepSpec {
        entries: vec![SweepEntry {
            trace: Arc::new(parcache_trace::synth::synth_trace(2, 120, 9)),
            disks: vec![1, 3],
        }],
        algos: vec![Algo::Demand, Algo::Aggressive, Algo::TunedReverse],
        hints: Vec::new(),
    };
    let plan =
        FaultPlan::parse("flaky:*:0.05,slow:0:0:200:2,outage:0:50:120,seed:3").expect("parses");
    (spec, plan)
}

#[test]
fn faulted_sweep_is_deterministic_and_audits_clean() {
    let (spec, plan) = faulted_spec();
    let cells = spec.cells();
    let serial = sweep(&cells, 1, false, &plan);
    let threaded = sweep(&cells, 4, false, &plan);
    // Byte-identity at any thread count, with fault columns present.
    assert_eq!(sweep_csv(&serial), sweep_csv(&threaded));
    assert_eq!(sweep_json(&serial), sweep_json(&threaded));
    let csv = sweep_csv(&serial);
    let header = csv.lines().next().unwrap();
    assert!(header.ends_with(",faults_injected,retries,abandoned,degraded_s,availability"));
    let audited = sweep(&cells, 2, true, &plan);
    assert_eq!(csv, sweep_csv(&audited));
}

#[test]
fn empty_fault_plan_is_byte_identical_to_the_plain_path() {
    // `--faults` with an empty plan must not change a single output byte
    // relative to the pre-fault code path.
    let (spec, _) = faulted_spec();
    let cells = spec.cells();
    let plain = sweep(&cells, 2, false, &FaultPlan::default());
    let empty = sweep(&cells, 2, false, &FaultPlan::parse("").expect("parses"));
    assert_eq!(sweep_csv(&plain), sweep_csv(&empty));
    assert_eq!(sweep_json(&plain), sweep_json(&empty));
    assert!(sweep_csv(&empty).starts_with(&format!("{}\n", parcache_core::Report::csv_header())));
    assert!(!sweep_json(&empty).contains("\"fault\""));
}

#[test]
fn fuzzer_is_a_pure_function_of_its_seed() {
    let a = fuzz(1996, 10, 1);
    let b = fuzz(1996, 10, 3);
    assert_eq!(a, b, "thread count must not change the verdicts");
    assert!(a.is_clean(), "{:#?}", a.failures.first());
    assert_ne!(a.fingerprint, fuzz(1997, 10, 1).fingerprint);
}
