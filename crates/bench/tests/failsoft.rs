//! The fail-soft executor's contract, end to end: a clean run matches
//! direct runs of every cell, an injected failure costs exactly its own
//! cell at every thread count, and a manifest-driven resume — through the
//! same splice the CLI renders with — reproduces the uninterrupted
//! document byte for byte (pinned by SHA-256). Also pins the manifest's
//! reject paths — malformed JSON, schema drift, and stale grids all fail
//! typed, never panic.

use parcache_bench::manifest::{
    csv_document, grid_hash, plan_resume, splice, ManifestError, ManifestStatus, SweepManifest,
};
use parcache_bench::sweep::{
    run_cells_failsoft, CellOutcome, CellRow, CsvGates, FailSoft, FailSoftRun, Injection,
    InjectionKind, SweepCell, SweepEntry, SweepSpec,
};
use parcache_bench::{sha256_hex, Algo};
use parcache_core::SimConfig;
use parcache_disk::FaultPlan;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A small grid — two tiny traces, three array sizes, three algorithms —
/// quick enough to run many times per test.
fn small_cells() -> Vec<SweepCell> {
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
    .cells()
}

fn panic_in(cell: usize) -> FailSoft {
    FailSoft {
        inject: Some(Injection {
            cell,
            kind: InjectionKind::Panic,
            times: u32::MAX,
        }),
        ..FailSoft::default()
    }
}

/// The manifest a run writes with nothing carried forward.
fn manifest_of(
    cells: &[SweepCell],
    gates: CsvGates,
    audited: bool,
    run: &FailSoftRun,
) -> SweepManifest {
    SweepManifest {
        grid_hash: grid_hash(cells, &FaultPlan::default()),
        cells: cells.len(),
        gates,
        audited,
        outcomes: splice(cells.len(), gates, HashMap::new(), &run.executions),
    }
}

/// Every cell run directly, one `Algo::run` each: the executor's naive
/// spec.
fn direct_rows(cells: &[SweepCell]) -> Vec<CellRow> {
    cells
        .iter()
        .map(|c| CellRow {
            cell: c.clone(),
            report: c
                .algo
                .run(&c.trace, &SimConfig::for_trace(c.disks, &c.trace)),
            metrics: None,
        })
        .collect()
}

#[test]
fn clean_failsoft_run_matches_the_plain_sweep() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    let gates = CsvGates::for_grid(&cells, &faults, false);
    let plain = gates.document(&direct_rows(&cells));
    let run = run_cells_failsoft(&cells, 2, false, false, &faults, &FailSoft::default(), None);
    assert_eq!(run.failures(), 0);
    assert!(run
        .executions
        .iter()
        .all(|e| e.attempts == 1 && matches!(e.outcome, CellOutcome::Ok(_))));

    // The zero-failure manifest says so, round-tripping exactly, and
    // its spliced document is the plain one.
    let man = manifest_of(&cells, gates, false, &run);
    assert_eq!(man.completed(), cells.len());
    assert_eq!(SweepManifest::parse(&man.to_json()).unwrap(), man);
    assert_eq!(csv_document(gates, &man.outcomes), plain);
    let rows = run.expect_clean();
    assert_eq!(gates.document(&rows), plain);
}

#[test]
fn injected_panic_costs_exactly_its_own_cell_at_every_thread_count() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    let gates = CsvGates::for_grid(&cells, &faults, false);
    let victim = 3;
    let clean = direct_rows(&cells);
    let surviving: String = clean
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, row)| gates.row(row))
        .collect();
    for threads in [1, 2, 4] {
        let run = run_cells_failsoft(
            &cells,
            threads,
            false,
            false,
            &faults,
            &panic_in(victim),
            None,
        );
        assert_eq!(run.failures(), 1, "{threads} threads");
        match &run.executions[victim].outcome {
            CellOutcome::Panicked { msg } => {
                assert!(msg.contains("injected failure in cell 3"), "{msg}")
            }
            other => panic!("expected a panic at cell {victim}, got {other:?}"),
        }
        // The other cells' rows are byte-identical to the clean run's.
        let rows: String = run.rows().map(|r| gates.row(r)).collect();
        assert_eq!(rows, surviving, "{threads} threads");
        // The failure is attributed to exactly one worker.
        assert_eq!(
            run.workers.iter().map(|w| w.failed).sum::<u64>(),
            1,
            "{threads} threads"
        );
    }
}

#[test]
fn resume_reproduces_the_uninterrupted_document_byte_for_byte() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    let gates = CsvGates::for_grid(&cells, &faults, false);
    let hash = grid_hash(&cells, &faults);
    let uninterrupted = gates.document(&direct_rows(&cells));
    let digest = sha256_hex(uninterrupted.as_bytes());

    for threads in [1, 2, 4] {
        // First invocation: cell 5 poisons itself; the rest finish.
        let first = run_cells_failsoft(&cells, threads, false, false, &faults, &panic_in(5), None);
        let man = manifest_of(&cells, gates, false, &first);
        // Second invocation: resume from the (parsed) manifest.
        let man = SweepManifest::parse(&man.to_json()).unwrap();
        let plan = plan_resume(&man, cells.len(), &hash, gates, false).unwrap();
        assert_eq!(plan.to_run, vec![5], "{threads} threads");
        let rerun_cells: Vec<SweepCell> = plan.to_run.iter().map(|&i| cells[i].clone()).collect();
        let second = run_cells_failsoft(
            &rerun_cells,
            threads,
            false,
            false,
            &faults,
            &FailSoft::default(),
            None,
        );
        let spliced = csv_document(
            gates,
            &splice(cells.len(), gates, plan.stored, &second.executions),
        );
        assert_eq!(
            sha256_hex(spliced.as_bytes()),
            digest,
            "{threads} threads: resumed document diverged"
        );
    }
}

#[test]
fn bounded_retry_recovers_a_cell_that_fails_once() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    let policy = FailSoft {
        max_retries: 1,
        inject: Some(Injection {
            cell: 2,
            kind: InjectionKind::Panic,
            times: 1,
        }),
        ..FailSoft::default()
    };
    let run = run_cells_failsoft(&cells, 1, false, false, &faults, &policy, None);
    assert_eq!(run.failures(), 0);
    assert_eq!(run.executions[2].attempts, 2);
    assert!(matches!(run.executions[2].outcome, CellOutcome::Ok(_)));
    assert_eq!(run.workers.iter().map(|w| w.retries).sum::<u64>(), 1);
    // Without the retry budget the same injection is a recorded failure.
    let no_retry = FailSoft {
        max_retries: 0,
        ..policy
    };
    let run = run_cells_failsoft(&cells, 1, false, false, &faults, &no_retry, None);
    assert_eq!(run.failures(), 1);
    assert!(matches!(
        run.executions[2].outcome,
        CellOutcome::Panicked { .. }
    ));
}

#[test]
fn watchdog_times_out_a_hung_cell_and_spares_the_rest() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    // A debug-build cell takes a few milliseconds, and many times that
    // on a loaded machine; the limit must never catch a healthy cell,
    // and the hang must outlast the limit by far.
    let limit = Duration::from_secs(2);
    let policy = FailSoft {
        cell_timeout: Some(limit),
        inject: Some(Injection {
            cell: 1,
            kind: InjectionKind::Hang(Duration::from_secs(60)),
            times: u32::MAX,
        }),
        ..FailSoft::default()
    };
    let run = run_cells_failsoft(&cells, 2, false, false, &faults, &policy, None);
    assert_eq!(run.failures(), 1);
    assert!(
        matches!(run.executions[1].outcome, CellOutcome::TimedOut { limit: l } if l == limit),
        "{:?}",
        run.executions[1].outcome
    );
    // Every other cell still produced its row under the watchdog.
    assert_eq!(run.rows().count(), cells.len() - 1);
}

#[test]
fn fail_fast_skips_undispatched_cells_and_resume_picks_them_up() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    let gates = CsvGates::for_grid(&cells, &faults, false);
    let policy = FailSoft {
        fail_fast: true,
        ..panic_in(0)
    };
    // One thread makes the halt cut deterministic: cell 0 fails, nothing
    // after it is dispatched.
    let run = run_cells_failsoft(&cells, 1, false, false, &faults, &policy, None);
    assert!(matches!(
        run.executions[0].outcome,
        CellOutcome::Panicked { .. }
    ));
    for e in &run.executions[1..] {
        assert!(
            matches!(e.outcome, CellOutcome::Skipped),
            "cell {} should be skipped, got {:?}",
            e.index,
            e.outcome
        );
        assert_eq!(e.attempts, 0);
    }
    assert_eq!(
        run.workers.iter().map(|w| w.skipped).sum::<u64>(),
        (cells.len() - 1) as u64
    );
    // Every skipped (and the failed) cell is in the resume plan.
    let hash = grid_hash(&cells, &faults);
    let man = manifest_of(&cells, gates, false, &run);
    let plan = plan_resume(&man, cells.len(), &hash, gates, false).unwrap();
    assert_eq!(plan.to_run, (0..cells.len()).collect::<Vec<_>>());
}

#[test]
fn audited_failsoft_run_records_verdicts_in_the_manifest() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    let gates = CsvGates::for_grid(&cells, &faults, false);
    let run = run_cells_failsoft(&cells, 2, false, true, &faults, &FailSoft::default(), None);
    assert_eq!(run.failures(), 0);
    assert!(run
        .executions
        .iter()
        .all(|e| e.audit.as_ref().is_some_and(|a| a.is_clean())));
    let hash = grid_hash(&cells, &faults);
    let man = manifest_of(&cells, gates, true, &run);
    assert!(man.outcomes.iter().all(|o| matches!(
        o.status,
        ManifestStatus::Ok {
            audit_clean: Some(true),
            ..
        }
    )));
    // An audited manifest does not resume an unaudited sweep (or vice
    // versa): the verdicts would silently vanish.
    let err = plan_resume(&man, cells.len(), &hash, gates, false).unwrap_err();
    assert!(matches!(err, ManifestError::Stale(_)), "{err}");
}

#[test]
fn malformed_and_stale_manifests_are_rejected_with_typed_errors() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    let gates = CsvGates::for_grid(&cells, &faults, false);
    let hash = grid_hash(&cells, &faults);
    let run = run_cells_failsoft(&cells, 1, false, false, &faults, &FailSoft::default(), None);
    let man = manifest_of(&cells, gates, false, &run);
    let json = man.to_json();

    // Truncation is a parse error carrying the line it died on.
    let truncated = &json[..json.len() / 2];
    match SweepManifest::parse(truncated).unwrap_err() {
        ManifestError::Parse { line, .. } => assert!(line > 1),
        other => panic!("truncated manifest should be a parse error, got {other}"),
    }
    // Well-formed JSON with the wrong shape is a schema error naming
    // the field.
    let err = SweepManifest::parse(r#"{"schema":"parcache-sweep-manifest-v1"}"#).unwrap_err();
    assert!(matches!(err, ManifestError::Schema(_)), "{err}");
    assert!(err.to_string().contains("grid_hash"), "{err}");
    let err = SweepManifest::parse(r#"{"schema":"something-else"}"#).unwrap_err();
    assert!(matches!(err, ManifestError::Schema(_)), "{err}");

    // A manifest from a different grid is stale, not spliceable.
    let err = plan_resume(&man, cells.len(), "0000beef", gates, false).unwrap_err();
    assert!(err.to_string().contains("grid_hash"), "{err}");
    let err = plan_resume(&man, cells.len() + 1, &hash, gates, false).unwrap_err();
    assert!(matches!(err, ManifestError::Stale(_)), "{err}");
    let other_gates = CsvGates::for_grid(&cells, &faults, true);
    let err = plan_resume(&man, cells.len(), &hash, other_gates, false).unwrap_err();
    assert!(matches!(err, ManifestError::Stale(_)), "{err}");

    // Duplicate and out-of-range indices are stale too.
    let mut dup = man.clone();
    dup.outcomes[1].index = 0;
    let err = plan_resume(&dup, cells.len(), &hash, gates, false).unwrap_err();
    assert!(err.to_string().contains("twice"), "{err}");
    let mut oob = man.clone();
    oob.outcomes[0].index = cells.len();
    let err = plan_resume(&oob, cells.len(), &hash, gates, false).unwrap_err();
    assert!(err.to_string().contains("outside"), "{err}");
}

#[test]
fn grid_hash_tracks_grid_content() {
    let cells = small_cells();
    let faults = FaultPlan::default();
    let base = grid_hash(&cells, &faults);
    // Stable across calls…
    assert_eq!(base, grid_hash(&cells, &faults));
    // …but sensitive to the grid: drop a cell, change an array size,
    // or add a fault plan and the hash moves.
    assert_ne!(base, grid_hash(&cells[1..], &faults));
    let mut resized = cells.clone();
    resized[0].disks += 1;
    assert_ne!(base, grid_hash(&resized, &faults));
    let faulty = FaultPlan::parse("flaky:*:0.01,seed:7").unwrap();
    assert_ne!(base, grid_hash(&cells, &faulty));
}
