//! Byte identity of every JSON document the tool writes.
//!
//! Each document below is rendered (through the `parcache-run` binary,
//! or in process on constructed values with fixed durations) and hashed
//! with the workspace's SHA-256; `tests/fixtures/json.sha256` pins one
//! `<name> <sha256>` line per document. The fixture was generated from
//! the code before the shared `parcache_core::json` writer existed, so a
//! pass proves the writer emits the same bytes the hand-built documents
//! did.
//!
//! On a mismatch the failure message prints the whole fixture as the
//! current code renders it. The CLI runs take about 45 s in a debug
//! build, so the digest test is `#[ignore]`d; CI runs it in release:
//!
//! ```sh
//! cargo test --release -p parcache-bench --test json -- --ignored
//! ```

use parcache_bench::bench::{self, EngineBench, Stage, SweepBench};
use parcache_bench::manifest::{ManifestCell, ManifestStatus, SweepManifest};
use parcache_bench::prof::{EffectiveParallelism, WorkerStats};
use parcache_bench::sha256_hex;
use parcache_bench::sweep::CsvGates;
use parcache_core::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// Committed `<name> <sha256>` digests, one line per document.
const DIGESTS: &str = include_str!("fixtures/json.sha256");

/// The fault plan the faulted documents run under.
const FAULTS: &str = "flaky:*:0.05,outage:1:100:600,seed:9";

/// Runs the CLI with `args` and returns its stdout; panics on a nonzero
/// exit.
fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_parcache-run"))
        .args(args)
        .output()
        .expect("run parcache-run");
    assert!(
        out.status.success(),
        "parcache-run {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// A fresh scratch directory for the CLI's file outputs.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parcache-json-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn stage(units: u64, wall: Duration, allocations: Option<u64>, harness: Option<u64>) -> Stage {
    Stage {
        units,
        wall,
        allocations,
        harness_allocations: harness,
    }
}

/// Every document through the CLI.
fn cli_documents() -> Vec<(&'static str, String)> {
    let dir = scratch("cli");
    let events = dir.join("events.jsonl");
    let out = dir.join("sweep.csv");
    cli(&[
        "synth",
        "forestall",
        "2",
        "--faults",
        FAULTS,
        "--events",
        events.to_str().unwrap(),
    ]);
    cli(&[
        "--sweep",
        "synth",
        "all",
        "1,2",
        "--out",
        out.to_str().unwrap(),
    ]);
    let docs = vec![
        ("single", cli(&["synth", "all", "1,2", "--json", "--hist"])),
        (
            "single_faulted",
            cli(&[
                "synth", "all", "1,2", "--json", "--hist", "--faults", FAULTS,
            ]),
        ),
        (
            "single_markov",
            cli(&[
                "synth", "all", "1,2", "--json", "--hist", "--hints", "markov",
            ]),
        ),
        (
            "events_faulted",
            std::fs::read_to_string(&events).expect("event log"),
        ),
        (
            "sweep",
            cli(&["--sweep", "synth", "all", "1,2", "--json", "--hist"]),
        ),
        (
            "manifest",
            std::fs::read_to_string(dir.join("sweep.csv.manifest.json")).expect("manifest"),
        ),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    docs
}

/// Every document rendered in process from constructed values.
fn library_documents() -> Vec<(&'static str, String)> {
    let ms = Duration::from_millis;
    let sweep = SweepBench {
        parallelism: EffectiveParallelism {
            available: 4,
            cgroup_quota: Some(1.5),
            effective: 1.5,
        },
        smoke: stage(92, ms(1423), Some(520_490), Some(2)),
        smoke_scaling: Some(stage(92, Duration::from_micros(812_345), None, None)),
        scaling: vec![
            (1, stage(332, ms(12_906), Some(2_720_244), Some(2))),
            (2, stage(332, ms(7_001), Some(2_720_244), Some(9))),
        ],
    };
    let sweep_plain = SweepBench {
        parallelism: EffectiveParallelism {
            available: 1,
            cgroup_quota: None,
            effective: 1.0,
        },
        smoke: stage(5, Duration::from_micros(400), None, None),
        smoke_scaling: None,
        scaling: Vec::new(),
    };
    let engine = EngineBench {
        requests: 240_000,
        runs: vec![
            ("demand", stage(1_794_561, ms(145), Some(114), None)),
            ("aggressive", stage(2_156_513, ms(319), None, None)),
            (
                "reverse-aggressive",
                stage(
                    1_482_041,
                    Duration::from_nanos(281_999_999),
                    Some(388),
                    None,
                ),
            ),
        ],
        gap: vec![2.0, 3.0],
    };
    let worker = WorkerStats {
        items: 12,
        busy_us: 9_000,
        wall_us: 10_500,
        work_allocs: 777,
        failed: 1,
        skipped: 2,
        retries: 3,
    };
    let manifest = SweepManifest {
        grid_hash: "0123456789abcdef".into(),
        cells: 5,
        gates: CsvGates {
            faulted: true,
            hinted: false,
            explain: true,
        },
        audited: true,
        outcomes: vec![
            ManifestCell {
                index: 0,
                attempts: 1,
                status: ManifestStatus::Ok {
                    row: "synth,demand,1,0.123".into(),
                    audit_clean: Some(true),
                },
            },
            ManifestCell {
                index: 1,
                attempts: 1,
                status: ManifestStatus::Ok {
                    row: "synth,forestall,2,0.5".into(),
                    audit_clean: None,
                },
            },
            ManifestCell {
                index: 2,
                attempts: 3,
                status: ManifestStatus::Panicked {
                    panic: "bad \"quoted\" C:\\path\nsecond line\ttab".into(),
                },
            },
            ManifestCell {
                index: 3,
                attempts: 2,
                status: ManifestStatus::TimedOut { timeout_ms: 250 },
            },
            ManifestCell {
                index: 4,
                attempts: 0,
                status: ManifestStatus::Skipped,
            },
        ],
    };
    let empty_manifest = SweepManifest {
        outcomes: Vec::new(),
        ..manifest.clone()
    };
    vec![
        ("sweep_bench", bench::sweep_bench_json(&sweep)),
        ("sweep_bench_plain", bench::sweep_bench_json(&sweep_plain)),
        ("engine_bench", bench::engine_bench_json(&engine)),
        ("worker_stats", worker.to_json()),
        ("worker_stats_default", WorkerStats::default().to_json()),
        ("parallelism", sweep.parallelism.to_json()),
        ("parallelism_unbounded", sweep_plain.parallelism.to_json()),
        ("manifest_every_status", manifest.to_json()),
        ("manifest_empty", empty_manifest.to_json()),
    ]
}

#[test]
#[ignore = "runs the CLI six times (about 45 s in debug); run with -- --ignored (CI does)"]
fn every_json_document_matches_its_committed_digest() {
    let docs: Vec<(&str, String)> = cli_documents()
        .into_iter()
        .chain(library_documents())
        .collect();
    let rendered: String = docs
        .iter()
        .map(|(name, doc)| format!("{name} {}\n", sha256_hex(doc.as_bytes())))
        .collect();
    assert_eq!(
        rendered, DIGESTS,
        "JSON documents diverged from tests/fixtures/json.sha256; the current \
         code renders:\n{rendered}"
    );
}

/// The `--profile` document's values vary run to run, so it is checked
/// for shape rather than pinned: it parses, and carries the wall clock,
/// the per-worker stats and the span table.
#[test]
fn profile_document_parses_with_wall_workers_and_spans() {
    let dir = scratch("profile");
    let path = dir.join("profile.json");
    cli(&[
        "--sweep",
        "synth",
        "fixed-horizon",
        "1",
        "--threads",
        "2",
        "--profile",
        path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&path).expect("profile document");
    let _ = std::fs::remove_dir_all(&dir);
    let doc = json::parse(&text).expect("profile document parses");
    assert!(doc.get::<u64>("wall_us").is_some(), "{text}");
    let workers: &[Json] = doc.get("workers").expect("workers array");
    assert!(!workers.is_empty(), "{text}");
    for w in workers {
        assert!(w.get::<u64>("items").is_some(), "{text}");
    }
    let spans: &[Json] = doc.get("spans").expect("spans array");
    assert!(
        spans.iter().all(|s| s.get::<&str>("path").is_some()),
        "{text}"
    );
}
