//! Golden-output regression test.
//!
//! The full appendix-A sweep CSV — 332 cells, every trace × algorithm ×
//! array size — must stay byte-for-byte identical across refactors: the
//! simulator is deterministic, so *any* CSV change means either an
//! intentional model change or an accidental behavioral regression.
//! This test hashes the CSV with the workspace's own SHA-256 and
//! compares against the committed fixture.
//!
//! The sweep takes tens of seconds, so the test is `#[ignore]`d by
//! default; CI runs it explicitly with `-- --ignored`.
//!
//! **Updating the fixture** (only after an intentional model change —
//! see DESIGN.md "Golden outputs"): regenerate with
//!
//! ```sh
//! cargo run --release --bin parcache-run -- --sweep | sha256sum
//! ```
//!
//! and replace the digest in `tests/fixtures/appendix_a_sweep.sha256`,
//! noting the model change in the commit message.
//!
//! Every paper figure's output is pinned the same way, one
//! `<id> <sha256>` line per entry of `figures::FIGURES` in
//! `tests/fixtures/figures.sha256` (also `#[ignore]`d: rendering all of
//! them takes about 20 s). The fixture update procedure is the same; see
//! DESIGN.md "Golden outputs".

use parcache_bench::figures::FIGURES;
use parcache_bench::sweep::{self, FailSoft, SweepCell, SweepEntry, SweepSpec};
use parcache_bench::{best_reverse_search, trace, Algo};
use parcache_core::hints::HintSpec;
use parcache_core::{simulate, HintMode, PolicyKind, Report, SimConfig};
use parcache_disk::FaultPlan;
use std::collections::HashMap;

/// Committed digest of the appendix-A sweep CSV.
const GOLDEN: &str = include_str!("fixtures/appendix_a_sweep.sha256");

#[test]
#[ignore = "full 332-cell sweep; run with -- --ignored (CI does)"]
fn appendix_a_sweep_csv_matches_committed_digest() {
    let cells = SweepSpec::appendix_a(sweep::default_threads()).cells();
    assert_eq!(cells.len(), 332, "appendix-A grid changed size");
    // The users' path (the executor the CLI runs), serially and at the
    // machine's parallelism: the bytes must not depend on either.
    for threads in [1, sweep::default_threads().max(2)] {
        let digest = parcache_bench::sha256_hex(swept_csv(&cells, threads).as_bytes());
        assert_eq!(
            digest,
            GOLDEN.trim(),
            "appendix-A sweep CSV at {threads} thread(s) diverged from the committed \
             golden digest; if this is an intentional model change, follow the \
             fixture update procedure in DESIGN.md (\"Golden outputs\")"
        );
    }
}

/// Committed `<id> <sha256>` digests of every figure's output, in table
/// order.
const FIGURE_DIGESTS: &str = include_str!("fixtures/figures.sha256");

/// The fixture's `(id, digest)` pairs.
fn figure_digests() -> Vec<(&'static str, &'static str)> {
    FIGURE_DIGESTS
        .lines()
        .map(|line| {
            line.split_once(' ')
                .expect("fixture line is `<id> <sha256>`")
        })
        .collect()
}

#[test]
fn figure_ids_are_unique_and_each_has_a_pinned_digest() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate figure id in {ids:?}");
    let pinned: Vec<&str> = figure_digests().into_iter().map(|(id, _)| id).collect();
    assert_eq!(
        ids, pinned,
        "figure table and tests/fixtures/figures.sha256 disagree"
    );
}

#[test]
#[ignore = "renders every figure (about 20 s in release); run with -- --ignored (CI does)"]
fn figure_outputs_match_committed_digests() {
    let pinned: HashMap<&str, &str> = figure_digests().into_iter().collect();
    let diverged: Vec<&str> = FIGURES
        .iter()
        .filter(|f| {
            let digest = parcache_bench::sha256_hex((f.render)().as_bytes());
            pinned.get(f.id) != Some(&digest.as_str())
        })
        .map(|f| f.id)
        .collect();
    assert!(
        diverged.is_empty(),
        "figure outputs diverged from tests/fixtures/figures.sha256: {diverged:?}; \
         if this is an intentional model change, follow the fixture update \
         procedure in DESIGN.md (\"Golden outputs\")"
    );
}

/// The sweep CSV of `cells` run through the fail-soft executor on
/// `threads` workers, requiring every cell.
fn swept_csv(cells: &[SweepCell], threads: usize) -> String {
    let (faults, policy) = (FaultPlan::default(), FailSoft::default());
    let rows = sweep::run_cells_failsoft(cells, threads, false, false, &faults, &policy, None)
        .expect_clean();
    sweep::sweep_csv(&rows)
}

/// Digest of the sweep CSV of two small traces at 1 and 3 disks, the
/// Belady-evicting algorithms, under the oracle and every online
/// predictor:
///
/// ```sh
/// cargo run --release --bin parcache-run -- --sweep dinero,cscope1 \
///     demand,fixed-horizon,aggressive,reverse-aggressive 1,3 \
///     --hints oracle,seq,markov,mithril | awk '/^$/ { exit } { print }' | sha256sum
/// ```
///
/// Forestall is left out: under predicted hints a debug assertion in
/// its stall predictor (`missing entry behind the cursor`) fails on
/// these traces, so the test could not run in debug builds.
const PREDICTED_GOLDEN: &str = "6fd9913202bbddb9ee628cf5071103853551e2a44d79f91bc53c1c82a9a7aa87";

#[test]
fn predicted_hint_sweep_csv_matches_committed_digest() {
    // Predicted oracles guess wrong, which moves Belady keys without a
    // reference to the block; the cache then answers by the keys it last
    // gave, re-keying the stale ones it meets at the top, so this pins
    // that rule (and the tuned search) on that path as well as on the
    // exact-oracle path.
    let spec = SweepSpec {
        entries: ["dinero", "cscope1"]
            .into_iter()
            .map(|name| SweepEntry {
                trace: trace(name),
                disks: vec![1, 3],
            })
            .collect(),
        algos: vec![
            Algo::Demand,
            Algo::FixedHorizon,
            Algo::Aggressive,
            Algo::TunedReverse,
        ],
        hints: HintMode::ALL.to_vec(),
    };
    let digest =
        parcache_bench::sha256_hex(swept_csv(&spec.cells(), sweep::default_threads()).as_bytes());
    assert_eq!(digest, PREDICTED_GOLDEN);
}

/// Digest of the CSV rows of two small traces at 1 and 3 disks under
/// three incomplete oracle-hint specs (per-reference, segment and prefix
/// disclosure), for all five policies at their default parameters plus
/// the tuned reverse-aggressive search. Under partial hints the forward
/// engine's cache keys blocks with the LRU estimate while the reverse
/// pass plans over the exact disclosed sequence, so this pins both key
/// regimes of one run.
const PARTIAL_GOLDEN: &str = "3a4acaeb15a21740a935a023dbccc4f07a8b48c6fd26c5d7c6b0b656db79d617";

#[test]
fn partial_hint_runs_match_committed_digest() {
    let mut csv = String::from(Report::csv_header());
    csv.push('\n');
    for name in ["dinero", "cscope1"] {
        let t = trace(name);
        let specs = [
            HintSpec::Fraction {
                fraction: 0.7,
                seed: 11,
            },
            HintSpec::Segments {
                fraction: 0.6,
                mean_run: 200,
                seed: 11,
            },
            HintSpec::Prefix {
                disclosed: t.requests.len() / 2,
            },
        ];
        for disks in [1, 3] {
            for spec in &specs {
                let cfg = SimConfig::for_trace(disks, &t).with_hints(spec.clone());
                for kind in PolicyKind::ALL {
                    csv.push_str(&simulate(&t, kind, &cfg).to_csv_row());
                    csv.push('\n');
                }
                let (tuned, _) = best_reverse_search(&t, &cfg, sweep::default_threads());
                csv.push_str(&tuned.to_csv_row());
                csv.push('\n');
            }
        }
    }
    let digest = parcache_bench::sha256_hex(csv.as_bytes());
    assert_eq!(digest, PARTIAL_GOLDEN);
}
