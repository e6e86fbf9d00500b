//! A differential trace fuzzer for the simulator and its audit layer.
//!
//! The fuzzer generates small random traces and configurations covering
//! the whole feature matrix — every policy, every head-scheduling
//! discipline, every disk model, write-behind, partial hints — then runs
//! each combination twice: once plain and once under the
//! `AuditProbe`. A case fails when
//! the audit finds an invariant violation, or when the audited rerun's
//! [`Report`] differs from the plain run's (the audit must be a pure
//! observer). On top of the per-case differential check, a fold of every
//! report into a single order-sensitive fingerprint lets tests assert
//! end-to-end determinism: same seed ⇒ same [`FuzzReport`], at any
//! worker-thread count.
//!
//! Everything is seeded through the workspace's own xoshiro generator
//! ([`parcache_types::rng::Rng`]); case generation happens serially up
//! front so the case list — and therefore the whole fuzz run — is a pure
//! function of the seed, while execution fans out through the sweep
//! engine's deterministic [`run_indexed`] scheduler.

use crate::runner::{best_reverse_search, reverse_grid};
use crate::sweep::run_indexed;
use parcache_core::audit::audit_rerun;
use parcache_core::config::{DiskModelKind, RetryPolicy};
use parcache_core::engine::Report;
use parcache_core::hints::HintSpec;
use parcache_core::policy::PolicyKind;
use parcache_core::predict::{HintMode, PredictorKind};
use parcache_core::{simulate, SimConfig};
use parcache_disk::sched::Discipline;
use parcache_disk::FaultPlan;
use parcache_trace::{Request, Trace};
use parcache_types::rng::Rng;
use parcache_types::{BlockId, Nanos};

/// One generated case: a trace plus the configuration to run it under.
/// Every [`PolicyKind`] is exercised against each case.
#[derive(Debug, Clone)]
pub(crate) struct FuzzCase {
    /// Case number within the run (also the trace name suffix).
    pub index: usize,
    /// The generated reference string.
    pub trace: Trace,
    /// The generated run parameters.
    pub config: SimConfig,
}

/// One failed policy-run within a case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFailure {
    /// Index of the failing `FuzzCase`.
    pub case: usize,
    /// The policy that failed on it.
    pub policy: PolicyKind,
    /// What went wrong: each line is either an audit violation or a
    /// description of an audited/unaudited report divergence.
    pub details: Vec<String>,
}

/// The outcome of a fuzz run. Two runs with the same seed and case count
/// compare equal regardless of the thread count used to execute them.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// The seed the run was generated from.
    pub seed: u64,
    /// Number of cases generated (each runs all policies).
    pub cases: usize,
    /// Total policy-runs executed (`cases * PolicyKind::ALL.len()`).
    pub runs: usize,
    /// Every failing policy-run, in case order.
    pub failures: Vec<FuzzFailure>,
    /// An order-sensitive FNV-style fold of every report produced, for
    /// cheap determinism assertions across seeds and thread counts.
    pub fingerprint: u64,
}

impl FuzzReport {
    /// True when no case produced an audit violation or a divergence.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fuzz seed {}: {} cases, {} runs, {} failures, fingerprint {:016x}",
            self.seed,
            self.cases,
            self.runs,
            self.failures.len(),
            self.fingerprint
        )
    }
}

/// The scheduling disciplines the fuzzer cycles through. `Scan`'s
/// direction bit is run-time state, so starting ascending covers both
/// directions on any trace that crosses the head.
const DISCIPLINES: [Discipline; 4] = [
    Discipline::Fcfs,
    Discipline::Cscan,
    Discipline::Scan { ascending: true },
    Discipline::Sstf,
];

/// The paper traces whose windows predicted-hint cases draw.
const WINDOW_TRACES: [&str; 3] = ["ld", "cscope1", "xds"];

/// The paper traces of [`WINDOW_TRACES`], generated once per process
/// with the harness seed.
fn window_traces() -> &'static [Trace] {
    static TRACES: std::sync::OnceLock<Vec<Trace>> = std::sync::OnceLock::new();
    TRACES.get_or_init(|| {
        WINDOW_TRACES
            .iter()
            .map(|n| parcache_trace::trace_by_name(n, crate::SEED).expect("paper trace"))
            .collect()
    })
}

/// A window of one of the [`WINDOW_TRACES`], drawn from `rng`: a few
/// hundred to a few thousand consecutive references, under a cache a
/// fraction of the paper's. Small synthetic traces never let the cursor
/// pass a predictor's wrong guess with a stall verdict cached on it;
/// stretches of the real reference strings do.
fn paper_window(rng: &mut Rng, index: usize) -> Trace {
    let traces = window_traces();
    let full = &traces[rng.gen_range(0..traces.len())];
    let len = rng.gen_range(300usize..=3000).min(full.requests.len());
    let start = rng.gen_range(0..=full.requests.len() - len);
    let cache = (full.cache_blocks / rng.gen_range(1usize..=8)).max(2);
    Trace::new(
        format!("fuzz-{index}-{}", full.name),
        full.requests[start..start + len].to_vec(),
        cache,
    )
}

/// Whether case `index` runs under a predicted hint source (see the
/// period-7 cycle in [`gen_case`]).
fn predicted_case(index: usize) -> bool {
    matches!(index % 7, 0 | 2 | 3)
}

/// Generates the case for `index`, consuming `rng` deterministically.
/// Discipline and disk model cycle with the index (guaranteed coverage
/// even for tiny runs); everything else is drawn at random. Half the
/// predicted-hint cases replace the synthetic trace with a
/// [`paper_window`] drawn from `windows`, a stream of its own, so every
/// draw from `rng` — and every oracle case — is as it would be without
/// them.
fn gen_case(rng: &mut Rng, windows: &mut Rng, index: usize) -> FuzzCase {
    let blocks = rng.gen_range(1u64..=12);
    let refs = rng.gen_range(1usize..=40);
    let requests: Vec<Request> = (0..refs)
        .map(|_| Request {
            block: BlockId(rng.gen_range(0..blocks)),
            compute: Nanos::from_micros(rng.gen_range(0u64..=2000)),
        })
        .collect();
    let mut trace = Trace::new(format!("fuzz-{index}"), requests, rng.gen_range(2usize..=8));
    if predicted_case(index) && windows.gen_bool(0.5) {
        trace = paper_window(windows, index);
    }

    let disks = rng.gen_range(1usize..=4);
    let mut config =
        SimConfig::for_trace(disks, &trace).with_discipline(DISCIPLINES[index % DISCIPLINES.len()]);
    config.disk_model = match index % 3 {
        0 => DiskModelKind::Uniform(Nanos::from_micros(rng.gen_range(100u64..=5000))),
        1 => DiskModelKind::Coarse,
        _ => DiskModelKind::Hp97560,
    };
    config.driver_overhead = if rng.gen_bool(0.5) {
        Nanos::from_micros(500)
    } else {
        Nanos::ZERO
    };
    config.write_behind_period = if rng.gen_bool(0.4) {
        Some(rng.gen_range(1usize..=4))
    } else {
        None
    };
    config.hints = match rng.gen_range(0usize..3) {
        0 => HintSpec::Full,
        1 => HintSpec::Fraction {
            fraction: 0.5,
            seed: rng.next_u64(),
        },
        _ => HintSpec::None,
    };
    // Hint sources cycle by index with period 7 rather than drawing from
    // the rng: inserting a draw here would shift every later draw and
    // invalidate the pinned (seed, index) reproducer cases below. Four
    // of seven cases stay on the oracle source (including all current
    // pinned indices, which fall on residues 1, 4, and 6); the other
    // three cover each online predictor, deliberately combined with
    // whatever `hints` spec was drawn above — Predicted mode must ignore
    // it, and the audit verifies the combination stays lawful.
    config.hint_mode = match index % 7 {
        0 => HintMode::Predicted(PredictorKind::Sequential),
        2 => HintMode::Predicted(PredictorKind::Markov),
        3 => HintMode::Predicted(PredictorKind::Mithril),
        _ => HintMode::Oracle,
    };
    debug_assert_eq!(predicted_case(index), config.hint_mode != HintMode::Oracle);
    // Small batches/horizons exercise the policies' do-no-harm edges on
    // traces this short; the paper's defaults would reduce every case to
    // one batch.
    config.horizon = rng.gen_range(1usize..=8);
    config.batch_size = rng.gen_range(1usize..=4);
    config.reverse_fetch_estimate = rng.gen_range(1u64..=8);
    config.reverse_batch_size = rng.gen_range(1usize..=4);

    // Fault dimension: roughly half the cases run under a non-empty
    // deterministic fault plan (transient media errors, a fail-slow
    // window, an outage — in any combination), with the driver's retry
    // policy randomized alongside it.
    if rng.gen_bool(0.5) {
        let mut parts: Vec<String> = Vec::new();
        if rng.gen_bool(0.6) {
            let p = rng.gen_range(1u64..=30) as f64 / 100.0;
            parts.push(format!("flaky:*:{p}"));
        }
        if rng.gen_bool(0.5) {
            let d = rng.gen_range(0usize..disks);
            let from = rng.gen_range(0u64..=50);
            let until = from + rng.gen_range(1u64..=50);
            let factor = rng.gen_range(2u64..=4);
            parts.push(format!("slow:{d}:{from}:{until}:{factor}"));
        }
        if rng.gen_bool(0.5) {
            let d = rng.gen_range(0usize..disks);
            let from = rng.gen_range(0u64..=50);
            let until = from + rng.gen_range(1u64..=30);
            parts.push(format!("outage:{d}:{from}:{until}"));
        }
        if parts.is_empty() {
            parts.push("flaky:*:0.1".to_string());
        }
        parts.push(format!("seed:{}", rng.next_u64()));
        let plan = FaultPlan::parse(&parts.join(",")).expect("generated fault spec is valid");
        config = config.with_faults(plan).with_retry(RetryPolicy {
            max_retries: rng.gen_range(1u64..=6) as u32,
            backoff: Nanos::from_micros(rng.gen_range(100u64..=2000)),
            backoff_cap: Nanos::from_millis(rng.gen_range(4u64..=64)),
            timeout: if rng.gen_bool(0.3) {
                Some(Nanos::from_millis(rng.gen_range(1u64..=50)))
            } else {
                None
            },
        });
    }

    FuzzCase {
        index,
        trace,
        config,
    }
}

/// Generates the full deterministic case list for a seed.
pub(crate) fn gen_cases(seed: u64, cases: usize) -> Vec<FuzzCase> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut windows = Rng::seed_from_u64(seed ^ 0x7061_7065_7277_696e);
    (0..cases)
        .map(|i| gen_case(&mut rng, &mut windows, i))
        .collect()
}

/// One FNV-1a-style mixing step.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds a report into the running fingerprint, field by field.
fn fingerprint_report(mut h: u64, r: &Report) -> u64 {
    for b in r.trace.bytes().chain(r.policy.bytes()) {
        h = mix(h, b as u64);
    }
    h = mix(h, r.disks as u64);
    h = mix(h, r.elapsed.as_nanos());
    h = mix(h, r.compute.as_nanos());
    h = mix(h, r.driver.as_nanos());
    h = mix(h, r.stall.as_nanos());
    for &cause in &parcache_core::probe::StallCause::ALL {
        h = mix(h, r.stall_by_cause.get(cause).as_nanos());
    }
    h = mix(h, r.fetches);
    h = mix(h, r.writes);
    h = mix(h, r.avg_fetch_time.as_nanos());
    h = mix(h, r.avg_disk_utilization.to_bits());
    for d in &r.per_disk {
        h = mix(h, d.served);
        h = mix(h, d.busy.as_nanos());
        h = mix(h, d.failed);
    }
    if let Some(f) = &r.fault {
        h = mix(h, f.faults_injected);
        h = mix(h, f.retries);
        h = mix(h, f.abandoned);
        for &d in &f.per_disk_degraded {
            h = mix(h, d.as_nanos());
        }
        h = mix(h, f.availability.to_bits());
    }
    if let Some(s) = &r.hints {
        for b in s.source.bytes() {
            h = mix(h, b as u64);
        }
        h = mix(h, s.predicted);
        h = mix(h, s.correct);
        h = mix(h, s.references);
    }
    h
}

/// Runs one case under one policy: the plain run, the audited rerun, and
/// the differential checks. Returns what went wrong (empty when clean)
/// plus the plain report for fingerprinting.
///
/// With `differential`, forestall cases run a third time on the naive
/// full-rescan stall predictor (`SimConfig::forestall_naive_scan`) and
/// any report divergence from the incremental predictor is a failure.
/// The extra run consumes no rng draws (case generation is untouched)
/// and is excluded from the fingerprint, so a differential campaign
/// reproduces the exact cases — and fingerprint — of a plain one.
fn run_policy(case: &FuzzCase, kind: PolicyKind, differential: bool) -> (Vec<String>, Report) {
    let plain = simulate(&case.trace, kind, &case.config);
    let mut details = audit_rerun(&case.trace, kind, &case.config, &plain).lines();
    if differential && kind == PolicyKind::Forestall {
        let mut naive_config = case.config.clone();
        naive_config.forestall_naive_scan = true;
        let naive = simulate(&case.trace, kind, &naive_config);
        if naive != plain {
            details.push(format!(
                "naive stall predictor diverged from incremental: \
                 elapsed {} vs {}, fetches {} vs {}, stall {} vs {}",
                naive.elapsed,
                plain.elapsed,
                naive.fetches,
                plain.fetches,
                naive.stall,
                plain.stall
            ));
        }
    }
    // Stall provenance conservation, checked directly on the plain
    // (unprobed) report too: the audit enforces it against the event
    // stream, but the property must hold with no probe attached.
    let attributed = plain.stall_by_cause.total();
    if attributed != plain.stall {
        details.push(format!(
            "per-cause stall {attributed} != report stall {} on the unprobed run",
            plain.stall
        ));
    }
    (details, plain)
}

/// Runs one case under every policy; returns the failures plus the
/// case's report fingerprint contribution (seeded with `FNV_OFFSET` so
/// per-case hashes can be folded associatively by the caller in index
/// order).
///
/// Each policy-run sits behind its own `catch_unwind`: a panicking
/// simulation becomes a recorded [`FuzzFailure`] (with the panic payload
/// folded into the fingerprint, deterministically), and the remaining
/// policies and cases keep running — a 10,000-case campaign reports one
/// poisoned combination instead of dying on it.
///
/// With `differential`, the case's tuned reverse-aggressive search also
/// runs three ways — the pruned shared-state search on one and on four
/// threads, and [`naive_reverse_search`] — and any difference in the
/// winning report or configuration is a failure. None of the runs enters
/// the fingerprint.
fn run_case(case: &FuzzCase, differential: bool) -> (Vec<FuzzFailure>, u64) {
    let mut failures = Vec::new();
    if differential {
        let result = std::panic::catch_unwind(|| {
            let naive = naive_reverse_search(&case.trace, &case.config);
            [1, 4].into_iter().find_map(|threads| {
                let fast = best_reverse_search(&case.trace, &case.config, threads);
                (fast != naive).then(|| {
                    format!(
                        "tuned search at {threads} threads diverged from eight independent \
                         runs: elapsed {} vs {}, F̂ {} vs {}, batch {} vs {}",
                        fast.0.elapsed,
                        naive.0.elapsed,
                        fast.1.reverse_fetch_estimate,
                        naive.1.reverse_fetch_estimate,
                        fast.1.reverse_batch_size,
                        naive.1.reverse_batch_size
                    )
                })
            })
        });
        let detail = match result {
            Ok(diverged) => diverged,
            Err(payload) => Some(format!(
                "tuned search panicked: {}",
                crate::runner::panic_message(payload.as_ref())
            )),
        };
        if let Some(detail) = detail {
            failures.push(FuzzFailure {
                case: case.index,
                policy: PolicyKind::ReverseAggressive,
                details: vec![detail],
            });
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for kind in PolicyKind::ALL {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_policy(case, kind, differential)
        }));
        match result {
            Ok((details, plain)) => {
                if !details.is_empty() {
                    failures.push(FuzzFailure {
                        case: case.index,
                        policy: kind,
                        details,
                    });
                }
                h = fingerprint_report(h, &plain);
            }
            Err(payload) => {
                let msg = crate::runner::panic_message(payload.as_ref());
                for b in msg.bytes() {
                    h = mix(h, b as u64);
                }
                failures.push(FuzzFailure {
                    case: case.index,
                    policy: kind,
                    details: vec![format!("policy run panicked: {msg}")],
                });
            }
        }
    }
    (failures, h)
}

/// The naive spec of [`best_reverse_search`]: one independent
/// [`simulate`] per grid configuration, folded in grid order with the
/// strictly-smaller-elapsed rule.
pub(crate) fn naive_reverse_search(trace: &Trace, base: &SimConfig) -> (Report, SimConfig) {
    let mut best: Option<(Report, SimConfig)> = None;
    for cfg in reverse_grid(base) {
        let r = simulate(trace, PolicyKind::ReverseAggressive, &cfg);
        if best.as_ref().is_none_or(|(cur, _)| r.elapsed < cur.elapsed) {
            best = Some((r, cfg));
        }
    }
    best.expect("non-empty parameter grid")
}

/// Runs the differential fuzzer: `cases` generated cases × every policy,
/// executed across `threads` workers. The result is a pure function of
/// `(seed, cases)` — the thread count only changes wall-clock time.
pub fn fuzz(seed: u64, cases: usize, threads: usize) -> FuzzReport {
    fuzz_impl(seed, cases, threads, false)
}

/// [`fuzz`], additionally replaying every forestall case on the naive
/// full-rescan stall predictor and every case's tuned reverse-aggressive
/// search as eight independent runs, failing on any divergence from the
/// fast paths. Cases, runs accounting, and the fingerprint are identical
/// to a plain [`fuzz`] with the same arguments.
pub fn fuzz_differential(seed: u64, cases: usize, threads: usize) -> FuzzReport {
    fuzz_impl(seed, cases, threads, true)
}

fn fuzz_impl(seed: u64, cases: usize, threads: usize, differential: bool) -> FuzzReport {
    let case_list = gen_cases(seed, cases);
    let results = run_indexed(case_list.len(), threads, |i| {
        run_case(&case_list[i], differential)
    });
    let mut failures = Vec::new();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for (fails, h) in results {
        failures.extend(fails);
        fingerprint = mix(fingerprint, h);
    }
    FuzzReport {
        seed,
        cases,
        runs: cases * PolicyKind::ALL.len(),
        failures,
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_deterministic() {
        let a = gen_cases(7, 12);
        let b = gen_cases(7, 12);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace.requests, y.trace.requests);
            assert_eq!(x.config, y.config);
        }
        // A different seed actually changes the cases.
        let c = gen_cases(8, 12);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.trace.requests != y.trace.requests || x.config != y.config));
    }

    #[test]
    fn coverage_cycles_span_the_matrix() {
        let cases = gen_cases(3, 12);
        for d in DISCIPLINES {
            assert!(cases.iter().any(|c| c.config.discipline == d), "{d:?}");
        }
        assert!(cases
            .iter()
            .any(|c| matches!(c.config.disk_model, DiskModelKind::Uniform(_))));
        assert!(cases
            .iter()
            .any(|c| c.config.disk_model == DiskModelKind::Coarse));
        assert!(cases
            .iter()
            .any(|c| c.config.disk_model == DiskModelKind::Hp97560));
        // The fault dimension is drawn at ~p=0.5, so a dozen cases cover
        // both faulted and healthy configurations.
        assert!(cases.iter().any(|c| !c.config.faults.is_empty()));
        assert!(cases.iter().any(|c| c.config.faults.is_empty()));
        // Some predicted-hint case runs a paper-trace window.
        assert!(cases.iter().any(|c| WINDOW_TRACES
            .iter()
            .any(|t| c.trace.name.ends_with(&format!("-{t}")))));
        // The hint-source cycle (period 7) covers the oracle and every
        // online predictor within any 7 consecutive cases.
        for mode in HintMode::ALL {
            assert!(
                cases.iter().any(|c| c.config.hint_mode == mode),
                "{} not covered",
                mode.name()
            );
        }
    }

    #[test]
    fn hint_source_cycle_leaves_pinned_reproducers_on_the_oracle() {
        // The pinned (seed, index) regression cases below predate the
        // hint-source dimension; the period-7 cycle was chosen so their
        // indices all keep the oracle source, preserving those cases
        // byte for byte (and adding no rng draws keeps every other field
        // identical too).
        for index in [648usize, 3235, 4689] {
            assert_eq!(
                match index % 7 {
                    0 | 2 | 3 => "predicted",
                    _ => "oracle",
                },
                "oracle",
                "index {index}"
            );
        }
    }

    #[test]
    fn short_fuzz_run_is_clean() {
        let report = fuzz(1996, 16, 2);
        assert!(
            report.is_clean(),
            "{report}\n{:#?}",
            report.failures.first()
        );
        assert_eq!(report.runs, 16 * PolicyKind::ALL.len());
    }

    #[test]
    fn stale_reverse_pair_cases_stay_clean() {
        // Regression: at 10,000-case scale the fuzzer caught
        // reverse-aggressive issuing a scheduled fetch/eviction pair
        // after the block's last disclosed use had already been served
        // (schedule deviations — demand consumption of an earlier pair,
        // eviction repair, an abandoned faulted fetch — left the later
        // pair pending). The orphaned fetch wasted bandwidth and sat
        // unfinished at end of run, tripping the audit's
        // fetch-completion law. These (seed, index) pairs are the
        // smallest reproducers from the failing seeds; `issue_pair` now
        // skips a pair whose block has no remaining disclosed use.
        for (seed, index) in [(424242u64, 648usize), (2, 3235), (31337, 4689)] {
            let case = gen_cases(seed, index + 1).pop().expect("case exists");
            let (failures, _) = run_case(&case, false);
            assert!(
                failures.is_empty(),
                "seed {seed} case {index}: {failures:?}"
            );
        }
    }

    #[test]
    fn differential_mode_is_clean_and_fingerprint_neutral() {
        // The naive-vs-incremental replay must neither fail nor perturb
        // anything a plain run records: same cases (no rng draws added),
        // same fingerprint (the extra run is excluded from the fold).
        let plain = fuzz(1996, 16, 2);
        let diff = fuzz_differential(1996, 16, 2);
        assert!(diff.is_clean(), "{diff}\n{:#?}", diff.failures.first());
        assert_eq!(plain, diff);
    }

    #[test]
    fn differential_replay_agrees_on_a_pinned_reproducer() {
        // The pinned stale-pair reproducer seeds double as predictor
        // fixtures: run one directly through run_policy with the
        // differential replay on and require byte-agreement.
        let case = gen_cases(424242, 5).pop().expect("case exists");
        let (details, _) = run_policy(&case, PolicyKind::Forestall, true);
        assert!(details.is_empty(), "{details:?}");
    }

    #[test]
    fn fuzz_is_deterministic_across_thread_counts() {
        let serial = fuzz(42, 8, 1);
        let parallel = fuzz(42, 8, 4);
        assert_eq!(serial, parallel);
        // And actually sensitive to the seed.
        assert_ne!(serial.fingerprint, fuzz(43, 8, 1).fingerprint);
    }
}
