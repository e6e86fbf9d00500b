//! Shared experiment runner: trace cache, disk-count grid, reverse
//! aggressive parameter search.

use parcache_core::algs::reverse::{Pair, ReverseAggressive};
use parcache_core::engine::{Abandoned, Cutoff, Prepared, Report};
use parcache_core::{NoopProbe, SimConfig};
use parcache_trace::Trace;
use parcache_types::Nanos;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide trace-cache hit count (lookups served an already
/// generated trace). Profiling telemetry only — never consulted by the
/// harness's control flow.
static TRACE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide trace-cache miss count (lookups that generated).
static TRACE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the process-wide trace cache so far.
pub fn trace_cache_stats() -> (u64, u64) {
    (
        TRACE_CACHE_HITS.load(Ordering::Relaxed),
        TRACE_CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// The seed used for every published experiment, so all tables and
/// figures run against identical traces.
pub const SEED: u64 = 1996;

/// The paper's array sizes: 1-8, 10, 12, 16.
pub const DISK_COUNTS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16];

/// Why a trace lookup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The name is not in the registry.
    Unknown(String),
    /// Generation itself panicked (e.g. a malformed registry entry). The
    /// panic is caught and cached, so later lookups of the same name get
    /// this error instead of a poisoned lock.
    Generation {
        /// The trace whose generator panicked.
        name: String,
        /// The panic payload, when it was a string.
        panic: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Unknown(name) => write!(f, "unknown trace {name}"),
            TraceError::Generation { name, panic } => {
                write!(f, "generating trace {name} panicked: {panic}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Returns the named trace, generated once per process and cached.
///
/// The cache hands out [`Arc`] clones, so repeated lookups share one
/// generated trace instead of deep-copying hundreds of thousands of
/// requests per call. Each entry is its own [`OnceLock`], so the map's
/// mutex is held only to find the entry: callers resolving *different*
/// traces generate them concurrently, while callers racing on the *same*
/// trace generate it exactly once. (Sweep workers never get here at all:
/// the grid pre-generates its traces before workers spawn, and cells
/// carry `Arc<Trace>` — see `SweepSpec::named`.)
///
/// The slot caches a `Result`: an unknown name or a panicking generator
/// is stored as a typed [`TraceError`], so later lookups of the same
/// name see the same error instead of hanging on a lock the failed
/// initialization poisoned.
pub fn try_trace(name: &str) -> Result<Arc<Trace>, TraceError> {
    type Slot = Arc<OnceLock<Result<Arc<Trace>, TraceError>>>;
    static CACHE: OnceLock<Mutex<HashMap<String, Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let slot = {
        // The critical section only finds the entry; recover the map
        // rather than propagating a poison that nothing here can cause.
        let mut map = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    };
    let mut generated = false;
    let result = slot
        .get_or_init(|| {
            generated = true;
            // Catch generation panics so they cannot poison the slot:
            // the error is cached and typed, never a wedged lock.
            match std::panic::catch_unwind(|| parcache_trace::trace_by_name(name, SEED)) {
                Ok(Some(t)) => Ok(Arc::new(t)),
                Ok(None) => Err(TraceError::Unknown(name.to_string())),
                Err(payload) => Err(TraceError::Generation {
                    name: name.to_string(),
                    panic: panic_message(&payload),
                }),
            }
        })
        .clone();
    if generated {
        TRACE_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        TRACE_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    }
    result
}

/// Best-effort text of a caught panic payload. Shared with the sweep's
/// fail-soft executor and the fuzzer's per-case isolation.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`try_trace`], panicking on failure — the convenience entry point for
/// experiment code where every name is a registry constant.
pub fn trace(name: &str) -> Arc<Trace> {
    try_trace(name).unwrap_or_else(|e| panic!("{e}"))
}

/// Reverse aggressive with per-configuration tuning, as the paper does:
/// "reverse aggressive's fetch time estimate F̂ and batch size are chosen
/// to minimize its elapsed time" (appendix A). Searches a small grid and
/// returns the best run.
pub fn best_reverse(trace: &Trace, base: &SimConfig) -> Report {
    best_reverse_search(trace, base, crate::sweep::default_threads()).0
}

/// The tuned search's grid, in its order: fetch estimate F̂ in
/// {1, 4, 16, 64} × batch size in {4, 40}.
pub(crate) fn reverse_grid(base: &SimConfig) -> Vec<SimConfig> {
    let fetch_estimates = [1u64, 4, 16, 64];
    let batches = [4usize, 40];
    fetch_estimates
        .iter()
        .flat_map(|&f| {
            batches
                .iter()
                .map(move |&b| base.clone().with_reverse_params(f, b))
        })
        .collect()
}

/// The order the tuned search tries its grid in, by grid index: F̂
/// descending, batch ascending. The winner does not depend on it, but
/// the cutoff prunes more once a good run has finished, and F̂ ≥ 16 wins
/// 50 of the 83 appendix-A cells.
const SEARCH_ORDER: [usize; 8] = [6, 7, 4, 5, 2, 3, 0, 1];

/// [`best_reverse`], returning the winning configuration as well and
/// running the grid's eight simulations on up to `threads` workers via
/// [`run_indexed`](crate::sweep::run_indexed).
///
/// The winner is the configuration with the smallest elapsed time, the
/// earliest in grid order on ties: exactly the serial loop's first-wins
/// fold, so the result does not depend on `threads` or on the order the
/// runs are tried in (F̂ descending, batch ascending). Each finished
/// run's `(elapsed, grid index)` is packed into one word and the
/// search keeps the smallest in an atomic; a run with grid index `g` is
/// abandoned once `pack(lb, g)` exceeds it, `lb` being the engine's
/// lower bound on the run's final elapsed time
/// ([`Prepared::run_until`]). That is "strictly worse, or tied and later
/// in the grid", so no abandoned run could have won.
///
/// Two more things make the eight runs cheaper than eight
/// [`simulate`](parcache_core::simulate) calls while returning the same
/// bytes. The state they share (the oracles, the reference index and the
/// bound's per-reference inputs) is built once in a [`Prepared`] value. And
/// only reverse aggressive reads F̂ and the batch size, so a
/// configuration whose schedule and batch size repeat another's has the
/// same report: it takes that report if the other run finished, and is
/// skipped if the other cannot win in its place.
pub fn best_reverse_search(trace: &Trace, base: &SimConfig, threads: usize) -> (Report, SimConfig) {
    search_grid(trace, base, threads).0
}

/// [`best_reverse_search`], also returning how many replays the cutoff
/// abandoned.
fn search_grid(trace: &Trace, base: &SimConfig, threads: usize) -> ((Report, SimConfig), usize) {
    let grid = reverse_grid(base);
    assert_eq!(
        grid.len(),
        SEARCH_ORDER.len(),
        "search order covers the grid"
    );
    let prepared = Prepared::new(trace, base);
    let reversed = prepared.reversed_oracle();
    let search = Search::new(grid.len());
    let reports = crate::sweep::run_indexed(grid.len(), threads, |k| {
        let g = SEARCH_ORDER[k];
        let mut policy = ReverseAggressive::with_reversed(reversed, &grid[g]);
        match search.claim(g, policy.schedule(), grid[g].reverse_batch_size) {
            Claim::Skip => None,
            Claim::Copy(report) => Some(*report),
            Claim::Replay => {
                let cutoff = Beaten {
                    best: &search.best,
                    index: g,
                };
                let outcome = prepared.run_until(&mut policy, &grid[g], &mut NoopProbe, &cutoff);
                search.settle(g, outcome)
            }
        }
    });
    let (_, g, report) = SEARCH_ORDER
        .iter()
        .zip(reports)
        .filter_map(|(&g, r)| r.map(|r| (pack(r.elapsed, g), g, r)))
        .min_by_key(|&(packed, ..)| packed)
        .expect("the best configuration is never skipped or abandoned");
    ((report, grid[g].clone()), search.abandoned())
}

/// `(elapsed << 3) | grid index`: ordered first by elapsed time, then by
/// grid index, as the first-wins fold ranks runs.
fn pack(elapsed: Nanos, index: usize) -> u64 {
    debug_assert!(index < 8, "grid index fits in three bits");
    let ns = elapsed.as_nanos();
    assert!(
        ns < 1 << 61,
        "elapsed {elapsed} does not fit the packed rank"
    );
    ns << 3 | index as u64
}

/// The tuned search's cutoff for the run of grid index `index`: abandon
/// once the run provably ranks after the best finished run.
struct Beaten<'a> {
    best: &'a AtomicU64,
    index: usize,
}

impl Cutoff for Beaten<'_> {
    #[inline]
    fn abandon(&self, lower_bound: Nanos) -> bool {
        pack(lower_bound, self.index) > self.best.load(Ordering::Relaxed)
    }
}

/// What decides a reverse-aggressive forward replay once the rest of the
/// configuration is fixed: the schedule, by a 128-bit fingerprint and its
/// length, and the batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReplayKey {
    fingerprint: u128,
    pairs: usize,
    batch: usize,
}

/// The shared state of one tuned search: the best packed rank so far,
/// and what became of each configuration's replay.
struct Search {
    /// The smallest [`pack`] of a finished run, `u64::MAX` before one.
    /// Accessed `Relaxed`: it publishes no other data (reports travel
    /// through `entries` and the worker results), and a stale read is
    /// never below the true best, so it only prunes less.
    best: AtomicU64,
    /// Per grid index, once claimed. Debug builds also keep each
    /// schedule and check that a matching key really means an identical
    /// schedule.
    entries: Mutex<Vec<Option<Logged>>>,
}

/// One configuration's replay key and outcome, and its schedule in debug
/// builds.
struct Logged {
    key: ReplayKey,
    state: State,
    schedule: Option<Vec<Pair>>,
}

/// What became of a configuration's replay.
enum State {
    /// Running, or skipped: either way its report is not on hand.
    Open,
    /// Finished with this report.
    Finished(Box<Report>),
    /// Abandoned at this lower bound.
    Abandoned(Nanos),
}

/// What a configuration should do about its replay.
#[derive(Debug)]
enum Claim {
    /// Nothing: it cannot win.
    Skip,
    /// Take this report, an identical replay's.
    Copy(Box<Report>),
    /// Run its replay, under the cutoff.
    Replay,
}

impl Search {
    fn new(configs: usize) -> Search {
        Search {
            best: AtomicU64::new(u64::MAX),
            entries: Mutex::new((0..configs).map(|_| None).collect()),
        }
    }

    /// Records configuration `g`'s replay key and decides its claim from
    /// the configurations with the same key. Such a twin's report would
    /// be `g`'s own, so:
    /// - a twin earlier in the grid ranks ahead of `g` on the same
    ///   elapsed time, whether it finishes, is abandoned or was itself
    ///   skipped, so `g` cannot win;
    /// - a finished twin's report is `g`'s;
    /// - a twin abandoned at bound `lb` means `g` takes at least `lb`, so
    ///   `g` cannot win if `pack(lb, g)` already ranks after the best. A
    ///   twin abandoned only on a tie (`lb` equal to the best elapsed,
    ///   with a later grid index) leaves `g` to replay.
    fn claim(&self, g: usize, schedule: &[Pair], batch: usize) -> Claim {
        let key = ReplayKey {
            fingerprint: fingerprint(schedule),
            pairs: schedule.len(),
            batch,
        };
        // Every update is one slot assignment, so a poisoned log is
        // still consistent.
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let best = self.best.load(Ordering::Relaxed);
        let mut claim = Claim::Replay;
        for (twin, e) in entries.iter().enumerate() {
            let Some(e) = e.as_ref().filter(|e| e.key == key) else {
                continue;
            };
            if let Some(kept) = &e.schedule {
                assert_eq!(kept.as_slice(), schedule, "schedule fingerprint collision");
            }
            claim = match (claim, &e.state) {
                _ if twin < g => Claim::Skip,
                (Claim::Replay, State::Finished(report)) => Claim::Copy(report.clone()),
                (Claim::Replay, &State::Abandoned(lb)) if pack(lb, g) > best => Claim::Skip,
                (claim, _) => claim,
            };
        }
        let state = match &claim {
            Claim::Copy(report) => {
                self.best
                    .fetch_min(pack(report.elapsed, g), Ordering::Relaxed);
                State::Finished(report.clone())
            }
            Claim::Skip | Claim::Replay => State::Open,
        };
        entries[g] = Some(Logged {
            key,
            state,
            schedule: cfg!(debug_assertions).then(|| schedule.to_vec()),
        });
        claim
    }

    /// How many replays the cutoff abandoned.
    fn abandoned(&self) -> usize {
        let entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        entries
            .iter()
            .flatten()
            .filter(|e| matches!(e.state, State::Abandoned(_)))
            .count()
    }

    /// Records how configuration `g`'s replay ended; returns its report
    /// if it finished.
    fn settle(&self, g: usize, outcome: Result<Report, Abandoned>) -> Option<Report> {
        let state = match &outcome {
            Ok(report) => {
                self.best
                    .fetch_min(pack(report.elapsed, g), Ordering::Relaxed);
                State::Finished(Box::new(report.clone()))
            }
            Err(abandoned) => State::Abandoned(abandoned.lower_bound),
        };
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        entries[g]
            .as_mut()
            .expect("a settled run was claimed")
            .state = state;
        outcome.ok()
    }
}

/// A 128-bit fingerprint of a schedule: two independently seeded
/// multiply-xorshift lanes over every field of every pair.
fn fingerprint(schedule: &[Pair]) -> u128 {
    let mut a = 0x243f_6a88_85a3_08d3u64;
    let mut b = 0x1319_8a2e_0370_7344u64;
    for p in schedule {
        let words = [
            u64::from(p.block) << 32 | u64::from(p.key),
            u64::from(p.evict) << 32 | u64::from(p.release),
        ];
        for w in words {
            a = (a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            a ^= a >> 29;
            b = (b.rotate_left(23) ^ w).wrapping_mul(0xd6e8_feb8_6659_fd93);
            b ^= b >> 31;
        }
    }
    (u128::from(a) << 64) | u128::from(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_core::{simulate, PolicyKind};

    #[test]
    fn trace_cache_returns_consistent_traces() {
        let a = trace("synth");
        let b = trace("synth");
        // Same cached allocation, not merely equal contents.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.stats().reads, 100_000);
    }

    #[test]
    #[should_panic(expected = "unknown trace")]
    fn unknown_trace_panics() {
        trace("nope");
    }

    #[test]
    fn failed_lookup_is_typed_and_repeatable() {
        // The first failure caches a typed error; the second lookup must
        // see the same error again — not a poisoned lock or a hang.
        let e1 = try_trace("no-such-trace").unwrap_err();
        let e2 = try_trace("no-such-trace").unwrap_err();
        assert_eq!(e1, TraceError::Unknown("no-such-trace".to_string()));
        assert_eq!(e1, e2);
        assert!(e1.to_string().contains("unknown trace no-such-trace"));
        // And a failed name never wedges *other* names.
        assert!(try_trace("synth").is_ok());
    }

    #[test]
    fn generation_error_formats_with_cause() {
        let e = TraceError::Generation {
            name: "broken".to_string(),
            panic: "index out of bounds".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "generating trace broken panicked: index out of bounds"
        );
    }

    #[test]
    fn panic_payloads_render_as_text() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(boxed.as_ref()), "boom");
        let boxed: Box<dyn std::any::Any + Send> = Box::new("boom".to_string());
        assert_eq!(panic_message(boxed.as_ref()), "boom");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }

    #[test]
    fn disk_counts_match_paper() {
        assert_eq!(DISK_COUNTS.len(), 11);
        assert_eq!(DISK_COUNTS[0], 1);
        assert_eq!(DISK_COUNTS[10], 16);
    }

    #[test]
    fn trace_cache_is_race_free() {
        // Many workers asking for the same trace at once still share one
        // generated copy.
        let arcs: Vec<Arc<Trace>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| trace("synth"))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
    }

    #[test]
    fn best_reverse_is_no_worse_than_default() {
        let t = parcache_trace::synth::synth_trace(3, 200, 7);
        let cfg = SimConfig::for_trace(2, &t);
        let default = simulate(&t, PolicyKind::ReverseAggressive, &cfg);
        let tuned = best_reverse(&t, &cfg);
        assert!(tuned.elapsed <= default.elapsed);
    }

    #[test]
    fn best_reverse_search_is_thread_count_invariant() {
        // One search implementation at every fan-out, under every kind of
        // knowledge and array health: full hints, partial hints,
        // predicted hints, and a fault plan. Each must pick the same
        // winner as eight independent runs folded first-wins.
        let t = parcache_trace::synth::synth_trace(3, 200, 7);
        let full = SimConfig::for_trace(2, &t);
        let partial = full
            .clone()
            .with_hints(parcache_core::hints::HintSpec::Segments {
                fraction: 0.6,
                mean_run: 40,
                seed: 3,
            });
        let predicted = full
            .clone()
            .with_hint_mode(parcache_core::HintMode::Predicted(
                parcache_core::PredictorKind::Markov,
            ));
        let faulted = full.clone().with_faults(
            parcache_disk::FaultPlan::parse("flaky:*:0.05,outage:1:100:600,seed:9")
                .expect("valid fault plan"),
        );
        for base in [full, partial, predicted, faulted] {
            let (serial, serial_cfg) = best_reverse_search(&t, &base, 1);
            let (threaded, threaded_cfg) = best_reverse_search(&t, &base, 4);
            assert_eq!(serial, threaded);
            assert_eq!(serial_cfg, threaded_cfg);
            assert_eq!(
                (serial.clone(), serial_cfg.clone()),
                crate::fuzz::naive_reverse_search(&t, &base)
            );
            // The winning configuration really produces the winning report.
            let replay = simulate(&t, PolicyKind::ReverseAggressive, &serial_cfg);
            assert_eq!(replay, serial);
        }
    }

    #[test]
    fn duplicate_schedules_are_detected() {
        // Equal schedules at equal batch sizes are twins; a different
        // batch or a different schedule is not. A twin later in the grid
        // than a claimed one is skipped, and an earlier twin takes a
        // finished twin's report.
        let t = parcache_trace::synth::synth_trace(3, 200, 7);
        let base = SimConfig::for_trace(2, &t);
        let a = ReverseAggressive::new(&t, &base.clone().with_reverse_params(4, 4));
        let b = ReverseAggressive::new(&t, &base.clone().with_reverse_params(64, 4));
        let search = Search::new(8);
        assert!(matches!(search.claim(2, a.schedule(), 4), Claim::Replay));
        assert!(matches!(search.claim(3, a.schedule(), 40), Claim::Replay));
        assert!(matches!(search.claim(4, a.schedule(), 4), Claim::Skip));
        let report = simulate(
            &t,
            PolicyKind::ReverseAggressive,
            &base.clone().with_reverse_params(4, 4),
        );
        assert_eq!(search.settle(2, Ok(report.clone())), Some(report.clone()));
        match search.claim(0, a.schedule(), 4) {
            Claim::Copy(copied) => assert_eq!(*copied, report),
            other => panic!("an earlier twin of a finished run took {other:?}"),
        }
        assert_eq!(
            matches!(search.claim(6, b.schedule(), 4), Claim::Skip),
            a.schedule() == b.schedule()
        );
        assert_ne!(fingerprint(&a.schedule()[1..]), fingerprint(a.schedule()));
    }

    #[test]
    fn an_abandoned_twin_leaves_an_earlier_config_its_tie() {
        // Grid index 6 finishes first at elapsed e. Index 7 is abandoned
        // at bound e: it could only tie, and a tie goes to index 6. Its
        // twin at index 5 shares its elapsed time but ranks ahead of 6
        // on a tie, so it must still replay. A twin of a run abandoned
        // strictly above the best cannot win at any index.
        let t = parcache_trace::synth::synth_trace(3, 200, 7);
        let base = SimConfig::for_trace(2, &t);
        let tied = ReverseAggressive::new(&t, &base.clone().with_reverse_params(16, 40));
        let worse = ReverseAggressive::new(&t, &base.clone().with_reverse_params(1, 4));
        let winner = simulate(
            &t,
            PolicyKind::ReverseAggressive,
            &base.clone().with_reverse_params(64, 4),
        );
        let e = winner.elapsed;
        let search = Search::new(8);
        assert!(matches!(search.claim(6, &[], 4), Claim::Replay));
        search.settle(6, Ok(winner));
        assert_eq!(search.best.load(Ordering::Relaxed), pack(e, 6));
        assert!(matches!(
            search.claim(7, tied.schedule(), 40),
            Claim::Replay
        ));
        assert_eq!(search.settle(7, Err(Abandoned { lower_bound: e })), None);
        assert!(matches!(
            search.claim(5, tied.schedule(), 40),
            Claim::Replay
        ));
        assert!(matches!(
            search.claim(3, worse.schedule(), 4),
            Claim::Replay
        ));
        let above = Abandoned {
            lower_bound: e + Nanos(1),
        };
        search.settle(3, Err(above));
        assert!(matches!(search.claim(1, worse.schedule(), 4), Claim::Skip));
    }

    /// Runs `base`'s tuned search at 1 and 4 threads, checks that each
    /// picks what eight independent runs pick, and returns how many
    /// replays the cutoff abandoned in all.
    fn abandoned_matching_naive(t: &Trace, base: &SimConfig) -> usize {
        let naive = crate::fuzz::naive_reverse_search(t, base);
        [1, 4]
            .into_iter()
            .map(|threads| {
                let (found, abandoned) = search_grid(t, base, threads);
                assert_eq!(found, naive, "{} at {threads} threads", t.name);
                abandoned
            })
            .sum()
    }

    #[test]
    fn tied_paper_cells_keep_the_first_winner() {
        // In these appendix-A cells several configurations tie on
        // elapsed time but differ in their reports (`avg_fetch_time`),
        // so the winner is decided by the grid-order tie-break alone.
        for (name, disks) in [("glimpse", 6), ("postgres-select", 12)] {
            let t = trace(name);
            abandoned_matching_naive(&t, &SimConfig::for_trace(disks, &t));
        }
    }

    #[test]
    fn pruned_search_matches_eight_independent_runs() {
        // Windows of paper traces under full, partial and predicted
        // hints, on healthy and faulted arrays, with write-behind off and
        // on: every pruned search must pick the naive search's winner,
        // and the cutoff must actually abandon replays.
        use parcache_core::hints::HintSpec;
        use parcache_core::{HintMode, PredictorKind};
        let mut rng = parcache_types::rng::Rng::seed_from_u64(19);
        let mut abandoned = 0;
        for hints in 0..3 {
            for faulted in [false, true] {
                for write_behind in [None, Some(3)] {
                    let full = trace(["ld", "cscope1", "xds"][rng.gen_range(0usize..3)]);
                    let len = rng.gen_range(300usize..=1000);
                    let start = rng.gen_range(0..=full.requests.len() - len);
                    let t = Trace::new(
                        format!("{}-window-{start}", full.name),
                        full.requests[start..start + len].to_vec(),
                        (full.cache_blocks / rng.gen_range(1usize..=8)).max(2),
                    );
                    let mut base = SimConfig::for_trace(rng.gen_range(1usize..=4), &t);
                    base = match hints {
                        0 => base,
                        1 => base.with_hints(HintSpec::Segments {
                            fraction: 0.6,
                            mean_run: 40,
                            seed: rng.next_u64(),
                        }),
                        _ => {
                            let kinds = [
                                PredictorKind::Sequential,
                                PredictorKind::Markov,
                                PredictorKind::Mithril,
                            ];
                            base.with_hint_mode(HintMode::Predicted(
                                kinds[rng.gen_range(0usize..3)],
                            ))
                        }
                    };
                    if faulted {
                        let plan = format!("flaky:*:0.05,outage:0:20:80,seed:{}", rng.next_u64());
                        base = base.with_faults(
                            parcache_disk::FaultPlan::parse(&plan).expect("valid fault plan"),
                        );
                    }
                    base.write_behind_period = write_behind;
                    abandoned += abandoned_matching_naive(&t, &base);
                }
            }
        }
        assert!(abandoned > 0, "the cutoff never abandoned a replay");
    }

    #[test]
    fn packed_ranks_order_by_elapsed_then_grid_index() {
        let ms = Nanos::from_millis;
        assert!(pack(ms(1), 7) < pack(ms(2), 0));
        assert!(pack(ms(2), 3) < pack(ms(2), 4));
        assert_eq!(pack(Nanos::ZERO, 5), 5);
    }
}
