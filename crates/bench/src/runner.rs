//! Shared experiment runner: trace cache, disk-count grid, reverse
//! aggressive parameter search.

use parcache_core::algs::reverse::{Pair, ReverseAggressive};
use parcache_core::engine::{simulate, Prepared, Report};
use parcache_core::policy::PolicyKind;
use parcache_core::{NoopProbe, SimConfig};
use parcache_trace::Trace;
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

/// The paper's array sizes (function form for iterator chains).
pub fn paper_disk_counts() -> impl Iterator<Item = usize> {
    DISK_COUNTS.into_iter()
}

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

/// Runs one simulation.
pub fn run(trace: &Trace, kind: PolicyKind, config: &SimConfig) -> Report {
    simulate(trace, kind, config)
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

/// [`best_reverse`], returning the winning configuration as well and
/// running the grid's eight simulations on up to `threads` workers via
/// [`run_indexed`](crate::sweep::run_indexed).
///
/// The winner is chosen by folding the reports *in grid order* with a
/// strictly-smaller-elapsed rule — exactly the serial loop's
/// first-wins tie-break — so the result does not depend on `threads`.
///
/// Two things make the eight runs cheaper than eight [`simulate`] calls
/// while returning the same bytes. The state they share (the oracles,
/// the reference index and the cold missing-block index) is built once in
/// a [`Prepared`] value. And a configuration whose schedule and batch
/// size repeat an earlier configuration's is not replayed: only reverse
/// aggressive reads F̂ and the batch size, so its replay would repeat the
/// earlier report, which the first-wins fold already prefers.
pub fn best_reverse_search(trace: &Trace, base: &SimConfig, threads: usize) -> (Report, SimConfig) {
    let grid = reverse_grid(base);
    let prepared = Prepared::new(trace, base);
    let reversed = prepared.reversed_oracle();
    let log = ReplayLog::new(grid.len());
    let reports = crate::sweep::run_indexed(grid.len(), threads, |i| {
        let mut policy = ReverseAggressive::with_reversed(reversed, &grid[i]);
        if log.repeats_earlier(i, policy.schedule(), grid[i].reverse_batch_size) {
            return None;
        }
        Some(prepared.run(&mut policy, &grid[i], &mut NoopProbe))
    });
    let mut best: Option<(usize, Report)> = None;
    for (i, r) in reports.into_iter().enumerate() {
        // A skipped configuration's report equals an earlier one's, so
        // it can never be strictly better than the best so far.
        let Some(r) = r else { continue };
        if best.as_ref().is_none_or(|(_, cur)| r.elapsed < cur.elapsed) {
            best = Some((i, r));
        }
    }
    let (i, report) = best.expect("non-empty parameter grid");
    (report, grid[i].clone())
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

/// The replay keys the search's configurations have produced so far.
/// Debug builds also keep each schedule and check that a matching key
/// really means an identical schedule.
struct ReplayLog {
    entries: Mutex<Vec<Option<Logged>>>,
}

/// One configuration's replay key, and its schedule in debug builds.
#[derive(Clone)]
struct Logged {
    key: ReplayKey,
    schedule: Option<Vec<Pair>>,
}

impl ReplayLog {
    fn new(configs: usize) -> ReplayLog {
        ReplayLog {
            entries: Mutex::new(vec![None; configs]),
        }
    }

    /// Records configuration `i`'s replay key and returns whether a
    /// configuration earlier in the grid recorded the same key.
    fn repeats_earlier(&self, i: usize, schedule: &[Pair], batch: usize) -> bool {
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
        let earlier = entries[..i].iter().flatten().find(|e| e.key == key);
        if let Some(kept) = earlier.and_then(|e| e.schedule.as_deref()) {
            assert_eq!(kept, schedule, "schedule fingerprint collision");
        }
        let repeats = earlier.is_some();
        entries[i] = Some(Logged {
            key,
            schedule: cfg!(debug_assertions).then(|| schedule.to_vec()),
        });
        repeats
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
        assert_eq!(paper_disk_counts().count(), 11);
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
        let default = run(&t, PolicyKind::ReverseAggressive, &cfg);
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
            let replay = run(&t, PolicyKind::ReverseAggressive, &serial_cfg);
            assert_eq!(replay, serial);
        }
    }

    #[test]
    fn duplicate_schedules_are_detected() {
        // Equal schedules at equal batch sizes repeat; a different batch
        // or a different schedule does not.
        let t = parcache_trace::synth::synth_trace(3, 200, 7);
        let base = SimConfig::for_trace(2, &t);
        let a = ReverseAggressive::new(&t, &base.clone().with_reverse_params(4, 4));
        let b = ReverseAggressive::new(&t, &base.clone().with_reverse_params(64, 4));
        let log = ReplayLog::new(4);
        assert!(!log.repeats_earlier(0, a.schedule(), 4));
        assert!(!log.repeats_earlier(1, a.schedule(), 40));
        assert!(log.repeats_earlier(2, a.schedule(), 4));
        assert_eq!(
            log.repeats_earlier(3, b.schedule(), 4),
            a.schedule() == b.schedule()
        );
        assert_ne!(fingerprint(&a.schedule()[1..]), fingerprint(a.schedule()));
    }
}
