//! The integrated prefetching-and-caching policy abstraction.

use crate::config::SimConfig;
use crate::engine::Ctx;
use parcache_trace::Trace;
use parcache_types::BlockId;

/// An integrated prefetching and caching policy.
///
/// The engine invokes a policy at every decision point — simulation start,
/// after each reference is consumed, and after each fetch completes — and
/// additionally when the application misses. Nothing observable changes
/// between decision points, so this interface is exact.
pub trait Policy {
    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Decision point: inspect the state and issue any fetches.
    fn decide(&mut self, ctx: &mut Ctx<'_>);

    /// The application is stalled on `block`, which is neither resident
    /// nor in flight. The policy should issue a demand fetch; if it cannot
    /// (no evictable frame), the engine waits for a completion and asks
    /// again.
    fn on_miss(&mut self, ctx: &mut Ctx<'_>, block: BlockId) {
        demand_fetch(ctx, block);
    }

    /// The engine indexes this policy reads through [`Ctx`]. The engine
    /// builds and maintains only these; reading an undeclared one
    /// panics. The default declares every index, so a policy that never
    /// states its reads stays correct and merely pays for all of them.
    fn indexes(&self) -> Indexes {
        Indexes::ALL
    }
}

/// Which of the engine's optional indexes a policy reads (see
/// [`Policy::indexes`]). Each one costs work on every event whether or
/// not anything reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Indexes {
    /// The missing-block index, `Ctx::missing`: updated on every issue,
    /// eviction and abandonment.
    pub missing: bool,
    /// The recent fetch and compute times, `Ctx::history`: pushed on
    /// every completion and every reference.
    pub history: bool,
}

impl Indexes {
    /// Every index.
    pub(crate) const ALL: Indexes = Indexes {
        missing: true,
        history: true,
    };
    /// No index: the policy reads only the cache, the oracle and the
    /// array.
    pub(crate) const NONE: Indexes = Indexes {
        missing: false,
        history: false,
    };
    /// The missing-block index alone.
    pub(crate) const MISSING: Indexes = Indexes {
        missing: true,
        history: false,
    };
}

/// The default demand-miss reaction: fetch the block now, evicting the
/// resident block whose next reference is furthest in the future.
pub fn demand_fetch(ctx: &mut Ctx<'_>, block: BlockId) {
    let idx = ctx.index_of_missed(block);
    demand_fetch_idx(ctx, idx);
}

/// [`demand_fetch`] of the block with compact index `idx`.
pub(crate) fn demand_fetch_idx(ctx: &mut Ctx<'_>, idx: u32) {
    if ctx.cache.resident(idx) || ctx.cache.inflight(idx) {
        return;
    }
    if ctx.cache.has_free_frame() {
        ctx.issue_fetch_idx(idx, None);
        return;
    }
    let cursor = ctx.cursor;
    if let Some((victim, _)) = ctx.cache.furthest_resident(cursor, ctx.oracle) {
        ctx.issue_fetch_idx(idx, Some(victim));
    }
    // Otherwise every frame is in flight; the engine retries after the
    // next completion.
}

/// The five policies the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Demand fetching with optimal (offline Belady) replacement — the
    /// baseline of §4.1.
    Demand,
    /// Fixed horizon (TIP2-derived, §2.3).
    FixedHorizon,
    /// Aggressive (multi-disk, batched, §2.4).
    Aggressive,
    /// Reverse aggressive (offline schedule construction, §2.5).
    ReverseAggressive,
    /// Forestall (the paper's new hybrid, §5).
    Forestall,
}

impl PolicyKind {
    /// All five kinds, in the paper's presentation order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Demand,
        PolicyKind::FixedHorizon,
        PolicyKind::Aggressive,
        PolicyKind::ReverseAggressive,
        PolicyKind::Forestall,
    ];

    /// The four prefetching policies (everything but demand).
    pub const PREFETCHING: [PolicyKind; 4] = [
        PolicyKind::FixedHorizon,
        PolicyKind::Aggressive,
        PolicyKind::ReverseAggressive,
        PolicyKind::Forestall,
    ];

    /// A short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Demand => "demand",
            PolicyKind::FixedHorizon => "fixed-horizon",
            PolicyKind::Aggressive => "aggressive",
            PolicyKind::ReverseAggressive => "reverse-aggressive",
            PolicyKind::Forestall => "forestall",
        }
    }

    /// Instantiates the policy for one simulation run.
    ///
    /// Reverse aggressive constructs its offline schedule here, which for
    /// long traces is the expensive part of the run.
    pub fn build(&self, trace: &Trace, config: &SimConfig) -> Box<dyn Policy> {
        match self {
            PolicyKind::Demand => Box::new(crate::algs::demand::Demand),
            PolicyKind::FixedHorizon => Box::new(crate::algs::fixed_horizon::FixedHorizon::new(
                config.horizon,
            )),
            PolicyKind::Aggressive => {
                Box::new(crate::algs::aggressive::Aggressive::new(config.batch_size))
            }
            PolicyKind::ReverseAggressive => {
                Box::new(crate::algs::reverse::ReverseAggressive::new(trace, config))
            }
            PolicyKind::Forestall => Box::new(crate::algs::forestall::Forestall::new(config)),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn prefetching_excludes_demand() {
        assert!(!PolicyKind::PREFETCHING.contains(&PolicyKind::Demand));
        assert_eq!(PolicyKind::PREFETCHING.len(), 4);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(PolicyKind::Aggressive.to_string(), "aggressive");
    }

    /// Delegates to the wrapped policy but declares every index, so the
    /// engine builds and maintains what the bare policy skips.
    struct DeclaresAll<P>(P);

    impl<P: Policy> Policy for DeclaresAll<P> {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn decide(&mut self, ctx: &mut Ctx<'_>) {
            self.0.decide(ctx);
        }

        fn on_miss(&mut self, ctx: &mut Ctx<'_>, block: BlockId) {
            self.0.on_miss(ctx, block);
        }
    }

    #[test]
    fn declaring_every_index_leaves_reports_unchanged() {
        // The policies that declare no index must report byte for byte
        // what they report with every index maintained: the indexes feed
        // nothing but the policies that read them. Windows of the paper
        // traces keep the debug-build run short.
        use crate::algs::{demand::Demand, reverse::ReverseAggressive};
        use crate::engine::simulate_with;
        use crate::predict::{HintMode, PredictorKind};
        use parcache_disk::FaultPlan;
        for name in parcache_trace::TRACE_NAMES {
            let full = parcache_trace::trace_by_name(name, 1996).expect("paper trace");
            let window = full.requests[..full.requests.len().min(1200)].to_vec();
            let trace = Trace::new(name, window, full.cache_blocks);
            for disks in [1, 4, 16] {
                for hints in [HintMode::Oracle, HintMode::Predicted(PredictorKind::Markov)] {
                    for faults in ["", "flaky:*:0.05,outage:0:100:600,seed:9"] {
                        let mut config = SimConfig::for_trace(disks, &trace).with_hint_mode(hints);
                        if !faults.is_empty() {
                            config = config.with_faults(FaultPlan::parse(faults).expect("valid"));
                        }
                        let at = format!("{name}, {disks} disks, {hints:?}, faults '{faults}'");
                        assert_eq!(
                            simulate_with(&trace, &mut Demand, &config),
                            simulate_with(&trace, &mut DeclaresAll(Demand), &config),
                            "demand: {at}"
                        );
                        let reverse = || ReverseAggressive::new(&trace, &config);
                        assert_eq!(
                            simulate_with(&trace, &mut reverse(), &config),
                            simulate_with(&trace, &mut DeclaresAll(reverse()), &config),
                            "reverse aggressive: {at}"
                        );
                    }
                }
            }
        }
    }

    /// Reads the index named by `missing` (else the history) while
    /// declaring none.
    struct Undeclared {
        missing: bool,
    }

    impl Policy for Undeclared {
        fn name(&self) -> &'static str {
            "undeclared"
        }

        fn decide(&mut self, ctx: &mut Ctx<'_>) {
            if self.missing {
                let _ = ctx.missing().first_missing(ctx.cursor);
            } else {
                let _ = ctx.history().avg_compute();
            }
        }

        fn indexes(&self) -> Indexes {
            Indexes::NONE
        }
    }

    fn run_undeclared(missing: bool) {
        let trace = parcache_trace::trace_by_name("synth", 1996).expect("paper trace");
        let config = SimConfig::for_trace(1, &trace);
        crate::engine::simulate_with(&trace, &mut Undeclared { missing }, &config);
    }

    #[test]
    #[should_panic(expected = "reads the missing-block index without declaring it")]
    fn reading_the_undeclared_missing_index_panics() {
        run_undeclared(true);
    }

    #[test]
    #[should_panic(expected = "reads the fetch history without declaring it")]
    fn reading_the_undeclared_history_panics() {
        run_undeclared(false);
    }
}
