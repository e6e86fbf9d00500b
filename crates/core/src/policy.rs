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
}

/// The default demand-miss reaction: fetch the block now, evicting the
/// resident block whose next reference is furthest in the future.
pub fn demand_fetch(ctx: &mut Ctx<'_>, block: BlockId) {
    let idx = ctx
        .oracle
        .index_of(block)
        .expect("demand-missed block outside the indexed universe");
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
}
