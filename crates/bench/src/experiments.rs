//! Shared experiment drivers: algorithm selection (including the paper's
//! per-configuration tuning of reverse aggressive) and measured-vs-paper
//! comparison tables.

use crate::paper::paper_elapsed;
use crate::runner::best_reverse;
use parcache_core::engine::Report;
use parcache_core::policy::PolicyKind;
use parcache_core::SimConfig;
use parcache_trace::Trace;
use std::fmt::Write as _;

/// An algorithm as run in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Demand fetching with optimal replacement.
    Demand,
    /// Fixed horizon with the configured H.
    FixedHorizon,
    /// Aggressive with the configured batch size.
    Aggressive,
    /// Reverse aggressive with F̂ and batch tuned per configuration, as
    /// in appendix A.
    TunedReverse,
    /// Forestall with dynamic F estimation.
    Forestall,
}

impl Algo {
    /// The four prefetching algorithms of appendix A, in table order.
    pub const APPENDIX_A: [Algo; 4] = [
        Algo::FixedHorizon,
        Algo::Aggressive,
        Algo::TunedReverse,
        Algo::Forestall,
    ];

    /// Runs the algorithm.
    pub fn run(&self, t: &Trace, cfg: &SimConfig) -> Report {
        match self.policy_kind() {
            Some(kind) => parcache_core::simulate(t, kind, cfg),
            None => best_reverse(t, cfg),
        }
    }

    /// The policy this algorithm runs the configuration's parameters
    /// under, or `None` for [`Algo::TunedReverse`], which searches
    /// reverse aggressive's parameter grid instead of using the
    /// configured values.
    pub fn policy_kind(&self) -> Option<PolicyKind> {
        match self {
            Algo::Demand => Some(PolicyKind::Demand),
            Algo::FixedHorizon => Some(PolicyKind::FixedHorizon),
            Algo::Aggressive => Some(PolicyKind::Aggressive),
            Algo::TunedReverse => None,
            Algo::Forestall => Some(PolicyKind::Forestall),
        }
    }

    /// Every algorithm the command line accepts, in the order it lists
    /// them, each under the name it is listed by: the display name,
    /// except `tuned-reverse`, which tells the tuned search from plain
    /// reverse aggressive.
    pub const LISTED: [(&'static str, Algo); 5] = [
        ("demand", Algo::Demand),
        ("fixed-horizon", Algo::FixedHorizon),
        ("aggressive", Algo::Aggressive),
        ("tuned-reverse", Algo::TunedReverse),
        ("forestall", Algo::Forestall),
    ];

    /// Looks an algorithm up by its listed name or its display name.
    pub fn by_name(name: &str) -> Option<Algo> {
        Algo::LISTED
            .iter()
            .find(|&&(listed, a)| listed == name || a.name() == name)
            .map(|&(_, a)| a)
    }

    /// Display name (matches the policies' own names).
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Demand => "demand",
            Algo::FixedHorizon => "fixed-horizon",
            Algo::Aggressive => "aggressive",
            Algo::TunedReverse => "reverse-aggressive",
            Algo::Forestall => "forestall",
        }
    }
}

/// Runs `algos` on `t` for each array size and formats a breakdown
/// table. `modify` adjusts the default configuration (identity for
/// baseline experiments). With `with_paper` each row shows the paper's
/// elapsed time for the same cell, when published; pass `false` when the
/// configuration differs from the paper's baseline (appendix B-D), so
/// baseline numbers are not shown against non-baseline runs.
pub(crate) fn comparison(
    title: &str,
    t: &Trace,
    algos: &[Algo],
    disks: &[usize],
    modify: impl Fn(SimConfig) -> SimConfig,
    with_paper: bool,
) -> String {
    let mut out = format!("== {title} ==\ntrace: {}\n", t.name);
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8} {:>9} {:>6}",
        "disks",
        "policy",
        "fetches",
        "compute",
        "driver",
        "stall",
        "elapsed",
        "paper",
        "delta",
        "fetch(ms)",
        "util"
    );
    for &d in disks {
        let cfg = modify(SimConfig::for_trace(d, t));
        for a in algos {
            let r = a.run(t, &cfg);
            let paper = paper_elapsed(&r.trace, &r.policy, r.disks).filter(|_| with_paper);
            let (paper_s, delta) = match paper {
                Some(p) => (
                    format!("{p:>10.3}"),
                    format!("{:>+7.1}%", (r.elapsed.as_secs_f64() - p) / p * 100.0),
                ),
                None => ("         -".to_string(), "       -".to_string()),
            };
            let _ = writeln!(
                out,
                "{:<6} {:<20} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>10.3} {paper_s} {delta} {:>9.3} {:>6.2}",
                r.disks,
                r.policy,
                r.fetches,
                r.compute.as_secs_f64(),
                r.driver.as_secs_f64(),
                r.stall.as_secs_f64(),
                r.elapsed.as_secs_f64(),
                r.avg_fetch_time.as_millis_f64(),
                r.avg_disk_utilization,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::trace;

    #[test]
    fn comparison_prints_paper_columns() {
        let t = trace("postgres-select");
        let s = comparison("t", &t, &[Algo::FixedHorizon], &[1], |c| c, true);
        assert!(s.contains("fixed-horizon"));
        // The paper's 45.390 should appear in the paper column.
        assert!(s.contains("45.390"), "{s}");
    }

    #[test]
    fn algo_names_match_policy_names() {
        assert_eq!(Algo::Demand.name(), PolicyKind::Demand.name());
        assert_eq!(
            Algo::TunedReverse.name(),
            PolicyKind::ReverseAggressive.name()
        );
    }

    #[test]
    fn algo_name_round_trips_through_by_name() {
        for (listed, a) in Algo::LISTED {
            assert_eq!(Algo::by_name(listed), Some(a));
            assert_eq!(Algo::by_name(a.name()), Some(a));
        }
        assert_eq!(Algo::by_name("tuned-reverse"), Some(Algo::TunedReverse));
        assert_eq!(Algo::by_name("nope"), None);
        assert_eq!(Algo::TunedReverse.policy_kind(), None);
        assert_eq!(Algo::Forestall.policy_kind(), Some(PolicyKind::Forestall));
    }
}
