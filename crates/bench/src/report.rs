//! Table formatting in the shape of the paper's figures and appendices.

use crate::sweep::{CellExecution, SweepCell};
use parcache_core::engine::Report;
use parcache_types::Nanos;

/// One row of a breakdown table (one policy at one array size).
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Array size.
    pub disks: usize,
    /// Policy name.
    pub policy: String,
    /// The run's report.
    pub report: Report,
}

impl BreakdownRow {
    /// Builds a row from a report.
    pub fn new(report: Report) -> BreakdownRow {
        BreakdownRow {
            disks: report.disks,
            policy: report.policy.clone(),
            report,
        }
    }
}

/// Percentage difference of `a` relative to `b`: `(a - b) / b * 100`.
pub fn percent(a: Nanos, b: Nanos) -> f64 {
    if b == Nanos::ZERO {
        return 0.0;
    }
    (a.as_nanos() as f64 - b.as_nanos() as f64) / b.as_nanos() as f64 * 100.0
}

/// Formats rows in the style of the appendix tables: per disk count and
/// policy, the fetches, driver time, stall time, elapsed time, average
/// fetch time, and average disk utilization.
pub fn breakdown_table(title: &str, rows: &[BreakdownRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>8} {:>12} {:>12} {:>12} {:>12} {:>6}",
        "disks", "policy", "fetches", "driver(s)", "stall(s)", "elapsed(s)", "avg fetch", "util"
    );
    for row in rows {
        let r = &row.report;
        let _ = writeln!(
            out,
            "{:<6} {:<20} {:>8} {:>12.4} {:>12.3} {:>12.3} {:>10.3}ms {:>6.2}",
            row.disks,
            row.policy,
            r.fetches,
            r.driver.as_secs_f64(),
            r.stall.as_secs_f64(),
            r.elapsed.as_secs_f64(),
            r.avg_fetch_time.as_millis_f64(),
            r.avg_disk_utilization,
        );
    }
    out
}

/// Formats rows as a stall-provenance table (`--explain`): per disk
/// count and policy, the total stall and its five per-cause components,
/// each with its share of the stall. This is the paper's why-narrative
/// in one table — e.g. forestall beating aggressive shows up as stall
/// moving out of `no-prefetch` without piling into `congestion`.
pub fn explain_table(title: &str, rows: &[BreakdownRow]) -> String {
    use parcache_core::probe::StallCause;
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {title}: stall by cause ==");
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>10} {:>14} {:>14} {:>14} {:>14} {:>16}",
        "disks", "policy", "stall(s)", "late-pf", "no-pf", "congestion", "retry", "evict-refetch"
    );
    for row in rows {
        let r = &row.report;
        let mut cols = String::new();
        for &cause in &StallCause::ALL {
            let t = r.stall_by_cause.get(cause);
            let share = if r.stall == Nanos::ZERO {
                0.0
            } else {
                t.as_nanos() as f64 / r.stall.as_nanos() as f64 * 100.0
            };
            let width = if cause == StallCause::EvictionRefetch {
                16
            } else {
                14
            };
            let _ = write!(
                cols,
                " {:>w$}",
                format!("{:.2}s {:>3.0}%", t.as_secs_f64(), share),
                w = width
            );
        }
        let _ = writeln!(
            out,
            "{:<6} {:<20} {:>10.3}{}",
            row.disks,
            row.policy,
            r.stall.as_secs_f64(),
            cols,
        );
    }
    out
}

/// The stderr summary of a fail-soft sweep: one line per failed cell,
/// naming the grid point (when `cells` holds it) and the diagnosis, then
/// a totals line. Empty when every cell finished — the clean path prints
/// nothing.
pub fn failsoft_summary(cells: &[SweepCell], executions: &[CellExecution]) -> String {
    use crate::sweep::CellOutcome;
    use std::fmt::Write as _;
    let mut out = String::new();
    let (mut ok, mut panicked, mut timed_out, mut skipped, mut retries) = (0, 0, 0, 0, 0u64);
    for e in executions {
        retries += u64::from(e.attempts.saturating_sub(1));
        let point = || match cells.get(e.index) {
            Some(c) => format!(" ({}/{}/{} disks)", c.trace.name, c.algo.name(), c.disks),
            None => String::new(),
        };
        match &e.outcome {
            CellOutcome::Ok(_) => ok += 1,
            CellOutcome::Panicked { msg } => {
                panicked += 1;
                let _ = writeln!(
                    out,
                    "cell {}{}: panicked after {} attempt(s): {}",
                    e.index,
                    point(),
                    e.attempts,
                    msg.lines().next().unwrap_or(""),
                );
            }
            CellOutcome::TimedOut { limit } => {
                timed_out += 1;
                let _ = writeln!(
                    out,
                    "cell {}{}: timed out after {} attempt(s) of {:?} each",
                    e.index,
                    point(),
                    e.attempts,
                    limit,
                );
            }
            CellOutcome::Skipped => skipped += 1,
        }
    }
    if panicked + timed_out + skipped == 0 {
        return out;
    }
    let _ = writeln!(
        out,
        "fail-soft: {ok}/{} cells ok, {panicked} panicked, {timed_out} timed out, \
         {skipped} skipped, {retries} retr{}",
        executions.len(),
        if retries == 1 { "y" } else { "ies" },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_core::policy::PolicyKind;
    use parcache_core::SimConfig;

    #[test]
    fn percent_matches_definition() {
        assert_eq!(percent(Nanos(110), Nanos(100)), 10.0);
        assert_eq!(percent(Nanos(90), Nanos(100)), -10.0);
        assert_eq!(percent(Nanos(50), Nanos::ZERO), 0.0);
    }

    #[test]
    fn breakdown_table_contains_all_rows() {
        let t = parcache_trace::synth::synth_trace(2, 50, 3);
        let cfg = SimConfig::for_trace(1, &t);
        let r = parcache_core::simulate(&t, PolicyKind::Demand, &cfg);
        let rows = vec![BreakdownRow::new(r)];
        let s = breakdown_table("test", &rows);
        assert!(s.contains("== test =="));
        assert!(s.contains("demand"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn explain_table_shares_sum_to_the_stall() {
        // A single disk under demand fetching stalls on every miss, and
        // demand never prefetches: the whole stall is no-prefetch (first
        // touches) plus eviction-refetch (re-misses after eviction).
        let t = parcache_trace::synth::synth_trace(2, 80, 3);
        let cfg = SimConfig::for_trace(1, &t);
        let r = parcache_core::simulate(&t, PolicyKind::Demand, &cfg);
        assert!(r.stall > Nanos::ZERO);
        assert_eq!(r.stall_by_cause.total(), r.stall);
        let s = explain_table("test", &[BreakdownRow::new(r)]);
        assert!(s.contains("stall by cause"), "{s}");
        assert!(s.contains("no-pf"), "{s}");
        assert!(s.contains("demand"), "{s}");
    }
}
