//! Deterministic disk fault injection.
//!
//! A [`FaultPlan`] declares, per drive, three kinds of misbehavior:
//!
//! * **transient media errors** — each service attempt fails with a fixed
//!   probability; the time is spent (the platter rotated, the head moved)
//!   but the data never arrives and the caller must retry;
//! * **fail-slow windows** — service times started inside the window are
//!   inflated by a factor (a drive doing internal retries or thermal
//!   throttling);
//! * **hard outages** — during the window the drive rejects new requests
//!   outright, and anything already queued waits for the window to end.
//!
//! Faults are drawn from the workspace's own xoshiro generator
//! ([`parcache_types::rng::Rng`]), seeded per drive from the plan's seed,
//! so every faulted run is a pure function of `(trace, config, seed)` —
//! reproducible, diffable, and safe to fuzz. An empty plan wraps nothing
//! and changes nothing: drives without a matching spec are built bare, so
//! fault-free runs stay byte-identical to a build without this module.

use crate::geometry::SectorSpan;
use crate::model::{Attempt, DiskModel, ServiceOutcome};
use parcache_types::rng::Rng;
use parcache_types::Nanos;

/// Which drives a [`FaultSpec`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskSel {
    /// Every drive in the array.
    All,
    /// One drive, by index.
    One(usize),
}

impl DiskSel {
    /// True when the selector covers drive `disk`.
    pub(crate) fn matches(&self, disk: usize) -> bool {
        match self {
            DiskSel::All => true,
            DiskSel::One(d) => *d == disk,
        }
    }
}

/// One fault mode. Times are simulation time (run start = 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Each service attempt fails with probability `probability`
    /// (independent draws; must be `< 1` so retries terminate).
    Transient {
        /// Per-attempt failure probability in `[0, 1)`.
        probability: f64,
    },
    /// Service started in `[from, until)` takes `factor` times as long.
    FailSlow {
        /// Window start (inclusive).
        from: Nanos,
        /// Window end (exclusive).
        until: Nanos,
        /// Service-time multiplier, `>= 1`.
        factor: f64,
    },
    /// During `[from, until)` the drive rejects new requests; queued
    /// requests wait and start at `until`.
    Outage {
        /// Window start (inclusive).
        from: Nanos,
        /// Window end (exclusive).
        until: Nanos,
    },
}

impl FaultKind {
    /// The degraded window this fault contributes, if it is windowed.
    fn window(&self) -> Option<(Nanos, Nanos)> {
        match *self {
            FaultKind::Transient { .. } => None,
            FaultKind::FailSlow { from, until, .. } | FaultKind::Outage { from, until } => {
                Some((from, until))
            }
        }
    }

    /// Validates the parameters, returning a description of the problem.
    fn validate(&self) -> Result<(), String> {
        match *self {
            FaultKind::Transient { probability } => {
                if !(0.0..1.0).contains(&probability) {
                    return Err(format!(
                        "transient probability must be in [0, 1), got {probability}"
                    ));
                }
            }
            FaultKind::FailSlow {
                from,
                until,
                factor,
            } => {
                if from >= until {
                    return Err(format!("fail-slow window is empty: {from} >= {until}"));
                }
                if factor < 1.0 || !factor.is_finite() {
                    return Err(format!("fail-slow factor must be >= 1, got {factor}"));
                }
            }
            FaultKind::Outage { from, until } => {
                if from >= until {
                    return Err(format!("outage window is empty: {from} >= {until}"));
                }
            }
        }
        Ok(())
    }
}

/// One declared fault: which drives, and what goes wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The drives this spec applies to.
    pub disk: DiskSel,
    /// The fault mode.
    pub kind: FaultKind,
}

/// A declarative, seed-deterministic fault schedule for a whole array.
///
/// The default plan is empty: no drive is wrapped and behavior is
/// identical to a fault-free build.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-drive fault RNG streams.
    pub seed: u64,
    /// The declared faults.
    pub specs: Vec<FaultSpec>,
}

/// A malformed `--faults` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError(pub String);

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

fn parse_sel(s: &str) -> Result<DiskSel, FaultParseError> {
    if s == "*" {
        return Ok(DiskSel::All);
    }
    s.parse::<usize>()
        .map(DiskSel::One)
        .map_err(|_| FaultParseError(format!("disk selector must be an index or '*', got {s:?}")))
}

fn parse_ms(s: &str) -> Result<Nanos, FaultParseError> {
    s.parse::<u64>()
        .map(Nanos::from_millis)
        .map_err(|_| FaultParseError(format!("expected a time in whole milliseconds, got {s:?}")))
}

impl FaultPlan {
    /// An empty plan with the given RNG seed.
    #[cfg(test)]
    pub(crate) fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// True when no faults are declared (the drive array is built bare).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Parses the `--faults` grammar: comma-separated clauses
    ///
    /// * `flaky:<disk|*>:<probability>` — transient media errors,
    /// * `slow:<disk|*>:<from_ms>:<until_ms>:<factor>` — fail-slow window,
    /// * `outage:<disk|*>:<from_ms>:<until_ms>` — hard outage window,
    /// * `seed:<u64>` — the fault RNG seed (defaults to 0).
    ///
    /// Example: `flaky:*:0.01,slow:0:2000:5000:4,outage:1:1000:2000,seed:7`.
    pub fn parse(s: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::default();
        for clause in s.split(',').filter(|c| !c.trim().is_empty()) {
            let parts: Vec<&str> = clause.trim().split(':').collect();
            let kind = match (parts[0], parts.len()) {
                ("seed", 2) => {
                    plan.seed = parts[1].parse::<u64>().map_err(|_| {
                        FaultParseError(format!("seed must be a u64, got {:?}", parts[1]))
                    })?;
                    continue;
                }
                ("flaky", 3) => FaultKind::Transient {
                    probability: parts[2].parse::<f64>().map_err(|_| {
                        FaultParseError(format!("probability must be a float, got {:?}", parts[2]))
                    })?,
                },
                ("slow", 5) => FaultKind::FailSlow {
                    from: parse_ms(parts[2])?,
                    until: parse_ms(parts[3])?,
                    factor: parts[4].parse::<f64>().map_err(|_| {
                        FaultParseError(format!("factor must be a float, got {:?}", parts[4]))
                    })?,
                },
                ("outage", 4) => FaultKind::Outage {
                    from: parse_ms(parts[2])?,
                    until: parse_ms(parts[3])?,
                },
                _ => {
                    return Err(FaultParseError(format!(
                        "unrecognized clause {clause:?} (expected flaky:<disk>:<p>, \
                         slow:<disk>:<from_ms>:<until_ms>:<factor>, \
                         outage:<disk>:<from_ms>:<until_ms>, or seed:<u64>)"
                    )))
                }
            };
            kind.validate().map_err(FaultParseError)?;
            plan.specs.push(FaultSpec {
                disk: parse_sel(parts[1])?,
                kind,
            });
        }
        Ok(plan)
    }

    /// Validates every spec (useful for programmatically built plans).
    pub fn validate(&self) -> Result<(), String> {
        for spec in &self.specs {
            spec.kind.validate()?;
        }
        Ok(())
    }

    /// The resolved fault configuration for drive `disk`, or `None` when
    /// no spec matches it (the drive is built bare, not wrapped).
    pub fn for_disk(&self, disk: usize) -> Option<DiskFaults> {
        let specs: Vec<&FaultSpec> = self.specs.iter().filter(|s| s.disk.matches(disk)).collect();
        if specs.is_empty() {
            return None;
        }
        // Independent transient sources compose: the attempt survives only
        // if every source passes, so p = 1 - prod(1 - p_i).
        let mut survive = 1.0f64;
        let mut slow: Vec<(Nanos, Nanos, f64)> = Vec::new();
        let mut outages: Vec<(Nanos, Nanos)> = Vec::new();
        for spec in specs {
            match spec.kind {
                FaultKind::Transient { probability } => survive *= 1.0 - probability,
                FaultKind::FailSlow {
                    from,
                    until,
                    factor,
                } => slow.push((from, until, factor)),
                FaultKind::Outage { from, until } => outages.push((from, until)),
            }
        }
        slow.sort_by_key(|&(from, until, _)| (from, until));
        Some(DiskFaults {
            transient: 1.0 - survive,
            slow,
            outages: merge_windows(outages),
        })
    }

    /// The merged union of all degraded windows (fail-slow or outage) for
    /// drive `disk`, sorted and non-overlapping.
    pub fn degraded_windows(&self, disk: usize) -> Vec<(Nanos, Nanos)> {
        merge_windows(
            self.specs
                .iter()
                .filter(|s| s.disk.matches(disk))
                .filter_map(|s| s.kind.window())
                .collect(),
        )
    }

    /// Total time drive `disk` spends degraded within `[0, elapsed)`.
    pub fn degraded_nanos(&self, disk: usize, elapsed: Nanos) -> Nanos {
        self.degraded_windows(disk)
            .iter()
            .map(|&(from, until)| until.min(elapsed) - from.min(elapsed))
            .fold(Nanos::ZERO, |a, b| a + b)
    }

    /// The fault RNG seed for drive `disk`: the plan seed diversified by
    /// index so drives draw independent streams.
    pub fn rng_for_disk(&self, disk: usize) -> Rng {
        Rng::seed_from_u64(self.seed ^ (disk as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Merges possibly-overlapping windows into a sorted disjoint union.
/// Adjacent windows (`[a,b)`, `[b,c)`) coalesce, so no drive ever sees a
/// recover-then-degrade pair at the same instant.
fn merge_windows(mut windows: Vec<(Nanos, Nanos)>) -> Vec<(Nanos, Nanos)> {
    windows.sort();
    let mut merged: Vec<(Nanos, Nanos)> = Vec::with_capacity(windows.len());
    for (from, until) in windows {
        match merged.last_mut() {
            Some((_, end)) if from <= *end => *end = (*end).max(until),
            _ => merged.push((from, until)),
        }
    }
    merged
}

/// The resolved fault configuration for one drive.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFaults {
    /// Combined per-attempt media-error probability, `[0, 1)`.
    pub transient: f64,
    /// Fail-slow windows `(from, until, factor)`, sorted by start.
    pub slow: Vec<(Nanos, Nanos, f64)>,
    /// Outage windows, sorted, merged, non-overlapping.
    pub outages: Vec<(Nanos, Nanos)>,
}

impl DiskFaults {
    /// Product of the factors of every fail-slow window containing `now`
    /// (overlapping slowdowns compound), or 1.0 outside all windows.
    fn slow_factor(&self, now: Nanos) -> f64 {
        self.slow
            .iter()
            .filter(|&&(from, until, _)| from <= now && now < until)
            .map(|&(_, _, f)| f)
            .product()
    }
}

/// A [`DiskModel`] wrapper that injects the faults a [`DiskFaults`]
/// declares while delegating geometry and timing to the wrapped model.
///
/// The wrapper is only constructed for drives with a matching spec; an
/// empty plan leaves the array exactly as a fault-free build would.
pub struct FaultyDisk {
    inner: Box<dyn DiskModel>,
    faults: DiskFaults,
    rng: Rng,
}

impl FaultyDisk {
    /// Wraps `inner` with the resolved fault configuration, drawing media
    /// errors from `rng` (clone it from [`FaultPlan::rng_for_disk`]).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (`transient >= 1`, a factor `< 1`, or
    /// an inverted window): such a plan could make retries diverge.
    pub fn new(inner: Box<dyn DiskModel>, faults: DiskFaults, rng: Rng) -> FaultyDisk {
        assert!(
            (0.0..1.0).contains(&faults.transient),
            "transient probability must be in [0, 1)"
        );
        for &(from, until, factor) in &faults.slow {
            assert!(from < until && factor >= 1.0, "bad fail-slow window");
        }
        for &(from, until) in &faults.outages {
            assert!(from < until, "bad outage window");
        }
        FaultyDisk { inner, faults, rng }
    }
}

impl DiskModel for FaultyDisk {
    fn service(&mut self, now: Nanos, span: &SectorSpan) -> Nanos {
        self.service_attempt(now, span).completes
    }

    fn service_attempt(&mut self, now: Nanos, span: &SectorSpan) -> Attempt {
        let inner_done = self.inner.service(now, span);
        let factor = self.faults.slow_factor(now);
        let completes = if factor > 1.0 {
            let stretched = ((inner_done - now).as_nanos() as f64 * factor).round() as u64;
            now + Nanos(stretched)
        } else {
            inner_done
        };
        // Draw only when the mode is active: a plan with no transient
        // clause must not consume RNG state, so adding a fail-slow window
        // to a plan never perturbs another drive's error sequence.
        let outcome = if self.faults.transient > 0.0 && self.rng.gen_bool(self.faults.transient) {
            ServiceOutcome::MediaError
        } else {
            ServiceOutcome::Ok
        };
        Attempt { completes, outcome }
    }

    fn outage_until(&self, now: Nanos) -> Option<Nanos> {
        self.faults
            .outages
            .iter()
            .find(|&&(from, until)| from <= now && now < until)
            .map(|&(_, until)| until)
    }

    fn cylinder_of(&self, sector: u64) -> u64 {
        self.inner.cylinder_of(sector)
    }

    fn head_cylinder(&self) -> u64 {
        self.inner.head_cylinder()
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformDisk;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan =
            FaultPlan::parse("flaky:*:0.01,slow:0:2000:5000:4,outage:1:1000:2000,seed:7").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.specs.len(), 3);
        assert_eq!(
            plan.specs[0],
            FaultSpec {
                disk: DiskSel::All,
                kind: FaultKind::Transient { probability: 0.01 },
            }
        );
        assert_eq!(
            plan.specs[1],
            FaultSpec {
                disk: DiskSel::One(0),
                kind: FaultKind::FailSlow {
                    from: ms(2000),
                    until: ms(5000),
                    factor: 4.0,
                },
            }
        );
        assert_eq!(
            plan.specs[2],
            FaultSpec {
                disk: DiskSel::One(1),
                kind: FaultKind::Outage {
                    from: ms(1000),
                    until: ms(2000),
                },
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "flaky:*:1.0",    // p must stay below 1 or retries diverge
            "flaky:*:-0.1",   // negative probability
            "flaky:*:x",      // non-numeric
            "slow:0:5:2:4",   // inverted window (5ms >= 2ms)
            "slow:0:1:2:0.5", // factor < 1 would *speed up* the drive
            "outage:1:9:9",   // empty window
            "outage:q:1:2",   // bad selector
            "seed:banana",    // bad seed
            "gremlin:0:1",    // unknown clause
            "flaky:*",        // wrong arity
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
        // The empty string is the empty plan, not an error.
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn for_disk_resolves_selectors_and_composes_transients() {
        let plan = FaultPlan::parse("flaky:*:0.5,flaky:0:0.5,outage:1:1:2").unwrap();
        let d0 = plan.for_disk(0).unwrap();
        // Two independent p=0.5 sources: combined 1 - 0.25 = 0.75.
        assert!((d0.transient - 0.75).abs() < 1e-12);
        assert!(d0.outages.is_empty());
        let d1 = plan.for_disk(1).unwrap();
        assert!((d1.transient - 0.5).abs() < 1e-12);
        assert_eq!(d1.outages, vec![(ms(1), ms(2))]);
        // An unmentioned drive resolves to nothing at all.
        let quiet = FaultPlan::parse("outage:1:1:2").unwrap();
        assert!(quiet.for_disk(0).is_none());
    }

    #[test]
    fn degraded_windows_merge_and_clip() {
        let plan = FaultPlan::parse("slow:0:1:3:2,outage:0:2:5,outage:0:8:9").unwrap();
        assert_eq!(
            plan.degraded_windows(0),
            vec![(ms(1), ms(5)), (ms(8), ms(9))]
        );
        assert_eq!(plan.degraded_nanos(0, ms(100)), ms(5));
        // Clipped at elapsed: only [1,4) of the first window counts.
        assert_eq!(plan.degraded_nanos(0, ms(4)), ms(3));
        // Before any window: nothing.
        assert_eq!(plan.degraded_nanos(0, ms(1)), Nanos::ZERO);
    }

    #[test]
    fn fail_slow_inflates_only_inside_the_window() {
        let plan = FaultPlan::parse("slow:0:10:20:3").unwrap();
        let mut d = FaultyDisk::new(
            Box::new(UniformDisk::new(ms(5))),
            plan.for_disk(0).unwrap(),
            plan.rng_for_disk(0),
        );
        let span = SectorSpan { start: 0, len: 16 };
        // Outside the window: the base 5ms.
        assert_eq!(d.service(ms(0), &span), ms(5));
        // Started inside [10, 20): 5ms * 3 = 15ms.
        let a = d.service_attempt(ms(10), &span);
        assert_eq!(a.completes, ms(25));
        assert_eq!(a.outcome, ServiceOutcome::Ok);
        // Started after the window: back to normal.
        assert_eq!(d.service(ms(20), &span), ms(25));
    }

    #[test]
    fn transient_errors_are_seed_deterministic() {
        let plan = FaultPlan::parse("flaky:0:0.5,seed:42").unwrap();
        let make = || {
            FaultyDisk::new(
                Box::new(UniformDisk::new(ms(1))),
                plan.for_disk(0).unwrap(),
                plan.rng_for_disk(0),
            )
        };
        let span = SectorSpan { start: 0, len: 16 };
        let draw = |d: &mut FaultyDisk| -> Vec<ServiceOutcome> {
            (0..64)
                .map(|i| d.service_attempt(ms(i), &span).outcome)
                .collect()
        };
        let (mut a, mut b) = (make(), make());
        let (sa, sb) = (draw(&mut a), draw(&mut b));
        assert_eq!(sa, sb);
        assert!(sa.contains(&ServiceOutcome::MediaError));
        assert!(sa.contains(&ServiceOutcome::Ok));
    }

    #[test]
    fn outage_until_reports_the_containing_window() {
        let plan = FaultPlan::parse("outage:0:10:20").unwrap();
        let d = FaultyDisk::new(
            Box::new(UniformDisk::new(ms(1))),
            plan.for_disk(0).unwrap(),
            plan.rng_for_disk(0),
        );
        assert_eq!(d.outage_until(ms(9)), None);
        assert_eq!(d.outage_until(ms(10)), Some(ms(20)));
        assert_eq!(d.outage_until(ms(19)), Some(ms(20)));
        assert_eq!(d.outage_until(ms(20)), None);
    }

    #[test]
    fn per_disk_rng_streams_differ() {
        let plan = FaultPlan::new(9);
        assert_ne!(plan.rng_for_disk(0), plan.rng_for_disk(1));
        assert_eq!(plan.rng_for_disk(3), plan.rng_for_disk(3));
    }
}
