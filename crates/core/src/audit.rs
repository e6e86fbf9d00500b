//! Online conservation auditing of the simulation event stream.
//!
//! The paper's argument rests on the simulator's accounting being exact:
//! §2.1's elapsed = compute + driver + stall identity and §3's disk-model
//! validation. `AuditProbe` rides the [`Probe`] event stream and checks
//! conservation laws *while the simulation runs* — monotone event time,
//! every fetch issue matched by exactly one completion (or, under
//! predicted hints, left in flight as a wrong guess nothing waited on),
//! stall begin/end
//! balance, cache frame conservation (`resident + inflight <= K`, no
//! eviction of non-resident or stalled-on blocks), and per-disk
//! queue-depth conservation — then reconciles the final [`Report`]
//! against its independently folded totals with *checked* (never
//! saturating) arithmetic.
//!
//! Violations are collected, not panicked on, so a differential fuzzer
//! can run thousands of configurations and report every broken law.

use crate::config::{DiskModelKind, SimConfig};
use crate::engine::Report;
use crate::policy::PolicyKind;
use crate::probe::{Event, FaultCause, Probe, StallCause};
use crate::theory::uniform_elapsed_lower_bound;
use parcache_trace::Trace;
use parcache_types::{BlockId, Nanos};
use std::collections::HashSet;

/// How many violations are recorded verbatim before further ones are
/// only counted: one broken invariant tends to cascade, and the first
/// few messages carry all the signal.
const MAX_RECORDED: usize = 64;

/// One broken invariant, stamped with when it was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Simulated time of the offending event (or the report's elapsed
    /// time for end-of-run reconciliation failures).
    pub time: Nanos,
    /// Which conservation law broke.
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.time, self.rule, self.detail)
    }
}

/// The verdict of an audited run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Events observed.
    pub events: u64,
    /// Violations recorded (capped at an internal limit).
    pub violations: Vec<AuditViolation>,
    /// Violations beyond the recording cap, counted but not kept.
    pub suppressed: u64,
}

impl AuditOutcome {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// One line per recorded violation, then the count of suppressed
    /// ones: how every caller reports a failed audit.
    pub fn lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
        if self.suppressed > 0 {
            lines.push(format!("... and {} more suppressed", self.suppressed));
        }
        lines
    }

    /// Panics with every recorded violation unless the run was clean.
    #[cfg(test)]
    pub(crate) fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "audit failed: {} violation(s) over {} events\n  {}",
            self.violations.len() as u64 + self.suppressed,
            self.events,
            self.lines().join("\n  ")
        );
    }
}

/// A request a drive has begun servicing, as seen by the audit.
#[derive(Debug, Clone, Copy)]
struct InService {
    block: BlockId,
    completes: Nanos,
}

/// A [`Probe`] that enforces conservation invariants over the event
/// stream and reconciles the end-of-run [`Report`] (see the module
/// docs). Construct per run, feed to [`crate::engine::simulate_probed`],
/// then call [`AuditProbe::finish`].
#[derive(Debug)]
pub(crate) struct AuditProbe {
    capacity: usize,
    disk_model: DiskModelKind,
    faulted_plan: bool,
    last_time: Nanos,
    resident: HashSet<BlockId>,
    inflight: HashSet<BlockId>,
    /// In-flight blocks the application has waited on: referenced while
    /// in flight, or issued while it stalled on them. Such a read must
    /// complete before the run ends.
    awaited: HashSet<BlockId>,
    /// The run acts on a predictor's guesses, so a read can fetch a wrong
    /// guess nothing waits on, which may still be in flight at the end.
    predicted: bool,
    queue_depth: Vec<usize>,
    in_service: Vec<Option<InService>>,
    stalled: Option<(BlockId, Nanos)>,
    stalls_begun: u64,
    stalls_ended: u64,
    total_stall_window: Nanos,
    /// Charged stall folded per cause from [`Event::StallEnd`], indexed
    /// by [`StallCause::index`]; reconciled against the report's
    /// breakdown and its `stall` total at finish.
    stall_charged: [Nanos; 5],
    fetches_issued: u64,
    writes_issued: u64,
    reads_completed: u64,
    writes_completed: u64,
    faults_injected: u64,
    retries_issued: u64,
    abandoned_reads: u64,
    abandoned_writes: u64,
    media_errors: Vec<u64>,
    degraded_since: Vec<Option<Nanos>>,
    degraded_observed: Vec<Nanos>,
    events: u64,
    violations: Vec<AuditViolation>,
    suppressed: u64,
}

impl AuditProbe {
    /// An audit for one run under `config`.
    pub(crate) fn new(config: &SimConfig) -> AuditProbe {
        AuditProbe {
            capacity: config.cache_blocks,
            disk_model: config.disk_model,
            faulted_plan: !config.faults.is_empty(),
            last_time: Nanos::ZERO,
            resident: HashSet::new(),
            inflight: HashSet::new(),
            awaited: HashSet::new(),
            predicted: matches!(config.hint_mode, crate::predict::HintMode::Predicted(_)),
            queue_depth: vec![0; config.disks],
            in_service: vec![None; config.disks],
            stalled: None,
            stalls_begun: 0,
            stalls_ended: 0,
            total_stall_window: Nanos::ZERO,
            stall_charged: [Nanos::ZERO; 5],
            fetches_issued: 0,
            writes_issued: 0,
            reads_completed: 0,
            writes_completed: 0,
            faults_injected: 0,
            retries_issued: 0,
            abandoned_reads: 0,
            abandoned_writes: 0,
            media_errors: vec![0; config.disks],
            degraded_since: vec![None; config.disks],
            degraded_observed: vec![Nanos::ZERO; config.disks],
            events: 0,
            violations: Vec::new(),
            suppressed: 0,
        }
    }

    /// Violations recorded so far.
    #[cfg(test)]
    pub(crate) fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    fn violate(&mut self, time: Nanos, rule: &'static str, detail: String) {
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(AuditViolation { time, rule, detail });
        } else {
            self.suppressed += 1;
        }
    }

    /// Consumes the audit, reconciling the engine's [`Report`] against
    /// the independently folded event totals.
    pub(crate) fn finish(mut self, report: &Report) -> AuditOutcome {
        let t = report.elapsed;

        // Every read the application waited on must have completed: a
        // referenced block holds the application until it arrives, so
        // nothing it waits on can be in flight when the last reference
        // has been consumed. Under exact hints every fetched block is
        // referenced after its issue, so that is every read. Under a
        // predictor's hints a wrong guess may be fetched and never
        // referenced; such a read may still be in flight at the end,
        // wasted bandwidth and nothing else.
        let mut left: Vec<u64> = self
            .inflight
            .iter()
            .filter(|b| !self.predicted || self.awaited.contains(b))
            .map(|b| b.raw())
            .collect();
        let unawaited = (self.inflight.len() - left.len()) as u64;
        if !left.is_empty() {
            left.sort_unstable();
            self.violate(
                t,
                "fetch-completion",
                format!(
                    "{} fetch(es) still in flight at end of run: {left:?}",
                    left.len()
                ),
            );
        }
        // Every issued fetch resolves exactly once: a successful read
        // completion or an abandonment after the retry budget is spent,
        // unless it is an unawaited wrong guess still in flight.
        if self.reads_completed + self.abandoned_reads + unawaited != self.fetches_issued {
            self.violate(
                t,
                "fetch-completion",
                format!(
                    "{} fetches issued but {} read completions + {} abandonments + {} \
                     unawaited wrong guesses in flight observed",
                    self.fetches_issued, self.reads_completed, self.abandoned_reads, unawaited
                ),
            );
        }
        if self.writes_completed + self.abandoned_writes > self.writes_issued {
            self.violate(
                t,
                "write-completion",
                format!(
                    "{} writes issued but {} completions + {} abandonments observed",
                    self.writes_issued, self.writes_completed, self.abandoned_writes
                ),
            );
        }
        if self.stalls_begun != self.stalls_ended || self.stalled.is_some() {
            self.violate(
                t,
                "stall-balance",
                format!(
                    "{} stalls begun, {} ended, open stall: {:?}",
                    self.stalls_begun, self.stalls_ended, self.stalled
                ),
            );
        }
        if self.last_time > t {
            self.violate(
                t,
                "event-horizon",
                format!(
                    "events observed at {} past the reported elapsed time {t}",
                    self.last_time
                ),
            );
        }

        // The breakdown identity, with checked arithmetic: a saturating
        // subtraction in the engine clamping a component would surface
        // here as a sum mismatch, never as a silent zero.
        match report
            .compute
            .checked_add(report.driver)
            .and_then(|s| s.checked_add(report.stall))
        {
            Some(sum) if sum == report.elapsed => {}
            sum => self.violate(
                t,
                "breakdown-identity",
                format!(
                    "elapsed {} != compute {} + driver {} + stall {} (sum {sum:?})",
                    report.elapsed, report.compute, report.driver, report.stall
                ),
            ),
        }
        // Stall windows cover every instant outside the CPU timeline, so
        // the report's stall component can never exceed their sum.
        if report.stall > self.total_stall_window {
            self.violate(
                t,
                "stall-cover",
                format!(
                    "reported stall {} exceeds total observed stall windows {}",
                    report.stall, self.total_stall_window
                ),
            );
        }
        // Stall provenance conservation: the per-cause charges folded
        // from the event stream sum to the reported stall exactly — no
        // stall nanosecond unattributed, none double-counted — and match
        // the report's own breakdown cause for cause.
        let charged_sum = self
            .stall_charged
            .iter()
            .try_fold(Nanos::ZERO, |acc, &c| acc.checked_add(c));
        match charged_sum {
            Some(sum) if sum == report.stall => {}
            sum => self.violate(
                t,
                "stall-attribution",
                format!(
                    "per-cause stall charges sum to {sum:?}, report says stall {}",
                    report.stall
                ),
            ),
        }
        for &cause in &StallCause::ALL {
            let observed = self.stall_charged[cause.index()];
            let reported = report.stall_by_cause.get(cause);
            if observed != reported {
                self.violate(
                    t,
                    "stall-attribution",
                    format!(
                        "event stream charged {observed} to {}, report says {reported}",
                        cause.name()
                    ),
                );
            }
        }

        if report.fetches != self.fetches_issued {
            self.violate(
                t,
                "fetch-count",
                format!(
                    "report says {} fetches, event stream saw {}",
                    report.fetches, self.fetches_issued
                ),
            );
        }
        if report.writes != self.writes_issued {
            self.violate(
                t,
                "write-count",
                format!(
                    "report says {} writes, event stream saw {}",
                    report.writes, self.writes_issued
                ),
            );
        }
        // Disk-side conservation: every *successfully* served request was
        // either a completed read fetch or a completed write-behind
        // flush. Faulted attempts add busy time but never count as
        // served, so the identity holds under fault injection too.
        let served: u64 = report.per_disk.iter().map(|d| d.served).sum();
        if served != self.reads_completed + self.writes_completed {
            self.violate(
                t,
                "served-conservation",
                format!(
                    "disks served {served} != completed reads {} + completed writes {}",
                    self.reads_completed, self.writes_completed
                ),
            );
        }
        for (i, d) in report.per_disk.iter().enumerate() {
            if d.busy > report.elapsed {
                self.violate(
                    t,
                    "busy-bound",
                    format!("disk {i} busy {} > elapsed {}", d.busy, report.elapsed),
                );
            }
        }
        self.reconcile_faults(report);

        // Theory cross-check: under the uniform model the elapsed time
        // and per-disk busy times have exact lower bounds (§2.1).
        if let DiskModelKind::Uniform(f) = self.disk_model {
            let bound = uniform_elapsed_lower_bound(report, f);
            if report.elapsed < bound {
                self.violate(
                    t,
                    "uniform-lower-bound",
                    format!("elapsed {} below theoretical bound {bound}", report.elapsed),
                );
            }
            for (i, d) in report.per_disk.iter().enumerate() {
                match f.checked_mul(d.served) {
                    Some(min_busy) if d.busy >= min_busy => {}
                    min_busy => self.violate(
                        t,
                        "uniform-busy",
                        format!("disk {i} busy {} below served x F ({min_busy:?})", d.busy),
                    ),
                }
            }
        }

        AuditOutcome {
            events: self.events,
            violations: self.violations,
            suppressed: self.suppressed,
        }
    }

    /// End-of-run fault accounting: the event stream's fault, retry,
    /// abandonment, and degraded-window totals must agree with each
    /// other and with the report's [`crate::engine::FaultSummary`].
    fn reconcile_faults(&mut self, report: &Report) {
        let t = report.elapsed;
        let abandoned = self.abandoned_reads + self.abandoned_writes;
        // Every injected fault is answered by exactly one retry or one
        // abandonment.
        if self.faults_injected != self.retries_issued + abandoned {
            self.violate(
                t,
                "fault-balance",
                format!(
                    "{} faults injected != {} retries + {abandoned} abandonments",
                    self.faults_injected, self.retries_issued
                ),
            );
        }
        // Each drive's failed counter is exactly its media-error faults:
        // outage rejections never reach the platters.
        for (i, d) in report.per_disk.iter().enumerate() {
            let seen = self.media_errors.get(i).copied().unwrap_or(0);
            if d.failed != seen {
                self.violate(
                    t,
                    "failed-count",
                    format!(
                        "disk {i} reports {} failed services, event stream saw {seen} media errors",
                        d.failed
                    ),
                );
            }
        }
        // Integrate degraded windows still open at end of run, clipped
        // to the reported elapsed time like the engine's summary.
        for i in 0..self.degraded_since.len() {
            if let Some(since) = self.degraded_since[i].take() {
                if since <= t {
                    self.degraded_observed[i] += t - since;
                }
            }
        }
        match &report.fault {
            None => {
                let degraded: Nanos = self.degraded_observed.iter().copied().sum();
                if self.faulted_plan || self.faults_injected > 0 || degraded > Nanos::ZERO {
                    self.violate(
                        t,
                        "fault-report",
                        format!(
                            "fault activity observed ({} faults, {degraded} degraded) \
                             but the report carries no fault summary",
                            self.faults_injected
                        ),
                    );
                }
            }
            Some(f) => {
                if !self.faulted_plan {
                    self.violate(
                        t,
                        "fault-report",
                        "report carries a fault summary but the config declares no fault plan"
                            .to_string(),
                    );
                }
                if f.faults_injected != self.faults_injected
                    || f.retries != self.retries_issued
                    || f.abandoned != abandoned
                {
                    self.violate(
                        t,
                        "fault-count",
                        format!(
                            "report says {}/{}/{} faults/retries/abandoned, \
                             event stream saw {}/{}/{abandoned}",
                            f.faults_injected,
                            f.retries,
                            f.abandoned,
                            self.faults_injected,
                            self.retries_issued
                        ),
                    );
                }
                if f.per_disk_degraded != self.degraded_observed {
                    self.violate(
                        t,
                        "degraded-time",
                        format!(
                            "report degraded {:?} != event-integrated {:?}",
                            f.per_disk_degraded, self.degraded_observed
                        ),
                    );
                }
                let total: Nanos = f.per_disk_degraded.iter().copied().sum();
                let expect = if t == Nanos::ZERO {
                    1.0
                } else {
                    1.0 - total.as_nanos() as f64 / (t.as_nanos() as f64 * report.disks as f64)
                };
                if (f.availability - expect).abs() > 1e-9 {
                    self.violate(
                        t,
                        "availability",
                        format!(
                            "report availability {} != {expect} recomputed from degraded time",
                            f.availability
                        ),
                    );
                }
            }
        }
    }
}

impl Probe for AuditProbe {
    fn on_event(&mut self, event: &Event) {
        self.events += 1;
        let now = event.time();
        if now < self.last_time {
            self.violate(
                now,
                "monotone-time",
                format!("event {} at {now} before {}", event.kind(), self.last_time),
            );
        }
        self.last_time = self.last_time.max(now);

        match *event {
            Event::PolicyDecision { .. } => {}
            Event::CacheHit { block, .. } => {
                if self.inflight.contains(&block) {
                    self.awaited.insert(block);
                }
                if !self.resident.contains(&block) {
                    self.violate(
                        now,
                        "hit-residency",
                        format!("hit on non-resident block {}", block.raw()),
                    );
                }
            }
            Event::CacheMiss { block, .. } => {
                if self.inflight.contains(&block) {
                    self.awaited.insert(block);
                }
                if self.resident.contains(&block) {
                    self.violate(
                        now,
                        "miss-residency",
                        format!("miss on resident block {}", block.raw()),
                    );
                }
            }
            Event::Eviction { block, .. } => {
                if let Some((stalled_on, _)) = self.stalled {
                    if stalled_on == block {
                        self.violate(
                            now,
                            "evict-pinned",
                            format!(
                                "evicted block {} while the application stalls on it",
                                block.raw()
                            ),
                        );
                    }
                }
                if !self.resident.remove(&block) {
                    self.violate(
                        now,
                        "evict-resident",
                        format!("evicted non-resident block {}", block.raw()),
                    );
                }
            }
            Event::FetchIssued { block, .. } => {
                self.fetches_issued += 1;
                if self.resident.contains(&block) {
                    self.violate(
                        now,
                        "fetch-resident",
                        format!("fetch issued for resident block {}", block.raw()),
                    );
                }
                if self.stalled.is_some_and(|(on, _)| on == block) {
                    self.awaited.insert(block);
                }
                if !self.inflight.insert(block) {
                    self.violate(
                        now,
                        "fetch-duplicate",
                        format!("fetch issued for already-in-flight block {}", block.raw()),
                    );
                }
                if self.resident.len() + self.inflight.len() > self.capacity {
                    self.violate(
                        now,
                        "frame-conservation",
                        format!(
                            "{} resident + {} in flight exceeds {} frames",
                            self.resident.len(),
                            self.inflight.len(),
                            self.capacity
                        ),
                    );
                }
            }
            Event::WriteIssued { .. } => {
                self.writes_issued += 1;
            }
            Event::QueueDepth { disk, depth, .. } => {
                let d = disk.index();
                self.queue_depth[d] += 1;
                if self.queue_depth[d] != depth {
                    self.violate(
                        now,
                        "queue-depth",
                        format!(
                            "disk {d} arrival depth {depth} but audit tracks {}",
                            self.queue_depth[d]
                        ),
                    );
                    self.queue_depth[d] = depth; // resync to limit cascades
                }
            }
            Event::FetchStarted {
                block,
                disk,
                completes,
                ..
            } => {
                let d = disk.index();
                if completes < now {
                    self.violate(
                        now,
                        "service-causality",
                        format!("disk {d} service completes at {completes}, before it starts"),
                    );
                }
                if let Some(prev) = self.in_service[d] {
                    self.violate(
                        now,
                        "single-service",
                        format!(
                            "disk {d} started block {} while block {} is in service",
                            block.raw(),
                            prev.block.raw()
                        ),
                    );
                }
                self.in_service[d] = Some(InService { block, completes });
            }
            Event::FetchCompleted {
                block,
                disk,
                write,
                service,
                response,
                depth,
                faulted,
                ..
            } => {
                let d = disk.index();
                match self.in_service[d].take() {
                    Some(s) if s.block == block => {
                        if s.completes != now {
                            self.violate(
                                now,
                                "service-schedule",
                                format!(
                                    "disk {d} block {} completed at {now}, scheduled for {}",
                                    block.raw(),
                                    s.completes
                                ),
                            );
                        }
                    }
                    other => {
                        self.violate(
                            now,
                            "single-service",
                            format!(
                                "disk {d} completed block {} but audit tracks {other:?}",
                                block.raw()
                            ),
                        );
                    }
                }
                if response < service {
                    self.violate(
                        now,
                        "response-bound",
                        format!("disk {d} response {response} shorter than service {service}"),
                    );
                }
                if self.queue_depth[d] == 0 {
                    self.violate(
                        now,
                        "queue-depth",
                        format!("disk {d} completion with audit depth already zero"),
                    );
                } else {
                    self.queue_depth[d] -= 1;
                }
                if self.queue_depth[d] != depth {
                    self.violate(
                        now,
                        "queue-depth",
                        format!(
                            "disk {d} completion depth {depth} but audit tracks {}",
                            self.queue_depth[d]
                        ),
                    );
                    self.queue_depth[d] = depth;
                }
                if write {
                    // A faulted flush is abandoned, not served: only
                    // clean completions count toward the write total.
                    if !faulted {
                        self.writes_completed += 1;
                    }
                } else if faulted {
                    // A media error keeps the fetch in flight — the
                    // frame stays reserved until the driver retries or
                    // abandons the request.
                    if !self.inflight.contains(&block) {
                        self.violate(
                            now,
                            "fetch-completion",
                            format!(
                                "faulted completion of block {} that was never issued",
                                block.raw()
                            ),
                        );
                    }
                } else {
                    self.reads_completed += 1;
                    self.awaited.remove(&block);
                    if !self.inflight.remove(&block) {
                        self.violate(
                            now,
                            "fetch-completion",
                            format!("completion of block {} that was never issued", block.raw()),
                        );
                    }
                    if !self.resident.insert(block) {
                        self.violate(
                            now,
                            "frame-conservation",
                            format!("completed block {} was already resident", block.raw()),
                        );
                    }
                }
            }
            Event::StallBegin { block, .. } => {
                self.stalls_begun += 1;
                if let Some((open, since)) = self.stalled {
                    self.violate(
                        now,
                        "stall-balance",
                        format!(
                            "stall on block {} begins while stall on {} (since {since}) is open",
                            block.raw(),
                            open.raw()
                        ),
                    );
                }
                if self.resident.contains(&block) {
                    self.violate(
                        now,
                        "stall-residency",
                        format!("stall began on resident block {}", block.raw()),
                    );
                }
                self.stalled = Some((block, now));
            }
            Event::StallEnd {
                block,
                stalled,
                cause,
                charged,
                ..
            } => {
                self.stalls_ended += 1;
                // The charged part of a stall is the window minus driver
                // work issued inside it — it can never exceed the window.
                if charged > stalled {
                    self.violate(
                        now,
                        "stall-attribution",
                        format!(
                            "stall on block {} charged {charged} to {} but its window was only {stalled}",
                            block.raw(),
                            cause.name()
                        ),
                    );
                }
                self.stall_charged[cause.index()] += charged;
                match self.stalled.take() {
                    Some((open, since)) if open == block => {
                        let window = now - since;
                        if window != stalled {
                            self.violate(
                                now,
                                "stall-duration",
                                format!(
                                    "stall on block {} reported {stalled}, window was {window}",
                                    block.raw()
                                ),
                            );
                        }
                        self.total_stall_window += window;
                        if !self.resident.contains(&block) {
                            self.violate(
                                now,
                                "stall-residency",
                                format!("stall ended but block {} is not resident", block.raw()),
                            );
                        }
                    }
                    other => {
                        self.violate(
                            now,
                            "stall-balance",
                            format!(
                                "stall end for block {} but audit tracks {other:?}",
                                block.raw()
                            ),
                        );
                    }
                }
            }
            Event::FaultInjected {
                block,
                disk,
                write,
                cause,
                attempt,
                ..
            } => {
                self.faults_injected += 1;
                if matches!(cause, FaultCause::MediaError) {
                    self.media_errors[disk.index()] += 1;
                }
                if attempt == 0 {
                    self.violate(
                        now,
                        "fault-attempt",
                        format!("fault on block {} with a zero attempt count", block.raw()),
                    );
                }
                if !write && !self.inflight.contains(&block) {
                    self.violate(
                        now,
                        "fault-inflight",
                        format!("read fault on block {} that is not in flight", block.raw()),
                    );
                }
            }
            Event::RetryIssued { block, .. } => {
                self.retries_issued += 1;
                if !self.inflight.contains(&block) {
                    self.violate(
                        now,
                        "retry-inflight",
                        format!(
                            "retry issued for block {} that is not in flight",
                            block.raw()
                        ),
                    );
                }
            }
            Event::RequestAbandoned { block, write, .. } => {
                if write {
                    self.abandoned_writes += 1;
                } else {
                    self.abandoned_reads += 1;
                    self.awaited.remove(&block);
                    // Abandonment releases the reserved frame; a later
                    // completion of this block without a fresh issue now
                    // trips "fetch-completion" above.
                    if !self.inflight.remove(&block) {
                        self.violate(
                            now,
                            "abandon-inflight",
                            format!(
                                "abandoned fetch of block {} that is not in flight",
                                block.raw()
                            ),
                        );
                    }
                }
            }
            Event::DiskDegraded { disk, .. } => {
                let d = disk.index();
                if self.degraded_since[d].replace(now).is_some() {
                    self.violate(
                        now,
                        "degraded-balance",
                        format!("disk {d} entered a degraded window it is already in"),
                    );
                }
            }
            Event::DiskRecovered { disk, .. } => {
                let d = disk.index();
                match self.degraded_since[d].take() {
                    Some(since) => self.degraded_observed[d] += now - since,
                    None => self.violate(
                        now,
                        "degraded-balance",
                        format!("disk {d} recovered without entering a degraded window"),
                    ),
                }
            }
        }
    }
}

/// Runs `trace` under `policy` with the audit riding the probe stream;
/// returns the report together with the audit's verdict.
pub fn simulate_audited(
    trace: &Trace,
    policy: PolicyKind,
    config: &SimConfig,
) -> (Report, AuditOutcome) {
    let mut probe = AuditProbe::new(config);
    let report = crate::engine::simulate_probed(trace, policy, config, &mut probe);
    let outcome = probe.finish(&report);
    (report, outcome)
}

/// Audits a finished run: reruns `trace` under `policy` with the audit
/// riding the probe stream and returns the verdict. An audited report
/// that differs from `plain` is itself an `audit-transparency`
/// violation — the audit must never perturb the simulation it observes.
pub fn audit_rerun(
    trace: &Trace,
    policy: PolicyKind,
    config: &SimConfig,
    plain: &Report,
) -> AuditOutcome {
    let (audited, mut outcome) = simulate_audited(trace, policy, config);
    if audited != *plain {
        outcome.violations.push(AuditViolation {
            time: plain.elapsed,
            rule: "audit-transparency",
            detail: format!(
                "audited rerun of {}/{}/{} disks diverged from the plain report: \
                 elapsed {} vs {}, fetches {} vs {}",
                plain.trace,
                plain.policy,
                plain.disks,
                audited.elapsed,
                plain.elapsed,
                audited.fetches,
                plain.fetches
            ),
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::{theory_config, unit_trace};
    use parcache_types::DiskId;

    #[test]
    fn clean_run_has_no_violations() {
        let t = unit_trace(&[0, 1, 2, 3, 0, 1, 2, 3], 4);
        for kind in PolicyKind::ALL {
            let cfg = theory_config(2, 3, 4);
            let (report, audit) = simulate_audited(&t, kind, &cfg);
            assert!(audit.is_clean(), "{kind}: {:?}", audit.violations);
            assert!(audit.events > 0, "{kind} produced no events");
            assert_eq!(
                report.elapsed,
                report.compute + report.driver + report.stall
            );
            audit.assert_clean();
        }
    }

    #[test]
    fn audited_run_reports_match_unaudited() {
        let t = unit_trace(&[5, 3, 5, 1, 0, 2, 4, 1, 3], 4);
        for kind in PolicyKind::ALL {
            let cfg = theory_config(3, 4, 2);
            let plain = crate::engine::simulate(&t, kind, &cfg);
            let (audited, audit) = simulate_audited(&t, kind, &cfg);
            assert!(audit.is_clean(), "{kind}: {:?}", audit.violations);
            assert_eq!(plain, audited, "{kind}: audit changed the simulation");
        }
    }

    #[test]
    fn audit_rerun_flags_a_report_the_audited_run_does_not_reproduce() {
        let t = unit_trace(&[5, 3, 5, 1, 0, 2, 4, 1, 3], 4);
        let cfg = theory_config(3, 4, 2);
        let plain = crate::engine::simulate(&t, PolicyKind::Aggressive, &cfg);
        assert!(audit_rerun(&t, PolicyKind::Aggressive, &cfg, &plain).is_clean());
        let mut tampered = plain.clone();
        tampered.fetches += 1;
        let audit = audit_rerun(&t, PolicyKind::Aggressive, &cfg, &tampered);
        assert_eq!(audit.violations.len(), 1);
        assert_eq!(audit.violations[0].rule, "audit-transparency");
        let lines = audit.lines();
        assert!(
            lines[0].contains("elapsed") && lines[0].contains("fetches"),
            "{lines:?}"
        );
        let capped = AuditOutcome {
            suppressed: 3,
            ..audit
        };
        assert_eq!(capped.lines().last().unwrap(), "... and 3 more suppressed");
    }

    #[test]
    fn write_behind_runs_audit_clean() {
        let t = unit_trace(&[0, 1, 2, 0, 1, 2, 0, 1], 4);
        let mut cfg = theory_config(2, 4, 3);
        cfg.write_behind_period = Some(3);
        cfg.driver_overhead = Nanos::from_micros(500);
        for kind in PolicyKind::ALL {
            let (report, audit) = simulate_audited(&t, kind, &cfg);
            assert!(audit.is_clean(), "{kind}: {:?}", audit.violations);
            assert!(report.writes > 0, "{kind}");
        }
    }

    /// Synthetic event streams let each law be violated deliberately.
    fn probe_for(disks: usize, cache: usize) -> AuditProbe {
        let mut cfg = SimConfig::new(disks, cache);
        cfg.disk_model = DiskModelKind::Uniform(Nanos::from_millis(1));
        AuditProbe::new(&cfg)
    }

    fn rules(p: &AuditProbe) -> Vec<&'static str> {
        p.violations().iter().map(|v| v.rule).collect()
    }

    #[test]
    fn detects_time_running_backwards() {
        let mut p = probe_for(1, 4);
        p.on_event(&Event::PolicyDecision {
            now: Nanos::from_millis(5),
            cursor: 0,
        });
        p.on_event(&Event::PolicyDecision {
            now: Nanos::from_millis(4),
            cursor: 1,
        });
        assert_eq!(rules(&p), vec!["monotone-time"]);
    }

    #[test]
    fn detects_unmatched_fetch() {
        let mut p = probe_for(1, 4);
        p.on_event(&Event::FetchIssued {
            now: Nanos::ZERO,
            block: BlockId(1),
            disk: DiskId(0),
            demand: true,
            evicted: None,
        });
        let report = Report {
            trace: "t".into(),
            policy: "p".into(),
            disks: 1,
            elapsed: Nanos::ZERO,
            compute: Nanos::ZERO,
            driver: Nanos::ZERO,
            stall: Nanos::ZERO,
            stall_by_cause: crate::engine::StallBreakdown::ZERO,
            fetches: 1,
            writes: 0,
            avg_fetch_time: Nanos::ZERO,
            avg_disk_utilization: 0.0,
            per_disk: vec![Default::default()],
            fault: None,
            hints: None,
        };
        let out = p.finish(&report);
        assert!(!out.is_clean());
        assert!(
            out.violations.iter().any(|v| v.rule == "fetch-completion"),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn only_unawaited_wrong_guesses_may_end_in_flight() {
        // Under predicted hints a fetched wrong guess nothing references
        // may still be in flight at the end; a read the application
        // referenced after its issue may not.
        let report = |fetches| Report {
            trace: "t".into(),
            policy: "p".into(),
            disks: 1,
            elapsed: Nanos::ZERO,
            compute: Nanos::ZERO,
            driver: Nanos::ZERO,
            stall: Nanos::ZERO,
            stall_by_cause: crate::engine::StallBreakdown::ZERO,
            fetches,
            writes: 0,
            avg_fetch_time: Nanos::ZERO,
            avg_disk_utilization: 0.0,
            per_disk: vec![Default::default()],
            fault: None,
            hints: None,
        };
        let issue = |p: &mut AuditProbe, b| {
            p.on_event(&Event::FetchIssued {
                now: Nanos::ZERO,
                block: BlockId(b),
                disk: DiskId(0),
                demand: false,
                evicted: None,
            })
        };
        let predicted = || {
            let mut cfg = SimConfig::new(1, 4).with_hint_mode(crate::predict::HintMode::Predicted(
                crate::predict::PredictorKind::Sequential,
            ));
            cfg.disk_model = DiskModelKind::Uniform(Nanos::from_millis(1));
            AuditProbe::new(&cfg)
        };
        let completion =
            |out: &AuditOutcome| out.violations.iter().any(|v| v.rule == "fetch-completion");
        let mut p = predicted();
        issue(&mut p, 1);
        let out = p.finish(&report(1));
        assert!(!completion(&out), "{:?}", out.violations);
        let mut p = predicted();
        issue(&mut p, 1);
        p.on_event(&Event::CacheMiss {
            now: Nanos::ZERO,
            block: BlockId(1),
        });
        let out = p.finish(&report(1));
        assert!(completion(&out), "{:?}", out.violations);
        // Oracle hints: any read left in flight is a violation.
        let mut p = probe_for(1, 4);
        issue(&mut p, 1);
        assert!(completion(&p.finish(&report(1))));
    }

    #[test]
    fn detects_frame_overcommit_and_duplicates() {
        let mut p = probe_for(1, 1);
        for b in 0..2 {
            p.on_event(&Event::FetchIssued {
                now: Nanos::ZERO,
                block: BlockId(b),
                disk: DiskId(0),
                demand: false,
                evicted: None,
            });
        }
        assert!(rules(&p).contains(&"frame-conservation"), "{:?}", rules(&p));
        let mut p = probe_for(1, 4);
        p.on_event(&Event::Eviction {
            now: Nanos::ZERO,
            block: BlockId(9),
        });
        assert_eq!(rules(&p), vec!["evict-resident"]);
    }

    #[test]
    fn detects_queue_depth_drift() {
        let mut p = probe_for(2, 4);
        p.on_event(&Event::QueueDepth {
            now: Nanos::ZERO,
            disk: DiskId(1),
            depth: 3,
        });
        assert_eq!(rules(&p), vec!["queue-depth"]);
    }

    #[test]
    fn detects_doctored_report() {
        let t = unit_trace(&[0, 1, 2, 3], 4);
        let cfg = theory_config(2, 4, 2);
        let mut probe = AuditProbe::new(&cfg);
        let mut report = crate::engine::simulate_probed(&t, PolicyKind::Demand, &cfg, &mut probe);
        // Tamper with the breakdown the way the old saturating
        // subtraction silently did.
        report.stall = Nanos::ZERO;
        let out = probe.finish(&report);
        assert!(
            out.violations
                .iter()
                .any(|v| v.rule == "breakdown-identity"),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn detects_stall_imbalance() {
        let mut p = probe_for(1, 4);
        p.on_event(&Event::StallEnd {
            now: Nanos::from_millis(1),
            block: BlockId(3),
            stalled: Nanos::from_millis(1),
            cause: StallCause::NoPrefetch,
            charged: Nanos::from_millis(1),
        });
        assert_eq!(rules(&p), vec!["stall-balance"]);
    }

    #[test]
    fn uniform_lower_bound_catches_impossible_elapsed() {
        let t = unit_trace(&[0, 1, 2, 3, 4, 5], 4);
        let cfg = theory_config(1, 4, 5);
        let mut probe = AuditProbe::new(&cfg);
        let mut report = crate::engine::simulate_probed(&t, PolicyKind::Demand, &cfg, &mut probe);
        // Claim the run finished faster than one disk could possibly
        // serve its fetches; keep the breakdown internally consistent.
        report.elapsed = Nanos::from_millis(7);
        report.compute = Nanos::from_millis(6);
        report.driver = Nanos::ZERO;
        report.stall = Nanos::from_millis(1);
        let out = probe.finish(&report);
        assert!(
            out.violations
                .iter()
                .any(|v| v.rule == "uniform-lower-bound"),
            "{:?}",
            out.violations
        );
    }

    fn mixed_fault_config() -> SimConfig {
        use parcache_disk::FaultPlan;
        theory_config(2, 4, 3).with_faults(
            FaultPlan::parse("flaky:*:0.25,slow:0:2:20:2,outage:1:4:12,seed:11")
                .expect("test fault spec parses"),
        )
    }

    #[test]
    fn faulted_runs_audit_clean() {
        // Media errors, a fail-slow window, and an outage together: every
        // conservation law — including the fault/retry/abandonment
        // balance and the event-integrated degraded time — must hold.
        let blocks: Vec<u64> = (0..32).map(|i| i % 9).collect();
        let t = unit_trace(&blocks, 6);
        for kind in PolicyKind::ALL {
            let cfg = mixed_fault_config();
            let (report, audit) = simulate_audited(&t, kind, &cfg);
            assert!(audit.is_clean(), "{kind}: {:?}", audit.violations);
            let f = report.fault.as_ref().expect("faulted plan yields summary");
            assert_eq!(f.faults_injected, f.retries + f.abandoned, "{kind}");
        }
    }

    #[test]
    fn detects_doctored_fault_summary() {
        let t = unit_trace(&[0, 1, 2, 3, 0, 1, 2, 3], 4);
        let cfg = mixed_fault_config();
        let mut probe = AuditProbe::new(&cfg);
        let mut report = crate::engine::simulate_probed(&t, PolicyKind::Demand, &cfg, &mut probe);
        if let Some(f) = report.fault.as_mut() {
            f.retries += 1;
        }
        let out = probe.finish(&report);
        assert!(
            out.violations.iter().any(|v| v.rule == "fault-count"),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn detects_missing_fault_summary() {
        let t = unit_trace(&[0, 1, 2, 3], 4);
        let cfg = mixed_fault_config();
        let mut probe = AuditProbe::new(&cfg);
        let mut report = crate::engine::simulate_probed(&t, PolicyKind::Demand, &cfg, &mut probe);
        report.fault = None;
        let out = probe.finish(&report);
        assert!(
            out.violations.iter().any(|v| v.rule == "fault-report"),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn detects_unbalanced_degraded_windows() {
        let mut p = probe_for(2, 4);
        p.on_event(&Event::DiskRecovered {
            now: Nanos::from_millis(1),
            disk: DiskId(1),
        });
        assert_eq!(rules(&p), vec!["degraded-balance"]);
        let mut p = probe_for(2, 4);
        p.on_event(&Event::DiskDegraded {
            now: Nanos::ZERO,
            disk: DiskId(0),
        });
        p.on_event(&Event::DiskDegraded {
            now: Nanos::from_millis(1),
            disk: DiskId(0),
        });
        assert_eq!(rules(&p), vec!["degraded-balance"]);
    }

    #[test]
    fn detects_retry_of_unissued_block() {
        let mut p = probe_for(1, 4);
        p.on_event(&Event::RetryIssued {
            now: Nanos::ZERO,
            block: BlockId(7),
            disk: DiskId(0),
            attempt: 1,
        });
        assert_eq!(rules(&p), vec!["retry-inflight"]);
    }

    #[test]
    fn violation_recording_is_capped() {
        let mut p = probe_for(1, 4);
        for _ in 0..(MAX_RECORDED + 10) {
            p.on_event(&Event::Eviction {
                now: Nanos::ZERO,
                block: BlockId(42),
            });
        }
        assert_eq!(p.violations().len(), MAX_RECORDED);
        let report = Report {
            trace: "t".into(),
            policy: "p".into(),
            disks: 1,
            elapsed: Nanos::ZERO,
            compute: Nanos::ZERO,
            driver: Nanos::ZERO,
            stall: Nanos::ZERO,
            stall_by_cause: crate::engine::StallBreakdown::ZERO,
            fetches: 0,
            writes: 0,
            avg_fetch_time: Nanos::ZERO,
            avg_disk_utilization: 0.0,
            per_disk: vec![Default::default()],
            fault: None,
            hints: None,
        };
        let out = p.finish(&report);
        assert!(out.suppressed >= 10, "{}", out.suppressed);
        assert!(!out.is_clean());
    }
}
