//! A single drive: service-time model + request queue + head scheduler.
//!
//! Fetches to one disk are serialized (§2.1); the drive serves one request
//! at a time, choosing the next per its [`Discipline`] whenever it becomes
//! idle and the queue is non-empty.

use crate::geometry::SectorSpan;
use crate::model::{DiskModel, ServiceOutcome};
use crate::probe::DiskEvent;
use crate::sched::Discipline;
use parcache_types::{BlockId, Nanos};

/// Whether a request reads or writes the media. The paper's evaluation is
/// read-only (§3); writes exist for the write-behind extension (§6) and
/// are serviced with identical mechanics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A (pre)fetch.
    Read,
    /// A write-behind flush.
    Write,
}

/// A queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// The logical block involved (opaque to the drive; carried so the
    /// caller can tell which request completed).
    pub block: BlockId,
    /// The caller's tag for the request (opaque to the drive), handed
    /// back in [`Completed::tag`].
    pub tag: u32,
    /// Read or write.
    pub kind: ReqKind,
    /// The physical sectors accessed.
    pub span: SectorSpan,
    /// The cylinder of the span's first sector, computed once at enqueue
    /// for the scheduling discipline (drive geometry is fixed).
    pub cylinder: u64,
    /// When the request entered the queue.
    pub enqueued: Nanos,
    /// Global arrival sequence number (FCFS key, tie-breaker elsewhere).
    pub seq: u64,
}

/// Whether [`Disk::enqueue`] accepted the request. A drive inside a hard
/// outage window rejects new arrivals; the caller decides whether to
/// retry later or abandon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a rejected request was not queued and will never complete"]
pub enum EnqueueOutcome {
    /// The request entered the queue.
    Accepted,
    /// The drive is out of service; nothing was queued.
    Rejected,
}

impl EnqueueOutcome {
    /// True when the request was turned away.
    pub fn is_rejected(&self) -> bool {
        *self == EnqueueOutcome::Rejected
    }
}

/// A request currently being serviced: what its completion reports,
/// and nothing the scheduler needed to pick it.
#[derive(Debug, Clone, Copy)]
struct InService {
    block: BlockId,
    tag: u32,
    kind: ReqKind,
    enqueued: Nanos,
    started: Nanos,
    completes: Nanos,
    outcome: ServiceOutcome,
}

/// A finished request, as reported by [`Disk::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completed {
    /// The block involved.
    pub block: BlockId,
    /// The tag the request was enqueued with.
    pub tag: u32,
    /// Pure service time (completion minus service start).
    pub service: Nanos,
    /// Response time (completion minus enqueue).
    pub response: Nanos,
    /// Read or write.
    pub kind: ReqKind,
    /// Whether the attempt delivered its data ([`ServiceOutcome::Ok`] on
    /// a healthy drive; a media error means the caller must retry).
    pub outcome: ServiceOutcome,
}

/// Aggregate per-drive statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    /// Requests fully and successfully serviced.
    pub served: u64,
    /// Attempts that ended in a media error. The time they burned is in
    /// `busy`, but they contribute to no other field.
    pub failed: u64,
    /// Total time the drive spent servicing requests (successful or not).
    pub busy: Nanos,
    /// Sum of response times (completion minus enqueue) over successful
    /// requests, for averages.
    pub total_response: Nanos,
    /// Sum of pure service times over successful requests.
    pub total_service: Nanos,
}

impl DiskStats {
    /// Mean response time (queueing + service) per request, rounded to
    /// the nearest nanosecond.
    pub fn avg_response(&self) -> Nanos {
        self.total_response.div_rounded(self.served)
    }

    /// Mean pure service time per request, rounded to the nearest
    /// nanosecond.
    pub fn avg_service(&self) -> Nanos {
        self.total_service.div_rounded(self.served)
    }
}

/// One drive of the array.
pub struct Disk {
    model: Box<dyn DiskModel>,
    discipline: Discipline,
    queue: Vec<Pending>,
    in_service: Option<InService>,
    /// The model's head cylinder, read once per service start: the head
    /// moves only when the drive starts a request.
    head: u64,
    next_seq: u64,
    stats: DiskStats,
}

impl Disk {
    /// Creates a drive from a model and a scheduling discipline.
    pub fn new(model: Box<dyn DiskModel>, discipline: Discipline) -> Disk {
        Disk {
            head: model.head_cylinder(),
            model,
            discipline,
            queue: Vec::new(),
            in_service: None,
            next_seq: 0,
            stats: DiskStats::default(),
        }
    }

    /// True when the drive is idle *and* has nothing queued — the "disk is
    /// free" condition the aggressive family of algorithms keys on.
    pub fn is_free(&self) -> bool {
        self.in_service.is_none() && self.queue.is_empty()
    }

    /// True when the drive is neither serving nor holding any request.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.in_service.is_none()
    }

    /// Number of requests waiting or in service.
    pub(crate) fn load(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    /// Enqueues a `kind` request of `span` for logical `block`, tagged
    /// `tag`, at time `now`, then starts it immediately if the drive is
    /// idle, reporting each [`DiskEvent`] to `observe`. Rejected (with no
    /// state change and no event) when the drive is inside a hard outage
    /// window.
    pub fn enqueue(
        &mut self,
        now: Nanos,
        block: BlockId,
        tag: u32,
        span: SectorSpan,
        kind: ReqKind,
        mut observe: impl FnMut(DiskEvent),
    ) -> EnqueueOutcome {
        if self.model.outage_until(now).is_some() {
            // Out of service: the arrival is turned away before it touches
            // any drive state, so no event is emitted and nothing leaks.
            return EnqueueOutcome::Rejected;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = Pending {
            block,
            tag,
            kind,
            span,
            cylinder: self.model.cylinder_of(span.start),
            enqueued: now,
            seq,
        };
        if self.in_service.is_some() {
            self.queue.push(request);
            observe(DiskEvent::Enqueued {
                block,
                kind,
                depth: self.load(),
            });
        } else {
            // The drive is idle, so its queue is empty and `now` is
            // outside any outage: the request starts at once, with no
            // round trip through the queue. The discipline still sees it,
            // alone, since SCAN may turn around for it.
            observe(DiskEvent::Enqueued {
                block,
                kind,
                depth: 1,
            });
            self.discipline
                .select(std::slice::from_ref(&request), self.head);
            self.start(now, &request, &mut observe);
        }
        EnqueueOutcome::Accepted
    }

    /// Begins servicing `request` at `start`.
    fn start(&mut self, start: Nanos, request: &Pending, observe: &mut impl FnMut(DiskEvent)) {
        let attempt = self.model.service_attempt(start, &request.span);
        self.head = self.model.head_cylinder();
        self.in_service = Some(InService {
            block: request.block,
            tag: request.tag,
            kind: request.kind,
            enqueued: request.enqueued,
            started: start,
            completes: attempt.completes,
            outcome: attempt.outcome,
        });
        observe(DiskEvent::ServiceStarted {
            block: request.block,
            kind: request.kind,
            head_cylinder: self.head,
            completes: attempt.completes,
        });
    }

    /// The completion time of the request in service, if any.
    pub fn next_completion(&self) -> Option<Nanos> {
        self.in_service.as_ref().map(|s| s.completes)
    }

    /// Completes the in-service request (which must complete at exactly
    /// `now`), records statistics, starts the next queued request, and
    /// returns the finished request, reporting each [`DiskEvent`] (the
    /// completion itself, plus the start of the next queued request, if
    /// any) to `observe`.
    ///
    /// # Panics
    ///
    /// Panics if no request is in service or if `now` is not its
    /// completion time — either indicates a broken event loop.
    pub fn complete(&mut self, now: Nanos, mut observe: impl FnMut(DiskEvent)) -> Completed {
        let s = self
            .in_service
            .take()
            .expect("complete() with no request in service");
        assert_eq!(s.completes, now, "completion processed at the wrong time");
        let done = Completed {
            block: s.block,
            tag: s.tag,
            service: s.completes - s.started,
            response: s.completes - s.enqueued,
            kind: s.kind,
            outcome: s.outcome,
        };
        if s.outcome.is_ok() {
            self.stats.served += 1;
            self.stats.busy += done.service;
            self.stats.total_service += done.service;
            self.stats.total_response += done.response;
        } else {
            // A media error burned real platter time (busy) but delivered
            // nothing, so it is kept out of every served-request average.
            self.stats.failed += 1;
            self.stats.busy += done.service;
        }
        observe(DiskEvent::ServiceCompleted {
            block: done.block,
            kind: done.kind,
            service: done.service,
            response: done.response,
            head_cylinder: self.head,
            // One queued request (if any) is about to enter service, so the
            // post-completion load equals the queue length.
            depth: self.queue.len(),
            outcome: s.outcome,
        });
        if !self.queue.is_empty() {
            // A request already in the queue when an outage begins is not
            // lost: its service start is deferred to the window's end, so
            // the completion event wakes the simulation exactly at
            // recovery. The loop handles back-to-back windows; outage
            // windows are merged by the fault plan, so it takes at most a
            // few steps.
            let mut start = now;
            while let Some(until) = self.model.outage_until(start) {
                start = until;
            }
            let idx = self
                .discipline
                .select(&self.queue, self.head)
                .expect("non-empty queue must select a request");
            let request = self.queue.swap_remove(idx);
            self.start(start, &request, &mut observe);
        }
        done
    }

    /// Accumulated statistics over *completed* requests only.
    ///
    /// A request still in service contributes nothing here; use
    /// `Disk::stats_at` for end-of-run accounting so partial in-service
    /// time is not lost.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Statistics as of `now`, crediting the partial service time of any
    /// request still on the platter (`started..min(now, completes)`).
    ///
    /// Without this, a run that ends while a request is in service
    /// undercounts `busy` — and therefore utilization — which is visible
    /// on short traces (the Table 4/8 metric).
    pub(crate) fn stats_at(&self, now: Nanos) -> DiskStats {
        let mut s = self.stats;
        s.busy += self.in_service_busy(now);
        s
    }

    /// Busy time accrued by the in-service request as of `now` (zero when
    /// the drive is idle, and zero while an outage defers the start past
    /// `now` — `Nanos` subtraction saturates, which is exactly right: a
    /// drive waiting out an outage is not busy).
    fn in_service_busy(&self, now: Nanos) -> Nanos {
        match &self.in_service {
            Some(s) => now.min(s.completes) - s.started,
            None => Nanos::ZERO,
        }
    }

    /// The block the drive is servicing right now, if any. Queued blocks
    /// are not in service: a stalled-on request that is merely queued is
    /// waiting on head contention, not on its own platter time — the
    /// distinction the engine's stall provenance needs.
    #[cfg(test)]
    pub(crate) fn in_service_block(&self) -> Option<BlockId> {
        self.in_service.as_ref().map(|s| s.block)
    }

    /// The block of the read the drive is servicing right now, `None`
    /// when idle or servicing a write-behind flush. A write delivers no
    /// data to a waiter, so provenance treats it as contention.
    pub(crate) fn in_service_read(&self) -> Option<BlockId> {
        self.in_service
            .as_ref()
            .filter(|s| s.kind == ReqKind::Read)
            .map(|s| s.block)
    }

    /// Blocks currently queued or in service (the drive's outstanding set).
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.queue
            .iter()
            .map(|p| p.block)
            .chain(self.in_service.iter().map(|s| s.block))
    }
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disk")
            .field("model", &self.model.name())
            .field("discipline", &self.discipline.name())
            .field("queued", &self.queue.len())
            .field("in_service", &self.in_service.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformDisk;

    /// Unwraps an [`EnqueueOutcome`] that must be `Accepted` (every test
    /// here runs on healthy drives unless it says otherwise).
    trait MustAccept {
        fn accepted(self);
    }
    impl MustAccept for EnqueueOutcome {
        fn accepted(self) {
            assert_eq!(self, EnqueueOutcome::Accepted);
        }
    }

    /// The drive's calls without an observer, as the tests make them.
    trait Unobserved {
        fn read(&mut self, now: Nanos, block: BlockId, span: SectorSpan) -> EnqueueOutcome;
        fn write(&mut self, now: Nanos, block: BlockId, span: SectorSpan) -> EnqueueOutcome;
        fn done(&mut self, now: Nanos) -> Completed;
    }

    impl Unobserved for Disk {
        fn read(&mut self, now: Nanos, block: BlockId, span: SectorSpan) -> EnqueueOutcome {
            self.enqueue(now, block, 0, span, ReqKind::Read, |_| {})
        }

        fn write(&mut self, now: Nanos, block: BlockId, span: SectorSpan) -> EnqueueOutcome {
            self.enqueue(now, block, 0, span, ReqKind::Write, |_| {})
        }

        fn done(&mut self, now: Nanos) -> Completed {
            self.complete(now, |_| {})
        }
    }

    fn uniform_disk(ms: u64) -> Disk {
        Disk::new(
            Box::new(UniformDisk::new(Nanos::from_millis(ms))),
            Discipline::Fcfs,
        )
    }

    #[test]
    fn serializes_requests() {
        let mut d = uniform_disk(10);
        d.read(Nanos::ZERO, BlockId(1), SectorSpan { start: 0, len: 16 })
            .accepted();
        d.read(Nanos::ZERO, BlockId(2), SectorSpan { start: 16, len: 16 })
            .accepted();
        assert_eq!(d.next_completion(), Some(Nanos::from_millis(10)));
        let first = d.done(Nanos::from_millis(10));
        assert_eq!(first.block, BlockId(1));
        assert_eq!(first.service, Nanos::from_millis(10));
        // Second request starts only after the first completes.
        assert_eq!(d.next_completion(), Some(Nanos::from_millis(20)));
        let second = d.done(Nanos::from_millis(20));
        assert_eq!(second.block, BlockId(2));
        // It waited 10ms in queue: response is 20ms.
        assert_eq!(second.response, Nanos::from_millis(20));
        assert!(d.is_free());
    }

    #[test]
    fn stats_accumulate() {
        let mut d = uniform_disk(5);
        d.read(Nanos::ZERO, BlockId(1), SectorSpan { start: 0, len: 16 })
            .accepted();
        d.read(Nanos::ZERO, BlockId(2), SectorSpan { start: 16, len: 16 })
            .accepted();
        d.done(Nanos::from_millis(5));
        d.done(Nanos::from_millis(10));
        let s = d.stats();
        assert_eq!(s.served, 2);
        assert_eq!(s.busy, Nanos::from_millis(10));
        assert_eq!(s.avg_service(), Nanos::from_millis(5));
        // Responses: 5ms and 10ms -> average 7.5ms.
        assert_eq!(s.avg_response(), Nanos(7_500_000));
    }

    #[test]
    fn load_and_outstanding() {
        let mut d = uniform_disk(5);
        assert_eq!(d.load(), 0);
        d.read(Nanos::ZERO, BlockId(9), SectorSpan { start: 0, len: 16 })
            .accepted();
        d.read(Nanos::ZERO, BlockId(8), SectorSpan { start: 16, len: 16 })
            .accepted();
        assert_eq!(d.load(), 2);
        let out: Vec<BlockId> = d.outstanding().collect();
        assert!(out.contains(&BlockId(9)) && out.contains(&BlockId(8)));
        assert!(!d.is_free());
        assert!(!d.is_idle());
    }

    #[test]
    #[should_panic(expected = "wrong time")]
    fn completing_at_wrong_time_panics() {
        let mut d = uniform_disk(5);
        d.read(Nanos::ZERO, BlockId(1), SectorSpan { start: 0, len: 16 })
            .accepted();
        d.done(Nanos::from_millis(99));
    }

    #[test]
    fn writes_share_the_queue_and_report_their_kind() {
        let mut d = uniform_disk(5);
        d.read(Nanos::ZERO, BlockId(1), SectorSpan { start: 0, len: 16 })
            .accepted();
        d.write(Nanos::ZERO, BlockId(2), SectorSpan { start: 16, len: 16 })
            .accepted();
        let first = d.done(Nanos::from_millis(5));
        assert_eq!((first.block, first.kind), (BlockId(1), ReqKind::Read));
        let second = d.done(Nanos::from_millis(10));
        assert_eq!((second.block, second.kind), (BlockId(2), ReqKind::Write));
        assert_eq!(d.stats().served, 2);
    }

    #[test]
    fn stats_at_credits_partial_in_service_time() {
        let mut d = uniform_disk(10);
        d.read(Nanos::ZERO, BlockId(1), SectorSpan { start: 0, len: 16 })
            .accepted();
        // Completed stats see nothing mid-service...
        assert_eq!(d.stats().busy, Nanos::ZERO);
        // ...but stats_at credits the elapsed portion,
        assert_eq!(
            d.stats_at(Nanos::from_millis(4)).busy,
            Nanos::from_millis(4)
        );
        // capped at the service time even past completion,
        assert_eq!(
            d.stats_at(Nanos::from_millis(99)).busy,
            Nanos::from_millis(10)
        );
        // and completion-only fields are untouched.
        assert_eq!(d.stats_at(Nanos::from_millis(4)).served, 0);
        // After completion the two views agree.
        d.done(Nanos::from_millis(10));
        assert_eq!(d.stats_at(Nanos::from_millis(10)), d.stats());
        assert_eq!(d.stats().busy, Nanos::from_millis(10));
    }

    use crate::fault::{FaultPlan, FaultyDisk};

    /// A 5ms uniform drive wrapped with the given fault spec.
    fn faulty_disk(spec: &str) -> Disk {
        let plan = FaultPlan::parse(spec).unwrap();
        Disk::new(
            Box::new(FaultyDisk::new(
                Box::new(UniformDisk::new(Nanos::from_millis(5))),
                plan.for_disk(0).unwrap(),
                plan.rng_for_disk(0),
            )),
            Discipline::Fcfs,
        )
    }

    #[test]
    fn outage_rejects_new_arrivals_without_touching_state() {
        let mut d = faulty_disk("outage:0:10:20");
        let span = SectorSpan { start: 0, len: 16 };
        assert!(d
            .read(Nanos::from_millis(15), BlockId(1), span)
            .is_rejected());
        assert!(d.is_free());
        assert_eq!(d.load(), 0);
        assert_eq!(d.stats(), DiskStats::default());
        // After the window the same request is accepted.
        d.read(Nanos::from_millis(20), BlockId(1), span).accepted();
        assert_eq!(d.next_completion(), Some(Nanos::from_millis(25)));
    }

    #[test]
    fn outage_defers_queued_service_to_window_end() {
        let mut d = faulty_disk("outage:0:10:20");
        let span = SectorSpan { start: 0, len: 16 };
        // Enqueued before the outage with a request ahead of it: when the
        // first completes at t=12 (mid-outage), the second's start defers
        // to t=20 and it completes at t=25.
        d.read(Nanos::from_millis(7), BlockId(1), span).accepted();
        d.read(
            Nanos::from_millis(7),
            BlockId(2),
            SectorSpan { start: 16, len: 16 },
        )
        .accepted();
        let first = d.done(Nanos::from_millis(12));
        assert_eq!(first.block, BlockId(1));
        assert_eq!(d.next_completion(), Some(Nanos::from_millis(25)));
        // Waiting out the outage is not busy time...
        assert_eq!(
            d.stats_at(Nanos::from_millis(15)).busy,
            Nanos::from_millis(5)
        );
        let second = d.done(Nanos::from_millis(25));
        // ...and the deferred wait shows up in response, not service.
        assert_eq!(second.service, Nanos::from_millis(5));
        assert_eq!(second.response, Nanos::from_millis(18));
    }

    #[test]
    fn media_errors_count_as_failed_not_served() {
        // p = 0.999…-ish would be flaky to assert on; instead drive the
        // RNG deterministically with a high probability and count both
        // outcomes over a fixed number of attempts.
        let mut d = faulty_disk("flaky:0:0.5,seed:11");
        let span = SectorSpan { start: 0, len: 16 };
        let mut t = Nanos::ZERO;
        for i in 0..32u64 {
            d.read(t, BlockId(i), span).accepted();
            t = d.next_completion().unwrap();
            let done = d.done(t);
            assert_eq!(done.service, Nanos::from_millis(5));
        }
        let s = d.stats();
        assert_eq!(s.served + s.failed, 32);
        assert!(s.failed > 0, "seed 11 must produce at least one error");
        assert!(s.served > 0, "seed 11 must produce at least one success");
        // Every attempt (failed or not) burned 5ms of platter time...
        assert_eq!(s.busy, Nanos::from_millis(5 * 32));
        // ...but the served averages exclude the failures.
        assert_eq!(s.total_service, Nanos::from_millis(5 * s.served));
        assert_eq!(s.avg_service(), Nanos::from_millis(5));
    }

    #[test]
    fn drives_built_from_one_fault_plan_replay_identically() {
        let span = SectorSpan { start: 0, len: 16 };
        let run = || -> (Vec<ServiceOutcome>, DiskStats) {
            let mut d = faulty_disk("flaky:0:0.5,seed:11");
            let mut outcomes = Vec::new();
            let mut t = Nanos::ZERO;
            for i in 0..32u64 {
                d.read(t, BlockId(i), span).accepted();
                t = d.next_completion().unwrap();
                outcomes.push(d.done(t).outcome);
            }
            (outcomes, d.stats())
        };
        // The fault stream is a pure function of the plan: a second drive
        // built from it replays the exact same error sequence.
        let (first, stats) = run();
        assert!(stats.failed > 0);
        let (second, stats2) = run();
        assert_eq!(first, second);
        assert_eq!(stats, stats2);
    }
}
