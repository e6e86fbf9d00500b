//! The probe layer: typed simulation events and the observer trait.
//!
//! A [`Probe`] receives every interesting thing the engine does — fetch
//! issue/start/completion, cache hits and misses, evictions, stalls,
//! policy decision points, write-behind flushes, and the drive layer's
//! queue-depth and head-position reports — as a typed [`Event`] stream.
//!
//! The default probe is [`NoopProbe`], a zero-sized type whose
//! [`Probe::ENABLED`] is `false`. The engine is generic over the probe, so
//! with the no-op every instrumentation site is statically dead and the
//! optimizer removes it: the uninstrumented hot path costs nothing.

#[cfg(test)]
use crate::json::Json;
use crate::json::{self, Obj};
use parcache_disk::disk::ReqKind;
use parcache_disk::model::ServiceOutcome;
use parcache_disk::probe::DiskEvent;
use parcache_types::{BlockId, DiskId, Nanos};

/// Why a fault was charged to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// The drive serviced the request but the data never arrived.
    MediaError,
    /// The drive was out of service and rejected the request outright.
    Rejected,
}

impl FaultCause {
    /// A short machine-readable tag.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultCause::MediaError => "media_error",
            FaultCause::Rejected => "rejected",
        }
    }

    /// The cause whose [`FaultCause::name`] is `name`, if any.
    #[cfg(test)]
    pub(crate) fn from_name(name: &str) -> Option<FaultCause> {
        match name {
            "media_error" => Some(FaultCause::MediaError),
            "rejected" => Some(FaultCause::Rejected),
            _ => None,
        }
    }
}

/// Why the application stalled: the typed provenance of one stall
/// interval, decided by the engine from the state of the awaited block at
/// the moment the stall began (and from faults charged to it while the
/// stall was open). Exactly one cause is assigned per stall, so the
/// per-cause charged-stall totals partition the report's stall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// A prefetch was issued in time to be on the platter, but had not
    /// finished when the application arrived: the policy acted, just not
    /// early enough.
    LatePrefetch,
    /// No fetch of the block was in flight when the reference arrived and
    /// the block had never been resident: the policy never acted (demand
    /// misses land here by construction).
    NoPrefetch,
    /// A fetch was in flight but sat in its drive's queue behind other
    /// work — or the drive was inside a declared degraded window — when
    /// the reference arrived: the array, not the policy's timing, is the
    /// bottleneck.
    DiskCongestion,
    /// The wait was bound up with driver fault handling: a fault was
    /// charged to the awaited block while the stall was open, or the
    /// block was already mid-retry when the stall began.
    FaultRetry,
    /// The block was resident earlier, lost its frame to an eviction, and
    /// the application missed on it again with no fetch in flight: a
    /// caching (replacement) failure rather than a prefetching one.
    EvictionRefetch,
}

impl StallCause {
    /// Every cause, in the order the per-cause accounting arrays use.
    pub const ALL: [StallCause; 5] = [
        StallCause::LatePrefetch,
        StallCause::NoPrefetch,
        StallCause::DiskCongestion,
        StallCause::FaultRetry,
        StallCause::EvictionRefetch,
    ];

    /// A short machine-readable tag.
    pub fn name(&self) -> &'static str {
        match self {
            StallCause::LatePrefetch => "late_prefetch",
            StallCause::NoPrefetch => "no_prefetch",
            StallCause::DiskCongestion => "congestion",
            StallCause::FaultRetry => "retry",
            StallCause::EvictionRefetch => "eviction_refetch",
        }
    }

    /// Index into [`StallCause::ALL`]-ordered accounting arrays.
    pub(crate) fn index(&self) -> usize {
        match self {
            StallCause::LatePrefetch => 0,
            StallCause::NoPrefetch => 1,
            StallCause::DiskCongestion => 2,
            StallCause::FaultRetry => 3,
            StallCause::EvictionRefetch => 4,
        }
    }

    /// The cause whose [`StallCause::name`] is `name`, if any.
    #[cfg(test)]
    pub(crate) fn from_name(name: &str) -> Option<StallCause> {
        StallCause::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// One simulation event, stamped with the simulated time it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The policy was given a decision point.
    PolicyDecision {
        /// Simulated time.
        now: Nanos,
        /// Index of the next unconsumed reference.
        cursor: usize,
    },
    /// A referenced block was already resident.
    CacheHit {
        /// Simulated time.
        now: Nanos,
        /// The referenced block.
        block: BlockId,
    },
    /// A referenced block was not resident (it may already be in flight).
    CacheMiss {
        /// Simulated time.
        now: Nanos,
        /// The referenced block.
        block: BlockId,
    },
    /// A resident block lost its frame to a fetch.
    Eviction {
        /// Simulated time.
        now: Nanos,
        /// The evicted block.
        block: BlockId,
    },
    /// The policy issued a fetch (frame reserved, request enqueued).
    FetchIssued {
        /// Simulated time.
        now: Nanos,
        /// The block fetched.
        block: BlockId,
        /// The drive it was routed to.
        disk: DiskId,
        /// True when issued from the demand-miss path rather than as a
        /// prefetch.
        demand: bool,
        /// The block evicted to make room, if any.
        evicted: Option<BlockId>,
    },
    /// A write-behind flush was issued.
    WriteIssued {
        /// Simulated time.
        now: Nanos,
        /// The block flushed.
        block: BlockId,
        /// The drive it was routed to.
        disk: DiskId,
    },
    /// A request joined a drive's queue (depth sampled after arrival).
    QueueDepth {
        /// Simulated time.
        now: Nanos,
        /// The drive.
        disk: DiskId,
        /// Queue length plus in-service count after the arrival.
        depth: usize,
    },
    /// A drive began servicing a request.
    FetchStarted {
        /// Simulated time.
        now: Nanos,
        /// The block being serviced.
        block: BlockId,
        /// The drive.
        disk: DiskId,
        /// True for a write-behind flush.
        write: bool,
        /// Head position (cylinder) after the seek for this request.
        head_cylinder: u64,
        /// When the service will complete.
        completes: Nanos,
    },
    /// A drive finished servicing a request.
    FetchCompleted {
        /// Simulated time.
        now: Nanos,
        /// The block serviced.
        block: BlockId,
        /// The drive.
        disk: DiskId,
        /// True for a write-behind flush.
        write: bool,
        /// Pure service time.
        service: Nanos,
        /// Response time (completion minus enqueue).
        response: Nanos,
        /// Head position (cylinder) where the request left the head.
        head_cylinder: u64,
        /// Drive load after the completion.
        depth: usize,
        /// True when the attempt ended in a media error (the time was
        /// spent but no data arrived; the driver decides what happens
        /// next). Always false on a healthy array.
        faulted: bool,
    },
    /// The application began waiting for a non-resident block.
    StallBegin {
        /// Simulated time.
        now: Nanos,
        /// The block being waited for.
        block: BlockId,
    },
    /// The application's wait ended.
    StallEnd {
        /// Simulated time.
        now: Nanos,
        /// The block that arrived.
        block: BlockId,
        /// How long the wait lasted (the full window, including driver
        /// overhead charged while it was open).
        stalled: Nanos,
        /// Why the application stalled.
        cause: StallCause,
        /// Stall time charged to `cause`: the window minus the driver
        /// overhead charged inside it. Summed over all stalls this equals
        /// the report's stall component exactly.
        charged: Nanos,
    },
    /// A fault was charged to a request: a media error on completion, or
    /// an out-of-service drive rejecting the issue.
    FaultInjected {
        /// Simulated time.
        now: Nanos,
        /// The affected block.
        block: BlockId,
        /// The faulting drive.
        disk: DiskId,
        /// True for a write-behind flush.
        write: bool,
        /// What went wrong.
        cause: FaultCause,
        /// How many faults this request has now absorbed (1-based).
        attempt: u32,
    },
    /// The driver re-issued a faulted fetch after its backoff expired.
    RetryIssued {
        /// Simulated time.
        now: Nanos,
        /// The block being retried.
        block: BlockId,
        /// The drive it is routed to.
        disk: DiskId,
        /// Which retry this is (1-based, matching the fault it answers).
        attempt: u32,
    },
    /// The driver gave up on a request (retry budget or timeout spent,
    /// or a best-effort write faulted).
    RequestAbandoned {
        /// Simulated time.
        now: Nanos,
        /// The abandoned block.
        block: BlockId,
        /// The drive that kept faulting.
        disk: DiskId,
        /// True for a write-behind flush.
        write: bool,
        /// Faults absorbed before giving up.
        attempts: u32,
    },
    /// A drive entered a declared degraded window (fail-slow or outage).
    DiskDegraded {
        /// Simulated time.
        now: Nanos,
        /// The degraded drive.
        disk: DiskId,
    },
    /// A drive left its degraded window.
    DiskRecovered {
        /// Simulated time.
        now: Nanos,
        /// The recovered drive.
        disk: DiskId,
    },
}

impl Event {
    /// Wraps a drive-layer event into the simulation event stream.
    pub(crate) fn from_disk(now: Nanos, disk: DiskId, e: DiskEvent) -> Event {
        match e {
            DiskEvent::Enqueued { depth, .. } => Event::QueueDepth { now, disk, depth },
            DiskEvent::ServiceStarted {
                block,
                kind,
                head_cylinder,
                completes,
            } => Event::FetchStarted {
                now,
                block,
                disk,
                write: kind == ReqKind::Write,
                head_cylinder,
                completes,
            },
            DiskEvent::ServiceCompleted {
                block,
                kind,
                service,
                response,
                head_cylinder,
                depth,
                outcome,
            } => Event::FetchCompleted {
                now,
                block,
                disk,
                write: kind == ReqKind::Write,
                service,
                response,
                head_cylinder,
                depth,
                faulted: outcome == ServiceOutcome::MediaError,
            },
        }
    }
}

/// How one event field is written to a log line and read back from one.
trait LogField: Sized {
    fn put(self, o: Obj, key: &str) -> Obj;
    #[cfg(test)]
    fn take(v: &Json, key: &str) -> Option<Self>;
}

/// Each row: a field type, the JSON type it travels as, and the two
/// conversions between them.
macro_rules! log_fields {
    ($($t:ty as $wire:ty: $put:expr, $take:expr;)*) => {$(
        impl LogField for $t {
            fn put(self, o: Obj, key: &str) -> Obj {
                o.field(key, ($put)(self))
            }
            #[cfg(test)]
            fn take(v: &Json, key: &str) -> Option<Self> {
                v.get::<$wire>(key).and_then($take)
            }
        }
    )*};
}

log_fields! {
    usize as usize: |n| n, Some;
    u32 as u32: |n| n, Some;
    u64 as u64: |n| n, Some;
    bool as bool: |b| b, Some;
    BlockId as u64: BlockId::raw, |n| Some(BlockId(n));
    DiskId as usize: DiskId::index, |n| Some(DiskId(n));
    Nanos as u64: Nanos::as_nanos, |n| Some(Nanos(n));
    StallCause as &str: |c: StallCause| c.name(), StallCause::from_name;
    FaultCause as &str: |c: FaultCause| c.name(), FaultCause::from_name;
}

impl<T: LogField> LogField for Option<T> {
    fn put(self, o: Obj, key: &str) -> Obj {
        match self {
            Some(x) => x.put(o, key),
            None => o,
        }
    }
    #[cfg(test)]
    fn take(v: &Json, key: &str) -> Option<Self> {
        Some(T::take(v, key))
    }
}

/// The JSONL event log format, one row per variant: its `event` tag,
/// then its fields in log order with the key each is written under.
/// Every line starts with `event` and `t_ns` (the variant's `now`). A
/// field after `;` is left out while it holds its default and reads as
/// the default when absent, so fault-free logs carry no `faulted` key.
/// [`Event::kind`], [`Event::time`], [`Event::to_json`] and
/// [`Event::from_json`] all come from this one table.
macro_rules! event_log_format {
    ($($variant:ident $tag:literal {
        $($field:ident: $key:literal),* $(; $opt:ident: $opt_key:literal)?
    })*) => {
        impl Event {
            /// A short machine-readable tag naming the event variant.
            pub(crate) fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)*
                }
            }

            /// The simulated time the event carries.
            pub(crate) fn time(&self) -> Nanos {
                match *self {
                    $(Event::$variant { now, .. })|* => now,
                }
            }

            /// This event as one line of JSON (no trailing newline),
            /// suitable for a JSONL event log.
            pub fn to_json(&self) -> String {
                let o = json::object()
                    .field("event", self.kind())
                    .field("t_ns", self.time().as_nanos());
                match *self {
                    $(Event::$variant { $($field,)* $($opt,)? .. } => {
                        $(let o = $field.put(o, $key);)*
                        $(let o = if $opt == Default::default() { o } else { $opt.put(o, $opt_key) };)?
                        o
                    })*
                }
                .finish()
            }

            /// Parses one [`Event::to_json`] line back into an [`Event`]:
            /// the exact inverse over every variant, so a JSONL event log
            /// round-trips losslessly. Returns `None` on anything that is
            /// not one complete event object.
            #[cfg(test)]
            pub(crate) fn from_json(line: &str) -> Option<Event> {
                let v = json::parse(line).ok()?;
                let now = Nanos(v.get("t_ns")?);
                Some(match v.get::<&str>("event")? {
                    $($tag => Event::$variant {
                        now,
                        $($field: LogField::take(&v, $key)?,)*
                        $($opt: LogField::take(&v, $opt_key).unwrap_or_default(),)?
                    },)*
                    _ => return None,
                })
            }
        }
    };
}

event_log_format! {
    PolicyDecision "policy_decision" { cursor: "cursor" }
    CacheHit "cache_hit" { block: "block" }
    CacheMiss "cache_miss" { block: "block" }
    Eviction "eviction" { block: "block" }
    FetchIssued "fetch_issued" { block: "block", disk: "disk", demand: "demand"; evicted: "evicted" }
    WriteIssued "write_issued" { block: "block", disk: "disk" }
    QueueDepth "queue_depth" { disk: "disk", depth: "depth" }
    FetchStarted "fetch_started" {
        block: "block", disk: "disk", write: "write", head_cylinder: "head_cylinder",
        completes: "completes_ns"
    }
    FetchCompleted "fetch_completed" {
        block: "block", disk: "disk", write: "write", service: "service_ns",
        response: "response_ns", head_cylinder: "head_cylinder", depth: "depth"; faulted: "faulted"
    }
    StallBegin "stall_begin" { block: "block" }
    StallEnd "stall_end" {
        block: "block", stalled: "stalled_ns", cause: "cause", charged: "charged_ns"
    }
    FaultInjected "fault_injected" {
        block: "block", disk: "disk", write: "write", cause: "cause", attempt: "attempt"
    }
    RetryIssued "retry_issued" { block: "block", disk: "disk", attempt: "attempt" }
    RequestAbandoned "request_abandoned" {
        block: "block", disk: "disk", write: "write", attempts: "attempts"
    }
    DiskDegraded "disk_degraded" { disk: "disk" }
    DiskRecovered "disk_recovered" { disk: "disk" }
}

/// An observer of the engine's event stream.
///
/// Implementations must be cheap: the engine calls [`Probe::on_event`]
/// synchronously at every decision point. Any `FnMut(&Event)` closure is a
/// probe.
pub trait Probe {
    /// Whether this probe observes anything. The engine guards every
    /// emission site on this associated constant, so a `false` here (see
    /// [`NoopProbe`]) removes the instrumentation at compile time.
    const ENABLED: bool = true;

    /// Receives one event.
    fn on_event(&mut self, event: &Event);
}

/// The default do-nothing probe. Zero-sized, `ENABLED = false`: an engine
/// monomorphized over it contains no instrumentation code at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _event: &Event) {}
}

impl<F: FnMut(&Event)> Probe for F {
    fn on_event(&mut self, event: &Event) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
        const { assert!(!NoopProbe::ENABLED) }
    }

    #[test]
    fn closures_are_probes() {
        let mut seen = 0usize;
        {
            let mut p = |_: &Event| seen += 1;
            p.on_event(&Event::CacheHit {
                now: Nanos::ZERO,
                block: BlockId(1),
            });
        }
        assert_eq!(seen, 1);
    }

    #[test]
    fn json_lines_carry_kind_and_time() {
        let e = Event::FetchIssued {
            now: Nanos::from_millis(2),
            block: BlockId(7),
            disk: DiskId(1),
            demand: true,
            evicted: Some(BlockId(3)),
        };
        let j = e.to_json();
        assert!(
            j.starts_with(r#"{"event":"fetch_issued","t_ns":2000000"#),
            "{j}"
        );
        assert!(j.contains(r#""demand":true"#), "{j}");
        assert!(j.contains(r#""evicted":3"#), "{j}");
        assert!(j.ends_with('}'), "{j}");
    }

    /// One event of each fault variant.
    fn fault_events() -> [Event; 5] {
        [
            Event::FaultInjected {
                now: Nanos::from_millis(3),
                block: BlockId(9),
                disk: DiskId(1),
                write: false,
                cause: FaultCause::MediaError,
                attempt: 2,
            },
            Event::RetryIssued {
                now: Nanos::from_millis(4),
                block: BlockId(9),
                disk: DiskId(1),
                attempt: 2,
            },
            Event::RequestAbandoned {
                now: Nanos::from_millis(5),
                block: BlockId(9),
                disk: DiskId(1),
                write: true,
                attempts: 3,
            },
            Event::DiskDegraded {
                now: Nanos::from_millis(6),
                disk: DiskId(0),
            },
            Event::DiskRecovered {
                now: Nanos::from_millis(7),
                disk: DiskId(0),
            },
        ]
    }

    /// One event of each healthy-run variant (both shapes of the
    /// optional fields).
    fn core_events() -> [Event; 13] {
        [
            Event::PolicyDecision {
                now: Nanos(17),
                cursor: 5,
            },
            Event::CacheHit {
                now: Nanos(18),
                block: BlockId(1),
            },
            Event::CacheMiss {
                now: Nanos(19),
                block: BlockId(2),
            },
            Event::Eviction {
                now: Nanos(20),
                block: BlockId(3),
            },
            Event::FetchIssued {
                now: Nanos(21),
                block: BlockId(4),
                disk: DiskId(2),
                demand: false,
                evicted: None,
            },
            Event::FetchIssued {
                now: Nanos(22),
                block: BlockId(5),
                disk: DiskId(0),
                demand: true,
                evicted: Some(BlockId(6)),
            },
            Event::WriteIssued {
                now: Nanos(23),
                block: BlockId(7),
                disk: DiskId(1),
            },
            Event::QueueDepth {
                now: Nanos(24),
                disk: DiskId(3),
                depth: 4,
            },
            Event::FetchStarted {
                now: Nanos(25),
                block: BlockId(8),
                disk: DiskId(0),
                write: false,
                head_cylinder: 77,
                completes: Nanos(99),
            },
            Event::FetchCompleted {
                now: Nanos(26),
                block: BlockId(8),
                disk: DiskId(0),
                write: false,
                service: Nanos(40),
                response: Nanos(60),
                head_cylinder: 77,
                depth: 0,
                faulted: false,
            },
            Event::FetchCompleted {
                now: Nanos(27),
                block: BlockId(8),
                disk: DiskId(0),
                write: true,
                service: Nanos(40),
                response: Nanos(60),
                head_cylinder: 77,
                depth: 1,
                faulted: true,
            },
            Event::StallBegin {
                now: Nanos(28),
                block: BlockId(9),
            },
            Event::StallEnd {
                now: Nanos(29),
                block: BlockId(9),
                stalled: Nanos(1_000),
                cause: StallCause::LatePrefetch,
                charged: Nanos(500),
            },
        ]
    }

    #[test]
    fn fault_events_round_trip_through_json() {
        // The five fault events must survive JSONL serialization exactly:
        // a degraded-run event log is only useful if it parses back.
        for e in fault_events() {
            let parsed = Event::from_json(&e.to_json());
            assert_eq!(parsed, Some(e), "{}", e.to_json());
        }
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for e in core_events() {
            let parsed = Event::from_json(&e.to_json());
            assert_eq!(parsed, Some(e), "{}", e.to_json());
        }
        assert_eq!(Event::from_json("not json"), None);
        assert_eq!(Event::from_json(r#"{"event":"nope","t_ns":1}"#), None);
    }

    #[test]
    fn truncated_or_trailing_lines_are_rejected() {
        for e in core_events().into_iter().chain(fault_events()) {
            let line = e.to_json();
            let cut = line.strip_suffix('}').unwrap();
            assert_eq!(Event::from_json(cut), None, "{cut}");
            let trailing = format!("{line}garbage");
            assert_eq!(Event::from_json(&trailing), None, "{trailing}");
        }
    }

    #[test]
    fn times_past_two_to_the_53_round_trip_exactly() {
        // An f64 holds u64 nanoseconds exactly only up to 2^53 (about
        // 104 days); the reader must not go through one.
        let e = Event::StallEnd {
            now: Nanos((1 << 53) + 1),
            block: BlockId(1),
            stalled: Nanos((1 << 53) + 3),
            cause: StallCause::NoPrefetch,
            charged: Nanos(u64::MAX),
        };
        assert_eq!(Event::from_json(&e.to_json()), Some(e), "{}", e.to_json());
    }

    #[test]
    fn stall_causes_name_and_index_round_trip() {
        for (i, c) in StallCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(StallCause::from_name(c.name()), Some(c));
        }
        assert_eq!(StallCause::from_name("bogus"), None);
        assert_eq!(
            FaultCause::from_name("rejected"),
            Some(FaultCause::Rejected)
        );
        assert_eq!(FaultCause::from_name("bogus"), None);
    }

    #[test]
    fn disk_events_translate() {
        let e = Event::from_disk(
            Nanos::from_millis(1),
            DiskId(2),
            DiskEvent::Enqueued {
                block: BlockId(4),
                kind: ReqKind::Read,
                depth: 3,
            },
        );
        assert_eq!(
            e,
            Event::QueueDepth {
                now: Nanos::from_millis(1),
                disk: DiskId(2),
                depth: 3
            }
        );
        assert_eq!(e.kind(), "queue_depth");
        assert_eq!(e.time(), Nanos::from_millis(1));
    }
}
