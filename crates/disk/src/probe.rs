//! Low-level drive events for observers.
//!
//! The drive layer cannot depend on the simulator core, so it exposes its
//! own small event vocabulary. The core's probe layer wraps these into its
//! richer simulation-event stream. Observers are plain `FnMut` closures
//! passed to [`crate::Disk`]'s `enqueue` and `complete` and to
//! [`crate::DiskArray`]'s `enqueue_observed` and `complete_observed`; a
//! caller that observes nothing passes a no-op closure (as the array's
//! plain `enqueue` and `complete` do), which monomorphizes away entirely.

use crate::disk::ReqKind;
use crate::model::ServiceOutcome;
use parcache_types::{BlockId, Nanos};

/// Something that happened inside one drive.
///
/// Queue depth is reported *after* the event took effect, and the head
/// cylinder is sampled from the drive model at emission time, so a stream
/// of these events reconstructs the queue-length and head-position
/// trajectories exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskEvent {
    /// A request entered the drive's queue.
    Enqueued {
        /// The logical block requested.
        block: BlockId,
        /// Read or write.
        kind: ReqKind,
        /// Queue length plus in-service count after this arrival.
        depth: usize,
    },
    /// The drive picked a request and began servicing it.
    ServiceStarted {
        /// The logical block being serviced.
        block: BlockId,
        /// Read or write.
        kind: ReqKind,
        /// Head position (cylinder) after the seek for this request.
        head_cylinder: u64,
        /// Time the service will complete.
        completes: Nanos,
    },
    /// The drive finished servicing a request.
    ServiceCompleted {
        /// The logical block serviced.
        block: BlockId,
        /// Read or write.
        kind: ReqKind,
        /// Pure service time (completion minus service start).
        service: Nanos,
        /// Response time (completion minus enqueue).
        response: Nanos,
        /// Head position (cylinder) where the request left the head.
        head_cylinder: u64,
        /// Queue length plus in-service count after the completion (the
        /// next request, if any, has already been started).
        depth: usize,
        /// Whether the attempt delivered its data (always
        /// [`ServiceOutcome::Ok`] on a healthy drive).
        outcome: ServiceOutcome,
    },
}
