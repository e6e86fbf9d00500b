//! The disk-model abstraction.
//!
//! A disk model answers one question: if a read of a given sector span is
//! started at a given time, when does it complete? Models are stateful —
//! the answer depends on head position, rotational phase, and readahead
//! buffer contents — and the state is updated by each call.

use crate::geometry::SectorSpan;
use parcache_types::Nanos;

/// Whether a service attempt delivered its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOutcome {
    /// The attempt succeeded.
    Ok,
    /// The media error path: the time was spent but the data never
    /// arrived; the caller must retry or abandon the request.
    MediaError,
}

impl ServiceOutcome {
    /// True for a successful attempt.
    pub fn is_ok(&self) -> bool {
        *self == ServiceOutcome::Ok
    }
}

/// One service attempt: when the drive is done with it, and whether the
/// data actually arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Completion time of the attempt (`>=` its start time).
    pub completes: Nanos,
    /// Whether the attempt delivered the data.
    pub outcome: ServiceOutcome,
}

/// A stateful single-drive service-time model.
pub trait DiskModel {
    /// Services a read of `span` beginning at time `now`.
    ///
    /// Returns the completion time (`>= now`) and updates internal state
    /// (head position, rotational phase, readahead buffer).
    fn service(&mut self, now: Nanos, span: &SectorSpan) -> Nanos;

    /// [`DiskModel::service`] with an explicit outcome. Fault-free models
    /// keep the default (every attempt succeeds); fault-injecting
    /// wrappers override it to report media errors.
    fn service_attempt(&mut self, now: Nanos, span: &SectorSpan) -> Attempt {
        Attempt {
            completes: self.service(now, span),
            outcome: ServiceOutcome::Ok,
        }
    }

    /// When `now` falls inside a hard outage window, the window's end;
    /// `None` on a healthy drive (the default). During an outage the
    /// drive rejects new requests and defers starting queued ones.
    fn outage_until(&self, _now: Nanos) -> Option<Nanos> {
        None
    }

    /// The cylinder containing `sector`, used by position-aware schedulers.
    fn cylinder_of(&self, sector: u64) -> u64;

    /// The cylinder currently under the head.
    fn head_cylinder(&self) -> u64;

    /// A short human-readable name (for reports).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformDisk;

    #[test]
    fn trait_object_is_usable() {
        let mut m: Box<dyn DiskModel> = Box::new(UniformDisk::new(Nanos::from_millis(5)));
        let done = m.service(Nanos::from_millis(1), &SectorSpan { start: 0, len: 16 });
        assert_eq!(done, Nanos::from_millis(6));
        assert_eq!(m.name(), "uniform");
    }

    #[test]
    fn default_attempts_always_succeed_with_no_outages() {
        let mut m: Box<dyn DiskModel> = Box::new(UniformDisk::new(Nanos::from_millis(5)));
        let a = m.service_attempt(Nanos::ZERO, &SectorSpan { start: 0, len: 16 });
        assert_eq!(a.completes, Nanos::from_millis(5));
        assert!(a.outcome.is_ok());
        assert_eq!(m.outage_until(Nanos::ZERO), None);
    }
}
