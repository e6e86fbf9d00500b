//! The uniform fetch-time model of the paper's theoretical framework (§2.1).
//!
//! Every read takes exactly the same fixed time regardless of position.
//! This is the model under which the aggressive and reverse aggressive
//! bounds are proved, and the model reverse aggressive uses internally for
//! its reverse-pass schedule construction.

use crate::geometry::SectorSpan;
use crate::model::DiskModel;
use parcache_types::Nanos;

/// A disk whose every access takes a constant `fetch_time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformDisk {
    fetch_time: Nanos,
}

impl UniformDisk {
    /// Creates a uniform disk with the given constant access time.
    pub fn new(fetch_time: Nanos) -> UniformDisk {
        UniformDisk { fetch_time }
    }

    /// The constant access time.
    #[cfg(test)]
    pub(crate) fn fetch_time(&self) -> Nanos {
        self.fetch_time
    }
}

impl DiskModel for UniformDisk {
    fn service(&mut self, now: Nanos, _span: &SectorSpan) -> Nanos {
        now + self.fetch_time
    }

    fn cylinder_of(&self, _sector: u64) -> u64 {
        0
    }

    fn head_cylinder(&self) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_service_time() {
        let mut d = UniformDisk::new(Nanos::from_millis(15));
        let spans = [
            SectorSpan { start: 0, len: 16 },
            SectorSpan {
                start: 2_000_000,
                len: 16,
            },
        ];
        for (i, s) in spans.iter().enumerate() {
            let start = Nanos::from_millis(i as u64 * 100);
            assert_eq!(d.service(start, s), start + Nanos::from_millis(15));
        }
    }

    #[test]
    fn position_queries_are_trivial() {
        let d = UniformDisk::new(Nanos::from_millis(1));
        assert_eq!(d.cylinder_of(123_456), 0);
        assert_eq!(d.head_cylinder(), 0);
        assert_eq!(d.fetch_time(), Nanos::from_millis(1));
    }
}
