//! Trace model and synthetic application-trace generators.
//!
//! The paper drives its simulations with file-access traces of ten
//! applications collected on a DECstation 5000/200 (§3.1, Table 3). Those
//! traces are not publicly available, so this crate *synthesizes* them:
//! each generator reproduces the published per-trace statistics exactly
//! (read count, distinct block count, total compute time) and the access
//! structure §3.1 describes qualitatively — sequential re-reads for dinero
//! and cscope, hot index blocks over cold data for glimpse and
//! postgres-join, an indexed sparse selection for postgres-select, strided
//! planar slices for xds, bursty inter-reference compute for cscope3, and
//! Poisson compute for synth.
//!
//! All generators are deterministic given their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
pub mod calibrate;
pub mod compute;
mod io;
pub mod placement;
mod registry;
pub mod synth;

pub use io::load;
pub use registry::{trace_by_name, TRACE_NAMES};

use parcache_types::{BlockId, Nanos};
use std::collections::HashSet;

/// One traced file-block read: the application computes for `compute`,
/// then references `block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The logical block referenced.
    pub block: BlockId,
    /// CPU time the application spends *before* this reference (includes
    /// the cost of consuming the previous block's data).
    pub compute: Nanos,
}

/// A read-request trace of a single execution thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Trace name (paper's naming, e.g. `"postgres-select"`).
    pub name: String,
    /// The request sequence.
    pub requests: Vec<Request>,
    /// The cache size (in 8 KB blocks) the paper uses for this trace:
    /// 512 for dinero and cscope1, 1280 for all others.
    pub cache_blocks: usize,
}

/// Summary statistics in the shape of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of read requests.
    pub reads: usize,
    /// Number of distinct blocks referenced.
    pub distinct_blocks: usize,
    /// Total application compute time.
    pub compute: Nanos,
}

impl Trace {
    /// Creates a trace from parts.
    pub fn new(name: impl Into<String>, requests: Vec<Request>, cache_blocks: usize) -> Trace {
        Trace {
            name: name.into(),
            requests,
            cache_blocks,
        }
    }

    /// Number of read requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Computes Table 3-style summary statistics.
    pub fn stats(&self) -> TraceStats {
        let distinct: HashSet<BlockId> = self.requests.iter().map(|r| r.block).collect();
        TraceStats {
            reads: self.requests.len(),
            distinct_blocks: distinct.len(),
            compute: self.requests.iter().map(|r| r.compute).sum(),
        }
    }

    /// The largest block number referenced, or `None` for an empty trace.
    pub fn max_block(&self) -> Option<BlockId> {
        self.requests.iter().map(|r| r.block).max()
    }

    /// Returns a copy with every compute time halved — the paper's
    /// "processor twice as fast" experiment (§4.4, appendix C).
    pub fn with_double_speed_cpu(&self) -> Trace {
        let requests = self
            .requests
            .iter()
            .map(|r| Request {
                block: r.block,
                compute: Nanos(r.compute.as_nanos() / 2),
            })
            .collect();
        Trace {
            name: format!("{}-2xcpu", self.name),
            requests,
            cache_blocks: self.cache_blocks,
        }
    }

    /// Returns the mean inter-reference compute time.
    #[cfg(test)]
    pub(crate) fn mean_compute(&self) -> Nanos {
        if self.requests.is_empty() {
            return Nanos::ZERO;
        }
        let total: Nanos = self.requests.iter().map(|r| r.compute).sum();
        total / self.requests.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Trace {
        Trace::new(
            "tiny",
            vec![
                Request {
                    block: BlockId(1),
                    compute: Nanos::from_millis(2),
                },
                Request {
                    block: BlockId(2),
                    compute: Nanos::from_millis(4),
                },
                Request {
                    block: BlockId(1),
                    compute: Nanos::from_millis(6),
                },
            ],
            512,
        )
    }

    #[test]
    fn traces_are_shareable_across_threads() {
        // Sweep workers share one generated trace through `Arc<Trace>`
        // instead of regenerating hundreds of thousands of requests per
        // worker; that only works while Trace stays Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
        assert_send_sync::<Request>();
        assert_send_sync::<std::sync::Arc<Trace>>();
    }

    #[test]
    fn stats_count_reads_distinct_and_compute() {
        let s = tiny().stats();
        assert_eq!(s.reads, 3);
        assert_eq!(s.distinct_blocks, 2);
        assert_eq!(s.compute, Nanos::from_millis(12));
    }

    #[test]
    fn double_speed_halves_compute() {
        let t = tiny().with_double_speed_cpu();
        assert_eq!(t.stats().compute, Nanos::from_millis(6));
        assert_eq!(t.name, "tiny-2xcpu");
        assert_eq!(t.stats().reads, 3);
    }

    #[test]
    fn mean_compute() {
        assert_eq!(tiny().mean_compute(), Nanos::from_millis(4));
        let empty = Trace::new("e", vec![], 512);
        assert_eq!(empty.mean_compute(), Nanos::ZERO);
        assert!(empty.is_empty());
    }

    #[test]
    fn max_block() {
        assert_eq!(tiny().max_block(), Some(BlockId(2)));
        assert_eq!(Trace::new("e", vec![], 1).max_block(), None);
    }
}
