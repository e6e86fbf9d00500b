//! `parcache` — trace-driven simulation of integrated parallel prefetching
//! and caching.
//!
//! This is the facade crate: it re-exports the public API of the workspace
//! so applications can depend on a single crate.
//!
//! The library reproduces the system studied in Kimbrel, Tomkins, Patterson,
//! Bershad, Cao, Felten, Gibson, Karlin, and Li, *A Trace-Driven Comparison
//! of Algorithms for Parallel Prefetching and Caching* (OSDI 1996):
//! five integrated prefetching-and-caching policies (demand with optimal
//! replacement, fixed horizon, aggressive, reverse aggressive, forestall)
//! driven against a detailed multi-disk simulator with application traces.
//!
//! # Quickstart
//!
//! ```
//! use parcache::prelude::*;
//!
//! // A workload: the paper's synthetic trace, scaled down.
//! let trace = parcache::trace::synth::synth_trace(5, 200, 42);
//!
//! // Simulate the aggressive policy on a 2-disk array with CSCAN heads.
//! let config = SimConfig::new(2, 512).with_trace_defaults(&trace);
//! let report = simulate(&trace, PolicyKind::Aggressive, &config);
//!
//! // Elapsed time decomposes into compute + driver overhead + stall.
//! assert_eq!(
//!     report.elapsed,
//!     report.compute + report.driver + report.stall
//! );
//! ```
//!
//! # Probing a run
//!
//! Any [`Probe`](core::probe::Probe) passed to `simulate_probed` sees the
//! run's events; the ready-made `MetricsProbe` folds them into counters,
//! histograms and a per-disk timeline. The last four lines are README's
//! probe example, kept here so it compiles against the current API.
//!
//! ```
//! # use parcache::prelude::*;
//! # let trace = parcache::trace::synth::synth_trace(5, 200, 42);
//! # let config = SimConfig::new(4, 512).with_trace_defaults(&trace);
//! let mut probe = MetricsProbe::for_disks(4);
//! let report = simulate_probed(&trace, PolicyKind::Forestall, &config, &mut probe);
//! let m = probe.finish();
//! println!("p99 service: {}ns, stalls: {}", m.totals.fetch_service.quantile(0.99), m.totals.counters.stalls_begun);
//! # assert!(m.totals.fetch_service.count() > 0 && report.elapsed > Nanos::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use parcache_core as core;
pub use parcache_disk as disk;
pub use parcache_trace as trace;
pub use parcache_types as types;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use parcache_core::config::SimConfig;
    pub use parcache_core::engine::{simulate, simulate_probed, Report};
    pub use parcache_core::metrics::{MetricsProbe, RunMetrics};
    pub use parcache_core::policy::PolicyKind;
    pub use parcache_core::probe::{Event, NoopProbe, Probe};
    pub use parcache_disk::sched::Discipline;
    pub use parcache_trace::Trace;
    pub use parcache_types::{BlockId, DiskId, Nanos};
}
