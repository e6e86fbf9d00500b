//! Experiment harness reproducing every table and figure of Kimbrel et
//! al., *A Trace-Driven Comparison of Algorithms for Parallel Prefetching
//! and Caching* (OSDI 1996).
//!
//! Each table and figure is one entry of [`figures::FIGURES`], printed by
//! the `figures` bench target (`harness = false`); this library holds
//! the shared runner, parameter grids, and formatting. The root
//! re-exports the names the `parcache-run` CLI, the benchmark adapter
//! and the tests import; everything else is reached through its module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod experiments;
pub mod figures;
pub mod fsio;
pub mod fuzz;
pub mod manifest;
mod paper;
pub mod prof;
pub mod report;
pub mod runner;
mod sha256;
pub mod sweep;

pub use experiments::Algo;
pub use fuzz::{fuzz, fuzz_differential};
pub use paper::{paper_cells, paper_elapsed};
pub use prof::detect_parallelism;
pub use report::{breakdown_table, BreakdownRow};
pub use runner::{best_reverse_search, trace, trace_cache_stats, DISK_COUNTS, SEED};
pub use sha256::sha256_hex;
pub use sweep::run_indexed_observed;
