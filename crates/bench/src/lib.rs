//! Experiment harness reproducing every table and figure of Kimbrel et
//! al., *A Trace-Driven Comparison of Algorithms for Parallel Prefetching
//! and Caching* (OSDI 1996).
//!
//! Each table/figure has a bench target in `benches/` (`harness = false`)
//! that prints the paper's rows; this library holds the shared runner,
//! parameter grids, and formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod experiments;
pub mod fsio;
pub mod fuzz;
pub mod manifest;
pub mod paper;
pub mod prof;
pub mod report;
pub mod runner;
pub mod sha256;
pub mod sweep;

pub use bench::{
    check_engine, check_scaling, run_engine_bench, run_sweep_bench, EngineBench, SweepBench,
    ENGINE_ALLOC_CEILING, ENGINE_FORESTALL_DEMAND_RATIO, SCALING_EFFICIENCY_FLOOR,
    SCALING_GATE_THREADS,
};
pub use experiments::{comparison, comparison_on, comparison_with, Algo};
pub use fsio::{write_atomic, AtomicFile};
pub use fuzz::{fuzz, fuzz_differential, FuzzCase, FuzzFailure, FuzzReport};
pub use manifest::{
    grid_hash, plan_resume, ManifestCell, ManifestError, ManifestStatus, ResumePlan, SweepManifest,
    MANIFEST_SCHEMA,
};
pub use paper::{paper_cells, paper_elapsed};
pub use prof::{detect_parallelism, EffectiveParallelism, NoopProf, Prof, WallProf, WorkerStats};
pub use report::{breakdown_table, explain_table, failsoft_summary, percent, BreakdownRow};
pub use runner::{
    best_reverse, best_reverse_search, paper_disk_counts, trace, trace_cache_stats, try_trace,
    TraceError, DISK_COUNTS, SEED,
};
pub use sha256::{sha256, sha256_hex};
pub use sweep::{
    default_threads, run_cells_failsoft, run_indexed, run_indexed_observed, sweep_csv, sweep_json,
    CellExecution, CellOutcome, CellRow, CsvGates, FailSoft, FailSoftRun, Injection, InjectionKind,
    SweepCell, SweepEntry, SweepSpec, ThreadAllocSampler,
};
