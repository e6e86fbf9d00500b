//! Disk models, head schedulers, arrays, and data layout for `parcache`.
//!
//! This crate provides the storage substrate of the simulator described in
//! Kimbrel et al., *A Trace-Driven Comparison of Algorithms for Parallel
//! Prefetching and Caching* (OSDI 1996), §3:
//!
//! * [`hp97560`] — a detailed model of the HP 97560 drive (seek curve,
//!   rotational position, media and bus transfer, 128 KB readahead cache),
//!   the drive the paper's UW simulator models.
//! * [`coarse`] — a second, independently parameterized coarse drive model,
//!   playing the role of the paper's CMU/RaidSim cross-validation simulator.
//! * [`uniform`] — the theoretical uniform fetch-time model of §2.1.
//! * [`sched`] — FCFS and CSCAN head scheduling (plus SCAN and SSTF).
//! * [`disk`] / `array` — a single drive with a request queue, and an
//!   array of independently accessible drives.
//! * [`layout`] — one-block striping across the array and the paper's
//!   100-cylinder file-clustering groups.
//! * [`probe`] — low-level drive events for observers; enqueue and
//!   completion report them to a caller-supplied closure.
//! * [`fault`] — deterministic fault injection: a seed-driven
//!   [`FaultPlan`] (transient media errors, fail-slow windows, hard
//!   outages) and the `FaultyDisk` model wrapper that applies it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
pub mod coarse;
pub mod disk;
pub mod fault;
pub mod geometry;
pub mod hp97560;
pub mod layout;
pub mod model;
pub mod probe;
pub mod sched;
pub mod seek;
pub mod uniform;

pub use array::DiskArray;
pub use disk::Disk;
pub use fault::FaultPlan;
pub use hp97560::Hp97560;
pub use layout::Layout;
pub use uniform::UniformDisk;
