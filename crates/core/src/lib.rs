//! Integrated parallel prefetching and caching: algorithms and engine.
//!
//! This crate is the primary contribution of the reproduction: the five
//! policies of Kimbrel et al. (OSDI 1996) — demand fetching with optimal
//! replacement, fixed horizon, aggressive, reverse aggressive, and
//! forestall — together with the event-driven engine that replays traces
//! against a disk array and accounts elapsed time as compute + driver
//! overhead + stall.
//!
//! # Structure
//!
//! * [`oracle`] — full-advance-knowledge queries (next reference of a
//!   block, per-disk future positions).
//! * [`cache`] — the block cache with Belady eviction and the dynamic
//!   missing-block index.
//! * [`engine`] — the event loop, timing model, and [`engine::Report`].
//! * [`policy`] / [`algs`] — the policy interface and the five algorithms.
//! * [`theory`] — helpers for the paper's uniform fetch-time theoretical
//!   model (§2.1), in which compute steps are unit time.
//! * [`hints`] — incomplete disclosure (the §6 extension): policies see
//!   only a hinted subsequence.
//! * [`predict`] — hint delivery behind the [`predict::HintSource`]
//!   trait: the disclosed-oracle path plus online predictors
//!   (sequential/stride, first-order Markov, MITHRIL-style sporadic
//!   association) that learn the demand stream and feed *predicted*
//!   hints into the same engine.
//! * [`config`] — run parameters with the paper's defaults, plus the
//!   deterministic fault plan and the driver's retry/backoff policy.
//! * [`probe`] / [`metrics`] — the observability layer: a typed event
//!   stream emitted at every decision point, and counters, latency
//!   histograms, and per-disk timelines folded from it. The default
//!   probe is a zero-sized no-op, so uninstrumented runs pay nothing.
//! * [`json`] — the one JSON writer and reader every report, event log,
//!   manifest and benchmark document goes through.
//! * [`audit`] — a probe that enforces conservation invariants over the
//!   event stream (frame conservation, fetch/stall balance, monotone
//!   time, queue-depth accounting, fault/retry/abandonment balance) and
//!   reconciles the final report with checked arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algs;
pub mod audit;
pub mod cache;
pub mod config;
pub mod engine;
pub mod hints;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod policy;
pub mod predict;
pub mod probe;
pub mod theory;

pub use config::SimConfig;
pub use engine::{simulate, Report};
pub use policy::{Policy, PolicyKind};
pub use predict::{HintMode, PredictorKind};
pub use probe::{Event, NoopProbe, Probe};
