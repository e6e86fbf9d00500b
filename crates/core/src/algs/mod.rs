//! The integrated prefetching-and-caching algorithms of the paper.
//!
//! * `demand` — demand fetching with optimal offline replacement (§4.1's
//!   baseline).
//! * `fixed_horizon` — the TIP2-derived fixed horizon algorithm (§2.3).
//! * `aggressive` — the multi-disk batched aggressive algorithm (§2.4).
//! * [`reverse`] — reverse aggressive: an offline schedule built on the
//!   reversed sequence and replayed forward (§2.5, §2.7).
//! * `forestall` — the paper's new hybrid that predicts upcoming stalls
//!   (§5).

pub(crate) mod aggressive;
pub(crate) mod demand;
pub(crate) mod fixed_horizon;
pub(crate) mod forestall;
pub mod reverse;
