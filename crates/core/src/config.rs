//! Simulation configuration: the paper's fixed parameters and knobs.

use parcache_disk::fault::FaultPlan;
use parcache_disk::sched::Discipline;
use parcache_trace::Trace;
use parcache_types::Nanos;

/// Which drive model the array uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskModelKind {
    /// The detailed HP 97560 model (the paper's UW simulator).
    Hp97560,
    /// The HP 97560 with its readahead cache disabled (ablation).
    Hp97560NoReadahead,
    /// The coarse Lightning-like model (the CMU cross-validation analog).
    Coarse,
    /// The uniform fetch-time model of the theoretical framework, with the
    /// given constant access time.
    Uniform(Nanos),
}

/// A structurally invalid [`SimConfig`], rejected at construction.
///
/// The sizes these variants guard are load-bearing well past the
/// constructor: forestall's stall-prediction window is `2 * cache_blocks`
/// and its scan subtracts one from it (`window - 1`), so a zero-capacity
/// cache would underflow deep inside a decision point; a zero-disk array
/// has no layout to stripe over. A typed error lets embedders surface the
/// problem to their own users instead of catching a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConfigError {
    /// `disks == 0`: an array needs at least one disk.
    ZeroDisks,
    /// `cache_blocks == 0`: the cache must hold at least one block.
    ZeroCache,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDisks => write!(f, "an array needs at least one disk"),
            ConfigError::ZeroCache => write!(f, "cache must hold at least one block"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The paper's default aggressive/forestall batch sizes by array size
/// (Table 6): 80, 40, 40, 16, 16, 8, 8, then 4 beyond seven disks.
pub(crate) fn default_batch_size(disks: usize) -> usize {
    match disks {
        0 => panic!("an array needs at least one disk"),
        1 => 80,
        2 | 3 => 40,
        4 | 5 => 16,
        6 | 7 => 8,
        _ => 4,
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of drives in the array.
    pub disks: usize,
    /// Cache capacity in 8 KB blocks.
    pub cache_blocks: usize,
    /// Head-scheduling discipline (the paper defaults to CSCAN).
    pub discipline: Discipline,
    /// Drive model.
    pub disk_model: DiskModelKind,
    /// CPU overhead charged per disk I/O (0.5 ms on the DECstation).
    pub driver_overhead: Nanos,
    /// Fixed horizon's prefetch horizon H (the paper uses 62; 124 for the
    /// double-speed-CPU experiment).
    pub horizon: usize,
    /// Batch size for aggressive and forestall.
    pub batch_size: usize,
    /// Reverse aggressive's fixed fetch-time estimate F̂, expressed as a
    /// multiple of the trace's mean inter-reference compute time.
    pub reverse_fetch_estimate: u64,
    /// Reverse aggressive's batch size (reverse pass and forward replay).
    pub reverse_batch_size: usize,
    /// Forestall's static overestimate F' = `forestall_static_f * F`; when
    /// `None` the dynamic rule of §5 is used (F' = F for fast disks, 4F
    /// for slow ones).
    pub forestall_static_f: Option<f64>,
    /// Forces forestall's stall predictor onto the naive full-window
    /// rescan instead of the incremental cached-verdict path. The two are
    /// byte-identical by construction; this switch exists so the
    /// differential fuzzer (and anyone bisecting a suspected divergence)
    /// can run both sides in release builds, where the `debug_assert!`
    /// oracle is compiled out.
    pub forestall_naive_scan: bool,
    /// How much of the access sequence the application disclosed (the
    /// paper's main setting is full disclosure; see `crate::hints`).
    pub hints: crate::hints::HintSpec,
    /// Where hints come from: the application's disclosed sequence (the
    /// paper's setting) or an online predictor that learns the demand
    /// stream as it arrives (see `crate::predict`). Under a predicted
    /// mode the disclosure spec in `hints` is ignored — there is no
    /// disclosed sequence to mask, only the predictor's own output.
    pub hint_mode: crate::predict::HintMode,
    /// Write-behind load (the §6 writes extension): one flush of the
    /// just-consumed block every `n` reads; `None` (the paper's setting)
    /// means a read-only run.
    pub write_behind_period: Option<usize>,
    /// Deterministic disk fault schedule. Empty (the default, and the
    /// paper's setting) means a healthy array: no drive is wrapped, and
    /// runs are byte-identical to a build without fault support.
    pub faults: FaultPlan,
    /// How the driver retries faulted fetches; irrelevant while `faults`
    /// is empty.
    pub retry: RetryPolicy,
}

/// Driver-level retry behavior for faulted reads (writes are best-effort
/// and never retried).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Faults tolerated per fetch before it is abandoned. A demand miss
    /// whose fetch is abandoned simply re-issues (the application cannot
    /// make progress without the block), so the run still terminates.
    /// Must be at least 1: a zero-retry driver would abandon and re-issue
    /// a rejected demand fetch in a zero-time loop during an outage,
    /// while one backed-off retry per cycle guarantees the clock moves.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    /// Must be positive so a drive mid-outage is not hammered in a
    /// zero-time loop.
    pub backoff: Nanos,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Nanos,
    /// Overall per-request deadline, measured from the request's first
    /// fault: when exceeded, the next fault abandons instead of retrying.
    /// `None` (the default) bounds retries by count alone.
    pub timeout: Option<Nanos>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            backoff: Nanos::from_millis(1),
            backoff_cap: Nanos::from_millis(64),
            timeout: None,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based): exponential
    /// doubling from `backoff`, saturating at `backoff_cap`.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Nanos {
        let doublings = attempt.saturating_sub(1).min(63);
        match self.backoff.checked_mul(1u64 << doublings) {
            Some(b) => b.min(self.backoff_cap),
            None => self.backoff_cap,
        }
    }

    /// Panics on parameters that could stall the simulation (a
    /// non-positive backoff or a zero retry budget allows zero-time
    /// retry loops during an outage).
    pub(crate) fn validate(&self) {
        assert!(self.backoff > Nanos::ZERO, "retry backoff must be positive");
        assert!(
            self.backoff_cap >= self.backoff,
            "backoff cap below the base backoff"
        );
        assert!(
            self.max_retries >= 1,
            "at least one retry is required for forward progress"
        );
    }
}

impl SimConfig {
    /// A configuration with the paper's defaults for a given array size
    /// and cache capacity.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid size; use `SimConfig::try_new`
    /// to get a `ConfigError` instead.
    pub fn new(disks: usize, cache_blocks: usize) -> SimConfig {
        SimConfig::try_new(disks, cache_blocks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects zero disks and a zero-block cache
    /// with a typed [`ConfigError`] rather than a panic.
    pub(crate) fn try_new(disks: usize, cache_blocks: usize) -> Result<SimConfig, ConfigError> {
        if disks == 0 {
            return Err(ConfigError::ZeroDisks);
        }
        if cache_blocks == 0 {
            return Err(ConfigError::ZeroCache);
        }
        Ok(SimConfig {
            disks,
            cache_blocks,
            discipline: Discipline::Cscan,
            disk_model: DiskModelKind::Hp97560,
            driver_overhead: Nanos::from_micros(500),
            horizon: 62,
            batch_size: default_batch_size(disks),
            reverse_fetch_estimate: 16,
            reverse_batch_size: default_batch_size(disks),
            forestall_static_f: None,
            forestall_naive_scan: false,
            hints: crate::hints::HintSpec::Full,
            hint_mode: crate::predict::HintMode::Oracle,
            write_behind_period: None,
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
        })
    }

    /// A configuration using the trace's paper-specified cache size.
    pub fn for_trace(disks: usize, trace: &Trace) -> SimConfig {
        SimConfig::new(disks, trace.cache_blocks)
    }

    /// Replaces the cache size with the trace's paper default.
    pub fn with_trace_defaults(mut self, trace: &Trace) -> SimConfig {
        self.cache_blocks = trace.cache_blocks;
        self
    }

    /// Sets the head-scheduling discipline.
    pub fn with_discipline(mut self, discipline: Discipline) -> SimConfig {
        self.discipline = discipline;
        self
    }

    /// Sets the drive model.
    pub fn with_disk_model(mut self, model: DiskModelKind) -> SimConfig {
        self.disk_model = model;
        self
    }

    /// Sets fixed horizon's H.
    pub fn with_horizon(mut self, horizon: usize) -> SimConfig {
        assert!(horizon > 0, "the horizon must be positive");
        self.horizon = horizon;
        self
    }

    /// Sets aggressive/forestall's batch size.
    pub fn with_batch_size(mut self, batch: usize) -> SimConfig {
        assert!(batch > 0, "the batch size must be positive");
        self.batch_size = batch;
        self
    }

    /// Sets reverse aggressive's parameters.
    pub fn with_reverse_params(mut self, fetch_estimate: u64, batch: usize) -> SimConfig {
        assert!(fetch_estimate > 0 && batch > 0);
        self.reverse_fetch_estimate = fetch_estimate;
        self.reverse_batch_size = batch;
        self
    }

    /// Sets forestall's static F' multiplier (disables dynamic estimation).
    pub fn with_forestall_static_f(mut self, f: f64) -> SimConfig {
        assert!(f > 0.0);
        self.forestall_static_f = Some(f);
        self
    }

    /// Sets the hint disclosure (defaults to full disclosure).
    pub fn with_hints(mut self, hints: crate::hints::HintSpec) -> SimConfig {
        self.hints = hints;
        self
    }

    /// Sets the hint source (defaults to the disclosed oracle).
    pub fn with_hint_mode(mut self, mode: crate::predict::HintMode) -> SimConfig {
        self.hint_mode = mode;
        self
    }

    /// Enables write-behind: one flush per `period` reads.
    pub fn with_write_behind(mut self, period: usize) -> SimConfig {
        assert!(period > 0, "the write period must be positive");
        self.write_behind_period = Some(period);
        self
    }

    /// Sets the fault schedule (validated: a bad plan panics here rather
    /// than deep inside the event loop).
    pub fn with_faults(mut self, faults: FaultPlan) -> SimConfig {
        faults.validate().expect("invalid fault plan");
        self.faults = faults;
        self
    }

    /// Sets the driver retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> SimConfig {
        retry.validate();
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_table_matches_table_6() {
        let expected = [
            (1, 80),
            (2, 40),
            (3, 40),
            (4, 16),
            (5, 16),
            (6, 8),
            (7, 8),
            (8, 4),
            (10, 4),
            (12, 4),
            (16, 4),
        ];
        for (d, b) in expected {
            assert_eq!(default_batch_size(d), b, "{d} disks");
        }
    }

    #[test]
    fn config_types_cross_threads() {
        // The sweep runner shares configurations and reports across
        // worker threads; keep these auto-traits from silently vanishing
        // (e.g. by adding an Rc or raw pointer field).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimConfig>();
        assert_send_sync::<DiskModelKind>();
        assert_send_sync::<RetryPolicy>();
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<crate::policy::PolicyKind>();
        assert_send_sync::<crate::engine::Report>();
        assert_send_sync::<crate::metrics::RunMetrics>();
    }

    #[test]
    fn defaults_follow_the_paper() {
        let c = SimConfig::new(3, 1280);
        assert_eq!(c.horizon, 62);
        assert_eq!(c.driver_overhead, Nanos::from_micros(500));
        assert_eq!(c.batch_size, 40);
        assert_eq!(c.discipline, Discipline::Cscan);
        assert_eq!(c.disk_model, DiskModelKind::Hp97560);
        assert!(c.forestall_static_f.is_none());
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::new(1, 512)
            .with_horizon(124)
            .with_batch_size(160)
            .with_discipline(Discipline::Fcfs)
            .with_reverse_params(32, 8)
            .with_forestall_static_f(4.0);
        assert_eq!(c.horizon, 124);
        assert_eq!(c.batch_size, 160);
        assert_eq!(c.discipline, Discipline::Fcfs);
        assert_eq!((c.reverse_fetch_estimate, c.reverse_batch_size), (32, 8));
        assert_eq!(c.forestall_static_f, Some(4.0));
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        SimConfig::new(0, 512);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_cache_rejected() {
        SimConfig::new(1, 0);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        // The fallible constructor rejects the sizes whose downstream
        // effect would otherwise be a `window - 1` underflow inside
        // forestall's stall predictor (window = 2 * cache_blocks) or a
        // diskless layout — with a typed error, not a panic.
        assert_eq!(SimConfig::try_new(0, 512), Err(ConfigError::ZeroDisks));
        assert_eq!(SimConfig::try_new(1, 0), Err(ConfigError::ZeroCache));
        assert_eq!(SimConfig::try_new(0, 0), Err(ConfigError::ZeroDisks));
        let ok = SimConfig::try_new(2, 64).expect("valid sizes construct");
        assert_eq!((ok.disks, ok.cache_blocks), (2, 64));
        assert_eq!(ok, SimConfig::new(2, 64));
        // The panicking constructor reuses the typed error's message.
        assert_eq!(
            ConfigError::ZeroDisks.to_string(),
            "an array needs at least one disk"
        );
        assert_eq!(
            ConfigError::ZeroCache.to_string(),
            "cache must hold at least one block"
        );
    }

    #[test]
    fn defaults_declare_no_faults() {
        let c = SimConfig::new(2, 512);
        assert!(c.faults.is_empty());
        assert_eq!(c.retry, RetryPolicy::default());
        c.retry.validate();
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let r = RetryPolicy {
            max_retries: 10,
            backoff: Nanos::from_millis(1),
            backoff_cap: Nanos::from_millis(5),
            timeout: None,
        };
        assert_eq!(r.backoff_for(1), Nanos::from_millis(1));
        assert_eq!(r.backoff_for(2), Nanos::from_millis(2));
        assert_eq!(r.backoff_for(3), Nanos::from_millis(4));
        assert_eq!(r.backoff_for(4), Nanos::from_millis(5)); // capped
        assert_eq!(r.backoff_for(100), Nanos::from_millis(5)); // no overflow
    }

    #[test]
    #[should_panic(expected = "backoff must be positive")]
    fn zero_backoff_rejected() {
        SimConfig::new(1, 4).with_retry(RetryPolicy {
            backoff: Nanos::ZERO,
            ..RetryPolicy::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one retry")]
    fn zero_retry_budget_rejected() {
        SimConfig::new(1, 4).with_retry(RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        });
    }
}
