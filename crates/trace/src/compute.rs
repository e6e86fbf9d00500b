//! Inter-reference compute-time generators.
//!
//! Traces record the measured CPU time between consecutive reads. The
//! generators here reproduce the distributions §3.1 and §4.3 describe —
//! roughly constant times with jitter, exponential (Poisson-process) times
//! for synth, and cscope3's bursty alternation between ~1 ms and ~7 ms runs
//! — and a calibration pass pins each trace's *total* compute time to the
//! paper's Table 3 value exactly.

use crate::Request;
use parcache_types::rng::Rng;
use parcache_types::Nanos;

/// A compute-time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeDist {
    /// Uniform jitter of +/- `jitter_frac` around `mean_ms`.
    Jittered {
        /// Mean compute time, milliseconds.
        mean_ms: f64,
        /// Fractional half-width of the uniform jitter (0.2 = +/-20%).
        jitter_frac: f64,
    },
    /// Exponentially distributed with the given mean (a Poisson process).
    Exponential {
        /// Mean compute time, milliseconds.
        mean_ms: f64,
    },
    /// Alternating runs of short and long compute times; run lengths are
    /// geometric with the given means. Models cscope3's burstiness ("runs
    /// of compute times near 1ms are interspersed with runs of times
    /// around 7ms", §4.3). Asymmetric run lengths set the short/long mix.
    Bursty {
        /// Compute time during short runs, milliseconds.
        short_ms: f64,
        /// Compute time during long runs, milliseconds.
        long_ms: f64,
        /// Mean length of short runs, in references.
        mean_run_short: f64,
        /// Mean length of long runs, in references.
        mean_run_long: f64,
    },
}

/// Stateful sampler for a [`ComputeDist`].
#[derive(Debug)]
pub struct ComputeSampler {
    dist: ComputeDist,
    /// For `Bursty`: whether the current run is the long phase, and how
    /// many samples remain in it.
    burst_long: bool,
    burst_left: u64,
}

impl ComputeSampler {
    /// Creates a sampler.
    pub fn new(dist: ComputeDist) -> ComputeSampler {
        ComputeSampler {
            dist,
            burst_long: false,
            burst_left: 0,
        }
    }

    /// Draws the next compute time.
    pub fn sample(&mut self, rng: &mut Rng) -> Nanos {
        match self.dist {
            ComputeDist::Jittered {
                mean_ms,
                jitter_frac,
            } => {
                let f = 1.0 + rng.gen_range(-jitter_frac..=jitter_frac);
                Nanos::from_millis_f64(mean_ms * f)
            }
            ComputeDist::Exponential { mean_ms } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                Nanos::from_millis_f64(-mean_ms * u.ln())
            }
            ComputeDist::Bursty {
                short_ms,
                long_ms,
                mean_run_short,
                mean_run_long,
            } => {
                if self.burst_left == 0 {
                    self.burst_long = !self.burst_long;
                    let mean_run = if self.burst_long {
                        mean_run_long
                    } else {
                        mean_run_short
                    };
                    // Geometric run length with the given mean, at least 1.
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    self.burst_left = (-mean_run * u.ln()).ceil().max(1.0) as u64;
                }
                self.burst_left -= 1;
                let ms = if self.burst_long { long_ms } else { short_ms };
                // Small jitter keeps event times from colliding exactly.
                let f = 1.0 + rng.gen_range(-0.05..=0.05);
                Nanos::from_millis_f64(ms * f)
            }
        }
    }
}

/// Rescales the compute times of `requests` so they sum to exactly
/// `target`.
///
/// Multiplies every entry by `target / current_total`, then corrects
/// rounding residue on the final entry, so the total is *exact*. This is
/// how each generated trace pins its total compute to Table 3.
pub fn calibrate_total(requests: &mut [Request], target: Nanos) {
    if requests.is_empty() {
        return;
    }
    let current: u128 = requests.iter().map(|r| r.compute.as_nanos() as u128).sum();
    match std::num::NonZeroU128::new(current) {
        None => {
            // Degenerate: spread evenly.
            let per = target.as_nanos() / requests.len() as u64;
            for r in requests.iter_mut() {
                r.compute = Nanos(per);
            }
        }
        Some(current) => {
            for r in requests.iter_mut() {
                r.compute = Nanos(scale(r.compute.as_nanos(), target.as_nanos(), current));
            }
        }
    }
    let sum: u128 = requests.iter().map(|r| r.compute.as_nanos() as u128).sum();
    let diff = target.as_nanos() as i128 - sum as i128;
    let last = &mut requests
        .last_mut()
        .expect("non-empty checked above")
        .compute;
    let fixed = last.as_nanos() as i128 + diff;
    assert!(fixed >= 0, "calibration residue exceeded the final entry");
    *last = Nanos(fixed as u64);
}

/// `t * target / current`, truncated, in `u64` arithmetic when the
/// product and divisor fit (exact there, like the `u128` form, which is a
/// software division).
#[inline]
fn scale(t: u64, target: u64, current: std::num::NonZeroU128) -> u64 {
    match (t.checked_mul(target), u64::try_from(current.get())) {
        (Some(product), Ok(current)) => product / current,
        _ => (t as u128 * target as u128 / current) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_types::BlockId;

    fn draw(dist: ComputeDist, n: usize, seed: u64) -> Vec<Nanos> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut s = ComputeSampler::new(dist);
        (0..n).map(|_| s.sample(&mut rng)).collect()
    }

    #[test]
    fn jittered_stays_in_band() {
        let xs = draw(
            ComputeDist::Jittered {
                mean_ms: 10.0,
                jitter_frac: 0.2,
            },
            1000,
            1,
        );
        for x in &xs {
            let ms = x.as_millis_f64();
            assert!((8.0..=12.0).contains(&ms), "{ms}");
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let xs = draw(ComputeDist::Exponential { mean_ms: 1.0 }, 20_000, 2);
        let mean = xs.iter().map(|x| x.as_millis_f64()).sum::<f64>() / xs.len() as f64;
        assert!((0.95..1.05).contains(&mean), "mean {mean}");
    }

    #[test]
    fn bursty_alternates_levels() {
        let xs = draw(
            ComputeDist::Bursty {
                short_ms: 1.0,
                long_ms: 7.0,
                mean_run_short: 30.0,
                mean_run_long: 30.0,
            },
            5000,
            3,
        );
        let short = xs.iter().filter(|x| x.as_millis_f64() < 2.0).count();
        let long = xs.iter().filter(|x| x.as_millis_f64() > 6.0).count();
        assert_eq!(short + long, xs.len(), "values fell between levels");
        assert!(short > 1000 && long > 1000, "short={short} long={long}");
        // And it must actually be bursty: adjacent values usually equal-level.
        let mut switches = 0;
        for w in xs.windows(2) {
            let a = w[0].as_millis_f64() > 4.0;
            let b = w[1].as_millis_f64() > 4.0;
            if a != b {
                switches += 1;
            }
        }
        assert!(
            switches < xs.len() / 10,
            "{switches} switches in {}",
            xs.len()
        );
    }

    fn requests(computes: &[Nanos]) -> Vec<Request> {
        computes
            .iter()
            .map(|&compute| Request {
                block: BlockId(0),
                compute,
            })
            .collect()
    }

    fn total(requests: &[Request]) -> Nanos {
        requests.iter().map(|r| r.compute).sum()
    }

    #[test]
    fn calibrate_hits_target_exactly() {
        let mut xs = requests(&draw(ComputeDist::Exponential { mean_ms: 2.0 }, 997, 4));
        let target = Nanos::from_secs(5);
        calibrate_total(&mut xs, target);
        assert_eq!(total(&xs), target);
    }

    #[test]
    fn calibrate_handles_all_zero_input() {
        let mut xs = requests(&[Nanos::ZERO; 10]);
        calibrate_total(&mut xs, Nanos::from_millis(10));
        assert_eq!(total(&xs), Nanos::from_millis(10));
    }

    #[test]
    fn calibrate_empty_is_noop() {
        let mut xs: Vec<Request> = vec![];
        calibrate_total(&mut xs, Nanos::from_secs(1));
        assert!(xs.is_empty());
    }

    #[test]
    fn scale_matches_u128_arithmetic_across_the_u64_boundary() {
        let direct =
            |t: u64, target: u64, current: u128| (t as u128 * target as u128 / current) as u64;
        let big = u64::MAX / 3;
        for (t, target, current) in [
            (0, 5, 7u128),
            (1_000_000, 99_900_000_000, 100_000_000_000),
            (u64::MAX, 1, 1),
            (u64::MAX / 2, 2, 3),
            (u64::MAX / 2 + 1, 2, 3),
            (big, 4, 5),
            (big, 3, u64::MAX as u128),
            (7, 9, u64::MAX as u128 + 1),
            (u64::MAX, u64::MAX, u128::MAX),
        ] {
            let current = std::num::NonZeroU128::new(current).expect("non-zero divisor");
            assert_eq!(
                scale(t, target, current),
                direct(t, target, current.get()),
                "{t} * {target} / {current}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = draw(ComputeDist::Exponential { mean_ms: 1.0 }, 100, 9);
        let b = draw(ComputeDist::Exponential { mean_ms: 1.0 }, 100, 9);
        assert_eq!(a, b);
    }
}
