//! A small, deterministic pseudo-random number generator.
//!
//! The simulator needs reproducible randomness for trace generation and
//! randomized tests, not cryptographic quality. This module provides a
//! self-contained xoshiro256** generator (Blackman & Vigna) seeded via
//! SplitMix64, so the workspace builds with no external dependencies —
//! important for hermetic/offline builds. The API mirrors the subset of
//! the `rand` crate the codebase historically used (`seed_from_u64`,
//! `gen_range`, `shuffle`), keeping call sites unchanged in shape.
//!
//! Streams are stable: the sequence produced for a given seed is part of
//! the crate's compatibility surface, because every generated trace (and
//! therefore every published experiment) derives from it.

use std::ops::{Range, RangeInclusive};

/// A deterministic xoshiro256** PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// The SplitMix64 step: advances `state` and returns its next output.
/// It expands a 64-bit seed into generator state here, and draws the
/// partial-hint masks in `parcache-core`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Every seed yields a
    /// distinct, fully reproducible stream.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// reduction (no modulo bias worth caring about at simulation scale).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform draw from `range`, like `rand`'s `gen_range`. Supports
    /// `Range` and `RangeInclusive` over `u64`, `usize`, `i64`, and `f64`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element of `xs`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len() as u64) as usize])
        }
    }
}

/// A range type [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for Range<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.below(self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.below(span + 1)
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut Rng) -> usize {
        rng.gen_range(self.start as u64..self.end as u64) as usize
    }
}

impl SampleRange for RangeInclusive<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut Rng) -> usize {
        rng.gen_range(*self.start() as u64..=*self.end() as u64) as usize
    }
}

impl SampleRange for Range<i64> {
    type Output = i64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> i64 {
        assert!(self.start < self.end, "empty range");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(rng.below(span) as i64)
    }
}

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        // The closed upper end is approximated by the half-open draw; for
        // continuous simulation inputs the distinction is immaterial.
        lo + rng.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_draws_are_unit_interval() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn integer_ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = r.gen_range(10u64..20);
            assert!((10..20).contains(&x), "{x}");
            let y = r.gen_range(5usize..=7);
            assert!((5..=7).contains(&y), "{y}");
            let z = r.gen_range(-3i64..3);
            assert!((-3..3).contains(&z), "{z}");
        }
    }

    #[test]
    fn integer_range_covers_all_values() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = r.gen_range(-0.5..=0.5);
            assert!((-0.5..=0.5).contains(&x), "{x}");
        }
    }

    #[test]
    fn mean_of_unit_draws_is_centered() {
        let mut r = Rng::seed_from_u64(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(6);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        // And it actually moved something (probability of identity ~ 0).
        assert_ne!(xs, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn choose_covers_the_slice() {
        let mut r = Rng::seed_from_u64(7);
        assert_eq!(r.choose::<u32>(&[]), None);
        let xs = [1, 2, 3];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*r.choose(&xs).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut r = Rng::seed_from_u64(8);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
        assert!(!Rng::seed_from_u64(0).gen_bool(0.0));
        assert!(Rng::seed_from_u64(0).gen_bool(1.1));
    }
}
