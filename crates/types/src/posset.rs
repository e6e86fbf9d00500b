//! A two-level bitset over a bounded range of positions, with fast
//! successor and predecessor queries.
//!
//! [`PosSet`] stores a set of `usize` positions below a fixed capacity as
//! a flat bit array plus a summary bitmap with one bit per non-empty
//! 64-position data word. Membership updates are O(1);
//! [`PosSet::next_at_or_after`] — the "first missing block at or after
//! the cursor" query every prefetching policy runs at every decision
//! point — touches at most two data words plus a scan of the summary
//! (one word per 4,096 positions), instead of the pointer-chasing of an
//! ordered tree. [`PosSet::prev_at_or_before`] is the mirror-image
//! predecessor query (the Belady next-use index asks it from an upper
//! bound it keeps on its members, at or just above the highest one).
//! Every query crosses empty data words through one of two summary hops,
//! one forward and one backward. Results are identical to a sorted set;
//! only the constant factor changes.

/// A set of positions in `[0, capacity)` with O(1) updates and fast
/// ordered successor and predecessor queries.
#[derive(Debug, Clone, Default)]
pub struct PosSet {
    /// One bit per position.
    words: Vec<u64>,
    /// One bit per word of `words`: set when that word is non-zero.
    summary: Vec<u64>,
    /// Number of positions the set may hold (exclusive upper bound).
    cap: usize,
    /// Number of positions currently present.
    len: usize,
}

impl PosSet {
    /// Creates an empty set over positions `0..capacity`.
    pub fn new(capacity: usize) -> PosSet {
        let words = capacity.div_ceil(64);
        PosSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            cap: capacity,
            len: 0,
        }
    }

    /// The exclusive upper bound on member positions.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of positions in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `pos` is in the set.
    #[cfg(test)]
    fn contains(&self, pos: usize) -> bool {
        debug_assert!(pos < self.cap, "position {pos} out of range {}", self.cap);
        self.words[pos >> 6] & (1u64 << (pos & 63)) != 0
    }

    /// Adds `pos`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, pos: usize) -> bool {
        debug_assert!(pos < self.cap, "position {pos} out of range {}", self.cap);
        let w = pos >> 6;
        let bit = 1u64 << (pos & 63);
        let newly = self.words[w] & bit == 0;
        if newly {
            self.words[w] |= bit;
            self.summary[w >> 6] |= 1u64 << (w & 63);
            self.len += 1;
        }
        newly
    }

    /// Removes `pos`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, pos: usize) -> bool {
        debug_assert!(pos < self.cap, "position {pos} out of range {}", self.cap);
        let w = pos >> 6;
        let bit = 1u64 << (pos & 63);
        let present = self.words[w] & bit != 0;
        if present {
            self.words[w] &= !bit;
            if self.words[w] == 0 {
                self.summary[w >> 6] &= !(1u64 << (w & 63));
            }
            self.len -= 1;
        }
        present
    }

    /// The smallest member `>= from`, or `None`.
    #[inline]
    pub fn next_at_or_after(&self, from: usize) -> Option<usize> {
        if from >= self.cap {
            return None;
        }
        let w = from >> 6;
        let word = self.words[w] & (!0u64 << (from & 63));
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
        let w = self.word_after(w)?;
        Some((w << 6) + self.words[w].trailing_zeros() as usize)
    }

    /// The largest member `<= from`, or `None`. A `from` at or beyond
    /// the capacity asks for the largest member.
    #[inline]
    pub fn prev_at_or_before(&self, from: usize) -> Option<usize> {
        if self.cap == 0 {
            return None;
        }
        let from = from.min(self.cap - 1);
        let w = from >> 6;
        let word = self.words[w] & (!0u64 >> (63 - (from & 63)));
        if word != 0 {
            return Some((w << 6) + 63 - word.leading_zeros() as usize);
        }
        let w = self.word_before(w)?;
        Some((w << 6) + 63 - self.words[w].leading_zeros() as usize)
    }

    /// The first non-empty data word after word `w`, found from the
    /// summary.
    #[inline]
    fn word_after(&self, w: usize) -> Option<usize> {
        let next = w + 1;
        if next >= self.words.len() {
            return None;
        }
        let mut sw = next >> 6;
        let mut s = self.summary[sw] & (!0u64 << (next & 63));
        while s == 0 {
            sw += 1;
            s = *self.summary.get(sw)?;
        }
        Some((sw << 6) + s.trailing_zeros() as usize)
    }

    /// The last non-empty data word before word `w`, found from the
    /// summary.
    #[inline]
    fn word_before(&self, w: usize) -> Option<usize> {
        let prev = w.checked_sub(1)?;
        let mut sw = prev >> 6;
        let mut s = self.summary[sw] & (!0u64 >> (63 - (prev & 63)));
        while s == 0 {
            sw = sw.checked_sub(1)?;
            s = self.summary[sw];
        }
        Some((sw << 6) + 63 - s.leading_zeros() as usize)
    }

    /// Members at or after `from`, ascending.
    ///
    /// The iterator caches the current data word and strips one set bit
    /// per step, so long scans cost a few instructions per member
    /// instead of a fresh successor query each time.
    pub fn iter_from(&self, from: usize) -> Iter<'_> {
        if from >= self.cap {
            return Iter {
                set: self,
                word_idx: self.words.len(),
                bits: 0,
            };
        }
        let w = from >> 6;
        Iter {
            set: self,
            word_idx: w,
            bits: self.words[w] & (!0u64 << (from & 63)),
        }
    }
}

/// Ascending iterator over a [`PosSet`], returned by [`PosSet::iter_from`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a PosSet,
    /// Index into `set.words` of the word `bits` was taken from.
    word_idx: usize,
    /// Unconsumed bits of the current word.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    /// Skips `n` members and returns the one after, without visiting the
    /// skipped members one by one: whole words are consumed with a single
    /// `count_ones` each, so skipping a long run costs one popcount per
    /// 64 positions instead of one bit-strip per member. Rank-jumping
    /// scans (forestall's stall predictor) rely on this being cheap.
    fn nth(&mut self, mut n: usize) -> Option<usize> {
        loop {
            let in_word = self.bits.count_ones() as usize;
            if n < in_word {
                break;
            }
            n -= in_word;
            // The skipped bits are spent even when no word follows.
            self.bits = 0;
            self.word_idx = self.set.word_after(self.word_idx)?;
            self.bits = self.set.words[self.word_idx];
        }
        // The target is the n-th set bit of the current word.
        for _ in 0..n {
            self.bits &= self.bits - 1;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word_idx << 6) + b)
    }

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word_idx = self.set.word_after(self.word_idx)?;
            self.bits = self.set.words[self.word_idx];
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word_idx << 6) + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = PosSet::new(200);
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(130));
        assert_eq!(s.len(), 2);
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.capacity(), 200);
    }

    #[test]
    fn successor_queries() {
        let mut s = PosSet::new(10_000);
        for p in [0, 63, 64, 127, 4096, 9999] {
            s.insert(p);
        }
        assert_eq!(s.next_at_or_after(0), Some(0));
        assert_eq!(s.next_at_or_after(1), Some(63));
        assert_eq!(s.next_at_or_after(64), Some(64));
        assert_eq!(s.next_at_or_after(65), Some(127));
        assert_eq!(s.next_at_or_after(128), Some(4096));
        assert_eq!(s.next_at_or_after(4097), Some(9999));
        assert_eq!(s.next_at_or_after(10_000), None);
        s.remove(9999);
        assert_eq!(s.next_at_or_after(4097), None);
    }

    #[test]
    fn iter_from_is_ascending() {
        let mut s = PosSet::new(500);
        for p in [3, 77, 78, 300, 499] {
            s.insert(p);
        }
        let got: Vec<usize> = s.iter_from(4).collect();
        assert_eq!(got, vec![77, 78, 300, 499]);
        assert_eq!(s.iter_from(0).count(), 5);
    }

    #[test]
    fn matches_btreeset_on_random_workload() {
        use crate::rng::Rng;
        let mut rng = Rng::seed_from_u64(77);
        let cap = 3000;
        let mut s = PosSet::new(cap);
        let mut reference = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let p = rng.gen_range(0usize..cap);
            match rng.gen_range(0u64..3) {
                0 => {
                    assert_eq!(s.insert(p), reference.insert(p));
                }
                1 => {
                    assert_eq!(s.remove(p), reference.remove(&p));
                }
                _ => {
                    let from = rng.gen_range(0usize..=cap);
                    assert_eq!(
                        s.next_at_or_after(from),
                        reference.range(from..).next().copied()
                    );
                    assert_eq!(
                        s.prev_at_or_before(from),
                        reference.range(..=from).next_back().copied(),
                        "prev_at_or_before({from})"
                    );
                    // The word-caching iterator must agree with the tree
                    // over a bounded window.
                    let got: Vec<usize> = s.iter_from(from).take(8).collect();
                    let want: Vec<usize> = reference.range(from..).take(8).copied().collect();
                    assert_eq!(got, want, "iter_from({from})");
                }
            }
            assert_eq!(s.len(), reference.len());
        }
    }

    #[test]
    fn matches_btreeset_across_long_empty_stretches() {
        // Three spans of 64³ positions and part of a fourth. Members
        // cluster near the 64ᵏ boundaries, so most queries cross long
        // empty stretches, many of them spanning dozens of summary
        // words (one per 4,096 positions).
        use crate::rng::Rng;
        use std::collections::BTreeSet;
        const SPAN: usize = 64 * 64 * 64;
        let cap = 3 * SPAN + 1000;
        let anchors = [
            0,
            64,
            4096,
            SPAN - 64,
            SPAN,
            SPAN + 4096,
            2 * SPAN,
            3 * SPAN,
            cap - 1,
        ];
        let mut rng = Rng::seed_from_u64(0x70b_1e7e1);
        let near = |rng: &mut Rng| {
            let a = anchors[rng.gen_range(0..anchors.len())];
            (a + rng.gen_range(0usize..130))
                .saturating_sub(65)
                .min(cap - 1)
        };
        let mut s = PosSet::new(cap);
        let mut reference = BTreeSet::new();
        let check = |s: &PosSet, reference: &BTreeSet<usize>, from: usize, n: usize| {
            assert_eq!(
                s.next_at_or_after(from),
                reference.range(from..).next().copied(),
                "next_at_or_after({from})"
            );
            assert_eq!(
                s.prev_at_or_before(from),
                reference.range(..=from).next_back().copied(),
                "prev_at_or_before({from})"
            );
            let got: Vec<usize> = s.iter_from(from).take(8).collect();
            let want: Vec<usize> = reference.range(from..).take(8).copied().collect();
            assert_eq!(got, want, "iter_from({from})");
            assert_eq!(
                s.iter_from(from).nth(n),
                reference.range(from..).nth(n).copied(),
                "nth({n}) from {from}"
            );
        };
        for _ in 0..20_000 {
            let p = near(&mut rng);
            match rng.gen_range(0u64..3) {
                0 => assert_eq!(s.insert(p), reference.insert(p)),
                1 => assert_eq!(s.remove(p), reference.remove(&p)),
                _ => {
                    let from = match rng.gen_bool(0.5) {
                        true => near(&mut rng),
                        false => rng.gen_range(0usize..=cap),
                    };
                    check(&s, &reference, from, rng.gen_range(0usize..12));
                }
            }
            assert_eq!(s.len(), reference.len());
        }
        // Two members three spans apart: every query between them crosses
        // up to 191 empty summary words in both directions.
        for p in std::mem::take(&mut reference) {
            s.remove(p);
        }
        for p in [5, cap - 1] {
            s.insert(p);
            reference.insert(p);
        }
        for from in [0, 5, 6, SPAN, 2 * SPAN + 7, cap - 2, cap - 1, cap] {
            for n in 0..3 {
                check(&s, &reference, from, n);
            }
        }
        assert_eq!(s.prev_at_or_before(usize::MAX), Some(cap - 1));
    }

    #[test]
    fn predecessor_queries_cross_word_and_summary_boundaries() {
        // Two summary words' worth of positions plus a partial third, so
        // the predecessor walk crosses both data-word and summary-word
        // boundaries; each member is asked from itself, from just above,
        // and from the far side of the gap above it.
        let cap = 2 * 4096 + 100;
        let mut s = PosSet::new(cap);
        let members = [0, 63, 64, 4095, 4096, 4097, 8191, 8192, cap - 1];
        let mut reference = std::collections::BTreeSet::new();
        for &p in &members {
            s.insert(p);
            reference.insert(p);
        }
        let mut froms = vec![cap, cap + 1, usize::MAX];
        for &p in &members {
            froms.extend([p, p + 1, p.saturating_sub(1)]);
        }
        for &from in &froms {
            assert_eq!(
                s.prev_at_or_before(from),
                reference.range(..=from).next_back().copied(),
                "prev_at_or_before({from})"
            );
        }
        // Only a low member left: the walk crosses every empty summary
        // word above it.
        for &p in &members[1..] {
            s.remove(p);
        }
        assert_eq!(s.prev_at_or_before(usize::MAX), Some(0));
        s.remove(0);
        assert_eq!(s.prev_at_or_before(usize::MAX), None);
        assert_eq!(s.prev_at_or_before(0), None);
    }

    #[test]
    fn nth_matches_step_by_step_iteration() {
        use crate::rng::Rng;
        let mut rng = Rng::seed_from_u64(2026);
        let cap = 5000;
        let mut s = PosSet::new(cap);
        for _ in 0..800 {
            s.insert(rng.gen_range(0usize..cap));
        }
        for _ in 0..500 {
            let from = rng.gen_range(0usize..=cap);
            let n = rng.gen_range(0usize..40);
            let via_nth = s.iter_from(from).nth(n);
            let via_next = {
                let mut it = s.iter_from(from);
                let mut last = None;
                for _ in 0..=n {
                    last = it.next();
                    if last.is_none() {
                        break;
                    }
                }
                last
            };
            assert_eq!(via_nth, via_next, "nth({n}) from {from}");
            // And the iterator keeps working after an nth call.
            let mut a = s.iter_from(from);
            let mut b = s.iter_from(from);
            let _ = a.nth(n);
            for _ in 0..=n {
                if b.next().is_none() {
                    break;
                }
            }
            assert_eq!(a.next(), b.next(), "continuation after nth({n})");
        }
        // Dense edge: every position set, skipping across word boundaries.
        let mut d = PosSet::new(300);
        for p in 0..300 {
            d.insert(p);
        }
        assert_eq!(d.iter_from(0).nth(63), Some(63));
        assert_eq!(d.iter_from(0).nth(64), Some(64));
        assert_eq!(d.iter_from(5).nth(200), Some(205));
        assert_eq!(d.iter_from(0).nth(299), Some(299));
        assert_eq!(d.iter_from(0).nth(300), None);
    }

    #[test]
    fn empty_and_zero_capacity() {
        let s = PosSet::new(0);
        assert_eq!(s.next_at_or_after(0), None);
        assert_eq!(s.prev_at_or_before(0), None);
        assert_eq!(s.prev_at_or_before(usize::MAX), None);
        assert!(s.is_empty());
        let s = PosSet::new(64);
        assert_eq!(s.next_at_or_after(63), None);
        assert_eq!(s.prev_at_or_before(63), None);
        assert_eq!(s.prev_at_or_before(64), None);
    }
}
