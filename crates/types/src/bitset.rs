//! A fixed-capacity bitset over dense `u32` indices.
//!
//! The simulator's hot paths key cache residency and in-flight state by a
//! compact block index assigned by the oracle. A bitset answers
//! membership in one load + mask instead of a hash probe, and its
//! capacity is fixed at construction (the universe of distinct blocks is
//! known before a run starts).

/// A fixed-capacity set of `u32` indices backed by a word array.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of indices the set can hold (a multiple of 64).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Number of indices currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no index is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `i` is in the set.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Inserts `i`; returns true when it was not already present.
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `i`; returns true when it was present.
    #[inline]
    pub fn remove(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i % 64);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= usize::from(present);
        present
    }

    /// Iterates over the set indices in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(w as u32 * 64 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::with_capacity(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports already-present");
        assert_eq!(s.len(), 4);
        assert!(s.contains(129) && s.contains(0));
        assert!(s.remove(63));
        assert!(!s.remove(63), "double remove reports absent");
        assert_eq!(s.len(), 3);
        assert!(!s.contains(63));
    }

    #[test]
    fn ones_are_ascending_and_complete() {
        let mut s = BitSet::with_capacity(256);
        for &i in &[7u32, 0, 255, 64, 128, 63] {
            s.insert(i);
        }
        let got: Vec<u32> = s.ones().collect();
        assert_eq!(got, vec![0, 7, 63, 64, 128, 255]);
    }

    #[test]
    fn zero_capacity_is_usable() {
        let s = BitSet::with_capacity(0);
        assert_eq!(s.capacity(), 0);
        assert!(s.is_empty());
    }
}
