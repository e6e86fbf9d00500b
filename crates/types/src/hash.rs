//! A fast, deterministic hasher for the simulator's internal maps.
//!
//! The standard library's default hasher (SipHash) is keyed per process
//! and hardened against collision attacks — properties the simulator does
//! not need for maps keyed by its own block identifiers, and pays for on
//! every oracle build and index lookup. [`FastHasher`] is an FxHash-style
//! multiply-rotate mix: a few cycles per word, the same result in every
//! process (nothing observable depends on hash order — the maps are only
//! ever probed, never iterated), and no dependencies.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FastHasher`]; plug into `HashMap::with_hasher` or
/// the `HashMap<K, V, FastBuildHasher>` type position.
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using `FastHasher`.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// Multiply-rotate hasher (the FxHash construction rustc itself uses).
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

/// The golden-ratio multiplier FxHash uses for 64-bit words.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the tail-padded input; keys here are small
        // (block ids, trace names), so simplicity beats cleverness.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
            self.mix(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(12345);
        b.write_u64(12345);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hash = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        let hashes: std::collections::HashSet<u64> = (0..10_000).map(hash).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let hash = |b: &[u8]| {
            let mut h = FastHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(hash(b"hello"), hash(b"hello"));
        assert_ne!(hash(b"hello"), hash(b"hellp"));
        // Length is mixed in, so a zero-padded prefix differs from the
        // padded form of a shorter key.
        assert_ne!(hash(b"ab"), hash(b"ab\0\0\0\0\0\0"));
    }

    #[test]
    fn fast_map_works_as_a_map() {
        let mut m: FastMap<crate::BlockId, u32> = FastMap::default();
        for i in 0..1000 {
            m.insert(crate::BlockId(i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&crate::BlockId(7)), Some(&7));
        assert_eq!(m.get(&crate::BlockId(1000)), None);
    }
}
