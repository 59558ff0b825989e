//! A minimal Fx-style multiplicative hasher for internal maps.
//!
//! The dense solver groups flows by union-find root on every recompute,
//! a map probe per flow; SipHash is needless cost for such keys. This is the rustc `FxHasher` recurrence (rotate, xor, multiply — one
//! multiply per word), which is not DoS-resistant and must not be used for
//! attacker-controlled keys; keys derived from the simulation's own state
//! are fine.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-shot word-at-a-time multiplicative hasher.
pub(crate) struct FxHasher {
    hash: u64,
}

impl Default for FxHasher {
    fn default() -> Self {
        // Start from the multiplier, not zero: with a zero state every
        // zero input word is a fixed point, so `[0]` and `[0, 0]` collide.
        Self { hash: SEED }
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix the length so trailing zero bytes and absent bytes differ.
            self.add(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinguishes_nearby_keys() {
        let h = |v: &[u64]| {
            let mut hasher = FxHasher::default();
            for &w in v {
                hasher.write_u64(w);
            }
            hasher.finish()
        };
        assert_ne!(h(&[1, 2, 3]), h(&[1, 2, 4]));
        assert_ne!(h(&[0]), h(&[0, 0]));
        assert_eq!(h(&[7, 9]), h(&[7, 9]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
        m.insert(vec![1, 2, 3], 7);
        m.insert(vec![1, 2], 9);
        assert_eq!(m.get(&vec![1, 2, 3]), Some(&7));
        assert_eq!(m.get(&vec![1, 2]), Some(&9));
        assert_eq!(m.get(&vec![3, 2, 1]), None);
    }
}
