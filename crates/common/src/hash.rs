//! A fast, non-cryptographic hasher in the spirit of rustc's `FxHasher`.
//!
//! HashDoS resistance is irrelevant for the KGModel engines (all inputs are
//! trusted design artefacts or synthetic workloads), while hash throughput on
//! small integer keys — OIDs, symbols, tuple hashes — dominates the chase and
//! pattern-matching inner loops. The external `rustc-hash` crate is not in
//! the approved dependency set, so the algorithm (a multiply-and-rotate mix
//! with the same golden-ratio constant) is implemented here.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;
/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc `Fx` mixing function: fast and well-distributed for small keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
            // Mix in the length so prefixes of zero-padded keys differ.
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Hash any `Hash` value with the Fx algorithm in one call.
///
/// Used wherever a stable in-process 64-bit digest is needed (tuple
/// signatures, Skolem argument folding).
#[inline]
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_integers_hash_differently() {
        let a = fx_hash_one(&1u64);
        let b = fx_hash_one(&2u64);
        assert_ne!(a, b);
    }

    #[test]
    fn byte_prefixes_hash_differently() {
        // A zero-padded remainder must not collide with the shorter prefix.
        assert_ne!(
            fx_hash_one(&b"ab".as_slice()),
            fx_hash_one(&b"ab\0".as_slice())
        );
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(fx_hash_one(&"CONTROLS"), fx_hash_one(&"CONTROLS"));
    }

    #[test]
    fn maps_work_with_fx_hasher() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "v");
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&"v"));
    }
}
