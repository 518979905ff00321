//! A small multiply-rotate hasher for the interpreter's hot maps.
//!
//! The world state's account maps, per-account storage and the EIP-2929
//! warm sets are looked up several times per storage instruction. Their keys
//! are addresses and 256-bit words produced by the campaign's own
//! executions: a contract that picked colliding slots on purpose could only
//! slow down its own campaign, so SipHash's flood resistance is not worth
//! its cost there. [`FxHasher`] is the Fx scheme (the one rustc uses for its
//! own tables): every 64-bit word is folded in with one rotate, one xor and
//! one multiply. `finish` rotates the well-mixed high bits down, because
//! hashbrown picks buckets from the low bits of the hash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the Fx scheme (`2^64 / φ`, rounded to odd).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx multiply-rotate hasher. See the [module documentation](self).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
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
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s for the std collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` under [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` under [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Address;
    use crate::u256::U256;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(&U256::from_u64(7)), hash_of(&U256::from_u64(7)));
        let slots: HashSet<u64> = (0..256u64).map(|n| hash_of(&U256::from_u64(n))).collect();
        assert_eq!(slots.len(), 256);
        let addresses: HashSet<u64> = (0..256u64)
            .map(|n| hash_of(&Address::from_low_u64(n)))
            .collect();
        assert_eq!(addresses.len(), 256);
    }

    #[test]
    fn small_keys_spread_over_the_low_bits() {
        // Sequential addresses differ only in their last bytes; the bucket
        // index (low bits) must still tell them apart.
        let buckets: HashSet<u64> = (0..64u64)
            .map(|n| hash_of(&Address::from_low_u64(n)) & 0xff)
            .collect();
        assert!(
            buckets.len() > 32,
            "only {} distinct buckets",
            buckets.len()
        );
    }
}
