//! A fixed, fast hasher for the simulator's internal maps.
//!
//! The protocol maps (directory, memory store, traffic classifier) are keyed
//! by small integers the simulator computes itself — block addresses, word
//! addresses, `(node, block)` pairs — and are probed on every coherence
//! event. The standard library's SipHash with a per-process random key is
//! built to resist keys crafted to collide, which these maps cannot meet,
//! and costs several times more per probe. [`FxHasher`] is the
//! multiply-rotate hash of the Rust compiler's `FxHash`, written out here
//! because the workspace builds offline without third-party crates.
//!
//! It is unkeyed, so a [`FastMap`] iterates in the same order in every
//! process. Output still never depends on that order: the snapshot encoders
//! sort.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the 64-bit FxHash variant (odd, high-entropy).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// An FxHash-style hasher: one add and one multiply per written integer.
///
/// `finish` rotates the product so that its best-mixed high bits land in
/// the low bits the hash table indexes buckets with. Without the rotation,
/// keys that are multiples of 64 (block addresses) would all hash to
/// multiples of 64 and crowd a sixty-fourth of the buckets.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
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

/// A `HashMap` hashed with [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn unkeyed_and_input_sensitive() {
        assert_eq!(hash_of((3usize, 0x40u32)), hash_of((3usize, 0x40u32)));
        assert_ne!(hash_of((3usize, 0x40u32)), hash_of((0x40usize, 3u32)), "field order matters");
        assert_ne!(hash_of(0x1000u32), hash_of(0x1040u32));
        // Byte-slice input folds in 8-byte words plus a padded tail.
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefgh"));
    }

    /// Block addresses are multiples of 64. Their hashes must still spread
    /// over the low bits a table indexes with.
    #[test]
    fn block_aligned_keys_spread_over_low_bits() {
        let mut seen = std::collections::BTreeSet::new();
        for b in 0..1024u32 {
            seen.insert(hash_of(b * 64) & 0xff);
        }
        assert!(seen.len() > 200, "only {} of 256 low-byte values hit", seen.len());
    }

    #[test]
    fn fast_map_iterates_in_a_fixed_order() {
        let build = || {
            let mut m: FastMap<u32, u32> = FastMap::default();
            for i in 0..100 {
                m.insert(i * 64, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
