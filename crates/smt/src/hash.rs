//! The one hasher behind the solver's internal maps.
//!
//! Every key is made by the solver itself (term ids, or a term kind's own
//! hash), never read from input, so the default SipHash's protection
//! against crafted collisions buys nothing here; a rotate–xor–multiply
//! per word is enough and several times cheaper.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Word-at-a-time multiplicative hasher (the Firefox / rustc "Fx" mix).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

const MIX: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(MIX);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` on [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hash of one value under [`FxHasher`].
pub fn fx_hash<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal_and_small_keys_spread() {
        assert_eq!(
            fx_hash(&(3u32, vec![1i64, -2])),
            fx_hash(&(3u32, vec![1i64, -2]))
        );
        assert_ne!(fx_hash(&vec![1i64, 2]), fx_hash(&vec![2i64, 1]));
        // Consecutive ids (the common key) land in distinct low-bit buckets.
        let low: std::collections::BTreeSet<u64> = (0u32..64).map(|k| fx_hash(&k) & 63).collect();
        assert_eq!(low.len(), 64);
    }
}
