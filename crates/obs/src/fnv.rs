//! FNV-1a (64-bit): the workspace's one stable, dependency-free hash.
//!
//! Every pinned fingerprint (golden traces, simtest reply digests, ring
//! placement, sim-network fates) goes through these functions, so their
//! output is a compatibility contract: changing a constant or the byte
//! order re-pins all of them. All functions continue a running state
//! `h`; start from [`OFFSET`].

/// The FNV-1a 64-bit offset basis — the state before any input.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV round over a whole 64-bit word (xor, then multiply). This is
/// how per-seed / per-client digests are folded into a run fingerprint;
/// it is *not* the same as hashing the word's bytes ([`u64`]).
pub fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

/// Hash a byte slice into `h`.
pub fn bytes(h: u64, data: &[u8]) -> u64 {
    data.iter().fold(h, |h, &b| fold(h, u64::from(b)))
}

/// Hash the little-endian bytes of `v` into `h`.
pub fn u64(h: u64, v: u64) -> u64 {
    bytes(h, &v.to_le_bytes())
}

/// Hash the UTF-8 bytes of `s` into `h`.
pub fn str(h: u64, s: &str) -> u64 {
    bytes(h, s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(bytes(OFFSET, b""), OFFSET);
        assert_eq!(bytes(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(str(OFFSET, "foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(u64(OFFSET, 0x61), bytes(OFFSET, b"a\0\0\0\0\0\0\0"));
        assert_ne!(fold(OFFSET, 0x0100), u64(OFFSET, 0x0100));
    }
}
