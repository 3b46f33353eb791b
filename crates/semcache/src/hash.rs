//! The two non-cryptographic hashes every fingerprint in the serving
//! stack is built from, defined once: session-cache corpus fingerprints
//! (`prism-serve`) and the exact-tier cache key ([`crate::fingerprint`])
//! fold bytes through [`fnv1a`]; verification sampling disperses through
//! [`mix64`].
//!
//! Cache keys and sampling decisions are functions of these values, so
//! they are pinned by golden constants in the callers' tests.

/// FNV-1a 64-bit offset basis: the state every [`fnv1a`] fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a state `h`.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64's stream increment (the 64-bit golden-ratio constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a cheap, well-dispersed 64-bit mix.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_fold_is_order_sensitive() {
        let eat = |h: u64, v: u64| fnv1a(h, &v.to_le_bytes());
        assert_ne!(eat(eat(FNV_OFFSET, 1), 2), eat(eat(FNV_OFFSET, 2), 1));
    }
}
