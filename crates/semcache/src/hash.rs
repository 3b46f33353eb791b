//! The non-cryptographic hash every fingerprint in the serving stack is
//! built from, defined once: the cache key ([`crate::fingerprint`]) and
//! the corpus fingerprint (`prism_serve::fingerprint_batch`) fold bytes
//! through [`fnv1a`].
//!
//! Cache keys are functions of these values, so they are pinned by
//! golden constants in the callers' tests.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_fold_is_order_sensitive() {
        let eat = |h: u64, v: u64| fnv1a(h, &v.to_le_bytes());
        assert_ne!(eat(eat(FNV_OFFSET, 1), 2), eat(eat(FNV_OFFSET, 2), 1));
    }
}
