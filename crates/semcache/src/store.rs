//! The cache's entry representation and byte accounting.
//!
//! Each entry holds one candidate's full-depth result: its fingerprint,
//! its exact token sequence (compared on every hit, the collision
//! defense for the fingerprint map), its precision profile byte and its
//! final score. Byte accounting mirrors how spill bytes are metered:
//! payload bytes plus a fixed per-entry overhead, so the serving layer's
//! gauges and leak audits see cache residency the same way they see
//! spill residency.

/// Fixed accounting overhead per entry (fingerprint, profile, score,
/// recency links, Vec header). Deliberately a round constant rather than
/// a `size_of` expression so byte budgets are stable across platforms.
pub const ENTRY_OVERHEAD_BYTES: u64 = 96;

/// One cached candidate result.
#[derive(Debug, Clone)]
pub struct Entry {
    /// [`crate::fingerprint`] of `tokens` + the precision profile.
    pub fingerprint: u64,
    /// The candidate's exact token sequence.
    pub tokens: Vec<u32>,
    /// Packed precision profile byte (the spill precision).
    pub profile: u8,
    /// The candidate's full-depth score under that profile.
    pub score: f32,
}

impl Entry {
    /// Whether this entry is the candidate `tokens` under `profile`.
    pub fn is(&self, tokens: &[u32], profile: u8) -> bool {
        self.profile == profile && self.tokens == tokens
    }

    /// Metered size of this entry (see [`entry_bytes`]).
    pub fn bytes(&self) -> u64 {
        entry_bytes(self.tokens.len())
    }
}

/// Metered size of an entry with `token_len` tokens: token bytes +
/// [`ENTRY_OVERHEAD_BYTES`] — the unit the cache's byte budget and the
/// serving layer's `semcache_bytes` gauge count in.
pub fn entry_bytes(token_len: usize) -> u64 {
    ENTRY_OVERHEAD_BYTES + (token_len as u64) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting_matches_parts() {
        let e = Entry {
            fingerprint: 2,
            tokens: vec![1, 2],
            profile: 1,
            score: 1.0,
        };
        assert_eq!(e.bytes(), ENTRY_OVERHEAD_BYTES + 2 * 4);
        assert_eq!(e.bytes(), entry_bytes(e.tokens.len()));
    }
}
