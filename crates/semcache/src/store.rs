//! The cache's entry representation and byte accounting.
//!
//! Each entry holds one candidate's full-depth result: its exact token
//! sequence (collision defense for the fingerprint map), its final
//! score, and its mean-pooled embedding vector stored as a 1-row
//! [`RowQuantBlock`] — the same versioned row-quantized int8 slot format
//! the hidden-state spill file uses, which costs ~4x less memory than
//! keeping the f32 vector. Byte accounting mirrors how spill bytes are
//! metered: payload bytes plus a fixed per-entry overhead, so the
//! serving layer's gauges and leak audits see cache residency the same
//! way they see spill residency.

use prism_tensor::{RowQuantBlock, Tensor};

/// Fixed accounting overhead per entry (fingerprint, signature, score,
/// recency links, Vec headers). Deliberately a round constant rather than a
/// `size_of` expression so byte budgets are stable across platforms and
/// the golden perf numbers don't drift with struct layout.
pub const ENTRY_OVERHEAD_BYTES: u64 = 96;

/// One cached candidate result.
#[derive(Debug, Clone)]
pub struct Entry {
    /// [`crate::fingerprint`] of `tokens` + the precision profile.
    pub fingerprint: u64,
    /// The candidate's exact token sequence (compared on exact-tier hits
    /// to defeat fingerprint collisions).
    pub tokens: Vec<u32>,
    /// Packed precision profile byte (spill + compute precision).
    pub profile: u8,
    /// The candidate's full-depth score under that profile.
    pub score: f32,
    /// Mean-pooled embedding vector, row-quantized to int8.
    pub vector: RowQuantBlock,
    /// LSH bucket signature the entry lives in.
    pub signature: u64,
}

impl Entry {
    /// Quantizes `pooled` and builds an entry.
    pub fn new(
        fingerprint: u64,
        tokens: Vec<u32>,
        profile: u8,
        score: f32,
        pooled: &[f32],
        signature: u64,
    ) -> Self {
        let t = Tensor::from_vec(1, pooled.len(), pooled.to_vec())
            .expect("pooled vector is non-empty and rectangular");
        let vector = RowQuantBlock::encode(&t).expect("1-row encode cannot fail");
        Entry {
            fingerprint,
            tokens,
            profile,
            score,
            vector,
            signature,
        }
    }

    /// Decodes the stored vector back to f32 (lossy by the int8
    /// quantization error bound, identically lossy on every decode).
    pub fn decode_vector(&self) -> Vec<f32> {
        let mut out = Tensor::zeros(1, self.vector.cols());
        self.vector
            .decode_into(&mut out)
            .expect("decode into matching shape cannot fail");
        out.data().to_vec()
    }

    /// Metered size of this entry: token bytes + quantized vector bytes
    /// + [`ENTRY_OVERHEAD_BYTES`].
    pub fn bytes(&self) -> u64 {
        entry_bytes(self.tokens.len(), &self.vector)
    }
}

/// Metered size of an entry with `token_len` tokens and the given
/// quantized vector — the unit the cache's byte budget and the serving
/// layer's `semcache_bytes` gauge count in.
pub fn entry_bytes(token_len: usize, vector: &RowQuantBlock) -> u64 {
    ENTRY_OVERHEAD_BYTES + (token_len as u64) * 4 + vector.size_bytes() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_round_trips_vector_within_quant_error() {
        let pooled: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
        let e = Entry::new(1, vec![5, 6, 7], 0, 0.5, &pooled, 9);
        let back = e.decode_vector();
        assert_eq!(back.len(), 32);
        let span = 2.0; // sin spans [-1, 1]
        for (a, b) in pooled.iter().zip(&back) {
            assert!((a - b).abs() <= span / 255.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn byte_accounting_matches_parts() {
        let pooled = vec![0.25f32; 16];
        let e = Entry::new(2, vec![1, 2], 1, 1.0, &pooled, 0);
        // 1x16 rowq block: 16 code bytes + 4 (min) + 4 (scale).
        assert_eq!(e.vector.size_bytes(), 16 + 8);
        assert_eq!(e.bytes(), ENTRY_OVERHEAD_BYTES + 2 * 4 + 24);
        assert_eq!(e.bytes(), entry_bytes(e.tokens.len(), &e.vector));
    }

    #[test]
    fn decode_is_deterministic() {
        let pooled: Vec<f32> = (0..8).map(|i| i as f32 * 0.125 - 0.4).collect();
        let e = Entry::new(3, vec![9], 0, -0.25, &pooled, 4);
        let a: Vec<u32> = e.decode_vector().iter().map(|x| x.to_bits()).collect();
        let b: Vec<u32> = e.decode_vector().iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
    }
}
