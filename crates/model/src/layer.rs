//! Per-layer transformer forward pass over a batch of packed sequences.
//!
//! Sequences are packed vertically into one `[total_tokens, D]` hidden
//! tensor with explicit `(start, end)` row ranges; attention is computed
//! per sequence (no cross-candidate attention — each query–candidate pair
//! is an independent input, they merely share the batch). This function is
//! deliberately free-standing: the PRISM engine calls it with *streamed*
//! weights it owns for exactly one layer at a time.
//!
//! [`forward_layer_with`] is the one function that applies a layer, for
//! every weight format a [`MatRef`] holds. It threads a reusable
//! [`ForwardScratch`] workspace through the layer so steady-state
//! execution performs **zero heap allocations**: projections land in
//! preallocated buffers via the `_into` kernels, and attention reads
//! per-head Q/K/V column slices and writes its output through strided
//! GEMMs instead of slicing, concatenating and re-copying tensors.
//! Int8 weights run every projection as a u8×i8 GEMM: each activation
//! block feeding projections is rowq-encoded once into the scratch's
//! lane, and the integer kernels multiply that encoding.

use prism_tensor::igemm::RowQuantBlock;
use prism_tensor::{ops, Tensor, TensorError};

use crate::weights::Int8LayerWeights;
use crate::{LayerWeights, MatRef, ModelArch, ModelConfig, Result};

/// Reusable per-worker workspace for [`forward_layer_with`].
///
/// Holds every intermediate the layer needs — the normed copy, Q/K/V,
/// the attention output, the projection result, FFN gate/up and the
/// per-sequence logits — sized once (typically from the engine's chunk
/// geometry) and re-dressed per call with [`Tensor::resize`], which never
/// reallocates while shapes stay within the original capacity. The int8
/// lane sizes itself on the first int8 forward. One scratch serves one
/// worker thread; parallel chunk execution gives each worker its own.
#[derive(Debug)]
pub struct ForwardScratch {
    normed: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Tensor,
    proj: Tensor,
    gate: Tensor,
    up: Tensor,
    logits: Vec<f32>,
    /// Rowq encoding of the activation block feeding the current int8
    /// projections. One lane serves both widths (`D` for attention/FFN
    /// inputs, `F` for the down projection) because each encode is fully
    /// consumed before the next.
    lane: RowQuantBlock,
}

impl ForwardScratch {
    /// Allocates a workspace able to forward up to `max_tokens` packed
    /// tokens (and sequences up to `config.max_seq`) without reallocating.
    pub fn new(config: &ModelConfig, max_tokens: usize) -> Self {
        let d = config.hidden_dim;
        let f = config.ffn_dim;
        let s = config.max_seq;
        ForwardScratch {
            normed: Tensor::zeros(max_tokens, d),
            q: Tensor::zeros(max_tokens, d),
            k: Tensor::zeros(max_tokens, d),
            v: Tensor::zeros(max_tokens, d),
            attn: Tensor::zeros(max_tokens, d),
            proj: Tensor::zeros(max_tokens, d),
            gate: Tensor::zeros(max_tokens, f),
            up: Tensor::zeros(max_tokens, f),
            logits: vec![0.0; s * s],
            lane: RowQuantBlock::new(),
        }
    }

    /// Re-dresses the buffers for `tokens` packed rows with longest
    /// sequence `max_seq`; grows (allocating) only when a request exceeds
    /// the capacity chosen at construction.
    fn prepare(&mut self, config: &ModelConfig, tokens: usize, max_seq: usize) {
        let d = config.hidden_dim;
        let f = config.ffn_dim;
        self.normed.resize(tokens, d);
        self.q.resize(tokens, d);
        self.k.resize(tokens, d);
        self.v.resize(tokens, d);
        self.attn.resize(tokens, d);
        self.proj.resize(tokens, d);
        self.gate.resize(tokens, f);
        self.up.resize(tokens, f);
        if self.logits.len() < max_seq * max_seq {
            self.logits.resize(max_seq * max_seq, 0.0);
        }
    }

    /// Resident bytes of the workspace at its current shape.
    pub fn size_bytes(&self) -> usize {
        self.normed.size_bytes()
            + self.q.size_bytes()
            + self.k.size_bytes()
            + self.v.size_bytes()
            + self.attn.size_bytes()
            + self.proj.size_bytes()
            + self.gate.size_bytes()
            + self.up.size_bytes()
            + self.logits.len() * std::mem::size_of::<f32>()
            + self.lane.size_bytes()
    }
}

/// `outs[i] = x · ws[i]ᵀ` for the projections reading one activation
/// block. Int8 matrices multiply `x`'s rowq encoding, made once into
/// `lane` for all of them; dense and 4-bit matrices read `x` directly.
fn project<const N: usize>(
    x: &Tensor,
    lane: &mut RowQuantBlock,
    projections: [(&MatRef, &mut Tensor); N],
) -> Result<()> {
    let mut encoded = false;
    for (w, out) in projections {
        match w {
            MatRef::Dense(w) => ops::matmul_transb_into(x, w, out)?,
            MatRef::Quant(q) => q.matmul_transb_into(x, out)?,
            MatRef::Int8(q) => {
                if !encoded {
                    lane.encode_into(x)?;
                    encoded = true;
                }
                q.matmul_rowq_into(lane, out)?;
            }
        }
    }
    Ok(())
}

/// Applies transformer layer `layer_idx` in place on `hidden`.
///
/// Convenience wrapper over [`forward_layer_with`] that allocates a
/// throwaway [`ForwardScratch`]; callers on a hot path (the engine, the
/// baselines) keep a scratch alive across layers and chunks instead.
pub fn forward_layer(
    config: &ModelConfig,
    weights: &LayerWeights,
    layer_idx: usize,
    hidden: &mut Tensor,
    ranges: &[(usize, usize)],
) -> Result<()> {
    let mut scratch = ForwardScratch::new(config, hidden.rows());
    forward_layer_with(config, weights, layer_idx, hidden, ranges, &mut scratch)
}

/// Applies transformer layer `layer_idx` in place on `hidden`, using a
/// caller-provided scratch workspace (zero heap allocations in steady
/// state).
///
/// `ranges` lists each sequence's `[start, end)` rows in `hidden`. The
/// residual update is scaled by the config's per-layer `α` (DESIGN.md §6),
/// which is what makes score trajectories converge across depth.
pub fn forward_layer_with(
    config: &ModelConfig,
    weights: &LayerWeights,
    layer_idx: usize,
    hidden: &mut Tensor,
    ranges: &[(usize, usize)],
    scratch: &mut ForwardScratch,
) -> Result<()> {
    if hidden.cols() != config.hidden_dim {
        return Err(TensorError::ShapeMismatch {
            op: "forward_layer",
            lhs: hidden.shape(),
            rhs: (hidden.rows(), config.hidden_dim),
        }
        .into());
    }
    let max_seq = ranges
        .iter()
        .map(|&(s, e)| e.saturating_sub(s))
        .max()
        .unwrap_or(0);
    scratch.prepare(config, hidden.rows(), max_seq);
    let alpha = config.alpha_at(layer_idx);

    // ---- Attention block (pre-norm) ----
    scratch.normed.data_mut().copy_from_slice(hidden.data());
    apply_norm(
        config,
        &mut scratch.normed,
        &weights.norm1_gain,
        &weights.norm1_bias,
    )?;
    project(
        &scratch.normed,
        &mut scratch.lane,
        [
            (&weights.wq, &mut scratch.q),
            (&weights.wk, &mut scratch.k),
            (&weights.wv, &mut scratch.v),
        ],
    )?;
    multi_head_attention_into(
        config,
        &scratch.q,
        &scratch.k,
        &scratch.v,
        ranges,
        &mut scratch.attn,
        &mut scratch.logits,
    )?;
    project(
        &scratch.attn,
        &mut scratch.lane,
        [(&weights.wo, &mut scratch.proj)],
    )?;
    ops::axpy_inplace(hidden, alpha, &scratch.proj)?;

    // ---- FFN block (pre-norm, gated) ----
    scratch.normed.data_mut().copy_from_slice(hidden.data());
    apply_norm(
        config,
        &mut scratch.normed,
        &weights.norm2_gain,
        &weights.norm2_bias,
    )?;
    project(
        &scratch.normed,
        &mut scratch.lane,
        [
            (&weights.w_gate, &mut scratch.gate),
            (&weights.w_up, &mut scratch.up),
        ],
    )?;
    match config.arch {
        ModelArch::DecoderOnly => ops::silu_inplace(&mut scratch.gate),
        ModelArch::EncoderOnly => ops::gelu_inplace(&mut scratch.gate),
    }
    ops::hadamard_inplace(&mut scratch.gate, &scratch.up)?;
    project(
        &scratch.gate,
        &mut scratch.lane,
        [(&weights.w_down, &mut scratch.proj)],
    )?;
    ops::axpy_inplace(hidden, alpha, &scratch.proj)?;
    Ok(())
}

/// [`forward_layer_with`] on the wrapped int8 weights. Kept only for the
/// standalone `benchmark/` crate, like [`Int8LayerWeights`].
pub fn forward_layer_int8(
    config: &ModelConfig,
    weights: &Int8LayerWeights,
    layer_idx: usize,
    hidden: &mut Tensor,
    ranges: &[(usize, usize)],
    scratch: &mut ForwardScratch,
) -> Result<()> {
    forward_layer_with(config, &weights.0, layer_idx, hidden, ranges, scratch)
}

/// Applies the architecture's normalization in place.
pub fn apply_norm(config: &ModelConfig, x: &mut Tensor, gain: &[f32], bias: &[f32]) -> Result<()> {
    match config.arch {
        ModelArch::DecoderOnly => ops::rms_norm_inplace(x, gain, 1e-6)?,
        ModelArch::EncoderOnly => ops::layer_norm_inplace(x, gain, bias, 1e-6)?,
    }
    Ok(())
}

/// Multi-head attention over packed sequences, written directly into
/// `out` through strided GEMMs.
///
/// Per-head Q/K/V column blocks are read in place from the packed
/// `[tokens, D]` buffers (row stride `D`), logits live in the scratch
/// `logits` slice, and each head's output lands in its own column block
/// of `out` — no per-head copies, no per-row shuffles.
fn multi_head_attention_into(
    config: &ModelConfig,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    ranges: &[(usize, usize)],
    out: &mut Tensor,
    logits: &mut [f32],
) -> Result<()> {
    let d = config.hidden_dim;
    let heads = config.num_heads;
    let hd = d / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let total = q.rows();
    // Rows not covered by any range must stay zero (pre-scratch
    // behavior); when the ranges tile the buffer end to end — the engine
    // always packs them that way — every row is overwritten and the
    // clear can be skipped.
    let contiguous = ranges
        .iter()
        .try_fold(0_usize, |at, &(s, e)| (s == at && e >= s).then_some(e))
        == Some(total);
    if !contiguous {
        out.data_mut().fill(0.0);
    }
    for &(start, end) in ranges {
        if start > end || end > total {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: total,
            }
            .into());
        }
        let s = end - start;
        if s == 0 {
            continue;
        }
        let lg = &mut logits[..s * s];
        for h in 0..heads {
            let c0 = h * hd;
            ops::gemm_transb_strided(
                &q.data()[start * d + c0..],
                d,
                &k.data()[start * d + c0..],
                d,
                lg,
                s,
                s,
                hd,
                s,
            );
            for (r, row) in lg.chunks_mut(s).enumerate() {
                if config.arch == ModelArch::DecoderOnly {
                    // Causal: position r attends to 0..=r. Softmax of the
                    // valid prefix plus explicit zeros is bit-identical to
                    // masking the tail with -inf (whose exp flushes to 0)
                    // and halves the softmax work.
                    ops::softmax_scaled_in_place(&mut row[..=r], scale);
                    row[r + 1..].fill(0.0);
                } else {
                    ops::softmax_scaled_in_place(row, scale);
                }
            }
            ops::gemm_strided(
                lg,
                s,
                &v.data()[start * d + c0..],
                d,
                &mut out.data_mut()[start * d + c0..],
                d,
                s,
                s,
                hd,
            );
        }
    }
    Ok(())
}

/// Transient intermediate-tensor bytes needed to run one layer over
/// `total_tokens` packed tokens with maximum sequence length `max_seq`.
///
/// Counts the [`ForwardScratch`] working set — which is now *actually
/// resident* for the whole layer: normed copy, Q/K/V, attention output,
/// projection buffer (6 `T x D` tensors), FFN gate/up (2 `T x F`) and the
/// `S x S` logits buffer. This is the quantity chunked execution (§4.3)
/// bounds.
pub fn intermediate_bytes(config: &ModelConfig, total_tokens: usize, max_seq: usize) -> u64 {
    let d = config.hidden_dim as u64;
    let f = config.ffn_dim as u64;
    let t = total_tokens as u64;
    let s = max_seq as u64;
    let act = config.activation_dtype_bytes as u64;
    (6 * t * d + s * s + 2 * t * f) * act
}

/// Bytes the [`ForwardScratch`] rowq lane holds after an int8 layer over
/// `total_tokens` packed tokens: one u8 code per element of the widest
/// activation block it encodes (`max(D, F)` columns) plus an f32 minimum
/// and an f32 scale per row. [`intermediate_bytes`] leaves it out; an f32
/// or q4 layer never fills it.
pub fn rowq_lane_bytes(config: &ModelConfig, total_tokens: usize) -> u64 {
    let t = total_tokens as u64;
    let widest = config.hidden_dim.max(config.ffn_dim) as u64;
    t * widest + 8 * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerWeights, ModelArch, ModelConfig};

    fn setup(arch: ModelArch) -> (ModelConfig, LayerWeights, Tensor, Vec<(usize, usize)>) {
        let config = ModelConfig::test_config(arch, 2);
        let w = LayerWeights::generate(&config, 0, 11);
        let hidden = Tensor::from_fn(12, config.hidden_dim, |r, c| {
            ((r * 7 + c * 3) as f32 * 0.13).sin() * 0.5
        });
        let ranges = vec![(0, 5), (5, 12)];
        (config, w, hidden, ranges)
    }

    #[test]
    fn forward_changes_hidden_finite() {
        for arch in [ModelArch::DecoderOnly, ModelArch::EncoderOnly] {
            let (config, w, mut hidden, ranges) = setup(arch);
            let before = hidden.clone();
            forward_layer(&config, &w, 0, &mut hidden, &ranges).unwrap();
            assert!(hidden.max_abs_diff(&before).unwrap() > 1e-4);
            assert!(hidden.data().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn sequences_are_independent() {
        // Forwarding two sequences together must equal forwarding them
        // separately: no information may leak across candidates.
        let (config, w, hidden, ranges) = setup(ModelArch::DecoderOnly);
        let mut joint = hidden.clone();
        forward_layer(&config, &w, 0, &mut joint, &ranges).unwrap();

        let mut first = hidden.slice_rows(0, 5).unwrap();
        forward_layer(&config, &w, 0, &mut first, &[(0, 5)]).unwrap();
        let mut second = hidden.slice_rows(5, 12).unwrap();
        forward_layer(&config, &w, 0, &mut second, &[(0, 7)]).unwrap();

        let sep = Tensor::vcat(&[&first, &second]).unwrap();
        assert!(joint.max_abs_diff(&sep).unwrap() < 1e-4);
    }

    #[test]
    fn causal_masking_blocks_future_influence() {
        // For decoder models, perturbing the last token must not change
        // earlier tokens' outputs.
        let (config, w, hidden, _) = setup(ModelArch::DecoderOnly);
        let ranges = vec![(0, 12)];
        let mut a = hidden.clone();
        forward_layer(&config, &w, 0, &mut a, &ranges).unwrap();

        let mut perturbed = hidden.clone();
        for c in 0..config.hidden_dim {
            *perturbed.at_mut(11, c) += 1.0;
        }
        let mut b = perturbed.clone();
        forward_layer(&config, &w, 0, &mut b, &ranges).unwrap();

        let a_prefix = a.slice_rows(0, 11).unwrap();
        let b_prefix = b.slice_rows(0, 11).unwrap();
        assert!(a_prefix.max_abs_diff(&b_prefix).unwrap() < 1e-5);
    }

    #[test]
    fn bidirectional_attention_propagates_everywhere() {
        // For encoder models, perturbing the last token must change earlier
        // tokens' outputs.
        let (config, w, hidden, _) = setup(ModelArch::EncoderOnly);
        let ranges = vec![(0, 12)];
        let mut a = hidden.clone();
        forward_layer(&config, &w, 0, &mut a, &ranges).unwrap();
        let mut perturbed = hidden.clone();
        // A single-dimension bump: LayerNorm is shift-invariant, so a
        // uniform bump across all dims would be normalized away.
        *perturbed.at_mut(11, 3) += 2.0;
        let mut b = perturbed.clone();
        forward_layer(&config, &w, 0, &mut b, &ranges).unwrap();
        let a_prefix = a.slice_rows(0, 11).unwrap();
        let b_prefix = b.slice_rows(0, 11).unwrap();
        assert!(a_prefix.max_abs_diff(&b_prefix).unwrap() > 1e-5);
    }

    #[test]
    fn residual_decay_shrinks_updates() {
        let (config, w, hidden, ranges) = setup(ModelArch::DecoderOnly);
        // Same weights at layer 0 vs layer 8: the deeper application must
        // change hidden strictly less (alpha decays).
        let mut early = hidden.clone();
        forward_layer(&config, &w, 0, &mut early, &ranges).unwrap();
        let mut late = hidden.clone();
        forward_layer(&config, &w, 8, &mut late, &ranges).unwrap();
        let delta_early = early.max_abs_diff(&hidden).unwrap();
        let delta_late = late.max_abs_diff(&hidden).unwrap();
        assert!(
            delta_late < delta_early * 0.5,
            "early {delta_early} late {delta_late}"
        );
    }

    #[test]
    fn quantized_layer_close_to_dense() {
        let (config, w, hidden, ranges) = setup(ModelArch::DecoderOnly);
        let wq = w.quantize().unwrap();
        let mut dense = hidden.clone();
        forward_layer(&config, &w, 0, &mut dense, &ranges).unwrap();
        let mut quant = hidden.clone();
        forward_layer(&config, &wq, 0, &mut quant, &ranges).unwrap();
        let diff = dense.max_abs_diff(&quant).unwrap();
        assert!(diff < 0.15, "quantization divergence {diff}");
    }

    #[test]
    fn int8_layer_close_to_dense() {
        // The integer compute path quantizes both operands of every
        // projection (u8 activations, i8 weights); per layer that stays
        // within the same error envelope as the W4 weight quantization.
        for arch in [ModelArch::DecoderOnly, ModelArch::EncoderOnly] {
            let (config, w, hidden, ranges) = setup(arch);
            let w8 = w.to_int8().unwrap();
            let mut dense = hidden.clone();
            forward_layer(&config, &w, 0, &mut dense, &ranges).unwrap();
            let mut int8 = hidden.clone();
            forward_layer(&config, &w8, 0, &mut int8, &ranges).unwrap();
            let diff = dense.max_abs_diff(&int8).unwrap();
            assert!(diff < 0.15, "{arch:?}: int8 divergence {diff}");
            assert!(int8.data().iter().all(|x| x.is_finite()));
            // And it must actually have moved the hidden state.
            assert!(int8.max_abs_diff(&hidden).unwrap() > 1e-4);
        }
    }

    #[test]
    fn int8_layer_reuses_scratch_across_shapes() {
        // A scratch sized for the larger batch must serve a smaller one
        // without corrupting results (stale codes beyond the new token
        // count must not leak into the GEMMs).
        let (config, w, hidden, ranges) = setup(ModelArch::DecoderOnly);
        let w8 = w.to_int8().unwrap();
        let mut scratch = ForwardScratch::new(&config, hidden.rows());
        let mut big = hidden.clone();
        forward_layer_with(&config, &w8, 0, &mut big, &ranges, &mut scratch).unwrap();

        let mut small = hidden.slice_rows(0, 5).unwrap();
        forward_layer_with(&config, &w8, 0, &mut small, &[(0, 5)], &mut scratch).unwrap();
        let mut fresh = hidden.slice_rows(0, 5).unwrap();
        forward_layer(&config, &w8, 0, &mut fresh, &[(0, 5)]).unwrap();
        assert_eq!(
            small.data(),
            fresh.data(),
            "scratch reuse changed int8 results"
        );
    }

    #[test]
    fn workspace_formula_matches_the_scratch_after_each_format() {
        for arch in [ModelArch::DecoderOnly, ModelArch::EncoderOnly] {
            let (config, w, hidden, ranges) = setup(arch);
            let rows = hidden.rows();
            let f32_part = intermediate_bytes(&config, rows, config.max_seq);
            let mut scratch = ForwardScratch::new(&config, rows);
            let mut h = hidden.clone();
            forward_layer_with(&config, &w, 0, &mut h, &ranges, &mut scratch).unwrap();
            assert_eq!(
                scratch.lane.size_bytes(),
                0,
                "{arch:?}: f32 leaves the lane empty"
            );
            assert_eq!(scratch.size_bytes() as u64, f32_part, "{arch:?}");

            let w8 = w.to_int8().unwrap();
            let mut h = hidden.clone();
            forward_layer_with(&config, &w8, 0, &mut h, &ranges, &mut scratch).unwrap();
            let lane = rowq_lane_bytes(&config, rows);
            assert_eq!(scratch.lane.size_bytes() as u64, lane, "{arch:?}");
            assert_eq!(scratch.size_bytes() as u64, f32_part + lane, "{arch:?}");
        }
    }

    #[test]
    fn intermediate_bytes_scales_linearly_in_tokens() {
        let config = ModelConfig::test_config(ModelArch::DecoderOnly, 2);
        let one = intermediate_bytes(&config, 100, 50);
        let ten = intermediate_bytes(&config, 1000, 50);
        // Linear in tokens up to the fixed per-sequence logits term.
        assert!(ten > one * 8, "one {one} ten {ten}");
        assert!(ten < one * 10);
    }
}
