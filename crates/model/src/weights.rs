//! Weight containers, deterministic generation and (de)serialization.
//!
//! Weight matrices are stored output-major (`[out, in]`) and applied as
//! `y = x · Wᵀ`, matching checkpoint conventions. A [`MatRef`] is a dense
//! `f32` tensor, a 4-bit [`QuantMatrix`] or a per-row i8 [`Int8Matrix`]:
//! the number format is a property of the weights, so one forward path
//! ([`crate::layer::forward_layer_with`]) serves the full-precision, the
//! W4A16 and the integer-compute models. [`LayerWeights::quantize`] and
//! [`LayerWeights::to_int8`] convert a layer; every format serializes
//! under its own matrix tag.

use prism_tensor::igemm::Int8Matrix;
use prism_tensor::{QuantMatrix, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::semantics::{
    EMBED_SIGNAL_SCALE, LAYER_SIGNAL_GAIN, READOUT_DRIFT_SCALE, SIGNAL_DIM, SOURCE_DIM,
};
use crate::{Error, ModelConfig, Result};

/// Dense, 4-bit or int8 weight matrix, output-major.
#[derive(Debug, Clone, PartialEq)]
pub enum MatRef {
    /// Full-precision matrix `[out, in]`.
    Dense(Tensor),
    /// 4-bit block-quantized matrix `[out, in]`.
    Quant(QuantMatrix),
    /// Per-row symmetric i8 matrix `[out, in]`: the integer compute
    /// path, which multiplies it by rowq-encoded activations.
    Int8(Int8Matrix),
}

impl MatRef {
    /// Resident bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            MatRef::Dense(w) => w.size_bytes(),
            MatRef::Quant(q) => q.size_bytes(),
            MatRef::Int8(q) => q.size_bytes(),
        }
    }

    /// Quantizes to 4-bit (no-op if already 4-bit).
    pub fn quantized(&self) -> Result<MatRef> {
        Ok(MatRef::Quant(match self {
            MatRef::Dense(w) => QuantMatrix::quantize(w)?,
            MatRef::Quant(q) => q.clone(),
            MatRef::Int8(q) => QuantMatrix::quantize(&q.dequantize())?,
        }))
    }

    /// Re-quantizes to per-row symmetric i8 (no-op if already int8).
    /// 4-bit matrices go through their dequantized values, so the int8
    /// codes calibrate to what the f32 path would actually have
    /// multiplied.
    pub fn to_int8(&self) -> Result<MatRef> {
        Ok(MatRef::Int8(match self {
            MatRef::Dense(w) => Int8Matrix::quantize(w)?,
            MatRef::Quant(q) => Int8Matrix::from_quant(q)?,
            MatRef::Int8(q) => q.clone(),
        }))
    }
}

/// One transformer layer's weights (pre-norm attention + gated FFN).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Pre-attention norm gain (`[D]`).
    pub norm1_gain: Vec<f32>,
    /// Pre-attention norm bias (`[D]`, zeros for RMSNorm models).
    pub norm1_bias: Vec<f32>,
    /// Query projection `[D, D]`.
    pub wq: MatRef,
    /// Key projection `[D, D]`.
    pub wk: MatRef,
    /// Value projection `[D, D]`.
    pub wv: MatRef,
    /// Output projection `[D, D]`.
    pub wo: MatRef,
    /// Pre-FFN norm gain (`[D]`).
    pub norm2_gain: Vec<f32>,
    /// Pre-FFN norm bias (`[D]`).
    pub norm2_bias: Vec<f32>,
    /// FFN gate projection `[F, D]`.
    pub w_gate: MatRef,
    /// FFN up projection `[F, D]`.
    pub w_up: MatRef,
    /// FFN down projection `[D, F]`.
    pub w_down: MatRef,
}

fn uniform_tensor(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Tensor {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push((rng.gen::<f32>() * 2.0 - 1.0) * scale);
    }
    Tensor::from_vec(rows, cols, data).expect("sized to shape")
}

impl LayerWeights {
    /// Deterministically generates a dense layer with the planted signal
    /// gain (see [`crate::semantics`]).
    pub fn generate(config: &ModelConfig, layer_idx: usize, seed: u64) -> Self {
        let d = config.hidden_dim;
        let f = config.ffn_dim;
        let mut rng = StdRng::seed_from_u64(
            seed ^ (layer_idx as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
        );
        let proj_scale = 0.8 / (d as f32).sqrt();
        let mut wv = uniform_tensor(&mut rng, d, d, proj_scale * 0.5);
        let mut wo = uniform_tensor(&mut rng, d, d, proj_scale * 0.5);
        // Plant the source→readout path. Attention averages the value
        // vectors, denoising per-token signals toward the candidate's mean
        // relevance; the output projection deposits that average into the
        // readout dimension with a per-layer gain. Crucially, neither the
        // source nor the readout feeds itself, so the readout accumulates
        // a convergent sum (the residual α decays per layer) instead of a
        // runaway feedback loop.
        let gain_jitter = 1.0 + (rng.gen::<f32>() - 0.5) * 0.2;
        *wv.at_mut(SOURCE_DIM, SOURCE_DIM) = 1.0;
        *wo.at_mut(SIGNAL_DIM, SOURCE_DIM) = LAYER_SIGNAL_GAIN * gain_jitter;
        *wo.at_mut(SIGNAL_DIM, SIGNAL_DIM) = 0.0;
        // The attention block never writes the source dimension: it is a
        // stable reservoir.
        for c in 0..d {
            *wo.at_mut(SOURCE_DIM, c) = 0.0;
        }
        LayerWeights {
            norm1_gain: vec![1.0; d],
            norm1_bias: vec![0.0; d],
            wq: MatRef::Dense(uniform_tensor(&mut rng, d, d, proj_scale)),
            wk: MatRef::Dense(uniform_tensor(&mut rng, d, d, proj_scale)),
            wv: MatRef::Dense(wv),
            wo: MatRef::Dense(wo),
            norm2_gain: vec![1.0; d],
            norm2_bias: vec![0.0; d],
            w_gate: MatRef::Dense(uniform_tensor(&mut rng, f, d, proj_scale)),
            w_up: MatRef::Dense(uniform_tensor(&mut rng, f, d, proj_scale)),
            w_down: MatRef::Dense({
                let mut w_down = uniform_tensor(&mut rng, d, f, 0.4 / (f as f32).sqrt());
                // The FFN adds decaying drift to the readout (the "flux"
                // that keeps close candidates swapping in early layers)
                // but must not erode the source reservoir.
                for c in 0..f {
                    *w_down.at_mut(SIGNAL_DIM, c) *= READOUT_DRIFT_SCALE;
                    *w_down.at_mut(SOURCE_DIM, c) = 0.0;
                }
                w_down
            }),
        }
    }

    /// Resident bytes of all tensors in the layer.
    pub fn size_bytes(&self) -> usize {
        (self.norm1_gain.len()
            + self.norm1_bias.len()
            + self.norm2_gain.len()
            + self.norm2_bias.len())
            * 4
            + self.wq.size_bytes()
            + self.wk.size_bytes()
            + self.wv.size_bytes()
            + self.wo.size_bytes()
            + self.w_gate.size_bytes()
            + self.w_up.size_bytes()
            + self.w_down.size_bytes()
    }

    /// Quantizes every matrix to 4-bit (norms stay `f32`).
    pub fn quantize(&self) -> Result<LayerWeights> {
        self.map_matrices(MatRef::quantized)
    }

    /// Re-quantizes every matrix to per-row i8 for the integer compute
    /// path (norms stay `f32`). The codes are a calibration of whatever
    /// weights this layer holds, dense or 4-bit.
    pub fn to_int8(&self) -> Result<LayerWeights> {
        self.map_matrices(MatRef::to_int8)
    }

    fn map_matrices(&self, f: impl Fn(&MatRef) -> Result<MatRef>) -> Result<LayerWeights> {
        Ok(LayerWeights {
            norm1_gain: self.norm1_gain.clone(),
            norm1_bias: self.norm1_bias.clone(),
            wq: f(&self.wq)?,
            wk: f(&self.wk)?,
            wv: f(&self.wv)?,
            wo: f(&self.wo)?,
            norm2_gain: self.norm2_gain.clone(),
            norm2_bias: self.norm2_bias.clone(),
            w_gate: f(&self.w_gate)?,
            w_up: f(&self.w_up)?,
            w_down: f(&self.w_down)?,
        })
    }

    /// Serializes into the on-disk layer blob. Each matrix carries a tag
    /// for its format: 0 dense, 1 q4, 2 int8.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes() + 64);
        push_f32s(&mut out, &self.norm1_gain);
        push_f32s(&mut out, &self.norm1_bias);
        push_f32s(&mut out, &self.norm2_gain);
        push_f32s(&mut out, &self.norm2_bias);
        for m in [
            &self.wq,
            &self.wk,
            &self.wv,
            &self.wo,
            &self.w_gate,
            &self.w_up,
            &self.w_down,
        ] {
            let (tag, blob) = match m {
                MatRef::Dense(t) => {
                    out.push(0);
                    out.extend_from_slice(&((t.len() * 4) as u32).to_le_bytes());
                    push_f32s(&mut out, t.data());
                    continue;
                }
                MatRef::Quant(q) => (1, q.to_bytes()),
                MatRef::Int8(q) => (2, q.to_bytes()),
            };
            out.push(tag);
            out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            out.extend_from_slice(&blob);
        }
        out
    }

    /// Deserializes a blob written by [`LayerWeights::to_bytes`].
    pub fn from_bytes(config: &ModelConfig, bytes: &[u8]) -> Result<Self> {
        let d = config.hidden_dim;
        let f = config.ffn_dim;
        let mut cur = Cursor { bytes, off: 0 };
        let norm1_gain = cur.take_f32s(d)?;
        let norm1_bias = cur.take_f32s(d)?;
        let norm2_gain = cur.take_f32s(d)?;
        let norm2_bias = cur.take_f32s(d)?;
        let shapes = [(d, d), (d, d), (d, d), (d, d), (f, d), (f, d), (d, f)];
        let mut mats = Vec::with_capacity(7);
        for (rows, cols) in shapes {
            mats.push(cur.take_mat(rows, cols)?);
        }
        if cur.off != bytes.len() {
            return Err(Error::Config(format!(
                "layer blob has {} trailing bytes",
                bytes.len() - cur.off
            )));
        }
        let mut it = mats.into_iter();
        Ok(LayerWeights {
            norm1_gain,
            norm1_bias,
            wq: it.next().expect("7 matrices"),
            wk: it.next().expect("7 matrices"),
            wv: it.next().expect("7 matrices"),
            wo: it.next().expect("7 matrices"),
            norm2_gain,
            norm2_bias,
            w_gate: it.next().expect("7 matrices"),
            w_up: it.next().expect("7 matrices"),
            w_down: it.next().expect("7 matrices"),
        })
    }
}

/// The int8 layer type from before int8 became a [`MatRef`] variant: a
/// [`LayerWeights`] whose matrices are all [`MatRef::Int8`]. It stays,
/// with [`crate::layer::forward_layer_int8`], only because the
/// standalone `benchmark/` crate is built against it; everything else
/// calls [`LayerWeights::to_int8`] and [`crate::layer::forward_layer_with`].
#[derive(Debug, Clone)]
pub struct Int8LayerWeights(pub LayerWeights);

impl Int8LayerWeights {
    /// [`LayerWeights::to_int8`], wrapped.
    pub fn from_layer(layer: &LayerWeights) -> Result<Self> {
        layer.to_int8().map(Int8LayerWeights)
    }
}

/// Classifier head: final norm plus a scalar projection.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadWeights {
    /// Final norm gain (`[D]`).
    pub norm_gain: Vec<f32>,
    /// Final norm bias (`[D]`).
    pub norm_bias: Vec<f32>,
    /// Projection vector (`[D]`).
    pub w: Vec<f32>,
    /// Scalar bias.
    pub bias: f32,
}

impl HeadWeights {
    /// Generates the planted classifier: it reads the signal dimension.
    pub fn generate(config: &ModelConfig, seed: u64) -> Self {
        let d = config.hidden_dim;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_DEAD_BEEF);
        let mut w = vec![0.0_f32; d];
        for (i, x) in w.iter_mut().enumerate() {
            *x = if i == SIGNAL_DIM {
                1.0
            } else {
                (rng.gen::<f32>() * 2.0 - 1.0) * 0.02
            };
        }
        HeadWeights {
            norm_gain: vec![1.0; d],
            norm_bias: vec![0.0; d],
            w,
            bias: 0.0,
        }
    }

    /// Resident bytes.
    pub fn size_bytes(&self) -> usize {
        (self.norm_gain.len() + self.norm_bias.len() + self.w.len() + 1) * 4
    }

    /// Serializes the head blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_f32s(&mut out, &self.norm_gain);
        push_f32s(&mut out, &self.norm_bias);
        push_f32s(&mut out, &self.w);
        out.extend_from_slice(&self.bias.to_le_bytes());
        out
    }

    /// Deserializes a blob written by [`HeadWeights::to_bytes`].
    pub fn from_bytes(config: &ModelConfig, bytes: &[u8]) -> Result<Self> {
        let d = config.hidden_dim;
        let mut cur = Cursor { bytes, off: 0 };
        let norm_gain = cur.take_f32s(d)?;
        let norm_bias = cur.take_f32s(d)?;
        let w = cur.take_f32s(d)?;
        let bias = cur.take_f32s(1)?[0];
        if cur.off != bytes.len() {
            return Err(Error::Config("head blob has trailing bytes".into()));
        }
        Ok(HeadWeights {
            norm_gain,
            norm_bias,
            w,
            bias,
        })
    }
}

/// A full model's weights, resident in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// Embedding table `[vocab, D]` with the planted signal in
    /// `SIGNAL_DIM`.
    pub embedding: Tensor,
    /// Transformer layers, bottom to top.
    pub layers: Vec<LayerWeights>,
    /// Classifier head.
    pub head: HeadWeights,
}

impl ModelWeights {
    /// Deterministically generates a complete model.
    pub fn generate(config: &ModelConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let d = config.hidden_dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut embedding = uniform_tensor(&mut rng, config.vocab_size, d, 0.3);
        for t in 0..config.vocab_size {
            let signal = crate::semantics::token_signal(t as u32, config.vocab_size);
            *embedding.at_mut(t, SOURCE_DIM) = signal * EMBED_SIGNAL_SCALE;
            // The readout starts as small per-token noise: early rankings
            // are noise-dominated and progressively yield to accumulated
            // relevance evidence (coarse-to-fine, Fig. 2a).
            *embedding.at_mut(t, SIGNAL_DIM) = crate::semantics::token_readout_noise(t as u32);
        }
        let layers = (0..config.num_layers)
            .map(|l| LayerWeights::generate(config, l, seed))
            .collect();
        Ok(ModelWeights {
            embedding,
            layers,
            head: HeadWeights::generate(config, seed),
        })
    }

    /// Quantizes all layer matrices to 4-bit (embedding and head stay
    /// dense, as in W4A16 checkpoints).
    pub fn quantize(&self) -> Result<ModelWeights> {
        Ok(ModelWeights {
            embedding: self.embedding.clone(),
            layers: self
                .layers
                .iter()
                .map(LayerWeights::quantize)
                .collect::<Result<_>>()?,
            head: self.head.clone(),
        })
    }

    /// Total resident bytes.
    pub fn size_bytes(&self) -> usize {
        self.embedding.size_bytes()
            + self
                .layers
                .iter()
                .map(LayerWeights::size_bytes)
                .sum::<usize>()
            + self.head.size_bytes()
    }
}

fn push_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl Cursor<'_> {
    fn take_f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        let need = n * 4;
        if self.off + need > self.bytes.len() {
            return Err(Error::Config("blob truncated".into()));
        }
        let mut out = Vec::with_capacity(n);
        for chunk in self.bytes[self.off..self.off + need].chunks_exact(4) {
            out.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        self.off += need;
        Ok(out)
    }

    fn take_mat(&mut self, rows: usize, cols: usize) -> Result<MatRef> {
        if self.off + 5 > self.bytes.len() {
            return Err(Error::Config("blob truncated at matrix header".into()));
        }
        let tag = self.bytes[self.off];
        let len = u32::from_le_bytes(
            self.bytes[self.off + 1..self.off + 5]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        self.off += 5;
        if self.off + len > self.bytes.len() {
            return Err(Error::Config("blob truncated in matrix payload".into()));
        }
        let payload = &self.bytes[self.off..self.off + len];
        self.off += len;
        match tag {
            0 => {
                if len != rows * cols * 4 {
                    return Err(Error::Config(format!(
                        "dense matrix payload {len} != {rows}x{cols}x4"
                    )));
                }
                let mut data = Vec::with_capacity(rows * cols);
                for chunk in payload.chunks_exact(4) {
                    data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
                }
                Ok(MatRef::Dense(Tensor::from_vec(rows, cols, data)?))
            }
            1 => {
                let q = QuantMatrix::from_bytes(payload)?;
                if (q.rows(), q.cols()) != (rows, cols) {
                    return Err(Error::Config("quant matrix shape mismatch".into()));
                }
                Ok(MatRef::Quant(q))
            }
            2 => {
                let q = Int8Matrix::from_bytes(payload)?;
                if (q.out_dim(), q.in_dim()) != (rows, cols) {
                    return Err(Error::Config("int8 matrix shape mismatch".into()));
                }
                Ok(MatRef::Int8(q))
            }
            other => Err(Error::Config(format!("unknown matrix tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelArch;

    fn cfg() -> ModelConfig {
        ModelConfig::test_config(ModelArch::DecoderOnly, 3)
    }

    #[test]
    fn generation_is_deterministic() {
        let c = cfg();
        let a = ModelWeights::generate(&c, 42).unwrap();
        let b = ModelWeights::generate(&c, 42).unwrap();
        assert_eq!(a, b);
        let c2 = ModelWeights::generate(&c, 43).unwrap();
        assert_ne!(a, c2);
    }

    #[test]
    fn planted_signal_in_embedding() {
        let c = cfg();
        let w = ModelWeights::generate(&c, 1).unwrap();
        // Topic tokens carry +scale, anti-topic -scale in the source dim;
        // the readout dim starts at zero.
        let (t0, t1) = crate::semantics::topic_token_range(c.vocab_size);
        let (a0, _) = crate::semantics::anti_topic_token_range(c.vocab_size);
        assert!((w.embedding.at(t0 as usize, SOURCE_DIM) - EMBED_SIGNAL_SCALE).abs() < 1e-6);
        assert!((w.embedding.at((t1 - 1) as usize, SOURCE_DIM) - EMBED_SIGNAL_SCALE).abs() < 1e-6);
        assert!((w.embedding.at(a0 as usize, SOURCE_DIM) + EMBED_SIGNAL_SCALE).abs() < 1e-6);
        // The readout dim carries only small planted noise.
        assert!(
            w.embedding.at(t0 as usize, SIGNAL_DIM).abs() <= crate::semantics::EMBED_READOUT_NOISE
        );
    }

    #[test]
    fn planted_gain_in_value_path() {
        let c = cfg();
        let w = LayerWeights::generate(&c, 0, 9);
        let (MatRef::Dense(wv), MatRef::Dense(wo)) = (&w.wv, &w.wo) else {
            panic!("generated weights are dense")
        };
        assert!((wv.at(SOURCE_DIM, SOURCE_DIM) - 1.0).abs() < 1e-6);
        assert!(wo.at(SIGNAL_DIM, SOURCE_DIM) > 0.5, "source feeds readout");
        assert_eq!(
            wo.at(SIGNAL_DIM, SIGNAL_DIM),
            0.0,
            "no readout self-feedback"
        );
        // Nothing writes the source reservoir through attention.
        for cidx in 0..c.hidden_dim {
            assert_eq!(wo.at(SOURCE_DIM, cidx), 0.0);
        }
    }

    #[test]
    fn layer_blob_round_trip_dense() {
        let c = cfg();
        let w = LayerWeights::generate(&c, 1, 7);
        let bytes = w.to_bytes();
        let back = LayerWeights::from_bytes(&c, &bytes).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn layer_blob_round_trip_quant() {
        let c = cfg();
        let w = LayerWeights::generate(&c, 1, 7).quantize().unwrap();
        let bytes = w.to_bytes();
        let back = LayerWeights::from_bytes(&c, &bytes).unwrap();
        assert_eq!(w, back);
        // Quantized blob is much smaller than dense.
        let dense_bytes = LayerWeights::generate(&c, 1, 7).to_bytes();
        assert!(bytes.len() * 2 < dense_bytes.len());
    }

    #[test]
    fn truncated_blob_rejected() {
        let c = cfg();
        let bytes = LayerWeights::generate(&c, 0, 3).to_bytes();
        assert!(LayerWeights::from_bytes(&c, &bytes[..bytes.len() - 3]).is_err());
        assert!(LayerWeights::from_bytes(&c, &bytes[..10]).is_err());
        // Trailing garbage also rejected.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(LayerWeights::from_bytes(&c, &long).is_err());
    }

    #[test]
    fn head_round_trip_and_planted_reader() {
        let c = cfg();
        let h = HeadWeights::generate(&c, 5);
        assert!((h.w[SIGNAL_DIM] - 1.0).abs() < 1e-6);
        assert!(h.w.iter().skip(1).all(|&x| x.abs() < 0.05));
        let back = HeadWeights::from_bytes(&c, &h.to_bytes()).unwrap();
        assert_eq!(h, back);
        assert!(HeadWeights::from_bytes(&c, &h.to_bytes()[..7]).is_err());
    }

    #[test]
    fn layer_blob_round_trip_int8() {
        let c = cfg();
        for source in [
            LayerWeights::generate(&c, 1, 7),
            LayerWeights::generate(&c, 1, 7).quantize().unwrap(),
        ] {
            let w = source.to_int8().unwrap();
            assert!(matches!(w.w_down, MatRef::Int8(_)));
            let back = LayerWeights::from_bytes(&c, &w.to_bytes()).unwrap();
            // Codes, scales, code sums and VNNI tiling all come back.
            assert_eq!(w, back);
            assert_eq!(back.to_int8().unwrap(), w, "to_int8 is idempotent");
        }
    }

    #[test]
    fn size_bytes_accounts_everything() {
        let c = cfg();
        let w = ModelWeights::generate(&c, 2).unwrap();
        let expected_emb = c.vocab_size * c.hidden_dim * 4;
        assert!(w.size_bytes() > expected_emb);
        let q = w.quantize().unwrap();
        assert!(q.size_bytes() < w.size_bytes());
        // Embedding unchanged by quantization.
        assert_eq!(q.embedding, w.embedding);
    }
}
