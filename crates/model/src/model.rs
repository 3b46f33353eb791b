//! The assembled reranker model and its packed-batch API.

use std::path::Path;

use prism_storage::{Container, ContainerWriter, SectionKind};
use prism_tensor::Tensor;

use crate::classifier::score_sequences;
use crate::layer::{forward_layer_with, ForwardScratch};
use crate::semantics::{SIGNAL_DIM, SOURCE_DIM};
use crate::weights::{HeadWeights, LayerWeights, ModelWeights};
use crate::{Error, ModelConfig, Result};

/// Container section name of the embedding table.
pub const SECTION_EMBEDDING: &str = "embedding";
/// Container section name of the classifier head.
pub const SECTION_HEAD: &str = "head";

/// Container section name of transformer layer `i`.
pub fn layer_section(i: usize) -> String {
    format!("layer.{i}")
}

/// A batch of token sequences packed into one flat buffer.
///
/// This is the unit monolithic forwarding operates on: all candidates of a
/// request live in one `SequenceBatch`, and pruning produces sub-batches
/// via [`SequenceBatch::gather`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceBatch {
    tokens: Vec<u32>,
    ranges: Vec<(usize, usize)>,
}

impl SequenceBatch {
    /// Packs independent sequences into a batch (empty sequences rejected).
    pub fn new(sequences: &[Vec<u32>]) -> Result<Self> {
        let mut tokens = Vec::new();
        let mut ranges = Vec::with_capacity(sequences.len());
        for s in sequences {
            if s.is_empty() {
                return Err(Error::Config("empty sequence in batch".into()));
            }
            let start = tokens.len();
            tokens.extend_from_slice(s);
            ranges.push((start, tokens.len()));
        }
        Ok(SequenceBatch { tokens, ranges })
    }

    /// Number of sequences.
    pub fn num_sequences(&self) -> usize {
        self.ranges.len()
    }

    /// Total packed tokens.
    pub fn total_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Longest sequence length.
    pub fn max_seq_len(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).max().unwrap_or(0)
    }

    /// The flat token buffer.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Per-sequence `[start, end)` ranges into the flat buffer.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Tokens of sequence `i`.
    pub fn sequence(&self, i: usize) -> &[u32] {
        let (s, e) = self.ranges[i];
        &self.tokens[s..e]
    }

    /// Largest total token count of any window of `micro_batch`
    /// consecutive sequences — the capacity a scratch workspace needs to
    /// serve every micro-batch of this batch without reallocating.
    pub fn max_micro_batch_tokens(&self, micro_batch: usize) -> usize {
        self.ranges
            .chunks(micro_batch.max(1))
            .map(|w| w.iter().map(|(s, e)| e - s).sum::<usize>())
            .max()
            .unwrap_or(0)
    }

    /// Builds a new batch holding only the given sequences (in order).
    pub fn gather(&self, indices: &[usize]) -> Result<SequenceBatch> {
        let seqs: Vec<Vec<u32>> = indices
            .iter()
            .map(|&i| {
                if i >= self.ranges.len() {
                    Err(Error::Config(format!("sequence index {i} out of range")))
                } else {
                    Ok(self.sequence(i).to_vec())
                }
            })
            .collect::<Result<_>>()?;
        SequenceBatch::new(&seqs)
    }
}

/// A reranker: configuration plus resident weights.
#[derive(Debug, Clone)]
pub struct Model {
    /// Model configuration.
    pub config: ModelConfig,
    /// Weights (dense or quantized layers).
    pub weights: ModelWeights,
}

impl Model {
    /// Deterministically generates a model (see [`crate::semantics`]).
    pub fn generate(config: ModelConfig, seed: u64) -> Result<Model> {
        let weights = ModelWeights::generate(&config, seed)?;
        Ok(Model { config, weights })
    }

    /// Returns a W4A16 variant: every layer matrix quantized to 4-bit.
    pub fn quantized(&self) -> Result<Model> {
        Ok(Model {
            config: self.config.clone(),
            weights: self.weights.quantize()?,
        })
    }

    /// Embeds a packed batch: table lookup plus sinusoidal positions.
    ///
    /// Positions skip the signal dimension so the planted relevance channel
    /// is not position-biased (see DESIGN.md §6).
    pub fn embed(&self, batch: &SequenceBatch) -> Result<Tensor> {
        let d = self.config.hidden_dim;
        let mut hidden = Tensor::zeros(batch.total_tokens(), d);
        for &(start, end) in batch.ranges() {
            for (pos, t) in (start..end).enumerate() {
                let token = batch.tokens()[t] as usize;
                if token >= self.config.vocab_size {
                    return Err(Error::Config(format!(
                        "token {token} outside vocabulary {}",
                        self.config.vocab_size
                    )));
                }
                let dst = hidden.row_mut(t)?;
                dst.copy_from_slice(self.weights.embedding.row(token)?);
                add_position(dst, pos, d);
            }
        }
        Ok(hidden)
    }

    /// Applies transformer layer `layer_idx` in place through a reused
    /// scratch workspace (the allocation-free hot path).
    pub fn forward_layer_with(
        &self,
        layer_idx: usize,
        hidden: &mut Tensor,
        ranges: &[(usize, usize)],
        scratch: &mut ForwardScratch,
    ) -> Result<()> {
        let w = self
            .weights
            .layers
            .get(layer_idx)
            .ok_or_else(|| Error::Config(format!("layer {layer_idx} out of range")))?;
        forward_layer_with(&self.config, w, layer_idx, hidden, ranges, scratch)
    }

    /// Scores every sequence from the current hidden states.
    pub fn score(&self, hidden: &Tensor, ranges: &[(usize, usize)]) -> Result<Vec<f32>> {
        score_sequences(&self.config, &self.weights.head, hidden, ranges)
    }

    /// Reference full forward pass: embed → all layers → score.
    ///
    /// This is the ground-truth path baselines use and PRISM's pruned
    /// results are compared against.
    pub fn forward_full(&self, batch: &SequenceBatch) -> Result<Vec<f32>> {
        let mut hidden = self.embed(batch)?;
        let mut scratch = ForwardScratch::new(&self.config, hidden.rows());
        for l in 0..self.config.num_layers {
            self.forward_layer_with(l, &mut hidden, batch.ranges(), &mut scratch)?;
        }
        self.score(&hidden, batch.ranges())
    }

    /// Scores after *every* layer (the Fig. 2a probe): returns
    /// `num_layers + 1` score vectors, index 0 = post-embedding.
    pub fn layer_score_trace(&self, batch: &SequenceBatch) -> Result<Vec<Vec<f32>>> {
        let mut hidden = self.embed(batch)?;
        let mut scratch = ForwardScratch::new(&self.config, hidden.rows());
        let mut trace = Vec::with_capacity(self.config.num_layers + 1);
        trace.push(self.score(&hidden, batch.ranges())?);
        for l in 0..self.config.num_layers {
            self.forward_layer_with(l, &mut hidden, batch.ranges(), &mut scratch)?;
            trace.push(self.score(&hidden, batch.ranges())?);
        }
        Ok(trace)
    }

    /// Writes the model into a `PRSM` container: `embedding` (f32),
    /// `layer.N` blobs and `head`.
    pub fn write_container(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut w = ContainerWriter::create(path);
        w.add_f32(SECTION_EMBEDDING, &self.weights.embedding);
        for (i, layer) in self.weights.layers.iter().enumerate() {
            let blob = layer.to_bytes();
            w.add_raw(&layer_section(i), SectionKind::Raw, 0, 0, blob);
        }
        w.add_raw(
            SECTION_HEAD,
            SectionKind::Raw,
            0,
            0,
            self.weights.head.to_bytes(),
        );
        w.finish()?;
        Ok(())
    }

    /// Loads a model from a container written by
    /// [`Model::write_container`]; the caller supplies the matching config.
    pub fn load_container(config: ModelConfig, container: &Container) -> Result<Model> {
        config.validate()?;
        let embedding = container.read_f32(SECTION_EMBEDDING)?;
        if embedding.shape() != (config.vocab_size, config.hidden_dim) {
            return Err(Error::Config(format!(
                "embedding shape {:?} does not match config",
                embedding.shape()
            )));
        }
        let mut layers = Vec::with_capacity(config.num_layers);
        let mut blob = Vec::new();
        for i in 0..config.num_layers {
            container.read_section_into(&layer_section(i), &mut blob)?;
            layers.push(LayerWeights::from_bytes(&config, &blob)?);
        }
        container.read_section_into(SECTION_HEAD, &mut blob)?;
        let head = HeadWeights::from_bytes(&config, &blob)?;
        Ok(Model {
            config,
            weights: ModelWeights {
                embedding,
                layers,
                head,
            },
        })
    }
}

/// Adds the sinusoidal position encoding for position `pos` to an embedded
/// token row (10% amplitude, skipping the planted signal channel).
///
/// Exposed so runtimes that source embedding rows from a cache (PRISM's
/// §4.4 path) produce bit-identical hidden states to [`Model::embed`].
pub fn add_position(row: &mut [f32], pos: usize, d: usize) {
    // inv_freq(i) = 10000^(-2*(i/2)/d), advanced multiplicatively every
    // dimension pair — one `powf` per row instead of one per element.
    let step = 10_000_f32.powf(-2.0 / d as f32);
    let mut inv_freq = 1.0_f32;
    for (i, x) in row.iter_mut().enumerate() {
        if i % 2 == 0 && i > 0 {
            inv_freq *= step;
        }
        if i == SIGNAL_DIM || i == SOURCE_DIM {
            continue;
        }
        let rate = (pos as f32) * inv_freq;
        *x += 0.1 * if i % 2 == 0 { rate.sin() } else { rate.cos() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{anti_topic_token_range, background_token_range, topic_token_range};
    use crate::ModelArch;

    fn test_model(arch: ModelArch, layers: usize) -> Model {
        Model::generate(ModelConfig::test_config(arch, layers), 7).unwrap()
    }

    /// Builds a candidate whose fraction of on-topic tokens is `relevance`.
    fn candidate(relevance: f32, len: usize, vocab: usize, salt: u64) -> Vec<u32> {
        let (t0, t1) = topic_token_range(vocab);
        let (a0, a1) = anti_topic_token_range(vocab);
        let (b0, b1) = background_token_range(vocab);
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..len)
            .map(|_| {
                let r = next();
                let u = (r >> 11) as f64 / (1_u64 << 53) as f64;
                if (u as f32) < relevance {
                    t0 + (next() % u64::from(t1 - t0)) as u32
                } else if u < 0.75 {
                    b0 + (next() % u64::from(b1 - b0)) as u32
                } else {
                    a0 + (next() % u64::from(a1 - a0)) as u32
                }
            })
            .collect()
    }

    #[test]
    fn batch_packing_and_gather() {
        let b = SequenceBatch::new(&[vec![1, 2, 3], vec![4, 5]]).unwrap();
        assert_eq!(b.num_sequences(), 2);
        assert_eq!(b.total_tokens(), 5);
        assert_eq!(b.max_seq_len(), 3);
        assert_eq!(b.sequence(1), &[4, 5]);
        assert_eq!(b.ranges(), &[(0, 3), (3, 5)]);
        let g = b.gather(&[1]).unwrap();
        assert_eq!(g.num_sequences(), 1);
        assert_eq!(g.sequence(0), &[4, 5]);
        assert!(b.gather(&[2]).is_err());
        assert!(SequenceBatch::new(&[vec![]]).is_err());
    }

    #[test]
    fn forward_full_is_deterministic() {
        let m = test_model(ModelArch::DecoderOnly, 4);
        let b =
            SequenceBatch::new(&[candidate(0.8, 12, 256, 1), candidate(0.2, 12, 256, 2)]).unwrap();
        let s1 = m.forward_full(&b).unwrap();
        let s2 = m.forward_full(&b).unwrap();
        assert_eq!(s1, s2);
        assert!(s1.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn relevant_candidates_score_higher() {
        for arch in [ModelArch::DecoderOnly, ModelArch::EncoderOnly] {
            let m = test_model(arch, 6);
            let seqs: Vec<Vec<u32>> = vec![
                candidate(0.9, 16, 256, 10),
                candidate(0.6, 16, 256, 20),
                candidate(0.3, 16, 256, 30),
                candidate(0.05, 16, 256, 40),
            ];
            let b = SequenceBatch::new(&seqs).unwrap();
            let scores = m.forward_full(&b).unwrap();
            assert!(
                scores[0] > scores[2] && scores[0] > scores[3],
                "{arch:?} scores {scores:?}"
            );
            assert!(scores[1] > scores[3], "{arch:?} scores {scores:?}");
        }
    }

    #[test]
    fn score_trace_converges_with_depth() {
        let m = test_model(ModelArch::DecoderOnly, 8);
        let seqs: Vec<Vec<u32>> = (0..6)
            .map(|i| candidate(0.1 + 0.15 * i as f32, 16, 256, i as u64))
            .collect();
        let b = SequenceBatch::new(&seqs).unwrap();
        let trace = m.layer_score_trace(&b).unwrap();
        assert_eq!(trace.len(), 9);
        let final_scores = trace.last().unwrap();
        // Per-layer score movement must shrink with depth (sequence-level
        // sparsity's mechanical cause).
        let movement = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>()
        };
        let early: f32 = (1..4).map(|l| movement(&trace[l - 1], &trace[l])).sum();
        let late: f32 = (6..9).map(|l| movement(&trace[l - 1], &trace[l])).sum();
        assert!(late < early, "early {early} late {late}");
        // Mid-depth ranking already close to final ranking.
        let mid = &trace[5];
        let gamma = prism_metrics_gamma(mid, final_scores);
        assert!(gamma > 0.5, "gamma {gamma}");
    }

    /// Local γ implementation to avoid a circular dev-dependency.
    fn prism_metrics_gamma(a: &[f32], b: &[f32]) -> f64 {
        let n = a.len();
        let (mut c, mut d) = (0_i64, 0_i64);
        for i in 0..n {
            for j in (i + 1)..n {
                let x = a[i] - a[j];
                let y = b[i] - b[j];
                if x == 0.0 || y == 0.0 {
                    continue;
                }
                if (x > 0.0) == (y > 0.0) {
                    c += 1;
                } else {
                    d += 1;
                }
            }
        }
        if c + d == 0 {
            1.0
        } else {
            (c - d) as f64 / (c + d) as f64
        }
    }

    #[test]
    fn container_round_trip_dense() {
        let m = test_model(ModelArch::DecoderOnly, 3);
        let mut path = std::env::temp_dir();
        path.push(format!("prism-model-rt-{}", std::process::id()));
        m.write_container(&path).unwrap();
        let c = Container::open(&path).unwrap();
        let loaded = Model::load_container(m.config.clone(), &c).unwrap();
        assert_eq!(loaded.weights, m.weights);
        // Scores agree exactly.
        let b = SequenceBatch::new(&[candidate(0.5, 10, 256, 3)]).unwrap();
        assert_eq!(
            m.forward_full(&b).unwrap(),
            loaded.forward_full(&b).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn container_round_trip_quantized() {
        let m = test_model(ModelArch::EncoderOnly, 3).quantized().unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("prism-model-rtq-{}", std::process::id()));
        m.write_container(&path).unwrap();
        let c = Container::open(&path).unwrap();
        let loaded = Model::load_container(m.config.clone(), &c).unwrap();
        assert_eq!(loaded.weights, m.weights);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_config_rejected_on_load() {
        let m = test_model(ModelArch::DecoderOnly, 3);
        let mut path = std::env::temp_dir();
        path.push(format!("prism-model-wrong-{}", std::process::id()));
        m.write_container(&path).unwrap();
        let c = Container::open(&path).unwrap();
        let mut bad = m.config.clone();
        bad.hidden_dim = 32;
        bad.num_heads = 4;
        assert!(Model::load_container(bad, &c).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quantized_model_preserves_ranking_mostly() {
        let m = test_model(ModelArch::DecoderOnly, 6);
        let q = m.quantized().unwrap();
        let seqs: Vec<Vec<u32>> = vec![
            candidate(0.9, 16, 256, 1),
            candidate(0.5, 16, 256, 2),
            candidate(0.1, 16, 256, 3),
        ];
        let b = SequenceBatch::new(&seqs).unwrap();
        let sd = m.forward_full(&b).unwrap();
        let sq = q.forward_full(&b).unwrap();
        // Top candidate unchanged between dense and quantized.
        let top_d = sd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let top_q = sq
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(top_d, top_q);
    }

    #[test]
    fn out_of_vocab_token_rejected() {
        let m = test_model(ModelArch::DecoderOnly, 2);
        let b = SequenceBatch::new(&[vec![9999]]).unwrap();
        assert!(m.embed(&b).is_err());
    }
}
