//! Vanilla resident-weight inference with micro-batching (`HF`).

use prism_core::Result;
use prism_metrics::{MemCategory, MemoryMeter};
use prism_model::layer::intermediate_bytes;
use prism_model::{Model, ModelConfig, SequenceBatch};
use prism_storage::Container;

use crate::traits::{RankOutcome, Reranker};

/// HuggingFace-Transformers-style baseline: every weight resident in
/// memory, the candidate set split into micro-batches that each run the
/// full model depth.
pub struct HfVanilla {
    model: Model,
    micro_batch: usize,
    meter: MemoryMeter,
    name: String,
}

impl HfVanilla {
    /// Loads the model from a container and registers its full weight set
    /// with the meter.
    pub fn new(
        container: &Container,
        config: ModelConfig,
        micro_batch: usize,
        meter: MemoryMeter,
    ) -> Result<Self> {
        let model = Model::load_container(config, container)?;
        meter.set(
            MemCategory::LayerWeights,
            model
                .weights
                .layers
                .iter()
                .map(|l| l.size_bytes() as u64)
                .sum(),
        );
        meter.set(
            MemCategory::Embedding,
            model.weights.embedding.size_bytes() as u64,
        );
        meter.set(MemCategory::Head, model.weights.head.size_bytes() as u64);
        Ok(HfVanilla {
            model,
            micro_batch: micro_batch.max(1),
            meter,
            name: "HF".to_string(),
        })
    }

    /// Renames the system (used for the `HF Quant` variant).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The shared memory meter.
    pub fn meter(&self) -> &MemoryMeter {
        &self.meter
    }

    /// The underlying model.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

impl Reranker for HfVanilla {
    fn name(&self) -> &str {
        &self.name
    }

    fn rerank(&mut self, batch: &SequenceBatch, k: usize) -> Result<RankOutcome> {
        let n = batch.num_sequences();
        let mut scores = vec![0.0_f32; n];
        // One scratch workspace serves every micro-batch and layer.
        let max_tokens = batch.max_micro_batch_tokens(self.micro_batch);
        let mut scratch = prism_model::layer::ForwardScratch::new(&self.model.config, max_tokens);
        let mut start = 0;
        while start < n {
            let end = (start + self.micro_batch).min(n);
            let ids: Vec<usize> = (start..end).collect();
            let sub = batch.gather(&ids)?;
            let mut hidden = self.model.embed(&sub)?;
            let hidden_bytes = hidden.size_bytes() as u64;
            let inter =
                intermediate_bytes(&self.model.config, sub.total_tokens(), sub.max_seq_len());
            self.meter.alloc(MemCategory::HiddenStates, hidden_bytes);
            self.meter.alloc(MemCategory::Intermediate, inter);
            for l in 0..self.model.config.num_layers {
                self.model
                    .forward_layer_with(l, &mut hidden, sub.ranges(), &mut scratch)?;
            }
            let sub_scores = self.model.score(&hidden, sub.ranges())?;
            self.meter.free(MemCategory::Intermediate, inter);
            self.meter.free(MemCategory::HiddenStates, hidden_bytes);
            for (i, s) in ids.iter().zip(sub_scores) {
                scores[*i] = s;
            }
            start = end;
        }
        Ok(RankOutcome::from_scores(scores, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_model::ModelArch;
    use prism_workload::WorkloadGenerator;

    fn fixture(layers: usize) -> (Model, std::path::PathBuf) {
        let config = ModelConfig::test_config(ModelArch::DecoderOnly, layers);
        let model = Model::generate(config, 42).unwrap();
        // Tests run in parallel and each removes its file: one path apiece.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("prism-vanilla-{}-{n}.prsm", std::process::id()));
        model.write_container(&path).unwrap();
        (model, path)
    }

    fn request(model: &Model, n: usize) -> SequenceBatch {
        let profile = prism_workload::dataset::dataset_by_name("wikipedia").unwrap();
        let gen = WorkloadGenerator::new(profile, model.config.vocab_size, model.config.max_seq, 3);
        SequenceBatch::new(&gen.request(0, n).sequences()).unwrap()
    }

    #[test]
    fn matches_reference_forward() {
        let (model, path) = fixture(4);
        let container = Container::open(&path).unwrap();
        let mut hf =
            HfVanilla::new(&container, model.config.clone(), 8, MemoryMeter::new()).unwrap();
        let batch = request(&model, 10);
        let out = hf.rerank(&batch, 3).unwrap();
        let direct = model.forward_full(&batch).unwrap();
        for (a, b) in out.scores.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(out.ranked.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn micro_batching_is_bit_exact() {
        let (model, path) = fixture(3);
        let container = Container::open(&path).unwrap();
        let batch = request(&model, 9);
        let mut whole =
            HfVanilla::new(&container, model.config.clone(), 9, MemoryMeter::new()).unwrap();
        let mut split =
            HfVanilla::new(&container, model.config.clone(), 2, MemoryMeter::new()).unwrap();
        let a = whole.rerank(&batch, 9).unwrap();
        let b = split.rerank(&batch, 9).unwrap();
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.top_ids(), b.top_ids());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn meter_reflects_resident_weights() {
        let (model, path) = fixture(4);
        let container = Container::open(&path).unwrap();
        let meter = MemoryMeter::new();
        let _hf = HfVanilla::new(&container, model.config.clone(), 4, meter.clone()).unwrap();
        let layer_total: u64 = model
            .weights
            .layers
            .iter()
            .map(|l| l.size_bytes() as u64)
            .sum();
        assert_eq!(meter.current(MemCategory::LayerWeights), layer_total);
        assert!(meter.current(MemCategory::Embedding) > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn smaller_micro_batch_lower_transient_peak() {
        let (model, path) = fixture(3);
        let container = Container::open(&path).unwrap();
        let batch = request(&model, 12);
        let run = |mb: usize| -> u64 {
            let meter = MemoryMeter::new();
            let mut hf =
                HfVanilla::new(&container, model.config.clone(), mb, meter.clone()).unwrap();
            hf.rerank(&batch, 3).unwrap();
            meter.peak(MemCategory::Intermediate) + meter.peak(MemCategory::HiddenStates)
        };
        let big = run(12);
        let small = run(2);
        assert!(small < big, "small-mb peak {small} vs big-mb {big}");
        std::fs::remove_file(&path).unwrap();
    }
}
