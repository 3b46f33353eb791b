//! The RAG personal-assistant pipeline (§6.3, Fig. 11).
//!
//! Offline: the corpus is indexed into a BM25 inverted index and a
//! bi-encoder vector index. Online: hybrid search retrieves top-10
//! keyword and top-10 dense candidates, the cross-encoder reranker
//! consolidates them into the final top-K, and an LLM generation stage
//! (Qwen3-32B on an A800 server in the paper's setup) is costed by the
//! device model.

use std::collections::BTreeSet;
use std::time::Instant;

use prism_baselines::Reranker;
use prism_device::{cost, DeviceSpec};
use prism_model::{ModelConfig, SequenceBatch};
use prism_tensor::Tensor;

use crate::retrieval::vector::embed_mean;
use crate::retrieval::{Bm25Index, VectorIndex};
use crate::{Corpus, Result};

/// Per-stage latency of one RAG query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RagStageLatency {
    /// Sparse (keyword) retrieval, microseconds (measured).
    pub sparse_us: u64,
    /// Dense (vector) retrieval, microseconds (measured).
    pub dense_us: u64,
    /// Reranking, microseconds (measured).
    pub rerank_us: u64,
    /// First-token generation latency, seconds (device-model cost).
    pub first_token_s: f64,
}

impl RagStageLatency {
    /// End-to-end seconds with measured stages plus the costed generation.
    pub fn total_s(&self) -> f64 {
        (self.sparse_us + self.dense_us + self.rerank_us) as f64 / 1e6 + self.first_token_s
    }
}

/// Result of one RAG query.
#[derive(Debug, Clone)]
pub struct RagAnswer {
    /// Final top-K document ids, best first.
    pub top_docs: Vec<usize>,
    /// Precision of the top-K against the corpus' gold documents.
    ///
    /// The synthetic corpus models a single-domain personal corpus: the
    /// planted relevance is absolute topicness, so every gold document is
    /// a correct answer regardless of which query seeded it (DESIGN.md §2).
    pub gold_precision: f64,
    /// Stage latencies.
    pub stages: RagStageLatency,
}

/// The assembled pipeline around a pluggable reranker.
pub struct RagPipeline<R: Reranker> {
    corpus: Corpus,
    bm25: Bm25Index,
    vectors: VectorIndex,
    embedding_table: Tensor,
    reranker: R,
    max_seq: usize,
    gen_model: ModelConfig,
    gen_device: DeviceSpec,
    retrieve_n: usize,
}

impl<R: Reranker> RagPipeline<R> {
    /// Indexes `corpus` and wires the reranker plus the generation stage's
    /// cost model.
    pub fn new(
        corpus: Corpus,
        embedding_table: Tensor,
        reranker: R,
        max_seq: usize,
        gen_model: ModelConfig,
        gen_device: DeviceSpec,
    ) -> Result<Self> {
        let mut bm25 = Bm25Index::new();
        let mut vectors = VectorIndex::new(embedding_table.cols());
        for doc in &corpus.docs {
            bm25.add_doc(&doc.tokens);
            vectors.add(embed_mean(&embedding_table, &doc.tokens)?)?;
        }
        // IVF standing in for the DiskANN-backed Milvus store.
        vectors.train_ivf((corpus.docs.len() / 16).max(1), 4, 7);
        Ok(RagPipeline {
            corpus,
            bm25,
            vectors,
            embedding_table,
            reranker,
            max_seq,
            gen_model,
            gen_device,
            retrieve_n: 10,
        })
    }

    /// The indexed corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Answers query `query_idx`, selecting the top-`k` documents.
    pub fn answer(&mut self, query_idx: usize, k: usize) -> Result<RagAnswer> {
        let query = self.corpus.queries.get(query_idx).cloned().ok_or_else(|| {
            crate::PrismError::InvalidRequest(format!("query {query_idx} out of range"))
        })?;

        // --- Hybrid retrieval ---
        let t = Instant::now();
        let sparse = self.bm25.search(&query.tokens, self.retrieve_n);
        let sparse_us = t.elapsed().as_micros() as u64;

        let t = Instant::now();
        let qvec = embed_mean(&self.embedding_table, &query.tokens)?;
        let dense = self.vectors.search_ivf(&qvec, self.retrieve_n, 4);
        let dense_us = t.elapsed().as_micros() as u64;

        let mut candidates: BTreeSet<usize> = BTreeSet::new();
        candidates.extend(sparse.iter().map(|&(d, _)| d));
        candidates.extend(dense.iter().map(|&(d, _)| d));
        let candidates: Vec<usize> = candidates.into_iter().collect();
        if candidates.is_empty() {
            return Err(crate::PrismError::InvalidRequest(
                "retrieval returned no candidates".into(),
            ));
        }

        // --- Cross-encoder reranking ---
        let t = Instant::now();
        let pair_inputs: Vec<Vec<u32>> = candidates
            .iter()
            .map(|&d| self.corpus.pair_input(&query, d, self.max_seq))
            .collect();
        let batch = SequenceBatch::new(&pair_inputs)?;
        let outcome = self.reranker.rerank(&batch, k.min(candidates.len()))?;
        let rerank_us = t.elapsed().as_micros() as u64;
        let top_docs: Vec<usize> = outcome.top_ids().iter().map(|&i| candidates[i]).collect();

        // --- Generation stage (costed) ---
        // Prompt = query + selected documents, scaled from mini-token
        // counts to the paper's ~512-token chunks.
        let mini_tokens: usize = top_docs
            .iter()
            .map(|&d| self.corpus.docs[d].tokens.len())
            .sum::<usize>()
            + query.tokens.len();
        let scale = 512 / self.max_seq.max(1);
        let prompt_tokens = (mini_tokens * scale.max(1)) as u64;
        let first_token_s =
            cost::first_token_time_s(&self.gen_model, &self.gen_device, prompt_tokens);

        let global_gold: Vec<usize> = self
            .corpus
            .docs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.gold.then_some(i))
            .collect();
        let gold_precision = prism_metrics::precision_at_k(&top_docs, &global_gold, k);

        Ok(RagAnswer {
            top_docs,
            gold_precision,
            stages: RagStageLatency {
                sparse_us,
                dense_us,
                rerank_us,
                first_token_s,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;
    use prism_baselines::HfVanilla;
    use prism_core::{EngineOptions, PrismEngine};
    use prism_metrics::MemoryMeter;
    use prism_model::{Model, ModelArch};
    use prism_storage::Container;

    fn fixture() -> (Model, std::path::PathBuf, Corpus) {
        let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
        let model = Model::generate(config, 42).unwrap();
        // Tests run in parallel and each removes its file: one path apiece.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("prism-rag-{}-{n}.prsm", std::process::id()));
        model.write_container(&path).unwrap();
        let corpus = Corpus::generate(CorpusSpec {
            vocab_size: model.config.vocab_size,
            doc_len: 24,
            docs_per_query: 24,
            queries: 4,
            gold_per_query: 4,
            seed: 3,
        });
        (model, path, corpus)
    }

    fn hf_pipeline(
        model: &Model,
        path: &std::path::Path,
        corpus: Corpus,
    ) -> RagPipeline<HfVanilla> {
        let container = Container::open(path).unwrap();
        let hf = HfVanilla::new(&container, model.config.clone(), 8, MemoryMeter::new()).unwrap();
        RagPipeline::new(
            corpus,
            model.weights.embedding.clone(),
            hf,
            model.config.max_seq,
            ModelConfig::qwen3_8b(), // stands in for the 32B generation model
            DeviceSpec::a800(),
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_answers_with_gold_docs() {
        let (model, path, corpus) = fixture();
        let mut rag = hf_pipeline(&model, &path, corpus);
        let mut total_precision = 0.0;
        for q in 0..4 {
            let ans = rag.answer(q, 4).unwrap();
            assert_eq!(ans.top_docs.len(), 4);
            total_precision += ans.gold_precision;
            assert!(ans.stages.first_token_s > 0.0);
            assert!(ans.stages.total_s() > ans.stages.first_token_s);
        }
        let avg = total_precision / 4.0;
        assert!(avg >= 0.5, "RAG gold precision {avg} too low");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prism_reranker_matches_hf_quality() {
        let (model, path, corpus) = fixture();
        let mut hf = hf_pipeline(&model, &path, corpus.clone());
        let container = Container::open(&path).unwrap();
        let engine = PrismEngine::new(
            container,
            model.config.clone(),
            EngineOptions::default(),
            MemoryMeter::new(),
        )
        .unwrap();
        let mut prism = RagPipeline::new(
            corpus,
            model.weights.embedding.clone(),
            engine,
            model.config.max_seq,
            ModelConfig::qwen3_8b(),
            DeviceSpec::a800(),
        )
        .unwrap();

        let mut hf_p = 0.0;
        let mut prism_p = 0.0;
        for q in 0..4 {
            hf_p += hf.answer(q, 4).unwrap().gold_precision;
            prism_p += prism.answer(q, 4).unwrap().gold_precision;
        }
        assert!(
            prism_p >= hf_p - 0.5,
            "PRISM RAG precision {prism_p} vs HF {hf_p} (sum over 4 queries)"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn invalid_query_rejected() {
        let (model, path, corpus) = fixture();
        let mut rag = hf_pipeline(&model, &path, corpus);
        assert!(rag.answer(99, 4).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
