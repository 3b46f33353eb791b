//! Multi-tenant serving: one `PrismServer` answering a RAG tenant and an
//! agent-memory tenant concurrently, with batched scheduling.
//!
//! ```text
//! cargo run --release --example serving_pipeline
//! ```

use prism::apps::corpus::CorpusSpec;
use prism::apps::{AgentMemory, AgentScenario, Corpus, RagPipeline, ServiceReranker};
use prism::core::{EngineOptions, PrismEngine};
use prism::device::DeviceSpec;
use prism::metrics::MemoryMeter;
use prism::model::{Model, ModelConfig};
use prism::serve::{PrismServer, ServeConfig};
use prism::storage::Container;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A model container (mini twin of BGE-Reranker-v2-M3).
    let config = ModelConfig::bge_m3().mini_twin();
    let model = Model::generate(config.clone(), 42)?;
    let path = std::env::temp_dir().join("prism-serving-pipeline.prsm");
    model.write_container(&path)?;

    // 2. One engine, shared: `PrismEngine` is `Sync`, so the server's
    //    workers drive it concurrently behind an `Arc`.
    let engine = PrismEngine::new(
        Container::open(&path)?,
        config.clone(),
        EngineOptions::default(),
        MemoryMeter::new(),
    )?;
    let server = PrismServer::start(
        engine,
        ServeConfig {
            workers: 2,
            max_batch_requests: 8,
            ..Default::default()
        },
    )?;
    println!("server up: 2 workers, batches of <= 8 requests\n");

    // 3. Tenant A: a RAG pipeline reranking hybrid-retrieval candidates.
    let corpus = Corpus::generate(CorpusSpec {
        vocab_size: config.vocab_size,
        doc_len: 24,
        docs_per_query: 24,
        queries: 3,
        gold_per_query: 4,
        seed: 3,
    });
    let mut rag = RagPipeline::new(
        corpus,
        model.weights.embedding.clone(),
        ServiceReranker::new(server.service("tenant-rag")),
        config.max_seq,
        ModelConfig::qwen3_8b(),
        DeviceSpec::a800(),
    )?;
    for q in 0..3 {
        let ans = rag.answer(q, 4)?;
        println!(
            "RAG query {q}: top docs {:?}, gold precision {:.2}, rerank {} us",
            ans.top_docs, ans.gold_precision, ans.stages.rerank_us
        );
    }

    // 4. Tenant B: an agent replaying cached GUI trajectories.
    let mut agent = AgentMemory::new(
        AgentScenario::Video,
        Some(ServiceReranker::new(server.service("tenant-agent"))),
        config.vocab_size,
        config.max_seq,
        DeviceSpec::a800(),
        1,
    );
    for t in 0..3_u64 {
        let r = agent.run_task(t)?;
        println!(
            "agent task {t}: {}/{} actions from trajectory cache, success {}",
            r.cache_hits, r.steps, r.success
        );
    }

    // 5. Serving telemetry.
    let s = server.stats().snapshot();
    println!(
        "\nserved {} requests in {} batches (mean {:.2} req/batch); \
         queue depth peak {}",
        s.completed, s.batches, s.batch_size.mean, s.queue_depth_peak
    );
    server.shutdown();
    std::fs::remove_file(&path)?;
    Ok(())
}
