//! The application pipelines driven through the serving front-end: a
//! [`ServiceReranker`] over [`PrismServer::service`] is a drop-in
//! `Reranker`, so RAG and agent-memory run unchanged over the
//! multi-tenant server — and their results match the same pipeline
//! holding a dedicated engine.

use prism_apps::corpus::CorpusSpec;
use prism_apps::{AgentMemory, AgentScenario, Corpus, RagPipeline, ServiceReranker};
use prism_core::{EngineOptions, PrismEngine};
use prism_device::DeviceSpec;
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelArch, ModelConfig};
use prism_serve::{PrismServer, ServeConfig};
use prism_storage::Container;

fn fixture(tag: &str) -> (Model, std::path::PathBuf) {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
    let model = Model::generate(config, 42).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!(
        "prism-apps-serve-{tag}-{}.prsm",
        std::process::id()
    ));
    model.write_container(&path).unwrap();
    (model, path)
}

fn server(model: &Model, path: &std::path::Path) -> PrismServer {
    let engine = PrismEngine::new(
        Container::open(path).unwrap(),
        model.config.clone(),
        EngineOptions::default(),
        MemoryMeter::new(),
    )
    .unwrap();
    PrismServer::start(
        engine,
        ServeConfig {
            workers: 2,
            max_batch_requests: 4,
            ..Default::default()
        },
    )
    .unwrap()
}

fn corpus(model: &Model) -> Corpus {
    Corpus::generate(CorpusSpec {
        vocab_size: model.config.vocab_size,
        doc_len: 24,
        docs_per_query: 24,
        queries: 4,
        gold_per_query: 4,
        seed: 3,
    })
}

#[test]
fn rag_pipeline_over_serving_session() {
    let (model, path) = fixture("rag");
    let srv = server(&model, &path);

    let mut rag = RagPipeline::new(
        corpus(&model),
        model.weights.embedding.clone(),
        ServiceReranker::new(srv.service("rag-tenant")),
        model.config.max_seq,
        ModelConfig::qwen3_8b(),
        DeviceSpec::a800(),
    )
    .unwrap();

    let mut total_precision = 0.0;
    for q in 0..4 {
        let ans = rag.answer(q, 4).unwrap();
        assert_eq!(ans.top_docs.len(), 4);
        total_precision += ans.gold_precision;
    }
    let avg = total_precision / 4.0;
    assert!(avg >= 0.5, "served RAG gold precision {avg} too low");
    assert!(
        srv.stats().snapshot().completed >= 4,
        "queries must flow through the server"
    );
    srv.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn served_rag_matches_dedicated_engine() {
    let (model, path) = fixture("rag-parity");

    fn run<R: prism_baselines::Reranker>(rag: &mut RagPipeline<R>) -> Vec<Vec<usize>> {
        (0..4).map(|q| rag.answer(q, 4).unwrap().top_docs).collect()
    }
    let answers = |use_server: bool| -> Vec<Vec<usize>> {
        if use_server {
            let srv = server(&model, &path);
            let mut rag = RagPipeline::new(
                corpus(&model),
                model.weights.embedding.clone(),
                ServiceReranker::new(srv.service("parity")),
                model.config.max_seq,
                ModelConfig::qwen3_8b(),
                DeviceSpec::a800(),
            )
            .unwrap();
            let out = run(&mut rag);
            srv.shutdown();
            out
        } else {
            let engine = PrismEngine::new(
                Container::open(&path).unwrap(),
                model.config.clone(),
                EngineOptions::default(),
                MemoryMeter::new(),
            )
            .unwrap();
            let mut rag = RagPipeline::new(
                corpus(&model),
                model.weights.embedding.clone(),
                engine,
                model.config.max_seq,
                ModelConfig::qwen3_8b(),
                DeviceSpec::a800(),
            )
            .unwrap();
            run(&mut rag)
        }
    };

    // Both paths execute the identical per-request computation: the
    // dedicated engine's request counter assigns tags 1..=4 and the
    // server's submission tickets assign the same 1..=4, so the document
    // rankings must agree exactly.
    let served = answers(true);
    let dedicated = answers(false);
    for (q, (s, d)) in served.iter().zip(&dedicated).enumerate() {
        assert_eq!(s, d, "query {q}: served and dedicated rankings differ");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn agent_memory_over_serving_session() {
    let (model, path) = fixture("agent");
    let srv = server(&model, &path);

    let mut agent = AgentMemory::new(
        AgentScenario::Video,
        Some(ServiceReranker::new(srv.service("agent-tenant"))),
        model.config.vocab_size,
        model.config.max_seq,
        DeviceSpec::a800(),
        1,
    );
    let mut hits = 0;
    let mut steps = 0;
    for t in 0..12_u64 {
        let r = agent.run_task(t).unwrap();
        hits += r.cache_hits;
        steps += r.steps;
        assert!(
            r.rerank_us > 0,
            "reranking must be measured through serving"
        );
    }
    assert!(
        hits * 3 >= steps,
        "too few trajectory-cache hits: {hits}/{steps}"
    );
    assert!(srv.stats().snapshot().completed >= steps as u64);
    srv.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// The RAG pipeline over the unified facade: `ServiceReranker` on a
/// `LocalService` and on the server's `RemoteService` must both produce
/// exactly the rankings of a pipeline holding a dedicated engine.
#[test]
fn rag_over_the_facade_matches_dedicated_engine() {
    use prism_api::LocalService;

    let (model, path) = fixture("facade");

    fn run<R: prism_baselines::Reranker>(rag: &mut RagPipeline<R>) -> Vec<Vec<usize>> {
        (0..4).map(|q| rag.answer(q, 4).unwrap().top_docs).collect()
    }
    let engine = |path: &std::path::Path| {
        PrismEngine::new(
            Container::open(path).unwrap(),
            model.config.clone(),
            EngineOptions::default(),
            MemoryMeter::new(),
        )
        .unwrap()
    };
    fn pipeline<R: prism_baselines::Reranker>(model: &Model, reranker: R) -> RagPipeline<R> {
        RagPipeline::new(
            corpus(model),
            model.weights.embedding.clone(),
            reranker,
            model.config.max_seq,
            ModelConfig::qwen3_8b(),
            DeviceSpec::a800(),
        )
        .unwrap()
    }

    let dedicated = run(&mut pipeline(&model, engine(&path)));

    let local = ServiceReranker::new(LocalService::new(engine(&path)));
    assert_eq!(
        run(&mut pipeline(&model, local)),
        dedicated,
        "LocalService diverged"
    );

    let srv = server(&model, &path);
    let remote = ServiceReranker::new(srv.service("facade-tenant"));
    assert_eq!(
        run(&mut pipeline(&model, remote)),
        dedicated,
        "RemoteService diverged"
    );
    srv.shutdown();

    std::fs::remove_file(&path).unwrap();
}
