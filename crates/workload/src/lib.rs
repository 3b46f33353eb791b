//! Synthetic workload generation for the PRISM evaluation.
//!
//! The paper benchmarks on 18 retrieval datasets (15 BEIR tasks plus LoTTE,
//! Wikipedia and CodeRAG). Those corpora are not redistributable here, so
//! each dataset becomes a seeded [`dataset::DatasetProfile`] capturing the
//! statistics the experiments are sensitive to: how separable relevant and
//! irrelevant candidates are (drives pruning depth and precision), candidate
//! length (drives compute), vocabulary skew (drives embedding-cache hit
//! rates) and ground-truth density (drives Precision@K).
//!
//! [`generator::WorkloadGenerator`] turns a profile into concrete rerank
//! requests: query + candidate token sequences with *planted relevance*
//! following the convention in [`prism_model::semantics`], plus the
//! ground-truth relevant set.

pub mod dataset;
pub mod generator;
pub mod tokenizer;

pub use dataset::{dataset_by_name, dataset_catalog, DatasetProfile};
pub use generator::{CandidateDoc, RerankRequest, WorkloadGenerator};
pub use tokenizer::ZipfSampler;
