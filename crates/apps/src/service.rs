//! Running the applications over the unified `prism-api` facade.
//!
//! [`ServiceReranker`] adapts any [`SelectionService`] — the direct
//! [`LocalService`](prism_api::LocalService) or the server's
//! `RemoteService` — to the [`Reranker`] interface every application
//! pipeline (RAG, agent memory, long-context selection) consumes, so an
//! app written against the facade swaps backends without touching its
//! own code. Results are bit-identical across backends for the same
//! batch and options, the facade's core conformance property.

use prism_api::{SelectionService, ServiceError};
use prism_baselines::{RankOutcome, Reranker};
use prism_core::{PrismError, RequestOptions};
use prism_model::SequenceBatch;

/// [`Reranker`] over any facade backend.
pub struct ServiceReranker<S: SelectionService> {
    service: S,
}

impl<S: SelectionService> ServiceReranker<S> {
    /// Wraps a service; every rerank runs with default request options.
    pub fn new(service: S) -> Self {
        ServiceReranker { service }
    }

    /// The wrapped service.
    pub fn service(&self) -> &S {
        &self.service
    }
}

impl<S: SelectionService> Reranker for ServiceReranker<S> {
    fn name(&self) -> &str {
        "PRISM-SERVICE"
    }

    fn rerank(&mut self, batch: &SequenceBatch, k: usize) -> prism_core::Result<RankOutcome> {
        let outcome = self
            .service
            .select(batch.clone(), RequestOptions::top_k(k))
            .map_err(|e| match e {
                ServiceError::Cancelled => PrismError::Cancelled,
                ServiceError::DeadlineExceeded => PrismError::DeadlineExceeded,
                other => PrismError::InvalidRequest(format!("service: {other}")),
            })?;
        Ok(RankOutcome {
            ranked: outcome
                .selection
                .ranked
                .iter()
                .map(|r| (r.id, r.score))
                .collect(),
            scores: outcome.selection.last_scores,
        })
    }
}
