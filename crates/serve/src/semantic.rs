//! The serving layer's semantic-cache tier: glue between
//! [`prism_semcache::SemanticCache`] and the worker execution paths.
//!
//! Sits between the per-session memo cache and the engine. A request is
//! **eligible** when it opts in ([`prism_core::SemCacheMode`]) *and*
//! resolves to full-depth execution (effective pruning off): a
//! candidate's full-depth score is a pure function of its token sequence
//! and precision knobs — the batch-independence contract the conformance
//! suites pin — so replaying one across requests and sessions is
//! sound. Pruned requests bypass this tier untouched.
//!
//! Per eligible request the worker:
//! 1. mean-pools each candidate's embedding rows (the embedding is
//!    computed anyway, or replayed from the session cache),
//! 2. probes the shared cache per candidate —
//!    [`SemCacheMode::VerifyAndFallback`] consults the exact tier only
//!    (bit-identical replays), [`SemCacheMode::Aggressive`] also the
//!    similarity tier,
//! 3. replays matched scores and recomputes only the **novel tail** as a
//!    sub-batch, merging through the hit mask so the final
//!    ranking is the same stable full-depth order the exact path
//!    produces,
//! 4. harvests freshly computed full-depth scores back into the cache.
//!
//! Under `VerifyAndFallback`, a deterministically sampled fraction of
//! hits forces the whole request down the exact path anyway; replayed
//! scores are then compared bit-for-bit and a mismatch poisons the
//! offending LSH bucket and counts a fallback — the caller always gets
//! the exact result.

use std::sync::Mutex;

use prism_core::{
    rank_full_scores, ComputePrecision, EngineTrace, RequestOptions, Selection, SemCacheMode,
    SpillPrecision,
};
use prism_model::SequenceBatch;
use prism_semcache::{mean_pool, should_verify, Probe, SemCacheConfig, SemanticCache};
use prism_tensor::Tensor;

/// Shared semantic-cache tier of one server (one instance across every
/// worker and session; probes and harvests lock briefly, never
/// across engine execution).
pub struct SemanticLayer {
    cache: Mutex<SemanticCache>,
    verify_fraction: f64,
}

/// Per-request semcache bookkeeping carried from planning to
/// finalization by the worker.
#[derive(Debug)]
pub struct SemState {
    /// Precision profile byte of every candidate in the request.
    pub profile: u8,
    /// Mean-pooled embedding vector per candidate (probe + harvest).
    pub pooled: Vec<Vec<f32>>,
    /// Probe outcome per candidate (`Probe::Miss` = novel).
    pub probes: Vec<Probe>,
    /// `Some(positions)` when only the novel tail was planned: the
    /// original-batch positions the planned sub-request covers, in
    /// order. `None` when the full request was planned.
    pub novel: Option<Vec<usize>>,
    /// Whether this request was sampled for verification (full exact
    /// compute + bit comparison against the replayed scores).
    pub verify: bool,
}

impl SemState {
    /// Number of candidates whose score was replayed from the cache.
    pub fn hits(&self) -> usize {
        self.probes.iter().filter(|p| p.is_hit()).count()
    }
}

impl SemanticLayer {
    /// Builds the tier from the serving configuration's cache config.
    pub fn new(config: SemCacheConfig) -> Self {
        let verify_fraction = config.verify_fraction;
        SemanticLayer {
            cache: Mutex::new(SemanticCache::new(config)),
            verify_fraction,
        }
    }

    /// Whether a request with `options` engages this tier on an engine
    /// whose default pruning switch is `engine_pruning`. Only full-depth
    /// (effective pruning off) requests are sound to replay.
    pub fn eligible(options: &RequestOptions, engine_pruning: bool) -> bool {
        options.semcache != SemCacheMode::Off && !options.pruning.unwrap_or(engine_pruning)
    }

    /// Packs the knobs that change score bits into the exact-tier
    /// profile byte: int8-spilled and int8-computed scores must never
    /// replay into requests running other precision profiles.
    pub fn profile_byte(options: &RequestOptions) -> u8 {
        u8::from(options.spill_precision == SpillPrecision::Int8)
            | (u8::from(options.compute_precision == ComputePrecision::Int8) << 1)
    }

    /// Mean-pools each candidate's slice of the embedded batch
    /// (`embed` is `[total_tokens, hidden_dim]`, rows per candidate
    /// given by the batch's ranges).
    pub fn pooled_candidates(embed: &Tensor, batch: &SequenceBatch) -> Vec<Vec<f32>> {
        let dim = embed.cols();
        let data = embed.data();
        batch
            .ranges()
            .iter()
            .map(|&(s, e)| mean_pool(&data[s * dim..e * dim], dim))
            .collect()
    }

    /// Probes every candidate of `batch`. `mode` picks the tiers:
    /// `VerifyAndFallback` consults only exact token matches,
    /// `Aggressive` also near-duplicates.
    pub fn probe_batch(
        &self,
        batch: &SequenceBatch,
        pooled: &[Vec<f32>],
        profile: u8,
        mode: SemCacheMode,
    ) -> Vec<Probe> {
        let allow_similar = mode == SemCacheMode::Aggressive;
        let mut cache = self.cache.lock().expect("semcache lock");
        (0..batch.num_sequences())
            .map(|i| cache.probe(batch.sequence(i), profile, Some(&pooled[i]), allow_similar))
            .collect()
    }

    /// Whether any hit of `probes` samples into verification under
    /// `VerifyAndFallback` (deterministic per candidate content).
    pub fn wants_verify(&self, mode: SemCacheMode, probes: &[Probe]) -> bool {
        mode == SemCacheMode::VerifyAndFallback
            && probes.iter().any(|p| match p {
                Probe::ExactHit { fingerprint, .. } | Probe::SimilarHit { fingerprint, .. } => {
                    should_verify(*fingerprint, self.verify_fraction)
                }
                Probe::Miss => false,
            })
    }

    /// Stores freshly computed full-depth scores for the candidates at
    /// `positions` (probe + harvest share the pooled vectors). Scores
    /// are indexed by original batch position.
    pub fn harvest(
        &self,
        batch: &SequenceBatch,
        pooled: &[Vec<f32>],
        profile: u8,
        positions: &[usize],
        scores: &[f32],
    ) {
        let mut cache = self.cache.lock().expect("semcache lock");
        for &i in positions {
            cache.insert(batch.sequence(i), profile, &pooled[i], scores[i]);
        }
    }

    /// Compares replayed scores against the exactly recomputed
    /// `last_scores` bit-for-bit, poisoning the LSH bucket of every
    /// mismatch. Returns the number of mismatches (fallbacks).
    pub fn verify_replays(&self, probes: &[Probe], last_scores: &[f32]) -> u64 {
        let mut mismatches = 0;
        let mut cache = self.cache.lock().expect("semcache lock");
        for (i, probe) in probes.iter().enumerate() {
            let (score, signature) = match probe {
                Probe::ExactHit {
                    score, signature, ..
                }
                | Probe::SimilarHit {
                    score, signature, ..
                } => (*score, *signature),
                Probe::Miss => continue,
            };
            if score.to_bits() != last_scores[i].to_bits() {
                cache.poison(signature);
                mismatches += 1;
            }
        }
        mismatches
    }

    /// Current metered bytes of the underlying cache.
    pub fn bytes(&self) -> u64 {
        self.cache.lock().expect("semcache lock").bytes()
    }

    /// Leak audit: recomputes the byte meter from live entries and
    /// checks every internal index (see
    /// [`prism_semcache::SemanticCache::audit`]).
    pub fn audit(&self) -> Result<u64, String> {
        self.cache.lock().expect("semcache lock").audit()
    }

    /// Counter snapshot of the underlying cache.
    pub fn cache_stats(&self) -> prism_semcache::SemCacheStats {
        self.cache.lock().expect("semcache lock").stats()
    }
}

/// Builds the selection a fully-replayed request answers with: the
/// replayed scores ranked by the same stable full-depth order
/// ([`rank_full_scores`]) the exact pruning-off path uses, every
/// candidate decided at `depth` (= the model's layer count).
pub fn replay_selection(scores: Vec<f32>, k: usize, depth: usize) -> Selection {
    Selection {
        ranked: rank_full_scores(&scores, k, depth),
        last_scores: scores,
        // Replays only engage on fully-served cached scores.
        trace: EngineTrace::default(),
    }
}

/// Merges a partial replay with its computed novel tail: `probes` give
/// the kept (replayed) scores, `novel` lists the original positions the
/// sub-request computed (the complement of the keep mask), and
/// `tail_scores` are the sub-request's full-depth scores in that order.
/// Returns the merged per-candidate score vector, indexed like the
/// original batch.
pub fn merge_tail_scores(probes: &[Probe], novel: &[usize], tail_scores: &[f32]) -> Vec<f32> {
    debug_assert_eq!(novel.len(), tail_scores.len());
    let mut merged = vec![0.0f32; probes.len()];
    for (i, probe) in probes.iter().enumerate() {
        if let Some(score) = probe.score() {
            merged[i] = score;
        }
    }
    for (slot, &score) in novel.iter().zip(tail_scores) {
        merged[*slot] = score;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> SemanticLayer {
        SemanticLayer::new(SemCacheConfig {
            dim: 4,
            capacity_bytes: 1 << 20,
            lsh_bits: 8,
            similarity_threshold: 0.9,
            verify_fraction: 1.0,
            seed: 3,
        })
    }

    fn batch(seqs: &[Vec<u32>]) -> SequenceBatch {
        SequenceBatch::new(seqs).unwrap()
    }

    #[test]
    fn eligibility_requires_knob_and_full_depth() {
        let mut o = RequestOptions::top_k(2);
        assert!(!SemanticLayer::eligible(&o, false), "Off never engages");
        o.semcache = SemCacheMode::Aggressive;
        assert!(SemanticLayer::eligible(&o, false));
        assert!(!SemanticLayer::eligible(&o, true), "engine default pruning");
        o.pruning = Some(false);
        assert!(SemanticLayer::eligible(&o, true), "request override wins");
        o.pruning = Some(true);
        assert!(!SemanticLayer::eligible(&o, false));
    }

    #[test]
    fn profile_byte_separates_precisions() {
        // The default spill precision is already Int8; F32 is the opt-out.
        let base = RequestOptions::top_k(1);
        let spill = RequestOptions::top_k(1).with_spill_precision(SpillPrecision::F32);
        let compute = RequestOptions::top_k(1).with_compute_precision(ComputePrecision::Int8);
        let both = spill.clone().with_compute_precision(ComputePrecision::Int8);
        let bytes = [
            SemanticLayer::profile_byte(&base),
            SemanticLayer::profile_byte(&spill),
            SemanticLayer::profile_byte(&compute),
            SemanticLayer::profile_byte(&both),
        ];
        for (i, a) in bytes.iter().enumerate() {
            for b in bytes.iter().skip(i + 1) {
                assert_ne!(a, b, "profiles must be distinct: {bytes:?}");
            }
        }
    }

    #[test]
    fn pooling_splits_by_candidate_ranges() {
        let b = batch(&[vec![1, 2], vec![3]]);
        // 3 total tokens, dim 2: rows 0-1 are candidate 0, row 2 is 1.
        let embed = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0]).unwrap();
        let pooled = SemanticLayer::pooled_candidates(&embed, &b);
        assert_eq!(pooled, vec![vec![2.0, 3.0], vec![10.0, 20.0]]);
    }

    #[test]
    fn probe_replay_harvest_round_trip() {
        let layer = layer();
        let b = batch(&[vec![1, 2], vec![3, 4]]);
        let pooled = vec![vec![0.4, -0.2, 0.8, 0.1], vec![-0.3, 0.9, 0.2, -0.5]];
        let probes = layer.probe_batch(&b, &pooled, 0, SemCacheMode::Aggressive);
        assert!(probes.iter().all(|p| !p.is_hit()), "cold cache misses");
        layer.harvest(&b, &pooled, 0, &[0, 1], &[0.25, -0.75]);
        let probes = layer.probe_batch(&b, &pooled, 0, SemCacheMode::VerifyAndFallback);
        assert_eq!(probes[0].score(), Some(0.25));
        assert_eq!(probes[1].score(), Some(-0.75));
        // verify_fraction = 1.0: every hit samples into verification.
        assert!(layer.wants_verify(SemCacheMode::VerifyAndFallback, &probes));
        assert!(!layer.wants_verify(SemCacheMode::Aggressive, &probes));
        // Bit-identical recompute: no fallbacks, nothing poisoned.
        assert_eq!(layer.verify_replays(&probes, &[0.25, -0.75]), 0);
        // A flipped score poisons and counts.
        assert_eq!(layer.verify_replays(&probes, &[0.25, -0.74]), 1);
        let probes = layer.probe_batch(&b, &pooled, 0, SemCacheMode::VerifyAndFallback);
        assert!(probes[0].is_hit(), "unpoisoned bucket still serves");
        assert!(!probes[1].is_hit(), "poisoned bucket is disabled");
        layer.audit().unwrap();
    }

    #[test]
    fn merge_places_tail_scores_by_keep_mask() {
        let probes = vec![
            Probe::ExactHit {
                score: 0.5,
                fingerprint: 1,
                signature: 2,
            },
            Probe::Miss,
            Probe::ExactHit {
                score: -0.25,
                fingerprint: 3,
                signature: 4,
            },
            Probe::Miss,
        ];
        let merged = merge_tail_scores(&probes, &[1, 3], &[9.0, 7.0]);
        assert_eq!(merged, vec![0.5, 9.0, -0.25, 7.0]);
    }

    #[test]
    fn replay_selection_ranks_like_the_exact_path() {
        let sel = replay_selection(vec![0.1, 0.9, 0.5], 2, 12);
        assert_eq!(sel.ranked.len(), 2);
        assert_eq!(sel.ranked[0].id, 1);
        assert_eq!(sel.ranked[1].id, 2);
        assert!(sel.ranked.iter().all(|r| r.decided_at_layer == 12));
        assert_eq!(sel.last_scores, vec![0.1, 0.9, 0.5]);
    }
}
