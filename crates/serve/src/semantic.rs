//! The serving layer's semantic-cache tier: glue between
//! [`prism_semcache::SemanticCache`] and the worker execution paths.
//!
//! A request is **eligible** when it opts in ([`SemCacheMode::On`])
//! *and* resolves to full-depth execution (effective pruning off): a
//! candidate's full-depth score is a pure function of its token sequence
//! and precision knobs — the batch-independence contract the conformance
//! suites pin — so replaying the score of a token-identical candidate,
//! across requests and sessions, is bit-identical to recomputing it.
//! Pruned requests bypass this tier untouched.
//!
//! Per eligible request the worker:
//! 1. looks up every candidate in the shared cache ([`SemanticLayer::lookup`]);
//! 2. answers at pickup when every candidate hit ([`replay_selection`]);
//! 3. otherwise plans only the novel candidates as a sub-batch and
//!    merges their scores through the hit mask ([`merge_tail_scores`]),
//!    so the final ranking is the same stable full-depth order the
//!    exact path produces;
//! 4. stores the freshly computed scores ([`SemanticLayer::store`]).

use std::sync::Mutex;

use prism_core::{
    rank_full_scores, EngineTrace, RequestOptions, Selection, SemCacheMode, SpillPrecision,
};
use prism_model::SequenceBatch;
use prism_semcache::hash::{fnv1a, FNV_OFFSET};
use prism_semcache::{SemCacheConfig, SemanticCache};
use prism_tensor::Tensor;

/// Shared semantic-cache tier of one server (one instance across every
/// worker and session; lookups and stores lock briefly, never across
/// engine execution).
pub struct SemanticLayer {
    cache: Mutex<SemanticCache>,
}

/// Per-request semcache bookkeeping carried from the probe to
/// finalization by the worker.
#[derive(Debug)]
pub struct SemState {
    /// Precision profile byte of every candidate in the request.
    pub profile: u8,
    /// Cached score per candidate (`None` = novel).
    pub probes: Vec<Option<f32>>,
    /// Original-batch positions of the novel candidates, in order: what
    /// the planned (sub-)request computes.
    pub novel: Vec<usize>,
}

impl SemState {
    /// Whether only some candidates are novel, so the engine runs a
    /// sub-batch whose scores are merged through the hit mask.
    pub fn is_partial(&self) -> bool {
        self.novel.len() < self.probes.len()
    }
}

impl SemanticLayer {
    /// Builds the tier from the serving configuration's cache config.
    /// Frozen for `benchmark/src/layers.rs` until ROADMAP item 14's
    /// `[benchmark]` half.
    pub fn new(config: SemCacheConfig) -> Self {
        SemanticLayer {
            cache: Mutex::new(SemanticCache::new(config)),
        }
    }

    /// Whether a request with `options` engages this tier on an engine
    /// whose default pruning switch is `engine_pruning`. Only full-depth
    /// (effective pruning off) requests are sound to replay.
    pub fn eligible(options: &RequestOptions, engine_pruning: bool) -> bool {
        options.semcache == SemCacheMode::On && !options.pruning.unwrap_or(engine_pruning)
    }

    /// Packs the request knobs that change score bits into the cache's
    /// profile byte: int8-spilled scores must never replay into requests
    /// spilling f32. The weight format changes score bits too, but it is
    /// the engine's, and one cache serves one engine.
    pub fn profile_byte(options: &RequestOptions) -> u8 {
        u8::from(options.spill_precision == SpillPrecision::Int8)
    }

    /// The cached score of every candidate of `batch` (`None` = novel).
    pub fn lookup(&self, batch: &SequenceBatch, profile: u8) -> Vec<Option<f32>> {
        let mut cache = self.cache.lock().expect("semcache lock");
        (0..batch.num_sequences())
            .map(|i| cache.probe(batch.sequence(i), profile))
            .collect()
    }

    /// Stores freshly computed full-depth scores for the candidates at
    /// `positions`. Scores are indexed by original batch position.
    pub fn store(&self, batch: &SequenceBatch, profile: u8, positions: &[usize], scores: &[f32]) {
        let mut cache = self.cache.lock().expect("semcache lock");
        for &i in positions {
            cache.insert(batch.sequence(i), profile, scores[i]);
        }
    }

    /// One empty vector per candidate: the cache keeps no embedding.
    /// Frozen for `benchmark/src/layers.rs` until ROADMAP item 14's
    /// `[benchmark]` half.
    pub fn pooled_candidates(_embed: &Tensor, batch: &SequenceBatch) -> Vec<Vec<f32>> {
        vec![Vec::new(); batch.num_sequences()]
    }

    /// [`SemanticLayer::lookup`]; `pooled` and `mode` are ignored.
    /// Frozen for `benchmark/src/layers.rs` until ROADMAP item 14's
    /// `[benchmark]` half.
    pub fn probe_batch(
        &self,
        batch: &SequenceBatch,
        _pooled: &[Vec<f32>],
        profile: u8,
        _mode: SemCacheMode,
    ) -> Vec<Option<f32>> {
        self.lookup(batch, profile)
    }

    /// [`SemanticLayer::store`]; `pooled` is ignored. Frozen for
    /// `benchmark/src/layers.rs` until ROADMAP item 14's `[benchmark]`
    /// half.
    pub fn harvest(
        &self,
        batch: &SequenceBatch,
        _pooled: &[Vec<f32>],
        profile: u8,
        positions: &[usize],
        scores: &[f32],
    ) {
        self.store(batch, profile, positions, scores)
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
}

/// FNV-1a over the packed tokens and sequence ranges: the identity of a
/// candidate corpus. Frozen for `benchmark/src/layers.rs` (which times
/// it) until ROADMAP item 14's `[benchmark]` half; nothing in the
/// serving path calls it.
pub fn fingerprint_batch(batch: &SequenceBatch) -> u64 {
    let eat = |h: u64, v: u64| fnv1a(h, &v.to_le_bytes());
    let mut h = eat(FNV_OFFSET, batch.num_sequences() as u64);
    for &(s, e) in batch.ranges() {
        h = eat(eat(h, s as u64), e as u64);
    }
    for &t in batch.tokens() {
        h = eat(h, u64::from(t));
    }
    h
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
pub fn merge_tail_scores(probes: &[Option<f32>], novel: &[usize], tail_scores: &[f32]) -> Vec<f32> {
    debug_assert_eq!(novel.len(), tail_scores.len());
    let mut merged: Vec<f32> = probes.iter().map(|p| p.unwrap_or(0.0)).collect();
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
            capacity_bytes: 1 << 20,
        })
    }

    fn batch(seqs: &[Vec<u32>]) -> SequenceBatch {
        SequenceBatch::new(seqs).unwrap()
    }

    #[test]
    fn eligibility_requires_knob_and_full_depth() {
        let mut o = RequestOptions::top_k(2);
        assert!(!SemanticLayer::eligible(&o, false), "Off never engages");
        o.semcache = SemCacheMode::On;
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
        assert_ne!(
            SemanticLayer::profile_byte(&base),
            SemanticLayer::profile_byte(&spill),
            "spill precisions must not share a profile"
        );
    }

    #[test]
    fn fingerprint_separates_content_and_shape() {
        let a = fingerprint_batch(&batch(&[vec![1, 2], vec![3]]));
        let b = fingerprint_batch(&batch(&[vec![1], vec![2, 3]]));
        let c = fingerprint_batch(&batch(&[vec![1, 2], vec![3]]));
        assert_ne!(a, b, "same tokens, different packing must differ");
        assert_eq!(a, c, "identical batches must agree");
        assert_ne!(a, fingerprint_batch(&batch(&[vec![1, 2, 4]])));
        // Corpus fingerprints must survive refactors of the hash
        // plumbing: values computed before FNV-1a moved into
        // `prism-semcache`.
        assert_eq!(a, 0xd9d8_2733_f690_48e4);
        assert_eq!(
            fingerprint_batch(&batch(&[vec![1, 2, 4]])),
            0x271f_1182_a242_dc40
        );
    }

    #[test]
    fn probe_replay_harvest_round_trip() {
        let layer = layer();
        let b = batch(&[vec![1, 2], vec![3, 4]]);
        assert_eq!(layer.lookup(&b, 0), vec![None, None], "cold cache misses");
        layer.store(&b, 0, &[0, 1], &[0.25, -0.75]);
        assert_eq!(layer.lookup(&b, 0), vec![Some(0.25), Some(-0.75)]);
        assert_eq!(layer.lookup(&b, 1), vec![None, None], "other profile");
        // The frozen entry points answer like the real ones.
        let pooled = SemanticLayer::pooled_candidates(&Tensor::zeros(4, 2), &b);
        assert_eq!(pooled, vec![Vec::<f32>::new(); 2]);
        let shifted = batch(&[vec![3, 4], vec![5]]);
        layer.harvest(&shifted, &pooled, 0, &[1], &[0.0, 0.5]);
        assert_eq!(
            layer.probe_batch(&shifted, &pooled, 0, SemCacheMode::On),
            vec![Some(-0.75), Some(0.5)]
        );
        layer.audit().unwrap();
    }

    #[test]
    fn merge_places_tail_scores_by_keep_mask() {
        let probes = vec![Some(0.5), None, Some(-0.25), None];
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
