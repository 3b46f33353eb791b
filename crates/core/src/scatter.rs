//! Score-level selection state: the one owner of the pruning gate's
//! bookkeeping, for single-engine and scatter-gather execution alike.
//!
//! A selection has two kinds of state. The *score-level* state — which
//! candidates are still active and with what scores, who has been
//! accepted into the top-K, the routing trace, whether the request is
//! decided — is a function of scores alone and lives here, in
//! [`ScatterGate`]. The *physical* state — hidden-state chunks, spill
//! slots, meter bytes, cancel/deadline/progress controls — lives in the
//! engine's [`crate::ActiveRequest`], which embeds one `ScatterGate` and
//! feeds it the scores its own chunks produce.
//!
//! The pruning gate (§4.1) is a function of the *whole* batch's score
//! distribution — its CV test and 1-D K-Means see every active candidate
//! at once. A sharded deployment that let each shard gate its own subset
//! would therefore diverge from the single-engine result. Instead, shards
//! run with local pruning disabled and a coordinator owns one more
//! [`ScatterGate`]: each layer boundary it gathers every shard's
//! `(candidate, score)` pairs, rebuilds the global score vector in
//! ascending-id order (exactly the order a single engine's chunks score
//! in), runs [`ScatterGate::gate`] with the same seed derivation, and
//! hands each shard back a keep-mask. Both paths run the same methods of
//! the same type, so the merged top-k is bit-identical to single-engine
//! selection by construction — the property the cross-shard conformance
//! suite pins.

use crate::control::ProgressUpdate;
use crate::engine::{EngineTrace, RankedCandidate, RequestOptions, RouteEvent, Selection};
use crate::options::{EngineOptions, PruneMode};
use crate::routing::route_candidates;
use crate::{PrismError, Result};

/// The gate's decision for one layer boundary.
#[derive(Debug, Clone)]
pub struct ScatterStep {
    /// Keep-mask over the gate's candidate ids when the gate pruned
    /// anyone; drives physical retention of hidden states via
    /// `PrismEngine::apply_keep_mask` (a scatter-gather coordinator
    /// projects it to shard-local masks first).
    pub keep: Option<Vec<bool>>,
    /// The selection is decided: no further layers are needed.
    pub done: bool,
}

/// Routing parameters resolved for one request: engine defaults with the
/// per-request [`RequestOptions`] overrides applied.
#[derive(Debug, Clone)]
struct GateParams {
    pruning: bool,
    dispersion_threshold: f32,
    top_k_only: bool,
    max_clusters: usize,
}

/// Gate + ranking state of one selection.
///
/// Owns every piece of score-level bookkeeping — accepted set, current
/// scores, last scores, trace, termination — exactly once. The engine's
/// [`crate::ActiveRequest`] embeds one next to its physical state; a
/// scatter-gather coordinator holds one over the merged cross-shard
/// score vector while its per-shard `ActiveRequest`s run with pruning
/// off.
pub struct ScatterGate {
    n: usize,
    k: usize,
    tag: u64,
    engine_seed: u64,
    num_layers: usize,
    gate: GateParams,
    record_score_trace: bool,
    current: Vec<(usize, f32)>,
    last_scores: Vec<f32>,
    accepted: Vec<RankedCandidate>,
    terminated: bool,
    /// Crate-visible so the engine can attach the physical statistics
    /// (stream / spill / latency) of the run that produced the scores.
    pub(crate) trace: EngineTrace,
    dropped_total: usize,
    /// Per-candidate loss marks for unrecoverable shard failures
    /// (degraded-mode serving under [`crate::PartialMode::Partial`]);
    /// the count drives the merged selection's `coverage`.
    lost: Vec<bool>,
    lost_total: usize,
    /// Whether [`ScatterGate::seed_probe`] has run. Before seeding every
    /// candidate is active (nothing has been scored or pruned yet), so
    /// losses are counted without consulting the score vector.
    seeded: bool,
}

impl ScatterGate {
    /// Builds the selection state for a request of `n` candidates.
    ///
    /// `engine` must be the options every engine serving the request
    /// shares (validated by the serving layer's shard set); `tag` is the
    /// resolved routing tag, since the gate seed is
    /// `engine.seed ^ layer ^ tag`.
    pub fn new(
        engine: &EngineOptions,
        options: &RequestOptions,
        n: usize,
        num_layers: usize,
        tag: u64,
    ) -> Result<Self> {
        if n == 0 {
            return Err(PrismError::InvalidRequest("empty batch".into()));
        }
        if options.k == 0 {
            return Err(PrismError::InvalidRequest("k must be >= 1".into()));
        }
        Ok(ScatterGate {
            n,
            k: options.k.min(n),
            tag,
            engine_seed: engine.seed,
            num_layers,
            gate: GateParams {
                pruning: options.pruning.unwrap_or(engine.pruning),
                dispersion_threshold: options
                    .dispersion_threshold
                    .unwrap_or(engine.dispersion_threshold),
                top_k_only: options.mode.unwrap_or(engine.mode) == PruneMode::TopKOnly,
                max_clusters: engine.max_clusters,
            },
            record_score_trace: engine.record_score_trace,
            current: Vec::new(),
            last_scores: vec![0.0_f32; n],
            accepted: Vec::new(),
            terminated: false,
            trace: EngineTrace::default(),
            dropped_total: 0,
            lost: vec![false; n],
            lost_total: 0,
            seeded: false,
        })
    }

    /// Number of candidates in the originating batch.
    pub fn num_candidates(&self) -> usize {
        self.n
    }

    /// The resolved top-K size (clamped to the candidate count).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the selection is decided (no more layers needed).
    pub fn is_done(&self) -> bool {
        self.terminated
    }

    /// Scores of the still-active candidates, ascending by candidate id.
    pub(crate) fn scores(&self) -> &[(usize, f32)] {
        &self.current
    }

    /// Seeds the post-embedding probe scores, ascending by candidate id
    /// (for a coordinator: the merge of every shard's probe).
    pub fn seed_probe(&mut self, merged: Vec<(usize, f32)>) {
        self.seeded = true;
        self.record_scores(merged);
    }

    /// Whether candidate `id` is still in play: neither pruned, accepted,
    /// nor lost. Before the probe is seeded every candidate is active.
    /// The failover coordinator uses this to decide which of a dead
    /// shard's candidates must be replayed on a replica.
    pub fn is_active(&self, id: usize) -> bool {
        if id >= self.n || self.lost[id] {
            return false;
        }
        if !self.seeded {
            return true;
        }
        self.current.iter().any(|&(c, _)| c == id)
    }

    /// Records the scores after one forwarded layer, ascending by
    /// candidate id.
    pub fn observe_layer(&mut self, merged: Vec<(usize, f32)>) {
        self.trace.executed_layers += 1;
        self.record_scores(merged);
    }

    fn record_scores(&mut self, scores: Vec<(usize, f32)>) {
        debug_assert!(scores.windows(2).all(|w| w[0].0 < w[1].0));
        self.current = scores;
        for &(id, s) in &self.current {
            self.last_scores[id] = s;
        }
        if self.record_score_trace {
            let mut aligned = vec![None; self.n];
            for &(id, s) in &self.current {
                aligned[id] = Some(s);
            }
            self.trace.score_trace.push(aligned);
        }
    }

    /// Runs the pruning gate for `layer_idx` (§4.1): routes clusters
    /// using the scores from the previous boundary, books the decision
    /// (accepted set, dropped count, routing trace), and records the
    /// per-layer active count. May terminate the selection.
    pub fn gate(&mut self, layer_idx: usize) -> ScatterStep {
        if self.terminated {
            return ScatterStep {
                keep: None,
                done: true,
            };
        }
        let (keep, terminate) = self.route(layer_idx);
        if terminate || self.current.is_empty() {
            self.terminated = true;
        } else {
            self.trace.active_per_layer.push(self.current.len());
        }
        ScatterStep {
            keep,
            done: self.terminated,
        }
    }

    /// One gate evaluation: the routing decision applied to the accepted
    /// set, current scores, trace and dropped count. Returns the
    /// keep-mask over candidate ids (present when the decision pruned
    /// anyone) and whether the selection is decided.
    fn route(&mut self, layer_idx: usize) -> (Option<Vec<bool>>, bool) {
        /// First layer boundary at which the gate may fire: it needs
        /// scores derived from at least one transformer layer's output
        /// (§4.1 computes them from "layer i's output scores").
        const FIRST_GATE_LAYER: usize = 1;
        let gate = &self.gate;
        if !(gate.pruning && layer_idx >= FIRST_GATE_LAYER && !self.current.is_empty()) {
            return (None, false);
        }
        let k_remaining = self.k - self.accepted.len();
        let scores_only: Vec<f32> = self.current.iter().map(|(_, s)| *s).collect();
        let decision = route_candidates(
            &scores_only,
            k_remaining,
            gate.dispersion_threshold,
            gate.top_k_only,
            gate.max_clusters,
            self.engine_seed ^ (layer_idx as u64) ^ self.tag,
        );
        if !(decision.clustered || decision.terminate) {
            return (None, false);
        }
        let selected_ids: Vec<usize> = decision
            .selected
            .iter()
            .map(|&i| self.current[i].0)
            .collect();
        let dropped_ids: Vec<usize> = decision
            .dropped
            .iter()
            .map(|&i| self.current[i].0)
            .collect();
        for &i in &decision.selected {
            let (id, score) = self.current[i];
            self.accepted.push(RankedCandidate {
                id,
                score,
                decided_at_layer: layer_idx,
            });
        }
        self.dropped_total += dropped_ids.len();
        self.trace.routes.push(RouteEvent {
            layer: layer_idx,
            cv: decision.cv,
            clustered: decision.clustered,
            selected: selected_ids.clone(),
            dropped: dropped_ids.clone(),
        });
        let keep_mask = (!selected_ids.is_empty() || !dropped_ids.is_empty()).then(|| {
            // A boolean mask keyed by candidate id turns every membership
            // probe into O(1) instead of an O(|keep|) scan.
            let mut mask = vec![false; self.n];
            for &i in &decision.deferred {
                mask[self.current[i].0] = true;
            }
            mask
        });
        if let Some(mask) = &keep_mask {
            self.retain(mask);
        }
        (keep_mask, decision.terminate)
    }

    /// Drops every active candidate unset in `keep` (indexed by candidate
    /// id) from the score vector — the score-level half of
    /// `PrismEngine::apply_keep_mask` — terminating the selection when
    /// nothing is left.
    pub(crate) fn retain(&mut self, keep: &[bool]) {
        self.current.retain(|(id, _)| keep[*id]);
        if self.current.is_empty() {
            self.terminated = true;
        }
    }

    /// Marks the selection as needing no further layers.
    pub(crate) fn terminate(&mut self) {
        self.terminated = true;
    }

    /// Drops candidates whose shard died with every replica exhausted —
    /// the coordinator's degraded-mode path
    /// ([`crate::PartialMode::Partial`]). Still-active candidates in
    /// `lost` leave the score vector (the gate never sees them again);
    /// already-accepted or already-pruned candidates are unaffected
    /// (their fate was decided while their shard was alive). Returns how
    /// many active candidates were actually removed; the request
    /// terminates if nothing active remains.
    pub fn remove_candidates(&mut self, lost: &[usize]) -> usize {
        let mut removed = 0;
        for &id in lost {
            if self.is_active(id) {
                self.lost[id] = true;
                removed += 1;
            }
        }
        if removed > 0 {
            self.lost_total += removed;
            self.current.retain(|&(id, _)| !self.lost[id]);
            let none_left = if self.seeded {
                self.current.is_empty()
            } else {
                self.lost_total == self.n
            };
            if none_left {
                self.terminated = true;
            }
        }
        removed
    }

    /// Fraction of the request's candidates still served, in `(0, 1]` —
    /// what the selection will report as its coverage.
    pub fn coverage(&self) -> f32 {
        1.0 - self.lost_total as f32 / self.n as f32
    }

    /// A progress snapshot for the facade's layer-granularity stream.
    pub fn progress(&self, layer: usize) -> ProgressUpdate {
        ProgressUpdate {
            layer,
            layers_forwarded: self.trace.executed_layers,
            active: self.current.len(),
            accepted: self.accepted.len(),
            pruned: self.dropped_total,
        }
    }

    /// Ranks the survivors and assembles the [`Selection`]
    /// (score-descending, ties keep ascending-id order). Leaves the gate
    /// drained: call once, when the selection is over.
    pub fn finalize(&mut self) -> Selection {
        finalize_ranked(
            &mut self.accepted,
            &self.current,
            self.terminated,
            self.k,
            self.num_layers,
        );
        Selection {
            ranked: std::mem::take(&mut self.accepted),
            last_scores: std::mem::take(&mut self.last_scores),
            coverage: self.coverage(),
            trace: std::mem::take(&mut self.trace),
        }
    }
}

/// Ranks the survivors of a finished selection into `accepted`: undecided
/// candidates compete for the remaining slots by final score (stable sort,
/// so ties keep ascending-id order), then the whole accepted set is
/// ordered score-descending and truncated to `k`. Shared by
/// [`ScatterGate::finalize`] and [`rank_full_scores`] — the merge
/// tie-breaking rule exists exactly once.
fn finalize_ranked(
    accepted: &mut Vec<RankedCandidate>,
    current_scores: &[(usize, f32)],
    terminated: bool,
    k: usize,
    depth: usize,
) {
    if !terminated {
        let mut survivors = current_scores.to_vec();
        survivors.sort_by(|a, b| b.1.total_cmp(&a.1));
        let slots = k - accepted.len();
        for &(id, score) in survivors.iter().take(slots) {
            accepted.push(RankedCandidate {
                id,
                score,
                decided_at_layer: depth,
            });
        }
    }
    accepted.sort_by(|a, b| b.score.total_cmp(&a.score));
    accepted.truncate(k);
}

/// Ranks a complete full-depth score vector into the top-`k` — the
/// pruning-off selection rule as a standalone function: candidates sort
/// by score descending with ties keeping ascending-id order, take `k`,
/// every winner decided at `depth` (a full-depth run decides everyone at
/// the final layer, so callers pass the model's layer count).
///
/// This is [`ScatterGate::finalize`]'s ranking with an empty accepted
/// set, exported so the serving layer's semantic result cache
/// (`prism-semcache`) can merge replayed and recomputed per-candidate
/// scores and rank them *through the same code path* a pruning-off
/// engine run uses — the bit-identity contract of
/// `SemCacheMode::VerifyAndFallback` rests on this being the one ranking
/// rule.
pub fn rank_full_scores(scores: &[f32], k: usize, depth: usize) -> Vec<RankedCandidate> {
    let indexed: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    let mut accepted = Vec::new();
    finalize_ranked(&mut accepted, &indexed, false, k.min(scores.len()), depth);
    accepted
}

/// Merges per-shard `(global_id, score)` lists into one ascending-id
/// vector. Each shard's list is already ascending (shard-local order is a
/// subsequence of the global order), so this is a k-way merge.
pub fn merge_shard_scores(per_shard: &[Vec<(usize, f32)>]) -> Vec<(usize, f32)> {
    let total: usize = per_shard.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    for scores in per_shard {
        merged.extend_from_slice(scores);
    }
    merged.sort_by_key(|&(id, _)| id);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> (EngineOptions, RequestOptions) {
        (EngineOptions::default(), RequestOptions::tagged(2, 7))
    }

    #[test]
    fn rejects_degenerate_requests() {
        let (eo, ro) = opts();
        assert!(ScatterGate::new(&eo, &ro, 0, 6, 7).is_err());
        let mut zero_k = ro.clone();
        zero_k.k = 0;
        assert!(ScatterGate::new(&eo, &zero_k, 4, 6, 7).is_err());
        let g = ScatterGate::new(&eo, &ro, 4, 6, 7).unwrap();
        assert_eq!(g.k(), 2);
        assert_eq!(g.num_candidates(), 4);
    }

    #[test]
    fn k_clamps_to_candidate_count() {
        let (eo, mut ro) = opts();
        ro.k = 10;
        let g = ScatterGate::new(&eo, &ro, 3, 6, 7).unwrap();
        assert_eq!(g.k(), 3);
    }

    #[test]
    fn no_pruning_finalize_ranks_by_score_then_id() {
        let (eo, mut ro) = opts();
        ro.pruning = Some(false);
        ro.k = 3;
        let mut g = ScatterGate::new(&eo, &ro, 4, 2, 7).unwrap();
        g.seed_probe(vec![(0, 0.1), (1, 0.9), (2, 0.9), (3, 0.4)]);
        for l in 0..2 {
            let step = g.gate(l);
            assert!(step.keep.is_none() && !step.done);
            g.observe_layer(vec![(0, 0.1), (1, 0.9), (2, 0.9), (3, 0.4)]);
        }
        let sel = g.finalize();
        // Tied scores keep ascending-id order (stable sort).
        assert_eq!(sel.top_ids(), vec![1, 2, 3]);
        assert_eq!(sel.last_scores, vec![0.1, 0.9, 0.9, 0.4]);
        assert!(
            sel.ranked.iter().all(|r| r.decided_at_layer == 2),
            "{:?}",
            sel.ranked
        );
    }

    #[test]
    fn removing_lost_candidates_tracks_coverage() {
        let (eo, mut ro) = opts();
        ro.pruning = Some(false);
        ro.k = 2;
        let mut g = ScatterGate::new(&eo, &ro, 4, 2, 7).unwrap();
        g.seed_probe(vec![(0, 0.1), (1, 0.9), (2, 0.8), (3, 0.4)]);
        assert_eq!(g.coverage(), 1.0);
        // Losing candidate 3 (plus an out-of-range id, ignored) leaves
        // three survivors and 75% coverage.
        assert_eq!(g.remove_candidates(&[3, 99]), 1);
        assert!(!g.is_done());
        // Removing an already-lost candidate is a no-op.
        assert_eq!(g.remove_candidates(&[3]), 0);
        for l in 0..2 {
            let step = g.gate(l);
            assert!(step.keep.is_none() && !step.done);
            g.observe_layer(vec![(0, 0.1), (1, 0.9), (2, 0.8)]);
        }
        let sel = g.finalize();
        assert_eq!(sel.top_ids(), vec![1, 2]);
        assert_eq!(sel.coverage, 0.75);
        assert!(!sel.is_complete());
    }

    #[test]
    fn pre_seed_losses_count_toward_coverage() {
        // A shard dead at planning time loses candidates before the probe
        // seeds the score vector; coverage must still account for them.
        let (eo, mut ro) = opts();
        ro.pruning = Some(false);
        let mut g = ScatterGate::new(&eo, &ro, 4, 2, 7).unwrap();
        assert!(g.is_active(0) && g.is_active(3), "all active pre-seed");
        assert_eq!(g.remove_candidates(&[3]), 1);
        assert!(!g.is_active(3));
        assert!(!g.is_done(), "survivors remain");
        g.seed_probe(vec![(0, 0.1), (1, 0.9), (2, 0.8)]);
        for l in 0..2 {
            let _ = g.gate(l);
            g.observe_layer(vec![(0, 0.1), (1, 0.9), (2, 0.8)]);
        }
        assert_eq!(g.coverage(), 0.75);
        assert_eq!(g.finalize().coverage, 0.75);
    }

    #[test]
    fn losing_every_candidate_terminates() {
        let (eo, mut ro) = opts();
        ro.pruning = Some(false);
        let mut g = ScatterGate::new(&eo, &ro, 2, 2, 7).unwrap();
        g.seed_probe(vec![(0, 0.1), (1, 0.9)]);
        assert_eq!(g.remove_candidates(&[0, 1]), 2);
        assert!(g.is_done());
        assert_eq!(g.finalize().coverage, 0.0);
    }

    #[test]
    fn merge_is_ascending_by_global_id() {
        let merged = merge_shard_scores(&[
            vec![(1, 0.5), (4, 0.2)],
            vec![(0, 0.9), (2, 0.1)],
            vec![(3, 0.7)],
        ]);
        assert_eq!(
            merged,
            vec![(0, 0.9), (1, 0.5), (2, 0.1), (3, 0.7), (4, 0.2)]
        );
    }
}
