//! Score-level selection state: the one owner of the pruning gate's
//! bookkeeping.
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
//! at once. Each layer boundary the engine hands the gate every active
//! candidate's `(id, score)` pair in ascending-id order (the order its
//! chunks score in), [`ScatterGate::gate`] routes with the seed
//! `engine.seed ^ layer ^ tag`, and the keep-mask it returns is the only
//! thing that drives the physical retention of hidden states. The gate
//! sees the same score vector whatever the chunk geometry or residency
//! window, so a selection is bit-identical across physical layouts.

use crate::control::ProgressUpdate;
use crate::engine::{EngineTrace, RankedCandidate, RequestOptions, RouteEvent, Selection};
use crate::options::{EngineOptions, PruneMode};
use crate::routing::route_candidates;

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
/// [`crate::ActiveRequest`] embeds one next to its physical state.
pub(crate) struct ScatterGate {
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
}

impl ScatterGate {
    /// Builds the selection state for a request of `n` candidates, which
    /// must pass [`RequestOptions::validate`].
    ///
    /// `engine` holds the engine-level gate defaults the request's
    /// options override; `tag` is the resolved routing tag, since the
    /// gate seed is `engine.seed ^ layer ^ tag`.
    pub fn new(
        engine: &EngineOptions,
        options: &RequestOptions,
        n: usize,
        num_layers: usize,
        tag: u64,
    ) -> Self {
        ScatterGate {
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
        }
    }

    /// Whether the selection is decided (no more layers needed).
    pub fn is_done(&self) -> bool {
        self.terminated
    }

    /// Seeds the post-embedding probe scores, ascending by candidate id.
    pub fn seed_probe(&mut self, scores: Vec<(usize, f32)>) {
        self.record_scores(scores);
    }

    /// Records the scores after one forwarded layer, ascending by
    /// candidate id.
    pub fn observe_layer(&mut self, scores: Vec<(usize, f32)>) {
        self.trace.executed_layers += 1;
        self.record_scores(scores);
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
    /// per-layer active count. May terminate the selection. Returns the
    /// keep-mask over candidate ids when the gate pruned anyone; it drives
    /// the physical retention of hidden states via
    /// `PrismEngine::apply_keep_mask`.
    pub fn gate(&mut self, layer_idx: usize) -> Option<Vec<bool>> {
        if self.terminated {
            return None;
        }
        let (keep, terminate) = self.route(layer_idx);
        if terminate || self.current.is_empty() {
            self.terminated = true;
        } else {
            self.trace.active_per_layer.push(self.current.len());
        }
        keep
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
/// This is the engine's own final ranking (the gate's `finalize`) with
/// an empty accepted set, exported so the serving layer's semantic result cache
/// (`prism-semcache`) can merge replayed and recomputed per-candidate
/// scores and rank them *through the same code path* a pruning-off
/// engine run uses — the semantic cache's bit-identity contract
/// (`SemCacheMode::On` answers exactly as `Off` does) rests on this
/// being the one ranking rule.
pub fn rank_full_scores(scores: &[f32], k: usize, depth: usize) -> Vec<RankedCandidate> {
    let indexed: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    let mut accepted = Vec::new();
    finalize_ranked(&mut accepted, &indexed, false, k.min(scores.len()), depth);
    accepted
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
        assert!(ro.validate(0).is_err());
        let mut zero_k = ro.clone();
        zero_k.k = 0;
        assert!(zero_k.validate(4).is_err());
        ro.validate(4).unwrap();
        let g = ScatterGate::new(&eo, &ro, 4, 6, 7);
        assert_eq!(g.k, 2);
        assert_eq!(g.n, 4);
    }

    #[test]
    fn k_clamps_to_candidate_count() {
        let (eo, mut ro) = opts();
        ro.k = 10;
        let g = ScatterGate::new(&eo, &ro, 3, 6, 7);
        assert_eq!(g.k, 3);
    }

    #[test]
    fn no_pruning_finalize_ranks_by_score_then_id() {
        let (eo, mut ro) = opts();
        ro.pruning = Some(false);
        ro.k = 3;
        let mut g = ScatterGate::new(&eo, &ro, 4, 2, 7);
        g.seed_probe(vec![(0, 0.1), (1, 0.9), (2, 0.9), (3, 0.4)]);
        for l in 0..2 {
            assert!(g.gate(l).is_none() && !g.is_done());
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
}
