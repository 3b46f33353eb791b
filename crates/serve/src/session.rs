//! Per-session LRU cache of candidate embeddings and whole selections.
//!
//! Motivated by SMTM-style semantic-memory serving: agents and RAG
//! pipelines re-rank the *same* candidate corpus many times (per step /
//! per query). Embedding a batch is a pure function of its token content,
//! and a selection is a pure function of `(content, k, tag, routing
//! overrides)` — so both can be replayed bit-identically. The cache keeps
//! one corpus per session: the embedded hidden states (always reusable)
//! plus a small memo of finished [`Selection`]s for exact repeats.

use std::collections::HashMap;

use prism_core::{
    ComputePrecision, PruneMode, RequestOptions, Selection, SemCacheMode, SpillPrecision,
};
use prism_model::SequenceBatch;
use prism_semcache::hash::{fnv1a, FNV_OFFSET};
use prism_tensor::{LruIndex, Tensor};

/// FNV-1a over the packed tokens and sequence ranges: the identity of a
/// candidate corpus for caching purposes.
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

/// Everything besides the corpus content that a selection result depends
/// on — the memo key next to a content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectionKey {
    k: usize,
    tag: Option<u64>,
    threshold_bits: Option<u32>,
    mode: Option<u8>,
    pruning: Option<bool>,
    /// Spill precision changes scores under hidden offload, so int8 and
    /// f32 repeats must never replay each other's memoized selections.
    spill_int8: bool,
    /// Compute precision changes scores everywhere; same rule.
    compute_int8: bool,
    /// Semantic-cache exactness mode: `Aggressive` results may contain
    /// approximate (near-duplicate) replays, so they must never replay
    /// as memos for `Off`/`VerifyAndFallback` repeats (or vice versa).
    semcache: u8,
}

impl SelectionKey {
    /// Builds the memo key for one request's options.
    pub fn from_options(options: &RequestOptions) -> Self {
        SelectionKey {
            k: options.k,
            tag: options.tag,
            threshold_bits: options.dispersion_threshold.map(f32::to_bits),
            mode: options.mode.map(|m| match m {
                PruneMode::TopKOnly => 0,
                PruneMode::ExactOrder => 1,
            }),
            pruning: options.pruning,
            spill_int8: options.spill_precision == SpillPrecision::Int8,
            compute_int8: options.compute_precision == ComputePrecision::Int8,
            semcache: match options.semcache {
                SemCacheMode::Off => 0,
                SemCacheMode::VerifyAndFallback => 1,
                SemCacheMode::Aggressive => 2,
            },
        }
    }
}

/// Result of a cache probe.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Exact repeat: the finished selection, replayed.
    Selection(Box<Selection>),
    /// Same corpus, different parameters: the embedded hidden states.
    Embed(Tensor),
    /// Corpus unknown (or changed) for this session.
    Miss,
}

/// Selections memoized per session; repeats beyond this evict the oldest.
const MEMO_PER_SESSION: usize = 8;

struct SessionEntry {
    /// The owning session, so an evicted slot can leave the index.
    session: String,
    fingerprint: u64,
    /// The actual corpus, kept to verify hits: a 64-bit fingerprint
    /// alone could collide and silently replay the wrong corpus.
    corpus: SequenceBatch,
    embed: Option<Tensor>,
    selections: Vec<(SelectionKey, Selection)>,
}

/// LRU map from session name to its cached corpus state.
///
/// Not internally synchronized — the server wraps it in a `Mutex` and
/// holds the lock only around probes/stores, never during execution.
pub struct SessionCache {
    /// Up to `lru.capacity()` entries; a full cache reuses its LRU slot.
    slots: Vec<SessionEntry>,
    index: HashMap<String, usize>,
    lru: LruIndex,
}

impl SessionCache {
    /// Creates a cache holding at most `capacity` sessions.
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            slots: Vec::new(),
            index: HashMap::new(),
            lru: LruIndex::new(capacity.max(1)),
        }
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Probes the cache for `session` + request `key`, refreshing
    /// recency on a hit. The fingerprint gates cheaply; the stored
    /// corpus is then compared in full so a hash collision can never
    /// replay another corpus's results.
    pub fn lookup(
        &mut self,
        session: &str,
        fingerprint: u64,
        corpus: &SequenceBatch,
        key: &SelectionKey,
    ) -> CacheLookup {
        let Some(&slot) = self.index.get(session) else {
            return CacheLookup::Miss;
        };
        let entry = &self.slots[slot];
        if entry.fingerprint != fingerprint || entry.corpus != *corpus {
            return CacheLookup::Miss;
        }
        self.lru.touch(slot);
        if let Some((_, sel)) = entry.selections.iter().find(|(k, _)| k == key) {
            return CacheLookup::Selection(Box::new(sel.clone()));
        }
        match &entry.embed {
            Some(t) => CacheLookup::Embed(t.clone()),
            None => CacheLookup::Miss,
        }
    }

    /// Records the embedded hidden states of `session`'s current corpus.
    /// A new corpus resets the entry.
    pub fn store_embed(
        &mut self,
        session: &str,
        fingerprint: u64,
        corpus: &SequenceBatch,
        embed: Tensor,
    ) {
        self.entry(session, fingerprint, corpus).embed = Some(embed);
    }

    /// Memoizes a finished selection for exact-repeat replay.
    pub fn store_selection(
        &mut self,
        session: &str,
        fingerprint: u64,
        corpus: &SequenceBatch,
        key: SelectionKey,
        selection: &Selection,
    ) {
        let memo = &mut self.entry(session, fingerprint, corpus).selections;
        match memo.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = selection.clone(),
            None => {
                if memo.len() >= MEMO_PER_SESSION {
                    memo.remove(0);
                }
                memo.push((key, selection.clone()));
            }
        }
    }

    /// `session`'s entry with its recency refreshed: reset if its corpus
    /// changed, created if absent, evicting the least recently used
    /// session when the cache is full.
    fn entry(
        &mut self,
        session: &str,
        fingerprint: u64,
        corpus: &SequenceBatch,
    ) -> &mut SessionEntry {
        let slot = match self.index.get(session) {
            Some(&slot) => {
                self.lru.touch(slot);
                let entry = &mut self.slots[slot];
                if entry.fingerprint != fingerprint || entry.corpus != *corpus {
                    entry.fingerprint = fingerprint;
                    entry.corpus = corpus.clone();
                    entry.embed = None;
                    entry.selections.clear();
                }
                slot
            }
            None => {
                let fresh = SessionEntry {
                    session: session.to_owned(),
                    fingerprint,
                    corpus: corpus.clone(),
                    embed: None,
                    selections: Vec::new(),
                };
                let slot = if self.slots.len() < self.lru.capacity() {
                    self.slots.push(fresh);
                    self.slots.len() - 1
                } else {
                    let victim = self.lru.pop_lru().expect("a full cache has a victim");
                    self.index.remove(&self.slots[victim].session);
                    self.slots[victim] = fresh;
                    victim
                };
                self.index.insert(session.to_owned(), slot);
                self.lru.push_front(slot);
                slot
            }
        };
        &mut self.slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(tokens: &[u32]) -> SequenceBatch {
        SequenceBatch::new(&[tokens.to_vec()]).unwrap()
    }

    fn key(k: usize, tag: u64) -> SelectionKey {
        SelectionKey::from_options(&RequestOptions::tagged(k, tag))
    }

    fn selection(score: f32) -> Selection {
        Selection {
            ranked: vec![prism_core::RankedCandidate {
                id: 0,
                score,
                decided_at_layer: 1,
            }],
            last_scores: vec![score],
            trace: Default::default(),
        }
    }

    #[test]
    fn fingerprint_separates_content_and_shape() {
        let a = fingerprint_batch(&SequenceBatch::new(&[vec![1, 2], vec![3]]).unwrap());
        let b = fingerprint_batch(&SequenceBatch::new(&[vec![1], vec![2, 3]]).unwrap());
        let c = fingerprint_batch(&SequenceBatch::new(&[vec![1, 2], vec![3]]).unwrap());
        assert_ne!(a, b, "same tokens, different packing must differ");
        assert_eq!(a, c, "identical batches must agree");
        assert_ne!(a, fingerprint_batch(&batch(&[1, 2, 4])));
        // Session-cache keys must survive refactors of the hash plumbing:
        // values computed before FNV-1a moved into `prism-semcache`.
        assert_eq!(a, 0xd9d8_2733_f690_48e4);
        assert_eq!(fingerprint_batch(&batch(&[1, 2, 4])), 0x271f_1182_a242_dc40);
    }

    #[test]
    fn selection_key_distinguishes_options() {
        assert_ne!(key(2, 1), key(2, 2));
        assert_ne!(key(2, 1), key(3, 1));
        let mut o = RequestOptions::tagged(2, 1);
        o.dispersion_threshold = Some(0.3);
        assert_ne!(SelectionKey::from_options(&o), key(2, 1));
        let f32_spill = RequestOptions::tagged(2, 1).with_spill_precision(SpillPrecision::F32);
        assert_ne!(SelectionKey::from_options(&f32_spill), key(2, 1));
        let int8_compute =
            RequestOptions::tagged(2, 1).with_compute_precision(ComputePrecision::Int8);
        assert_ne!(
            SelectionKey::from_options(&int8_compute),
            key(2, 1),
            "int8-compute scores must not replay f32 memos"
        );
        let aggressive = RequestOptions::tagged(2, 1).with_semcache(SemCacheMode::Aggressive);
        assert_ne!(
            SelectionKey::from_options(&aggressive),
            key(2, 1),
            "aggressive semcache results must not replay as exact memos"
        );
    }

    #[test]
    fn embed_then_selection_hit_progression() {
        let mut cache = SessionCache::new(4);
        let b = batch(&[1, 2, 3]);
        let fp = fingerprint_batch(&b);
        assert!(matches!(
            cache.lookup("s", fp, &b, &key(2, 1)),
            CacheLookup::Miss
        ));
        cache.store_embed("s", fp, &b, Tensor::zeros(3, 2));
        match cache.lookup("s", fp, &b, &key(2, 1)) {
            CacheLookup::Embed(t) => assert_eq!(t.rows(), 3),
            other => panic!("expected embed hit, got {other:?}"),
        }
        cache.store_selection("s", fp, &b, key(2, 1), &selection(0.5));
        match cache.lookup("s", fp, &b, &key(2, 1)) {
            CacheLookup::Selection(sel) => assert_eq!(sel.ranked[0].score, 0.5),
            other => panic!("expected selection hit, got {other:?}"),
        }
        // Different options on the same corpus still reuse the embedding.
        assert!(matches!(
            cache.lookup("s", fp, &b, &key(2, 2)),
            CacheLookup::Embed(_)
        ));
    }

    #[test]
    fn fingerprint_collision_is_caught_by_corpus_compare() {
        let mut cache = SessionCache::new(4);
        let b = batch(&[1, 2, 3]);
        let fp = fingerprint_batch(&b);
        cache.store_embed("s", fp, &b, Tensor::zeros(3, 2));
        // A colliding fingerprint with different content must MISS.
        let imposter = batch(&[9, 9, 9]);
        assert!(matches!(
            cache.lookup("s", fp, &imposter, &key(2, 1)),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn corpus_change_invalidates_session() {
        let mut cache = SessionCache::new(4);
        let b1 = batch(&[1, 2]);
        let b2 = batch(&[3, 4]);
        let (fp1, fp2) = (fingerprint_batch(&b1), fingerprint_batch(&b2));
        cache.store_embed("s", fp1, &b1, Tensor::zeros(2, 2));
        cache.store_selection("s", fp1, &b1, key(1, 1), &selection(0.1));
        cache.store_embed("s", fp2, &b2, Tensor::zeros(2, 2));
        assert!(matches!(
            cache.lookup("s", fp1, &b1, &key(1, 1)),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup("s", fp2, &b2, &key(1, 1)),
            CacheLookup::Embed(_)
        ));
    }

    #[test]
    fn lru_evicts_least_recently_used_session() {
        let mut cache = SessionCache::new(2);
        let (ba, bb, bc) = (batch(&[1]), batch(&[2]), batch(&[3]));
        cache.store_embed("a", 1, &ba, Tensor::zeros(1, 1));
        cache.store_embed("b", 2, &bb, Tensor::zeros(1, 1));
        // Touch "a" so "b" is the eviction victim.
        let _ = cache.lookup("a", 1, &ba, &key(1, 1));
        cache.store_embed("c", 3, &bc, Tensor::zeros(1, 1));
        assert_eq!(cache.len(), 2);
        assert!(matches!(
            cache.lookup("b", 2, &bb, &key(1, 1)),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup("a", 1, &ba, &key(1, 1)),
            CacheLookup::Embed(_)
        ));
        // A lookup that misses on a changed corpus does not refresh
        // recency: "c" stays the victim.
        assert!(matches!(
            cache.lookup("c", 9, &bb, &key(1, 1)),
            CacheLookup::Miss
        ));
        cache.store_embed("b", 2, &bb, Tensor::zeros(1, 1));
        assert!(matches!(
            cache.lookup("c", 3, &bc, &key(1, 1)),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup("a", 1, &ba, &key(1, 1)),
            CacheLookup::Embed(_)
        ));

        // A seeded sequence over more sessions than capacity, checked
        // step by step against a recency list (most recent first) of
        // (session, corpus, has_embed, memoized tags).
        const CAPACITY: usize = 3;
        let mut cache = SessionCache::new(CAPACITY);
        let mut model: Vec<(String, u32, bool, Vec<u64>)> = Vec::new();
        let mut x = 0x5eed_u64;
        let mut draw = |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for step in 0..200 {
            let (op, session, tag) = (draw(3), draw(6), draw(3));
            let corpus = (session * 10 + draw(2)) as u32;
            let name = format!("s{session}");
            let b = batch(&[corpus]);
            let fp = fingerprint_batch(&b);
            let at = model.iter().position(|e| e.0 == name);
            if op == 0 {
                let got = cache.lookup(name.as_str(), fp, &b, &key(1, tag));
                let want = match at {
                    Some(i) if model[i].1 == corpus => {
                        let e = model.remove(i);
                        let want = if e.3.contains(&tag) {
                            "selection"
                        } else if e.2 {
                            "embed"
                        } else {
                            "miss"
                        };
                        model.insert(0, e);
                        want
                    }
                    _ => "miss",
                };
                match got {
                    CacheLookup::Selection(sel) => {
                        assert_eq!(want, "selection", "step {step}");
                        assert_eq!(sel.ranked[0].score, tag as f32, "step {step}");
                    }
                    CacheLookup::Embed(t) => {
                        assert_eq!(want, "embed", "step {step}");
                        assert_eq!(t.rows(), corpus as usize + 1, "step {step}");
                    }
                    CacheLookup::Miss => assert_eq!(want, "miss", "step {step}"),
                }
            } else {
                let mut e = match at {
                    Some(i) => model.remove(i),
                    None => {
                        if model.len() == CAPACITY {
                            model.pop();
                        }
                        (name.clone(), corpus, false, Vec::new())
                    }
                };
                if e.1 != corpus {
                    e = (name.clone(), corpus, false, Vec::new());
                }
                if op == 1 {
                    let embed = Tensor::zeros(corpus as usize + 1, 1);
                    cache.store_embed(name.as_str(), fp, &b, embed);
                    e.2 = true;
                } else {
                    cache.store_selection(
                        name.as_str(),
                        fp,
                        &b,
                        key(1, tag),
                        &selection(tag as f32),
                    );
                    if !e.3.contains(&tag) {
                        e.3.push(tag);
                    }
                }
                model.insert(0, e);
            }
            assert_eq!(cache.len(), model.len(), "step {step}");
        }
    }

    #[test]
    fn memo_is_bounded_per_session() {
        let mut cache = SessionCache::new(2);
        let b = batch(&[5, 6]);
        for tag in 0..20_u64 {
            cache.store_selection("s", 9, &b, key(1, tag), &selection(tag as f32));
        }
        // Oldest memos evicted; the most recent still hits.
        assert!(matches!(
            cache.lookup("s", 9, &b, &key(1, 19)),
            CacheLookup::Selection(_)
        ));
        assert!(!matches!(
            cache.lookup("s", 9, &b, &key(1, 0)),
            CacheLookup::Selection(_)
        ));
    }
}
