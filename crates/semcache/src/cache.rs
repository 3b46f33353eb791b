//! The semantic cache proper: exact-tier fingerprint map, similarity
//! tier over LSH buckets with K-Means summaries, and the LRU +
//! byte-budget bounded store.
//!
//! # Determinism
//!
//! Every observable behavior — probe results, eviction order, summary
//! refresh points — is a pure function of the configuration seed and
//! the call sequence. Hash maps are used only for point lookups, never
//! for iteration-order-dependent decisions; eviction takes the tail of a
//! [`LruIndex`] over the entry slab.
//!
//! # Sound bucket rejection
//!
//! Each bucket periodically summarizes its members with a small
//! d-dimensional K-Means ([`prism_cluster::kmeans()`]), recording for
//! every centroid the maximum *angle* to any assigned member. A probe
//! can then skip the whole bucket when even the most favorable member
//! could not clear the similarity threshold: by the angular triangle
//! inequality, `angle(probe, member) >= angle(probe, centroid) -
//! max_member_angle(centroid)`, so if that lower bound exceeds
//! `acos(threshold)` for every centroid, no member can match. The
//! summary only covers members present at refresh time, so rejection is
//! disabled (`stale`) whenever membership changed since — rejection
//! therefore never hides a member a full scan would have matched, which
//! `semcache_props.rs` pins property-style.

use std::collections::{HashMap, HashSet};

use prism_cluster::kmeans;
use prism_tensor::LruIndex;

use crate::lsh::{cosine, Hyperplanes};
use crate::store::Entry;
use crate::{fingerprint, SemCacheConfig};

/// Buckets smaller than this are always scanned directly — a K-Means
/// summary of a handful of vectors costs more than it saves.
const MIN_SUMMARY_MEMBERS: usize = 8;
/// A bucket's summary is rebuilt after this many inserts since the last
/// refresh (evictions only mark it stale).
const REFRESH_EVERY_INSERTS: usize = 4;
/// Centroids per bucket summary (clamped to the member count).
const SUMMARY_CENTROIDS: usize = 4;

/// Outcome of a cache probe.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// A token-identical candidate under the same precision profile;
    /// its replayed score is bit-identical to recomputation.
    ExactHit {
        /// The cached full-depth score.
        score: f32,
        /// Exact-tier key of the matched entry (verification sampling).
        fingerprint: u64,
        /// LSH bucket of the matched entry (poison target).
        signature: u64,
    },
    /// A near-duplicate whose pooled-embedding cosine cleared the
    /// threshold; replay is approximate by design.
    SimilarHit {
        /// The cached full-depth score of the *matched* candidate.
        score: f32,
        /// Cosine similarity between probe and matched vectors.
        similarity: f32,
        /// Exact-tier key of the matched entry (verification sampling).
        fingerprint: u64,
        /// LSH bucket of the matched entry (poison target).
        signature: u64,
    },
    /// Nothing reusable.
    Miss,
}

impl Probe {
    /// The replayable score, if any.
    pub fn score(&self) -> Option<f32> {
        match self {
            Probe::ExactHit { score, .. } | Probe::SimilarHit { score, .. } => Some(*score),
            Probe::Miss => None,
        }
    }

    /// Whether the probe found anything.
    pub fn is_hit(&self) -> bool {
        !matches!(self, Probe::Miss)
    }
}

/// Monotonic counters describing cache behavior since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemCacheStats {
    /// Probes answered by the exact tier.
    pub exact_hits: u64,
    /// Probes answered by the similarity tier.
    pub similar_hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries evicted by the LRU byte budget.
    pub evictions: u64,
    /// Insert attempts refused (poisoned bucket, oversized entry, or
    /// already present).
    pub rejected_inserts: u64,
    /// LSH buckets disabled by verification mismatches.
    pub poisoned_buckets: u64,
}

/// Per-centroid data of a bucket summary.
struct CentroidBound {
    /// Flat centroid vector (`dim` components).
    centroid: Vec<f32>,
    /// Maximum angle (radians) from the centroid to any member assigned
    /// to it at refresh time.
    max_angle: f32,
}

/// A bucket's K-Means summary for sound fast rejection.
struct Summary {
    bounds: Vec<CentroidBound>,
}

/// One LSH bucket: member slots in insertion order plus the summary.
#[derive(Default)]
struct Bucket {
    /// Slot ids in insertion order (scan order — deterministic).
    members: Vec<usize>,
    summary: Option<Summary>,
    /// Membership changed since the summary was built; rejection is
    /// disabled until the next refresh.
    stale: bool,
    inserts_since_refresh: usize,
}

/// The similarity-keyed cross-request activation cache. See the crate
/// docs for the tier structure and [`Probe`] for outcomes.
pub struct SemanticCache {
    config: SemCacheConfig,
    planes: Hyperplanes,
    /// Slab of entries; `None` slots are on the free list.
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// fingerprint -> slot (exact tier).
    exact: HashMap<u64, usize>,
    /// Recency over the slab's slots; only live slots are attached.
    lru: LruIndex,
    /// signature -> bucket (similarity tier).
    buckets: HashMap<u64, Bucket>,
    poisoned: HashSet<u64>,
    bytes: u64,
    stats: SemCacheStats,
}

impl SemanticCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    /// If the configuration fails [`SemCacheConfig::validate`].
    pub fn new(config: SemCacheConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid semcache config: {e}");
        }
        let planes = Hyperplanes::new(config.lsh_bits, config.dim, config.seed);
        SemanticCache {
            config,
            planes,
            slots: Vec::new(),
            free: Vec::new(),
            exact: HashMap::new(),
            lru: LruIndex::new(0),
            buckets: HashMap::new(),
            poisoned: HashSet::new(),
            bytes: 0,
            stats: SemCacheStats::default(),
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &SemCacheConfig {
        &self.config
    }

    /// Currently metered bytes (payload + per-entry overhead).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SemCacheStats {
        self.stats
    }

    /// The LSH signature `pooled` would bucket under (exposed so the
    /// serving layer can log/poison without re-deriving planes).
    pub fn signature(&self, pooled: &[f32]) -> u64 {
        self.planes.signature(pooled)
    }

    /// Looks up a candidate. The exact tier (token-identical under the
    /// same precision `profile`) is always consulted; the similarity
    /// tier additionally runs when `allow_similar` is set **and** a
    /// pooled embedding vector is supplied. Hits refresh LRU recency.
    pub fn probe(
        &mut self,
        tokens: &[u32],
        profile: u8,
        pooled: Option<&[f32]>,
        allow_similar: bool,
    ) -> Probe {
        let fp = fingerprint(tokens, profile);
        if let Some(&slot) = self.exact.get(&fp) {
            let entry = self.slots[slot]
                .as_ref()
                .expect("exact map points at live slot");
            if entry.tokens == tokens && entry.profile == profile {
                let (score, signature) = (entry.score, entry.signature);
                self.lru.touch(slot);
                self.stats.exact_hits += 1;
                return Probe::ExactHit {
                    score,
                    fingerprint: fp,
                    signature,
                };
            }
            // Fingerprint collision: fall through to the similarity tier
            // rather than replaying a different candidate's score.
        }
        if allow_similar {
            if let Some(pooled) = pooled {
                if let Some(hit) = self.probe_similar(pooled) {
                    self.stats.similar_hits += 1;
                    return hit;
                }
            }
        }
        self.stats.misses += 1;
        Probe::Miss
    }

    /// Similarity-tier lookup: bucket by signature, reject via summary
    /// bounds when possible, otherwise scan members in insertion order
    /// for the best cosine above the threshold (ties keep the earliest
    /// member — deterministic).
    fn probe_similar(&mut self, pooled: &[f32]) -> Option<Probe> {
        let sig = self.planes.signature(pooled);
        if self.poisoned.contains(&sig) {
            return None;
        }
        let bucket = self.buckets.get(&sig)?;
        let threshold = self.config.similarity_threshold;
        if let (Some(summary), false) = (&bucket.summary, bucket.stale) {
            let limit = threshold.clamp(-1.0, 1.0).acos();
            let rejected = summary.bounds.iter().all(|b| {
                let angle = cosine(pooled, &b.centroid).clamp(-1.0, 1.0).acos();
                angle - b.max_angle > limit
            });
            if rejected {
                return None;
            }
        }
        let mut best: Option<(f32, usize)> = None;
        for &slot in &bucket.members {
            let entry = self.slots[slot].as_ref().expect("bucket member is live");
            let sim = cosine(pooled, &entry.decode_vector());
            if sim >= threshold && best.is_none_or(|(b, _)| sim > b) {
                best = Some((sim, slot));
            }
        }
        let (similarity, slot) = best?;
        let entry = self.slots[slot].as_ref().expect("matched member is live");
        let probe = Probe::SimilarHit {
            score: entry.score,
            similarity,
            fingerprint: entry.fingerprint,
            signature: entry.signature,
        };
        self.lru.touch(slot);
        Some(probe)
    }

    /// Stores a candidate's full-depth result. Returns whether the entry
    /// was admitted: refused when its LSH bucket is poisoned, when the
    /// entry alone exceeds the byte budget, or when a token-identical
    /// entry is already cached (that entry's recency is refreshed
    /// instead). Admission may evict least-recently-used entries until
    /// the budget holds.
    pub fn insert(&mut self, tokens: &[u32], profile: u8, pooled: &[f32], score: f32) -> bool {
        assert_eq!(pooled.len(), self.config.dim, "pooled vector has wrong dim");
        let fp = fingerprint(tokens, profile);
        if let Some(&slot) = self.exact.get(&fp) {
            let entry = self.slots[slot]
                .as_ref()
                .expect("exact map points at live slot");
            if entry.tokens == tokens && entry.profile == profile {
                self.lru.touch(slot);
                self.stats.rejected_inserts += 1;
                return false;
            }
            // Collision with a different candidate: keep the incumbent
            // (exact tier can hold one entry per fingerprint; the new
            // candidate stays un-cached rather than evicting a provably
            // correct entry for an ambiguous key).
            self.stats.rejected_inserts += 1;
            return false;
        }
        let sig = self.planes.signature(pooled);
        if self.poisoned.contains(&sig) {
            self.stats.rejected_inserts += 1;
            return false;
        }
        let entry = Entry::new(fp, tokens.to_vec(), profile, score, pooled, sig);
        let need = entry.bytes();
        if need > self.config.capacity_bytes {
            self.stats.rejected_inserts += 1;
            return false;
        }
        while self.bytes + need > self.config.capacity_bytes {
            let slot = self.lru.lru().expect("over budget implies entries");
            self.remove_slot(slot);
            self.stats.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(entry);
                s
            }
            None => {
                self.slots.push(Some(entry));
                self.lru.push_detached()
            }
        };
        self.exact.insert(fp, slot);
        self.lru.push_front(slot);
        self.bytes += need;
        let bucket = self.buckets.entry(sig).or_default();
        bucket.members.push(slot);
        bucket.stale = true;
        bucket.inserts_since_refresh += 1;
        self.maybe_refresh(sig);
        self.stats.insertions += 1;
        true
    }

    /// Disables an LSH bucket after a verification mismatch: its entries
    /// are dropped (bytes released) and neither tier will serve or admit
    /// anything bucketed there again.
    pub fn poison(&mut self, signature: u64) {
        if !self.poisoned.insert(signature) {
            return;
        }
        self.stats.poisoned_buckets = self.poisoned.len() as u64;
        if let Some(bucket) = self.buckets.get(&signature) {
            // remove_slot edits the bucket's member list; snapshot first.
            let members = bucket.members.clone();
            for slot in members {
                self.remove_slot(slot);
            }
        }
        self.buckets.remove(&signature);
    }

    /// Drops every entry and poisoned-bucket marker; counters persist.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.exact.clear();
        self.lru = LruIndex::new(0);
        self.buckets.clear();
        self.poisoned.clear();
        self.bytes = 0;
    }

    /// Recomputes the byte meter and cross-checks every index against
    /// the slab, returning the recomputed byte count. Any inconsistency
    /// — a leaked or phantom byte, a dangling slot reference, an LRU
    /// entry without a slot — is an error. Leak audits (cancellation,
    /// drained soaks) call this after draining.
    pub fn audit(&self) -> Result<u64, String> {
        let mut recomputed = 0u64;
        let mut live = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(e) = slot {
                recomputed += e.bytes();
                live.push(i);
                if self.exact.get(&e.fingerprint) != Some(&i) {
                    return Err(format!("slot {i} missing from exact map"));
                }
                let bucket = self
                    .buckets
                    .get(&e.signature)
                    .ok_or_else(|| format!("slot {i} bucket {:x} missing", e.signature))?;
                if !bucket.members.contains(&i) {
                    return Err(format!("slot {i} not a member of its bucket"));
                }
            }
        }
        let mut ordered: Vec<usize> = self.lru.iter_mru().collect();
        ordered.sort_unstable();
        if ordered != live {
            return Err(format!("LRU order {ordered:?} vs live slots {live:?}"));
        }
        if recomputed != self.bytes {
            return Err(format!(
                "byte meter drift: metered {} vs recomputed {recomputed}",
                self.bytes
            ));
        }
        let live = live.len();
        if live != self.exact.len() {
            return Err(format!(
                "index cardinality drift: {live} live vs {} exact",
                self.exact.len()
            ));
        }
        let member_total: usize = self.buckets.values().map(|b| b.members.len()).sum();
        if member_total != live {
            return Err(format!(
                "bucket membership drift: {member_total} members vs {live} live"
            ));
        }
        Ok(recomputed)
    }

    /// Removes one slot from every index and releases its bytes.
    fn remove_slot(&mut self, slot: usize) {
        let entry = self.slots[slot].take().expect("remove of live slot");
        self.bytes -= entry.bytes();
        self.exact.remove(&entry.fingerprint);
        self.lru.detach(slot);
        let mut now_empty = false;
        if let Some(bucket) = self.buckets.get_mut(&entry.signature) {
            bucket.members.retain(|&s| s != slot);
            bucket.stale = true;
            now_empty = bucket.members.is_empty();
        }
        if now_empty {
            self.buckets.remove(&entry.signature);
        }
        self.free.push(slot);
    }

    /// Rebuilds a bucket's K-Means summary when it has grown enough
    /// since the last refresh. The summary covers the bucket's *current*
    /// members, so rejection becomes sound (`stale = false`) until the
    /// next membership change.
    fn maybe_refresh(&mut self, signature: u64) {
        let dim = self.config.dim;
        let seed = self.config.seed ^ signature;
        let Some(bucket) = self.buckets.get(&signature) else {
            return;
        };
        if bucket.members.len() < MIN_SUMMARY_MEMBERS
            || bucket.inserts_since_refresh < REFRESH_EVERY_INSERTS
        {
            return;
        }
        let members = bucket.members.clone();
        let mut points = Vec::with_capacity(members.len() * dim);
        for &slot in &members {
            let entry = self.slots[slot].as_ref().expect("bucket member is live");
            points.extend_from_slice(&entry.decode_vector());
        }
        let k = SUMMARY_CENTROIDS.min(members.len());
        let clustering = kmeans(&points, dim, k, seed);
        let mut bounds: Vec<CentroidBound> = (0..clustering.k())
            .map(|c| CentroidBound {
                centroid: clustering.centroid(c).to_vec(),
                max_angle: 0.0,
            })
            .collect();
        for (m, &c) in clustering.assignments.iter().enumerate() {
            let point = &points[m * dim..(m + 1) * dim];
            let angle = cosine(point, &bounds[c].centroid).clamp(-1.0, 1.0).acos();
            if angle > bounds[c].max_angle {
                bounds[c].max_angle = angle;
            }
        }
        let bucket = self
            .buckets
            .get_mut(&signature)
            .expect("bucket still present");
        bucket.summary = Some(Summary { bounds });
        bucket.stale = false;
        bucket.inserts_since_refresh = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SemCacheConfig {
        SemCacheConfig {
            dim: 8,
            capacity_bytes: 16 << 10,
            lsh_bits: 8,
            similarity_threshold: 0.9,
            verify_fraction: 0.0,
            seed: 7,
        }
    }

    fn vec_for(i: u64) -> Vec<f32> {
        (0..8)
            .map(|d| ((i as f32 + 1.0) * (d as f32 + 1.0) * 0.37).sin())
            .collect()
    }

    #[test]
    fn exact_tier_round_trips_scores_bit_identically() {
        let mut c = SemanticCache::new(small_config());
        let pooled = vec_for(1);
        assert!(c.insert(&[1, 2, 3], 0, &pooled, 0.1 + 0.2));
        match c.probe(&[1, 2, 3], 0, None, false) {
            Probe::ExactHit { score, .. } => {
                assert_eq!(score.to_bits(), (0.1f32 + 0.2).to_bits());
            }
            other => panic!("expected exact hit, got {other:?}"),
        }
        // Different profile byte must miss.
        assert_eq!(c.probe(&[1, 2, 3], 1, None, false), Probe::Miss);
        // Different tokens must miss.
        assert_eq!(c.probe(&[1, 2, 4], 0, None, false), Probe::Miss);
        assert_eq!(c.stats().exact_hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn similarity_tier_matches_near_duplicates_only_when_allowed() {
        let mut c = SemanticCache::new(small_config());
        let pooled = vec_for(2);
        assert!(c.insert(&[10, 11], 0, &pooled, 0.75));
        let jittered: Vec<f32> = pooled.iter().map(|x| x * 1.0001).collect();
        // Scaled copy: cosine 1.0, same signature. Denied without the flag.
        assert_eq!(c.probe(&[99], 0, Some(&jittered), false), Probe::Miss);
        match c.probe(&[99], 0, Some(&jittered), true) {
            Probe::SimilarHit {
                score, similarity, ..
            } => {
                assert_eq!(score, 0.75);
                assert!(similarity > 0.99);
            }
            other => panic!("expected similar hit, got {other:?}"),
        }
    }

    #[test]
    fn eviction_respects_byte_budget_and_lru_order() {
        let mut config = small_config();
        // Room for roughly three entries (8-dim rowq ≈ 16B + tokens + 96B).
        config.capacity_bytes = 400;
        let mut c = SemanticCache::new(config);
        for i in 0..6u64 {
            assert!(c.insert(&[i as u32], 0, &vec_for(i), i as f32));
            assert!(c.bytes() <= 400, "budget exceeded at {i}: {}", c.bytes());
        }
        assert!(c.stats().evictions > 0);
        // The most recent insert always survives.
        assert!(c.probe(&[5], 0, None, false).is_hit());
        // The oldest un-touched entry is gone.
        assert!(!c.probe(&[0], 0, None, false).is_hit());
        c.audit().unwrap();
    }

    #[test]
    fn probe_touches_lru_recency() {
        let mut config = small_config();
        config.capacity_bytes = 400;
        let mut c = SemanticCache::new(config);
        for i in 0..3u64 {
            assert!(c.insert(&[i as u32], 0, &vec_for(i), 0.0));
        }
        // Touch entry 0 so entry 1 becomes the eviction victim.
        assert!(c.probe(&[0], 0, None, false).is_hit());
        for i in 10..14u64 {
            c.insert(&[i as u32], 0, &vec_for(i), 0.0);
        }
        assert!(!c.probe(&[1], 0, None, false).is_hit(), "1 was LRU");
        c.audit().unwrap();
    }

    #[test]
    fn poisoning_drops_the_bucket_and_refuses_reuse() {
        let mut c = SemanticCache::new(small_config());
        let pooled = vec_for(3);
        assert!(c.insert(&[7], 0, &pooled, 0.5));
        let sig = c.signature(&pooled);
        let before = c.bytes();
        assert!(before > 0);
        c.poison(sig);
        assert_eq!(c.bytes(), 0, "poisoned entries release their bytes");
        assert_eq!(c.probe(&[7], 0, Some(&pooled), true), Probe::Miss);
        assert!(
            !c.insert(&[7], 0, &pooled, 0.5),
            "poisoned bucket admits nothing"
        );
        assert_eq!(c.stats().poisoned_buckets, 1);
        c.audit().unwrap();
    }

    #[test]
    fn duplicate_insert_is_refused_and_refreshes_recency() {
        let mut c = SemanticCache::new(small_config());
        let pooled = vec_for(4);
        assert!(c.insert(&[1], 0, &pooled, 0.5));
        let bytes = c.bytes();
        assert!(!c.insert(&[1], 0, &pooled, 0.5));
        assert_eq!(c.bytes(), bytes, "duplicate admits no bytes");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_entry_is_refused_outright() {
        let mut config = small_config();
        config.capacity_bytes = 50; // below a single entry's overhead
        let mut c = SemanticCache::new(config);
        assert!(!c.insert(&[1], 0, &vec_for(1), 0.5));
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn summary_rejection_never_hides_members() {
        // Grow one bucket past the summary threshold, then probe with
        // every member's own vector: each must still hit.
        let mut config = small_config();
        config.lsh_bits = 1; // few buckets -> summaries actually build
        config.similarity_threshold = 0.95;
        let mut c = SemanticCache::new(config);
        let vectors: Vec<Vec<f32>> = (0..24).map(vec_for).collect();
        for (i, v) in vectors.iter().enumerate() {
            c.insert(&[i as u32], 0, v, i as f32);
        }
        for (i, v) in vectors.iter().enumerate() {
            if !c.probe(&[i as u32 + 1000], 0, Some(v), true).is_hit() {
                // Only acceptable if the entry was evicted — capacity is
                // ample here, so it must hit.
                panic!("member {i} hidden by rejection");
            }
        }
        c.audit().unwrap();
    }

    #[test]
    fn clear_releases_everything() {
        let mut c = SemanticCache::new(small_config());
        for i in 0..5u64 {
            c.insert(&[i as u32], 0, &vec_for(i), 0.0);
        }
        c.clear();
        assert_eq!(c.bytes(), 0);
        assert!(c.is_empty());
        assert_eq!(c.audit().unwrap(), 0);
    }
}
