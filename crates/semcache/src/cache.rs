//! The semantic cache proper: the exact fingerprint map over an entry
//! slab, with LRU + byte-budget eviction.
//!
//! # Determinism
//!
//! Every observable behavior — probe results and eviction order — is a
//! pure function of the call sequence. The hash map is used only for
//! point lookups, never for iteration-order-dependent decisions;
//! eviction takes the tail of a [`LruIndex`] over the entry slab.

use std::collections::HashMap;

use prism_tensor::LruIndex;

use crate::store::Entry;
use crate::{fingerprint, SemCacheConfig};

/// Monotonic counters describing cache behavior since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemCacheStats {
    /// Probes answered with a cached score.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries evicted by the LRU byte budget.
    pub evictions: u64,
    /// Insert attempts refused (oversized entry, already present, or a
    /// fingerprint held by another candidate).
    pub rejected_inserts: u64,
}

/// The cross-request candidate-score cache. See the crate docs.
pub struct SemanticCache {
    capacity_bytes: u64,
    /// Slab of entries; `None` slots are on the free list.
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// fingerprint -> slot.
    exact: HashMap<u64, usize>,
    /// Recency over the slab's slots; only live slots are attached.
    lru: LruIndex,
    bytes: u64,
    stats: SemCacheStats,
}

impl SemanticCache {
    /// Builds an empty cache.
    pub fn new(config: SemCacheConfig) -> Self {
        SemanticCache {
            capacity_bytes: config.capacity_bytes,
            slots: Vec::new(),
            free: Vec::new(),
            exact: HashMap::new(),
            lru: LruIndex::new(0),
            bytes: 0,
            stats: SemCacheStats::default(),
        }
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

    /// The live slot holding `tokens` under `profile`, if any. A
    /// fingerprint held by a different candidate (a collision) is `None`.
    fn find(&self, tokens: &[u32], profile: u8) -> Option<usize> {
        let &slot = self.exact.get(&fingerprint(tokens, profile))?;
        let entry = self.slots[slot]
            .as_ref()
            .expect("exact map points at live slot");
        entry.is(tokens, profile).then_some(slot)
    }

    /// Looks up a candidate: the cached score of the token-identical
    /// candidate under the same precision `profile`, which is
    /// bit-identical to recomputing it. A hit refreshes LRU recency.
    pub fn probe(&mut self, tokens: &[u32], profile: u8) -> Option<f32> {
        let Some(slot) = self.find(tokens, profile) else {
            self.stats.misses += 1;
            return None;
        };
        self.lru.touch(slot);
        self.stats.hits += 1;
        self.slots[slot].as_ref().map(|e| e.score)
    }

    /// Stores a candidate's full-depth result. Returns whether the entry
    /// was admitted: refused when the entry alone exceeds the byte
    /// budget, when the same candidate is already cached (that entry's
    /// recency is refreshed instead), or when another candidate holds its
    /// fingerprint (the incumbent stays: the new candidate remains
    /// uncached rather than evicting a correct entry for an ambiguous
    /// key). Admission may evict least-recently-used entries until the
    /// budget holds.
    pub fn insert(&mut self, tokens: &[u32], profile: u8, score: f32) -> bool {
        let fp = fingerprint(tokens, profile);
        if let Some(&slot) = self.exact.get(&fp) {
            if self.slots[slot]
                .as_ref()
                .is_some_and(|e| e.is(tokens, profile))
            {
                self.lru.touch(slot);
            }
            self.stats.rejected_inserts += 1;
            return false;
        }
        let entry = Entry {
            fingerprint: fp,
            tokens: tokens.to_vec(),
            profile,
            score,
        };
        let need = entry.bytes();
        if need > self.capacity_bytes {
            self.stats.rejected_inserts += 1;
            return false;
        }
        while self.bytes + need > self.capacity_bytes {
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
        self.stats.insertions += 1;
        true
    }

    /// Drops every entry; counters persist.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.exact.clear();
        self.lru = LruIndex::new(0);
        self.bytes = 0;
    }

    /// Recomputes the byte meter and cross-checks the fingerprint map
    /// and the recency list against the slab, returning the recomputed
    /// byte count. Any inconsistency — a leaked or phantom byte, a
    /// dangling slot reference, an LRU entry without a slot — is an
    /// error. Leak audits (cancellation, drained soaks) call this after
    /// draining.
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
        if live.len() != self.exact.len() {
            return Err(format!(
                "index cardinality drift: {} live vs {} exact",
                live.len(),
                self.exact.len()
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
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(capacity_bytes: u64) -> SemCacheConfig {
        SemCacheConfig { capacity_bytes }
    }

    #[test]
    fn exact_tier_round_trips_scores_bit_identically() {
        let mut c = SemanticCache::new(config(16 << 10));
        assert!(c.insert(&[1, 2, 3], 0, 0.1 + 0.2));
        let score = c.probe(&[1, 2, 3], 0).expect("exact hit");
        assert_eq!(score.to_bits(), (0.1f32 + 0.2).to_bits());
        // Different profile byte must miss.
        assert_eq!(c.probe(&[1, 2, 3], 1), None);
        // Different tokens must miss.
        assert_eq!(c.probe(&[1, 2, 4], 0), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn fingerprint_collision_misses_and_keeps_the_incumbent() {
        let mut c = SemanticCache::new(config(16 << 10));
        assert!(c.insert(&[1, 2, 3], 0, 0.5));
        // Forge a collision: point another candidate's fingerprint at the
        // incumbent's slot, as a 64-bit hash clash would.
        let slot = c.exact[&fingerprint(&[1, 2, 3], 0)];
        c.exact.insert(fingerprint(&[9], 0), slot);
        assert_eq!(c.probe(&[9], 0), None, "tokens are compared on a hit");
        assert!(!c.insert(&[9], 0, 0.7), "the incumbent keeps its key");
        assert_eq!(c.probe(&[1, 2, 3], 0), Some(0.5));
    }

    #[test]
    fn eviction_respects_byte_budget_and_lru_order() {
        // Room for three one-token entries (100 B each).
        let mut c = SemanticCache::new(config(300));
        for i in 0..6u32 {
            assert!(c.insert(&[i], 0, i as f32));
            assert!(c.bytes() <= 300, "budget exceeded at {i}: {}", c.bytes());
        }
        assert_eq!(c.stats().evictions, 3);
        // The most recent insert always survives.
        assert!(c.probe(&[5], 0).is_some());
        // The oldest un-touched entry is gone.
        assert!(c.probe(&[0], 0).is_none());
        c.audit().unwrap();
    }

    #[test]
    fn probe_touches_lru_recency() {
        let mut c = SemanticCache::new(config(300));
        for i in 0..3u32 {
            assert!(c.insert(&[i], 0, 0.0));
        }
        // Touch entry 0 so entry 1 becomes the eviction victim.
        assert!(c.probe(&[0], 0).is_some());
        c.insert(&[10], 0, 0.0);
        assert!(c.probe(&[1], 0).is_none(), "1 was LRU");
        assert!(c.probe(&[0], 0).is_some(), "0 was touched");
        c.audit().unwrap();
    }

    #[test]
    fn duplicate_insert_is_refused_and_refreshes_recency() {
        let mut c = SemanticCache::new(config(300));
        assert!(c.insert(&[1], 0, 0.5));
        assert!(c.insert(&[2], 0, 0.5));
        assert!(c.insert(&[3], 0, 0.5));
        let bytes = c.bytes();
        assert!(!c.insert(&[1], 0, 0.5));
        assert_eq!(c.bytes(), bytes, "duplicate admits no bytes");
        assert_eq!(c.len(), 3);
        // The refused duplicate moved 1 to the front: 2 is evicted next.
        assert!(c.insert(&[4], 0, 0.5));
        assert!(c.probe(&[1], 0).is_some());
        assert!(c.probe(&[2], 0).is_none());
    }

    #[test]
    fn oversized_entry_is_refused_outright() {
        let mut c = SemanticCache::new(config(50)); // below one entry's overhead
        assert!(!c.insert(&[1], 0, 0.5));
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn clear_releases_everything() {
        let mut c = SemanticCache::new(config(16 << 10));
        for i in 0..5u32 {
            c.insert(&[i], 0, 0.0);
        }
        c.clear();
        assert_eq!(c.bytes(), 0);
        assert!(c.is_empty());
        assert_eq!(c.audit().unwrap(), 0);
    }
}
