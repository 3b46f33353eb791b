//! Index invariants of the semantic cache, property-style:
//!
//! * a cached candidate is its own nearest match — probing with an
//!   entry's exact tokens always hits, and probing with its pooled
//!   vector similarity-hits at cosine ≈ 1 whenever the entry is live;
//! * probes are deterministic — the same cache state answers the same
//!   probe identically, and two caches built by the same call sequence
//!   agree on everything;
//! * eviction never lets the byte meter exceed the budget, and the
//!   meter always equals the sum over live entries (audit passes after
//!   arbitrary interleavings of insert / probe / poison);
//! * eviction is least-recently-used: with equal-size entries the live
//!   set and eviction count follow a plain recency-list model.

use prism_semcache::{Probe, SemCacheConfig, SemanticCache};
use proptest::prelude::*;

const DIM: usize = 8;

fn config(capacity: u64, threshold: f32) -> SemCacheConfig {
    SemCacheConfig {
        dim: DIM,
        capacity_bytes: capacity,
        lsh_bits: 4,
        similarity_threshold: threshold,
        verify_fraction: 0.0,
        seed: 0xA5A5,
    }
}

/// Deterministic non-degenerate pooled vector for candidate `i`.
fn pooled(i: u32) -> Vec<f32> {
    (0..DIM)
        .map(|d| ((i as f32 + 1.0) * 0.61 + d as f32 * 1.13).sin() + 0.01)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every live entry is findable by its own key and by its own
    /// vector: the exact tier hits on identical tokens, and the
    /// similarity tier matches the entry's own pooled vector with
    /// cosine within quantization error of 1.
    #[test]
    fn candidate_is_its_own_nearest_match(
        ids in prop::collection::vec(0_u32..64, 1..24),
    ) {
        let mut cache = SemanticCache::new(config(1 << 20, 0.95));
        for &i in &ids {
            cache.insert(&[i, i + 1], 0, &pooled(i), i as f32);
        }
        for &i in &ids {
            let exact = cache.probe(&[i, i + 1], 0, None, false);
            prop_assert!(
                matches!(exact, Probe::ExactHit { score, .. } if score == i as f32),
                "exact probe of {i} gave {exact:?}"
            );
            // Probe under fresh tokens so only the similarity tier can
            // answer; the entry's own vector must clear the threshold.
            match cache.probe(&[i + 1000], 0, Some(&pooled(i)), true) {
                Probe::SimilarHit { similarity, .. } => {
                    prop_assert!(similarity > 0.99, "self-similarity {similarity}")
                }
                other => prop_assert!(false, "similar probe of {i} gave {other:?}"),
            }
        }
    }

    /// Two caches fed the same call sequence answer every probe
    /// identically (score bits included), and repeating a probe against
    /// one cache repeats its answer — LRU touches don't change results.
    #[test]
    fn probes_are_deterministic(
        ops in prop::collection::vec((0_u32..32, 0_u8..2), 1..40),
    ) {
        let mut a = SemanticCache::new(config(4 << 10, 0.9));
        let mut b = SemanticCache::new(config(4 << 10, 0.9));
        for &(i, kind) in &ops {
            if kind == 0 {
                let admitted_a = a.insert(&[i], 0, &pooled(i), i as f32 * 0.5);
                let admitted_b = b.insert(&[i], 0, &pooled(i), i as f32 * 0.5);
                prop_assert_eq!(admitted_a, admitted_b);
            } else {
                let pa = a.probe(&[i], 0, Some(&pooled(i)), true);
                let pb = b.probe(&[i], 0, Some(&pooled(i)), true);
                prop_assert_eq!(&pa, &pb);
                let again_a = a.probe(&[i], 0, Some(&pooled(i)), true);
                let again_b = b.probe(&[i], 0, Some(&pooled(i)), true);
                prop_assert_eq!(&pa, &again_a, "repeat probe changed answer");
                prop_assert_eq!(&again_a, &again_b);
            }
        }
        prop_assert_eq!(a.bytes(), b.bytes());
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Under arbitrary interleavings of insert, probe and poison, the
    /// byte meter never exceeds the budget and always reconciles with
    /// the live entries (audit passes — no leaked or phantom bytes).
    #[test]
    fn eviction_never_exceeds_budget_and_meter_reconciles(
        capacity in 200_u64..2000,
        ops in prop::collection::vec((0_u32..48, 0_u8..8), 1..80),
    ) {
        let mut cache = SemanticCache::new(config(capacity, 0.9));
        for &(i, kind) in &ops {
            match kind {
                0..=4 => {
                    cache.insert(&[i, i], 0, &pooled(i), 1.0);
                }
                5..=6 => {
                    cache.probe(&[i, i], 0, Some(&pooled(i)), true);
                }
                _ => {
                    let sig = cache.signature(&pooled(i));
                    cache.poison(sig);
                }
            }
            prop_assert!(
                cache.bytes() <= capacity,
                "meter {} over budget {capacity}",
                cache.bytes()
            );
            let audited = cache.audit();
            prop_assert!(audited.is_ok(), "audit failed: {audited:?}");
            prop_assert_eq!(audited.unwrap(), cache.bytes());
        }
        cache.clear();
        prop_assert_eq!(cache.audit().unwrap(), 0);
    }

    /// Every entry costs the same bytes, so the budget is `slots`
    /// entries and the cache must evict exactly as a `Vec` recency list
    /// (most recent first) does: inserts and exact hits move an id to
    /// the front, a full cache drops the back, a duplicate insert only
    /// refreshes, and poisoning drops the bucket's ids without counting
    /// them as evictions.
    #[test]
    fn eviction_order_matches_a_recency_list(
        slots in 1_u64..6,
        ops in prop::collection::vec((0_u32..24, 0_u8..8), 1..120),
    ) {
        let entry_size = {
            let mut probe = SemanticCache::new(config(1 << 20, 0.9));
            probe.insert(&[0, 0], 0, &pooled(0), 0.0);
            probe.bytes()
        };
        let mut cache = SemanticCache::new(config(slots * entry_size, 0.9));
        let mut mru: Vec<u32> = Vec::new();
        let mut poisoned: Vec<u64> = Vec::new();
        let mut evictions = 0_u64;
        let mut inserted: Vec<u32> = Vec::new();
        for &(i, kind) in &ops {
            let sig = cache.signature(&pooled(i));
            match kind {
                0..=3 => {
                    let admitted = cache.insert(&[i, i], 0, &pooled(i), i as f32);
                    let want = if let Some(at) = mru.iter().position(|&x| x == i) {
                        mru.remove(at);
                        mru.insert(0, i);
                        false
                    } else if poisoned.contains(&sig) {
                        false
                    } else {
                        if mru.len() as u64 == slots {
                            mru.pop();
                            evictions += 1;
                        }
                        mru.insert(0, i);
                        inserted.push(i);
                        true
                    };
                    prop_assert_eq!(admitted, want, "insert of {}", i);
                }
                4..=6 => {
                    let hit = cache.probe(&[i, i], 0, None, false).is_hit();
                    let at = mru.iter().position(|&x| x == i);
                    prop_assert_eq!(hit, at.is_some(), "exact probe of {}", i);
                    if let Some(at) = at {
                        mru.remove(at);
                        mru.insert(0, i);
                    }
                }
                _ => {
                    cache.poison(sig);
                    if !poisoned.contains(&sig) {
                        poisoned.push(sig);
                    }
                    mru.retain(|&x| cache.signature(&pooled(x)) != sig);
                }
            }
        }
        for &i in &inserted {
            prop_assert_eq!(
                cache.probe(&[i, i], 0, None, false).is_hit(),
                mru.contains(&i),
                "final membership of {}",
                i
            );
        }
        prop_assert_eq!(cache.stats().evictions, evictions);
        prop_assert_eq!(cache.len(), mru.len());
    }

    /// Fast bucket rejection is sound: a probe answered `Miss` really
    /// has no live entry above the similarity threshold — compare
    /// against a brute-force scan over everything ever admitted.
    #[test]
    fn rejection_never_hides_a_match(
        ids in prop::collection::vec(0_u32..40, 8..32),
        probe_id in 0_u32..40,
    ) {
        let mut cache = SemanticCache::new(config(1 << 20, 0.97));
        let mut admitted: Vec<u32> = Vec::new();
        for &i in &ids {
            if cache.insert(&[i], 0, &pooled(i), i as f32) {
                admitted.push(i);
            }
        }
        let q = pooled(probe_id);
        let hit = cache.probe(&[9999], 0, Some(&q), true);
        if matches!(hit, Probe::Miss) {
            // No admitted entry in the probe's own bucket may clear the
            // threshold on its stored (quantized) vector. Cross-bucket
            // misses are expected LSH behavior and not checked here.
            let sig = cache.signature(&q);
            for &i in &admitted {
                if cache.signature(&pooled(i)) != sig {
                    continue;
                }
                // Stored vectors are quantized; re-probing the entry's
                // exact tokens confirms it is still live before judging.
                let live = cache.probe(&[i], 0, None, false).is_hit();
                if live {
                    let sim = prism_semcache::cosine(&q, &pooled(i));
                    prop_assert!(
                        sim < 0.97 + 0.01,
                        "miss despite live same-bucket entry {i} at cosine {sim}"
                    );
                }
            }
        }
    }
}
