//! Index invariants of the semantic cache, property-style:
//!
//! * a cached candidate is its own (and only) match — probing with an
//!   entry's exact tokens and profile always hits with its score, and a
//!   different token sequence or profile never borrows it;
//! * probes are deterministic — the same cache state answers the same
//!   probe identically, and two caches built by the same call sequence
//!   agree on everything;
//! * eviction never lets the byte meter exceed the budget, and the
//!   meter always equals the sum over live entries (audit passes after
//!   arbitrary interleavings of insert / probe / clear);
//! * eviction is least-recently-used: with equal-size entries the live
//!   set and eviction count follow a plain recency-list model.

use prism_semcache::{SemCacheConfig, SemanticCache};
use proptest::prelude::*;

fn config(capacity_bytes: u64) -> SemCacheConfig {
    SemCacheConfig { capacity_bytes }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every live entry is found by its own tokens under its own profile
    /// and by nothing else: a shifted token sequence and the other
    /// profile byte both miss.
    #[test]
    fn candidate_is_its_own_nearest_match(
        ids in prop::collection::vec(0_u32..64, 1..24),
    ) {
        let mut cache = SemanticCache::new(config(1 << 20));
        for &i in &ids {
            cache.insert(&[i, i + 1], 0, i as f32);
        }
        for &i in &ids {
            let hit = cache.probe(&[i, i + 1], 0);
            prop_assert_eq!(hit.map(f32::to_bits), Some((i as f32).to_bits()), "probe of {}", i);
            prop_assert_eq!(cache.probe(&[i, i + 1], 1), None, "other profile of {}", i);
            prop_assert_eq!(cache.probe(&[i + 1000, i + 1], 0), None, "neighbor of {}", i);
        }
    }

    /// Two caches fed the same call sequence answer every probe
    /// identically (score bits included), and repeating a probe against
    /// one cache repeats its answer — LRU touches don't change results.
    #[test]
    fn probes_are_deterministic(
        ops in prop::collection::vec((0_u32..32, 0_u8..2), 1..40),
    ) {
        let mut a = SemanticCache::new(config(4 << 10));
        let mut b = SemanticCache::new(config(4 << 10));
        for &(i, kind) in &ops {
            if kind == 0 {
                let admitted_a = a.insert(&[i], 0, i as f32 * 0.5);
                let admitted_b = b.insert(&[i], 0, i as f32 * 0.5);
                prop_assert_eq!(admitted_a, admitted_b);
            } else {
                let pa = a.probe(&[i], 0).map(f32::to_bits);
                let pb = b.probe(&[i], 0).map(f32::to_bits);
                prop_assert_eq!(pa, pb);
                let again_a = a.probe(&[i], 0).map(f32::to_bits);
                let again_b = b.probe(&[i], 0).map(f32::to_bits);
                prop_assert_eq!(pa, again_a, "repeat probe changed answer");
                prop_assert_eq!(again_a, again_b);
            }
        }
        prop_assert_eq!(a.bytes(), b.bytes());
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Under arbitrary interleavings of inserts (of varying length),
    /// probes and clears, the byte meter never exceeds the budget and
    /// always reconciles with the live entries (audit passes — no leaked
    /// or phantom bytes).
    #[test]
    fn eviction_never_exceeds_budget_and_meter_reconciles(
        capacity in 200_u64..2000,
        ops in prop::collection::vec((0_u32..48, 0_u8..16), 1..80),
    ) {
        let mut cache = SemanticCache::new(config(capacity));
        for &(i, kind) in &ops {
            let tokens = vec![i; 1 + (i % 5) as usize];
            match kind {
                0..=9 => {
                    cache.insert(&tokens, 0, 1.0);
                }
                10..=14 => {
                    cache.probe(&tokens, 0);
                }
                _ => cache.clear(),
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
    /// (most recent first) does: inserts and hits move an id to the
    /// front, a full cache drops the back, and a duplicate insert only
    /// refreshes.
    #[test]
    fn eviction_order_matches_a_recency_list(
        slots in 1_u64..6,
        ops in prop::collection::vec((0_u32..24, 0_u8..7), 1..120),
    ) {
        let entry_size = prism_semcache::entry_bytes(2);
        let mut cache = SemanticCache::new(config(slots * entry_size));
        let mut mru: Vec<u32> = Vec::new();
        let mut evictions = 0_u64;
        let mut inserted: Vec<u32> = Vec::new();
        for &(i, kind) in &ops {
            match kind {
                0..=3 => {
                    let admitted = cache.insert(&[i, i], 0, i as f32);
                    let want = if let Some(at) = mru.iter().position(|&x| x == i) {
                        mru.remove(at);
                        mru.insert(0, i);
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
                _ => {
                    let hit = cache.probe(&[i, i], 0).is_some();
                    let at = mru.iter().position(|&x| x == i);
                    prop_assert_eq!(hit, at.is_some(), "probe of {}", i);
                    if let Some(at) = at {
                        mru.remove(at);
                        mru.insert(0, i);
                    }
                }
            }
        }
        for &i in &inserted {
            prop_assert_eq!(
                cache.probe(&[i, i], 0).is_some(),
                mru.contains(&i),
                "final membership of {}",
                i
            );
        }
        prop_assert_eq!(cache.stats().evictions, evictions);
        prop_assert_eq!(cache.len(), mru.len());
    }
}
