//! Inputs, all derived from `--seed`: candidate corpora, the open-loop
//! arrival schedule and the duplicate pattern. The system under test
//! sees only what is generated here.

use prism_core::{RequestOptions, SemCacheMode};
use prism_model::SequenceBatch;
use prism_workload::{dataset_by_name, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{WorkloadSpec, DUP_POOL, WARMUP_REQUESTS};

/// Corpus-index namespaces, disjoint from the measured requests' own
/// indices (which count up from zero).
const POOL_BASE: u64 = 1 << 40;
const WARMUP_BASE: u64 = 1 << 41;

/// One request as the load generator sends it.
#[derive(Debug, Clone)]
pub struct Request {
    pub index: usize,
    pub batch: SequenceBatch,
    pub options: RequestOptions,
    /// An exact copy of a pool corpus (duplicate workload only).
    pub copy: bool,
}

/// SplitMix64 finalizer: decorrelates consecutive indices.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pool slot request `index` copies, or `None` when it is novel.
/// Every block of four consecutive requests holds exactly one novel
/// request, at a seeded position: the hit share is 75 % on every seed,
/// so throughput does not inherit binomial noise from the pattern.
pub fn duplicate_of(seed: u64, index: usize) -> Option<usize> {
    let block = (index / 4) as u64;
    let novel_at = mix(seed ^ block.wrapping_mul(0xA076_1D64_78BD_642F)) % 4;
    if (index % 4) as u64 == novel_at {
        None
    } else {
        Some((mix(seed.rotate_left(17) ^ index as u64) % DUP_POOL as u64) as usize)
    }
}

/// Arrival times in microseconds, ascending: `per_second` uniform draws
/// inside each of `seconds` one-second strata. Within a second that is a
/// Poisson process conditioned on its count, so gaps are exponential and
/// arrivals still bunch, which is what makes the server coalesce; across
/// seconds the offered load is the same on every seed, so one seed's luck
/// in drawing a long lull or a long burst does not decide the run.
pub fn arrival_schedule(seed: u64, per_second: usize, seconds: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x0A55_1CED));
    let mut due = Vec::with_capacity(per_second * seconds);
    for second in 0..seconds as u64 {
        let mut stratum: Vec<u64> = (0..per_second)
            .map(|_| second * 1_000_000 + (rng.gen::<f64>() * 1e6) as u64)
            .collect();
        stratum.sort_unstable();
        due.extend(stratum);
    }
    due
}

/// Generates request `i` of a workload: a pure function of the seed.
pub struct RequestSource {
    generator: WorkloadGenerator,
    spec: WorkloadSpec,
    seed: u64,
}

impl RequestSource {
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        let profile = dataset_by_name("wikipedia").expect("wikipedia profile is in the catalog");
        RequestSource {
            generator: WorkloadGenerator::new(
                profile,
                spec.model.vocab_size,
                spec.model.max_seq,
                seed,
            ),
            spec: spec.clone(),
            seed,
        }
    }

    fn corpus(&self, corpus_index: u64) -> SequenceBatch {
        let request = self.generator.request(corpus_index, self.spec.candidates);
        SequenceBatch::new(&request.sequences()).expect("generated corpus is a valid batch")
    }

    /// Measured request `index`.
    pub fn request(&self, index: usize) -> Request {
        let slot = if self.spec.duplicates {
            duplicate_of(self.seed, index)
        } else {
            None
        };
        Request {
            index,
            batch: self.corpus(slot.map_or(index as u64, |s| POOL_BASE + s as u64)),
            options: self.spec.request_options(index),
            copy: slot.is_some(),
        }
    }

    /// The untimed requests that end a set-up. On the duplicate workload
    /// they are the pool itself, sent through the cache's exact tier so
    /// that every later copy replays an exactly computed score.
    pub fn warmup(&self) -> Vec<Request> {
        (0..WARMUP_REQUESTS)
            .map(|j| {
                let tag = u64::MAX - j as u64;
                let (corpus_index, options) = if self.spec.duplicates {
                    let options = RequestOptions {
                        pruning: Some(false),
                        ..RequestOptions::tagged(self.spec.k, tag)
                            .with_semcache(SemCacheMode::VerifyAndFallback)
                    };
                    (POOL_BASE + (j % DUP_POOL) as u64, options)
                } else {
                    (
                        WARMUP_BASE + j as u64,
                        RequestOptions::tagged(self.spec.k, tag),
                    )
                };
                Request {
                    index: j,
                    batch: self.corpus(corpus_index),
                    options,
                    copy: false,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn schedule_repeats_for_equal_seeds_and_differs_otherwise() {
        let a = arrival_schedule(7, 30, 20);
        assert_eq!(a, arrival_schedule(7, 30, 20));
        assert_ne!(a, arrival_schedule(8, 30, 20));
        assert_eq!(a.len(), 600);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 20_000_000);
        // Every second carries the same load.
        for second in 0..20 {
            let lo = second * 1_000_000;
            assert_eq!(
                a.iter()
                    .filter(|&&t| (lo..lo + 1_000_000).contains(&t))
                    .count(),
                30
            );
        }
    }

    #[test]
    fn duplicate_pattern_is_seeded_and_exactly_three_in_four() {
        let pattern = |seed| (0..400).map(|i| duplicate_of(seed, i)).collect::<Vec<_>>();
        assert_eq!(pattern(3), pattern(3));
        assert_ne!(pattern(3), pattern(4));
        for block in pattern(3).chunks(4) {
            assert_eq!(block.iter().filter(|s| s.is_none()).count(), 1);
        }
        assert!(pattern(3).iter().flatten().all(|&s| s < DUP_POOL));
    }

    #[test]
    fn requests_are_a_pure_function_of_seed_and_index() {
        let spec = spec::by_name("dup_closed").unwrap();
        let (a, b, c) = (
            RequestSource::new(&spec, 11),
            RequestSource::new(&spec, 11),
            RequestSource::new(&spec, 12),
        );
        for i in 0..16 {
            assert_eq!(a.request(i).batch.tokens(), b.request(i).batch.tokens());
            assert_eq!(a.request(i).options, b.request(i).options);
        }
        assert!((0..16).any(|i| a.request(i).batch.tokens() != c.request(i).batch.tokens()));
        // Copies of one slot are token-identical; tags never repeat.
        let copies: Vec<Request> = (0..64).map(|i| a.request(i)).filter(|r| r.copy).collect();
        let slot = |r: &Request| duplicate_of(11, r.index);
        let first = &copies[0];
        let twin = copies[1..]
            .iter()
            .find(|r| slot(r) == slot(first))
            .expect("a pool of 8 repeats within 64 requests");
        assert_eq!(first.batch.tokens(), twin.batch.tokens());
        assert_ne!(first.options.tag, twin.options.tag);
    }
}
