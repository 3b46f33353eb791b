//! Rerank request generation with planted relevance.
//!
//! A request is a query plus `N` candidates. Relevance levels are drawn in
//! three bands (high / mid / low) so score clusters exist for PRISM to
//! find; token sequences realize a level `r` by mixing on-topic /
//! off-topic / background tokens with on-topic probability increasing in
//! `r` and gaps scaled by the dataset's separability. Everything is
//! deterministic per `(profile, seed, request index)`.

use prism_model::semantics::{anti_topic_token_range, background_token_range, topic_token_range};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tokenizer::ZipfSampler;
use crate::DatasetProfile;

/// One candidate document.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateDoc {
    /// Token sequence of the *query ++ candidate* cross-encoder input.
    pub tokens: Vec<u32>,
    /// Planted relevance level in `[0, 1]`.
    pub relevance: f32,
    /// Whether this candidate belongs to the ground-truth relevant set.
    pub is_relevant: bool,
}

/// A full rerank request.
#[derive(Debug, Clone, PartialEq)]
pub struct RerankRequest {
    /// Query tokens (shared prefix of every candidate's input).
    pub query: Vec<u32>,
    /// Candidates in corpus order.
    pub candidates: Vec<CandidateDoc>,
    /// Indices of ground-truth relevant candidates.
    pub relevant: Vec<usize>,
}

impl RerankRequest {
    /// Candidate token sequences, ready for [`prism_model::SequenceBatch`].
    pub fn sequences(&self) -> Vec<Vec<u32>> {
        self.candidates.iter().map(|c| c.tokens.clone()).collect()
    }

    /// Indices sorted by descending planted relevance (ideal ranking).
    pub fn ideal_ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.candidates.len()).collect();
        idx.sort_by(|&a, &b| {
            self.candidates[b]
                .relevance
                .total_cmp(&self.candidates[a].relevance)
        });
        idx
    }
}

/// Seeded generator of rerank requests for one dataset profile.
pub struct WorkloadGenerator {
    profile: DatasetProfile,
    vocab_size: usize,
    max_seq: usize,
    background: ZipfSampler,
    seed: u64,
}

impl WorkloadGenerator {
    /// Creates a generator targeting a model's vocabulary and sequence
    /// budget.
    pub fn new(profile: DatasetProfile, vocab_size: usize, max_seq: usize, seed: u64) -> Self {
        let (b0, b1) = background_token_range(vocab_size);
        let background = ZipfSampler::new((b1 - b0) as usize, profile.zipf_exponent);
        WorkloadGenerator {
            profile,
            vocab_size,
            max_seq,
            background,
            seed,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// Generates request number `index` with `num_candidates` candidates.
    pub fn request(&self, index: u64, num_candidates: usize) -> RerankRequest {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ index
                    .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                    .wrapping_add(0x2545_F491_4F6C_DD1D),
        );
        let query_len = (self.max_seq / 8).clamp(2, 12);
        let query: Vec<u32> = (0..query_len)
            .map(|_| self.background_token(&mut rng))
            .collect();

        // Relevance levels in three bands whose spacing scales with
        // separability; band populations follow the profile's ground-truth
        // density.
        let sep = self.profile.separability;
        // `sample_count` returns at least one, so zero candidates must
        // clamp here or the band sizes below underflow.
        let n_rel = sample_count(&mut rng, self.profile.relevant_per_request, num_candidates)
            .min(num_candidates);
        let n_mid = ((num_candidates - n_rel) / 2)
            .max(1)
            .min(num_candidates - n_rel);
        let mut levels = Vec::with_capacity(num_candidates);
        for i in 0..num_candidates {
            let (base, spread) = if i < n_rel {
                (0.55 + 0.35 * sep, 0.08)
            } else if i < n_rel + n_mid {
                (0.45, 0.10)
            } else {
                (0.40 - 0.32 * sep, 0.08)
            };
            let jitter = (rng.gen::<f32>() - 0.5) * 2.0 * spread;
            levels.push((base + jitter).clamp(0.02, 0.98));
        }
        // Shuffle so relevant docs are not positionally biased.
        for i in (1..levels.len()).rev() {
            let j = rng.gen_range(0..=i);
            levels.swap(i, j);
        }

        let candidates: Vec<CandidateDoc> = levels
            .iter()
            .map(|&r| self.candidate(&mut rng, &query, r))
            .collect();
        // Ground truth: the top band.
        let rel_threshold = 0.5 + 0.1 * sep;
        let relevant: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter_map(|(i, c)| (c.relevance >= rel_threshold).then_some(i))
            .collect();
        RerankRequest {
            query,
            candidates,
            relevant,
        }
    }

    /// A deterministic paraphrase of `base`: each candidate body token
    /// flips to a fresh background token with probability `jitter`,
    /// while the shared query prefix, candidate count, lengths, and
    /// planted relevance stay identical. `jitter = 0` returns a
    /// verbatim copy. Pure function of `(seed, index, jitter, base)` —
    /// the per-index seed mix is salted so a near-duplicate of request
    /// `i` never shares its token stream with request `i` itself.
    pub fn near_duplicate(&self, base: &RerankRequest, index: u64, jitter: f64) -> RerankRequest {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ 0x0A11_A5ED_u64
                ^ index
                    .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                    .wrapping_add(0x2545_F491_4F6C_DD1D),
        );
        let jitter = jitter.clamp(0.0, 1.0);
        let query_len = base.query.len();
        let mut out = base.clone();
        for candidate in &mut out.candidates {
            for token in candidate.tokens.iter_mut().skip(query_len) {
                if rng.gen::<f64>() < jitter {
                    *token = self.background_token(&mut rng);
                }
            }
        }
        out
    }

    fn candidate(&self, rng: &mut StdRng, query: &[u32], relevance: f32) -> CandidateDoc {
        let len_mean = self.profile.candidate_len_mean * (self.max_seq as f32 * 0.75);
        let len_std = len_mean * self.profile.candidate_len_rel_std;
        let body_len = (len_mean + (rng.gen::<f32>() - 0.5) * 2.0 * len_std)
            .round()
            .clamp(4.0, (self.max_seq - query.len()) as f32) as usize;

        let noise = self.profile.token_noise;
        let (t0, t1) = topic_token_range(self.vocab_size);
        let (a0, a1) = anti_topic_token_range(self.vocab_size);
        // On-topic probability rises linearly with relevance; token noise
        // occasionally flips a token's band.
        let p_topic = 0.15 + 0.6 * relevance;
        let p_anti = 0.15 + 0.6 * (1.0 - relevance);
        let mut tokens: Vec<u32> = Vec::with_capacity(query.len() + body_len);
        tokens.extend_from_slice(query);
        for _ in 0..body_len {
            let u: f32 = rng.gen();
            let flip = rng.gen::<f32>() < noise;
            let scaled_topic = p_topic * 0.6;
            let scaled_anti = scaled_topic + p_anti * 0.6;
            let band = if u < scaled_topic {
                if flip {
                    Band::Anti
                } else {
                    Band::Topic
                }
            } else if u < scaled_anti {
                if flip {
                    Band::Topic
                } else {
                    Band::Anti
                }
            } else {
                Band::Background
            };
            let tok = match band {
                Band::Topic => t0 + rng.gen_range(0..t1 - t0),
                Band::Anti => a0 + rng.gen_range(0..a1 - a0),
                Band::Background => self.background_token(rng),
            };
            tokens.push(tok);
        }
        CandidateDoc {
            tokens,
            relevance,
            is_relevant: false, // Filled by caller via `relevant` indices.
        }
    }

    fn background_token(&self, rng: &mut StdRng) -> u32 {
        let (b0, _) = background_token_range(self.vocab_size);
        b0 + self.background.sample(rng) as u32
    }
}

enum Band {
    Topic,
    Anti,
    Background,
}

fn sample_count(rng: &mut StdRng, mean: f32, max: usize) -> usize {
    let jitter = (rng.gen::<f32>() - 0.5) * 2.0;
    ((mean + jitter).round() as usize).clamp(1, max.saturating_sub(2).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset_catalog;
    use prism_model::semantics::token_signal;

    fn generator(name: &str) -> WorkloadGenerator {
        let profile = crate::dataset::dataset_by_name(name).unwrap();
        WorkloadGenerator::new(profile, 2048, 64, 99)
    }

    #[test]
    fn requests_are_deterministic() {
        let g = generator("wikipedia");
        let a = g.request(3, 20);
        let b = g.request(3, 20);
        assert_eq!(a, b);
        let c = g.request(4, 20);
        assert_ne!(a, c);
    }

    #[test]
    fn request_shape_is_correct() {
        let g = generator("msmarco");
        let r = g.request(0, 20);
        assert_eq!(r.candidates.len(), 20);
        assert!(!r.relevant.is_empty());
        assert!(r.relevant.len() < 20);
        for c in &r.candidates {
            assert!(c.tokens.len() <= 64);
            assert!(c.tokens.len() >= r.query.len() + 4);
            assert!(c.tokens.starts_with(&r.query));
            assert!(c.tokens.iter().all(|&t| (t as usize) < 2048));
        }
    }

    #[test]
    fn zero_and_one_candidate_requests_are_well_formed() {
        let g = generator("msmarco");
        let empty = g.request(0, 0);
        assert!(empty.candidates.is_empty());
        assert!(empty.relevant.is_empty());
        assert!(!empty.query.is_empty());
        let one = g.request(0, 1);
        assert_eq!(one.candidates.len(), 1);
        assert!(one.candidates[0].tokens.starts_with(&one.query));
        assert!(one.relevant.len() <= 1);
    }

    #[test]
    fn relevant_set_matches_top_relevance() {
        let g = generator("wikipedia");
        let r = g.request(1, 20);
        let ideal = r.ideal_ranking();
        // Every ground-truth index must be in the top |relevant| of the
        // ideal ranking (relevance bands are disjoint by construction).
        let top: Vec<usize> = ideal[..r.relevant.len()].to_vec();
        for rel in &r.relevant {
            assert!(top.contains(rel), "relevant {rel} missing from ideal top");
        }
    }

    #[test]
    fn token_mix_encodes_relevance() {
        let g = generator("quora");
        let r = g.request(5, 20);
        // Mean token signal of body tokens must correlate with relevance.
        let mean_signal = |c: &CandidateDoc| -> f32 {
            let body = &c.tokens[r.query.len()..];
            body.iter().map(|&t| token_signal(t, 2048)).sum::<f32>() / body.len() as f32
        };
        let ideal = r.ideal_ranking();
        let best = mean_signal(&r.candidates[ideal[0]]);
        let worst = mean_signal(&r.candidates[*ideal.last().unwrap()]);
        assert!(
            best > worst + 0.1,
            "signal best {best} worst {worst} must separate"
        );
    }

    #[test]
    fn separability_widens_relevance_gaps() {
        let easy = generator("quora"); // separability 0.8
        let hard = generator("coderag"); // separability 0.38
        let gap = |g: &WorkloadGenerator| -> f32 {
            let r = g.request(2, 20);
            let mut lv: Vec<f32> = r.candidates.iter().map(|c| c.relevance).collect();
            lv.sort_by(f32::total_cmp);
            lv.last().unwrap() - lv.first().unwrap()
        };
        assert!(gap(&easy) > gap(&hard));
    }

    #[test]
    fn all_catalog_profiles_generate() {
        for profile in dataset_catalog() {
            let g = WorkloadGenerator::new(profile, 2048, 64, 1);
            let r = g.request(0, 10);
            assert_eq!(r.candidates.len(), 10, "{}", g.profile().name);
            assert!(!r.relevant.is_empty(), "{}", g.profile().name);
        }
    }

    #[test]
    fn near_duplicates_paraphrase_bodies_only() {
        let g = generator("wikipedia");
        let base = g.request(3, 12);
        // Determinism and index sensitivity.
        let a = g.near_duplicate(&base, 3, 0.2);
        assert_eq!(a, g.near_duplicate(&base, 3, 0.2));
        assert_ne!(a, g.near_duplicate(&base, 4, 0.2));
        // Zero jitter is a verbatim repeat.
        assert_eq!(g.near_duplicate(&base, 3, 0.0), base);
        // Shape, query prefix, and planted relevance survive; the body
        // flip rate lands near the requested jitter.
        assert_eq!(a.relevant, base.relevant);
        let (mut flipped, mut body) = (0_usize, 0_usize);
        for (dup, orig) in a.candidates.iter().zip(&base.candidates) {
            assert_eq!(dup.tokens.len(), orig.tokens.len());
            assert_eq!(dup.relevance, orig.relevance);
            assert!(dup.tokens.starts_with(&base.query));
            for (d, o) in dup.tokens[base.query.len()..]
                .iter()
                .zip(&orig.tokens[base.query.len()..])
            {
                body += 1;
                flipped += usize::from(d != o);
            }
        }
        let rate = flipped as f64 / body as f64;
        assert!(
            rate > 0.05 && rate < 0.4,
            "flip rate {rate:.3} for jitter 0.2 ({flipped}/{body})"
        );
    }

    #[test]
    fn sequences_accessor_matches_candidates() {
        let g = generator("nq");
        let r = g.request(7, 5);
        let seqs = r.sequences();
        assert_eq!(seqs.len(), 5);
        for (s, c) in seqs.iter().zip(&r.candidates) {
            assert_eq!(s, &c.tokens);
        }
    }
}
