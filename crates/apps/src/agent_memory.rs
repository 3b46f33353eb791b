//! Agent memory: a reranker-backed action-trajectory cache (§6.3,
//! Figs. 12–13).
//!
//! A GUI agent caches successful action trajectories keyed by task
//! descriptions. For an incoming task, the reranker scores the cached
//! trajectories against the task; a sufficiently confident top-1 replays
//! the cached actions and skips the expensive VLM call. The serialized
//! `(task, trajectory)` pair the reranker scores is generated with planted
//! match quality (see DESIGN.md §2 — the trajectory payloads themselves
//! are simulated; the reranking workload is real).

use prism_baselines::Reranker;
use prism_device::{cost, DeviceSpec};
use prism_model::{ModelConfig, SequenceBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Result;

/// One of the paper's two agent workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentScenario {
    /// Video-app automation: smaller memory, higher match rate.
    Video,
    /// Community-app automation: larger memory, more distractors.
    Community,
}

impl AgentScenario {
    /// Scenario name as used in Fig. 12.
    pub fn name(&self) -> &'static str {
        match self {
            AgentScenario::Video => "video",
            AgentScenario::Community => "community",
        }
    }

    /// Number of cached trajectories.
    pub fn memory_size(&self) -> usize {
        match self {
            AgentScenario::Video => 12,
            AgentScenario::Community => 24,
        }
    }

    /// Probability an incoming task has a cached match.
    pub fn match_rate(&self) -> f64 {
        match self {
            AgentScenario::Video => 0.8,
            AgentScenario::Community => 0.65,
        }
    }

    /// GUI actions per task; every action consults the memory (the paper's
    /// tasks are multi-step trajectories).
    pub fn steps(&self) -> usize {
        match self {
            AgentScenario::Video => 4,
            AgentScenario::Community => 6,
        }
    }

    /// Environment-interaction time per task step, seconds (UI actions;
    /// identical across systems — the `Env` bars in Fig. 12).
    pub fn env_time_s(&self) -> f64 {
        match self {
            AgentScenario::Video => 6.0,
            AgentScenario::Community => 8.5,
        }
    }
}

/// Outcome of running one task through the agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentTaskResult {
    /// Whether the cache served at least one action of this task.
    pub cache_hit: bool,
    /// Actions served from the cache.
    pub cache_hits: usize,
    /// Actions in the task.
    pub steps: usize,
    /// Whether every executed action was correct for the task.
    pub success: bool,
    /// Total measured reranking time across actions, microseconds (zero
    /// when memory disabled).
    pub rerank_us: u64,
    /// Total costed VLM inference time, seconds (cache hits skip it).
    pub vlm_s: f64,
    /// Costed environment time, seconds.
    pub env_s: f64,
}

impl AgentTaskResult {
    /// Total task latency in seconds.
    pub fn total_s(&self) -> f64 {
        self.rerank_us as f64 / 1e6 + self.vlm_s + self.env_s
    }
}

/// The reranker-backed trajectory cache.
pub struct AgentMemory<R: Reranker> {
    scenario: AgentScenario,
    reranker: Option<R>,
    accept_threshold: f32,
    /// Minimum score gap between the best and second-best trajectory: a
    /// genuine match dominates its distractors, while "best of nothing"
    /// sits in a tight pack.
    accept_margin: f32,
    vocab_size: usize,
    max_seq: usize,
    vlm_model: ModelConfig,
    vlm_device: DeviceSpec,
    rng: StdRng,
}

impl<R: Reranker> AgentMemory<R> {
    /// Creates the agent. `reranker = None` disables the memory (the
    /// paper's "Disable AM" baseline).
    pub fn new(
        scenario: AgentScenario,
        reranker: Option<R>,
        vocab_size: usize,
        max_seq: usize,
        vlm_device: DeviceSpec,
        seed: u64,
    ) -> Self {
        AgentMemory {
            scenario,
            reranker,
            accept_threshold: 0.52,
            accept_margin: 0.06,
            vocab_size,
            max_seq,
            // The paper's MobiMind-Decider-7B VLM: approximate with the
            // 8B-config cost (vision tower folded into prompt tokens).
            vlm_model: ModelConfig::qwen3_8b(),
            vlm_device,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs one multi-step task: each action consults the cache (when
    /// enabled), replays on a confident hit, and falls back to VLM
    /// inference otherwise.
    pub fn run_task(&mut self, task_idx: u64) -> Result<AgentTaskResult> {
        let env_s = self.scenario.env_time_s();
        let steps = self.scenario.steps();
        let n = self.scenario.memory_size();

        if self.reranker.is_none() {
            // Memory disabled: every action pays the VLM, always correct.
            return Ok(AgentTaskResult {
                cache_hit: false,
                cache_hits: 0,
                steps,
                success: true,
                rerank_us: 0,
                vlm_s: self.vlm_inference_s() * steps as f64,
                env_s,
            });
        }

        let mut cache_hits = 0_usize;
        let mut success = true;
        let mut rerank_us = 0_u64;
        let mut vlm_s = 0.0_f64;
        for step in 0..steps as u64 {
            let has_match = self.rng.gen::<f64>() < self.scenario.match_rate();
            // Pair inputs with planted match quality: one strong match
            // (when present), distractors low.
            let mut pair_inputs = Vec::with_capacity(n);
            let match_slot = if has_match {
                Some(((task_idx * 31 + step * 7 + 3) as usize) % n)
            } else {
                None
            };
            let seed = (task_idx * 131 + step) ^ 0xA5A5_5A5A;
            for slot in 0..n {
                let relevance = if Some(slot) == match_slot {
                    0.95
                } else {
                    0.05 + 0.15 * (((slot as u64).wrapping_mul(2654435761) >> 16) % 100) as f32
                        / 100.0
                };
                pair_inputs.push(crate::long_context::relevance_sequence(
                    relevance,
                    self.max_seq,
                    self.vocab_size,
                    seed.wrapping_add(slot as u64),
                ));
            }
            let batch = SequenceBatch::new(&pair_inputs)?;
            let t = std::time::Instant::now();
            let reranker = self.reranker.as_mut().expect("memory enabled");
            let outcome = reranker.rerank(&batch, 2.min(n))?;
            rerank_us += t.elapsed().as_micros() as u64;
            let (top_slot, top_score) = outcome.ranked[0];
            let runner_up = outcome.ranked.get(1).map_or(0.0, |&(_, s)| s);

            if top_score >= self.accept_threshold && top_score - runner_up >= self.accept_margin {
                cache_hits += 1;
                if match_slot != Some(top_slot) {
                    success = false;
                }
            } else {
                vlm_s += self.vlm_inference_s();
            }
        }
        Ok(AgentTaskResult {
            cache_hit: cache_hits > 0,
            cache_hits,
            steps,
            success,
            rerank_us,
            vlm_s,
            env_s,
        })
    }

    fn vlm_inference_s(&self) -> f64 {
        // Screenshot + instruction prompt, short action decode.
        cost::prefill_time_s(&self.vlm_model, &self.vlm_device, 3600)
            + cost::decode_time_s(&self.vlm_model, &self.vlm_device, 48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_baselines::HfVanilla;
    use prism_metrics::MemoryMeter;
    use prism_model::{Model, ModelArch};
    use prism_storage::Container;

    fn fixture() -> (Model, std::path::PathBuf) {
        let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
        let model = Model::generate(config, 42).unwrap();
        // Tests run in parallel and each removes its file: one path apiece.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("prism-am-{}-{n}.prsm", std::process::id()));
        model.write_container(&path).unwrap();
        (model, path)
    }

    fn reranker(model: &Model, path: &std::path::Path) -> HfVanilla {
        let container = Container::open(path).unwrap();
        HfVanilla::new(&container, model.config.clone(), 24, MemoryMeter::new()).unwrap()
    }

    #[test]
    fn cache_hits_skip_vlm_and_mostly_succeed() {
        let (model, path) = fixture();
        let mut agent = AgentMemory::new(
            AgentScenario::Video,
            Some(reranker(&model, &path)),
            model.config.vocab_size,
            model.config.max_seq,
            prism_device::DeviceSpec::a800(),
            1,
        );
        let mut hits = 0_usize;
        let mut step_total = 0_usize;
        let mut successes = 0_u64;
        let tasks: u64 = 20;
        for t in 0..tasks {
            let r = agent.run_task(t).unwrap();
            hits += r.cache_hits;
            step_total += r.steps;
            if r.cache_hits == r.steps {
                assert_eq!(r.vlm_s, 0.0, "all-hit task must skip the VLM");
            } else {
                assert!(r.vlm_s > 0.0);
            }
            assert!(r.rerank_us > 0);
            if r.success {
                successes += 1;
            }
        }
        assert!(
            hits * 3 >= step_total,
            "too few cache hits: {hits}/{step_total}"
        );
        assert!(hits < step_total, "some misses expected");
        let rate = successes as f64 / tasks as f64;
        // Mini-scale scores are noisier than the paper's full models (which
        // hold ~0.99); accept a small number of mis-replays.
        assert!(rate >= 0.85, "success rate {rate} too low");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disabled_memory_always_pays_vlm() {
        let (model, path) = fixture();
        let mut agent: AgentMemory<HfVanilla> = AgentMemory::new(
            AgentScenario::Community,
            None,
            model.config.vocab_size,
            model.config.max_seq,
            prism_device::DeviceSpec::a800(),
            2,
        );
        for t in 0..5 {
            let r = agent.run_task(t).unwrap();
            assert!(!r.cache_hit);
            assert_eq!(r.cache_hits, 0);
            assert!(r.success);
            assert!(r.vlm_s > 0.0);
            assert_eq!(r.rerank_us, 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_reduces_average_latency() {
        let (model, path) = fixture();
        let run = |with_memory: bool| -> f64 {
            let reranker = with_memory.then(|| reranker(&model, &path));
            let mut agent = AgentMemory::new(
                AgentScenario::Video,
                reranker,
                model.config.vocab_size,
                model.config.max_seq,
                prism_device::DeviceSpec::a800(),
                7,
            );
            let tasks = 16;
            (0..tasks)
                .map(|t| agent.run_task(t).unwrap().total_s())
                .sum::<f64>()
                / tasks as f64
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "memory should cut latency: with {with:.2}s vs without {without:.2}s"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scenario_parameters_differ() {
        assert!(AgentScenario::Video.memory_size() < AgentScenario::Community.memory_size());
        assert!(AgentScenario::Video.match_rate() > AgentScenario::Community.match_rate());
        assert_eq!(AgentScenario::Video.name(), "video");
        assert_eq!(AgentScenario::Community.name(), "community");
    }
}
