//! Serving configuration and the device-derived token budget.

use std::time::Duration;

use prism_device::DeviceSpec;
use prism_metrics::MemoryMeter;
use prism_model::layer::intermediate_bytes;
use prism_model::ModelConfig;

use crate::request::ServeError;
use crate::scheduler::BatchPlanner;

/// Configuration of a [`crate::PrismServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each driving the shared engine with its own
    /// scratch pool.
    pub workers: usize,
    /// Capacity of the bounded submission queue, counting arrivals,
    /// requests in their cache probe and the coalescing window alike
    /// (beyond it, `submit` returns [`ServeError::Backpressure`]).
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one weight pass.
    pub max_batch_requests: usize,
    /// Maximum total packed tokens per weight pass — the serving memory
    /// budget (see [`ServeConfig::for_device`]).
    pub max_batch_tokens: usize,
    /// How long work that needs a weight pass waits for company: the
    /// age, from its enqueue, at which an under-full pass flushes anyway
    /// (the coalescing age bound). Cache answers leave at pickup and
    /// never wait it out.
    pub max_batch_wait: Duration,
    /// Sessions retained by the LRU session cache; `0` disables caching.
    pub session_cache_capacity: usize,
    /// Byte budget of the semantic result cache (`prism-semcache`), the
    /// cross-request candidate-score cache shared by every session;
    /// `0` disables it. Even when allocated, the cache only
    /// engages on requests that opt in via
    /// [`prism_core::SemCacheMode`] *and* run at full depth (effective
    /// pruning off).
    pub semcache_capacity_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch_requests: 8,
            max_batch_tokens: 4096,
            max_batch_wait: Duration::from_millis(2),
            session_cache_capacity: 64,
            semcache_capacity_bytes: 8 << 20,
        }
    }
}

impl ServeConfig {
    /// Derives the batch token budget from a device spec: the largest
    /// token count whose transient forward footprint (intermediate
    /// tensors + hidden states) fits the memory left after weights and
    /// framework overhead already metered on `meter`.
    ///
    /// The scheduling knobs stay at `Default`'s constants (passes of 8
    /// requests, a 2 ms wait for company before a weight pass — cache
    /// answers never wait it — 64 cached sessions), so the token budget
    /// is the only device-specific part.
    pub fn for_device(config: &ModelConfig, device: &DeviceSpec, meter: &MemoryMeter) -> Self {
        let available = device
            .mem_capacity
            .saturating_sub(device.framework_overhead)
            .saturating_sub(meter.current_total());
        let per_token_hidden = (config.hidden_dim * 4) as u64;
        let fits = |tokens: usize| {
            intermediate_bytes(config, tokens, config.max_seq)
                .saturating_add(per_token_hidden * tokens as u64)
                <= available
        };
        // Binary search the largest fitting token count in [max_seq, 2^20].
        let floor = config.max_seq.max(1);
        let mut lo = floor;
        let mut hi = 1_usize << 20;
        if !fits(lo) {
            hi = lo; // Degenerate budget: still admit one sequence.
        }
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        ServeConfig {
            max_batch_tokens: lo.max(floor),
            ..Default::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::Config("workers must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Config("queue capacity must be >= 1".into()));
        }
        if self.max_batch_requests == 0 {
            return Err(ServeError::Config("batch size must be >= 1".into()));
        }
        if self.max_batch_tokens == 0 {
            return Err(ServeError::Config("token budget must be >= 1".into()));
        }
        Ok(())
    }

    /// The semantic-cache configuration these knobs induce for a model
    /// with hidden dimensionality `dim`.
    pub fn semcache_config(&self, dim: usize) -> prism_semcache::SemCacheConfig {
        prism_semcache::SemCacheConfig {
            dim,
            capacity_bytes: self.semcache_capacity_bytes,
            ..Default::default()
        }
    }

    /// The scheduler policy this configuration induces.
    pub fn planner(&self) -> BatchPlanner {
        BatchPlanner {
            max_requests: self.max_batch_requests,
            max_tokens: self.max_batch_tokens,
            max_wait_micros: self.max_batch_wait.as_micros() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_model::ModelArch;

    #[test]
    fn default_validates() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        for cfg in [
            ServeConfig {
                workers: 0,
                ..Default::default()
            },
            ServeConfig {
                queue_capacity: 0,
                ..Default::default()
            },
            ServeConfig {
                max_batch_requests: 0,
                ..Default::default()
            },
            ServeConfig {
                max_batch_tokens: 0,
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn device_budget_scales_with_memory() {
        let config = ModelConfig::test_config(ModelArch::DecoderOnly, 4);
        let meter = MemoryMeter::new();
        let small = {
            let mut d = DeviceSpec::apple_m2();
            d.mem_capacity = 64 << 20;
            ServeConfig::for_device(&config, &d, &meter)
        };
        let large = ServeConfig::for_device(&config, &DeviceSpec::a800(), &meter);
        assert!(small.max_batch_tokens >= config.max_seq);
        assert!(
            large.max_batch_tokens >= small.max_batch_tokens,
            "more memory must not shrink the budget ({} vs {})",
            large.max_batch_tokens,
            small.max_batch_tokens
        );
    }

    #[test]
    fn budget_never_below_one_sequence() {
        let config = ModelConfig::test_config(ModelArch::DecoderOnly, 4);
        let meter = MemoryMeter::new();
        let mut d = DeviceSpec::apple_m2();
        d.mem_capacity = 0; // Hopeless device: still admit one sequence.
        let cfg = ServeConfig::for_device(&config, &d, &meter);
        assert_eq!(cfg.max_batch_tokens, config.max_seq);
    }

    #[test]
    fn for_device_keeps_the_sweep_knobs_beside_the_device_budget() {
        let config = ModelConfig::test_config(ModelArch::DecoderOnly, 4);
        let meter = MemoryMeter::new();
        for device in [
            DeviceSpec::rtx5070_laptop(),
            DeviceSpec::apple_m2(),
            DeviceSpec::a800(),
        ] {
            let cfg = ServeConfig::for_device(&config, &device, &meter);
            cfg.validate().expect("device config must validate");
            // The scheduling knobs are `Default`'s constants on every
            // device; only the token budget moves.
            assert_eq!(cfg.max_batch_requests, 8);
            assert_eq!(cfg.max_batch_wait, Duration::from_millis(2));
            assert_eq!(cfg.session_cache_capacity, 64);
        }
    }

    #[test]
    fn planner_mirrors_config() {
        let cfg = ServeConfig {
            max_batch_requests: 3,
            max_batch_tokens: 99,
            max_batch_wait: Duration::from_micros(250),
            ..Default::default()
        };
        let p = cfg.planner();
        assert_eq!(p.max_requests, 3);
        assert_eq!(p.max_tokens, 99);
        assert_eq!(p.max_wait_micros, 250);
    }
}
