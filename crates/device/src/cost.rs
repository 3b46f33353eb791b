//! Latency helpers for surrounding pipeline stages (LLM generation, VLM
//! inference) used by the real-world application experiments (§6.3).

use prism_model::ModelConfig;

use crate::DeviceSpec;

/// Seconds to prefill `prompt_tokens` of context through `cfg` on `device`
/// (compute-bound, full-batch utilization).
pub fn prefill_time_s(cfg: &ModelConfig, device: &DeviceSpec, prompt_tokens: u64) -> f64 {
    if prompt_tokens == 0 {
        return 0.0;
    }
    let per_layer = cfg.layer_macs(prompt_tokens, prompt_tokens.min(cfg.max_seq as u64));
    (0..cfg.num_layers)
        .map(|_| device.compute_time_s(per_layer, prompt_tokens, false))
        .sum()
}

/// Seconds to autoregressively decode `gen_tokens` tokens (memory-bound:
/// every step streams the full weight set through the memory hierarchy).
pub fn decode_time_s(cfg: &ModelConfig, device: &DeviceSpec, gen_tokens: u64) -> f64 {
    let bytes_per_step = cfg.total_weight_bytes() as f64;
    gen_tokens as f64 * bytes_per_step / device.mem_bandwidth
}

/// First-token latency of a generation call: prefill plus one decode step.
pub fn first_token_time_s(cfg: &ModelConfig, device: &DeviceSpec, prompt_tokens: u64) -> f64 {
    prefill_time_s(cfg, device, prompt_tokens) + decode_time_s(cfg, device, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_grows_with_prompt() {
        let cfg = ModelConfig::qwen3_0_6b();
        let d = DeviceSpec::rtx5070_laptop();
        // Below the utilization knee, longer prompts gain efficiency, so
        // growth is sublinear; above it, growth is at least linear.
        let short = prefill_time_s(&cfg, &d, 256);
        let long = prefill_time_s(&cfg, &d, 1024);
        assert!(long > short * 1.2, "short {short} long {long}");
        let saturated_a = prefill_time_s(&cfg, &d, 16_384);
        let saturated_b = prefill_time_s(&cfg, &d, 32_768);
        assert!(saturated_b > saturated_a * 1.9);
        assert_eq!(prefill_time_s(&cfg, &d, 0), 0.0);
    }

    #[test]
    fn decode_is_linear_in_tokens() {
        let cfg = ModelConfig::qwen3_4b();
        let d = DeviceSpec::a800();
        let ten = decode_time_s(&cfg, &d, 10);
        let hundred = decode_time_s(&cfg, &d, 100);
        assert!((hundred / ten - 10.0).abs() < 1e-9);
    }

    #[test]
    fn decode_slower_on_weaker_memory() {
        let cfg = ModelConfig::qwen3_0_6b();
        let m2 = decode_time_s(&cfg, &DeviceSpec::apple_m2(), 32);
        let a800 = decode_time_s(&cfg, &DeviceSpec::a800(), 32);
        assert!(m2 > a800 * 5.0);
    }

    #[test]
    fn first_token_dominated_by_prefill_for_long_prompts() {
        let cfg = ModelConfig::qwen3_0_6b();
        let d = DeviceSpec::apple_m2();
        let ftl = first_token_time_s(&cfg, &d, 4096);
        let prefill = prefill_time_s(&cfg, &d, 4096);
        assert!(ftl > prefill);
        assert!(ftl < prefill * 1.2);
    }
}
