//! Device specifications calibrated to the paper's platforms (§6.1).
//!
//! Effective throughputs are *fitted*, not datasheet numbers: they were
//! chosen so the vanilla-HF simulator lands near the paper's reported
//! absolute latencies (e.g. ~5.7 s for Qwen3-0.6B × 20 candidates × 512
//! tokens on the Mac Mini, Fig. 1), after which every other number in the
//! evaluation is *derived*. See `EXPERIMENTS.md` for the calibration table.

use serde::{Deserialize, Serialize};

/// A platform the paper evaluates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Platform name.
    pub name: String,
    /// Whether CPU and accelerator share one memory pool (Apple silicon).
    pub unified_memory: bool,
    /// Effective dense matmul throughput in FLOP/s at full utilization.
    pub compute_flops: f64,
    /// Multiplier on matmul throughput for W4A16 kernels. Below 1.0:
    /// dequantization costs compute on prefill-bound workloads (§2.3).
    pub quant_kernel_factor: f64,
    /// Accelerator-visible memory capacity in bytes (VRAM, or the usable
    /// fraction of unified memory).
    pub mem_capacity: u64,
    /// Accelerator memory bandwidth in bytes/s (bounds decode and
    /// activation traffic).
    pub mem_bandwidth: f64,
    /// Sustained SSD read bandwidth in bytes/s.
    pub ssd_bandwidth: f64,
    /// Fixed per-I/O-request latency in seconds.
    pub ssd_latency: f64,
    /// Tokens at which matmul utilization reaches 50% (small batches
    /// underutilize wide accelerators — this drives the chunk-size lower
    /// bound of §4.3).
    pub half_saturation_tokens: f64,
    /// Baseline framework/runtime resident bytes (CUDA context, torch
    /// allocator pools, Python heap — present in every measured curve).
    pub framework_overhead: u64,
}

impl DeviceSpec {
    /// Matmul utilization for a given number of in-flight tokens,
    /// in `(0, 1]`.
    pub fn utilization(&self, tokens: u64) -> f64 {
        let t = tokens as f64;
        (t / (t + self.half_saturation_tokens)).max(1e-3)
    }

    /// Seconds to execute `macs` multiply-accumulates at `tokens`-level
    /// utilization with an optional quantized-kernel factor.
    pub fn compute_time_s(&self, macs: u64, tokens: u64, quant: bool) -> f64 {
        let flops = 2.0 * macs as f64;
        let mut throughput = self.compute_flops * self.utilization(tokens);
        if quant {
            throughput *= self.quant_kernel_factor;
        }
        flops / throughput
    }

    /// Seconds to read `bytes` from SSD (one request).
    pub fn ssd_read_time_s(&self, bytes: u64) -> f64 {
        self.ssd_latency + bytes as f64 / self.ssd_bandwidth
    }

    /// Capacity actually available to one inference process: nominal
    /// capacity minus allocator-fragmentation and runtime-reservation
    /// headroom (real frameworks OOM well before the nominal size).
    pub fn usable_capacity(&self) -> u64 {
        self.mem_capacity / 100 * 85
    }

    /// The NVIDIA evaluation laptop: RTX 5070 Laptop GPU (8 GiB), PCIe 4.0
    /// SSD.
    pub fn rtx5070_laptop() -> Self {
        DeviceSpec {
            name: "NVIDIA RTX 5070 Laptop".into(),
            unified_memory: false,
            compute_flops: 6.5e12,
            quant_kernel_factor: 0.85,
            mem_capacity: 8 * (1 << 30),
            mem_bandwidth: 384.0e9,
            ssd_bandwidth: 5.0e9,
            ssd_latency: 100e-6,
            half_saturation_tokens: 320.0,
            framework_overhead: 100 << 20,
        }
    }

    /// The Apple evaluation machine: Mac Mini M2, 16 GiB unified memory.
    pub fn apple_m2() -> Self {
        DeviceSpec {
            name: "Apple M2 Mac Mini".into(),
            unified_memory: true,
            compute_flops: 1.45e12,
            quant_kernel_factor: 0.80,
            // Accelerator budget of the 16 GiB unified pool after the OS
            // and resident apps take their share.
            mem_capacity: 8 * (1 << 30),
            mem_bandwidth: 100.0e9,
            ssd_bandwidth: 3.0e9,
            ssd_latency: 120e-6,
            half_saturation_tokens: 96.0,
            framework_overhead: 110 << 20,
        }
    }

    /// The server GPU used only to measure the Fig. 9 HF curves that OOM
    /// on the laptop.
    pub fn a800() -> Self {
        DeviceSpec {
            name: "NVIDIA A800".into(),
            unified_memory: false,
            compute_flops: 120.0e12,
            quant_kernel_factor: 0.9,
            mem_capacity: 80 * (1 << 30),
            mem_bandwidth: 2.0e12,
            ssd_bandwidth: 6.0e9,
            ssd_latency: 80e-6,
            half_saturation_tokens: 8192.0,
            framework_overhead: 300 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_monotone_and_bounded() {
        let d = DeviceSpec::rtx5070_laptop();
        assert!(d.utilization(100) < d.utilization(1000));
        assert!(d.utilization(1000) < d.utilization(100_000));
        assert!(d.utilization(1 << 30) <= 1.0);
        assert!(d.utilization(0) > 0.0);
        // Half saturation point by definition.
        let half = d.utilization(d.half_saturation_tokens as u64);
        assert!((half - 0.5).abs() < 1e-6);
    }

    #[test]
    fn compute_time_scales_inversely_with_utilization() {
        let d = DeviceSpec::rtx5070_laptop();
        let macs = 1_000_000_000;
        let small = d.compute_time_s(macs, 64, false);
        let large = d.compute_time_s(macs, 1 << 20, false);
        assert!(small > large * 2.0, "small-batch must be much slower");
    }

    #[test]
    fn quant_kernel_slower_on_prefill() {
        let d = DeviceSpec::apple_m2();
        let dense = d.compute_time_s(1 << 30, 10_000, false);
        let quant = d.compute_time_s(1 << 30, 10_000, true);
        assert!(quant > dense);
    }

    #[test]
    fn ssd_time_includes_latency_floor() {
        let d = DeviceSpec::rtx5070_laptop();
        assert!(d.ssd_read_time_s(0) >= 100e-6);
        let one_gb = d.ssd_read_time_s(1 << 30);
        assert!((one_gb - (100e-6 + (1u64 << 30) as f64 / 5.0e9)).abs() < 1e-9);
    }

    #[test]
    fn platform_ordering_sane() {
        let m2 = DeviceSpec::apple_m2();
        let rtx = DeviceSpec::rtx5070_laptop();
        let a800 = DeviceSpec::a800();
        assert!(m2.compute_flops < rtx.compute_flops);
        assert!(rtx.compute_flops < a800.compute_flops);
        assert!(rtx.mem_capacity < a800.mem_capacity);
        assert!(m2.unified_memory && !rtx.unified_memory);
    }

    #[test]
    fn calibration_hits_fig1_mac_mini_latency() {
        // Fig. 1: Qwen3-0.6B, 20 candidates, seq 512, Mac Mini -> 5754 ms.
        use prism_model::ModelConfig;
        let cfg = ModelConfig::qwen3_0_6b();
        let d = DeviceSpec::apple_m2();
        let tokens = 20 * 512_u64;
        let per_layer = cfg.layer_macs(tokens, 512);
        let total_s: f64 = (0..cfg.num_layers)
            .map(|_| d.compute_time_s(per_layer, tokens, false))
            .sum();
        assert!(
            (4.5..7.5).contains(&total_s),
            "Mac Mini 0.6B full forward {total_s:.2}s should be near the paper's 5.75s"
        );
    }
}
