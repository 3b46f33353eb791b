//! Deterministic bandwidth throttling for simulated SSDs.
//!
//! Mini-scale weight files are so small that a modern filesystem serves
//! them from page cache at tens of GB/s, which would hide the I/O the paper
//! overlaps. A [`Throttle`] inserts a sleep proportional to bytes moved so a
//! test or bench can dial in a realistic effective bandwidth (the paper's
//! platforms use PCIe 4.0 SSDs around 5 GB/s) — or scale it down so the
//! mini model exhibits the same compute/I-O ratio as the paper-scale model.

use std::time::{Duration, Instant};

/// Bandwidth limiter applied after each read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throttle {
    /// Emulated bandwidth in bytes per second. `None` disables throttling.
    bytes_per_sec: Option<u64>,
    /// Fixed per-request latency (seek/queue time).
    request_latency: Duration,
}

impl Throttle {
    /// No throttling: reads run at native filesystem speed.
    pub const fn unlimited() -> Self {
        Throttle {
            bytes_per_sec: None,
            request_latency: Duration::ZERO,
        }
    }

    /// Throttle to the given bandwidth with zero per-request latency.
    pub const fn bandwidth(bytes_per_sec: u64) -> Self {
        Throttle {
            bytes_per_sec: Some(bytes_per_sec),
            request_latency: Duration::ZERO,
        }
    }

    /// Throttle with both bandwidth and a fixed per-request latency.
    pub const fn with_latency(bytes_per_sec: u64, request_latency: Duration) -> Self {
        Throttle {
            bytes_per_sec: Some(bytes_per_sec),
            request_latency,
        }
    }

    /// Whether this throttle actually limits anything.
    pub fn is_unlimited(&self) -> bool {
        self.bytes_per_sec.is_none() && self.request_latency.is_zero()
    }

    /// The duration a transfer of `bytes` should take under this throttle.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.batch_time(bytes, 1)
    }

    /// The duration `requests` reads moving `bytes` in total should take:
    /// every byte at the bandwidth plus one request latency per read.
    pub fn batch_time(&self, bytes: u64, requests: u32) -> Duration {
        let moving = match self.bytes_per_sec {
            None => Duration::ZERO,
            Some(b) => Duration::from_secs_f64(bytes as f64 / b.max(1) as f64),
        };
        self.request_latency * requests + moving
    }

    /// Blocks until the emulated transfer would have completed, given that
    /// the real read started at `start` and moved `bytes` bytes.
    pub fn pace(&self, start: Instant, bytes: u64) {
        self.pace_batch(start, bytes, 1);
    }

    /// [`Throttle::pace`] for `requests` reads issued back to back since
    /// `start`: one sleep for the whole batch instead of one per read.
    pub fn pace_batch(&self, start: Instant, bytes: u64, requests: u32) {
        if self.is_unlimited() {
            return;
        }
        let target = self.batch_time(bytes, requests);
        let elapsed = start.elapsed();
        if elapsed < target {
            std::thread::sleep(target - elapsed);
        }
    }
}

impl Default for Throttle {
    fn default() -> Self {
        Throttle::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_free() {
        let t = Throttle::unlimited();
        assert!(t.is_unlimited());
        assert_eq!(t.transfer_time(1 << 30), Duration::ZERO);
        let start = Instant::now();
        t.pace(start, 1 << 30);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let t = Throttle::bandwidth(1_000_000); // 1 MB/s
        assert_eq!(t.transfer_time(1_000_000), Duration::from_secs(1));
        assert_eq!(t.transfer_time(500_000), Duration::from_millis(500));
    }

    #[test]
    fn latency_added_per_request() {
        let t = Throttle::with_latency(1_000_000, Duration::from_millis(10));
        assert_eq!(t.transfer_time(0), Duration::from_millis(10));
        assert_eq!(t.transfer_time(1_000_000), Duration::from_millis(1010));
    }

    #[test]
    fn pace_blocks_for_residual_time() {
        let t = Throttle::bandwidth(10_000_000); // 10 MB/s
        let start = Instant::now();
        t.pace(start, 200_000); // 20 ms worth
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn batch_time_charges_every_byte_and_every_request() {
        let t = Throttle::with_latency(1_000_000, Duration::from_millis(10));
        assert_eq!(t.batch_time(1_000_000, 3), Duration::from_millis(1030));
        assert_eq!(t.batch_time(0, 0), Duration::ZERO);
        assert_eq!(t.batch_time(500_000, 1), t.transfer_time(500_000));
        // Latency-only throttles still charge per request.
        let unlimited = Throttle::unlimited();
        assert_eq!(unlimited.batch_time(1 << 30, 7), Duration::ZERO);
    }

    #[test]
    fn zero_bandwidth_clamped() {
        let t = Throttle::bandwidth(0);
        // Must not divide by zero; clamps to 1 B/s.
        assert!(t.transfer_time(2) >= Duration::from_secs(2));
    }
}
