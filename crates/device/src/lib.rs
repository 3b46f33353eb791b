//! Edge-device cost models and the two-resource timeline simulator.
//!
//! The paper measures wall-clock latency and resident memory of real
//! checkpoints on an RTX 5070 Laptop GPU, an Apple M2 Mac Mini and (for
//! one out-of-memory curve) an NVIDIA A800. This crate reproduces those
//! measurements *analytically*: model configs supply exact FLOP and byte
//! counts, device specs supply calibrated throughput / bandwidth /
//! capacity, and per-system simulators ([`sim`]) walk the execution
//! schedule of each compared system — including the compute/I-O pipeline
//! overlap of PRISM's layer streaming — emitting latency, peak/average
//! memory, a memory-vs-time curve, and OOM verdicts.
//!
//! The simulators consume [`sim::PruneSchedule`]s recorded by the *real*
//! PRISM engine running mini-scale models, so simulated latency reflects
//! actual pruning behaviour rather than an assumed schedule (DESIGN.md §2).

pub mod cost;
pub mod sim;
pub mod spec;

pub use cost::{decode_time_s, prefill_time_s};
pub use sim::{
    simulate_hf, simulate_hf_offload, simulate_hf_quant, simulate_prism, BatchShape,
    PrismSimOptions, PruneSchedule, SimOutcome,
};
pub use spec::DeviceSpec;
