//! Dense `f32` tensor kernels for the PRISM reranking runtime.
//!
//! This crate is the lowest substrate of the PRISM reproduction. It provides
//! exactly the operations a prefill-only transformer cross-encoder needs:
//!
//! * a row-major 2-D [`Tensor`] with shape-checked, `Result`-based kernels,
//! * matrix multiplication (plain and `B`-transposed) with optional
//!   row-parallel execution,
//! * row-wise softmax (with causal masking), RMS / layer normalization,
//!   SiLU / GELU / tanh activations,
//! * block-wise 4-bit weight quantization ([`quant::QuantMatrix`]) matching
//!   the W4A16 setup the paper uses for its `HF Quant` / `PRISM Quant`
//!   baselines,
//! * per-row affine 8-bit activation quantization ([`rowq`]) backing the
//!   compressed hidden-state spill format,
//! * integer GEMM micro-kernels ([`igemm`]) that multiply rowq-encoded
//!   activations against per-row symmetric i8 weights entirely in i32
//!   accumulators — the compute half of the int8 path,
//! * [`LruIndex`], the one recency list behind every bounded cache
//!   (embedding rows, serving sessions, semantic-cache entries).
//!
//! The only `unsafe` in this crate is the runtime-dispatched
//! `#[target_feature]` SIMD kernels (AVX2 / AVX-512), each guarded by a
//! feature check at the dispatch site.

pub mod error;
pub mod igemm;
pub mod lru;
pub mod ops;
pub mod quant;
pub mod rowq;
pub mod tensor;

pub use error::TensorError;
pub use igemm::{Int8Matrix, RowQuantBlock};
pub use lru::LruIndex;
pub use quant::QuantMatrix;
pub use tensor::Tensor;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
