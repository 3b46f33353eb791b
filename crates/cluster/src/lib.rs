//! Clustering and dispersion statistics for progressive cluster pruning
//! (§4.1).
//!
//! PRISM decides *when* to prune with a coefficient-of-variation gate over
//! candidate scores and decides *what* to prune by K-Means-clustering the
//! scores and routing whole clusters relative to the boundary cluster (the
//! one containing the K-th ranked candidate). Scores are scalars, so the
//! pruning path is specialized — and fast — for the 1-D case: the paper
//! reports ~1 ms clustering overhead and our Criterion bench
//! (`kmeans` in `prism-bench`) verifies we are far below that.

pub mod kmeans;
pub mod stats;

pub use kmeans::{kmeans_1d, kmeans_auto, Clustering};
pub use stats::{coefficient_of_variation, mean, std_dev};
