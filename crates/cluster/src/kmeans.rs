//! 1-D K-Means with k-means++ seeding and silhouette-based model selection.
//!
//! Scores at a layer boundary are a handful of scalars (tens of candidates),
//! so exact Lloyd iterations converge in a few steps. [`kmeans_1d`] clusters
//! for a fixed `k`; [`kmeans_auto`] scans `k = 2..=max_k` and keeps the best
//! mean silhouette, which is how the engine finds "statistically distinct
//! clusters" without a tuned `k`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of clustering scalar values.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster id per input value (`0..k`).
    pub assignments: Vec<usize>,
    /// Cluster centroids, ascending order not guaranteed.
    pub centroids: Vec<f32>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f32,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Members of cluster `c` (input indices).
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }

    /// Mean of the input values assigned to cluster `c`.
    pub fn cluster_mean(&self, values: &[f32], c: usize) -> f32 {
        let mut sum = 0.0;
        let mut n = 0_usize;
        for (i, &a) in self.assignments.iter().enumerate() {
            if a == c {
                sum += values[i];
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f32
        }
    }

    /// Mean silhouette coefficient over all points, in `[-1, 1]`.
    ///
    /// Exploits the 1-D setting: distances are absolute differences.
    /// Returns `0.0` when any cluster is empty or `k < 2`.
    pub fn silhouette(&self, values: &[f32]) -> f32 {
        let k = self.k();
        if k < 2 || values.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for (i, &v) in values.iter().enumerate() {
            let own = self.assignments[i];
            // Mean intra-cluster distance (excluding self).
            let mut a_sum = 0.0;
            let mut a_n = 0_usize;
            let mut b_best = f32::INFINITY;
            for c in 0..k {
                let mut sum = 0.0;
                let mut n = 0_usize;
                for (j, &w) in values.iter().enumerate() {
                    if self.assignments[j] == c && j != i {
                        sum += (v - w).abs();
                        n += 1;
                    }
                }
                if c == own {
                    a_sum = sum;
                    a_n = n;
                } else if n > 0 {
                    b_best = b_best.min(sum / n as f32);
                }
            }
            if a_n == 0 || !b_best.is_finite() {
                continue; // Singleton cluster contributes 0.
            }
            let a = a_sum / a_n as f32;
            let denom = a.max(b_best);
            if denom > 0.0 {
                total += (b_best - a) / denom;
            }
        }
        total / values.len() as f32
    }
}

/// Runs Lloyd's algorithm on scalars with k-means++ seeding.
///
/// `k` is clamped to `values.len()`; an empty input yields an empty
/// clustering. Deterministic for a given `seed`.
///
/// # Examples
///
/// ```
/// use prism_cluster::kmeans_1d;
/// let scores = [0.9, 0.88, 0.1, 0.12];
/// let c = kmeans_1d(&scores, 2, 7);
/// assert_eq!(c.assignments[0], c.assignments[1]);
/// assert_ne!(c.assignments[0], c.assignments[2]);
/// ```
pub fn kmeans_1d(values: &[f32], k: usize, seed: u64) -> Clustering {
    let n = values.len();
    if n == 0 || k == 0 {
        return Clustering {
            assignments: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
        };
    }
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ seeding.
    let mut centroids = Vec::with_capacity(k);
    centroids.push(values[rng.gen_range(0..n)]);
    let mut dist2 = vec![0.0_f32; n];
    while centroids.len() < k {
        let mut total = 0.0_f32;
        for (i, &v) in values.iter().enumerate() {
            let d = centroids
                .iter()
                .map(|&c| (v - c) * (v - c))
                .fold(f32::INFINITY, f32::min);
            dist2[i] = d;
            total += d;
        }
        if total <= f32::EPSILON {
            // All remaining points coincide with existing centroids; pad by
            // duplicating (clusters may end up empty and get repaired below).
            centroids.push(values[rng.gen_range(0..n)]);
            continue;
        }
        let mut target = rng.gen::<f32>() * total;
        let mut chosen = n - 1;
        for (i, &d) in dist2.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(values[chosen]);
    }

    let mut assignments = vec![0_usize; n];
    let mut inertia = 0.0_f32;
    for _iter in 0..64 {
        // Assign.
        inertia = 0.0;
        for (i, &v) in values.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, &cen) in centroids.iter().enumerate() {
                let d = (v - cen) * (v - cen);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assignments[i] = best;
            inertia += best_d;
        }
        // Update.
        let mut sums = vec![0.0_f32; k];
        let mut counts = vec![0_usize; k];
        for (i, &v) in values.iter().enumerate() {
            sums[assignments[i]] += v;
            counts[assignments[i]] += 1;
        }
        let mut moved = false;
        for c in 0..k {
            if counts[c] == 0 {
                // Repair empty cluster: move its centroid to the point
                // farthest from its assignment.
                if let Some((idx, _)) = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i, (v - centroids[assignments[i]]).abs()))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                {
                    centroids[c] = values[idx];
                    moved = true;
                }
                continue;
            }
            let new = sums[c] / counts[c] as f32;
            if (new - centroids[c]).abs() > 1e-7 {
                centroids[c] = new;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }

    Clustering {
        assignments,
        centroids,
        inertia,
    }
}

/// Clusters with the best `k ∈ 2..=max_k` by mean silhouette.
///
/// Falls back to `k = 1` when fewer than three values exist or every
/// candidate `k` produces a degenerate silhouette (all values identical).
pub fn kmeans_auto(values: &[f32], max_k: usize, seed: u64) -> Clustering {
    let n = values.len();
    if n < 3 || max_k < 2 {
        return kmeans_1d(values, 1.min(n), seed);
    }
    let spread = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
        - values.iter().cloned().fold(f32::INFINITY, f32::min);
    if spread <= f32::EPSILON {
        return kmeans_1d(values, 1, seed);
    }
    let mut best: Option<(f32, Clustering)> = None;
    for k in 2..=max_k.min(n) {
        let c = kmeans_1d(
            values,
            k,
            seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let s = c.silhouette(values);
        match &best {
            Some((bs, _)) if s <= *bs => {}
            _ => best = Some((s, c)),
        }
    }
    best.map(|(_, c)| c)
        .unwrap_or_else(|| kmeans_1d(values, 1, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_obvious_groups() {
        let values = [0.1_f32, 0.12, 0.11, 0.9, 0.91, 0.88];
        let c = kmeans_1d(&values, 2, 7);
        assert_eq!(c.k(), 2);
        let a = c.assignments[0];
        assert!(c.assignments[..3].iter().all(|&x| x == a));
        assert!(c.assignments[3..].iter().all(|&x| x != a));
        assert!(c.inertia < 0.01);
    }

    #[test]
    fn auto_finds_three_groups() {
        let values = [0.0_f32, 0.02, 0.01, 0.5, 0.52, 0.49, 1.0, 0.98, 1.02];
        let c = kmeans_auto(&values, 5, 3);
        assert_eq!(c.k(), 3, "assignments {:?}", c.assignments);
        // Groups are internally consistent.
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[3], c.assignments[5]);
        assert_eq!(c.assignments[6], c.assignments[8]);
        assert_ne!(c.assignments[0], c.assignments[3]);
        assert_ne!(c.assignments[3], c.assignments[6]);
    }

    #[test]
    fn identical_values_fall_back_to_one_cluster() {
        let values = [0.5_f32; 8];
        let c = kmeans_auto(&values, 4, 1);
        assert_eq!(c.k(), 1);
        assert!(c.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn k_clamped_to_n() {
        let values = [1.0_f32, 2.0];
        let c = kmeans_1d(&values, 10, 0);
        assert_eq!(c.k(), 2);
        assert_ne!(c.assignments[0], c.assignments[1]);
    }

    #[test]
    fn empty_and_k_zero() {
        let c = kmeans_1d(&[], 3, 0);
        assert_eq!(c.k(), 0);
        assert!(c.assignments.is_empty());
        let c = kmeans_1d(&[1.0], 0, 0);
        assert_eq!(c.k(), 0);
    }

    #[test]
    fn deterministic_for_seed() {
        let values: Vec<f32> = (0..32).map(|i| ((i * 37) % 13) as f32 * 0.1).collect();
        let a = kmeans_1d(&values, 4, 42);
        let b = kmeans_1d(&values, 4, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn members_and_cluster_mean() {
        let values = [0.0_f32, 0.1, 1.0, 1.1];
        let c = kmeans_1d(&values, 2, 9);
        let low_cluster = c.assignments[0];
        let members = c.members(low_cluster);
        assert!(members.contains(&0) && members.contains(&1));
        let m = c.cluster_mean(&values, low_cluster);
        assert!((m - 0.05).abs() < 1e-6);
        // Empty cluster id yields 0 mean.
        assert_eq!(c.cluster_mean(&values, 99), 0.0);
    }

    #[test]
    fn silhouette_prefers_true_k() {
        let values = [0.0_f32, 0.01, 0.02, 0.98, 0.99, 1.0];
        let two = kmeans_1d(&values, 2, 5);
        let four = kmeans_1d(&values, 4, 5);
        assert!(two.silhouette(&values) > four.silhouette(&values));
    }

    #[test]
    fn singletons_do_not_poison_silhouette() {
        let values = [0.0_f32, 1.0, 2.0];
        let c = kmeans_1d(&values, 3, 2);
        let s = c.silhouette(&values);
        assert!(s.is_finite());
    }

    #[test]
    fn inertia_decreases_with_k() {
        let values: Vec<f32> = (0..24).map(|i| (i as f32 * 0.77).sin()).collect();
        let k2 = kmeans_1d(&values, 2, 11);
        let k6 = kmeans_1d(&values, 6, 11);
        assert!(k6.inertia <= k2.inertia + 1e-5);
    }
}
