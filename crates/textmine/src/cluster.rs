//! One-dimensional k-means clustering.
//!
//! Used to group the prices mined from adversary listings: the dominant cluster's
//! centre is the purchase price per insider attack (PPIA), while a clearly separated
//! lower cluster usually corresponds to the bare component cost (VCU).

/// A cluster of one-dimensional observations.
#[derive(Debug)]
pub struct Cluster {
    /// The cluster centre.
    pub center: f64,
    /// The member observations.
    pub members: Vec<f64>,
}

impl Cluster {
    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Runs k-means on one-dimensional data.  Returns clusters sorted by centre
/// (ascending).  `k` is clamped to the number of distinct values; an empty input
/// yields an empty result.  The initialisation is deterministic (evenly spaced
/// quantiles), so results are reproducible without a random seed.
#[must_use]
pub fn kmeans_1d(values: &[f64], k: usize, max_iterations: usize) -> Vec<Cluster> {
    let mut data: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if data.is_empty() || k == 0 {
        return Vec::new();
    }
    data.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let distinct = {
        let mut d = data.clone();
        d.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON);
        d.len()
    };
    let k = k.min(distinct).max(1);

    // Initialise centres at evenly spaced quantiles of the sorted data.
    let mut centers: Vec<f64> = (0..k)
        .map(|i| {
            let idx = (i * (data.len() - 1)) / k.max(1);
            data[idx.min(data.len() - 1)]
        })
        .collect();
    centers.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON);
    while centers.len() < k {
        let last = *centers.last().expect("at least one centre");
        centers.push(last + 1.0);
    }

    let mut assignments = vec![0usize; data.len()];
    for _ in 0..max_iterations.max(1) {
        let mut changed = false;
        for (i, value) in data.iter().enumerate() {
            let nearest = centers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    (*value - **a)
                        .abs()
                        .partial_cmp(&(*value - **b).abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(idx, _)| idx)
                .unwrap_or(0);
            if assignments[i] != nearest {
                assignments[i] = nearest;
                changed = true;
            }
        }
        for (ci, center) in centers.iter_mut().enumerate() {
            let members: Vec<f64> = data
                .iter()
                .zip(&assignments)
                .filter(|(_, a)| **a == ci)
                .map(|(v, _)| *v)
                .collect();
            if !members.is_empty() {
                *center = members.iter().sum::<f64>() / members.len() as f64;
            }
        }
        if !changed {
            break;
        }
    }

    let mut clusters: Vec<Cluster> = centers
        .iter()
        .enumerate()
        .map(|(ci, center)| Cluster {
            center: *center,
            members: data
                .iter()
                .zip(&assignments)
                .filter(|(_, a)| **a == ci)
                .map(|(v, _)| *v)
                .collect(),
        })
        .filter(|c| !c.is_empty())
        .collect();
    clusters.sort_by(|a, b| {
        a.center
            .partial_cmp(&b.center)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    clusters
}

/// The largest cluster (by member count) of a clustering, breaking ties toward the
/// higher centre — the "dominant price point" of a listing scene.
#[must_use]
pub fn dominant_cluster(clusters: &[Cluster]) -> Option<&Cluster> {
    clusters.iter().max_by(|a, b| {
        a.len().cmp(&b.len()).then(
            a.center
                .partial_cmp(&b.center)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_obvious_groups() {
        let values = [50.0, 55.0, 60.0, 350.0, 360.0, 365.0, 370.0];
        let clusters = kmeans_1d(&values, 2, 50);
        assert_eq!(clusters.len(), 2);
        assert!(clusters[0].center < 100.0);
        assert!(clusters[1].center > 300.0);
        assert_eq!(clusters[0].len(), 3);
        assert_eq!(clusters[1].len(), 4);
    }

    #[test]
    fn dominant_cluster_is_the_biggest() {
        let values = [50.0, 55.0, 350.0, 360.0, 365.0];
        let clusters = kmeans_1d(&values, 2, 50);
        let dom = dominant_cluster(&clusters).unwrap();
        assert!(dom.center > 300.0);
    }

    #[test]
    fn k_larger_than_distinct_values_is_clamped() {
        let values = [10.0, 10.0, 10.0];
        let clusters = kmeans_1d(&values, 5, 10);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(kmeans_1d(&[], 3, 10).is_empty());
        assert!(dominant_cluster(&[]).is_none());
    }

    #[test]
    fn k_zero_gives_empty_output() {
        assert!(kmeans_1d(&[1.0, 2.0], 0, 10).is_empty());
    }

    #[test]
    fn nan_values_are_ignored() {
        let values = [f64::NAN, 100.0, 110.0];
        let clusters = kmeans_1d(&values, 1, 10);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 2);
    }

    #[test]
    fn all_members_are_preserved() {
        let values = [1.0, 2.0, 3.0, 100.0, 101.0, 200.0];
        let clusters = kmeans_1d(&values, 3, 100);
        let total: usize = clusters.iter().map(Cluster::len).sum();
        assert_eq!(total, values.len());
    }

    #[test]
    fn clusters_sorted_by_center() {
        let values = [300.0, 10.0, 150.0, 12.0, 310.0, 145.0];
        let clusters = kmeans_1d(&values, 3, 100);
        for pair in clusters.windows(2) {
            assert!(pair[0].center <= pair[1].center);
        }
    }
}
