//! Degree-of-overlap analysis of retained parameters (Section 4.1.3, Fig. 4).
//!
//! After sparsification, each coordinate of the model update is retained by
//! some subset of the selected clients. The *degree of overlap* of a
//! coordinate is the number of clients that retained it. The paper observes
//! that under high compression most retained coordinates appear in only one
//! client's update, which uniform averaging then shrinks by a factor of the
//! cohort size — the motivation for OPWA.

use fl_compress::SparseUpdate;
use fl_tensor::stats::Histogram;
use serde::{Deserialize, Serialize};

/// Per-coordinate overlap counts for one round's cohort. Counts are `u32`:
/// a cohort of 10^5 clients (which validation accepts) can retain the same
/// coordinate more than `u16::MAX` times.
#[derive(Clone, Debug)]
pub struct OverlapCounts {
    counts: Vec<u32>,
    cohort_size: usize,
}

impl OverlapCounts {
    /// Count, for every coordinate, how many of the given sparse updates
    /// retained it. All updates must share the same dense length.
    pub fn from_updates(updates: &[&SparseUpdate]) -> Self {
        assert!(!updates.is_empty(), "need at least one update");
        let dense_len = updates[0].dense_len();
        assert!(
            updates.iter().all(|u| u.dense_len() == dense_len),
            "updates have mismatched dense lengths"
        );
        let mut counts = vec![0u32; dense_len];
        for u in updates {
            for &i in u.indices() {
                counts[i as usize] += 1;
            }
        }
        Self {
            counts,
            cohort_size: updates.len(),
        }
    }

    /// Number of clients in the cohort.
    pub fn cohort_size(&self) -> usize {
        self.cohort_size
    }

    /// Overlap degree of coordinate `i` (0 if nobody retained it).
    pub fn degree(&self, i: usize) -> usize {
        self.counts[i] as usize
    }

    /// Raw per-coordinate counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of coordinates retained by at least one client.
    pub fn retained_coordinates(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Summarise into the Fig. 4 distribution.
    pub fn stats(&self) -> OverlapStats {
        let mut hist = Histogram::new(self.cohort_size.max(1));
        for &c in &self.counts {
            if c > 0 {
                hist.record(c as usize);
            }
        }
        OverlapStats {
            cohort_size: self.cohort_size,
            total_retained: hist.total(),
            histogram_counts: hist.counts().to_vec(),
            fractions: hist.fractions(),
        }
    }
}

/// The degree-of-overlap distribution of one round (Fig. 4): how many
/// retained coordinates were kept by exactly 1, 2, …, |S_t| clients.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlapStats {
    /// Number of clients in the cohort (|S_t|).
    pub cohort_size: usize,
    /// Total number of distinct retained coordinates.
    pub total_retained: u64,
    /// `histogram_counts[d-1]` = number of coordinates retained by exactly
    /// `d` clients.
    pub histogram_counts: Vec<u64>,
    /// The same distribution as fractions of `total_retained`.
    pub fractions: Vec<f64>,
}

impl OverlapStats {
    /// Fraction of retained coordinates that appear in only one client's
    /// update (the paper's headline statistic: ≈ 87 % at β=0.1, CR=0.01).
    pub fn singleton_fraction(&self) -> f64 {
        self.fractions.first().copied().unwrap_or(0.0)
    }

    /// Merge (sum) another round's statistics into this one.
    pub fn merge(&mut self, other: &OverlapStats) {
        assert_eq!(self.cohort_size, other.cohort_size, "cohort size mismatch");
        self.total_retained += other.total_retained;
        for (a, b) in self
            .histogram_counts
            .iter_mut()
            .zip(other.histogram_counts.iter())
        {
            *a += *b;
        }
        let total = self.total_retained.max(1) as f64;
        self.fractions = self
            .histogram_counts
            .iter()
            .map(|&c| c as f64 / total)
            .collect();
    }

    /// CSV rows (`degree,count,fraction`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("degree,count,fraction\n");
        for (i, (&c, &f)) in self
            .histogram_counts
            .iter()
            .zip(self.fractions.iter())
            .enumerate()
        {
            out.push_str(&format!("{},{},{:.6}\n", i + 1, c, f));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::rng::{Rng, Xoshiro256};

    fn sparse(indices: Vec<u32>, len: usize) -> SparseUpdate {
        let values = vec![1.0f32; indices.len()];
        SparseUpdate::new(indices, values, len)
    }

    #[test]
    fn counts_small_example() {
        // Mirrors the paper's Fig. 3: three clients, overlapping retention.
        let c1 = sparse(vec![1, 4, 7], 8);
        let c2 = sparse(vec![1, 5, 7], 8);
        let c3 = sparse(vec![1, 7], 8);
        let counts = OverlapCounts::from_updates(&[&c1, &c2, &c3]);
        assert_eq!(counts.degree(1), 3);
        assert_eq!(counts.degree(7), 3);
        assert_eq!(counts.degree(4), 1);
        assert_eq!(counts.degree(0), 0);
        assert_eq!(counts.retained_coordinates(), 4);
        let stats = counts.stats();
        assert_eq!(stats.total_retained, 4);
        assert_eq!(stats.histogram_counts, vec![2, 0, 2]); // {4,5} once, {1,7} thrice
        assert!((stats.singleton_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_do_not_wrap_past_u16() {
        // 2^16 clients keeping the same coordinate: a 16-bit counter would
        // overflow (panic in debug builds, wrap to 0 in release builds and
        // drop the coordinate from OPWA and the histogram).
        let n = 65_536;
        let one = sparse(vec![0], 2);
        let updates: Vec<&SparseUpdate> = std::iter::repeat_n(&one, n).collect();
        let counts = OverlapCounts::from_updates(&updates);
        assert_eq!(counts.degree(0), 65_536);
        assert_eq!(counts.degree(1), 0);
        assert_eq!(counts.retained_coordinates(), 1);
    }

    #[test]
    fn disjoint_updates_are_all_singletons() {
        let c1 = sparse(vec![0, 1], 6);
        let c2 = sparse(vec![2, 3], 6);
        let c3 = sparse(vec![4, 5], 6);
        let stats = OverlapCounts::from_updates(&[&c1, &c2, &c3]).stats();
        assert_eq!(stats.singleton_fraction(), 1.0);
        assert_eq!(stats.total_retained, 6);
    }

    #[test]
    fn identical_updates_max_overlap() {
        let c = sparse(vec![0, 3, 5], 8);
        let stats = OverlapCounts::from_updates(&[&c, &c, &c, &c]).stats();
        assert_eq!(stats.histogram_counts, vec![0, 0, 0, 3]);
        assert_eq!(stats.singleton_fraction(), 0.0);
    }

    #[test]
    fn higher_compression_gives_more_singletons() {
        // With random-ish dense vectors, higher compression (smaller CR)
        // produces a larger fraction of singleton coordinates — the paper's
        // core observation (Fig. 4: CR=0.01 → 87 %, CR=0.1 → 59 %).
        let mut rng = Xoshiro256::new(9);
        let dense: Vec<Vec<f32>> = (0..5)
            .map(|_| (0..2000).map(|_| rng.next_f32() - 0.5).collect())
            .collect();
        let singleton_at = |cr: f64| {
            let updates: Vec<SparseUpdate> =
                dense.iter().map(|d| fl_compress::topk(d, cr)).collect();
            let refs: Vec<&SparseUpdate> = updates.iter().collect();
            OverlapCounts::from_updates(&refs)
                .stats()
                .singleton_fraction()
        };
        let high_compression = singleton_at(0.01);
        let low_compression = singleton_at(0.5);
        assert!(
            high_compression > low_compression,
            "CR=0.01 singleton fraction {high_compression} should exceed CR=0.5 {low_compression}"
        );
    }

    #[test]
    fn merge_accumulates_rounds() {
        let c1 = sparse(vec![0], 4);
        let c2 = sparse(vec![0], 4);
        let mut a = OverlapCounts::from_updates(&[&c1, &c2]).stats();
        let d1 = sparse(vec![1], 4);
        let d2 = sparse(vec![2], 4);
        let b = OverlapCounts::from_updates(&[&d1, &d2]).stats();
        a.merge(&b);
        assert_eq!(a.total_retained, 3);
        assert_eq!(a.histogram_counts, vec![2, 1]);
        let sum: f64 = a.fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csv_render() {
        let c1 = sparse(vec![0, 1], 4);
        let c2 = sparse(vec![1], 4);
        let csv = OverlapCounts::from_updates(&[&c1, &c2]).stats().to_csv();
        assert!(csv.starts_with("degree,"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        let a = sparse(vec![0], 4);
        let b = sparse(vec![0], 5);
        OverlapCounts::from_updates(&[&a, &b]);
    }
}
