//! Sparsification kernels: the plain selection functions the sparsifying
//! codecs ([`crate::TopKCodec`], [`crate::RandKCodec`],
//! [`crate::ThresholdCodec`]) call before encoding.
//!
//! Each kernel maps a dense delta and a target `ratio` (the fraction of
//! coordinates to retain, clamped to `[0, 1]`) to a [`SparseUpdate`] with
//! strictly increasing indices. All of them are deterministic, so
//! experiments replay exactly.

use crate::sparse::SparseUpdate;
use fl_tensor::rng::{Rng, SplitMix64};

/// Number of coordinates retained for a vector of length `len` at `ratio`.
/// At least one coordinate is kept for any positive ratio and non-empty
/// vector; the ratio is clamped to `[0, 1]`.
pub fn k_for(len: usize, ratio: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let ratio = ratio.clamp(0.0, 1.0);
    if ratio == 0.0 {
        return 0;
    }
    ((ratio * len as f64).ceil() as usize).clamp(1, len)
}

/// Select the indices of the `k` largest-magnitude entries, returned in
/// increasing index order.
///
/// The comparator is a **total order** (`f32::total_cmp` over absolute
/// values, ties broken towards lower indices), so NaN gradients cannot
/// poison `select_nth_unstable_by`: an inconsistent comparator (such as
/// `partial_cmp` falling back to `Equal`) breaks the transitivity that
/// partial selection relies on. Under `total_cmp`, `|NaN|` orders above
/// every finite magnitude and `+∞`, so NaN entries are deterministically
/// retained first — they stay visible to the server instead of being
/// silently dropped or scrambling the selection.
pub fn select_indices(dense: &[f32], k: usize) -> Vec<u32> {
    let k = k.min(dense.len());
    if k == 0 {
        return Vec::new();
    }
    if k == dense.len() {
        return (0..dense.len() as u32).collect();
    }
    // Partial selection: sort index list by |value| descending using
    // select_nth_unstable for O(n) average behaviour.
    let mut idx: Vec<u32> = (0..dense.len() as u32).collect();
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        let va = dense[a as usize].abs();
        let vb = dense[b as usize].abs();
        vb.total_cmp(&va).then(a.cmp(&b))
    });
    let mut selected = idx[..k].to_vec();
    selected.sort_unstable();
    selected
}

/// Magnitude Top-K — the paper's primary compressor: retain the
/// [`k_for`]`(len, ratio)` largest-magnitude coordinates (ties broken
/// towards lower indices), zeroing the rest.
///
/// ```
/// let delta = vec![0.1, -5.0, 0.3, 4.0, -0.2];
/// let sparse = fl_compress::topk(&delta, 0.4); // keep 2 of 5
/// assert_eq!(sparse.indices(), &[1, 3]);
/// assert_eq!(sparse.values(), &[-5.0, 4.0]);
/// assert_eq!(sparse.wire_size_bytes(), 16); // 8 bytes per retained coord
/// ```
pub fn topk(dense: &[f32], ratio: f64) -> SparseUpdate {
    let indices = select_indices(dense, k_for(dense.len(), ratio));
    let values = indices.iter().map(|&i| dense[i as usize]).collect();
    SparseUpdate::new(indices, values, dense.len())
}

/// Uniform Rand-K: retain [`k_for`]`(len, ratio)` uniformly random
/// coordinates, rescaled by `len / k` so the result is an unbiased estimator
/// of `dense`.
///
/// The coordinates are drawn from `SplitMix64(seed ^ fingerprint(dense))`,
/// so the same input and seed always select the same set (replayable
/// experiments) while different rounds see different sets.
pub fn randk(dense: &[f32], ratio: f64, seed: u64) -> SparseUpdate {
    let k = k_for(dense.len(), ratio);
    if k == 0 {
        return SparseUpdate::empty(dense.len());
    }
    let mut rng = SplitMix64::new(seed ^ input_fingerprint(dense));
    let mut chosen = rng.sample_without_replacement(dense.len(), k);
    chosen.sort_unstable();
    let scale = dense.len() as f32 / k as f32;
    let indices = chosen.iter().map(|&i| i as u32).collect();
    let values = chosen.iter().map(|&i| dense[i] * scale).collect();
    SparseUpdate::new(indices, values, dense.len())
}

/// Cheap FNV-style fold over a strided sample of the bit patterns; it only
/// needs to vary between rounds, not be cryptographic.
fn input_fingerprint(dense: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in dense.iter().step_by((dense.len() / 64).max(1)) {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^= dense.len() as u64;
    h
}

/// Hard-threshold sparsification: keep every non-zero coordinate with
/// `|x_i| >= tau`, where `tau` is [`threshold_for`]`(dense, ratio)`.
///
/// Unlike Top-K the achieved ratio is only approximately the target, but the
/// retained set is "all coordinates that matter at least this much", which
/// some FL systems prefer.
pub fn threshold(dense: &[f32], ratio: f64) -> SparseUpdate {
    let tau = threshold_for(dense, ratio);
    SparseUpdate::from_dense_mask(dense, |_, v| v.abs() >= tau && v != 0.0)
}

/// The magnitude threshold for a retention `ratio`: the `1 − ratio`
/// quantile of `|dense|`. Magnitudes are ordered with `f32::total_cmp`, so
/// a NaN delta sorts above every finite magnitude instead of panicking.
pub fn threshold_for(dense: &[f32], ratio: f64) -> f32 {
    if dense.is_empty() {
        return 0.0;
    }
    let ratio = ratio.clamp(0.0, 1.0);
    if ratio >= 1.0 {
        return 0.0;
    }
    if ratio <= 0.0 {
        return f32::INFINITY;
    }
    let mut mags: Vec<f32> = dense.iter().map(|v| v.abs()).collect();
    mags.sort_unstable_by(f32::total_cmp);
    let cut = ((1.0 - ratio) * dense.len() as f64).floor() as usize;
    mags[cut.min(dense.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let dense = vec![0.1, -5.0, 0.3, 4.0, -0.2];
        let s = topk(&dense, 0.4); // k = 2
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.values(), &[-5.0, 4.0]);
    }

    #[test]
    fn k_for_boundaries() {
        assert_eq!(k_for(100, 0.1), 10);
        assert_eq!(k_for(100, 0.001), 1); // at least one retained
        assert_eq!(k_for(100, 0.0), 0);
        assert_eq!(k_for(100, 1.5), 100);
        assert_eq!(k_for(0, 0.5), 0);
        assert_eq!(k_for(7, 0.5), 4); // ceil(3.5)
    }

    #[test]
    fn topk_ratio_one_keeps_everything() {
        let dense = vec![1.0, 0.0, -2.0];
        assert_eq!(topk(&dense, 1.0).to_dense(), dense);
    }

    #[test]
    fn topk_zero_ratio_keeps_nothing() {
        assert_eq!(topk(&[1.0, 2.0], 0.0).nnz(), 0);
    }

    #[test]
    fn nan_entries_are_retained_deterministically() {
        // A NaN gradient must not scramble the selection: total_cmp ranks
        // |NaN| above every finite magnitude, so the NaN coordinate is
        // retained first and the rest of the selection is the usual Top-K.
        let dense = vec![0.1, f32::NAN, 0.3, -4.0, 0.2];
        let a = select_indices(&dense, 2);
        let b = select_indices(&dense, 2);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 3], "NaN first, then the largest finite entry");
        // Full compression round-trips without panicking.
        assert_eq!(topk(&dense, 0.4).nnz(), 2);
    }

    #[test]
    fn all_nan_input_selects_lowest_indices() {
        let dense = vec![f32::NAN; 6];
        let sel = select_indices(&dense, 3);
        assert_eq!(sel, vec![0, 1, 2], "index tie-break orders equal NaNs");
    }

    #[test]
    fn negative_nan_is_ordered_like_positive_nan() {
        // abs() clears the sign bit, so -NaN and NaN compare identically and
        // the index tie-break decides.
        let dense = vec![f32::from_bits(0xFFC0_0000), 1.0, f32::NAN];
        let sel = select_indices(&dense, 2);
        assert_eq!(sel, vec![0, 2]);
    }

    #[test]
    fn topk_deterministic_under_ties() {
        let dense = vec![1.0, 1.0, 1.0, 1.0];
        let a = topk(&dense, 0.5);
        assert_eq!(a.indices(), topk(&dense, 0.5).indices());
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn randk_retains_requested_count() {
        let dense: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(randk(&dense, 0.1, 1).nnz(), 10);
    }

    #[test]
    fn randk_same_input_same_output() {
        let dense: Vec<f32> = (0..50).map(|i| (i as f32).sin()).collect();
        assert_eq!(
            randk(&dense, 0.2, 7).indices(),
            randk(&dense, 0.2, 7).indices()
        );
    }

    #[test]
    fn randk_different_inputs_pick_different_coordinates() {
        let d1: Vec<f32> = (0..200).map(|i| (i as f32).sin()).collect();
        let d2: Vec<f32> = (0..200).map(|i| (i as f32).cos()).collect();
        assert_ne!(randk(&d1, 0.1, 7).indices(), randk(&d2, 0.1, 7).indices());
    }

    #[test]
    fn randk_scaling_preserves_the_sum() {
        // Expectation over the randomness equals the original sum; with a
        // constant vector this holds exactly per draw.
        let dense = vec![2.0f32; 100];
        let sum: f32 = randk(&dense, 0.25, 3).values().iter().sum();
        assert!((sum - 200.0).abs() < 1e-3);
    }

    #[test]
    fn randk_nan_entries_do_not_poison_selection() {
        // Rand-K never compares values (coordinates are drawn by index and
        // the fingerprint folds raw bit patterns), so NaN gradients must pass
        // through untouched: same count, deterministic coordinate choice.
        let mut dense: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        dense[17] = f32::NAN;
        let a = randk(&dense, 0.1, 7);
        assert_eq!(a.nnz(), 10);
        assert_eq!(a.indices(), randk(&dense, 0.1, 7).indices());
    }

    #[test]
    fn threshold_keeps_large_magnitudes_only() {
        let dense = vec![0.1, 5.0, -0.2, -6.0, 0.05];
        assert_eq!(threshold(&dense, 0.4).indices(), &[1, 3]);
    }

    #[test]
    fn threshold_achieved_ratio_close_to_target() {
        let dense: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 997) as f32 / 997.0 - 0.5)
            .collect();
        let achieved = threshold(&dense, 0.1).compression_ratio();
        assert!((achieved - 0.1).abs() < 0.02, "achieved {achieved}");
    }

    #[test]
    fn threshold_ratio_bounds() {
        let dense = vec![1.0, 0.0, 2.0];
        assert_eq!(threshold(&dense, 1.0).nnz(), 2, "all non-zero kept");
        assert_eq!(threshold(&dense, 0.0).nnz(), 0);
        assert_eq!(threshold(&[], 0.5).nnz(), 0);
    }

    #[test]
    fn threshold_orders_nan_above_finite_magnitudes() {
        let dense = vec![0.1, f32::NAN, -3.0, 0.2, 2.0];
        // Ascending |x| under total_cmp: 0.1, 0.2, 2.0, 3.0, NaN.
        assert_eq!(threshold_for(&dense, 0.4), 3.0);
        assert_eq!(threshold(&dense, 0.4).indices(), &[2]);
    }

    proptest! {
        #[test]
        fn prop_retained_dominate_dropped(
            dense in proptest::collection::vec(-100.0f32..100.0, 2..300),
            ratio in 0.01f64..1.0,
        ) {
            let s = topk(&dense, ratio);
            prop_assert_eq!(s.nnz(), k_for(dense.len(), ratio));
            // Every retained magnitude >= every dropped magnitude.
            let retained: std::collections::HashSet<u32> = s.indices().iter().cloned().collect();
            let min_kept = s
                .values()
                .iter()
                .map(|v| v.abs())
                .fold(f32::INFINITY, f32::min);
            for (i, &v) in dense.iter().enumerate() {
                if !retained.contains(&(i as u32)) {
                    prop_assert!(v.abs() <= min_kept + 1e-6);
                }
            }
        }

        #[test]
        fn prop_error_norm_not_larger_than_input(
            dense in proptest::collection::vec(-10.0f32..10.0, 1..200),
            ratio in 0.01f64..1.0,
        ) {
            // Top-K is a contraction: ||x - C(x)|| <= ||x||.
            let rec = topk(&dense, ratio).to_dense();
            let err: f32 = dense.iter().zip(rec.iter()).map(|(a, b)| (a - b).powi(2)).sum();
            let norm: f32 = dense.iter().map(|a| a * a).sum();
            prop_assert!(err <= norm + 1e-4);
        }
    }
}
