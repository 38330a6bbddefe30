//! Micro-benchmarks of server-side aggregation: plain weighted sparse
//! aggregation, OPWA-masked aggregation, and the overlap analysis that feeds
//! the mask.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fl_compress::{topk, SparseUpdate};
use fl_core::aggregate::aggregate_sparse;
use fl_core::{OpwaMask, OverlapCounts};
use fl_tensor::rng::{Rng, Xoshiro256};
use std::hint::black_box;

fn cohort(n_params: usize, cohort: usize, ratio: f64) -> Vec<SparseUpdate> {
    let mut rng = Xoshiro256::new(11);
    (0..cohort)
        .map(|_| {
            let dense: Vec<f32> = (0..n_params).map(|_| rng.next_f32() - 0.5).collect();
            topk(&dense, ratio)
        })
        .collect()
}

fn bench_overlap_and_mask(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap");
    for &ratio in &[0.01, 0.1] {
        let updates = cohort(25_418, 5, ratio);
        let refs: Vec<&SparseUpdate> = updates.iter().collect();
        group.bench_with_input(BenchmarkId::new("count", ratio), &ratio, |b, _| {
            b.iter(|| black_box(OverlapCounts::from_updates(black_box(&refs))))
        });
        let counts = OverlapCounts::from_updates(&refs);
        group.bench_with_input(BenchmarkId::new("mask", ratio), &ratio, |b, _| {
            b.iter(|| black_box(OpwaMask::from_overlap(black_box(&counts), 5.0, 1)))
        });
    }
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate");
    for &(cohort_size, ratio) in &[(5usize, 0.1f64), (10, 0.1), (5, 0.01)] {
        let updates = cohort(25_418, cohort_size, ratio);
        let refs: Vec<&SparseUpdate> = updates.iter().collect();
        let coeffs = vec![1.0 / cohort_size as f64; cohort_size];
        let counts = OverlapCounts::from_updates(&refs);
        let mask = OpwaMask::from_overlap(&counts, 5.0, 1);
        group.bench_function(format!("plain_c{cohort_size}_r{ratio}"), |b| {
            b.iter(|| black_box(aggregate_sparse(black_box(&refs), &coeffs, None)))
        });
        group.bench_function(format!("opwa_c{cohort_size}_r{ratio}"), |b| {
            b.iter(|| black_box(aggregate_sparse(black_box(&refs), &coeffs, Some(&mask))))
        });
    }
    group.finish();
}

fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench_overlap_and_mask, bench_aggregation
}
criterion_main!(benches);
