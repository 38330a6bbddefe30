//! Encode/decode throughput of the codec pipeline at the update sizes the
//! experiments use: sparse f32, raw dense f32, bit-packed QSGD, the composed
//! sparsify+quantize wire formats, and the layer-aware `Segmented` framing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fl_compress::{CodecCtx, CodecRegistry, CompressorSpec, LayerPlan, SegmentDef, UpdateCodec};
use fl_tensor::rng::{Rng, Xoshiro256};
use std::hint::black_box;

fn dense_update(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256::new(seed);
    (0..n).map(|_| rng.next_f32() - 0.5).collect()
}

fn build(spec: &str, n: usize) -> Box<dyn UpdateCodec> {
    let spec: CompressorSpec = spec.parse().expect("bench spec parses");
    CodecRegistry::with_builtins()
        .build(&spec, &CodecCtx::new(n, 1))
        .expect("bench spec resolves")
}

/// A genuinely mixed two-segment plan, so encode emits the `Segmented` kind.
fn build_segmented(n: usize) -> Box<dyn UpdateCodec> {
    let plan: LayerPlan = "*.bias=qsgd:8;*=topk".parse().expect("bench plan parses");
    let segments = vec![
        SegmentDef::new("layer0.weight", n - n / 5),
        SegmentDef::new("layer0.bias", n / 5),
    ];
    plan.resolve(
        &CodecRegistry::with_builtins(),
        &segments,
        &CodecCtx::new(n, 1),
    )
    .expect("bench plan resolves")
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_encode");
    let n = 100_000usize;
    let dense = dense_update(n, 1);
    for spec in [
        "topk",
        "randk",
        "threshold",
        "qsgd:8",
        "qsgd:8:rc",
        "topk+qsgd:6",
        "topk+qsgd:6:rc",
        "ef-topk",
        "dense",
    ] {
        group.bench_with_input(BenchmarkId::new("encode", spec), &spec, |b, &spec| {
            let mut codec = build(spec, n);
            let mut rng = Xoshiro256::new(2);
            b.iter(|| black_box(codec.encode(black_box(&dense), 0.1, &mut rng)));
        });
    }
    group.bench_function(BenchmarkId::new("encode", "segmented"), |b| {
        let mut codec = build_segmented(n);
        let mut rng = Xoshiro256::new(2);
        b.iter(|| black_box(codec.encode(black_box(&dense), 0.1, &mut rng)));
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_decode");
    let n = 100_000usize;
    let dense = dense_update(n, 3);
    for spec in [
        "topk",
        "qsgd:8",
        "qsgd:8:rc",
        "topk+qsgd:6",
        "topk+qsgd:6:rc",
        "dense",
    ] {
        group.bench_with_input(BenchmarkId::new("decode", spec), &spec, |b, &spec| {
            let mut codec = build(spec, n);
            let mut rng = Xoshiro256::new(4);
            let wire = codec.encode(&dense, 0.1, &mut rng);
            b.iter(|| black_box(codec.decode(black_box(&wire)).unwrap()));
        });
    }
    group.bench_function(BenchmarkId::new("decode", "segmented"), |b| {
        let mut codec = build_segmented(n);
        let mut rng = Xoshiro256::new(4);
        let wire = codec.encode(&dense, 0.1, &mut rng);
        b.iter(|| black_box(codec.decode(black_box(&wire)).unwrap()));
    });
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
    targets = bench_encode, bench_decode
}
criterion_main!(benches);
