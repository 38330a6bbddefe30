//! Table 2 — final test accuracy of FedAvg, Top-K, EF-Top-K, BCRS and
//! BCRS+OPWA across datasets × heterogeneity (β) × compression ratio (CR).
//!
//! The whole grid is built with `fl_core::sweep::SweepGrid` and executed in
//! parallel by the sweep driver (shared dataset generation, worker count set
//! by `--sweep-threads`, results in table order).
//!
//! Defaults to a reduced grid (CIFAR-10-like only, shortened runs); pass
//! `--all-datasets` for all three datasets and `--full` for the paper's
//! 200-round, full-scale settings. `--with-ef-bcrs` adds the
//! error-feedback-under-BCRS ablation row.
//!
//! `--compressors spec1,spec2,…` appends extra codec rows sweeping the
//! listed codec specs or layer plans (e.g. `qsgd:8,topk+qsgd:4,ef-topk` or
//! `'*.bias=dense;*=topk'`) through the same dataset × β × CR grid as Top-K
//! rows; `--compressor SPEC|PLAN` appends one more. These rows default to
//! `CostBasis::Encoded`, so their communication times are priced from the
//! bytes each codec actually encoded; `--cost-basis analytic|encoded`
//! overrides the basis for *every* row (main grid and codec rows alike), and
//! `--downlink SPEC|PLAN` simulates the server→client broadcast through a
//! codec instead of teleporting it. The main grid keeps the
//! algorithm-implied codecs (its OPWA rows reject dense-decoding rules); a
//! mixed plan's per-layer byte breakdown is summarised on stderr.
//!
//! `cargo run --release -p fl-bench --bin table2_main [-- --all-datasets --full]`

use fl_bench::{bench_config, summarize, BenchArgs};
use fl_compress::{CompressorSpec, LayerPlan};
use fl_core::sweep::{run_sweep_threaded_progress, SweepGrid};
use fl_core::Algorithm;
use fl_data::DatasetPreset;
use fl_netsim::CostBasis;

fn main() {
    let args = BenchArgs::parse();
    // The main grid always runs the algorithm-implied codecs: a codec with
    // dense-decoding rules (e.g. `qsgd:8`) is invalid for the OPWA rows, so
    // `--compressor` becomes a dedicated codec row below instead.
    let mut grid_args = args.clone();
    grid_args.compressor = None;
    let datasets: Vec<DatasetPreset> = if args.has_flag("--all-datasets") || args.full {
        vec![
            DatasetPreset::Cifar10Like,
            DatasetPreset::SvhnLike,
            DatasetPreset::Cifar100Like,
        ]
    } else {
        vec![DatasetPreset::Cifar10Like]
    };
    let betas = [0.1, 0.5];
    let ratios = [0.1, 0.01];
    let algorithms = Algorithm::paper_lineup();

    // Grid nesting (dataset → β → CR → algorithm) matches the table order.
    let grid = SweepGrid::new(bench_config(
        algorithms[0],
        datasets[0],
        betas[0],
        ratios[0],
        &grid_args,
    ))
    .datasets(datasets.clone())
    .betas(betas)
    .compression_ratios(ratios)
    .algorithms(algorithms);
    let configs = grid.configs();
    let results = run_sweep_threaded_progress(&configs, args.sweep_threads, args.progress);

    // The ablation reruns EF-Top-K at each BCRS run's achieved mean CR, so it
    // depends on the main grid; collect its configs and sweep them too.
    let ablation_results = if args.has_flag("--with-ef-bcrs") {
        let ef_configs: Vec<_> = results
            .iter()
            .filter(|r| r.config.algorithm == Algorithm::Bcrs)
            .map(|bcrs_probe| {
                // Ablation: BCRS scheduling with error-feedback residuals is
                // approximated by running EF-Top-K at the BCRS mean CR.
                let mean_cr = bcrs_probe.records[0].mean_compression_ratio.min(1.0);
                let mut ef = bcrs_probe.config.clone();
                ef.algorithm = Algorithm::EfTopK;
                ef.compression_ratio = mean_cr;
                ef
            })
            .collect();
        run_sweep_threaded_progress(&ef_configs, args.sweep_threads, args.progress)
    } else {
        Vec::new()
    };
    let mut ablation_iter = ablation_results.iter();

    println!("dataset,beta,cr,algorithm,final_accuracy,best_accuracy,cum_comm_s,uplink_bytes");
    // One (dataset, beta, cr) block per `algorithms.len()` results.
    for block in results.chunks(algorithms.len()) {
        let (dataset, beta, cr) = (
            block[0].config.dataset,
            block[0].config.beta,
            block[0].config.compression_ratio,
        );
        for result in block {
            let last = result.records.last().unwrap();
            println!(
                "{},{beta},{cr},{},{:.4},{:.4},{:.1},{}",
                dataset.name(),
                result.config.algorithm.name(),
                result.final_accuracy,
                result.best_accuracy,
                last.cumulative_actual_s,
                total_uplink_bytes(result)
            );
            if !args.csv {
                eprintln!("# {}", summarize(result));
                if let Some(plan) = &result.config.downlink_compressor {
                    let down_kb = result
                        .records
                        .iter()
                        .map(|r| r.downlink_bytes as f64)
                        .sum::<f64>()
                        / 1e3;
                    eprintln!("#   downlink {plan}: {down_kb:.1} kB total encoded broadcast");
                }
            }
        }
        if let Some(result) = ablation_iter.next() {
            println!(
                "{},{beta},{cr},eftopk@bcrs-cr,{:.4},{:.4},{:.1},{}",
                dataset.name(),
                result.final_accuracy,
                result.best_accuracy,
                result.records.last().unwrap().cumulative_actual_s,
                total_uplink_bytes(result)
            );
        }
    }

    // Extra codec rows: sweep the requested specs and plans through the
    // same grid as first-class rows, priced from the bytes each codec
    // encoded. A codec that ignores the target ratio on every model segment
    // (pure quantizers, the raw-f32 `dense` codec) runs once per
    // (dataset, β) instead of once per ratio, with `-` in the CR column.
    let mut plans: Vec<LayerPlan> = args
        .flag_value("--compressors")
        .into_iter()
        .flat_map(|list| list.split(','))
        .map(|s| {
            s.parse().unwrap_or_else(|e| {
                panic!("--compressors: cannot parse {s:?}: {e}");
            })
        })
        .collect();
    plans.extend(args.compressor.clone());
    if !plans.is_empty() {
        let segment_names = configs[0].model.segment_names();
        let ignores_ratio = |plan: &LayerPlan| {
            segment_names
                .iter()
                .all(|name| plan.spec_for(name).is_some_and(spec_ignores_ratio))
        };
        let (ratio_free, ratio_bound): (Vec<LayerPlan>, Vec<LayerPlan>) =
            plans.into_iter().partition(|p| ignores_ratio(p));
        let mut base = configs[0].clone();
        base.algorithm = Algorithm::TopK;
        base.cost_basis = args.cost_basis.unwrap_or(CostBasis::Encoded);
        let basis_tag = basis_tag(base.cost_basis);
        let mut codec_configs = Vec::new();
        if !ratio_bound.is_empty() {
            codec_configs.extend(
                SweepGrid::new(base.clone())
                    .datasets(datasets.clone())
                    .betas(betas)
                    .compression_ratios(ratios)
                    .compressors(ratio_bound)
                    .configs(),
            );
        }
        if !ratio_free.is_empty() {
            codec_configs.extend(
                SweepGrid::new(base)
                    .datasets(datasets.clone())
                    .betas(betas)
                    .compressors(ratio_free)
                    .configs(),
            );
        }
        let codec_results =
            run_sweep_threaded_progress(&codec_configs, args.sweep_threads, args.progress);
        for result in &codec_results {
            let last = result.records.last().unwrap();
            let plan = result
                .config
                .compressor
                .as_ref()
                .expect("codec rows always carry a codec");
            let cr_cell = if ignores_ratio(plan) {
                "-".to_string()
            } else {
                result.config.compression_ratio.to_string()
            };
            println!(
                "{},{},{cr_cell},{plan}@{basis_tag},{:.4},{:.4},{:.1},{}",
                result.config.dataset.name(),
                result.config.beta,
                result.final_accuracy,
                result.best_accuracy,
                last.cumulative_actual_s,
                total_uplink_bytes(result)
            );
            if !args.csv {
                let total_mb = total_uplink_bytes(result) as f64 / 1e6;
                eprintln!(
                    "# codec {plan}: {} | {total_mb:.2} MB total encoded uplink",
                    summarize(result)
                );
                // Sum the per-layer uplink bytes over the run (present only
                // for genuinely mixed plans — a plan that gives every segment
                // the same spec resolves to the flat codec and records no
                // breakdown).
                let mut per_layer: Vec<(String, usize)> = Vec::new();
                for r in &result.records {
                    if let Some(layers) = &r.layer_bytes {
                        if per_layer.is_empty() {
                            per_layer = layers
                                .iter()
                                .map(|l| (l.layer.clone(), l.uplink_bytes))
                                .collect();
                        } else {
                            for (acc, l) in per_layer.iter_mut().zip(layers.iter()) {
                                acc.1 += l.uplink_bytes;
                            }
                        }
                    }
                }
                for (layer, bytes) in &per_layer {
                    eprintln!("#   {layer}: {:.1} kB encoded uplink", *bytes as f64 / 1e3);
                }
            }
        }
    }
}

/// Total uplink bytes a run transferred, summed over its rounds — the
/// trailing CSV column. Under `CostBasis::Encoded` this is the exact encoded
/// byte count, which is what the CI smoke step compares across codecs.
fn total_uplink_bytes(result: &fl_core::ExperimentResult) -> u64 {
    result.records.iter().map(|r| r.uplink_bytes as u64).sum()
}

/// The label suffix naming the basis a scenario row's times were priced
/// under (`--cost-basis` may override the encoded default).
fn basis_tag(basis: CostBasis) -> &'static str {
    match basis {
        CostBasis::Encoded => "encoded",
        CostBasis::Analytic => "analytic",
    }
}

/// True when a spec's encode ignores the target ratio entirely: pure
/// quantizers (`qsgd:<bits>`) and the raw-f32 `dense` codec.
fn spec_ignores_ratio(spec: &CompressorSpec) -> bool {
    spec.produces_dense() || (spec.stages.len() == 1 && spec.stages[0].name == "dense")
}
