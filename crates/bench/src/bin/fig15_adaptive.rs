//! Fig. 15 (repo extension): adaptive per-layer scheduling vs static plans.
//!
//! The paper schedules one compression ratio per client per round (BCRS);
//! every per-layer plan in the repo so far was pinned for the whole run. This
//! harness closes the telemetry loop: a `LayerBcrsPolicy` re-resolves the
//! per-layer codec assignment every round from the previous round's byte
//! telemetry, aggregated gradient mass and the cohort's link snapshot, and is
//! raced against the best *static* uniform plan at the same base ratio under
//! `CostBasis::Encoded` (real encoded bytes, not the analytic formula).
//!
//! One JSON document comes out (`BENCH_adaptive.json` in the repository root
//! is a committed run):
//!
//! * one run per static uniform plan — EF Top-K at full float precision and
//!   its 8-bit quantized twin — plus one adaptive `layer-bcrs` run, all at
//!   equal rounds, equal seed and equal base ratio;
//! * an embedded byte-win assert: the adaptive run's total uplink bytes must
//!   be *strictly* below every static run's — the mass-proportional budgets
//!   spend `efficiency < 1` of the uniform coordinate budget, so losing this
//!   race means the policy regressed;
//! * the adaptive run's final per-layer decisions (segment → spec → ratio)
//!   and the number of distinct plan epochs, so the "adaptivity" is visible
//!   in the artifact rather than inferred.
//!
//! `--adaptive-plan SPEC` swaps in a different budget (e.g.
//! `layer-bcrs:efficiency=0.8`); the byte-win assert applies to it too. `--csv` prints one line per
//! round per run (`run,round,...` — the run label is the first column);
//! `--layer-csv` appends each run's per-layer byte breakdown.
//!
//! `cargo run --release -p fl-bench --bin fig15_adaptive -- [--quick|--full]
//!  [--adaptive-plan SPEC] [--rounds N] [--out FILE] [--csv] [--layer-csv]`

use fl_bench::{bench_config, json_f64, BenchArgs};
use fl_core::{
    run_sweep_threaded_progress, AdaptivePlanSpec, Algorithm, ExperimentConfig, ExperimentResult,
    ModelPreset,
};
use fl_data::DatasetPreset;
use fl_netsim::CostBasis;

/// The static uniform competitors: the same EF Top-K family the adaptive
/// policy draws from, at full float precision and quantized to 8 bits.
const STATIC_PLANS: [&str; 2] = ["*=ef-topk", "*=ef-topk+qsgd:8"];

fn total_uplink(result: &ExperimentResult) -> usize {
    result.records.iter().map(|r| r.uplink_bytes).sum()
}

fn total_downlink(result: &ExperimentResult) -> usize {
    result.records.iter().map(|r| r.downlink_bytes).sum()
}

fn base_config(args: &BenchArgs) -> ExperimentConfig {
    let mut config = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, args);
    config.rounds = args.effective_rounds(24);
    config.dataset_scale = args.effective_scale(0.4);
    config.num_clients = 32;
    config.participation = 0.5;
    config.model = ModelPreset::Mlp {
        hidden1: 32,
        hidden2: 16,
    };
    // The race is over real encoded bytes; the analytic 2·V·CR formula would
    // price every sparse plan identically and hide the win.
    config.cost_basis = CostBasis::Encoded;
    // `bench_config` applies --compressor / --adaptive-plan to every run;
    // here the rows themselves own those fields.
    config.compressor = None;
    config.adaptive_plan = None;
    config
}

fn main() {
    let args = BenchArgs::parse();
    let base = base_config(&args);
    let rounds = base.rounds;

    let adaptive_spec: AdaptivePlanSpec = match &args.adaptive_plan {
        Some(spec) => spec.clone(),
        None => "layer-bcrs".parse().expect("default policy parses"),
    };

    // --- The rows: every static uniform plan, then the adaptive policy -----
    let mut labels: Vec<String> = Vec::new();
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    for plan in STATIC_PLANS {
        let mut c = base.clone();
        c.compressor = Some(plan.parse().expect("static plan parses"));
        labels.push(format!("static:{plan}"));
        configs.push(c);
    }
    let mut adaptive = base.clone();
    adaptive.adaptive_plan = Some(adaptive_spec.clone());
    labels.push(format!("adaptive:{adaptive_spec}"));
    configs.push(adaptive);
    for c in &configs {
        c.validate()
            .unwrap_or_else(|e| panic!("invalid run config: {e}"));
    }
    let results = run_sweep_threaded_progress(&configs, args.sweep_threads, args.progress);
    let adaptive_run = results.last().expect("adaptive run present");

    // --- The byte-win assert ------------------------------------------------
    let adaptive_uplink = total_uplink(adaptive_run);
    let static_uplinks: Vec<usize> = results[..STATIC_PLANS.len()]
        .iter()
        .map(total_uplink)
        .collect();
    let best_static = *static_uplinks.iter().min().expect("static rows present");
    for (label, &bytes) in labels.iter().zip(&static_uplinks) {
        assert!(
            adaptive_uplink < bytes,
            "adaptive plan lost the byte race: {adaptive_uplink} >= {bytes} ({label})"
        );
    }

    // --- The adaptivity must be visible: telemetry on every round -----------
    let mut epochs: Vec<u64> = Vec::new();
    for r in &adaptive_run.records {
        let plan = r
            .plan
            .as_ref()
            .unwrap_or_else(|| panic!("round {} has no plan telemetry", r.round));
        assert!(!plan.assignments.is_empty(), "empty plan decision");
        if epochs.last() != Some(&plan.epoch) {
            epochs.push(plan.epoch);
        }
    }
    if !args.csv {
        eprintln!(
            "# byte race: adaptive {adaptive_uplink} vs best static {best_static} \
             ({:+.1}% over {} rounds, {} plan epochs)",
            100.0 * (adaptive_uplink as f64 - best_static as f64) / best_static as f64,
            rounds,
            epochs.len(),
        );
    }

    // --- CSV: one line per round per run ------------------------------------
    if args.csv {
        println!(
            "run,round,test_accuracy,mean_cr,uplink_bytes,downlink_bytes,cum_actual_s,\
             plan_policy,plan"
        );
        for (label, result) in labels.iter().zip(&results) {
            for r in &result.records {
                let (policy, plan) = match &r.plan {
                    Some(p) => (p.policy.as_str(), p.plan.as_str()),
                    None => ("", ""),
                };
                println!(
                    "{label},{},{:.4},{:.4},{},{},{:.4},{policy},\"{plan}\"",
                    r.round,
                    r.test_accuracy,
                    r.mean_compression_ratio,
                    r.uplink_bytes,
                    r.downlink_bytes,
                    r.cumulative_actual_s,
                );
            }
        }
        if args.layer_csv {
            for (label, result) in labels.iter().zip(&results) {
                println!();
                println!("# layers: {label}");
                print!("{}", result.to_layer_csv());
            }
        }
    }

    // --- JSON ---------------------------------------------------------------
    let run_blocks: Vec<String> = labels
        .iter()
        .zip(&results)
        .map(|(label, result)| {
            let kind = if result.config.adaptive_plan.is_some() {
                "adaptive"
            } else {
                "static"
            };
            format!(
                "    {{\"run\": \"{label}\", \"kind\": \"{kind}\", \
                 \"final_accuracy\": {}, \"best_accuracy\": {}, \
                 \"uplink_bytes\": {}, \"downlink_bytes\": {}, \"cum_actual_s\": {}}}",
                json_f64(result.final_accuracy),
                json_f64(result.best_accuracy),
                total_uplink(result),
                total_downlink(result),
                json_f64(
                    result
                        .records
                        .last()
                        .map(|r| r.cumulative_actual_s)
                        .unwrap_or(0.0)
                ),
            )
        })
        .collect();
    let last_plan = adaptive_run
        .records
        .last()
        .and_then(|r| r.plan.as_ref())
        .expect("adaptive run ends with a plan decision");
    let decisions: Vec<String> = last_plan
        .assignments
        .iter()
        .map(|a| {
            format!(
                "    {{\"segment\": \"{}\", \"spec\": \"{}\", \"ratio\": {}}}",
                a.segment,
                a.spec,
                json_f64(a.ratio)
            )
        })
        .collect();
    let mode = if args.quick {
        "quick"
    } else if args.full {
        "full"
    } else {
        "default"
    };
    let json = format!(
        "{{\n  \"schema\": \"bwfl-adaptive-v1\",\n  \"generated_by\": \"fig15_adaptive\",\n  \
         \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \"rounds\": {rounds},\n  \
         \"num_clients\": {num_clients},\n  \"cohort\": {cohort},\n  \
         \"dataset\": \"cifar10-like\",\n  \"dataset_scale\": {scale},\n  \
         \"cost_basis\": \"encoded\",\n  \"base_ratio\": {ratio},\n  \
         \"policy\": \"{policy}\",\n  \"plan_epochs\": {epochs},\n  \
         \"adaptive_uplink_bytes\": {adaptive_uplink},\n  \
         \"best_static_uplink_bytes\": {best_static},\n  \
         \"adaptive_beats_every_static\": {beats},\n  \
         \"final_plan\": \"{final_plan}\",\n  \"final_decisions\": [\n{decisions}\n  ],\n  \
         \"runs\": [\n{blocks}\n  ]\n}}\n",
        seed = args.seed,
        num_clients = base.num_clients,
        cohort = base.clients_per_round(),
        scale = json_f64(base.dataset_scale),
        ratio = json_f64(base.compression_ratio),
        policy = adaptive_spec,
        epochs = epochs.len(),
        beats = static_uplinks.iter().all(|&b| adaptive_uplink < b),
        final_plan = last_plan.plan,
        decisions = decisions.join(",\n"),
        blocks = run_blocks.join(",\n"),
    );
    match args.flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            if !args.csv {
                eprintln!("# wrote {path}");
            }
        }
        None => {
            if !args.csv {
                print!("{json}");
            }
        }
    }
}
