//! Fig. 12 grown into a population scale-out harness.
//!
//! Default mode sweeps a clients × cohort × model grid over the virtualized
//! round engine and emits one machine-readable JSON document
//! (`BENCH_scale.json` in the repository root is a committed run):
//!
//! * populations N ∈ {10^3, 10^4, 10^5} (`--full` adds 10^6, `--quick`
//!   keeps only the 10^4 smoke point);
//! * fixed cohort sizes, so `participation = cohort / N` shrinks as the
//!   population grows — exactly the regime the roster virtualization is for;
//! * per grid point the harness checks the O(cohort) instantiation claim
//!   (`round_instantiated == |cohort|`, `peak_resident <= |cohort|`) and
//!   records the roster counters plus wall time as evidence;
//! * an embedded bit-identity check replays the paper-scale N = 16 / N = 20
//!   settings with 1 and 8 worker threads and requires identical records
//!   (the sharded aggregation tree must be thread-count invariant).
//!
//! The synthetic datasets stay paper-sized, so at 10^5+ clients most clients
//! legitimately own zero samples; the harness measures engine scaling, not
//! model quality.
//!
//! `cargo run --release -p fl-bench --bin fig12_scale -- [--quick|--full]
//!  [--rounds N] [--scale F] [--out FILE] [--csv]`
//!
//! The original Fig. 12 experiment (optimal enlarge rate γ at N = 16 and
//! N = 20) is preserved verbatim behind `--gamma`.

use fl_bench::{bench_config, json_f64, BenchArgs};
use fl_core::{run_experiment, Algorithm, ExperimentConfig, ModelPreset, SessionBuilder};
use fl_data::DatasetPreset;

fn main() {
    let args = BenchArgs::parse();
    if args.has_flag("--gamma") {
        gamma_mode(&args);
    } else {
        scale_mode(&args);
    }
}

/// The legacy Fig. 12 experiment: optimal enlarge rate γ at N = 16 and
/// N = 20 clients (selection fraction 0.5); the best γ grows roughly in
/// proportion to the number of selected clients. Output is the historical
/// CSV, byte for byte.
fn gamma_mode(args: &BenchArgs) {
    println!("num_clients,gamma,final_accuracy,best_accuracy");
    for &n in &[16usize, 20] {
        let gammas: Vec<f32> = [0.5f32, 0.8, 1.0, 1.25, 1.5]
            .iter()
            .map(|f| (f * n as f32 / 2.0).round().max(1.0))
            .collect();
        let mut best: Option<(f32, f64)> = None;
        for &gamma in &gammas {
            let mut config = bench_config(
                Algorithm::BcrsOpwa,
                DatasetPreset::Cifar10Like,
                0.1,
                0.1,
                args,
            );
            config.num_clients = n;
            config.gamma = gamma;
            let result = run_experiment(&config);
            println!(
                "{n},{gamma},{:.4},{:.4}",
                result.final_accuracy, result.best_accuracy
            );
            if best
                .map(|(_, acc)| result.best_accuracy > acc)
                .unwrap_or(true)
            {
                best = Some((gamma, result.best_accuracy));
            }
        }
        // Baselines for reference: FedAvg and uniform Top-K at this scale.
        for alg in [Algorithm::FedAvg, Algorithm::TopK] {
            let mut config = bench_config(alg, DatasetPreset::Cifar10Like, 0.1, 0.1, args);
            config.num_clients = n;
            let result = run_experiment(&config);
            println!(
                "{n},{},{:.4},{:.4}",
                alg.name(),
                result.final_accuracy,
                result.best_accuracy
            );
        }
        if let Some((gamma, acc)) = best {
            if !args.csv {
                eprintln!(
                    "# N={n}: best gamma {gamma} (selected clients: {}), best accuracy {acc:.3}",
                    n / 2
                );
            }
        }
    }
}

/// One measured point of the scaling grid.
struct ScalePoint {
    num_clients: usize,
    cohort: usize,
    model: &'static str,
    model_params: usize,
    rounds: usize,
    wall_time_s: f64,
    final_accuracy: f64,
    round_instantiated: usize,
    peak_resident: usize,
    resident_after: usize,
    total_instantiated: usize,
    residual_clients: usize,
    residual_total_norm: f64,
}

fn scale_mode(args: &BenchArgs) {
    // `--full` / `--quick` choose the grid here, not the round horizon, so
    // the per-point settings are explicit instead of `effective_rounds`.
    let rounds = args.rounds.unwrap_or(2);
    let scale = args.scale.unwrap_or(0.5);
    let populations: Vec<usize> = if args.quick {
        vec![10_000]
    } else if args.full {
        vec![1_000, 10_000, 100_000, 1_000_000]
    } else {
        vec![1_000, 10_000, 100_000]
    };
    let cohorts: Vec<usize> = if args.quick { vec![64] } else { vec![32, 128] };
    let models: Vec<(&'static str, ModelPreset)> = if args.quick {
        vec![("linear", ModelPreset::Linear)]
    } else {
        vec![
            ("linear", ModelPreset::Linear),
            (
                "mlp_32x16",
                ModelPreset::Mlp {
                    hidden1: 32,
                    hidden2: 16,
                },
            ),
        ]
    };

    // --- Bit-identity check: the sharded aggregation tree must produce the
    // same records regardless of worker-thread count. -----------------------
    let mut identity_lines = Vec::new();
    for &n in &[16usize, 20] {
        let mut config = ExperimentConfig::quick(Algorithm::BcrsOpwa);
        config.num_clients = n;
        config.rounds = 3;
        config.seed = args.seed;
        let serial = SessionBuilder::from_config(&config)
            .threads(1)
            .build()
            .run();
        let threaded = SessionBuilder::from_config(&config)
            .threads(8)
            .build()
            .run();
        // `{:?}` round-trips every float exactly, so string equality here is
        // bit equality of the full record set.
        let identical = format!("{:?}", serial.records) == format!("{:?}", threaded.records);
        assert!(
            identical,
            "N={n}: records diverge between 1 and 8 worker threads"
        );
        if !args.csv {
            eprintln!("# identity check N={n}: 1-thread and 8-thread records identical");
        }
        identity_lines.push(format!(
            "    {{\"num_clients\": {n}, \"rounds\": 3, \"threads_compared\": [1, 8], \
             \"records_identical\": true}}"
        ));
    }

    // --- The scaling grid ---------------------------------------------------
    let mut points = Vec::new();
    for &n in &populations {
        for &cohort in &cohorts {
            for (model_name, model) in &models {
                let mut config = ExperimentConfig::paper_setting(
                    Algorithm::EfTopK,
                    DatasetPreset::Cifar10Like,
                    0.5,
                    0.1,
                );
                config.num_clients = n;
                config.participation = cohort as f64 / n as f64;
                config.model = *model;
                config.rounds = rounds;
                config.dataset_scale = scale;
                config.seed = args.seed;
                // Evaluate only the final round: the harness measures engine
                // scaling, and evaluation cost is independent of N.
                config.eval_every = args.eval_every.unwrap_or(rounds).max(1);
                assert_eq!(
                    config.clients_per_round(),
                    cohort,
                    "participation must round back to the requested cohort"
                );

                let start = std::time::Instant::now();
                let mut session = SessionBuilder::from_config(&config).build();
                while !session.is_finished() {
                    session.run_round();
                }
                let roster = session.roster();
                let selected = session
                    .records()
                    .last()
                    .map(|r| r.selected_clients.len())
                    .unwrap_or(0);
                // The O(cohort) claims, checked on every grid point.
                assert_eq!(
                    roster.round_instantiated(),
                    selected,
                    "N={n}: the final round instantiated more clients than it selected"
                );
                assert!(
                    roster.peak_resident() <= cohort,
                    "N={n}: peak resident clients {} exceeded the cohort {cohort}",
                    roster.peak_resident()
                );
                assert_eq!(roster.resident(), 0, "N={n}: clients leaked past checkin");

                let point = ScalePoint {
                    num_clients: n,
                    cohort,
                    model: model_name,
                    model_params: session.model_params(),
                    rounds,
                    wall_time_s: start.elapsed().as_secs_f64(),
                    final_accuracy: session
                        .records()
                        .last()
                        .map(|r| r.test_accuracy)
                        .unwrap_or(0.0),
                    round_instantiated: roster.round_instantiated(),
                    peak_resident: roster.peak_resident(),
                    resident_after: roster.resident(),
                    total_instantiated: roster.total_instantiated(),
                    residual_clients: roster.residual_clients(),
                    residual_total_norm: roster.residual_total_norm(),
                };
                if !args.csv {
                    eprintln!(
                        "# N={:>7} cohort={:>3} model={:<9} params={:>6} wall={:>7.2}s \
                         peak_resident={:>3} residual_clients={}",
                        point.num_clients,
                        point.cohort,
                        point.model,
                        point.model_params,
                        point.wall_time_s,
                        point.peak_resident,
                        point.residual_clients,
                    );
                }
                points.push(point);
            }
        }
    }

    // --- Emit JSON (hand-rendered: the vendored serde shim has no JSON
    // serialiser, and the schema is small enough to write directly). --------
    let point_lines: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"num_clients\": {}, \"cohort\": {}, \"model\": \"{}\", \
                 \"model_params\": {}, \"rounds\": {}, \"wall_time_s\": {}, \
                 \"final_accuracy\": {}, \"round_instantiated\": {}, \
                 \"peak_resident\": {}, \"resident_after\": {}, \
                 \"total_instantiated\": {}, \"residual_clients\": {}, \
                 \"residual_total_norm\": {}}}",
                p.num_clients,
                p.cohort,
                p.model,
                p.model_params,
                p.rounds,
                json_f64(p.wall_time_s),
                json_f64(p.final_accuracy),
                p.round_instantiated,
                p.peak_resident,
                p.resident_after,
                p.total_instantiated,
                p.residual_clients,
                json_f64(p.residual_total_norm),
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
        "{{\n  \"schema\": \"bwfl-scale-v1\",\n  \"generated_by\": \"fig12_scale\",\n  \
         \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \"rounds_per_point\": {rounds},\n  \
         \"dataset\": \"{dataset}\",\n  \"dataset_scale\": {scale},\n  \
         \"algorithm\": \"{algorithm}\",\n  \"identity_checks\": [\n{identities}\n  ],\n  \
         \"points\": [\n{points}\n  ]\n}}\n",
        seed = args.seed,
        dataset = "cifar10-like",
        scale = json_f64(scale),
        algorithm = Algorithm::EfTopK.name(),
        identities = identity_lines.join(",\n"),
        points = point_lines.join(",\n"),
    );
    match args.flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            if !args.csv {
                eprintln!("# wrote {path}");
            }
        }
        None => print!("{json}"),
    }
}
