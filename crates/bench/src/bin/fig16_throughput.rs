//! Round-throughput harness for the allocation-free training hot path.
//!
//! Two measurements, one JSON document (`BENCH_train.json` in the repository
//! root is a committed run):
//!
//! * **Session throughput** — full federated rounds (local SGD on every
//!   client, aggregation, final-round evaluation) over a model × cohort
//!   grid with `participation = 1.0`, reported as rounds/s and batches/s.
//!   The batch count is exact: with `drop_last = false` every client runs
//!   `ceil(n_i / batch_size)` batches per local epoch.
//! * **Step microbench** — the single-client training step on the default
//!   experiment MLP, fused (workspace `forward_in`/`backward_in` +
//!   `Sgd::step`'s fused kernels) vs the allocating wrapper path, reported
//!   as batches/s. Before timing, the harness trains both paths from
//!   identical initialisation and requires bit-identical parameters — the
//!   fused path must be a pure performance change.
//!
//! `cargo run --release -p fl-bench --bin fig16_throughput --
//!  [--quick|--full] [--rounds N] [--scale F] [--out FILE] [--csv]`
//!
//! CSV mode emits uniform rows `kind,model,detail,rounds_per_s,batches_per_s`
//! (session rows carry both rates; step rows have no round notion and report
//! 0 rounds/s), which CI greps to assert fused ≥ allocating.

use fl_bench::{json_f64, BenchArgs};
use fl_core::{Algorithm, ExperimentConfig, ModelPreset, SessionBuilder};
use fl_data::DatasetPreset;
use fl_nn::{mlp, Sequential, Sgd, SoftmaxCrossEntropy, Workspace};
use fl_tensor::rng::Xoshiro256;
use fl_tensor::{Shape, Tensor};
use std::hint::black_box;

/// One measured grid point of full federated rounds.
struct SessionPoint {
    model: &'static str,
    cohort: usize,
    rounds: usize,
    batches_per_round: usize,
    wall_time_s: f64,
    rounds_per_s: f64,
    batches_per_s: f64,
    final_accuracy: f64,
}

/// One timed variant of the single-client step microbench.
struct StepPoint {
    kind: &'static str,
    steps: usize,
    wall_time_s: f64,
    batches_per_s: f64,
}

const STEP_FEATURES: usize = 384;
const STEP_BATCH: usize = 64;
const STEP_CLASSES: usize = 10;
const STEP_MODEL: &str = "mlp_384x128x64";

fn step_setup(seed: u64) -> (Sequential, Tensor, Vec<usize>) {
    let mut rng = Xoshiro256::new(seed);
    let model = mlp(STEP_FEATURES, &[128, 64], STEP_CLASSES, &mut rng);
    let x = Tensor::rand_normal(Shape::matrix(STEP_BATCH, STEP_FEATURES), 0.0, 1.0, &mut rng);
    let y: Vec<usize> = (0..STEP_BATCH).map(|i| i % STEP_CLASSES).collect();
    (model, x, y)
}

/// Train `n_steps` batches through the allocating wrapper path.
fn run_alloc_steps(model: &mut Sequential, x: &Tensor, y: &[usize], n_steps: usize) {
    let mut loss = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    for _ in 0..n_steps {
        model.zero_grad();
        let logits = model.forward(black_box(x));
        loss.forward(&logits, y);
        let g = loss.backward();
        model.backward(&g);
        opt.step(model);
    }
}

/// Train `n_steps` batches through the fused workspace path.
fn run_fused_steps(model: &mut Sequential, x: &Tensor, y: &[usize], n_steps: usize) {
    let mut loss = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut ws = Workspace::new();
    let mut grad = Tensor::empty();
    for _ in 0..n_steps {
        model.zero_grad();
        let logits = model.forward_in(black_box(x), &mut ws);
        loss.forward(logits, y);
        loss.backward_in(&mut grad);
        model.backward_in(&grad, &mut ws);
        opt.step(model);
    }
}

/// The embedded bit-identity gate: both step paths must land on identical
/// parameter bits after several momentum + weight-decay steps.
fn assert_step_paths_identical(seed: u64, n_steps: usize) {
    let (mut reference, x, y) = step_setup(seed);
    let (mut subject, _, _) = step_setup(seed);
    run_alloc_steps(&mut reference, &x, &y, n_steps);
    run_fused_steps(&mut subject, &x, &y, n_steps);
    for (i, (sp, rp)) in subject
        .params()
        .iter()
        .zip(reference.params().iter())
        .enumerate()
    {
        assert_eq!(sp.shape().dims(), rp.shape().dims());
        for (a, b) in sp.data().iter().zip(rp.data().iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "fused and allocating step paths diverged in param tensor {i}"
            );
        }
    }
}

fn microbench(args: &BenchArgs) -> (usize, Vec<StepPoint>) {
    let identity_steps = 5;
    assert_step_paths_identical(args.seed, identity_steps);
    if !args.csv {
        eprintln!(
            "# step identity check: fused and allocating paths bit-identical \
             after {identity_steps} steps"
        );
    }

    // Paired interleaved slices: the two variants alternate in short bursts
    // and each accumulates its own wall time, so slow timing drift (thermal
    // throttling, a background process ramping up) hits both sides equally
    // instead of landing on whichever variant happened to run second. The
    // CI gate compares the two throughputs directly — an unpaired design
    // flakes on exactly that drift.
    const SLICE_STEPS: usize = 10;
    let slices = if args.quick { 30 } else { 100 };
    let steps = slices * SLICE_STEPS;
    let warmup = steps / 10;

    // Both runners keep their model, loss, optimizer (momentum) and — for
    // the fused side — workspace alive across slices: a fresh workspace per
    // slice would re-allocate the very buffers whose reuse is being measured.
    let mut run_alloc_slice = {
        let (mut model, x, y) = step_setup(args.seed);
        let mut loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        move |n_steps: usize| {
            for _ in 0..n_steps {
                model.zero_grad();
                let logits = model.forward(black_box(&x));
                loss.forward(&logits, &y);
                let g = loss.backward();
                model.backward(&g);
                opt.step(&mut model);
            }
        }
    };
    let mut run_fused_slice = {
        let (mut model, x, y) = step_setup(args.seed);
        let mut loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        let mut ws = Workspace::new();
        let mut grad = Tensor::empty();
        move |n_steps: usize| {
            for _ in 0..n_steps {
                model.zero_grad();
                let logits = model.forward_in(black_box(&x), &mut ws);
                loss.forward(logits, &y);
                loss.backward_in(&mut grad);
                model.backward_in(&grad, &mut ws);
                opt.step(&mut model);
            }
        }
    };
    run_alloc_slice(warmup);
    run_fused_slice(warmup);

    // Throughput is computed from each variant's *fastest* slice: scheduler
    // noise only ever adds time, so over enough short slices the minimum
    // converges to the undisturbed per-step cost — the estimator a direct
    // two-variant comparison needs (sums/means keep whatever interference
    // happened to land inside them).
    let mut alloc_best = f64::INFINITY;
    let mut fused_best = f64::INFINITY;
    for _ in 0..slices {
        let t = std::time::Instant::now();
        run_alloc_slice(SLICE_STEPS);
        alloc_best = alloc_best.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        run_fused_slice(SLICE_STEPS);
        fused_best = fused_best.min(t.elapsed().as_secs_f64());
    }
    let alloc_wall = alloc_best * slices as f64;
    let fused_wall = fused_best * slices as f64;

    let mut points = Vec::new();
    // Alphabetical order keeps the CSV stable: alloc first, fused second.
    for (kind, wall) in [("alloc", alloc_wall), ("fused", fused_wall)] {
        points.push(StepPoint {
            kind,
            steps,
            wall_time_s: wall,
            batches_per_s: steps as f64 / wall,
        });
        if !args.csv {
            let p = points.last().unwrap();
            eprintln!(
                "# step {kind:<5} model={STEP_MODEL} batch={STEP_BATCH} \
                 steps={steps} wall={:.3}s batches/s={:.1}",
                p.wall_time_s, p.batches_per_s
            );
        }
    }
    (identity_steps, points)
}

fn session_grid(args: &BenchArgs) -> (usize, f64, Vec<SessionPoint>) {
    let rounds = args.rounds.unwrap_or(if args.quick { 3 } else { 8 });
    let scale = args.scale.unwrap_or(if args.quick { 0.2 } else { 0.4 });
    let cohorts: Vec<usize> = if args.quick {
        vec![8, 16]
    } else {
        vec![8, 16, 32]
    };
    let models: Vec<(&'static str, ModelPreset)> = vec![
        ("linear", ModelPreset::Linear),
        ("mlp_128x64", ModelPreset::default_mlp()),
    ];

    let mut points = Vec::new();
    for (model_name, model) in &models {
        for &cohort in &cohorts {
            let mut config = ExperimentConfig::paper_setting(
                Algorithm::FedAvg,
                DatasetPreset::Cifar10Like,
                0.5,
                1.0,
            );
            config.model = *model;
            config.num_clients = cohort;
            // Every client trains every round, so the exact number of
            // batches per round is the sum over the whole partition.
            config.participation = 1.0;
            config.rounds = rounds;
            config.dataset_scale = scale;
            config.seed = args.seed;
            // Evaluate only the final round: the harness measures the
            // training hot path, and a per-round eval would dominate it.
            config.eval_every = args.eval_every.unwrap_or(rounds).max(1);

            let mut session = SessionBuilder::from_config(&config).build();
            let start = std::time::Instant::now();
            while !session.is_finished() {
                session.run_round();
            }
            let wall = start.elapsed().as_secs_f64();
            let result = session.into_result();
            let batches_per_round: usize = result
                .partition
                .client_totals()
                .iter()
                .map(|&n| n.div_ceil(config.batch_size))
                .sum::<usize>()
                * config.local_epochs;
            let total_batches = batches_per_round * rounds;
            let point = SessionPoint {
                model: model_name,
                cohort,
                rounds,
                batches_per_round,
                wall_time_s: wall,
                rounds_per_s: rounds as f64 / wall,
                batches_per_s: total_batches as f64 / wall,
                final_accuracy: result.final_accuracy,
            };
            if !args.csv {
                eprintln!(
                    "# session model={:<10} cohort={:>2} rounds={} wall={:>6.2}s \
                     rounds/s={:>6.2} batches/s={:>7.1}",
                    point.model,
                    point.cohort,
                    point.rounds,
                    point.wall_time_s,
                    point.rounds_per_s,
                    point.batches_per_s,
                );
            }
            points.push(point);
        }
    }
    (rounds, scale, points)
}

fn main() {
    let args = BenchArgs::parse();
    let (identity_steps, steps) = microbench(&args);
    let (rounds, scale, sessions) = session_grid(&args);

    if args.csv {
        println!("kind,model,detail,rounds_per_s,batches_per_s");
        for p in &steps {
            println!(
                "step,{STEP_MODEL},{},0.000000,{}",
                p.kind,
                json_f64(p.batches_per_s)
            );
        }
        for p in &sessions {
            println!(
                "session,{},cohort={},{},{}",
                p.model,
                p.cohort,
                json_f64(p.rounds_per_s),
                json_f64(p.batches_per_s)
            );
        }
        return;
    }

    // Hand-rendered JSON: the vendored serde shim has no JSON serialiser and
    // the schema is small enough to write directly.
    let step_lines: Vec<String> = steps
        .iter()
        .map(|p| {
            format!(
                "    {{\"kind\": \"{}\", \"model\": \"{STEP_MODEL}\", \"batch\": {STEP_BATCH}, \
                 \"steps\": {}, \"wall_time_s\": {}, \"batches_per_s\": {}}}",
                p.kind,
                p.steps,
                json_f64(p.wall_time_s),
                json_f64(p.batches_per_s),
            )
        })
        .collect();
    let session_lines: Vec<String> = sessions
        .iter()
        .map(|p| {
            format!(
                "    {{\"model\": \"{}\", \"cohort\": {}, \"rounds\": {}, \
                 \"batches_per_round\": {}, \"wall_time_s\": {}, \"rounds_per_s\": {}, \
                 \"batches_per_s\": {}, \"final_accuracy\": {}}}",
                p.model,
                p.cohort,
                p.rounds,
                p.batches_per_round,
                json_f64(p.wall_time_s),
                json_f64(p.rounds_per_s),
                json_f64(p.batches_per_s),
                json_f64(p.final_accuracy),
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
        "{{\n  \"schema\": \"bwfl-train-v1\",\n  \"generated_by\": \"fig16_throughput\",\n  \
         \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \"rounds_per_point\": {rounds},\n  \
         \"dataset\": \"{dataset}\",\n  \"dataset_scale\": {scale},\n  \
         \"algorithm\": \"{algorithm}\",\n  \
         \"step_identity\": {{\"steps\": {identity_steps}, \"paths_bit_identical\": true}},\n  \
         \"microbench\": [\n{steps_json}\n  ],\n  \"sessions\": [\n{sessions_json}\n  ]\n}}\n",
        seed = args.seed,
        dataset = "cifar10-like",
        scale = json_f64(scale),
        algorithm = Algorithm::FedAvg.name(),
        steps_json = step_lines.join(",\n"),
        sessions_json = session_lines.join(",\n"),
    );
    match args.flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("# wrote {path}");
        }
        None => print!("{json}"),
    }
}
