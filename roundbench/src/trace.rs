//! The traced run: per-layer numbers timed from outside the program.
//!
//! The run drives the real session exactly like the timed run. Next to it
//! sits a twin session built from the same configuration and seed. After
//! each real round, outside its `run_round` span, the twin replays that round
//! through the layers' public calls: the cohort comes from the record's
//! `selected_clients`, training starts from the pre-round
//! `broadcast_params()`. The twin's roster sees the same checkouts and
//! checkins as the real one, so its RNG streams and residuals stay in
//! lockstep, and the replay checks that it reproduced the real round (same
//! wire sizes, same BCRS ratios, the same global update and accuracy).
//!
//! Spans (name, start, end, parent) stay in memory and are written to
//! `traces/<workload>-seed<seed>.tsv` next to the executable when the run
//! ends.

use crate::drive::{drive, evaluates, Outcome, RoundObserver};
use crate::env::process_cpu_s;
use crate::report::{json_num, json_str, mean, median, metric, Metric};
use crate::workload::{Workload, THREADS};
use fl_compress::{CodecRegistry, CompressedUpdate, SparseUpdate};
use fl_core::aggregate::{
    aggregate_compressed_sharded, aggregate_sparse_sharded, apply_update, data_fractions_or_uniform,
};
use fl_core::client::build_model_zeroed;
use fl_core::eval::evaluate_with_threads;
use fl_core::{
    Algorithm, BcrsScheduler, ClientRoster, ExperimentConfig, FederatedSession, OpwaMask,
    OverlapCounts, RoundOutput, SessionBuilder,
};
use fl_data::{dirichlet_partition, Dataset};
use fl_netsim::{CommModel, Link};
use fl_nn::{unflatten_params, ParamSegment, Sequential, Sgd, SoftmaxCrossEntropy, Workspace};
use fl_tensor::matmul::matmul;
use fl_tensor::parallel::parallel_map;
use fl_tensor::rng::Xoshiro256;
use fl_tensor::{Shape, Tensor};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval. `parent` indexes the enclosing span.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Layer call or stage name.
    name: &'static str,
    /// Enclosing span, if any.
    parent: Option<usize>,
    /// Start, nanoseconds since the run began.
    start_ns: u64,
    /// End, nanoseconds since the run began.
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.record(name, parent, now, now)
    }

    /// Close an open span, returning its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.ns(Instant::now());
        self.spans[id].secs()
    }

    fn record(&mut self, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span, returning its result and duration in seconds.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let value = f();
        (value, self.close(id))
    }

    /// Duration in seconds of every span named `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per name: span count, total seconds and self seconds (duration minus
    /// the time its child spans cover).
    fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child;
        }
        out
    }

    fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(w, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// Per-round figures the metrics are computed from.
#[derive(Default)]
struct RoundStats {
    round_ms: Vec<f64>,
    train_max_ms: Vec<f64>,
    codec_ms: Vec<f64>,
    /// Replayed stage time on the round's critical path.
    critical_ms: Vec<f64>,
    instantiated: Vec<f64>,
    residual_clients: Vec<f64>,
    batches: Vec<f64>,
    subnormal_share: Vec<f64>,
    matmul_gflops: Vec<f64>,
    sim_round_s: Vec<f64>,
    wire_bytes: Vec<f64>,
    cpu_s: f64,
}

/// The twin of one pass and the buffers its replay reuses.
struct Twin {
    session: FederatedSession,
    links: Vec<Link>,
    eval_model: Sequential,
    probe: Probe,
}

/// One batch pushed through the fl-nn and fl-tensor calls each round.
struct Probe {
    model: Sequential,
    ws: Workspace,
    loss: SoftmaxCrossEntropy,
    grad: Tensor,
    x: Tensor,
    y: Vec<usize>,
}

struct TraceObserver {
    tracer: Tracer,
    twin: Option<Twin>,
    /// Pre-round broadcast and global parameters of the real session.
    broadcast: Vec<f32>,
    global: Vec<f32>,
    cpu_before: f64,
    stats: RoundStats,
}

impl RoundObserver for TraceObserver {
    fn pass_started(&mut self, session: &FederatedSession) {
        let config = session.config().clone();
        let setup = self.tracer.open("setup", None);
        // The set-up layers, called as `SessionBuilder::build` calls them.
        let ((train, _test), _) = self.tracer.time("data.generate", setup, || {
            config
                .dataset
                .spec(config.dataset_scale)
                .generate(config.seed)
        });
        let per_client_cap = (train.len() / config.num_clients).max(1);
        let min_samples = if per_client_cap < 2 {
            0
        } else {
            (config.batch_size / 4).clamp(2, per_client_cap)
        };
        let (partitions, _) = self.tracer.time("data.partition", setup, || {
            dirichlet_partition(
                &train,
                config.num_clients,
                config.beta,
                min_samples,
                config.seed ^ 0xD1A1,
            )
        });
        let (train, partitions) = (Arc::new(train), Arc::new(partitions));
        let registry = CodecRegistry::with_builtins();
        let mut root_rng = Xoshiro256::new(config.seed ^ 0xC11E);
        let (roster, _) = self.tracer.time("core.roster_new", setup, || {
            ClientRoster::new(train, partitions, config.clone(), registry, &mut root_rng)
        });
        drop(roster);
        let (links, _) = self.tracer.time("netsim.links", setup, || {
            config
                .links
                .generate(config.num_clients, config.seed ^ 0x11C5)
        });
        let twin = SessionBuilder::from_config(&config).build();
        self.tracer.close(setup);

        let test = session.test_dataset();
        let (dim, classes) = (test.feature_dim(), test.num_classes());
        self.twin = Some(Twin {
            session: twin,
            links,
            eval_model: build_model_zeroed(&config.model, dim, classes),
            probe: Probe {
                model: build_model_zeroed(&config.model, dim, classes),
                ws: Workspace::new(),
                loss: SoftmaxCrossEntropy::new(),
                grad: Tensor::empty(),
                x: Tensor::empty(),
                y: Vec::new(),
            },
        });
    }

    fn before_round(&mut self, session: &FederatedSession) {
        self.broadcast.clear();
        self.broadcast.extend_from_slice(session.broadcast_params());
        self.global.clear();
        self.global.extend_from_slice(session.global_params());
        self.cpu_before = process_cpu_s();
    }

    fn after_round(
        &mut self,
        session: &FederatedSession,
        output: &RoundOutput,
        started: Instant,
        round_s: f64,
    ) -> Result<(), String> {
        self.stats.cpu_s += process_cpu_s() - self.cpu_before;
        let t = &mut self.tracer;
        let start = t.ns(started);
        let round = t.record("round", None, start, start);
        t.record(
            "core.run_round",
            Some(round),
            start,
            start + (round_s * 1e9) as u64,
        );
        let replay = t.open("replay", Some(round));
        let twin = self.twin.as_mut().expect("pass_started builds the twin");
        let critical_s = replay_round(
            t,
            replay,
            twin,
            session,
            output,
            &self.broadcast,
            &self.global,
            &mut self.stats,
        );
        t.time("tensor.parallel_map", replay, || {
            parallel_map(
                vec![0u8; output.record.selected_clients.len()],
                THREADS,
                |x| x,
            )
        });
        t.close(replay);
        t.close(round);

        let record = &output.record;
        let s = &mut self.stats;
        s.round_ms.push(round_s * 1e3);
        s.train_max_ms.push(output.train_time_s * 1e3);
        s.codec_ms.push(output.compress_time_s * 1e3);
        s.instantiated
            .push(session.roster().round_instantiated() as f64);
        s.residual_clients
            .push(session.roster().residual_clients() as f64);
        s.sim_round_s.push(record.comm_actual_s);
        s.wire_bytes
            .extend(output.uplink_wire_bytes.iter().map(|&b| b as f64));
        let critical_s = critical_s?;
        s.critical_ms.push(critical_s * 1e3);
        Ok(())
    }
}

/// Replay one round on the twin, returning the replayed stage time on the
/// round's critical path, or why the replay disagrees with the real round.
#[allow(clippy::too_many_arguments)]
fn replay_round(
    t: &mut Tracer,
    replay: usize,
    twin: &mut Twin,
    session: &FederatedSession,
    output: &RoundOutput,
    broadcast: &[f32],
    global: &[f32],
    stats: &mut RoundStats,
) -> Result<f64, String> {
    let config = session.config();
    let record = &output.record;
    let cohort = &record.selected_clients;
    let n = cohort.len();
    let mut critical_s = 0.0;

    // Ratio policy. The BCRS schedule is timed on every workload, but it is
    // on the round's critical path (and checked) only where BCRS runs.
    let links: Vec<Link> = cohort.iter().map(|&i| twin.links[i]).collect();
    let comm = CommModel::paper_default().with_cost_basis(config.cost_basis);
    let model_bytes = session.model_bytes() as f64;
    let (schedule, secs) = t.time("core.bcrs_schedule", replay, || {
        BcrsScheduler::new(comm).schedule(&links, model_bytes, config.compression_ratio)
    });
    let schedule = match config.algorithm {
        Algorithm::Bcrs | Algorithm::BcrsOpwa => {
            critical_s += secs;
            if output.schedule.as_ref().map(|s| &s.ratios) != Some(&schedule.ratios) {
                return Err("replayed BCRS ratios differ from the round's".into());
            }
            Some(schedule)
        }
        _ => None,
    };

    // Local phase, client by client on the twin's roster. Each client's
    // stage times add to the worker chunk `parallel_map` would give it.
    let roster = twin.session.roster();
    roster.begin_round();
    let chunk = n.div_ceil(THREADS.min(n).max(1));
    let mut chunk_s = vec![0.0f64; n.div_ceil(chunk)];
    let mut updates = Vec::with_capacity(n);
    let mut sample_counts = Vec::with_capacity(n);
    let mut probe_data: Option<Dataset> = None;
    for (i, &id) in cohort.iter().enumerate() {
        let ratio = schedule
            .as_ref()
            .map_or(config.compression_ratio, |s| s.ratios[i]);
        let span = t.open("replay.client", Some(replay));
        let (mut client, a) = t.time("core.roster.checkout", span, || roster.checkout(id));
        let (train, b) = t.time("core.client.local_update", span, || {
            client.local_update(broadcast)
        });
        let (wire, c) = t.time("core.client.encode", span, || {
            client.encode(&train.delta, ratio)
        });
        let (update, d) = t.time("core.client.decode", span, || client.decode(&wire));
        let update = update.map_err(|e| format!("twin decode failed: {e}"))?;
        if probe_data
            .as_ref()
            .is_none_or(|p| client.num_samples() > p.len())
        {
            probe_data = Some(client.dataset().clone());
        }
        let ((), e) = t.time("core.roster.checkin", span, || roster.checkin(client));
        t.close(span);
        chunk_s[i / chunk] += a + b + c + d + e;
        if wire.len() != output.uplink_wire_bytes[i] {
            return Err(format!(
                "twin client {id} sent {} bytes, the round {}",
                wire.len(),
                output.uplink_wire_bytes[i]
            ));
        }
        sample_counts.push(train.num_samples);
        updates.push(update);
    }
    critical_s += chunk_s.iter().cloned().fold(0.0, f64::max);
    let batch = config.batch_size;
    stats.batches.push(
        sample_counts
            .iter()
            .map(|&s| (s.div_ceil(batch) * config.local_epochs) as f64)
            .sum(),
    );

    // Aggregate phase.
    let fractions = data_fractions_or_uniform(&sample_counts);
    let coefficients = match (&schedule, config.disable_coefficient_adjustment) {
        (Some(s), false) => s.adjusted_coefficients(&fractions, config.alpha),
        _ => fractions,
    };
    // The OPWA mask is timed on every workload, over the updates' supports
    // where the codec is dense, but it is on the critical path (and applied)
    // only where OPWA runs.
    let sparse: Option<Vec<&SparseUpdate>> = updates.iter().map(|u| u.as_sparse()).collect();
    let supports: Vec<SparseUpdate> = match sparse {
        Some(_) => Vec::new(),
        None => updates
            .iter()
            .map(|u| SparseUpdate::from_dense_mask(&u.to_dense(), |_, v| v != 0.0))
            .collect(),
    };
    let overlap_refs: Vec<&SparseUpdate> = match &sparse {
        Some(refs) => refs.clone(),
        None => supports.iter().collect(),
    };
    let (mask, secs) = t.time("core.opwa_mask", replay, || {
        let counts = OverlapCounts::from_updates(&overlap_refs);
        OpwaMask::from_overlap(&counts, config.gamma, config.overlap_threshold)
    });
    let aggregated = match sparse {
        Some(refs) => {
            let mask = config.algorithm.uses_opwa().then(|| {
                critical_s += secs;
                mask
            });
            let (agg, secs) = t.time("core.aggregate", replay, || {
                aggregate_sparse_sharded(&refs, &coefficients, mask.as_ref(), THREADS)
            });
            critical_s += secs;
            agg
        }
        None => {
            let refs: Vec<&CompressedUpdate> = updates.iter().collect();
            let (agg, secs) = t.time("core.aggregate", replay, || {
                aggregate_compressed_sharded(&refs, &coefficients, None, THREADS)
            });
            critical_s += secs;
            agg
        }
    };
    let mut expected = global.to_vec();
    apply_update(&mut expected, &aggregated, config.server_lr);
    if expected != session.global_params() {
        return Err("replayed aggregation differs from the round's global update".into());
    }

    // Eval phase, on the rounds the engine evaluates.
    let round = record.round;
    if evaluates(config, round) {
        let model = &mut twin.eval_model;
        let (eval, secs) = t.time("core.eval", replay, || {
            unflatten_params(model, session.global_params());
            evaluate_with_threads(
                model,
                session.test_dataset(),
                config.batch_size.max(64),
                THREADS,
            )
        });
        critical_s += secs;
        if eval.accuracy.to_bits() != record.test_accuracy.to_bits() {
            return Err("replayed evaluation differs from the round's accuracy".into());
        }
    }

    // One probe batch from the cohort's largest client through fl-nn and
    // the first layer's weight matmul, at the pre-round weights.
    if let Some(data) = probe_data.filter(|d| !d.is_empty()) {
        let first_weight = &session.param_layout().segments()[0];
        probe_batch(
            t,
            replay,
            &mut twin.probe,
            &data,
            config,
            broadcast,
            first_weight,
            stats,
        );
    }
    Ok(critical_s)
}

#[allow(clippy::too_many_arguments)]
fn probe_batch(
    t: &mut Tracer,
    replay: usize,
    probe: &mut Probe,
    data: &Dataset,
    config: &ExperimentConfig,
    broadcast: &[f32],
    first_weight: &ParamSegment,
    stats: &mut RoundStats,
) {
    let span = t.open("nn.probe", Some(replay));
    let Probe {
        model,
        ws,
        loss,
        grad,
        x,
        y,
    } = probe;
    unflatten_params(model, broadcast);
    model.zero_grad();
    let idx: Vec<usize> = (0..config.batch_size.min(data.len())).collect();
    t.time("data.gather", span, || data.gather_batch_into(&idx, x, y));
    let forward = t.open("nn.forward", Some(span));
    let logits = model.forward_in(x, ws);
    loss.forward(logits, y);
    t.close(forward);
    let probs = SoftmaxCrossEntropy::softmax(logits);
    let share = probs.data().iter().filter(|p| p.is_subnormal()).count() as f64
        / probs.data().len().max(1) as f64;
    stats.subnormal_share.push(share);
    t.time("nn.backward", span, || {
        loss.backward_in(grad);
        model.backward_in(grad, ws);
    });
    let mut sgd = Sgd::new(config.local_lr, config.momentum, config.weight_decay);
    t.time("nn.sgd_step", span, || sgd.step(model));

    let (rows, inputs) = (x.shape().dims()[0], x.shape().dims()[1]);
    let outputs = first_weight.len / inputs;
    let w = Tensor::from_vec(
        Shape::matrix(inputs, outputs),
        broadcast[first_weight.range()].to_vec(),
    );
    let (product, secs) = t.time("tensor.matmul", span, || matmul(x, &w));
    std::hint::black_box(product);
    stats
        .matmul_gflops
        .push(2.0 * (rows * inputs * outputs) as f64 / secs / 1e9);
    t.close(span);
}

/// Run the traced closed loop and derive the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> (Outcome, Vec<Metric>, Vec<String>) {
    let mut obs = TraceObserver {
        tracer: Tracer::new(),
        twin: None,
        broadcast: Vec::new(),
        global: Vec::new(),
        cpu_before: 0.0,
        stats: RoundStats::default(),
    };
    let outcome = drive(workload, seed, seconds, 1, 1, &mut obs);
    obs.twin = None;
    let t = &obs.tracer;
    let s = &obs.stats;
    let med = |name: &str, scale: f64| -> f64 {
        let d = t.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * scale
        }
    };
    let round_total_ms: f64 = s.round_ms.iter().sum();
    let unattributed: Vec<f64> = s
        .round_ms
        .iter()
        .zip(&s.critical_ms)
        .map(|(r, c)| r - c)
        .collect();
    let metrics = vec![
        metric("core.round_ms", median(&s.round_ms)),
        metric("core.local.train_max_ms", median(&s.train_max_ms)),
        metric("core.local.codec_ms", median(&s.codec_ms)),
        metric("core.round.unattributed_ms", median(&unattributed)),
        metric(
            "core.round.coverage",
            s.critical_ms.iter().sum::<f64>() / round_total_ms,
        ),
        metric("core.roster.checkout_us", med("core.roster.checkout", 1e6)),
        metric("core.roster.checkin_us", med("core.roster.checkin", 1e6)),
        metric("core.roster.instantiated", median(&s.instantiated)),
        metric("core.roster.residual_clients", median(&s.residual_clients)),
        metric(
            "core.client.local_update_ms",
            med("core.client.local_update", 1e3),
        ),
        metric("core.client.batches", median(&s.batches)),
        metric("core.client.encode_us", med("core.client.encode", 1e6)),
        metric("core.client.decode_us", med("core.client.decode", 1e6)),
        metric("core.aggregate_ms", med("core.aggregate", 1e3)),
        metric("core.opwa_mask_us", med("core.opwa_mask", 1e6)),
        metric("core.bcrs_schedule_us", med("core.bcrs_schedule", 1e6)),
        metric("core.eval_ms", med("core.eval", 1e3)),
        metric("core.roster_new_ms", med("core.roster_new", 1e3)),
        metric("nn.forward_us", med("nn.forward", 1e6)),
        metric("nn.backward_us", med("nn.backward", 1e6)),
        metric("nn.sgd_step_us", med("nn.sgd_step", 1e6)),
        metric("nn.softmax_subnormal_share", mean(&s.subnormal_share)),
        metric("tensor.matmul_gflops", median(&s.matmul_gflops)),
        metric("tensor.parallel_map_us", med("tensor.parallel_map", 1e6)),
        metric(
            "tensor.cpu_util",
            s.cpu_s / (round_total_ms / 1e3 * THREADS as f64),
        ),
        metric("compress.bytes_per_client", mean(&s.wire_bytes)),
        metric("data.generate_ms", med("data.generate", 1e3)),
        metric("data.partition_ms", med("data.partition", 1e3)),
        metric("data.gather_us", med("data.gather", 1e6)),
        metric("netsim.links_ms", med("netsim.links", 1e3)),
        metric("netsim.sim_round_s", median(&s.sim_round_s)),
        metric(
            "trace.run_round_per_s",
            s.round_ms.len() as f64 / (round_total_ms / 1e3),
        ),
        metric("trace.replay_ms", med("replay", 1e3)),
    ];

    let mut context = Vec::new();
    let self_times: Vec<String> = t
        .self_times()
        .into_iter()
        .map(|(name, (count, total, own))| {
            format!(
                "{}: {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                json_str(name),
                json_num(total * 1e3),
                json_num(own * 1e3)
            )
        })
        .collect();
    context.push(format!("{{\"self_times\": {{{}}}}}", self_times.join(", ")));
    let path = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.to_path_buf()))
        .unwrap_or_default()
        .join("traces")
        .join(format!("{}-seed{seed}.tsv", workload.name()));
    let written = match t.write_tsv(&path) {
        Ok(()) => json_str(&path.display().to_string()),
        Err(e) => json_str(&format!("not written: {e}")),
    };
    context.push(format!(
        "{{\"spans\": {}, \"span_file\": {written}}}",
        t.spans.len()
    ));
    (outcome, metrics, context)
}
