//! The repository benchmark: closed-loop runs of the `fl-core` round engine.
//!
//! A run builds a `FederatedSession` from a workload's configuration and
//! calls `run_round` back to back at two worker threads, one operation per
//! round, checking every record ([`drive`]). The timed run (`--trace 0`)
//! reports the end-to-end metrics; the traced run (`--trace 1`) replays each
//! round on a twin session, timing the layers from outside ([`trace`]).
//! See the package README for the workloads and what each metric predicts.

pub mod drive;
pub mod env;
pub mod report;
pub mod trace;
pub mod workload;

use drive::{drive, Outcome};
use env::RunEnv;
use report::{json_num, json_str, mean, median, metric, quantile, Metric};
use workload::{Workload, THREADS};

/// Sessions a timed run runs each pass on; each round reports the fastest
/// replica's wall time (see [`drive::run_pass`]).
pub const TIMED_REPLICAS: usize = 2;

/// A finished run: the context lines and the result line's contents.
#[derive(Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// JSON lines printed before the result line (environment, failures,
    /// trace summary).
    pub context: Vec<String>,
}

/// Run `workload` for `seconds` with the given seed, traced or timed.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let env = RunEnv::probe(THREADS);
    let (outcome, metrics, mut context) = if traced {
        trace::run(workload, seed, seconds)
    } else {
        let outcome = drive(
            workload,
            seed,
            seconds,
            workload.sim_passes(),
            TIMED_REPLICAS,
            &mut (),
        );
        let metrics = end_to_end(workload, &outcome);
        (outcome, metrics, Vec::new())
    };
    context.insert(0, env_line(workload, seed, traced, &env, &outcome));
    context.push(passes_line(&outcome));
    if !outcome.failures.is_empty() {
        let list: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
        context.push(format!("{{\"failures\": [{}]}}", list.join(", ")));
    }
    let correct =
        outcome.failed == 0 && outcome.attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    Report {
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        context,
    }
}

/// The end-to-end metrics of a timed run.
fn end_to_end(workload: Workload, out: &Outcome) -> Vec<Metric> {
    let sim = &out.passes[..workload.sim_passes().min(out.passes.len())];
    let round_ms: Vec<f64> = out.round_s.iter().map(|s| s * 1e3).collect();
    let timed_s: f64 = out.round_s.iter().sum();
    vec![
        metric("setup_s", median(&out.setup_s)),
        metric("rounds_per_s", out.round_s.len() as f64 / timed_s),
        metric("round_ms_p50", median(&round_ms)),
        metric("round_ms_p90", quantile(&round_ms, 0.9)),
        metric("peak_rss_mb", env::peak_rss_mb()),
        metric(
            "final_accuracy",
            mean(&sim.iter().map(|p| p.final_accuracy).collect::<Vec<_>>()),
        ),
        metric(
            "sim_time_to_target_s",
            mean(
                &sim.iter()
                    .map(|p| p.time_to_target_s.unwrap_or(f64::NAN))
                    .collect::<Vec<_>>(),
            ),
        ),
        metric(
            "uplink_mb",
            mean(
                &sim.iter()
                    .map(|p| p.uplink_bytes as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
        ),
    ]
}

fn env_line(workload: Workload, seed: u64, traced: bool, env: &RunEnv, out: &Outcome) -> String {
    format!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {traced}, \"commit\": {}, \
         \"cpu_model\": {}, \"available_parallelism\": {}, \"threads\": {}, \"rustc\": {}, \
         \"profile\": {}, \"passes\": {}, \"rounds_per_pass\": {}, \"round_samples\": {}, \
         \"setup_samples\": {}, \"steal_jiffies\": {}, \"steal_share\": {}}}}}",
        json_str(workload.name()),
        json_str(&env.commit),
        json_str(&env.cpu_model),
        env.available_parallelism,
        env.threads,
        json_str(env.rustc),
        json_str(env.profile),
        out.passes.len(),
        workload.rounds(),
        out.round_s.len(),
        out.setup_s.len(),
        out.steal_jiffies,
        json_num(out.steal_share),
    )
}

fn passes_line(out: &Outcome) -> String {
    let passes: Vec<String> = out
        .passes
        .iter()
        .map(|p| {
            format!(
                "{{\"seed\": {}, \"final_accuracy\": {}, \"time_to_target_s\": {}, \"uplink_bytes\": {}}}",
                p.seed,
                json_num(p.final_accuracy),
                json_num(p.time_to_target_s.unwrap_or(f64::NAN)),
                p.uplink_bytes
            )
        })
        .collect();
    format!("{{\"passes\": [{}]}}", passes.join(", "))
}
