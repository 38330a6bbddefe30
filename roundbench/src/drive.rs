//! The closed loop shared by the timed and the traced run: build a session,
//! run its rounds back to back, check every round's record, repeat with the
//! next pass seed until the measuring window is spent.

use crate::env::CpuJiffies;
use crate::workload::{pass_seed, Workload};
use fl_core::{ExperimentConfig, FederatedSession, RoundOutput, SessionBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Hooks the traced run uses to replay each round; the timed run passes `()`.
pub trait RoundObserver {
    /// A pass's session was just built.
    fn pass_started(&mut self, _session: &FederatedSession) {}
    /// The session is about to run its next round.
    fn before_round(&mut self, _session: &FederatedSession) {}
    /// The round ran and its record passed the output checks; `run_round`
    /// began at `started` and took `round_s`. An error marks the round failed.
    fn after_round(
        &mut self,
        _session: &FederatedSession,
        _output: &RoundOutput,
        _started: Instant,
        _round_s: f64,
    ) -> Result<(), String> {
        Ok(())
    }
}

impl RoundObserver for () {}

/// What one complete pass (one trajectory of `Workload::rounds`) produced.
#[derive(Clone, Debug, PartialEq)]
pub struct PassSummary {
    /// The pass's experiment seed.
    pub seed: u64,
    /// Test accuracy after the last round.
    pub final_accuracy: f64,
    /// `cumulative_actual_s` at the first round at or above the target.
    pub time_to_target_s: Option<f64>,
    /// Total encoded uplink bytes over the pass.
    pub uplink_bytes: u64,
}

/// Everything the closed loop measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each `SessionBuilder::build`.
    pub setup_s: Vec<f64>,
    /// Wall time of each `run_round`.
    pub round_s: Vec<f64>,
    /// Completed passes, in order.
    pub passes: Vec<PassSummary>,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that panicked or failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Host steal jiffies over the loop.
    pub steal_jiffies: u64,
    /// Host steal share over the loop.
    pub steal_share: f64,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Run passes of `workload` until `seconds` have elapsed and at least
/// `min_passes` passes are complete, each on `replicas` identical sessions
/// (see [`run_pass`]). A panic ends the run.
pub fn drive(
    workload: Workload,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    replicas: usize,
    observer: &mut dyn RoundObserver,
) -> Outcome {
    let mut out = Outcome::default();
    let jiffies = CpuJiffies::now();
    let start = Instant::now();
    let mut pass = 0u64;
    while out.passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let config = workload.config(pass_seed(seed, pass));
        pass += 1;
        match run_pass(workload, &config, replicas, observer, &mut out) {
            Some(summary) => out.passes.push(summary),
            None => break,
        }
    }
    (out.steal_jiffies, out.steal_share) = CpuJiffies::now().steal_since(jiffies);
    out
}

/// Run `config.rounds` rounds of `config` on `replicas` sessions, one after
/// the other, recording timings and failures into `out`. `None` when a
/// build or a round panicked.
///
/// The engine is deterministic for a config, so every replica does the same
/// work (its records must match the first replica's bit for bit), and a
/// round's time is its fastest replica's. CPU time the hypervisor steals
/// only ever adds wall time, and on a shared 2-vCPU host it comes in bursts
/// shorter than a pass, so the minimum over replicas run a pass apart
/// discards most of it. The first replica's records are checked and
/// observed.
pub fn run_pass(
    workload: Workload,
    config: &ExperimentConfig,
    replicas: usize,
    observer: &mut dyn RoundObserver,
    out: &mut Outcome,
) -> Option<PassSummary> {
    let mut summary = PassSummary {
        seed: config.seed,
        final_accuracy: f64::NAN,
        time_to_target_s: None,
        uplink_bytes: 0,
    };
    let mut round_s = vec![f64::INFINITY; config.rounds];
    let mut keys = Vec::with_capacity(config.rounds);
    let mut failures: Vec<Option<String>> = vec![None; config.rounds];
    out.attempted += config.rounds as u64;
    for replica in 0..replicas.max(1) {
        let t = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| {
            SessionBuilder::from_config(config).build()
        }));
        out.setup_s.push(t.elapsed().as_secs_f64());
        let Ok(mut session) = built else {
            out.fail(format!("seed {}: session build panicked", config.seed));
            return None;
        };
        let primary = replica == 0;
        if primary {
            observer.pass_started(&session);
        }
        let mut checker = RoundChecker::default();
        for r in 0..config.rounds {
            if primary {
                observer.before_round(&session);
            }
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| session.run_round()));
            let secs = t.elapsed().as_secs_f64();
            let Ok(output) = result else {
                out.fail(format!("seed {}: run_round panicked", config.seed));
                return None;
            };
            round_s[r] = round_s[r].min(secs);
            let checked = if primary {
                let record = &output.record;
                summary.final_accuracy = record.test_accuracy;
                summary.uplink_bytes += record.uplink_bytes as u64;
                if summary.time_to_target_s.is_none()
                    && record.test_accuracy >= workload.target_accuracy()
                {
                    summary.time_to_target_s = Some(record.cumulative_actual_s);
                }
                keys.push(RoundKey::of(&output));
                checker
                    .check(&session, &output)
                    .and_then(|()| observer.after_round(&session, &output, t, secs))
            } else if keys[r] != RoundKey::of(&output) {
                Err(format!("replica {replica} diverged from the first"))
            } else {
                Ok(())
            };
            if let Err(why) = checked {
                failures[r].get_or_insert(why);
            }
        }
    }
    if let (None, Some(last)) = (summary.time_to_target_s, failures.last_mut()) {
        last.get_or_insert(format!(
            "accuracy target {} not reached (final {})",
            workload.target_accuracy(),
            summary.final_accuracy
        ));
    }
    for (r, why) in failures.into_iter().enumerate() {
        if let Some(why) = why {
            out.fail(format!("seed {} round {r}: {why}", config.seed));
        }
    }
    out.round_s.extend(round_s);
    Some(summary)
}

/// The parts of a round's output the metrics read, bit for bit.
#[derive(PartialEq)]
struct RoundKey {
    selected: Vec<usize>,
    wire_bytes: Vec<usize>,
    bits: [u64; 3],
}

impl RoundKey {
    fn of(output: &RoundOutput) -> Self {
        let r = &output.record;
        Self {
            selected: r.selected_clients.clone(),
            wire_bytes: output.uplink_wire_bytes.clone(),
            bits: [
                r.test_accuracy.to_bits(),
                r.train_loss.to_bits(),
                r.cumulative_actual_s.to_bits(),
            ],
        }
    }
}

/// The per-round output checks. A fast but wrong round fails one of these.
#[derive(Default)]
struct RoundChecker {
    next_round: usize,
    last_cumulative_s: f64,
    evaluated: bool,
}

impl RoundChecker {
    fn check(&mut self, session: &FederatedSession, output: &RoundOutput) -> Result<(), String> {
        let config = session.config();
        let record = &output.record;
        let round = self.next_round;
        self.next_round += 1;
        if record.round != round {
            return Err(format!(
                "record says round {}, expected {round}",
                record.round
            ));
        }
        if record.selected_clients.len() != output.uplink_wire_bytes.len()
            || record.selected_clients.is_empty()
        {
            return Err("cohort and uplink buffers disagree".into());
        }
        if !record.train_loss.is_finite() {
            return Err(format!("train loss {} is not finite", record.train_loss));
        }
        if record.test_accuracy.is_nan() && !evaluates(config, round) && !self.evaluated {
            // No evaluation has run yet: the engine reports NaN.
        } else {
            if !(0.0..=1.0).contains(&record.test_accuracy) {
                return Err(format!("accuracy {} outside [0, 1]", record.test_accuracy));
            }
            if !record.test_loss.is_finite() {
                return Err(format!("test loss {} is not finite", record.test_loss));
            }
            self.evaluated = true;
        }
        let wire_sum: usize = output.uplink_wire_bytes.iter().sum();
        if record.uplink_bytes != wire_sum {
            return Err(format!(
                "record uplink {} != sum of wire buffers {wire_sum}",
                record.uplink_bytes
            ));
        }
        if !(record.cumulative_actual_s.is_finite()
            && record.cumulative_actual_s >= self.last_cumulative_s)
        {
            return Err(format!(
                "cumulative simulated time went from {} to {}",
                self.last_cumulative_s, record.cumulative_actual_s
            ));
        }
        self.last_cumulative_s = record.cumulative_actual_s;
        Ok(())
    }
}

/// Whether the engine evaluates the global model after `round`: every
/// `eval_every` rounds and on the last configured round.
pub(crate) fn evaluates(config: &ExperimentConfig, round: usize) -> bool {
    (round + 1).is_multiple_of(config.eval_every.max(1)) || round + 1 == config.rounds
}
