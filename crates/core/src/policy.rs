//! Pluggable per-round policies of the [`crate::session::FederatedSession`]
//! round engine.
//!
//! The experiment loop is decomposed into three policy seams, each a trait
//! with the paper's behaviour as the default implementation:
//!
//! * [`ClientSelector`] — which clients participate this round. The paper
//!   samples uniformly without replacement ([`UniformSelector`]); the
//!   [`AvailabilitySelector`] models client dropout, where each client is
//!   independently unavailable with a configured probability.
//! * [`RatioPolicy`] — which compression ratio each selected client gets.
//!   [`UniformRatio`] covers FedAvg (dense) and the uniform sparsifiers;
//!   [`BcrsRatioPolicy`] wraps the paper's bandwidth-aware scheduler (Alg. 2).
//! * [`ServerOpt`] — how the aggregated delta is applied to the global model.
//!   [`SgdServer`] is the paper's plain update `w ← w − η·Δ`;
//!   [`MomentumServer`] adds heavy-ball server momentum (FedAvgM-style).
//! * [`PlanPolicy`] — which per-layer codec plan the cohort encodes under
//!   this round, when the configuration asks for an adaptive plan (without
//!   one, the configuration's fixed [`LayerPlan`] holds for the whole run).
//!   [`LayerBcrsPolicy`] closes the telemetry loop, re-splitting the round's
//!   coordinate budget across layers in proportion to the observed gradient
//!   mass and checking each layer's budget against the BCRS straggler
//!   envelope.
//!
//! Custom policies plug in through
//! [`crate::session::SessionBuilder`]; the defaults are derived from the
//! [`ExperimentConfig`] so that `run_experiment` reproduces the paper's
//! Algorithm 1 exactly.

use crate::aggregate::apply_update;
use crate::algorithm::Algorithm;
use crate::bcrs::{BcrsSchedule, BcrsScheduler};
use crate::config::ExperimentConfig;
use crate::runner::LayerBytes;
use fl_compress::{CompressorSpec, LayerPlan, SegmentDef, SpecError};
use fl_netsim::{CommModel, Link};
use fl_tensor::rng::{Rng, Xoshiro256};
use serde::{Deserialize, Serialize};

/// Everything a [`ClientSelector`] may consult when picking a cohort.
pub struct SelectionCtx<'a> {
    /// Round index (0-based).
    pub round: usize,
    /// Total number of clients `N`.
    pub num_clients: usize,
    /// Target cohort size `max(1, round(N · C))`.
    pub cohort_size: usize,
    /// Network link of every client (indexed by client id).
    pub links: &'a [Link],
}

/// Picks the cohort of participating clients each round.
///
/// Implementations draw all randomness from the passed `rng` (the session's
/// dedicated selection stream) so runs stay reproducible.
pub trait ClientSelector: Send {
    /// Return the ids of the clients participating this round. The result
    /// must contain no duplicates and every id must be in
    /// `[0, num_clients)`. It may be smaller than `cohort_size` (e.g. under
    /// dropout); if it comes back empty the round engine backstops it with
    /// one uniformly drawn client, so a round always has a participant.
    fn select(&mut self, ctx: &SelectionCtx<'_>, rng: &mut Xoshiro256) -> Vec<usize>;

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

/// The paper's selector: `cohort_size` clients uniformly at random without
/// replacement (Alg. 1 line 3).
///
/// Cost at population scale: one partial Fisher–Yates over an index vector,
/// i.e. O(N) time and memory per round. At the N = 10^5–10^6 populations the
/// virtualized [`crate::roster::ClientRoster`] supports this is a single
/// `usize` vector — negligible next to client training, and nothing about
/// the draw instantiates client state (only the `cohort_size` *selected*
/// clients are ever materialised).
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformSelector;

impl ClientSelector for UniformSelector {
    fn select(&mut self, ctx: &SelectionCtx<'_>, rng: &mut Xoshiro256) -> Vec<usize> {
        rng.sample_without_replacement(ctx.num_clients, ctx.cohort_size)
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Dropout-aware selector: every client is independently unavailable with
/// probability `dropout_rate` each round, and the cohort is drawn uniformly
/// from the available clients (shrinking below the target size when too few
/// are up). If no client is available at all, exactly one client is drawn
/// uniformly so the round still has a participant — previously this case
/// fell back to a *full* target-size cohort, i.e. the rounds where the most
/// clients were down were the ones with the largest cohorts, and downstream
/// per-client averages were computed over clients that never participated.
///
/// Like [`UniformSelector`] this is O(N) per round (one availability draw
/// per client), which stays cheap even at roster-scale populations.
#[derive(Clone, Copy, Debug)]
pub struct AvailabilitySelector {
    /// Per-round, per-client probability of being unavailable, in `[0, 1)`.
    pub dropout_rate: f64,
}

impl AvailabilitySelector {
    /// New availability selector. Panics unless `dropout_rate ∈ [0, 1)`.
    pub fn new(dropout_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&dropout_rate),
            "dropout_rate must be in [0, 1), got {dropout_rate}"
        );
        Self { dropout_rate }
    }
}

impl ClientSelector for AvailabilitySelector {
    fn select(&mut self, ctx: &SelectionCtx<'_>, rng: &mut Xoshiro256) -> Vec<usize> {
        let available: Vec<usize> = (0..ctx.num_clients)
            .filter(|_| !rng.next_bool(self.dropout_rate))
            .collect();
        if available.is_empty() {
            return vec![rng.next_below(ctx.num_clients)];
        }
        let k = ctx.cohort_size.min(available.len());
        rng.sample_without_replacement(available.len(), k)
            .into_iter()
            .map(|i| available[i])
            .collect()
    }

    fn name(&self) -> &'static str {
        "availability"
    }
}

/// Everything a [`RatioPolicy`] may consult when assigning ratios.
pub struct RatioCtx<'a> {
    /// Round index (0-based).
    pub round: usize,
    /// Links of the *selected* clients, in cohort order.
    pub links: &'a [Link],
    /// Dense model size in bytes (`V` of the communication model).
    pub model_bytes: f64,
}

/// The per-round outcome of a [`RatioPolicy`].
pub struct RatioDecision {
    /// Compression ratio per selected client, in cohort order.
    pub ratios: Vec<f64>,
    /// The BCRS schedule, when the policy ran the bandwidth-aware scheduler
    /// (used for Eq. 6 coefficient adjustment and exact uplink timing).
    pub schedule: Option<BcrsSchedule>,
    /// True when updates travel uncompressed (dense wire format without the
    /// 2× index overhead of sparse transmission) — FedAvg's case.
    pub dense_uplink: bool,
}

/// Assigns each selected client its compression ratio for the round.
pub trait RatioPolicy: Send {
    /// Decide the cohort's ratios (one per entry of `ctx.links`).
    fn decide(&self, ctx: &RatioCtx<'_>) -> RatioDecision;

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

/// The same ratio for every client: `1.0` dense for FedAvg, or the base
/// compression ratio for the uniform sparsifiers (Top-K, EF-Top-K, Rand-K).
#[derive(Clone, Copy, Debug)]
pub struct UniformRatio {
    /// The ratio given to every selected client.
    pub ratio: f64,
    /// Whether updates are transmitted dense (no sparse index overhead).
    pub dense_uplink: bool,
}

impl UniformRatio {
    /// Uniform sparsification at `ratio`.
    pub fn sparse(ratio: f64) -> Self {
        Self {
            ratio,
            dense_uplink: false,
        }
    }

    /// Uncompressed (FedAvg) transmission.
    pub fn dense() -> Self {
        Self {
            ratio: 1.0,
            dense_uplink: true,
        }
    }
}

impl RatioPolicy for UniformRatio {
    fn decide(&self, ctx: &RatioCtx<'_>) -> RatioDecision {
        RatioDecision {
            ratios: vec![self.ratio; ctx.links.len()],
            schedule: None,
            dense_uplink: self.dense_uplink,
        }
    }

    fn name(&self) -> &'static str {
        if self.dense_uplink {
            "dense"
        } else {
            "uniform"
        }
    }
}

/// The paper's bandwidth-aware compression-ratio scheduling (Alg. 2): every
/// client gets the largest ratio that still finishes within the slowest
/// client's compressed upload time.
#[derive(Clone, Debug)]
pub struct BcrsRatioPolicy {
    scheduler: BcrsScheduler,
    base_ratio: f64,
}

impl BcrsRatioPolicy {
    /// BCRS over the given communication model at the given base ratio `CR*`.
    pub fn new(comm: CommModel, base_ratio: f64) -> Self {
        Self {
            scheduler: BcrsScheduler::new(comm),
            base_ratio,
        }
    }
}

impl RatioPolicy for BcrsRatioPolicy {
    fn decide(&self, ctx: &RatioCtx<'_>) -> RatioDecision {
        let schedule = self
            .scheduler
            .schedule(ctx.links, ctx.model_bytes, self.base_ratio);
        RatioDecision {
            ratios: schedule.ratios.clone(),
            schedule: Some(schedule),
            dense_uplink: false,
        }
    }

    fn name(&self) -> &'static str {
        "bcrs"
    }
}

/// Applies the aggregated cohort delta to the global parameters.
///
/// Implementations may keep state across rounds (momentum buffers, adaptive
/// moments, …); the session calls `apply` exactly once per round.
pub trait ServerOpt: Send {
    /// Update `global` in place from the aggregated descent direction
    /// `aggregated_delta` at server learning rate `server_lr`.
    fn apply(&mut self, global: &mut [f32], aggregated_delta: &[f32], server_lr: f32);

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

/// The paper's plain server update `w ← w − η_server · Δ` (Alg. 1 line 18).
#[derive(Clone, Copy, Debug, Default)]
pub struct SgdServer;

impl ServerOpt for SgdServer {
    fn apply(&mut self, global: &mut [f32], aggregated_delta: &[f32], server_lr: f32) {
        apply_update(global, aggregated_delta, server_lr);
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Heavy-ball server momentum (FedAvgM): `v ← β·v + Δ`, `w ← w − η_server·v`.
/// With `β = 0` this degrades to [`SgdServer`].
#[derive(Clone, Debug)]
pub struct MomentumServer {
    momentum: f32,
    velocity: Vec<f32>,
}

impl MomentumServer {
    /// New momentum server optimizer. Panics unless `momentum ∈ [0, 1)`.
    pub fn new(momentum: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&momentum),
            "server momentum must be in [0, 1), got {momentum}"
        );
        Self {
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Current L2 norm of the velocity buffer (0 before the first round).
    pub fn velocity_norm(&self) -> f64 {
        self.velocity
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }
}

impl ServerOpt for MomentumServer {
    fn apply(&mut self, global: &mut [f32], aggregated_delta: &[f32], server_lr: f32) {
        assert_eq!(
            global.len(),
            aggregated_delta.len(),
            "parameter length mismatch"
        );
        if self.velocity.len() != aggregated_delta.len() {
            self.velocity = vec![0.0; aggregated_delta.len()];
        }
        for ((w, v), &d) in global
            .iter_mut()
            .zip(self.velocity.iter_mut())
            .zip(aggregated_delta.iter())
        {
            *v = self.momentum * *v + d;
            *w -= server_lr * *v;
        }
    }

    fn name(&self) -> &'static str {
        "momentum"
    }
}

/// The selector implied by a configuration: [`AvailabilitySelector`] when
/// `dropout_rate > 0`, the paper's [`UniformSelector`] otherwise.
pub fn default_selector(config: &ExperimentConfig) -> Box<dyn ClientSelector> {
    if config.dropout_rate > 0.0 {
        Box::new(AvailabilitySelector::new(config.dropout_rate))
    } else {
        Box::new(UniformSelector)
    }
}

/// The ratio policy implied by a configuration's algorithm (the former
/// `match config.algorithm` block of the monolithic runner).
pub fn default_ratio_policy(config: &ExperimentConfig, comm: CommModel) -> Box<dyn RatioPolicy> {
    match config.algorithm {
        Algorithm::FedAvg => Box::new(UniformRatio::dense()),
        Algorithm::TopK | Algorithm::EfTopK | Algorithm::RandK | Algorithm::TopKOpwa => {
            Box::new(UniformRatio::sparse(config.compression_ratio))
        }
        Algorithm::Bcrs | Algorithm::BcrsOpwa => {
            Box::new(BcrsRatioPolicy::new(comm, config.compression_ratio))
        }
    }
}

/// The server optimizer implied by a configuration: [`MomentumServer`] when
/// `server_momentum > 0`, the paper's plain [`SgdServer`] otherwise.
pub fn default_server_opt(config: &ExperimentConfig) -> Box<dyn ServerOpt> {
    if config.server_momentum > 0.0 {
        Box::new(MomentumServer::new(config.server_momentum))
    } else {
        Box::new(SgdServer)
    }
}

/// The codec spec an algorithm implies when the configuration does not
/// override it: `ef-topk` for EF-Top-K, `randk` for Rand-K, plain `topk` for
/// everything else (FedAvg transmits at ratio 1, which Top-K passes through).
pub fn default_codec_spec(algorithm: Algorithm) -> CompressorSpec {
    if algorithm.uses_error_feedback() {
        CompressorSpec::topk().with_error_feedback()
    } else if algorithm.uses_randk() {
        CompressorSpec::randk()
    } else {
        CompressorSpec::topk()
    }
}

/// The uplink codec plan a configuration resolves to: the explicit
/// [`ExperimentConfig::compressor`] assignment when present, the
/// algorithm-implied default as a one-rule plan otherwise. This is the fourth
/// policy seam of the round engine — any algorithm can run over any codec.
pub fn resolve_codec_plan(config: &ExperimentConfig) -> LayerPlan {
    config
        .compressor
        .clone()
        .unwrap_or_else(|| LayerPlan::uniform(default_codec_spec(config.algorithm)))
}

/// Parseable description of the plan policy driving adaptive per-layer
/// compression (the [`ExperimentConfig::adaptive_plan`] knob and the bench
/// harness `--adaptive-plan` flag).
///
/// Grammar (round-trips through `Display`): `layer-bcrs` or
/// `layer-bcrs:efficiency=<f>` — the telemetry-driven [`LayerBcrsPolicy`];
/// `efficiency ∈ (0, 1]` defaults to [`AdaptivePlanSpec::DEFAULT_EFFICIENCY`].
/// A fixed plan is not a policy: set [`ExperimentConfig::compressor`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AdaptivePlanSpec {
    /// Mass-proportional per-layer budgets through the BCRS scheduler.
    LayerBcrs {
        /// Fraction of the uniform plan's coordinate budget the allocator
        /// spends, in `(0, 1]`. Keeping it below 1 is what guarantees a
        /// strict uplink-byte win over the uniform plan at the same base
        /// ratio.
        efficiency: f64,
    },
}

impl AdaptivePlanSpec {
    /// Default budget fraction of [`AdaptivePlanSpec::LayerBcrs`].
    pub const DEFAULT_EFFICIENCY: f64 = 0.9;

    /// Parse a spec string (`"layer-bcrs"`, `"layer-bcrs:efficiency=0.8"`).
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let trimmed = s.trim();
        let (head, opts) = match trimmed.split_once(':') {
            Some((head, opts)) => (head, Some(opts)),
            None => (trimmed, None),
        };
        if head != "layer-bcrs" {
            return Err(SpecError::Parse(s.to_string()));
        }
        let mut efficiency = Self::DEFAULT_EFFICIENCY;
        if let Some(opts) = opts {
            for kv in opts.split(',') {
                match kv.split_once('=') {
                    Some(("efficiency", v)) => {
                        efficiency = v
                            .trim()
                            .parse()
                            .map_err(|_| SpecError::Parse(s.to_string()))?;
                    }
                    _ => return Err(SpecError::Parse(s.to_string())),
                }
            }
        }
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(SpecError::Parse(s.to_string()));
        }
        Ok(Self::LayerBcrs { efficiency })
    }

    /// Short policy name (`"layer-bcrs"`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::LayerBcrs { .. } => "layer-bcrs",
        }
    }
}

impl std::fmt::Display for AdaptivePlanSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LayerBcrs { efficiency } => {
                if *efficiency == Self::DEFAULT_EFFICIENCY {
                    write!(f, "layer-bcrs")
                } else {
                    write!(f, "layer-bcrs:efficiency={efficiency}")
                }
            }
        }
    }
}

impl std::str::FromStr for AdaptivePlanSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Everything a [`PlanPolicy`] may consult when re-resolving the per-layer
/// plan for a round: the model's segment layout, the round's cohort links,
/// and the telemetry the previous round left behind.
pub struct PlanCtx<'a> {
    /// Round index (0-based).
    pub round: usize,
    /// The model's parameter segments (names + lengths, layout order) — the
    /// `fl-nn` `ParamLayout` bridged through [`SegmentDef`].
    pub segments: &'a [SegmentDef],
    /// Links of the *selected* clients, in cohort order.
    pub links: &'a [Link],
    /// Dense model size in bytes (`V` of the communication model).
    pub model_bytes: f64,
    /// The run's base compression ratio `CR*`.
    pub base_ratio: f64,
    /// Previous round's per-layer uplink/downlink byte split (`None` on
    /// round 0 or when the engine recorded no per-layer telemetry).
    pub prev_layer_bytes: Option<&'a [LayerBytes]>,
    /// Previous round's per-segment gradient mass — the L1 norm of the
    /// aggregated delta restricted to each segment, in layout order (`None`
    /// on round 0).
    pub gradient_mass: Option<&'a [f64]>,
    /// Total L2 norm of all parked error-feedback residuals across the
    /// population (0 when no client carries dropped mass).
    pub residual_norm: f64,
}

/// One segment's resolved assignment inside a [`PlanDecision`] — recorded
/// into the round telemetry so per-layer decisions are inspectable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanAssignment {
    /// Segment name (`linear0.weight`, …).
    pub segment: String,
    /// The codec spec string assigned to the segment (`ef-topk+qsgd:8`, …).
    pub spec: String,
    /// The effective compression ratio the segment encodes at when a client
    /// uploads at the cohort base ratio.
    pub ratio: f64,
}

/// The per-round outcome of a [`PlanPolicy`].
pub struct PlanDecision {
    /// The plan the cohort's codecs resolve against this round.
    pub plan: LayerPlan,
    /// Per-segment multipliers on each client's assigned ratio, in layout
    /// order. The plan resolves through `LayerPlan::resolve_scaled`, so the
    /// cohort's updates are always segment-framed.
    pub scales: Vec<f64>,
    /// The resolved per-segment assignments, for telemetry.
    pub assignments: Vec<PlanAssignment>,
}

/// Re-resolves the cohort's per-layer codec plan each round.
///
/// Advanced by the round engine in the select stage — after the cohort and
/// its link snapshot are known, before any client trains — so a decision can
/// react to the previous round's telemetry and to the links it must schedule
/// over. Unlike [`RatioPolicy`], implementations may keep state across
/// rounds (hence `&mut self`).
pub trait PlanPolicy: Send {
    /// Decide the round's plan.
    fn decide(&mut self, ctx: &PlanCtx<'_>) -> PlanDecision;

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

/// Normalized per-segment weights a [`LayerBcrsPolicy`] splits the round's
/// coordinate budget by: the observed per-segment gradient mass when the
/// telemetry loop has produced any (round ≥ 1 and not all-zero), segment
/// lengths otherwise (round 0 degrades to a uniform split).
pub fn plan_weights(lens: &[usize], gradient_mass: Option<&[f64]>) -> Vec<f64> {
    assert!(!lens.is_empty(), "plan weights need at least one segment");
    let from_mass = gradient_mass.filter(|m| {
        m.len() == lens.len() && m.iter().all(|&x| x >= 0.0) && m.iter().any(|&x| x > 0.0)
    });
    let raw: Vec<f64> = match from_mass {
        Some(mass) => mass.to_vec(),
        None => lens.iter().map(|&l| l as f64).collect(),
    };
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Split the round's coordinate budget — `efficiency · base_ratio · Σ len`
/// coordinates — across segments in proportion to `weights`, flooring every
/// segment at one coordinate and capping at the segment length.
///
/// The floor keeps tiny budgets valid (a budget smaller than one coordinate
/// per segment still ships one coordinate per segment — the per-segment
/// framing overhead is the price of a layer-aware plan, not this
/// allocator's concern), and the cap stops a dominant segment from being
/// "compressed" above dense.
pub fn allocate_layer_budgets(
    lens: &[usize],
    weights: &[f64],
    base_ratio: f64,
    efficiency: f64,
) -> Vec<usize> {
    assert_eq!(lens.len(), weights.len(), "one weight per segment");
    assert!(!lens.is_empty(), "budget allocation needs segments");
    assert!(
        base_ratio > 0.0 && base_ratio <= 1.0,
        "base ratio must be in (0, 1], got {base_ratio}"
    );
    assert!(
        efficiency > 0.0 && efficiency <= 1.0,
        "efficiency must be in (0, 1], got {efficiency}"
    );
    let total: usize = lens.iter().sum();
    let wsum: f64 = weights.iter().sum();
    let budget = efficiency * base_ratio * total as f64;
    lens.iter()
        .zip(weights.iter())
        .map(|(&len, &w)| (((w / wsum) * budget).floor() as usize).clamp(1, len.max(1)))
        .collect()
}

/// The telemetry-driven plan policy: spend the bandwidth budget where the
/// gradient mass is, layer by layer, round by round.
///
/// Each round the policy (1) splits `efficiency · CR* · num_params`
/// coordinates across segments in proportion to the previous round's
/// per-segment gradient mass ([`plan_weights`] / [`allocate_layer_budgets`];
/// segment lengths stand in on round 0), (2) runs the existing
/// [`BcrsScheduler`] over each layer's byte budget and trims any layer whose
/// straggler upload time would exceed its mass-proportional share of the
/// uniform plan's BCRS envelope, and (3) assigns `qsgd` bit widths by mass
/// rank — the heaviest third of segments quantize at 8 bits, the middle at
/// 6, the lightest at 4 — emitting one exact-name
/// `<segment>=ef-topk+qsgd:<bits>` rule per segment plus per-segment ratio
/// scales.
pub struct LayerBcrsPolicy {
    scheduler: BcrsScheduler,
    base_ratio: f64,
    efficiency: f64,
}

impl LayerBcrsPolicy {
    /// Layer-BCRS over the given communication model at base ratio `CR*`,
    /// spending `efficiency ∈ (0, 1]` of the uniform coordinate budget.
    pub fn new(comm: CommModel, base_ratio: f64, efficiency: f64) -> Self {
        assert!(
            base_ratio > 0.0 && base_ratio <= 1.0,
            "base ratio must be in (0, 1], got {base_ratio}"
        );
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1], got {efficiency}"
        );
        Self {
            scheduler: BcrsScheduler::new(comm),
            base_ratio,
            efficiency,
        }
    }
}

impl PlanPolicy for LayerBcrsPolicy {
    fn decide(&mut self, ctx: &PlanCtx<'_>) -> PlanDecision {
        let n = ctx.segments.len();
        assert!(n > 0, "plan policy needs at least one segment");
        let lens: Vec<usize> = ctx.segments.iter().map(|s| s.len).collect();
        let weights = plan_weights(&lens, ctx.gradient_mass);
        let budgets = allocate_layer_budgets(&lens, &weights, self.base_ratio, self.efficiency);

        // Bit widths by mass rank: heaviest third 8 bits, middle 6, rest 4.
        // Ties break on layout order so the decision is deterministic.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .expect("plan weights are finite")
                .then(a.cmp(&b))
        });
        let mut bits = vec![4u8; n];
        for (rank, &i) in order.iter().enumerate() {
            bits[i] = if rank * 3 < n {
                8
            } else if rank * 3 < 2 * n {
                6
            } else {
                4
            };
        }

        // The straggler envelope the uniform plan would spend: any layer
        // whose slowest-client upload time exceeds its mass share of it gets
        // trimmed back, so the adaptive plan never worsens the round's
        // straggler beyond BCRS's own discipline.
        let envelope = (!ctx.links.is_empty())
            .then(|| {
                self.scheduler
                    .schedule(ctx.links, ctx.model_bytes, self.base_ratio)
                    .t_bench
            })
            .filter(|t| *t > 0.0);

        let mut rules = String::new();
        let mut scales = Vec::with_capacity(n);
        let mut assignments = Vec::with_capacity(n);
        for (i, seg) in ctx.segments.iter().enumerate() {
            let len = seg.len.max(1);
            let floor = 1.0 / len as f64;
            let mut ratio = budgets[i] as f64 / len as f64;
            if let Some(envelope) = envelope {
                let layer_bytes = len as f64 * 4.0;
                let straggler = self
                    .scheduler
                    .schedule(ctx.links, layer_bytes, ratio.clamp(floor, 1.0))
                    .t_bench;
                let share = weights[i] * envelope;
                if straggler > share && straggler > 0.0 {
                    ratio = (ratio * share / straggler).clamp(floor, 1.0);
                }
            }
            let ratio = ratio.clamp(floor, 1.0);
            let spec = format!("ef-topk+qsgd:{}", bits[i]);
            if i > 0 {
                rules.push(';');
            }
            rules.push_str(&seg.name);
            rules.push('=');
            rules.push_str(&spec);
            scales.push(ratio / self.base_ratio);
            assignments.push(PlanAssignment {
                segment: seg.name.clone(),
                spec,
                ratio,
            });
        }
        let plan = LayerPlan::parse(&rules).expect("generated rules always parse");
        PlanDecision {
            plan,
            scales,
            assignments,
        }
    }

    fn name(&self) -> &'static str {
        "layer-bcrs"
    }
}

/// The plan policy implied by a configuration's `adaptive_plan` knob:
/// `None` (the configuration's fixed plan holds all run) unless the knob is
/// set.
pub fn default_plan_policy(
    config: &ExperimentConfig,
    comm: CommModel,
) -> Option<Box<dyn PlanPolicy>> {
    match &config.adaptive_plan {
        None => None,
        Some(AdaptivePlanSpec::LayerBcrs { efficiency }) => Some(Box::new(LayerBcrsPolicy::new(
            comm,
            config.compression_ratio,
            *efficiency,
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(links: &[Link]) -> SelectionCtx<'_> {
        SelectionCtx {
            round: 0,
            num_clients: links.len(),
            cohort_size: links.len() / 2,
            links,
        }
    }

    fn links(n: usize) -> Vec<Link> {
        (0..n)
            .map(|i| Link::from_mbps_ms(1.0 + i as f64, 50.0))
            .collect()
    }

    #[test]
    fn uniform_selector_matches_raw_sampling() {
        let links = links(10);
        let mut a = Xoshiro256::new(99);
        let mut b = Xoshiro256::new(99);
        let picked = UniformSelector.select(&ctx(&links), &mut a);
        assert_eq!(picked, b.sample_without_replacement(10, 5));
    }

    #[test]
    fn availability_selector_is_deterministic_and_valid() {
        let links = links(10);
        let mut sel = AvailabilitySelector::new(0.4);
        let mut a = Xoshiro256::new(3);
        let mut b = Xoshiro256::new(3);
        let pa = sel.select(&ctx(&links), &mut a);
        let pb = sel.select(&ctx(&links), &mut b);
        assert_eq!(pa, pb);
        assert!(!pa.is_empty() && pa.len() <= 5);
        let mut dedup = pa.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), pa.len());
        assert!(pa.iter().all(|&c| c < 10));
    }

    #[test]
    fn availability_selector_shrinks_cohort_under_heavy_dropout() {
        let links = links(10);
        let mut sel = AvailabilitySelector::new(0.9);
        let mut rng = Xoshiro256::new(5);
        let mut shrunk = false;
        for _ in 0..50 {
            let picked = sel.select(&ctx(&links), &mut rng);
            assert!(!picked.is_empty());
            if picked.len() < 5 {
                shrunk = true;
            }
        }
        assert!(shrunk, "90% dropout should shrink the cohort at least once");
    }

    #[test]
    #[should_panic]
    fn availability_selector_rejects_certain_dropout() {
        AvailabilitySelector::new(1.0);
    }

    #[test]
    fn near_certain_dropout_still_yields_a_participant_every_round() {
        // Regression: at dropout_rate ≈ 1.0 the "nobody available" branch is
        // hit almost every round. It must produce exactly one valid
        // participant — never an empty cohort (which would break the round's
        // straggler max and per-client byte averages downstream) and never
        // the old full-target-size fallback.
        let links = links(10);
        let mut sel = AvailabilitySelector::new(0.999);
        let mut rng = Xoshiro256::new(17);
        let mut singleton_rounds = 0;
        for _ in 0..300 {
            let picked = sel.select(&ctx(&links), &mut rng);
            assert!(!picked.is_empty(), "empty cohort at dropout ≈ 1.0");
            assert!(picked.len() <= 5);
            assert!(picked.iter().all(|&c| c < 10));
            if picked.len() == 1 {
                singleton_rounds += 1;
            }
        }
        assert!(
            singleton_rounds > 250,
            "at 99.9% dropout nearly every round should fall back to a \
             single participant, got {singleton_rounds}/300"
        );
    }

    #[test]
    fn uniform_ratio_decision() {
        let links = links(4);
        let rctx = RatioCtx {
            round: 0,
            links: &links,
            model_bytes: 1e5,
        };
        let d = UniformRatio::sparse(0.1).decide(&rctx);
        assert_eq!(d.ratios, vec![0.1; 4]);
        assert!(d.schedule.is_none());
        assert!(!d.dense_uplink);
        let d = UniformRatio::dense().decide(&rctx);
        assert_eq!(d.ratios, vec![1.0; 4]);
        assert!(d.dense_uplink);
    }

    #[test]
    fn bcrs_policy_produces_schedule() {
        let links = vec![
            Link::from_mbps_ms(4.0, 40.0),
            Link::from_mbps_ms(0.5, 150.0),
        ];
        let rctx = RatioCtx {
            round: 0,
            links: &links,
            model_bytes: 1e5,
        };
        let d = BcrsRatioPolicy::new(CommModel::paper_default(), 0.05).decide(&rctx);
        let s = d.schedule.expect("BCRS must emit a schedule");
        assert_eq!(d.ratios, s.ratios);
        assert!(d.ratios[0] > d.ratios[1], "fast client gets a larger ratio");
    }

    #[test]
    fn sgd_server_matches_apply_update() {
        let mut a = vec![1.0f32, 2.0, 3.0];
        let mut b = a.clone();
        SgdServer.apply(&mut a, &[0.5, 0.5, 0.5], 0.2);
        apply_update(&mut b, &[0.5, 0.5, 0.5], 0.2);
        assert_eq!(a, b);
    }

    #[test]
    fn momentum_server_accumulates_velocity() {
        let mut opt = MomentumServer::new(0.5);
        let mut w = vec![0.0f32; 2];
        opt.apply(&mut w, &[1.0, 2.0], 1.0); // v = [1, 2], w = [-1, -2]
        assert_eq!(w, vec![-1.0, -2.0]);
        opt.apply(&mut w, &[1.0, 2.0], 1.0); // v = [1.5, 3], w = [-2.5, -5]
        assert_eq!(w, vec![-2.5, -5.0]);
        assert!(opt.velocity_norm() > 0.0);
    }

    #[test]
    fn momentum_zero_equals_sgd() {
        let delta = [0.25f32, -0.75, 0.5];
        let mut a = vec![1.0f32; 3];
        let mut b = a.clone();
        MomentumServer::new(0.0).apply(&mut a, &delta, 0.7);
        SgdServer.apply(&mut b, &delta, 0.7);
        assert_eq!(a, b);
    }

    #[test]
    fn codec_specs_follow_algorithm_and_override() {
        assert_eq!(default_codec_spec(Algorithm::FedAvg).to_string(), "topk");
        assert_eq!(default_codec_spec(Algorithm::TopK).to_string(), "topk");
        assert_eq!(default_codec_spec(Algorithm::EfTopK).to_string(), "ef-topk");
        assert_eq!(default_codec_spec(Algorithm::RandK).to_string(), "randk");
        assert_eq!(default_codec_spec(Algorithm::Bcrs).to_string(), "topk");
        assert_eq!(default_codec_spec(Algorithm::BcrsOpwa).to_string(), "topk");
        assert_eq!(default_codec_spec(Algorithm::TopKOpwa).to_string(), "topk");

        let mut c = ExperimentConfig::quick(Algorithm::EfTopK);
        assert_eq!(resolve_codec_plan(&c).to_string(), "ef-topk");
        assert_eq!(resolve_codec_plan(&c), "*=ef-topk".parse().unwrap());
        c.compressor = Some("qsgd:8".parse().unwrap());
        assert_eq!(resolve_codec_plan(&c).to_string(), "qsgd:8");
        c.compressor = Some("*.bias=dense;*=topk".parse().unwrap());
        assert_eq!(resolve_codec_plan(&c).to_string(), "*.bias=dense;*=topk");
    }

    #[test]
    fn defaults_follow_config() {
        let mut c = ExperimentConfig::quick(Algorithm::FedAvg);
        assert_eq!(default_selector(&c).name(), "uniform");
        assert_eq!(default_server_opt(&c).name(), "sgd");
        assert_eq!(
            default_ratio_policy(&c, CommModel::paper_default()).name(),
            "dense"
        );
        c.dropout_rate = 0.2;
        c.server_momentum = 0.9;
        c.algorithm = Algorithm::Bcrs;
        assert_eq!(default_selector(&c).name(), "availability");
        assert_eq!(default_server_opt(&c).name(), "momentum");
        assert_eq!(
            default_ratio_policy(&c, CommModel::paper_default()).name(),
            "bcrs"
        );
    }

    fn segs(defs: &[(&str, usize)]) -> Vec<SegmentDef> {
        defs.iter().map(|&(n, l)| SegmentDef::new(n, l)).collect()
    }

    fn plan_ctx<'a>(
        segments: &'a [SegmentDef],
        links: &'a [Link],
        mass: Option<&'a [f64]>,
    ) -> PlanCtx<'a> {
        PlanCtx {
            round: 1,
            segments,
            links,
            model_bytes: segments.iter().map(|s| s.len as f64 * 4.0).sum(),
            base_ratio: 0.1,
            prev_layer_bytes: None,
            gradient_mass: mass,
            residual_norm: 0.0,
        }
    }

    #[test]
    fn adaptive_plan_spec_parses_and_round_trips() {
        let d: AdaptivePlanSpec = "layer-bcrs".parse().unwrap();
        assert_eq!(
            d,
            AdaptivePlanSpec::LayerBcrs {
                efficiency: AdaptivePlanSpec::DEFAULT_EFFICIENCY
            }
        );
        assert_eq!(d.to_string(), "layer-bcrs");
        assert_eq!(d.name(), "layer-bcrs");

        let e: AdaptivePlanSpec = "layer-bcrs:efficiency=0.75".parse().unwrap();
        assert_eq!(e, AdaptivePlanSpec::LayerBcrs { efficiency: 0.75 });
        assert_eq!(e.to_string(), "layer-bcrs:efficiency=0.75");
        assert_eq!(e.to_string().parse::<AdaptivePlanSpec>().unwrap(), e);
    }

    #[test]
    fn adaptive_plan_spec_rejects_garbage() {
        for bad in [
            "",
            "static:*=topk",
            "bcrs-layer",
            "layer-bcrs:efficiency=0",
            "layer-bcrs:efficiency=1.5",
            "layer-bcrs:eta=0.5",
            "layer-bcrs:efficiency",
        ] {
            assert!(bad.parse::<AdaptivePlanSpec>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn plan_weights_use_mass_and_fall_back_to_lengths() {
        // All-zero gradient mass (round 0 / dead model) degrades to a
        // length-proportional split instead of dividing by zero.
        let lens = [300usize, 100];
        let w = plan_weights(&lens, Some(&[0.0, 0.0]));
        assert!((w[0] - 0.75).abs() < 1e-12 && (w[1] - 0.25).abs() < 1e-12);
        let w = plan_weights(&lens, None);
        assert!((w[0] - 0.75).abs() < 1e-12);
        // Real mass wins over lengths.
        let w = plan_weights(&lens, Some(&[1.0, 3.0]));
        assert!((w[0] - 0.25).abs() < 1e-12 && (w[1] - 0.75).abs() < 1e-12);
        // Length mismatch is ignored (stale telemetry after a layout change).
        let w = plan_weights(&lens, Some(&[1.0]));
        assert!((w[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn allocator_is_mass_proportional_with_floor_and_cap() {
        let lens = [1000usize, 1000, 10];
        let weights = plan_weights(&lens, Some(&[9.0, 1.0, 0.0]));
        let budgets = allocate_layer_budgets(&lens, &weights, 0.1, 1.0);
        // 201 coordinates split 9:1:0 → heavy layer gets ~9× the light one,
        // the zero-mass layer still ships its one-coordinate floor.
        assert!(budgets[0] > 5 * budgets[1], "{budgets:?}");
        assert_eq!(budgets[2], 1);
        assert!(budgets.iter().sum::<usize>() <= 201);
        // A dominant weight cannot push a segment above dense.
        let budgets = allocate_layer_budgets(&[10, 1000], &[0.99, 0.01], 1.0, 1.0);
        assert_eq!(budgets[0], 10, "capped at the segment length");
    }

    #[test]
    fn allocator_single_segment_gets_the_whole_budget() {
        let lens = [500usize];
        let weights = plan_weights(&lens, None);
        assert_eq!(allocate_layer_budgets(&lens, &weights, 0.1, 1.0), vec![50]);
        assert_eq!(allocate_layer_budgets(&lens, &weights, 0.1, 0.9), vec![45]);
    }

    #[test]
    fn allocator_floors_budgets_smaller_than_the_framing_overhead() {
        // 4 segments but a budget of ~2 coordinates: every segment still
        // ships at least one coordinate, so the plan stays encodable even
        // when the budget is smaller than the per-segment framing overhead.
        let lens = [100usize, 100, 100, 100];
        let weights = plan_weights(&lens, None);
        let budgets = allocate_layer_budgets(&lens, &weights, 0.005, 1.0);
        assert_eq!(budgets, vec![1, 1, 1, 1]);
    }

    #[test]
    fn layer_bcrs_policy_emits_covering_rules_scales_and_bits() {
        let mut policy = LayerBcrsPolicy::new(CommModel::paper_default(), 0.1, 0.9);
        let segments = segs(&[("l0.weight", 784), ("l0.bias", 16), ("l1.weight", 160)]);
        let links = links(4);
        let mass = [50.0, 0.5, 5.0];
        let d = policy.decide(&plan_ctx(&segments, &links, Some(&mass)));

        // Every segment is covered by an exact-name rule.
        for seg in &segments {
            assert!(
                d.plan.spec_for(&seg.name).is_some(),
                "{} uncovered",
                seg.name
            );
        }
        assert_eq!(d.scales.len(), 3);
        assert_eq!(d.assignments.len(), 3);
        // Heaviest segment gets the widest quantizer and the largest ratio.
        assert_eq!(d.assignments[0].spec, "ef-topk+qsgd:8");
        assert_eq!(d.assignments[1].spec, "ef-topk+qsgd:4");
        assert_eq!(d.assignments[2].spec, "ef-topk+qsgd:6");
        assert!(d.assignments[0].ratio > d.assignments[2].ratio);
        assert!(d
            .assignments
            .iter()
            .all(|a| a.ratio > 0.0 && a.ratio <= 1.0));
        // The spent coordinate budget stays below the uniform plan's.
        let spent: f64 = d
            .assignments
            .iter()
            .zip(segments.iter())
            .map(|(a, s)| a.ratio * s.len as f64)
            .sum();
        assert!(spent < 0.1 * 960.0, "spent {spent} of {}", 0.1 * 960.0);
    }

    #[test]
    fn layer_bcrs_policy_is_deterministic() {
        let segments = segs(&[("a", 100), ("b", 200)]);
        let links = links(3);
        let mass = [1.0, 2.0];
        let mut p1 = LayerBcrsPolicy::new(CommModel::paper_default(), 0.2, 0.9);
        let mut p2 = LayerBcrsPolicy::new(CommModel::paper_default(), 0.2, 0.9);
        let d1 = p1.decide(&plan_ctx(&segments, &links, Some(&mass)));
        let d2 = p2.decide(&plan_ctx(&segments, &links, Some(&mass)));
        assert_eq!(d1.plan, d2.plan);
        assert_eq!(d1.scales, d2.scales);
        assert_eq!(d1.assignments, d2.assignments);
    }

    #[test]
    fn default_plan_policy_follows_the_knob() {
        let mut c = ExperimentConfig::quick(Algorithm::TopK);
        assert!(default_plan_policy(&c, CommModel::paper_default()).is_none());
        c.adaptive_plan = Some("layer-bcrs".parse().unwrap());
        assert_eq!(
            default_plan_policy(&c, CommModel::paper_default())
                .unwrap()
                .name(),
            "layer-bcrs"
        );
    }
}
