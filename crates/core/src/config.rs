//! Experiment configuration: one struct that fully determines a run.

use crate::algorithm::Algorithm;
use fl_compress::{CodecRegistry, LayerPlan};
use fl_data::DatasetPreset;
use fl_netsim::{CostBasis, LinkGenerator, ScenarioSpec};
use serde::{Deserialize, Serialize};

/// Which model architecture the clients train.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ModelPreset {
    /// Multi-layer perceptron with two hidden layers (default; see DESIGN.md
    /// §4 for why this substitutes for the paper's ResNet-18).
    Mlp {
        /// First hidden layer width.
        hidden1: usize,
        /// Second hidden layer width.
        hidden2: usize,
    },
    /// Single linear layer (logistic regression) — cheapest, used in tests.
    Linear,
}

impl ModelPreset {
    /// The default MLP used by the experiment suite.
    pub fn default_mlp() -> Self {
        ModelPreset::Mlp {
            hidden1: 128,
            hidden2: 64,
        }
    }

    /// The segment names of this preset's [`fl_nn::ParamLayout`]. They depend
    /// only on the architecture, not the dataset dimensions, so validation
    /// can check a layer plan's coverage before any data exists (a probe
    /// model with unit dimensions is built to stay aligned with the real
    /// layout derivation).
    pub fn segment_names(&self) -> Vec<String> {
        let mut rng = fl_tensor::rng::Xoshiro256::new(0);
        let probe = crate::client::build_model(self, 1, 1, &mut rng);
        fl_nn::ParamLayout::of(&probe)
            .names()
            .map(String::from)
            .collect()
    }
}

/// Everything needed to run one federated-learning experiment.
///
/// ```
/// use fl_core::{Algorithm, ExperimentConfig};
/// use fl_data::DatasetPreset;
///
/// // The paper's Table-2 cell "BCRS+OPWA, CIFAR-10, beta = 0.1, CR = 0.01".
/// let config = ExperimentConfig::paper_setting(
///     Algorithm::BcrsOpwa,
///     DatasetPreset::Cifar10Like,
///     0.1,
///     0.01,
/// );
/// assert!(config.validate().is_ok());
/// assert_eq!(config.rounds, 200);
/// assert_eq!(config.clients_per_round(), 5);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Algorithm under evaluation.
    pub algorithm: Algorithm,
    /// Dataset preset (CIFAR-10-like, CIFAR-100-like, SVHN-like).
    pub dataset: DatasetPreset,
    /// Dataset scale factor (1.0 = full synthetic size; smaller for quick runs).
    pub dataset_scale: f64,
    /// Model architecture.
    pub model: ModelPreset,
    /// Total number of clients `N` (paper: 10, 16, 20).
    pub num_clients: usize,
    /// Fraction of clients selected per round `C` (paper: 0.5).
    pub participation: f64,
    /// Number of communication rounds `T` (paper: 200).
    pub rounds: usize,
    /// Local epochs per round `E` (paper: 1).
    pub local_epochs: usize,
    /// Mini-batch size (paper: 64).
    pub batch_size: usize,
    /// Local SGD learning rate `η`.
    pub local_lr: f32,
    /// Local SGD momentum.
    pub momentum: f32,
    /// Local weight decay.
    pub weight_decay: f32,
    /// Server learning rate applied to the aggregated update.
    pub server_lr: f32,
    /// Dirichlet heterogeneity level `β` (paper: 0.1 severe, 0.5 moderate).
    pub beta: f64,
    /// Base/uniform compression ratio `CR` (paper: 0.1 or 0.01).
    pub compression_ratio: f64,
    /// BCRS averaging-coefficient scale `α` (Eq. 6; paper tunes over
    /// {0.01, 0.03, 0.1, 0.3, 1}).
    pub alpha: f64,
    /// OPWA enlarge rate `γ` (Alg. 3; paper explores 1..N).
    pub gamma: f32,
    /// OPWA overlap threshold `D`: coordinates retained by at most `D`
    /// clients are enlarged (paper default: 1).
    pub overlap_threshold: usize,
    /// Ablation switch: disable the Eq. 6 coefficient clamp and use plain
    /// data-fraction weights with BCRS.
    pub disable_coefficient_adjustment: bool,
    /// Network link generator (paper Section 5.2 defaults).
    pub links: LinkGenerator,
    /// Master seed; every random decision in the run derives from it.
    pub seed: u64,
    /// Maximum worker threads for parallel client training (0 = auto).
    pub max_threads: usize,
    /// Record the overlap-degree histogram every round (costs a little time;
    /// needed only by the Fig. 4 experiment).
    pub record_overlap: bool,
    /// Evaluate the global model every this many rounds (1 = every round,
    /// the paper's setting). The final round is always evaluated; skipped
    /// rounds repeat the most recent evaluation in their records (NaN before
    /// the first evaluation point). Larger values speed up long sweeps.
    pub eval_every: usize,
    /// Per-round, per-client dropout probability in `[0, 1)`. When positive
    /// the session uses the availability-aware selector (cohorts shrink when
    /// clients are down); `0.0` is the paper's always-available setting.
    pub dropout_rate: f64,
    /// Server momentum `β` in `[0, 1)` (FedAvgM-style heavy ball applied to
    /// the aggregated update); `0.0` is the paper's plain server update.
    pub server_momentum: f32,
    /// Uplink codec assignment: which codec each client's update is encoded
    /// with. `None` (default) uses the algorithm-implied codec (`topk`,
    /// `ef-topk` or `randk`, see [`crate::policy::default_codec_spec`]).
    /// `Some(plan)` takes either a bare [`fl_compress::CompressorSpec`] —
    /// `"qsgd:8"`, `"threshold:0.01"`, `"topk+qsgd:4"`, … — which runs the
    /// same algorithm over that codec, or a layer-aware [`LayerPlan`] that
    /// assigns one codec per named parameter segment of the model's
    /// [`fl_nn::ParamLayout`] by first-match glob rules
    /// (`"conv*=topk;*.bias=dense;*=ef-topk+qsgd:4"`).
    /// A bare spec is the one-rule plan `"*=<spec>"`; any plan that gives
    /// every segment the same spec resolves to that flat codec bit for bit.
    /// A genuinely mixed plan frames per-segment payloads into the
    /// `Segmented` wire kind, `RoundRecord` gains a per-layer byte breakdown,
    /// and the framing overhead is charged exactly under
    /// [`CostBasis::Encoded`]. Every segment of the model must match a rule,
    /// and the OPWA/overlap restrictions apply **per rule**: a rule whose spec
    /// decodes dense (pure quantizers) is rejected in combination with OPWA
    /// algorithms or `record_overlap`.
    pub compressor: Option<LayerPlan>,
    /// Codec assignment for the server→client broadcast (downlink) leg.
    /// `None` (default, the paper's setting) teleports the global model to
    /// the clients for free, exactly as the analytic reproduction always
    /// has. `Some(plan)` — a bare spec or a layer plan, as for
    /// [`compressor`](Self::compressor) — simulates the broadcast honestly:
    /// each round the aggregated global delta is encoded once through the
    /// resolved codec (same [`CodecRegistry`] as the uplink, at the base
    /// `compression_ratio`), clients train from the decoded — lossy — view,
    /// `RoundRecord` reports the encoded buffer's length as `downlink_bytes`
    /// (split per layer under a mixed plan), and the per-client download
    /// time joins the round's straggler bound. Error-feedback specs
    /// (`"ef-topk"`, …) keep their residual server-side. Every model segment
    /// must match a rule, but dense-decoding rules (`"qsgd:8"`) are fine here
    /// even with OPWA algorithms — the overlap machinery concerns the
    /// *uplink* updates only.
    pub downlink_compressor: Option<LayerPlan>,
    /// How the network simulator prices transfers:
    /// [`CostBasis::Analytic`] (default) charges the paper's `2·V·CR`
    /// formula on both legs, [`CostBasis::Encoded`] charges the encoded wire
    /// bytes exactly.
    pub cost_basis: CostBasis,
    /// Fleet-dynamics scenario layered on top of the static link draw.
    /// `None` (default) keeps the paper's static fleet — every client always
    /// reachable over its up-front link — and is bit-identical to builds
    /// without the scenario engine. `Some(spec)` drives per-round
    /// [`fl_netsim::FleetEvent`]s (diurnal participation waves, Poisson
    /// churn, tiered link jitter, correlated tower outages, or a recorded
    /// `trace:<file>` replay; see [`ScenarioSpec`]): the session selects its
    /// cohorts from the currently reachable clients via
    /// [`crate::scenario::ScenarioSelector`], prices transfers over the
    /// scenario's per-round link overrides, and reports participation/churn
    /// telemetry in each [`crate::runner::RoundRecord`]. Scenario randomness
    /// draws from a dedicated seed stream
    /// ([`crate::scenario::scenario_seed`]), so enabling a scenario never
    /// perturbs the training/data/selection streams.
    pub scenario: Option<ScenarioSpec>,
    /// Adaptive per-layer plan policy for the clients' uplink compression
    /// (see [`crate::policy::AdaptivePlanSpec`]). `None` (default) keeps the
    /// fixed [`compressor`](Self::compressor) assignment for the whole run.
    /// `Some(spec)` re-resolves the per-segment codec plan every round in the
    /// select stage: `layer-bcrs` re-splits the round's coordinate budget by
    /// observed per-layer gradient mass through the BCRS scheduler. Mutually
    /// exclusive with [`compressor`](Self::compressor): the policy owns the
    /// uplink codec assignment.
    pub adaptive_plan: Option<crate::policy::AdaptivePlanSpec>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::BcrsOpwa,
            dataset: DatasetPreset::Cifar10Like,
            dataset_scale: 1.0,
            model: ModelPreset::default_mlp(),
            num_clients: 10,
            participation: 0.5,
            rounds: 200,
            local_epochs: 1,
            batch_size: 64,
            local_lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            server_lr: 1.0,
            beta: 0.5,
            compression_ratio: 0.1,
            alpha: 0.3,
            gamma: 5.0,
            overlap_threshold: 1,
            disable_coefficient_adjustment: false,
            links: LinkGenerator::paper_default(),
            seed: 42,
            max_threads: 0,
            record_overlap: false,
            eval_every: 1,
            dropout_rate: 0.0,
            server_momentum: 0.0,
            compressor: None,
            downlink_compressor: None,
            cost_basis: CostBasis::Analytic,
            scenario: None,
            adaptive_plan: None,
        }
    }
}

impl ExperimentConfig {
    /// The paper's main-table setting for a given algorithm, dataset,
    /// heterogeneity and compression ratio.
    pub fn paper_setting(
        algorithm: Algorithm,
        dataset: DatasetPreset,
        beta: f64,
        compression_ratio: f64,
    ) -> Self {
        Self {
            algorithm,
            dataset,
            beta,
            compression_ratio,
            ..Default::default()
        }
    }

    /// A small, fast configuration used by tests and `--quick` benches:
    /// fewer rounds, a smaller synthetic dataset and a linear model.
    pub fn quick(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            dataset_scale: 0.1,
            model: ModelPreset::Mlp {
                hidden1: 32,
                hidden2: 16,
            },
            rounds: 10,
            batch_size: 32,
            // The quick dataset is tiny, so a slightly larger local learning
            // rate keeps short smoke runs informative.
            local_lr: 0.1,
            ..Default::default()
        }
    }

    /// Number of clients selected each round (`max(1, round(N · C))`).
    pub fn clients_per_round(&self) -> usize {
        ((self.num_clients as f64 * self.participation).round() as usize).clamp(1, self.num_clients)
    }

    /// Validate parameter ranges and codec assignments against the built-in
    /// codecs, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with_registry(&CodecRegistry::with_builtins())
    }

    /// Like [`validate`](Self::validate), but resolving codec specs against a
    /// caller-supplied registry instead of the built-ins.
    /// [`crate::session::SessionBuilder`] calls this with its configured
    /// registry so custom codecs pass validation.
    pub fn validate_with_registry(&self, registry: &CodecRegistry) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err("num_clients must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.participation) || self.participation == 0.0 {
            return Err("participation must be in (0, 1]".into());
        }
        if self.rounds == 0 {
            return Err("rounds must be positive".into());
        }
        if self.local_epochs == 0 {
            return Err("local_epochs must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if !(self.compression_ratio > 0.0 && self.compression_ratio <= 1.0) {
            return Err("compression_ratio must be in (0, 1]".into());
        }
        if self.beta <= 0.0 {
            return Err("beta must be positive".into());
        }
        if self.alpha <= 0.0 {
            return Err("alpha must be positive".into());
        }
        if self.gamma < 1.0 {
            return Err("gamma must be >= 1".into());
        }
        if self.overlap_threshold == 0 {
            return Err("overlap_threshold must be >= 1".into());
        }
        if self.local_lr <= 0.0 || self.server_lr <= 0.0 {
            return Err("learning rates must be positive".into());
        }
        if self.dataset_scale <= 0.0 {
            return Err("dataset_scale must be positive".into());
        }
        if self.eval_every == 0 {
            return Err("eval_every must be positive".into());
        }
        if !(0.0..1.0).contains(&self.dropout_rate) {
            return Err("dropout_rate must be in [0, 1)".into());
        }
        if !(0.0..1.0).contains(&self.server_momentum) {
            return Err("server_momentum must be in [0, 1)".into());
        }
        if let Some(plan) = &self.compressor {
            self.validate_plan(plan, "compressor", registry)?;
            // The overlap machinery analyses the uplink updates, so any rule
            // that could hand a segment a dense-decoding codec breaks it for
            // the whole update.
            for rule in plan.rules.iter().filter(|r| r.spec.produces_dense()) {
                if self.algorithm.uses_opwa() {
                    return Err(format!(
                        "algorithm {} applies the OPWA overlap mask, but compressor rule \
                         {}={} decodes to dense updates with no overlap structure",
                        self.algorithm.name(),
                        rule.pattern,
                        rule.spec
                    ));
                }
                if self.record_overlap {
                    return Err(format!(
                        "record_overlap is set, but compressor rule {}={} decodes to \
                         dense updates with no overlap structure",
                        rule.pattern, rule.spec
                    ));
                }
            }
            if self.adaptive_plan.is_some() {
                return Err(
                    "adaptive_plan and compressor are mutually exclusive: the plan \
                     policy owns the uplink codec assignment"
                        .into(),
                );
            }
        }
        if let Some(plan) = &self.downlink_compressor {
            self.validate_plan(plan, "downlink compressor", registry)?;
        }
        if let Some(spec) = &self.scenario {
            spec.validate()
                .map_err(|e| format!("invalid scenario spec {spec}: {e}"))?;
        }
        Ok(())
    }

    /// Every rule of `plan` resolves through `registry`, and every segment of
    /// the configured model preset matches some rule — a coverage gap is a
    /// validation error, not a construction panic.
    fn validate_plan(
        &self,
        plan: &LayerPlan,
        what: &str,
        registry: &CodecRegistry,
    ) -> Result<(), String> {
        plan.validate(registry)
            .map_err(|e| format!("invalid {what} {plan}: {e}"))?;
        for name in self.model.segment_names() {
            if plan.spec_for(&name).is_none() {
                return Err(format!(
                    "{what} {plan} leaves segment {name:?} without a matching rule \
                     (add a catch-all \"*=<spec>\")"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = ExperimentConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.num_clients, 10);
        assert_eq!(c.rounds, 200);
        assert_eq!(c.local_epochs, 1);
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.clients_per_round(), 5);
    }

    #[test]
    fn quick_config_is_valid() {
        assert!(ExperimentConfig::quick(Algorithm::TopK).validate().is_ok());
    }

    #[test]
    fn clients_per_round_bounds() {
        let mut c = ExperimentConfig {
            num_clients: 20,
            participation: 0.5,
            ..Default::default()
        };
        assert_eq!(c.clients_per_round(), 10);
        c.participation = 0.01;
        assert_eq!(c.clients_per_round(), 1);
        c.participation = 1.0;
        assert_eq!(c.clients_per_round(), 20);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = ExperimentConfig {
            compression_ratio: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ExperimentConfig {
            gamma: 0.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ExperimentConfig {
            participation: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ExperimentConfig {
            rounds: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ExperimentConfig {
            eval_every: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ExperimentConfig {
            dropout_rate: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ExperimentConfig {
            server_momentum: -0.1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn scenario_knobs_default_to_paper_behaviour() {
        let c = ExperimentConfig::default();
        assert_eq!(c.eval_every, 1);
        assert_eq!(c.dropout_rate, 0.0);
        assert_eq!(c.server_momentum, 0.0);
        let c = ExperimentConfig {
            eval_every: 5,
            dropout_rate: 0.3,
            server_momentum: 0.9,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scenario_knob_defaults_to_none_and_is_validated() {
        let c = ExperimentConfig::default();
        assert!(c.scenario.is_none());
        let good = ExperimentConfig {
            scenario: Some("diurnal".parse().unwrap()),
            ..Default::default()
        };
        assert!(good.validate().is_ok());
        // Out-of-range parameters are caught with a pointed message (a spec
        // constructed directly — the string form rejects these at parse time).
        let bad = ExperimentConfig {
            scenario: Some(ScenarioSpec::Diurnal {
                period: 8.0,
                min_up: 0.9,
                max_up: 0.1,
            }),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("invalid scenario spec"), "{err}");
    }

    #[test]
    fn codec_knobs_default_to_paper_behaviour() {
        let c = ExperimentConfig::default();
        assert_eq!(c.compressor, None);
        assert_eq!(c.downlink_compressor, None);
        assert_eq!(c.cost_basis, CostBasis::Analytic);
    }

    #[test]
    fn overlap_threshold_zero_is_rejected() {
        // OPWA enlarges coordinates kept by at most `D` clients; `D = 0`
        // would enlarge nothing and trips the mask's own assertion in round
        // 0, so validation rejects it up front.
        let c = ExperimentConfig {
            algorithm: Algorithm::BcrsOpwa,
            overlap_threshold: 0,
            ..Default::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("overlap_threshold"), "{err}");
    }

    #[test]
    fn downlink_assignment_is_validated_but_exempt_from_overlap_rules() {
        // Unresolvable downlink specs fail validation with a pointed message.
        let bad = ExperimentConfig {
            downlink_compressor: Some("no-such-codec".parse().unwrap()),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("downlink"), "{err}");
        // So do unresolvable rules of a downlink plan, and coverage gaps.
        let bad_rule = ExperimentConfig {
            downlink_compressor: Some("*.bias=dense;*=no-such-codec".parse().unwrap()),
            ..Default::default()
        };
        let err = bad_rule.validate().unwrap_err();
        assert!(err.contains("downlink"), "{err}");
        let gap = ExperimentConfig {
            downlink_compressor: Some("conv*=topk".parse().unwrap()),
            ..Default::default()
        };
        let err = gap.validate().unwrap_err();
        assert!(err.contains("downlink"), "{err}");
        assert!(err.contains("without a matching rule"), "{err}");
        // A dense-decoding broadcast codec is fine even under OPWA — the
        // overlap machinery analyses the *uplink* updates only — as a bare
        // spec and as a plan rule.
        for downlink in ["qsgd:8", "*.bias=qsgd:8;*=ef-topk"] {
            let dense_downlink = ExperimentConfig {
                algorithm: Algorithm::BcrsOpwa,
                downlink_compressor: Some(downlink.parse().unwrap()),
                ..Default::default()
            };
            assert!(dense_downlink.validate().is_ok(), "{downlink}");
        }
        // EF broadcast codecs validate too.
        let ef = ExperimentConfig {
            downlink_compressor: Some("ef-topk".parse().unwrap()),
            cost_basis: CostBasis::Encoded,
            ..Default::default()
        };
        assert!(ef.validate().is_ok());
    }

    #[test]
    fn compressor_assignment_is_validated() {
        // A bare spec and a well-formed plan with resolvable specs pass.
        for good in ["topk+qsgd:4", "*.bias=dense;*=topk"] {
            let c = ExperimentConfig {
                compressor: Some(good.parse().unwrap()),
                cost_basis: CostBasis::Encoded,
                ..Default::default()
            };
            assert!(c.validate().is_ok(), "{good}");
        }
        // Parseable but unresolvable specs are caught at validation time, in
        // either form.
        for bad in ["no-such-codec", "*.bias=dense;*=no-such-codec"] {
            let c = ExperimentConfig {
                compressor: Some(bad.parse().unwrap()),
                ..Default::default()
            };
            let err = c.validate().unwrap_err();
            assert!(err.contains("invalid compressor"), "{err}");
            assert!(err.contains("no-such-codec"), "{err}");
        }
    }

    #[test]
    fn plan_without_full_coverage_fails_validation() {
        // A plan that leaves model segments unmatched must fail `validate()`
        // up front — not panic later inside session construction (a sweep
        // worker thread is the worst place to discover it).
        let gap = ExperimentConfig {
            algorithm: Algorithm::TopK,
            compressor: Some("conv*=topk".parse().unwrap()),
            ..Default::default()
        };
        let err = gap.validate().unwrap_err();
        assert!(err.contains("without a matching rule"), "{err}");
        assert!(err.contains("linear0"), "{err}");
        // Preset segment names follow the architecture.
        assert_eq!(
            ModelPreset::default_mlp().segment_names(),
            [
                "linear0.weight",
                "linear0.bias",
                "linear1.weight",
                "linear1.bias",
                "linear2.weight",
                "linear2.bias",
            ]
        );
        assert_eq!(
            ModelPreset::Linear.segment_names(),
            ["linear0.weight", "linear0.bias"]
        );
    }

    #[test]
    fn dense_rules_cannot_pair_with_overlap_machinery() {
        // Pure quantizers decode dense — no overlap degrees exist, so OPWA
        // algorithms and overlap recording reject them up front, whether the
        // quantizer is the whole assignment or one rule of a plan.
        for plan in ["qsgd:8", "conv*=topk;*=qsgd:8"] {
            let opwa = ExperimentConfig {
                algorithm: Algorithm::BcrsOpwa,
                compressor: Some(plan.parse().unwrap()),
                ..Default::default()
            };
            assert!(opwa.validate().unwrap_err().contains("OPWA"), "{plan}");
        }
        for plan in ["qsgd:8", "*.bias=qsgd:4;*=topk"] {
            let recording = ExperimentConfig {
                algorithm: Algorithm::TopK,
                record_overlap: true,
                compressor: Some(plan.parse().unwrap()),
                ..Default::default()
            };
            let err = recording.validate().unwrap_err();
            assert!(err.contains("record_overlap"), "{plan}: {err}");
        }
        // The composed sparsify+quantize form keeps overlap structure, and so
        // do all-sparse plans (the raw-f32 "dense" codec decodes to a
        // full-density *sparse* segment).
        for plan in ["topk+qsgd:4", "*.bias=dense;*=topk+qsgd:4"] {
            let sparse = ExperimentConfig {
                algorithm: Algorithm::BcrsOpwa,
                compressor: Some(plan.parse().unwrap()),
                ..Default::default()
            };
            assert!(sparse.validate().is_ok(), "{plan}");
        }
    }

    #[test]
    fn adaptive_plan_knob_is_validated() {
        let c = ExperimentConfig::default();
        assert!(c.adaptive_plan.is_none());
        let good = ExperimentConfig {
            algorithm: Algorithm::TopK,
            adaptive_plan: Some("layer-bcrs".parse().unwrap()),
            cost_basis: CostBasis::Encoded,
            ..Default::default()
        };
        assert!(good.validate().is_ok());
        // Mutually exclusive with a fixed uplink assignment, in either form.
        for plan in ["topk", "*.bias=dense;*=topk"] {
            let both = ExperimentConfig {
                algorithm: Algorithm::TopK,
                compressor: Some(plan.parse().unwrap()),
                adaptive_plan: Some("layer-bcrs".parse().unwrap()),
                ..Default::default()
            };
            let err = both.validate().unwrap_err();
            assert!(err.contains("mutually exclusive"), "{plan}: {err}");
        }
    }

    #[test]
    fn paper_setting_overrides() {
        let c =
            ExperimentConfig::paper_setting(Algorithm::TopK, DatasetPreset::SvhnLike, 0.1, 0.01);
        assert_eq!(c.algorithm, Algorithm::TopK);
        assert_eq!(c.beta, 0.1);
        assert_eq!(c.compression_ratio, 0.01);
    }
}
