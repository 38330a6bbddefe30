//! `fl-core` — the paper's contribution: Bandwidth-aware Compression Ratio
//! Scheduling (BCRS) and Overlap-aware Parameter Weighted Averaging (OPWA),
//! plus the federated-learning simulation loop that evaluates them.
//!
//! # The two algorithms
//!
//! **BCRS** ([`bcrs`]) removes the straggler bottleneck of uniformly
//! compressed FedAvg. It takes the slowest selected client's *compressed*
//! upload time as a benchmark and gives every other client the largest
//! compression ratio that still finishes within that benchmark, so all uploads
//! land at roughly the same time and fast clients ship more information
//! instead of idling (Alg. 2). Client averaging coefficients are adjusted to
//! `p'_i = f_i / max(f_i, Norm(CR_i)) · α` (Eq. 6).
//!
//! **OPWA** ([`overlap`], [`opwa`]) fixes the under-weighting of rarely
//! retained coordinates. After Top-K, each coordinate is retained by only a
//! subset of clients (its *degree of overlap*); uniform averaging shrinks the
//! coordinates retained by few clients. OPWA multiplies low-overlap
//! coordinates by an enlarge rate `γ` (Alg. 3, Eq. 7).
//!
//! # Running experiments
//!
//! [`config::ExperimentConfig`] describes a complete experiment (dataset
//! preset, heterogeneity `β`, compression ratio, algorithm, network model,
//! …); [`runner::run_experiment`] executes it and returns per-round records
//! (accuracy, loss, communication times) from which every table and figure of
//! the paper is regenerated (see the `fl-bench` crate).
//!
//! # The round engine
//!
//! Under the hood every experiment is a [`session::FederatedSession`]: the
//! long-lived state (the client roster, links, global parameters, RNG
//! streams, time accumulators) built by [`session::SessionBuilder`],
//! advanced one round at a time through the explicit stages of [`round`]
//! (`select → downlink → local → aggregate → timing → eval`). Three policy
//! seams make the engine pluggable without touching the loop ([`policy`]):
//!
//! * [`policy::ClientSelector`] — uniform sampling (paper) or
//!   availability/dropout-aware selection;
//! * [`policy::RatioPolicy`] — a uniform ratio or the BCRS scheduler;
//! * [`policy::ServerOpt`] — plain SGD update (paper) or server momentum;
//! * [`policy::PlanPolicy`] — the adaptive per-layer codec plan
//!   ([`config::ExperimentConfig::adaptive_plan`]): each round, after the
//!   cohort and its links are known, the policy re-resolves which codec and
//!   effective ratio every parameter segment encodes under, feeding on the
//!   previous round's per-layer bytes and gradient mass (the closed
//!   telemetry loop; see [`policy::LayerBcrsPolicy`]).
//!
//! An optional further seam layers trace-driven fleet dynamics on top:
//! [`config::ExperimentConfig::scenario`] names a generator (diurnal
//! participation waves, Poisson churn, tiered link jitter, correlated tower
//! outages) or a recorded trace file, and [`scenario::ScenarioHandle`]
//! advances the resulting per-round `fl_netsim::FleetEvent` stream exactly
//! once per round — cohorts come from the reachable clients, transfers are
//! priced over the scenario's link overrides, and each
//! [`runner::RoundRecord`] carries participation/churn telemetry. With
//! `scenario: None` every record is bit-identical to pre-scenario builds.
//!
//! # Population scale
//!
//! Clients are virtualized ([`roster::ClientRoster`]): only each client's
//! persistent state — its RNG stream and error-feedback residual, parked in
//! a sharded `fl_compress::ResidualStore` — survives between rounds, and a
//! full `ClientState` is materialised per *selected* client per round, so
//! peak client memory is O(cohort) rather than O(population). The
//! [`aggregate`] tree reduces cohorts in fixed 32-client shards whose
//! partial sums merge in a fixed order, keeping records bit-identical
//! across thread counts. Populations of 10^5–10^6 clients are practical;
//! see the repository's ARCHITECTURE.md and the `fig12_scale` harness.
//!
//! Whole experiment grids run in parallel with shared dataset generation via
//! [`sweep::run_sweep`] / [`sweep::SweepGrid`] (population is a grid axis:
//! [`sweep::SweepGrid::client_counts`]).

pub mod aggregate;
pub mod algorithm;
pub mod bcrs;
pub mod client;
pub mod config;
pub mod eval;
pub mod opwa;
pub mod overlap;
pub mod policy;
pub mod roster;
pub mod round;
pub mod runner;
pub mod scenario;
pub mod session;
pub mod sweep;

pub use algorithm::Algorithm;
pub use bcrs::{BcrsSchedule, BcrsScheduler};
pub use client::segment_defs;
pub use config::{ExperimentConfig, ModelPreset};
pub use opwa::OpwaMask;
pub use overlap::{OverlapCounts, OverlapStats};
pub use policy::{
    allocate_layer_budgets, default_codec_spec, default_plan_policy, plan_weights,
    resolve_codec_plan, AdaptivePlanSpec, AvailabilitySelector, BcrsRatioPolicy, ClientSelector,
    LayerBcrsPolicy, MomentumServer, PlanAssignment, PlanCtx, PlanDecision, PlanPolicy, RatioCtx,
    RatioDecision, RatioPolicy, SelectionCtx, ServerOpt, SgdServer, UniformRatio, UniformSelector,
};
pub use roster::ClientRoster;
pub use round::RoundOutput;
pub use runner::{run_experiment, ExperimentResult, LayerBytes, PlanTelemetry, RoundRecord};
pub use scenario::{record_scenario_trace, scenario_seed, ScenarioHandle, ScenarioSelector};
pub use session::{FederatedSession, SessionBuilder};
pub use sweep::{run_sweep, run_sweep_threaded, run_sweep_threaded_progress, SweepGrid};
