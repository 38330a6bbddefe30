//! # bwfl — Bandwidth-Aware and Overlap-Weighted Compression for
//! Communication-Efficient Federated Learning
//!
//! A from-scratch Rust reproduction of the ICPP '24 paper by Tang et al.
//! The workspace contains the paper's two contributions — **BCRS**
//! (bandwidth-aware compression-ratio scheduling) and **OPWA**
//! (overlap-aware parameter-weighted averaging) — together with every
//! substrate the evaluation needs: a small neural-network training engine,
//! synthetic non-IID federated datasets, a sparsification/quantization
//! compression library and a latency/bandwidth network simulator.
//!
//! This crate is the single entry point: it re-exports the sub-crates and a
//! [`prelude`] with the types most programs need.
//!
//! ## Quick start
//!
//! ```
//! use bwfl::prelude::*;
//!
//! // A small configuration (reduced dataset / rounds) of the paper's
//! // BCRS+OPWA algorithm on the CIFAR-10-like synthetic benchmark.
//! let mut config = ExperimentConfig::quick(Algorithm::BcrsOpwa);
//! config.rounds = 3;
//! let result = run_experiment(&config);
//! assert_eq!(result.records.len(), 3);
//! println!("final accuracy: {:.3}", result.final_accuracy);
//! ```
//!
//! ## The round engine and sweeps
//!
//! Experiments execute on a pluggable [`core::session::FederatedSession`]
//! round engine: client selection, compression-ratio assignment and the
//! server update are policy traits ([`core::policy`]) wired by
//! [`core::session::SessionBuilder`], and whole experiment grids run in
//! parallel with shared dataset generation via [`core::sweep`]:
//!
//! ```
//! use bwfl::prelude::*;
//!
//! let mut base = ExperimentConfig::quick(Algorithm::TopK);
//! base.rounds = 2;
//! let results = SweepGrid::new(base)
//!     .algorithms([Algorithm::FedAvg, Algorithm::TopK])
//!     .run();
//! assert_eq!(results.len(), 2);
//! ```
//!
//! ## The codec pipeline
//!
//! Uplink compression is spec-driven: a [`compress::spec::CompressorSpec`]
//! string such as `"topk"`, `"qsgd:8"` or the composed `"topk+qsgd:4"`
//! resolves through the [`compress::registry::CodecRegistry`] into an
//! [`compress::codec::UpdateCodec`] that encodes every client update into a
//! real, versioned byte buffer ([`compress::wire::WireUpdate`]). Set
//! [`core::config::ExperimentConfig::compressor`] to run any algorithm over
//! any codec — a bare spec, or a [`compress::plan::LayerPlan`] such as
//! `"*.bias=dense;*=topk"` assigning one codec per model layer (a bare spec
//! is the one-rule plan `"*=<spec>"`) — and switch [`core::config::ExperimentConfig::cost_basis`] to
//! [`netsim::cost::CostBasis::Encoded`] to charge the network simulator the
//! encoded bytes instead of the paper's analytic `2·V·CR` formula:
//!
//! ```
//! use bwfl::prelude::*;
//!
//! let mut config = ExperimentConfig::quick(Algorithm::TopK);
//! config.rounds = 2;
//! config.compressor = Some("topk+qsgd:4".parse().unwrap());
//! config.cost_basis = CostBasis::Encoded;
//! let result = run_experiment(&config);
//! assert!(result.records[0].uplink_bytes > 0);
//! ```
//!
//! ## The downlink leg
//!
//! The communication model is bidirectional. Set
//! [`core::config::ExperimentConfig::downlink_compressor`] (a spec or a
//! plan, as for the uplink) to route the server→client broadcast through a
//! codec too: the global-parameter delta
//! is encoded once per round (error-feedback residuals held server-side in
//! the [`compress::downlink::DownlinkChannel`]), clients train from the
//! decoded view, `RoundRecord::downlink_bytes` reports the broadcast
//! buffer's exact length, and each client's download joins the round's
//! straggler bound:
//!
//! ```
//! use bwfl::prelude::*;
//!
//! let mut config = ExperimentConfig::quick(Algorithm::TopK);
//! config.rounds = 2;
//! config.downlink_compressor = Some("ef-topk".parse().unwrap());
//! config.cost_basis = CostBasis::Encoded;
//! let result = run_experiment(&config);
//! assert!(result.records[0].downlink_bytes > 0);
//! ```
//!
//! ## Simulating realistic fleets
//!
//! Set [`core::config::ExperimentConfig::scenario`] to drive the fleet
//! through trace-driven dynamics — diurnal participation waves, Poisson
//! churn, tiered link classes with jitter, correlated tower outages, or the
//! bit-identical replay of a recorded `bwfl-trace-v1` file (see
//! [`netsim::scenario`]). Cohorts are drawn from the currently reachable
//! clients, transfers are priced over the scenario's per-round links, and
//! each record reports participation/churn telemetry:
//!
//! ```
//! use bwfl::prelude::*;
//!
//! let mut config = ExperimentConfig::quick(Algorithm::TopK);
//! config.rounds = 3;
//! config.num_clients = 16;
//! config.scenario = Some("diurnal:period=8,min_up=0.3,max_up=0.9".parse().unwrap());
//! let result = run_experiment(&config);
//! let fleet = result.records[0].scenario.expect("scenario telemetry");
//! assert!(fleet.available <= 16);
//! ```

pub use fl_compress as compress;
pub use fl_core as core;
pub use fl_data as data;
pub use fl_netsim as netsim;
pub use fl_nn as nn;
pub use fl_tensor as tensor;

/// The types most users need, in one import.
pub mod prelude {
    pub use fl_compress::{
        migrate_planned_residual, topk, CodecCtx, CodecRegistry, CodecStage, CompressedUpdate,
        CompressorSpec, DownlinkChannel, LayerPlan, PlanRule, PlannedCodec, ResidualState,
        ResidualStore, SegmentDef, SparseUpdate, SpecError, UpdateCodec, WireError, WireUpdate,
    };
    pub use fl_core::runner::{evaluate_params, run_experiment_with, stream_experiment};
    pub use fl_core::{
        allocate_layer_budgets, default_codec_spec, default_plan_policy, plan_weights,
        record_scenario_trace, resolve_codec_plan, run_experiment, run_sweep, run_sweep_threaded,
        scenario_seed, segment_defs, AdaptivePlanSpec, Algorithm, AvailabilitySelector,
        BcrsRatioPolicy, BcrsSchedule, BcrsScheduler, ClientRoster, ClientSelector,
        ExperimentConfig, ExperimentResult, FederatedSession, LayerBcrsPolicy, LayerBytes,
        ModelPreset, MomentumServer, OpwaMask, OverlapCounts, OverlapStats, PlanAssignment,
        PlanCtx, PlanDecision, PlanPolicy, PlanTelemetry, RatioDecision, RatioPolicy, RoundOutput,
        RoundRecord, ScenarioHandle, ScenarioSelector, ServerOpt, SessionBuilder, SgdServer,
        SweepGrid, UniformRatio, UniformSelector,
    };
    pub use fl_data::{
        dirichlet_partition, BatchLoader, ClientPartition, Dataset, DatasetPreset, PartitionStats,
    };
    pub use fl_netsim::{
        ChurnScenario, CommModel, CorrelatedDropoutScenario, CostBasis, DiurnalScenario,
        FleetEvent, FleetState, Link, LinkGenerator, RecordingScenario, RoundBreakdown,
        RoundTiming, Scenario, ScenarioSpec, ScenarioTelemetry, TierClass, TieredScenario,
        TimeAccumulator, TimedEvent, TraceReader, TraceScenario,
    };
    pub use fl_nn::{
        flatten_params, mlp, segment_l1_masses, small_cnn, try_unflatten_params, unflatten_params,
        Layer, LayoutError, ParamLayout, ParamSegment, Sequential, Sgd, SoftmaxCrossEntropy,
    };
    pub use fl_tensor::{Rng, Shape, SplitMix64, Tensor, Xoshiro256};
}
