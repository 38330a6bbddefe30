//! The benchmark's workloads: fixed experiment configurations whose only
//! free input is the seed. Why each one exists is recorded in the package
//! README; the names are stable because later changes refer to them.

use fl_core::{Algorithm, ExperimentConfig};
use fl_data::DatasetPreset;
use fl_netsim::CostBasis;

/// Worker threads every workload runs with (`config.max_threads`).
pub const THREADS: usize = 2;

/// One closed-loop workload: a process builds a session and runs its rounds
/// back to back, one round per operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline cell: BCRS + OPWA on non-IID (β = 0.1) data.
    OpwaNoniid,
    /// EF-Top-K over a 10⁵-client population with a 32-client cohort.
    Population100k,
    /// Dense 8-bit QSGD with the range coder, priced from encoded bytes.
    QsgdRcEncoded,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::OpwaNoniid,
        Workload::Population100k,
        Workload::QsgdRcEncoded,
    ];

    /// The workload's stable name (the `--workload` argument).
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpwaNoniid => "opwa-noniid",
            Workload::Population100k => "population-100k",
            Workload::QsgdRcEncoded => "qsgd-rc-encoded",
        }
    }

    /// The workload with the given name, if there is one.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds in one pass: the trajectory every simulated metric is read
    /// from. Fixed per workload, so those metrics never depend on how fast
    /// the host is.
    pub fn rounds(self) -> usize {
        match self {
            Workload::OpwaNoniid => 40,
            Workload::Population100k => 75,
            Workload::QsgdRcEncoded => 30,
        }
    }

    /// Passes whose simulated metrics a timed run averages. Every timed run
    /// completes at least this many, however short its window, so those
    /// metrics are a pure function of the seed; one trajectory's luck moves
    /// their mean little.
    pub fn sim_passes(self) -> usize {
        match self {
            Workload::OpwaNoniid => 14,
            Workload::Population100k => 10,
            Workload::QsgdRcEncoded => 16,
        }
    }

    /// Test accuracy every pass must reach within [`rounds`](Self::rounds);
    /// `sim_time_to_target_s` is priced at the first round that reaches it.
    pub fn target_accuracy(self) -> f64 {
        match self {
            Workload::OpwaNoniid => 0.5,
            Workload::Population100k => 0.4,
            Workload::QsgdRcEncoded => 0.5,
        }
    }

    /// The experiment configuration of one pass, seeded with `seed`.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let mut config = match self {
            Workload::OpwaNoniid => ExperimentConfig::paper_setting(
                Algorithm::BcrsOpwa,
                DatasetPreset::Cifar10Like,
                0.1,
                0.1,
            ),
            Workload::Population100k => {
                let mut c = ExperimentConfig::paper_setting(
                    Algorithm::EfTopK,
                    DatasetPreset::Cifar10Like,
                    0.5,
                    0.1,
                );
                c.num_clients = 100_000;
                c.participation = 32.0 / 100_000.0;
                c.dataset_scale = 10.0;
                c.eval_every = 25;
                c
            }
            Workload::QsgdRcEncoded => {
                let mut c = ExperimentConfig::paper_setting(
                    Algorithm::TopK,
                    DatasetPreset::Cifar10Like,
                    0.1,
                    0.1,
                );
                c.compressor = Some("qsgd:8:rc".parse().expect("a valid built-in spec"));
                c.cost_basis = CostBasis::Encoded;
                c
            }
        };
        config.rounds = self.rounds();
        config.max_threads = THREADS;
        config.seed = seed;
        config
    }
}

/// The experiment seed of pass `pass` of a run started with `--seed seed`.
/// A run samples several independent trajectories (data, partition, links
/// and cohorts all follow the experiment seed), so one unlucky partition
/// cannot move a whole run.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(pass)
}
