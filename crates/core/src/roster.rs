//! Virtualized client population: lazy [`ClientState`] construction keyed by
//! client id, so a session over 10^5–10^6 clients instantiates only the
//! selected cohort each round.
//!
//! The legacy engine materialized every client's [`ClientState`] — model
//! replica, data shard, codec instance — up front, making session memory
//! O(population). But almost none of that state actually persists across
//! rounds: a client entering a round overwrites its model replica from the
//! broadcast parameters, rebuilds its optimizer, and re-reads its immutable
//! data shard. Only two things carry over:
//!
//! 1. **the client's RNG stream** (batch shuffling, Rand-K draws, QSGD
//!    rounding) — tiny: four `u64`s per client;
//! 2. **error-feedback residuals** — stored in a sharded
//!    [`fl_compress::ResidualStore`] keyed by client id, populated only for
//!    clients that have been selected under an EF codec and carried mass.
//!
//! [`ClientRoster`] keeps exactly those two, plus the shared immutable
//! inputs (training data, partitions, config, codec registry), and
//! materializes a full [`ClientState`] on demand:
//!
//! * [`checkout`](ClientRoster::checkout) builds the client — dataset shard
//!   from its partition, model from the experiment seed, codec from the
//!   codec plan in force — hands it its persistent RNG stream and restores
//!   any stored residual;
//! * [`checkin`](ClientRoster::checkin) takes the (advanced) stream and the
//!   codec's residual snapshot back and drops everything else.
//!
//! Because [`ClientState`] construction draws nothing from the client's own
//! stream, a checkout/train/checkin cycle replays the exact draw sequence of
//! a permanently resident client: the virtualized engine's records are
//! bit-identical to the eager engine's.
//!
//! The roster also counts instantiations (see
//! [`round_instantiated`](ClientRoster::round_instantiated) and
//! [`peak_resident`](ClientRoster::peak_resident)) so tests and the scaling
//! harness can assert the O(cohort) property instead of trusting it.

use crate::client::{build_model_zeroed, segment_defs, ClientState};
use crate::config::ExperimentConfig;
use crate::policy::resolve_codec_plan;
use fl_compress::{
    migrate_planned_residual, CodecRegistry, LayerPlan, ResidualState, ResidualStore, SegmentDef,
};
use fl_data::{ClientPartition, Dataset};
use fl_nn::ParamLayout;
use fl_tensor::rng::Xoshiro256;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The uplink codec plan every checkout resolves against, tagged with its
/// plan epoch. Epoch 0 is the configuration's fixed plan (see
/// [`crate::policy::resolve_codec_plan`]), installed when the roster is
/// built; an adaptive [`crate::policy::PlanPolicy`] installs later epochs.
struct PlanInForce {
    plan: LayerPlan,
    /// Per-segment ratio scales: `None` for the configuration's fixed plan
    /// (uniform plans collapse to the flat codec), `Some` for every adaptive
    /// decision (always segment-framed).
    scales: Option<Vec<f64>>,
    /// Bumped every time the *plan* (and therefore the residual part
    /// structure a codec snapshot carries) changes; scale-only updates keep
    /// the epoch, because segment-aligned residual parts survive a ratio
    /// change untouched.
    epoch: u64,
    part_counts: Vec<usize>,
}

/// The persistent, population-wide client substrate of a
/// [`crate::session::FederatedSession`]: per-client RNG streams, the
/// error-feedback [`ResidualStore`], and everything needed to rebuild a
/// [`ClientState`] deterministically when its id is selected.
pub struct ClientRoster {
    train: Arc<Dataset>,
    partitions: Arc<Vec<ClientPartition>>,
    config: ExperimentConfig,
    registry: CodecRegistry,
    /// The model's parameter segments, derived once from the configured
    /// preset and the dataset's dimensions.
    segments: Vec<SegmentDef>,
    /// One persistent RNG stream per client, forked from the session's client
    /// root in id order at build time (the same fork loop — and therefore the
    /// same streams — as the legacy eager construction).
    streams: Vec<Mutex<Xoshiro256>>,
    residuals: ResidualStore,
    /// The plan currently in force. Replaced only between rounds by the
    /// engine's single-threaded select stage; checkout clones the `Arc` and
    /// builds outside the lock, so concurrent checkouts never serialise.
    plan: Mutex<Arc<PlanInForce>>,
    /// Residual part counts of every adaptive plan epoch ever installed, for
    /// lazy migration: a parked snapshot from epoch `e ≥ 1` is re-shaped
    /// against the current epoch's counts the next time its client is
    /// checked out. Epoch 0 is absent: its codec may have collapsed to a flat
    /// codec, whose snapshot has no per-segment part structure.
    epoch_counts: Mutex<HashMap<u64, Vec<usize>>>,
    resident: AtomicUsize,
    peak_resident: AtomicUsize,
    round_instantiated: AtomicUsize,
    total_instantiated: AtomicUsize,
}

impl ClientRoster {
    /// Build the roster for a population, with the configuration's uplink
    /// plan installed as plan epoch 0. `root_rng` is the session's client
    /// root stream (`seed ^ 0xC11E`); each client's persistent stream is
    /// forked from it in partition order, exactly as the eager engine did.
    ///
    /// Panics if the configuration's plan leaves a model segment unmatched
    /// (`ExperimentConfig::validate` rejects such configurations).
    pub fn new(
        train: Arc<Dataset>,
        partitions: Arc<Vec<ClientPartition>>,
        config: ExperimentConfig,
        registry: CodecRegistry,
        root_rng: &mut Xoshiro256,
    ) -> Self {
        let streams = partitions
            .iter()
            .map(|p| Mutex::new(root_rng.fork(p.client_id as u64)))
            .collect();
        let probe = build_model_zeroed(&config.model, train.feature_dim(), train.num_classes());
        let segments = segment_defs(&ParamLayout::of(&probe));
        let plan = resolve_codec_plan(&config);
        let part_counts = plan
            .part_counts(&segments)
            .unwrap_or_else(|e| panic!("codec plan {plan} does not cover the layout: {e}"));
        Self {
            train,
            partitions,
            config,
            registry,
            segments,
            streams,
            residuals: ResidualStore::new(),
            plan: Mutex::new(Arc::new(PlanInForce {
                plan,
                scales: None,
                epoch: 0,
                part_counts,
            })),
            epoch_counts: Mutex::new(HashMap::new()),
            resident: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            round_instantiated: AtomicUsize::new(0),
            total_instantiated: AtomicUsize::new(0),
        }
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True for an empty population (never the case in a valid session).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Materialise client `id` for one round of work: build its
    /// [`ClientState`] from the shared inputs, hand it its persistent RNG
    /// stream and restore its stored error-feedback residual (if any).
    ///
    /// Every checkout must be paired with a [`checkin`](Self::checkin);
    /// checking the same id out twice concurrently would fork its stream and
    /// is a caller bug (cohorts are selected without replacement).
    pub fn checkout(&self, id: usize) -> ClientState {
        let stream = self.streams[id].lock().clone();
        let local = self.partitions[id].dataset(&self.train);
        let current = Arc::clone(&self.plan.lock());
        let mut client = ClientState::new(
            id,
            local,
            &self.config,
            stream,
            &self.registry,
            &self.segments,
            &current.plan,
            current.scales.as_deref(),
        );
        if let Some((state, epoch)) = self.residuals.take_epoch(id as u64) {
            let state = if epoch == current.epoch {
                state
            } else {
                match self.epoch_counts.lock().get(&epoch) {
                    Some(old_counts) => migrate_planned_residual(
                        state,
                        old_counts,
                        &current.part_counts,
                        &self.segment_lens(),
                    ),
                    // A snapshot from epoch 0 may come from a collapsed flat
                    // codec, with no per-segment part structure to migrate;
                    // the adaptive codec starts from zero accumulated error
                    // instead.
                    None => ResidualState::empty(),
                }
            };
            client.restore_residual(state);
        }
        let resident = self.resident.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_resident.fetch_max(resident, Ordering::SeqCst);
        self.round_instantiated.fetch_add(1, Ordering::SeqCst);
        self.total_instantiated.fetch_add(1, Ordering::SeqCst);
        client
    }

    /// Return a client after its round of work: persist the codec's residual
    /// snapshot into the store (all-zero snapshots are dropped, and the
    /// snapshot is tagged with the plan epoch it was taken under), write the
    /// advanced RNG stream back, and drop the rest of the state.
    pub fn checkin(&self, mut client: ClientState) {
        let id = client.id;
        let epoch = self.plan_epoch();
        self.residuals
            .put_epoch(id as u64, client.take_residual(), epoch);
        *self.streams[id].lock() = client.into_rng();
        self.resident.fetch_sub(1, Ordering::SeqCst);
    }

    /// Install (or refresh) an adaptive plan decision every subsequent
    /// [`checkout`](Self::checkout) resolves against — `scales` holds one
    /// ratio multiplier per segment — returning the plan epoch now in force.
    /// Same plan → same epoch (scale-only updates are applied in place); a
    /// changed plan bumps the epoch, which drives the lazy migration of
    /// parked error-feedback residuals on their owners' next checkout. Called
    /// by the round engine's select stage, between rounds — never
    /// concurrently with checkouts.
    pub fn set_plan(&self, plan: LayerPlan, scales: Vec<f64>) -> u64 {
        let mut current = self.plan.lock();
        let (epoch, part_counts) = if current.epoch > 0 && current.plan == plan {
            (current.epoch, current.part_counts.clone())
        } else {
            let part_counts = plan
                .part_counts(&self.segments)
                .unwrap_or_else(|e| panic!("adaptive plan {plan} does not cover the layout: {e}"));
            let epoch = current.epoch + 1;
            self.epoch_counts.lock().insert(epoch, part_counts.clone());
            (epoch, part_counts)
        };
        *current = Arc::new(PlanInForce {
            plan,
            scales: Some(scales),
            epoch,
            part_counts,
        });
        epoch
    }

    /// The plan epoch currently in force (0 while the configuration's fixed
    /// plan holds — without an adaptive policy, residuals carry epoch 0
    /// forever).
    pub fn plan_epoch(&self) -> u64 {
        self.plan.lock().epoch
    }

    /// The model's parameter segments (names and lengths, layout order) that
    /// every plan resolves against.
    pub fn segments(&self) -> &[SegmentDef] {
        &self.segments
    }

    fn segment_lens(&self) -> Vec<usize> {
        self.segments.iter().map(|s| s.len).collect()
    }

    /// Number of `ClientState`s currently checked out (resident in memory).
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::SeqCst)
    }

    /// High-water mark of concurrently resident `ClientState`s over the
    /// session's lifetime — bounded by the worker-thread count, never the
    /// population.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident.load(Ordering::SeqCst)
    }

    /// Number of checkouts since the last
    /// [`begin_round`](Self::begin_round) — equal to the cohort size after a
    /// round completes (each selected client is instantiated exactly once).
    pub fn round_instantiated(&self) -> usize {
        self.round_instantiated.load(Ordering::SeqCst)
    }

    /// Total checkouts over the session's lifetime.
    pub fn total_instantiated(&self) -> usize {
        self.total_instantiated.load(Ordering::SeqCst)
    }

    /// Reset the per-round instantiation counter (called by the round engine
    /// at the start of each local phase).
    pub fn begin_round(&self) {
        self.round_instantiated.store(0, Ordering::SeqCst);
    }

    /// Number of clients with a stored error-feedback residual.
    pub fn residual_clients(&self) -> usize {
        self.residuals.len()
    }

    /// L2 norm over every stored residual scalar (the population's total
    /// carried-over compression error).
    pub fn residual_total_norm(&self) -> f64 {
        self.residuals.total_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use fl_data::dirichlet_partition;
    use fl_nn::flatten_params;

    fn build_roster(algorithm: Algorithm, num_clients: usize) -> (ClientRoster, Vec<f32>) {
        let mut config = ExperimentConfig::quick(algorithm);
        config.num_clients = num_clients;
        let (train, _) = config
            .dataset
            .spec(config.dataset_scale)
            .generate(config.seed);
        let train = Arc::new(train);
        let partitions = Arc::new(dirichlet_partition(
            &train,
            config.num_clients,
            config.beta,
            2,
            config.seed ^ 0xD1A1,
        ));
        let mut model_rng = Xoshiro256::new(config.seed);
        let model = crate::client::build_model(
            &config.model,
            train.feature_dim(),
            train.num_classes(),
            &mut model_rng,
        );
        let global = flatten_params(&model);
        let mut root_rng = Xoshiro256::new(config.seed ^ 0xC11E);
        let roster = ClientRoster::new(
            train,
            partitions,
            config,
            CodecRegistry::with_builtins(),
            &mut root_rng,
        );
        (roster, global)
    }

    #[test]
    fn checkout_checkin_replays_a_resident_client_exactly() {
        // Two checkout/train/encode/checkin cycles of the same client must
        // produce the same wire bytes as one client living through both
        // rounds — stream handback and residual persistence are exact.
        let (roster, global) = build_roster(Algorithm::EfTopK, 4);
        let mut resident = roster.checkout(1);
        let mut resident_wires = Vec::new();
        for _ in 0..2 {
            let out = resident.local_update(&global);
            resident_wires.push(resident.encode(&out.delta, 0.05).as_bytes().to_vec());
        }
        drop(resident); // never checked in: the roster's stream is untouched

        let (roster2, _) = build_roster(Algorithm::EfTopK, 4);
        for expected in &resident_wires {
            let mut client = roster2.checkout(1);
            let out = client.local_update(&global);
            let wire = client.encode(&out.delta, 0.05);
            assert_eq!(wire.as_bytes(), expected.as_slice());
            roster2.checkin(client);
        }
        assert_eq!(roster2.residual_clients(), 1, "EF residual persisted");
        assert!(roster2.residual_total_norm() > 0.0);
    }

    #[test]
    fn counters_track_residency_and_instantiation() {
        let (roster, _) = build_roster(Algorithm::TopK, 4);
        roster.begin_round();
        let a = roster.checkout(0);
        let b = roster.checkout(2);
        assert_eq!(roster.resident(), 2);
        roster.checkin(a);
        roster.checkin(b);
        assert_eq!(roster.resident(), 0);
        assert_eq!(roster.peak_resident(), 2);
        assert_eq!(roster.round_instantiated(), 2);
        roster.begin_round();
        assert_eq!(roster.round_instantiated(), 0);
        assert_eq!(roster.total_instantiated(), 2);
        assert_eq!(roster.residual_clients(), 0, "top-k stores no residual");
    }

    #[test]
    fn adaptive_plans_migrate_residuals_across_plan_changes() {
        let (roster, global) = build_roster(Algorithm::TopK, 4);
        assert_eq!(roster.plan_epoch(), 0, "the configuration's plan");
        let ones = vec![1.0; roster.segments().len()];
        // A mixed plan: EF on the weights, stateless bias.
        let e1 = roster.set_plan(
            "*.bias=topk;*=ef-topk+qsgd:8".parse().unwrap(),
            ones.clone(),
        );
        assert_eq!(e1, 1);
        assert_eq!(roster.plan_epoch(), 1);
        let mut client = roster.checkout(1);
        let out = client.local_update(&global);
        let _ = client.encode(&out.delta, 0.05);
        let norm = client.residual_norm();
        assert!(norm > 0.0, "EF segments must carry dropped mass");
        roster.checkin(client);
        assert_eq!(roster.residual_clients(), 1);

        // Re-installing the same plan (even with fresh ratio scales) keeps
        // the epoch: the parked snapshot restores verbatim.
        let scales = vec![0.5; roster.segments().len()];
        let e_same = roster.set_plan("*.bias=topk;*=ef-topk+qsgd:8".parse().unwrap(), scales);
        assert_eq!(e_same, 1);
        let client = roster.checkout(1);
        assert!((client.residual_norm() - norm).abs() < 1e-12);
        roster.checkin(client);

        // A bit-width change is a new plan: the epoch bumps and the EF→EF
        // migration carries every residual coordinate across unchanged.
        let e2 = roster.set_plan(
            "*.bias=topk;*=ef-topk+qsgd:4".parse().unwrap(),
            ones.clone(),
        );
        assert_eq!(e2, 2);
        let client = roster.checkout(1);
        assert!(
            (client.residual_norm() - norm).abs() < 1e-12,
            "EF→EF migration must carry the residual verbatim"
        );
        roster.checkin(client);

        // EF → stateless drops the carried mass (nowhere to hold it).
        let e3 = roster.set_plan("*=topk;*.bias=topk".parse().unwrap(), ones);
        assert_eq!(e3, 3);
        let client = roster.checkout(1);
        assert_eq!(client.residual_norm(), 0.0);
        roster.checkin(client);
        assert_eq!(roster.residual_clients(), 0);
    }

    #[test]
    fn streams_are_the_legacy_fork_sequence() {
        // The roster forks client streams exactly like the eager engine:
        // root.fork(0), root.fork(1), … in partition order.
        let (roster, _) = build_roster(Algorithm::TopK, 3);
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.num_clients = 3;
        let mut root = Xoshiro256::new(config.seed ^ 0xC11E);
        for id in 0..3 {
            let expected = root.fork(id as u64);
            assert_eq!(*roster.streams[id as usize].lock(), expected);
        }
    }
}
