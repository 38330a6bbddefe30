//! The [`UpdateCodec`] trait — stateful encoder/decoders producing the
//! byte-level [`WireUpdate`] format — and the built-in codec implementations.
//!
//! A codec is the one path an update takes from a client to the server:
//!
//! * **it emits real bytes** — [`UpdateCodec::encode`] returns a versioned
//!   [`WireUpdate`] buffer (varint-delta sparse indices, bit-packed QSGD
//!   levels) whose length is what the network simulator charges;
//! * **it owns its cross-round state** — `encode` takes `&mut self`, so
//!   error-feedback residuals ([`EfCodec`]) live inside the codec instead of
//!   being special-cased in the client;
//! * **per-round randomness is explicit** — `encode` draws from the caller's
//!   [`Xoshiro256`] stream (one stream per simulated client), so experiment
//!   replays stay bit-exact no matter which codec runs.
//!
//! The built-ins are thin shells over plain kernels: the selection functions
//! in [`crate::sparsify`] and the QSGD quantizer in [`crate::quantize`].
//! Codecs are normally built from a parsed [`crate::spec::CompressorSpec`]
//! through the [`crate::registry::CodecRegistry`]; the types here are public
//! so custom codecs can wrap or compose them.

use crate::quantize::{max_level_for_bits, qsgd_levels};
use crate::sparse::SparseUpdate;
use crate::sparsify::{k_for, randk, threshold, topk};
use crate::update::CompressedUpdate;
use crate::wire::{
    encode_dense, encode_quantized, encode_quantized_rc, encode_sparse, encode_sparse_quantized,
    encode_sparse_quantized_rc, WireError, WireUpdate,
};
use fl_tensor::rng::{Rng, Xoshiro256};

/// Everything a codec factory may consult when instantiating a codec.
#[derive(Clone, Copy, Debug)]
pub struct CodecCtx {
    /// Length of the dense update vectors the codec will see (the model's
    /// flat parameter count). Stateful codecs size their buffers from this.
    pub dense_len: usize,
    /// Deterministic seed for codecs that keep private RNG state. The
    /// built-ins instead draw from the stream passed to
    /// [`UpdateCodec::encode`], but custom codecs may want a construction
    /// seed.
    pub seed: u64,
}

impl CodecCtx {
    /// Context for a model with `dense_len` parameters.
    pub fn new(dense_len: usize, seed: u64) -> Self {
        Self { dense_len, seed }
    }
}

/// A snapshot of a codec's cross-round residual state, detached from the
/// codec instance that produced it.
///
/// This is the seam that lets a simulator keep millions of clients *virtual*:
/// instead of holding one live codec per client forever (each
/// [`EfCodec`] owns a model-sized residual vector), the engine extracts the
/// state with [`UpdateCodec::take_residual`] when a client leaves the active
/// cohort, parks it in a [`crate::residual_store::ResidualStore`] keyed by
/// client id, and re-injects it with [`UpdateCodec::restore_residual`] into a
/// freshly built codec the next time the client is selected.
///
/// The snapshot is an ordered list of residual vectors — one per stateful
/// component, in the codec's canonical component order (a flat [`EfCodec`]
/// contributes one part; a [`crate::plan::PlannedCodec`] concatenates its
/// segments' parts in segment order). Stateless codecs produce an empty
/// snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResidualState {
    /// Residual vectors in canonical component order.
    pub parts: Vec<Vec<f32>>,
}

impl ResidualState {
    /// A snapshot with no stateful components.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when the snapshot carries no information: no parts, or every
    /// coordinate of every part exactly zero. Restoring such a snapshot is a
    /// no-op, so stores drop it instead of keeping dead weight.
    pub fn is_trivial(&self) -> bool {
        self.parts.iter().all(|p| p.iter().all(|&v| v == 0.0))
    }

    /// L2 norm over all parts (0 for a trivial snapshot).
    pub fn l2_norm(&self) -> f64 {
        self.parts
            .iter()
            .flat_map(|p| p.iter())
            .map(|&v| (v as f64).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// Total number of `f32` scalars held (the snapshot's memory footprint
    /// in 4-byte units).
    pub fn num_scalars(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }
}

/// A stateful encoder/decoder of model updates with a byte-level wire format.
///
/// Implementations must be deterministic given the same inputs, internal
/// state and RNG stream, so experiments replay exactly.
pub trait UpdateCodec: Send {
    /// Name used in reports (normally the spec string that built the codec).
    fn name(&self) -> String;

    /// Encode a dense update at the target `ratio` into wire bytes, drawing
    /// any per-round randomness from `rng` and updating internal state
    /// (error-feedback residuals, …).
    fn encode(&mut self, dense: &[f32], ratio: f64, rng: &mut Xoshiro256) -> WireUpdate;

    /// Reconstruct the lossy update an encoded buffer represents. The default
    /// decodes the standard wire format; codecs with private payload layouts
    /// override this.
    fn decode(&self, wire: &WireUpdate) -> Result<CompressedUpdate, WireError> {
        wire.decode()
    }

    /// L2 norm of any accumulated residual state (0 for stateless codecs).
    fn residual_norm(&self) -> f64 {
        0.0
    }

    /// Move the codec's cross-round residual state out, leaving the codec in
    /// its freshly constructed (all-zero) state. Stateless codecs return an
    /// empty snapshot. Taking the state and immediately
    /// [`restore_residual`](Self::restore_residual)-ing it must round-trip
    /// bit-exactly — the session engine relies on this to keep virtualized
    /// clients indistinguishable from always-resident ones.
    fn take_residual(&mut self) -> ResidualState {
        ResidualState::empty()
    }

    /// Re-inject a residual snapshot previously produced by
    /// [`take_residual`](Self::take_residual) on an identically configured
    /// codec. Restoring an empty snapshot is a no-op (the codec keeps its
    /// fresh all-zero state). Implementations panic on a structurally
    /// incompatible snapshot — that is a wiring bug, not a runtime condition.
    fn restore_residual(&mut self, state: ResidualState) {
        assert!(
            state.parts.is_empty(),
            "stateless codec {} cannot restore a {}-part residual snapshot",
            self.name(),
            state.parts.len()
        );
    }
}

/// Magnitude Top-K sparsification (the paper's primary compressor).
#[derive(Clone, Copy, Debug, Default)]
pub struct TopKCodec;

impl UpdateCodec for TopKCodec {
    fn name(&self) -> String {
        "topk".into()
    }

    fn encode(&mut self, dense: &[f32], ratio: f64, _rng: &mut Xoshiro256) -> WireUpdate {
        // A ratio-1.0 upload retains everything: ship the dense wire format
        // (raw f32s, no per-coordinate index overhead) so uncompressed
        // baselines like FedAvg are charged honest dense bytes.
        if k_for(dense.len(), ratio) == dense.len() {
            return encode_dense(dense);
        }
        encode_sparse(&topk(dense, ratio))
    }
}

/// The explicit "don't compress this" codec: every coordinate ships as a raw
/// f32 in the dense wire kind, ignoring the target ratio. Layer plans use it
/// for segments that collapse under sparsification (biases, norm scales) —
/// `"*.bias=dense"` keeps those few coordinates exact while the big layers
/// stay aggressively compressed.
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseCodec;

impl UpdateCodec for DenseCodec {
    fn name(&self) -> String {
        "dense".into()
    }

    fn encode(&mut self, dense: &[f32], _ratio: f64, _rng: &mut Xoshiro256) -> WireUpdate {
        encode_dense(dense)
    }
}

/// Uniform Rand-K sparsification, rescaled by `len/k` so the update is an
/// unbiased estimator. Draws exactly one `u64` seed per round from the
/// client stream and feeds it to [`randk`], so Rand-K trajectories replay
/// bit-identically.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandKCodec;

impl UpdateCodec for RandKCodec {
    fn name(&self) -> String {
        "randk".into()
    }

    fn encode(&mut self, dense: &[f32], ratio: f64, rng: &mut Xoshiro256) -> WireUpdate {
        encode_sparse(&randk(dense, ratio, rng.next_u64()))
    }
}

/// Hard-threshold sparsification. With an absolute `tau` the target ratio is
/// ignored; without one the threshold is derived from the `1 − ratio`
/// magnitude quantile ([`threshold`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThresholdCodec {
    /// Optional absolute magnitude threshold (`"threshold:0.01"`).
    pub tau: Option<f32>,
}

impl UpdateCodec for ThresholdCodec {
    fn name(&self) -> String {
        match self.tau {
            Some(t) => format!("threshold:{t}"),
            None => "threshold".into(),
        }
    }

    fn encode(&mut self, dense: &[f32], ratio: f64, _rng: &mut Xoshiro256) -> WireUpdate {
        let sparse = match self.tau {
            Some(tau) => SparseUpdate::from_dense_mask(dense, |_, v| v.abs() >= tau && v != 0.0),
            None => threshold(dense, ratio),
        };
        encode_sparse(&sparse)
    }
}

/// QSGD stochastic quantization at a fixed bit width: every coordinate is
/// transmitted as a sign plus `bits − 1` level bits, bit-packed on the wire
/// — or, with the `:rc` suffix (`"qsgd:4:rc"`), entropy-coded through the
/// adaptive range coder, which never expands past the bit-packed size.
/// The target ratio is ignored (the compression factor is `32 / bits`).
#[derive(Clone, Copy, Debug)]
pub struct QsgdCodec {
    /// Bits per coordinate including the sign bit, in `2..=16`.
    pub bits: u8,
    /// Entropy-code the levels ([`crate::wire::KIND_ENTROPY`]) instead of
    /// bit-packing them. Quantization itself — levels, norm, RNG draws — is
    /// identical either way; only the byte layout (and count) changes.
    pub entropy: bool,
}

impl QsgdCodec {
    /// New bit-packing QSGD codec at the given bit width. Panics unless
    /// `bits ∈ 2..=16`.
    pub fn new(bits: u8) -> Self {
        let _ = max_level_for_bits(bits); // validates the range
        Self {
            bits,
            entropy: false,
        }
    }

    /// New entropy-coding QSGD codec (`"qsgd:<bits>:rc"`).
    pub fn new_entropy(bits: u8) -> Self {
        Self {
            entropy: true,
            ..Self::new(bits)
        }
    }

    /// Quantize a value slice, returning `(norm, signed levels)`.
    pub fn quantize(&self, values: &[f32], rng: &mut Xoshiro256) -> (f32, Vec<i32>) {
        qsgd_levels(values, max_level_for_bits(self.bits), rng)
    }
}

impl UpdateCodec for QsgdCodec {
    fn name(&self) -> String {
        if self.entropy {
            format!("qsgd:{}:rc", self.bits)
        } else {
            format!("qsgd:{}", self.bits)
        }
    }

    fn encode(&mut self, dense: &[f32], _ratio: f64, rng: &mut Xoshiro256) -> WireUpdate {
        let (norm, levels) = self.quantize(dense, rng);
        if self.entropy {
            encode_quantized_rc(dense.len(), self.bits, norm, &levels)
        } else {
            encode_quantized(dense.len(), self.bits, norm, &levels)
        }
    }
}

/// Sparsify-then-quantize composition (`"topk+qsgd:4"`): the first stage
/// picks the retained coordinates, the second bit-packs their values, so the
/// wire carries varint-delta indices plus `bits`-wide levels instead of full
/// `f32`s.
pub struct ComposedCodec {
    sparsifier: Box<dyn UpdateCodec>,
    quantizer: QsgdCodec,
}

impl ComposedCodec {
    /// Compose a sparsifying codec with a QSGD value quantizer.
    pub fn new(sparsifier: Box<dyn UpdateCodec>, quantizer: QsgdCodec) -> Self {
        Self {
            sparsifier,
            quantizer,
        }
    }
}

impl UpdateCodec for ComposedCodec {
    fn name(&self) -> String {
        format!("{}+{}", self.sparsifier.name(), self.quantizer.name())
    }

    fn encode(&mut self, dense: &[f32], ratio: f64, rng: &mut Xoshiro256) -> WireUpdate {
        let inner = self.sparsifier.encode(dense, ratio, rng);
        let sparse = self
            .sparsifier
            .decode(&inner)
            .ok()
            .and_then(CompressedUpdate::into_sparse)
            .expect("the first stage of a composed codec must produce a sparse update");
        let (norm, levels) = self.quantizer.quantize(sparse.values(), rng);
        if self.quantizer.entropy {
            encode_sparse_quantized_rc(
                sparse.dense_len(),
                sparse.indices(),
                self.quantizer.bits,
                norm,
                &levels,
            )
        } else {
            encode_sparse_quantized(
                sparse.dense_len(),
                sparse.indices(),
                self.quantizer.bits,
                norm,
                &levels,
            )
        }
    }

    fn residual_norm(&self) -> f64 {
        self.sparsifier.residual_norm()
    }

    fn take_residual(&mut self) -> ResidualState {
        self.sparsifier.take_residual()
    }

    fn restore_residual(&mut self, state: ResidualState) {
        self.sparsifier.restore_residual(state);
    }
}

/// Error-feedback wrapper around any codec: the part of the update the inner
/// codec's lossy encode→decode round trip dropped is remembered and added
/// back before the next round's encode (`ef-topk` is the paper's EFTOPK
/// baseline).
pub struct EfCodec {
    inner: Box<dyn UpdateCodec>,
    residual: Vec<f32>,
    /// Reusable scratch for the corrected (`dense + residual`) vector: one
    /// model-sized buffer allocated at construction instead of one fresh
    /// `Vec` per round per client.
    scratch: Vec<f32>,
}

impl EfCodec {
    /// Wrap `inner` for updates of length `dense_len`.
    pub fn new(inner: Box<dyn UpdateCodec>, dense_len: usize) -> Self {
        Self {
            inner,
            residual: vec![0.0; dense_len],
            scratch: vec![0.0; dense_len],
        }
    }

    /// The current residual vector.
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }
}

impl UpdateCodec for EfCodec {
    fn name(&self) -> String {
        format!("ef-{}", self.inner.name())
    }

    fn encode(&mut self, dense: &[f32], ratio: f64, rng: &mut Xoshiro256) -> WireUpdate {
        assert_eq!(
            dense.len(),
            self.residual.len(),
            "update length changed between rounds"
        );
        for ((c, &d), &r) in self
            .scratch
            .iter_mut()
            .zip(dense.iter())
            .zip(self.residual.iter())
        {
            *c = d + r;
        }
        let wire = self.inner.encode(&self.scratch, ratio, rng);
        let sent = self
            .inner
            .decode(&wire)
            .expect("a codec must decode its own encoding");
        // New residual = corrected − sent. For coordinates a sparse encode
        // dropped, sent is 0.0 and `corr − 0.0` is bitwise `corr`, so start
        // from a copy of the corrected vector and subtract only at the
        // retained coordinates — no densified `sent` allocation.
        self.residual.copy_from_slice(&self.scratch);
        match sent {
            CompressedUpdate::Sparse(s) => {
                for (&i, &v) in s.indices().iter().zip(s.values().iter()) {
                    self.residual[i as usize] = self.scratch[i as usize] - v;
                }
            }
            CompressedUpdate::Quantized { values } => {
                for (res, &v) in self.residual.iter_mut().zip(values.iter()) {
                    *res -= v;
                }
            }
        }
        wire
    }

    fn decode(&self, wire: &WireUpdate) -> Result<CompressedUpdate, WireError> {
        self.inner.decode(wire)
    }

    fn residual_norm(&self) -> f64 {
        self.residual
            .iter()
            .map(|&v| (v as f64).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    fn take_residual(&mut self) -> ResidualState {
        let len = self.residual.len();
        ResidualState {
            parts: vec![std::mem::replace(&mut self.residual, vec![0.0; len])],
        }
    }

    fn restore_residual(&mut self, state: ResidualState) {
        if state.parts.is_empty() {
            return;
        }
        assert_eq!(
            state.parts.len(),
            1,
            "ef codec residual snapshot must have exactly one part"
        );
        let part = state.parts.into_iter().next().unwrap();
        assert_eq!(
            part.len(),
            self.residual.len(),
            "ef codec residual snapshot length changed between checkouts"
        );
        self.residual = part;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::new(7)
    }

    fn delta(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37).sin() * 0.1).collect()
    }

    #[test]
    fn topk_codec_roundtrip_is_exact_on_retained() {
        let d = delta(500);
        let wire = TopKCodec.encode(&d, 0.1, &mut rng());
        let s = wire.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.nnz(), 50);
        for (&i, &v) in s.indices().iter().zip(s.values().iter()) {
            assert_eq!(v, d[i as usize]);
        }
    }

    #[test]
    fn topk_codec_ships_dense_format_at_full_ratio() {
        use crate::wire::{KIND_DENSE, KIND_SPARSE};
        let d = delta(100);
        let full = TopKCodec.encode(&d, 1.0, &mut rng());
        assert_eq!(full.kind().unwrap(), KIND_DENSE);
        // Header + varint + 4 bytes/coordinate: honest dense accounting.
        assert!(full.len() <= 100 * 4 + 16);
        let s = full.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.nnz(), 100);
        assert_eq!(s.to_dense(), d);
        // A genuinely sparse ratio still uses the sparse format.
        let sparse = TopKCodec.encode(&d, 0.5, &mut rng());
        assert_eq!(sparse.kind().unwrap(), KIND_SPARSE);
    }

    #[test]
    fn randk_codec_takes_one_draw_per_round() {
        let d = delta(200);
        let mut stream = rng();
        let wire = RandKCodec.encode(&d, 0.1, &mut stream);
        assert_eq!(wire.decode().unwrap().as_sparse().unwrap().nnz(), 20);
        // Exactly one draw: the stream's next value matches a twice-advanced
        // fresh stream.
        let mut fresh = rng();
        fresh.next_u64();
        assert_eq!(stream.next_u64(), fresh.next_u64());
    }

    #[test]
    fn threshold_codec_absolute_tau() {
        let d = vec![0.005, 0.5, -0.02, 0.0, -0.8];
        let mut c = ThresholdCodec { tau: Some(0.1) };
        let s = c
            .encode(&d, 1.0, &mut rng())
            .decode()
            .unwrap()
            .into_sparse()
            .unwrap();
        assert_eq!(s.indices(), &[1, 4]);
    }

    #[test]
    fn qsgd_codec_bounds_error_and_beats_dense() {
        let d = delta(1000);
        let norm = d.iter().map(|v| v * v).sum::<f32>().sqrt();
        let mut c = QsgdCodec::new(8); // 127 levels
        let wire = c.encode(&d, 1.0, &mut rng());
        assert!(wire.len() < 1000 * 4 / 2, "8-bit wire beats f32 by >2x");
        let rec = wire.decode().unwrap().into_dense();
        for (a, b) in d.iter().zip(rec.iter()) {
            assert!((a - b).abs() <= norm / 127.0 + 1e-5);
        }
    }

    #[test]
    fn composed_codec_quantizes_retained_values() {
        let d = delta(2000);
        let mut c = ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new(6));
        let wire = c.encode(&d, 0.05, &mut rng());
        // 100 retained coords: ≤ ~2 bytes of index + 6 bits of value each,
        // far below the 8 bytes/coord of the f32 sparse format.
        assert!(wire.len() < 100 * 8 / 2);
        let s = wire.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.nnz(), 100);
        let retained_norm = s.values().iter().map(|v| v * v).sum::<f32>().sqrt();
        for (&i, &v) in s.indices().iter().zip(s.values().iter()) {
            assert!((v - d[i as usize]).abs() <= retained_norm / 31.0 + 1e-5);
        }
    }

    #[test]
    fn ef_codec_conservation() {
        let d = delta(64);
        let mut codec = EfCodec::new(Box::new(TopKCodec), d.len());
        let mut stream = rng();
        for _ in 0..3 {
            let before = codec.residual().to_vec();
            let sent = codec
                .encode(&d, 0.2, &mut stream)
                .decode()
                .unwrap()
                .into_dense();
            for i in 0..d.len() {
                let lhs = sent[i] + codec.residual()[i];
                let rhs = d[i] + before[i];
                assert!((lhs - rhs).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn ef_codec_residual_holds_dropped_mass() {
        let mut codec = EfCodec::new(Box::new(TopKCodec), 4);
        let wire = codec.encode(&[10.0, 1.0, 2.0, 3.0], 0.25, &mut rng()); // keeps only 10.0
        assert_eq!(wire.decode().unwrap().as_sparse().unwrap().indices(), &[0]);
        assert_eq!(codec.residual(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn ef_codec_eventually_sends_a_dropped_coordinate() {
        // A coordinate too small to ever win Top-K on its own accumulates in
        // the residual until it is transmitted.
        let mut codec = EfCodec::new(Box::new(TopKCodec), 2);
        let mut stream = rng();
        let sent_coord1 = (0..5).any(|_| {
            let wire = codec.encode(&[1.0, 0.4], 0.5, &mut stream); // k = 1
            wire.decode().unwrap().as_sparse().unwrap().indices() == [1]
        });
        assert!(
            sent_coord1,
            "error feedback never flushed the small coordinate"
        );
    }

    #[test]
    fn threshold_codec_survives_nan_deltas() {
        let mut d = delta(100);
        d[3] = f32::NAN;
        d[40] = f32::NAN;
        let mut codec = ThresholdCodec { tau: None };
        // At ratio 0.01 the quantile lands on a NaN and nothing is kept;
        // every ratio must still decode to a valid sparse update.
        for ratio in [0.01, 0.1, 0.5, 0.99] {
            let s = codec
                .encode(&d, ratio, &mut rng())
                .decode()
                .unwrap()
                .into_sparse()
                .unwrap();
            assert_eq!(s.dense_len(), d.len());
            assert!(s.indices().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn ef_residual_snapshot_moves_between_instances() {
        // take → restore into a fresh codec must continue the trajectory
        // bit-for-bit: this is the contract client virtualization relies on.
        let d = delta(200);
        let mut persistent = EfCodec::new(Box::new(TopKCodec), d.len());
        let _ = persistent.encode(&d, 0.05, &mut rng());
        let _ = persistent.encode(&d, 0.05, &mut rng());

        let mut first = EfCodec::new(Box::new(TopKCodec), d.len());
        let _ = first.encode(&d, 0.05, &mut rng());
        let snapshot = first.take_residual();
        assert_eq!(snapshot.parts.len(), 1);
        assert!(first.residual().iter().all(|&v| v == 0.0), "take resets");
        let mut second = EfCodec::new(Box::new(TopKCodec), d.len());
        second.restore_residual(snapshot);
        let wire_resumed = second.encode(&d, 0.05, &mut rng());
        let wire_straight = {
            let mut reference = EfCodec::new(Box::new(TopKCodec), d.len());
            let _ = reference.encode(&d, 0.05, &mut rng());
            reference.encode(&d, 0.05, &mut rng())
        };
        assert_eq!(wire_resumed.as_bytes(), wire_straight.as_bytes());
        assert!((second.residual_norm() - persistent.residual_norm()).abs() < 1e-12);
    }

    #[test]
    fn stateless_codecs_snapshot_empty() {
        let mut codec = TopKCodec;
        assert!(codec.take_residual().parts.is_empty());
        codec.restore_residual(ResidualState::empty());
        let mut composed = ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new(8));
        assert!(composed.take_residual().parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "stateless codec")]
    fn stateless_codecs_reject_nontrivial_snapshots() {
        TopKCodec.restore_residual(ResidualState {
            parts: vec![vec![1.0]],
        });
    }

    #[test]
    fn composed_codec_delegates_residual_to_sparsifier() {
        let d = delta(120);
        let mut composed = ComposedCodec::new(
            Box::new(EfCodec::new(Box::new(TopKCodec), d.len())),
            QsgdCodec::new(8),
        );
        let mut stream = rng();
        let _ = composed.encode(&d, 0.1, &mut stream);
        let snap = composed.take_residual();
        assert_eq!(snap.parts.len(), 1);
        assert!(
            (composed.residual_norm() - 0.0).abs() < 1e-12,
            "take resets"
        );
        composed.restore_residual(snap);
        assert!(composed.residual_norm() > 0.0);
    }

    #[test]
    fn names_compose() {
        assert_eq!(TopKCodec.name(), "topk");
        assert_eq!(QsgdCodec::new(4).name(), "qsgd:4");
        assert_eq!(QsgdCodec::new_entropy(4).name(), "qsgd:4:rc");
        assert_eq!(
            ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new(4)).name(),
            "topk+qsgd:4"
        );
        assert_eq!(
            ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new_entropy(6)).name(),
            "topk+qsgd:6:rc"
        );
        assert_eq!(EfCodec::new(Box::new(TopKCodec), 1).name(), "ef-topk");
    }

    #[test]
    fn entropy_qsgd_shrinks_bytes_without_changing_values() {
        // Same bit width, same RNG stream: the entropy codec must produce
        // the same lossy values as the bit-packing codec (quantization is
        // identical) in strictly fewer bytes on gradient-like data.
        let d = delta(4096);
        let packed = QsgdCodec::new(4).encode(&d, 1.0, &mut rng());
        let entropy = QsgdCodec::new_entropy(4).encode(&d, 1.0, &mut rng());
        assert_eq!(entropy.kind().unwrap(), crate::wire::KIND_ENTROPY);
        assert!(
            entropy.len() < packed.len(),
            "entropy {} >= packed {}",
            entropy.len(),
            packed.len()
        );
        let a = packed.decode().unwrap().into_dense();
        let b = entropy.decode().unwrap().into_dense();
        assert!(a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn composed_entropy_qsgd_shrinks_sparse_quantized_bytes() {
        let d = delta(4096);
        let mut packed = ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new(6));
        let mut entropy = ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new_entropy(6));
        let wp = packed.encode(&d, 0.05, &mut rng());
        let we = entropy.encode(&d, 0.05, &mut rng());
        assert_eq!(we.kind().unwrap(), crate::wire::KIND_ENTROPY);
        assert!(
            we.len() < wp.len(),
            "entropy {} >= packed {}",
            we.len(),
            wp.len()
        );
        let a = wp.decode().unwrap().into_sparse().unwrap();
        let b = we.decode().unwrap().into_sparse().unwrap();
        assert_eq!(a.indices(), b.indices());
        assert!(a
            .values()
            .iter()
            .zip(b.values().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    proptest! {
        #[test]
        fn prop_ef_codec_conservation(
            dense in proptest::collection::vec(-10.0f32..10.0, 8..64),
            ratio in 0.05f64..0.9,
        ) {
            // sent + residual_new == dense + residual_old, every round.
            let mut codec = EfCodec::new(Box::new(TopKCodec), dense.len());
            let mut stream = rng();
            for _ in 0..3 {
                let before = codec.residual().to_vec();
                let sent = codec
                    .encode(&dense, ratio, &mut stream)
                    .decode()
                    .unwrap()
                    .into_dense();
                for i in 0..dense.len() {
                    let lhs = sent[i] + codec.residual()[i];
                    let rhs = dense[i] + before[i];
                    prop_assert!((lhs - rhs).abs() < 1e-4);
                }
            }
        }
    }
}
