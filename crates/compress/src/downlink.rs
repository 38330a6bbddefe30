//! The server-side downlink (broadcast) channel: the second leg of the
//! paper's bidirectional communication model.
//!
//! Uplink compression runs one [`UpdateCodec`] per client; the downlink is a
//! *broadcast* — the server encodes the change of the global parameters since
//! the previous broadcast **once** per round, and every recipient decodes the
//! same byte buffer. [`DownlinkChannel`] owns everything that makes this a
//! faithful simulation:
//!
//! * the boxed [`UpdateCodec`] (any spec the registry resolves — `topk`,
//!   `qsgd:8`, `ef-topk`, …) with its cross-round state. Error-feedback
//!   residuals therefore live **server-side**: the part of the global delta a
//!   lossy broadcast dropped is added back into the next round's broadcast;
//! * a dedicated RNG stream for the codec's per-round randomness (Rand-K
//!   draws, QSGD stochastic rounding), so enabling the downlink leg never
//!   perturbs the uplink or selection streams;
//! * the recipients' shared **view** of the global parameters. A lossy
//!   broadcast means the clients' model drifts from the server's; the view is
//!   what clients actually train from, reconstructed from the decoded bytes
//!   exactly as a receiver would.
//!
//! The encoded buffer's [`WireUpdate::len`] is the honest downlink byte count
//! a network simulator can charge (`fl-netsim`'s `CostBasis::Encoded`).

use crate::codec::UpdateCodec;
use crate::wire::WireUpdate;
use fl_tensor::rng::Xoshiro256;

/// The server end of the broadcast channel: codec + RNG stream + the
/// recipients' shared view of the global parameters.
pub struct DownlinkChannel {
    codec: Box<dyn UpdateCodec>,
    rng: Xoshiro256,
    /// The server's global parameters at the previous broadcast — each
    /// broadcast encodes the server's progress since then, so an
    /// error-feedback codec accumulates exactly the dropped coordinates.
    last_global: Vec<f32>,
    view: Vec<f32>,
    ratio: f64,
}

impl DownlinkChannel {
    /// Open a channel over `codec` for recipients that start from
    /// `initial_params` (federated clients initialise from the same seed as
    /// the server, so the first broadcast only carries the drift since then —
    /// a zero delta). `ratio` is the compression ratio handed to every
    /// broadcast encode (sparsifying codecs honour it; quantizers ignore it).
    /// `seed` starts the channel's private RNG stream.
    pub fn new(codec: Box<dyn UpdateCodec>, initial_params: &[f32], ratio: f64, seed: u64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "downlink ratio must be in (0, 1], got {ratio}"
        );
        Self {
            codec,
            rng: Xoshiro256::new(seed),
            last_global: initial_params.to_vec(),
            view: initial_params.to_vec(),
            ratio,
        }
    }

    /// Broadcast the current global parameters: encode the server's progress
    /// since the previous broadcast into wire bytes, decode them back the way
    /// a receiver would, and advance the recipients' view by the decoded
    /// (lossy) delta. Returns the exact buffer that went on the wire; its
    /// length is the round's downlink byte count.
    ///
    /// The encoded quantity is deliberately the *server-side* progress
    /// (`last_global − global`), not the view-vs-server gap: with a plain
    /// lossy codec the recipients' view therefore drifts — the honest price
    /// of broadcast compression — while an `ef-…` codec remembers every
    /// dropped coordinate in its server-side residual and re-ships it, so
    /// repeated broadcasts converge on the server's parameters.
    pub fn broadcast(&mut self, global: &[f32]) -> WireUpdate {
        assert_eq!(
            global.len(),
            self.view.len(),
            "global parameter length changed between broadcasts"
        );
        // Descent-direction convention, matching the uplink: the encoded
        // vector moves the receiver by subtraction (`view -= decoded`).
        let delta: Vec<f32> = self
            .last_global
            .iter()
            .zip(global.iter())
            .map(|(p, g)| p - g)
            .collect();
        let wire = self.codec.encode(&delta, self.ratio, &mut self.rng);
        let decoded = self
            .codec
            .decode(&wire)
            .expect("a codec must decode its own encoding")
            .into_dense();
        for (v, d) in self.view.iter_mut().zip(decoded.iter()) {
            *v -= d;
        }
        self.last_global.copy_from_slice(global);
        wire
    }

    /// The recipients' current view of the global parameters (what clients
    /// train from). Identical to the server's parameters only when the codec
    /// is lossless over the broadcast deltas.
    pub fn view(&self) -> &[f32] {
        &self.view
    }

    /// Name of the broadcast codec (the resolved spec string).
    pub fn codec_name(&self) -> String {
        self.codec.name()
    }

    /// L2 norm of the codec's server-side residual state (0 for stateless
    /// codecs; non-zero once an `ef-…` spec has dropped something).
    pub fn residual_norm(&self) -> f64 {
        self.codec.residual_norm()
    }
}

impl std::fmt::Debug for DownlinkChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DownlinkChannel")
            .field("codec", &self.codec.name())
            .field("dense_len", &self.view.len())
            .field("ratio", &self.ratio)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecCtx;
    use crate::registry::CodecRegistry;

    fn channel(spec: &str, init: &[f32], ratio: f64) -> DownlinkChannel {
        let codec = CodecRegistry::with_builtins()
            .build(&spec.parse().unwrap(), &CodecCtx::new(init.len(), 3))
            .unwrap();
        DownlinkChannel::new(codec, init, ratio, 11)
    }

    #[test]
    fn first_broadcast_of_unchanged_params_moves_nothing() {
        let init = vec![0.5f32, -1.0, 2.0, 0.0];
        let mut ch = channel("topk", &init, 0.5);
        let wire = ch.broadcast(&init);
        assert!(!wire.is_empty());
        assert_eq!(ch.view(), &init[..]);
    }

    #[test]
    fn dense_ratio_broadcast_tracks_the_server_exactly() {
        let init = vec![0.0f32; 6];
        let mut ch = channel("topk", &init, 1.0);
        let mut global = init.clone();
        for step in 1..4 {
            for (i, g) in global.iter_mut().enumerate() {
                *g += (i as f32 + 1.0) * step as f32 * 0.1;
            }
            let wire = ch.broadcast(&global);
            assert!(wire.len() >= global.len() * 4, "ratio-1 ships dense bytes");
            assert_eq!(ch.view(), &global[..], "lossless broadcast stays exact");
        }
    }

    #[test]
    fn lossy_broadcast_drifts_but_ef_recovers_the_residual() {
        let init = vec![0.0f32; 64];
        let mut plain = channel("topk", &init, 0.1);
        let mut ef = channel("ef-topk", &init, 0.1);
        let global: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.7).sin()).collect();

        let _ = plain.broadcast(&global);
        assert_ne!(plain.view(), &global[..], "10% Top-K broadcast is lossy");
        assert_eq!(plain.residual_norm(), 0.0);

        // The EF channel remembers what it dropped server-side and reships it:
        // repeated broadcasts of the same target converge on the view.
        let mut err_prev = f64::INFINITY;
        for _ in 0..24 {
            let _ = ef.broadcast(&global);
            let err: f64 = ef
                .view()
                .iter()
                .zip(global.iter())
                .map(|(v, g)| ((v - g) as f64).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(err <= err_prev + 1e-6, "EF error must not grow");
            err_prev = err;
        }
        assert!(ef.residual_norm() >= 0.0);
        let plain_err: f64 = plain
            .view()
            .iter()
            .zip(global.iter())
            .map(|(v, g)| ((v - g) as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            err_prev < plain_err,
            "EF broadcasts converge ({err_prev}) below one lossy broadcast ({plain_err})"
        );
    }

    #[test]
    fn broadcast_bytes_shrink_with_the_ratio() {
        let init = vec![0.0f32; 1000];
        let global: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.31).cos()).collect();
        let small = channel("topk", &init, 0.01).broadcast(&global).len();
        let large = channel("topk", &init, 0.5).broadcast(&global).len();
        assert!(small < large / 10, "{small} vs {large}");
    }

    #[test]
    #[should_panic(expected = "downlink ratio")]
    fn zero_ratio_is_rejected() {
        channel("topk", &[0.0], 0.0);
    }
}
