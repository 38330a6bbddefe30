//! Round-record fingerprint regression: the full training + compression +
//! communication trajectory of every algorithm, under both the flat codec
//! path and a genuinely mixed layer plan (`Segmented` framing), hashed field
//! by field and pinned to the values the pre-entropy-coding engine produced.
//!
//! Any change to training numerics, codec bytes, aggregation order, or the
//! simulated communication model shows up here as a hash mismatch. The
//! expected values were captured at the commit preceding the entropy-coded
//! wire kind and the blocked matmul kernels, so this suite is the proof that
//! those rewrites left every existing record bit-identical.
//!
//! To re-capture after an *intentional* trajectory change:
//! `FP_PRINT=1 cargo test --release --test fingerprints -- --nocapture`

use bwfl::prelude::*;

const ALL_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::FedAvg,
    Algorithm::TopK,
    Algorithm::EfTopK,
    Algorithm::RandK,
    Algorithm::TopKOpwa,
    Algorithm::Bcrs,
    Algorithm::BcrsOpwa,
];

/// FNV-1a, folded over a canonical little-endian byte stream. Float fields
/// enter via `to_bits`, so the hash pins bit patterns, not approximations.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Hash every field of every record. Destructured without a rest pattern so
/// that adding a `RoundRecord` field is a compile error here rather than a
/// silently unfingerprinted field (same trick as the struct's `PartialEq`).
fn fingerprint(records: &[RoundRecord]) -> u64 {
    let mut h = Fnv::new();
    h.usize(records.len());
    for r in records {
        let RoundRecord {
            round,
            test_accuracy,
            test_loss,
            train_loss,
            mean_compression_ratio,
            uplink_bytes,
            downlink_bytes,
            comm_actual_s,
            comm_max_s,
            comm_min_s,
            cumulative_actual_s,
            cumulative_max_s,
            cumulative_min_s,
            selected_clients,
            overlap,
            layer_bytes,
            scenario,
            plan,
        } = r;
        h.usize(*round);
        h.f64(*test_accuracy);
        h.f64(*test_loss);
        h.f64(*train_loss);
        h.f64(*mean_compression_ratio);
        h.usize(*uplink_bytes);
        h.usize(*downlink_bytes);
        h.f64(*comm_actual_s);
        h.f64(*comm_max_s);
        h.f64(*comm_min_s);
        h.f64(*cumulative_actual_s);
        h.f64(*cumulative_max_s);
        h.f64(*cumulative_min_s);
        h.usize(selected_clients.len());
        for &c in selected_clients {
            h.usize(c);
        }
        match overlap {
            None => h.u64(0),
            Some(o) => {
                h.u64(1);
                h.usize(o.cohort_size);
                h.u64(o.total_retained);
                h.usize(o.histogram_counts.len());
                for &c in &o.histogram_counts {
                    h.u64(c);
                }
                for &f in &o.fractions {
                    h.f64(f);
                }
            }
        }
        match layer_bytes {
            None => h.u64(0),
            Some(layers) => {
                h.u64(1);
                h.usize(layers.len());
                for l in layers {
                    h.bytes(l.layer.as_bytes());
                    h.usize(l.uplink_bytes);
                    h.usize(l.downlink_bytes);
                }
            }
        }
        // Unlike the tags above, `scenario: None` hashes *nothing*: the
        // field postdates the pinned EXPECTED table, and static-fleet runs
        // must keep their original fingerprints.
        if let Some(t) = scenario {
            h.u64(1);
            h.usize(t.available);
            h.usize(t.joined);
            h.usize(t.departed);
            h.usize(t.link_changes);
        }
        // Same post-pin rule as `scenario`: `plan: None` (every static run)
        // hashes nothing, so the EXPECTED table predating adaptive plans
        // stays valid.
        if let Some(p) = plan {
            h.u64(1);
            h.bytes(p.policy.as_bytes());
            h.bytes(p.plan.as_bytes());
            h.u64(p.epoch);
            h.usize(p.assignments.len());
            for a in &p.assignments {
                h.bytes(a.segment.as_bytes());
                h.bytes(a.spec.as_bytes());
                h.f64(a.ratio);
            }
        }
    }
    h.0
}

fn run(algorithm: Algorithm, plan: Option<&str>) -> u64 {
    let mut config = ExperimentConfig::quick(algorithm);
    config.rounds = 3;
    config.num_clients = 16;
    if let Some(p) = plan {
        config.compressor = Some(p.parse().expect("fingerprint plan parses"));
    }
    let result = SessionBuilder::from_config(&config)
        .threads(1)
        .build()
        .run();
    fingerprint(&result.records)
}

/// Captured at the pre-PR commit (see module docs). `flat` is the
/// algorithm's own codec; `planned` drives the same algorithm through a
/// mixed all-sparse layer plan, so the `Segmented` wire kind and per-layer
/// byte breakdown are pinned too.
const EXPECTED: &[(&str, u64)] = &[
    ("fedavg/flat", 0xb03372fa5d801134),
    ("topk/flat", 0x74df1c8affa07121),
    ("eftopk/flat", 0x480d3c98c611db26),
    ("randk/flat", 0x07a896ae8785aedd),
    ("topk+opwa/flat", 0x0a67a817d12c0031),
    ("bcrs/flat", 0x4f3aebe4bd2ce32e),
    ("bcrs+opwa/flat", 0x097ba632d8c088d4),
    ("fedavg/planned", 0x130241a04d7e503b),
    // The plan *is* the uplink codec, so the three plain sparsifier
    // algorithms collapse to the same planned trajectory — pinned anyway,
    // as three independent routes into the Segmented path.
    ("topk/planned", 0x2c6540a4d381a969),
    ("eftopk/planned", 0x2c6540a4d381a969),
    ("randk/planned", 0x2c6540a4d381a969),
    ("topk+opwa/planned", 0xbe6dff1853edfd1f),
    ("bcrs/planned", 0x14f7511ec604d7de),
    ("bcrs+opwa/planned", 0xb22f1151cba044f9),
];

const PLAN: &str = "*.bias=randk;*=topk";

#[test]
fn round_record_fingerprints_are_pinned() {
    let mut got = Vec::new();
    for algorithm in ALL_ALGORITHMS {
        got.push((format!("{}/flat", algorithm.name()), run(algorithm, None)));
    }
    for algorithm in ALL_ALGORITHMS {
        got.push((
            format!("{}/planned", algorithm.name()),
            run(algorithm, Some(PLAN)),
        ));
    }
    if std::env::var("FP_PRINT").is_ok() {
        for (name, fp) in &got {
            println!("    (\"{name}\", {fp:#018x}),");
        }
        return;
    }
    assert_eq!(got.len(), EXPECTED.len());
    for ((name, fp), (exp_name, exp_fp)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, exp_name, "fingerprint matrix order changed");
        assert_eq!(
            fp, exp_fp,
            "{name}: round-record trajectory is no longer bit-identical"
        );
    }
}
