//! The benchmark's own checks: its workloads are valid, its simulated
//! metrics are pure functions of the seed, its metric names are well formed
//! and declared in `BENCHMARK.json`, and its accuracy targets hold.
//!
//! Run with `cargo test --release --manifest-path roundbench/Cargo.toml`
//! (the 10⁵-client workload is slow without optimisation).

use roundbench::drive::{run_pass, Outcome, PassSummary};
use roundbench::report::{END_TO_END, PER_LAYER};
use roundbench::workload::{pass_seed, Workload};

fn pass(workload: Workload, seed: u64, threads: usize) -> (PassSummary, Outcome) {
    let mut config = workload.config(pass_seed(seed, 0));
    config.max_threads = threads;
    let mut out = Outcome::default();
    let summary = run_pass(workload, &config, 2, &mut (), &mut out).expect("no panic");
    (summary, out)
}

#[test]
fn every_workload_config_validates() {
    for workload in Workload::ALL {
        for seed in [0, 1, u64::MAX] {
            let config = workload.config(pass_seed(seed, 3));
            assert_eq!(config.validate(), Ok(()), "{}", workload.name());
        }
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
    }
}

#[test]
fn simulated_metrics_repeat_across_runs_and_thread_counts() {
    for workload in Workload::ALL {
        let (first, out) = pass(workload, 5, 2);
        let (again, _) = pass(workload, 5, 2);
        let (serial, _) = pass(workload, 5, 1);
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
        // PartialEq on f64 fields: bit-for-bit equal values.
        assert_eq!(first, again, "{}", workload.name());
        assert_eq!(first, serial, "{}", workload.name());
    }
}

#[test]
fn every_workload_reaches_its_target_on_a_second_seed() {
    for workload in Workload::ALL {
        let (summary, out) = pass(workload, 2, 2);
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
        assert!(summary.time_to_target_s.is_some(), "{}", workload.name());
    }
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(seen.insert(name), "{name} declared twice");
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(manifest.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
