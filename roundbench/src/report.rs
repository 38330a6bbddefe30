//! Metric names, summary statistics and the result line.

/// The end-to-end metrics of a timed run (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("final_accuracy", "fraction"),
    ("sim_time_to_target_s", "s"),
    ("uplink_mb", "MB"),
];

/// The per-layer metrics of a traced run (`--trace 1`), with their units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.round_ms", "ms"),
    ("core.local.train_max_ms", "ms"),
    ("core.local.codec_ms", "ms"),
    ("core.round.unattributed_ms", "ms"),
    ("core.round.coverage", "fraction"),
    ("core.roster.checkout_us", "us"),
    ("core.roster.checkin_us", "us"),
    ("core.roster.instantiated", "count"),
    ("core.roster.residual_clients", "count"),
    ("core.client.local_update_ms", "ms"),
    ("core.client.batches", "count"),
    ("core.client.encode_us", "us"),
    ("core.client.decode_us", "us"),
    ("core.aggregate_ms", "ms"),
    ("core.opwa_mask_us", "us"),
    ("core.bcrs_schedule_us", "us"),
    ("core.eval_ms", "ms"),
    ("core.roster_new_ms", "ms"),
    ("nn.forward_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.sgd_step_us", "us"),
    ("nn.softmax_subnormal_share", "fraction"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.parallel_map_us", "us"),
    ("tensor.cpu_util", "fraction"),
    ("compress.bytes_per_client", "count"),
    ("data.generate_ms", "ms"),
    ("data.partition_ms", "ms"),
    ("data.gather_us", "us"),
    ("netsim.links_ms", "ms"),
    ("netsim.sim_round_s", "s"),
    ("trace.run_round_per_s", "1/s"),
    ("trace.replay_ms", "ms"),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, one of [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit, as declared next to the name.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The unit declared for `name` in [`END_TO_END`] or [`PER_LAYER`].
///
/// # Panics
/// On an undeclared name: every reported metric must be declared.
pub fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"));
    Metric { name, unit, value }
}

/// The `q` quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly between
/// order statistics; NaN for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; NaN for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; NaN for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// formatting gives; `null` otherwise.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
