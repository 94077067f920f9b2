//! Metric definitions, summary statistics and the result line.

use std::collections::BTreeMap;

/// One reported metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Metrics a user sees, measured with tracing off. Each is reported on
/// every workload; a "step" is one training step (forward, backward
/// and apply on one batch) or one `StreamingSession::step` call.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    higher("samples_per_s", "samples/s"),
    lower("step_ms_p50", "ms"),
    lower("step_ms_p90", "ms"),
    lower("peak_heap_mb", "MB"),
];

/// Metrics of single layers, from the traced run. Times are summed over
/// threads and divided by the traced steps; counts come from the
/// untraced part of the same run.
pub const PER_LAYER: &[Def] = &[
    lower("tensor.gemm_gflop_per_step", "GFLOP"),
    lower("tensor.gemm_calls_per_step", "count"),
    lower("tensor.gemm_bytes_per_step", "B"),
    higher("tensor.gemm_gflops", "GFLOP/s"),
    higher("tensor.simd_frac", "ratio"),
    higher("tensor.simd_calls_per_step", "count"),
    lower("tensor.scalar_calls_per_step", "count"),
    lower("core.workspace.pack_ms_per_step", "ms"),
    lower("core.workspace.high_water_mb", "MB"),
    lower("core.layer.fw_ms_per_step", "ms"),
    lower("core.layer.bp_ms_per_step", "ms"),
    lower("core.layer.bp_ew_ms_per_step", "ms"),
    lower("core.layer.bp_over_fw", "ratio"),
    lower("core.cell.fw_ms_per_step", "ms"),
    lower("core.cell.bp_ms_per_step", "ms"),
    lower("core.ms3.recompute_ms_per_step", "ms"),
    lower("core.model.step_self_ms", "ms"),
    lower("core.parallel.step_ms", "ms"),
    lower("core.parallel.reduce_ms_per_step", "ms"),
    lower("core.parallel.shard_idle_frac", "ratio"),
    lower("core.optimizer.apply_ms_per_step", "ms"),
    lower("core.ms1.p1_density", "ratio"),
    higher("core.ms2.skip_frac", "ratio"),
    lower("core.ms3.recompute_cells_per_step", "count"),
    lower("core.ms3.conv_events_per_step", "count"),
    higher("core.ms3.applied_frac", "ratio"),
    lower("core.inference.step_ms_p99", "ms"),
    lower("memsim.peak_footprint_mb", "MB"),
    lower("memsim.traffic_mb_per_step", "MB"),
    higher("memsim.modeled_over_measured", "ratio"),
    lower("heap.allocs_per_step", "count"),
    lower("heap.alloc_mb_per_step", "MB"),
    lower("heap.allocs_per_call.step", "count"),
    lower("heap.allocs_per_call.apply", "count"),
    lower("heap.allocs_per_call.pack", "count"),
    lower("prof.tracing_overhead_frac", "ratio"),
    higher("prof.attributed_frac", "ratio"),
    lower("bench.failed_ops_frac", "ratio"),
    higher("bench.timed_steps", "count"),
];

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `q`-th percentile of `xs`, interpolating linearly between
/// order statistics (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Bytes to megabytes (10^6).
pub fn mb(bytes: f64) -> f64 {
    bytes / 1e6
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable notes (checks, sample counts), printed before
    /// the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a correctness check and its detail.
    pub fn check(&mut self, passed: bool, detail: String) {
        self.notes.push(format!(
            "check {}: {detail}",
            if passed { "ok" } else { "FAILED" }
        ));
        self.correct &= passed;
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding exactly `defs`.
///
/// # Errors
///
/// Names a metric of `defs` that the outcome lacks or holds as a
/// non-finite number.
pub fn result_line(outcome: &Outcome, defs: &[Def]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *outcome
            .values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        metrics.push(format!(
            "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
            d.name, v, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Value, key: &str) -> Vec<(String, String, bool)> {
        let Some(Value::Seq(items)) = json.get(key) else {
            panic!("{key} is a list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}.{k} is a string, got {other:?}"),
                };
                (s("name"), s("unit"), s("better") == "higher")
            })
            .collect()
    }

    fn defs(defs: &[Def]) -> Vec<(String, String, bool)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.higher_is_better))
            .collect()
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{} leaves [A-Za-z0-9_.-]",
                d.name
            );
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), defs(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), defs(PER_LAYER));
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        for (i, d) in END_TO_END.iter().enumerate() {
            outcome.set(d.name, 0.25 + i as f64);
        }
        let line = result_line(&outcome, END_TO_END).unwrap();
        let parsed: Value = serde_json::from_str(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        for d in END_TO_END {
            let m = metrics.get(d.name).unwrap();
            assert_eq!(m.get("unit"), Some(&Value::Str(d.unit.to_string())));
        }
        outcome.values.remove("setup_s");
        assert!(result_line(&outcome, END_TO_END).is_err());
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
