//! Training-step cost of the zero-alloc workspace + cached weight
//! panels, both through `LstmModel::train_step_ws`: a fresh
//! [`Workspace`] and freshly packed [`ModelPanels`] every step vs a
//! reused workspace and panels packed once. Both paths are
//! bit-identical (the determinism suite proves it); this bench measures
//! what the reuse buys and writes the medians to
//! `BENCH_train_step.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use eta_bench::{scaled_config, scaled_task, SEED};
use eta_lstm_core::layer::Instruments;
use eta_lstm_core::model::StepPlan;
use eta_lstm_core::{LstmModel, ModelPanels, Task, Workspace};
use eta_workloads::Benchmark;
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

/// The in-tree serde shim has no `json!` macro; build the report as an
/// explicit [`Value`] tree (insertion order is preserved, so the
/// checked-in artifact diffs stably).
fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn bench_workspace_step(c: &mut Criterion) {
    let cfg = scaled_config(Benchmark::Imdb);
    let task = scaled_task(Benchmark::Imdb);
    let model = LstmModel::new(&cfg, SEED);
    let batch = Task::batch(&task, 0, 0);
    let plan = StepPlan::baseline();
    let instruments = Instruments::new();

    let step_fresh = || {
        let panels = ModelPanels::pack_with(&model, &plan.kernel);
        model
            .train_step_ws(
                &batch.inputs,
                &batch.targets,
                &plan,
                &instruments,
                &panels,
                &mut Workspace::new(),
            )
            .unwrap()
    };

    let panels = ModelPanels::pack_with(&model, &plan.kernel);
    let mut ws = Workspace::new();

    let mut group = c.benchmark_group("train_step_scaled_imdb");
    group.sample_size(10);
    group.bench_function("fresh_workspace_per_step", |bench| {
        bench.iter(|| black_box(step_fresh()));
    });
    group.bench_function("reused_workspace_cached_panels", |bench| {
        bench.iter(|| {
            black_box(
                model
                    .train_step_ws(
                        &batch.inputs,
                        &batch.targets,
                        &plan,
                        &instruments,
                        &panels,
                        &mut ws,
                    )
                    .unwrap(),
            )
        });
    });
    group.finish();

    // Interleaved medians for the reported number.
    let mut fresh = Vec::new();
    let mut reused = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        black_box(step_fresh());
        fresh.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        black_box(
            model
                .train_step_ws(
                    &batch.inputs,
                    &batch.targets,
                    &plan,
                    &instruments,
                    &panels,
                    &mut ws,
                )
                .unwrap(),
        );
        reused.push(t1.elapsed().as_secs_f64());
    }
    let fresh_s = median(&mut fresh);
    let reused_s = median(&mut reused);
    let speedup = fresh_s / reused_s;
    println!(
        "train_step scaled IMDB: fresh {fresh_s:.4}s, reused+panels {reused_s:.4}s \
         ({speedup:.2}x), workspace high water {} bytes",
        ws.high_water_bytes()
    );

    let report = map(vec![
        ("bench", Value::Str("train_step_workspace".into())),
        ("workload", Value::Str("scaled_imdb".into())),
        ("fresh_workspace_median_seconds", Value::Float(fresh_s)),
        (
            "reused_workspace_cached_panels_median_seconds",
            Value::Float(reused_s),
        ),
        ("speedup", Value::Float(speedup)),
        (
            "workspace_high_water_bytes",
            Value::UInt(ws.high_water_bytes()),
        ),
        ("samples", Value::UInt(5)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train_step.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!("wrote {path}");

    // Reuse must never be a pessimization (it elides work, adds none).
    assert!(
        speedup >= 0.95,
        "workspace/panel reuse slowed the step down: {speedup:.2}x"
    );
}

criterion_group!(benches, bench_workspace_step);
criterion_main!(benches);
