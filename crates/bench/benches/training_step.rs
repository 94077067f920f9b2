//! Training-step latency per strategy: how much CPU-side work the MS1
//! compression and MS2 skipping save on a real (scaled) model.

use criterion::{criterion_group, criterion_main, Criterion};
use eta_bench::{scaled_task, SEED};
use eta_lstm_core::{Parallelism, Trainer, TrainingStrategy};
use eta_workloads::Benchmark;
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_epoch_scaled_imdb");
    group.sample_size(10);
    for strategy in TrainingStrategy::ALL {
        let cfg = eta_bench::scaled_config(Benchmark::Imdb);
        let task = scaled_task(Benchmark::Imdb);
        group.bench_function(strategy.to_string(), |bench| {
            bench.iter(|| {
                let mut trainer = Trainer::new(cfg, strategy, SEED).unwrap();
                // 4 epochs so MS2 gets past its warm-up and skips.
                black_box(trainer.run(&task, 4).unwrap())
            });
        });
    }
    group.finish();
}

/// Guard for the telemetry handle's hot-path cost: a full instrumented
/// training run (spans + metric mirrors into the registry, no sinks)
/// must stay within 5 % of the same run with no handle. Both legs run
/// the same compiled code; only the handle differs. The comparison is
/// measured directly (median of interleaved repetitions) so the guard
/// can assert, not just display. On a 2-core x86-64 host the measured
/// ratio spans 0.998–1.411 and this assert fails in most runs (see
/// README "Observability"); no CI job runs it.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let cfg = eta_bench::scaled_config(Benchmark::Imdb);
    let task = scaled_task(Benchmark::Imdb);
    let run = |with_telemetry: bool| {
        let mut trainer = Trainer::new(cfg, TrainingStrategy::CombinedMs, SEED).unwrap();
        if with_telemetry {
            let manifest = eta_telemetry::RunManifest::capture(
                "bench",
                eta_telemetry::config_hash(&SEED),
                SEED,
            );
            trainer = trainer.with_telemetry(eta_telemetry::Telemetry::new(manifest));
        }
        trainer.run(&task, 4).unwrap()
    };

    let mut group = c.benchmark_group("telemetry_overhead_scaled_imdb");
    group.sample_size(10);
    group.bench_function("without_telemetry", |bench| {
        bench.iter(|| black_box(run(false)));
    });
    group.bench_function("with_telemetry", |bench| {
        bench.iter(|| black_box(run(true)));
    });
    group.finish();

    // Interleave the two variants so drift hits both equally, and
    // compare medians (robust against a stray slow repetition).
    let mut bare = Vec::new();
    let mut instrumented = Vec::new();
    for _ in 0..7 {
        let t0 = std::time::Instant::now();
        black_box(run(false));
        bare.push(t0.elapsed().as_secs_f64());
        let t1 = std::time::Instant::now();
        black_box(run(true));
        instrumented.push(t1.elapsed().as_secs_f64());
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let ratio = median(&mut instrumented) / median(&mut bare);
    println!(
        "telemetry overhead: {:+.2}% (instrumented/bare ratio {ratio:.4})",
        (ratio - 1.0) * 100.0
    );
    assert!(
        ratio < 1.05,
        "telemetry hot path exceeds the 5% overhead budget: ratio {ratio:.4}"
    );
}

/// Guard for the span *tracing* cost: a training run with telemetry
/// plus an attached [`eta_prof::Tracer`] (every span boundary recorded
/// with a timestamp) must stay within 5 % of the same telemetry run
/// with no tracer. The spans are always compiled in; attaching the
/// observer is what turns recording on. On a 2-core x86-64 host the
/// measured ratio spans 1.094–1.345, so this assert fails (see README
/// "Profiling"); no CI job runs it.
fn bench_tracing_overhead(c: &mut Criterion) {
    let cfg = eta_bench::scaled_config(Benchmark::Imdb);
    let task = scaled_task(Benchmark::Imdb);
    let run = |with_tracer: bool| {
        let manifest =
            eta_telemetry::RunManifest::capture("bench", eta_telemetry::config_hash(&SEED), SEED);
        let telemetry = eta_telemetry::Telemetry::new(manifest);
        let tracer = with_tracer.then(|| {
            let tracer = eta_prof::Tracer::new();
            telemetry.set_span_observer(tracer.clone());
            tracer
        });
        let mut trainer = Trainer::new(cfg, TrainingStrategy::CombinedMs, SEED)
            .unwrap()
            .with_telemetry(telemetry.clone());
        let report = trainer.run(&task, 4).unwrap();
        if let Some(tracer) = tracer {
            telemetry.clear_span_observer();
            assert!(tracer.span_count() > 0, "tracer saw no spans");
        }
        report
    };

    let mut group = c.benchmark_group("tracing_overhead_scaled_imdb");
    group.sample_size(10);
    group.bench_function("telemetry_only", |bench| {
        bench.iter(|| black_box(run(false)));
    });
    group.bench_function("telemetry_plus_tracer", |bench| {
        bench.iter(|| black_box(run(true)));
    });
    group.finish();

    // Same interleaved-median scheme as the telemetry guard above.
    let mut bare = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..7 {
        let t0 = std::time::Instant::now();
        black_box(run(false));
        bare.push(t0.elapsed().as_secs_f64());
        let t1 = std::time::Instant::now();
        black_box(run(true));
        traced.push(t1.elapsed().as_secs_f64());
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let ratio = median(&mut traced) / median(&mut bare);
    println!(
        "tracing overhead: {:+.2}% (traced/untraced ratio {ratio:.4})",
        (ratio - 1.0) * 100.0
    );
    assert!(
        ratio < 1.05,
        "span tracing exceeds the 5% overhead budget: ratio {ratio:.4}"
    );
}

/// Data-parallel engine speedup (PR acceptance: ≥2× at 4 threads on a
/// machine that has them). On hosts with fewer than 4 cores the engine
/// still runs — the determinism suite proves the numbers are identical
/// — but there is no concurrency to measure, so the ratio is printed
/// without asserting.
fn bench_parallel_engine(c: &mut Criterion) {
    let cfg = eta_bench::scaled_config(Benchmark::Imdb);
    let task = scaled_task(Benchmark::Imdb);
    let run = |par: Parallelism| {
        let mut trainer = Trainer::new(cfg, TrainingStrategy::Baseline, SEED)
            .unwrap()
            .with_parallelism(par);
        trainer.run(&task, 2).unwrap()
    };

    let mut group = c.benchmark_group("training_step_parallel_scaled_imdb");
    group.sample_size(10);
    group.bench_function("serial", |bench| {
        bench.iter(|| black_box(run(Parallelism::serial())));
    });
    group.bench_function("threads4", |bench| {
        bench.iter(|| black_box(run(Parallelism::with_threads(4))));
    });
    group.finish();

    // Interleaved median comparison, same scheme as the telemetry
    // overhead guard: robust to drift and stray slow repetitions.
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        black_box(run(Parallelism::serial()));
        serial.push(t0.elapsed().as_secs_f64());
        let t1 = std::time::Instant::now();
        black_box(run(Parallelism::with_threads(4)));
        parallel.push(t1.elapsed().as_secs_f64());
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let speedup = median(&mut serial) / median(&mut parallel);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("parallel engine speedup at 4 threads: {speedup:.2}x ({cores} cores available)");
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "data-parallel engine below the 2x target on a {cores}-core host: {speedup:.2}x"
        );
    } else {
        println!("2x speedup assertion skipped: needs >= 4 cores, host has {cores}");
    }
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_scaled_ptb");
    group.sample_size(20);
    let cfg = eta_bench::scaled_config(Benchmark::Ptb);
    let task = scaled_task(Benchmark::Ptb);
    let trainer = Trainer::new(cfg, TrainingStrategy::Baseline, SEED).unwrap();
    let batch = eta_lstm_core::Task::batch(&task, 0, 0);
    group.bench_function("forward_inference", |bench| {
        bench.iter(|| black_box(trainer.model().forward_inference(&batch.inputs).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies,
    bench_telemetry_overhead,
    bench_tracing_overhead,
    bench_parallel_engine,
    bench_inference
);
criterion_main!(benches);
