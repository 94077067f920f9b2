//! The three workloads: set-up, timed windows, correctness checks and
//! the metrics they report.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eta_lstm_core::{ms2, TrainingStrategy};
use eta_prof::Tracer;
use eta_telemetry::{RunManifest, Telemetry};
use eta_tensor::stats::{self, DispatchSnapshot, GemmSnapshot};

use crate::alloc;
use crate::metrics::{mb, median, percentile, ratio, Outcome};
use crate::spans::{self, NameTotals};
use crate::stream::{self, CallSample, Caller, Stream, StreamSpec};
use crate::train::{Dataset, Run, StepSample, TrainSpec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Upper bound on recorded trace events, well above what a traced
/// window emits.
const MAX_TRACE_EVENTS: usize = 1 << 21;

/// A named workload.
#[derive(Debug, Clone)]
pub enum Workload {
    Train(TrainSpec, LossBand),
    Stream(StreamSpec),
}

/// The across-seed spread of a training workload's check loss: the
/// mean loss of the data set's batches over the last epoch that ends at
/// or before step `warmup_steps + min_steps`. Each band is the range
/// of seeds 1–10, widened by that range on both sides.
#[derive(Debug, Clone, Copy)]
pub struct LossBand {
    pub lo: f64,
    pub hi: f64,
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "train_dense" => Some(Workload::Train(
            TrainSpec {
                strategy: TrainingStrategy::Baseline,
                input: 512,
                hidden: 512,
                layers: 2,
                seq_len: 35,
                batch: 64,
                classes: 10,
                threads: Some(2),
                batches_per_epoch: 2,
                warmup_steps: 1,
                min_steps: 5,
            },
            // Seeds 1–10: 2.085739 ..= 2.138594.
            LossBand {
                lo: 2.032884,
                hi: 2.191449,
            },
        )),
        "train_memsave" => Some(Workload::Train(
            TrainSpec {
                strategy: TrainingStrategy::CombinedAll,
                input: 128,
                hidden: 128,
                layers: 3,
                seq_len: 100,
                batch: 16,
                classes: 2,
                threads: None,
                batches_per_epoch: 2,
                warmup_steps: ms2::WARMUP_EPOCHS * 2,
                min_steps: 16,
            },
            // Seeds 1–10: 0.008921 ..= 0.011580.
            LossBand {
                lo: 0.006262,
                hi: 0.014239,
            },
        )),
        "stream_infer" => Some(Workload::Stream(StreamSpec {
            input: 512,
            hidden: 512,
            layers: 2,
            batch: 4,
            classes: 10,
            seq_len: 35,
            sequences: 4,
            min_steps: 200,
        })),
        _ => None,
    }
}

/// Where traced runs write their span files.
fn trace_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn telemetry(seed: u64) -> Telemetry {
    Telemetry::new(RunManifest {
        binary: "eta-perfbench".to_string(),
        config_hash: String::new(),
        seed,
        git_describe: "unknown".to_string(),
        started_unix_ms: 0,
    })
}

/// Process-global counters at one instant.
#[derive(Clone, Copy)]
struct Counters {
    gemm: GemmSnapshot,
    dispatch: DispatchSnapshot,
    at: Instant,
}

impl Counters {
    fn now() -> Self {
        Counters {
            gemm: stats::snapshot(),
            dispatch: stats::dispatch_snapshot(),
            at: Instant::now(),
        }
    }
}

/// One timed window: its samples, the counter deltas and the live-heap
/// high-water over it.
struct Window<S> {
    samples: Vec<S>,
    wall_s: f64,
    gemm: GemmSnapshot,
    dispatch: DispatchSnapshot,
    peak_heap: u64,
}

/// Runs `op` until `seconds` have passed and at least `min` samples
/// are in.
fn window<S>(seconds: f64, min: usize, mut op: impl FnMut() -> S) -> Window<S> {
    alloc::reset_peak();
    let c0 = Counters::now();
    let mut samples = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    while samples.len() < min.max(1) || c0.at.elapsed() < budget {
        samples.push(op());
    }
    let c1 = Counters::now();
    Window {
        samples,
        wall_s: (c1.at - c0.at).as_secs_f64(),
        gemm: c1.gemm.since(&c0.gemm),
        dispatch: c1.dispatch.since(&c0.dispatch),
        peak_heap: alloc::peak_bytes(),
    }
}

/// Runs `op` in a window with `tracer` attached to `telemetry`, writes
/// the span file and returns the window with per-name span totals.
fn traced_window<S>(
    telemetry: &Telemetry,
    file: &str,
    seconds: f64,
    min: usize,
    op: impl FnMut() -> S,
    out: &mut Outcome,
) -> (Window<S>, BTreeMap<&'static str, NameTotals>) {
    let tracer = Tracer::with_limit(MAX_TRACE_EVENTS);
    telemetry.set_span_observer(tracer.clone() as Arc<_>);
    let w = window(seconds, min, op);
    telemetry.clear_span_observer();
    let events = tracer.events();
    let path = trace_dir().join(file);
    let written = std::fs::create_dir_all(trace_dir())
        .and_then(|()| std::fs::write(&path, eta_prof::chrome::export(&events)));
    out.check(
        written.is_ok() && tracer.dropped_spans() == 0,
        format!(
            "span file {} ({} spans, {} dropped)",
            path.display(),
            tracer.span_count(),
            tracer.dropped_spans()
        ),
    );
    (w, spans::by_name(&spans::build(&events)))
}

fn sum<S>(xs: &[S], f: impl Fn(&S) -> f64) -> f64 {
    xs.iter().map(f).sum()
}

/// Span totals per traced step, in milliseconds.
struct PerStep<'a> {
    totals: &'a BTreeMap<&'static str, NameTotals>,
    steps: f64,
}

impl PerStep<'_> {
    fn get(&self, name: &str) -> NameTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }
    fn self_ms(&self, name: &str) -> f64 {
        ratio(self.get(name).self_us as f64 / 1e3, self.steps)
    }
    fn total_ms(&self, name: &str) -> f64 {
        ratio(self.get(name).total_us as f64 / 1e3, self.steps)
    }
}

/// Runs the workload and fills in its metrics: the end-to-end ones
/// untraced, or the per-layer ones from a run whose second half is
/// traced.
pub fn run(name: &str, w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let file = format!("{name}-seed{seed}.trace.json");
    match w {
        Workload::Train(spec, band) => train(spec, *band, seed, seconds, trace, &file, &mut out),
        Workload::Stream(spec) => infer(spec, seed, seconds, trace, &file, &mut out),
    }
    out
}

fn count_failures<S>(out: &mut Outcome, samples: &[S], ok: impl Fn(&S) -> bool) {
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !ok(s)).count() as u64;
}

fn set_gemm(out: &mut Outcome, win: &Window<impl Sized>, n: f64) {
    out.set(
        "tensor.gemm_gflop_per_step",
        win.gemm.flops as f64 / 1e9 / n,
    );
    out.set("tensor.gemm_calls_per_step", win.gemm.calls as f64 / n);
    out.set("tensor.gemm_bytes_per_step", win.gemm.bytes as f64 / n);
    out.set(
        "tensor.gemm_gflops",
        ratio(win.gemm.flops as f64 / 1e9, win.wall_s),
    );
    let (simd, scalar) = (win.dispatch.simd as f64, win.dispatch.scalar as f64);
    out.set("tensor.simd_frac", ratio(simd, simd + scalar));
    out.set("tensor.simd_calls_per_step", simd / n);
    out.set("tensor.scalar_calls_per_step", scalar / n);
}

fn train(
    spec: &TrainSpec,
    band: LossBand,
    seed: u64,
    seconds: f64,
    trace: bool,
    file: &str,
    out: &mut Outcome,
) {
    let tel = trace.then(|| telemetry(seed));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut run = None;
    let mut warm_ok = true;
    for _ in 0..SETUP_REPS {
        drop(run.take());
        let t = Instant::now();
        let mut r = Run::new(spec, seed, Dataset::generate(&spec.task(seed)), tel.clone());
        for _ in 0..spec.warmup_steps {
            warm_ok &= r.step().ok;
        }
        setups.push(t.elapsed().as_secs_f64());
        run = Some(r);
    }
    let mut run = run.expect("at least one set-up");
    out.check(
        warm_ok,
        format!("{} warm-up steps finite", spec.warmup_steps),
    );

    let reports_before = run.reports.len();
    let seconds_1 = if trace { seconds / 2.0 } else { seconds };
    let w1 = window(seconds_1, spec.min_steps, || run.step());
    count_failures(out, &w1.samples, |s| s.ok);
    let peak_footprint = run.reports[reports_before..]
        .iter()
        .map(|r| r.peak_footprint)
        .chain([run.current_peak_footprint()])
        .max()
        .unwrap_or(0);

    // Loss checks: they read the steps' losses, which the fixed shard
    // count makes independent of timing and thread count.
    let bpe = spec.batches_per_epoch;
    let losses = &run.losses;
    let first = losses[..bpe].iter().sum::<f64>() / bpe as f64;
    let last = losses[losses.len() - bpe..].iter().sum::<f64>() / bpe as f64;
    out.check(
        last < first,
        format!("loss falls: first epoch {first:.6} -> last {bpe} steps {last:.6}"),
    );
    let end = (spec.warmup_steps + spec.min_steps) / bpe * bpe;
    let check = losses[end - bpe..end].iter().sum::<f64>() / bpe as f64;
    out.check(
        (band.lo..=band.hi).contains(&check),
        format!(
            "loss over steps {}..{end} = {check:.6} within the across-seed band [{}, {}]",
            end - bpe,
            band.lo,
            band.hi
        ),
    );

    let n1 = w1.samples.len() as f64;
    let walls: Vec<f64> = w1.samples.iter().map(|s| s.wall_s * 1e3).collect();
    out.notes.push(format!(
        "{} timed steps in {:.3} s; too few for a tail percentile with 10 samples beyond it",
        w1.samples.len(),
        w1.wall_s
    ));
    if !trace {
        out.set("setup_s", median(&setups));
        out.set("samples_per_s", n1 * spec.batch as f64 / w1.wall_s);
        out.set("step_ms_p50", median(&walls));
        out.set("step_ms_p90", percentile(&walls, 90.0));
        out.set("peak_heap_mb", mb(w1.peak_heap as f64));
        return;
    }

    let tel = tel.expect("traced runs carry telemetry");
    let (w2, totals) = traced_window(&tel, file, seconds / 2.0, 2, || run.step(), out);
    count_failures(out, &w2.samples, |s| s.ok);
    let s = &w1.samples;
    let per = PerStep {
        totals: &totals,
        steps: w2.samples.len() as f64,
    };
    set_gemm(out, &w1, n1);
    out.set(
        "core.workspace.pack_ms_per_step",
        sum(s, |x| x.pack_s) * 1e3 / n1,
    );
    out.set(
        "core.workspace.high_water_mb",
        mb(run.workspace_high_water() as f64),
    );
    out.set("core.layer.fw_ms_per_step", per.self_ms("layer_fw"));
    out.set("core.layer.bp_ms_per_step", per.self_ms("layer_bp"));
    out.set("core.layer.bp_ew_ms_per_step", per.self_ms("bp_ew"));
    out.set(
        "core.layer.bp_over_fw",
        ratio(per.total_ms("layer_bp"), per.total_ms("layer_fw")),
    );
    out.set("core.cell.fw_ms_per_step", per.self_ms("fw_cell"));
    out.set("core.cell.bp_ms_per_step", per.self_ms("bp_cell"));
    out.set(
        "core.ms3.recompute_ms_per_step",
        per.total_ms("ms3_recompute"),
    );
    out.set(
        "core.model.step_self_ms",
        per.self_ms("step") + per.self_ms("shard"),
    );
    out.set("core.parallel.step_ms", sum(s, |x| x.step_s) * 1e3 / n1);
    out.set(
        "core.parallel.reduce_ms_per_step",
        sum(s, |x| x.reduce_s) * 1e3 / n1,
    );
    let call = per.get("bench.train_step_sharded_ws").total_us as f64;
    let shard = per.get("shard").total_us as f64;
    let capacity = spec.workers() as f64 * call;
    out.set(
        "core.parallel.shard_idle_frac",
        if shard == 0.0 {
            0.0
        } else {
            ratio(capacity - shard, capacity)
        },
    );
    out.set(
        "core.optimizer.apply_ms_per_step",
        sum(s, |x| x.apply_s) * 1e3 / n1,
    );
    let (kept, total) = (sum(s, |x| x.p1_kept as f64), sum(s, |x| x.p1_total as f64));
    out.set(
        "core.ms1.p1_density",
        if total == 0.0 { 1.0 } else { kept / total },
    );
    out.set(
        "core.ms2.skip_frac",
        ratio(
            sum(s, |x| x.cells_skipped as f64),
            sum(s, |x| x.cells_total as f64),
        ),
    );
    out.set(
        "core.ms3.recompute_cells_per_step",
        sum(s, |x| x.recompute_cells as f64) / n1,
    );
    out.set(
        "core.ms3.conv_events_per_step",
        sum(s, |x| x.conv_events as f64) / n1,
    );
    out.set(
        "core.ms3.applied_frac",
        sum(s, |x| f64::from(u8::from(x.applied))) / n1,
    );
    out.set("core.inference.step_ms_p99", 0.0);
    out.set("memsim.peak_footprint_mb", mb(peak_footprint as f64));
    out.set(
        "memsim.traffic_mb_per_step",
        mb(sum(s, |x| x.traffic_bytes as f64)) / n1,
    );
    out.set(
        "memsim.modeled_over_measured",
        ratio(peak_footprint as f64, w1.peak_heap as f64),
    );
    set_heap(out, s, n1);
    let traced: Vec<f64> = w2.samples.iter().map(|s| s.wall_s * 1e3).collect();
    set_prof(out, &per, "bench.step", median(&traced), median(&walls));
    out.set("bench.timed_steps", n1);
}

fn set_heap(out: &mut Outcome, s: &[StepSample], n: f64) {
    out.set("heap.allocs_per_step", sum(s, |x| x.heap.allocs as f64) / n);
    out.set(
        "heap.alloc_mb_per_step",
        mb(sum(s, |x| x.heap.bytes as f64)) / n,
    );
    out.set(
        "heap.allocs_per_call.step",
        sum(s, |x| x.heap_step.allocs as f64) / n,
    );
    out.set(
        "heap.allocs_per_call.apply",
        sum(s, |x| x.heap_apply.allocs as f64) / n,
    );
    out.set(
        "heap.allocs_per_call.pack",
        sum(s, |x| x.heap_pack.allocs as f64) / n,
    );
}

fn set_prof(out: &mut Outcome, per: &PerStep, root: &str, traced_ms: f64, untraced_ms: f64) {
    out.set(
        "prof.tracing_overhead_frac",
        ratio(traced_ms, untraced_ms) - 1.0,
    );
    let r = per.get(root);
    out.set(
        "prof.attributed_frac",
        1.0 - ratio(r.self_us as f64, r.total_us as f64),
    );
    out.set(
        "bench.failed_ops_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
}

fn infer(spec: &StreamSpec, seed: u64, seconds: f64, trace: bool, file: &str, out: &mut Outcome) {
    let tel = trace.then(|| telemetry(seed));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut stream = None;
    for _ in 0..SETUP_REPS {
        drop(stream.take());
        let t = Instant::now();
        let s = Stream::new(spec, seed);
        // Warm-up: one whole sequence through a throwaway session.
        let mut warm = Caller::new(&s, 0, None);
        for _ in 0..spec.seq_len {
            warm.call();
        }
        drop(warm);
        setups.push(t.elapsed().as_secs_f64());
        stream = Some(s);
    }
    let stream = stream.expect("at least one set-up");
    let mut caller = Caller::new(&stream, spec.seq_len, tel.clone());

    let seconds_1 = if trace { seconds / 2.0 } else { seconds };
    let w1 = window(seconds_1, spec.min_steps, || caller.call());
    count_failures(out, &w1.samples, |s| s.ok);
    match stream::max_rel_diff(&stream.model, caller.first_sequence(), &caller.kept) {
        Some(diff) => out.check(
            diff <= 1e-6,
            format!("first sequence matches forward_inference (max rel diff {diff:.3e} <= 1e-6)"),
        ),
        None => out.check(false, "first sequence has no reference output".to_string()),
    }
    let n1 = w1.samples.len() as f64;
    let lat: Vec<f64> = w1.samples.iter().map(|s| s.wall_s * 1e3).collect();
    out.notes.push(format!(
        "{} timed calls in {:.3} s",
        w1.samples.len(),
        w1.wall_s
    ));
    if !trace {
        out.set("setup_s", median(&setups));
        out.set("samples_per_s", n1 * spec.batch as f64 / w1.wall_s);
        out.set("step_ms_p50", median(&lat));
        out.set("step_ms_p90", percentile(&lat, 90.0));
        out.set("peak_heap_mb", mb(w1.peak_heap as f64));
        return;
    }

    let tel = tel.expect("traced runs carry telemetry");
    caller.restart(0);
    let (w2, totals) = traced_window(&tel, file, seconds / 2.0, 2, || caller.call(), out);
    count_failures(out, &w2.samples, |s: &CallSample| s.ok);
    let per = PerStep {
        totals: &totals,
        steps: w2.samples.len() as f64,
    };
    set_gemm(out, &w1, n1);
    for name in [
        "core.workspace.pack_ms_per_step",
        "core.workspace.high_water_mb",
        "core.layer.fw_ms_per_step",
        "core.layer.bp_ms_per_step",
        "core.layer.bp_ew_ms_per_step",
        "core.layer.bp_over_fw",
        "core.cell.fw_ms_per_step",
        "core.cell.bp_ms_per_step",
        "core.ms3.recompute_ms_per_step",
        "core.model.step_self_ms",
        "core.parallel.step_ms",
        "core.parallel.reduce_ms_per_step",
        "core.parallel.shard_idle_frac",
        "core.optimizer.apply_ms_per_step",
        "core.ms2.skip_frac",
        "core.ms3.recompute_cells_per_step",
        "core.ms3.conv_events_per_step",
        "memsim.peak_footprint_mb",
        "memsim.traffic_mb_per_step",
        "memsim.modeled_over_measured",
        "heap.allocs_per_call.apply",
        "heap.allocs_per_call.pack",
    ] {
        out.set(name, 0.0);
    }
    out.set("core.ms1.p1_density", 1.0);
    out.set("core.ms3.applied_frac", 1.0);
    out.set("core.inference.step_ms_p99", percentile(&lat, 99.0));
    let s = &w1.samples;
    out.set(
        "heap.allocs_per_step",
        sum(s, |x| x.heap.allocs as f64) / n1,
    );
    out.set(
        "heap.alloc_mb_per_step",
        mb(sum(s, |x| x.heap.bytes as f64)) / n1,
    );
    out.set(
        "heap.allocs_per_call.step",
        sum(s, |x| x.heap.allocs as f64) / n1,
    );
    let traced: Vec<f64> = w2.samples.iter().map(|s| s.wall_s * 1e3).collect();
    set_prof(
        out,
        &per,
        "bench.stream_step",
        median(&traced),
        median(&lat),
    );
    out.set("bench.timed_steps", n1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, END_TO_END, PER_LAYER};

    fn small(name: &str) -> Workload {
        match workload(name).expect("known workload") {
            Workload::Train(spec, _) => Workload::Train(
                TrainSpec {
                    input: 8,
                    hidden: 12,
                    seq_len: 12,
                    batch: 8,
                    min_steps: 2,
                    ..spec
                },
                LossBand { lo: 0.0, hi: 10.0 },
            ),
            Workload::Stream(spec) => Workload::Stream(StreamSpec {
                input: 8,
                hidden: 12,
                min_steps: 4,
                ..spec
            }),
        }
    }

    /// Every workload, at a small shape, measures every metric in both
    /// modes, so the one command can print each with its unit.
    #[test]
    fn every_workload_reports_every_metric() {
        for name in ["train_dense", "train_memsave", "stream_infer"] {
            for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let out = run(&format!("test-{name}"), &small(name), 7, 0.01, trace);
                assert!(out.correct, "{name} trace={trace}: {:?}", out.notes);
                assert!(out.attempted > 0 && out.failed == 0);
                if let Err(e) = result_line(&out, defs) {
                    panic!("{name} trace={trace}: {e}");
                }
            }
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(workload("train").is_none());
    }
}
