//! The training workloads.
//!
//! [`Run`] drives the public step API directly —
//! `PanelCache::checkout_with` → `parallel::train_step_sharded_ws` →
//! `LstmModel::apply` — so the benchmark can time and count around
//! each call. Everything between the calls follows `Trainer::run`
//! line for line: MS2's warm-up, α calibration and skip plans, MS3's
//! dynamic loss scaling and skip-on-overflow, panel invalidation after
//! each update, and the memsim frees between iterations. A test pins
//! the losses and final weights to `Trainer::run`'s.

use std::time::Instant;

use eta_lstm_core::layer::Instruments;
use eta_lstm_core::model::StepPlan;
use eta_lstm_core::ms2::{self, GradPredictor, LossHistory};
use eta_lstm_core::optimizer::{Optimizer, Sgd};
use eta_lstm_core::strategy::StrategyParams;
use eta_lstm_core::{
    parallel, Batch, EpochReport, LossKind, LossScaler, LstmConfig, LstmModel, PanelCache,
    Parallelism, Task, TrainingStrategy, WorkspacePool,
};
use eta_memsim::{DataCategory, SharedTracker, SharedTraffic};
use eta_telemetry::{SpanGuard, Telemetry};
use eta_tensor::{ConvStats, ParallelConfig};
use eta_workloads::SyntheticTask;

use crate::alloc::{self, HeapSnapshot};

/// Shape and policy of one training workload.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub strategy: TrainingStrategy,
    pub input: usize,
    pub hidden: usize,
    pub layers: usize,
    pub seq_len: usize,
    pub batch: usize,
    pub classes: usize,
    /// Shard workers; `None` runs the serial, unsharded step.
    pub threads: Option<usize>,
    /// Distinct batches in the generated data set; one epoch is one
    /// pass over them.
    pub batches_per_epoch: usize,
    /// Steps run during set-up, before timing starts.
    pub warmup_steps: usize,
    /// Timed steps every run completes, however long they take.
    pub min_steps: usize,
}

impl TrainSpec {
    fn config(&self) -> LstmConfig {
        LstmConfig::builder()
            .input_size(self.input)
            .hidden_size(self.hidden)
            .layers(self.layers)
            .seq_len(self.seq_len)
            .batch_size(self.batch)
            .output_size(self.classes)
            .build()
            .expect("workload shapes are valid")
    }

    fn parallelism(&self) -> Parallelism {
        self.threads
            .map_or_else(Parallelism::serial, Parallelism::with_threads)
    }

    /// Concurrent shard workers a step can use on this machine.
    pub fn workers(&self) -> usize {
        let par = self.parallelism();
        if !par.is_sharded() {
            return 1;
        }
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        par.threads.min(par.shards).min(avail).max(1)
    }

    /// The generated data set: `batches_per_epoch` batches of the
    /// seeded single-loss classification task.
    pub fn task(&self, seed: u64) -> SyntheticTask {
        SyntheticTask::classification(self.input, self.classes, self.seq_len, seed)
            .with_batch_size(self.batch)
            .with_batches_per_epoch(self.batches_per_epoch)
    }
}

/// A fixed set of batches replayed every epoch, like a finite data set.
pub struct Dataset {
    batches: Vec<Batch>,
    kind: LossKind,
}

impl Dataset {
    /// Generates every batch of `task`'s first epoch.
    pub fn generate(task: &dyn Task) -> Self {
        Dataset {
            batches: (0..task.batches_per_epoch())
                .map(|i| task.batch(0, i))
                .collect(),
            kind: task.loss_kind(),
        }
    }
}

impl Task for Dataset {
    fn batch(&self, _epoch: usize, index: usize) -> Batch {
        self.batches[index].clone()
    }

    fn batches_per_epoch(&self) -> usize {
        self.batches.len()
    }

    fn loss_kind(&self) -> LossKind {
        self.kind
    }
}

/// Measurements of one training step.
#[derive(Debug, Clone, Default)]
pub struct StepSample {
    /// Whole step: checkout, step, apply and the memsim frees.
    pub wall_s: f64,
    pub pack_s: f64,
    pub step_s: f64,
    pub apply_s: f64,
    pub heap: HeapSnapshot,
    pub heap_pack: HeapSnapshot,
    pub heap_step: HeapSnapshot,
    pub heap_apply: HeapSnapshot,
    /// The step returned `Ok` with a finite loss.
    pub ok: bool,
    pub loss: f64,
    pub applied: bool,
    pub reduce_s: f64,
    pub p1_kept: u64,
    pub p1_total: u64,
    pub cells_skipped: usize,
    pub cells_total: usize,
    pub recompute_cells: u64,
    pub conv_events: u64,
    /// Modeled DRAM traffic of the step, bytes.
    pub traffic_bytes: u64,
}

#[derive(Debug, Default)]
struct EpochAcc {
    losses: Vec<f64>,
    density: Vec<f64>,
    skipped: usize,
    total: usize,
    magnitudes: Vec<Vec<f64>>,
    recompute_cells: u64,
    overflow_skips: u64,
    conv: ConvStats,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn span(telemetry: &Option<Telemetry>, name: &'static str) -> Option<SpanGuard> {
    telemetry.as_ref().map(|t| t.span(name))
}

/// A model in training, stepped one batch at a time.
pub struct Run {
    model: LstmModel,
    strategy: TrainingStrategy,
    params: StrategyParams,
    optimizer: Optimizer,
    history: LossHistory,
    predictor: Option<GradPredictor>,
    loss_scaler: LossScaler,
    parallelism: Parallelism,
    panel_cache: PanelCache,
    ws_pool: WorkspacePool,
    data: Dataset,
    telemetry: Option<Telemetry>,
    epoch: usize,
    index: usize,
    plan: StepPlan,
    instruments: Instruments,
    acc: EpochAcc,
    /// One report per completed epoch, as `Trainer::run` builds them.
    pub reports: Vec<EpochReport>,
    /// Loss of every step so far, set-up included.
    pub losses: Vec<f64>,
}

impl Run {
    /// A fresh model (seeded like `Trainer::new`) over `data`, with
    /// the execution policy of `spec`. With `telemetry`, the program's
    /// spans and the benchmark's own spans are opened on it.
    pub fn new(spec: &TrainSpec, seed: u64, data: Dataset, telemetry: Option<Telemetry>) -> Self {
        let params = StrategyParams::default();
        Run {
            model: LstmModel::new(&spec.config(), seed),
            strategy: spec.strategy,
            loss_scaler: LossScaler::new(&params.ms3),
            params,
            optimizer: Optimizer::sgd(Sgd::default()),
            history: LossHistory::new(),
            predictor: None,
            parallelism: spec.parallelism(),
            panel_cache: PanelCache::new(),
            ws_pool: WorkspacePool::new(),
            data,
            telemetry,
            epoch: 0,
            index: 0,
            plan: StepPlan::baseline(),
            instruments: Instruments::new(),
            acc: EpochAcc::default(),
            reports: Vec::new(),
            losses: Vec::new(),
        }
    }

    /// The model being trained.
    #[cfg(test)]
    pub fn model(&self) -> &LstmModel {
        &self.model
    }

    /// Workspace high-water over all shard workers, bytes.
    pub fn workspace_high_water(&self) -> u64 {
        self.ws_pool.high_water_bytes()
    }

    /// Modeled peak footprint (bytes) of the epoch in progress, as
    /// `EpochReport::peak_footprint` counts it.
    pub fn current_peak_footprint(&self) -> u64 {
        self.instruments.mem.snapshot().peak_total() + self.model.param_bytes() * 2
    }

    /// `Trainer::plan_for_epoch`.
    fn plan_for_epoch(&self) -> StepPlan {
        let ms1 = self.strategy.uses_ms1().then_some(self.params.ms1);
        let skip = if self.strategy.uses_ms2() && self.epoch >= ms2::WARMUP_EPOCHS {
            match (self.predictor, self.history.predict_next()) {
                (Some(pred), Some(predicted_loss)) => {
                    let cfg = self.model.config();
                    Some(ms2::plan_skips(
                        &pred,
                        predicted_loss,
                        cfg.layers,
                        cfg.seq_len,
                        &self.params.ms2,
                    ))
                }
                _ => None,
            }
        } else {
            None
        };
        let kernel = if self.parallelism.is_sharded() {
            ParallelConfig::serial()
        } else {
            self.parallelism.kernel
        };
        StepPlan {
            ms1,
            skip,
            ms3: self.strategy.uses_ms3().then_some(self.params.ms3),
            loss_scale: 1.0,
            kernel,
        }
    }

    fn begin_epoch(&mut self) {
        self.plan = self.plan_for_epoch();
        self.instruments = Instruments {
            mem: SharedTracker::new(),
            traffic: SharedTraffic::new(),
            telemetry: self.telemetry.clone(),
        };
        self.acc = EpochAcc::default();
    }

    fn end_epoch(&mut self) {
        let acc = std::mem::take(&mut self.acc);
        let mean_loss = mean(&acc.losses);
        self.history.push(mean_loss);
        if self.epoch == 0 && self.strategy.uses_ms2() {
            let beta = GradPredictor::beta_for(self.data.loss_kind());
            self.predictor = Some(GradPredictor::calibrate(&acc.magnitudes, mean_loss, beta));
        }
        let mem = self.instruments.mem.snapshot();
        let traffic = self.instruments.traffic.snapshot();
        self.reports.push(EpochReport {
            mean_loss,
            p1_density: if acc.density.is_empty() {
                1.0
            } else {
                mean(&acc.density)
            },
            skip_fraction: if acc.total == 0 {
                0.0
            } else {
                acc.skipped as f64 / acc.total as f64
            },
            peak_footprint: mem.peak_total() + self.model.param_bytes() * 2,
            peak_intermediates: mem.peak(DataCategory::Intermediates),
            traffic: [
                traffic.total(DataCategory::Weights),
                traffic.total(DataCategory::Activations),
                traffic.total(DataCategory::Intermediates),
            ],
            ms3_recompute_cells: acc.recompute_cells,
            ms3_overflow_skips: acc.overflow_skips,
            ms3_loss_scale: if self.strategy.uses_ms3() {
                self.loss_scaler.scale()
            } else {
                1.0
            },
        });
        self.epoch += 1;
    }

    fn traffic_total(&self) -> u64 {
        let t = self.instruments.traffic.snapshot();
        t.total(DataCategory::Weights)
            + t.total(DataCategory::Activations)
            + t.total(DataCategory::Intermediates)
    }

    /// Trains on the next batch: `Trainer::run`'s per-batch body, timed
    /// and counted around each public call.
    pub fn step(&mut self) -> StepSample {
        if self.index == 0 {
            self.begin_epoch();
        }
        let mut s = StepSample::default();
        let traffic_before = self.traffic_total();
        let heap0 = alloc::snapshot();
        let t0 = Instant::now();
        let root = span(&self.telemetry, "bench.step");

        let call = span(&self.telemetry, "bench.checkout_with");
        let (h, t) = (alloc::snapshot(), Instant::now());
        let panels = self
            .panel_cache
            .checkout_with(&self.model, &self.plan.kernel);
        s.pack_s = t.elapsed().as_secs_f64();
        s.heap_pack = alloc::snapshot().since(&h);
        drop(call);

        let mut step_plan = self.plan.clone();
        let ms3_active = self.strategy.uses_ms3();
        if ms3_active {
            step_plan.loss_scale = self.loss_scaler.scale();
        }
        let batch = &self.data.batches[self.index];
        let call = span(&self.telemetry, "bench.train_step_sharded_ws");
        let (h, t) = (alloc::snapshot(), Instant::now());
        let result = parallel::train_step_sharded_ws(
            &self.model,
            &batch.inputs,
            &batch.targets,
            &step_plan,
            &self.instruments,
            &self.parallelism,
            Some(panels),
            &mut self.ws_pool,
        );
        s.step_s = t.elapsed().as_secs_f64();
        s.heap_step = alloc::snapshot().since(&h);
        drop(call);

        if let Ok(result) = result {
            s.loss = result.loss;
            s.ok = result.loss.is_finite();
            self.acc.losses.push(result.loss);
            if result.p1_stats.total > 0 {
                self.acc
                    .density
                    .push(result.p1_stats.kept as f64 / result.p1_stats.total as f64);
            }
            self.acc.skipped += result.cells_skipped;
            self.acc.total += result.cells_total;
            if self.epoch == 0 {
                if self.acc.magnitudes.is_empty() {
                    self.acc.magnitudes = result.magnitudes.clone();
                } else {
                    for (acc, row) in self.acc.magnitudes.iter_mut().zip(&result.magnitudes) {
                        for (a, &m) in acc.iter_mut().zip(row) {
                            *a += m;
                        }
                    }
                }
            }
            self.acc.recompute_cells += result.ms3_recompute_cells;
            self.acc.conv.merge(&result.ms3_conv);
            s.reduce_s = result.reduce_seconds;
            s.p1_kept = result.p1_stats.kept;
            s.p1_total = result.p1_stats.total;
            s.cells_skipped = result.cells_skipped;
            s.cells_total = result.cells_total;
            s.recompute_cells = result.ms3_recompute_cells;
            s.conv_events = result.ms3_conv.overflows + result.ms3_conv.underflows;
            s.applied = if ms3_active {
                let ok = self.loss_scaler.on_step(result.ms3_overflow);
                if !ok {
                    self.acc.overflow_skips += 1;
                }
                ok
            } else {
                true
            };
            if s.applied {
                let call = span(&self.telemetry, "bench.apply");
                let (h, t) = (alloc::snapshot(), Instant::now());
                let applied = self.model.apply(&mut self.optimizer, &result.grads);
                s.apply_s = t.elapsed().as_secs_f64();
                s.heap_apply = alloc::snapshot().since(&h);
                drop(call);
                s.ok &= applied.is_ok();
                self.panel_cache.invalidate();
            }
        }
        self.losses.push(s.loss);

        let snap = self.instruments.mem.snapshot();
        for cat in [
            DataCategory::Weights,
            DataCategory::Activations,
            DataCategory::Intermediates,
        ] {
            self.instruments.mem.free(cat, snap.live(cat));
        }
        drop(root);
        s.wall_s = t0.elapsed().as_secs_f64();
        s.heap = alloc::snapshot().since(&heap0);
        s.traffic_bytes = self.traffic_total() - traffic_before;

        self.index += 1;
        if self.index == self.data.batches.len() {
            self.end_epoch();
            self.index = 0;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_lstm_core::Trainer;

    fn spec(strategy: TrainingStrategy, threads: Option<usize>) -> TrainSpec {
        TrainSpec {
            strategy,
            input: 12,
            hidden: 16,
            layers: 2,
            seq_len: 24,
            batch: 8,
            classes: 4,
            threads,
            batches_per_epoch: 2,
            warmup_steps: 0,
            min_steps: 0,
        }
    }

    /// The benchmark loop is `Trainer::run`: same epoch losses, skip
    /// fractions, MS3 counters and final weights, bit for bit.
    #[test]
    fn run_matches_trainer_run_bitwise() {
        for (strategy, threads) in [
            (TrainingStrategy::CombinedAll, None),
            (TrainingStrategy::Baseline, Some(2)),
        ] {
            let spec = spec(strategy, threads);
            let seed = 5;
            let epochs = 6;
            let data = Dataset::generate(&spec.task(seed));
            let mut trainer = Trainer::new(spec.config(), strategy, seed)
                .unwrap()
                .with_parallelism(spec.parallelism());
            let expected = trainer.run(&data, epochs).unwrap();

            let mut run = Run::new(&spec, seed, Dataset::generate(&spec.task(seed)), None);
            for _ in 0..epochs * spec.batches_per_epoch {
                assert!(run.step().ok);
            }
            assert_eq!(run.reports.len(), epochs);
            for (got, want) in run.reports.iter().zip(&expected.epochs) {
                assert_eq!(got.mean_loss.to_bits(), want.mean_loss.to_bits());
                assert_eq!(got.skip_fraction.to_bits(), want.skip_fraction.to_bits());
                assert_eq!(got.p1_density.to_bits(), want.p1_density.to_bits());
                assert_eq!(got.ms3_recompute_cells, want.ms3_recompute_cells);
                assert_eq!(got.ms3_loss_scale.to_bits(), want.ms3_loss_scale.to_bits());
                if threads.is_none() {
                    assert_eq!(got.peak_footprint, want.peak_footprint);
                    assert_eq!(got.traffic, want.traffic);
                }
            }
            if strategy.uses_ms2() {
                assert!(expected.epochs[ms2::WARMUP_EPOCHS].skip_fraction > 0.0);
            }
            let got = eta_lstm_core::persist::to_json(run.model()).unwrap();
            let want = eta_lstm_core::persist::to_json(trainer.model()).unwrap();
            assert!(got == want, "final weights differ");
        }
    }

    /// The fixed-shard determinism contract at a `train_dense`-style
    /// shape: 4 shards give the same bits on 2 threads as on 1.
    #[test]
    fn two_threads_match_one_thread_bitwise() {
        let runs: Vec<(Vec<u64>, String)> = [1, 2]
            .into_iter()
            .map(|threads| {
                let spec = spec(TrainingStrategy::Baseline, Some(threads));
                let mut run = Run::new(&spec, 9, Dataset::generate(&spec.task(9)), None);
                let losses = (0..3).map(|_| run.step().loss.to_bits()).collect();
                (
                    losses,
                    eta_lstm_core::persist::to_json(run.model()).unwrap(),
                )
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0);
        assert!(
            runs[0].1 == runs[1].1,
            "weights differ between 1 and 2 threads"
        );
    }
}
