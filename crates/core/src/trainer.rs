//! The training driver: epochs, MS2 calibration/prediction state,
//! optimizer application, and per-epoch instrumentation reports.
//!
//! The MS2 lifecycle follows the paper exactly:
//!
//! 1. **Epochs 0–2 (warm-up)**: every BP cell runs. Epoch 0's measured
//!    per-cell gradient magnitudes calibrate the Eq. 4 α.
//! 2. **Epoch ≥ 3**: Eq. 5 predicts the epoch's loss from the previous
//!    three; Eq. 4 predicts each BP cell's gradient magnitude *before the
//!    forward pass*; insignificant cells are skipped and the survivors'
//!    gradients scaled.

use crate::config::LstmConfig;
use crate::layer::Instruments;
use crate::loss::{LossKind, Targets};
use crate::model::{LstmModel, StepPlan};
use crate::ms2::{self, GradPredictor, LossHistory};
use crate::ms3::LossScaler;
use crate::optimizer::{Optimizer, Sgd};
use crate::parallel::{self, Parallelism};
use crate::strategy::{StrategyParams, TrainingStrategy};
use crate::workspace::{PanelCache, WorkspacePool};
use crate::Result;
use eta_memsim::{DataCategory, MemoryTracker, TrafficCounter};
use eta_tensor::{Matrix, ParallelConfig};
use serde::{Deserialize, Serialize};

/// One batch of training data.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Input sequence: one `[batch, input]` matrix per timestep.
    pub inputs: Vec<Matrix>,
    /// Targets matching the task's loss structure.
    pub targets: Targets,
}

/// A deterministic source of training batches.
///
/// Implementations produce the same batch for the same `(epoch, index)`
/// pair, which keeps every experiment in the harness reproducible.
pub trait Task {
    /// The batch at position `index` of `epoch`.
    fn batch(&self, epoch: usize, index: usize) -> Batch;
    /// Batches per epoch.
    fn batches_per_epoch(&self) -> usize;
    /// The loss structure of this task.
    fn loss_kind(&self) -> LossKind;
}

/// Measurements of one epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    /// Mean training loss over the epoch.
    pub mean_loss: f64,
    /// Mean MS1 post-pruning density of the P1 streams (1.0 when MS1 is
    /// off or nothing was compressed).
    pub p1_density: f64,
    /// Fraction of BP cells skipped by MS2.
    pub skip_fraction: f64,
    /// Peak memory footprint of the epoch (bytes).
    pub peak_footprint: u64,
    /// Peak intermediate-variable footprint (bytes).
    pub peak_intermediates: u64,
    /// DRAM traffic of the epoch, per category (bytes):
    /// `[weights, activations, intermediates]`.
    pub traffic: [u64; 3],
    /// MS3: cells recomputed from checkpoints during the epoch's
    /// backward passes (0 without MS3).
    pub ms3_recompute_cells: u64,
    /// MS3: optimizer steps skipped this epoch because the loss-scaled
    /// backward overflowed.
    pub ms3_overflow_skips: u64,
    /// MS3: the dynamic loss scale after the epoch (1.0 without MS3).
    pub ms3_loss_scale: f32,
}

/// Aggregated training run result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Strategy that produced this report.
    pub strategy: TrainingStrategy,
    /// One report per epoch.
    pub epochs: Vec<EpochReport>,
    /// Per-cell gradient magnitudes of the **first** epoch,
    /// `[layer][t]` — the raw data behind paper Fig. 8.
    pub first_epoch_magnitudes: Vec<Vec<f64>>,
}

impl TrainingReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map(|e| e.mean_loss).unwrap_or(f64::NAN)
    }

    /// Largest peak footprint across epochs.
    pub fn peak_footprint(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.peak_footprint)
            .max()
            .unwrap_or(0)
    }

    /// Mean measured P1 density across post-warm-up epochs.
    pub fn mean_p1_density(&self) -> f64 {
        mean(self.epochs.iter().map(|e| e.p1_density))
    }

    /// Mean measured skip fraction across epochs where skipping was
    /// active (zero if it never activated).
    pub fn mean_skip_fraction(&self) -> f64 {
        let active: Vec<f64> = self
            .epochs
            .iter()
            .map(|e| e.skip_fraction)
            .filter(|&s| s > 0.0)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            mean(active.into_iter())
        }
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Drives training of an [`LstmModel`] under a [`TrainingStrategy`].
#[derive(Debug)]
pub struct Trainer {
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
    telemetry: Option<eta_telemetry::Telemetry>,
}

impl Trainer {
    /// Builds a trainer with default optimization parameters.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`LstmConfig`]; returns
    /// `Result` for forward compatibility with configurable optimizers.
    pub fn new(config: LstmConfig, strategy: TrainingStrategy, seed: u64) -> Result<Self> {
        let params = StrategyParams::default();
        Ok(Trainer {
            model: LstmModel::new(&config, seed),
            strategy,
            loss_scaler: LossScaler::new(&params.ms3),
            params,
            optimizer: Optimizer::sgd(Sgd::default()),
            history: LossHistory::new(),
            predictor: None,
            parallelism: Parallelism::serial(),
            panel_cache: PanelCache::new(),
            ws_pool: WorkspacePool::new(),
            telemetry: None,
        })
    }

    /// Attaches a telemetry pipeline: epochs and batches become spans,
    /// and per-epoch loss/density/skip/footprint land in the metric
    /// registry (see the README's Observability section for names).
    pub fn with_telemetry(mut self, telemetry: eta_telemetry::Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Overrides the strategy knobs (thresholds), resetting the MS3
    /// loss scaler to the new configuration.
    pub fn with_params(mut self, params: StrategyParams) -> Self {
        self.loss_scaler = LossScaler::new(&params.ms3);
        self.params = params;
        self
    }

    /// Sets the data-parallel execution policy. The shard count fixes
    /// the numerics; the thread count only sets concurrency, so the
    /// loss trajectory is bit-identical at any `threads` (the
    /// determinism contract in `crates/core/src/parallel.rs`).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The current execution policy.
    pub fn parallelism(&self) -> &Parallelism {
        &self.parallelism
    }

    /// Overrides the optimizer with plain SGD settings.
    pub fn with_optimizer(mut self, sgd: Sgd) -> Self {
        self.optimizer = Optimizer::sgd(sgd);
        self
    }

    /// Overrides the optimizer with any [`Optimizer`] (momentum, Adam).
    pub fn with_optimizer_kind(mut self, optimizer: Optimizer) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// The underlying model (e.g. for evaluation after training).
    pub fn model(&self) -> &LstmModel {
        &self.model
    }

    /// Builds this epoch's step plan from the MS2 state.
    fn plan_for_epoch(&self, epoch: usize) -> StepPlan {
        let ms1 = self.strategy.uses_ms1().then_some(self.params.ms1);
        let skip = if self.strategy.uses_ms2() && epoch >= ms2::WARMUP_EPOCHS {
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
        // When the batch is sharded, the shard workers own the threads;
        // kernel-level parallelism only engages for unsharded runs.
        let kernel = if self.parallelism.is_sharded() {
            ParallelConfig::serial()
        } else {
            self.parallelism.kernel
        };
        let ms3 = self.strategy.uses_ms3().then_some(self.params.ms3);
        StepPlan {
            ms1,
            skip,
            ms3,
            // The per-batch loop refreshes this from the live scaler.
            loss_scale: 1.0,
            kernel,
        }
    }

    /// Fresh per-epoch instruments, mirrored into telemetry when a
    /// pipeline is attached.
    fn epoch_instruments(&self) -> Instruments {
        match &self.telemetry {
            Some(t) => Instruments::with_telemetry(t.clone()),
            None => Instruments::new(),
        }
    }

    /// Runs `epochs` training epochs over `task` and reports the
    /// measurements.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from malformed task batches.
    pub fn run(&mut self, task: &dyn Task, epochs: usize) -> Result<TrainingReport> {
        let mut reports = Vec::with_capacity(epochs);
        let mut first_epoch_magnitudes: Vec<Vec<f64>> = Vec::new();
        let loss_kind = task.loss_kind();

        let mut kernel_stats_last = eta_tensor::stats::snapshot();
        let mut dispatch_last = eta_tensor::stats::dispatch_snapshot();
        for epoch in 0..epochs {
            let plan = self.plan_for_epoch(epoch);
            let instruments = self.epoch_instruments();
            let _epoch_span = self
                .telemetry
                .as_ref()
                .map(|t| eta_telemetry::span!(t, "epoch", index = epoch));
            let mut losses = Vec::new();
            let mut density_acc = Vec::new();
            let mut skipped = 0usize;
            let mut total = 0usize;
            let mut magnitude_acc: Vec<Vec<f64>> = Vec::new();
            let mut shards_used = 1usize;
            let mut reduce_seconds = 0.0f64;
            let ms3_active = self.strategy.uses_ms3();
            let mut ms3_recompute_cells = 0u64;
            let mut ms3_overflow_skips = 0u64;
            let mut ms3_conv = eta_tensor::ConvStats::default();

            for b in 0..task.batches_per_epoch() {
                let _batch_span = self
                    .telemetry
                    .as_ref()
                    .map(|t| eta_telemetry::span!(t, "batch", index = b));
                let batch = task.batch(epoch, b);
                // Panels pack once per weight update: the checkout after
                // `apply` repacks, every later one in the same update is
                // a cache hit (only possible with multi-batch updates).
                let pack_span = instruments.span("pack_panels");
                let panels = self.panel_cache.checkout_with(&self.model, &plan.kernel);
                drop(pack_span);
                // Under MS3 the loss scale tracks the live scaler (it
                // moves on overflow, mid-epoch).
                let mut step_plan = plan.clone();
                if ms3_active {
                    step_plan.loss_scale = self.loss_scaler.scale();
                }
                let result = parallel::train_step_sharded_ws(
                    &self.model,
                    &batch.inputs,
                    &batch.targets,
                    &step_plan,
                    &instruments,
                    &self.parallelism,
                    Some(panels),
                    &mut self.ws_pool,
                )?;
                losses.push(result.loss);
                shards_used = shards_used.max(result.shards);
                reduce_seconds += result.reduce_seconds;
                if result.p1_stats.total > 0 {
                    density_acc.push(result.p1_stats.kept as f64 / result.p1_stats.total as f64);
                }
                skipped += result.cells_skipped;
                total += result.cells_total;
                if epoch == 0 {
                    if magnitude_acc.is_empty() {
                        magnitude_acc = result.magnitudes.clone();
                    } else {
                        for (acc, row) in magnitude_acc.iter_mut().zip(result.magnitudes.iter()) {
                            for (a, &m) in acc.iter_mut().zip(row.iter()) {
                                *a += m;
                            }
                        }
                    }
                }
                ms3_recompute_cells += result.ms3_recompute_cells;
                ms3_conv.merge(&result.ms3_conv);
                // MS3 dynamic loss scaling: an overflowed step applies
                // nothing (the weights — and the packed panels — stay
                // as they were) and the scaler backs off.
                let apply = if ms3_active {
                    let ok = self.loss_scaler.on_step(result.ms3_overflow);
                    if !ok {
                        ms3_overflow_skips += 1;
                    }
                    ok
                } else {
                    true
                };
                if apply {
                    let apply_span = instruments.span("apply");
                    self.model.apply(&mut self.optimizer, &result.grads)?;
                    drop(apply_span);
                    // The weights just changed; the packed panels are stale.
                    self.panel_cache.invalidate();
                }
                // The simulated DRAM frees everything between iterations.
                let snap = instruments.mem.snapshot();
                instruments
                    .mem
                    .free(DataCategory::Weights, snap.live(DataCategory::Weights));
                instruments.mem.free(
                    DataCategory::Activations,
                    snap.live(DataCategory::Activations),
                );
                instruments.mem.free(
                    DataCategory::Intermediates,
                    snap.live(DataCategory::Intermediates),
                );
            }

            let mean_loss = mean(losses.into_iter());
            self.history.push(mean_loss);

            if epoch == 0 {
                first_epoch_magnitudes = magnitude_acc.clone();
                if self.strategy.uses_ms2() {
                    let beta = GradPredictor::beta_for(loss_kind);
                    self.predictor =
                        Some(GradPredictor::calibrate(&magnitude_acc, mean_loss, beta));
                }
            }

            let mem: MemoryTracker = instruments.mem.snapshot();
            let traffic: TrafficCounter = instruments.traffic.snapshot();
            let report = EpochReport {
                mean_loss,
                p1_density: if density_acc.is_empty() {
                    1.0
                } else {
                    mean(density_acc.into_iter())
                },
                skip_fraction: if total == 0 {
                    0.0
                } else {
                    skipped as f64 / total as f64
                },
                peak_footprint: mem.peak_total() + self.model.param_bytes() * 2,
                peak_intermediates: mem.peak(DataCategory::Intermediates),
                traffic: [
                    traffic.total(DataCategory::Weights),
                    traffic.total(DataCategory::Activations),
                    traffic.total(DataCategory::Intermediates),
                ],
                ms3_recompute_cells,
                ms3_overflow_skips,
                ms3_loss_scale: if ms3_active {
                    self.loss_scaler.scale()
                } else {
                    1.0
                },
            };

            if let Some(t) = &self.telemetry {
                use eta_telemetry::keys;
                t.incr(keys::TRAIN_EPOCHS_TOTAL, 1);
                t.incr(keys::TRAIN_BATCHES_TOTAL, task.batches_per_epoch() as u64);
                t.gauge(keys::TRAIN_LOSS_MEAN, report.mean_loss);
                t.gauge(keys::MS1_P1_DENSITY, report.p1_density);
                t.gauge(keys::MS2_SKIP_FRACTION, report.skip_fraction);
                t.gauge(
                    keys::TRAIN_PEAK_FOOTPRINT_BYTES,
                    report.peak_footprint as f64,
                );
                t.gauge(
                    keys::TRAIN_PEAK_INTERMEDIATES_BYTES,
                    report.peak_intermediates as f64,
                );
                t.gauge(keys::PARALLEL_SHARDS, shards_used as f64);
                t.gauge(keys::PARALLEL_THREADS, self.parallelism.threads as f64);
                t.gauge(keys::PARALLEL_REDUCE_SECONDS, reduce_seconds);
                t.gauge(keys::PANEL_PACK_COUNT, self.panel_cache.pack_count() as f64);
                t.gauge(keys::PANEL_CACHE_HITS, self.panel_cache.hit_count() as f64);
                t.gauge(
                    keys::WORKSPACE_HIGH_WATER_BYTES,
                    self.ws_pool.high_water_bytes() as f64,
                );
                // Kernel FLOP/byte work this epoch: the counters are
                // process-global, so only epoch-over-epoch deltas are
                // attributable to this trainer.
                let know = eta_tensor::stats::snapshot();
                let kdelta = know.since(&kernel_stats_last);
                kernel_stats_last = know;
                t.incr(keys::KERNEL_GEMM_FLOPS_TOTAL, kdelta.flops);
                t.incr(keys::KERNEL_GEMM_BYTES_TOTAL, kdelta.bytes);
                t.incr(keys::KERNEL_GEMM_CALLS_TOTAL, kdelta.calls);
                let dnow = eta_tensor::stats::dispatch_snapshot();
                let ddelta = dnow.since(&dispatch_last);
                dispatch_last = dnow;
                t.incr(keys::KERNEL_SIMD_DISPATCH_TOTAL, ddelta.simd);
                t.incr(keys::KERNEL_SCALAR_FALLBACK_TOTAL, ddelta.scalar);
                t.incr(keys::PANEL_PACK_PARALLEL_TOTAL, ddelta.pack_parallel);
                // MS3 counters advance even when zero so the key set is
                // strategy-independent.
                t.incr(keys::MS3_RECOMPUTE_CELLS_TOTAL, ms3_recompute_cells);
                t.incr(keys::MS3_OVERFLOW_SKIPS_TOTAL, ms3_overflow_skips);
                t.incr(keys::MS3_CONV_OVERFLOWS_TOTAL, ms3_conv.overflows);
                t.incr(keys::MS3_CONV_UNDERFLOWS_TOTAL, ms3_conv.underflows);
                t.gauge(
                    keys::MS3_LOSS_SCALE,
                    f64::from(if ms3_active {
                        self.loss_scaler.scale()
                    } else {
                        1.0
                    }),
                );
            }
            reports.push(report);
        }

        Ok(TrainingReport {
            strategy: self.strategy,
            epochs: reports,
            first_epoch_magnitudes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_tensor::init;

    /// A deterministic learnable toy task: classify by which half of the
    /// input carries the larger mean, with class-dependent bias patterns.
    struct ToyTask {
        config: LstmConfig,
        kind: LossKind,
    }

    impl ToyTask {
        fn new(config: LstmConfig, kind: LossKind) -> Self {
            ToyTask { config, kind }
        }
    }

    impl Task for ToyTask {
        fn batch(&self, epoch: usize, index: usize) -> Batch {
            let cfg = &self.config;
            let seed = (epoch * 31 + index) as u64;
            let classes: Vec<usize> = (0..cfg.batch_size)
                .map(|i| (i + index) % cfg.output_size)
                .collect();
            let inputs: Vec<Matrix> = (0..cfg.seq_len)
                .map(|t| {
                    let mut x =
                        init::uniform(cfg.batch_size, cfg.input_size, -0.2, 0.2, seed + t as u64);
                    for (row, &cls) in classes.iter().enumerate() {
                        // Class-dependent signal in a distinct input slot.
                        let slot = cls % cfg.input_size;
                        x.set(row, slot, 1.0);
                    }
                    x
                })
                .collect();
            let targets = match self.kind {
                LossKind::SingleLoss => Targets::Classes(classes),
                LossKind::PerTimestamp => Targets::StepClasses(vec![classes; cfg.seq_len]),
            };
            Batch { inputs, targets }
        }

        fn batches_per_epoch(&self) -> usize {
            4
        }

        fn loss_kind(&self) -> LossKind {
            self.kind
        }
    }

    fn config() -> LstmConfig {
        // seq_len 24 ensures the earliest cells fall strictly below the
        // default 0.1 relative skip threshold (1/24 < 0.1).
        LstmConfig::builder()
            .input_size(8)
            .hidden_size(12)
            .layers(2)
            .seq_len(24)
            .batch_size(4)
            .output_size(4)
            .build()
            .unwrap()
    }

    #[test]
    fn baseline_training_converges_on_toy_task() {
        let task = ToyTask::new(config(), LossKind::SingleLoss);
        let mut t = Trainer::new(config(), TrainingStrategy::Baseline, 3).unwrap();
        let report = t.run(&task, 6).unwrap();
        assert_eq!(report.epochs.len(), 6);
        assert!(
            report.final_loss() < report.epochs[0].mean_loss,
            "loss should fall: {} -> {}",
            report.epochs[0].mean_loss,
            report.final_loss()
        );
    }

    #[test]
    fn ms1_reports_density_below_one() {
        let task = ToyTask::new(config(), LossKind::SingleLoss);
        let mut t = Trainer::new(config(), TrainingStrategy::Ms1, 3).unwrap();
        let report = t.run(&task, 2).unwrap();
        let d = report.mean_p1_density();
        assert!(d > 0.0 && d < 1.0, "P1 density {d} should show pruning");
    }

    #[test]
    fn ms2_skips_after_warmup_only() {
        let task = ToyTask::new(config(), LossKind::SingleLoss);
        let mut t = Trainer::new(config(), TrainingStrategy::Ms2, 3).unwrap();
        let report = t.run(&task, 5).unwrap();
        for e in &report.epochs[..3] {
            assert_eq!(e.skip_fraction, 0.0, "warm-up epochs never skip");
        }
        assert!(
            report.epochs[3].skip_fraction > 0.0,
            "post-warm-up epochs should skip insignificant cells"
        );
    }

    #[test]
    fn combined_reduces_peak_intermediates_vs_baseline() {
        let task = ToyTask::new(config(), LossKind::SingleLoss);
        let mut base = Trainer::new(config(), TrainingStrategy::Baseline, 3).unwrap();
        let mut comb = Trainer::new(config(), TrainingStrategy::CombinedMs, 3).unwrap();
        let rb = base.run(&task, 5).unwrap();
        let rc = comb.run(&task, 5).unwrap();
        let b = rb.epochs[4].peak_intermediates;
        let c = rc.epochs[4].peak_intermediates;
        assert!(
            c < b / 2,
            "combined intermediates peak {c} should well undercut baseline {b}"
        );
        // And convergence must not be destroyed (paper Table II).
        assert!(rc.final_loss() < rc.epochs[0].mean_loss);
    }

    #[test]
    fn per_timestamp_task_trains_and_skips() {
        let task = ToyTask::new(config(), LossKind::PerTimestamp);
        let mut t = Trainer::new(config(), TrainingStrategy::Ms2, 3).unwrap();
        let report = t.run(&task, 5).unwrap();
        assert!(report.epochs[4].skip_fraction > 0.0);
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn traffic_report_is_populated() {
        let task = ToyTask::new(config(), LossKind::SingleLoss);
        let mut t = Trainer::new(config(), TrainingStrategy::Baseline, 3).unwrap();
        let report = t.run(&task, 1).unwrap();
        let e = &report.epochs[0];
        assert!(e.traffic.iter().all(|&b| b > 0));
        assert!(e.peak_footprint > 0);
    }

    #[test]
    fn telemetry_records_epochs_footprint_and_loss() {
        use eta_telemetry::{RunManifest, Telemetry};

        let (telemetry, handle) =
            Telemetry::with_memory(RunManifest::capture("trainer_test", "0".into(), 3));
        let task = ToyTask::new(config(), LossKind::SingleLoss);
        let mut t = Trainer::new(config(), TrainingStrategy::CombinedMs, 3)
            .unwrap()
            .with_parallelism(Parallelism::with_threads(2))
            .with_telemetry(telemetry.clone());
        let report = t.run(&task, 4).unwrap();

        let snap = telemetry.flush();
        use eta_telemetry::keys;
        assert_eq!(snap.counter_total(keys::TRAIN_EPOCHS_TOTAL), 4);
        assert_eq!(
            snap.counter_total(keys::TRAIN_BATCHES_TOTAL),
            4 * task.batches_per_epoch() as u64
        );
        assert_eq!(
            snap.gauge(keys::TRAIN_LOSS_MEAN),
            Some(report.final_loss()),
            "gauge keeps the last epoch's loss"
        );
        assert!(snap.gauge(keys::TRAIN_PEAK_FOOTPRINT_BYTES).unwrap() > 0.0);
        // Panel cache: every batch triggers exactly one repack (each
        // batch ends in a weight update), and never a stale hit.
        assert_eq!(
            snap.gauge(keys::PANEL_PACK_COUNT),
            Some((4 * task.batches_per_epoch()) as f64)
        );
        assert_eq!(snap.gauge(keys::PANEL_CACHE_HITS), Some(0.0));
        assert!(snap.gauge(keys::WORKSPACE_HIGH_WATER_BYTES).unwrap() > 0.0);
        // Memsim mirror fired through the Instruments path.
        assert!(snap.counter_total(keys::MEMSIM_ALLOC_BYTES_TOTAL) > 0);
        assert!(snap.counter_total(keys::DRAM_READ_BYTES_TOTAL) > 0);
        // Kernel accounting: every epoch ran packed GEMMs, so the
        // FLOP/byte/call counters all advanced (exact values depend on
        // what else ran in this process — the trainer emits deltas).
        assert!(snap.counter_total(keys::KERNEL_GEMM_FLOPS_TOTAL) > 0);
        assert!(snap.counter_total(keys::KERNEL_GEMM_BYTES_TOTAL) > 0);
        assert!(snap.counter_total(keys::KERNEL_GEMM_CALLS_TOTAL) > 0);
        // Spans: 4 epochs, each containing the batches.
        assert_eq!(snap.span("epoch").unwrap().count, 4);
        assert_eq!(
            snap.span("epoch/batch").unwrap().count,
            4 * task.batches_per_epoch() as u64
        );
        // The engine-level spans sit under the batch scope; shard spans
        // are rooted at `shard` so structure is thread-count invariant.
        assert!(snap.span("epoch/batch/pack_panels").is_some());
        assert!(snap.span("epoch/batch/step").is_some());
        assert!(snap.span("epoch/batch/apply").is_some());
        assert!(snap.span("shard").is_some());
        // The event stream saw the manifest first.
        let events = handle.events();
        assert!(matches!(events[0], eta_telemetry::Event::Manifest(_)));
    }

    #[test]
    fn first_epoch_magnitudes_have_model_shape() {
        let task = ToyTask::new(config(), LossKind::SingleLoss);
        let mut t = Trainer::new(config(), TrainingStrategy::Baseline, 3).unwrap();
        let report = t.run(&task, 1).unwrap();
        assert_eq!(report.first_epoch_magnitudes.len(), 2);
        assert_eq!(report.first_epoch_magnitudes[0].len(), 24);
    }
}
