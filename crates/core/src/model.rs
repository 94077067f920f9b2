//! The stacked LSTM model: layers + projection head, with the full
//! forward/backward training step under any
//! [`TrainingStrategy`](crate::strategy::TrainingStrategy)
//! storage plan.

use crate::cell::{CellGrads, CellParams};
use crate::config::LstmConfig;
use crate::layer::{Exec, Instruments, LayerTape, LstmLayer, StorageMode};
use crate::loss::{self, Head, HeadGrads, LossKind, Targets};
use crate::ms1::Ms1Config;
use crate::ms2::SkipPlan;
use crate::ms3::{self, Ms3Config};
use crate::workspace::{LayerPanels, ModelPanels, Workspace};
use crate::{LstmError, Result};
use eta_tensor::{lowp, CompressionStats, ConvStats, Matrix, ParallelConfig, Precision};

/// Storage/skip decisions for one training step.
#[derive(Debug, Clone)]
pub struct StepPlan {
    /// MS1 compression (None = dense baseline storage).
    pub ms1: Option<Ms1Config>,
    /// MS2 skip plan (None = run every BP cell).
    pub skip: Option<SkipPlan>,
    /// MS3 recompute checkpointing + storage precision (None = keep
    /// every cell record in f32).
    pub ms3: Option<Ms3Config>,
    /// Dynamic loss scale applied to the head gradient before backward
    /// and divided back out of the returned gradients — a power of two
    /// (exactly invertible), so `1.0` is a strict no-op. The trainer's
    /// [`crate::ms3::LossScaler`] drives this under a narrow MS3
    /// precision.
    pub loss_scale: f32,
    /// GEMM-level parallelism inside the step's cells. Bit-identical
    /// results at any setting; kept serial when the microbatch engine
    /// shards the batch (shard workers own the threads then).
    pub kernel: ParallelConfig,
}

impl StepPlan {
    /// The baseline plan: dense storage, no skipping, serial kernels.
    pub fn baseline() -> Self {
        StepPlan {
            ms1: None,
            skip: None,
            ms3: None,
            loss_scale: 1.0,
            kernel: ParallelConfig::serial(),
        }
    }

    /// The same plan with a different kernel-parallelism config.
    pub fn with_kernel(mut self, kernel: ParallelConfig) -> Self {
        self.kernel = kernel;
        self
    }
}

/// Gradients of every trainable parameter after one step.
#[derive(Debug)]
pub struct ModelGrads {
    /// Per-layer cell gradients.
    pub cells: Vec<CellGrads>,
    /// Head gradients.
    pub head: HeadGrads,
}

/// Everything one training step produces.
#[derive(Debug)]
pub struct StepResult {
    /// Mean loss of the batch.
    pub loss: f64,
    /// Gradients ready for the optimizer.
    pub grads: ModelGrads,
    /// Raw per-cell gradient magnitudes, `[layer][t]`
    /// (0 for skipped cells) — feeds paper Fig. 8 and the Eq. 4 α fit.
    pub magnitudes: Vec<Vec<f64>>,
    /// Aggregate MS1 compression statistics (zeroed without MS1).
    pub p1_stats: CompressionStats,
    /// BP cells skipped this step.
    pub cells_skipped: usize,
    /// Total BP cells.
    pub cells_total: usize,
    /// Microbatch shards this step ran as (1 = plain serial step).
    pub shards: usize,
    /// Wall-clock seconds spent in the gradient tree reduction
    /// (0 for an unsharded step).
    pub reduce_seconds: f64,
    /// MS3: the (unscaled) gradients contain a non-finite value — the
    /// loss-scaled backward overflowed and the optimizer step must be
    /// skipped (the trainer's scaler backs off).
    pub ms3_overflow: bool,
    /// MS3: cells recomputed from checkpoints during backward.
    pub ms3_recompute_cells: u64,
    /// MS3: storage-rounding range events (overflows to ±inf, flushes
    /// to zero) across the step.
    pub ms3_conv: ConvStats,
}

/// A stacked LSTM with a projection head.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LstmModel {
    config: LstmConfig,
    layers: Vec<LstmLayer>,
    head: Head,
}

impl LstmModel {
    /// Builds a model with Xavier-initialized parameters.
    pub fn new(config: &LstmConfig, seed: u64) -> Self {
        let layers = (0..config.layers)
            .map(|l| {
                LstmLayer::new(
                    config.layer_input(l),
                    config.hidden_size,
                    seed.wrapping_add(1000 * l as u64),
                )
            })
            .collect();
        let head = Head::new(
            config.hidden_size,
            config.output_size,
            seed.wrapping_add(999_999),
        );
        LstmModel {
            config: *config,
            layers,
            head,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &LstmConfig {
        &self.config
    }

    /// Immutable view of the layers.
    pub fn layers(&self) -> &[LstmLayer] {
        &self.layers
    }

    /// Mutable access to the layers (custom initialization, gradient
    /// checking, pruning research).
    pub fn layers_mut(&mut self) -> &mut [LstmLayer] {
        &mut self.layers
    }

    /// The projection head.
    pub fn head(&self) -> &crate::loss::Head {
        &self.head
    }

    /// Mutable access to the projection head.
    pub fn head_mut(&mut self) -> &mut crate::loss::Head {
        &mut self.head
    }

    /// Total parameter bytes (layers + head).
    pub fn param_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.params.size_bytes())
            .sum::<u64>()
            + self.head.size_bytes()
    }

    /// Validates an input sequence against the configuration.
    ///
    /// The batch dimension is data-defined: any uniform non-zero row
    /// count is accepted (the microbatch engine feeds row shards of the
    /// nominal `config.batch_size` through the same step), but every
    /// timestep must agree on it.
    fn check_inputs(&self, xs: &[Matrix]) -> Result<()> {
        if xs.len() != self.config.seq_len {
            return Err(LstmError::BatchShape {
                detail: format!(
                    "sequence length {} != configured {}",
                    xs.len(),
                    self.config.seq_len
                ),
            });
        }
        let batch = xs[0].rows();
        if batch == 0 {
            return Err(LstmError::BatchShape {
                detail: "empty batch (0 rows)".into(),
            });
        }
        for (t, x) in xs.iter().enumerate() {
            if x.rows() != batch || x.cols() != self.config.input_size {
                return Err(LstmError::BatchShape {
                    detail: format!(
                        "input at t={t} is {}x{}, expected {}x{}",
                        x.rows(),
                        x.cols(),
                        batch,
                        self.config.input_size
                    ),
                });
            }
        }
        Ok(())
    }

    /// Inference-style forward pass: head logits per timestep. Each
    /// layer runs the packed training forward over its own freshly
    /// packed panels; the tapes are dropped layer by layer.
    ///
    /// # Errors
    ///
    /// Returns [`LstmError::BatchShape`] on malformed inputs.
    pub fn forward_inference(&self, xs: &[Matrix]) -> Result<Vec<Matrix>> {
        self.check_inputs(xs)?;
        let inst = Instruments::new();
        let kernel = ParallelConfig::serial();
        let mut ws = Workspace::new();
        let mut seq: Vec<Matrix> = xs.to_vec();
        for layer in &self.layers {
            let panels = LayerPanels::pack_with(&layer.params, &kernel);
            let exec = Exec {
                kernel: &kernel,
                instruments: &inst,
                panels: &panels,
                ms3: None,
            };
            seq = layer
                .forward_sequence_ws(&seq, StorageMode::Dense, &[], &mut ws, &exec)?
                .hs;
        }
        seq.iter().map(|h| self.head.forward(h)).collect()
    }

    /// One full training step (forward + loss + backward) under `plan`,
    /// with memory/traffic instrumentation, against a reusable
    /// [`Workspace`] and the model's packed weight panels (the trainer
    /// checks them out of a [`crate::workspace::PanelCache`] once per
    /// weight update). Per-step scratch lives in `ws` (its high-water
    /// mark is updated once per step) and each layer consumes the
    /// previous layer's tape outputs directly. Does **not** apply the
    /// optimizer — the caller owns that (and the MS2 α-calibration needs
    /// the raw magnitudes first).
    ///
    /// # Errors
    ///
    /// Returns [`LstmError::BatchShape`] on malformed inputs or targets,
    /// and [`LstmError::Config`] when `panels` does not hold one panel
    /// set per layer.
    pub fn train_step_ws(
        &self,
        xs: &[Matrix],
        targets: &Targets,
        plan: &StepPlan,
        instruments: &Instruments,
        panels: &ModelPanels,
        ws: &mut Workspace,
    ) -> Result<StepResult> {
        if panels.layers.len() != self.layers.len() {
            return Err(LstmError::Config(format!(
                "panel set has {} layers, model has {}",
                panels.layers.len(),
                self.layers.len()
            )));
        }
        self.check_inputs(xs)?;
        let seq_len = self.config.seq_len;
        let batch = xs.first().map_or(0, Matrix::rows);
        let hidden = self.config.hidden_size;

        let mode = match plan.ms1 {
            Some(cfg) => StorageMode::Compressed(cfg),
            None => StorageMode::Dense,
        };
        let empty_keep: Vec<bool> = Vec::new();
        // MS3 step state: per-step recompute/rounding counters, the
        // storage precision for inter-layer gradient rounding, and the
        // (power-of-two) loss scale. `loss_scale == 1.0` keeps every
        // scaling site a strict bitwise no-op.
        ws.reset_ms3_stats();
        let precision = plan.ms3.map_or(Precision::F32, |c| c.precision);
        let loss_scale = plan.loss_scale;

        // ---- Forward through the stack, keeping each layer's tape.
        // Layer l > 0 reads its input straight out of the previous
        // layer's tape (`hs` is stored there anyway) — the old
        // duplicated `layer_inputs` vector of cloned activations is
        // gone.
        let exec = |panels| Exec {
            kernel: &plan.kernel,
            instruments,
            panels,
            ms3: plan.ms3.as_ref(),
        };
        let mut tapes: Vec<LayerTape> = Vec::with_capacity(self.layers.len());
        for ((l, layer), layer_panels) in self.layers.iter().enumerate().zip(&panels.layers) {
            let keep: &[bool] = match &plan.skip {
                Some(p) => p.keep.get(l).map_or(&empty_keep[..], Vec::as_slice),
                None => &empty_keep,
            };
            let input: &[Matrix] = match tapes.last() {
                Some(prev) => &prev.hs,
                None => xs,
            };
            let tape = layer.forward_sequence_ws(input, mode, keep, ws, &exec(layer_panels))?;
            tapes.push(tape);
        }
        let top_hs: &[Matrix] = tapes.last().map_or(&[][..], |t| &t.hs[..]);
        let last_h = top_hs.last().ok_or_else(|| LstmError::BatchShape {
            detail: "empty model: no top-layer activations".into(),
        })?;

        // ---- Loss + head gradients.
        let mut head_grads = self.head.zero_grads();
        let mut dys: Vec<Matrix> = (0..seq_len).map(|_| Matrix::zeros(batch, hidden)).collect();
        let loss = match targets {
            Targets::Classes(classes) => {
                let logits = self.head.forward(last_h)?;
                let (loss, mut dlogits) = loss::softmax_xent(&logits, classes)?;
                if loss_scale != 1.0 {
                    dlogits.scale(loss_scale);
                }
                dys[seq_len - 1] = self.head.backward(last_h, &dlogits, &mut head_grads)?;
                loss
            }
            Targets::Regression(target) => {
                let pred = self.head.forward(last_h)?;
                let (loss, mut dpred) = loss::mse(&pred, target)?;
                if loss_scale != 1.0 {
                    dpred.scale(loss_scale);
                }
                dys[seq_len - 1] = self.head.backward(last_h, &dpred, &mut head_grads)?;
                loss
            }
            Targets::StepClasses(step_classes) => {
                if step_classes.len() != seq_len {
                    return Err(LstmError::BatchShape {
                        detail: format!(
                            "{} target steps for sequence length {seq_len}",
                            step_classes.len()
                        ),
                    });
                }
                let mut total = 0.0;
                for (t, (classes, h_t)) in step_classes.iter().zip(top_hs).enumerate() {
                    let logits = self.head.forward(h_t)?;
                    let (l, mut dlogits) = loss::softmax_xent(&logits, classes)?;
                    total += l;
                    dlogits.scale(loss_scale * (1.0 / seq_len as f32));
                    dys[t] = self.head.backward(h_t, &dlogits, &mut head_grads)?;
                }
                total / seq_len as f64
            }
            Targets::StepRegression(step_targets) => {
                if step_targets.len() != seq_len {
                    return Err(LstmError::BatchShape {
                        detail: format!(
                            "{} target steps for sequence length {seq_len}",
                            step_targets.len()
                        ),
                    });
                }
                let mut total = 0.0;
                for (t, (target, h_t)) in step_targets.iter().zip(top_hs).enumerate() {
                    let pred = self.head.forward(h_t)?;
                    let (l, mut dpred) = loss::mse(&pred, target)?;
                    total += l;
                    dpred.scale(loss_scale * (1.0 / seq_len as f32));
                    dys[t] = self.head.backward(h_t, &dpred, &mut head_grads)?;
                }
                total / seq_len as f64
            }
        };

        // ---- Backward through the stack.
        let mut cell_grads: Vec<Option<CellGrads>> = (0..self.layers.len()).map(|_| None).collect();
        let mut magnitudes = vec![Vec::new(); self.layers.len()];
        let mut p1_stats = CompressionStats::default();
        let mut dys_current = dys;
        for (l, layer_panels) in panels.layers.iter().enumerate().rev() {
            let Some(tape) = tapes.get(l) else {
                unreachable!("one tape per layer")
            };
            let scale = match &plan.skip {
                Some(p) => p.scale.get(l).copied().unwrap_or(1.0),
                None => 1.0,
            };
            // Gradient-storage emulation: the per-timestep gradients
            // handed between layers round through the MS3 storage
            // format (no-op in f32).
            if !precision.is_f32() {
                for dy in &mut dys_current {
                    lowp::quantize_matrix(precision, dy, &mut ws.ms3_conv);
                }
            }
            let input: &[Matrix] = match l.checked_sub(1).and_then(|i| tapes.get(i)) {
                Some(prev) => &prev.hs,
                None => xs,
            };
            let back = self.layers[l].backward_sequence_ws(
                input,
                tape,
                &dys_current,
                scale,
                ws,
                &exec(layer_panels),
            )?;
            p1_stats.merge(&LstmLayer::tape_compression_stats(tape));
            magnitudes[l] = back.magnitudes;
            cell_grads[l] = Some(back.grads);
            dys_current = back.dxs;
        }

        let cells_total = self.layers.len() * seq_len;
        let cells_skipped = plan
            .skip
            .as_ref()
            .map(|p| (p.skip_fraction() * cells_total as f64).round() as usize)
            .unwrap_or(0);

        // Divide the loss scale back out before anyone consumes the
        // gradients: the scale is a power of two, so the inverse is
        // exact and the scaled-then-unscaled values only differ from an
        // unscaled run where the scaled backward over/underflowed.
        let mut grads = ModelGrads {
            cells: cell_grads
                .into_iter()
                .map(|g| match g {
                    Some(g) => g,
                    None => unreachable!("every layer ran backward"),
                })
                .collect(),
            head: head_grads,
        };
        if loss_scale != 1.0 {
            let inv = 1.0 / loss_scale;
            for g in &mut grads.cells {
                g.scale(inv);
            }
            grads.head.scale(inv);
            for layer_mags in &mut magnitudes {
                for m in layer_mags.iter_mut() {
                    *m *= f64::from(inv);
                }
            }
        }
        let ms3_overflow = plan.ms3.is_some() && !ms3::grads_are_finite(&grads);

        ws.note_high_water();
        Ok(StepResult {
            loss,
            grads,
            magnitudes,
            p1_stats,
            cells_skipped,
            cells_total,
            shards: 1,
            reduce_seconds: 0.0,
            ms3_overflow,
            ms3_recompute_cells: ws.ms3_recompute_cells,
            ms3_conv: ws.ms3_conv,
        })
    }

    /// Applies an optimizer step with the given gradients.
    ///
    /// # Errors
    ///
    /// Returns a shape error if gradients do not match the parameters.
    pub fn apply(
        &mut self,
        optimizer: &mut crate::optimizer::Optimizer,
        grads: &ModelGrads,
    ) -> Result<()> {
        let mut cells: Vec<&mut CellParams> =
            self.layers.iter_mut().map(|l| &mut l.params).collect();
        optimizer.step(&mut cells, &grads.cells, &mut self.head, &grads.head)
    }

    /// Evaluates the mean loss (and classification accuracy where
    /// applicable) of the model on one batch, without training.
    ///
    /// # Errors
    ///
    /// Returns [`LstmError::BatchShape`] on malformed inputs.
    pub fn evaluate(&self, xs: &[Matrix], targets: &Targets) -> Result<(f64, Option<f64>)> {
        self.check_inputs(xs)?;
        let logits = self.forward_inference(xs)?;
        let seq_len = self.config.seq_len;
        let last_logits = logits.last().ok_or_else(|| LstmError::BatchShape {
            detail: "empty model: no output logits".into(),
        })?;
        let check_steps = |n: usize| -> Result<()> {
            if n != seq_len {
                return Err(LstmError::BatchShape {
                    detail: format!("{n} target steps for sequence length {seq_len}"),
                });
            }
            Ok(())
        };
        match targets {
            Targets::Classes(classes) => {
                let (l, _) = loss::softmax_xent(last_logits, classes)?;
                Ok((l, Some(loss::accuracy(last_logits, classes))))
            }
            Targets::Regression(target) => {
                let (l, _) = loss::mse(last_logits, target)?;
                Ok((l, None))
            }
            Targets::StepClasses(step_classes) => {
                check_steps(step_classes.len())?;
                let mut total = 0.0;
                let mut acc = 0.0;
                for (classes, step) in step_classes.iter().zip(&logits) {
                    let (l, _) = loss::softmax_xent(step, classes)?;
                    total += l;
                    acc += loss::accuracy(step, classes);
                }
                let n = step_classes.len() as f64;
                Ok((total / n, Some(acc / n)))
            }
            Targets::StepRegression(step_targets) => {
                check_steps(step_targets.len())?;
                let mut total = 0.0;
                for (target, step) in step_targets.iter().zip(&logits) {
                    let (l, _) = loss::mse(step, target)?;
                    total += l;
                }
                Ok((total / step_targets.len() as f64, None))
            }
        }
    }

    /// The loss structure a target set implies — convenience re-export.
    pub fn loss_kind(targets: &Targets) -> LossKind {
        targets.loss_kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_tensor::init;

    fn config() -> LstmConfig {
        LstmConfig::builder()
            .input_size(6)
            .hidden_size(8)
            .layers(2)
            .seq_len(5)
            .batch_size(3)
            .output_size(4)
            .build()
            .unwrap()
    }

    /// One step with freshly packed panels and a fresh workspace.
    fn step(
        model: &LstmModel,
        xs: &[Matrix],
        targets: &Targets,
        plan: &StepPlan,
        inst: &Instruments,
    ) -> Result<StepResult> {
        let panels = ModelPanels::pack_with(model, &plan.kernel);
        model.train_step_ws(xs, targets, plan, inst, &panels, &mut Workspace::new())
    }

    fn batch(cfg: &LstmConfig, seed: u64) -> (Vec<Matrix>, Targets) {
        let xs = (0..cfg.seq_len)
            .map(|t| init::uniform(cfg.batch_size, cfg.input_size, -1.0, 1.0, seed + t as u64))
            .collect();
        let targets = Targets::Classes(vec![0, 1, 2]);
        (xs, targets)
    }

    #[test]
    fn inference_output_shapes() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        let (xs, _) = batch(&cfg, 1);
        let out = model.forward_inference(&xs).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|m| m.rows() == 3 && m.cols() == 4));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        let short: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(3, 6)).collect();
        assert!(model.forward_inference(&short).is_err());
        let wrong_width: Vec<Matrix> = (0..5).map(|_| Matrix::zeros(3, 7)).collect();
        assert!(model.forward_inference(&wrong_width).is_err());
    }

    #[test]
    fn train_step_produces_gradients_for_all_layers() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        let (xs, targets) = batch(&cfg, 1);
        let inst = Instruments::new();
        let r = step(&model, &xs, &targets, &StepPlan::baseline(), &inst).unwrap();
        assert_eq!(r.grads.cells.len(), 2);
        assert!(r.loss > 0.0);
        assert!(r.grads.cells.iter().all(|g| g.magnitude() > 0.0));
        assert_eq!(r.cells_total, 10);
        assert_eq!(r.cells_skipped, 0);
    }

    #[test]
    fn ms1_zero_threshold_matches_baseline_gradients() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        let (xs, targets) = batch(&cfg, 1);
        let inst = Instruments::new();
        let base = step(&model, &xs, &targets, &StepPlan::baseline(), &inst).unwrap();
        let ms1 = step(
            &model,
            &xs,
            &targets,
            &StepPlan {
                ms1: Some(Ms1Config { threshold: 0.0 }),
                ..StepPlan::baseline()
            },
            &inst,
        )
        .unwrap();
        assert!((base.loss - ms1.loss).abs() < 1e-9);
        for (a, b) in base.grads.cells.iter().zip(ms1.grads.cells.iter()) {
            assert!(a.dw.rel_diff(&b.dw) < 1e-6);
            assert!(a.du.rel_diff(&b.du) < 1e-6);
        }
        assert!(ms1.p1_stats.total > 0);
        assert_eq!(base.p1_stats.total, 0);
    }

    #[test]
    fn training_reduces_loss_on_learnable_task() {
        let cfg = config();
        let mut model = LstmModel::new(&cfg, 42);
        let (xs, targets) = batch(&cfg, 1);
        let inst = Instruments::new();
        let mut sgd =
            crate::optimizer::Optimizer::sgd(crate::optimizer::Sgd { lr: 0.5, clip: 5.0 });
        let first = step(&model, &xs, &targets, &StepPlan::baseline(), &inst)
            .unwrap()
            .loss;
        for _ in 0..80 {
            let r = step(&model, &xs, &targets, &StepPlan::baseline(), &inst).unwrap();
            model.apply(&mut sgd, &r.grads).unwrap();
        }
        let last = step(&model, &xs, &targets, &StepPlan::baseline(), &inst)
            .unwrap()
            .loss;
        assert!(last < first * 0.5, "loss failed to drop: {first} -> {last}");
    }

    #[test]
    fn per_timestamp_loss_spreads_gradient_over_steps() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        let xs: Vec<Matrix> = (0..cfg.seq_len)
            .map(|t| init::uniform(3, 6, -1.0, 1.0, 50 + t as u64))
            .collect();
        let targets = Targets::StepClasses(vec![vec![0, 1, 2]; 5]);
        let inst = Instruments::new();
        let r = step(&model, &xs, &targets, &StepPlan::baseline(), &inst).unwrap();
        assert!(r.loss > 0.0);
        // Every timestep should see nonzero top-layer gradient magnitude.
        assert!(r.magnitudes[1].iter().all(|&m| m > 0.0));
    }

    #[test]
    fn skip_plan_zeroes_skipped_magnitudes() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        let (xs, targets) = batch(&cfg, 1);
        let inst = Instruments::new();
        let mut skip = crate::ms2::SkipPlan::keep_all(2, 5);
        skip.keep[0][0] = false;
        skip.keep[0][1] = false;
        skip.keep[1][0] = false;
        skip.scale = vec![5.0 / 3.0, 5.0 / 4.0];
        let r = step(
            &model,
            &xs,
            &targets,
            &StepPlan {
                skip: Some(skip),
                ..StepPlan::baseline()
            },
            &inst,
        )
        .unwrap();
        assert_eq!(r.magnitudes[0][0], 0.0);
        assert_eq!(r.magnitudes[0][1], 0.0);
        assert_eq!(r.magnitudes[1][0], 0.0);
        assert!(r.magnitudes[1][4] > 0.0);
        assert_eq!(r.cells_skipped, 3);
    }

    /// The zero-alloc contract at model level: a step with cached panels
    /// and a reused workspace is bit-identical to a step with fresh
    /// ones, for both dense and MS1 storage plans, at multiple kernel
    /// thread counts.
    #[test]
    fn train_step_ws_bit_identical_with_panels_and_reuse() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        let (xs, targets) = batch(&cfg, 1);
        let inst = Instruments::new();
        let panels = ModelPanels::pack_with(&model, &ParallelConfig::serial());
        let mut ws = Workspace::new();

        for plan in [
            StepPlan::baseline(),
            StepPlan {
                ms1: Some(Ms1Config { threshold: 0.0 }),
                ..StepPlan::baseline()
            },
            StepPlan::baseline().with_kernel(eta_tensor::ParallelConfig::with_threads(3)),
        ] {
            let reference = step(&model, &xs, &targets, &plan, &inst).unwrap();
            // Run twice with the same workspace: reuse must not drift.
            for _ in 0..2 {
                let r = model
                    .train_step_ws(&xs, &targets, &plan, &inst, &panels, &mut ws)
                    .unwrap();
                assert_eq!(r.loss.to_bits(), reference.loss.to_bits());
                for (a, b) in r.grads.cells.iter().zip(reference.grads.cells.iter()) {
                    assert_eq!(a, b);
                }
                assert_eq!(r.magnitudes, reference.magnitudes);
            }
        }
        assert!(ws.high_water_bytes() > 0, "step recorded its footprint");
    }

    #[test]
    fn evaluate_reports_accuracy_for_classification() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        let (xs, targets) = batch(&cfg, 1);
        let (loss, acc) = model.evaluate(&xs, &targets).unwrap();
        assert!(loss > 0.0);
        let acc = acc.expect("classification reports accuracy");
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn param_bytes_counts_layers_and_head() {
        let cfg = config();
        let model = LstmModel::new(&cfg, 42);
        // layer0: W 32x6 + U 32x8 + b 32 = 480; layer1: W 32x8+U 32x8+b 32 = 544
        // head: 4x8 + 4 = 36 → total 1060 floats.
        assert_eq!(model.param_bytes(), 1060 * 4);
    }
}
