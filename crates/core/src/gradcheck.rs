//! Finite-difference gradient checking for whole models — the
//! correctness tool behind this reproduction's backward-pass tests,
//! exposed as a public utility so downstream changes (new losses, new
//! cell variants) can be validated the same way.

use crate::layer::Instruments;
use crate::loss::Targets;
use crate::model::{LstmModel, StepPlan};
use crate::parallel::{self, Parallelism};
use crate::workspace::WorkspacePool;
use crate::Result;
use eta_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a gradient check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheck {
    /// Largest relative error across the sampled parameters.
    pub max_rel_error: f64,
    /// Parameters sampled.
    pub samples: usize,
}

impl GradCheck {
    /// Whether the analytic gradients pass at the given tolerance.
    pub fn passes(&self, tolerance: f64) -> bool {
        self.max_rel_error < tolerance
    }
}

/// Checks the analytic gradients of a full training step against
/// central finite differences on `samples` randomly-chosen weight
/// entries (spread across layers and the head).
///
/// `eps` is the perturbation size; ~5e-3 balances truncation against
/// `f32` roundoff for typical models.
///
/// # Errors
///
/// Propagates shape errors from malformed inputs.
pub fn check_step(
    model: &LstmModel,
    xs: &[Matrix],
    targets: &Targets,
    samples: usize,
    eps: f32,
    seed: u64,
) -> Result<GradCheck> {
    check_step_with(
        model,
        xs,
        targets,
        &StepPlan::baseline(),
        &Parallelism::serial(),
        samples,
        eps,
        seed,
    )
}

/// [`check_step`] under an arbitrary storage/skip plan and execution
/// policy: both the analytic gradients and the perturbed losses run
/// through [`parallel::train_step_sharded_ws`], so the check validates
/// the exact code path a [`crate::Trainer`] with the same settings uses
/// — MS1 compression, MS2 skipping, sharded reduction and all. Each
/// call passes no panels, so every perturbed model's panels are packed
/// from its own perturbed weights.
///
/// # Errors
///
/// Propagates shape errors from malformed inputs.
#[allow(clippy::too_many_arguments)]
pub fn check_step_with(
    model: &LstmModel,
    xs: &[Matrix],
    targets: &Targets,
    plan: &StepPlan,
    par: &Parallelism,
    samples: usize,
    eps: f32,
    seed: u64,
) -> Result<GradCheck> {
    let instruments = Instruments::new();
    let mut pool = WorkspacePool::new();
    let mut step = |m: &LstmModel| {
        parallel::train_step_sharded_ws(m, xs, targets, plan, &instruments, par, None, &mut pool)
    };
    let result = step(model)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut max_rel = 0.0f64;
    let layers = model.layers().len();

    let mut loss_with = |m: &LstmModel| -> Result<f64> { Ok(step(m)?.loss) };

    for _ in 0..samples {
        // Pick a parameter uniformly over {layer W, layer U, head W}.
        let pick = rng.gen_range(0..(2 * layers + 1));
        let (analytic, numeric) = if pick < 2 * layers {
            let l = pick / 2;
            let in_w = pick % 2 == 0;
            debug_assert!(l < layers);
            debug_assert_eq!(result.grads.cells.len(), layers);
            let (rows, cols) = {
                let p = &model.layers()[l].params;
                if in_w {
                    (p.w.rows(), p.w.cols())
                } else {
                    (p.u.rows(), p.u.cols())
                }
            };
            let r = rng.gen_range(0..rows);
            let c = rng.gen_range(0..cols);
            let analytic = if in_w {
                result.grads.cells[l].dw.get(r, c) as f64
            } else {
                result.grads.cells[l].du.get(r, c) as f64
            };
            let mut plus = model.clone();
            let mut minus = model.clone();
            debug_assert_eq!(plus.layers_mut().len(), layers);
            debug_assert_eq!(minus.layers_mut().len(), layers);
            {
                let p = &mut plus.layers_mut()[l].params;
                let m = if in_w { &mut p.w } else { &mut p.u };
                m.set(r, c, m.get(r, c) + eps);
            }
            {
                let p = &mut minus.layers_mut()[l].params;
                let m = if in_w { &mut p.w } else { &mut p.u };
                m.set(r, c, m.get(r, c) - eps);
            }
            let numeric = (loss_with(&plus)? - loss_with(&minus)?) / (2.0 * eps as f64);
            (analytic, numeric)
        } else {
            let rows = model.head().w.rows();
            let cols = model.head().w.cols();
            let r = rng.gen_range(0..rows);
            let c = rng.gen_range(0..cols);
            let analytic = result.grads.head.dw.get(r, c) as f64;
            let mut plus = model.clone();
            let mut minus = model.clone();
            plus.head_mut().w.set(r, c, model.head().w.get(r, c) + eps);
            minus.head_mut().w.set(r, c, model.head().w.get(r, c) - eps);
            let numeric = (loss_with(&plus)? - loss_with(&minus)?) / (2.0 * eps as f64);
            (analytic, numeric)
        };
        // Gradients below f32 finite-difference resolution are
        // uninformative: the central difference of an f32 forward pass
        // carries ~1e-4 absolute noise at eps = 5e-3.
        if analytic.abs().max(numeric.abs()) < 5e-3 {
            continue;
        }
        let scale = analytic.abs().max(numeric.abs());
        max_rel = max_rel.max((analytic - numeric).abs() / scale);
    }
    Ok(GradCheck {
        max_rel_error: max_rel,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LstmConfig;
    use eta_tensor::init;

    fn step(
        model: &LstmModel,
        xs: &[Matrix],
        targets: &Targets,
        plan: &StepPlan,
        inst: &Instruments,
    ) -> Result<crate::model::StepResult> {
        let par = Parallelism::serial();
        parallel::train_step_sharded_ws(
            model,
            xs,
            targets,
            plan,
            inst,
            &par,
            None,
            &mut WorkspacePool::new(),
        )
    }

    fn model_and_batch() -> (LstmModel, Vec<Matrix>, Targets) {
        let cfg = LstmConfig::builder()
            .input_size(5)
            .hidden_size(6)
            .layers(2)
            .seq_len(4)
            .batch_size(3)
            .output_size(3)
            .build()
            .unwrap();
        let model = LstmModel::new(&cfg, 9);
        let xs: Vec<_> = (0..4)
            .map(|t| init::uniform(3, 5, -1.0, 1.0, 20 + t))
            .collect();
        (model, xs, Targets::Classes(vec![0, 1, 2]))
    }

    #[test]
    fn full_model_gradients_pass() {
        let (model, xs, targets) = model_and_batch();
        let check = check_step(&model, &xs, &targets, 24, 5e-3, 1).unwrap();
        assert!(
            check.passes(0.05),
            "max relative gradient error {}",
            check.max_rel_error
        );
        assert_eq!(check.samples, 24);
    }

    #[test]
    fn per_timestamp_gradients_pass() {
        let (model, xs, _) = model_and_batch();
        let targets = Targets::StepClasses(vec![vec![0, 1, 2]; 4]);
        let check = check_step(&model, &xs, &targets, 16, 5e-3, 2).unwrap();
        assert!(check.passes(0.05), "{}", check.max_rel_error);
    }

    #[test]
    fn regression_gradients_pass() {
        let (model, xs, _) = model_and_batch();
        let targets = Targets::Regression(init::uniform(3, 3, -0.5, 0.5, 50));
        let check = check_step(&model, &xs, &targets, 16, 5e-3, 3).unwrap();
        assert!(check.passes(0.05), "{}", check.max_rel_error);
    }

    #[test]
    fn corrupted_gradient_is_caught() {
        // Sanity of the checker itself: a model whose backward is wrong
        // (simulated by checking against gradients of a *different*
        // model) must fail.
        let (model, xs, targets) = model_and_batch();
        let other = LstmModel::new(model.config(), 12345);
        let instruments = Instruments::new();
        let wrong = step(&other, &xs, &targets, &StepPlan::baseline(), &instruments).unwrap();
        // Compare other's analytic gradient against model's numeric one
        // at a fixed coordinate — the mismatch should be gross.
        let analytic = wrong.grads.cells[0].dw.get(0, 0) as f64;
        let eps = 1e-3f32;
        let mut plus = model.clone();
        plus.layers_mut()[0]
            .params
            .w
            .set(0, 0, model.layers()[0].params.w.get(0, 0) + eps);
        let mut minus = model.clone();
        minus.layers_mut()[0]
            .params
            .w
            .set(0, 0, model.layers()[0].params.w.get(0, 0) - eps);
        let lp = step(&plus, &xs, &targets, &StepPlan::baseline(), &instruments)
            .unwrap()
            .loss;
        let lm = step(&minus, &xs, &targets, &StepPlan::baseline(), &instruments)
            .unwrap()
            .loss;
        let numeric = (lp - lm) / (2.0 * eps as f64);
        let rel = (analytic - numeric).abs() / analytic.abs().max(numeric.abs()).max(1e-4);
        assert!(rel > 0.05, "checker failed to flag a wrong gradient: {rel}");
    }
}
