//! Full-BPTT finite-difference gradient checks on a 2-layer model,
//! across every training strategy and both execution engines (PR
//! satellite: gradcheck × {Baseline, MS1, CombinedMs} × {serial,
//! sharded-parallel}).
//!
//! Tolerance note: the model computes in `f32`, so a central difference
//! `(L(w+ε) − L(w−ε)) / 2ε` at ε = 5e-3 carries roughly 1e-4 absolute
//! noise from rounding in the forward pass alone — a 1e-4 *relative*
//! bound is unattainable without an f64 forward. The repo-wide
//! contract (see `eta_lstm::core::gradcheck`) is `passes(0.05)` with
//! sub-resolution gradients excluded, which reliably separates correct
//! backward passes from broken ones (the corrupted-gradient test in
//! the gradcheck module shows wrong gradients land far above 0.05).

use eta_lstm::core::gradcheck::check_step_with;
use eta_lstm::core::layer::Instruments;
use eta_lstm::core::model::{LstmModel, StepPlan, StepResult};
use eta_lstm::core::ms1::Ms1Config;
use eta_lstm::core::ms2::SkipPlan;
use eta_lstm::core::ms3::{self, LossScaler, Ms3Config};
use eta_lstm::core::parallel::{train_step_sharded_ws, Parallelism};
use eta_lstm::core::{LstmConfig, Result, Targets, WorkspacePool};
use eta_lstm::tensor::{init, Matrix, Precision};

/// One training step through the engine entry, with freshly packed
/// panels and a fresh workspace pool.
fn sharded_step(
    model: &LstmModel,
    xs: &[Matrix],
    targets: &Targets,
    plan: &StepPlan,
    inst: &Instruments,
    par: &Parallelism,
) -> Result<StepResult> {
    train_step_sharded_ws(
        model,
        xs,
        targets,
        plan,
        inst,
        par,
        None,
        &mut WorkspacePool::new(),
    )
}

/// [`sharded_step`] on a single shard: the plain serial step.
fn step(
    model: &LstmModel,
    xs: &[Matrix],
    targets: &Targets,
    plan: &StepPlan,
    inst: &Instruments,
) -> Result<StepResult> {
    sharded_step(model, xs, targets, plan, inst, &Parallelism::serial())
}

const LAYERS: usize = 2;
const SEQ: usize = 6;

fn two_layer_case() -> (LstmModel, Vec<Matrix>, Targets) {
    let cfg = LstmConfig::builder()
        .input_size(5)
        .hidden_size(7)
        .layers(LAYERS)
        .seq_len(SEQ)
        .batch_size(4)
        .output_size(3)
        .build()
        .expect("valid config");
    let model = LstmModel::new(&cfg, 41);
    let xs: Vec<_> = (0..SEQ)
        .map(|t| init::uniform(4, 5, -1.0, 1.0, 100 + t as u64))
        .collect();
    (model, xs, Targets::Classes(vec![0, 1, 2, 0]))
}

/// The three strategies' step plans, pinned to exact-gradient settings
/// (MS1 threshold 0 keeps all P1 values; `SkipPlan::keep_all` drives
/// the MS2 skip machinery without dropping any cell — a pruning
/// threshold or a real skip plan approximates gradients *by design*
/// and has no finite-difference ground truth to check against).
fn strategy_plans() -> Vec<(&'static str, StepPlan)> {
    vec![
        ("baseline", StepPlan::baseline()),
        (
            "ms1",
            StepPlan {
                ms1: Some(Ms1Config { threshold: 0.0 }),
                ..StepPlan::baseline()
            },
        ),
        (
            "combined",
            StepPlan {
                ms1: Some(Ms1Config { threshold: 0.0 }),
                skip: Some(SkipPlan::keep_all(LAYERS, SEQ)),
                ..StepPlan::baseline()
            },
        ),
    ]
}

/// MS3 step plans × precision with their documented gradcheck
/// tolerances and finite-difference step sizes:
///
/// - **f32 storage** (k = 2, 4): the recompute path replays identical
///   f32 kernels, so the step is bit-identical to baseline and inherits
///   the repo-wide 0.05 contract at ε = 5e-3 unchanged.
/// - **bf16 storage** (k = 2, 4): stored activations round to an 8-bit
///   mantissa (relative step ~2⁻⁸ ≈ 0.4 %). The loss becomes a
///   staircase at that granularity, so the finite difference needs a
///   larger step (ε = 2e-2) to climb over the quantization plateaus,
///   and the analytic gradient — exact for the *quantized* forward
///   under the straight-through convention — can differ from the
///   secant by the rounding noise it steps over: tolerance 0.35.
/// - **f16 storage** (k = 2, 4): 10-bit mantissa (relative step
///   ~2⁻¹⁰ ≈ 0.1 %), four times finer than bf16, so ε = 1e-2 and
///   tolerance 0.15 suffice.
fn ms3_gradcheck_matrix() -> Vec<(&'static str, Ms3Config, f32, f64)> {
    let mut out = Vec::new();
    for k in [2usize, 4] {
        out.push(("ms3-f32", Ms3Config::new(k, Precision::F32), 5e-3, 0.05));
        out.push(("ms3-bf16", Ms3Config::new(k, Precision::Bf16), 2e-2, 0.35));
        out.push(("ms3-f16", Ms3Config::new(k, Precision::F16), 1e-2, 0.15));
    }
    out
}

#[test]
fn gradcheck_passes_for_every_strategy_and_engine() {
    let (model, xs, targets) = two_layer_case();
    let engines = [
        ("serial", Parallelism::serial()),
        ("parallel", Parallelism::with_threads(4)),
    ];
    for (strategy, plan) in strategy_plans() {
        for (engine, par) in &engines {
            let check = check_step_with(&model, &xs, &targets, &plan, par, 24, 5e-3, 7)
                .unwrap_or_else(|e| panic!("{strategy}/{engine} gradcheck errored: {e}"));
            assert!(
                check.passes(0.05),
                "{strategy}/{engine}: max relative gradient error {}",
                check.max_rel_error
            );
        }
    }
}

#[test]
fn gradcheck_passes_for_ms3_at_every_precision_and_interval() {
    let (model, xs, targets) = two_layer_case();
    for (label, cfg, eps, tolerance) in ms3_gradcheck_matrix() {
        let plan = StepPlan {
            ms3: Some(cfg),
            ..StepPlan::baseline()
        };
        let check = check_step_with(
            &model,
            &xs,
            &targets,
            &plan,
            &Parallelism::serial(),
            24,
            eps,
            7,
        )
        .unwrap_or_else(|e| panic!("{label} k={} gradcheck errored: {e}", cfg.k));
        assert!(
            check.passes(tolerance),
            "{label} k={}: max relative gradient error {} exceeds {tolerance}",
            cfg.k,
            check.max_rel_error
        );
    }
}

/// A power-of-two loss scale multiplies every intermediate gradient
/// exactly (backward is linear, ×2ⁿ is exact in f32 barring overflow),
/// so scaling by 1024 and unscaling must return **bit-identical**
/// gradients — the scaler moves range, never precision.
#[test]
fn loss_scaling_is_bitwise_invisible_in_unscaled_gradients() {
    let (model, xs, targets) = two_layer_case();
    let inst = Instruments::new();
    let base = step(&model, &xs, &targets, &StepPlan::baseline(), &inst).expect("baseline step");
    let scaled_plan = StepPlan {
        ms3: Some(Ms3Config::new(1, Precision::F32)),
        loss_scale: 1024.0,
        ..StepPlan::baseline()
    };
    let scaled = step(&model, &xs, &targets, &scaled_plan, &inst).expect("scaled step");
    assert_eq!(base.loss.to_bits(), scaled.loss.to_bits());
    assert!(!scaled.ms3_overflow);
    for (gb, gs) in base.grads.cells.iter().zip(scaled.grads.cells.iter()) {
        assert_eq!(&gb.dw, &gs.dw, "loss scaling leaked into dW");
        assert_eq!(&gb.du, &gs.du, "loss scaling leaked into dU");
        assert_eq!(&gb.db, &gs.db, "loss scaling leaked into db");
    }
    assert_eq!(&base.grads.head.dw, &scaled.grads.head.dw);
}

/// Overflow recovery, step level: an absurd loss scale drives the f32
/// backward to ±∞, the step must come back flagged (not poisoned-apply,
/// not an error), and the scaler must skip it and back off until the
/// scale re-enters the finite range.
#[test]
fn overflowed_step_is_flagged_and_scaler_recovers() {
    let (model, xs, targets) = two_layer_case();
    let inst = Instruments::new();
    let cfg = Ms3Config::new(2, Precision::F16);
    let mut scaler = LossScaler::new(&cfg);
    // Force the scaler far past any sane range: 2¹²⁶ × O(1) gradients
    // overflow f32 during backward accumulation.
    let mut scale = 2.0f32.powi(126);
    let mut skips = 0u32;
    loop {
        let plan = StepPlan {
            ms3: Some(cfg),
            loss_scale: scale,
            ..StepPlan::baseline()
        };
        let result =
            step(&model, &xs, &targets, &plan, &inst).expect("step must not error on overflow");
        if !result.ms3_overflow {
            // Recovered: the surviving gradients must be finite and the
            // backoff must have actually happened at least once.
            assert!(ms3::grads_are_finite(&result.grads));
            assert!(skips > 0, "2^126 never overflowed — injection failed");
            assert!(scaler.overflow_skips() as u32 == skips);
            break;
        }
        let apply = scaler.on_step(true);
        assert!(!apply, "an overflowed step must be skipped");
        skips += 1;
        scale *= 0.5;
        assert!(skips < 200, "scaler never recovered");
    }
}

/// Overflow detection, gradient level: a single injected ±∞ anywhere in
/// the gradient set must trip the finite-check that gates the optimizer
/// apply.
#[test]
fn injected_infinity_trips_the_finite_gate() {
    let (model, xs, targets) = two_layer_case();
    let inst = Instruments::new();
    let mut result =
        step(&model, &xs, &targets, &StepPlan::baseline(), &inst).expect("baseline step");
    assert!(ms3::grads_are_finite(&result.grads));
    result.grads.cells[0].dw.set(0, 0, f32::INFINITY);
    assert!(!ms3::grads_are_finite(&result.grads));
    result.grads.cells[0].dw.set(0, 0, 0.0);
    assert!(ms3::grads_are_finite(&result.grads));
    result.grads.head.dw.set(0, 0, f32::NAN);
    assert!(!ms3::grads_are_finite(&result.grads));
}

#[test]
fn serial_and_sharded_analytic_gradients_agree() {
    let (model, xs, targets) = two_layer_case();
    let inst = Instruments::new();
    for (strategy, plan) in strategy_plans() {
        let serial = step(&model, &xs, &targets, &plan, &inst).expect("serial step");
        let sharded = sharded_step(
            &model,
            &xs,
            &targets,
            &plan,
            &inst,
            &Parallelism::with_threads(4),
        )
        .expect("sharded step");
        assert!(
            (serial.loss - sharded.loss).abs() < 1e-9,
            "{strategy}: loss {} vs {}",
            serial.loss,
            sharded.loss
        );
        for (l, (gs, gp)) in serial
            .grads
            .cells
            .iter()
            .zip(sharded.grads.cells.iter())
            .enumerate()
        {
            assert!(
                gs.dw.rel_diff(&gp.dw) < 1e-5,
                "{strategy}: layer {l} dW rel diff {}",
                gs.dw.rel_diff(&gp.dw)
            );
            assert!(
                gs.du.rel_diff(&gp.du) < 1e-5,
                "{strategy}: layer {l} dU rel diff {}",
                gs.du.rel_diff(&gp.du)
            );
        }
        assert!(
            serial.grads.head.dw.rel_diff(&sharded.grads.head.dw) < 1e-5,
            "{strategy}: head dW diverges"
        );
    }
}
