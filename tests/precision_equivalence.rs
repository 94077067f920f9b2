//! The MS3 numerical contract (PR satellite: precision-equivalence
//! suite).
//!
//! Three layers of proof, cheapest to strongest:
//!
//! 1. **Exhaustive format coverage** — every one of the 65 536 f16 bit
//!    patterns (and every bf16 pattern) survives the widen → narrow
//!    round trip exactly; narrowing is idempotent.
//! 2. **Correct rounding (RNE)** — the fast conversion kernels agree
//!    with a brute-force nearest-value-ties-to-even reference on
//!    arbitrary f32 inputs, subnormals, overflow boundary and all.
//! 3. **MS3 neutrality** — an MS3 training step with f32 storage is
//!    **bit-identical** to the baseline step at *any*
//!    checkpoint interval: recompute replays the same f32 kernels on
//!    the same seeds, so `k` must not perturb a single ulp. (`k = 1`
//!    is the ISSUE's headline contract; `k ∈ {2, 4}` additionally pins
//!    the recompute path itself.)

use eta_lstm::core::layer::Instruments;
use eta_lstm::core::model::{LstmModel, StepPlan, StepResult};
use eta_lstm::core::ms3::Ms3Config;
use eta_lstm::core::parallel::{train_step_sharded_ws, Parallelism};
use eta_lstm::core::{LstmConfig, Result, Targets, WorkspacePool};
use eta_lstm::tensor::lowp::{
    bf16_bits_to_f32, f16_bits_to_f32, f16_nearest_reference, f32_to_bf16_bits, f32_to_f16_bits,
    quantize,
};
use eta_lstm::tensor::{init, Matrix, Precision};
use proptest::prelude::*;

/// One serial training step through the engine entry, with freshly
/// packed panels and a fresh workspace pool.
fn step(
    model: &LstmModel,
    xs: &[Matrix],
    targets: &Targets,
    plan: &StepPlan,
    inst: &Instruments,
) -> Result<StepResult> {
    let par = Parallelism::serial();
    train_step_sharded_ws(
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

// ---------------------------------------------------------------------
// 1. Exhaustive format coverage
// ---------------------------------------------------------------------

/// Every non-NaN f16 bit pattern is exactly representable in f32 and
/// must narrow back to the identical bits; NaN patterns must stay NaN
/// (the kernel quiets payloads, so bit equality is not required).
#[test]
fn f16_widen_narrow_is_identity_on_all_65536_patterns() {
    for bits in 0u16..=u16::MAX {
        let wide = f16_bits_to_f32(bits);
        if wide.is_nan() {
            assert!(
                f16_bits_to_f32(f32_to_f16_bits(wide)).is_nan(),
                "NaN pattern {bits:#06x} left the NaN space"
            );
            continue;
        }
        assert_eq!(
            f32_to_f16_bits(wide),
            bits,
            "pattern {bits:#06x} (= {wide}) did not round-trip"
        );
        // Idempotence: quantizing an exactly-representable value is a
        // no-op.
        assert_eq!(quantize(Precision::F16, wide).to_bits(), wide.to_bits());
    }
}

/// Same contract for bf16 (trivial by construction — bf16 is a bit
/// prefix of f32 — but the rounding-add in the kernel must not disturb
/// exact values).
#[test]
fn bf16_widen_narrow_is_identity_on_all_patterns() {
    for bits in 0u16..=u16::MAX {
        let wide = bf16_bits_to_f32(bits);
        if wide.is_nan() {
            assert!(bf16_bits_to_f32(f32_to_bf16_bits(wide)).is_nan());
            continue;
        }
        assert_eq!(f32_to_bf16_bits(wide), bits);
        assert_eq!(quantize(Precision::Bf16, wide).to_bits(), wide.to_bits());
    }
}

// ---------------------------------------------------------------------
// 2. Correct rounding against brute-force references
// ---------------------------------------------------------------------

/// Brute-force correctly-rounded bf16 reference, mirroring
/// `lowp::f16_nearest_reference`: scan every candidate, pick the
/// nearest, break ties toward the even significand. Infinity counts as
/// the carried-out value 2^128 for distance purposes.
fn bf16_nearest_reference(x: f32) -> u16 {
    if x.is_nan() {
        return f32_to_bf16_bits(x);
    }
    // Saturate before measuring distances so an infinite input still
    // orders the candidates sensibly (mirrors the f16 reference).
    let xd = (x as f64).clamp(-(2.0f64.powi(129)), 2.0f64.powi(129));
    let mut best_bits = 0u16;
    let mut best_err = f64::INFINITY;
    for cand in 0u16..=u16::MAX {
        let v = bf16_bits_to_f32(cand);
        if v.is_nan() {
            continue;
        }
        let vv = if v.is_infinite() {
            (v.signum() as f64) * 2.0f64.powi(128)
        } else {
            v as f64
        };
        let err = (xd - vv).abs();
        if err < best_err || (err == best_err && (cand & 1 == 0) && (best_bits & 1 == 1)) {
            best_err = err;
            best_bits = cand;
        }
    }
    if best_bits & 0x7fff == 0 {
        return if x.is_sign_negative() { 0x8000 } else { 0x0000 };
    }
    best_bits
}

/// Boundary magnitudes around the f16 subnormal and overflow edges,
/// where uniform bit sampling rarely lands.
const F16_BOUNDARY_MAGS: [f32; 9] = [
    6.0e-8, 6.2e-8, 5.96e-8, 6.1e-5, 6.0e-5, 65503.0, 65504.5, 65519.9, 65520.1,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fast f16 kernel is correctly rounded for arbitrary f32 bit
    /// patterns (subnormal, overflow and underflow regions included).
    #[test]
    fn f16_kernel_matches_nearest_even_reference(bits in 0u32..=u32::MAX) {
        let x = f32::from_bits(bits);
        if !x.is_nan() {
            prop_assert!(
                f32_to_f16_bits(x) == f16_nearest_reference(x),
                "f16 kernel mis-rounds {} ({:#010x})", x, bits
            );
        }
    }

    /// Likewise in the numerically interesting band around the f16
    /// subnormal/overflow boundaries.
    #[test]
    fn f16_kernel_matches_reference_near_boundaries(
        pick in 0usize..F16_BOUNDARY_MAGS.len(),
        jitter in -0.02f32..0.02,
        neg in proptest::bool::ANY,
    ) {
        let x = F16_BOUNDARY_MAGS[pick] * (1.0 + jitter) * if neg { -1.0 } else { 1.0 };
        prop_assert_eq!(f32_to_f16_bits(x), f16_nearest_reference(x));
    }

    /// The fast bf16 kernel is correctly rounded for arbitrary f32 bit
    /// patterns.
    #[test]
    fn bf16_kernel_matches_nearest_even_reference(bits in 0u32..=u32::MAX) {
        let x = f32::from_bits(bits);
        if !x.is_nan() {
            prop_assert!(
                f32_to_bf16_bits(x) == bf16_nearest_reference(x),
                "bf16 kernel mis-rounds {} ({:#010x})", x, bits
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. MS3 with f32 storage is bitwise-baseline at every k
// ---------------------------------------------------------------------

fn random_case(
    input: usize,
    hidden: usize,
    layers: usize,
    seq: usize,
    batch: usize,
    seed: u64,
) -> (LstmModel, Vec<Matrix>, Targets) {
    let classes = 3usize;
    let cfg = LstmConfig::builder()
        .input_size(input)
        .hidden_size(hidden)
        .layers(layers)
        .seq_len(seq)
        .batch_size(batch)
        .output_size(classes)
        .build()
        .expect("valid config");
    let model = LstmModel::new(&cfg, seed);
    let xs: Vec<_> = (0..seq)
        .map(|t| init::uniform(batch, input, -1.0, 1.0, seed + t as u64))
        .collect();
    let targets = Targets::Classes((0..batch).map(|i| i % classes).collect());
    (model, xs, targets)
}

fn assert_bitwise_equal(base: &StepResult, ms3: &StepResult, label: &str) {
    assert_eq!(
        base.loss.to_bits(),
        ms3.loss.to_bits(),
        "{label}: loss diverged"
    );
    for (l, (gb, gm)) in base
        .grads
        .cells
        .iter()
        .zip(ms3.grads.cells.iter())
        .enumerate()
    {
        assert_eq!(&gb.dw, &gm.dw, "{label}: layer {l} dW diverged");
        assert_eq!(&gb.du, &gm.du, "{label}: layer {l} dU diverged");
        assert_eq!(&gb.db, &gm.db, "{label}: layer {l} db diverged");
    }
    assert_eq!(
        &base.grads.head.dw, &ms3.grads.head.dw,
        "{label}: head dW diverged"
    );
    assert_eq!(
        base.magnitudes, ms3.magnitudes,
        "{label}: gradient magnitudes diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MS3 with f32 storage must be bit-identical to the baseline step
    /// for k ∈ {1, 2, 4}: k = 1 exercises the "MS3 wiring is inert"
    /// contract, k > 1 exercises checkpoint + recompute (which replays
    /// the identical f32 kernels on the identical seeds).
    #[test]
    fn ms3_f32_storage_is_bitwise_baseline(
        input in 2usize..8,
        hidden in 2usize..10,
        layers in 1usize..4,
        seq in 2usize..9,
        batch in 1usize..6,
        seed in 0u64..1000,
    ) {
        let (model, xs, targets) = random_case(input, hidden, layers, seq, batch, seed);
        let inst = Instruments::new();
        let base = step(&model, &xs, &targets, &StepPlan::baseline(), &inst)
            .expect("baseline step");
        for k in [1usize, 2, 4] {
            let plan = StepPlan {
                ms3: Some(Ms3Config::new(k, Precision::F32)),
                ..StepPlan::baseline()
            };
            let ms3 = step(&model, &xs, &targets, &plan, &inst)
                .expect("ms3 step");
            assert_bitwise_equal(&base, &ms3, &format!("k={k}"));
            prop_assert!(!ms3.ms3_overflow);
            if k == 1 {
                prop_assert!(ms3.ms3_recompute_cells == 0, "k=1 must not recompute");
            } else if seq > k {
                prop_assert!(
                    ms3.ms3_recompute_cells > 0,
                    "k={} on seq {} never hit the recompute path", k, seq
                );
            }
            prop_assert!(!ms3.ms3_conv.any(), "f32 storage counted range events");
        }
    }

    /// Per-timestep losses exercise the other backward entry (dys fed at
    /// every step); the same bitwise contract must hold.
    #[test]
    fn ms3_f32_storage_is_bitwise_baseline_step_targets(
        hidden in 2usize..8,
        seq in 3usize..8,
        batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (model, xs, _) = random_case(4, hidden, 2, seq, batch, seed);
        let targets = Targets::StepClasses(vec![(0..batch).map(|i| i % 3).collect(); seq]);
        let inst = Instruments::new();
        let base = step(&model, &xs, &targets, &StepPlan::baseline(), &inst)
            .expect("baseline step");
        let plan = StepPlan {
            ms3: Some(Ms3Config::new(4, Precision::F32)),
            ..StepPlan::baseline()
        };
        let ms3 = step(&model, &xs, &targets, &plan, &inst).expect("ms3 step");
        assert_bitwise_equal(&base, &ms3, "step-targets k=4");
    }

    /// Narrow storage changes values but must stay deterministic: the
    /// same step twice gives bit-identical results, and a recomputed
    /// tape (k = 4) is byte-identical to the stored one (k = 1) because
    /// quantization is a pure function of the stored seeds.
    #[test]
    fn ms3_narrow_storage_is_deterministic_and_k_invariant(
        hidden in 2usize..8,
        seq in 3usize..8,
        batch in 1usize..5,
        seed in 0u64..1000,
        f16 in proptest::bool::ANY,
    ) {
        let precision = if f16 { Precision::F16 } else { Precision::Bf16 };
        let (model, xs, targets) = random_case(4, hidden, 2, seq, batch, seed);
        let inst = Instruments::new();
        let step = |k: usize| {
            let plan = StepPlan {
                ms3: Some(Ms3Config::new(k, precision)),
                ..StepPlan::baseline()
            };
            step(&model, &xs, &targets, &plan, &inst).expect("ms3 step")
        };
        let a = step(1);
        let b = step(1);
        assert_bitwise_equal(&a, &b, &format!("{precision} determinism"));
        let c = step(4);
        assert_bitwise_equal(&a, &c, &format!("{precision} k-invariance"));
    }
}
