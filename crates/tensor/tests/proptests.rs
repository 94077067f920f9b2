//! Property-based tests for the tensor substrate.

use eta_tensor::{
    activation, Matrix, PackedB, ParallelConfig, SparseVec, Store, TnAccScratch, TN_ACC_ROW_BLOCK,
};
use proptest::prelude::*;

/// Zero-seasoned random matrix: exact zeros are planted so the packed
/// kernels' zero-skip branches get exercised alongside the dense path.
fn seasoned(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = eta_tensor::init::uniform(rows, cols, -2.0, 2.0, seed);
    if !m.is_empty() {
        let n = m.len();
        for idx in 0..n / 5 {
            let flat = (idx * 7 + seed as usize) % n;
            m.as_mut_slice()[flat] = 0.0;
        }
    }
    m
}

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Matrix::from_vec(r, c, v).unwrap())
    })
}

fn pair_same_shape(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let a = proptest::collection::vec(-10.0f32..10.0, r * c);
        let b = proptest::collection::vec(-10.0f32..10.0, r * c);
        (a, b).prop_map(move |(a, b)| {
            (
                Matrix::from_vec(r, c, a).unwrap(),
                Matrix::from_vec(r, c, b).unwrap(),
            )
        })
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_commutes((a, b) in pair_same_shape(8)) {
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn hadamard_commutes((a, b) in pair_same_shape(8)) {
        prop_assert_eq!(a.hadamard(&b).unwrap(), b.hadamard(&a).unwrap());
    }

    #[test]
    fn matmul_nt_matches_naive(
        (m, k, n) in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000
    ) {
        let mk = eta_tensor::init::uniform(m, k, -2.0, 2.0, seed);
        let nk = eta_tensor::init::uniform(n, k, -2.0, 2.0, seed.wrapping_add(1));
        let fast = mk.matmul_nt(&nk).unwrap();
        let slow = mk.matmul_nn(&nk.transpose()).unwrap();
        prop_assert!(fast.rel_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_tn_matches_naive(
        (k, m, n) in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000
    ) {
        let km = eta_tensor::init::uniform(k, m, -2.0, 2.0, seed);
        let kn = eta_tensor::init::uniform(k, n, -2.0, 2.0, seed.wrapping_add(1));
        let fast = km.matmul_tn(&kn).unwrap();
        let slow = km.transpose().matmul_nn(&kn).unwrap();
        prop_assert!(fast.rel_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_distributes_over_add(
        (a, (b, c)) in (1usize..5, 1usize..5, 1usize..5).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-3.0f32..3.0, m * k)
                .prop_map(move |v| Matrix::from_vec(m, k, v).unwrap());
            let b = proptest::collection::vec(-3.0f32..3.0, k * n)
                .prop_map(move |v| Matrix::from_vec(k, n, v).unwrap());
            let c = proptest::collection::vec(-3.0f32..3.0, k * n)
                .prop_map(move |v| Matrix::from_vec(k, n, v).unwrap());
            (a, (b, c))
        })
    ) {
        let lhs = a.matmul_nn(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul_nn(&b).unwrap().add(&a.matmul_nn(&c).unwrap()).unwrap();
        prop_assert!(lhs.rel_diff(&rhs) < 1e-4);
    }

    /// The PR 5 kernel contract: the packed register-blocked GEMMs are
    /// **bit-identical** to the naive reference loops for every
    /// orientation, across odd shapes — non-multiples of the 4×8 tile,
    /// degenerate 1×N / N×1 edges, and empty-k products (0 is included
    /// in every dimension range).
    #[test]
    fn packed_gemm_bit_identical_to_naive_all_orientations(
        (m, k, n) in (0usize..18, 0usize..18, 0usize..18),
        seed in 0u64..1000
    ) {
        let a_nn = seasoned(m, k, seed);
        let b_nn = seasoned(k, n, seed.wrapping_add(1));
        prop_assert_eq!(
            a_nn.matmul_nn_packed(&PackedB::from_nn(&b_nn)).unwrap(),
            a_nn.matmul_nn_naive(&b_nn).unwrap()
        );

        let b_nt = seasoned(n, k, seed.wrapping_add(2));
        prop_assert_eq!(
            a_nn.matmul_nt_packed(&PackedB::from_nt(&b_nt)).unwrap(),
            a_nn.matmul_nt_naive(&b_nt).unwrap()
        );

        let a_tn = seasoned(k, m, seed.wrapping_add(3));
        prop_assert_eq!(
            a_tn.matmul_tn_packed(&PackedB::from_nn(&b_nn)).unwrap(),
            a_tn.matmul_tn_naive(&b_nn).unwrap()
        );
    }

    /// The implicit entry points (which dispatch on PACK_MIN_FLOPS) and
    /// the threaded packed kernels agree bitwise with the naive loops at
    /// 1, 2 and 8 threads — the dispatch threshold and the row-block
    /// partitioning are latency knobs, never numeric ones.
    #[test]
    fn gemm_dispatch_and_parallel_bit_identical_to_naive(
        (m, k, n) in (1usize..12, 1usize..12, 1usize..12),
        force_parallel in proptest::bool::ANY,
        seed in 1000u64..2000
    ) {
        let a = seasoned(m, k, seed);
        let b_nn = seasoned(k, n, seed.wrapping_add(1));
        let b_nt = seasoned(n, k, seed.wrapping_add(2));
        let a_tn = seasoned(k, m, seed.wrapping_add(3));
        let naive_nn = a.matmul_nn_naive(&b_nn).unwrap();
        let naive_nt = a.matmul_nt_naive(&b_nt).unwrap();
        let naive_tn = a_tn.matmul_tn_naive(&b_nn).unwrap();

        prop_assert_eq!(&a.matmul_nn(&b_nn).unwrap(), &naive_nn);
        prop_assert_eq!(&a.matmul_nt(&b_nt).unwrap(), &naive_nt);
        prop_assert_eq!(&a_tn.matmul_tn(&b_nn).unwrap(), &naive_tn);

        for threads in [1usize, 2, 8] {
            let mut cfg = ParallelConfig::with_threads(threads);
            if force_parallel {
                cfg.min_kernel_flops = 1;
            }
            let mut nn = Matrix::zeros(m, n);
            a.matmul_nn_packed_into(&PackedB::from_nn_par(&b_nn, &cfg), &mut nn, Store::Assign, &cfg)
                .unwrap();
            prop_assert_eq!(&nn, &naive_nn);
            let mut nt = Matrix::zeros(m, n);
            a.matmul_nt_packed_into(&PackedB::from_nt_par(&b_nt, &cfg), &mut nt, Store::Assign, &cfg)
                .unwrap();
            prop_assert_eq!(&nt, &naive_nt);
            let mut tn = Matrix::zeros(m, n);
            a_tn.matmul_tn_acc_into(&b_nn, &mut tn, &mut TnAccScratch::default(), &cfg)
                .unwrap();
            prop_assert_eq!(&tn, &naive_tn);
        }
    }

    /// The in-place accumulate/epilogue forms match their composed
    /// reference pipelines bitwise (product, add_assign, bias, map).
    /// The fused `tn` accumulate runs over `tn_m` output rows — several
    /// row blocks, the last one ragged — into a pre-seeded destination,
    /// and returns the row-by-row f64 L1 of the product it added.
    #[test]
    fn packed_into_forms_match_composed_reference(
        (m, k, n) in (1usize..10, 1usize..10, 1usize..10),
        tn_m in 1usize..4 * TN_ACC_ROW_BLOCK,
        threads in 1usize..4,
        seed in 2000u64..3000
    ) {
        let mut cfg = ParallelConfig::with_threads(threads);
        cfg.min_kernel_flops = 1;
        let a = seasoned(m, k, seed);
        let b_nt = seasoned(n, k, seed.wrapping_add(1));
        let pb = PackedB::from_nt(&b_nt);
        let base = seasoned(m, n, seed.wrapping_add(2));

        let mut acc = base.clone();
        a.matmul_nt_packed_into(&pb, &mut acc, Store::Add, &cfg).unwrap();
        let mut reference = base.clone();
        reference.add_assign(&a.matmul_nt_naive(&b_nt).unwrap()).unwrap();
        prop_assert_eq!(&acc, &reference);

        let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.25 - 1.0).collect();
        let mut fused = base.clone();
        a.matmul_nt_packed_epilogue(&pb, &mut fused, &cfg, |j, v| (v + bias[j]).tanh()).unwrap();
        let mut composed = base.clone();
        composed.add_assign(&a.matmul_nt_naive(&b_nt).unwrap()).unwrap();
        composed.add_row_broadcast(&bias).unwrap();
        composed.map_inplace(f32::tanh);
        prop_assert_eq!(&fused, &composed);

        let a_tn = seasoned(k, tn_m, seed.wrapping_add(3));
        let rhs = seasoned(k, n, seed.wrapping_add(4));
        let mut dw = seasoned(tn_m, n, seed.wrapping_add(5));
        let mut dw_ref = dw.clone();
        let mut scratch = TnAccScratch::default();
        let l1 = a_tn.matmul_tn_acc_into(&rhs, &mut dw, &mut scratch, &cfg).unwrap();
        let product = a_tn.matmul_tn_naive(&rhs).unwrap();
        dw_ref.add_assign(&product).unwrap();
        prop_assert_eq!(&dw, &dw_ref);
        prop_assert_eq!(l1.to_bits(), product.abs_sum().to_bits());
    }

    #[test]
    fn sparse_roundtrip_preserves_kept_values(
        dense in proptest::collection::vec(-1.0f32..1.0, 0..64),
        threshold in 0.0f32..0.5
    ) {
        let sv = SparseVec::compress(&dense, threshold);
        let decoded = sv.decode();
        prop_assert_eq!(decoded.len(), dense.len());
        for (orig, dec) in dense.iter().zip(decoded.iter()) {
            if orig.abs() >= threshold {
                prop_assert_eq!(orig, dec);
            } else {
                prop_assert_eq!(*dec, 0.0);
            }
        }
    }

    #[test]
    fn sparse_nnz_monotone_in_threshold(
        dense in proptest::collection::vec(-1.0f32..1.0, 1..64),
        t1 in 0.0f32..0.5,
        t2 in 0.0f32..0.5
    ) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let a = SparseVec::compress(&dense, lo);
        let b = SparseVec::compress(&dense, hi);
        prop_assert!(a.nnz() >= b.nnz());
    }

    #[test]
    fn sparse_mul_dense_matches_dense_path(
        dense in proptest::collection::vec(-1.0f32..1.0, 1..64),
        seed in 0u64..100
    ) {
        let grad = eta_tensor::init::uniform(1, dense.len(), -2.0, 2.0, seed);
        let sv = SparseVec::compress(&dense, 0.1);
        let sparse_out = sv.mul_dense(grad.as_slice());
        for (i, (&d, &g)) in dense.iter().zip(grad.as_slice().iter()).enumerate() {
            let expect = if d.abs() >= 0.1 { d * g } else { 0.0 };
            prop_assert!((sparse_out[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_output_in_unit_interval(x in -50.0f32..50.0) {
        let y = activation::sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&y));
    }

    #[test]
    fn tanh_output_in_unit_ball(x in -50.0f32..50.0) {
        let y = activation::tanh(x);
        prop_assert!((-1.0..=1.0).contains(&y));
    }

    #[test]
    fn softmax_is_distribution(v in proptest::collection::vec(-5.0f32..5.0, 1..16)) {
        let p = activation::softmax(&v);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }
}
