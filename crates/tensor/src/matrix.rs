//! Row-major dense `f32` matrix and the linear-algebra kernels LSTM
//! training needs.
//!
//! Batched activations are stored as `[batch, features]` matrices; weight
//! matrices as `[out, in]`. The three GEMM orientations used by LSTM
//! training map to:
//!
//! - forward `W x`: [`Matrix::matmul_nt`] (`x` is `[batch, in]`, result
//!   `[batch, out]` via `x · Wᵀ`)
//! - input gradient `Wᵀ δ`: [`Matrix::matmul_nn`] (`δ · W`)
//! - weight gradient `δ ⊗ x`: [`Matrix::matmul_tn`] (`δᵀ · x`)

use crate::kernels::{self, Store};
use crate::pack::PackedB;
use crate::parallel::ParallelConfig;
use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// Below this many fused multiply-adds (`m * k * n`) the `matmul_*`
/// entry points run the naive reference loops instead of packing B for
/// the register-blocked kernels: packing costs `O(k · n)` writes, which
/// only amortizes once the product is large enough. Results are
/// bit-identical on both sides, so the threshold is purely a latency
/// knob.
pub const PACK_MIN_FLOPS: usize = 32 * 32 * 32;

/// Output rows per block of [`Matrix::matmul_tn_acc_into`]: each block
/// of the product is built in [`TnAccScratch`], then added into the
/// destination and measured while it is still in cache. A multiple of
/// both register-tile heights (4 scalar, 6 SIMD), so full blocks carry
/// no edge rows. Latency-only: neither the sum nor the L1 depends on it.
pub const TN_ACC_ROW_BLOCK: usize = 24;

/// Caller-owned scratch of [`Matrix::matmul_tn_acc_into`]: the packed
/// right operand, one product block (plus its transposed A rows on the
/// SIMD tier) per worker, and one L1 partial per output row. Buffers
/// grow to the largest shape seen and are reused after that, so the
/// per-timestep weight-gradient GEMM allocates nothing once warm.
#[derive(Debug, Clone, Default)]
pub struct TnAccScratch {
    rhs: PackedB,
    blocks: Vec<f32>,
    row_l1: Vec<f64>,
}

impl TnAccScratch {
    /// Bytes currently held.
    pub fn size_bytes(&self) -> u64 {
        self.rhs.size_bytes() + (self.blocks.len() * 4 + self.row_l1.len() * 8) as u64
    }
}

/// Serial body of [`Matrix::matmul_tn_acc_into`] over the output rows
/// `row0..row0 + out_rows.len() / n` of `Aᵀ · B`, where `a` is the full
/// `[k, m]` A buffer. `block` holds this worker's scratch and `row_l1`
/// receives one L1 partial per output row.
#[allow(clippy::too_many_arguments)]
fn tn_acc_rows(
    a: &[f32],
    m: usize,
    k: usize,
    pb: &PackedB,
    simd: bool,
    row0: usize,
    out_rows: &mut [f32],
    block: &mut [f32],
    row_l1: &mut [f64],
) {
    let n = pb.n();
    debug_assert!(n > 0 && m > 0);
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(block.len(), TN_ACC_ROW_BLOCK * (k + n));
    let (at, prod) = block.split_at_mut(TN_ACC_ROW_BLOCK * k);
    for (b, (out_blk, l1)) in out_rows
        .chunks_mut(TN_ACC_ROW_BLOCK * n)
        .zip(row_l1.chunks_mut(TN_ACC_ROW_BLOCK))
        .enumerate()
    {
        let r0 = row0 + b * TN_ACC_ROW_BLOCK;
        let rows = out_blk.len() / n;
        debug_assert!(rows <= TN_ACC_ROW_BLOCK && r0 + rows <= m);
        let prod = &mut prod[..rows * n];
        if simd {
            // tn's SIMD layout (see `matmul_tn_packed`), one block at a
            // time: these A columns become the rows of a small
            // transposed block that the streaming row kernel reads.
            let at = &mut at[..rows * k];
            for (p, a_row) in a.chunks_exact(m).enumerate() {
                for (dst, &v) in at.chunks_exact_mut(k).zip(&a_row[r0..r0 + rows]) {
                    debug_assert!(p < dst.len());
                    dst[p] = v;
                }
            }
            crate::simd::gemm_rows_nn_unrecorded(at, rows, k, pb, prod, Store::Assign);
        } else {
            kernels::gemm_tn_rows_unrecorded(a, m, k, r0, rows, pb, prod, Store::Assign);
        }
        add_and_measure_rows(out_blk, prod, n, l1);
    }
}

/// `out += prod` over rows of width `n`, writing each row's L1
/// (`Σ_j |prod[r][j]|` in f64, ascending `j`) into `row_l1`. Rows run
/// four at a time so their sums proceed as independent dependency
/// chains; each row's sum is still the plain sequential one.
fn add_and_measure_rows(out: &mut [f32], prod: &[f32], n: usize, row_l1: &mut [f64]) {
    debug_assert_eq!(out.len(), row_l1.len() * n);
    debug_assert_eq!(prod.len(), out.len());
    let quads = row_l1.len() / 4 * 4;
    let (out4, out1) = out.split_at_mut(quads * n);
    let (prod4, prod1) = prod.split_at(quads * n);
    let (l1_4, l1_1) = row_l1.split_at_mut(quads);
    for ((o, p), l1) in out4
        .chunks_exact_mut(4 * n)
        .zip(prod4.chunks_exact(4 * n))
        .zip(l1_4.chunks_exact_mut(4))
    {
        let (o01, o23) = o.split_at_mut(2 * n);
        let (o0, o1) = o01.split_at_mut(n);
        let (o2, o3) = o23.split_at_mut(n);
        let (p01, p23) = p.split_at(2 * n);
        let (p0, p1) = p01.split_at(n);
        let (p2, p3) = p23.split_at(n);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for ((((a0, &b0), (a1, &b1)), (a2, &b2)), (a3, &b3)) in o0
            .iter_mut()
            .zip(p0)
            .zip(o1.iter_mut().zip(p1))
            .zip(o2.iter_mut().zip(p2))
            .zip(o3.iter_mut().zip(p3))
        {
            *a0 += b0;
            *a1 += b1;
            *a2 += b2;
            *a3 += b3;
            s0 += f64::from(b0.abs());
            s1 += f64::from(b1.abs());
            s2 += f64::from(b2.abs());
            s3 += f64::from(b3.abs());
        }
        l1.copy_from_slice(&[s0, s1, s2, s3]);
    }
    for ((o, p), l1) in out1
        .chunks_exact_mut(n)
        .zip(prod1.chunks_exact(n))
        .zip(l1_1.iter_mut())
    {
        let mut acc = 0.0f64;
        for (a, &b) in o.iter_mut().zip(p) {
            *a += b;
            acc += f64::from(b.abs());
        }
        *l1 = acc;
    }
}

/// Per-row kernel shared by the serial and parallel `nn` paths:
/// `out_row += a_row · B` with the zero-skip the serial kernel uses.
/// Keeping one implementation guarantees the parallel panels are
/// bit-identical to the serial sweep.
#[inline]
fn nn_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    debug_assert_eq!(b.len(), a_row.len() * n);
    for (p, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row = &b[p * n..(p + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += a * bv;
        }
    }
}

/// Per-row kernel shared by the serial and parallel `nt` paths:
/// `out_row[j] = a_row · b_row_j`.
#[inline]
fn nt_row(a_row: &[f32], b: &[f32], k: usize, out_row: &mut [f32]) {
    debug_assert_eq!(b.len(), out_row.len() * k);
    for (j, o) in out_row.iter_mut().enumerate() {
        let b_row = &b[j * k..(j + 1) * k];
        let mut acc = 0.0f32;
        for (&x, &y) in a_row.iter().zip(b_row.iter()) {
            acc += x * y;
        }
        *o = acc;
    }
}

/// A dense row-major `f32` matrix.
///
/// # Example
///
/// ```
/// use eta_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
/// assert_eq!(m.get(0, 0), 1.0);
/// assert_eq!(m.get(0, 1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every element `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing buffer in bytes (4 bytes per `f32`).
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// The whole backing buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a slice of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Cache-blocked transpose (32×32 tiles so both the source rows and
    /// destination rows of a tile fit in L1 together). Bit-identical to
    /// [`Matrix::transpose`] — it moves values, never computes — and
    /// used by the SIMD `tn` path, which transposes A once so the
    /// streaming row kernel can read it contiguously instead of
    /// striding down columns. O(r·c) copies next to the O(r·c·n) GEMM
    /// that follows.
    pub(crate) fn transposed_blocked(&self) -> Matrix {
        const TB: usize = 32;
        let (r, c) = (self.rows, self.cols);
        let mut out = Matrix::zeros(c, r);
        for i0 in (0..r).step_by(TB) {
            let ih = TB.min(r - i0);
            for j0 in (0..c).step_by(TB) {
                let jw = TB.min(c - j0);
                for i in i0..i0 + ih {
                    for j in j0..j0 + jw {
                        out.data[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        out
    }

    /// `self · rhs` with both operands untransposed:
    /// `[m, k] · [k, n] -> [m, n]`.
    ///
    /// Above [`PACK_MIN_FLOPS`] the product runs through the packed
    /// register-blocked kernel; results are bit-identical to
    /// [`Matrix::matmul_nn_naive`] either way.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul_nn(&self, rhs: &Matrix) -> Result<Matrix> {
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        if self.cols == rhs.rows && m * k * n >= PACK_MIN_FLOPS {
            return self.matmul_nn_packed(&PackedB::from_nn(rhs));
        }
        self.matmul_nn_naive(rhs)
    }

    /// Naive reference `self · rhs`: one row-loop per output row with a
    /// zero-skip on the A element. The packed kernels are defined (and
    /// proptested) to be bit-identical to this loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul_nn_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nn",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            nn_row(a_row, &rhs.data, n, &mut out.data[i * n..(i + 1) * n]);
        }
        Ok(out)
    }

    /// `self · B` against an already-packed B (`[k, n]` packed with
    /// [`PackedB::from_nn`]) — always the register-blocked kernel, so
    /// callers holding a panel cache (LSTM weights) skip both the
    /// dispatch and the packing.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != pb.k()`.
    pub fn matmul_nn_packed(&self, pb: &PackedB) -> Result<Matrix> {
        if self.cols != pb.k() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nn_packed",
                lhs: (self.rows, self.cols),
                rhs: (pb.k(), pb.n()),
            });
        }
        let (m, k) = (self.rows, self.cols);
        let mut out = Matrix::zeros(m, pb.n());
        if crate::simd::use_simd(m, k, pb.n()) {
            crate::simd::gemm_rows_nn(&self.data, m, k, pb, &mut out.data, Store::Assign);
        } else {
            kernels::gemm_nn_rows(&self.data, m, k, pb, &mut out.data, Store::Assign);
        }
        Ok(out)
    }

    /// `self · rhsᵀ`: `[m, k] · [n, k]ᵀ -> [m, n]`.
    ///
    /// This is the forward-propagation orientation: activations
    /// `[batch, in] · W[out, in]ᵀ -> [batch, out]`. Above
    /// [`PACK_MIN_FLOPS`] the product runs through the packed
    /// register-blocked kernel; results are bit-identical to
    /// [`Matrix::matmul_nt_naive`] either way.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix> {
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        if self.cols == rhs.cols && m * k * n >= PACK_MIN_FLOPS {
            return self.matmul_nt_packed(&PackedB::from_nt(rhs));
        }
        self.matmul_nt_naive(rhs)
    }

    /// Naive reference `self · rhsᵀ`: one dot-product accumulator per
    /// output element, no zero-skip. The packed kernels are defined
    /// (and proptested) to be bit-identical to this loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.cols`.
    pub fn matmul_nt_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            nt_row(a_row, &rhs.data, k, &mut out.data[i * n..(i + 1) * n]);
        }
        Ok(out)
    }

    /// `self · Bᵀ` against an already-packed B (`[n, k]` packed with
    /// [`PackedB::from_nt`]) — always the register-blocked kernel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != pb.k()`.
    pub fn matmul_nt_packed(&self, pb: &PackedB) -> Result<Matrix> {
        if self.cols != pb.k() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt_packed",
                lhs: (self.rows, self.cols),
                rhs: (pb.n(), pb.k()),
            });
        }
        let (m, k) = (self.rows, self.cols);
        let mut out = Matrix::zeros(m, pb.n());
        if crate::simd::use_simd(m, k, pb.n()) {
            crate::simd::gemm_rows_nt(&self.data, m, k, pb, &mut out.data, Store::Assign);
        } else {
            kernels::gemm_nt_rows(&self.data, m, k, pb, &mut out.data, Store::Assign);
        }
        Ok(out)
    }

    /// In-place `out (+)= self · Bᵀ` against an already-packed B, with
    /// [`Store::Assign`] overwriting and [`Store::Add`] accumulating.
    /// The accumulating form still computes each product tile from zero
    /// and adds it once, so it is bit-identical to building the product
    /// separately and [`Matrix::add_assign`]-ing it. Row panels run in
    /// parallel when `cfg` allows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the operand widths or
    /// `out`'s shape do not match.
    pub fn matmul_nt_packed_into(
        &self,
        pb: &PackedB,
        out: &mut Matrix,
        store: Store,
        cfg: &ParallelConfig,
    ) -> Result<()> {
        let (m, k, n) = (self.rows, self.cols, pb.n());
        if self.cols != pb.k() || out.rows != m || out.cols != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt_packed_into",
                lhs: (self.rows, self.cols),
                rhs: (pb.n(), pb.k()),
            });
        }
        // The SIMD decision is a function of the FULL logical shape,
        // fixed before any row partitioning, so every worker (and the
        // serial sweep) lands on the same kernel family.
        let simd = crate::simd::use_simd(m, k, n);
        if !cfg.should_parallelize(m, k, n, m) {
            if simd {
                crate::simd::gemm_rows_nt(&self.data, m, k, pb, &mut out.data, store);
            } else {
                kernels::gemm_nt_rows(&self.data, m, k, pb, &mut out.data, store);
            }
            return Ok(());
        }
        let a = &self.data;
        Self::par_row_blocks(&mut out.data, m, n, cfg.threads, |row0, rows, chunk| {
            debug_assert!((row0 + rows) * k <= a.len());
            let a_rows = &a[row0 * k..(row0 + rows) * k];
            if simd {
                crate::simd::gemm_rows_nt(a_rows, rows, k, pb, chunk, store);
            } else {
                kernels::gemm_nt_rows(a_rows, rows, k, pb, chunk, store);
            }
        });
        Ok(())
    }

    /// In-place `out[i][j] = f(j, out[i][j] + (self · Bᵀ)[i][j])`
    /// against an already-packed B — the fused-epilogue hook the LSTM
    /// cell uses to fold bias addition and gate activation into the
    /// preactivation GEMM's store pass. Row panels run in parallel when
    /// `cfg` allows; `f` must be pure for that to be deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the operand widths or
    /// `out`'s shape do not match.
    pub fn matmul_nt_packed_epilogue<F: Fn(usize, f32) -> f32 + Sync>(
        &self,
        pb: &PackedB,
        out: &mut Matrix,
        cfg: &ParallelConfig,
        f: F,
    ) -> Result<()> {
        let (m, k, n) = (self.rows, self.cols, pb.n());
        if self.cols != pb.k() || out.rows != m || out.cols != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt_packed_epilogue",
                lhs: (self.rows, self.cols),
                rhs: (pb.n(), pb.k()),
            });
        }
        // Shape-global SIMD decision, same rationale as
        // `matmul_nt_packed_into`.
        let simd = crate::simd::use_simd(m, k, n);
        if !cfg.should_parallelize(m, k, n, m) {
            if simd {
                crate::simd::gemm_rows_nt_epilogue(&self.data, m, k, pb, &mut out.data, &f);
            } else {
                kernels::gemm_nt_rows_epilogue(&self.data, m, k, pb, &mut out.data, &f);
            }
            return Ok(());
        }
        let a = &self.data;
        let f = &f;
        Self::par_row_blocks(&mut out.data, m, n, cfg.threads, |row0, rows, chunk| {
            debug_assert!((row0 + rows) * k <= a.len());
            let a_rows = &a[row0 * k..(row0 + rows) * k];
            if simd {
                crate::simd::gemm_rows_nt_epilogue(a_rows, rows, k, pb, chunk, f);
            } else {
                kernels::gemm_nt_rows_epilogue(a_rows, rows, k, pb, chunk, f);
            }
        });
        Ok(())
    }

    /// `selfᵀ · rhs`: `[k, m]ᵀ · [k, n] -> [m, n]`.
    ///
    /// This is the weight-gradient orientation: gate gradients
    /// `[batch, out]ᵀ · x [batch, in] -> [out, in]` (the paper's outer
    /// product summed over the batch, Eq. 3). Above [`PACK_MIN_FLOPS`]
    /// the product runs through the packed register-blocked kernel;
    /// results are bit-identical to [`Matrix::matmul_tn_naive`] either
    /// way (the tiled kernel accumulates each output element over the
    /// same ascending batch order `p = 0..k`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows != rhs.rows`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix> {
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        if self.rows == rhs.rows && m * k * n >= PACK_MIN_FLOPS {
            return self.matmul_tn_packed(&PackedB::from_nn(rhs));
        }
        self.matmul_tn_naive(rhs)
    }

    /// Naive reference `selfᵀ · rhs`: `p`-outer sweep with a zero-skip
    /// on the A element, accumulating each output element in ascending
    /// `p`. The packed kernels are defined (and proptested) to be
    /// bit-identical to this loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows != rhs.rows`.
    pub fn matmul_tn_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for p in 0..k {
            let a_row = &self.data[p * m..(p + 1) * m];
            let b_row = &rhs.data[p * n..(p + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// `selfᵀ · B` against an already-packed B (`[k, n]` packed with
    /// [`PackedB::from_nn`]) — always the register-blocked kernel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows != pb.k()`.
    pub fn matmul_tn_packed(&self, pb: &PackedB) -> Result<Matrix> {
        if self.rows != pb.k() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn_packed",
                lhs: (self.rows, self.cols),
                rhs: (pb.k(), pb.n()),
            });
        }
        let (k, m) = (self.rows, self.cols);
        let mut out = Matrix::zeros(m, pb.n());
        if crate::simd::use_simd(m, k, pb.n()) {
            // The scalar `tn` kernel strides down A columns (stride
            // `m` floats per reduction step), which is the pathology
            // behind its 1.3x-over-naive plateau. The SIMD path gives
            // `tn` its own layout instead: a blocked transpose of A
            // into row-major `[m, k]`, after which the streaming row
            // kernel (contiguous A reads, L1-resident panel slices)
            // serves it exactly like `nn`.
            let at = self.transposed_blocked();
            crate::simd::gemm_rows_nn(&at.data, m, k, pb, &mut out.data, Store::Assign);
        } else {
            kernels::gemm_tn_rows(&self.data, m, k, 0, m, pb, &mut out.data, Store::Assign);
        }
        Ok(out)
    }

    /// Fused accumulate-and-measure `out += selfᵀ · rhs` — the
    /// weight-gradient hot path (`dW += δᵀ · x` at every timestep) —
    /// returning the f64 L1 norm of the product it added (the per-cell
    /// gradient magnitude MS2 calibrates on).
    ///
    /// The product is never materialized whole: `rhs` is packed into
    /// `scratch`, and each [`TN_ACC_ROW_BLOCK`]-row block of the product
    /// is built into a cache-resident scratch block, added into `out`
    /// and measured before the next block starts. Every product element
    /// is the same packed-kernel value [`Matrix::matmul_tn`] produces on
    /// the same dispatch tier, added to `out` once, so `out` ends up
    /// bit-identical to `matmul_tn` followed by [`Matrix::add_assign`].
    /// Blocks run in parallel when `cfg` allows. The L1 is
    /// [`Matrix::abs_sum`] of the product — one partial per row, added
    /// in row order — so it is identical at every thread count.
    /// Records one GEMM in [`crate::stats`] per call.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows != rhs.rows`
    /// or `out` is not `[self.cols, rhs.cols]`.
    pub fn matmul_tn_acc_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        scratch: &mut TnAccScratch,
        cfg: &ParallelConfig,
    ) -> Result<f64> {
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        if self.rows != rhs.rows || out.rows != m || out.cols != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn_acc_into",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        if m == 0 || n == 0 {
            return Ok(0.0);
        }
        let simd = crate::simd::use_simd(m, k, n);
        crate::stats::record_gemm(m, k, n);
        if simd {
            crate::stats::record_simd_dispatch();
        } else {
            crate::stats::record_scalar_fallback();
        }
        let workers = if cfg.should_parallelize(m, k, n, m) {
            cfg.threads.min(rayon::current_num_threads()).max(1)
        } else {
            1
        };
        // Workers own whole row blocks, so every block (and every
        // row's L1) is computed exactly as in the serial sweep.
        let rows_per_worker = m.div_ceil(TN_ACC_ROW_BLOCK).div_ceil(workers) * TN_ACC_ROW_BLOCK;
        let block_len = TN_ACC_ROW_BLOCK * (k + n);
        scratch.rhs.repack_nn(rhs);
        scratch.blocks.resize(workers * block_len, 0.0);
        scratch.row_l1.resize(m, 0.0);
        let TnAccScratch {
            rhs: pb,
            blocks,
            row_l1,
        } = scratch;
        let a = &self.data;
        if workers == 1 {
            tn_acc_rows(a, m, k, pb, simd, 0, &mut out.data, blocks, row_l1);
        } else {
            let pb = &*pb;
            rayon::scope(|scope| {
                for (w, ((out_rows, block), l1)) in out
                    .data
                    .chunks_mut(rows_per_worker * n)
                    .zip(blocks.chunks_mut(block_len))
                    .zip(row_l1.chunks_mut(rows_per_worker))
                    .enumerate()
                {
                    let row0 = w * rows_per_worker;
                    scope.spawn(move |_| {
                        tn_acc_rows(a, m, k, pb, simd, row0, out_rows, block, l1);
                    });
                }
            });
        }
        Ok(row_l1.iter().sum())
    }

    /// Splits an `[m, n]` output buffer into one disjoint row block per
    /// worker and runs `kernel(row0, rows, chunk)` on each block in a
    /// scoped thread. Blocks are a deterministic function of `(m,
    /// threads)` and each block is produced by the same serial kernel
    /// sweep it would see single-threaded, so the partitioning never
    /// changes results.
    fn par_row_blocks<K>(out: &mut [f32], m: usize, n: usize, threads: usize, kernel: K)
    where
        K: Fn(usize, usize, &mut [f32]) + Sync,
    {
        // One spawn per row block; clamping the block count to the
        // machine keeps the shim's thread-per-spawn model honest.
        // Partitioning is latency-only: each block still sees the same
        // serial kernel sweep, so results are unchanged.
        let threads = threads.min(rayon::current_num_threads()).max(1);
        let rows_per = m.div_ceil(threads).max(1);
        debug_assert!(rows_per.saturating_mul(threads) >= m);
        let kernel = &kernel;
        rayon::scope(|scope| {
            for (chunk_idx, chunk) in out.chunks_mut(rows_per * n).enumerate() {
                let row0 = chunk_idx * rows_per;
                scope.spawn(move |_| {
                    let rows = chunk.len() / n.max(1);
                    kernel(row0, rows, chunk);
                });
            }
        });
    }

    /// In-place `out (+)= self · B` against an already-packed B (`[k, n]`
    /// packed with [`PackedB::from_nn`]), bit-identical to
    /// [`Matrix::matmul_nn_packed`] under [`Store::Assign`]. Row panels
    /// run in parallel when `cfg` allows. The backward pass lands
    /// `δX`/`δH` here without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the operand widths or
    /// `out`'s shape do not match.
    pub fn matmul_nn_packed_into(
        &self,
        pb: &PackedB,
        out: &mut Matrix,
        store: Store,
        cfg: &ParallelConfig,
    ) -> Result<()> {
        let (m, k, n) = (self.rows, self.cols, pb.n());
        if self.cols != pb.k() || out.rows != m || out.cols != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nn_packed_into",
                lhs: (self.rows, self.cols),
                rhs: (pb.k(), pb.n()),
            });
        }
        let simd = crate::simd::use_simd(m, k, n);
        if !cfg.should_parallelize(m, k, n, m) {
            if simd {
                crate::simd::gemm_rows_nn(&self.data, m, k, pb, &mut out.data, store);
            } else {
                kernels::gemm_nn_rows(&self.data, m, k, pb, &mut out.data, store);
            }
            return Ok(());
        }
        let a = &self.data;
        Self::par_row_blocks(&mut out.data, m, n, cfg.threads, |row0, rows, chunk| {
            debug_assert!((row0 + rows) * k <= a.len());
            let a_rows = &a[row0 * k..(row0 + rows) * k];
            if simd {
                crate::simd::gemm_rows_nn(a_rows, rows, k, pb, chunk, store);
            } else {
                kernels::gemm_nn_rows(a_rows, rows, k, pb, chunk, store);
            }
        });
        Ok(())
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_map(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_map(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product `self ⊙ rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_map(rhs, "hadamard", |a, b| a * b)
    }

    /// In-place element-wise accumulation `self += rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled accumulation `self += alpha * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) -> Result<()> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Adds a broadcast row vector to every row (bias addition).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: (self.rows, self.cols),
                rhs: (1, bias.len()),
            });
        }
        for r in 0..self.rows {
            for (v, &b) in self.data[r * self.cols..(r + 1) * self.cols]
                .iter_mut()
                .zip(bias.iter())
            {
                *v += b;
            }
        }
        Ok(())
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise combination of two equally-shaped matrices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Sum of the absolute values of all elements (the "magnitude" measure
    /// used by the paper's Fig. 8 gradient analysis), in f64: one partial
    /// per row (ascending column), partials added in row order — the
    /// order [`Matrix::matmul_tn_acc_into`] measures its product in.
    pub fn abs_sum(&self) -> f64 {
        self.data
            .chunks(self.cols.max(1))
            .map(|row| row.iter().map(|v| f64::from(v.abs())).sum::<f64>())
            .sum()
    }

    /// Sum of squares of all elements.
    pub fn sq_sum(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Largest absolute element, or 0 for an empty matrix.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Number of elements with `|v| < threshold` — the near-zero
    /// population that MS1's compression exploits.
    pub fn count_below(&self, threshold: f32) -> usize {
        self.data.iter().filter(|v| v.abs() < threshold).count()
    }

    /// Outer product of two vectors given as slices:
    /// `lhs ⊗ rhs -> [lhs.len(), rhs.len()]`.
    pub fn outer(lhs: &[f32], rhs: &[f32]) -> Matrix {
        let mut out = Matrix::zeros(lhs.len(), rhs.len());
        for (i, &a) in lhs.iter().enumerate() {
            for (j, &b) in rhs.iter().enumerate() {
                out.data[i * rhs.len() + j] = a * b;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ.
    pub fn hcat(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "hcat",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            let (left, right) = out.row_mut(r).split_at_mut(self.cols);
            left.copy_from_slice(self.row(r));
            right.copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Returns rows `[start, start + count)` as a new matrix — the
    /// microbatch-sharding primitive (batch rows are independent
    /// through the whole LSTM, so a row slice trains bit-identically
    /// to the same rows inside a larger batch).
    ///
    /// # Panics
    ///
    /// Panics if `start + count > rows`.
    pub fn rows_slice(&self, start: usize, count: usize) -> Matrix {
        assert!(
            start <= self.rows && count <= self.rows - start,
            "row slice out of bounds"
        );
        Matrix {
            rows: count,
            cols: self.cols,
            data: self.data[start * self.cols..(start + count) * self.cols].to_vec(),
        }
    }

    /// Returns columns `[start, start + width)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start + width > cols`.
    pub fn col_slice(&self, start: usize, width: usize) -> Matrix {
        assert!(
            start <= self.cols && width <= self.cols - start,
            "column slice out of bounds"
        );
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            let row = self.row(r);
            debug_assert_eq!(row.len(), self.cols);
            out.row_mut(r).copy_from_slice(&row[start..start + width]);
        }
        out
    }

    /// Frobenius-norm relative difference between two matrices, used by
    /// gradient checking. Returns `‖a−b‖ / max(‖a‖, ‖b‖, ε)`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn rel_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.rows, rhs.rows, "rel_diff shape mismatch");
        assert_eq!(self.cols, rhs.cols, "rel_diff shape mismatch");
        let mut num = 0.0f64;
        for (&a, &b) in self.data.iter().zip(rhs.data.iter()) {
            num += ((a - b) as f64).powi(2);
        }
        let denom = self.sq_sum().sqrt().max(rhs.sq_sum().sqrt()).max(1e-12);
        num.sqrt() / denom
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn zeros_has_expected_shape() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn matmul_nn_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul_nn(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 0.5, 3.0, 4.0, -1.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, -1.0, 1.0, 0.0, 0.5, 0.5, 0.5, 2.0, -2.0, 1.0],
        );
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul_nn(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, -2.0, 0.5, 3.0, 4.0, -1.0]);
        let b = m(
            3,
            4,
            &[1.0, 0.0, 2.0, -1.0, 1.0, 0.0, 0.5, 0.5, 0.5, 2.0, -2.0, 1.0],
        );
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().matmul_nn(&b).unwrap();
        assert_eq!(fast, slow);
    }

    /// `[m, n]` product of the threaded packed kernels: `nn`/`nt` into
    /// a fresh buffer, `tn` accumulated onto zeros.
    fn threaded(a: &Matrix, b: &Matrix, orient: &str, cfg: &ParallelConfig) -> Result<Matrix> {
        match orient {
            "nn" => {
                let mut out = Matrix::zeros(a.rows, b.cols);
                a.matmul_nn_packed_into(
                    &PackedB::from_nn_par(b, cfg),
                    &mut out,
                    Store::Assign,
                    cfg,
                )?;
                Ok(out)
            }
            "nt" => {
                let mut out = Matrix::zeros(a.rows, b.rows);
                a.matmul_nt_packed_into(
                    &PackedB::from_nt_par(b, cfg),
                    &mut out,
                    Store::Assign,
                    cfg,
                )?;
                Ok(out)
            }
            _ => {
                let mut out = Matrix::zeros(a.cols, b.cols);
                a.matmul_tn_acc_into(b, &mut out, &mut TnAccScratch::default(), cfg)?;
                Ok(out)
            }
        }
    }

    /// The determinism contract of the η-parallel kernels: every
    /// orientation is **bit-identical** to its serial kernel at every
    /// thread count (not merely close), whether the row split is forced
    /// on modest shapes or taken naturally above the size threshold.
    #[test]
    fn parallel_kernels_are_bit_identical_to_serial() {
        use crate::init;
        let a = init::uniform(64, 48, -1.0, 1.0, 21);
        let b_nn = init::uniform(48, 40, -1.0, 1.0, 22);
        let b_nt = init::uniform(40, 48, -1.0, 1.0, 23);
        let b_tn = init::uniform(64, 40, -1.0, 1.0, 24);
        let big = init::uniform(256, 160, -1.0, 1.0, 11);
        let big_nt = init::uniform(200, 160, -1.0, 1.0, 12);
        for threads in [1usize, 2, 3, 5, 8] {
            let mut cfg = ParallelConfig::with_threads(threads);
            assert_eq!(
                threaded(&big, &big_nt, "nt", &cfg).unwrap(),
                big.matmul_nt(&big_nt).unwrap(),
                "natural nt threads={threads}"
            );
            cfg.min_kernel_flops = 1;
            for (orient, a, b, serial) in [
                ("nn", &a, &b_nn, a.matmul_nn(&b_nn)),
                ("nt", &a, &b_nt, a.matmul_nt(&b_nt)),
                ("tn", &a, &b_tn, a.matmul_tn(&b_tn)),
            ] {
                assert_eq!(
                    threaded(a, b, orient, &cfg).unwrap(),
                    serial.unwrap(),
                    "{orient} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_kernels_reject_shape_mismatches() {
        let cfg = ParallelConfig::with_threads(4);
        let a = Matrix::zeros(4, 6);
        assert!(threaded(&a, &Matrix::zeros(5, 4), "nn", &cfg).is_err());
        assert!(threaded(&a, &Matrix::zeros(4, 5), "nt", &cfg).is_err());
        assert!(threaded(&a, &Matrix::zeros(5, 4), "tn", &cfg).is_err());
    }

    #[test]
    fn rows_slice_extracts_contiguous_rows() {
        let a = m(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mid = a.rows_slice(1, 2);
        assert_eq!(mid.rows(), 2);
        assert_eq!(mid.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.rows_slice(0, 4), a);
        assert_eq!(a.rows_slice(4, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "row slice out of bounds")]
    fn rows_slice_rejects_out_of_bounds() {
        Matrix::zeros(2, 2).rows_slice(1, 2);
    }

    /// SIMD-vs-scalar closeness: ULP-close, or within the
    /// condition-scaled floor `2k·ε·Σ|a·b|` (cancellation-heavy
    /// elements have no meaningful relative bound).
    fn assert_gemm_close(got: &Matrix, reference: &Matrix, absref: &Matrix, k: usize) {
        let tol = 2.0 * k as f32 * f32::EPSILON;
        for ((idx, (&g, &r)), &ab) in got
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .enumerate()
            .zip(absref.as_slice())
        {
            let ulp_ok = g == r
                || (g.signum() == r.signum() && g.abs().to_bits().abs_diff(r.abs().to_bits()) <= 8);
            assert!(
                ulp_ok || (g - r).abs() <= tol * ab,
                "elem {idx}: {g} vs {r} (abs bound {})",
                tol * ab
            );
        }
    }

    #[test]
    fn packed_dispatch_is_bit_identical_to_naive() {
        use crate::init;
        // Above PACK_MIN_FLOPS: the implicit entry points take the
        // packed kernels. With SIMD disabled (or unsupported) the
        // scalar packed kernels must equal the naive loops bitwise;
        // with SIMD enabled the result is FMA-contracted, so the
        // contract weakens to the documented ULP/condition budget —
        // while the dispatch entry must still agree **bitwise** with
        // the explicit packed entry (same shape ⇒ same path).
        let a = init::uniform(65, 70, -2.0, 2.0, 5);
        let b_nn = init::uniform(70, 66, -2.0, 2.0, 6);
        let b_nt = init::uniform(66, 70, -2.0, 2.0, 7);
        let a_tn = init::uniform(70, 65, -2.0, 2.0, 8);
        let nn = a.matmul_nn(&b_nn).unwrap();
        let nt = a.matmul_nt(&b_nt).unwrap();
        let tn = a_tn.matmul_tn(&b_nn).unwrap();
        if crate::simd::enabled() {
            let k = 70;
            let abs_nn = a
                .map(f32::abs)
                .matmul_nn_naive(&b_nn.map(f32::abs))
                .unwrap();
            let abs_nt = a
                .map(f32::abs)
                .matmul_nt_naive(&b_nt.map(f32::abs))
                .unwrap();
            let abs_tn = a_tn
                .map(f32::abs)
                .matmul_tn_naive(&b_nn.map(f32::abs))
                .unwrap();
            assert_gemm_close(&nn, &a.matmul_nn_naive(&b_nn).unwrap(), &abs_nn, k);
            assert_gemm_close(&nt, &a.matmul_nt_naive(&b_nt).unwrap(), &abs_nt, k);
            assert_gemm_close(&tn, &a_tn.matmul_tn_naive(&b_nn).unwrap(), &abs_tn, k);
            assert_eq!(nn, a.matmul_nn_packed(&PackedB::from_nn(&b_nn)).unwrap());
            assert_eq!(nt, a.matmul_nt_packed(&PackedB::from_nt(&b_nt)).unwrap());
            assert_eq!(tn, a_tn.matmul_tn_packed(&PackedB::from_nn(&b_nn)).unwrap());
        } else {
            assert_eq!(nn, a.matmul_nn_naive(&b_nn).unwrap());
            assert_eq!(nt, a.matmul_nt_naive(&b_nt).unwrap());
            assert_eq!(tn, a_tn.matmul_tn_naive(&b_nn).unwrap());
        }
    }

    #[test]
    fn blocked_transpose_is_bit_identical_to_naive_transpose() {
        use crate::init;
        // Tile edges in both dimensions, plus degenerate shapes.
        for (r, c) in [(1usize, 1usize), (31, 33), (32, 32), (65, 100), (3, 200)] {
            let a = init::uniform(r, c, -2.0, 2.0, (r * 1000 + c) as u64);
            assert_eq!(a.transposed_blocked(), a.transpose(), "{r}x{c}");
        }
    }

    #[test]
    fn into_and_epilogue_forms_agree_with_dispatch_above_threshold() {
        use crate::init;
        // The cell's reference `forward` (dispatch) and `forward_into`
        // (packed workspace) paths must stay bitwise interchangeable
        // above the SIMD threshold — the dispatch decision is a
        // function of the full logical shape only.
        let cfg = ParallelConfig::serial();
        let x = init::uniform(48, 40, -1.0, 1.0, 51);
        let w = init::uniform(64, 40, -1.0, 1.0, 52);
        let pb = PackedB::from_nt(&w);
        let dispatch = x.matmul_nt(&w).unwrap();
        let mut into = Matrix::zeros(48, 64);
        x.matmul_nt_packed_into(&pb, &mut into, Store::Assign, &cfg)
            .unwrap();
        assert_eq!(dispatch, into);
        // Epilogue with identity transform equals Add onto zeros.
        let mut epi = Matrix::zeros(48, 64);
        x.matmul_nt_packed_epilogue(&pb, &mut epi, &cfg, |_, v| v)
            .unwrap();
        assert_eq!(dispatch, epi);
    }

    #[test]
    fn packed_apis_match_dispatch_and_reject_mismatches() {
        use crate::init;
        let cfg = ParallelConfig::with_threads(2);
        let a = init::uniform(9, 12, -1.0, 1.0, 14);
        let b_nn = init::uniform(12, 10, -1.0, 1.0, 15);
        let b_nt = init::uniform(10, 12, -1.0, 1.0, 16);
        let pb_nn = PackedB::from_nn(&b_nn);
        let pb_nt = PackedB::from_nt(&b_nt);
        // Explicit packed APIs always run the tiled kernel and still
        // agree with the naive loops bitwise, even below the dispatch
        // threshold.
        assert_eq!(
            a.matmul_nn_packed(&pb_nn).unwrap(),
            a.matmul_nn_naive(&b_nn).unwrap()
        );
        assert_eq!(
            a.matmul_nt_packed(&pb_nt).unwrap(),
            a.matmul_nt_naive(&b_nt).unwrap()
        );
        // The into/accumulate forms match product-then-add_assign.
        let base = init::uniform(9, 10, -1.0, 1.0, 17);
        let mut acc = base.clone();
        a.matmul_nt_packed_into(&pb_nt, &mut acc, Store::Add, &cfg)
            .unwrap();
        let mut reference = base.clone();
        reference
            .add_assign(&a.matmul_nt_naive(&b_nt).unwrap())
            .unwrap();
        assert_eq!(acc, reference);

        let rhs_tn = init::uniform(9, 11, -1.0, 1.0, 18);
        let mut dw = init::uniform(12, 11, -1.0, 1.0, 19);
        let mut dw_ref = dw.clone();
        let mut scratch = TnAccScratch::default();
        let l1 = a
            .matmul_tn_acc_into(&rhs_tn, &mut dw, &mut scratch, &cfg)
            .unwrap();
        let product = a.matmul_tn_naive(&rhs_tn).unwrap();
        dw_ref.add_assign(&product).unwrap();
        assert_eq!(dw, dw_ref);
        assert_eq!(l1, product.abs_sum());

        // Shape mismatches are rejected on every packed entry point.
        assert!(a
            .matmul_nn_packed(&PackedB::from_nn(&Matrix::zeros(5, 4)))
            .is_err());
        assert!(a
            .matmul_nt_packed(&PackedB::from_nt(&Matrix::zeros(4, 5)))
            .is_err());
        assert!(a
            .matmul_nt_packed_into(&pb_nt, &mut Matrix::zeros(9, 3), Store::Assign, &cfg)
            .is_err());
        assert!(a
            .matmul_tn_acc_into(&rhs_tn, &mut Matrix::zeros(3, 3), &mut scratch, &cfg)
            .is_err());
    }

    #[test]
    fn fused_epilogue_matches_separate_passes() {
        use crate::init;
        let cfg = ParallelConfig::with_threads(3);
        let x = init::uniform(11, 6, -1.0, 1.0, 25);
        let w = init::uniform(8, 6, -1.0, 1.0, 26);
        let pb = PackedB::from_nt(&w);
        let bias = [0.5f32, -1.0, 0.0, 0.25, 2.0, -0.5, 1.5, 0.75];

        let mut fused = Matrix::zeros(11, 8);
        x.matmul_nt_packed_epilogue(&pb, &mut fused, &cfg, |j, v| (v + bias[j]).tanh())
            .unwrap();

        let mut reference = x.matmul_nt_naive(&w).unwrap();
        reference.add_row_broadcast(&bias).unwrap();
        reference.map_inplace(f32::tanh);
        assert_eq!(fused, reference);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul_nn(&b).is_err());
        assert!(a.matmul_nt(&Matrix::zeros(4, 5)).is_err());
        assert!(a.matmul_tn(&Matrix::zeros(5, 2)).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn hadamard_and_add_work() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates_scaled() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        let b = m(1, 2, &[2.0, -4.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn broadcast_bias_adds_to_every_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
        assert!(a.add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn outer_product_matches_matmul_tn() {
        let u = [1.0f32, 2.0, 3.0];
        let v = [4.0f32, 5.0];
        let o = Matrix::outer(&u, &v);
        assert_eq!(o.rows(), 3);
        assert_eq!(o.cols(), 2);
        assert_eq!(o.get(2, 1), 15.0);
        let um = m(1, 3, &u);
        let vm = m(1, 2, &v);
        assert_eq!(o, um.matmul_tn(&vm).unwrap());
    }

    #[test]
    fn hcat_and_col_slice_invert() {
        let a = m(2, 2, &[1.0, 2.0, 5.0, 6.0]);
        let b = m(2, 1, &[3.0, 7.0]);
        let c = a.hcat(&b).unwrap();
        assert_eq!(c.cols(), 3);
        assert_eq!(c.col_slice(0, 2), a);
        assert_eq!(c.col_slice(2, 1), b);
    }

    #[test]
    fn statistics_are_correct() {
        let a = m(1, 4, &[-1.0, 0.05, 2.0, -0.01]);
        assert!((a.abs_sum() - 3.06).abs() < 1e-6);
        assert_eq!(a.abs_max(), 2.0);
        assert_eq!(a.count_below(0.1), 2);
    }

    #[test]
    fn rel_diff_zero_for_identical() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.rel_diff(&a), 0.0);
        let b = m(2, 2, &[1.0, 2.0, 3.0, 4.5]);
        assert!(a.rel_diff(&b) > 0.0);
    }

    #[test]
    fn map_and_scale() {
        let mut a = m(1, 3, &[1.0, -2.0, 3.0]);
        let b = a.map(f32::abs);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn size_bytes_counts_f32() {
        assert_eq!(Matrix::zeros(4, 4).size_bytes(), 64);
    }
}
