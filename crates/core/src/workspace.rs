//! Zero-alloc training workspace and the packed weight-panel cache
//! (PR 5 — eta-kernels).
//!
//! Two steady-state allocation sinks dominated the training hot loop:
//!
//! 1. **Per-timestep scratch** — every cell forward allocated a fresh
//!    `[batch, 4H]` preactivation plus gate temporaries, and every BP
//!    cell cloned its incoming state gradient and concatenated four
//!    gate-gradient matrices. The [`Workspace`] arena owns those
//!    buffers once; `ensure_*` re-shapes them only when the batch or
//!    hidden width actually changes, so after the first timestep the
//!    step loop allocates only what the tape must own.
//! 2. **Per-GEMM weight packing** — the register-blocked kernels in
//!    `eta_tensor` consume the right operand as packed column panels.
//!    `W` and `U` change only at optimizer steps, yet the implicit
//!    entry points repacked them at every timestep. [`LayerPanels`]
//!    packs each layer's weights once per weight update in all the
//!    orientations training needs, and [`PanelCache`] owns the
//!    invalidate-on-update / pack-on-demand lifecycle with hit/pack
//!    counters for telemetry.
//!
//! Everything here is a **latency** optimization: the packed kernels
//! are bit-identical to the naive loops (the `eta_tensor` proptests pin
//! this), the buffers are fully overwritten before every read, and the
//! panel cache only changes *when* packing happens, never what the
//! GEMMs compute. The `tests/kernel_equivalence.rs` suite asserts the
//! resulting loss trajectories are bit-identical to the reference path.

use crate::cell::{CellForward, CellParams};
use crate::model::LstmModel;
use eta_tensor::{ConvStats, Matrix, PackedB, ParallelConfig, TnAccScratch};

/// Reallocates `slot` only when its shape differs from `[rows, cols]`.
/// Contents after a call are unspecified (zeros on reallocation, stale
/// data otherwise) — every consumer fully overwrites before reading.
pub(crate) fn ensure_shape(slot: &mut Matrix, rows: usize, cols: usize) {
    if slot.rows() != rows || slot.cols() != cols {
        *slot = Matrix::zeros(rows, cols);
    }
}

/// Reusable buffers for the five computed BP-EW-P1 products (`p_s` is
/// never materialized — it *is* the forget gate, borrowed from the
/// tape).
#[derive(Debug, Clone, Default)]
pub struct P1Buffers {
    /// `c ⊙ i(1−i)`.
    pub p_i: Matrix,
    /// `s_{t−1} ⊙ f(1−f)`.
    pub p_f: Matrix,
    /// `i ⊙ (1−c²)`.
    pub p_c: Matrix,
    /// `tanh(s_t) ⊙ o(1−o)`.
    pub p_o: Matrix,
    /// `o ⊙ (1−tanh²(s_t))`.
    pub p_h: Matrix,
}

impl P1Buffers {
    /// Sizes all five buffers to `[batch, hidden]`.
    pub fn ensure(&mut self, batch: usize, hidden: usize) {
        for m in [
            &mut self.p_i,
            &mut self.p_f,
            &mut self.p_c,
            &mut self.p_o,
            &mut self.p_h,
        ] {
            ensure_shape(m, batch, hidden);
        }
    }

    fn bytes(&self) -> u64 {
        self.p_i.size_bytes()
            + self.p_f.size_bytes()
            + self.p_c.size_bytes()
            + self.p_o.size_bytes()
            + self.p_h.size_bytes()
    }
}

/// Reusable buffers of one BP cell: the BP-EW-P2 stage (accumulated
/// state gradient, fused `[batch, 4H]` gate-gradient block), the
/// per-cell `δb` sum, the weight-gradient GEMM scratch, and the two
/// gradients the cell hands to its predecessor timestep.
#[derive(Debug, Clone, Default)]
pub struct BwdBuffers {
    /// `δS' = δS + δH' ⊙ p_h`, `[batch, H]`.
    pub ds_acc: Matrix,
    /// `δgates` in the fixed `[i|f|c|o]` order, `[batch, 4H]`.
    pub dgates: Matrix,
    /// This cell's `δb` (gate gradients summed over the batch), `[4H]`.
    pub db: Vec<f32>,
    /// `δH_{t−1}` written by the cell, `[batch, H]`.
    pub dh_prev: Matrix,
    /// `δS_{t−1}` written by the cell, `[batch, H]`.
    pub ds_prev: Matrix,
    /// Scratch of the fused `δW`/`δU` accumulate-and-measure GEMM.
    pub tn: TnAccScratch,
}

impl BwdBuffers {
    /// Sizes the buffers for a `[batch, hidden]` cell.
    pub fn ensure(&mut self, batch: usize, hidden: usize) {
        ensure_shape(&mut self.ds_acc, batch, hidden);
        ensure_shape(&mut self.dgates, batch, 4 * hidden);
        ensure_shape(&mut self.dh_prev, batch, hidden);
        ensure_shape(&mut self.ds_prev, batch, hidden);
        self.db.resize(4 * hidden, 0.0);
    }

    fn bytes(&self) -> u64 {
        self.ds_acc.size_bytes()
            + self.dgates.size_bytes()
            + self.dh_prev.size_bytes()
            + self.ds_prev.size_bytes()
            + (self.db.len() * 4) as u64
            + self.tn.size_bytes()
    }
}

/// The per-step scratch arena threaded through cell and layer
/// forward/backward. One instance serves a whole model (every layer
/// shares the `[batch, 4H]`/`[batch, H]` shapes); the data-parallel
/// engine gives each shard worker its own instance via
/// [`WorkspacePool`].
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Forward preactivation `x·Wᵀ + h·Uᵀ + b` (activated in place by
    /// the fused GEMM epilogue), `[batch, 4H]`.
    pub preact: Matrix,
    /// Summed context gradient `δY_t + δH_t`, `[batch, H]`.
    pub dh_total: Matrix,
    /// Context gradient `δH_t` carried into the next (earlier) BP
    /// cell, `[batch, H]`.
    pub dh_next: Matrix,
    /// State gradient `δS_t` carried into the next (earlier) BP cell,
    /// `[batch, H]`.
    pub ds_next: Matrix,
    /// BP-EW-P1 product buffers.
    pub p1: P1Buffers,
    /// BP-EW-P2 buffers.
    pub bwd: BwdBuffers,
    /// MS3 recompute scratch: one reused forward record per in-segment
    /// cell, grown to at most `k − 1` slots on first use.
    pub(crate) ms3_segment: Vec<CellForward>,
    /// Pruned `p_s` buffer for the MS1×MS3 recompute path: `p_s`
    /// normally aliases the tape-owned forget gate, but a recomputed
    /// cell's gate must be threshold-pruned into a separate buffer to
    /// match the compress→decode semantics of stored cells.
    pub(crate) ms3_p_s: Matrix,
    /// Cells recomputed by the MS3 backward since the last
    /// [`Workspace::reset_ms3_stats`].
    pub ms3_recompute_cells: u64,
    /// Low-precision storage range events (overflow/underflow counts)
    /// since the last [`Workspace::reset_ms3_stats`].
    pub ms3_conv: ConvStats,
    high_water_bytes: u64,
}

impl Workspace {
    /// A fresh, empty workspace (buffers size themselves on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current bytes held across all buffers.
    pub fn bytes(&self) -> u64 {
        let seg: u64 = self
            .ms3_segment
            .iter()
            .map(|c| {
                c.i.size_bytes()
                    + c.f.size_bytes()
                    + c.c.size_bytes()
                    + c.o.size_bytes()
                    + c.s.size_bytes()
                    + c.tanh_s.size_bytes()
                    + c.h.size_bytes()
            })
            .sum();
        self.preact.size_bytes()
            + self.dh_total.size_bytes()
            + self.dh_next.size_bytes()
            + self.ds_next.size_bytes()
            + self.p1.bytes()
            + self.bwd.bytes()
            + seg
            + self.ms3_p_s.size_bytes()
    }

    /// Zeroes the MS3 per-step counters (recomputed cells, conversion
    /// range events). Called at the top of every training step so the
    /// step result reports exactly that step's activity.
    pub fn reset_ms3_stats(&mut self) {
        self.ms3_recompute_cells = 0;
        self.ms3_conv = ConvStats::default();
    }

    /// Records the current buffer footprint into the high-water mark.
    pub fn note_high_water(&mut self) {
        self.high_water_bytes = self.high_water_bytes.max(self.bytes());
    }

    /// Largest buffer footprint observed by [`Workspace::note_high_water`].
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes
    }
}

/// One workspace per shard worker, reused across batches and epochs.
#[derive(Debug, Clone, Default)]
pub struct WorkspacePool {
    slots: Vec<Workspace>,
}

impl WorkspacePool {
    /// An empty pool (slots materialize on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// The workspace of worker `idx`, created if absent.
    pub fn slot(&mut self, idx: usize) -> &mut Workspace {
        while self.slots.len() <= idx {
            self.slots.push(Workspace::new());
        }
        debug_assert!(idx < self.slots.len());
        &mut self.slots[idx]
    }

    /// Mutable access to the first `n.max(1)` slots — one per
    /// concurrent worker, each handed to exactly one thread.
    pub fn slots_mut(&mut self, n: usize) -> &mut [Workspace] {
        let n = n.max(1);
        while self.slots.len() < n {
            self.slots.push(Workspace::new());
        }
        debug_assert!(n <= self.slots.len());
        &mut self.slots[..n]
    }

    /// Largest buffer footprint observed across all slots.
    pub fn high_water_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(Workspace::high_water_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// One layer's weights packed in every panel orientation training
/// consumes: `from_nt` panels for the forward `x·Wᵀ` / `h·Uᵀ` GEMMs,
/// `from_nn` panels for the backward `δgates·W` / `δgates·U` GEMMs.
/// (The weight-*gradient* GEMMs pack their rhs fresh — it is an
/// activation, different every timestep.)
#[derive(Debug, Clone)]
pub struct LayerPanels {
    /// `W [4H, in]` packed for `x · Wᵀ`.
    pub w_fwd: PackedB,
    /// `U [4H, H]` packed for `h · Uᵀ`.
    pub u_fwd: PackedB,
    /// `W` packed for `δgates · W`.
    pub w_bwd: PackedB,
    /// `U` packed for `δgates · U`.
    pub u_bwd: PackedB,
}

impl LayerPanels {
    /// Packs all four panel sets from the layer's current weights, with
    /// worker threads filling panels when `cfg` warrants it. Packing is
    /// bit-identical at any thread count (each panel is a pure function
    /// of the weights), so `cfg` only changes pack latency, never
    /// training results.
    pub fn pack_with(params: &CellParams, cfg: &ParallelConfig) -> Self {
        LayerPanels {
            w_fwd: PackedB::from_nt_par(&params.w, cfg),
            u_fwd: PackedB::from_nt_par(&params.u, cfg),
            w_bwd: PackedB::from_nn_par(&params.w, cfg),
            u_bwd: PackedB::from_nn_par(&params.u, cfg),
        }
    }

    /// Total packed bytes.
    pub fn size_bytes(&self) -> u64 {
        self.w_fwd.size_bytes()
            + self.u_fwd.size_bytes()
            + self.w_bwd.size_bytes()
            + self.u_bwd.size_bytes()
    }
}

/// Packed panels for every layer of a model.
#[derive(Debug, Clone)]
pub struct ModelPanels {
    /// One panel set per layer, in layer order.
    pub layers: Vec<LayerPanels>,
}

impl ModelPanels {
    /// Packs every layer's weights (see [`LayerPanels::pack_with`]).
    pub fn pack_with(model: &LstmModel, cfg: &ParallelConfig) -> Self {
        ModelPanels {
            layers: model
                .layers()
                .iter()
                .map(|l| LayerPanels::pack_with(&l.params, cfg))
                .collect(),
        }
    }

    /// Total packed bytes across layers.
    pub fn size_bytes(&self) -> u64 {
        self.layers.iter().map(LayerPanels::size_bytes).sum()
    }
}

/// Pack-once-per-weight-update cache of [`ModelPanels`].
///
/// The trainer checks panels out before every batch and invalidates
/// after every optimizer step, so within one batch every timestep of
/// every layer reuses the same packed panels. The counters are plain
/// integers because the cache is driven single-threaded by the trainer
/// control loop (shard workers only *read* the checked-out panels).
#[derive(Debug, Clone, Default)]
pub struct PanelCache {
    panels: Option<ModelPanels>,
    pack_count: u64,
    hit_count: u64,
}

impl PanelCache {
    /// An empty cache; the first checkout packs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached panels — call after every weight update.
    pub fn invalidate(&mut self) {
        self.panels = None;
    }

    /// The current panels, packing from `model` with `cfg` if the cache
    /// is stale — the trainer passes its kernel-parallelism config so
    /// the once-per-update repack uses the same worker budget as the
    /// kernels themselves.
    pub fn checkout_with(&mut self, model: &LstmModel, cfg: &ParallelConfig) -> &ModelPanels {
        if self.panels.is_some() {
            self.hit_count += 1;
        } else {
            self.pack_count += 1;
        }
        self.panels
            .get_or_insert_with(|| ModelPanels::pack_with(model, cfg))
    }

    /// Whether panels are currently cached.
    pub fn is_packed(&self) -> bool {
        self.panels.is_some()
    }

    /// Model-level pack events (cache misses) so far.
    pub fn pack_count(&self) -> u64 {
        self.pack_count
    }

    /// Checkouts served from the cache without repacking.
    pub fn hit_count(&self) -> u64 {
        self.hit_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LstmConfig;

    fn model() -> LstmModel {
        let cfg = LstmConfig::builder()
            .input_size(6)
            .hidden_size(8)
            .layers(2)
            .seq_len(4)
            .batch_size(3)
            .output_size(4)
            .build()
            .unwrap();
        LstmModel::new(&cfg, 11)
    }

    #[test]
    fn ensure_reallocates_only_on_shape_change() {
        let mut ws = Workspace::new();
        ensure_shape(&mut ws.preact, 3, 32);
        assert_eq!((ws.preact.rows(), ws.preact.cols()), (3, 32));
        let before = ws.preact.as_slice().as_ptr();
        ensure_shape(&mut ws.preact, 3, 32);
        assert_eq!(ws.preact.as_slice().as_ptr(), before, "no realloc on hit");
        ensure_shape(&mut ws.preact, 5, 32);
        assert_eq!(ws.preact.rows(), 5);
    }

    #[test]
    fn high_water_tracks_largest_footprint() {
        let mut ws = Workspace::new();
        ensure_shape(&mut ws.preact, 4, 32);
        ws.bwd.ensure(4, 8);
        ws.note_high_water();
        let peak = ws.high_water_bytes();
        assert_eq!(peak, ws.bytes());
        ensure_shape(&mut ws.preact, 1, 32);
        ws.bwd.ensure(1, 8);
        ws.note_high_water();
        assert_eq!(ws.high_water_bytes(), peak, "high water never shrinks");
    }

    #[test]
    fn pool_hands_out_distinct_slots() {
        let mut pool = WorkspacePool::new();
        let slots = pool.slots_mut(3);
        assert_eq!(slots.len(), 3);
        ensure_shape(&mut slots[1].preact, 2, 16);
        slots[1].note_high_water();
        assert!(pool.high_water_bytes() > 0);
        assert_eq!(pool.slot(0).high_water_bytes(), 0);
    }

    #[test]
    fn panel_cache_packs_once_until_invalidated() {
        let model = model();
        let mut cache = PanelCache::new();
        assert!(!cache.is_packed());
        let cfg = ParallelConfig::serial();
        let bytes = cache.checkout_with(&model, &cfg).size_bytes();
        assert!(bytes > 0);
        cache.checkout_with(&model, &cfg);
        cache.checkout_with(&model, &cfg);
        assert_eq!(cache.pack_count(), 1);
        assert_eq!(cache.hit_count(), 2);
        cache.invalidate();
        cache.checkout_with(&model, &cfg);
        assert_eq!(cache.pack_count(), 2);
    }

    #[test]
    fn layer_panels_match_fresh_packs_of_the_weights() {
        let model = model();
        let panels = ModelPanels::pack_with(&model, &ParallelConfig::with_threads(2));
        assert_eq!(panels.layers.len(), 2);
        let p0 = &panels.layers[0];
        let w = &model.layers()[0].params.w;
        assert_eq!(p0.w_fwd, PackedB::from_nt(w));
        assert_eq!(p0.w_bwd, PackedB::from_nn(w));
    }
}
