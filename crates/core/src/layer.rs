//! One unrolled LSTM layer: forward over a sequence with a
//! strategy-dependent *tape* of stored per-cell state, and the matching
//! backward sweep.
//!
//! The tape entry per timestep is the crux of the η-LSTM software design:
//!
//! - [`TapeEntry::Dense`] — the baseline: keep the five dense forward
//!   intermediates (plus cached `tanh(s)`), compute BP-EW-P1 lazily
//!   during backpropagation;
//! - [`TapeEntry::Compressed`] — MS1: BP-EW-P1 ran during the forward
//!   pass (execution reordering) and only the pruned sparse products are
//!   kept;
//! - [`TapeEntry::Skipped`] — MS2: this BP cell was predicted
//!   insignificant; nothing is stored and its backward step is a no-op
//!   (the cell ran inference-style). A skipped cell whose successor is
//!   kept still stores its `s_t`, which the successor's baseline
//!   backward needs.
//! - [`TapeEntry::Dropped`] — MS3: the cell's record was discarded at
//!   checkpoint granularity `k` (only every k-th cell keeps a full
//!   entry); backward recomputes the dropped segment from the preceding
//!   checkpoint's `s` and the always-kept `h` sequence, through the same
//!   [`cell::forward_into`] kernels — so an f32 recompute is
//!   bit-identical to what was dropped. Under a narrow storage
//!   precision every stored tensor (kept records, checkpoint states,
//!   the `h` sequence) is additionally rounded through bf16/f16
//!   ([`eta_tensor::lowp`]), and the instrumented byte accounting
//!   scales to the narrow width.

use crate::cell::{self, CellForward, CellGrads, CellParams, P1Ref};
use crate::ms1::{Ms1Config, P1Packet};
use crate::ms3::{self, Ms3Config};
use crate::workspace::{ensure_shape, LayerPanels, Workspace};
use crate::{LstmError, Result};
use eta_memsim::DataCategory;
use eta_tensor::{CompressionStats, Matrix, ParallelConfig, Precision};
use std::ops::RangeInclusive;

/// How the layer stores per-cell state during the forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageMode {
    /// Store dense intermediates (baseline).
    Dense,
    /// Store compressed BP-EW-P1 products (MS1).
    Compressed(Ms1Config),
}

/// Per-timestep stored state.
#[derive(Debug, Clone)]
pub enum TapeEntry {
    /// Dense forward intermediates.
    Dense(Box<CellForward>),
    /// Compressed P1 products (boxed: the packet is an order of
    /// magnitude larger than the other variants).
    Compressed(Box<P1Packet>),
    /// Skipped BP cell; `s` is retained only when the next cell is kept
    /// and will need `s_{t−1}` for its dense backward — or, under MS3,
    /// when the cell sits at a checkpoint position and carries the
    /// segment-seed state.
    Skipped {
        /// Boundary cell state for the successor's backward pass.
        s: Option<Matrix>,
    },
    /// MS3-dropped cell: nothing stored; backward recomputes the record
    /// from the enclosing segment's checkpoint seeds.
    Dropped,
}

/// Forward tape of one layer over one sequence.
#[derive(Debug, Clone)]
pub struct LayerTape {
    /// One entry per timestep.
    pub entries: Vec<TapeEntry>,
    /// Layer outputs `h_t` per timestep (activation storage).
    pub hs: Vec<Matrix>,
    /// MS3 × MS1 out-of-band checkpoint states: a kept cell in
    /// [`StorageMode::Compressed`] stores only its P1 packet (no `s`),
    /// so when MS3 needs that cell as a segment seed its state is
    /// retained here. `Some` only at checkpoint positions under
    /// MS3 + MS1 with `k > 1`; empty otherwise.
    pub ckpt_s: Vec<Option<Matrix>>,
    /// MS1 pruning threshold the tape was stored with (`None` in
    /// [`StorageMode::Dense`]): MS3's backward prunes recomputed P1
    /// products at the same threshold, so a recomputed cell matches
    /// what compress→decode would have produced bit-for-bit.
    pub ms1_threshold: Option<f32>,
}

/// Instrumentation hooks shared across the model (footprint, traffic,
/// and span tracing).
#[derive(Clone, Default)]
pub struct Instruments {
    /// Footprint tracker.
    pub mem: eta_memsim::SharedTracker,
    /// DRAM traffic counter.
    pub traffic: eta_memsim::SharedTraffic,
    /// Telemetry handle for span tracing; `None` leaves every span
    /// hook a no-op.
    pub telemetry: Option<eta_telemetry::Telemetry>,
}

impl std::fmt::Debug for Instruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instruments")
            .field("mem", &self.mem)
            .field("traffic", &self.traffic)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl Instruments {
    /// Fresh zeroed instruments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instruments whose footprint and traffic events are mirrored
    /// into `telemetry` (as `memsim_*` and `dram_*` metrics) and whose
    /// span hooks open telemetry spans.
    pub fn with_telemetry(telemetry: eta_telemetry::Telemetry) -> Self {
        Instruments {
            mem: eta_memsim::SharedTracker::with_telemetry(telemetry.clone()),
            traffic: eta_memsim::SharedTraffic::with_telemetry(telemetry.clone()),
            telemetry: Some(telemetry),
        }
    }

    /// Opens a registry span named `name` (see
    /// [`eta_telemetry::Telemetry::span`]); `None` without a handle.
    pub fn span(&self, name: &'static str) -> Option<eta_telemetry::SpanGuard> {
        self.telemetry.as_ref().map(|t| t.span(name))
    }

    /// Opens a span at the root of a fresh per-thread stack (see
    /// [`eta_telemetry::Telemetry::span_root`]) — shard scopes use
    /// this so trace structure is thread-count invariant.
    pub fn span_root(&self, name: &'static str) -> Option<eta_telemetry::SpanGuard> {
        self.telemetry.as_ref().map(|t| t.span_root(name))
    }

    /// Opens a trace-only scope (see
    /// [`eta_telemetry::Telemetry::scope`]): `None` — one relaxed
    /// atomic load — unless an eta-prof tracer is attached. The
    /// per-cell GEMM/epilogue/BP hooks go through here.
    pub fn scope(&self, name: &'static str) -> Option<eta_telemetry::SpanGuard> {
        self.telemetry.as_ref().and_then(|t| t.scope(name))
    }

    fn store(&self, cat: DataCategory, bytes: u64) {
        self.mem.alloc(cat, bytes);
        self.traffic.write(cat, bytes);
    }

    fn load(&self, cat: DataCategory, bytes: u64) {
        self.traffic.read(cat, bytes);
    }

    fn release(&self, cat: DataCategory, bytes: u64) {
        self.mem.free(cat, bytes);
    }
}

/// Borrowed execution context of the packed cell kernels and the layer
/// sequence drivers. `panels` is not optional: every GEMM below the
/// model step runs on pre-packed weight panels.
#[derive(Debug, Clone, Copy)]
pub struct Exec<'a> {
    /// GEMM-level parallelism inside each cell; results are
    /// bit-identical at every setting.
    pub kernel: &'a ParallelConfig,
    /// Footprint, traffic and span instrumentation.
    pub instruments: &'a Instruments,
    /// The layer's weights packed for every GEMM orientation.
    pub panels: &'a LayerPanels,
    /// MS3 recompute checkpointing and storage precision (`None` keeps
    /// every record in f32); read by the sequence drivers only.
    pub ms3: Option<&'a Ms3Config>,
}

/// One LSTM layer with its parameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LstmLayer {
    /// Cell parameters shared across the layer's timesteps.
    pub params: CellParams,
}

/// Result of one layer's backward sweep.
#[derive(Debug)]
pub struct LayerBackward {
    /// Gradients toward the layer's inputs, per timestep.
    pub dxs: Vec<Matrix>,
    /// Accumulated (and MS2-scaled) weight gradients.
    pub grads: CellGrads,
    /// Per-cell raw gradient magnitudes (`0` for skipped cells) —
    /// feeds Fig. 8 and the Eq. 4 α calibration.
    pub magnitudes: Vec<f64>,
}

impl LstmLayer {
    /// Creates a layer with Xavier-initialized parameters.
    pub fn new(input: usize, hidden: usize, seed: u64) -> Self {
        LstmLayer {
            params: CellParams::new(input, hidden, seed),
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.params.hidden()
    }

    /// Runs the layer forward over `xs` (one `[batch, in]` matrix per
    /// timestep), producing the tape, which holds the output sequence
    /// in `hs`. Per-timestep scratch lives in `ws`, the cell GEMMs run
    /// the fused kernels over `exec.panels`, and the tape owns each
    /// cell's forward record outright. Bit-identical to the reference
    /// cell pipeline at every `exec.kernel` setting.
    ///
    /// `keep[t] == false` marks a cell the MS2 plan skips; `keep` must be
    /// either empty (keep all) or the sequence length.
    ///
    /// With an MS3 config, cells off the checkpoint grid store
    /// [`TapeEntry::Dropped`] (backward recomputes them), and — under a
    /// narrow precision — every stored tensor is rounded through the
    /// storage format before the recurrence carries it forward, with the
    /// instrumented byte accounting scaled to the narrow width. MS3 at
    /// `k = 1` with f32 storage produces a tape byte-identical to no MS3
    /// at all.
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error on inconsistent input shapes.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or `keep` has the wrong length.
    pub fn forward_sequence_ws(
        &self,
        xs: &[Matrix],
        mode: StorageMode,
        keep: &[bool],
        ws: &mut Workspace,
        exec: &Exec<'_>,
    ) -> Result<LayerTape> {
        assert!(!xs.is_empty(), "empty input sequence");
        assert!(
            keep.is_empty() || keep.len() == xs.len(),
            "keep mask length mismatch"
        );
        let instruments = exec.instruments;
        let ms3 = exec.ms3;
        let _layer_span = instruments.span("layer_fw");
        // MS3 split: `ms3_drops` governs the tape layout (k > 1),
        // `precision` governs storage rounding and byte accounting.
        let ms3_drops = ms3.is_some_and(|c| c.interval() > 1);
        let precision = ms3.map_or(Precision::F32, |c| c.precision);
        // MS1 kept cells store no `s`; when MS3 needs their state as a
        // segment seed it goes to the out-of-band `ckpt_s` lane.
        let uses_ckpt_s = ms3_drops && matches!(mode, StorageMode::Compressed(_));
        let batch = xs[0].rows();
        let h = self.hidden();
        let mut h_prev = Matrix::zeros(batch, h);
        let mut s_prev = Matrix::zeros(batch, h);
        let mut entries = Vec::with_capacity(xs.len());
        let mut hs = Vec::with_capacity(xs.len());
        let mut ckpt_s: Vec<Option<Matrix>> = Vec::new();

        for (t, x) in xs.iter().enumerate() {
            // Every cell loads the layer weights.
            instruments.load(DataCategory::Weights, self.params.size_bytes());
            let cell_scope = instruments.scope("fw_cell");
            let mut fw = CellForward::empty();
            cell::forward_into(
                &self.params,
                x,
                &h_prev,
                &s_prev,
                &mut ws.preact,
                &mut fw,
                exec,
            )?;
            drop(cell_scope);
            // Narrow-storage emulation: round the record through the
            // storage precision *before* anything is stored or carried —
            // the recurrence and any later recompute both see exactly
            // the stored values.
            ms3::quantize_cell(precision, &mut fw, &mut ws.ms3_conv);
            let kept = keep.get(t).copied().unwrap_or(true);
            let ms3_keeps = !ms3_drops || ms3.is_some_and(|c| c.keeps_cell(t));
            if !kept {
                // Inference-style cell: store s only if a later backward
                // needs it — as the dense successor's s_{t−1}, or as an
                // MS3 segment seed at a checkpoint position.
                let needs_s = if ms3_drops {
                    ms3_keeps
                } else {
                    let successor_kept =
                        t + 1 < xs.len() && keep.get(t + 1).copied().unwrap_or(true);
                    successor_kept && matches!(mode, StorageMode::Dense)
                };
                let s = if needs_s {
                    instruments.store(
                        DataCategory::Intermediates,
                        scaled_bytes(fw.s.size_bytes(), precision),
                    );
                    Some(fw.s.clone())
                } else {
                    None
                };
                entries.push(TapeEntry::Skipped { s });
                if uses_ckpt_s {
                    ckpt_s.push(None);
                }
                instruments.store(
                    DataCategory::Activations,
                    scaled_bytes(fw.h.size_bytes(), precision),
                );
                hs.push(fw.h.clone());
                h_prev = fw.h;
                s_prev = fw.s;
            } else if !ms3_keeps {
                // MS3-dropped cell: only the activation survives; the
                // record is recomputed from the segment seeds in
                // backward.
                entries.push(TapeEntry::Dropped);
                if uses_ckpt_s {
                    ckpt_s.push(None);
                }
                instruments.store(
                    DataCategory::Activations,
                    scaled_bytes(fw.h.size_bytes(), precision),
                );
                hs.push(fw.h.clone());
                h_prev = fw.h;
                s_prev = fw.s;
            } else {
                match mode {
                    StorageMode::Dense => {
                        instruments.store(
                            DataCategory::Intermediates,
                            scaled_bytes(fw.stored_bytes(), precision),
                        );
                        instruments.store(
                            DataCategory::Activations,
                            scaled_bytes(fw.h.size_bytes(), precision),
                        );
                        hs.push(fw.h.clone());
                        h_prev = fw.h.clone();
                        s_prev = fw.s.clone();
                        if uses_ckpt_s {
                            ckpt_s.push(None);
                        }
                        // The tape takes ownership — no per-field clones.
                        entries.push(TapeEntry::Dense(Box::new(fw)));
                    }
                    StorageMode::Compressed(cfg) => {
                        // MS1 execution reordering: BP-EW-P1 now (into
                        // the workspace buffers, with p_s borrowed from
                        // the forget gate), keep only the compressed
                        // products.
                        cell::compute_p1_into(&mut ws.p1, &fw, &s_prev)?;
                        let packet = P1Packet::compress_streams(
                            [
                                &ws.p1.p_i, &ws.p1.p_f, &ws.p1.p_c, &ws.p1.p_o, &ws.p1.p_h, &fw.f,
                            ],
                            cfg.threshold,
                        );
                        instruments.store(
                            DataCategory::Intermediates,
                            scaled_bytes(packet.compressed_bytes(), precision),
                        );
                        entries.push(TapeEntry::Compressed(Box::new(packet)));
                        if uses_ckpt_s {
                            // Out-of-band segment seed (the packet holds
                            // no state).
                            instruments.store(
                                DataCategory::Intermediates,
                                scaled_bytes(fw.s.size_bytes(), precision),
                            );
                            ckpt_s.push(Some(fw.s.clone()));
                        }
                        instruments.store(
                            DataCategory::Activations,
                            scaled_bytes(fw.h.size_bytes(), precision),
                        );
                        hs.push(fw.h.clone());
                        h_prev = fw.h;
                        s_prev = fw.s;
                    }
                }
            }
        }
        Ok(LayerTape {
            entries,
            hs,
            ckpt_s,
            ms1_threshold: match mode {
                StorageMode::Dense => None,
                StorageMode::Compressed(cfg) => Some(cfg.threshold),
            },
        })
    }

    /// Backward sweep over the tape.
    ///
    /// `dys[t]` is the gradient arriving on `h_t` from above (the head
    /// and/or the next layer). `scale` is the MS2 convergence-aware
    /// compensation factor applied to the accumulated weight gradients.
    /// The P1 products, the summed context gradient, and the fused
    /// gate-gradient block all live in `ws` buffers instead of fresh
    /// per-timestep allocations, and the BP GEMMs consume
    /// `exec.panels`. Bit-identical to the reference cell pipeline.
    ///
    /// With an MS3 config whose interval exceeds 1, [`TapeEntry::Dropped`]
    /// cells are recomputed lazily, one segment at a time, into the
    /// workspace's reused segment cache: the segment replays forward
    /// from the preceding checkpoint's `s` and the always-kept `h`
    /// sequence through the same [`cell::forward_into`] kernels (and
    /// the same storage rounding), so an f32 recompute reproduces the
    /// dropped records bit-for-bit. Recomputed cells are counted into
    /// `ws.ms3_recompute_cells`.
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error on inconsistent shapes.
    ///
    /// # Panics
    ///
    /// Panics if `dys`, `xs` and the tape lengths disagree.
    pub fn backward_sequence_ws(
        &self,
        xs: &[Matrix],
        tape: &LayerTape,
        dys: &[Matrix],
        scale: f32,
        ws: &mut Workspace,
        exec: &Exec<'_>,
    ) -> Result<LayerBackward> {
        let t_len = tape.entries.len();
        assert_eq!(xs.len(), t_len, "input/tape length mismatch");
        assert_eq!(dys.len(), t_len, "gradient/tape length mismatch");
        let batch = xs[0].rows();
        let h = self.hidden();
        let zero_h = Matrix::zeros(batch, h);

        let instruments = exec.instruments;
        let ms3 = exec.ms3;
        let _layer_span = instruments.span("layer_bp");
        let ms3_drops = ms3.is_some_and(|c| c.interval() > 1);
        let precision = ms3.map_or(Precision::F32, |c| c.precision);
        let ms1_threshold = tape.ms1_threshold;

        let mut grads = CellGrads::zeros_like(&self.params);
        let mut magnitudes = vec![0.0f64; t_len];
        let mut dxs: Vec<Matrix> = (0..t_len)
            .map(|t| Matrix::zeros(batch, xs[t].cols()))
            .collect();

        // The gradients carried between BP cells live in the
        // workspace; each cell writes its predecessor's pair into
        // `ws.bwd`, and the two buffers swap roles after every cell.
        for m in [&mut ws.dh_next, &mut ws.ds_next] {
            ensure_shape(m, batch, h);
            m.as_mut_slice().fill(0.0);
        }

        // Segment cache state: `ws.ms3_segment[i]` holds the recomputed
        // record of cell `base + i`. Backward walks t downward, so each
        // segment is recomputed at most once — at its first (highest)
        // non-skipped dropped-or-seeding use.
        let mut cache_base: Option<usize> = None;

        for t in (0..t_len).rev() {
            let entry = &tape.entries[t];
            if matches!(entry, TapeEntry::Skipped { .. }) {
                // Insignificant BP cell: no computation, gradient
                // chain truncated at the skip boundary.
                ws.dh_next.as_mut_slice().fill(0.0);
                ws.ds_next.as_mut_slice().fill(0.0);
                continue;
            }

            // Make sure the segment cache covers everything this cell
            // needs: its own record if dropped, and (under MS3) the
            // in-segment predecessor state feeding its P1 products.
            if ms3_drops {
                let Some(cfg) = ms3 else {
                    unreachable!("ms3_drops implies a config")
                };
                let needed = match entry {
                    TapeEntry::Dropped => Some(t),
                    TapeEntry::Dense(_) if t > 0 && !cfg.keeps_cell(t - 1) => Some(t - 1),
                    _ => None,
                };
                if let Some(upto) = needed {
                    let base = cfg.segment_start(upto);
                    if cache_base != Some(base) {
                        self.recompute_segment(xs, tape, base..=upto, &zero_h, ws, exec)?;
                        cache_base = Some(base);
                    }
                }
            }

            let p1 = match entry {
                TapeEntry::Skipped { .. } => unreachable!("handled above"),
                TapeEntry::Dense(fw) => {
                    let bytes = scaled_bytes(fw.stored_bytes(), precision);
                    instruments.load(DataCategory::Intermediates, bytes);
                    instruments.release(DataCategory::Intermediates, bytes);
                    let prev_dropped =
                        ms3_drops && t > 0 && ms3.is_some_and(|c| !c.keeps_cell(t - 1));
                    let s_prev = if prev_dropped {
                        let Some(base) = cache_base else {
                            unreachable!("cache primed for dense cell")
                        };
                        match ws.ms3_segment.get(t - 1 - base) {
                            Some(fw) => &fw.s,
                            None => unreachable!("segment cache covers the predecessor"),
                        }
                    } else {
                        Self::stored_s_ref(tape, t, &zero_h)
                    };
                    cell::compute_p1_into(&mut ws.p1, fw, s_prev)?;
                    P1Ref {
                        p_i: &ws.p1.p_i,
                        p_f: &ws.p1.p_f,
                        p_c: &ws.p1.p_c,
                        p_o: &ws.p1.p_o,
                        p_h: &ws.p1.p_h,
                        p_s: &fw.f,
                    }
                }
                TapeEntry::Compressed(packet) => {
                    let bytes = scaled_bytes(packet.compressed_bytes(), precision);
                    instruments.load(DataCategory::Intermediates, bytes);
                    instruments.release(DataCategory::Intermediates, bytes);
                    // Zero-alloc decode into the reused P1 buffers
                    // (the sixth, pruned-forget-gate stream lands in
                    // the dedicated `ms3_p_s` slot).
                    packet.decode_into(&mut ws.p1, &mut ws.ms3_p_s);
                    P1Ref {
                        p_i: &ws.p1.p_i,
                        p_f: &ws.p1.p_f,
                        p_c: &ws.p1.p_c,
                        p_o: &ws.p1.p_o,
                        p_h: &ws.p1.p_h,
                        p_s: &ws.ms3_p_s,
                    }
                }
                TapeEntry::Dropped => {
                    let Some(base) = cache_base else {
                        unreachable!("cache primed for dropped cell")
                    };
                    // P1 from the recomputed record; the state seed
                    // chains through the cache (or the checkpoint at the
                    // segment boundary).
                    {
                        let Some(fw) = ws.ms3_segment.get(t - base) else {
                            unreachable!("segment cache covers this cell")
                        };
                        let s_prev = if t == base {
                            checkpoint_s_ref(tape, t, &zero_h)
                        } else {
                            match ws.ms3_segment.get(t - 1 - base) {
                                Some(prev) => &prev.s,
                                None => unreachable!("segment cache covers the predecessor"),
                            }
                        };
                        cell::compute_p1_into(&mut ws.p1, fw, s_prev)?;
                    }
                    let Some(fw) = ws.ms3_segment.get(t - base) else {
                        unreachable!("segment cache covers this cell")
                    };
                    if let Some(thr) = ms1_threshold {
                        // MS1×MS3: a recomputed record was never stored
                        // compressed, so prune its P1 products exactly
                        // as compress→decode would have (zero below the
                        // threshold). `p_s` aliases the forget gate,
                        // which the tape must not see pruned — copy it
                        // into the dedicated buffer first.
                        for m in [
                            &mut ws.p1.p_i,
                            &mut ws.p1.p_f,
                            &mut ws.p1.p_c,
                            &mut ws.p1.p_o,
                            &mut ws.p1.p_h,
                        ] {
                            prune_in_place(m, thr);
                        }
                        ensure_shape(&mut ws.ms3_p_s, batch, h);
                        ws.ms3_p_s.as_mut_slice().copy_from_slice(fw.f.as_slice());
                        prune_in_place(&mut ws.ms3_p_s, thr);
                        P1Ref {
                            p_i: &ws.p1.p_i,
                            p_f: &ws.p1.p_f,
                            p_c: &ws.p1.p_c,
                            p_o: &ws.p1.p_o,
                            p_h: &ws.p1.p_h,
                            p_s: &ws.ms3_p_s,
                        }
                    } else {
                        P1Ref {
                            p_i: &ws.p1.p_i,
                            p_f: &ws.p1.p_f,
                            p_c: &ws.p1.p_c,
                            p_o: &ws.p1.p_o,
                            p_h: &ws.p1.p_h,
                            p_s: &fw.f,
                        }
                    }
                }
            };
            // dh_total = dys[t] + dh_next, fused into the reused buffer
            // (same elementwise add as the clone + add_assign pipeline).
            if dys[t].rows() != batch || dys[t].cols() != h {
                return Err(LstmError::BatchShape {
                    detail: format!(
                        "backward_sequence_ws: dys[{t}] is {}x{}, expected {batch}x{h}",
                        dys[t].rows(),
                        dys[t].cols()
                    ),
                });
            }
            ensure_shape(&mut ws.dh_total, batch, h);
            for ((dst, &dy), &dh) in ws
                .dh_total
                .as_mut_slice()
                .iter_mut()
                .zip(dys[t].as_slice())
                .zip(ws.dh_next.as_slice())
            {
                *dst = dy + dh;
            }

            let h_prev = match t.checked_sub(1).and_then(|i| tape.hs.get(i)) {
                Some(h) => h,
                None => &zero_h,
            };
            // BP reloads the cell's weights and activations.
            instruments.load(DataCategory::Weights, self.params.size_bytes());
            instruments.load(
                DataCategory::Activations,
                scaled_bytes(xs[t].size_bytes() + h_prev.size_bytes(), precision),
            );

            let cell_scope = instruments.scope("bp_cell");
            magnitudes[t] = cell::backward_ws(
                &p1,
                &xs[t],
                h_prev,
                &ws.dh_total,
                &ws.ds_next,
                &mut grads,
                &mut dxs[t],
                &mut ws.bwd,
                exec,
            )?;
            drop(cell_scope);
            std::mem::swap(&mut ws.dh_next, &mut ws.bwd.dh_prev);
            std::mem::swap(&mut ws.ds_next, &mut ws.bwd.ds_prev);
        }
        // Activations released after the layer finishes BP.
        for (x, hm) in xs.iter().zip(tape.hs.iter()) {
            let _ = x;
            instruments.release(
                DataCategory::Activations,
                scaled_bytes(hm.size_bytes(), precision),
            );
        }
        // Weight gradients written back once per layer.
        instruments
            .traffic
            .write(DataCategory::Weights, self.params.size_bytes());

        grads.scale(scale);
        Ok(LayerBackward {
            dxs,
            grads,
            magnitudes,
        })
    }

    /// Recomputes tape segment `base..=upto` into the workspace's
    /// segment cache, chaining `s` through the cache and reading `h`
    /// seeds from the always-kept `hs` lane. Applies the same storage
    /// rounding as the forward pass (`exec.ms3`'s precision), so the
    /// cache holds exactly the records the tape dropped.
    fn recompute_segment(
        &self,
        xs: &[Matrix],
        tape: &LayerTape,
        segment: RangeInclusive<usize>,
        zero_h: &Matrix,
        ws: &mut Workspace,
        exec: &Exec<'_>,
    ) -> Result<()> {
        let instruments = exec.instruments;
        let precision = exec.ms3.map_or(Precision::F32, |c| c.precision);
        let (base, upto) = (*segment.start(), *segment.end());
        let _seg_span = instruments.span("ms3_recompute");
        let slots = upto - base + 1;
        while ws.ms3_segment.len() < slots {
            ws.ms3_segment.push(CellForward::empty());
        }
        for u in base..=upto {
            let h_prev = match u.checked_sub(1).and_then(|i| tape.hs.get(i)) {
                Some(h) => h,
                None => zero_h,
            };
            let Some(x_u) = xs.get(u) else {
                unreachable!("segment range lies within the sequence")
            };
            // Recompute genuinely re-reads what forward read: weights
            // plus the (narrow-stored) input and context activations.
            instruments.load(DataCategory::Weights, self.params.size_bytes());
            instruments.load(
                DataCategory::Activations,
                scaled_bytes(x_u.size_bytes() + h_prev.size_bytes(), precision),
            );
            let (done, rest) = ws.ms3_segment.split_at_mut(u - base);
            let Some(out) = rest.first_mut() else {
                unreachable!("segment cache sized for the whole segment")
            };
            let s_prev = if u == base {
                checkpoint_s_ref(tape, u, zero_h)
            } else {
                match done.get(u - 1 - base) {
                    Some(prev) => &prev.s,
                    None => unreachable!("segment cache covers the predecessor"),
                }
            };
            let cell_scope = instruments.scope("fw_cell");
            cell::forward_into(&self.params, x_u, h_prev, s_prev, &mut ws.preact, out, exec)?;
            drop(cell_scope);
            ms3::quantize_cell(precision, out, &mut ws.ms3_conv);
            ws.ms3_recompute_cells += 1;
        }
        Ok(())
    }

    /// Aggregate P1 compression statistics across a tape (zero when the
    /// tape holds no compressed entries).
    pub fn tape_compression_stats(tape: &LayerTape) -> CompressionStats {
        let mut acc = CompressionStats::default();
        for e in &tape.entries {
            if let TapeEntry::Compressed(p) = e {
                acc.merge(&p.stats());
            }
        }
        acc
    }

    /// `s_{t−1}` for the dense backward of cell `t`: borrowed from the
    /// previous dense entry, from a boundary-stored skipped entry, or
    /// zeros at `t == 0`.
    fn stored_s_ref<'a>(tape: &'a LayerTape, t: usize, zero: &'a Matrix) -> &'a Matrix {
        if t == 0 {
            return zero;
        }
        match &tape.entries[t - 1] {
            TapeEntry::Dense(fw) => &fw.s,
            TapeEntry::Skipped { s: Some(s) } => s,
            TapeEntry::Compressed(_) | TapeEntry::Skipped { s: None } | TapeEntry::Dropped => {
                // A compressed predecessor cannot feed a dense successor:
                // modes are uniform within a layer, so this indicates a
                // plan bug. Likewise a dropped predecessor's state must
                // come from the recompute cache, never from here. Degrade
                // to zeros rather than crash; the mixed-mode tests assert
                // this never fires.
                debug_assert!(false, "dense cell after a stateless predecessor");
                zero
            }
        }
    }
}

/// Stored bytes under the MS3 storage precision: the software emulation
/// keeps f32 buffers but rounds their contents through the narrow
/// format, so the *accounted* footprint and traffic scale by the
/// narrow element width (2/4 for bf16 and f16, identity for f32).
fn scaled_bytes(bytes: u64, precision: Precision) -> u64 {
    bytes * precision.bytes_per_element() / 4
}

/// Zeroes elements with `|v| < threshold` in place — exactly the
/// positions [`eta_tensor::SparseVec`] would have pruned, so a
/// recomputed P1 stream matches a stored compress→decode round trip
/// bit-for-bit.
fn prune_in_place(m: &mut Matrix, threshold: f32) {
    for v in m.as_mut_slice() {
        if v.abs() < threshold {
            *v = 0.0;
        }
    }
}

/// The MS3 segment seed `s_{base−1}` for a segment starting at `base`:
/// zeros at the sequence start, otherwise the checkpoint state of the
/// preceding kept cell — stored inline for dense and MS2-boundary
/// entries, or in the tape's out-of-band `ckpt_s` lane under MS1.
fn checkpoint_s_ref<'a>(tape: &'a LayerTape, base: usize, zero: &'a Matrix) -> &'a Matrix {
    let Some(entry) = base.checked_sub(1).and_then(|i| tape.entries.get(i)) else {
        return zero;
    };
    match entry {
        TapeEntry::Dense(fw) => &fw.s,
        TapeEntry::Skipped { s: Some(s) } => s,
        TapeEntry::Compressed(_) => match tape.ckpt_s.get(base - 1) {
            Some(Some(s)) => s,
            _ => {
                debug_assert!(false, "compressed checkpoint without a ckpt_s seed");
                zero
            }
        },
        TapeEntry::Skipped { s: None } | TapeEntry::Dropped => {
            debug_assert!(false, "segment seeded by a stateless predecessor");
            zero
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_tensor::init;

    fn inputs(seq: usize, batch: usize, width: usize) -> Vec<Matrix> {
        (0..seq)
            .map(|t| init::uniform(batch, width, -1.0, 1.0, 100 + t as u64))
            .collect()
    }

    fn zeros_grads(seq: usize, batch: usize, h: usize) -> Vec<Matrix> {
        (0..seq).map(|_| Matrix::zeros(batch, h)).collect()
    }

    /// Serial execution context over freshly packed panels.
    fn with_exec<R>(layer: &LstmLayer, inst: &Instruments, f: impl FnOnce(&Exec<'_>) -> R) -> R {
        let kernel = ParallelConfig::serial();
        let panels = LayerPanels::pack_with(&layer.params, &kernel);
        f(&Exec {
            kernel: &kernel,
            instruments: inst,
            panels: &panels,
            ms3: None,
        })
    }

    fn forward(
        layer: &LstmLayer,
        xs: &[Matrix],
        mode: StorageMode,
        keep: &[bool],
        inst: &Instruments,
    ) -> LayerTape {
        with_exec(layer, inst, |exec| {
            layer
                .forward_sequence_ws(xs, mode, keep, &mut Workspace::new(), exec)
                .unwrap()
        })
    }

    fn backward(
        layer: &LstmLayer,
        xs: &[Matrix],
        tape: &LayerTape,
        dys: &[Matrix],
        scale: f32,
        inst: &Instruments,
    ) -> LayerBackward {
        with_exec(layer, inst, |exec| {
            layer
                .backward_sequence_ws(xs, tape, dys, scale, &mut Workspace::new(), exec)
                .unwrap()
        })
    }

    #[test]
    fn forward_produces_one_output_per_timestep() {
        let layer = LstmLayer::new(6, 4, 1);
        let xs = inputs(5, 3, 6);
        let inst = Instruments::new();
        let tape = forward(&layer, &xs, StorageMode::Dense, &[], &inst);
        assert_eq!(tape.hs.len(), 5);
        assert_eq!(tape.entries.len(), 5);
        assert!(tape.hs.iter().all(|m| m.rows() == 3 && m.cols() == 4));
    }

    #[test]
    fn compressed_mode_at_zero_threshold_matches_dense_backward() {
        let layer = LstmLayer::new(5, 4, 2);
        let xs = inputs(4, 2, 5);
        let inst = Instruments::new();
        let tape_d = forward(&layer, &xs, StorageMode::Dense, &[], &inst);
        let ms1 = StorageMode::Compressed(Ms1Config { threshold: 0.0 });
        let tape_c = forward(&layer, &xs, ms1, &[], &inst);
        assert_eq!(
            tape_d.hs, tape_c.hs,
            "forward outputs are strategy-independent"
        );

        let mut dys = zeros_grads(4, 2, 4);
        dys[3] = Matrix::filled(2, 4, 1.0);
        let bd = backward(&layer, &xs, &tape_d, &dys, 1.0, &inst);
        let bc = backward(&layer, &xs, &tape_c, &dys, 1.0, &inst);
        assert!(bd.grads.dw.rel_diff(&bc.grads.dw) < 1e-6);
        assert!(bd.grads.du.rel_diff(&bc.grads.du) < 1e-6);
        for (a, b) in bd.dxs.iter().zip(bc.dxs.iter()) {
            assert!(a.rel_diff(b) < 1e-6);
        }
    }

    #[test]
    fn pruned_compressed_mode_approximates_dense_backward() {
        let layer = LstmLayer::new(8, 8, 3);
        let xs = inputs(6, 4, 8);
        let inst = Instruments::new();
        let tape_d = forward(&layer, &xs, StorageMode::Dense, &[], &inst);
        let ms1 = StorageMode::Compressed(Ms1Config::default());
        let tape_c = forward(&layer, &xs, ms1, &[], &inst);
        let mut dys = zeros_grads(6, 4, 8);
        dys[5] = Matrix::filled(4, 8, 0.5);
        let bd = backward(&layer, &xs, &tape_d, &dys, 1.0, &inst);
        let bc = backward(&layer, &xs, &tape_c, &dys, 1.0, &inst);
        // Pruning perturbs but must not destroy the gradient signal.
        let diff = bd.grads.dw.rel_diff(&bc.grads.dw);
        assert!(diff < 0.5, "pruned gradient diverged: rel diff {diff}");
        assert!(bc.grads.magnitude() > 0.0);
    }

    #[test]
    fn skipped_cells_produce_no_gradient() {
        let layer = LstmLayer::new(5, 4, 4);
        let xs = inputs(6, 2, 5);
        let inst = Instruments::new();
        // Skip the first three cells (single-loss pattern).
        let keep = [false, false, false, true, true, true];
        let tape = forward(&layer, &xs, StorageMode::Dense, &keep, &inst);
        let mut dys = zeros_grads(6, 2, 4);
        dys[5] = Matrix::filled(2, 4, 1.0);
        let b = backward(&layer, &xs, &tape, &dys, 1.0, &inst);
        for t in 0..3 {
            assert_eq!(b.magnitudes[t], 0.0);
            assert!(b.dxs[t].as_slice().iter().all(|&v| v == 0.0));
        }
        for t in 3..6 {
            assert!(b.magnitudes[t] > 0.0);
        }
    }

    #[test]
    fn boundary_skipped_cell_stores_state_for_dense_successor() {
        let layer = LstmLayer::new(5, 4, 5);
        let xs = inputs(4, 2, 5);
        let inst = Instruments::new();
        let keep = [false, true, true, true];
        let tape = forward(&layer, &xs, StorageMode::Dense, &keep, &inst);
        match &tape.entries[0] {
            TapeEntry::Skipped { s: Some(_) } => {}
            other => panic!("expected boundary state, got {other:?}"),
        }
        // And the backward of cell 1 must exactly match an unskipped run
        // in its local gradient (same dh path, nonzero magnitude).
        let mut dys = zeros_grads(4, 2, 4);
        dys[3] = Matrix::filled(2, 4, 1.0);
        let b = backward(&layer, &xs, &tape, &dys, 1.0, &inst);
        assert!(b.magnitudes[1] > 0.0);
    }

    #[test]
    fn scale_multiplies_weight_gradients() {
        let layer = LstmLayer::new(4, 4, 6);
        let xs = inputs(3, 2, 4);
        let inst = Instruments::new();
        let mut dys = zeros_grads(3, 2, 4);
        dys[2] = Matrix::filled(2, 4, 1.0);
        // Separate forward passes: each tape's stored intermediates are
        // consumed (and released) by exactly one backward sweep.
        let tape1 = forward(&layer, &xs, StorageMode::Dense, &[], &inst);
        let b1 = backward(&layer, &xs, &tape1, &dys, 1.0, &inst);
        let tape2 = forward(&layer, &xs, StorageMode::Dense, &[], &inst);
        let b2 = backward(&layer, &xs, &tape2, &dys, 2.0, &inst);
        let mut doubled = b1.grads.dw.clone();
        doubled.scale(2.0);
        assert!(doubled.rel_diff(&b2.grads.dw) < 1e-6);
    }

    #[test]
    fn instrumentation_counts_compressed_smaller_than_dense() {
        let layer = LstmLayer::new(16, 16, 8);
        let xs = inputs(5, 4, 16);
        let dense_inst = Instruments::new();
        let comp_inst = Instruments::new();
        forward(&layer, &xs, StorageMode::Dense, &[], &dense_inst);
        let ms1 = StorageMode::Compressed(Ms1Config::default());
        forward(&layer, &xs, ms1, &[], &comp_inst);
        let dense_peak = dense_inst.mem.snapshot().peak(DataCategory::Intermediates);
        let comp_peak = comp_inst.mem.snapshot().peak(DataCategory::Intermediates);
        assert!(
            comp_peak < dense_peak,
            "compressed {comp_peak} should undercut dense {dense_peak}"
        );
    }

    /// The zero-alloc contract at layer level: the sequence drivers
    /// are bit-identical to a reference loop built from the serial
    /// allocating cell primitives, at a threaded kernel config and with
    /// a reused workspace.
    #[test]
    fn sequence_paths_bit_identical_to_unfused_cell_loop() {
        let (seq, batch, input, h) = (5usize, 3usize, 6usize, 8usize);
        let layer = LstmLayer::new(input, h, 12);
        let xs = inputs(seq, batch, input);
        let inst = Instruments::new();
        let kernel = ParallelConfig::with_threads(2);
        let panels = LayerPanels::pack_with(&layer.params, &kernel);
        let exec = Exec {
            kernel: &kernel,
            instruments: &inst,
            panels: &panels,
            ms3: None,
        };

        // Reference forward: plain unfused cell primitives.
        let mut h_prev = Matrix::zeros(batch, h);
        let mut s_prev = Matrix::zeros(batch, h);
        let mut ref_fws = Vec::new();
        let mut s_prevs = Vec::new();
        for x in &xs {
            let fw = cell::forward(&layer.params, x, &h_prev, &s_prev).unwrap();
            s_prevs.push(s_prev.clone());
            h_prev = fw.h.clone();
            s_prev = fw.s.clone();
            ref_fws.push(fw);
        }

        // A reused workspace must change nothing.
        let mut ws = Workspace::new();
        for _ in 0..2 {
            let tape = layer
                .forward_sequence_ws(&xs, StorageMode::Dense, &[], &mut ws, &exec)
                .unwrap();
            for (t, fw) in ref_fws.iter().enumerate() {
                assert_eq!(&tape.hs[t], &fw.h);
                match &tape.entries[t] {
                    TapeEntry::Dense(tfw) => assert_eq!(tfw.as_ref(), fw),
                    other => panic!("expected dense entry, got {other:?}"),
                }
            }
        }
        let tape = layer
            .forward_sequence_ws(&xs, StorageMode::Dense, &[], &mut ws, &exec)
            .unwrap();

        // Reference backward: plain unfused cell primitives, reversed.
        let mut dys = zeros_grads(seq, batch, h);
        dys[seq - 1] = init::uniform(batch, h, -1.0, 1.0, 77);
        let zero_h = Matrix::zeros(batch, h);
        let mut ref_grads = CellGrads::zeros_like(&layer.params);
        let mut dh_next = zero_h.clone();
        let mut ds_next = zero_h.clone();
        let mut ref_dxs = Vec::new();
        let mut ref_mags = vec![0.0f64; seq];
        for t in (0..seq).rev() {
            let p1 = cell::P1Dense::compute(&ref_fws[t], &s_prevs[t]).unwrap();
            let mut dh_total = dys[t].clone();
            dh_total.add_assign(&dh_next).unwrap();
            let h_prev_t = if t == 0 { &zero_h } else { &ref_fws[t - 1].h };
            let mut cg = CellGrads::zeros_like(&layer.params);
            let out = cell::backward(
                &layer.params,
                &p1,
                &xs[t],
                h_prev_t,
                &dh_total,
                &ds_next,
                &mut cg,
            )
            .unwrap();
            ref_grads.accumulate(&cg).unwrap();
            ref_mags[t] = cg.magnitude();
            ref_dxs.push(out.dx);
            dh_next = out.dh_prev;
            ds_next = out.ds_prev;
        }
        ref_dxs.reverse();

        let b = layer
            .backward_sequence_ws(&xs, &tape, &dys, 1.0, &mut ws, &exec)
            .unwrap();
        assert_eq!(b.dxs, ref_dxs);
        assert_eq!(b.grads.dw, ref_grads.dw);
        assert_eq!(b.grads.du, ref_grads.du);
        assert_eq!(b.grads.db, ref_grads.db);
        assert_eq!(b.magnitudes, ref_mags);
    }

    #[test]
    fn tape_compression_stats_empty_for_dense() {
        let layer = LstmLayer::new(4, 4, 9);
        let xs = inputs(2, 2, 4);
        let inst = Instruments::new();
        let tape = forward(&layer, &xs, StorageMode::Dense, &[], &inst);
        assert_eq!(LstmLayer::tape_compression_stats(&tape).total, 0);
        let ms1 = StorageMode::Compressed(Ms1Config::default());
        let tape_c = forward(&layer, &xs, ms1, &[], &inst);
        assert!(LstmLayer::tape_compression_stats(&tape_c).total > 0);
    }
}
