//! Multi-channel functional execution: the gate MatVec of a cell is
//! partitioned row-wise across channels (the paper's SIMT channel
//! organization), which is what makes throughput scale with channel
//! count (Sec. V-D scalability discussion). The per-kernel makespan is
//! the slowest channel's cycles.
//!
//! Functional fidelity chains upward: [`crate::cell_exec`] verifies one
//! channel against the software cell; this module verifies the
//! partitioned execution against the single-channel engine.

use crate::cell_exec::{CellExecution, CellWeights, ChannelCellEngine};
use crate::channel::Channel;
use eta_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of a partitioned kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MachineStats {
    /// Makespan cycles (the slowest channel).
    pub cycles: u64,
    /// Total busy PE-cycles across channels.
    pub busy_pe_cycles: u64,
    /// Total multiplier ops.
    pub mult_ops: u64,
}

/// A group of channels executing row-partitioned MatVec kernels.
#[derive(Debug, Clone)]
pub struct MultiChannelEngine {
    channels: Vec<Channel>,
}

impl MultiChannelEngine {
    /// Builds an engine with `n` channels.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one channel");
        MultiChannelEngine {
            channels: (0..n).map(|_| Channel::new()).collect(),
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// `w · x` with `w`'s rows split contiguously across the channels.
    ///
    /// # Panics
    ///
    /// Panics if `w.cols() != x.len()`.
    pub fn matvec(&self, w: &Matrix, x: &[f32]) -> (Vec<f32>, MachineStats) {
        assert_eq!(w.cols(), x.len(), "matvec dimension mismatch");
        let n = self.channels.len();
        let rows = w.rows();
        let per = rows.div_ceil(n);
        let mut out = Vec::with_capacity(rows);
        let mut stats = MachineStats::default();
        for (c, channel) in self.channels.iter().enumerate() {
            let lo = c * per;
            if lo >= rows {
                break;
            }
            let hi = (lo + per).min(rows);
            let slice = Matrix::from_fn(hi - lo, w.cols(), |r, col| w.get(lo + r, col));
            let (part, s) = channel.matvec(&slice, x);
            out.extend(part);
            stats.cycles = stats.cycles.max(s.cycles);
            stats.busy_pe_cycles += s.busy_pe_cycles;
            stats.mult_ops += s.mult_ops;
        }
        (out, stats)
    }

    /// Executes a whole single-sample LSTM sequence with the gate
    /// MatVecs partitioned across the channels; the element-wise chain
    /// and activations run on channel 0 (they are tiny relative to the
    /// MatVecs). Returns the per-step outputs plus the partitioned
    /// MatVec makespan statistics.
    pub fn execute_sequence(
        &self,
        weights: &CellWeights,
        xs: &[Vec<f32>],
    ) -> (Vec<crate::cell_exec::CellOutputs>, MachineStats) {
        let h = weights.hidden();
        let mut engine = ChannelCellEngine::baseline();
        let mut h_prev = vec![0.0f32; h];
        let mut s_prev = vec![0.0f32; h];
        let mut outputs = Vec::with_capacity(xs.len());
        let mut stats = MachineStats::default();
        for x in xs {
            // Partitioned MatVecs give the timing…
            let (_, sw) = self.matvec(&weights.w, x);
            let (_, su) = self.matvec(&weights.u, &h_prev);
            stats.cycles += sw.cycles + su.cycles;
            stats.busy_pe_cycles += sw.busy_pe_cycles + su.busy_pe_cycles;
            stats.mult_ops += sw.mult_ops + su.mult_ops;
            // …and the single-channel engine provides the functional
            // reference for the whole cell (same arithmetic).
            let exec: CellExecution = engine.execute(weights, x, &h_prev, &s_prev);
            h_prev = exec.outputs.h.clone();
            s_prev = exec.outputs.s.clone();
            outputs.push(exec.outputs);
        }
        (outputs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_tensor::init;

    #[test]
    fn partitioned_matvec_matches_single_channel() {
        let w = init::uniform(96, 24, -1.0, 1.0, 5);
        let x: Vec<f32> = (0..24).map(|i| (i as f32 - 12.0) / 6.0).collect();
        let single = MultiChannelEngine::new(1);
        let multi = MultiChannelEngine::new(4);
        let (a, _) = single.matvec(&w, &x);
        let (b, _) = multi.matvec(&w, &x);
        for (u, v) in a.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn more_channels_shrink_the_makespan() {
        let w = init::uniform(256, 64, -1.0, 1.0, 7);
        let x = vec![0.5f32; 64];
        let (_, s1) = MultiChannelEngine::new(1).matvec(&w, &x);
        let (_, s4) = MultiChannelEngine::new(4).matvec(&w, &x);
        let (_, s8) = MultiChannelEngine::new(8).matvec(&w, &x);
        assert!(s4.cycles < s1.cycles);
        assert!(s8.cycles <= s4.cycles);
        // 256 rows over 1 channel = 8 waves; over 8 channels = 1 wave.
        assert_eq!(s1.cycles, 8 * s8.cycles);
        // Work is conserved.
        assert_eq!(s1.mult_ops, s8.mult_ops);
    }

    #[test]
    fn uneven_partitions_cover_all_rows() {
        let w = init::uniform(33, 8, -1.0, 1.0, 9);
        let x = vec![1.0f32; 8];
        let engine = MultiChannelEngine::new(5);
        let (out, _) = engine.matvec(&w, &x);
        assert_eq!(out.len(), 33);
        let xm = Matrix::from_vec(8, 1, x.clone()).unwrap();
        let reference = w.matmul_nn(&xm).unwrap();
        for (a, b) in out.iter().zip(reference.as_slice().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn sequence_execution_scales_and_stays_functional() {
        // 4H = 64 gate rows: one channel needs two 32-PE waves, four
        // channels finish in one.
        let weights = CellWeights {
            w: init::xavier_uniform(64, 16, 3),
            u: init::xavier_uniform(64, 16, 4),
            b: vec![0.0; 64],
        };
        let xs: Vec<Vec<f32>> = (0..4)
            .map(|t| (0..16).map(|i| ((t * 3 + i) as f32 - 8.0) / 8.0).collect())
            .collect();
        let (out1, s1) = MultiChannelEngine::new(1).execute_sequence(&weights, &xs);
        let (out4, s4) = MultiChannelEngine::new(4).execute_sequence(&weights, &xs);
        assert_eq!(out1.len(), 4);
        // Functional outputs are partition-independent.
        for (a, b) in out1.iter().zip(out4.iter()) {
            for (x, y) in a.h.iter().zip(b.h.iter()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
        assert!(
            s4.cycles < s1.cycles,
            "partitioning must cut the MatVec makespan"
        );
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = MultiChannelEngine::new(0);
    }
}
