//! The customized DMA module (paper Sec. V-D, Fig. 14): a compression
//! module and WT data/index queues on the write path, a decoder module
//! and RD data/index queues on the read path.
//!
//! Dense data flows straight through the WT/RD data queues; sparse-
//! eligible data (the MS1 P1 streams) is threshold-pruned into value +
//! index queues on write, and on read the decoder uses the sparse
//! indices to fetch only the rows of dense co-operands that matter,
//! which is how the accelerator converts MS1's value sparsity into
//! skipped DRAM requests and skipped computation.

use eta_tensor::{CompressionStats, SparseVec};
use std::collections::VecDeque;

/// A bounded FIFO with occupancy statistics, modeling the DMA's WT/RD
/// queues.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    buf: VecDeque<T>,
    capacity: usize,
    high_water: usize,
    total_pushed: u64,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Fifo {
            buf: VecDeque::new(),
            capacity,
            high_water: 0,
            total_pushed: 0,
        }
    }

    /// Pushes an entry; returns `false` (back-pressure) when full.
    pub fn push(&mut self, item: T) -> bool {
        if self.buf.len() == self.capacity {
            return false;
        }
        self.buf.push_back(item);
        self.high_water = self.high_water.max(self.buf.len());
        self.total_pushed += 1;
        true
    }

    /// Pops the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        self.buf.pop_front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Highest occupancy ever reached.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total entries ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }
}

/// What the write path emitted for one stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WritePacket {
    /// Dense pass-through: original bytes.
    Dense {
        /// Bytes written.
        bytes: u64,
    },
    /// Compressed: pruned values plus indices.
    Compressed {
        /// The surviving values and their positions.
        sparse: SparseVec,
        /// Bytes written (best of pair/bitmap encodings).
        bytes: u64,
    },
}

impl WritePacket {
    /// Bytes this packet moves to memory.
    pub fn bytes(&self) -> u64 {
        match self {
            WritePacket::Dense { bytes } | WritePacket::Compressed { bytes, .. } => *bytes,
        }
    }
}

/// The DMA engine with its compression/decoder modules.
#[derive(Debug, Clone)]
pub struct DmaModule {
    threshold: f32,
    stats: CompressionStats,
    dense_bytes: u64,
}

impl DmaModule {
    /// Creates a DMA whose compression module prunes at `threshold`.
    pub fn new(threshold: f32) -> Self {
        DmaModule {
            threshold,
            stats: CompressionStats::default(),
            dense_bytes: 0,
        }
    }

    /// Write path: dense data passes through; sparse-eligible data goes
    /// through the compression module (paper Fig. 14's "Sparse?" fork).
    pub fn write(&mut self, values: &[f32], sparse_eligible: bool) -> WritePacket {
        if !sparse_eligible {
            let bytes = (values.len() * 4) as u64;
            self.dense_bytes += bytes;
            return WritePacket::Dense { bytes };
        }
        let sparse = SparseVec::compress(values, self.threshold);
        let bytes = sparse.best_bytes();
        self.stats.merge(&sparse.stats());
        WritePacket::Compressed { sparse, bytes }
    }

    /// Read path for compressed data: the decoder returns the dense
    /// reconstruction and the list of *important* positions — the rows
    /// of dense co-operands that actually need fetching.
    pub fn read_decode(&self, sparse: &SparseVec) -> (Vec<f32>, Vec<u32>) {
        (sparse.decode(), sparse.indices().to_vec())
    }

    /// Bytes of a dense co-operand fetch reduced to only the rows the
    /// sparse operand marks important: `nnz × row_bytes` instead of
    /// `dense_len × row_bytes`.
    pub fn gathered_fetch_bytes(&self, sparse: &SparseVec, row_bytes: u64) -> u64 {
        sparse.nnz() as u64 * row_bytes
    }

    /// Aggregate compression statistics so far.
    pub fn stats(&self) -> &CompressionStats {
        &self.stats
    }

    /// Dense pass-through bytes so far.
    pub fn dense_bytes(&self) -> u64 {
        self.dense_bytes
    }
}

impl DmaModule {
    /// [`DmaModule::write`] plus metric recording.
    ///
    /// Records `accel_dma_write_bytes_total{mode}` (mode = `dense` /
    /// `compressed`) and, for compressed packets, the achieved
    /// compressed-over-dense ratio into the
    /// `accel_dma_compression_ratio` histogram (decile buckets — the
    /// encoder never exceeds dense size).
    pub fn write_instrumented(
        &mut self,
        values: &[f32],
        sparse_eligible: bool,
        telemetry: Option<&eta_telemetry::Telemetry>,
    ) -> WritePacket {
        let packet = self.write(values, sparse_eligible);
        if let Some(t) = telemetry {
            match &packet {
                WritePacket::Dense { bytes } => t.incr_with(
                    eta_telemetry::keys::ACCEL_DMA_WRITE_BYTES_TOTAL,
                    eta_telemetry::labels!(mode = "dense"),
                    *bytes,
                ),
                WritePacket::Compressed { bytes, .. } => {
                    t.incr_with(
                        eta_telemetry::keys::ACCEL_DMA_WRITE_BYTES_TOTAL,
                        eta_telemetry::labels!(mode = "compressed"),
                        *bytes,
                    );
                    let dense = (values.len() * 4) as u64;
                    if dense > 0 {
                        t.observe_in(
                            eta_telemetry::keys::ACCEL_DMA_COMPRESSION_RATIO,
                            eta_telemetry::Labels::new(),
                            crate::arch::OCCUPANCY_BUCKETS,
                            *bytes as f64 / dense as f64,
                        );
                    }
                }
            }
        }
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_respects_capacity_and_tracks_high_water() {
        let mut q = Fifo::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3), "full queue applies back-pressure");
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3));
        assert_eq!(q.total_pushed(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn dense_write_passes_through() {
        let mut dma = DmaModule::new(0.1);
        let p = dma.write(&[0.01, 0.5, 0.02], false);
        assert_eq!(p.bytes(), 12);
        assert_eq!(dma.dense_bytes(), 12);
        assert_eq!(dma.stats().total, 0);
    }

    #[test]
    fn sparse_write_compresses_and_counts() {
        let mut dma = DmaModule::new(0.1);
        let values: Vec<f32> = (0..100)
            .map(|i| if i % 4 == 0 { 0.9 } else { 0.01 })
            .collect();
        let p = dma.write(&values, true);
        assert!(p.bytes() < 400, "compressed below dense size");
        assert_eq!(dma.stats().total, 100);
        assert_eq!(dma.stats().kept, 25);
    }

    #[test]
    fn decoder_round_trips_and_exposes_indices() {
        let mut dma = DmaModule::new(0.1);
        let values = [0.5f32, 0.01, -0.8, 0.0];
        if let WritePacket::Compressed { sparse, .. } = dma.write(&values, true) {
            let (dense, idx) = dma.read_decode(&sparse);
            assert_eq!(dense, vec![0.5, 0.0, -0.8, 0.0]);
            assert_eq!(idx, vec![0, 2]);
            // Gathered fetch: only 2 of 4 rows needed.
            assert_eq!(dma.gathered_fetch_bytes(&sparse, 64), 128);
        } else {
            panic!("expected compression");
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_fifo_rejected() {
        let _: Fifo<u32> = Fifo::new(0);
    }
}
