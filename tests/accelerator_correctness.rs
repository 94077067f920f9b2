//! Cross-crate correctness tests: the accelerator's functional units
//! must compute the same results as the tensor substrate, and the DMA
//! compression path must interoperate with the MS1 packets.

use eta_lstm::accel::accumulator::AccumulatorSim;
use eta_lstm::accel::channel::Channel;
use eta_lstm::accel::dma::{DmaModule, WritePacket};
use eta_lstm::core::cell::{self, CellParams, P1Dense};
use eta_lstm::core::ms1::P1Packet;
use eta_lstm::tensor::{init, Matrix};

#[test]
fn channel_matvec_matches_tensor_matmul() {
    let ch = Channel::new();
    for seed in 0..5u64 {
        let w = init::uniform(40, 24, -1.0, 1.0, seed);
        let xv: Vec<f32> = init::uniform(1, 24, -1.0, 1.0, seed + 100).into_vec();
        let (out, stats) = ch.matvec(&w, &xv);
        let xm = Matrix::from_vec(24, 1, xv.clone()).expect("shape");
        let reference = w.matmul_nn(&xm).expect("matmul");
        for (a, b) in out.iter().zip(reference.as_slice().iter()) {
            assert!((a - b).abs() < 1e-3, "channel {a} vs tensor {b}");
        }
        assert_eq!(stats.mult_ops, 40 * 24);
    }
}

#[test]
fn streaming_accumulator_matches_iterator_sum() {
    let sim = AccumulatorSim::new(8);
    for n in [1usize, 7, 63, 255, 1000] {
        let values: Vec<f32> = (0..n).map(|i| ((i % 17) as f32 - 8.0) / 4.0).collect();
        let run = sim.run(&values);
        let reference: f64 = values.iter().map(|&v| v as f64).sum();
        assert!(
            (run.sum as f64 - reference).abs() < 1e-3,
            "n={n}: {} vs {reference}",
            run.sum
        );
    }
}

#[test]
fn dma_compression_agrees_with_ms1_packet_sizes() {
    // The DMA compression module and the MS1 software path implement the
    // same near-zero pruning: their compressed sizes must agree on the
    // same data.
    let params = CellParams::new(16, 16, 9);
    let x = init::uniform(4, 16, -1.0, 1.0, 1);
    let h0 = init::uniform(4, 16, -0.5, 0.5, 2);
    let s0 = init::uniform(4, 16, -0.5, 0.5, 3);
    let fw = cell::forward(&params, &x, &h0, &s0).expect("forward");
    let p1 = P1Dense::compute(&fw, &s0).expect("p1");
    let packet = P1Packet::compress(&p1, 0.1);

    let mut dma = DmaModule::new(0.1);
    let mut dma_bytes = 0u64;
    for stream in p1.streams() {
        match dma.write(stream.as_slice(), true) {
            WritePacket::Compressed { bytes, .. } => dma_bytes += bytes,
            WritePacket::Dense { .. } => panic!("sparse-eligible stream passed through dense"),
        }
    }
    assert_eq!(dma_bytes, packet.compressed_bytes());
    assert_eq!(dma.stats().total, packet.stats().total);
    assert_eq!(dma.stats().kept, packet.stats().kept);
}

#[test]
fn dma_decoder_reconstruction_feeds_exact_backward() {
    // Decoding the DMA's compressed stream at threshold 0 and feeding it
    // through the backward pass must match the dense path.
    let params = CellParams::new(8, 8, 5);
    let x = init::uniform(2, 8, -1.0, 1.0, 11);
    let h0 = init::uniform(2, 8, -0.5, 0.5, 12);
    let s0 = init::uniform(2, 8, -0.5, 0.5, 13);
    let fw = cell::forward(&params, &x, &h0, &s0).expect("forward");
    let p1 = P1Dense::compute(&fw, &s0).expect("p1");
    let packet = P1Packet::compress(&p1, 0.0);
    let decoded = packet.decode();

    let dh = Matrix::filled(2, 8, 1.0);
    let ds = Matrix::filled(2, 8, 0.5);
    let mut g1 = cell::CellGrads::zeros_like(&params);
    let mut g2 = cell::CellGrads::zeros_like(&params);
    let o1 = cell::backward(&params, &p1, &x, &h0, &dh, &ds, &mut g1).expect("bp dense");
    let o2 = cell::backward(&params, &decoded, &x, &h0, &dh, &ds, &mut g2).expect("bp decoded");
    assert!(g1.dw.rel_diff(&g2.dw) < 1e-7);
    assert!(o1.dx.rel_diff(&o2.dx) < 1e-7);
}

#[test]
fn channel_cell_engine_matches_software_forward() {
    // The simulator's full cell datapath (MatVec on Omni-PEs, LUT
    // activations, EW chain) must compute what the training framework
    // computes, within LUT quantization tolerance.
    use eta_lstm::accel::cell_exec::{CellWeights, ChannelCellEngine};

    let input = 10;
    let hidden = 12;
    let params = CellParams::new(input, hidden, 21);
    let weights = CellWeights {
        w: params.w.clone(),
        u: params.u.clone(),
        b: params.b.clone(),
    };

    let batch = 3;
    let x = init::uniform(batch, input, -1.0, 1.0, 31);
    let h0 = init::uniform(batch, hidden, -0.5, 0.5, 32);
    let s0 = init::uniform(batch, hidden, -0.5, 0.5, 33);
    let reference = cell::forward(&params, &x, &h0, &s0).expect("software forward");

    let mut engine = ChannelCellEngine::baseline();
    for row in 0..batch {
        let exec = engine.execute(&weights, x.row(row), h0.row(row), s0.row(row));
        let out = &exec.outputs;
        for k in 0..hidden {
            assert!(
                (out.i[k] - reference.i.get(row, k)).abs() < 3e-3,
                "i[{row},{k}]: channel {} vs software {}",
                out.i[k],
                reference.i.get(row, k)
            );
            assert!((out.f[k] - reference.f.get(row, k)).abs() < 3e-3);
            assert!((out.c[k] - reference.c.get(row, k)).abs() < 3e-3);
            assert!((out.o[k] - reference.o.get(row, k)).abs() < 3e-3);
            assert!((out.s[k] - reference.s.get(row, k)).abs() < 5e-3);
            assert!((out.h[k] - reference.h.get(row, k)).abs() < 5e-3);
        }
    }
}

#[test]
fn channel_cell_engine_ms1_density_matches_software_packet() {
    use eta_lstm::accel::cell_exec::{CellWeights, ChannelCellEngine};

    let params = CellParams::new(12, 12, 23);
    let weights = CellWeights {
        w: params.w.clone(),
        u: params.u.clone(),
        b: params.b.clone(),
    };
    let x = init::uniform(1, 12, -1.0, 1.0, 41);
    let h0 = init::uniform(1, 12, -0.5, 0.5, 42);
    let s0 = init::uniform(1, 12, -0.5, 0.5, 43);

    // Software path.
    let fw = cell::forward(&params, &x, &h0, &s0).expect("forward");
    let p1 = P1Dense::compute(&fw, &s0).expect("p1");
    let packet = P1Packet::compress(&p1, 0.1);

    // Hardware path.
    let mut engine = ChannelCellEngine::with_ms1(0.1);
    let _ = engine.execute(&weights, x.row(0), h0.row(0), s0.row(0));
    let hw = engine.dma_stats();
    let sw = packet.stats();
    assert_eq!(hw.total, sw.total, "stream sizes must agree");
    // LUT quantization can flip elements sitting exactly at the
    // threshold; allow a couple of elements of slack.
    let diff = (hw.kept as i64 - sw.kept as i64).unsigned_abs();
    assert!(
        diff <= 3,
        "kept-element counts diverged: hardware {} vs software {}",
        hw.kept,
        sw.kept
    );
}

#[test]
fn channel_activation_units_match_reference_functions() {
    let ch = Channel::new();
    let v: Vec<f32> = (-40..=40).map(|i| i as f32 / 10.0).collect();
    let (sig, _) = ch.sigmoid(&v);
    let (th, _) = ch.tanh(&v);
    for (i, &x) in v.iter().enumerate() {
        assert!((sig[i] - eta_lstm::tensor::activation::sigmoid(x)).abs() < 2e-3);
        assert!((th[i] - x.tanh()).abs() < 2e-3);
    }
}
