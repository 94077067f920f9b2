//! The `*_instrumented` entry points must mirror the simulator's
//! behavior exactly (telemetry is an observer, never a participant) and
//! record the documented metric names.

use eta_accel::accumulator::AccumulatorSim;
use eta_accel::arch::{AccelConfig, ArchKind, EtaAccel};
use eta_accel::dma::DmaModule;
use eta_accel::timeline::{trace, trace_instrumented, Alloc, CellKernels};
use eta_memsim::model::{LstmShape, OptEffects};
use eta_telemetry::{keys, MetricValue, RunManifest, Snapshot, Telemetry};

/// Total observations across every label series of one histogram.
fn histogram_count(snap: &Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match &m.value {
            MetricValue::Histogram { histogram } => histogram.count,
            _ => 0,
        })
        .sum()
}

fn fresh() -> Telemetry {
    Telemetry::new(RunManifest::capture("accel-test", "0".into(), 0))
}

fn cells(n: usize) -> Vec<CellKernels> {
    vec![
        CellKernels {
            mm_ops: 96_000,
            ew_ops: 4_000,
        };
        n
    ]
}

#[test]
fn simulate_instrumented_matches_simulate_and_records() {
    let t = fresh();
    let shape = LstmShape::new(1536, 1536, 4, 35, 128);
    let eff = OptEffects::combined(0.35, 0.49);
    let m = EtaAccel::new(AccelConfig::paper_4board(), ArchKind::DynArch);

    let plain = m.simulate(&shape, &eff);
    let instrumented = m.simulate_instrumented(&shape, &eff, Some(&t));
    assert_eq!(instrumented, plain, "telemetry must not perturb the report");
    // And the None path is the plain path.
    assert_eq!(m.simulate_instrumented(&shape, &eff, None), plain);

    let snap = t.snapshot();
    assert_eq!(
        histogram_count(&snap, keys::ACCEL_PE_BUSY_FRACTION),
        2,
        "one fw + one bp observation"
    );
    let occupancy = snap
        .histogram(keys::ACCEL_PE_BUSY_FRACTION)
        .expect("PE occupancy histogram");
    assert!(occupancy.max <= 1.0 && occupancy.min > 0.0);
    assert_eq!(
        snap.gauge(keys::ACCEL_UTILIZATION).unwrap(),
        plain.utilization
    );
    assert_eq!(snap.gauge(keys::ACCEL_TFLOPS).unwrap(), plain.tflops);
    assert_eq!(
        snap.counter_total(keys::ACCEL_TRAFFIC_BYTES_TOTAL),
        plain.traffic_bytes
    );
}

#[test]
fn trace_instrumented_counts_swing_handoffs() {
    let t = fresh();
    let cs = cells(6);
    let plain = trace(&cs, 1000.0, Alloc::Dynamic);
    let tl = trace_instrumented(&cs, 1000.0, Alloc::Dynamic, Some(&t));
    assert_eq!(tl, plain);

    let snap = t.snapshot();
    // 6 cells × 2 segments, every boundary switches kind: 11 handoffs.
    assert_eq!(snap.counter_total(keys::ACCEL_SWING_HANDOFFS_TOTAL), 11);
    // 12 segments total across the MatMul/EW label series.
    assert_eq!(histogram_count(&snap, keys::ACCEL_PE_BUSY_FRACTION), 12);

    // Static allocation has no swing PEs, hence no handoffs.
    let t2 = fresh();
    trace_instrumented(&cs, 1000.0, Alloc::Static { ew_fraction: 0.4 }, Some(&t2));
    assert_eq!(
        t2.snapshot()
            .counter_total(keys::ACCEL_SWING_HANDOFFS_TOTAL),
        0
    );
}

#[test]
fn dma_write_instrumented_records_compression_ratio() {
    let t = fresh();
    let mut dma = DmaModule::new(0.1);
    // Mostly-pruned stream compresses well.
    let mut values = vec![0.0f32; 256];
    values[7] = 1.0;
    values[101] = -2.0;
    let packet = dma.write_instrumented(&values, true, Some(&t));
    assert!(packet.bytes() < 256 * 4);
    let dense = dma.write_instrumented(&values, false, Some(&t));
    assert_eq!(dense.bytes(), 256 * 4);

    let snap = t.snapshot();
    let ratio = snap
        .histogram(keys::ACCEL_DMA_COMPRESSION_RATIO)
        .expect("ratio histogram");
    assert_eq!(ratio.count, 1, "dense writes record no ratio");
    assert!(
        ratio.max < 0.5,
        "sparse stream should compress: {}",
        ratio.max
    );
    assert_eq!(
        snap.counter_total(keys::ACCEL_DMA_WRITE_BYTES_TOTAL),
        packet.bytes() + dense.bytes()
    );
}

#[test]
fn accumulator_instrumented_records_stalls() {
    let t = fresh();
    let sim = AccumulatorSim::default();
    let values = vec![1.0f32; 64];
    let run = sim.run_instrumented(&values, Some(&t));
    assert_eq!(run, sim.run(&values));

    let snap = t.snapshot();
    let stall = snap
        .histogram(keys::ACCEL_ACCUMULATOR_STALL_FRACTION)
        .expect("stall histogram");
    assert_eq!(stall.count, 1);
    let ideal = 64 + sim.add_latency as u64;
    assert_eq!(
        snap.counter_total(keys::ACCEL_ACCUMULATOR_STALL_CYCLES_TOTAL),
        run.cycles - ideal.min(run.cycles)
    );
}
