//! Determinism contract of the data-parallel engine (PR satellite):
//! `Trainer::run` must produce **bit-identical** loss trajectories at
//! any worker thread count. Shard boundaries depend only on the batch
//! size, each shard is computed by the exact serial kernels, and the
//! gradient tree reduction always combines shards in index order — so
//! threads are a latency knob, never a numerics knob.
//!
//! The `ETA_THREADS` leg of the contract lives in `tests/threads_env.rs`:
//! it writes the process environment, so it needs a test binary of its
//! own.

use eta_lstm::core::parallel::Parallelism;
use eta_lstm::core::{LstmConfig, Trainer, TrainingStrategy};
use eta_lstm::workloads::SyntheticTask;

fn config() -> LstmConfig {
    LstmConfig::builder()
        .input_size(12)
        .hidden_size(16)
        .layers(2)
        .seq_len(12)
        .batch_size(8)
        .output_size(4)
        .build()
        .expect("valid config")
}

fn task() -> SyntheticTask {
    SyntheticTask::classification(12, 4, 12, 3).with_batch_size(8)
}

fn run_with_threads(strategy: TrainingStrategy, threads: usize) -> Vec<f64> {
    let mut trainer = Trainer::new(config(), strategy, 42)
        .expect("trainer")
        .with_parallelism(Parallelism::with_threads(threads));
    let report = trainer.run(&task(), 4).expect("training");
    let mut losses: Vec<f64> = report.epochs.iter().map(|e| e.mean_loss).collect();
    losses.push(report.final_loss());
    losses
}

#[test]
fn loss_trajectory_is_bit_identical_across_thread_counts() {
    for strategy in [TrainingStrategy::Baseline, TrainingStrategy::CombinedMs] {
        let reference = run_with_threads(strategy, 1);
        assert!(reference.iter().all(|l| l.is_finite()));
        for threads in [2, 8] {
            let losses = run_with_threads(strategy, threads);
            assert_eq!(reference.len(), losses.len());
            for (epoch, (a, b)) in reference.iter().zip(losses.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{strategy}: epoch {epoch} loss {a} (1 thread) vs {b} ({threads} threads)"
                );
            }
        }
    }
}

#[test]
fn parallel_training_still_converges() {
    let mut trainer = Trainer::new(config(), TrainingStrategy::Baseline, 42)
        .expect("trainer")
        .with_parallelism(Parallelism::with_threads(4));
    let report = trainer.run(&task(), 8).expect("training");
    assert!(
        report.final_loss() < report.epochs[0].mean_loss * 0.6,
        "parallel engine broke learning: {} -> {}",
        report.epochs[0].mean_loss,
        report.final_loss()
    );
}
