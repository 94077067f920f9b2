//! `ETA_THREADS` leg of the data-parallel determinism contract (see
//! `tests/parallel_determinism.rs`). This binary holds exactly one test
//! because it writes the process environment: `set_var` while another
//! test thread reads the environment is a data race, so no other test
//! may share the process.

use eta_lstm::core::parallel::Parallelism;
use eta_lstm::core::{LstmConfig, Trainer, TrainingStrategy};
use eta_lstm::tensor::parallel::THREADS_ENV;
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

fn epoch_losses(parallelism: Parallelism) -> Vec<f64> {
    let mut trainer = Trainer::new(config(), TrainingStrategy::Baseline, 42)
        .expect("trainer")
        .with_parallelism(parallelism);
    let report = trainer.run(&task(), 3).expect("training");
    report.epochs.iter().map(|e| e.mean_loss).collect()
}

#[test]
fn env_configured_engine_matches_explicit_threads() {
    // `Parallelism::from_env` only picks the *thread* count from
    // `ETA_THREADS`; shard count and kernels are fixed, so any env
    // value must reproduce the explicit-threads trajectory bit for bit.
    std::env::set_var(THREADS_ENV, "3");
    let from_env = Parallelism::from_env();
    std::env::remove_var(THREADS_ENV);
    assert_eq!(from_env.threads, 3);
    let env_losses = epoch_losses(from_env);
    let reference = epoch_losses(Parallelism::with_threads(1));
    assert_eq!(env_losses.len(), reference.len());
    for (epoch, (e, r)) in env_losses.iter().zip(reference.iter()).enumerate() {
        assert_eq!(
            e.to_bits(),
            r.to_bits(),
            "epoch {epoch}: env-configured engine diverged"
        );
    }
}
