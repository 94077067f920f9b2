//! Model persistence: serialize a trained [`LstmModel`] to JSON and
//! back, so long experiments (and downstream users) can persist
//! parameters.
//!
//! Formerly `checkpoint.rs` — renamed because "checkpointing" now means
//! MS3's recompute checkpointing ([`crate::ms3`]); a `crate::checkpoint`
//! re-export shim keeps old paths alive.
//!
//! JSON keeps checkpoints debuggable and dependency-light; the tensors
//! serialize as flat arrays. For multi-gigabyte production models a
//! binary format would be preferable — out of scope for this
//! reproduction.

use crate::model::LstmModel;
use crate::{LstmError, Result};

/// Serializes a model to a JSON string.
///
/// # Errors
///
/// Returns [`LstmError::Config`] if serialization fails (it cannot for
/// well-formed models; the error path exists for API completeness).
pub fn to_json(model: &LstmModel) -> Result<String> {
    serde_json::to_string(model).map_err(|e| LstmError::Config(format!("serialize: {e}")))
}

/// Restores a model from [`to_json`] output.
///
/// # Errors
///
/// Returns [`LstmError::Config`] on malformed JSON or a structure that
/// does not describe a model.
pub fn from_json(json: &str) -> Result<LstmModel> {
    serde_json::from_str(json).map_err(|e| LstmError::Config(format!("deserialize: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LstmConfig;
    use crate::layer::Instruments;
    use crate::model::StepPlan;
    use crate::parallel::{train_step_sharded_ws, Parallelism};
    use crate::{Targets, WorkspacePool};
    use eta_tensor::init;

    fn step(
        model: &LstmModel,
        xs: &[eta_tensor::Matrix],
        targets: &Targets,
        plan: &StepPlan,
        inst: &Instruments,
    ) -> Result<crate::model::StepResult> {
        let par = Parallelism::serial();
        train_step_sharded_ws(
            model,
            xs,
            targets,
            plan,
            inst,
            &par,
            None,
            &mut WorkspacePool::new(),
        )
    }

    fn model() -> LstmModel {
        let cfg = LstmConfig::builder()
            .input_size(5)
            .hidden_size(6)
            .layers(2)
            .seq_len(4)
            .batch_size(2)
            .output_size(3)
            .build()
            .unwrap();
        LstmModel::new(&cfg, 77)
    }

    #[test]
    fn round_trip_preserves_parameters() {
        let m = model();
        let json = to_json(&m).unwrap();
        let restored = from_json(&json).unwrap();
        assert_eq!(m.param_bytes(), restored.param_bytes());
        assert_eq!(m.config(), restored.config());
        for (a, b) in m.layers().iter().zip(restored.layers().iter()) {
            assert_eq!(a.params, b.params);
        }
    }

    #[test]
    fn restored_model_computes_identically() {
        let m = model();
        let restored = from_json(&to_json(&m).unwrap()).unwrap();
        let xs: Vec<_> = (0..4)
            .map(|t| init::uniform(2, 5, -1.0, 1.0, 10 + t))
            .collect();
        let a = m.forward_inference(&xs).unwrap();
        let b = restored.forward_inference(&xs).unwrap();
        assert_eq!(a, b);
        // Training steps also agree.
        let targets = Targets::Classes(vec![0, 2]);
        let inst = Instruments::new();
        let ra = step(&m, &xs, &targets, &StepPlan::baseline(), &inst).unwrap();
        let rb = step(&restored, &xs, &targets, &StepPlan::baseline(), &inst).unwrap();
        assert_eq!(ra.loss, rb.loss);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{}").is_err());
    }
}
