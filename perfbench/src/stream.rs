//! The streaming-inference workload: one caller stepping a
//! `StreamingSession` in a closed loop, resetting the state at fixed
//! sequence boundaries.

use std::time::Instant;

use eta_lstm_core::inference::StreamingSession;
use eta_lstm_core::{LstmConfig, LstmModel, Task};
use eta_telemetry::Telemetry;
use eta_tensor::Matrix;
use eta_workloads::SyntheticTask;

use crate::alloc::{self, HeapSnapshot};

/// Shape of the streaming workload.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub input: usize,
    pub hidden: usize,
    pub layers: usize,
    pub batch: usize,
    pub classes: usize,
    /// Steps between state resets.
    pub seq_len: usize,
    /// Distinct generated sequences, replayed in turn.
    pub sequences: usize,
    /// Calls every run times, however long they take.
    pub min_steps: usize,
}

/// The model and its generated input sequences.
pub struct Stream {
    pub model: LstmModel,
    pub sequences: Vec<Vec<Matrix>>,
}

impl Stream {
    /// Builds the seeded model and generates the inputs.
    pub fn new(spec: &StreamSpec, seed: u64) -> Self {
        let config = LstmConfig::builder()
            .input_size(spec.input)
            .hidden_size(spec.hidden)
            .layers(spec.layers)
            .seq_len(spec.seq_len)
            .batch_size(spec.batch)
            .output_size(spec.classes)
            .build()
            .expect("workload shapes are valid");
        let task = SyntheticTask::classification(spec.input, spec.classes, spec.seq_len, seed)
            .with_batch_size(spec.batch)
            .with_batches_per_epoch(spec.sequences);
        Stream {
            model: LstmModel::new(&config, seed),
            sequences: (0..spec.sequences)
                .map(|i| task.batch(0, i).inputs)
                .collect(),
        }
    }
}

/// Measurements of one `StreamingSession::step` call.
#[derive(Debug, Clone, Default)]
pub struct CallSample {
    pub wall_s: f64,
    pub heap: HeapSnapshot,
    /// The call returned `Ok` with finite logits.
    pub ok: bool,
}

/// Drives one session through the sequences, call by call, keeping the
/// logits of the first `keep` calls.
pub struct Caller<'a> {
    stream: &'a Stream,
    session: StreamingSession<'a>,
    seq: usize,
    t: usize,
    pub kept: Vec<Matrix>,
    keep: usize,
    telemetry: Option<Telemetry>,
}

impl<'a> Caller<'a> {
    /// A session with zero state at the start of the first sequence.
    pub fn new(stream: &'a Stream, keep: usize, telemetry: Option<Telemetry>) -> Self {
        let batch = stream.sequences[0][0].rows();
        Caller {
            session: StreamingSession::new(&stream.model, batch),
            stream,
            seq: 0,
            t: 0,
            kept: Vec::new(),
            keep,
            telemetry,
        }
    }

    /// Starts keeping the next `keep` outputs, from a sequence boundary.
    pub fn restart(&mut self, keep: usize) {
        self.session.reset();
        self.seq = 0;
        self.t = 0;
        self.kept.clear();
        self.keep = keep;
    }

    /// The sequence whose outputs are kept.
    pub fn first_sequence(&self) -> &'a [Matrix] {
        &self.stream.sequences[0]
    }

    /// One timed call.
    pub fn call(&mut self) -> CallSample {
        let x = &self.stream.sequences[self.seq][self.t];
        let span = self.telemetry.as_ref().map(|t| t.span("bench.stream_step"));
        let h = alloc::snapshot();
        let t0 = Instant::now();
        let out = self.session.step(x);
        let wall_s = t0.elapsed().as_secs_f64();
        let heap = alloc::snapshot().since(&h);
        drop(span);
        let ok = match out {
            Ok(logits) => {
                let finite = logits.as_slice().iter().all(|v| v.is_finite());
                if self.kept.len() < self.keep {
                    self.kept.push(logits);
                }
                finite
            }
            Err(_) => false,
        };
        self.t += 1;
        if self.t == self.stream.sequences[self.seq].len() {
            self.session.reset();
            self.t = 0;
            self.seq = (self.seq + 1) % self.stream.sequences.len();
        }
        CallSample { wall_s, heap, ok }
    }
}

/// Compares streamed logits with `LstmModel::forward_inference` on the
/// same sequence, within the relative tolerance the streaming contract's
/// own test uses. Returns the largest relative difference.
pub fn max_rel_diff(model: &LstmModel, xs: &[Matrix], streamed: &[Matrix]) -> Option<f64> {
    let reference = model.forward_inference(xs).ok()?;
    if reference.len() != streamed.len() {
        return None;
    }
    Some(
        reference
            .iter()
            .zip(streamed)
            .map(|(r, s)| r.rel_diff(s))
            .fold(0.0, f64::max),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_first_sequence_matches_batch_inference() {
        let spec = StreamSpec {
            input: 8,
            hidden: 16,
            layers: 2,
            batch: 4,
            classes: 3,
            seq_len: 6,
            sequences: 2,
            min_steps: 0,
        };
        let stream = Stream::new(&spec, 3);
        let mut caller = Caller::new(&stream, spec.seq_len, None);
        for _ in 0..2 * spec.seq_len {
            assert!(caller.call().ok);
        }
        let diff = max_rel_diff(&stream.model, caller.first_sequence(), &caller.kept).unwrap();
        assert!(diff <= 1e-6, "{diff}");
        // After the reset at the boundary the second sequence starts
        // from zero state, so replaying the first one reproduces it.
        let first = caller.kept.clone();
        caller.restart(spec.seq_len);
        for _ in 0..spec.seq_len {
            caller.call();
        }
        assert_eq!(caller.kept, first);
    }
}
