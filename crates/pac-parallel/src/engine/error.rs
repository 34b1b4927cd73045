//! Typed failures of the real training engines.
//!
//! Engines never let a worker-thread panic escape their public API: lane
//! threads are joined, panics are converted into [`EngineError::LanePanic`]
//! carrying the failing lane/stage, and channel teardown from a neighbor's
//! death surfaces as [`EngineError::Disconnected`]. Only the pac-net
//! coordinator recovers from a lost lane or rank (shrink or respawn); every
//! other caller reports the error.

use pac_tensor::TensorError;
use std::fmt;

/// Result alias for engine operations.
pub type EngineResult<T> = std::result::Result<T, EngineError>;

/// A failure inside a training engine, attributed to its origin.
#[derive(Debug)]
pub enum EngineError {
    /// A lane's worker thread panicked (caught at join, not propagated).
    LanePanic {
        /// Data-parallel lane that died.
        lane: usize,
        /// Pipeline stage inside the lane, when attributable.
        stage: Option<usize>,
        /// Global step of the mini-batch, when known.
        step: u64,
        /// Panic payload rendered as text.
        message: String,
    },
    /// A stage lost its neighbor mid-batch (channel closed): the usual
    /// downstream symptom of a [`EngineError::LanePanic`] elsewhere.
    Disconnected {
        /// Lane the disconnection was observed in.
        lane: usize,
        /// Stage that observed the closed channel.
        stage: usize,
        /// Micro-batch being exchanged.
        micro: usize,
        /// True if the forward link broke, false for the backward link.
        forward: bool,
    },
    /// A remote peer became unreachable over a real transport (socket EOF,
    /// connection reset, or a read timeout): the distributed analogue of
    /// [`EngineError::Disconnected`], attributed to the world rank that
    /// stopped answering.
    RankDown {
        /// World rank of the peer that went away.
        rank: usize,
        /// Data-parallel lane that rank belonged to.
        lane: usize,
        /// Pipeline stage of that rank, when attributable.
        stage: Option<usize>,
        /// Global step during which contact was lost.
        step: u64,
        /// Human-readable transport diagnosis (EOF vs timeout vs reset).
        detail: String,
    },
    /// Recovery is impossible: no lanes/devices left to run on.
    NoSurvivors,
    /// A tensor-math error (shape mismatch, numerically invalid input).
    Tensor(TensorError),
    /// The run was halted from outside the engine mid-step — the durable
    /// checkpoint writer died (crash-point injection or a real storage
    /// failure), so training state past the last committed snapshot is
    /// gone. Recovery is a *cold restart* replaying the store, not an
    /// in-process replan.
    Halted {
        /// Global step during which the run was halted.
        step: u64,
        /// What killed it (e.g. the store's crash diagnosis).
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::LanePanic {
                lane,
                stage,
                step,
                message,
            } => match stage {
                Some(s) => write!(
                    f,
                    "lane {lane} panicked at stage {s} (step {step}): {message}"
                ),
                None => write!(f, "lane {lane} panicked (step {step}): {message}"),
            },
            EngineError::Disconnected {
                lane,
                stage,
                micro,
                forward,
            } => write!(
                f,
                "lane {lane} stage {stage} lost its {} neighbor at micro-batch {micro}",
                if *forward { "forward" } else { "backward" }
            ),
            EngineError::RankDown {
                rank,
                lane,
                stage,
                step,
                detail,
            } => match stage {
                Some(s) => write!(
                    f,
                    "rank {rank} (lane {lane}, stage {s}) unreachable at step {step}: {detail}"
                ),
                None => write!(
                    f,
                    "rank {rank} (lane {lane}) unreachable at step {step}: {detail}"
                ),
            },
            EngineError::NoSurvivors => write!(f, "no surviving lanes to run on"),
            EngineError::Tensor(e) => write!(f, "tensor error: {e}"),
            EngineError::Halted { step, detail } => {
                write!(f, "run halted at step {step}: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TensorError> for EngineError {
    fn from(e: TensorError) -> Self {
        EngineError::Tensor(e)
    }
}

impl EngineError {
    /// Renders a panic payload from [`std::thread::JoinHandle::join`].
    pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_lane_and_stage() {
        let e = EngineError::LanePanic {
            lane: 2,
            stage: Some(1),
            step: 7,
            message: "injected".into(),
        };
        let text = e.to_string();
        assert!(text.contains("lane 2"), "{text}");
        assert!(text.contains("stage 1"), "{text}");
        assert!(text.contains("step 7"), "{text}");
    }

    #[test]
    fn rank_down_is_recoverable_and_lane_attributed() {
        let e = EngineError::RankDown {
            rank: 3,
            lane: 1,
            stage: Some(0),
            step: 4,
            detail: "read timed out after 500ms".into(),
        };
        let text = e.to_string();
        assert!(text.contains("rank 3"), "{text}");
        assert!(text.contains("lane 1"), "{text}");
        assert!(text.contains("timed out"), "{text}");
        assert!(text.contains("stage 0"), "{text}");
        assert!(text.contains("step 4"), "{text}");
    }
}
