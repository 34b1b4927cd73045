//! Real multi-threaded training engines at micro scale.
//!
//! These engines execute actual tensor math on real threads — one thread per
//! simulated device — and are tested for gradient equivalence against
//! single-device training. They demonstrate that the parallel disciplines
//! the timeline simulator models (1F1B pipelining, data-parallel gradient
//! averaging, and their hybrid) are *correct*, not just fast on paper.
//!
//! The pipeline and hybrid engines are the bitwise references pac-net's
//! distributed worlds are checked against, and the data-parallel step is
//! what `PacSession` trains with. None carries a fault layer of its own:
//! real faults are handled once, by the pac-net coordinator. Every engine
//! joins its workers as `Result`s, so a panic or a compute error comes back
//! as an attributed [`error::EngineError`], never a cascading panic.

pub mod data_parallel;
pub mod error;
pub mod hybrid;
pub mod pipeline;

pub use data_parallel::{allreduce_mean, dp_step_cached, dp_step_tokens, dp_step_tokens_with_acts};
pub use error::{EngineError, EngineResult};
pub use hybrid::{
    split_micro_batches, split_micro_batches_weighted, weighted_shares, HybridEngine, MicroBatch,
};
pub use pipeline::{
    run_pipeline_mini_batch, run_stage, ChannelLinks, PipelineOutcome, StageLinks, StageRun,
};
