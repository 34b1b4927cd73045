//! # pac-model
//!
//! Encoder-decoder transformer LLMs assembled from `pac-nn` layers.
//!
//! Two families of model objects live here:
//!
//! * [`config::ModelConfig`] — architecture descriptors. The three **paper
//!   configs** (T5-Base, BART-Large, T5-Large; Table 4 of the PAC paper) are
//!   used *analytically* by the cost model and planner: parameter counts,
//!   activation sizes and FLOPs are computed from them exactly, which is what
//!   drives every simulated experiment. **Micro configs** are small enough to
//!   train for real on a CPU and drive the quality-parity and correctness
//!   experiments.
//! * [`encdec::EncDecModel`] / [`encoder::EncoderModel`] — real, trainable
//!   models with explicit forward/backward. `EncDecModel` mirrors the paper's
//!   T5/BART structure (encoder + causally-masked decoder with
//!   cross-attention + task head). `EncoderModel` is the encoder-only variant
//!   the real pipeline-parallel engine partitions into [`stage::StageModel`]s
//!   (a single activation tensor flows between stages, matching the
//!   pipeline-parallel payload in the paper's Figure 6). It is itself one
//!   stage holding every [`stage::StageUnit`], so the whole model and any
//!   cut of it run one body.
//!
//! [`stage::StageModel`] is the only loop over encoder layers: its forward
//! either records the backward's context or, frozen, keeps only each
//! layer's output `b_i`. `EncDecModel`'s encoder is such a stage (embedding
//! and layers, no head), and the model adds only the decoder loop, which
//! reads the tied tables from that stage's embedding. Both models embed
//! tokens with [`embed`].

#![deny(missing_docs)]

pub mod config;
pub mod embed;
pub mod encdec;
pub mod encoder;
pub mod stage;

pub use config::{ModelConfig, ModelKind};
pub use embed::{embed_tokens, embed_tokens_backward, TokenEmbedCtx};
pub use encdec::{EncDecCtx, EncDecModel};
pub use encoder::EncoderModel;
pub use stage::{StageCtx, StageData, StageModel, StageUnit};
