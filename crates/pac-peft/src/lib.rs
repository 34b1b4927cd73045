//! # pac-peft
//!
//! Fine-tuning techniques for personal LLMs, reproducing §4 of the PAC paper:
//!
//! * **Full** fine-tuning — every backbone parameter trains.
//! * **Adapters** (Houlsby et al. 2019) — bottleneck modules inserted at the
//!   end of each transformer layer; parameter-efficient but backprop still
//!   traverses the whole backbone.
//! * **LoRA** (Hu et al. 2021) — trainable low-rank deltas on the attention
//!   Q/V projections; same backprop caveat.
//! * **Parallel Adapters** (the paper's technique, after side-tuning/LST) —
//!   a trainable side network `a_i = f_i(b_i, a_{i-1})` consuming backbone
//!   layer outputs `b_i`. Backprop never enters the backbone, and because
//!   the backbone is frozen the `b_i` are input-invariant — enabling the
//!   **activation cache** ([`cache`]) that skips backbone forward passes
//!   from epoch 2 on.
//!
//! Every technique has (a) a *real trainable implementation* over
//! [`pac_model::EncDecModel`] used in the quality experiments, and (b) an
//! *analytic account* of trainable parameters and memory footprint
//! ([`technique`], [`memory`]) used by the cluster-scale simulations
//! (Tables 1–2, Figures 3/8/9).

#![deny(missing_docs)]

pub mod adapters;
pub mod cache;
pub mod checkpoint;
pub mod full;
pub mod lora;
pub mod memory;
pub mod parallel;
pub mod technique;
pub mod tuner;

pub use adapters::AdapterTuner;
pub use cache::{ActivationCache, CacheStats};
pub use checkpoint::{CheckpointError, TrainCheckpoint};
pub use full::FullTuner;
pub use lora::LoraTuner;
pub use memory::{MemoryBreakdown, MemoryModel};
pub use parallel::{AdapterBaseline, ParallelAdapters, ParallelCtx, ParallelTuner, SideCtx};
pub use technique::Technique;
pub use tuner::{Tuner, TunerCtx};
