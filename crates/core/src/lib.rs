//! # pac-core — Pluto and Charon
//!
//! The user-facing PAC framework: a time- and memory-efficient
//! collaborative edge AI framework for personal LLM fine-tuning
//! (Ouyang et al., ICPP 2024), reproduced in Rust.
//!
//! The crate ties the substrates together:
//!
//! * [`trainer`] — single-process fine-tuning loops (any technique, any
//!   GLUE-analog task), including the Parallel-Adapters + activation-cache
//!   loop; drives the quality experiments (Table 3).
//! * [`session`] — the end-to-end PAC workflow of the paper's Figure 4
//!   (Steps 0–5) executed for real at micro scale: attach Parallel
//!   Adapters → profile → plan → freeze → collaborative epoch 1 with cache
//!   fill → cache-only data-parallel epochs.
//! * [`systems`] — simulated end-to-end training-time estimation for every
//!   (system × technique × model × task) cell of Table 2, including OOM
//!   verdicts, built on the cluster simulator and planner.
//! * [`quality`] — the Table 3 quality-parity experiment runner.

#![deny(missing_docs)]

pub mod personalize;
pub mod quality;
pub mod session;
pub mod systems;
pub mod tenant;
pub mod trainer;

pub use personalize::{Personalizer, PersonalizerConfig};
pub use quality::{run_quality_experiment, QualityCell};
pub use session::{PacConfig, PacReport, PacSession};
pub use systems::{estimate_cell, CellResult, System};
pub use tenant::{
    run_tenant_burst, BurstOutcome, BurstSpec, TenantError, TenantPhase, TenantSession,
};
pub use trainer::{
    evaluate, evaluate_replicas, finetune, finetune_with_cache, TrainConfig, TrainReport,
};

/// Common imports for PAC users.
pub mod prelude {
    pub use crate::personalize::{Personalizer, PersonalizerConfig};
    pub use crate::session::{PacConfig, PacReport, PacSession};
    pub use crate::systems::{estimate_cell, CellResult, System};
    pub use crate::tenant::{run_tenant_burst, BurstSpec, TenantSession};
    pub use crate::trainer::{evaluate, finetune, finetune_with_cache, TrainConfig, TrainReport};
    pub use pac_cluster::{Cluster, DeviceSpec, LinkSpec};
    pub use pac_data::{Dataset, TaskKind};
    pub use pac_model::{EncDecModel, ModelConfig};
    pub use pac_peft::{ActivationCache, Technique, Tuner};
}
