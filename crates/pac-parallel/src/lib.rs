//! # pac-parallel
//!
//! Parallel training engines for the PAC reproduction, in two layers:
//!
//! * [`schedule`] / [`simulate`] — **deterministic timeline simulation** of
//!   data parallelism (EDDL), pipeline parallelism (Eco-FL) and PAC's hybrid
//!   parallelism with 1F1B micro-batch scheduling, over the `pac-cluster`
//!   hardware models. These produce the makespans, throughputs, per-device
//!   peak memories and OOM verdicts behind Tables 2 and Figures 8/9/11.
//! * [`engine`] — **real multi-threaded execution** at micro scale:
//!   crossbeam-channel pipeline stages with the exact 1F1B op order, and a
//!   Rayon data-parallel trainer with AllReduce-style gradient averaging.
//!   Both are tested for *bitwise gradient equivalence* against
//!   single-device training, which is what entitles the simulated timelines
//!   to stand in for real runs.
//! * [`faults`] — **deterministic fault injection**: a [`FaultPlan`] pins
//!   four kinds of failure (fail-stop, straggler, join, crash) to a global
//!   step and an original lane or device id, so the pac-net coordinator's
//!   recovery path is reproducible in tests. The engines read no plan: they
//!   are the references that path is checked against.

#![deny(missing_docs)]

pub mod engine;
pub mod faults;
pub mod fill;
pub mod plan;
pub mod schedule;
pub mod simulate;

pub use engine::{EngineError, EngineResult};
pub use faults::{Fault, FaultClock, FaultPlan, RecoveryReport, TimelineEvent, TimelineKind};
pub use fill::{plan_filled, plan_serialized, FilledOp, FilledPlan, TenantLoad};
pub use plan::{ParallelPlan, StageAssignment};
pub use schedule::{Schedule, SimResult, SimStage};
pub use simulate::{
    simulate_cached_dp_step, simulate_cached_dp_step_with_interval, simulate_data_parallel,
    simulate_plan, DpSimResult,
};
