//! What a training world is configured with and how a run can fail:
//! [`DistConfig`] and [`DistError`], shared by the coordinator and every
//! caller that submits a job to it.

use crate::wire::NetError;
use pac_cluster::LinkSpec;
use pac_model::{EncoderModel, ModelConfig, StageModel};
use pac_parallel::{EngineError, Schedule};
use pac_store::StoreError;
use pac_tensor::rng::seeded;
use std::fmt;
use std::time::Duration;

/// Errors out of the coordinator: a job rejected before anything was
/// spawned, engine-level failures (fatal, post-recovery), or transport
/// failures during world setup that are not attributable to a training
/// rank.
#[derive(Debug)]
pub enum DistError {
    /// A submitted job cannot be run as stated; nothing was launched.
    InvalidJob {
        /// Tenant whose job was rejected.
        tenant: u64,
        /// What is wrong with it.
        reason: String,
    },
    /// Setup / control-plane transport failure.
    Net(NetError),
    /// Training failure after recovery was exhausted or impossible.
    Engine(EngineError),
    /// The durable checkpoint store failed (dead writer, unreadable log,
    /// or an injected crash-point). Training state past the last committed
    /// snapshot is gone; recovery is a cold restart over the same log.
    Store(StoreError),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::InvalidJob { tenant, reason } => {
                write!(f, "tenant {tenant}'s job rejected: {reason}")
            }
            DistError::Net(e) => write!(f, "distributed setup failed: {e}"),
            DistError::Engine(e) => write!(f, "distributed training failed: {e}"),
            DistError::Store(e) => write!(f, "durable checkpoint store failed: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<NetError> for DistError {
    fn from(e: NetError) -> Self {
        DistError::Net(e)
    }
}

impl From<EngineError> for DistError {
    fn from(e: EngineError) -> Self {
        DistError::Engine(e)
    }
}

impl From<StoreError> for DistError {
    fn from(e: StoreError) -> Self {
        DistError::Store(e)
    }
}

/// Configuration of a distributed training job.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Classification head width.
    pub n_out: usize,
    /// Layers per pipeline stage; `partition.len()` is the stage count.
    pub partition: Vec<usize>,
    /// Data-parallel lanes.
    pub lanes: usize,
    /// Micro-batch schedule.
    pub schedule: Schedule,
    /// Shared model-init seed.
    pub seed: u64,
    /// SGD learning rate.
    pub lr: f32,
    /// Take a parameter snapshot every this many steps (0 disables
    /// periodic snapshots; the initial one is always taken).
    pub checkpoint_every: usize,
    /// Read deadline for every socket.
    pub net_timeout: Duration,
    /// How long to wait for the whole world to rendezvous.
    pub setup_timeout: Duration,
    /// Per-rank deadline for acking the liveness probe every step
    /// carries, from dispatch. A rank that misses it is treated as
    /// departed *before* a broken pipeline step has to time out.
    pub liveness_timeout: Duration,
    /// Rebalance micro-batch row shares toward fast lanes when measured
    /// per-lane step cost (busy time + control RTT) diverges.
    pub rebalance: bool,
    /// Link model handed to the planner for replan feasibility (use
    /// [`LinkSpec::measured`] from the loopback calibration bench to plan
    /// against the fabric the job actually runs on).
    pub link: LinkSpec,
    /// Record and aggregate `net.*` telemetry.
    pub telemetry: bool,
    /// Re-admit evicted workers that re-dial the rendezvous (partition
    /// heal): an evicted rank's control connection is dropped *without* a
    /// `Shutdown`, the worker re-dials once with a fresh `Hello`, and the
    /// coordinator folds it back in through the planner's admission path. Off
    /// by default — re-admission timing depends on when the healed worker's
    /// dial lands, so deterministic sweeps keep it disabled. Only a world
    /// that shrinks on rank loss ([`crate::RankLoss::Shrink`]) has a lane
    /// to heal.
    pub admit_reconnects: bool,
    /// Ship pipeline Act frames as per-row absmax int8 (`Msg::ActQ8`,
    /// ~4× fewer boundary bytes) instead of bitwise f32 `Msg::Act`. Off
    /// by default: the f32 wire is what keeps distributed training
    /// bit-identical to the in-process reference; int8 trades a
    /// half-quantization-step perturbation of each boundary activation
    /// for the bandwidth cut (frozen-side data only — gradients always
    /// travel f32).
    pub wire_q8: bool,
}

impl DistConfig {
    /// A micro-scale loopback world: `stages` stages of 2 layers each,
    /// `lanes` lanes, the test-scale model dimensions used across the
    /// engine test suites.
    pub fn loopback(stages: usize, lanes: usize) -> Self {
        DistConfig {
            hidden: 16,
            heads: 2,
            n_out: 2,
            partition: vec![2; stages],
            lanes,
            schedule: Schedule::OneFOneB,
            seed: 7,
            lr: 0.05,
            checkpoint_every: 2,
            net_timeout: Duration::from_secs(10),
            setup_timeout: Duration::from_secs(20),
            liveness_timeout: Duration::from_secs(10),
            rebalance: false,
            link: LinkSpec::lan_128mbps(),
            telemetry: false,
            admit_reconnects: false,
            wire_q8: false,
        }
    }

    /// Stage count.
    pub fn stages(&self) -> usize {
        self.partition.len()
    }

    /// The model architecture, as the planner's cost model sees it: as
    /// many encoder layers as the partition cuts into stages.
    pub fn model_config(&self) -> ModelConfig {
        let enc_layers = self.partition.iter().sum();
        ModelConfig::micro(enc_layers, 0, self.hidden, self.heads)
    }

    /// The job's model built from `seed` and cut at `partition`: what the
    /// in-process reference trains and a restored snapshot must fit.
    ///
    /// # Errors
    /// Returns a shape error when `partition` does not cut the model's
    /// layers into non-empty stages.
    pub fn build_stages(&self) -> pac_tensor::Result<Vec<StageModel>> {
        EncoderModel::new(&self.model_config(), self.n_out, &mut seeded(self.seed))
            .partition(&self.partition)
    }
}
