//! The end-to-end PAC workflow (paper Figure 4, Steps 0–5), executed for
//! real at micro scale across simulated devices (threads).

use crate::trainer::{evaluate_replicas, shard};
use pac_cluster::{Cluster, CostModel};
use pac_data::{Dataset, TaskKind};
use pac_model::ModelConfig;
use pac_nn::{Adam, Module, Optimizer};
use pac_parallel::engine::{dp_step_cached_supervised, dp_step_tokens_supervised};
use pac_parallel::faults::{FaultClock, FaultPlan, TimelineEvent, TimelineKind};
use pac_parallel::{EngineError, ParallelPlan};
use pac_peft::{ActivationCache, CacheStats, Technique, TrainCheckpoint, Tuner};
use pac_planner::Planner;
use pac_store::{MemStore, Store};
use pac_tensor::rng::seeded;
use pac_tensor::{Result, Tensor};
use std::ops::Range;

/// Configuration for a PAC fine-tuning session.
#[derive(Debug, Clone, Copy)]
pub struct PacConfig {
    /// Number of collaborating (simulated) edge devices.
    pub devices: usize,
    /// Parallel-Adapters reduction factor `k` (paper: 8).
    pub reduction: usize,
    /// Fine-tuning epochs (epoch 1 fills the cache).
    pub epochs: usize,
    /// Global mini-batch size, split across the devices by rows (the first
    /// devices take one row more when they do not divide it). At least
    /// `devices`.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Master seed.
    pub seed: u64,
    /// Snapshot a [`TrainCheckpoint`] every this many steps (0 disables
    /// periodic snapshots; an initial snapshot is always taken so recovery
    /// is possible from step 0).
    pub checkpoint_every: usize,
    /// Store cached activations as per-row absmax int8 (~4× smaller
    /// resident cache) instead of raw f32. Off by default: the f32 cache
    /// reproduces uncached training bit-for-bit, int8 trades a
    /// half-quantization-step perturbation for the memory cut.
    pub cache_int8: bool,
}

impl Default for PacConfig {
    fn default() -> Self {
        PacConfig {
            devices: 4,
            reduction: 8,
            epochs: 3,
            batch_size: 8,
            lr: 1e-2,
            seed: 42,
            checkpoint_every: 4,
            cache_int8: false,
        }
    }
}

/// Fault-handling summary of a session run. All-zero for fault-free runs.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Faults from the plan that actually fired.
    pub faults_injected: usize,
    /// Times the planner produced a new plan over surviving devices.
    pub replans: u32,
    /// Training checkpoints snapshotted (including the initial one).
    pub checkpoints: usize,
    /// Total serialized size of all snapshots, in bytes.
    pub checkpoint_bytes: usize,
    /// Devices still alive at the end of the run.
    pub final_devices: usize,
    /// Ordered fault/recovery events (the recovery timeline).
    pub timeline: Vec<TimelineEvent>,
}

impl RecoveryReport {
    /// Builds a report from a [`FaultClock`]'s recorded timeline plus the
    /// supervisor's own tallies. `faults_injected` is derived from the
    /// timeline (every [`TimelineKind::Injected`] entry), so in-process and
    /// distributed recovery loops count faults the same way — this is the
    /// single constructor shared by [`PacSession`] and `pac-net`'s
    /// coordinator.
    pub fn from_timeline(
        timeline: Vec<TimelineEvent>,
        replans: u32,
        checkpoints: usize,
        checkpoint_bytes: usize,
        final_devices: usize,
    ) -> Self {
        RecoveryReport {
            faults_injected: timeline
                .iter()
                .filter(|e| e.kind == TimelineKind::Injected)
                .count(),
            replans,
            checkpoints,
            checkpoint_bytes,
            final_devices,
            timeline,
        }
    }
}

/// Report of a PAC session.
#[derive(Debug, Clone)]
pub struct PacReport {
    /// The plan the PAC planner chose for the (paper-scale) architecture —
    /// the *latest* plan if device failures forced a replan mid-run.
    pub plan: ParallelPlan,
    /// Simulated mini-batch makespan of that plan (seconds).
    pub planned_makespan_s: f64,
    /// Mean training loss per epoch (real training).
    pub epoch_losses: Vec<f32>,
    /// Final task metric on [0, 100].
    pub metric: f64,
    /// Activation-cache statistics.
    pub cache_stats: CacheStats,
    /// Trainable / total parameter counts of the micro model.
    pub trainable_params: usize,
    /// Total parameters of the micro model.
    pub total_params: usize,
    /// Fault-injection and recovery summary.
    pub recovery: RecoveryReport,
}

/// A consistent rollback point: serialized [`TrainCheckpoint`] plus the
/// loop cursor needed to replay from it.
struct Snapshot {
    bytes: Vec<u8>,
    epoch: usize,
    next_batch: usize,
    sum: f32,
    count: usize,
    losses: usize,
}

/// A PAC fine-tuning session (paper Figure 4).
#[derive(Debug, Clone)]
pub struct PacSession {
    /// Session configuration.
    pub config: PacConfig,
}

impl PacSession {
    /// Creates a session.
    pub fn new(config: PacConfig) -> Self {
        PacSession { config }
    }

    /// Runs Steps 0–5 for `model_cfg` on `task` with `train_n` training and
    /// `eval_n` evaluation samples:
    ///
    /// 0. equip the backbone with Parallel Adapters;
    /// 1. profile (analytically, over the cost model);
    /// 2. plan stage partitioning and device grouping;
    /// 3. freeze the backbone;
    /// 4. epoch 1: collaborative training with cache fill (data-parallel
    ///    replicas across simulated devices);
    /// 5. epochs ≥ 2: cache-only data-parallel fine-tuning.
    ///
    /// # Errors
    /// Propagates shape errors from training.
    pub fn run(
        &self,
        model_cfg: &ModelConfig,
        task: TaskKind,
        train_n: usize,
        eval_n: usize,
    ) -> Result<PacReport> {
        let backbone =
            pac_model::EncDecModel::new(model_cfg, task.n_out(), &mut seeded(self.config.seed));
        self.run_with_backbone(backbone, task, train_n, eval_n)
    }

    /// Like [`PacSession::run`] but starting from a user-provided
    /// ("pretrained") backbone — the realistic deployment path, since PAC
    /// personalizes an existing LLM.
    ///
    /// # Errors
    /// Propagates shape errors from training.
    pub fn run_with_backbone(
        &self,
        backbone: pac_model::EncDecModel,
        task: TaskKind,
        train_n: usize,
        eval_n: usize,
    ) -> Result<PacReport> {
        self.run_with_faults(backbone, task, train_n, eval_n, &FaultPlan::none())
            .map_err(|e| match e {
                EngineError::Tensor(t) => t,
                // With an empty fault plan the only failure source is
                // tensor shape errors; anything else is a genuine bug.
                other => panic!("fault-free session failed in the fault path: {other}"),
            })
    }

    /// Like [`PacSession::run_with_backbone`] but executing under a
    /// [`FaultPlan`]. Stragglers stall their replica. A fail-stop, or a lane
    /// panic caught by the data-parallel step, loses that device for good:
    /// the session replans over the survivors, restores the last
    /// [`TrainCheckpoint`], and replays from its cursor. Plan faults name a
    /// lane by its original device id, so a fault planned after a loss
    /// still lands on the device it names. The report's [`RecoveryReport`]
    /// records what happened.
    ///
    /// # Errors
    /// Returns [`EngineError::Unplannable`] when failures leave no viable
    /// device pool, and tensor errors from training itself — among them a
    /// [`pac_tensor::TensorError::ShapeMismatch`] when `devices` exceeds
    /// `batch_size`, so that no batch could give every device a row.
    pub fn run_with_faults(
        &self,
        backbone: pac_model::EncDecModel,
        task: TaskKind,
        train_n: usize,
        eval_n: usize,
        faults: &FaultPlan,
    ) -> std::result::Result<PacReport, EngineError> {
        // A fresh in-memory store keeps the non-durable path byte-for-byte
        // identical to the pre-store behavior: commits are cheap copies and
        // nothing survives the call.
        let mut store = MemStore::new();
        self.run_with_store(backbone, task, train_n, eval_n, faults, &mut store)
    }

    /// Like [`PacSession::run_with_faults`] but persisting every
    /// [`TrainCheckpoint`] snapshot through a [`Store`] alongside the loop
    /// cursor needed to replay from it. Two consequences:
    ///
    /// - **Cold restart**: when `store` already ends in a committed
    ///   snapshot (a previous process died), the run restores it and
    ///   resumes from its cursor instead of starting over. The timeline
    ///   records a `Resume` event.
    /// - **Crash faults**: a `crash@step=N,at-byte=B` entry in `faults`
    ///   arms the store to tear the checkpoint append at byte `B` of
    ///   step `N`'s commit. The dead writer surfaces as
    ///   [`EngineError::Halted`] — recovery is reopening the store and
    ///   calling this again, not an in-process replan.
    ///
    /// # Errors
    /// Everything [`PacSession::run_with_faults`] returns, plus
    /// [`EngineError::Halted`] when the durable writer dies.
    pub fn run_with_store(
        &self,
        backbone: pac_model::EncDecModel,
        task: TaskKind,
        train_n: usize,
        eval_n: usize,
        faults: &FaultPlan,
        store: &mut dyn Store,
    ) -> std::result::Result<PacReport, EngineError> {
        let cfg = &self.config;
        let model_cfg = backbone.config.clone();
        let model_cfg = &model_cfg;
        let n_dev = cfg.devices.max(1);
        if n_dev > cfg.batch_size {
            return Err(EngineError::Tensor(
                pac_tensor::TensorError::ShapeMismatch {
                    op: "PacSession: more devices than rows in a batch",
                    lhs: vec![n_dev],
                    rhs: vec![cfg.batch_size],
                },
            ));
        }

        // Step 0: backbone + Parallel Adapters.
        let technique = Technique::ParallelAdapters {
            reduction: cfg.reduction,
        };
        let mut rng = seeded(cfg.seed);
        let tuner = Tuner::wrap(technique, backbone, task.n_out(), &mut rng);
        let trainable = tuner.num_trainable();
        let total = tuner.total_params();

        // Steps 1–2: profile + plan (on the cluster model; the micro model's
        // own shape is used so the plan is structurally valid for it).
        let plan_span = pac_telemetry::span("session.plan");
        let cluster = Cluster::nanos(n_dev);
        let cost = CostModel::new(model_cfg.clone(), technique, 16);
        let planner = Planner::paper_defaults(cluster, cfg.batch_size);
        let (plan, makespan) = match planner.plan(&cost) {
            Some(outcome) => (outcome.best, outcome.best_makespan_s),
            None => (
                ParallelPlan::data_parallel(model_cfg.total_layers(), n_dev),
                f64::NAN,
            ),
        };
        drop(plan_span);

        // Step 3 happened inside the tuner (backbone frozen).
        // Steps 4–5: replicated training across devices, supervised by the
        // fault clock. `alive` maps lane position → original device index.
        let mut plan = plan;
        let mut makespan = makespan;
        let mut replicas = vec![tuner; n_dev];
        let mut opts: Vec<Adam> = (0..n_dev).map(|_| Adam::new(cfg.lr)).collect();
        let mut cache = if cfg.cache_int8 {
            ActivationCache::new_int8()
        } else {
            ActivationCache::new()
        };
        let clock = FaultClock::new(faults.clone());
        let mut alive: Vec<usize> = (0..n_dev).collect();
        let mut failed: Vec<usize> = Vec::new();
        let mut replans = 0u32;
        let mut checkpoints = 0usize;
        let mut checkpoint_bytes = 0usize;

        let data = Dataset::generate(task, train_n + eval_n, 13, cfg.seed.wrapping_add(1));
        let (train, eval) = data.split(train_n as f64 / (train_n + eval_n) as f64);

        let mut epoch_losses: Vec<f32> = Vec::with_capacity(cfg.epochs);
        let mut epoch = 0usize;
        let mut batch_start = 0usize;
        let mut sum = 0.0f32;
        let mut count = 0usize;

        // Cold restart: a durable log ending in a committed snapshot means
        // a previous process died mid-run — restore its state and cursor
        // instead of starting over.
        let prior = store.latest().map_err(|e| EngineError::Halted {
            step: 0,
            detail: format!("durable log unreadable: {e}"),
        })?;
        let mut snap = if let Some(committed) = prior {
            let (r_epoch, r_batch, r_sum, r_count, r_losses) = decode_cursor(&committed.meta)
                .ok_or_else(|| EngineError::Halted {
                    step: 0,
                    detail: "committed snapshot carries an undecodable cursor".into(),
                })?;
            let ck = TrainCheckpoint::from_bytes(&committed.payload).map_err(|e| {
                EngineError::Halted {
                    step: 0,
                    detail: format!("committed snapshot rejected: {e}"),
                }
            })?;
            for r in replicas.iter_mut() {
                ck.restore(r).map_err(|e| EngineError::Halted {
                    step: 0,
                    detail: format!("committed snapshot does not fit the module: {e}"),
                })?;
            }
            for o in opts.iter_mut() {
                o.t = ck.adam_t;
            }
            epoch = r_epoch;
            batch_start = r_batch;
            sum = r_sum;
            count = r_count;
            epoch_losses = r_losses;
            clock.note(
                0,
                TimelineKind::Resume,
                format!(
                    "cold restart from committed snapshot seq {} (epoch {r_epoch}, batch {r_batch})",
                    committed.seq
                ),
            );
            // The restored snapshot is this run's rollback baseline; count
            // it like the initial snapshot it replaces.
            checkpoints += 1;
            checkpoint_bytes += committed.payload.len();
            Snapshot {
                bytes: committed.payload,
                epoch: r_epoch,
                next_batch: r_batch,
                sum: r_sum,
                count: r_count,
                losses: epoch_losses.len(),
            }
        } else {
            let s = take_snapshot(&replicas[0], &clock, 0, 0, 0, 0, sum, count, 0);
            persist(store, &clock, &s, 0, &epoch_losses)?;
            checkpoints += 1;
            checkpoint_bytes += s.bytes.len();
            s
        };

        'training: while epoch < cfg.epochs {
            let batches = train.batches(cfg.batch_size, epoch, cfg.seed.wrapping_add(2));
            let mut idx = batch_start;
            while idx < batches.len() {
                let batch = &batches[idx];
                let n_live = alive.len();
                // Lane `k`'s rows: every row of the batch has a lane (a lane
                // of a short tail batch may have none).
                let rows = |k: usize| shard(batch.len(), n_live, k);
                clock.advance();
                let step = clock.current_step();

                // `lost` = original index of a device that permanently left
                // this step; triggers replan + checkpoint rollback below.
                let mut lost: Option<usize> = None;
                if let Some(dev) = clock.fail_stop(step) {
                    if let Some(pos) = alive.iter().position(|&d| d == dev) {
                        clock.note(
                            step,
                            TimelineKind::Injected,
                            format!("device {dev} fail-stop"),
                        );
                        replicas.remove(pos);
                        opts.remove(pos);
                        lost = Some(dev);
                    }
                }

                if lost.is_none() {
                    for r in replicas.iter_mut() {
                        r.zero_grads();
                    }
                    let result = if epoch == 0 || !cache_has_all(&cache, &batch.ids) {
                        // Phase 1: full forwards. The step's own forward is
                        // the cache fill (paper §5.2: activations are cached
                        // *during* the epoch-1 pass), so the frozen backbone
                        // runs once per row.
                        let _span = pac_telemetry::span("session.phase1");
                        let shards: Vec<(Vec<Vec<usize>>, Vec<f32>)> = (0..n_live)
                            .map(|k| {
                                (
                                    batch.tokens[rows(k)].to_vec(),
                                    targets(batch, rows(k), task),
                                )
                            })
                            .collect();
                        dp_step_tokens_supervised(
                            &mut replicas,
                            &alive,
                            &shards,
                            task.is_regression(),
                            &clock,
                        )
                        .map(|(loss, lane_acts)| {
                            for (k, acts) in lane_acts.iter().enumerate() {
                                if !acts.is_empty() {
                                    cache.insert_batch(&batch.ids[rows(k)], acts);
                                }
                            }
                            loss
                        })
                    } else {
                        // Phase 2: cache-only DP training.
                        let _span = pac_telemetry::span("session.phase2");
                        let shards: Vec<(Vec<Tensor>, Vec<f32>)> = (0..n_live)
                            .map(|k| {
                                let ids = &batch.ids[rows(k)];
                                let acts = if ids.is_empty() {
                                    Vec::new()
                                } else {
                                    cache.get_batch(ids).expect("cache warm after epoch 1")
                                };
                                (acts, targets(batch, rows(k), task))
                            })
                            .collect();
                        dp_step_cached_supervised(
                            &mut replicas,
                            &alive,
                            &shards,
                            task.is_regression(),
                            &clock,
                        )
                    };

                    match result {
                        Ok(loss) => {
                            sum += loss;
                            count += 1;
                            for (r, o) in replicas.iter_mut().zip(opts.iter_mut()) {
                                o.step(r);
                            }
                            if cfg.checkpoint_every > 0
                                && (step + 1).is_multiple_of(cfg.checkpoint_every as u64)
                            {
                                snap = take_snapshot(
                                    &replicas[0],
                                    &clock,
                                    epoch,
                                    idx + 1,
                                    step,
                                    opts[0].t,
                                    sum,
                                    count,
                                    epoch_losses.len(),
                                );
                                persist(store, &clock, &snap, step, &epoch_losses)?;
                                checkpoints += 1;
                                checkpoint_bytes += snap.bytes.len();
                            }
                            idx += 1;
                        }
                        Err(e)
                            if e.is_recoverable() && e.lane().is_some_and(|p| p < alive.len()) =>
                        {
                            // A lane died mid-step (panic or disconnect):
                            // treat it as a permanent loss.
                            let pos = e.lane().expect("guarded above");
                            replicas.remove(pos);
                            opts.remove(pos);
                            lost = Some(alive[pos]);
                        }
                        Err(e) => return Err(e),
                    }
                }

                if let Some(dev) = lost {
                    let pos = alive
                        .iter()
                        .position(|&d| d == dev)
                        .expect("lost device was alive");
                    alive.remove(pos);
                    failed.push(dev);
                    let outcome =
                        planner
                            .replan_without(&cost, &failed)
                            .ok_or(EngineError::Unplannable {
                                survivors: alive.len(),
                            })?;
                    plan = outcome.best;
                    makespan = outcome.best_makespan_s;
                    replans += 1;
                    clock.note(
                        step,
                        TimelineKind::Replan,
                        format!("{} survivors, makespan {makespan:.2}s", alive.len()),
                    );
                    // Roll back to the last consistent snapshot and replay.
                    // Replayed steps consume *fresh* clock steps, so a
                    // fault pinned to an earlier step never fires twice.
                    let ck = TrainCheckpoint::from_bytes(&snap.bytes)
                        .expect("in-memory checkpoint round-trips");
                    for r in replicas.iter_mut() {
                        ck.restore(r).expect("checkpoint matches its own module");
                    }
                    opts = replicas
                        .iter()
                        .map(|_| {
                            let mut a = Adam::new(cfg.lr);
                            a.t = ck.adam_t;
                            a
                        })
                        .collect();
                    epoch = snap.epoch;
                    batch_start = snap.next_batch;
                    sum = snap.sum;
                    count = snap.count;
                    epoch_losses.truncate(snap.losses);
                    clock.note(
                        step,
                        TimelineKind::Resume,
                        format!(
                            "replaying from step {} (epoch {}, batch {})",
                            ck.step, snap.epoch, snap.next_batch
                        ),
                    );
                    continue 'training;
                }
            }
            epoch_losses.push(sum / count.max(1) as f32);
            epoch += 1;
            batch_start = 0;
            sum = 0.0;
            count = 0;
        }

        let metric = {
            let _span = pac_telemetry::span("session.evaluate");
            evaluate_replicas(&mut replicas, &eval)?
        };
        let recovery = RecoveryReport::from_timeline(
            clock.timeline(),
            replans,
            checkpoints,
            checkpoint_bytes,
            alive.len(),
        );
        Ok(PacReport {
            plan,
            planned_makespan_s: makespan,
            epoch_losses,
            metric,
            cache_stats: cache.stats(),
            trainable_params: trainable,
            total_params: total,
            recovery,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn take_snapshot(
    replica: &Tuner,
    clock: &FaultClock,
    epoch: usize,
    next_batch: usize,
    step: u64,
    adam_t: u64,
    sum: f32,
    count: usize,
    losses: usize,
) -> Snapshot {
    let ck = TrainCheckpoint::capture(replica, epoch as u64, step, adam_t);
    let bytes = ck.to_bytes().expect("in-memory serialization");
    pac_telemetry::counter_add("checkpoint.bytes", bytes.len() as u64);
    clock.note(
        step,
        TimelineKind::Checkpoint,
        format!("{} B at epoch {epoch}, batch {next_batch}", bytes.len()),
    );
    Snapshot {
        bytes,
        epoch,
        next_batch,
        sum,
        count,
        losses,
    }
}

/// Commits `snap` durably: the serialized checkpoint is the payload, the
/// loop cursor (plus the finished per-epoch losses) is the commit
/// metadata. When the fault plan pins a `crash@step=N,at-byte=B` to this
/// step, the store is armed first so the append tears mid-write — the
/// dead writer surfaces as [`EngineError::Halted`], since everything past
/// the last *committed* snapshot is unrecoverable in-process.
fn persist(
    store: &mut dyn Store,
    clock: &FaultClock,
    snap: &Snapshot,
    step: u64,
    epoch_losses: &[f32],
) -> std::result::Result<(), EngineError> {
    if let Some(at_byte) = clock.crash_point(step) {
        clock.note(
            step,
            TimelineKind::Injected,
            format!("checkpoint writer crash armed at byte {at_byte}"),
        );
        store.arm_crash(at_byte);
    }
    let meta = encode_cursor(
        snap.epoch,
        snap.next_batch,
        snap.sum,
        snap.count,
        epoch_losses,
    );
    store
        .commit(&snap.bytes, &meta)
        .map_err(|e| EngineError::Halted {
            step,
            detail: e.to_string(),
        })?;
    Ok(())
}

/// Encodes the replay cursor committed alongside each durable snapshot:
/// `epoch u64 · next_batch u64 · sum f32 · count u64 · n u64 · n × f32`
/// (all little-endian, floats as raw bits so the resume is bitwise).
fn encode_cursor(
    epoch: usize,
    next_batch: usize,
    sum: f32,
    count: usize,
    losses: &[f32],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(36 + losses.len() * 4);
    out.extend_from_slice(&(epoch as u64).to_le_bytes());
    out.extend_from_slice(&(next_batch as u64).to_le_bytes());
    out.extend_from_slice(&sum.to_bits().to_le_bytes());
    out.extend_from_slice(&(count as u64).to_le_bytes());
    out.extend_from_slice(&(losses.len() as u64).to_le_bytes());
    for l in losses {
        out.extend_from_slice(&l.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_cursor`]; `None` on any truncation or length lie.
fn decode_cursor(bytes: &[u8]) -> Option<(usize, usize, f32, usize, Vec<f32>)> {
    fn u64_at(b: &[u8], o: usize) -> Option<u64> {
        Some(u64::from_le_bytes(b.get(o..o + 8)?.try_into().ok()?))
    }
    fn f32_at(b: &[u8], o: usize) -> Option<f32> {
        Some(f32::from_bits(u32::from_le_bytes(
            b.get(o..o + 4)?.try_into().ok()?,
        )))
    }
    let epoch = u64_at(bytes, 0)? as usize;
    let next_batch = u64_at(bytes, 8)? as usize;
    let sum = f32_at(bytes, 16)?;
    let count = u64_at(bytes, 20)? as usize;
    let n = u64_at(bytes, 28)? as usize;
    if bytes.len() != 36 + n.checked_mul(4)? {
        return None;
    }
    let mut losses = Vec::with_capacity(n);
    for i in 0..n {
        losses.push(f32_at(bytes, 36 + i * 4)?);
    }
    Some((epoch, next_batch, sum, count, losses))
}

fn cache_has_all(cache: &ActivationCache, ids: &[u64]) -> bool {
    ids.iter().all(|&id| cache.contains(id))
}

/// The targets of `rows` of `batch`: scores for a regression task (MSE),
/// class ids otherwise (cross-entropy).
fn targets(batch: &pac_data::Batch, rows: Range<usize>, task: TaskKind) -> Vec<f32> {
    batch.labels[rows]
        .iter()
        .map(|l| {
            if task.is_regression() {
                l.score()
            } else {
                l.class() as f32
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_runs_end_to_end_and_learns() {
        let cfg = ModelConfig::micro(2, 1, 32, 4);
        // Pretrain a backbone briefly so the frozen features are useful
        // (the paper personalizes a *pretrained* LLM).
        let backbone = {
            use crate::trainer::{finetune, TrainConfig};
            let mut full = Tuner::new(Technique::Full, &cfg, 2, &mut seeded(41));
            let pre = Dataset::generate(TaskKind::Sst2, 80, 13, 999);
            let (ptrain, peval) = pre.split(0.9);
            finetune(
                &mut full,
                &ptrain,
                &peval,
                &TrainConfig {
                    epochs: 4,
                    lr: 3e-3,
                    ..Default::default()
                },
            )
            .unwrap();
            match full {
                Tuner::Full(f) => f.model,
                _ => unreachable!(),
            }
        };
        let session = PacSession::new(PacConfig {
            devices: 2,
            reduction: 4,
            epochs: 3,
            batch_size: 8,
            lr: 1e-2,
            seed: 42,
            checkpoint_every: 4,
            cache_int8: false,
        });
        let report = session
            .run_with_backbone(backbone, TaskKind::Sst2, 48, 16)
            .unwrap();
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
            "losses {:?}",
            report.epoch_losses
        );
        assert!(report.metric > 60.0, "metric {}", report.metric);
        // The cache was filled in epoch 1 and hit in epochs 2–3.
        assert!(report.cache_stats.entries > 0);
        assert!(report.cache_stats.hits > 0);
        // PEFT: trainable ≪ total.
        assert!(report.trainable_params * 5 < report.total_params);
    }

    #[test]
    fn session_plan_is_valid_for_the_cluster() {
        let cfg = ModelConfig::micro(2, 2, 16, 2);
        let session = PacSession::new(PacConfig {
            devices: 4,
            epochs: 1,
            ..Default::default()
        });
        let report = session.run(&cfg, TaskKind::Qnli, 24, 8).unwrap();
        assert!(report.plan.validate(cfg.total_layers(), 4).is_ok());
    }

    #[test]
    fn cursor_codec_round_trips_and_rejects_damage() {
        let losses = vec![0.75f32, 0.5, 0.25];
        let bytes = encode_cursor(3, 7, 1.5, 11, &losses);
        let (e, b, s, c, l) = decode_cursor(&bytes).expect("clean decode");
        assert_eq!((e, b, c), (3, 7, 11));
        assert_eq!(s.to_bits(), 1.5f32.to_bits());
        assert_eq!(l, losses);
        for cut in 0..bytes.len() {
            assert!(decode_cursor(&bytes[..cut]).is_none(), "cut {cut} decoded");
        }
    }

    #[test]
    fn crash_mid_checkpoint_halts_and_cold_restart_resumes() {
        use pac_parallel::faults::Fault;
        use pac_store::DiskStore;

        let dir = std::env::temp_dir().join(format!("pac-session-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let session = PacSession::new(PacConfig {
            devices: 2,
            epochs: 2,
            batch_size: 4,
            checkpoint_every: 2,
            ..Default::default()
        });
        let mk = || pac_model::EncDecModel::new(&cfg, TaskKind::Mrpc.n_out(), &mut seeded(42));

        // The writer dies at byte 0 of step 3's checkpoint append: the run
        // halts, but everything up to the step-1 commit is durable.
        let faults = FaultPlan::none().with(Fault::Crash {
            step: 3,
            at_byte: 0,
        });
        {
            let (mut store, _) = DiskStore::open(&dir).expect("fresh store");
            let err = session
                .run_with_store(mk(), TaskKind::Mrpc, 16, 8, &faults, &mut store)
                .expect_err("writer died mid-checkpoint");
            match err {
                EngineError::Halted { step, .. } => assert_eq!(step, 3),
                other => panic!("expected Halted, got {other}"),
            }
        }

        // Cold restart: reopen the same log, recover the committed prefix,
        // and the resumed run completes all epochs.
        let (mut store, report) = DiskStore::open(&dir).expect("recovery open");
        assert!(report.commits >= 1, "at least the initial commit survived");
        let resumed = session
            .run_with_store(mk(), TaskKind::Mrpc, 16, 8, &FaultPlan::none(), &mut store)
            .expect("resumed run completes");
        assert_eq!(resumed.epoch_losses.len(), 2);
        assert!(
            resumed
                .recovery
                .timeline
                .iter()
                .any(|e| e.kind == TimelineKind::Resume),
            "timeline records the cold restart: {:?}",
            resumed.recovery.timeline
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn int8_cache_session_tracks_the_f32_cache() {
        let cfg = ModelConfig::micro(2, 1, 32, 2);
        let run = |cache_int8: bool| {
            PacSession::new(PacConfig {
                devices: 2,
                epochs: 3,
                cache_int8,
                ..Default::default()
            })
            .run(&cfg, TaskKind::Sst2, 48, 16)
            .unwrap()
        };
        let (f32_run, q8_run) = (run(false), run(true));
        // Epoch 1 fills the cache from the f32 forward either way; later
        // epochs read b_i back within half a quantization step.
        assert_eq!(
            f32_run.epoch_losses[0].to_bits(),
            q8_run.epoch_losses[0].to_bits()
        );
        for (a, b) in f32_run.epoch_losses[1..]
            .iter()
            .zip(&q8_run.epoch_losses[1..])
        {
            assert!((a - b).abs() < 1e-2, "f32 {a} vs int8 {b}");
        }
        assert_eq!(f32_run.metric, q8_run.metric);
        let (f, q) = (&f32_run.cache_stats, &q8_run.cache_stats);
        assert_eq!((f.entries, f.hits), (q.entries, q.hits));
        assert_eq!(f.logical_bytes, q.logical_bytes);
        assert_eq!(f.bytes, f.logical_bytes);
        assert!(q.bytes * 3 < q.logical_bytes, "{} B resident", q.bytes);
    }

    #[test]
    fn stsb_session_completes_with_finite_losses() {
        // Epoch 1 trains the one-logit regression head on the scores (MSE),
        // as the cached epochs do.
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let report = PacSession::new(PacConfig {
            devices: 2,
            epochs: 3,
            batch_size: 8,
            ..Default::default()
        })
        .run(&cfg, TaskKind::StsB, 24, 8)
        .expect("STS-B session");
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.epoch_losses.iter().all(|l| l.is_finite()),
            "{:?}",
            report.epoch_losses
        );
        assert!(report.metric.is_finite(), "metric {}", report.metric);
    }

    #[test]
    fn every_row_trains_and_is_cached_whatever_the_device_count() {
        // 64 rows in batches of 16 over 1–6 devices: 3, 5 and 6 devices do
        // not divide the batch. Epoch 1 caches every row, every later epoch
        // reads every row from the cache.
        let (train_n, epochs) = (64, 3);
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        for devices in 1..=6 {
            let report = PacSession::new(PacConfig {
                devices,
                epochs,
                batch_size: 16,
                ..Default::default()
            })
            .run(&cfg, TaskKind::Sst2, train_n, 8)
            .expect("session");
            let stats = report.cache_stats;
            assert_eq!(stats.entries, train_n, "{devices} devices");
            assert_eq!(stats.hits, (epochs - 1) * train_n, "{devices} devices");
            assert_eq!(stats.misses, 0, "{devices} devices");
            assert!(report
                .epoch_losses
                .iter()
                .all(|&l| l.is_finite() && l > 0.0));
        }
    }

    #[test]
    fn more_devices_than_batch_rows_is_a_typed_error() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let err = PacSession::new(PacConfig {
            devices: 5,
            batch_size: 4,
            ..Default::default()
        })
        .run(&cfg, TaskKind::Sst2, 16, 8)
        .expect_err("five devices cannot share batches of four rows");
        assert!(
            matches!(err, pac_tensor::TensorError::ShapeMismatch { ref lhs, ref rhs, .. } if lhs == &[5] && rhs == &[4]),
            "{err}"
        );
    }

    #[test]
    fn single_device_session_works() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let session = PacSession::new(PacConfig {
            devices: 1,
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        });
        let report = session.run(&cfg, TaskKind::Mrpc, 16, 8).unwrap();
        assert_eq!(report.epoch_losses.len(), 2);
    }
}
