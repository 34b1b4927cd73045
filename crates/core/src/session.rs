//! The end-to-end PAC workflow (paper Figure 4, Steps 0–5), executed for
//! real at micro scale across simulated devices (threads).
//!
//! The replicas are threads of one process, so the session injects no
//! fault and replans nothing: real faults are handled by the pac-net
//! coordinator. What the process can lose is its durable state, so the
//! session commits a [`TrainCheckpoint`] and the replay cursor the
//! coordinator commits too (`pac_store::encode_cursor`: the next global
//! step and every step's loss) through a [`Store`] every `checkpoint_every`
//! global steps, and cold-restarts from the last commit.
//!
//! The activation cache is not part of that durable state: a cold restart
//! starts with an empty [`ActivationCache`], so its cached-epoch steps
//! rerun the frozen forward (phase 1) until the cache refills. Losses stay
//! bitwise equal to an uninterrupted run's; the report's `cache_stats`
//! (fewer hits, more misses) do not.

use crate::trainer::evaluate_replicas;
use pac_cluster::{Cluster, CostModel};
use pac_data::{Dataset, TaskKind};
use pac_model::ModelConfig;
use pac_nn::{Adam, Module, Optimizer};
use pac_parallel::engine::{dp_step_cached, dp_step_tokens_with_acts, shard};
use pac_parallel::faults::{record, RecoveryReport, TimelineEvent, TimelineKind};
use pac_parallel::{EngineError, ParallelPlan};
use pac_peft::{ActivationCache, CacheStats, Technique, TrainCheckpoint, Tuner};
use pac_planner::Planner;
use pac_store::{decode_cursor, encode_cursor, MemStore, Store};
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
    /// Commit a [`TrainCheckpoint`] every this many global steps (0
    /// disables periodic snapshots; an initial snapshot is always committed
    /// so a cold restart can resume from step 0).
    pub checkpoint_every: usize,
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
        }
    }
}

/// Report of a PAC session.
#[derive(Debug, Clone)]
pub struct PacReport {
    /// The plan the PAC planner chose for the (paper-scale) architecture.
    pub plan: ParallelPlan,
    /// Simulated mini-batch makespan of that plan (seconds).
    pub planned_makespan_s: f64,
    /// Mean training loss per epoch (real training).
    pub epoch_losses: Vec<f32>,
    /// Final task metric on [0, 100].
    pub metric: f64,
    /// Activation-cache statistics. A cold restart starts with an empty
    /// cache (the cache is not durable), so after one these count fewer
    /// hits than an uninterrupted run's while the losses stay bitwise
    /// equal.
    pub cache_stats: CacheStats,
    /// Trainable / total parameter counts of the micro model.
    pub trainable_params: usize,
    /// Total parameters of the micro model.
    pub total_params: usize,
    /// Durable snapshots committed (with their bytes) and the `Resume` of a
    /// cold restart. A session injects no faults and replans nothing: its
    /// replicas are threads of one process, and real faults are handled by
    /// the pac-net coordinator.
    pub recovery: RecoveryReport,
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
        // A fresh in-memory store: commits are cheap copies and nothing
        // survives the call.
        self.run_with_store(backbone, task, train_n, eval_n, &mut MemStore::new())
            .map_err(|e| match e {
                EngineError::Tensor(t) => t,
                // An in-memory store never halts, so anything else is a
                // replica that panicked: a genuine bug.
                other => panic!("in-memory session failed outside tensor math: {other}"),
            })
    }

    /// Like [`PacSession::run_with_backbone`] but committing every
    /// [`TrainCheckpoint`] snapshot through a [`Store`] alongside the loop
    /// cursor needed to resume from it. When `store` already ends in a
    /// committed snapshot (a previous process died), the run restores it
    /// and resumes from its cursor instead of starting over — a *cold
    /// restart*, recorded as a `Resume` event on the report's timeline.
    ///
    /// # Errors
    /// [`EngineError::Halted`] when the durable writer dies (recovery is
    /// reopening the store and calling this again) or the log holds a
    /// snapshot this run cannot restore; [`EngineError::LanePanic`] when a
    /// replica panics; tensor errors from training itself — among them a
    /// [`pac_tensor::TensorError::ShapeMismatch`] when `devices` exceeds
    /// `batch_size`, so that no batch could give every device a row.
    pub fn run_with_store(
        &self,
        backbone: pac_model::EncDecModel,
        task: TaskKind,
        train_n: usize,
        eval_n: usize,
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
        // Steps 4–5: replicated training across devices.
        let mut replicas = vec![tuner; n_dev];
        let mut opts: Vec<Adam> = (0..n_dev).map(|_| Adam::new(cfg.lr)).collect();
        let mut cache = ActivationCache::new();
        let mut timeline: Vec<TimelineEvent> = Vec::new();
        let mut checkpoints = 0usize;
        let mut checkpoint_bytes = 0usize;

        let data = Dataset::generate(task, train_n + eval_n, 13, cfg.seed.wrapping_add(1));
        let (train, eval) = data.split(train_n as f64 / (train_n + eval_n) as f64);
        // Every epoch runs this many steps: the global step of an epoch's
        // batch `idx` is `epoch * per_epoch + idx`.
        let per_epoch = train.len().div_ceil(cfg.batch_size);
        // Every completed step's loss, in global step order: with the next
        // step (its length) this is the durable cursor.
        let mut step_losses: Vec<f32> = Vec::new();

        // Cold restart: a durable log ending in a committed snapshot means
        // a previous process died mid-run — restore its state and cursor
        // instead of starting over.
        let halted = |detail: String| EngineError::Halted { step: 0, detail };
        let prior = store
            .latest()
            .map_err(|e| halted(format!("durable log unreadable: {e}")))?;
        if let Some(committed) = prior {
            let (next_step, losses) = decode_cursor(&committed.meta)
                .filter(|(next, losses)| *next == losses.len() as u64)
                .ok_or_else(|| halted("committed snapshot carries an undecodable cursor".into()))?;
            let ck = TrainCheckpoint::from_bytes(&committed.payload)
                .map_err(|e| halted(format!("committed snapshot rejected: {e}")))?;
            for r in replicas.iter_mut() {
                ck.restore(r).map_err(|e| {
                    halted(format!("committed snapshot does not fit the module: {e}"))
                })?;
            }
            for o in opts.iter_mut() {
                o.t = ck.adam_t;
            }
            step_losses = losses;
            record(
                &mut timeline,
                next_step,
                TimelineKind::Resume,
                format!(
                    "cold restart from committed snapshot seq {}, resuming at step cursor {next_step}",
                    committed.seq
                ),
            );
            // The restored snapshot stands in for the initial one.
            checkpoints += 1;
            checkpoint_bytes += committed.payload.len();
        } else {
            checkpoint_bytes += commit(store, &mut timeline, &replicas[0], 0, 0, &[])?;
            checkpoints += 1;
        }

        let mut epoch_losses: Vec<f32> = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let batches = train.batches(cfg.batch_size, epoch, cfg.seed.wrapping_add(2));
            let mut sum = 0.0f32;
            let mut count = 0usize;
            for (idx, batch) in batches.iter().enumerate() {
                let step = epoch * per_epoch + idx;
                // A step the restored cursor holds adds its committed loss,
                // in the order the uninterrupted run added it.
                if let Some(&loss) = step_losses.get(step) {
                    sum += loss;
                    count += 1;
                    continue;
                }
                // Lane `k`'s rows: every row of the batch has a lane (a lane
                // of a short tail batch may have none).
                let rows = |k: usize| shard(batch.len(), n_dev, k);
                for r in replicas.iter_mut() {
                    r.zero_grads();
                }
                let loss = if epoch == 0 || !cache_has_all(&cache, &batch.ids) {
                    // Phase 1: full forwards. The step's own forward is the
                    // cache fill (paper §5.2: activations are cached *during*
                    // the epoch-1 pass), so the frozen backbone runs once per
                    // row.
                    let _span = pac_telemetry::span("session.phase1");
                    let shards: Vec<(Vec<Vec<usize>>, Vec<f32>)> = (0..n_dev)
                        .map(|k| {
                            (
                                batch.tokens[rows(k)].to_vec(),
                                targets(batch, rows(k), task),
                            )
                        })
                        .collect();
                    let (loss, lane_acts) =
                        dp_step_tokens_with_acts(&mut replicas, &shards, task.is_regression())?;
                    for (k, acts) in lane_acts.iter().enumerate() {
                        if !acts.is_empty() {
                            cache.insert_batch(&batch.ids[rows(k)], acts);
                        }
                    }
                    loss
                } else {
                    // Phase 2: cache-only DP training.
                    let _span = pac_telemetry::span("session.phase2");
                    let shards: Vec<(Vec<Tensor>, Vec<f32>)> = (0..n_dev)
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
                    dp_step_cached(&mut replicas, &shards, task.is_regression())?
                };
                sum += loss;
                count += 1;
                step_losses.push(loss);
                for (r, o) in replicas.iter_mut().zip(opts.iter_mut()) {
                    o.step(r);
                }
                if cfg.checkpoint_every > 0
                    && step_losses.len().is_multiple_of(cfg.checkpoint_every)
                {
                    checkpoint_bytes += commit(
                        store,
                        &mut timeline,
                        &replicas[0],
                        epoch,
                        opts[0].t,
                        &step_losses,
                    )?;
                    checkpoints += 1;
                }
            }
            epoch_losses.push(sum / count.max(1) as f32);
        }

        let metric = {
            let _span = pac_telemetry::span("session.evaluate");
            evaluate_replicas(&mut replicas, &eval)?
        };
        let recovery =
            RecoveryReport::from_timeline(timeline, 0, checkpoints, checkpoint_bytes, n_dev);
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

/// Commits `replica`'s [`TrainCheckpoint`] durably after the steps whose
/// losses `step_losses` holds, and returns its size: the serialized
/// checkpoint is the payload, the replay cursor (`pac_store::encode_cursor`)
/// the commit metadata. A dead writer surfaces as [`EngineError::Halted`],
/// since everything past the last *committed* snapshot is gone.
fn commit(
    store: &mut dyn Store,
    timeline: &mut Vec<TimelineEvent>,
    replica: &Tuner,
    epoch: usize,
    adam_t: u64,
    step_losses: &[f32],
) -> std::result::Result<usize, EngineError> {
    // The last completed step (0 for the initial snapshot).
    let next_step = step_losses.len() as u64;
    let step = next_step.saturating_sub(1);
    let ck = TrainCheckpoint::capture(replica, epoch as u64, step, adam_t);
    let bytes = ck.to_bytes().expect("in-memory serialization");
    pac_telemetry::counter_add("checkpoint.bytes", bytes.len() as u64);
    record(
        timeline,
        step,
        TimelineKind::Checkpoint,
        format!("{} B at step cursor {next_step}", bytes.len()),
    );
    store
        .commit(&bytes, &encode_cursor(next_step, step_losses))
        .map_err(|e| EngineError::Halted {
            step,
            detail: e.to_string(),
        })?;
    Ok(bytes.len())
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

    /// A store whose writer dies at byte 0 of its `nth` commit (1-based).
    struct CrashOnCommit<S> {
        inner: S,
        nth: u64,
    }

    type StoreResult<T> = std::result::Result<T, pac_store::StoreError>;

    impl<S: Store> Store for CrashOnCommit<S> {
        fn commit(&mut self, payload: &[u8], meta: &[u8]) -> StoreResult<u64> {
            if self.inner.commits() + 1 == self.nth {
                self.inner.arm_crash(0);
            }
            self.inner.commit(payload, meta)
        }
        fn latest(&self) -> StoreResult<Option<pac_store::Committed>> {
            self.inner.latest()
        }
        fn committed(&self, seq: u64) -> StoreResult<Option<pac_store::Committed>> {
            self.inner.committed(seq)
        }
        fn commits(&self) -> u64 {
            self.inner.commits()
        }
    }

    #[test]
    fn crash_mid_checkpoint_halts_and_cold_restart_resumes() {
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

        // The writer dies at byte 0 of the third commit, step 3's checkpoint
        // append: the run halts, but everything up to the step-1 commit is
        // durable.
        {
            let (inner, _) = DiskStore::open(&dir).expect("fresh store");
            let mut store = CrashOnCommit { inner, nth: 3 };
            let err = session
                .run_with_store(mk(), TaskKind::Mrpc, 16, 8, &mut store)
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
            .run_with_store(mk(), TaskKind::Mrpc, 16, 8, &mut store)
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

    /// Cold restart ≡ uninterrupted: resuming from any commit of a run —
    /// mid-epoch, at an epoch boundary, in the cached epochs (with an empty
    /// cache), or after the last step — finishes with the uninterrupted
    /// run's epoch losses and metric, bit for bit.
    #[test]
    fn cold_restart_from_every_commit_matches_the_uninterrupted_run() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let session = PacSession::new(PacConfig {
            devices: 2,
            epochs: 3,
            batch_size: 4,
            checkpoint_every: 2,
            ..Default::default()
        });
        let mk = || pac_model::EncDecModel::new(&cfg, TaskKind::Mrpc.n_out(), &mut seeded(42));
        let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut log = MemStore::new();
        let whole = session
            .run_with_store(mk(), TaskKind::Mrpc, 16, 8, &mut log)
            .expect("uninterrupted run");
        // 4 steps an epoch, 12 in all: the initial commit and one every 2
        // steps.
        assert_eq!(log.commits(), 7);
        for k in 1..=log.commits() {
            let mut prefix = MemStore::new();
            for seq in 0..k {
                let c = log.committed(seq).unwrap().expect("committed");
                prefix.commit(&c.payload, &c.meta).unwrap();
            }
            let resumed = session
                .run_with_store(mk(), TaskKind::Mrpc, 16, 8, &mut prefix)
                .expect("resumed run");
            assert_eq!(
                bits(&resumed.epoch_losses),
                bits(&whole.epoch_losses),
                "resumed from the first {k} commit(s)"
            );
            assert_eq!(
                resumed.metric.to_bits(),
                whole.metric.to_bits(),
                "resumed from the first {k} commit(s)"
            );
            // The resumed run keeps the global cadence: it adds exactly the
            // commits the uninterrupted run made after its cursor.
            assert_eq!(prefix.commits(), log.commits(), "from {k} commit(s)");
        }
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
