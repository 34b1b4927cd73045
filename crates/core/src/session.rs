//! The end-to-end PAC workflow (paper Figure 4, Steps 0–5), executed for
//! real at micro scale across simulated devices (threads).
//!
//! The replicas are threads of one process, so the session injects no
//! fault and replans nothing: real faults are handled by the pac-net
//! coordinator. What the process can lose is its durable state, so the
//! session commits a [`TrainCheckpoint`] and its loop cursor through a
//! [`Store`] every `checkpoint_every` steps and cold-restarts from the last
//! commit.

use crate::trainer::{evaluate_replicas, shard};
use pac_cluster::{Cluster, CostModel};
use pac_data::{Dataset, TaskKind};
use pac_model::ModelConfig;
use pac_nn::{Adam, Module, Optimizer};
use pac_parallel::engine::{dp_step_cached, dp_step_tokens_with_acts};
use pac_parallel::faults::{record, RecoveryReport, TimelineEvent, TimelineKind};
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
    /// Commit a [`TrainCheckpoint`] every this many steps (0 disables
    /// periodic snapshots; an initial snapshot is always committed so a
    /// cold restart can resume from step 0).
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
    /// Activation-cache statistics.
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
        let mut cache = if cfg.cache_int8 {
            ActivationCache::new_int8()
        } else {
            ActivationCache::new()
        };
        let mut timeline: Vec<TimelineEvent> = Vec::new();
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
        if let Some(committed) = prior {
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
            record(
                &mut timeline,
                0,
                TimelineKind::Resume,
                format!(
                    "cold restart from committed snapshot seq {} (epoch {r_epoch}, batch {r_batch})",
                    committed.seq
                ),
            );
            // The restored snapshot stands in for the initial one.
            checkpoints += 1;
            checkpoint_bytes += committed.payload.len();
        } else {
            checkpoint_bytes += commit(
                store,
                &mut timeline,
                &replicas[0],
                0,
                0,
                (0, 0, 0.0, 0),
                &[],
            )?;
            checkpoints += 1;
        }

        // Steps run by this process; the commit cadence counts them.
        let mut step = 0u64;
        while epoch < cfg.epochs {
            let batches = train.batches(cfg.batch_size, epoch, cfg.seed.wrapping_add(2));
            for (idx, batch) in batches.iter().enumerate().skip(batch_start) {
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
                for (r, o) in replicas.iter_mut().zip(opts.iter_mut()) {
                    o.step(r);
                }
                if cfg.checkpoint_every > 0
                    && (step + 1).is_multiple_of(cfg.checkpoint_every as u64)
                {
                    checkpoint_bytes += commit(
                        store,
                        &mut timeline,
                        &replicas[0],
                        step,
                        opts[0].t,
                        (epoch, idx + 1, sum, count),
                        &epoch_losses,
                    )?;
                    checkpoints += 1;
                }
                step += 1;
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

/// Commits `replica`'s [`TrainCheckpoint`] at `step` durably and returns
/// its size: the serialized checkpoint is the payload, the loop `cursor`
/// (`epoch, next_batch, sum, count`) plus the finished per-epoch losses is
/// the commit metadata. A dead writer surfaces as [`EngineError::Halted`],
/// since everything past the last *committed* snapshot is gone.
fn commit(
    store: &mut dyn Store,
    timeline: &mut Vec<TimelineEvent>,
    replica: &Tuner,
    step: u64,
    adam_t: u64,
    (epoch, next_batch, sum, count): (usize, usize, f32, usize),
    epoch_losses: &[f32],
) -> std::result::Result<usize, EngineError> {
    let ck = TrainCheckpoint::capture(replica, epoch as u64, step, adam_t);
    let bytes = ck.to_bytes().expect("in-memory serialization");
    pac_telemetry::counter_add("checkpoint.bytes", bytes.len() as u64);
    record(
        timeline,
        step,
        TimelineKind::Checkpoint,
        format!("{} B at epoch {epoch}, batch {next_batch}", bytes.len()),
    );
    let meta = encode_cursor(epoch, next_batch, sum, count, epoch_losses);
    store
        .commit(&bytes, &meta)
        .map_err(|e| EngineError::Halted {
            step,
            detail: e.to_string(),
        })?;
    Ok(bytes.len())
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
