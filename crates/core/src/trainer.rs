//! Single-process fine-tuning loops over any technique and task.

use pac_data::{metrics, Batch, Dataset, TaskKind};
use pac_nn::{cross_entropy, cross_entropy_smoothed, mse, Adam, LrSchedule, Module, Optimizer};
use pac_parallel::engine::shard;
use pac_peft::{ActivationCache, Technique, Tuner};
use pac_tensor::{reduce, Result, Tensor};
use rayon::prelude::*;

/// Hyperparameters for a fine-tuning run.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Adam base learning rate.
    pub lr: f32,
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Optional global gradient-norm clip.
    pub clip: Option<f32>,
    /// Learning-rate schedule applied on top of `lr`.
    pub schedule: LrSchedule,
    /// Label-smoothing ε for classification tasks (0 = plain CE).
    pub label_smoothing: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 1e-2,
            epochs: 3,
            batch_size: 8,
            seed: 7,
            clip: Some(5.0),
            schedule: LrSchedule::Constant,
            label_smoothing: 0.0,
        }
    }
}

/// Outcome of a fine-tuning run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Final evaluation metric on [0, 100] (task-specific; see
    /// `pac_data::metrics::task_metric`).
    pub metric: f64,
    /// Cache statistics, when a cache was used.
    pub cache_stats: Option<pac_peft::CacheStats>,
}

fn batch_loss(
    tuner: &mut Tuner,
    batch: &Batch,
    task: TaskKind,
    smoothing: f32,
) -> Result<(f32, Tensor, pac_peft::TunerCtx)> {
    let (logits, ctx) = tuner.forward(&batch.tokens)?;
    let (loss, dl) = loss_and_grad(&logits, batch, task, smoothing)?;
    Ok((loss, dl, ctx))
}

fn loss_and_grad(
    logits: &Tensor,
    batch: &Batch,
    task: TaskKind,
    smoothing: f32,
) -> Result<(f32, Tensor)> {
    if task.is_regression() {
        let targets = Tensor::from_vec(batch.scores(), [batch.len(), 1])?;
        mse(logits, &targets)
    } else if smoothing > 0.0 {
        cross_entropy_smoothed(logits, &batch.classes(), smoothing)
    } else {
        cross_entropy(logits, &batch.classes())
    }
}

/// Fine-tunes `tuner` on `train`, evaluating on `eval` at the end.
///
/// # Errors
/// Propagates shape errors from the model.
pub fn finetune(
    tuner: &mut Tuner,
    train: &Dataset,
    eval: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainReport> {
    let mut opt = Adam::new(cfg.lr);
    let mut step = 0usize;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let _epoch_span = pac_telemetry::span("trainer.epoch");
        let mut sum = 0.0f32;
        let batches = train.batches(cfg.batch_size, epoch, cfg.seed);
        for batch in &batches {
            tuner.zero_grads();
            let (loss, dl, ctx) = batch_loss(tuner, batch, train.task, cfg.label_smoothing)?;
            sum += loss;
            tuner.backward(&ctx, &dl)?;
            if let Some(c) = cfg.clip {
                tuner.clip_grad_norm(c);
            }
            opt.lr = cfg.schedule.lr_at(cfg.lr, step);
            opt.step(tuner);
            step += 1;
        }
        epoch_losses.push(sum / batches.len().max(1) as f32);
    }
    let metric = evaluate(tuner, eval)?;
    Ok(TrainReport {
        epoch_losses,
        metric,
        cache_stats: None,
    })
}

/// PAC's Parallel-Adapters fine-tuning loop with the activation cache
/// (paper §4.2): epoch 1 runs the frozen backbone forward and fills the
/// cache; epochs ≥ 2 train purely from cached activations.
///
/// # Errors
/// Returns an error if `tuner` is not a Parallel-Adapters tuner or on shape
/// errors.
pub fn finetune_with_cache(
    tuner: &mut Tuner,
    train: &Dataset,
    eval: &Dataset,
    cfg: &TrainConfig,
    cache: &mut ActivationCache,
) -> Result<TrainReport> {
    debug_assert!(matches!(
        tuner.technique(),
        Technique::ParallelAdapters { .. }
    ));
    let mut opt = Adam::new(cfg.lr);
    let mut step = 0usize;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let _epoch_span = pac_telemetry::span("trainer.epoch");
        let mut sum = 0.0f32;
        let batches = train.batches(cfg.batch_size, epoch, cfg.seed);
        for batch in &batches {
            tuner.zero_grads();
            let loss = if let Some(acts) = cache.get_batch(&batch.ids) {
                // Cache hit: no backbone forward at all.
                let _span = pac_telemetry::span("trainer.cached_batch");
                let (logits, ctx) = tuner.forward_cached(&acts)?;
                let (loss, dl) = loss_and_grad(&logits, batch, train.task, cfg.label_smoothing)?;
                tuner.backward(&ctx, &dl)?;
                loss
            } else {
                // Epoch-1 path: full forward, then fill the cache.
                let _span = pac_telemetry::span("trainer.fill_batch");
                let (logits, ctx) = tuner.forward(&batch.tokens)?;
                let acts = tuner
                    .cacheable_acts(&ctx)
                    .expect("parallel tuner produces cacheable activations");
                cache.insert_batch(&batch.ids, acts);
                let (loss, dl) = loss_and_grad(&logits, batch, train.task, cfg.label_smoothing)?;
                tuner.backward(&ctx, &dl)?;
                loss
            };
            sum += loss;
            if let Some(c) = cfg.clip {
                tuner.clip_grad_norm(c);
            }
            opt.lr = cfg.schedule.lr_at(cfg.lr, step);
            opt.step(tuner);
            step += 1;
        }
        epoch_losses.push(sum / batches.len().max(1) as f32);
    }
    let metric = evaluate(tuner, eval)?;
    Ok(TrainReport {
        epoch_losses,
        metric,
        cache_stats: Some(cache.stats()),
    })
}

/// Evaluates `tuner` on `ds`, returning the task metric on [0, 100]: the
/// one-replica [`evaluate_replicas`].
///
/// # Errors
/// Propagates shape errors from the model.
pub fn evaluate(tuner: &mut Tuner, ds: &Dataset) -> Result<f64> {
    evaluate_replicas(std::slice::from_mut(tuner), ds)
}

/// Evaluates identical `replicas` on `ds`, returning the task metric on
/// [0, 100]. Each eval batch's rows are split across the replicas in order,
/// the first replicas one row longer when they do not divide the batch, and
/// forwarded concurrently. A row's logits do not depend on
/// the rows beside it, so the metric is bitwise the one a single replica
/// gets forwarding every batch whole.
///
/// # Errors
/// [`pac_tensor::TensorError::ShapeMismatch`] for an empty replica list;
/// shape errors from the model.
pub fn evaluate_replicas(replicas: &mut [Tuner], ds: &Dataset) -> Result<f64> {
    let n = replicas.len();
    if n == 0 {
        return Err(pac_tensor::TensorError::ShapeMismatch {
            op: "evaluate_replicas",
            lhs: vec![0],
            rhs: vec![ds.len()],
        });
    }
    let mut class_pred = Vec::new();
    let mut class_truth = Vec::new();
    let mut score_pred = Vec::new();
    let mut score_truth = Vec::new();
    for batch in ds.batches(16, 0, 0) {
        let shards: Vec<Result<Option<Tensor>>> = replicas
            .par_iter_mut()
            .enumerate()
            .map(|(k, tuner)| {
                let rows = shard(batch.len(), n, k);
                if rows.is_empty() {
                    return Ok(None);
                }
                let (logits, _) = tuner.forward(&batch.tokens[rows])?;
                Ok(Some(logits))
            })
            .collect();
        for logits in shards {
            let Some(logits) = logits? else { continue };
            if ds.task.is_regression() {
                score_pred.extend(logits.data().iter().copied());
            } else {
                class_pred.extend(reduce::argmax_rows(&logits));
            }
        }
        if ds.task.is_regression() {
            score_truth.extend(batch.scores());
        } else {
            class_truth.extend(batch.classes());
        }
    }
    Ok(metrics::task_metric(
        ds.task,
        &class_pred,
        &class_truth,
        &score_pred,
        &score_truth,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::ModelConfig;
    use pac_tensor::rng::seeded;

    fn datasets(task: TaskKind, n: usize) -> (Dataset, Dataset) {
        Dataset::generate(task, n, 13, 5).split(0.8)
    }

    #[test]
    fn full_finetune_beats_chance_on_sst2() {
        let cfg = ModelConfig::micro(2, 1, 32, 4);
        let mut tuner = Tuner::new(Technique::Full, &cfg, 2, &mut seeded(400));
        let (train, eval) = datasets(TaskKind::Sst2, 120);
        let report = finetune(
            &mut tuner,
            &train,
            &eval,
            &TrainConfig {
                epochs: 6,
                lr: 3e-3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            report.metric > 65.0,
            "metric {} ≤ chance-ish",
            report.metric
        );
        assert!(report.epoch_losses.last().unwrap() < &report.epoch_losses[0]);
    }

    #[test]
    fn cached_finetune_hits_cache_after_first_epoch() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let mut tuner = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(401));
        let (train, eval) = datasets(TaskKind::Sst2, 40);
        let mut cache = ActivationCache::new();
        let report = finetune_with_cache(
            &mut tuner,
            &train,
            &eval,
            &TrainConfig {
                epochs: 3,
                ..Default::default()
            },
            &mut cache,
        )
        .unwrap();
        let stats = report.cache_stats.unwrap();
        assert_eq!(stats.entries, train.len());
        // Epochs 2 and 3 hit the cache on every sample (hits are counted
        // per sample, not per batch).
        assert!(stats.hits > 0, "no cache hits recorded");
        assert_eq!(stats.hits, 2 * train.len());
    }

    #[test]
    fn cached_and_uncached_training_agree() {
        // The cache must be a pure optimization: same seeds → same final
        // parameters whether or not the cache is used.
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let (train, eval) = datasets(TaskKind::Sst2, 24);
        let tcfg = TrainConfig {
            epochs: 3,
            ..Default::default()
        };

        let mut plain = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(402));
        let mut cached = plain.clone();

        let r_plain = finetune(&mut plain, &train, &eval, &tcfg).unwrap();
        let mut cache = ActivationCache::new();
        let r_cached = finetune_with_cache(&mut cached, &train, &eval, &tcfg, &mut cache).unwrap();

        assert!(
            (r_plain.metric - r_cached.metric).abs() < 1e-9,
            "metrics diverged: {} vs {}",
            r_plain.metric,
            r_cached.metric
        );
        for (a, b) in r_plain.epoch_losses.iter().zip(&r_cached.epoch_losses) {
            assert!((a - b).abs() < 1e-4, "loss diverged: {a} vs {b}");
        }
        // Parameters must match closely (identical up to f32 noise).
        let mut pa = Vec::new();
        plain.visit_params_ref(&mut |p| pa.push(p.value.clone()));
        let mut idx = 0;
        cached.visit_params_ref(&mut |p| {
            assert!(
                p.value.approx_eq(&pa[idx], 1e-4),
                "param {idx} diverged between cached and uncached training"
            );
            idx += 1;
        });
    }

    #[test]
    fn schedule_and_smoothing_path_trains() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let mut tuner = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(404));
        let (train, eval) = datasets(TaskKind::Sst2, 32);
        let report = finetune(
            &mut tuner,
            &train,
            &eval,
            &TrainConfig {
                epochs: 4,
                schedule: LrSchedule::WarmupCosine {
                    warmup: 4,
                    total: 16,
                    floor: 0.1,
                },
                label_smoothing: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(report.epoch_losses.last().unwrap() < &report.epoch_losses[0]);
    }

    #[test]
    fn metric_is_bitwise_the_same_on_one_two_and_three_replicas() {
        // Eval sizes 1, 16 and 17: one row (two replicas idle), one whole
        // batch of 16, and a batch of 16 plus a one-row batch.
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        for task in [TaskKind::Sst2, TaskKind::StsB] {
            let tuner = Tuner::new(
                Technique::parallel_default(),
                &cfg,
                task.n_out(),
                &mut seeded(405),
            );
            for eval_n in [1, 16, 17] {
                let ds = Dataset::generate(task, eval_n, 13, 6);
                let want = evaluate(&mut tuner.clone(), &ds).unwrap();
                for n in [1, 2, 3] {
                    let mut replicas = vec![tuner.clone(); n];
                    let got = evaluate_replicas(&mut replicas, &ds).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{task:?}, {eval_n} rows, {n} replicas"
                    );
                }
            }
        }
        assert!(evaluate_replicas(&mut [], &Dataset::generate(TaskKind::Sst2, 4, 13, 6)).is_err());
    }

    #[test]
    fn regression_task_trains() {
        let cfg = ModelConfig::micro(2, 1, 32, 4);
        let mut tuner = Tuner::new(Technique::parallel_default(), &cfg, 1, &mut seeded(403));
        let (train, eval) = datasets(TaskKind::StsB, 100);
        let report = finetune(
            &mut tuner,
            &train,
            &eval,
            &TrainConfig {
                epochs: 8,
                lr: 5e-3,
                ..Default::default()
            },
        )
        .unwrap();
        // Pearson-Spearman of a learning model must be clearly positive.
        assert!(report.metric > 20.0, "STS-B metric {}", report.metric);
    }
}
