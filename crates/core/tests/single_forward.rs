//! Epoch 1 runs the frozen backbone once per training row.
//!
//! `PacSession` fills the activation cache from the forward its epoch-1
//! training step already runs. The reference loop below is the older
//! shape — a dedicated `Tuner::forward` per shard whose `cacheable_acts`
//! fill the cache, followed by `dp_step_tokens` repeating that forward —
//! built only from public calls. The session must be indistinguishable
//! from it: every epoch loss bit (epochs ≥ 2 are a function of the cached
//! bits alone) and every cache statistic.

use pac_core::{PacConfig, PacSession};
use pac_data::{Dataset, TaskKind};
use pac_model::{EncDecModel, ModelConfig};
use pac_nn::{Adam, Module, Optimizer};
use pac_parallel::engine::{dp_step_cached, dp_step_tokens};
use pac_peft::{ActivationCache, CacheStats, Technique, Tuner};
use pac_tensor::rng::seeded;

const TRAIN_N: usize = 32;
const EVAL_N: usize = 8;

fn config() -> PacConfig {
    PacConfig {
        devices: 2,
        reduction: 4,
        epochs: 3,
        batch_size: 8,
        lr: 1e-2,
        seed: 7,
        checkpoint_every: 0,
    }
}

fn backbone() -> EncDecModel {
    EncDecModel::new(
        &ModelConfig::micro(2, 1, 32, 2),
        TaskKind::Sst2.n_out(),
        &mut seeded(99),
    )
}

/// Two backbone forwards per epoch-1 row: one to fill the cache, one
/// inside the training step.
fn two_forward_reference(cfg: &PacConfig) -> (Vec<f32>, CacheStats) {
    let task = TaskKind::Sst2;
    let technique = Technique::ParallelAdapters {
        reduction: cfg.reduction,
    };
    let tuner = Tuner::wrap(technique, backbone(), task.n_out(), &mut seeded(cfg.seed));
    let mut replicas = vec![tuner; cfg.devices];
    let mut opts: Vec<Adam> = (0..cfg.devices).map(|_| Adam::new(cfg.lr)).collect();
    let mut cache = ActivationCache::new();
    let n = TRAIN_N + EVAL_N;
    let (train, _) =
        Dataset::generate(task, n, 13, cfg.seed.wrapping_add(1)).split(TRAIN_N as f64 / n as f64);

    let mut losses = Vec::new();
    for epoch in 0..cfg.epochs {
        let batches = train.batches(cfg.batch_size, epoch, cfg.seed.wrapping_add(2));
        let (mut sum, mut count) = (0.0f32, 0usize);
        for batch in batches.iter().filter(|b| b.len() >= cfg.devices) {
            replicas.iter_mut().for_each(Module::zero_grads);
            let share = batch.len() / cfg.devices;
            let classes = batch.classes();
            let rows = |k: usize| k * share..(k + 1) * share;
            let loss = if epoch == 0 {
                let shards: Vec<_> = (0..cfg.devices)
                    .map(|k| (batch.tokens[rows(k)].to_vec(), classes[rows(k)].to_vec()))
                    .collect();
                for (k, (tokens, _)) in shards.iter().enumerate() {
                    let (_, ctx) = replicas[k].forward(tokens).expect("fill forward");
                    let acts = replicas[k].cacheable_acts(&ctx).expect("cacheable");
                    cache.insert_batch(&batch.ids[rows(k)], acts);
                }
                dp_step_tokens(&mut replicas, &shards).expect("token step")
            } else {
                let shards: Vec<_> = (0..cfg.devices)
                    .map(|k| {
                        let acts = cache.get_batch(&batch.ids[rows(k)]).expect("warm cache");
                        let targets: Vec<f32> =
                            classes[rows(k)].iter().map(|&c| c as f32).collect();
                        (acts, targets)
                    })
                    .collect();
                dp_step_cached(&mut replicas, &shards, false).expect("cached step")
            };
            sum += loss;
            count += 1;
            for (r, o) in replicas.iter_mut().zip(opts.iter_mut()) {
                o.step(r);
            }
        }
        losses.push(sum / count.max(1) as f32);
    }
    (losses, cache.stats())
}

#[test]
fn session_fills_the_cache_from_the_training_forward() {
    let cfg = config();
    let report = PacSession::new(cfg)
        .run_with_backbone(backbone(), TaskKind::Sst2, TRAIN_N, EVAL_N)
        .expect("session");
    let (want_losses, want_cache) = two_forward_reference(&cfg);

    let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&report.epoch_losses),
        bits(&want_losses),
        "session {:?} vs two-forward reference {want_losses:?}",
        report.epoch_losses
    );

    // Same entries and bytes resident, every later-epoch lookup a hit.
    let got = report.cache_stats;
    assert_eq!(got.entries, TRAIN_N);
    assert_eq!(
        (got.entries, got.bytes),
        (want_cache.entries, want_cache.bytes)
    );
    assert_eq!((got.hits, got.misses), ((cfg.epochs - 1) * TRAIN_N, 0));
    assert_eq!((got.hits, got.misses), (want_cache.hits, want_cache.misses));
}
