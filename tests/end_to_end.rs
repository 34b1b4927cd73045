//! End-to-end system tests: real multi-threaded collaborative fine-tuning
//! through the public API, exercising the complete paper workflow.

use pac_core::prelude::*;
use pac_core::trainer::{finetune, finetune_with_cache, TrainConfig};
use pac_model::EncoderModel;
use pac_nn::{Module, Optimizer, Sgd};
use pac_parallel::engine::HybridEngine;
use pac_parallel::Schedule;
use pac_tensor::rng::seeded;
use rand::Rng;

fn micro_batches(seed: u64, m: usize, b: usize, s: usize) -> Vec<(Vec<Vec<usize>>, Vec<usize>)> {
    let mut rng = seeded(seed);
    (0..m)
        .map(|_| {
            let toks: Vec<Vec<usize>> = (0..b)
                .map(|_| (0..s).map(|_| rng.gen_range(0..64)).collect())
                .collect();
            let targets: Vec<usize> = (0..b).map(|_| rng.gen_range(0..2)).collect();
            (toks, targets)
        })
        .collect()
}

/// The full hybrid engine (pipeline × data parallel on real threads) must
/// train a model to lower loss, staying synchronized across replicas.
#[test]
fn hybrid_engine_trains_end_to_end() {
    let cfg = ModelConfig::micro(4, 0, 16, 2);
    let model = EncoderModel::new(&cfg, 2, &mut seeded(500));
    let stages = model.partition(&[2, 2]).unwrap();
    let mut engine = HybridEngine::new(stages, 2, Schedule::OneFOneB);
    assert_eq!(engine.num_devices(), 4);

    let mut opts: Vec<Box<dyn Optimizer>> = (0..2)
        .map(|_| Box::new(Sgd::new(0.05)) as Box<dyn Optimizer>)
        .collect();
    let mbs = micro_batches(501, 4, 4, 5);
    let mut losses = Vec::new();
    for _ in 0..8 {
        engine.zero_grads();
        losses.push(engine.run_mini_batch(&mbs).unwrap());
        engine.step(&mut opts);
    }
    assert!(
        losses.last().unwrap() < &losses[0],
        "hybrid training diverged: {losses:?}"
    );
}

/// PAC (cached, distributed) and plain single-process Parallel-Adapters
/// training must converge to comparable quality on the same data.
#[test]
fn distributed_pac_matches_single_process_quality() {
    let cfg = ModelConfig::micro(2, 1, 32, 4);
    let task = TaskKind::Sst2;

    // Shared pretrained backbone.
    let backbone = {
        let mut full = Tuner::new(Technique::Full, &cfg, 2, &mut seeded(510));
        let pre = Dataset::generate(task, 64, 13, 888);
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

    // Single-process with cache.
    let data = Dataset::generate(task, 72, 13, 43);
    let (train, eval) = data.split(2.0 / 3.0);
    let mut single = Tuner::wrap(
        Technique::ParallelAdapters { reduction: 4 },
        backbone.clone(),
        2,
        &mut seeded(511),
    );
    let mut cache = ActivationCache::new();
    let single_report = finetune_with_cache(
        &mut single,
        &train,
        &eval,
        &TrainConfig {
            epochs: 3,
            ..Default::default()
        },
        &mut cache,
    )
    .unwrap();

    // Distributed PAC session on the same backbone/task.
    let session = PacSession::new(PacConfig {
        devices: 2,
        reduction: 4,
        epochs: 3,
        batch_size: 8,
        lr: 1e-2,
        seed: 512,
        checkpoint_every: 4,
    });
    let pac_report = session.run_with_backbone(backbone, task, 48, 24).unwrap();

    assert!(
        single_report.metric > 60.0,
        "single {}",
        single_report.metric
    );
    assert!(pac_report.metric > 60.0, "pac {}", pac_report.metric);
    assert!(
        (single_report.metric - pac_report.metric).abs() < 30.0,
        "quality gap too wide: {} vs {}",
        single_report.metric,
        pac_report.metric
    );
}

/// The cache must be semantically transparent even when training continues
/// across epochs (optimizer state, shuffling, clipping all active).
#[test]
fn cache_transparency_through_full_training_stack() {
    let cfg = ModelConfig::micro(1, 1, 16, 2);
    let task = TaskKind::Qnli;
    let data = Dataset::generate(task, 32, 13, 77);
    let (train, eval) = data.split(0.75);
    let base = Tuner::new(
        Technique::ParallelAdapters { reduction: 4 },
        &cfg,
        2,
        &mut seeded(520),
    );
    let tc = TrainConfig {
        epochs: 4,
        ..Default::default()
    };

    let mut a = base.clone();
    let ra = finetune(&mut a, &train, &eval, &tc).unwrap();
    let mut b = base;
    let mut cache = ActivationCache::new();
    let rb = finetune_with_cache(&mut b, &train, &eval, &tc, &mut cache).unwrap();

    for (la, lb) in ra.epoch_losses.iter().zip(&rb.epoch_losses) {
        assert!(
            (la - lb).abs() < 1e-4,
            "epoch losses diverged: {la} vs {lb}"
        );
    }
    assert_eq!(ra.metric, rb.metric);
    // Epoch 1 fills; epochs 2-4 hit.
    let stats = rb.cache_stats.unwrap();
    assert_eq!(stats.entries, train.len());
    assert!(stats.hits >= 3);
}

/// Freezing guarantees across the whole stack: a PAC session must never
/// move a backbone weight.
#[test]
fn pac_session_never_mutates_backbone() {
    let cfg = ModelConfig::micro(1, 1, 16, 2);
    let backbone = pac_model::EncDecModel::new(&cfg, 2, &mut seeded(530));
    let snapshot: Vec<f32> = {
        let mut v = Vec::new();
        backbone.visit_params_ref(&mut |p| v.extend_from_slice(p.value.data()));
        v
    };
    let session = PacSession::new(PacConfig {
        devices: 2,
        reduction: 4,
        epochs: 2,
        batch_size: 4,
        lr: 5e-2, // aggressive LR would expose any leak quickly
        seed: 531,
        checkpoint_every: 4,
    });
    let _ = session
        .run_with_backbone(backbone.clone(), TaskKind::Sst2, 16, 8)
        .unwrap();
    // The session consumed a clone; verify the `wrap` path froze it by
    // rebuilding a tuner and checking the trainable inventory instead.
    let tuner = Tuner::wrap(
        Technique::ParallelAdapters { reduction: 4 },
        backbone.clone(),
        2,
        &mut seeded(532),
    );
    let mut frozen_bytes = 0usize;
    match &tuner {
        Tuner::Parallel(t) => {
            t.model.visit_params_ref(&mut |p| {
                assert!(!p.trainable, "backbone param {} left trainable", p.name);
                frozen_bytes += p.value.size_bytes();
            });
        }
        _ => unreachable!(),
    }
    assert!(frozen_bytes > 0);
    // And the original snapshot is untouched (cloning semantics).
    let mut after = Vec::new();
    backbone.visit_params_ref(&mut |p| after.extend_from_slice(p.value.data()));
    assert_eq!(snapshot, after);
}
