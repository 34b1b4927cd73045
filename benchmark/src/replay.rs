//! Decomposed replay of `pac_solo`: the benchmark re-drives the same data
//! through the public calls `PacSession::run` is made of, one span per
//! call, to show that the parts sum to the whole. The replay must end with
//! the same epoch losses, bit for bit, as the end-to-end call; otherwise
//! it is not a decomposition of that call.

use crate::trace::Recorder;
use crate::workloads::{solo, solo_config, solo_model};
use pac_cluster::{Cluster, CostModel};
use pac_core::evaluate;
use pac_data::{Dataset, TaskKind};
use pac_model::EncDecModel;
use pac_nn::{Adam, Module, Optimizer};
use pac_parallel::engine::{dp_step_cached, dp_step_tokens};
use pac_peft::{ActivationCache, Technique, TrainCheckpoint, Tuner};
use pac_planner::Planner;
use pac_store::{MemStore, Store};
use pac_tensor::rng::seeded;
use std::time::Instant;

pub struct Replay {
    pub wall_s: f64,
    pub epoch_losses: Vec<f32>,
}

fn snapshot(
    rec: &mut Recorder,
    store: &mut MemStore,
    replica: &Tuner,
    epoch: usize,
    step: u64,
    adam_t: u64,
) {
    rec.span("pac-peft.checkpoint+pac-store.commit", |_| {
        let bytes = TrainCheckpoint::capture(replica, epoch as u64, step, adam_t)
            .to_bytes()
            .expect("in-memory serialization");
        store
            .commit(&bytes, &step.to_le_bytes())
            .expect("in-memory commit");
    });
}

pub fn pac_solo(rec: &mut Recorder, seed: u64) -> Replay {
    let cfg = solo_config(seed);
    let task = TaskKind::Sst2;
    let model_cfg = solo_model();
    // Building the backbone is set-up, outside the end-to-end call.
    let backbone = EncDecModel::new(&model_cfg, task.n_out(), &mut seeded(solo::BACKBONE_SEED));
    let started = Instant::now();
    let epoch_losses = rec.span("replay", |rec| {
        let technique = Technique::ParallelAdapters {
            reduction: cfg.reduction,
        };
        let tuner = rec.span("pac-peft.tuner.wrap", |_| {
            Tuner::wrap(technique, backbone, task.n_out(), &mut seeded(cfg.seed))
        });
        rec.span("pac-planner.plan", |_| {
            let cost = CostModel::new(model_cfg.clone(), technique, 16);
            Planner::paper_defaults(Cluster::nanos(cfg.devices), cfg.batch_size.max(cfg.devices))
                .plan(&cost)
        });
        let mut replicas = rec.span("replicate", |_| vec![tuner; cfg.devices]);
        let mut opts: Vec<Adam> = (0..cfg.devices).map(|_| Adam::new(cfg.lr)).collect();
        let mut cache = ActivationCache::new();
        let mut store = MemStore::new();
        let (train, eval) = rec.span("pac-data.generate", |_| {
            let n = solo::TRAIN_N + solo::EVAL_N;
            Dataset::generate(task, n, solo::SEQ, cfg.seed.wrapping_add(1))
                .split(solo::TRAIN_N as f64 / n as f64)
        });
        snapshot(rec, &mut store, &replicas[0], 0, 0, 0);

        let mut losses = Vec::with_capacity(cfg.epochs);
        let mut step = 0u64;
        for epoch in 0..cfg.epochs {
            let batches = rec.span("pac-data.batches", |_| {
                train.batches(cfg.batch_size, epoch, cfg.seed.wrapping_add(2))
            });
            let (mut sum, mut count) = (0.0f32, 0usize);
            for batch in batches.iter().filter(|b| b.len() >= cfg.devices) {
                rec.span("zero_grads", |_| {
                    replicas.iter_mut().for_each(Module::zero_grads)
                });
                let share = batch.len() / cfg.devices;
                let classes = batch.classes();
                let loss = if epoch == 0 {
                    let shards: Vec<(Vec<Vec<usize>>, Vec<usize>)> = rec.span("shard", |_| {
                        (0..cfg.devices)
                            .map(|k| {
                                let rows = k * share..(k + 1) * share;
                                (batch.tokens[rows.clone()].to_vec(), classes[rows].to_vec())
                            })
                            .collect()
                    });
                    for (k, (tokens, _)) in shards.iter().enumerate() {
                        let (_, ctx) = rec
                            .span("pac-peft.tuner.forward_full", |_| {
                                replicas[k].forward(tokens)
                            })
                            .expect("full forward");
                        let acts = replicas[k]
                            .cacheable_acts(&ctx)
                            .expect("cacheable activations");
                        rec.span("pac-peft.cache.insert_batch", |_| {
                            cache.insert_batch(&batch.ids[k * share..(k + 1) * share], acts);
                        });
                    }
                    rec.span("pac-parallel.dp_step_tokens", |_| {
                        dp_step_tokens(&mut replicas, &shards)
                    })
                    .expect("dp step over tokens")
                } else {
                    let shards: Vec<_> = (0..cfg.devices)
                        .map(|k| {
                            let rows = k * share..(k + 1) * share;
                            let acts = rec
                                .span("pac-peft.cache.get_batch", |_| {
                                    cache.get_batch(&batch.ids[rows.clone()])
                                })
                                .expect("cache warm after epoch 1");
                            let targets: Vec<f32> =
                                classes[rows].iter().map(|&c| c as f32).collect();
                            (acts, targets)
                        })
                        .collect();
                    rec.span("pac-parallel.dp_step_cached", |_| {
                        dp_step_cached(&mut replicas, &shards, false)
                    })
                    .expect("dp step over cache")
                };
                sum += loss;
                count += 1;
                rec.span("pac-nn.adam_step", |_| {
                    for (r, o) in replicas.iter_mut().zip(opts.iter_mut()) {
                        o.step(r);
                    }
                });
                step += 1;
                if cfg.checkpoint_every > 0 && step.is_multiple_of(cfg.checkpoint_every as u64) {
                    snapshot(rec, &mut store, &replicas[0], epoch, step, opts[0].t);
                }
            }
            losses.push(sum / count.max(1) as f32);
        }
        rec.span("pac-core.evaluate", |_| evaluate(&mut replicas[0], &eval))
            .expect("evaluation");
        losses
    });
    Replay {
        wall_s: started.elapsed().as_secs_f64(),
        epoch_losses,
    }
}
