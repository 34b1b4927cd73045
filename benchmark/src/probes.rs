//! Per-layer probes: benchmark-side timing around calls into each crate's
//! public functions, at the shapes the workloads use. Every traced run
//! takes all of them, whatever its workload, so each result file carries
//! the whole per-layer table.

use crate::gen::SplitMix64;
use crate::reference::Reference;
use crate::spec;
use crate::stats::Summary;
use crate::trace::Recorder;
use crate::workloads::{self, dist, serve, solo};
use pac_cluster::{Cluster, CostModel};
use pac_core::{run_tenant_burst, BurstOutcome, BurstSpec};
use pac_data::{Dataset, TaskKind};
use pac_model::{EncDecModel, EncoderModel, ModelConfig, StageData, StageModel};
use pac_net::collective::{local_grads, ring_allreduce_mean, RingCtx};
use pac_net::wire::{decode_frame, encode_frame};
use pac_net::{
    calibrate_loopback, run_multiworld, Listener, Msg, Spawner, Tcp, TenantJob, Transport,
};
use pac_nn::{
    cross_entropy, Activation, Adam, FeedForward, Module, MultiHeadAttention, Optimizer, Sgd,
};
use pac_parallel::engine::{allreduce_mean, dp_step_cached, dp_step_tokens, HybridEngine};
use pac_parallel::{plan_filled, plan_serialized, SimStage, TenantLoad};
use pac_peft::{ActivationCache, ParallelTuner, Technique, TrainCheckpoint, Tuner};
use pac_planner::Planner;
use pac_serve::{AdapterCache, AdapterRegistry, Router};
use pac_store::{DiskStore, MemStore, Store};
use pac_tensor::rng::seeded;
use pac_tensor::{ops, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall-clock share one probe gets. Cheap calls collect thousands of
/// samples in it, a 20 ms call at least `MIN_SAMPLES`.
const SLICE: Duration = Duration::from_millis(60);
const MIN_SAMPLES: usize = 5;
const MAX_SAMPLES: usize = 2000;
/// Calls per sample for probes whose single call is below timer noise.
const TIGHT: usize = 1000;

/// The per-layer table being filled, plus the span recorder: each probe is
/// one span, so the trace file shows where the traced run spent its time.
pub struct Layers {
    pub rows: Vec<(&'static str, Summary)>,
    pub rec: Recorder,
    /// Every time recorded here is divided by the machine's slowdown
    /// factor sampled just before it was taken, like the end-to-end times.
    pub reference: Reference,
}

impl Layers {
    pub fn new() -> Self {
        let mut reference = Reference::new();
        reference.sample(); // the first sample pays the kernels' cold caches
        Layers {
            rows: Vec::new(),
            rec: Recorder::new(),
            reference,
        }
    }

    /// Records a figure measured once (a count, a ratio, a report field).
    pub fn put(&mut self, name: &'static str, value: f64) {
        let unit = spec::per_layer(name).unit;
        self.rows.push((name, Summary::single(value, unit)));
    }

    /// Times `f` repeatedly for one slice and records the median, in the
    /// unit the spec gives `name`. Returns the median in seconds.
    pub fn time(&mut self, name: &'static str, f: impl FnMut()) -> f64 {
        self.time_batched(name, 1, f)
    }

    fn time_batched(&mut self, name: &'static str, calls: usize, mut f: impl FnMut()) -> f64 {
        let unit = spec::per_layer(name).unit;
        let scale = match unit {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            other => panic!("{name}: {other} is not a time unit"),
        };
        let factor = self.reference.sample();
        let scale = scale / factor;
        let samples = self.rec.span(name, |_| {
            f(); // first call pays lazy set-up and cold caches; not timed
            let started = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < MIN_SAMPLES
                || (started.elapsed() < SLICE && samples.len() < MAX_SAMPLES)
            {
                let t = Instant::now();
                for _ in 0..calls {
                    f();
                }
                samples.push(t.elapsed().as_secs_f64() * scale / calls as f64);
            }
            samples
        });
        let summary = Summary::median_of(&samples, unit);
        let median_s = summary.median / scale;
        self.rows.push((name, summary));
        median_s
    }
}

fn tensor(rng: &mut SplitMix64, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gauss()).collect(), shape.to_vec())
        .expect("shape matches data")
}

fn token_rows(rng: &mut SplitMix64, rows: usize, seq: usize) -> Vec<Vec<usize>> {
    (0..rows)
        .map(|_| (0..seq).map(|_| rng.below(64) as usize).collect())
        .collect()
}

/// Runs every fixed-shape probe. `scratch_dir` is where the disk-store
/// probes write; it is created here and removed before returning.
pub fn run_all(layers: &mut Layers, scratch_dir: &Path) {
    let mut rng = SplitMix64::new(0x70_726f_6265); // probe inputs never depend on --seed
    tensor_and_nn(layers, &mut rng);
    let stage = model_stages(layers, &mut rng);
    peft_data_parallel(layers, &mut rng);
    let link = net(layers, &mut rng);
    planner(layers, &stage, &link);
    store(layers, scratch_dir);
    serve_and_core(layers);
    telemetry(layers);
}

/// Rows and hidden width one `pac_solo` replica sees per step.
const REPLICA_ROWS: usize = solo::BATCH / solo::DEVICES;
const REPLICA_TOKENS: usize = REPLICA_ROWS * solo::SEQ;
const FF: usize = solo::HIDDEN * 4;

fn tensor_and_nn(layers: &mut Layers, rng: &mut SplitMix64) {
    let x = tensor(rng, &[REPLICA_TOKENS, solo::HIDDEN]);
    let w = tensor(rng, &[solo::HIDDEN, FF]);
    let dy = tensor(rng, &[REPLICA_TOKENS, FF]);
    let nn_s = layers.time("pac-tensor.matmul_nn.us", || {
        black_box(ops::matmul(black_box(&x), black_box(&w)).expect("matmul"));
    });
    layers.time("pac-tensor.matmul_nt.us", || {
        black_box(ops::matmul_nt(black_box(&dy), black_box(&w)).expect("matmul_nt"));
    });
    layers.time("pac-tensor.matmul_tn.us", || {
        black_box(ops::matmul_tn(black_box(&x), black_box(&dy)).expect("matmul_tn"));
    });
    let flop = 2.0 * (REPLICA_TOKENS * solo::HIDDEN * FF) as f64;
    layers.put("pac-tensor.matmul.gflops", flop / nn_s / 1e9);

    let h = tensor(rng, &[REPLICA_ROWS, solo::SEQ, solo::HIDDEN]);
    let dh = tensor(rng, &[REPLICA_ROWS, solo::SEQ, solo::HIDDEN]);
    let mut attn = MultiHeadAttention::new("probe.attn", &mut seeded(1), solo::HIDDEN, solo::HEADS);
    layers.time("pac-nn.attention.fwd.us", || {
        black_box(attn.forward(&h, &h, false).expect("attention forward"));
    });
    let (_, actx) = attn.forward(&h, &h, false).expect("attention forward");
    layers.time("pac-nn.attention.bwd.us", || {
        black_box(attn.backward(&actx, &dh).expect("attention backward"));
    });
    let mut ff = FeedForward::new(
        "probe.ff",
        &mut seeded(2),
        solo::HIDDEN,
        FF,
        Activation::Gelu,
    );
    layers.time("pac-nn.feedforward.fwd.us", || {
        black_box(ff.forward(&h).expect("feed-forward forward"));
    });
    let (_, fctx) = ff.forward(&h).expect("feed-forward forward");
    layers.time("pac-nn.feedforward.bwd.us", || {
        black_box(ff.backward(&fctx, &dh).expect("feed-forward backward"));
    });
    let logits = tensor(rng, &[REPLICA_ROWS, 2]);
    let targets: Vec<usize> = (0..REPLICA_ROWS).map(|i| i % 2).collect();
    layers.time_batched("pac-nn.cross_entropy.us", 100, || {
        black_box(cross_entropy(black_box(&logits), &targets).expect("cross entropy"));
    });
}

/// What the planner probe needs from the stage probes: measured seconds.
struct StageTimes {
    fwd_s: f64,
    bwd_s: f64,
    boundary_bytes: usize,
}

/// Rows one lane of the 2x2 world handles per micro-batch.
const LANE_ROWS: usize = dist::ROWS / 2;

fn dist_stages() -> Vec<StageModel> {
    let cfg = workloads::world_config(2, 2, 7);
    EncoderModel::new(&cfg.model_config(), cfg.n_out, &mut seeded(cfg.seed))
        .partition(&cfg.partition)
        .expect("partition of the 2-stage model")
}

fn model_stages(layers: &mut Layers, rng: &mut SplitMix64) -> StageTimes {
    let backbone = EncDecModel::new(
        &workloads::solo_model(),
        2,
        &mut seeded(solo::BACKBONE_SEED),
    );
    let tokens = token_rows(rng, REPLICA_ROWS, solo::SEQ);
    layers.time("pac-model.encdec.forward.us", || {
        black_box(backbone.forward(&tokens).expect("backbone forward"));
    });

    let mut stage0 = dist_stages().swap_remove(0);
    let lane_tokens = token_rows(rng, LANE_ROWS, dist::SEQ);
    let fwd_s = layers.time("pac-model.stage.forward.us", || {
        black_box(
            stage0
                .forward(StageData::Tokens(lane_tokens.clone()))
                .expect("stage forward"),
        );
    });
    let (out, ctx) = stage0
        .forward(StageData::Tokens(lane_tokens.clone()))
        .expect("stage forward");
    let dy = tensor(rng, &[LANE_ROWS, dist::SEQ, dist::HIDDEN]);
    let bwd_s = layers.time("pac-model.stage.backward.us", || {
        black_box(stage0.backward(&ctx, &dy).expect("stage backward"));
    });
    StageTimes {
        fwd_s,
        bwd_s,
        boundary_bytes: out.wire_bytes(),
    }
}

fn solo_replicas() -> Vec<Tuner> {
    let backbone = EncDecModel::new(
        &workloads::solo_model(),
        2,
        &mut seeded(solo::BACKBONE_SEED),
    );
    let technique = Technique::ParallelAdapters {
        reduction: workloads::solo_config(0).reduction,
    };
    vec![Tuner::wrap(technique, backbone, 2, &mut seeded(3)); solo::DEVICES]
}

fn peft_data_parallel(layers: &mut Layers, rng: &mut SplitMix64) {
    let mut replicas = solo_replicas();
    let tokens = token_rows(rng, REPLICA_ROWS, solo::SEQ);
    let targets: Vec<usize> = (0..REPLICA_ROWS).map(|i| i % 2).collect();
    let tuner = &mut replicas[0];
    layers.time("pac-peft.tuner.forward_full.us", || {
        black_box(tuner.forward(&tokens).expect("full forward"));
    });
    let (logits, ctx) = tuner.forward(&tokens).expect("full forward");
    let acts = tuner
        .cacheable_acts(&ctx)
        .expect("Parallel Adapters cache their backbone activations")
        .to_vec();
    layers.time("pac-peft.tuner.forward_cached.us", || {
        black_box(tuner.forward_cached(&acts).expect("cached forward"));
    });
    let (_, dl) = cross_entropy(&logits, &targets).expect("cross entropy");
    layers.time("pac-peft.tuner.backward.us", || {
        tuner.backward(&ctx, &dl).expect("side-network backward");
    });
    let mut adam = Adam::new(1e-2);
    layers.time("pac-nn.adam_step.us", || adam.step(tuner));

    let ids: Vec<u64> = (0..REPLICA_ROWS as u64).collect();
    let mut cache = ActivationCache::new();
    layers.time("pac-peft.cache.insert_batch.us", || {
        cache.insert_batch(&ids, &acts)
    });
    layers.time("pac-peft.cache.get_batch.us", || {
        black_box(cache.get_batch(&ids).expect("ids were just inserted"));
    });

    let task = TaskKind::Sst2;
    layers.time("pac-data.generate.ms", || {
        black_box(Dataset::generate(
            task,
            solo::TRAIN_N + solo::EVAL_N,
            solo::SEQ,
            5,
        ));
    });
    let data = Dataset::generate(task, solo::TRAIN_N, solo::SEQ, 5);
    let mut epoch = 0;
    layers.time("pac-data.batches.us", || {
        epoch += 1;
        black_box(data.batches(solo::BATCH, epoch, 6));
    });

    let token_shards = vec![(tokens.clone(), targets.clone()); solo::DEVICES];
    layers.time("pac-parallel.dp_step_tokens.ms", || {
        for r in replicas.iter_mut() {
            r.zero_grads();
        }
        black_box(dp_step_tokens(&mut replicas, &token_shards).expect("dp step over tokens"));
    });
    let float_targets: Vec<f32> = targets.iter().map(|&t| t as f32).collect();
    let cached_shards = vec![(acts.clone(), float_targets); solo::DEVICES];
    layers.time("pac-parallel.dp_step_cached.ms", || {
        for r in replicas.iter_mut() {
            r.zero_grads();
        }
        black_box(
            dp_step_cached(&mut replicas, &cached_shards, false).expect("dp step over cache"),
        );
    });
    layers.time("pac-parallel.allreduce_mean.us", || {
        allreduce_mean(&mut replicas).expect("in-process allreduce");
    });

    let cfg = workloads::world_config(2, 2, 7);
    let mut engine = HybridEngine::new(dist_stages(), cfg.lanes, cfg.schedule);
    let mut opts: Vec<Box<dyn Optimizer>> = (0..cfg.lanes)
        .map(|_| Box::new(Sgd::new(cfg.lr)) as Box<dyn Optimizer>)
        .collect();
    let batch = workloads::world_batches(9, 1).swap_remove(0);
    let mut mini_batch = || {
        engine.zero_grads();
        black_box(engine.run_mini_batch(&batch).expect("hybrid mini-batch"));
        engine.step(&mut opts);
    };
    layers.time("pac-parallel.hybrid.mini_batch.ms", &mut mini_batch);
    // Stage idleness comes from the engine's own counters: busy time per
    // stage against the pipeline wall, summed over lanes and mini-batches.
    pac_telemetry::reset();
    pac_telemetry::set_enabled(true);
    for _ in 0..20 {
        mini_batch();
    }
    pac_telemetry::set_enabled(false);
    let get = |k: &str| pac_telemetry::get(k).unwrap_or(0) as f64;
    let busy: f64 = (0..cfg.stages())
        .map(|s| get(&format!("pipeline.stage{s}.busy_ns")))
        .sum();
    let wall = get("pipeline.wall_ns") * cfg.stages() as f64;
    layers.put(
        "pac-parallel.hybrid.stage_idle_ratio",
        if wall > 0.0 { 1.0 - busy / wall } else { 0.0 },
    );

    // Four co-scheduled tenants over a shared 2-stage chain, forward to
    // backward 1:2, tenant t costing (1 + t/4) of tenant 0.
    let loads: Vec<TenantLoad> = (0..4)
        .map(|t| {
            let f = 1.0 + t as f64 * 0.25;
            TenantLoad {
                stages: vec![sim_stage(f, 2.0 * f, 0.1, 0.0); 2],
                micros: dist::MICROS,
            }
        })
        .collect();
    layers.time("pac-parallel.fill.plan_filled.us", || {
        black_box(plan_filled(black_box(&loads)));
    });
    layers.put(
        "pac-parallel.fill.bubble_fraction",
        plan_filled(&loads).combined.bubble_fraction,
    );
    layers.put(
        "pac-parallel.serialized.bubble_fraction",
        plan_serialized(&loads).combined.bubble_fraction,
    );
}

fn sim_stage(fwd_s: f64, bwd_s: f64, send_s: f64, allreduce_s: f64) -> SimStage {
    SimStage {
        fwd_s,
        bwd_s,
        send_fwd_s: send_s,
        send_bwd_s: send_s,
        weight_bytes: 0,
        act_bytes_per_mb: 0,
        fixed_bytes: 0,
        allreduce_s,
    }
}

/// What the planner probe needs from the network probes.
struct LinkTimes {
    link: pac_cluster::LinkSpec,
    ring_s: f64,
    world_step_s: f64,
}

/// Two-rank ring AllReduce over loopback TCP: this thread is lane 0, a
/// helper thread lane 1, each with its own replica of `stage`.
fn ring_probe(layers: &mut Layers, name: &'static str, stage: &StageModel) -> f64 {
    let listener = Tcp::LOOPBACK.bind().expect("bind a loopback port");
    let port = listener.port();
    let timeout = Duration::from_secs(10);
    let ctx = |lane: usize| RingCtx {
        lane,
        lanes: 2,
        stage: 0,
        step: 0,
        left_rank: 1 - lane,
        right_rank: 1 - lane,
    };
    std::thread::scope(|scope| {
        let mut peer_stage = stage.clone();
        let peer = scope.spawn(move || {
            let mut ring_in = listener
                .accept(timeout, timeout)
                .expect("accept ring edge 0->1");
            let mut ring_out = listener
                .accept(timeout, timeout)
                .expect("accept ring edge 1->0");
            // Mirror lane 0 call for call until it hangs up.
            while ring_allreduce_mean(&mut peer_stage, &mut ring_in, &mut ring_out, &ctx(1)).is_ok()
            {
            }
        });
        let mut ring_out = Tcp::LOOPBACK
            .connect(port, timeout)
            .expect("dial ring edge 0->1");
        let mut ring_in = Tcp::LOOPBACK
            .connect(port, timeout)
            .expect("dial ring edge 1->0");
        let mut mine = stage.clone();
        let median_s = layers.time(name, || {
            ring_allreduce_mean(&mut mine, &mut ring_in, &mut ring_out, &ctx(0))
                .expect("ring allreduce");
        });
        drop((ring_in, ring_out));
        peer.join().expect("ring peer thread");
        median_s
    })
}

fn world(steps: usize) -> f64 {
    let job = TenantJob::new(
        0,
        workloads::world_config(2, 2, 7),
        workloads::world_batches(11, steps),
    );
    let t = Instant::now();
    run_multiworld(&Spawner::Threads, vec![job]).expect("probe world");
    t.elapsed().as_secs_f64()
}

fn net(layers: &mut Layers, rng: &mut SplitMix64) -> LinkTimes {
    let act = Msg::Act {
        micro: 0,
        data: StageData::Hidden(tensor(rng, &[LANE_ROWS, dist::SEQ, dist::HIDDEN])),
    };
    let act_frame = encode_frame(&act);
    layers.time("pac-net.wire.encode_act.us", || {
        black_box(encode_frame(black_box(&act)));
    });
    layers.time("pac-net.wire.decode_act.us", || {
        black_box(decode_frame(black_box(&act_frame)).expect("decode act frame"));
    });
    let stage = dist_stages().swap_remove(0);
    let grads = Msg::GradBlock {
        origin_lane: 0,
        tensors: local_grads(&stage),
    };
    let grads_frame = encode_frame(&grads);
    layers.time("pac-net.wire.encode_grads.us", || {
        black_box(encode_frame(black_box(&grads)));
    });
    layers.time("pac-net.wire.decode_grads.us", || {
        black_box(decode_frame(black_box(&grads_frame)).expect("decode gradient frame"));
    });

    let ring_s = ring_probe(layers, "pac-net.ring_allreduce.h32.ms", &stage);
    let wide = EncoderModel::new(&ModelConfig::micro(2, 0, 128, 2), 2, &mut seeded(7))
        .partition(&[2])
        .expect("one-stage partition")
        .swap_remove(0);
    ring_probe(layers, "pac-net.ring_allreduce.h128.ms", &wide);

    let cal = layers
        .rec
        .span("pac-net.link", |_| calibrate_loopback(64, 64 * 1024, 8))
        .expect("loopback calibration");
    layers.put("pac-net.link.rtt_us", cal.rtt_s * 1e6);
    layers.put("pac-net.link.bandwidth_mbps", cal.bandwidth_bps / 1e6);

    // A one-step world is spawn + rendezvous + one step + teardown; the
    // eleven-step world adds ten steady-state steps to that.
    let factor = layers.reference.sample();
    let (one, eleven) = layers.rec.span("pac-net.world", |_| {
        world(1); // first world pays thread-pool and socket warm-up
        let one = [world(1), world(1), world(1)];
        let eleven = [world(11), world(11), world(11)];
        (
            Summary::median_of(&one, "ms").median / factor,
            Summary::median_of(&eleven, "ms").median / factor,
        )
    });
    layers.put("pac-net.world.setup_ms", one * 1e3);
    let world_step_s = (eleven - one).max(0.0) / 10.0;
    layers.put("pac-net.world.step_ms", world_step_s * 1e3);
    LinkTimes {
        link: cal.to_link_spec(),
        ring_s,
        world_step_s,
    }
}

fn planner(layers: &mut Layers, stage: &StageTimes, net: &LinkTimes) {
    let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
    let planner = Planner::paper_defaults(Cluster::nanos(4), 16);
    layers.time("pac-planner.plan.ms", || {
        black_box(planner.plan(black_box(&cost)).expect("4-device plan"));
    });
    // ROADMAP's model-error figure: the 1F1B timeline model fed with the
    // measured stage times, link and collective, against the measured step
    // of the same 2x2 world.
    let send_s = net.link.transfer_time(stage.boundary_bytes);
    let load = TenantLoad {
        stages: vec![sim_stage(stage.fwd_s, stage.bwd_s, send_s, net.ring_s); 2],
        micros: dist::MICROS,
    };
    let predicted_s = plan_filled(&[load]).combined.makespan_s;
    layers.put("pac-planner.makespan_predicted_ms", predicted_s * 1e3);
    layers.put(
        "pac-planner.makespan_error_ratio",
        if net.world_step_s > 0.0 {
            predicted_s / net.world_step_s
        } else {
            0.0
        },
    );
}

/// A published serve-shape adapter (weights plus Adam moments) and the
/// tuner and baseline it belongs to.
fn serve_adapter() -> (
    ParallelTuner,
    pac_peft::AdapterBaseline,
    BurstSpec,
    BurstOutcome,
) {
    let cfg = workloads::serve_config();
    let model = EncDecModel::new(&cfg.model, cfg.n_out, &mut seeded(cfg.seed));
    let mut tuner = ParallelTuner::new(model, cfg.reduction, cfg.n_out, &mut seeded(cfg.seed + 1));
    let baseline = tuner.baseline();
    let spec = BurstSpec {
        tenant: 1,
        seed: 2,
        steps: serve::STEPS,
        rows: cfg.rows,
        seq: cfg.seq,
        lr: cfg.lr,
        fault_at: None,
    };
    let outcome =
        run_tenant_burst(&mut tuner, &baseline, None, &spec, false).expect("tenant burst");
    (tuner, baseline, spec, outcome)
}

/// Commits differ in every 4 KiB chunk, as real adapters do, so dedup
/// never hides the write.
fn distinct_payload(base: &[u8], i: u64) -> Vec<u8> {
    let mut payload = base.to_vec();
    for chunk in payload.chunks_mut(pac_store::CHUNK_BYTES) {
        let n = chunk.len().min(8);
        chunk[..n].copy_from_slice(&i.to_le_bytes()[..n]);
    }
    payload
}

const STORE_LOG_COMMITS: u64 = 200;

fn store(layers: &mut Layers, dir: &Path) {
    let (_, _, _, outcome) = serve_adapter();
    let base = outcome.checkpoint.to_bytes().expect("encode adapter");
    let _ = std::fs::remove_dir_all(dir);
    let (mut disk, _) = DiskStore::open(dir).expect("open probe store");
    let mut i = 0u64;
    let mut commit = |store: &mut dyn Store| {
        i += 1;
        store
            .commit(&distinct_payload(&base, i), &i.to_le_bytes())
            .expect("commit");
    };
    for _ in 0..STORE_LOG_COMMITS {
        commit(&mut disk);
    }
    layers.time("pac-store.disk.commit.us", || commit(&mut disk));
    let commits = disk.commits();
    let written = disk.bytes_written() as f64;
    layers.put("pac-store.disk.bytes_per_commit", written / commits as f64);
    layers.put(
        "pac-store.disk.write_amplification",
        written / (commits as f64 * base.len() as f64),
    );
    layers.time("pac-store.disk.latest.us", || {
        black_box(disk.latest().expect("readable log"));
    });
    let mut pick = SplitMix64::new(3);
    layers.time("pac-store.disk.committed.us", || {
        black_box(disk.committed(pick.below(commits)).expect("readable log"));
    });
    drop(disk);
    layers.time("pac-store.disk.open.us", || {
        black_box(DiskStore::open(dir).expect("reopen probe store"));
    });
    let _ = std::fs::remove_dir_all(dir);

    let mut mem = MemStore::new();
    layers.time("pac-store.mem.commit.us", || commit(&mut mem));
    let commits = mem.commits();
    layers.time("pac-store.mem.committed.us", || {
        black_box(mem.committed(pick.below(commits)).expect("in-memory log"));
    });
}

fn serve_and_core(layers: &mut Layers) {
    let (mut tuner, baseline, spec, outcome) = serve_adapter();
    let adapter = outcome.checkpoint;
    layers.time("pac-core.tenant_burst.us", || {
        black_box(
            run_tenant_burst(&mut tuner, &baseline, Some(&adapter), &spec, false).expect("burst"),
        );
    });
    let bytes = adapter.to_bytes().expect("encode adapter");
    layers.time("pac-peft.checkpoint.encode.us", || {
        black_box(adapter.to_bytes().expect("encode adapter"));
    });
    layers.time("pac-peft.checkpoint.decode.us", || {
        black_box(TrainCheckpoint::from_bytes(black_box(&bytes)).expect("decode adapter"));
    });
    layers.put("pac-peft.checkpoint.bytes", bytes.len() as f64);

    let slots = serve::CACHED_PER_RANK as u64;
    let mut cache = AdapterCache::new(slots * adapter.size_bytes() as u64);
    for t in 0..slots {
        cache.insert(t, 1, adapter.clone());
    }
    let mut t = 0;
    layers.time("pac-serve.cache.get_hit.us", || {
        t = (t + 1) % slots;
        black_box(cache.get(t).expect("resident adapter"));
    });
    let mut next = slots;
    layers.time("pac-serve.cache.insert_evict.us", || {
        next += 1; // a tenant the full cache has never seen: one eviction
        black_box(cache.insert(next, 1, adapter.clone()));
    });

    let mut registry =
        AdapterRegistry::open(MemStore::new()).expect("registry over an empty store");
    let mut tenant = 0u64;
    layers.time("pac-serve.registry.publish.us", || {
        tenant += 1;
        black_box(registry.publish(tenant, &adapter).expect("publish"));
    });
    let published = tenant;
    let mut pick = SplitMix64::new(4);
    layers.time("pac-serve.registry.fetch.us", || {
        let t = 1 + pick.below(published);
        black_box(
            registry
                .fetch(t, 1)
                .expect("fetch")
                .expect("published version"),
        );
    });
    let mut router = Router::new();
    let (warm, load) = ([false, true], [1usize, 0]);
    layers.time_batched("pac-serve.router.route.ns", TIGHT, || {
        black_box(router.route(true, black_box(&warm), black_box(&load)));
    });
}

fn telemetry(layers: &mut Layers) {
    pac_telemetry::set_enabled(false);
    layers.time_batched("pac-telemetry.site_disabled.ns", TIGHT, || {
        pac_telemetry::counter_add(black_box("benchmark.probe"), 1);
    });
    pac_telemetry::set_enabled(true);
    layers.time_batched("pac-telemetry.counter_add_enabled.ns", TIGHT, || {
        pac_telemetry::counter_add(black_box("benchmark.probe"), 1);
    });
    pac_telemetry::set_enabled(false);
}
