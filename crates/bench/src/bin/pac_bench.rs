//! pac-bench: the perf-trajectory harness.
//!
//! Benchmarks the training hot path and records the results to a JSON file
//! (default `BENCH_PR22.json`; the committed file of that name embeds a
//! parent and a change run of this harness under `pac_bench`, next to the
//! end-to-end A/B of the reference benchmark) so the repo carries its own
//! measured perf history:
//!
//! 1. **Kernels** — the small matmul (64×64×64, 2^19 FLOPs: fanned out
//!    over the pool under the 2^18 dispatch line its `pooled` record was
//!    named under, inline since PR 19) through the allocating API and
//!    through `matmul_into` with a reused output buffer; the `matmul_gflops`
//!    group, `nn`/`nt`/`tn` single-threaded at the three backbone shapes of
//!    `pac_solo` and the attention-score shape; and the `elementwise`
//!    group, the non-matmul half of a layer: GELU forward and fused
//!    backward, tanh, `softmax_rows` and one Adam step through their
//!    product entry points at `[104,1024]` (the `pac_solo` feed-forward
//!    hidden) and `[128,128]`, reported in ns/element.
//! 2. **End-to-end epoch** — a 4-mini-batch training epoch of the micro
//!    encoder.
//! 3. **Loopback link calibration** — RTT and bulk throughput of the real
//!    framed TCP channel, folded into a [`pac_cluster::LinkSpec::measured`]
//!    and fed to the planner next to the paper's assumed 128 Mbps LAN.
//! 4. **Cold restore** — reopening a durable [`pac_store::DiskStore`] log
//!    of committed PACCKPT3 snapshots after a simulated `kill -9`: log scan
//!    alone, and the full open → decode → restore-into-module path a
//!    restarted trainer pays before its first step.
//! 5. **q8 storage and transport** — the Parallel-Adapters epoch, and
//!    the byte accounting the quantization exists for: activation-cache
//!    resident bytes and Act-edge wire frame bytes, f32 vs int8.
//! 6. **Distributed int8 wire** — a real 2×2 loopback run with `wire_q8`
//!    on vs off; the final-loss delta lands in the JSON next to the byte
//!    cuts it justifies.
//!
//! Usage: `pac-bench [--quick] [--out PATH]`.
//!
//! `pac-bench --multiworld [--tenants N]` runs the multi-world benchmark
//! instead: N tenant training worlds (default 6) multiplexed by the
//! coordinator vs the same coordinator fed the same worlds one at a time,
//! recording wall-clock tenants/sec both ways, the bitwise solo-equality
//! check, and the `bubble_fraction` of the co-scheduled pipeline plan
//! before/after cross-tenant bubble filling to `BENCH_PR14.json`.

use criterion::{black_box, Criterion, Throughput};
use pac_model::StageData;
use pac_model::{EncoderModel, ModelConfig};
use pac_net::wire::{encode_frame, Msg};
use pac_nn::{cross_entropy, Activation, Adam, Linear, Module, Optimizer, Sgd};
use pac_peft::{ActivationCache, Technique, TrainCheckpoint, Tuner};
use pac_store::{DiskStore, Store};
use pac_tensor::{init, ops, reduce, rng::seeded, scratch, QTensor, Tensor};
use rand::Rng as _;
use rayon::pool;
use std::time::Duration;

fn mini_batches(seed: u64, m: usize, b: usize, s: usize) -> Vec<(Vec<Vec<usize>>, Vec<usize>)> {
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

/// One full training epoch: forward, loss, backward, SGD step per mini-batch.
fn epoch(
    model: &mut EncoderModel,
    batches: &[(Vec<Vec<usize>>, Vec<usize>)],
    opt: &mut Sgd,
) -> f32 {
    let mut loss_sum = 0.0;
    for (toks, targets) in batches {
        let (logits, ctx) = model.forward(toks).expect("bench forward");
        let (loss, dl) = cross_entropy(&logits, targets).expect("bench loss");
        loss_sum += loss;
        model.zero_grads();
        model.backward(&ctx, &dl).expect("bench backward");
        opt.step(model);
    }
    loss_sum
}

/// One Parallel-Adapters training epoch through the [`Tuner`] dispatch:
/// frozen-backbone forward, side-network backward, SGD step.
fn tuner_epoch(tuner: &mut Tuner, batches: &[(Vec<Vec<usize>>, Vec<usize>)], opt: &mut Sgd) -> f32 {
    let mut loss_sum = 0.0;
    for (toks, targets) in batches {
        let (logits, ctx) = tuner.forward(toks).expect("bench tuner forward");
        let (loss, dl) = cross_entropy(&logits, targets).expect("bench tuner loss");
        loss_sum += loss;
        tuner.zero_grads();
        tuner.backward(&ctx, &dl).expect("bench tuner backward");
        opt.step(tuner);
    }
    loss_sum
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let multiworld = args.iter().any(|a| a == "--multiworld");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if multiworld {
                "BENCH_PR14.json".to_string()
            } else {
                "BENCH_PR22.json".to_string()
            }
        });
    if multiworld {
        let tenants: usize = args
            .iter()
            .position(|a| a == "--tenants")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(if quick { 3 } else { 6 });
        multiworld_bench(tenants, &out_path);
        return;
    }
    let budget = Duration::from_millis(if quick { 40 } else { 250 });
    let mut c = Criterion::default().measurement_time(budget);

    println!(
        "pac-bench: pool width {}, mode {}, budget {:?}/bench\n",
        pool::pool_width(),
        if quick { "quick" } else { "full" },
        budget
    );

    // ---- 1. Kernels: small matmul, allocating and reused-out ----
    let mut rng = seeded(7);
    let a = init::randn(&mut rng, [64, 64], 1.0);
    let b = init::randn(&mut rng, [64, 64], 1.0);
    black_box(ops::matmul(&a, &b).expect("warm-up")); // spin the workers up
    {
        let mut g = c.benchmark_group("matmul_64x64x64");
        g.throughput(Throughput::Elements(2 * 64 * 64 * 64)); // FLOPs
        g.bench_function("pooled", |bch| {
            bch.iter(|| ops::matmul(black_box(&a), black_box(&b)).expect("matmul"))
        });
        let mut out = Tensor::zeros([0]);
        g.bench_function("into_reused_out", |bch| {
            bch.iter(|| ops::matmul_into(black_box(&a), black_box(&b), &mut out).expect("matmul"))
        });
        g.finish();
    }

    // The register-tiled microkernel at the shapes that decide `pac_solo`
    // (QKV/O projection, feed-forward up and down at 104 tokens) and the
    // per-head attention scores, capped to the calling thread so the figure
    // is the kernel's and not the pool's.
    const MATMUL_SHAPES: [(usize, usize, usize); 4] = [
        (104, 256, 1024),
        (104, 1024, 256),
        (104, 256, 256),
        (13, 64, 13),
    ];
    {
        pool::set_max_concurrency(1);
        let mut g = c.benchmark_group("matmul_gflops");
        let mut out = Tensor::zeros([0]);
        for (m, k, n) in MATMUL_SHAPES {
            let a = init::randn(&mut rng, [m, k], 1.0);
            let b = init::randn(&mut rng, [k, n], 1.0);
            let (at, bt) = (a.transpose_2d(), b.transpose_2d());
            g.throughput(Throughput::Elements((2 * m * k * n) as u64)); // FLOPs
            g.bench_function(&format!("nn_{m}x{k}x{n}"), |bch| {
                bch.iter(|| ops::matmul_into(black_box(&a), black_box(&b), &mut out).expect("nn"))
            });
            g.bench_function(&format!("nt_{m}x{k}x{n}"), |bch| {
                bch.iter(|| {
                    ops::matmul_nt_into(black_box(&a), black_box(&bt), &mut out).expect("nt")
                })
            });
            g.bench_function(&format!("tn_{m}x{k}x{n}"), |bch| {
                bch.iter(|| {
                    ops::matmul_tn_into(black_box(&at), black_box(&b), &mut out).expect("tn")
                })
            });
        }
        g.finish();
        pool::set_max_concurrency(usize::MAX);
    }

    // Elementwise: every bench goes through the entry point the layers
    // call, so scratch traffic and the output zero-fill are in the figure.
    const ELEMENTWISE: [&str; 5] = [
        "gelu_fwd",
        "gelu_bwd_fused",
        "tanh_fwd",
        "softmax_rows",
        "adam_step",
    ];
    const ELEMENTWISE_SHAPES: [[usize; 2]; 2] = [[104, 1024], [128, 128]];
    {
        let mut g = c.benchmark_group("elementwise");
        for shape in ELEMENTWISE_SHAPES {
            let tag = format!("{}x{}", shape[0], shape[1]);
            let x = init::randn(&mut rng, shape, 1.5);
            let dy = init::randn(&mut rng, shape, 1.0);
            g.throughput(Throughput::Elements((shape[0] * shape[1]) as u64));
            g.bench_function(&format!("gelu_fwd_{tag}"), |bch| {
                bch.iter(|| scratch::put(Activation::Gelu.forward(black_box(&x))))
            });
            g.bench_function(&format!("gelu_bwd_fused_{tag}"), |bch| {
                bch.iter(|| scratch::put(Activation::Gelu.backward(black_box(&x), black_box(&dy))))
            });
            g.bench_function(&format!("tanh_fwd_{tag}"), |bch| {
                bch.iter(|| scratch::put(Activation::Tanh.forward(black_box(&x))))
            });
            g.bench_function(&format!("softmax_rows_{tag}"), |bch| {
                bch.iter(|| reduce::softmax_rows(black_box(&x)))
            });
            g.bench_function(&format!("adam_step_{tag}"), |bch| {
                let mut layer = Linear::from_weights("bench", x.clone(), None);
                layer.w.grad = dy.clone();
                let mut opt = Adam::new(1e-3);
                bch.iter(|| opt.step(&mut layer))
            });
        }
        g.finish();
    }

    // ---- 2. End-to-end training epoch ----
    {
        let cfg = ModelConfig::micro(2, 0, 32, 2);
        let batches = mini_batches(11, 4, 8, 12);
        let rows = 4 * 8;
        let mut g = c.benchmark_group("epoch_micro_enc");
        g.throughput(Throughput::Elements(rows)); // sample rows per epoch
        g.bench_function("pooled_scratch", |bch| {
            let mut model = EncoderModel::new(&cfg, 2, &mut seeded(12));
            let mut opt = Sgd::new(0.05);
            bch.iter(|| black_box(epoch(&mut model, &batches, &mut opt)))
        });
        g.finish();
    }

    // ---- 3. Loopback link calibration → planner input ----
    // Measure the fabric the distributed runtime actually uses (framed TCP
    // on loopback, checksums included), then show what the planner does
    // with it: the same cluster planned under the paper's assumed LAN and
    // under the measured link.
    let (pings, bulk, rounds) = if quick {
        (32, 64 * 1024, 4)
    } else {
        (128, 256 * 1024, 8)
    };
    let cal = pac_net::calibrate_loopback(pings, bulk, rounds).expect("loopback calibration");
    let measured = cal.to_link_spec();
    let assumed = pac_cluster::LinkSpec::lan_128mbps();
    println!(
        "\nloopback link: rtt {:.1} us, bandwidth {:.2} Gbit/s ({} B bulk frame)",
        cal.rtt_s * 1e6,
        cal.bandwidth_bps / 1e9,
        cal.bulk_frame_bytes
    );
    let plan_makespan = |link: pac_cluster::LinkSpec| -> f64 {
        let planner = pac_planner::Planner::paper_defaults(
            pac_cluster::Cluster::nanos(4).with_link(link),
            16,
        );
        let cost = pac_cluster::CostModel::new(
            ModelConfig::t5_base(),
            pac_peft::Technique::parallel_default(),
            128,
        );
        planner.plan(&cost).expect("4-device plan").best_makespan_s
    };
    let (mk_assumed, mk_measured) = (plan_makespan(assumed), plan_makespan(measured));
    println!(
        "planner makespan, 4 nanos, T5-Base mini-batch 16: {mk_assumed:.3} s assumed 128 Mbps LAN \
         -> {mk_measured:.3} s measured loopback"
    );

    // ---- 4. Cold restore: durable log open + decode + restore ----
    // A restarted trainer pays exactly this before its first step: scan the
    // segment log (CRC every record, truncate any torn tail), pull the
    // latest committed snapshot, decode the PACCKPT3 framing, and load the
    // tensors into a live module. Each commit comes from a differently
    // seeded tuner; every snapshot in the log is scanned on open.
    let (restore_log_bytes, restore_commits) = {
        let cfg = ModelConfig::micro(2, 0, 32, 2);
        let n_commits = if quick { 4u64 } else { 8 };
        let dir =
            std::env::temp_dir().join(format!("pac-bench-coldrestore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = DiskStore::open(&dir).expect("bench store");
        for i in 0..n_commits {
            let tuner = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(100 + i));
            let ck = TrainCheckpoint::capture(&tuner, 0, i, i);
            store
                .commit(&ck.to_bytes().expect("encode snapshot"), &i.to_le_bytes())
                .expect("commit snapshot");
        }
        let log_bytes = store.bytes_written();
        drop(store);

        let mut g = c.benchmark_group("cold_restore");
        g.bench_function("open_log", |bch| {
            bch.iter(|| {
                let (s, report) = DiskStore::open(black_box(&dir)).expect("reopen");
                black_box(report.commits);
                s
            })
        });
        let mut target = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(7));
        g.bench_function("open_decode_restore", |bch| {
            bch.iter(|| {
                let (s, _) = DiskStore::open(black_box(&dir)).expect("reopen");
                let committed = s
                    .latest()
                    .expect("readable log")
                    .expect("committed snapshot");
                let ck = TrainCheckpoint::from_bytes(&committed.payload).expect("decode");
                ck.restore(&mut target).expect("restore into module");
                black_box(committed.seq)
            })
        });
        g.finish();
        let _ = std::fs::remove_dir_all(&dir);
        (log_bytes, n_commits)
    };

    // ---- 5. q8 storage and transport: PA epoch + byte accounting ----
    // Epoch timing: the Parallel-Adapters tuner, frozen backbone forward
    // and trainable side network.
    {
        let cfg = ModelConfig::micro(2, 0, 32, 2);
        let batches = mini_batches(13, 4, 8, 12);
        let mut g = c.benchmark_group("pa_epoch_micro");
        g.throughput(Throughput::Elements(4 * 8));
        g.bench_function("f32_backbone", |bch| {
            let mut tuner = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(14));
            let mut opt = Sgd::new(0.05);
            bch.iter(|| black_box(tuner_epoch(&mut tuner, &batches, &mut opt)))
        });
        g.finish();
    }

    // Byte accounting at a realistic hidden size (BERT-Base geometry:
    // h=768, 12 cached layers, seq 32): what the int8 cache and the ActQ8
    // wire frame actually save. Pure arithmetic over realized layouts —
    // no timing, so it runs identically under --quick.
    let (cache_f32_bytes, cache_q8_bytes, wire_f32_bytes, wire_q8_bytes) = {
        let (h, s, layers) = (768usize, 32usize, 12usize);
        let acts: Vec<Tensor> = (0..layers)
            .map(|_| init::randn(&mut rng, [s, h], 1.0))
            .collect();
        let mut f32_cache = ActivationCache::new();
        f32_cache.insert(1, acts.clone());
        let mut q8_cache = ActivationCache::new_int8();
        q8_cache.insert(1, acts.clone());

        let boundary = acts[0].clone();
        let f32_frame = encode_frame(&Msg::Act {
            micro: 0,
            data: StageData::Hidden(boundary.clone()),
        });
        let q8_frame = encode_frame(&Msg::ActQ8 {
            micro: 0,
            logits: false,
            q: QTensor::quantize(&boundary),
        });
        (
            f32_cache.stats().bytes,
            q8_cache.stats().bytes,
            f32_frame.len(),
            q8_frame.len(),
        )
    };
    let cache_cut = cache_f32_bytes as f64 / cache_q8_bytes.max(1) as f64;
    let wire_cut = wire_f32_bytes as f64 / wire_q8_bytes.max(1) as f64;
    println!(
        "\nq8 storage and transport, h=768 seq=32 x12 layers: cache {cache_f32_bytes} -> {cache_q8_bytes} B \
         ({cache_cut:.2}x), Act edge {wire_f32_bytes} -> {wire_q8_bytes} B ({wire_cut:.2}x)"
    );

    // ---- 6. Distributed int8 wire vs f32 reference ----
    // The end-to-end check the byte accounting above must not invalidate:
    // a real 2-stage × 2-lane loopback run with `wire_q8` on lands within
    // 0.5 final loss of the identical f32-wire run on the same seed and
    // batches. Same harness as the `dist_equivalence` test suite, recorded
    // here so the JSON carries the measured delta.
    let (dist_f32_loss, dist_q8_loss) = {
        use pac_parallel::engine::MicroBatch;
        let mut rng = seeded(7 ^ 0xda7a_5eed);
        let steps = if quick { 3 } else { 6 };
        let batches: Vec<Vec<MicroBatch>> = (0..steps)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        let rows: Vec<Vec<usize>> = (0..4)
                            .map(|_| (0..6).map(|_| rng.gen_range(0..64usize)).collect())
                            .collect();
                        let labels: Vec<usize> = (0..4).map(|_| rng.gen_range(0..2usize)).collect();
                        (rows, labels)
                    })
                    .collect()
            })
            .collect();
        let run = |wire_q8: bool| -> f32 {
            let mut cfg = pac_net::DistConfig::loopback(2, 2);
            cfg.wire_q8 = wire_q8;
            let job = pac_net::TenantJob::new(0, cfg, batches.clone());
            *pac_net::run_world(&pac_net::Spawner::Threads, job)
                .expect("loopback dist run")
                .losses
                .last()
                .expect("at least one step")
        };
        (run(false), run(true))
    };
    println!(
        "distributed 2x2 loopback final loss: f32 wire {dist_f32_loss:.6}, int8 wire \
         {dist_q8_loss:.6} (|delta| {:.6})",
        (dist_f32_loss - dist_q8_loss).abs()
    );

    // ---- Summary + JSON trajectory ----
    let results = c.take_results();
    let p50 = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.p50_ns as f64)
            .expect("bench ran")
    };
    let p95 = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.p95_ns as f64)
            .expect("bench ran")
    };
    let pstats = pool::stats();
    let sstats = scratch::stats();
    println!(
        "\ncold restore ({restore_commits} commits, {restore_log_bytes} B log): open p50 {:.1} us, \
         open+decode+restore p50 {:.1} us / p95 {:.1} us",
        p50("cold_restore/open_log") / 1e3,
        p50("cold_restore/open_decode_restore") / 1e3,
        p95("cold_restore/open_decode_restore") / 1e3
    );
    println!(
        "pool: {} calls, {} tasks, busy {:.1} ms | scratch: {} reuses, {} allocs",
        pstats.parallel_calls,
        pstats.tasks,
        pstats.busy_ns as f64 / 1e6,
        sstats.reuses,
        sstats.allocs
    );

    println!("\nelementwise, p50 ns/element:");
    let mut elementwise_json = Vec::new();
    for shape in ELEMENTWISE_SHAPES {
        let tag = format!("{}x{}", shape[0], shape[1]);
        for kernel in ELEMENTWISE {
            let per_elem =
                p50(&format!("elementwise/{kernel}_{tag}")) / (shape[0] * shape[1]) as f64;
            println!("  {kernel:<16} [{tag}] {per_elem:>7.3}");
            elementwise_json.push(format!("\"{kernel}_{tag}\": {per_elem:.3}"));
        }
    }

    println!("\nmatmul, single-threaded GFLOP/s (p50):");
    let mut matmul_json = Vec::new();
    for (m, k, n) in MATMUL_SHAPES {
        let gflops =
            |kind: &str| (2 * m * k * n) as f64 / p50(&format!("matmul_gflops/{kind}_{m}x{k}x{n}"));
        let (nn, nt, tn) = (gflops("nn"), gflops("nt"), gflops("tn"));
        println!("  [{m},{k}]x[{k},{n}]  nn {nn:>6.1}  nt {nt:>6.1}  tn {tn:>6.1}");
        matmul_json.push(format!(
            "\"{m}x{k}x{n}\": {{\"nn\": {nn:.1}, \"nt\": {nt:.1}, \"tn\": {tn:.1}}}"
        ));
    }

    let mut json = String::from("{\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"throughput\": {}}}{}\n",
            r.name,
            r.iters,
            r.p50_ns,
            r.p95_ns,
            r.throughput
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "null".to_string()),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"matmul_gflops_single_thread\": {{{}}},\n",
        matmul_json.join(", ")
    ));
    json.push_str(&format!(
        "  \"elementwise_ns_per_element\": {{{}}},\n",
        elementwise_json.join(", ")
    ));
    json.push_str(&format!(
        "  \"link\": {{\"rtt_s\": {:.9}, \"bandwidth_bps\": {:.1}, \"bulk_frame_bytes\": {}}},\n",
        cal.rtt_s, cal.bandwidth_bps, cal.bulk_frame_bytes
    ));
    json.push_str(&format!(
        "  \"planner\": {{\"makespan_assumed_lan_s\": {mk_assumed:.6}, \"makespan_measured_loopback_s\": {mk_measured:.6}}},\n"
    ));
    json.push_str(&format!(
        "  \"cold_restore\": {{\"commits\": {restore_commits}, \"log_bytes\": {restore_log_bytes}, \
         \"open_p50_ns\": {:.0}, \"open_p95_ns\": {:.0}, \
         \"restore_p50_ns\": {:.0}, \"restore_p95_ns\": {:.0}}},\n",
        p50("cold_restore/open_log"),
        p95("cold_restore/open_log"),
        p50("cold_restore/open_decode_restore"),
        p95("cold_restore/open_decode_restore")
    ));
    json.push_str(&format!(
        "  \"int8\": {{\"cache_f32_bytes\": {cache_f32_bytes}, \"cache_q8_bytes\": {cache_q8_bytes}, \
         \"cache_cut\": {cache_cut:.3}, \"act_wire_f32_bytes\": {wire_f32_bytes}, \
         \"act_wire_q8_bytes\": {wire_q8_bytes}, \"act_wire_cut\": {wire_cut:.3}, \
         \"dist_final_loss_f32_wire\": {dist_f32_loss:.6}, \
         \"dist_final_loss_q8_wire\": {dist_q8_loss:.6}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench trajectory");
    println!("\nwrote {out_path}");
}

/// The multi-world benchmark: `tenants` training worlds multiplexed by the
/// coordinator vs the same coordinator fed the same worlds one at a time
/// — so the ratio measures multiplexing and nothing else — plus the
/// analytic bubble accounting for co-scheduling their pipeline slots.
fn multiworld_bench(tenants: usize, out_path: &str) {
    use pac_net::{
        run_multiworld, run_world, DistConfig, SimConfig, SimNet, SimSpawner, TenantJob,
    };
    use pac_parallel::engine::MicroBatch;
    use pac_parallel::{plan_filled, plan_serialized, SimStage, TenantLoad};
    use std::time::Instant;

    // Tenant worlds rotate through small distinct shapes `(stages, lanes)`
    // so the coordinator multiplexes heterogeneous worlds, as phase F of
    // the simsweep does.
    const SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (3, 1)];
    const STEPS: usize = 4;
    const MICROS: usize = 2;
    let cfg_for = |t: usize| {
        let (stages, lanes) = SHAPES[t % SHAPES.len()];
        let mut cfg = DistConfig::loopback(stages, lanes);
        cfg.seed = 900 + t as u64;
        cfg
    };
    // Batches are heavy enough (16 rows x 24 tokens) that per-step compute,
    // not the coordinator's poll granularity, dominates each world's time —
    // that is the regime the overlap exists for.
    let batches_for = |t: usize| -> Vec<Vec<MicroBatch>> {
        let mut rng = seeded(7000 + t as u64);
        (0..STEPS)
            .map(|_| {
                (0..MICROS)
                    .map(|_| {
                        let rows: Vec<Vec<usize>> = (0..16)
                            .map(|_| (0..24).map(|_| rng.gen_range(0..64usize)).collect())
                            .collect();
                        let labels: Vec<usize> =
                            (0..16).map(|_| rng.gen_range(0..2usize)).collect();
                        (rows, labels)
                    })
                    .collect()
            })
            .collect()
    };

    println!(
        "pac-bench --multiworld: {tenants} tenant worlds x {STEPS} steps through one \
         coordinator\n"
    );

    // Serialized baseline: the same coordinator, one job at a time — each
    // tenant's world brought up, trained, and torn down in sequence.
    let t0 = Instant::now();
    let mut solo_losses: Vec<Vec<f32>> = Vec::new();
    for t in 0..tenants {
        let net = SimNet::new(SimConfig::clean(40 + t as u64));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let job = TenantJob::new(t as u64, cfg_for(t), batches_for(t));
        let report = run_world(&spawner, job).expect("solo tenant run");
        solo_losses.push(report.losses);
    }
    let serialized_secs = t0.elapsed().as_secs_f64();

    // One coordinator, every world admitted up front.
    let t1 = Instant::now();
    let net = SimNet::new(SimConfig::clean(41));
    let _coord = net.register(0);
    let spawner = SimSpawner::new(net.clone());
    let jobs: Vec<TenantJob> = (0..tenants)
        .map(|t| TenantJob::new(t as u64, cfg_for(t), batches_for(t)))
        .collect();
    let report = run_multiworld(&spawner, jobs).expect("multiworld run");
    let multiworld_secs = t1.elapsed().as_secs_f64();
    assert!(net.panics().is_empty(), "multiworld world panicked");
    assert_eq!(report.worlds.len(), tenants, "every tenant must retire");

    // The speedup only counts if isolation held: every tenant's trajectory
    // must match its solo run bitwise.
    let bitwise_solo_equal = (0..tenants).all(|t| {
        let world = report
            .worlds
            .iter()
            .find(|w| w.tenant == t as u64)
            .expect("tenant retired");
        world.losses.len() == solo_losses[t].len()
            && world
                .losses
                .iter()
                .zip(solo_losses[t].iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    assert!(
        bitwise_solo_equal,
        "multi-world trajectories diverged from solo runs"
    );

    // Bubble accounting for co-scheduling the tenants' pipeline slots over
    // the shared backbone: the same micro-batch streams planned back to
    // back vs through the cross-tenant filling planner.
    let loads: Vec<TenantLoad> = (0..tenants)
        .map(|t| {
            let f = 0.5 + (t % 5) as f64 * 0.25;
            TenantLoad {
                stages: vec![
                    SimStage {
                        fwd_s: f,
                        bwd_s: 2.0 * f,
                        send_fwd_s: 0.1,
                        send_bwd_s: 0.1,
                        weight_bytes: 0,
                        act_bytes_per_mb: 0,
                        fixed_bytes: 0,
                        allreduce_s: 0.0,
                    };
                    3
                ],
                micros: MICROS,
            }
        })
        .collect();
    let bubble_unbatched = plan_serialized(&loads).combined.bubble_fraction;
    let bubble_filled = plan_filled(&loads).combined.bubble_fraction;

    let serialized_tps = tenants as f64 / serialized_secs.max(1e-9);
    let multiworld_tps = tenants as f64 / multiworld_secs.max(1e-9);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serialized: {serialized_secs:.3} s ({serialized_tps:.2} tenants/sec), \
         multiworld: {multiworld_secs:.3} s ({multiworld_tps:.2} tenants/sec, \
         max {} worlds concurrent, {cpus} CPU(s))",
        report.max_concurrent
    );
    if cpus == 1 {
        println!(
            "note: on 1 CPU total compute is the bound either way; the wall-clock \
             columns can only separate on multicore hosts"
        );
    }
    println!("bitwise solo equality: {bitwise_solo_equal}");
    println!(
        "bubble_fraction: unbatched {bubble_unbatched:.4} -> filled {bubble_filled:.4} \
         ({:.1}% of slot time reclaimed)",
        100.0 * (bubble_unbatched - bubble_filled)
    );

    let mut json = String::from("{\n  \"multiworld\": {\n");
    json.push_str(&format!(
        "    \"tenants\": {tenants}, \"steps_per_tenant\": {STEPS}, \"micros\": {MICROS},\n"
    ));
    json.push_str(&format!(
        "    \"serialized_secs\": {serialized_secs:.6}, \
         \"serialized_tenants_per_sec\": {serialized_tps:.3},\n"
    ));
    json.push_str(&format!(
        "    \"multiworld_secs\": {multiworld_secs:.6}, \
         \"multiworld_tenants_per_sec\": {multiworld_tps:.3},\n"
    ));
    json.push_str(&format!(
        "    \"max_concurrent\": {}, \"steps_total\": {}, \"cpus\": {cpus}, \
         \"bitwise_solo_equal\": {bitwise_solo_equal},\n",
        report.max_concurrent, report.steps_total
    ));
    json.push_str(&format!(
        "    \"bubble_fraction_unbatched\": {bubble_unbatched:.6}, \
         \"bubble_fraction_filled\": {bubble_filled:.6}\n"
    ));
    json.push_str("  }\n}\n");
    std::fs::write(out_path, &json).expect("write multiworld bench");
    println!("\nwrote {out_path}");
}
