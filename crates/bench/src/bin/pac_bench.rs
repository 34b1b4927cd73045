//! pac-bench: the measurements the reference benchmark (`benchmark/`) does
//! not take, recorded to a JSON file so the repo carries their history.
//!
//! 1. **`matmul_gflops`** — the register-tiled microkernel, `nn`/`nt`/`tn`
//!    single-threaded at the three backbone shapes of `pac_solo` and the
//!    per-head attention-score shape.
//! 2. **`elementwise`** — the non-matmul half of a layer: GELU forward and
//!    fused backward, tanh, `softmax_rows` and one Adam step through their
//!    product entry points at `[104,1024]` (the `pac_solo` feed-forward
//!    hidden) and `[128,128]`, reported in ns/element.
//! 3. **`training_step`** — one training step (forward, loss, backward, SGD
//!    step) of each of the paper's four techniques on the micro
//!    encoder-decoder, plus the cached Parallel-Adapters step that skips the
//!    backbone: the wall-clock analogue of Figure 8(a) on this CPU.
//!
//! Every bench warms up, then runs batches of calls until its budget is
//! spent; a record carries the p50 and p95 of the per-call time over those
//! batches.
//!
//! Usage: `pac-bench [--quick] --out PATH`. A missing `--out`, `--out`
//! without a path, or any other argument prints the usage and exits non-zero
//! before anything runs or is written.

use pac_model::ModelConfig;
use pac_nn::{cross_entropy, Activation, Adam, Linear, Module, Optimizer, Sgd};
use pac_peft::{Technique, Tuner};
use pac_tensor::{init, ops, reduce, rng::seeded, scratch, Tensor};
use rand::Rng as _;
use rayon::pool;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One timed bench, as written to the `benches` list of the JSON.
struct Record {
    name: String,
    iters: u64,
    p50_ns: u64,
    p95_ns: u64,
    /// Units (FLOPs, elements or rows) per second at the p50.
    throughput: Option<f64>,
}

/// Times `f` for `budget` after a warm-up that also sizes a batch to at
/// least 20 µs, so the clock's own cost stays out of sub-microsecond calls.
/// `units` is the work of one call, for the throughput column.
fn bench<R>(
    records: &mut Vec<Record>,
    budget: Duration,
    name: String,
    units: Option<u64>,
    mut f: impl FnMut() -> R,
) {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        if t.elapsed() >= Duration::from_micros(20) {
            break;
        }
        batch *= 2;
    }
    let mut per_call_ns = Vec::new();
    let start = Instant::now();
    while per_call_ns.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        per_call_ns.push(t.elapsed().as_nanos() as u64 / batch);
    }
    per_call_ns.sort_unstable();
    let n = per_call_ns.len();
    let (p50_ns, p95_ns) = (per_call_ns[n / 2], per_call_ns[(n * 95 / 100).min(n - 1)]);
    println!(
        "  {name:<44} p50 {:>10.2} us   p95 {:>10.2} us   ({} iters)",
        p50_ns as f64 / 1e3,
        p95_ns as f64 / 1e3,
        n as u64 * batch
    );
    records.push(Record {
        name,
        iters: n as u64 * batch,
        p50_ns,
        p95_ns,
        throughput: units.map(|u| u as f64 * 1e9 / p50_ns.max(1) as f64),
    });
}

/// Every argument must be known and complete, and `--out` is required: a
/// typo or a bare run would otherwise run the suite and overwrite a file.
fn parse_args() -> Result<(bool, String), String> {
    let (mut quick, mut out) = (false, None);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = Some(
                    it.next()
                        .filter(|p| !p.starts_with("--"))
                        .ok_or("--out needs a path")?,
                );
            }
            _ => return Err(format!("unknown argument: {a}")),
        }
    }
    Ok((quick, out.ok_or("--out PATH is required")?))
}

fn main() -> ExitCode {
    let (quick, out_path) = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!(
                "pac-bench: {msg}\n\
                 usage: pac-bench [--quick] --out PATH\n\
                 \n\
                 --quick     40 ms per bench instead of 250\n\
                 --out PATH  where the JSON goes"
            );
            return ExitCode::FAILURE;
        }
    };
    let budget = Duration::from_millis(if quick { 40 } else { 250 });
    let mut records = Vec::new();
    println!(
        "pac-bench: pool width {}, mode {}, budget {:?}/bench\n",
        pool::pool_width(),
        if quick { "quick" } else { "full" },
        budget
    );
    let mut rng = seeded(7);

    // The register-tiled microkernel at the shapes that decide `pac_solo`
    // (QKV/O projection, feed-forward up and down at 104 tokens), its
    // per-head attention scores and the hidden-32 feed-forward of
    // `dist_world` and `multi_world` at 64 and 128 token rows, capped to the
    // calling thread so the figure is the kernel's and not the pool's.
    const MATMUL_SHAPES: [(usize, usize, usize); 8] = [
        (104, 256, 1024),
        (104, 1024, 256),
        (104, 256, 256),
        (13, 64, 13),
        (64, 32, 128),
        (64, 128, 32),
        (128, 32, 128),
        (128, 128, 32),
    ];
    println!("group matmul_gflops:");
    pool::set_max_concurrency(1);
    let mut out = Tensor::zeros([0]);
    for (m, k, n) in MATMUL_SHAPES {
        let a = init::randn(&mut rng, [m, k], 1.0);
        let b = init::randn(&mut rng, [k, n], 1.0);
        let (at, bt) = (a.transpose_2d(), b.transpose_2d());
        let flops = Some((2 * m * k * n) as u64);
        let name = |kind: &str| format!("matmul_gflops/{kind}_{m}x{k}x{n}");
        bench(&mut records, budget, name("nn"), flops, || {
            ops::matmul_into(black_box(&a), black_box(&b), &mut out).expect("nn")
        });
        bench(&mut records, budget, name("nt"), flops, || {
            ops::matmul_nt_into(black_box(&a), black_box(&bt), &mut out).expect("nt")
        });
        bench(&mut records, budget, name("tn"), flops, || {
            ops::matmul_tn_into(black_box(&at), black_box(&b), &mut out).expect("tn")
        });
    }
    pool::set_max_concurrency(usize::MAX);

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
    println!("group elementwise:");
    for shape in ELEMENTWISE_SHAPES {
        let tag = format!("{}x{}", shape[0], shape[1]);
        let x = init::randn(&mut rng, shape, 1.5);
        let dy = init::randn(&mut rng, shape, 1.0);
        let elems = Some((shape[0] * shape[1]) as u64);
        let name = |kernel: &str| format!("elementwise/{kernel}_{tag}");
        bench(&mut records, budget, name("gelu_fwd"), elems, || {
            scratch::put(Activation::Gelu.forward(black_box(&x)))
        });
        bench(&mut records, budget, name("gelu_bwd_fused"), elems, || {
            scratch::put(Activation::Gelu.backward(black_box(&x), black_box(&dy)))
        });
        bench(&mut records, budget, name("tanh_fwd"), elems, || {
            scratch::put(Activation::Tanh.forward(black_box(&x)))
        });
        bench(&mut records, budget, name("softmax_rows"), elems, || {
            reduce::softmax_rows(black_box(&x))
        });
        let mut layer = Linear::from_weights("bench", x.clone(), None);
        layer.w.grad = dy.clone();
        let mut opt = Adam::new(1e-3);
        bench(&mut records, budget, name("adam_step"), elems, || {
            opt.step(&mut layer)
        });
    }

    // One training step per technique on a micro encoder-decoder, 8 rows of
    // 12 tokens. The cached step reads the backbone outputs of one full
    // forward: the backbone is frozen, so they stay valid across steps.
    println!("group training_step:");
    let cfg = ModelConfig::micro(2, 1, 32, 4);
    let mut rng = seeded(9);
    let tokens: Vec<Vec<usize>> = (0..8)
        .map(|_| (0..12).map(|_| rng.gen_range(0..64)).collect())
        .collect();
    let targets: Vec<usize> = (0..8).map(|_| rng.gen_range(0..2)).collect();
    let rows = Some(tokens.len() as u64);
    for technique in Technique::all_paper() {
        let mut tuner = Tuner::new(technique, &cfg, 2, &mut seeded(10));
        let mut opt = Sgd::new(0.05);
        let name = format!("training_step/{}", technique.name());
        bench(&mut records, budget, name, rows, || {
            tuner.zero_grads();
            let (logits, ctx) = tuner.forward(&tokens).expect("forward");
            let (loss, dl) = cross_entropy(&logits, &targets).expect("loss");
            tuner.backward(&ctx, &dl).expect("backward");
            opt.step(&mut tuner);
            loss
        });
    }
    let mut pa = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(10));
    let (_, ctx) = pa.forward(&tokens).expect("forward");
    let acts = pa.cacheable_acts(&ctx).expect("cacheable").to_vec();
    let mut opt = Sgd::new(0.05);
    let name = "training_step/Parallel Adapters + cache".to_string();
    bench(&mut records, budget, name, rows, || {
        pa.zero_grads();
        let (logits, sctx) = pa.forward_cached(&acts).expect("cached forward");
        let (loss, dl) = cross_entropy(&logits, &targets).expect("loss");
        pa.backward(&sctx, &dl).expect("backward");
        opt.step(&mut pa);
        loss
    });

    // ---- Summary + JSON ----
    let p50 = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.p50_ns as f64)
            .expect("bench ran")
    };
    let (pstats, sstats) = (pool::stats(), scratch::stats());
    println!(
        "\npool: {} calls, {} tasks, busy {:.1} ms | scratch: {} reuses, {} allocs",
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

    let benches: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"throughput\": {}}}",
                r.name,
                r.iters,
                r.p50_ns,
                r.p95_ns,
                r.throughput
                    .map_or_else(|| "null".to_string(), |t| format!("{t:.1}"))
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benches\": [\n{}\n  ],\n  \"matmul_gflops_single_thread\": {{{}}},\n  \
         \"elementwise_ns_per_element\": {{{}}}\n}}\n",
        benches.join(",\n"),
        matmul_json.join(", "),
        elementwise_json.join(", ")
    );
    std::fs::write(&out_path, json).expect("write bench trajectory");
    println!("\nwrote {out_path}");
    ExitCode::SUCCESS
}
