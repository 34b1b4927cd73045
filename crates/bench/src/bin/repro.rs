//! `repro` — regenerate every table and figure of the PAC paper.
//!
//! ```text
//! cargo run --release -p pac-bench --bin repro -- all
//! cargo run --release -p pac-bench --bin repro -- table2
//! ```
//!
//! Subcommands: `table1 fig3 table2 table3 fig8 fig9 fig10 fig11 hetero all`
//! (plus `table3-quick` for a faster quality grid).
//!
//! Pass `--telemetry` (with any subcommand, or alone) to enable live
//! engine metrics and print a report after the run: per-stage pipeline
//! utilization, activation-cache hit rate, and AllReduce communication
//! volume. `--telemetry` alone runs a micro workload that exercises the
//! real pipeline engine and a full PAC session.
//!
//! Pass `--distributed=N` (N = 2 or 4) to fork N worker **processes** on
//! loopback TCP and train a micro model over real sockets: 2 → a 2-stage
//! pipeline, 4 → 2 stages × 2 data-parallel lanes with a ring AllReduce.
//! The run is checked bitwise against the in-process engine on the same
//! seed, and composes with `--telemetry` (real `net.*` counters next to the
//! modeled comms volume). Workers re-exec this binary with the hidden
//! `--net-worker ADDR SLOT` arguments.
//!
//! Pass `--faults[=SPEC]` to run that world — 2 × 2 unless
//! `--distributed=N` names another — under deterministic fault injection
//! and print the coordinator's recovery timeline. `SPEC` uses the
//! `FaultPlan` schema (`kind@key=value,…;…`), e.g.
//! `--faults='fail-stop@step=4,device=1;straggler@step=2,lane=0,delay-ms=20'`;
//! without a spec one worker process is killed mid-run and the coordinator
//! resumes from a checkpoint: the 2 × 2 world drops the dead lane, the
//! one-lane 2 × 1 world respawns it. A malformed spec prints the schema
//! and exits 2.
//!
//! Pass `--serve` to run the multi-tenant serving transcript: a loopback
//! TCP client streams tenant jobs at the rendezvous listener and the
//! narrated scheduler log shows every admission, route decision,
//! warm-hit/cold-miss load, eviction, publish, and the one planted fault
//! being attributed to its tenant — followed by the fairness ledger.
//!
//! Pass `--durable` to run the kill-mid-checkpoint drill: the micro
//! distributed job trains over a real on-disk `pac-store` log, a planted
//! crash fault kills the checkpoint writer mid-append, and a cold restart
//! over the same log must recover the last committed snapshot and finish
//! bitwise identical to the in-process engine.

use pac_bench::experiments as exp;

fn main() {
    // Hidden re-exec entry point: `repro --net-worker ADDR SLOT` runs a
    // distributed training worker and never returns to the CLI below.
    {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        if raw.first().map(String::as_str) == Some("--net-worker") {
            net_worker_main(&raw[1..]);
        }
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry = {
        let before = args.len();
        args.retain(|a| a != "--telemetry");
        args.len() != before
    };
    if telemetry {
        pac_telemetry::set_enabled(true);
    }
    let faults: Option<String> = {
        let mut spec = None;
        args.retain(|a| {
            if a == "--faults" {
                spec = Some(String::new());
                false
            } else if let Some(s) = a.strip_prefix("--faults=") {
                spec = Some(s.to_string());
                false
            } else {
                true
            }
        });
        spec
    };
    let distributed: Option<usize> = {
        let mut n = None;
        args.retain(|a| {
            if let Some(s) = a.strip_prefix("--distributed=") {
                n = Some(s.parse().unwrap_or(0));
                false
            } else if a == "--distributed" {
                n = Some(4);
                false
            } else {
                true
            }
        });
        n
    };
    let durable = {
        let before = args.len();
        args.retain(|a| a != "--durable");
        args.len() != before
    };
    let serve = {
        let before = args.len();
        args.retain(|a| a != "--serve");
        args.len() != before
    };
    if let Some(n) = distributed {
        if n != 2 && n != 4 {
            eprintln!("--distributed=N supports N=2 (2 stages) or N=4 (2 stages x 2 lanes)");
            std::process::exit(2);
        }
        distributed_demo(n, faults.as_deref());
        if telemetry {
            telemetry_report();
        }
        return;
    }
    if serve {
        serve_demo();
        if telemetry {
            telemetry_report();
        }
        return;
    }
    if durable {
        durable_demo();
        if telemetry {
            telemetry_report();
        }
        return;
    }
    if let Some(spec) = faults {
        // Faults are handled on one path, the coordinator's: run its world.
        distributed_demo(4, Some(&spec));
        if telemetry {
            telemetry_report();
        }
        return;
    }
    let which = match args.first().map(String::as_str) {
        Some(w) => w,
        // Bare `--telemetry`: a small workload that touches every
        // instrumented subsystem beats re-running the full suite.
        None if telemetry => "telemetry-demo",
        None => "all",
    };
    match which {
        "table1" => table1(),
        "fig3" => fig3(),
        "table2" => table2(),
        "table3" => table3(false),
        "table3-quick" => table3(true),
        "fig6" => fig6(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "hetero" => hetero(),
        "telemetry-demo" => telemetry_demo(),
        "all" => {
            table1();
            fig3();
            table2();
            fig6();
            fig8();
            fig9();
            fig10();
            fig11();
            hetero();
            table3(false);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "usage: repro [--telemetry] [--faults[=SPEC]] [--distributed=N] [--durable] [--serve] [table1|fig3|table2|table3|table3-quick|fig6|fig8|fig9|fig10|fig11|hetero|telemetry-demo|all]"
            );
            std::process::exit(2);
        }
    }
    if telemetry {
        telemetry_report();
    }
}

/// Worker half of `--distributed`: connect back to the coordinator at
/// `ADDR` as worker `SLOT` and train until told to shut down. Exits the
/// process; never returns.
fn net_worker_main(rest: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!("usage: repro --net-worker ADDR SLOT");
        std::process::exit(2);
    };
    let (Some(addr), Some(slot)) = (rest.first(), rest.get(1)) else {
        usage();
    };
    let Ok(addr) = addr.parse::<std::net::SocketAddr>() else {
        usage();
    };
    let Ok(slot) = slot.parse::<u32>() else {
        usage();
    };
    match pac_net::run_worker(addr, slot, pac_net::RunMode::Process) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("net-worker {slot}: {e}");
            std::process::exit(1);
        }
    }
}

/// The distributed demos' data: 6 mini-batches of 2 micro-batches of 4
/// rows × 6 tokens, binary labels.
fn demo_batches(seed: u64) -> Vec<Vec<pac_parallel::engine::MicroBatch>> {
    use rand::Rng as _;
    let mut rng = pac_tensor::rng::seeded(seed ^ 0xda7a_5eed);
    let mut rows =
        |n: usize, hi: usize| -> Vec<usize> { (0..n).map(|_| rng.gen_range(0..hi)).collect() };
    (0..6)
        .map(|_| {
            (0..2)
                .map(|_| ((0..4).map(|_| rows(6, 64)).collect(), rows(4, 2)))
                .collect()
        })
        .collect()
}

/// Coordinator half of `--distributed=N`: fork N worker processes on
/// loopback, train a micro model over real sockets, and check the result
/// bitwise against the in-process hybrid engine on the same seed.
fn distributed_demo(n: usize, faults_spec: Option<&str>) {
    use pac_net::{run_world, DistConfig, RankLoss, Reference, Spawner, TenantJob};
    use pac_parallel::faults::render_events;
    use pac_parallel::schedule::SimResult;
    use pac_parallel::FaultPlan;

    let (stages, lanes) = (2usize, n / 2);
    header(&format!(
        "Distributed loopback — {n} worker processes ({stages} stages x {lanes} lane(s)) over real TCP"
    ));

    let plan = match faults_spec {
        None => FaultPlan::none(),
        Some("") => {
            // Demo fault: kill one worker process mid-run.
            FaultPlan::parse("fail-stop@step=4,device=1").expect("built-in spec parses")
        }
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("bad --faults spec: {e}");
                eprintln!("schema: kind@key=value,...;...  kinds: fail-stop(step,device) straggler(step,lane,delay-ms) join(step) crash(step,at-byte)");
                std::process::exit(2);
            }
        },
    };

    let cfg = DistConfig::loopback(stages, lanes);
    let batches = demo_batches(cfg.seed);

    let exe = std::env::current_exe().expect("own executable path");
    let spawner = Spawner::Process {
        exe,
        args: vec!["--net-worker".into()],
    };
    println!(
        "spawning {n} x `repro --net-worker <coordinator> <slot>` on 127.0.0.1, plan: {plan}\n"
    );
    let job = TenantJob {
        faults: plan.clone(),
        // A one-lane world has no lane to spare: it respawns in place.
        on_rank_loss: if lanes > 1 {
            RankLoss::Shrink
        } else {
            RankLoss::Respawn
        },
        ..TenantJob::new(0, cfg.clone(), batches.clone())
    };
    let report = match run_world(&spawner, job) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("distributed run failed: {e}");
            std::process::exit(1);
        }
    };

    println!("per-step loss (lane-averaged):");
    for (t, l) in report.losses.iter().enumerate() {
        println!("  step {t}: {l:.6}");
    }

    // Measured Gantt of the canonical lane's last step, same renderer the
    // simulator uses — digits are forwards, letters backwards.
    let sim = SimResult::from_events(report.last_events.clone(), report.stages);
    println!(
        "\nmeasured last-step timeline ({} stage(s), makespan {:.2} ms):",
        report.stages,
        sim.makespan_s * 1e3
    );
    println!("{}", sim.ascii_gantt(72));

    if !report.recovery.timeline.is_empty() {
        println!("recovery timeline:");
        println!("{}", render_events(&report.recovery.timeline));
        println!(
            "summary: {} fault(s), {} replan(s), {} checkpoint(s) ({} B), {} lane(s) finished",
            report.recovery.faults_injected,
            report.recovery.replans,
            report.recovery.checkpoints,
            report.recovery.checkpoint_bytes,
            report.final_lanes
        );
    }

    // Bitwise cross-check vs the in-process engine: only meaningful on a
    // fault-free run (a killed lane changes the update sequence).
    if plan.is_empty() {
        let reference = Reference::train(&cfg, &batches).expect("in-process reference");
        match reference.compare(&report.losses, &report.final_params) {
            Ok(()) => println!(
                "\nbitwise check vs in-process engine: losses IDENTICAL, final params IDENTICAL"
            ),
            Err(e) => {
                println!("\nbitwise check vs in-process engine: DIVERGED: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `--serve`: the multi-tenant adapter platform, narrated. A loopback
/// TCP client streams every tenant job at the rendezvous listener; the
/// scheduler transcript shows admission, routing, warm/cold loads,
/// evictions, publishes, and one planted fault being attributed without
/// touching any other tenant.
fn serve_demo() {
    use pac_serve::DemoConfig;

    println!("=== pac-serve: multi-tenant adapter platform (loopback transcript) ===\n");
    let mut cfg = DemoConfig::new(10, 2);
    cfg.fault_tenants = vec![5];
    cfg.cache_slots_per_rank = 5;
    cfg.trajectory_window = 5;
    println!(
        "{} tenants x {} jobs over {} ranks; every {}th tenant parks between jobs \
         (returns through the backlog -> cold miss); {} cache slots per rank; \
         tenant 5's second job panics mid-burst\n",
        cfg.tenants, cfg.jobs_per_tenant, cfg.ranks, cfg.returning_every, cfg.cache_slots_per_rank
    );
    // The planted fault panics inside a rank chunk on the pool (the scheduler
    // catches and attributes it); silence the default hook so the
    // transcript isn't interrupted by a backtrace.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = pac_serve::run_loopback_demo(&cfg);
    std::panic::set_hook(prev_hook);
    let report = report.expect("loopback serve demo");
    let serve = &report.serve;

    let mut tick = u64::MAX;
    for ev in &serve.events {
        if ev.tick != tick {
            tick = ev.tick;
            println!("--- tick {tick} ---");
        }
        println!("  [{:<7}] t{:<2} {}", ev.kind, ev.tenant, ev.detail);
    }

    let (lo, hi) = serve.serviced_spread();
    let max_wait = serve.fairness.iter().map(|&(_, _, w)| w).max().unwrap_or(0);
    println!("\nsummary:");
    println!(
        "  jobs: {} completed, {} faulted over {} ticks ({} JobDone replies on the wire)",
        serve.jobs_completed,
        serve.jobs_faulted,
        serve.ticks,
        report.acks.len()
    );
    println!(
        "  loads: {} warm ({} ns avg) / {} cold ({} ns avg), {} fresh starts, {} evictions",
        serve.warm_hits,
        serve.warm_ns_avg,
        serve.cold_misses,
        serve.cold_ns_avg,
        serve.fresh_starts,
        serve.evictions
    );
    println!(
        "  resident adapters peaked at {} B under a {} B budget (one adapter = {} B)",
        serve.resident_peak_bytes, serve.budget_bytes, serve.adapter_bytes
    );
    println!(
        "  backbone shared by CoW across ranks: {} ({} B x {} extra ranks saved)",
        serve.backbone_shared,
        serve.backbone_bytes,
        cfg.ranks.saturating_sub(1)
    );
    println!("  fairness: serviced steps {lo}..{hi} per tenant, max wait {max_wait} ticks");
    let faulted: Vec<u64> = serve
        .job_outcomes
        .iter()
        .filter(|o| o.faulted)
        .map(|o| o.tenant)
        .collect();
    println!(
        "  fault attribution: {:?} faulted; every other tenant's published trajectory is untouched",
        faulted
    );
    assert_eq!(
        report.acks.len(),
        cfg.tenants as usize * cfg.jobs_per_tenant
    );
    assert!(serve.backbone_shared, "CoW backbone must stay shared");
}

/// `--durable`: the kill-mid-checkpoint drill. Trains the micro
/// distributed job over a real on-disk [`pac_store::DiskStore`] log with a
/// planted `crash@step,at-byte` fault that kills the checkpoint writer
/// mid-append; prints the typed store error the coordinator dies with,
/// the torn-tail recovery report from reopening the log, and the resumed
/// run's recovery timeline — then checks the cold-restarted trajectory
/// bitwise against the in-process engine.
fn durable_demo() {
    use pac_net::{
        run_world, DistConfig, DistError, Reference, SimConfig, SimNet, SimSpawner, TenantJob,
    };
    use pac_parallel::faults::render_events;
    use pac_parallel::{Fault, FaultPlan};
    use pac_store::{DiskStore, StoreError};

    header("Durable checkpoints — kill the writer mid-append, cold-restart from the log");

    let cfg = DistConfig::loopback(2, 2);
    let batches = demo_batches(cfg.seed);

    let dir = std::env::temp_dir().join(format!("pac-repro-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The 0-based step clock with `checkpoint_every = 2` commits at steps
    // 1, 3, 5; tear the step-3 commit 17 bytes in — inside the first blob
    // record's frame.
    let plan = FaultPlan {
        faults: vec![Fault::Crash {
            step: 3,
            at_byte: 17,
        }],
    };
    println!(
        "log: {}\nplan: {plan}\n\n-- run 1: the checkpoint writer is killed mid-append --",
        dir.display()
    );

    // The job owns its store and drops it with the run.
    let durable_run = |sim_seed: u64, faults: &FaultPlan, store: DiskStore| {
        let net = SimNet::new(SimConfig::clean(sim_seed));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let job = TenantJob {
            faults: faults.clone(),
            store: Some(Box::new(store)),
            ..TenantJob::new(0, cfg.clone(), batches.clone())
        };
        run_world(&spawner, job)
    };

    {
        let (store, _) = DiskStore::open(&dir).expect("fresh store");
        match durable_run(71, &plan, store) {
            Err(DistError::Store(e @ StoreError::Injected { .. })) => {
                println!("coordinator died with the typed store error:\n  {e}");
            }
            other => {
                eprintln!("expected the injected writer crash, got {other:?}");
                std::process::exit(1);
            }
        }
    }

    println!("\n-- run 2: cold restart over the same log --");
    let (store, report) = DiskStore::open(&dir).expect("recovery open");
    println!(
        "recovery: {} segment(s), {} committed snapshot(s), {} B kept, {} torn-tail B truncated",
        report.segments, report.commits, report.bytes_kept, report.truncated_bytes
    );
    let resumed = match durable_run(72, &FaultPlan::none(), store) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cold restart failed: {e}");
            std::process::exit(1);
        }
    };
    println!("\nrecovery timeline:");
    println!("{}", render_events(&resumed.recovery.timeline));

    // Bitwise cross-check vs the in-process engine on the same seed: the
    // restored prefix comes from commit metadata, the replayed suffix from
    // the deterministic SGD worker path.
    let reference = Reference::train(&cfg, &batches).expect("in-process reference");
    match reference.compare(&resumed.losses, &resumed.final_params) {
        Ok(()) => {
            println!(
                "bitwise check vs in-process engine: losses IDENTICAL, final params IDENTICAL"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        Err(e) => {
            println!("bitwise check vs in-process engine: DIVERGED: {e}");
            eprintln!("log kept at {}", dir.display());
            std::process::exit(1);
        }
    }
}

/// Micro workload exercising every instrumented subsystem: the real 1F1B
/// pipeline engine, and a full PAC session (cache fill + cached epochs +
/// data-parallel AllReduce).
fn telemetry_demo() {
    use pac_core::{PacConfig, PacSession};
    use pac_data::TaskKind;
    use pac_model::{EncoderModel, ModelConfig};
    use pac_parallel::engine::run_pipeline_mini_batch;
    use pac_parallel::Schedule;
    use pac_tensor::rng::seeded;
    use rand::Rng as _;

    header("Telemetry demo — real 1F1B pipeline + PAC session at micro scale");

    // Real threaded pipeline: 4 stages × 4 micro-batches.
    let cfg = ModelConfig::micro(4, 0, 16, 2);
    let model = EncoderModel::new(&cfg, 2, &mut seeded(600));
    let stages = model.partition(&[1; 4]).unwrap();
    let mut rng = seeded(601);
    let micro_batches: Vec<(Vec<Vec<usize>>, Vec<usize>)> = (0..4)
        .map(|_| {
            let toks: Vec<Vec<usize>> = (0..2)
                .map(|_| (0..6).map(|_| rng.gen_range(0..64)).collect())
                .collect();
            let targets: Vec<usize> = (0..2).map(|_| rng.gen_range(0..2)).collect();
            (toks, targets)
        })
        .collect();
    let out = run_pipeline_mini_batch(stages, micro_batches, Schedule::OneFOneB)
        .expect("fault-free pipeline run");
    println!(
        "pipeline: loss {:.4}, wall {:.2} ms, peak act bytes {:?}",
        out.loss,
        out.wall_s * 1e3,
        out.peak_act_bytes
    );

    // PAC session: epoch 1 fills the cache, epochs 2–3 train from it with
    // AllReduce-synchronized replicas.
    let session = PacSession::new(PacConfig {
        devices: 2,
        epochs: 3,
        batch_size: 8,
        ..Default::default()
    });
    let report = session
        .run(&ModelConfig::micro(2, 1, 16, 2), TaskKind::Sst2, 32, 8)
        .expect("micro session");
    println!(
        "session: metric {:.1}, cache {} entries / {} hits / {} misses",
        report.metric,
        report.cache_stats.entries,
        report.cache_stats.hits,
        report.cache_stats.misses
    );
}

/// Prints the derived telemetry report plus the raw metric snapshot.
fn telemetry_report() {
    header("Telemetry report");
    let get = |k: &str| pac_telemetry::get(k).unwrap_or(0);

    // Per-stage pipeline utilization (busy / wall, aggregated over runs).
    let wall_ns = get("pipeline.wall_ns");
    if wall_ns > 0 {
        println!(
            "pipeline: {} run(s), wall {:.2} ms",
            get("pipeline.runs"),
            wall_ns as f64 / 1e6
        );
        let mut s = 0usize;
        while let Some(busy) = pac_telemetry::get(&format!("pipeline.stage{s}.busy_ns")) {
            println!(
                "  stage {s}: utilization {:>5.1}%  ({} ops, busy {:.2} ms)",
                100.0 * busy as f64 / wall_ns as f64,
                get(&format!("pipeline.stage{s}.ops")),
                busy as f64 / 1e6
            );
            s += 1;
        }
    }

    // Activation-cache effectiveness.
    let (hits, misses) = (get("cache.hits"), get("cache.misses"));
    if hits + misses > 0 {
        println!(
            "cache: hit rate {:>5.1}%  ({hits} hits / {misses} misses, {} fills, {:.1} KiB resident)",
            100.0 * hits as f64 / (hits + misses) as f64,
            get("cache.fills"),
            get("cache.bytes") as f64 / 1024.0
        );
    }

    // Worker-pool and scratch-allocator effectiveness. These counters live
    // in the runtime (not the metric registry), so bridge them into the
    // registry first — the raw snapshot below then includes them too.
    let pool = rayon::pool::stats();
    pac_telemetry::gauge_set("pool.parallel_calls", pool.parallel_calls);
    pac_telemetry::gauge_set("pool.tasks", pool.tasks);
    pac_telemetry::gauge_set("pool.busy_ns", pool.busy_ns);
    let scratch = pac_tensor::scratch::stats();
    pac_telemetry::gauge_set("scratch.reuses", scratch.reuses);
    pac_telemetry::gauge_set("scratch.allocs", scratch.allocs);
    if pool.parallel_calls > 0 {
        println!(
            "pool: width {}, {} parallel call(s), {} task(s), busy {:.2} ms",
            rayon::pool::pool_width(),
            pool.parallel_calls,
            pool.tasks,
            pool.busy_ns as f64 / 1e6
        );
    }
    if scratch.reuses + scratch.allocs > 0 {
        println!(
            "scratch: reuse rate {:>5.1}%  ({} reuse(s) / {} alloc(s))",
            100.0 * scratch.reuses as f64 / (scratch.reuses + scratch.allocs) as f64,
            scratch.reuses,
            scratch.allocs
        );
    }

    // Communication volume: modeled collective payload, and — when a
    // `--distributed` run put real sockets under it — measured wire
    // traffic next to it.
    let ar_bytes = get("allreduce.bytes");
    if ar_bytes > 0 {
        println!(
            "allreduce: {:.1} KiB over {} reduction(s), {:.2} ms",
            ar_bytes as f64 / 1024.0,
            get("allreduce.reductions"),
            get("allreduce.ns") as f64 / 1e6
        );
    }
    let (sent, recv) = (get("net.bytes_sent"), get("net.bytes_recv"));
    if sent + recv > 0 {
        println!(
            "net: sent {:.1} KiB / recv {:.1} KiB over {} frame(s), allreduce wall {:.2} ms",
            sent as f64 / 1024.0,
            recv as f64 / 1024.0,
            get("net.msgs"),
            get("net.allreduce.ns") as f64 / 1e6
        );
        // Fan-out of the rank processes (their pools are not this
        // process's, which the `pool:` line above covers): a product under
        // the pooled-dispatch line runs on the rank thread itself.
        let steps = get("multiworld.steps").max(1) as f64;
        println!(
            "net pool: {:.1} parallel call(s), {:.1} chunk task(s) per step on the ranks ({steps} step(s))",
            get("net.pool.parallel_calls") as f64 / steps,
            get("net.pool.tasks") as f64 / steps
        );
    }

    // Elastic membership: how many ranks left the pool mid-run, and how
    // many ranks missed a step deadline (owed a verdict or snapshot when
    // it ran out) rather than dying visibly.
    let (leaves, stale) = (get("membership.leaves"), get("membership.stale"));
    if leaves + stale > 0 {
        println!("membership: {leaves} leave(s), {stale} missed step deadline(s)");
    }

    let rows = pac_telemetry::snapshot();
    if rows.is_empty() {
        println!("(no metrics recorded — the selected experiment is analytic-only)");
    } else {
        println!("\nraw metrics:\n{}", pac_telemetry::render(&rows));
    }
}

fn header(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

fn table1() {
    header("Table 1 — memory footprint breakdown (T5-Large, bs 16, seq 128)");
    println!(
        "{:<24} {:>16} {:>9} {:>12} {:>9} {:>9}",
        "Technique", "Trainable", "Weights", "Activations", "Grads", "Total"
    );
    for r in exp::table1() {
        let trainable = match (r.trainable_m, r.trainable_pct) {
            (Some(m), Some(p)) => format!("{m:.0}M ({p:.2}%)"),
            _ => "/".into(),
        };
        println!(
            "{:<24} {:>16} {:>8.2}G {:>11.2}G {:>8.2}G {:>8.2}G",
            r.technique, trainable, r.weights_gb, r.activations_gb, r.gradients_gb, r.total_gb
        );
    }
    println!("\npaper (GB): Full 2.75/5.33/2.75/10.83 · Adapters 2.80/4.04/0.05/6.89");
    println!("            LoRA 2.78/4.31/0.04/7.13 · Inference 2.75/-/-/2.75");
}

fn fig3() {
    header("Figure 3 — forward vs backward FLOPs (T5-Large, bs 16, seq 128)");
    println!(
        "{:<20} {:>10} {:>10} {:>12}",
        "Technique", "fwd TFLOP", "bwd TFLOP", "fwd share"
    );
    for r in exp::fig3() {
        println!(
            "{:<20} {:>10.2} {:>10.2} {:>11.1}%",
            r.technique,
            r.fwd_tflops,
            r.bwd_tflops,
            100.0 * r.fwd_fraction
        );
    }
    println!("\npaper: forward ≈ 54% of a PEFT step, ≈ 1/3 of a full fine-tuning step");
}

fn table2() {
    header("Table 2 — training durations in hours (8 Jetson Nanos; OOM = does not fit)");
    let rows = exp::table2();
    println!(
        "{:<20} {:<12} | {:^27} | {:^27} | {:^27}",
        "Technique", "System", "T5-Base", "BART-Large", "T5-Large"
    );
    println!(
        "{:<20} {:<12} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>6}",
        "", "", "MRPC", "STS-B", "SST-2", "QNLI", "MRPC", "STS-B", "SST-2", "QNLI", "MRPC",
        "STS-B", "SST-2", "QNLI"
    );
    for r in &rows {
        let mut line = format!("{:<20} {:<12}", r.technique, r.system);
        for model_cells in &r.cells {
            line.push_str(" |");
            for c in model_cells {
                line.push_str(&format!(" {:>6}", c.display()));
            }
        }
        println!("{line}");
    }
    println!("\npaper PAC row: 0.14/0.22/1.34/2.12 | 0.29/0.45/2.69/4.25 | 0.69/1.09/8.88/14.02");
}

fn fig6() {
    header("Figure 6(b) — hybrid-parallelism pipeline timeline (2 stages × 2 devices)");
    use pac_cluster::{Cluster, CostModel};
    use pac_model::ModelConfig;
    use pac_parallel::{simulate_plan, ParallelPlan, Schedule, StageAssignment};
    use pac_peft::Technique;

    // The paper's Figure 6 instance: the LLM split into 2 stages, each
    // replicated on a 2-device group, 6 micro-batches, 1F1B + AllReduce.
    let cluster = Cluster::nanos(4);
    let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
    let layers = cost.layer_costs().len();
    let plan = ParallelPlan {
        stages: vec![
            StageAssignment {
                layer_start: 0,
                layer_end: layers / 2,
                devices: vec![0, 1],
            },
            StageAssignment {
                layer_start: layers / 2,
                layer_end: layers,
                devices: vec![2, 3],
            },
        ],
    };
    for (name, schedule) in [
        ("1F1B (PAC)", Schedule::OneFOneB),
        ("GPipe flush", Schedule::GPipe),
        (
            "GPipe, wave 2 (memory-capped Eco-FL)",
            Schedule::GPipeWave { wave: 2 },
        ),
    ] {
        let sim = simulate_plan(&cluster, &cost, &plan, 12, 6, schedule);
        println!(
            "\n{name}: makespan {:.2} s, peak in-flight {:?}",
            sim.makespan_s, sim.peak_inflight
        );
        println!("{}", sim.ascii_gantt(72));
    }
    println!("\ndigits = forward of micro-batch n; letters = backward (a = mb 0); . = idle");
}

fn table3(quick: bool) {
    header(if quick {
        "Table 3 (quick) — quality parity, micro scale, 2 tasks"
    } else {
        "Table 3 — quality parity across techniques (micro-scale real training)"
    });
    let out = exp::table3(quick);
    let tasks: Vec<String> = {
        let mut t: Vec<String> = out.cells.iter().map(|c| c.task.clone()).collect();
        t.dedup();
        t
    };
    print!("{:<22}", "Technique");
    for t in &tasks {
        print!(" {t:>8}");
    }
    println!();
    for technique in ["Full Model", "Adapters", "LoRA", "Parallel Adapters"] {
        print!("{technique:<22}");
        for t in &tasks {
            let m = out
                .cells
                .iter()
                .find(|c| c.technique == technique && &c.task == t)
                .map(|c| c.metric)
                .unwrap_or(f64::NAN);
            print!(" {m:>8.1}");
        }
        println!();
    }
    print!("{:<22}", "Diff from mean");
    for t in &tasks {
        let d = out
            .pa_diff_from_mean
            .iter()
            .find(|(task, _)| task == t)
            .map(|(_, d)| *d)
            .unwrap_or(f64::NAN);
        print!(" {d:>+8.2}");
    }
    println!("\n\npaper: PA within ±0.37 of the baseline mean on every task");
    println!("(micro models have wider variance; the parity claim is the target)");
}

fn fig8() {
    header("Figure 8 — per-sample time & peak per-device memory (T5-Base, 8 Nanos)");
    println!("{:<22} {:>14} {:>12}", "Technique", "s / sample", "peak GB");
    for r in exp::fig8() {
        println!(
            "{:<22} {:>14.3} {:>12.2}",
            r.label, r.per_sample_s, r.peak_gb
        );
    }
    println!("\npaper: P.A. −31.9% time vs Full; P.A.+cache −96.4% time, −74.6% memory");
}

fn fig9() {
    header("Figure 9 — throughput (samples/s) and per-device weights (GB) vs devices");
    let rows = exp::fig9();
    for model in ["T5-Base", "BART-Large", "T5-Large"] {
        println!("\n## {model}");
        println!(
            "{:>8} | {:>22} | {:>22} | {:>22}",
            "devices", "PAC", "Eco-FL", "EDDL"
        );
        for n in 2..=8usize {
            let cell = |sys: &str| {
                rows.iter()
                    .find(|r| r.model == model && r.system == sys && r.devices == n)
                    .map(|r| match (r.throughput, r.weight_gb) {
                        (Some(t), Some(w)) => format!("{t:>8.2}/s {w:>6.2}GB"),
                        _ => "OOM".to_string(),
                    })
                    .unwrap_or_default()
            };
            println!(
                "{:>8} | {:>22} | {:>22} | {:>22}",
                n,
                cell("PAC"),
                cell("Eco-FL"),
                cell("EDDL")
            );
        }
    }
    println!("\npaper: PAC ≥ Eco-FL (up to +39.5%); EDDL OOMs on BART-Large & T5-Large");
}

fn fig10() {
    header("Figure 10 — device groupings chosen by the PAC planner");
    println!(
        "{:<12} {:>8} {:<30} {:>7} {:>7}",
        "Model", "devices", "grouping", "stages", "micro"
    );
    for r in exp::fig10() {
        println!(
            "{:<12} {:>8} {:<30} {:>7} {:>7}",
            r.model, r.devices, r.grouping, r.stages, r.micro_batches
        );
    }
    println!("\npaper example: BART-Large on 8 devices → 2 stages of 4 Nanos each");
}

fn fig11() {
    header("Figure 11 — fine-tuning time with/without activation cache (MRPC, 8 Nanos)");
    println!(
        "{:<12} {:>7} {:>14} {:>14} {:>11}",
        "Model", "epochs", "no cache (h)", "cache (h)", "saved"
    );
    for r in exp::fig11() {
        println!(
            "{:<12} {:>7} {:>14.2} {:>14.2} {:>10.1}%",
            r.model,
            r.epochs,
            r.no_cache_h,
            r.with_cache_h,
            100.0 * r.reduction
        );
    }
    println!("\npaper: up to 79.5% per-epoch reduction; ~71% cumulative at 10 epochs");
}

fn hetero() {
    header("Extension — heterogeneous, throttled and failed devices (T5-Base, PA, mini-batch 8)");
    println!(
        "{:<34} {:<30} {:>11} {:>11}",
        "Scenario", "grouping", "planned (s)", "naive (s)"
    );
    for r in exp::hetero() {
        let planned = if r.planned_s.is_finite() {
            format!("{:.3}", r.planned_s)
        } else {
            "—".to_string()
        };
        println!(
            "{:<34} {:<30} {:>11} {:>11.3}",
            r.scenario, r.grouping, planned, r.naive_s
        );
    }
    println!("\nnaive = even pipeline over every device; the planner never loses to it");
}
