//! Smart-home personal-assistant scenario (the paper's Figure 1).
//!
//! A household's intelligent personal assistant collects interaction data
//! (commands with user feedback → sentiment-style labels, and
//! question/answer pairs → QNLI-style entailment). Overnight, the
//! assistant fine-tunes its personal LLM **in situ** across the idle
//! devices on the home LAN — a Jetson TX2 media box, two Jetson Nano
//! cameras and a Raspberry Pi hub — without any interaction data leaving
//! the house.
//!
//! The example shows both halves of the reproduction:
//! 1. planning + time/memory estimation on the *paper-scale* model
//!    (T5-Base) over the heterogeneous home cluster, and
//! 2. a *real* collaborative fine-tuning run at micro scale with the
//!    activation cache.
//!
//! ```text
//! cargo run --release --example smart_home_assistant
//! ```

use pac_cluster::CostModel;
use pac_core::prelude::*;
use pac_core::trainer::{finetune, TrainConfig};
use pac_planner::Planner;
use pac_tensor::rng::seeded;

fn main() {
    println!("=== PAC in a smart home ===\n");

    // ---------------------------------------------------------------
    // Part 1: plan the paper-scale personal LLM onto the home cluster.
    // ---------------------------------------------------------------
    let home = Cluster::smart_home();
    println!("home devices:");
    for d in &home.devices {
        println!(
            "  - {:<16} {:>6.0} GFLOPS eff., {:>4.1} GiB usable",
            d.name,
            d.effective_flops() / 1e9,
            d.usable_memory as f64 / (1024.0 * 1024.0 * 1024.0)
        );
    }

    let model = ModelConfig::t5_base();
    let technique = Technique::parallel_default();
    let cost = CostModel::new(model.clone(), technique, 128);
    let planner = Planner::paper_defaults(home.clone(), 16);
    match planner.plan(&cost) {
        Some(outcome) => {
            println!(
                "\nplanned {} as {} stages {} — {:.2} s per mini-batch",
                model.name,
                outcome.best.num_stages(),
                outcome.best.grouping_string(),
                outcome.best_makespan_s
            );
            println!("candidates evaluated:");
            for c in &outcome.candidates {
                println!(
                    "  s={}  {:<14} {:>8.2} s {}",
                    c.stages,
                    c.plan.grouping_string(),
                    c.makespan_s,
                    if c.oom { "(OOM)" } else { "" }
                );
            }
        }
        None => println!("\nno feasible plan — model too large for this home"),
    }

    // ----------------------------------------------------------------
    // Part 1b: robustness — a camera powers off mid-training.
    // ----------------------------------------------------------------
    println!("\n--- device failure: one Jetson Nano drops off the LAN ---");
    match planner.replan_without(&cost, &[2]) {
        Some(o) => println!(
            "replanned onto 3 devices: {} stages {} — {:.2} s per mini-batch",
            o.best.num_stages(),
            o.best.grouping_string(),
            o.best_makespan_s
        ),
        None => println!("no feasible plan on the survivors"),
    }

    // ----------------------------------------------------------------
    // Part 2: real overnight fine-tuning at micro scale with the cache.
    // ----------------------------------------------------------------
    println!("\n--- overnight fine-tuning on collected interactions ---");
    let micro = ModelConfig::micro(2, 1, 32, 4);
    let task = TaskKind::Qnli; // "did the assistant answer the question?"

    let backbone = {
        let mut full = Tuner::new(Technique::Full, &micro, task.n_out(), &mut seeded(11));
        let pretext = Dataset::generate(task, 120, 13, 1234);
        let (ptrain, peval) = pretext.split(0.9);
        finetune(
            &mut full,
            &ptrain,
            &peval,
            &TrainConfig {
                epochs: 5,
                lr: 3e-3,
                ..Default::default()
            },
        )
        .expect("pretraining succeeds");
        match full {
            Tuner::Full(f) => f.model,
            _ => unreachable!(),
        }
    };

    let session = PacSession::new(PacConfig {
        devices: home.len(),
        reduction: 4,
        epochs: 3,
        batch_size: 8,
        lr: 1e-2,
        seed: 7,
        checkpoint_every: 4,
    });
    let report = session
        .run_with_backbone(backbone, task, 80, 24)
        .expect("session succeeds");

    println!("epoch losses: {:?}", report.epoch_losses);
    println!(
        "cache: {} interactions cached ({:.1} KiB), {} cache-served batches",
        report.cache_stats.entries,
        report.cache_stats.bytes as f64 / 1024.0,
        report.cache_stats.hits
    );
    println!(
        "assistant quality ({}): {:.1}",
        task.metric_name(),
        report.metric
    );
    println!("\nAll interaction data stayed on the home LAN.");
}
