//! Quickstart: fine-tune a personal LLM with PAC in ~a minute on a laptop.
//!
//! This runs the complete PAC workflow (paper Figure 4) at micro scale:
//! a CPU-trainable stand-in backbone is "pretrained", equipped with
//! Parallel Adapters, planned onto a simulated 4-Nano cluster, fine-tuned
//! collaboratively for one epoch (filling the activation cache), and then
//! fine-tuned from the cache alone for the remaining epochs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pac_core::prelude::*;
use pac_core::trainer::{finetune, TrainConfig};
use pac_tensor::rng::seeded;

fn main() {
    println!("=== Pluto and Charon (PAC) quickstart ===\n");

    // A micro encoder-decoder model: 2 encoder + 1 decoder layers, d=32.
    // (The paper uses T5-Base/BART-Large/T5-Large; those configs drive the
    // simulated experiments in `pac-bench`.)
    let config = ModelConfig::micro(2, 1, 32, 4);
    let task = TaskKind::Sst2;
    println!(
        "model: {} ({} layers, hidden {})",
        config.name,
        config.total_layers(),
        config.hidden
    );
    println!("task:  {} ({})\n", task.name(), task.metric_name());

    // Step -1 (outside PAC): obtain a pretrained backbone. Offline we
    // emulate pre-training with a brief full fine-tune on pretext data.
    println!("pretraining backbone on pretext data...");
    let backbone = {
        let mut full = Tuner::new(Technique::Full, &config, task.n_out(), &mut seeded(1));
        let pretext = Dataset::generate(task, 96, 13, 999);
        let (ptrain, peval) = pretext.split(0.9);
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
        .expect("pretraining succeeds");
        match full {
            Tuner::Full(f) => f.model,
            _ => unreachable!(),
        }
    };

    // Steps 0-5: the PAC session.
    let session = PacSession::new(PacConfig {
        devices: 4,
        reduction: 4,
        epochs: 3,
        batch_size: 8,
        lr: 1e-2,
        seed: 42,
        checkpoint_every: 4,
    });
    println!("running PAC across 4 simulated edge devices...\n");
    let report = session
        .run_with_backbone(backbone, task, 64, 24)
        .expect("PAC session succeeds");

    println!(
        "planner chose:     {} stages {}",
        report.plan.num_stages(),
        report.plan.grouping_string()
    );
    println!(
        "trainable params:  {} of {} ({:.2}%)",
        report.trainable_params,
        report.total_params,
        100.0 * report.trainable_params as f64 / report.total_params as f64
    );
    println!("epoch losses:      {:?}", report.epoch_losses);
    println!(
        "activation cache:  {} entries, {:.1} KiB, {} hits / {} misses",
        report.cache_stats.entries,
        report.cache_stats.bytes as f64 / 1024.0,
        report.cache_stats.hits,
        report.cache_stats.misses
    );
    println!("final {}:  {:.1}", task.metric_name(), report.metric);
    println!("\nEpochs 2-3 never touched the backbone: they trained the");
    println!("Parallel Adapters purely from cached activations (paper §4.2).");
}
