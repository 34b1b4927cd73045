//! The reference benchmark's `pac_solo` session, pinned bit for bit.
//!
//! Hidden 256, four encoder layers, two devices, four epochs of 64 rows in
//! batches of 16, evaluated on 16 rows: every backbone product of epoch 1
//! and of evaluation is past the pooled-dispatch line, so this is the
//! session that fans its products out over the pool. The epoch losses and
//! the metric must not move with the pool width (1 runs every product's
//! column strips one after another on this thread, 2 hands them out) nor
//! with any change to how products are partitioned: an output element is
//! a function of its A row, its B column and `(k, n)` alone.
//!
//! The pins hold for the FMA CPU class (AVX2 or AVX-512); a CPU without
//! FMA rounds every multiply-add twice and is skipped.

use pac_core::{PacConfig, PacSession};
use pac_data::TaskKind;
use pac_model::{EncDecModel, ModelConfig};
use pac_tensor::rng::seeded;

fn fma_class() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `pac_solo` at `seed`: epoch-loss bits and the eval metric.
fn pac_solo(seed: u64) -> (Vec<u32>, f64) {
    let backbone = EncDecModel::new(
        &ModelConfig::micro(4, 0, 256, 4),
        TaskKind::Sst2.n_out(),
        &mut seeded(42),
    );
    let session = PacSession::new(PacConfig {
        devices: 2,
        epochs: 4,
        batch_size: 16,
        seed,
        ..PacConfig::default()
    });
    let report = session
        .run_with_backbone(backbone, TaskKind::Sst2, 64, 16)
        .expect("pac_solo session");
    let bits = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
    (bits, report.metric)
}

#[test]
fn pac_solo_bits_and_metric_are_pinned_at_pool_widths_1_and_2() {
    if !fma_class() {
        println!("skipped: the pins are the FMA class's bits");
        return;
    }
    let pins: [(u64, [u32; 4], f64); 2] = [
        (1, [0x40195a57, 0x3ef17296, 0x3e8195fb, 0x3e2cac5c], 81.25),
        (7, [0x4007738e, 0x3f3cda8a, 0x3ea82872, 0x3e1d9e40], 75.0),
    ];
    for width in [1usize, 2] {
        rayon::pool::set_max_concurrency(width);
        for &(seed, bits, metric) in &pins {
            let (got, got_metric) = pac_solo(seed);
            let hex: Vec<String> = got.iter().map(|b| format!("{b:08x}")).collect();
            assert_eq!(got, bits, "seed {seed}, width {width}: {hex:?}");
            assert_eq!(got_metric, metric, "seed {seed}, width {width}");
        }
    }
    rayon::pool::set_max_concurrency(usize::MAX);
}
