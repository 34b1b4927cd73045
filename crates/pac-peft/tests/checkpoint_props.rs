//! Adversarial robustness of the `PACCKPT3` codec, mirroring pac-net's
//! wire-format properties (`any_truncation_is_rejected_as_eof`,
//! `any_single_byte_flip_is_rejected`): every truncation and every single
//! flipped byte of a valid checkpoint must be rejected with a typed
//! [`CheckpointError`] — never a panic, never silently-corrupted weights.
//! The random mutations of real snapshots live in `pac-core`'s
//! `checkpoint_fuzz.rs`, next to the burst and session that make them.

use pac_model::ModelConfig;
use pac_nn::Module;
use pac_peft::checkpoint::{CheckpointError, TrainCheckpoint};
use pac_peft::{Technique, Tuner};
use pac_tensor::rng::seeded;
use proptest::prelude::*;

fn tuner() -> Tuner {
    Tuner::new(
        Technique::parallel_default(),
        &ModelConfig::micro(1, 1, 16, 2),
        2,
        &mut seeded(900),
    )
}

/// What `Personalizer::export_adapter` writes: no moments, zero cursor.
fn export(module: &impl Module) -> Vec<u8> {
    TrainCheckpoint::capture(module, 0, 0, 0)
        .to_bytes()
        .expect("serialize")
}

/// `Personalizer::import_adapter`: decode, then restore.
fn import(module: &mut impl Module, bytes: &[u8]) -> Result<(), CheckpointError> {
    TrainCheckpoint::from_bytes(bytes)?.restore(module)
}

/// A snapshot with populated Adam moments so both the value and moment
/// planes are in the byte stream.
fn train_snapshot_bytes() -> Vec<u8> {
    let mut t = tuner();
    t.visit_params(&mut |p| {
        if p.trainable {
            p.opt_m = Some(p.value.clone());
            p.opt_v = Some(p.value.clone());
        }
    });
    TrainCheckpoint::capture(&t, 2, 5, 5)
        .to_bytes()
        .expect("serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ckpt2_any_truncation_is_rejected(cut_seed in 0usize..10_000) {
        let bytes = train_snapshot_bytes();
        let cut = cut_seed % bytes.len();
        prop_assert!(
            TrainCheckpoint::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} decoded", bytes.len()
        );
    }

    #[test]
    fn ckpt2_any_single_byte_flip_is_rejected(
        pos_seed in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let bytes = train_snapshot_bytes();
        let pos = pos_seed % bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= mask;
        match TrainCheckpoint::from_bytes(&corrupt) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "flip at {pos} (mask {mask:#04x}) decoded"),
        }
    }

    #[test]
    fn export_any_truncation_is_rejected(cut_seed in 0usize..10_000) {
        let bytes = export(&tuner());
        let cut = cut_seed % bytes.len();
        let mut recipient = tuner();
        prop_assert!(
            import(&mut recipient, &bytes[..cut]).is_err(),
            "truncation at {cut}/{} decoded", bytes.len()
        );
    }

    #[test]
    fn export_any_single_byte_flip_is_rejected(
        pos_seed in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let bytes = export(&tuner());
        let pos = pos_seed % bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= mask;
        let mut recipient = tuner();
        prop_assert!(
            import(&mut recipient, &corrupt).is_err(),
            "flip at {pos} (mask {mask:#04x}) decoded"
        );
    }
}

/// A decoder fed corrupt bytes must reject them *before* mutating the
/// module: the recipient still serializes bit-identically to its pristine
/// self after every rejected import. The donor differs from the recipient
/// in every value and carries moments, so any partial write would show.
#[test]
fn rejected_loads_leave_the_module_untouched() {
    let mut donor = tuner();
    donor.visit_params(&mut |p| {
        if p.trainable {
            p.value.map_in_place(|v| v * 1.5 + 0.25);
            p.opt_m = Some(p.value.clone());
        }
    });
    let bytes = export(&donor);
    let mut recipient = tuner();
    let pristine = export(&recipient);
    for pos in (0..bytes.len()).step_by(7) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xA5;
        assert!(import(&mut recipient, &corrupt).is_err(), "flip at {pos}");
        assert_eq!(
            pristine,
            export(&recipient),
            "rejected load at {pos} mutated the module"
        );
    }
}

/// Sanity anchor for the properties above: a clean buffer still decodes,
/// and the error type for damage is the typed `CheckpointError`, not a
/// panic payload.
#[test]
fn clean_stream_decodes_and_damage_is_typed() {
    let bytes = train_snapshot_bytes();
    let snap = TrainCheckpoint::from_bytes(&bytes).expect("clean decode");
    assert_eq!((snap.epoch, snap.step, snap.adam_t), (2, 5, 5));
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    match TrainCheckpoint::from_bytes(&corrupt) {
        Err(CheckpointError::Format(msg)) => {
            assert!(msg.contains("checksum"), "unexpected diagnosis: {msg}")
        }
        other => panic!("flipped trailer must be a Format error, got {other:?}"),
    }
}

/// The trailer an older build wrote: one dependent FNV-1a multiply per
/// byte.
fn byte_serial_fnv(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5u32, |h, &b| {
        (h ^ b as u32).wrapping_mul(0x0100_0193)
    })
}

/// A `PACCKPT2` snapshot, framed by hand exactly as an older build's
/// `DiskStore` log holds it, is refused with a `Format` error that names
/// the format — not misread, not reported as plain corruption.
#[test]
fn older_pacckpt2_bytes_get_a_typed_format_error() {
    let bytes = train_snapshot_bytes();
    let mut old = bytes[..bytes.len() - 4].to_vec();
    old[..8].copy_from_slice(b"PACCKPT2");
    let trailer = byte_serial_fnv(&old);
    old.extend_from_slice(&trailer.to_le_bytes());
    match TrainCheckpoint::from_bytes(&old) {
        Err(CheckpointError::Format(msg)) => {
            assert!(msg.contains("PACCKPT2"), "unexpected diagnosis: {msg}")
        }
        other => panic!("a PACCKPT2 buffer must be a typed Format error, got {other:?}"),
    }
}
