//! Fuzz of the checkpoint byte boundary (ROADMAP item 6): seeded mutations
//! of real `PACCKPT3` snapshots through the vendored proptest shim.
//!
//! The corpus is what the platform actually writes: the adapter a
//! `serve_warm`-shaped tenant burst publishes (weights and both Adam
//! moments) and the last snapshot a `PacSession` commits. Each case applies
//! one to four mutations from {flip, truncate, zero a range, duplicate a
//! range, splice the two snapshots}. Left as they are, the mutated bytes
//! must decode only when they equal an original; resealed with a fresh
//! trailer, so the damage reaches the parser behind the checksum, they must
//! decode only to a snapshot that re-encodes to exactly those bytes. A
//! panic anywhere fails the case.

use pac_core::{run_tenant_burst, BurstSpec, PacConfig, PacSession};
use pac_data::TaskKind;
use pac_model::{EncDecModel, ModelConfig};
use pac_parallel::faults::FaultPlan;
use pac_peft::{CheckpointError, ParallelTuner, TrainCheckpoint};
use pac_store::{MemStore, Store};
use pac_tensor::bytes::checksum;
use pac_tensor::rng::seeded;
use proptest::prelude::*;
use std::sync::OnceLock;

/// `ServeConfig::micro`'s shape (hidden 32, reduction 4, two classes, 2
/// rows of 8 tokens, lr 0.05, seeds 17/18) and the benchmark's two steps.
fn serve_adapter() -> Vec<u8> {
    let cfg = ModelConfig::micro(2, 1, 32, 2);
    let model = EncDecModel::new(&cfg, 2, &mut seeded(17));
    let mut tuner = ParallelTuner::new(model, 4, 2, &mut seeded(18));
    let baseline = tuner.baseline();
    let spec = BurstSpec {
        tenant: 1,
        seed: 2,
        steps: 2,
        rows: 2,
        seq: 8,
        lr: 5e-2,
        fault_at: None,
    };
    run_tenant_burst(&mut tuner, &baseline, None, &spec, false)
        .expect("tenant burst")
        .checkpoint
        .to_bytes()
        .expect("encode adapter")
}

/// The last snapshot a two-device, two-epoch session commits.
fn session_snapshot() -> Vec<u8> {
    let cfg = ModelConfig::micro(1, 1, 16, 2);
    let session = PacSession::new(PacConfig {
        devices: 2,
        epochs: 2,
        batch_size: 4,
        checkpoint_every: 2,
        ..Default::default()
    });
    let backbone = EncDecModel::new(&cfg, TaskKind::Mrpc.n_out(), &mut seeded(42));
    let mut store = MemStore::new();
    session
        .run_with_store(
            backbone,
            TaskKind::Mrpc,
            16,
            8,
            &FaultPlan::none(),
            &mut store,
        )
        .expect("session runs");
    store
        .latest()
        .expect("in-memory log")
        .expect("a committed snapshot")
        .payload
}

fn corpus() -> &'static [Vec<u8>; 2] {
    static CORPUS: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    CORPUS.get_or_init(|| [serve_adapter(), session_snapshot()])
}

/// One mutation of `bytes`; `other` is the second corpus snapshot. `a` and
/// `b` pick offsets and lengths.
fn mutate(bytes: &mut Vec<u8>, other: &[u8], kind: u8, a: usize, b: usize, mask: u8) {
    let len = bytes.len();
    let at = a % (len + 1);
    let end = (at + 1 + b % 64).min(len);
    match kind {
        // Flip bits of one byte.
        0 if len > 0 => bytes[a % len] ^= mask,
        // Truncate.
        1 => bytes.truncate(at),
        // Zero a range.
        2 => bytes[at..end].fill(0),
        // Duplicate a range right behind itself.
        3 => {
            let copy = bytes[at..end].to_vec();
            bytes.splice(end..end, copy);
        }
        // Splice: this snapshot's head, the other's tail.
        4 => {
            bytes.truncate(at);
            bytes.extend_from_slice(&other[b % (other.len() + 1)..]);
        }
        _ => {}
    }
}

/// The corpus snapshot `which` after `mutations`.
fn mutated(which: usize, mutations: &[(u8, usize, usize, u8)]) -> Vec<u8> {
    let [first, second] = corpus();
    let (mut bytes, other) = if which == 0 {
        (first.clone(), second)
    } else {
        (second.clone(), first)
    };
    for &(kind, a, b, mask) in mutations {
        mutate(&mut bytes, other, kind, a, b, mask);
    }
    bytes
}

#[test]
fn corpus_is_real_snapshots() {
    let [serve, session] = corpus();
    // The benchmark's `pac-peft.checkpoint.bytes`.
    assert_eq!(serve.len(), 16_797);
    for bytes in [serve, session] {
        let ck = TrainCheckpoint::from_bytes(bytes).expect("clean decode");
        assert_eq!(&ck.to_bytes().expect("encode"), bytes);
    }
}

/// Damaged bytes decode only when they equal an original.
fn decodes_only_to_an_original(bytes: &[u8]) -> Result<(), TestCaseError> {
    match TrainCheckpoint::from_bytes(bytes) {
        Ok(_) => prop_assert!(
            corpus().iter().any(|c| c == bytes),
            "damaged bytes ({} long) decoded",
            bytes.len()
        ),
        Err(CheckpointError::Format(_)) => {}
        Err(e) => prop_assert!(false, "decode is a format check only, got {e:?}"),
    }
    Ok(())
}

/// `bytes` resealed with a fresh trailer decode only to a snapshot that
/// re-encodes to exactly those bytes.
fn resealed_decodes_only_to_what_it_encodes(mut bytes: Vec<u8>) -> Result<(), TestCaseError> {
    if let Some(body) = bytes.len().checked_sub(4) {
        let sum = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }
    match TrainCheckpoint::from_bytes(&bytes) {
        Ok(ck) => prop_assert_eq!(ck.to_bytes().expect("encode"), bytes),
        Err(CheckpointError::Format(_)) => {}
        Err(e) => prop_assert!(false, "decode is a format check only, got {e:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_snapshots_decode_only_to_an_original(
        which in 0usize..2,
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
    ) {
        decodes_only_to_an_original(&mutated(which, &mutations))?;
    }

    #[test]
    fn resealed_mutations_decode_only_to_what_they_encode(
        which in 0usize..2,
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
    ) {
        resealed_decodes_only_to_what_it_encodes(mutated(which, &mutations))?;
    }
}

// The nightly budget: the same properties over many more seeded cases
// (`cargo test --release -p pac-core --test checkpoint_fuzz -- --ignored`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(5_000_000))]

    #[test]
    #[ignore = "nightly budget"]
    fn mutated_snapshots_decode_only_to_an_original_deep(
        which in 0usize..2,
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
    ) {
        decodes_only_to_an_original(&mutated(which, &mutations))?;
    }

    #[test]
    #[ignore = "nightly budget"]
    fn resealed_mutations_decode_only_to_what_they_encode_deep(
        which in 0usize..2,
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
    ) {
        resealed_decodes_only_to_what_it_encodes(mutated(which, &mutations))?;
    }
}
