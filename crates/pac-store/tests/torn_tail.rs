//! Torn-tail recovery matrix: crash {before any byte, inside the header,
//! inside the payload, inside the CRC trailer, after the commit} × {zero,
//! one, many} prior committed snapshots. In every cell `open()` must land
//! on the last *committed* snapshot and report exactly how many torn bytes
//! it truncated — never an error, never a panic, never a half-decoded
//! record.
//!
//! The crash offsets are not guessed: they are derived from the record
//! framing (`HEADER(10) + seq(8) + meta-len(4) + meta + payload + crc(4)`),
//! so "inside the CRC trailer" really is inside the CRC trailer.

use pac_store::{Committed, DiskStore, Store, StoreError};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pac-store-torn-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Payload of snapshot `i`: unique bytes.
fn payload(i: usize) -> Vec<u8> {
    (0..100u8)
        .map(|j| j.wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

fn meta(i: usize) -> Vec<u8> {
    (i as u64).to_le_bytes().to_vec()
}

/// Where the 8-byte meta starts inside a commit record: header, seq,
/// meta-len.
const META_AT: u64 = 10 + 8 + 4;
/// Encoded size of one commit of `payload(i)` + `meta(i)`: everything
/// before the meta, the meta, the snapshot, the CRC.
const RECORD: u64 = META_AT + 8 + 100 + 4;

#[test]
fn torn_tail_matrix_recovers_to_last_commit() {
    // (label, crash byte offset into the final commit, does the final
    // commit survive?) — every byte of a torn commit is the torn tail.
    let cuts: [(&str, u64, bool); 5] = [
        ("before-any-byte", 0, false),
        ("inside-header", 6, false),
        ("inside-payload", META_AT + 8 + 50, false),
        ("inside-crc", RECORD - 2, false),
        // Killed only after the commit record is fully durable: the
        // snapshot survives.
        ("after-commit", RECORD, true),
    ];

    for prior in [0usize, 1, 3] {
        for &(label, at_byte, survives) in &cuts {
            let dir = tmp_dir(&format!("matrix-{prior}-{label}"));
            {
                let (mut store, _) = DiskStore::open(&dir).expect("open fresh");
                for i in 0..prior {
                    store.commit(&payload(i), &meta(i)).expect("prior commit");
                }
                assert_eq!(store.commit_sizes(), vec![RECORD; prior]);
                store.arm_crash(at_byte);
                let outcome = store.commit(&payload(99), &meta(99));
                if survives {
                    assert!(outcome.is_ok(), "[{prior}/{label}] commit fits the budget");
                } else {
                    assert!(
                        matches!(outcome, Err(StoreError::Injected { .. })),
                        "[{prior}/{label}] expected injected crash, got {outcome:?}"
                    );
                }
            }

            let (store, report) = DiskStore::open(&dir).expect("recovery open");
            let (want_torn, want_commits) = if survives {
                (0, prior as u64 + 1)
            } else {
                (at_byte, prior as u64)
            };
            assert_eq!(
                report.truncated_bytes, want_torn,
                "[{prior}/{label}] torn byte report"
            );
            assert_eq!(report.commits, want_commits, "[{prior}/{label}] commits");
            assert_eq!(
                report.bytes_kept,
                want_commits * RECORD,
                "[{prior}/{label}] bytes kept"
            );
            let latest = store.latest().expect("latest after recovery");
            let want: Option<(Vec<u8>, Vec<u8>)> = if survives {
                Some((payload(99), meta(99)))
            } else if prior > 0 {
                Some((payload(prior - 1), meta(prior - 1)))
            } else {
                None
            };
            match (latest, want) {
                (None, None) => {}
                (
                    Some(Committed {
                        payload: p,
                        meta: m,
                        ..
                    }),
                    Some((wp, wm)),
                ) => {
                    assert_eq!(p, wp, "[{prior}/{label}] recovered payload");
                    assert_eq!(m, wm, "[{prior}/{label}] recovered meta");
                }
                (got, want) => {
                    panic!("[{prior}/{label}] latest mismatch: got {got:?}, want {want:?}")
                }
            }
            // Recovery leaves a writable store: the next commit must land.
            let mut store = store;
            store
                .commit(&payload(7), &meta(7))
                .expect("post-recovery commit");
            fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A commit that crashes at any of its byte offsets leaves nothing in the
/// log: recovery keeps exactly the commits that were acknowledged, and the
/// retry appends exactly one record.
#[test]
fn crashed_commit_leaves_nothing_behind() {
    for at_byte in 0..RECORD {
        let dir = tmp_dir(&format!("nothing-behind-{at_byte}"));
        {
            let (mut store, _) = DiskStore::open(&dir).expect("open");
            store.commit(&payload(0), &meta(0)).expect("commit 0");
            store.arm_crash(at_byte);
            let outcome = store.commit(&payload(1), &meta(1));
            assert!(
                matches!(outcome, Err(StoreError::Injected { .. })),
                "[{at_byte}] expected injected crash, got {outcome:?}"
            );
        }
        let (mut store, report) = DiskStore::open(&dir).expect("recover");
        assert_eq!(
            (report.commits, report.bytes_kept, report.truncated_bytes),
            (1, RECORD, at_byte),
            "[{at_byte}] recovery report"
        );
        store.commit(&payload(1), &meta(1)).expect("retry");
        assert_eq!(store.commit_sizes(), [RECORD], "[{at_byte}] retry cost");
        drop(store);
        let (store, report) = DiskStore::open(&dir).expect("reopen");
        assert_eq!(
            (report.commits, report.bytes_kept, report.truncated_bytes),
            (2, 2 * RECORD, 0),
            "[{at_byte}] log after the retry"
        );
        let last = store.latest().expect("latest").expect("some");
        assert_eq!(last.payload, payload(1));
        fs::remove_dir_all(&dir).ok();
    }
}

/// Trailing garbage after the last commit (a torn append from a dying
/// writer) is truncated and reported, byte for byte.
#[test]
fn trailing_garbage_is_truncated_and_reported() {
    let dir = tmp_dir("garbage");
    {
        let (mut store, _) = DiskStore::open(&dir).expect("open");
        store.commit(&payload(0), &meta(0)).expect("commit");
    }
    let seg = dir.join("seg-000000.wal");
    let mut bytes = fs::read(&seg).expect("read segment");
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
    fs::write(&seg, &bytes).expect("write garbage");

    let (store, report) = DiskStore::open(&dir).expect("recover");
    assert_eq!(report.truncated_bytes, 5);
    assert_eq!(report.commits, 1);
    let last = store.latest().expect("latest").expect("some");
    assert_eq!(last.payload, payload(0));
    fs::remove_dir_all(&dir).ok();
}

/// Segment rotation threshold of the fuzzed log: three 134-byte records
/// reach it, so nine commits fill exactly three segments.
const FUZZ_SEGMENT_BYTES: u64 = 400;
const FUZZ_COMMITS: usize = 9;

/// One mutation of a log held as its segments' bytes. `a` and `b` pick
/// segments and offsets; an odd `b` snaps the offset down to a record
/// boundary of the pristine log, where a CRC-valid neighbour can follow.
fn mutate(segs: &mut [Vec<u8>], pristine: &[Vec<u8>], kind: u8, a: usize, b: usize, mask: u8) {
    let n = segs.len();
    let s = a % n;
    let offset = |seg: &[u8], x: usize| {
        let off = x % (seg.len() + 1);
        if b % 2 == 1 {
            off - off % RECORD as usize
        } else {
            off
        }
    };
    match kind {
        // Flip bits of one byte.
        0 if !segs[s].is_empty() => {
            let at = b % segs[s].len();
            segs[s][at] ^= mask;
        }
        // Truncate a segment.
        1 => {
            let at = offset(&segs[s], a / n);
            segs[s].truncate(at);
        }
        // Zero a range.
        2 => {
            let at = offset(&segs[s], a / n);
            let end = (at + 1 + b % 64).min(segs[s].len());
            segs[s][at..end].fill(0);
        }
        // Duplicate a record of the pristine log right behind itself (or at
        // the end of its segment, if that has since shrunk).
        3 => {
            let r = (a / n) % (pristine[s].len() / RECORD as usize);
            let (from, to) = (r * RECORD as usize, (r + 1) * RECORD as usize);
            let at = to.min(segs[s].len());
            let copy = pristine[s][from..to].to_vec();
            segs[s].splice(at..at, copy);
        }
        // Splice two segments' tails: each keeps its head and gets the
        // other's tail.
        4 => {
            let t = (s + 1 + b % (n - 1)) % n;
            let (at_s, at_t) = (offset(&segs[s], a / n), offset(&segs[t], b / 2));
            let tail_s = segs[s].split_off(at_s);
            let tail_t = segs[t].split_off(at_t);
            segs[s].extend(tail_t);
            segs[t].extend(tail_s);
        }
        _ => {}
    }
}

// Any single flipped byte anywhere in the log is caught by a CRC: open()
// truncates from the damaged record onward and recovers the last commit
// before it — it never decodes damaged bytes and never panics.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_byte_flip_truncates_from_the_damage(
        pos_seed in 0usize..10_000,
        mask in 1u8..=255,
        case in 0u32..1_000_000,
    ) {
        let dir = tmp_dir(&format!("flip-{case}"));
        let mut ends = Vec::new();
        {
            let (mut store, _) = DiskStore::open(&dir).expect("open");
            for i in 0..3 {
                store.commit(&payload(i), &meta(i)).expect("commit");
                ends.push(store.bytes_written());
            }
        }
        let seg = dir.join("seg-000000.wal");
        let mut bytes = fs::read(&seg).expect("read segment");
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= mask;
        fs::write(&seg, &bytes).expect("write flipped");

        let (store, report) = DiskStore::open(&dir).expect("recover");
        // The last commit whose record ends at or before the damage
        // survives; everything from the damaged record on is gone.
        let survivors = ends.iter().filter(|&&e| e <= pos as u64).count();
        prop_assert_eq!(report.commits, survivors as u64);
        let latest = store.latest().expect("latest");
        match survivors {
            0 => prop_assert!(latest.is_none()),
            n => {
                let got = latest.expect("some");
                prop_assert_eq!(got.payload, payload(n - 1));
            }
        }
        prop_assert!(report.truncated_bytes > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn any_truncation_recovers_a_committed_prefix(
        cut_seed in 0usize..10_000,
        case in 0u32..1_000_000,
    ) {
        let dir = tmp_dir(&format!("cut-{case}"));
        let mut ends = Vec::new();
        {
            let (mut store, _) = DiskStore::open(&dir).expect("open");
            for i in 0..3 {
                // A few KiB each, so most cuts land deep inside a snapshot.
                let mut p = payload(i);
                p.extend(vec![i as u8; 4096]);
                store.commit(&p, &meta(i)).expect("commit");
                ends.push(store.bytes_written());
            }
        }
        let seg = dir.join("seg-000000.wal");
        let bytes = fs::read(&seg).expect("read segment");
        let cut = cut_seed % (bytes.len() + 1);
        fs::write(&seg, &bytes[..cut]).expect("truncate");

        let (store, report) = DiskStore::open(&dir).expect("recover");
        let survivors = ends.iter().filter(|&&e| e <= cut as u64).count();
        prop_assert_eq!(report.commits, survivors as u64);
        let latest = store.latest().expect("latest");
        match survivors {
            0 => prop_assert!(latest.is_none()),
            n => {
                let got = latest.expect("some");
                let mut want = payload(n - 1);
                want.extend(vec![(n - 1) as u8; 4096]);
                prop_assert_eq!(got.payload, want);
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// One to four mutations of a real three-segment log: see
    /// [`mutated_log_property`].
    #[test]
    fn mutated_log_opens_to_a_committed_prefix_or_is_refused_untouched(
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
        case in 0u32..1_000_000,
    ) {
        mutated_log_property(&mutations, case)?;
    }
}

// The nightly budget: the same property over many more seeded cases
// (`cargo test --release -p pac-store --test torn_tail -- --ignored`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    #[test]
    #[ignore = "nightly budget"]
    fn mutated_log_opens_to_a_committed_prefix_or_is_refused_untouched_deep(
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
        case in 0u32..1_000_000,
    ) {
        mutated_log_property(&mutations, case)?;
    }
}

/// Whatever one to four mutations of a real three-segment log leave, `open`
/// does not panic and does one of two things. It recovers: the surviving
/// commits are bitwise the first k originals in order, and a second `open`
/// finds nothing more to truncate. Or it refuses with a typed error, having
/// met a CRC-valid record that is not the next commit (a duplicate, a
/// segment's tail moved to another): then no file has changed.
fn mutated_log_property(
    mutations: &[(u8, usize, usize, u8)],
    case: u32,
) -> Result<(), TestCaseError> {
    let dir = tmp_dir(&format!("fuzz-{case}"));
    {
        let (mut store, _) =
            DiskStore::open_with_segment_bytes(&dir, FUZZ_SEGMENT_BYTES).expect("open");
        for i in 0..FUZZ_COMMITS {
            store.commit(&payload(i), &meta(i)).expect("commit");
        }
    }
    let files: Vec<PathBuf> = (0..3)
        .map(|i| dir.join(format!("seg-{i:06}.wal")))
        .collect();
    prop_assert!(!dir.join("seg-000003.wal").exists());
    let pristine: Vec<Vec<u8>> = files
        .iter()
        .map(|f| fs::read(f).expect("read segment"))
        .collect();
    let mut segs = pristine.clone();
    for &(kind, a, b, mask) in mutations {
        mutate(&mut segs, &pristine, kind, a, b, mask);
    }
    for (file, bytes) in files.iter().zip(&segs) {
        fs::write(file, bytes).expect("write mutated segment");
    }

    match DiskStore::open_with_segment_bytes(&dir, FUZZ_SEGMENT_BYTES) {
        Ok((store, report)) => {
            prop_assert!(report.commits <= FUZZ_COMMITS as u64);
            prop_assert_eq!(report.bytes_kept, report.commits * RECORD);
            for i in 0..report.commits as usize {
                let got = store.committed(i as u64).expect("committed").expect("some");
                prop_assert_eq!(got.seq, i as u64);
                prop_assert_eq!(got.payload, payload(i));
                prop_assert_eq!(got.meta, meta(i));
            }
            drop(store);
            let (_, again) =
                DiskStore::open_with_segment_bytes(&dir, FUZZ_SEGMENT_BYTES).expect("reopen");
            prop_assert_eq!(again.truncated_bytes, 0);
            prop_assert_eq!(again.commits, report.commits);
        }
        Err(e) => {
            prop_assert!(matches!(e, StoreError::Malformed(_)), "refused with {e:?}");
            for (file, bytes) in files.iter().zip(&segs) {
                prop_assert_eq!(&fs::read(file).expect("read segment"), bytes);
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
    Ok(())
}
