//! `pac-store`: a crash-safe, append-only segment log for checkpoint
//! snapshots.
//!
//! Every recovery path in the workspace (session rollback, elastic
//! catch-up, the distributed driver's `checkpoint_every` snapshots, the
//! serve registry's adapter versions) ultimately serializes a `PACCKPT3`
//! blob. This crate gives those blobs a durable home that survives
//! `kill -9`:
//!
//! ```text
//! segment file  seg-000000.wal (rotated at a byte threshold)
//!
//!   record  := magic "PACS" · version u8 (2) · tag u8 · len u32 LE
//!              · payload[len] · crc u32 LE        (FNV-1a over
//!                                                  version..payload)
//!   commit  := tag 2, payload = seq u64 LE · meta-len u32 LE · meta
//!              · snapshot bytes
//! ```
//!
//! **A snapshot is one record.** What reaches the store is only ever the
//! trainable side of a model (an adapter and its Adam moments, a stage's
//! parameters), and a dense f32 update changes every part of it at every
//! step, so there is nothing for two commits to share: each is written
//! whole. `len` is a `u32` capped at 256 MiB, which makes 256 MiB − 12
//! bytes the largest `meta + snapshot` a commit accepts; a larger one is
//! refused with [`StoreError::Oversize`] before a byte is written.
//!
//! **Atomicity.** A commit is one append and one `fsync`. A crash at *any*
//! byte offset therefore leaves either (a) a fully committed snapshot, or
//! (b) a torn tail after the last commit record, and nothing else: no state
//! of the log holds data that no commit owns. [`DiskStore::open`] scans the
//! log front to back verifying every CRC; the first incomplete record or
//! failed CRC and everything after it is truncated away — never decoded,
//! never panicking — and the dropped byte count is reported in a typed
//! [`OpenReport`]. Recovery always lands on the last *committed* snapshot.
//!
//! **Only torn bytes are truncated.** A record that passes its CRC is whole:
//! if it is not one this build can read (a log written under another
//! [`VERSION`], an unknown tag, a commit out of sequence), `open` returns
//! the typed error and leaves every file as it found it.
//!
//! **One replay cursor.** A training run that replays after a restore —
//! the pac-net coordinator's worlds and `pac_core::PacSession` — commits
//! the same metadata beside each snapshot, written by [`encode_cursor`]
//! and read by [`decode_cursor`]: the next global step and the loss of
//! every step before it.
//!
//! Failures are typed [`StoreError`]s in the same discipline as
//! `pac-net`'s `NetError`: malformed input is rejected, never unwrapped.
//! The [`CrashPoint`] adversary tears the writer down at a seeded byte
//! offset mid-append — the in-process equivalent of `kill -9` — so tests
//! can prove the recovery contract at every offset.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// First bytes of every record.
pub const MAGIC: [u8; 4] = *b"PACS";
/// On-disk format version.
pub const VERSION: u8 = 2;
/// The stride at which the reference benchmark's store probe varies its
/// payloads (`benchmark/src/probes.rs`). Nothing in this crate reads it.
pub const CHUNK_BYTES: usize = 4096;

/// The one record type. Tag 1 was version 1's chunk blob and stays retired.
const TAG_COMMIT: u8 = 2;
/// Largest record payload: bounds what `open` allocates for a length read
/// off disk, and with it the largest snapshot `commit` accepts.
const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;
/// Record header: magic + version + tag + len.
const HEADER: usize = 4 + 1 + 1 + 4;
/// Default segment rotation threshold.
const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

const FNV32_BASIS: u32 = 0x811c_9dc5;
const FNV32_PRIME: u32 = 0x0100_0193;

/// 32-bit FNV-1a record checksum. The framing idiom (checksum over
/// everything after the magic) is `pac-net`'s; the function is not — wire
/// frames and the `PACCKPT3` snapshots inside these records carry
/// `pac_tensor::bytes::checksum`, this on-disk format keeps the
/// byte-serial FNV-1a of version 1, so a record of either version verifies
/// the same way and `open` can tell a foreign version from a torn tail.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h = FNV32_BASIS;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(FNV32_PRIME);
    }
    h
}

/// A typed failure of the store. Same discipline as `NetError`: corrupt or
/// torn input is rejected with a diagnosis, never decoded and never a
/// panic.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem I/O failed.
    Io(io::Error),
    /// A record did not start with [`MAGIC`] where one was required.
    BadMagic([u8; 4]),
    /// A record carried an unknown format version.
    BadVersion(u8),
    /// A record carried an unknown tag.
    BadTag(u8),
    /// A record's CRC trailer did not match its contents.
    BadChecksum {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried in the record trailer.
        got: u32,
    },
    /// A record payload of this many bytes is longer than the store
    /// accepts: declared by a record on disk, or asked of
    /// [`Store::commit`] (the snapshot plus its metadata must fit one
    /// record).
    Oversize(u64),
    /// A structurally invalid record or commit (bad lengths, a commit out
    /// of sequence).
    Malformed(&'static str),
    /// The [`CrashPoint`] adversary tore the writer down mid-append. The
    /// store behaves as a killed process from here on: every further write
    /// fails with this error.
    Injected {
        /// Byte offset (from arming) at which the writer died.
        at_byte: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic(m) => write!(f, "bad record magic {m:02x?}"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::BadTag(t) => write!(f, "unknown record tag {t}"),
            StoreError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "record checksum mismatch: expected {expected:#010x}, got {got:#010x}"
                )
            }
            StoreError::Oversize(n) => write!(f, "record payload of {n} bytes exceeds limit"),
            StoreError::Malformed(why) => write!(f, "malformed record: {why}"),
            StoreError::Injected { at_byte } => {
                write!(
                    f,
                    "writer killed by crash point {at_byte} bytes into an append"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The crash adversary: kills the writer after `at_byte` more bytes reach
/// the log, mid-record if that is where the offset lands — including
/// inside a commit record. The in-process equivalent of `kill -9`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// How many more bytes the writer is allowed to append before dying.
    pub at_byte: u64,
}

/// One committed snapshot read back from a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committed {
    /// Monotonic commit sequence number (0-based).
    pub seq: u64,
    /// The snapshot payload, bit-identical to what was committed.
    pub payload: Vec<u8>,
    /// Caller-owned cursor metadata committed alongside the payload.
    pub meta: Vec<u8>,
}

/// Encodes the replay cursor a training run commits as the metadata of
/// each snapshot: the next global step and the loss of every step before
/// it, `next_step u64 · n u64 · n × f32` (little-endian, floats as raw
/// bits so a cold restart reproduces the loss history bitwise).
pub fn encode_cursor(next_step: u64, losses: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + losses.len() * 4);
    out.extend_from_slice(&next_step.to_le_bytes());
    out.extend_from_slice(&(losses.len() as u64).to_le_bytes());
    for l in losses {
        out.extend_from_slice(&l.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_cursor`]: `(next_step, losses)`, or `None` on any
/// truncation or length lie.
pub fn decode_cursor(meta: &[u8]) -> Option<(u64, Vec<f32>)> {
    let next_step = u64::from_le_bytes(meta.get(..8)?.try_into().ok()?);
    let n = usize::try_from(u64::from_le_bytes(meta.get(8..16)?.try_into().ok()?)).ok()?;
    if meta.len() != n.checked_mul(4)?.checked_add(16)? {
        return None;
    }
    let losses = meta[16..]
        .chunks_exact(4)
        .map(|b| f32::from_bits(u32::from_le_bytes(b.try_into().expect("4 bytes"))))
        .collect();
    Some((next_step, losses))
}

/// What [`DiskStore::open`] found and did: how much log it scanned, how
/// many commits survived, and how many torn-tail bytes it truncated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Segment files present after recovery.
    pub segments: usize,
    /// Committed snapshots found in the log.
    pub commits: u64,
    /// Valid log bytes retained.
    pub bytes_kept: u64,
    /// Torn or corrupt tail bytes truncated away (0 for a clean log).
    pub truncated_bytes: u64,
}

/// Durable snapshot sink the recovery stack persists through. The
/// in-memory impl ([`MemStore`]) keeps every existing in-process test
/// byte-identical; [`DiskStore`] survives `kill -9`.
pub trait Store {
    /// Atomically commits one snapshot payload plus caller cursor
    /// metadata; returns the commit sequence number. A snapshot that does
    /// not fit one record (see the crate docs) is refused with
    /// [`StoreError::Oversize`] and nothing is written.
    fn commit(&mut self, payload: &[u8], meta: &[u8]) -> Result<u64, StoreError>;
    /// The latest committed snapshot, if any.
    fn latest(&self) -> Result<Option<Committed>, StoreError>;
    /// The snapshot committed with sequence number `seq`, if it exists.
    /// Stores retain every commit, so a registry layered on top can pin a
    /// tenant to a historical adapter version, not just the newest one.
    fn committed(&self, seq: u64) -> Result<Option<Committed>, StoreError>;
    /// Number of snapshots committed so far (including recovered ones).
    fn commits(&self) -> u64;
    /// Arms the [`CrashPoint`] adversary: the writer dies `at_byte` bytes
    /// into its subsequent appends. No-op for stores without a writer to
    /// kill (the in-memory impl).
    fn arm_crash(&mut self, at_byte: u64) {
        let _ = at_byte;
    }
}

/// Every commit a store holds, indexed by seq: `(payload, meta)`.
type Log = Vec<(Vec<u8>, Vec<u8>)>;

fn read_back(log: &Log, seq: u64) -> Option<Committed> {
    let (payload, meta) = log.get(usize::try_from(seq).ok()?)?;
    Some(Committed {
        seq,
        payload: payload.clone(),
        meta: meta.clone(),
    })
}

/// Length of the commit record payload that carries `payload_len` snapshot
/// bytes and `meta_len` metadata bytes, or [`StoreError::Oversize`] when
/// one record cannot hold them. Both stores refuse the same commits, so a
/// run that passes over a [`MemStore`] also fits a [`DiskStore`], and
/// nothing is acknowledged that [`DiskStore::open`] would read back as a
/// torn tail.
fn commit_body_len(payload_len: usize, meta_len: usize) -> Result<u32, StoreError> {
    let body = (payload_len as u64)
        .saturating_add(meta_len as u64)
        .saturating_add(8 + 4);
    if body > MAX_PAYLOAD as u64 {
        return Err(StoreError::Oversize(body));
    }
    Ok(body as u32)
}

/// Volatile [`Store`]: commits live in process memory, with no durability.
/// The default store for in-process tests and the serve platform, where
/// `kill -9` does not matter.
#[derive(Debug, Default)]
pub struct MemStore {
    log: Log,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Store for MemStore {
    fn commit(&mut self, payload: &[u8], meta: &[u8]) -> Result<u64, StoreError> {
        commit_body_len(payload.len(), meta.len())?;
        self.log.push((payload.to_vec(), meta.to_vec()));
        Ok(self.log.len() as u64 - 1)
    }

    fn latest(&self) -> Result<Option<Committed>, StoreError> {
        self.committed(self.log.len().wrapping_sub(1) as u64)
    }

    fn committed(&self, seq: u64) -> Result<Option<Committed>, StoreError> {
        Ok(read_back(&self.log, seq))
    }

    fn commits(&self) -> u64 {
        self.log.len() as u64
    }
}

/// Append-only, CRC-framed, crash-safe [`Store`] over a directory of
/// segment files. See the crate docs for the format and the recovery
/// contract.
pub struct DiskStore {
    dir: PathBuf,
    seg_index: u64,
    seg_file: File,
    seg_len: u64,
    segment_bytes: u64,
    segments: usize,
    log: Log,
    commit_sizes: Vec<u64>,
    bytes_written: u64,
    crash: Option<(u64, u64)>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.wal"))
}

fn encode_commit(seq: u64, payload: &[u8], meta: &[u8]) -> Result<Vec<u8>, StoreError> {
    let len = commit_body_len(payload.len(), meta.len())?;
    let mut out = Vec::with_capacity(HEADER + len as usize + 4);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(TAG_COMMIT);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(meta);
    out.extend_from_slice(payload);
    let crc = checksum(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// The whole record at the front of `bytes`: its `version..payload` bytes
/// (what the CRC covers, verified) and its total encoded length. Version
/// and tag are not looked at: every version of the format frames its
/// records this way. An error is a typed reason the bytes are not a whole
/// record — the open scan treats any of them as the start of the torn tail.
fn whole_record(bytes: &[u8]) -> Result<(&[u8], usize), StoreError> {
    if bytes.len() < HEADER + 4 {
        return Err(StoreError::Malformed("incomplete record header"));
    }
    if bytes[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&bytes[..4]);
        return Err(StoreError::BadMagic(m));
    }
    let len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
    if len > MAX_PAYLOAD {
        return Err(StoreError::Oversize(len as u64));
    }
    let total = HEADER + len as usize + 4;
    if bytes.len() < total {
        return Err(StoreError::Malformed("record extends past end of segment"));
    }
    let (covered, trailer) = bytes[4..total].split_at(total - 8);
    let got = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let expected = checksum(covered);
    if got != expected {
        return Err(StoreError::BadChecksum { expected, got });
    }
    Ok((covered, total))
}

/// One commit record read off the log during the open scan.
struct Commit<'a> {
    seq: u64,
    meta: &'a [u8],
    payload: &'a [u8],
}

/// Decodes the CRC-verified `version..payload` bytes of a record. These
/// bytes are what some writer made durable, so an error here is not a torn
/// tail: the open scan returns it and touches nothing.
fn decode_commit(covered: &[u8]) -> Result<Commit<'_>, StoreError> {
    if covered[0] != VERSION {
        return Err(StoreError::BadVersion(covered[0]));
    }
    if covered[1] != TAG_COMMIT {
        return Err(StoreError::BadTag(covered[1]));
    }
    // `covered` starts behind the magic: version, tag, len, then the body.
    let body = &covered[HEADER - 4..];
    if body.len() < 8 + 4 {
        return Err(StoreError::Malformed("commit record header truncated"));
    }
    let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let meta_len = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    let rest = &body[12..];
    if rest.len() < meta_len {
        return Err(StoreError::Malformed("commit meta extends past record"));
    }
    let (meta, payload) = rest.split_at(meta_len);
    Ok(Commit { seq, meta, payload })
}

impl DiskStore {
    /// Opens (or creates) a store at `dir`, recovering from any torn tail:
    /// the log is scanned front to back, every record CRC-verified, and
    /// the first incomplete or CRC-failing record — plus everything after
    /// it — truncated away. Returns the recovered store and a typed report
    /// of what was kept and what was dropped.
    ///
    /// # Errors
    /// A record that passes its CRC but is not the next commit of this
    /// format ([`StoreError::BadVersion`], [`StoreError::BadTag`],
    /// [`StoreError::Malformed`]) fails the open with no file modified.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, OpenReport), StoreError> {
        Self::open_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`DiskStore::open`] with an explicit segment rotation threshold
    /// (tests use tiny segments to exercise rotation).
    pub fn open_with_segment_bytes(
        dir: impl AsRef<Path>,
        segment_bytes: u64,
    ) -> Result<(Self, OpenReport), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut indices: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(idx) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                indices.push(idx);
            }
        }
        indices.sort_unstable();
        if indices.is_empty() {
            indices.push(0);
            File::create(segment_path(&dir, 0))?;
        }

        let mut log = Log::new();
        let mut report = OpenReport::default();
        // (segment index, byte offset) where the valid log ends.
        let mut cut: Option<(u64, u64)> = None;

        'scan: for &idx in &indices {
            let mut bytes = Vec::new();
            File::open(segment_path(&dir, idx))?.read_to_end(&mut bytes)?;
            let mut off = 0usize;
            while off < bytes.len() {
                let Ok((covered, total)) = whole_record(&bytes[off..]) else {
                    cut = Some((idx, off as u64));
                    break 'scan;
                };
                let commit = decode_commit(covered)?;
                if commit.seq != log.len() as u64 {
                    return Err(StoreError::Malformed("commit record out of sequence"));
                }
                log.push((commit.payload.to_vec(), commit.meta.to_vec()));
                off += total;
                report.bytes_kept += total as u64;
            }
        }

        // Truncate the torn tail: cut the segment the scan died in and
        // delete every later segment outright.
        if let Some((cut_idx, cut_off)) = cut {
            let path = segment_path(&dir, cut_idx);
            let len = fs::metadata(&path)?.len();
            report.truncated_bytes += len - cut_off;
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(cut_off)?;
            f.sync_data()?;
            for &idx in indices.iter().filter(|&&i| i > cut_idx) {
                let path = segment_path(&dir, idx);
                report.truncated_bytes += fs::metadata(&path)?.len();
                fs::remove_file(&path)?;
            }
            indices.retain(|&i| i <= cut_idx);
        }

        let seg_index = *indices.last().expect("at least one segment");
        let seg_file = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, seg_index))?;
        let seg_len = fs::metadata(segment_path(&dir, seg_index))?.len();

        report.segments = indices.len();
        report.commits = log.len() as u64;
        pac_telemetry::gauge_set("store.segments", indices.len() as u64);

        Ok((
            Self {
                dir,
                seg_index,
                seg_file,
                seg_len,
                segment_bytes,
                segments: indices.len(),
                log,
                commit_sizes: Vec::new(),
                bytes_written: 0,
                crash: None,
            },
            report,
        ))
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes appended through this handle (not counting recovered log).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes each [`Store::commit`] through this handle appended — the
    /// crash adversary uses these extents to aim inside a specific commit.
    pub fn commit_sizes(&self) -> &[u64] {
        &self.commit_sizes
    }

    /// Appends `buf` to the current segment, honoring an armed
    /// [`CrashPoint`]: if the budget runs out inside `buf`, only the
    /// prefix reaches the file (made durable, as a real torn write would
    /// be) and the writer is dead from then on.
    fn write_raw(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        if let Some((armed_at, remaining)) = self.crash {
            if remaining < buf.len() as u64 {
                let torn = &buf[..remaining as usize];
                self.seg_file.write_all(torn)?;
                self.seg_file.sync_data()?;
                self.seg_len += remaining;
                self.bytes_written += remaining;
                self.crash = Some((armed_at, 0));
                return Err(StoreError::Injected { at_byte: armed_at });
            }
            self.crash = Some((armed_at, remaining - buf.len() as u64));
        }
        self.seg_file.write_all(buf)?;
        self.seg_len += buf.len() as u64;
        self.bytes_written += buf.len() as u64;
        pac_telemetry::counter_add("store.bytes_written", buf.len() as u64);
        Ok(())
    }

    fn maybe_rotate(&mut self) -> Result<(), StoreError> {
        if self.seg_len < self.segment_bytes {
            return Ok(());
        }
        self.seg_file.sync_data()?;
        self.seg_index += 1;
        self.seg_file = OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(segment_path(&self.dir, self.seg_index))?;
        self.seg_len = 0;
        self.segments += 1;
        pac_telemetry::gauge_set("store.segments", self.segments as u64);
        Ok(())
    }
}

impl Store for DiskStore {
    fn commit(&mut self, payload: &[u8], meta: &[u8]) -> Result<u64, StoreError> {
        let seq = self.log.len() as u64;
        let record = encode_commit(seq, payload, meta)?;
        self.maybe_rotate()?;
        self.write_raw(&record)?;
        self.seg_file.sync_data()?;

        self.log.push((payload.to_vec(), meta.to_vec()));
        self.commit_sizes.push(record.len() as u64);
        Ok(seq)
    }

    fn latest(&self) -> Result<Option<Committed>, StoreError> {
        self.committed(self.log.len().wrapping_sub(1) as u64)
    }

    fn committed(&self, seq: u64) -> Result<Option<Committed>, StoreError> {
        Ok(read_back(&self.log, seq))
    }

    fn commits(&self) -> u64 {
        self.log.len() as u64
    }

    fn arm_crash(&mut self, at_byte: u64) {
        self.crash = Some((at_byte, at_byte));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pac-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cursor_codec_round_trips_and_rejects_damage() {
        let losses = vec![0.75f32, 0.5, f32::from_bits(0x7fc0_0001)];
        let bytes = encode_cursor(7, &losses);
        let (next_step, back) = decode_cursor(&bytes).expect("clean decode");
        assert_eq!(next_step, 7);
        let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&losses));
        assert_eq!(decode_cursor(&encode_cursor(0, &[])), Some((0, Vec::new())));
        // Truncation anywhere.
        for cut in 0..bytes.len() {
            assert!(decode_cursor(&bytes[..cut]).is_none(), "cut {cut} decoded");
        }
        // A trailing byte, and a loss count that lies either way or
        // overflows the length arithmetic.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_cursor(&long).is_none());
        for n in [2u64, 4, u64::MAX / 2, u64::MAX] {
            let mut lie = bytes.clone();
            lie[8..16].copy_from_slice(&n.to_le_bytes());
            assert!(decode_cursor(&lie).is_none(), "count {n} decoded");
        }
    }

    #[test]
    fn empty_store_has_no_latest() {
        let dir = tmp_dir("empty");
        let (store, report) = DiskStore::open(&dir).expect("open");
        assert_eq!(report.commits, 0);
        assert_eq!(report.truncated_bytes, 0);
        assert!(store.latest().expect("latest").is_none());
        assert_eq!(store.commits(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_then_reopen_round_trips_bitwise() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut store, _) = DiskStore::open(&dir).expect("open");
            store.commit(b"snapshot-zero", b"meta-0").expect("commit 0");
            store
                .commit(b"snapshot-one-larger", b"meta-1")
                .expect("commit 1");
        }
        let (store, report) = DiskStore::open(&dir).expect("reopen");
        assert_eq!(report.commits, 2);
        assert_eq!(report.truncated_bytes, 0);
        let last = store.latest().expect("latest").expect("some");
        assert_eq!(last.seq, 1);
        assert_eq!(last.payload, b"snapshot-one-larger");
        assert_eq!(last.meta, b"meta-1");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_at_threshold() {
        let dir = tmp_dir("rotate");
        let (mut store, _) = DiskStore::open_with_segment_bytes(&dir, 1024).expect("open");
        for i in 0..8u8 {
            let payload: Vec<u8> = (0..600).map(|j| (j as u8).wrapping_add(i)).collect();
            store.commit(&payload, &[i]).expect("commit");
        }
        assert!(store.segments > 1, "no rotation after 8 oversized commits");
        let (store, report) = DiskStore::open_with_segment_bytes(&dir, 1024).expect("reopen");
        assert_eq!(report.commits, 8);
        assert!(report.segments > 1);
        let last = store.latest().expect("latest").expect("some");
        assert_eq!(last.meta, vec![7]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_point_tears_the_writer_mid_append() {
        let dir = tmp_dir("crash");
        let (mut store, _) = DiskStore::open(&dir).expect("open");
        store.commit(b"durable", b"m0").expect("commit 0");
        store.arm_crash(10);
        match store.commit(b"lost-to-the-crash", b"m1") {
            Err(StoreError::Injected { at_byte: 10 }) => {}
            other => panic!("expected injected crash, got {other:?}"),
        }
        // The handle is dead: even a retry fails without touching the log.
        assert!(matches!(
            store.commit(b"retry", b"m2"),
            Err(StoreError::Injected { .. })
        ));
        drop(store);
        let (store, report) = DiskStore::open(&dir).expect("recover");
        assert!(report.truncated_bytes > 0, "torn tail must be truncated");
        let last = store.latest().expect("latest").expect("some");
        assert_eq!(last.payload, b"durable");
        assert_eq!(last.meta, b"m0");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_round_trips() {
        let mut store = MemStore::new();
        assert!(store.latest().expect("latest").is_none());
        assert_eq!(store.commit(b"p0", b"m0").expect("c0"), 0);
        assert_eq!(store.commit(b"p1", b"m1").expect("c1"), 1);
        let last = store.latest().expect("latest").expect("some");
        assert_eq!(
            (last.seq, &last.payload[..], &last.meta[..]),
            (1, &b"p1"[..], &b"m1"[..])
        );
        store.arm_crash(3); // no-op by contract
        assert_eq!(store.commit(b"p2", b"m2").expect("c2"), 2);
    }

    #[test]
    fn committed_history_is_addressable_on_both_stores() {
        let dir = tmp_dir("history");
        let mut mem = MemStore::new();
        let (mut disk, _) = DiskStore::open(&dir).expect("open");
        for store in [&mut mem as &mut dyn Store, &mut disk as &mut dyn Store] {
            store.commit(b"v0", b"m0").expect("c0");
            store.commit(b"v1", b"m1").expect("c1");
            store.commit(b"v2", b"m2").expect("c2");
            let mid = store.committed(1).expect("committed").expect("some");
            assert_eq!(
                (mid.seq, &mid.payload[..], &mid.meta[..]),
                (1, &b"v1"[..], &b"m1"[..])
            );
            assert!(store.committed(3).expect("committed").is_none());
        }
        drop(disk);
        // History survives recovery, not just the latest commit.
        let (disk, report) = DiskStore::open(&dir).expect("reopen");
        assert_eq!(report.commits, 3);
        let first = disk.committed(0).expect("committed").expect("some");
        assert_eq!(first.payload, b"v0");
        fs::remove_dir_all(&dir).ok();
    }

    /// A record framed by hand, not by `encode_commit`: any version, any
    /// tag, a CRC that holds.
    fn framed(version: u8, tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut rec = MAGIC.to_vec();
        rec.push(version);
        rec.push(tag);
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        let crc = checksum(&rec[4..]);
        rec.extend_from_slice(&crc.to_le_bytes());
        rec
    }

    #[test]
    fn crc_valid_record_of_another_format_fails_open_and_is_not_truncated() {
        // seq 5, no meta, no snapshot: a whole commit body, but never the
        // next one of a log of zero or one commits.
        let commit_body = [5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        // (label, record, the typed error `open` must return, rendered)
        let cases = [
            // A version-1 log opens with a chunk blob: hash, then bytes.
            (
                "v1",
                framed(1, 1, &[7u8; 24]),
                "unsupported store version 1",
            ),
            (
                "tag",
                framed(VERSION, 9, &commit_body),
                "unknown record tag 9",
            ),
            (
                "short",
                framed(VERSION, TAG_COMMIT, &commit_body[..11]),
                "malformed record: commit record header truncated",
            ),
            (
                "seq",
                framed(VERSION, TAG_COMMIT, &commit_body),
                "malformed record: commit record out of sequence",
            ),
        ];
        for (label, record, want) in cases {
            for prior in [0usize, 1] {
                let dir = tmp_dir(&format!("foreign-{label}-{prior}"));
                let (mut store, _) = DiskStore::open(&dir).expect("open");
                for _ in 0..prior {
                    store.commit(b"", b"").expect("prior commit");
                }
                drop(store);
                let seg = segment_path(&dir, 0);
                let mut bytes = fs::read(&seg).expect("read segment");
                bytes.extend_from_slice(&record);
                fs::write(&seg, &bytes).expect("append foreign record");

                let err = match DiskStore::open(&dir) {
                    Err(e) => e,
                    Ok((_, report)) => panic!("[{label}/{prior}] opened: {report:?}"),
                };
                assert_eq!(err.to_string(), want, "[{label}/{prior}]");
                assert_eq!(
                    fs::read(&seg).expect("read segment"),
                    bytes,
                    "[{label}/{prior}] the refused log was modified"
                );
                fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn oversize_commit_is_refused_before_a_byte_is_written() {
        let max = MAX_PAYLOAD as usize;
        assert_eq!(commit_body_len(max - 12, 0).expect("fits"), MAX_PAYLOAD);
        assert_eq!(commit_body_len(0, max - 12).expect("fits"), MAX_PAYLOAD);
        assert_eq!(commit_body_len(max - 20, 8).expect("fits"), MAX_PAYLOAD);
        for (payload_len, meta_len) in [(max - 11, 0), (0, max - 11), (max - 19, 8)] {
            assert!(matches!(
                commit_body_len(payload_len, meta_len),
                Err(StoreError::Oversize(n)) if n == MAX_PAYLOAD as u64 + 1
            ));
        }
        assert!(matches!(
            commit_body_len(usize::MAX, usize::MAX),
            Err(StoreError::Oversize(_))
        ));

        // One byte over, through both stores. The zeroed allocation is
        // never touched, so it costs address space, not memory.
        let dir = tmp_dir("oversize");
        let snapshot = vec![0u8; max - 19];
        let mut mem = MemStore::new();
        let (mut disk, _) = DiskStore::open(&dir).expect("open");
        for store in [&mut mem as &mut dyn Store, &mut disk as &mut dyn Store] {
            assert!(matches!(
                store.commit(&snapshot, b"8 bytes!"),
                Err(StoreError::Oversize(_))
            ));
            assert_eq!(store.commits(), 0);
        }
        assert_eq!(disk.bytes_written(), 0);
        assert_eq!(fs::metadata(segment_path(&dir, 0)).expect("stat").len(), 0);
        // The refusal is not a crash: the handle still commits.
        disk.commit(b"fits", b"").expect("commit after refusal");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_payload_commits_cleanly() {
        let dir = tmp_dir("emptypayload");
        let (mut store, _) = DiskStore::open(&dir).expect("open");
        store.commit(b"", b"cursor-only").expect("commit");
        drop(store);
        let (store, _) = DiskStore::open(&dir).expect("reopen");
        let last = store.latest().expect("latest").expect("some");
        assert!(last.payload.is_empty());
        assert_eq!(last.meta, b"cursor-only");
        fs::remove_dir_all(&dir).ok();
    }
}
