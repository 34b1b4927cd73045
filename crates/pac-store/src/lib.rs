//! `pac-store`: a crash-safe, append-only segment log for checkpoint
//! snapshots.
//!
//! Every recovery path in the workspace (session rollback, elastic
//! catch-up, the distributed driver's `checkpoint_every` snapshots)
//! ultimately serializes a `PACCKPT2` blob. This crate gives those blobs a
//! durable home that survives `kill -9`:
//!
//! ```text
//! segment file  seg-000000.wal (rotated at a byte threshold)
//!
//!   record  := magic "PACS" · version u8 · tag u8 · len u32 LE
//!              · payload[len] · crc u32 LE        (FNV-1a over
//!                                                  version..payload)
//!   blob    := tag 1, payload = chunk-hash u64 LE · chunk bytes
//!   commit  := tag 2, payload = seq u64 · snapshot-len u64
//!              · meta-len u32 · meta · chunk-count u32 · hash u64 ...
//! ```
//!
//! **Atomicity.** A snapshot is written as its missing chunk blobs, an
//! `fsync` barrier, then one commit record, then a second `fsync`. A crash
//! at *any* byte offset therefore leaves either (a) a fully committed
//! snapshot, or (b) a torn tail after the last commit record. [`DiskStore::open`]
//! scans the log front to back verifying every CRC; the first invalid or
//! incomplete record and everything after it is truncated away — never
//! decoded, never panicking — and the dropped byte count is reported in a
//! typed [`OpenReport`]. Recovery always lands on the last *committed*
//! snapshot.
//!
//! **Dedup.** Snapshot payloads are chunked and keyed by content hash
//! (64-bit FNV-1a), so near-identical checkpoints — e.g. per-tenant
//! adapter deltas that share a frozen backbone — reuse each other's blob
//! records. Hash collisions cannot corrupt data: a dedup hit is only taken
//! when the stored chunk bytes compare equal.
//!
//! Failures are typed [`StoreError`]s in the same discipline as
//! `pac-net`'s `NetError`: malformed input is rejected, never unwrapped.
//! The [`CrashPoint`] adversary tears the writer down at a seeded byte
//! offset mid-append — the in-process equivalent of `kill -9` — so tests
//! can prove the recovery contract at every offset.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// First bytes of every record.
pub const MAGIC: [u8; 4] = *b"PACS";
/// On-disk format version.
pub const VERSION: u8 = 1;
/// Chunk size for content-addressed dedup. Small enough that an adapter
/// delta maps to a handful of chunks, large enough to amortize framing.
pub const CHUNK_BYTES: usize = 4096;

const TAG_BLOB: u8 = 1;
const TAG_COMMIT: u8 = 2;
/// Refuse absurd payload lengths outright instead of allocating them.
const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;
/// Record header: magic + version + tag + len.
const HEADER: usize = 4 + 1 + 1 + 4;
/// Default segment rotation threshold.
const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

const FNV32_BASIS: u32 = 0x811c_9dc5;
const FNV32_PRIME: u32 = 0x0100_0193;
const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a32(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(FNV32_PRIME);
    }
    h
}

/// 32-bit FNV-1a record checksum. The framing idiom (checksum over
/// everything after the magic) is `pac-net`'s; the function is not — wire
/// frames carry `pac_net::wire::checksum`, this on-disk format keeps the
/// byte-serial FNV-1a its existing logs were written with.
pub fn checksum(bytes: &[u8]) -> u32 {
    fnv1a32(FNV32_BASIS, bytes)
}

/// 64-bit FNV-1a content hash used as the dedup key for snapshot chunks.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = FNV64_BASIS;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// [`content_hash`] of every [`CHUNK_BYTES`] chunk of `payload`, in order.
///
/// FNV-1a is one dependent multiply per byte, so a single chain leaves
/// the multiplier idle most of the time; four whole chunks are hashed per
/// pass in independent chains instead. Same values, chunk for chunk.
fn chunk_hashes(payload: &[u8]) -> Vec<u64> {
    let mut hashes = Vec::with_capacity(payload.len().div_ceil(CHUNK_BYTES));
    let mut quads = payload.chunks_exact(4 * CHUNK_BYTES);
    for quad in &mut quads {
        let (a, rest) = quad.split_at(CHUNK_BYTES);
        let (b, rest) = rest.split_at(CHUNK_BYTES);
        let (c, d) = rest.split_at(CHUNK_BYTES);
        let mut h = [FNV64_BASIS; 4];
        for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
            h[0] = (h[0] ^ a as u64).wrapping_mul(FNV64_PRIME);
            h[1] = (h[1] ^ b as u64).wrapping_mul(FNV64_PRIME);
            h[2] = (h[2] ^ c as u64).wrapping_mul(FNV64_PRIME);
            h[3] = (h[3] ^ d as u64).wrapping_mul(FNV64_PRIME);
        }
        hashes.extend(h);
    }
    hashes.extend(quads.remainder().chunks(CHUNK_BYTES).map(content_hash));
    hashes
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
    /// A record declared a payload longer than the store accepts.
    Oversize(u64),
    /// A structurally invalid record or commit (bad lengths, missing
    /// chunks, hash mismatch).
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

/// Cross-tenant dedup accounting: how much payload a store *didn't* have
/// to hold because a commit referenced chunks an earlier commit already
/// stored. Near-identical personal adapters (same backbone, same shapes,
/// slightly different weights) share most of their 4 KiB chunks, so these
/// numbers are the registry's "bytes saved by multi-tenancy" ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Chunk references resolved against an already-resident chunk.
    pub chunks_deduped: u64,
    /// Payload bytes those shared chunks covered (the storage avoided).
    pub bytes_shared: u64,
}

fn note_dedup(stats: &mut DedupStats, chunk_len: usize) {
    stats.chunks_deduped += 1;
    stats.bytes_shared += chunk_len as u64;
    pac_telemetry::counter_inc("store.dedup_hits");
    pac_telemetry::counter_inc("store.chunks_deduped");
    pac_telemetry::counter_add("store.bytes_shared", chunk_len as u64);
}

/// Reassembles a committed payload from its chunk-hash list.
fn reassemble(
    chunks: &HashMap<u64, Vec<u8>>,
    hashes: &[u64],
    payload_len: u64,
) -> Result<Vec<u8>, StoreError> {
    let mut payload = Vec::with_capacity((payload_len as usize).min(1 << 20));
    for h in hashes {
        let chunk = chunks
            .get(h)
            .ok_or(StoreError::Malformed("committed chunk missing from log"))?;
        payload.extend_from_slice(chunk);
    }
    if payload.len() as u64 != payload_len {
        return Err(StoreError::Malformed(
            "reassembled snapshot length mismatch",
        ));
    }
    Ok(payload)
}

/// What [`DiskStore::open`] found and did: how much log it scanned, how
/// many commits survived, and how many torn-tail bytes it truncated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Segment files present after recovery.
    pub segments: usize,
    /// Committed snapshots found in the log.
    pub commits: u64,
    /// Unique chunk blobs found in the log.
    pub blobs: usize,
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
    /// metadata; returns the commit sequence number.
    fn commit(&mut self, payload: &[u8], meta: &[u8]) -> Result<u64, StoreError>;
    /// The latest committed snapshot, if any.
    fn latest(&self) -> Result<Option<Committed>, StoreError>;
    /// The snapshot committed with sequence number `seq`, if it exists.
    /// Stores retain every commit, so a registry layered on top can pin a
    /// tenant to a historical adapter version, not just the newest one.
    fn committed(&self, seq: u64) -> Result<Option<Committed>, StoreError>;
    /// Number of snapshots committed so far (including recovered ones).
    fn commits(&self) -> u64;
    /// Cross-commit chunk sharing observed through this handle.
    fn dedup_stats(&self) -> DedupStats {
        DedupStats::default()
    }
    /// Arms the [`CrashPoint`] adversary: the writer dies `at_byte` bytes
    /// into its subsequent appends. No-op for stores without a writer to
    /// kill (the in-memory impl).
    fn arm_crash(&mut self, at_byte: u64) {
        let _ = at_byte;
    }
}

/// Volatile [`Store`]: commits live in process memory, chunked and
/// content-addressed exactly like [`DiskStore`] (same 4 KiB chunks, same
/// dedup key, same collision rejection) but with no durability. The
/// default store for in-process tests and the loopback serve demo, where
/// dedup accounting still matters but `kill -9` does not.
#[derive(Debug, Default)]
pub struct MemStore {
    chunks: HashMap<u64, Vec<u8>>,
    // Per commit: chunk-hash list, payload length, caller metadata.
    log: Vec<(Vec<u64>, u64, Vec<u8>)>,
    stats: DedupStats,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes held by unique chunks (what dedup actually keeps resident).
    pub fn chunk_bytes(&self) -> u64 {
        self.chunks.values().map(|c| c.len() as u64).sum()
    }
}

impl Store for MemStore {
    fn commit(&mut self, payload: &[u8], meta: &[u8]) -> Result<u64, StoreError> {
        let hashes = chunk_hashes(payload);
        for (chunk, &hash) in payload.chunks(CHUNK_BYTES).zip(&hashes) {
            match self.chunks.get(&hash) {
                Some(existing) if existing == chunk => {
                    note_dedup(&mut self.stats, chunk.len());
                }
                Some(_) => return Err(StoreError::Malformed("chunk hash collision")),
                None => {
                    self.chunks.insert(hash, chunk.to_vec());
                }
            }
        }
        self.log.push((hashes, payload.len() as u64, meta.to_vec()));
        Ok(self.log.len() as u64 - 1)
    }

    fn latest(&self) -> Result<Option<Committed>, StoreError> {
        self.committed(self.log.len().wrapping_sub(1) as u64)
    }

    fn committed(&self, seq: u64) -> Result<Option<Committed>, StoreError> {
        let Some((hashes, payload_len, meta)) = self.log.get(seq as usize) else {
            return Ok(None);
        };
        Ok(Some(Committed {
            seq,
            payload: reassemble(&self.chunks, hashes, *payload_len)?,
            meta: meta.clone(),
        }))
    }

    fn commits(&self) -> u64 {
        self.log.len() as u64
    }

    fn dedup_stats(&self) -> DedupStats {
        self.stats
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
    chunks: HashMap<u64, Vec<u8>>,
    // Per commit, indexed by seq: chunk-hash list, payload length, meta.
    log: Vec<(Vec<u64>, u64, Vec<u8>)>,
    commits: u64,
    commit_sizes: Vec<u64>,
    bytes_written: u64,
    stats: DedupStats,
    crash: Option<(u64, u64)>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.wal"))
}

fn encode_record(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = checksum(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// One record parsed off the log during the open scan.
enum Record<'a> {
    Blob {
        hash: u64,
        data: &'a [u8],
    },
    Commit {
        seq: u64,
        payload_len: u64,
        meta: &'a [u8],
        hashes: Vec<u64>,
    },
}

/// Parses the record starting at `bytes[0..]`. Returns the record and its
/// total encoded length, or a typed reason the bytes are not a record —
/// the open scan treats any error as the start of the torn tail.
fn parse_record(bytes: &[u8]) -> Result<(Record<'_>, usize), StoreError> {
    if bytes.len() < HEADER + 4 {
        return Err(StoreError::Malformed("incomplete record header"));
    }
    if bytes[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&bytes[..4]);
        return Err(StoreError::BadMagic(m));
    }
    if bytes[4] != VERSION {
        return Err(StoreError::BadVersion(bytes[4]));
    }
    let tag = bytes[5];
    let len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
    if len > MAX_PAYLOAD {
        return Err(StoreError::Oversize(len as u64));
    }
    let total = HEADER + len as usize + 4;
    if bytes.len() < total {
        return Err(StoreError::Malformed("record extends past end of segment"));
    }
    let payload = &bytes[HEADER..HEADER + len as usize];
    let got = u32::from_le_bytes([
        bytes[total - 4],
        bytes[total - 3],
        bytes[total - 2],
        bytes[total - 1],
    ]);
    let expected = checksum(&bytes[4..HEADER + len as usize]);
    if got != expected {
        return Err(StoreError::BadChecksum { expected, got });
    }
    let record = match tag {
        TAG_BLOB => {
            if payload.len() < 8 {
                return Err(StoreError::Malformed("blob record shorter than its hash"));
            }
            let hash = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            let data = &payload[8..];
            if content_hash(data) != hash {
                return Err(StoreError::Malformed(
                    "blob content does not match its hash",
                ));
            }
            Record::Blob { hash, data }
        }
        TAG_COMMIT => {
            if payload.len() < 8 + 8 + 4 {
                return Err(StoreError::Malformed("commit record header truncated"));
            }
            let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            let payload_len = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
            let meta_len =
                u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes")) as usize;
            let rest = &payload[20..];
            if rest.len() < meta_len + 4 {
                return Err(StoreError::Malformed("commit meta extends past record"));
            }
            let meta = &rest[..meta_len];
            let count =
                u32::from_le_bytes(rest[meta_len..meta_len + 4].try_into().expect("4 bytes"))
                    as usize;
            let hash_bytes = &rest[meta_len + 4..];
            if hash_bytes.len() != count * 8 {
                return Err(StoreError::Malformed("commit hash list length mismatch"));
            }
            let hashes = hash_bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            Record::Commit {
                seq,
                payload_len,
                meta,
                hashes,
            }
        }
        other => return Err(StoreError::BadTag(other)),
    };
    Ok((record, total))
}

impl DiskStore {
    /// Opens (or creates) a store at `dir`, recovering from any torn tail:
    /// the log is scanned front to back, every record CRC-verified, and
    /// the first invalid or incomplete record — plus everything after it —
    /// truncated away. Returns the recovered store and a typed report of
    /// what was kept and what was dropped.
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

        let mut chunks: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut log: Vec<(Vec<u64>, u64, Vec<u8>)> = Vec::new();
        let mut commits = 0u64;
        let mut report = OpenReport::default();
        // (segment index, byte offset) where the valid log ends.
        let mut cut: Option<(u64, u64)> = None;

        'scan: for &idx in &indices {
            let mut bytes = Vec::new();
            File::open(segment_path(&dir, idx))?.read_to_end(&mut bytes)?;
            let mut off = 0usize;
            while off < bytes.len() {
                match parse_record(&bytes[off..]) {
                    Ok((record, total)) => {
                        match record {
                            Record::Blob { hash, data } => {
                                chunks.entry(hash).or_insert_with(|| data.to_vec());
                            }
                            Record::Commit {
                                seq,
                                payload_len,
                                meta,
                                hashes,
                            } => {
                                let known: u64 = hashes
                                    .iter()
                                    .map(|h| chunks.get(h).map_or(0, |c| c.len() as u64))
                                    .sum();
                                if hashes.iter().any(|h| !chunks.contains_key(h))
                                    || known != payload_len
                                {
                                    // A commit referencing chunks the log
                                    // does not hold is as torn as a bad CRC.
                                    cut = Some((idx, off as u64));
                                    break 'scan;
                                }
                                // `seq` is informational; recovery indexes
                                // commits by their order in the log.
                                let _ = seq;
                                log.push((hashes, payload_len, meta.to_vec()));
                                commits += 1;
                            }
                        }
                        off += total;
                        report.bytes_kept += total as u64;
                    }
                    Err(_) => {
                        cut = Some((idx, off as u64));
                        break 'scan;
                    }
                }
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
        report.commits = commits;
        report.blobs = chunks.len();
        pac_telemetry::gauge_set("store.segments", indices.len() as u64);

        Ok((
            Self {
                dir,
                seg_index,
                seg_file,
                seg_len,
                segment_bytes,
                segments: indices.len(),
                chunks,
                log,
                commits,
                commit_sizes: Vec::new(),
                bytes_written: 0,
                stats: DedupStats::default(),
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
        self.maybe_rotate()?;
        let before = self.bytes_written;

        // Phase 1: append every chunk blob this snapshot needs and does
        // not already share with an earlier one.
        let hashes = chunk_hashes(payload);
        let mut wrote_blob = false;
        for (chunk, &hash) in payload.chunks(CHUNK_BYTES).zip(&hashes) {
            match self.chunks.get(&hash) {
                // Content-addressed hit: only trust the hash when the
                // bytes really are identical.
                Some(existing) if existing == chunk => {
                    note_dedup(&mut self.stats, chunk.len());
                    continue;
                }
                Some(_) => {
                    return Err(StoreError::Malformed("chunk hash collision"));
                }
                None => {}
            }
            let mut blob = Vec::with_capacity(8 + chunk.len());
            blob.extend_from_slice(&hash.to_le_bytes());
            blob.extend_from_slice(chunk);
            let rec = encode_record(TAG_BLOB, &blob);
            self.write_raw(&rec)?;
            self.chunks.insert(hash, chunk.to_vec());
            wrote_blob = true;
        }

        // Phase 2: fsync barrier — the commit record must never be durable
        // before the chunks it references.
        if wrote_blob {
            self.seg_file.sync_data()?;
        }

        // Phase 3: the commit record, then make it durable.
        let seq = self.commits;
        let mut body = Vec::with_capacity(8 + 8 + 4 + meta.len() + 4 + hashes.len() * 8);
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        body.extend_from_slice(meta);
        body.extend_from_slice(&(hashes.len() as u32).to_le_bytes());
        for h in &hashes {
            body.extend_from_slice(&h.to_le_bytes());
        }
        let rec = encode_record(TAG_COMMIT, &body);
        self.write_raw(&rec)?;
        self.seg_file.sync_data()?;

        self.log.push((hashes, payload.len() as u64, meta.to_vec()));
        self.commits += 1;
        self.commit_sizes.push(self.bytes_written - before);
        Ok(seq)
    }

    fn latest(&self) -> Result<Option<Committed>, StoreError> {
        self.committed(self.log.len().wrapping_sub(1) as u64)
    }

    fn committed(&self, seq: u64) -> Result<Option<Committed>, StoreError> {
        let Some((hashes, payload_len, meta)) = self.log.get(seq as usize) else {
            return Ok(None);
        };
        Ok(Some(Committed {
            seq,
            payload: reassemble(&self.chunks, hashes, *payload_len)?,
            meta: meta.clone(),
        }))
    }

    fn commits(&self) -> u64 {
        self.commits
    }

    fn dedup_stats(&self) -> DedupStats {
        self.stats
    }

    fn arm_crash(&mut self, at_byte: u64) {
        self.crash = Some((at_byte, at_byte));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn serial_chunk_hashes(payload: &[u8]) -> Vec<u64> {
        payload.chunks(CHUNK_BYTES).map(content_hash).collect()
    }

    #[test]
    fn interleaved_chunk_hashes_equal_content_hash_around_chunk_boundaries() {
        let c = CHUNK_BYTES;
        for len in [0, 1, c - 1, c, c + 1, 4 * c, 5 * c - 1, 8 * c, 9 * c + 7] {
            // Period 251 does not divide a chunk, so every chunk differs.
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(
                chunk_hashes(&payload),
                serial_chunk_hashes(&payload),
                "payload of {len} bytes"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn interleaved_chunk_hashes_equal_content_hash(
            payload in prop::collection::vec(0u8..=u8::MAX, 0..10 * CHUNK_BYTES),
        ) {
            prop_assert_eq!(chunk_hashes(&payload), serial_chunk_hashes(&payload));
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pac-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
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
    fn identical_payload_chunks_are_deduped() {
        let dir = tmp_dir("dedup");
        let payload: Vec<u8> = (0..3 * CHUNK_BYTES).map(|i| (i % 251) as u8).collect();
        let (mut store, _) = DiskStore::open(&dir).expect("open");
        store.commit(&payload, b"a").expect("first");
        let before = store.bytes_written();
        store.commit(&payload, b"b").expect("second");
        let second_cost = store.bytes_written() - before;
        // The second commit shares every chunk: it only pays for its
        // commit record, far below one chunk.
        assert!(
            second_cost < CHUNK_BYTES as u64,
            "dedup failed: second commit cost {second_cost} bytes"
        );
        let last = store.latest().expect("latest").expect("some");
        assert_eq!(last.payload, payload);
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

    #[test]
    fn mem_store_dedups_chunks_with_accounting() {
        let mut store = MemStore::new();
        let payload: Vec<u8> = (0..3 * CHUNK_BYTES).map(|i| (i % 253) as u8).collect();
        store.commit(&payload, b"a").expect("first");
        assert_eq!(store.dedup_stats(), DedupStats::default());
        store.commit(&payload, b"b").expect("second");
        let stats = store.dedup_stats();
        assert_eq!(stats.chunks_deduped, 3);
        assert_eq!(stats.bytes_shared, payload.len() as u64);
        // Unique chunk bytes did not grow on the second commit.
        assert_eq!(store.chunk_bytes(), payload.len() as u64);
        let last = store.latest().expect("latest").expect("some");
        assert_eq!(last.payload, payload);
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
