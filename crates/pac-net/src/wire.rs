//! Length-prefixed binary wire format for PAC control and tensor traffic.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! [0..4)   magic  b"PACN"
//! [4]      format version ([`VERSION`], the only one accepted)
//! [5]      message type tag
//! [6..10)  payload length, u32 little-endian
//! [10..)   payload (type-specific)
//! [..+4)   [`checksum`] of bytes [4..) so far (version, tag, length,
//!          payload), u32 little-endian
//! ```
//!
//! Floats are encoded as their IEEE-754 bit patterns (`f32::to_bits`), so
//! tensors survive the wire **bitwise** — including NaN payloads, signed
//! zeros, and subnormals. That is what lets the distributed engines claim
//! bit-identical results against the in-process engines: the transport
//! never rounds, normalizes, or re-parses a float.
//!
//! Decoding is paranoid: bad magic, unknown version or tag, oversized
//! lengths, short payloads, and checksum mismatches are all typed
//! [`NetError`]s, never panics. A corrupted or truncated frame can reject,
//! but cannot crash a worker or misparse into a different message.

use pac_model::StageData;
use pac_parallel::engine::MicroBatch;
use pac_parallel::schedule::SimEvent;
use pac_parallel::Schedule;
use pac_tensor::{bytes, Shape, Tensor, MAX_RANK};
use std::borrow::Borrow;
use std::fmt;
use std::io::Read;

/// Frame preamble: identifies a PAC net frame.
pub const MAGIC: [u8; 4] = *b"PACN";
/// The wire format version: every frame is stamped with it and a frame
/// carrying any other value is a typed [`NetError::BadVersion`]. There is
/// one version because every worker is spawned from the coordinator's own
/// binary, and because the checksum defines the version — a peer that
/// computes a different [`checksum`] could not verify a single frame.
/// Versions 1 and 2 carried a byte-serial FNV-1a trailer.
pub const VERSION: u8 = 3;
/// Upper bound on a single frame's payload (defense against a corrupted
/// length field allocating gigabytes).
pub const MAX_PAYLOAD: usize = 256 * 1024 * 1024;
/// Upper bound on tensor element count accepted off the wire.
pub const MAX_NUMEL: usize = 1 << 26;
/// Upper bound on string lengths accepted off the wire.
pub const MAX_STR: usize = 4096;

/// Typed transport errors. Socket-level failures keep their `io::Error`
/// flavor; protocol-level failures say exactly which invariant broke.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error (connect, write, mid-frame read failure).
    Io(std::io::Error),
    /// A read deadline expired (peer alive but silent, or stalled).
    Timeout,
    /// The peer closed the connection cleanly (EOF at a frame boundary or
    /// mid-frame).
    Eof,
    /// The first four bytes were not [`MAGIC`] — not a PAC peer, or the
    /// stream lost framing.
    BadMagic([u8; 4]),
    /// The peer speaks a different wire format version.
    BadVersion(u8),
    /// Unknown message type tag.
    BadType(u8),
    /// The payload checksum did not match (corruption in transit).
    BadChecksum {
        /// Checksum computed over the received payload.
        expected: u32,
        /// Checksum carried by the frame.
        got: u32,
    },
    /// A length field exceeded its sanity bound.
    Oversize(u64),
    /// The payload was structurally invalid (short read, bad enum tag,
    /// inconsistent dimensions).
    Malformed(&'static str),
    /// The deterministic network simulation reached quiescence with no
    /// future events, or ran past its virtual-time horizon — every actor is
    /// blocked and nothing can ever wake them. Only produced by the
    /// [`crate::simnet`] transport; real sockets surface stalls as
    /// [`NetError::Timeout`] instead.
    Deadlock(&'static str),
    /// A peer missed its step deadline: it still owed the coordinator a
    /// step's verdict or snapshot `net_timeout` after the step became the
    /// oldest in flight. Unlike [`NetError::Timeout`] (one read ran out of
    /// patience) this is a *membership* verdict — the rank is presumed
    /// gone and the world must be relaunched without waiting for EOF.
    Stale,
    /// A non-blocking operation could not make progress *right now*: a
    /// poll-mode receive had no complete frame buffered. Distinct from [`NetError::Timeout`]
    /// (a deadline actually expired) — would-block is the readiness
    /// loop's "come back after the next wakeup", not a failure.
    WouldBlock,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Timeout => write!(f, "read timed out"),
            NetError::Eof => write!(f, "peer closed the connection"),
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            NetError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            NetError::BadType(t) => write!(f, "unknown message type {t}"),
            NetError::BadChecksum { expected, got } => {
                write!(f, "payload checksum mismatch: computed {expected:#010x}, frame carried {got:#010x}")
            }
            NetError::Oversize(n) => write!(f, "length field {n} exceeds sanity bound"),
            NetError::Malformed(what) => write!(f, "malformed payload: {what}"),
            NetError::Deadlock(why) => write!(f, "simulated world deadlocked: {why}"),
            NetError::Stale => write!(f, "peer missed its step deadline"),
            NetError::WouldBlock => write!(f, "operation would block"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout,
            ErrorKind::UnexpectedEof => NetError::Eof,
            _ => NetError::Io(e),
        }
    }
}

/// The frame checksum, `pac_tensor::bytes::checksum` (eight interleaved
/// FNV-style lanes; any single corrupted byte is detected with certainty),
/// shared with the `PACCKPT3` checkpoint trailer.
///
/// A frame's checksum covers the header's version, tag, and length fields
/// *plus* the payload, so a bit-flip anywhere after the magic is caught —
/// a flipped type tag cannot make a frame silently decode as a different
/// (but structurally valid) message.
pub use pac_tensor::bytes::checksum;

/// Which role a freshly-accepted data connection plays, declared by the
/// dialer in its first frame ([`Msg::LinkHdr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Pipeline edge: dialer is stage `s`, acceptor is stage `s+1` of the
    /// same lane. Carries `Act` downstream and `Grad` upstream.
    Fwd,
    /// AllReduce ring edge: dialer is lane `k`, acceptor is lane
    /// `(k+1) % lanes` of the same stage. Carries `GradBlock`.
    Ring,
}

/// Everything a worker needs to deterministically rebuild its slice of the
/// world: identity, topology, seeded model architecture, and run settings.
///
/// Workers are interchangeable until they receive this — the coordinator
/// assigns ranks in arrival order, and every worker reconstructs the *same*
/// initial parameters from `seed`, so no weights ever ship at startup.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// This worker's rank (`stage * lanes + lane`).
    pub rank: u32,
    /// Data-parallel lane index.
    pub lane: u32,
    /// Pipeline stage index.
    pub stage: u32,
    /// Number of data-parallel lanes.
    pub lanes: u32,
    /// Number of pipeline stages.
    pub stages: u32,
    /// Model/parameter init seed (shared by every rank and the reference
    /// in-process engine).
    pub seed: u64,
    /// SGD learning rate.
    pub lr: f32,
    /// Encoder layers in the full model.
    pub enc_layers: u32,
    /// Hidden width.
    pub hidden: u32,
    /// Attention heads.
    pub heads: u32,
    /// Classification head width.
    pub n_out: u32,
    /// Layers per pipeline stage (sums to `enc_layers`).
    pub partition: Vec<u32>,
    /// Micro-batch schedule to run.
    pub schedule: Schedule,
    /// Micro-batches per lane per step.
    pub micro_batches: u32,
    /// Read deadline for data-plane sockets, in milliseconds.
    pub net_timeout_ms: u32,
    /// Whether the worker should record `net.*` telemetry.
    pub telemetry: bool,
}

/// The complete message set of the PAC network protocol.
///
/// Equality compares encoded frames, i.e. **bitwise** float semantics
/// (NaN == NaN when the bit patterns match, `0.0 != -0.0`) — the
/// round-trip property the wire format actually guarantees.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Worker → coordinator, first frame on the control connection:
    /// announces the ephemeral port the worker's data-plane listener bound.
    Hello {
        /// Spawn slot, for diagnostics only (ranks are assigned by the
        /// coordinator, in arrival order).
        slot: u32,
        /// Data-plane listener port on the worker's host.
        listen_port: u16,
    },
    /// Coordinator → worker: rank and world assignment.
    Assign(Box<Assignment>),
    /// Coordinator → worker: data-plane ports of every rank, indexed by
    /// rank (all on loopback in this reproduction).
    Peers {
        /// `ports[r]` is rank `r`'s data listener port.
        ports: Vec<u16>,
    },
    /// Dialer → acceptor, first frame on every data connection: who is
    /// calling and which topology edge this socket is.
    LinkHdr {
        /// Dialer's rank.
        from_rank: u32,
        /// Edge role.
        kind: LinkKind,
    },
    /// Worker → coordinator: model built, mesh wired, ready for steps.
    Ready,
    /// Coordinator → worker: overwrite named parameters (checkpoint
    /// restore after a replan).
    Restore {
        /// `(param name, value)` pairs for this worker's stage.
        entries: Vec<(String, Tensor)>,
    },
    /// Coordinator → worker: run one lockstep training step.
    Step {
        /// Global step number.
        step: u64,
        /// Fault injection: the worker must drop dead *now* instead of
        /// running the step (models a fail-stop at this step).
        die: bool,
        /// Fault injection: wall-clock milliseconds the worker must stall
        /// before computing (models a straggler device: the lane's step
        /// is slow, its result unchanged). The stall is charged to the
        /// rank's reported busy time.
        stall_ms: u32,
        /// This lane's micro-batches — non-empty only for ranks that need
        /// inputs or labels (first and last pipeline stages).
        micro_batches: Vec<MicroBatch>,
        /// The parameters the rank sends back in a `ParamSnap` right after
        /// its `Done`, as they are after the step's update.
        snap: SnapReq,
    },
    /// Stage `s` → stage `s+1`: forward activation for one micro-batch.
    Act {
        /// Micro-batch id.
        micro: u32,
        /// Activation payload.
        data: StageData,
    },
    /// Stage `s+1` → stage `s`: backward gradient for one micro-batch.
    Grad {
        /// Micro-batch id.
        micro: u32,
        /// Gradient w.r.t. the boundary activation.
        grad: Tensor,
    },
    /// Ring AllReduce hop: one lane's full gradient block, forwarded
    /// around the ring during the allgather phase.
    GradBlock {
        /// Lane whose local gradients these are.
        origin_lane: u32,
        /// Trainable-parameter gradients in `visit_params_ref` order.
        tensors: Vec<Tensor>,
    },
    /// Worker → coordinator: step finished on this rank.
    Done {
        /// Reporting rank.
        rank: u32,
        /// Sum of micro-batch losses (meaningful on last-stage ranks only).
        loss_sum: f32,
        /// Transport-clock nanoseconds this rank spent computing the step
        /// (virtual under simnet, wall over TCP), injected stall included
        /// and the gradient collective excluded.
        busy_ns: u64,
        /// This stage's op timeline for the step (Gantt rendering).
        events: Vec<SimEvent>,
    },
    /// Worker → coordinator: parameter snapshot, in `visit_params_ref`
    /// order.
    ParamSnap {
        /// `(param name, value)` pairs.
        entries: Vec<(String, Tensor)>,
    },
    /// Worker → coordinator: a peer became unreachable mid-step; the
    /// worker is about to exit because its mesh is broken.
    Fault {
        /// Rank reporting the failure.
        observer: u32,
        /// Rank the observer blames (the silent end of the dead socket).
        blamed: u32,
        /// Human-readable description of what the observer saw.
        detail: String,
    },
    /// Latency probe of link calibration ([`crate::calib`], its only
    /// use): the peer echoes the nonce in a `HeartbeatAck`. Training
    /// traffic never carries it; a worker treats it as an unexpected
    /// control message.
    Heartbeat {
        /// Echo token.
        nonce: u64,
    },
    /// Reply to a calibration `Heartbeat`, echoing its nonce (or
    /// acknowledging a bulk transfer under [`crate::calib::BULK_ACK_NONCE`]).
    HeartbeatAck {
        /// Token from the probe being answered.
        nonce: u64,
    },
    /// Worker → coordinator, in response to `Shutdown`: final local
    /// telemetry counters for the coordinator to merge.
    Stats {
        /// Counter name/value pairs.
        counters: Vec<(String, u64)>,
    },
    /// Coordinator → worker: stop cleanly (reply with `Stats`, then exit).
    Shutdown,
    /// Client → serve gate: one tenant fine-tuning job submitted through
    /// the long-lived rendezvous listener. Job traffic is tenant-tagged at
    /// admission so the scheduler can enforce per-tenant fairness and
    /// attribute faults before any compute starts.
    JobSubmit {
        /// Tenant whose personal adapter this job trains.
        tenant: u64,
        /// Cached-training steps requested for this job.
        steps: u32,
        /// Seed for the tenant's private workload rows.
        seed: u64,
    },
    /// Serve gate → client: outcome of one tenant job.
    JobDone {
        /// Tenant the result belongs to.
        tenant: u64,
        /// Adapter version this job published in the registry (the
        /// tenant's last published version when the job faulted).
        version: u32,
        /// True when the job faulted: the fault was attributed to this
        /// tenant and its adapter rolled back to `version`.
        faulted: bool,
        /// Final training loss (NaN when the job faulted).
        final_loss: f32,
    },
}

/// The parameter snapshot a `Step` asks its rank for; the discriminant is
/// its byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapReq {
    /// No snapshot: the rank answers with its verdict alone.
    None = 0,
    /// The trainable parameters (a checkpoint).
    Trainable = 1,
    /// Every parameter, frozen ones included (the job's final parameters).
    All = 2,
}

impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        encode_frame(self) == encode_frame(other)
    }
}

impl Eq for Msg {}

/// Type tags of the two messages that also have a borrowed encoder.
const TAG_GRAD_BLOCK: u8 = 10;
const TAG_PARAM_SNAP: u8 = 13;

impl Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::Hello { .. } => 1,
            Msg::Assign(_) => 2,
            Msg::Peers { .. } => 3,
            Msg::LinkHdr { .. } => 4,
            Msg::Ready => 5,
            Msg::Restore { .. } => 6,
            Msg::Step { .. } => 7,
            Msg::Act { .. } => 8,
            Msg::Grad { .. } => 9,
            Msg::GradBlock { .. } => TAG_GRAD_BLOCK,
            Msg::Done { .. } => 11,
            Msg::ParamSnap { .. } => TAG_PARAM_SNAP,
            Msg::Fault { .. } => 14,
            Msg::Heartbeat { .. } => 15,
            Msg::HeartbeatAck { .. } => 16,
            Msg::Stats { .. } => 17,
            Msg::Shutdown => 18,
            Msg::JobSubmit { .. } => 20,
            Msg::JobDone { .. } => 21,
        }
    }
}

// ---------------------------------------------------------------------------
// Payload encoder / decoder
// ---------------------------------------------------------------------------

/// Builds one frame in place: header first (length patched by
/// [`Enc::seal`]), payload appended by the typed writers, trailer last.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Starts a frame of type `tag` with room for `payload` bytes, so a
    /// frame whose size is known up front is written into one allocation
    /// (a control frame fits in 64).
    fn frame(tag: u8, payload: usize) -> Enc {
        let mut buf = Vec::with_capacity((OVERHEAD + payload).max(64));
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(tag);
        buf.extend_from_slice(&[0; 4]);
        Enc { buf }
    }
    /// Patches the payload length into the header and appends the
    /// checksum of everything after the magic.
    fn seal(mut self) -> Vec<u8> {
        let len = self.buf.len() - HEADER_LEN;
        debug_assert!(len <= MAX_PAYLOAD);
        self.buf[6..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        let sum = checksum(&self.buf[4..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A run of floats as their little-endian bit patterns.
    fn f32s(&mut self, xs: &[f32]) {
        bytes::put_f32s(&mut self.buf, xs);
    }
    fn dims(&mut self, dims: &[usize]) {
        self.u8(dims.len() as u8);
        for &d in dims {
            self.u32(d as u32);
        }
    }
    fn tensor(&mut self, t: &Tensor) {
        self.dims(t.dims());
        self.f32s(t.data());
    }
    fn grad_block<T: Borrow<Tensor>>(&mut self, origin_lane: u32, tensors: &[T]) {
        self.u32(origin_lane);
        self.u32(tensors.len() as u32);
        for t in tensors {
            self.tensor(t.borrow());
        }
    }
    fn entries(&mut self, entries: &[(String, Tensor)]) {
        self.u32(entries.len() as u32);
        for (name, t) in entries {
            self.str(name);
            self.tensor(t);
        }
    }
    fn stage_data(&mut self, d: &StageData) {
        match d {
            StageData::Tokens(rows) => {
                self.u8(0);
                self.u32(rows.len() as u32);
                for row in rows {
                    self.u32(row.len() as u32);
                    for &id in row {
                        self.u32(id as u32);
                    }
                }
            }
            StageData::Hidden(t) => {
                self.u8(1);
                self.tensor(t);
            }
            StageData::Logits(t) => {
                self.u8(2);
                self.tensor(t);
            }
        }
    }
    fn schedule(&mut self, s: &Schedule) {
        match s {
            Schedule::OneFOneB => {
                self.u8(0);
                self.u32(0);
            }
            Schedule::GPipe => {
                self.u8(1);
                self.u32(0);
            }
            Schedule::GPipeWave { wave } => {
                self.u8(2);
                self.u32(*wave as u32);
            }
        }
    }
    fn event(&mut self, e: &SimEvent) {
        self.u32(e.stage as u32);
        self.u32(e.micro as u32);
        self.u8(e.forward as u8);
        self.f64(e.start);
        self.f64(e.end);
    }
}

struct Dec<'a> {
    b: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.b.len() < n {
            return Err(NetError::Malformed("short payload"));
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, NetError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, NetError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::Malformed("bool out of range")),
        }
    }
    /// A collection length, sanity-checked against the bytes actually
    /// remaining (each element needs at least `min_elem_bytes`).
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, NetError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.b.len() {
            return Err(NetError::Malformed("collection length exceeds payload"));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, NetError> {
        let n = self.u32()? as usize;
        if n > MAX_STR {
            return Err(NetError::Oversize(n as u64));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::Malformed("string not utf-8"))
    }
    /// Inverse of [`Enc::f32s`]. Callers bound `n` against the payload
    /// first, so `n * 4` cannot overflow.
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, NetError> {
        Ok(bytes::f32s_from_le(self.take(n * 4)?))
    }
    /// Rank-checked dimensions and their (saturating) element count. The
    /// check against [`MAX_RANK`] is what keeps a hostile rank from
    /// reaching [`Shape::new`], which panics above it.
    fn dims(&mut self) -> Result<(Shape, usize), NetError> {
        let rank = self.u8()? as usize;
        if rank == 0 || rank > MAX_RANK {
            return Err(NetError::Malformed("tensor rank out of range"));
        }
        let mut dims = [0usize; MAX_RANK];
        let mut numel: usize = 1;
        for d in &mut dims[..rank] {
            *d = self.u32()? as usize;
            numel = numel.saturating_mul(*d);
        }
        Ok((Shape::new(&dims[..rank]), numel))
    }
    fn tensor(&mut self) -> Result<Tensor, NetError> {
        let (dims, numel) = self.dims()?;
        if numel > MAX_NUMEL || numel * 4 > self.b.len() {
            return Err(NetError::Malformed("tensor element count exceeds payload"));
        }
        let data = self.f32s(numel)?;
        Tensor::from_vec(data, dims).map_err(|_| NetError::Malformed("tensor shape inconsistent"))
    }
    fn stage_data(&mut self) -> Result<StageData, NetError> {
        match self.u8()? {
            0 => {
                let rows = self.len(4)?;
                let mut out = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let cols = self.len(4)?;
                    let mut row = Vec::with_capacity(cols);
                    for _ in 0..cols {
                        row.push(self.u32()? as usize);
                    }
                    out.push(row);
                }
                Ok(StageData::Tokens(out))
            }
            1 => Ok(StageData::Hidden(self.tensor()?)),
            2 => Ok(StageData::Logits(self.tensor()?)),
            _ => Err(NetError::Malformed("stage data tag out of range")),
        }
    }
    fn schedule(&mut self) -> Result<Schedule, NetError> {
        let tag = self.u8()?;
        let wave = self.u32()? as usize;
        match tag {
            0 => Ok(Schedule::OneFOneB),
            1 => Ok(Schedule::GPipe),
            2 => Ok(Schedule::GPipeWave { wave }),
            _ => Err(NetError::Malformed("schedule tag out of range")),
        }
    }
    fn event(&mut self) -> Result<SimEvent, NetError> {
        Ok(SimEvent {
            stage: self.u32()? as usize,
            micro: self.u32()? as usize,
            forward: self.bool()?,
            start: self.f64()?,
            end: self.f64()?,
        })
    }
    fn entries(&mut self) -> Result<Vec<(String, Tensor)>, NetError> {
        let n = self.len(9)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str()?;
            let t = self.tensor()?;
            out.push((name, t));
        }
        Ok(out)
    }
    fn finish(self) -> Result<(), NetError> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(NetError::Malformed("trailing bytes after payload"))
        }
    }
}

fn encode_payload(e: &mut Enc, msg: &Msg) {
    match msg {
        Msg::Hello { slot, listen_port } => {
            e.u32(*slot);
            e.u16(*listen_port);
        }
        Msg::Assign(a) => {
            e.u32(a.rank);
            e.u32(a.lane);
            e.u32(a.stage);
            e.u32(a.lanes);
            e.u32(a.stages);
            e.u64(a.seed);
            e.f32(a.lr);
            e.u32(a.enc_layers);
            e.u32(a.hidden);
            e.u32(a.heads);
            e.u32(a.n_out);
            e.u32(a.partition.len() as u32);
            for &p in &a.partition {
                e.u32(p);
            }
            e.schedule(&a.schedule);
            e.u32(a.micro_batches);
            e.u32(a.net_timeout_ms);
            e.u8(a.telemetry as u8);
        }
        Msg::Peers { ports } => {
            e.u32(ports.len() as u32);
            for &p in ports {
                e.u16(p);
            }
        }
        Msg::LinkHdr { from_rank, kind } => {
            e.u32(*from_rank);
            e.u8(match kind {
                LinkKind::Fwd => 0,
                LinkKind::Ring => 1,
            });
        }
        Msg::Ready | Msg::Shutdown => {}
        Msg::Restore { entries } | Msg::ParamSnap { entries } => e.entries(entries),
        Msg::Step {
            step,
            die,
            stall_ms,
            micro_batches,
            snap,
        } => {
            e.u64(*step);
            e.u8(*die as u8);
            e.u32(*stall_ms);
            e.u8(*snap as u8);
            e.u32(micro_batches.len() as u32);
            for (rows, labels) in micro_batches {
                e.u32(rows.len() as u32);
                for row in rows {
                    e.u32(row.len() as u32);
                    for &id in row {
                        e.u32(id as u32);
                    }
                }
                e.u32(labels.len() as u32);
                for &l in labels {
                    e.u32(l as u32);
                }
            }
        }
        Msg::Act { micro, data } => {
            e.u32(*micro);
            e.stage_data(data);
        }
        Msg::JobSubmit {
            tenant,
            steps,
            seed,
        } => {
            e.u64(*tenant);
            e.u32(*steps);
            e.u64(*seed);
        }
        Msg::JobDone {
            tenant,
            version,
            faulted,
            final_loss,
        } => {
            e.u64(*tenant);
            e.u32(*version);
            e.u8(*faulted as u8);
            e.f32(*final_loss);
        }
        Msg::Grad { micro, grad } => {
            e.u32(*micro);
            e.tensor(grad);
        }
        Msg::GradBlock {
            origin_lane,
            tensors,
        } => e.grad_block(*origin_lane, tensors),
        Msg::Done {
            rank,
            loss_sum,
            busy_ns,
            events,
        } => {
            e.u32(*rank);
            e.f32(*loss_sum);
            e.u64(*busy_ns);
            e.u32(events.len() as u32);
            for ev in events {
                e.event(ev);
            }
        }
        Msg::Fault {
            observer,
            blamed,
            detail,
        } => {
            e.u32(*observer);
            e.u32(*blamed);
            e.str(detail);
        }
        Msg::Heartbeat { nonce } | Msg::HeartbeatAck { nonce } => {
            e.u64(*nonce);
        }
        Msg::Stats { counters } => {
            e.u32(counters.len() as u32);
            for (name, v) in counters {
                e.str(name);
                e.u64(*v);
            }
        }
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<Msg, NetError> {
    let mut d = Dec { b: payload };
    let msg = match tag {
        1 => Msg::Hello {
            slot: d.u32()?,
            listen_port: d.u16()?,
        },
        2 => {
            let rank = d.u32()?;
            let lane = d.u32()?;
            let stage = d.u32()?;
            let lanes = d.u32()?;
            let stages = d.u32()?;
            let seed = d.u64()?;
            let lr = d.f32()?;
            let enc_layers = d.u32()?;
            let hidden = d.u32()?;
            let heads = d.u32()?;
            let n_out = d.u32()?;
            let np = d.len(4)?;
            let mut partition = Vec::with_capacity(np);
            for _ in 0..np {
                partition.push(d.u32()?);
            }
            let schedule = d.schedule()?;
            Msg::Assign(Box::new(Assignment {
                rank,
                lane,
                stage,
                lanes,
                stages,
                seed,
                lr,
                enc_layers,
                hidden,
                heads,
                n_out,
                partition,
                schedule,
                micro_batches: d.u32()?,
                net_timeout_ms: d.u32()?,
                telemetry: d.bool()?,
            }))
        }
        3 => {
            let n = d.len(2)?;
            let mut ports = Vec::with_capacity(n);
            for _ in 0..n {
                ports.push(d.u16()?);
            }
            Msg::Peers { ports }
        }
        4 => Msg::LinkHdr {
            from_rank: d.u32()?,
            kind: match d.u8()? {
                0 => LinkKind::Fwd,
                1 => LinkKind::Ring,
                _ => return Err(NetError::Malformed("link kind out of range")),
            },
        },
        5 => Msg::Ready,
        6 => Msg::Restore {
            entries: d.entries()?,
        },
        7 => {
            let step = d.u64()?;
            let die = d.bool()?;
            let stall_ms = d.u32()?;
            let snap = match d.u8()? {
                0 => SnapReq::None,
                1 => SnapReq::Trainable,
                2 => SnapReq::All,
                _ => return Err(NetError::Malformed("snapshot request out of range")),
            };
            let n = d.len(8)?;
            let mut micro_batches = Vec::with_capacity(n);
            for _ in 0..n {
                let nrows = d.len(4)?;
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let cols = d.len(4)?;
                    let mut row = Vec::with_capacity(cols);
                    for _ in 0..cols {
                        row.push(d.u32()? as usize);
                    }
                    rows.push(row);
                }
                let nl = d.len(4)?;
                let mut labels = Vec::with_capacity(nl);
                for _ in 0..nl {
                    labels.push(d.u32()? as usize);
                }
                micro_batches.push((rows, labels));
            }
            Msg::Step {
                step,
                die,
                stall_ms,
                micro_batches,
                snap,
            }
        }
        8 => Msg::Act {
            micro: d.u32()?,
            data: d.stage_data()?,
        },
        9 => Msg::Grad {
            micro: d.u32()?,
            grad: d.tensor()?,
        },
        TAG_GRAD_BLOCK => {
            let origin_lane = d.u32()?;
            let n = d.len(5)?;
            let mut tensors = Vec::with_capacity(n);
            for _ in 0..n {
                tensors.push(d.tensor()?);
            }
            Msg::GradBlock {
                origin_lane,
                tensors,
            }
        }
        11 => {
            let rank = d.u32()?;
            let loss_sum = d.f32()?;
            let busy_ns = d.u64()?;
            let n = d.len(25)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(d.event()?);
            }
            Msg::Done {
                rank,
                loss_sum,
                busy_ns,
                events,
            }
        }
        TAG_PARAM_SNAP => Msg::ParamSnap {
            entries: d.entries()?,
        },
        14 => Msg::Fault {
            observer: d.u32()?,
            blamed: d.u32()?,
            detail: d.str()?,
        },
        15 => Msg::Heartbeat { nonce: d.u64()? },
        16 => Msg::HeartbeatAck { nonce: d.u64()? },
        17 => {
            let n = d.len(12)?;
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                let name = d.str()?;
                let v = d.u64()?;
                counters.push((name, v));
            }
            Msg::Stats { counters }
        }
        18 => Msg::Shutdown,
        20 => Msg::JobSubmit {
            tenant: d.u64()?,
            steps: d.u32()?,
            seed: d.u64()?,
        },
        21 => Msg::JobDone {
            tenant: d.u64()?,
            version: d.u32()?,
            faulted: d.bool()?,
            final_loss: d.f32()?,
        },
        other => return Err(NetError::BadType(other)),
    };
    d.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Frame header size: magic + version + tag + payload length.
pub const HEADER_LEN: usize = 10;
/// Bytes a frame occupies beyond its payload: header + trailing checksum.
const OVERHEAD: usize = HEADER_LEN + 4;

/// Serializes `msg` into one complete frame (header + payload + checksum).
/// The frames that carry tensors are sized before they are written.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let payload = match msg {
        Msg::Restore { entries } | Msg::ParamSnap { entries } => entries_len(entries),
        Msg::GradBlock { tensors, .. } => grad_block_len(tensors),
        Msg::Grad { grad, .. } => 4 + tensor_len(grad),
        Msg::Act {
            data: StageData::Hidden(t) | StageData::Logits(t),
            ..
        } => 5 + tensor_len(t),
        _ => 0,
    };
    let mut e = Enc::frame(msg.tag(), payload);
    encode_payload(&mut e, msg);
    e.seal()
}

/// Encoded size of one tensor: a rank byte, the dimensions, the elements.
fn tensor_len(t: &Tensor) -> usize {
    1 + 4 * t.rank() + 4 * t.numel()
}

/// Encoded size of a named tensor list: a count, then per entry a
/// length-prefixed name and the tensor.
fn entries_len(entries: &[(String, Tensor)]) -> usize {
    4 + entries
        .iter()
        .map(|(name, t)| 4 + name.len() + tensor_len(t))
        .sum::<usize>()
}

/// Encoded size of a gradient block: origin lane, count, tensors.
fn grad_block_len<T: Borrow<Tensor>>(tensors: &[T]) -> usize {
    8 + tensors
        .iter()
        .map(|t| tensor_len(t.borrow()))
        .sum::<usize>()
}

/// The frame of a [`Msg::GradBlock`] encoded from borrowed gradients —
/// byte for byte what [`encode_frame`] produces for the owned message,
/// without assembling one.
pub fn grad_block_frame<T: Borrow<Tensor>>(origin_lane: u32, tensors: &[T]) -> Vec<u8> {
    let mut e = Enc::frame(TAG_GRAD_BLOCK, grad_block_len(tensors));
    e.grad_block(origin_lane, tensors);
    e.seal()
}

/// The frame of a [`Msg::ParamSnap`] encoded from borrowed entries.
pub fn param_snap_frame(entries: &[(String, Tensor)]) -> Vec<u8> {
    let mut e = Enc::frame(TAG_PARAM_SNAP, entries_len(entries));
    e.entries(entries);
    e.seal()
}

/// Size of the frame [`param_snap_frame`] produces, without encoding it.
pub fn param_snap_frame_len(entries: &[(String, Tensor)]) -> usize {
    OVERHEAD + entries_len(entries)
}

/// Anything [`FrameReader`] can pull bytes from. `Ok(n)` delivers `n > 0`
/// bytes; end-of-stream and deadline expiry are *errors* ([`NetError::Eof`]
/// and [`NetError::Timeout`]), so a reader never has to guess what a zero
/// read meant. Wrap any `std::io::Read` in [`IoSource`]; the simulated
/// transport's endpoints implement it directly.
pub trait ByteSource {
    /// Reads up to `buf.len()` bytes, returning how many were written.
    fn read_bytes(&mut self, buf: &mut [u8]) -> Result<usize, NetError>;
}

/// Adapts a `std::io::Read` (socket, slice) into a [`ByteSource`]:
/// `Ok(0)` becomes [`NetError::Eof`], `WouldBlock`/`TimedOut` become
/// [`NetError::Timeout`], `Interrupted` retries.
pub struct IoSource<'a, R: Read + ?Sized>(pub &'a mut R);

impl<R: Read + ?Sized> ByteSource for IoSource<'_, R> {
    fn read_bytes(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        loop {
            match self.0.read(buf) {
                Ok(0) => return Err(NetError::Eof),
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Most bytes a [`FrameReader`] asks its source for (and zero-fills ahead
/// of) in one read.
const READ_STEP: usize = 64 * 1024;

/// Incremental frame decoder that survives read deadlines mid-frame.
///
/// A one-shot `read_frame` holds its progress in locals, so a timeout that
/// lands between the header and the payload would lose the bytes already
/// consumed: the retried receive starts parsing mid-frame and misreports
/// the stall as `BadMagic` or `BadChecksum`. A `FrameReader` is owned by
/// the connection and keeps partial-frame bytes across calls — a receive
/// that fails with [`NetError::Timeout`] (or a transient `Io`) can simply
/// be retried and resumes exactly where the stream stalled, still
/// surfacing the *original* typed error at the call that hit it.
///
/// Unrecoverable protocol errors (bad magic/version, oversize, checksum or
/// payload failures) discard the buffered frame: stream framing is already
/// lost, so there is nothing coherent to resume into.
///
/// The buffer grows in steps of `READ_STEP` as bytes arrive, so a header
/// that claims [`MAX_PAYLOAD`] and then stalls or hangs up costs the
/// receiver one step, not the claimed size.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Total frame size (`OVERHEAD + payload len`) once the header has
    /// been received and validated.
    need: Option<usize>,
}

impl FrameReader {
    /// A reader with no buffered bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when a previous read stalled partway through a frame.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.need = None;
    }

    /// Pulls bytes from `src` until one whole frame is buffered, then
    /// validates and decodes it. Returns the message and total frame size.
    /// On [`NetError::Timeout`] / [`NetError::Io`] the partial frame stays
    /// buffered for the next call.
    pub fn read_from<S: ByteSource + ?Sized>(
        &mut self,
        src: &mut S,
    ) -> Result<(Msg, usize), NetError> {
        loop {
            let goal = self.need.unwrap_or(HEADER_LEN);
            while self.buf.len() < goal {
                // Grow by at most one step beyond what has arrived: the
                // length field is the peer's claim, and memory must follow
                // bytes received, not bytes promised.
                let have = self.buf.len();
                self.buf.resize(goal.min(have + READ_STEP), 0);
                match src.read_bytes(&mut self.buf[have..]) {
                    Ok(n) => self.buf.truncate(have + n),
                    Err(e) => {
                        self.buf.truncate(have);
                        return Err(e);
                    }
                }
            }
            if self.need.is_none() {
                // Header complete: validate it and learn the frame size.
                if self.buf[0..4] != MAGIC {
                    let m = self.buf[0..4].try_into().unwrap();
                    self.reset();
                    return Err(NetError::BadMagic(m));
                }
                if self.buf[4] != VERSION {
                    let v = self.buf[4];
                    self.reset();
                    return Err(NetError::BadVersion(v));
                }
                let len = u32::from_le_bytes(self.buf[6..10].try_into().unwrap()) as usize;
                if len > MAX_PAYLOAD {
                    self.reset();
                    return Err(NetError::Oversize(len as u64));
                }
                self.need = Some(OVERHEAD + len);
                continue;
            }
            // Whole frame buffered: verify checksum, decode, clear state.
            let total = goal;
            let tag = self.buf[5];
            let got = u32::from_le_bytes(self.buf[total - 4..total].try_into().unwrap());
            let expected = checksum(&self.buf[4..total - 4]);
            if expected != got {
                self.reset();
                return Err(NetError::BadChecksum { expected, got });
            }
            let decoded = decode_payload(tag, &self.buf[HEADER_LEN..total - 4]);
            self.reset();
            return Ok((decoded?, total));
        }
    }
}

/// Reads exactly one frame from `r`, validating magic, version, length,
/// and checksum. Returns the decoded message and the total bytes consumed.
///
/// One-shot: partial progress is lost on error. Long-lived connections
/// should own a [`FrameReader`] instead so a mid-frame read deadline can
/// be retried without desynchronizing the stream.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(Msg, usize), NetError> {
    FrameReader::new().read_from(&mut IoSource(r))
}

/// Decodes one frame from an in-memory buffer (convenience for tests).
pub fn decode_frame(bytes: &[u8]) -> Result<(Msg, usize), NetError> {
    let mut cursor = bytes;
    read_frame(&mut cursor)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Computed by an independent implementation of the definition in
    // `checksum`'s doc comment, over `noise(n)`.
    const GOLDEN_EMPTY: u32 = 0xb512_8356;
    const GOLDEN_31: u32 = 0x73da_f5db;
    const GOLDEN_4K: u32 = 0x653e_3541;

    fn roundtrip(msg: &Msg) -> Msg {
        let frame = encode_frame(msg);
        let (back, n) = decode_frame(&frame).expect("decode");
        assert_eq!(n, frame.len(), "frame length accounting");
        back
    }

    #[test]
    fn control_messages_roundtrip() {
        let msgs = vec![
            Msg::Hello {
                slot: 3,
                listen_port: 45123,
            },
            Msg::Peers {
                ports: vec![1024, 65535, 80],
            },
            Msg::LinkHdr {
                from_rank: 7,
                kind: LinkKind::Ring,
            },
            Msg::Ready,
            Msg::Shutdown,
            Msg::Heartbeat { nonce: u64::MAX },
            Msg::HeartbeatAck { nonce: 0 },
            Msg::Fault {
                observer: 1,
                blamed: 3,
                detail: "ring peer closed the connection".into(),
            },
            Msg::Stats {
                counters: vec![("net.bytes_sent".into(), 12345), ("net.msgs".into(), 9)],
            },
        ];
        for m in &msgs {
            assert_eq!(&roundtrip(m), m);
        }
    }

    #[test]
    fn job_messages_roundtrip() {
        let submit = Msg::JobSubmit {
            tenant: 0xdead_beef,
            steps: 3,
            seed: 42,
        };
        assert_eq!(&roundtrip(&submit), &submit);
        let done = Msg::JobDone {
            tenant: u64::MAX,
            version: 7,
            faulted: true,
            final_loss: f32::NAN,
        };
        // Frame equality is bitwise, so even a NaN loss round-trips.
        assert_eq!(&roundtrip(&done), &done);
    }

    #[test]
    fn assignment_roundtrips() {
        let a = Assignment {
            rank: 3,
            lane: 1,
            stage: 1,
            lanes: 2,
            stages: 2,
            seed: 0xdead_beef_cafe,
            lr: 0.05,
            enc_layers: 4,
            hidden: 16,
            heads: 2,
            n_out: 2,
            partition: vec![2, 2],
            schedule: Schedule::GPipeWave { wave: 3 },
            micro_batches: 4,
            net_timeout_ms: 5000,
            telemetry: true,
        };
        assert_eq!(
            roundtrip(&Msg::Assign(Box::new(a.clone()))),
            Msg::Assign(Box::new(a))
        );
    }

    #[test]
    fn tensor_payloads_roundtrip_bitwise() {
        let weird = [
            f32::NAN,
            f32::from_bits(0x7fc0_1234), // NaN with payload bits
            f32::from_bits(0xffa5_5aa5), // negative signalling NaN
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 4.0, // subnormal
            f32::from_bits(1),       // smallest subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5e-42,
        ];
        // Sizes on both sides of the codec's vector width, and one
        // gradient-sized block.
        for numel in [1usize, 7, 8, 9, 25_600] {
            let data: Vec<f32> = (0..numel).map(|i| weird[i % weird.len()]).collect();
            let t = Tensor::from_vec(data.clone(), vec![numel]).unwrap();
            match roundtrip(&Msg::Grad { micro: 2, grad: t }) {
                Msg::Grad { micro, grad } => {
                    assert_eq!(micro, 2);
                    assert_eq!(grad.dims(), [numel]);
                    for (a, b) in grad.data().iter().zip(&data) {
                        assert_eq!(a.to_bits(), b.to_bits(), "bitwise f32 transport");
                    }
                }
                other => panic!("wrong message decoded: {other:?}"),
            }
        }
    }

    #[test]
    fn stage_data_and_steps_roundtrip() {
        let act = Msg::Act {
            micro: 0,
            data: StageData::Tokens(vec![vec![1, 2, 3], vec![4]]),
        };
        assert_eq!(roundtrip(&act), act);
        let hidden = Msg::Act {
            micro: 1,
            data: StageData::Hidden(Tensor::from_vec(vec![0.25; 12], vec![2, 2, 3]).unwrap()),
        };
        assert_eq!(roundtrip(&hidden), hidden);
        for snap in [SnapReq::None, SnapReq::Trainable, SnapReq::All] {
            let step = Msg::Step {
                step: 42,
                die: false,
                stall_ms: 150,
                micro_batches: vec![(vec![vec![1, 2], vec![3, 4]], vec![0, 1])],
                snap,
            };
            assert_eq!(roundtrip(&step), step);
            // The request byte follows step, die and stall; past `All` it
            // is a typed error.
            let mut frame = encode_frame(&step);
            frame[HEADER_LEN + 13] = 3;
            reseal(&mut frame);
            let got = decode_frame(&frame);
            assert!(matches!(got, Err(NetError::Malformed(_))), "{got:?}");
        }
    }

    #[test]
    fn done_with_events_roundtrips() {
        let msg = Msg::Done {
            rank: 2,
            loss_sum: 1.25,
            busy_ns: 1_234_567,
            events: vec![SimEvent {
                stage: 1,
                micro: 0,
                forward: true,
                start: 0.001,
                end: 0.002,
            }],
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    /// Overwrites the frame's trailer with the checksum of its current
    /// bytes, so only what the test changed can trip the decoder.
    fn reseal(frame: &mut [u8]) {
        let body = frame.len() - 4;
        let sum = checksum(&frame[4..body]);
        frame[body..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn a_tensor_above_max_rank_is_malformed_not_a_panic() {
        // `MAX_RANK` ones: the largest rank a frame may carry decodes.
        let t = Tensor::from_vec(vec![1.5], [1; MAX_RANK]).unwrap();
        let msg = Msg::Grad { micro: 1, grad: t };
        let mut frame = encode_frame(&msg);
        assert_eq!(roundtrip(&msg), msg);
        // Payload: micro u32, rank u8, the dims, one f32. Claim one more
        // dimension and splice in its extent, so the element count and
        // every length still agree and only the rank is out of range.
        let rank_at = HEADER_LEN + 4;
        assert_eq!(frame[rank_at] as usize, MAX_RANK);
        frame[rank_at] += 1;
        frame.splice(rank_at + 1..rank_at + 1, 1u32.to_le_bytes());
        let len = (frame.len() - OVERHEAD) as u32;
        frame[6..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        reseal(&mut frame);
        let got = decode_frame(&frame);
        assert!(
            matches!(got, Err(NetError::Malformed("tensor rank out of range"))),
            "a rank-{} tensor must be rejected before a shape is built, got {got:?}",
            MAX_RANK + 1
        );
    }

    #[test]
    fn every_frame_is_stamped_with_the_one_version_and_older_stamps_are_rejected() {
        let t = Tensor::from_vec(vec![1.0, 2.0], vec![1, 2]).unwrap();
        let msgs = [
            Msg::Ready,
            Msg::Heartbeat { nonce: 1 },
            Msg::JobSubmit {
                tenant: 1,
                steps: 1,
                seed: 1,
            },
            Msg::Act {
                micro: 0,
                data: StageData::Logits(t),
            },
        ];
        for msg in &msgs {
            let mut frame = encode_frame(msg);
            assert_eq!(frame[4], VERSION);
            for old in [1u8, 2] {
                frame[4] = old;
                reseal(&mut frame);
                assert!(
                    matches!(decode_frame(&frame), Err(NetError::BadVersion(v)) if v == old),
                    "a v{old} stamp on {msg:?} must be a typed version error"
                );
            }
        }
    }

    #[test]
    fn an_unknown_tag_is_a_typed_bad_type() {
        // Tag 0 was never used, 12 is the retired `ParamReq` (a `Step`
        // carries its snapshot request), 19 the retired int8 Act frame,
        // and 22.. are past the last message.
        let t = Tensor::from_vec(vec![0.5, -1.25, 3.0, 0.0], vec![1, 2, 2]).unwrap();
        let valid = encode_frame(&Msg::Act {
            micro: 4,
            data: StageData::Hidden(t),
        });
        for tag in [0u8, 12, 19].into_iter().chain(22..=255) {
            let mut frame = valid.clone();
            frame[5] = tag;
            reseal(&mut frame);
            let got = decode_frame(&frame);
            assert!(
                matches!(got, Err(NetError::BadType(t)) if t == tag),
                "tag {tag}: got {got:?}"
            );
        }
    }

    #[test]
    fn an_assign_with_a_trailing_byte_is_malformed() {
        // The retired re-admission flag was one byte after `telemetry`,
        // and the retired int8-wire flag one byte after that: an
        // assignment in either older layout must not misparse.
        let a = Assignment {
            rank: 0,
            lane: 0,
            stage: 0,
            lanes: 1,
            stages: 1,
            seed: 7,
            lr: 0.05,
            enc_layers: 2,
            hidden: 16,
            heads: 2,
            n_out: 2,
            partition: vec![2],
            schedule: Schedule::OneFOneB,
            micro_batches: 2,
            net_timeout_ms: 1000,
            telemetry: false,
        };
        let mut frame = encode_frame(&Msg::Assign(Box::new(a)));
        let body = frame.len() - 4;
        frame.insert(body, 1);
        let len = (frame.len() - OVERHEAD) as u32;
        frame[6..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        reseal(&mut frame);
        let got = decode_frame(&frame);
        assert!(
            matches!(
                got,
                Err(NetError::Malformed("trailing bytes after payload"))
            ),
            "got {got:?}"
        );
    }

    /// Deterministic filler that touches every bit position.
    fn noise(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 23) as u8)
            .collect()
    }

    #[test]
    fn checksum_golden_values_are_pinned() {
        // The checksum *is* the wire format: a change here is a new
        // VERSION, and debug and release builds must agree on it.
        assert_eq!(checksum(&[]), GOLDEN_EMPTY);
        assert_eq!(checksum(&noise(31)), GOLDEN_31);
        assert_eq!(checksum(&noise(4096)), GOLDEN_4K);
    }

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let lens = (0..=100).chain((1..=8).flat_map(|k| [32 * k - 1, 32 * k, 32 * k + 1]));
        for len in lens {
            let clean = noise(len);
            let want = checksum(&clean);
            for at in 0..len {
                for mask in [0x01u8, 0x80, 0xff] {
                    let mut bad = clean.clone();
                    bad[at] ^= mask;
                    assert_ne!(checksum(&bad), want, "len {len}, byte {at}, mask {mask:#x}");
                }
            }
            // Length mix-in: zero padding is not invisible.
            let mut padded = vec![0u8; len];
            let unpadded = checksum(&padded);
            padded.push(0);
            assert_ne!(checksum(&padded), unpadded, "len {len} vs {}", len + 1);
        }
    }

    #[test]
    fn any_flipped_byte_of_a_frame_is_rejected_at_every_payload_length() {
        // Payload length = 12 + detail length: straddles the checksum's
        // 32-byte round boundary (which starts 6 bytes before the payload)
        // from every side.
        for detail_len in (0..=100).chain([32 * 8 - 19, 32 * 8 - 18, 32 * 8 - 17]) {
            let frame = encode_frame(&Msg::Fault {
                observer: 1,
                blamed: 2,
                detail: "x".repeat(detail_len),
            });
            decode_frame(&frame).expect("clean frame decodes");
            for at in 0..frame.len() {
                let mut bad = frame.clone();
                bad[at] ^= 0x10;
                let got = decode_frame(&bad);
                assert!(got.is_err(), "detail {detail_len}, byte {at}: {got:?}");
                if at >= HEADER_LEN {
                    assert!(
                        matches!(got, Err(NetError::BadChecksum { .. })),
                        "payload and trailer flips are checksum errors, got {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn borrowed_encoders_match_the_owned_message_byte_for_byte() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.5], vec![3]).unwrap();
        let b = Tensor::from_vec(vec![0.25; 6], vec![2, 3]).unwrap();
        let owned = encode_frame(&Msg::GradBlock {
            origin_lane: 3,
            tensors: vec![a.clone(), b.clone()],
        });
        assert_eq!(grad_block_frame(3, &[&a, &b]), owned);
        assert_eq!(grad_block_frame(3, &[a.clone(), b.clone()]), owned);

        let entries = vec![("enc.w".to_string(), a), ("enc.bias".to_string(), b)];
        let owned = encode_frame(&Msg::ParamSnap {
            entries: entries.clone(),
        });
        assert_eq!(param_snap_frame(&entries), owned);
        assert_eq!(param_snap_frame_len(&entries), owned.len());
        assert_eq!(param_snap_frame_len(&[]), param_snap_frame(&[]).len());
    }

    /// A frame that carries tensors is sized before it is written: it
    /// never outgrows its first allocation, so a ~112 KB snapshot is not
    /// copied on its way up.
    #[test]
    fn tensor_frames_are_written_into_one_allocation() {
        let big = Tensor::from_vec(vec![0.5; 28_000], vec![4, 7_000]).unwrap();
        let small = Tensor::from_vec(vec![1.0, -2.0, 3.5], vec![3]).unwrap();
        let entries = vec![
            ("s0.w".to_string(), big.clone()),
            ("s0.b".to_string(), small.clone()),
        ];
        let frames = [
            param_snap_frame(&entries),
            grad_block_frame(1, &[&big, &small]),
            encode_frame(&Msg::ParamSnap {
                entries: entries.clone(),
            }),
            encode_frame(&Msg::Restore { entries }),
            encode_frame(&Msg::GradBlock {
                origin_lane: 0,
                tensors: vec![big.clone(), small],
            }),
            encode_frame(&Msg::Grad {
                micro: 1,
                grad: big.clone(),
            }),
            encode_frame(&Msg::Act {
                micro: 1,
                data: StageData::Hidden(big),
            }),
        ];
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame.capacity(), frame.len(), "frame {i}");
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misparsed() {
        let frame = encode_frame(&Msg::Heartbeat { nonce: 77 });

        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(NetError::BadMagic(_))
        ));

        let mut bad_version = frame.clone();
        bad_version[4] = 9;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(NetError::BadVersion(9))
        ));

        let mut bad_payload = frame.clone();
        bad_payload[10] ^= 0x40;
        assert!(matches!(
            decode_frame(&bad_payload),
            Err(NetError::BadChecksum { .. })
        ));

        // A flipped type tag must not decode as a *different* valid
        // message: the checksum covers the header.
        let mut bad_tag = frame.clone();
        bad_tag[5] = 16; // Heartbeat -> HeartbeatAck, same payload shape
        assert!(matches!(
            decode_frame(&bad_tag),
            Err(NetError::BadChecksum { .. })
        ));

        for cut in [0, 3, 9, frame.len() - 1] {
            assert!(
                matches!(decode_frame(&frame[..cut]), Err(NetError::Eof)),
                "short read at {cut} must reject as EOF"
            );
        }
    }

    #[test]
    fn oversize_length_fields_are_rejected_before_allocation() {
        let mut frame = encode_frame(&Msg::Ready);
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&frame), Err(NetError::Oversize(_))));
    }

    /// Byte source that yields scripted chunks, interleaved with timeouts
    /// — models a socket whose read deadline fires mid-frame.
    struct Stutter {
        script: std::collections::VecDeque<Result<Vec<u8>, NetError>>,
    }

    impl ByteSource for Stutter {
        fn read_bytes(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
            match self.script.pop_front() {
                Some(Ok(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.script.push_front(Ok(bytes[n..].to_vec()));
                    }
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => Err(NetError::Eof),
            }
        }
    }

    #[test]
    fn frame_reader_resumes_after_mid_frame_timeout() {
        // The regression the FrameReader exists for: header arrives, the
        // payload stalls past the read deadline, and the *retried* receive
        // must resume and decode the same frame — not desync into
        // BadMagic/BadChecksum.
        let msg = Msg::Fault {
            observer: 2,
            blamed: 3,
            detail: "ring peer stalled".into(),
        };
        let frame = encode_frame(&msg);
        let mut src = Stutter {
            script: [
                Ok(frame[..10].to_vec()), // exactly the header
                Err(NetError::Timeout),   // payload read hits the deadline
                Ok(frame[10..12].to_vec()),
                Err(NetError::Timeout), // and again, mid-payload
                Ok(frame[12..].to_vec()),
            ]
            .into_iter()
            .collect(),
        };
        let mut reader = FrameReader::new();
        assert!(matches!(reader.read_from(&mut src), Err(NetError::Timeout)));
        assert!(reader.mid_frame(), "partial frame must stay buffered");
        assert!(matches!(reader.read_from(&mut src), Err(NetError::Timeout)));
        let (got, n) = reader.read_from(&mut src).expect("third try completes");
        assert_eq!(got, msg);
        assert_eq!(n, frame.len());
        assert!(!reader.mid_frame(), "state cleared after a whole frame");
    }

    #[test]
    fn a_header_claiming_max_payload_costs_one_read_step_not_256_mib() {
        let mut header = encode_frame(&Msg::Ready)[..HEADER_LEN].to_vec();
        header[6..HEADER_LEN].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
        let bound = 4 * READ_STEP;

        // The peer hangs up right after the header…
        let mut reader = FrameReader::new();
        let mut src = Stutter {
            script: [Ok(header.clone())].into_iter().collect(),
        };
        assert!(matches!(reader.read_from(&mut src), Err(NetError::Eof)));
        assert!(reader.buf.capacity() <= bound, "{}", reader.buf.capacity());

        // …or stalls, trickles a little, and stalls again: the partial
        // frame stays resumable and memory follows the bytes received.
        let mut reader = FrameReader::new();
        let mut src = Stutter {
            script: [
                Ok(header),
                Err(NetError::Timeout),
                Ok(vec![7; 1000]),
                Err(NetError::Timeout),
            ]
            .into_iter()
            .collect(),
        };
        assert!(matches!(reader.read_from(&mut src), Err(NetError::Timeout)));
        assert!(matches!(reader.read_from(&mut src), Err(NetError::Timeout)));
        assert!(reader.mid_frame());
        assert_eq!(reader.buf.len(), HEADER_LEN + 1000);
        assert!(reader.buf.capacity() <= bound, "{}", reader.buf.capacity());
    }

    #[test]
    fn frame_reader_decodes_back_to_back_frames_across_one_call_each() {
        let a = Msg::Heartbeat { nonce: 1 };
        let b = Msg::HeartbeatAck { nonce: 1 };
        let mut joined = encode_frame(&a);
        joined.extend_from_slice(&encode_frame(&b));
        let mut cursor: &[u8] = &joined;
        let mut src = IoSource(&mut cursor);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_from(&mut src).unwrap().0, a);
        assert_eq!(reader.read_from(&mut src).unwrap().0, b);
        assert!(matches!(reader.read_from(&mut src), Err(NetError::Eof)));
    }

    #[test]
    fn frame_reader_drops_buffered_bytes_on_protocol_errors() {
        let mut bad = encode_frame(&Msg::Ready);
        bad[4] = 7; // wrong version
        let good = encode_frame(&Msg::Shutdown);
        let mut reader = FrameReader::new();
        let mut cursor: &[u8] = &bad;
        assert!(matches!(
            reader.read_from(&mut IoSource(&mut cursor)),
            Err(NetError::BadVersion(7))
        ));
        assert!(!reader.mid_frame(), "framing is lost; nothing to resume");
        let mut cursor: &[u8] = &good;
        assert_eq!(
            reader.read_from(&mut IoSource(&mut cursor)).unwrap().0,
            Msg::Shutdown
        );
    }
}
