//! Deterministic simulated transport for FoundationDB-style simulation
//! testing of the distributed runtime.
//!
//! The whole distributed world — coordinator, workers, every byte on every
//! connection — runs single-process on real threads, but **time is
//! virtual** and **the network is adversarial and seeded**:
//!
//! * **Virtual clock.** Time never advances while any registered actor is
//!   runnable. When every actor is blocked inside a simnet operation
//!   (recv, accept, deadline wait), the last thread to block advances the
//!   clock to the next scheduled event (segment delivery, deadline,
//!   crash) and wakes everyone. A 10-second protocol timeout costs
//!   nothing in wall time, and the interleaving of deliveries is a pure
//!   function of the seed — not of OS scheduling.
//! * **Seeded adversary.** Each directed link (dialer→acceptor or back)
//!   has an independent adversary whose per-frame decisions — drop,
//!   duplicate, corrupt a byte, hold-and-reorder, latency jitter,
//!   fragmentation into partial reads — are a stateless hash of
//!   `(seed, link, frame index)`. Same seed ⇒ same decisions, always.
//! * **Fault events.** The schedule can crash an actor at a virtual time
//!   (its endpoints die, peers see FIN / broken pipes, its own blocked
//!   ops fail) and partition actor pairs for a virtual-time window.
//! * **Deadlock detection.** If every actor is blocked and no future
//!   event exists, the world cannot progress; blocked operations return
//!   [`NetError::Deadlock`] instead of hanging. A virtual-time horizon
//!   bounds runaway schedules the same way.
//!
//! Everything above the byte transport — framing, rendezvous, mesh,
//! collective, worker loop, driver recovery — is the *same code* that
//! runs over TCP, because those layers are generic over
//! [`crate::transport::Transport`]. See `simsweep` in `pac-bench` for the
//! seeded sweep harness built on this module.

use crate::spawn::{Spawn, SpawnedWorld};
use crate::transport::{Conn, Listener, PollConn, PollTransport, Readiness, Transport};
use crate::wire::{ByteSource, FrameReader, Msg, NetError};
use crate::worker::{run_worker_on, Buggify, RunMode};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Each simulated generation (one `Spawn::launch`) may hold this many
/// worker slots; actor ids are `gen * WORKERS_PER_GEN + slot + 1`, with
/// actor 0 reserved for the coordinator.
pub const WORKERS_PER_GEN: u32 = 64;

const SALT_LAT: u64 = 1;
const SALT_FRAG: u64 = 2;
const SALT_FRAG_POS: u64 = 3;
const SALT_FRAG_GAP: u64 = 4;
const SALT_DROP: u64 = 5;
const SALT_DUP: u64 = 6;
const SALT_CORRUPT: u64 = 7;
const SALT_CORRUPT_POS: u64 = 8;
const SALT_CORRUPT_MASK: u64 = 9;
const SALT_SWAP: u64 = 10;

/// splitmix64 finalizer: the only "RNG" in the simulator. All adversary
/// decisions are stateless hashes of `(seed, link, index, salt)`, so they
/// cannot depend on thread scheduling.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn decide(seed: u64, link_hash: u64, index: u64, salt: u64) -> u64 {
    mix64(
        seed ^ link_hash.rotate_left(17) ^ mix64(index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt),
    )
}

fn per_mille(knob: u16, roll: u64) -> bool {
    knob > 0 && (roll % 1000) < u64::from(knob)
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn sim_io(kind: std::io::ErrorKind, what: &'static str) -> NetError {
    NetError::Io(std::io::Error::new(kind, what))
}

/// Identity of a directed byte stream. `origin` is the actor that dialed,
/// `seq` its per-actor connect counter, `dir` 0 for dialer→acceptor and 1
/// for acceptor→dialer. Stable across runs of the same seed, which is what
/// makes per-link adversary decisions reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkKey {
    /// Dialing actor.
    pub origin: u32,
    /// The dialer's connect counter at dial time.
    pub seq: u32,
    /// 0 = dialer→acceptor, 1 = acceptor→dialer.
    pub dir: u8,
}

impl fmt::Display for LinkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a{}.c{}{}",
            self.origin,
            self.seq,
            if self.dir == 0 { ">" } else { "<" }
        )
    }
}

fn link_hash(l: LinkKey) -> u64 {
    mix64((u64::from(l.origin) << 33) ^ (u64::from(l.seq) << 1) ^ u64::from(l.dir))
}

/// A planned actor crash at a virtual time.
#[derive(Debug, Clone, Copy)]
struct CrashEvent {
    at: u64,
    actor: u32,
    fired: bool,
}

/// A symmetric partition between two actors for a virtual-time window
/// `[from_ns, to_ns)`: frames between them are silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First actor of the pair.
    pub a: u32,
    /// Second actor of the pair.
    pub b: u32,
    /// Window start (virtual ns, inclusive).
    pub from_ns: u64,
    /// Window end (virtual ns, exclusive).
    pub to_ns: u64,
}

/// Knobs for one simulated world. All rates are per-mille per frame and
/// all times are virtual nanoseconds; the `seed` drives every decision.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the adversary hash. Two worlds with the same config and
    /// seed produce byte-identical traces.
    pub seed: u64,
    /// Virtual-time bound; exceeding it is reported as a deadlock.
    pub horizon_ns: u64,
    /// Base one-way frame latency.
    pub base_latency_ns: u64,
    /// Extra per-frame latency drawn uniformly from `0..=jitter_ns`.
    pub jitter_ns: u64,
    /// Chance a frame is split into two segments delivered separately —
    /// this is what exercises partial-frame reads straddling deadlines.
    pub frag_per_mille: u16,
    /// Max extra delay of the second fragment.
    pub frag_gap_ns: u64,
    /// Chance a frame is silently dropped.
    pub drop_per_mille: u16,
    /// Chance a frame is delivered twice.
    pub dup_per_mille: u16,
    /// Chance one byte of a frame is flipped.
    pub corrupt_per_mille: u16,
    /// Chance a frame is held and released after the next frame (reorder).
    pub swap_per_mille: u16,
    /// Actor crashes: `(virtual time, actor id)`.
    pub crashes: Vec<(u64, u32)>,
    /// Timed pairwise partitions.
    pub partitions: Vec<Partition>,
}

impl SimConfig {
    /// A benign network: latency, jitter and fragmentation only — nothing
    /// that alters or loses bytes. Training over this must be bitwise
    /// identical to the in-process engine.
    pub fn clean(seed: u64) -> Self {
        SimConfig {
            seed,
            horizon_ns: 3_600_000_000_000, // one virtual hour
            base_latency_ns: 20_000,
            jitter_ns: 4_000,
            frag_per_mille: 150,
            frag_gap_ns: 30_000,
            drop_per_mille: 0,
            dup_per_mille: 0,
            corrupt_per_mille: 0,
            swap_per_mille: 0,
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// A hostile network: everything in [`SimConfig::clean`] plus drops,
    /// duplicates, corruption and reordering. Runs over this must either
    /// complete or fail with a *typed* error — never panic, never hang.
    pub fn chaos(seed: u64) -> Self {
        SimConfig {
            jitter_ns: 15_000,
            frag_per_mille: 200,
            frag_gap_ns: 50_000,
            drop_per_mille: 25,
            dup_per_mille: 20,
            corrupt_per_mille: 12,
            swap_per_mille: 35,
            ..SimConfig::clean(seed)
        }
    }
}

/// One scheduled chunk of bytes on its way to an endpoint.
#[derive(Debug)]
struct Segment {
    deliver_at: u64,
    seq: u64,
    bytes: Vec<u8>,
    fin: bool,
}

/// One half of a simulated connection. Receive-side state for the stream
/// *into* this endpoint lives here, including the adversary counters for
/// that stream (single writer: the peer's owner).
#[derive(Debug)]
struct Endpoint {
    owner: Option<u32>,
    peer: usize,
    /// Key of the directed stream into this endpoint.
    link: LinkKey,
    ready: VecDeque<u8>,
    pending: Vec<Segment>,
    fin_received: bool,
    dead: bool,
    recv_timeout: Option<u64>,
    /// Frames sent into this endpoint so far (adversary decision index).
    frame_idx: u64,
    /// A frame the adversary is holding to reorder behind the next one.
    held: Option<Vec<u8>>,
    /// Latest delivery time assigned on this stream (monotonicity clamp —
    /// TCP never reorders what the adversary didn't explicitly reorder).
    last_deliver: u64,
    seg_seq: u64,
    enqueues: u64,
}

impl Endpoint {
    fn new(owner: Option<u32>, peer: usize, link: LinkKey, recv_timeout: Option<u64>) -> Self {
        Endpoint {
            owner,
            peer,
            link,
            ready: VecDeque::new(),
            pending: Vec::new(),
            fin_received: false,
            dead: false,
            recv_timeout,
            frame_idx: 0,
            held: None,
            last_deliver: 0,
            seg_seq: 0,
            enqueues: 0,
        }
    }
}

#[derive(Debug)]
struct PendingConn {
    visible_at: u64,
    origin: u32,
    seq: u32,
    acc_idx: usize,
}

#[derive(Debug)]
struct ListenerState {
    owner: u32,
    backlog: Vec<PendingConn>,
    closed: bool,
}

#[derive(Debug)]
struct State {
    cfg: SimConfig,
    now: u64,
    participants: usize,
    blocked: usize,
    /// Registered absolute deadlines of currently-blocked ops (refcounted).
    deadlines: BTreeMap<u64, usize>,
    endpoints: Vec<Endpoint>,
    listeners: HashMap<u16, ListenerState>,
    bind_count: HashMap<u32, u16>,
    connect_seq: HashMap<u32, u32>,
    crashes: Vec<CrashEvent>,
    crashed: HashSet<u32>,
    registered: HashSet<u32>,
    trace: Vec<(u64, String)>,
    panics: Vec<String>,
    deadlock: Option<&'static str>,
    /// Bumped by every successful clock advance.
    epoch: u64,
    /// Threads currently inside `Condvar::wait`.
    waiting: usize,
    /// Woken-but-not-yet-repolled threads from the last advance. While
    /// nonzero, those threads are *runnable* even though they are still
    /// counted in `blocked` (they have not reacquired the lock), so a
    /// further advance would race past events they could consume.
    acks_outstanding: usize,
    /// Actors blocked *outside* the simulated world (`block_external`,
    /// e.g. thread joins). They count as blocked for quiescence but make
    /// wall-clock progress on their own, so an event-less world with one
    /// of them pending is not a deadlock — just not advanceable yet.
    external: usize,
}

fn set_deadlock(st: &mut State, why: &'static str) {
    if st.deadlock.is_none() {
        st.deadlock = Some(why);
        let t = st.now;
        st.trace.push((t, format!("deadlock: {why}")));
    }
}

/// Advance virtual time to the next scheduled event and apply everything
/// due. Called only while every participant is blocked, with the state
/// lock held. Returns whether the state changed (time advanced or a
/// deadlock was declared) — `false` means "no events, but an external
/// wait is still in flight; sleep instead of spinning".
fn advance(st: &mut State) -> bool {
    if st.deadlock.is_some() {
        return true;
    }
    let now = st.now;
    let mut next: Option<u64> = None;
    {
        let mut consider = |t: u64| {
            if t > now && next.is_none_or(|n| t < n) {
                next = Some(t);
            }
        };
        for ep in &st.endpoints {
            for s in &ep.pending {
                consider(s.deliver_at);
            }
        }
        for l in st.listeners.values() {
            if !l.closed {
                for pc in &l.backlog {
                    consider(pc.visible_at);
                }
            }
        }
        for c in &st.crashes {
            if !c.fired {
                consider(c.at);
            }
        }
        if let Some((&d, _)) = st.deadlines.range(now.saturating_add(1)..).next() {
            consider(d);
        }
    }
    match next {
        None => {
            if st.external > 0 {
                // An actor is blocked on something outside the simulated
                // world (a thread join); it will make wall-clock progress
                // and re-enter the simulation with new work.
                return false;
            }
            set_deadlock(st, "all actors blocked with no future event");
        }
        Some(t) if t > st.cfg.horizon_ns => set_deadlock(st, "virtual-time horizon exceeded"),
        Some(t) => {
            st.epoch += 1;
            st.acks_outstanding = st.waiting;
            st.now = t;
            apply_due(st);
        }
    }
    true
}

fn apply_due(st: &mut State) {
    let now = st.now;
    for ep in &mut st.endpoints {
        if ep.pending.iter().any(|s| s.deliver_at <= now) {
            let mut due: Vec<Segment> = Vec::new();
            let mut rest: Vec<Segment> = Vec::new();
            for s in ep.pending.drain(..) {
                if s.deliver_at <= now {
                    due.push(s);
                } else {
                    rest.push(s);
                }
            }
            due.sort_by_key(|s| (s.deliver_at, s.seq));
            for s in due {
                if s.fin {
                    ep.fin_received = true;
                } else {
                    ep.ready.extend(s.bytes);
                }
            }
            ep.pending = rest;
        }
    }
    let fired: Vec<u32> = st
        .crashes
        .iter_mut()
        .filter(|c| !c.fired && c.at <= now)
        .map(|c| {
            c.fired = true;
            c.actor
        })
        .collect();
    for actor in fired {
        crash_actor(st, actor);
    }
}

fn crash_actor(st: &mut State, actor: u32) {
    st.crashed.insert(actor);
    let t = st.now;
    st.trace.push((t, format!("crash actor={actor}")));
    let mut dead_eps: Vec<usize> = Vec::new();
    for l in st.listeners.values_mut() {
        if l.owner == actor {
            l.closed = true;
            for pc in l.backlog.drain(..) {
                dead_eps.push(pc.acc_idx);
            }
        }
    }
    for (i, ep) in st.endpoints.iter().enumerate() {
        if ep.owner == Some(actor) {
            dead_eps.push(i);
        }
    }
    for idx in dead_eps {
        kill_endpoint(st, idx);
    }
}

/// Abrupt close (crash): the adversary's held frame is lost, the peer
/// sees FIN after any in-flight segments.
fn kill_endpoint(st: &mut State, idx: usize) {
    if st.endpoints[idx].dead {
        return;
    }
    st.endpoints[idx].dead = true;
    let peer = st.endpoints[idx].peer;
    // Peer-side effects run even when the peer is already dead: nothing
    // will read them, but skipping them would make the trace depend on
    // which side of the pair happened to close first at the same virtual
    // instant — a wall-clock thread-ordering leak.
    st.endpoints[peer].held = None;
    enqueue_fin(st, peer);
}

/// Clean close (connection handle dropped): the held frame is flushed
/// first — a kernel would still have it buffered — then FIN.
fn close_endpoint(st: &mut State, idx: usize) {
    if st.endpoints[idx].dead {
        return;
    }
    st.endpoints[idx].dead = true;
    let peer = st.endpoints[idx].peer;
    // As in [`kill_endpoint`], run peer-side effects unconditionally so
    // same-instant close ordering cannot leak into the trace.
    if let Some(h) = st.endpoints[peer].held.take() {
        enqueue_segments(st, peer, h);
    }
    enqueue_fin(st, peer);
}

fn enqueue_fin(st: &mut State, rx: usize) {
    let at = (st.now + 1).max(st.endpoints[rx].last_deliver + 1);
    let now = st.now;
    let ep = &mut st.endpoints[rx];
    let seq = ep.seg_seq;
    ep.seg_seq += 1;
    ep.pending.push(Segment {
        deliver_at: at,
        seq,
        bytes: Vec::new(),
        fin: true,
    });
    ep.last_deliver = at;
    let link = ep.link;
    st.trace.push((now, format!("fin link={link} at={at}")));
}

/// Assign delivery times (base latency + seeded jitter, clamped monotone)
/// and maybe fragment the frame into two segments with a gap — the second
/// segment landing after a read deadline is how partial-frame timeouts
/// happen in the simulator.
fn enqueue_segments(st: &mut State, rx: usize, bytes: Vec<u8>) {
    let seed = st.cfg.seed;
    let base = st.cfg.base_latency_ns.max(1);
    let jitter = st.cfg.jitter_ns;
    let frag_knob = st.cfg.frag_per_mille;
    let frag_gap = st.cfg.frag_gap_ns;
    let now = st.now;
    let ep = &mut st.endpoints[rx];
    let lh = link_hash(ep.link);
    let n = ep.enqueues;
    ep.enqueues += 1;
    let lat = base
        + if jitter > 0 {
            decide(seed, lh, n, SALT_LAT) % (jitter + 1)
        } else {
            0
        };
    let at = (now + lat).max(ep.last_deliver + 1);
    let push = |ep: &mut Endpoint, at: u64, bytes: Vec<u8>| {
        let seq = ep.seg_seq;
        ep.seg_seq += 1;
        ep.pending.push(Segment {
            deliver_at: at,
            seq,
            bytes,
            fin: false,
        });
    };
    if bytes.len() >= 2 && per_mille(frag_knob, decide(seed, lh, n, SALT_FRAG)) {
        let cut = 1 + (decide(seed, lh, n, SALT_FRAG_POS) as usize) % (bytes.len() - 1);
        let gap = 1 + if frag_gap > 0 {
            decide(seed, lh, n, SALT_FRAG_GAP) % frag_gap
        } else {
            0
        };
        let (a, b) = bytes.split_at(cut);
        let (a, b) = (a.to_vec(), b.to_vec());
        let link = ep.link;
        push(ep, at, a);
        push(ep, at + gap, b);
        ep.last_deliver = at + gap;
        st.trace.push((
            now,
            format!("frag link={link} n={n} cut={cut} at={at} gap={gap}"),
        ));
    } else {
        let len = bytes.len();
        let link = ep.link;
        push(ep, at, bytes);
        ep.last_deliver = at;
        st.trace
            .push((now, format!("deliver link={link} n={n} len={len} at={at}")));
    }
}

fn partitioned(st: &State, a: Option<u32>, b: Option<u32>) -> bool {
    let (Some(a), Some(b)) = (a, b) else {
        return false;
    };
    let now = st.now;
    st.cfg.partitions.iter().any(|p| {
        p.from_ns <= now && now < p.to_ns && ((p.a == a && p.b == b) || (p.a == b && p.b == a))
    })
}

/// Run one frame through the adversary and schedule whatever survives.
fn send_on(st: &mut State, idx: usize, bytes: &[u8]) -> Result<(), NetError> {
    if let Some(why) = st.deadlock {
        return Err(NetError::Deadlock(why));
    }
    if st.endpoints[idx].dead {
        return Err(sim_io(
            std::io::ErrorKind::NotConnected,
            "simulated endpoint closed",
        ));
    }
    let rx = st.endpoints[idx].peer;
    if st.endpoints[rx].dead {
        return Err(sim_io(
            std::io::ErrorKind::BrokenPipe,
            "simulated peer closed",
        ));
    }
    let now = st.now;
    let seed = st.cfg.seed;
    let link = st.endpoints[rx].link;
    let lh = link_hash(link);
    let fi = st.endpoints[rx].frame_idx;
    st.endpoints[rx].frame_idx += 1;
    let len = bytes.len();
    if partitioned(st, st.endpoints[idx].owner, st.endpoints[rx].owner) {
        st.trace.push((
            now,
            format!("partition-drop link={link} frame={fi} len={len}"),
        ));
        return Ok(());
    }
    if per_mille(st.cfg.drop_per_mille, decide(seed, lh, fi, SALT_DROP)) {
        st.trace
            .push((now, format!("drop link={link} frame={fi} len={len}")));
        return Ok(());
    }
    let mut payload = bytes.to_vec();
    if per_mille(st.cfg.corrupt_per_mille, decide(seed, lh, fi, SALT_CORRUPT)) {
        let pos = (decide(seed, lh, fi, SALT_CORRUPT_POS) as usize) % payload.len().max(1);
        let mask = ((decide(seed, lh, fi, SALT_CORRUPT_MASK) % 255) + 1) as u8;
        if let Some(b) = payload.get_mut(pos) {
            *b ^= mask;
        }
        st.trace.push((
            now,
            format!("corrupt link={link} frame={fi} pos={pos} mask={mask:#04x}"),
        ));
    }
    let dup = per_mille(st.cfg.dup_per_mille, decide(seed, lh, fi, SALT_DUP));
    if per_mille(st.cfg.swap_per_mille, decide(seed, lh, fi, SALT_SWAP))
        && st.endpoints[rx].held.is_none()
    {
        st.trace
            .push((now, format!("hold link={link} frame={fi} len={len}")));
        st.endpoints[rx].held = Some(payload);
        return Ok(());
    }
    st.trace.push((
        now,
        format!(
            "send link={link} frame={fi} len={len}{}",
            if dup { " dup" } else { "" }
        ),
    ));
    if dup {
        enqueue_segments(st, rx, payload.clone());
    }
    enqueue_segments(st, rx, payload);
    if let Some(h) = st.endpoints[rx].held.take() {
        st.trace.push((now, format!("release-held link={link}")));
        enqueue_segments(st, rx, h);
    }
    Ok(())
}

thread_local! {
    static ACTOR: Cell<Option<u32>> = const { Cell::new(None) };
}

fn current_actor() -> Option<u32> {
    ACTOR.with(|a| a.get())
}

fn unregistered() -> NetError {
    sim_io(
        std::io::ErrorKind::Other,
        "thread is not a registered simnet actor",
    )
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Handle to one simulated world. Clones share the world; implements
/// [`Transport`] so the whole runtime stack runs over it unchanged.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Shared>,
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.lock();
        write!(
            f,
            "SimNet {{ seed: {}, now: {}ns, actors: {}, endpoints: {} }}",
            st.cfg.seed,
            st.now,
            st.participants,
            st.endpoints.len()
        )
    }
}

impl SimNet {
    /// Creates a fresh world from the given config.
    pub fn new(cfg: SimConfig) -> SimNet {
        let crashes = cfg
            .crashes
            .iter()
            .map(|&(at, actor)| CrashEvent {
                at,
                actor,
                fired: false,
            })
            .collect();
        SimNet {
            inner: Arc::new(Shared {
                state: Mutex::new(State {
                    cfg,
                    now: 0,
                    participants: 0,
                    blocked: 0,
                    deadlines: BTreeMap::new(),
                    endpoints: Vec::new(),
                    listeners: HashMap::new(),
                    bind_count: HashMap::new(),
                    connect_seq: HashMap::new(),
                    crashes,
                    crashed: HashSet::new(),
                    registered: HashSet::new(),
                    trace: Vec::new(),
                    panics: Vec::new(),
                    deadlock: None,
                    epoch: 0,
                    waiting: 0,
                    acks_outstanding: 0,
                    external: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.lock().now
    }

    /// Whether (and why) the world detected a deadlock.
    pub fn deadlocked(&self) -> Option<&'static str> {
        self.lock().deadlock
    }

    /// Adds `actor` to the quiescence census *before* its thread exists,
    /// so the clock cannot advance past a spawn gap. Panics on duplicate
    /// registration — that is a harness bug.
    pub fn preregister(&self, actor: u32) {
        let mut st = self.lock();
        assert!(
            st.registered.insert(actor),
            "actor {actor} registered twice"
        );
        st.participants += 1;
    }

    /// Binds the calling thread to a previously pre-registered actor id.
    /// The returned guard deregisters on drop.
    pub fn adopt(&self, actor: u32) -> ActorGuard {
        ACTOR.with(|a| a.set(Some(actor)));
        ActorGuard {
            net: self.clone(),
            actor,
        }
    }

    /// [`SimNet::preregister`] + [`SimNet::adopt`] in one call, for
    /// threads that already exist (e.g. the coordinator).
    pub fn register(&self, actor: u32) -> ActorGuard {
        self.preregister(actor);
        self.adopt(actor)
    }

    /// Marks the calling actor as blocked for the duration of `f`, so the
    /// virtual clock can keep advancing while it waits on something
    /// *outside* the simulated world (thread joins, channel recv).
    pub fn block_external<R>(&self, f: impl FnOnce() -> R) -> R {
        {
            let mut st = self.lock();
            st.blocked += 1;
            st.external += 1;
            if st.participants > 0 && st.blocked >= st.participants && st.acks_outstanding == 0 {
                advance(&mut st);
            }
            self.inner.cv.notify_all();
        }
        let r = f();
        let mut st = self.lock();
        st.blocked -= 1;
        st.external -= 1;
        drop(st);
        r
    }

    /// The blocking-operation skeleton. `poll` runs under the lock; `None`
    /// means "still blocked". The last participant to block advances the
    /// virtual clock instead of sleeping — that is the entire scheduler.
    fn wait_op<R>(
        &self,
        deadline: Option<u64>,
        mut poll: impl FnMut(&mut State) -> Option<Result<R, NetError>>,
    ) -> Result<R, NetError> {
        let mut st = self.lock();
        loop {
            if let Some(r) = poll(&mut st) {
                return r;
            }
            if let Some(why) = st.deadlock {
                return Err(NetError::Deadlock(why));
            }
            if let Some(d) = deadline {
                if st.now >= d {
                    return Err(NetError::Timeout);
                }
            }
            st.blocked += 1;
            if let Some(d) = deadline {
                *st.deadlines.entry(d).or_insert(0) += 1;
            }
            let advanced =
                st.blocked >= st.participants && st.acks_outstanding == 0 && advance(&mut st);
            if advanced {
                self.inner.cv.notify_all();
            } else {
                // Either another actor is still runnable, or the world has
                // no future event but an external wait is in flight — sleep
                // until someone changes the state.
                st.waiting += 1;
                let before = st.epoch;
                st = match self.inner.cv.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                st.waiting -= 1;
                if st.epoch != before {
                    // We were part of the cohort the last advance woke;
                    // acknowledge so the next advance waits for our re-poll.
                    st.acks_outstanding -= 1;
                }
            }
            st.blocked -= 1;
            if let Some(d) = deadline {
                if let Some(n) = st.deadlines.get_mut(&d) {
                    *n -= 1;
                    if *n == 0 {
                        st.deadlines.remove(&d);
                    }
                }
            }
        }
    }

    fn read_endpoint(&self, idx: usize, buf: &mut [u8]) -> Result<usize, NetError> {
        let deadline = {
            let st = self.lock();
            st.endpoints[idx]
                .recv_timeout
                .map(|t| st.now.saturating_add(t))
        };
        self.wait_op(deadline, |st| {
            let ep = &mut st.endpoints[idx];
            if ep.dead {
                return Some(Err(sim_io(
                    std::io::ErrorKind::NotConnected,
                    "simulated endpoint closed by crash",
                )));
            }
            if !ep.ready.is_empty() {
                let n = buf.len().min(ep.ready.len());
                for b in buf[..n].iter_mut() {
                    *b = ep.ready.pop_front().expect("checked non-empty");
                }
                return Some(Ok(n));
            }
            if ep.fin_received {
                return Some(Err(NetError::Eof));
            }
            None
        })
    }

    fn record_panic(&self, what: String) {
        let mut st = self.lock();
        st.panics.push(what);
    }

    /// Panic messages captured from simulated workers. The chaos invariant
    /// is that this stays empty.
    pub fn panics(&self) -> Vec<String> {
        self.lock().panics.clone()
    }

    /// The event trace, sorted by `(virtual time, line)` so it is a pure
    /// function of the seed regardless of thread scheduling. Frame
    /// *contents* never appear here — only link ids, indices, lengths and
    /// verdicts — so wall-clock-dependent payload bytes cannot leak in.
    pub fn trace_lines(&self) -> Vec<String> {
        let st = self.lock();
        let mut entries = st.trace.clone();
        drop(st);
        entries.sort();
        entries
            .into_iter()
            .map(|(t, line)| format!("t={t:>12}ns {line}"))
            .collect()
    }
}

/// Deregisters its actor on drop. If every remaining participant is
/// already blocked, runs the clock forward so they are not stranded
/// waiting for a thread that no longer exists.
pub struct ActorGuard {
    net: SimNet,
    actor: u32,
}

impl Drop for ActorGuard {
    fn drop(&mut self) {
        ACTOR.with(|a| a.set(None));
        let mut st = self.net.lock();
        st.registered.remove(&self.actor);
        st.participants -= 1;
        if st.participants > 0 && st.blocked >= st.participants && st.acks_outstanding == 0 {
            advance(&mut st);
        }
        drop(st);
        self.net.inner.cv.notify_all();
    }
}

/// A simulated connection endpoint. Implements [`Conn`]; dropping it
/// closes the stream cleanly (peer reads drain then hit EOF).
#[derive(Debug)]
pub struct SimConn {
    net: SimNet,
    idx: usize,
    reader: FrameReader,
}

struct EndpointSource<'a> {
    net: &'a SimNet,
    idx: usize,
}

impl ByteSource for EndpointSource<'_> {
    fn read_bytes(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        self.net.read_endpoint(self.idx, buf)
    }
}

/// Non-blocking byte source for [`SimConn::try_recv`]: pops whatever is
/// already delivered and reports [`NetError::WouldBlock`] instead of
/// parking in `wait_op` when nothing is. EOF and crash verdicts surface
/// exactly as the blocking source reports them.
struct TryEndpointSource<'a> {
    net: &'a SimNet,
    idx: usize,
}

impl ByteSource for TryEndpointSource<'_> {
    fn read_bytes(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        let mut st = self.net.lock();
        if let Some(why) = st.deadlock {
            return Err(NetError::Deadlock(why));
        }
        let ep = &mut st.endpoints[self.idx];
        if ep.dead {
            return Err(sim_io(
                std::io::ErrorKind::NotConnected,
                "simulated endpoint closed by crash",
            ));
        }
        if !ep.ready.is_empty() {
            let n = buf.len().min(ep.ready.len());
            for b in buf[..n].iter_mut() {
                *b = ep.ready.pop_front().expect("checked non-empty");
            }
            return Ok(n);
        }
        if ep.fin_received {
            return Err(NetError::Eof);
        }
        Err(NetError::WouldBlock)
    }
}

impl SimConn {
    fn new(net: SimNet, idx: usize) -> Self {
        SimConn {
            net,
            idx,
            reader: FrameReader::new(),
        }
    }

    /// Injects raw bytes — not necessarily a valid frame — into the
    /// stream, for protocol-robustness tests (bad magic, bad version,
    /// truncations) without hand-rolling a socket.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let mut st = self.net.lock();
        send_on(&mut st, self.idx, bytes)
    }

    /// Receives one message from already-delivered bytes without blocking;
    /// `Ok(None)` when no complete frame is available yet. A frame caught
    /// partway through delivery stays buffered in the [`FrameReader`], so
    /// the poll wakeup that brings the rest of it resumes cleanly.
    pub fn try_recv(&mut self) -> Result<Option<Msg>, NetError> {
        let mut src = TryEndpointSource {
            net: &self.net,
            idx: self.idx,
        };
        match self.reader.read_from(&mut src) {
            Ok((msg, n)) => {
                pac_telemetry::counter_add("net.bytes_recv", n as u64);
                Ok(Some(msg))
            }
            Err(NetError::WouldBlock) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Conn for SimConn {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        send_on(&mut self.net.lock(), self.idx, frame)?;
        pac_telemetry::counter_add("net.bytes_sent", frame.len() as u64);
        pac_telemetry::counter_inc("net.msgs");
        Ok(())
    }

    fn recv(&mut self) -> Result<Msg, NetError> {
        let mut src = EndpointSource {
            net: &self.net,
            idx: self.idx,
        };
        let (msg, n) = self.reader.read_from(&mut src)?;
        pac_telemetry::counter_add("net.bytes_recv", n as u64);
        Ok(msg)
    }

    fn set_timeout(&mut self, d: Option<Duration>) -> Result<(), NetError> {
        let mut st = self.net.lock();
        st.endpoints[self.idx].recv_timeout = d.map(dur_ns);
        Ok(())
    }
}

impl PollConn for SimConn {
    fn try_recv(&mut self) -> Result<Option<Msg>, NetError> {
        SimConn::try_recv(self)
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        let mut st = self.net.lock();
        close_endpoint(&mut st, self.idx);
        drop(st);
        self.net.inner.cv.notify_all();
    }
}

/// A simulated listener bound to a virtual port. Accept order is the
/// deterministic minimum of `(visible time, dialer, dial seq)` — never
/// thread arrival order.
#[derive(Debug)]
pub struct SimListener {
    net: SimNet,
    port: u16,
}

impl Listener for SimListener {
    type Conn = SimConn;

    fn port(&self) -> u16 {
        self.port
    }

    fn accept(&self, wait: Duration, conn_timeout: Duration) -> Result<SimConn, NetError> {
        let port = self.port;
        let deadline = {
            let st = self.net.lock();
            Some(st.now.saturating_add(dur_ns(wait)))
        };
        let conn_ns = dur_ns(conn_timeout);
        let idx = self.net.wait_op(deadline, move |st| {
            let now = st.now;
            let l = match st.listeners.get_mut(&port) {
                Some(l) => l,
                None => {
                    return Some(Err(sim_io(
                        std::io::ErrorKind::NotConnected,
                        "listener gone",
                    )))
                }
            };
            if l.closed {
                return Some(Err(sim_io(
                    std::io::ErrorKind::NotConnected,
                    "listener closed by simulated crash",
                )));
            }
            let mut best: Option<usize> = None;
            for (i, pc) in l.backlog.iter().enumerate() {
                if pc.visible_at <= now {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            let bb = &l.backlog[b];
                            (pc.visible_at, pc.origin, pc.seq) < (bb.visible_at, bb.origin, bb.seq)
                        }
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            let i = best?;
            let pc = l.backlog.remove(i);
            let owner = l.owner;
            st.endpoints[pc.acc_idx].owner = Some(owner);
            st.endpoints[pc.acc_idx].recv_timeout = Some(conn_ns);
            st.trace.push((
                now,
                format!("accept port={port} origin={} seq={}", pc.origin, pc.seq),
            ));
            Some(Ok(pc.acc_idx))
        })?;
        Ok(SimConn::new(self.net.clone(), idx))
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        let mut st = self.net.lock();
        if let Some(l) = st.listeners.get_mut(&self.port) {
            l.closed = true;
        }
    }
}

impl Transport for SimNet {
    type Conn = SimConn;
    type Listener = SimListener;

    fn bind(&self) -> Result<SimListener, NetError> {
        let actor = current_actor().ok_or_else(unregistered)?;
        let mut st = self.lock();
        if let Some(why) = st.deadlock {
            return Err(NetError::Deadlock(why));
        }
        if st.crashed.contains(&actor) {
            return Err(sim_io(std::io::ErrorKind::Other, "actor crashed"));
        }
        let c = st.bind_count.get(&actor).copied().unwrap_or(0);
        assert!(c < 8, "actor {actor} bound too many listeners");
        // Ports are a pure function of (actor, bind count): no global
        // counter whose value could depend on thread interleaving. An actor
        // id past the port space (respawn generations add up) is refused,
        // never wrapped onto a port another listener holds.
        let port = u16::try_from(1000 + u64::from(actor) * 8 + u64::from(c)).map_err(|_| {
            sim_io(
                std::io::ErrorKind::AddrNotAvailable,
                "actor id past the simulated port space",
            )
        })?;
        if st.listeners.contains_key(&port) {
            return Err(sim_io(
                std::io::ErrorKind::AddrInUse,
                "simulated port already bound",
            ));
        }
        st.bind_count.insert(actor, c + 1);
        st.listeners.insert(
            port,
            ListenerState {
                owner: actor,
                backlog: Vec::new(),
                closed: false,
            },
        );
        let now = st.now;
        st.trace
            .push((now, format!("bind actor={actor} port={port}")));
        Ok(SimListener {
            net: self.clone(),
            port,
        })
    }

    fn connect(&self, port: u16, timeout: Duration) -> Result<SimConn, NetError> {
        let actor = current_actor().ok_or_else(unregistered)?;
        let mut st = self.lock();
        if let Some(why) = st.deadlock {
            return Err(NetError::Deadlock(why));
        }
        if st.crashed.contains(&actor) {
            return Err(sim_io(std::io::ErrorKind::Other, "actor crashed"));
        }
        match st.listeners.get(&port) {
            Some(l) if !l.closed => {}
            _ => {
                return Err(sim_io(
                    std::io::ErrorKind::ConnectionRefused,
                    "connection refused",
                ))
            }
        }
        let seq = {
            let s = st.connect_seq.entry(actor).or_insert(0);
            let v = *s;
            *s += 1;
            v
        };
        let dial_idx = st.endpoints.len();
        let acc_idx = dial_idx + 1;
        let into_dialer = LinkKey {
            origin: actor,
            seq,
            dir: 1,
        };
        let into_acceptor = LinkKey {
            origin: actor,
            seq,
            dir: 0,
        };
        st.endpoints.push(Endpoint::new(
            Some(actor),
            acc_idx,
            into_dialer,
            Some(dur_ns(timeout)),
        ));
        st.endpoints
            .push(Endpoint::new(None, dial_idx, into_acceptor, None));
        let visible_at = st.now + st.cfg.base_latency_ns.max(1);
        st.listeners
            .get_mut(&port)
            .expect("checked above")
            .backlog
            .push(PendingConn {
                visible_at,
                origin: actor,
                seq,
                acc_idx,
            });
        let now = st.now;
        st.trace.push((
            now,
            format!("connect actor={actor} seq={seq} port={port} visible={visible_at}"),
        ));
        Ok(SimConn::new(self.clone(), dial_idx))
    }

    /// The *virtual* clock: busy times and the step deadlines decided
    /// from it become a pure function of the seed, keeping
    /// elastic chaos runs byte-identical across repeats.
    fn now_ns(&self) -> u64 {
        SimNet::now_ns(self)
    }
}

impl PollTransport for SimNet {
    /// Readiness participates in the quiescence protocol via `wait_op`: a
    /// poll-driven coordinator blocked here counts as blocked, so the
    /// virtual clock keeps advancing (a bare `try_recv` spin would look
    /// permanently runnable and livelock the clock). Lowest ready index
    /// wins, and "ready" is purely delivered-bytes/FIN/crash state — all
    /// clock-event driven — so which connection is reported is a pure
    /// function of the seed.
    fn wait_ready(
        &self,
        conns: &mut [&mut SimConn],
        wait: Duration,
    ) -> Result<Readiness, NetError> {
        let idxs: Vec<usize> = conns.iter().map(|c| c.idx).collect();
        let deadline = {
            let st = self.lock();
            Some(st.now.saturating_add(dur_ns(wait)))
        };
        match self.wait_op(deadline, move |st| {
            for (i, &idx) in idxs.iter().enumerate() {
                let ep = &st.endpoints[idx];
                if ep.dead || ep.fin_received || !ep.ready.is_empty() {
                    return Some(Ok(Readiness::Conn(i)));
                }
            }
            None
        }) {
            Ok(r) => Ok(r),
            Err(NetError::Timeout) => Ok(Readiness::TimedOut),
            Err(e) => Err(e),
        }
    }
}

/// Spawns simulated workers as threads registered with the world's
/// quiescence census. Worker panics are caught and recorded (the sweep
/// asserts there are none); repeated launches (recovery respawns) get
/// fresh actor-id generations.
#[derive(Debug, Clone)]
pub struct SimSpawner {
    net: SimNet,
    buggify: Buggify,
    /// When set, `buggify` is planted only on this `(generation, slot)`;
    /// every other worker runs clean.
    target: Option<(u32, u32)>,
    gen: Arc<AtomicU32>,
}

impl SimSpawner {
    /// Spawner for a well-behaved world.
    pub fn new(net: SimNet) -> Self {
        SimSpawner {
            net,
            buggify: Buggify::default(),
            target: None,
            gen: Arc::new(AtomicU32::new(0)),
        }
    }

    /// Spawner whose workers run with the given planted bugs enabled —
    /// the sweep's self-test that the harness actually catches real
    /// ordering violations.
    pub fn with_buggify(net: SimNet, buggify: Buggify) -> Self {
        SimSpawner {
            net,
            buggify,
            target: None,
            gen: Arc::new(AtomicU32::new(0)),
        }
    }

    /// Spawner that plants `buggify` on exactly one worker — launch
    /// `generation` (0 is the job's first world; recovery respawns count
    /// up) and `slot` within it — while every other worker runs clean.
    /// A single transient flake needs this: recurring on respawned
    /// workers, the eviction it provokes would cycle forever.
    pub fn with_buggify_at(net: SimNet, buggify: Buggify, generation: u32, slot: u32) -> Self {
        SimSpawner {
            net,
            buggify,
            target: Some((generation, slot)),
            gen: Arc::new(AtomicU32::new(0)),
        }
    }
}

impl Spawn for SimSpawner {
    type T = SimNet;

    fn transport(&self) -> SimNet {
        self.net.clone()
    }

    fn launch(&self, coord_port: u16, world: usize) -> std::io::Result<SpawnedWorld> {
        assert!(
            (world as u32) < WORKERS_PER_GEN,
            "simulated world limited to {} ranks",
            WORKERS_PER_GEN - 1
        );
        let generation = self.gen.fetch_add(1, Ordering::SeqCst);
        let mut out = SpawnedWorld::default();
        // Register every worker before any thread starts: otherwise the
        // coordinator could block first, look like the only participant,
        // and advance the clock through a world that does not exist yet.
        let actors: Vec<u32> = (0..world as u32)
            .map(|slot| generation * WORKERS_PER_GEN + slot + 1)
            .collect();
        for &actor in &actors {
            self.net.preregister(actor);
        }
        for (slot, &actor) in actors.iter().enumerate() {
            let net = self.net.clone();
            let buggify = match self.target {
                None => self.buggify,
                Some((g, s)) if g == generation && s == slot as u32 => self.buggify,
                Some(_) => Buggify::default(),
            };
            out.threads.push(std::thread::spawn(move || {
                let _guard = net.adopt(actor);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_worker_on(&net, coord_port, slot as u32, RunMode::Thread, &buggify)
                }));
                if let Err(payload) = run {
                    let what = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    net.record_panic(format!("worker slot {slot} (actor {actor}): {what}"));
                }
            }));
        }
        out.sim = Some(self.net.clone());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;

    #[test]
    fn adversary_decisions_are_stateless_and_seeded() {
        let l = LinkKey {
            origin: 3,
            seq: 1,
            dir: 0,
        };
        let a = decide(42, link_hash(l), 7, SALT_DROP);
        let b = decide(42, link_hash(l), 7, SALT_DROP);
        assert_eq!(a, b);
        assert_ne!(a, decide(43, link_hash(l), 7, SALT_DROP));
        assert_ne!(a, decide(42, link_hash(l), 8, SALT_DROP));
        assert_ne!(a, decide(42, link_hash(l), 7, SALT_DUP));
    }

    #[test]
    fn clean_world_ping_pong_advances_virtual_time_only() {
        let net = SimNet::new(SimConfig::clean(11));
        let _g = net.register(0);
        net.preregister(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let server = {
            let net = net.clone();
            std::thread::spawn(move || {
                let _g = net.adopt(1);
                let listener = net.bind().expect("bind");
                tx.send(listener.port()).expect("port handoff");
                let mut conn = listener
                    .accept(Duration::from_secs(5), Duration::from_secs(5))
                    .expect("accept");
                let got = conn.recv().expect("recv ping");
                conn.send(&got).expect("echo");
            })
        };
        let port = rx.recv().expect("server bound");
        let mut conn = net.connect(port, Duration::from_secs(5)).expect("connect");
        conn.send(&Msg::Heartbeat { nonce: 9 }).expect("send");
        let echoed = conn.recv().unwrap_or_else(|e| {
            for line in net.trace_lines() {
                eprintln!("{line}");
            }
            panic!("recv echo: {e}");
        });
        assert_eq!(echoed, Msg::Heartbeat { nonce: 9 });
        net.block_external(|| server.join().expect("server thread"));
        assert!(net.now_ns() > 0, "virtual time advanced");
        assert!(net.deadlocked().is_none());
    }

    /// Ports stay an injective function of (actor, bind count): an actor
    /// id whose port would not fit 16 bits is a typed error, never a
    /// wrapped port that replaces the coordinator's listener.
    #[test]
    fn a_bind_past_the_port_space_is_refused_not_wrapped() {
        let net = SimNet::new(SimConfig::clean(13));
        let _g = net.register(0);
        let coordinator = net.bind().expect("actor 0 binds");
        assert_eq!(coordinator.port(), 1000);
        net.preregister(8066);
        net.preregister(8192);
        let worker = {
            let net = net.clone();
            std::thread::spawn(move || {
                let last_fit = {
                    let _g = net.adopt(8066);
                    net.bind()
                        .expect("the highest actor whose port fits")
                        .port()
                };
                let _g = net.adopt(8192);
                let err = net.bind().expect_err("actor 8192's port is past u16");
                let mut conn = net
                    .connect(1000, Duration::from_secs(5))
                    .expect("dial actor 0");
                conn.send(&Msg::Heartbeat { nonce: 5 }).expect("send");
                (last_fit, err)
            })
        };
        let mut conn = coordinator
            .accept(Duration::from_secs(5), Duration::from_secs(5))
            .expect("actor 0's listener still accepts");
        assert_eq!(conn.recv().expect("recv"), Msg::Heartbeat { nonce: 5 });
        let (last_fit, err) = net.block_external(|| worker.join().expect("worker thread"));
        assert_eq!(last_fit, 1000 + 8066 * 8);
        assert!(
            matches!(err, NetError::Io(ref e) if e.kind() == std::io::ErrorKind::AddrNotAvailable),
            "{err}"
        );
    }

    /// A frame whose bytes land across two poll wakeups must not desync:
    /// the first `wait_ready`/`try_recv` pair buffers the partial frame
    /// and reports would-block, and the wakeup that brings the tail
    /// completes the same frame. No panic, no lost frame, no `BadMagic`.
    #[test]
    fn partial_frame_straddles_two_poll_wakeups() {
        let mut cfg = SimConfig::clean(21);
        cfg.frag_per_mille = 0; // we fragment by hand below
        cfg.jitter_ns = 0;
        let net = SimNet::new(cfg);
        let _g = net.register(0);
        net.preregister(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let sender = {
            let net = net.clone();
            std::thread::spawn(move || {
                let _g = net.adopt(1);
                let listener = net.bind().expect("bind");
                tx.send(listener.port()).expect("port handoff");
                let mut conn = listener
                    .accept(Duration::from_secs(5), Duration::from_secs(5))
                    .expect("accept");
                let frame = encode_frame(&Msg::Heartbeat { nonce: 77 });
                let cut = frame.len() / 2;
                conn.send_raw(&frame[..cut]).expect("first half");
                // Block for 50 virtual ms so the receiver observably wakes
                // twice: once for the head, once for the tail.
                conn.set_timeout(Some(Duration::from_millis(50)))
                    .expect("set timeout");
                assert!(matches!(conn.recv(), Err(NetError::Timeout)));
                conn.send_raw(&frame[cut..]).expect("second half");
                // Hold the conn open until the receiver is done.
                conn.set_timeout(Some(Duration::from_millis(200)))
                    .expect("set timeout");
                assert!(matches!(conn.recv(), Err(NetError::Timeout)));
            })
        };
        let port = rx.recv().expect("sender bound");
        let mut conn = net.connect(port, Duration::from_secs(5)).expect("connect");

        assert_eq!(
            net.wait_ready(&mut [&mut conn], Duration::from_secs(5))
                .expect("first wakeup"),
            Readiness::Conn(0)
        );
        assert!(matches!(conn.try_recv(), Ok(None)), "head is not a frame");
        assert!(conn.reader.mid_frame(), "partial frame stays buffered");
        assert_eq!(
            net.wait_ready(&mut [&mut conn], Duration::from_secs(5))
                .expect("second wakeup"),
            Readiness::Conn(0)
        );
        assert_eq!(
            conn.try_recv().expect("tail completes the frame"),
            Some(Msg::Heartbeat { nonce: 77 })
        );
        net.block_external(|| sender.join().expect("sender thread"));
        assert!(net.deadlocked().is_none());
    }

    /// A dial that lands while the coordinator is retiring a world must
    /// not be lost: retirement drops that world's connections, never the
    /// shared listener, so the next `accept` still drains the backlog.
    /// Dials arriving *after* the listener itself is gone get a typed
    /// refusal, not a hang.
    #[test]
    fn accept_races_world_retirement() {
        let mut cfg = SimConfig::clean(22);
        cfg.frag_per_mille = 0;
        let net = SimNet::new(cfg);
        let _g = net.register(0);
        net.preregister(1);
        let listener = net.bind().expect("bind");
        let port = listener.port();

        // World A: established, then retired below.
        let world_a = {
            let net = net.clone();
            std::thread::spawn(move || {
                let _g = net.adopt(1);
                let mut conn = net.connect(port, Duration::from_secs(5)).expect("dial A");
                // Retirement closes the coordinator side; we see EOF.
                assert!(matches!(conn.recv(), Err(NetError::Eof)));
            })
        };
        let conn_a = listener
            .accept(Duration::from_secs(5), Duration::from_secs(5))
            .expect("accept A");

        // World B dials while A is being retired. (Preregistered only now:
        // an actor in the census before any thread can run it would freeze
        // the clock — nothing else may block on its behalf.)
        net.preregister(2);
        let world_b = {
            let net = net.clone();
            std::thread::spawn(move || {
                let _g = net.adopt(2);
                let mut conn = net.connect(port, Duration::from_secs(5)).expect("dial B");
                assert_eq!(
                    conn.recv().expect("hello from coordinator"),
                    Msg::Heartbeat { nonce: 2 }
                );
            })
        };
        drop(conn_a); // retire world A — the listener stays bound
        let mut conn_b = listener
            .accept(Duration::from_secs(5), Duration::from_secs(5))
            .expect("accept B survives A's retirement");
        conn_b.send(&Msg::Heartbeat { nonce: 2 }).expect("greet B");
        net.block_external(|| {
            world_a.join().expect("world A thread");
            world_b.join().expect("world B thread");
        });

        // Once the listener itself is dropped, dials are refused, typed.
        drop(listener);
        match net.connect(port, Duration::from_secs(1)) {
            Err(NetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused)
            }
            other => panic!("expected refusal, got {other:?}"),
        }
        assert!(net.deadlocked().is_none());
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let net = SimNet::new(SimConfig::clean(5));
        let _g = net.register(0);
        net.preregister(1);
        // Two actors both waiting to accept connections that never come.
        let t = {
            let net = net.clone();
            std::thread::spawn(move || {
                let _g = net.adopt(1);
                let listener = net.bind().expect("bind");
                listener.accept(Duration::from_secs(3600), Duration::from_secs(1))
            })
        };
        let listener = net.bind().expect("bind");
        let mine = listener.accept(Duration::from_secs(3600), Duration::from_secs(1));
        // Both accepts share one virtual deadline; at that instant neither
        // actor has any other future event, so the world either times out
        // or reports a deadlock — it must not hang in wall time.
        assert!(matches!(
            mine,
            Err(NetError::Timeout) | Err(NetError::Deadlock(_))
        ));
        let theirs = net.block_external(|| t.join().expect("peer thread"));
        assert!(matches!(
            theirs,
            Err(NetError::Timeout) | Err(NetError::Deadlock(_))
        ));
    }
}
