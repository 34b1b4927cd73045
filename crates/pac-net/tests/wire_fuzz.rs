//! Fuzz of the wire boundary: seeded mutations of the frames a real
//! `dist_world`-shaped step puts on its sockets, through the vendored
//! proptest shim.
//!
//! The corpus is captured off the wire: a 2×2 hidden-32 world of the
//! reference benchmark's shape runs one step over loopback TCP behind a
//! transport that records every frame any connection sends — setup, `Step`
//! (carrying its snapshot request), `Act`, `Grad`, the ring's gradient
//! blocks, `Done` and `ParamSnap` (a healthy step carries no `Heartbeat`: a
//! rank's liveness is its step traffic). Each case applies one to four
//! mutations from {flip, truncate, zero a range, duplicate a range, splice
//! two frames}. Left as they are, the mutated bytes may decode only to a
//! frame that is an original; resealed with a fresh length and checksum, so
//! the damage reaches the payload parser, they may decode only to a message
//! whose encoding is a fixed point of decode-then-encode. A panic anywhere
//! fails the case.
//!
//! The `#[ignore]`d twins run the same properties on many more cases (the
//! nightly budget: `cargo test --release -p pac-net --test wire_fuzz --
//! --ignored`).

use pac_net::transport::TcpPortListener;
use pac_net::wire::{checksum, decode_frame, encode_frame, HEADER_LEN};
use pac_net::{
    run_worker_on, run_world, Buggify, Conn, DistConfig, FramedConn, Listener, Msg, NetError,
    PollConn, PollTransport, Readiness, RunMode, Spawn, SpawnedWorld, Tcp, TenantJob, Transport,
};
use pac_parallel::engine::MicroBatch;
use pac_tensor::rng::seeded;
use proptest::prelude::*;
use rand::Rng;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

type Frames = Arc<Mutex<Vec<Vec<u8>>>>;

/// Loopback TCP that records every frame its connections send.
#[derive(Clone, Debug, Default)]
struct Tap {
    frames: Frames,
}

#[derive(Debug)]
struct TapConn {
    inner: FramedConn,
    frames: Frames,
}

#[derive(Debug)]
struct TapListener {
    inner: TcpPortListener,
    frames: Frames,
}

impl Conn for TapConn {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.frames.lock().unwrap().push(frame.to_vec());
        self.inner.send_frame(frame)
    }
    fn recv(&mut self) -> Result<Msg, NetError> {
        self.inner.recv()
    }
    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.inner.set_timeout(timeout)
    }
}

impl PollConn for TapConn {
    fn try_recv(&mut self) -> Result<Option<Msg>, NetError> {
        self.inner.try_recv()
    }
}

impl Listener for TapListener {
    type Conn = TapConn;
    fn port(&self) -> u16 {
        self.inner.port()
    }
    fn accept(&self, wait: Duration, conn_timeout: Duration) -> Result<TapConn, NetError> {
        Ok(TapConn {
            inner: self.inner.accept(wait, conn_timeout)?,
            frames: self.frames.clone(),
        })
    }
}

impl Transport for Tap {
    type Conn = TapConn;
    type Listener = TapListener;
    fn bind(&self) -> Result<TapListener, NetError> {
        Ok(TapListener {
            inner: Tcp::LOOPBACK.bind()?,
            frames: self.frames.clone(),
        })
    }
    fn connect(&self, port: u16, timeout: Duration) -> Result<TapConn, NetError> {
        Ok(TapConn {
            inner: Tcp::LOOPBACK.connect(port, timeout)?,
            frames: self.frames.clone(),
        })
    }
}

impl PollTransport for Tap {
    fn wait_ready(
        &self,
        conns: &mut [&mut TapConn],
        wait: Duration,
    ) -> Result<Readiness, NetError> {
        let mut inner: Vec<&mut FramedConn> = conns.iter_mut().map(|c| &mut c.inner).collect();
        Tcp::LOOPBACK.wait_ready(&mut inner, wait)
    }
}

/// Thread workers on the tap; the spawner keeps their handles and the
/// capture joins them once the world is done.
#[derive(Default)]
struct TapSpawner {
    tap: Tap,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Spawn for TapSpawner {
    type T = Tap;
    fn transport(&self) -> Tap {
        self.tap.clone()
    }
    fn launch(&self, coord_port: u16, world: usize) -> std::io::Result<SpawnedWorld> {
        for slot in 0..world as u32 {
            let tap = self.tap.clone();
            self.workers
                .lock()
                .unwrap()
                .push(std::thread::spawn(move || {
                    let _ =
                        run_worker_on(&tap, coord_port, slot, RunMode::Thread, &Buggify::default());
                }));
        }
        Ok(SpawnedWorld::default())
    }
}

/// One step of the reference benchmark's `dist_world` batches: two
/// micro-batches of eight 16-token rows.
fn one_step() -> Vec<Vec<MicroBatch>> {
    let mut rng = seeded(26);
    let micro = |rng: &mut rand::rngs::StdRng| {
        let rows = (0..8)
            .map(|_| (0..16).map(|_| rng.gen_range(0..64usize)).collect())
            .collect();
        let labels = (0..8).map(|_| rng.gen_range(0..2usize)).collect();
        (rows, labels)
    };
    vec![vec![micro(&mut rng), micro(&mut rng)]]
}

/// Every frame a one-step 2×2 hidden-32 world sends, in send order.
fn capture() -> Vec<Vec<u8>> {
    let mut cfg = DistConfig::loopback(2, 2);
    cfg.hidden = 32;
    let spawner = TapSpawner::default();
    run_world(&spawner, TenantJob::new(0, cfg, one_step())).expect("one-step world over the tap");
    for worker in spawner.workers.into_inner().unwrap() {
        worker.join().expect("worker thread");
    }
    let frames = spawner.tap.frames.lock().unwrap().clone();
    frames
}

/// The distinct frames of the world, in send order.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut seen = HashSet::new();
        capture()
            .into_iter()
            .filter(|f| seen.insert(f.clone()))
            .collect()
    })
}

fn originals() -> &'static HashSet<Vec<u8>> {
    static SET: OnceLock<HashSet<Vec<u8>>> = OnceLock::new();
    SET.get_or_init(|| corpus().iter().cloned().collect())
}

/// One mutation of `bytes`; `other` is a second corpus frame. `a` and `b`
/// pick offsets and lengths.
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
        // Splice: this frame's head, the other's tail.
        4 => {
            bytes.truncate(at);
            bytes.extend_from_slice(&other[b % (other.len() + 1)..]);
        }
        _ => {}
    }
}

/// Corpus frame `which` after `mutations`, each splicing with the frame
/// its `b` picks.
fn mutated(which: usize, mutations: &[(u8, usize, usize, u8)]) -> Vec<u8> {
    let frames = corpus();
    let mut bytes = frames[which % frames.len()].clone();
    for &(kind, a, b, mask) in mutations {
        mutate(&mut bytes, &frames[b % frames.len()], kind, a, b, mask);
    }
    bytes
}

/// Damaged bytes decode only to an original frame.
fn decodes_only_to_an_original(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok((_, used)) = decode_frame(bytes) {
        prop_assert!(
            originals().contains(&bytes[..used]),
            "damaged bytes ({} long) decoded over {used} of them",
            bytes.len()
        );
    }
    Ok(())
}

/// `bytes` with the header's length and the trailing checksum rewritten to
/// match, so the payload parser sees the damage.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    if let Some(body) = bytes.len().checked_sub(4).filter(|&b| b >= HEADER_LEN) {
        let len = (body - HEADER_LEN) as u32;
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let sum = checksum(&bytes[4..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }
    bytes
}

/// Resealed damage decodes only to a message whose encoding decodes back
/// to itself.
fn decodes_only_to_a_fixed_point(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok((msg, used)) = decode_frame(bytes) {
        prop_assert_eq!(used, bytes.len());
        let frame = encode_frame(&msg);
        let (again, _) = decode_frame(&frame).expect("an encoded message decodes");
        prop_assert!(
            encode_frame(&again) == frame,
            "decode-then-encode moved {:?}",
            msg
        );
    }
    Ok(())
}

#[test]
fn corpus_is_every_kind_of_frame_of_a_real_step() {
    let kinds: HashSet<&str> = corpus()
        .iter()
        .map(|f| {
            let (msg, used) = decode_frame(f).expect("a captured frame decodes");
            assert_eq!(used, f.len());
            match msg {
                Msg::Step { .. } => "Step",
                Msg::Act { .. } => "Act",
                Msg::Grad { .. } => "Grad",
                Msg::GradBlock { .. } => "GradBlock",
                Msg::Done { .. } => "Done",
                Msg::ParamSnap { .. } => "ParamSnap",
                Msg::Heartbeat { .. } => "Heartbeat",
                Msg::HeartbeatAck { .. } => "HeartbeatAck",
                _ => "setup",
            }
        })
        .collect();
    for kind in ["Step", "Act", "Grad", "Done", "ParamSnap"] {
        assert!(kinds.contains(kind), "no {kind} frame in {kinds:?}");
    }
    // Liveness is the step's own traffic: not one probe on a healthy step.
    for kind in ["Heartbeat", "HeartbeatAck"] {
        assert!(!kinds.contains(kind), "a {kind} frame in {kinds:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_frames_decode_only_to_an_original(
        which in 0usize..1_000_000,
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
    ) {
        decodes_only_to_an_original(&mutated(which, &mutations))?;
    }

    #[test]
    fn resealed_mutations_decode_only_to_a_fixed_point(
        which in 0usize..1_000_000,
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
    ) {
        decodes_only_to_a_fixed_point(&resealed(mutated(which, &mutations)))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5_000_000))]

    #[test]
    #[ignore = "nightly budget"]
    fn mutated_frames_decode_only_to_an_original_deep(
        which in 0usize..1_000_000,
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
    ) {
        decodes_only_to_an_original(&mutated(which, &mutations))?;
    }

    #[test]
    #[ignore = "nightly budget"]
    fn resealed_mutations_decode_only_to_a_fixed_point_deep(
        which in 0usize..1_000_000,
        mutations in prop::collection::vec(
            (0u8..5, 0usize..1_000_000, 0usize..1_000_000, 1u8..=255),
            1..=4,
        ),
    ) {
        decodes_only_to_a_fixed_point(&resealed(mutated(which, &mutations)))?;
    }
}
