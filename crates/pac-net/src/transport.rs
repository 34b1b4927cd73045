//! The byte-transport abstraction that lets the *same* coordinator,
//! worker, rendezvous, and collective code run over real TCP sockets or
//! the deterministic in-memory simulation ([`crate::simnet`]).
//!
//! Three traits:
//!
//! * [`Conn`] — a framed, bidirectional, blocking connection with a read
//!   deadline. [`crate::chan::FramedConn`] (TCP) and
//!   [`crate::simnet::SimConn`] implement it.
//! * [`Listener`] — accepts incoming connections on a port, with a
//!   deadline.
//! * [`Transport`] — binds listeners and dials ports. The address space is
//!   deliberately just a `u16` port: the reproduction runs single-host
//!   (loopback or simulated), and a port is the only part of an address
//!   that differs between peers. Real multi-host deployment would widen
//!   this to full socket addresses without touching the protocol code.
//!
//! None of the protocol logic (`rendezvous`, `worker`, `collective`,
//! `coordinator`) names a socket type — everything is generic over these
//! traits, so there are no `#[cfg]` forks between production and
//! simulation paths: the bytes that cross a simulated link are produced
//! and consumed by the exact code that runs over TCP.

use crate::chan::FramedConn;
use crate::wire::{encode_frame, Msg, NetError};
use std::fmt::Debug;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short, c_void};
use std::time::{Duration, Instant};

/// A framed, blocking, bidirectional connection.
pub trait Conn: Send + Debug {
    /// Sends one already-encoded frame (see [`crate::wire::encode_frame`]
    /// and its borrowed-input siblings).
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// Sends one message as a single frame.
    fn send(&mut self, msg: &Msg) -> Result<(), NetError> {
        self.send_frame(&encode_frame(msg))
    }

    /// Receives one message, honoring the read deadline. A deadline expiry
    /// mid-frame keeps the partial frame buffered, so a retried `recv`
    /// resumes the same frame (see [`crate::wire::FrameReader`]).
    fn recv(&mut self) -> Result<Msg, NetError>;

    /// Replaces the read deadline (`None` blocks forever — only sensible
    /// for tests).
    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError>;

    /// Receives one message and requires it to satisfy `check`; any other
    /// *valid* message is a typed protocol violation, never a panic and
    /// never misreported as EOF.
    fn recv_expecting(
        &mut self,
        want: &'static str,
        check: impl FnOnce(&Msg) -> bool,
    ) -> Result<Msg, NetError>
    where
        Self: Sized,
    {
        let msg = self.recv()?;
        if check(&msg) {
            Ok(msg)
        } else {
            let _ = want;
            Err(NetError::Malformed("unexpected message for protocol state"))
        }
    }
}

/// What a [`PollTransport::wait_ready`] wakeup reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// `conns[i]` has bytes (or an EOF / crash verdict) to consume: a
    /// `try_recv` on it will make progress.
    Conn(usize),
    /// The wait bound expired with nothing ready. Not an error — the
    /// caller's event loop uses the bound to interleave listener polls
    /// and admission checks between connection wakeups.
    TimedOut,
}

/// A connection that additionally supports *non-blocking* operations, for
/// readiness-loop coordinators that multiplex many connections on one
/// thread instead of parking a thread per peer.
///
/// The contract mirrors a non-blocking socket read: `try_recv` never
/// waits, and a partial frame stays buffered across calls (the poll loop
/// may wake twice before one frame fully arrives).
pub trait PollConn: Conn {
    /// Receives one message if a complete frame can be assembled from
    /// already-delivered bytes; `Ok(None)` when the operation would block
    /// (no bytes, or a partial frame still in flight). EOF, crashes, and
    /// protocol violations surface as the same typed errors `recv` uses.
    fn try_recv(&mut self) -> Result<Option<Msg>, NetError>;
}

/// A transport whose connections can be multiplexed by one thread: block
/// until *some* connection is ready instead of blocking on one of them.
///
/// This is the seam the multi-world coordinator
/// ([`crate::coordinator`]) runs on. Over TCP readiness is one `poll(2)`
/// over the sockets; over the simulated
/// transport the wait participates in the virtual-clock quiescence
/// protocol, so a poll-driven coordinator blocked here still lets the
/// simulation advance deterministically (a spinning `try_recv` loop would
/// livelock the virtual clock, which only moves when every actor blocks).
pub trait PollTransport: Transport
where
    Self::Conn: PollConn,
{
    /// Blocks until at least one of `conns` is readable, or `wait`
    /// expires. Returns the *lowest* ready index, so servicing order is a
    /// deterministic function of the poll set, never of OS wake order.
    fn wait_ready(
        &self,
        conns: &mut [&mut Self::Conn],
        wait: Duration,
    ) -> Result<Readiness, NetError>;
}

/// Accepts incoming connections on one bound port.
pub trait Listener: Send + Debug {
    /// Connection type produced by [`Listener::accept`].
    type Conn: Conn;

    /// The port peers should dial.
    fn port(&self) -> u16;

    /// Accepts one connection, waiting at most `wait`. The accepted
    /// connection's read deadline is initialized to `conn_timeout`.
    fn accept(&self, wait: Duration, conn_timeout: Duration) -> Result<Self::Conn, NetError>;
}

/// A way to create listeners and dial peers. Cloned freely: every worker
/// and the coordinator hold one.
pub trait Transport: Clone + Send + Sync + Debug + 'static {
    /// Connection type of this transport.
    type Conn: Conn + 'static;
    /// Listener type of this transport.
    type Listener: Listener<Conn = Self::Conn>;

    /// Binds a fresh listener on a transport-chosen port.
    fn bind(&self) -> Result<Self::Listener, NetError>;

    /// Dials `port` with a connect deadline; the returned connection's
    /// read deadline is initialized to the same `timeout`.
    fn connect(&self, port: u16, timeout: Duration) -> Result<Self::Conn, NetError>;

    /// Monotonic transport-clock nanoseconds. Everything time-*measuring*
    /// in the protocol (per-step busy time, the step deadlines) reads this
    /// clock instead of [`Instant`]
    /// directly: over TCP it is wall time since process start, while
    /// [`crate::simnet`] overrides it with the *virtual* clock so
    /// measurements — and every deadline decided from them — are a pure
    /// function of the seed.
    fn now_ns(&self) -> u64 {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

// ---------------------------------------------------------------------------
// TCP: the production transport
// ---------------------------------------------------------------------------

/// Real TCP sockets on one host (loopback in this reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tcp {
    /// Host every port lives on.
    pub host: IpAddr,
}

impl Tcp {
    /// TCP on 127.0.0.1 — the transport every existing test and the
    /// `repro --distributed` smoke run use.
    pub const LOOPBACK: Tcp = Tcp {
        host: IpAddr::V4(Ipv4Addr::LOCALHOST),
    };

    /// The transport that reaches `addr`'s host (used by `run_worker` to
    /// derive its transport from the coordinator address it was handed).
    pub fn to(addr: SocketAddr) -> Tcp {
        Tcp { host: addr.ip() }
    }
}

impl Default for Tcp {
    fn default() -> Self {
        Tcp::LOOPBACK
    }
}

/// A bound TCP listener.
#[derive(Debug)]
pub struct TcpPortListener {
    inner: TcpListener,
    port: u16,
}

impl TcpPortListener {
    /// Accepts with a hard wall-clock deadline on a non-blocking listener:
    /// between attempts the caller sleeps in `poll(2)` on the listening
    /// socket, so it returns when a dial lands, not on a timer tick.
    fn accept_deadline(&self, deadline: Instant) -> Result<(TcpStream, SocketAddr), NetError> {
        self.inner.set_nonblocking(true)?;
        loop {
            match self.inner.accept() {
                Ok((s, a)) => {
                    s.set_nonblocking(false)?;
                    return Ok((s, a));
                }
                // `poll_readable` only says a dial was queued: it may have
                // been reset since, so readiness leads back to `accept`.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let mut fds = [PollFd::readable(self.inner.as_raw_fd())];
                    if !poll_readable(&mut fds, deadline)? {
                        return Err(NetError::Timeout);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Listener for TcpPortListener {
    type Conn = FramedConn;

    fn port(&self) -> u16 {
        self.port
    }

    fn accept(&self, wait: Duration, conn_timeout: Duration) -> Result<FramedConn, NetError> {
        let (stream, _) = self.accept_deadline(Instant::now() + wait)?;
        FramedConn::from_stream(stream, conn_timeout)
    }
}

impl Transport for Tcp {
    type Conn = FramedConn;
    type Listener = TcpPortListener;

    fn bind(&self) -> Result<TcpPortListener, NetError> {
        let inner = TcpListener::bind((self.host, 0))?;
        let port = inner.local_addr()?.port();
        Ok(TcpPortListener { inner, port })
    }

    fn connect(&self, port: u16, timeout: Duration) -> Result<FramedConn, NetError> {
        FramedConn::connect(SocketAddr::from((self.host, port)), timeout)
    }
}

/// One entry of `poll(2)`'s descriptor set (`struct pollfd`).
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `POLLIN`.
    fn readable(fd: RawFd) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }
}

/// `POLLIN`: data, a FIN, a queued connection or a pending error can be
/// taken without blocking.
const POLLIN: c_short = 0x001;

/// `nfds_t`.
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// `MSG_DONTWAIT`: this one `recv` returns `EAGAIN` instead of blocking.
#[cfg(target_os = "linux")]
const MSG_DONTWAIT: c_int = 0x40;
#[cfg(not(target_os = "linux"))]
const MSG_DONTWAIT: c_int = 0x80;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: c_int) -> c_int;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

/// One `recv(2)` on `fd` with `MSG_DONTWAIT`: takes what the socket holds
/// without blocking and without switching the socket out of blocking mode.
/// `Ok(0)` is end of stream; an empty socket is `ErrorKind::WouldBlock`.
pub(crate) fn recv_dontwait(fd: RawFd, buf: &mut [u8]) -> std::io::Result<usize> {
    // SAFETY: `buf` is a live, exclusively borrowed region of `buf.len()`
    // bytes, which is all recv(2) writes; the caller owns `fd` for the
    // whole call.
    let n = unsafe { recv(fd, buf.as_mut_ptr().cast(), buf.len(), MSG_DONTWAIT) };
    usize::try_from(n).map_err(|_| std::io::Error::last_os_error())
}

/// Sleeps in `poll(2)` until a descriptor of `fds` reports an event or
/// `deadline` passes; `false` means the deadline passed with nothing
/// flagged. The caller must keep every descriptor open for the whole call.
fn poll_readable(fds: &mut [PollFd], deadline: Instant) -> Result<bool, NetError> {
    loop {
        // Rounded up to poll's millisecond grain, so a sub-millisecond
        // remainder sleeps rather than spins.
        let left = deadline.saturating_duration_since(Instant::now());
        let timeout_ms = c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `repr(C)` pollfd records, which is what poll(2)
        // reads and writes; the caller holds every descriptor's owner
        // borrowed for the whole call, so none can be closed under it.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if ready >= 0 {
            return Ok(ready > 0);
        }
        // A signal cut the wait short: resume it against the same
        // deadline. Anything else is a real failure.
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(NetError::Io(err));
        }
    }
}

impl PollTransport for Tcp {
    /// Readiness over TCP is one `poll(2)` over the sockets: the caller
    /// sleeps in the kernel until a frame's first byte, a FIN or a socket
    /// error arrives, and wakes then rather than on a timer tick. Any
    /// returned event counts — `POLLHUP`/`POLLERR` mean the next
    /// `try_recv` has a typed error to report. Index order (not OS wake
    /// order) decides which ready connection is reported, so coordinator
    /// behavior stays a function of the poll set even over real sockets.
    ///
    /// Only the socket is watched: a [`crate::wire::FrameReader`] never
    /// reads past the frame it is assembling, so a connection holding a
    /// partial frame has nothing to deliver until the socket is readable
    /// again.
    fn wait_ready(
        &self,
        conns: &mut [&mut FramedConn],
        wait: Duration,
    ) -> Result<Readiness, NetError> {
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|conn| PollFd::readable(conn.as_raw_fd()))
            .collect();
        poll_readable(&mut fds, Instant::now() + wait)?;
        // Nothing flagged means the wait ran out.
        let first = fds.iter().position(|fd| fd.revents != 0);
        Ok(first.map_or(Readiness::TimedOut, Readiness::Conn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;

    const LONG: Duration = Duration::from_secs(5);

    /// One loopback connection: `(dialer, acceptor)`.
    fn pair() -> (FramedConn, FramedConn) {
        let listener = Tcp::LOOPBACK.bind().unwrap();
        let dialer = Tcp::LOOPBACK.connect(listener.port(), LONG).unwrap();
        let acceptor = listener.accept(LONG, LONG).unwrap();
        (dialer, acceptor)
    }

    fn wait(conns: &mut [&mut FramedConn], wait: Duration) -> Readiness {
        Tcp::LOOPBACK.wait_ready(conns, wait).unwrap()
    }

    #[test]
    fn an_accept_returns_when_the_dial_lands_not_on_a_timer_tick() {
        // The listener is already waiting when each dial starts (the
        // dialer holds off for longer than any sleep grain an accept loop
        // could have), so dial → accept-return is the wake-up latency
        // alone. A 2 ms sleep between non-blocking attempts gives a median
        // of about 1 ms here; a wait in poll(2) gives tens of µs.
        const DIALS: usize = 21;
        let listener = Tcp::LOOPBACK.bind().unwrap();
        let port = listener.port();
        let (waiting_tx, waiting_rx) = std::sync::mpsc::channel::<()>();
        let (dialed_tx, dialed_rx) = std::sync::mpsc::channel::<(Instant, FramedConn)>();
        let dialer = std::thread::spawn(move || {
            for () in waiting_rx {
                std::thread::sleep(Duration::from_millis(3));
                let t0 = Instant::now();
                let conn = Tcp::LOOPBACK.connect(port, LONG).unwrap();
                dialed_tx.send((t0, conn)).unwrap();
            }
        });
        let mut latencies: Vec<Duration> = (0..DIALS)
            .map(|_| {
                waiting_tx.send(()).unwrap();
                let _accepted = listener.accept(LONG, LONG).unwrap();
                let returned = Instant::now();
                let (dialed, _conn) = dialed_rx.recv().unwrap();
                returned.saturating_duration_since(dialed)
            })
            .collect();
        drop(waiting_tx);
        dialer.join().unwrap();
        latencies.sort();
        let median = latencies[DIALS / 2];
        assert!(
            median < Duration::from_micros(500),
            "median dial -> accept return {median:?} of {latencies:?}"
        );
    }

    #[test]
    fn an_accept_with_nobody_dialing_times_out_at_its_deadline() {
        let listener = Tcp::LOOPBACK.bind().unwrap();
        let bound = Duration::from_millis(30);
        let t = Instant::now();
        let got = listener.accept(bound, LONG);
        assert!(matches!(got, Err(NetError::Timeout)), "{got:?}");
        assert!(t.elapsed() >= bound, "returned after {:?}", t.elapsed());
        assert!(t.elapsed() < LONG / 5, "returned after {:?}", t.elapsed());
    }

    #[test]
    fn an_idle_set_times_out_after_the_wait() {
        let (_a_peer, mut a) = pair();
        let (_b_peer, mut b) = pair();
        let bound = Duration::from_millis(30);
        let t = Instant::now();
        assert_eq!(wait(&mut [&mut a, &mut b], bound), Readiness::TimedOut);
        assert!(t.elapsed() >= bound, "returned after {:?}", t.elapsed());
        assert_eq!(wait(&mut [], Duration::ZERO), Readiness::TimedOut);
    }

    #[test]
    fn the_lowest_ready_index_is_reported_first() {
        let (mut a_peer, mut a) = pair();
        let (mut b_peer, mut b) = pair();
        // Highest index first, and each frame confirmed delivered on its
        // own, so both are pending when the pair is polled.
        b_peer.send(&Msg::Heartbeat { nonce: 2 }).unwrap();
        assert_eq!(wait(&mut [&mut b], LONG), Readiness::Conn(0));
        a_peer.send(&Msg::Heartbeat { nonce: 1 }).unwrap();
        assert_eq!(wait(&mut [&mut a], LONG), Readiness::Conn(0));

        assert_eq!(wait(&mut [&mut a, &mut b], LONG), Readiness::Conn(0));
        assert_eq!(a.try_recv().unwrap(), Some(Msg::Heartbeat { nonce: 1 }));
        assert_eq!(wait(&mut [&mut a, &mut b], LONG), Readiness::Conn(1));
        assert_eq!(b.try_recv().unwrap(), Some(Msg::Heartbeat { nonce: 2 }));
        let idle = wait(&mut [&mut a, &mut b], Duration::from_millis(5));
        assert_eq!(idle, Readiness::TimedOut);
    }

    #[test]
    fn a_peer_hanging_up_counts_as_ready() {
        let (_a_peer, mut a) = pair();
        let (b_peer, mut b) = pair();
        drop(b_peer);
        assert_eq!(wait(&mut [&mut a, &mut b], LONG), Readiness::Conn(1));
        assert!(matches!(b.try_recv(), Err(NetError::Eof)));
    }

    #[test]
    fn a_frame_arriving_mid_wait_ends_the_wait_then_not_at_the_deadline() {
        let (mut peer, mut conn) = pair();
        let delay = Duration::from_millis(20);
        let t = Instant::now();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(delay);
            peer.send(&Msg::Ready).unwrap();
            peer
        });
        assert_eq!(wait(&mut [&mut conn], LONG), Readiness::Conn(0));
        let woke = t.elapsed();
        assert!(
            woke >= delay,
            "woke after {woke:?}, before anything was sent"
        );
        assert!(
            woke < LONG / 5,
            "woke after {woke:?}: on the deadline's side"
        );
        assert_eq!(conn.try_recv().unwrap(), Some(Msg::Ready));
        sender.join().unwrap();
    }

    #[test]
    fn a_partial_frame_held_by_the_reader_is_completed_by_a_later_wakeup() {
        let (mut peer, mut conn) = pair();
        let msg = Msg::Fault {
            observer: 1,
            blamed: 2,
            detail: "split across two writes".into(),
        };
        let frame = encode_frame(&msg);
        let (head, tail) = frame.split_at(frame.len() / 2);

        peer.send_frame(head).unwrap();
        assert_eq!(wait(&mut [&mut conn], LONG), Readiness::Conn(0));
        assert_eq!(conn.try_recv().unwrap(), None, "half a frame is no frame");
        // The half now lives in the FrameReader, not the socket: nothing
        // to report until the peer writes again.
        let idle = wait(&mut [&mut conn], Duration::from_millis(20));
        assert_eq!(idle, Readiness::TimedOut);

        peer.send_frame(tail).unwrap();
        assert_eq!(wait(&mut [&mut conn], LONG), Readiness::Conn(0));
        assert_eq!(conn.try_recv().unwrap(), Some(msg));
    }
}
