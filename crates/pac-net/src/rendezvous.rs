//! Coordinator rendezvous and worker mesh wiring.
//!
//! Startup protocol (all on one host in this reproduction, but nothing
//! below assumes it):
//!
//! 1. The coordinator binds a rendezvous listener and spawns `W` workers,
//!    handing each the rendezvous port.
//! 2. Each worker binds its *own* data-plane listener, dials the
//!    coordinator, and sends `Hello { listen_port }`.
//! 3. The coordinator accepts `W` control connections and assigns ranks in
//!    **arrival order** — workers are interchangeable because every rank
//!    rebuilds identical initial parameters from the shared seed, so no
//!    weights ship at startup. It sends each worker its `Assign`, then the
//!    full `Peers` port table.
//! 4. Workers dial their data-plane edges (pipeline successor, ring
//!    successor), identifying each socket with a `LinkHdr` first frame,
//!    and accept the symmetric edges (pipeline predecessor, ring
//!    predecessor). Then they report `Ready`.
//!
//! Rank layout: `rank = stage * lanes + lane`. Pipeline edges connect
//! `(s, k) → (s+1, k)` (one full-duplex connection: activations
//! downstream, boundary gradients upstream). Ring edges connect `(s, k) →
//! (s, (k+1) % lanes)`; with two lanes this yields two connections per
//! pair, one per direction, which keeps the hop protocol uniform for every
//! lane count.
//!
//! Everything here is generic over [`Transport`]: the same rendezvous and
//! mesh wiring runs over TCP and over the deterministic simulation.

use crate::transport::{Conn, Listener, Transport};
use crate::wire::{Assignment, LinkKind, Msg, NetError};
use std::fmt;
use std::time::Duration;

/// Identity of one concurrent training world under a multiplexing
/// coordinator. Every piece of per-world coordinator state — worker
/// handles, checkpoint cursors, fault timeline entries — is keyed by this,
/// so two worlds sharing one coordinator thread and one rendezvous
/// listener can never cross-attribute a [`NetError::Stale`] verdict or a
/// recovery event. The single-world driver is world `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct WorldId(pub u64);

impl fmt::Display for WorldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// World shape and rank arithmetic, shared by coordinator and workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Pipeline stages.
    pub stages: usize,
    /// Data-parallel lanes.
    pub lanes: usize,
}

impl Topology {
    /// Total number of ranks.
    pub fn world(&self) -> usize {
        self.stages * self.lanes
    }
    /// Rank of `(stage, lane)`.
    pub fn rank_of(&self, stage: usize, lane: usize) -> usize {
        stage * self.lanes + lane
    }
    /// Stage a rank belongs to.
    pub fn stage_of(&self, rank: usize) -> usize {
        rank / self.lanes
    }
    /// Lane a rank belongs to.
    pub fn lane_of(&self, rank: usize) -> usize {
        rank % self.lanes
    }
}

/// A worker's control connection as seen by the coordinator.
#[derive(Debug)]
pub struct WorkerConn<C: Conn> {
    /// Control channel to the worker.
    pub ctrl: C,
    /// Port of the worker's data-plane listener.
    pub data_port: u16,
}

/// The coordinator's rendezvous point.
#[derive(Debug)]
pub struct Rendezvous<T: Transport> {
    listener: T::Listener,
}

impl<T: Transport> Rendezvous<T> {
    /// Binds a rendezvous listener on `transport`.
    pub fn bind_on(transport: &T) -> Result<Self, NetError> {
        Ok(Rendezvous {
            listener: transport.bind()?,
        })
    }

    /// Port workers should dial.
    pub fn port(&self) -> u16 {
        self.listener.port()
    }

    /// Accepts exactly `world` workers (each must open with `Hello`),
    /// waiting up to `accept_timeout` for each arrival, returning them in
    /// arrival order — index in the returned vector becomes the worker's
    /// rank.
    pub fn accept_world(
        &self,
        world: usize,
        accept_timeout: Duration,
        conn_timeout: Duration,
    ) -> Result<Vec<WorkerConn<T::Conn>>, NetError> {
        let mut workers = Vec::with_capacity(world);
        while workers.len() < world {
            let mut ctrl = self.listener.accept(accept_timeout, conn_timeout)?;
            match ctrl.recv()? {
                Msg::Hello { listen_port, .. } => workers.push(WorkerConn {
                    ctrl,
                    data_port: listen_port,
                }),
                _ => return Err(NetError::Malformed("expected Hello on control channel")),
            }
        }
        Ok(workers)
    }

    /// Polls for one pending dial on the long-lived listener, classifying
    /// it by its first frame: a `Hello` is a worker wanting into the
    /// world, a `JobSubmit` is a tenant job for the serve layer (the
    /// connection stays open for further job frames and `JobDone`
    /// replies). `Ok(None)` when nobody is dialing. Sharing one listener
    /// keeps a serve deployment to a single admission point for
    /// membership *and* tenant traffic.
    pub fn try_accept_admission(
        &self,
        accept_wait: Duration,
        conn_timeout: Duration,
    ) -> Result<Option<Admission<T::Conn>>, NetError> {
        let mut ctrl = match self.listener.accept(accept_wait, conn_timeout) {
            Ok(ctrl) => ctrl,
            Err(NetError::Timeout) => return Ok(None),
            Err(e) => return Err(e),
        };
        match ctrl.recv()? {
            Msg::Hello { listen_port, .. } => Ok(Some(Admission::Worker(WorkerConn {
                ctrl,
                data_port: listen_port,
            }))),
            Msg::JobSubmit {
                tenant,
                steps,
                seed,
            } => Ok(Some(Admission::Job {
                conn: ctrl,
                tenant,
                steps,
                seed,
            })),
            _ => Err(NetError::Malformed(
                "expected Hello or JobSubmit on control channel",
            )),
        }
    }
}

/// What arrived on the coordinator's long-lived rendezvous listener: a
/// worker joining the training world, or tenant-tagged job traffic for
/// the serve layer.
#[derive(Debug)]
pub enum Admission<C: Conn> {
    /// A worker `Hello`: the dialer wants to join the world.
    Worker(WorkerConn<C>),
    /// A tenant `JobSubmit`: the first job on a connection that stays
    /// open for further submissions and `JobDone` replies.
    Job {
        /// The open control connection the job arrived on.
        conn: C,
        /// Tenant whose personal adapter the first job trains.
        tenant: u64,
        /// Requested cached-training steps for the first job.
        steps: u32,
        /// Seed for the tenant's private workload rows.
        seed: u64,
    },
}

/// A worker's fully-wired data plane.
#[derive(Debug)]
pub struct Mesh<C: Conn> {
    /// From the pipeline predecessor `(s-1, k)`; `None` on the first stage.
    pub prev: Option<C>,
    /// To the pipeline successor `(s+1, k)`; `None` on the last stage.
    pub next: Option<C>,
    /// From the ring predecessor `(s, (k-1) % lanes)`; `None` when `lanes == 1`.
    pub ring_in: Option<C>,
    /// To the ring successor `(s, (k+1) % lanes)`; `None` when `lanes == 1`.
    pub ring_out: Option<C>,
}

impl<C: Conn> Default for Mesh<C> {
    fn default() -> Self {
        Mesh {
            prev: None,
            next: None,
            ring_in: None,
            ring_out: None,
        }
    }
}

/// Wires one worker's data-plane edges given its assignment and the peer
/// port table. Dials outgoing edges first (the listen backlog makes the
/// cross-worker dial order irrelevant, in TCP and in simnet alike), then
/// accepts and classifies the incoming ones by their `LinkHdr`.
pub fn build_mesh<T: Transport>(
    transport: &T,
    listener: &T::Listener,
    asg: &Assignment,
    ports: &[u16],
    timeout: Duration,
) -> Result<Mesh<T::Conn>, NetError> {
    let topo = Topology {
        stages: asg.stages as usize,
        lanes: asg.lanes as usize,
    };
    let (stage, lane) = (asg.stage as usize, asg.lane as usize);
    if ports.len() != topo.world() {
        return Err(NetError::Malformed("peer table size != world size"));
    }
    let dial = |rank: usize, kind: LinkKind| -> Result<T::Conn, NetError> {
        let mut conn = transport.connect(ports[rank], timeout)?;
        conn.send(&Msg::LinkHdr {
            from_rank: asg.rank,
            kind,
        })?;
        Ok(conn)
    };

    let mut mesh = Mesh::default();
    if stage + 1 < topo.stages {
        mesh.next = Some(dial(topo.rank_of(stage + 1, lane), LinkKind::Fwd)?);
    }
    if topo.lanes > 1 {
        mesh.ring_out = Some(dial(
            topo.rank_of(stage, (lane + 1) % topo.lanes),
            LinkKind::Ring,
        )?);
    }

    let expect_prev = stage > 0;
    let expect_ring = topo.lanes > 1;
    let expected = expect_prev as usize + expect_ring as usize;
    for _ in 0..expected {
        let mut conn = listener.accept(timeout, timeout)?;
        match conn.recv()? {
            Msg::LinkHdr { from_rank, kind } => match kind {
                LinkKind::Fwd => {
                    if !expect_prev || from_rank as usize != topo.rank_of(stage - 1, lane) {
                        return Err(NetError::Malformed("pipeline edge from wrong rank"));
                    }
                    if mesh.prev.replace(conn).is_some() {
                        return Err(NetError::Malformed("duplicate pipeline predecessor"));
                    }
                }
                LinkKind::Ring => {
                    let left = topo.rank_of(stage, (lane + topo.lanes - 1) % topo.lanes);
                    if !expect_ring || from_rank as usize != left {
                        return Err(NetError::Malformed("ring edge from wrong rank"));
                    }
                    if mesh.ring_in.replace(conn).is_some() {
                        return Err(NetError::Malformed("duplicate ring predecessor"));
                    }
                }
            },
            _ => return Err(NetError::Malformed("expected LinkHdr on data channel")),
        }
    }
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Tcp;

    #[test]
    fn rank_arithmetic() {
        let t = Topology {
            stages: 2,
            lanes: 3,
        };
        assert_eq!(t.world(), 6);
        assert_eq!(t.rank_of(1, 2), 5);
        assert_eq!(t.stage_of(5), 1);
        assert_eq!(t.lane_of(5), 2);
        for r in 0..t.world() {
            assert_eq!(t.rank_of(t.stage_of(r), t.lane_of(r)), r);
        }
    }

    #[test]
    fn rendezvous_collects_hellos_in_arrival_order() {
        let rdv = Rendezvous::bind_on(&Tcp::LOOPBACK).unwrap();
        let port = rdv.port();
        let handles: Vec<_> = (0..3)
            .map(|slot| {
                std::thread::spawn(move || {
                    let mut c = Tcp::LOOPBACK.connect(port, Duration::from_secs(5)).unwrap();
                    c.send(&Msg::Hello {
                        slot,
                        listen_port: 1000 + slot as u16,
                    })
                    .unwrap();
                    // Keep the control conn alive until the coordinator saw it.
                    std::thread::sleep(Duration::from_millis(100));
                })
            })
            .collect();
        let workers = rdv
            .accept_world(3, Duration::from_secs(5), Duration::from_secs(5))
            .unwrap();
        assert_eq!(workers.len(), 3);
        let mut ports: Vec<u16> = workers.iter().map(|w| w.data_port).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![1000, 1001, 1002]);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn admission_classifies_workers_and_tenant_jobs() {
        let rdv = Rendezvous::bind_on(&Tcp::LOOPBACK).unwrap();
        let port = rdv.port();
        let client = std::thread::spawn(move || {
            // A tenant job client and a worker dial the same listener.
            let mut job = Tcp::LOOPBACK.connect(port, Duration::from_secs(5)).unwrap();
            job.send(&Msg::JobSubmit {
                tenant: 42,
                steps: 3,
                seed: 7,
            })
            .unwrap();
            let mut worker = Tcp::LOOPBACK.connect(port, Duration::from_secs(5)).unwrap();
            worker
                .send(&Msg::Hello {
                    slot: 0,
                    listen_port: 3000,
                })
                .unwrap();
            // The job connection stays open for the reply.
            match job.recv().unwrap() {
                Msg::JobDone {
                    tenant, version, ..
                } => {
                    assert_eq!(tenant, 42);
                    assert_eq!(version, 1);
                }
                other => panic!("expected JobDone, got {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(50));
        });

        let mut saw_job = false;
        let mut saw_worker = false;
        for _ in 0..2 {
            match rdv
                .try_accept_admission(Duration::from_secs(5), Duration::from_secs(5))
                .unwrap()
                .expect("an admission is pending")
            {
                Admission::Job {
                    mut conn,
                    tenant,
                    steps,
                    seed,
                } => {
                    assert_eq!((tenant, steps, seed), (42, 3, 7));
                    conn.send(&Msg::JobDone {
                        tenant,
                        version: 1,
                        faulted: false,
                        final_loss: 0.25,
                    })
                    .unwrap();
                    saw_job = true;
                }
                Admission::Worker(w) => {
                    assert_eq!(w.data_port, 3000);
                    saw_worker = true;
                }
            }
        }
        assert!(saw_job && saw_worker);
        client.join().unwrap();
    }

    #[test]
    fn rendezvous_times_out_when_workers_never_arrive() {
        let rdv = Rendezvous::bind_on(&Tcp::LOOPBACK).unwrap();
        let err = rdv
            .accept_world(1, Duration::from_millis(60), Duration::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout));
    }
}
