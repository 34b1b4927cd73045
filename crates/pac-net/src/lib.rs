//! # pac-net — the distributed runtime under the PAC engines
//!
//! Distributed execution for the PAC reproduction: the in-process engines
//! of `pac-parallel` (1F1B pipeline stages, DP-lane gradient AllReduce)
//! running across OS processes over TCP, with **bitwise-identical**
//! results on the same seed.
//!
//! Every protocol layer is generic over the [`transport`] traits, so the
//! same coordinator/worker code runs over two transports:
//!
//! * [`transport::Tcp`] — real sockets (production, `repro --distributed`);
//! * [`simnet`] — a deterministic in-memory network with a seeded virtual
//!   clock and a per-link adversary (delay, reorder, drop, duplicate,
//!   corrupt, partition, crash), for FoundationDB-style simulation testing
//!   (`simsweep` in `pac-bench`).
//!
//! Layers, bottom up:
//!
//! * [`wire`] — length-prefixed binary frames: magic, version, checksum,
//!   and bit-exact f32 tensor encoding. Corrupt input rejects with typed
//!   errors; it never panics or misparses. [`wire::FrameReader`] holds
//!   partial-frame state across read deadlines.
//! * [`transport`] — the [`transport::Transport`] / [`transport::Listener`]
//!   / [`transport::Conn`] trait triple that abstracts the byte transport.
//! * [`chan`] — [`chan::FramedConn`]: blocking framed TCP with read
//!   deadlines and `net.*` telemetry counters; the production `Conn`.
//! * [`rendezvous`] — coordinator rendezvous on a job-lifetime listener
//!   (elastic joiners dial the same port mid-run), rank assignment in
//!   arrival order (workers rebuild the model from the shared seed, so no
//!   weights ship at startup), worker-side mesh wiring (pipeline + ring
//!   edges), and the [`rendezvous::WorldId`] every world's state is keyed
//!   by.
//! * [`collective`] — ring allgather + locally-ordered lane reduction:
//!   the float-op order of the in-process `allreduce_mean` on every rank,
//!   which is what keeps distributed gradients bit-identical.
//! * [`worker`] — one rank: `run_stage` (the same code the in-process
//!   engine runs, over [`worker::NetStageLinks`]), the collective, a local
//!   SGD step, lockstep `Done` replies.
//! * [`coordinator`] — the one coordinator: a poll-driven loop that
//!   multiplexes N concurrent tenant worlds (a solo job is N = 1) over
//!   [`transport::PollTransport`] readiness wakeups, admitting and
//!   retiring jobs on the shared rendezvous listener. A rank's liveness is
//!   its step traffic: a snapshot reaches the coordinator only with a step
//!   (its request is a field of the rank's one `Step` frame, the answer
//!   drains with the verdicts; the initial snapshot is the seed's), and a
//!   rank that still owes a step a frame at the step's deadline surfaces
//!   as typed [`wire::NetError::Stale`] without stalling sibling worlds.
//!   All per-world state is scoped by [`rendezvous::WorldId`]: lockstep
//!   stepping, checkpoint snapshots (optionally durable through a
//!   `pac_store::Store`, with bitwise cold restart), fault injection,
//!   typed rank-down detection, and restart-based recovery over an
//!   **elastic membership** — respawn in place or drop the dead rank's
//!   lane, planned mid-run joins via the catch-up snapshot the step before
//!   the wave carries back → resume, each membership change relaunching
//!   the `stages × lanes` world it names — all reported through the shared
//!   `RecoveryReport`. A world changes shape only by plan or by loss: a
//!   straggler stalls its lane, and device heterogeneity is the planner's
//!   to absorb. [`config`] holds the job configuration and the error type.
//! * [`spawn`] — the [`spawn::Spawn`] trait: thread workers (tests),
//!   forked processes (`repro --distributed=N`), or simulated workers
//!   ([`simnet::SimSpawner`]).
//! * [`simnet`] — the simulated transport itself.
//! * [`calib`] — loopback link calibration, measured as a
//!   [`pac_cluster::LinkSpec::measured`] the planner can cost plans with.
//! * [`mod@reference`] — the in-process `HybridEngine` run a distributed
//!   run must match bit for bit, and the comparison.

#![deny(missing_docs)]

pub mod calib;
pub mod chan;
pub mod collective;
pub mod config;
pub mod coordinator;
pub mod reference;
pub mod rendezvous;
pub mod simnet;
pub mod spawn;
pub mod transport;
pub mod wire;
pub mod worker;

pub use calib::{calibrate_loopback, LinkCalibration, BULK_ACK_NONCE};
pub use chan::FramedConn;
pub use config::{DistConfig, DistError};
pub use coordinator::{
    run_multiworld, run_world, MultiWorldReport, RankLoss, TenantJob, WorldReport,
};
pub use reference::Reference;
pub use rendezvous::{Admission, Rendezvous, Topology, WorkerConn, WorldId};
pub use simnet::{Partition, SimConfig, SimConn, SimNet, SimSpawner};
pub use spawn::{Spawn, SpawnedWorld, Spawner};
pub use transport::{Conn, Listener, PollConn, PollTransport, Readiness, Tcp, Transport};
pub use wire::{Assignment, ByteSource, FrameReader, IoSource, Msg, NetError};
pub use worker::{run_worker, run_worker_on, Buggify, RunMode, KILLED_EXIT};
