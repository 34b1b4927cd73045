//! The distributed worker: one rank = one pipeline stage of one DP lane.
//!
//! A worker is stateless until assigned: it reports its data port, receives
//! an [`Assignment`], deterministically rebuilds the full model from the
//! shared seed, keeps only its own stage, wires its mesh edges, and then
//! executes lockstep `Step` commands until told to shut down. Because the
//! model is rebuilt from the seed, startup ships **no parameters** — only
//! a checkpoint restore after a replan does.
//!
//! Every step runs the *same* `run_stage` code as the in-process engines
//! (via the [`StageLinks`] abstraction), followed by the bitwise-matched
//! ring AllReduce and a local SGD step, so a distributed run is
//! bit-identical to `HybridEngine` on the same seed and batches. SGD is
//! the supported distributed optimizer: it is stateless per update, so
//! per-rank stepping matches the in-process engine's per-lane stepping
//! exactly. (Adam's step counter `t` advances once per `step()` *call*,
//! which an independent per-rank optimizer cannot reproduce.)

use crate::collective::{ring_allreduce_mean, RingCtx};
use crate::rendezvous::{build_mesh, Mesh, Topology};
use crate::transport::{Conn, Listener, Tcp, Transport};
use crate::wire::{Assignment, Msg, NetError};
use pac_model::{EncoderModel, ModelConfig, StageData, StageModel};
use pac_nn::optim::{Optimizer, Sgd};
use pac_nn::Module;
use pac_parallel::engine::{run_stage, MicroBatch, StageLinks};
use pac_parallel::schedule::SimEvent;
use pac_parallel::{EngineError, EngineResult};
use pac_tensor::rng::seeded;
use pac_tensor::{QTensor, Tensor};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How the worker was launched, which decides how a fault injection
/// "kills" it and whether it owns the process-global telemetry registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Worker thread inside the coordinator's process (in-crate tests).
    /// Dying means returning (dropping all sockets); telemetry is shared
    /// with the coordinator, so `Stats` ships nothing.
    Thread,
    /// Separate OS process (`repro --net-worker`). Dying means
    /// `process::exit`; telemetry is process-local and shipped to the
    /// coordinator in `Stats` at shutdown.
    Process,
}

/// Exit code a worker uses when a fault injection kills it.
pub const KILLED_EXIT: i32 = 86;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Deliberately-plantable ordering bugs, FoundationDB "buggify" style.
///
/// The deterministic sweep (`simsweep --planted`) flips one of these on to
/// prove it has teeth: a worker with a planted bug must be *caught* by the
/// sweep's bitwise-equivalence invariant within the seed budget. All flags
/// default to off; production paths never set them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Buggify {
    /// Apply the local SGD step *before* the ring AllReduce completes —
    /// the classic torn-collective race. With ≥ 2 lanes the lanes then
    /// train on un-averaged gradients and diverge from the in-process
    /// engine.
    pub apply_grad_before_allreduce: bool,
    /// Ignore `Restore` messages — a joining worker that "forgets" to
    /// catch up from the membership-change snapshot keeps its seed-fresh
    /// parameters and silently trains a diverged replica. The elastic
    /// sweep's bitwise check must catch this.
    pub skip_catch_up_restore: bool,
    /// Swallow `Heartbeat` probes without acking — a rank whose control
    /// plane has gone silent while its data plane still computes. The
    /// coordinator must evict it with typed [`NetError::Stale`] at the
    /// liveness probe's deadline instead of hanging on a step verdict.
    pub mute_heartbeats: bool,
    /// Swallow only the *first* heartbeat this worker ever receives — a
    /// transient control-plane partition that heals. The flag is scoped to
    /// the worker's lifetime (not per incarnation), so a re-admitted worker
    /// acks normally and the re-admission path can be proven end-to-end
    /// without an eviction cycle.
    pub mute_first_heartbeat: bool,
}

/// Pipeline-neighbor links over any [`Conn`] (TCP or simulated).
/// Transport failures are attributed to the rank on the other end of the
/// failing edge as typed [`EngineError::RankDown`] — no unwraps on reads.
pub struct NetStageLinks<'a, C: Conn> {
    prev: Option<&'a mut C>,
    next: Option<&'a mut C>,
    prev_rank: usize,
    next_rank: usize,
    lane: usize,
    stage: usize,
    step: u64,
    /// Quantize outbound Act frames to int8 (`Msg::ActQ8`). Token
    /// payloads are exempt; the receive side accepts either frame kind
    /// regardless, so only the *sender's* assignment decides the format.
    wire_q8: bool,
}

impl<C: Conn> NetStageLinks<'_, C> {
    fn down(&self, blamed: usize, detail: String) -> EngineError {
        EngineError::RankDown {
            rank: blamed,
            lane: self.lane,
            stage: Some(self.stage),
            step: self.step,
            detail,
        }
    }
}

impl<C: Conn> StageLinks for NetStageLinks<'_, C> {
    fn send_fwd(&mut self, micro: usize, data: StageData) -> EngineResult<()> {
        let (next_rank, lane, stage, step) = (self.next_rank, self.lane, self.stage, self.step);
        let conn = self.next.as_mut().expect("send_fwd without next link");
        let msg = match (self.wire_q8, data) {
            // Tensor-bearing boundaries quantize; token rows cannot.
            (true, StageData::Hidden(t)) => Msg::ActQ8 {
                micro: micro as u32,
                logits: false,
                q: QTensor::quantize(&t),
            },
            (true, StageData::Logits(t)) => Msg::ActQ8 {
                micro: micro as u32,
                logits: true,
                q: QTensor::quantize(&t),
            },
            (_, data) => Msg::Act {
                micro: micro as u32,
                data,
            },
        };
        conn.send(&msg).map_err(|e| EngineError::RankDown {
            rank: next_rank,
            lane,
            stage: Some(stage),
            step,
            detail: format!("pipeline send to successor: {e}"),
        })
    }

    fn recv_fwd(&mut self, micro: usize) -> EngineResult<StageData> {
        let prev_rank = self.prev_rank;
        let msg = {
            let conn = self.prev.as_mut().expect("recv_fwd without prev link");
            conn.recv()
        }
        .map_err(|e| self.down(prev_rank, format!("pipeline recv from predecessor: {e}")))?;
        match msg {
            Msg::Act { micro: m, data } if m as usize == micro => Ok(data),
            Msg::ActQ8 {
                micro: m,
                logits,
                q,
            } if m as usize == micro => {
                let t = q.dequantize();
                Ok(if logits {
                    StageData::Logits(t)
                } else {
                    StageData::Hidden(t)
                })
            }
            other => Err(self.down(
                prev_rank,
                format!("pipeline protocol violation at micro {micro}: {other:?}"),
            )),
        }
    }

    fn send_bwd(&mut self, micro: usize, grad: Tensor) -> EngineResult<()> {
        let (prev_rank, lane, stage, step) = (self.prev_rank, self.lane, self.stage, self.step);
        let conn = self.prev.as_mut().expect("send_bwd without prev link");
        conn.send(&Msg::Grad {
            micro: micro as u32,
            grad,
        })
        .map_err(|e| EngineError::RankDown {
            rank: prev_rank,
            lane,
            stage: Some(stage),
            step,
            detail: format!("gradient send to predecessor: {e}"),
        })
    }

    fn recv_bwd(&mut self, micro: usize) -> EngineResult<Tensor> {
        let next_rank = self.next_rank;
        let msg = {
            let conn = self.next.as_mut().expect("recv_bwd without next link");
            conn.recv()
        }
        .map_err(|e| self.down(next_rank, format!("gradient recv from successor: {e}")))?;
        match msg {
            Msg::Grad { micro: m, grad } if m as usize == micro => Ok(grad),
            other => Err(self.down(
                next_rank,
                format!("gradient protocol violation at micro {micro}: {other:?}"),
            )),
        }
    }
}

struct WorkerState<C: Conn> {
    asg: Assignment,
    topo: Topology,
    stage: Option<StageModel>,
    mesh: Mesh<C>,
    opt: Sgd,
    buggify: Buggify,
}

/// Collects `(name, value)` parameter pairs of this stage in
/// `visit_params_ref` order.
pub fn param_entries(stage: &StageModel, trainable_only: bool) -> Vec<(String, Tensor)> {
    let mut out = Vec::new();
    stage.visit_params_ref(&mut |p| {
        if !trainable_only || p.trainable {
            out.push((p.name.clone(), p.value.clone()));
        }
    });
    out
}

/// Overwrites parameters by name (checkpoint restore). Unknown names are
/// ignored: a snapshot holds trainable params only, frozen ones are
/// already bit-identical from the seed.
pub fn apply_restore(stage: &mut StageModel, entries: Vec<(String, Tensor)>) {
    let map: HashMap<String, Tensor> = entries.into_iter().collect();
    stage.visit_params(&mut |p| {
        if let Some(t) = map.get(&p.name) {
            p.value = t.clone();
        }
    });
}

/// Builds this rank's stage replica deterministically from the assignment:
/// full model from the seed, partitioned, keep stage `asg.stage`.
fn build_stage(asg: &Assignment) -> Result<StageModel, NetError> {
    let cfg = ModelConfig::micro(
        asg.enc_layers as usize,
        0,
        asg.hidden as usize,
        asg.heads as usize,
    );
    let mut rng = seeded(asg.seed);
    let model = EncoderModel::new(&cfg, asg.n_out as usize, &mut rng);
    let partition: Vec<usize> = asg.partition.iter().map(|&p| p as usize).collect();
    let stages = model
        .partition(&partition)
        .map_err(|_| NetError::Malformed("partition does not match model layers"))?;
    stages
        .into_iter()
        .nth(asg.stage as usize)
        .ok_or(NetError::Malformed("stage index out of range"))
}

/// Returns `(loss_sum, events, pre_collective_ns)`: the third field is the
/// `now_ns` reading taken after local compute but *before* the gradient
/// AllReduce. Busy time must stop there — the collective synchronizes the
/// lanes, so measuring through it would charge every lane for the slowest
/// one and blind the coordinator's straggler rebalancer.
fn run_step<C: Conn>(
    state: &mut WorkerState<C>,
    step: u64,
    mbs: &[MicroBatch],
    now_ns: impl Fn() -> u64,
) -> EngineResult<(f32, Vec<SimEvent>, u64)> {
    let asg = &state.asg;
    let (s, k) = (asg.stage as usize, asg.lane as usize);
    let (s_n, lanes) = (state.topo.stages, state.topo.lanes);
    let mut stage = state.stage.take().expect("stage present between steps");
    stage.zero_grads();

    let epoch = Instant::now();
    let mut links = NetStageLinks {
        prev: state.mesh.prev.as_mut(),
        next: state.mesh.next.as_mut(),
        prev_rank: if s > 0 {
            state.topo.rank_of(s - 1, k)
        } else {
            0
        },
        next_rank: if s + 1 < s_n {
            state.topo.rank_of(s + 1, k)
        } else {
            0
        },
        lane: k,
        stage: s,
        step,
        wire_q8: state.asg.wire_q8,
    };
    let run = run_stage(
        stage,
        s,
        s_n,
        asg.micro_batches as usize,
        asg.schedule,
        mbs,
        &mut links,
        &epoch,
    )?;
    stage = run.stage;

    // Planted ordering bug (see [`Buggify`]): step on the *local* gradients
    // before the collective has averaged them. Correct code always steps
    // after the AllReduce below.
    let torn_step = state.buggify.apply_grad_before_allreduce && lanes > 1;
    if torn_step {
        state.opt.step(&mut stage);
    }

    let pre_collective_ns = now_ns();
    if lanes > 1 {
        let ctx = RingCtx {
            lane: k,
            lanes,
            stage: s,
            step,
            left_rank: state.topo.rank_of(s, (k + lanes - 1) % lanes),
            right_rank: state.topo.rank_of(s, (k + 1) % lanes),
        };
        let (ring_in, ring_out) = (
            state.mesh.ring_in.as_mut().expect("ring_in wired"),
            state.mesh.ring_out.as_mut().expect("ring_out wired"),
        );
        match ring_allreduce_mean(&mut stage, ring_in, ring_out, &ctx) {
            Ok(()) => {}
            Err(e) => {
                // Stage replica is still usable for a post-mortem, but the
                // mesh is broken; put it back and propagate.
                state.stage = Some(stage);
                return Err(e);
            }
        }
    }

    if !torn_step {
        state.opt.step(&mut stage);
    }
    let out = (run.loss_sum, run.events, pre_collective_ns);
    state.stage = Some(stage);
    Ok(out)
}

/// Runs one worker over TCP against the coordinator at `coord` until
/// shutdown, fault injection, or loss of the coordinator. Thin wrapper
/// around [`run_worker_on`] with the production transport and no planted
/// bugs.
pub fn run_worker(coord: SocketAddr, slot: u32, mode: RunMode) -> Result<(), NetError> {
    run_worker_on(
        &Tcp::to(coord),
        coord.port(),
        slot,
        mode,
        &Buggify::default(),
    )
}

/// How one incarnation of the worker loop ended.
enum WorkerExit {
    /// Clean exit: shutdown, injected death, or a mesh fault already
    /// reported to the coordinator. The worker must not re-dial.
    Done,
    /// The control connection died without a `Shutdown`. When the
    /// assignment granted `reconnect`, the worker may re-dial the
    /// rendezvous once with a fresh `Hello` (partition heal).
    CoordinatorLost {
        /// Whether the coordinator advertised re-admission.
        reconnect: bool,
    },
}

/// Runs one worker over any [`Transport`] against the coordinator's
/// rendezvous `coord_port` until shutdown, fault injection, or loss of the
/// coordinator. Never panics on transport input; all failures are typed.
///
/// When the assignment carries `reconnect` and the control connection dies
/// without a `Shutdown` (the coordinator evicted this rank after a missed
/// liveness probe, or a partition severed the link), the worker re-dials
/// the rendezvous **once** with a fresh `Hello` and serves a second
/// incarnation — the re-admission half of partition healing.
///
/// This is the *only* worker loop in the crate: TCP workers and simulated
/// workers execute this exact function (acceptance criterion: no `#[cfg]`
/// forks of protocol logic).
pub fn run_worker_on<T: Transport>(
    transport: &T,
    coord_port: u16,
    slot: u32,
    mode: RunMode,
    buggify: &Buggify,
) -> Result<(), NetError> {
    // Worker-lifetime flag: `Buggify::mute_first_heartbeat` plants exactly
    // one dropped ack across *all* incarnations, so a re-admitted worker
    // cannot re-trip the eviction it is healing from.
    let mut first_heartbeat_muted = false;
    let mut redialed = false;
    loop {
        match run_worker_once(
            transport,
            coord_port,
            slot,
            mode,
            buggify,
            &mut first_heartbeat_muted,
        ) {
            Ok(WorkerExit::Done) => return Ok(()),
            Ok(WorkerExit::CoordinatorLost { reconnect }) if reconnect && !redialed => {
                redialed = true;
            }
            Ok(WorkerExit::CoordinatorLost { .. }) => return Ok(()),
            // A re-dial that cannot reach the coordinator means the job is
            // over (or the partition outlived the run): exit quietly, the
            // same way a first-incarnation worker treats coordinator loss.
            Err(NetError::Eof | NetError::Timeout) if redialed => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// One incarnation of the worker protocol: dial, `Hello`, serve the
/// assignment until an exit condition. See [`run_worker_on`] for the
/// re-dial policy layered on top.
fn run_worker_once<T: Transport>(
    transport: &T,
    coord_port: u16,
    slot: u32,
    mode: RunMode,
    buggify: &Buggify,
    first_heartbeat_muted: &mut bool,
) -> Result<WorkerExit, NetError> {
    let listener = transport.bind()?;
    let listen_port = listener.port();

    let mut ctrl = transport.connect(coord_port, CONNECT_TIMEOUT)?;
    ctrl.send(&Msg::Hello { slot, listen_port })?;

    let asg = match ctrl.recv()? {
        Msg::Assign(a) => *a,
        // The coordinator declined this dial (a re-admission at capacity,
        // or the end-of-run drain): exit cleanly without serving.
        Msg::Shutdown => return Ok(WorkerExit::Done),
        _ => return Err(NetError::Malformed("expected Assign after Hello")),
    };
    if mode == RunMode::Process {
        pac_telemetry::set_enabled(asg.telemetry);
    }
    let net_timeout = Duration::from_millis(asg.net_timeout_ms as u64);
    ctrl.set_timeout(Some(net_timeout))?;

    let stage = build_stage(&asg)?;
    let ports = match ctrl.recv()? {
        Msg::Peers { ports } => ports,
        _ => return Err(NetError::Malformed("expected Peers after Assign")),
    };
    let mesh = build_mesh(transport, &listener, &asg, &ports, net_timeout)?;
    drop(listener);
    ctrl.send(&Msg::Ready)?;

    let mut state = WorkerState {
        topo: Topology {
            stages: asg.stages as usize,
            lanes: asg.lanes as usize,
        },
        opt: Sgd::new(asg.lr),
        stage: Some(stage),
        mesh,
        asg,
        buggify: *buggify,
    };
    let rank = state.asg.rank;

    loop {
        let msg = match ctrl.recv() {
            Ok(m) => m,
            // Coordinator went away without a Shutdown (evicted this rank,
            // tore the round down after a peer fault, or crashed): surface
            // the loss so the incarnation loop can decide whether the
            // assignment's `reconnect` grant warrants one re-dial.
            Err(NetError::Eof) | Err(NetError::Timeout) => {
                return Ok(WorkerExit::CoordinatorLost {
                    reconnect: state.asg.reconnect,
                })
            }
            Err(e) => return Err(e),
        };
        match msg {
            Msg::Step {
                step,
                die,
                stall_ms,
                micro_batches,
            } => {
                if die {
                    // Injected fail-stop: drop dead without a goodbye. In
                    // process mode that is a hard exit; in thread mode,
                    // returning drops every socket, which peers observe as
                    // EOF — the same signal a real crash produces.
                    match mode {
                        RunMode::Process => std::process::exit(KILLED_EXIT),
                        RunMode::Thread => return Ok(WorkerExit::Done),
                    }
                }
                let t0 = transport.now_ns();
                if stall_ms > 0 {
                    // Injected straggler: the device is busy elsewhere for a
                    // while before it starts computing. The stall counts
                    // toward busy time so the coordinator's rebalancer sees
                    // this lane as slow.
                    std::thread::sleep(Duration::from_millis(stall_ms as u64));
                }
                match run_step(&mut state, step, &micro_batches, || transport.now_ns()) {
                    Ok((loss_sum, events, pre_collective_ns)) => ctrl.send(&Msg::Done {
                        rank,
                        loss_sum,
                        busy_ns: pre_collective_ns.saturating_sub(t0),
                        events,
                    })?,
                    Err(e) => {
                        // A peer died mid-step; tell the coordinator who we
                        // blame (best effort — it may already be tearing the
                        // round down) and exit: our mesh is unusable.
                        let blamed = match &e {
                            EngineError::RankDown { rank: r, .. } => *r as u32,
                            _ => rank,
                        };
                        let _ = ctrl.send(&Msg::Fault {
                            observer: rank,
                            blamed,
                            detail: e.to_string(),
                        });
                        return Ok(WorkerExit::Done);
                    }
                }
            }
            Msg::ParamReq { trainable_only } => {
                let entries =
                    param_entries(state.stage.as_ref().expect("stage present"), trainable_only);
                ctrl.send(&Msg::ParamSnap { entries })?;
            }
            Msg::Restore { entries } => {
                // Planted membership bug (see [`Buggify`]): a worker that
                // skips catch-up keeps whatever parameters it rebuilt from
                // the seed and diverges from the checkpoint cursor.
                if !state.buggify.skip_catch_up_restore {
                    apply_restore(state.stage.as_mut().expect("stage present"), entries);
                }
            }
            Msg::Heartbeat { nonce } => {
                // Planted liveness bugs (see [`Buggify`]): a mute rank never
                // acks, so the sweep's per-rank deadline is the only thing
                // standing between the driver and an unbounded hang. The
                // one-shot variant drops a single ack across the worker's
                // whole lifetime — the transient partition that heals.
                let mute_once = state.buggify.mute_first_heartbeat && !*first_heartbeat_muted;
                if mute_once {
                    *first_heartbeat_muted = true;
                }
                if !state.buggify.mute_heartbeats && !mute_once {
                    ctrl.send(&Msg::HeartbeatAck { nonce })?;
                }
            }
            Msg::Shutdown => {
                // Ship local telemetry so the coordinator can aggregate
                // real traffic. Thread-mode workers share the registry with
                // the coordinator already — shipping it would double count.
                let counters = if mode == RunMode::Process {
                    let mut rows = pac_telemetry::snapshot_prefix("net.");
                    rows.extend(pac_telemetry::snapshot_prefix("allreduce."));
                    // The pool counts in the runtime, not in the registry:
                    // this rank's fan-out travels with its traffic.
                    if pac_telemetry::enabled() {
                        let pool = pac_tensor::rayon::pool::stats();
                        rows.push(("net.pool.parallel_calls".into(), pool.parallel_calls));
                        rows.push(("net.pool.tasks".into(), pool.tasks));
                    }
                    rows
                } else {
                    Vec::new()
                };
                let _ = ctrl.send(&Msg::Stats { counters });
                return Ok(WorkerExit::Done);
            }
            _ => return Err(NetError::Malformed("unexpected control message")),
        }
    }
}
