//! The distributed worker: one rank = one pipeline stage of one DP lane.
//!
//! A worker is stateless until assigned: it reports its data port, receives
//! an [`Assignment`], deterministically rebuilds the full model from the
//! shared seed, keeps only its own stage, wires its mesh edges, and then
//! executes lockstep `Step` commands until told to shut down. Because the
//! model is rebuilt from the seed, startup ships **no parameters** — only
//! a checkpoint restore after a replan does — and sends only the
//! parameters a `Step` asks for, right after its `Done`.
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
use crate::wire::{Assignment, Msg, NetError, SnapReq};
use pac_model::{EncoderModel, ModelConfig, StageData, StageModel};
use pac_nn::optim::{Optimizer, Sgd};
use pac_nn::Module;
use pac_parallel::engine::{run_stage, MicroBatch, StageLinks};
use pac_parallel::schedule::SimEvent;
use pac_parallel::{EngineError, EngineResult};
use pac_tensor::rng::seeded;
use pac_tensor::Tensor;
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
    /// Write nothing on the control socket after `Ready` — a rank whose
    /// control plane has gone silent while its data plane still computes
    /// and joins the ring. The coordinator must evict it with typed
    /// [`NetError::Stale`] at the step deadline instead of hanging on its
    /// verdict. Planted on one worker of one launch
    /// (`SimSpawner::with_buggify_at`), it is a transient flake the
    /// respawned world does not repeat.
    pub mute_control: bool,
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
        let msg = Msg::Act {
            micro: micro as u32,
            data,
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

/// Overwrites parameters by name (checkpoint restore). A snapshot holds
/// trainable params only; frozen ones are already bit-identical from the
/// seed. Every entry is checked before any is written.
///
/// # Errors
/// [`NetError::Malformed`], with the stage untouched, when an entry names
/// no parameter of this stage, repeats a name, or has other dims.
pub fn apply_restore(
    stage: &mut StageModel,
    entries: Vec<(String, Tensor)>,
) -> Result<(), NetError> {
    let n = entries.len();
    let mut map: HashMap<String, Tensor> = entries.into_iter().collect();
    let mut fitting = 0;
    stage.visit_params_ref(&mut |p| {
        if map.get(&p.name).is_some_and(|t| t.dims() == p.value.dims()) {
            fitting += 1;
        }
    });
    if fitting != n {
        return Err(NetError::Malformed(
            "restore entry does not fit a parameter of this stage",
        ));
    }
    stage.visit_params(&mut |p| {
        if let Some(t) = map.remove(&p.name) {
            p.value = t;
        }
    });
    Ok(())
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
/// one.
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

/// Writes `msg` on the control socket unless the rank's control plane is
/// planted silent ([`Buggify::mute_control`]).
pub(crate) fn reply<C: Conn>(ctrl: &mut C, mute: bool, msg: &Msg) -> Result<(), NetError> {
    if mute {
        Ok(())
    } else {
        ctrl.send(msg)
    }
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

/// Runs one worker over any [`Transport`] against the coordinator's
/// rendezvous `coord_port` until shutdown, fault injection, or loss of the
/// coordinator. Never panics on transport input; all failures are typed.
///
/// This is the *only* worker loop in the crate: TCP workers and simulated
/// workers execute this exact function, with no `#[cfg]` forks of
/// protocol logic.
pub fn run_worker_on<T: Transport>(
    transport: &T,
    coord_port: u16,
    slot: u32,
    mode: RunMode,
    buggify: &Buggify,
) -> Result<(), NetError> {
    let listener = transport.bind()?;
    let listen_port = listener.port();

    let mut ctrl = transport.connect(coord_port, CONNECT_TIMEOUT)?;
    ctrl.send(&Msg::Hello { slot, listen_port })?;

    let asg = match ctrl.recv()? {
        Msg::Assign(a) => *a,
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
    let mute = buggify.mute_control;

    loop {
        let msg = match ctrl.recv() {
            Ok(m) => m,
            // Coordinator went away without a Shutdown (evicted this rank,
            // tore the round down after a peer fault, or crashed).
            Err(NetError::Eof) | Err(NetError::Timeout) => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            Msg::Step {
                step,
                die,
                stall_ms,
                micro_batches,
                snap,
            } => {
                if die {
                    // Injected fail-stop: drop dead without a goodbye. In
                    // process mode that is a hard exit; in thread mode,
                    // returning drops every socket, which peers observe as
                    // EOF — the same signal a real crash produces.
                    match mode {
                        RunMode::Process => std::process::exit(KILLED_EXIT),
                        RunMode::Thread => return Ok(()),
                    }
                }
                let t0 = transport.now_ns();
                if stall_ms > 0 {
                    // Injected straggler: the device is busy elsewhere for a
                    // while before it starts computing. The stall counts
                    // toward busy time.
                    std::thread::sleep(Duration::from_millis(stall_ms as u64));
                }
                match run_step(&mut state, step, &micro_batches, || transport.now_ns()) {
                    Ok((loss_sum, events, pre_collective_ns)) => {
                        let busy_ns = pre_collective_ns.saturating_sub(t0);
                        let done = Msg::Done {
                            rank,
                            loss_sum,
                            busy_ns,
                            events,
                        };
                        reply(&mut ctrl, mute, &done)?;
                        if snap != SnapReq::None {
                            let stage = state.stage.as_ref().expect("stage present");
                            let entries = param_entries(stage, snap == SnapReq::Trainable);
                            reply(&mut ctrl, mute, &Msg::ParamSnap { entries })?;
                        }
                    }
                    Err(e) => {
                        // A peer died mid-step; tell the coordinator who we
                        // blame (best effort — it may already be tearing the
                        // round down) and exit: our mesh is unusable.
                        let blamed = match &e {
                            EngineError::RankDown { rank: r, .. } => *r as u32,
                            _ => rank,
                        };
                        let _ = reply(
                            &mut ctrl,
                            mute,
                            &Msg::Fault {
                                observer: rank,
                                blamed,
                                detail: e.to_string(),
                            },
                        );
                        return Ok(());
                    }
                }
            }
            Msg::Restore { entries } => {
                // Planted membership bug (see [`Buggify`]): a worker that
                // skips catch-up keeps whatever parameters it rebuilt from
                // the seed and diverges from the checkpoint cursor.
                if !state.buggify.skip_catch_up_restore {
                    apply_restore(state.stage.as_mut().expect("stage present"), entries)?;
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
                let _ = reply(&mut ctrl, mute, &Msg::Stats { counters });
                return Ok(());
            }
            _ => return Err(NetError::Malformed("unexpected control message")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistConfig;

    fn stage0(hidden: usize) -> StageModel {
        let mut cfg = DistConfig::loopback(2, 1);
        cfg.hidden = hidden;
        cfg.build_stages().expect("stages").swap_remove(0)
    }

    fn bits(stage: &StageModel) -> Vec<u32> {
        let mut out = Vec::new();
        stage.visit_params_ref(&mut |p| out.extend(p.value.data().iter().map(|v| v.to_bits())));
        out
    }

    #[test]
    fn restore_checks_every_entry_before_writing_any() {
        let mut stage = stage0(16);
        let before = bits(&stage);
        let mut other = param_entries(&stage0(16), true);
        for (_, t) in &mut other {
            *t = t.scale(2.0);
        }

        // One misfit anywhere — other dims, an unknown name, a repeat —
        // refuses the whole restore and writes nothing.
        let mut wide = other.clone();
        let last = wide.len() - 1;
        wide[last].1 = param_entries(&stage0(32), true)
            .into_iter()
            .find(|(n, _)| *n == wide[last].0)
            .expect("same names")
            .1;
        let mut unknown = other.clone();
        unknown.push(("nope.w".into(), Tensor::zeros([1])));
        let mut repeated = other.clone();
        repeated.push(other[0].clone());
        for bad in [wide, unknown, repeated] {
            assert!(matches!(
                apply_restore(&mut stage, bad),
                Err(NetError::Malformed(_))
            ));
            assert_eq!(bits(&stage), before, "a refused restore wrote");
        }

        let want: Vec<u32> = other
            .iter()
            .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
            .collect();
        apply_restore(&mut stage, other).expect("a fitting restore");
        assert_eq!(bits(&stage), want);
    }
}
