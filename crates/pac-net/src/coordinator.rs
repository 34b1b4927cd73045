//! The coordinator: one poll-driven loop that runs every training world.
//!
//! [`run_multiworld`] drives any number of `stages × lanes` worlds — a
//! solo job is the same loop with one entry ([`run_world`]) — through the
//! training semantics of the in-process `HybridEngine`: one `Step`
//! broadcast per mini-batch, every rank replying `Done`, losses and
//! parameters **bitwise identical** on the same seed and batches (with
//! SGD; see [`crate::worker`] for why Adam is excluded). Every control
//! connection of every active world joins one
//! [`PollTransport::wait_ready`] wakeup, verdicts and snapshots drain
//! through non-blocking [`PollConn::try_recv`] sweeps in a fixed
//! `(world, rank)` order, and jobs are admitted and retired on the
//! job-lifetime rendezvous listener without disturbing the other worlds.
//! Between a world's dispatch and its settle the loop never blocks on one
//! of its ranks, so one world's silent rank cannot stall its siblings.
//!
//! **The next step waits in the socket.** A world keeps up to `WINDOW`
//! (2) steps in flight: while step t is out, step t+1's `Step` is written
//! too, so a rank reads it the moment it has sent `Done(t)`, and the
//! coordinator settles t while the ranks compute t+1. A worker sends the
//! snapshot step t asks for right after `Done(t)`, before it reads step
//! t+1, so it holds the parameters after step t.
//!
//! **Liveness is traffic.** A rank is alive for a step when it delivers
//! what the step owes: its verdict (`Done` or `Fault`) and the `ParamSnap`
//! it was asked for. There is no probe: a rank that owes a step anything
//! `net_timeout` after the step became the oldest in flight has missed its
//! step deadline, [`NetError::Stale`].
//!
//! Everything the coordinator knows about one world lives in that world's
//! [`WorldId`]-tagged entry — worker handles, its step count and recovery
//! timeline, checkpoint cursor, lane membership, the optional durable
//! [`Store`] — so a `Stale` verdict or a recovery event can never name
//! another world's ranks. The loop calls into it at five points:
//!
//! * **admit** — launch the world; cold-restart from the store's last
//!   committed snapshot if it has one, else keep the seed's parameters,
//!   which every rank rebuilds, as the initial snapshot.
//! * **before dispatch** — count the world's next step, admit a planned
//!   join wave ([`Fault::Join`](pac_parallel::Fault)), map injected
//!   fail-stops and straggler stalls, split each micro-batch's rows across
//!   the lanes by [`shard_micro_batches`], then write each rank its `Step`.
//!   A step that ends on the snapshot cadence, ends the job or comes right
//!   before a join wave asks every canonical rank in it for its parameters
//!   ([`SnapReq`]), shipped right after its `Done`. An idle world writes
//!   its next two steps at once; a world with one step out writes the next.
//! * **settle** — once every rank has its verdict plus the snapshot it was
//!   asked for, commit the oldest step's loss and keep the snapshot it
//!   carried, or hold it for the join wave next; steps settle in order.
//! * **rank down** — a missing verdict or snapshot, a peer's blame or a
//!   failed dispatch. Every step in flight is discarded. The job's
//!   [`RankLoss`] decides between respawning the same topology and
//!   shrinking the world by the dead rank's lane.
//! * **retire** — hand back the final parameters the last step carried
//!   and the [`WorldReport`], or the world's own terminal error (no
//!   surviving lane, the respawn bound) in that report while its siblings
//!   run on.
//!
//! Three rules keep every fault semantic what it is with one step in
//! flight:
//!
//! 1. **Step clock.** A worker writes its control frames in the order the
//!    window's steps owe them (verdict, then snapshot, step by step), so a
//!    frame goes to the oldest step its rank still owes. A rank can act on
//!    a step only once it has finished the one ahead, so a step's deadline
//!    starts when it becomes the oldest in flight, not at its dispatch.
//! 2. **Loss discards the window.** A rank loss discards every step in
//!    flight, and each one but the failed step gives its fault-clock tick
//!    back (`World::next_step`), so the recovery log, `RankDown.step`
//!    and the respawn bound read as if it had never been dispatched.
//! 3. **No lookahead into planned events.** A step the fault plan names
//!    (fail-stop, straggler stall, join wave, crash point) is dispatched
//!    only once its predecessor has settled, and none is dispatched behind
//!    a step that has already lost a rank.
//!
//! A world changes shape only by plan or by loss: a planned join wave or
//! a rank loss. Slow devices are the planner's business, so a straggler
//! only stalls its lane. Join, leave and respawn all end in the same
//! routine: change the lane membership, release the old round, launch the
//! new one restored from the world's snapshot, rewind the cursor. Released rounds are
//! reaped at the very end (joining a dying world inline would park the
//! loop while sibling worlds' read deadlines run), behind a drop guard so
//! no error path leaks live workers.
//!
//! **Determinism.** Under the simulated transport the wakeup times are
//! clock events and the sweep order is fixed, so the interleaving of N
//! worlds is a pure function of the seed — `simsweep` asserts
//! byte-identical traces across repeats.

use crate::config::{DistConfig, DistError};
use crate::rendezvous::{Rendezvous, Topology, WorkerConn, WorldId};
use crate::spawn::{Spawn, SpawnedWorld};
use crate::transport::{Conn, PollConn, PollTransport, Transport};
use crate::wire::{
    decode_frame, param_snap_frame, param_snap_frame_len, Assignment, Msg, NetError, SnapReq,
};
use crate::worker::param_entries;
use pac_parallel::engine::{shard_micro_batches, MicroBatch};
use pac_parallel::faults::record;
use pac_parallel::schedule::SimEvent;
use pac_parallel::{EngineError, FaultPlan, RecoveryReport, TimelineEvent, TimelineKind};
use pac_store::{decode_cursor, encode_cursor, Store};
use pac_tensor::Tensor;
use std::collections::VecDeque;
use std::time::Duration;

/// How long one readiness wait blocks before the coordinator re-checks
/// admissions and step deadlines. Virtual time under simnet, wall time
/// over TCP; either way it only bounds reaction latency — no training
/// verdict depends on it.
const POLL_WAIT: Duration = Duration::from_millis(10);

/// Most rank losses in a row a world relaunches after with no step settled
/// in between; the next one ends the run with that loss's
/// [`EngineError::RankDown`]. Without it a rank that dies at the same point
/// every round would relaunch its world forever.
const MAX_RESPAWNS_IN_A_ROW: u32 = 8;

/// Steps a world keeps in flight: the oldest, which the coordinator
/// settles, and the next, which the ranks compute meanwhile. A constant,
/// not a knob: a deeper window would only queue frames the ranks cannot
/// read before they finish the step ahead of them.
const WINDOW: usize = 2;

/// What a world does when it loses a rank — the one behavioural choice a
/// job states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankLoss {
    /// Respawn the same topology, restore the world's snapshot and replay
    /// from its cursor. The trajectory stays bitwise equal to the
    /// fault-free run, and a one-lane world survives. A ninth loss in a
    /// row with no step settled ends the run with its
    /// [`EngineError::RankDown`] (under either policy).
    #[default]
    Respawn,
    /// Drop the dead rank's lane: respawn the world minus that lane,
    /// restore and replay. The survivors see more rows per update, so the
    /// trajectory changes; losing the last lane ends the job with
    /// [`EngineError::NoSurvivors`].
    Shrink,
}

/// One tenant's training job as submitted to the coordinator.
pub struct TenantJob {
    /// Tenant identity (for reports and logs).
    pub tenant: u64,
    /// World configuration — seed, shape, cadence. Each tenant's `seed`
    /// drives its model init and therefore its whole trajectory.
    pub cfg: DistConfig,
    /// The tenant's mini-batches, one entry per lockstep step.
    pub batches: Vec<Vec<MicroBatch>>,
    /// Admit this job once the coordinator has completed this many steps
    /// across all worlds (0 = admit immediately). When nothing is active
    /// and nothing qualifies, the earliest pending job is admitted
    /// regardless, so the schedule always makes progress.
    pub admit_after_steps: u64,
    /// Faults injected into *this world only*, on its own step clock:
    /// fail-stops (by original device index `stage * lanes + lane`),
    /// straggler stalls, join waves and checkpoint-writer crashes.
    pub faults: FaultPlan,
    /// Persist every snapshot through this store alongside the replay
    /// cursor. A store that already ends in a committed snapshot (a
    /// previous coordinator died) cold-restarts the world from it: the
    /// completed loss history comes back bitwise from the commit
    /// metadata and the remaining trajectory is bitwise identical to an
    /// uninterrupted run. Without a store the snapshot only lives in
    /// memory.
    pub store: Option<Box<dyn Store>>,
    /// Respawn in place or shrink the world when a rank is lost.
    pub on_rank_loss: RankLoss,
}

impl TenantJob {
    /// A job with no fault injection and no store, admitted immediately,
    /// that respawns in place on rank loss.
    pub fn new(tenant: u64, cfg: DistConfig, batches: Vec<Vec<MicroBatch>>) -> Self {
        TenantJob {
            tenant,
            cfg,
            batches,
            admit_after_steps: 0,
            faults: FaultPlan::none(),
            store: None,
            on_rank_loss: RankLoss::Respawn,
        }
    }

    /// Rejects a job the coordinator could only fail on mid-flight: every
    /// world of it would fail the same way (a rank panics or refuses its
    /// assignment), and a respawning world would fail again at the same
    /// cursor, forever.
    fn validate(&self) -> Result<(), DistError> {
        let reject = |reason: String| {
            Err(DistError::InvalidJob {
                tenant: self.tenant,
                reason,
            })
        };
        let cfg = &self.cfg;
        let lanes = cfg.lanes;
        if lanes == 0 {
            return reject("zero lanes".into());
        }
        if cfg.partition.is_empty() {
            return reject("empty stage partition".into());
        }
        if cfg.heads == 0 || !cfg.hidden.is_multiple_of(cfg.heads) {
            return reject(format!(
                "hidden {} does not split into {} head(s)",
                cfg.hidden, cfg.heads
            ));
        }
        if cfg.partition.contains(&0) {
            return reject(format!(
                "partition {:?} does not cover {} layer(s) with non-empty stages",
                cfg.partition,
                cfg.partition.iter().sum::<usize>()
            ));
        }
        if cfg.n_out == 0 {
            return reject("n_out is zero".into());
        }
        let Some(first) = self.batches.first() else {
            return reject("no batches".into());
        };
        if first.is_empty() || self.batches.iter().any(|b| b.len() != first.len()) {
            return reject("micro-batch count must be constant and non-zero across steps".into());
        }
        let min_rows = min_micro_rows(&self.batches);
        if min_rows < lanes {
            return reject(format!(
                "a micro-batch of {min_rows} row(s) cannot be split across {lanes} lane(s)"
            ));
        }
        let model = cfg.model_config();
        for (toks, targets) in self.batches.iter().flatten() {
            if targets.len() != toks.len() {
                return reject(format!(
                    "{} target(s) for {} row(s) in a micro-batch",
                    targets.len(),
                    toks.len()
                ));
            }
            if let Some(&t) = targets.iter().find(|&&t| t >= cfg.n_out) {
                return reject(format!("target {t} is not below n_out {}", cfg.n_out));
            }
            let seq = toks.first().map_or(0, Vec::len);
            if toks.iter().any(|row| row.len() != seq) {
                return reject("rows of unequal length in a micro-batch".into());
            }
            if seq > model.max_seq {
                return reject(format!(
                    "rows of {seq} tokens exceed max_seq {}",
                    model.max_seq
                ));
            }
            if let Some(&id) = toks.iter().flatten().find(|&&id| id >= model.vocab) {
                return reject(format!("token id {id} is not below vocab {}", model.vocab));
            }
        }
        Ok(())
    }
}

/// Every lane needs at least one row of every micro-batch, so the
/// smallest micro bounds how far a world can grow.
fn min_micro_rows(batches: &[Vec<MicroBatch>]) -> usize {
    batches
        .iter()
        .flat_map(|b| b.iter().map(|mb| mb.0.len()))
        .min()
        .unwrap_or(0)
}

/// Outcome of one tenant's world.
#[derive(Debug)]
pub struct WorldReport {
    /// Tenant identity from the job.
    pub tenant: u64,
    /// The world id this job ran under.
    pub world: WorldId,
    /// Per-mini-batch mean loss (lane-averaged), in step order.
    pub losses: Vec<f32>,
    /// Final parameters of the canonical (lane position 0) replica, in
    /// stage order — directly comparable to `HybridEngine::canonical_params`.
    pub final_params: Vec<(String, Tensor)>,
    /// Fault/recovery accounting, the shape `PacSession` reports too.
    pub recovery: RecoveryReport,
    /// The recovery timeline rendered one line per event, each tagged with
    /// this world's id. Every rank named here belongs to this world — the
    /// cross-attribution regression surface.
    pub log: Vec<String>,
    /// Times this world lost a rank and restarted from its snapshot.
    pub recoveries: u32,
    /// Measured op timeline of the canonical lane's last step (for Gantt
    /// rendering).
    pub last_events: Vec<SimEvent>,
    /// Each rank's busy time in the last settled step, in rank order: its
    /// `Done.busy_ns`, from the start of its step (stall included) to the
    /// start of the gradient AllReduce.
    pub last_busy_ns: Vec<u64>,
    /// Pipeline stages (constant across recovery).
    pub stages: usize,
    /// Lanes alive at the end (may differ from the starting count after
    /// joins and leaves).
    pub final_lanes: usize,
    /// The world's own terminal error — no surviving lane, or a rank lost
    /// more than `MAX_RESPAWNS_IN_A_ROW` (8) times in a row with no step
    /// settled — or `None` when it ran out of batches. An ended world's
    /// `losses` hold the steps it settled; [`run_world`] returns the error
    /// as its `Err`.
    pub error: Option<DistError>,
}

/// Outcome of a whole coordinator run.
#[derive(Debug)]
pub struct MultiWorldReport {
    /// One report per job, in job submission order.
    pub worlds: Vec<WorldReport>,
    /// Most worlds concurrently active at any point.
    pub max_concurrent: usize,
    /// Total lockstep steps completed across all worlds (a step replayed
    /// after recovery counts again — this measures coordinator work, not
    /// data progress).
    pub steps_total: u64,
}

type ConnOf<S> = <<S as Spawn>::T as Transport>::Conn;

/// One spawned world plus its control connections. Teardown is owned
/// here: it is idempotent and also runs on drop, so every coordinator
/// error path — setup included — reaps its workers instead of leaking
/// them.
struct Round<C: Conn> {
    conns: Vec<WorkerConn<C>>,
    world: Option<SpawnedWorld>,
    topo: Topology,
}

impl<C: Conn> Round<C> {
    /// Sends `Shutdown` to every rank (best-effort), merges worker
    /// telemetry, clears the connections and hands the spawn handles back
    /// *without* joining them. Mid-run callers park the handles in the
    /// [`Graveyard`]: joining a dying round inline would park the loop
    /// while sibling worlds' read deadlines run.
    fn release(&mut self) -> Option<SpawnedWorld> {
        let world = self.world.take()?;
        for wc in self.conns.iter_mut() {
            let _ = wc.ctrl.send(&Msg::Shutdown);
        }
        for wc in self.conns.iter_mut() {
            // A discarded step's frames may still be queued ahead of the
            // goodbye.
            while let Ok(msg) = wc.ctrl.recv() {
                if let Msg::Stats { counters } = msg {
                    pac_telemetry::merge_counters(counters);
                    break;
                }
            }
        }
        self.conns.clear();
        Some(world)
    }
}

impl<C: Conn> Drop for Round<C> {
    fn drop(&mut self) {
        if let Some(world) = self.release() {
            world.shutdown();
        }
    }
}

/// Rounds released mid-run (recovery, membership change, retirement).
/// Their threads are joined and their processes waited on when the run
/// ends — on every exit, error paths included.
#[derive(Default)]
struct Graveyard(Vec<SpawnedWorld>);

impl Drop for Graveyard {
    fn drop(&mut self) {
        for world in self.0.drain(..) {
            world.shutdown();
        }
    }
}

/// What every world shares: the spawner, the transport, and the one
/// rendezvous listener of the whole deployment — every world's workers,
/// every later admission and every joiner dial the same port. Field order
/// is drop order: the listener closes before the graveyard joins, so a
/// worker still dialing (one of a launch whose rendezvous failed) fails
/// its dial and exits instead of being waited on.
struct Host<'a, S: Spawn> {
    spawner: &'a S,
    transport: S::T,
    rdv: Rendezvous<S::T>,
    graveyard: Graveyard,
}

/// Named parameter tensors for each pipeline stage, canonical-lane order.
type StageParams = Vec<Vec<(String, Tensor)>>;

#[derive(Default)]
struct Snapshot {
    /// Trainable parameters per stage (from the canonical lane).
    stages: StageParams,
    /// Data cursor to resume from.
    next_t: usize,
    /// Loss history length at snapshot time.
    losses_len: usize,
}

/// Serializes a snapshot's per-stage entries for durable storage by
/// reusing the wire codec: `u32 stage count · one ParamSnap frame per
/// stage`. Every frame carries the wire format's own CRC, so decoding
/// after recovery re-checks integrity end to end (on top of the store's
/// record CRCs).
fn encode_snapshot(stages: &StageParams) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(stages.len() as u32).to_le_bytes());
    for entries in stages {
        out.extend_from_slice(&param_snap_frame(entries));
    }
    out
}

/// Inverse of [`encode_snapshot`].
fn decode_snapshot(bytes: &[u8]) -> Result<StageParams, NetError> {
    let n = u32::from_le_bytes(
        bytes
            .get(..4)
            .ok_or(NetError::Malformed("snapshot stage-count header"))?
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let mut rest = &bytes[4..];
    let mut stages = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let (msg, used) = decode_frame(rest)?;
        match msg {
            Msg::ParamSnap { entries } => stages.push(entries),
            _ => return Err(NetError::Malformed("expected a ParamSnap frame")),
        }
        rest = &rest[used..];
    }
    if !rest.is_empty() {
        return Err(NetError::Malformed("trailing bytes after snapshot stages"));
    }
    Ok(stages)
}

/// The trainable parameters every rank of `cfg`'s world rebuilds from the
/// seed, per stage: the snapshot at cursor 0.
fn seed_params(cfg: &DistConfig) -> Result<StageParams, String> {
    let stages = cfg.build_stages().map_err(|e| e.to_string())?;
    Ok(stages.iter().map(|s| param_entries(s, true)).collect())
}

/// Checks a committed snapshot against the parameters `cfg`'s stages
/// train: per stage, the same names with the same dims in the same order.
/// A log written by another job shape fails here, before any spawn.
fn snapshot_fits(cfg: &DistConfig, snapshot: &StageParams) -> Result<(), String> {
    let layout = |entries: &[(String, Tensor)]| -> Vec<(String, Vec<usize>)> {
        entries
            .iter()
            .map(|(n, t)| (n.clone(), t.dims().to_vec()))
            .collect()
    };
    let trained: Vec<_> = seed_params(cfg)?.iter().map(|e| layout(e)).collect();
    let held: Vec<_> = snapshot.iter().map(|e| layout(e)).collect();
    match (0..trained.len().max(held.len())).find(|&s| trained.get(s) != held.get(s)) {
        None => Ok(()),
        Some(s) => Err(format!(
            "stage {s} holds {:?}, the job trains {:?}",
            held.get(s),
            trained.get(s)
        )),
    }
}

/// Launches and wires a `stages × lanes` round for `job` on the
/// coordinator's rendezvous listener and, given a snapshot, restores
/// every rank from it.
fn start_round<S: Spawn>(
    host: &Host<'_, S>,
    job: &TenantJob,
    lanes: usize,
    snapshot: Option<&Snapshot>,
) -> Result<Round<ConnOf<S>>, DistError> {
    let cfg = &job.cfg;
    let topo = Topology {
        stages: cfg.stages(),
        lanes,
    };
    let world = host
        .spawner
        .launch(host.rdv.port(), topo.world())
        .map_err(|e| DistError::Net(NetError::Io(e)))?;
    // From here on the guard owns teardown: any `?` below reaps the
    // spawned workers before returning.
    let mut round = Round {
        conns: Vec::new(),
        world: Some(world),
        topo,
    };
    round.conns = host
        .rdv
        .accept_world(topo.world(), cfg.setup_timeout, cfg.net_timeout)?;

    let ports: Vec<u16> = round.conns.iter().map(|w| w.data_port).collect();
    let enc_layers: usize = cfg.partition.iter().sum();
    for (rank, wc) in round.conns.iter_mut().enumerate() {
        wc.ctrl.send(&Msg::Assign(Box::new(Assignment {
            rank: rank as u32,
            lane: topo.lane_of(rank) as u32,
            stage: topo.stage_of(rank) as u32,
            lanes: topo.lanes as u32,
            stages: topo.stages as u32,
            seed: cfg.seed,
            lr: cfg.lr,
            enc_layers: enc_layers as u32,
            hidden: cfg.hidden as u32,
            heads: cfg.heads as u32,
            n_out: cfg.n_out as u32,
            partition: cfg.partition.iter().map(|&p| p as u32).collect(),
            schedule: cfg.schedule,
            micro_batches: job.batches[0].len() as u32,
            net_timeout_ms: cfg.net_timeout.as_millis() as u32,
            telemetry: pac_telemetry::enabled(),
        })))?;
    }
    for wc in round.conns.iter_mut() {
        wc.ctrl.send(&Msg::Peers {
            ports: ports.clone(),
        })?;
    }
    for wc in round.conns.iter_mut() {
        match wc.ctrl.recv()? {
            Msg::Ready => {}
            _ => return Err(NetError::Malformed("expected Ready after mesh wiring").into()),
        }
    }
    if let Some(snap) = snapshot {
        for (rank, wc) in round.conns.iter_mut().enumerate() {
            wc.ctrl.send(&Msg::Restore {
                entries: snap.stages[topo.stage_of(rank)].clone(),
            })?;
        }
    }
    Ok(round)
}

/// A verdict slot for one rank of one in-flight step.
enum Verdict {
    Done {
        loss_sum: f32,
        busy_ns: u64,
        events: Vec<SimEvent>,
    },
    Failed(String),
}

/// A reply a step asked one rank for on top of its verdict.
enum Awaited<T> {
    NotAsked,
    Waiting,
    Got(T),
}

impl<T> Awaited<T> {
    fn asked(ask: bool) -> Self {
        if ask {
            Awaited::Waiting
        } else {
            Awaited::NotAsked
        }
    }

    fn waiting(&self) -> bool {
        matches!(self, Awaited::Waiting)
    }
}

/// What a step's `ParamSnap` frames become once it settles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnapKind {
    /// The periodic snapshot: trainable parameters at the new cursor.
    Periodic,
    /// The catch-up snapshot of the next step's join wave: trainable
    /// parameters at the new cursor, held for the wave.
    CatchUp,
    /// The job's final parameters, frozen ones included.
    Final,
}

impl SnapKind {
    /// What the step asks its canonical ranks for.
    fn req(self) -> SnapReq {
        match self {
            SnapKind::Periodic | SnapKind::CatchUp => SnapReq::Trainable,
            SnapKind::Final => SnapReq::All,
        }
    }

    /// How a canonical rank lost before its `ParamSnap` is logged.
    fn what(self) -> &'static str {
        match self {
            SnapKind::Periodic | SnapKind::CatchUp => "snapshot fetch",
            SnapKind::Final => "final fetch",
        }
    }
}

/// A clock that has not started yet: a lookahead step's deadline runs
/// from when the step becomes the oldest in flight.
const NOT_STARTED: u64 = u64::MAX;

/// One rank's share of an in-flight step.
struct RankSlot {
    verdict: Option<Verdict>,
    /// A canonical rank's parameters after the step's update.
    snap: Awaited<Vec<(String, Tensor)>>,
}

impl RankSlot {
    /// Nothing more is due from this rank for this step: it failed, or it
    /// delivered its verdict and the snapshot it was asked for.
    fn complete(&self) -> bool {
        match self.verdict {
            None => false,
            Some(Verdict::Failed(_)) => true,
            Some(Verdict::Done { .. }) => !self.snap.waiting(),
        }
    }

    fn failed(&self) -> bool {
        matches!(self.verdict, Some(Verdict::Failed(_)))
    }

    fn fail(&mut self, detail: String) {
        self.verdict = Some(Verdict::Failed(detail));
    }
}

/// One dispatched-but-unfinished lockstep step.
struct Pending {
    die_rank: Option<usize>,
    ranks: Vec<RankSlot>,
    /// Rank a surviving peer blamed via `Fault`, if any.
    first_blame: Option<(usize, String)>,
    snap: Option<SnapKind>,
    /// `net_timeout`, for a clock started later.
    timeout_ns: u64,
    /// Ranks still owing a frame after this time fail the step.
    deadline_ns: u64,
    /// A lookahead step whose frames could not all be written: the rank
    /// and why. It fails the step once the steps ahead of it settle.
    undelivered: Option<(usize, String)>,
}

impl Pending {
    /// A step whose deadline runs from `now_ns`, its dispatch.
    fn new(
        topo: Topology,
        cfg: &DistConfig,
        now_ns: u64,
        snap: Option<SnapKind>,
        die_rank: Option<usize>,
    ) -> Self {
        let timeout_ns = cfg.net_timeout.as_nanos() as u64;
        let ranks = (0..topo.world())
            .map(|rank| RankSlot {
                verdict: None,
                snap: Awaited::asked(snap.is_some() && topo.lane_of(rank) == 0),
            })
            .collect();
        Pending {
            die_rank,
            ranks,
            first_blame: None,
            snap,
            timeout_ns,
            deadline_ns: now_ns.saturating_add(timeout_ns),
            undelivered: None,
        }
    }

    /// The same step dispatched behind another: its deadline waits for
    /// [`Pending::promote`].
    fn behind(mut self) -> Self {
        self.deadline_ns = NOT_STARTED;
        self
    }

    /// This step is now the oldest in flight: its deadline runs.
    fn promote(&mut self, now_ns: u64) {
        if self.deadline_ns == NOT_STARTED {
            self.deadline_ns = now_ns.saturating_add(self.timeout_ns);
        }
    }

    /// The snapshot this step asks `rank` for.
    fn snap_req(&self, rank: usize) -> SnapReq {
        match self.snap {
            Some(kind) if self.ranks[rank].snap.waiting() => kind.req(),
            _ => SnapReq::None,
        }
    }

    /// Ready to settle: nothing more is due from any rank, or its frames
    /// never all went out.
    fn settled(&self) -> bool {
        self.undelivered.is_some() || self.ranks.iter().all(RankSlot::complete)
    }

    /// Some rank has already failed this step.
    fn lost(&self) -> bool {
        self.undelivered.is_some() || self.ranks.iter().any(RankSlot::failed)
    }

    /// From the deadline on, every rank still owing a frame has missed it.
    fn expire(&mut self, now_ns: u64) {
        if now_ns < self.deadline_ns {
            return;
        }
        for rank in 0..self.ranks.len() {
            if !self.ranks[rank].complete() {
                let owed = self.owed(rank);
                self.ranks[rank].fail(format!("{owed}: {}", NetError::Stale));
                pac_telemetry::counter_inc("membership.stale");
            }
        }
    }

    /// Files one frame from `rank` that [`route`] sent to this step.
    fn take(&mut self, rank: usize, msg: Msg) {
        let slot = &mut self.ranks[rank];
        match msg {
            Msg::Done {
                loss_sum,
                busy_ns,
                events,
                ..
            } if slot.verdict.is_none() => {
                slot.verdict = Some(Verdict::Done {
                    loss_sum,
                    busy_ns,
                    events,
                });
            }
            Msg::Fault { blamed, detail, .. } if slot.verdict.is_none() => {
                self.first_blame.get_or_insert((blamed as usize, detail));
                slot.fail("observed a peer fault".to_string());
            }
            // Served after `Done`, so a snapshot before the verdict is as
            // much a violation as one nobody asked for.
            Msg::ParamSnap { entries } if slot.snap.waiting() && slot.verdict.is_some() => {
                slot.snap = Awaited::Got(entries);
            }
            other => slot.fail(format!("protocol violation: {other:?}")),
        }
    }

    /// What `rank` still owes this step, as its loss is logged.
    fn owed(&self, rank: usize) -> &'static str {
        match self.snap {
            _ if self.ranks[rank].verdict.is_none() => "no step verdict",
            Some(kind) => kind.what(),
            None => unreachable!("rank {rank} owes this step nothing"),
        }
    }
}

/// Collects whatever has arrived for a world's steps in flight, oldest
/// first: `try_recv` never blocks, and a partial frame stays buffered in
/// the connection for the next wakeup. A rank is read while any step still
/// waits on it; each frame goes to the step it answers ([`route`]).
/// Deadlines are applied last, step by step.
fn drain<C: PollConn>(window: &mut [Pending], conns: &mut [WorkerConn<C>], now_ns: u64) {
    for (rank, wc) in conns.iter_mut().enumerate() {
        while window.iter().any(|p| !p.ranks[rank].complete()) {
            match wc.ctrl.try_recv() {
                Ok(None) => break,
                Ok(Some(msg)) => route(window, rank, msg),
                // A rank that vanished without blaming anyone is the
                // prime suspect — peers that *observed* a failure say so
                // via Fault before exiting.
                Err(e) => {
                    for p in window.iter_mut().filter(|p| !p.ranks[rank].complete()) {
                        let owed = p.owed(rank);
                        p.ranks[rank].fail(format!("{owed}: {e}"));
                    }
                }
            }
        }
    }
    for p in window.iter_mut() {
        p.expire(now_ns);
    }
}

/// Sends one frame from `rank` to the step it answers: the oldest step the
/// rank still owes, since a worker answers the steps in order. That step
/// checks the frame's kind, so a frame no step asked for fails the rank
/// there as a protocol violation.
fn route(window: &mut [Pending], rank: usize, msg: Msg) {
    let step = window
        .iter()
        .position(|p| !p.ranks[rank].complete())
        .expect("a rank is read only while a step waits on it");
    window[step].take(rank, msg);
}

/// One live world and every piece of coordinator state scoped to it.
struct World<S: Spawn> {
    id: WorldId,
    job_idx: usize,
    job: TenantJob,
    /// Steps dispatched so far, the global step the job's fault plan
    /// counts: one per dispatch attempt, never rewound across recoveries,
    /// so an injected fault fires exactly once. The one exception is a
    /// lookahead step that a rank loss discards before it could settle:
    /// it gives its tick back, so the clock reads as if that step had
    /// never been dispatched (the step that failed keeps its tick).
    next_step: u64,
    /// This world's recovery timeline.
    timeline: Vec<TimelineEvent>,
    round: Round<ConnOf<S>>,
    snapshot: Snapshot,
    losses: Vec<f32>,
    /// Next batch index to settle: the replay cursor. The steps in
    /// flight run batches `t..t + pending.len()`.
    t: usize,
    /// Original lane ids still in the world, by lane position.
    alive_lanes: Vec<usize>,
    /// Lane ids for joiners once every original id is in use again.
    next_fresh_lane: usize,
    /// The canonical replica's parameters, carried back by the job's last
    /// step.
    final_params: Vec<(String, Tensor)>,
    /// The join wave's catch-up snapshot, carried back by the step before.
    catch_up: Option<StageParams>,
    /// The world's own terminal error; set, the world retires once idle.
    error: Option<DistError>,
    /// Steps in flight, oldest first, at most `WINDOW`.
    pending: VecDeque<Pending>,
    last_events: Vec<SimEvent>,
    /// Each rank's busy time in the last settled step, rank order.
    last_busy_ns: Vec<u64>,
    recoveries: u32,
    /// Rank losses since the world last settled a step.
    losses_in_a_row: u32,
    replans: u32,
    checkpoints: usize,
    checkpoint_bytes: usize,
}

impl<S> World<S>
where
    S: Spawn,
    S::T: PollTransport,
    ConnOf<S>: PollConn,
{
    /// Launches `job`'s world. A store ending in a committed snapshot
    /// means a previous coordinator died mid-job: decode it (wire CRCs
    /// re-checked frame by frame) and start restored from it. Otherwise
    /// keep the seed's parameters as the initial snapshot — recovery must
    /// always have something to restore.
    fn admit(
        host: &mut Host<'_, S>,
        id: WorldId,
        job_idx: usize,
        job: TenantJob,
    ) -> Result<Self, DistError> {
        let lanes = job.cfg.lanes;
        let committed = match job.store.as_ref() {
            Some(store) => store.latest()?,
            None => None,
        };
        let resumed = match committed {
            None => None,
            Some(c) => {
                let snap_stages = decode_snapshot(&c.payload)?;
                if let Err(reason) = snapshot_fits(&job.cfg, &snap_stages) {
                    return Err(DistError::InvalidJob {
                        tenant: job.tenant,
                        reason: format!("committed snapshot seq {} does not fit: {reason}", c.seq),
                    });
                }
                let (next_t, losses) = decode_cursor(&c.meta).ok_or(NetError::Malformed(
                    "committed snapshot carries an undecodable cursor",
                ))?;
                let snapshot = Snapshot {
                    stages: snap_stages,
                    next_t: next_t as usize,
                    losses_len: losses.len(),
                };
                Some((snapshot, losses, c.seq))
            }
        };
        let restore = resumed.as_ref().map(|(snapshot, _, _)| snapshot);
        let round = start_round(host, &job, lanes, restore)?;
        pac_telemetry::counter_inc("multiworld.admissions");
        let mut w = World {
            id,
            job_idx,
            next_step: 0,
            timeline: Vec::new(),
            round,
            snapshot: Snapshot::default(),
            losses: Vec::new(),
            t: 0,
            alive_lanes: (0..lanes).collect(),
            next_fresh_lane: lanes,
            final_params: Vec::new(),
            catch_up: None,
            error: None,
            pending: VecDeque::with_capacity(WINDOW),
            last_events: Vec::new(),
            last_busy_ns: Vec::new(),
            recoveries: 0,
            losses_in_a_row: 0,
            replans: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            job,
        };
        match resumed {
            Some((snapshot, losses, seq)) => {
                w.note(
                    TimelineKind::Resume,
                    format!(
                        "cold restart from committed snapshot seq {seq}, resuming at step cursor {}",
                        snapshot.next_t
                    ),
                );
                w.t = snapshot.next_t;
                w.losses = losses;
                w.snapshot = snapshot;
            }
            None => {
                let tenant = w.job.tenant;
                let stages = seed_params(&w.job.cfg)
                    .map_err(|reason| DistError::InvalidJob { tenant, reason })?;
                w.keep_snapshot("initial snapshot", stages);
                w.persist()?;
            }
        }
        Ok(w)
    }

    /// The oldest step in flight, else the step the world last dispatched
    /// (0 before its first dispatch): the step its timeline and crash
    /// points refer to.
    fn step(&self) -> u64 {
        self.next_step
            .saturating_sub(self.pending.len().max(1) as u64)
    }

    /// Appends to this world's recovery timeline at its current step.
    fn note(&mut self, kind: TimelineKind, detail: impl Into<String>) {
        let step = self.step();
        record(&mut self.timeline, step, kind, detail);
    }

    fn stages(&self) -> usize {
        self.job.cfg.stages()
    }

    /// Done: every batch settled, or ended by its own terminal error.
    fn over(&self) -> bool {
        self.error.is_some() || (self.pending.is_empty() && self.t == self.job.batches.len())
    }

    /// Whether the next step may go out now: an idle world always has a
    /// batch left to dispatch; behind a step in flight only one the fault
    /// plan does not name, and only while no rank has failed the window.
    fn may_dispatch(&self) -> bool {
        if self.error.is_some() || self.t + self.pending.len() == self.job.batches.len() {
            return false;
        }
        match self.pending.len() {
            0 => true,
            n if n < WINDOW => {
                !self.job.faults.names(self.next_step) && !self.pending.iter().any(Pending::lost)
            }
            _ => false,
        }
    }

    /// A rank loss ends every step in flight. Each but the oldest — the
    /// one that failed — gives its fault-clock tick back.
    fn discard_window(&mut self) {
        let lookahead = self.pending.len().saturating_sub(1);
        self.next_step -= lookahead as u64;
        self.pending.clear();
    }

    /// Notes a membership change: the world relaunches as `stages ×
    /// lanes`.
    fn note_replan(&mut self, prefix: &str, lanes: usize) {
        self.replans += 1;
        let stages = self.stages();
        self.note(
            TimelineKind::Replan,
            format!("{prefix}relaunching as {stages} stage(s) × {lanes} lane(s)"),
        );
    }

    /// Makes `stages` the world's snapshot at the current cursor, counted
    /// at its size on the wire: the sum of its `ParamSnap` frame lengths.
    fn keep_snapshot(&mut self, what: &str, stages: StageParams) {
        let bytes: usize = stages.iter().map(|e| param_snap_frame_len(e)).sum();
        self.checkpoints += 1;
        self.checkpoint_bytes += bytes;
        self.note(TimelineKind::Checkpoint, format!("{what} ({bytes} B)"));
        self.snapshot = Snapshot {
            stages,
            next_t: self.t,
            losses_len: self.losses.len(),
        };
    }

    /// Commits the snapshot through the job's store, if it has one: the
    /// wire-encoded stage parameters are the payload, the replay cursor
    /// the metadata. When the fault plan pins a `crash@step=N,at-byte=B`
    /// to this step, the store is armed first so the append tears
    /// mid-write — the dead writer surfaces as [`DistError::Store`], since
    /// everything past the last *committed* snapshot is unrecoverable
    /// in-process.
    fn persist(&mut self) -> Result<(), DistError> {
        let step = self.step();
        let Some(store) = self.job.store.as_mut() else {
            return Ok(());
        };
        if let Some(at_byte) = self.job.faults.crash_point(step) {
            record(
                &mut self.timeline,
                step,
                TimelineKind::Injected,
                format!("checkpoint writer crash armed at byte {at_byte}"),
            );
            store.arm_crash(at_byte);
        }
        let payload = encode_snapshot(&self.snapshot.stages);
        let meta = encode_cursor(
            self.snapshot.next_t as u64,
            &self.losses[..self.snapshot.losses_len],
        );
        store.commit(&payload, &meta)?;
        Ok(())
    }

    /// The one way membership changes take effect: release the old round
    /// (thread joins deferred to the graveyard), launch `alive_lanes`
    /// lanes restored from the world's own snapshot, and rewind the
    /// cursor for replay. No other world's state is touched.
    fn restart(&mut self, host: &mut Host<'_, S>) -> Result<(), DistError> {
        host.graveyard.0.extend(self.round.release());
        self.pending.clear();
        let lanes = self.alive_lanes.len();
        self.round = start_round(host, &self.job, lanes, Some(&self.snapshot))?;
        self.t = self.snapshot.next_t;
        self.losses.truncate(self.snapshot.losses_len);
        Ok(())
    }

    /// Grows the world by `lanes` lanes: one membership change and one
    /// catch-up snapshot at the current cursor however many joiners arrive
    /// together, so everyone — newcomers included — restores it and no
    /// step needs replaying. It is `held`, what the step before the wave
    /// carried back, else the world's snapshot, which is at the cursor:
    /// that step kept it on the snapshot cadence, or failed and the world
    /// restarted from it, or there was no such step.
    fn grow(
        &mut self,
        host: &mut Host<'_, S>,
        lanes: usize,
        held: Option<StageParams>,
    ) -> Result<(), DistError> {
        let devices = self.stages() * lanes;
        self.note(
            TimelineKind::Join,
            format!("admitted +{devices} device(s) as {lanes} lane(s) in one wave"),
        );
        let who = match lanes {
            1 => "joiner caught up from snapshot".to_string(),
            n => format!("{n} joiners caught up from one snapshot"),
        };
        self.note_replan("", self.alive_lanes.len() + lanes);
        let what = format!("catch-up snapshot at step cursor {}", self.t);
        let stages = held.unwrap_or_else(|| {
            debug_assert_eq!(self.snapshot.next_t, self.t, "a snapshot behind the cursor");
            self.snapshot.stages.clone()
        });
        self.keep_snapshot(&what, stages);
        self.persist()?;
        // Revive departed original lane ids smallest first, then mint
        // fresh ones.
        for _ in 0..lanes {
            let lane_id = (0..self.job.cfg.lanes)
                .find(|l| !self.alive_lanes.contains(l))
                .unwrap_or_else(|| {
                    self.next_fresh_lane += 1;
                    self.next_fresh_lane - 1
                });
            self.alive_lanes.push(lane_id);
            self.alive_lanes.sort_unstable();
        }
        self.restart(host)?;
        self.note(
            TimelineKind::Resume,
            format!(
                "{who}, resuming at step cursor {} over {} lane(s)",
                self.t,
                self.alive_lanes.len()
            ),
        );
        Ok(())
    }

    /// Elastic join: every device chain that offered to join before this
    /// step is admitted as one membership *wave*, up to what the smallest
    /// micro-batch can still be split across. A wave that admits nobody
    /// drops the catch-up snapshot held for it.
    fn admit_join_wave(&mut self, host: &mut Host<'_, S>, wave: usize) -> Result<(), DistError> {
        let held = self.catch_up.take();
        let min_rows = min_micro_rows(&self.job.batches);
        let admit = wave.min(min_rows.saturating_sub(self.alive_lanes.len()));
        if wave > admit {
            self.note(
                TimelineKind::Join,
                format!(
                    "join rejected for {} of {wave} joiner(s): {} lanes cannot split micro-batches of {min_rows} row(s)",
                    wave - admit,
                    self.alive_lanes.len() + wave,
                ),
            );
        }
        if admit > 0 {
            self.grow(host, admit, held)?;
        }
        Ok(())
    }

    /// A rank of this world is gone (current-round numbering): restart
    /// from the snapshot, on the same topology or minus the dead rank's
    /// lane as the job's [`RankLoss`] says — unless the world has already
    /// relaunched [`MAX_RESPAWNS_IN_A_ROW`] times without settling a step.
    fn rank_down(
        &mut self,
        host: &mut Host<'_, S>,
        rank: usize,
        detail: &str,
    ) -> Result<(), DistError> {
        let topo = self.round.topo;
        let pos = topo.lane_of(rank);
        if self.losses_in_a_row == MAX_RESPAWNS_IN_A_ROW {
            return Err(EngineError::RankDown {
                rank,
                lane: pos,
                stage: Some(topo.stage_of(rank)),
                step: self.step(),
                detail: format!(
                    "{detail}; {} rank losses in a row with no step settled",
                    MAX_RESPAWNS_IN_A_ROW + 1
                ),
            }
            .into());
        }
        self.losses_in_a_row += 1;
        self.recoveries += 1;
        pac_telemetry::counter_inc("multiworld.recoveries");
        match self.job.on_rank_loss {
            RankLoss::Respawn => self.note(
                TimelineKind::Retry,
                format!(
                    "rank {rank} down (stage {}, lane {pos}): {detail}; respawning the same topology",
                    topo.stage_of(rank)
                ),
            ),
            RankLoss::Shrink => {
                if topo.lanes == 1 {
                    // The dead lane was the only one: no pipeline left.
                    return Err(EngineError::NoSurvivors.into());
                }
                pac_telemetry::counter_inc("membership.leaves");
                self.alive_lanes.remove(pos);
                self.note_replan(
                    &format!("rank {rank} down ({detail}); "),
                    self.alive_lanes.len(),
                );
            }
        }
        self.restart(host)?;
        self.note(
            TimelineKind::Resume,
            format!(
                "restored snapshot, replaying from step cursor {} over {} lane(s)",
                self.t,
                self.alive_lanes.len()
            ),
        );
        Ok(())
    }

    /// Starts the world's next lockstep step: membership events and fault
    /// injection due at this step, then each rank's `Step` — micro-batch
    /// payloads only to the stages that consume them (first and last), the
    /// snapshot request in it. Nothing here waits on a rank.
    /// Dispatched behind a step in flight (no planned event, by
    /// [`World::may_dispatch`]), the step's deadline waits for that step, and
    /// a frame that cannot be written fails it once the step ahead has
    /// settled. A rank lost dispatching an idle world's step restarts the
    /// world and leaves it idle for the loop's next pass.
    fn dispatch(&mut self, host: &mut Host<'_, S>) -> Result<(), DistError> {
        let step = self.next_step;
        self.next_step += 1;
        let lookahead = !self.pending.is_empty();
        let wave = self.job.faults.joins(step);
        if wave > 0 {
            self.admit_join_wave(host, wave)?;
        }
        let topo = self.round.topo;

        // Map a planned fail-stop of an original device to the rank
        // currently standing in for it (lanes renumber as they die).
        let lanes0 = self.job.cfg.lanes;
        let die_rank = self.job.faults.fail_stop(step).and_then(|dev| {
            if dev >= topo.stages * lanes0 {
                return None;
            }
            let (stage, lane) = (dev / lanes0, dev % lanes0);
            let pos = self.alive_lanes.iter().position(|&l| l == lane)?;
            let rank = topo.rank_of(stage, pos);
            record(
                &mut self.timeline,
                step,
                TimelineKind::Injected,
                format!("device {dev} fail-stop (rank {rank}, stage {stage}, lane {lane})"),
            );
            Some(rank)
        });
        // Injected straggler delays, per lane position.
        let stalls: Vec<u32> = self
            .alive_lanes
            .iter()
            .map(|&l| {
                self.job
                    .faults
                    .straggler_delay(step, l)
                    .map_or(0, |d| d.as_millis() as u32)
            })
            .collect();
        for (&l, &ms) in self.alive_lanes.iter().zip(&stalls) {
            if ms > 0 {
                record(
                    &mut self.timeline,
                    step,
                    TimelineKind::Injected,
                    format!("lane {l} straggles {ms} ms"),
                );
            }
        }
        let cfg = &self.job.cfg;

        // The snapshot request rides the step when it ends on the snapshot
        // cadence, ends the job, or comes right before a join wave (which
        // rule 3 dispatches only once this step has settled).
        let idx = self.t + self.pending.len();
        let next_t = idx + 1;
        let every = cfg.checkpoint_every;
        let snap = if next_t == self.job.batches.len() {
            Some(SnapKind::Final)
        } else if every > 0 && next_t.is_multiple_of(every) {
            Some(SnapKind::Periodic)
        } else if self.job.faults.joins(step + 1) > 0 {
            Some(SnapKind::CatchUp)
        } else {
            None
        };
        let mut pending = Pending::new(topo, cfg, host.transport.now_ns(), snap, die_rank);
        if lookahead {
            pending = pending.behind();
        }

        let lane_mbs = shard_micro_batches(&self.job.batches[idx], topo.lanes)?;
        for rank in 0..topo.world() {
            let (s, k) = (topo.stage_of(rank), topo.lane_of(rank));
            let needs_data = s == 0 || s == topo.stages - 1;
            let msg = Msg::Step {
                step,
                die: die_rank == Some(rank),
                stall_ms: stalls[k],
                micro_batches: if needs_data {
                    lane_mbs[k].clone()
                } else {
                    Vec::new()
                },
                snap: pending.snap_req(rank),
            };
            if let Err(e) = self.round.conns[rank].ctrl.send(&msg) {
                let detail = format!("step dispatch: {e}");
                if !lookahead {
                    return self.rank_down(host, rank, &detail);
                }
                pending.undelivered = Some((rank, detail));
                break;
            }
        }
        self.pending.push_back(pending);
        Ok(())
    }

    /// Once nothing more is due from any rank for the oldest step in
    /// flight: commit it (loss, the snapshot it carried) and start the
    /// next step's deadline, or attribute the failure, discard the window
    /// and recover. Returns whether a step was completed.
    fn settle(&mut self, host: &mut Host<'_, S>) -> Result<bool, DistError> {
        let Some(p) = self.pending.front_mut().filter(|p| p.settled()) else {
            return Ok(false);
        };
        let topo = self.round.topo;
        let mut dones = Vec::with_capacity(topo.world());
        let mut snaps = StageParams::new();
        let mut first_silent = None;
        for (rank, slot) in std::mem::take(&mut p.ranks).into_iter().enumerate() {
            match slot.verdict {
                Some(Verdict::Done {
                    loss_sum,
                    busy_ns,
                    events,
                }) => dones.push((loss_sum, busy_ns, events)),
                Some(Verdict::Failed(detail)) => {
                    first_silent.get_or_insert((rank, detail));
                }
                // Only a step whose frames never all went out settles
                // with a rank still owing its verdict.
                None => {}
            }
            // Canonical ranks come in stage order.
            if let Awaited::Got(entries) = slot.snap {
                snaps.push(entries);
            }
        }
        // Attribution priority: a frame that could not be written, the
        // rank we deliberately killed, then the rank a surviving peer
        // blamed, then the first rank that went silent on the control
        // plane.
        let failure = match (p.undelivered.take(), first_silent) {
            (Some(undelivered), _) => Some(undelivered),
            (None, None) => None,
            (None, Some(silent)) => Some(match p.die_rank {
                Some(r) => (r, "injected fail-stop".to_string()),
                None => p.first_blame.take().unwrap_or(silent),
            }),
        };
        let kind = p.snap;
        if let Some((rank, detail)) = failure {
            self.discard_window();
            self.rank_down(host, rank, &detail)?;
            return Ok(false);
        }

        // Same float expressions as the in-process engine's lane-mean,
        // for bitwise loss equality.
        let m_n = self.job.batches[0].len();
        let lane_losses: Vec<f32> = (0..topo.lanes)
            .map(|k| dones[topo.rank_of(topo.stages - 1, k)].0 / m_n as f32)
            .collect();
        self.losses
            .push(lane_losses.iter().sum::<f32>() / lane_losses.len() as f32);
        self.last_busy_ns = dones.iter().map(|d| d.1).collect();
        self.last_events.clear();
        for s in 0..topo.stages {
            let events = std::mem::take(&mut dones[topo.rank_of(s, 0)].2);
            self.last_events.extend(events);
        }
        self.t += 1;
        self.losses_in_a_row = 0;
        pac_telemetry::counter_inc("multiworld.steps");

        // The step stays at the front until its snapshot is kept, so the
        // timeline and the crash point read its own step.
        match kind {
            Some(SnapKind::Periodic) => {
                let what = format!("snapshot at step cursor {}", self.t);
                self.keep_snapshot(&what, snaps);
                self.persist()?;
            }
            Some(SnapKind::CatchUp) => self.catch_up = Some(snaps),
            Some(SnapKind::Final) => self.final_params = snaps.into_iter().flatten().collect(),
            None => {}
        }
        self.pending.pop_front();
        if let Some(next) = self.pending.front_mut() {
            next.promote(host.transport.now_ns());
        }
        Ok(true)
    }

    /// Out of batches, or ended by its own terminal error: hand back the
    /// final parameters the last step carried (none after an error) and
    /// leave, listener and sibling worlds untouched. (A rank lost before
    /// its final `ParamSnap` failed that step like any other: the world
    /// recovered and replayed before it got here.)
    fn retire(&mut self, host: &mut Host<'_, S>) -> WorldReport {
        host.graveyard.0.extend(self.round.release());
        pac_telemetry::counter_inc("multiworld.retirements");
        let timeline = std::mem::take(&mut self.timeline);
        WorldReport {
            tenant: self.job.tenant,
            world: self.id,
            losses: std::mem::take(&mut self.losses),
            final_params: std::mem::take(&mut self.final_params),
            log: timeline
                .iter()
                .map(|e| format!("{}: {}", self.id, e.detail))
                .collect(),
            recovery: RecoveryReport::from_timeline(
                timeline,
                self.replans,
                self.checkpoints,
                self.checkpoint_bytes,
                self.alive_lanes.len() * self.stages(),
            ),
            recoveries: self.recoveries,
            last_events: std::mem::take(&mut self.last_events),
            last_busy_ns: std::mem::take(&mut self.last_busy_ns),
            stages: self.stages(),
            final_lanes: self.alive_lanes.len(),
            error: self.error.take(),
        }
    }
}

/// Sorts an error out of one world's dispatch or settle: the world's own
/// terminal training verdict ([`DistError::Engine`]: no surviving lane, or
/// the respawn bound) ends only that world and comes back in its report.
/// Anything else — a spawn or rendezvous failure on the shared listener,
/// a dead checkpoint store — ends the run.
fn world_only(e: DistError) -> Result<DistError, DistError> {
    match e {
        DistError::Engine(_) => Ok(e),
        other => Err(other),
    }
}

/// Runs every job in `jobs` to completion under one poll-driven
/// coordinator thread, multiplexing all concurrently-admitted worlds over
/// a single rendezvous listener. Jobs are admitted when their
/// `admit_after_steps` threshold is met and retired as they finish, with
/// the listener and all other worlds undisturbed throughout. Each
/// `batches[t]` is one mini-batch of micro-batches, split row-wise across
/// lanes exactly like the in-process `HybridEngine`.
///
/// A world whose training ends in its own terminal error (no surviving
/// lane, or a rank lost more than `MAX_RESPAWNS_IN_A_ROW` (8) times in a
/// row with no step settled) retires with that error in its
/// [`WorldReport::error`] while the other worlds run on; other per-rank
/// failures inside one world are recovered world-locally.
///
/// # Errors
/// [`DistError::InvalidJob`] before anything is spawned when a job cannot
/// be run as stated. Setup failures (spawn, rendezvous) and a dead or
/// unreadable checkpoint store abort the whole run. Every exit reaps
/// every worker launched.
pub fn run_multiworld<S>(spawner: &S, jobs: Vec<TenantJob>) -> Result<MultiWorldReport, DistError>
where
    S: Spawn,
    S::T: PollTransport,
    ConnOf<S>: PollConn,
{
    for job in &jobs {
        job.validate()?;
    }
    let transport = spawner.transport();
    let mut host = Host {
        spawner,
        rdv: Rendezvous::bind_on(&transport)?,
        transport,
        graveyard: Graveyard::default(),
    };
    let mut pending_jobs: VecDeque<(usize, TenantJob)> = jobs.into_iter().enumerate().collect();
    let mut reports: Vec<Option<WorldReport>> = (0..pending_jobs.len()).map(|_| None).collect();
    // Declared after `host`, so dropped before it: live rounds shut down
    // while the listener and the graveyard are still there.
    let mut active: Vec<World<S>> = Vec::new();
    let mut next_world: u64 = 0;
    let mut steps_total: u64 = 0;
    let mut max_concurrent = 0usize;

    loop {
        // ---- Admission: bring in every job whose threshold is met; if
        // nothing is active and nothing qualifies, admit the earliest so
        // the run always progresses.
        while pending_jobs
            .front()
            .is_some_and(|(_, job)| steps_total >= job.admit_after_steps || active.is_empty())
        {
            let (job_idx, job) = pending_jobs.pop_front().expect("checked non-empty");
            active.push(World::admit(&mut host, WorldId(next_world), job_idx, job)?);
            next_world += 1;
        }
        max_concurrent = max_concurrent.max(active.len());
        if active.is_empty() {
            break;
        }

        // ---- Dispatch & retire: every idle world either starts its next
        // step or, out of batches or ended, hands back its report.
        let mut i = 0;
        while i < active.len() {
            let w = &mut active[i];
            while w.may_dispatch() {
                match w.dispatch(&mut host) {
                    Ok(()) if !w.pending.is_empty() => {}
                    // Lost a rank on the way: idle until the next pass.
                    Ok(()) => break,
                    Err(e) => w.error = Some(world_only(e)?),
                }
            }
            if w.over() {
                reports[w.job_idx] = Some(w.retire(&mut host));
                active.remove(i);
                continue;
            }
            i += 1;
        }

        // ---- Readiness: block until some control connection can make
        // progress. Under simnet this wait joins the quiescence census, so
        // the virtual clock advances to the next delivery instead of the
        // coordinator spinning it into a livelock. Exactly the ranks that
        // still owe their step a frame — verdict or snapshot — join the
        // poll set. Leaving one out would miss its
        // frames; keeping a finished one in would spin: a dead rank's
        // connection stays "ready" (FIN) forever after its verdict is
        // recorded, and polling it again would wake instantly in a loop
        // that never blocks — freezing the virtual clock while the other
        // ranks' frames are still in flight. The wait also ends at the
        // earliest deadline a step still has, so a deadline is acted on at
        // its own instant: under simnet the instant a rank's frame lands
        // can also hold that rank's peers exiting, and tearing their round
        // down in it would race them.
        let now = host.transport.now_ns();
        let wait = active
            .iter()
            .flat_map(|w| w.pending.iter().map(|p| p.deadline_ns))
            .min()
            .map_or(POLL_WAIT, |d| {
                POLL_WAIT.min(Duration::from_nanos(d.saturating_sub(now)))
            });
        let mut conns: Vec<&mut ConnOf<S>> = Vec::new();
        for w in active.iter_mut() {
            for (rank, wc) in w.round.conns.iter_mut().enumerate() {
                if w.pending.iter().any(|p| !p.ranks[rank].complete()) {
                    conns.push(&mut wc.ctrl);
                }
            }
        }
        if !conns.is_empty() {
            host.transport.wait_ready(&mut conns, wait)?;
            pac_telemetry::counter_inc("multiworld.wakeups");
        }

        // ---- Drain & settle, in fixed (world, rank) order; each world
        // commits or recovers strictly within its own scope.
        for w in active.iter_mut() {
            let now = host.transport.now_ns();
            drain(w.pending.make_contiguous(), &mut w.round.conns, now);
            loop {
                match w.settle(&mut host) {
                    Ok(true) => steps_total += 1,
                    Ok(false) => break,
                    Err(e) => {
                        w.error = Some(world_only(e)?);
                        break;
                    }
                }
            }
        }
    }

    Ok(MultiWorldReport {
        worlds: reports
            .into_iter()
            .map(|r| r.expect("every job produced a report"))
            .collect(),
        max_concurrent,
        steps_total,
    })
}

/// A solo job: [`run_multiworld`] with one entry, returning its world.
///
/// # Errors
/// Every error of [`run_multiworld`], and the world's own terminal error
/// ([`WorldReport::error`]).
pub fn run_world<S>(spawner: &S, job: TenantJob) -> Result<WorldReport, DistError>
where
    S: Spawn,
    S::T: PollTransport,
    ConnOf<S>: PollConn,
{
    let mut world = run_multiworld(spawner, vec![job])?.worlds.remove(0);
    match world.error.take() {
        Some(e) => Err(e),
        None => Ok(world),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simnet::{SimConfig, SimConn, SimNet, SimSpawner, WORKERS_PER_GEN};
    use crate::worker::{reply, run_worker_on, Buggify, RunMode};
    use pac_parallel::Fault;
    use pac_tensor::rng::seeded;
    use rand::Rng;
    use std::sync::atomic::{AtomicIsize, AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    /// Deterministic token batches for tenant `tenant`: `steps` mini-batches
    /// of `m_n` micro-batches of 4 rows each.
    fn batches_for(tenant: u64, steps: usize, m_n: usize) -> Vec<Vec<MicroBatch>> {
        let mut rng = seeded(9000 + tenant);
        (0..steps)
            .map(|_| {
                (0..m_n)
                    .map(|_| {
                        let rows: Vec<Vec<usize>> = (0..4)
                            .map(|_| (0..3).map(|_| rng.gen_range(0..12)).collect())
                            .collect();
                        let labels: Vec<usize> = (0..4).map(|_| rng.gen_range(0..2)).collect();
                        (rows, labels)
                    })
                    .collect()
            })
            .collect()
    }

    fn cfg_for(seed: u64, stages: usize, lanes: usize) -> DistConfig {
        let mut cfg = DistConfig::loopback(stages, lanes);
        cfg.seed = seed;
        cfg
    }

    /// `job` with one injected fail-stop of original device `device`.
    fn dying(mut job: TenantJob, step: u64, device: usize) -> TenantJob {
        job.faults = FaultPlan::none().with(Fault::FailStop { step, device });
        job
    }

    /// The solo reference: the same job alone on its own private simulated
    /// network.
    fn solo(sim_seed: u64, cfg: &DistConfig, batches: &[Vec<MicroBatch>]) -> WorldReport {
        let net = SimNet::new(SimConfig::clean(sim_seed));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let report = run_world(&spawner, TenantJob::new(0, cfg.clone(), batches.to_vec()))
            .expect("solo run");
        assert!(net.panics().is_empty(), "solo panics: {:?}", net.panics());
        report
    }

    fn assert_bitwise_eq(tenant: u64, solo: &WorldReport, multi: &WorldReport) {
        let multi_bits: Vec<u32> = multi.losses.iter().map(|l| l.to_bits()).collect();
        let solo_bits: Vec<u32> = solo.losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(
            multi_bits, solo_bits,
            "tenant {tenant}: multiplexed losses diverge from solo"
        );
        assert_eq!(
            solo.final_params.len(),
            multi.final_params.len(),
            "tenant {tenant}"
        );
        for ((sn, sp), (mn, mp)) in solo.final_params.iter().zip(multi.final_params.iter()) {
            assert_eq!(sn, mn, "tenant {tenant}: param order");
            let sb: Vec<u32> = sp.data().iter().map(|v| v.to_bits()).collect();
            let mb: Vec<u32> = mp.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, mb, "tenant {tenant}: param {sn} bits diverge");
        }
    }

    /// Two concurrent fault-free worlds multiplexed by one coordinator:
    /// each tenant's losses and final parameters are bitwise identical to
    /// its solo run, and both worlds were genuinely concurrent.
    #[test]
    fn two_worlds_bitwise_match_their_solo_runs() {
        let b1 = batches_for(1, 3, 2);
        let b2 = batches_for(2, 3, 2);
        let c1 = cfg_for(11, 2, 1);
        let c2 = cfg_for(12, 2, 2);
        let ref1 = solo(61, &c1, &b1);
        let ref2 = solo(62, &c2, &b2);

        let net = SimNet::new(SimConfig::clean(60));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let jobs = vec![TenantJob::new(1, c1, b1), TenantJob::new(2, c2, b2)];
        let report = run_multiworld(&spawner, jobs).expect("multiworld run");
        assert!(net.panics().is_empty(), "panics: {:?}", net.panics());
        assert_eq!(report.worlds.len(), 2);
        assert_eq!(report.max_concurrent, 2, "worlds must overlap in time");
        assert_bitwise_eq(1, &ref1, &report.worlds[0]);
        assert_bitwise_eq(2, &ref2, &report.worlds[1]);
        assert_eq!(report.worlds[0].recoveries, 0);
        assert_eq!(report.worlds[1].recoveries, 0);
    }

    /// Two worlds, one injected fail-stop each: every recovery-log entry is
    /// tagged with its own world id and names only ranks of that world —
    /// the cross-attribution regression for WorldId-scoped state — and both
    /// tenants still finish bitwise identical to their solo runs.
    #[test]
    fn per_world_recovery_logs_name_only_their_own_ranks() {
        let b1 = batches_for(3, 4, 2);
        let b2 = batches_for(4, 4, 2);
        let c1 = cfg_for(13, 2, 1);
        let c2 = cfg_for(14, 2, 1);
        let ref1 = solo(71, &c1, &b1);
        let ref2 = solo(72, &c2, &b2);

        let net = SimNet::new(SimConfig::clean(70));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        // World 0: rank 1 dies on its second dispatch; world 1: rank 0 on
        // its third.
        let j1 = dying(TenantJob::new(1, c1, b1), 1, 1);
        let j2 = dying(TenantJob::new(2, c2, b2), 2, 0);
        let report = run_multiworld(&spawner, vec![j1, j2]).expect("multiworld run");
        assert!(net.panics().is_empty(), "panics: {:?}", net.panics());

        let w0 = &report.worlds[0];
        let w1 = &report.worlds[1];
        assert_eq!(w0.recoveries, 1, "world 0 log: {:?}", w0.log);
        assert_eq!(w1.recoveries, 1, "world 1 log: {:?}", w1.log);
        // Every line carries its own world tag; no line leaks into the
        // sibling's log.
        assert!(w0.log.iter().all(|l| l.starts_with("w0: ")), "{:?}", w0.log);
        assert!(w1.log.iter().all(|l| l.starts_with("w1: ")), "{:?}", w1.log);
        assert!(
            w0.log.iter().any(|l| l.contains("rank 1 down")),
            "world 0 must attribute its own dead rank: {:?}",
            w0.log
        );
        assert!(
            w1.log.iter().any(|l| l.contains("rank 0 down")),
            "world 1 must attribute its own dead rank: {:?}",
            w1.log
        );
        // World 0's only failure is rank 1; world 1's only failure is rank
        // 0. A cross-attribution bug would put the other world's rank id in
        // the log.
        assert!(
            !w0.log.iter().any(|l| l.contains("rank 0 down")),
            "world 0 log blames a rank that never died there: {:?}",
            w0.log
        );
        assert!(
            !w1.log.iter().any(|l| l.contains("rank 1 down")),
            "world 1 log blames a rank that never died there: {:?}",
            w1.log
        );

        // Same-topology recovery + replay keeps both trajectories bitwise
        // equal to the fault-free solo runs.
        assert_bitwise_eq(1, &ref1, w0);
        assert_bitwise_eq(2, &ref2, w1);
    }

    /// One tenant's terminal error ends only its own world: tenant A, a
    /// shrink-policy world of two one-stage lanes, loses both lanes and
    /// ends in `NoSurvivors` while tenant B trains fault-free beside it.
    /// The run succeeds, A's report carries the error and the step it
    /// settled, and B's losses and final parameters are bitwise its solo
    /// run's.
    #[test]
    fn a_terminal_error_retires_only_its_own_world() {
        let b_batches = batches_for(10, 4, 2);
        let b_cfg = cfg_for(20, 2, 2);
        let reference = solo(63, &b_cfg, &b_batches);

        let net = SimNet::new(SimConfig::clean(64));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let mut a_cfg = DistConfig::loopback(1, 2);
        a_cfg.checkpoint_every = 1;
        let mut a = TenantJob::new(1, a_cfg, batches_for(9, 4, 2));
        a.on_rank_loss = RankLoss::Shrink;
        a.faults = FaultPlan::parse("fail-stop@step=1,device=0;fail-stop@step=2,device=1")
            .expect("plan parses");
        let b = TenantJob::new(2, b_cfg, b_batches);
        let report = run_multiworld(&spawner, vec![a, b]).expect("co-tenants run");
        assert!(net.panics().is_empty(), "panics: {:?}", net.panics());

        let (a, b) = (&report.worlds[0], &report.worlds[1]);
        assert!(
            matches!(a.error, Some(DistError::Engine(EngineError::NoSurvivors))),
            "{:?}",
            a.error
        );
        assert_eq!(a.losses.len(), 1, "A settled step 0 before it ended");
        assert!(b.error.is_none(), "{:?}", b.error);
        assert_eq!(b.recoveries, 0);
        assert_bitwise_eq(2, &reference, b);
    }

    /// Staggered admission: the second tenant only enters after the first
    /// has completed two steps; the listener serves both without restart
    /// and the late world still matches its solo run bitwise.
    #[test]
    fn late_admission_joins_live_coordinator() {
        let b1 = batches_for(5, 4, 2);
        let b2 = batches_for(6, 2, 2);
        let c1 = cfg_for(15, 2, 1);
        let c2 = cfg_for(16, 2, 1);
        let ref2 = solo(81, &c2, &b2);

        let net = SimNet::new(SimConfig::clean(80));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let j1 = TenantJob::new(1, c1, b1);
        let mut j2 = TenantJob::new(2, c2, b2);
        j2.admit_after_steps = 2;
        let report = run_multiworld(&spawner, vec![j1, j2]).expect("multiworld run");
        assert!(net.panics().is_empty(), "panics: {:?}", net.panics());
        assert_eq!(
            report.max_concurrent, 2,
            "late world must overlap the first"
        );
        assert_bitwise_eq(2, &ref2, &report.worlds[1]);
        assert_eq!(report.worlds[0].losses.len(), 4);
    }

    /// The whole multi-world interleaving is a pure function of the seed:
    /// same seed → byte-identical logs and bitwise-identical trajectories.
    #[test]
    fn multiworld_run_is_deterministic() {
        let run = || {
            let net = SimNet::new(SimConfig::clean(90));
            let _coord = net.register(0);
            let spawner = SimSpawner::new(net.clone());
            let j1 = dying(
                TenantJob::new(1, cfg_for(17, 2, 1), batches_for(7, 3, 2)),
                1,
                0,
            );
            let mut j2 = TenantJob::new(2, cfg_for(18, 2, 1), batches_for(8, 3, 2));
            j2.admit_after_steps = 1;
            let report = run_multiworld(&spawner, vec![j1, j2]).expect("multiworld run");
            assert!(net.panics().is_empty(), "panics: {:?}", net.panics());
            report
        };
        let a = run();
        let b = run();
        assert_eq!(a.steps_total, b.steps_total);
        assert_eq!(a.max_concurrent, b.max_concurrent);
        for (wa, wb) in a.worlds.iter().zip(b.worlds.iter()) {
            assert_eq!(
                wa.log, wb.log,
                "coordinator timelines must be byte-identical"
            );
            let la: Vec<u32> = wa.losses.iter().map(|l| l.to_bits()).collect();
            let lb: Vec<u32> = wb.losses.iter().map(|l| l.to_bits()).collect();
            assert_eq!(la, lb);
        }
    }

    /// How one scripted rank strays from the protocol; the default answers
    /// every frame the way a worker does.
    #[derive(Debug, Clone, Copy, Default)]
    struct Quirk {
        /// Write nothing after `Ready`: compute every step, but send no
        /// `Done`, no `ParamSnap` and no `Stats`.
        mute: bool,
        /// Send a `HeartbeatAck`, a frame no step asks for, ahead of every
        /// `Done`.
        stray_ack: bool,
        /// Hang up instead of answering the snapshot request of the `Step`
        /// with this index among the ones that ask the rank for one —
        /// after the step's `Done`, before its `ParamSnap`.
        hang_up_on_req: Option<usize>,
        /// Hang up instead of answering any `Step`.
        hang_up_on_step: bool,
    }

    /// Launches a `ScriptedSpawner` makes before it fails: a world that
    /// relaunches without end fails its test instead of hanging it.
    const MAX_LAUNCHES: u32 = 16;

    /// Scripted ranks on simnet: each rendezvouses and answers frames in
    /// order like a worker that does not train — `Done` with a fixed loss,
    /// `ParamSnap` one tensor per stage — except that the rank at
    /// `(launch, slot)` of `target` (`slot` of every launch when `launch`
    /// is `None`) behaves as its `Quirk` says.
    struct ScriptedSpawner {
        net: SimNet,
        launches: AtomicU32,
        target: (Option<u32>, u32, Quirk),
        /// `(slot, step, idle ns)` per `Step` a rank read after its first:
        /// virtual time from sending its previous `Done` to reading it.
        idle: Arc<Mutex<Vec<(u32, u64, u64)>>>,
        /// `(launch, virtual ns)` per rank that read its `Shutdown`.
        shutdowns: Arc<Mutex<Vec<(u32, u64)>>>,
        /// Virtual time every rank computes a step for.
        step_time: Duration,
    }

    impl ScriptedSpawner {
        fn new(net: &SimNet, launch: u32, slot: u32, quirk: Quirk) -> Self {
            ScriptedSpawner {
                net: net.clone(),
                launches: AtomicU32::new(0),
                target: (Some(launch), slot, quirk),
                idle: Arc::default(),
                shutdowns: Arc::default(),
                step_time: Duration::ZERO,
            }
        }

        fn every_launch(net: &SimNet, slot: u32, quirk: Quirk) -> Self {
            ScriptedSpawner {
                target: (None, slot, quirk),
                ..ScriptedSpawner::new(net, 0, slot, quirk)
            }
        }
    }

    impl Spawn for ScriptedSpawner {
        type T = SimNet;

        fn transport(&self) -> SimNet {
            self.net.clone()
        }

        fn launch(&self, coord_port: u16, world: usize) -> std::io::Result<SpawnedWorld> {
            let generation = self.launches.fetch_add(1, Ordering::SeqCst);
            if generation >= MAX_LAUNCHES {
                return Err(std::io::Error::other(
                    "scripted spawner: launch cap reached",
                ));
            }
            let actors: Vec<u32> = (0..world as u32)
                .map(|slot| generation * WORKERS_PER_GEN + slot + 1)
                .collect();
            for &actor in &actors {
                self.net.preregister(actor);
            }
            let mut out = SpawnedWorld::default();
            for (slot, &actor) in actors.iter().enumerate() {
                let (net, idle) = (self.net.clone(), self.idle.clone());
                let shutdowns = self.shutdowns.clone();
                let (g, s, quirk) = self.target;
                let step_time = self.step_time;
                let quirk = if g.is_none_or(|g| g == generation) && s == slot as u32 {
                    quirk
                } else {
                    Quirk::default()
                };
                out.threads.push(std::thread::spawn(move || {
                    let _guard = net.adopt(actor);
                    let at = (generation, slot as u32);
                    let _ =
                        scripted_rank(&net, coord_port, at, quirk, step_time, &idle, &shutdowns);
                }));
            }
            out.sim = Some(self.net.clone());
            Ok(out)
        }
    }

    /// A scripted rank, `(launch, slot)`, computes each step for
    /// `step_time` plus the step's `stall_ms`, in virtual time.
    fn scripted_rank(
        net: &SimNet,
        port: u16,
        (launch, slot): (u32, u32),
        quirk: Quirk,
        step_time: Duration,
        idle: &Mutex<Vec<(u32, u64, u64)>>,
        shutdowns: &Mutex<Vec<(u32, u64)>>,
    ) -> Result<(), NetError> {
        let mut ctrl = net.connect(port, Duration::from_secs(10))?;
        ctrl.send(&Msg::Hello {
            slot,
            listen_port: 0,
        })?;
        let Msg::Assign(asg) = ctrl.recv()? else {
            return Ok(());
        };
        ctrl.recv()?; // the peer table: a scripted rank wires no mesh
        ctrl.send(&Msg::Ready)?;
        let (mut reqs, mut last_done) = (0, None);
        loop {
            match ctrl.recv()? {
                Msg::Step { .. } if quirk.hang_up_on_step => return Ok(()),
                Msg::Step {
                    step,
                    stall_ms,
                    snap,
                    ..
                } => {
                    if let Some(done_ns) = last_done {
                        let waited = net.now_ns() - done_ns;
                        idle.lock().unwrap().push((slot, step, waited));
                    }
                    let busy = step_time + Duration::from_millis(u64::from(stall_ms));
                    if !busy.is_zero() {
                        net.wait_ready(&mut [], busy)?;
                    }
                    if quirk.stray_ack {
                        ctrl.send(&Msg::HeartbeatAck { nonce: 0 })?;
                    }
                    let done = Msg::Done {
                        rank: asg.rank,
                        loss_sum: 1.0,
                        busy_ns: busy.as_nanos() as u64,
                        events: Vec::new(),
                    };
                    reply(&mut ctrl, quirk.mute, &done)?;
                    last_done = Some(net.now_ns());
                    if snap == SnapReq::None {
                        continue;
                    }
                    if quirk.hang_up_on_req == Some(reqs) {
                        return Ok(());
                    }
                    reqs += 1;
                    let entries = vec![(format!("s{}.w", asg.stage), Tensor::full([2], 0.5))];
                    reply(&mut ctrl, quirk.mute, &Msg::ParamSnap { entries })?;
                }
                Msg::Restore { .. } => {}
                _ => {
                    shutdowns.lock().unwrap().push((launch, net.now_ns()));
                    return reply(&mut ctrl, quirk.mute, &Msg::Stats { counters: vec![] });
                }
            }
        }
    }

    /// Dispatches one step to a fresh scripted round whose slot 1 behaves
    /// as `quirk`, then drains it the way the poll loop does until it has
    /// settled.
    fn one_scripted_step(cfg: &DistConfig, quirk: Quirk) -> Pending {
        let net = SimNet::new(SimConfig::clean(54));
        let _coord = net.register(0);
        let spawner = ScriptedSpawner::new(&net, 0, 1, quirk);
        let host = Host {
            spawner: &spawner,
            transport: net.clone(),
            rdv: Rendezvous::bind_on(&net).expect("bind"),
            graveyard: Graveyard::default(),
        };
        let job = TenantJob::new(0, cfg.clone(), batches_for(0, 1, 2));
        let mut round = start_round(&host, &job, cfg.lanes, None).expect("round");
        let mut p = Pending::new(round.topo, cfg, net.now_ns(), None, None);
        let msg = Msg::Step {
            step: 0,
            die: false,
            stall_ms: 0,
            micro_batches: Vec::new(),
            snap: SnapReq::None,
        };
        for wc in round.conns.iter_mut() {
            wc.ctrl.send(&msg).expect("dispatch");
        }
        let window = std::slice::from_mut(&mut p);
        while !window[0].settled() {
            let mut conns: Vec<&mut SimConn> = round
                .conns
                .iter_mut()
                .enumerate()
                .filter(|(rank, _)| !window[0].ranks[*rank].complete())
                .map(|(_, wc)| &mut wc.ctrl)
                .collect();
            net.wait_ready(&mut conns, POLL_WAIT).expect("wait");
            drain(window, &mut round.conns, net.now_ns());
        }
        p
    }

    /// A rank that sends a frame no step asked for — here a `HeartbeatAck`
    /// ahead of its `Done` — fails the step as a protocol violation while
    /// its peers settle it with their verdicts, and the respawned world
    /// replays the step.
    #[test]
    fn a_frame_no_step_asked_for_fails_the_rank() {
        let cfg = cfg_for(26, 2, 2);
        let stray = Quirk {
            stray_ack: true,
            ..Quirk::default()
        };
        let violation = "protocol violation: HeartbeatAck { nonce: 0 }";
        let p = one_scripted_step(&cfg, stray);
        for (rank, slot) in p.ranks.iter().enumerate() {
            match (&slot.verdict, rank) {
                (Some(Verdict::Failed(detail)), 1) => assert_eq!(detail, violation),
                (Some(Verdict::Done { .. }), 0 | 2 | 3) => {}
                _ => panic!("rank {rank} settled wrong"),
            }
        }

        let net = SimNet::new(SimConfig::clean(55));
        let _coord = net.register(0);
        let spawner = ScriptedSpawner::new(&net, 0, 1, stray);
        let report = run_world(&spawner, TenantJob::new(1, cfg, batches_for(14, 3, 2)))
            .expect("respawned world completes");
        assert_eq!(report.recoveries, 1, "{:?}", report.log);
        assert_eq!(report.losses.len(), 3);
        let down = format!("rank 1 down (stage 0, lane 1): {violation}");
        assert!(
            report.log.iter().any(|l| l.contains(&down)),
            "{:?}",
            report.log
        );
    }

    /// A rank that computes its step but never sends its `Done` is `Stale`
    /// once `net_timeout` has passed since the step became the oldest in
    /// flight: the step fails, its result is discarded, and the respawned
    /// world replays it.
    #[test]
    fn a_silent_rank_is_stale_at_its_liveness_deadline() {
        let mut cfg = cfg_for(27, 2, 2);
        cfg.net_timeout = Duration::from_secs(1);
        let mute = Quirk {
            mute: true,
            ..Quirk::default()
        };
        let p = one_scripted_step(&cfg, mute);
        for (rank, slot) in p.ranks.iter().enumerate() {
            match (&slot.verdict, rank) {
                (Some(Verdict::Failed(detail)), 1) => {
                    assert_eq!(detail, "no step verdict: peer missed its step deadline")
                }
                (Some(Verdict::Done { .. }), 0 | 2 | 3) => {}
                _ => panic!("rank {rank} settled wrong"),
            }
        }

        let net = SimNet::new(SimConfig::clean(56));
        let _coord = net.register(0);
        let spawner = ScriptedSpawner::new(&net, 0, 1, mute);
        let report = run_world(&spawner, TenantJob::new(1, cfg, batches_for(15, 3, 2)))
            .expect("respawned world completes");
        assert!(net.now_ns() > 1_000_000_000, "evicted before its deadline");
        assert_eq!(report.recoveries, 1, "{:?}", report.log);
        assert_eq!(report.losses.len(), 3);
        assert!(
            report.log.iter().any(|l| l.contains(
                "rank 1 down (stage 0, lane 1): no step verdict: peer missed its step deadline"
            )),
            "{:?}",
            report.log
        );
    }

    /// World A's canonical rank (launch 0, slot 0) writes nothing after
    /// `Ready`, and A's `net_timeout` is 1 s; world B beside it is
    /// fault-free. No snapshot is read from an idle world, so the mute
    /// rank is A's loss alone: it is `Stale` at A's first step deadline,
    /// A respawns and finishes, and B retires long before that deadline.
    #[test]
    fn a_canonical_rank_mute_from_ready_is_lost_to_its_own_world_only() {
        let mut a_cfg = cfg_for(33, 2, 2);
        a_cfg.net_timeout = Duration::from_secs(1);
        let net = SimNet::new(SimConfig::clean(68));
        let _coord = net.register(0);
        let mute = Quirk {
            mute: true,
            ..Quirk::default()
        };
        let spawner = ScriptedSpawner::new(&net, 0, 0, mute);
        let jobs = vec![
            TenantJob::new(1, a_cfg, batches_for(20, 3, 2)),
            TenantJob::new(2, cfg_for(34, 2, 1), batches_for(21, 3, 2)),
        ];
        let report = run_multiworld(&spawner, jobs).expect("a mute rank is a world-local loss");
        let (a, b) = (&report.worlds[0], &report.worlds[1]);
        assert_eq!((a.recoveries, a.losses.len()), (1, 3), "{:?}", a.log);
        let down = "rank 0 down (stage 0, lane 0): no step verdict: peer missed its step deadline";
        let lost = a.recovery.timeline.iter().find(|e| e.detail.contains(down));
        assert_eq!(lost.map(|e| e.step), Some(0), "{:?}", a.log);
        assert!(
            net.now_ns() > 1_000_000_000,
            "A's rank evicted before its deadline"
        );
        assert_eq!((b.recoveries, b.losses.len()), (0, 3), "{:?}", b.log);
        // Launch 1 is B's only round: its ranks read `Shutdown` as B retires.
        let shutdowns = spawner.shutdowns.lock().unwrap();
        let b_retired: Vec<u64> = shutdowns.iter().filter(|s| s.0 == 1).map(|s| s.1).collect();
        assert_eq!(b_retired.len(), 2, "{shutdowns:?}");
        assert!(
            b_retired.iter().all(|&ns| ns < 1_000_000_000),
            "{b_retired:?}"
        );
    }

    /// Rule 2: a fail-stop lands on a step whose successor is already in
    /// flight, twice. The window is discarded and the successor gives its
    /// fault-clock tick back, so the second fail-stop fires on the same
    /// data step and the timeline, steps included, is the one a world with
    /// one step in flight records; the losses and final parameters are the
    /// fault-free run's bit for bit.
    #[test]
    fn a_rank_lost_with_two_steps_in_flight_recovers_as_with_one() {
        let cfg = cfg_for(29, 2, 2);
        let batches = batches_for(17, 6, 2);
        let reference = solo(58, &cfg, &batches);
        let net = SimNet::new(SimConfig::clean(59));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let mut job = TenantJob::new(1, cfg, batches);
        job.faults = FaultPlan::parse("fail-stop@step=2,device=1;fail-stop@step=5,device=2")
            .expect("plan parses");
        let report = run_world(&spawner, job).expect("respawned world completes");
        assert!(net.panics().is_empty(), "panics: {:?}", net.panics());
        let timeline: Vec<(u64, String)> = report
            .recovery
            .timeline
            .iter()
            .map(|e| (e.step, format!("{} {}", e.kind, e.detail)))
            .collect();
        // What the world recorded with one step in flight.
        let expected = [
            (0, "checkpoint initial snapshot (59313 B)"),
            (1, "checkpoint snapshot at step cursor 2 (59313 B)"),
            (2, "inject device 1 fail-stop (rank 1, stage 0, lane 1)"),
            (2, "retry rank 1 down (stage 0, lane 1): injected fail-stop; respawning the same topology"),
            (2, "resume restored snapshot, replaying from step cursor 2 over 2 lane(s)"),
            (4, "checkpoint snapshot at step cursor 4 (59313 B)"),
            (5, "inject device 2 fail-stop (rank 2, stage 1, lane 0)"),
            (5, "retry rank 2 down (stage 1, lane 0): injected fail-stop; respawning the same topology"),
            (5, "resume restored snapshot, replaying from step cursor 4 over 2 lane(s)"),
        ]
        .map(|(step, line)| (step, line.to_string()));
        assert_eq!(timeline, expected);
        assert_eq!(report.recoveries, 2);
        assert_bitwise_eq(1, &reference, &report);
    }

    /// Rule 1: every step takes 300 ms and lane 1 straggles 600 ms on step
    /// 1, against a 1 s `net_timeout`. Step 2 goes out behind step 1 at
    /// about 0.3 s, but the stalled ranks read it only once they finish
    /// step 1, at 1.2 s, and finish it at 1.5 s: past a deadline counted
    /// from its dispatch, well inside one counted from when it became the
    /// oldest step in flight. No rank goes stale and nothing is replayed.
    #[test]
    fn a_stall_past_the_liveness_deadline_does_not_stale_the_next_step() {
        let mut cfg = cfg_for(31, 2, 2);
        cfg.net_timeout = Duration::from_secs(1);
        let net = SimNet::new(SimConfig::clean(66));
        let _coord = net.register(0);
        let spawner = ScriptedSpawner {
            step_time: Duration::from_millis(300),
            ..ScriptedSpawner::new(&net, 0, 1, Quirk::default())
        };
        let mut job = TenantJob::new(1, cfg, batches_for(18, 4, 2));
        job.faults = FaultPlan::parse("straggler@step=1,lane=1,delay-ms=600").expect("plan parses");
        let report = run_world(&spawner, job).expect("world completes");
        assert!(
            net.now_ns() > 1_500_000_000,
            "the stall ran in virtual time"
        );
        assert_eq!(report.recoveries, 0, "{:?}", report.log);
        assert_eq!(report.losses.len(), 4);
        // Step 2 was in the stalled ranks' sockets when they finished step 1.
        let idle = spawner.idle.lock().unwrap();
        for slot in [1, 3] {
            assert!(idle.contains(&(slot, 2, 0)), "slot {slot}: {idle:?}");
        }
    }

    /// The window and rule 3 as the ranks see them, with every step taking
    /// 1 ms: a step the plan does not name is already in a rank's socket
    /// when it sends the `Done` ahead of it (0 ns idle), while step 3,
    /// which the plan names, goes out only once step 2 has settled — at
    /// least a round trip after the ranks' `Done(2)`.
    #[test]
    fn a_planned_step_waits_for_its_predecessor_to_settle() {
        let net = SimNet::new(SimConfig::clean(67));
        let _coord = net.register(0);
        let spawner = ScriptedSpawner {
            step_time: Duration::from_millis(1),
            ..ScriptedSpawner::new(&net, 0, 0, Quirk::default())
        };
        let mut job = TenantJob::new(1, cfg_for(32, 2, 2), batches_for(19, 6, 2));
        job.faults = FaultPlan::parse(
            "straggler@step=3,lane=0,delay-ms=1;straggler@step=3,lane=1,delay-ms=1",
        )
        .expect("plan parses");
        let report = run_world(&spawner, job).expect("world completes");
        assert_eq!((report.recoveries, report.losses.len()), (0, 6));
        // Every rank's `Done.busy_ns` of the last step, in rank order.
        assert_eq!(report.last_busy_ns, [1_000_000; 4]);
        let sim = SimConfig::clean(0);
        let round_trip = 2 * (sim.base_latency_ns - sim.jitter_ns);
        let idle = spawner.idle.lock().unwrap();
        for slot in 0..4 {
            let waited: Vec<(u64, u64)> = idle
                .iter()
                .filter(|e| e.0 == slot)
                .map(|e| (e.1, e.2))
                .collect();
            let steps: Vec<u64> = waited.iter().map(|w| w.0).collect();
            assert_eq!(steps, [1, 2, 3, 4, 5], "slot {slot}");
            for (step, ns) in waited {
                match step {
                    3 => assert!(ns >= round_trip, "slot {slot} read step 3 after {ns} ns"),
                    _ => assert_eq!(ns, 0, "slot {slot} waited for step {step}"),
                }
            }
        }
    }

    /// A rank that hangs up on every `Step` lets no step settle: the world
    /// relaunches after each of its first `MAX_RESPAWNS_IN_A_ROW` losses,
    /// and the next one ends the run with that loss's `RankDown` instead of
    /// a ninth relaunch.
    #[test]
    fn a_rank_lost_every_round_ends_the_world_after_eight_respawns() {
        let net = SimNet::new(SimConfig::clean(57));
        let _coord = net.register(0);
        let quirk = Quirk {
            hang_up_on_step: true,
            ..Quirk::default()
        };
        let spawner = ScriptedSpawner::every_launch(&net, 1, quirk);
        let job = TenantJob::new(1, cfg_for(28, 2, 2), batches_for(16, 3, 2));
        let err = run_world(&spawner, job).expect_err("a world that never settles must end");
        assert_eq!(spawner.launches.load(Ordering::SeqCst), 1 + 8);
        match err {
            DistError::Engine(EngineError::RankDown {
                rank,
                lane,
                stage,
                step,
                detail,
            }) => {
                assert_eq!((rank, lane, stage, step), (1, 1, Some(0), 8), "{detail}");
                assert!(detail.contains("9 rank losses in a row"), "{detail}");
            }
            other => panic!("expected the last loss's RankDown, got {other:?}"),
        }
    }

    /// A canonical rank of a shrink-policy world hangs up after its `Done`
    /// but before the `ParamSnap` its step asked for — the periodic
    /// snapshot's or the job's final parameters. Either way the step is
    /// discarded, the world drops the lane, rewinds to its previous
    /// snapshot and still retires with a full loss history.
    #[test]
    fn rank_dying_under_the_final_fetch_is_recovered() {
        let mut cfg = cfg_for(19, 2, 2);
        cfg.checkpoint_every = 2;
        // Requests: 0 = the periodic one riding step 1 (kept at cursor 2),
        // 1 = the final one riding step 2.
        for (req, what, cursor) in [(0, "snapshot fetch", 0), (1, "final fetch", 2)] {
            let net = SimNet::new(SimConfig::clean(95));
            let _coord = net.register(0);
            let quirk = Quirk {
                hang_up_on_req: Some(req),
                ..Quirk::default()
            };
            let spawner = ScriptedSpawner::new(&net, 0, 0, quirk);
            let mut job = TenantJob::new(1, cfg.clone(), batches_for(9, 3, 2));
            job.on_rank_loss = RankLoss::Shrink;
            let report = run_world(&spawner, job).expect("job completes");
            assert_eq!(report.losses.len(), 3, "{what}: {:?}", report.log);
            assert_eq!(report.recoveries, 1, "{what}: {:?}", report.log);
            assert_eq!(report.final_lanes, 1, "the dead rank's lane left the world");
            assert_eq!(report.recovery.replans, 1);
            assert!(
                report
                    .log
                    .iter()
                    .any(|l| l.contains(&format!("rank 0 down ({what}: "))),
                "{what}: {:?}",
                report.log
            );
            let rewound = format!("replaying from step cursor {cursor} over 1 lane(s)");
            assert!(
                report.log.iter().any(|l| l.contains(&rewound)),
                "{what}: {:?}",
                report.log
            );
            // Two stages of one tensor each. The lost step's snapshot was
            // never kept: the initial one and the periodic one at cursor 2.
            assert_eq!(report.final_params.len(), 2);
            assert_eq!(report.recovery.checkpoints, 2, "{what}");
        }
    }

    /// Decrements the live-worker count when its thread exits, however it
    /// exits.
    struct LiveGuard(Arc<AtomicIsize>);
    impl Drop for LiveGuard {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A sabotaged spawner: from launch number `short_from` on it starts
    /// one worker fewer than asked, so that rendezvous can never complete,
    /// while counting live worker threads — the regression probe for
    /// coordinator error paths leaking workers. Threads of launches below
    /// `linger_below` outlive their worker loop for a moment, so a
    /// coordinator that merely detaches them (instead of joining) returns
    /// while they are still counted live.
    struct ShortSpawner {
        net: SimNet,
        live: Arc<AtomicIsize>,
        launches: AtomicU32,
        short_from: u32,
        linger_below: u32,
    }

    impl ShortSpawner {
        fn new(net: &SimNet, short_from: u32, linger_below: u32) -> Self {
            ShortSpawner {
                net: net.clone(),
                live: Arc::new(AtomicIsize::new(0)),
                launches: AtomicU32::new(0),
                short_from,
                linger_below,
            }
        }
    }

    impl Spawn for ShortSpawner {
        type T = SimNet;

        fn transport(&self) -> SimNet {
            self.net.clone()
        }

        fn launch(&self, coord_port: u16, world: usize) -> std::io::Result<SpawnedWorld> {
            let generation = self.launches.fetch_add(1, Ordering::SeqCst);
            let short = usize::from(generation >= self.short_from);
            let linger = generation < self.linger_below;
            let mut out = SpawnedWorld::default();
            let actors: Vec<u32> = (0..world.saturating_sub(short) as u32)
                .map(|slot| generation * WORKERS_PER_GEN + slot + 1)
                .collect();
            for &actor in &actors {
                self.net.preregister(actor);
            }
            for (slot, &actor) in actors.iter().enumerate() {
                let net = self.net.clone();
                self.live.fetch_add(1, Ordering::SeqCst);
                let live = LiveGuard(self.live.clone());
                out.threads.push(std::thread::spawn(move || {
                    let _live = live;
                    {
                        let _guard = net.adopt(actor);
                        let _ = run_worker_on(
                            &net,
                            coord_port,
                            slot as u32,
                            RunMode::Thread,
                            &Buggify::default(),
                        );
                    }
                    if linger {
                        std::thread::sleep(Duration::from_millis(150));
                    }
                }));
            }
            out.sim = Some(self.net.clone());
            Ok(out)
        }
    }

    /// When rendezvous fails (here: a worker seat that never fills), the
    /// round guard must reap every spawned worker before the run returns —
    /// the coordinator error path may not leak live threads.
    #[test]
    fn no_workers_leak_when_rendezvous_fails() {
        let net = SimNet::new(SimConfig::clean(51));
        let _coord = net.register(0);
        let spawner = ShortSpawner::new(&net, 0, 0);
        let job = TenantJob::new(0, DistConfig::loopback(2, 2), batches_for(0, 1, 2));
        let out = run_world(&spawner, job);
        assert!(
            matches!(out, Err(DistError::Net(_))),
            "a world that cannot rendezvous must fail setup, got {out:?}"
        );
        assert_eq!(
            spawner.live.load(Ordering::SeqCst),
            0,
            "coordinator error path leaked live workers"
        );
        assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
    }

    /// The multi-world twin: two worlds each lose a rank, the first
    /// recovery parks a released round in the graveyard, and the second
    /// recovery's rendezvous fails. The typed error must come back with
    /// every worker of every round — live, released or half-launched —
    /// reaped.
    #[test]
    fn no_workers_leak_when_a_later_recovery_fails() {
        let net = SimNet::new(SimConfig::clean(52));
        let _coord = net.register(0);
        // Launches 0 and 1 admit the two worlds — the rounds that end up
        // released — 2 is the first recovery, 3 the second.
        let spawner = ShortSpawner::new(&net, 3, 2);
        let j1 = dying(
            TenantJob::new(1, cfg_for(21, 2, 1), batches_for(11, 4, 2)),
            1,
            1,
        );
        let j2 = dying(
            TenantJob::new(2, cfg_for(22, 2, 1), batches_for(12, 4, 2)),
            2,
            0,
        );
        let out = run_multiworld(&spawner, vec![j1, j2]);
        assert!(
            matches!(out, Err(DistError::Net(_))),
            "a recovery that cannot rendezvous must fail typed, got {out:?}"
        );
        assert_eq!(spawner.launches.load(Ordering::SeqCst), 4);
        assert_eq!(
            spawner.live.load(Ordering::SeqCst),
            0,
            "released rounds were detached, not reaped"
        );
        assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
    }

    type Edit = fn(&mut TenantJob);

    /// Submits each edit of a well-formed job beside an untouched sibling and
    /// asserts the edited job is rejected, naming its tenant and a reason
    /// containing the case's needle, with no worker launched.
    fn assert_rejected_before_spawn(cases: &[(&str, Edit)]) {
        let good = || TenantJob::new(1, cfg_for(23, 2, 2), batches_for(13, 2, 2));
        let bad = |edit: Edit| {
            let mut job = TenantJob::new(7, cfg_for(24, 2, 2), batches_for(14, 2, 2));
            edit(&mut job);
            job
        };
        for &(needle, edit) in cases {
            let net = SimNet::new(SimConfig::clean(53));
            let _coord = net.register(0);
            let spawner = ShortSpawner::new(&net, u32::MAX, 0);
            match run_multiworld(&spawner, vec![good(), bad(edit)]) {
                Err(DistError::InvalidJob { tenant: 7, reason }) => {
                    assert!(reason.contains(needle), "'{reason}' lacks '{needle}'")
                }
                other => panic!("[{needle}] expected tenant 7 rejected, got {other:?}"),
            }
            assert_eq!(
                spawner.launches.load(Ordering::SeqCst),
                0,
                "[{needle}] a worker was launched for a rejected submission"
            );
        }
    }

    /// A malformed job is rejected with a typed error naming its tenant
    /// before anything is spawned — even when a well-formed sibling rides
    /// in the same submission.
    #[test]
    fn malformed_jobs_are_rejected_before_anything_is_spawned() {
        assert_rejected_before_spawn(&[
            ("zero lanes", |j| j.cfg.lanes = 0),
            ("empty stage partition", |j| j.cfg.partition.clear()),
            ("no batches", |j| j.batches.clear()),
            ("constant and non-zero", |j| j.batches[1].clear()),
            ("constant and non-zero", |j| {
                j.batches[1].pop();
            }),
            ("cannot be split across 2 lane(s)", |j| {
                j.batches[1][0].0.truncate(1);
                j.batches[1][0].1.truncate(1);
            }),
        ]);
        // An empty submission is trivially complete.
        let net = SimNet::new(SimConfig::clean(53));
        let _coord = net.register(0);
        let report = run_multiworld(&SimSpawner::new(net), Vec::new()).expect("empty run");
        assert!(report.worlds.is_empty());
    }

    /// A job every world of which fails the same way — a rank panics
    /// building the model, refuses its stage, or indexes past a table — is
    /// rejected up front too. Unchecked, the model cases kill the sibling's
    /// run with a socket error, and the data cases respawn a `Respawn` world
    /// at the same cursor until the process runs out of thread stacks.
    #[test]
    fn jobs_that_can_only_fail_are_rejected_before_anything_is_spawned() {
        assert_rejected_before_spawn(&[
            ("does not split into 0 head(s)", |j| j.cfg.heads = 0),
            ("hidden 30 does not split into 4 head(s)", |j| {
                j.cfg.hidden = 30;
                j.cfg.heads = 4;
            }),
            ("partition [4, 0] does not cover", |j| {
                j.cfg.partition = vec![4, 0]
            }),
            ("n_out is zero", |j| j.cfg.n_out = 0),
            ("token id 64 is not below vocab 64", |j| {
                j.batches[1][0].0[2][1] = 64
            }),
            ("unequal length", |j| j.batches[0][1].0[3].push(5)),
            ("rows of 40 tokens exceed max_seq 32", |j| {
                for row in &mut j.batches[1][1].0 {
                    row.resize(40, 1);
                }
            }),
            ("target 2 is not below n_out 2", |j| {
                j.batches[1][1].1[0] = 2
            }),
            ("3 target(s) for 4 row(s)", |j| {
                j.batches[0][0].1.pop();
            }),
        ]);
    }
}
