//! The coordinator: one poll-driven loop that runs every training world.
//!
//! [`run_multiworld`] drives any number of `stages × lanes` worlds — a
//! solo job is the same loop with one entry ([`run_world`]) — through the
//! training semantics of the in-process `HybridEngine`: one `Step`
//! broadcast per mini-batch, every rank replying `Done`, losses and
//! parameters **bitwise identical** on the same seed and batches (with
//! SGD; see [`crate::worker`] for why Adam is excluded). Every control
//! connection of every active world joins one
//! [`PollTransport::wait_ready`] wakeup, verdicts, heartbeat acks and
//! snapshots drain through non-blocking [`PollConn::try_recv`] sweeps in a
//! fixed `(world, rank)` order, and jobs are admitted and retired on the
//! job-lifetime rendezvous listener without disturbing the other worlds.
//! Between a world's dispatch and its settle the loop never blocks on one
//! of its ranks, so one world's silent rank cannot stall its siblings.
//!
//! Everything the coordinator knows about one world lives in that world's
//! [`WorldId`]-tagged entry — worker handles, heartbeat nonce windows
//! ([`world_nonce_base`]), the [`FaultClock`] and its timeline, checkpoint
//! cursor, lane membership, the optional durable [`Store`] — so a `Stale`
//! verdict or a recovery event can never name another world's ranks. The
//! loop calls into it at five points:
//!
//! * **admit** — launch the world; cold-restart from the store's last
//!   committed snapshot if it has one, else take the initial snapshot.
//! * **before dispatch** — advance the world's fault clock, admit a
//!   planned join wave ([`Fault::Join`](pac_parallel::Fault)) or a healed
//!   re-dialer through the planner's `replan_with`, map injected
//!   fail-stops and straggler stalls, then write each rank's frames of the
//!   step: a `Heartbeat` on the liveness cadence (nonce-matched, in the
//!   world's own window), the `Step`, and — when the step ends on the
//!   snapshot cadence or ends the job — a `ParamReq` to every canonical
//!   rank. A worker serves its control socket in order, so it acks before
//!   it computes and ships its parameters right after its `Done`.
//! * **settle** — once every rank has its verdict plus the ack and
//!   snapshot it was asked for, commit the loss, fold measured busy time +
//!   heartbeat RTT into the per-lane EWMA and rebalance row shares
//!   (`split_micro_batches_weighted`) when lanes diverge, and keep the
//!   snapshot the step carried. A probed rank that has not acked
//!   `liveness_timeout` after dispatch is [`NetError::Stale`]: it owes
//!   nothing more, and the step fails as soon as its peers have reported,
//!   without waiting for the step deadline.
//! * **rank down** — a missing verdict, ack or snapshot, a stale probe, a
//!   peer's blame or a failed dispatch. The half-run step is discarded.
//!   The job's [`RankLoss`] decides between respawning the same topology
//!   and shrinking the world through `replan_without`.
//! * **retire** — hand back the final parameters the last step carried
//!   and the [`WorldReport`].
//!
//! Join, heal, leave and respawn all end in the same routine: change the
//! lane membership, release the old round, launch the new one restored
//! from the world's snapshot, rewind the cursor. Released rounds are
//! reaped at the very end (joining a dying world inline would park the
//! loop while sibling worlds' read deadlines run), behind a drop guard so
//! no error path leaks live workers.
//!
//! **Determinism.** Under the simulated transport the wakeup times are
//! clock events and the sweep order is fixed, so the interleaving of N
//! worlds is a pure function of the seed — `simsweep` asserts
//! byte-identical traces across repeats.

use crate::config::{DistConfig, DistError};
use crate::rendezvous::{world_nonce_base, Rendezvous, Topology, WorkerConn, WorldId};
use crate::spawn::{Spawn, SpawnedWorld};
use crate::transport::{Conn, PollConn, PollTransport, Transport};
use crate::wire::{
    decode_frame, param_snap_frame, param_snap_frame_len, Assignment, Msg, NetError,
};
use crate::worker::param_entries;
use pac_cluster::{Cluster, CostModel, DeviceSpec};
use pac_parallel::engine::{split_micro_batches_weighted, weighted_shares, MicroBatch};
use pac_parallel::schedule::SimEvent;
use pac_parallel::{EngineError, FaultClock, FaultPlan, RecoveryReport, TimelineKind};
use pac_peft::Technique;
use pac_planner::{PlanOutcome, Planner};
use pac_store::Store;
use pac_tensor::Tensor;
use std::collections::VecDeque;
use std::time::Duration;

/// How long one readiness wait blocks before the coordinator re-checks
/// admissions and step deadlines. Virtual time under simnet, wall time
/// over TCP; either way it only bounds reaction latency — no training
/// verdict depends on it.
const POLL_WAIT: Duration = Duration::from_millis(10);

/// When the slowest lane's EWMA cost exceeds the fastest lane's by this
/// ratio, the world rebalances micro-batch row shares.
const REBALANCE_RATIO: f64 = 1.75;

/// How long the re-admission poll waits for a pending re-dial. Kept tiny:
/// an absent re-dialer is the common case and must not stall the loop.
const REDIAL_POLL: Duration = Duration::from_millis(5);

/// Most stray heartbeat acks tolerated from one rank in one step: a rank
/// has at most one probe outstanding, so more than a handful of nonces
/// from outside the step's window means the stream lost framing.
const MAX_STRAY_ACKS: usize = 8;

/// What a world does when it loses a rank — the one behavioural choice a
/// job states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankLoss {
    /// Respawn the same topology, restore the world's snapshot and replay
    /// from its cursor. The trajectory stays bitwise equal to the
    /// fault-free run, and a one-lane world survives.
    #[default]
    Respawn,
    /// Drop the dead rank's lane: confirm feasibility with the planner
    /// (`replan_without`), respawn the world minus that lane, restore and
    /// replay. The survivors see more rows per update, so the trajectory
    /// changes; losing the last lane ends the job with
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
    /// Pipeline stages (constant across recovery).
    pub stages: usize,
    /// Lanes alive at the end (may differ from the starting count after
    /// joins and leaves).
    pub final_lanes: usize,
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
    /// [`Graveyard`]: an evicted-but-alive worker may be blocked re-dialing
    /// the rendezvous, and joining its thread inline would deadlock the
    /// coordinator on a worker that is waiting for the coordinator.
    fn release(&mut self) -> Option<SpawnedWorld> {
        let world = self.world.take()?;
        for wc in self.conns.iter_mut() {
            let _ = wc.ctrl.send(&Msg::Shutdown);
        }
        for wc in self.conns.iter_mut() {
            if let Ok(Msg::Stats { counters }) = wc.ctrl.recv() {
                pac_telemetry::merge_counters(counters);
            }
        }
        self.conns.clear();
        Some(world)
    }

    /// Fetches the trainable parameters of the canonical replica (lane
    /// position 0) of every stage — only while the round is idle: a
    /// running step carries its own snapshot request. All requests go out
    /// before the first reply is read, so the stages serialize their
    /// snapshots concurrently. Returns the per-stage entries and the
    /// snapshot's size on the wire.
    fn fetch_params(&mut self) -> Result<(StageParams, usize), NetError> {
        let canonical: Vec<usize> = (0..self.topo.stages)
            .map(|s| self.topo.rank_of(s, 0))
            .collect();
        for &rank in &canonical {
            self.conns[rank].ctrl.send(&Msg::ParamReq {
                trainable_only: true,
            })?;
        }
        let mut stages = Vec::with_capacity(canonical.len());
        for &rank in &canonical {
            match self.conns[rank].ctrl.recv()? {
                Msg::ParamSnap { entries } => stages.push(entries),
                _ => return Err(NetError::Malformed("expected ParamSnap")),
            }
        }
        let bytes = snapshot_bytes(&stages);
        Ok((stages, bytes))
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
/// worker still re-dialing fails its dial and exits instead of being
/// waited on.
struct Host<'a, S: Spawn> {
    spawner: &'a S,
    transport: S::T,
    rdv: Rendezvous<S::T>,
    graveyard: Graveyard,
}

/// Named parameter tensors for each pipeline stage, canonical-lane order.
type StageParams = Vec<Vec<(String, Tensor)>>;

/// A snapshot's size on the wire: the sum of its `ParamSnap` frame
/// lengths.
fn snapshot_bytes(stages: &StageParams) -> usize {
    stages
        .iter()
        .map(|entries| param_snap_frame_len(entries))
        .sum()
}

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
    let stages = cfg.build_stages().map_err(|e| e.to_string())?;
    let trained: Vec<_> = stages
        .iter()
        .map(|s| layout(&param_entries(s, true)))
        .collect();
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

/// Encodes the replay cursor committed alongside each durable snapshot:
/// `next_t u64 · n u64 · n × f32` (little-endian, floats as raw bits so
/// a cold restart reproduces the loss history bitwise).
fn encode_cursor(next_t: usize, losses: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + losses.len() * 4);
    out.extend_from_slice(&(next_t as u64).to_le_bytes());
    out.extend_from_slice(&(losses.len() as u64).to_le_bytes());
    for l in losses {
        out.extend_from_slice(&l.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_cursor`]; `None` on any truncation or length lie.
fn decode_cursor(bytes: &[u8]) -> Option<(usize, Vec<f32>)> {
    let next_t = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?) as usize;
    let n = u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?) as usize;
    if bytes.len() != 16 + n.checked_mul(4)? {
        return None;
    }
    let mut losses = Vec::with_capacity(n);
    for i in 0..n {
        let o = 16 + i * 4;
        losses.push(f32::from_bits(u32::from_le_bytes(
            bytes.get(o..o + 4)?.try_into().ok()?,
        )));
    }
    Some((next_t, losses))
}

/// Launches and wires a `stages × lanes` round for `job` on the
/// coordinator's rendezvous listener and, given a snapshot, restores
/// every rank from it. `pre` carries an already-accepted control
/// connection (a healed re-dialer) that becomes the highest rank.
fn start_round<S: Spawn>(
    host: &Host<'_, S>,
    job: &TenantJob,
    lanes: usize,
    snapshot: Option<&Snapshot>,
    pre: Vec<WorkerConn<ConnOf<S>>>,
) -> Result<Round<ConnOf<S>>, DistError> {
    let cfg = &job.cfg;
    let topo = Topology {
        stages: cfg.stages(),
        lanes,
    };
    let fresh = topo.world() - pre.len();
    let world = host
        .spawner
        .launch(host.rdv.port(), fresh)
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
        .accept_world(fresh, cfg.setup_timeout, cfg.net_timeout)?;
    round.conns.extend(pre);

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
            telemetry: cfg.telemetry,
            reconnect: cfg.admit_reconnects,
            wire_q8: cfg.wire_q8,
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
        /// Busy time (stall + compute + collective) the rank reported.
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
    /// The job's final parameters, frozen ones included.
    Final,
}

impl SnapKind {
    /// How a canonical rank lost before its `ParamSnap` is logged.
    fn what(self) -> &'static str {
        match self {
            SnapKind::Periodic => "snapshot fetch",
            SnapKind::Final => "final fetch",
        }
    }
}

/// One rank's share of an in-flight step.
struct RankSlot {
    verdict: Option<Verdict>,
    /// The step's heartbeat round trip, dispatch to ack.
    ack: Awaited<u64>,
    /// A canonical rank's parameters after the step's update.
    snap: Awaited<Vec<(String, Tensor)>>,
    /// Acks with a nonce outside this step's window.
    strays: usize,
}

impl RankSlot {
    /// Nothing more is due from this rank for this step: it failed, or it
    /// delivered its verdict and everything it was asked for.
    fn complete(&self) -> bool {
        match self.verdict {
            None => false,
            Some(Verdict::Failed(_)) => true,
            Some(Verdict::Done { .. }) => !self.ack.waiting() && !self.snap.waiting(),
        }
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
    /// Transport clock when the step's frames went out.
    dispatched_ns: u64,
    /// Rank 0's heartbeat nonce; rank `r` is sent `base + r`.
    nonce_base: u64,
    snap: Option<SnapKind>,
    /// Probed ranks must have acked by this transport-clock time.
    ack_deadline_ns: u64,
    /// Ranks still owing a frame after this time fail the step.
    step_deadline_ns: u64,
    /// The first probed rank that missed its ack deadline.
    stale: Option<(usize, String)>,
}

impl Pending {
    fn new(
        topo: Topology,
        cfg: &DistConfig,
        now_ns: u64,
        nonce_base: u64,
        snap: Option<SnapKind>,
        die_rank: Option<usize>,
    ) -> Self {
        let ranks = (0..topo.world())
            .map(|rank| RankSlot {
                verdict: None,
                ack: Awaited::Waiting,
                snap: Awaited::asked(snap.is_some() && topo.lane_of(rank) == 0),
                strays: 0,
            })
            .collect();
        Pending {
            die_rank,
            ranks,
            first_blame: None,
            dispatched_ns: now_ns,
            nonce_base,
            snap,
            ack_deadline_ns: now_ns.saturating_add(cfg.liveness_timeout.as_nanos() as u64),
            step_deadline_ns: now_ns.saturating_add(cfg.net_timeout.as_nanos() as u64),
            stale: None,
        }
    }

    /// Writes `rank`'s frames of this step in the order the worker serves
    /// them: the heartbeat, the `Step`, then the snapshot request.
    fn send<C: Conn>(&self, rank: usize, conn: &mut C, step: &Msg) -> Result<(), NetError> {
        conn.send(&Msg::Heartbeat {
            nonce: self.nonce_base + rank as u64,
        })?;
        conn.send(step)?;
        if self.ranks[rank].snap.waiting() {
            conn.send(&Msg::ParamReq {
                trainable_only: self.snap == Some(SnapKind::Periodic),
            })?;
        }
        Ok(())
    }

    /// Ready to settle: nothing more is due from any rank.
    fn settled(&self) -> bool {
        self.ranks.iter().all(RankSlot::complete)
    }

    /// When [`Pending::drain`] next acts without a frame: the ack deadline
    /// while a probed rank still owes its ack, else the step deadline.
    fn deadline_ns(&self) -> u64 {
        if self.ranks.iter().any(|r| r.ack.waiting() && !r.complete()) {
            self.ack_deadline_ns.min(self.step_deadline_ns)
        } else {
            self.step_deadline_ns
        }
    }

    /// Collects whatever has arrived: `try_recv` never blocks, and a
    /// partial frame stays buffered in the connection for the next wakeup.
    /// From the ack deadline on, a probed rank that never acked is stale;
    /// from the step deadline on, every rank still owing a frame fails.
    fn drain<C: PollConn>(&mut self, conns: &mut [WorkerConn<C>], now_ns: u64) {
        for (rank, wc) in conns.iter_mut().enumerate() {
            while !self.ranks[rank].complete() {
                match wc.ctrl.try_recv() {
                    Ok(None) => break,
                    Ok(Some(msg)) => self.take(rank, msg, now_ns),
                    // A rank that vanished without blaming anyone is the
                    // prime suspect — peers that *observed* a failure say
                    // so via Fault before exiting.
                    Err(e) => {
                        let owed = self.owed(rank);
                        self.ranks[rank].fail(format!("{owed}: {e}"));
                    }
                }
            }
        }
        if now_ns >= self.ack_deadline_ns {
            for (rank, slot) in self.ranks.iter_mut().enumerate() {
                if slot.ack.waiting() && !slot.complete() {
                    let detail = format!("liveness probe: {}", NetError::Stale);
                    self.stale.get_or_insert((rank, detail.clone()));
                    slot.fail(detail);
                }
            }
        }
        if now_ns >= self.step_deadline_ns {
            for rank in 0..self.ranks.len() {
                if !self.ranks[rank].complete() {
                    let owed = self.owed(rank);
                    self.ranks[rank].fail(format!("{owed}: poll deadline"));
                }
            }
        }
    }

    /// Files one frame from `rank`.
    fn take(&mut self, rank: usize, msg: Msg, now_ns: u64) {
        let world = self.ranks.len() as u64;
        let base = self.nonce_base;
        let own = base + rank as u64;
        let in_window = |nonce: u64| (base..base + world).contains(&nonce);
        let slot = &mut self.ranks[rank];
        match msg {
            Msg::HeartbeatAck { nonce } if nonce == own && slot.ack.waiting() => {
                slot.ack = Awaited::Got(now_ns.saturating_sub(self.dispatched_ns));
            }
            // A late bulk ack or an earlier probe's echo must not vouch
            // for this step.
            Msg::HeartbeatAck { nonce } if !in_window(nonce) => {
                slot.strays += 1;
                if slot.strays > MAX_STRAY_ACKS {
                    let e = NetError::Malformed("probe drowned in stray acks");
                    slot.fail(format!("liveness probe: {e}"));
                }
            }
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
        let slot = &self.ranks[rank];
        match self.snap {
            _ if slot.verdict.is_none() => "no step verdict",
            _ if slot.ack.waiting() => "liveness probe",
            Some(kind) => kind.what(),
            None => unreachable!("rank {rank} owes this step nothing"),
        }
    }
}

/// One live world and every piece of coordinator state scoped to it.
struct World<S: Spawn> {
    id: WorldId,
    job_idx: usize,
    job: TenantJob,
    /// This world's step counter, fault schedule and recovery timeline.
    /// It advances once per dispatch attempt and never rewinds across
    /// recoveries, so an injected fault fires exactly once.
    clock: FaultClock,
    round: Round<ConnOf<S>>,
    snapshot: Snapshot,
    losses: Vec<f32>,
    /// Next batch index to dispatch.
    t: usize,
    /// Original lane ids still in the world, by lane position.
    alive_lanes: Vec<usize>,
    /// Lane ids for joiners once every original id is in use again.
    next_fresh_lane: usize,
    lane_weights: Vec<f64>,
    lane_cost_ewma: Vec<f64>,
    /// Per-rank heartbeat RTTs from the latest step.
    last_rtts: Vec<u64>,
    /// The canonical replica's parameters, carried back by the job's last
    /// step.
    final_params: Vec<(String, Tensor)>,
    /// Ranks evicted without a `Shutdown` whose re-dial has not been
    /// answered yet; the world polls the listener only while this is
    /// non-zero, so it never adopts a dialer it did not lose.
    evicted: usize,
    pending: Option<Pending>,
    last_events: Vec<SimEvent>,
    recoveries: u32,
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
    /// take the initial snapshot — recovery must always have something to
    /// restore.
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
                    next_t,
                    losses_len: losses.len(),
                };
                Some((snapshot, losses, c.seq))
            }
        };
        let restore = resumed.as_ref().map(|(snapshot, _, _)| snapshot);
        let round = start_round(host, &job, lanes, restore, Vec::new())?;
        pac_telemetry::counter_inc("multiworld.admissions");
        let mut w = World {
            id,
            job_idx,
            clock: FaultClock::new(job.faults.clone()),
            round,
            snapshot: Snapshot::default(),
            losses: Vec::new(),
            t: 0,
            alive_lanes: (0..lanes).collect(),
            next_fresh_lane: lanes,
            lane_weights: vec![1.0; lanes],
            lane_cost_ewma: vec![0.0; lanes],
            last_rtts: Vec::new(),
            final_params: Vec::new(),
            evicted: 0,
            pending: None,
            last_events: Vec::new(),
            recoveries: 0,
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
                w.checkpoint("initial snapshot")?;
                w.persist()?;
            }
        }
        Ok(w)
    }

    /// Appends to this world's recovery timeline at its current step.
    fn note(&self, kind: TimelineKind, detail: impl Into<String>) {
        self.clock.note(self.clock.current_step(), kind, detail);
    }

    fn stages(&self) -> usize {
        self.job.cfg.stages()
    }

    /// The planner every membership change is confirmed with, over the
    /// pool the world currently has.
    fn planner(&self) -> (Planner, CostModel) {
        let cfg = &self.job.cfg;
        let mini_batch_rows: usize = self.job.batches[0].iter().map(|mb| mb.0.len()).sum();
        let planner = Planner::paper_defaults(
            Cluster::nanos(self.stages() * self.alive_lanes.len()).with_link(cfg.link),
            mini_batch_rows.max(1),
        );
        let cost = CostModel::new(cfg.model_config(), Technique::parallel_default(), 16);
        (planner, cost)
    }

    fn note_replan(&mut self, prefix: &str, out: &PlanOutcome) {
        self.replans += 1;
        self.note(
            TimelineKind::Replan,
            format!(
                "{prefix}replanned over {} devices, makespan {:.4} s",
                out.device_indices.len(),
                out.best_makespan_s
            ),
        );
    }

    /// Fetches the canonical trainable parameters of the idle round into
    /// the world's in-memory snapshot at the current cursor.
    fn checkpoint(&mut self, what: &str) -> Result<(), NetError> {
        let (stages, bytes) = self.round.fetch_params()?;
        self.keep_snapshot(what, stages, bytes);
        Ok(())
    }

    /// Makes `stages` the world's snapshot at the current cursor.
    fn keep_snapshot(&mut self, what: &str, stages: StageParams, bytes: usize) {
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
        let Some(store) = self.job.store.as_mut() else {
            return Ok(());
        };
        let step = self.clock.current_step();
        if let Some(at_byte) = self.clock.crash_point(step) {
            self.clock.note(
                step,
                TimelineKind::Injected,
                format!("checkpoint writer crash armed at byte {at_byte}"),
            );
            store.arm_crash(at_byte);
        }
        let payload = encode_snapshot(&self.snapshot.stages);
        let meta = encode_cursor(
            self.snapshot.next_t,
            &self.losses[..self.snapshot.losses_len],
        );
        store.commit(&payload, &meta)?;
        Ok(())
    }

    /// The one way membership changes take effect: release the old round
    /// (thread joins deferred to the graveyard), launch `alive_lanes`
    /// lanes restored from the world's own snapshot, and rewind the
    /// cursor for replay. No other world's state is touched.
    fn restart(
        &mut self,
        host: &mut Host<'_, S>,
        pre: Vec<WorkerConn<ConnOf<S>>>,
    ) -> Result<(), DistError> {
        host.graveyard.0.extend(self.round.release());
        self.pending = None;
        let lanes = self.alive_lanes.len();
        self.lane_weights = vec![1.0; lanes];
        self.lane_cost_ewma = vec![0.0; lanes];
        self.last_rtts.clear();
        self.round = start_round(host, &self.job, lanes, Some(&self.snapshot), pre)?;
        self.t = self.snapshot.next_t;
        self.losses.truncate(self.snapshot.losses_len);
        Ok(())
    }

    /// Grows the world by `lanes` lanes through the planner's admission
    /// path (`replan_with` never worsens the makespan): one replan and one
    /// catch-up snapshot at the current cursor however many joiners arrive
    /// together, so everyone — newcomers included — restores it and no
    /// step needs replaying. `healed` is a re-dialed worker's connection,
    /// the first rank of the one lane a partition heal brings back.
    fn grow(
        &mut self,
        host: &mut Host<'_, S>,
        lanes: usize,
        healed: Option<WorkerConn<ConnOf<S>>>,
    ) -> Result<(), DistError> {
        let devices = self.stages() * lanes;
        let (planner, cost) = self.planner();
        let joined = vec![DeviceSpec::jetson_nano(); devices];
        let Some(out) = planner.replan_with(&cost, &joined) else {
            match healed {
                // A Shutdown before any Assign tells the healed worker to
                // exit for good.
                Some(mut wc) => {
                    let _ = wc.ctrl.send(&Msg::Shutdown);
                }
                None => self.note(
                    TimelineKind::Join,
                    "join rejected: current pool is unplannable",
                ),
            }
            return Ok(());
        };
        let (how, who) = match (&healed, lanes) {
            (Some(_), _) => (
                format!("re-admitted a healed worker chain (+{devices} device(s))"),
                "re-admitted worker caught up from snapshot".to_string(),
            ),
            (None, n) => (
                format!("admitted +{devices} device(s) as {n} lane(s) in one wave"),
                match n {
                    1 => "joiner caught up from snapshot".to_string(),
                    _ => format!("{n} joiners caught up from one snapshot"),
                },
            ),
        };
        self.note(TimelineKind::Join, format!("{how} via replan_with"));
        self.note_replan("", &out);
        let what = format!("catch-up snapshot at step cursor {}", self.t);
        self.checkpoint(&what)?;
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
        self.restart(host, healed.into_iter().collect())?;
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
    /// micro-batch can still be split across.
    fn admit_join_wave(&mut self, host: &mut Host<'_, S>, wave: usize) -> Result<(), DistError> {
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
            self.grow(host, admit, None)?;
        }
        Ok(())
    }

    /// Partition heal: an evicted worker that observed its bare EOF
    /// re-dials the rendezvous with a fresh Hello; admit it back through
    /// the same planner gate and catch-up machinery a planned join uses.
    fn admit_redialer(&mut self, host: &mut Host<'_, S>) -> Result<(), DistError> {
        let Some(mut wc) = host.rdv.try_accept(REDIAL_POLL, self.job.cfg.net_timeout)? else {
            return Ok(());
        };
        self.evicted -= 1;
        let (lanes, min_rows) = (
            self.alive_lanes.len() + 1,
            min_micro_rows(&self.job.batches),
        );
        if lanes > min_rows {
            self.note(
                TimelineKind::Join,
                format!(
                    "re-admission rejected: {lanes} lanes cannot split micro-batches of {min_rows} row(s)"
                ),
            );
            let _ = wc.ctrl.send(&Msg::Shutdown);
            return Ok(());
        }
        self.grow(host, 1, Some(wc))
    }

    /// A rank of this world is gone (current-round numbering): restart
    /// from the snapshot, on the same topology or minus the dead rank's
    /// lane as the job's [`RankLoss`] says.
    fn rank_down(
        &mut self,
        host: &mut Host<'_, S>,
        rank: usize,
        detail: &str,
    ) -> Result<(), DistError> {
        let topo = self.round.topo;
        let pos = topo.lane_of(rank);
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
                // With re-admission on, the evicted rank's connection is
                // dropped *without* a Shutdown: a worker that is alive
                // behind a healed partition observes the bare EOF and
                // re-dials, while a genuinely dead one observes nothing.
                if self.job.cfg.admit_reconnects && rank < self.round.conns.len() {
                    drop(self.round.conns.remove(rank));
                    self.evicted += 1;
                }
                if topo.lanes == 1 {
                    // The dead lane was the only one: no pipeline left.
                    return Err(EngineError::NoSurvivors.into());
                }
                pac_telemetry::counter_inc("membership.leaves");
                // Confirm feasibility over the pool we actually have: the
                // current world minus the departing lane's chain.
                let (planner, cost) = self.planner();
                let dying: Vec<usize> = (0..topo.stages).map(|s| topo.rank_of(s, pos)).collect();
                let out =
                    planner
                        .replan_without(&cost, &dying)
                        .ok_or(EngineError::Unplannable {
                            survivors: topo.stages * (topo.lanes - 1),
                        })?;
                self.note_replan(&format!("rank {rank} down ({detail}); "), &out);
                self.alive_lanes.remove(pos);
            }
        }
        self.restart(host, Vec::new())?;
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
    /// injection due at this step, then each rank's frames — micro-batch
    /// payloads only to the stages that consume them (first and last), the
    /// heartbeat and snapshot request riding along. Nothing here waits on a
    /// rank. A rank lost on the way restarts the world and leaves it idle
    /// for the loop's next pass.
    fn dispatch(&mut self, host: &mut Host<'_, S>) -> Result<(), DistError> {
        self.clock.advance();
        let step = self.clock.current_step();
        let wave = self.clock.joins(step);
        if wave > 0 {
            self.admit_join_wave(host, wave)?;
        }
        if self.evicted > 0 {
            self.admit_redialer(host)?;
        }
        let cfg = &self.job.cfg;
        let topo = self.round.topo;

        // Map a planned fail-stop of an original device to the rank
        // currently standing in for it (lanes renumber as they die).
        let lanes0 = cfg.lanes;
        let die_rank = self.clock.fail_stop(step).and_then(|dev| {
            if dev >= topo.stages * lanes0 {
                return None;
            }
            let (stage, lane) = (dev / lanes0, dev % lanes0);
            let pos = self.alive_lanes.iter().position(|&l| l == lane)?;
            let rank = topo.rank_of(stage, pos);
            self.note(
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
                let ms = self
                    .clock
                    .straggler_delay(step, l)
                    .map_or(0, |d| d.as_millis() as u32);
                if ms > 0 {
                    self.note(
                        TimelineKind::Injected,
                        format!("lane {l} straggles {ms} ms"),
                    );
                }
                ms
            })
            .collect();

        // Every step carries the liveness probe, on this world's own nonce
        // window, so an ack can only ever vouch for this world's ranks; the
        // snapshot request rides the step when it ends on the snapshot
        // cadence or ends the job.
        let next_t = self.t + 1;
        let every = cfg.checkpoint_every;
        let snap = if next_t == self.job.batches.len() {
            Some(SnapKind::Final)
        } else if every > 0 && next_t.is_multiple_of(every) {
            Some(SnapKind::Periodic)
        } else {
            None
        };
        let pending = Pending::new(
            topo,
            cfg,
            host.transport.now_ns(),
            world_nonce_base(self.id, step),
            snap,
            die_rank,
        );

        let lane_mbs = split_micro_batches_weighted(&self.job.batches[self.t], &self.lane_weights)?;
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
            };
            if let Err(e) = pending.send(rank, &mut self.round.conns[rank].ctrl, &msg) {
                return self.rank_down(host, rank, &format!("step dispatch: {e}"));
            }
        }
        self.pending = Some(pending);
        Ok(())
    }

    /// Once nothing more is due from any rank: commit the step (loss,
    /// straggler EWMA, the snapshot it carried) or attribute the failure
    /// and recover. Returns whether a step was completed.
    fn settle(&mut self, host: &mut Host<'_, S>) -> Result<bool, DistError> {
        if !self.pending.as_ref().is_some_and(Pending::settled) {
            return Ok(false);
        }
        let p = self.pending.take().expect("checked pending");
        let topo = self.round.topo;
        let mut dones = Vec::with_capacity(topo.world());
        let mut rtts = Vec::with_capacity(topo.world());
        let mut snaps = StageParams::new();
        let mut first_silent = None;
        for (rank, slot) in p.ranks.into_iter().enumerate() {
            match slot.verdict.expect("settled step has a verdict per rank") {
                Verdict::Done {
                    loss_sum,
                    busy_ns,
                    events,
                } => dones.push((loss_sum, busy_ns, events)),
                Verdict::Failed(detail) => {
                    first_silent.get_or_insert((rank, detail));
                }
            }
            if let Awaited::Got(rtt) = slot.ack {
                rtts.push(rtt);
            }
            // Canonical ranks come in stage order.
            if let Awaited::Got(entries) = slot.snap {
                snaps.push(entries);
            }
        }
        if let Some(silent) = first_silent {
            // Attribution priority: a rank that missed its liveness
            // deadline, the rank we deliberately killed, then the rank a
            // surviving peer blamed, then the first rank that went silent
            // on the control plane.
            let (rank, detail) = match (p.stale, p.die_rank) {
                (Some(stale), _) => {
                    pac_telemetry::counter_inc("membership.stale_probes");
                    stale
                }
                (None, Some(r)) => (r, "injected fail-stop".to_string()),
                (None, None) => p.first_blame.unwrap_or(silent),
            };
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
        self.last_events.clear();
        for s in 0..topo.stages {
            let events = std::mem::take(&mut dones[topo.rank_of(s, 0)].2);
            self.last_events.extend(events);
        }
        self.t += 1;
        pac_telemetry::counter_inc("multiworld.steps");

        self.last_rtts = rtts;
        let remaining = self.t < self.job.batches.len();
        if self.job.cfg.rebalance && topo.lanes > 1 && remaining {
            let busy_ns: Vec<u64> = dones.iter().map(|d| d.1).collect();
            self.rebalance(&busy_ns);
        }
        match p.snap {
            Some(SnapKind::Periodic) => {
                let what = format!("snapshot at step cursor {}", self.t);
                let bytes = snapshot_bytes(&snaps);
                self.keep_snapshot(&what, snaps, bytes);
                self.persist()?;
            }
            Some(SnapKind::Final) => self.final_params = snaps.into_iter().flatten().collect(),
            None => {}
        }
        Ok(true)
    }

    /// Straggler mitigation: fold this step's measured per-lane cost
    /// (slowest rank's busy time + control RTT) into the EWMA and shift
    /// the next step's row shares toward fast lanes if lanes diverge.
    fn rebalance(&mut self, busy_ns: &[u64]) {
        let topo = self.round.topo;
        for (pos, ewma) in self.lane_cost_ewma.iter_mut().enumerate() {
            let cost = (0..topo.stages)
                .map(|s| {
                    let r = topo.rank_of(s, pos);
                    busy_ns[r].saturating_add(self.last_rtts.get(r).copied().unwrap_or(0))
                })
                .max()
                .unwrap_or(0);
            let cost = (cost as f64).max(1.0);
            *ewma = if *ewma == 0.0 {
                cost
            } else {
                0.5 * *ewma + 0.5 * cost
            };
        }
        let fastest = self.lane_cost_ewma.iter().cloned().fold(f64::MAX, f64::min);
        let slowest = self.lane_cost_ewma.iter().cloned().fold(0.0, f64::max);
        if fastest <= 0.0 || slowest / fastest <= REBALANCE_RATIO {
            return;
        }
        let proposed: Vec<f64> = self.lane_cost_ewma.iter().map(|&c| 1.0 / c).collect();
        let rows = self.job.batches[self.t][0].0.len();
        if let (Ok(old), Ok(new)) = (
            weighted_shares(rows, &self.lane_weights),
            weighted_shares(rows, &proposed),
        ) {
            if old != new {
                self.note(
                    TimelineKind::Rebalance,
                    format!("straggler mitigation: first-micro row shares {old:?} -> {new:?}"),
                );
                self.lane_weights = proposed;
            }
        }
    }

    /// Out of batches: hand back the final parameters the last step
    /// carried and leave, listener and sibling worlds untouched. (A rank
    /// lost before its final `ParamSnap` failed that step like any other:
    /// the world recovered and replayed before it got here.)
    fn retire(&mut self, host: &mut Host<'_, S>) -> WorldReport {
        host.graveyard.0.extend(self.round.release());
        pac_telemetry::counter_inc("multiworld.retirements");
        let timeline = self.clock.timeline();
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
            stages: self.stages(),
            final_lanes: self.alive_lanes.len(),
        }
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
/// # Errors
/// [`DistError::InvalidJob`] before anything is spawned when a job cannot
/// be run as stated. Setup failures (spawn, rendezvous), a dead or
/// unreadable checkpoint store and engine-level failures (no survivors,
/// unplannable pool) abort the whole run; per-rank failures inside one
/// world are recovered world-locally and do not surface here. Every exit
/// reaps every worker launched.
pub fn run_multiworld<S>(spawner: &S, jobs: Vec<TenantJob>) -> Result<MultiWorldReport, DistError>
where
    S: Spawn,
    S::T: PollTransport,
    ConnOf<S>: PollConn,
{
    for job in &jobs {
        job.validate()?;
    }
    // Some evicted worker may still be re-dialing when the run ends.
    let redial_timeout = jobs
        .iter()
        .filter(|j| j.cfg.admit_reconnects)
        .map(|j| j.cfg.net_timeout)
        .max();
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
        // step or, out of batches, hands back its final parameters.
        let mut i = 0;
        while i < active.len() {
            let w = &mut active[i];
            if w.pending.is_none() {
                if w.t < w.job.batches.len() {
                    w.dispatch(&mut host)?;
                } else {
                    reports[w.job_idx] = Some(w.retire(&mut host));
                    active.remove(i);
                    continue;
                }
            }
            i += 1;
        }

        // ---- Readiness: block until some control connection can make
        // progress. Under simnet this wait joins the quiescence census, so
        // the virtual clock advances to the next delivery instead of the
        // coordinator spinning it into a livelock. Exactly the ranks that
        // still owe their step a frame — verdict, heartbeat ack or
        // snapshot — join the poll set. Leaving one out would miss its
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
            .filter_map(|w| w.pending.as_ref().map(Pending::deadline_ns))
            .min()
            .map_or(POLL_WAIT, |d| {
                POLL_WAIT.min(Duration::from_nanos(d.saturating_sub(now)))
            });
        let mut conns: Vec<&mut ConnOf<S>> = Vec::new();
        for w in active.iter_mut() {
            let Some(p) = w.pending.as_ref() else {
                continue;
            };
            for (slot, wc) in p.ranks.iter().zip(w.round.conns.iter_mut()) {
                if !slot.complete() {
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
            if let Some(p) = w.pending.as_mut() {
                p.drain(&mut w.round.conns, host.transport.now_ns());
            }
            if w.settle(&mut host)? {
                steps_total += 1;
            }
        }
    }

    // Drain any re-dial still pending at the end: the graveyard joins
    // every released thread, and a healed worker parked on the listener
    // would otherwise sit out its read deadline first.
    if let Some(timeout) = redial_timeout {
        while let Some(mut wc) = host.rdv.try_accept(REDIAL_POLL, timeout)? {
            let _ = wc.ctrl.send(&Msg::Shutdown);
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
pub fn run_world<S>(spawner: &S, job: TenantJob) -> Result<WorldReport, DistError>
where
    S: Spawn,
    S::T: PollTransport,
    ConnOf<S>: PollConn,
{
    let mut report = run_multiworld(spawner, vec![job])?;
    Ok(report.worlds.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simnet::{SimConfig, SimConn, SimNet, SimSpawner, WORKERS_PER_GEN};
    use crate::worker::{run_worker_on, Buggify, RunMode};
    use pac_parallel::Fault;
    use pac_tensor::rng::seeded;
    use rand::Rng;
    use std::sync::atomic::{AtomicIsize, AtomicU32, Ordering};
    use std::sync::Arc;

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
        /// Acks with a nonce from outside the step's window, sent ahead of
        /// every real one.
        stray_acks: usize,
        /// Never ack a heartbeat.
        mute: bool,
        /// Hang up instead of answering the `ParamReq` with this index
        /// among the ones the rank receives (0 is admission's initial
        /// snapshot) — after the step's `Done`, before its `ParamSnap`.
        hang_up_on_req: Option<usize>,
    }

    /// Scripted ranks on simnet: each rendezvouses and answers frames in
    /// order like a worker that does not train — `Done` with a fixed loss,
    /// `ParamSnap` one tensor per stage — except that the rank at
    /// `(launch, slot)` of `target` behaves as its `Quirk` says.
    struct ScriptedSpawner {
        net: SimNet,
        launches: AtomicU32,
        target: (u32, u32, Quirk),
    }

    impl ScriptedSpawner {
        fn new(net: &SimNet, launch: u32, slot: u32, quirk: Quirk) -> Self {
            ScriptedSpawner {
                net: net.clone(),
                launches: AtomicU32::new(0),
                target: (launch, slot, quirk),
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
            let actors: Vec<u32> = (0..world as u32)
                .map(|slot| generation * WORKERS_PER_GEN + slot + 1)
                .collect();
            for &actor in &actors {
                self.net.preregister(actor);
            }
            let mut out = SpawnedWorld::default();
            for (slot, &actor) in actors.iter().enumerate() {
                let net = self.net.clone();
                let (g, s, quirk) = self.target;
                let quirk = if (g, s) == (generation, slot as u32) {
                    quirk
                } else {
                    Quirk::default()
                };
                out.threads.push(std::thread::spawn(move || {
                    let _guard = net.adopt(actor);
                    let _ = scripted_rank(&net, coord_port, slot as u32, quirk);
                }));
            }
            out.sim = Some(self.net.clone());
            Ok(out)
        }
    }

    fn scripted_rank(net: &SimNet, port: u16, slot: u32, quirk: Quirk) -> Result<(), NetError> {
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
        let mut reqs = 0;
        loop {
            match ctrl.recv()? {
                Msg::Heartbeat { nonce } => {
                    for _ in 0..quirk.stray_acks {
                        ctrl.send(&Msg::HeartbeatAck { nonce: u64::MAX })?;
                    }
                    if !quirk.mute {
                        ctrl.send(&Msg::HeartbeatAck { nonce })?;
                    }
                }
                Msg::Step { .. } => ctrl.send(&Msg::Done {
                    rank: asg.rank,
                    loss_sum: 1.0,
                    busy_ns: 0,
                    events: Vec::new(),
                })?,
                Msg::ParamReq { .. } => {
                    if quirk.hang_up_on_req == Some(reqs) {
                        return Ok(());
                    }
                    reqs += 1;
                    let entries = vec![(format!("s{}.w", asg.stage), Tensor::full([2], 0.5))];
                    ctrl.send(&Msg::ParamSnap { entries })?;
                }
                Msg::Restore { .. } => {}
                _ => {
                    return ctrl.send(&Msg::Stats {
                        counters: Vec::new(),
                    })
                }
            }
        }
    }

    /// Dispatches one probed step to a fresh scripted round whose slot 1
    /// behaves as `quirk`, then drains it the way the poll loop does until
    /// it settles.
    fn one_probed_step(cfg: &DistConfig, quirk: Quirk) -> Pending {
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
        let mut round = start_round(&host, &job, cfg.lanes, None, Vec::new()).expect("round");
        let base = world_nonce_base(WorldId(0), 0);
        let mut p = Pending::new(round.topo, cfg, net.now_ns(), base, None, None);
        let step = Msg::Step {
            step: 0,
            die: false,
            stall_ms: 0,
            micro_batches: Vec::new(),
        };
        for (rank, wc) in round.conns.iter_mut().enumerate() {
            p.send(rank, &mut wc.ctrl, &step).expect("dispatch");
        }
        while !p.settled() {
            let mut conns: Vec<&mut SimConn> = p
                .ranks
                .iter()
                .zip(round.conns.iter_mut())
                .filter(|(slot, _)| !slot.complete())
                .map(|(_, wc)| &mut wc.ctrl)
                .collect();
            net.wait_ready(&mut conns, POLL_WAIT).expect("wait");
            p.drain(&mut round.conns, net.now_ns());
        }
        p
    }

    /// Heartbeats ride the step: every rank's ack is matched to its own
    /// nonce, its round trip from dispatch is measured on the transport
    /// clock, and up to `MAX_STRAY_ACKS` acks with nonces from outside the
    /// step's window ahead of it are dropped without failing the rank.
    #[test]
    fn acks_ride_the_step_with_their_rtt_measured_and_stray_acks_dropped() {
        let cfg = cfg_for(25, 2, 2);
        let quirk = Quirk {
            stray_acks: MAX_STRAY_ACKS,
            ..Quirk::default()
        };
        let p = one_probed_step(&cfg, quirk);
        assert_eq!(p.stale, None);
        let one_way = SimConfig::clean(0).base_latency_ns;
        let strays: Vec<usize> = p.ranks.iter().map(|r| r.strays).collect();
        assert_eq!(strays, [0, MAX_STRAY_ACKS, 0, 0]);
        for (rank, slot) in p.ranks.iter().enumerate() {
            assert!(
                matches!(slot.verdict, Some(Verdict::Done { .. })),
                "rank {rank}"
            );
            match slot.ack {
                Awaited::Got(rtt) => assert!(rtt >= 2 * one_way, "rank {rank}: rtt {rtt} ns"),
                _ => panic!("rank {rank} has no ack"),
            }
        }
    }

    /// More than `MAX_STRAY_ACKS` stray acks from one rank in one step is
    /// a typed failure of that rank, never an unbounded loop.
    #[test]
    fn a_flood_of_stray_acks_fails_the_rank() {
        let quirk = Quirk {
            stray_acks: MAX_STRAY_ACKS + 1,
            ..Quirk::default()
        };
        let p = one_probed_step(&cfg_for(26, 2, 2), quirk);
        for (rank, slot) in p.ranks.iter().enumerate() {
            match (&slot.verdict, rank) {
                (Some(Verdict::Failed(detail)), 1) => assert_eq!(
                    detail,
                    "liveness probe: malformed payload: probe drowned in stray acks"
                ),
                (Some(Verdict::Done { .. }), 0 | 2 | 3) => {}
                _ => panic!("rank {rank} settled wrong"),
            }
        }
    }

    /// A probed rank that computes its step but never acks is `Stale` once
    /// `liveness_timeout` has passed since dispatch — long before the step
    /// deadline: the step fails, its result is discarded, and the
    /// respawned world replays it.
    #[test]
    fn a_silent_rank_is_stale_at_its_liveness_deadline() {
        let mut cfg = cfg_for(27, 2, 2);
        cfg.liveness_timeout = Duration::from_secs(1);
        let mute = Quirk {
            mute: true,
            ..Quirk::default()
        };
        let p = one_probed_step(&cfg, mute);
        assert_eq!(p.stale.as_ref().map(|(rank, _)| *rank), Some(1));
        for (rank, slot) in p.ranks.iter().enumerate() {
            match (&slot.verdict, rank) {
                (Some(Verdict::Failed(detail)), 1) => {
                    assert_eq!(detail, "liveness probe: peer missed its liveness deadline")
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
                "rank 1 down (stage 0, lane 1): liveness probe: peer missed its liveness deadline"
            )),
            "{:?}",
            report.log
        );
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
        // Requests: 0 = the initial snapshot, 1 = the periodic one riding
        // step 1 (kept at cursor 2), 2 = the final one riding step 2.
        for (req, what, cursor) in [(1, "snapshot fetch", 0), (2, "final fetch", 2)] {
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

    /// A 2-stage × 2-lane round whose ranks are scripted peers on loopback
    /// TCP. Each canonical peer answers its `ParamReq` only once *both*
    /// have received theirs, so a fetch that waited for stage 0's reply
    /// before asking stage 1 fails here.
    #[test]
    fn fetch_params_asks_every_stage_first_and_reports_the_frames_bytes() {
        use crate::transport::{Listener, Tcp};
        use crate::wire::encode_frame;
        use std::sync::{Condvar, Mutex};

        let topo = Topology {
            stages: 2,
            lanes: 2,
        };
        let snaps: Vec<Vec<(String, Tensor)>> = vec![
            vec![
                ("s0.w".into(), Tensor::full([3, 5], 0.5)),
                ("s0.bias".into(), Tensor::full([5], -1.0)),
            ],
            vec![("s1.head.weight".into(), Tensor::full([2, 2, 2], 2.0))],
        ];
        let timeout = Duration::from_secs(5);
        let listener = Tcp::LOOPBACK.bind().unwrap();
        let asked = (Mutex::new(0usize), Condvar::new());
        std::thread::scope(|scope| {
            let mut conns = Vec::new();
            for rank in 0..topo.world() {
                let mut peer = Tcp::LOOPBACK.connect(listener.port(), timeout).unwrap();
                conns.push(WorkerConn {
                    ctrl: listener.accept(timeout, timeout).unwrap(),
                    data_port: 0,
                });
                if topo.lane_of(rank) != 0 {
                    continue; // never asked: its socket just closes
                }
                let entries = snaps[topo.stage_of(rank)].clone();
                let (asked, changed) = &asked;
                scope.spawn(move || {
                    let req = peer.recv().unwrap();
                    let want = Msg::ParamReq {
                        trainable_only: true,
                    };
                    assert_eq!(req, want);
                    let mut n = asked.lock().unwrap();
                    *n += 1;
                    changed.notify_all();
                    let (n, _) = changed
                        .wait_timeout_while(n, timeout / 2, |n| *n < topo.stages)
                        .unwrap();
                    assert_eq!(*n, topo.stages, "asked one stage at a time");
                    drop(n);
                    peer.send(&Msg::ParamSnap { entries }).unwrap();
                });
            }
            let mut round = Round {
                conns,
                world: None,
                topo,
            };
            let (stages, bytes) = round.fetch_params().expect("fetch");
            let frames: usize = snaps
                .iter()
                .map(|entries| {
                    let entries = entries.clone();
                    encode_frame(&Msg::ParamSnap { entries }).len()
                })
                .sum();
            assert_eq!(bytes, frames);
            assert_eq!(stages, snaps, "stage order");
        });
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
