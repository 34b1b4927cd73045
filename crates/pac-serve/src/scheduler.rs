//! The serve platform: concurrent per-tenant fine-tuning jobs multiplexed
//! over rank executors that share one CoW backbone.
//!
//! Every rank holds a [`ParallelTuner`] *clone* of one prototype: the
//! frozen backbone tensors are `Arc`-shared copy-on-write, and because a
//! tenant burst only ever writes side-net parameters, the backbone stays
//! physically shared across all ranks for the life of the platform — the
//! report proves it by pointer identity and books the bytes saved.
//!
//! Scheduling is tick-based and deterministic:
//!
//! 1. **Admit + route** (sequential) — up to `active_window` tenants are
//!    active at once; each tick services up to one job per rank,
//!    round-robin over the active set (fairness: the serviced tenants
//!    rotate to the back). Each selected job is routed warm/cold/fresh
//!    and its adapter is loaded (cache clone vs registry fetch, both
//!    timed) and pinned.
//! 2. **Compute** (parallel) — the busy ranks' job lists are the chunks
//!    of one call on the persistent worker pool (`pac_tensor::rayon`, the
//!    pool the kernels run on): chunks are claimed, not pinned, so `ranks`
//!    may exceed the pool width, a tick whose jobs all landed on one rank
//!    runs inline, and a tick starts no OS thread. Everything pure
//!    about a job happens here: the burst — which starts from
//!    `swap_in(adapter)`, or `reset_to(baseline)` for a fresh tenant, each
//!    overwriting the whole side network, so rank state can never leak
//!    between tenants — and the PACCKPT3 encode of its outcome.
//!    Panics are caught per job inside the chunk and attributed to the
//!    tenant; the pool never sees them.
//! 3. **Commit** (sequential) — only what touches shared state: completed
//!    bursts commit their encoded bytes as the next adapter version and
//!    move the adapter into the rank cache; faulted bursts publish
//!    nothing (the tenant's last version stands) and the fault is booked
//!    on the tenant's session alone.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pac_cluster::{CostModel, DeviceSpec};
use pac_core::{run_tenant_burst, BurstSpec, TenantPhase, TenantSession};
use pac_model::{EncDecModel, ModelConfig};
use pac_nn::Module;
use pac_peft::{AdapterBaseline, ParallelTuner, Technique, TrainCheckpoint};
use pac_store::Store;
use pac_telemetry::{counter_add, counter_inc};
use pac_tensor::rayon::prelude::*;
use pac_tensor::rng::seeded;

use crate::cache::{AdapterCache, CacheBudget};
use crate::registry::{AdapterRegistry, RegistryError};
use crate::router::{Route, Router};

/// Platform-fatal failure (configuration, registry/store). Tenant faults
/// are *not* errors — they are attributed on the tenant's session.
#[derive(Debug)]
pub enum ServeError {
    /// The adapter registry (or its store) failed.
    Registry(RegistryError),
    /// The [`ServeConfig`] cannot schedule anything.
    InvalidConfig {
        /// Which field, and why.
        reason: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Registry(e) => write!(f, "serve registry: {e}"),
            ServeError::InvalidConfig { reason } => write!(f, "serve config: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> Self {
        ServeError::Registry(e)
    }
}

/// One tenant fine-tuning job: a burst of cached training steps.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tenant whose personal adapter this job trains.
    pub tenant: u64,
    /// Cached training steps to run.
    pub steps: usize,
    /// Seed for the tenant's private rows.
    pub seed: u64,
    /// Fault injection: panic before cached step `i` (tests/demo).
    pub fault_at: Option<usize>,
    /// After this job, the tenant parks: it leaves the active window and
    /// re-enters through the admission backlog for its next job (a
    /// sporadic tenant whose adapter will likely be evicted in between —
    /// the realistic source of cold misses). `false` keeps the tenant in
    /// the window until its queue drains (an interactive session).
    pub park: bool,
}

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Rank executors sharing the backbone.
    pub ranks: usize,
    /// Backbone architecture (every tenant adapter fits this model).
    pub model: ModelConfig,
    /// Output classes of the task head.
    pub n_out: usize,
    /// Parallel-Adapters bottleneck reduction.
    pub reduction: usize,
    /// Backbone init seed — all ranks clone one prototype from it.
    pub seed: u64,
    /// Rows per tenant burst.
    pub rows: usize,
    /// Tokens per row.
    pub seq: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Device whose Eq. 4–6 memory ceiling bounds the adapter cache.
    pub device: DeviceSpec,
    /// Cache clamp: resident adapters per rank (budget = clamp × adapter
    /// size, capped by the device ceiling). Keeps eviction honest at
    /// micro scale.
    pub cached_adapters_per_rank: usize,
    /// Concurrently active tenants (admission window).
    pub active_window: usize,
    /// Completed jobs per hit-rate trajectory sample.
    pub trajectory_window: usize,
    /// Planted bug: skip the baseline hygiene reset for fresh tenants
    /// (the isolation self-test's target).
    pub buggify_skip_reset: bool,
}

impl ServeConfig {
    /// Micro-scale defaults: `ranks` executors over a 2+1-layer micro
    /// backbone, eviction-sized cache, 4×ranks active tenants.
    pub fn micro(ranks: usize) -> Self {
        ServeConfig {
            ranks,
            model: ModelConfig::micro(2, 1, 32, 2),
            n_out: 2,
            reduction: 4,
            seed: 17,
            rows: 2,
            seq: 8,
            lr: 5e-2,
            device: DeviceSpec::jetson_nano(),
            cached_adapters_per_rank: 8,
            active_window: 4 * ranks.max(1),
            trajectory_window: 100,
            buggify_skip_reset: false,
        }
    }
}

/// One line of the serve transcript.
#[derive(Debug, Clone)]
pub struct ServeEvent {
    /// Scheduler tick the event happened on.
    pub tick: u64,
    /// Tenant the event concerns.
    pub tenant: u64,
    /// Event kind: `admit`, `route`, `load`, `evict`, `publish`, `fault`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// Per-job result, in input order (what `JobDone` carries on the wire).
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Tenant of the job.
    pub tenant: u64,
    /// Adapter version the job published (0 when faulted).
    pub version: u32,
    /// Whether the job faulted.
    pub faulted: bool,
    /// Final training loss of the burst (NaN when faulted).
    pub final_loss: f32,
}

/// What a serve run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Jobs that completed and published.
    pub jobs_completed: u64,
    /// Jobs that faulted (attributed, nothing published).
    pub jobs_faulted: u64,
    /// Scheduler ticks run.
    pub ticks: u64,
    /// Adapter loads served from a rank cache.
    pub warm_hits: u64,
    /// Adapter loads that went to the registry.
    pub cold_misses: u64,
    /// First bursts of brand-new tenants (nothing to load).
    pub fresh_starts: u64,
    /// Cache evictions across all ranks.
    pub evictions: u64,
    /// Mean warm-load nanoseconds (cache clone).
    pub warm_ns_avg: u64,
    /// Mean cold-load nanoseconds (registry fetch + decode).
    pub cold_ns_avg: u64,
    /// `(jobs_done, warm/(warm+cold))` per trajectory window.
    pub hit_rate_trajectory: Vec<(u64, f64)>,
    /// Peak resident adapter bytes over all ranks combined.
    pub resident_peak_bytes: u64,
    /// Per-rank enforced cache budget.
    pub budget_bytes: u64,
    /// Eq. 4–6 device ceiling the budget was planned under.
    pub device_ceiling_bytes: u64,
    /// One adapter's serialized size.
    pub adapter_bytes: u64,
    /// Whether every rank's backbone aliases the prototype's storage: its
    /// token table and its first layer's packed query projection.
    pub backbone_shared: bool,
    /// Serialized backbone parameter bytes (one copy).
    pub backbone_bytes: u64,
    /// Bytes CoW sharing saved: `(ranks - 1) × backbone_bytes`.
    pub cow_shared_bytes: u64,
    /// Tenants with at least one published version.
    pub tenants_published: u64,
    /// tenant → `(latest version, last loss)` for completed trajectories.
    pub final_losses: BTreeMap<u64, (u32, f32)>,
    /// `(tenant, serviced_steps, wait_ticks)` fairness ledger.
    pub fairness: Vec<(u64, u64, u64)>,
    /// Per-job outcomes in input order.
    pub job_outcomes: Vec<JobOutcome>,
    /// Full transcript.
    pub events: Vec<ServeEvent>,
    /// Wall-clock seconds of the run.
    pub elapsed_secs: f64,
    /// Completed tenant jobs per wall-clock second.
    pub tenants_per_sec: f64,
}

impl ServeReport {
    /// Max/min serviced steps across tenants — the fairness spread.
    pub fn serviced_spread(&self) -> (u64, u64) {
        let lo = self.fairness.iter().map(|&(_, s, _)| s).min().unwrap_or(0);
        let hi = self.fairness.iter().map(|&(_, s, _)| s).max().unwrap_or(0);
        (lo, hi)
    }
}

/// One rank: a backbone-sharing tuner clone plus its adapter cache.
struct RankExecutor {
    tuner: ParallelTuner,
    cache: AdapterCache,
}

/// A job after phase 1: routed, adapter loaded and pinned.
struct PreparedJob {
    job_idx: usize,
    rank: usize,
    park: bool,
    spec: BurstSpec,
    adapter: Option<TrainCheckpoint>,
}

/// What a completed job hands from its rank to the commit phase: the
/// burst's outcome plus its adapter already serialized for the registry.
struct Encoded {
    checkpoint: TrainCheckpoint,
    losses: Vec<f32>,
    payload: Vec<u8>,
}

/// The multi-tenant serve platform over store `S`.
pub struct ServePlatform<S: Store> {
    cfg: ServeConfig,
    baseline: AdapterBaseline,
    ranks: Vec<RankExecutor>,
    registry: AdapterRegistry<S>,
    router: Router,
    adapter_bytes: u64,
    sessions: BTreeMap<u64, TenantSession>,
    events: Vec<ServeEvent>,
    budget: CacheBudget,
    backbone: Option<[usize; 2]>,
    tick: u64,
}

/// The buffers the ranks must share: the backbone's token table and its
/// first layer's packed query projection (`None` when it is not packed).
fn backbone_buffers(tuner: &ParallelTuner) -> Option<[usize; 2]> {
    let model = &tuner.model;
    let layer = model.encoder.layers().chain(&model.decoder).next()?;
    let panels = layer.self_attn.wq.w.panels()?;
    Some([
        model.embedding().0.table.value.data().as_ptr() as usize,
        panels.storage_ptr() as usize,
    ])
}

impl<S: Store> ServePlatform<S> {
    /// Builds the platform: one prototype tuner from `cfg.seed`, `ranks`
    /// CoW clones of it, caches under the planned budget, and the
    /// registry over `store` (pre-existing adapters are picked up).
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] for a configuration whose scheduling
    /// loop could admit or sample nothing; registry failures as
    /// [`ServeError::Registry`].
    pub fn new(cfg: ServeConfig, store: S) -> Result<Self, ServeError> {
        if cfg.active_window == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "active_window is 0: no tenant could ever be admitted",
            });
        }
        if cfg.trajectory_window == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "trajectory_window is 0: hit-rate samples are taken every N jobs",
            });
        }
        let model = EncDecModel::new(&cfg.model, cfg.n_out, &mut seeded(cfg.seed));
        let proto = ParallelTuner::new(model, cfg.reduction, cfg.n_out, &mut seeded(cfg.seed + 1));
        let baseline = proto.baseline();
        let cost = CostModel::new(
            cfg.model.clone(),
            Technique::ParallelAdapters {
                reduction: cfg.reduction,
            },
            cfg.seq,
        );
        // A *published* adapter carries Adam moments (m + v per trainable
        // scalar) on top of the weights the moment-free baseline holds —
        // size cache slots for what tenants actually publish, or the
        // budget silently holds 3x fewer adapters than asked.
        let adapter_bytes = baseline.size_bytes() as u64 + 2 * cost.trainable_bytes_total() as u64;
        let clamp = cfg.cached_adapters_per_rank as u64 * adapter_bytes;
        let budget = CacheBudget::plan(&cfg.device, &cost, cfg.rows, Some(clamp));
        let backbone = backbone_buffers(&proto);
        let ranks = (0..cfg.ranks.max(1))
            .map(|_| RankExecutor {
                tuner: proto.clone(),
                cache: AdapterCache::new(budget.budget_bytes),
            })
            .collect();
        Ok(ServePlatform {
            cfg,
            baseline,
            ranks,
            registry: AdapterRegistry::open(store)?,
            router: Router::new(),
            adapter_bytes,
            sessions: BTreeMap::new(),
            events: Vec::new(),
            budget,
            backbone,
            tick: 0,
        })
    }

    /// The tenant's session ledger, if admitted.
    pub fn session(&self, tenant: u64) -> Option<&TenantSession> {
        self.sessions.get(&tenant)
    }

    /// The registry under the platform.
    pub fn registry(&self) -> &AdapterRegistry<S> {
        &self.registry
    }

    fn event(&mut self, tenant: u64, kind: &'static str, detail: String) {
        self.events.push(ServeEvent {
            tick: self.tick,
            tenant,
            kind,
            detail,
        });
    }

    /// Runs `jobs` to completion and reports. Jobs of one tenant run in
    /// input order; tenants are admitted in first-appearance order into
    /// the active window and serviced round-robin.
    pub fn run(&mut self, jobs: &[JobSpec]) -> Result<ServeReport, ServeError> {
        let started = Instant::now();
        // Per-tenant FIFO queues in first-appearance order.
        let mut queues: HashMap<u64, VecDeque<(usize, JobSpec)>> = HashMap::new();
        let mut arrival: Vec<u64> = Vec::new();
        for (idx, job) in jobs.iter().enumerate() {
            if !queues.contains_key(&job.tenant) {
                arrival.push(job.tenant);
            }
            queues
                .entry(job.tenant)
                .or_default()
                .push_back((idx, job.clone()));
        }
        let mut waiting: VecDeque<u64> = arrival.into();
        let mut active: VecDeque<u64> = VecDeque::new();

        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let mut jobs_completed = 0u64;
        let mut jobs_faulted = 0u64;
        let mut warm_hits = 0u64;
        let mut cold_misses = 0u64;
        let mut fresh_starts = 0u64;
        let mut evictions = 0u64;
        let (mut warm_ns, mut cold_ns) = (0u64, 0u64);
        let mut trajectory: Vec<(u64, f64)> = Vec::new();
        let (mut win_warm, mut win_cold) = (0u64, 0u64);
        let mut resident_peak = 0u64;

        loop {
            // Admission: top the active window up from the backlog.
            while active.len() < self.cfg.active_window {
                match waiting.pop_front() {
                    Some(t) => {
                        let first_admission = !self.sessions.contains_key(&t);
                        self.sessions
                            .entry(t)
                            .or_insert_with(|| TenantSession::admitted(t));
                        if first_admission {
                            self.event(t, "admit", format!("tenant {t} admitted to active window"));
                        } else {
                            self.event(t, "admit", format!("tenant {t} re-admitted from backlog"));
                        }
                        active.push_back(t);
                    }
                    None => break,
                }
            }
            if active.is_empty() {
                break;
            }
            self.tick += 1;

            // Select: one job for up to `ranks` tenants from the front of
            // the rotation.
            let k = self.ranks.len().min(active.len());
            let selected: Vec<u64> = (0..k)
                .map(|_| active.pop_front().expect("k <= len"))
                .collect();
            // Everyone still queued behind them waited this tick.
            counter_add("serve.wait.ticks", active.len() as u64);
            for t in &active {
                if let Some(s) = self.sessions.get_mut(t) {
                    s.wait_ticks += 1;
                }
            }

            // Phase 1: route + load + pin, sequentially.
            let mut load = vec![0usize; self.ranks.len()];
            let mut assignments: Vec<Vec<PreparedJob>> =
                (0..self.ranks.len()).map(|_| Vec::new()).collect();
            for &tenant in &selected {
                let (job_idx, job) = queues
                    .get_mut(&tenant)
                    .and_then(VecDeque::pop_front)
                    .expect("active tenant has a queued job");
                let parked = match self.sessions.get(&tenant).map(|s| &s.phase) {
                    Some(TenantPhase::Parked { version }) => Some(*version),
                    _ => None,
                };
                let warm: Vec<bool> = self
                    .ranks
                    .iter()
                    .map(|r| parked.is_some() && r.cache.peek_version(tenant) == parked)
                    .collect();
                let (rank, route) = self.router.route(parked.is_some(), &warm, &load);
                load[rank] += 1;
                self.event(
                    tenant,
                    "route",
                    format!("job {job_idx} -> rank {rank} ({route:?})"),
                );
                let adapter = match (parked, route) {
                    (Some(version), Route::Warm) => {
                        let t0 = Instant::now();
                        let (v, ck) = self.ranks[rank]
                            .cache
                            .get(tenant)
                            .expect("warm route implies resident");
                        debug_assert_eq!(v, version);
                        let ns = t0.elapsed().as_nanos() as u64;
                        warm_ns += ns;
                        warm_hits += 1;
                        win_warm += 1;
                        self.event(
                            tenant,
                            "load",
                            format!("warm hit v{version} on rank {rank} in {ns}ns"),
                        );
                        Some(ck)
                    }
                    (Some(version), _) => {
                        self.ranks[rank].cache.note_miss();
                        let t0 = Instant::now();
                        let ck = self
                            .registry
                            .fetch(tenant, version)?
                            .expect("parked version is published");
                        let ns = t0.elapsed().as_nanos() as u64;
                        cold_ns += ns;
                        cold_misses += 1;
                        win_cold += 1;
                        let evicted = self.ranks[rank].cache.insert(tenant, version, ck.clone());
                        self.event(
                            tenant,
                            "load",
                            format!("cold miss v{version} -> rank {rank} in {ns}ns"),
                        );
                        for victim in evicted {
                            evictions += 1;
                            self.event(
                                victim,
                                "evict",
                                format!("evicted from rank {rank} to fit tenant {tenant}"),
                            );
                        }
                        Some(ck)
                    }
                    (None, _) => {
                        fresh_starts += 1;
                        None
                    }
                };
                self.ranks[rank].cache.pin(tenant);
                if let Some(s) = self.sessions.get_mut(&tenant) {
                    s.begin_burst();
                }
                assignments[rank].push(PreparedJob {
                    job_idx,
                    rank,
                    park: job.park,
                    spec: BurstSpec {
                        tenant,
                        seed: job.seed,
                        steps: job.steps,
                        rows: self.cfg.rows,
                        seq: self.cfg.seq,
                        lr: self.cfg.lr,
                        fault_at: job.fault_at,
                    },
                    adapter,
                });
            }

            // Phase 2: the busy ranks' job lists are the chunks of one call
            // on the persistent pool. Each chunk runs its bursts in order
            // and serializes what they produced; a panic or a typed
            // failure anywhere in a job is that tenant's fault.
            let baseline = &self.baseline;
            let buggify = self.cfg.buggify_skip_reset;
            let mut busy: Vec<(&mut RankExecutor, Vec<PreparedJob>)> = self
                .ranks
                .iter_mut()
                .zip(assignments)
                .filter(|(_, jobs)| !jobs.is_empty())
                .collect();
            let per_rank: Vec<Vec<(PreparedJob, Result<Encoded, String>)>> = busy
                .par_iter_mut()
                .map(|(exec, jobs)| {
                    std::mem::take(jobs)
                        .into_iter()
                        .map(|pj| {
                            // The planted-bug knob: skip the hygiene reset
                            // for fresh tenants.
                            let skip = buggify && pj.adapter.is_none();
                            let ran = catch_unwind(AssertUnwindSafe(|| {
                                let outcome = run_tenant_burst(
                                    &mut exec.tuner,
                                    baseline,
                                    pj.adapter.as_ref(),
                                    &pj.spec,
                                    skip,
                                )
                                .map_err(|e| e.to_string())?;
                                let payload =
                                    outcome.checkpoint.to_bytes().map_err(|e| e.to_string())?;
                                Ok(Encoded {
                                    checkpoint: outcome.checkpoint,
                                    losses: outcome.losses,
                                    payload,
                                })
                            }));
                            (pj, ran.unwrap_or_else(|p| Err(panic_message(p))))
                        })
                        .collect()
                })
                .collect();
            let mut results: Vec<_> = per_rank.into_iter().flatten().collect();
            results.sort_by_key(|(pj, _)| pj.job_idx);

            // Phase 3: commit in job order.
            let mut finished_this_tick: Vec<u64> = Vec::new();
            let mut parked_this_tick: Vec<u64> = Vec::new();
            for (pj, result) in results {
                let tenant = pj.spec.tenant;
                // Locate the rank that ran it to unpin / refresh its cache.
                match result {
                    Ok(done) => {
                        let version = self.registry.publish_bytes(tenant, &done.payload)?;
                        let final_loss = done.losses.last().copied().unwrap_or(f32::NAN);
                        if let Some(s) = self.sessions.get_mut(&tenant) {
                            s.complete_burst(version, &done.losses);
                        }
                        // Publish-affinity: the fresh version lands in the
                        // cache of the rank that computed it, so the
                        // tenant's next burst routes warm to the same
                        // rank. Stale copies on other ranks are dropped
                        // rather than refreshed (one resident copy per
                        // tenant keeps the budget honest).
                        for exec in self.ranks.iter_mut() {
                            exec.cache.unpin(tenant);
                        }
                        for (r, exec) in self.ranks.iter_mut().enumerate() {
                            if r != pj.rank && exec.cache.contains(tenant) {
                                exec.cache.drop_slot(tenant);
                            }
                        }
                        let evicted =
                            self.ranks[pj.rank]
                                .cache
                                .insert(tenant, version, done.checkpoint);
                        for victim in evicted {
                            evictions += 1;
                            self.events.push(ServeEvent {
                                tick: self.tick,
                                tenant: victim,
                                kind: "evict",
                                detail: format!(
                                    "evicted from rank {} by tenant {tenant} publish",
                                    pj.rank
                                ),
                            });
                        }
                        self.event(
                            tenant,
                            "publish",
                            format!("published v{version}, final loss {final_loss:.4}"),
                        );
                        counter_inc("serve.jobs.completed");
                        jobs_completed += 1;
                        outcomes[pj.job_idx] = Some(JobOutcome {
                            tenant,
                            version,
                            faulted: false,
                            final_loss,
                        });
                    }
                    Err(detail) => {
                        for exec in self.ranks.iter_mut() {
                            exec.cache.unpin(tenant);
                        }
                        if let Some(s) = self.sessions.get_mut(&tenant) {
                            s.fault_burst(detail.clone());
                        }
                        self.event(
                            tenant,
                            "fault",
                            format!("attributed to tenant {tenant}: {detail}"),
                        );
                        counter_inc("serve.jobs.faulted");
                        jobs_faulted += 1;
                        outcomes[pj.job_idx] = Some(JobOutcome {
                            tenant,
                            version: 0,
                            faulted: true,
                            final_loss: f32::NAN,
                        });
                    }
                }
                // Hit-rate trajectory sampling.
                let done = jobs_completed + jobs_faulted;
                if done.is_multiple_of(self.cfg.trajectory_window as u64)
                    && (win_warm + win_cold) > 0
                {
                    trajectory.push((done, win_warm as f64 / (win_warm + win_cold) as f64));
                    win_warm = 0;
                    win_cold = 0;
                }
                if queues.get(&tenant).is_none_or(VecDeque::is_empty) {
                    finished_this_tick.push(tenant);
                } else if pj.park {
                    parked_this_tick.push(tenant);
                }
            }

            let resident_now: u64 = self.ranks.iter().map(|r| r.cache.resident_bytes()).sum();
            resident_peak = resident_peak.max(resident_now);

            // Rotation: serviced tenants with jobs left go to the back;
            // finished tenants leave the window (their successor is
            // admitted at the top of the next tick); parking tenants
            // leave too and re-enter through the backlog later — by the
            // time they return, the intervening tenants have usually
            // evicted their adapter, so their next load is a cold miss.
            for tenant in selected {
                if finished_this_tick.contains(&tenant) {
                    continue;
                }
                if parked_this_tick.contains(&tenant) {
                    self.event(
                        tenant,
                        "park",
                        format!("tenant {tenant} parked; will re-enter via backlog"),
                    );
                    waiting.push_back(tenant);
                } else {
                    active.push_back(tenant);
                }
            }
        }
        if win_warm + win_cold > 0 {
            let done = jobs_completed + jobs_faulted;
            trajectory.push((done, win_warm as f64 / (win_warm + win_cold) as f64));
        }

        let elapsed_secs = started.elapsed().as_secs_f64();
        let backbone_shared = self.backbone.is_some()
            && self
                .ranks
                .iter()
                .all(|r| backbone_buffers(&r.tuner) == self.backbone);
        let backbone_bytes = self.ranks[0].tuner.model.num_params() as u64 * 4;
        let final_losses = self
            .sessions
            .iter()
            .filter_map(|(&t, s)| match s.phase {
                TenantPhase::Parked { version } => s.final_loss().map(|l| (t, (version, l))),
                _ => None,
            })
            .collect();
        let fairness = self
            .sessions
            .values()
            .map(|s| (s.tenant, s.serviced_steps, s.wait_ticks))
            .collect();
        Ok(ServeReport {
            jobs_completed,
            jobs_faulted,
            ticks: self.tick,
            warm_hits,
            cold_misses,
            fresh_starts,
            evictions,
            warm_ns_avg: warm_ns.checked_div(warm_hits).unwrap_or(0),
            cold_ns_avg: cold_ns.checked_div(cold_misses).unwrap_or(0),
            hit_rate_trajectory: trajectory,
            resident_peak_bytes: resident_peak,
            budget_bytes: self.budget.budget_bytes * self.ranks.len() as u64,
            device_ceiling_bytes: self.budget.device_ceiling_bytes,
            adapter_bytes: self.adapter_bytes,
            backbone_shared,
            backbone_bytes,
            cow_shared_bytes: backbone_bytes * (self.ranks.len() as u64 - 1),
            tenants_published: self.registry.tenants() as u64,
            final_losses,
            fairness,
            job_outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every job ran"))
                .collect(),
            events: std::mem::take(&mut self.events),
            elapsed_secs,
            tenants_per_sec: if elapsed_secs > 0.0 {
                jobs_completed as f64 / elapsed_secs
            } else {
                0.0
            },
        })
    }
}

/// Renders a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_store::MemStore;

    fn jobs(tenants: u64, per_tenant: usize) -> Vec<JobSpec> {
        let mut out = Vec::new();
        for round in 0..per_tenant {
            for t in 0..tenants {
                out.push(JobSpec {
                    tenant: t,
                    steps: 2,
                    seed: 1000 + round as u64,
                    fault_at: None,
                    park: false,
                });
            }
        }
        out
    }

    #[test]
    fn platform_services_every_job_and_shares_the_backbone() {
        let mut cfg = ServeConfig::micro(2);
        cfg.trajectory_window = 8;
        let mut platform = ServePlatform::new(cfg, MemStore::new()).unwrap();
        let report = platform.run(&jobs(12, 2)).unwrap();
        assert_eq!(report.jobs_completed, 24);
        assert_eq!(report.jobs_faulted, 0);
        assert!(report.backbone_shared, "CoW backbone must stay shared");
        assert!(report.cow_shared_bytes > 0);
        assert_eq!(report.tenants_published, 12);
        // Every tenant got exactly two versions.
        for t in 0..12 {
            assert_eq!(platform.registry().versions(t), 2);
        }
        // Second bursts load adapters; with a 4-adapter/rank cache and an
        // 8-tenant window some of them hit warm.
        assert_eq!(report.warm_hits + report.cold_misses, 12);
        assert!(
            report.warm_hits > 0,
            "second bursts should find warm adapters"
        );
        assert!(!report.hit_rate_trajectory.is_empty());
        // Fairness: every tenant serviced the same number of steps.
        let (lo, hi) = report.serviced_spread();
        assert_eq!((lo, hi), (4, 4));
        assert_eq!(report.job_outcomes.len(), 24);
        assert!(report
            .job_outcomes
            .iter()
            .all(|o| !o.faulted && o.version >= 1));
    }

    #[test]
    fn a_window_that_admits_nobody_is_rejected_up_front() {
        let reason = |cfg: ServeConfig| match ServePlatform::new(cfg, MemStore::new()) {
            Err(ServeError::InvalidConfig { reason }) => reason,
            Err(other) => panic!("expected InvalidConfig, got {other}"),
            Ok(_) => panic!("expected InvalidConfig, got a platform"),
        };
        let mut cfg = ServeConfig::micro(2);
        cfg.active_window = 0;
        assert!(reason(cfg).contains("active_window"));
        let mut cfg = ServeConfig::micro(2);
        cfg.trajectory_window = 0;
        assert!(reason(cfg).contains("trajectory_window"));
    }

    #[test]
    fn eviction_keeps_resident_bytes_under_budget() {
        let mut cfg = ServeConfig::micro(1);
        cfg.cached_adapters_per_rank = 2;
        cfg.active_window = 6;
        let mut platform = ServePlatform::new(cfg, MemStore::new()).unwrap();
        let report = platform.run(&jobs(6, 2)).unwrap();
        assert!(report.evictions > 0, "6 tenants through 2 slots must evict");
        // One job in flight at a time (1 rank): the pinned working set
        // never exceeds budget + one adapter.
        assert!(report.resident_peak_bytes <= report.budget_bytes + report.adapter_bytes);
    }
}
