//! The five workloads. Each is a closed loop with one caller: the next
//! end-to-end call is made only after the previous one has returned.
//!
//! A workload is split into `prepare` (timed as `setup_s`: input generation
//! and construction of whatever the call needs) and the returned closure
//! (the timed end-to-end call plus its output check). Model-init seeds are
//! fixed constants; `--seed` drives only the generated inputs.

use crate::gen;
use pac_core::{PacConfig, PacSession};
use pac_data::TaskKind;
use pac_model::{EncDecModel, EncoderModel, ModelConfig};
use pac_net::{run_multiworld, DistConfig, Spawner, TenantJob};
use pac_nn::{Optimizer, Sgd};
use pac_parallel::engine::{HybridEngine, MicroBatch};
use pac_serve::{JobSpec, ServeConfig, ServePlatform, ServeReport};
use pac_store::MemStore;
use pac_tensor::rng::seeded;

/// Frozen constants of `pac_solo`: the paper's whole flow at hidden 256.
pub mod solo {
    pub const DEVICES: usize = 2;
    pub const EPOCHS: usize = 4;
    pub const BATCH: usize = 16;
    pub const LAYERS: usize = 4;
    pub const HIDDEN: usize = 256;
    pub const HEADS: usize = 4;
    pub const TRAIN_N: usize = 64;
    pub const EVAL_N: usize = 16;
    /// `PacSession` generates rows of this many tokens.
    pub const SEQ: usize = 13;
    pub const BACKBONE_SEED: u64 = 42;
}

/// Frozen constants of `dist_world` and `multi_world`.
pub mod dist {
    pub const HIDDEN: usize = 32;
    pub const MICROS: usize = 2;
    pub const ROWS: usize = 8;
    pub const SEQ: usize = 16;
    /// Lockstep steps of the single 2x2 world.
    pub const WORLD_STEPS: usize = 40;
    /// Lockstep steps of each of the four co-tenant worlds.
    pub const TENANT_STEPS: usize = 12;
    /// `(stages, lanes)` of the four co-tenant worlds.
    pub const TENANT_SHAPES: [(usize, usize); 4] = [(2, 1), (1, 2), (2, 1), (1, 2)];
}

/// Frozen constants of the two serve workloads.
pub mod serve {
    use crate::gen::ChurnShape;
    pub const RANKS: usize = 2;
    pub const CACHED_PER_RANK: usize = 6;
    pub const STEPS: usize = 2;
    pub const CHURN: ChurnShape = ChurnShape {
        jobs: 750,
        tenants: 190,
        scan_every: 125,
        scan_len: 38,
        steps: STEPS,
    };
    pub const WARM_TENANTS: u64 = 8;
    pub const WARM_JOBS_PER_TENANT: usize = 75;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PacSolo,
    DistWorld,
    MultiWorld,
    ServeChurn,
    ServeWarm,
}

impl Workload {
    /// `pac_solo` comes last: it keeps both cores busy, and in this
    /// sandbox the first minute after a build (which does the same) runs
    /// up to 50 % slower, so the workloads that mostly wait go first.
    pub const ALL: [Workload; 5] = [
        Workload::DistWorld,
        Workload::MultiWorld,
        Workload::ServeChurn,
        Workload::ServeWarm,
        Workload::PacSolo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PacSolo => "pac_solo",
            Workload::DistWorld => "dist_world",
            Workload::MultiWorld => "multi_world",
            Workload::ServeChurn => "serve_churn",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one end-to-end call did.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Operations attempted: fine-tuning sessions, lockstep steps, or jobs.
    pub ops: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Training rows consumed.
    pub rows: u64,
    /// Bit patterns of every loss the call produced. The same seed must
    /// reproduce them exactly on every repetition (re-run ≡ re-run).
    pub loss_bits: Vec<u32>,
    /// First output check that failed, if any.
    pub error: Option<String>,
    /// Report-derived layer figures, keyed by per-layer metric name.
    pub layer: Vec<(&'static str, f64)>,
}

pub type Call = Box<dyn FnOnce() -> Rep>;

/// Builds one repetition of `workload` from `seed`.
pub fn prepare(workload: Workload, seed: u64) -> Call {
    match workload {
        Workload::PacSolo => pac_solo(seed),
        Workload::DistWorld => dist_world(seed),
        Workload::MultiWorld => multi_world(seed),
        Workload::ServeChurn => serve(seed, true),
        Workload::ServeWarm => serve(seed, false),
    }
}

fn check(cond: bool, what: impl FnOnce() -> String) -> Option<String> {
    (!cond).then(what)
}

pub fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

pub fn solo_model() -> ModelConfig {
    ModelConfig::micro(solo::LAYERS, 0, solo::HIDDEN, solo::HEADS)
}

pub fn solo_config(seed: u64) -> PacConfig {
    PacConfig {
        devices: solo::DEVICES,
        epochs: solo::EPOCHS,
        batch_size: solo::BATCH,
        seed,
        ..PacConfig::default()
    }
}

fn pac_solo(seed: u64) -> Call {
    let backbone = EncDecModel::new(
        &solo_model(),
        TaskKind::Sst2.n_out(),
        &mut seeded(solo::BACKBONE_SEED),
    );
    let session = PacSession::new(solo_config(seed));
    Box::new(move || {
        let report =
            session.run_with_backbone(backbone, TaskKind::Sst2, solo::TRAIN_N, solo::EVAL_N);
        let mut rep = Rep {
            ops: 1,
            rows: (solo::EPOCHS * solo::TRAIN_N) as u64,
            ..Rep::default()
        };
        match report {
            Err(e) => {
                rep.failed = 1;
                rep.error = Some(format!("PacSession::run failed: {e}"));
            }
            Ok(r) => {
                let stats = r.cache_stats;
                let cached_lookups = (solo::EPOCHS - 1) * solo::TRAIN_N;
                let first = r.epoch_losses.first().copied().unwrap_or(f32::NAN);
                let last = r.epoch_losses.last().copied().unwrap_or(f32::NAN);
                rep.error = check(stats.hits == cached_lookups && stats.misses == 0, || {
                    format!(
                        "cache hits {} misses {} (want {cached_lookups} and 0)",
                        stats.hits, stats.misses
                    )
                })
                .or_else(|| {
                    // Quality: training must work, i.e. the loss must fall
                    // clearly. Over seeds 1..=200 the last epoch ends at
                    // at most 0.49 of the first (`--ignored` test below), so
                    // 0.8 leaves room for seeds nobody has tried; a fixed
                    // threshold such as ln 2 fails seeds that start high.
                    check(last.is_finite() && last < 0.8 * first, || {
                        format!("loss went from {first} to {last}, not below 0.8 of it")
                    })
                });
                rep.loss_bits = bits(&r.epoch_losses);
            }
        }
        rep
    })
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

pub fn world_config(stages: usize, lanes: usize, model_seed: u64) -> DistConfig {
    let mut cfg = DistConfig::loopback(stages, lanes);
    cfg.hidden = dist::HIDDEN;
    cfg.seed = model_seed;
    cfg
}

pub fn world_batches(seed: u64, steps: usize) -> Vec<Vec<MicroBatch>> {
    gen::micro_batches(seed, steps, dist::MICROS, dist::ROWS, dist::SEQ)
}

/// The in-process `HybridEngine` on the same model and batches: the
/// reference of the distributed ≡ in-process invariant.
pub fn inprocess_losses(cfg: &DistConfig, batches: &[Vec<MicroBatch>]) -> Vec<f32> {
    let model = EncoderModel::new(&cfg.model_config(), cfg.n_out, &mut seeded(cfg.seed));
    let stages = model
        .partition(&cfg.partition)
        .expect("partition of the reference model");
    let mut engine = HybridEngine::new(stages, cfg.lanes, cfg.schedule);
    let mut opts: Vec<Box<dyn Optimizer>> = (0..cfg.lanes)
        .map(|_| Box::new(Sgd::new(cfg.lr)) as Box<dyn Optimizer>)
        .collect();
    batches
        .iter()
        .map(|batch| {
            engine.zero_grads();
            let loss = engine
                .run_mini_batch(batch)
                .expect("in-process reference step");
            engine.step(&mut opts);
            loss
        })
        .collect()
}

/// Runs `jobs` through one coordinator and folds the outcome into a `Rep`.
fn run_worlds(jobs: Vec<TenantJob>) -> (Rep, Vec<Vec<f32>>) {
    let want_steps: u64 = jobs.iter().map(|j| j.batches.len() as u64).sum();
    let want_worlds = jobs.len();
    let mut rep = Rep {
        ops: want_steps,
        rows: want_steps * (dist::MICROS * dist::ROWS) as u64,
        ..Rep::default()
    };
    match run_multiworld(&Spawner::Threads, jobs) {
        Err(e) => {
            rep.failed = want_steps;
            rep.error = Some(format!("run_multiworld failed: {e}"));
            (rep, Vec::new())
        }
        Ok(report) => {
            let done: u64 = report.worlds.iter().map(|w| w.losses.len() as u64).sum();
            let recoveries: u32 = report.worlds.iter().map(|w| w.recoveries).sum();
            rep.failed = want_steps.saturating_sub(done);
            rep.error = check(
                report.worlds.len() == want_worlds && done == want_steps && recoveries == 0,
                || {
                    format!(
                        "{} worlds retired {done} steps with {recoveries} recoveries \
                         (want {want_worlds} worlds, {want_steps} steps, 0)",
                        report.worlds.len()
                    )
                },
            );
            let losses: Vec<Vec<f32>> = report.worlds.into_iter().map(|w| w.losses).collect();
            rep.loss_bits = losses.iter().flat_map(|l| bits(l)).collect();
            (rep, losses)
        }
    }
}

fn dist_world(seed: u64) -> Call {
    let cfg = world_config(2, 2, 7);
    let batches = world_batches(seed, dist::WORLD_STEPS);
    Box::new(move || run_worlds(vec![TenantJob::new(0, cfg, batches)]).0)
}

pub fn tenant_jobs(seed: u64) -> Vec<TenantJob> {
    dist::TENANT_SHAPES
        .iter()
        .enumerate()
        .map(|(t, &(stages, lanes))| {
            TenantJob::new(
                t as u64,
                world_config(stages, lanes, 900 + t as u64),
                world_batches(seed.wrapping_add(1 + t as u64), dist::TENANT_STEPS),
            )
        })
        .collect()
}

fn multi_world(seed: u64) -> Call {
    let jobs = tenant_jobs(seed);
    Box::new(move || run_worlds(jobs).0)
}

/// Each tenant's losses when its world runs alone: the reference of the
/// tenant ≡ solo invariant, and the one-at-a-time wall behind
/// `pac-net.multiworld.overlap_ratio`.
pub fn tenants_one_at_a_time(seed: u64) -> Vec<Vec<f32>> {
    tenant_jobs(seed)
        .into_iter()
        .map(|job| run_worlds(vec![job]).1.pop().unwrap_or_default())
        .collect()
}

pub fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::micro(serve::RANKS);
    cfg.cached_adapters_per_rank = serve::CACHED_PER_RANK;
    cfg
}

pub fn serve_jobs(seed: u64, churn: bool) -> Vec<JobSpec> {
    if churn {
        gen::churn_jobs(seed, serve::CHURN)
    } else {
        gen::warm_jobs(
            seed,
            serve::WARM_TENANTS,
            serve::WARM_JOBS_PER_TENANT,
            serve::STEPS,
        )
    }
}

fn serve(seed: u64, churn: bool) -> Call {
    let jobs = serve_jobs(seed, churn);
    let cfg = serve_config();
    let rows_per_job = (cfg.rows * serve::STEPS) as u64;
    let mut platform =
        ServePlatform::new(cfg, MemStore::new()).expect("serve platform over an empty store");
    Box::new(move || {
        let mut rep = Rep {
            ops: jobs.len() as u64,
            rows: jobs.len() as u64 * rows_per_job,
            ..Rep::default()
        };
        match platform.run(&jobs) {
            Err(e) => {
                rep.failed = rep.ops;
                rep.error = Some(format!("ServePlatform::run failed: {e}"));
            }
            Ok(r) => {
                rep.failed = rep.ops - r.jobs_completed.min(rep.ops);
                rep.error = check_serve(&r, jobs.len() as u64, churn);
                rep.layer = serve_layer_figures(&r);
                rep.loss_bits = r
                    .job_outcomes
                    .iter()
                    .map(|o| o.final_loss.to_bits())
                    .collect();
            }
        }
        rep
    })
}

pub fn hit_ratio(r: &ServeReport) -> f64 {
    ratio(r.warm_hits, r.warm_hits + r.cold_misses)
}

fn check_serve(r: &ServeReport, jobs: u64, churn: bool) -> Option<String> {
    let hit = hit_ratio(r);
    check(r.jobs_completed == jobs && r.jobs_faulted == 0, || {
        format!(
            "{} of {jobs} jobs completed, {} faulted",
            r.jobs_completed, r.jobs_faulted
        )
    })
    .or_else(|| {
        check(r.backbone_shared, || {
            "ranks do not share one backbone".into()
        })
    })
    .or_else(|| {
        check(r.resident_peak_bytes <= r.budget_bytes, || {
            format!(
                "resident adapters peaked at {} B over the {} B budget",
                r.resident_peak_bytes, r.budget_bytes
            )
        })
    })
    .or_else(|| {
        // The churn trace must leave a cache policy room to move the hit
        // ratio either way; the warm trace must never fetch.
        if churn {
            check((0.2..=0.8).contains(&hit), || {
                format!("churn hit ratio {hit:.3} outside [0.2, 0.8]")
            })
        } else {
            check(hit >= 0.99 && r.cold_misses == 0, || {
                format!("warm hit ratio {hit:.3} with {} cold misses", r.cold_misses)
            })
        }
    })
}

fn serve_layer_figures(r: &ServeReport) -> Vec<(&'static str, f64)> {
    vec![
        ("pac-serve.hit_ratio", hit_ratio(r)),
        (
            "pac-serve.evictions_per_job",
            ratio(r.evictions, r.jobs_completed),
        ),
        ("pac-serve.warm_load.us", r.warm_ns_avg as f64 / 1e3),
        ("pac-serve.cold_load.us", r.cold_ns_avg as f64 / 1e3),
        (
            "pac-serve.resident_peak_bytes",
            r.resident_peak_bytes as f64,
        ),
        ("pac-serve.ticks_per_job", ratio(r.ticks, r.jobs_completed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_traces_realise_their_hit_ratios() {
        // The checks inside the calls assert [0.2, 0.8] for the churn trace
        // and >= 0.99 with no cold miss for the warm one.
        for seed in [1, 2] {
            for w in [Workload::ServeChurn, Workload::ServeWarm] {
                let rep = prepare(w, seed)();
                assert_eq!(rep.error, None, "{} seed {seed}", w.name());
                assert_eq!(rep.failed, 0);
            }
        }
    }

    #[test]
    fn the_same_seed_repeats_every_loss_bit() {
        let a = prepare(Workload::ServeWarm, 5)();
        let b = prepare(Workload::ServeWarm, 5)();
        let c = prepare(Workload::ServeWarm, 6)();
        assert!(!a.loss_bits.is_empty());
        assert_eq!(a.loss_bits, b.loss_bits);
        assert_ne!(a.loss_bits, c.loss_bits);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// Slow (3 minutes): `cargo test --release -- --ignored --nocapture`.
    /// Backs the quality threshold in `pac_solo` with 200 seeds.
    #[test]
    #[ignore = "runs 200 fine-tuning sessions"]
    fn pac_solo_loss_falls_on_every_seed() {
        let mut worst = 0.0f32;
        for seed in 1..=200 {
            let rep = prepare(Workload::PacSolo, seed)();
            assert_eq!(rep.error, None, "seed {seed}");
            let (first, last) = (
                f32::from_bits(rep.loss_bits[0]),
                f32::from_bits(*rep.loss_bits.last().unwrap()),
            );
            worst = worst.max(last / first);
        }
        println!("worst final/first loss ratio over 200 seeds: {worst}");
    }
}
