//! Session-per-tenant lifecycle: the unit of work a multi-tenant adapter
//! platform schedules.
//!
//! The paper fine-tunes *one* user's side network over a frozen backbone;
//! a serve deployment multiplexes thousands of such users over the same
//! backbone. Each user is a **tenant** owning exactly one personal adapter
//! (side-network weights + Adam moments, serialized as a `PACCKPT3`
//! checkpoint). A tenant interacts with the platform in **bursts**: attach
//! the adapter, run a few cached-training steps on the tenant's private
//! rows, detach, publish the new adapter version.
//!
//! Two invariants make multi-tenancy safe, and both are enforced here:
//!
//! 1. **Hygiene** — every burst starts by overwriting the whole side
//!    network: with the tenant's adapter when it has one, with the
//!    pristine baseline when it is fresh. A fresh tenant therefore always
//!    trains from the same deterministic init, and no tenant ever from a
//!    previous tenant's leftovers.
//! 2. **Determinism** — a burst's math depends only on the adapter state
//!    and the tenant's seeds, never on which rank runs it or what ran
//!    before. This is what lets the isolation suite pin every tenant's
//!    loss trajectory bitwise.

use pac_nn::{cross_entropy, Adam, Module, Optimizer};
use pac_peft::{AdapterBaseline, CheckpointError, ParallelTuner, TrainCheckpoint};
use pac_tensor::{rng::seeded, TensorError};
use rand::Rng;
use std::fmt;

/// A typed failure of one tenant burst.
#[derive(Debug)]
pub enum TenantError {
    /// Adapter attach/detach failed (name or shape mismatch).
    Checkpoint(CheckpointError),
    /// The forward/backward math failed (shape error).
    Tensor(TensorError),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::Checkpoint(e) => write!(f, "tenant adapter swap failed: {e}"),
            TenantError::Tensor(e) => write!(f, "tenant burst compute failed: {e}"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::Checkpoint(e) => Some(e),
            TenantError::Tensor(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for TenantError {
    fn from(e: CheckpointError) -> Self {
        TenantError::Checkpoint(e)
    }
}

impl From<TensorError> for TenantError {
    fn from(e: TensorError) -> Self {
        TenantError::Tensor(e)
    }
}

/// One tenant fine-tuning burst: what to run and on whose data.
#[derive(Debug, Clone)]
pub struct BurstSpec {
    /// Tenant identity — tags telemetry, faults, and the workload seed.
    pub tenant: u64,
    /// Seed for the tenant's private rows (combined with `tenant`).
    pub seed: u64,
    /// Cached-training steps to run.
    pub steps: usize,
    /// Rows per step.
    pub rows: usize,
    /// Tokens per row.
    pub seq: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Injected fault: panic before cached step `i` (the serve scheduler
    /// must attribute it to this tenant and leave every other tenant's
    /// trajectory bitwise unchanged).
    pub fault_at: Option<usize>,
}

/// What a completed burst hands back to the platform.
#[derive(Debug)]
pub struct BurstOutcome {
    /// The tenant's adapter after the burst (weights + Adam moments +
    /// advanced cursor), ready to publish.
    pub checkpoint: TrainCheckpoint,
    /// Per-step training losses.
    pub losses: Vec<f32>,
}

/// Runs one tenant burst on `tuner`.
///
/// The sequence is: swap `adapter` in if the tenant has one, else reset to
/// `baseline` (hygiene: either way every trainable parameter, both Adam
/// moments and the gradients are overwritten), fill the activation cache
/// with one full forward of the tenant's rows, then run `spec.steps`
/// cached Adam steps and capture the updated adapter.
///
/// `skip_reset` exists solely for the planted-bug self-test: skipping a
/// fresh tenant's hygiene reset leaks the previous tenant's side network
/// into its trajectory, which the isolation suite must catch.
///
/// # Errors
/// Propagates adapter swap and compute failures as [`TenantError`].
///
/// # Panics
/// Panics when `spec.fault_at` fires — deliberately, so the caller's
/// supervision (`catch_unwind`) is exercised by a real panic.
pub fn run_tenant_burst(
    tuner: &mut ParallelTuner,
    baseline: &AdapterBaseline,
    adapter: Option<&TrainCheckpoint>,
    spec: &BurstSpec,
    skip_reset: bool,
) -> Result<BurstOutcome, TenantError> {
    let (mut epoch, mut step_cursor, mut adam_t) = (0, 0, 0);
    match adapter {
        // `swap_in` checks that the adapter covers every trainable
        // parameter before it writes, then sets each one's value and both
        // moments and zeroes the gradients: a reset before it would be
        // overwritten whole.
        Some(ckpt) => {
            tuner.swap_in(ckpt)?;
            epoch = ckpt.epoch;
            step_cursor = ckpt.step;
            adam_t = ckpt.adam_t;
        }
        None if !skip_reset => tuner.reset_to(baseline)?,
        None => {}
    }

    // The tenant's private rows: deterministic in (tenant, seed, cursor),
    // so re-running a burst reproduces it bitwise on any rank.
    let mut rng = seeded(spec.seed ^ spec.tenant.rotate_left(17) ^ step_cursor);
    let rows: Vec<Vec<usize>> = (0..spec.rows)
        .map(|_| (0..spec.seq).map(|_| rng.gen_range(0..64)).collect())
        .collect();
    let targets: Vec<usize> = (0..spec.rows).map(|_| rng.gen_range(0..2)).collect();

    // Epoch-1 fill: one full forward caches the backbone activations;
    // every subsequent step trains purely from the cache.
    let (_, ctx) = tuner.forward_full(&rows)?;
    let acts = ctx.layer_outputs;

    let mut opt = Adam::new(spec.lr);
    opt.t = adam_t;
    let mut losses = Vec::with_capacity(spec.steps);
    for i in 0..spec.steps {
        if spec.fault_at == Some(i) {
            panic!(
                "injected tenant fault: tenant {} dies before cached step {i}",
                spec.tenant
            );
        }
        let (logits, sctx) = tuner.forward_cached(&acts)?;
        let (loss, dl) = cross_entropy(&logits, &targets)?;
        tuner.zero_grads();
        tuner.backward(&sctx, &dl)?;
        opt.step(tuner);
        losses.push(loss);
        pac_telemetry::counter_inc("serve.steps.serviced");
    }

    let checkpoint = TrainCheckpoint::capture(tuner, epoch, step_cursor + spec.steps as u64, opt.t);
    Ok(BurstOutcome { checkpoint, losses })
}

/// Where a tenant session stands in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantPhase {
    /// Admitted; no burst has run yet.
    Admitted,
    /// A burst is in flight on some rank.
    Running,
    /// Parked between bursts with a published adapter version.
    Parked {
        /// Latest adapter version in the registry.
        version: u32,
    },
    /// The last burst faulted; the adapter stays at the last published
    /// version (or none) and the fault is attributed here.
    Faulted {
        /// Human-readable fault attribution.
        detail: String,
    },
}

/// One tenant's standing with the platform across bursts: identity,
/// lifecycle phase, and the fairness ledger (serviced steps, wait ticks).
#[derive(Debug, Clone)]
pub struct TenantSession {
    /// Tenant identity.
    pub tenant: u64,
    /// Lifecycle phase.
    pub phase: TenantPhase,
    /// Cached-training steps serviced so far.
    pub serviced_steps: u64,
    /// Scheduler ticks spent waiting for service.
    pub wait_ticks: u64,
    /// Loss trajectory across all completed bursts.
    pub losses: Vec<f32>,
}

impl TenantSession {
    /// A freshly admitted tenant.
    pub fn admitted(tenant: u64) -> Self {
        TenantSession {
            tenant,
            phase: TenantPhase::Admitted,
            serviced_steps: 0,
            wait_ticks: 0,
            losses: Vec::new(),
        }
    }

    /// Marks a burst in flight.
    pub fn begin_burst(&mut self) {
        self.phase = TenantPhase::Running;
    }

    /// Books a completed burst: published `version`, per-step `losses`.
    pub fn complete_burst(&mut self, version: u32, losses: &[f32]) {
        self.serviced_steps += losses.len() as u64;
        self.losses.extend_from_slice(losses);
        self.phase = TenantPhase::Parked { version };
    }

    /// Books a faulted burst with its attribution; the trajectory is
    /// untouched (the burst published nothing).
    pub fn fault_burst(&mut self, detail: String) {
        self.phase = TenantPhase::Faulted { detail };
    }

    /// Final loss of the tenant's trajectory, if any burst completed.
    pub fn final_loss(&self) -> Option<f32> {
        self.losses.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::{EncDecModel, ModelConfig};

    fn tuner(seed: u64) -> ParallelTuner {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let model = EncDecModel::new(&cfg, 2, &mut seeded(seed));
        ParallelTuner::new(model, 4, 2, &mut seeded(seed + 1))
    }

    fn spec(tenant: u64) -> BurstSpec {
        BurstSpec {
            tenant,
            seed: 99,
            steps: 3,
            rows: 2,
            seq: 4,
            lr: 5e-2,
            fault_at: None,
        }
    }

    #[test]
    fn burst_is_deterministic_and_rank_independent() {
        // Same tenant, two different host tuners cloned from one
        // prototype: bitwise-identical losses and checkpoints.
        let proto = tuner(500);
        let base = proto.baseline();
        let (mut a, mut b) = (proto.clone(), proto.clone());
        let out_a = run_tenant_burst(&mut a, &base, None, &spec(7), false).unwrap();
        let out_b = run_tenant_burst(&mut b, &base, None, &spec(7), false).unwrap();
        assert_eq!(out_a.losses.len(), 3);
        for (x, y) in out_a.losses.iter().zip(&out_b.losses) {
            assert_eq!(x.to_bits(), y.to_bits(), "burst must be deterministic");
        }
        assert_eq!(
            out_a.checkpoint.to_bytes().unwrap(),
            out_b.checkpoint.to_bytes().unwrap()
        );
    }

    #[test]
    fn resuming_from_published_adapter_is_host_independent() {
        // A burst resumed from a published adapter must be bitwise
        // identical no matter which host tuner runs it: publish/attach
        // round-trips the complete state (weights, Adam moments, cursor).
        let proto = tuner(501);
        let base = proto.baseline();
        let mut host_a = proto.clone();
        let first = run_tenant_burst(&mut host_a, &base, None, &spec(9), false).unwrap();
        // Dirty host_a with a different tenant in between.
        run_tenant_burst(&mut host_a, &base, None, &spec(10), false).unwrap();

        let on_a =
            run_tenant_burst(&mut host_a, &base, Some(&first.checkpoint), &spec(9), false).unwrap();
        let mut host_b = proto.clone();
        let on_b =
            run_tenant_burst(&mut host_b, &base, Some(&first.checkpoint), &spec(9), false).unwrap();
        assert_eq!(on_a.losses.len(), 3);
        for (x, y) in on_a.losses.iter().zip(&on_b.losses) {
            assert_eq!(x.to_bits(), y.to_bits(), "resume must be host-independent");
        }
        assert_eq!(
            on_a.checkpoint.to_bytes().unwrap(),
            on_b.checkpoint.to_bytes().unwrap()
        );
        // The resumed burst advanced the cursor past the first.
        assert_eq!(on_a.checkpoint.step, first.checkpoint.step + 3);
        assert!(on_a.checkpoint.adam_t > first.checkpoint.adam_t);
    }

    #[test]
    fn swapping_an_adapter_in_needs_no_reset_first() {
        // Tenant B's burst on a host that just ran tenant A (A's weights,
        // moments and last gradients still in it) equals the same burst on
        // a freshly reset host: the swap alone overwrites all of it.
        let proto = tuner(503);
        let base = proto.baseline();
        let adapter_b = run_tenant_burst(&mut proto.clone(), &base, None, &spec(20), false)
            .unwrap()
            .checkpoint;
        let mut after_a = proto.clone();
        run_tenant_burst(&mut after_a, &base, None, &spec(21), false).unwrap();
        let mut reset = proto.clone();
        reset.reset_to(&base).unwrap();

        let on_a =
            run_tenant_burst(&mut after_a, &base, Some(&adapter_b), &spec(20), false).unwrap();
        let on_reset =
            run_tenant_burst(&mut reset, &base, Some(&adapter_b), &spec(20), false).unwrap();
        assert_eq!(on_a.losses.len(), 3);
        for (x, y) in on_a.losses.iter().zip(&on_reset.losses) {
            assert_eq!(x.to_bits(), y.to_bits(), "tenant A leaked into B's burst");
        }
        assert_eq!(
            on_a.checkpoint.to_bytes().unwrap(),
            on_reset.checkpoint.to_bytes().unwrap()
        );
    }

    #[test]
    fn skipping_the_hygiene_reset_leaks_across_tenants() {
        // The planted-bug mechanism: a fresh tenant after a skipped reset
        // trains from the previous tenant's leftovers, not the baseline.
        let proto = tuner(502);
        let base = proto.baseline();
        let mut host = proto.clone();
        run_tenant_burst(&mut host, &base, None, &spec(1), false).unwrap();

        let clean = run_tenant_burst(&mut host.clone(), &base, None, &spec(2), false).unwrap();
        let leaked = run_tenant_burst(&mut host, &base, None, &spec(2), true).unwrap();
        assert_ne!(
            clean.losses[0].to_bits(),
            leaked.losses[0].to_bits(),
            "a skipped reset must visibly corrupt the fresh tenant's trajectory"
        );
    }

    #[test]
    fn session_ledger_tracks_lifecycle() {
        let mut s = TenantSession::admitted(3);
        assert_eq!(s.phase, TenantPhase::Admitted);
        s.begin_burst();
        s.complete_burst(0, &[0.9, 0.8]);
        assert_eq!(s.phase, TenantPhase::Parked { version: 0 });
        assert_eq!(s.serviced_steps, 2);
        assert_eq!(s.final_loss(), Some(0.8));
        s.fault_burst("injected".into());
        assert!(matches!(s.phase, TenantPhase::Faulted { .. }));
        assert_eq!(
            s.final_loss(),
            Some(0.8),
            "fault must not touch the trajectory"
        );
    }
}
