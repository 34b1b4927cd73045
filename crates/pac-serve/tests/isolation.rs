//! Tenant isolation, proven bitwise.
//!
//! The platform's isolation contract: one tenant faulting — or one
//! platform being *miswired* — must never move any other tenant's loss
//! trajectory by a single bit. Both tests run the same job batch through
//! two platforms and compare trajectories bit-for-bit, which only holds
//! because every burst starts from `reset_to(baseline)` + `swap_in` and
//! is therefore a pure function of (tenant, seed, adapter version), not
//! of the rank, the cache, or the schedule that ran it.
//!
//! The second test is the planted-bug self-test (the `simsweep
//! --planted` idiom): flipping `buggify_skip_reset` plants the one bug
//! the isolation suite exists to catch — a rank skipping the hygiene
//! reset between tenants — and asserts the bitwise detector actually
//! fires. A detector that cannot see the planted bug would be
//! vacuous.
//!
//! The third test pins the same purity against the *executor*: a tick's
//! rank job lists are chunks claimed from the persistent worker pool, so
//! which thread runs which rank is racy by design. Outcomes, final losses
//! and the published registry bytes must not depend on the pool width or
//! on how many ranks share it, and a tenant's panic must leave the pool
//! usable for the next run.

use std::collections::BTreeMap;

use pac_serve::{JobSpec, ServeConfig, ServePlatform};
use pac_store::{MemStore, Store};
use pac_tensor::rayon::pool;

const TENANTS: u64 = 8;
const JOBS_PER_TENANT: usize = 2;

fn batch(fault_tenant: Option<u64>) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for tenant in 0..TENANTS {
        for round in 0..JOBS_PER_TENANT {
            jobs.push(JobSpec {
                tenant,
                steps: 2,
                seed: 300 + round as u64,
                fault_at: if round == 1 && fault_tenant == Some(tenant) {
                    Some(1)
                } else {
                    None
                },
                park: false,
            });
        }
    }
    jobs
}

/// Per-tenant loss trajectories as bit-patterns.
type LossBits = BTreeMap<u64, Vec<u32>>;
/// Per-tenant `(version, final loss)` from the report.
type FinalLosses = BTreeMap<u64, (u32, f32)>;

/// Runs one platform over the batch; returns each tenant's full loss
/// trajectory (bit-patterns) plus the report's final-loss map.
fn trajectories(buggify: bool, fault_tenant: Option<u64>) -> (LossBits, FinalLosses) {
    let mut cfg = ServeConfig::micro(2);
    cfg.buggify_skip_reset = buggify;
    let mut platform = ServePlatform::new(cfg, MemStore::new()).unwrap();
    let report = platform.run(&batch(fault_tenant)).unwrap();
    let mut losses = BTreeMap::new();
    for tenant in 0..TENANTS {
        let session = platform.session(tenant).expect("tenant was admitted");
        losses.insert(tenant, session.losses.iter().map(|l| l.to_bits()).collect());
    }
    (losses, report.final_losses)
}

#[test]
fn tenant_fault_is_attributed_without_touching_other_trajectories() {
    let (clean, clean_final) = trajectories(false, None);
    let (faulted, faulted_final) = trajectories(false, Some(5));

    // The faulted tenant lost its second burst: shorter trajectory,
    // parked at version 1 in the clean run vs absent from the faulted
    // run's final map (its phase is Faulted, not Parked).
    assert_eq!(clean[&5].len(), 2 * JOBS_PER_TENANT);
    assert_eq!(faulted[&5].len(), 2, "faulted burst must publish nothing");
    assert_eq!(clean_final[&5].0, JOBS_PER_TENANT as u32);
    assert!(!faulted_final.contains_key(&5));

    // Everyone else: bitwise identical trajectories and final losses,
    // even though the fault perturbed cache recency and routing for the
    // rest of the run.
    for tenant in (0..TENANTS).filter(|&t| t != 5) {
        assert_eq!(
            clean[&tenant], faulted[&tenant],
            "tenant {tenant}'s trajectory moved when tenant 5 faulted"
        );
        let (cv, cl) = clean_final[&tenant];
        let (fv, fl) = faulted_final[&tenant];
        assert_eq!((cv, cl.to_bits()), (fv, fl.to_bits()));
    }
}

#[test]
fn planted_reset_skip_is_caught_by_the_bitwise_detector() {
    let (clean_a, _) = trajectories(false, None);
    let (clean_b, _) = trajectories(false, None);
    // Sanity: the detector is quiet on two healthy runs (platform
    // determinism end to end).
    assert_eq!(clean_a, clean_b, "healthy runs must be bitwise identical");

    // Plant the bug: ranks skip the hygiene reset before fresh tenants.
    let (planted, _) = trajectories(true, None);
    let diverged: Vec<u64> = (0..TENANTS).filter(|t| clean_a[t] != planted[t]).collect();
    assert!(
        !diverged.is_empty(),
        "the planted reset-skip bug must be visible to the bitwise detector"
    );
    // The very first tenant on each rank trains from a pristine clone,
    // so the leak cannot show up everywhere — but with 8 tenants over 2
    // ranks it must show up somewhere past the first wave.
    assert!(
        diverged.iter().any(|&t| t >= 2),
        "cross-tenant leakage should hit tenants after the first wave, got {diverged:?}"
    );
}

/// Three rounds over six tenants touching every tick path: tenants 0-2
/// stay in the window (warm returns), tenants 3-5 park after every job
/// (backlog re-entry), and tenant 4's second burst panics mid-step, so its
/// third starts over from the baseline.
fn mixed_batch() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for round in 0..3u64 {
        for tenant in 0..6u64 {
            jobs.push(JobSpec {
                tenant,
                steps: 2,
                seed: 700 + round,
                fault_at: (tenant == 4 && round == 1).then_some(1),
                park: tenant >= 3,
            });
        }
    }
    jobs
}

/// Everything a run makes visible, as bit patterns: per-job `(tenant,
/// version, faulted, loss)`, per-tenant `(version, final loss)`, and the
/// registry's raw commits keyed by their `(tenant, version)` meta record.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<(u64, u32, bool, u32)>,
    final_losses: Vec<(u64, u32, u32)>,
    published: BTreeMap<Vec<u8>, Vec<u8>>,
}

/// Runs the mixed batch on `ranks` ranks with this thread's pool calls
/// capped at `width`, then a second, healthy batch on the same platform.
fn observe(ranks: usize, width: usize) -> Observed {
    pool::set_max_concurrency(width);
    let mut platform = ServePlatform::new(ServeConfig::micro(ranks), MemStore::new()).unwrap();
    let report = platform.run(&mixed_batch()).unwrap();

    assert_eq!((report.jobs_completed, report.jobs_faulted), (17, 1));
    let faulted: Vec<u64> = report
        .job_outcomes
        .iter()
        .filter(|o| o.faulted)
        .map(|o| o.tenant)
        .collect();
    assert_eq!(faulted, [4], "the fault is attributed to its tenant alone");
    assert!(report.backbone_shared);

    let store = platform.registry().store();
    let published = (0..store.commits())
        .map(|seq| {
            let c = store.committed(seq).unwrap().expect("commit in range");
            (c.meta, c.payload)
        })
        .collect();
    let observed = Observed {
        outcomes: report
            .job_outcomes
            .iter()
            .map(|o| (o.tenant, o.version, o.faulted, o.final_loss.to_bits()))
            .collect(),
        final_losses: report
            .final_losses
            .iter()
            .map(|(&t, &(v, l))| (t, v, l.to_bits()))
            .collect(),
        published,
    };

    // The panic was caught inside its chunk: no pool worker died with it,
    // so the same platform services the next batch in full.
    let again = platform.run(&batch(None)).unwrap();
    assert_eq!(again.jobs_completed, TENANTS * JOBS_PER_TENANT as u64);
    assert_eq!(again.jobs_faulted, 0);
    pool::set_max_concurrency(usize::MAX);
    observed
}

#[test]
fn serve_is_pool_width_invariant_and_the_pool_survives_a_tenant_panic() {
    let sequential = observe(2, 1);
    let full_width = observe(2, usize::MAX);
    assert_eq!(sequential, full_width, "pool width moved a result");
    // More ranks than the pool has threads (at any PAC_POOL_THREADS this
    // suite is run under): chunks are claimed, not pinned.
    let ranks = 2 * pool::pool_width() + 4;
    let oversubscribed = observe(ranks, usize::MAX);
    assert_eq!(sequential, oversubscribed, "{ranks} ranks moved a result");

    // Siblings are untouched by tenant 4's fault: their three versions
    // are all published, tenant 4 is one short.
    let versions = |tenant: u64| {
        sequential
            .outcomes
            .iter()
            .filter(|o| o.0 == tenant && !o.2)
            .count()
    };
    assert!((0..6).filter(|&t| t != 4).all(|t| versions(t) == 3));
    assert_eq!(versions(4), 2);
}
