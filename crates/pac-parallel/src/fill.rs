//! Cross-tenant pipeline **bubble filling**, as a plan: when a tenant's
//! 1F1B schedule would leave a stage idle (a pipeline bubble, measured by
//! [`SimResult::bubble_fraction`]), the slot goes to a ready micro-batch
//! from another tenant sharing the frozen backbone.
//!
//! [`plan_filled`] is a deterministic work-conserving timeline planner.
//! Each tenant keeps its *own* per-stage op queue (exactly
//! [`stage_op_sequence`] under [`Schedule::OneFOneB`]); a shared stage only
//! ever executes queue **heads**, so per-tenant op order and the 1F1B
//! in-flight bound are preserved *structurally* — they cannot be violated
//! no matter how slots interleave. [`plan_serialized`] is the unbatched
//! baseline: the same tenants run back-to-back with a full flush between
//! them.
//!
//! Nothing executes these plans: the reference benchmark reads a filled
//! bubble fraction and a single-tenant makespan prediction from them.
//! Running one would mean the pac-net coordinator ordering each rank's ops
//! from [`FilledPlan::ops`].

use crate::schedule::{
    simulate_pipeline, stage_op_sequence, Op, Schedule, SimEvent, SimResult, SimStage,
};

/// One tenant's load for the timeline planner: its per-stage costs (the
/// backbone partition is shared, so every tenant has the same stage
/// *count*, but costs may differ — different adapter ranks, batch shapes)
/// and its micro-batch count.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Per-stage simulated execution parameters.
    pub stages: Vec<SimStage>,
    /// Micro-batches per mini-batch for this tenant.
    pub micros: usize,
}

/// One executed slot in a filled timeline: a [`SimEvent`] plus the tenant
/// that owned the slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilledOp {
    /// Tenant index (position in the planner's input slice).
    pub tenant: usize,
    /// Physical (shared) stage index.
    pub stage: usize,
    /// The tenant's micro-batch id.
    pub micro: usize,
    /// True for forward, false for backward.
    pub forward: bool,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
}

impl FilledOp {
    fn event(&self) -> SimEvent {
        SimEvent {
            stage: self.stage,
            micro: self.micro,
            forward: self.forward,
            start: self.start,
            end: self.end,
        }
    }
}

/// A planned multi-tenant timeline over one shared stage chain.
#[derive(Debug, Clone)]
pub struct FilledPlan {
    /// Every slot in execution order (nondecreasing start time; dependency
    /// producers always precede their consumers).
    pub ops: Vec<FilledOp>,
    /// The combined timeline over the shared stages — its
    /// `bubble_fraction` is the headline metric bubble filling improves.
    pub combined: SimResult,
}

impl FilledPlan {
    fn new(ops: Vec<FilledOp>, s_n: usize) -> Self {
        let combined = SimResult::from_events(ops.iter().map(FilledOp::event).collect(), s_n);
        FilledPlan { ops, combined }
    }
}

fn check_loads(tenants: &[TenantLoad]) -> usize {
    assert!(!tenants.is_empty(), "fill plan: no tenants");
    let s_n = tenants[0].stages.len();
    assert!(s_n > 0, "fill plan: no stages");
    for (t, load) in tenants.iter().enumerate() {
        assert_eq!(
            load.stages.len(),
            s_n,
            "fill plan: tenant {t} has a different stage count (the backbone partition is shared)"
        );
        assert!(
            load.micros > 0,
            "fill plan: tenant {t} has no micro-batches"
        );
    }
    s_n
}

/// Plans a work-conserving filled timeline: whenever a shared stage is
/// free, it runs the earliest-ready queue head over *all* tenants
/// (ties broken by stage index, then tenant index — fully deterministic).
///
/// Per-tenant op order is `stage_op_sequence(OneFOneB, …)` verbatim, and a
/// tenant's in-flight micro-batches at stage `s` never exceed `S − s`,
/// because only that tenant's own queue heads are ever eligible.
///
/// # Panics
/// Panics on caller bugs: no tenants, zero micro-batches, or mismatched
/// per-tenant stage counts (the backbone partition is shared).
pub fn plan_filled(tenants: &[TenantLoad]) -> FilledPlan {
    let s_n = check_loads(tenants);
    let t_n = tenants.len();

    let seqs: Vec<Vec<Vec<Op>>> = tenants
        .iter()
        .map(|load| {
            (0..s_n)
                .map(|s| stage_op_sequence(Schedule::OneFOneB, s, s_n, load.micros))
                .collect()
        })
        .collect();
    let mut ptr = vec![vec![0usize; s_n]; t_n];
    let mut stage_free = vec![0.0f64; s_n];
    let mut fwd_done: Vec<Vec<Vec<f64>>> = tenants
        .iter()
        .map(|l| vec![vec![f64::NAN; l.micros]; s_n])
        .collect();
    let mut bwd_done = fwd_done.clone();
    let mut ops: Vec<FilledOp> = Vec::new();
    let mut remaining: usize = seqs.iter().flatten().map(Vec::len).sum();

    while remaining > 0 {
        // Globally earliest-start-first: the op picked now can never be
        // beaten by one whose dependency is still pending (that dependency
        // itself starts no earlier).
        let mut best: Option<(f64, usize, usize)> = None;
        for s in 0..s_n {
            for t in 0..t_n {
                if ptr[t][s] >= seqs[t][s].len() {
                    continue;
                }
                let ready = match seqs[t][s][ptr[t][s]] {
                    Op::F(mb) => {
                        if s == 0 {
                            Some(0.0)
                        } else {
                            let d = fwd_done[t][s - 1][mb];
                            (!d.is_nan()).then(|| d + tenants[t].stages[s - 1].send_fwd_s)
                        }
                    }
                    Op::B(mb) => {
                        if s == s_n - 1 {
                            let d = fwd_done[t][s][mb];
                            (!d.is_nan()).then_some(d)
                        } else {
                            let d = bwd_done[t][s + 1][mb];
                            (!d.is_nan()).then(|| d + tenants[t].stages[s + 1].send_bwd_s)
                        }
                    }
                };
                let Some(ready) = ready else { continue };
                let start = ready.max(stage_free[s]);
                if best.is_none_or(|(b, _, _)| start < b) {
                    best = Some((start, s, t));
                }
            }
        }
        let (start, s, t) = best.expect("filled schedule deadlocked (internal bug)");
        let op = seqs[t][s][ptr[t][s]];
        let (micro, forward, dur) = match op {
            Op::F(mb) => (mb, true, tenants[t].stages[s].fwd_s),
            Op::B(mb) => (mb, false, tenants[t].stages[s].bwd_s),
        };
        let end = start + dur;
        stage_free[s] = end;
        match op {
            Op::F(mb) => fwd_done[t][s][mb] = end,
            Op::B(mb) => bwd_done[t][s][mb] = end,
        }
        ops.push(FilledOp {
            tenant: t,
            stage: s,
            micro,
            forward,
            start,
            end,
        });
        ptr[t][s] += 1;
        remaining -= 1;
    }

    FilledPlan::new(ops, s_n)
}

/// The unbatched baseline: every tenant runs its solo
/// [`simulate_pipeline`] timeline, serialized back-to-back with a full
/// flush between tenants — each tenant's warmup/drain bubbles are paid in
/// full. Bubble filling must beat this plan's `combined.bubble_fraction`.
///
/// # Panics
/// As [`plan_filled`].
pub fn plan_serialized(tenants: &[TenantLoad]) -> FilledPlan {
    let s_n = check_loads(tenants);
    let mut ops: Vec<FilledOp> = Vec::new();
    let mut offset = 0.0f64;
    for (t, load) in tenants.iter().enumerate() {
        let solo = simulate_pipeline(&load.stages, load.micros, Schedule::OneFOneB);
        let mut span = 0.0f64;
        for e in &solo.events {
            ops.push(FilledOp {
                tenant: t,
                stage: e.stage,
                micro: e.micro,
                forward: e.forward,
                start: e.start + offset,
                end: e.end + offset,
            });
            span = span.max(e.end);
        }
        offset += span;
    }
    ops.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then(a.stage.cmp(&b.stage))
            .then(a.tenant.cmp(&b.tenant))
    });
    FilledPlan::new(ops, s_n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_tensor::rng::seeded;
    use proptest::prelude::*;
    use rand::Rng as _;

    fn uniform(n: usize, fwd: f64, bwd: f64, send: f64) -> Vec<SimStage> {
        vec![
            SimStage {
                fwd_s: fwd,
                bwd_s: bwd,
                send_fwd_s: send,
                send_bwd_s: send,
                weight_bytes: 0,
                act_bytes_per_mb: 0,
                fixed_bytes: 0,
                allreduce_s: 0.0,
            };
            n
        ]
    }

    fn random_loads(seed: u64, t_n: usize, s_n: usize) -> Vec<TenantLoad> {
        let mut rng = seeded(seed);
        (0..t_n)
            .map(|_| TenantLoad {
                stages: (0..s_n)
                    .map(|_| SimStage {
                        fwd_s: 0.1 + rng.gen_range(0..19) as f64 * 0.1,
                        bwd_s: 0.1 + rng.gen_range(0..19) as f64 * 0.1,
                        send_fwd_s: rng.gen_range(0..4) as f64 * 0.05,
                        send_bwd_s: rng.gen_range(0..4) as f64 * 0.05,
                        weight_bytes: 0,
                        act_bytes_per_mb: 0,
                        fixed_bytes: 0,
                        allreduce_s: 0.0,
                    })
                    .collect(),
                micros: 1 + rng.gen_range(0..5usize),
            })
            .collect()
    }

    #[test]
    fn single_tenant_plan_is_bitwise_the_existing_scheduler() {
        for (s_n, m) in [(1, 3), (2, 4), (4, 6)] {
            let stages = uniform(s_n, 1.0, 2.0, 0.1);
            let solo = simulate_pipeline(&stages, m, Schedule::OneFOneB);
            let filled = plan_filled(&[TenantLoad { stages, micros: m }]);
            let mut a: Vec<SimEvent> = solo.events.clone();
            let mut b: Vec<SimEvent> = filled.ops.iter().map(FilledOp::event).collect();
            let key = |e: &SimEvent| (e.start.to_bits(), e.stage, e.micro, e.forward as usize);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.stage, y.stage);
                assert_eq!(x.micro, y.micro);
                assert_eq!(x.forward, y.forward);
                assert_eq!(x.start.to_bits(), y.start.to_bits(), "start drifted");
                assert_eq!(x.end.to_bits(), y.end.to_bits(), "end drifted");
            }
            assert_eq!(
                filled.combined.bubble_fraction.to_bits(),
                SimResult::from_events(solo.events.clone(), s_n)
                    .bubble_fraction
                    .to_bits()
            );
        }
    }

    #[test]
    fn filling_two_tenants_beats_the_serialized_baseline() {
        let loads = vec![
            TenantLoad {
                stages: uniform(3, 1.0, 2.0, 0.1),
                micros: 2,
            },
            TenantLoad {
                stages: uniform(3, 1.5, 1.5, 0.1),
                micros: 3,
            },
        ];
        let filled = plan_filled(&loads);
        let serial = plan_serialized(&loads);
        assert!(
            filled.combined.bubble_fraction < serial.combined.bubble_fraction,
            "filled {} vs serialized {}",
            filled.combined.bubble_fraction,
            serial.combined.bubble_fraction
        );
        assert!(filled.combined.makespan_s < serial.combined.makespan_s);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn filled_plans_preserve_order_bound_and_bubble(
            t_n in 2usize..5,
            s_n in 2usize..5,
            seed in 0u64..10_000,
        ) {
            let loads = random_loads(seed, t_n, s_n);
            let filled = plan_filled(&loads);

            // Determinism: replanning is bitwise identical.
            let bits = |plan: &FilledPlan| -> Vec<_> {
                plan.ops
                    .iter()
                    .map(|o| {
                        let (start, end) = (o.start.to_bits(), o.end.to_bits());
                        (o.tenant, o.stage, o.micro, o.forward, start, end)
                    })
                    .collect()
            };
            prop_assert_eq!(bits(&filled), bits(&plan_filled(&loads)));

            // No per-tenant reorder: each (tenant, stage) slot subsequence
            // is exactly the tenant's solo 1F1B op sequence.
            for (t, load) in loads.iter().enumerate() {
                for s in 0..s_n {
                    let got: Vec<Op> = filled
                        .ops
                        .iter()
                        .filter(|o| o.tenant == t && o.stage == s)
                        .map(|o| if o.forward { Op::F(o.micro) } else { Op::B(o.micro) })
                        .collect();
                    let want = stage_op_sequence(Schedule::OneFOneB, s, s_n, load.micros);
                    prop_assert_eq!(got, want, "tenant {} stage {} reordered", t, s);
                }
            }

            // 1F1B in-flight bound per tenant: stage s holds at most S - s.
            for t in 0..t_n {
                let mut inflight = vec![0isize; s_n];
                for o in filled.ops.iter().filter(|o| o.tenant == t) {
                    if o.forward {
                        inflight[o.stage] += 1;
                        prop_assert!(
                            inflight[o.stage] as usize <= s_n - o.stage,
                            "tenant {} stage {} holds {}",
                            t, o.stage, inflight[o.stage]
                        );
                    } else {
                        inflight[o.stage] -= 1;
                    }
                }
            }

            // Stage serialization and dependency sanity on the shared chain.
            for s in 0..s_n {
                let evs: Vec<&FilledOp> =
                    filled.ops.iter().filter(|o| o.stage == s).collect();
                for w in evs.windows(2) {
                    prop_assert!(w[1].start >= w[0].end - 1e-12, "overlap on stage {}", s);
                }
            }

            // Filling never bubbles more than the serialized baseline.
            let serial = plan_serialized(&loads);
            prop_assert!(
                filled.combined.bubble_fraction
                    <= serial.combined.bubble_fraction + 1e-9,
                "filled {} > serialized {}",
                filled.combined.bubble_fraction,
                serial.combined.bubble_fraction
            );
        }
    }
}
