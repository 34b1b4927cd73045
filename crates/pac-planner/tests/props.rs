//! Property-based tests for the recovery planner: `replan_without` must be
//! deterministic (recovery is replayable), monotone on homogeneous pools
//! (losing a device never speeds up the plan), and index-robust
//! (duplicates dedupe, out-of-range rejects).

use pac_cluster::{Cluster, CostModel, LinkSpec};
use pac_model::ModelConfig;
use pac_peft::Technique;
use pac_planner::Planner;
use proptest::prelude::*;

fn cost() -> CostModel {
    CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 64)
}

fn planner(n: usize) -> Planner {
    Planner::paper_defaults(Cluster::nanos(n), 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replanning after the same failure always yields the same plan —
    /// the whole recovery path is replayable from (plan, seed).
    #[test]
    fn replan_without_is_deterministic(n in 3usize..6, dead_sel in 0usize..100) {
        let dead = dead_sel % n;
        let p = planner(n);
        let a = p.replan_without(&cost(), &[dead]);
        let b = p.replan_without(&cost(), &[dead]);
        match (a, b) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.best_makespan_s.to_bits(), b.best_makespan_s.to_bits());
                prop_assert_eq!(a.best_micro_batches, b.best_micro_batches);
                prop_assert_eq!(format!("{:?}", a.best), format!("{:?}", b.best));
            }
            (None, None) => {}
            _ => prop_assert!(false, "replan feasibility flapped"),
        }
    }

    /// On a homogeneous pool, losing a device never *improves* the best
    /// makespan: the survivors are a strict subset of identical hardware.
    #[test]
    fn removing_a_device_never_improves_makespan(n in 3usize..6, dead_sel in 0usize..100) {
        let dead = dead_sel % n;
        let p = planner(n);
        let before = p.plan(&cost()).expect("T5-Base plannable on nanos");
        let after = p
            .replan_without(&cost(), &[dead])
            .expect("still plannable on survivors");
        prop_assert!(
            after.best_makespan_s >= before.best_makespan_s * (1.0 - 1e-9),
            "lost a device yet sped up: {} -> {}",
            before.best_makespan_s,
            after.best_makespan_s
        );
    }

    /// Planning against a *measured* link (from the loopback calibration
    /// bench) composes with the search: on identical hardware, a strictly
    /// faster fabric never worsens the best makespan — every candidate's
    /// comm time shrinks, so the min over candidates does too.
    #[test]
    fn faster_measured_link_never_worsens_makespan(
        n in 3usize..6,
        bw_mbps in 32.0f64..256.0,
        lat_ms in 0.1f64..5.0,
    ) {
        let slow = LinkSpec::measured(bw_mbps * 1e6, lat_ms * 1e-3);
        let fast = LinkSpec::measured(bw_mbps * 4.0 * 1e6, lat_ms * 0.25 * 1e-3);
        let plan = |link: LinkSpec| {
            Planner::paper_defaults(Cluster::nanos(n).with_link(link), 4)
                .plan(&cost())
                .expect("plannable on nanos")
        };
        let (s, f) = (plan(slow), plan(fast));
        prop_assert!(
            f.best_makespan_s <= s.best_makespan_s * (1.0 + 1e-9),
            "4x bandwidth + 1/4 latency slowed the plan: {} -> {}",
            s.best_makespan_s,
            f.best_makespan_s
        );
    }

    /// Duplicate failure reports collapse to a single failure.
    #[test]
    fn duplicate_failures_equal_deduped(n in 3usize..6, dead_sel in 0usize..100) {
        let dead = dead_sel % n;
        let p = planner(n);
        let once = p.replan_without(&cost(), &[dead]);
        let thrice = p.replan_without(&cost(), &[dead, dead, dead]);
        match (once, thrice) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.best_makespan_s.to_bits(), b.best_makespan_s.to_bits());
            }
            (None, None) => {}
            _ => prop_assert!(false, "dedup changed feasibility"),
        }
    }

    /// Out-of-range indices and whole-pool failures are rejected, not
    /// silently ignored.
    #[test]
    fn invalid_failure_sets_are_rejected(n in 2usize..5) {
        let p = planner(n);
        prop_assert!(p.replan_without(&cost(), &[n]).is_none());
        let all: Vec<usize> = (0..n).collect();
        prop_assert!(p.replan_without(&cost(), &all).is_none());
        // Duplicates must not smuggle a "partial" failure set past the
        // whole-pool check: [0, 0] on a 2-pool still leaves a survivor.
        if n == 2 {
            prop_assert!(p.replan_without(&cost(), &[0, 0]).is_some());
        }
    }
}
