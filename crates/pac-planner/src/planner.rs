//! Stage-count sweep and plan selection (paper Eq. 4–6).

use crate::dp::partition_for_stages;
use crate::profile::Profile;
use pac_cluster::{Cluster, CostModel};
use pac_parallel::{simulate_plan, ParallelPlan, Schedule};

/// One evaluated candidate (a stage count with its optimal partition).
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// Number of pipeline stages.
    pub stages: usize,
    /// The bottleneck-optimal plan for this stage count.
    pub plan: ParallelPlan,
    /// Best micro-batch count found for this plan.
    pub micro_batches: usize,
    /// Simulated mini-batch makespan (Eq. 4–6 value), seconds.
    pub makespan_s: f64,
    /// Whether the simulated peak memory exceeds device capacity at every
    /// tried micro-batch count.
    pub oom: bool,
}

/// Outcome of a planning run.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The selected plan.
    pub best: ParallelPlan,
    /// Micro-batch count the selected plan runs with.
    pub best_micro_batches: usize,
    /// Its simulated makespan (seconds per mini-batch).
    pub best_makespan_s: f64,
    /// Every evaluated candidate for the winning device subset, in
    /// stage-count order.
    pub candidates: Vec<CandidatePlan>,
    /// Cluster indices of the devices the plan actually uses (ascending).
    /// Devices left idle — because an awkward pool size planned slower
    /// than a subset — don't appear.
    pub device_indices: Vec<usize>,
}

/// The PAC planner: sweeps stage counts, solves the partition DP for each,
/// simulates the resulting pipelines and picks the fastest feasible plan.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Target cluster.
    pub cluster: Cluster,
    /// Mini-batch size.
    pub mini_batch: usize,
    /// Number of micro-batches per mini-batch.
    pub micro_batches: usize,
    /// Micro-batch schedule (the paper uses 1F1B).
    pub schedule: Schedule,
}

impl Planner {
    /// Planner with the paper's defaults: 1F1B, micro-batches = devices.
    pub fn paper_defaults(cluster: Cluster, mini_batch: usize) -> Self {
        let micro = cluster.len().max(1);
        Planner {
            cluster,
            mini_batch,
            micro_batches: micro,
            schedule: Schedule::OneFOneB,
        }
    }

    /// Plans for the model/technique described by `cost`.
    ///
    /// Returns `None` when no stage count yields a feasible (non-OOM) plan
    /// — the "OOM" cells of the paper's Table 2.
    pub fn plan(&self, cost: &CostModel) -> Option<PlanOutcome> {
        let profile = Profile::from_cost_model(cost);
        self.plan_from_profile(cost, &profile)
    }

    /// Micro-batch counts the planner tries for each candidate partition:
    /// powers of two up to the mini-batch size, plus the configured
    /// default. The paper's planner treats micro-batching as part of the
    /// configuration space (more micro-batches amortize pipeline bubbles;
    /// fewer keep per-device shares integral for wide groups).
    fn micro_candidates(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut m = 1usize;
        while m <= self.mini_batch.max(1) {
            out.push(m);
            m *= 2;
        }
        if !out.contains(&self.micro_batches) && self.micro_batches <= self.mini_batch {
            out.push(self.micro_batches);
        }
        out
    }

    /// Replans after fail-stop of the given devices — the recovery path
    /// when a pool member drops off the LAN mid-training. Duplicate indices
    /// count once (a device fails only once); out-of-range indices are
    /// rejected. Returns `None` when the surviving devices cannot host the
    /// model (or none survive).
    pub fn replan_without(&self, cost: &CostModel, failed: &[usize]) -> Option<PlanOutcome> {
        let mut unique: Vec<usize> = failed.to_vec();
        unique.sort_unstable();
        unique.dedup();
        if unique.last().is_some_and(|&i| i >= self.cluster.len()) {
            return None;
        }
        if unique.len() >= self.cluster.len() {
            return None;
        }
        let survivor = Planner {
            cluster: self.cluster.without_devices(&unique),
            ..self.clone()
        };
        survivor.plan(cost)
    }

    /// Plans from an explicit profile (e.g. a measured one).
    ///
    /// The sweep covers device *subsets* as well as stage counts: an
    /// awkward pool size can plan slower than a smaller one (e.g. five
    /// devices force ragged groups where four split cleanly), so the
    /// planner tries leaving the slowest devices idle, fastest-first
    /// prefixes only. This also makes planning monotone under device loss
    /// on homogeneous pools — removing a device only shrinks the searched
    /// subset lattice, so the best makespan can never improve.
    pub fn plan_from_profile(&self, cost: &CostModel, profile: &Profile) -> Option<PlanOutcome> {
        let d = self.cluster.len();
        if d == 0 {
            return None;
        }
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| {
            self.cluster.devices[b]
                .effective_flops()
                .total_cmp(&self.cluster.devices[a].effective_flops())
        });
        let mut best: Option<PlanOutcome> = None;
        for k in 1..=d {
            let mut used: Vec<usize> = order[..k].to_vec();
            used.sort_unstable();
            let sub = Cluster {
                devices: used
                    .iter()
                    .map(|&i| self.cluster.devices[i].clone())
                    .collect(),
                link: self.cluster.link,
            };
            let survivor = Planner {
                cluster: sub,
                ..self.clone()
            };
            if let Some(mut out) = survivor.plan_all_devices(cost, profile) {
                out.device_indices = used;
                if best
                    .as_ref()
                    .map(|b| out.best_makespan_s < b.best_makespan_s)
                    .unwrap_or(true)
                {
                    best = Some(out);
                }
            }
        }
        best
    }

    /// The single-subset sweep: stage counts × micro-batch counts over
    /// *all* of `self.cluster`'s devices.
    fn plan_all_devices(&self, cost: &CostModel, profile: &Profile) -> Option<PlanOutcome> {
        let d = self.cluster.len();
        let mut candidates = Vec::new();
        let mut best: Option<(ParallelPlan, usize, f64)> = None;
        let limit = self
            .cluster
            .devices
            .iter()
            .map(|dev| dev.usable_memory)
            .min()
            .unwrap_or(0);

        let micros = self.micro_candidates();
        for s in 1..=d.min(profile.num_layers()) {
            let mut cand_best: Option<(ParallelPlan, usize, f64)> = None;
            for &micro in &micros {
                let samples_per_micro = self.mini_batch as f64 / micro as f64;
                let Some((plan, _bottleneck)) =
                    partition_for_stages(profile, &self.cluster, s, samples_per_micro, s)
                else {
                    continue;
                };
                let sim = simulate_plan(
                    &self.cluster,
                    cost,
                    &plan,
                    self.mini_batch,
                    micro,
                    self.schedule,
                );
                if sim.oom_stage(limit).is_some() {
                    continue;
                }
                if cand_best
                    .as_ref()
                    .map(|(_, _, t)| sim.makespan_s < *t)
                    .unwrap_or(true)
                {
                    cand_best = Some((plan, micro, sim.makespan_s));
                }
            }
            match cand_best {
                Some((plan, micro, t)) => {
                    if best.as_ref().map(|(_, _, bt)| t < *bt).unwrap_or(true) {
                        best = Some((plan.clone(), micro, t));
                    }
                    candidates.push(CandidatePlan {
                        stages: s,
                        plan,
                        micro_batches: micro,
                        makespan_s: t,
                        oom: false,
                    });
                }
                None => {
                    // Record the infeasibility if a partition existed at all.
                    if let Some((plan, _)) =
                        partition_for_stages(profile, &self.cluster, s, self.mini_batch as f64, s)
                    {
                        candidates.push(CandidatePlan {
                            stages: s,
                            plan,
                            micro_batches: 1,
                            makespan_s: f64::INFINITY,
                            oom: true,
                        });
                    }
                }
            }
        }

        best.map(|(plan, micro, makespan)| PlanOutcome {
            best: plan,
            best_micro_batches: micro,
            best_makespan_s: makespan,
            candidates,
            device_indices: (0..d).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::ModelConfig;
    use pac_peft::Technique;

    fn planner(n: usize, mini_batch: usize) -> Planner {
        Planner::paper_defaults(Cluster::nanos(n), mini_batch)
    }

    #[test]
    fn plans_are_valid_and_feasible() {
        let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
        let out = planner(4, 4)
            .plan(&cost)
            .expect("T5-Base must be plannable");
        assert!(out.best.validate(24, 4).is_ok());
        assert!(out.best_makespan_s > 0.0);
        assert!(!out.candidates.is_empty());
        // The best plan is the fastest non-OOM candidate.
        let min_feasible = out
            .candidates
            .iter()
            .filter(|c| !c.oom)
            .map(|c| c.makespan_s)
            .fold(f64::INFINITY, f64::min);
        assert!((out.best_makespan_s - min_feasible).abs() < 1e-12);
    }

    #[test]
    fn fig10_bart_large_on_8_nanos_prefers_shallow_wide_plans() {
        // Paper Fig 10: with 8 devices PAC divides BART-Large into 2 stages
        // of 4 devices each rather than Eco-FL's 8-stage straight pipeline.
        let cost = CostModel::new(
            ModelConfig::bart_large(),
            Technique::parallel_default(),
            128,
        );
        let out = planner(8, 8)
            .plan(&cost)
            .expect("BART-Large must be plannable on 8 Nanos");
        assert!(
            out.best.num_stages() < 8,
            "expected a hybrid plan, got {} stages ({})",
            out.best.num_stages(),
            out.best.grouping_string()
        );
        assert!(out.best.num_stages() >= 2, "{}", out.best.grouping_string());
    }

    #[test]
    fn full_t5_large_is_unplannable_on_small_clusters() {
        // Table 2: Full fine-tuning of T5-Large OOMs on every baseline —
        // even pipelined over 4 Nanos the per-stage working set is too big.
        let cost = CostModel::new(ModelConfig::t5_large(), Technique::Full, 128);
        assert!(planner(4, 16).plan(&cost).is_none());
    }

    #[test]
    fn peft_makes_t5_large_plannable() {
        let cost = CostModel::new(ModelConfig::t5_large(), Technique::parallel_default(), 128);
        let out = planner(8, 8).plan(&cost);
        assert!(out.is_some(), "PA should unlock T5-Large on 8 Nanos");
    }

    #[test]
    fn single_device_planning_degenerates_to_standalone() {
        let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
        let out = planner(1, 2).plan(&cost).expect("standalone plan");
        assert_eq!(out.best.num_stages(), 1);
        assert_eq!(out.best.num_devices(), 1);
    }

    #[test]
    fn straggler_shifts_work_away() {
        // With one Nano slowed 4×, the planner's best plan must beat the
        // naive even pipeline (which would put equal work on the
        // straggler) when both are simulated on the straggler cluster.
        let cluster = Cluster::nanos(4).with_straggler(3, 4.0);
        let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
        let planner = Planner::paper_defaults(cluster.clone(), 8);
        let outcome = planner.plan(&cost).expect("plannable with a straggler");

        let layers = cost.layer_costs().len();
        let naive = pac_parallel::ParallelPlan::pipeline_even(layers, 4);
        let naive_sim =
            pac_parallel::simulate_plan(&cluster, &cost, &naive, 8, 4, Schedule::OneFOneB);
        assert!(
            outcome.best_makespan_s < naive_sim.makespan_s,
            "planned {} vs naive {}",
            outcome.best_makespan_s,
            naive_sim.makespan_s
        );
    }

    #[test]
    fn replan_after_failure_recovers() {
        let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
        let planner = planner(8, 8);
        let before = planner.plan(&cost).expect("8 devices plannable");
        // Two devices fail: a valid plan over 6 devices must exist and be
        // slower (or equal) but not catastrophically so.
        let after = planner
            .replan_without(&cost, &[0, 5])
            .expect("6 survivors still plannable");
        assert!(after.best.validate(24, 6).is_ok());
        assert!(after.best_makespan_s >= before.best_makespan_s * 0.9);
        // Losing everything is unplannable.
        assert!(planner
            .replan_without(&cost, &(0..8).collect::<Vec<_>>())
            .is_none());
    }

    #[test]
    fn planning_is_fast() {
        // Paper: "the whole planning time is within three seconds on an
        // edge device" — on this machine the full sweep should be well
        // under one second.
        let cost = CostModel::new(ModelConfig::t5_large(), Technique::parallel_default(), 128);
        let t0 = std::time::Instant::now();
        let _ = planner(8, 8).plan(&cost);
        let elapsed = t0.elapsed();
        assert!(elapsed.as_secs_f64() < 3.0, "planning took {elapsed:?}");
    }
}
