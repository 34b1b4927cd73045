//! Figure 9: scalability — throughput and per-device weight memory vs
//! cluster size for PAC, Eco-FL and EDDL (all using Parallel Adapters, no
//! cache, batch size = device count; paper §6.4).

use pac_cluster::{Cluster, CostModel};
use pac_model::ModelConfig;
use pac_parallel::{simulate_data_parallel, ParallelPlan};
use pac_peft::Technique;
use pac_planner::Planner;

/// One point of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Model label.
    pub model: String,
    /// System label.
    pub system: String,
    /// Number of Jetson Nanos.
    pub devices: usize,
    /// Samples per second (Fig 9a); `None` = OOM.
    pub throughput: Option<f64>,
    /// Peak per-device LLM-weight bytes in GB (Fig 9b); `None` = OOM.
    pub weight_gb: Option<f64>,
}

/// Computes Figure 9 over 2–8 devices for the three paper models.
pub fn fig9() -> Vec<Fig9Row> {
    let technique = Technique::parallel_default();
    let mut rows = Vec::new();
    for model in ModelConfig::paper_models() {
        for n in 2..=8usize {
            let cluster = Cluster::nanos(n);
            let limit = cluster.devices[0].usable_memory;
            let cost = CostModel::new(model.clone(), technique, 128);
            let layers = cost.layer_costs().len();
            let mini_batch = n;

            // PAC: planner-selected hybrid (1F1B).
            let planner = Planner::paper_defaults(cluster.clone(), mini_batch);
            let pac = planner.plan(&cost).map(|o| {
                let weights = plan_weight_gb(&o.best, &cost);
                (mini_batch as f64 / o.best_makespan_s, weights)
            });
            rows.push(point(&model.name, "PAC", n, pac));

            // Eco-FL: straight pipeline, GPipe flush with the in-flight
            // wave limited to what memory allows (paper §6.2).
            let plan = ParallelPlan::pipeline_even(layers, n);
            let ecofl =
                pac_parallel::simulate::simulate_ecofl(&cluster, &cost, mini_batch, n).map(|sim| {
                    (
                        mini_batch as f64 / sim.makespan_s,
                        plan_weight_gb(&plan, &cost),
                    )
                });
            rows.push(point(&model.name, "Eco-FL", n, ecofl));

            // EDDL: full replica per device.
            let dp = simulate_data_parallel(&cluster, &cost, mini_batch);
            let full_weights = (cost
                .layer_costs()
                .iter()
                .map(|l| l.weight_bytes)
                .sum::<usize>()
                + cost.config.embedding_params() * 4) as f64
                / 1e9;
            let eddl = (dp.oom_device(limit).is_none())
                .then(|| (mini_batch as f64 / dp.step_s, full_weights));
            rows.push(point(&model.name, "EDDL", n, eddl));
        }
    }
    rows
}

fn plan_weight_gb(plan: &ParallelPlan, cost: &CostModel) -> f64 {
    let layers = cost.layer_costs();
    let embed = cost.config.embedding_params() * 4;
    plan.stages
        .iter()
        .enumerate()
        .map(|(si, s)| {
            let w: usize = layers[s.layer_start..s.layer_end]
                .iter()
                .map(|l| l.weight_bytes)
                .sum();
            w + if si == 0 || si == plan.stages.len() - 1 {
                embed
            } else {
                0
            }
        })
        .max()
        .unwrap_or(0) as f64
        / 1e9
}

fn point(model: &str, system: &str, n: usize, v: Option<(f64, f64)>) -> Fig9Row {
    Fig9Row {
        model: model.to_string(),
        system: system.to_string(),
        devices: n,
        throughput: v.map(|x| x.0),
        weight_gb: v.map(|x| x.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(rows: &'a [Fig9Row], model: &str, system: &str, n: usize) -> &'a Fig9Row {
        rows.iter()
            .find(|r| r.model.contains(model) && r.system == system && r.devices == n)
            .unwrap()
    }

    #[test]
    fn eddl_oom_pattern_matches_fig9a() {
        let rows = fig9();
        // EDDL runs T5-Base at every size, OOMs on BART-Large & T5-Large.
        for n in 2..=8 {
            assert!(get(&rows, "T5-Base", "EDDL", n).throughput.is_some());
            assert!(get(&rows, "BART", "EDDL", n).throughput.is_none());
            assert!(get(&rows, "T5-Large", "EDDL", n).throughput.is_none());
        }
    }

    #[test]
    fn pipeline_weight_memory_shrinks_with_devices() {
        let rows = fig9();
        // Fig 9(b): per-device weights fall as the pipeline deepens; EDDL's
        // are flat (full replica).
        let w2 = get(&rows, "T5-Base", "PAC", 2).weight_gb.unwrap();
        let w8 = get(&rows, "T5-Base", "PAC", 8).weight_gb.unwrap();
        assert!(w8 < w2, "PAC weights {w8} !< {w2}");
        let e2 = get(&rows, "T5-Base", "EDDL", 2).weight_gb.unwrap();
        let e8 = get(&rows, "T5-Base", "EDDL", 8).weight_gb.unwrap();
        assert!((e2 - e8).abs() < 1e-9);
    }

    #[test]
    fn pac_throughput_dominates_at_scale() {
        let rows = fig9();
        // At 8 devices PAC must beat Eco-FL on every model (paper: +39.5%)
        // and beat EDDL wherever EDDL runs.
        for model in ["T5-Base", "BART", "T5-Large"] {
            let pac = get(&rows, model, "PAC", 8).throughput.unwrap();
            if let Some(ecofl) = get(&rows, model, "Eco-FL", 8).throughput {
                assert!(pac > ecofl, "{model}: PAC {pac} ≤ Eco-FL {ecofl}");
            }
            if let Some(eddl) = get(&rows, model, "EDDL", 8).throughput {
                assert!(pac > eddl, "{model}: PAC {pac} ≤ EDDL {eddl}");
            }
        }
    }

    #[test]
    fn throughput_grows_with_devices_for_pac() {
        let rows = fig9();
        let t2 = get(&rows, "T5-Base", "PAC", 2).throughput.unwrap();
        let t8 = get(&rows, "T5-Base", "PAC", 8).throughput.unwrap();
        assert!(t8 > t2, "no scaling: {t2} → {t8}");
    }
}
