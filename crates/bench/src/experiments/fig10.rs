//! Figure 10: the device groupings PAC's planner selects across models and
//! cluster sizes.

use pac_cluster::{Cluster, CostModel};
use pac_model::ModelConfig;
use pac_peft::Technique;
use pac_planner::Planner;

/// One cell of the Figure 10 table.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Model label.
    pub model: String,
    /// Number of Jetson Nanos.
    pub devices: usize,
    /// Grouping in the paper's notation (e.g. `"[2N] [2N]"`); `"OOM"` when
    /// unplannable.
    pub grouping: String,
    /// Stage count of the chosen plan (0 when unplannable).
    pub stages: usize,
    /// Chosen micro-batch count.
    pub micro_batches: usize,
}

/// Computes Figure 10 for 2–8 Nanos across the paper models (Parallel
/// Adapters technique, batch = devices, as in §6.4).
pub fn fig10() -> Vec<Fig10Row> {
    let technique = Technique::parallel_default();
    let mut rows = Vec::new();
    for model in ModelConfig::paper_models() {
        for n in 2..=8usize {
            let cluster = Cluster::nanos(n);
            let cost = CostModel::new(model.clone(), technique, 128);
            let planner = Planner::paper_defaults(cluster, n);
            let row = match planner.plan(&cost) {
                Some(o) => Fig10Row {
                    model: model.name.clone(),
                    devices: n,
                    grouping: o.best.grouping_string(),
                    stages: o.best.num_stages(),
                    micro_batches: o.best_micro_batches,
                },
                None => Fig10Row {
                    model: model.name.clone(),
                    devices: n,
                    grouping: "OOM".into(),
                    stages: 0,
                    micro_batches: 0,
                },
            };
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_groupings_are_model_dependent() {
        let rows = fig10();
        assert_eq!(rows.len(), 21);
        // T5-Base plans exist at every size.
        for r in rows.iter().filter(|r| r.model == "T5-Base") {
            assert_ne!(r.grouping, "OOM", "T5-Base n={}", r.devices);
            assert!(r.stages >= 1);
        }
        // Bigger models need more stages (at the same device count the
        // planner cannot fit BART-Large in as few stages as T5-Base).
        let stages_of = |model: &str, n: usize| {
            rows.iter()
                .find(|r| r.model.contains(model) && r.devices == n)
                .unwrap()
                .stages
        };
        assert!(stages_of("T5-Large", 8) >= stages_of("T5-Base", 8));
        // The paper's headline example: BART-Large on 8 devices is *not*
        // the 8-stage straight pipeline.
        let bart8 = rows
            .iter()
            .find(|r| r.model.contains("BART") & (r.devices == 8))
            .unwrap();
        assert!(bart8.stages < 8, "BART-Large@8 got {}", bart8.grouping);
    }
}
