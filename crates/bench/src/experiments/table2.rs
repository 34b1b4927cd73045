//! Table 2: end-to-end training durations (hours) with OOM verdicts, for
//! every (technique × system × model × task) combination the paper reports.

use pac_cluster::Cluster;
use pac_core::systems::{estimate_cell, CellResult, System};
use pac_data::TaskKind;
use pac_model::ModelConfig;
use pac_peft::Technique;

/// One row of Table 2: a (technique, system) pair with 12 cells
/// (3 models × 4 tasks).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Fine-tuning technique label.
    pub technique: String,
    /// Baseline-system label.
    pub system: String,
    /// `cells[model][task]` in paper order (T5-Base, BART-Large, T5-Large)
    /// × (MRPC, STS-B, SST-2, QNLI).
    pub cells: Vec<Vec<CellResult>>,
}

/// Computes one row.
pub fn table2_row(technique: Technique, system: System, cluster: &Cluster) -> Table2Row {
    let cells = ModelConfig::paper_models()
        .into_iter()
        .map(|model| {
            TaskKind::all()
                .into_iter()
                .map(|task| estimate_cell(system, technique, &model, task, cluster))
                .collect()
        })
        .collect();
    Table2Row {
        technique: technique.name().to_string(),
        system: system.name().to_string(),
        cells,
    }
}

/// Computes the full Table 2 on the paper's 8-Nano cluster: Full, Adapters
/// and LoRA across the three baseline systems, and Parallel Adapters under
/// PAC.
pub fn table2() -> Vec<Table2Row> {
    let cluster = Cluster::nanos(8);
    let mut rows = Vec::new();
    for technique in [
        Technique::Full,
        Technique::adapters_default(),
        Technique::lora_default(),
    ] {
        for system in System::baselines() {
            rows.push(table2_row(technique, system, &cluster));
        }
    }
    rows.push(table2_row(
        Technique::parallel_default(),
        System::Pac,
        &cluster,
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(
        rows: &'a [Table2Row],
        tech: &str,
        sys: &str,
        model: usize,
        task: usize,
    ) -> &'a CellResult {
        &rows
            .iter()
            .find(|r| r.technique.contains(tech) && r.system.contains(sys))
            .unwrap()
            .cells[model][task]
    }

    #[test]
    fn table2_reproduces_paper_structure() {
        let rows = table2();
        assert_eq!(rows.len(), 10);

        // Full × Standalone/EDDL: OOM everywhere (paper row 1).
        for sys in ["Standalone", "EDDL"] {
            for model in 0..3 {
                for task in 0..4 {
                    assert_eq!(
                        *cell(&rows, "Full", sys, model, task),
                        CellResult::Oom,
                        "Full × {sys} m{model} t{task}"
                    );
                }
            }
        }

        // PAC runs everything.
        for model in 0..3 {
            for task in 0..4 {
                assert!(
                    cell(&rows, "Parallel", "PAC", model, task)
                        .hours()
                        .is_some(),
                    "PAC OOM at m{model} t{task}"
                );
            }
        }

        // Adapters × Standalone works on T5-Base but OOMs on BART/T5-Large
        // (paper row 4).
        assert!(cell(&rows, "Adapters", "Standalone", 0, 0)
            .hours()
            .is_some());
        assert_eq!(
            *cell(&rows, "Adapters", "Standalone", 1, 0),
            CellResult::Oom
        );
        assert_eq!(
            *cell(&rows, "Adapters", "Standalone", 2, 0),
            CellResult::Oom
        );

        // EDDL × PEFT: T5-Base only (paper rows 5/8).
        assert!(cell(&rows, "LoRA", "EDDL", 0, 0).hours().is_some());
        assert_eq!(*cell(&rows, "LoRA", "EDDL", 1, 0), CellResult::Oom);
    }

    #[test]
    fn pac_wins_every_feasible_comparison_on_cached_tasks() {
        let rows = table2();
        // MRPC (task 0) and STS-B (task 1) benefit from the cache; PAC must
        // beat every feasible baseline there, on every model.
        for model in 0..3 {
            for task in 0..2 {
                let pac = cell(&rows, "Parallel", "PAC", model, task)
                    .hours()
                    .expect("PAC always runs");
                for r in rows.iter().filter(|r| r.system != "PAC (Ours)") {
                    if let Some(h) = r.cells[model][task].hours() {
                        assert!(
                            pac < h,
                            "PAC {pac:.3}h ≥ {} × {} {h:.3}h (m{model} t{task})",
                            r.technique,
                            r.system
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn speedup_band_matches_paper_headline() {
        // Paper: up to 8.64× vs the baselines on cached datasets; at least
        // 1.2× on the single-epoch datasets.
        let rows = table2();
        let pac_mrpc = cell(&rows, "Parallel", "PAC", 0, 0).hours().unwrap();
        let standalone_mrpc = cell(&rows, "Adapters", "Standalone", 0, 0).hours().unwrap();
        let best_speedup = standalone_mrpc / pac_mrpc;
        assert!(
            best_speedup > 4.0,
            "max speedup {best_speedup:.2}× (paper: 8.64×)"
        );

        let pac_sst2 = cell(&rows, "Parallel", "PAC", 0, 2).hours().unwrap();
        let eddl_sst2 = cell(&rows, "Adapters", "EDDL", 0, 2).hours().unwrap();
        assert!(
            eddl_sst2 / pac_sst2 > 1.0,
            "no-cache speedup {:.2}",
            eddl_sst2 / pac_sst2
        );
    }
}
