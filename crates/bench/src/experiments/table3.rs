//! Table 3: final-quality parity between fine-tuning techniques.
//!
//! Real micro-scale training (the only experiment that needs actual
//! gradient descent): every technique fine-tunes the same pretrained
//! micro backbone on the same synthetic GLUE-analog data.

use pac_core::quality::{pa_difference_from_mean, run_quality_experiment, QualityCell};
use pac_data::TaskKind;
use pac_model::ModelConfig;

/// Outcome of the quality grid.
#[derive(Debug, Clone)]
pub struct Table3Outcome {
    /// All (technique, task) cells.
    pub cells: Vec<QualityCell>,
    /// Parallel Adapters' difference from the baseline mean per task
    /// (the paper's bottom row).
    pub pa_diff_from_mean: Vec<(String, f64)>,
}

/// Runs the quality grid. `quick` restricts to two tasks and shorter
/// training (used by tests); the full run covers all four tasks.
///
/// # Panics
/// Panics if training fails (shape bugs should fail loudly here).
pub fn table3(quick: bool) -> Table3Outcome {
    let cfg = ModelConfig::micro(2, 1, 32, 4);
    let (tasks, train_n, epochs): (Vec<TaskKind>, usize, usize) = if quick {
        (vec![TaskKind::Sst2, TaskKind::StsB], 64, 3)
    } else {
        (TaskKind::all().to_vec(), 128, 6)
    };
    let cells = run_quality_experiment(&cfg, &tasks, train_n, epochs, 17)
        .expect("quality experiment must run");
    let pa_diff_from_mean = pa_difference_from_mean(&cells);
    Table3Outcome {
        cells,
        pa_diff_from_mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_quality_grid_shows_parity() {
        let out = table3(true);
        assert_eq!(out.cells.len(), 8);
        // Each technique must clear the "learned something" bar on SST-2.
        for c in out.cells.iter().filter(|c| c.task == "SST-2") {
            assert!(c.metric > 55.0, "{} = {}", c.technique, c.metric);
        }
        // And PA must sit in the baseline band on both tasks.
        for (task, d) in &out.pa_diff_from_mean {
            assert!(d.abs() < 25.0, "{task}: PA off by {d}");
        }
    }
}
