//! GLUE-analog task descriptors.

/// The four GLUE tasks the paper evaluates (Table 2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Microsoft Research Paraphrase Corpus — sentence-pair classification.
    Mrpc,
    /// Semantic Textual Similarity Benchmark — regression on [0, 5].
    StsB,
    /// Stanford Sentiment Treebank — single-sentence classification.
    Sst2,
    /// Question NLI — question/answer entailment classification.
    Qnli,
}

impl TaskKind {
    /// All four tasks in the paper's column order.
    pub fn all() -> [TaskKind; 4] {
        [
            TaskKind::Mrpc,
            TaskKind::StsB,
            TaskKind::Sst2,
            TaskKind::Qnli,
        ]
    }

    /// Display name as in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Mrpc => "MRPC",
            TaskKind::StsB => "STS-B",
            TaskKind::Sst2 => "SST-2",
            TaskKind::Qnli => "QNLI",
        }
    }

    /// Number of model outputs: classes for classification, 1 for
    /// regression.
    pub fn n_out(&self) -> usize {
        match self {
            TaskKind::StsB => 1,
            _ => 2,
        }
    }

    /// True for regression tasks (MSE loss instead of cross-entropy).
    pub fn is_regression(&self) -> bool {
        matches!(self, TaskKind::StsB)
    }

    /// Training-set size of the real GLUE task — drives the simulated
    /// training-duration experiments (Table 2).
    pub fn train_size(&self) -> usize {
        match self {
            TaskKind::Mrpc => 3_668,
            TaskKind::StsB => 5_749,
            TaskKind::Sst2 => 67_349,
            TaskKind::Qnli => 104_743,
        }
    }

    /// Fine-tuning epochs used by the paper: 3 for the small datasets
    /// (MRPC, STS-B, where the activation cache pays off), 1 for the large
    /// ones (SST-2, QNLI).
    pub fn paper_epochs(&self) -> usize {
        match self {
            TaskKind::Mrpc | TaskKind::StsB => 3,
            TaskKind::Sst2 | TaskKind::Qnli => 1,
        }
    }

    /// Metric reported in Table 3.
    pub fn metric_name(&self) -> &'static str {
        match self {
            TaskKind::Mrpc => "F1/Acc avg",
            TaskKind::StsB => "Pearson-Spearman",
            TaskKind::Sst2 | TaskKind::Qnli => "Accuracy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_properties_match_paper() {
        assert_eq!(TaskKind::all().len(), 4);
        assert_eq!(TaskKind::Mrpc.paper_epochs(), 3);
        assert_eq!(TaskKind::StsB.paper_epochs(), 3);
        assert_eq!(TaskKind::Sst2.paper_epochs(), 1);
        assert_eq!(TaskKind::Qnli.paper_epochs(), 1);
        assert!(TaskKind::StsB.is_regression());
        assert_eq!(TaskKind::StsB.n_out(), 1);
        assert_eq!(TaskKind::Mrpc.n_out(), 2);
    }

    #[test]
    fn dataset_sizes_are_glue_sizes() {
        assert_eq!(TaskKind::Mrpc.train_size(), 3_668);
        assert_eq!(TaskKind::StsB.train_size(), 5_749);
        assert_eq!(TaskKind::Sst2.train_size(), 67_349);
        assert_eq!(TaskKind::Qnli.train_size(), 104_743);
        // Relative scale (SST-2 and QNLI dwarf MRPC/STS-B) drives Table 2.
        assert!(TaskKind::Qnli.train_size() > 20 * TaskKind::Mrpc.train_size());
    }
}
