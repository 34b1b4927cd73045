//! Parallelism plans: how layers map to stages and stages to device groups.

/// One pipeline stage's assignment: which layers it holds and which devices
/// replicate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAssignment {
    /// Contiguous backbone layer indices `[start, end)` in this stage.
    pub layer_start: usize,
    /// End of the layer range (exclusive).
    pub layer_end: usize,
    /// Indices into the cluster's device list forming this stage's
    /// data-parallel group.
    pub devices: Vec<usize>,
}

impl StageAssignment {
    /// Number of layers in the stage.
    pub fn num_layers(&self) -> usize {
        self.layer_end - self.layer_start
    }

    /// Data-parallel width of the stage.
    pub fn group_size(&self) -> usize {
        self.devices.len()
    }
}

/// A complete hybrid-parallelism plan.
///
/// * One stage holding all layers on one device ⇒ Standalone.
/// * One stage replicated on all devices ⇒ pure data parallelism (EDDL).
/// * `|devices|` single-device stages ⇒ pure pipeline parallelism (Eco-FL).
/// * Anything in between is PAC's hybrid space (paper Figure 6/10).
/// ```
/// use pac_parallel::ParallelPlan;
///
/// let plan = ParallelPlan::pipeline_even(24, 4);   // Eco-FL shape
/// assert_eq!(plan.num_stages(), 4);
/// assert!(plan.validate(24, 4).is_ok());
/// assert_eq!(plan.grouping_string(), "[1N] [1N] [1N] [1N]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelPlan {
    /// The stages in pipeline order.
    pub stages: Vec<StageAssignment>,
}

impl ParallelPlan {
    /// Pure data parallelism: every device holds all `layers`.
    pub fn data_parallel(layers: usize, n_devices: usize) -> Self {
        ParallelPlan {
            stages: vec![StageAssignment {
                layer_start: 0,
                layer_end: layers,
                devices: (0..n_devices).collect(),
            }],
        }
    }

    /// Pure pipeline parallelism: `layers` split as evenly as possible over
    /// `n_devices` single-device stages (Eco-FL's "straight pipeline").
    pub fn pipeline_even(layers: usize, n_devices: usize) -> Self {
        let n = n_devices.min(layers).max(1);
        let base = layers / n;
        let extra = layers % n;
        let mut stages = Vec::with_capacity(n);
        let mut start = 0;
        for d in 0..n {
            let count = base + usize::from(d < extra);
            stages.push(StageAssignment {
                layer_start: start,
                layer_end: start + count,
                devices: vec![d],
            });
            start += count;
        }
        ParallelPlan { stages }
    }

    /// Single-device plan.
    pub fn standalone(layers: usize) -> Self {
        Self::data_parallel(layers, 1)
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total devices referenced.
    pub fn num_devices(&self) -> usize {
        self.stages.iter().map(StageAssignment::group_size).sum()
    }

    /// Validates structural invariants: contiguous full layer coverage,
    /// non-empty disjoint device groups.
    pub fn validate(&self, total_layers: usize, n_devices: usize) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("plan has no stages".into());
        }
        let mut expected_start = 0usize;
        let mut seen = vec![false; n_devices];
        for (i, s) in self.stages.iter().enumerate() {
            if s.layer_start != expected_start {
                return Err(format!(
                    "stage {i}: layers not contiguous (start {} ≠ {expected_start})",
                    s.layer_start
                ));
            }
            if s.layer_end <= s.layer_start {
                return Err(format!("stage {i}: empty layer range"));
            }
            if s.devices.is_empty() {
                return Err(format!("stage {i}: no devices"));
            }
            for &d in &s.devices {
                if d >= n_devices {
                    return Err(format!("stage {i}: device {d} out of range"));
                }
                if seen[d] {
                    return Err(format!("device {d} assigned to multiple stages"));
                }
                seen[d] = true;
            }
            expected_start = s.layer_end;
        }
        if expected_start != total_layers {
            return Err(format!(
                "layers covered {expected_start} ≠ total {total_layers}"
            ));
        }
        Ok(())
    }

    /// Human-readable grouping string in the paper's Figure 10 style, e.g.
    /// `"[2N] [2N]"` for two stages of two Nanos.
    pub fn grouping_string(&self) -> String {
        self.stages
            .iter()
            .map(|s| format!("[{}N]", s.group_size()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_plans() {
        let dp = ParallelPlan::data_parallel(24, 4);
        assert_eq!(dp.num_stages(), 1);
        assert_eq!(dp.num_devices(), 4);
        assert!(dp.validate(24, 4).is_ok());

        let pp = ParallelPlan::pipeline_even(24, 4);
        assert_eq!(pp.num_stages(), 4);
        assert!(pp.validate(24, 4).is_ok());
        assert!(pp.stages.iter().all(|s| s.num_layers() == 6));

        let st = ParallelPlan::standalone(24);
        assert_eq!(st.num_devices(), 1);
        assert!(st.validate(24, 1).is_ok());
    }

    #[test]
    fn uneven_pipeline_split() {
        let pp = ParallelPlan::pipeline_even(10, 4);
        let counts: Vec<usize> = pp.stages.iter().map(|s| s.num_layers()).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
        assert!(pp.validate(10, 4).is_ok());
    }

    #[test]
    fn more_devices_than_layers() {
        let pp = ParallelPlan::pipeline_even(2, 5);
        assert_eq!(pp.num_stages(), 2);
        assert!(pp.validate(2, 5).is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        // Gap in layers.
        let bad = ParallelPlan {
            stages: vec![
                StageAssignment {
                    layer_start: 0,
                    layer_end: 2,
                    devices: vec![0],
                },
                StageAssignment {
                    layer_start: 3,
                    layer_end: 4,
                    devices: vec![1],
                },
            ],
        };
        assert!(bad.validate(4, 2).is_err());

        // Device reuse.
        let reuse = ParallelPlan {
            stages: vec![
                StageAssignment {
                    layer_start: 0,
                    layer_end: 2,
                    devices: vec![0],
                },
                StageAssignment {
                    layer_start: 2,
                    layer_end: 4,
                    devices: vec![0],
                },
            ],
        };
        assert!(reuse.validate(4, 2).is_err());

        // Incomplete coverage.
        let short = ParallelPlan {
            stages: vec![StageAssignment {
                layer_start: 0,
                layer_end: 2,
                devices: vec![0],
            }],
        };
        assert!(short.validate(4, 1).is_err());
    }

    #[test]
    fn grouping_string_matches_fig10_style() {
        let plan = ParallelPlan {
            stages: vec![
                StageAssignment {
                    layer_start: 0,
                    layer_end: 12,
                    devices: vec![0, 1],
                },
                StageAssignment {
                    layer_start: 12,
                    layer_end: 24,
                    devices: vec![2, 3],
                },
            ],
        };
        assert_eq!(plan.grouping_string(), "[2N] [2N]");
    }
}
