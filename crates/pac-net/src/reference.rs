//! The in-process reference of a distributed job, and the one comparison
//! every distributed ≡ in-process check runs against it.
//!
//! [`Reference::train`] trains the job's model on `pac-parallel`'s
//! `HybridEngine`, stepped exactly as the workers step themselves: zero
//! the gradients, run the mini-batch, one SGD step per lane.
//! [`Reference::compare`] then holds a run to it bit for bit.

use crate::config::DistConfig;
use pac_nn::optim::Sgd;
use pac_nn::Optimizer;
use pac_parallel::engine::{HybridEngine, MicroBatch};
use pac_parallel::{EngineError, EngineResult};
use pac_tensor::Tensor;

/// Per-step losses and final canonical parameters of an in-process run.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Lane-averaged loss of each mini-batch, in step order.
    pub losses: Vec<f32>,
    /// Lane 0's parameters after the last step, in canonical order.
    pub params: Vec<(String, Tensor)>,
}

impl Reference {
    /// Trains `cfg`'s model (seed, partition, lanes, schedule, learning
    /// rate) in process on `batches`.
    ///
    /// # Errors
    /// [`EngineError::Tensor`] when the partition does not cut the model,
    /// or the error of a failed mini-batch.
    pub fn train(cfg: &DistConfig, batches: &[Vec<MicroBatch>]) -> EngineResult<Self> {
        let stages = cfg.build_stages().map_err(EngineError::Tensor)?;
        let mut engine = HybridEngine::new(stages, cfg.lanes, cfg.schedule);
        let mut opts: Vec<Box<dyn Optimizer>> = (0..cfg.lanes)
            .map(|_| Box::new(Sgd::new(cfg.lr)) as Box<dyn Optimizer>)
            .collect();
        let losses = batches
            .iter()
            .map(|batch| {
                engine.zero_grads();
                let loss = engine.run_mini_batch(batch)?;
                engine.step(&mut opts);
                Ok(loss)
            })
            .collect::<EngineResult<_>>()?;
        let params = engine.canonical_params();
        Ok(Reference { losses, params })
    }

    /// Holds a run to this reference bit for bit: history length, every
    /// loss, parameter count, then each parameter's name, dims and
    /// elements.
    ///
    /// # Errors
    /// Describes the first difference.
    pub fn compare(&self, losses: &[f32], params: &[(String, Tensor)]) -> Result<(), String> {
        let (n, m) = (losses.len(), self.losses.len());
        if n != m {
            return Err(format!("loss history has {n} step(s), the reference {m}"));
        }
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if let Some(t) = (0..n).find(|&t| losses[t].to_bits() != self.losses[t].to_bits()) {
            return Err(format!(
                "loss diverged at step {t}: {} vs {}",
                losses[t], self.losses[t]
            ));
        }
        let (n, m) = (params.len(), self.params.len());
        if n != m {
            return Err(format!("{n} parameter(s), the reference {m}"));
        }
        for ((dn, dt), (rn, rt)) in params.iter().zip(&self.params) {
            if dn != rn || dt.dims() != rt.dims() {
                return Err(format!(
                    "{dn} {:?} where the reference has {rn} {:?}",
                    dt.dims(),
                    rt.dims()
                ));
            }
            if bits(dt.data()) != bits(rt.data()) {
                return Err(format!("{dn} diverged"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        Reference {
            losses: vec![0.5, 0.25],
            params: vec![
                ("a".into(), Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap()),
                ("b".into(), Tensor::from_vec(vec![3.0; 4], [2, 2]).unwrap()),
            ],
        }
    }

    #[test]
    fn compare_checks_lengths_names_dims_and_bits() {
        let r = reference();
        assert_eq!(r.compare(&r.losses, &r.params), Ok(()));

        let err =
            |losses: &[f32], params: &[(String, Tensor)]| r.compare(losses, params).unwrap_err();
        assert!(err(&r.losses[..1], &r.params).contains("1 step(s)"));
        assert!(err(&[0.5, -0.25], &r.params).contains("step 1"));
        assert!(err(&r.losses, &r.params[..1]).contains("1 parameter(s)"));
        assert!(err(&r.losses, &[]).contains("0 parameter(s)"));

        let mut renamed = r.params.clone();
        renamed[1].0 = "c".into();
        assert!(err(&r.losses, &renamed).contains("c [2, 2] where the reference has b"));

        let mut reshaped = r.params.clone();
        reshaped[1].1 = Tensor::from_vec(vec![3.0; 4], [4]).unwrap();
        assert!(err(&r.losses, &reshaped).contains("b [4] where"));

        let mut flipped = r.params.clone();
        flipped[0].1 = Tensor::from_vec(vec![1.0, -2.0], [2]).unwrap();
        assert!(err(&r.losses, &flipped).contains("a diverged"));
    }
}
