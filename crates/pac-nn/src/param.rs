//! Trainable parameters and the module-traversal trait.

use pac_tensor::ops::Panels;
use pac_tensor::Tensor;

/// A named model parameter: value, accumulated gradient, and (lazily
/// allocated) optimizer state.
///
/// The `trainable` flag implements parameter freezing: PEFT techniques mark
/// backbone parameters frozen so optimizers skip them, gradient accounting
/// excludes them, and AllReduce synchronizes only the trainable remainder —
/// the property the paper's system design exploits.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable dotted path, e.g. `"encoder.layer3.attn.wq"`.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`; empty once packed).
    pub grad: Tensor,
    /// Whether the optimizer updates this parameter.
    pub trainable: bool,
    /// First-moment / momentum buffer (allocated on first optimizer step).
    pub opt_m: Option<Tensor>,
    /// Second-moment buffer (allocated on first Adam step).
    pub opt_v: Option<Tensor>,
    /// The value packed for frozen forward products ([`Param::pack`]).
    panels: Option<Panels>,
}

impl Param {
    /// Creates a trainable parameter with zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param {
            name: name.into(),
            value,
            grad,
            trainable: true,
            opt_m: None,
            opt_v: None,
            panels: None,
        }
    }

    /// Number of scalar elements (a packed value's included).
    pub fn numel(&self) -> usize {
        self.panels
            .as_ref()
            .map_or(self.value.numel(), Panels::numel)
    }

    /// Freezes the parameter and moves its value into [`Panels`], the
    /// layout every forward product reads in place: the row-major `value`
    /// is dropped (left empty), so one copy of the weight stays resident.
    /// For a weight that from now on only multiplies from the right in
    /// frozen forwards; clones share the panels.
    ///
    /// The gradient, which such a weight never gets, is dropped (left
    /// empty) first. The freed gradient and value lie side by side, so the
    /// next weight's panels fit in the hole they leave: kept, `pac_solo`'s
    /// peak RSS read 47.5–47.9 MiB against the row-major 45.2; dropped,
    /// 44.2–44.5 (2 vCPUs, glibc malloc).
    pub fn pack(&mut self) {
        self.trainable = false;
        self.grad = Tensor::zeros([0]);
        let value = std::mem::replace(&mut self.value, Tensor::zeros([0]));
        self.panels = Some(Panels::pack(&value));
    }

    /// The packed value, if [`Param::pack`] has run.
    pub fn panels(&self) -> Option<&Panels> {
        self.panels.as_ref()
    }

    /// Zeroes the accumulated gradient.
    ///
    /// Skips the write entirely when the gradient is already all-zero
    /// (common for frozen backbones), avoiding a copy-on-write clone of
    /// storage that may be shared across data-parallel lanes.
    pub fn zero_grad(&mut self) {
        if self.grad.data().iter().all(|v| v.to_bits() == 0) {
            return;
        }
        self.grad.fill_zero();
    }

    /// Accumulates `g` into the gradient buffer (no-op allocation-wise).
    ///
    /// # Panics
    /// Panics if `g` has a different shape — a gradient/value shape mismatch
    /// is a programming error, not a recoverable condition.
    pub fn accumulate_grad(&mut self, g: &Tensor) {
        self.grad
            .add_assign(g)
            .expect("gradient shape must match parameter shape");
    }
}

/// Visitor-style traversal over a module tree's parameters.
///
/// Implemented by every layer and by composite models; gives optimizers,
/// AllReduce, and the memory accountant a uniform view without trait objects
/// on the compute path.
pub trait Module {
    /// Visits every parameter mutably.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every parameter immutably.
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param));

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.numel());
        n
    }

    /// Trainable scalar parameter count.
    fn num_trainable(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| {
            if p.trainable {
                n += p.numel()
            }
        });
        n
    }

    /// Zeroes all gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Marks every parameter frozen (non-trainable).
    fn freeze_all(&mut self) {
        self.visit_params(&mut |p| p.trainable = false);
    }

    /// Marks every parameter trainable.
    fn unfreeze_all(&mut self) {
        self.visit_params(&mut |p| p.trainable = true);
    }

    /// Bytes of parameter storage (f32).
    fn param_bytes(&self) -> usize {
        self.num_params() * 4
    }

    /// Bytes of gradient storage for trainable parameters (f32).
    fn trainable_grad_bytes(&self) -> usize {
        self.num_trainable() * 4
    }

    /// Global L2 norm over all trainable gradients.
    fn grad_norm(&self) -> f32 {
        let mut acc = 0.0f64;
        self.visit_params_ref(&mut |p| {
            if p.trainable {
                acc += p
                    .grad
                    .data()
                    .iter()
                    .map(|x| (*x as f64).powi(2))
                    .sum::<f64>();
            }
        });
        acc.sqrt() as f32
    }

    /// Scales trainable gradients so the global norm is at most `max_norm`.
    fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            self.visit_params(&mut |p| {
                if p.trainable {
                    p.grad.scale_in_place(scale);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        a: Param,
        b: Param,
    }

    impl Module for Toy {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
        fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
            f(&self.a);
            f(&self.b);
        }
    }

    fn toy() -> Toy {
        Toy {
            a: Param::new("a", Tensor::ones([2, 3])),
            b: Param::new("b", Tensor::ones([4])),
        }
    }

    #[test]
    fn counting_and_freezing() {
        let mut t = toy();
        assert_eq!(t.num_params(), 10);
        assert_eq!(t.num_trainable(), 10);
        t.a.trainable = false;
        assert_eq!(t.num_trainable(), 4);
        t.freeze_all();
        assert_eq!(t.num_trainable(), 0);
        t.unfreeze_all();
        assert_eq!(t.num_trainable(), 10);
        assert_eq!(t.param_bytes(), 40);
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut t = toy();
        t.a.accumulate_grad(&Tensor::full([2, 3], 2.0));
        t.a.accumulate_grad(&Tensor::full([2, 3], 1.0));
        assert_eq!(t.a.grad.data()[0], 3.0);
        t.zero_grads();
        assert_eq!(t.a.grad.data()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn grad_shape_mismatch_panics() {
        let mut p = Param::new("p", Tensor::zeros([2]));
        p.accumulate_grad(&Tensor::zeros([3]));
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut t = toy();
        t.a.accumulate_grad(&Tensor::full([2, 3], 3.0));
        t.b.accumulate_grad(&Tensor::full([4], 4.0));
        let before = t.grad_norm();
        assert!(before > 1.0);
        t.clip_grad_norm(1.0);
        assert!((t.grad_norm() - 1.0).abs() < 1e-4);
        // Clipping below the threshold is a no-op.
        let g = t.a.grad.clone();
        t.clip_grad_norm(10.0);
        assert_eq!(t.a.grad, g);
    }

    #[test]
    fn frozen_params_excluded_from_norm() {
        let mut t = toy();
        t.a.accumulate_grad(&Tensor::full([2, 3], 5.0));
        t.a.trainable = false;
        assert_eq!(t.grad_norm(), 0.0);
    }
}
