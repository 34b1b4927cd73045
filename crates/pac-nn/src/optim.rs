//! Gradient-descent optimizers operating through the [`Module`] visitor.
//!
//! Optimizer state (momentum / Adam moments) lives inside each [`Param`] so
//! the optimizer itself is stateless and can be shared or recreated freely —
//! convenient when parameters migrate between simulated devices.

use crate::param::{Module, Param};
use pac_tensor::elementwise::{self, AdamCoeffs};
use pac_tensor::Tensor;

/// Common optimizer interface: one in-place update step over a module's
/// trainable parameters. Frozen parameters are skipped entirely (no state is
/// even allocated for them), which is what makes PEFT memory savings real in
/// this implementation.
pub trait Optimizer {
    /// Applies one update step to every trainable parameter of `module`.
    fn step(&mut self, module: &mut dyn Module);

    /// Bytes of optimizer state that would be held for `module`'s trainable
    /// parameters (used by the memory accountant).
    fn state_bytes_per_trainable_param(&self) -> usize;
}

/// Stochastic gradient descent with optional momentum and weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum and its state buffer).
    pub momentum: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
        }
    }

    fn update(&self, p: &mut Param) {
        if self.weight_decay > 0.0 {
            let wd = self.weight_decay;
            let v = p.value.clone();
            p.grad.axpy(wd, &v).expect("shapes match by construction");
        }
        if self.momentum > 0.0 {
            let m = p.opt_m.get_or_insert_with(|| Tensor::zeros(p.value.dims()));
            m.scale_in_place(self.momentum);
            m.add_assign(&p.grad).expect("shapes match by construction");
            let update = m.clone();
            p.value
                .axpy(-self.lr, &update)
                .expect("shapes match by construction");
        } else {
            let g = p.grad.clone();
            p.value
                .axpy(-self.lr, &g)
                .expect("shapes match by construction");
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, module: &mut dyn Module) {
        let this = self.clone();
        module.visit_params(&mut |p| {
            if p.trainable {
                this.update(p);
            }
        });
    }

    fn state_bytes_per_trainable_param(&self) -> usize {
        if self.momentum > 0.0 {
            4
        } else {
            0
        }
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Global step counter (for bias correction).
    pub t: u64,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, module: &mut dyn Module) {
        self.t += 1;
        // `powi` takes an i32: saturate instead of wrapping (βᵗ is 0 in f32
        // long before either bound).
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let coeffs = AdamCoeffs {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(t),
            bc2: 1.0 - self.beta2.powi(t),
        };
        module.visit_params(&mut |p| {
            if !p.trainable {
                return;
            }
            let m = p.opt_m.get_or_insert_with(|| Tensor::zeros(p.value.dims()));
            let v = p.opt_v.get_or_insert_with(|| Tensor::zeros(p.value.dims()));
            elementwise::adam_step(
                p.value.data_mut(),
                m.data_mut(),
                v.data_mut(),
                p.grad.data(),
                coeffs,
            );
        });
    }

    fn state_bytes_per_trainable_param(&self) -> usize {
        8 // two f32 moments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quad {
        p: Param,
    }

    impl Module for Quad {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
        fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
            f(&self.p);
        }
    }

    impl Quad {
        fn new(x0: f32) -> Self {
            Quad {
                p: Param::new("x", Tensor::from_vec(vec![x0], [1]).unwrap()),
            }
        }
        /// Loss = x², grad = 2x.
        fn compute_grad(&mut self) {
            let g = self.p.value.scale(2.0);
            self.p.zero_grad();
            self.p.accumulate_grad(&g);
        }
        fn x(&self) -> f32 {
            self.p.value.data()[0]
        }
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let mut q = Quad::new(5.0);
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            q.compute_grad();
            opt.step(&mut q);
        }
        assert!(q.x().abs() < 1e-3, "x = {}", q.x());
    }

    #[test]
    fn sgd_momentum_converges_faster_than_plain() {
        let run = |mut opt: Sgd| {
            let mut q = Quad::new(5.0);
            for _ in 0..20 {
                q.compute_grad();
                opt.step(&mut q);
            }
            q.x().abs()
        };
        let plain = run(Sgd::new(0.01));
        let momentum = run(Sgd::with_momentum(0.01, 0.9));
        assert!(momentum < plain, "momentum {momentum} vs plain {plain}");
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut q = Quad::new(3.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            q.compute_grad();
            opt.step(&mut q);
        }
        assert!(q.x().abs() < 1e-2, "x = {}", q.x());
    }

    /// The three-pass update `Adam::step` ran before it was fused: the
    /// oracle the one-pass kernel must match bit for bit.
    fn adam_three_pass(p: &mut Param, (lr, b1, b2, eps): (f32, f32, f32, f32), t: u64) {
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let dims = *p.value.shape();
        let m = p.opt_m.get_or_insert_with(|| Tensor::zeros(dims));
        for (mi, gi) in m.data_mut().iter_mut().zip(p.grad.data()) {
            *mi = b1 * *mi + (1.0 - b1) * gi;
        }
        let v = p.opt_v.get_or_insert_with(|| Tensor::zeros(dims));
        for (vi, gi) in v.data_mut().iter_mut().zip(p.grad.data()) {
            *vi = b2 * *vi + (1.0 - b2) * gi * gi;
        }
        let (m, v) = (p.opt_m.as_ref().unwrap(), p.opt_v.as_ref().unwrap());
        for (i, w) in p.value.data_mut().iter_mut().enumerate() {
            let mhat = m.data()[i] / bc1;
            let vhat = v.data()[i] / bc2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    #[test]
    fn fused_adam_is_bitwise_the_three_pass_update() {
        use pac_tensor::{init, rng::seeded};
        let mut rng = seeded(31);
        // 37·3 elements: vector body and a tail.
        let mut fused = Quad {
            p: Param::new("w", init::randn(&mut rng, [37, 3], 1.0)),
        };
        let mut reference = fused.p.clone();
        let mut opt = Adam::new(3e-3);
        let hyper = (opt.lr, opt.beta1, opt.beta2, opt.eps);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for t in 1..=25 {
            let g = init::randn(&mut rng, [37, 3], 0.5);
            fused.p.grad = g.clone();
            reference.grad = g;
            opt.step(&mut fused);
            adam_three_pass(&mut reference, hyper, t);
            assert_eq!(bits(&fused.p.value), bits(&reference.value), "step {t}");
            assert_eq!(
                bits(fused.p.opt_m.as_ref().unwrap()),
                bits(reference.opt_m.as_ref().unwrap())
            );
            assert_eq!(
                bits(fused.p.opt_v.as_ref().unwrap()),
                bits(reference.opt_v.as_ref().unwrap())
            );
        }
    }

    #[test]
    fn step_counter_past_i32_max_saturates_the_bias_correction() {
        // βᵗ is 0 there, so the corrections are exactly 1; `t as i32` would
        // have wrapped to a negative exponent and blown them up.
        let mut q = Quad::new(2.0);
        q.compute_grad();
        let mut opt = Adam::new(0.1);
        opt.t = i32::MAX as u64 + 5;
        opt.step(&mut q);
        assert!(q.x().is_finite() && q.x() < 2.0, "x = {}", q.x());
        // m̂ = 0.1·g, v̂ = 0.001·g² ⇒ step = lr·0.1/√0.001.
        let want = 2.0 - 0.1 * (0.1 * 4.0) / ((0.001f32 * 16.0).sqrt() + 1e-8);
        assert!((q.x() - want).abs() < 1e-5, "x = {} want {want}", q.x());
    }

    #[test]
    fn frozen_params_are_not_updated_and_get_no_state() {
        let mut q = Quad::new(2.0);
        q.p.trainable = false;
        q.compute_grad();
        let mut opt = Adam::new(0.1);
        opt.step(&mut q);
        assert_eq!(q.x(), 2.0);
        assert!(q.p.opt_m.is_none());
        assert!(q.p.opt_v.is_none());
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut q = Quad::new(1.0);
        q.p.zero_grad(); // no task gradient
        let mut opt = Sgd {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
        };
        opt.step(&mut q);
        assert!(q.x() < 1.0);
    }

    #[test]
    fn state_bytes_accounting() {
        assert_eq!(Sgd::new(0.1).state_bytes_per_trainable_param(), 0);
        assert_eq!(
            Sgd::with_momentum(0.1, 0.9).state_bytes_per_trainable_param(),
            4
        );
        assert_eq!(Adam::new(0.1).state_bytes_per_trainable_param(), 8);
    }
}
