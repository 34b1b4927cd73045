//! Pointwise nonlinearities with exact derivative implementations.
//!
//! `Gelu` and `Tanh` run the vectorized [`pac_tensor::elementwise`] kernels
//! in both directions: one pass, no libm call, and the backward fuses
//! `dy ⊙ f'(x)` without materialising `f'(x)`.

use pac_tensor::{elementwise, scratch, Tensor};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation, as used by T5/BART
    /// implementations).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no-op), useful for ablations.
    Identity,
}

fn relu(x: &[f32], out: &mut [f32]) {
    for (y, &v) in out.iter_mut().zip(x) {
        *y = v.max(0.0);
    }
}

/// Masks `dy` where the input was not positive.
fn relu_backward(x: &[f32], dy: &[f32], out: &mut [f32]) {
    for ((dx, &v), &d) in out.iter_mut().zip(x).zip(dy) {
        *dx = if v > 0.0 { d } else { 0.0 };
    }
}

impl Activation {
    /// Applies the activation elementwise.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let kernel: fn(&[f32], &mut [f32]) = match self {
            Activation::Relu => relu,
            Activation::Gelu => elementwise::gelu,
            Activation::Tanh => elementwise::tanh,
            Activation::Identity => return x.clone(),
        };
        // Recycled buffers: the `scratch::put` calls of the layers around
        // an activation feed the next one.
        let mut y = scratch::take(*x.shape());
        kernel(x.data(), y.data_mut());
        y
    }

    /// Backward pass: `dx = dy ⊙ f'(x)` given the forward *input* `x`, in
    /// one pass over `x` and `dy`.
    ///
    /// # Panics
    /// Panics if `x` and `dy` shapes differ (programming error).
    pub fn backward(&self, x: &Tensor, dy: &Tensor) -> Tensor {
        assert_eq!(x.shape(), dy.shape(), "activation backward shapes");
        let kernel: fn(&[f32], &[f32], &mut [f32]) = match self {
            Activation::Relu => relu_backward,
            Activation::Gelu => elementwise::gelu_backward,
            Activation::Tanh => elementwise::tanh_backward,
            Activation::Identity => return dy.clone(),
        };
        let mut dx = scratch::take(*x.shape());
        kernel(x.data(), dy.data(), dx.data_mut());
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_close;
    use pac_tensor::{init, rng::seeded};

    /// Scalar libm oracle: `0.5 x (1 + tanh(√(2/π)(x + 0.044715 x³)))`.
    fn gelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
    }

    /// Scalar libm oracle for the derivative of [`gelu`].
    fn gelu_prime(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let inner = C * (x + 0.044_715 * x * x * x);
        let t = inner.tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
    }

    #[test]
    fn kernels_match_the_scalar_libm_oracles() {
        let mut rng = seeded(7);
        let x = init::randn(&mut rng, [13, 11], 2.5);
        let dy = init::randn(&mut rng, [13, 11], 1.0);
        let close = |got: &Tensor, want: &Tensor| got.approx_eq(want, 2e-6);
        assert!(close(&Activation::Gelu.forward(&x), &x.map(gelu)));
        assert!(close(
            &Activation::Gelu.backward(&x, &dy),
            &x.map(gelu_prime).mul(&dy).unwrap()
        ));
        assert!(close(&Activation::Tanh.forward(&x), &x.map(f32::tanh)));
        assert!(close(
            &Activation::Tanh.backward(&x, &dy),
            &x.map(|v| 1.0 - v.tanh().powi(2)).mul(&dy).unwrap()
        ));
    }

    #[test]
    fn relu_backward_masks_dy_and_identity_shares_it() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, 3.0], [2, 2]).unwrap();
        let dy = Tensor::from_vec(vec![5.0, 6.0, f32::INFINITY, -7.0], [2, 2]).unwrap();
        let dx = Activation::Relu.backward(&x, &dy);
        assert_eq!(dx.data(), &[0.0, 0.0, f32::INFINITY, -7.0]);
        assert_eq!(dx.dims(), &[2, 2]);
        assert!(Activation::Identity.backward(&x, &dy).shares_storage(&dy));
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]).unwrap();
        assert_eq!(Activation::Relu.forward(&x).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU(x) ≈ x for large x, ≈ 0 for very negative x.
        let x = Tensor::from_vec(vec![0.0, 6.0, -6.0], [3]).unwrap();
        let y = Activation::Gelu.forward(&x);
        assert!(y.data()[0].abs() < 1e-6);
        assert!((y.data()[1] - 6.0).abs() < 1e-3);
        assert!(y.data()[2].abs() < 1e-3);
    }

    #[test]
    fn identity_is_noop() {
        let x = Tensor::from_vec(vec![1.5, -2.5], [2]).unwrap();
        assert_eq!(Activation::Identity.forward(&x), x);
        let dy = Tensor::ones([2]);
        assert_eq!(Activation::Identity.backward(&x, &dy), dy);
    }

    #[test]
    fn all_gradients_match_finite_difference() {
        let mut rng = seeded(6);
        // Avoid the ReLU kink at exactly 0 by shifting values away from it.
        let x =
            init::randn(&mut rng, [3, 4], 1.0).map(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
        for act in [
            Activation::Relu,
            Activation::Gelu,
            Activation::Tanh,
            Activation::Identity,
        ] {
            let dy = Tensor::ones(x.dims());
            let dx = act.backward(&x, &dy);
            assert_grad_close(&x, &dx, 2e-2, |xp| act.forward(xp).sum());
        }
    }
}
