//! Multi-head scaled-dot-product attention (self- and cross-attention).

use crate::linear::{Linear, LinearCtx};
use crate::param::{Module, Param};
use pac_tensor::{ops, reduce, scratch, Result, Tensor, TensorError};
use rand::Rng;

/// Context saved by [`MultiHeadAttention::forward`] for the backward pass.
#[derive(Debug, Clone)]
pub struct AttentionCtx {
    /// Projection input contexts (q from `x`, k/v from `kv`).
    q_ctx: LinearCtx,
    k_ctx: LinearCtx,
    v_ctx: LinearCtx,
    /// Projected queries/keys/values, `[b*s, d]` / `[b*skv, d]`.
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax attention weights per (batch, head), each `[s, s_kv]`.
    attn: Vec<Tensor>,
    /// Concatenated per-head outputs before the output projection.
    o_ctx: LinearCtx,
    batch: usize,
    s_q: usize,
    s_kv: usize,
}

/// Multi-head attention with separate Q/K/V/O projections.
///
/// Self-attention passes the same tensor for `x` and `kv`; cross-attention
/// (decoder → encoder) passes the encoder output as `kv` and receives its
/// gradient back from [`MultiHeadAttention::backward`].
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection `[d, d]`.
    pub wq: Linear,
    /// Key projection `[d, d]`.
    pub wk: Linear,
    /// Value projection `[d, d]`.
    pub wv: Linear,
    /// Output projection `[d, d]`.
    pub wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Creates an MHA block with `heads` heads over model dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(name: &str, rng: &mut impl Rng, dim: usize, heads: usize) -> Self {
        assert!(dim.is_multiple_of(heads), "dim must be divisible by heads");
        MultiHeadAttention {
            wq: Linear::new(&format!("{name}.wq"), rng, dim, dim, false),
            wk: Linear::new(&format!("{name}.wk"), rng, dim, dim, false),
            wv: Linear::new(&format!("{name}.wv"), rng, dim, dim, false),
            wo: Linear::new(&format!("{name}.wo"), rng, dim, dim, false),
            heads,
            dim,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Extracts the `[s, dh]` block of head `h`, batch `b` from a
    /// `[b*s, heads*dh]` tensor.
    fn head_block(t: &Tensor, b: usize, h: usize, s: usize, dh: usize) -> Tensor {
        let (_, cols) = t.as_2d();
        let mut out = scratch::take_for(s * dh);
        out.reset_to([s, dh]);
        let dst = out.data_mut();
        for ti in 0..s {
            let r = b * s + ti;
            dst[ti * dh..(ti + 1) * dh]
                .copy_from_slice(&t.data()[r * cols + h * dh..r * cols + (h + 1) * dh]);
        }
        out
    }

    /// Accumulates an `[s, dh]` head block back into a `[b*s, heads*dh]`
    /// destination.
    fn add_head_block(dst: &mut Tensor, src: &Tensor, b: usize, h: usize, s: usize, dh: usize) {
        let (_, cols) = dst.as_2d();
        for ti in 0..s {
            let r = b * s + ti;
            let drow = &mut dst.data_mut()[r * cols + h * dh..r * cols + (h + 1) * dh];
            for (d, v) in drow.iter_mut().zip(&src.data()[ti * dh..(ti + 1) * dh]) {
                *d += v;
            }
        }
    }

    /// Writes an `[s, dh]` head block into its slot of a `[b*s, heads*dh]`
    /// destination: [`Self::add_head_block`] into zeros without the read.
    /// It stores `0.0 + x`, not `x`, so that a `-0.0` (an FMA product that
    /// underflows) comes out `+0.0` as it does there, bit for bit.
    fn write_head_block(dst: &mut Tensor, src: &Tensor, b: usize, h: usize, s: usize, dh: usize) {
        let (_, cols) = dst.as_2d();
        let dst = dst.data_mut();
        for (ti, srow) in src.data().chunks_exact(dh).take(s).enumerate() {
            let at = (b * s + ti) * cols + h * dh;
            for (d, v) in dst[at..at + dh].iter_mut().zip(srow) {
                *d = 0.0 + v;
            }
        }
    }

    /// Forward pass.
    ///
    /// * `x`  — `[batch, s_q, d]` query-side input.
    /// * `kv` — `[batch, s_kv, d]` key/value-side input (`x` itself for
    ///   self-attention).
    /// * `causal` — apply a lower-triangular mask (decoder self-attention).
    ///
    /// # Errors
    /// Returns shape errors if the inputs are not rank-3 `[b, s, d]` with
    /// matching batch and model dimensions.
    pub fn forward(&self, x: &Tensor, kv: &Tensor, causal: bool) -> Result<(Tensor, AttentionCtx)> {
        let (batch, s_q, d) = Self::expect_bsd("attention", x)?;
        let (kb, s_kv, kd) = Self::expect_bsd("attention", kv)?;
        if kb != batch || kd != d || d != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "attention",
                lhs: x.dims().to_vec(),
                rhs: kv.dims().to_vec(),
            });
        }
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let (q, q_ctx) = self.wq.forward(x)?;
        let (k, k_ctx) = self.wk.forward(kv)?;
        let (v, v_ctx) = self.wv.forward(kv)?;

        let mut o_concat = scratch::take([batch * s_q, d]);
        let mut attn_saved = Vec::with_capacity(batch * self.heads);
        let mut scores = scratch::take_for(s_q * s_kv);
        let mut ob = scratch::take_for(s_q * dh);
        for b in 0..batch {
            for h in 0..self.heads {
                let qb = Self::head_block(&q, b, h, s_q, dh);
                let kb_ = Self::head_block(&k, b, h, s_kv, dh);
                let vb = Self::head_block(&v, b, h, s_kv, dh);
                ops::matmul_nt_into(&qb, &kb_, &mut scores)?;
                scores.scale_in_place(scale);
                if causal {
                    for i in 0..s_q {
                        for j in 0..s_kv {
                            if j > i {
                                scores.data_mut()[i * s_kv + j] = f32::NEG_INFINITY;
                            }
                        }
                    }
                }
                let attn = reduce::softmax_rows(&scores);
                ops::matmul_into(&attn, &vb, &mut ob)?;
                Self::write_head_block(&mut o_concat, &ob, b, h, s_q, dh);
                attn_saved.push(attn);
                scratch::put(qb);
                scratch::put(kb_);
                scratch::put(vb);
            }
        }
        scratch::put(scores);
        scratch::put(ob);

        let (y, o_ctx) = self.wo.forward(&o_concat)?;
        let y = y.reshape([batch, s_q, d])?;
        Ok((
            y,
            AttentionCtx {
                q_ctx,
                k_ctx,
                v_ctx,
                q,
                k,
                v,
                attn: attn_saved,
                o_ctx,
                batch,
                s_q,
                s_kv,
            },
        ))
    }

    /// Backward pass. Returns `(dx, dkv)`: the gradient w.r.t. the
    /// query-side input and the key/value-side input. For self-attention the
    /// caller adds them together.
    ///
    /// # Errors
    /// Propagates shape errors from the constituent matmuls.
    pub fn backward(&mut self, ctx: &AttentionCtx, dy: &Tensor) -> Result<(Tensor, Tensor)> {
        let d = self.dim;
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let (batch, s_q, s_kv) = (ctx.batch, ctx.s_q, ctx.s_kv);

        // Through the output projection.
        let d_oconcat = self.wo.backward(&ctx.o_ctx, dy)?;

        let mut dq = scratch::take([batch * s_q, d]);
        let mut dk = scratch::take([batch * s_kv, d]);
        let mut dv = scratch::take([batch * s_kv, d]);

        let mut d_attn = scratch::take_for(s_q * s_kv);
        let mut dv_bh = scratch::take_for(s_kv * dh);
        let mut dq_bh = scratch::take_for(s_q * dh);
        let mut dk_bh = scratch::take_for(s_kv * dh);
        for b in 0..batch {
            for h in 0..self.heads {
                let attn = &ctx.attn[b * self.heads + h];
                let do_bh = Self::head_block(&d_oconcat, b, h, s_q, dh);
                let vb = Self::head_block(&ctx.v, b, h, s_kv, dh);
                let qb = Self::head_block(&ctx.q, b, h, s_q, dh);
                let kb = Self::head_block(&ctx.k, b, h, s_kv, dh);

                // o = attn · v
                ops::matmul_nt_into(&do_bh, &vb, &mut d_attn)?;
                ops::matmul_tn_into(attn, &do_bh, &mut dv_bh)?;

                // attn = softmax(scores); masked entries have attn == 0 so
                // their gradient is exactly zero through the softmax Jacobian.
                let mut ds = reduce::softmax_rows_backward(attn, &d_attn)?;
                ds.scale_in_place(scale);

                // scores = q · kᵀ (· scale, already folded into ds)
                ops::matmul_into(&ds, &kb, &mut dq_bh)?;
                ops::matmul_tn_into(&ds, &qb, &mut dk_bh)?;

                Self::add_head_block(&mut dq, &dq_bh, b, h, s_q, dh);
                Self::add_head_block(&mut dk, &dk_bh, b, h, s_kv, dh);
                Self::add_head_block(&mut dv, &dv_bh, b, h, s_kv, dh);

                scratch::put(do_bh);
                scratch::put(vb);
                scratch::put(qb);
                scratch::put(kb);
                scratch::put(ds);
            }
        }
        scratch::put(d_attn);
        scratch::put(dv_bh);
        scratch::put(dq_bh);
        scratch::put(dk_bh);
        scratch::put(d_oconcat);

        let dx = self.wq.backward(&ctx.q_ctx, &dq)?;
        let dkv_k = self.wk.backward(&ctx.k_ctx, &dk)?;
        let dkv_v = self.wv.backward(&ctx.v_ctx, &dv)?;
        scratch::put(dq);
        scratch::put(dk);
        scratch::put(dv);
        let dkv = dkv_k.add(&dkv_v)?;
        scratch::put(dkv_k);
        scratch::put(dkv_v);

        Ok((dx.reshape([batch, s_q, d])?, dkv.reshape([batch, s_kv, d])?))
    }

    fn expect_bsd(op: &'static str, t: &Tensor) -> Result<(usize, usize, usize)> {
        match t.dims() {
            &[b, s, d] => Ok((b, s, d)),
            _ => Err(TensorError::RankMismatch {
                op,
                expected: 3,
                actual: t.rank(),
            }),
        }
    }
}

impl Module for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.wq.visit_params_ref(f);
        self.wk.visit_params_ref(f);
        self.wv.visit_params_ref(f);
        self.wo.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_close;
    use pac_tensor::{init, rng::seeded};

    fn mha(seed: u64, d: usize, h: usize) -> MultiHeadAttention {
        let mut rng = seeded(seed);
        MultiHeadAttention::new("attn", &mut rng, d, h)
    }

    #[test]
    fn forward_shape_and_param_count() {
        let a = mha(30, 8, 2);
        let mut rng = seeded(31);
        let x = init::randn(&mut rng, [2, 3, 8], 1.0);
        let (y, _) = a.forward(&x, &x, false).unwrap();
        assert_eq!(y.dims(), &[2, 3, 8]);
        assert_eq!(a.num_params(), 4 * 8 * 8);
    }

    #[test]
    fn rejects_bad_ranks_and_dims() {
        let a = mha(32, 8, 2);
        let x2d = Tensor::zeros([3, 8]);
        assert!(a.forward(&x2d, &x2d, false).is_err());
        let x = Tensor::zeros([1, 3, 8]);
        let bad_kv = Tensor::zeros([2, 3, 8]);
        assert!(a.forward(&x, &bad_kv, false).is_err());
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        let a = mha(33, 4, 1);
        let mut rng = seeded(34);
        let x = init::randn(&mut rng, [1, 4, 4], 1.0);
        let (_, ctx) = a.forward(&x, &x, true).unwrap();
        let attn = &ctx.attn[0];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(attn.get(&[i, j]).unwrap(), 0.0, "future leak at ({i},{j})");
            }
            let rowsum: f32 = attn.row(i).unwrap().iter().sum();
            assert!((rowsum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn head_block_write_equals_accumulation_into_zeros_bitwise() {
        // -0.0 is the one input on which `x` and `0.0 + x` differ; a matmul
        // output can hold it (FMA underflow), so the write must add too.
        let (s, dh, heads) = (3, 4, 2);
        let mut src = init::randn(&mut seeded(43), [s, dh], 1.0);
        src.set(&[0, 1], -0.0).unwrap();
        src.set(&[2, 3], -0.0).unwrap();
        let mut written = Tensor::zeros([2 * s, heads * dh]);
        let mut added = written.clone();
        for (b, h) in [(0, 1), (1, 0)] {
            MultiHeadAttention::write_head_block(&mut written, &src, b, h, s, dh);
            MultiHeadAttention::add_head_block(&mut added, &src, b, h, s, dh);
        }
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&written), bits(&added));
        assert_eq!(
            written.get(&[0, dh + 1]).unwrap().to_bits(),
            0.0f32.to_bits()
        );
    }

    #[test]
    fn causal_future_input_does_not_affect_past_output() {
        let a = mha(35, 4, 2);
        let mut rng = seeded(36);
        let x1 = init::randn(&mut rng, [1, 3, 4], 1.0);
        let mut x2 = x1.clone();
        // Perturb only the last position.
        for c in 0..4 {
            let v = x2.get(&[0, 2, c]).unwrap();
            x2.set(&[0, 2, c], v + 1.0).unwrap();
        }
        let (y1, _) = a.forward(&x1, &x1, true).unwrap();
        let (y2, _) = a.forward(&x2, &x2, true).unwrap();
        for t in 0..2 {
            for c in 0..4 {
                assert!(
                    (y1.get(&[0, t, c]).unwrap() - y2.get(&[0, t, c]).unwrap()).abs() < 1e-6,
                    "position {t} changed"
                );
            }
        }
    }

    #[test]
    fn self_attention_gradient_matches_finite_difference() {
        let a = mha(37, 4, 2);
        let mut rng = seeded(38);
        let x = init::randn(&mut rng, [1, 3, 4], 0.5);
        let w = init::randn(&mut rng, [1, 3, 4], 1.0);

        let (_, ctx) = a.forward(&x, &x, false).unwrap();
        let mut a2 = a.clone();
        let (dx, dkv) = a2.backward(&ctx, &w).unwrap();
        let total = dx.add(&dkv).unwrap();

        assert_grad_close(&x, &total, 3e-2, |xp| {
            a.forward(xp, xp, false).unwrap().0.mul(&w).unwrap().sum()
        });
    }

    #[test]
    fn cross_attention_kv_gradient_matches_finite_difference() {
        let a = mha(39, 4, 1);
        let mut rng = seeded(40);
        let x = init::randn(&mut rng, [1, 2, 4], 0.5);
        let kv = init::randn(&mut rng, [1, 3, 4], 0.5);
        let w = init::randn(&mut rng, [1, 2, 4], 1.0);

        let (_, ctx) = a.forward(&x, &kv, false).unwrap();
        let mut a2 = a.clone();
        let (dx, dkv) = a2.backward(&ctx, &w).unwrap();

        assert_grad_close(&kv, &dkv, 3e-2, |kvp| {
            a.forward(&x, kvp, false).unwrap().0.mul(&w).unwrap().sum()
        });
        assert_grad_close(&x, &dx, 3e-2, |xp| {
            a.forward(xp, &kv, false).unwrap().0.mul(&w).unwrap().sum()
        });
    }

    #[test]
    fn causal_gradient_matches_finite_difference() {
        let a = mha(41, 4, 2);
        let mut rng = seeded(42);
        let x = init::randn(&mut rng, [1, 3, 4], 0.5);
        let w = init::randn(&mut rng, [1, 3, 4], 1.0);

        let (_, ctx) = a.forward(&x, &x, true).unwrap();
        let mut a2 = a.clone();
        let (dx, dkv) = a2.backward(&ctx, &w).unwrap();
        let total = dx.add(&dkv).unwrap();

        assert_grad_close(&x, &total, 3e-2, |xp| {
            a.forward(xp, xp, true).unwrap().0.mul(&w).unwrap().sum()
        });
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        let a = mha(43, 4, 2);
        let mut rng = seeded(44);
        let x = init::randn(&mut rng, [1, 2, 4], 0.5);

        let (_, ctx) = a.forward(&x, &x, false).unwrap();
        let mut a2 = a.clone();
        a2.backward(&ctx, &Tensor::ones([1, 2, 4])).unwrap();

        assert_grad_close(&a.wq.w.value, &a2.wq.w.grad, 3e-2, |wp| {
            let mut at = a.clone();
            at.wq.w.value = wp.clone();
            at.forward(&x, &x, false).unwrap().0.sum()
        });
        assert_grad_close(&a.wv.w.value, &a2.wv.w.grad, 3e-2, |wp| {
            let mut at = a.clone();
            at.wv.w.value = wp.clone();
            at.forward(&x, &x, false).unwrap().0.sum()
        });
    }
}
