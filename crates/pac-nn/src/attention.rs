//! Multi-head scaled-dot-product attention (self- and cross-attention).

use crate::linear::{Linear, LinearCtx};
use crate::param::{Module, Param};
use pac_tensor::ops::{Bias, Block, Form, View};
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
    /// Softmax attention weights, `[batch·heads·s_q, s_kv]`: the `[s_q,
    /// s_kv]` block of (batch row `b`, head `h`) starts at row
    /// `(b·heads + h)·s_q`.
    attn: Tensor,
    /// Concatenated per-head outputs before the output projection.
    o_ctx: LinearCtx,
    batch: usize,
    s_q: usize,
    s_kv: usize,
}

impl AttentionCtx {
    /// Hands the projections, the attention weights and the concatenated
    /// heads back to the scratch pool once the backward has consumed them.
    pub fn recycle(self) {
        for ctx in [self.q_ctx, self.k_ctx, self.v_ctx, self.o_ctx] {
            ctx.recycle();
        }
        for t in [self.q, self.k, self.v, self.attn] {
            scratch::put(t);
        }
    }
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

    /// Head `h` of batch row `b` in a `[batch·s, d]` projection: `s` rows of
    /// `dh` columns at row stride `d`, read and written where it lies.
    fn head(&self, b: usize, h: usize, s: usize) -> Block {
        let dh = self.dim / self.heads;
        Block::of(self.dim, b * s, s, h * dh, dh)
    }

    /// Forward pass.
    ///
    /// * `x`  — `[batch, s_q, d]` query-side input.
    /// * `kv` — `[batch, s_kv, d]` key/value-side input (`x` itself for
    ///   self-attention).
    /// * `causal` — apply a lower-triangular mask (decoder self-attention).
    ///
    /// Each head's products read its columns of the projections in place
    /// and write its context straight into its columns of the
    /// concatenation; its scores are normalized in place in the saved
    /// attention buffer.
    ///
    /// # Errors
    /// Returns shape errors if the inputs are not rank-3 `[b, s, d]` with
    /// matching batch and model dimensions.
    pub fn forward(&self, x: &Tensor, kv: &Tensor, causal: bool) -> Result<(Tensor, AttentionCtx)> {
        let (y, ctx) = self.run(x, kv, causal, true)?;
        Ok((y, ctx.expect("a recording run returns its context")))
    }

    /// The one forward body; `record` keeps what the backward reads.
    /// Without it (a frozen layer's forward) every head's scores are
    /// normalized in one reused `[s_q, s_kv]` block and the projections go
    /// back to the scratch pool once they are dead.
    pub(crate) fn run(
        &self,
        x: &Tensor,
        kv: &Tensor,
        causal: bool,
        record: bool,
    ) -> Result<(Tensor, Option<AttentionCtx>)> {
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

        let q = self.wq.forward_frozen(x)?;
        let k = self.wk.forward_frozen(kv)?;
        let v = self.wv.forward_frozen(kv)?;

        // The backward reads every head's weights; a frozen forward needs
        // each only until its context product.
        let mut attn = if record {
            scratch::take([batch * self.heads * s_q, s_kv])
        } else {
            scratch::take([s_q, s_kv])
        };
        let mut o_concat = scratch::take([batch * s_q, d]);
        let scores = Block::dense(s_q, s_kv);
        let (o, probs) = (o_concat.data_mut(), attn.data_mut());
        for bh in 0..batch * self.heads {
            let (b, h) = (bh / self.heads, bh % self.heads);
            let slot = if record { bh } else { 0 };
            let p = &mut probs[slot * s_q * s_kv..(slot + 1) * s_q * s_kv];
            let qh = View::new(q.data(), self.head(b, h, s_q));
            let kh = View::new(k.data(), self.head(b, h, s_kv));
            ops::matmul_strided(Form::Nt, qh, kh, Bias::None, p, scores)?;
            for s in p.iter_mut() {
                *s *= scale;
            }
            if causal {
                for (i, row) in p.chunks_exact_mut(s_kv).enumerate() {
                    row.iter_mut()
                        .skip(i + 1)
                        .for_each(|s| *s = f32::NEG_INFINITY);
                }
            }
            reduce::softmax_rows_in_place(p, s_kv);
            let vh = View::new(v.data(), self.head(b, h, s_kv));
            let p = View::new(p, scores);
            ops::matmul_strided(Form::Nn, p, vh, Bias::Zero, o, self.head(b, h, s_q))?;
        }

        let ctx = record.then(|| AttentionCtx {
            q_ctx: LinearCtx { x: x.clone() },
            k_ctx: LinearCtx { x: kv.clone() },
            v_ctx: LinearCtx { x: kv.clone() },
            q: q.clone(),
            k: k.clone(),
            v: v.clone(),
            attn: attn.clone(),
            o_ctx: LinearCtx {
                x: o_concat.clone(),
            },
            batch,
            s_q,
            s_kv,
        });
        for dead in [q, k, v, attn] {
            scratch::put(dead);
        }
        let y = self.wo.forward_frozen(&o_concat)?;
        scratch::put(o_concat);
        Ok((y.reshape([batch, s_q, d])?, ctx))
    }

    /// Backward pass. Returns `(dx, dkv)`: the gradient w.r.t. the
    /// query-side input and the key/value-side input. For self-attention the
    /// caller adds them together.
    ///
    /// Like the forward pass, each head reads its blocks of Q/K/V/dO in
    /// place and writes its blocks of dQ/dK/dV through the product's store;
    /// the softmax gradient overwrites the one `[s_q, s_kv]` buffer in place.
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

        let scores = Block::dense(s_q, s_kv);
        let mut d_scores = scratch::take([s_q, s_kv]);
        let ds = d_scores.data_mut();
        let (dqd, dkd, dvd) = (dq.data_mut(), dk.data_mut(), dv.data_mut());
        for bh in 0..batch * self.heads {
            let (b, h) = (bh / self.heads, bh % self.heads);
            let (qh, kvh) = (self.head(b, h, s_q), self.head(b, h, s_kv));
            let do_h = View::new(d_oconcat.data(), qh);
            let attn = &ctx.attn.data()[bh * s_q * s_kv..(bh + 1) * s_q * s_kv];
            let attn = View::new(attn, scores);

            // o = attn · v
            let vh = View::new(ctx.v.data(), kvh);
            ops::matmul_strided(Form::Nt, do_h, vh, Bias::None, ds, scores)?;
            ops::matmul_strided(Form::Tn, attn, do_h, Bias::Zero, dvd, kvh)?;

            // attn = softmax(scores); masked entries have attn == 0 so
            // their gradient is exactly zero through the softmax Jacobian.
            reduce::softmax_rows_backward_in_place(attn.data, ds, s_kv);
            for g in ds.iter_mut() {
                *g *= scale;
            }

            // scores = q · kᵀ (· scale, already folded into ds)
            let ds = View::new(ds, scores);
            let kh = View::new(ctx.k.data(), kvh);
            ops::matmul_strided(Form::Nn, ds, kh, Bias::Zero, dqd, qh)?;
            let q_h = View::new(ctx.q.data(), qh);
            ops::matmul_strided(Form::Tn, ds, q_h, Bias::Zero, dkd, kvh)?;
        }
        scratch::put(d_scores);
        scratch::put(d_oconcat);

        let dx = self.wq.backward(&ctx.q_ctx, &dq)?;
        let dkv_k = self.wk.backward(&ctx.k_ctx, &dk)?;
        let dkv_v = self.wv.backward(&ctx.v_ctx, &dv)?;
        scratch::put(dq);
        scratch::put(dk);
        scratch::put(dv);
        // `k + v` summed in `k`'s pooled buffer: addition commutes, so
        // these are the bits of a fresh sum.
        let mut dkv = dkv_k;
        dkv.add_assign(&dkv_v)?;
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
    fn empty_sequences_run_forward_and_backward() {
        let mut a = mha(29, 8, 2);
        let mut rng = seeded(28);
        let x = init::randn(&mut rng, [2, 3, 8], 1.0);
        let none = Tensor::zeros([2, 0, 8]);
        // No queries, and queries over no keys (their context is zero).
        for (q, kv) in [(&none, &x), (&x, &none), (&none, &none)] {
            let (y, ctx) = a.forward(q, kv, false).unwrap();
            assert_eq!(y.dims(), q.dims());
            assert_eq!(a.run(q, kv, false, false).unwrap().0, y);
            let (dx, dkv) = a.backward(&ctx, &y).unwrap();
            assert_eq!((dx.dims(), dkv.dims()), (q.dims(), kv.dims()));
            assert!(y.all_finite() && dx.all_finite() && dkv.all_finite());
        }
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
        let attn = &ctx.attn;
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(attn.get(&[i, j]).unwrap(), 0.0, "future leak at ({i},{j})");
            }
            let rowsum: f32 = attn.row(i).unwrap().iter().sum();
            assert!((rowsum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn head_store_equals_accumulation_into_zeros_bitwise() {
        // -0.0 is the one input on which `x` and `0.0 + x` differ; an FMA sum
        // of products that underflow rounds to it (row 0 · column 1 here, on
        // a full 16-column strip of an FMA CPU), so the store into a head
        // block must add a zero too.
        let (s, k, dh, heads) = (3, 5, 16, 2);
        let mut rng = seeded(43);
        let mut a = init::randn(&mut rng, [s, k], 1.0);
        let mut b = init::randn(&mut rng, [k, dh], 1.0);
        for kk in 0..k {
            a.set(&[0, kk], 1e-30).unwrap();
            b.set(&[kk, 1], -1e-30).unwrap();
        }
        let dense = ops::matmul(&a, &b).unwrap();
        assert_eq!(dense.get(&[0, 1]).unwrap(), 0.0);
        let attn = mha(43, heads * dh, heads);
        let mut written = Tensor::zeros([2 * s, heads * dh]);
        let mut added = written.clone();
        for (bi, h) in [(0, 1), (1, 0)] {
            let at = attn.head(bi, h, s);
            let a = View::new(a.data(), Block::dense(s, k));
            let b = View::new(b.data(), Block::dense(k, dh));
            ops::matmul_strided(Form::Nn, a, b, Bias::Zero, written.data_mut(), at).unwrap();
            for (r, row) in dense.data().chunks_exact(dh).enumerate() {
                let dst = &mut added.data_mut()[at.offset + r * at.stride..][..dh];
                for (d, v) in dst.iter_mut().zip(row) {
                    *d += v;
                }
            }
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
