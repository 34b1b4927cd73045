//! Parallel Adapters — the paper's fine-tuning technique (§4.1).
//!
//! A lightweight side network runs *parallel* to the frozen backbone:
//!
//! ```text
//! a_0 = σ(down_0(b_0))
//! a_i = σ(down_i(b_i) + rec_i(a_{i-1}))     i = 1..L-1
//! ŷ   = head(LN(b_L + up(a_L)))
//! ```
//!
//! where `b_i` is backbone layer `i`'s output and the side hidden width is
//! `r = h / k` (reduction factor `k = 8` in the paper). Three properties
//! follow, and each is exercised by a test below:
//!
//! 1. **No backbone backward pass** — gradients never enter the backbone
//!    (the dedicated "gradient highway" of the paper's Figure 5c).
//! 2. **Activation-cache compatible** — the side network's only inputs are
//!    the `b_i`, so [`ParallelTuner::forward_cached`] trains from cached
//!    activations without touching the backbone at all.
//! 3. **Structural-pruning init** — side weights are initialized from the
//!    backbone's weights (§6.1), implemented in `pac_tensor::init`.

use crate::checkpoint::{CheckpointError, TrainCheckpoint};
use pac_model::{EncDecModel, ModelConfig};
use pac_nn::{Activation, LayerNorm, LayerNormCtx, Linear, LinearCtx, Module, Param};
use pac_tensor::{init, reduce, Result, Tensor, TensorError};
use rand::Rng;

/// Per-layer saved context of the side network.
#[derive(Debug, Clone)]
struct SideLayerCtx {
    down_ctx: LinearCtx,
    /// Recurrence context and, if the previous state was pooled at the
    /// encoder→decoder boundary, the original sequence length.
    rec: Option<(LinearCtx, Option<usize>)>,
    /// Pre-activation side state (2-D `[b*s, r]`).
    pre: Tensor,
    batch: usize,
    seq: usize,
}

/// Context captured by [`ParallelAdapters::forward_from_acts`].
#[derive(Debug, Clone)]
pub struct SideCtx {
    layers: Vec<SideLayerCtx>,
    up_ctx: LinearCtx,
    ln_ctx: LayerNormCtx,
    head_ctx: LinearCtx,
    batch: usize,
}

/// The trainable side network.
#[derive(Debug, Clone)]
pub struct ParallelAdapters {
    /// Per-layer down projections `[d, r]`.
    pub down: Vec<Linear>,
    /// Recurrence projections `[r, r]` connecting `a_{i-1} → a_i`
    /// (length `L − 1`).
    pub rec: Vec<Linear>,
    /// Up projection `[r, d]`.
    pub up: Linear,
    /// LayerNorm over the combined representation.
    pub side_ln: LayerNorm,
    /// Task head `[d, n_out]`.
    pub head: Linear,
    act: Activation,
    r: usize,
}

impl ParallelAdapters {
    /// Builds a side network for `config` with reduction factor `k` and
    /// `n_out` outputs. Down projections are initialized by structural
    /// pruning of the corresponding backbone attention weights when
    /// `backbone` is given, otherwise randomly.
    pub fn new(
        config: &ModelConfig,
        reduction: usize,
        n_out: usize,
        backbone: Option<&EncDecModel>,
        rng: &mut impl Rng,
    ) -> Self {
        let d = config.hidden;
        let r = (d / reduction).max(1);
        let layers = config.total_layers();
        let down = match backbone {
            Some(m) => m
                .encoder
                .layers()
                .chain(&m.decoder)
                .enumerate()
                .map(|(i, layer)| {
                    let w = init::structural_prune(&layer.self_attn.wq.w.value, d, r);
                    Linear::from_weights(
                        &format!("side.down{i}"),
                        w.scale(0.1),
                        Some(Tensor::zeros([r])),
                    )
                })
                .collect(),
            None => (0..layers)
                .map(|i| Linear::new(&format!("side.down{i}"), rng, d, r, true))
                .collect(),
        };
        let rec = (1..layers)
            .map(|i| Linear::new(&format!("side.rec{i}"), rng, r, r, true))
            .collect();
        ParallelAdapters {
            down,
            rec,
            up: Linear::new("side.up", rng, r, d, true),
            side_ln: LayerNorm::new("side.ln", d),
            head: Linear::new("side.head", rng, d, n_out, true),
            act: Activation::Gelu,
            r,
        }
    }

    /// Side hidden width `r`.
    pub fn side_dim(&self) -> usize {
        self.r
    }

    /// Forward pass from backbone layer outputs `acts` (`acts[i] = b_i`,
    /// `[b, s_i, d]`). This is the *only* input the side network needs — the
    /// fact exploited by the activation cache.
    ///
    /// # Errors
    /// Returns shape errors if `acts` does not match the configured layer
    /// count or shapes are malformed.
    pub fn forward_from_acts(&self, acts: &[Tensor]) -> Result<(Tensor, SideCtx)> {
        if acts.len() != self.down.len() {
            return Err(TensorError::ShapeMismatch {
                op: "parallel_adapters",
                lhs: vec![acts.len()],
                rhs: vec![self.down.len()],
            });
        }
        let mut layers = Vec::with_capacity(acts.len());
        let mut a_prev: Option<Tensor> = None; // [b, s, r]
        for (i, b_i) in acts.iter().enumerate() {
            let (batch, seq, _d) = expect_bsd(b_i)?;
            let (down_out, down_ctx) = self.down[i].forward(b_i)?; // [b*s, r]
            let mut pre = down_out;
            let rec_ctx = if let Some(prev) = a_prev.take() {
                let (pb, ps, pr) = expect_bsd(&prev)?;
                debug_assert_eq!(pb, batch);
                let (prev_use, pooled) = if ps != seq {
                    (reduce::mean_pool_seq(&prev, pb, ps, pr)?, Some(ps))
                } else {
                    (prev, None)
                };
                let (rec_out, rctx) = self.rec[i - 1].forward(&prev_use)?;
                pre.add_assign(&rec_out)?;
                Some((rctx, pooled))
            } else {
                None
            };
            let a_i = self.act.forward(&pre).reshape([batch, seq, self.r])?;
            layers.push(SideLayerCtx {
                down_ctx,
                rec: rec_ctx,
                pre,
                batch,
                seq,
            });
            a_prev = Some(a_i);
        }

        let a_last = a_prev.expect("at least one layer");
        let b_last = acts.last().expect("at least one layer");
        let (batch, s_last, d) = expect_bsd(b_last)?;
        let (up_out, up_ctx) = self.up.forward(&a_last)?;
        let repr = b_last.add(&up_out.reshape([batch, s_last, d])?)?;
        let (normed, ln_ctx) = self.side_ln.forward(&repr)?;
        // Head reads the final position's representation (s_last = 1 for
        // decoder outputs; otherwise all positions are pooled by the 2-D
        // view of the linear layer applying per-row and averaging below).
        let pooled = if s_last == 1 {
            normed.clone().reshape([batch, d])?
        } else {
            reduce::mean_pool_seq(&normed, batch, s_last, d)?
        };
        let (logits, head_ctx) = self.head.forward(&pooled)?;
        Ok((
            logits,
            SideCtx {
                layers,
                up_ctx,
                ln_ctx,
                head_ctx,
                batch,
            },
        ))
    }

    /// Backward pass from `dlogits`. Accumulates gradients into the side
    /// network only — by construction nothing flows into the backbone.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn backward(&mut self, ctx: &SideCtx, dlogits: &Tensor) -> Result<()> {
        let batch = ctx.batch;
        let last = ctx.layers.last().expect("at least one layer");
        let (s_last, _) = (last.seq, last.batch);
        let d = self.side_ln.dim();

        let d_pooled = self.head.backward(&ctx.head_ctx, dlogits)?; // [b, d]
        let d_normed = if s_last == 1 {
            d_pooled.reshape([batch, 1, d])?
        } else {
            reduce::mean_pool_seq_backward(&d_pooled, batch, s_last, d)?
        };
        let d_repr = self.side_ln.backward(&ctx.ln_ctx, &d_normed)?;
        // repr = b_last + up(a_last): the b_last branch dies here (frozen
        // backbone — the "gradient highway" property).
        let mut d_a = self.up.backward(&ctx.up_ctx, &d_repr)?; // [b*s, r]

        for i in (0..ctx.layers.len()).rev() {
            let lctx = &ctx.layers[i];
            let d_pre = self.act.backward(&lctx.pre, &d_a);
            // Down-projection grads only: b_i is frozen, so no `dx` into it.
            self.down[i].backward_params(&lctx.down_ctx, &d_pre)?;
            if let Some((rctx, pooled)) = &lctx.rec {
                let mut d_prev = self.rec[i - 1].backward(rctx, &d_pre)?; // [b*s, r]
                if let Some(orig_s) = pooled {
                    // The forward pooled [b, orig_s, r] → [b, r].
                    d_prev = reduce::mean_pool_seq_backward(&d_prev, batch, *orig_s, self.r)?
                        .reshape([batch * orig_s, self.r])?;
                }
                d_a = d_prev;
            }
        }
        Ok(())
    }
}

fn expect_bsd(t: &Tensor) -> Result<(usize, usize, usize)> {
    match t.dims() {
        &[b, s, d] => Ok((b, s, d)),
        _ => Err(TensorError::RankMismatch {
            op: "parallel_adapters expects [b, s, d]",
            expected: 3,
            actual: t.rank(),
        }),
    }
}

impl Module for ParallelAdapters {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.down {
            l.visit_params(f);
        }
        for l in &mut self.rec {
            l.visit_params(f);
        }
        self.up.visit_params(f);
        self.side_ln.visit_params(f);
        self.head.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for l in &self.down {
            l.visit_params_ref(f);
        }
        for l in &self.rec {
            l.visit_params_ref(f);
        }
        self.up.visit_params_ref(f);
        self.side_ln.visit_params_ref(f);
        self.head.visit_params_ref(f);
    }
}

/// Parallel-Adapters fine-tuning: frozen backbone + trainable side network.
#[derive(Debug, Clone)]
pub struct ParallelTuner {
    /// Fully frozen backbone (its own head is unused; the side network has
    /// its own).
    pub model: EncDecModel,
    /// The trainable side network.
    pub side: ParallelAdapters,
}

/// Context of a full (non-cached) Parallel-Adapters forward pass.
#[derive(Debug, Clone)]
pub struct ParallelCtx {
    /// Side-network context (all that backward needs).
    pub side: SideCtx,
    /// Backbone layer outputs — exactly what the activation cache stores.
    pub layer_outputs: Vec<Tensor>,
}

impl ParallelTuner {
    /// Freezes `model` entirely and attaches a side network with reduction
    /// factor `k`.
    ///
    /// Once the side network has read its structural-pruning init, every
    /// projection of the backbone's layers is packed for frozen forwards
    /// ([`pac_nn::Linear::pack_frozen`]): the backbone never gets a
    /// gradient, so its weights are packed here once instead of by every
    /// product of every forward, and the packed form replaces the row-major
    /// one. The backbone's own head, which [`ParallelTuner::forward_full`]
    /// never runs, stays as it is.
    pub fn new(mut model: EncDecModel, reduction: usize, n_out: usize, rng: &mut impl Rng) -> Self {
        model.freeze_all();
        let side = ParallelAdapters::new(&model.config, reduction, n_out, Some(&model), rng);
        for layer in model.encoder.layers_mut().chain(&mut model.decoder) {
            layer.pack_frozen();
        }
        ParallelTuner { model, side }
    }

    /// Epoch-1 forward: frozen backbone forward (to produce the `b_i`), then
    /// the side network. No backward ever enters the backbone, so its
    /// forward keeps no activation beyond the `b_i` themselves.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn forward_full(&self, tokens: &[Vec<usize>]) -> Result<(Tensor, ParallelCtx)> {
        let layer_outputs = self.model.forward_frozen(tokens)?;
        let (logits, side) = self.side.forward_from_acts(&layer_outputs)?;
        Ok((
            logits,
            ParallelCtx {
                side,
                layer_outputs,
            },
        ))
    }

    /// Epoch-≥2 forward: straight from cached activations, no backbone.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn forward_cached(&self, acts: &[Tensor]) -> Result<(Tensor, SideCtx)> {
        self.side.forward_from_acts(acts)
    }

    /// Backward pass (side network only).
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn backward(&mut self, ctx: &SideCtx, dlogits: &Tensor) -> Result<()> {
        self.side.backward(ctx, dlogits)
    }

    /// Captures the current side-network state as a swap baseline. A
    /// multi-tenant host calls this once right after construction, while
    /// the side network is still pristine, so [`ParallelTuner::reset_to`]
    /// can scrub one tenant's weights before the next tenant attaches.
    pub fn baseline(&self) -> AdapterBaseline {
        AdapterBaseline {
            snap: TrainCheckpoint::capture(self, 0, 0, 0),
        }
    }

    /// Attaches a tenant's personal adapter: restores side-network weights
    /// and Adam moments from `adapter` and clears gradients. The frozen
    /// backbone is untouched — `ParallelTuner`'s [`Module`] impl visits the
    /// side network only, so a swap can never leak into shared state.
    ///
    /// # Errors
    /// Propagates name/shape mismatches from checkpoint restore.
    pub fn swap_in(
        &mut self,
        adapter: &TrainCheckpoint,
    ) -> std::result::Result<(), CheckpointError> {
        adapter.restore(self)?;
        self.zero_grads();
        Ok(())
    }

    /// Detaches the current tenant: resets the side network (weights,
    /// moments, gradients) to the captured `baseline`. A fresh tenant's
    /// job must start from this state — skipping it leaks the previous
    /// tenant's weights into the next tenant's trajectory, which the
    /// serve-layer isolation suite detects bitwise. A job that attaches an
    /// adapter needs no reset first: [`ParallelTuner::swap_in`] overwrites
    /// the same state whole.
    ///
    /// # Errors
    /// Propagates name/shape mismatches from checkpoint restore.
    pub fn reset_to(
        &mut self,
        baseline: &AdapterBaseline,
    ) -> std::result::Result<(), CheckpointError> {
        baseline.snap.restore(self)?;
        self.zero_grads();
        Ok(())
    }
}

/// Pristine side-network state captured by [`ParallelTuner::baseline`],
/// used to scrub tenant state between adapter swaps.
#[derive(Debug, Clone)]
pub struct AdapterBaseline {
    snap: TrainCheckpoint,
}

impl AdapterBaseline {
    /// Serialized size of the baseline snapshot in bytes — also the
    /// resident size of one blank adapter, which the serve-layer cache
    /// uses to size its eviction budget.
    pub fn size_bytes(&self) -> usize {
        self.snap.size_bytes()
    }
}

impl Module for ParallelTuner {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.side.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.side.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_nn::{cross_entropy, Adam, Optimizer};
    use pac_tensor::rng::seeded;

    fn tuner(seed: u64) -> ParallelTuner {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let model = EncDecModel::new(&cfg, 2, &mut seeded(seed));
        ParallelTuner::new(model, 4, 2, &mut seeded(seed + 1))
    }

    fn toks(seed: u64, b: usize) -> Vec<Vec<usize>> {
        let mut rng = seeded(seed);
        (0..b)
            .map(|_| (0..4).map(|_| rng.gen_range(0..64)).collect())
            .collect()
    }

    #[test]
    fn forward_shapes_and_trainable_set() {
        let t = tuner(150);
        let batch = toks(151, 3);
        let (logits, ctx) = t.forward_full(&batch).unwrap();
        assert_eq!(logits.dims(), &[3, 2]);
        assert_eq!(ctx.layer_outputs.len(), 3);
        // Only the side network trains; backbone contributes nothing.
        assert_eq!(t.num_trainable(), t.side.num_params());
        let backbone_trainable = t.model.num_trainable();
        assert_eq!(backbone_trainable, 0);
    }

    #[test]
    fn backward_never_touches_backbone_grads() {
        let mut t = tuner(152);
        let batch = toks(153, 2);
        let (logits, ctx) = t.forward_full(&batch).unwrap();
        let (_, dl) = cross_entropy(&logits, &[0, 1]).unwrap();
        t.backward(&ctx.side, &dl).unwrap();
        let mut backbone_gnorm = 0.0f32;
        t.model
            .visit_params_ref(&mut |p| backbone_gnorm += p.grad.norm());
        assert_eq!(backbone_gnorm, 0.0, "gradient leaked into the backbone");
        let mut side_gnorm = 0.0f32;
        t.side
            .visit_params_ref(&mut |p| side_gnorm += p.grad.norm());
        assert!(side_gnorm > 0.0, "side network got no gradient");
    }

    #[test]
    fn cached_forward_is_bitwise_identical_to_full() {
        // The core cache-correctness property (paper §4.2): feeding cached
        // b_i reproduces the full forward exactly.
        let t = tuner(154);
        let batch = toks(155, 2);
        let (full_logits, ctx) = t.forward_full(&batch).unwrap();
        let (cached_logits, _) = t.forward_cached(&ctx.layer_outputs).unwrap();
        assert!(full_logits.approx_eq(&cached_logits, 0.0));
    }

    #[test]
    fn side_gradient_matches_finite_difference() {
        let mut t = tuner(156);
        let batch = toks(157, 2);
        let targets = [0usize, 1];
        let (logits, ctx) = t.forward_full(&batch).unwrap();
        let (_, dl) = cross_entropy(&logits, &targets).unwrap();
        t.zero_grads();
        t.backward(&ctx.side, &dl).unwrap();

        // Probe a down-projection weight (layer 1) against finite diff.
        let grad = t.side.down[1].w.grad.clone();
        let eps = 1e-2f32;
        for i in [0usize, 5, 11] {
            let loss_at = |delta: f32| {
                let mut tp = t.clone();
                tp.side.down[1].w.value.data_mut()[i] += delta;
                let (lp, _) = tp.forward_cached(&ctx.layer_outputs).unwrap();
                cross_entropy(&lp, &targets).unwrap().0
            };
            let numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 2e-2_f32.max(numeric.abs() * 0.1),
                "d(down1)[{i}]: numeric {numeric} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn adapter_swap_round_trips_tenant_state_bitwise() {
        let mut t = tuner(170);
        let base = t.baseline();
        let batch = toks(171, 2);
        let (pristine_logits, ctx) = t.forward_full(&batch).unwrap();
        let acts = ctx.layer_outputs;

        // Tenant A trains a few cached steps; capture its adapter.
        let mut opt = Adam::new(5e-2);
        for _ in 0..3 {
            let (logits, sctx) = t.forward_cached(&acts).unwrap();
            let (_, dl) = cross_entropy(&logits, &[0, 1]).unwrap();
            t.zero_grads();
            t.backward(&sctx, &dl).unwrap();
            opt.step(&mut t);
        }
        let adapter_a = TrainCheckpoint::capture(&t, 0, 3, opt.t);
        let (logits_a, _) = t.forward_cached(&acts).unwrap();
        assert!(!logits_a.approx_eq(&pristine_logits, 0.0));

        // Detach: the tuner is bitwise back at the pristine baseline.
        t.reset_to(&base).unwrap();
        let (logits_reset, _) = t.forward_cached(&acts).unwrap();
        assert!(logits_reset.approx_eq(&pristine_logits, 0.0));
        let mut moments = 0usize;
        t.visit_params_ref(&mut |p| moments += usize::from(p.opt_m.is_some()));
        assert_eq!(moments, 0, "reset_to must scrub Adam moments");

        // Re-attach tenant A: identical logits, moments back in place.
        t.swap_in(&adapter_a).unwrap();
        let (logits_back, _) = t.forward_cached(&acts).unwrap();
        assert!(logits_back.approx_eq(&logits_a, 0.0));
        let mut moments = 0usize;
        t.visit_params_ref(&mut |p| moments += usize::from(p.opt_m.is_some()));
        assert!(moments > 0, "swap_in must restore Adam moments");
    }

    #[test]
    fn training_from_cache_reduces_loss() {
        let mut t = tuner(158);
        let batch = toks(159, 4);
        let targets = [0usize, 1, 0, 1];
        // Epoch 1: fill "cache" (here: just capture the acts once).
        let (_, ctx) = t.forward_full(&batch).unwrap();
        let acts = ctx.layer_outputs;
        // Epochs 2+: cached training.
        let mut opt = Adam::new(1e-2);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..25 {
            let (logits, sctx) = t.forward_cached(&acts).unwrap();
            let (loss, dl) = cross_entropy(&logits, &targets).unwrap();
            if i == 0 {
                first = loss;
            }
            last = loss;
            t.zero_grads();
            t.backward(&sctx, &dl).unwrap();
            opt.step(&mut t);
        }
        assert!(last < first * 0.8, "first {first} last {last}");
    }

    #[test]
    fn a_packed_backbone_keeps_counts_names_and_forward_bits() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let model = EncDecModel::new(&cfg, 2, &mut seeded(180));
        let packed = ParallelTuner::new(model.clone(), 4, 2, &mut seeded(181));
        // The same tuner with its backbone left row-major.
        let mut row_major = model;
        row_major.freeze_all();
        let unpacked = ParallelTuner {
            model: row_major,
            side: packed.side.clone(),
        };
        let every_layer_packed = |t: &ParallelTuner| {
            t.model.encoder.layers().chain(&t.model.decoder).all(|l| {
                let cross = l.cross_attn.iter().map(|(_, a)| a);
                std::iter::once(&l.self_attn)
                    .chain(cross)
                    .flat_map(|a| [&a.wq, &a.wk, &a.wv, &a.wo])
                    .chain([&l.ffn.up, &l.ffn.down])
                    .all(|w| w.w.panels().is_some() && w.w.value.numel() == 0)
            })
        };
        assert!(every_layer_packed(&packed));
        assert!(!every_layer_packed(&unpacked));

        let total = |t: &ParallelTuner| crate::Tuner::Parallel(t.clone()).total_params();
        assert_eq!(total(&packed), total(&unpacked));
        assert_eq!(packed.num_params(), unpacked.num_params());
        assert_eq!(packed.model.num_params(), unpacked.model.num_params());
        let names = |t: &ParallelTuner| {
            let mut v = Vec::new();
            t.model
                .visit_params_ref(&mut |p| v.push((p.name.clone(), p.numel())));
            t.visit_params_ref(&mut |p| v.push((p.name.clone(), p.numel())));
            v
        };
        assert_eq!(names(&packed), names(&unpacked));

        let batch = toks(182, 3);
        let (a, ctx_a) = packed.forward_full(&batch).unwrap();
        let (b, ctx_b) = unpacked.forward_full(&batch).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        for (x, y) in ctx_a.layer_outputs.iter().zip(&ctx_b.layer_outputs) {
            assert_eq!(bits(x), bits(y));
        }
    }

    #[test]
    fn wrong_act_count_is_error() {
        let t = tuner(161);
        let batch = toks(162, 1);
        let (_, ctx) = t.forward_full(&batch).unwrap();
        let mut acts = ctx.layer_outputs;
        acts.pop();
        assert!(t.forward_cached(&acts).is_err());
    }
}
