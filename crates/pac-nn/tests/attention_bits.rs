//! Attention's output and gradient bits, pinned.
//!
//! Every head of `MultiHeadAttention` runs the same products, in the same
//! k order and on the same tile, however its operands are laid out in
//! memory, so changing where a head's Q/K/V/dO blocks are read from or
//! where its context and gradients are written must not move a bit. The
//! literal is the FNV-1a of the forward output, `dx`, `dkv` and the four
//! projection-weight gradients over the shapes below, computed with
//! per-head copies on an AVX2+FMA CPU; the portable class rounds
//! differently.

use pac_nn::MultiHeadAttention;
use pac_tensor::{init, rng::seeded, Tensor};

/// `(batch, s_q, s_kv, d, heads, causal)`: the `pac_solo` backbone shape,
/// the `dist_world` stage shape, a causal decoder block, cross-attention
/// with one query, a ragged cross block, three heads of 16 and a causal
/// block whose score rows cross the 32-column strip.
const SHAPES: [(usize, usize, usize, usize, usize, bool); 7] = [
    (8, 13, 13, 256, 4, false),
    (4, 16, 16, 32, 2, false),
    (2, 8, 8, 32, 2, true),
    (2, 1, 8, 32, 2, false),
    (3, 5, 7, 16, 2, false),
    (2, 17, 17, 48, 3, false),
    (2, 33, 33, 64, 2, true),
];

/// Forward, backward and the weight gradients of one shape, in hash order.
fn outputs(i: usize) -> Vec<Tensor> {
    let (batch, s_q, s_kv, d, heads, causal) = SHAPES[i];
    let mut rng = seeded(500 + i as u64);
    let a = MultiHeadAttention::new("attn", &mut rng, d, heads);
    let x = init::randn(&mut rng, [batch, s_q, d], 1.0);
    let kv = if s_q == s_kv {
        x.clone()
    } else {
        init::randn(&mut rng, [batch, s_kv, d], 1.0)
    };
    let dy = init::randn(&mut rng, [batch, s_q, d], 1.0);
    let (y, ctx) = a.forward(&x, &kv, causal).unwrap();
    let mut a = a;
    let (dx, dkv) = a.backward(&ctx, &dy).unwrap();
    vec![
        y,
        dx,
        dkv,
        a.wq.w.grad.clone(),
        a.wk.w.grad.clone(),
        a.wv.w.grad.clone(),
        a.wo.w.grad.clone(),
    ]
}

#[test]
fn attention_bits_are_pinned_on_fma_cpus() {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..SHAPES.len() {
            for t in outputs(i) {
                for v in t.data() {
                    hash = (hash ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0xe03c_197c_c5f0_26a8, "{hash:#018x}");
        return;
    }
    println!("skipped: the pinned bits are those of the AVX2+FMA class");
}

#[test]
fn attention_outputs_are_finite_and_shaped() {
    for (i, &(batch, s_q, s_kv, d, _, _)) in SHAPES.iter().enumerate() {
        let out = outputs(i);
        assert_eq!(out[0].dims(), &[batch, s_q, d]);
        assert_eq!(out[1].dims(), &[batch, s_q, d]);
        assert_eq!(out[2].dims(), &[batch, s_kv, d]);
        assert!(out.iter().all(Tensor::all_finite), "shape {i}");
    }
}
