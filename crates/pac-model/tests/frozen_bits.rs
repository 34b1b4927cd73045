//! `forward_frozen` ≡ `forward`, bit for bit, for `EncDecModel` and for a
//! chain of `StageModel`s.
//!
//! The frozen forward runs the same kernels in the same order as the
//! training forward; it only keeps no context and recycles its
//! intermediates. So every layer output, and a stage's head logits, must
//! carry the training forward's bits, at every pool width: the activation
//! cache and the Parallel-Adapters epoch losses depend on it.

use pac_model::{EncDecModel, EncoderModel, ModelConfig, StageData, StageModel};
use pac_nn::{Activation, Module, TransformerLayer};
use pac_tensor::{init, rng::seeded, Tensor};
use rand::Rng;

/// `(enc_layers, dec_layers, hidden, heads, batch, seq)`: the `pac_solo`
/// backbone shape (encoder only), an encoder-decoder (causal
/// self-attention and cross-attention), three heads of 16 and a one-row
/// batch.
const SHAPES: [(usize, usize, usize, usize, usize, usize); 4] = [
    (2, 0, 256, 4, 8, 13),
    (2, 2, 32, 2, 3, 7),
    (2, 1, 48, 3, 2, 17),
    (1, 1, 32, 2, 1, 5),
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Every layer's output through the recording `TransformerLayer::forward`,
/// in `forward_frozen`'s order: encoder layers, then decoder layers.
fn recorded_outputs(m: &EncDecModel, tokens: &[Vec<usize>]) -> Vec<Tensor> {
    let (mut x, _) = m.embed_batch(tokens).unwrap();
    let mut outputs = Vec::new();
    for layer in m.encoder.layers() {
        x = layer.forward(&x, None).unwrap().0;
        outputs.push(x.clone());
    }
    let batch = tokens.len();
    let (embed, pos) = m.embedding();
    let start = embed.forward(&vec![m.start_token; batch]).unwrap();
    let pos = pos.forward(&vec![0; batch]).unwrap();
    let mut xd = start
        .add(&pos)
        .unwrap()
        .reshape([batch, 1, m.config.hidden])
        .unwrap();
    for layer in &m.decoder {
        xd = layer.forward(&xd, Some(&x)).unwrap().0;
        outputs.push(xd.clone());
    }
    outputs
}

#[test]
fn frozen_forward_keeps_the_training_forwards_bits_at_every_pool_width() {
    for (i, &(enc, dec, hidden, heads, batch, seq)) in SHAPES.iter().enumerate() {
        let cfg = ModelConfig::micro(enc, dec, hidden, heads);
        let mut m = EncDecModel::new(&cfg, 3, &mut seeded(700 + i as u64));
        let mut rng = seeded(800 + i as u64);
        // A fresh LayerNorm is γ = 1, β = 0, on which its affine pass
        // cannot round; draw both so it does.
        m.visit_params(&mut |p| {
            if p.name.ends_with("gamma") || p.name.ends_with("beta") {
                p.value = init::randn(&mut rng, p.value.dims(), 0.5);
            }
        });
        let tokens: Vec<Vec<usize>> = (0..batch)
            .map(|_| (0..seq).map(|_| rng.gen_range(0..cfg.vocab)).collect())
            .collect();

        let want_outputs: Vec<Vec<u32>> = recorded_outputs(&m, &tokens).iter().map(bits).collect();
        assert_eq!(want_outputs.len(), enc + dec);
        for width in [1, 2, 8] {
            rayon::pool::set_max_concurrency(width);
            let calls = rayon::pool::stats().parallel_calls;
            let outputs = m.forward_frozen(&tokens).unwrap();
            if i == 0 {
                // The counter only grows, so this holds beside other tests.
                assert!(
                    rayon::pool::stats().parallel_calls > calls,
                    "the pac_solo shape ran inline: its widths test nothing"
                );
            }
            assert_eq!(outputs.len(), want_outputs.len(), "shape {i}");
            for (l, (got, want)) in outputs.iter().zip(&want_outputs).enumerate() {
                assert_eq!(&bits(got), want, "shape {i}, width {width}: layer {l}");
            }
        }
        rayon::pool::set_max_concurrency(usize::MAX);
    }
}

/// Runs `stages` in order, each through `run`; returns the head logits and
/// every layer's output.
fn chain(
    stages: &[StageModel],
    tokens: &[Vec<usize>],
    run: impl Fn(&StageModel, StageData) -> (StageData, Vec<Tensor>),
) -> (Tensor, Vec<Tensor>) {
    let mut data = StageData::Tokens(tokens.to_vec());
    let mut outputs = Vec::new();
    for stage in stages {
        let (out, layer_outputs) = run(stage, data);
        outputs.extend(layer_outputs);
        data = out;
    }
    match data {
        StageData::Logits(logits) => (logits, outputs),
        _ => panic!("the chain did not end at the head"),
    }
}

/// `EncoderModel` cut into stage chains: chained `StageModel::forward_frozen`
/// keeps chained `StageModel::forward`'s bits in every layer output and in
/// the head logits.
#[test]
fn frozen_stage_chain_keeps_the_training_forwards_bits_at_every_pool_width() {
    for (i, &(_, _, hidden, heads, batch, seq)) in SHAPES.iter().enumerate() {
        let cfg = ModelConfig::micro(4, 0, hidden, heads);
        let mut m = EncoderModel::new(&cfg, 3, &mut seeded(1700 + i as u64));
        let mut rng = seeded(1800 + i as u64);
        m.visit_params(&mut |p| {
            if p.name.ends_with("gamma") || p.name.ends_with("beta") {
                p.value = init::randn(&mut rng, p.value.dims(), 0.5);
            }
        });
        let tokens: Vec<Vec<usize>> = (0..batch)
            .map(|_| (0..seq).map(|_| rng.gen_range(0..cfg.vocab)).collect())
            .collect();
        for cuts in [vec![4], vec![2, 2], vec![1, 3]] {
            let stages = m.clone().partition(&cuts).unwrap();
            let (want_logits, want_outputs) = chain(&stages, &tokens, |s, d| {
                let (out, ctx) = s.forward(d).unwrap();
                (out, ctx.layer_outputs)
            });
            assert_eq!(want_outputs.len(), 4);
            for width in [1, 2, 8] {
                rayon::pool::set_max_concurrency(width);
                let (logits, outputs) =
                    chain(&stages, &tokens, |s, d| s.forward_frozen(d).unwrap());
                let at = format!("shape {i}, cuts {cuts:?}, width {width}");
                assert_eq!(bits(&logits), bits(&want_logits), "{at}: logits");
                assert_eq!(outputs.len(), want_outputs.len(), "{at}");
                for (l, (got, want)) in outputs.iter().zip(&want_outputs).enumerate() {
                    assert_eq!(bits(got), bits(want), "{at}: layer {l}");
                }
            }
            rayon::pool::set_max_concurrency(usize::MAX);
        }
    }
}

/// `EncDecModel`'s decoder sees one position, on which a causal mask is a
/// no-op; a decoder layer over several positions masks for real.
#[test]
fn frozen_decoder_layer_keeps_its_bits_under_the_causal_mask() {
    let mut rng = seeded(900);
    let mut layer = TransformerLayer::decoder("dec", &mut rng, 32, 2, 128, Activation::Gelu);
    layer.visit_params(&mut |p| {
        if p.name.ends_with("gamma") || p.name.ends_with("beta") {
            p.value = init::randn(&mut rng, p.value.dims(), 0.5);
        }
    });
    let x = init::randn(&mut rng, [3, 6, 32], 1.0);
    let enc = init::randn(&mut rng, [3, 9, 32], 1.0);
    let want = bits(&layer.forward(&x, Some(&enc)).unwrap().0);
    for width in [1, 2, 8] {
        rayon::pool::set_max_concurrency(width);
        let got = layer.forward_frozen(&x, Some(&enc)).unwrap();
        assert_eq!(bits(&got), want, "width {width}");
    }
    rayon::pool::set_max_concurrency(usize::MAX);
}
