//! End-to-end finite-difference check of [`EncoderModel`]'s backward.
//!
//! The stage and pipeline tests compare a chain of k stages against the
//! whole model, which is itself one stage: they share every line of unit
//! math. This test gives that math an independent reference — a central
//! difference of the cross-entropy loss through the whole forward — on a
//! few entries each of the token table, a layer weight, the final
//! LayerNorm's γ and the head weight.

use pac_model::{EncoderModel, ModelConfig};
use pac_nn::gradcheck::check_input_grad;
use pac_nn::{cross_entropy, Module};
use pac_tensor::rng::seeded;
use pac_tensor::Tensor;
use rand::Rng;

const ROWS: usize = 3;
const SEQ: usize = 5;

fn loss(m: &EncoderModel, tokens: &[Vec<usize>], targets: &[usize]) -> f32 {
    let (logits, _) = m.forward(tokens).unwrap();
    cross_entropy(&logits, targets).unwrap().0
}

/// Entries `idx` of parameter `name`: its value and its gradient.
fn entries(m: &EncoderModel, name: &str, idx: &[usize]) -> (Tensor, Tensor) {
    let mut picked = None;
    m.visit_params_ref(&mut |p| {
        if p.name == name {
            let at = |t: &Tensor| idx.iter().map(|&i| t.data()[i]).collect::<Vec<_>>();
            picked = Some((at(&p.value), at(&p.grad)));
        }
    });
    let (value, grad) = picked.unwrap_or_else(|| panic!("no parameter {name}"));
    let n = idx.len();
    (
        Tensor::from_vec(value, [n]).unwrap(),
        Tensor::from_vec(grad, [n]).unwrap(),
    )
}

/// A copy of `m` with entries `idx` of parameter `name` set to `values`.
fn with_entries(m: &EncoderModel, name: &str, idx: &[usize], values: &Tensor) -> EncoderModel {
    let mut m = m.clone();
    m.visit_params(&mut |p| {
        if p.name == name {
            let data = p.value.data_mut();
            for (&i, &v) in idx.iter().zip(values.data()) {
                data[i] = v;
            }
        }
    });
    m
}

#[test]
fn encoder_gradients_match_finite_differences() {
    let cfg = ModelConfig::micro(2, 0, 16, 2);
    let d = cfg.hidden;
    let mut m = EncoderModel::new(&cfg, 3, &mut seeded(31));
    let mut rng = seeded(32);
    let tokens: Vec<Vec<usize>> = (0..ROWS)
        .map(|_| (0..SEQ).map(|_| rng.gen_range(0..64)).collect())
        .collect();
    let targets = [0usize, 2, 1];

    let (logits, ctx) = m.forward(&tokens).unwrap();
    let (_, dlogits) = cross_entropy(&logits, &targets).unwrap();
    m.zero_grads();
    m.backward(&ctx, &dlogits).unwrap();

    // Token-table rows of ids in the batch; a spread of entries elsewhere.
    let (t0, t1) = (tokens[0][0], tokens[2][3]);
    let probes: [(&str, Vec<usize>); 4] = [
        (
            "embed.table",
            vec![t0 * d, t0 * d + 5, t1 * d + 9, t1 * d + 15],
        ),
        ("layer1.ffn.up.w", vec![0, 17, 130, 511]),
        ("final_ln.gamma", vec![0, 7, 15]),
        ("head.w", vec![0, 4, 20, 47]),
    ];
    // ε = 1e-3: the embedding rows have σ ≈ 0.03 before the first
    // LayerNorm, so a larger step leaves the linear regime there. The
    // differences land within ≈ 1.5e-4 of the analytic gradients, whose
    // largest probed entries are 0.07–1.0.
    for (name, idx) in &probes {
        let (x, analytic) = entries(&m, name, idx);
        let largest = analytic.data().iter().fold(0.0f32, |a, g| a.max(g.abs()));
        assert!(largest > 1e-2, "{name}: probed entries carry no gradient");
        let report = check_input_grad(&x, &analytic, 1e-3, |xp| {
            loss(&with_entries(&m, name, idx, xp), &tokens, &targets)
        });
        assert!(
            report.max_abs_err <= 1e-3,
            "{name}: analytic {:?} vs finite differences: {report:?}",
            analytic.data()
        );
    }
}
