//! `ops::matmul_strided`: products over row-strided blocks of wider
//! buffers (an attention head's columns of a projection) are the dense
//! `_into` products of the copied blocks, bit for bit, and write nothing
//! outside their output block.

use pac_tensor::ops::{self, Bias, Block, Form, View};
use pac_tensor::{init, rng::seeded, Tensor, TensorError};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random `rows × stride` buffer and the dense copy of its `block`.
fn buffer_and_block(seed: u64, rows: usize, stride: usize, block: Block) -> (Vec<f32>, Tensor) {
    let buf = init::randn(&mut seeded(seed), [rows, stride], 1.0).into_vec();
    let copy: Vec<f32> = (0..block.rows)
        .flat_map(|r| {
            let at = block.offset + r * block.stride;
            buf[at..at + block.cols].to_vec()
        })
        .collect();
    let dense = Tensor::from_vec(copy, [block.rows, block.cols]).unwrap();
    (buf, dense)
}

/// Stored shapes of A and B for `form` at `(m, k, n)`.
fn stored(form: Form, m: usize, k: usize, n: usize) -> ((usize, usize), (usize, usize)) {
    match form {
        Form::Nn => ((m, k), (k, n)),
        Form::Nt => ((m, k), (n, k)),
        Form::Tn => ((k, m), (k, n)),
    }
}

fn dense_product(form: Form, a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros([0]);
    match form {
        Form::Nn => ops::matmul_into(a, b, &mut out),
        Form::Nt => ops::matmul_nt_into(a, b, &mut out),
        Form::Tn => ops::matmul_tn_into(a, b, &mut out),
    }
    .unwrap();
    out
}

/// One strided product against the dense one: A, B and C each a block at
/// a column offset of a buffer wider than it, C's buffer full of values the
/// product must not touch.
fn check(form: Form, m: usize, k: usize, n: usize, zero_bias: bool) {
    let ((ar, ac), (br, bc)) = stored(form, m, k, n);
    let seed = (m * 1_000_003 + k * 1_009 + n) as u64;
    let ablock = Block::of(ac + 5, 2, ar, 3, ac);
    let bblock = Block::of(bc + 7, 1, br, 7, bc);
    let (abuf, a) = buffer_and_block(seed, ar + 3, ac + 5, ablock);
    let (bbuf, b) = buffer_and_block(seed + 1, br + 1, bc + 7, bblock);
    let at = Block::of(n + 9, 1, m, 4, n);
    let c_before = init::randn(&mut seeded(seed + 2), [m + 2, n + 9], 1.0).into_vec();
    let mut c = c_before.clone();
    let bias = if zero_bias { Bias::Zero } else { Bias::None };
    ops::matmul_strided(
        form,
        View::new(&abuf, ablock),
        View::new(&bbuf, bblock),
        bias,
        &mut c,
        at,
    )
    .unwrap();

    let want = dense_product(form, &a, &b);
    let label = format!("{form:?} {m}x{k}x{n} zero_bias={zero_bias}");
    for r in 0..m + 2 {
        for col in 0..n + 9 {
            let i = r * (n + 9) + col;
            let inside = (1..=m).contains(&r) && (4..4 + n).contains(&col);
            let expect = if inside {
                let v = want.data()[(r - 1) * n + col - 4];
                if zero_bias {
                    0.0 + v
                } else {
                    v
                }
            } else {
                c_before[i]
            };
            assert_eq!(c[i].to_bits(), expect.to_bits(), "{label} at [{r},{col}]");
        }
    }
}

#[test]
fn strided_products_equal_dense_products_on_copied_blocks_bitwise() {
    // Every width 1..=40 (ragged strips alone, after one and after two full
    // ones), at tile-height remainders of m and odd k.
    for form in [Form::Nn, Form::Nt, Form::Tn] {
        for n in 1..=40 {
            for &(m, k) in &[(1, 1), (7, 9), (13, 64)] {
                for zero_bias in [false, true] {
                    check(form, m, k, n, zero_bias);
                }
            }
        }
    }
}

#[test]
fn strided_nt_at_attention_head_shapes_equals_the_dense_product_bitwise() {
    // Attention's scores and dP: `[s, dh] · [s, dh]ᵀ` per head, read in
    // place from the projections, at head widths 16 and 64 and sequence
    // lengths around the 8- and 16-row pack blocks and the strip widths.
    for dh in [16, 64] {
        for s in [8, 13, 16, 17, 32, 33, 64, 128] {
            check(Form::Nt, s, dh, s, false);
        }
    }
}

#[test]
fn the_zero_bias_lands_a_negative_zero_sum_as_positive_zero() {
    // Products that underflow sum to -0.0 in the fused clones' full strips;
    // the zero bias is what makes the store equal `0.0 + x` there.
    let a = vec![1e-30f32; 5];
    let b = vec![-1e-30f32; 5 * 16];
    let at = Block::dense(1, 16);
    let (av, bv) = (
        View::new(&a, Block::dense(1, 5)),
        View::new(&b, Block::dense(5, 16)),
    );
    let mut plain = vec![1.0f32; 16];
    let mut zeroed = vec![1.0f32; 16];
    ops::matmul_strided(Form::Nn, av, bv, Bias::None, &mut plain, at).unwrap();
    ops::matmul_strided(Form::Nn, av, bv, Bias::Zero, &mut zeroed, at).unwrap();
    assert!(plain.iter().all(|&v| v == 0.0));
    assert_eq!(bits(&zeroed), vec![0u32; 16]);
    let summed: Vec<f32> = plain.iter().map(|&v| 0.0 + v).collect();
    assert_eq!(bits(&zeroed), bits(&summed));
}

#[test]
fn a_row_bias_matches_addmm() {
    let mut rng = seeded(3);
    let a = init::randn(&mut rng, [9, 21], 1.0);
    let b = init::randn(&mut rng, [21, 19], 1.0);
    let bias = init::randn(&mut rng, [19], 1.0);
    let mut c = vec![0.0f32; 9 * 19];
    ops::matmul_strided(
        Form::Nn,
        View::new(a.data(), Block::dense(9, 21)),
        View::new(b.data(), Block::dense(21, 19)),
        Bias::Row(bias.data()),
        &mut c,
        Block::dense(9, 19),
    )
    .unwrap();
    assert_eq!(bits(&c), bits(ops::addmm(&a, &b, &bias).unwrap().data()));
}

#[test]
fn overrunning_or_mismatched_blocks_are_typed_errors() {
    let buf = vec![1.0f32; 64];
    let mut c = vec![0.0f32; 64];
    let dense = |rows, cols| View::new(&buf, Block::dense(rows, cols));
    let run = |a: View<'_>, b: View<'_>, bias: Bias<'_>, c: &mut [f32], at: Block| {
        ops::matmul_strided(Form::Nn, a, b, bias, c, at)
    };
    let oob = |r: Result<(), TensorError>| matches!(r, Err(TensorError::IndexOutOfBounds { .. }));
    let shape = |r: Result<(), TensorError>| matches!(r, Err(TensorError::ShapeMismatch { .. }));

    // Rows that overlap: a stride shorter than a row.
    let narrow = Block {
        offset: 0,
        rows: 2,
        cols: 4,
        stride: 3,
    };
    assert!(oob(run(
        View::new(&buf, narrow),
        dense(4, 2),
        Bias::None,
        &mut c,
        Block::dense(2, 2)
    )));
    // A block past the end of A, of B and of C.
    let past = Block::of(8, 7, 2, 0, 8);
    assert!(oob(run(
        View::new(&buf, past),
        dense(8, 2),
        Bias::None,
        &mut c,
        Block::dense(2, 2)
    )));
    let past_b = Block::of(8, 1, 8, 0, 8);
    assert!(oob(run(
        dense(2, 8),
        View::new(&buf, past_b),
        Bias::None,
        &mut c,
        Block::dense(2, 8)
    )));
    assert!(oob(run(dense(2, 8), dense(8, 8), Bias::None, &mut c, past)));
    // An offset alone past the end, and strides whose span overflows usize.
    let far = Block::of(4, 100, 1, 0, 4);
    assert!(oob(run(dense(1, 4), dense(4, 4), Bias::None, &mut c, far)));
    let huge = Block {
        offset: 1,
        rows: 3,
        cols: 2,
        stride: usize::MAX / 2,
    };
    assert!(oob(run(
        View::new(&buf, huge),
        dense(2, 2),
        Bias::None,
        &mut c,
        Block::dense(3, 2)
    )));
    assert!(oob(run(dense(3, 2), dense(2, 2), Bias::None, &mut c, huge)));
    let wrapping = Block::of(usize::MAX / 2, 3, 1, 0, 2);
    assert!(oob(run(
        dense(1, 2),
        dense(2, 2),
        Bias::None,
        &mut c,
        wrapping
    )));
    // Inner dimensions, output shape and bias length that do not match.
    assert!(shape(run(
        dense(2, 3),
        dense(4, 2),
        Bias::None,
        &mut c,
        Block::dense(2, 2)
    )));
    assert!(shape(run(
        dense(2, 4),
        dense(4, 2),
        Bias::None,
        &mut c,
        Block::dense(3, 2)
    )));
    let short = [0.0f32; 1];
    assert!(shape(run(
        dense(2, 4),
        dense(4, 2),
        Bias::Row(&short),
        &mut c,
        Block::dense(2, 2)
    )));
    // The output buffer is untouched by every rejected call.
    assert!(c.iter().all(|&v| v == 0.0));
    // Empty blocks need no room at all.
    let empty = Block::of(4, 1000, 0, 0, 4);
    assert!(run(
        View::new(&buf, empty),
        dense(4, 2),
        Bias::None,
        &mut c,
        Block::of(2, 1000, 0, 0, 2)
    )
    .is_ok());
}
