//! Token and position embeddings.

use crate::param::{Module, Param};
use pac_tensor::{init, Result, Tensor, TensorError};
use rand::Rng;

/// Lookup-table embedding: maps token ids to learned `[dim]` vectors.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The embedding table, `[vocab, dim]`.
    pub table: Param,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Creates a `[vocab, dim]` embedding with N(0, 0.02) init (GPT/T5
    /// convention).
    pub fn new(name: &str, rng: &mut impl Rng, vocab: usize, dim: usize) -> Self {
        Embedding {
            table: Param::new(
                format!("{name}.table"),
                init::randn(rng, [vocab, dim], 0.02),
            ),
            vocab,
            dim,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up `tokens`, producing `[tokens.len(), dim]`.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] on out-of-vocabulary ids.
    pub fn forward(&self, tokens: &[usize]) -> Result<Tensor> {
        let mut out = Vec::with_capacity(tokens.len() * self.dim);
        for &t in tokens {
            if t >= self.vocab {
                return Err(TensorError::IndexOutOfBounds {
                    index: t,
                    bound: self.vocab,
                });
            }
            out.extend_from_slice(&self.table.value.data()[t * self.dim..(t + 1) * self.dim]);
        }
        Tensor::from_vec(out, [tokens.len(), self.dim])
    }

    /// Backward pass: scatters `dy` rows into the table gradient.
    ///
    /// # Errors
    /// Returns a shape error if `dy` row count differs from `tokens.len()`.
    pub fn backward(&mut self, tokens: &[usize], dy: &Tensor) -> Result<()> {
        let (rows, cols) = dy.as_2d();
        if rows != tokens.len() || cols != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "embedding_backward",
                lhs: dy.dims().to_vec(),
                rhs: vec![tokens.len(), self.dim],
            });
        }
        if !self.table.trainable {
            return Ok(());
        }
        let (grad, dy) = (self.table.grad.data_mut(), dy.data());
        for (r, &t) in tokens.iter().enumerate() {
            let grow = &mut grad[t * self.dim..(t + 1) * self.dim];
            for (g, d) in grow.iter_mut().zip(&dy[r * cols..(r + 1) * cols]) {
                *g += d;
            }
        }
        Ok(())
    }
}

impl Module for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_tensor::rng::seeded;

    #[test]
    fn lookup_returns_table_rows() {
        let mut rng = seeded(10);
        let e = Embedding::new("emb", &mut rng, 10, 4);
        let y = e.forward(&[3, 3, 7]).unwrap();
        assert_eq!(y.dims(), &[3, 4]);
        assert_eq!(y.row(0).unwrap(), y.row(1).unwrap());
        assert_eq!(y.row(2).unwrap(), &e.table.value.data()[7 * 4..8 * 4]);
    }

    #[test]
    fn oov_is_error() {
        let mut rng = seeded(11);
        let e = Embedding::new("emb", &mut rng, 4, 2);
        assert!(e.forward(&[4]).is_err());
    }

    #[test]
    fn backward_scatters_and_accumulates() {
        let mut rng = seeded(12);
        let mut e = Embedding::new("emb", &mut rng, 5, 2);
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        e.backward(&[1, 1], &dy).unwrap();
        // Both rows hit token 1: grad = [1+3, 2+4].
        assert_eq!(&e.table.grad.data()[2..4], &[4.0, 6.0]);
        assert_eq!(&e.table.grad.data()[0..2], &[0.0, 0.0]);
    }

    #[test]
    fn frozen_table_gets_no_grads() {
        let mut rng = seeded(13);
        let mut e = Embedding::new("emb", &mut rng, 5, 2);
        e.freeze_all();
        e.backward(&[0], &Tensor::ones([1, 2])).unwrap();
        assert_eq!(e.table.grad.norm(), 0.0);
    }

    #[test]
    fn backward_shape_mismatch_is_error() {
        let mut rng = seeded(14);
        let mut e = Embedding::new("emb", &mut rng, 5, 2);
        assert!(e.backward(&[0, 1], &Tensor::ones([1, 2])).is_err());
        assert!(e.backward(&[0], &Tensor::ones([1, 3])).is_err());
    }
}
