//! Shape descriptor for dense row-major tensors.
//!
//! A [`Shape`] keeps its extents inline — `[usize; MAX_RANK]` and a rank —
//! so it is `Copy`: cloning, reshaping or capturing a tensor copies its
//! shape by value and allocates nothing. Every model tensor in this crate
//! has rank ≤ 3, and the decoders of untrusted bytes (the `pac-net` wire
//! and the `pac-peft` checkpoint) reject anything above [`MAX_RANK`]
//! before a shape is built, so a larger rank reaching [`Shape::new`] is a
//! programming error and panics.

use crate::error::{Result, TensorError};
use std::fmt;

/// Largest tensor rank a [`Shape`] holds, and the cap every decoder of
/// untrusted tensors enforces.
pub const MAX_RANK: usize = 8;

/// A tensor shape: an ordered list of at most [`MAX_RANK`] dimension
/// extents.
///
/// All tensors in this crate are row-major (C order): the last dimension
/// is contiguous in memory. Extents past the rank are kept at zero, so
/// the derived equality and hash see only the live dimensions.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    extents: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    /// If there are more than [`MAX_RANK`] extents.
    pub fn new(dims: impl AsRef<[usize]>) -> Self {
        let dims = dims.as_ref();
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK ({MAX_RANK})",
            dims.len()
        );
        let mut extents = [0; MAX_RANK];
        extents[..dims.len()].copy_from_slice(dims);
        Shape {
            extents,
            rank: dims.len(),
        }
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.extents[..self.rank]
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.dims()
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides, in elements.
    ///
    /// For shape `[a, b, c]` the strides are `[b*c, c, 1]`.
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    /// Returns an error if the index rank differs from the shape rank or any
    /// coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                op: "offset",
                expected: self.rank(),
                actual: index.len(),
            });
        }
        // Horner's rule over the extents: the row-major sum of
        // `index[k] * strides[k]` without materialising the strides.
        let mut off = 0usize;
        for (&i, &d) in index.iter().zip(self.dims()) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: d });
            }
            off = off * d + i;
        }
        Ok(off)
    }

    /// Interprets the shape as `(rows, cols)` treating all leading dimensions
    /// as rows and the last as columns. A rank-1 shape is `(1, n)`.
    pub fn as_2d(&self) -> (usize, usize) {
        match self.dims() {
            [] => (1, 1),
            [n] => (1, *n),
            // Product of the leading dims, so the row count survives
            // `cols == 0`.
            [lead @ .., cols] => (lead.iter().product(), *cols),
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape::new(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape::new(v)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1).unwrap(), 3);
        assert!(s.dim(3).is_err());
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let s1 = Shape::new([7]);
        assert_eq!(s1.strides(), vec![1]);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.offset(&[1, 0, 2]).unwrap(), 14);
        assert!(s.offset(&[2, 0, 0]).is_err());
        assert!(s.offset(&[0, 0]).is_err());
    }

    #[test]
    fn as_2d_flattens_leading_dims() {
        assert_eq!(Shape::new([4, 5]).as_2d(), (4, 5));
        assert_eq!(Shape::new([2, 3, 4]).as_2d(), (6, 4));
        assert_eq!(Shape::new([7]).as_2d(), (1, 7));
        assert_eq!(Shape::new(Vec::<usize>::new()).as_2d(), (1, 1));
        assert_eq!(Shape::new([3, 0]).as_2d(), (3, 0));
        assert_eq!(Shape::new([0, 3]).as_2d(), (0, 3));
    }

    #[test]
    fn conversions() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = [1usize, 2].into();
        assert_eq!(a, b);
    }

    #[test]
    fn debug_prints_the_live_extents_and_equality_ignores_padding() {
        assert_eq!(format!("{:?}", Shape::new([2, 3])), "Shape([2, 3])");
        assert_eq!(format!("{:?}", Shape::new([0usize; 0])), "Shape([])");
        assert_ne!(Shape::new([2, 3]), Shape::new([2, 3, 0]));
        let full = Shape::new([1; MAX_RANK]);
        assert_eq!(full.rank(), MAX_RANK);
        assert_eq!(full.numel(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn a_rank_above_the_cap_is_a_programming_error() {
        let _ = Shape::new([1; MAX_RANK + 1]);
    }
}
