//! Shape descriptor for dense row-major tensors.

use crate::error::{Result, TensorError};

/// A tensor shape: an ordered list of dimension extents.
///
/// Shapes are stored as a small vector of `usize`. All tensors in this crate
/// are row-major (C order): the last dimension is contiguous in memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.0
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
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
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
        let strides = self.strides();
        let mut off = 0usize;
        for (axis, (&i, (&d, &s))) in index
            .iter()
            .zip(self.0.iter().zip(strides.iter()))
            .enumerate()
        {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: d });
            }
            let _ = axis;
            off += i * s;
        }
        Ok(off)
    }

    /// Interprets the shape as `(rows, cols)` treating all leading dimensions
    /// as rows and the last as columns. A rank-1 shape is `(1, n)`.
    pub fn as_2d(&self) -> (usize, usize) {
        match self.0.as_slice() {
            [] => (1, 1),
            [n] => (1, *n),
            // Product of the leading dims, so the row count survives
            // `cols == 0`.
            [lead @ .., cols] => (lead.iter().product(), *cols),
        }
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
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
}
