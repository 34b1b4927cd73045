//! The dense row-major `f32` tensor type.
//!
//! A [`Tensor`] is a handle: an inline, `Copy` [`Shape`] and a
//! reference-counted buffer. Cloning a tensor, reshaping it, reading its
//! dimensions or an element, and writing an element of an unshared
//! buffer allocate nothing; only a new buffer (a constructor, or the
//! first write to a shared one) does.
//!
//! Every mutable access goes through [`Tensor::data_mut`], which is
//! `Arc::make_mut`: two atomic operations, plus a copy when the buffer is
//! shared. An element loop therefore takes one mutable slice before it
//! starts and indexes that — one `data_mut()` per loop, never one per
//! element or per row.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use std::sync::Arc;

/// A dense, row-major (C-order), owned `f32` tensor.
///
/// `Tensor` is the single numeric currency of the PAC reproduction: model
/// parameters, activations, and gradients are all `Tensor`s. The type is
/// deliberately simple — owned storage, no views with lifetimes — because the
/// pipeline-parallel engines move activations between threads, and owned
/// buffers make that transfer trivially safe.
///
/// Storage is copy-on-write: `clone()` bumps a refcount, and the first
/// mutation through [`Tensor::data_mut`] (or any in-place op) copies the
/// buffer only if it is shared. Value semantics are fully preserved — two
/// clones never observe each other's writes — but cloning a frozen
/// backbone per data-parallel lane, or stashing activations in a context,
/// costs O(1) instead of O(n) memory.
#[derive(Debug, Clone)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![0.0; n]),
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![value; n]),
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    /// Returns [`TensorError::DataShapeMismatch`] if `data.len()` differs
    /// from the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::DataShapeMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::new(data),
        })
    }

    /// Creates a rank-0-like scalar tensor of shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new([1]),
            data: Arc::new(vec![value]),
        }
    }

    /// Builds a tensor around recycled storage (scratch-pool plumbing).
    /// Callers must have sized `storage` to `shape.numel()` already.
    pub(crate) fn from_storage(storage: Arc<Vec<f32>>, shape: Shape) -> Self {
        debug_assert_eq!(storage.len(), shape.numel());
        Tensor {
            shape,
            data: storage,
        }
    }

    /// Consumes the tensor, handing back its storage `Arc` for recycling.
    pub(crate) fn take_storage(self) -> Arc<Vec<f32>> {
        self.data
    }

    // ------------------------------------------------------------ accessors

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage; copies it first if shared
    /// (copy-on-write).
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its storage (copied only if shared).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Opaque identity of the underlying storage buffer. Two tensors with
    /// equal `storage_ptr` share one allocation (until either writes).
    pub fn storage_ptr(&self) -> *const f32 {
        self.data.as_ptr()
    }

    /// True when `self` and `other` share one storage allocation.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Overwrites every element with `0.0`. When the storage is shared
    /// this swaps in a fresh zeroed buffer instead of copying the old
    /// contents just to overwrite them.
    pub fn fill_zero(&mut self) {
        match Arc::get_mut(&mut self.data) {
            Some(v) => v.fill(0.0),
            None => self.data = Arc::new(vec![0.0; self.shape.numel()]),
        }
    }

    /// Reshapes to `shape` and zero-fills, reusing the existing buffer
    /// when it is unshared (the zero-allocation `_into` kernels call this
    /// on their output argument).
    pub fn reset_to(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        let n = shape.numel();
        match Arc::get_mut(&mut self.data) {
            Some(v) => {
                v.clear();
                v.resize(n, 0.0);
            }
            None => self.data = Arc::new(vec![0.0; n]),
        }
        self.shape = shape;
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        Arc::make_mut(&mut self.data)[off] = value;
        Ok(())
    }

    // -------------------------------------------------------------- reshape

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.data.len(),
                to: shape.numel(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Shape interpreted as `(rows, cols)` — all leading dims folded into rows.
    pub fn as_2d(&self) -> (usize, usize) {
        self.shape.as_2d()
    }

    /// Immutable slice of row `r` when the tensor is viewed as 2-D.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if `r` exceeds the row count.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        let (rows, cols) = self.as_2d();
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: rows,
            });
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Mutable slice of row `r` when the tensor is viewed as 2-D.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if `r` exceeds the row count.
    pub fn row_mut(&mut self, r: usize) -> Result<&mut [f32]> {
        let (rows, cols) = self.as_2d();
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: rows,
            });
        }
        Ok(&mut Arc::make_mut(&mut self.data)[r * cols..(r + 1) * cols])
    }

    // ---------------------------------------------------------- elementwise

    /// Elementwise sum `self + other`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, "mul", |a, b| a * b)
    }

    /// In-place elementwise accumulate `self += other`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, b) in Arc::make_mut(&mut self.data)
            .iter_mut()
            .zip(other.data.iter())
        {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled accumulate `self += alpha * other` (axpy).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, b) in Arc::make_mut(&mut self.data)
            .iter_mut()
            .zip(other.data.iter())
        {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `self * c` elementwise.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// In-place scalar multiply.
    pub fn scale_in_place(&mut self, c: f32) {
        for x in Arc::make_mut(&mut self.data) {
            *x *= c;
        }
    }

    /// Returns `self + c` elementwise.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x + c)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in Arc::make_mut(&mut self.data) {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape,
            data: Arc::new(
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        })
    }

    /// Adds a length-`cols` vector to every row of the 2-D view (bias add).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `bias.numel()` differs from
    /// the column count.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor> {
        let (rows, cols) = self.as_2d();
        if bias.numel() != cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.dims().to_vec(),
                rhs: bias.dims().to_vec(),
            });
        }
        let mut out = self.clone();
        let out_data = Arc::make_mut(&mut out.data);
        for r in 0..rows {
            let row = &mut out_data[r * cols..(r + 1) * cols];
            for (x, b) in row.iter_mut().zip(bias.data.iter()) {
                *x += b;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------ transpose

    /// Transpose of the 2-D view.
    pub fn transpose_2d(&self) -> Tensor {
        let (rows, cols) = self.as_2d();
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor {
            shape: Shape::new([cols, rows]),
            data: Arc::new(out),
        }
    }

    // -------------------------------------------------------------- slicing

    /// Concatenates tensors along the last axis of their 2-D views.
    ///
    /// All inputs must have the same row count.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ, or an
    /// error if `parts` is empty.
    pub fn concat_cols(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::ShapeMismatch {
            op: "concat_cols",
            lhs: vec![],
            rhs: vec![],
        })?;
        let (rows, _) = first.as_2d();
        let total_cols: usize = parts.iter().map(|p| p.as_2d().1).sum();
        let mut out = vec![0.0f32; rows * total_cols];
        let mut col_off = 0usize;
        for p in parts {
            let (prows, pcols) = p.as_2d();
            if prows != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            for r in 0..rows {
                out[r * total_cols + col_off..r * total_cols + col_off + pcols]
                    .copy_from_slice(&p.data[r * pcols..(r + 1) * pcols]);
            }
            col_off += pcols;
        }
        Ok(Tensor {
            shape: Shape::new([rows, total_cols]),
            data: Arc::new(out),
        })
    }

    /// Splits the 2-D view into equally wide column blocks.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the column count is not
    /// divisible by `n`.
    pub fn split_cols(&self, n: usize) -> Result<Vec<Tensor>> {
        let (rows, cols) = self.as_2d();
        if n == 0 || cols % n != 0 {
            return Err(TensorError::ShapeMismatch {
                op: "split_cols",
                lhs: self.dims().to_vec(),
                rhs: vec![n],
            });
        }
        let w = cols / n;
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let mut data = Vec::with_capacity(rows * w);
            for r in 0..rows {
                data.extend_from_slice(&self.data[r * cols + k * w..r * cols + (k + 1) * w]);
            }
            out.push(Tensor {
                shape: Shape::new([rows, w]),
                data: Arc::new(data),
            });
        }
        Ok(out)
    }

    /// Extracts rows `range` of the 2-D view as a new tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if the range exceeds the
    /// row count.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Result<Tensor> {
        let (rows, cols) = self.as_2d();
        if range.end > rows || range.start > range.end {
            return Err(TensorError::IndexOutOfBounds {
                index: range.end,
                bound: rows,
            });
        }
        let data = self.data[range.start * cols..range.end * cols].to_vec();
        Ok(Tensor {
            shape: Shape::new([range.end - range.start, cols]),
            data: Arc::new(data),
        })
    }

    /// Stacks 2-D tensors vertically (along rows). All must share a column
    /// count.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] on column mismatch or empty
    /// input.
    pub fn stack_rows(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::ShapeMismatch {
            op: "stack_rows",
            lhs: vec![],
            rhs: vec![],
        })?;
        let cols = first.as_2d().1;
        let mut data = Vec::new();
        let mut rows = 0usize;
        for p in parts {
            let (prows, pcols) = p.as_2d();
            if pcols != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "stack_rows",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            data.extend_from_slice(&p.data);
            rows += prows;
        }
        Ok(Tensor {
            shape: Shape::new([rows, cols]),
            data: Arc::new(data),
        })
    }

    // ------------------------------------------------------------ utilities

    /// Frobenius norm (L2 norm of all elements).
    pub fn norm(&self) -> f32 {
        self.data
            .iter()
            .map(|x| (*x as f64).powi(2))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (NaN-ignoring); `-inf` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data
            .iter()
            .copied()
            .filter(|x| !x.is_nan())
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Memory footprint of this tensor's storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Approximate equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones([3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full([2], 2.5).data(), &[2.5, 2.5]);
        assert_eq!(Tensor::scalar(7.0).numel(), 1);
        assert!(Tensor::from_vec(vec![1.0], [2, 2]).is_err());
    }

    #[test]
    fn get_set() {
        let mut a = Tensor::zeros([2, 3]);
        a.set(&[1, 2], 5.0).unwrap();
        assert_eq!(a.get(&[1, 2]).unwrap(), 5.0);
        assert!(a.get(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_checks_numel() {
        let a = Tensor::zeros([2, 3]);
        assert!(a.clone().reshape([3, 2]).is_ok());
        assert!(a.reshape([4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3.0, -3.0, -3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
        let c = t(&[1.0, 1.0], &[2]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 2.0], &[2]);
        let b = t(&[10.0, 20.0], &[2]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn row_broadcast() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[10.0, 20.0], &[2]);
        assert_eq!(
            a.add_row_broadcast(&b).unwrap().data(),
            &[11.0, 22.0, 13.0, 24.0]
        );
        let bad = t(&[1.0, 2.0, 3.0], &[3]);
        assert!(a.add_row_broadcast(&bad).is_err());
    }

    #[test]
    fn transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose_2d();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // Double transpose is identity.
        assert_eq!(at.transpose_2d(), a);
    }

    #[test]
    fn concat_and_split_cols_round_trip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = Tensor::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[2, 4]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0]);
        let parts = c.split_cols(2).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        assert!(c.split_cols(3).is_err());
    }

    #[test]
    fn slice_and_stack_rows_round_trip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let top = a.slice_rows(0..1).unwrap();
        let rest = a.slice_rows(1..3).unwrap();
        assert_eq!(top.dims(), &[1, 2]);
        let back = Tensor::stack_rows(&[&top, &rest]).unwrap();
        assert_eq!(back.data(), a.data());
        assert!(a.slice_rows(0..4).is_err());
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert!(a.all_finite());
        let b = t(&[f32::NAN, 1.0], &[2]);
        assert!(!b.all_finite());
    }

    #[test]
    fn size_bytes() {
        assert_eq!(Tensor::zeros([4, 4]).size_bytes(), 64);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b), "clone shares storage until written");
        assert_eq!(a, b);
        b.data_mut()[0] = 9.0;
        assert!(!a.shares_storage(&b), "first write unshares");
        assert_eq!(a.data(), &[1.0, 2.0, 3.0], "original unaffected");
        assert_eq!(b.data(), &[9.0, 2.0, 3.0]);
    }

    #[test]
    fn fill_zero_does_not_copy_shared_contents() {
        let a = t(&[1.0, 2.0], &[2]);
        let mut b = a.clone();
        b.fill_zero();
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(b.data(), &[0.0, 0.0]);
        // Unshared path reuses the buffer in place.
        let ptr = b.storage_ptr();
        b.fill_zero();
        assert_eq!(b.storage_ptr(), ptr);
    }

    #[test]
    fn reset_to_reshapes_and_zeroes() {
        let mut a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        a.reset_to([3, 1]);
        assert_eq!(a.dims(), &[3, 1]);
        assert_eq!(a.data(), &[0.0; 3]);
        // A shared tensor gets fresh storage rather than copying.
        let b = a.clone();
        let mut c = b.clone();
        c.reset_to([2, 2]);
        assert_eq!(b.dims(), &[3, 1]);
        assert_eq!(c.data(), &[0.0; 4]);
    }

    #[test]
    fn equality_is_by_value_not_identity() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0], &[2]);
        assert!(!a.shares_storage(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0001, 2.0001], &[2]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-6));
    }
}
