//! Error types for tensor operations.

use std::fmt;

/// Result alias used across the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by tensor construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided data length does not match the product of the shape dims.
    DataShapeMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// An axis argument was out of range for the tensor rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The tensor rank.
        rank: usize,
    },
    /// The operation requires a different rank than the tensor has.
    RankMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Required rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// Reshape target has a different element count.
    ReshapeMismatch {
        /// Source element count.
        from: usize,
        /// Target element count.
        to: usize,
    },
    /// Index out of bounds.
    IndexOutOfBounds {
        /// The offending flat or dimensional index.
        index: usize,
        /// The bound that was violated.
        bound: usize,
    },
    /// The operation needs a row-major weight, and this one is held only
    /// as frozen forward panels ([`crate::ops::Panels`]).
    Packed {
        /// Name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::DataShapeMismatch { expected, actual } => write!(
                f,
                "data length {actual} does not match shape element count {expected}"
            ),
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => write!(f, "{op}: expected rank {expected}, got {actual}"),
            TensorError::ReshapeMismatch { from, to } => {
                write!(f, "cannot reshape {from} elements into {to} elements")
            }
            TensorError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (bound {bound})")
            }
            TensorError::Packed { op } => {
                write!(f, "{op}: the weight is packed for frozen forwards only")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TensorError::DataShapeMismatch {
            expected: 6,
            actual: 5,
        };
        assert!(e.to_string().contains('6'));
        assert!(e.to_string().contains('5'));

        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        assert!(e.to_string().contains("matmul"));

        let e = TensorError::AxisOutOfRange { axis: 3, rank: 2 };
        assert!(e.to_string().contains("axis 3"));

        let e = TensorError::RankMismatch {
            op: "softmax",
            expected: 2,
            actual: 1,
        };
        assert!(e.to_string().contains("softmax"));

        let e = TensorError::ReshapeMismatch { from: 4, to: 9 };
        assert!(e.to_string().contains("reshape"));

        let e = TensorError::IndexOutOfBounds { index: 9, bound: 4 };
        assert!(e.to_string().contains("out of bounds"));

        let e = TensorError::Packed {
            op: "linear.backward",
        };
        assert!(e.to_string().contains("linear.backward"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            TensorError::ReshapeMismatch { from: 1, to: 2 },
            TensorError::ReshapeMismatch { from: 1, to: 2 }
        );
        assert_ne!(
            TensorError::ReshapeMismatch { from: 1, to: 2 },
            TensorError::ReshapeMismatch { from: 2, to: 1 }
        );
    }
}
