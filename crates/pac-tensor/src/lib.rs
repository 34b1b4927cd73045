//! # pac-tensor
//!
//! Dense `f32` tensor substrate for the PAC framework.
//!
//! This crate provides the numeric foundation that every higher layer of the
//! PAC reproduction builds on: a row-major dense tensor, cache-blocked and
//! [Rayon]-parallel matrix multiplication, broadcasting elementwise
//! arithmetic, reductions, softmax, and deterministic random initialization.
//!
//! The design goals, in order:
//!
//! 1. **Correctness** — every kernel has a scalar reference implementation it
//!    is property-tested against.
//! 2. **Determinism** — all randomness is seeded; parallel kernels only
//!    partition output rows and fix each element's accumulation order, so
//!    results are bitwise reproducible across thread counts (see
//!    [`ops`] for the full contract).
//! 3. **Throughput** — matmul is register-tiled over [`simd::f32x8`] lanes
//!    and fans out over column strips of C on the worker pool (a frozen B
//!    can be packed once, as [`ops::Panels`]), and the transcendental
//!    half of a layer (GELU, tanh, softmax's `exp`, Adam) runs the
//!    vectorized, libm-free [`elementwise`] kernels, which is sufficient to
//!    train the micro-scale transformers used in the paper-reproduction
//!    experiments on a laptop-class CPU.
//!
//! [Rayon]: https://docs.rs/rayon

#![deny(missing_docs)]

pub mod bytes;
pub mod elementwise;
pub mod error;
pub mod init;
pub mod ops;
pub mod reduce;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use error::{Result, TensorError};
/// The persistent worker pool the kernels run on (see [`rayon::pool`]).
/// Downstream crates fan their own coarse-grained work out through this
/// re-export instead of each linking a second copy or spawning threads,
/// so nested calls (a serve rank running a burst that runs matmuls) share
/// one set of workers and one `PAC_POOL_THREADS` width.
pub use rayon;
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;

/// Convenience prelude bringing the common types and traits into scope.
pub mod prelude {
    pub use crate::error::{Result, TensorError};
    pub use crate::shape::Shape;
    pub use crate::tensor::Tensor;
}
