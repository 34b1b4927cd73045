//! # pac-bench
//!
//! Reproduction harness for **every table and figure** in the PAC paper's
//! evaluation (plus its §2 motivation measurements). Each experiment is a
//! pure function returning structured rows, rendered by the `repro` binary
//! in the paper's own layout:
//!
//! | Paper artifact | Function | `repro` subcommand |
//! |---|---|---|
//! | Table 1 (memory breakdown) | [`experiments::table1`] | `table1` |
//! | Figure 3 (FLOPs fwd/bwd) | [`experiments::fig3`] | `fig3` |
//! | Table 2 (training hours) | [`experiments::table2`] | `table2` |
//! | Table 3 (quality parity) | [`experiments::table3`] | `table3` |
//! | Figure 8 (per-sample time & memory) | [`experiments::fig8`] | `fig8` |
//! | Figure 9 (scalability) | [`experiments::fig9`] | `fig9` |
//! | Figure 10 (device grouping) | [`experiments::fig10`] | `fig10` |
//! | Figure 11 (cache benefit) | [`experiments::fig11`] | `fig11` |
//! | Extension: mixed, throttled and failed devices | [`experiments::hetero`] | `hetero` |
//!
//! Two more binaries ride along. `pac-bench --quick --out PATH` times what
//! the reference benchmark (`benchmark/`) does not: the matmul and
//! elementwise kernels, and one training step per technique with and
//! without the activation cache. `simsweep` runs the deterministic
//! simulation sweep of the distributed runtime.

#![deny(missing_docs)]

pub mod experiments;
