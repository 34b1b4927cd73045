//! # pac-serve — the multi-tenant adapter platform
//!
//! The serving layer the paper's personal-LLM story implies but never
//! builds: one frozen backbone, thousands of personal Parallel-Adapters,
//! each tenant fine-tuning *their* adapter in short bursts against the
//! shared CoW backbone. Three subsystems compose:
//!
//! * [`registry`] — versioned adapter storage through the
//!   [`pac_store::Store`] trait. Every publish is one PACCKPT3 commit
//!   tagged `(tenant, version)`, and the registry's index is rebuilt from
//!   the log alone, so a crashed coordinator recovers its whole tenant
//!   catalog.
//! * [`cache`] — per-rank resident-adapter cache under a byte budget
//!   derived from the planner's device-memory ceiling (Eq. 4–6 via
//!   [`pac_cluster::CostModel`]), with LRU-with-pin eviction: an adapter
//!   pinned by an in-flight burst is never evicted from under it.
//! * [`router`] + [`scheduler`] — tenant jobs are routed to the rank
//!   whose cache already holds the adapter (warm hit) or to the
//!   least-loaded rank (cold miss → registry fetch), and multiplexed over
//!   the rank executors with round-robin fairness over an active-tenant
//!   window. Per-tenant isolation is structural: every burst starts from
//!   `swap_in(adapter)`, or `reset_to(baseline)` for a fresh tenant, each
//!   overwriting the whole side network, so a tenant's panic is
//!   caught, attributed, and rolled back without touching any other
//!   tenant's adapter or loss trajectory — bitwise, by test.
//!
//! [`demo`] wires it to the network: tenant clients stream `JobSubmit`
//! frames to the same rendezvous listener workers `Hello` on
//! ([`pac_net::Admission`]), and get `JobDone` replies with the published
//! adapter version and final loss.

#![deny(missing_docs)]

pub mod cache;
pub mod demo;
pub mod registry;
pub mod router;
pub mod scheduler;

pub use cache::{AdapterCache, CacheBudget};
pub use demo::{run_loopback_demo, DemoConfig, DemoError, DemoReport};
pub use registry::{AdapterRegistry, RegistryError};
pub use router::{Route, Router};
pub use scheduler::{
    JobOutcome, JobSpec, ServeConfig, ServeError, ServeEvent, ServePlatform, ServeReport,
};
