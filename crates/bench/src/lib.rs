//! # fedwf-bench
//!
//! The benchmark harness: every table and figure of the paper's evaluation
//! is regenerated by a function in [`experiments`], consumed by
//!
//! * the `report` binary (`cargo run -p fedwf-bench --bin report`), which
//!   prints each artifact next to the paper's published numbers,
//! * the benches (`cargo bench`), which additionally measure real
//!   wall-clock of the engines through the in-tree [`micro`] harness, and
//! * the crate's tests, which assert the paper's *shape* claims hold.
//!
//! [`throughput`] adds the one benchmark the paper could not run: real
//! multi-client throughput of the serving layer ([`fedwf_core::ServerFront`])
//! with QPS and latency quantiles per client count.

pub mod durability;
pub mod experiments;
pub mod join_scaling;
pub mod micro;
pub mod network;
pub mod planner;
pub mod scan_project;
pub mod throughput;
pub mod trace_overhead;

pub use experiments::*;
