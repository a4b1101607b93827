//! # fedwf-sim
//!
//! A deterministic virtual-time cost model standing in for the paper's
//! measurement testbed (IBM DB2 UDB v7.1 + MQSeries Workflow v3.2.2 on 2001
//! hardware).
//!
//! ## Why a simulated clock
//!
//! The paper's Section 4 numbers are *elapsed-time* measurements whose
//! magnitude is dominated by process boots, JVM starts and RMI hops — costs
//! that no 2026 reproduction can (or should) reproduce in wall-clock terms.
//! What *can* be reproduced is the causal structure: which primitive costs
//! are paid how many times on each architecture's execution path. This crate
//! models exactly that:
//!
//! * a [`Meter`] accumulates virtual microseconds along an execution branch
//!   and records every charge with a [`Component`] tag and a step label;
//! * forked branches (parallel workflow activities) carry child meters and a
//!   join advances the parent to the *maximum* child time — so parallelism
//!   genuinely saves virtual time;
//! * a [`CostModel`] names every primitive the paper's breakdown (Fig. 6)
//!   mentions, with defaults calibrated so the published shapes emerge;
//! * an [`EnvState`] remembers which processes have already been booted,
//!   the paper's cold tier (the plan and template caches that produce the
//!   after-other-function and repeated-call tiers live in the engines);
//! * a [`wall`] module supplies the one place real time *is* wanted — the
//!   serving-layer throughput harness — with a [`WallClock`] and a
//!   [`LatencyHistogram`] (QPS, p50/p95/p99), reported alongside, never in
//!   place of, the virtual accounting.
//!
//! All engines in the workspace charge their work through this crate, so a
//! single run yields both a result table and an auditable time breakdown.
//!
//! Two observability layers sit on top of the clock:
//!
//! * [`trace`] records a hierarchical span tree (one span per layer
//!   boundary crossed) when a meter has tracing enabled — zero-cost when
//!   disabled, and never a source of charges;
//! * [`metrics`] is a process-wide-style registry of counters, gauges and
//!   log-linear histograms with a lock-free hot path, for the serving
//!   layer's operational counters.

pub mod breakdown;
pub mod clock;
pub mod cost;
pub mod env;
pub mod metrics;
pub mod trace;
pub mod wall;

pub use breakdown::{Breakdown, BreakdownLine};
pub use clock::{Charge, Meter};
pub use cost::{Component, CostModel};
pub use env::EnvState;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use trace::{
    intern_counter_name, BookedSet, SpanName, SpanNameCache, TraceDetail, TraceNode,
    MAX_INTERNED_COUNTER_NAMES,
};
pub use wall::{LatencyHistogram, WallClock};
