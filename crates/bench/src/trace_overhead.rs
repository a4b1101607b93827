//! E15 — wall-clock overhead of span tracing (and proof it is free when
//! off).
//!
//! The trace subsystem promises two things: *disabled* tracing adds no
//! virtual-time charges at all (the meter is bit-identical) and next to no
//! wall cost; *enabled* tracing stays cheap enough to leave on in
//! production-style runs. This module measures both against the Fig. 5
//! workload — every federated function of the paper's evaluation, called
//! warm through the unified [`Request`] API — and cross-checks that the
//! virtual clock agrees call by call between the traced and untraced runs.

use std::time::Duration;

use fedwf_core::paper_functions;
use fedwf_core::{ArchitectureKind, IntegrationServer, Request};
use fedwf_sim::{TraceDetail, WallClock};
use fedwf_types::Value;

use crate::experiments::{args_for, make_server};

/// One architecture's traced-vs-untraced comparison, at both trace detail
/// levels.
#[derive(Debug, Clone)]
pub struct TraceOverheadRow {
    pub architecture: ArchitectureKind,
    /// Total calls per side (workload size × repeats).
    pub calls: usize,
    pub untraced_wall: Duration,
    /// Traced at [`TraceDetail::Full`] — every span.
    pub traced_wall: Duration,
    /// Traced at [`TraceDetail::Coarse`] — per-activity and per-local-
    /// function spans elided.
    pub coarse_wall: Duration,
    /// Wall overhead of full-detail tracing, in percent of the untraced run.
    pub overhead_pct: f64,
    /// Wall overhead of coarse-detail tracing, in percent of the untraced
    /// run.
    pub coarse_overhead_pct: f64,
    /// Whether every call's virtual elapsed time matched across all three
    /// runs (must be true: tracing never touches the meter).
    pub virtual_identical: bool,
    /// Spans in the full-detail trace of the workload's last call.
    pub spans_last_call: usize,
    /// Spans in the coarse-detail trace of the same call.
    pub spans_coarse: usize,
}

impl TraceOverheadRow {
    pub fn render_header() -> String {
        format!(
            "{:<28} {:>6} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>11}",
            "architecture",
            "calls",
            "off (us)",
            "full (us)",
            "coarse",
            "full ov",
            "coarse",
            "virt ok",
            "spans f/c"
        )
    }

    pub fn render_row(&self) -> String {
        format!(
            "{:<28} {:>6} {:>10} {:>10} {:>10} {:>7.1}% {:>7.1}% {:>8} {:>7}/{:<3}",
            self.architecture.name(),
            self.calls,
            self.untraced_wall.as_micros(),
            self.traced_wall.as_micros(),
            self.coarse_wall.as_micros(),
            self.overhead_pct,
            self.coarse_overhead_pct,
            self.virtual_identical,
            self.spans_last_call,
            self.spans_coarse
        )
    }
}

/// The deployable subset of the Fig. 5 workload for one architecture, with
/// resolved arguments, on a booted and warmed server.
fn workload(kind: ArchitectureKind) -> (IntegrationServer, Vec<(String, Vec<Value>)>) {
    let server = make_server(kind);
    let mut calls = Vec::new();
    for (spec, _) in paper_functions::fig5_workload() {
        if !server.architecture().supports(&spec) {
            continue;
        }
        server.deploy(&spec).expect("supported spec deploys");
        let args = args_for(server.scenario(), &spec);
        calls.push((spec.name.as_str().to_string(), args));
    }
    // Warm everything: boots, plan cache, template cache.
    for (name, args) in &calls {
        crate::experiments::call_fn(&server, name, args).expect("warm-up call");
    }
    (server, calls)
}

/// Run the workload `repeats` times untraced and `repeats` times traced,
/// comparing wall time and asserting virtual-time equality per call.
///
/// Both sides are measured over several alternating rounds and the
/// *minimum* round time is reported — the standard defence against
/// scheduler and frequency noise when the measured windows are a few
/// milliseconds wide.
pub fn run_trace_overhead(kind: ArchitectureKind, repeats: usize) -> TraceOverheadRow {
    const ROUNDS: usize = 5;
    let (server, calls) = workload(kind);

    let run_side = |detail: Option<TraceDetail>, virtual_out: &mut Vec<u64>| -> Duration {
        let record_virtual = virtual_out.is_empty();
        let clock = WallClock::start();
        for _ in 0..repeats {
            for (name, args) in &calls {
                let mut request = Request::function(name.clone())
                    .params(args.as_slice())
                    .traced(detail.is_some());
                if let Some(detail) = detail {
                    request = request.trace_detail(detail);
                }
                let outcome = server.execute(&request).expect("workload call");
                if record_virtual {
                    virtual_out.push(outcome.elapsed_us());
                }
            }
        }
        clock.elapsed()
    };

    let mut untraced_virtual = Vec::new();
    let mut traced_virtual = Vec::new();
    let mut coarse_virtual = Vec::new();
    let mut untraced_wall = Duration::MAX;
    let mut traced_wall = Duration::MAX;
    let mut coarse_wall = Duration::MAX;
    for _ in 0..ROUNDS {
        untraced_wall = untraced_wall.min(run_side(None, &mut untraced_virtual));
        traced_wall = traced_wall.min(run_side(Some(TraceDetail::Full), &mut traced_virtual));
        coarse_wall = coarse_wall.min(run_side(Some(TraceDetail::Coarse), &mut coarse_virtual));
    }

    let span_count = |detail: TraceDetail| {
        let (name, args) = calls.last().expect("non-empty workload");
        server
            .execute(
                &Request::function(name.clone())
                    .params(args.as_slice())
                    .traced(true)
                    .trace_detail(detail),
            )
            .expect("span-count call")
            .trace
            .map(|t| t.flatten().len())
            .unwrap_or(0)
    };
    let spans_last_call = span_count(TraceDetail::Full);
    let spans_coarse = span_count(TraceDetail::Coarse);

    let pct = |traced: Duration| {
        if untraced_wall.as_nanos() > 0 {
            (traced.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0) * 100.0
        } else {
            0.0
        }
    };
    TraceOverheadRow {
        architecture: kind,
        calls: calls.len() * repeats,
        untraced_wall,
        traced_wall,
        coarse_wall,
        overhead_pct: pct(traced_wall),
        coarse_overhead_pct: pct(coarse_wall),
        virtual_identical: untraced_virtual == traced_virtual && untraced_virtual == coarse_virtual,
        spans_last_call,
        spans_coarse,
    }
}

/// The standard E15 sweep: all four architectures.
pub fn all(repeats: usize) -> Vec<TraceOverheadRow> {
    [
        ArchitectureKind::Wfms,
        ArchitectureKind::SqlUdtf,
        ArchitectureKind::JavaUdtf,
        ArchitectureKind::SimpleUdtf,
    ]
    .into_iter()
    .map(|kind| run_trace_overhead(kind, repeats))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_never_changes_virtual_time() {
        let row = run_trace_overhead(ArchitectureKind::Wfms, 2);
        assert!(row.virtual_identical, "{row:?}");
        assert!(row.spans_last_call > 1, "{row:?}");
        assert!(
            row.spans_coarse < row.spans_last_call,
            "coarse detail must elide spans: {row:?}"
        );
    }

    #[test]
    fn udtf_architecture_also_matches() {
        let row = run_trace_overhead(ArchitectureKind::SqlUdtf, 1);
        assert!(row.virtual_identical, "{row:?}");
    }
}
