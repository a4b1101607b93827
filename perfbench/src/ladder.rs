//! The traced run's per-layer measurement.
//!
//! For a sample of requests the client thread re-issues the request at each
//! rung of a ladder of public entry points, one layer lower each time:
//!
//! ```text
//! TcpClient::submit → ServerFront::execute → IntegrationServer::execute
//!   → Fdbs::execute_with_params (a function's call statement, or the SQL)
//!   → Fdbs::call_function → WfmsWrapper::invoke_process
//!   → Controller::dispatch_local → AppSystemRegistry::call_metered
//! ```
//!
//! plus the wire codec and frame calls on the same request and its reply,
//! and the relstore / SQL/MED scans a SQL request's plan performs. A
//! layer's self time is its rung minus the rung below, so the self times
//! of one sample sum back to its `TcpClient::submit` time. Every call is
//! recorded as a span (name, start, end, parent, request id) in memory.

use std::io::Cursor;
use std::time::Instant;

use fedwf_core::wire::{decode_outcome, decode_request, encode_outcome, encode_request};
use fedwf_core::{IntegrationServer, Outcome, Request};
use fedwf_net::frame::{read_frame, write_frame};
use fedwf_net::FrameKind;
use fedwf_sim::Meter;
use fedwf_types::{FedResult, Value};

use crate::rig;
use crate::util::{median, Metric};
use crate::workloads::{FnCall, Scan};

/// One span of the ladder.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder of one client thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    request: u64,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            request: 0,
        }
    }

    pub fn begin(&mut self, request: u64) {
        self.request = request;
    }

    /// Run `f` as span `name` under `parent`; returns its result and
    /// duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, start, end);
        (out, (end - start).as_nanos() as u64)
    }

    /// Record a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            request: self.request,
            name,
            parent,
            start_ns: rel(start),
            end_ns: rel(end),
        });
    }
}

/// Rung durations and layer counts of one sampled request (ns unless
/// named otherwise).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub submit: u64,
    pub front: u64,
    pub server: u64,
    pub fdbs: u64,
    pub call_function: u64,
    pub invoke: u64,
    pub dispatch: u64,
    pub local: u64,
    pub sqlmed: u64,
    pub relstore_scan: u64,
    pub relstore_write: u64,
    pub request_codec: u64,
    pub outcome_codec: u64,
    pub frame: u64,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub charges: u64,
    pub snapshot: u64,
    pub counter_inc: f64,
    pub parse: u64,
    pub plan: Option<u64>,
    pub rows_out: u64,
    pub rows_materialized: u64,
    pub bytes_materialized: u64,
    pub fn_calls: u64,
    pub local_calls: u64,
    pub activities: u64,
    pub scans: u64,
    pub sqlmed_used: bool,
    pub writes: bool,
    pub failed: bool,
}

/// Counter increments timed per sample (their mean is the sample).
const COUNTER_INCS: u32 = 32;

/// The rungs that need no server state: wire codec and frame calls on the
/// request and its reply, the metrics registry, the SQL parser and the
/// planner (`EXPLAIN` of SELECT statements).
pub fn codec_and_front_end(
    rec: &mut Recorder,
    sample: &mut Sample,
    server: &IntegrationServer,
    request: &Request,
    outcome: &Outcome,
    fdbs_sql: &str,
    fdbs_params: &[(&str, Value)],
) {
    let (request_body, enc) = rec.time("wire.encode_request", "net.submit", || {
        encode_request(request, None)
    });
    let (decoded, dec) = rec.time("wire.decode_request", "net.submit", || {
        decode_request(&request_body)
    });
    sample.failed |= decoded.is_err();
    let (outcome_body, enc_out) = rec.time("wire.encode_outcome", "net.submit", || {
        encode_outcome(outcome)
    });
    let (decoded, dec_out) = rec.time("wire.decode_outcome", "net.submit", || {
        decode_outcome(&outcome_body)
    });
    sample.failed |= decoded.is_err();
    sample.request_codec = enc + dec;
    sample.outcome_codec = enc_out + dec_out;
    sample.request_bytes = request_body.len() as u64 + 10;
    sample.reply_bytes = outcome_body.len() as u64 + 10;
    sample.charges = outcome.meter.charges().len() as u64;
    sample.rows_out = outcome.table.row_count() as u64;
    sample.rows_materialized = outcome.meter.rows_materialized();
    sample.bytes_materialized = outcome.meter.bytes_materialized();

    let mut frames = 0;
    for (kind, body) in [
        (FrameKind::Request, &request_body),
        (FrameKind::Outcome, &outcome_body),
    ] {
        let (ok, ns) = rec.time("net.frame", "net.submit", || {
            let mut buf = Vec::with_capacity(body.len() + 10);
            write_frame(&mut buf, kind, body)?;
            read_frame(&mut Cursor::new(buf), || false)
        });
        sample.failed |= !matches!(ok, Ok(Some(_)));
        frames += ns;
    }
    sample.frame = frames;

    let registry = server.metrics();
    let before = registry.snapshot();
    let (_, ns) = rec.time("metrics.snapshot", "server.execute", || {
        registry.snapshot().delta_since(&before)
    });
    sample.snapshot = ns;
    let probe_start = Instant::now();
    for _ in 0..COUNTER_INCS {
        registry.counter("perfbench.probe").inc();
    }
    let probe_end = Instant::now();
    rec.record(
        "metrics.counter_inc",
        "server.execute",
        probe_start,
        probe_end,
    );
    sample.counter_inc = (probe_end - probe_start).as_nanos() as f64 / f64::from(COUNTER_INCS);

    let (parsed, ns) = rec.time("sqlparse.parse", "fdbs.execute", || {
        fedwf_sql::parse_statement(fdbs_sql)
    });
    sample.failed |= parsed.is_err();
    sample.parse = ns;
    if fdbs_sql
        .trim_start()
        .to_ascii_uppercase()
        .starts_with("SELECT")
    {
        let explain = format!("EXPLAIN {fdbs_sql}");
        let (planned, ns) = rec.time("fdbs.plan", "fdbs.execute", || {
            server
                .fdbs()
                .execute_with_params(&explain, fdbs_params, &mut Meter::new())
        });
        sample.failed |= planned.is_err();
        sample.plan = Some(ns);
    }
}

/// `Fdbs::execute_with_params` on the calling thread, with the foreign
/// scans it makes timed.
pub fn fdbs_rung(
    rec: &mut Recorder,
    sample: &mut Sample,
    server: &IntegrationServer,
    sql: &str,
    params: &[(&str, Value)],
) -> FedResult<()> {
    rig::sqlmed_open();
    let (result, ns) = rec.time("fdbs.execute", "server.execute", || {
        server
            .fdbs()
            .execute_with_params(sql, params, &mut Meter::new())
    });
    sample.sqlmed = rig::sqlmed_close();
    sample.sqlmed_used |= sample.sqlmed > 0;
    sample.fdbs = ns;
    result.map(drop)
}

/// The rungs below the FDBS: each federated function through
/// `Fdbs::call_function`, the wrapper, the controller and the application
/// systems; each relstore scan of the plan.
pub fn below_fdbs(
    rec: &mut Recorder,
    sample: &mut Sample,
    server: &IntegrationServer,
    calls: &[FnCall],
    scans: &[Scan],
) -> FedResult<()> {
    let cost = server.config().cost.clone();
    for call in calls {
        let (r, ns) = rec.time("fdbs.call_function", "fdbs.execute", || {
            server
                .fdbs()
                .call_function(&call.name, &call.args, &mut Meter::new())
        });
        r?;
        sample.call_function += ns;
        let (r, ns) = rec.time("wrapper.invoke_process", "fdbs.call_function", || {
            server
                .wrapper()
                .invoke_process(&call.name, &call.args, &mut Meter::new())
        });
        r?;
        sample.invoke += ns;
        for (function, args) in &call.locals {
            let (r, ns) = rec.time(
                "controller.dispatch_local",
                "wrapper.invoke_process",
                || {
                    server
                        .controller()
                        .dispatch_local(function, args, &mut Meter::new())
                },
            );
            r?;
            sample.dispatch += ns;
            let (r, ns) = rec.time("appsys.call_metered", "controller.dispatch_local", || {
                server
                    .scenario()
                    .registry
                    .call_metered(function, args, &cost, &mut Meter::new())
            });
            r?;
            sample.local += ns;
        }
        sample.fn_calls += 1;
        sample.local_calls += call.locals.len() as u64;
        sample.activities += call.activities as u64;
    }
    let local = server.fdbs().catalog().local();
    for scan in scans {
        let (r, ns) = rec.time("relstore.scan", "fdbs.execute", || {
            local.scan_project_columnar(scan.table, &scan.predicate, scan.projection.as_deref())
        });
        r?;
        sample.relstore_scan += ns;
        sample.scans += 1;
    }
    Ok(())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn signed_us(a: u64, b: u64) -> f64 {
    (a as f64 - b as f64) / 1_000.0
}

/// Median over the samples `f` yields a value for; `None` when no sample
/// exercised the layer.
fn med(samples: &[Sample], f: impl Fn(&Sample) -> Option<f64>) -> Option<f64> {
    let mut v: Vec<f64> = samples.iter().filter_map(f).collect();
    median(&mut v)
}

/// Self times of one sample; they sum to `submit`.
pub fn self_times(s: &Sample) -> [(&'static str, f64); 12] {
    [
        (
            "net.self_us",
            signed_us(
                s.submit,
                s.front + s.request_codec + s.outcome_codec + s.frame,
            ),
        ),
        ("wire", us(s.request_codec + s.outcome_codec)),
        ("net.frame_us", us(s.frame)),
        ("front.self_us", signed_us(s.front, s.server)),
        ("server.self_us", signed_us(s.server, s.fdbs)),
        (
            "fdbs.self_us",
            signed_us(
                s.fdbs,
                s.call_function + s.sqlmed + s.relstore_scan + s.relstore_write,
            ),
        ),
        ("wrapper.udtf_self_us", signed_us(s.call_function, s.invoke)),
        ("wfms.navigation_self_us", signed_us(s.invoke, s.dispatch)),
        ("controller.self_us", signed_us(s.dispatch, s.local)),
        ("appsys.local_us", us(s.local)),
        ("sqlmed.scan_us", us(s.sqlmed)),
        ("relstore", us(s.relstore_scan + s.relstore_write)),
    ]
}

/// The per-layer metrics of a traced run, each the median over the
/// sampled requests that exercised the layer. A layer no sample exercised
/// is absent from the list.
pub fn layer_metrics(
    samples: &[Sample],
    cached_plans: f64,
    miss_ratio: f64,
    front: (u64, u64),
) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: Option<f64>, unit: &'static str| {
        if let Some(v) = value {
            out.push((name.to_string(), v, unit));
        }
    };
    let selfs = |name: &'static str| {
        move |s: &Sample| {
            self_times(s)
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
        }
    };
    let all = samples;
    put("net.submit_us", med(all, |s| Some(us(s.submit))), "us");
    put("net.self_us", med(all, selfs("net.self_us")), "us");
    put("net.frame_us", med(all, |s| Some(us(s.frame))), "us");
    put(
        "net.request_bytes",
        med(all, |s| Some(s.request_bytes as f64)),
        "bytes",
    );
    put(
        "net.reply_bytes",
        med(all, |s| Some(s.reply_bytes as f64)),
        "bytes",
    );
    put(
        "wire.request_codec_us",
        med(all, |s| Some(us(s.request_codec))),
        "us",
    );
    put(
        "wire.outcome_codec_us",
        med(all, |s| Some(us(s.outcome_codec))),
        "us",
    );
    put(
        "wire.charges_per_reply",
        med(all, |s| Some(s.charges as f64)),
        "count",
    );
    put("front.self_us", med(all, selfs("front.self_us")), "us");
    put("front.shed", Some(front.0 as f64), "count");
    put("front.expired_in_queue", Some(front.1 as f64), "count");
    put("server.self_us", med(all, selfs("server.self_us")), "us");
    put(
        "metrics.snapshot_us",
        med(all, |s| Some(us(s.snapshot))),
        "us",
    );
    put(
        "metrics.counter_inc_ns",
        med(all, |s| Some(s.counter_inc)),
        "ns",
    );
    put("sqlparse.parse_us", med(all, |s| Some(us(s.parse))), "us");
    put("fdbs.execute_us", med(all, |s| Some(us(s.fdbs))), "us");
    put("fdbs.self_us", med(all, selfs("fdbs.self_us")), "us");
    put("fdbs.plan_us", med(all, |s| s.plan.map(us)), "us");
    put("fdbs.plan_cache_miss_ratio", Some(miss_ratio), "ratio");
    put("fdbs.cached_plans", Some(cached_plans), "count");
    put(
        "fdbs.rows_out",
        med(all, |s| Some(s.rows_out as f64)),
        "count",
    );
    put(
        "fdbs.rows_materialized",
        med(all, |s| Some(s.rows_materialized as f64)),
        "count",
    );
    put(
        "fdbs.bytes_materialized",
        med(all, |s| Some(s.bytes_materialized as f64)),
        "bytes",
    );
    let sqlmed = |s: &Sample| s.sqlmed_used.then(|| us(s.sqlmed));
    put("sqlmed.scan_us", med(all, sqlmed), "us");
    let fns = |f: fn(&Sample) -> f64| move |s: &Sample| (s.fn_calls > 0).then(|| f(s));
    put("wrapper.invoke_us", med(all, fns(|s| us(s.invoke))), "us");
    put(
        "wrapper.udtf_self_us",
        med(all, fns(|s| signed_us(s.call_function, s.invoke))),
        "us",
    );
    put(
        "wfms.navigation_self_us",
        med(all, fns(|s| signed_us(s.invoke, s.dispatch))),
        "us",
    );
    put(
        "wfms.activities_per_call",
        med(all, fns(|s| s.activities as f64 / s.fn_calls as f64)),
        "count",
    );
    put(
        "controller.self_us",
        med(all, fns(|s| signed_us(s.dispatch, s.local))),
        "us",
    );
    put("appsys.local_us", med(all, fns(|s| us(s.local))), "us");
    put(
        "appsys.local_calls_per_req",
        med(all, fns(|s| s.local_calls as f64)),
        "count",
    );
    put(
        "relstore.scan_us",
        med(all, |s| (s.scans > 0).then(|| us(s.relstore_scan))),
        "us",
    );
    put(
        "relstore.insert_us",
        med(all, |s| s.writes.then(|| us(s.relstore_write))),
        "us",
    );
    out
}
