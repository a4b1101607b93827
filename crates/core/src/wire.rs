//! Wire encoding of [`Request`] and [`Outcome`] bodies.
//!
//! This module defines *what* travels in a network frame's body; the
//! frame layer itself (length prefix, CRC, version and kind bytes) lives
//! in `fedwf_net::frame`. Keeping the body codec next to the types it
//! serializes means the in-process API and the wire format can never
//! drift apart silently — every field a [`Request`] carries is either
//! encoded here or deliberately documented as not travelling.
//!
//! Encodings are little-endian, length-prefixed, and tagged; see
//! DESIGN.md §14 for the full grammar. Deadlines travel as *remaining
//! budget* in microseconds (a duration, not an absolute instant), so the
//! two sides need no clock agreement: the client subtracts its elapsed
//! queueing/connect time before encoding, the server applies whatever
//! budget arrives to its own admission queue.
//!
//! The meter round-trips exactly — charge log, virtual clock,
//! materialization counters — so `Outcome::elapsed_us()` and the Fig. 6
//! breakdowns are transport-independent. The span tree (when tracing was
//! requested) and the server-metrics delta travel too.

use std::time::Duration;

use fedwf_sim::{
    intern_counter_name, Charge, Component, Meter, MetricsSnapshot, TraceDetail, TraceNode,
};
use fedwf_types::wire::{WireReader, WireWriter};
use fedwf_types::{ErrorLayer, FedError, FedResult, Params};

use crate::request::{Outcome, Request, Target};

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

const TARGET_FUNCTION: u8 = 1;
const TARGET_SQL: u8 = 2;

/// Encode a request body. `deadline` is the remaining budget to put on
/// the wire — pass [`Request::deadline_opt`] unchanged for a fresh
/// request, or a reduced budget if time already elapsed client-side.
pub fn encode_request(request: &Request, deadline: Option<Duration>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(128);
    match request.target() {
        Target::Function(name) => {
            w.put_u8(TARGET_FUNCTION);
            w.put_str(name);
        }
        Target::Sql(sql) => {
            w.put_u8(TARGET_SQL);
            w.put_str(sql);
        }
    }
    let params = request.params_ref();
    w.put_u32(params.positional().len() as u32);
    for v in params.positional() {
        w.put_value(v);
    }
    w.put_u32(params.named().len() as u32);
    for (name, v) in params.named() {
        w.put_str(name);
        w.put_value(v);
    }
    match deadline {
        Some(budget) => {
            w.put_u8(1);
            w.put_u64(budget.as_micros().min(u128::from(u64::MAX)) as u64);
        }
        None => w.put_u8(0),
    }
    w.put_bool(request.trace_requested());
    w.put_u8(trace_detail_tag(request.trace_detail_opt()));
    w.into_bytes()
}

/// Decode a request body back into a [`Request`].
pub fn decode_request(bytes: &[u8]) -> FedResult<Request> {
    let mut r = WireReader::new(bytes);
    let mut request = match r.get_u8()? {
        TARGET_FUNCTION => Request::function(r.get_str()?),
        TARGET_SQL => Request::sql(r.get_str()?),
        other => return Err(FedError::protocol(format!("unknown target tag {other}"))),
    };
    let mut params = Params::new();
    let positional = r.get_u32()? as usize;
    for _ in 0..positional {
        params = params.arg(r.get_value()?);
    }
    let named = r.get_u32()? as usize;
    for _ in 0..named {
        let name = r.get_str()?;
        params = params.bind(name, r.get_value()?);
    }
    request = request.params(params);
    if r.get_u8()? == 1 {
        request = request.deadline(Duration::from_micros(r.get_u64()?));
    }
    request = request.traced(r.get_bool()?);
    request = request.trace_detail(trace_detail_from_tag(r.get_u8()?)?);
    r.expect_exhausted()?;
    Ok(request)
}

fn trace_detail_tag(detail: TraceDetail) -> u8 {
    match detail {
        TraceDetail::Coarse => 0,
        TraceDetail::Full => 1,
    }
}

fn trace_detail_from_tag(tag: u8) -> FedResult<TraceDetail> {
    Ok(match tag {
        0 => TraceDetail::Coarse,
        1 => TraceDetail::Full,
        other => {
            return Err(FedError::protocol(format!(
                "unknown trace-detail tag {other}"
            )))
        }
    })
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// Encode an outcome body: result table, meter (charge log + clock +
/// materialization counters), optional span tree, metrics delta.
pub fn encode_outcome(outcome: &Outcome) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(256);
    w.put_table(&outcome.table);
    w.put_u64(outcome.meter.now_us());
    w.put_u32(outcome.meter.charges().len() as u32);
    for charge in outcome.meter.charges() {
        w.put_u8(charge.component.wire_tag());
        w.put_str(&charge.step);
        w.put_u64(charge.start_us);
        w.put_u64(charge.duration_us);
    }
    w.put_u64(outcome.meter.rows_materialized());
    w.put_u64(outcome.meter.bytes_materialized());
    match &outcome.trace {
        Some(trace) => {
            w.put_u8(1);
            put_trace_node(&mut w, trace);
        }
        None => w.put_u8(0),
    }
    let metrics: Vec<_> = outcome.metrics_delta.iter().collect();
    w.put_u32(metrics.len() as u32);
    for (name, value) in metrics {
        w.put_str(name);
        w.put_i64(value);
    }
    w.into_bytes()
}

/// Decode an outcome body.
pub fn decode_outcome(bytes: &[u8]) -> FedResult<Outcome> {
    let mut r = WireReader::new(bytes);
    let table = r.get_table()?;
    let now_us = r.get_u64()?;
    let charge_count = r.get_u32()? as usize;
    let mut charges = Vec::with_capacity(charge_count.min(65_536));
    for _ in 0..charge_count {
        let component = get_component(&mut r)?;
        let step = r.get_str()?;
        let start_us = r.get_u64()?;
        let duration_us = r.get_u64()?;
        charges.push(Charge {
            component,
            step,
            start_us,
            duration_us,
        });
    }
    let rows_materialized = r.get_u64()?;
    let bytes_materialized = r.get_u64()?;
    let trace = match r.get_u8()? {
        0 => None,
        1 => Some(get_trace_node(&mut r, 0)?),
        other => {
            return Err(FedError::protocol(format!(
                "invalid option marker {other} for trace"
            )))
        }
    };
    let entry_count = r.get_u32()? as usize;
    let mut entries = Vec::with_capacity(entry_count.min(4096));
    for _ in 0..entry_count {
        let name = r.get_str()?;
        entries.push((name, r.get_i64()?));
    }
    r.expect_exhausted()?;
    Ok(Outcome {
        table,
        meter: Meter::from_parts(now_us, charges, rows_materialized, bytes_materialized),
        trace,
        metrics_delta: MetricsSnapshot::from_entries(entries),
    })
}

fn get_component(r: &mut WireReader<'_>) -> FedResult<Component> {
    let tag = r.get_u8()?;
    Component::from_wire_tag(tag)
        .ok_or_else(|| FedError::protocol(format!("unknown component tag {tag}")))
}

/// Span trees are shallow (request → engine → process → operator), but a
/// hostile frame could nest arbitrarily; cap recursion instead of
/// trusting it.
const MAX_TRACE_DEPTH: usize = 64;

fn put_trace_node(w: &mut WireWriter, node: &TraceNode) {
    w.put_str(&node.name);
    w.put_u8(node.component.wire_tag());
    w.put_u64(node.start_us);
    w.put_u64(node.end_us);
    w.put_u64(node.wall_ns);
    let booked: Vec<_> = node.booked.iter().collect();
    w.put_u32(booked.len() as u32);
    for (component, us) in booked {
        w.put_u8(component.wire_tag());
        w.put_u64(us);
    }
    w.put_u32(node.counters.len() as u32);
    for (name, value) in &node.counters {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(node.children.len() as u32);
    for child in &node.children {
        put_trace_node(w, child);
    }
}

fn get_trace_node(r: &mut WireReader<'_>, depth: usize) -> FedResult<TraceNode> {
    if depth > MAX_TRACE_DEPTH {
        return Err(FedError::protocol(format!(
            "trace tree deeper than {MAX_TRACE_DEPTH}"
        )));
    }
    let name = r.get_str()?;
    let component = get_component(r)?;
    let start_us = r.get_u64()?;
    let mut node = TraceNode::leaf(component, name, start_us);
    node.end_us = r.get_u64()?;
    node.wall_ns = r.get_u64()?;
    let booked = r.get_u32()? as usize;
    for _ in 0..booked {
        let component = get_component(r)?;
        node.booked.add(component, r.get_u64()?);
    }
    let counters = r.get_u32()? as usize;
    for _ in 0..counters {
        let name = intern_counter_name(&r.get_str()?);
        node.counters.push((name, r.get_u64()?));
    }
    let children = r.get_u32()? as usize;
    for _ in 0..children {
        node.children.push(get_trace_node(r, depth + 1)?);
    }
    Ok(node)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Encode a [`FedError`] body: the stable numeric code, the message, and
/// the context frames — everything [`FedError`] observes, so errors
/// round-trip the wire with full identity (code, layer, `Display`).
pub fn encode_error(error: &FedError) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(64);
    w.put_u16(error.code());
    w.put_str(&error.message);
    w.put_u32(error.context.len() as u32);
    for frame in &error.context {
        w.put_str(frame);
    }
    w.into_bytes()
}

/// Decode an error body. An unassigned code (a newer peer's layer) maps
/// to [`ErrorLayer::Protocol`] with the original code preserved in the
/// message rather than failing the decode — the call still surfaces.
pub fn decode_error(bytes: &[u8]) -> FedResult<FedError> {
    let mut r = WireReader::new(bytes);
    let code = r.get_u16()?;
    let message = r.get_str()?;
    let frames = r.get_u32()? as usize;
    let mut context = Vec::with_capacity(frames.min(256));
    for _ in 0..frames {
        context.push(r.get_str()?);
    }
    r.expect_exhausted()?;
    let mut error = match ErrorLayer::from_code(code) {
        Some(layer) => FedError::new(layer, message),
        None => FedError::protocol(format!("unknown error code {code}: {message}")),
    };
    error.context = context;
    Ok(error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::Value;

    #[test]
    fn request_round_trips_every_field() {
        let request = Request::sql("SELECT * FROM T WHERE k = :K")
            .bind("K", 7)
            .deadline(Duration::from_millis(250))
            .traced(true)
            .trace_detail(TraceDetail::Coarse);
        let bytes = encode_request(&request, request.deadline_opt());
        let decoded = decode_request(&bytes).unwrap();
        assert_eq!(decoded.target(), request.target());
        assert_eq!(decoded.params_ref(), request.params_ref());
        assert_eq!(decoded.deadline_opt(), Some(Duration::from_millis(250)));
        assert!(decoded.trace_requested());
        assert_eq!(decoded.trace_detail_opt(), TraceDetail::Coarse);
    }

    #[test]
    fn request_budget_overrides_deadline_on_the_wire() {
        let request = Request::function("F")
            .arg(1)
            .deadline(Duration::from_secs(10));
        let bytes = encode_request(&request, Some(Duration::from_millis(3)));
        let decoded = decode_request(&bytes).unwrap();
        assert_eq!(decoded.deadline_opt(), Some(Duration::from_millis(3)));
    }

    #[test]
    fn outcome_round_trips_meter_trace_and_metrics() {
        let mut meter = Meter::new();
        meter.set_tracing(true);
        meter.span_start(Component::Controller, "request F");
        meter.charge(Component::Fdbs, "Compile statement", 120);
        meter.span_start(Component::WfEngine, "navigate");
        meter.charge(Component::Activity, "Run activity", 45);
        meter.span_counter("rows", 3);
        meter.span_end();
        meter.span_end();
        meter.tally_materialized(3, 128);
        let trace = meter.finish_trace();
        let outcome = Outcome {
            table: fedwf_types::Table::scalar("Qual", Value::Int(93)),
            meter,
            trace,
            metrics_delta: MetricsSnapshot::from_entries([
                ("server.calls".to_string(), 1i64),
                ("server.elapsed_us.sum".to_string(), 165),
            ]),
        };
        let bytes = encode_outcome(&outcome);
        let decoded = decode_outcome(&bytes).unwrap();
        assert_eq!(decoded.table, outcome.table);
        assert_eq!(decoded.meter.now_us(), outcome.meter.now_us());
        assert_eq!(decoded.meter.charges(), outcome.meter.charges());
        assert_eq!(decoded.meter.rows_materialized(), 3);
        assert_eq!(decoded.meter.bytes_materialized(), 128);
        assert_eq!(decoded.metrics_delta, outcome.metrics_delta);
        let got = decoded.trace.unwrap();
        let want = outcome.trace.unwrap();
        assert_eq!(got, want);
        // And the derived views agree, not just the raw tree.
        assert_eq!(
            got.component_breakdown("x", 165).render(),
            want.component_breakdown("x", 165).render()
        );
    }

    #[test]
    fn error_round_trips_code_message_and_context() {
        let error = FedError::overloaded("admission queue full, call to F shed")
            .with_context("over the wire");
        let decoded = decode_error(&encode_error(&error)).unwrap();
        assert_eq!(decoded, error);
        assert!(decoded.is_overloaded());
        assert_eq!(decoded.code(), 12);
        assert_eq!(decoded.to_string(), error.to_string());
    }

    #[test]
    fn unknown_error_code_degrades_to_protocol() {
        let mut w = WireWriter::new();
        w.put_u16(999);
        w.put_str("from the future");
        w.put_u32(0);
        let decoded = decode_error(&w.into_bytes()).unwrap();
        assert!(decoded.is_protocol());
        assert!(decoded.message.contains("999"));
    }

    /// A 41-byte outcome body whose zero-column table claims ten million
    /// rows (or `u32::MAX`): each row would decode from no bytes at all.
    #[test]
    fn hostile_zero_column_outcome_is_a_typed_protocol_error() {
        for rows in [10_000_000, u32::MAX] {
            let mut w = WireWriter::new();
            w.put_u32(0); // schema: no columns
            w.put_u32(rows);
            w.put_u64(0); // now_us
            w.put_u32(0); // charges
            w.put_u64(0); // rows materialized
            w.put_u64(0); // bytes materialized
            w.put_u8(0); // no trace
            w.put_u32(0); // metrics
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), 41);
            assert!(decode_outcome(&bytes).unwrap_err().is_protocol());
        }
    }

    #[test]
    fn garbage_request_is_a_typed_protocol_error() {
        assert!(decode_request(&[0xFF, 0x01]).unwrap_err().is_protocol());
        // Trailing bytes are a dialect disagreement, not silently ignored.
        // Version 1 bodies ended in an engine-options block: a marker byte
        // (0 = none), then mode, vectorized, pruning, memo and planner. A
        // v1 body is a typed error, never a silently reconfigured engine.
        let request = Request::function("F");
        for v1_options_block in [&[0u8][..], &[1, 2, 1, 0, 0, 0]] {
            let mut bytes = encode_request(&request, None);
            bytes.extend_from_slice(v1_options_block);
            assert!(decode_request(&bytes).unwrap_err().is_protocol());
        }
    }
}
