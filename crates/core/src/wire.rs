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
//! breakdowns are transport-independent. The charge log travels as
//! *runs* (see [`MAX_CHARGES`] and DESIGN.md §14): a `fed_join` reply
//! books hundreds of identical back-to-back `Evaluate predicates`
//! charges, and each run of them costs a few bytes instead of a few
//! dozen per charge. The span tree (when tracing was requested) and the
//! server-metrics delta travel too.

use std::sync::Arc;
use std::time::Duration;

use fedwf_sim::{Charge, Component, Meter, MetricsSnapshot, SpanName, TraceDetail, TraceNode};
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
    put_charges(&mut w, outcome.meter.charges());
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
    let charges = get_charges(&mut r)?;
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

/// Most charges one outcome body may expand to: what the largest frame
/// body (64 MiB) could carry when every charge travelled on its own in
/// at least 21 bytes (component, empty step, start, duration), as they
/// did before charge runs. A run count beyond it is hostile.
pub const MAX_CHARGES: usize = 64 * 1024 * 1024 / 21;

/// Charges the decoder reserves room for before it has seen any run.
const PRESIZE_CHARGES: usize = 1 << 16;

/// The charge block: the total charge count, then runs until that many
/// charges are accounted for. A *run* is a sequence of consecutive
/// charges with the same component, step and duration, each starting
/// where the previous one ended:
///
/// ```text
/// run := component:u8 step:var [text:var-str] start:zigzag-var duration:var count:var
/// ```
///
/// `step` numbers the run's step text in order of first use within the
/// body; a number equal to the count of texts seen so far introduces the
/// next one, whose text follows. `start` is the run's first start minus
/// the previous run's end (zero before the first run), modulo 2^64 and
/// zigzagged, because fork/join logs step backwards.
fn put_charges(w: &mut WireWriter, charges: &[Charge]) {
    w.put_var_u64(charges.len() as u64);
    let mut steps: Vec<&str> = Vec::with_capacity(16);
    let mut prev_end = 0u64;
    let mut i = 0;
    while i < charges.len() {
        let first = &charges[i];
        let mut end = i + 1;
        while let Some(next) = charges.get(end) {
            let prev = &charges[end - 1];
            if next.component != first.component
                || next.duration_us != first.duration_us
                || prev.start_us.checked_add(prev.duration_us) != Some(next.start_us)
                || next.step != first.step
            {
                break;
            }
            end += 1;
        }
        let last = &charges[end - 1];
        w.put_u8(first.component.wire_tag());
        // Equal steps mostly share their text's address (one literal, one
        // decoded `Arc`): look for that first, then compare texts.
        let step: &str = &first.step;
        let known = steps
            .iter()
            .position(|s| std::ptr::eq(*s, step))
            .or_else(|| steps.iter().position(|s| *s == step));
        match known {
            Some(id) => w.put_var_u64(id as u64),
            None => {
                w.put_var_u64(steps.len() as u64);
                w.put_var_str(step);
                steps.push(step);
            }
        }
        w.put_var_u64(zigzag(first.start_us.wrapping_sub(prev_end)));
        w.put_var_u64(first.duration_us);
        w.put_var_u64((end - i) as u64);
        prev_end = last.start_us.wrapping_add(last.duration_us);
        i = end;
    }
}

/// Inverse of [`put_charges`]: expands every run exactly. The total is
/// capped at [`MAX_CHARGES`], each run must hold at least one charge and
/// no more than the total leaves, and each text decodes into one shared
/// [`SpanName`] that every charge of the step clones.
fn get_charges(r: &mut WireReader<'_>) -> FedResult<Vec<Charge>> {
    let total = r.get_var_u64()?;
    if total > MAX_CHARGES as u64 {
        return Err(FedError::protocol(format!(
            "charge log claims {total} charges, more than the {MAX_CHARGES} a frame can carry"
        )));
    }
    let total = total as usize;
    let mut charges: Vec<Charge> = Vec::with_capacity(total.min(PRESIZE_CHARGES));
    // The first charge of each step, by step number: later runs clone
    // their step from it.
    let mut steps: Vec<usize> = Vec::with_capacity(16);
    let mut prev_end = 0u64;
    while charges.len() < total {
        let component = get_component(r)?;
        let id = r.get_var_u64()?;
        let step = if let Some(&at) = usize::try_from(id).ok().and_then(|i| steps.get(i)) {
            charges[at].step.clone()
        } else if id == steps.len() as u64 {
            steps.push(charges.len());
            SpanName::Shared(Arc::from(r.get_var_str()?))
        } else {
            return Err(FedError::protocol(format!(
                "charge run names step {id} but only {} are defined",
                steps.len()
            )));
        };
        let start_us = prev_end.wrapping_add(unzigzag(r.get_var_u64()?));
        let duration_us = r.get_var_u64()?;
        let count = r.get_var_u64()?;
        let left = total - charges.len();
        if count == 0 || count > left as u64 {
            return Err(FedError::protocol(format!(
                "charge run of {count} charges where 1..={left} remain"
            )));
        }
        let mut at = start_us;
        for _ in 1..count {
            charges.push(Charge {
                component,
                step: step.clone(),
                start_us: at,
                duration_us,
            });
            at = at.checked_add(duration_us).ok_or_else(|| {
                FedError::protocol("charge run runs past the end of virtual time")
            })?;
        }
        charges.push(Charge {
            component,
            step,
            start_us: at,
            duration_us,
        });
        prev_end = at.wrapping_add(duration_us);
    }
    Ok(charges)
}

fn zigzag(delta: u64) -> u64 {
    let v = delta as i64;
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
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
    let name = SpanName::Shared(Arc::from(r.get_str_ref()?));
    let component = get_component(r)?;
    let start_us = r.get_u64()?;
    let mut node = TraceNode::leaf(component, name, start_us);
    node.end_us = r.get_u64()?;
    node.wall_ns = r.get_u64()?;
    let booked = r.get_u32()? as usize;
    // The encoder writes each component at most once; summing a repeat
    // could overflow.
    let mut seen = 0u32;
    for _ in 0..booked {
        let component = get_component(r)?;
        let bit = 1u32 << component.wire_tag();
        if seen & bit != 0 {
            return Err(FedError::protocol(format!(
                "trace span books {} twice",
                component.name()
            )));
        }
        seen |= bit;
        node.booked.add(component, r.get_u64()?);
    }
    let counters = r.get_u32()? as usize;
    for _ in 0..counters {
        let name = SpanName::Shared(Arc::from(r.get_str_ref()?));
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
    use fedwf_types::check;
    use fedwf_types::rng::Rng;
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

    /// A random charge log: runs of 1–10 000 charges over a few static
    /// and formatted (non-ASCII) steps, one text under two addresses,
    /// zero and huge durations, starts that continue the previous run,
    /// step back to it (fork/join) or sit near the end of virtual time.
    fn random_log(rng: &mut Rng) -> Vec<Charge> {
        let steps = [
            SpanName::Static("Evaluate predicates"),
            SpanName::Static("RMI call"),
            SpanName::from("RMI call".to_string()),
            SpanName::Static(""),
            SpanName::from(format!("Load workflow template Größe{}", rng.next_below(3))),
            SpanName::from("Subquery to SQL source 東京 → Zürich".to_string()),
        ];
        let mut log = Vec::new();
        let mut end = 0u64;
        for _ in 0..rng.range_usize(0, 12) {
            let component = *rng.pick(&Component::ALL);
            let step = rng.pick(&steps).clone();
            let duration_us = match rng.next_below(4) {
                0 => 0,
                1 => rng.next_below(100),
                2 => rng.range_u64(u64::MAX - 1_000, u64::MAX),
                _ => rng.next_below(1 << 40),
            };
            let mut at = match rng.next_below(4) {
                0 => end,
                1 => end.saturating_sub(rng.next_below(1_000)),
                2 => rng.range_u64(u64::MAX - 1_000, u64::MAX),
                _ => rng.next_u64(),
            };
            let len = if rng.gen_bool(0.1) {
                rng.range_u64(1_000, 10_000)
            } else {
                rng.range_u64(1, 20)
            };
            for i in 0..len {
                if i > 0 {
                    // A run ends where the next start would overflow.
                    match at.checked_add(duration_us) {
                        Some(next) => at = next,
                        None => break,
                    }
                }
                log.push(Charge {
                    component,
                    step: step.clone(),
                    start_us: at,
                    duration_us,
                });
            }
            end = at.wrapping_add(duration_us);
        }
        log
    }

    fn charge_block(charges: &[Charge]) -> Vec<u8> {
        let mut w = WireWriter::new();
        put_charges(&mut w, charges);
        w.into_bytes()
    }

    fn decode_block(bytes: &[u8]) -> FedResult<Vec<Charge>> {
        let mut r = WireReader::new(bytes);
        let charges = get_charges(&mut r)?;
        r.expect_exhausted()?;
        Ok(charges)
    }

    #[test]
    fn charge_runs_round_trip_exactly() {
        check::cases(64, |rng| {
            let log = random_log(rng);
            let decoded = decode_block(&charge_block(&log)).unwrap();
            assert_eq!(decoded.len(), log.len());
            for (i, (got, want)) in decoded.iter().zip(&log).enumerate() {
                assert_eq!(got, want, "charge {i}");
            }
        });
    }

    #[test]
    fn a_long_run_costs_a_few_bytes() {
        let mut meter = Meter::new();
        meter.charge(Component::Fdbs, "Compile statement", 120);
        for _ in 0..10_000 {
            meter.charge(Component::Fdbs, "Evaluate predicates", 2);
        }
        let bytes = charge_block(meter.charges());
        assert!(bytes.len() < 64, "{} bytes", bytes.len());
        let decoded = decode_block(&bytes).unwrap();
        assert_eq!(decoded, meter.charges());
        // Every charge of a step shares the one decoded text.
        let SpanName::Shared(first) = &decoded[1].step else {
            panic!("decoded steps are shared");
        };
        assert!(decoded[1..].iter().all(|c| match &c.step {
            SpanName::Shared(s) => Arc::ptr_eq(s, first),
            SpanName::Static(_) => false,
        }));
        // A text travels once, whatever address each charge holds it at.
        meter.charge(Component::Rmi, "Evaluate predicates", 3);
        meter.charge(Component::Rmi, "Evaluate predicates".to_string(), 4);
        let bytes = charge_block(meter.charges());
        let text = b"Evaluate predicates";
        let copies = bytes.windows(text.len()).filter(|w| w == text).count();
        assert_eq!(copies, 1);
        assert_eq!(decode_block(&bytes).unwrap(), meter.charges());
    }

    /// One run: component Fdbs, then the raw step field, zigzagged start
    /// delta, duration and count.
    fn put_run(w: &mut WireWriter, step: &[u64], text: Option<&str>, delta: u64, dur: u64, n: u64) {
        w.put_u8(Component::Fdbs.wire_tag());
        for &s in step {
            w.put_var_u64(s);
        }
        if let Some(text) = text {
            w.put_var_str(text);
        }
        w.put_var_u64(delta);
        w.put_var_u64(dur);
        w.put_var_u64(n);
    }

    #[test]
    fn hostile_charge_blocks_are_protocol_errors() {
        let block = |total: u64, runs: &dyn Fn(&mut WireWriter)| {
            let mut w = WireWriter::new();
            w.put_var_u64(total);
            runs(&mut w);
            w.into_bytes()
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("total u64::MAX", block(u64::MAX, &|_| {})),
            (
                "total past the cap",
                block(MAX_CHARGES as u64 + 1, &|w| {
                    put_run(w, &[0], Some("x"), 0, 0, MAX_CHARGES as u64 + 1)
                }),
            ),
            (
                "run of u64::MAX charges",
                block(3, &|w| put_run(w, &[0], Some("x"), 0, 1, u64::MAX)),
            ),
            (
                "run longer than the total",
                block(2, &|w| put_run(w, &[0], Some("x"), 0, 1, 3)),
            ),
            (
                "empty run",
                block(1, &|w| put_run(w, &[0], Some("x"), 0, 1, 0)),
            ),
            (
                "step ahead of an empty dictionary",
                block(1, &|w| put_run(w, &[1], Some("x"), 0, 1, 1)),
            ),
            (
                "step ahead of the dictionary",
                block(2, &|w| {
                    put_run(w, &[0], Some("x"), 0, 1, 1);
                    put_run(w, &[5], None, 0, 1, 1);
                }),
            ),
            (
                "runs short of the total",
                block(2, &|w| put_run(w, &[0], Some("x"), 0, 1, 1)),
            ),
            (
                "run past the end of virtual time",
                block(3, &|w| {
                    put_run(w, &[0], Some("x"), zigzag(u64::MAX - 1), 1, 3)
                }),
            ),
            (
                "unknown component",
                block(1, &|w| {
                    w.put_u8(200);
                    w.put_var_u64(0);
                    w.put_var_str("x");
                    w.put_var_u64(0);
                    w.put_var_u64(1);
                    w.put_var_u64(1);
                }),
            ),
            ("overlong total", vec![0x81, 0x80, 0x00]),
            (
                "ten-byte overlong step number",
                block(1, &|w| {
                    w.put_u8(Component::Fdbs.wire_tag());
                    for _ in 0..9 {
                        w.put_u8(0x80);
                    }
                    w.put_u8(0x00);
                }),
            ),
            ("invalid utf-8 step", {
                let mut bytes = block(1, &|w| put_run(w, &[0], Some("é"), 0, 1, 1));
                bytes[4] = 0xFF;
                bytes
            }),
        ];
        for (what, bytes) in cases {
            let err = decode_block(&bytes).unwrap_err();
            assert!(err.is_protocol(), "{what}: {err}");
        }
        // The same grammar, well formed: a run ending exactly at the end
        // of virtual time, and a second run reusing its step.
        let bytes = block(3, &|w| {
            put_run(w, &[0], Some("x"), zigzag(u64::MAX - 2), 1, 2);
            put_run(w, &[0], None, zigzag(0u64.wrapping_sub(7)), 0, 1);
        });
        let decoded = decode_block(&bytes).unwrap();
        let starts: Vec<u64> = decoded.iter().map(|c| c.start_us).collect();
        assert_eq!(starts, [u64::MAX - 2, u64::MAX - 1, u64::MAX - 7]);
    }

    /// An outcome body whose span tree is one span written by `span`;
    /// everything before the trace marker comes from `encode_outcome`.
    fn outcome_with_span(span: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let outcome = Outcome {
            table: fedwf_types::Table::scalar("x", Value::Int(1)),
            meter: Meter::new(),
            trace: None,
            metrics_delta: MetricsSnapshot::default(),
        };
        let mut bytes = encode_outcome(&outcome);
        bytes.truncate(bytes.len() - 5); // no-trace marker, empty metrics
        let mut w = WireWriter::new();
        w.put_u8(1);
        span(&mut w);
        w.put_u32(0);
        bytes.extend(w.into_bytes());
        bytes
    }

    fn put_span(w: &mut WireWriter, booked: &[(Component, u64)], counters: &[(String, u64)]) {
        w.put_str("span");
        w.put_u8(Component::Fdbs.wire_tag());
        w.put_u64(0);
        w.put_u64(1);
        w.put_u64(0);
        w.put_u32(booked.len() as u32);
        for (component, us) in booked {
            w.put_u8(component.wire_tag());
            w.put_u64(*us);
        }
        w.put_u32(counters.len() as u32);
        for (name, value) in counters {
            w.put_str(name);
            w.put_u64(*value);
        }
        w.put_u32(0);
    }

    /// Summing a component booked twice used to overflow (a panic in a
    /// debug build, a silent wrap in release).
    #[test]
    fn a_span_booking_one_component_twice_is_a_protocol_error() {
        let once = outcome_with_span(|w| put_span(w, &[(Component::Fdbs, u64::MAX)], &[]));
        let trace = decode_outcome(&once).unwrap().trace.unwrap();
        assert_eq!(trace.booked.get(Component::Fdbs), u64::MAX);
        let twice = outcome_with_span(|w| {
            put_span(
                w,
                &[(Component::Fdbs, u64::MAX), (Component::Fdbs, u64::MAX)],
                &[],
            )
        });
        assert!(decode_outcome(&twice).unwrap_err().is_protocol());
    }

    /// Counter names decoded from a peer belong to the decoded tree: no
    /// process-wide table, so no bound on distinct names beyond the frame
    /// size that every name's bytes count against.
    #[test]
    fn a_thousand_distinct_counter_names_round_trip() {
        let counters: Vec<(String, u64)> = (0..1000u64)
            .map(|i| (format!("wire-test counter {i}"), i * 7 + 1))
            .collect();
        let body = outcome_with_span(|w| put_span(w, &[], &counters));
        let outcome = decode_outcome(&body).unwrap();
        let trace = outcome.trace.as_ref().unwrap();
        for (name, value) in &counters {
            assert_eq!(trace.counter(name), Some(*value), "{name}");
        }
        assert_eq!(encode_outcome(&outcome), body);
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
