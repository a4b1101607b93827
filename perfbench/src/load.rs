//! The closed loop: each client thread sends its next request only after
//! the previous reply arrived, checks every reply, and — in the traced
//! phase — re-issues a sample of requests down the ladder of entry points.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fedwf_core::{Outcome, Request, Submit};
use fedwf_types::{FedResult, Value};

use crate::ingest::{self, Draw, Expect, Model};
use crate::ladder::{self, Recorder, Sample, Span};
use crate::rig::{Rig, CLIENTS};
use crate::util::{self, Hist};
use crate::workloads::{Input, Mix, RUN_TAGS};

/// In the traced phase, every `SAMPLE_EVERY`-th request is re-issued down
/// the ladder.
const SAMPLE_EVERY: u64 = 8;

/// End-to-end metrics are medians over slices of this length.
pub const SLICE: Duration = Duration::from_millis(250);

/// Requests of one phase of one client.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Latency of every successful request.
    pub latency: Hist,
    /// Split by request type (`ingest` only).
    pub write: Hist,
    pub read: Hist,
    /// Per request class: latencies and wrong answers.
    pub by_class: BTreeMap<&'static str, (Hist, u64)>,
    /// Latencies by the slice of the window the reply arrived in.
    pub slices: Vec<Hist>,
}

impl Phase {
    fn record(&mut self, class: &'static str, ns: u64, slice: usize) {
        self.latency.record(ns);
        self.by_class.entry(class).or_default().0.record(ns);
        if slice >= self.slices.len() {
            self.slices.resize_with(slice + 1, Hist::default);
        }
        self.slices[slice].record(ns);
    }

    fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.latency.merge(&other.latency);
        self.write.merge(&other.write);
        self.read.merge(&other.read);
        for (class, (hist, wrong)) in other.by_class {
            let entry = self.by_class.entry(class).or_default();
            entry.0.merge(&hist);
            entry.1 += wrong;
        }
        if other.slices.len() > self.slices.len() {
            self.slices.resize_with(other.slices.len(), Hist::default);
        }
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.merge(b);
        }
    }
}

/// What one client thread drives.
pub enum Driver<'a> {
    Mix { mix: &'a Mix, corrupt: bool },
    Ingest { draws: &'a [Vec<Draw>] },
}

/// Per-client state carried across the run.
pub enum State {
    Mix { position: usize, next_tag: u64 },
    Ingest { position: usize, model: Model },
}

impl State {
    pub fn new(driver: &Driver<'_>, client: usize) -> State {
        match driver {
            Driver::Mix { .. } => State::Mix {
                position: 0,
                next_tag: 0,
            },
            Driver::Ingest { .. } => State::Ingest {
                position: 0,
                model: Model::new(client, CLIENTS),
            },
        }
    }

    pub fn into_model(self) -> Option<Model> {
        match self {
            State::Ingest { model, .. } => Some(model),
            State::Mix { .. } => None,
        }
    }
}

/// Output of one client thread.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub untraced: Phase,
    pub traced: Phase,
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
}

/// Merged output of all client threads.
#[derive(Debug, Default)]
pub struct Run {
    pub untraced: Phase,
    pub traced: Phase,
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    pub models: Vec<Model>,
    /// Wall time from the first request to the last reply.
    pub elapsed_s: f64,
    /// Process CPU time (us) at the start of each slice and at the end of
    /// the last one.
    pub cpu_marks: Vec<Option<u64>>,
    /// FDBS plan-cache size at the same instants.
    pub plan_marks: Vec<usize>,
    /// Host steal time (ticks) at the same instants.
    pub steal_marks: Vec<Option<u64>>,
}

/// Whether a reply matches a reference-checked input. A corrupted run
/// perturbs the expected virtual time of input 0 (the smoke test's
/// self-check that wrong answers are counted).
fn mix_matches(mix: &Mix, index: usize, corrupt: bool, outcome: &Outcome) -> bool {
    let reference = &mix.inputs[index].reference;
    if corrupt && index == 0 {
        return outcome.table == reference.table
            && outcome.elapsed_us() == reference.elapsed_us + 1;
    }
    reference.matches(outcome)
}

/// A literal unique to this request among all requests of the run.
fn tag(client: usize, next_tag: &mut u64) -> u64 {
    *next_tag += 1;
    RUN_TAGS + *next_tag * CLIENTS as u64 + client as u64
}

/// Submit requests before the clock starts, checking each (warm-up).
pub fn warm_up(
    rig: &Rig,
    driver: &Driver<'_>,
    state: &mut State,
    client: usize,
    requests: usize,
) -> FedResult<()> {
    let tcp = &rig.clients[client];
    for _ in 0..requests {
        match (driver, &mut *state) {
            (Driver::Mix { mix, .. }, State::Mix { position, .. }) => {
                let seq = &mix.sequences[client];
                let index = seq[*position % seq.len()] as usize;
                *position += 1;
                let input = &mix.inputs[index];
                if input.adhoc.is_some() {
                    continue;
                }
                let outcome = tcp.submit(input.request.clone())?;
                if !input.reference.matches(&outcome) {
                    return Err(fedwf_types::FedError::execution(format!(
                        "warm-up reply of {} differs from its reference",
                        input.class
                    )));
                }
            }
            (Driver::Ingest { draws }, State::Ingest { position, model }) => {
                let draw = draws[client][*position % draws[client].len()];
                *position += 1;
                let op = model.prepare(draw);
                let outcome = tcp.submit(op.request.clone())?;
                if let Expect::Read(key) = op.expect {
                    if !model.read_matches(key, &outcome.table) {
                        return Err(fedwf_types::FedError::execution(
                            "warm-up read differs from the model",
                        ));
                    }
                }
                model.ack(&op.expect);
            }
            _ => unreachable!("driver and state are built together"),
        }
    }
    Ok(())
}

fn params(p: &[(String, Value)]) -> Vec<(&str, Value)> {
    p.iter().map(|(n, v)| (n.as_str(), v.clone())).collect()
}

/// Drive one client until `end`; requests started at or after
/// `ladder_from` form the traced phase.
pub fn client_loop(
    rig: &Rig,
    driver: &Driver<'_>,
    mut state: State,
    client: usize,
    origin: Instant,
    ladder_from: Instant,
    end: Instant,
) -> (ClientRun, State) {
    let tcp = &rig.clients[client];
    let mut out = ClientRun::default();
    let mut rec = Recorder::new(origin);
    let mut n: u64 = 0;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let traced = now >= ladder_from;
        let sampled = traced && n.is_multiple_of(SAMPLE_EVERY);
        let request_id = (n << 8) | client as u64;
        n += 1;
        let phase = if traced {
            &mut out.traced
        } else {
            &mut out.untraced
        };
        phase.attempted += 1;
        match (driver, &mut state) {
            (Driver::Mix { mix, corrupt }, State::Mix { position, next_tag }) => {
                let seq = &mix.sequences[client];
                let index = seq[*position % seq.len()] as usize;
                *position += 1;
                let input = &mix.inputs[index];
                let request = input.request_for(tag(client, next_tag));
                let ladder_request = sampled.then(|| request.clone());
                let start = Instant::now();
                let result = tcp.submit(request);
                let ns = start.elapsed().as_nanos() as u64;
                let outcome = match result {
                    Ok(outcome) => outcome,
                    Err(_) => {
                        phase.failed += 1;
                        continue;
                    }
                };
                phase.record(input.class, ns, slice_of(origin, start, ns));
                if !mix_matches(mix, index, *corrupt, &outcome) {
                    phase.wrong += 1;
                    phase.by_class.entry(input.class).or_default().1 += 1;
                }
                if let Some(request) = ladder_request {
                    rec.begin(request_id);
                    rec.record(
                        "net.submit",
                        "",
                        start,
                        start + std::time::Duration::from_nanos(ns),
                    );
                    let mut sample = Sample {
                        submit: ns,
                        ..Sample::default()
                    };
                    let ok = mix_ladder(
                        rig,
                        &mut rec,
                        &mut sample,
                        input,
                        &request,
                        &outcome,
                        || input.request_for(tag(client, next_tag)),
                    );
                    if !ok || sample.failed {
                        phase.failed += 1;
                    } else {
                        out.samples.push(sample);
                    }
                }
            }
            (Driver::Ingest { draws }, State::Ingest { position, model }) => {
                let draw = draws[client][*position % draws[client].len()];
                *position += 1;
                let op = model.prepare(draw);
                let start = Instant::now();
                let result = tcp.submit(op.request.clone());
                let ns = start.elapsed().as_nanos() as u64;
                let outcome = match result {
                    Ok(outcome) => outcome,
                    Err(_) => {
                        phase.failed += 1;
                        continue;
                    }
                };
                phase.record(op.kind.name(), ns, slice_of(origin, start, ns));
                if op.kind.is_write() {
                    phase.write.record(ns);
                } else {
                    phase.read.record(ns);
                }
                if let Expect::Read(key) = op.expect {
                    if !model.read_matches(key, &outcome.table) {
                        phase.wrong += 1;
                    }
                }
                model.ack(&op.expect);
                if sampled {
                    rec.begin(request_id);
                    rec.record(
                        "net.submit",
                        "",
                        start,
                        start + std::time::Duration::from_nanos(ns),
                    );
                    let mut sample = Sample {
                        submit: ns,
                        writes: op.kind.is_write(),
                        ..Sample::default()
                    };
                    let ok = ingest_ladder(rig, &mut rec, &mut sample, model, draw, &op, &outcome);
                    if !ok || sample.failed {
                        phase.failed += 1;
                    } else {
                        out.samples.push(sample);
                    }
                }
            }
            _ => unreachable!("driver and state are built together"),
        }
    }
    out.spans = rec.spans;
    (out, state)
}

/// The ladder for a reference-checked input. `fresh` yields the request
/// again for each lower rung (an `adhoc` request gets a new literal, so
/// every rung pays the plan-cache miss the measured request paid).
fn mix_ladder(
    rig: &Rig,
    rec: &mut Recorder,
    sample: &mut Sample,
    input: &Input,
    request: &Request,
    outcome: &Outcome,
    mut fresh: impl FnMut() -> Request,
) -> bool {
    let fdbs_params = params(&input.fdbs_params);
    let sql_of = |r: &Request| match r.target() {
        fedwf_core::Target::Sql(sql) if input.adhoc.is_some() => sql.clone(),
        _ => input.fdbs_sql.clone(),
    };
    ladder::codec_and_front_end(
        rec,
        sample,
        &rig.server,
        request,
        outcome,
        &sql_of(request),
        &fdbs_params,
    );
    let check = |r: FedResult<Outcome>| r.map(|o| input.reference.matches(&o)).unwrap_or(false);

    let front_request = fresh();
    let (r, ns) = rec.time("front.execute", "net.submit", || {
        rig.front.execute(front_request)
    });
    sample.front = ns;
    let mut ok = check(r);
    let server_request = fresh();
    let (r, ns) = rec.time("server.execute", "front.execute", || {
        rig.server.execute(&server_request)
    });
    sample.server = ns;
    ok &= check(r);
    let fdbs_sql = sql_of(&fresh());
    ok &= ladder::fdbs_rung(rec, sample, &rig.server, &fdbs_sql, &fdbs_params).is_ok();
    ok &= ladder::below_fdbs(rec, sample, &rig.server, &input.calls, &input.scans).is_ok();
    ok
}

/// The ladder for an ingest operation: each lower rung re-issues the same
/// draw through the model, so inserts write fresh keys and every rung
/// does the same work on consistent state.
fn ingest_ladder(
    rig: &Rig,
    rec: &mut Recorder,
    sample: &mut Sample,
    model: &mut Model,
    draw: Draw,
    op: &ingest::Op,
    outcome: &Outcome,
) -> bool {
    ladder::codec_and_front_end(
        rec,
        sample,
        &rig.server,
        &op.request,
        outcome,
        &op.sql,
        &params(&op.params),
    );
    let mut ok = true;
    let mut settle = |model: &mut Model, op: &ingest::Op, r: FedResult<Outcome>| match r {
        Ok(o) => {
            if let Expect::Read(key) = op.expect {
                ok &= model.read_matches(key, &o.table);
            }
            model.ack(&op.expect);
        }
        Err(_) => ok = false,
    };
    let front_op = model.prepare(draw);
    let (r, ns) = rec.time("front.execute", "net.submit", || {
        rig.front.execute(front_op.request.clone())
    });
    sample.front = ns;
    settle(model, &front_op, r);
    let server_op = model.prepare(draw);
    let (r, ns) = rec.time("server.execute", "front.execute", || {
        rig.server.execute(&server_op.request)
    });
    sample.server = ns;
    settle(model, &server_op, r);

    let fdbs_op = model.prepare(draw);
    let fdbs_ok = ladder::fdbs_rung(
        rec,
        sample,
        &rig.server,
        &fdbs_op.sql,
        &params(&fdbs_op.params),
    )
    .is_ok();
    if fdbs_ok {
        model.ack(&fdbs_op.expect);
    }
    let local = rig.server.fdbs().catalog().local();
    let store_op = model.prepare(draw);
    let (r, ns) = rec.time("relstore", "fdbs.execute", || {
        ingest::relstore_rung(local, &store_op)
    });
    if store_op.kind.is_write() {
        sample.relstore_write = ns;
    } else {
        sample.relstore_scan = ns;
        sample.scans = 1;
    }
    let store_ok = r.is_ok();
    if store_ok {
        model.ack(&store_op.expect);
    }
    ok && fdbs_ok && store_ok
}

/// The slice a reply arriving `ns` after `start` falls in.
fn slice_of(origin: Instant, start: Instant, ns: u64) -> usize {
    let at = start.saturating_duration_since(origin) + Duration::from_nanos(ns);
    (at.as_nanos() / SLICE.as_nanos()) as usize
}

/// Run all clients from `origin` until `end` and merge their outputs. The
/// calling thread samples process CPU time at every slice boundary.
pub fn run(
    rig: &Rig,
    driver: &Driver<'_>,
    states: Vec<State>,
    origin: Instant,
    ladder_from: Instant,
    end: Instant,
) -> Run {
    let plans = || rig.server.fdbs().cached_plan_count();
    let mut cpu_marks = vec![util::process_cpu_us()];
    let mut plan_marks = vec![plans()];
    let mut steal_marks = vec![util::host_steal_ticks()];
    let results: Vec<(ClientRun, State)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(client, state)| {
                scope.spawn(move || {
                    client_loop(rig, driver, state, client, origin, ladder_from, end)
                })
            })
            .collect();
        let mut boundary = origin + SLICE;
        while boundary <= end {
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu_marks.push(util::process_cpu_us());
            plan_marks.push(plans());
            steal_marks.push(util::host_steal_ticks());
            boundary += SLICE;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = Run {
        elapsed_s: origin.elapsed().as_secs_f64(),
        cpu_marks,
        plan_marks,
        steal_marks,
        ..Run::default()
    };
    for (client, state) in results {
        run.untraced.merge(client.untraced);
        run.traced.merge(client.traced);
        run.samples.extend(client.samples);
        run.spans.extend(client.spans);
        if let Some(model) = state.into_model() {
            run.models.push(model);
        }
    }
    run
}
