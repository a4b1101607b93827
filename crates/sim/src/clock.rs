//! Branch-local virtual clocks with fork/join semantics.

use std::sync::{Arc, Mutex};

use crate::cost::Component;
use crate::trace::{SpanName, TraceBuf, TraceDetail, TraceNode};

/// A single booked cost: which component was exercised, a human-readable
/// step label (these become the rows of Fig. 6's breakdown tables), the
/// virtual time at which the step started and its duration.
///
/// The step is a [`SpanName`]: the fixed labels every engine books are
/// `Static` and cost nothing per charge; the few formatted ones
/// (`Load workflow template …`, `Subquery to SQL source …`) are `Shared`.
/// Equality is by text, so a charge decoded from the wire equals the one
/// the server booked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Charge {
    pub component: Component,
    pub step: SpanName,
    pub start_us: u64,
    pub duration_us: u64,
}

/// A virtual clock for one execution branch plus the log of charges booked
/// on that branch.
///
/// Sequential work calls [`Meter::charge`]; logically-parallel work forks
/// one child meter per branch with [`Meter::fork`], runs each branch against
/// its own child, and then [`Meter::join`]s them — the parent clock advances
/// to the *latest* child, so the elapsed time of a parallel block is the
/// maximum of its branches, not the sum. This is the property behind the
/// paper's observation that parallel workflow activities are faster than
/// sequential ones.
#[derive(Debug, Default)]
pub struct Meter {
    now_us: u64,
    origin_us: u64,
    charges: Vec<Charge>,
    rows_materialized: u64,
    bytes_materialized: u64,
    /// Span recorder, present only while tracing is enabled. Kept boxed so
    /// the untraced meter stays one pointer wider than before and every
    /// span operation is a single `None` check when tracing is off.
    trace: Option<Box<TraceBuf>>,
}

impl Meter {
    /// A fresh meter starting at virtual time zero.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Current virtual time on this branch, in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Virtual time elapsed since this meter was created (or forked).
    pub fn elapsed_us(&self) -> u64 {
        self.now_us - self.origin_us
    }

    /// Book `duration_us` of work attributed to `component` under `step`.
    pub fn charge(&mut self, component: Component, step: impl Into<SpanName>, duration_us: u64) {
        self.charges.push(Charge {
            component,
            step: step.into(),
            start_us: self.now_us,
            duration_us,
        });
        self.now_us += duration_us;
        if let Some(trace) = self.trace.as_mut() {
            trace.record_booked(component, duration_us);
        }
    }

    /// Enable or disable span recording on this branch. Enabling starts a
    /// fresh span buffer; disabling discards any spans recorded so far.
    /// Tracing never books charges, so the virtual clock is bit-identical
    /// with tracing on or off.
    pub fn set_tracing(&mut self, enabled: bool) {
        if enabled {
            if self.trace.is_none() {
                self.trace = Some(Box::new(TraceBuf::new()));
            }
        } else {
            self.trace = None;
        }
    }

    /// Whether spans are being recorded on this branch.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Sample the wall clock at span open/close (off by default — see the
    /// [trace module docs](crate::trace)). No-op unless tracing is on.
    pub fn set_wall_sampling(&mut self, on: bool) {
        if let Some(trace) = self.trace.as_mut() {
            trace.set_wall(on);
        }
    }

    /// Whether per-span wall sampling is on for this branch.
    pub fn wall_sampling(&self) -> bool {
        self.trace.as_ref().is_some_and(|t| t.wall())
    }

    /// Limit (or restore) how deep the recorded span hierarchy goes — see
    /// [`TraceDetail`]. No-op unless tracing is on; forks inherit it.
    pub fn set_trace_detail(&mut self, detail: TraceDetail) {
        if let Some(trace) = self.trace.as_mut() {
            trace.set_detail(detail);
        }
    }

    /// The current trace detail ([`TraceDetail::Full`] when untraced).
    pub fn trace_detail(&self) -> TraceDetail {
        self.trace
            .as_ref()
            .map_or(TraceDetail::Full, |t| t.detail())
    }

    /// True when tracing is on at [`TraceDetail::Full`] — the gate for the
    /// innermost per-activity / per-local-function spans, which coarse
    /// tracing skips.
    #[inline]
    pub fn fine_tracing(&self) -> bool {
        self.trace
            .as_ref()
            .is_some_and(|t| t.detail() == TraceDetail::Full)
    }

    /// Open a span. No-op unless tracing is enabled.
    pub fn span_start(&mut self, component: Component, name: impl Into<SpanName>) {
        let now_us = self.now_us;
        if let Some(trace) = self.trace.as_mut() {
            trace.span_start(component, name.into(), now_us);
        }
    }

    /// Close the innermost open span. No-op unless tracing is enabled.
    pub fn span_end(&mut self) {
        let now_us = self.now_us;
        if let Some(trace) = self.trace.as_mut() {
            trace.span_end(now_us);
        }
    }

    /// Add `value` to counter `name` on the innermost open span. No-op
    /// unless tracing is enabled.
    pub fn span_counter(&mut self, name: &'static str, value: u64) {
        if let Some(trace) = self.trace.as_mut() {
            trace.add_counter(name, value);
        }
    }

    /// Attach an externally built span (typically a leaf assembled by a
    /// streaming executor) under the innermost open span. No-op unless
    /// tracing is enabled.
    pub fn span_leaf(&mut self, node: TraceNode) {
        if let Some(trace) = self.trace.as_mut() {
            trace.attach(node);
        }
    }

    /// Stop tracing and return the recorded span tree, if any. Open spans
    /// are closed at the current virtual time.
    pub fn finish_trace(&mut self) -> Option<TraceNode> {
        let now_us = self.now_us;
        self.trace.take().map(|trace| trace.finish(now_us))
    }

    /// Record that an executor buffered `rows` rows (`bytes` approximate
    /// bytes) in a pipeline-breaking materialization: a scanned or build
    /// table pulled into memory, a per-step intermediate, a sort buffer.
    /// Streaming executors that pass bounded batches downstream do *not*
    /// tally those batches, which is what makes the counter a measure of
    /// memory movement rather than of rows processed.
    pub fn tally_materialized(&mut self, rows: u64, bytes: u64) {
        self.rows_materialized += rows;
        self.bytes_materialized += bytes;
    }

    /// Total rows buffered at pipeline breakers on this branch (including
    /// joined children).
    pub fn rows_materialized(&self) -> u64 {
        self.rows_materialized
    }

    /// Approximate bytes buffered at pipeline breakers on this branch
    /// (including joined children).
    pub fn bytes_materialized(&self) -> u64 {
        self.bytes_materialized
    }

    /// Reassemble a meter from its observable parts — the inverse of
    /// reading `now_us()` / `charges()` / the materialization counters.
    /// Used by the wire protocol to reconstruct an [`Outcome`]'s meter on
    /// the client side of a network call: the charge log, clock and
    /// counters round-trip exactly, so virtual-time accounting is
    /// transport-independent. The rebuilt meter starts its origin at zero
    /// and is not tracing (the span tree travels separately).
    ///
    /// [`Outcome`]: https://docs.rs/fedwf-core
    pub fn from_parts(
        now_us: u64,
        charges: Vec<Charge>,
        rows_materialized: u64,
        bytes_materialized: u64,
    ) -> Meter {
        Meter {
            now_us,
            origin_us: 0,
            charges,
            rows_materialized,
            bytes_materialized,
            trace: None,
        }
    }

    /// A meter whose branch begins at an arbitrary virtual time — used by
    /// schedulers that compute a node's start as the max over its
    /// predecessors' completion times.
    pub fn starting_at(start_us: u64) -> Meter {
        Meter {
            now_us: start_us,
            origin_us: start_us,
            ..Meter::default()
        }
    }

    /// Fork a child meter starting at this branch's current time. Children
    /// of a tracing parent trace too, into their own buffer; `join` folds
    /// the child spans back under the parent's innermost open span.
    pub fn fork(&self) -> Meter {
        Meter {
            now_us: self.now_us,
            origin_us: self.now_us,
            trace: self.trace.as_ref().map(|t| Box::new(t.new_like())),
            ..Meter::default()
        }
    }

    /// Join child meters back: the parent's clock advances to the latest
    /// child, all child charges are appended to the parent log, and
    /// materialization counters are summed in.
    ///
    /// Tracing: a traced child's spans are reparented under the parent's
    /// innermost open span. A child with tracing *off* joining a traced
    /// parent books its charges into that open span instead — its work
    /// happened inside the parent span, and recording it here keeps the
    /// trace-derived component breakdown equal to the charge log without
    /// forcing every branch meter to allocate a span buffer (coarse-detail
    /// navigation runs its per-activity branches untraced for exactly this
    /// reason).
    pub fn join(&mut self, children: Vec<Meter>) {
        for child in children {
            self.now_us = self.now_us.max(child.now_us);
            match child.trace {
                Some(child_trace) => {
                    if let Some(trace) = self.trace.as_mut() {
                        trace.absorb(*child_trace, child.now_us);
                    }
                }
                None => {
                    if let Some(trace) = self.trace.as_mut() {
                        for c in &child.charges {
                            trace.record_booked(c.component, c.duration_us);
                        }
                    }
                }
            }
            self.charges.extend(child.charges);
            self.rows_materialized += child.rows_materialized;
            self.bytes_materialized += child.bytes_materialized;
        }
    }

    /// All charges booked so far (including merged child charges).
    pub fn charges(&self) -> &[Charge] {
        &self.charges
    }

    /// Drain the meter into its charge log.
    pub fn into_charges(self) -> Vec<Charge> {
        self.charges
    }

    /// Total booked work (the *sum* of all charges — equals elapsed time on
    /// purely sequential paths, exceeds it when branches overlapped).
    pub fn total_booked_us(&self) -> u64 {
        self.charges.iter().map(|c| c.duration_us).sum()
    }
}

/// A shareable, internally synchronized meter handle.
///
/// Executors that thread a meter through iterator trees or across worker
/// threads hold a `MeterHandle`; code that owns a linear branch can use a
/// plain [`Meter`].
#[derive(Debug, Clone, Default)]
pub struct MeterHandle {
    inner: Arc<Mutex<Meter>>,
}

impl MeterHandle {
    pub fn new() -> MeterHandle {
        MeterHandle::default()
    }

    pub fn from_meter(meter: Meter) -> MeterHandle {
        MeterHandle {
            inner: Arc::new(Mutex::new(meter)),
        }
    }

    pub fn charge(&self, component: Component, step: impl Into<SpanName>, duration_us: u64) {
        self.inner
            .lock()
            .expect("meter poisoned")
            .charge(component, step, duration_us);
    }

    pub fn now_us(&self) -> u64 {
        self.inner.lock().expect("meter poisoned").now_us()
    }

    pub fn elapsed_us(&self) -> u64 {
        self.inner.lock().expect("meter poisoned").elapsed_us()
    }

    /// Fork a plain child meter (children are branch-owned, not shared).
    pub fn fork(&self) -> Meter {
        self.inner.lock().expect("meter poisoned").fork()
    }

    pub fn join(&self, children: Vec<Meter>) {
        self.inner.lock().expect("meter poisoned").join(children);
    }

    /// Snapshot of the charge log.
    pub fn charges(&self) -> Vec<Charge> {
        self.inner
            .lock()
            .expect("meter poisoned")
            .charges()
            .to_vec()
    }

    pub fn total_booked_us(&self) -> u64 {
        self.inner.lock().expect("meter poisoned").total_booked_us()
    }

    pub fn tally_materialized(&self, rows: u64, bytes: u64) {
        self.inner
            .lock()
            .expect("meter poisoned")
            .tally_materialized(rows, bytes);
    }

    pub fn rows_materialized(&self) -> u64 {
        self.inner
            .lock()
            .expect("meter poisoned")
            .rows_materialized()
    }

    pub fn bytes_materialized(&self) -> u64 {
        self.inner
            .lock()
            .expect("meter poisoned")
            .bytes_materialized()
    }

    /// Extract the meter, leaving a fresh one behind.
    pub fn take(&self) -> Meter {
        std::mem::take(&mut *self.inner.lock().expect("meter poisoned"))
    }

    pub fn set_tracing(&self, enabled: bool) {
        self.inner
            .lock()
            .expect("meter poisoned")
            .set_tracing(enabled);
    }

    pub fn tracing(&self) -> bool {
        self.inner.lock().expect("meter poisoned").tracing()
    }

    pub fn set_wall_sampling(&self, on: bool) {
        self.inner
            .lock()
            .expect("meter poisoned")
            .set_wall_sampling(on);
    }

    pub fn wall_sampling(&self) -> bool {
        self.inner.lock().expect("meter poisoned").wall_sampling()
    }

    pub fn set_trace_detail(&self, detail: TraceDetail) {
        self.inner
            .lock()
            .expect("meter poisoned")
            .set_trace_detail(detail);
    }

    pub fn trace_detail(&self) -> TraceDetail {
        self.inner.lock().expect("meter poisoned").trace_detail()
    }

    pub fn fine_tracing(&self) -> bool {
        self.inner.lock().expect("meter poisoned").fine_tracing()
    }

    pub fn span_start(&self, component: Component, name: impl Into<SpanName>) {
        self.inner
            .lock()
            .expect("meter poisoned")
            .span_start(component, name);
    }

    pub fn span_end(&self) {
        self.inner.lock().expect("meter poisoned").span_end();
    }

    pub fn span_counter(&self, name: &'static str, value: u64) {
        self.inner
            .lock()
            .expect("meter poisoned")
            .span_counter(name, value);
    }

    pub fn span_leaf(&self, node: TraceNode) {
        self.inner.lock().expect("meter poisoned").span_leaf(node);
    }

    pub fn finish_trace(&self) -> Option<TraceNode> {
        self.inner.lock().expect("meter poisoned").finish_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Component;

    #[test]
    fn sequential_charges_accumulate() {
        let mut m = Meter::new();
        m.charge(Component::Udtf, "start", 10);
        m.charge(Component::Rmi, "call", 5);
        assert_eq!(m.now_us(), 15);
        assert_eq!(m.total_booked_us(), 15);
        assert_eq!(m.charges().len(), 2);
        assert_eq!(m.charges()[1].start_us, 10);
    }

    #[test]
    fn join_takes_max_of_branches() {
        let mut m = Meter::new();
        m.charge(Component::WfEngine, "setup", 100);
        let mut a = m.fork();
        let mut b = m.fork();
        a.charge(Component::Activity, "GetQuality", 40);
        b.charge(Component::Activity, "GetReliability", 70);
        m.join(vec![a, b]);
        // Elapsed = 100 + max(40, 70); booked = 100 + 40 + 70.
        assert_eq!(m.now_us(), 170);
        assert_eq!(m.total_booked_us(), 210);
    }

    #[test]
    fn fork_starts_at_parent_time() {
        let mut m = Meter::new();
        m.charge(Component::Udtf, "start", 25);
        let child = m.fork();
        assert_eq!(child.now_us(), 25);
        assert_eq!(child.elapsed_us(), 0);
    }

    #[test]
    fn nested_fork_join() {
        let mut m = Meter::new();
        let mut outer_a = m.fork();
        {
            let mut inner1 = outer_a.fork();
            let mut inner2 = outer_a.fork();
            inner1.charge(Component::Activity, "x", 10);
            inner2.charge(Component::Activity, "y", 30);
            outer_a.join(vec![inner1, inner2]);
        }
        let mut outer_b = m.fork();
        outer_b.charge(Component::Activity, "z", 20);
        m.join(vec![outer_a, outer_b]);
        assert_eq!(m.now_us(), 30);
    }

    #[test]
    fn join_with_idle_branch_keeps_parent_time() {
        let mut m = Meter::new();
        m.charge(Component::Udtf, "s", 50);
        let idle = m.fork();
        m.join(vec![idle]);
        assert_eq!(m.now_us(), 50);
    }

    #[test]
    fn handle_shares_state() {
        let h = MeterHandle::new();
        let h2 = h.clone();
        h.charge(Component::Controller, "dispatch", 3);
        h2.charge(Component::Controller, "dispatch", 4);
        assert_eq!(h.now_us(), 7);
        assert_eq!(h.charges().len(), 2);
    }

    #[test]
    fn join_merges_materialization_counters() {
        let mut m = Meter::new();
        m.tally_materialized(10, 800);
        let mut a = m.fork();
        assert_eq!(a.rows_materialized(), 0, "fork starts with fresh counters");
        a.tally_materialized(5, 100);
        m.join(vec![a]);
        assert_eq!(m.rows_materialized(), 15);
        assert_eq!(m.bytes_materialized(), 900);
    }

    #[test]
    fn handle_take_resets() {
        let h = MeterHandle::new();
        h.charge(Component::Udtf, "s", 9);
        let m = h.take();
        assert_eq!(m.now_us(), 9);
        assert_eq!(h.now_us(), 0);
    }

    #[test]
    fn tracing_books_charges_into_open_spans_without_touching_the_clock() {
        let mut traced = Meter::new();
        traced.set_tracing(true);
        traced.span_start(Component::Fdbs, "query");
        traced.charge(Component::Fdbs, "Compile execution plan", 25_000);
        traced.span_start(Component::Udtf, "udtf F");
        traced.charge(Component::Udtf, "Prepare A-UDTF", 1_000);
        traced.span_end();
        traced.span_end();

        let mut plain = Meter::new();
        plain.charge(Component::Fdbs, "Compile execution plan", 25_000);
        plain.charge(Component::Udtf, "Prepare A-UDTF", 1_000);

        assert_eq!(traced.now_us(), plain.now_us());
        assert_eq!(traced.charges(), plain.charges());

        let root = traced.finish_trace().expect("trace recorded");
        assert_eq!(root.name, "query");
        assert_eq!(root.self_booked_us(), 25_000);
        assert_eq!(root.children[0].self_booked_us(), 1_000);
        assert_eq!(root.elapsed_us(), 26_000);
    }

    #[test]
    fn untraced_meter_records_no_spans() {
        let mut m = Meter::new();
        m.span_start(Component::Fdbs, "query");
        m.charge(Component::Fdbs, "x", 10);
        m.span_end();
        assert!(m.finish_trace().is_none());
        assert_eq!(m.now_us(), 10);
    }

    #[test]
    fn fork_inherits_tracing_and_join_reparents_child_spans() {
        let mut m = Meter::new();
        m.set_tracing(true);
        m.span_start(Component::WfEngine, "process");
        let mut a = m.fork();
        assert!(a.tracing(), "fork of a tracing meter traces");
        a.span_start(Component::Activity, "activity A");
        a.charge(Component::Activity, "Process activities", 40);
        a.span_end();
        let mut b = m.fork();
        b.span_start(Component::Activity, "activity B");
        b.charge(Component::Activity, "Process activities", 70);
        b.span_end();
        m.join(vec![a, b]);
        m.span_end();

        let root = m.finish_trace().expect("trace recorded");
        assert_eq!(root.name, "process");
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_ref()).collect();
        assert_eq!(names, ["activity A", "activity B"]);
        assert_eq!(root.elapsed_us(), 70);
    }

    #[test]
    fn fork_of_untraced_meter_stays_untraced() {
        let m = Meter::new();
        let mut child = m.fork();
        assert!(!child.tracing());
        child.span_start(Component::Activity, "a");
        child.span_end();
        assert!(child.finish_trace().is_none());
    }
}
