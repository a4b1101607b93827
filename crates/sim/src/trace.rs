//! Hierarchical execution traces: the span tree behind `EXPLAIN ANALYZE`
//! and the `Request`/`Outcome` observability surface.
//!
//! A [`TraceNode`] is one span: a named piece of work attributed to a
//! [`Component`], with its *virtual* start/end time (the [`Meter`] clock),
//! the *wall-clock* nanoseconds the span really took, free-form counters
//! (rows, batches, bytes) and child spans. One federated call produces one
//! tree whose structure mirrors the layer stack of the paper's Fig. 2 —
//! FDBS query → SQL/MED wrapper → controller → WfMS navigator → activities
//! → local functions — so the Fig. 6 component breakdown can be *derived*
//! from the tree instead of reconstructed from a flat charge log.
//!
//! Both clocks are recorded on purpose: the virtual clock carries the
//! paper-calibrated costs (boots, RMI hops, JVM starts) that make the 2001
//! shapes reproducible, while the wall clock is what the trace-overhead
//! bench and any real profiling need. Neither can stand in for the other.
//! Wall sampling is *opt-in* per trace (`Meter::set_wall_sampling`):
//! reading `Instant::now` twice per span is the dominant cost of tracing,
//! so ordinary traced requests record the virtual clock only and
//! `EXPLAIN ANALYZE` switches real time on for its actuals.
//!
//! Spans never advance the virtual clock themselves — enabling tracing adds
//! **zero** [`Meter`] charges, so traced and untraced runs are virtual-time
//! identical. Instead, every charge booked while a span is open is added to
//! that span's [`TraceNode::booked`] vector *under the charge's own
//! component* (a span labelled `Udtf` may legitimately book `Controller`
//! time — the A-UDTF's prepare sequence does exactly that). Summing
//! `booked` over the whole tree therefore reproduces the charge log's
//! component totals exactly; see [`TraceNode::by_component`].
//!
//! [`Meter`]: crate::Meter

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::ops::Deref;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::breakdown::{Breakdown, BreakdownLine};
use crate::cost::Component;

/// How much of the span hierarchy to record when tracing is on.
///
/// [`Full`](TraceDetail::Full) (the default) records every span the
/// instrumentation emits, down to per-activity and per-local-function
/// children — the shape `EXPLAIN ANALYZE` and the golden-trace tests rely
/// on. [`Coarse`](TraceDetail::Coarse) skips those innermost per-call
/// spans: the WfMS path of the Fig. 5 workload opens ~40 of them per
/// request, and opening/closing them is most of tracing's wall cost, so
/// always-on production tracing can keep the request/engine/process level
/// at a fraction of the overhead. Charges booked where a skipped span
/// would have been still land in the nearest recorded ancestor, so
/// component breakdowns stay exact at either detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceDetail {
    /// Record request/engine/process spans but skip per-activity and
    /// per-local-function children.
    Coarse,
    /// Record every span (default).
    #[default]
    Full,
}

/// A span name: either a static string (hot-path spans like
/// `fdbs.execute` never allocate) or a shared formatted string (dynamic
/// names like `activity GetQuality`, interned once in a [`SpanNameCache`]
/// and then cloned by reference count — formatting a name on every span
/// open is the single largest cost of tracing after wall sampling).
#[derive(Debug, Clone)]
pub enum SpanName {
    Static(&'static str),
    Shared(Arc<str>),
}

/// Equality is by string content, not representation — a name decoded
/// from the wire (always `Shared`) compares equal to the `Static` name
/// the server recorded.
impl PartialEq for SpanName {
    #[inline]
    fn eq(&self, other: &SpanName) -> bool {
        let (a, b): (&str, &str) = (self, other);
        std::ptr::eq(a, b) || a == b
    }
}

impl Eq for SpanName {}

impl Deref for SpanName {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        match self {
            SpanName::Static(s) => s,
            SpanName::Shared(s) => s,
        }
    }
}

impl PartialEq<str> for SpanName {
    fn eq(&self, other: &str) -> bool {
        &**self == other
    }
}

impl PartialEq<&str> for SpanName {
    fn eq(&self, other: &&str) -> bool {
        &**self == *other
    }
}

impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl From<&'static str> for SpanName {
    fn from(s: &'static str) -> SpanName {
        SpanName::Static(s)
    }
}

impl From<String> for SpanName {
    fn from(s: String) -> SpanName {
        SpanName::Shared(Arc::from(s))
    }
}

impl From<Cow<'static, str>> for SpanName {
    fn from(s: Cow<'static, str>) -> SpanName {
        match s {
            Cow::Borrowed(s) => SpanName::Static(s),
            Cow::Owned(s) => SpanName::Shared(Arc::from(s)),
        }
    }
}

/// Interns formatted span names keyed by a cheap identifier, so a hot
/// call path formats each dynamic name once per deployment instead of
/// once per span. Embed one in a long-lived struct (an engine, a
/// catalog) and call [`SpanNameCache::get`] where the span opens.
#[derive(Debug, Default)]
pub struct SpanNameCache<K> {
    names: RwLock<HashMap<K, SpanName>>,
}

impl<K: Eq + Hash> SpanNameCache<K> {
    pub fn new() -> SpanNameCache<K> {
        SpanNameCache {
            names: RwLock::new(HashMap::new()),
        }
    }

    /// The interned name for `key`, formatting and caching it on first
    /// use. `own` converts the borrowed lookup key into an owned one and
    /// runs only on a miss.
    pub fn get<Q>(
        &self,
        key: &Q,
        own: impl FnOnce(&Q) -> K,
        make: impl FnOnce() -> String,
    ) -> SpanName
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        if let Some(name) = self.names.read().expect("span names poisoned").get(key) {
            return name.clone();
        }
        let name = SpanName::from(make());
        self.names
            .write()
            .expect("span names poisoned")
            .entry(own(key))
            .or_insert(name)
            .clone()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.read().expect("span names poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Virtual time per [`Component`], stored as a fixed inline array so the
/// hot `charge → record into open span` path is a single indexed add —
/// no allocation, no scan. Iteration yields the non-zero entries in
/// [`Component::ALL`] order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BookedSet([u64; Component::ALL.len()]);

impl BookedSet {
    /// Add booked virtual time under `component`. Public so externally
    /// assembled spans (executor leaves, wire-decoded trace trees) can
    /// reconstruct their booked sets.
    #[inline]
    pub fn add(&mut self, component: Component, duration_us: u64) {
        self.0[component as usize] += duration_us;
    }

    /// Microseconds booked under `component`.
    pub fn get(&self, component: Component) -> u64 {
        self.0[component as usize]
    }

    /// Sum across all components.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&us| us == 0)
    }

    /// Non-zero `(component, micros)` entries in [`Component::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, u64)> + '_ {
        Component::ALL
            .into_iter()
            .map(|c| (c, self.0[c as usize]))
            .filter(|&(_, us)| us != 0)
    }
}

/// One span of a trace tree. See the [module docs](self) for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// Stable span name, e.g. `request GetSuppQual`, `fdbs.execute`,
    /// `op:hash-join`, `activity GetQuality`.
    pub name: SpanName,
    /// The layer this span belongs to (a display label; time attribution
    /// uses [`TraceNode::booked`], which carries per-charge components).
    pub component: Component,
    /// Virtual time when the span opened.
    pub start_us: u64,
    /// Virtual time when the span closed.
    pub end_us: u64,
    /// Real elapsed nanoseconds between open and close.
    pub wall_ns: u64,
    /// Virtual time booked *directly* in this span (not in children),
    /// grouped by the component of each underlying charge.
    pub booked: BookedSet,
    /// Free-form counters (`rows`, `batches`, `bytes`, ...), insertion
    /// ordered. The instrumentation's names are `Static`; a name decoded
    /// from the wire is `Shared` and belongs to the decoded tree.
    pub counters: Vec<(SpanName, u64)>,
    /// Child spans, in completion order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// A closed span with no children — used by executors that attach
    /// per-operator statistics after the pipeline has drained.
    pub fn leaf(component: Component, name: impl Into<SpanName>, start_us: u64) -> TraceNode {
        TraceNode {
            name: name.into(),
            component,
            start_us,
            end_us: start_us,
            wall_ns: 0,
            booked: BookedSet::default(),
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Virtual time between open and close. For post-hoc operator leaves
    /// this is the *accumulated active* virtual time, not a contiguous
    /// interval (streaming operators interleave).
    pub fn elapsed_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Virtual time booked directly in this span, across all components.
    pub fn self_booked_us(&self) -> u64 {
        self.booked.total()
    }

    /// Virtual time booked in this span and all descendants.
    pub fn total_booked_us(&self) -> u64 {
        self.self_booked_us()
            + self
                .children
                .iter()
                .map(TraceNode::total_booked_us)
                .sum::<u64>()
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Add `value` to a counter, creating it when absent.
    pub fn add_counter(&mut self, name: &'static str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((SpanName::Static(name), value)),
        }
    }

    #[inline]
    pub(crate) fn add_booked(&mut self, component: Component, duration_us: u64) {
        self.booked.add(component, duration_us);
    }

    /// Preorder walk over this span and all descendants.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a TraceNode, usize)) {
        self.walk_at(0, f)
    }

    fn walk_at<'a>(&'a self, depth: usize, f: &mut impl FnMut(&'a TraceNode, usize)) {
        f(self, depth);
        for child in &self.children {
            child.walk_at(depth + 1, f);
        }
    }

    /// All spans in preorder.
    pub fn flatten(&self) -> Vec<&TraceNode> {
        let mut out = Vec::new();
        self.walk(&mut |n, _| out.push(n));
        out
    }

    /// First span (preorder) whose name equals `name`.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        self.flatten().into_iter().find(|n| n.name == name)
    }

    /// All spans (preorder) whose name starts with `prefix`.
    pub fn find_all<'a>(&'a self, prefix: &str) -> Vec<&'a TraceNode> {
        self.flatten()
            .into_iter()
            .filter(|n| n.name.starts_with(prefix))
            .collect()
    }

    /// Total booked virtual time per component over the whole tree — the
    /// trace-derived equivalent of grouping the flat charge log by
    /// component tag.
    pub fn by_component(&self) -> BTreeMap<Component, u64> {
        let mut sums = BTreeMap::new();
        self.walk(&mut |n, _| {
            for (c, us) in n.booked.iter() {
                *sums.entry(c).or_insert(0) += us;
            }
        });
        sums
    }

    /// The tree-derived component breakdown in the same shape (ordering,
    /// percentages) as [`Breakdown::by_component`] over the charge log —
    /// the two must agree whenever the span tree covers the whole call.
    pub fn component_breakdown(&self, title: impl Into<String>, elapsed_us: u64) -> Breakdown {
        let sums = self.by_component();
        let lines = Component::ALL
            .iter()
            .filter_map(|comp| {
                sums.get(comp).map(|&micros| BreakdownLine {
                    label: comp.name().to_string(),
                    micros,
                    percent: if elapsed_us == 0 {
                        0.0
                    } else {
                        micros as f64 * 100.0 / elapsed_us as f64
                    },
                })
            })
            .collect();
        Breakdown {
            title: title.into(),
            elapsed_us,
            lines,
        }
    }

    /// Render the tree as an indented text block, one span per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.walk(&mut |n, depth| {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&n.line());
            out.push('\n');
        });
        out
    }

    /// One span as a single line: name, component, virtual interval, booked
    /// time, wall time and counters.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{} [{}] {}..{}us self={}us wall={}ns",
            self.name,
            self.component.name(),
            self.start_us,
            self.end_us,
            self.self_booked_us(),
            self.wall_ns,
        );
        for (name, value) in &self.counters {
            s.push_str(&format!(" {name}={value}"));
        }
        s
    }
}

impl fmt::Display for TraceNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The per-meter trace state: a stack of open spans, the finished roots,
/// and a bucket for charges booked while *no* span was open (a non-empty
/// bucket means the span coverage has a hole).
#[derive(Debug)]
pub(crate) struct TraceBuf {
    /// Innermost open span last; each entry carries its wall-clock start
    /// when wall sampling is on.
    open: Vec<(TraceNode, Option<Instant>)>,
    roots: Vec<TraceNode>,
    orphan_booked: BookedSet,
    /// Sample the wall clock at span open/close. Off by default: two
    /// `Instant::now` reads per span are the single largest cost of
    /// tracing, and most consumers only need the virtual clock. `EXPLAIN
    /// ANALYZE` (and anything else that wants real time per span) switches
    /// it on via `Meter::set_wall_sampling`.
    wall: bool,
    /// How deep the recorded hierarchy goes; see [`TraceDetail`].
    detail: TraceDetail,
}

impl TraceBuf {
    pub(crate) fn new() -> TraceBuf {
        TraceBuf {
            open: Vec::with_capacity(4),
            roots: Vec::new(),
            orphan_booked: BookedSet::default(),
            wall: false,
            detail: TraceDetail::Full,
        }
    }

    pub(crate) fn new_like(&self) -> TraceBuf {
        let mut buf = TraceBuf::new();
        buf.wall = self.wall;
        buf.detail = self.detail;
        buf
    }

    pub(crate) fn set_wall(&mut self, on: bool) {
        self.wall = on;
    }

    pub(crate) fn wall(&self) -> bool {
        self.wall
    }

    pub(crate) fn set_detail(&mut self, detail: TraceDetail) {
        self.detail = detail;
    }

    pub(crate) fn detail(&self) -> TraceDetail {
        self.detail
    }

    pub(crate) fn span_start(&mut self, component: Component, name: SpanName, now_us: u64) {
        let started = self.wall.then(Instant::now);
        self.open
            .push((TraceNode::leaf(component, name, now_us), started));
    }

    pub(crate) fn span_end(&mut self, now_us: u64) {
        let Some((mut node, started)) = self.open.pop() else {
            return; // unbalanced end: ignore rather than poison the trace
        };
        node.end_us = now_us;
        node.wall_ns = started.map_or(0, |s| s.elapsed().as_nanos() as u64);
        self.attach(node);
    }

    /// Attach a finished span under the innermost open span, or as a root.
    pub(crate) fn attach(&mut self, node: TraceNode) {
        match self.open.last_mut() {
            Some((parent, _)) => parent.children.push(node),
            None => self.roots.push(node),
        }
    }

    pub(crate) fn record_booked(&mut self, component: Component, duration_us: u64) {
        match self.open.last_mut() {
            Some((span, _)) => span.add_booked(component, duration_us),
            None => self.orphan_booked.add(component, duration_us),
        }
    }

    pub(crate) fn add_counter(&mut self, name: &'static str, value: u64) {
        if let Some((span, _)) = self.open.last_mut() {
            span.add_counter(name, value);
        }
    }

    /// Close any spans still open (early returns on error paths) at the
    /// given virtual time.
    pub(crate) fn close_all(&mut self, now_us: u64) {
        while !self.open.is_empty() {
            self.span_end(now_us);
        }
    }

    /// Merge a joined child meter's trace: its roots become children of the
    /// innermost open span (or roots), and charges the child booked outside
    /// any span land in our innermost open span (a coarse-detail branch
    /// records no spans of its own but its work still happened inside the
    /// parent span) — or in our orphan bucket when none is open.
    pub(crate) fn absorb(&mut self, mut child: TraceBuf, child_now_us: u64) {
        child.close_all(child_now_us);
        for root in child.roots {
            self.attach(root);
        }
        for (c, us) in child.orphan_booked.iter() {
            self.record_booked(c, us);
        }
    }

    /// Close the trace into a single root. Multiple roots (or orphaned
    /// charges) are wrapped in a synthetic `trace` span so nothing is lost.
    pub(crate) fn finish(mut self, now_us: u64) -> TraceNode {
        self.close_all(now_us);
        if self.roots.len() == 1 && self.orphan_booked.is_empty() {
            return self.roots.pop().expect("one root");
        }
        let start = self
            .roots
            .iter()
            .map(|r| r.start_us)
            .min()
            .unwrap_or(now_us);
        let mut root = TraceNode::leaf(Component::Boot, "trace", start);
        root.end_us = now_us;
        root.booked = self.orphan_booked;
        root.children = self.roots;
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_tree() -> TraceNode {
        let mut buf = TraceBuf::new();
        buf.span_start(Component::Controller, "request".into(), 0);
        buf.record_booked(Component::Boot, 5);
        buf.span_start(Component::Fdbs, "fdbs.execute".into(), 5);
        buf.record_booked(Component::Fdbs, 10);
        buf.add_counter("rows", 3);
        buf.add_counter("rows", 2);
        buf.span_end(20);
        buf.record_booked(Component::Controller, 7);
        buf.span_end(27);
        buf.finish(27)
    }

    #[test]
    fn spans_nest_and_book_per_component() {
        let root = toy_tree();
        assert_eq!(root.name, "request");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "fdbs.execute");
        assert_eq!(root.children[0].counter("rows"), Some(5));
        assert_eq!(root.self_booked_us(), 12); // Boot 5 + Controller 7
        assert_eq!(root.total_booked_us(), 22);
        let by_comp = root.by_component();
        assert_eq!(by_comp[&Component::Fdbs], 10);
        assert_eq!(by_comp[&Component::Controller], 7);
        assert_eq!(by_comp[&Component::Boot], 5);
    }

    #[test]
    fn find_and_flatten_are_preorder() {
        let root = toy_tree();
        let names: Vec<&str> = root.flatten().iter().map(|n| n.name.as_ref()).collect();
        assert_eq!(names, vec!["request", "fdbs.execute"]);
        assert!(root.find("fdbs.execute").is_some());
        assert!(root.find("nope").is_none());
    }

    #[test]
    fn unbalanced_spans_are_closed_at_finish() {
        let mut buf = TraceBuf::new();
        buf.span_start(Component::Fdbs, "a".into(), 0);
        buf.span_start(Component::Fdbs, "b".into(), 1);
        let root = buf.finish(9);
        assert_eq!(root.name, "a");
        assert_eq!(root.end_us, 9);
        assert_eq!(root.children[0].end_us, 9);
    }

    #[test]
    fn orphan_charges_are_kept_on_a_synthetic_root() {
        let mut buf = TraceBuf::new();
        buf.record_booked(Component::Rmi, 4);
        buf.span_start(Component::Fdbs, "q".into(), 4);
        buf.span_end(8);
        let root = buf.finish(8);
        assert_eq!(root.name, "trace");
        assert_eq!(
            root.booked.iter().collect::<Vec<_>>(),
            vec![(Component::Rmi, 4)]
        );
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn component_breakdown_orders_like_the_charge_log_view() {
        let root = toy_tree();
        let b = root.component_breakdown("t", 27);
        let labels: Vec<&str> = b.lines.iter().map(|l| l.label.as_str()).collect();
        // Component::ALL order: Controller before FDBS before Boot.
        assert_eq!(labels, vec!["Controller", "FDBS", "Boot"]);
    }

    #[test]
    fn render_indents_children() {
        let root = toy_tree();
        let text = root.render();
        assert!(text.contains("request [Controller] 0..27us"));
        assert!(text.contains("\n  fdbs.execute [FDBS]"));
        assert!(text.contains("rows=5"));
    }

    #[test]
    fn absorb_merges_child_roots() {
        let mut parent = TraceBuf::new();
        parent.span_start(Component::WfEngine, "process".into(), 0);
        let mut child = TraceBuf::new();
        child.span_start(Component::Activity, "activity A".into(), 0);
        child.record_booked(Component::Activity, 3);
        parent.absorb(child, 3);
        parent.span_end(3);
        let root = parent.finish(3);
        assert_eq!(root.children[0].name, "activity A");
        assert_eq!(root.children[0].end_us, 3);
    }
}
