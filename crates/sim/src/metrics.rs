//! Process-wide metrics: named counters, gauges and log-linear histograms
//! with a lock-free hot path and a plain-text exposition format.
//!
//! Registration (name → instrument) takes the registry's write lock once;
//! later lookups of the same name share its read lock, and the handle
//! returned is an `Arc` of atomics, so recording is a single `fetch_add` —
//! no lock, no allocation. The serving layers go one step further and hold
//! their request-path handles as fields, so sixteen concurrent callers
//! bumping `front.completed` never touch the registry map at all.
//!
//! Histograms are **log-linear** (4 linear sub-buckets per power of two,
//! 256 buckets total): constant memory, constant-time record, and quantile
//! estimates whose relative error is bounded by the sub-bucket width —
//! unlike the exact-sample [`LatencyHistogram`](crate::wall::LatencyHistogram)
//! the throughput harness uses, these never grow with the observation count
//! and can run unbounded in a server.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use fedwf_types::sync::RwLock;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down (queue depth).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// 4 linear sub-buckets per power of two.
const SUB_BITS: u32 = 2;
const SUB: u32 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

/// A log-linear histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

#[derive(Debug)]
struct HistogramCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Bucket index for a value: values below `SUB` get their own buckets;
/// above, the top [`SUB_BITS`] bits after the leading one select a linear
/// sub-bucket within the value's power-of-two octave.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & ((SUB - 1) as u64)) as usize;
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS as usize) + sub
}

/// Inclusive upper bound of a bucket (the value reported for quantiles).
fn bucket_bound(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let octave = (index >> SUB_BITS as usize) as u32 + SUB_BITS - 1;
    let sub = (index & ((SUB - 1) as usize)) as u128;
    let bound = (1u128 << octave) + ((sub + 1) << (octave - SUB_BITS)) - 1;
    bound.min(u64::MAX as u128) as u64
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramCells {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    pub fn record(&self, value: u64) {
        let cells = &*self.0;
        cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
        cells.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Estimated quantile (`0.0..=1.0`): the upper bound of the bucket the
    /// rank falls into, capped at the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound(i).min(self.max());
            }
        }
        self.max()
    }
}

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named-instrument registry. Cheap to clone (shared behind an `Arc`
/// internally it is not — hold it in an `Arc` yourself or clone handles).
#[derive(Default)]
pub struct MetricsRegistry {
    instruments: RwLock<BTreeMap<String, Instrument>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or register a counter. Panics if `name` is already registered
    /// as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.lookup(name, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.lookup(name, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// Get or register a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.lookup(name, || Instrument::Histogram(Histogram::default())) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// The instrument registered under `name`, registering `make()` on
    /// first use. A hit is a shared-lock map lookup; only the first
    /// registration takes the write lock and allocates the name.
    fn lookup(&self, name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        if let Some(found) = self.instruments.read().get(name) {
            return found.clone();
        }
        self.instruments
            .write()
            .entry(name.to_string())
            .or_insert_with(make)
            .clone()
    }

    /// Point-in-time snapshot of every scalar reading (counters, gauges,
    /// and per-histogram `count`/`sum`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.instruments.read();
        let mut values = BTreeMap::new();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => {
                    values.insert(name.clone(), c.get() as i64);
                }
                Instrument::Gauge(g) => {
                    values.insert(name.clone(), g.get());
                }
                Instrument::Histogram(h) => {
                    values.insert(format!("{name}.count"), h.count() as i64);
                    values.insert(format!("{name}.sum"), h.sum() as i64);
                }
            }
        }
        MetricsSnapshot { values }
    }

    /// Plain-text exposition: one `name value` line per reading, sorted by
    /// name; histograms expose count/sum/mean/p50/p95/p99/max.
    pub fn render_text(&self) -> String {
        let map = self.instruments.read();
        let mut out = String::new();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Instrument::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Instrument::Histogram(h) => {
                    out.push_str(&format!("{name}.count {}\n", h.count()));
                    out.push_str(&format!("{name}.sum {}\n", h.sum()));
                    out.push_str(&format!("{name}.mean {:.1}\n", h.mean()));
                    out.push_str(&format!("{name}.p50 {}\n", h.quantile(0.50)));
                    out.push_str(&format!("{name}.p95 {}\n", h.quantile(0.95)));
                    out.push_str(&format!("{name}.p99 {}\n", h.quantile(0.99)));
                    out.push_str(&format!("{name}.max {}\n", h.max()));
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("instruments", &self.instruments.read().len())
            .finish()
    }
}

/// Scalar readings at one instant; subtract two snapshots for a delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, i64>,
}

impl MetricsSnapshot {
    /// Reassemble a snapshot from `(name, value)` readings — the inverse
    /// of [`MetricsSnapshot::iter`], used by the wire protocol to carry a
    /// server-side metrics delta back to a network client.
    pub fn from_entries(entries: impl IntoIterator<Item = (String, i64)>) -> MetricsSnapshot {
        MetricsSnapshot {
            values: entries.into_iter().collect(),
        }
    }

    pub fn get(&self, name: &str) -> Option<i64> {
        self.values.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Readings that changed since `earlier` (as `now - earlier`).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut values = BTreeMap::new();
        for (name, now) in &self.values {
            let before = earlier.values.get(name).copied().unwrap_or(0);
            if now - before != 0 {
                values.insert(name.clone(), now - before);
            }
        }
        MetricsSnapshot { values }
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("server.calls");
        let b = reg.counter("server.calls");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("server.calls").get(), 3);
    }

    #[test]
    fn gauges_go_up_and_down() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("front.queue_depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_are_monotonic() {
        // Bucket index must be non-decreasing in the value and bounds must
        // bracket their bucket.
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1000, 65_535, 1 << 40] {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            assert!(bucket_bound(i) >= v, "bound {} < {v}", bucket_bound(i));
            last = i;
        }
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.quantile(0.5);
        // Log-linear with 4 sub-buckets: relative error bounded by 25%.
        assert!((375..=640).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn snapshot_delta_reports_changes_only() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a");
        let _ = reg.counter("b");
        let before = reg.snapshot();
        c.add(5);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.get("a"), Some(5));
        assert_eq!(delta.get("b"), None);
        assert_eq!(delta.iter().count(), 1);
    }

    #[test]
    fn render_text_lists_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("front.shed").add(7);
        reg.gauge("front.queue_depth").set(3);
        reg.histogram("front.latency_us").record(42);
        let text = reg.render_text();
        assert!(text.contains("front.shed 7"));
        assert!(text.contains("front.queue_depth 3"));
        assert!(text.contains("front.latency_us.count 1"));
        assert!(text.contains("front.latency_us.p50 "));
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.gauge("x");
        let _ = reg.counter("x");
    }
}
