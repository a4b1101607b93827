//! Small helpers: order statistics, process counters from `/proc`, a
//! minimal JSON writer and the provenance of a run.

use std::fmt::Write as _;

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`); the
/// sample is sorted in place. `None` for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Process user + system CPU time in microseconds, from `/proc/self/stat`
/// (fields 14 and 15, in the fixed 100 Hz `USER_HZ` of the proc ABI).
pub fn process_cpu_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000)
}

/// Time the hypervisor ran something else while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`), in 10 ms ticks, summed over
/// CPUs.
pub fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines()
        .find(|l| l.starts_with("cpu "))?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

/// A memory figure of `/proc/self/status` in MiB: `VmHWM` (peak resident
/// set size) or `VmRSS` (current).
pub fn rss_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit the checkout was built from, read from `.git` in the working
/// directory without running git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A metric value as printed: name → (value, unit).
pub type Metric = (String, f64, &'static str);

/// `{"a": {"value": 1.0, "unit": "ms"}, ...}` in insertion order.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(name),
            number(*value),
            escape(unit)
        );
    }
    out.push('}');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) print as -1.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A fixed-size log-linear histogram of nanosecond latencies: exact below
/// 128 ns, then 64 buckets per power of two (relative width under 1.6 %).
/// Its memory does not grow with the number of requests, so the peak RSS
/// of a run does not depend on how many requests it completed.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Largest recorded value: 2^41 ns (about 36 minutes); larger values clamp.
const MAX_EXP: u32 = 41;

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; Hist::index(u64::MAX) + 1],
            n: 0,
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let exp = (63 - ns.leading_zeros()).min(MAX_EXP);
        let mantissa = if exp == MAX_EXP && ns >> exp > 1 {
            2 * SUB - 1
        } else {
            ns >> (exp - SUB_BITS)
        };
        (2 * SUB + u64::from(exp - SUB_BITS - 1) * SUB + (mantissa - SUB)) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < 2 * SUB {
            return (i as f64, 1.0);
        }
        let exp = (i - 2 * SUB) / SUB + u64::from(SUB_BITS) + 1;
        let mantissa = (i - 2 * SUB) % SUB + SUB;
        let width = 1u64 << (exp - u64::from(SUB_BITS));
        ((mantissa * width) as f64, width as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Hist::index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank quantile in microseconds, interpolated inside its
    /// bucket; `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + u64::from(c) >= rank {
                let (lo, width) = Hist::bucket(i);
                if width <= 1.0 {
                    return Some(lo / 1_000.0);
                }
                let within = (rank - seen) as f64 - 0.5;
                return Some((lo + width * within / f64::from(c)) / 1_000.0);
            }
            seen += u64::from(c);
        }
        unreachable!("rank is at most the count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), Some(3.0));
        assert_eq!(quantile(&mut v, 0.99), Some(5.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn json_metrics_render() {
        let m = vec![("p50_us".to_string(), 1.5, "us")];
        assert_eq!(
            metrics_json(&m),
            "{\"p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}"
        );
        assert_eq!(escape("a\"b\n"), "a\\\"b\\u000a");
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Hist::default();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        let p50 = h.quantile_us(0.5).unwrap();
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "{p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.02, "{p99}");
        assert_eq!(h.count(), 100_000);
        let mut small = Hist::default();
        small.record(42);
        assert_eq!(small.quantile_us(0.5), Some(0.042));
        small.record(u64::MAX);
        assert!(small.quantile_us(1.0).unwrap() > 1e9);
        assert_eq!(Hist::default().quantile_us(0.5), None);
    }
}
