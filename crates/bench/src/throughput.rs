//! Multi-client throughput measurement of the serving layer.
//!
//! Everything else in this crate measures *virtual* time — the paper's
//! question. This module measures the reproduction itself: how many calls
//! per second a [`ServerFront`] sustains as real client threads are added,
//! and what the wall-clock latency distribution looks like. It is the
//! library half of the `throughput` bench and the `report` binary's
//! throughput section.

use std::sync::Arc;
use std::time::Duration;

use fedwf_core::paper_functions;
use fedwf_core::{
    ArchitectureKind, FrontConfig, IntegrationConfig, IntegrationServer, Request, ServerFront,
    Submit,
};
use fedwf_sim::{LatencyHistogram, WallClock};
use fedwf_types::sync::Mutex;
use fedwf_types::Value;

use crate::experiments::args_for;

/// One throughput run: a fixed client count hammering one federated
/// function through a [`ServerFront`].
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    pub architecture: ArchitectureKind,
    /// Number of client threads issuing calls.
    pub clients: usize,
    /// Calls each client issues (sequentially, one outstanding call per
    /// client — the closed-loop model).
    pub calls_per_client: usize,
    /// Calls the front executes at once.
    pub workers: usize,
    /// Admission-queue depth. At least `clients` avoids shedding in the
    /// closed-loop model (each client has one job outstanding at most).
    pub queue_depth: usize,
    /// Per-call deadline.
    pub deadline: Duration,
    /// Enable the wrapper's federated-function result cache.
    pub result_cache: bool,
}

impl ThroughputConfig {
    /// A run against the given architecture with `clients` closed-loop
    /// clients: as many workers as clients, a queue deep enough never to
    /// shed, warm result cache off.
    pub fn closed_loop(architecture: ArchitectureKind, clients: usize) -> ThroughputConfig {
        ThroughputConfig {
            architecture,
            clients,
            calls_per_client: 50,
            workers: clients,
            queue_depth: clients.max(1) * 2,
            deadline: Duration::from_secs(30),
            result_cache: false,
        }
    }

    pub fn with_calls_per_client(mut self, calls: usize) -> Self {
        self.calls_per_client = calls;
        self
    }

    pub fn with_result_cache(mut self, on: bool) -> Self {
        self.result_cache = on;
        self
    }
}

/// The outcome of one closed-loop run: E12's throughput rows and E19's
/// per-transport rows.
#[derive(Debug, Clone)]
pub struct ThroughputSummary {
    /// What the row measures: the architecture name (E12) or the
    /// transport, `"in-process"` or `"loopback-tcp"` (E19).
    pub label: &'static str,
    /// Concurrent client threads (over TCP: concurrent connections — the
    /// client pool grows to one connection per thread).
    pub clients: usize,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Successful calls per wall-clock second.
    pub qps: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub mean_us: u64,
    /// Calls that returned a table.
    pub ok: usize,
    /// Calls shed at admission ([`fedwf_types::FedError::is_overloaded`]).
    pub shed: usize,
    /// Calls whose deadline expired.
    pub timed_out: usize,
    /// Calls failing for any other reason (must be 0 in a healthy run).
    pub failed: usize,
}

impl ThroughputSummary {
    /// Table row: `arch clients qps p50 p95 p99 ok shed timeout`.
    pub fn render_row(&self) -> String {
        format!(
            "{:<28} {:>7} {:>9.0} {:>9} {:>9} {:>9} {:>6} {:>5} {:>7}",
            self.label,
            self.clients,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.ok,
            self.shed,
            self.timed_out
        )
    }

    /// Header matching [`ThroughputSummary::render_row`].
    pub fn render_header() -> String {
        format!(
            "{:<28} {:>7} {:>9} {:>9} {:>9} {:>9} {:>6} {:>5} {:>7}",
            "architecture",
            "clients",
            "qps",
            "p50(us)",
            "p95(us)",
            "p99(us)",
            "ok",
            "shed",
            "timeout"
        )
    }

    /// E19's row: `transport clients qps p50 p95 p99 ok failed`, where
    /// `failed` counts every call that did not return a table.
    pub fn render_transport_row(&self) -> String {
        format!(
            "{:<14} {:>7} {:>9.0} {:>9} {:>9} {:>9} {:>6} {:>6}",
            self.label,
            self.clients,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.ok,
            self.shed + self.timed_out + self.failed
        )
    }

    /// Header matching [`ThroughputSummary::render_transport_row`].
    pub fn render_transport_header() -> String {
        format!(
            "{:<14} {:>7} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6}",
            "transport", "clients", "qps", "p50(us)", "p95(us)", "p99(us)", "ok", "failed"
        )
    }
}

/// Drive `clients` closed-loop threads through any [`Submit`], each
/// issuing `calls_per_client` warm `GetSuppQual(args)` calls back to back
/// (one outstanding call per client). Per-call wall latency of the
/// successful calls lands in a per-client histogram, merged afterwards;
/// the other calls are counted by kind.
pub fn run_closed_loop(
    submit: &(impl Submit + Sync),
    label: &'static str,
    clients: usize,
    calls_per_client: usize,
    args: &[Value],
) -> ThroughputSummary {
    let merged = Mutex::new(LatencyHistogram::new());
    let counts = Mutex::new((0usize, 0usize, 0usize, 0usize)); // ok, shed, timeout, failed
    let clock = WallClock::start();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let merged = &merged;
            let counts = &counts;
            scope.spawn(move || {
                let mut hist = LatencyHistogram::new();
                let (mut ok, mut shed, mut timeout, mut failed) = (0, 0, 0, 0);
                for _ in 0..calls_per_client {
                    let call_clock = WallClock::start();
                    match submit.submit(Request::function("GetSuppQual").params(args)) {
                        Ok(_) => {
                            hist.record_us(call_clock.elapsed_us());
                            ok += 1;
                        }
                        Err(e) if e.is_overloaded() => shed += 1,
                        Err(e) if e.is_timeout() => timeout += 1,
                        Err(_) => failed += 1,
                    }
                }
                merged.lock().merge(&hist);
                let mut c = counts.lock();
                c.0 += ok;
                c.1 += shed;
                c.2 += timeout;
                c.3 += failed;
            });
        }
    });
    let elapsed = clock.elapsed();
    let mut hist = merged.into_inner();
    let (ok, shed, timed_out, failed) = counts.into_inner();
    ThroughputSummary {
        label,
        clients,
        elapsed,
        qps: hist.qps(elapsed),
        p50_us: hist.p50_us(),
        p95_us: hist.p95_us(),
        p99_us: hist.p99_us(),
        mean_us: hist.mean_us(),
        ok,
        shed,
        timed_out,
        failed,
    }
}

/// Build a booted server for the run. `GetSuppQual` is the workload: a
/// read-only, linearly dependent two-call function — the paper's running
/// example of a "simple" composition.
fn throughput_server(cfg: &ThroughputConfig) -> Arc<IntegrationServer> {
    let config = IntegrationConfig {
        result_cache: cfg.result_cache,
        ..IntegrationConfig::default().with_architecture(cfg.architecture)
    };
    let server = Arc::new(IntegrationServer::new(config).expect("default scenario always builds"));
    server.boot();
    server
        .deploy(&paper_functions::get_supp_qual())
        .expect("GetSuppQual deploys on every architecture");
    server
}

/// Run one closed-loop throughput measurement through a [`ServerFront`]
/// ([`run_closed_loop`]). One warm-up call happens before the clock
/// starts, so boots and cold caches are excluded — this measures the
/// steady state the lock refactor targets.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputSummary {
    let server = throughput_server(cfg);
    let args = args_for(server.scenario(), &paper_functions::get_supp_qual());
    let front = ServerFront::start(
        Arc::clone(&server),
        FrontConfig::default()
            .with_workers(cfg.workers)
            .with_queue_depth(cfg.queue_depth)
            .with_default_deadline(cfg.deadline),
    );
    // Warm up: boots, plan cache, template cache (and result cache if on).
    front
        .execute(Request::function("GetSuppQual").params(args.as_slice()))
        .expect("warm-up call succeeds");
    run_closed_loop(
        &front,
        cfg.architecture.name(),
        cfg.clients,
        cfg.calls_per_client,
        &args,
    )
}

/// The standard client-count ladder of the harness.
pub const CLIENT_LADDER: [usize; 5] = [1, 2, 4, 8, 16];

/// Run the ladder for one architecture.
pub fn ladder(architecture: ArchitectureKind, calls_per_client: usize) -> Vec<ThroughputSummary> {
    CLIENT_LADDER
        .iter()
        .map(|&clients| {
            run_throughput(
                &ThroughputConfig::closed_loop(architecture, clients)
                    .with_calls_per_client(calls_per_client),
            )
        })
        .collect()
}

/// Soak the front: an over-committed client count against a small worker
/// pool and a shallow queue, so shedding and deadline handling are
/// genuinely exercised. Panics (and thereby fails the harness) if any call
/// fails for a reason other than the two typed degradations.
pub fn soak(
    architecture: ArchitectureKind,
    clients: usize,
    calls_per_client: usize,
) -> ThroughputSummary {
    let cfg = ThroughputConfig {
        architecture,
        clients,
        calls_per_client,
        workers: 2,
        queue_depth: 2,
        deadline: Duration::from_secs(30),
        result_cache: false,
    };
    let summary = run_throughput(&cfg);
    assert_eq!(
        summary.failed, 0,
        "soak produced non-overload, non-timeout failures"
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_run_completes_every_call() {
        let cfg =
            ThroughputConfig::closed_loop(ArchitectureKind::SqlUdtf, 1).with_calls_per_client(5);
        let s = run_throughput(&cfg);
        assert_eq!(s.ok, 5);
        assert_eq!(s.shed + s.timed_out + s.failed, 0);
        assert!(s.qps > 0.0);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us);
    }

    #[test]
    fn closed_loop_never_sheds() {
        let cfg = ThroughputConfig::closed_loop(ArchitectureKind::Wfms, 4).with_calls_per_client(5);
        let s = run_throughput(&cfg);
        assert_eq!(s.ok, 20);
        assert_eq!(s.shed, 0, "queue_depth >= clients must not shed");
    }

    #[test]
    fn soak_survives_overcommit() {
        let s = soak(ArchitectureKind::Wfms, 16, 3);
        assert_eq!(s.ok + s.shed + s.timed_out, 16 * 3);
        assert_eq!(s.failed, 0);
    }
}
