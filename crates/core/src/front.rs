//! The multi-client serving layer in front of the integration server.
//!
//! The paper benchmarks one federated-function call at a time; a real
//! middle tier (Fig. 2) sits behind many concurrent clients. [`ServerFront`]
//! adds that missing layer: a FIFO *admission gate* in front of a shared
//! [`IntegrationServer`]. Each admitted call runs on the thread that
//! submitted it — a `NetServer` connection thread or an in-process caller —
//! so a request never changes threads between its socket and its reply.
//!
//! Design points, in the order a request meets them:
//!
//! 1. **Admission control.** At most [`FrontConfig::workers`] calls
//!    execute at once and at most [`FrontConfig::queue_depth`] callers
//!    wait for a permit. A call arriving when both are full is *shed*
//!    immediately with [`FedError::overloaded`] — it is never executed, so
//!    the client may safely retry elsewhere.
//! 2. **FIFO hand-off.** A finishing call passes its permit straight to
//!    the longest waiter, and a newcomer takes a free permit only when
//!    nobody waits, so no caller ever overtakes an earlier one.
//! 3. **Per-call deadline.** Every call carries a deadline (the configured
//!    default, or per-request via [`Request::deadline`]). Waiting counts
//!    against it: a caller whose deadline passes before it is admitted
//!    leaves with [`FedError::timeout`] without executing, so a backed-up
//!    front does not burn CPU on answers nobody is waiting for. A call
//!    already executing at its deadline runs to completion and then
//!    returns the same timeout.
//! 4. **Execution.** The caller runs [`IntegrationServer::execute`], whose
//!    hot path is read-mostly: after warm-up no exclusive lock is taken
//!    anywhere, so admitted calls genuinely run in parallel. A panicking
//!    execution is contained: its permit is released and the caller gets
//!    a [`FedError::execution`] error naming the request.
//! 5. **Graceful shutdown.** The front owns no threads. Callers borrow it
//!    for the whole call, so it cannot go away under an admitted request;
//!    a `NetServer` drains by letting its connection threads finish the
//!    request in hand before they exit.
//!
//! ```
//! use fedwf_core::{paper_functions, ArchitectureKind, FrontConfig, IntegrationServer, Request, ServerFront};
//! use fedwf_types::Value;
//! use std::sync::Arc;
//!
//! let server = Arc::new(IntegrationServer::with_architecture(ArchitectureKind::Wfms)?);
//! server.boot();
//! server.deploy(&paper_functions::get_supp_qual())?;
//! let front = ServerFront::start(server.clone(), FrontConfig::default());
//! let outcome = front.execute(
//!     Request::function("GetSuppQual")
//!         .arg(Value::str(server.scenario().well_known_supplier_name())),
//! )?;
//! assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
//! # Ok::<(), fedwf_types::FedError>(())
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use fedwf_sim::{Counter, Gauge, MetricsRegistry};
use fedwf_types::sync::Mutex;
use fedwf_types::{FedError, FedResult};

use crate::request::{Outcome, Request};
use crate::server::IntegrationServer;

/// The longest deadline the front honours. A request may carry any budget
/// (one decoded from the wire can be up to `u64::MAX` µs); clamping keeps
/// `Instant` arithmetic from overflowing.
const MAX_DEADLINE: Duration = Duration::from_secs(365 * 24 * 60 * 60);

/// Configuration of a [`ServerFront`].
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Number of calls executing at once (each on its caller's thread).
    pub workers: usize,
    /// Bound of the admission queue. A call arriving while `queue_depth`
    /// callers are already waiting for a permit is shed with
    /// [`FedError::overloaded`].
    pub queue_depth: usize,
    /// Deadline applied to requests that carry none of their own; covers
    /// queueing *and* execution time.
    pub default_deadline: Duration,
}

impl Default for FrontConfig {
    fn default() -> FrontConfig {
        FrontConfig {
            workers: 4,
            queue_depth: 64,
            default_deadline: Duration::from_secs(10),
        }
    }
}

impl FrontConfig {
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = deadline;
        self
    }
}

/// Counters a front keeps about its own behaviour. Snapshot via
/// [`ServerFront::stats`].
///
/// Since the metrics redesign this is a *view*: the live counters are
/// `front.accepted` / `front.completed` / `front.shed` /
/// `front.expired_in_queue` in the front's [`MetricsRegistry`]
/// ([`ServerFront::metrics`]); `stats()` materializes them into this
/// struct. The public fields are the stable surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontStats {
    /// Calls admitted past the shedding check: executed at once or queued.
    pub accepted: u64,
    /// Calls whose execution finished (successfully, with an execution
    /// error, or past their deadline).
    pub completed: u64,
    /// Calls shed at admission because the queue was full.
    pub shed: u64,
    /// Accepted calls that never executed because their deadline passed
    /// before they were admitted.
    pub expired_in_queue: u64,
}

/// A concurrent serving layer over one [`IntegrationServer`]: FIFO
/// admission gate, bounded concurrency and queue, per-call deadlines,
/// load shedding, panic containment.
///
/// See the [module documentation](self) for the request life cycle.
pub struct ServerFront {
    server: Arc<IntegrationServer>,
    permits: usize,
    queue_depth: usize,
    default_deadline: Duration,
    gate: Mutex<Gate>,
    metrics: Arc<MetricsRegistry>,
    accepted: Counter,
    completed: Counter,
    shed: Counter,
    expired_in_queue: Counter,
    /// Callers currently waiting for a permit.
    waiting: Gauge,
}

/// The admission state. Invariant: `waiters` is non-empty only while all
/// permits are taken — a freed permit goes to the head waiter directly
/// instead of back to the pool.
struct Gate {
    running: usize,
    waiters: VecDeque<Arc<Waiter>>,
}

/// One caller waiting for a permit, parked on its own thread.
struct Waiter {
    thread: Thread,
    /// Set (`Release`) by [`ServerFront::release`] when it hands this
    /// waiter the permit; the waiter reads it with `Acquire`.
    admitted: AtomicBool,
}

/// An admitted call's claim on the gate; dropping it hands the permit on,
/// also when the execution panicked.
struct Permit<'a>(&'a ServerFront);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

impl ServerFront {
    /// Build the front over `server`. No thread is started: calls execute
    /// on their callers' threads. The server stays usable directly as well.
    pub fn start(server: Arc<IntegrationServer>, config: FrontConfig) -> ServerFront {
        let metrics = Arc::new(MetricsRegistry::new());
        ServerFront {
            server,
            permits: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            default_deadline: config.default_deadline,
            gate: Mutex::new(Gate {
                running: 0,
                waiters: VecDeque::new(),
            }),
            accepted: metrics.counter("front.accepted"),
            completed: metrics.counter("front.completed"),
            shed: metrics.counter("front.shed"),
            expired_in_queue: metrics.counter("front.expired_in_queue"),
            waiting: metrics.gauge("front.queue_depth"),
            metrics,
        }
    }

    /// Execute one [`Request`] through the front: admission control, the
    /// request's own deadline (or the configured default), execution on
    /// the calling thread, full [`Outcome`].
    ///
    /// Errors: [`FedError::overloaded`] if shed at admission,
    /// [`FedError::timeout`] if the deadline expires first,
    /// [`FedError::execution`] if the execution panicked, otherwise
    /// whatever the execution itself produced.
    pub fn execute(&self, request: Request) -> FedResult<Outcome> {
        let deadline = request.deadline_opt().unwrap_or(self.default_deadline);
        let expires = Instant::now() + deadline.min(MAX_DEADLINE);
        let permit = self.admit(expires, request.label())?;
        if Instant::now() >= expires {
            // Admitted, but too late to be worth running.
            self.expired_in_queue.inc();
            return Err(expired_before_admission(request.label()));
        }
        let result = catch_unwind(AssertUnwindSafe(|| self.server.execute(&request)));
        drop(permit);
        self.completed.inc();
        let result = result.unwrap_or_else(|payload| {
            Err(FedError::execution(format!(
                "execution of {} panicked: {}",
                request.label(),
                panic_message(payload.as_ref())
            )))
        });
        if Instant::now() > expires {
            return Err(FedError::timeout(format!(
                "deadline expired waiting for {}",
                request.label()
            )));
        }
        result
    }

    /// Take a permit, waiting in FIFO order until one is handed over or
    /// `expires` passes. Sheds at once when the queue is full.
    fn admit(&self, expires: Instant, label: &str) -> FedResult<Permit<'_>> {
        let waiter = {
            let mut gate = self.gate.lock();
            if gate.waiters.is_empty() && gate.running < self.permits {
                gate.running += 1;
                self.accepted.inc();
                return Ok(Permit(self));
            }
            if gate.waiters.len() >= self.queue_depth {
                self.shed.inc();
                return Err(FedError::overloaded(format!(
                    "admission queue full, call to {label} shed"
                )));
            }
            let waiter = Arc::new(Waiter {
                thread: std::thread::current(),
                admitted: AtomicBool::new(false),
            });
            gate.waiters.push_back(Arc::clone(&waiter));
            self.accepted.inc();
            self.waiting.inc();
            waiter
        };
        loop {
            if waiter.admitted.load(Ordering::Acquire) {
                return Ok(Permit(self));
            }
            let now = Instant::now();
            if now >= expires {
                let mut gate = self.gate.lock();
                // The permit may have been handed over since the check
                // above; the caller's deadline check then passes it on.
                if waiter.admitted.load(Ordering::Acquire) {
                    return Ok(Permit(self));
                }
                gate.waiters.retain(|w| !Arc::ptr_eq(w, &waiter));
                self.waiting.dec();
                self.expired_in_queue.inc();
                return Err(expired_before_admission(label));
            }
            // Spurious wake-ups just loop.
            std::thread::park_timeout(expires - now);
        }
    }

    /// Hand a finished call's permit to the longest waiter, or back to the
    /// pool when nobody waits.
    fn release(&self) {
        let mut gate = self.gate.lock();
        match gate.waiters.pop_front() {
            Some(next) => {
                self.waiting.dec();
                next.admitted.store(true, Ordering::Release);
                next.thread.unpark();
            }
            None => gate.running -= 1,
        }
    }

    /// The front's live metrics: `front.accepted`, `front.completed`,
    /// `front.shed`, `front.expired_in_queue` counters and the
    /// `front.queue_depth` gauge (callers waiting for a permit).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A consistent-enough snapshot of the front's counters, materialized
    /// from [`ServerFront::metrics`].
    pub fn stats(&self) -> FrontStats {
        FrontStats {
            accepted: self.accepted.get(),
            completed: self.completed.get(),
            shed: self.shed.get(),
            expired_in_queue: self.expired_in_queue.get(),
        }
    }
}

impl std::fmt::Debug for ServerFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerFront")
            .field("workers", &self.permits)
            .field("queue_depth", &self.queue_depth)
            .field("stats", &self.stats())
            .finish()
    }
}

fn expired_before_admission(label: &str) -> FedError {
    FedError::timeout(format!("deadline expired before {label} was dequeued"))
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchitectureKind;
    use crate::paper_functions;
    use crate::server::IntegrationConfig;
    use fedwf_appsys::DataGenConfig;
    use fedwf_types::Value;

    fn call(front: &ServerFront, name: &str, args: &[Value]) -> FedResult<Outcome> {
        front.execute(Request::function(name).params(args))
    }

    fn front_server() -> Arc<IntegrationServer> {
        let config = IntegrationConfig::default()
            .with_architecture(ArchitectureKind::Wfms)
            .with_data(DataGenConfig::tiny());
        let server = Arc::new(IntegrationServer::new(config).unwrap());
        server.boot();
        server.deploy(&paper_functions::get_supp_qual()).unwrap();
        server
    }

    fn qual_args(server: &IntegrationServer) -> Vec<Value> {
        vec![Value::str(server.scenario().well_known_supplier_name())]
    }

    #[test]
    fn front_serves_calls() {
        let server = front_server();
        let front = ServerFront::start(server.clone(), FrontConfig::default());
        let outcome = call(&front, "GetSuppQual", &qual_args(&server)).unwrap();
        assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
        let stats = front.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn front_propagates_execution_errors() {
        let server = front_server();
        let front = ServerFront::start(server, FrontConfig::default());
        let err = call(&front, "NotDeployed", &[]).unwrap_err();
        assert!(err.to_string().contains("not deployed"), "{err}");
    }

    #[test]
    fn many_clients_all_get_answers() {
        let server = front_server();
        let front = Arc::new(ServerFront::start(
            server.clone(),
            FrontConfig::default().with_workers(4).with_queue_depth(256),
        ));
        let args = qual_args(&server);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let front = Arc::clone(&front);
            let args = args.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    let outcome = call(&front, "GetSuppQual", &args).expect("front call");
                    assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
                }
            }));
        }
        for h in handles {
            h.join().expect("client panicked");
        }
        let stats = front.stats();
        assert_eq!(stats.accepted, 40);
        assert_eq!(stats.completed, 40);
    }

    #[test]
    fn full_queue_sheds_with_typed_overload_error() {
        let server = front_server();
        // One worker, depth-1 queue, 16 simultaneous clients: some calls
        // run, the rest must come back as typed overload errors — never a
        // block, never a panic.
        let front = Arc::new(ServerFront::start(
            server.clone(),
            FrontConfig::default().with_workers(1).with_queue_depth(1),
        ));
        let args = qual_args(&server);
        let mut clients = Vec::new();
        for _ in 0..16 {
            let front = Arc::clone(&front);
            let args = args.clone();
            clients.push(std::thread::spawn(move || {
                call(&front, "GetSuppQual", &args)
            }));
        }
        let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(e) if e.is_overloaded()))
            .count();
        assert_eq!(ok + shed, 16, "only success or typed overload: {results:?}");
        assert!(ok >= 1, "at least the parked call must succeed");
        let stats = front.stats();
        assert_eq!(stats.shed as usize, shed);
        assert_eq!(stats.accepted as usize, ok);
    }

    #[test]
    fn zero_deadline_times_out() {
        let server = front_server();
        let front = ServerFront::start(server.clone(), FrontConfig::default());
        let err = front
            .execute(
                Request::function("GetSuppQual")
                    .params(qual_args(&server))
                    .deadline(Duration::ZERO),
            )
            .unwrap_err();
        assert!(err.is_timeout(), "{err}");
    }

    #[test]
    fn an_unrepresentable_deadline_means_no_deadline() {
        let server = front_server();
        let front = ServerFront::start(server.clone(), FrontConfig::default());
        let outcome = front
            .execute(
                Request::function("GetSuppQual")
                    .params(qual_args(&server))
                    .deadline(Duration::MAX),
            )
            .expect("a huge budget must not overflow the deadline arithmetic");
        assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
    }

    #[test]
    fn drop_after_calls_does_not_hang() {
        let server = front_server();
        let front = ServerFront::start(
            server.clone(),
            FrontConfig::default().with_workers(2).with_queue_depth(8),
        );
        for _ in 0..4 {
            call(&front, "GetSuppQual", &qual_args(&server)).unwrap();
        }
        drop(front); // must not hang
    }

    /// A native UDTF `Block(Tag)` that records each invocation's tag and
    /// then blocks until the test opens the latch.
    #[derive(Default)]
    struct Latch {
        /// Tags of the invocations so far, and whether the latch is open.
        state: std::sync::Mutex<(Vec<i32>, bool)>,
        changed: std::sync::Condvar,
    }

    impl Latch {
        fn install(server: &IntegrationServer) -> Arc<Latch> {
            use fedwf_fdbs::Udtf;
            use fedwf_types::{DataType, Ident, Schema, Table};
            let latch = Arc::new(Latch::default());
            let body_latch = Arc::clone(&latch);
            server
                .fdbs()
                .register_udtf(Udtf::native(
                    "Block",
                    vec![(Ident::new("Tag"), DataType::Int)],
                    Arc::new(Schema::of(&[("Tag", DataType::Int)])),
                    move |args, _meter| {
                        let tag = args[0].as_i64().unwrap() as i32;
                        let mut state = body_latch.state.lock().unwrap();
                        state.0.push(tag);
                        body_latch.changed.notify_all();
                        drop(body_latch.changed.wait_while(state, |s| !s.1).unwrap());
                        Ok(Table::scalar("Tag", Value::Int(tag)))
                    },
                ))
                .unwrap();
            latch
        }

        fn entered(&self) -> Vec<i32> {
            self.state.lock().unwrap().0.clone()
        }

        fn wait_entered(&self, n: usize) {
            let state = self.state.lock().unwrap();
            let (state, waited) = self
                .changed
                .wait_timeout_while(state, Duration::from_secs(10), |s| s.0.len() < n)
                .unwrap();
            drop(state);
            assert!(!waited.timed_out(), "never saw {n} invocations");
        }

        fn release_all(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    fn block(tag: i32) -> Request {
        Request::sql("SELECT B.Tag FROM TABLE (Block(T)) AS B").bind("T", Value::Int(tag))
    }

    fn spawn_block(
        front: &Arc<ServerFront>,
        request: Request,
    ) -> std::thread::JoinHandle<FedResult<Outcome>> {
        let front = Arc::clone(front);
        std::thread::spawn(move || front.execute(request))
    }

    /// Wait until `n` callers wait for a permit.
    fn wait_waiting(front: &ServerFront, n: i64) {
        let waiting = front.metrics().gauge("front.queue_depth");
        let start = Instant::now();
        while waiting.get() != n {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "never saw {n} waiters"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn one_permit_front(
        queue_depth: usize,
    ) -> (Arc<IntegrationServer>, Arc<ServerFront>, Arc<Latch>) {
        let server = front_server();
        let latch = Latch::install(&server);
        let front = Arc::new(ServerFront::start(
            server.clone(),
            FrontConfig::default()
                .with_workers(1)
                .with_queue_depth(queue_depth),
        ));
        (server, front, latch)
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let (_server, front, latch) = one_permit_front(8);
        let mut calls = vec![spawn_block(&front, block(0))];
        latch.wait_entered(1);
        for tag in 1..=5 {
            calls.push(spawn_block(&front, block(tag)));
            wait_waiting(&front, i64::from(tag));
        }
        latch.release_all();
        for (tag, call) in calls.into_iter().enumerate() {
            let outcome = call.join().unwrap().expect("admitted call");
            assert_eq!(outcome.table.value(0, "Tag"), Some(&Value::Int(tag as i32)));
        }
        assert_eq!(latch.entered(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(front.metrics().gauge("front.queue_depth").get(), 0);
        assert_eq!(front.stats().completed, 6);
    }

    /// A freed permit belongs to the longest waiter at once: a newcomer
    /// arriving right after the release, even before that waiter has
    /// woken up, queues behind it instead of taking the permit.
    #[test]
    fn a_newcomer_never_overtakes_a_waiter() {
        let server = front_server();
        let front = Arc::new(ServerFront::start(
            server,
            FrontConfig::default().with_workers(1).with_queue_depth(4),
        ));
        let far = Instant::now() + Duration::from_secs(10);
        let first = front.admit(far, "first").unwrap();
        let (admitted_tx, admitted_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let waiter = {
            let front = Arc::clone(&front);
            std::thread::spawn(move || {
                let permit = front.admit(far, "waiter").unwrap();
                admitted_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                drop(permit);
            })
        };
        wait_waiting(&front, 1);
        drop(first);
        let newcomer = front.admit(Instant::now() + Duration::from_millis(50), "newcomer");
        assert!(newcomer.is_err_and(|e| e.is_timeout()));
        admitted_rx.recv().unwrap();
        release_tx.send(()).unwrap();
        waiter.join().unwrap();
        drop(
            front
                .admit(far, "later")
                .expect("the permit is back in the pool"),
        );
    }

    #[test]
    fn a_waiter_whose_deadline_passes_never_executes() {
        let (_server, front, latch) = one_permit_front(8);
        let running = spawn_block(&front, block(0));
        latch.wait_entered(1);
        let err = front
            .execute(block(1).deadline(Duration::from_millis(50)))
            .unwrap_err();
        assert!(err.is_timeout(), "{err}");
        assert!(err.to_string().contains("was dequeued"), "{err}");
        let stats = front.stats();
        assert_eq!(stats.expired_in_queue, 1);
        assert_eq!(stats.accepted, 2);
        assert_eq!(front.metrics().gauge("front.queue_depth").get(), 0);
        latch.release_all();
        running.join().unwrap().expect("running call");
        // The expired waiter's UDTF never ran, and the front still serves.
        assert_eq!(latch.entered(), vec![0]);
        front.execute(block(2)).expect("after expiry");
        assert_eq!(latch.entered(), vec![0, 2]);
        assert_eq!(front.stats().completed, 2);
    }

    #[test]
    fn a_caller_beyond_the_queue_depth_is_shed_at_once() {
        let (_server, front, latch) = one_permit_front(1);
        let running = spawn_block(&front, block(0));
        latch.wait_entered(1);
        let waiter = spawn_block(&front, block(1));
        wait_waiting(&front, 1);
        let started = Instant::now();
        let err = front.execute(block(2)).unwrap_err();
        assert!(err.is_overloaded(), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shedding must not wait for a permit"
        );
        latch.release_all();
        running.join().unwrap().expect("running call");
        waiter.join().unwrap().expect("waiting call");
        assert_eq!(latch.entered(), vec![0, 1]);
        let stats = front.stats();
        assert_eq!((stats.accepted, stats.shed, stats.completed), (2, 1, 2));
    }

    /// A call still executing when its deadline passes finishes, then
    /// reports the timeout; its permit is released either way.
    #[test]
    fn an_execution_past_its_deadline_finishes_then_times_out() {
        let (_server, front, latch) = one_permit_front(8);
        let late = spawn_block(&front, block(0).deadline(Duration::from_millis(200)));
        latch.wait_entered(1);
        std::thread::sleep(Duration::from_millis(250));
        latch.release_all();
        let err = late.join().unwrap().unwrap_err();
        assert!(err.is_timeout(), "{err}");
        assert!(err.to_string().contains("waiting for"), "{err}");
        let stats = front.stats();
        assert_eq!((stats.completed, stats.expired_in_queue), (1, 0));
        front.execute(block(1)).expect("permit was released");
    }

    /// Concurrent front callers committing INSERTs into a durable local
    /// store: every statement goes through the committer once, and every
    /// acked insert survives a reopen of the store. (That writers arriving
    /// during a sync share the next batch is pinned deterministically in
    /// relstore's `writers_arriving_during_a_sync_share_the_next_batch`.)
    #[test]
    fn concurrent_workers_share_group_commit_batches() {
        use crate::server::LocalStoreConfig;

        const WRITERS: usize = 8;
        const PER_WRITER: usize = 10;
        let dir = std::env::temp_dir().join(format!(
            "fedwf-front-gc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let config = IntegrationConfig::default()
                .with_architecture(ArchitectureKind::Wfms)
                .with_data(DataGenConfig::tiny())
                .with_local_store(LocalStoreConfig::at(&dir));
            let server = Arc::new(IntegrationServer::new(config).unwrap());
            server.boot();
            let front = Arc::new(ServerFront::start(
                Arc::clone(&server),
                FrontConfig::default()
                    .with_workers(WRITERS)
                    .with_queue_depth(256),
            ));
            front
                .execute(Request::sql("CREATE TABLE GC (k INT NOT NULL, w INT)"))
                .unwrap();
            let clients: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let front = Arc::clone(&front);
                    std::thread::spawn(move || {
                        for i in 0..PER_WRITER {
                            let k = w * 100 + i;
                            front
                                .execute(Request::sql(format!("INSERT INTO GC VALUES ({k}, {w})")))
                                .expect("insert");
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().unwrap();
            }
            let local = server.fdbs().catalog().local();
            assert_eq!(
                local.scan_all("GC").unwrap().row_count(),
                WRITERS * PER_WRITER
            );
            let stats = local
                .commit_stats()
                .expect("a durable store counts commits");
            assert_eq!(stats.commits, (WRITERS * PER_WRITER) as u64 + 1); // + DDL
            assert!(stats.syncs <= stats.commits, "{stats:?}");
        } // drop server
          // Everything acked is durable: a reopen sees all rows.
        let db = fedwf_relstore::Database::open(&dir).unwrap();
        assert_eq!(db.scan_all("GC").unwrap().row_count(), WRITERS * PER_WRITER);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
