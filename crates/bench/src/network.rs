//! E19: what does the wire cost? Loopback TCP vs in-process submission.
//!
//! The paper's architecture spectrum varies *where composition runs*;
//! this experiment varies *where the client sits*. Both arms drive the
//! identical workload (warm `GetSuppQual`, closed loop) through the
//! [`Submit`] abstraction — one arm holds the [`ServerFront`] directly,
//! the other a [`TcpClient`] dialled at a loopback [`NetServer`] wrapped
//! around the *same* front. The difference per call is therefore exactly
//! the serving boundary: frame encode/decode (including the charge log,
//! sent as run-length charge runs, in every reply) plus two loopback
//! socket hops.
//!
//! Wall-clock numbers only — virtual time is transport-invariant by
//! construction (asserted in `tests/transport_equivalence.rs`), which is
//! what makes this comparison meaningful: the two arms return
//! byte-identical outcomes, so every measured microsecond of difference
//! is the transport.

use std::sync::Arc;
use std::time::Duration;

use fedwf_core::{
    paper_functions, ArchitectureKind, FrontConfig, IntegrationServer, Request, ServerFront, Submit,
};
use fedwf_fdbs::RelstoreServer;
use fedwf_net::{NetServer, TcpClient};
use fedwf_relstore::{Database, IndexKind, Predicate};
use fedwf_sim::{LatencyHistogram, WallClock};
use fedwf_types::rng::Rng;
use fedwf_types::sync::Mutex;
use fedwf_types::{DataType, FedError, FedResult, Row, Schema, Value};

use crate::experiments::args_for;

/// One closed-loop run through one transport.
#[derive(Debug, Clone)]
pub struct NetworkSummary {
    /// `"in-process"` or `"loopback-tcp"`.
    pub transport: &'static str,
    /// Concurrent client threads (over TCP: concurrent connections —
    /// the client pool grows to one connection per thread).
    pub clients: usize,
    pub elapsed: Duration,
    pub qps: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub mean_us: u64,
    pub ok: usize,
    /// Non-OK calls; a healthy uncontended run has none.
    pub failed: usize,
}

impl NetworkSummary {
    pub fn render_row(&self) -> String {
        format!(
            "{:<14} {:>7} {:>9.0} {:>9} {:>9} {:>9} {:>6} {:>6}",
            self.transport,
            self.clients,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.ok,
            self.failed
        )
    }

    pub fn render_header() -> String {
        format!(
            "{:<14} {:>7} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6}",
            "transport", "clients", "qps", "p50(us)", "p95(us)", "p99(us)", "ok", "failed"
        )
    }
}

/// Both arms at one client count, measured against one shared server.
#[derive(Debug, Clone)]
pub struct NetworkComparison {
    pub in_process: NetworkSummary,
    pub network: NetworkSummary,
}

impl NetworkComparison {
    /// Mean wall overhead the wire adds per call, in microseconds.
    pub fn overhead_mean_us(&self) -> i64 {
        self.network.mean_us as i64 - self.in_process.mean_us as i64
    }

    /// Loopback QPS as a fraction of in-process QPS.
    pub fn qps_ratio(&self) -> f64 {
        self.network.qps / self.in_process.qps.max(f64::MIN_POSITIVE)
    }
}

/// Drive `clients` closed-loop threads through any [`Submit`] and
/// aggregate wall latency. The workload is the warm `GetSuppQual` call —
/// identical to the E13 throughput harness, so rows line up.
pub fn run_closed_loop(
    submit: &(impl Submit + Sync),
    transport: &'static str,
    clients: usize,
    calls_per_client: usize,
    args: &[Value],
) -> NetworkSummary {
    let merged = Mutex::new(LatencyHistogram::new());
    let counts = Mutex::new((0usize, 0usize)); // ok, failed
    let clock = WallClock::start();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let merged = &merged;
            let counts = &counts;
            scope.spawn(move || {
                let mut hist = LatencyHistogram::new();
                let (mut ok, mut failed) = (0, 0);
                for _ in 0..calls_per_client {
                    let call_clock = WallClock::start();
                    match submit.submit(Request::function("GetSuppQual").params(args)) {
                        Ok(_) => {
                            hist.record_us(call_clock.elapsed_us());
                            ok += 1;
                        }
                        Err(_) => failed += 1,
                    }
                }
                merged.lock().merge(&hist);
                let mut c = counts.lock();
                c.0 += ok;
                c.1 += failed;
            });
        }
    });
    let elapsed = clock.elapsed();
    let mut hist = merged.into_inner();
    let (ok, failed) = counts.into_inner();
    NetworkSummary {
        transport,
        clients,
        elapsed,
        qps: hist.qps(elapsed),
        p50_us: hist.p50_us(),
        p95_us: hist.p95_us(),
        p99_us: hist.p99_us(),
        mean_us: hist.mean_us(),
        ok,
        failed,
    }
}

/// The shared fixture of E19: one booted WfMS server, one front sized so
/// the closed loop never sheds at the ladder's top rung, one loopback
/// listener, one pooled client.
pub struct NetworkRig {
    pub server: Arc<IntegrationServer>,
    pub front: Arc<ServerFront>,
    pub net: NetServer,
    pub client: TcpClient,
    pub args: Vec<Value>,
}

pub fn network_rig(max_clients: usize) -> NetworkRig {
    let server = Arc::new(
        IntegrationServer::with_architecture(ArchitectureKind::Wfms)
            .expect("default scenario always builds"),
    );
    server.boot();
    server
        .deploy(&paper_functions::get_supp_qual())
        .expect("GetSuppQual deploys everywhere");
    let front = Arc::new(ServerFront::start(
        Arc::clone(&server),
        FrontConfig::default()
            .with_workers(max_clients)
            .with_queue_depth(max_clients * 2)
            .with_default_deadline(Duration::from_secs(30)),
    ));
    let net = NetServer::start("127.0.0.1:0", Arc::clone(&front)).expect("bind loopback");
    let client = TcpClient::connect(net.local_addr()).expect("dial loopback");
    let args = args_for(&server, &paper_functions::get_supp_qual());
    // Warm everything before any clock starts: server caches via the
    // front, then one wire call so frame buffers and the first pooled
    // connection are established.
    front
        .execute(Request::function("GetSuppQual").params(args.as_slice()))
        .expect("warm-up through the front");
    client
        .submit(Request::function("GetSuppQual").params(args.as_slice()))
        .expect("warm-up over the wire");
    NetworkRig {
        server,
        front,
        net,
        client,
        args,
    }
}

/// Measure both arms at one client count on a shared rig.
pub fn compare(rig: &NetworkRig, clients: usize, calls_per_client: usize) -> NetworkComparison {
    let in_process = run_closed_loop(
        rig.front.as_ref(),
        "in-process",
        clients,
        calls_per_client,
        &rig.args,
    );
    let network = run_closed_loop(
        &rig.client,
        "loopback-tcp",
        clients,
        calls_per_client,
        &rig.args,
    );
    NetworkComparison {
        in_process,
        network,
    }
}

/// The connection ladder of E19.
pub const CONNECTION_LADDER: [usize; 5] = [1, 2, 4, 8, 16];

pub fn ladder(calls_per_client: usize) -> Vec<NetworkComparison> {
    let rig = network_rig(*CONNECTION_LADDER.last().unwrap());
    CONNECTION_LADDER
        .iter()
        .map(|&clients| compare(&rig, clients, calls_per_client))
        .collect()
}

/// Drain under fire: clients keep submitting over the wire while the
/// listener shuts down. Every call must end in an outcome or a typed
/// error — shutdown may sever connections (network errors are expected)
/// but must never wedge a client or the server. Returns (ok, errors).
pub fn drain_under_load(clients: usize, calls_per_client: usize) -> (usize, usize) {
    let rig = network_rig(clients);
    let addr = rig.net.local_addr();
    let counts = Mutex::new((0usize, 0usize));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let args = rig.args.clone();
            let counts = &counts;
            scope.spawn(move || {
                // Own client per thread: pooled connections die with the
                // server, which is part of what is being exercised.
                let Ok(client) = TcpClient::connect(addr) else {
                    counts.lock().1 += calls_per_client;
                    return;
                };
                for _ in 0..calls_per_client {
                    match client.submit(Request::function("GetSuppQual").params(args.as_slice())) {
                        Ok(_) => counts.lock().0 += 1,
                        Err(_) => counts.lock().1 += 1,
                    }
                }
            });
        }
        // Let some calls land, then pull the listener out from under them.
        std::thread::sleep(Duration::from_millis(20));
        rig.net.shutdown();
    });
    counts.into_inner()
}

/// Load a small federation shaped like the repository benchmark's
/// `sql_mix` workload into `server`: an indexed fact table `Orders`
/// (4 000 rows over 100 days), a dimension `Customers` (100 rows, unique
/// key) and the purchasing system's suppliers as the foreign table
/// `ErpSuppliers`, served by a second relstore database through the
/// SQL/MED wrapper. Deterministic; statistics are collected at the end.
pub fn load_sql_mix_federation(server: &IntegrationServer) -> FedResult<()> {
    const ORDERS: i32 = 4_000;
    const CUSTOMERS: i32 = 100;
    const DAYS: i32 = 100;
    const SEGMENTS: [&str; 4] = ["auto", "aero", "rail", "marine"];
    let mut rng = Rng::seed_from_u64(0x5EED);
    let local = server.fdbs().catalog().local();
    local.create_table(
        "Orders",
        Arc::new(Schema::of(&[
            ("Id", DataType::Int),
            ("CustNo", DataType::Int),
            ("Day", DataType::Int),
            ("Qty", DataType::Int),
            ("Price", DataType::Double),
            ("Note", DataType::Varchar),
        ])),
    )?;
    local.create_index("Orders", "orders_pk", "Id", IndexKind::Unique)?;
    local.create_index("Orders", "orders_day", "Day", IndexKind::NonUnique)?;
    local.create_index("Orders", "orders_cust", "CustNo", IndexKind::NonUnique)?;
    let orders = (0..ORDERS)
        .map(|id| {
            let note = match rng.next_below(4) {
                0 => Value::Null,
                n => Value::str(format!("note {n}")),
            };
            Row::new(vec![
                Value::Int(id),
                Value::Int(rng.range_i32(0, CUSTOMERS - 1)),
                Value::Int(rng.range_i32(0, DAYS - 1)),
                Value::Int(rng.range_i32(1, 100)),
                Value::Double(rng.next_below(100_000) as f64 / 100.0),
                note,
            ])
        })
        .collect();
    local.insert_all("Orders", orders)?;
    local.create_table(
        "Customers",
        Arc::new(Schema::of(&[
            ("CustNo", DataType::Int),
            ("Segment", DataType::Varchar),
        ])),
    )?;
    local.create_index("Customers", "customers_pk", "CustNo", IndexKind::Unique)?;
    let customers = (0..CUSTOMERS)
        .map(|c| Row::new(vec![Value::Int(c), Value::str(*rng.pick(&SEGMENTS))]))
        .collect();
    local.insert_all("Customers", customers)?;

    let purchasing = server
        .scenario()
        .registry
        .system("purchasing")
        .ok_or_else(|| FedError::catalog("no purchasing system"))?;
    let suppliers = purchasing
        .database()
        .scan_project("Suppliers", &Predicate::True, None)?;
    let remote = Database::new("erp");
    remote.create_table("Suppliers", suppliers.schema().clone())?;
    remote.create_index("Suppliers", "erp_pk", "SupplierNo", IndexKind::Unique)?;
    remote.insert_all("Suppliers", suppliers.into_rows())?;
    server.fdbs().catalog().register_foreign_table(
        "ErpSuppliers",
        Arc::new(RelstoreServer::new("erp", Arc::new(remote))),
        "Suppliers",
    )?;
    server.fdbs().analyze()?;
    Ok(())
}

/// One request of each `sql_mix` shape over [`load_sql_mix_federation`]:
/// an index point lookup, an index range with a sort, an index join
/// with grouping (`join_agg`), a lateral federated function over foreign
/// rows (`fed_join`, three `GetSuppQual` workflows) and a statement with
/// inlined literals (`adhoc`).
pub fn sql_mix_requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "point",
            Request::sql("SELECT O.* FROM Orders AS O WHERE O.Id = pk").bind("pk", 1234),
        ),
        (
            "range",
            Request::sql(
                "SELECT O.Id, O.Qty, O.Price FROM Orders AS O \
                 WHERE O.CustNo = pc AND O.Day >= plo AND O.Day < phi ORDER BY O.Id",
            )
            .bind("pc", 7)
            .bind("plo", 10)
            .bind("phi", 60),
        ),
        (
            "join_agg",
            Request::sql(
                "SELECT C.Segment, COUNT(*) AS N, SUM(O.Qty) AS Q \
                 FROM Orders AS O, Customers AS C \
                 WHERE O.CustNo = C.CustNo AND O.Day = pd \
                 GROUP BY C.Segment ORDER BY Q DESC, C.Segment LIMIT 5",
            )
            .bind("pd", 42),
        ),
        (
            "fed_join",
            Request::sql(
                "SELECT S.SupplierNo, T.Qual \
                 FROM ErpSuppliers AS S, TABLE (GetSuppQual(S.Name)) AS T \
                 WHERE S.SupplierNo >= plo AND S.SupplierNo < phi ORDER BY S.SupplierNo",
            )
            .bind("plo", 1)
            .bind("phi", 4),
        ),
        (
            "adhoc",
            Request::sql(
                "SELECT O.Id, O.Qty, O.Price FROM Orders AS O \
                 WHERE O.CustNo = 3 AND O.Day >= 0 AND O.Day < 50 AND O.Id > -17 ORDER BY O.Id",
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_complete_every_call() {
        let rig = network_rig(2);
        let comparison = compare(&rig, 2, 4);
        assert_eq!(comparison.in_process.ok, 8);
        assert_eq!(comparison.network.ok, 8);
        assert_eq!(comparison.in_process.failed, 0);
        assert_eq!(comparison.network.failed, 0);
        assert!(comparison.network.qps > 0.0);
    }

    #[test]
    fn drain_under_load_never_wedges() {
        let (ok, errors) = drain_under_load(4, 10);
        assert_eq!(ok + errors, 40, "every call ends, one way or the other");
    }
}
