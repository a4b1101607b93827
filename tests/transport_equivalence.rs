//! The network transport must be a *transparent* detail: any call
//! submitted through a [`TcpClient`] must return exactly what the same
//! call returns through the in-process [`ServerFront`] — same result
//! table, same charge log (and therefore the same Fig. 6 virtual-time
//! breakdown), same materialization counters, and the same *typed*
//! errors, including the degradation errors the admission layer
//! produces: a deadline that expires on the server comes back over the
//! wire as the server's own timeout error, and a full admission queue
//! sheds network calls with the same overload error in-process callers
//! see.
//!
//! Part A replays the Fig. 5 workload on all four architectures through
//! both `Submit` implementations. Part B runs a slice of the
//! exec-equivalence SQL surface (joins, DISTINCT, aggregates over a
//! local table) and the benchmark's `sql_mix` shapes through both. Part
//! C covers error identity and the degradation paths end-to-end.

use std::sync::Arc;
use std::time::Duration;

use fedwf::core::{
    paper_functions, ArchitectureKind, FrontConfig, IntegrationServer, Outcome, Request,
    ServerFront, Submit,
};
use fedwf::net::{NetServer, TcpClient};
use fedwf::types::FedResult;
use fedwf_bench::args_for;

struct Rig {
    server: Arc<IntegrationServer>,
    front: Arc<ServerFront>,
    net: NetServer,
    client: TcpClient,
}

fn rig(kind: ArchitectureKind, config: FrontConfig) -> Rig {
    let server = Arc::new(IntegrationServer::with_architecture(kind).unwrap());
    server.boot();
    for (spec, _) in paper_functions::fig5_workload() {
        if server.architecture().supports(&spec) {
            server.deploy(&spec).unwrap();
        }
    }
    let front = Arc::new(ServerFront::start(Arc::clone(&server), config));
    let net = NetServer::start("127.0.0.1:0", Arc::clone(&front)).unwrap();
    let client = TcpClient::connect(net.local_addr()).unwrap();
    Rig {
        server,
        front,
        net,
        client,
    }
}

/// Everything the paper measures about a call, compared field by field.
/// Warm executions are deterministic in virtual time, so the charge logs
/// must agree *in order*, which subsumes multiset equality.
fn assert_equivalent(label: &str, local: &Outcome, remote: &Outcome) {
    assert_eq!(local.table, remote.table, "{label}: result table");
    assert_eq!(
        local.meter.charges(),
        remote.meter.charges(),
        "{label}: charge log"
    );
    assert_eq!(
        local.meter.now_us(),
        remote.meter.now_us(),
        "{label}: virtual clock"
    );
    assert_eq!(
        local.meter.rows_materialized(),
        remote.meter.rows_materialized(),
        "{label}: rows materialized"
    );
    assert_eq!(
        local.meter.bytes_materialized(),
        remote.meter.bytes_materialized(),
        "{label}: bytes materialized"
    );
}

// ---------------------------------------------------------------------------
// Part A: the Fig. 5 workload, all architectures, both transports
// ---------------------------------------------------------------------------

fn fig5_equivalence(kind: ArchitectureKind) {
    let rig = rig(kind, FrontConfig::default());
    for (spec, case) in paper_functions::fig5_workload() {
        if !rig.server.architecture().supports(&spec) {
            continue; // the paper's capability gap (cyclic on UDTF-only)
        }
        let args = args_for(rig.server.scenario(), &spec);
        let request = || Request::function(spec.name.as_str()).params(args.clone());
        // Warm up once: the first execution pays compile/boot/template
        // charges; equivalence is asserted between two *warm* calls.
        rig.front.submit(request()).unwrap();
        let local = rig.front.submit(request()).unwrap();
        let remote = rig.client.submit(request()).unwrap();
        assert_equivalent(
            &format!("{} ({case:?}, {})", spec.name, kind.name()),
            &local,
            &remote,
        );
    }
}

#[test]
fn fig5_workload_is_transport_invariant_on_wfms() {
    fig5_equivalence(ArchitectureKind::Wfms);
}

#[test]
fn fig5_workload_is_transport_invariant_on_sql_udtf() {
    fig5_equivalence(ArchitectureKind::SqlUdtf);
}

#[test]
fn fig5_workload_is_transport_invariant_on_java_udtf() {
    fig5_equivalence(ArchitectureKind::JavaUdtf);
}

#[test]
fn fig5_workload_is_transport_invariant_on_simple_udtf() {
    fig5_equivalence(ArchitectureKind::SimpleUdtf);
}

// ---------------------------------------------------------------------------
// Part B: SQL through both transports
// ---------------------------------------------------------------------------

#[test]
fn sql_surface_is_transport_invariant() {
    let rig = rig(ArchitectureKind::Wfms, FrontConfig::default());
    // Mutating statements run exactly once, in-process; the equivalence
    // sweep below is read-only.
    rig.front
        .submit(Request::sql(
            "CREATE TABLE TQ (k INT NOT NULL, grp INT, v DOUBLE)",
        ))
        .unwrap();
    rig.front
        .submit(Request::sql(
            "INSERT INTO TQ VALUES (1, 1, 1.5), (2, 1, 2.5), (3, 2, 0.25), (4, NULL, 9.0), (5, 2, 4.0)",
        ))
        .unwrap();

    let supplier = rig.server.scenario().well_known_supplier_name().to_string();
    let queries = [
        "SELECT * FROM TQ".to_string(),
        "SELECT DISTINCT grp FROM TQ".to_string(),
        "SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM TQ GROUP BY grp".to_string(),
        "SELECT a.k, b.k FROM TQ AS a, TQ AS b WHERE a.grp = b.grp AND a.k < b.k".to_string(),
        // A federated function inside SQL, crossing every layer.
        format!("SELECT T.Qual FROM TABLE (GetSuppQual('{supplier}')) AS T"),
    ];
    for sql in &queries {
        rig.front.submit(Request::sql(sql)).unwrap(); // warm the plan cache
        let local = rig.front.submit(Request::sql(sql)).unwrap();
        let remote = rig.client.submit(Request::sql(sql)).unwrap();
        assert_equivalent(sql, &local, &remote);
    }
}

/// The repository benchmark's `sql_mix` shapes over a real socket. Their
/// charge logs travel as runs: the index join (`join_agg`) books dozens of
/// identical `Evaluate predicates` charges back to back, and `range` one
/// `Produce result rows` charge per row. The lateral federated function
/// over foreign rows (`fed_join`) books each workflow's charges three
/// times over; its host variables reach the foreign scan, so no filter
/// books a charge per foreign row.
#[test]
fn sql_mix_shapes_are_transport_invariant() {
    let rig = rig(ArchitectureKind::Wfms, FrontConfig::default());
    fedwf_bench::network::load_sql_mix_federation(&rig.server).unwrap();
    for (shape, request) in fedwf_bench::network::sql_mix_requests() {
        for traced in [false, true] {
            let request = request.clone().traced(traced);
            rig.front.submit(request.clone()).unwrap(); // warm the plan cache
            let local = rig.front.submit(request.clone()).unwrap();
            let remote = rig.client.submit(request).unwrap();
            assert_equivalent(&format!("{shape} (traced: {traced})"), &local, &remote);
            assert_eq!(local.trace, remote.trace, "{shape}: span tree");
        }
    }
}

// ---------------------------------------------------------------------------
// Part C: error identity and degradation end-to-end
// ---------------------------------------------------------------------------

#[test]
fn execution_errors_are_identical_across_transports() {
    let rig = rig(ArchitectureKind::Wfms, FrontConfig::default());
    let cases = [
        Request::function("NoSuchFunction").arg(1),
        Request::sql("SELECT * FROM NoSuchTable"),
        Request::sql("SELEC syntax error"),
    ];
    for request in cases {
        let local = rig.front.submit(request.clone()).unwrap_err();
        let remote = rig.client.submit(request.clone()).unwrap_err();
        // Full identity: layer, stable code, message, context — the wire
        // neither loses nor embellishes anything.
        assert_eq!(local, remote, "for {:?}", request.label());
        assert_eq!(local.code(), remote.code());
        assert_eq!(local.to_string(), remote.to_string());
    }
}

#[test]
fn deadline_timeout_travels_as_the_servers_typed_error() {
    let rig = rig(ArchitectureKind::Wfms, FrontConfig::default());
    let supplier = rig.server.scenario().well_known_supplier_name().to_string();
    let request = || {
        Request::function("GetSuppQual")
            .arg(supplier.clone())
            .deadline(Duration::ZERO)
    };
    let local = rig.front.submit(request()).unwrap_err();
    let remote = rig.client.submit(request()).unwrap_err();
    // The client does not short-circuit a zero budget: the deadline is
    // forwarded, expires in the server's admission layer, and comes back
    // as the same typed timeout an in-process caller gets.
    assert!(local.is_timeout(), "{local}");
    assert!(remote.is_timeout(), "{remote}");
    assert_eq!(local.code(), remote.code());
}

/// A deadline too large to add anything to (`Duration::MAX`) behaves
/// exactly like no deadline on both transports: the front clamps it, the
/// wire clamps it, and the client's read timeout saturates instead of
/// overflowing.
#[test]
fn an_unbounded_deadline_equals_no_deadline_on_both_transports() {
    let rig = rig(ArchitectureKind::Wfms, FrontConfig::default());
    let supplier = rig.server.scenario().well_known_supplier_name().to_string();
    let request = || Request::function("GetSuppQual").arg(supplier.clone());
    rig.front.submit(request()).unwrap(); // warm-up
    let reference = rig.front.submit(request()).unwrap();
    let transports: [(&str, &dyn Submit); 2] = [("in-process", &rig.front), ("tcp", &rig.client)];
    for (transport, submit) in transports {
        let outcome = submit
            .submit(request().deadline(Duration::MAX))
            .unwrap_or_else(|e| panic!("{transport}: {e}"));
        assert_equivalent(
            &format!("Duration::MAX deadline ({transport})"),
            &reference,
            &outcome,
        );
    }
}

#[test]
fn overload_sheds_network_calls_with_the_typed_error() {
    // One worker, depth-1 queue: 16 concurrent network clients must be
    // answered with either a real outcome or the typed overload error —
    // never a hang, never a closed connection.
    let rig = rig(
        ArchitectureKind::Wfms,
        FrontConfig::default().with_workers(1).with_queue_depth(1),
    );
    let supplier = rig.server.scenario().well_known_supplier_name().to_string();
    let addr = rig.net.local_addr();

    let mut shed_seen = 0usize;
    for _round in 0..20 {
        let clients: Vec<_> = (0..16)
            .map(|_| {
                let supplier = supplier.clone();
                std::thread::spawn(move || -> FedResult<Outcome> {
                    let client = TcpClient::connect(addr)?;
                    client.submit(Request::function("GetSuppQual").arg(supplier))
                })
            })
            .collect();
        for handle in clients {
            match handle.join().unwrap() {
                Ok(outcome) => {
                    assert_eq!(outcome.table.row_count(), 1);
                }
                Err(e) => {
                    assert!(e.is_overloaded(), "only typed overload expected: {e}");
                    assert_eq!(e.code(), 12, "stable overload code");
                    shed_seen += 1;
                }
            }
        }
        if shed_seen > 0 {
            break;
        }
    }
    assert!(
        shed_seen > 0,
        "16 clients × 20 rounds never overloaded a depth-1 queue"
    );
    assert!(
        rig.front.stats().shed >= shed_seen as u64,
        "front counted the sheds it sent over the wire"
    );
}

#[test]
fn a_panicking_execution_is_a_typed_error_on_both_transports() {
    use fedwf::fdbs::Udtf;
    use fedwf::types::{DataType, ErrorLayer, Schema};

    // One permit: if the panic leaked it, every later call would wait.
    let rig = rig(
        ArchitectureKind::Wfms,
        FrontConfig::default().with_workers(1).with_queue_depth(1),
    );
    rig.server
        .fdbs()
        .register_udtf(Udtf::native(
            "Explode",
            vec![],
            Arc::new(Schema::of(&[("x", DataType::Int)])),
            |_args, _meter| panic!("native UDTF exploded"),
        ))
        .unwrap();
    let sql = "SELECT E.x FROM TABLE (Explode()) AS E";
    let supplier = rig.server.scenario().well_known_supplier_name().to_string();
    let transports: [(&str, &dyn Submit); 2] = [("in-process", &rig.front), ("tcp", &rig.client)];
    for (transport, submit) in transports {
        let err = submit.submit(Request::sql(sql)).unwrap_err();
        assert_eq!(err.layer, ErrorLayer::Execution, "{transport}: {err}");
        assert!(
            err.message.contains(sql) && err.message.contains("native UDTF exploded"),
            "{transport}: the error names the request and the panic: {err}"
        );
        let outcome = submit
            .submit(Request::function("GetSuppQual").arg(supplier.clone()))
            .unwrap_or_else(|e| panic!("{transport}: next call not admitted: {e}"));
        assert_eq!(outcome.table.row_count(), 1);
    }
    // Both TCP requests travelled over the one connection the client
    // dialled, which is back in its pool.
    assert_eq!(rig.net.metrics().counter("net.connections").get(), 1);
    assert_eq!(rig.client.pooled(), 1);
    let stats = rig.front.stats();
    assert_eq!((stats.accepted, stats.completed), (4, 4));
}
