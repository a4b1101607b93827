//! End-to-end observability: golden span trees per architecture, the
//! EXPLAIN ANALYZE conformance check, agreement between the charge-log
//! and trace-derived component breakdowns, and the zero-cost-when-off
//! guarantee of tracing.
//!
//! The golden trees below are the mechanical reproduction of the paper's
//! Fig. 6: one warm `GetSuppQual` call per architecture, with every layer
//! boundary — FDBS, SQL/MED wrapper, controller, WfMS navigator,
//! activities, local functions — visible as a span.

use fedwf::core::{paper_functions, ArchitectureKind, IntegrationServer, Request};
use fedwf::sim::Component;
use fedwf::types::Value;
use fedwf_bench::experiments::{args_for, make_server};

/// A booted server with `GetSuppQual` deployed and warmed, plus the
/// resolved call arguments.
fn warm_get_supp_qual(kind: ArchitectureKind) -> (IntegrationServer, Vec<Value>) {
    let server = make_server(kind);
    let spec = paper_functions::get_supp_qual();
    server
        .deploy(&spec)
        .expect("GetSuppQual deploys everywhere");
    let args = args_for(server.scenario(), &spec);
    server
        .execute(&Request::function(spec.name.as_str()).params(args.as_slice()))
        .expect("warm-up call");
    (server, args)
}

fn traced_outcome(server: &IntegrationServer, args: &[Value]) -> fedwf::core::Outcome {
    server
        .execute(&Request::function("GetSuppQual").params(args).traced(true))
        .expect("traced warm call")
}

/// The preorder `(name, component)` skeleton of one architecture's warm
/// `GetSuppQual` trace. Counters and times are asserted separately — the
/// *shape* is the golden part.
fn skeleton(kind: ArchitectureKind) -> Vec<(String, Component)> {
    let (server, args) = warm_get_supp_qual(kind);
    let outcome = traced_outcome(&server, &args);
    let trace = outcome.trace.as_ref().expect("tracing was requested");
    assert_eq!(
        trace.start_us,
        0,
        "{}: root opens at time zero",
        kind.name()
    );
    assert_eq!(
        trace.end_us,
        outcome.elapsed_us(),
        "{}: root covers the whole call",
        kind.name()
    );
    trace
        .flatten()
        .into_iter()
        .map(|n| (n.name.to_string(), n.component))
        .collect()
}

#[test]
fn golden_span_tree_wfms() {
    use Component::*;
    let expect: Vec<(&str, Component)> = vec![
        ("request GetSuppQual", Controller),
        ("fdbs.execute", Fdbs),
        ("udtf GetSuppQual", Udtf),
        ("wrapper GetSuppQual", Rmi),
        ("controller.bridge", Controller),
        ("wfms.process GetSuppQual", WfEngine),
        ("activity GSN", Activity),
        ("local GetSupplierNo", LocalFunction),
        ("activity GQ", Activity),
        ("local GetQuality", LocalFunction),
        ("seed", Fdbs),
        ("cross", Fdbs),
        ("project", Fdbs),
    ];
    let got = skeleton(ArchitectureKind::Wfms);
    let got: Vec<(&str, Component)> = got.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    assert_eq!(got, expect);
}

#[test]
fn golden_span_tree_sql_udtf() {
    use Component::*;
    let expect: Vec<(&str, Component)> = vec![
        ("request GetSuppQual", Controller),
        ("fdbs.execute", Fdbs),
        ("udtf GetSuppQual", Udtf),
        ("fdbs.fn GetSuppQual", Fdbs),
        ("udtf GetSupplierNo", Udtf),
        ("controller.dispatch", Controller),
        ("local GetSupplierNo", LocalFunction),
        ("udtf GetQuality", Udtf),
        ("controller.dispatch", Controller),
        ("local GetQuality", LocalFunction),
        ("seed", Fdbs),
        ("cross", Fdbs),
        ("dependent-udtf GetQuality", Fdbs),
        ("project", Fdbs),
        ("seed", Fdbs),
        ("cross", Fdbs),
        ("project", Fdbs),
    ];
    let got = skeleton(ArchitectureKind::SqlUdtf);
    let got: Vec<(&str, Component)> = got.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    assert_eq!(got, expect);
}

#[test]
fn golden_span_tree_java_udtf() {
    use Component::*;
    let expect: Vec<(&str, Component)> = vec![
        ("request GetSuppQual", Controller),
        ("fdbs.execute", Fdbs),
        ("udtf GetSuppQual", Udtf),
        ("fdbs.execute", Fdbs),
        ("udtf GetSupplierNo", Udtf),
        ("controller.dispatch", Controller),
        ("local GetSupplierNo", LocalFunction),
        ("seed", Fdbs),
        ("cross", Fdbs),
        ("project", Fdbs),
        ("fdbs.execute", Fdbs),
        ("udtf GetQuality", Udtf),
        ("controller.dispatch", Controller),
        ("local GetQuality", LocalFunction),
        ("seed", Fdbs),
        ("cross", Fdbs),
        ("project", Fdbs),
        ("seed", Fdbs),
        ("cross", Fdbs),
        ("project", Fdbs),
    ];
    let got = skeleton(ArchitectureKind::JavaUdtf);
    let got: Vec<(&str, Component)> = got.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    assert_eq!(got, expect);
}

#[test]
fn golden_span_tree_simple_udtf() {
    use Component::*;
    let expect: Vec<(&str, Component)> = vec![
        ("request GetSuppQual", Controller),
        ("fdbs.execute", Fdbs),
        ("udtf GetSupplierNo", Udtf),
        ("controller.dispatch", Controller),
        ("local GetSupplierNo", LocalFunction),
        ("udtf GetQuality", Udtf),
        ("controller.dispatch", Controller),
        ("local GetQuality", LocalFunction),
        ("seed", Fdbs),
        ("cross", Fdbs),
        ("dependent-udtf GetQuality", Fdbs),
        ("project", Fdbs),
    ];
    let got = skeleton(ArchitectureKind::SimpleUdtf);
    let got: Vec<(&str, Component)> = got.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    assert_eq!(got, expect);
}

/// Satellite cross-check: on the whole Fig. 5 workload, across all four
/// architectures, the component breakdown derived from the span tree must
/// agree — line by line, microsecond by microsecond — with the breakdown
/// grouped from the flat charge log.
#[test]
fn trace_breakdown_agrees_with_charge_log_on_fig5_workload() {
    for kind in ArchitectureKind::ALL {
        let server = make_server(kind);
        for (spec, _) in paper_functions::fig5_workload() {
            if !server.architecture().supports(&spec) {
                continue;
            }
            server.deploy(&spec).expect("supported spec deploys");
            let args = args_for(server.scenario(), &spec);
            let name = spec.name.as_str();
            server
                .execute(&Request::function(name).params(args.as_slice()))
                .expect("warm-up");

            let outcome = server
                .execute(&Request::function(name).params(args.as_slice()).traced(true))
                .expect("traced call");
            let from_charges = outcome.breakdown_by_component(name);
            let from_trace = outcome
                .trace_breakdown(name)
                .expect("tracing was requested");
            assert_eq!(
                from_charges.lines,
                from_trace.lines,
                "{} on {}: trace-derived breakdown diverges from the charge log",
                name,
                kind.name()
            );
        }
    }
}

/// EXPLAIN ANALYZE executes the statement and reports per-operator
/// actuals that match what the plain statement does.
#[test]
fn explain_analyze_actuals_match_the_plain_select() {
    let (server, args) = warm_get_supp_qual(ArchitectureKind::SqlUdtf);
    let sql = "SELECT T.Qual FROM TABLE (GetSuppQual(S)) AS T";

    let plain = server
        .execute(&Request::sql(sql).bind("S", args[0].clone()))
        .expect("plain SELECT runs");
    assert_eq!(plain.table.row_count(), 1);
    let analyzed = server
        .execute(&Request::sql(format!("EXPLAIN ANALYZE {sql}")).bind("S", args[0].clone()))
        .expect("EXPLAIN ANALYZE runs");

    let text: Vec<String> = (0..analyzed.table.row_count())
        .map(|i| match analyzed.table.value(i, "plan") {
            Some(Value::Varchar(s)) => s.to_string(),
            other => panic!("plan row {i} is not text: {other:?}"),
        })
        .collect();
    let joined = text.join("\n");

    // The executed-root span reports the true result cardinality...
    assert!(
        joined.contains(&format!("rows_out={}", plain.table.row_count())),
        "missing result cardinality in:\n{joined}"
    );
    // ...the summary line carries the materialization actuals...
    assert!(
        joined.contains("Actuals: elapsed="),
        "missing actuals summary in:\n{joined}"
    );
    // ...the federated function invoked by the statement is a span with
    // its actual output cardinality...
    let udtf_line = text
        .iter()
        .find(|l| l.contains("udtf GetSuppQual"))
        .unwrap_or_else(|| panic!("no udtf span in:\n{joined}"));
    assert!(
        udtf_line.contains("rows=1"),
        "udtf span lacks actuals: {udtf_line}"
    );
    // ...and every pipeline stage reports actual batches/rows/bytes.
    let source_line = text
        .iter()
        .find(|l| l.contains("seed "))
        .unwrap_or_else(|| panic!("no source span in:\n{joined}"));
    assert!(
        source_line.contains("rows=") && source_line.contains("batches="),
        "source span lacks actuals: {source_line}"
    );
    // EXPLAIN ANALYZE is the one consumer that samples real time per span.
    assert!(
        joined.contains("wall="),
        "per-span wall time missing in:\n{joined}"
    );
}

/// Tracing off is free: the virtual execution is bit-identical — same
/// charge log, same clock, same materialization counters — and no trace
/// is allocated.
#[test]
fn disabled_tracing_is_virtually_invisible() {
    for kind in ArchitectureKind::ALL {
        let (server, args) = warm_get_supp_qual(kind);
        let untraced = server
            .execute(&Request::function("GetSuppQual").params(args.as_slice()))
            .expect("untraced call");
        let traced = traced_outcome(&server, &args);

        assert!(untraced.trace.is_none());
        assert!(traced.trace.is_some());
        assert_eq!(
            untraced.meter.charges(),
            traced.meter.charges(),
            "{}: tracing changed the charge log",
            kind.name()
        );
        assert_eq!(untraced.elapsed_us(), traced.elapsed_us());
        assert_eq!(
            untraced.meter.rows_materialized(),
            traced.meter.rows_materialized()
        );
        assert_eq!(
            untraced.meter.bytes_materialized(),
            traced.meter.bytes_materialized()
        );
    }
}

/// The materialization counters must fire exactly where the executor
/// materializes. A pipeline breaker (ORDER BY) books exactly the rows it
/// buffers — counted here from the data — in typed column-vector bytes
/// (validity words included): nonzero, and no larger than the same rows
/// boxed. A pure scan→filter→project pipeline books zero: that is the
/// streaming guarantee. A counter silently stuck at zero on the breaker
/// query means a batch path lost its tally call.
#[test]
fn materialization_counters_fire_at_pipeline_breakers() {
    use fedwf::fdbs::Fdbs;
    use fedwf::sim::{CostModel, Meter};
    use fedwf::types::{Row, Value};

    let fdbs = Fdbs::new(CostModel::zero());
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE T (K INT, V INT, S VARCHAR)", &mut meter)
        .unwrap();
    let rows: Vec<String> = (0..200)
        .map(|i| format!("({i}, {}, 's{i}')", i % 7))
        .collect();
    fdbs.execute(
        &format!("INSERT INTO T VALUES {}", rows.join(", ")),
        &mut meter,
    )
    .unwrap();

    let run = |sql: &str| {
        let mut m = Meter::new();
        fdbs.execute(sql, &mut m).unwrap();
        (m.rows_materialized(), m.bytes_materialized())
    };

    // `V > 1` is pushed into the scan, so the sort buffer holds the
    // pruned (K, S) rows of every i with i % 7 > 1.
    let buffered: Vec<Row> = (0..200)
        .filter(|i| i % 7 > 1)
        .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("s{i}"))]))
        .collect();
    let boxed_bytes: usize = buffered.iter().map(Row::approx_bytes).sum();
    let (rows, bytes) = run("SELECT T.K, T.S FROM T WHERE T.V > 1 ORDER BY T.K");
    assert_eq!(
        rows,
        buffered.len() as u64,
        "the sort buffer booked a row count other than the rows it holds"
    );
    assert!(
        bytes > 0 && bytes <= boxed_bytes as u64,
        "the sort buffer must book nonzero column-vector bytes within the \
         boxed-row footprint (cols {bytes}, boxed rows {boxed_bytes})"
    );

    assert_eq!(
        run("SELECT T.K, T.S FROM T WHERE T.V > 1"),
        (0, 0),
        "breaker-free pipeline materialized something"
    );
}

/// The request metrics delta: each execution shows up in the server's
/// registry exactly once.
/// Every outcome is that request's own: on every architecture, each
/// Fig. 5 function the architecture deploys, a SQL query over a function
/// and each `sql_mix` shape, traced and untraced, executed from 8 threads
/// at once, yields exactly what a solo execution yields — table, virtual
/// clock, charge log, materialization counters, span tree and metrics
/// delta. Many workflow instances navigate on many threads here at once.
/// Each parameterized `sql_mix` shape runs under four bindings through its
/// one cached plan, so a host-variable value bound into the shared plan
/// instead of into the execution would show up in another binding's
/// outcome.
///
/// A ninth thread calls `clear_caches` in a loop meanwhile. An outcome
/// that differs from its solo execution differs only by warm-up charges
/// ([`is_warm_up`]; see [`assert_only_warm_up_differs`]). A call after a
/// clear may find some of its caches warm again, and correctly so: SQL
/// requests are not single-flight, and a Java-UDTF function's inner
/// statements (`SELECT T.* FROM TABLE (GetQuality(v…)) AS T`) are shared
/// with every function making the same call — the paper's
/// after-other-function tier.
#[test]
fn concurrent_metrics_deltas_equal_solo_deltas() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    let mut rewarmed = 0;
    for kind in ArchitectureKind::ALL {
        let server = make_server(kind);
        let mut requests = Vec::new();
        for (spec, _) in paper_functions::fig5_workload() {
            if server.architecture().supports(&spec) {
                server.deploy(&spec).expect("deploy");
                let args = args_for(server.scenario(), &spec);
                requests.push(Request::function(spec.name.as_str()).params(args.as_slice()));
            }
        }
        // The simple-UDTF architecture composes a function in the
        // application, so SQL cannot name it (`fed_join` and the query
        // over `GetSuppQual`).
        let sql_sees_functions = kind != ArchitectureKind::SimpleUdtf;
        if sql_sees_functions {
            let supplier = Value::str(server.scenario().well_known_supplier_name());
            requests.push(
                Request::sql("SELECT T.Qual FROM TABLE (GetSuppQual(S)) AS T").bind("S", supplier),
            );
        }
        fedwf_bench::network::load_sql_mix_federation(&server).expect("sql_mix federation");
        requests.extend(
            fedwf_bench::network::sql_mix_requests()
                .into_iter()
                .filter(|(shape, _)| sql_sees_functions || *shape != "fed_join")
                .flat_map(|(_, r)| four_bindings(r)),
        );
        let requests: Vec<Request> = requests
            .into_iter()
            .flat_map(|r| [r.clone().traced(false), r.traced(true)])
            .collect();
        // Warm every plan, template and boot first, so each execution
        // below is the repeated-call tier.
        for r in &requests {
            server.execute(r).expect("warm-up");
        }
        let solo: Vec<Observed> = requests
            .iter()
            .map(|r| Observed::of(server.execute(r).expect("solo")))
            .collect();
        assert!(solo
            .iter()
            .any(|o| o.metrics_delta.get("server.calls") == Some(1)));
        assert!(solo
            .iter()
            .any(|o| o.metrics_delta.get("server.queries") == Some(1)));
        for (r, o) in requests.iter().zip(&solo) {
            assert_eq!(o.trace.is_some(), r.trace_requested(), "{}", r.label());
        }

        let done = AtomicBool::new(false);
        let joined: Vec<_> = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    server.clear_caches();
                    std::thread::yield_now();
                }
            });
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (server, requests, solo) = (&server, &requests, &solo);
                    scope.spawn(move || {
                        let mut rewarmed = 0;
                        for i in 0..PER_THREAD {
                            let k = (t * 7 + i) % requests.len();
                            let outcome = server.execute(&requests[k]).expect("concurrent request");
                            let observed = Observed::of(outcome);
                            if observed != solo[k] {
                                let context = format!(
                                    "{kind:?}: {} (traced: {}), thread {t}, request {i}",
                                    requests[k].label(),
                                    requests[k].trace_requested()
                                );
                                assert_only_warm_up_differs(&observed, &solo[k], &context);
                                rewarmed += 1;
                            }
                        }
                        rewarmed
                    })
                })
                .collect();
            let joined = threads.into_iter().map(|t| t.join()).collect();
            // Stop the clearing thread before surfacing a client panic.
            done.store(true, Ordering::Relaxed);
            joined
        });
        for t in joined {
            rewarmed += t.expect("client thread");
        }
    }
    assert!(rewarmed > 0, "no outcome met a cleared cache");
}

/// Charges a call books only while one of its caches is cold.
fn is_warm_up(charge: &fedwf::sim::Charge) -> bool {
    *charge.step == *"Compile statement" || charge.step.starts_with("Load workflow template ")
}

/// `observed` carries warm-up charges, and without them equals its solo
/// warm execution `solo`: the same table, the same sequence of
/// (component, step, duration) and the same metrics counts, while its
/// `server.elapsed_us.sum` is its own virtual clock.
fn assert_only_warm_up_differs(observed: &Observed, solo: &Observed, context: &str) {
    assert!(
        observed.charges.iter().any(is_warm_up),
        "{context}: differs from its solo execution without a warm-up charge"
    );
    assert_eq!(observed.table, solo.table, "{context}: table");
    let steps = |o: &Observed| -> Vec<(Component, String, u64)> {
        o.charges
            .iter()
            .filter(|c| !is_warm_up(c))
            .map(|c| (c.component, c.step.to_string(), c.duration_us))
            .collect()
    };
    assert_eq!(steps(observed), steps(solo), "{context}: charges");
    let counts = |o: &Observed| -> Vec<(String, i64)> {
        o.metrics_delta
            .iter()
            .filter(|(name, _)| *name != "server.elapsed_us.sum")
            .map(|(name, v)| (name.to_string(), v))
            .collect()
    };
    assert_eq!(counts(observed), counts(solo), "{context}: metrics counts");
    assert_eq!(
        observed.metrics_delta.get("server.elapsed_us.sum"),
        Some(observed.now_us as i64),
        "{context}: server.elapsed_us.sum"
    );
}

/// A parameterized SQL request under four distinct bindings, each host
/// variable shifted by 0 to 3 (all still inside the `sql_mix` federation's
/// keys and days); a request that binds nothing stays as it is.
fn four_bindings(request: Request) -> Vec<Request> {
    let named = request.params_ref().named();
    let fedwf::core::Target::Sql(sql) = request.target() else {
        return vec![request];
    };
    if named.is_empty() {
        return vec![request];
    }
    (0..4)
        .map(|shift| {
            named
                .iter()
                .fold(Request::sql(sql.clone()), |r, (name, v)| {
                    let Value::Int(v) = v else {
                        panic!("sql_mix binds INT host variables, got {v:?}");
                    };
                    r.bind(name.clone(), v + shift)
                })
        })
        .collect()
}

/// Everything an [`fedwf::core::Outcome`] carries, comparable as a whole.
#[derive(Debug, PartialEq)]
struct Observed {
    table: fedwf::types::Table,
    now_us: u64,
    charges: Vec<fedwf::sim::Charge>,
    materialized: (u64, u64),
    trace: Option<fedwf::sim::TraceNode>,
    metrics_delta: fedwf::sim::MetricsSnapshot,
}

impl Observed {
    fn of(outcome: fedwf::core::Outcome) -> Observed {
        Observed {
            now_us: outcome.meter.now_us(),
            materialized: (
                outcome.meter.rows_materialized(),
                outcome.meter.bytes_materialized(),
            ),
            charges: outcome.meter.charges().to_vec(),
            table: outcome.table,
            trace: outcome.trace,
            metrics_delta: outcome.metrics_delta,
        }
    }
}

#[test]
fn outcome_metrics_delta_counts_this_request() {
    let (server, args) = warm_get_supp_qual(ArchitectureKind::Wfms);
    let outcome = server
        .execute(&Request::function("GetSuppQual").params(args.as_slice()))
        .expect("call");
    assert_eq!(outcome.metrics_delta.get("server.calls"), Some(1));
    assert_eq!(outcome.metrics_delta.get("server.errors"), None);
}
