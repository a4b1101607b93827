//! The production executor under either planner must be observationally
//! equivalent to the reference oracle (naive Cartesian-product executor,
//! syntactic FROM order, unpruned plans, no memo): the same row multiset
//! for every query, and — with dependent-UDTF memoization off — the same
//! multiset of non-FDBS ("architecture") charges, since composition
//! strategy and join order are FDBS-internal concerns that must never leak
//! into what the paper measures about the architectures. Part A drives
//! generated join/filter/DISTINCT/aggregate queries (including 3-way joins
//! over skewed-NDV columns) straight into an [`fedwf::fdbs::Fdbs`]; Part B
//! replays the paper's Fig. 5 workload on all four integration
//! architectures under both executors.

use std::sync::Arc;

use fedwf::core::{
    paper_functions, ArchitectureKind, IntegrationConfig, IntegrationServer, Request,
};
use fedwf::fdbs::{
    ChargeItem, ChargeSpec, ExecMode, ExecOptions, Fdbs, PlannerMode, RelstoreServer, Udtf,
};
use fedwf::relstore::Database;
use fedwf::sim::{Charge, Component, CostModel, Meter};
use fedwf::types::check;
use fedwf::types::rng::Rng;
use fedwf::types::{DataType, Ident, Row, Schema, Table, Value};
use fedwf_bench::args_for;

// ---------------------------------------------------------------------------
// Part A: generated queries against one FDBS instance
// ---------------------------------------------------------------------------

/// A join key in 0..10 (guaranteed collisions), sometimes NULL — NULL keys
/// must be dropped identically by the residual filter and the hash join.
/// `null_p` is the NULL probability; NULL-heavy federations push it up so
/// the validity bitmaps in the columnar path carry real weight.
fn gen_key(rng: &mut Rng, null_p: f64) -> Value {
    if rng.gen_bool(null_p) {
        Value::Null
    } else {
        Value::Int(rng.range_i32(0, 9))
    }
}

fn insert_rows(fdbs: &Fdbs, table: &str, rows: &[String]) {
    if rows.is_empty() {
        return;
    }
    let mut meter = Meter::new();
    fdbs.execute(
        &format!("INSERT INTO {table} VALUES {}", rows.join(", ")),
        &mut meter,
    )
    .unwrap();
}

fn render_lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        other => other.render(),
    }
}

/// One randomized federation: local T1(K, V, S), local-or-foreign
/// T2(K, W) (local sometimes carries a unique index on K, the
/// index-probe-join path), and a deterministic dependent UDTF with an
/// architecture charge spec. A quarter of the federations are NULL-heavy
/// (60% NULL keys, NULLable V) and mix empty strings into S, so the
/// columnar validity bitmaps and varchar offset pairs get exercised on
/// degenerate shapes, not just the happy path.
fn gen_federation(rng: &mut Rng) -> Fdbs {
    let fdbs = Fdbs::new(CostModel::default());
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE T1 (K INT, V INT, S VARCHAR)", &mut meter)
        .unwrap();

    let null_p = if rng.gen_bool(0.25) { 0.6 } else { 0.15 };
    let n1 = rng.range_usize(0, 30);
    let rows: Vec<String> = (0..n1)
        .map(|_| {
            let v = if rng.gen_bool(null_p / 4.0) {
                "NULL".to_string()
            } else {
                rng.range_i32(-50, 50).to_string()
            };
            // Empty strings are the varchar-offset edge case: two equal
            // adjacent offsets, zero bytes appended.
            let s = if rng.gen_bool(0.2) {
                String::new()
            } else {
                rng.ascii_string(b"abcdefgh", 4)
            };
            format!("({}, {v}, '{s}')", render_lit(&gen_key(rng, null_p)))
        })
        .collect();
    insert_rows(&fdbs, "T1", &rows);

    let n2 = rng.range_usize(0, 30);
    let foreign = rng.gen_bool(0.3);
    let indexed = !foreign && rng.gen_bool(0.4);
    if foreign {
        let remote = Database::new("remote");
        remote
            .create_table(
                "T2R",
                Arc::new(Schema::of(&[("K", DataType::Int), ("W", DataType::Int)])),
            )
            .unwrap();
        for _ in 0..n2 {
            remote
                .insert(
                    "T2R",
                    Row::new(vec![
                        gen_key(rng, null_p),
                        Value::Int(rng.range_i32(-50, 50)),
                    ]),
                )
                .unwrap();
        }
        fdbs.catalog()
            .register_foreign_table(
                "T2",
                Arc::new(RelstoreServer::new("erp", Arc::new(remote))),
                "T2R",
            )
            .unwrap();
    } else {
        fdbs.execute("CREATE TABLE T2 (K INT, W INT)", &mut meter)
            .unwrap();
        if indexed {
            // A unique index demands distinct keys; cover the
            // index-probe-join path with keys 0..n2.
            fdbs.execute("CREATE UNIQUE INDEX t2_k ON T2 (K)", &mut meter)
                .unwrap();
            let rows: Vec<String> = (0..n2.min(10))
                .map(|k| format!("({k}, {})", rng.range_i32(-50, 50)))
                .collect();
            insert_rows(&fdbs, "T2", &rows);
        } else {
            let rows: Vec<String> = (0..n2)
                .map(|_| {
                    format!(
                        "({}, {})",
                        render_lit(&gen_key(rng, null_p)),
                        rng.range_i32(-50, 50)
                    )
                })
                .collect();
            insert_rows(&fdbs, "T2", &rows);
        }
    }

    // T3 gives the planner a genuine 3-way reorder decision with *skewed*
    // NDV: most keys collapse onto one hot value, so equality selectivity
    // estimated from NDV is badly wrong in a way the equivalence contract
    // must absorb (a bad plan may be slow, never incorrect).
    fdbs.execute("CREATE TABLE T3 (K INT, Z INT)", &mut meter)
        .unwrap();
    let n3 = rng.range_usize(0, 40);
    let hot = rng.range_i32(0, 9);
    let rows: Vec<String> = (0..n3)
        .map(|_| {
            let k = if rng.gen_bool(0.85) {
                Value::Int(hot)
            } else {
                gen_key(rng, null_p)
            };
            format!("({}, {})", render_lit(&k), rng.range_i32(-50, 50))
        })
        .collect();
    insert_rows(&fdbs, "T3", &rows);

    // Deterministic dependent UDTF with an A-UDTF-style charge spec, so a
    // divergence in invocation counts shows up in the charge multiset.
    fdbs.register_udtf(
        Udtf::native(
            "Dep",
            vec![(Ident::new("K"), DataType::Int)],
            Arc::new(Schema::of(&[("M", DataType::Int)])),
            |args, _m| {
                let mut t = Table::new(Arc::new(Schema::of(&[("M", DataType::Int)])));
                if let Some(k) = args[0].as_i64() {
                    for i in 0..k.rem_euclid(3) {
                        t.push(Row::new(vec![Value::Int((k * 10 + i) as i32)]))?;
                    }
                }
                Ok(t)
            },
        )
        .with_charges(ChargeSpec {
            on_start: vec![
                ChargeItem::new(Component::Udtf, "Start A-UDTF", 7),
                ChargeItem::new(Component::Rmi, "RMI call", 5),
            ],
            on_finish: vec![ChargeItem::new(Component::Udtf, "Finish A-UDTF", 3)],
        }),
    )
    .unwrap();

    // Half the federations carry fresh statistics, half plan on defaults —
    // the cost-based planner must be equivalent either way.
    if rng.gen_bool(0.5) {
        fdbs.analyze().unwrap();
    }
    fdbs
}

fn gen_query(rng: &mut Rng) -> String {
    match rng.range_usize(0, 10) {
        0 => "SELECT A.V, B.W FROM T1 AS A, T2 AS B WHERE B.K = A.K".to_string(),
        1 => format!(
            "SELECT A.S, B.W FROM T1 AS A, T2 AS B WHERE B.K = A.K AND B.W > {}",
            rng.range_i32(-50, 50)
        ),
        2 => "SELECT DISTINCT A.K FROM T1 AS A".to_string(),
        3 => "SELECT A.K, COUNT(*) AS c FROM T1 AS A, T2 AS B \
              WHERE B.K = A.K GROUP BY A.K ORDER BY 2 DESC"
            .to_string(),
        4 => "SELECT A.V, D.M FROM T1 AS A, TABLE (Dep(A.K)) AS D".to_string(),
        5 => {
            "SELECT COUNT(*) AS n, SUM(A.V) AS s FROM T1 AS A, T2 AS B WHERE B.K = A.K".to_string()
        }
        // Single-table LIMIT: every executor scans T1 in slot order, so
        // the first-N prefix (and its early exit) must agree everywhere.
        6 => format!(
            "SELECT A.K, A.S FROM T1 AS A WHERE A.V > {} LIMIT {}",
            rng.range_i32(-50, 50),
            rng.range_usize(1, 8)
        ),
        // Empty-string equality: the varchar kernel must treat a
        // zero-length offset pair exactly like the row comparator does.
        7 => "SELECT A.K, A.V FROM T1 AS A WHERE A.S = ''".to_string(),
        // 3-way joins over the skewed-NDV table: real reorder decisions
        // for the cost-based planner, with conjuncts that bind across
        // different table pairs depending on the chosen order.
        8 => "SELECT A.V, B.W, C.Z FROM T1 AS A, T2 AS B, T3 AS C \
              WHERE B.K = A.K AND C.K = A.K"
            .to_string(),
        _ => format!(
            "SELECT COUNT(*) AS n, SUM(C.Z) AS z FROM T1 AS A, T2 AS B, T3 AS C \
             WHERE B.K = A.K AND C.K = B.K AND A.V > {}",
            rng.range_i32(-50, 50)
        ),
    }
}

/// The row multiset, as sorted rendered rows.
fn row_multiset(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = t
        .rows()
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(Value::render)
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// The reference oracle: the naive cross-product executor in syntactic
/// FROM order (its plans are bound unpruned), memo off.
fn oracle() -> ExecOptions {
    ExecOptions::default()
        .mode(ExecMode::Naive)
        .udtf_memo(false)
        .planner(PlannerMode::Syntactic)
}

/// The architecture charge multiset: everything except FDBS-internal
/// composition work, keyed without virtual start times (the two executors
/// legitimately book different FDBS durations in between).
/// Positional call through the unified [`Request`] surface.
fn call_fn(s: &IntegrationServer, name: &str, args: &[Value]) -> fedwf::core::Outcome {
    s.execute(&Request::function(name).params(args)).unwrap()
}

fn arch_charges(charges: &[Charge]) -> Vec<(Component, String, u64)> {
    let mut keys: Vec<_> = charges
        .iter()
        .filter(|c| c.component != Component::Fdbs)
        .map(|c| (c.component, c.step.to_string(), c.duration_us))
        .collect();
    keys.sort();
    keys
}

fn udtf_invocation_charges(charges: &[Charge]) -> usize {
    charges
        .iter()
        .filter(|c| c.component == Component::Udtf)
        .count()
}

#[test]
fn generated_queries_agree_between_executors() {
    check::cases(48, |rng| {
        let fdbs = gen_federation(rng);
        for _ in 0..rng.range_usize(1, 4) {
            let sql = gen_query(rng);

            fdbs.set_options(oracle());
            let mut naive_meter = Meter::new();
            let naive = fdbs.execute(&sql, &mut naive_meter).unwrap();
            let naive_rows = row_multiset(&naive);
            let naive_arch = arch_charges(naive_meter.charges());

            // Production under either planner must reproduce the oracle's
            // row multiset and architecture charge multiset — join
            // reordering may change FDBS-internal composition work, never
            // the rows and never the charges the paper attributes to the
            // architectures.
            for planner in [PlannerMode::Syntactic, PlannerMode::CostBased] {
                fdbs.set_options(ExecOptions::default().planner(planner).udtf_memo(false));
                let mut meter = Meter::new();
                let got = fdbs.execute(&sql, &mut meter).unwrap();
                assert_eq!(
                    naive_rows,
                    row_multiset(&got),
                    "row multisets diverge for {sql} ({planner})"
                );
                assert_eq!(
                    naive_arch,
                    arch_charges(meter.charges()),
                    "architecture charges diverge for {sql} ({planner})"
                );
            }

            // Memoization may only *remove* dependent-UDTF invocations —
            // never change the rows. (The default configuration:
            // streaming, cost-based, memo on.)
            fdbs.set_options(ExecOptions::default());
            let mut memo_meter = Meter::new();
            let memoed = fdbs.execute(&sql, &mut memo_meter).unwrap();
            assert_eq!(
                naive_rows,
                row_multiset(&memoed),
                "memoized row multisets diverge for {sql}"
            );
            assert!(
                udtf_invocation_charges(memo_meter.charges())
                    <= udtf_invocation_charges(naive_meter.charges()),
                "memoization increased UDTF charges for {sql}"
            );
        }
    });
}

/// ORDER BY may reference a column the SELECT list never mentions; the
/// pruner must keep it in the step projection for the sort. The oracle's
/// unpruned plan agrees.
#[test]
fn order_by_on_non_projected_column_survives_pruning() {
    let fdbs = Fdbs::new(CostModel::zero());
    let mut meter = Meter::new();
    fdbs.execute_script(
        "CREATE TABLE T (K INT, V INT, S VARCHAR); \
         INSERT INTO T VALUES (3, 30, 'c'), (1, 10, 'a'), (2, 20, 'b');",
        &mut meter,
    )
    .unwrap();
    for mode in [ExecMode::Streaming, ExecMode::Naive] {
        fdbs.set_options(fdbs.options().mode(mode));
        let t = fdbs
            .execute("SELECT S FROM T ORDER BY V DESC", &mut meter)
            .unwrap();
        let got: Vec<String> = t.rows().iter().map(|r| r.values()[0].render()).collect();
        assert_eq!(got, ["c", "b", "a"], "{mode:?}");
    }
}

/// An index-probe join whose probed table contributes only non-key columns
/// to the output: the probe's scan keeps the table's original key numbering
/// while the returned rows arrive in the pruned layout.
#[test]
fn index_probe_join_with_pruned_projection() {
    let fdbs = Fdbs::new(CostModel::zero());
    let mut meter = Meter::new();
    fdbs.execute_script(
        "CREATE TABLE L (K INT, V INT); \
         CREATE TABLE R (A VARCHAR, K INT, W INT); \
         CREATE UNIQUE INDEX r_k ON R (K); \
         INSERT INTO L VALUES (1, 10), (2, 20), (2, 21), (9, 90); \
         INSERT INTO R VALUES ('x', 1, 100), ('y', 2, 200), ('z', 3, 300);",
        &mut meter,
    )
    .unwrap();
    // Only R.W is referenced downstream, so the pruned projection drops
    // both R.A and the key column R.K (the probe happens in storage).
    let sql = "SELECT L.V, B.W FROM L, R AS B WHERE B.K = L.K ORDER BY L.V";
    for mode in [ExecMode::Naive, ExecMode::Streaming] {
        for planner in [PlannerMode::Syntactic, PlannerMode::CostBased] {
            fdbs.set_options(ExecOptions::default().mode(mode).planner(planner));
            let t = fdbs.execute(sql, &mut meter).unwrap();
            assert_eq!(
                row_multiset(&t),
                ["10|100", "20|200", "21|200"].map(String::from),
                "({mode:?}, {planner})"
            );
        }
    }
    fdbs.set_options(ExecOptions::default());
}

/// Column batches hold 1024 rows, so a 2,600-row table spans three of
/// them. The VARCHAR column cycles empty strings, real strings, and NULLs
/// (the offset-pair edge cases), V carries a NULL stripe, and the LIMITs
/// land mid-batch — one inside the first batch's successor, one deep in
/// the third. On these single-table queries both executors scan in slot
/// order, so production must match the oracle *row for row, in order*.
#[test]
fn batch_boundary_limit_and_varchar_edges() {
    let fdbs = Fdbs::new(CostModel::zero());
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE T (K INT, V INT, S VARCHAR)", &mut meter)
        .unwrap();
    let rows: Vec<String> = (0..2_600)
        .map(|i: i32| {
            let s = match i % 3 {
                0 => "''".to_string(),
                1 => format!("'s{i}'"),
                _ => "NULL".to_string(),
            };
            let v = if i % 7 == 0 {
                "NULL".to_string()
            } else {
                (i % 100).to_string()
            };
            format!("({i}, {v}, {s})")
        })
        .collect();
    for chunk in rows.chunks(500) {
        insert_rows(&fdbs, "T", chunk);
    }

    let queries = [
        // LIMIT crosses the first 1024-row batch boundary mid-batch.
        "SELECT T.K, T.S FROM T LIMIT 1500",
        // Filter + LIMIT: the early exit lands in the third batch.
        "SELECT T.K FROM T WHERE T.V > 10 LIMIT 2200",
        // Zero-length offset pairs must compare equal to ''.
        "SELECT T.K FROM T WHERE T.S = ''",
        // NULL stripes across batches: validity bits drive the count.
        "SELECT COUNT(*) AS n FROM T WHERE T.V > 50",
        "SELECT T.V, COUNT(*) AS c FROM T GROUP BY T.V ORDER BY 1",
    ];
    for sql in queries {
        fdbs.set_options(oracle());
        let reference = fdbs.execute(sql, &mut meter).unwrap();
        fdbs.set_options(ExecOptions::default());
        let production = fdbs.execute(sql, &mut meter).unwrap();
        assert_eq!(
            reference, production,
            "ordered results diverge between the oracle and production for {sql}"
        );
    }
}

/// Each statement resolves the engine's options once: its plan-cache key,
/// its plan and every one of its operators see the same value while
/// another thread keeps reconfiguring the engine. Two dependent-UDTF steps
/// over repeated arguments make a split visible — one step memoized, the
/// other not — as a charge log equal to neither solo log.
#[test]
fn options_resolve_once_per_statement_under_concurrent_reconfiguration() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let fdbs = Fdbs::new(CostModel::default());
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE T (K INT)", &mut meter).unwrap();
    let keys: Vec<String> = (0..32).map(|i| format!("({})", i % 4)).collect();
    insert_rows(&fdbs, "T", &keys);
    for (name, column) in [("A", "M"), ("B", "N")] {
        fdbs.register_udtf(
            Udtf::native(
                name,
                vec![(Ident::new("K"), DataType::Int)],
                Arc::new(Schema::of(&[(column, DataType::Int)])),
                move |args, _m| Ok(Table::scalar(column, args[0].clone())),
            )
            .with_charges(ChargeSpec {
                on_start: vec![ChargeItem::new(Component::Udtf, "Start A-UDTF", 7)],
                on_finish: vec![ChargeItem::new(Component::Udtf, "Finish A-UDTF", 3)],
            }),
        )
        .unwrap();
    }
    let sql = "SELECT T.K, A.M, B.N FROM T, TABLE (A(T.K)) AS A, TABLE (B(T.K)) AS B";
    let options = |memo: bool| ExecOptions::default().udtf_memo(memo);

    // Solo logs of warm executions (the first run compiles).
    let solo = |memo: bool| {
        fdbs.set_options(options(memo));
        fdbs.execute(sql, &mut Meter::new()).unwrap();
        let mut m = Meter::new();
        let t = fdbs.execute(sql, &mut m).unwrap();
        (t, m.charges().to_vec())
    };
    let (table, memo_log) = solo(true);
    let (unmemoized, plain_log) = solo(false);
    assert_eq!(table, unmemoized);
    assert!(memo_log.len() < plain_log.len(), "the memo saved nothing");

    let done = AtomicBool::new(false);
    let splits: Vec<usize> = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut memo = false;
            while !done.load(Ordering::Relaxed) {
                memo = !memo;
                fdbs.set_options(options(memo));
            }
        });
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut split = 0;
                    for _ in 0..200 {
                        let mut m = Meter::new();
                        let Ok(t) = fdbs.execute(sql, &mut m) else {
                            split += 1;
                            continue;
                        };
                        let log = m.charges();
                        if t != table || (log != memo_log.as_slice() && log != plain_log.as_slice())
                        {
                            split += 1;
                        }
                    }
                    split
                })
            })
            .collect();
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        // Stop the reconfiguring thread before surfacing a worker panic.
        done.store(true, Ordering::Relaxed);
        joined
            .into_iter()
            .map(|w| w.expect("worker panicked"))
            .collect()
    });
    assert_eq!(
        splits, [0; 4],
        "executions per worker whose outcome matched neither solo run"
    );
}

// ---------------------------------------------------------------------------
// Part B: the paper's workload on all four architectures
// ---------------------------------------------------------------------------

#[test]
fn architectures_agree_between_executors() {
    for kind in [
        ArchitectureKind::Wfms,
        ArchitectureKind::SqlUdtf,
        ArchitectureKind::JavaUdtf,
        ArchitectureKind::SimpleUdtf,
    ] {
        let make = || {
            let s = IntegrationServer::new(IntegrationConfig::default().with_architecture(kind))
                .unwrap();
            s.boot();
            s
        };
        let naive = make();
        {
            let f = naive.fdbs();
            f.set_options(f.options().mode(ExecMode::Naive));
        }
        let aware = make();
        {
            let f = aware.fdbs();
            f.set_options(f.options().udtf_memo(false));
        }

        for (spec, _) in paper_functions::fig5_workload() {
            // The cyclic case is undeployable on the UDTF architectures
            // (the paper's Section 3 complexity result) — but the two
            // executors must agree on deployability too.
            let d = naive.deploy(&spec);
            assert_eq!(d.is_ok(), aware.deploy(&spec).is_ok(), "{}", spec.name);
            if d.is_err() {
                continue;
            }
            let args = args_for(&naive, &spec);
            // First (cold) and repeated (warm) calls must both agree.
            for tier in ["first call", "repeated call"] {
                let a = call_fn(&naive, spec.name.as_str(), &args);
                let b = call_fn(&aware, spec.name.as_str(), &args);
                assert_eq!(
                    a.table,
                    b.table,
                    "{} on {} ({tier}): result tables diverge",
                    spec.name,
                    kind.name()
                );
                assert_eq!(
                    arch_charges(a.meter.charges()),
                    arch_charges(b.meter.charges()),
                    "{} on {} ({tier}): architecture charges diverge",
                    spec.name,
                    kind.name()
                );
            }
        }
    }
}

/// With memoization left on (the default), the four architectures must
/// still produce the same result tables as the naive reference.
#[test]
fn memoized_executor_preserves_results_on_all_architectures() {
    for kind in [
        ArchitectureKind::Wfms,
        ArchitectureKind::SqlUdtf,
        ArchitectureKind::JavaUdtf,
        ArchitectureKind::SimpleUdtf,
    ] {
        let make = || {
            let s = IntegrationServer::new(IntegrationConfig::default().with_architecture(kind))
                .unwrap();
            s.boot();
            s
        };
        let naive = make();
        {
            let f = naive.fdbs();
            f.set_options(f.options().mode(ExecMode::Naive));
        }
        let memoed = make();

        for (spec, _) in paper_functions::fig5_workload() {
            if naive.deploy(&spec).is_err() {
                continue; // undeployable on this architecture (cyclic case)
            }
            memoed.deploy(&spec).unwrap();
            let args = args_for(&naive, &spec);
            let a = call_fn(&naive, spec.name.as_str(), &args);
            let b = call_fn(&memoed, spec.name.as_str(), &args);
            assert_eq!(
                a.table,
                b.table,
                "{} on {}: memoized result diverges",
                spec.name,
                kind.name()
            );
        }
    }
}
