//! The production executor under either planner must be observationally
//! equivalent to the reference oracle (naive Cartesian-product executor,
//! syntactic FROM order, unpruned plans, no memo): the same row multiset
//! for every query, and — with dependent-UDTF memoization off — the same
//! multiset of non-FDBS ("architecture") charges, since composition
//! strategy and join order are FDBS-internal concerns that must never leak
//! into what the paper measures about the architectures. Part A drives
//! generated join/filter/DISTINCT/aggregate queries (including 3-way joins
//! over skewed-NDV columns) straight into one [`fedwf::fdbs::Fdbs`] per
//! configuration, each over the same generated federation; Part B replays
//! the paper's Fig. 5 workload on all four integration architectures under
//! both executors; Part C holds host variables against the same statements
//! with their values inlined.

use std::sync::Arc;

use fedwf::appsys::{build_scenario, DataGenConfig, Scenario};
use fedwf::core::{
    paper_functions, Architecture, ArchitectureKind, IntegrationConfig, IntegrationServer,
    JavaUdtfArchitecture, Request, SimpleUdtfArchitecture, SqlUdtfArchitecture, WfmsArchitecture,
};
use fedwf::fdbs::{
    ChargeItem, ChargeSpec, ExecMode, ExecOptions, Fdbs, PlannerMode, RelstoreServer, Udtf,
};
use fedwf::relstore::{Database, IndexKind};
use fedwf::sim::{Charge, Component, CostModel, Meter};
use fedwf::types::check;
use fedwf::types::rng::Rng;
use fedwf::types::{DataType, ErrorLayer, Ident, Row, Schema, Table, Value};
use fedwf::wrapper::{Controller, WfmsWrapper};
use fedwf_bench::args_for;

// ---------------------------------------------------------------------------
// Part A: generated queries, one FDBS instance per configuration
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
/// degenerate shapes, not just the happy path. Built on an engine under
/// `options`.
fn gen_federation(rng: &mut Rng, options: ExecOptions) -> Fdbs {
    let fdbs = Fdbs::new(CostModel::default()).with_options(options);
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
        // One engine per configuration, each over the federation the case
        // draws: the others from clones of its generator, so all agree.
        let naive_fdbs = gen_federation(&mut rng.clone(), oracle());
        let planned = [PlannerMode::Syntactic, PlannerMode::CostBased].map(|planner| {
            let options = ExecOptions::default().planner(planner).udtf_memo(false);
            (planner, gen_federation(&mut rng.clone(), options))
        });
        let fdbs = gen_federation(rng, ExecOptions::default());
        for _ in 0..rng.range_usize(1, 4) {
            let sql = gen_query(rng);

            let mut naive_meter = Meter::new();
            let naive = naive_fdbs.execute(&sql, &mut naive_meter).unwrap();
            let naive_rows = row_multiset(&naive);
            let naive_arch = arch_charges(naive_meter.charges());

            // Production under either planner must reproduce the oracle's
            // row multiset and architecture charge multiset — join
            // reordering may change FDBS-internal composition work, never
            // the rows and never the charges the paper attributes to the
            // architectures.
            for (planner, planned_fdbs) in &planned {
                let mut meter = Meter::new();
                let got = planned_fdbs.execute(&sql, &mut meter).unwrap();
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
    let mut meter = Meter::new();
    for mode in [ExecMode::Streaming, ExecMode::Naive] {
        let fdbs = Fdbs::new(CostModel::zero()).with_options(ExecOptions::default().mode(mode));
        fdbs.execute_script(
            "CREATE TABLE T (K INT, V INT, S VARCHAR); \
             INSERT INTO T VALUES (3, 30, 'c'), (1, 10, 'a'), (2, 20, 'b');",
            &mut meter,
        )
        .unwrap();
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
    let mut meter = Meter::new();
    // Only R.W is referenced downstream, so the pruned projection drops
    // both R.A and the key column R.K (the probe happens in storage).
    let sql = "SELECT L.V, B.W FROM L, R AS B WHERE B.K = L.K ORDER BY L.V";
    for mode in [ExecMode::Naive, ExecMode::Streaming] {
        for planner in [PlannerMode::Syntactic, PlannerMode::CostBased] {
            let options = ExecOptions::default().mode(mode).planner(planner);
            let fdbs = Fdbs::new(CostModel::zero()).with_options(options);
            fdbs.execute_script(
                "CREATE TABLE L (K INT, V INT); \
                 CREATE TABLE R (A VARCHAR, K INT, W INT); \
                 CREATE UNIQUE INDEX r_k ON R (K); \
                 INSERT INTO L VALUES (1, 10), (2, 20), (2, 21), (9, 90); \
                 INSERT INTO R VALUES ('x', 1, 100), ('y', 2, 200), ('z', 3, 300);",
                &mut meter,
            )
            .unwrap();
            let t = fdbs.execute(sql, &mut meter).unwrap();
            assert_eq!(
                row_multiset(&t),
                ["10|100", "20|200", "21|200"].map(String::from),
                "({mode:?}, {planner})"
            );
        }
    }
}

/// Column batches hold 1024 rows, so a 2,600-row table spans three of
/// them. The VARCHAR column cycles empty strings, real strings, and NULLs
/// (the offset-pair edge cases), V carries a NULL stripe, and the LIMITs
/// land mid-batch — one inside the first batch's successor, one deep in
/// the third. On these single-table queries both executors scan in slot
/// order, so production must match the oracle *row for row, in order*.
#[test]
fn batch_boundary_limit_and_varchar_edges() {
    let mut meter = Meter::new();
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
    let [reference_fdbs, fdbs] = [oracle(), ExecOptions::default()].map(|options| {
        let fdbs = Fdbs::new(CostModel::zero()).with_options(options);
        fdbs.execute("CREATE TABLE T (K INT, V INT, S VARCHAR)", &mut meter)
            .unwrap();
        for chunk in rows.chunks(500) {
            insert_rows(&fdbs, "T", chunk);
        }
        fdbs
    });

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
        let reference = reference_fdbs.execute(sql, &mut meter).unwrap();
        let production = fdbs.execute(sql, &mut meter).unwrap();
        assert_eq!(
            reference, production,
            "ordered results diverge between the oracle and production for {sql}"
        );
    }
}

// ---------------------------------------------------------------------------
// Part B: the paper's workload on all four architectures
// ---------------------------------------------------------------------------

/// One architecture assembled from its public constructor as
/// `IntegrationServer::new` assembles it, over an engine built with
/// `options`: how an architecture runs on a reference engine. Nothing
/// boots, so its calls book no boot charges, like a booted server's.
struct ArchitectureRig {
    scenario: Scenario,
    architecture: Box<dyn Architecture>,
}

impl ArchitectureRig {
    fn new(kind: ArchitectureKind, options: ExecOptions) -> ArchitectureRig {
        let scenario = build_scenario(DataGenConfig::default()).unwrap();
        let cost = CostModel::default();
        let controller = Controller::new(scenario.registry.clone(), cost.clone());
        let wrapper = Arc::new(WfmsWrapper::new(controller.clone()));
        let fdbs = Arc::new(Fdbs::new(cost).with_options(options));
        fdbs.register_udtf(wrapper.audit_udtf()).unwrap();
        let architecture: Box<dyn Architecture> = match kind {
            ArchitectureKind::Wfms => Box::new(WfmsArchitecture::new(fdbs, wrapper)),
            ArchitectureKind::SqlUdtf => Box::new(SqlUdtfArchitecture::new(fdbs, controller)),
            ArchitectureKind::JavaUdtf => Box::new(JavaUdtfArchitecture::new(fdbs, controller)),
            ArchitectureKind::SimpleUdtf => Box::new(SimpleUdtfArchitecture::new(fdbs, controller)),
        };
        ArchitectureRig {
            scenario,
            architecture,
        }
    }
}

#[test]
fn architectures_agree_between_executors() {
    for kind in ArchitectureKind::ALL {
        let naive = ArchitectureRig::new(kind, ExecOptions::default().mode(ExecMode::Naive));
        let aware = ArchitectureRig::new(kind, ExecOptions::default().udtf_memo(false));

        for (spec, _) in paper_functions::fig5_workload() {
            // The cyclic case is undeployable on the UDTF architectures
            // (the paper's Section 3 complexity result) — but the two
            // executors must agree on deployability too.
            let d = naive.architecture.deploy(&spec);
            let e = aware.architecture.deploy(&spec);
            assert_eq!(d.is_ok(), e.is_ok(), "{}", spec.name);
            let (Ok(naive_fn), Ok(aware_fn)) = (d, e) else {
                continue;
            };
            let args = args_for(&naive.scenario, &spec);
            // First (cold) and repeated (warm) calls must both agree.
            for tier in ["first call", "repeated call"] {
                let (mut a_meter, mut b_meter) = (Meter::new(), Meter::new());
                let a = naive_fn.call(&args, &mut a_meter).unwrap();
                let b = aware_fn.call(&args, &mut b_meter).unwrap();
                assert_eq!(
                    a,
                    b,
                    "{} on {} ({tier}): result tables diverge",
                    spec.name,
                    kind.name()
                );
                assert_eq!(
                    arch_charges(a_meter.charges()),
                    arch_charges(b_meter.charges()),
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
    for kind in ArchitectureKind::ALL {
        let naive = ArchitectureRig::new(kind, ExecOptions::default().mode(ExecMode::Naive));
        let memoed =
            IntegrationServer::new(IntegrationConfig::default().with_architecture(kind)).unwrap();
        memoed.boot();

        for (spec, _) in paper_functions::fig5_workload() {
            let Ok(naive_fn) = naive.architecture.deploy(&spec) else {
                continue; // undeployable on this architecture (cyclic case)
            };
            memoed.deploy(&spec).unwrap();
            let args = args_for(memoed.scenario(), &spec);
            let a = naive_fn.call(&args, &mut Meter::new()).unwrap();
            let b = call_fn(&memoed, spec.name.as_str(), &args);
            assert_eq!(
                a,
                b.table,
                "{} on {}: memoized result diverges",
                spec.name,
                kind.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Part C: host variables against their inlined literals
// ---------------------------------------------------------------------------

/// Columns of the host-variable tables, by name and type.
const HV_COLUMNS: [(&str, DataType); 4] = [
    ("I", DataType::Int),
    ("B", DataType::BigInt),
    ("D", DataType::Double),
    ("S", DataType::Varchar),
];

/// A value of type `ty`: the i32 and i64 bounds and their neighbours,
/// 2^53 and 2^53 + 1 (one f64 apart from nothing: both round to 2^53),
/// small values that collide, and strings with a quote and an empty one.
fn hv_value(rng: &mut Rng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(*rng.pick(&[
            i32::MIN,
            i32::MIN + 1,
            -7,
            0,
            1,
            3,
            7,
            i32::MAX - 1,
            i32::MAX,
        ])),
        DataType::BigInt => Value::BigInt(*rng.pick(&[
            i64::MIN,
            i64::MIN + 1,
            i64::from(i32::MIN) - 1,
            -7,
            0,
            3,
            7,
            i64::from(i32::MAX) + 1,
            TWO_POW_53,
            TWO_POW_53 + 1,
            i64::MAX - 1,
            i64::MAX,
        ])),
        DataType::Double => Value::Double(*rng.pick(&[
            -1e300,
            I64_MIN_F64,
            -1.5,
            -0.0,
            0.0,
            3.0,
            7.0,
            7.5,
            2147483647.0,
            TWO_POW_53 as f64,
            9.2e18,
            I64_MAX_F64,
            1e300,
        ])),
        _ => Value::str(*rng.pick(&["", "a", "abc", "it's", "z"])),
    }
}

/// 2^53: the last integer every larger one of which some f64 misses.
const TWO_POW_53: i64 = 1 << 53;
/// `i64::MIN` and `i64::MAX` as f64 (-2^63 and 2^63): each equals, as f64,
/// the bound and its neighbour.
const I64_MIN_F64: f64 = -9_223_372_036_854_775_808.0;
const I64_MAX_F64: f64 = 9_223_372_036_854_775_808.0;

/// A SQL literal whose folded value is exactly `v`, type included: the
/// parser types integer literals by size, so the text is cast to the
/// value's type (and `i64::MIN`, whose magnitude no literal holds, is
/// computed).
fn typed_literal(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("CAST({i} AS INT)"),
        Value::BigInt(i64::MIN) => "CAST(-9223372036854775807 - 1 AS BIGINT)".to_string(),
        Value::BigInt(i) => format!("CAST({i} AS BIGINT)"),
        Value::Double(d) => format!("CAST({d:?} AS DOUBLE)"),
        Value::Varchar(s) => format!("'{}'", s.replace('\'', "''")),
        other => panic!("no literal form for {other:?}"),
    }
}

/// Local `H` (indexed on I and B, on S when `index_s`) and foreign `F`
/// (indexed on I and B at the source) over the same `rows` of
/// [`HV_COLUMNS`], on an engine under `options`.
fn hv_federation_of(rows: &[Row], index_s: bool, analyze: bool, options: ExecOptions) -> Fdbs {
    let fdbs = Fdbs::new(CostModel::default()).with_options(options);
    let schema = Arc::new(Schema::of(&HV_COLUMNS));
    let local = fdbs.catalog().local();
    local.create_table("H", schema.clone()).unwrap();
    local
        .create_index("H", "h_i", "I", IndexKind::NonUnique)
        .unwrap();
    local
        .create_index("H", "h_b", "B", IndexKind::NonUnique)
        .unwrap();
    if index_s {
        local
            .create_index("H", "h_s", "S", IndexKind::NonUnique)
            .unwrap();
    }
    let remote = Database::new("remote");
    remote.create_table("HR", schema).unwrap();
    remote
        .create_index("HR", "hr_i", "I", IndexKind::NonUnique)
        .unwrap();
    remote
        .create_index("HR", "hr_b", "B", IndexKind::NonUnique)
        .unwrap();
    for row in rows {
        local.insert("H", row.clone()).unwrap();
        remote.insert("HR", row.clone()).unwrap();
    }
    fdbs.catalog()
        .register_foreign_table(
            "F",
            Arc::new(RelstoreServer::new("erp", Arc::new(remote))),
            "HR",
        )
        .unwrap();
    if analyze {
        fdbs.analyze().unwrap();
    }
    fdbs
}

/// [`hv_federation_of`] over up to 40 generated rows, with NULLs in every
/// column.
fn hv_federation(rng: &mut Rng, options: ExecOptions) -> Fdbs {
    let rows: Vec<Row> = (0..rng.range_usize(0, 40))
        .map(|_| {
            Row::new(
                HV_COLUMNS
                    .iter()
                    .map(|&(_, ty)| {
                        if rng.gen_bool(0.2) {
                            Value::Null
                        } else {
                            hv_value(rng, ty)
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    let (index_s, analyze) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
    hv_federation_of(&rows, index_s, analyze, options)
}

/// One WHERE predicate in three forms: with host variables, with their
/// values inlined as literals, and with host variables but every column
/// wrapped in an identity the storage layer cannot evaluate (`T.B + 0`,
/// `LOWER(T.S)`: the strings are lower case), so the expression evaluator
/// decides it.
struct HvForms {
    host: String,
    literal: String,
    evaluated: String,
}

impl HvForms {
    fn same(text: String, evaluated: String) -> HvForms {
        HvForms {
            host: text.clone(),
            literal: text,
            evaluated,
        }
    }

    fn map(self, f: impl Fn(&str) -> String) -> HvForms {
        HvForms {
            host: f(&self.host),
            literal: f(&self.literal),
            evaluated: f(&self.evaluated),
        }
    }

    fn join(a: HvForms, op: &str, b: HvForms) -> HvForms {
        HvForms {
            host: format!("({}) {op} ({})", a.host, b.host),
            literal: format!("({}) {op} ({})", a.literal, b.literal),
            evaluated: format!("({}) {op} ({})", a.evaluated, b.evaluated),
        }
    }
}

/// `T.<column>` wrapped in an identity storage cannot evaluate.
fn evaluated_column(column: &str, ty: DataType) -> String {
    match ty {
        DataType::Varchar => format!("LOWER(T.{column})"),
        _ => format!("(T.{column} + 0)"),
    }
}

/// `column op value` in its three forms ([`HvForms`]), `value` bound as a
/// host variable of `params` unless `inline`, in either orientation.
fn hv_comparison(
    column: &str,
    ty: DataType,
    op: &str,
    value: Value,
    inline: bool,
    flip: bool,
    params: &mut Vec<(String, Value)>,
) -> HvForms {
    let literal = typed_literal(&value);
    let host = if inline {
        literal.clone()
    } else {
        params.push((format!("p{}", params.len()), value));
        params.last().unwrap().0.clone()
    };
    let evaluated = evaluated_column(column, ty);
    let side = |column: &str, other: &str| {
        if flip {
            format!("{other} {op} {column}")
        } else {
            format!("{column} {op} {other}")
        }
    };
    HvForms {
        host: side(&format!("T.{column}"), &host),
        literal: side(&format!("T.{column}"), &literal),
        evaluated: side(&evaluated, &host),
    }
}

/// A generated predicate ([`HvForms`]) and the host variables it binds.
/// Comparisons take both orientations, a host variable of the column's
/// type or a wider one, and now and then a literal in every form or an
/// `IS [NOT] NULL`, so host-variable and literal conjuncts mix on one scan.
fn hv_predicate(rng: &mut Rng, depth: usize, params: &mut Vec<(String, Value)>) -> HvForms {
    match if depth == 0 { 0 } else { rng.range_usize(0, 6) } {
        0..=2 => {
            let (column, ty) = *rng.pick(&HV_COLUMNS);
            if rng.gen_bool(0.1) {
                let test = format!("IS {}NULL", if rng.gen_bool(0.5) { "NOT " } else { "" });
                return HvForms::same(
                    format!("T.{column} {test}"),
                    format!("{} {test}", evaluated_column(column, ty)),
                );
            }
            let hv_type = match ty {
                DataType::Int => *rng.pick(&[DataType::Int, DataType::BigInt, DataType::Double]),
                DataType::BigInt => *rng.pick(&[DataType::BigInt, DataType::Double]),
                other => other,
            };
            let value = hv_value(rng, hv_type);
            // Equalities lead: the first one of a conjunction picks the
            // index, so their order across the forms must agree.
            let op = *rng.pick(&["=", "=", "=", "<>", "<", "<=", ">", ">="]);
            let (inline, flip) = (rng.gen_bool(0.35), rng.gen_bool(0.5));
            hv_comparison(column, ty, op, value, inline, flip, params)
        }
        3 => hv_predicate(rng, depth - 1, params).map(|p| format!("NOT ({p})")),
        k => {
            let a = hv_predicate(rng, depth - 1, params);
            let b = hv_predicate(rng, depth - 1, params);
            HvForms::join(a, if k == 4 { "AND" } else { "OR" }, b)
        }
    }
}

/// The warm result and charge log of `sql` with `params`: the first
/// execution compiles, the second runs the cached plan.
fn warm(fdbs: &Fdbs, sql: &str, params: &[(&str, Value)]) -> (Table, Vec<Charge>) {
    fdbs.execute_with_params(sql, params, &mut Meter::new())
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut meter = Meter::new();
    let table = fdbs
        .execute_with_params(sql, params, &mut meter)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    (table, meter.charges().to_vec())
}

/// Run `SELECT columns FROM table AS T WHERE <conjuncts>` in its three
/// forms on the production engine `fdbs` and assert that the host-variable
/// form returns the literal form's rows and warm charge log, the rows of
/// the same federation on `oracle_fdbs` and the evaluated form's rows.
fn assert_forms_agree(
    fdbs: &Fdbs,
    oracle_fdbs: &Fdbs,
    table: &str,
    columns: &str,
    conjuncts: &[HvForms],
    params: &[(String, Value)],
) {
    let form = |pick: fn(&HvForms) -> &String| {
        let predicate: Vec<&str> = conjuncts.iter().map(|c| pick(c).as_str()).collect();
        format!(
            "SELECT {columns} FROM {table} AS T WHERE {}",
            predicate.join(" AND ")
        )
    };
    let host_sql = form(|c| &c.host);
    let literal_sql = form(|c| &c.literal);
    let evaluated_sql = form(|c| &c.evaluated);
    let bound: Vec<(&str, Value)> = params
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();

    let (host_rows, host_log) = warm(fdbs, &host_sql, &bound);
    let (literal_rows, literal_log) = warm(fdbs, &literal_sql, &[]);
    assert_eq!(host_rows, literal_rows, "rows: {host_sql} / {literal_sql}");
    assert_eq!(
        host_log, literal_log,
        "charge log: {host_sql} / {literal_sql}"
    );
    let (evaluated_rows, _) = warm(fdbs, &evaluated_sql, &bound);
    assert_eq!(
        row_multiset(&evaluated_rows),
        row_multiset(&host_rows),
        "evaluator rows: {evaluated_sql} / {host_sql} {params:?}"
    );

    let (naive_rows, _) = warm(oracle_fdbs, &host_sql, &bound);
    assert_eq!(
        row_multiset(&naive_rows),
        row_multiset(&host_rows),
        "oracle rows: {host_sql} {params:?}"
    );
}

/// A host-variable comparison plans, executes and costs like the same
/// comparison with the value inlined: over an indexed local table and a
/// foreign table, the rows equal the literal form's, the oracle's and
/// those of the expression evaluator, and the warm charge log equals the
/// literal form's.
#[test]
fn host_variables_behave_like_inlined_literals() {
    // An indexed BIGINT column against DOUBLE host variables where f64
    // equality is not transitive: 2^53 and 2^53 + 1 both equal 2^53 as
    // f64, and each i64 bound equals its neighbour.
    let wide = [
        TWO_POW_53,
        TWO_POW_53 + 1,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    let rows: Vec<Row> = wide
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            Row::new(vec![
                Value::Int(i as i32),
                Value::BigInt(b),
                Value::Null,
                Value::str("a"),
            ])
        })
        .collect();
    let fdbs = hv_federation_of(&rows, false, true, ExecOptions::default());
    let oracle_fdbs = hv_federation_of(&rows, false, true, oracle());
    for d in [TWO_POW_53 as f64, I64_MIN_F64, I64_MAX_F64] {
        for op in ["=", "<>", "<", "<=", ">", ">="] {
            for (table, flip) in [("H", false), ("H", true), ("F", false), ("F", true)] {
                let mut params = Vec::new();
                let b = hv_comparison(
                    "B",
                    DataType::BigInt,
                    op,
                    Value::Double(d),
                    false,
                    flip,
                    &mut params,
                );
                assert_forms_agree(&fdbs, &oracle_fdbs, table, "T.I, T.B", &[b], &params);
            }
        }
    }

    check::cases(48, |rng| {
        let oracle_fdbs = hv_federation(&mut rng.clone(), oracle());
        let fdbs = hv_federation(rng, ExecOptions::default());
        for _ in 0..rng.range_usize(2, 6) {
            let mut params = Vec::new();
            let conjuncts: Vec<HvForms> = (0..rng.range_usize(1, 5))
                .map(|_| {
                    let depth = rng.range_usize(0, 3);
                    hv_predicate(rng, depth, &mut params)
                })
                .collect();
            let table = if rng.gen_bool(0.7) { "H" } else { "F" };
            let columns = *rng.pick(&["T.I, T.B, T.D, T.S", "T.S, T.I", "T.D"]);
            assert_forms_agree(&fdbs, &oracle_fdbs, table, columns, &conjuncts, &params);
        }
    });
}

/// What a host variable keeps from the parent design, and the one place
/// it does not. A host variable that cannot be compared with its column,
/// or a literal that cannot in a conjunct with a host variable, is still
/// the evaluator's `[execution]` "cannot compare" error (storage would
/// compare it as unknown). A NaN host variable in a pushed comparison is
/// an `[execution]` error raised before the scan, also where the evaluator
/// never compared it with a non-NULL value and returned rows (DESIGN §13).
#[test]
fn incomparable_and_nan_host_variables_are_execution_errors() {
    let fdbs = hv_federation(&mut Rng::seed_from_u64(7), ExecOptions::default());
    let mut meter = Meter::new();
    fdbs.execute("INSERT INTO H VALUES (1, 2, 3.0, 'x')", &mut meter)
        .unwrap();
    let cases = [
        (
            "SELECT T.I FROM H AS T WHERE T.I = p",
            Value::str("1"),
            "cannot compare",
        ),
        (
            "SELECT T.I FROM F AS T WHERE T.I < p",
            Value::str("1"),
            "cannot compare",
        ),
        (
            "SELECT T.I FROM H AS T WHERE T.I = p OR T.S = 5",
            Value::Int(99),
            "cannot compare",
        ),
        (
            "SELECT T.I FROM H AS T WHERE T.D < p",
            Value::Double(f64::NAN),
            "NaN",
        ),
        (
            "SELECT T.I FROM H AS T WHERE p = T.I",
            Value::Double(f64::NAN),
            "NaN",
        ),
        (
            "SELECT T.I FROM F AS T WHERE T.B >= p",
            Value::Double(f64::NAN),
            "NaN",
        ),
    ];
    for (sql, value, needle) in cases {
        let err = fdbs
            .execute_with_params(sql, &[("p", value)], &mut meter)
            .unwrap_err();
        assert_eq!(err.layer, ErrorLayer::Execution, "{sql}: {err}");
        assert!(err.to_string().contains(needle), "{sql}: {err}");
    }

    // The NaN divergence: every row is decided by `T.I = 1` or compares a
    // NULL `T.D`, so the evaluator never compares NaN with a value and
    // returned row 1; the pushed comparison errs before the scan.
    let rows = [
        Row::new(vec![
            Value::Int(1),
            Value::Null,
            Value::Double(5.0),
            Value::str("a"),
        ]),
        Row::new(vec![
            Value::Int(2),
            Value::Null,
            Value::Null,
            Value::str("b"),
        ]),
    ];
    let fdbs = hv_federation_of(&rows, false, false, ExecOptions::default());
    let nan = [("p", Value::Double(f64::NAN))];
    let evaluated = fdbs
        .execute_with_params(
            "SELECT T.I FROM H AS T WHERE (T.I + 0) = 1 OR (T.D + 0) < p",
            &nan,
            &mut meter,
        )
        .unwrap();
    assert_eq!(evaluated.rows(), [Row::new(vec![Value::Int(1)])]);
    let err = fdbs
        .execute_with_params(
            "SELECT T.I FROM H AS T WHERE T.I = 1 OR T.D < p",
            &nan,
            &mut meter,
        )
        .unwrap_err();
    assert_eq!(err.layer, ErrorLayer::Execution, "{err}");
    assert!(err.to_string().contains("NaN"), "{err}");
}

/// The benchmark's parameterized `sql_mix` shapes book, warm, exactly the
/// charge log of their literal forms.
#[test]
fn sql_mix_host_variables_cost_like_their_literals() {
    let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap();
    server.boot();
    server.deploy(&paper_functions::get_supp_qual()).unwrap();
    fedwf_bench::network::load_sql_mix_federation(&server).unwrap();
    let warm_outcome = |request: &Request| {
        server.execute(request).unwrap();
        server.execute(request).unwrap()
    };
    let mut shapes = 0;
    for (shape, request) in fedwf_bench::network::sql_mix_requests() {
        let named = request.params_ref().named();
        if named.is_empty() {
            continue;
        }
        let fedwf::core::Target::Sql(sql) = request.target() else {
            panic!("{shape} is not SQL");
        };
        let literal_sql = sql
            .split(' ')
            .map(|token| match named.iter().find(|(n, _)| n == token) {
                Some((_, v)) => typed_literal(v),
                None => token.to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ");
        let host = warm_outcome(&request);
        let literal = warm_outcome(&Request::sql(literal_sql.clone()));
        assert_eq!(host.table, literal.table, "{shape}: {literal_sql}");
        assert_eq!(
            host.meter.charges(),
            literal.meter.charges(),
            "{shape}: {literal_sql}"
        );
        shapes += 1;
    }
    assert_eq!(shapes, 4, "point, range, join_agg and fed_join");
}
