//! Property-based tests over core invariants, spanning crates — run by the
//! in-tree deterministic harness (`fedwf::types::check`), which reports the
//! reproducing seed on failure.

use std::sync::Arc;

use fedwf::relstore::{CmpOp, Database, IndexKind, Predicate};
use fedwf::sim::{Breakdown, Component, Meter};
use fedwf::sql::{parse_expression, parse_statement, Expr, Statement};
use fedwf::types::check;
use fedwf::types::rng::Rng;
use fedwf::types::{cast_value, DataType, Row, Schema, Value};

// ---------------------------------------------------------------------------
// Value / cast lattice
// ---------------------------------------------------------------------------

const NAME_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
const TEXT_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-";

fn gen_value(rng: &mut Rng) -> Value {
    match rng.range_usize(0, 6) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i32),
        2 => Value::BigInt(rng.next_u64() as i64),
        3 => Value::Double(rng.range_i64(-1_000_000_000_000, 1_000_000_000_000) as f64 / 7.0),
        4 => Value::Varchar(rng.ascii_string(TEXT_ALPHABET, 12).into()),
        _ => Value::Boolean(rng.gen_bool(0.5)),
    }
}

#[test]
fn widen_then_narrow_roundtrips() {
    check::cases(256, |rng| {
        let x = rng.next_u64() as i32;
        let widened = cast_value(&Value::Int(x), DataType::BigInt).unwrap();
        let back = cast_value(&widened, DataType::Int).unwrap();
        assert_eq!(back, Value::Int(x));
    });
}

#[test]
fn everything_casts_to_varchar() {
    check::cases(256, |rng| {
        let v = gen_value(rng);
        let casted = cast_value(&v, DataType::Varchar).unwrap();
        if v.is_null() {
            assert!(casted.is_null());
        } else {
            assert_eq!(casted.render(), v.render());
        }
    });
}

#[test]
fn index_cmp_total_order() {
    use std::cmp::Ordering;
    check::cases(512, |rng| {
        let a = gen_value(rng);
        let b = gen_value(rng);
        let c = gen_value(rng);
        assert_eq!(a.index_cmp(&b), b.index_cmp(&a).reverse());
        if a.index_cmp(&b) != Ordering::Greater && b.index_cmp(&c) != Ordering::Greater {
            assert_ne!(a.index_cmp(&c), Ordering::Greater);
        }
    });
}

// ---------------------------------------------------------------------------
// SQL parser round-trip
// ---------------------------------------------------------------------------

/// A lowercase identifier that is not a SQL keyword.
fn gen_ident(rng: &mut Rng) -> String {
    loop {
        let mut s = String::new();
        s.push(*rng.pick(b"abcdefghijklmnopqrstuvwxyz") as char);
        let tail_len = rng.range_usize(0, 8);
        for _ in 0..tail_len {
            s.push(*rng.pick(NAME_ALPHABET) as char);
        }
        if fedwf::sql::Keyword::parse(&s).is_none() {
            return s;
        }
    }
}

fn gen_literal_expr(rng: &mut Rng) -> Expr {
    match rng.range_usize(0, 4) {
        0 => Expr::lit(rng.next_u64() as i32),
        1 => Expr::lit(Value::Varchar(
            rng.ascii_string(
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
                10,
            )
            .into(),
        )),
        2 => Expr::lit(Value::Null),
        _ => Expr::Literal(Value::Boolean(true)),
    }
}

/// A random expression tree of bounded depth.
fn gen_expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.5) {
            gen_literal_expr(rng)
        } else {
            Expr::bare(&gen_ident(rng))
        };
    }
    match rng.range_usize(0, 5) {
        0 => Expr::and(gen_expr(rng, depth - 1), gen_expr(rng, depth - 1)),
        1 => Expr::eq(gen_expr(rng, depth - 1), gen_expr(rng, depth - 1)),
        2 => Expr::binary(
            gen_expr(rng, depth - 1),
            fedwf::sql::BinaryOp::Add,
            gen_expr(rng, depth - 1),
        ),
        3 => Expr::IsNull {
            expr: Box::new(gen_expr(rng, depth - 1)),
            negated: false,
        },
        _ => Expr::Cast {
            expr: Box::new(gen_expr(rng, depth - 1)),
            data_type: DataType::BigInt,
        },
    }
}

#[test]
fn expression_round_trip() {
    check::cases(256, |rng| {
        let e = gen_expr(rng, 3);
        let printed = e.to_string();
        let reparsed = parse_expression(&printed)
            .unwrap_or_else(|err| panic!("cannot reparse {printed:?}: {err}"));
        assert_eq!(reparsed, e, "printed: {printed}");
    });
}

#[test]
fn select_round_trip() {
    check::cases(256, |rng| {
        let n_cols = rng.range_usize(1, 4);
        let cols: Vec<String> = (0..n_cols).map(|_| gen_ident(rng)).collect();
        let table = gen_ident(rng);
        let limit = if rng.gen_bool(0.5) {
            Some(rng.range_u64(0, 999))
        } else {
            None
        };
        let sql = format!(
            "SELECT {} FROM {}{}",
            cols.join(", "),
            table,
            limit.map(|l| format!(" LIMIT {l}")).unwrap_or_default()
        );
        let stmt = parse_statement(&sql).unwrap();
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed).unwrap();
        assert_eq!(stmt, reparsed);
    });
}

// ---------------------------------------------------------------------------
// Storage: indexed scans agree with full scans
// ---------------------------------------------------------------------------

#[test]
fn indexed_and_full_scans_agree() {
    check::cases(64, |rng| {
        let n_keys = rng.range_usize(0, 40);
        let mut keys = std::collections::HashSet::new();
        for _ in 0..n_keys {
            keys.insert(rng.range_i32(0, 499));
        }
        let probe = rng.range_i32(0, 499);

        let db = Database::new("prop");
        db.create_table(
            "T",
            Arc::new(Schema::of(&[
                ("k", DataType::Int),
                ("v", DataType::Varchar),
            ])),
        )
        .unwrap();
        let rows: Vec<Row> = keys
            .iter()
            .map(|&k| Row::new(vec![Value::Int(k), Value::str(format!("v{k}"))]))
            .collect();
        db.insert_all("T", rows).unwrap();

        let full = db
            .scan_project("T", &Predicate::eq(0, probe), None)
            .unwrap();
        db.create_index("T", "pk", "k", IndexKind::Unique).unwrap();
        let indexed = db
            .scan_project("T", &Predicate::eq(0, probe), None)
            .unwrap();
        assert_eq!(full.row_count(), indexed.row_count());
        // Range predicate: count equals the set-based count.
        let expected = keys.iter().filter(|&&k| k < probe).count();
        let got = db
            .scan_project("T", &Predicate::cmp(0, CmpOp::Lt, probe), None)
            .unwrap();
        assert_eq!(got.row_count(), expected);
    });
}

// ---------------------------------------------------------------------------
// Virtual clock: fork/join algebra
// ---------------------------------------------------------------------------

#[test]
fn join_is_max_booked_is_sum() {
    check::cases(256, |rng| {
        let n = rng.range_usize(1, 6);
        let branches: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 9_999)).collect();
        let mut meter = Meter::new();
        meter.charge(Component::WfEngine, "setup", 100);
        let mut children = Vec::new();
        for (i, cost) in branches.iter().enumerate() {
            let mut child = meter.fork();
            child.charge(Component::Activity, format!("branch {i}"), *cost);
            children.push(child);
        }
        meter.join(children);
        let max = branches.iter().copied().max().unwrap();
        let sum: u64 = branches.iter().sum();
        assert_eq!(meter.now_us(), 100 + max);
        assert_eq!(meter.total_booked_us(), 100 + sum);
    });
}

#[test]
fn sequential_breakdown_sums_to_100() {
    check::cases(256, |rng| {
        let n = rng.range_usize(1, 10);
        let costs: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 4_999)).collect();
        let mut meter = Meter::new();
        for (i, c) in costs.iter().enumerate() {
            meter.charge(Component::Udtf, format!("step {i}"), *c);
        }
        let b = Breakdown::by_step("t", meter.charges(), meter.now_us());
        let total: f64 = b.lines.iter().map(|l| l.percent).sum();
        assert!((total - 100.0).abs() < 1e-6, "total = {total}");
    });
}

// ---------------------------------------------------------------------------
// Statement round-trip for the paper's verbatim examples
// ---------------------------------------------------------------------------

#[test]
fn paper_statements_round_trip() {
    let statements = [
        "SELECT DP.Answer FROM TABLE (GetQuality(SupplierNo)) AS GQ, TABLE (GetReliability(SupplierNo)) AS GR, TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG, TABLE (GetCompNo(CompName)) AS GCN, TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP",
        "CREATE FUNCTION GetNumberSupp1234 (CompNo INT) RETURNS TABLE (Number INT) LANGUAGE SQL RETURN SELECT BIGINT(GN.Number) FROM TABLE (GetNumber(1234, GetNumberSupp1234.CompNo)) AS GN",
        "CREATE FUNCTION GetSubCompDiscounts (CompNo INT, Discount INT) RETURNS TABLE (SubCompNo INT, SupplierNo INT) LANGUAGE SQL RETURN SELECT GSCD.SubCompNo, GCS4D.SupplierNo FROM TABLE (GetSubCompNo(GetSubCompDiscounts.CompNo)) AS GSCD, TABLE (GetCompSupp4Discount(GetSubCompDiscounts.Discount)) AS GCS4D WHERE GSCD.SubCompNo = GCS4D.CompNo",
        "CREATE FUNCTION GetSuppQual (SupplierName VARCHAR) RETURNS TABLE (Qual INT) LANGUAGE SQL RETURN SELECT GQ.Qual FROM TABLE (GetSupplierNo(GetSuppQual.SupplierName)) AS GSN, TABLE (GetQuality(GSN.SupplierNo)) AS GQ",
        "SELECT BSC.Answer FROM TABLE (BuySuppComp(SupplierNo, CompName)) AS BSC",
    ];
    for sql in statements {
        let stmt: Statement = parse_statement(sql).unwrap();
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed).unwrap();
        assert_eq!(stmt, reparsed, "round-trip failed for {sql}");
    }
}
