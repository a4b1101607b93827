//! Table-driven SQL conformance: one schema, many statements, expected
//! results — exercising the lexer, parser, binder, optimizer and executor
//! together.

use fedwf::fdbs::Fdbs;
use fedwf::relstore::{Database, Durability, MemorySink, MemorySnapshots};
use fedwf::sim::{CostModel, Meter};
use fedwf::types::{Table, Value};

fn engine() -> Fdbs {
    let f = Fdbs::new(CostModel::zero());
    let mut m = Meter::new();
    f.execute_script(
        "CREATE TABLE Suppliers (SupplierNo INT NOT NULL, Name VARCHAR, Relia INT);
         CREATE UNIQUE INDEX pk ON Suppliers (SupplierNo);
         CREATE INDEX by_relia ON Suppliers (Relia);
         INSERT INTO Suppliers VALUES
           (1, 'Acme', 80), (2, 'Bolt & Sons', 95), (3, 'Cogworks', 70),
           (4, NULL, 60), (5, 'Elbe Metall', 95);
         CREATE TABLE Parts (PartNo INT, SupplierNo INT, Price DOUBLE);
         INSERT INTO Parts VALUES
           (10, 1, 2.5), (11, 1, 0.75), (12, 2, 199.0), (13, 3, 12.0), (14, 9, 1.0);",
        &mut m,
    )
    .unwrap();
    f
}

fn run(f: &Fdbs, sql: &str) -> Table {
    let mut m = Meter::new();
    f.execute(sql, &mut m)
        .unwrap_or_else(|e| panic!("{sql}\n  failed: {e}"))
}

fn col_i64(t: &Table, col: &str) -> Vec<Option<i64>> {
    let idx = t
        .schema()
        .index_of(&fedwf::types::Ident::new(col))
        .unwrap_or_else(|| panic!("no column {col}"));
    t.rows().iter().map(|r| r.values()[idx].as_i64()).collect()
}

#[test]
fn projection_arithmetic_and_aliases() {
    let f = engine();
    let t = run(&f, "SELECT S.Relia + 5 AS Bumped, S.Relia * 2 Doubled FROM Suppliers AS S WHERE S.SupplierNo = 1");
    assert_eq!(t.value(0, "Bumped"), Some(&Value::Int(85)));
    assert_eq!(t.value(0, "Doubled"), Some(&Value::Int(160)));
}

#[test]
fn where_combinations() {
    let f = engine();
    let cases: &[(&str, usize)] = &[
        ("SELECT * FROM Suppliers WHERE Relia = 95", 2),
        (
            "SELECT * FROM Suppliers WHERE Relia >= 80 AND Name IS NOT NULL",
            3,
        ),
        ("SELECT * FROM Suppliers WHERE Relia < 70 OR Relia > 90", 3),
        ("SELECT * FROM Suppliers WHERE NOT Relia = 95", 3),
        ("SELECT * FROM Suppliers WHERE Name IS NULL", 1),
        (
            "SELECT * FROM Suppliers WHERE Relia <> 95 AND Relia <> 80",
            2,
        ),
        ("SELECT * FROM Suppliers WHERE SupplierNo = 1 AND 1 = 1", 1),
        ("SELECT * FROM Suppliers WHERE 1 = 2", 0),
    ];
    for (sql, expected) in cases {
        assert_eq!(run(&f, sql).row_count(), *expected, "{sql}");
    }
}

#[test]
fn joins_across_tables() {
    let f = engine();
    let t = run(
        &f,
        "SELECT S.Name, P.Price FROM Suppliers AS S, Parts AS P \
         WHERE S.SupplierNo = P.SupplierNo AND P.Price > 1.0 \
         ORDER BY P.Price DESC",
    );
    assert_eq!(t.row_count(), 3);
    assert_eq!(t.value(0, "Name"), Some(&Value::str("Bolt & Sons")));
    assert_eq!(t.value(2, "Name"), Some(&Value::str("Acme")));
}

#[test]
fn order_by_multiple_keys_and_nulls() {
    let f = engine();
    let t = run(
        &f,
        "SELECT Relia, Name FROM Suppliers ORDER BY Relia DESC, Name ASC",
    );
    // 95 pair ordered by name: 'Bolt & Sons' before 'Elbe Metall'.
    assert_eq!(t.value(0, "Name"), Some(&Value::str("Bolt & Sons")));
    assert_eq!(t.value(1, "Name"), Some(&Value::str("Elbe Metall")));
    // NULL name sorts first in ascending name order within its group.
    assert_eq!(
        col_i64(&t, "Relia"),
        vec![Some(95), Some(95), Some(80), Some(70), Some(60)]
    );
}

#[test]
fn distinct_vs_all() {
    let f = engine();
    assert_eq!(run(&f, "SELECT Relia FROM Suppliers").row_count(), 5);
    assert_eq!(
        run(&f, "SELECT DISTINCT Relia FROM Suppliers").row_count(),
        4
    );
}

#[test]
fn limit_zero_and_overshoot() {
    let f = engine();
    assert_eq!(run(&f, "SELECT * FROM Suppliers LIMIT 0").row_count(), 0);
    assert_eq!(run(&f, "SELECT * FROM Suppliers LIMIT 99").row_count(), 5);
}

#[test]
fn scalar_functions_and_casts() {
    let f = engine();
    let t = run(
        &f,
        "SELECT UPPER(Name) AS U, LENGTH(Name) AS L, CAST(Relia AS BIGINT) AS B, DOUBLE(Relia) AS D \
         FROM Suppliers WHERE SupplierNo = 1",
    );
    assert_eq!(t.value(0, "U"), Some(&Value::str("ACME")));
    assert_eq!(t.value(0, "L"), Some(&Value::Int(4)));
    assert_eq!(t.value(0, "B"), Some(&Value::BigInt(80)));
    assert_eq!(t.value(0, "D"), Some(&Value::Double(80.0)));
}

#[test]
fn null_propagation_in_projection() {
    let f = engine();
    let t = run(
        &f,
        "SELECT Name || '!' AS Loud FROM Suppliers WHERE SupplierNo = 4",
    );
    assert_eq!(t.value(0, "Loud"), Some(&Value::Null));
}

#[test]
fn string_comparison_and_escaping() {
    let f = engine();
    let t = run(
        &f,
        "SELECT SupplierNo FROM Suppliers WHERE Name = 'Bolt & Sons'",
    );
    assert_eq!(t.value(0, "SupplierNo"), Some(&Value::Int(2)));
    let mut m = Meter::new();
    f.execute("INSERT INTO Suppliers VALUES (6, 'O''Neill', 50)", &mut m)
        .unwrap();
    let t = run(&f, "SELECT Name FROM Suppliers WHERE SupplierNo = 6");
    assert_eq!(t.value(0, "Name"), Some(&Value::str("O'Neill")));
}

#[test]
fn update_then_read_back() {
    let f = engine();
    let mut m = Meter::new();
    f.execute("UPDATE Suppliers SET Relia = 99 WHERE Relia = 95", &mut m)
        .unwrap();
    assert_eq!(
        run(&f, "SELECT * FROM Suppliers WHERE Relia = 99").row_count(),
        2
    );
    f.execute("DELETE FROM Suppliers WHERE Relia = 99", &mut m)
        .unwrap();
    assert_eq!(run(&f, "SELECT * FROM Suppliers").row_count(), 3);
}

/// `T (K, V)` with a unique index on `K`, over rows (3, 1) and (4, 1).
fn two_rows(f: &Fdbs) {
    f.execute_script(
        "CREATE TABLE T (K INT, V INT);
         CREATE UNIQUE INDEX t_k ON T (K);
         INSERT INTO T VALUES (3, 1), (4, 1);",
        &mut Meter::new(),
    )
    .unwrap();
}

/// The rows of `T` as (K, V), ordered by K.
fn t_rows(f: &Fdbs) -> Vec<(Option<i64>, Option<i64>)> {
    let t = run(f, "SELECT K, V FROM T ORDER BY K");
    col_i64(&t, "K").into_iter().zip(col_i64(&t, "V")).collect()
}

/// The WHERE clause selects the rows once, before any SET column changes.
#[test]
fn multi_column_update_is_one_statement() {
    let f = Fdbs::new(CostModel::zero());
    two_rows(&f);
    let t = run(&f, "UPDATE T SET K = 5, V = 0 WHERE K = 3");
    assert_eq!(t.value(0, "rows"), Some(&Value::Int(1)));
    assert_eq!(t_rows(&f), [(Some(4), Some(1)), (Some(5), Some(0))]);
}

/// An assignment that cannot be coerced fails the statement before any
/// column changes, the assignments to its left included.
#[test]
fn a_failing_assignment_updates_no_column() {
    let f = Fdbs::new(CostModel::zero());
    two_rows(&f);
    assert!(f
        .execute("UPDATE T SET V = 9, K = 'x' WHERE K = 4", &mut Meter::new())
        .is_err());
    assert_eq!(t_rows(&f), [(Some(3), Some(1)), (Some(4), Some(1))]);
}

/// Over a durable local store a two-column UPDATE commits once, and
/// recovery replays it.
#[test]
fn a_durable_multi_column_update_commits_once_and_recovers() {
    let log = MemorySink::new();
    let snapshots = MemorySnapshots::new();
    let open = || {
        Database::open_with(
            "local",
            Durability::in_memory(log.clone(), snapshots.clone()),
        )
        .unwrap()
    };
    let f = Fdbs::with_local(CostModel::zero(), open());
    two_rows(&f);
    let commits = |f: &Fdbs| f.catalog().local().commit_stats().unwrap().commits;
    let before = commits(&f);
    run(&f, "UPDATE T SET K = 5, V = 0 WHERE K = 3");
    assert_eq!(commits(&f), before + 1);
    drop(f);
    let f = Fdbs::with_local(CostModel::zero(), open());
    assert_eq!(t_rows(&f), [(Some(4), Some(1)), (Some(5), Some(0))]);
}

#[test]
fn error_cases_are_reported() {
    let f = engine();
    let mut m = Meter::new();
    for bad in [
        "SELECT NoSuch FROM Suppliers",
        "SELECT * FROM NoSuchTable",
        "SELECT S.Name FROM Suppliers AS S, Suppliers AS S",
        "SELECT * FROM Suppliers WHERE",
        "INSERT INTO Suppliers VALUES (1, 'dup', 1)", // unique violation
        "INSERT INTO Suppliers (SupplierNo) VALUES ('text')", // type error
        "SELECT Name FROM Suppliers ORDER BY NoSuch",
    ] {
        assert!(f.execute(bad, &mut m).is_err(), "{bad} should fail");
    }
}

#[test]
fn not_null_constraint_enforced() {
    let f = engine();
    let mut m = Meter::new();
    assert!(f
        .execute("INSERT INTO Suppliers VALUES (NULL, 'x', 1)", &mut m)
        .is_err());
}

#[test]
fn comments_inside_statements() {
    let f = engine();
    let t = run(
        &f,
        "SELECT /* projection */ Name -- trailing\n FROM Suppliers WHERE SupplierNo = 1",
    );
    assert_eq!(t.value(0, "Name"), Some(&Value::str("Acme")));
}

#[test]
fn whole_table_aggregates() {
    let f = engine();
    let t = run(
        &f,
        "SELECT COUNT(*) AS N, COUNT(Name) AS Named, SUM(Relia) AS Total, \
                AVG(Relia) AS Mean, MIN(Relia) AS Lo, MAX(Name) AS LastName \
         FROM Suppliers",
    );
    assert_eq!(t.row_count(), 1);
    assert_eq!(t.value(0, "N"), Some(&Value::BigInt(5)));
    assert_eq!(t.value(0, "Named"), Some(&Value::BigInt(4))); // one NULL name
    assert_eq!(t.value(0, "Total"), Some(&Value::BigInt(400)));
    assert_eq!(t.value(0, "Mean"), Some(&Value::Double(80.0)));
    assert_eq!(t.value(0, "Lo"), Some(&Value::Int(60)));
    assert_eq!(t.value(0, "LastName"), Some(&Value::str("Elbe Metall")));
}

#[test]
fn aggregates_over_empty_input() {
    let f = engine();
    let t = run(
        &f,
        "SELECT COUNT(*) AS N, SUM(Relia) AS Total FROM Suppliers WHERE 1 = 2",
    );
    assert_eq!(t.value(0, "N"), Some(&Value::BigInt(0)));
    assert_eq!(t.value(0, "Total"), Some(&Value::Null));
}

#[test]
fn group_by_with_keys_and_aggregates() {
    let f = engine();
    let t = run(
        &f,
        "SELECT S.Relia, COUNT(*) AS N FROM Suppliers AS S GROUP BY S.Relia",
    );
    // Groups: 80, 95 (x2), 70, 60 — in first-appearance order.
    assert_eq!(t.row_count(), 4);
    assert_eq!(t.value(0, "Relia"), Some(&Value::Int(80)));
    assert_eq!(t.value(1, "Relia"), Some(&Value::Int(95)));
    assert_eq!(t.value(1, "N"), Some(&Value::BigInt(2)));
}

#[test]
fn group_by_over_join_and_function_results() {
    let f = engine();
    let t = run(
        &f,
        "SELECT S.Name, SUM(P.Price) AS Spend, COUNT(*) AS Parts \
         FROM Suppliers AS S, Parts AS P \
         WHERE S.SupplierNo = P.SupplierNo \
         GROUP BY S.Name",
    );
    assert_eq!(t.row_count(), 3);
    let acme = t
        .rows()
        .iter()
        .position(|r| r.values()[0] == Value::str("Acme"))
        .unwrap();
    assert_eq!(t.rows()[acme].values()[1], Value::Double(3.25));
    assert_eq!(t.rows()[acme].values()[2], Value::BigInt(2));
}

#[test]
fn aggregate_errors() {
    let f = engine();
    let mut m = Meter::new();
    for bad in [
        // Projection not in GROUP BY.
        "SELECT Name, COUNT(*) FROM Suppliers GROUP BY Relia",
        // SUM over a non-numeric column.
        "SELECT SUM(Name) FROM Suppliers",
        // ORDER BY on an aggregate must reference an *output* column —
        // Relia is neither projected nor a grouping key here.
        "SELECT COUNT(*) FROM Suppliers ORDER BY Relia",
        // Wildcard in an aggregate projection.
        "SELECT *, COUNT(*) FROM Suppliers GROUP BY Relia",
        // Wrong arity.
        "SELECT SUM(Relia, Relia) FROM Suppliers",
    ] {
        assert!(f.execute(bad, &mut m).is_err(), "{bad} should fail");
    }
}

#[test]
fn order_by_over_aggregate_output() {
    let f = engine();
    // By ordinal: count DESC, then grouping key ASC among the ties.
    let t = run(
        &f,
        "SELECT Relia, COUNT(*) AS N FROM Suppliers GROUP BY Relia \
         ORDER BY 2 DESC, 1 ASC",
    );
    assert_eq!(
        col_i64(&t, "Relia"),
        vec![Some(95), Some(60), Some(70), Some(80)]
    );
    assert_eq!(t.value(0, "N"), Some(&Value::BigInt(2)));
    // By output-column name (the alias).
    let by_name = run(
        &f,
        "SELECT Relia, COUNT(*) AS N FROM Suppliers GROUP BY Relia \
         ORDER BY N DESC, Relia ASC",
    );
    assert_eq!(col_i64(&by_name, "Relia"), col_i64(&t, "Relia"));
    // By repeating the projected expression verbatim.
    let by_expr = run(
        &f,
        "SELECT Relia, COUNT(*) AS N FROM Suppliers GROUP BY Relia \
         ORDER BY COUNT(*) DESC, Relia ASC",
    );
    assert_eq!(col_i64(&by_expr, "Relia"), col_i64(&t, "Relia"));
    // Out-of-range ordinal stays an error.
    let mut m = Meter::new();
    assert!(f
        .execute(
            "SELECT Relia, COUNT(*) FROM Suppliers GROUP BY Relia ORDER BY 3",
            &mut m
        )
        .is_err());
}

#[test]
fn integer_sum_overflow_fails_loudly() {
    let f = engine();
    let mut m = Meter::new();
    f.execute_script(
        "CREATE TABLE Big (X BIGINT);
         INSERT INTO Big VALUES (9223372036854775806), (9223372036854775806);",
        &mut m,
    )
    .unwrap();
    let err = f
        .execute("SELECT SUM(X) AS S FROM Big", &mut m)
        .unwrap_err();
    assert!(err.to_string().contains("SUM overflow"), "{err}");
}

#[test]
fn explain_shows_aggregate_stage() {
    let f = engine();
    let t = run(
        &f,
        "EXPLAIN SELECT Relia, COUNT(*) FROM Suppliers GROUP BY Relia",
    );
    let text: String = t
        .rows()
        .iter()
        .map(|r| r.values()[0].render())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Aggregate [1 key(s);"), "{text}");
}

#[test]
fn explain_shows_hash_join_for_equi_join() {
    let f = engine();
    let t = run(
        &f,
        "EXPLAIN SELECT S.Name, P.Price FROM Suppliers AS S, Parts AS P \
         WHERE S.SupplierNo = P.SupplierNo",
    );
    let text: String = t
        .rows()
        .iter()
        .map(|r| r.values()[0].render())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("HashJoin [1 key(s)"), "{text}");
}

#[test]
fn bare_and_qualified_references_mix() {
    let f = engine();
    let t = run(
        &f,
        "SELECT Name, S.Relia FROM Suppliers AS S WHERE S.SupplierNo = 2 AND Relia = 95",
    );
    assert_eq!(t.row_count(), 1);
}
