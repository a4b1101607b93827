//! Deeper engine coverage spanning crates: composed I-UDTFs, federation,
//! conditional workflows, loop counters.

use std::sync::Arc;

use fedwf::fdbs::{Fdbs, RelstoreServer, Udtf};
use fedwf::relstore::Database;
use fedwf::sim::{CostModel, Meter};
use fedwf::types::{DataType, Ident, Row, Schema, Table, Value};
use fedwf::wfms::{
    CondOp, Condition, ContainerSchema, DataBinding, DataSource, EchoExecutor, Engine, LoopNode,
    ProcessBuilder,
};

fn fdbs_with_quality() -> Fdbs {
    let f = Fdbs::new(CostModel::zero());
    f.register_udtf(Udtf::native(
        "GetQuality",
        vec![(Ident::new("SupplierNo"), DataType::Int)],
        Arc::new(Schema::of(&[("Qual", DataType::Int)])),
        |args, _m| {
            let n = args[0].as_i64().unwrap_or(0);
            Ok(Table::scalar("Qual", Value::Int((n % 100) as i32)))
        },
    ))
    .unwrap();
    f
}

#[test]
fn sql_udtf_composes_over_another_sql_udtf() {
    // An I-UDTF referencing another I-UDTF: two levels of SQL composition.
    let f = fdbs_with_quality();
    let mut m = Meter::new();
    f.execute(
        "CREATE FUNCTION QualPlusOne (S INT) RETURNS TABLE (Q INT) LANGUAGE SQL RETURN \
         SELECT GQ.Qual + 1 FROM TABLE (GetQuality(QualPlusOne.S)) AS GQ",
        &mut m,
    )
    .unwrap();
    f.execute(
        "CREATE FUNCTION QualPlusTwo (S INT) RETURNS TABLE (Q INT) LANGUAGE SQL RETURN \
         SELECT P1.Q + 1 FROM TABLE (QualPlusOne(QualPlusTwo.S)) AS P1",
        &mut m,
    )
    .unwrap();
    let t = f
        .execute("SELECT T.Q FROM TABLE (QualPlusTwo(40)) AS T", &mut m)
        .unwrap();
    assert_eq!(t.value(0, "Q"), Some(&Value::Int(42)));
}

#[test]
fn federation_joins_local_foreign_and_function_data() {
    let f = fdbs_with_quality();
    let mut m = Meter::new();
    // Local table.
    f.execute("CREATE TABLE Watchlist (SupplierNo INT)", &mut m)
        .unwrap();
    f.execute("INSERT INTO Watchlist VALUES (42), (77)", &mut m)
        .unwrap();
    // Foreign SQL source.
    let remote = Database::new("remote");
    remote
        .create_table(
            "Names",
            Arc::new(Schema::of(&[
                ("SupplierNo", DataType::Int),
                ("Name", DataType::Varchar),
            ])),
        )
        .unwrap();
    remote
        .insert_all(
            "Names",
            vec![
                Row::new(vec![Value::Int(42), Value::str("Acme")]),
                Row::new(vec![Value::Int(77), Value::str("Bolt")]),
                Row::new(vec![Value::Int(99), Value::str("Cog")]),
            ],
        )
        .unwrap();
    f.catalog()
        .register_foreign_table(
            "SupplierNames",
            Arc::new(RelstoreServer::new("erp", Arc::new(remote))),
            "Names",
        )
        .unwrap();
    // One query over all three worlds: local table × foreign table ×
    // table function, with a join predicate and an ORDER BY.
    let t = f
        .execute(
            "SELECT N.Name, GQ.Qual \
             FROM Watchlist AS W, SupplierNames AS N, TABLE (GetQuality(W.SupplierNo)) AS GQ \
             WHERE W.SupplierNo = N.SupplierNo \
             ORDER BY GQ.Qual DESC",
            &mut m,
        )
        .unwrap();
    assert_eq!(t.row_count(), 2);
    assert_eq!(t.value(0, "Name"), Some(&Value::str("Bolt"))); // 77 > 42
    assert_eq!(t.value(0, "Qual"), Some(&Value::Int(77)));
}

#[test]
fn xor_split_with_conditions_takes_exactly_one_branch() {
    let process = ProcessBuilder::new("xor")
        .input(&[("x", DataType::Int)])
        .program(
            "probe",
            "Echo",
            vec![DataBinding::new("v", DataSource::input("x"))],
            &[("v", DataType::Int)],
        )
        .constant("high", 1)
        .constant("low", 0)
        .connector_if("probe", "high", Condition::cmp("v", CondOp::GtEq, 10))
        .connector_if("probe", "low", Condition::cmp("v", CondOp::Lt, 10))
        .output_row(&[
            ("hi", DataType::Int, DataSource::output("high", "value")),
            ("lo", DataType::Int, DataSource::output("low", "value")),
        ])
        .build()
        .unwrap();
    let mut ex = EchoExecutor::new();
    ex.register("Echo", |args| Ok(Table::scalar("v", args[0].clone())));
    let engine = Engine::new(CostModel::zero());

    for (input_value, expect_hi, expect_lo) in [
        (20, Value::Int(1), Value::Null),
        (3, Value::Null, Value::Int(0)),
    ] {
        let mut input = process.input.instantiate();
        input
            .set(&Ident::new("x"), Value::Int(input_value))
            .unwrap();
        let mut meter = Meter::new();
        let instance = engine.run(&process, &input, &ex, &mut meter).unwrap();
        assert_eq!(instance.output.value(0, "hi"), Some(&expect_hi));
        assert_eq!(instance.output.value(0, "lo"), Some(&expect_lo));
    }
}

#[test]
fn loop_counter_feature_drives_do_until() {
    // The engine's built-in counter: body is a pure function call, no Add
    // helper needed, and the loop accumulates the body's table.
    let body = ProcessBuilder::new("body")
        .input(&[("i", DataType::Int), ("limit", DataType::Int)])
        .program(
            "Render",
            "Render",
            vec![DataBinding::new("i", DataSource::input("i"))],
            &[("Text", DataType::Varchar)],
        )
        .output_table("Render")
        .build()
        .unwrap();
    let process = ProcessBuilder::new("count")
        .input(&[("n", DataType::Int)])
        .loop_node(LoopNode {
            name: Ident::new("L"),
            vars: ContainerSchema::new(&[("i", DataType::Int), ("limit", DataType::Int)]),
            init: vec![
                DataBinding::new("i", DataSource::constant(1)),
                DataBinding::new("limit", DataSource::input("n")),
            ],
            body,
            update: vec![],
            counter: Some((Ident::new("i"), 1)),
            until: Condition::cmp_fields("i", CondOp::Gt, "limit"),
            accumulate: true,
            max_iterations: 100,
        })
        .output_table("L")
        .build()
        .unwrap();
    let mut ex = EchoExecutor::new();
    ex.register("Render", |args| {
        Ok(Table::scalar(
            "Text",
            Value::str(format!("#{}", args[0].as_i64().unwrap())),
        ))
    });
    let engine = Engine::new(CostModel::zero());
    let mut input = process.input.instantiate();
    input.set(&Ident::new("n"), Value::Int(4)).unwrap();
    let mut meter = Meter::new();
    let instance = engine.run(&process, &input, &ex, &mut meter).unwrap();
    assert_eq!(instance.output.row_count(), 4);
    assert_eq!(instance.output.value(3, "Text"), Some(&Value::str("#4")));
}

#[test]
fn every_paper_process_round_trips_through_fdl() {
    use fedwf::core::{paper_functions, ArchitectureKind, IntegrationServer, WfmsArchitecture};
    use fedwf::wfms::{export_fdl, parse_fdl};

    let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap();
    let arch = WfmsArchitecture::new(server.fdbs().clone(), server.wrapper().clone());
    for (spec, _) in paper_functions::fig5_workload() {
        let process = arch.compile_process(&spec).unwrap();
        let text = export_fdl(&process);
        let reparsed =
            parse_fdl(&text).unwrap_or_else(|e| panic!("{}: {e}\nFDL:\n{text}", spec.name));
        assert_eq!(process, reparsed, "round-trip failed for {}", spec.name);
    }
}

#[test]
fn fdl_imported_process_executes_like_the_original() {
    use fedwf::core::{paper_functions, ArchitectureKind, IntegrationServer, WfmsArchitecture};
    use fedwf::wfms::{export_fdl, parse_fdl};

    // Compile GetSuppQual, export it, re-import it under a new name and
    // deploy the import: both must compute the same answer.
    let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap();
    server.boot();
    let arch = WfmsArchitecture::new(server.fdbs().clone(), server.wrapper().clone());
    let spec = paper_functions::get_supp_qual();
    let process = arch.compile_process(&spec).unwrap();
    let text = export_fdl(&process).replace("PROCESS GetSuppQual", "PROCESS ImportedQual");
    let imported = parse_fdl(&text).unwrap();

    server.wrapper().deploy_process(process).unwrap();
    server.wrapper().deploy_process(imported).unwrap();
    let args = [Value::str(server.scenario().well_known_supplier_name())];
    let mut m1 = Meter::new();
    let a = server
        .wrapper()
        .invoke_process("GetSuppQual", &args, &mut m1)
        .unwrap();
    let mut m2 = Meter::new();
    let b = server
        .wrapper()
        .invoke_process("ImportedQual", &args, &mut m2)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn aggregates_over_federated_function_results() {
    use fedwf::core::{paper_functions, ArchitectureKind, IntegrationServer};

    // GROUP BY over the rows a workflow-backed federated function returns:
    // count the discount offers per supplier among the sub-components.
    let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap();
    server.boot();
    server
        .deploy(&paper_functions::get_sub_comp_discounts())
        .unwrap();
    let outcome = server
        .execute(
            &fedwf::core::Request::sql(
                "SELECT T.SupplierNo, COUNT(*) AS Offers \
                 FROM TABLE (GetSubCompDiscounts(C, D)) AS T \
                 GROUP BY T.SupplierNo",
            )
            .bind("C", server.scenario().well_known_component_no())
            .bind("D", 5),
        )
        .unwrap();
    // Each group's count is >= 1 and the groups partition the raw rows.
    let raw = server
        .execute(
            &fedwf::core::Request::sql(
                "SELECT T.SupplierNo FROM TABLE (GetSubCompDiscounts(C, D)) AS T",
            )
            .bind("C", server.scenario().well_known_component_no())
            .bind("D", 5),
        )
        .unwrap();
    let total: i64 = outcome
        .table
        .rows()
        .iter()
        .map(|r| r.values()[1].as_i64().unwrap())
        .sum();
    assert_eq!(total as usize, raw.table.row_count());
    assert!(outcome.table.row_count() <= raw.table.row_count());
}

#[test]
fn is_null_and_concat_through_the_full_stack() {
    let f = Fdbs::new(CostModel::zero());
    let mut m = Meter::new();
    f.execute("CREATE TABLE People (First VARCHAR, Last VARCHAR)", &mut m)
        .unwrap();
    f.execute(
        "INSERT INTO People VALUES ('Klaudia', 'Hergula'), (NULL, 'Haerder')",
        &mut m,
    )
    .unwrap();
    let t = f
        .execute(
            "SELECT P.First || ' ' || P.Last AS FullName FROM People AS P WHERE P.First IS NOT NULL",
            &mut m,
        )
        .unwrap();
    assert_eq!(t.row_count(), 1);
    assert_eq!(t.value(0, "FullName"), Some(&Value::str("Klaudia Hergula")));
    let t = f
        .execute(
            "SELECT P.Last FROM People AS P WHERE P.First IS NULL",
            &mut m,
        )
        .unwrap();
    assert_eq!(t.value(0, "Last"), Some(&Value::str("Haerder")));
}

#[test]
fn distinct_and_limit_over_function_results() {
    let f = Fdbs::new(CostModel::zero());
    f.register_udtf(Udtf::native(
        "Numbers",
        vec![],
        Arc::new(Schema::of(&[("N", DataType::Int)])),
        |_args, _m| {
            let schema = Arc::new(Schema::of(&[("N", DataType::Int)]));
            let mut t = Table::new(schema);
            for v in [3, 1, 3, 2, 1] {
                t.push_unchecked(Row::new(vec![Value::Int(v)]));
            }
            Ok(t)
        },
    ))
    .unwrap();
    let mut m = Meter::new();
    let t = f
        .execute(
            "SELECT DISTINCT T.N FROM TABLE (Numbers()) AS T ORDER BY T.N LIMIT 2",
            &mut m,
        )
        .unwrap();
    assert_eq!(t.row_count(), 2);
    assert_eq!(t.value(0, "N"), Some(&Value::Int(1)));
    assert_eq!(t.value(1, "N"), Some(&Value::Int(2)));
}
