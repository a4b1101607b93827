//! Engine micro-benchmarks: the substrates in isolation (SQL parsing,
//! storage scans, workflow navigation, expression evaluation) — the
//! ablation view of where our implementation spends real time.

use std::sync::Arc;

use fedwf_bench::micro::{BenchmarkId, Criterion, Throughput};
use fedwf_bench::{criterion_group, criterion_main};
use fedwf_relstore::{Database, IndexKind, Predicate};
use fedwf_sim::{CostModel, Meter};
use fedwf_sql::parse_statement;
use fedwf_types::{DataType, Row, Schema, Table, Value};
use fedwf_wfms::{DataBinding, DataSource, EchoExecutor, Engine, ProcessBuilder};
use std::time::Duration;

const BUY_SUPP_COMP_DDL: &str = "CREATE FUNCTION BuySuppComp (SupplierNo INT, CompName VARCHAR) \
     RETURNS TABLE (Decision VARCHAR) LANGUAGE SQL RETURN \
     SELECT DP.Answer \
     FROM TABLE (GetQuality(BuySuppComp.SupplierNo)) AS GQ, \
          TABLE (GetReliability(BuySuppComp.SupplierNo)) AS GR, \
          TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG, \
          TABLE (GetCompNo(BuySuppComp.CompName)) AS GCN, \
          TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP";

fn bench_parser(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_parser");
    group.bench_function("buysuppcomp_create_function", |b| {
        b.iter(|| parse_statement(BUY_SUPP_COMP_DDL).expect("parse"))
    });
    group.bench_function("simple_select", |b| {
        b.iter(|| parse_statement("SELECT a, b FROM t WHERE a = 1 AND b < 'x'").expect("parse"))
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("relstore");
    for rows in [1_000usize, 10_000] {
        let db = Database::new("bench");
        db.create_table(
            "T",
            Arc::new(Schema::of(&[
                ("id", DataType::Int),
                ("payload", DataType::Varchar),
            ])),
        )
        .unwrap();
        db.create_index("T", "pk", "id", IndexKind::Unique).unwrap();
        db.insert_all(
            "T",
            (0..rows)
                .map(|i| Row::new(vec![Value::Int(i as i32), Value::str(format!("row-{i}"))]))
                .collect(),
        )
        .unwrap();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(
            BenchmarkId::new("indexed_point_lookup", rows),
            &db,
            |b, db| {
                b.iter(|| {
                    db.scan_project("T", &Predicate::eq(0, 500), None)
                        .expect("scan")
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("full_scan", rows), &db, |b, db| {
            b.iter(|| db.scan_all("T").expect("scan"))
        });
    }
    group.finish();
}

fn bench_workflow_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("wfms_engine");
    let mut executor = EchoExecutor::new();
    executor.register("F", |_| Ok(Table::scalar("x", Value::Int(1))));
    for n in [2usize, 8, 32] {
        // A chain of n program activities.
        let mut b = ProcessBuilder::new("chain").input(&[("seed", DataType::Int)]);
        for i in 0..n {
            let source = if i == 0 {
                DataSource::input("seed")
            } else {
                DataSource::output(&format!("a{}", i - 1), "x")
            };
            b = b.program(
                &format!("a{i}"),
                "F",
                vec![DataBinding::new("in", source)],
                &[("x", DataType::Int)],
            );
            if i > 0 {
                b = b.connector(&format!("a{}", i - 1), &format!("a{i}"));
            }
        }
        let process = b.output_table(&format!("a{}", n - 1)).build().unwrap();
        let engine = Engine::new(CostModel::zero());
        let mut input = process.input.instantiate();
        input
            .set(&fedwf_types::Ident::new("seed"), Value::Int(0))
            .unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("sequential_chain", n),
            &process,
            |bch, process| {
                bch.iter(|| {
                    let mut meter = Meter::new();
                    engine
                        .run(process, &input, &executor, &mut meter)
                        .expect("run")
                        .output
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = fedwf_bench::micro::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    targets = bench_parser, bench_storage, bench_workflow_engine
}
criterion_main!(benches);
