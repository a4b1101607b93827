//! E7 — the parallel/sequential contrast in wall time: the WfMS and the
//! SQL-UDTF architecture on an independent (`GetSuppQualRelia`) and a
//! dependent (`GetSuppQual`) function.

use fedwf_bench::experiments::{call_fn, make_server};
use fedwf_bench::micro::Criterion;
use fedwf_bench::{criterion_group, criterion_main};
use fedwf_core::{paper_functions, ArchitectureKind};
use fedwf_types::Value;
use std::time::Duration;

fn bench_contrast(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_vs_sequential");
    for (label, kind) in [
        ("wfms", ArchitectureKind::Wfms),
        ("udtf", ArchitectureKind::SqlUdtf),
    ] {
        let server = make_server(kind);
        server
            .deploy(&paper_functions::get_supp_qual_relia())
            .expect("deploy");
        server
            .deploy(&paper_functions::get_supp_qual())
            .expect("deploy");
        let s = server.scenario();
        let parallel_args = [Value::Int(s.well_known_supplier_no())];
        let sequential_args = [Value::str(s.well_known_supplier_name())];
        call_fn(&server, "GetSuppQualRelia", &parallel_args).unwrap();
        call_fn(&server, "GetSuppQual", &sequential_args).unwrap();
        group.bench_function(format!("{label}/parallel"), |b| {
            b.iter(|| {
                call_fn(&server, "GetSuppQualRelia", &parallel_args)
                    .unwrap()
                    .table
            })
        });
        group.bench_function(format!("{label}/sequential"), |b| {
            b.iter(|| {
                call_fn(&server, "GetSuppQual", &sequential_args)
                    .unwrap()
                    .table
            })
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = fedwf_bench::micro::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    targets = bench_contrast
}
criterion_main!(benches);
