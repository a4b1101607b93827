//! E6 — controller ablation: the same calls under the default and the
//! controller-free cost models.

use fedwf_bench::experiments::{args_for, call_fn, make_server_with_cost};
use fedwf_bench::micro::Criterion;
use fedwf_bench::{criterion_group, criterion_main};
use fedwf_core::{paper_functions, ArchitectureKind};
use fedwf_sim::CostModel;
use std::time::Duration;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_ablation");
    let spec = paper_functions::get_no_supp_comp();
    for (label, cost) in [
        ("with_controller", CostModel::default()),
        (
            "without_controller",
            CostModel::default().without_controller(),
        ),
    ] {
        for (arch_label, kind) in [
            ("udtf", ArchitectureKind::SqlUdtf),
            ("wfms", ArchitectureKind::Wfms),
        ] {
            let server = make_server_with_cost(kind, cost.clone());
            server.deploy(&spec).expect("deploy");
            let args = args_for(server.scenario(), &spec);
            call_fn(&server, "GetNoSuppComp", &args).expect("warm-up");
            group.bench_function(format!("{label}/{arch_label}"), |b| {
                b.iter(|| {
                    call_fn(&server, "GetNoSuppComp", &args)
                        .expect("call")
                        .table
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = fedwf_bench::micro::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    targets = bench_ablation
}
criterion_main!(benches);
