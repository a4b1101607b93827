//! Fig. 6 — cost of executing + accounting GetNoSuppComp on both
//! architectures, including the breakdown aggregation itself.

use fedwf_bench::experiments::{args_for, call_fn, make_server};
use fedwf_bench::micro::Criterion;
use fedwf_bench::{criterion_group, criterion_main};
use fedwf_core::{paper_functions, ArchitectureKind};
use std::time::Duration;

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_breakdown");
    let spec = paper_functions::get_no_supp_comp();

    for (label, kind) in [
        ("wfms", ArchitectureKind::Wfms),
        ("udtf", ArchitectureKind::SqlUdtf),
    ] {
        let server = make_server(kind);
        server.deploy(&spec).expect("deploy");
        let args = args_for(server.scenario(), &spec);
        call_fn(&server, "GetNoSuppComp", &args).expect("warm-up");
        group.bench_function(format!("call_and_breakdown/{label}"), |b| {
            b.iter(|| {
                let outcome = call_fn(&server, "GetNoSuppComp", &args).expect("call");
                outcome.breakdown_by_step("bench")
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
    targets = bench_fig6
}
criterion_main!(benches);
