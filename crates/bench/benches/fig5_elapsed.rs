//! Fig. 5 — wall-clock of warm federated-function calls per architecture.
//!
//! The virtual-time reproduction lives in `experiments::fig5_elapsed`; this
//! bench measures the *real* cost of our engines executing the same calls
//! (plan-cache hits, lateral execution, workflow navigation).

use fedwf_bench::experiments::{args_for, call_fn, make_server};
use fedwf_bench::micro::{BenchmarkId, Criterion};
use fedwf_bench::{criterion_group, criterion_main};
use fedwf_core::{paper_functions, ArchitectureKind};
use std::time::Duration;

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_elapsed");
    for kind in [ArchitectureKind::Wfms, ArchitectureKind::SqlUdtf] {
        let server = make_server(kind);
        for (spec, _) in paper_functions::fig5_workload() {
            if !server.architecture().supports(&spec) {
                continue;
            }
            server.deploy(&spec).expect("deploy");
            let args = args_for(server.scenario(), &spec);
            // Warm every cache before sampling.
            call_fn(&server, spec.name.as_str(), &args).expect("warm-up");
            let label = match kind {
                ArchitectureKind::Wfms => "wfms",
                _ => "udtf",
            };
            group.bench_with_input(
                BenchmarkId::new(label, spec.name.as_str()),
                &spec,
                |b, spec| {
                    b.iter(|| {
                        call_fn(&server, spec.name.as_str(), &args)
                            .expect("federated call")
                            .table
                    })
                },
            );
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
    targets = bench_fig5
}
criterion_main!(benches);
