//! E10 — scalability: wall-clock of warm calls as the enterprise grows.

use fedwf_appsys::DataGenConfig;
use fedwf_bench::experiments::{args_for, call_fn};
use fedwf_bench::micro::{BenchmarkId, Criterion, Throughput};
use fedwf_bench::{criterion_group, criterion_main};
use fedwf_core::{paper_functions, ArchitectureKind, IntegrationConfig, IntegrationServer};
use std::time::Duration;

fn bench_scalability(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalability");
    for components in [200usize, 1000, 4000] {
        let server = IntegrationServer::new(
            IntegrationConfig::default()
                .with_architecture(ArchitectureKind::SqlUdtf)
                .with_data(DataGenConfig {
                    components,
                    suppliers: components / 2,
                    ..DataGenConfig::default()
                }),
        )
        .expect("server");
        server.boot();
        for spec in [
            paper_functions::buy_supp_comp(),
            paper_functions::get_sub_comp_discounts(),
        ] {
            server.deploy(&spec).expect("deploy");
            let args = args_for(server.scenario(), &spec);
            call_fn(&server, spec.name.as_str(), &args).expect("warm-up");
            group.throughput(Throughput::Elements(components as u64));
            group.bench_with_input(
                BenchmarkId::new(spec.name.as_str(), components),
                &spec,
                |b, spec| {
                    b.iter(|| {
                        call_fn(&server, spec.name.as_str(), &args)
                            .expect("call")
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
    targets = bench_scalability
}
criterion_main!(benches);
