//! The threaded workflow navigator must be *observationally identical* to
//! the sequential one: same result tables and the same virtual-time
//! accounting. Virtual time is the whole point of the simulation — real
//! thread scheduling must never leak into it, so `run_threaded` and `run`
//! have to agree on `Meter::now_us` *and* on the full multiset of charges
//! for every federated function of the paper.

use fedwf::core::{
    paper_functions, ArchitectureKind, IntegrationConfig, IntegrationServer, Request,
};
use fedwf::sim::{Charge, Component};
use fedwf_bench::args_for;

/// Positional call through the unified [`Request`] surface.
fn call(s: &IntegrationServer, name: &str, args: &[fedwf::types::Value]) -> fedwf::core::Outcome {
    s.execute(&Request::function(name).params(args)).unwrap()
}

fn server(threaded: bool) -> IntegrationServer {
    let config = IntegrationConfig {
        threaded_wfms: threaded,
        ..IntegrationConfig::default().with_architecture(ArchitectureKind::Wfms)
    };
    let s = IntegrationServer::new(config).unwrap();
    s.boot();
    s
}

/// A charge multiset as a sortable key list: component, step, virtual
/// start, virtual duration. Two meters agree iff these lists are equal.
fn charge_keys(charges: &[Charge]) -> Vec<(Component, String, u64, u64)> {
    let mut keys: Vec<_> = charges
        .iter()
        .map(|c| (c.component, c.step.to_string(), c.start_us, c.duration_us))
        .collect();
    keys.sort();
    keys
}

#[test]
fn threaded_and_sequential_navigation_are_observationally_identical() {
    let sequential = server(false);
    let threaded = server(true);
    for (spec, _) in paper_functions::fig5_workload() {
        sequential.deploy(&spec).unwrap();
        threaded.deploy(&spec).unwrap();
        let args = args_for(&sequential, &spec);

        // Two calls each: the first is the warm-up tier (template loads,
        // plan compiles), the second the repeated tier. Both must agree.
        for tier in ["first call", "repeated call"] {
            let a = call(&sequential, spec.name.as_str(), &args);
            let b = call(&threaded, spec.name.as_str(), &args);
            assert_eq!(
                a.table, b.table,
                "{} ({tier}): result tables diverge",
                spec.name
            );
            assert_eq!(
                a.meter.now_us(),
                b.meter.now_us(),
                "{} ({tier}): virtual elapsed time diverges",
                spec.name
            );
            assert_eq!(
                charge_keys(a.meter.charges()),
                charge_keys(b.meter.charges()),
                "{} ({tier}): charge multisets diverge",
                spec.name
            );
        }
    }
}

/// The equivalence must also hold under the repeated-call result cache,
/// where the wrapper short-circuits the engine entirely.
#[test]
fn threaded_equivalence_holds_with_result_cache() {
    let make = |threaded: bool| {
        let config = IntegrationConfig {
            threaded_wfms: threaded,
            result_cache: true,
            ..IntegrationConfig::default().with_architecture(ArchitectureKind::Wfms)
        };
        let s = IntegrationServer::new(config).unwrap();
        s.boot();
        s.deploy(&paper_functions::get_supp_qual_relia()).unwrap();
        s
    };
    let sequential = make(false);
    let threaded = make(true);
    let args = args_for(&sequential, &paper_functions::get_supp_qual_relia());
    for _ in 0..3 {
        let a = call(&sequential, "GetSuppQualRelia", &args);
        let b = call(&threaded, "GetSuppQualRelia", &args);
        assert_eq!(a.table, b.table);
        assert_eq!(a.meter.now_us(), b.meter.now_us());
        assert_eq!(
            charge_keys(a.meter.charges()),
            charge_keys(b.meter.charges())
        );
    }
}
