//! Serving-layer throughput harness.
//!
//! ```text
//! cargo bench -p fedwf-bench --bench throughput            # full ladder
//! cargo bench -p fedwf-bench --bench throughput -- --quick # CI-sized run
//! ```
//!
//! Drives all four architectures through a [`fedwf_core::ServerFront`] with
//! 1/2/4/8/16 closed-loop client threads and reports wall-clock QPS plus
//! p50/p95/p99 latency per rung, then repeats the 8-client rung with the
//! wrapper result cache enabled (the read-mostly fast path) and finishes
//! with a 16-client soak over a deliberately small front to exercise
//! shedding and deadline handling.

use fedwf_bench::throughput::{ladder, run_throughput, soak, ThroughputConfig, ThroughputSummary};
use fedwf_core::ArchitectureKind;

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("FEDWF_BENCH_QUICK").is_some();
    let calls_per_client = if quick { 10 } else { 200 };

    println!("serving-layer throughput (closed loop, GetSuppQual, warm caches)");
    println!(
        "calls per client: {calls_per_client}{}\n",
        if quick { "  [--quick]" } else { "" }
    );

    println!("{}", ThroughputSummary::render_header());
    for architecture in [
        ArchitectureKind::Wfms,
        ArchitectureKind::SqlUdtf,
        ArchitectureKind::JavaUdtf,
        ArchitectureKind::SimpleUdtf,
    ] {
        for summary in ladder(architecture, calls_per_client) {
            println!("{}", summary.render_row());
        }
        println!();
    }

    println!("result cache on (read-only repeated call — the paper's future-work");
    println!("\"query optimization options\"): 1-client vs 8-client scaling");
    println!("{}", ThroughputSummary::render_header());
    let mut scaled = Vec::new();
    for clients in [1usize, 8] {
        let summary = run_throughput(
            &ThroughputConfig::closed_loop(ArchitectureKind::Wfms, clients)
                .with_calls_per_client(calls_per_client)
                .with_result_cache(true),
        );
        println!("{}", summary.render_row());
        scaled.push(summary);
    }
    let speedup = scaled[1].qps / scaled[0].qps.max(f64::MIN_POSITIVE);
    println!("8-client / 1-client QPS ratio: {speedup:.2}x\n");

    println!("16-client soak over 2 workers / depth-2 queue (shedding exercised):");
    println!("{}", ThroughputSummary::render_header());
    let soaked = soak(ArchitectureKind::Wfms, 16, calls_per_client);
    println!("{}", soaked.render_row());
    println!(
        "degraded gracefully: {} ok, {} shed, {} timed out, 0 hard failures",
        soaked.ok, soaked.shed, soaked.timed_out
    );
}
