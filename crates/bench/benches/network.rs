//! E19: network serving overhead — loopback TCP vs in-process.
//!
//! ```text
//! cargo bench -p fedwf-bench --bench network            # full ladder
//! cargo bench -p fedwf-bench --bench network -- --quick # CI-sized run
//! ```
//!
//! Both arms run the identical warm workload through `impl Submit`
//! against one shared server; the per-call difference is the wire:
//! frame codec + two loopback socket hops. The full run asserts a sanity
//! bound on the added latency; `--quick` only reports (CI boxes are too
//! noisy to gate on wall clock).

use fedwf_bench::network::{drain_under_load, ladder};
use fedwf_bench::throughput::ThroughputSummary;

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("FEDWF_BENCH_QUICK").is_some();
    let calls_per_client = if quick { 20 } else { 300 };

    println!("E19: network serving overhead (closed loop, warm GetSuppQual, WfMS)");
    println!(
        "calls per client: {calls_per_client}{}\n",
        if quick { "  [--quick]" } else { "" }
    );

    println!("{}", ThroughputSummary::render_transport_header());
    let comparisons = ladder(calls_per_client);
    for comparison in &comparisons {
        println!("{}", comparison.in_process.render_transport_row());
        println!("{}", comparison.network.render_transport_row());
        println!(
            "{:>22} mean overhead {:+} us/call, QPS ratio {:.2}x\n",
            "→",
            comparison.overhead_mean_us(),
            comparison.qps_ratio()
        );
    }

    if !quick {
        // Sanity bound, deliberately loose: loopback frames around a
        // sub-millisecond warm call must not add a whole millisecond at
        // the single-connection rung (measured ~40-80 us on a dev box).
        let single = &comparisons[0];
        assert!(
            single.overhead_mean_us() < 1_000,
            "wire overhead exploded: {:+} us/call at 1 connection",
            single.overhead_mean_us()
        );
    }

    println!("graceful drain under load (listener shutdown mid-fire):");
    let (ok, errors) = drain_under_load(8, calls_per_client.min(50));
    println!("  {ok} calls completed, {errors} severed/refused — no hangs, no panics");
}
