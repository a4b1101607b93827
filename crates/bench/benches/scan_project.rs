//! E14 — streaming executor + projection pruning vs the naive oracle,
//! wall-clock scaling.
//!
//! ```text
//! cargo bench -p fedwf-bench --bench scan_project            # full ladder
//! cargo bench -p fedwf-bench --bench scan_project -- --quick # CI-sized run
//! ```
//!
//! Measures the materializing naive oracle against the production
//! executor (vectorized streaming with bind-time projection pruning) on
//! wide-row workloads (26-column table, 1–4 columns referenced): scans, a
//! selective filter, grouped aggregates and joins. Each workload asserts
//! identical results across both legs, live materialization counters on
//! the oracle leg, and a strict bytes-materialized reduction on the
//! streaming leg — the run fails loudly if any of those break. Even
//! `--quick` keeps the headline n = 2000 wide join.

use fedwf_bench::scan_project::{self, parse_path, wide_join_best_of, ScanProjectRow};

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("FEDWF_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick {
        &[2_000]
    } else {
        &[500, 1_000, 2_000, 4_000]
    };

    println!("streaming+pruned vs naive oracle (cost model zeroed, wall clock)");
    println!(
        "wide table: 26 columns, 1-4 referenced{}\n",
        if quick { "  [--quick]" } else { "" }
    );

    println!("{}", ScanProjectRow::render_header());
    for &n in sizes {
        for row in scan_project::all(n) {
            println!("{}", row.render_row());
        }
        println!();
    }

    let headline = wide_join_best_of(2_000, 3);
    assert!(
        headline.speedup() >= 2.0,
        "E14 acceptance: expected streaming+pruned >= 2x the naive oracle on \
         the n=2000 wide join, got {:.2}x",
        headline.speedup()
    );
    println!(
        "headline: n=2000 wide join — {:.1}x wall clock, {:.1}x fewer bytes materialized",
        headline.speedup(),
        headline.bytes_ratio()
    );

    let parse = parse_path(500);
    println!(
        "warm-statement fast path: {} iterations re-parsed {} us, warm {} us ({:.1}x)",
        parse.iters,
        parse.cold_us,
        parse.warm_us,
        parse.speedup()
    );
}
