//! E13 — production executor vs the naive oracle, wall-clock scaling.
//!
//! ```text
//! cargo bench -p fedwf-bench --bench join_scaling            # full ladder
//! cargo bench -p fedwf-bench --bench join_scaling -- --quick # CI-sized run
//! ```
//!
//! Measures the Cartesian-product oracle against the production executor
//! (vectorized streaming): scaled equi-joins (hash and unique-index
//! probe), DISTINCT/GROUP BY de-duplication, and dependent-UDTF
//! memoization. Even `--quick` keeps n = 2000 per side on the headline
//! equi-join — the naive leg is the point of the experiment.

use fedwf_bench::join_scaling::{dependent_memo, equi_join, JoinScalingRow};

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("FEDWF_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick {
        &[2_000]
    } else {
        &[500, 1_000, 2_000, 4_000]
    };

    println!("production executor vs naive oracle (cost model zeroed, wall clock)");
    println!(
        "equi-join: n rows per side, unique keys (selectivity 1/n){}\n",
        if quick { "  [--quick]" } else { "" }
    );

    println!("{}", JoinScalingRow::render_header());
    for &n in sizes {
        for row in fedwf_bench::join_scaling::all(n) {
            println!("{}", row.render_row());
        }
        println!();
    }

    let headline = equi_join(2_000, false);
    println!(
        "headline: n=2000 equi-join speedup {:.1}x (naive materializes {} composed rows)",
        headline.speedup(),
        2_000usize * 2_000
    );

    let (memo, off, on) = dependent_memo(2_000, 10, 100_000);
    println!(
        "dependent UDTF memo: {off} invocations without memo, {on} with ({:.1}x wall clock)",
        memo.speedup()
    );
}
