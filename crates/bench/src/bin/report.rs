//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p fedwf-bench --bin report            # everything
//! cargo run -p fedwf-bench --bin report -- e3 e6   # selected experiments
//! ```

use fedwf_bench::experiments as exp;
use fedwf_core::ArchitectureKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    if want("e1") {
        section("E1 — Section 3: supported mapping complexity");
        println!("{}", exp::render_capability_table());
        println!(
            "paper: the WfMS approach realizes every case; the UDTF approach\n\
             fails exactly the cyclic case.\n"
        );
    }

    if want("e2") {
        section("E2 — Fig. 5: elapsed time per federated function (warm calls)");
        let rows = exp::fig5_elapsed();
        println!("{}", exp::render_fig5(&rows));
        let max_ratio = rows.iter().filter_map(|r| r.ratio()).fold(0.0f64, f64::max);
        println!(
            "paper: \"the WfMS approach is up to three times slower\";\n\
             measured: ratios up to {max_ratio:.2} (fixed WfMS invocation overhead\n\
             dominates the tiniest functions), factor ~3 at GetNoSuppComp.\n"
        );
    }

    if want("e3") {
        section("E3 — Fig. 6: time portions of GetNoSuppComp");
        let (wf, udtf) = exp::fig6_breakdowns();
        println!("{wf}");
        println!("{udtf}");
        println!(
            "paper (WfMS): start 9% / process 11% / RMI 3% / wf+Java start 10% /\n\
             activities 51% / navigation 9% / controller 5% / finish 2%.\n\
             paper (UDTF): start I-UDTF 11% / prepare 28% / RMI 24% / locals 6% /\n\
             finish 21% / RMI return 1% / finish I-UDTF 9%; controller 25% in total.\n"
        );
    }

    if want("e4") {
        section("E4 — cold / after-other-function / repeated call tiers");
        for kind in [ArchitectureKind::Wfms, ArchitectureKind::SqlUdtf] {
            let rows = exp::warmup_tiers(kind);
            println!("{}", exp::render_warmup(&rows));
        }
        println!(
            "paper: \"the initial function calls are the slowest ... the repeated\n\
             function call is the fastest\".\n"
        );
    }

    if want("e5") {
        section("E5 — AllCompNames: loop scaling (WfMS architecture)");
        let points = exp::loop_scaling(&[1, 2, 4, 8, 16, 32, 64]);
        println!("{:>10} {:>14}", "iterations", "elapsed (us)");
        for p in &points {
            println!("{:>10} {:>14}", p.iterations, p.elapsed_us);
        }
        let (a, b, r2) = exp::linear_fit(&points);
        println!(
            "\nfit: elapsed ≈ {a:.0}·n + {b:.0} us   (r² = {r2:.6})\n\
             paper: \"the overall processing time rises linearly to the number of\n\
             function calls\".\n"
        );
    }

    if want("e6") {
        section("E6 — controller ablation");
        let r = exp::controller_ablation();
        println!(
            "{:<22} {:>12} {:>12} {:>8}",
            "", "UDTF (us)", "WfMS (us)", "ratio"
        );
        println!(
            "{:<22} {:>12} {:>12} {:>8.2}",
            "with controller", r.with_controller.0, r.with_controller.1, r.with_controller.2
        );
        println!(
            "{:<22} {:>12} {:>12} {:>8.2}",
            "without controller",
            r.without_controller.0,
            r.without_controller.1,
            r.without_controller.2
        );
        println!(
            "controller share: UDTF {:.0}%  WfMS {:.0}%",
            r.controller_share_udtf * 100.0,
            r.controller_share_wfms * 100.0
        );
        println!(
            "paper: removing the controller cuts the WfMS total by 8% and the UDTF\n\
             total by 25%, moving the ratio from 3 to 3.7.\n"
        );
    }

    if want("e7") {
        section("E7 — parallel (GetSuppQualRelia) vs sequential (GetSuppQual)");
        println!(
            "{:<28} {:>14} {:>16}",
            "architecture", "parallel (us)", "sequential (us)"
        );
        for row in exp::parallel_vs_sequential() {
            println!(
                "{:<28} {:>14} {:>16}",
                row.architecture.name(),
                row.parallel_us,
                row.sequential_us
            );
        }
        println!(
            "\npaper: on the WfMS the parallel function is processed faster than the\n\
             sequential one; the UDTF approach shows the contrary result.\n"
        );
    }

    if want("e9") {
        section("E9 — error handling: one transient fault before every call");
        println!(
            "{:<28} {:>10} {:>10}",
            "architecture", "attempts", "successes"
        );
        for r in exp::error_handling(5) {
            println!(
                "{:<28} {:>10} {:>10}",
                r.architecture.name(),
                r.attempts,
                r.successes
            );
        }
        println!(
            "\npaper (qualitative): the WfMS \"copes with different kinds of error\n\
             handling\" — per-activity retries absorb transient faults that are\n\
             fatal to the UDTF architectures.\n"
        );
    }

    if want("e10") {
        section("E10 — scalability: warm-call cost vs. enterprise size");
        println!(
            "{:<12} {:<22} {:>12} {:>12}",
            "components", "function", "WfMS (us)", "UDTF (us)"
        );
        for r in exp::scalability(&[200, 500, 1000, 2000]) {
            println!(
                "{:<12} {:<22} {:>12} {:>12}",
                r.components, r.function, r.wfms_us, r.udtf_us
            );
        }
        println!(
            "\npaper (future work): \"further research has to clarify issues of ...\n\
             scalability\". Scalar-result functions stay flat; set-returning\n\
             functions grow with the data they move.\n"
        );
    }

    if want("e11") {
        section("E11 — wrapper result-cache ablation");
        let r = exp::result_cache_ablation();
        println!("uncached repeated call: {:>10} us", r.uncached_us);
        println!("cached repeated call:   {:>10} us", r.cached_us);
        println!(
            "\npaper (future work): the wrapper \"mak[es] various query optimization\n\
             options available\" — caching identical federated-function results is\n\
             sound under the read-only UDTF semantics.\n"
        );
    }

    if want("e12") {
        use fedwf_bench::throughput::{self, ThroughputSummary};
        section("E12 — serving-layer throughput (wall clock, closed loop)");
        println!("{}", ThroughputSummary::render_header());
        for kind in [ArchitectureKind::Wfms, ArchitectureKind::SqlUdtf] {
            for summary in throughput::ladder(kind, 25) {
                println!("{}", summary.render_row());
            }
        }
        println!(
            "\nbeyond the paper: its testbed measured one call at a time; this\n\
             reproduction's front (FIFO admission gate over the\n\
             read-mostly server) serves N clients concurrently. Full ladder,\n\
             result-cache scaling and the 16-client soak:\n\
             cargo bench -p fedwf-bench --bench throughput.\n"
        );
    }

    if want("e13") {
        use fedwf_bench::join_scaling::{self, JoinScalingRow};
        section("E13 — production executor vs naive oracle (wall clock, cost model zeroed)");
        println!("{}", JoinScalingRow::render_header());
        for row in join_scaling::all(2_000) {
            println!("{}", row.render_row());
        }
        let (_, off, on) = join_scaling::dependent_memo(2_000, 10, 100_000);
        println!(
            "\nbeyond the paper: the naive oracle composes every FROM step as a\n\
             Cartesian product and re-filters per row; the production executor\n\
             uses the equi-join keys extracted at bind time (hash join /\n\
             unique-index probe), hashes DISTINCT and GROUP BY, and memoizes\n\
             dependent UDTF calls ({off} invocations -> {on} on repeated\n\
             argument tuples).\n\
             Full size ladder: cargo bench -p fedwf-bench --bench join_scaling.\n"
        );
    }

    if want("e14") {
        use fedwf_bench::scan_project::{self, ScanProjectRow};
        section("E14 — streaming + projection pruning vs the naive oracle");
        println!("{}", ScanProjectRow::render_header());
        for row in scan_project::all(2_000) {
            println!("{}", row.render_row());
        }
        let parse = scan_project::parse_path(300);
        println!(
            "\nbeyond the paper: the oracle materializes every composed\n\
             intermediate at full row width; the streaming executor pulls\n\
             bounded column batches through non-blocking operators and the\n\
             binder prunes unreferenced columns into the scans (SQL/MED\n\
             wrappers included), so only genuine pipeline breakers buffer\n\
             rows. Warm statements also skip lexing/parsing on a raw-SQL\n\
             plan-cache key ({} re-parsed vs {} warm us over {} calls).\n\
             Full size ladder: cargo bench -p fedwf-bench --bench scan_project.\n",
            parse.cold_us, parse.warm_us, parse.iters
        );
    }

    if want("e15") {
        use fedwf_bench::trace_overhead::{self, TraceOverheadRow};
        use fedwf_core::{paper_functions, Request};
        section("E15 — trace-span overhead and end-to-end observability");
        println!("{}", TraceOverheadRow::render_header());
        for row in trace_overhead::all(20) {
            println!("{}", row.render_row());
        }
        let server = exp::make_server(ArchitectureKind::Wfms);
        let spec = paper_functions::get_no_supp_comp();
        server.deploy(&spec).expect("deploy GetNoSuppComp");
        let args = exp::args_for(&server, &spec);
        exp::call_fn(&server, spec.name.as_str(), &args).expect("warm-up");
        let outcome = server
            .execute(
                &Request::function(spec.name.as_str())
                    .params(args.as_slice())
                    .traced(true),
            )
            .expect("traced call");
        println!("\nspan tree of one warm GetNoSuppComp call (WfMS architecture):");
        println!("{}", outcome.trace.as_ref().expect("traced").render());
        println!("server metrics after the run:");
        println!("{}", server.metrics().render_text());
    }

    if want("e8") {
        section("E8 — the architecture spectrum on BuySuppComp");
        println!(
            "{:<32} {:>14} {:>10}",
            "architecture", "elapsed (us)", "decision"
        );
        for row in exp::architecture_spectrum() {
            println!(
                "{:<32} {:>14} {:>10}",
                row.architecture.name(),
                row.elapsed_us,
                row.decision
            );
        }
        println!();
    }
}

fn section(title: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}\n", "=".repeat(78));
}
