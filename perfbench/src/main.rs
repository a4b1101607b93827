//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fn_mix|sql_mix|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives one workload over loopback TCP against the stack `fedwf-server`
//! runs (`IntegrationServer` → `ServerFront` → `NetServer`) with a closed
//! loop of 2 client threads, checks every reply against a reference, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`, holding the end-to-end metrics with `--trace 0` and the
//! per-layer metrics with `--trace 1`.
//!
//! With `--trace 1` the first half of the window runs untraced and the
//! second half re-issues a sample of requests down the ladder of entry
//! points (see `ladder.rs`); the difference between the halves is the
//! tracing overhead. Spans are written to `.perfbench_out/`.

mod ingest;
mod ladder;
mod load;
mod rig;
mod util;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fedwf_core::Request;
use fedwf_types::{FedError, FedResult};

use load::{Driver, Run, State};
use rig::{Rig, CLIENTS};
use util::{median, Metric};
use workloads::Mix;

/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUPS: usize = 5;
/// Requests per client submitted (and checked) before the clock starts.
const WARM_UP: usize = 200;
/// Where set-up files (the durable store) and spans go, under the working
/// directory.
const TMP_DIR: &str = ".perfbench_tmp";
const OUT_DIR: &str = ".perfbench_out";

/// The per-layer metrics of the final line with `--trace 1`: those both
/// `fn_mix` and `sql_mix` exercise. The `layers` line before it holds every
/// per-layer metric of the run, including the SQL/MED and relstore ones
/// only some workloads reach; a layer that does not run is absent there.
const PER_LAYER: &[&str] = &[
    "net.submit_us",
    "net.self_us",
    "net.frame_us",
    "net.request_bytes",
    "net.reply_bytes",
    "wire.request_codec_us",
    "wire.outcome_codec_us",
    "wire.charges_per_reply",
    "front.self_us",
    "front.shed",
    "front.expired_in_queue",
    "server.self_us",
    "metrics.snapshot_us",
    "metrics.counter_inc_ns",
    "sqlparse.parse_us",
    "fdbs.execute_us",
    "fdbs.self_us",
    "fdbs.plan_us",
    "fdbs.plan_cache_miss_ratio",
    "fdbs.cached_plans",
    "fdbs.rows_out",
    "fdbs.rows_materialized",
    "fdbs.bytes_materialized",
    "wrapper.invoke_us",
    "wrapper.udtf_self_us",
    "wfms.navigation_self_us",
    "wfms.activities_per_call",
    "controller.self_us",
    "appsys.local_us",
    "appsys.local_calls_per_req",
];

/// The end-to-end metrics of the final line with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "qps",
    "p50_us",
    "p99_us",
    "cpu_us_per_req",
    "rss_mb",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FnMix,
    SqlMix,
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "fn_mix" => Workload::FnMix,
            "sql_mix" => Workload::SqlMix,
            "ingest" => Workload::Ingest,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FnMix => "fn_mix",
            Workload::SqlMix => "sql_mix",
            Workload::Ingest => "ingest",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reference: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload fn_mix|sql_mix|ingest --seed N --seconds S --trace 0|1 \
         [--corrupt-reference]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        corrupt_reference,
    })
}

/// What the set-up hands to the measured window.
enum Prepared {
    Mix(Mix),
    Ingest(Vec<Vec<ingest::Draw>>),
}

/// One complete set-up: data, boot, deploy, load, ANALYZE, references and
/// warm-up. Returns the rig, the workload's inputs and the warmed states.
fn set_up(args: &Args, dir: &Path) -> FedResult<(Rig, Prepared, Vec<State>)> {
    let store = (args.workload == Workload::Ingest).then_some(dir);
    if let Some(dir) = store {
        std::fs::create_dir_all(dir)
            .map_err(|e| FedError::execution(format!("create {}: {e}", dir.display())))?;
    }
    let rig = Rig::start(store)?;
    let prepared = match args.workload {
        Workload::FnMix => Prepared::Mix(workloads::fn_mix(&rig.server, args.seed, CLIENTS)?),
        Workload::SqlMix => Prepared::Mix(workloads::sql_mix(&rig.server, args.seed, CLIENTS)?),
        Workload::Ingest => {
            ingest::load(&rig.server)?;
            Prepared::Ingest(ingest::draws(args.seed, CLIENTS, workloads::SEQUENCE_LEN))
        }
    };
    let driver = driver(&prepared, false);
    let mut states = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let mut state = State::new(&driver, client);
        load::warm_up(&rig, &driver, &mut state, client, WARM_UP)?;
        states.push(state);
    }
    Ok((rig, prepared, states))
}

fn driver(prepared: &Prepared, corrupt: bool) -> Driver<'_> {
    match prepared {
        Prepared::Mix(mix) => Driver::Mix { mix, corrupt },
        Prepared::Ingest(draws) => Driver::Ingest { draws },
    }
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// End-to-end readings of one slice of the untraced window.
struct SliceMetrics {
    qps: f64,
    p50_us: Option<f64>,
    p99_us: Option<f64>,
    cpu_us_per_req: Option<f64>,
    /// Host steal time during the slice, in ticks.
    steal: Option<u64>,
}

/// A slice with more host steal than this (ticks of 10 ms, over all CPUs)
/// measured the hypervisor rather than the program.
const MAX_STEAL_TICKS: u64 = 1;

/// The slices the end-to-end medians use: those without host steal, when
/// at least a quarter of the slices are; otherwise all of them.
fn clean_slices(slices: &[SliceMetrics]) -> Vec<&SliceMetrics> {
    let clean: Vec<&SliceMetrics> = slices
        .iter()
        .filter(|s| s.steal.is_some_and(|t| t <= MAX_STEAL_TICKS))
        .collect();
    if clean.len() * 4 >= slices.len() {
        clean
    } else {
        slices.iter().collect()
    }
}

/// Readings of the first `count` whole slices.
fn slice_metrics(run: &Run, count: usize) -> Vec<SliceMetrics> {
    (0..count)
        .map(|k| {
            let hist = run.untraced.slices.get(k).cloned().unwrap_or_default();
            let cpu = match (run.cpu_marks.get(k), run.cpu_marks.get(k + 1)) {
                (Some(Some(a)), Some(Some(b))) if hist.count() > 0 => {
                    Some((b - a) as f64 / hist.count() as f64)
                }
                _ => None,
            };
            let steal = match (run.steal_marks.get(k), run.steal_marks.get(k + 1)) {
                (Some(Some(a)), Some(Some(b))) => Some(b.saturating_sub(*a)),
                _ => None,
            };
            SliceMetrics {
                qps: hist.count() as f64 / load::SLICE.as_secs_f64(),
                p50_us: hist.quantile_us(0.5),
                p99_us: hist.quantile_us(0.99),
                cpu_us_per_req: cpu,
                steal,
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> FedResult<()> {
    let run_dir =
        PathBuf::from(TMP_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = measure(args, &run_dir);
    remove_dir(&run_dir);
    let _ = std::fs::remove_dir(TMP_DIR); // only if no other run uses it
    result
}

fn measure(args: &Args, run_dir: &Path) -> FedResult<()> {
    // Set up several times; keep the last set-up for the measurement. Each
    // earlier one is torn down before the next starts, so only one rig is
    // ever resident.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<(Rig, Prepared, Vec<State>, PathBuf)> = None;
    for k in 0..SETUPS {
        if let Some((old_rig, _, _, old_dir)) = kept.take() {
            Rig::shutdown(old_rig);
            remove_dir(&old_dir);
        }
        let dir = run_dir.join(format!("store-{k}"));
        let started = Instant::now();
        let (rig, prepared, states) = set_up(args, &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((rig, prepared, states, dir));
    }
    let (rig, prepared, states, store_dir) = kept.expect("at least one set-up");
    let driver = driver(&prepared, args.corrupt_reference);

    let plans_before = rig.server.fdbs().cached_plan_count();
    let rss_before = util::rss_mib("VmRSS");
    let origin = Instant::now();
    let end = origin + Duration::from_secs_f64(args.seconds);
    let ladder_from = if args.trace {
        origin + Duration::from_secs_f64(args.seconds / 2.0)
    } else {
        end
    };
    let run = load::run(&rig, &driver, states, origin, ladder_from, end);
    let plans_after = rig.server.fdbs().cached_plan_count();
    let front = rig.front.stats();

    // End-of-run checks.
    let mut end_check: Result<(), String> = Ok(());
    if args.workload == Workload::Ingest {
        end_check = ingest_count_check(&rig, &run);
    }
    let wal_bytes = store_dir.join("wal.log").metadata().map(|m| m.len()).ok();
    let commit_stats = rig.server.fdbs().catalog().local().commit_stats();
    rig.shutdown();
    if args.workload == Workload::Ingest && end_check.is_ok() {
        end_check = ingest::verify_reopened(&store_dir, &run.models).map_err(|e| e.to_string());
    }
    if let Err(problem) = &end_check {
        eprintln!("perfbench: end-of-run check failed: {problem}");
    }

    let untraced = &run.untraced;
    let attempted = untraced.attempted + run.traced.attempted;
    let failed = untraced.failed + untraced.wrong + run.traced.failed + run.traced.wrong;
    let correct = failed == 0 && end_check.is_ok();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        run.elapsed_s
    };
    let completed = untraced.latency.count();
    let ok = completed - untraced.wrong.min(completed);

    // Throughput, latency and CPU are medians over the whole slices of the
    // untraced window, so a burst of interference in a few slices does not
    // move them; slices with host steal are left out (see `clean_slices`).
    let slices = slice_metrics(
        &run,
        (untraced_s / load::SLICE.as_secs_f64()).floor() as usize,
    );
    let used = clean_slices(&slices);
    let steal: u64 = slices.iter().filter_map(|s| s.steal).sum();
    let slice_median = |f: fn(&SliceMetrics) -> Option<f64>| {
        let mut v: Vec<f64> = used.iter().filter_map(|s| f(s)).collect();
        median(&mut v)
    };
    let mut setup_sorted = setup_s.clone();
    let setup_median = median(&mut setup_sorted).expect("set-ups ran");
    let qps = slice_median(|s| Some(s.qps)).unwrap_or(f64::NAN);
    let p50 = slice_median(|s| s.p50_us);
    let p99 = slice_median(|s| s.p99_us);
    let cpu_per_req = slice_median(|s| s.cpu_us_per_req);
    let rss = util::rss_mib("VmHWM");
    let error_rate = (untraced.failed + untraced.wrong) as f64 / untraced.attempted.max(1) as f64;

    // Human-readable report: every end-to-end metric with unit and samples.
    let n = untraced.latency.count();
    let per_slice = format!(
        "median of {} of {} slices of {:?} (host steal {steal} ticks)",
        used.len(),
        slices.len(),
        load::SLICE
    );
    println!(
        "perfbench {} seed={} seconds={} trace={} clients={CLIENTS} available_parallelism={} git_rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        util::parallelism(),
        util::git_rev()
    );
    let mut e2e: Vec<(Metric, String)> = vec![
        (
            ("setup_s".into(), setup_median, "s"),
            format!("median of {SETUPS}: {setup_s:.4?}"),
        ),
        (
            ("qps".into(), qps, "req/s"),
            format!("{per_slice}; {ok} ok in {untraced_s:.3} s"),
        ),
        (
            ("p50_us".into(), p50.unwrap_or(f64::NAN), "us"),
            format!("{per_slice}; n={n}"),
        ),
        (
            ("p99_us".into(), p99.unwrap_or(f64::NAN), "us"),
            format!("{per_slice}; n={n}"),
        ),
        (
            ("error_rate".into(), error_rate, "ratio"),
            format!(
                "{} failed + {} wrong of {}",
                untraced.failed, untraced.wrong, untraced.attempted
            ),
        ),
        (
            (
                "cpu_us_per_req".into(),
                cpu_per_req.unwrap_or(f64::NAN),
                "us",
            ),
            format!("{per_slice}; n={completed}"),
        ),
        (
            ("rss_mb".into(), rss.unwrap_or(f64::NAN), "MiB"),
            "VmHWM".to_string(),
        ),
    ];
    if args.workload == Workload::Ingest {
        for (name, hist, q) in [
            ("write_p50_us", &untraced.write, 0.5),
            ("write_p99_us", &untraced.write, 0.99),
            ("read_p50_us", &untraced.read, 0.5),
            ("read_p99_us", &untraced.read, 0.99),
        ] {
            let value = hist.quantile_us(q).unwrap_or(f64::NAN);
            e2e.push((
                (name.into(), value, "us"),
                format!("whole window; n={}", hist.count()),
            ));
        }
    }
    println!(
        "end-to-end{}:",
        if args.trace { " (untraced half)" } else { "" }
    );
    for ((name, value, unit), note) in &e2e {
        println!("  {name:<16} {value:>14.4} {unit:<6} {note}");
    }
    for (class, (hist, wrong)) in &untraced.by_class {
        println!(
            "  class {class:<10} n={:<7} p50_us={:<10.1} p99_us={:<10.1} wrong={wrong}",
            hist.count(),
            hist.quantile_us(0.5).unwrap_or(f64::NAN),
            hist.quantile_us(0.99).unwrap_or(f64::NAN)
        );
    }
    let series = |f: fn(&SliceMetrics) -> Option<f64>| {
        let values: Vec<String> = slices
            .iter()
            .map(|s| util::number(f(s).unwrap_or(f64::NAN)))
            .collect();
        format!("[{}]", values.join(", "))
    };
    println!(
        "{{\"slices\": {{\"seconds\": {}, \"qps\": {}, \"p50_us\": {}, \"p99_us\": {}, \"cpu_us_per_req\": {}, \"host_steal_ticks\": {}}}}}",
        load::SLICE.as_secs_f64(),
        series(|s| Some(s.qps)),
        series(|s| s.p50_us),
        series(|s| s.p99_us),
        series(|s| s.cpu_us_per_req),
        series(|s| s.steal.map(|t| t as f64)),
    );
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"available_parallelism\": {}, \"clients\": {CLIENTS}, \"attempted\": {attempted}, \
         \"samples\": {{\"p50_us\": {n}, \"p99_us\": {n}, \"slices\": {}, \"slices_used\": {}, \"write\": {}, \"read\": {}, \"ladder\": {}}}, \
         \"host_steal_ticks\": {steal}, \"cached_plans\": {{\"before\": {plans_before}, \"after\": {plans_after}}}, \
         \"rss_mb\": {{\"window_start\": {}, \"peak\": {}}}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        util::escape(&util::git_rev()),
        util::parallelism(),
        slices.len(),
        used.len(),
        untraced.write.count(),
        untraced.read.count(),
        run.samples.len(),
        util::number(rss_before.unwrap_or(f64::NAN)),
        util::number(rss.unwrap_or(f64::NAN)),
    );

    let metrics: Vec<Metric> = if args.trace {
        let layers = traced_report(
            args,
            &run,
            plans_before,
            plans_after,
            front,
            wal_bytes,
            commit_stats,
        )?;
        PER_LAYER
            .iter()
            .filter_map(|name| layers.iter().find(|(n, _, _)| n == name).cloned())
            .collect()
    } else {
        e2e.into_iter()
            .map(|(m, _)| m)
            .filter(|(name, _, _)| END_TO_END.contains(&name.as_str()))
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        util::metrics_json(&metrics)
    );
    let _ = std::io::stdout().flush();
    Ok(())
}

/// `SELECT COUNT(*)` must equal the preloaded plus the acknowledged rows.
fn ingest_count_check(rig: &Rig, run: &Run) -> Result<(), String> {
    let count = rig
        .server
        .execute(&Request::sql(format!(
            "SELECT COUNT(*) AS N FROM {}",
            ingest::TABLE
        )))
        .map_err(|e| e.to_string())?;
    let got = count
        .table
        .rows()
        .first()
        .and_then(|r| r.values()[0].as_i64());
    let expected =
        i64::from(ingest::PRELOAD) + run.models.iter().map(|m| m.acked_rows as i64).sum::<i64>();
    if got != Some(expected) {
        return Err(format!("table holds {got:?} rows, expected {expected}"));
    }
    Ok(())
}

/// Print the traced run's per-layer report and write its spans; returns
/// every per-layer metric that was measured.
fn traced_report(
    args: &Args,
    run: &Run,
    plans_before: usize,
    plans_after: usize,
    front: fedwf_core::FrontStats,
    wal_bytes: Option<u64>,
    commit_stats: Option<fedwf_relstore::CommitStats>,
) -> FedResult<Vec<Metric>> {
    // The plan-cache miss ratio comes from the untraced half (the ladder's
    // EXPLAIN statements add plans of their own).
    let half_slices = ((args.seconds / 2.0) / load::SLICE.as_secs_f64()).floor() as usize;
    let plans_at_half = run
        .plan_marks
        .get(half_slices)
        .copied()
        .unwrap_or(plans_before);
    let requests: u64 = run
        .untraced
        .slices
        .iter()
        .take(half_slices)
        .map(|h| h.count())
        .sum();
    let miss_ratio = plans_at_half.saturating_sub(plans_before) as f64 / requests.max(1) as f64;
    let mut layers = ladder::layer_metrics(
        &run.samples,
        plans_after as f64,
        miss_ratio,
        (front.shed, front.expired_in_queue),
    );
    if args.workload == Workload::Ingest {
        if let Some(stats) = commit_stats {
            layers.push((
                "relstore.stmts_per_fsync".into(),
                stats.commits as f64 / stats.syncs.max(1) as f64,
                "count",
            ));
            layers.push(("relstore.max_batch".into(), stats.max_batch as f64, "count"));
        }
        let rows: u64 = run.models.iter().map(|m| m.acked_rows).sum();
        if let Some(bytes) = wal_bytes {
            layers.push((
                "relstore.wal_bytes_per_row".into(),
                bytes as f64 / rows.max(1) as f64,
                "bytes",
            ));
        }
    }
    println!(
        "per-layer (median over {} sampled requests):",
        run.samples.len()
    );
    for (name, value, unit) in &layers {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    // Self times telescope: per sample they sum to the submit time.
    let mut gaps: Vec<f64> = run
        .samples
        .iter()
        .map(|s| {
            ladder::self_times(s).iter().map(|(_, v)| v).sum::<f64>() - s.submit as f64 / 1_000.0
        })
        .collect();
    let worst_gap = gaps.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    let untraced_p50 = run.untraced.latency.quantile_us(0.5);
    let traced_p50 = run.traced.latency.quantile_us(0.5);
    let overhead = match (untraced_p50, traced_p50) {
        (Some(u), Some(t)) if u > 0.0 => Some((t - u) / u * 100.0),
        _ => None,
    };
    let half = args.seconds / 2.0;
    let qps = |p: &load::Phase| p.latency.count() as f64 / half;
    println!(
        "{{\"layers\": {}, \"self_sum_check\": {{\"samples\": {}, \"max_abs_gap_us\": {}, \"median_gap_us\": {}}}, \
         \"tracing_overhead\": {{\"untraced_p50_us\": {}, \"traced_p50_us\": {}, \"p50_pct\": {}, \
         \"untraced_qps\": {}, \"traced_qps\": {}}}}}",
        util::metrics_json(&layers),
        run.samples.len(),
        util::number(worst_gap),
        util::number(median(&mut gaps).unwrap_or(0.0)),
        util::number(untraced_p50.unwrap_or(f64::NAN)),
        util::number(traced_p50.unwrap_or(f64::NAN)),
        util::number(overhead.unwrap_or(f64::NAN)),
        util::number(qps(&run.untraced)),
        util::number(qps(&run.traced)),
    );
    write_spans(args, run)?;
    Ok(layers)
}

fn write_spans(args: &Args, run: &Run) -> FedResult<()> {
    let io = |e: std::io::Error| FedError::execution(format!("writing spans: {e}"));
    std::fs::create_dir_all(OUT_DIR).map_err(io)?;
    let path = Path::new(OUT_DIR).join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    writeln!(out, "request\tname\tparent\tstart_ns\tend_ns").map_err(io)?;
    for s in &run.spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.request, s.name, s.parent, s.start_ns, s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)?;
    println!("spans: {} written to {}", run.spans.len(), path.display());
    Ok(())
}
