//! Smoke test of the benchmark itself: every workload runs briefly with
//! its checks on and reports every metric by name; the traced run reports
//! every per-layer metric, with a layer absent where it does not run; and a
//! deliberately corrupted reference is caught as a wrong answer.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

const END_TO_END: &[&str] = &[
    "setup_s",
    "qps",
    "p50_us",
    "p99_us",
    "cpu_us_per_req",
    "rss_mb",
];
const REPORTED: &[&str] = &["error_rate"];
const INGEST_ONLY: &[&str] = &["write_p50_us", "write_p99_us", "read_p50_us", "read_p99_us"];
const WORKFLOW_LAYERS: &[&str] = &[
    "wrapper.invoke_us",
    "wrapper.udtf_self_us",
    "wfms.navigation_self_us",
    "wfms.activities_per_call",
    "controller.self_us",
    "appsys.local_us",
    "appsys.local_calls_per_req",
];
const SHARED_LAYERS: &[&str] = &[
    "net.submit_us",
    "net.self_us",
    "net.frame_us",
    "wire.request_codec_us",
    "wire.outcome_codec_us",
    "front.self_us",
    "server.self_us",
    "metrics.snapshot_us",
    "metrics.counter_inc_ns",
    "sqlparse.parse_us",
    "fdbs.execute_us",
    "fdbs.self_us",
    "fdbs.plan_us",
    "fdbs.cached_plans",
];

struct Output {
    stdout: String,
}

impl Output {
    fn last_line(&self) -> &str {
        self.stdout.lines().last().expect("some output")
    }

    fn line_starting(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no line starting {prefix:?} in\n{}", self.stdout))
    }

    /// Whether the JSON object on `line` holds a metric called `name`.
    fn has_metric(line: &str, name: &str) -> bool {
        line.contains(&format!("\"{name}\": {{\"value\": "))
    }

    /// The value the human-readable report prints for an end-to-end metric.
    fn reported(&self, name: &str) -> f64 {
        let line = self
            .stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{name} not reported in\n{}", self.stdout));
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Output { stdout }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_is_correct() {
    for workload in ["fn_mix", "sql_mix", "ingest"] {
        let out = run(workload, false, &[]);
        let last = out.last_line();
        assert!(
            last.starts_with("{\"correct\": true, "),
            "{workload}: {last}"
        );
        assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
        for name in END_TO_END {
            assert!(
                Output::has_metric(last, name),
                "{workload} lacks {name}: {last}"
            );
            assert!(out.reported(name) > 0.0, "{workload}: {name} must not be 0");
        }
        for name in REPORTED {
            assert_eq!(out.reported(name), 0.0, "{workload}: {name}");
        }
        for name in INGEST_ONLY {
            let printed = out
                .stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(name));
            assert_eq!(printed, workload == "ingest", "{workload}: {name}");
        }
        let provenance = out.line_starting("{\"provenance\"");
        for key in [
            "\"seed\": 7",
            "\"git_rev\"",
            "\"available_parallelism\"",
            "\"attempted\"",
            "\"samples\"",
        ] {
            assert!(
                provenance.contains(key),
                "{workload} provenance lacks {key}"
            );
        }
    }
}

#[test]
fn traced_runs_report_layers_where_they_run() {
    for workload in ["fn_mix", "sql_mix", "ingest"] {
        let out = run(workload, true, &[]);
        let last = out.last_line();
        assert!(
            last.starts_with("{\"correct\": true, "),
            "{workload}: {last}"
        );
        let layers = out.line_starting("{\"layers\"");
        for name in SHARED_LAYERS {
            assert!(
                Output::has_metric(last, name),
                "{workload} lacks {name}: {last}"
            );
        }
        for name in WORKFLOW_LAYERS {
            assert_eq!(
                Output::has_metric(layers, name),
                workload != "ingest",
                "{workload}: {name}"
            );
        }
        assert_eq!(
            Output::has_metric(layers, "sqlmed.scan_us"),
            workload == "sql_mix"
        );
        assert_eq!(
            Output::has_metric(layers, "relstore.insert_us"),
            workload == "ingest"
        );
        assert_eq!(
            Output::has_metric(layers, "relstore.stmts_per_fsync"),
            workload == "ingest"
        );
        // Self times telescope back to the submit time of each sample.
        let gap = layers
            .split("\"max_abs_gap_us\": ")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("no self-sum check in {layers}"));
        assert!(gap < 0.01, "{workload}: self times miss submit by {gap} us");
        assert!(layers.contains("\"tracing_overhead\""), "{layers}");
    }
}

#[test]
fn a_corrupted_reference_is_counted_as_an_error() {
    let out = run("fn_mix", false, &["--corrupt-reference"]);
    assert!(out.reported("error_rate") > 0.0);
    assert!(out.last_line().starts_with("{\"correct\": false, "));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
