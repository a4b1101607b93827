//! E13 — production executor vs the naive oracle (real wall clock).
//!
//! The paper's Section 4 cost argument is about how the integration server
//! composes result sets. This experiment measures the production executor
//! (vectorized streaming) against the naive reference oracle on workloads
//! where the composition algorithm, not the cost model, dominates: a
//! scaled equi-join (selectivity 1/n), DISTINCT and GROUP BY over
//! low-cardinality data, and a dependent table function invoked with
//! heavily repeated argument tuples (the memoization case, production with
//! the memo off vs on). Each leg runs on its own engine, built with that
//! leg's options over the same data and warmed before it is timed. The
//! cost model is zeroed so virtual charges do not distort wall time; both
//! legs still produce identical results, which each workload asserts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fedwf_fdbs::{ExecMode, ExecOptions, Fdbs, PlannerMode, Udtf};
use fedwf_sim::{CostModel, Meter};
use fedwf_types::{DataType, Ident, Schema, Table, Value};

/// One measured workload: a slow baseline leg against the optimized leg.
#[derive(Debug, Clone)]
pub struct JoinScalingRow {
    pub workload: String,
    /// Rows per side (join) or total input rows (DISTINCT/GROUP BY/memo).
    pub n: usize,
    /// Naive oracle (or production with the memo off) elapsed wall time.
    pub baseline_us: u128,
    /// Production executor (memo on) elapsed wall time.
    pub optimized_us: u128,
    /// Result rows — identical between the two legs by construction.
    pub rows_out: usize,
}

impl JoinScalingRow {
    pub fn speedup(&self) -> f64 {
        self.baseline_us as f64 / self.optimized_us.max(1) as f64
    }

    pub fn render_header() -> String {
        format!(
            "{:<38} {:>7} {:>14} {:>14} {:>9}",
            "workload", "n", "baseline (us)", "optimized (us)", "speedup"
        )
    }

    pub fn render_row(&self) -> String {
        format!(
            "{:<38} {:>7} {:>14} {:>14} {:>8.1}x",
            self.workload,
            self.n,
            self.baseline_us,
            self.optimized_us,
            self.speedup()
        )
    }
}

/// The production executor with the dependent-UDTF memo on or off. E13
/// compares executors on the same join order, so both legs pin the
/// planner to the syntactic reference (E18 measures the planner).
fn production(udtf_memo: bool) -> ExecOptions {
    ExecOptions::default()
        .udtf_memo(udtf_memo)
        .planner(PlannerMode::Syntactic)
}

/// The naive reference oracle.
fn oracle() -> ExecOptions {
    ExecOptions::default()
        .mode(ExecMode::Naive)
        .udtf_memo(false)
        .planner(PlannerMode::Syntactic)
}

/// Run `sql` once to warm the engine's plan cache, then time it.
fn time_query(fdbs: &Fdbs, sql: &str) -> (u128, Table) {
    fdbs.execute(sql, &mut Meter::new())
        .expect("E13 warm-up failed");
    let mut meter = Meter::new();
    let start = Instant::now();
    let table = fdbs.execute(sql, &mut meter).expect("E13 query failed");
    (start.elapsed().as_micros(), table)
}

fn insert_batched(fdbs: &Fdbs, table: &str, rows: impl Iterator<Item = String>) {
    let mut meter = Meter::new();
    let rows: Vec<String> = rows.collect();
    for chunk in rows.chunks(500) {
        let sql = format!("INSERT INTO {table} VALUES {}", chunk.join(", "));
        fdbs.execute(&sql, &mut meter).unwrap();
    }
}

fn assert_same(a: &Table, b: &Table, workload: &str) {
    assert_eq!(
        a.row_count(),
        b.row_count(),
        "{workload}: executor paths disagree"
    );
}

/// Scaled equi-join, `n` rows per side, unique keys (selectivity 1/n):
/// `SELECT COUNT(*) FROM L, R WHERE R.K = L.K`. The oracle materializes
/// the n×n cross product; production hash-joins (or, with `indexed`,
/// probes a unique index on the build side per distinct key).
pub fn equi_join(n: usize, indexed: bool) -> JoinScalingRow {
    let sql = "SELECT COUNT(*) AS matches FROM L AS A, R AS B WHERE B.K = A.K";
    let (optimized_us, fast) = time_query(&equi_join_tables(n, indexed, production(true)), sql);
    let (baseline_us, slow) = time_query(&equi_join_tables(n, indexed, oracle()), sql);
    assert_same(&fast, &slow, "equi-join");
    assert_eq!(fast.value(0, "matches"), Some(&Value::BigInt(n as i64)));
    JoinScalingRow {
        workload: if indexed {
            "equi-join (unique index probe)".to_string()
        } else {
            "equi-join (hash)".to_string()
        },
        n,
        baseline_us,
        optimized_us,
        rows_out: n,
    }
}

/// L and R with keys 0..n each, R's uniquely indexed when `indexed`.
fn equi_join_tables(n: usize, indexed: bool, options: ExecOptions) -> Fdbs {
    let fdbs = Fdbs::new(CostModel::zero()).with_options(options);
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE L (K INT NOT NULL)", &mut meter)
        .unwrap();
    fdbs.execute("CREATE TABLE R (K INT NOT NULL)", &mut meter)
        .unwrap();
    if indexed {
        fdbs.execute("CREATE UNIQUE INDEX r_k ON R (K)", &mut meter)
            .unwrap();
    }
    insert_batched(&fdbs, "L", (0..n).map(|i| format!("({i})")));
    insert_batched(&fdbs, "R", (0..n).map(|i| format!("({i})")));
    fdbs
}

fn low_cardinality_table(n: usize, distinct: usize, options: ExecOptions) -> Fdbs {
    let fdbs = Fdbs::new(CostModel::zero()).with_options(options);
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE T (K INT NOT NULL)", &mut meter)
        .unwrap();
    insert_batched(&fdbs, "T", (0..n).map(|i| format!("({})", i % distinct)));
    fdbs
}

/// `SELECT DISTINCT K FROM T`: quadratic seen-list scan vs hashed de-dup.
/// Half the values are unique — the naive cost grows with the *output*
/// cardinality (each row is compared against every distinct row kept so
/// far), so high cardinality is the hard case.
pub fn distinct_scaling(n: usize) -> JoinScalingRow {
    let distinct = (n / 2).max(1);
    let sql = "SELECT DISTINCT K FROM T";
    let (optimized_us, fast) =
        time_query(&low_cardinality_table(n, distinct, production(true)), sql);
    let (baseline_us, slow) = time_query(&low_cardinality_table(n, distinct, oracle()), sql);
    assert_same(&fast, &slow, "DISTINCT");
    assert_eq!(fast.row_count(), distinct);
    JoinScalingRow {
        workload: "DISTINCT (50% unique)".to_string(),
        n,
        baseline_us,
        optimized_us,
        rows_out: distinct,
    }
}

/// `SELECT K, COUNT(*) FROM T GROUP BY K`: linear group lookup vs hashed.
pub fn group_by_scaling(n: usize) -> JoinScalingRow {
    let distinct = (n / 2).max(1);
    let sql = "SELECT K, COUNT(*) AS c FROM T GROUP BY K";
    let (optimized_us, fast) =
        time_query(&low_cardinality_table(n, distinct, production(true)), sql);
    let (baseline_us, slow) = time_query(&low_cardinality_table(n, distinct, oracle()), sql);
    assert_same(&fast, &slow, "GROUP BY");
    assert_eq!(fast.row_count(), distinct);
    JoinScalingRow {
        workload: "GROUP BY (50% groups)".to_string(),
        n,
        baseline_us,
        optimized_us,
        rows_out: distinct,
    }
}

/// Dependent-UDTF memoization: a compute-heavy lateral function called
/// once per prefix row, but with only `distinct_args` distinct argument
/// tuples. Both legs run the production executor: baseline = memo off
/// (one invocation per row, the paper's dependent (1:n) cost); optimized
/// = memo on (one invocation per distinct tuple). Returns the row plus the
/// two observed invocation counts of the timed runs.
pub fn dependent_memo(n: usize, distinct_args: usize, work: u64) -> (JoinScalingRow, usize, usize) {
    let sql = "SELECT COUNT(*) AS c FROM T AS A, TABLE (Heavy(A.K)) AS H";
    let invocations = Arc::new(AtomicUsize::new(0));
    // One engine per leg, warmed before its timed run.
    let timed = |udtf_memo: bool| {
        let fdbs = Fdbs::new(CostModel::zero()).with_options(production(udtf_memo));
        let mut meter = Meter::new();
        fdbs.execute("CREATE TABLE T (K INT NOT NULL)", &mut meter)
            .unwrap();
        insert_batched(
            &fdbs,
            "T",
            (0..n).map(|i| format!("({})", i % distinct_args)),
        );
        let counter = invocations.clone();
        fdbs.register_udtf(Udtf::native(
            "Heavy",
            vec![(Ident::new("K"), DataType::Int)],
            Arc::new(Schema::of(&[("M", DataType::BigInt)])),
            move |args, _m| {
                counter.fetch_add(1, Ordering::Relaxed);
                let k = args[0].as_i64().unwrap_or(0);
                // Busy work standing in for a real federated call.
                let mut acc = k;
                for i in 0..work {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as i64);
                }
                Ok(Table::scalar("M", Value::BigInt(acc)))
            },
        ))
        .unwrap();
        fdbs.execute(sql, &mut meter).expect("E13 warm-up failed");
        invocations.store(0, Ordering::Relaxed);
        let start = Instant::now();
        let table = fdbs.execute(sql, &mut meter).expect("E13 query failed");
        let elapsed_us = start.elapsed().as_micros();
        (elapsed_us, table, invocations.swap(0, Ordering::Relaxed))
    };
    let (baseline_us, slow, off_invocations) = timed(false);
    let (optimized_us, fast, on_invocations) = timed(true);
    assert_same(&fast, &slow, "dependent memo");
    let row = JoinScalingRow {
        workload: format!("dependent UDTF memo ({distinct_args} distinct)"),
        n,
        baseline_us,
        optimized_us,
        rows_out: n,
    };
    (row, off_invocations, on_invocations)
}

/// The full E13 table at one scale.
pub fn all(n: usize) -> Vec<JoinScalingRow> {
    let mut rows = vec![
        equi_join(n, false),
        equi_join(n, true),
        distinct_scaling(n),
        group_by_scaling(n),
    ];
    let (memo, _, _) = dependent_memo(n, 10, 100_000);
    rows.push(memo);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: ≥10x on the scaled equi-join at n ≥ 2000.
    #[test]
    fn production_beats_naive_10x_on_scaled_equi_join() {
        let row = equi_join(2_000, false);
        assert!(
            row.speedup() >= 10.0,
            "expected ≥10x, got {:.1}x ({} vs {} us)",
            row.speedup(),
            row.baseline_us,
            row.optimized_us
        );
    }

    /// The memo case: one invocation per distinct argument tuple, ≥10x.
    #[test]
    fn memo_hits_cut_dependent_invocations_and_time() {
        let (row, off, on) = dependent_memo(2_000, 10, 100_000);
        assert_eq!(off, 2_000, "memo off: one invocation per prefix row");
        assert_eq!(on, 10, "memo on: one invocation per distinct tuple");
        assert!(
            row.speedup() >= 10.0,
            "expected ≥10x, got {:.1}x ({} vs {} us)",
            row.speedup(),
            row.baseline_us,
            row.optimized_us
        );
    }

    #[test]
    fn hashed_distinct_and_group_by_agree_with_naive() {
        // Correctness-focused small run; the speedup assertions live in
        // the equi-join/memo tests where the gap is structural.
        let d = distinct_scaling(800);
        assert_eq!(d.rows_out, 400);
        let g = group_by_scaling(800);
        assert_eq!(g.rows_out, 400);
    }

    #[test]
    fn index_probe_join_matches_hash_join() {
        let hash = equi_join(400, false);
        let probe = equi_join(400, true);
        assert_eq!(hash.rows_out, probe.rows_out);
    }
}
