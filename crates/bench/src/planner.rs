//! E18 — syntactic vs cost-based planner (real wall clock).
//!
//! E13 and E14 hold the plan fixed and race executors; this experiment holds
//! the executor fixed (streaming defaults) and races the *planners* on the
//! workload join reordering exists for: a 3-way join whose syntactic FROM
//! order opens with a cross product. `FROM Big H, Wide W, Tiny T WHERE
//! H.A = T.A AND W.B = T.B` has no conjunct linking H and W, so the
//! syntactic plan composes |Big| × |Wide| rows before Tiny filters them;
//! the cost-based plan leads with Tiny and keeps every intermediate at a
//! handful of rows. The second half of the experiment grades the
//! estimates themselves: the `EXPLAIN ANALYZE` median q-error on the same
//! query, with fresh statistics, must stay within the documented gate.

use std::time::Instant;

use fedwf_fdbs::{ExecOptions, Fdbs, PlannerMode};
use fedwf_sim::{CostModel, Meter};
use fedwf_types::{Table, Value};

/// One planner face-off: the same query, same executor, two planners.
#[derive(Debug, Clone)]
pub struct PlannerRow {
    pub workload: String,
    /// Rows in `Big` (`Wide` carries n/2, `Tiny` five).
    pub n: usize,
    /// Syntactic (FROM-order) plan, elapsed wall time.
    pub syntactic_us: u128,
    /// Cost-based (reordered) plan, elapsed wall time.
    pub cost_based_us: u128,
    /// Result rows — identical between the two legs by construction.
    pub rows_out: usize,
}

impl PlannerRow {
    pub fn speedup(&self) -> f64 {
        self.syntactic_us as f64 / self.cost_based_us.max(1) as f64
    }

    pub fn render_header() -> String {
        format!(
            "{:<38} {:>7} {:>15} {:>16} {:>9}",
            "workload", "n", "syntactic (us)", "cost-based (us)", "speedup"
        )
    }

    pub fn render_row(&self) -> String {
        format!(
            "{:<38} {:>7} {:>15} {:>16} {:>8.1}x",
            self.workload,
            self.n,
            self.syntactic_us,
            self.cost_based_us,
            self.speedup()
        )
    }
}

/// Big (n rows, key + unique index), Wide (n/2 rows), Tiny (5 rows whose
/// keys hit Big and Wide) — statistics collected, so the cost-based
/// planner sees the real cardinalities.
fn federation(n: usize) -> Fdbs {
    let fdbs = Fdbs::new(CostModel::zero());
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE Big (A INT NOT NULL)", &mut meter)
        .unwrap();
    fdbs.execute("CREATE UNIQUE INDEX big_a ON Big (A)", &mut meter)
        .unwrap();
    fdbs.execute("CREATE TABLE Wide (B INT NOT NULL)", &mut meter)
        .unwrap();
    fdbs.execute("CREATE TABLE Tiny (A INT, B INT)", &mut meter)
        .unwrap();
    insert_batched(&fdbs, "Big", (0..n).map(|i| format!("({i})")));
    insert_batched(&fdbs, "Wide", (0..n / 2).map(|i| format!("({i})")));
    insert_batched(&fdbs, "Tiny", (0..5).map(|i| format!("({i}, {})", i * 2)));
    fdbs.analyze().unwrap();
    fdbs
}

fn insert_batched(fdbs: &Fdbs, table: &str, rows: impl Iterator<Item = String>) {
    let mut meter = Meter::new();
    let rows: Vec<String> = rows.collect();
    for chunk in rows.chunks(500) {
        let sql = format!("INSERT INTO {table} VALUES {}", chunk.join(", "));
        fdbs.execute(&sql, &mut meter).unwrap();
    }
}

/// The query join reordering exists for: the syntactic order opens with
/// the Big × Wide cross product, the reordered one with Tiny.
const THREE_WAY: &str = "SELECT COUNT(*) AS matches FROM Big AS H, Wide AS W, Tiny AS T \
                         WHERE H.A = T.A AND W.B = T.B";

fn time_query(fdbs: &Fdbs, sql: &str, planner: PlannerMode) -> (u128, Table) {
    // Everything but the planner stays at the streaming defaults — this
    // experiment is the plan, not the executor.
    fdbs.set_options(ExecOptions::default().planner(planner));
    let mut meter = Meter::new();
    let start = Instant::now();
    let table = fdbs.execute(sql, &mut meter).expect("E18 query failed");
    (start.elapsed().as_micros(), table)
}

/// The headline face-off at `Big` size `n`.
pub fn three_way_join(n: usize) -> PlannerRow {
    let fdbs = federation(n);
    // Warm both plan-cache entries (the options value is the cache key).
    let _ = time_query(&fdbs, THREE_WAY, PlannerMode::CostBased);
    let _ = time_query(&fdbs, THREE_WAY, PlannerMode::Syntactic);
    let (cost_based_us, fast) = time_query(&fdbs, THREE_WAY, PlannerMode::CostBased);
    let (syntactic_us, slow) = time_query(&fdbs, THREE_WAY, PlannerMode::Syntactic);
    assert_eq!(
        fast.value(0, "matches"),
        slow.value(0, "matches"),
        "planners disagree on the 3-way join"
    );
    assert_eq!(fast.value(0, "matches"), Some(&Value::BigInt(5)));
    PlannerRow {
        workload: "3-way join (cross-product FROM order)".to_string(),
        n,
        syntactic_us,
        cost_based_us,
        rows_out: 5,
    }
}

/// Median q-error of the cost-based plan's estimates on the 3-way join,
/// from the `EXPLAIN ANALYZE` report (statistics are fresh).
pub fn median_q_error(n: usize) -> f64 {
    let fdbs = federation(n);
    fdbs.set_options(ExecOptions::default().planner(PlannerMode::CostBased));
    let mut meter = Meter::new();
    let t = fdbs
        .execute(&format!("EXPLAIN ANALYZE {THREE_WAY}"), &mut meter)
        .expect("EXPLAIN ANALYZE runs");
    (0..t.row_count())
        .find_map(|i| match t.value(i, "plan") {
            Some(Value::Varchar(s)) => s
                .trim_start()
                .strip_prefix("q-error median: ")
                .map(|v| v.parse::<f64>().expect("median is a number")),
            _ => None,
        })
        .expect("EXPLAIN ANALYZE reports a q-error median")
}

/// The full E18 table at one scale.
pub fn all(n: usize) -> Vec<PlannerRow> {
    vec![three_way_join(n)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: the syntactic plan is ≥10x slower at n ≥ 2000.
    /// Debug builds keep the same bar at a smaller n — the gap is
    /// structural (quadratic intermediate vs linear), not constant-factor.
    #[test]
    fn cost_based_beats_syntactic_10x_on_the_three_way_join() {
        let n = if cfg!(debug_assertions) { 1_000 } else { 2_000 };
        let row = three_way_join(n);
        assert!(
            row.speedup() >= 10.0,
            "expected ≥10x, got {:.1}x ({} vs {} us)",
            row.speedup(),
            row.syntactic_us,
            row.cost_based_us
        );
    }

    /// The estimate-quality gate: with fresh statistics the median
    /// q-error on the headline query stays ≤ 4.
    #[test]
    fn median_q_error_within_gate() {
        let q = median_q_error(if cfg!(debug_assertions) { 500 } else { 2_000 });
        assert!(q >= 1.0, "q-errors are clamped to ≥ 1, got {q}");
        assert!(q <= 4.0, "median q-error {q} above the gate of 4");
    }
}
