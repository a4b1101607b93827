//! The cost-based optimizer: [`LogicalPlan`] → executable [`Plan`].
//!
//! The binder ([`crate::plan::PlanBuilder::bind_logical`]) resolves names
//! and folds expressions but places nothing; this module turns its output
//! into a physical plan in four stages:
//!
//! 1. **Join order.** Under [`PlannerMode::CostBased`] the lateral chain is
//!    reordered greedily: at each position pick the remaining step that
//!    minimizes the estimated prefix cardinality, using table statistics
//!    ([`crate::Catalog::analyze`]) or live row counts. Dependent table
//!    functions are *barriers* — they stay in place and only the runs of
//!    steps between them are permuted, which keeps the multiset of prefix
//!    rows reaching each dependent UDTF (and hence its invocation charges)
//!    invariant. Plans with `LIMIT` are never reordered: the row *prefix* a
//!    limit cuts off is order-sensitive.
//! 2. **Conjunct placement.** The same pushdown / equi-join-extraction /
//!    residual-filter classification the syntactic binder always did
//!    (`plan::place_bound_conjunct`), applied to the chosen order; host
//!    variables push into the scans like literals.
//! 3. **Cardinality estimation.** Selectivities from [`crate::stats`]
//!    annotate every step with scan/join/output row estimates — in *both*
//!    modes, so `EXPLAIN` and the `EXPLAIN ANALYZE` q-error report work
//!    regardless of the planner.
//! 4. **Access paths.** Cost-based plans pick index-probe vs hash join per
//!    step from the estimates; syntactic plans leave the executor's own
//!    heuristic in charge ([`Access::Auto`]).

use fedwf_relstore::CmpOp;
use fedwf_sql::BinaryOp;
use fedwf_types::{FedResult, Value};

use std::sync::Arc;

use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::plan::{
    flip_cmp, place_bound_conjunct, step_offsets, Access, AggColumn, FromStep, JoinKey,
    LogicalPlan, Plan, StepEstimate,
};
use crate::stats::{
    self, TableStatistics, DEFAULT_EQ_SELECTIVITY, DEFAULT_NULL_FRACTION, DEFAULT_RANGE_SELECTIVITY,
};

/// Which planner turns a logical plan into a physical one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// DB2-style syntactic planning: steps execute in FROM-clause order and
    /// the executor's own heuristics pick access paths. The pre-optimizer
    /// behavior, kept as the reference point.
    Syntactic,
    /// Reorder joins by estimated cardinality and choose access paths by
    /// estimated cost.
    #[default]
    CostBased,
}

impl std::fmt::Display for PlannerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerMode::Syntactic => write!(f, "syntactic"),
            PlannerMode::CostBased => write!(f, "cost-based"),
        }
    }
}

/// Row-count guess for a table with neither statistics nor a live count.
const DEFAULT_TABLE_ROWS: f64 = 1000.0;

/// Rows a table function returns per invocation, as the estimator assumes:
/// the neutral 1:1 mapping case, which every function of the paper's
/// workload fits.
const UDTF_ROWS_PER_CALL: f64 = 1.0;

/// Turn a bound logical plan into an executable physical plan.
pub fn optimize(catalog: &Catalog, logical: LogicalPlan, mode: PlannerMode) -> FedResult<Plan> {
    let LogicalPlan {
        mut steps,
        mut conjuncts,
        mut projection,
        mut aggregate,
        distinct,
        mut order_by,
        limit,
        params,
        out_schema,
    } = logical;

    // 1. Join order. Only the cost-based planner reorders, never across a
    // dependent-UDTF barrier, and never under LIMIT.
    if mode == PlannerMode::CostBased && steps.len() > 1 && limit.is_none() {
        let est = Estimator::new(catalog, &steps);
        let order = choose_order(&est, &steps, &conjuncts);
        if order.iter().enumerate().any(|(new, &old)| new != old) {
            let widths: Vec<usize> = steps.iter().map(|s| s.schema().len()).collect();
            let remap = permuted_remap(&est.offsets, &widths, &order);
            let remap_fn = |c: usize| remap[c];
            let mut by_old: Vec<Option<FromStep>> = steps.into_iter().map(Some).collect();
            steps = order
                .iter()
                .map(|&old| {
                    by_old[old]
                        .take()
                        .expect("each step appears once in the order")
                })
                .collect();
            for c in conjuncts.iter_mut() {
                *c = c.map_columns(&remap_fn);
            }
            for (e, _) in projection.iter_mut() {
                *e = e.map_columns(&remap_fn);
            }
            if let Some(agg) = aggregate.as_mut() {
                for k in agg.keys.iter_mut() {
                    *k = k.map_columns(&remap_fn);
                }
                for (col, _) in agg.columns.iter_mut() {
                    if let AggColumn::Agg { arg: Some(a), .. } = col {
                        *a = a.map_columns(&remap_fn);
                    }
                }
                // Aggregate ORDER BY indexes the *output* layout — untouched.
            } else {
                for (e, _) in order_by.iter_mut() {
                    *e = e.map_columns(&remap_fn);
                }
            }
            for step in steps.iter_mut() {
                if let FromStep::TableFunc { args, .. } = step {
                    for a in args.iter_mut() {
                        *a = a.map_columns(&remap_fn);
                    }
                }
            }
        }
    }

    // 2. Conjunct placement over the chosen order.
    let offsets = step_offsets(&steps);
    let mut step_filters: Vec<Option<BoundExpr>> = vec![None; steps.len()];
    let mut step_join_keys: Vec<Option<JoinKey>> = vec![None; steps.len()];
    for bound in conjuncts {
        place_bound_conjunct(
            bound,
            &mut steps,
            &offsets,
            &mut step_filters,
            &mut step_join_keys,
        );
    }

    // 3. Cardinality estimates — in both modes, so EXPLAIN shows `est=` and
    // EXPLAIN ANALYZE can report q-errors whichever planner compiled.
    let est = Estimator::new(catalog, &steps);
    let step_estimates = est.estimate(&steps, &step_filters, &step_join_keys);

    // 4. Access paths.
    let step_access = match mode {
        PlannerMode::Syntactic => vec![Access::Auto; steps.len()],
        PlannerMode::CostBased => choose_access(catalog, &steps, &step_join_keys, &step_estimates),
    };

    Ok(Plan {
        step_projections: vec![None; steps.len()],
        step_access,
        step_estimates,
        steps,
        step_filters,
        step_join_keys,
        projection,
        aggregate,
        distinct,
        order_by,
        limit,
        params,
        out_schema,
    })
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

/// Per-step statistics context over one concatenated step layout.
struct Estimator {
    offsets: Vec<usize>,
    widths: Vec<usize>,
    /// Catalog statistics per step (scans only; `None` for table functions
    /// or unanalyzed tables).
    stats: Vec<Option<Arc<TableStatistics>>>,
    /// Base cardinality per step, before any pushdown: statistics row count,
    /// else a live count, else [`DEFAULT_TABLE_ROWS`]. For table functions
    /// this is [`UDTF_ROWS_PER_CALL`].
    base: Vec<f64>,
}

impl Estimator {
    fn new(catalog: &Catalog, steps: &[FromStep]) -> Estimator {
        let mut stats = Vec::with_capacity(steps.len());
        let mut base = Vec::with_capacity(steps.len());
        for step in steps {
            let (st, rows) = match step {
                FromStep::ScanLocal { table, .. } => {
                    let st = catalog.statistics(table);
                    let rows = st
                        .as_ref()
                        .map(|s| s.row_count as f64)
                        .or_else(|| {
                            catalog
                                .local()
                                .table_stats(table.as_str())
                                .ok()
                                .map(|t| t.row_count as f64)
                        })
                        .unwrap_or(DEFAULT_TABLE_ROWS);
                    (st, rows)
                }
                FromStep::ScanForeign {
                    catalog_name,
                    server,
                    remote_name,
                    ..
                } => {
                    let st = catalog.statistics(catalog_name);
                    let rows = st
                        .as_ref()
                        .map(|s| s.row_count as f64)
                        .or_else(|| server.estimate_rows(remote_name).ok().map(|n| n as f64))
                        .unwrap_or(DEFAULT_TABLE_ROWS);
                    (st, rows)
                }
                FromStep::TableFunc { .. } => (None, UDTF_ROWS_PER_CALL),
            };
            stats.push(st);
            base.push(rows);
        }
        Estimator {
            offsets: step_offsets(steps),
            widths: steps.iter().map(|s| s.schema().len()).collect(),
            stats,
            base,
        }
    }

    /// Step owning a concatenated-layout column index.
    fn step_of(&self, col: usize) -> usize {
        (0..self.offsets.len())
            .position(|i| col >= self.offsets[i] && col < self.offsets[i] + self.widths[i])
            .expect("bound column belongs to a step")
    }

    /// Statistics entry + step-local index for a concatenated-layout column.
    fn col_stats(&self, col: usize) -> Option<(&TableStatistics, usize)> {
        let step = self.step_of(col);
        self.stats[step]
            .as_deref()
            .map(|s| (s, col - self.offsets[step]))
    }

    /// NDV of a concatenated-layout column, when statistics know it.
    fn ndv(&self, col: usize) -> Option<usize> {
        let (s, local) = self.col_stats(col)?;
        s.ndv(local)
    }

    /// NDV of a probe expression: known only for plain column references.
    fn expr_ndv(&self, e: &BoundExpr) -> Option<usize> {
        match e {
            BoundExpr::Column { index, .. } => self.ndv(*index),
            _ => None,
        }
    }

    /// NDV of a step-local build column of step `i`.
    fn local_ndv(&self, i: usize, local: usize) -> Option<usize> {
        self.stats[i].as_deref().and_then(|s| s.ndv(local))
    }

    /// Rows step `i` itself produces, after its storage pushdown (literal
    /// and host-variable conjuncts alike).
    fn scan_rows(&self, i: usize, step: &FromStep) -> f64 {
        match step {
            FromStep::ScanLocal {
                pushdown,
                param_pushdown,
                ..
            }
            | FromStep::ScanForeign {
                pushdown,
                param_pushdown,
                ..
            } => {
                let bound = param_pushdown.as_ref().map_or(1.0, |e| {
                    self.selectivity(&e.map_columns(&|c| c + self.offsets[i]))
                });
                (self.base[i]
                    * stats::predicate_selectivity(pushdown, self.stats[i].as_deref())
                    * bound)
                    .max(0.0)
            }
            FromStep::TableFunc { .. } => self.base[i],
        }
    }

    /// Output of composing step `i` with a `prefix`-row prefix through its
    /// extracted equi-join key. The first key pair uses the NDV formula;
    /// additional key pairs multiply their own equality selectivity.
    fn join_rows(&self, i: usize, jk: &JoinKey, prefix: f64, scan_rows: f64) -> f64 {
        let mut rows = stats::join_cardinality(
            prefix,
            scan_rows,
            self.expr_ndv(&jk.probe[0]),
            self.local_ndv(i, jk.build[0]),
        );
        for k in 1..jk.build.len() {
            rows *=
                eq_pair_selectivity(self.expr_ndv(&jk.probe[k]), self.local_ndv(i, jk.build[k]));
        }
        rows.max(0.0)
    }

    /// Walk the placed chain and annotate every step.
    fn estimate(
        &self,
        steps: &[FromStep],
        step_filters: &[Option<BoundExpr>],
        step_join_keys: &[Option<JoinKey>],
    ) -> Vec<StepEstimate> {
        let mut out = Vec::with_capacity(steps.len());
        let mut prefix = 1.0f64;
        for (i, step) in steps.iter().enumerate() {
            let scan_rows = self.scan_rows(i, step);
            let join_rows = match (&step_join_keys[i], step) {
                // Dependent table functions never carry a join key: one
                // invocation per prefix row, UDTF_ROWS_PER_CALL rows each.
                (Some(jk), _) => self.join_rows(i, jk, prefix, scan_rows),
                (None, _) => prefix * scan_rows,
            };
            let out_rows = match &step_filters[i] {
                Some(f) => (join_rows * self.selectivity(f)).max(0.0),
                None => join_rows,
            };
            out.push(StepEstimate {
                scan_rows,
                join_rows,
                out_rows,
            });
            prefix = out_rows;
        }
        out
    }

    /// Selectivity of a bound predicate — the residual-filter analogue of
    /// [`stats::predicate_selectivity`], and the greedy planner's uniform
    /// scorer (a cross-step `a = b` equality scores as a join selectivity
    /// through the NDV rule).
    fn selectivity(&self, e: &BoundExpr) -> f64 {
        match e {
            BoundExpr::Binary { left, op, right } => match op {
                BinaryOp::And => self.selectivity(left) * self.selectivity(right),
                BinaryOp::Or => {
                    let (a, b) = (self.selectivity(left), self.selectivity(right));
                    stats::clamp01(a + b - a * b)
                }
                BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq => self.cmp_selectivity(left, *op, right),
                _ => 1.0,
            },
            BoundExpr::Not(inner) => stats::clamp01(1.0 - self.selectivity(inner)),
            BoundExpr::IsNull { input, negated } => match &**input {
                BoundExpr::Column { index, .. } => match self.col_stats(*index) {
                    Some((s, local)) => s.null_selectivity(local, *negated),
                    None if *negated => 1.0 - DEFAULT_NULL_FRACTION,
                    None => DEFAULT_NULL_FRACTION,
                },
                _ => 0.5,
            },
            BoundExpr::Literal(v) => match v {
                Value::Boolean(true) => 1.0,
                Value::Boolean(false) | Value::Null => 0.0,
                _ => 1.0,
            },
            _ => 0.5,
        }
    }

    fn cmp_selectivity(&self, left: &BoundExpr, op: BinaryOp, right: &BoundExpr) -> f64 {
        let Some(cmp) = to_cmp_op(op) else {
            return 0.5;
        };
        match (left, right) {
            (BoundExpr::Column { index, .. }, BoundExpr::Literal(v)) => {
                self.col_cmp(*index, cmp, v)
            }
            (BoundExpr::Literal(v), BoundExpr::Column { index, .. }) => {
                self.col_cmp(*index, flip_cmp(cmp), v)
            }
            (BoundExpr::Column { index: a, .. }, BoundExpr::Column { index: b, .. })
                if op == BinaryOp::Eq =>
            {
                eq_pair_selectivity(self.ndv(*a), self.ndv(*b))
            }
            // `column = host variable`: 1/NDV, what the join-key path this
            // comparison once took estimated for a one-row probe side.
            (BoundExpr::Column { index, .. }, BoundExpr::Param { .. })
            | (BoundExpr::Param { .. }, BoundExpr::Column { index, .. })
                if op == BinaryOp::Eq =>
            {
                eq_pair_selectivity(self.ndv(*index), None)
            }
            _ => match op {
                BinaryOp::Eq => DEFAULT_EQ_SELECTIVITY,
                BinaryOp::NotEq => 1.0 - DEFAULT_EQ_SELECTIVITY,
                _ => DEFAULT_RANGE_SELECTIVITY,
            },
        }
    }

    fn col_cmp(&self, index: usize, op: CmpOp, v: &Value) -> f64 {
        match self.col_stats(index) {
            Some((s, local)) => s.cmp_selectivity(local, op, v),
            None => match op {
                CmpOp::Eq => DEFAULT_EQ_SELECTIVITY,
                CmpOp::NotEq => 1.0 - DEFAULT_EQ_SELECTIVITY,
                _ => DEFAULT_RANGE_SELECTIVITY,
            },
        }
    }
}

/// Selectivity of one `a = b` column pair from the two NDVs.
fn eq_pair_selectivity(a: Option<usize>, b: Option<usize>) -> f64 {
    match (a, b) {
        (Some(x), Some(y)) => 1.0 / x.max(y).max(1) as f64,
        (Some(x), None) | (None, Some(x)) => 1.0 / x.max(1) as f64,
        (None, None) => DEFAULT_EQ_SELECTIVITY,
    }
}

fn to_cmp_op(op: BinaryOp) -> Option<CmpOp> {
    Some(match op {
        BinaryOp::Eq => CmpOp::Eq,
        BinaryOp::NotEq => CmpOp::NotEq,
        BinaryOp::Lt => CmpOp::Lt,
        BinaryOp::LtEq => CmpOp::LtEq,
        BinaryOp::Gt => CmpOp::Gt,
        BinaryOp::GtEq => CmpOp::GtEq,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Join ordering
// ---------------------------------------------------------------------------

/// Greedy join order over the syntactic step numbering: within each run of
/// steps between dependent-UDTF barriers, repeatedly pick the remaining step
/// that minimizes the estimated prefix cardinality. Ties keep syntactic
/// order, so the greedy pass is the identity unless it finds a strictly
/// cheaper prefix. Returns `order[new_position] = syntactic_index`.
fn choose_order(est: &Estimator, steps: &[FromStep], conjuncts: &[BoundExpr]) -> Vec<usize> {
    let n = steps.len();
    // Steps each conjunct references, in syntactic numbering.
    let conj_steps: Vec<Vec<usize>> = conjuncts
        .iter()
        .map(|c| {
            let mut v: Vec<usize> = c
                .column_indexes()
                .into_iter()
                .map(|col| est.step_of(col))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut in_prefix = vec![false; n];
    let mut applied = vec![false; conjuncts.len()];
    let mut prefix_rows = 1.0f64;

    // Fold every conjunct whose steps are now all in the prefix into the
    // running cardinality — mirrors the factors `candidate_rows` charges.
    let absorb = |in_prefix: &[bool], applied: &mut [bool], prefix_rows: &mut f64| {
        for (k, cs) in conj_steps.iter().enumerate() {
            if !applied[k] && cs.iter().all(|&s| in_prefix[s]) {
                applied[k] = true;
                *prefix_rows = (*prefix_rows * est.selectivity(&conjuncts[k])).max(0.0);
            }
        }
    };

    let mut seg_start = 0usize;
    for idx in 0..=n {
        let at_barrier = idx == n
            || matches!(
                steps[idx],
                FromStep::TableFunc {
                    independent: false,
                    ..
                }
            );
        if !at_barrier {
            continue;
        }
        // Greedily order the movable run [seg_start, idx).
        let mut remaining: Vec<usize> = (seg_start..idx).collect();
        while !remaining.is_empty() {
            let mut best: Option<(usize, f64)> = None; // (position in `remaining`, est rows)
            for (pos, &cand) in remaining.iter().enumerate() {
                let mut rows = prefix_rows * est.base[cand];
                for (k, cs) in conj_steps.iter().enumerate() {
                    if !applied[k] && cs.iter().all(|&s| s == cand || in_prefix[s]) {
                        rows *= est.selectivity(&conjuncts[k]);
                    }
                }
                // Strict `<` keeps the earliest syntactic candidate on ties.
                match best {
                    Some((_, b)) if rows >= b => {}
                    _ => best = Some((pos, rows.max(0.0))),
                }
            }
            let (pos, rows) = best.expect("remaining is non-empty");
            let cand = remaining.remove(pos);
            order.push(cand);
            in_prefix[cand] = true;
            prefix_rows = rows;
            absorb(&in_prefix, &mut applied, &mut prefix_rows);
        }
        if idx < n {
            // Pass the barrier itself: one invocation per prefix row.
            order.push(idx);
            in_prefix[idx] = true;
            prefix_rows *= est.base[idx];
            absorb(&in_prefix, &mut applied, &mut prefix_rows);
            seg_start = idx + 1;
        }
    }
    order
}

/// Column remap for a step permutation: `remap[syntactic_index]` is the
/// column's index in the permuted concatenated layout.
fn permuted_remap(offsets: &[usize], widths: &[usize], order: &[usize]) -> Vec<usize> {
    let total: usize = widths.iter().sum();
    let mut remap = vec![0usize; total];
    let mut new_off = 0usize;
    for &old in order {
        for local in 0..widths[old] {
            remap[offsets[old] + local] = new_off + local;
        }
        new_off += widths[old];
    }
    remap
}

// ---------------------------------------------------------------------------
// Access-path choice
// ---------------------------------------------------------------------------

/// Pick the composition strategy per step from the estimates. Mirrors the
/// executor's indexability gate (single non-DOUBLE key served by an index),
/// then compares the estimated probe count (prefix rows) against the
/// estimated scan size: fewer probes than scanned rows → index probes win,
/// otherwise one hash build is cheaper. The executor re-checks indexability
/// at run time, so a stale [`Access::IndexProbe`] degrades to a hash join
/// rather than failing.
fn choose_access(
    catalog: &Catalog,
    steps: &[FromStep],
    step_join_keys: &[Option<JoinKey>],
    estimates: &[StepEstimate],
) -> Vec<Access> {
    steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let Some(jk) = &step_join_keys[i] else {
                return Access::Auto;
            };
            let FromStep::ScanLocal { table, schema, .. } = step else {
                return Access::Auto;
            };
            if !jk.indexable(catalog, table, schema).unwrap_or(false) {
                return Access::Auto;
            }
            let prefix_rows = if i == 0 {
                1.0
            } else {
                estimates[i - 1].out_rows
            };
            if prefix_rows < estimates[i].scan_rows {
                Access::IndexProbe
            } else {
                Access::Hash
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::udtf::Udtf;
    use fedwf_sql::{parse_statement, SelectStmt, Statement};
    use fedwf_types::{DataType, Ident, Row, Schema, Table};

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => panic!("expected select"),
        }
    }

    /// Big (2000 rows, unique A), Wide (1000 rows, unique B), Tiny (5 rows,
    /// A and B in their ranges) — plus a dependent UDTF `Dep`.
    fn federation() -> Catalog {
        let cat = Catalog::new();
        cat.local()
            .create_table(
                "Big",
                Arc::new(Schema::of(&[("A", DataType::Int), ("P", DataType::Int)])),
            )
            .unwrap();
        cat.local()
            .create_table("Wide", Arc::new(Schema::of(&[("B", DataType::Int)])))
            .unwrap();
        cat.local()
            .create_table(
                "Tiny",
                Arc::new(Schema::of(&[("A", DataType::Int), ("B", DataType::Int)])),
            )
            .unwrap();
        for i in 0..2000 {
            cat.local()
                .insert("Big", Row::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        for i in 0..1000 {
            cat.local()
                .insert("Wide", Row::new(vec![Value::Int(i)]))
                .unwrap();
        }
        for i in 0..5 {
            cat.local()
                .insert("Tiny", Row::new(vec![Value::Int(i * 3), Value::Int(i * 2)]))
                .unwrap();
        }
        cat.register_udtf(Udtf::native(
            "Dep",
            vec![(Ident::new("X"), DataType::Int)],
            Arc::new(Schema::of(&[("Y", DataType::Int)])),
            |args, _m| {
                Ok(Table::scalar(
                    "Y",
                    args[0]
                        .as_i64()
                        .map(|v| Value::Int(v as i32 + 1))
                        .unwrap_or(Value::Null),
                ))
            },
        ))
        .unwrap();
        cat.analyze().unwrap();
        cat
    }

    fn aliases(plan: &Plan) -> Vec<String> {
        plan.steps.iter().map(|s| s.alias().to_string()).collect()
    }

    fn optimize_sql(cat: &Catalog, sql: &str, mode: PlannerMode) -> Plan {
        let logical = PlanBuilder::new(cat).bind_logical(&select(sql)).unwrap();
        optimize(cat, logical, mode).unwrap()
    }

    const THREE_WAY: &str = "SELECT T.A FROM Big AS H, Wide AS W, Tiny AS T \
                             WHERE H.A = T.A AND W.B = T.B";

    #[test]
    fn syntactic_mode_keeps_from_order() {
        let cat = federation();
        let plan = optimize_sql(&cat, THREE_WAY, PlannerMode::Syntactic);
        assert_eq!(aliases(&plan), vec!["H", "W", "T"]);
        assert!(plan.step_access.iter().all(|a| *a == Access::Auto));
        // Both join conjuncts target the last step (multi-key join key).
        let jk = plan.step_join_keys[2].as_ref().unwrap();
        assert_eq!(jk.build.len(), 2);
    }

    #[test]
    fn cost_based_puts_the_tiny_table_first() {
        let cat = federation();
        let plan = optimize_sql(&cat, THREE_WAY, PlannerMode::CostBased);
        assert_eq!(aliases(&plan)[0], "T", "tiny table leads");
        // Each later step now joins on its own single key.
        assert!(plan.step_join_keys[1]
            .as_ref()
            .is_some_and(|jk| jk.build.len() == 1));
        assert!(plan.step_join_keys[2]
            .as_ref()
            .is_some_and(|jk| jk.build.len() == 1));
        // The linear order is estimated far cheaper than the syntactic
        // cross product.
        let syntactic = optimize_sql(&cat, THREE_WAY, PlannerMode::Syntactic);
        let cb_rows = plan.step_estimates[1].out_rows;
        let syn_rows = syntactic.step_estimates[1].out_rows;
        assert!(
            cb_rows * 100.0 < syn_rows,
            "cost-based intermediate {cb_rows} should be far below syntactic {syn_rows}"
        );
    }

    #[test]
    fn limit_blocks_reordering() {
        let cat = federation();
        let plan = optimize_sql(
            &cat,
            "SELECT T.A FROM Big AS H, Wide AS W, Tiny AS T \
             WHERE H.A = T.A AND W.B = T.B LIMIT 3",
            PlannerMode::CostBased,
        );
        assert_eq!(aliases(&plan), vec!["H", "W", "T"]);
    }

    #[test]
    fn dependent_udtf_is_a_reorder_barrier() {
        let cat = federation();
        // Dep depends on H, so H must stay before it; Tiny/Wide after the
        // barrier may still swap among themselves but never cross it.
        let plan = optimize_sql(
            &cat,
            "SELECT D.Y FROM Big AS H, TABLE (Dep(H.A)) AS D, Big AS H2, Tiny AS T \
             WHERE H2.A = T.A",
            PlannerMode::CostBased,
        );
        let names = aliases(&plan);
        assert_eq!(names[0], "H");
        assert_eq!(names[1], "D");
        assert_eq!(names[2], "T", "tiny table leads the post-barrier segment");
        assert_eq!(names[3], "H2");
    }

    #[test]
    fn estimates_cover_every_step_and_track_stats() {
        let cat = federation();
        let plan = optimize_sql(
            &cat,
            "SELECT H.A FROM Big AS H WHERE H.A < 500",
            PlannerMode::CostBased,
        );
        assert_eq!(plan.step_estimates.len(), 1);
        let e = plan.step_estimates[0];
        // 500/1999 of 2000 rows ≈ 500; interpolation should land close.
        assert!(e.scan_rows > 400.0 && e.scan_rows < 600.0, "{e:?}");
        assert_eq!(e.join_rows, e.scan_rows);
    }

    #[test]
    fn reorder_remaps_projection_and_filters() {
        let cat = federation();
        let plan = optimize_sql(&cat, THREE_WAY, PlannerMode::CostBased);
        // T is now step 0, so the projected T.A must be column 0.
        assert_eq!(
            plan.projection[0].0,
            BoundExpr::Column {
                index: 0,
                data_type: DataType::Int
            }
        );
    }

    #[test]
    fn access_choice_prefers_index_probe_for_small_prefixes() {
        let cat = federation();
        cat.local()
            .create_index("Big", "pk_big", "A", fedwf_relstore::IndexKind::Unique)
            .unwrap();
        let plan = optimize_sql(&cat, THREE_WAY, PlannerMode::CostBased);
        // Big joins a ~5-row prefix against 2000 indexed rows.
        let big_pos = aliases(&plan).iter().position(|a| a == "H").unwrap();
        assert_eq!(plan.step_access[big_pos], Access::IndexProbe);
    }

    #[test]
    fn access_choice_prefers_hash_for_large_prefixes() {
        let cat = federation();
        cat.local()
            .create_index("Tiny", "pk_tiny", "A", fedwf_relstore::IndexKind::Unique)
            .unwrap();
        // Prefix (Big, 2000 rows) is much larger than Tiny (5 rows): build
        // the hash table over Tiny instead of probing its index 2000 times.
        let plan = optimize_sql(
            &cat,
            "SELECT T.A FROM Big AS H, Tiny AS T WHERE H.A = T.A LIMIT 10000",
            PlannerMode::CostBased,
        );
        assert_eq!(aliases(&plan), vec!["H", "T"], "LIMIT pins the order");
        assert_eq!(plan.step_access[1], Access::Hash);
    }
}
