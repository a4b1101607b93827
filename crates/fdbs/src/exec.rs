//! Plan execution: the dispatch, the reference oracle, and the row kernels.
//!
//! [`ExecMode::Streaming`] is the one production executor: the vectorized
//! pipeline in `vexec.rs`, which pulls typed column batches through
//! non-blocking operators (chunked local scans, lazy hash-join probes,
//! index point lookups, residual filters, dependent-UDTF calls) so
//! intermediate results are never materialized whole. Only genuine
//! pipeline breakers (hash-join build sides, buffered foreign/UDTF result
//! sets, ORDER BY, GROUP BY) buffer rows, and each such buffer is tallied
//! on the meter's materialization counters.
//!
//! This module holds what that pipeline shares with its reference:
//!
//! * the row-at-a-time operator kernels (`Op::push`, `sink_push`). The
//!   vectorized pipeline runs them on batches that are already rows (join
//!   output, UDTF compositions) and on any batch a columnar kernel could
//!   not evaluate. Their outcome, including *which* error surfaces first,
//!   is authoritative;
//! * the one copy of each mechanism both kernels run: the hash join's
//!   lazy build and emit loop (`HashJoin::emit`), the index probe's emit
//!   loop (`IndexProbe::emit`), the aggregate's group lookup (behind
//!   `Aggregator::push` and `Aggregator::push_evaled`), the
//!   join-with-selection charge (`charge_join`) and the LIMIT cut of the
//!   finishing stages;
//! * the [`ExecMode::Naive`] oracle, kept for the equivalence suites and
//!   the E13/E14 benches only. It materializes the cross product of every
//!   lateral step and re-evaluates the join conjuncts per composed row,
//!   groups and de-duplicates by linear search, and never memoizes. Plans
//!   for the oracle are bound unpruned; plans for streaming are pruned.
//!
//! Both executors honor [`Plan::step_projections`]: when the binder pruned
//! a step, its scan returns only the referenced columns (pushed through
//! `Database::scan_project_columnar` / `ForeignServer::scan_project_columnar`
//! on the streaming path) and UDTF result rows are cut down before
//! composing. `JoinKey::build` keeps the step's original column numbering,
//! so the hash join translates build columns into pruned positions before
//! hashing.

use std::borrow::{Borrow, Cow};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use fedwf_relstore::Predicate;
use fedwf_sim::{Component, CostModel, Meter};
use fedwf_types::{
    implicit_cast, DataType, FedError, FedResult, Ident, ResultExt, Row, SchemaRef, Table, Value,
    ValueKey,
};

use crate::engine::Fdbs;
use crate::expr::BoundExpr;
use crate::plan::{AggColumn, AggFn, AggregatePlan, FromStep, Plan};
use crate::udtf::{Udtf, UdtfKind};

/// Which executor runs a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Vectorized streaming: column batches through non-blocking operators;
    /// only pipeline breakers (build sides, sorts, aggregates) buffer rows.
    /// The production executor and the default.
    Streaming,
    /// Cross product + per-row predicate re-evaluation, linear group and
    /// DISTINCT lookup, no memo. The reference oracle for the equivalence
    /// suites and the E13/E14 comparisons; never a production choice.
    Naive,
}

/// Rows per streaming batch. Small enough that a batch of wide rows stays
/// cache-friendly, large enough to amortize per-batch dispatch.
pub(crate) const STREAM_BATCH_ROWS: usize = 1024;

/// Execute a plan the engine bound against its catalog, under the engine's
/// options, booking executor costs to `meter`. `params` supplies the plan's
/// parameter slots in order.
pub(crate) fn execute_plan(
    fdbs: &Fdbs,
    plan: &Plan,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    if params.len() != plan.params.len() {
        return Err(FedError::execution(format!(
            "plan expects {} parameters, got {}",
            plan.params.len(),
            params.len()
        )));
    }
    match fdbs.options().mode {
        ExecMode::Streaming => crate::vexec::execute_vectorized(fdbs, plan, params, meter),
        ExecMode::Naive => execute_naive(fdbs, plan, params, meter),
    }
}

// ---------------------------------------------------------------------------
// The reference oracle
// ---------------------------------------------------------------------------

fn execute_naive(
    fdbs: &Fdbs,
    plan: &Plan,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    let cost = fdbs.cost();

    // The lateral chain starts from a single empty row.
    let mut rows: Vec<Row> = vec![Row::empty()];
    for (i, step) in plan.steps.iter().enumerate() {
        rows = naive_step(fdbs, plan, i, rows, params, meter)
            .context(format!("evaluating FROM item {} ({step:?})", i + 1))?;
        // Every composed intermediate is a materialization point here —
        // exactly what the streaming executor avoids.
        tally_rows(meter, &rows);
        // The join keys were ignored during composition, so their
        // conjuncts apply as an ordinary residual filter.
        if let Some(jk) = &plan.step_join_keys[i] {
            rows = filter_rows(rows, &jk.residual, params, meter, cost.predicate_eval)?;
        }
        if let Some(filter) = &plan.step_filters[i] {
            rows = filter_rows(rows, filter, params, meter, cost.predicate_eval)?;
        }
    }

    // Grouping/aggregation replaces the scalar projection entirely; its
    // ORDER BY keys index the aggregate *output* layout.
    if let Some(agg) = &plan.aggregate {
        let mut a = Aggregator::new(plan, agg, cost, false);
        for row in &rows {
            a.push(row, params, meter)?;
        }
        return finish_aggregate(plan, a.finish(meter)?, params);
    }

    scalar_tail(fdbs, plan, rows, params, meter, ExecMode::Naive)
}

/// Compose lateral step `i` with `prefix` as a cross product: scans run in
/// full, a dependent UDTF is invoked once per prefix row.
fn naive_step(
    fdbs: &Fdbs,
    plan: &Plan,
    i: usize,
    prefix: Vec<Row>,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Vec<Row>> {
    let cost = fdbs.cost();
    let proj = plan.step_projections.get(i).and_then(|p| p.as_deref());
    match &plan.steps[i] {
        FromStep::ScanLocal { table, .. } => {
            let pushdown = plan.scan_predicate(i, params)?;
            let scanned = fdbs
                .catalog()
                .local()
                .scan_project(table.as_str(), &pushdown, proj)?;
            meter.charge(
                Component::Fdbs,
                "Scan local table",
                cost.predicate_eval * scanned.row_count() as u64,
            );
            tally_rows(meter, scanned.rows());
            Ok(cross(prefix, scanned.rows()))
        }
        FromStep::ScanForeign {
            server,
            remote_name,
            ..
        } => {
            let pushdown = plan.scan_predicate(i, params)?;
            let scanned = server.scan_project(remote_name, &pushdown, proj)?;
            meter.charge(
                Component::Fdbs,
                format!("Subquery to SQL source {}", server.name()),
                cost.rmi_call + cost.rmi_return,
            );
            tally_rows(meter, scanned.rows());
            Ok(cross(prefix, scanned.rows()))
        }
        // Independent table functions are invoked once (their result does
        // not depend on prefix rows) and composed via a join-with-selection.
        FromStep::TableFunc {
            udtf,
            args,
            independent: true,
            ..
        } => {
            let arg_values: Vec<Value> = args
                .iter()
                .map(|a| a.eval(&[], params))
                .collect::<FedResult<_>>()?;
            let result = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
            let rrows = pruned_rows(&result, proj);
            tally_rows(meter, &rrows);
            if i > 0 {
                charge_join(meter, cost, prefix.len() * rrows.len());
            }
            Ok(cross(prefix, &rrows))
        }
        // Dependent: one invocation per prefix row.
        FromStep::TableFunc { udtf, args, .. } => {
            let mut out = Vec::new();
            for row in &prefix {
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(row.values(), params))
                    .collect::<FedResult<_>>()?;
                let t = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
                let rrows = pruned_rows(&t, proj);
                tally_rows(meter, &rrows);
                for rrow in &rrows {
                    out.push(row.concat(rrow));
                }
            }
            Ok(out)
        }
    }
}

/// Sort (ORDER BY on the aggregate output layout) and LIMIT an aggregate
/// result — shared by the oracle and the streaming aggregate sink.
pub(crate) fn finish_aggregate(plan: &Plan, mut out: Table, params: &[Value]) -> FedResult<Table> {
    if !plan.order_by.is_empty() {
        let sorted = sort_rows(out.into_rows(), &plan.order_by, params)?;
        out = table_from_rows(plan.out_schema.clone(), sorted);
    }
    Ok(apply_limit(plan, out))
}

/// The scalar (non-aggregate) finishing stages over fully collected rows:
/// ORDER BY on the pre-projection layout, projection, DISTINCT, LIMIT.
/// Shared by the oracle and the streaming sort sink.
pub(crate) fn scalar_tail(
    fdbs: &Fdbs,
    plan: &Plan,
    mut rows: Vec<Row>,
    params: &[Value],
    meter: &mut Meter,
    mode: ExecMode,
) -> FedResult<Table> {
    let cost = fdbs.cost();

    // ORDER BY is evaluated on the full (pre-projection) row layout, so it
    // may reference any FROM column, not just projected ones.
    if !plan.order_by.is_empty() {
        rows = sort_rows(rows, &plan.order_by, params)?;
    }

    // Projection.
    let mut out = Table::new(plan.out_schema.clone());
    for row in &rows {
        let values: Vec<Value> = plan
            .projection
            .iter()
            .map(|(e, _)| e.eval(row.values(), params))
            .collect::<FedResult<_>>()?;
        meter.charge(Component::Fdbs, "Produce result rows", cost.row_output);
        out.push_unchecked(Row::new(values));
    }

    // DISTINCT: hashed on the streaming path, quadratic scan in the
    // oracle. Both keep first-appearance order and group by `index_cmp`
    // equality (`group_key` is hash-consistent with it).
    if plan.distinct {
        let mut deduped = Table::new(plan.out_schema.clone());
        match mode {
            ExecMode::Streaming => {
                let mut seen: HashSet<Vec<ValueKey>> = HashSet::new();
                for row in out.into_rows() {
                    let key: Vec<ValueKey> = row.values().iter().map(Value::group_key).collect();
                    if seen.insert(key) {
                        deduped.push_unchecked(row);
                    }
                }
            }
            ExecMode::Naive => {
                let mut seen: Vec<Row> = Vec::new();
                for row in out.into_rows() {
                    let dup = seen.iter().any(|r| {
                        r.values()
                            .iter()
                            .zip(row.values())
                            .all(|(a, b)| a.index_cmp(b) == std::cmp::Ordering::Equal)
                    });
                    if !dup {
                        seen.push(row.clone());
                        deduped.push_unchecked(row);
                    }
                }
            }
        }
        out = deduped;
    }

    Ok(apply_limit(plan, out))
}

/// Cut a finished result to the plan's LIMIT.
fn apply_limit(plan: &Plan, out: Table) -> Table {
    match plan.limit {
        Some(limit) => {
            let rows: Vec<Row> = out.into_rows().into_iter().take(limit as usize).collect();
            table_from_rows(plan.out_schema.clone(), rows)
        }
        None => out,
    }
}

/// Translate the original step-local build columns of a join key into
/// positions within the pruned step projection. The binder always keeps
/// join build columns in the projection, so a miss is an internal error.
pub(crate) fn build_positions(build: &[usize], proj: Option<&[usize]>) -> FedResult<Vec<usize>> {
    match proj {
        None => Ok(build.to_vec()),
        Some(p) => build
            .iter()
            .map(|b| {
                p.iter().position(|c| c == b).ok_or_else(|| {
                    FedError::execution(format!(
                        "join build column {b} was pruned out of the step projection"
                    ))
                })
            })
            .collect(),
    }
}

/// A step's result rows cut down to the pruned projection (UDTF results are
/// produced full-width by the function body; scans prune at the source).
pub(crate) fn pruned_rows(table: &Table, proj: Option<&[usize]>) -> Vec<Row> {
    match proj {
        None => table.rows().to_vec(),
        Some(p) => table.rows().iter().map(|r| r.project(p)).collect(),
    }
}

/// Record `rows` as materialized on the meter's observability counters.
pub(crate) fn tally_rows(meter: &mut Meter, rows: &[Row]) {
    let bytes: usize = rows.iter().map(Row::approx_bytes).sum();
    meter.tally_materialized(rows.len() as u64, bytes as u64);
}

/// Keep the rows satisfying `filter`, booking one predicate evaluation per
/// input row (the naive composition's per-row cost).
pub(crate) fn filter_rows(
    rows: Vec<Row>,
    filter: &BoundExpr,
    params: &[Value],
    meter: &mut Meter,
    predicate_eval: u64,
) -> FedResult<Vec<Row>> {
    let mut kept = Vec::with_capacity(rows.len());
    for row in rows {
        meter.charge(Component::Fdbs, "Evaluate predicates", predicate_eval);
        if filter.eval_predicate(row.values(), params)? {
            kept.push(row);
        }
    }
    Ok(kept)
}

/// Book the composition cost of a hash join. The step name matches the
/// paper's "join with selection" (it is that operation, implemented
/// better); the per-row cost scales with build + output instead of the
/// cross product.
pub(crate) fn charge_join(meter: &mut Meter, cost: &CostModel, rows: usize) {
    meter.charge(
        Component::Fdbs,
        "Join with selection (compose result sets)",
        cost.join_with_selection_setup + cost.join_with_selection_per_row * rows as u64,
    );
}

/// The join key of one value, with the oracle's error semantics: NULL
/// joins nothing (`None`), NaN is a hard comparison error (the oracle's
/// `sql_cmp` raises "cannot compare" for it on every pairing).
fn join_key_checked(v: &Value) -> FedResult<Option<ValueKey>> {
    match v.join_key() {
        Some(ValueKey::NaN) => Err(FedError::execution(format!(
            "cannot compare {v} in a join key"
        ))),
        other => Ok(other),
    }
}

/// Evaluate the build-side key of one row; `None` means the row joins
/// nothing (a NULL key under SQL three-valued logic).
fn build_key(row: &Row, build_cols: &[usize]) -> FedResult<Option<Vec<ValueKey>>> {
    let mut key = Vec::with_capacity(build_cols.len());
    for &c in build_cols {
        match join_key_checked(&row.values()[c])? {
            Some(k) => key.push(k),
            None => return Ok(None),
        }
    }
    Ok(Some(key))
}

/// Stable sort by the evaluated key expressions under `index_cmp`.
fn sort_rows(rows: Vec<Row>, order: &[(BoundExpr, bool)], params: &[Value]) -> FedResult<Vec<Row>> {
    let mut keyed: Vec<(Vec<Value>, Row)> = rows
        .into_iter()
        .map(|row| {
            let keys = order
                .iter()
                .map(|(e, _)| e.eval(row.values(), params))
                .collect::<FedResult<Vec<_>>>()?;
            Ok((keys, row))
        })
        .collect::<FedResult<_>>()?;
    keyed.sort_by(|(ka, _), (kb, _)| {
        for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(order) {
            let ord = a.index_cmp(b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

fn table_from_rows(schema: SchemaRef, rows: Vec<Row>) -> Table {
    let mut t = Table::new(schema);
    for row in rows {
        t.push_unchecked(row);
    }
    t
}

// ---------------------------------------------------------------------------
// Incremental aggregation (shared by both executors)
// ---------------------------------------------------------------------------

/// Collected argument values per group: (key values, per-column data).
pub(crate) struct Group {
    keys: Vec<Value>,
    /// For each aggregate column: non-null argument values (for
    /// COUNT(*): the total row count as `seen`).
    values: Vec<Vec<Value>>,
    seen: u64,
}

/// Incremental GROUP BY/aggregate state. Rows are pushed one at a time (the
/// streaming sink feeds it per batch; the oracle feeds it the collected
/// row set), and [`Aggregator::finish`] evaluates the aggregate functions.
/// Without GROUP BY there is exactly one group — even over zero rows
/// (`COUNT(*)` of an empty table is 0, `SUM` is NULL). Groups appear in
/// first-appearance order on both paths; streaming finds them through a
/// hash map, the oracle by linear `index_cmp` search.
pub(crate) struct Aggregator<'p> {
    plan: &'p Plan,
    agg: &'p AggregatePlan,
    hashed: bool,
    predicate_eval: u64,
    row_output: u64,
    groups: Vec<Group>,
    lookup: HashMap<Vec<ValueKey>, usize>,
}

impl<'p> Aggregator<'p> {
    pub(crate) fn new(
        plan: &'p Plan,
        agg: &'p AggregatePlan,
        cost: &CostModel,
        hashed: bool,
    ) -> Self {
        Aggregator {
            plan,
            agg,
            hashed,
            predicate_eval: cost.predicate_eval,
            row_output: cost.row_output,
            groups: Vec::new(),
            lookup: HashMap::new(),
        }
    }

    /// The group `keys` belong to, appended in first-appearance order when
    /// new, with its row count bumped: found through the hash map on the
    /// streaming path, by linear `index_cmp` search in the oracle.
    fn group(&mut self, keys: Vec<Value>) -> &mut Group {
        let found = if self.hashed {
            let next = self.groups.len();
            let hkey: Vec<ValueKey> = keys.iter().map(Value::group_key).collect();
            let idx = *self.lookup.entry(hkey).or_insert(next);
            (idx < next).then_some(idx)
        } else {
            self.groups.iter().position(|g| {
                g.keys
                    .iter()
                    .zip(&keys)
                    .all(|(a, b)| a.index_cmp(b) == std::cmp::Ordering::Equal)
            })
        };
        let idx = match found {
            Some(i) => i,
            None => {
                self.groups.push(Group {
                    keys,
                    values: vec![Vec::new(); self.agg.columns.len()],
                    seen: 0,
                });
                self.groups.len() - 1
            }
        };
        let group = &mut self.groups[idx];
        group.seen += 1;
        group
    }

    pub(crate) fn push(&mut self, row: &Row, params: &[Value], meter: &mut Meter) -> FedResult<()> {
        meter.charge(Component::Fdbs, "Evaluate predicates", self.predicate_eval);
        let keys: Vec<Value> = self
            .agg
            .keys
            .iter()
            .map(|k| k.eval(row.values(), params))
            .collect::<FedResult<_>>()?;
        let agg = self.agg;
        let group = self.group(keys);
        for (i, (col, _)) in agg.columns.iter().enumerate() {
            if let AggColumn::Agg { arg: Some(arg), .. } = col {
                let v = arg.eval(row.values(), params)?;
                if !v.is_null() {
                    group.values[i].push(v);
                }
            }
        }
        Ok(())
    }

    pub(crate) fn agg_plan(&self) -> &'p AggregatePlan {
        self.agg
    }

    /// Book the per-row grouping charge for a whole batch at once — one
    /// record whose amount equals what [`Aggregator::push`] books across
    /// the same rows, so virtual-time totals are identical.
    pub(crate) fn charge_batch(&self, meter: &mut Meter, rows: u64) {
        meter.charge(
            Component::Fdbs,
            "Evaluate predicates",
            self.predicate_eval * rows,
        );
    }

    /// Push one row whose key and argument expressions were already
    /// evaluated (the vectorized sink's entry). Grouping, first-appearance
    /// order, and null-skipping match [`Aggregator::push`] exactly; the
    /// caller books the charge via [`Aggregator::charge_batch`].
    pub(crate) fn push_evaled(&mut self, keys: Vec<Value>, args: Vec<Option<Value>>) {
        let group = self.group(keys);
        for (i, v) in args.into_iter().enumerate() {
            if let Some(v) = v.filter(|v| !v.is_null()) {
                group.values[i].push(v);
            }
        }
    }

    pub(crate) fn finish(mut self, meter: &mut Meter) -> FedResult<Table> {
        let agg_count = self.agg.columns.len();
        // Global aggregation over zero rows still yields one (empty) group.
        if self.groups.is_empty() && self.agg.keys.is_empty() {
            self.groups.push(Group {
                keys: vec![],
                values: vec![Vec::new(); agg_count],
                seen: 0,
            });
        }

        let mut out = Table::new(self.plan.out_schema.clone());
        for group in &self.groups {
            let mut values = Vec::with_capacity(agg_count);
            for (i, ((col, _), schema_col)) in self
                .agg
                .columns
                .iter()
                .zip(self.plan.out_schema.columns())
                .enumerate()
            {
                let v = match col {
                    AggColumn::Key(k) => group.keys[*k].clone(),
                    AggColumn::Agg { f, arg } => {
                        let collected = &group.values[i];
                        match f {
                            AggFn::Count => match arg {
                                None => Value::BigInt(group.seen as i64),
                                Some(_) => Value::BigInt(collected.len() as i64),
                            },
                            AggFn::Sum | AggFn::Avg => {
                                if collected.is_empty() {
                                    Value::Null
                                } else {
                                    match (f, schema_col.data_type) {
                                        (AggFn::Avg, _) => {
                                            let as_f: f64 =
                                                collected.iter().filter_map(Value::as_f64).sum();
                                            Value::Double(as_f / collected.len() as f64)
                                        }
                                        (_, DataType::Double) => {
                                            let as_f: f64 =
                                                collected.iter().filter_map(Value::as_f64).sum();
                                            Value::Double(as_f)
                                        }
                                        _ => {
                                            let mut acc: i64 = 0;
                                            for v in collected.iter().filter_map(Value::as_i64) {
                                                acc = acc.checked_add(v).ok_or_else(|| {
                                                    FedError::execution("SUM overflow")
                                                })?;
                                            }
                                            Value::BigInt(acc)
                                        }
                                    }
                                }
                            }
                            AggFn::Min | AggFn::Max => collected
                                .iter()
                                .cloned()
                                .reduce(|a, b| {
                                    let keep_a = match f {
                                        AggFn::Min => {
                                            a.index_cmp(&b) != std::cmp::Ordering::Greater
                                        }
                                        _ => a.index_cmp(&b) != std::cmp::Ordering::Less,
                                    };
                                    if keep_a {
                                        a
                                    } else {
                                        b
                                    }
                                })
                                .unwrap_or(Value::Null),
                        }
                    }
                };
                values.push(coerce_agg(v, schema_col.data_type)?);
            }
            meter.charge(Component::Fdbs, "Produce result rows", self.row_output);
            out.push_unchecked(Row::new(values));
        }
        Ok(out)
    }
}

/// Widen an aggregate result to the declared column type. A value that
/// does not fit the declared type is a hard error — pushing it through
/// unchecked would corrupt the result table's schema invariants.
fn coerce_agg(v: Value, to: DataType) -> FedResult<Value> {
    if v.is_null() {
        return Ok(v);
    }
    implicit_cast(&v, to).map_err(|e| {
        FedError::execution(format!(
            "aggregate result {v} does not fit declared column type {to}: {e}"
        ))
    })
}

pub(crate) fn cross(prefix: Vec<Row>, rows: &[Row]) -> Vec<Row> {
    let mut out = Vec::with_capacity(prefix.len() * rows.len());
    for left in &prefix {
        for right in rows {
            out.push(left.concat(right));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Streaming operator state and its row kernels
// ---------------------------------------------------------------------------

/// One non-blocking streaming operator. Pipeline-breaking state (hash-join
/// build sides, buffered foreign/UDTF results, probe caches) is built at
/// prepare time or on demand and tallied as materialized; batches flowing
/// through are not. Charges whose amounts depend on totals (join
/// composition, index-probe scans) are deferred to [`Op::finish`], which
/// books each as one record for the whole statement.
pub(crate) enum Op<'p> {
    HashJoin(HashJoin<'p>),
    IndexProbe(IndexProbe<'p>),
    Cross {
        right: Vec<Row>,
        /// Book a join-with-selection at finish (independent UDTF composed
        /// at position > 0).
        charge_select: bool,
        prefix_rows: usize,
    },
    DependentUdtf {
        udtf: &'p Udtf,
        args: &'p [BoundExpr],
        projection: Option<&'p [usize]>,
        memo_on: bool,
        memo: HashMap<Vec<(Option<DataType>, ValueKey)>, Vec<Row>>,
    },
    Filter {
        filter: &'p BoundExpr,
    },
}

/// Hash join against a buffered build side. The row and column kernels
/// share [`HashJoin::emit`]; they differ only in where a probe key and the
/// left row come from.
pub(crate) struct HashJoin<'p> {
    build_rows: Vec<Row>,
    /// Build columns translated into the (possibly pruned) build layout.
    build_cols: Vec<usize>,
    pub(crate) probe: &'p [BoundExpr],
    /// Lazily built on the first non-empty probe batch: build keys are
    /// never evaluated when no probe row arrives, just as the oracle's
    /// cross product over an empty prefix evaluates nothing.
    table: Option<HashMap<Vec<ValueKey>, Vec<usize>>>,
    out_count: usize,
}

impl<'p> HashJoin<'p> {
    pub(crate) fn new(
        build_rows: Vec<Row>,
        build_cols: Vec<usize>,
        probe: &'p [BoundExpr],
    ) -> HashJoin<'p> {
        HashJoin {
            build_rows,
            build_cols,
            probe,
            table: None,
            out_count: 0,
        }
    }

    /// Join `rows` probe rows with the build side. Row `i`'s key is read
    /// one value at a time through `probe_value(i, k)`, in expression
    /// order: a NULL skips the row before any later key is read, a NaN is
    /// an error. `left(i)` yields the left row only when it matches, so a
    /// columnar caller boxes matching rows only.
    pub(crate) fn emit<L: Borrow<Row>>(
        &mut self,
        rows: usize,
        mut probe_value: impl FnMut(usize, usize) -> FedResult<Value>,
        mut left: impl FnMut(usize) -> L,
    ) -> FedResult<Vec<Row>> {
        if rows == 0 || self.build_rows.is_empty() {
            return Ok(Vec::new());
        }
        let table = match &self.table {
            Some(t) => t,
            None => {
                let mut t: HashMap<Vec<ValueKey>, Vec<usize>> = HashMap::new();
                for (i, row) in self.build_rows.iter().enumerate() {
                    if let Some(key) = build_key(row, &self.build_cols)? {
                        t.entry(key).or_default().push(i);
                    }
                }
                self.table.insert(t)
            }
        };
        let mut out = Vec::new();
        'rows: for i in 0..rows {
            let mut key = Vec::with_capacity(self.probe.len());
            for k in 0..self.probe.len() {
                match join_key_checked(&probe_value(i, k)?)? {
                    Some(v) => key.push(v),
                    None => continue 'rows,
                }
            }
            if let Some(matches) = table.get(&key) {
                let left = left(i);
                for &b in matches {
                    out.push(left.borrow().concat(&self.build_rows[b]));
                }
            }
        }
        self.out_count += out.len();
        Ok(out)
    }
}

/// Index nested-loop join: each distinct probe key is looked up once in
/// the build table through its index, and the matching rows are cached for
/// the rest of the statement. The row and column kernels share
/// [`IndexProbe::emit`].
pub(crate) struct IndexProbe<'p> {
    pub(crate) table: &'p Ident,
    /// The step's storage predicate, bound for this execution.
    pushdown: Cow<'p, Predicate>,
    projection: Option<&'p [usize]>,
    build_col: usize,
    pub(crate) probe: &'p BoundExpr,
    cache: HashMap<ValueKey, Vec<Row>>,
    scanned_total: u64,
    out_count: usize,
}

impl<'p> IndexProbe<'p> {
    pub(crate) fn new(
        table: &'p Ident,
        pushdown: Cow<'p, Predicate>,
        projection: Option<&'p [usize]>,
        build_col: usize,
        probe: &'p BoundExpr,
    ) -> IndexProbe<'p> {
        IndexProbe {
            table,
            pushdown,
            projection,
            build_col,
            probe,
            cache: HashMap::new(),
            scanned_total: 0,
            out_count: 0,
        }
    }

    /// Build rows joining probe value `v`: none for a NULL key, otherwise
    /// the cached result of one `scan_project` of `build_col = v AND
    /// pushdown`. The equality leads, so the store binds it to the index.
    pub(crate) fn matches(
        &mut self,
        fdbs: &Fdbs,
        v: Value,
        meter: &mut Meter,
    ) -> FedResult<&[Row]> {
        let Some(key) = join_key_checked(&v)? else {
            return Ok(&[]);
        };
        match self.cache.entry(key) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let t = fdbs.catalog().local().scan_project(
                    self.table.as_str(),
                    &Predicate::eq(self.build_col, v).and(self.pushdown.as_ref().clone()),
                    self.projection,
                )?;
                self.scanned_total += t.row_count() as u64;
                let rows = t.into_rows();
                tally_rows(meter, &rows);
                Ok(e.insert(rows))
            }
        }
    }

    /// Join `rows` probe rows through the index: row `i`'s probe value is
    /// `probe_value(i)`, and `left(i)` yields the left row only when it
    /// matches, so a columnar caller boxes matching rows only.
    pub(crate) fn emit<L: Borrow<Row>>(
        &mut self,
        fdbs: &Fdbs,
        rows: usize,
        mut probe_value: impl FnMut(usize) -> FedResult<Value>,
        mut left: impl FnMut(usize) -> L,
        meter: &mut Meter,
    ) -> FedResult<Vec<Row>> {
        let mut out = Vec::new();
        for i in 0..rows {
            let matches = self.matches(fdbs, probe_value(i)?, meter)?;
            if !matches.is_empty() {
                let left = left(i);
                for r in matches {
                    out.push(left.borrow().concat(r));
                }
            }
        }
        self.out_count += out.len();
        Ok(out)
    }
}

impl Op<'_> {
    pub(crate) fn push(
        &mut self,
        fdbs: &Fdbs,
        batch: Vec<Row>,
        params: &[Value],
        meter: &mut Meter,
    ) -> FedResult<Vec<Row>> {
        match self {
            Op::HashJoin(j) => {
                let probe = j.probe;
                j.emit(
                    batch.len(),
                    |i, k| probe[k].eval(batch[i].values(), params),
                    |i| &batch[i],
                )
            }
            Op::IndexProbe(p) => {
                let probe = p.probe;
                p.emit(
                    fdbs,
                    batch.len(),
                    |i| probe.eval(batch[i].values(), params),
                    |i| &batch[i],
                    meter,
                )
            }
            Op::Cross {
                right, prefix_rows, ..
            } => {
                *prefix_rows += batch.len();
                Ok(cross(batch, right))
            }
            Op::DependentUdtf {
                udtf,
                args,
                projection,
                memo_on,
                memo,
            } => {
                let mut out = Vec::new();
                for row in &batch {
                    let arg_values: Vec<Value> = args
                        .iter()
                        .map(|a| a.eval(row.values(), params))
                        .collect::<FedResult<_>>()?;
                    let fresh;
                    let result: &[Row] = if *memo_on {
                        let key: Vec<(Option<DataType>, ValueKey)> = arg_values
                            .iter()
                            .map(|v| (v.data_type(), v.group_key()))
                            .collect();
                        match memo.entry(key) {
                            Entry::Occupied(e) => e.into_mut(),
                            Entry::Vacant(e) => {
                                let t = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
                                let rows = pruned_rows(&t, *projection);
                                tally_rows(meter, &rows);
                                e.insert(rows)
                            }
                        }
                    } else {
                        let t = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
                        fresh = pruned_rows(&t, *projection);
                        tally_rows(meter, &fresh);
                        &fresh
                    };
                    for rrow in result {
                        out.push(row.concat(rrow));
                    }
                }
                Ok(out)
            }
            Op::Filter { filter } => {
                let predicate_eval = fdbs.cost().predicate_eval;
                filter_rows(batch, filter, params, meter, predicate_eval)
            }
        }
    }

    /// Book the deferred composition charges, one record each.
    pub(crate) fn finish(&self, cost: &CostModel, meter: &mut Meter) {
        match self {
            Op::HashJoin(j) => charge_join(meter, cost, j.build_rows.len() + j.out_count),
            Op::IndexProbe(p) => {
                meter.charge(
                    Component::Fdbs,
                    "Scan local table",
                    cost.predicate_eval * p.scanned_total,
                );
                charge_join(meter, cost, p.out_count);
            }
            Op::Cross {
                right,
                charge_select,
                prefix_rows,
            } => {
                if *charge_select {
                    charge_join(meter, cost, *prefix_rows * right.len());
                }
            }
            Op::DependentUdtf { .. } | Op::Filter { .. } => {}
        }
    }
}

/// Where streaming batches end up: an incremental aggregation, a sort
/// buffer (pipeline breaker), or the streaming projection with inline
/// DISTINCT and LIMIT early-exit.
pub(crate) enum Sink<'p> {
    Aggregate(Aggregator<'p>),
    Sort(Vec<Row>),
    Project {
        out: Table,
        seen: Option<HashSet<Vec<ValueKey>>>,
    },
}

/// Feed one batch to the sink. Returns `true` when the sink is satisfied
/// (LIMIT reached) and pulling should stop.
pub(crate) fn sink_push(
    sink: &mut Sink<'_>,
    plan: &Plan,
    batch: Vec<Row>,
    params: &[Value],
    meter: &mut Meter,
    cost: &CostModel,
) -> FedResult<bool> {
    match sink {
        Sink::Aggregate(agg) => {
            for row in &batch {
                agg.push(row, params, meter)?;
            }
            Ok(false)
        }
        Sink::Sort(rows) => {
            // ORDER BY is a pipeline breaker: the buffer is a
            // materialization point.
            tally_rows(meter, &batch);
            rows.extend(batch);
            Ok(false)
        }
        Sink::Project { out, seen } => {
            if plan.limit.is_some_and(|l| out.row_count() as u64 >= l) {
                return Ok(true);
            }
            for row in &batch {
                let values: Vec<Value> = plan
                    .projection
                    .iter()
                    .map(|(e, _)| e.eval(row.values(), params))
                    .collect::<FedResult<_>>()?;
                meter.charge(Component::Fdbs, "Produce result rows", cost.row_output);
                let keep = match seen {
                    Some(s) => s.insert(values.iter().map(Value::group_key).collect()),
                    None => true,
                };
                if keep {
                    out.push_unchecked(Row::new(values));
                    if plan.limit.is_some_and(|l| out.row_count() as u64 >= l) {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
    }
}

/// Invoke a UDTF: book its architecture charges, bind arguments, run the
/// body (recursing into the engine for SQL-bodied functions), and map the
/// result to the declared return schema.
pub fn invoke_udtf(
    fdbs: &Fdbs,
    udtf: &Udtf,
    args: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    if !meter.tracing() {
        return invoke_udtf_inner(fdbs, udtf, args, meter);
    }
    meter.span_start(Component::Udtf, fdbs.udtf_span_name(udtf));
    let result = invoke_udtf_inner(fdbs, udtf, args, meter);
    if let Ok(table) = &result {
        meter.span_counter("rows", table.row_count() as u64);
    }
    meter.span_end();
    result
}

fn invoke_udtf_inner(
    fdbs: &Fdbs,
    udtf: &Udtf,
    args: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    udtf.charges.book_start(meter);

    if args.len() != udtf.params.len() {
        return Err(FedError::execution(format!(
            "function {} expects {} arguments, got {}",
            udtf.name,
            udtf.params.len(),
            args.len()
        )));
    }
    let bound: Vec<Value> = args
        .iter()
        .zip(&udtf.params)
        .map(|(v, (pname, ptype))| {
            implicit_cast(v, *ptype)
                .map_err(|e| FedError::execution(format!("argument {pname} of {}: {e}", udtf.name)))
        })
        .collect::<FedResult<_>>()?;

    let raw = match &udtf.kind {
        UdtfKind::Native(body) => {
            body(&bound, meter).context(format!("invoking table function {}", udtf.name))?
        }
        UdtfKind::Sql(body) => fdbs
            .execute_function_body(udtf, body, &bound, meter)
            .context(format!("invoking SQL table function {}", udtf.name))?,
    };

    // Positional mapping onto the declared return schema (the SQL body's
    // column names need not match the declared names, as in DB2).
    if raw.schema().len() != udtf.returns.len() {
        return Err(FedError::execution(format!(
            "function {} returned {} columns but declares {}",
            udtf.name,
            raw.schema().len(),
            udtf.returns.len()
        )));
    }
    let mut mapped = Table::new(udtf.returns.clone());
    for row in raw.rows() {
        let values: Vec<Value> = row
            .values()
            .iter()
            .zip(udtf.returns.columns())
            .map(|(v, col)| {
                implicit_cast(v, col.data_type).map_err(|e| {
                    FedError::execution(format!(
                        "function {} result column {}: {e}",
                        udtf.name, col.name
                    ))
                })
            })
            .collect::<FedResult<_>>()?;
        mapped.push_unchecked(Row::new(values));
    }

    udtf.charges.book_finish(meter);
    Ok(mapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggColumn, AggFn, AggregatePlan};
    use fedwf_sim::CostModel;
    use fedwf_types::{Column, Ident, Schema};
    use std::sync::Arc;

    /// Aggregate `rows` with hashed (streaming) or linear (oracle) group
    /// lookup.
    fn aggregate_rows(
        plan: &Plan,
        agg: &AggregatePlan,
        rows: &[Row],
        hashed: bool,
    ) -> FedResult<Table> {
        let mut meter = Meter::new();
        let mut a = Aggregator::new(plan, agg, &CostModel::zero(), hashed);
        for row in rows {
            a.push(row, &[], &mut meter)?;
        }
        a.finish(&mut meter)
    }

    #[test]
    fn coerce_agg_rejects_lossy_results() {
        assert_eq!(
            coerce_agg(Value::Int(5), DataType::BigInt).unwrap(),
            Value::BigInt(5)
        );
        assert!(coerce_agg(Value::Double(2.5), DataType::Int).is_err());
        assert!(coerce_agg(Value::Null, DataType::Int).unwrap().is_null());
    }

    #[test]
    fn build_positions_translates_into_pruned_layout() {
        assert_eq!(build_positions(&[3], None).unwrap(), vec![3]);
        assert_eq!(build_positions(&[3], Some(&[1, 3, 5])).unwrap(), vec![1]);
        assert!(build_positions(&[2], Some(&[1, 3, 5])).is_err());
    }

    /// A DOUBLE aggregate flowing into a column declared INT must fail
    /// loudly, not be pushed unchecked into the mistyped table.
    #[test]
    fn double_aggregate_into_int_column_fails_loudly() {
        let agg = AggregatePlan {
            keys: vec![],
            columns: vec![(
                AggColumn::Agg {
                    f: AggFn::Max,
                    arg: Some(BoundExpr::Literal(Value::Double(2.5))),
                },
                Ident::new("m"),
            )],
        };
        let plan = Plan {
            steps: vec![],
            step_projections: vec![],
            step_access: vec![],
            step_estimates: vec![],
            step_filters: vec![],
            step_join_keys: vec![],
            projection: vec![],
            aggregate: Some(agg.clone()),
            distinct: false,
            order_by: vec![],
            limit: None,
            params: vec![],
            out_schema: Arc::new(Schema::new(vec![Column::new(
                Ident::new("m"),
                DataType::Int,
            )])),
        };
        for hashed in [true, false] {
            let err = aggregate_rows(&plan, &agg, &[Row::empty()], hashed).unwrap_err();
            assert!(
                err.to_string().contains("does not fit"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn integer_sum_overflow_is_an_error() {
        let agg = AggregatePlan {
            keys: vec![],
            columns: vec![(
                AggColumn::Agg {
                    f: AggFn::Sum,
                    arg: Some(BoundExpr::Column {
                        index: 0,
                        data_type: DataType::BigInt,
                    }),
                },
                Ident::new("s"),
            )],
        };
        let plan = Plan {
            steps: vec![],
            step_projections: vec![],
            step_access: vec![],
            step_estimates: vec![],
            step_filters: vec![],
            step_join_keys: vec![],
            projection: vec![],
            aggregate: Some(agg.clone()),
            distinct: false,
            order_by: vec![],
            limit: None,
            params: vec![],
            out_schema: Arc::new(Schema::new(vec![Column::new(
                Ident::new("s"),
                DataType::BigInt,
            )])),
        };
        let rows = vec![
            Row::new(vec![Value::BigInt(i64::MAX)]),
            Row::new(vec![Value::BigInt(1)]),
        ];
        for hashed in [true, false] {
            let err = aggregate_rows(&plan, &agg, &rows, hashed).unwrap_err();
            assert!(err.to_string().contains("SUM overflow"), "{err}");
        }
    }
}
