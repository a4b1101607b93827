//! The streaming executor: typed column batches end to end.
//!
//! This is [`crate::exec::ExecMode::Streaming`], the one production
//! executor. The source pulls column vectors straight out of relstore's
//! version chains (bounded chunks, snapshot epoch pinned at the first
//! pull; a point lookup comes back as its one row). Every scan, the
//! source's, a build side's, an index probe's or a foreign one, runs under
//! its step's storage predicate bound for this execution, host variables
//! included ([`Plan::scan_predicate`]).
//! Residual filters evaluate predicates into selection vectors
//! ([`crate::vexpr`]), hash-join and index probes hash join keys over
//! column slices, and the sinks aggregate/project over typed vectors.
//! Rows materialize only where they must: at pipeline breakers (build
//! sides, sort buffers, UDTF compositions) and at the client boundary.
//! A traced execution emits one leaf span per pipeline stage (source,
//! each operator, sink) whose byte actuals count column-vector bytes
//! (validity words included) where a columnar batch flowed.
//!
//! Parity contract with the row kernels in `exec.rs` ([`Op::push`],
//! [`sink_push`]), which run every batch that is already rows and every
//! batch a columnar kernel gives up on:
//!
//! * **Results**: identical rows in identical order. Shared scalar kernels
//!   plus the fallback rule below make this hold bit-for-bit, NaN and NULL
//!   included.
//! * **Charges**: identical virtual-time totals. Per-row charges are
//!   booked per batch (`amount × rows`), deferred charges use
//!   [`Op::finish`]'s formulas.
//! * **Errors**: any vectorized kernel error demotes that batch to the
//!   row kernel, whose outcome — including *which* error surfaces first —
//!   is authoritative. Vectorized kernels evaluate eagerly and must never
//!   surface an error the lazy row kernel would not raise.
//!
//! Most of the contract holds by construction, because both kernels run
//! one copy of each mechanism and differ only in where a value comes from
//! (a column vector or a boxed row): [`HashJoin::emit`] builds the hash
//! table and runs the join's emit loop, [`IndexProbe::emit`] the index
//! probe's, and one group lookup serves [`Aggregator::push`] and
//! [`Aggregator::push_evaled`]. A sink whose column kernel fails hands the
//! batch's rows to [`sink_push`] rather than repeating it.
//!
//! Against the [`crate::exec::ExecMode::Naive`] oracle the contract is the
//! one `tests/exec_equivalence.rs` checks: the same row multiset for every
//! query (the same rows in the same order where both scan one table in
//! slot order), and the same multiset of non-FDBS charges with the UDTF
//! memo off.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use fedwf_relstore::{Predicate, RowId, ScanChunk};
use fedwf_sim::{Component, CostModel, Meter, SpanName, TraceNode};
use fedwf_types::{ColumnBatch, FedResult, Ident, ResultExt, Row, Table, TxnId, Value};

use crate::engine::Fdbs;
use crate::exec::{
    build_positions, finish_aggregate, invoke_udtf, pruned_rows, scalar_tail, sink_push,
    tally_rows, Aggregator, ExecMode, HashJoin, IndexProbe, Op, Sink, STREAM_BATCH_ROWS,
};
use crate::expr::BoundExpr;
use crate::plan::{Access, AggColumn, FromStep, Plan};
use crate::vexpr::{eval_filter_mask, eval_vcol, VCol};

/// A streaming batch: columnar while it can be, rows once an operator
/// had to materialize (join output, UDTF composition, fallback).
///
/// A columnar batch optionally carries a *selection vector*: sorted row
/// indices that survived a filter. The filter itself never copies column
/// data — downstream consumers either read through the selection (the
/// project sink) or gather once on entry (joins, aggregates, fallbacks).
pub(crate) enum VBatch {
    Cols(ColumnBatch, Option<Vec<u32>>),
    Rows(Vec<Row>),
}

impl VBatch {
    fn len(&self) -> usize {
        match self {
            VBatch::Cols(b, sel) => sel.as_ref().map_or(b.len(), Vec::len),
            VBatch::Rows(r) => r.len(),
        }
    }

    /// Bytes for the observability counters: column-vector bytes
    /// (validity included) for columnar batches — the selected subset
    /// when a selection vector is attached — boxed-row bytes once rows
    /// exist.
    fn approx_bytes(&self) -> u64 {
        match self {
            VBatch::Cols(b, None) => b.approx_bytes() as u64,
            VBatch::Cols(b, Some(sel)) => b.approx_bytes_selected(sel) as u64,
            VBatch::Rows(r) => r.iter().map(Row::approx_bytes).sum::<usize>() as u64,
        }
    }
}

/// Collapse a selection vector into a dense batch (a real gather); a
/// batch without one passes through untouched.
fn materialize(b: ColumnBatch, sel: Option<Vec<u32>>) -> ColumnBatch {
    match sel {
        Some(sel) => b.gather(&sel),
        None => b,
    }
}

/// Boxed rows for the selected subset — the row-path handoff used by
/// fallbacks and pipeline breakers that store rows.
fn selected_rows(b: &ColumnBatch, sel: Option<&[u32]>) -> Vec<Row> {
    match sel {
        Some(sel) => sel.iter().map(|&i| b.row(i as usize)).collect(),
        None => b.to_rows(),
    }
}

/// Record a columnar batch on the meter's materialization counters —
/// the columnar counterpart of [`tally_rows`].
pub(crate) fn tally_batch(meter: &mut Meter, batch: &ColumnBatch) {
    meter.tally_materialized(batch.len() as u64, batch.approx_bytes() as u64);
}

/// Where batches come from: a bounded cursor over the leading local scan
/// when it has no join key, or the single seed row otherwise (operators
/// then cover every step including the first). The cursor streams column
/// chunks; a pull that can match at most one row (a point lookup) comes
/// back as that row, which the row kernels take as it is.
enum VSource<'p> {
    Rows(Option<Vec<Row>>),
    Chunked {
        table: &'p Ident,
        /// The step's storage predicate, bound for this execution.
        pushdown: Cow<'p, Predicate>,
        projection: Option<&'p [usize]>,
        next: Option<RowId>,
        started: bool,
        matched: u64,
        /// Snapshot epoch pinned at the first pull: every later chunk reads
        /// the same committed state even while writers commit in between.
        epoch: Option<TxnId>,
    },
}

impl VSource<'_> {
    fn next_batch(&mut self, fdbs: &Fdbs) -> FedResult<Option<VBatch>> {
        match self {
            VSource::Rows(batch) => Ok(batch.take().map(VBatch::Rows)),
            VSource::Chunked {
                table,
                pushdown,
                projection,
                next,
                started,
                matched,
                epoch,
            } => {
                if *started && next.is_none() {
                    return Ok(None);
                }
                let local = fdbs.catalog().local();
                let pinned = *epoch.get_or_insert_with(|| local.snapshot_epoch());
                let start = next.unwrap_or(0);
                let (chunk, cont) = local.scan_chunk_columnar(
                    table.as_str(),
                    pushdown,
                    *projection,
                    start,
                    STREAM_BATCH_ROWS,
                    pinned,
                )?;
                *started = true;
                *next = cont;
                *matched += chunk.len() as u64;
                Ok(Some(match chunk {
                    ScanChunk::Rows(rows) => VBatch::Rows(rows.into_rows()),
                    ScanChunk::Cols(batch) => VBatch::Cols(batch, None),
                }))
            }
        }
    }

    /// Book the deferred scan charge — one record for the whole scan, the
    /// same total a single full scan books.
    fn finish(&self, cost: &CostModel, meter: &mut Meter) {
        if let VSource::Chunked { matched, .. } = self {
            meter.charge(
                Component::Fdbs,
                "Scan local table",
                cost.predicate_eval * matched,
            );
        }
    }
}

/// Build the streaming operator for lateral step `i`, doing its eager
/// (pipeline-breaking) work up front. Local and foreign build sides cross
/// the storage / SQL-MED boundary as column batches (tallied in column
/// bytes) and become rows only because they *are* pipeline-breaker state;
/// an independent UDTF is invoked once here, even over an empty prefix.
/// Every scan runs under the step's predicate bound for this execution
/// ([`Plan::scan_predicate`]).
fn prepare_step_op<'p>(
    fdbs: &Fdbs,
    plan: &'p Plan,
    i: usize,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Op<'p>> {
    let cost = fdbs.cost();
    let jk = plan.step_join_keys[i].as_ref();
    let proj = plan.step_projections.get(i).and_then(|p| p.as_deref());
    let right = match &plan.steps[i] {
        FromStep::ScanLocal { table, schema, .. } => {
            let pushdown = plan.scan_predicate(i, params)?;
            if let Some(jk) = jk {
                // The planner's `Access::Hash` forces the hash join; the
                // other choices re-check indexability now (an index may
                // have been dropped since planning), so a stale choice
                // degrades to the hash join instead of failing.
                let access = plan.step_access.get(i).copied().unwrap_or_default();
                if access != Access::Hash && jk.indexable(fdbs.catalog(), table, schema)? {
                    return Ok(Op::IndexProbe(IndexProbe::new(
                        table,
                        pushdown,
                        proj,
                        jk.build[0],
                        &jk.probe[0],
                    )));
                }
            }
            let batch =
                fdbs.catalog()
                    .local()
                    .scan_project_columnar(table.as_str(), &pushdown, proj)?;
            meter.charge(
                Component::Fdbs,
                "Scan local table",
                cost.predicate_eval * batch.len() as u64,
            );
            tally_batch(meter, &batch);
            batch.to_rows()
        }
        FromStep::ScanForeign {
            server,
            remote_name,
            ..
        } => {
            // The SQL/MED boundary ships columns: one typed batch comes
            // back from the wrapper, not boxed rows.
            let pushdown = plan.scan_predicate(i, params)?;
            let batch = server.scan_project_columnar(remote_name, &pushdown, proj)?;
            meter.charge(
                Component::Fdbs,
                format!("Subquery to SQL source {}", server.name()),
                cost.rmi_call + cost.rmi_return,
            );
            tally_batch(meter, &batch);
            batch.to_rows()
        }
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
            let rows = pruned_rows(&result, proj);
            tally_rows(meter, &rows);
            rows
        }
        FromStep::TableFunc { udtf, args, .. } => {
            return Ok(Op::DependentUdtf {
                udtf,
                args,
                projection: proj,
                memo_on: fdbs.options().udtf_memo,
                memo: HashMap::new(),
            });
        }
    };
    Ok(match jk {
        Some(jk) => Op::HashJoin(HashJoin::new(
            right,
            build_positions(&jk.build, proj)?,
            &jk.probe,
        )),
        // An independent UDTF composed after the first step books the
        // paper's join-with-selection.
        None => Op::Cross {
            right,
            charge_select: i > 0 && matches!(plan.steps[i], FromStep::TableFunc { .. }),
            prefix_rows: 0,
        },
    })
}

/// What a vectorized operator arm decided for a columnar batch.
enum Planned {
    Done(VBatch),
    /// The kernel could not handle the batch (expression error, operator
    /// with no columnar form): re-run it through the row kernel.
    Fallback,
}

/// Push one batch through one operator. Columnar batches take the
/// vectorized arms; row batches and fallbacks use [`Op::push`] verbatim.
fn vop_push(
    fdbs: &Fdbs,
    op: &mut Op<'_>,
    batch: VBatch,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<VBatch> {
    let b = match batch {
        VBatch::Rows(rows) => return op.push(fdbs, rows, params, meter).map(VBatch::Rows),
        // Operators consume dense batches: a selection left over from an
        // upstream filter is gathered once here (rare — only stacked
        // filters or a filter feeding a join see one).
        VBatch::Cols(b, sel) => materialize(b, sel),
    };
    let planned = match op {
        Op::Filter { filter } => match eval_filter_mask(filter, &b, params) {
            Ok(sel) => {
                // One record for the whole batch: same total as the row
                // path's per-row "Evaluate predicates" charges.
                meter.charge(
                    Component::Fdbs,
                    "Evaluate predicates",
                    fdbs.cost().predicate_eval * b.len() as u64,
                );
                // No gather: the surviving rows ride along as a selection
                // vector for the consumer to read through.
                let sel = (sel.len() != b.len()).then_some(sel);
                Planned::Done(VBatch::Cols(b.clone(), sel))
            }
            // The row kernel re-evaluates from scratch: charges, partial
            // output, and the authoritative error all come from it.
            Err(_) => Planned::Fallback,
        },
        Op::HashJoin(j) => match j
            .probe
            .iter()
            .map(|p| eval_vcol(p, &b, params))
            .collect::<FedResult<Vec<VCol>>>()
        {
            Err(_) => Planned::Fallback,
            Ok(pcols) => Planned::Done(VBatch::Rows(j.emit(
                b.len(),
                |i, k| Ok(pcols[k].value_at(i)),
                |i| b.row(i),
            )?)),
        },
        Op::IndexProbe(p) => match eval_vcol(p.probe, &b, params) {
            Err(_) => Planned::Fallback,
            Ok(pc) => Planned::Done(VBatch::Rows(p.emit(
                fdbs,
                b.len(),
                |i| Ok(pc.value_at(i)),
                |i| b.row(i),
                meter,
            )?)),
        },
        // Cross products and dependent UDTFs compose whole rows by
        // nature; materialize and reuse the row operator.
        Op::Cross { .. } | Op::DependentUdtf { .. } => Planned::Fallback,
    };
    match planned {
        Planned::Done(v) => Ok(v),
        Planned::Fallback => op.push(fdbs, b.to_rows(), params, meter).map(VBatch::Rows),
    }
}

/// Feed one batch to the sink. Returns `true` when LIMIT is satisfied.
fn vsink_push(
    sink: &mut Sink<'_>,
    plan: &Plan,
    batch: VBatch,
    params: &[Value],
    meter: &mut Meter,
    cost: &CostModel,
) -> FedResult<bool> {
    let (b, sel) = match batch {
        VBatch::Rows(rows) => return sink_push(sink, plan, rows, params, meter, cost),
        VBatch::Cols(b, sel) => (b, sel),
    };
    // Whatever a column kernel leaves to the row sink, which books,
    // emits and fails exactly as it would for those rows.
    let fallback = match sink {
        // DISTINCT interleaves dedup with the LIMIT early-exit per row;
        // the row sink is the reference for that ordering.
        Sink::Project { seen: Some(_), .. } => selected_rows(&b, sel.as_deref()),
        Sink::Sort(rows) => {
            // The sort buffer is a materialization point; what crossed
            // into it was a column batch, so count column bytes (of the
            // selected subset, if a filter left a selection attached).
            meter.tally_materialized(
                sel.as_ref().map_or(b.len(), Vec::len) as u64,
                match &sel {
                    Some(s) => b.approx_bytes_selected(s) as u64,
                    None => b.approx_bytes() as u64,
                },
            );
            rows.extend(selected_rows(&b, sel.as_deref()));
            return Ok(false);
        }
        Sink::Aggregate(agg) => {
            // Aggregation walks every selected row anyway; collapse the
            // selection once so key/argument kernels see a dense batch.
            let b = materialize(b, sel);
            let ap = agg.agg_plan();
            let keys = ap
                .keys
                .iter()
                .map(|k| eval_vcol(k, &b, params))
                .collect::<FedResult<Vec<VCol>>>();
            let args = ap
                .columns
                .iter()
                .map(|(col, _)| match col {
                    AggColumn::Agg { arg: Some(arg), .. } => eval_vcol(arg, &b, params).map(Some),
                    _ => Ok(None),
                })
                .collect::<FedResult<Vec<Option<VCol>>>>();
            match (keys, args) {
                (Ok(kc), Ok(ac)) => {
                    agg.charge_batch(meter, b.len() as u64);
                    for i in 0..b.len() {
                        let keys: Vec<Value> = kc.iter().map(|c| c.value_at(i)).collect();
                        let args: Vec<Option<Value>> = ac
                            .iter()
                            .map(|c| c.as_ref().map(|c| c.value_at(i)))
                            .collect();
                        agg.push_evaled(keys, args);
                    }
                    return Ok(false);
                }
                // Key or argument evaluation failed somewhere in the
                // batch: the row kernel finds the first offending row and
                // charges/accumulates up to it.
                _ => b.to_rows(),
            }
        }
        Sink::Project { out, seen: None } => {
            if plan.limit.is_some_and(|l| out.row_count() as u64 >= l) {
                return Ok(true);
            }
            // Bare-column projections read *through* the selection vector:
            // the filter's survivors are never gathered at all. Computed
            // projections collapse the selection first so expressions are
            // only evaluated on surviving rows — exactly the rows the
            // row kernel would see.
            let bare = plan
                .projection
                .iter()
                .all(|(e, _)| matches!(e, BoundExpr::Column { .. }));
            let (b, sel) = if bare {
                (b, sel)
            } else {
                (materialize(b, sel), None)
            };
            // LIMIT early-exit at batch granularity: only the rows that
            // can still be emitted are projected at all.
            let avail = sel.as_ref().map_or(b.len(), Vec::len);
            let take = match plan.limit {
                Some(l) => avail.min((l - out.row_count() as u64) as usize),
                None => avail,
            };
            let eb = if bare { b.clone() } else { b.head(take) };
            match plan
                .projection
                .iter()
                .map(|(e, _)| eval_vcol(e, &eb, params))
                .collect::<FedResult<Vec<VCol>>>()
            {
                Ok(pcols) => {
                    meter.charge(
                        Component::Fdbs,
                        "Produce result rows",
                        cost.row_output * take as u64,
                    );
                    // Box each projected column for the selected rows in
                    // one typed pass, then zip the columns into rows —
                    // the per-value type/validity dispatch happens once
                    // per column instead of once per cell.
                    let sel_slice = sel.as_deref();
                    let mut emitted: Vec<std::vec::IntoIter<Value>> = pcols
                        .iter()
                        .map(|c| match c {
                            VCol::Const(v) => vec![v.clone(); take],
                            VCol::Col(c) => c.values_selected(eb.len(), sel_slice, take),
                        })
                        .map(Vec::into_iter)
                        .collect();
                    for _ in 0..take {
                        out.push_unchecked(Row::new(
                            emitted
                                .iter_mut()
                                .map(|it| it.next().expect("take values per column"))
                                .collect(),
                        ));
                    }
                    return Ok(plan.limit.is_some_and(|l| out.row_count() as u64 >= l));
                }
                Err(_) => selected_rows(&b, sel.as_deref()),
            }
        }
    };
    sink_push(sink, plan, fallback, params, meter, cost)
}

/// Per-operator actuals accumulated while tracing: active virtual time,
/// wall time, and the batches/rows/bytes the operator emitted. Rendered
/// as one leaf span per operator after the pipeline drains. The leaf's
/// `start..end` window is the pipeline start plus the *accumulated active*
/// virtual time (operators interleave batch-by-batch, so per-operator
/// wall-clock windows would overlap meaninglessly); its booked vector is
/// left empty — the charges themselves are already attributed to the
/// enclosing `fdbs.execute` span, so actuals never double-count.
struct StreamProbe {
    name: SpanName,
    virt_us: u64,
    wall_ns: u64,
    batches: u64,
    rows: u64,
    bytes: u64,
    /// Planner-estimated output rows, when the plan carries estimates.
    est: Option<u64>,
}

impl StreamProbe {
    fn new(name: impl Into<SpanName>) -> StreamProbe {
        StreamProbe {
            name: name.into(),
            virt_us: 0,
            wall_ns: 0,
            batches: 0,
            rows: 0,
            bytes: 0,
            est: None,
        }
    }

    /// Attach the planner's row estimate; `EXPLAIN ANALYZE` reads it back
    /// as the `est` counter beside the actual `rows`.
    fn with_est(mut self, est: Option<f64>) -> StreamProbe {
        self.est = est.map(|e| e.round().max(0.0) as u64);
        self
    }

    fn record_counts(&mut self, virt_us: u64, wall_ns: u64, rows: u64, bytes: u64) {
        self.virt_us += virt_us;
        self.wall_ns += wall_ns;
        self.batches += 1;
        self.rows += rows;
        self.bytes += bytes;
    }

    fn into_leaf(self, start_us: u64) -> TraceNode {
        let mut node = TraceNode::leaf(Component::Fdbs, self.name, start_us);
        node.end_us = start_us + self.virt_us;
        node.wall_ns = self.wall_ns;
        node.add_counter("batches", self.batches);
        node.add_counter("rows", self.rows);
        node.add_counter("bytes", self.bytes);
        if let Some(est) = self.est {
            node.add_counter("est", est);
        }
        node
    }
}

/// Planner row estimates for the streaming operator chain, parallel to the
/// `ops` vector the executor builds: each step contributes its
/// composed (`join_rows`) estimate, its residual filter (when present) the
/// post-filter `out_rows`. The chunked source covers step 0's scan itself,
/// so `start` skips it and only its filter op (if any) leads the chain.
fn op_estimates(plan: &Plan, chunk_step0: bool, start: usize) -> Vec<Option<f64>> {
    let est = |i: usize| plan.step_estimates.get(i);
    let mut out = Vec::new();
    if chunk_step0 && plan.step_filters[0].is_some() {
        out.push(est(0).map(|e| e.out_rows));
    }
    for i in start..plan.steps.len() {
        out.push(est(i).map(|e| e.join_rows));
        if plan.step_filters[i].is_some() {
            out.push(est(i).map(|e| e.out_rows));
        }
    }
    out
}

/// Probes for the whole pipeline: source, one per operator, sink.
struct StreamProbes {
    start_us: u64,
    source: StreamProbe,
    ops: Vec<StreamProbe>,
    sink: StreamProbe,
}

fn op_probe_name(op: &Op<'_>) -> SpanName {
    match op {
        Op::HashJoin(_) => SpanName::Static("hash-join"),
        Op::IndexProbe(p) => SpanName::from(format!("index-probe {}", p.table)),
        Op::Cross { .. } => SpanName::Static("cross"),
        Op::DependentUdtf { udtf, .. } => SpanName::from(format!("dependent-udtf {}", udtf.name)),
        Op::Filter { .. } => SpanName::Static("filter"),
    }
}

/// Start one probe measurement: a wall-clock mark (only when the trace has
/// wall sampling on — neither the untraced path nor an ordinary virtual
/// trace ever reads the OS clock here) and the current virtual time.
fn probe_mark(wall: bool, meter: &Meter) -> (Option<Instant>, u64) {
    (wall.then(Instant::now), meter.now_us())
}

fn elapsed_ns(mark: Option<Instant>) -> u64 {
    mark.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Run `plan` through the streaming pipeline: source, one operator per
/// lateral step (plus one per residual filter), sink. The engine's
/// `udtf_memo` option turns on the dependent-UDTF memo, keyed by argument
/// tuple within one step.
pub(crate) fn execute_vectorized(
    fdbs: &Fdbs,
    plan: &Plan,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    let cost = fdbs.cost();

    // Source: stream the leading local scan in bounded chunks when nothing
    // joins it back to the (empty) seed row; otherwise start from the seed
    // and let the operators cover every step.
    let chunk_step0 = matches!(plan.steps.first(), Some(FromStep::ScanLocal { .. }))
        && plan.step_join_keys.first().is_some_and(|jk| jk.is_none());
    let (mut source, start) = if chunk_step0 {
        let Some(FromStep::ScanLocal { table, .. }) = plan.steps.first() else {
            unreachable!("checked above");
        };
        let projection = plan.step_projections.first().and_then(|p| p.as_deref());
        (
            VSource::Chunked {
                table,
                pushdown: plan.scan_predicate(0, params).map_err(|e| {
                    e.with_context(format!("evaluating FROM item 1 ({:?})", plan.steps[0]))
                })?,
                projection,
                next: None,
                started: false,
                matched: 0,
                epoch: None,
            },
            1,
        )
    } else {
        (VSource::Rows(Some(vec![Row::empty()])), 0)
    };

    // Prepare the operator chain. Build sides, foreign result sets, and
    // independent UDTF results are produced (and their charges booked)
    // eagerly, even over an empty prefix.
    let mut ops: Vec<Op<'_>> = Vec::new();
    if chunk_step0 {
        if let Some(filter) = &plan.step_filters[0] {
            ops.push(Op::Filter { filter });
        }
    }
    for (i, step) in plan.steps.iter().enumerate().skip(start) {
        let op = prepare_step_op(fdbs, plan, i, params, meter)
            .map_err(|e| e.with_context(format!("evaluating FROM item {} ({step:?})", i + 1)))?;
        ops.push(op);
        if let Some(filter) = &plan.step_filters[i] {
            ops.push(Op::Filter { filter });
        }
    }

    let mut sink = if let Some(agg) = &plan.aggregate {
        Sink::Aggregate(Aggregator::new(plan, agg, cost, true))
    } else if !plan.order_by.is_empty() {
        Sink::Sort(Vec::new())
    } else {
        Sink::Project {
            out: Table::new(plan.out_schema.clone()),
            seen: plan.distinct.then(HashSet::new),
        }
    };

    let mut probes = meter.tracing().then(|| StreamProbes {
        start_us: meter.now_us(),
        source: StreamProbe::new(match &source {
            VSource::Chunked { table, .. } => SpanName::from(format!("scan {table}")),
            VSource::Rows(_) => SpanName::Static("seed"),
        })
        .with_est(match &source {
            VSource::Chunked { .. } => plan.step_estimates.first().map(|e| e.scan_rows),
            VSource::Rows(_) => None,
        }),
        ops: ops
            .iter()
            .zip(op_estimates(plan, chunk_step0, start))
            .map(|(op, est)| StreamProbe::new(op_probe_name(op)).with_est(est))
            .collect(),
        sink: StreamProbe::new(
            match &sink {
                Sink::Aggregate(_) => "aggregate",
                Sink::Sort(_) => "sort",
                Sink::Project { .. } => "project",
            }
            .to_string(),
        ),
    });
    let tracing = probes.is_some();
    let wall = tracing && meter.wall_sampling();

    // Pull batches until the source runs dry or LIMIT is satisfied. When
    // LIMIT stops the pull early, upstream work (and its Fdbs-side
    // charges) simply never happens.
    loop {
        let (w0, v0) = probe_mark(wall, meter);
        let Some(mut batch) = source.next_batch(fdbs)? else {
            break;
        };
        if let Some(p) = probes.as_mut() {
            p.source.record_counts(
                meter.now_us() - v0,
                elapsed_ns(w0),
                batch.len() as u64,
                batch.approx_bytes(),
            );
        }
        for (i, op) in ops.iter_mut().enumerate() {
            let (w0, v0) = probe_mark(wall, meter);
            batch = vop_push(fdbs, op, batch, params, meter)
                .context(format!("evaluating streaming operator {}", i + 1))?;
            if let Some(p) = probes.as_mut() {
                p.ops[i].record_counts(
                    meter.now_us() - v0,
                    elapsed_ns(w0),
                    batch.len() as u64,
                    batch.approx_bytes(),
                );
            }
        }
        let (w0, v0) = probe_mark(wall, meter);
        let in_counts = tracing.then(|| (batch.len() as u64, batch.approx_bytes()));
        let done = vsink_push(&mut sink, plan, batch, params, meter, cost)?;
        if let Some(p) = probes.as_mut() {
            let (rows, bytes) = in_counts.expect("tracing implies counts");
            p.sink
                .record_counts(meter.now_us() - v0, elapsed_ns(w0), rows, bytes);
        }
        if done {
            break;
        }
    }

    let v0 = meter.now_us();
    source.finish(cost, meter);
    if let Some(p) = probes.as_mut() {
        p.source.virt_us += meter.now_us() - v0;
    }
    for (i, op) in ops.iter().enumerate() {
        let v0 = meter.now_us();
        op.finish(cost, meter);
        if let Some(p) = probes.as_mut() {
            p.ops[i].virt_us += meter.now_us() - v0;
        }
    }

    // Emit one leaf span per pipeline stage, source to sink, under the
    // enclosing `fdbs.execute` span.
    if let Some(p) = probes.take() {
        let start = p.start_us;
        meter.span_leaf(p.source.into_leaf(start));
        for op_probe in p.ops {
            meter.span_leaf(op_probe.into_leaf(start));
        }
        meter.span_leaf(p.sink.into_leaf(start));
    }

    match sink {
        Sink::Aggregate(agg) => finish_aggregate(plan, agg.finish(meter)?, params),
        Sink::Sort(rows) => scalar_tail(fdbs, plan, rows, params, meter, ExecMode::Streaming),
        // Never past LIMIT: the column arm emits at most the rows still
        // missing, and the row sink stops as soon as the limit is reached.
        Sink::Project { out, .. } => Ok(out),
    }
}
