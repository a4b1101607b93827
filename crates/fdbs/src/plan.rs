//! Binder and planner: from AST to an executable lateral plan.
//!
//! The FROM clause compiles into a **left-to-right lateral chain**, exactly
//! DB2's processing model that the paper leans on: each step sees the
//! columns of every step to its *left* plus the enclosing function's
//! parameters (or the statement's host variables). A table function whose
//! arguments reference no lateral column is *independent* — when it is not
//! the first step, composing its result set with the prefix is the
//! "join with selection" whose cost distinguishes the UDTF architecture's
//! independent case from its sequential case.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

use fedwf_relstore::{CmpOp, Predicate};
use fedwf_sql::{BinaryOp, Expr, FromItem, SelectItem, SelectStmt, UnaryOp};
use fedwf_types::{
    Column, DataType, FedError, FedResult, Ident, QualifiedName, Schema, SchemaRef, Value,
};

use crate::catalog::{Catalog, TableOrigin};
use crate::expr::{BoundExpr, ScalarFn};
use crate::sqlmed::ForeignServer;
use crate::udtf::Udtf;

/// One step of the lateral FROM chain.
#[derive(Clone)]
pub enum FromStep {
    /// Scan of a local table with a pushed-down storage predicate.
    ScanLocal {
        table: Ident,
        alias: Ident,
        schema: SchemaRef,
        pushdown: Predicate,
        /// Pushed conjuncts that compare columns with host variables, ANDed
        /// in statement order, in the table's own column numbering. Each
        /// execution binds them with its values (`Plan::scan_predicate`).
        param_pushdown: Option<BoundExpr>,
    },
    /// Scan of a foreign table; the predicate is pushed to the server as a
    /// subquery.
    ScanForeign {
        server: Arc<dyn ForeignServer>,
        remote_name: String,
        /// The catalog-local registration name — how the optimizer looks up
        /// ANALYZE statistics for this foreign table.
        catalog_name: Ident,
        alias: Ident,
        schema: SchemaRef,
        pushdown: Predicate,
        /// As for [`FromStep::ScanLocal`]: bound per execution and shipped
        /// to the server with `pushdown`.
        param_pushdown: Option<BoundExpr>,
    },
    /// Lateral table-function call.
    TableFunc {
        udtf: Arc<Udtf>,
        alias: Ident,
        args: Vec<BoundExpr>,
        /// True when no argument references a lateral column — composing
        /// with the prefix is then a join-with-selection.
        independent: bool,
    },
}

impl std::fmt::Debug for FromStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FromStep::ScanLocal { table, alias, .. } => write!(f, "ScanLocal({table} AS {alias})"),
            FromStep::ScanForeign {
                server,
                remote_name,
                alias,
                ..
            } => write!(f, "ScanForeign({}/{remote_name} AS {alias})", server.name()),
            FromStep::TableFunc {
                udtf,
                alias,
                independent,
                ..
            } => write!(
                f,
                "TableFunc({} AS {alias}{})",
                udtf.name,
                if *independent { ", independent" } else { "" }
            ),
        }
    }
}

impl FromStep {
    pub fn alias(&self) -> &Ident {
        match self {
            FromStep::ScanLocal { alias, .. }
            | FromStep::ScanForeign { alias, .. }
            | FromStep::TableFunc { alias, .. } => alias,
        }
    }

    pub fn schema(&self) -> SchemaRef {
        match self {
            FromStep::ScanLocal { schema, .. } | FromStep::ScanForeign { schema, .. } => {
                schema.clone()
            }
            FromStep::TableFunc { udtf, .. } => udtf.returns.clone(),
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFn {
    pub fn resolve(name: &str) -> Option<AggFn> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFn::Count),
            "SUM" => Some(AggFn::Sum),
            "AVG" => Some(AggFn::Avg),
            "MIN" => Some(AggFn::Min),
            "MAX" => Some(AggFn::Max),
            _ => None,
        }
    }
}

/// One output column of an aggregate query.
#[derive(Debug, Clone)]
pub enum AggColumn {
    /// A grouping key (index into [`AggregatePlan::keys`]).
    Key(usize),
    /// An aggregate; `arg = None` is `COUNT(*)`.
    Agg { f: AggFn, arg: Option<BoundExpr> },
}

/// Grouping/aggregation stage appended after the lateral chain.
#[derive(Debug, Clone)]
pub struct AggregatePlan {
    pub keys: Vec<BoundExpr>,
    /// Output columns in projection order, with their names.
    pub columns: Vec<(AggColumn, Ident)>,
}

/// Equi-join conjuncts extracted at bind time for one lateral step: the
/// step's result rows join the prefix on `build[i] == probe[i]` for every
/// `i`. The executor uses them to build a hash table over the step's rows
/// instead of materializing the cross product.
#[derive(Debug, Clone)]
pub struct JoinKey {
    /// Probe-side expressions, evaluated against the prefix row layout plus
    /// parameters (they reference no column of the step itself).
    pub probe: Vec<BoundExpr>,
    /// Build-side column indexes, local to the step's own schema.
    pub build: Vec<usize>,
    /// The original conjuncts ANDed together, in prefix-layout indexes —
    /// what the naive oracle evaluates per composed row.
    pub residual: BoundExpr,
}

impl JoinKey {
    /// Whether index point lookups into local `table` (of `schema`) can
    /// serve this key: a single key, neither side DOUBLE (NaN would change
    /// the oracle's error semantics under the storage layer's silent 3VL
    /// comparison), and an index that serves `column = ?`. The planner's
    /// access choice and the executor's run-time re-check both ask this.
    pub(crate) fn indexable(
        &self,
        catalog: &Catalog,
        table: &Ident,
        schema: &SchemaRef,
    ) -> FedResult<bool> {
        Ok(self.build.len() == 1
            && schema.columns()[self.build[0]].data_type != DataType::Double
            && self.probe[0].data_type() != Some(DataType::Double)
            && catalog
                .local()
                .index_serves(table.as_str(), &Predicate::eq(self.build[0], Value::Null))?)
    }
}

/// How the executor composes one step with the prefix — chosen by the
/// cost-based optimizer, honored by the streaming executor (the oracle
/// always composes by cross product).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Access {
    /// The executor's own syntactic heuristic: index probe whenever the
    /// step is indexable, hash join otherwise.
    #[default]
    Auto,
    /// Force the hash path even when an index probe would be available.
    Hash,
    /// Prefer the index probe. The executor still double-checks
    /// indexability at run time and falls back to the hash join when the
    /// index cannot serve the key.
    IndexProbe,
}

/// Optimizer cardinality estimates for one step of the lateral chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEstimate {
    /// Rows the step itself produces after its pushdown (for a table
    /// function: the rows the estimator assumes per invocation).
    pub scan_rows: f64,
    /// Prefix rows after composing this step (join / cross / lateral).
    pub join_rows: f64,
    /// Prefix rows after this step's residual filter.
    pub out_rows: f64,
}

/// A bound, optimized, executable plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub steps: Vec<FromStep>,
    /// Residual filter applied right after step `i` completes (indexes into
    /// the concatenated prefix row layout).
    pub step_filters: Vec<Option<BoundExpr>>,
    /// Equi-join keys for step `i`, when its WHERE conjuncts contain
    /// hashable `prefix-expr = step-column` equalities.
    pub step_join_keys: Vec<Option<JoinKey>>,
    /// Projection pushed into step `i` by [`Plan::prune_projections`]:
    /// the step-local column indexes (sorted) the rest of the plan actually
    /// reads. `None` means the step's full schema is needed. When any step
    /// is pruned, every bound expression of the plan (filters, probe/residual
    /// expressions, projections, aggregate inputs, scalar sort keys, lateral
    /// function arguments) is rewritten into the pruned concatenated layout;
    /// only [`JoinKey::build`] and the storage pushdown predicates (literal
    /// and host-variable) keep the original table-local numbering, because
    /// storage and index probes evaluate them *before* projecting.
    pub step_projections: Vec<Option<Vec<usize>>>,
    /// Per-step access-path choice. Executors read entries defensively
    /// (`.get(i)`), so a hand-built plan with an empty vector behaves as
    /// all-[`Access::Auto`].
    pub step_access: Vec<Access>,
    /// Per-step cardinality estimates. May be empty for hand-built plans;
    /// `EXPLAIN` and the q-error report treat missing entries as "no
    /// estimate".
    pub step_estimates: Vec<StepEstimate>,
    pub projection: Vec<(BoundExpr, Ident)>,
    /// `GROUP BY`/aggregate stage; when present, `projection` is unused.
    pub aggregate: Option<AggregatePlan>,
    pub distinct: bool,
    /// Sort keys. In scalar plans the expressions index the concatenated
    /// prefix layout (sort happens before projection); in aggregate plans
    /// they are `Column` references into the *output* row layout (sort
    /// happens after aggregation).
    pub order_by: Vec<(BoundExpr, bool)>,
    pub limit: Option<u64>,
    /// Declared parameter slots, in evaluation order.
    pub params: Vec<(Ident, DataType)>,
    pub out_schema: SchemaRef,
}

impl Plan {
    /// The storage predicate scan step `i` runs under in one execution: its
    /// `pushdown`, ANDed with its host-variable conjuncts bound to this
    /// execution's `params`. Borrowed when the step has none, so a
    /// literal-only scan copies nothing; a bound value lives in the returned
    /// predicate only, never in the plan, which every execution of the
    /// statement shares through the plan cache.
    ///
    /// A NaN host variable is an execution error here, before any row is
    /// read: storage compares NaN as unknown and would silently match
    /// nothing, where the expression evaluator raises "cannot compare" on
    /// the first non-NULL value it compares with NaN (DESIGN §13 lists the
    /// statements that therefore fail where the evaluator returned rows).
    pub(crate) fn scan_predicate(
        &self,
        i: usize,
        params: &[Value],
    ) -> FedResult<Cow<'_, Predicate>> {
        let (FromStep::ScanLocal {
            pushdown,
            param_pushdown,
            ..
        }
        | FromStep::ScanForeign {
            pushdown,
            param_pushdown,
            ..
        }) = &self.steps[i]
        else {
            return Err(FedError::execution(format!(
                "FROM item {} is not a table scan",
                i + 1
            )));
        };
        let Some(conjuncts) = param_pushdown else {
            return Ok(Cow::Borrowed(pushdown));
        };
        let nan = Cell::new(None);
        let operand = |_: DataType, e: &BoundExpr| match e {
            BoundExpr::Literal(v) => Some(v.clone()),
            BoundExpr::Param { index, .. } => {
                let value = params.get(*index)?;
                if matches!(value, Value::Double(d) if d.is_nan()) {
                    nan.set(Some(*index));
                }
                Some(value.clone())
            }
            _ => None,
        };
        let bound = to_storage_predicate(conjuncts, 0, &operand);
        if let Some(index) = nan.get() {
            return Err(FedError::execution(format!(
                "cannot compare NaN: host variable {} is NaN",
                self.params[index].0
            )));
        }
        let bound = bound.ok_or_else(|| {
            FedError::execution(format!(
                "the host-variable predicate of FROM item {} does not bind",
                i + 1
            ))
        })?;
        Ok(Cow::Owned(match pushdown {
            Predicate::True => bound,
            literal => literal.clone().and(bound),
        }))
    }

    /// Push projections into the FROM steps: compute, per step, the set of
    /// columns the rest of the plan actually reads — output projection,
    /// aggregate keys and arguments, scalar ORDER BY inputs (sorting happens
    /// on the pre-projection layout), residual filters, join probe and
    /// residual expressions, hash-join build columns, and lateral function
    /// arguments — and rewrite every bound expression into the pruned
    /// concatenated layout. Scans then clone only the surviving columns.
    pub fn prune_projections(mut self) -> Plan {
        let widths: Vec<usize> = self.steps.iter().map(|s| s.schema().len()).collect();
        let offsets: Vec<usize> = widths
            .iter()
            .scan(0usize, |acc, w| {
                let o = *acc;
                *acc += w;
                Some(o)
            })
            .collect();
        let total: usize = widths.iter().sum();

        fn mark(needed: &mut [bool], e: &BoundExpr) {
            for c in e.column_indexes() {
                needed[c] = true;
            }
        }
        let mut needed = vec![false; total];
        for (e, _) in &self.projection {
            mark(&mut needed, e);
        }
        if let Some(agg) = &self.aggregate {
            for k in &agg.keys {
                mark(&mut needed, k);
            }
            for (col, _) in &agg.columns {
                if let AggColumn::Agg { arg: Some(a), .. } = col {
                    mark(&mut needed, a);
                }
            }
            // Aggregate ORDER BY indexes the *output* layout — not pruned.
        } else {
            for (e, _) in &self.order_by {
                mark(&mut needed, e);
            }
        }
        for f in self.step_filters.iter().flatten() {
            mark(&mut needed, f);
        }
        for (i, jk) in self.step_join_keys.iter().enumerate() {
            if let Some(jk) = jk {
                for p in &jk.probe {
                    mark(&mut needed, p);
                }
                mark(&mut needed, &jk.residual);
                for &b in &jk.build {
                    needed[offsets[i] + b] = true;
                }
            }
        }
        for step in &self.steps {
            if let FromStep::TableFunc { args, .. } = step {
                for a in args {
                    mark(&mut needed, a);
                }
            }
        }

        let mut step_projections: Vec<Option<Vec<usize>>> = Vec::with_capacity(self.steps.len());
        let mut any_pruned = false;
        for i in 0..self.steps.len() {
            let local: Vec<usize> = (0..widths[i]).filter(|&c| needed[offsets[i] + c]).collect();
            if local.len() == widths[i] {
                step_projections.push(None);
            } else {
                any_pruned = true;
                step_projections.push(Some(local));
            }
        }
        if !any_pruned {
            self.step_projections = step_projections;
            return self;
        }

        // New position of every surviving global column index.
        let mut remap = vec![usize::MAX; total];
        let mut next = 0usize;
        for i in 0..self.steps.len() {
            for c in 0..widths[i] {
                let keep = match &step_projections[i] {
                    None => true,
                    Some(proj) => proj.contains(&c),
                };
                if keep {
                    remap[offsets[i] + c] = next;
                    next += 1;
                }
            }
        }
        let remap_fn = |c: usize| remap[c];

        for (e, _) in self.projection.iter_mut() {
            *e = e.map_columns(&remap_fn);
        }
        if let Some(agg) = self.aggregate.as_mut() {
            for k in agg.keys.iter_mut() {
                *k = k.map_columns(&remap_fn);
            }
            for (col, _) in agg.columns.iter_mut() {
                if let AggColumn::Agg { arg: Some(a), .. } = col {
                    *a = a.map_columns(&remap_fn);
                }
            }
        } else {
            for (e, _) in self.order_by.iter_mut() {
                *e = e.map_columns(&remap_fn);
            }
        }
        for f in self.step_filters.iter_mut().flatten() {
            *f = f.map_columns(&remap_fn);
        }
        for jk in self.step_join_keys.iter_mut().flatten() {
            for p in jk.probe.iter_mut() {
                *p = p.map_columns(&remap_fn);
            }
            jk.residual = jk.residual.map_columns(&remap_fn);
        }
        for step in self.steps.iter_mut() {
            if let FromStep::TableFunc { args, .. } = step {
                for a in args.iter_mut() {
                    *a = a.map_columns(&remap_fn);
                }
            }
        }

        self.step_projections = step_projections;
        self
    }

    /// Render the plan as an indented text tree — the `EXPLAIN` output.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        if let Some(limit) = self.limit {
            out.push_str(&format!("Limit {limit}\n"));
        }
        if self.distinct {
            out.push_str("Distinct\n");
        }
        if !self.order_by.is_empty() {
            out.push_str(&format!(
                "Sort [{}]\n",
                self.order_by
                    .iter()
                    .map(|(e, asc)| format!("{e:?} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        match &self.aggregate {
            Some(agg) => out.push_str(&format!(
                "Aggregate [{} key(s); {}]\n",
                agg.keys.len(),
                agg.columns
                    .iter()
                    .map(|(_, name)| name.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
            None => out.push_str(&format!(
                "Project [{}]\n",
                self.projection
                    .iter()
                    .map(|(_, name)| name.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
        // Estimated rows for one step, or nothing when the plan carries no
        // estimates (hand-built plans). Part of the stable EXPLAIN grammar:
        // ` est=N` is always the final note on an operator line.
        let est_note = |i: usize, pick: fn(&StepEstimate) -> f64| -> String {
            match self.step_estimates.get(i) {
                Some(e) => format!(" est={:.0}", pick(e)),
                None => String::new(),
            }
        };
        for (i, step) in self.steps.iter().enumerate().rev() {
            let indent = "  ".repeat(self.steps.len() - i);
            if let Some(filter) = &self.step_filters[i] {
                out.push_str(&format!(
                    "{indent}Filter {filter:?}{}\n",
                    est_note(i, |e| e.out_rows)
                ));
            }
            if let Some(jk) = &self.step_join_keys[i] {
                out.push_str(&format!(
                    "{indent}HashJoin [{} key(s): {:?}]{}\n",
                    jk.build.len(),
                    jk.residual,
                    est_note(i, |e| e.join_rows)
                ));
            }
            // Cost-based access-path choice; `Auto` (the syntactic
            // heuristic) renders nothing, like `Predicate::True` pushdowns.
            let access_note = match self.step_access.get(i) {
                Some(Access::Hash) => " [access: hash]",
                Some(Access::IndexProbe) => " [access: index-probe]",
                _ => "",
            };
            // Pruned column list for the step, by name in the step's schema.
            let project_note = match self.step_projections.get(i).and_then(|p| p.as_ref()) {
                Some(proj) if proj.is_empty() => " [project: -]".to_string(),
                Some(proj) => {
                    let schema = step.schema();
                    format!(
                        " [project: {}]",
                        proj.iter()
                            .map(|&c| schema.columns()[c].name.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
                None => String::new(),
            };
            match step {
                FromStep::ScanLocal {
                    table,
                    alias,
                    pushdown,
                    param_pushdown,
                    schema,
                } => {
                    out.push_str(&format!("{indent}ScanLocal {table} AS {alias}"));
                    out.push_str(&self.pushdown_note(pushdown, param_pushdown.as_ref(), schema));
                    out.push_str(&project_note);
                    out.push_str(access_note);
                    out.push_str(&est_note(i, |e| e.scan_rows));
                    out.push('\n');
                }
                FromStep::ScanForeign {
                    server,
                    remote_name,
                    alias,
                    pushdown,
                    param_pushdown,
                    schema,
                    ..
                } => {
                    out.push_str(&format!(
                        "{indent}ScanForeign {}/{remote_name} AS {alias}",
                        server.name()
                    ));
                    out.push_str(&self.pushdown_note(pushdown, param_pushdown.as_ref(), schema));
                    out.push_str(&project_note);
                    out.push_str(access_note);
                    out.push_str(&est_note(i, |e| e.scan_rows));
                    out.push('\n');
                }
                FromStep::TableFunc {
                    udtf,
                    alias,
                    independent,
                    args,
                } => {
                    out.push_str(&format!(
                        "{indent}TableFunction {}({} arg{}) AS {alias}{}{project_note}{}\n",
                        udtf.name,
                        args.len(),
                        if args.len() == 1 { "" } else { "s" },
                        if *independent && i > 0 {
                            " [independent: join with selection]"
                        } else if *independent {
                            " [uncorrelated]"
                        } else {
                            " [lateral]"
                        },
                        est_note(i, |e| e.join_rows)
                    ));
                }
            }
        }
        out
    }

    /// A scan's ` [pushdown: …]` EXPLAIN note, empty when nothing is
    /// pushed: the literal storage predicate as today, then ` AND ` and the
    /// host-variable conjuncts as SQL text, with columns by name and each
    /// host variable as `:name`.
    fn pushdown_note(
        &self,
        pushdown: &Predicate,
        param_pushdown: Option<&BoundExpr>,
        schema: &Schema,
    ) -> String {
        let literal = (*pushdown != Predicate::True).then(|| format!("{pushdown:?}"));
        let bound = param_pushdown.map(|e| pushed_sql(e, schema, &self.params).to_string());
        match (literal, bound) {
            (None, None) => String::new(),
            (Some(l), None) => format!(" [pushdown: {l}]"),
            (None, Some(b)) => format!(" [pushdown: {b}]"),
            (Some(l), Some(b)) => format!(" [pushdown: {l} AND {b}]"),
        }
    }
}

/// A pushed host-variable conjunct as SQL, for EXPLAIN: columns by name in
/// the step's schema, parameter slots as `:name`.
fn pushed_sql(e: &BoundExpr, schema: &Schema, params: &[(Ident, DataType)]) -> Expr {
    let sql = |e: &BoundExpr| Box::new(pushed_sql(e, schema, params));
    match e {
        BoundExpr::Column { index, .. } => {
            Expr::Column(QualifiedName::bare(schema.columns()[*index].name.clone()))
        }
        BoundExpr::Param { index, .. } => Expr::bare(&format!(":{}", params[*index].0)),
        BoundExpr::Literal(v) => Expr::Literal(v.clone()),
        BoundExpr::Binary { left, op, right } => Expr::Binary {
            left: sql(left),
            op: *op,
            right: sql(right),
        },
        BoundExpr::Not(inner) => Expr::Unary {
            op: UnaryOp::Not,
            expr: sql(inner),
        },
        BoundExpr::IsNull { input, negated } => Expr::IsNull {
            expr: sql(input),
            negated: *negated,
        },
        // The converter pushes no other shape.
        other => Expr::bare(&format!("{other:?}")),
    }
}

/// The output of the binder before the optimizer runs: FROM steps in
/// syntactic order with no pushdowns applied, WHERE conjuncts bound against
/// the syntactic concatenated layout but not yet placed, and the bound
/// output stages. [`crate::optimizer::optimize`] turns this into an
/// executable [`Plan`] — placing conjuncts (pushdown / join-key extraction /
/// residual filters), optionally reordering steps, estimating cardinalities
/// and choosing access paths.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    pub steps: Vec<FromStep>,
    /// Bound WHERE conjuncts in statement order, over the syntactic
    /// concatenated layout.
    pub conjuncts: Vec<BoundExpr>,
    pub projection: Vec<(BoundExpr, Ident)>,
    pub aggregate: Option<AggregatePlan>,
    pub distinct: bool,
    pub order_by: Vec<(BoundExpr, bool)>,
    pub limit: Option<u64>,
    pub params: Vec<(Ident, DataType)>,
    pub out_schema: SchemaRef,
}

/// Binder for SELECT statements.
pub struct PlanBuilder<'a> {
    catalog: &'a Catalog,
    /// Enclosing `CREATE FUNCTION` name (parameter qualifier), if any.
    function_name: Option<Ident>,
    /// Parameter slots: function parameters or host variables.
    params: Vec<(Ident, DataType)>,
}

struct Scope {
    /// (alias, schema, column offset in the concatenated layout)
    entries: Vec<(Ident, SchemaRef, usize)>,
    width: usize,
}

impl Scope {
    fn new() -> Scope {
        Scope {
            entries: vec![],
            width: 0,
        }
    }

    fn push(&mut self, alias: Ident, schema: SchemaRef) -> FedResult<()> {
        if self.entries.iter().any(|(a, _, _)| a == &alias) {
            return Err(FedError::bind(format!(
                "duplicate correlation name {alias}"
            )));
        }
        let w = schema.len();
        self.entries.push((alias, schema, self.width));
        self.width += w;
        Ok(())
    }

    /// Resolve `alias.column` to (index, type).
    fn resolve_qualified(&self, alias: &Ident, column: &Ident) -> Option<(usize, DataType)> {
        let (_, schema, offset) = self.entries.iter().find(|(a, _, _)| a == alias)?;
        let idx = schema.index_of(column)?;
        Some((offset + idx, schema.columns()[idx].data_type))
    }

    /// Resolve a bare column name; Err on ambiguity, None when absent.
    fn resolve_bare(&self, column: &Ident) -> FedResult<Option<(usize, DataType)>> {
        let mut found = None;
        for (_, schema, offset) in &self.entries {
            if let Some(idx) = schema.index_of(column) {
                if found.is_some() {
                    return Err(FedError::bind(format!(
                        "ambiguous column reference {column}"
                    )));
                }
                found = Some((offset + idx, schema.columns()[idx].data_type));
            }
        }
        Ok(found)
    }
}

impl<'a> PlanBuilder<'a> {
    pub fn new(catalog: &'a Catalog) -> PlanBuilder<'a> {
        PlanBuilder {
            catalog,
            function_name: None,
            params: vec![],
        }
    }

    /// Bind inside a `CREATE FUNCTION` body: parameters are addressable as
    /// `FunctionName.Param` or bare.
    pub fn with_function_context(
        mut self,
        name: impl Into<Ident>,
        params: Vec<(Ident, DataType)>,
    ) -> Self {
        self.function_name = Some(name.into());
        self.params = params;
        self
    }

    /// Bind a top-level statement with host variables (the application
    /// variables of embedded SQL, e.g. `SupplierNo` in the paper's simple
    /// UDTF statement).
    pub fn with_host_params(mut self, params: Vec<(Ident, DataType)>) -> Self {
        self.params = params;
        self
    }

    /// Bind a standalone value expression (INSERT/UPDATE literals): no
    /// columns in scope, only constants, parameters and scalar functions.
    pub fn bind_value_expr(&self, expr: &Expr) -> FedResult<BoundExpr> {
        Ok(fold(self.bind_expr(expr, &Scope::new())?))
    }

    /// Bind and optimize with the syntactic planner — today's plans,
    /// byte-for-byte. Callers that want cost-based planning go through
    /// [`PlanBuilder::bind_logical`] + [`crate::optimizer::optimize`].
    pub fn bind(&self, stmt: &SelectStmt) -> FedResult<Plan> {
        let logical = self.bind_logical(stmt)?;
        crate::optimizer::optimize(
            self.catalog,
            logical,
            crate::optimizer::PlannerMode::Syntactic,
        )
    }

    /// Bind a SELECT into a [`LogicalPlan`]: resolve names, bind and fold
    /// every expression, detect lateral (in)dependence — but place no
    /// conjunct and choose no access path. That is the optimizer's job.
    pub fn bind_logical(&self, stmt: &SelectStmt) -> FedResult<LogicalPlan> {
        let mut scope = Scope::new();
        let mut steps = Vec::with_capacity(stmt.from.len());

        for item in &stmt.from {
            let step = self.bind_from_item(item, &scope)?;
            scope.push(step.alias().clone(), step.schema())?;
            steps.push(step);
        }

        if stmt.selection.is_some() && steps.is_empty() {
            return Err(FedError::bind("WHERE clause without FROM clause"));
        }
        let mut conjuncts: Vec<BoundExpr> = Vec::new();
        if let Some(selection) = &stmt.selection {
            for conjunct in selection.conjuncts() {
                conjuncts.push(fold(self.bind_expr(conjunct, &scope)?));
            }
        }

        // Aggregate queries take a separate projection path.
        let has_agg = !stmt.group_by.is_empty()
            || stmt.projection.iter().any(|item| {
                matches!(
                    item,
                    SelectItem::Expr {
                        expr: Expr::Function { name, .. },
                        ..
                    } if AggFn::resolve(name.as_str()).is_some()
                )
            });
        if has_agg {
            return self.bind_aggregate(stmt, &scope, steps, conjuncts);
        }

        // Projection.
        let mut projection: Vec<(BoundExpr, Ident)> = Vec::new();
        for item in &stmt.projection {
            match item {
                SelectItem::Wildcard => {
                    for (alias, schema, offset) in &scope.entries {
                        let _ = alias;
                        for (i, col) in schema.columns().iter().enumerate() {
                            projection.push((
                                BoundExpr::Column {
                                    index: offset + i,
                                    data_type: col.data_type,
                                },
                                col.name.clone(),
                            ));
                        }
                    }
                    if scope.entries.is_empty() {
                        return Err(FedError::bind("SELECT * without FROM clause"));
                    }
                }
                SelectItem::QualifiedWildcard(alias) => {
                    let entry = scope
                        .entries
                        .iter()
                        .find(|(a, _, _)| a == alias)
                        .ok_or_else(|| {
                            FedError::bind(format!("unknown correlation name {alias}"))
                        })?;
                    for (i, col) in entry.1.columns().iter().enumerate() {
                        projection.push((
                            BoundExpr::Column {
                                index: entry.2 + i,
                                data_type: col.data_type,
                            },
                            col.name.clone(),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = fold(self.bind_expr(expr, &scope)?);
                    let name = alias
                        .clone()
                        .unwrap_or_else(|| derive_name(expr, projection.len()));
                    projection.push((bound, name));
                }
            }
        }

        let order_by = stmt
            .order_by
            .iter()
            .map(|o| Ok((fold(self.bind_expr(&o.expr, &scope)?), o.ascending)))
            .collect::<FedResult<Vec<_>>>()?;

        let out_schema = Arc::new(Schema::new(
            projection
                .iter()
                .map(|(e, name)| {
                    Column::new(name.clone(), e.data_type().unwrap_or(DataType::Varchar))
                })
                .collect(),
        ));

        Ok(LogicalPlan {
            steps,
            conjuncts,
            projection,
            aggregate: None,
            distinct: stmt.distinct,
            order_by,
            limit: stmt.limit,
            params: self.params.clone(),
            out_schema,
        })
    }

    /// Bind a SELECT with aggregates and/or GROUP BY.
    fn bind_aggregate(
        &self,
        stmt: &SelectStmt,
        scope: &Scope,
        steps: Vec<FromStep>,
        conjuncts: Vec<BoundExpr>,
    ) -> FedResult<LogicalPlan> {
        let keys: Vec<BoundExpr> = stmt
            .group_by
            .iter()
            .map(|e| Ok(fold(self.bind_expr(e, scope)?)))
            .collect::<FedResult<_>>()?;

        let mut columns: Vec<(AggColumn, Ident)> = Vec::new();
        for (pos, item) in stmt.projection.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(FedError::bind(
                    "wildcards cannot appear in an aggregate projection",
                ));
            };
            let name = alias.clone().unwrap_or_else(|| derive_name(expr, pos));
            // A top-level aggregate call?
            if let Expr::Function { name: fname, args } = expr {
                if let Some(f) = AggFn::resolve(fname.as_str()) {
                    let arg = match (f, args.len()) {
                        (AggFn::Count, 0) => None, // COUNT(*)
                        (_, 1) => {
                            let bound = fold(self.bind_expr(&args[0], scope)?);
                            if f != AggFn::Count && f != AggFn::Min && f != AggFn::Max {
                                let dt = bound.data_type();
                                if !dt.map(|d| d.is_numeric()).unwrap_or(true) {
                                    return Err(FedError::bind(format!(
                                        "{fname} requires a numeric argument"
                                    )));
                                }
                            }
                            Some(bound)
                        }
                        _ => {
                            return Err(FedError::bind(format!(
                                "{fname} expects exactly one argument"
                            )))
                        }
                    };
                    columns.push((AggColumn::Agg { f, arg }, name));
                    continue;
                }
            }
            // Otherwise the expression must be one of the grouping keys.
            let key_pos = stmt
                .group_by
                .iter()
                .position(|k| k == expr)
                .ok_or_else(|| {
                    FedError::bind(format!(
                        "projection {expr} is neither an aggregate nor listed in GROUP BY"
                    ))
                })?;
            columns.push((AggColumn::Key(key_pos), name));
        }

        let out_schema = Arc::new(Schema::new(
            columns
                .iter()
                .map(|(col, name)| {
                    let dt = match col {
                        AggColumn::Key(i) => keys[*i].data_type().unwrap_or(DataType::Varchar),
                        AggColumn::Agg { f, arg } => match f {
                            AggFn::Count => DataType::BigInt,
                            AggFn::Avg => DataType::Double,
                            AggFn::Sum => match arg.as_ref().and_then(|a| a.data_type()) {
                                Some(DataType::Double) => DataType::Double,
                                _ => DataType::BigInt,
                            },
                            AggFn::Min | AggFn::Max => arg
                                .as_ref()
                                .and_then(|a| a.data_type())
                                .unwrap_or(DataType::Varchar),
                        },
                    };
                    Column::new(name.clone(), dt)
                })
                .collect(),
        ));

        // ORDER BY over an aggregate sorts the aggregate *output*: each sort
        // key must resolve to an output column — by ordinal (`ORDER BY 2`),
        // by output name/alias, or by repeating a projected expression
        // (`ORDER BY COUNT(*)`).
        let mut order_by: Vec<(BoundExpr, bool)> = Vec::new();
        for o in &stmt.order_by {
            let pos = match &o.expr {
                Expr::Literal(v) => {
                    let ordinal = v.as_i64().ok_or_else(|| {
                        FedError::bind(format!("ORDER BY position must be an integer, got {v}"))
                    })?;
                    if ordinal < 1 || ordinal as usize > columns.len() {
                        return Err(FedError::bind(format!(
                            "ORDER BY position {ordinal} is out of range (1..={})",
                            columns.len()
                        )));
                    }
                    ordinal as usize - 1
                }
                expr => stmt
                    .projection
                    .iter()
                    .position(|item| matches!(item, SelectItem::Expr { expr: e, .. } if e == expr))
                    .or_else(|| match expr {
                        Expr::Column(q) if q.qualifier.is_none() => {
                            columns.iter().position(|(_, name)| *name == q.name)
                        }
                        _ => None,
                    })
                    .ok_or_else(|| {
                        FedError::bind(format!(
                            "ORDER BY {expr} must reference an output column of the aggregate \
                             (by name, ordinal, or by repeating the projected expression)"
                        ))
                    })?,
            };
            order_by.push((
                BoundExpr::Column {
                    index: pos,
                    data_type: out_schema.columns()[pos].data_type,
                },
                o.ascending,
            ));
        }

        Ok(LogicalPlan {
            steps,
            conjuncts,
            projection: vec![],
            aggregate: Some(AggregatePlan { keys, columns }),
            distinct: stmt.distinct,
            order_by,
            limit: stmt.limit,
            params: self.params.clone(),
            out_schema,
        })
    }

    fn bind_from_item(&self, item: &FromItem, scope: &Scope) -> FedResult<FromStep> {
        match item {
            FromItem::Table { name, alias } => {
                let (origin, schema) = self.catalog.resolve_table(name)?;
                let alias = alias.clone().unwrap_or_else(|| name.clone());
                Ok(match origin {
                    TableOrigin::Local => FromStep::ScanLocal {
                        table: name.clone(),
                        alias,
                        schema,
                        pushdown: Predicate::True,
                        param_pushdown: None,
                    },
                    TableOrigin::Foreign {
                        server,
                        remote_name,
                    } => FromStep::ScanForeign {
                        server,
                        remote_name,
                        catalog_name: name.clone(),
                        alias,
                        schema,
                        pushdown: Predicate::True,
                        param_pushdown: None,
                    },
                })
            }
            FromItem::TableFunction { name, args, alias } => {
                let udtf = self.catalog.udtf(name)?;
                if args.len() != udtf.params.len() {
                    return Err(FedError::bind(format!(
                        "function {} expects {} arguments, got {}",
                        udtf.name,
                        udtf.params.len(),
                        args.len()
                    )));
                }
                let bound_args: Vec<BoundExpr> = args
                    .iter()
                    .map(|a| Ok(fold(self.bind_expr(a, scope)?)))
                    .collect::<FedResult<_>>()?;
                let independent = bound_args.iter().all(|a| a.column_indexes().is_empty());
                Ok(FromStep::TableFunc {
                    udtf,
                    alias: alias.clone(),
                    args: bound_args,
                    independent,
                })
            }
        }
    }

    fn bind_expr(&self, expr: &Expr, scope: &Scope) -> FedResult<BoundExpr> {
        match expr {
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Column(q) => self.bind_column(q, scope),
            Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
                left: Box::new(self.bind_expr(left, scope)?),
                op: *op,
                right: Box::new(self.bind_expr(right, scope)?),
            }),
            Expr::Unary { op, expr } => {
                let inner = Box::new(self.bind_expr(expr, scope)?);
                Ok(match op {
                    UnaryOp::Not => BoundExpr::Not(inner),
                    UnaryOp::Neg => BoundExpr::Neg(inner),
                })
            }
            Expr::Cast { expr, data_type } => Ok(BoundExpr::Cast {
                input: Box::new(self.bind_expr(expr, scope)?),
                to: *data_type,
            }),
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                input: Box::new(self.bind_expr(expr, scope)?),
                negated: *negated,
            }),
            Expr::Function { name, args } => {
                // Cast functions: BIGINT(x), INT(x), VARCHAR(x), ...
                if let Some(dt) = DataType::parse(name.as_str()) {
                    if args.len() != 1 {
                        return Err(FedError::bind(format!(
                            "cast function {name} expects exactly one argument"
                        )));
                    }
                    return Ok(BoundExpr::Cast {
                        input: Box::new(self.bind_expr(&args[0], scope)?),
                        to: dt,
                    });
                }
                if let Some(f) = ScalarFn::resolve(name.as_str()) {
                    let bound: Vec<BoundExpr> = args
                        .iter()
                        .map(|a| self.bind_expr(a, scope))
                        .collect::<FedResult<_>>()?;
                    if bound.len() != 1 {
                        return Err(FedError::bind(format!(
                            "scalar function {name} expects exactly one argument"
                        )));
                    }
                    return Ok(BoundExpr::Scalar { f, args: bound });
                }
                if self.catalog.has_udtf(name) {
                    return Err(FedError::bind(format!(
                        "table function {name} cannot be nested in a scalar expression — reference it in the FROM clause (nesting of functions is not supported)"
                    )));
                }
                Err(FedError::bind(format!("unknown scalar function {name}")))
            }
        }
    }

    fn bind_column(&self, q: &QualifiedName, scope: &Scope) -> FedResult<BoundExpr> {
        if let Some(qualifier) = &q.qualifier {
            // Correlation name wins over the function-name qualifier.
            if let Some((index, data_type)) = scope.resolve_qualified(qualifier, &q.name) {
                return Ok(BoundExpr::Column { index, data_type });
            }
            if Some(qualifier) == self.function_name.as_ref() {
                if let Some(slot) = self.param_slot(&q.name) {
                    return Ok(slot);
                }
                return Err(FedError::bind(format!(
                    "function {qualifier} has no parameter {}",
                    q.name
                )));
            }
            return Err(FedError::bind(format!(
                "unknown correlation name {qualifier} in reference {q}"
            )));
        }
        if let Some((index, data_type)) = scope.resolve_bare(&q.name)? {
            return Ok(BoundExpr::Column { index, data_type });
        }
        if let Some(slot) = self.param_slot(&q.name) {
            return Ok(slot);
        }
        Err(FedError::bind(format!("unresolved column reference {q}")))
    }

    fn param_slot(&self, name: &Ident) -> Option<BoundExpr> {
        self.params
            .iter()
            .position(|(n, _)| n == name)
            .map(|index| BoundExpr::Param {
                index,
                data_type: self.params[index].1,
            })
    }
}

/// Concatenated-layout offset of each step's first column.
pub(crate) fn step_offsets(steps: &[FromStep]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(steps.len());
    let mut acc = 0usize;
    for step in steps {
        offsets.push(acc);
        acc += step.schema().len();
    }
    offsets
}

/// Place one bound WHERE conjunct into an executable plan: push into a
/// scan's storage predicate when it touches exactly one scan step and has a
/// pushable shape; failing that, extract it as a hash-join key when it is an
/// equality between a column of the target step and a prefix-only
/// expression; otherwise attach it as a residual filter at the earliest step
/// where all its columns exist. `offsets` is the concatenated layout the
/// conjunct's column indexes refer to ([`step_offsets`] of `steps`) — the
/// optimizer calls this after permuting the steps and remapping the
/// conjunct into the permuted layout.
///
/// A pushable conjunct compares columns with literals and host variables
/// only. Literal-only conjuncts go into the step's `pushdown`; a conjunct
/// with a host variable goes into its `param_pushdown`, bound per
/// execution, and only when each of its comparisons, with a host variable
/// or a literal, passes the join-key type gate ([`comparable`]): storage
/// compares incomparable values as unknown where the evaluator, which
/// evaluates such a conjunct as a filter, raises an error. Once a step
/// holds a host-variable conjunct, its later pushable conjuncts follow it
/// into `param_pushdown` (a literal-only one that fails the gate stays in
/// `pushdown`, as before): the bound predicate then lists the step's
/// conjuncts in statement order, as the inlined-literal form does, so the
/// store picks the same index (the first equality).
pub(crate) fn place_bound_conjunct(
    bound: BoundExpr,
    steps: &mut [FromStep],
    offsets: &[usize],
    step_filters: &mut [Option<BoundExpr>],
    step_join_keys: &mut [Option<JoinKey>],
) {
    let cols = bound.column_indexes();
    // Earliest step whose prefix covers all referenced columns.
    let mut target = 0usize;
    for &c in &cols {
        let step_of_col = steps
            .iter()
            .enumerate()
            .position(|(i, step)| c >= offsets[i] && c < offsets[i] + step.schema().len())
            .expect("bound column belongs to a step");
        target = target.max(step_of_col);
    }

    // Try full pushdown into a scan when every column belongs to the
    // target step itself and the shape converts.
    let (t_offset, t_len) = (offsets[target], steps[target].schema().len());
    let local_only = cols.iter().all(|&c| c >= t_offset && c < t_offset + t_len);
    if local_only {
        if let FromStep::ScanLocal {
            pushdown,
            param_pushdown,
            ..
        }
        | FromStep::ScanForeign {
            pushdown,
            param_pushdown,
            ..
        } = &mut steps[target]
        {
            if push_into_scan(&bound, t_offset, pushdown, param_pushdown) {
                return;
            }
        }
    }

    // Equi-join extraction: `step-column = prefix-expr` (either
    // orientation) turns the step composition into a hash join. Not for
    // dependent table functions — their results are already correlated
    // per prefix row, so the conjunct stays a residual filter.
    let extractable_step = matches!(
        steps[target],
        FromStep::ScanLocal { .. }
            | FromStep::ScanForeign { .. }
            | FromStep::TableFunc {
                independent: true,
                ..
            }
    );
    if extractable_step {
        if let Some((build, probe)) = split_equi_join(&bound, t_offset, t_len) {
            // Static type gate: the hash path compares by key equality
            // and can never raise `sql_cmp`'s "cannot compare" error, so
            // only extract when bind-time types guarantee comparability.
            let build_type = steps[target].schema().columns()[build].data_type;
            if probe.data_type().is_some_and(|p| comparable(build_type, p)) {
                match &mut step_join_keys[target] {
                    Some(jk) => {
                        jk.build.push(build);
                        jk.probe.push(probe);
                        jk.residual = BoundExpr::Binary {
                            left: Box::new(jk.residual.clone()),
                            op: BinaryOp::And,
                            right: Box::new(bound),
                        };
                    }
                    slot @ None => {
                        *slot = Some(JoinKey {
                            probe: vec![probe],
                            build: vec![build],
                            residual: bound,
                        });
                    }
                }
                return;
            }
        }
    }

    step_filters[target] = Some(match step_filters[target].take() {
        Some(existing) => BoundExpr::Binary {
            left: Box::new(existing),
            op: BinaryOp::And,
            right: Box::new(bound),
        },
        None => bound,
    });
}

/// Push `bound`, over the columns of one scan step starting at `offset`,
/// into that step's `pushdown` or `param_pushdown` by the rules of
/// [`place_bound_conjunct`]; `false` when its shape or types keep it out
/// of storage.
fn push_into_scan(
    bound: &BoundExpr,
    offset: usize,
    pushdown: &mut Predicate,
    param_pushdown: &mut Option<BoundExpr>,
) -> bool {
    let literal = to_storage_predicate(bound, offset, &|_, e| match e {
        BoundExpr::Literal(v) => Some(v.clone()),
        _ => None,
    });
    if param_pushdown.is_some() || literal.is_none() {
        // The shape and type check of a conjunct bound per execution: every
        // operand, literal or host variable, must pass the gate, so a
        // conjunct that would raise "cannot compare" in the evaluator stays
        // there. The stand-in NULL is never used, only whether it converts.
        let binds = to_storage_predicate(bound, offset, &|column, e| match e {
            BoundExpr::Literal(v) if v.data_type().is_none_or(|t| comparable(column, t)) => {
                Some(v.clone())
            }
            BoundExpr::Param { data_type, .. } if comparable(column, *data_type) => {
                Some(Value::Null)
            }
            _ => None,
        });
        if binds.is_some() {
            let local = bound.map_columns(&|c| c - offset);
            *param_pushdown = Some(match param_pushdown.take() {
                Some(earlier) => BoundExpr::Binary {
                    left: Box::new(earlier),
                    op: BinaryOp::And,
                    right: Box::new(local),
                },
                None => local,
            });
            return true;
        }
    }
    // A literal-only conjunct is pushed as a literal, as it always was.
    let Some(pred) = literal else {
        return false;
    };
    *pushdown = std::mem::replace(pushdown, Predicate::True).and(pred);
    true
}

/// Whether values of two types compare without a "cannot compare" error
/// under `sql_cmp`: equal types, or both numeric. The static gate for the
/// paths that compare without the evaluator: hash-join keys, and the
/// conjuncts with host variables pushed into storage.
fn comparable(a: DataType, b: DataType) -> bool {
    a == b || (a.is_numeric() && b.is_numeric())
}

/// Constant folding: collapse literal-only subtrees.
pub fn fold(expr: BoundExpr) -> BoundExpr {
    fn is_literal(e: &BoundExpr) -> bool {
        matches!(e, BoundExpr::Literal(_))
    }
    let rebuilt = match expr {
        BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(fold(*left)),
            op,
            right: Box::new(fold(*right)),
        },
        BoundExpr::Not(e) => BoundExpr::Not(Box::new(fold(*e))),
        BoundExpr::Neg(e) => BoundExpr::Neg(Box::new(fold(*e))),
        BoundExpr::Cast { input, to } => BoundExpr::Cast {
            input: Box::new(fold(*input)),
            to,
        },
        BoundExpr::IsNull { input, negated } => BoundExpr::IsNull {
            input: Box::new(fold(*input)),
            negated,
        },
        BoundExpr::Scalar { f, args } => BoundExpr::Scalar {
            f,
            args: args.into_iter().map(fold).collect(),
        },
        other => other,
    };
    let all_literal = match &rebuilt {
        BoundExpr::Binary { left, right, .. } => is_literal(left) && is_literal(right),
        BoundExpr::Not(e) | BoundExpr::Neg(e) => is_literal(e),
        BoundExpr::Cast { input, .. } | BoundExpr::IsNull { input, .. } => is_literal(input),
        BoundExpr::Scalar { args, .. } => args.iter().all(is_literal),
        _ => false,
    };
    if all_literal {
        if let Ok(v) = rebuilt.eval(&[], &[]) {
            return BoundExpr::Literal(v);
        }
    }
    rebuilt
}

/// If `expr` is `target-step-column = prefix-only-expr` (either
/// orientation), return the build column index (local to the step's schema)
/// and the probe expression. The probe side may reference literals,
/// parameters, and columns strictly left of the target step, but none of
/// the target step's own columns.
fn split_equi_join(expr: &BoundExpr, t_offset: usize, t_len: usize) -> Option<(usize, BoundExpr)> {
    let BoundExpr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = expr
    else {
        return None;
    };
    let in_step = |i: usize| i >= t_offset && i < t_offset + t_len;
    let prefix_only = |e: &BoundExpr| e.column_indexes().iter().all(|&c| c < t_offset);
    match (&**left, &**right) {
        (BoundExpr::Column { index, .. }, probe) if in_step(*index) && prefix_only(probe) => {
            Some((index - t_offset, probe.clone()))
        }
        (probe, BoundExpr::Column { index, .. }) if in_step(*index) && prefix_only(probe) => {
            Some((index - t_offset, probe.clone()))
        }
        _ => None,
    }
}

/// Convert a bound predicate over one table's columns into a storage
/// predicate, shifting column indexes down by `offset`. `operand` resolves
/// the non-column side of each comparison, given the compared column's
/// type: at bind time it resolves literals only, at execution literals and
/// the statement's values ([`Plan::scan_predicate`]). Returns `None` for
/// shapes the storage layer cannot evaluate (arithmetic, cross-column
/// comparisons, operands the resolver leaves unresolved).
pub(crate) fn to_storage_predicate(
    expr: &BoundExpr,
    offset: usize,
    operand: &dyn Fn(DataType, &BoundExpr) -> Option<Value>,
) -> Option<Predicate> {
    let convert = |e: &BoundExpr| to_storage_predicate(e, offset, operand);
    match expr {
        BoundExpr::Binary { left, op, right } => match op {
            BinaryOp::And => Some(convert(left)?.and(convert(right)?)),
            BinaryOp::Or => Some(convert(left)?.or(convert(right)?)),
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => {
                let cmp_op = match op {
                    BinaryOp::Eq => CmpOp::Eq,
                    BinaryOp::NotEq => CmpOp::NotEq,
                    BinaryOp::Lt => CmpOp::Lt,
                    BinaryOp::LtEq => CmpOp::LtEq,
                    BinaryOp::Gt => CmpOp::Gt,
                    BinaryOp::GtEq => CmpOp::GtEq,
                    _ => unreachable!(),
                };
                let (index, data_type, other, cmp_op) = match (&**left, &**right) {
                    (BoundExpr::Column { index, data_type }, other) => {
                        (index, data_type, other, cmp_op)
                    }
                    (other, BoundExpr::Column { index, data_type }) => {
                        (index, data_type, other, flip_cmp(cmp_op))
                    }
                    _ => return None,
                };
                let value = operand(*data_type, other)?;
                Some(Predicate::cmp(index - offset, cmp_op, value))
            }
            _ => None,
        },
        BoundExpr::Not(e) => Some(convert(e)?.negate()),
        BoundExpr::IsNull { input, negated } => match &**input {
            BoundExpr::Column { index, .. } => Some(if *negated {
                Predicate::IsNotNull(index - offset)
            } else {
                Predicate::IsNull(index - offset)
            }),
            _ => None,
        },
        _ => None,
    }
}

/// The operator that keeps a comparison's meaning when its operands swap.
pub(crate) fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::LtEq => CmpOp::GtEq,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::GtEq => CmpOp::LtEq,
        other => other,
    }
}

fn derive_name(expr: &Expr, position: usize) -> Ident {
    match expr {
        Expr::Column(q) => q.name.clone(),
        Expr::Function { name, .. } => name.clone(),
        Expr::Cast { expr, .. } => derive_name(expr, position),
        _ => Ident::new(format!("C{}", position + 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udtf::Udtf;
    use fedwf_sql::parse_statement;
    use fedwf_sql::Statement;
    use fedwf_types::{Row, Table, Value};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.local()
            .create_table(
                "Suppliers",
                Arc::new(Schema::of(&[
                    ("SupplierNo", DataType::Int),
                    ("Name", DataType::Varchar),
                ])),
            )
            .unwrap();
        cat.local()
            .insert(
                "Suppliers",
                Row::new(vec![Value::Int(1), Value::str("Acme")]),
            )
            .unwrap();
        cat.register_udtf(Udtf::native(
            "GetQuality",
            vec![(Ident::new("SupplierNo"), DataType::Int)],
            Arc::new(Schema::of(&[("Qual", DataType::Int)])),
            |_args, _m| Ok(Table::scalar("Qual", Value::Int(93))),
        ))
        .unwrap();
        cat.register_udtf(Udtf::native(
            "GetReliability",
            vec![(Ident::new("SupplierNo"), DataType::Int)],
            Arc::new(Schema::of(&[("Relia", DataType::Int)])),
            |_args, _m| Ok(Table::scalar("Relia", Value::Int(87))),
        ))
        .unwrap();
        cat
    }

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn binds_lateral_table_functions() {
        let cat = catalog();
        let stmt =
            select("SELECT GQ.Qual FROM Suppliers AS S, TABLE (GetQuality(S.SupplierNo)) AS GQ");
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert_eq!(plan.steps.len(), 2);
        let FromStep::TableFunc {
            args, independent, ..
        } = &plan.steps[1]
        else {
            panic!()
        };
        assert!(!independent, "args reference a lateral column");
        assert_eq!(args.len(), 1);
        assert_eq!(plan.out_schema.columns()[0].name, Ident::new("Qual"));
    }

    #[test]
    fn forward_reference_is_rejected() {
        // DB2's left-to-right rule: GQ cannot reference GR defined later.
        let cat = catalog();
        let stmt = select(
            "SELECT 1 FROM TABLE (GetQuality(GR.Relia)) AS GQ, TABLE (GetReliability(1)) AS GR",
        );
        let err = PlanBuilder::new(&cat).bind(&stmt).unwrap_err();
        assert!(err.to_string().contains("GR") || err.to_string().contains("unknown"));
    }

    #[test]
    fn independence_detected_for_literal_args() {
        let cat = catalog();
        let stmt = select(
            "SELECT GQ.Qual, GR.Relia FROM TABLE (GetQuality(7)) AS GQ, TABLE (GetReliability(7)) AS GR",
        );
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        for step in &plan.steps {
            let FromStep::TableFunc { independent, .. } = step else {
                panic!()
            };
            assert!(independent);
        }
    }

    #[test]
    fn function_context_params_resolve() {
        let cat = catalog();
        let stmt = select("SELECT GQ.Qual FROM TABLE (GetQuality(GetSuppQual.SupplierNo)) AS GQ");
        let plan = PlanBuilder::new(&cat)
            .with_function_context(
                "GetSuppQual",
                vec![(Ident::new("SupplierNo"), DataType::Int)],
            )
            .bind(&stmt)
            .unwrap();
        let FromStep::TableFunc { args, .. } = &plan.steps[0] else {
            panic!()
        };
        assert_eq!(
            args[0],
            BoundExpr::Param {
                index: 0,
                data_type: DataType::Int
            }
        );
    }

    #[test]
    fn host_variables_resolve_bare_names() {
        let cat = catalog();
        let stmt = select("SELECT GQ.Qual FROM TABLE (GetQuality(SupplierNo)) AS GQ");
        let plan = PlanBuilder::new(&cat)
            .with_host_params(vec![(Ident::new("SupplierNo"), DataType::Int)])
            .bind(&stmt)
            .unwrap();
        let FromStep::TableFunc { args, .. } = &plan.steps[0] else {
            panic!()
        };
        assert!(matches!(args[0], BoundExpr::Param { index: 0, .. }));
    }

    #[test]
    fn unresolved_reference_errors() {
        let cat = catalog();
        let stmt = select("SELECT GQ.Qual FROM TABLE (GetQuality(Nowhere)) AS GQ");
        assert!(PlanBuilder::new(&cat).bind(&stmt).is_err());
    }

    #[test]
    fn pushdown_into_local_scan() {
        let cat = catalog();
        let stmt = select("SELECT S.Name FROM Suppliers AS S WHERE S.SupplierNo = 1");
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        let FromStep::ScanLocal { pushdown, .. } = &plan.steps[0] else {
            panic!()
        };
        assert_ne!(*pushdown, Predicate::True);
        assert!(plan.step_filters[0].is_none(), "fully pushed down");
    }

    #[test]
    fn cross_item_predicate_becomes_join_key() {
        let cat = catalog();
        let stmt = select(
            "SELECT 1 FROM TABLE (GetQuality(1)) AS GQ, TABLE (GetReliability(1)) AS GR WHERE GQ.Qual = GR.Relia",
        );
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert!(plan.step_filters[0].is_none());
        assert!(plan.step_filters[1].is_none(), "extracted as a join key");
        assert!(plan.step_join_keys[0].is_none());
        let jk = plan.step_join_keys[1].as_ref().expect("equi-join key");
        // GR.Relia is column 0 of the GR step; the probe reads GQ.Qual.
        assert_eq!(jk.build, vec![0]);
        assert_eq!(
            jk.probe,
            vec![BoundExpr::Column {
                index: 0,
                data_type: DataType::Int
            }]
        );
    }

    #[test]
    fn dependent_table_func_keeps_residual_filter() {
        // GQ is lateral (depends on S), so its conjunct must stay a filter:
        // its rows are already correlated per prefix row.
        let cat = catalog();
        let stmt = select(
            "SELECT 1 FROM Suppliers AS S, TABLE (GetQuality(S.SupplierNo)) AS GQ WHERE GQ.Qual = S.SupplierNo",
        );
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert!(plan.step_join_keys[1].is_none());
        assert!(plan.step_filters[1].is_some());
    }

    #[test]
    fn incomparable_equality_stays_residual() {
        // VARCHAR = INT would error at runtime under sql_cmp; the hash path
        // cannot reproduce that, so the conjunct must stay a filter.
        let cat = catalog();
        let stmt = select(
            "SELECT 1 FROM TABLE (GetQuality(1)) AS GQ, Suppliers AS S WHERE S.Name = GQ.Qual",
        );
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert!(plan.step_join_keys[1].is_none());
        assert!(plan.step_filters[1].is_some());
    }

    #[test]
    fn param_predicate_is_pushed_to_storage() {
        let cat = catalog();
        let stmt = select("SELECT S.Name FROM Suppliers AS S WHERE S.SupplierNo = N");
        let plan = PlanBuilder::new(&cat)
            .with_host_params(vec![(Ident::new("N"), DataType::BigInt)])
            .bind(&stmt)
            .unwrap();
        let FromStep::ScanLocal {
            pushdown,
            param_pushdown,
            ..
        } = &plan.steps[0]
        else {
            panic!()
        };
        // The literal part stays empty; the host-variable conjunct rides
        // beside it in table numbering, unbound.
        assert_eq!(*pushdown, Predicate::True);
        assert!(matches!(
            param_pushdown,
            Some(BoundExpr::Binary { left, op: BinaryOp::Eq, right })
                if matches!(**left, BoundExpr::Column { index: 0, .. })
                    && matches!(**right, BoundExpr::Param { index: 0, .. })
        ));
        assert!(plan.step_join_keys[0].is_none(), "no join key");
        assert!(plan.step_filters[0].is_none(), "no residual filter");
        // Each execution binds its own value; the plan keeps none.
        let bound = plan.scan_predicate(0, &[Value::BigInt(7)]).unwrap();
        assert_eq!(*bound, Predicate::eq(0, Value::BigInt(7)));
        assert!(plan.explain().contains("[pushdown: SupplierNo = :N]"));
        // A NaN host variable is an execution error before any scan.
        let stmt = select("SELECT S.Name FROM Suppliers AS S WHERE S.SupplierNo < D");
        let plan = PlanBuilder::new(&cat)
            .with_host_params(vec![(Ident::new("D"), DataType::Double)])
            .bind(&stmt)
            .unwrap();
        let err = plan
            .scan_predicate(0, &[Value::Double(f64::NAN)])
            .unwrap_err();
        assert_eq!(err.layer, fedwf_types::ErrorLayer::Execution);
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn non_pushable_param_expression_stays_a_join_key() {
        let cat = catalog();
        let host = || vec![(Ident::new("N"), DataType::Int)];
        // Arithmetic on the host variable: storage cannot evaluate it, so
        // the equality is a step-0 join key as before.
        let stmt = select("SELECT S.Name FROM Suppliers AS S WHERE S.SupplierNo = N + 1");
        let plan = PlanBuilder::new(&cat)
            .with_host_params(host())
            .bind(&stmt)
            .unwrap();
        let FromStep::ScanLocal { param_pushdown, .. } = &plan.steps[0] else {
            panic!()
        };
        assert!(param_pushdown.is_none());
        let jk = plan.step_join_keys[0].as_ref().expect("param join key");
        assert_eq!(jk.build, vec![0]);
        assert!(matches!(jk.probe[0], BoundExpr::Binary { .. }));
        // An INT host variable against a VARCHAR column fails the type
        // gate: it stays a residual filter, which raises the evaluator's
        // "cannot compare" error.
        let stmt = select("SELECT S.Name FROM Suppliers AS S WHERE S.Name = N");
        let plan = PlanBuilder::new(&cat)
            .with_host_params(host())
            .bind(&stmt)
            .unwrap();
        let FromStep::ScanLocal { param_pushdown, .. } = &plan.steps[0] else {
            panic!()
        };
        assert!(param_pushdown.is_none());
        assert!(plan.step_join_keys[0].is_none());
        assert!(plan.step_filters[0].is_some());
    }

    #[test]
    fn aggregate_order_by_binds_to_output_columns() {
        let cat = catalog();
        let stmt = select(
            "SELECT S.Name, COUNT(*) AS n FROM Suppliers AS S GROUP BY S.Name ORDER BY 2 DESC",
        );
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert_eq!(plan.order_by.len(), 1);
        assert!(matches!(
            plan.order_by[0],
            (
                BoundExpr::Column {
                    index: 1,
                    data_type: DataType::BigInt
                },
                false
            )
        ));
        // Out-of-range ordinal and non-output expressions are bind errors.
        let stmt = select("SELECT COUNT(*) FROM Suppliers AS S ORDER BY 3");
        assert!(PlanBuilder::new(&cat).bind(&stmt).is_err());
        let stmt = select("SELECT COUNT(*) FROM Suppliers AS S ORDER BY S.SupplierNo");
        assert!(PlanBuilder::new(&cat).bind(&stmt).is_err());
    }

    #[test]
    fn cast_function_is_recognized() {
        let cat = catalog();
        let stmt = select("SELECT BIGINT(GQ.Qual) FROM TABLE (GetQuality(1)) AS GQ");
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert!(matches!(plan.projection[0].0, BoundExpr::Cast { .. }));
        assert_eq!(plan.out_schema.columns()[0].data_type, DataType::BigInt);
    }

    #[test]
    fn nested_table_function_rejected_with_hint() {
        let cat = catalog();
        let stmt = select("SELECT 1 FROM TABLE (GetQuality(GetReliability(1))) AS GQ");
        let err = PlanBuilder::new(&cat).bind(&stmt).unwrap_err();
        assert!(err.to_string().contains("nested") || err.to_string().contains("nesting"));
    }

    #[test]
    fn wildcards_expand() {
        let cat = catalog();
        let stmt = select("SELECT * FROM Suppliers AS S, TABLE (GetQuality(S.SupplierNo)) AS GQ");
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert_eq!(plan.out_schema.len(), 3);
        let stmt =
            select("SELECT GQ.* FROM Suppliers AS S, TABLE (GetQuality(S.SupplierNo)) AS GQ");
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert_eq!(plan.out_schema.len(), 1);
    }

    #[test]
    fn constant_folding_collapses_literals() {
        let cat = catalog();
        let stmt = select("SELECT 1 + 2 * 3 FROM Suppliers AS S");
        let plan = PlanBuilder::new(&cat).bind(&stmt).unwrap();
        assert_eq!(plan.projection[0].0, BoundExpr::Literal(Value::Int(7)));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let cat = catalog();
        let stmt = select("SELECT 1 FROM Suppliers AS S, Suppliers AS S");
        assert!(PlanBuilder::new(&cat).bind(&stmt).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let cat = catalog();
        let stmt = select("SELECT 1 FROM TABLE (GetQuality(1, 2)) AS GQ");
        assert!(PlanBuilder::new(&cat).bind(&stmt).is_err());
    }
}
