//! The FDBS facade: statement execution, plan cache, SQL UDTF bodies.

use std::sync::Arc;

use fedwf_sim::{Component, CostModel, Meter, SpanNameCache};
use fedwf_sql::{parse_statement, parse_statements, ColumnDef, Expr, SelectStmt, Statement};
use fedwf_types::{
    implicit_cast, Column, DataType, FedError, FedResult, Ident, Row, Schema, SchemaRef, Table,
    Value,
};

use crate::catalog::Catalog;
use crate::exec::{execute_plan, invoke_udtf, ExecMode};
use crate::optimizer::{optimize, PlannerMode};
use crate::plan::{FromStep, LogicalPlan, Plan, PlanBuilder};
use crate::plan_cache::PlanCache;
use crate::udtf::{ChargeItem, ChargeSpec, Udtf, UdtfKind};

/// Bound host variables for one statement: the values in slot order and
/// the derived plan-cache key.
type BoundHostParams = (Vec<Value>, String);

/// The type of host variable `name`; a NULL has none to infer.
fn host_type(name: &str, value: &Value) -> FedResult<DataType> {
    value.data_type().ok_or_else(|| {
        FedError::bind(format!(
            "host variable {name} is NULL; its type cannot be inferred"
        ))
    })
}

/// The one-column `plan` table EXPLAIN returns, one row per line of
/// [`Plan::explain`]; EXPLAIN ANALYZE appends its actuals.
fn explain_table(plan: &Plan) -> Table {
    let mut t = Table::new(Arc::new(Schema::of(&[("plan", DataType::Varchar)])));
    for line in plan.explain().lines() {
        t.push_unchecked(Row::new(vec![Value::str(line)]));
    }
    t
}

/// The execution configuration of an engine, fixed when the engine is
/// built. Built with chainable setters from [`ExecOptions::default`], the
/// production configuration:
///
/// ```
/// use fedwf_fdbs::{ExecMode, ExecOptions, Fdbs, PlannerMode};
/// use fedwf_sim::CostModel;
/// let oracle = ExecOptions::default()
///     .mode(ExecMode::Naive)
///     .udtf_memo(false)
///     .planner(PlannerMode::Syntactic);
/// let reference = Fdbs::new(CostModel::zero()).with_options(oracle);
/// assert_eq!(reference.options(), oracle);
/// assert_ne!(oracle, ExecOptions::default());
/// ```
///
/// One engine has one configuration, so a cached plan always runs under
/// the options it was bound for; tests and benches that compare
/// configurations build one engine per configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Which executor runs plans: the streaming pipeline (default) or the
    /// naive reference oracle. Streaming plans are bound with projection
    /// pruning; oracle plans are bound unpruned.
    pub mode: ExecMode,
    /// Memoize dependent UDTF invocations within one step by argument
    /// tuple. Off for comparisons that need per-prefix-row cost semantics.
    /// The oracle never memoizes.
    pub udtf_memo: bool,
    /// Which planner turns bound statements into physical plans: cost-based
    /// (default) or the syntactic FROM-order reference.
    pub planner: PlannerMode,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            mode: ExecMode::Streaming,
            udtf_memo: true,
            planner: PlannerMode::CostBased,
        }
    }
}

impl ExecOptions {
    /// Use `mode` as the executor.
    pub fn mode(mut self, mode: ExecMode) -> ExecOptions {
        self.mode = mode;
        self
    }

    /// Toggle the dependent-UDTF memo.
    pub fn udtf_memo(mut self, enabled: bool) -> ExecOptions {
        self.udtf_memo = enabled;
        self
    }

    /// Use `planner` to turn bound statements into physical plans.
    pub fn planner(mut self, planner: PlannerMode) -> ExecOptions {
        self.planner = planner;
        self
    }
}

/// The federated database system engine.
pub struct Fdbs {
    catalog: Catalog,
    cost: CostModel,
    /// Compiled plans under CLOCK eviction (`plan_cache.rs`).
    plan_cache: PlanCache,
    /// The engine's execution configuration, fixed at construction.
    options: ExecOptions,
    /// Interned `udtf {name}` / `fdbs.fn {name}` span names.
    udtf_spans: SpanNameCache<Ident>,
    fn_spans: SpanNameCache<Ident>,
}

impl Default for Fdbs {
    fn default() -> Fdbs {
        Fdbs::new(CostModel::default())
    }
}

impl Fdbs {
    pub fn new(cost: CostModel) -> Fdbs {
        Fdbs::with_local(cost, fedwf_relstore::Database::new("fdbs"))
    }

    /// An engine whose local store is supplied by the caller — durable
    /// (WAL-backed, possibly group-commit) when the integration server is
    /// configured with one.
    pub fn with_local(cost: CostModel, local: fedwf_relstore::Database) -> Fdbs {
        Fdbs {
            catalog: Catalog::with_local(local),
            cost,
            plan_cache: PlanCache::new(),
            options: ExecOptions::default(),
            udtf_spans: SpanNameCache::new(),
            fn_spans: SpanNameCache::new(),
        }
    }

    /// The same engine under `options` — how a test or bench builds a
    /// reference engine (the oracle, memo off, the syntactic planner)
    /// before sharing it.
    pub fn with_options(mut self, options: ExecOptions) -> Fdbs {
        self.options = options;
        self
    }

    /// The interned `udtf {name}` span name for a function (pub(crate):
    /// the executor opens this span on every traced invocation).
    pub(crate) fn udtf_span_name(&self, udtf: &Udtf) -> fedwf_sim::SpanName {
        self.udtf_spans
            .get(&udtf.name, Ident::clone, || format!("udtf {}", udtf.name))
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The engine's execution configuration.
    pub fn options(&self) -> ExecOptions {
        self.options
    }

    /// ANALYZE: collect statistics (row count, per-column NDV, min/max,
    /// null fraction) for every local table and registered foreign table,
    /// then clear the plan cache so subsequent statements are planned
    /// against fresh numbers. Returns the number of tables analyzed.
    pub fn analyze(&self) -> FedResult<usize> {
        let n = self.catalog.analyze()?;
        self.clear_plan_cache();
        Ok(n)
    }

    /// ANALYZE one table by its catalog name.
    pub fn analyze_table(&self, name: &str) -> FedResult<()> {
        self.catalog.analyze_table(&Ident::new(name))?;
        self.clear_plan_cache();
        Ok(())
    }

    /// The charge sequence of a SQL integration UDTF under the enhanced
    /// UDTF architecture (Fig. 6, right table: start / finish I-UDTF).
    pub fn iudtf_charge_spec(&self) -> ChargeSpec {
        ChargeSpec {
            on_start: vec![ChargeItem::new(
                Component::Udtf,
                "Start I-UDTF",
                self.cost.iudtf_start,
            )],
            on_finish: vec![ChargeItem::new(
                Component::Udtf,
                "Finish I-UDTF",
                self.cost.iudtf_finish,
            )],
        }
    }

    /// Register a table function (A-UDTF, Java I-UDTF, or wrapper UDTF).
    pub fn register_udtf(&self, udtf: Udtf) -> FedResult<()> {
        self.catalog.register_udtf(udtf)
    }

    /// Number of cached plans (observability for tests and reports);
    /// never more than [`crate::PLAN_CACHE_CAPACITY`].
    pub fn cached_plan_count(&self) -> usize {
        self.plan_cache.len()
    }

    /// Drop all cached plans (used to model the cold-cache tier).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Execute one statement without host variables.
    pub fn execute(&self, sql: &str, meter: &mut Meter) -> FedResult<Table> {
        self.execute_with_params(sql, &[], meter)
    }

    /// Execute one statement with named host variables (the application
    /// variables of embedded SQL).
    pub fn execute_with_params(
        &self,
        sql: &str,
        params: &[(&str, Value)],
        meter: &mut Meter,
    ) -> FedResult<Table> {
        if !meter.tracing() {
            return self.execute_with_params_inner(sql, params, meter);
        }
        meter.span_start(Component::Fdbs, "fdbs.execute");
        let result = self.execute_with_params_inner(sql, params, meter);
        if let Ok(table) = &result {
            meter.span_counter("rows_out", table.row_count() as u64);
        }
        meter.span_end();
        result
    }

    fn execute_with_params_inner(
        &self,
        sql: &str,
        params: &[(&str, Value)],
        meter: &mut Meter,
    ) -> FedResult<Table> {
        // Warm-statement fast path: a SELECT re-executed with the same text
        // and host-variable signature is served straight from the plan
        // cache, skipping lexing and parsing entirely. Only the SELECT path
        // stores keys based on the raw statement text, so a hit here can
        // only be a SELECT plan; DDL clears the whole cache, so a hit is
        // never stale. A NULL host variable falls through to the slow path
        // (its type cannot participate in the cache key), which reports it
        // after any parse error. A cold SELECT reuses the key computed here.
        let bound = self.host_params_and_key(sql, params);
        if let Ok((values, cache_key)) = &bound {
            if let Some(plan) = self.plan_cache.get(cache_key) {
                return execute_plan(self, &plan, values, meter);
            }
        }
        self.execute_statement(&parse_statement(sql)?, params, Some(bound), meter)
    }

    /// `EXPLAIN ANALYZE SELECT ...`: execute the SELECT's `plan` on a
    /// traced child meter and render the static plan followed by the
    /// recorded span tree — per-operator actual rows, batches, bytes and
    /// virtual time. The child's charges join back into the caller's meter,
    /// so the statement costs exactly what the underlying SELECT costs.
    fn explain_analyze(
        &self,
        plan: &Plan,
        values: &[Value],
        meter: &mut Meter,
    ) -> FedResult<Table> {
        let mut child = meter.fork();
        child.set_tracing(true);
        child.set_wall_sampling(true);
        child.span_start(Component::Fdbs, "fdbs.execute");
        let result = execute_plan(self, plan, values, &mut child);
        if let Ok(table) = &result {
            child.span_counter("rows_out", table.row_count() as u64);
        }
        child.span_end();
        let trace = child.finish_trace();
        let elapsed = child.elapsed_us();
        let rows_mat = child.rows_materialized();
        let bytes_mat = child.bytes_materialized();
        meter.join(vec![child]);
        result?;

        let mut t = explain_table(plan);
        t.push_unchecked(Row::new(vec![Value::str(format!(
            "Actuals: elapsed={elapsed}us materialized={rows_mat} rows / {bytes_mat} bytes"
        ))]));
        if let Some(root) = trace {
            for line in root.render().lines() {
                t.push_unchecked(Row::new(vec![Value::str(format!("  {line}"))]));
            }
            // Estimation quality: every operator that carries both an
            // `est` and a `rows` counter gets a q-error line
            // (max(est/act, act/est), both clamped to >= 1), plus the
            // median across operators.
            let mut qs: Vec<f64> = Vec::new();
            root.walk(&mut |node, _| {
                if let (Some(est), Some(act)) = (node.counter("est"), node.counter("rows")) {
                    let e = (est as f64).max(1.0);
                    let a = (act as f64).max(1.0);
                    let q = (e / a).max(a / e);
                    qs.push(q);
                    t.push_unchecked(Row::new(vec![Value::str(format!(
                        "  q-error {}: est={est} act={act} q={q:.2}",
                        node.name
                    ))]));
                }
            });
            if !qs.is_empty() {
                qs.sort_by(f64::total_cmp);
                let mid = qs.len() / 2;
                let median = if qs.len() % 2 == 1 {
                    qs[mid]
                } else {
                    (qs[mid - 1] + qs[mid]) / 2.0
                };
                t.push_unchecked(Row::new(vec![Value::str(format!(
                    "  q-error median: {median:.2}"
                ))]));
            }
        }
        Ok(t)
    }

    /// Execute a semicolon-separated script (setup convenience); returns
    /// the result of the final statement. A script's SELECT is cached under
    /// its printed text, the key EXPLAIN gives it.
    pub fn execute_script(&self, sql: &str, meter: &mut Meter) -> FedResult<Table> {
        let mut last = done();
        for stmt in &parse_statements(sql)? {
            last = self.execute_statement(stmt, &[], None, meter)?;
        }
        Ok(last)
    }

    /// Call a registered table function directly — the entry point an
    /// application uses for a federated function outside a wider query.
    pub fn call_function(&self, name: &str, args: &[Value], meter: &mut Meter) -> FedResult<Table> {
        let udtf = self.catalog.udtf(&Ident::new(name))?;
        invoke_udtf(self, &udtf, args, meter)
    }

    /// Bind the host variables and derive the plan-cache key for a SELECT:
    /// the raw statement text and the host-variable signature, written as
    /// `text|name:TYPE,name:TYPE` into one string. The key holds no
    /// configuration: one engine has one.
    fn host_params_and_key(
        &self,
        cache_key_base: &str,
        params: &[(&str, Value)],
    ) -> FedResult<BoundHostParams> {
        let mut cache_key = String::with_capacity(cache_key_base.len() + 16 * params.len() + 1);
        cache_key.push_str(cache_key_base);
        cache_key.push('|');
        let mut values: Vec<Value> = Vec::with_capacity(params.len());
        for (i, (name, value)) in params.iter().enumerate() {
            if i > 0 {
                cache_key.push(',');
            }
            cache_key.push_str(name);
            cache_key.push(':');
            cache_key.push_str(host_type(name, value)?.sql_name());
            values.push(value.clone());
        }
        Ok((values, cache_key))
    }

    /// Plan (with cache) a SELECT whose host variables `params`
    /// [`Fdbs::host_params_and_key`] bound. Returns the plan and parameter
    /// values in slot order. Only a compile builds the typed host-variable
    /// signature.
    fn plan_select(
        &self,
        select: &SelectStmt,
        params: &[(&str, Value)],
        (values, cache_key): BoundHostParams,
        meter: &mut Meter,
    ) -> FedResult<(Arc<Plan>, Vec<Value>)> {
        let plan = self.compile(&cache_key, meter, |builder| {
            let param_defs = params
                .iter()
                .map(|(name, value)| Ok((Ident::new(*name), host_type(name, value)?)))
                .collect::<FedResult<_>>()?;
            builder.with_host_params(param_defs).bind_logical(select)
        })?;
        Ok((plan, values))
    }

    /// The one compile routine, for SELECTs and SQL function bodies alike:
    /// the plan cached under `key`, or else charge `Compile statement`,
    /// `bind` the statement, optimize it and cache the plan under `key`.
    /// Streaming plans are pruned to the columns they reference, oracle
    /// plans keep every column.
    fn compile(
        &self,
        key: &str,
        meter: &mut Meter,
        bind: impl FnOnce(PlanBuilder<'_>) -> FedResult<LogicalPlan>,
    ) -> FedResult<Arc<Plan>> {
        if let Some(plan) = self.plan_cache.get(key) {
            return Ok(plan);
        }
        meter.charge(Component::Fdbs, "Compile statement", self.cost.plan_compile);
        let logical = bind(PlanBuilder::new(&self.catalog))?;
        let plan = optimize(&self.catalog, logical, self.options.planner)?;
        let plan = Arc::new(match self.options.mode {
            ExecMode::Streaming => plan.prune_projections(),
            ExecMode::Naive => plan,
        });
        self.plan_cache.insert(key.to_owned(), plan.clone());
        Ok(plan)
    }

    /// Execute the SQL body of an I-UDTF with bound argument values; its
    /// plan is cached under `plan_key`, written at CREATE FUNCTION.
    pub(crate) fn execute_function_body(
        &self,
        udtf: &Udtf,
        body: &SelectStmt,
        plan_key: &str,
        args: &[Value],
        meter: &mut Meter,
    ) -> FedResult<Table> {
        if !meter.tracing() {
            return self.execute_function_body_inner(udtf, body, plan_key, args, meter);
        }
        let span = self.fn_spans.get(&udtf.name, Ident::clone, || {
            format!("fdbs.fn {}", udtf.name)
        });
        meter.span_start(Component::Fdbs, span);
        let result = self.execute_function_body_inner(udtf, body, plan_key, args, meter);
        meter.span_end();
        result
    }

    fn execute_function_body_inner(
        &self,
        udtf: &Udtf,
        body: &SelectStmt,
        plan_key: &str,
        args: &[Value],
        meter: &mut Meter,
    ) -> FedResult<Table> {
        let plan = self.compile(plan_key, meter, |builder| {
            builder
                .with_function_context(udtf.name.clone(), udtf.params.clone())
                .bind_logical(body)
        })?;
        execute_plan(self, &plan, args, meter)
    }

    /// The one statement dispatcher. A SELECT runs under `bound`, its host
    /// variables bound under the raw statement text's key, when the caller
    /// has that; otherwise (a script's SELECT) it is keyed by its printed
    /// text, as EXPLAIN keys the SELECT it explains.
    fn execute_statement(
        &self,
        stmt: &Statement,
        params: &[(&str, Value)],
        bound: Option<FedResult<BoundHostParams>>,
        meter: &mut Meter,
    ) -> FedResult<Table> {
        // Any catalog change invalidates cached plans (they may hold
        // references to dropped functions or stale schemas).
        if matches!(
            stmt,
            Statement::CreateTable { .. }
                | Statement::CreateIndex { .. }
                | Statement::CreateFunction(_)
                | Statement::DropTable { .. }
                | Statement::DropFunction { .. }
        ) {
            self.plan_cache.clear();
        }
        match stmt {
            Statement::Select(select) => {
                let bound = match bound {
                    Some(bound) => bound?,
                    None => self.host_params_and_key(&select.to_string(), params)?,
                };
                let (plan, values) = self.plan_select(select, params, bound, meter)?;
                execute_plan(self, &plan, &values, meter)
            }
            Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => {
                let analyze = matches!(stmt, Statement::ExplainAnalyze(_));
                let Statement::Select(select) = &**inner else {
                    let what = if analyze {
                        "EXPLAIN ANALYZE"
                    } else {
                        "EXPLAIN"
                    };
                    return Err(FedError::plan(format!(
                        "{what} supports SELECT statements only, got {inner}"
                    )));
                };
                let bound = self.host_params_and_key(&select.to_string(), params)?;
                let (plan, values) = self.plan_select(select, params, bound, meter)?;
                if analyze {
                    self.explain_analyze(&plan, &values, meter)
                } else {
                    Ok(explain_table(&plan))
                }
            }
            Statement::CreateTable { name, columns } => {
                self.catalog
                    .local()
                    .create_table(name.clone(), schema_of(columns))?;
                Ok(done())
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            } => {
                let kind = if *unique {
                    fedwf_relstore::IndexKind::Unique
                } else {
                    fedwf_relstore::IndexKind::NonUnique
                };
                self.catalog.local().create_index(
                    table.as_str(),
                    name.as_str(),
                    column.as_str(),
                    kind,
                )?;
                Ok(done())
            }
            Statement::CreateFunction(cf) => {
                let params: Vec<(Ident, DataType)> = cf
                    .params
                    .iter()
                    .map(|p| (p.name.clone(), p.data_type))
                    .collect();
                // Validate the body eagerly, as DB2 does at CREATE time.
                PlanBuilder::new(&self.catalog)
                    .with_function_context(cf.name.clone(), params.clone())
                    .bind(&cf.body)
                    .map_err(|e| {
                        e.with_context(format!("validating body of function {}", cf.name))
                    })?;
                let udtf = Udtf {
                    name: cf.name.clone(),
                    params,
                    returns: schema_of(&cf.returns),
                    kind: UdtfKind::Sql {
                        body: Box::new(cf.body.clone()),
                        plan_key: format!("fn:{}", cf.name.normalized()),
                    },
                    charges: self.iudtf_charge_spec(),
                };
                self.catalog.register_udtf(udtf)?;
                Ok(done())
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let schema = self.catalog.local().table_schema(table.as_str())?;
                let builder = PlanBuilder::new(&self.catalog);
                let mut to_insert = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let row = build_insert_row(&builder, &schema, columns.as_deref(), exprs)?;
                    to_insert.push(row);
                }
                let n = self.catalog.local().insert_all(table.as_str(), to_insert)?;
                meter.charge(
                    Component::Fdbs,
                    "Produce result rows",
                    self.cost.row_output * n as u64,
                );
                Ok(affected(n))
            }
            Statement::Update {
                table,
                assignments,
                selection,
            } => {
                let predicate = self.storage_predicate(table, selection)?;
                let builder = PlanBuilder::new(&self.catalog);
                let schema = self.catalog.local().table_schema(table.as_str())?;
                let values = assignments
                    .iter()
                    .map(|(column, expr)| {
                        let value = eval_constant(&builder, expr)?;
                        let col_idx = schema.index_of(column).ok_or_else(|| {
                            FedError::bind(format!("unknown column {column} in UPDATE"))
                        })?;
                        Ok((
                            column.as_str(),
                            coerce(value, schema.columns()[col_idx].data_type)?,
                        ))
                    })
                    .collect::<FedResult<Vec<_>>>()?;
                let n = self
                    .catalog
                    .local()
                    .update_set(table.as_str(), &predicate, &values)?;
                Ok(affected(n))
            }
            Statement::Delete { table, selection } => {
                let predicate = self.storage_predicate(table, selection)?;
                let n = self
                    .catalog
                    .local()
                    .delete_where(table.as_str(), &predicate)?;
                Ok(affected(n))
            }
            Statement::DropTable { name } => {
                self.catalog.local().drop_table(name.as_str())?;
                self.catalog.invalidate_statistics(name);
                Ok(done())
            }
            Statement::DropFunction { name } => {
                self.catalog.drop_udtf(name)?;
                Ok(done())
            }
        }
    }

    /// Convert an UPDATE/DELETE selection into a storage predicate by
    /// planning a synthetic single-table SELECT and reusing the pushdown
    /// machinery. Predicates beyond the storage layer's shape are rejected.
    fn storage_predicate(
        &self,
        table: &Ident,
        selection: &Option<Expr>,
    ) -> FedResult<fedwf_relstore::Predicate> {
        let Some(selection) = selection else {
            return Ok(fedwf_relstore::Predicate::True);
        };
        let synthetic = SelectStmt {
            distinct: false,
            projection: vec![fedwf_sql::SelectItem::Wildcard],
            from: vec![fedwf_sql::FromItem::Table {
                name: table.clone(),
                alias: None,
            }],
            selection: Some(selection.clone()),
            group_by: vec![],
            order_by: vec![],
            limit: None,
        };
        let plan = PlanBuilder::new(&self.catalog).bind(&synthetic)?;
        if plan.step_filters[0].is_some() {
            return Err(FedError::unsupported(format!(
                "UPDATE/DELETE predicate on {table} is too complex for the storage layer"
            )));
        }
        match &plan.steps[0] {
            FromStep::ScanLocal {
                pushdown,
                param_pushdown: None,
                ..
            } => Ok(pushdown.clone()),
            _ => Err(FedError::unsupported(
                "UPDATE/DELETE target must be a local table",
            )),
        }
    }
}

impl std::fmt::Debug for Fdbs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fdbs")
            .field("catalog", &self.catalog)
            .field("cached_plans", &self.cached_plan_count())
            .finish()
    }
}

fn done() -> Table {
    Table::new(Arc::new(Schema::empty()))
}

/// The schema a CREATE TABLE or a CREATE FUNCTION's RETURNS TABLE declares.
fn schema_of(columns: &[ColumnDef]) -> SchemaRef {
    Arc::new(Schema::new(
        columns
            .iter()
            .map(|c| {
                let col = Column::new(c.name.clone(), c.data_type);
                if c.not_null {
                    col.not_null()
                } else {
                    col
                }
            })
            .collect(),
    ))
}

fn affected(n: usize) -> Table {
    Table::scalar("rows", Value::Int(n as i32))
}

fn eval_constant(builder: &PlanBuilder<'_>, expr: &Expr) -> FedResult<Value> {
    let bound = builder.bind_value_expr(expr)?;
    bound.eval(&[], &[])
}

fn coerce(value: Value, to: DataType) -> FedResult<Value> {
    if value.is_null() {
        return Ok(Value::Null);
    }
    Ok(implicit_cast(&value, to)?)
}

fn build_insert_row(
    builder: &PlanBuilder<'_>,
    schema: &fedwf_types::SchemaRef,
    columns: Option<&[Ident]>,
    exprs: &[Expr],
) -> FedResult<Row> {
    let values: Vec<Value> = exprs
        .iter()
        .map(|e| eval_constant(builder, e))
        .collect::<FedResult<_>>()?;
    match columns {
        None => {
            if values.len() != schema.len() {
                return Err(FedError::bind(format!(
                    "INSERT supplies {} values for {} columns",
                    values.len(),
                    schema.len()
                )));
            }
            let coerced: Vec<Value> = values
                .into_iter()
                .zip(schema.columns())
                .map(|(v, c)| coerce(v, c.data_type))
                .collect::<FedResult<_>>()?;
            Ok(Row::new(coerced))
        }
        Some(cols) => {
            if values.len() != cols.len() {
                return Err(FedError::bind("INSERT column list and VALUES arity differ"));
            }
            let mut row = vec![Value::Null; schema.len()];
            for (col, v) in cols.iter().zip(values) {
                let idx = schema
                    .index_of(col)
                    .ok_or_else(|| FedError::bind(format!("unknown column {col} in INSERT")))?;
                row[idx] = coerce(v, schema.columns()[idx].data_type)?;
            }
            Ok(Row::new(row))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_sim::Meter;

    fn fdbs() -> Fdbs {
        let f = Fdbs::new(CostModel::zero());
        let mut m = Meter::new();
        f.execute(
            "CREATE TABLE Suppliers (SupplierNo INT NOT NULL, Name VARCHAR, Relia INT)",
            &mut m,
        )
        .unwrap();
        f.execute("CREATE UNIQUE INDEX pk ON Suppliers (SupplierNo)", &mut m)
            .unwrap();
        f.execute(
            "INSERT INTO Suppliers VALUES (1, 'Acme', 80), (2, 'Bolt', 95), (1234, 'Precision', 87)",
            &mut m,
        )
        .unwrap();
        f.register_udtf(Udtf::native(
            "GetQuality",
            vec![(Ident::new("SupplierNo"), DataType::Int)],
            Arc::new(Schema::of(&[("Qual", DataType::Int)])),
            |args, _m| {
                let n = args[0].as_i64().unwrap_or(0);
                Ok(Table::scalar(
                    "Qual",
                    Value::Int(if n == 1234 { 93 } else { 40 }),
                ))
            },
        ))
        .unwrap();
        f.register_udtf(Udtf::native(
            "GetReliability",
            vec![(Ident::new("SupplierNo"), DataType::Int)],
            Arc::new(Schema::of(&[("Relia", DataType::Int)])),
            |args, _m| {
                let n = args[0].as_i64().unwrap_or(0);
                Ok(Table::scalar(
                    "Relia",
                    Value::Int(if n == 1234 { 87 } else { 30 }),
                ))
            },
        ))
        .unwrap();
        f
    }

    #[test]
    fn basic_select_with_pushdown() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .execute("SELECT Name FROM Suppliers WHERE SupplierNo = 2", &mut m)
            .unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.value(0, "Name"), Some(&Value::str("Bolt")));
    }

    #[test]
    fn lateral_udtf_over_table() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .execute(
                "SELECT S.Name, GQ.Qual FROM Suppliers AS S, TABLE (GetQuality(S.SupplierNo)) AS GQ WHERE S.SupplierNo = 1234",
                &mut m,
            )
            .unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.value(0, "Qual"), Some(&Value::Int(93)));
    }

    #[test]
    fn host_variables() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .execute_with_params(
                "SELECT GQ.Qual FROM TABLE (GetQuality(SupplierNo)) AS GQ",
                &[("SupplierNo", Value::Int(1234))],
                &mut m,
            )
            .unwrap();
        assert_eq!(t.value(0, "Qual"), Some(&Value::Int(93)));
    }

    #[test]
    fn create_function_and_invoke() {
        let f = fdbs();
        let mut m = Meter::new();
        f.execute(
            "CREATE FUNCTION GetSuppScores (SupplierNo INT) RETURNS TABLE (Q INT, R INT) \
             LANGUAGE SQL RETURN \
             SELECT GQ.Qual, GR.Relia \
             FROM TABLE (GetQuality(GetSuppScores.SupplierNo)) AS GQ, \
                  TABLE (GetReliability(GetSuppScores.SupplierNo)) AS GR",
            &mut m,
        )
        .unwrap();
        let t = f
            .execute(
                "SELECT GS.Q, GS.R FROM TABLE (GetSuppScores(1234)) AS GS",
                &mut m,
            )
            .unwrap();
        assert_eq!(t.value(0, "Q"), Some(&Value::Int(93)));
        assert_eq!(t.value(0, "R"), Some(&Value::Int(87)));
    }

    #[test]
    fn create_function_validates_body_eagerly() {
        let f = fdbs();
        let mut m = Meter::new();
        let err = f
            .execute(
                "CREATE FUNCTION Broken (X INT) RETURNS TABLE (Y INT) LANGUAGE SQL RETURN \
                 SELECT GQ.Qual FROM TABLE (NoSuchFunction(Broken.X)) AS GQ",
                &mut m,
            )
            .unwrap_err();
        assert!(err.to_string().contains("NoSuchFunction") || err.to_string().contains("unknown"));
    }

    #[test]
    fn plan_cache_hits_skip_compilation() {
        let f = Fdbs::new(CostModel::default());
        let mut m = Meter::new();
        f.execute("CREATE TABLE T (a INT)", &mut m).unwrap();
        f.execute("INSERT INTO T VALUES (1)", &mut m).unwrap();
        let mut m1 = Meter::new();
        f.execute("SELECT a FROM T", &mut m1).unwrap();
        let first = m1.now_us();
        let mut m2 = Meter::new();
        f.execute("SELECT a FROM T", &mut m2).unwrap();
        let second = m2.now_us();
        assert!(
            first >= second + f.cost().plan_compile,
            "repeated call ({second}) must be at least plan_compile cheaper than first ({first})"
        );
        assert_eq!(f.cached_plan_count(), 1);
    }

    #[test]
    fn warm_statement_fast_path_is_safe() {
        let f = fdbs();
        let mut m = Meter::new();
        // Warm the cache, then re-execute: the raw-SQL fast path must
        // return the same result.
        let sql = "SELECT Name FROM Suppliers WHERE SupplierNo = TargetNo";
        let params = [("TargetNo", Value::Int(2))];
        let cold = f.execute_with_params(sql, &params, &mut m).unwrap();
        let warm = f.execute_with_params(sql, &params, &mut m).unwrap();
        assert_eq!(cold.rows(), warm.rows());
        // Different parameter *values* with the same signature still hit.
        let other = f
            .execute_with_params(sql, &[("TargetNo", Value::Int(1234))], &mut m)
            .unwrap();
        assert_eq!(other.value(0, "Name"), Some(&Value::str("Precision")));
        // A NULL host variable cannot use the fast path; the slow path
        // reports the bind error.
        let err = f
            .execute_with_params(sql, &[("TargetNo", Value::Null)], &mut m)
            .unwrap_err();
        assert!(err.to_string().contains("NULL"), "{err}");
        // DDL clears the cache, so the warm statement never goes stale.
        f.execute("DROP TABLE Suppliers", &mut m).unwrap();
        assert!(f.execute_with_params(sql, &params, &mut m).is_err());
    }

    fn compiles(meter: &Meter) -> usize {
        meter
            .charges()
            .iter()
            .filter(|c| c.step == "Compile statement")
            .count()
    }

    /// 1.5x the capacity in distinct statements never grows the cache past
    /// its capacity; a statement hit between every two of them stays
    /// compiled; an evicted statement pays one compile when it returns.
    #[test]
    fn plan_cache_is_bounded_by_clock_eviction() {
        use crate::PLAN_CACHE_CAPACITY;
        let f = fdbs();
        let run = |sql: &str| {
            let mut m = Meter::new();
            f.execute(sql, &mut m).unwrap();
            compiles(&m)
        };
        let hot = "SELECT Name FROM Suppliers WHERE SupplierNo = 2";
        let one_off = |i: usize| {
            format!(
                "SELECT Name FROM Suppliers WHERE SupplierNo = {}",
                10_000 + i
            )
        };
        let distinct = PLAN_CACHE_CAPACITY * 3 / 2;
        assert_eq!(run(hot), 1);
        for i in 0..distinct {
            assert_eq!(run(&one_off(i)), 1, "statement {i} is new");
            assert_eq!(run(hot), 0, "hot statement recompiled after {i} one-offs");
            assert!(f.cached_plan_count() <= PLAN_CACHE_CAPACITY);
        }
        assert_eq!(f.cached_plan_count(), PLAN_CACHE_CAPACITY);
        // The oldest one-off was evicted: it compiles once on return, then
        // is warm again; the newest one is still cached.
        assert_eq!(run(&one_off(0)), 1);
        assert_eq!(run(&one_off(0)), 0);
        assert_eq!(run(&one_off(distinct - 1)), 0);
        assert_eq!(run(hot), 0);
    }

    #[test]
    fn catalog_changes_and_analyze_invalidate_the_plan_cache() {
        let f = fdbs();
        let mut m = Meter::new();
        let sql = "SELECT Name FROM Suppliers";
        let cached = |f: &Fdbs| {
            let mut m = Meter::new();
            f.execute(sql, &mut m).unwrap();
            compiles(&m) == 0
        };
        assert!(!cached(&f));
        assert!(cached(&f));
        f.execute("CREATE TABLE Other (a INT)", &mut m).unwrap();
        assert_eq!(f.cached_plan_count(), 0, "DDL");
        assert!(!cached(&f));
        f.analyze().unwrap();
        assert_eq!(f.cached_plan_count(), 0, "ANALYZE");
        assert!(!cached(&f));
        f.execute(
            "CREATE FUNCTION F1 (X INT) RETURNS TABLE (Q INT) LANGUAGE SQL RETURN \
             SELECT GQ.Qual FROM TABLE (GetQuality(F1.X)) AS GQ",
            &mut m,
        )
        .unwrap();
        f.execute("SELECT T.Q FROM TABLE (F1(1)) AS T", &mut m)
            .unwrap();
        assert!(f.cached_plan_count() >= 2, "call statement and body plan");
        f.execute("DROP FUNCTION F1", &mut m).unwrap();
        assert_eq!(f.cached_plan_count(), 0, "DROP FUNCTION");
        f.clear_plan_cache();
        assert!(!cached(&f));
    }

    #[test]
    fn dml_update_delete() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .execute(
                "UPDATE Suppliers SET Relia = 99 WHERE SupplierNo = 2",
                &mut m,
            )
            .unwrap();
        assert_eq!(t.value(0, "rows"), Some(&Value::Int(1)));
        let t = f
            .execute("SELECT Relia FROM Suppliers WHERE SupplierNo = 2", &mut m)
            .unwrap();
        assert_eq!(t.value(0, "Relia"), Some(&Value::Int(99)));
        let t = f
            .execute("DELETE FROM Suppliers WHERE SupplierNo = 1", &mut m)
            .unwrap();
        assert_eq!(t.value(0, "rows"), Some(&Value::Int(1)));
        let t = f.execute("SELECT * FROM Suppliers", &mut m).unwrap();
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let f = fdbs();
        let mut m = Meter::new();
        f.execute("INSERT INTO Suppliers (SupplierNo) VALUES (77)", &mut m)
            .unwrap();
        let t = f
            .execute("SELECT Name FROM Suppliers WHERE SupplierNo = 77", &mut m)
            .unwrap();
        assert_eq!(t.value(0, "Name"), Some(&Value::Null));
    }

    #[test]
    fn order_by_distinct_limit() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .execute(
                "SELECT Relia FROM Suppliers ORDER BY Relia DESC LIMIT 2",
                &mut m,
            )
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, "Relia"), Some(&Value::Int(95)));
        let t = f
            .execute("SELECT DISTINCT 1 FROM Suppliers", &mut m)
            .unwrap();
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn drop_function_invalidates() {
        let f = fdbs();
        let mut m = Meter::new();
        f.execute(
            "CREATE FUNCTION F1 (X INT) RETURNS TABLE (Q INT) LANGUAGE SQL RETURN \
             SELECT GQ.Qual FROM TABLE (GetQuality(F1.X)) AS GQ",
            &mut m,
        )
        .unwrap();
        f.execute("SELECT T.Q FROM TABLE (F1(1)) AS T", &mut m)
            .unwrap();
        f.execute("DROP FUNCTION F1", &mut m).unwrap();
        assert!(f
            .execute("SELECT T.Q FROM TABLE (F1(1)) AS T", &mut m)
            .is_err());
    }

    #[test]
    fn call_function_directly() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .call_function("GetQuality", &[Value::Int(1234)], &mut m)
            .unwrap();
        assert_eq!(t.value(0, "Qual"), Some(&Value::Int(93)));
    }

    #[test]
    fn explain_renders_the_plan() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .execute(
                "EXPLAIN SELECT S.Name, GQ.Qual FROM Suppliers AS S, TABLE (GetQuality(S.SupplierNo)) AS GQ WHERE S.SupplierNo = 1234 ORDER BY GQ.Qual LIMIT 5",
                &mut m,
            )
            .unwrap();
        let text: Vec<String> = t.rows().iter().map(|r| r.values()[0].render()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("Limit 5"), "{joined}");
        assert!(joined.contains("Sort"), "{joined}");
        assert!(joined.contains("Project [Name, Qual]"), "{joined}");
        assert!(
            joined.contains("ScanLocal Suppliers AS S [pushdown:"),
            "{joined}"
        );
        assert!(joined.contains("TableFunction GetQuality"), "{joined}");
        assert!(joined.contains("[lateral]"), "{joined}");
        // EXPLAIN of DML is rejected.
        assert!(f.execute("EXPLAIN DELETE FROM Suppliers", &mut m).is_err());
    }

    #[test]
    fn explain_analyze_executes_and_reports_actuals() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .execute(
                "EXPLAIN ANALYZE SELECT S.Name, GQ.Qual FROM Suppliers AS S, TABLE (GetQuality(S.SupplierNo)) AS GQ",
                &mut m,
            )
            .unwrap();
        let joined: String = t
            .rows()
            .iter()
            .map(|r| r.values()[0].render())
            .collect::<Vec<_>>()
            .join("\n");
        // Static plan shape, then the recorded actuals.
        assert!(joined.contains("ScanLocal Suppliers"), "{joined}");
        assert!(joined.contains("Actuals: elapsed="), "{joined}");
        assert!(joined.contains("scan Suppliers"), "{joined}");
        assert!(joined.contains("dependent-udtf GetQuality"), "{joined}");
        assert!(joined.contains("udtf GetQuality"), "{joined}");
        assert!(joined.contains("rows=3"), "{joined}");
        // The statement really executed: the UDTF results were buffered.
        assert!(m.rows_materialized() > 0);
        // The caller's meter is not left tracing.
        assert!(!m.tracing());
        assert!(m.finish_trace().is_none());
        // EXPLAIN ANALYZE of DML is rejected.
        assert!(f
            .execute("EXPLAIN ANALYZE DELETE FROM Suppliers", &mut m)
            .is_err());
    }

    #[test]
    fn explain_marks_independent_functions() {
        let f = fdbs();
        let mut m = Meter::new();
        let t = f
            .execute(
                "EXPLAIN SELECT GQ.Qual, GR.Relia FROM TABLE (GetQuality(1)) AS GQ, TABLE (GetReliability(2)) AS GR",
                &mut m,
            )
            .unwrap();
        let joined: String = t
            .rows()
            .iter()
            .map(|r| r.values()[0].render())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            joined.contains("[independent: join with selection]"),
            "{joined}"
        );
    }

    #[test]
    fn script_execution() {
        let f = Fdbs::new(CostModel::zero());
        let mut m = Meter::new();
        let t = f
            .execute_script(
                "CREATE TABLE X (a INT); INSERT INTO X VALUES (1), (2); SELECT a FROM X ORDER BY a DESC;",
                &mut m,
            )
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, "a"), Some(&Value::Int(2)));
    }
}
