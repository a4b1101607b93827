//! The runtime engine (navigator).
//!
//! The navigator executes a validated [`ProcessModel`]: it schedules every
//! node at the *maximum virtual completion time of its predecessors*, so
//! mutually unordered activities overlap in virtual time — the fork/join
//! behaviour behind the paper's observation that the WfMS runs parallel
//! activities more efficiently than the UDTF approach. Nodes execute one
//! after another in topological order on the caller's thread; parallelism
//! lives in the virtual clock (a fork/join block costs the maximum of its
//! branches), not in real threads.

use std::collections::HashMap;

use fedwf_sim::{Component, CostModel, Meter, SpanNameCache, TraceDetail};
use fedwf_types::{
    cast_value, implicit_cast, FedError, FedResult, Ident, ResultExt, Row, Table, Value,
};

use crate::audit::{AuditEvent, AuditTrail};
use crate::container::{Container, ContainerSchema};
use crate::model::{
    Activity, ActivityKind, DataSource, HelperOp, LoopNode, Node, OutputSource, ProcessModel,
};

/// Executes external programs (local functions of application systems) on
/// behalf of program activities. Implementations must not book costs — the
/// engine accounts for activity and local-function time itself.
pub trait ProgramExecutor: Send + Sync {
    fn execute(&self, function: &str, args: &[Value]) -> FedResult<Table>;
}

/// A closure-map executor, convenient for tests and examples.
/// A registered test program body.
type TestProgram = Box<dyn Fn(&[Value]) -> FedResult<Table> + Send + Sync>;

#[derive(Default)]
pub struct EchoExecutor {
    functions: HashMap<String, TestProgram>,
}

impl EchoExecutor {
    pub fn new() -> EchoExecutor {
        EchoExecutor::default()
    }

    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> FedResult<Table> + Send + Sync + 'static,
    ) {
        self.functions.insert(name.to_lowercase(), Box::new(f));
    }
}

impl ProgramExecutor for EchoExecutor {
    fn execute(&self, function: &str, args: &[Value]) -> FedResult<Table> {
        match self.functions.get(&function.to_lowercase()) {
            Some(f) => f(args),
            None => Err(FedError::workflow(format!(
                "executor has no program {function}"
            ))),
        }
    }
}

/// The result of one process instance.
#[derive(Debug, Clone)]
pub struct ProcessInstance {
    pub output: Table,
    pub audit: AuditTrail,
    pub started_us: u64,
    pub finished_us: u64,
}

impl ProcessInstance {
    pub fn elapsed_us(&self) -> u64 {
        self.finished_us - self.started_us
    }
}

/// How a finished node left the stage.
#[derive(Debug, Clone)]
enum NodeState {
    Done { table: Table, end_us: u64 },
    Skipped { end_us: u64 },
}

impl NodeState {
    fn end_us(&self) -> u64 {
        match self {
            NodeState::Done { end_us, .. } | NodeState::Skipped { end_us } => *end_us,
        }
    }
}

/// The workflow engine.
pub struct Engine {
    cost: CostModel,
    /// Interned span names (`wfms.process P`, `activity A`, `local F`) —
    /// formatted once per deployment, not once per traced span.
    process_spans: SpanNameCache<String>,
    activity_spans: SpanNameCache<Ident>,
    local_spans: SpanNameCache<String>,
}

impl Engine {
    pub fn new(cost: CostModel) -> Engine {
        Engine {
            cost,
            process_spans: SpanNameCache::new(),
            activity_spans: SpanNameCache::new(),
            local_spans: SpanNameCache::new(),
        }
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Run a process instance.
    pub fn run(
        &self,
        process: &ProcessModel,
        input: &Container,
        executor: &dyn ProgramExecutor,
        meter: &mut Meter,
    ) -> FedResult<ProcessInstance> {
        if !meter.tracing() {
            return self.run_body(process, input, executor, meter);
        }
        let span = self
            .process_spans
            .get(process.name.as_str(), str::to_owned, || {
                format!("wfms.process {}", process.name)
            });
        meter.span_start(Component::WfEngine, span);
        let result = self.run_body(process, input, executor, meter);
        meter.span_end();
        result
    }

    fn run_body(
        &self,
        process: &ProcessModel,
        input: &Container,
        executor: &dyn ProgramExecutor,
        meter: &mut Meter,
    ) -> FedResult<ProcessInstance> {
        if input.schema() != &process.input {
            return Err(FedError::workflow(format!(
                "process {} input container does not match the declared schema",
                process.name
            )));
        }
        let started_us = meter.now_us();
        let mut audit = AuditTrail::new();
        audit.record(started_us, process.name.clone(), AuditEvent::ProcessStarted);

        let order = process.topo_order()?;
        let mut states: HashMap<Ident, NodeState> = HashMap::new();
        let mut node_meters: Vec<Meter> = Vec::new();
        let tracing = meter
            .tracing()
            .then(|| (meter.wall_sampling(), meter.trace_detail()));

        for name in &order {
            let r = self.exec_node(process, name, &states, input, executor, started_us, tracing);
            let (name, state, node_meter, node_audit) =
                r.map_err(|e| self.fail(&mut audit, process, meter, e))?;
            audit.extend(node_audit);
            states.insert(name, state);
            node_meters.push(node_meter);
        }

        meter.join(node_meters);

        // Assemble the process output.
        let output = match &process.output {
            OutputSource::NodeTable(name) => match states.get(name) {
                Some(NodeState::Done { table, .. }) => table.clone(),
                _ => Table::new(process.output_table_schema()),
            },
            OutputSource::Row(fields) => {
                let schema = process.output_table_schema();
                let mut values = Vec::with_capacity(fields.len());
                for (fname, dt, source) in fields {
                    let v = resolve_source(source, input, &states, &process.name)?;
                    let v = implicit_cast(&v, *dt).map_err(|e| {
                        FedError::workflow(format!(
                            "process {} output field {fname}: {e}",
                            process.name
                        ))
                    })?;
                    values.push(v);
                }
                let mut t = Table::new(schema);
                t.push_unchecked(Row::new(values));
                t
            }
        };

        audit.record(
            meter.now_us(),
            process.name.clone(),
            AuditEvent::ProcessCompleted,
        );
        Ok(ProcessInstance {
            output,
            audit,
            started_us,
            finished_us: meter.now_us(),
        })
    }

    fn fail(
        &self,
        audit: &mut AuditTrail,
        process: &ProcessModel,
        meter: &Meter,
        e: FedError,
    ) -> FedError {
        audit.record(
            meter.now_us(),
            process.name.clone(),
            AuditEvent::ProcessFailed {
                error: e.to_string(),
            },
        );
        e.with_context(format!("running workflow process {}", process.name))
    }

    /// Execute one node. Returns its name, final state, branch meter and
    /// branch-local audit records.
    #[allow(clippy::too_many_arguments)]
    fn exec_node(
        &self,
        process: &ProcessModel,
        name: &Ident,
        states: &HashMap<Ident, NodeState>,
        input: &Container,
        executor: &dyn ProgramExecutor,
        base_us: u64,
        tracing: Option<(bool, TraceDetail)>,
    ) -> FedResult<(Ident, NodeState, Meter, AuditTrail)> {
        let node = process.node(name).expect("topo order lists known nodes");
        let mut audit = AuditTrail::new();

        // Start when the last predecessor finished.
        let start_us = process
            .predecessors(name)
            .iter()
            .map(|p| states[*p].end_us())
            .max()
            .unwrap_or(base_us);
        let mut node_meter = Meter::starting_at(start_us);
        if let Some((wall, TraceDetail::Full)) = tracing {
            // Node meters are fresh (not forks), so tracing is opted into
            // explicitly; the node span is reparented under the process
            // span when the navigator joins the branch meters. At coarse
            // detail the branch runs *untraced* — no span buffer, no
            // activity span — and `Meter::join` books its charges into the
            // process span instead.
            node_meter.set_tracing(true);
            node_meter.set_wall_sampling(wall);
            node_meter.span_start(
                Component::Activity,
                self.activity_spans
                    .get(name, Ident::clone, || format!("activity {name}")),
            );
        }

        // Start condition: every incoming connector must have a completed
        // source and a true transition condition (dead-path elimination).
        let mut runnable = true;
        for conn in process.connectors.iter().filter(|c| &c.to == name) {
            match states.get(&conn.from) {
                Some(NodeState::Done { table, .. }) => {
                    if conn.condition != crate::condition::Condition::True {
                        node_meter.charge(
                            Component::WfEngine,
                            "Evaluate transition condition",
                            self.cost.wf_condition_eval,
                        );
                        let from_node = process.node(&conn.from).expect("validated connector");
                        let view = first_row_container(&from_node.output_schema(), table);
                        if !conn.condition.evaluate(&view)? {
                            runnable = false;
                        }
                    }
                }
                _ => {
                    runnable = false;
                }
            }
        }
        if !runnable {
            audit.record(
                node_meter.now_us(),
                name.to_string(),
                AuditEvent::ActivitySkipped,
            );
            let end_us = node_meter.now_us();
            node_meter.span_end();
            return Ok((
                name.clone(),
                NodeState::Skipped { end_us },
                node_meter,
                audit,
            ));
        }

        node_meter.charge(
            Component::WfEngine,
            "Workflow navigation",
            self.cost.wf_navigation,
        );
        audit.record(
            node_meter.now_us(),
            name.to_string(),
            AuditEvent::ActivityStarted,
        );

        let table = match node {
            Node::Activity(a) => self.exec_activity(
                a,
                process,
                states,
                input,
                executor,
                &mut node_meter,
                &mut audit,
            )?,
            Node::Loop(l) => self.exec_loop(
                l,
                process,
                states,
                input,
                executor,
                &mut node_meter,
                &mut audit,
            )?,
        };

        audit.record(
            node_meter.now_us(),
            name.to_string(),
            AuditEvent::ActivityCompleted {
                rows: table.row_count(),
            },
        );
        let end_us = node_meter.now_us();
        node_meter.span_counter("rows", table.row_count() as u64);
        node_meter.span_end();
        Ok((
            name.clone(),
            NodeState::Done { table, end_us },
            node_meter,
            audit,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_activity(
        &self,
        activity: &Activity,
        process: &ProcessModel,
        states: &HashMap<Ident, NodeState>,
        input: &Container,
        executor: &dyn ProgramExecutor,
        meter: &mut Meter,
        audit: &mut AuditTrail,
    ) -> FedResult<Table> {
        match &activity.kind {
            ActivityKind::Program { function, inputs } => {
                let mut args = Vec::with_capacity(inputs.len());
                for b in inputs {
                    args.push(resolve_source(&b.source, input, states, &process.name)?);
                }
                let mut attempt = 0;
                loop {
                    attempt += 1;
                    // Every attempt boots a fresh Java program for the
                    // activity implementation and marshals its containers.
                    meter.charge(
                        Component::Activity,
                        "Process activities",
                        self.cost.wf_activity_program_start,
                    );
                    meter.charge(
                        Component::Activity,
                        "Process activities",
                        self.cost.wf_activity_container,
                    );
                    let span = meter.fine_tracing();
                    if span {
                        meter.span_start(
                            Component::LocalFunction,
                            self.local_spans.get(function.as_str(), str::to_owned, || {
                                format!("local {function}")
                            }),
                        );
                    }
                    match executor.execute(function, &args) {
                        Ok(table) => {
                            check_output_schema(&activity.output, &table, &activity.name)?;
                            meter.charge(
                                Component::LocalFunction,
                                "Process activities",
                                self.cost.local_function_cost(table.row_count()),
                            );
                            if span {
                                meter.span_counter("rows", table.row_count() as u64);
                                meter.span_end();
                            }
                            return Ok(table);
                        }
                        Err(e) => {
                            if span {
                                meter.span_end();
                            }
                            audit.record(
                                meter.now_us(),
                                activity.name.to_string(),
                                AuditEvent::ActivityFailed {
                                    attempt,
                                    error: e.to_string(),
                                },
                            );
                            if attempt >= activity.retry.max_attempts {
                                return Err(e.with_context(format!(
                                    "activity {} failed after {attempt} attempt(s)",
                                    activity.name
                                )));
                            }
                        }
                    }
                }
            }
            ActivityKind::Helper(op) => {
                meter.charge(
                    Component::Activity,
                    "Helper activity",
                    self.cost.wf_helper_activity,
                );
                self.exec_helper(op, &activity.output, process, states, input, meter)
            }
        }
    }

    fn exec_helper(
        &self,
        op: &HelperOp,
        output: &ContainerSchema,
        process: &ProcessModel,
        states: &HashMap<Ident, NodeState>,
        input: &Container,
        meter: &mut Meter,
    ) -> FedResult<Table> {
        let single = |value: Value| -> FedResult<Table> {
            let schema = schema_of(output);
            let mut t = Table::new(schema);
            t.push(Row::new(vec![value]))?;
            Ok(t)
        };
        match op {
            HelperOp::Const { value, .. } => single(value.clone()),
            HelperOp::Cast { input: src, to, .. } => {
                let v = resolve_source(src, input, states, &process.name)?;
                single(cast_value(&v, *to)?)
            }
            HelperOp::Add { left, right, .. } => {
                let l = resolve_source(left, input, states, &process.name)?;
                let r = resolve_source(right, input, states, &process.name)?;
                let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) else {
                    return Err(FedError::workflow(
                        "Add helper requires non-null integer operands",
                    ));
                };
                let sum = a
                    .checked_add(b)
                    .ok_or_else(|| FedError::workflow("Add helper overflowed"))?;
                single(cast_value(&Value::BigInt(sum), fedwf_types::DataType::Int)?)
            }
            HelperOp::Join {
                left,
                right,
                left_on,
                right_on,
                project,
            } => {
                let left_table = done_table(states, left)?;
                let right_table = done_table(states, right)?;
                let left_schema = process.node(left).expect("validated").output_schema();
                let right_schema = process.node(right).expect("validated").output_schema();
                let li = field_index(&left_schema, left_on);
                let ri = field_index(&right_schema, right_on);
                // Composing two result sets costs work proportional to the
                // examined row pairs.
                meter.charge(
                    Component::Activity,
                    "Helper activity",
                    self.cost.wf_helper_per_row
                        * (left_table.row_count() * right_table.row_count()) as u64,
                );
                let schema = schema_of(output);
                let mut out = Table::new(schema);
                for lrow in left_table.rows() {
                    for rrow in right_table.rows() {
                        if lrow.values()[li].sql_eq(&rrow.values()[ri]) == Some(true) {
                            let mut values = Vec::with_capacity(project.len());
                            for (from_left, src, _) in project {
                                let (row, schema) = if *from_left {
                                    (lrow, &left_schema)
                                } else {
                                    (rrow, &right_schema)
                                };
                                values.push(row.values()[field_index(schema, src)].clone());
                            }
                            out.push_unchecked(Row::new(values));
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_loop(
        &self,
        l: &LoopNode,
        process: &ProcessModel,
        states: &HashMap<Ident, NodeState>,
        input: &Container,
        executor: &dyn ProgramExecutor,
        meter: &mut Meter,
        audit: &mut AuditTrail,
    ) -> FedResult<Table> {
        // Initialize the loop variables.
        let mut vars = l.vars.instantiate();
        for b in &l.init {
            let v = resolve_source(&b.source, input, states, &process.name)?;
            vars.set(&b.target, v)
                .context(format!("initializing loop {}", l.name))?;
        }

        let body_schema = l.body.output_schema();
        let mut accumulated = Table::new(schema_of(&l.body.output_schema()));
        let mut iteration = 0;
        loop {
            iteration += 1;
            if iteration > l.max_iterations {
                return Err(FedError::workflow(format!(
                    "loop {} exceeded max_iterations = {}",
                    l.name, l.max_iterations
                )));
            }
            meter.charge(
                Component::WfEngine,
                "Start sub-workflow",
                self.cost.wf_subworkflow_start,
            );
            let instance = self.run(&l.body, &vars, executor, meter)?;
            audit.extend(instance.audit);
            if l.accumulate {
                for row in instance.output.rows() {
                    accumulated.push_unchecked(row.clone());
                }
            }
            // Update the loop variables from the body output's first row.
            if !l.update.is_empty() {
                let view = first_row_container(&body_schema, &instance.output);
                for (var, from) in &l.update {
                    vars.set(var, view.get(from)?)
                        .context(format!("updating loop {}", l.name))?;
                }
            }
            // Built-in counter increment.
            if let Some((var, step)) = &l.counter {
                let current = vars.get(var)?.as_i64().ok_or_else(|| {
                    FedError::workflow(format!("loop {}: counter {var} is not an integer", l.name))
                })?;
                let next = Value::BigInt(current + step);
                let declared = l.vars.field_type(var).expect("validated counter variable");
                vars.set(var, fedwf_types::cast_value(&next, declared)?)
                    .context(format!("incrementing loop counter in {}", l.name))?;
            }
            audit.record(
                meter.now_us(),
                l.name.to_string(),
                AuditEvent::LoopIteration { iteration },
            );
            meter.charge(
                Component::WfEngine,
                "Evaluate transition condition",
                self.cost.wf_condition_eval,
            );
            if l.until.evaluate(&vars)? {
                break;
            }
        }

        if l.accumulate {
            Ok(accumulated)
        } else {
            let mut t = Table::new(schema_of(&l.vars));
            t.push_unchecked(Row::new(vars.values_in_order()));
            Ok(t)
        }
    }
}

// ---- small helpers -------------------------------------------------------

fn schema_of(cs: &ContainerSchema) -> fedwf_types::SchemaRef {
    std::sync::Arc::new(fedwf_types::Schema::of(
        &cs.fields()
            .iter()
            .map(|(n, t)| (n.as_str(), *t))
            .collect::<Vec<_>>(),
    ))
}

fn field_index(schema: &ContainerSchema, name: &Ident) -> usize {
    schema
        .fields()
        .iter()
        .position(|(n, _)| n == name)
        .expect("validated field")
}

/// View the first row of a table as a container (missing/short = NULLs).
fn first_row_container(schema: &ContainerSchema, table: &Table) -> Container {
    let mut c = schema.instantiate();
    if let Some(row) = table.rows().first() {
        for (i, (name, _)) in schema.fields().iter().enumerate() {
            if let Some(v) = row.get(i) {
                // Values in the table already satisfy the schema's types.
                let _ = c.set(name, v.clone());
            }
        }
    }
    c
}

fn done_table<'a>(states: &'a HashMap<Ident, NodeState>, name: &Ident) -> FedResult<&'a Table> {
    match states.get(name) {
        Some(NodeState::Done { table, .. }) => Ok(table),
        _ => Err(FedError::workflow(format!(
            "node {name} produced no result (skipped or not yet run)"
        ))),
    }
}

fn resolve_source(
    source: &DataSource,
    input: &Container,
    states: &HashMap<Ident, NodeState>,
    process: &str,
) -> FedResult<Value> {
    match source {
        DataSource::Constant(v) => Ok(v.clone()),
        DataSource::ProcessInput(f) => input.get(f),
        DataSource::ActivityOutput { activity, field } => match states.get(activity) {
            Some(NodeState::Done { table, .. }) => {
                let idx = table.schema().index_of(field).ok_or_else(|| {
                    FedError::workflow(format!(
                        "process {process}: node {activity} output has no column {field}"
                    ))
                })?;
                match table.rows().first() {
                    Some(row) => Ok(row.values()[idx].clone()),
                    None => Err(FedError::workflow(format!(
                        "process {process}: node {activity} returned no row for {field}"
                    ))),
                }
            }
            Some(NodeState::Skipped { .. }) => Ok(Value::Null),
            None => Err(FedError::workflow(format!(
                "process {process}: node {activity} has not produced output yet"
            ))),
        },
    }
}

fn check_output_schema(
    declared: &ContainerSchema,
    table: &Table,
    activity: &Ident,
) -> FedResult<()> {
    let actual = table.schema();
    if actual.len() != declared.len() {
        return Err(FedError::workflow(format!(
            "activity {activity}: program returned {} columns, declared {}",
            actual.len(),
            declared.len()
        )));
    }
    for (col, (dname, dtype)) in actual.columns().iter().zip(declared.fields()) {
        if &col.name != dname || col.data_type != *dtype {
            return Err(FedError::workflow(format!(
                "activity {activity}: program output column {} {} does not match declared {dname} {dtype}",
                col.name, col.data_type
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcessBuilder;
    use crate::condition::{CondOp, Condition};
    use crate::model::DataBinding;
    use fedwf_types::DataType;

    fn executor() -> EchoExecutor {
        let mut ex = EchoExecutor::new();
        ex.register("GetSupplierNo", |args| {
            assert_eq!(args.len(), 1);
            Ok(Table::scalar("SupplierNo", Value::Int(1234)))
        });
        ex.register("GetQuality", |args| {
            let n = args[0].as_i64().unwrap();
            Ok(Table::scalar(
                "Qual",
                Value::Int(if n == 1234 { 93 } else { 10 }),
            ))
        });
        ex.register("GetReliability", |_| {
            Ok(Table::scalar("Relia", Value::Int(87)))
        });
        ex.register("Fail", |_| Err(FedError::app_system("boom")));
        ex
    }

    fn linear_process() -> ProcessModel {
        ProcessBuilder::new("GetSuppQual")
            .input(&[("SupplierName", DataType::Varchar)])
            .program(
                "GetSupplierNo",
                "GetSupplierNo",
                vec![DataBinding::new(
                    "SupplierName",
                    DataSource::input("SupplierName"),
                )],
                &[("SupplierNo", DataType::Int)],
            )
            .program(
                "GetQuality",
                "GetQuality",
                vec![DataBinding::new(
                    "SupplierNo",
                    DataSource::output("GetSupplierNo", "SupplierNo"),
                )],
                &[("Qual", DataType::Int)],
            )
            .sequence(&["GetSupplierNo", "GetQuality"])
            .output_table("GetQuality")
            .build()
            .unwrap()
    }

    fn run_process(p: &ProcessModel) -> (ProcessInstance, Meter) {
        let engine = Engine::new(CostModel::default());
        let mut input = p.input.instantiate();
        if p.input.has_field(&Ident::new("SupplierName")) {
            input
                .set(&Ident::new("SupplierName"), Value::str("Acme"))
                .unwrap();
        }
        let ex = executor();
        let mut meter = Meter::new();
        let instance = engine.run(p, &input, &ex, &mut meter).unwrap();
        (instance, meter)
    }

    #[test]
    fn linear_process_produces_result() {
        let p = linear_process();
        let (instance, _) = run_process(&p);
        assert_eq!(instance.output.value(0, "Qual"), Some(&Value::Int(93)));
        assert_eq!(
            instance
                .audit
                .count_events(|e| matches!(e, AuditEvent::ActivityCompleted { .. })),
            2
        );
    }

    fn parallel_process() -> ProcessModel {
        // Two independent program activities (the independent case).
        ProcessBuilder::new("GetSuppQualRelia")
            .input(&[("SupplierName", DataType::Varchar)])
            .program(
                "A",
                "GetReliability",
                vec![DataBinding::new(
                    "SupplierName",
                    DataSource::input("SupplierName"),
                )],
                &[("Relia", DataType::Int)],
            )
            .program(
                "B",
                "GetReliability",
                vec![DataBinding::new(
                    "SupplierName",
                    DataSource::input("SupplierName"),
                )],
                &[("Relia", DataType::Int)],
            )
            .output_table("A")
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_activities_overlap_in_virtual_time() {
        let p = parallel_process();
        let (instance, meter) = run_process(&p);
        let cost = CostModel::default();
        let per_activity = cost.wf_navigation
            + cost.wf_activity_program_start
            + cost.wf_activity_container
            + cost.local_function_cost(1);
        // Elapsed is ONE activity's worth, booked is TWO activities' worth.
        assert_eq!(instance.elapsed_us(), per_activity);
        assert_eq!(meter.total_booked_us(), 2 * per_activity);
    }

    #[test]
    fn sequential_activities_accumulate_virtual_time() {
        let p = linear_process();
        let (instance, _) = run_process(&p);
        let cost = CostModel::default();
        let per_activity = cost.wf_navigation
            + cost.wf_activity_program_start
            + cost.wf_activity_container
            + cost.local_function_cost(1);
        assert_eq!(instance.elapsed_us(), 2 * per_activity);
    }

    #[test]
    fn false_transition_condition_skips_downstream() {
        let p = ProcessBuilder::new("cond")
            .input(&[])
            .program("A", "GetReliability", vec![], &[("Relia", DataType::Int)])
            .constant("B", 7)
            .connector_if("A", "B", Condition::cmp("Relia", CondOp::Lt, 0))
            .output_row(&[("x", DataType::Int, DataSource::output("B", "value"))])
            .build()
            .unwrap();
        let engine = Engine::new(CostModel::zero());
        let ex = executor();
        let mut meter = Meter::new();
        let input = p.input.instantiate();
        let instance = engine.run(&p, &input, &ex, &mut meter).unwrap();
        assert_eq!(
            instance
                .audit
                .count_events(|e| matches!(e, AuditEvent::ActivitySkipped)),
            1
        );
        // The skipped node contributes NULL to the output row.
        assert_eq!(instance.output.value(0, "x"), Some(&Value::Null));
    }

    #[test]
    fn retry_policy_retries_then_fails() {
        let p = ProcessBuilder::new("retrying")
            .input(&[])
            .program("F", "Fail", vec![], &[("x", DataType::Int)])
            .with_retry(3)
            .output_table("F")
            .build()
            .unwrap();
        let engine = Engine::new(CostModel::zero());
        let ex = executor();
        let mut meter = Meter::new();
        let input = p.input.instantiate();
        let err = engine.run(&p, &input, &ex, &mut meter).unwrap_err();
        assert!(err.to_string().contains("after 3 attempt"));
    }

    #[test]
    fn helper_cast_and_const() {
        let p = ProcessBuilder::new("simple_case")
            .input(&[("CompNo", DataType::Int)])
            .constant("SupplierConst", 1234)
            .cast("Widen", DataSource::input("CompNo"), DataType::BigInt)
            .connector("SupplierConst", "Widen")
            .output_row(&[
                (
                    "Supplier",
                    DataType::Int,
                    DataSource::output("SupplierConst", "value"),
                ),
                (
                    "Number",
                    DataType::BigInt,
                    DataSource::output("Widen", "value"),
                ),
            ])
            .build()
            .unwrap();
        let engine = Engine::new(CostModel::zero());
        let ex = executor();
        let mut meter = Meter::new();
        let mut input = p.input.instantiate();
        input.set(&Ident::new("CompNo"), Value::Int(42)).unwrap();
        let out = engine.run(&p, &input, &ex, &mut meter).unwrap().output;
        assert_eq!(out.value(0, "Supplier"), Some(&Value::Int(1234)));
        assert_eq!(out.value(0, "Number"), Some(&Value::BigInt(42)));
    }

    #[test]
    fn do_until_loop_accumulates() {
        // Body: GetName(i) -> (Name); loop i = 1..=3, accumulating names.
        let body = ProcessBuilder::new("body")
            .input(&[("i", DataType::Int)])
            .program(
                "GetName",
                "GetName",
                vec![DataBinding::new("CompNo", DataSource::input("i"))],
                &[("Name", DataType::Varchar)],
            )
            .add("Inc", DataSource::input("i"), DataSource::constant(1))
            .connector("GetName", "Inc")
            .output_row(&[
                (
                    "Name",
                    DataType::Varchar,
                    DataSource::output("GetName", "Name"),
                ),
                ("i", DataType::Int, DataSource::output("Inc", "value")),
            ])
            .build()
            .unwrap();
        let p = ProcessBuilder::new("AllCompNames")
            .input(&[("N", DataType::Int)])
            .loop_node(LoopNode {
                name: Ident::new("NameLoop"),
                vars: ContainerSchema::new(&[("i", DataType::Int)]),
                init: vec![DataBinding::new("i", DataSource::constant(1))],
                body,
                update: vec![(Ident::new("i"), Ident::new("i"))],
                counter: None,
                until: Condition::cmp("i", CondOp::Gt, 3),
                accumulate: true,
                max_iterations: 100,
            })
            .output_table("NameLoop")
            .build()
            .unwrap();
        let mut ex = EchoExecutor::new();
        ex.register("GetName", |args| {
            Ok(Table::scalar(
                "Name",
                Value::str(format!("comp-{}", args[0].as_i64().unwrap())),
            ))
        });
        let engine = Engine::new(CostModel::zero());
        let mut meter = Meter::new();
        let mut input = p.input.instantiate();
        input.set(&Ident::new("N"), Value::Int(3)).unwrap();
        let instance = engine.run(&p, &input, &ex, &mut meter).unwrap();
        // Output has one accumulated row per iteration... with both columns
        // of the body output.
        assert_eq!(instance.output.row_count(), 3);
        assert_eq!(
            instance.output.value(0, "Name"),
            Some(&Value::str("comp-1"))
        );
        assert_eq!(
            instance.output.value(2, "Name"),
            Some(&Value::str("comp-3"))
        );
        assert_eq!(
            instance
                .audit
                .count_events(|e| matches!(e, AuditEvent::LoopIteration { .. })),
            3
        );
    }

    #[test]
    fn loop_respects_max_iterations() {
        let body = ProcessBuilder::new("body")
            .input(&[("i", DataType::Int)])
            .add("Inc", DataSource::input("i"), DataSource::constant(0))
            .output_row(&[("i", DataType::Int, DataSource::output("Inc", "value"))])
            .build()
            .unwrap();
        let p = ProcessBuilder::new("diverge")
            .input(&[])
            .loop_node(LoopNode {
                name: Ident::new("L"),
                vars: ContainerSchema::new(&[("i", DataType::Int)]),
                init: vec![DataBinding::new("i", DataSource::constant(0))],
                body,
                update: vec![(Ident::new("i"), Ident::new("i"))],
                counter: None,
                until: Condition::cmp("i", CondOp::Gt, 10),
                accumulate: false,
                max_iterations: 5,
            })
            .output_table("L")
            .build()
            .unwrap();
        let engine = Engine::new(CostModel::zero());
        let ex = EchoExecutor::new();
        let mut meter = Meter::new();
        let input = p.input.instantiate();
        let err = engine.run(&p, &input, &ex, &mut meter).unwrap_err();
        assert!(err.to_string().contains("max_iterations"));
    }

    #[test]
    fn loop_time_is_linear_in_iterations() {
        // The AllCompNames measurement: elapsed time rises linearly with
        // the number of calls of the same local function.
        let elapsed_for = |n: i32| -> u64 {
            let body = ProcessBuilder::new("body")
                .input(&[("i", DataType::Int)])
                .program(
                    "GetName",
                    "GetName",
                    vec![DataBinding::new("CompNo", DataSource::input("i"))],
                    &[("Name", DataType::Varchar)],
                )
                .add("Inc", DataSource::input("i"), DataSource::constant(1))
                .connector("GetName", "Inc")
                .output_row(&[("i", DataType::Int, DataSource::output("Inc", "value"))])
                .build()
                .unwrap();
            let p = ProcessBuilder::new("AllCompNames")
                .input(&[])
                .loop_node(LoopNode {
                    name: Ident::new("L"),
                    vars: ContainerSchema::new(&[("i", DataType::Int)]),
                    init: vec![DataBinding::new("i", DataSource::constant(1))],
                    body,
                    update: vec![(Ident::new("i"), Ident::new("i"))],
                    counter: None,
                    until: Condition::cmp("i", CondOp::Gt, n),
                    accumulate: false,
                    max_iterations: 10_000,
                })
                .output_table("L")
                .build()
                .unwrap();
            let mut ex = EchoExecutor::new();
            ex.register("GetName", |_| Ok(Table::scalar("Name", Value::str("x"))));
            let engine = Engine::new(CostModel::default());
            let mut meter = Meter::new();
            let input = p.input.instantiate();
            engine
                .run(&p, &input, &ex, &mut meter)
                .unwrap()
                .elapsed_us()
        };
        let t1 = elapsed_for(1);
        let t2 = elapsed_for(2);
        let t4 = elapsed_for(4);
        let step = t2 - t1;
        assert_eq!(t4 - t2, 2 * step, "per-iteration cost must be constant");
    }

    #[test]
    fn program_output_schema_mismatch_detected() {
        let p = ProcessBuilder::new("bad")
            .input(&[])
            .program("A", "GetReliability", vec![], &[("Wrong", DataType::Int)])
            .output_table("A")
            .build()
            .unwrap();
        let engine = Engine::new(CostModel::zero());
        let ex = executor();
        let mut meter = Meter::new();
        let input = p.input.instantiate();
        assert!(engine.run(&p, &input, &ex, &mut meter).is_err());
    }

    #[test]
    fn wrong_input_container_rejected() {
        let p = linear_process();
        let engine = Engine::new(CostModel::zero());
        let ex = executor();
        let mut meter = Meter::new();
        let wrong = ContainerSchema::new(&[("other", DataType::Int)]).instantiate();
        assert!(engine.run(&p, &wrong, &ex, &mut meter).is_err());
    }
}
