//! The SQL/MED wrapper bridging the FDBS to the workflow engine.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

use fedwf_fdbs::{ChargeItem, ChargeSpec, Udtf};
use fedwf_sim::{Component, CostModel, Meter};
use fedwf_types::sync::{Mutex, RwLock};
use fedwf_types::{FedError, FedResult, Ident, Table, Value};
use fedwf_wfms::{Container, Engine, ProcessInstance, ProcessModel};

use crate::controller::Controller;
use crate::executor::AppSystemExecutor;

/// The wrapper: owns the workflow engine, the deployed process templates
/// and the program executor; isolates the FDBS from "the intricacies of the
/// federated function execution".
pub struct WfmsWrapper {
    engine: Engine,
    executor: AppSystemExecutor,
    controller: Controller,
    /// Read-mostly: every invocation reads, only deployment writes.
    processes: RwLock<BTreeMap<Ident, Arc<ProcessModel>>>,
    /// Templates already loaded by the engine (first instantiation pays the
    /// load cost). Cleared by [`WfmsWrapper::clear_template_cache`].
    /// Read-mostly: the steady-state path only checks membership.
    loaded_templates: RwLock<HashSet<String>>,
    /// The wrapper-internal result cache — one of the paper's future-work
    /// "query optimization options" the wrapper makes available: identical
    /// federated-function invocations are answered from memory instead of
    /// re-running the workflow. Off by default; read-only UDTF semantics
    /// make it sound (no write path can invalidate results mid-query).
    /// Read-mostly: warm traffic takes the shared read side only.
    result_cache: Option<RwLock<BTreeMap<(Ident, String), Table>>>,
    /// A bounded history of completed process instances (most recent last)
    /// — the audit database a production WfMS maintains, queryable through
    /// [`WfmsWrapper::audit_history_table`]. A ring: once full, each new
    /// instance drops the oldest.
    history: Mutex<VecDeque<InstanceRecord>>,
}

/// One line of the instance history.
#[derive(Debug, Clone)]
pub struct InstanceRecord {
    pub process: String,
    pub started_us: u64,
    pub finished_us: u64,
    pub result_rows: usize,
    pub activities_completed: usize,
    pub activities_failed: usize,
}

/// How many completed instances the wrapper remembers.
const HISTORY_CAPACITY: usize = 256;

impl WfmsWrapper {
    pub fn new(controller: Controller) -> WfmsWrapper {
        let cost = controller.cost().clone();
        WfmsWrapper {
            engine: Engine::new(cost),
            executor: AppSystemExecutor::new(controller.registry().clone()),
            controller,
            processes: RwLock::new(BTreeMap::new()),
            loaded_templates: RwLock::new(HashSet::new()),
            result_cache: None,
            history: Mutex::new(VecDeque::with_capacity(HISTORY_CAPACITY)),
        }
    }

    /// Enable the wrapper-internal result cache.
    pub fn with_result_cache(mut self, enabled: bool) -> WfmsWrapper {
        self.result_cache = if enabled {
            Some(RwLock::new(BTreeMap::new()))
        } else {
            None
        };
        self
    }

    /// Drop all cached federated-function results.
    pub fn clear_result_cache(&self) {
        if let Some(cache) = &self.result_cache {
            cache.write().clear();
        }
    }

    pub fn cost(&self) -> &CostModel {
        self.engine.cost()
    }

    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Deploy (register) a workflow process template.
    pub fn deploy_process(&self, model: ProcessModel) -> FedResult<()> {
        let name = Ident::new(model.name.clone());
        let mut processes = self.processes.write();
        if processes.contains_key(&name) {
            return Err(FedError::wrapper(format!(
                "workflow process {name} already deployed"
            )));
        }
        processes.insert(name, Arc::new(model));
        Ok(())
    }

    pub fn process(&self, name: &str) -> FedResult<Arc<ProcessModel>> {
        self.processes
            .read()
            .get(&Ident::new(name))
            .cloned()
            .ok_or_else(|| FedError::wrapper(format!("no workflow process {name} deployed")))
    }

    pub fn process_names(&self) -> Vec<String> {
        self.processes
            .read()
            .values()
            .map(|p| p.name.clone())
            .collect()
    }

    /// Drop all cached template loads — the next instantiation of each
    /// process pays the template-load cost again (cold-cache tier).
    pub fn clear_template_cache(&self) {
        self.loaded_templates.write().clear();
    }

    /// Invoke a deployed process on behalf of the FDBS: the full
    /// wrapper-side sequence of the WfMS architecture (RMI hop, controller
    /// bridge, workflow + Java environment start, navigation, RMI return).
    pub fn invoke_process(
        &self,
        name: &str,
        args: &[Value],
        meter: &mut Meter,
    ) -> FedResult<Table> {
        // Wrapper-internal optimization: answer repeated identical
        // invocations from the result cache.
        let cache_key = self.result_cache.as_ref().map(|cache| {
            let key = (
                Ident::new(name),
                args.iter()
                    .map(|v| format!("{:?}", v))
                    .collect::<Vec<_>>()
                    .join("\u{1f}"),
            );
            meter.charge(
                Component::Fdbs,
                "Wrapper result-cache probe",
                self.cost().wrapper_cache_lookup,
            );
            (cache, key)
        });
        if let Some((cache, key)) = &cache_key {
            if let Some(hit) = cache.read().get(key) {
                return Ok(hit.clone());
            }
        }
        let output = self.invoke_process_instance(name, args, meter)?.output;
        if let Some((cache, key)) = cache_key {
            cache.write().insert(key, output.clone());
        }
        Ok(output)
    }

    /// Like [`WfmsWrapper::invoke_process`] but returns the full instance
    /// (output + audit trail + timings).
    pub fn invoke_process_instance(
        &self,
        name: &str,
        args: &[Value],
        meter: &mut Meter,
    ) -> FedResult<ProcessInstance> {
        if !meter.tracing() {
            return self.invoke_process_instance_inner(name, args, meter);
        }
        meter.span_start(Component::Rmi, format!("wrapper {name}"));
        let result = self.invoke_process_instance_inner(name, args, meter);
        meter.span_end();
        result
    }

    fn invoke_process_instance_inner(
        &self,
        name: &str,
        args: &[Value],
        meter: &mut Meter,
    ) -> FedResult<ProcessInstance> {
        let process = self.process(name)?;
        let cost = self.cost();

        meter.charge(Component::Rmi, "RMI call", cost.wf_rmi_call);
        self.controller.bridge_to_wfms(meter);
        meter.charge(
            Component::JavaEnv,
            "Start workflow and Java environment",
            cost.wf_java_env_start,
        );
        // Steady state only checks membership under the shared read side;
        // the write lock is taken once per template, on first load.
        let template_cold = !self.loaded_templates.read().contains(&process.name);
        if template_cold && self.loaded_templates.write().insert(process.name.clone()) {
            meter.charge(
                Component::WfEngine,
                format!("Load workflow template {}", process.name),
                cost.wf_template_load,
            );
        }

        let input = container_from_args(&process, args)?;
        let instance = self.engine.run(&process, &input, &self.executor, meter)?;
        meter.charge(Component::Rmi, "RMI return", cost.wf_rmi_return);

        // Record the instance in the audit history.
        let completed = instance
            .audit
            .count_events(|e| matches!(e, fedwf_wfms::AuditEvent::ActivityCompleted { .. }));
        let failed = instance
            .audit
            .count_events(|e| matches!(e, fedwf_wfms::AuditEvent::ActivityFailed { .. }));
        let mut history = self.history.lock();
        if history.len() == HISTORY_CAPACITY {
            history.pop_front();
        }
        history.push_back(InstanceRecord {
            process: process.name.clone(),
            started_us: instance.started_us,
            finished_us: instance.finished_us,
            result_rows: instance.output.row_count(),
            activities_completed: completed,
            activities_failed: failed,
        });
        drop(history);
        Ok(instance)
    }

    /// The instance history as a relational table — registered in the FDBS
    /// via [`WfmsWrapper::audit_udtf`], it makes the workflow audit
    /// database queryable with plain SQL.
    pub fn audit_history_table(&self) -> Table {
        let schema = std::sync::Arc::new(fedwf_types::Schema::of(&[
            ("Process", fedwf_types::DataType::Varchar),
            ("StartedUs", fedwf_types::DataType::BigInt),
            ("FinishedUs", fedwf_types::DataType::BigInt),
            ("ElapsedUs", fedwf_types::DataType::BigInt),
            ("ResultRows", fedwf_types::DataType::Int),
            ("ActivitiesCompleted", fedwf_types::DataType::Int),
            ("ActivitiesFailed", fedwf_types::DataType::Int),
        ]));
        let mut t = Table::new(schema);
        for r in self.history.lock().iter() {
            t.push_unchecked(fedwf_types::Row::new(vec![
                Value::str(r.process.clone()),
                Value::BigInt(r.started_us as i64),
                Value::BigInt(r.finished_us as i64),
                Value::BigInt((r.finished_us - r.started_us) as i64),
                Value::Int(r.result_rows as i32),
                Value::Int(r.activities_completed as i32),
                Value::Int(r.activities_failed as i32),
            ]));
        }
        t
    }

    /// A UDTF `WorkflowAudit()` exposing the instance history to SQL.
    pub fn audit_udtf(self: &Arc<Self>) -> Udtf {
        let wrapper = Arc::clone(self);
        let schema = self.audit_history_table().schema().clone();
        Udtf::native("WorkflowAudit", vec![], schema, move |_args, _meter| {
            Ok(wrapper.audit_history_table())
        })
    }

    /// Build the *connecting UDTF* for a deployed process: the table
    /// function the FDBS references in a FROM clause to start the workflow.
    /// Its signature is derived from the process's input container and
    /// output schema; its charges are the connecting sequence of Fig. 6's
    /// left table (start / process / finish UDTF).
    pub fn connecting_udtf(self: &Arc<Self>, process_name: &str) -> FedResult<Udtf> {
        let process = self.process(process_name)?;
        let cost = self.cost().clone();
        let params: Vec<(Ident, fedwf_types::DataType)> = process
            .input
            .fields()
            .iter()
            .map(|(n, t)| (n.clone(), *t))
            .collect();
        let returns = process.output_table_schema();
        let charges = ChargeSpec {
            on_start: vec![
                ChargeItem::new(Component::Udtf, "Start UDTF", cost.wf_conn_udtf_start),
                ChargeItem::new(Component::Udtf, "Process UDTF", cost.wf_conn_udtf_process),
            ],
            on_finish: vec![ChargeItem::new(
                Component::Udtf,
                "Finish UDTF",
                cost.wf_conn_udtf_finish,
            )],
        };
        let wrapper = Arc::clone(self);
        let name = process_name.to_string();
        Ok(Udtf::native(
            Ident::new(process.name.clone()),
            params,
            returns,
            move |args, meter| wrapper.invoke_process(&name, args, meter),
        )
        .with_charges(charges))
    }
}

impl std::fmt::Debug for WfmsWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfmsWrapper")
            .field("processes", &self.process_names())
            .finish()
    }
}

fn container_from_args(process: &ProcessModel, args: &[Value]) -> FedResult<Container> {
    let fields = process.input.fields();
    if args.len() != fields.len() {
        return Err(FedError::wrapper(format!(
            "process {} expects {} input values, got {}",
            process.name,
            fields.len(),
            args.len()
        )));
    }
    let mut container = process.input.instantiate();
    for ((name, _), value) in fields.iter().zip(args) {
        container.set(name, value.clone())?;
    }
    Ok(container)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_appsys::{build_scenario, DataGenConfig};
    use fedwf_fdbs::Fdbs;
    use fedwf_types::DataType;
    use fedwf_wfms::{DataBinding, DataSource, ProcessBuilder};

    fn wrapper() -> Arc<WfmsWrapper> {
        let scenario = build_scenario(DataGenConfig::tiny()).unwrap();
        let controller = Controller::new(scenario.registry, CostModel::default());
        let wrapper = WfmsWrapper::new(controller);
        let process = ProcessBuilder::new("GetSuppQual")
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
            .unwrap();
        wrapper.deploy_process(process).unwrap();
        Arc::new(wrapper)
    }

    #[test]
    fn invoke_process_end_to_end() {
        let w = wrapper();
        let mut meter = Meter::new();
        let t = w
            .invoke_process(
                "GetSuppQual",
                &[Value::str(fedwf_appsys::datagen::WELL_KNOWN_SUPPLIER_NAME)],
                &mut meter,
            )
            .unwrap();
        assert_eq!(t.value(0, "Qual"), Some(&Value::Int(93)));
        // Charges include the RMI hop and the controller bridge.
        assert!(meter
            .charges()
            .iter()
            .any(|c| c.component == Component::Rmi));
        assert!(meter
            .charges()
            .iter()
            .any(|c| c.component == Component::Controller));
    }

    #[test]
    fn template_load_paid_once() {
        let w = wrapper();
        let args = [Value::str(fedwf_appsys::datagen::WELL_KNOWN_SUPPLIER_NAME)];
        let mut m1 = Meter::new();
        w.invoke_process("GetSuppQual", &args, &mut m1).unwrap();
        let mut m2 = Meter::new();
        w.invoke_process("GetSuppQual", &args, &mut m2).unwrap();
        assert_eq!(
            m1.now_us() - m2.now_us(),
            CostModel::default().wf_template_load
        );
        w.clear_template_cache();
        let mut m3 = Meter::new();
        w.invoke_process("GetSuppQual", &args, &mut m3).unwrap();
        assert_eq!(m3.now_us(), m1.now_us());
    }

    #[test]
    fn connecting_udtf_runs_through_fdbs() {
        let w = wrapper();
        let fdbs = Fdbs::new(CostModel::default());
        fdbs.register_udtf(w.connecting_udtf("GetSuppQual").unwrap())
            .unwrap();
        let mut meter = Meter::new();
        let t = fdbs
            .execute_with_params(
                "SELECT GSQ.Qual FROM TABLE (GetSuppQual(Name)) AS GSQ",
                &[(
                    "Name",
                    Value::str(fedwf_appsys::datagen::WELL_KNOWN_SUPPLIER_NAME),
                )],
                &mut meter,
            )
            .unwrap();
        assert_eq!(t.value(0, "Qual"), Some(&Value::Int(93)));
        // The connecting UDTF's start charge is present.
        assert!(meter.charges().iter().any(|c| c.step == "Start UDTF"));
        assert!(meter
            .charges()
            .iter()
            .any(|c| c.step == "Process activities"));
    }

    #[test]
    fn duplicate_deployment_rejected() {
        let w = wrapper();
        let p = ProcessBuilder::new("GetSuppQual")
            .input(&[])
            .constant("c", 1)
            .output_table("c")
            .build()
            .unwrap();
        assert!(w.deploy_process(p).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let w = wrapper();
        let mut meter = Meter::new();
        assert!(w.invoke_process("GetSuppQual", &[], &mut meter).is_err());
        assert!(w.invoke_process("Unknown", &[], &mut meter).is_err());
    }

    #[test]
    fn audit_history_is_queryable_through_sql() {
        let w = wrapper();
        let args = [Value::str(fedwf_appsys::datagen::WELL_KNOWN_SUPPLIER_NAME)];
        let mut m = Meter::new();
        w.invoke_process("GetSuppQual", &args, &mut m).unwrap();
        w.invoke_process("GetSuppQual", &args, &mut m).unwrap();

        let fdbs = Fdbs::new(CostModel::zero());
        fdbs.register_udtf(w.audit_udtf()).unwrap();
        let mut m2 = Meter::new();
        let t = fdbs
            .execute(
                "SELECT A.Process, A.ActivitiesCompleted FROM TABLE (WorkflowAudit()) AS A \
                 WHERE A.Process = 'GetSuppQual'",
                &mut m2,
            )
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, "ActivitiesCompleted"), Some(&Value::Int(2)));
    }

    #[test]
    fn audit_history_is_bounded() {
        let w = wrapper();
        let args = [Value::str(fedwf_appsys::datagen::WELL_KNOWN_SUPPLIER_NAME)];
        for _ in 0..(super::HISTORY_CAPACITY + 10) {
            let mut m = Meter::new();
            w.invoke_process("GetSuppQual", &args, &mut m).unwrap();
        }
        assert_eq!(w.audit_history_table().row_count(), super::HISTORY_CAPACITY);
    }

    #[test]
    fn result_cache_answers_repeated_invocations() {
        let scenario = build_scenario(DataGenConfig::tiny()).unwrap();
        let controller = Controller::new(scenario.registry, CostModel::default());
        let w = WfmsWrapper::new(controller).with_result_cache(true);
        let p = ProcessBuilder::new("GetSuppQual")
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
            .output_table("GetSupplierNo")
            .build()
            .unwrap();
        w.deploy_process(p).unwrap();
        let args = [Value::str(fedwf_appsys::datagen::WELL_KNOWN_SUPPLIER_NAME)];
        let mut m1 = Meter::new();
        let first = w.invoke_process("GetSuppQual", &args, &mut m1).unwrap();
        let mut m2 = Meter::new();
        let second = w.invoke_process("GetSuppQual", &args, &mut m2).unwrap();
        assert_eq!(first, second);
        // The hit costs only the cache probe.
        assert_eq!(m2.now_us(), CostModel::default().wrapper_cache_lookup);
        assert!(m1.now_us() > 10 * m2.now_us());
        // Different arguments miss the cache.
        let mut m3 = Meter::new();
        w.invoke_process("GetSuppQual", &[Value::str("No Such Supplier KG")], &mut m3)
            .unwrap_err(); // unknown supplier fails in the app system
                           // Clearing the cache forces re-execution.
        w.clear_result_cache();
        let mut m4 = Meter::new();
        w.invoke_process("GetSuppQual", &args, &mut m4).unwrap();
        assert!(m4.now_us() > 10 * CostModel::default().wrapper_cache_lookup);
    }
}
