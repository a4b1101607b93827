//! The integration server facade — "the middle tier" of Fig. 2.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fedwf_appsys::{build_scenario, DataGenConfig, Scenario};
use fedwf_fdbs::Fdbs;
use fedwf_sim::env::Process;
use fedwf_sim::{
    Component, CostModel, Counter, EnvState, Histogram, Meter, MetricsRegistry, MetricsSnapshot,
    SpanName, SpanNameCache,
};
use fedwf_types::sync::{Mutex, RwLock};
use fedwf_types::{CommitMode, FedError, FedResult, Ident, Params, Table, Value};
use fedwf_wrapper::{Controller, WfmsWrapper};

use crate::arch::{
    Architecture, ArchitectureKind, DeployedFunction, JavaUdtfArchitecture, SimpleUdtfArchitecture,
    SqlUdtfArchitecture, WfmsArchitecture,
};
use crate::mapping::MappingSpec;
use crate::request::{Outcome, Request, Target};

/// Durable local storage for the FDBS's own tables: a directory holding
/// `wal.log` + `snapshot.bin`. Absent, the local store is purely in-memory
/// (the default for simulations).
#[derive(Debug, Clone)]
pub struct LocalStoreConfig {
    pub dir: std::path::PathBuf,
}

impl LocalStoreConfig {
    pub fn at(dir: impl Into<std::path::PathBuf>) -> LocalStoreConfig {
        LocalStoreConfig { dir: dir.into() }
    }

    /// Kept for the repository benchmark only, which still calls it with
    /// [`CommitMode::group`]: the store has one commit path, so this changes
    /// nothing. It goes with the benchmark's next change.
    pub fn with_commit_mode(self, _mode: CommitMode) -> LocalStoreConfig {
        self
    }
}

/// Configuration of one integration-server instance ("one prototype").
#[derive(Debug, Clone)]
pub struct IntegrationConfig {
    pub cost: CostModel,
    pub data: DataGenConfig,
    pub architecture: ArchitectureKind,
    /// Enable the wrapper-internal federated-function result cache (the
    /// paper's future-work "query optimization options").
    pub result_cache: bool,
    /// WAL-backed persistence for the FDBS local store. Concurrent
    /// [`crate::ServerFront`] callers committing INSERTs share
    /// `fdatasync`s: the statements committed while one batch syncs are
    /// written together by whichever of their callers leads the next.
    pub local_store: Option<LocalStoreConfig>,
}

impl Default for IntegrationConfig {
    fn default() -> IntegrationConfig {
        IntegrationConfig {
            cost: CostModel::default(),
            data: DataGenConfig::default(),
            architecture: ArchitectureKind::Wfms,
            result_cache: false,
            local_store: None,
        }
    }
}

impl IntegrationConfig {
    pub fn with_architecture(mut self, architecture: ArchitectureKind) -> Self {
        self.architecture = architecture;
        self
    }

    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    pub fn with_data(mut self, data: DataGenConfig) -> Self {
        self.data = data;
        self
    }

    pub fn with_local_store(mut self, local_store: LocalStoreConfig) -> Self {
        self.local_store = Some(local_store);
        self
    }
}

/// A deployed federated function and its single-flight warm-up state.
struct Deployment {
    function: Arc<DeployedFunction>,
    /// Set by the first successful call since the last `clear_caches`:
    /// from then on every cache a call touches (FDBS plans, workflow
    /// templates) is warm, and calls run concurrently after one atomic
    /// load. The `Release` store after the warming call pairs with the
    /// `Acquire` loads in [`Deployment::call`].
    warm: AtomicBool,
    /// Held by the one caller that warms the caches; the other cold
    /// callers wait here and then see a fully warm state instead of each
    /// paying part of the warm-up.
    warming: Mutex<()>,
}

impl Deployment {
    fn call(&self, args: &[Value], meter: &mut Meter) -> FedResult<Table> {
        if self.warm.load(Ordering::Acquire) {
            return self.function.call(args, meter);
        }
        let warming = self.warming.lock();
        if self.warm.load(Ordering::Acquire) {
            drop(warming);
            return self.function.call(args, meter);
        }
        let result = self.function.call(args, meter);
        if result.is_ok() {
            self.warm.store(true, Ordering::Release);
        }
        result
    }
}

/// The integration server: application systems at the bottom, FDBS + WfMS
/// (through controller and wrapper) in the middle, SQL at the top.
pub struct IntegrationServer {
    config: IntegrationConfig,
    scenario: Scenario,
    fdbs: Arc<Fdbs>,
    wrapper: Arc<WfmsWrapper>,
    controller: Controller,
    /// Read-mostly catalog of deployed federated functions: every call
    /// takes a shared read lock; only `deploy` writes.
    deployed: RwLock<BTreeMap<Ident, Arc<Deployment>>>,
    /// Which processes have booted; only consulted while the environment
    /// is still cold — the hot call path short-circuits on
    /// [`Self::all_booted`].
    env: Mutex<EnvState>,
    /// Set once every process this configuration needs has booted; from
    /// then on `charge_boots` is a single atomic load, no lock at all.
    all_booted: AtomicBool,
    /// Phase guard making cache-clear transitions atomic with respect to
    /// in-flight calls: calls hold a shared read guard for their whole
    /// duration, `clear_caches` takes the exclusive write side — so no
    /// call can observe a half-cleared environment (e.g. plan cache
    /// already cold while the template cache is still warm).
    phase: RwLock<()>,
    /// Operational metrics of this server instance (requests, errors,
    /// elapsed-time histogram). Per-instance so that parallel servers in
    /// one process do not pollute each other's counters.
    metrics: Arc<MetricsRegistry>,
    /// The request-path instruments of [`Self::metrics`], registered once.
    calls: Counter,
    queries: Counter,
    errors: Counter,
    elapsed_us: Histogram,
    /// Interned `request {name}` span names of traced function calls, so
    /// the traced hot path does not re-format the root span name on every
    /// call. SQL labels are whole statements and are never interned.
    request_spans: SpanNameCache<String>,
}

impl IntegrationServer {
    pub fn new(config: IntegrationConfig) -> FedResult<IntegrationServer> {
        let scenario = build_scenario(config.data.clone())?;
        let controller = Controller::new(scenario.registry.clone(), config.cost.clone());
        let wrapper =
            Arc::new(WfmsWrapper::new(controller.clone()).with_result_cache(config.result_cache));
        let fdbs = match &config.local_store {
            Some(spec) => {
                let durability = fedwf_relstore::Durability::at_path(&spec.dir)?;
                let local = fedwf_relstore::Database::open_with("fdbs", durability)?;
                Arc::new(Fdbs::with_local(config.cost.clone(), local))
            }
            None => Arc::new(Fdbs::new(config.cost.clone())),
        };
        // The workflow audit database is queryable through SQL.
        fdbs.register_udtf(wrapper.audit_udtf())?;
        let metrics = Arc::new(MetricsRegistry::new());
        Ok(IntegrationServer {
            config,
            scenario,
            fdbs,
            wrapper,
            controller,
            deployed: RwLock::new(BTreeMap::new()),
            env: Mutex::new(EnvState::cold()),
            all_booted: AtomicBool::new(false),
            phase: RwLock::new(()),
            calls: metrics.counter("server.calls"),
            queries: metrics.counter("server.queries"),
            errors: metrics.counter("server.errors"),
            elapsed_us: metrics.histogram("server.elapsed_us"),
            metrics,
            request_spans: SpanNameCache::new(),
        })
    }

    /// Convenience: a server with the given architecture and defaults.
    pub fn with_architecture(kind: ArchitectureKind) -> FedResult<IntegrationServer> {
        IntegrationServer::new(IntegrationConfig::default().with_architecture(kind))
    }

    pub fn config(&self) -> &IntegrationConfig {
        &self.config
    }

    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    pub fn fdbs(&self) -> &Arc<Fdbs> {
        &self.fdbs
    }

    pub fn wrapper(&self) -> &Arc<WfmsWrapper> {
        &self.wrapper
    }

    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The architecture implementation configured for this server.
    pub fn architecture(&self) -> Box<dyn Architecture + '_> {
        match self.config.architecture {
            ArchitectureKind::Wfms => Box::new(WfmsArchitecture::new(
                self.fdbs.clone(),
                self.wrapper.clone(),
            )),
            ArchitectureKind::SqlUdtf => Box::new(SqlUdtfArchitecture::new(
                self.fdbs.clone(),
                self.controller.clone(),
            )),
            ArchitectureKind::JavaUdtf => Box::new(JavaUdtfArchitecture::new(
                self.fdbs.clone(),
                self.controller.clone(),
            )),
            ArchitectureKind::SimpleUdtf => Box::new(SimpleUdtfArchitecture::new(
                self.fdbs.clone(),
                self.controller.clone(),
            )),
        }
    }

    /// Deploy a federated function.
    pub fn deploy(&self, spec: &MappingSpec) -> FedResult<()> {
        let function = Arc::new(self.architecture().deploy(spec)?);
        self.deployed.write().insert(
            spec.name.clone(),
            Arc::new(Deployment {
                function,
                warm: AtomicBool::new(false),
                warming: Mutex::new(()),
            }),
        );
        Ok(())
    }

    pub fn deployed_function(&self, name: &str) -> FedResult<Arc<DeployedFunction>> {
        Ok(self.deployment(name)?.function.clone())
    }

    fn deployment(&self, name: &str) -> FedResult<Arc<Deployment>> {
        self.deployed
            .read()
            .get(&Ident::new(name))
            .cloned()
            .ok_or_else(|| FedError::catalog(format!("federated function {name} is not deployed")))
    }

    pub fn deployed_names(&self) -> Vec<String> {
        self.deployed
            .read()
            .keys()
            .map(|k| k.as_str().to_string())
            .collect()
    }

    /// This server's operational metrics (request counters, error counter,
    /// elapsed-time histogram). Expose via
    /// [`fedwf_sim::MetricsRegistry::render_text`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Execute one [`Request`] — the unified entry point behind both the
    /// federated-function surface and the SQL surface.
    ///
    /// Thread-safe and read-mostly: concurrent requests share the phase
    /// read guard and the deployed-catalog read lock; once the environment
    /// is booted, no exclusive lock is taken anywhere on this path.
    ///
    /// With `traced(true)` the returned [`Outcome::trace`] holds the span
    /// tree of the whole execution; tracing never adds virtual-time
    /// charges, so the meter is identical either way.
    ///
    /// [`Outcome::metrics_delta`] holds this request's own increments of
    /// [`Self::metrics`], so concurrent requests never see each other's.
    pub fn execute(&self, request: &Request) -> FedResult<Outcome> {
        let _phase = self.phase.read();
        let mut meter = Meter::new();
        if request.trace_requested() {
            meter.set_tracing(true);
            meter.set_trace_detail(request.trace_detail_opt());
            meter.span_start(Component::Controller, self.request_span(request));
        }
        let result = self.execute_target(request, &mut meter);
        let table = match result {
            Ok(table) => table,
            Err(e) => {
                self.errors.inc();
                return Err(e);
            }
        };
        meter.span_end();
        let trace = meter.finish_trace();
        let elapsed_us = meter.now_us();
        self.elapsed_us.record(elapsed_us);
        let target = match request.target() {
            Target::Function(_) => "server.calls",
            Target::Sql(_) => "server.queries",
        };
        // Exactly what a before/after registry diff shows for this request
        // alone: zero readings are left out.
        let delta = [
            (target, 1),
            ("server.elapsed_us.count", 1),
            ("server.elapsed_us.sum", elapsed_us as i64),
        ];
        Ok(Outcome {
            table,
            meter,
            trace,
            metrics_delta: MetricsSnapshot::from_entries(
                delta
                    .into_iter()
                    .filter(|(_, v)| *v != 0)
                    .map(|(name, v)| (name.to_string(), v)),
            ),
        })
    }

    /// The root span name of a traced request: `request {label}`.
    /// Function names are few and interned; a SQL label is the whole
    /// statement, so its name is built per request and freed with it.
    fn request_span(&self, request: &Request) -> SpanName {
        match request.target() {
            Target::Function(name) => self
                .request_spans
                .get(name.as_str(), str::to_owned, || format!("request {name}")),
            Target::Sql(sql) => SpanName::from(format!("request {sql}")),
        }
    }

    fn execute_target(&self, request: &Request, meter: &mut Meter) -> FedResult<Table> {
        match request.target() {
            Target::Function(name) => {
                self.calls.inc();
                let deployment = self.deployment(name)?;
                let args = resolve_args(&deployment.function, request.params_ref())?;
                self.charge_boots(meter);
                deployment.call(&args, meter)
            }
            Target::Sql(sql) => {
                self.queries.inc();
                if !request.params_ref().positional().is_empty() {
                    return Err(FedError::catalog(
                        "SQL requests take named parameters only (use Request::bind)".to_string(),
                    ));
                }
                let pairs = request.params_ref().named_pairs();
                self.charge_boots(meter);
                self.fdbs.execute_with_params(sql, &pairs, meter)
            }
        }
    }

    /// Charge boot costs for every not-yet-running process. Steady state
    /// (everything booted) is a single atomic load — the hot call path of
    /// a warmed-up server never takes the env lock.
    fn charge_boots(&self, meter: &mut Meter) {
        if self.all_booted.load(Ordering::Acquire) {
            return;
        }
        let mut env = self.env.lock();
        let cost = &self.config.cost;
        env.ensure_booted(Process::Fdbs, cost, meter);
        env.ensure_booted(Process::Controller, cost, meter);
        if self.config.architecture == ArchitectureKind::Wfms {
            env.ensure_booted(Process::Wfms, cost, meter);
        }
        for name in self.scenario.registry.system_names() {
            env.ensure_booted(Process::AppSystem(name.to_string()), cost, meter);
        }
        // Boots are monotonic (clear_caches keeps processes running), so
        // the flag can never need to be unset again.
        self.all_booted.store(true, Ordering::Release);
    }

    /// Pre-boot every process without measuring — the paper's measurements
    /// start "right after the entire system has been booted", i.e. booted
    /// processes but cold caches.
    pub fn boot(&self) {
        let mut meter = Meter::new();
        self.charge_boots(&mut meter);
    }

    /// Drop all warm state *except* process boots: the FDBS plan cache,
    /// the wrapper's loaded workflow templates and its result cache. The
    /// next call of each function is the paper's "after some other
    /// function has been invoked" tier.
    ///
    /// Atomic with respect to in-flight calls: the exclusive phase guard
    /// waits for running calls to drain and blocks new ones until every
    /// cache has been cleared together. The first caller of each function
    /// afterwards warms its caches alone (single flight), so every call
    /// sees them fully cold or fully warm.
    pub fn clear_caches(&self) {
        let _phase = self.phase.write();
        self.fdbs.clear_plan_cache();
        self.wrapper.clear_template_cache();
        self.wrapper.clear_result_cache();
        for deployment in self.deployed.read().values() {
            deployment.warm.store(false, Ordering::Release);
        }
    }

    /// Whether the environment (all processes) has been booted.
    pub fn is_booted(&self) -> bool {
        self.env.lock().is_booted(&Process::Fdbs)
    }
}

/// Resolve a [`Params`] set against a deployed function's declared
/// parameter list: purely positional args pass straight through (arity is
/// checked by the call itself); named args are matched case-insensitively
/// against the declared names, with remaining positions filled from the
/// positional list in order.
fn resolve_args(function: &DeployedFunction, params: &Params) -> FedResult<Vec<Value>> {
    if params.named().is_empty() {
        return Ok(params.positional().to_vec());
    }
    let mut positional = params.positional().iter();
    let mut used = 0usize;
    let mut args = Vec::with_capacity(function.params.len());
    for (name, _) in &function.params {
        let named = params
            .named()
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name.as_str()))
            .map(|(_, v)| v);
        if let Some(v) = named {
            used += 1;
            args.push(v.clone());
        } else if let Some(v) = positional.next() {
            args.push(v.clone());
        } else {
            return Err(FedError::catalog(format!(
                "missing argument {name} for federated function {}",
                function.name
            )));
        }
    }
    if used != params.named().len() {
        return Err(FedError::catalog(format!(
            "named argument(s) not declared by federated function {}",
            function.name
        )));
    }
    if positional.next().is_some() {
        return Err(FedError::catalog(format!(
            "too many arguments for federated function {}",
            function.name
        )));
    }
    Ok(args)
}

impl std::fmt::Debug for IntegrationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrationServer")
            .field("architecture", &self.config.architecture)
            .field("deployed", &self.deployed_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_functions;
    use fedwf_sim::Component;

    fn server(kind: ArchitectureKind) -> IntegrationServer {
        let config = IntegrationConfig::default()
            .with_architecture(kind)
            .with_data(DataGenConfig::tiny());
        IntegrationServer::new(config).unwrap()
    }

    fn call(s: &IntegrationServer, name: &str, args: &[Value]) -> FedResult<Outcome> {
        s.execute(&Request::function(name).params(args))
    }

    fn query(s: &IntegrationServer, sql: &str, params: &[(&str, Value)]) -> FedResult<Outcome> {
        s.execute(&Request::sql(sql).params(params))
    }

    fn buy_args(s: &IntegrationServer) -> Vec<Value> {
        vec![
            Value::Int(s.scenario().well_known_supplier_no()),
            Value::str(s.scenario().well_known_component_name()),
        ]
    }

    #[test]
    fn wfms_server_deploys_and_calls() {
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::buy_supp_comp()).unwrap();
        let args = buy_args(&s);
        let outcome = call(&s, "BuySuppComp", &args).unwrap();
        assert_eq!(outcome.table.value(0, "Decision"), Some(&Value::str("YES")));
        assert!(outcome.elapsed_us() > 0);
    }

    #[test]
    fn both_main_architectures_agree_on_results() {
        let wf = server(ArchitectureKind::Wfms);
        let sq = server(ArchitectureKind::SqlUdtf);
        for s in [&wf, &sq] {
            s.deploy(&paper_functions::buy_supp_comp()).unwrap();
        }
        let a = call(&wf, "BuySuppComp", &buy_args(&wf)).unwrap();
        let b = call(&sq, "BuySuppComp", &buy_args(&sq)).unwrap();
        assert_eq!(a.table.value(0, "Decision"), b.table.value(0, "Decision"));
    }

    #[test]
    fn warm_up_tiers_are_ordered() {
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::get_supp_qual()).unwrap();
        let args = vec![Value::str(s.scenario().well_known_supplier_name())];
        let cold = call(&s, "GetSuppQual", &args).unwrap().elapsed_us();
        s.clear_caches();
        let after_other = call(&s, "GetSuppQual", &args).unwrap().elapsed_us();
        let repeated = call(&s, "GetSuppQual", &args).unwrap().elapsed_us();
        assert!(cold > after_other, "{cold} > {after_other}");
        assert!(after_other > repeated, "{after_other} > {repeated}");
    }

    #[test]
    fn boot_charges_tagged_as_boot() {
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::gib_komp_nr()).unwrap();
        let outcome = call(
            &s,
            "GibKompNr",
            &[Value::str(s.scenario().well_known_component_name())],
        )
        .unwrap();
        assert!(outcome
            .meter
            .charges()
            .iter()
            .any(|c| c.component == Component::Boot));
        // Second call: no boot charges.
        let outcome2 = call(
            &s,
            "GibKompNr",
            &[Value::str(s.scenario().well_known_component_name())],
        )
        .unwrap();
        assert!(!outcome2
            .meter
            .charges()
            .iter()
            .any(|c| c.component == Component::Boot));
    }

    #[test]
    fn udtf_architecture_does_not_boot_the_wfms() {
        let s = server(ArchitectureKind::SqlUdtf);
        s.deploy(&paper_functions::gib_komp_nr()).unwrap();
        let outcome = call(
            &s,
            "GibKompNr",
            &[Value::str(s.scenario().well_known_component_name())],
        )
        .unwrap();
        assert!(!outcome
            .meter
            .charges()
            .iter()
            .any(|c| c.step.contains("Boot WfMS")));
    }

    #[test]
    fn query_surface_reaches_fdbs() {
        let s = server(ArchitectureKind::SqlUdtf);
        s.deploy(&paper_functions::get_supp_qual_relia()).unwrap();
        let outcome = query(
            &s,
            "SELECT T.Qual FROM TABLE (GetSuppQualRelia(S)) AS T",
            &[("S", Value::Int(s.scenario().well_known_supplier_no()))],
        )
        .unwrap();
        assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
    }

    #[test]
    fn undeployed_function_errors() {
        let s = server(ArchitectureKind::Wfms);
        assert!(call(&s, "Nope", &[]).is_err());
    }

    #[test]
    fn wfms_retries_ride_out_transient_faults_where_udtfs_fail() {
        use crate::mapping::{ArgSource, MappingSpec};
        use fedwf_types::DataType;
        // A linear mapping whose second call is allowed two attempts.
        let spec = MappingSpec::new("RobustQual", &[("SupplierName", DataType::Varchar)])
            .call(
                "GSN",
                "GetSupplierNo",
                vec![ArgSource::param("SupplierName")],
            )
            .call(
                "GQ",
                "GetQuality",
                vec![ArgSource::output("GSN", "SupplierNo")],
            )
            .retry(3)
            .output_from_call("GQ")
            .unwrap();

        let inject = |s: &IntegrationServer| {
            s.scenario()
                .registry
                .system("stock")
                .unwrap()
                .inject_faults("GetQuality", 1);
        };
        let args =
            |s: &IntegrationServer| vec![Value::str(s.scenario().well_known_supplier_name())];

        // WfMS architecture: the activity retries and the call succeeds.
        let wf = server(ArchitectureKind::Wfms);
        wf.deploy(&spec).unwrap();
        inject(&wf);
        let outcome = call(&wf, "RobustQual", &args(&wf)).unwrap();
        assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));

        // UDTF architecture: no retry machinery — the first error is final.
        let sq = server(ArchitectureKind::SqlUdtf);
        sq.deploy(&spec).unwrap();
        inject(&sq);
        let err = call(&sq, "RobustQual", &args(&sq)).unwrap_err();
        assert!(err.to_string().contains("transient fault"));
        // The fault was consumed; the repeat succeeds.
        assert!(call(&sq, "RobustQual", &args(&sq)).is_ok());
    }

    #[test]
    fn revoked_local_function_fails_with_permission_error() {
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::gib_komp_nr()).unwrap();
        s.scenario()
            .registry
            .system("pdm")
            .unwrap()
            .revoke("GetCompNo");
        let err = call(
            &s,
            "GibKompNr",
            &[Value::str(s.scenario().well_known_component_name())],
        )
        .unwrap_err();
        assert!(err.to_string().contains("permission denied"), "{err}");
        s.scenario()
            .registry
            .system("pdm")
            .unwrap()
            .grant("GetCompNo");
        assert!(call(
            &s,
            "GibKompNr",
            &[Value::str(s.scenario().well_known_component_name())],
        )
        .is_ok());
    }

    #[test]
    fn result_cache_accelerates_repeated_wfms_calls() {
        let config = IntegrationConfig {
            result_cache: true,
            data: DataGenConfig::tiny(),
            ..IntegrationConfig::default()
        };
        let s = IntegrationServer::new(config).unwrap();
        s.boot();
        s.deploy(&paper_functions::get_supp_qual()).unwrap();
        let args = vec![Value::str(s.scenario().well_known_supplier_name())];
        let first = call(&s, "GetSuppQual", &args).unwrap();
        let second = call(&s, "GetSuppQual", &args).unwrap();
        assert_eq!(first.table, second.table);
        assert!(
            second.elapsed_us() * 2 < first.elapsed_us(),
            "cached call ({}) must be far cheaper than the first ({})",
            second.elapsed_us(),
            first.elapsed_us()
        );
    }

    #[test]
    fn workflow_audit_is_queryable() {
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::get_supp_qual()).unwrap();
        let args = vec![Value::str(s.scenario().well_known_supplier_name())];
        call(&s, "GetSuppQual", &args).unwrap();
        call(&s, "GetSuppQual", &args).unwrap();
        let t = query(
            &s,
            "SELECT A.Process, A.ElapsedUs FROM TABLE (WorkflowAudit()) AS A",
            &[],
        )
        .unwrap()
        .table;
        assert_eq!(t.row_count(), 2);
        assert!(t.value(0, "ElapsedUs").unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        use std::sync::Arc as StdArc;
        let s = StdArc::new(server(ArchitectureKind::Wfms));
        s.deploy(&paper_functions::buy_supp_comp()).unwrap();
        let args = buy_args(&s);
        // Warm everything once so the threads race on a steady state.
        call(&s, "BuySuppComp", &args).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = StdArc::clone(&s);
            let args = args.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let outcome = call(&s, "BuySuppComp", &args).expect("concurrent call");
                    assert_eq!(outcome.table.value(0, "Decision"), Some(&Value::str("YES")));
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        // 1 warm-up + 80 concurrent instances in the audit history.
        let t = query(
            &s,
            "SELECT A.Process FROM TABLE (WorkflowAudit()) AS A",
            &[],
        )
        .unwrap()
        .table;
        assert_eq!(t.row_count(), 81);
    }

    #[test]
    fn coarse_tracing_elides_leaf_spans_but_keeps_breakdowns_exact() {
        use crate::Request;
        use fedwf_sim::TraceDetail;
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::buy_supp_comp()).unwrap();
        s.boot();
        let args = buy_args(&s);
        call(&s, "BuySuppComp", &args).unwrap(); // warm
        let run = |detail| {
            s.execute(
                &Request::function("BuySuppComp")
                    .params(args.as_slice())
                    .traced(true)
                    .trace_detail(detail),
            )
            .unwrap()
        };
        let full = run(TraceDetail::Full);
        let coarse = run(TraceDetail::Coarse);
        // Same execution either way.
        assert_eq!(full.elapsed_us(), coarse.elapsed_us());
        let full_tree = full.trace.as_ref().unwrap();
        let coarse_tree = coarse.trace.as_ref().unwrap();
        // Coarse keeps the request/process levels but drops the
        // per-activity and per-local-function leaves.
        assert!(coarse_tree.find("wfms.process BuySuppComp").is_some());
        assert!(!full_tree.find_all("activity ").is_empty());
        assert!(coarse_tree.find_all("activity ").is_empty());
        assert!(coarse_tree.find_all("local ").is_empty());
        assert!(coarse_tree.flatten().len() < full_tree.flatten().len());
        // Skipped spans' charges land in an ancestor: the tree-derived
        // component totals still agree with the charge log exactly.
        for outcome in [&full, &coarse] {
            let from_tree = outcome.trace_breakdown("t").unwrap();
            let from_log = outcome.breakdown_by_component("t");
            assert_eq!(from_tree.lines, from_log.lines);
        }
    }

    /// Root spans of traced SQL carry the whole statement, so they are
    /// built per request: thousands of distinct traced statements leave
    /// the interned names (function names only) where they were.
    #[test]
    fn traced_sql_statements_are_not_interned() {
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::get_supp_qual()).unwrap();
        s.boot();
        query(&s, "CREATE TABLE K (k INT)", &[]).unwrap();
        let supplier = Value::str(s.scenario().well_known_supplier_name());
        let traced = s
            .execute(&Request::function("GetSuppQual").arg(supplier).traced(true))
            .unwrap();
        assert_eq!(traced.trace.unwrap().name, "request GetSuppQual");
        let interned = s.request_spans.len();
        assert_eq!(interned, 1);
        for i in 0..2_000 {
            let sql = format!("SELECT K.k FROM K WHERE K.k = {i}");
            let outcome = s.execute(&Request::sql(&sql).traced(true)).unwrap();
            assert_eq!(&*outcome.trace.unwrap().name, format!("request {sql}"));
        }
        assert_eq!(s.request_spans.len(), interned);
    }

    #[test]
    fn clear_caches_empties_the_plan_cache() {
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::get_supp_qual()).unwrap();
        let args = vec![Value::str(s.scenario().well_known_supplier_name())];
        call(&s, "GetSuppQual", &args).unwrap();
        assert!(s.fdbs().cached_plan_count() > 0);
        s.clear_caches();
        assert_eq!(s.fdbs().cached_plan_count(), 0);
        let again = call(&s, "GetSuppQual", &args).unwrap();
        assert!(again
            .meter
            .charges()
            .iter()
            .any(|c| c.step == "Compile statement"));
    }

    #[test]
    fn breakdowns_are_available() {
        let s = server(ArchitectureKind::Wfms);
        s.deploy(&paper_functions::get_no_supp_comp()).unwrap();
        s.boot();
        let args = vec![
            Value::str(s.scenario().well_known_supplier_name()),
            Value::str(s.scenario().well_known_component_name()),
        ];
        call(&s, "GetNoSuppComp", &args).unwrap();
        let outcome = call(&s, "GetNoSuppComp", &args).unwrap();
        let steps = outcome.breakdown_by_step("WfMS approach");
        assert!(steps.lines.iter().any(|l| l.label == "Process activities"));
        let comps = outcome.breakdown_by_component("WfMS approach");
        assert!(comps.lines.iter().any(|l| l.label == "Controller"));
    }
}
