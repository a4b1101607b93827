//! Application systems and the registry over all of them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use fedwf_relstore::Database;
use fedwf_sim::{Component, CostModel, Meter, SpanNameCache};
use fedwf_types::sync::RwLock;
use fedwf_types::{FedError, FedResult, Ident, Table, Value};

use crate::function::{FunctionSignature, LocalFunction};

/// One encapsulated application system: a private database plus the
/// predefined functions that are its *only* interface.
///
/// Two operational controls model what the paper lists as open issues and
/// real-world behaviour of autonomous systems:
///
/// * **access control** — individual functions can be revoked
///   ([`ApplicationSystem::revoke`]); calls then fail with a permission
///   error, exactly as an autonomous system may deny the integration
///   layer;
/// * **fault injection** — [`ApplicationSystem::inject_faults`] makes the
///   next *n* calls of a function fail, which is how the test suite and
///   the error-handling experiment exercise the WfMS's retry machinery
///   ("copes with different kinds of error handling").
pub struct ApplicationSystem {
    name: String,
    db: Database,
    functions: RwLock<BTreeMap<Ident, LocalFunction>>,
    revoked: RwLock<BTreeMap<Ident, ()>>,
    /// Armed faults left per function. A call consumes one with a single
    /// atomic step under the shared lock, so concurrent callers consume
    /// exactly the armed count and calls never serialize on it.
    faults: RwLock<BTreeMap<Ident, AtomicU32>>,
    /// Interned `local {name}` span names.
    local_spans: SpanNameCache<String>,
}

impl ApplicationSystem {
    pub fn new(name: impl Into<String>) -> ApplicationSystem {
        let name = name.into();
        ApplicationSystem {
            db: Database::new(name.clone()),
            name,
            functions: RwLock::new(BTreeMap::new()),
            local_spans: SpanNameCache::new(),
            revoked: RwLock::new(BTreeMap::new()),
            faults: RwLock::new(BTreeMap::new()),
        }
    }

    /// Revoke access to a function: subsequent calls fail with a
    /// permission error until [`ApplicationSystem::grant`] restores it.
    pub fn revoke(&self, function: &str) {
        self.revoked.write().insert(Ident::new(function), ());
    }

    /// Restore access to a revoked function.
    pub fn grant(&self, function: &str) {
        self.revoked.write().remove(&Ident::new(function));
    }

    /// Whether a function is currently callable.
    pub fn is_granted(&self, function: &str) -> bool {
        !self.revoked.read().contains_key(&Ident::new(function))
    }

    /// Make the next `n` calls of `function` fail with a transient error
    /// (after which calls succeed again) — deterministic fault injection.
    pub fn inject_faults(&self, function: &str, n: u32) {
        self.faults
            .write()
            .insert(Ident::new(function), AtomicU32::new(n));
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The private database — used only by the system's own setup code and
    /// function bodies. Deliberately *not* reachable through the registry:
    /// integration code sees functions, never tables.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Register a predefined function.
    pub fn register(&self, function: LocalFunction) -> FedResult<()> {
        let name = function.signature.name.clone();
        let mut functions = self.functions.write();
        if functions.contains_key(&name) {
            return Err(FedError::app_system(format!(
                "function {name} already registered in system {}",
                self.name
            )));
        }
        functions.insert(name, function);
        Ok(())
    }

    pub fn function_names(&self) -> Vec<String> {
        self.functions
            .read()
            .values()
            .map(|f| f.signature.name.as_str().to_string())
            .collect()
    }

    pub fn signature(&self, name: &str) -> Option<FunctionSignature> {
        self.functions
            .read()
            .get(&Ident::new(name))
            .map(|f| f.signature.clone())
    }

    /// Call a local function without metering (logic-only paths and tests).
    pub fn call(&self, name: &str, args: &[Value]) -> FedResult<Table> {
        let ident = Ident::new(name);
        if self.revoked.read().contains_key(&ident) {
            return Err(FedError::app_system(format!(
                "system {}: permission denied for function {name}",
                self.name
            )));
        }
        if let Some(remaining) = self.faults.read().get(&ident) {
            // The count publishes no other data: Relaxed suffices.
            let consumed = remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if consumed {
                return Err(FedError::app_system(format!(
                    "system {}: transient fault injected into {name}",
                    self.name
                )));
            }
        }
        // The shared guard spans the call: only setup registers functions,
        // and a body reaches the database, never this system.
        let functions = self.functions.read();
        let f = functions.get(&ident).ok_or_else(|| {
            FedError::app_system(format!("system {} has no function {name}", self.name))
        })?;
        f.invoke(&self.db, args)
    }

    /// Call a local function and charge its execution to `meter` — the
    /// charge scales with the result size, standing in for the wildly
    /// varying local-function times the paper observed.
    pub fn call_metered(
        &self,
        name: &str,
        args: &[Value],
        model: &CostModel,
        meter: &mut Meter,
    ) -> FedResult<Table> {
        // Coarse trace detail skips the per-call span: the charge below
        // still books into the enclosing span, only the child node (and its
        // two span-stack operations) are elided.
        let span = meter.fine_tracing();
        if span {
            meter.span_start(
                Component::LocalFunction,
                self.local_spans
                    .get(name, str::to_owned, || format!("local {name}")),
            );
        }
        let result = self.call(name, args);
        match result {
            Ok(result) => {
                meter.charge(
                    Component::LocalFunction,
                    "Process local function",
                    model.local_function_cost(result.row_count()),
                );
                if span {
                    meter.span_counter("rows", result.row_count() as u64);
                    meter.span_end();
                }
                Ok(result)
            }
            Err(e) => {
                if span {
                    meter.span_end();
                }
                Err(e)
            }
        }
    }
}

impl std::fmt::Debug for ApplicationSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApplicationSystem")
            .field("name", &self.name)
            .field("functions", &self.function_names())
            .finish()
    }
}

/// Registry over all application systems of the enterprise; resolves a
/// local function name to the system exporting it.
#[derive(Debug, Clone, Default)]
pub struct AppSystemRegistry {
    systems: BTreeMap<String, Arc<ApplicationSystem>>,
}

impl AppSystemRegistry {
    pub fn new() -> AppSystemRegistry {
        AppSystemRegistry::default()
    }

    pub fn add(&mut self, system: Arc<ApplicationSystem>) -> FedResult<()> {
        if self.systems.contains_key(system.name()) {
            return Err(FedError::app_system(format!(
                "application system {} already registered",
                system.name()
            )));
        }
        self.systems.insert(system.name().to_string(), system);
        Ok(())
    }

    pub fn system(&self, name: &str) -> Option<&Arc<ApplicationSystem>> {
        self.systems.get(name)
    }

    pub fn system_names(&self) -> Vec<&str> {
        self.systems.keys().map(String::as_str).collect()
    }

    /// Find the (unique) system exporting `function_name`.
    pub fn resolve_function(&self, function_name: &str) -> FedResult<&Arc<ApplicationSystem>> {
        let ident = Ident::new(function_name);
        let mut found = None;
        for system in self.systems.values() {
            if system.functions.read().contains_key(&ident) {
                if found.is_some() {
                    return Err(FedError::app_system(format!(
                        "function {function_name} is exported by more than one system"
                    )));
                }
                found = Some(system);
            }
        }
        found.ok_or_else(|| {
            FedError::app_system(format!(
                "no application system exports function {function_name}"
            ))
        })
    }

    /// Call a function by name, routing to its system.
    pub fn call(&self, function_name: &str, args: &[Value]) -> FedResult<Table> {
        self.resolve_function(function_name)?
            .call(function_name, args)
    }

    /// Metered variant of [`AppSystemRegistry::call`].
    pub fn call_metered(
        &self,
        function_name: &str,
        args: &[Value],
        model: &CostModel,
        meter: &mut Meter,
    ) -> FedResult<Table> {
        self.resolve_function(function_name)?
            .call_metered(function_name, args, model, meter)
    }

    /// Signature lookup across all systems.
    pub fn signature(&self, function_name: &str) -> FedResult<FunctionSignature> {
        Ok(self
            .resolve_function(function_name)?
            .signature(function_name)
            .expect("resolve_function guarantees presence"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::DataType;

    fn one_system() -> Arc<ApplicationSystem> {
        let sys = ApplicationSystem::new("stock");
        let sig = FunctionSignature::new("GetAnswer", &[], &[("Answer", DataType::Int)]);
        sys.register(LocalFunction::new(sig, |_db, _| {
            Ok(Table::scalar("Answer", Value::Int(42)))
        }))
        .unwrap();
        Arc::new(sys)
    }

    #[test]
    fn register_and_call() {
        let sys = one_system();
        let t = sys.call("getanswer", &[]).unwrap();
        assert_eq!(t.value(0, "Answer"), Some(&Value::Int(42)));
    }

    #[test]
    fn unknown_function_errors() {
        let sys = one_system();
        assert!(sys.call("Nope", &[]).is_err());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let sys = one_system();
        let sig = FunctionSignature::new("GETANSWER", &[], &[("Answer", DataType::Int)]);
        assert!(sys
            .register(LocalFunction::new(sig, |_db, _| Ok(Table::scalar(
                "Answer",
                Value::Int(0)
            ))))
            .is_err());
    }

    #[test]
    fn registry_routes_across_systems() {
        let mut reg = AppSystemRegistry::new();
        reg.add(one_system()).unwrap();
        let other = ApplicationSystem::new("purchasing");
        other
            .register(LocalFunction::new(
                FunctionSignature::new("GetOther", &[], &[("X", DataType::Int)]),
                |_db, _| Ok(Table::scalar("X", Value::Int(1))),
            ))
            .unwrap();
        reg.add(Arc::new(other)).unwrap();
        assert_eq!(
            reg.call("GetAnswer", &[]).unwrap().value(0, "Answer"),
            Some(&Value::Int(42))
        );
        assert_eq!(
            reg.resolve_function("GetOther").unwrap().name(),
            "purchasing"
        );
        assert!(reg.call("Missing", &[]).is_err());
    }

    #[test]
    fn ambiguous_function_is_an_error() {
        let mut reg = AppSystemRegistry::new();
        reg.add(one_system()).unwrap();
        let clash = ApplicationSystem::new("other");
        clash
            .register(LocalFunction::new(
                FunctionSignature::new("GetAnswer", &[], &[("Answer", DataType::Int)]),
                |_db, _| Ok(Table::scalar("Answer", Value::Int(0))),
            ))
            .unwrap();
        reg.add(Arc::new(clash)).unwrap();
        assert!(reg.call("GetAnswer", &[]).is_err());
    }

    #[test]
    fn revoked_function_denies_access() {
        let sys = one_system();
        sys.revoke("GetAnswer");
        assert!(!sys.is_granted("GetAnswer"));
        let err = sys.call("GetAnswer", &[]).unwrap_err();
        assert!(err.to_string().contains("permission denied"));
        sys.grant("getanswer");
        assert!(sys.call("GetAnswer", &[]).is_ok());
    }

    #[test]
    fn injected_faults_are_transient_and_counted() {
        let sys = one_system();
        sys.inject_faults("GetAnswer", 2);
        assert!(sys.call("GetAnswer", &[]).is_err());
        assert!(sys.call("GetAnswer", &[]).is_err());
        // The third call succeeds again.
        assert!(sys.call("GetAnswer", &[]).is_ok());
        assert!(sys.call("GetAnswer", &[]).is_ok());
    }

    /// Armed faults are consumed exactly once each by concurrent callers.
    #[test]
    fn armed_faults_fail_exactly_that_many_concurrent_calls() {
        const ARMED: u32 = 37;
        let sys = one_system();
        sys.inject_faults("GetAnswer", ARMED);
        let start = std::sync::Barrier::new(4);
        let failed: usize = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..50)
                            .filter(|_| sys.call("GetAnswer", &[]).is_err())
                            .count()
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller panicked"))
                .sum()
        });
        assert_eq!(failed, ARMED as usize);
        assert!(sys.call("GetAnswer", &[]).is_ok());
    }

    #[test]
    fn metered_call_charges_by_rows() {
        let sys = one_system();
        let model = CostModel::default();
        let mut meter = Meter::new();
        sys.call_metered("GetAnswer", &[], &model, &mut meter)
            .unwrap();
        assert_eq!(meter.now_us(), model.local_function_cost(1));
    }
}
