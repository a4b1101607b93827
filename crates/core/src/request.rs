//! The unified client API of the integration server: one [`Request`]
//! describes *what* to run (a deployed federated function or raw SQL),
//! *with which* parameters, and *how* (deadline, tracing); one [`Outcome`]
//! carries everything a client can ask about the execution — the result
//! table, the virtual-time accounting, the span tree when tracing was on,
//! and the server-metrics delta the request caused.
//!
//! ```
//! use fedwf_core::{paper_functions, ArchitectureKind, IntegrationServer, Request};
//!
//! let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms)?;
//! server.boot();
//! server.deploy(&paper_functions::get_supp_qual())?;
//! let outcome = server.execute(
//!     &Request::function("GetSuppQual")
//!         .arg(server.scenario().well_known_supplier_name())
//!         .traced(true),
//! )?;
//! assert_eq!(outcome.table.value(0, "Qual"), Some(&fedwf_types::Value::Int(93)));
//! let trace = outcome.trace.as_ref().expect("tracing was requested");
//! assert!(trace.find("fdbs.execute").is_some());
//! # Ok::<(), fedwf_types::FedError>(())
//! ```
//!
use std::time::Duration;

use fedwf_sim::{Breakdown, Meter, MetricsSnapshot, TraceDetail, TraceNode};
use fedwf_types::{Params, Table, Value};

/// What a [`Request`] executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A deployed federated function, called by name.
    Function(String),
    /// An arbitrary SQL statement against the FDBS (which may itself
    /// invoke federated functions as table functions).
    Sql(String),
}

/// One request against the integration server: target, parameters, and
/// how to run it (deadline, tracing). Build with [`Request::function`] / [`Request::sql`]
/// and the chainable setters; execute with
/// [`crate::IntegrationServer::execute`] or
/// [`crate::ServerFront::execute`].
#[derive(Debug, Clone)]
pub struct Request {
    target: Target,
    params: Params,
    deadline: Option<Duration>,
    trace: bool,
    trace_detail: TraceDetail,
}

impl Request {
    /// A request calling the deployed federated function `name`.
    pub fn function(name: impl Into<String>) -> Request {
        Request {
            target: Target::Function(name.into()),
            params: Params::new(),
            deadline: None,
            trace: false,
            trace_detail: TraceDetail::Full,
        }
    }

    /// A request running a SQL statement against the FDBS.
    pub fn sql(sql: impl Into<String>) -> Request {
        Request {
            target: Target::Sql(sql.into()),
            params: Params::new(),
            deadline: None,
            trace: false,
            trace_detail: TraceDetail::Full,
        }
    }

    /// Replace the whole parameter set at once.
    pub fn params(mut self, params: impl Into<Params>) -> Self {
        self.params = params.into();
        self
    }

    /// Append one positional argument.
    pub fn arg(mut self, value: impl Into<Value>) -> Self {
        self.params = self.params.arg(value);
        self
    }

    /// Bind one named parameter.
    pub fn bind(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.params = self.params.bind(name, value);
        self
    }

    /// Set a deadline covering queueing *and* execution. Honoured by
    /// [`crate::ServerFront::execute`]; the in-process
    /// [`crate::IntegrationServer::execute`] ignores it (there is no queue
    /// to wait in).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Request a hierarchical span tree of the execution. Off by default;
    /// when off the execution is byte-identical to an untraced one.
    pub fn traced(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// How deep the span tree goes when tracing is on. Defaults to
    /// [`TraceDetail::Full`]; [`TraceDetail::Coarse`] keeps the
    /// request/engine/process levels but skips per-activity and
    /// per-local-function spans, cutting most of tracing's wall overhead
    /// (component breakdowns stay exact — skipped spans' charges land in
    /// the nearest recorded ancestor).
    pub fn trace_detail(mut self, detail: TraceDetail) -> Self {
        self.trace_detail = detail;
        self
    }

    pub fn target(&self) -> &Target {
        &self.target
    }

    pub fn params_ref(&self) -> &Params {
        &self.params
    }

    pub fn deadline_opt(&self) -> Option<Duration> {
        self.deadline
    }

    pub fn trace_requested(&self) -> bool {
        self.trace
    }

    pub fn trace_detail_opt(&self) -> TraceDetail {
        self.trace_detail
    }

    /// A short label for logs and error messages.
    pub fn label(&self) -> &str {
        match &self.target {
            Target::Function(name) => name,
            Target::Sql(sql) => sql,
        }
    }
}

/// Everything known about one executed [`Request`].
#[derive(Debug)]
pub struct Outcome {
    /// The result table.
    pub table: Table,
    /// The complete virtual-time accounting of the execution.
    pub meter: Meter,
    /// The span tree, present iff the request asked for tracing.
    pub trace: Option<TraceNode>,
    /// Delta of the server's metrics registry across this request.
    pub metrics_delta: MetricsSnapshot,
}

impl Outcome {
    /// Elapsed virtual time of the execution.
    pub fn elapsed_us(&self) -> u64 {
        self.meter.now_us()
    }

    /// Fig. 6-style step breakdown from the charge log.
    pub fn breakdown_by_step(&self, title: &str) -> Breakdown {
        Breakdown::by_step(title, self.meter.charges(), self.meter.now_us())
    }

    /// Component breakdown (controller share, RMI share, ...) from the
    /// charge log.
    pub fn breakdown_by_component(&self, title: &str) -> Breakdown {
        Breakdown::by_component(title, self.meter.charges(), self.meter.now_us())
    }

    /// Component breakdown derived from the span tree instead of the flat
    /// charge log — agrees with [`Outcome::breakdown_by_component`] when
    /// tracing was on (every charge lands in some span).
    pub fn trace_breakdown(&self, title: &str) -> Option<Breakdown> {
        self.trace
            .as_ref()
            .map(|t| t.component_breakdown(title, self.meter.now_us()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_params_and_options() {
        let r = Request::function("BuySuppComp")
            .arg(1234)
            .bind("Comp", "C30")
            .deadline(Duration::from_secs(3))
            .traced(true);
        assert_eq!(r.target(), &Target::Function("BuySuppComp".into()));
        assert_eq!(r.params_ref().positional(), &[Value::Int(1234)]);
        assert_eq!(r.params_ref().named_value("Comp"), Some(&Value::str("C30")));
        assert_eq!(r.deadline_opt(), Some(Duration::from_secs(3)));
        assert!(r.trace_requested());
        assert_eq!(r.label(), "BuySuppComp");
    }

    #[test]
    fn sql_request_defaults() {
        let r = Request::sql("SELECT 1").params([("S", Value::Int(7))]);
        assert!(matches!(r.target(), Target::Sql(_)));
        assert!(!r.trace_requested());
        assert_eq!(r.deadline_opt(), None);
        assert_eq!(r.params_ref().named_value("S"), Some(&Value::Int(7)));
    }
}
