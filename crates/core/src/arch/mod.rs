//! The architecture spectrum of Section 2.
//!
//! Every architecture consumes the same [`MappingSpec`] and produces a
//! callable federated function; they differ in *where the integration
//! logic lives* and in what they can express:
//!
//! | architecture | integration logic | cyclic case |
//! |---|---|---|
//! | [`WfmsArchitecture`] | workflow process in the WfMS | ✔ (do-until sub-workflow) |
//! | [`SqlUdtfArchitecture`] | one SQL statement in an I-UDTF | ✘ (no loops in one statement) |
//! | [`JavaUdtfArchitecture`] | host-language I-UDTF issuing many statements | ✔ (host-language loop) |
//! | [`SimpleUdtfArchitecture`] | the application itself | ✘ |

mod java_udtf;
mod simple_udtf;
mod sql_udtf;
mod wfms;

pub use java_udtf::JavaUdtfArchitecture;
pub use simple_udtf::SimpleUdtfArchitecture;
pub use sql_udtf::SqlUdtfArchitecture;
pub use wfms::WfmsArchitecture;

use std::sync::Arc;

use fedwf_fdbs::Fdbs;
use fedwf_sim::Meter;
use fedwf_types::{DataType, FedError, FedResult, Ident, Schema, SchemaRef, Table, Value};
use fedwf_wrapper::{build_access_udtf, Controller};

use crate::classify::ComplexityCase;
use crate::mapping::{ArgSource, FedOutput, LocalCall, MappingSpec};

/// Which architecture a deployment used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchitectureKind {
    Wfms,
    SqlUdtf,
    JavaUdtf,
    SimpleUdtf,
}

impl ArchitectureKind {
    pub fn name(&self) -> &'static str {
        match self {
            ArchitectureKind::Wfms => "WfMS approach",
            ArchitectureKind::SqlUdtf => "enhanced SQL UDTF approach",
            ArchitectureKind::JavaUdtf => "enhanced Java UDTF approach",
            ArchitectureKind::SimpleUdtf => "simple UDTF approach",
        }
    }

    pub const ALL: [ArchitectureKind; 4] = [
        ArchitectureKind::Wfms,
        ArchitectureKind::SqlUdtf,
        ArchitectureKind::JavaUdtf,
        ArchitectureKind::SimpleUdtf,
    ];
}

impl std::fmt::Display for ArchitectureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A deployed, callable federated function.
pub struct DeployedFunction {
    pub name: Ident,
    pub params: Vec<(Ident, DataType)>,
    pub returns: SchemaRef,
    pub kind: ArchitectureKind,
    /// The SQL the application issues to call it (with `p0`, `p1`, ... as
    /// host variables).
    pub call_sql: String,
    /// The host-variable names `p0`, `p1`, ..., one per parameter.
    param_names: Vec<String>,
    fdbs: Arc<Fdbs>,
}

impl DeployedFunction {
    /// Invoke the federated function through the FDBS, like an application
    /// issuing the `call_sql` statement with host variables bound.
    pub fn call(&self, args: &[Value], meter: &mut Meter) -> FedResult<Table> {
        if args.len() != self.params.len() {
            return Err(FedError::execution(format!(
                "federated function {} expects {} arguments, got {}",
                self.name,
                self.params.len(),
                args.len()
            )));
        }
        let bound: Vec<(&str, Value)> = self
            .param_names
            .iter()
            .map(String::as_str)
            .zip(args.iter().cloned())
            .collect();
        self.fdbs.execute_with_params(&self.call_sql, &bound, meter)
    }
}

impl std::fmt::Debug for DeployedFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeployedFunction")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("call_sql", &self.call_sql)
            .finish()
    }
}

/// An architecture: compiles mapping specs into callable functions.
pub trait Architecture {
    fn kind(&self) -> ArchitectureKind;

    /// How this architecture realizes a complexity case — the cell text of
    /// Section 3's summary table. `None` means *not supported*.
    fn mechanism(&self, case: ComplexityCase) -> Option<&'static str>;

    /// Deploy a spec; `Err` with layer `Unsupported` marks a capability
    /// gap (e.g. the cyclic case on the SQL UDTF architecture).
    fn deploy(&self, spec: &MappingSpec) -> FedResult<DeployedFunction>;

    /// Whether the architecture can express the spec at all.
    fn supports(&self, spec: &MappingSpec) -> bool;
}

// ---- shared helpers -------------------------------------------------------

/// Find a call by id, including the cyclic body.
pub(crate) fn find_call<'a>(spec: &'a MappingSpec, id: &Ident) -> FedResult<&'a LocalCall> {
    if let Some(c) = spec.call(id) {
        return Ok(c);
    }
    if let Some(cy) = &spec.cyclic {
        if &cy.body.id == id {
            return Ok(&cy.body);
        }
    }
    Err(FedError::plan(format!(
        "mapping {}: unknown call {id}",
        spec.name
    )))
}

/// Result schema of one call, from its local function's signature.
pub(crate) fn call_schema(
    controller: &Controller,
    spec: &MappingSpec,
    id: &Ident,
) -> FedResult<SchemaRef> {
    let call = find_call(spec, id)?;
    Ok(controller.registry().signature(&call.function)?.returns)
}

/// The static type of an argument/output source.
pub(crate) fn source_type(
    controller: &Controller,
    spec: &MappingSpec,
    source: &ArgSource,
) -> FedResult<DataType> {
    match source {
        ArgSource::Param(p) => spec
            .params
            .iter()
            .find(|(n, _)| n == p)
            .map(|(_, t)| *t)
            .ok_or_else(|| FedError::plan(format!("unknown parameter {p}"))),
        ArgSource::Constant(v) => Ok(v.data_type().unwrap_or(DataType::Varchar)),
        ArgSource::Counter => Ok(DataType::Int),
        ArgSource::Output { call, column } => {
            let schema = call_schema(controller, spec, call)?;
            let idx = schema.index_of(column).ok_or_else(|| {
                FedError::plan(format!("call {call} has no output column {column}"))
            })?;
            Ok(schema.columns()[idx].data_type)
        }
    }
}

/// The declared result schema of the federated function.
pub(crate) fn spec_output_schema(
    controller: &Controller,
    spec: &MappingSpec,
) -> FedResult<SchemaRef> {
    match &spec.output {
        FedOutput::FromCall(id) => call_schema(controller, spec, id),
        FedOutput::Row(fields) => Ok(Arc::new(Schema::of(
            &fields
                .iter()
                .map(|f| (f.name.as_str(), f.data_type))
                .collect::<Vec<_>>(),
        ))),
        FedOutput::Join {
            left,
            right,
            project,
            ..
        } => {
            let ls = call_schema(controller, spec, left)?;
            let rs = call_schema(controller, spec, right)?;
            let mut cols = Vec::with_capacity(project.len());
            for (from_left, src, out) in project {
                let side = if *from_left { &ls } else { &rs };
                let idx = side
                    .index_of(src)
                    .ok_or_else(|| FedError::plan(format!("join projects unknown column {src}")))?;
                cols.push((out.as_str().to_string(), side.columns()[idx].data_type));
            }
            Ok(Arc::new(Schema::of(
                &cols
                    .iter()
                    .map(|(n, t)| (n.as_str(), *t))
                    .collect::<Vec<_>>(),
            )))
        }
    }
}

/// Register access UDTFs for every local function the spec references
/// (idempotent — already-registered functions are left alone).
pub(crate) fn ensure_access_udtfs(
    fdbs: &Fdbs,
    controller: &Controller,
    spec: &MappingSpec,
) -> FedResult<()> {
    let mut functions: Vec<&str> = spec.calls.iter().map(|c| c.function.as_str()).collect();
    if let Some(cy) = &spec.cyclic {
        functions.push(cy.body.function.as_str());
    }
    for function in functions {
        let name = Ident::new(
            controller
                .registry()
                .signature(function)?
                .name
                .as_str()
                .to_string(),
        );
        if !fdbs.catalog().has_udtf(&name) {
            fdbs.register_udtf(build_access_udtf(controller, function)?)?;
        }
    }
    Ok(())
}

/// The application-side call statement for a deployed table function:
/// `SELECT T.* FROM TABLE (Name(p0, p1, ...)) AS T`.
pub(crate) fn call_sql_for(name: &Ident, param_count: usize) -> String {
    let args: Vec<String> = (0..param_count).map(|i| format!("p{i}")).collect();
    format!("SELECT T.* FROM TABLE ({name}({})) AS T", args.join(", "))
}

pub(crate) fn make_deployed(
    fdbs: Arc<Fdbs>,
    spec: &MappingSpec,
    returns: SchemaRef,
    kind: ArchitectureKind,
    call_sql: String,
) -> DeployedFunction {
    DeployedFunction {
        name: spec.name.clone(),
        params: spec.params.clone(),
        returns,
        kind,
        call_sql,
        param_names: (0..spec.params.len()).map(|i| format!("p{i}")).collect(),
        fdbs,
    }
}
