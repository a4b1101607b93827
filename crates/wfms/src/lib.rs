//! # fedwf-wfms
//!
//! A production-workflow management system in the style of MQSeries
//! Workflow / FlowMark, the engine the paper couples to the FDBS. The
//! feature set covers exactly what the paper's mappings need, and the
//! engine is built so that execution cost is *accounted in virtual time*
//! through [`fedwf_sim`]:
//!
//! * **process models** with program activities (invoking predefined local
//!   functions through a pluggable [`ProgramExecutor`]) and *helper
//!   activities* (type casts, constants, result composition — Section 3's
//!   simple/independent cases);
//! * **control connectors** with transition conditions; activities whose
//!   incoming connectors all fired run — logically in parallel when they
//!   are mutually unordered (the engine schedules each node at the max of
//!   its predecessors' virtual completion times, so a fork/join block costs
//!   the maximum, not the sum, of its branches);
//! * **data connectors** feeding activity input containers from process
//!   input, upstream outputs, or constants;
//! * **do-until loops over sub-workflows** — the cyclic-dependency case the
//!   UDTF architecture cannot express;
//! * **audit trail** and per-activity retry policies;
//! * one **navigator** that runs the nodes in topological order on the
//!   caller's thread; concurrent process instances run on their callers'
//!   threads, each with its own meter.
//!
//! # Example
//!
//! ```
//! use fedwf_wfms::{DataBinding, DataSource, EchoExecutor, Engine, ProcessBuilder};
//! use fedwf_sim::{CostModel, Meter};
//! use fedwf_types::{DataType, Ident, Table, Value};
//!
//! // A two-step process: resolve a supplier number, then its quality.
//! let process = ProcessBuilder::new("GetSuppQual")
//!     .input(&[("SupplierName", DataType::Varchar)])
//!     .program(
//!         "GetSupplierNo",
//!         "GetSupplierNo",
//!         vec![DataBinding::new("SupplierName", DataSource::input("SupplierName"))],
//!         &[("SupplierNo", DataType::Int)],
//!     )
//!     .program(
//!         "GetQuality",
//!         "GetQuality",
//!         vec![DataBinding::new(
//!             "SupplierNo",
//!             DataSource::output("GetSupplierNo", "SupplierNo"),
//!         )],
//!         &[("Qual", DataType::Int)],
//!     )
//!     .sequence(&["GetSupplierNo", "GetQuality"])
//!     .output_table("GetQuality")
//!     .build()?;
//!
//! // Program implementations (normally the application systems).
//! let mut executor = EchoExecutor::new();
//! executor.register("GetSupplierNo", |_| Ok(Table::scalar("SupplierNo", Value::Int(1234))));
//! executor.register("GetQuality", |_| Ok(Table::scalar("Qual", Value::Int(93))));
//!
//! let engine = Engine::new(CostModel::zero());
//! let mut input = process.input.instantiate();
//! input.set(&Ident::new("SupplierName"), Value::str("Acme"))?;
//! let mut meter = Meter::new();
//! let instance = engine.run(&process, &input, &executor, &mut meter)?;
//! assert_eq!(instance.output.value(0, "Qual"), Some(&Value::Int(93)));
//! # Ok::<(), fedwf_types::FedError>(())
//! ```

pub mod audit;
pub mod builder;
pub mod condition;
pub mod container;
pub mod engine;
pub mod fdl;
pub mod model;

pub use audit::{AuditEvent, AuditRecord, AuditTrail};
pub use builder::ProcessBuilder;
pub use condition::{CondOp, Condition};
pub use container::{Container, ContainerSchema};
pub use engine::{EchoExecutor, Engine, ProcessInstance, ProgramExecutor};
pub use fdl::{export_fdl, parse_fdl};
pub use model::{
    Activity, ActivityKind, ControlConnector, DataBinding, DataSource, HelperOp, LoopNode, Node,
    OutputSource, ProcessModel, RetryPolicy,
};
