//! # fedwf-core
//!
//! The paper's contribution: an integration server that couples an FDBS
//! with a WfMS so that *federated functions* — compositions of predefined
//! local functions of encapsulated application systems — become first-class
//! table functions inside SQL queries.
//!
//! The crate provides:
//!
//! * [`mapping`] — the declarative [`MappingSpec`]: which local functions a
//!   federated function calls, how their parameters are wired (federated
//!   parameters, upstream outputs, constants, loop counters), and how the
//!   result is assembled;
//! * [`mod@classify`] — Section 3's heterogeneity taxonomy: trivial / simple /
//!   independent / dependent (linear, 1:n, n:1) / cyclic / general, derived
//!   structurally from a spec;
//! * [`arch`] — the architecture spectrum of Section 2, each compiling a
//!   `MappingSpec` into something callable:
//!   [`arch::WfmsArchitecture`] (workflow process + connecting UDTF),
//!   [`arch::SqlUdtfArchitecture`] (one SQL I-UDTF over A-UDTFs — rejects
//!   the cyclic case, the paper's central capability gap),
//!   [`arch::JavaUdtfArchitecture`] (a native I-UDTF issuing many SQL
//!   statements, with host-language control structures),
//!   [`arch::SimpleUdtfArchitecture`] (A-UDTFs only; composition burden on
//!   the application);
//! * [`server`] — the [`IntegrationServer`] facade wiring application
//!   systems, controller, wrapper, WfMS and FDBS together, with the
//!   warm-up environment model (boots, plan cache, template cache) that
//!   reproduces Section 4's cold / after-other / repeated tiers;
//! * [`front`] — the [`ServerFront`] serving layer: a FIFO admission
//!   gate letting N client threads call the server concurrently, each on
//!   its own thread, with bounded concurrency and queue, per-call
//!   deadlines and typed load shedding;
//! * [`paper_functions`] — the federated functions of the paper's running
//!   examples (`BuySuppComp`, `GibKompNr`, `GetNumberSupp1234`,
//!   `GetSubCompDiscounts`, `GetSuppQual`, `GetSuppQualRelia`,
//!   `GetNoSuppComp`, `AllCompNames`) as ready-made specs.
//!
//! # Example
//!
//! ```
//! use fedwf_core::{ArgSource, ArchitectureKind, IntegrationServer, MappingSpec, Request};
//! use fedwf_types::{DataType, Value};
//!
//! // Declare a federated function: supplier name -> quality (two local
//! // functions, linearly dependent).
//! let spec = MappingSpec::new("SuppQual", &[("SupplierName", DataType::Varchar)])
//!     .call("GSN", "GetSupplierNo", vec![ArgSource::param("SupplierName")])
//!     .call("GQ", "GetQuality", vec![ArgSource::output("GSN", "SupplierNo")])
//!     .output_from_call("GQ")?;
//!
//! // Deploy it on the WfMS-coupled integration server and call it.
//! let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms)?;
//! server.boot();
//! server.deploy(&spec)?;
//! let outcome = server.execute(
//!     &Request::function("SuppQual")
//!         .arg(Value::str(server.scenario().well_known_supplier_name())),
//! )?;
//! assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
//! # Ok::<(), fedwf_types::FedError>(())
//! ```

pub mod arch;
pub mod classify;
pub mod front;
pub mod mapping;
pub mod paper_functions;
pub mod request;
pub mod server;
pub mod submit;
pub mod wire;

pub use arch::{
    Architecture, ArchitectureKind, JavaUdtfArchitecture, SimpleUdtfArchitecture,
    SqlUdtfArchitecture, WfmsArchitecture,
};
pub use classify::{classify, ComplexityCase};
pub use front::{FrontConfig, FrontStats, ServerFront};
pub use mapping::{ArgSource, CyclicSpec, FedOutput, LocalCall, MappingSpec};
pub use request::{Outcome, Request, Target};
pub use server::{IntegrationConfig, IntegrationServer, LocalStoreConfig};
pub use submit::Submit;
