//! # fedwf-fdbs
//!
//! The federated database system — the role IBM DB2 UDB v7.1 plays in the
//! paper. It owns:
//!
//! * a **catalog** of local tables (backed by [`fedwf_relstore`]), foreign
//!   tables on remote SQL sources (federation with predicate pushdown), and
//!   **user-defined table functions** in three flavours: native (closures —
//!   the A-UDTFs and "Java" I-UDTFs), SQL-bodied (the paper's
//!   `CREATE FUNCTION ... LANGUAGE SQL RETURN SELECT ...` I-UDTFs), and
//!   anything a SQL/MED-style [`sqlmed::ForeignServer`] provides;
//! * a **binder/planner** implementing DB2's left-to-right lateral FROM
//!   semantics: a table function's arguments may reference correlation
//!   names introduced to its left (never to its right), which is how the
//!   paper encodes the precedence structure among local function calls;
//! * an **optimizer** performing predicate classification and pushdown
//!   (into local scans, foreign scans, and to the earliest lateral position
//!   where a conjunct becomes evaluable) and constant folding;
//! * a **Volcano-style executor** that books virtual costs: plan
//!   compilation (with a plan cache — repeated statements are cheaper, one
//!   of Section 4's observations), predicate evaluation, row output, and
//!   the *join-with-selection* composition cost that makes the UDTF
//!   architecture's independent case slower than its sequential case
//!   (the contrast of Section 4);
//! * **UDTF charge specs**: each registered UDTF carries the start/finish
//!   cost sequence its architecture implies (I-UDTF vs A-UDTF vs the
//!   WfMS-connecting UDTF), so a single executor reproduces both columns of
//!   the paper's Fig. 6.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use fedwf_fdbs::{Fdbs, Udtf};
//! use fedwf_sim::{CostModel, Meter};
//! use fedwf_types::{DataType, Ident, Schema, Table, Value};
//!
//! let fdbs = Fdbs::new(CostModel::zero());
//! let mut meter = Meter::new();
//!
//! // A local table plus a table function, joined laterally.
//! fdbs.execute("CREATE TABLE Suppliers (SupplierNo INT, Name VARCHAR)", &mut meter)?;
//! fdbs.execute("INSERT INTO Suppliers VALUES (1234, 'Acme')", &mut meter)?;
//! fdbs.register_udtf(Udtf::native(
//!     "GetQuality",
//!     vec![(Ident::new("SupplierNo"), DataType::Int)],
//!     Arc::new(Schema::of(&[("Qual", DataType::Int)])),
//!     |_args, _meter| Ok(Table::scalar("Qual", Value::Int(93))),
//! ))?;
//!
//! let result = fdbs.execute(
//!     "SELECT S.Name, GQ.Qual \
//!      FROM Suppliers AS S, TABLE (GetQuality(S.SupplierNo)) AS GQ \
//!      WHERE S.SupplierNo = 1234",
//!     &mut meter,
//! )?;
//! assert_eq!(result.value(0, "Qual"), Some(&Value::Int(93)));
//! # Ok::<(), fedwf_types::FedError>(())
//! ```

pub mod catalog;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod optimizer;
pub mod plan;
pub(crate) mod plan_cache;
pub mod sqlmed;
pub mod stats;
pub mod udtf;
pub(crate) mod vexec;
pub(crate) mod vexpr;

pub use catalog::Catalog;
pub use engine::{ExecOptions, Fdbs};
pub use exec::{execute_plan_with_mode, ExecMode};
pub use expr::BoundExpr;
pub use optimizer::PlannerMode;
pub use plan::{JoinKey, LogicalPlan, Plan, PlanBuilder};
pub use plan_cache::PLAN_CACHE_CAPACITY;
pub use sqlmed::{ForeignServer, RelstoreServer};
pub use stats::{ColumnStats, TableStatistics};
pub use udtf::{ChargeItem, ChargeSpec, Udtf, UdtfKind};
