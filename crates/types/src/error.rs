//! The workspace-wide error type.
//!
//! Every layer of the integration server (storage, SQL, workflow engine,
//! application systems, wrapper) produces a [`FedError`] so that a user
//! query failing deep inside a local function surfaces with its provenance
//! intact.

use std::fmt;

use crate::cast::CastError;

/// Result alias used across the workspace.
pub type FedResult<T> = Result<T, FedError>;

/// The layer an error originated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorLayer {
    /// Relational storage engine.
    Storage,
    /// SQL lexer/parser.
    Parse,
    /// Name resolution / typing.
    Bind,
    /// Plan construction or optimization.
    Plan,
    /// Runtime execution.
    Execution,
    /// Schema/constraint violations.
    Schema,
    /// Catalog lookups and DDL.
    Catalog,
    /// Workflow buildtime or runtime.
    Workflow,
    /// An application system / local function.
    AppSystem,
    /// SQL/MED wrapper or controller.
    Wrapper,
    /// Feature outside an architecture's mapping capability
    /// (e.g. a cyclic dependency handed to the UDTF architecture).
    Unsupported,
    /// The serving layer shed the request (admission queue full or the
    /// front is shutting down). The request was *not* executed.
    Overload,
    /// A per-call deadline expired before a result was produced.
    Timeout,
    /// Crash recovery: a write-ahead-log or checkpoint file could not be
    /// read, decoded, or replayed (beyond the tolerated torn tail).
    Recovery,
    /// A commit was rejected because the group committer died on a sink
    /// failure; the statement was *not* acknowledged as durable.
    Shutdown,
    /// A transport failure between a network client and the server:
    /// connect/read/write errors, a connection the server closed mid-call.
    /// Whether the request executed is *unknown* — retry only idempotent
    /// work.
    Network,
    /// A wire-protocol violation: bad frame checksum, unknown frame kind or
    /// tag, version mismatch, trailing bytes. One side is speaking a
    /// different dialect; retrying will not help.
    Protocol,
}

impl ErrorLayer {
    /// Every layer, in stable wire-code order.
    pub const ALL: [ErrorLayer; 17] = [
        ErrorLayer::Storage,
        ErrorLayer::Parse,
        ErrorLayer::Bind,
        ErrorLayer::Plan,
        ErrorLayer::Execution,
        ErrorLayer::Schema,
        ErrorLayer::Catalog,
        ErrorLayer::Workflow,
        ErrorLayer::AppSystem,
        ErrorLayer::Wrapper,
        ErrorLayer::Unsupported,
        ErrorLayer::Overload,
        ErrorLayer::Timeout,
        ErrorLayer::Recovery,
        ErrorLayer::Shutdown,
        ErrorLayer::Network,
        ErrorLayer::Protocol,
    ];

    /// The stable numeric code of this layer. These codes travel across
    /// the wire protocol and must never be renumbered — append new layers
    /// with fresh codes instead. Asserted by the golden-code test below.
    pub fn code(&self) -> u16 {
        match self {
            ErrorLayer::Storage => 1,
            ErrorLayer::Parse => 2,
            ErrorLayer::Bind => 3,
            ErrorLayer::Plan => 4,
            ErrorLayer::Execution => 5,
            ErrorLayer::Schema => 6,
            ErrorLayer::Catalog => 7,
            ErrorLayer::Workflow => 8,
            ErrorLayer::AppSystem => 9,
            ErrorLayer::Wrapper => 10,
            ErrorLayer::Unsupported => 11,
            ErrorLayer::Overload => 12,
            ErrorLayer::Timeout => 13,
            ErrorLayer::Recovery => 14,
            ErrorLayer::Shutdown => 15,
            ErrorLayer::Network => 16,
            ErrorLayer::Protocol => 17,
        }
    }

    /// Inverse of [`ErrorLayer::code`]; `None` for an unassigned code
    /// (e.g. a frame from a newer peer speaking a superset).
    pub fn from_code(code: u16) -> Option<ErrorLayer> {
        ErrorLayer::ALL.into_iter().find(|l| l.code() == code)
    }
}

impl fmt::Display for ErrorLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorLayer::Storage => "storage",
            ErrorLayer::Parse => "parse",
            ErrorLayer::Bind => "bind",
            ErrorLayer::Plan => "plan",
            ErrorLayer::Execution => "execution",
            ErrorLayer::Schema => "schema",
            ErrorLayer::Catalog => "catalog",
            ErrorLayer::Workflow => "workflow",
            ErrorLayer::AppSystem => "application-system",
            ErrorLayer::Wrapper => "wrapper",
            ErrorLayer::Unsupported => "unsupported",
            ErrorLayer::Overload => "overload",
            ErrorLayer::Timeout => "timeout",
            ErrorLayer::Recovery => "recovery",
            ErrorLayer::Shutdown => "shutdown",
            ErrorLayer::Network => "network",
            ErrorLayer::Protocol => "protocol",
        };
        f.write_str(s)
    }
}

/// Workspace-wide error: a layer tag, a message, and an optional chain of
/// context frames added as the error travels up through components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FedError {
    pub layer: ErrorLayer,
    pub message: String,
    pub context: Vec<String>,
}

impl FedError {
    pub fn new(layer: ErrorLayer, message: impl Into<String>) -> FedError {
        FedError {
            layer,
            message: message.into(),
            context: vec![],
        }
    }

    pub fn storage(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Storage, msg)
    }
    pub fn parse(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Parse, msg)
    }
    pub fn bind(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Bind, msg)
    }
    pub fn plan(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Plan, msg)
    }
    pub fn execution(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Execution, msg)
    }
    pub fn schema(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Schema, msg)
    }
    pub fn catalog(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Catalog, msg)
    }
    pub fn workflow(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Workflow, msg)
    }
    pub fn app_system(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::AppSystem, msg)
    }
    pub fn wrapper(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Wrapper, msg)
    }
    pub fn unsupported(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Unsupported, msg)
    }
    pub fn overloaded(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Overload, msg)
    }
    pub fn timeout(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Timeout, msg)
    }
    pub fn recovery(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Recovery, msg)
    }
    pub fn shutdown(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Shutdown, msg)
    }
    pub fn network(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Network, msg)
    }
    pub fn protocol(msg: impl Into<String>) -> FedError {
        FedError::new(ErrorLayer::Protocol, msg)
    }

    /// The stable numeric code of this error's layer; see
    /// [`ErrorLayer::code`]. This is what identifies an error across the
    /// wire protocol — clients match on codes, never on message strings.
    pub fn code(&self) -> u16 {
        self.layer.code()
    }

    /// Attach a context frame, e.g. "while executing activity GetQuality".
    pub fn with_context(mut self, frame: impl Into<String>) -> FedError {
        self.context.push(frame.into());
        self
    }

    /// True when the error marks a capability gap rather than a failure —
    /// the paper's Section 3 table records exactly these.
    pub fn is_unsupported(&self) -> bool {
        self.layer == ErrorLayer::Unsupported
    }

    /// True when the serving layer shed this request without executing it
    /// (safe to retry against a less loaded server).
    pub fn is_overloaded(&self) -> bool {
        self.layer == ErrorLayer::Overload
    }

    /// True when a per-call deadline expired.
    pub fn is_timeout(&self) -> bool {
        self.layer == ErrorLayer::Timeout
    }

    /// True when a commit was rejected by a dead group committer; the
    /// statement was *not* acknowledged as durable.
    pub fn is_shutdown(&self) -> bool {
        self.layer == ErrorLayer::Shutdown
    }

    /// True for a transport failure ([`ErrorLayer::Network`]): whether the
    /// request executed is unknown.
    pub fn is_network(&self) -> bool {
        self.layer == ErrorLayer::Network
    }

    /// True for a wire-protocol violation ([`ErrorLayer::Protocol`]).
    pub fn is_protocol(&self) -> bool {
        self.layer == ErrorLayer::Protocol
    }
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.layer, self.message)?;
        for frame in &self.context {
            write!(f, "\n  while {frame}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FedError {}

impl From<CastError> for FedError {
    fn from(e: CastError) -> FedError {
        FedError::execution(e.to_string())
    }
}

/// Extension for adding context to a `FedResult` chain.
pub trait ResultExt<T> {
    fn context(self, frame: impl Into<String>) -> FedResult<T>;
}

impl<T> ResultExt<T> for FedResult<T> {
    fn context(self, frame: impl Into<String>) -> FedResult<T> {
        self.map_err(|e| e.with_context(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    #[test]
    fn display_includes_layer_and_context() {
        let e = FedError::workflow("activity failed")
            .with_context("executing activity GetQuality")
            .with_context("running process BuySuppComp");
        let s = e.to_string();
        assert!(s.contains("[workflow] activity failed"));
        assert!(s.contains("while executing activity GetQuality"));
        assert!(s.contains("while running process BuySuppComp"));
    }

    #[test]
    fn cast_error_converts() {
        let ce = crate::cast::cast_value(&Value::str("abc"), DataType::Int).unwrap_err();
        let fe: FedError = ce.into();
        assert_eq!(fe.layer, ErrorLayer::Execution);
    }

    #[test]
    fn unsupported_marker() {
        assert!(FedError::unsupported("cyclic dependency").is_unsupported());
        assert!(!FedError::parse("x").is_unsupported());
    }

    /// Golden test: the wire codes are a stable contract. A client built
    /// against today's binary must decode errors from any future server,
    /// so these numbers may only ever be *extended*, never changed. If
    /// this test fails you renumbered a layer — don't.
    #[test]
    fn error_codes_are_stable() {
        let golden: [(ErrorLayer, u16); 17] = [
            (ErrorLayer::Storage, 1),
            (ErrorLayer::Parse, 2),
            (ErrorLayer::Bind, 3),
            (ErrorLayer::Plan, 4),
            (ErrorLayer::Execution, 5),
            (ErrorLayer::Schema, 6),
            (ErrorLayer::Catalog, 7),
            (ErrorLayer::Workflow, 8),
            (ErrorLayer::AppSystem, 9),
            (ErrorLayer::Wrapper, 10),
            (ErrorLayer::Unsupported, 11),
            (ErrorLayer::Overload, 12),
            (ErrorLayer::Timeout, 13),
            (ErrorLayer::Recovery, 14),
            (ErrorLayer::Shutdown, 15),
            (ErrorLayer::Network, 16),
            (ErrorLayer::Protocol, 17),
        ];
        assert_eq!(golden.len(), ErrorLayer::ALL.len(), "cover every layer");
        for (layer, code) in golden {
            assert_eq!(layer.code(), code, "{layer} was renumbered");
            assert_eq!(ErrorLayer::from_code(code), Some(layer));
        }
        assert_eq!(ErrorLayer::from_code(0), None);
        assert_eq!(ErrorLayer::from_code(999), None);
        assert_eq!(FedError::overloaded("x").code(), 12);
        assert_eq!(FedError::timeout("x").code(), 13);
    }

    #[test]
    fn result_ext_adds_context() {
        let r: FedResult<()> = Err(FedError::storage("io"));
        let r = r.context("scanning table Suppliers");
        assert_eq!(r.unwrap_err().context, vec!["scanning table Suppliers"]);
    }
}
