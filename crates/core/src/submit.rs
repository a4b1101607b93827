//! The transport-agnostic client surface: one [`Submit`] trait over
//! [`Request`] → [`Outcome`].
//!
//! Everything a caller can do against the integration server goes through
//! `submit(Request) -> FedResult<Outcome>`. The trait is implemented by
//!
//! * [`IntegrationServer`] — direct in-process execution, no queue;
//! * [`ServerFront`] — in-process with admission control, bounded
//!   concurrency, deadlines and load shedding;
//! * `fedwf_net::TcpClient` — the same calls over a socket, against a
//!   `fedwf-server` process.
//!
//! Tests, benches and examples written against `impl Submit` run
//! unchanged on any transport; the transport-equivalence suite holds the
//! implementations to byte-identical result tables and charge logs.
//!
//! ```
//! use fedwf_core::{paper_functions, ArchitectureKind, IntegrationServer, Request, Submit};
//!
//! fn qual(submit: &impl Submit, supplier: &str) -> fedwf_types::FedResult<i32> {
//!     let outcome = submit.submit(Request::function("GetSuppQual").arg(supplier))?;
//!     match outcome.table.value(0, "Qual") {
//!         Some(fedwf_types::Value::Int(q)) => Ok(*q),
//!         other => panic!("unexpected Qual {other:?}"),
//!     }
//! }
//!
//! let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms)?;
//! server.boot();
//! server.deploy(&paper_functions::get_supp_qual())?;
//! let supplier = server.scenario().well_known_supplier_name().to_string();
//! assert_eq!(qual(&server, &supplier)?, 93);
//! # Ok::<(), fedwf_types::FedError>(())
//! ```

use std::sync::Arc;

use fedwf_types::FedResult;

use crate::front::ServerFront;
use crate::request::{Outcome, Request};
use crate::server::IntegrationServer;

/// Submit one [`Request`] for execution and wait for its [`Outcome`].
///
/// Implementations differ in *where* the execution happens (the calling
/// thread, the calling thread behind an admission gate, another process
/// across a socket) and therefore in which
/// degradation errors they can produce (`Overload`, `Timeout`, `Network`,
/// `Protocol`) — but a successful outcome is identical across all of
/// them: same table, same charge log, same virtual clock.
pub trait Submit {
    fn submit(&self, request: Request) -> FedResult<Outcome>;
}

impl Submit for IntegrationServer {
    /// Direct execution on the calling thread. There is no admission
    /// queue, so deadlines and shedding do not apply here — use a
    /// [`ServerFront`] for bounded admission.
    fn submit(&self, request: Request) -> FedResult<Outcome> {
        self.execute(&request)
    }
}

impl Submit for ServerFront {
    /// Gated execution through the front on the calling thread: admission
    /// control, per-call deadline, typed overload/timeout degradation.
    fn submit(&self, request: Request) -> FedResult<Outcome> {
        self.execute(request)
    }
}

impl<S: Submit + ?Sized> Submit for &S {
    fn submit(&self, request: Request) -> FedResult<Outcome> {
        (**self).submit(request)
    }
}

impl<S: Submit + ?Sized> Submit for Arc<S> {
    fn submit(&self, request: Request) -> FedResult<Outcome> {
        (**self).submit(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchitectureKind;
    use crate::front::FrontConfig;
    use crate::paper_functions;
    use fedwf_types::Value;

    fn qual_via(submit: &impl Submit, supplier: &str) -> Value {
        submit
            .submit(Request::function("GetSuppQual").arg(supplier))
            .expect("call succeeds")
            .table
            .value(0, "Qual")
            .expect("Qual column present")
            .clone()
    }

    #[test]
    fn server_and_front_share_the_trait() {
        let server =
            Arc::new(IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap());
        server.boot();
        server.deploy(&paper_functions::get_supp_qual()).unwrap();
        let supplier = server.scenario().well_known_supplier_name().to_string();

        // Direct, through the Arc blanket impl, and through a front — all
        // the same API, all the same answer.
        assert_eq!(qual_via(&server, &supplier), Value::Int(93));
        let front = ServerFront::start(Arc::clone(&server), FrontConfig::default());
        assert_eq!(qual_via(&front, &supplier), Value::Int(93));
        let dyn_submit: Arc<dyn Submit + Send + Sync> = Arc::new(front);
        assert_eq!(qual_via(&dyn_submit, &supplier), Value::Int(93));
    }
}
