//! # fedwf-net
//!
//! Network serving for the integration server: the paper's Fig. 2 places
//! the integration middleware between client applications and the
//! federated backends — this crate supplies the client/server boundary
//! of that picture, which the in-process crates deliberately left out.
//!
//! Three layers, bottom up:
//!
//! * [`frame`] — a length-prefixed, CRC-32-checked binary frame
//!   (`[len][crc][version][kind][body]`), reusing the relstore WAL's
//!   framing discipline and the in-tree checksum. Bodies are the
//!   `Request`/`Outcome`/`FedError` encodings of [`fedwf_core::wire`].
//! * [`server`] — [`NetServer`]: a `std::net::TcpListener` whose
//!   connection threads decode requests, pass them through the existing
//!   [`ServerFront`](fedwf_core::ServerFront) admission gate and, once
//!   admitted, execute them in place. Bounded admission, per-call
//!   deadlines, shedding and graceful drain are therefore preserved
//!   end-to-end, with overload and timeout travelling as typed error
//!   frames.
//! * [`client`] — [`TcpClient`]: a pooled, reconnecting client that
//!   implements [`Submit`](fedwf_core::Submit), making the transport a
//!   swappable detail of any code written against `impl Submit`. Request
//!   deadlines propagate as remaining budget inside the frame.
//!
//! The `fedwf-server` binary (in the root package) wraps [`NetServer`]
//! around a booted paper setup; see README "Network mode" for the
//! quickstart and DESIGN.md §14 for the wire grammar.

pub mod client;
pub mod frame;
pub mod server;

pub use client::TcpClient;
pub use frame::{FrameKind, MAX_FRAME_LEN, WIRE_VERSION};
pub use server::NetServer;

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_core::{
        paper_functions, ArchitectureKind, FrontConfig, IntegrationServer, Request, ServerFront,
        Submit,
    };
    use fedwf_types::Value;
    use std::sync::Arc;
    use std::time::Duration;

    fn serve(config: FrontConfig) -> (NetServer, Arc<IntegrationServer>) {
        let server =
            Arc::new(IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap());
        server.boot();
        server.deploy(&paper_functions::get_supp_qual()).unwrap();
        let front = Arc::new(ServerFront::start(Arc::clone(&server), config));
        let net = NetServer::start("127.0.0.1:0", front).unwrap();
        (net, server)
    }

    #[test]
    fn round_trip_over_loopback() {
        let (net, server) = serve(FrontConfig::default());
        let client = TcpClient::connect(net.local_addr()).unwrap();
        let supplier = server.scenario().well_known_supplier_name().to_string();
        let outcome = client
            .submit(Request::function("GetSuppQual").arg(supplier).traced(true))
            .unwrap();
        assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
        assert!(outcome.elapsed_us() > 0);
        assert!(outcome.trace.is_some(), "trace travels the wire");
        assert_eq!(net.metrics().counter("net.requests").get(), 1);
    }

    #[test]
    fn byte_counters_equal_the_frames_of_one_request() {
        use crate::frame::{read_frame, write_frame, FRAME_OVERHEAD};
        use fedwf_core::wire::encode_request;

        let (net, server) = serve(FrontConfig::default());
        let metrics = Arc::clone(net.metrics());
        let supplier = server.scenario().well_known_supplier_name().to_string();
        let body = encode_request(&Request::function("GetSuppQual").arg(supplier), None);
        let mut stream = std::net::TcpStream::connect(net.local_addr()).unwrap();
        write_frame(&mut stream, FrameKind::Request, &body).unwrap();
        let (kind, reply) = read_frame(&mut stream, || false).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Outcome);
        // The server counts a reply after writing it: join its threads
        // before reading the counters.
        drop(stream);
        net.shutdown();
        let counter = |name: &str| metrics.counter(name).get();
        assert_eq!(
            counter("net.bytes_in"),
            (FRAME_OVERHEAD + body.len()) as u64
        );
        assert_eq!(
            counter("net.bytes_out"),
            (FRAME_OVERHEAD + reply.len()) as u64
        );
    }

    #[test]
    fn execution_errors_arrive_typed_and_connection_survives() {
        let (net, server) = serve(FrontConfig::default());
        let client = TcpClient::connect(net.local_addr()).unwrap();
        let err = client.submit(Request::function("NotDeployed")).unwrap_err();
        assert!(err.to_string().contains("not deployed"), "{err}");
        // Same connection keeps working after a typed error.
        let supplier = server.scenario().well_known_supplier_name().to_string();
        client
            .submit(Request::function("GetSuppQual").arg(supplier))
            .unwrap();
        assert_eq!(net.metrics().counter("net.connections").get(), 1);
    }

    #[test]
    fn zero_deadline_times_out_server_side() {
        let (net, server) = serve(FrontConfig::default());
        let client = TcpClient::connect(net.local_addr()).unwrap();
        let supplier = server.scenario().well_known_supplier_name().to_string();
        let err = client
            .submit(
                Request::function("GetSuppQual")
                    .arg(supplier)
                    .deadline(Duration::ZERO),
            )
            .unwrap_err();
        // The *server's* typed timeout, shipped back as an error frame —
        // not a client-side socket timeout.
        assert!(err.is_timeout(), "{err}");
        drop(net);
    }

    #[test]
    fn drain_finishes_in_flight_work() {
        let (net, server) = serve(FrontConfig::default().with_workers(2));
        let addr = net.local_addr();
        let supplier = server.scenario().well_known_supplier_name().to_string();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let supplier = supplier.clone();
                std::thread::spawn(move || {
                    let client = TcpClient::connect(addr).unwrap();
                    client.submit(Request::function("GetSuppQual").arg(supplier))
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap().unwrap();
        }
        net.shutdown(); // must not hang, must join all threads
    }

    #[test]
    fn stale_pooled_connection_reconnects() {
        let (net, server) = serve(FrontConfig::default());
        let addr = net.local_addr();
        let client = TcpClient::connect(addr).unwrap();
        let supplier = server.scenario().well_known_supplier_name().to_string();
        client
            .submit(Request::function("GetSuppQual").arg(supplier.clone()))
            .unwrap();
        // Kill the server; the pooled connection goes stale.
        net.shutdown();
        let front = Arc::new(ServerFront::start(
            Arc::clone(&server),
            FrontConfig::default(),
        ));
        let net2 = NetServer::start(addr, front);
        // Rebinding the exact port can race the OS; skip quietly if so.
        let Ok(net2) = net2 else { return };
        // First write to the stale socket fails → client redials → works.
        client
            .submit(Request::function("GetSuppQual").arg(supplier))
            .unwrap();
        drop(net2);
    }
}
