//! The TCP serving layer: a listener whose connections feed the
//! in-process admission front.
//!
//! Division of labour, per the middle-tier shape of the paper's Fig. 2:
//! each connection thread reads a frame, decodes it, submits the request
//! to the [`ServerFront`], encodes the reply and writes it back. The
//! front's admission gate decides *whether and when* the request runs;
//! once admitted it runs right here, on the connection thread, so a
//! request never changes threads between socket and reply. Admission
//! control, per-call deadlines, load shedding and panic containment all
//! stay in the front, so a server reached over TCP degrades *identically*
//! to one called in-process: a full queue sheds with
//! [`FedError::overloaded`], an expired deadline reports
//! [`FedError::timeout`], and both travel the wire as typed error frames
//! (the transport-equivalence suite asserts exactly this).
//!
//! Shutdown is graceful: the stop flag parks new accepts, connection
//! threads notice it between frames (they poll with a short read
//! timeout), a request already in hand finishes and its reply is written
//! before the connection closes.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fedwf_core::wire::{decode_request, encode_error, encode_outcome};
use fedwf_core::ServerFront;
use fedwf_sim::{Counter, MetricsRegistry};
use fedwf_types::sync::Mutex;
use fedwf_types::{FedError, FedResult};

use crate::frame::{read_frame, write_frame, FrameKind, FRAME_OVERHEAD};

/// Tuning of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Read timeout of idle connection threads; bounds how long shutdown
    /// waits for them to notice the stop flag.
    pub poll_interval: Duration,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// A TCP server exposing one [`ServerFront`] over the wire protocol.
///
/// Listens on a `std::net` socket; every accepted connection gets a
/// thread that speaks frames (see [`crate::frame`]) and submits decoded
/// requests to the front. Connections are independent — a protocol error
/// on one closes that one connection, nothing else.
///
/// ```no_run
/// use fedwf_core::{ArchitectureKind, FrontConfig, IntegrationServer, ServerFront};
/// use fedwf_net::NetServer;
/// use std::sync::Arc;
///
/// let server = Arc::new(IntegrationServer::with_architecture(ArchitectureKind::Wfms)?);
/// server.boot();
/// let front = Arc::new(ServerFront::start(server, FrontConfig::default()));
/// let net = NetServer::start("127.0.0.1:0", front)?;
/// println!("serving on {}", net.local_addr());
/// # Ok::<(), fedwf_types::FedError>(())
/// ```
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics: Arc<MetricsRegistry>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// accepting. The front stays shared — in-process callers can keep
    /// using it concurrently.
    pub fn start(addr: impl ToSocketAddrs, front: Arc<ServerFront>) -> FedResult<NetServer> {
        NetServer::start_with(addr, front, NetServerConfig::default())
    }

    pub fn start_with(
        addr: impl ToSocketAddrs,
        front: Arc<ServerFront>,
        config: NetServerConfig,
    ) -> FedResult<NetServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| FedError::network(format!("bind failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| FedError::network(format!("local_addr failed: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let metrics = Arc::new(MetricsRegistry::new());
        let counters = NetCounters::register(&metrics);

        let accept = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("fedwf-net-accept".into())
                .spawn(move || {
                    accept_loop(&listener, &front, &stop, &connections, &counters, &config)
                })
                .expect("spawn accept thread")
        };

        Ok(NetServer {
            local_addr,
            stop,
            accept: Some(accept),
            connections,
            metrics,
        })
    }

    /// The address actually bound — the one clients dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters: `net.connections` (accepted so far), `net.requests`,
    /// `net.bad_frames` (connections dropped for protocol violations),
    /// `net.bytes_in` and `net.bytes_out` (whole frames read and written,
    /// headers included; a frame that fails to read is not counted).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Stop accepting, let in-flight requests finish, join every thread.
    /// `Drop` does the same; this form just names the intent.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a throwaway local connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles = std::mem::take(&mut *self.connections.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

/// The request-path counters of a [`NetServer`]'s registry, registered
/// once and shared by every connection thread.
#[derive(Clone)]
struct NetCounters {
    connections: Counter,
    requests: Counter,
    bad_frames: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
}

impl NetCounters {
    fn register(metrics: &MetricsRegistry) -> NetCounters {
        NetCounters {
            connections: metrics.counter("net.connections"),
            requests: metrics.counter("net.requests"),
            bad_frames: metrics.counter("net.bad_frames"),
            bytes_in: metrics.counter("net.bytes_in"),
            bytes_out: metrics.counter("net.bytes_out"),
        }
    }

    /// Write one frame, counting its bytes once they are out.
    fn write(&self, writer: &mut &TcpStream, kind: FrameKind, body: &[u8]) -> FedResult<()> {
        write_frame(writer, kind, body)?;
        self.bytes_out.add((FRAME_OVERHEAD + body.len()) as u64);
        Ok(())
    }
}

fn accept_loop(
    listener: &TcpListener,
    front: &Arc<ServerFront>,
    stop: &Arc<AtomicBool>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: &NetCounters,
    config: &NetServerConfig,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return; // the wake-up connection, or a race with shutdown
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue, // transient accept failure; keep serving
        };
        counters.connections.inc();
        let front = Arc::clone(front);
        let stop = Arc::clone(stop);
        let counters = counters.clone();
        let poll = config.poll_interval;
        let handle = std::thread::Builder::new()
            .name("fedwf-net-conn".into())
            .spawn(move || serve_connection(stream, &front, &stop, &counters, poll))
            .expect("spawn connection thread");
        connections.lock().push(handle);
    }
}

/// One connection: frames in, frames out, until the peer hangs up or the
/// server drains. Every decoded request passes the front's admission gate
/// like any in-process call and, once admitted, executes on this thread.
fn serve_connection(
    stream: TcpStream,
    front: &ServerFront,
    stop: &AtomicBool,
    counters: &NetCounters,
    poll: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(poll));
    let mut reader = &stream;
    let mut writer = &stream;
    loop {
        let (kind, body) = match read_frame(&mut reader, || !stop.load(Ordering::SeqCst)) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // peer closed, or we are draining
            Err(e) => {
                // Desynchronized or torn stream: tell the peer if the pipe
                // still works, then drop the connection — per-connection
                // state is unrecoverable, the front is untouched.
                counters.bad_frames.inc();
                let _ = counters.write(&mut writer, FrameKind::Error, &encode_error(&e));
                return;
            }
        };
        counters.bytes_in.add((FRAME_OVERHEAD + body.len()) as u64);
        if kind != FrameKind::Request {
            counters.bad_frames.inc();
            let err = FedError::protocol(format!(
                "client sent a {kind:?} frame; only Request frames flow client → server"
            ));
            let _ = counters.write(&mut writer, FrameKind::Error, &encode_error(&err));
            return;
        }
        counters.requests.inc();
        // A body that decodes is a well-formed conversation even if the
        // request itself fails — reply and keep the connection; only
        // framing-level trouble closes it.
        let reply = decode_request(&body).and_then(|request| front.execute(request));
        let written = match reply {
            Ok(outcome) => {
                counters.write(&mut writer, FrameKind::Outcome, &encode_outcome(&outcome))
            }
            Err(e) => counters.write(&mut writer, FrameKind::Error, &encode_error(&e)),
        };
        if written.is_err() {
            return; // peer gone mid-reply; nothing to salvage
        }
        let _ = writer.flush();
    }
}
