//! The network client: [`TcpClient`] implements
//! [`Submit`], so code written against `impl Submit`
//! moves from in-process to over-the-wire by swapping one value.
//!
//! Mechanics per call:
//!
//! 1. **Connection pool.** Idle connections are kept in a stack; a call
//!    pops one or dials a fresh one. N threads submitting concurrently
//!    grow the pool to N connections organically; at most `POOL_SIZE`
//!    (16) are retained afterwards.
//! 2. **Deadline propagation.** A request deadline travels as *remaining
//!    budget*: the client subtracts its own elapsed time (pool checkout,
//!    dialing) before encoding, so the server's admission queue honours
//!    what is actually left — no clock synchronization involved. The
//!    client's read timeout is that budget plus a grace window, giving
//!    the server first claim on reporting the timeout as a typed error
//!    frame (the transport-equivalence suite relies on this: a
//!    `Duration::ZERO` deadline produces the *server's*
//!    [`FedError::timeout`], identical to the in-process front's).
//! 3. **Reconnect.** If *writing* to a pooled connection fails (a server
//!    restart leaves stale sockets behind), the request provably never
//!    arrived, so the client redials once and resends. Failures after the
//!    write — lost replies — are reported as network errors, never
//!    retried: the request may have executed, and the client cannot know.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use fedwf_core::wire::{decode_error, decode_outcome, encode_request};
use fedwf_core::{Outcome, Request, Submit};
use fedwf_types::sync::Mutex;
use fedwf_types::{FedError, FedResult};

use crate::frame::{read_frame, write_frame, FrameKind};

/// Idle connections retained in the pool; calls beyond this still work
/// (they dial and the surplus connection is closed afterwards).
const POOL_SIZE: usize = 16;
/// Timeout for dialing the server.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Extra wait beyond a request's deadline before the client gives up on
/// the reply. Within the grace window the server reports deadline expiry
/// itself, as a typed error frame.
const REPLY_GRACE: Duration = Duration::from_secs(5);
/// Read timeout for requests without a deadline: bounds a hung server.
const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A pooled TCP client for a `fedwf` network server, usable wherever an
/// `impl Submit` is expected.
pub struct TcpClient {
    addr: SocketAddr,
    pool: Mutex<Vec<TcpStream>>,
}

impl TcpClient {
    /// Dial `addr` once (validating the server is reachable) and keep the
    /// connection pooled for the first call.
    pub fn connect(addr: impl ToSocketAddrs) -> FedResult<TcpClient> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| FedError::network(format!("address resolution failed: {e}")))?
            .next()
            .ok_or_else(|| FedError::network("address resolved to nothing"))?;
        let client = TcpClient {
            addr,
            pool: Mutex::new(Vec::new()),
        };
        let probe = client.dial()?;
        client.check_in(probe);
        Ok(client)
    }

    /// The server address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Idle connections currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.lock().len()
    }

    fn dial(&self) -> FedResult<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)
            .map_err(|e| FedError::network(format!("connect to {} failed: {e}", self.addr)))?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// Pop a pooled connection, discarding dead ones. A server that went
    /// away leaves a FIN (or RST) queued on the socket; a non-blocking
    /// one-byte peek surfaces it without consuming reply data — an alive,
    /// idle connection has nothing to read and reports `WouldBlock`.
    fn check_out(&self) -> Option<TcpStream> {
        loop {
            let stream = self.pool.lock().pop()?;
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let alive = match stream.peek(&mut [0u8; 1]) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
                // EOF, an error, or stray bytes outside a call: all dead.
                _ => false,
            };
            if alive && stream.set_nonblocking(false).is_ok() {
                return Some(stream);
            }
        }
    }

    fn check_in(&self, stream: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < POOL_SIZE {
            pool.push(stream);
        } // else drop: closes the surplus connection
    }

    /// One request/reply exchange on `stream`. `Err` in the outer layer
    /// means the *write* failed (safe to retry on a fresh connection);
    /// the inner `FedResult` is the call's actual result.
    fn exchange(
        &self,
        stream: &mut TcpStream,
        request: &Request,
        started: Instant,
    ) -> Result<FedResult<Outcome>, FedError> {
        let budget = request
            .deadline_opt()
            .map(|d| d.saturating_sub(started.elapsed()));
        let body = encode_request(request, budget);
        write_frame(stream, FrameKind::Request, &body)
            .map_err(|e| e.with_context(format!("sending {}", request.label())))?;
        let read_timeout = match budget {
            // Never Some(ZERO): that means "no timeout" to the socket API.
            // Saturating: a `Duration::MAX` budget must not overflow.
            Some(b) => Some(b.saturating_add(REPLY_GRACE).max(Duration::from_millis(1))),
            None => Some(IDLE_READ_TIMEOUT),
        };
        let _ = stream.set_read_timeout(read_timeout);
        Ok(self.read_reply(stream, request))
    }

    fn read_reply(&self, stream: &mut TcpStream, request: &Request) -> FedResult<Outcome> {
        let frame = read_frame(stream, || false)
            .map_err(|e| e.with_context(format!("awaiting reply for {}", request.label())))?;
        match frame {
            Some((FrameKind::Outcome, body)) => decode_outcome(&body),
            Some((FrameKind::Error, body)) => Err(decode_error(&body)?),
            Some((FrameKind::Request, _)) => Err(FedError::protocol(
                "server sent a Request frame; only Outcome/Error flow server → client",
            )),
            None => Err(FedError::network(format!(
                "server closed the connection before replying to {}; \
                 the request may or may not have executed",
                request.label()
            ))),
        }
    }
}

impl Submit for TcpClient {
    /// Execute `request` on the remote server. Successful calls and typed
    /// server errors (execution failures, overload, timeout) return the
    /// connection to the pool; transport-level failures close it.
    fn submit(&self, request: Request) -> FedResult<Outcome> {
        let started = Instant::now();
        if let Some(mut pooled) = self.check_out() {
            match self.exchange(&mut pooled, &request, started) {
                Ok(result) => {
                    if result_keeps_connection(&result) {
                        self.check_in(pooled);
                    }
                    return result;
                }
                // Write to a pooled connection failed: stale socket. The
                // request never reached the server — redial and resend.
                Err(_stale) => drop(pooled),
            }
        }
        let mut fresh = self.dial()?;
        let result = self
            .exchange(&mut fresh, &request, started)
            .unwrap_or_else(Err);
        if result_keeps_connection(&result) {
            self.check_in(fresh);
        }
        result
    }
}

/// A connection stays poolable unless the failure was transport-level —
/// after a network/protocol error the stream position is unknown.
fn result_keeps_connection(result: &FedResult<Outcome>) -> bool {
    match result {
        Ok(_) => true,
        Err(e) => !e.is_network() && !e.is_protocol(),
    }
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("addr", &self.addr)
            .field("pooled", &self.pooled())
            .finish()
    }
}
