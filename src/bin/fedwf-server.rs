//! The network server binary: a booted paper setup behind a TCP socket.
//!
//! ```text
//! cargo run --release --bin fedwf-server                       # WfMS, 127.0.0.1:4711
//! cargo run --release --bin fedwf-server -- --addr 127.0.0.1:0 # ephemeral port
//! cargo run --release --bin fedwf-server -- --arch java --workers 8
//! ```
//!
//! Boots the three application systems, deploys every Fig. 5 federated
//! function the chosen architecture supports, starts a [`ServerFront`]
//! (FIFO admission gate: `--workers` calls run at once, each on its
//! connection thread, `--queue-depth` wait) and serves it over the wire
//! protocol (DESIGN.md §14). Talk to it with `fedwf::net::TcpClient` —
//! see `examples/network_roundtrip.rs` — or any `impl Submit` consumer.
//!
//! Startup prints machine-parseable lines on stdout:
//!
//! ```text
//! listening on 127.0.0.1:4711
//! well-known supplier: ABC Trading Company
//! ready
//! ```
//!
//! Shutdown: send `shutdown` (or EOF) on stdin. The server stops
//! accepting, lets in-flight requests finish, writes their replies, joins
//! every thread and exits 0.

use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

use fedwf::core::{paper_functions, ArchitectureKind, FrontConfig, IntegrationServer, ServerFront};
use fedwf::net::NetServer;

struct Options {
    addr: String,
    arch: ArchitectureKind,
    workers: usize,
    queue_depth: usize,
    deadline: Duration,
}

fn usage() -> ! {
    eprintln!(
        "usage: fedwf-server [--addr HOST:PORT] [--arch wfms|udtf|java|simple]\n\
         \x20                   [--workers N] [--queue-depth N] [--deadline-ms N]"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut options = Options {
        addr: "127.0.0.1:4711".to_string(),
        arch: ArchitectureKind::Wfms,
        workers: 4,
        queue_depth: 64,
        deadline: Duration::from_secs(10),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => options.addr = value(),
            "--arch" => {
                options.arch = match value().as_str() {
                    "wfms" => ArchitectureKind::Wfms,
                    "udtf" | "sql-udtf" => ArchitectureKind::SqlUdtf,
                    "java" | "java-udtf" => ArchitectureKind::JavaUdtf,
                    "simple" | "simple-udtf" => ArchitectureKind::SimpleUdtf,
                    other => {
                        eprintln!("unknown architecture {other:?}");
                        usage()
                    }
                }
            }
            "--workers" => options.workers = value().parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => options.queue_depth = value().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                options.deadline =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    options
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = parse_options();

    eprintln!("fedwf-server — {}", options.arch.name());
    eprintln!("booting application systems and deploying the Fig. 5 workload ...");
    let server = Arc::new(IntegrationServer::with_architecture(options.arch)?);
    server.boot();
    let mut deployed = 0;
    for (spec, _) in paper_functions::fig5_workload() {
        if server.architecture().supports(&spec) {
            server.deploy(&spec)?;
            deployed += 1;
        }
    }
    eprintln!(
        "{deployed} federated functions deployed; front: {} workers, queue depth {}, default deadline {:?}",
        options.workers, options.queue_depth, options.deadline
    );

    let front = Arc::new(ServerFront::start(
        Arc::clone(&server),
        FrontConfig::default()
            .with_workers(options.workers)
            .with_queue_depth(options.queue_depth)
            .with_default_deadline(options.deadline),
    ));
    let net = NetServer::start(options.addr.as_str(), Arc::clone(&front))?;

    // Machine-parseable startup report (the smoke test reads these).
    println!("listening on {}", net.local_addr());
    println!(
        "well-known supplier: {}",
        server.scenario().well_known_supplier_name()
    );
    println!("ready");

    // Serve until stdin says stop (or closes — so the server also drains
    // cleanly when its parent process dies and the pipe breaks).
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(cmd) if cmd.trim() == "shutdown" => break,
            Ok(cmd) if cmd.trim().is_empty() => continue,
            Ok(cmd) => eprintln!("unknown command {:?} (try \"shutdown\")", cmd.trim()),
            Err(_) => break,
        }
    }

    eprintln!("draining: accepting no new connections, finishing in-flight requests ...");
    let requests = net.metrics().counter("net.requests").get();
    let connections = net.metrics().counter("net.connections").get();
    net.shutdown(); // join connection threads; replies all written
    let stats = front.stats();
    drop(front); // connection threads are joined, so nothing is in flight
    println!(
        "drained: {requests} requests over {connections} connections \
         ({} accepted, {} completed, {} shed, {} expired in queue)",
        stats.accepted, stats.completed, stats.shed, stats.expired_in_queue
    );
    Ok(())
}
