//! The system under test, assembled exactly as `fedwf-server` assembles
//! it: `IntegrationServer` (WfMS architecture, default data, result cache
//! off) with every supported Fig. 5 function deployed, behind a
//! `ServerFront` with the server's defaults (4 workers, queue depth 64,
//! 10 s deadline), behind a loopback `NetServer`. One `TcpClient` per
//! client thread.

use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fedwf_core::{
    paper_functions, FrontConfig, IntegrationConfig, IntegrationServer, LocalStoreConfig,
    ServerFront,
};
use fedwf_fdbs::{ForeignServer, RelstoreServer, TableStatistics};
use fedwf_net::{NetServer, TcpClient};
use fedwf_relstore::Predicate;
use fedwf_types::{ColumnBatch, CommitMode, FedResult, SchemaRef, Table};

/// Client threads driving the closed loop (this machine's core count when
/// the benchmark was defined; fixed so runs compare across machines).
pub const CLIENTS: usize = 2;

pub struct Rig {
    pub server: Arc<IntegrationServer>,
    pub front: Arc<ServerFront>,
    pub net: NetServer,
    pub clients: Vec<TcpClient>,
}

impl Rig {
    /// Boot the integration server, deploy the Fig. 5 workload and start
    /// the serving layers. `store_dir` makes the FDBS local store durable
    /// under group commit.
    pub fn start(store_dir: Option<&Path>) -> FedResult<Rig> {
        let mut config = IntegrationConfig::default();
        if let Some(dir) = store_dir {
            config = config
                .with_local_store(LocalStoreConfig::at(dir).with_commit_mode(CommitMode::group()));
        }
        let server = Arc::new(IntegrationServer::new(config)?);
        server.boot();
        for (spec, _) in paper_functions::fig5_workload() {
            if server.architecture().supports(&spec) {
                server.deploy(&spec)?;
            }
        }
        let front = Arc::new(ServerFront::start(
            Arc::clone(&server),
            FrontConfig::default(),
        ));
        let net = NetServer::start("127.0.0.1:0", Arc::clone(&front))?;
        let clients = (0..CLIENTS)
            .map(|_| TcpClient::connect(net.local_addr()))
            .collect::<FedResult<Vec<_>>>()?;
        Ok(Rig {
            server,
            front,
            net,
            clients,
        })
    }

    /// Stop every thread the rig started and release the server, so a
    /// durable store is closed when this returns.
    pub fn shutdown(self) {
        let Rig {
            server,
            front,
            net,
            clients,
        } = self;
        drop(clients);
        net.shutdown();
        drop(front);
        drop(server);
    }
}

impl std::fmt::Debug for Rig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rig").field("server", &self.server).finish()
    }
}

thread_local! {
    /// Nanoseconds spent in foreign-table scans on this thread while a
    /// measurement is open (`None`: not measuring).
    static SQLMED_NS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Start accumulating foreign-scan time on the calling thread.
pub fn sqlmed_open() {
    SQLMED_NS.with(|c| c.set(Some(0)));
}

/// Stop accumulating and return the foreign-scan time since `sqlmed_open`.
pub fn sqlmed_close() -> u64 {
    SQLMED_NS.with(|c| c.take().unwrap_or(0))
}

fn sqlmed_timed<T>(f: impl FnOnce() -> T) -> T {
    if SQLMED_NS.with(Cell::get).is_none() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    SQLMED_NS.with(|c| c.set(c.get().map(|acc| acc + ns)));
    out
}

/// The SQL/MED foreign server of `sql_mix`: a `RelstoreServer` whose scan
/// calls are timed when the calling thread has a measurement open. Both
/// traced and untraced runs register this same wrapper, so the federation
/// is identical in both.
pub struct TimedForeign(pub RelstoreServer);

impl ForeignServer for TimedForeign {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn table_schema(&self, table: &str) -> FedResult<SchemaRef> {
        self.0.table_schema(table)
    }

    fn scan(&self, table: &str, predicate: &Predicate) -> FedResult<Table> {
        sqlmed_timed(|| self.0.scan(table, predicate))
    }

    fn scan_project(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<Table> {
        sqlmed_timed(|| self.0.scan_project(table, predicate, projection))
    }

    fn scan_project_columnar(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<ColumnBatch> {
        sqlmed_timed(|| self.0.scan_project_columnar(table, predicate, projection))
    }

    fn estimate_rows(&self, table: &str) -> FedResult<usize> {
        self.0.estimate_rows(table)
    }

    fn collect_statistics(&self, table: &str) -> FedResult<TableStatistics> {
        self.0.collect_statistics(table)
    }
}
