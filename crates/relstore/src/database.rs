//! A named collection of stored tables with statement-level atomic updates,
//! snapshot reads, and (optionally) durability through a write-ahead log.
//!
//! Concurrency model: many readers or one writer per database. Writers
//! still serialize behind the write lock, but reads no longer need it for
//! consistency — every committed statement advances the *commit epoch*, and
//! a reader that pins an epoch (see [`Database::snapshot_epoch`] /
//! [`Database::scan_chunk`]) sees exactly the state after that statement,
//! via the MVCC version chains in [`StoredTable`], no matter how many
//! statements commit while the scan is in flight.
//!
//! Durability: a database created with [`Database::open`] (or
//! [`Database::open_with`]) logs every committed statement to a write-ahead
//! log before publishing it, and [`Database::checkpoint`] folds the log
//! into a snapshot. Reopening replays snapshot + log, discarding any
//! statement whose commit marker never made it out — see [`crate::wal`]
//! for the frame format and the recovery invariant.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fedwf_types::sync::RwLock;
use fedwf_types::{
    ColumnBatch, FedError, FedResult, Ident, Row, SchemaRef, Table, TxnId, Value, TXN_EPOCH_ZERO,
};

use crate::index::IndexKind;
use crate::predicate::Predicate;
use crate::table::{ChangeKind, RowId, StoredTable, TableStats, UndoLog};
use crate::wal::{self, ByteReader, CommitStats, Durability, GroupCommitter, Wal, WalRecord};
use fedwf_types::CommitMode;

/// Magic prefix of a checkpoint snapshot (versioned).
const SNAPSHOT_MAGIC: &[u8; 8] = b"FWSNAP1\0";

/// An embedded database: a set of tables guarded by a reader-writer lock,
/// with MVCC snapshot reads and optional WAL-backed durability.
///
/// Commit publication is two-phase when a log-writer thread is in play
/// ([`CommitMode::Group`] / [`CommitMode::Async`]): a writer applies its
/// statement and enqueues the encoded log record *while holding* the table
/// write lock (so txn order == log order), releases the lock, and blocks on
/// its durability ack; only then does the log writer advance `commit_epoch`
/// — the MVCC visibility horizon — so a reader can never observe a
/// statement that a crash could still take away. [`CommitMode::Sync`] keeps
/// the original inline append+fsync under the lock.
#[derive(Debug, Default)]
pub struct Database {
    name: String,
    tables: RwLock<BTreeMap<Ident, StoredTable>>,
    /// Id of the last *published* (visible) statement; also the newest
    /// pinnable epoch. Shared with the log writer, which advances it after
    /// durability in group mode.
    commit_epoch: Arc<AtomicU64>,
    /// Id of the last *allocated* statement. Runs ahead of `commit_epoch`
    /// while commits are in flight through the log writer. Allocation only
    /// happens under the table write lock.
    next_txn: AtomicU64,
    durability: Option<Durability>,
    /// The log-writer engine; present iff `durability.mode.uses_log_writer()`.
    committer: Option<GroupCommitter>,
}

impl Database {
    /// A purely in-memory database (no WAL, no checkpoints) — the default
    /// for the simulated application systems and SQL sources.
    pub fn new(name: impl Into<String>) -> Database {
        Database {
            name: name.into(),
            tables: RwLock::new(BTreeMap::new()),
            commit_epoch: Arc::new(AtomicU64::new(TXN_EPOCH_ZERO)),
            next_txn: AtomicU64::new(TXN_EPOCH_ZERO),
            durability: None,
            committer: None,
        }
    }

    /// Open (or create) a durable database stored in `dir`: recovery
    /// replays `dir/wal.log` over the last checkpoint in
    /// `dir/snapshot.bin`, discarding any statement without an intact
    /// commit marker, then truncates the discarded tail.
    pub fn open(dir: impl AsRef<std::path::Path>) -> FedResult<Database> {
        let dir = dir.as_ref();
        let name = dir
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "database".to_string());
        Self::open_with(name, Durability::at_path(dir)?)
    }

    /// Open a durable database over explicit persistence — the test
    /// harness passes `Arc`-shared in-memory sinks here and "crashes" by
    /// dropping the database while keeping the sinks.
    pub fn open_with(name: impl Into<String>, durability: Durability) -> FedResult<Database> {
        let mode = durability.mode;
        let mut db = Database {
            name: name.into(),
            tables: RwLock::new(BTreeMap::new()),
            commit_epoch: Arc::new(AtomicU64::new(TXN_EPOCH_ZERO)),
            next_txn: AtomicU64::new(TXN_EPOCH_ZERO),
            durability: Some(durability),
            committer: None,
        };
        db.recover()?;
        if mode.uses_log_writer() {
            let sink = db.durability.as_ref().expect("just set").wal.sink();
            db.committer = Some(GroupCommitter::start(
                sink,
                mode,
                Arc::clone(&db.commit_epoch),
            ));
        }
        Ok(db)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether statements are WAL-logged.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// How commits are acknowledged ([`CommitMode::Sync`] for in-memory
    /// databases, which have nothing to sync).
    pub fn commit_mode(&self) -> CommitMode {
        self.durability
            .as_ref()
            .map_or(CommitMode::Sync, |d| d.mode)
    }

    /// Log-writer counters, when a log writer is running (group/async
    /// modes). `syncs < commits` is group commit working.
    pub fn commit_stats(&self) -> Option<CommitStats> {
        self.committer.as_ref().map(|c| c.stats())
    }

    /// Durability barrier: returns once every commit accepted so far is on
    /// disk. A no-op in sync mode (commits are already durable when they
    /// return); in async mode this is the one way to bound the loss window.
    pub fn flush_commits(&self) -> FedResult<()> {
        match &self.committer {
            Some(c) => c.flush(),
            None => Ok(()),
        }
    }

    /// The newest consistent epoch a reader can pin: the id of the last
    /// committed statement. Pass it to [`Database::scan_chunk`] to keep a
    /// multi-pull streaming scan on one snapshot.
    pub fn snapshot_epoch(&self) -> TxnId {
        self.commit_epoch.load(Ordering::Acquire)
    }

    /// Run one committed write statement: allocate its transaction id,
    /// apply `f`, then WAL-log the changes and advance the commit epoch —
    /// or undo everything `f` logged if it (or the WAL append) failed.
    ///
    /// With a log writer (group/async modes) the durable part is pipelined:
    /// the encoded statement is *enqueued* under the write lock (preserving
    /// txn order in the log), the lock is released, and the writer blocks
    /// on its durability ack — so concurrent committers share one
    /// `fdatasync` instead of serializing one each under the lock.
    fn mutate<R>(
        &self,
        table: &str,
        f: impl FnOnce(&mut StoredTable, TxnId, &mut UndoLog) -> FedResult<R>,
    ) -> FedResult<R> {
        // Back-pressure from a slow disk is taken *before* the table lock:
        // a full log-writer queue parks producers without blocking readers.
        if let Some(c) = &self.committer {
            c.wait_for_space();
        }
        let mut tables = self.tables.write();
        let t = Self::resolve_mut(&mut tables, table, &self.name)?;
        // Allocation happens only under the write lock, so restoring it on
        // failure below cannot clobber a concurrent allocation.
        let txn = self.next_txn.load(Ordering::Relaxed) + 1;
        self.next_txn.store(txn, Ordering::Relaxed);
        let mut undo = UndoLog::new();
        match f(t, txn, &mut undo) {
            Ok(r) => {
                let ticket = match (&self.committer, &self.durability) {
                    (Some(c), _) => {
                        let records = Self::redo_records(t, &undo);
                        let bytes = Wal::encode_statement(txn, &records);
                        match c.submit(txn, bytes) {
                            Ok(ticket) => {
                                if ticket.is_none() {
                                    // Async mode acks at enqueue: publish
                                    // visibility now (documented loss
                                    // window until the next cadence sync).
                                    self.commit_epoch.store(txn, Ordering::Release);
                                }
                                ticket
                            }
                            Err(e) => {
                                // Rejected at the door (dead/stopping log
                                // writer): nothing was logged, undo fully.
                                t.abort(&mut undo);
                                self.next_txn.store(txn - 1, Ordering::Relaxed);
                                return Err(
                                    e.with_context(format!("logging statement against {table}"))
                                );
                            }
                        }
                    }
                    (None, Some(d)) => {
                        // Sync mode: inline append+fsync under the lock,
                        // exactly the single-writer fast path.
                        let records = Self::redo_records(t, &undo);
                        if let Err(e) = d.wal.append_statement(txn, &records) {
                            t.abort(&mut undo);
                            self.next_txn.store(txn - 1, Ordering::Relaxed);
                            return Err(
                                e.with_context(format!("logging statement against {table}"))
                            );
                        }
                        self.commit_epoch.store(txn, Ordering::Release);
                        None
                    }
                    (None, None) => {
                        self.commit_epoch.store(txn, Ordering::Release);
                        None
                    }
                };
                // Phase two: wait for the durability ack with the lock
                // released, so the log writer can coalesce us with every
                // other writer currently in this window.
                drop(tables);
                if let Some(ticket) = ticket {
                    // On failure the statement is applied in memory but its
                    // epoch is never published: the versions stay invisible
                    // forever (undo is impossible once the lock is gone).
                    ticket.wait().map_err(|e| {
                        e.with_context(format!("logging statement against {table}"))
                    })?;
                }
                Ok(r)
            }
            Err(e) => {
                t.abort(&mut undo);
                self.next_txn.store(txn - 1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// WAL redo records for a successful statement, derived from its undo
    /// log (the single source of truth for what changed, in order).
    fn redo_records(t: &StoredTable, undo: &UndoLog) -> Vec<WalRecord> {
        let table = t.name().as_str().to_string();
        t.changes(undo)
            .into_iter()
            .map(|c| match c {
                ChangeKind::Insert { slot } => WalRecord::Insert {
                    table: table.clone(),
                    row: t
                        .get(slot)
                        .expect("freshly inserted row is live")
                        .values()
                        .to_vec(),
                },
                ChangeKind::Update {
                    slot,
                    column,
                    value,
                } => WalRecord::Update {
                    table: table.clone(),
                    slot,
                    column: column as u32,
                    value,
                },
                ChangeKind::Delete { slot } => WalRecord::Delete {
                    table: table.clone(),
                    slot,
                },
            })
            .collect()
    }

    /// Log a single-record DDL statement and advance the commit epoch.
    /// The caller has already validated; `undo_on_log_failure` reverts the
    /// in-memory change if the log write fails.
    ///
    /// Unlike DML, DDL waits for its durability ack *while holding* the
    /// table write lock: the tables map is not versioned, so a created
    /// table would otherwise be observable before it is durable. DDL is
    /// rare enough that pinning readers for one sync is the right trade.
    fn commit_ddl(
        &self,
        tables: &mut BTreeMap<Ident, StoredTable>,
        record: WalRecord,
        undo_on_log_failure: impl FnOnce(&mut BTreeMap<Ident, StoredTable>),
    ) -> FedResult<()> {
        let txn = self.next_txn.load(Ordering::Relaxed) + 1;
        self.next_txn.store(txn, Ordering::Relaxed);
        let result = match (&self.committer, &self.durability) {
            (Some(c), _) => {
                let bytes = Wal::encode_statement(txn, &[record]);
                c.submit(txn, bytes).and_then(|ticket| match ticket {
                    // Group mode: block for the ack here, under the lock.
                    Some(t) => t.wait(),
                    // Async mode: acked at enqueue; publish below.
                    None => {
                        self.commit_epoch.store(txn, Ordering::Release);
                        Ok(())
                    }
                })
            }
            (None, Some(d)) => d.wal.append_statement(txn, &[record]).map(|()| {
                self.commit_epoch.store(txn, Ordering::Release);
            }),
            (None, None) => {
                self.commit_epoch.store(txn, Ordering::Release);
                Ok(())
            }
        };
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                undo_on_log_failure(tables);
                self.next_txn.store(txn - 1, Ordering::Relaxed);
                Err(e.with_context("logging DDL statement"))
            }
        }
    }

    /// Create an empty table.
    pub fn create_table(&self, name: impl Into<Ident>, schema: SchemaRef) -> FedResult<()> {
        let name = name.into();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(FedError::catalog(format!(
                "table {name} already exists in database {}",
                self.name
            )));
        }
        tables.insert(name.clone(), StoredTable::new(name.clone(), schema.clone()));
        self.commit_ddl(
            &mut tables,
            WalRecord::CreateTable {
                table: name.as_str().to_string(),
                schema: (*schema).clone(),
            },
            |tables| {
                tables.remove(&name);
            },
        )
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> FedResult<()> {
        let name = Ident::new(name);
        let mut tables = self.tables.write();
        let Some(dropped) = tables.remove(&name) else {
            return Err(FedError::catalog(format!(
                "table {name} does not exist in database {}",
                self.name
            )));
        };
        let table = dropped.name().as_str().to_string();
        self.commit_ddl(&mut tables, WalRecord::DropTable { table }, |tables| {
            tables.insert(name.clone(), dropped);
        })
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .read()
            .keys()
            .map(|k| k.as_str().to_string())
            .collect()
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&Ident::new(name))
    }

    pub fn table_schema(&self, name: &str) -> FedResult<SchemaRef> {
        let tables = self.tables.read();
        let t = Self::resolve(&tables, name, &self.name)?;
        Ok(t.schema().clone())
    }

    pub fn table_stats(&self, name: &str) -> FedResult<TableStats> {
        let tables = self.tables.read();
        Ok(Self::resolve(&tables, name, &self.name)?.stats())
    }

    /// Epoch of the latest mutation of `name` — the staleness key for
    /// derived artifacts such as collected optimizer statistics.
    pub fn table_mutation_epoch(&self, name: &str) -> FedResult<TxnId> {
        let tables = self.tables.read();
        Ok(Self::resolve(&tables, name, &self.name)?.last_mutation_epoch())
    }

    /// Create an index on a table.
    pub fn create_index(
        &self,
        table: &str,
        index_name: &str,
        column: &str,
        kind: IndexKind,
    ) -> FedResult<()> {
        let mut tables = self.tables.write();
        let t = Self::resolve_mut(&mut tables, table, &self.name)?;
        t.create_index(index_name, column, kind)?;
        let record = WalRecord::CreateIndex {
            table: t.name().as_str().to_string(),
            index: index_name.to_string(),
            column: column.to_string(),
            unique: wal::index_kind_unique(kind),
        };
        let table_ident = Ident::new(table);
        let index_name = index_name.to_string();
        self.commit_ddl(&mut tables, record, move |tables| {
            if let Some(t) = tables.get_mut(&table_ident) {
                t.drop_index(&index_name);
            }
        })
    }

    /// Insert one row.
    pub fn insert(&self, table: &str, row: Row) -> FedResult<RowId> {
        self.mutate(table, |t, txn, undo| t.insert(row, txn, undo))
    }

    /// Insert many rows atomically: either all land or none do. Rollback is
    /// undo-based — a failure restores rows, row-id allocation and index
    /// entries exactly, without ever cloning the table.
    pub fn insert_all(&self, table: &str, rows: Vec<Row>) -> FedResult<usize> {
        self.mutate(table, |t, txn, undo| {
            let mut n = 0;
            for row in rows {
                t.insert(row, txn, undo)
                    .map_err(|e| e.with_context(format!("bulk insert into {table}")))?;
                n += 1;
            }
            Ok(n)
        })
    }

    /// Scan a table with a predicate.
    pub fn scan(&self, table: &str, predicate: &Predicate) -> FedResult<Table> {
        self.scan_project(table, predicate, None)
    }

    /// Projection-pruned scan: the predicate keeps the table's full column
    /// numbering; only the requested columns are returned.
    ///
    /// Reads at the *published* commit epoch, not at "latest applied": with
    /// a log writer, statements sit applied-but-unacked between enqueue and
    /// fsync, and a reader must never observe one of those (visibility
    /// would run ahead of durability). In sync mode the two coincide.
    pub fn scan_project(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<Table> {
        let tables = self.tables.read();
        let epoch = self.commit_epoch.load(Ordering::Acquire);
        Self::resolve(&tables, table, &self.name)?.scan_project_at(predicate, projection, epoch)
    }

    /// Snapshot scan: rows as of the pinned `epoch` (from
    /// [`Database::snapshot_epoch`]), regardless of statements committed
    /// since.
    pub fn scan_project_at(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
        epoch: TxnId,
    ) -> FedResult<Table> {
        let tables = self.tables.read();
        Self::resolve(&tables, table, &self.name)?.scan_project_at(predicate, projection, epoch)
    }

    /// One bounded chunk of a snapshot scan, resuming at `start_slot` — see
    /// [`StoredTable::scan_chunk_at`]. The read lock is taken per chunk, so
    /// a streaming consumer never pins the table across pulls; the caller
    /// pins `epoch` once (at cursor open) and every chunk reads that same
    /// snapshot, even when writers commit between pulls.
    pub fn scan_chunk(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
        start_slot: RowId,
        max_rows: usize,
        epoch: TxnId,
    ) -> FedResult<(Vec<Row>, Option<RowId>)> {
        let tables = self.tables.read();
        Self::resolve(&tables, table, &self.name)?
            .scan_chunk_at(predicate, projection, start_slot, max_rows, epoch)
    }

    /// [`Database::scan_project`] in columnar form: the matching rows come
    /// back as one typed [`ColumnBatch`] built directly from the version
    /// chains. Reads at the published commit epoch.
    pub fn scan_project_columnar(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<ColumnBatch> {
        let tables = self.tables.read();
        let epoch = self.commit_epoch.load(Ordering::Acquire);
        Self::resolve(&tables, table, &self.name)?
            .scan_project_columnar_at(predicate, projection, epoch)
    }

    /// [`Database::scan_chunk`] in columnar form — the cursor behind the
    /// streaming executor. The caller pins `epoch` once; every
    /// chunk reads that same snapshot.
    pub fn scan_chunk_columnar(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
        start_slot: RowId,
        max_rows: usize,
        epoch: TxnId,
    ) -> FedResult<(ColumnBatch, Option<RowId>)> {
        let tables = self.tables.read();
        Self::resolve(&tables, table, &self.name)?
            .scan_chunk_columnar_at(predicate, projection, start_slot, max_rows, epoch)
    }

    /// Full-table scan (at the published commit epoch, like
    /// [`Database::scan_project`]).
    pub fn scan_all(&self, table: &str) -> FedResult<Table> {
        self.scan(table, &Predicate::True)
    }

    /// Point-lookup scan: `column = key AND residual`. The equality is the
    /// leading conjunct so `pick_index` binds *it* (equality bindings are
    /// taken left-first), turning the scan into an index probe when the
    /// column is indexed.
    pub fn scan_eq(
        &self,
        table: &str,
        column: usize,
        key: Value,
        residual: &Predicate,
    ) -> FedResult<Table> {
        self.scan_eq_project(table, column, key, residual, None)
    }

    /// [`Database::scan_eq`] with a projection applied after the probe; the
    /// probe column and residual keep the table's full column numbering.
    pub fn scan_eq_project(
        &self,
        table: &str,
        column: usize,
        key: Value,
        residual: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<Table> {
        self.scan_project(
            table,
            &Predicate::eq(column, key).and(residual.clone()),
            projection,
        )
    }

    /// Delete rows matching a predicate. Statement-atomic like the other
    /// mutations: an error mid-statement undoes the partial delete.
    pub fn delete_where(&self, table: &str, predicate: &Predicate) -> FedResult<usize> {
        self.mutate(table, |t, txn, undo| {
            t.delete_where(predicate, txn, undo)
                .map_err(|e| e.with_context(format!("deleting from table {table}")))
        })
    }

    /// Statement-atomic update: on error the table is left untouched (rows
    /// *and* index entries), via undo over the version chains.
    pub fn update_where(
        &self,
        table: &str,
        predicate: &Predicate,
        column: &str,
        value: Value,
    ) -> FedResult<usize> {
        self.mutate(table, |t, txn, undo| {
            t.update_where(predicate, column, value, txn, undo)
                .map_err(|e| e.with_context(format!("updating table {table}")))
        })
    }

    /// Whether a predicate on a table would use an index.
    pub fn index_serves(&self, table: &str, predicate: &Predicate) -> FedResult<bool> {
        let tables = self.tables.read();
        Ok(Self::resolve(&tables, table, &self.name)?.index_serves(predicate))
    }

    // -- durability --------------------------------------------------------

    /// Write a snapshot of the current committed state, truncate the WAL,
    /// and prune dead row versions. After a checkpoint, recovery starts
    /// from the snapshot instead of replaying history; epoch-pinned cursors
    /// opened before the checkpoint must not be resumed across it (their
    /// versions may have been pruned).
    pub fn checkpoint(&self) -> FedResult<()> {
        let Some(d) = &self.durability else {
            return Err(FedError::recovery(format!(
                "database {} is in-memory only: nothing to checkpoint",
                self.name
            )));
        };
        let mut tables = self.tables.write();
        // Drain the log writer *while holding the write lock*: every
        // statement ever submitted was applied (and enqueued) under this
        // lock, so after the flush the WAL holds nothing newer than what
        // the snapshot below will capture — the truncate cannot eat a
        // commit that is pending or mid-batch, and the epoch we record
        // covers every statement left in (and removed from) the log.
        if let Some(c) = &self.committer {
            c.flush()
                .map_err(|e| e.with_context("draining log writer before checkpoint"))?;
            debug_assert_eq!(c.pending(), 0, "flush drained all queued statements");
        }
        let epoch = self.commit_epoch.load(Ordering::Acquire);
        let bytes = encode_snapshot(epoch, &tables);
        d.snapshots.store(&bytes)?;
        // Crash window here is safe: the WAL still holds statements with
        // ids <= epoch, and recovery skips them against the snapshot epoch.
        d.wal.truncate()?;
        for t in tables.values_mut() {
            t.prune_versions();
        }
        Ok(())
    }

    /// Rebuild state from snapshot + WAL; called once from `open_with`.
    fn recover(&mut self) -> FedResult<()> {
        let d = self
            .durability
            .as_ref()
            .expect("recover requires durability");
        let mut epoch = TXN_EPOCH_ZERO;
        let mut tables = BTreeMap::new();
        if let Some(bytes) = d.snapshots.load()? {
            let (snap_epoch, snap_tables) = decode_snapshot(&bytes)?;
            epoch = snap_epoch;
            tables = snap_tables;
        }
        let replay = d.wal.replay()?;
        for (txn, records) in &replay.statements {
            // A crash between checkpoint-snapshot and WAL truncation leaves
            // already-snapshotted statements in the log; skip them.
            if *txn <= epoch {
                continue;
            }
            for rec in records {
                Self::apply_record(&mut tables, rec, *txn).map_err(|e| {
                    e.with_context(format!(
                        "replaying WAL statement {txn} into database {}",
                        self.name
                    ))
                })?;
            }
            epoch = *txn;
        }
        if replay.discarded_tail {
            // Cut the torn/uncommitted tail so future appends start at a
            // clean frame boundary.
            d.wal.truncate_to(replay.committed_len)?;
        }
        self.tables = RwLock::new(tables);
        self.commit_epoch = Arc::new(AtomicU64::new(epoch));
        self.next_txn = AtomicU64::new(epoch);
        Ok(())
    }

    /// Apply one redo record during recovery. Replay of committed history
    /// is conflict-free by construction; any failure here means a corrupt
    /// or inconsistent log and surfaces as a recovery error.
    fn apply_record(
        tables: &mut BTreeMap<Ident, StoredTable>,
        rec: &WalRecord,
        txn: TxnId,
    ) -> FedResult<()> {
        let mut undo = UndoLog::new();
        let resolve = |tables: &mut BTreeMap<Ident, StoredTable>,
                       name: &str|
         -> FedResult<*mut StoredTable> {
            match tables.get_mut(&Ident::new(name)) {
                Some(t) => Ok(t as *mut StoredTable),
                None => Err(FedError::recovery(format!(
                    "WAL references unknown table {name}"
                ))),
            }
        };
        match rec {
            WalRecord::CreateTable { table, schema } => {
                let ident = Ident::new(table);
                if tables.contains_key(&ident) {
                    return Err(FedError::recovery(format!(
                        "WAL creates table {table} twice"
                    )));
                }
                tables.insert(
                    ident.clone(),
                    StoredTable::new(ident, Arc::new(schema.clone())),
                );
            }
            WalRecord::DropTable { table } => {
                if tables.remove(&Ident::new(table)).is_none() {
                    return Err(FedError::recovery(format!(
                        "WAL drops unknown table {table}"
                    )));
                }
            }
            WalRecord::CreateIndex {
                table,
                index,
                column,
                unique,
            } => {
                let t = resolve(tables, table)?;
                // SAFETY: the pointer came from `tables` above and nothing
                // else touches the map before this use.
                unsafe { &mut *t }.create_index(
                    index.clone(),
                    column,
                    wal::index_kind_from_unique(*unique),
                )?;
            }
            WalRecord::Insert { table, row } => {
                let t = resolve(tables, table)?;
                unsafe { &mut *t }.insert(Row::new(row.clone()), txn, &mut undo)?;
            }
            WalRecord::Update {
                table,
                slot,
                column,
                value,
            } => {
                let t = resolve(tables, table)?;
                unsafe { &mut *t }.update_slot(
                    *slot as usize,
                    *column as usize,
                    value,
                    txn,
                    &mut undo,
                )?;
            }
            WalRecord::Delete { table, slot } => {
                let t = resolve(tables, table)?;
                unsafe { &mut *t }.delete_slot(*slot as usize, txn, &mut undo)?;
            }
            WalRecord::Commit { .. } => {
                return Err(FedError::recovery(
                    "commit marker leaked into a replayed statement body",
                ));
            }
        }
        Ok(())
    }

    fn resolve<'a>(
        tables: &'a BTreeMap<Ident, StoredTable>,
        name: &str,
        db: &str,
    ) -> FedResult<&'a StoredTable> {
        tables.get(&Ident::new(name)).ok_or_else(|| {
            FedError::catalog(format!("table {name} does not exist in database {db}"))
        })
    }

    fn resolve_mut<'a>(
        tables: &'a mut BTreeMap<Ident, StoredTable>,
        name: &str,
        db: &str,
    ) -> FedResult<&'a mut StoredTable> {
        tables.get_mut(&Ident::new(name)).ok_or_else(|| {
            FedError::catalog(format!("table {name} does not exist in database {db}"))
        })
    }
}

// ---------------------------------------------------------------------------
// Checkpoint snapshot codec.
// ---------------------------------------------------------------------------

/// Serialize the committed state: `[magic][crc32 of body][body]` where the
/// body is the commit epoch plus every table's schema, index definitions,
/// slot count and live rows (at their original slots, so recovered inserts
/// keep allocating the same row ids).
fn encode_snapshot(epoch: TxnId, tables: &BTreeMap<Ident, StoredTable>) -> Vec<u8> {
    let mut body = Vec::with_capacity(1024);
    wal::put_u64(&mut body, epoch);
    wal::put_u32(&mut body, tables.len() as u32);
    for t in tables.values() {
        wal::put_str(&mut body, t.name().as_str());
        wal::put_schema(&mut body, t.schema());
        let indexes = t.index_defs();
        wal::put_u32(&mut body, indexes.len() as u32);
        for (name, column, kind) in indexes {
            wal::put_str(&mut body, &name);
            wal::put_u32(&mut body, column as u32);
            body.push(wal::index_kind_unique(kind) as u8);
        }
        wal::put_u64(&mut body, t.slot_count());
        let live: Vec<_> = t.iter().collect();
        wal::put_u64(&mut body, live.len() as u64);
        for (slot, row) in live {
            wal::put_u64(&mut body, slot);
            wal::put_u32(&mut body, row.len() as u32);
            for v in row.values() {
                wal::put_value(&mut body, v);
            }
        }
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    wal::put_u32(&mut out, wal::crc32(&body));
    out.extend_from_slice(&body);
    out
}

fn decode_snapshot(bytes: &[u8]) -> FedResult<(TxnId, BTreeMap<Ident, StoredTable>)> {
    let rest = bytes
        .strip_prefix(SNAPSHOT_MAGIC.as_slice())
        .ok_or_else(|| FedError::recovery("snapshot file has the wrong magic"))?;
    let mut r = ByteReader::new(rest);
    let crc = r.take_u32()?;
    if wal::crc32(&rest[4..]) != crc {
        return Err(FedError::recovery("snapshot file fails its checksum"));
    }
    let epoch = r.take_u64()?;
    let n_tables = r.take_u32()?;
    let mut tables = BTreeMap::new();
    for _ in 0..n_tables {
        let name = Ident::new(r.take_str()?);
        let schema: SchemaRef = Arc::new(r.take_schema()?);
        let n_indexes = r.take_u32()?;
        let mut indexes = Vec::with_capacity(n_indexes as usize);
        for _ in 0..n_indexes {
            let iname = r.take_str()?;
            let column = r.take_u32()? as usize;
            let kind = wal::index_kind_from_unique(r.take_u8()? != 0);
            indexes.push((iname, column, kind));
        }
        let slot_count = r.take_u64()?;
        let n_live = r.take_u64()?;
        let mut rows = Vec::with_capacity(n_live as usize);
        for _ in 0..n_live {
            let slot = r.take_u64()?;
            let width = r.take_u32()? as usize;
            let mut values = Vec::with_capacity(width);
            for _ in 0..width {
                values.push(r.take_value()?);
            }
            rows.push((slot, Row::new(values)));
        }
        let table = StoredTable::from_snapshot(name.clone(), schema, slot_count, rows, indexes)?;
        tables.insert(name, table);
    }
    Ok((epoch, tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{MemorySink, MemorySnapshots};
    use fedwf_types::{DataType, Schema};
    use std::sync::Arc;

    fn db() -> Database {
        let db = Database::new("stock");
        db.create_table(
            "Components",
            Arc::new(Schema::of(&[
                ("CompNo", DataType::Int),
                ("Name", DataType::Varchar),
            ])),
        )
        .unwrap();
        db.create_index("Components", "pk", "CompNo", IndexKind::Unique)
            .unwrap();
        db
    }

    fn durable_db(log: &Arc<MemorySink>, snaps: &Arc<MemorySnapshots>) -> Database {
        Database::open_with("stock", Durability::in_memory(log.clone(), snaps.clone())).unwrap()
    }

    #[test]
    fn create_insert_scan() {
        let db = db();
        db.insert(
            "Components",
            Row::new(vec![Value::Int(1), Value::str("bolt")]),
        )
        .unwrap();
        let t = db.scan_all("Components").unwrap();
        assert_eq!(t.row_count(), 1);
        assert!(db.has_table("components")); // case-insensitive
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = db();
        let schema = Arc::new(Schema::of(&[("x", DataType::Int)]));
        assert!(db.create_table("COMPONENTS", schema).is_err());
    }

    #[test]
    fn drop_table() {
        let db = db();
        db.drop_table("Components").unwrap();
        assert!(!db.has_table("Components"));
        assert!(db.drop_table("Components").is_err());
    }

    #[test]
    fn bulk_insert_is_atomic() {
        let db = db();
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::str("a")]),
            Row::new(vec![Value::Int(2), Value::str("b")]),
            Row::new(vec![Value::Int(1), Value::str("dup!")]),
        ];
        assert!(db.insert_all("Components", rows).is_err());
        assert_eq!(db.scan_all("Components").unwrap().row_count(), 0);
        // A failed statement does not advance the commit epoch.
        assert_eq!(db.snapshot_epoch(), 2, "create table + create index");
    }

    #[test]
    fn update_is_statement_atomic() {
        let db = db();
        db.insert_all(
            "Components",
            vec![
                Row::new(vec![Value::Int(1), Value::str("a")]),
                Row::new(vec![Value::Int(2), Value::str("b")]),
            ],
        )
        .unwrap();
        // Setting both keys to 7 violates the unique pk on the second row;
        // the whole statement must roll back.
        assert!(db
            .update_where("Components", &Predicate::True, "CompNo", Value::Int(7))
            .is_err());
        let t = db.scan_all("Components").unwrap();
        let keys: Vec<_> = t.rows().iter().map(|r| r.values()[0].clone()).collect();
        assert_eq!(keys, vec![Value::Int(1), Value::Int(2)]);
        // The unique index is restored too: the aborted key finds nothing,
        // the original keys still probe to their rows.
        assert!(db
            .index_serves("Components", &Predicate::eq(0, Value::Int(1)))
            .unwrap());
        assert_eq!(
            db.scan_eq("Components", 0, Value::Int(7), &Predicate::True)
                .unwrap()
                .row_count(),
            0
        );
        for k in [1, 2] {
            assert_eq!(
                db.scan_eq("Components", 0, Value::Int(k), &Predicate::True)
                    .unwrap()
                    .row_count(),
                1
            );
        }
    }

    #[test]
    fn delete_is_statement_atomic() {
        let db = db();
        db.insert_all(
            "Components",
            vec![
                Row::new(vec![Value::Int(1), Value::str("a")]),
                Row::new(vec![Value::Int(2), Value::str("b")]),
                Row::new(vec![Value::Int(3), Value::str("c")]),
            ],
        )
        .unwrap();
        // The OR short-circuits on row 1 (which gets deleted) and then
        // errors on row 2 when the right arm references a column that does
        // not exist — a mid-statement failure after a partial delete.
        let bad = Predicate::eq(0, Value::Int(1)).or(Predicate::eq(5, Value::Int(0)));
        let err = db.delete_where("Components", &bad).unwrap_err();
        assert!(err.to_string().contains("delet"));
        // Nothing was deleted, and the pk index still probes every row.
        assert_eq!(db.scan_all("Components").unwrap().row_count(), 3);
        for k in [1, 2, 3] {
            assert_eq!(
                db.scan_eq("Components", 0, Value::Int(k), &Predicate::True)
                    .unwrap()
                    .row_count(),
                1
            );
        }
    }

    #[test]
    fn scan_eq_is_an_index_probe_with_residual() {
        let db = db();
        db.insert_all(
            "Components",
            vec![
                Row::new(vec![Value::Int(1), Value::str("bolt")]),
                Row::new(vec![Value::Int(2), Value::str("nut")]),
                Row::new(vec![Value::Int(3), Value::str("bolt")]),
            ],
        )
        .unwrap();
        // The leading equality is what pick_index binds.
        assert!(db
            .index_serves("Components", &Predicate::eq(0, Value::Int(2)))
            .unwrap());
        let hit = db
            .scan_eq("Components", 0, Value::Int(2), &Predicate::True)
            .unwrap();
        assert_eq!(hit.row_count(), 1);
        assert_eq!(hit.value(0, "Name"), Some(&Value::str("nut")));
        // Residual still filters the probed rows.
        let miss = db
            .scan_eq(
                "Components",
                0,
                Value::Int(2),
                &Predicate::eq(1, Value::str("bolt")),
            )
            .unwrap();
        assert_eq!(miss.row_count(), 0);
        // NULL key matches nothing under SQL three-valued logic.
        let null = db
            .scan_eq("Components", 0, Value::Null, &Predicate::True)
            .unwrap();
        assert_eq!(null.row_count(), 0);
    }

    #[test]
    fn unknown_table_errors_name_the_database() {
        let db = db();
        let err = db.scan_all("Nope").unwrap_err();
        assert!(err.to_string().contains("stock"));
    }

    #[test]
    fn stats_reflect_contents() {
        let db = db();
        db.insert("Components", Row::new(vec![Value::Int(1), Value::str("a")]))
            .unwrap();
        let stats = db.table_stats("Components").unwrap();
        assert_eq!(stats.row_count, 1);
        assert_eq!(stats.index_count, 1);
    }

    #[test]
    fn pinned_scan_chunk_ignores_later_commits() {
        let db = db();
        for i in 0..10 {
            db.insert(
                "Components",
                Row::new(vec![Value::Int(i), Value::str("old")]),
            )
            .unwrap();
        }
        let epoch = db.snapshot_epoch();
        // Pull the first chunk, then bulk-update, then pull the rest.
        let (first, next) = db
            .scan_chunk("Components", &Predicate::True, None, 0, 4, epoch)
            .unwrap();
        db.update_where("Components", &Predicate::True, "Name", Value::str("new"))
            .unwrap();
        let mut rows = first;
        let mut cursor = next;
        while let Some(start) = cursor {
            let (chunk, n) = db
                .scan_chunk("Components", &Predicate::True, None, start, 4, epoch)
                .unwrap();
            rows.extend(chunk);
            cursor = n;
        }
        assert_eq!(rows.len(), 10);
        assert!(
            rows.iter().all(|r| r.values()[1] == Value::str("old")),
            "a pinned cursor must never see a mix of versions"
        );
        // A fresh scan at the new epoch sees only the update.
        let now = db.scan_all("Components").unwrap();
        assert!(now
            .rows()
            .iter()
            .all(|r| r.values()[1] == Value::str("new")));
    }

    #[test]
    fn durable_database_survives_reopen() {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        {
            let db = durable_db(&log, &snaps);
            db.create_table(
                "T",
                Arc::new(Schema::of(&[
                    ("a", DataType::Int),
                    ("b", DataType::Varchar),
                ])),
            )
            .unwrap();
            db.create_index("T", "pk", "a", IndexKind::Unique).unwrap();
            db.insert_all(
                "T",
                vec![
                    Row::new(vec![Value::Int(1), Value::str("x")]),
                    Row::new(vec![Value::Int(2), Value::str("y")]),
                ],
            )
            .unwrap();
            db.update_where("T", &Predicate::eq(0, 2), "b", Value::str("z"))
                .unwrap();
            db.delete_where("T", &Predicate::eq(0, 1)).unwrap();
        } // drop = crash
        let db = durable_db(&log, &snaps);
        let t = db.scan_all("T").unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.value(0, "b"), Some(&Value::str("z")));
        assert!(db
            .index_serves("T", &Predicate::eq(0, Value::Int(2)))
            .unwrap());
        // Row ids allocated pre-crash stay stable: a new insert takes the
        // next slot, not a recycled one.
        let id = db
            .insert("T", Row::new(vec![Value::Int(3), Value::str("w")]))
            .unwrap();
        assert_eq!(id, 2);
    }

    #[test]
    fn checkpoint_truncates_log_and_still_recovers() {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        {
            let db = durable_db(&log, &snaps);
            db.create_table("T", Arc::new(Schema::of(&[("a", DataType::Int)])))
                .unwrap();
            for i in 0..5 {
                db.insert("T", Row::new(vec![Value::Int(i)])).unwrap();
            }
            db.checkpoint().unwrap();
            assert!(log.is_empty(), "checkpoint empties the WAL");
            // Post-checkpoint statements land in the fresh log.
            db.insert("T", Row::new(vec![Value::Int(99)])).unwrap();
        }
        let db = durable_db(&log, &snaps);
        assert_eq!(db.scan_all("T").unwrap().row_count(), 6);
        assert_eq!(db.scan("T", &Predicate::eq(0, 99)).unwrap().row_count(), 1);
    }

    #[test]
    fn torn_tail_loses_only_the_uncommitted_statement() {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        {
            let db = durable_db(&log, &snaps);
            db.create_table("T", Arc::new(Schema::of(&[("a", DataType::Int)])))
                .unwrap();
            db.insert("T", Row::new(vec![Value::Int(1)])).unwrap();
            db.insert("T", Row::new(vec![Value::Int(2)])).unwrap();
        }
        log.tear_tail(6); // rip into the last statement's commit marker
        let db = durable_db(&log, &snaps);
        let t = db.scan_all("T").unwrap();
        assert_eq!(t.row_count(), 1, "torn statement is discarded");
        assert_eq!(t.value(0, "a"), Some(&Value::Int(1)));
        // The torn tail was truncated: committing again works and survives.
        db.insert("T", Row::new(vec![Value::Int(3)])).unwrap();
        drop(db);
        let db = durable_db(&log, &snaps);
        assert_eq!(db.scan_all("T").unwrap().row_count(), 2);
    }

    #[test]
    fn in_memory_database_rejects_checkpoint() {
        let db = db();
        assert!(!db.is_durable());
        assert!(db.checkpoint().is_err());
    }

    /// A sink that makes every append slow, so concurrent commits pile up
    /// in the log-writer queue and batches actually form.
    #[derive(Debug)]
    struct SlowSink {
        inner: Arc<MemorySink>,
        delay: std::time::Duration,
    }

    impl crate::wal::LogSink for SlowSink {
        fn append(&self, bytes: &[u8]) -> FedResult<()> {
            std::thread::sleep(self.delay);
            self.inner.append(bytes)
        }
        fn read_all(&self) -> FedResult<Vec<u8>> {
            self.inner.read_all()
        }
        fn truncate_to(&self, len: u64) -> FedResult<()> {
            self.inner.truncate_to(len)
        }
    }

    fn group_db(log: &Arc<MemorySink>, snaps: &Arc<MemorySnapshots>) -> Database {
        Database::open_with(
            "stock",
            Durability::in_memory(log.clone(), snaps.clone()).with_commit_mode(CommitMode::group()),
        )
        .unwrap()
    }

    #[test]
    fn group_mode_concurrent_writers_all_commit_and_recover() {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        {
            let db = Arc::new(group_db(&log, &snaps));
            db.create_table("T", Arc::new(Schema::of(&[("a", DataType::Int)])))
                .unwrap();
            let threads: Vec<_> = (0..4)
                .map(|w| {
                    let db = Arc::clone(&db);
                    std::thread::spawn(move || {
                        for i in 0..10 {
                            db.insert("T", Row::new(vec![Value::Int(w * 100 + i)]))
                                .unwrap();
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            // Every acked insert is visible: the epoch covers all 41
            // statements (1 DDL + 40 inserts) and the scan sees all rows.
            assert_eq!(db.snapshot_epoch(), 41);
            assert_eq!(db.scan_all("T").unwrap().row_count(), 40);
            let stats = db.commit_stats().expect("group mode has a log writer");
            assert_eq!(stats.commits, 41);
            assert!(stats.syncs <= stats.commits);
        } // drop = clean shutdown (drains the queue)
        let db = durable_db(&log, &snaps);
        assert_eq!(db.scan_all("T").unwrap().row_count(), 40);
    }

    #[test]
    fn checkpoint_is_safe_against_concurrently_committing_writers() {
        // Writers push commits through a *slow* log writer while the main
        // thread checkpoints repeatedly. The flush-under-lock ordering must
        // guarantee a checkpoint never truncates a pending commit and never
        // snapshots state it then loses — whatever interleaving happens,
        // reopening recovers every acked insert.
        let inner = MemorySink::new();
        let snaps = MemorySnapshots::new();
        let slow: Arc<dyn crate::wal::LogSink> = Arc::new(SlowSink {
            inner: Arc::clone(&inner),
            delay: std::time::Duration::from_micros(300),
        });
        let durability = Durability {
            wal: Wal::new(slow),
            snapshots: snaps.clone() as Arc<dyn crate::wal::SnapshotStore>,
            mode: CommitMode::Group {
                max_wait_us: 100,
                max_batch: 8,
            },
        };
        let db = Arc::new(Database::open_with("stock", durability).unwrap());
        db.create_table("T", Arc::new(Schema::of(&[("a", DataType::Int)])))
            .unwrap();
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..12 {
                        db.insert("T", Row::new(vec![Value::Int(w * 100 + i)]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..5 {
            db.checkpoint().unwrap();
        }
        for t in writers {
            t.join().unwrap();
        }
        db.checkpoint().unwrap();
        assert_eq!(db.scan_all("T").unwrap().row_count(), 36);
        drop(db);
        // The WAL was truncated by the final checkpoint; the snapshot alone
        // must carry the full state.
        let db = durable_db(&inner, &snaps);
        assert_eq!(db.scan_all("T").unwrap().row_count(), 36);
    }

    #[test]
    fn async_mode_acks_fast_and_flush_bounds_the_loss_window() {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        let db = Database::open_with(
            "stock",
            Durability::in_memory(log.clone(), snaps.clone()).with_commit_mode(CommitMode::Async {
                flush_interval_us: 60_000_000, // cadence parked; flush drives syncs
            }),
        )
        .unwrap();
        db.create_table("T", Arc::new(Schema::of(&[("a", DataType::Int)])))
            .unwrap();
        for i in 0..5 {
            db.insert("T", Row::new(vec![Value::Int(i)])).unwrap();
        }
        // Acked and visible immediately...
        assert_eq!(db.scan_all("T").unwrap().row_count(), 5);
        // ...and flush_commits() is the durability barrier.
        db.flush_commits().unwrap();
        assert_eq!(
            db.commit_mode(),
            CommitMode::Async {
                flush_interval_us: 60_000_000
            }
        );
        drop(db);
        let db = durable_db(&log, &snaps);
        assert_eq!(db.scan_all("T").unwrap().row_count(), 5);
    }
}
