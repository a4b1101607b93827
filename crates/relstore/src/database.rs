//! A named collection of stored tables with statement-level atomic updates,
//! snapshot reads, and (optionally) durability through a write-ahead log.
//!
//! Concurrency model: many readers or one writer per database. Writers
//! still serialize behind the write lock, but reads no longer need it for
//! consistency — every committed statement advances the *commit epoch*, and
//! a reader that pins an epoch (see [`Database::snapshot_epoch`] /
//! [`Database::scan_chunk_columnar`]) sees exactly the state after that
//! statement, via the MVCC version chains in [`StoredTable`], no matter how
//! many statements commit while the scan is in flight.
//!
//! Durability: a database created with [`Database::open`] (or
//! [`Database::open_with`]) logs every committed statement to a write-ahead
//! log before publishing it, through group commit that the committing
//! threads lead themselves ([`crate::wal::GroupCommitter`]), and
//! [`Database::checkpoint`] folds the log into a snapshot. Reopening
//! replays snapshot + log, discarding any statement whose commit marker
//! never made it out — see [`crate::wal`] for the frame format and the
//! recovery invariant.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fedwf_types::sync::RwLock;
use fedwf_types::wire::{crc32, WireReader, WireWriter};
use fedwf_types::{
    ColumnBatch, FedError, FedResult, Ident, Row, SchemaRef, Table, TxnId, Value, TXN_EPOCH_ZERO,
};

use crate::index::IndexKind;
use crate::predicate::Predicate;
use crate::table::{
    ChunkSink, ColumnSink, RowId, ScanChunk, ScanSink, StoredTable, TableStats, UndoLog,
};
use crate::wal::{self, CommitStats, Durability, GroupCommitter, Wal, WalRecord};

/// Magic prefix of a checkpoint snapshot (versioned).
const SNAPSHOT_MAGIC: &[u8; 8] = b"FWSNAP1\0";

/// An embedded database: a set of tables guarded by a reader-writer lock,
/// with MVCC snapshot reads and optional WAL-backed durability.
///
/// A durable commit is published in two phases: a writer applies its
/// statement and submits the encoded log record *while holding* the table
/// write lock (so txn order == log order), releases the lock, and waits
/// until its statement is durable; only then does `commit_epoch` — the
/// MVCC visibility horizon — cover it, so a reader can never observe a
/// statement that a crash could still take away.
#[derive(Debug, Default)]
pub struct Database {
    name: String,
    tables: RwLock<BTreeMap<Ident, StoredTable>>,
    /// Id of the last *published* (visible) statement; also the newest
    /// pinnable epoch. The committer advances it after each durable batch.
    commit_epoch: AtomicU64,
    /// Id of the last *allocated* statement. Runs ahead of `commit_epoch`
    /// while commits wait for their sync. Allocation only happens under
    /// the table write lock.
    next_txn: AtomicU64,
    durability: Option<Durability>,
    /// Present iff `durability` is.
    committer: Option<GroupCommitter>,
}

impl Database {
    /// A purely in-memory database (no WAL, no checkpoints) — the default
    /// for the simulated application systems and SQL sources.
    pub fn new(name: impl Into<String>) -> Database {
        Database::empty(name.into(), None)
    }

    /// A database holding no table, logging through `durability` if any.
    fn empty(name: String, durability: Option<Durability>) -> Database {
        Database {
            name,
            tables: RwLock::new(BTreeMap::new()),
            commit_epoch: AtomicU64::new(TXN_EPOCH_ZERO),
            next_txn: AtomicU64::new(TXN_EPOCH_ZERO),
            committer: durability
                .as_ref()
                .map(|d| GroupCommitter::new(d.wal.sink())),
            durability,
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
        let mut db = Database::empty(name.into(), Some(durability));
        db.recover()?;
        Ok(db)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether statements are WAL-logged.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Commit counters of a durable database. `syncs < commits` is group
    /// commit working.
    pub fn commit_stats(&self) -> Option<CommitStats> {
        self.committer.as_ref().map(|c| c.stats())
    }

    /// The newest consistent epoch a reader can pin: the id of the last
    /// committed statement. Pass it to [`Database::scan_chunk_columnar`] to
    /// keep a multi-pull streaming scan on one snapshot.
    pub fn snapshot_epoch(&self) -> TxnId {
        self.commit_epoch.load(Ordering::Acquire)
    }

    /// Run one committed write statement: allocate its transaction id,
    /// apply `f`, submit the changes to the log and wait until they are
    /// durable — or undo everything `f` logged if it (or the submit)
    /// failed.
    ///
    /// The wait happens with the table lock released, so every writer
    /// that commits while one batch is syncing shares the next sync.
    fn mutate<R>(
        &self,
        table: &str,
        f: impl FnOnce(&mut StoredTable, TxnId, &mut UndoLog) -> FedResult<R>,
    ) -> FedResult<R> {
        let mut tables = self.tables.write();
        let t = Self::resolve_mut(&mut tables, table, &self.name)?;
        // Allocation happens only under the write lock, so restoring it on
        // failure below cannot clobber a concurrent allocation.
        let txn = self.next_txn.load(Ordering::Relaxed) + 1;
        self.next_txn.store(txn, Ordering::Relaxed);
        let mut undo = UndoLog::new();
        let logged = |e: FedError| e.with_context(format!("logging statement against {table}"));
        let result = f(t, txn, &mut undo).and_then(|r| {
            match &self.committer {
                Some(c) => c
                    .submit(txn, Wal::encode_statement(txn, &t.redo_records(&undo)))
                    .map_err(logged)?,
                None => self.commit_epoch.store(txn, Ordering::Release),
            }
            Ok(r)
        });
        match result {
            Ok(r) => {
                drop(tables);
                if let Some(c) = &self.committer {
                    // On failure the statement is applied in memory but its
                    // epoch is never published: the versions stay invisible
                    // forever (undo is impossible once the lock is gone).
                    c.wait(txn, &self.commit_epoch).map_err(logged)?;
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

    /// Log a single-record DDL statement and advance the commit epoch.
    /// The caller has already validated; `undo_on_log_failure` reverts the
    /// in-memory change if the log write fails.
    ///
    /// Unlike DML, DDL waits until it is durable *while holding* the table
    /// write lock: the tables map is not versioned, so a created table
    /// would otherwise be observable before it is durable. DDL is rare
    /// enough that pinning readers for one sync is the right trade.
    fn commit_ddl(
        &self,
        tables: &mut BTreeMap<Ident, StoredTable>,
        record: WalRecord,
        undo_on_log_failure: impl FnOnce(&mut BTreeMap<Ident, StoredTable>),
    ) -> FedResult<()> {
        let txn = self.next_txn.load(Ordering::Relaxed) + 1;
        self.next_txn.store(txn, Ordering::Relaxed);
        let Some(c) = &self.committer else {
            self.commit_epoch.store(txn, Ordering::Release);
            return Ok(());
        };
        let logged = c
            .submit(txn, Wal::encode_statement(txn, &[record]))
            .and_then(|()| c.wait(txn, &self.commit_epoch));
        if let Err(e) = logged {
            undo_on_log_failure(tables);
            self.next_txn.store(txn - 1, Ordering::Relaxed);
            return Err(e.with_context("logging DDL statement"));
        }
        Ok(())
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

    /// Projection-pruned scan: the predicate keeps the table's full column
    /// numbering; only the requested columns are returned.
    ///
    /// Reads at the *published* commit epoch, not at "latest applied": a
    /// durable statement sits applied but unpublished between its submit
    /// and its batch's sync, and a reader must never observe one of those
    /// (visibility would run ahead of durability).
    pub fn scan_project(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<Table> {
        let (out, _) = self.scan_into(table, predicate, projection, 0, usize::MAX, None)?;
        Ok(out)
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
        let (sink, _) =
            self.scan_into::<ColumnSink>(table, predicate, projection, 0, usize::MAX, None)?;
        Ok(sink.finish())
    }

    /// One bounded chunk of a snapshot scan at the pinned `epoch` (from
    /// [`Database::snapshot_epoch`]), resuming at `start_slot`: the cursor
    /// behind the streaming executor. Returns the chunk and the slot to
    /// resume from, or `None` when the table is exhausted. The read lock is
    /// taken per chunk, so a streaming consumer never pins the table across
    /// pulls; every chunk reads the same snapshot, even when writers commit
    /// between pulls. A chunk is column vectors, or one row when the pull
    /// can match at most one ([`ScanChunk`]).
    pub fn scan_chunk_columnar(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
        start_slot: RowId,
        max_rows: usize,
        epoch: TxnId,
    ) -> FedResult<(ScanChunk, Option<RowId>)> {
        let (sink, next) = self.scan_into::<ChunkSink>(
            table,
            predicate,
            projection,
            start_slot,
            max_rows,
            Some(epoch),
        )?;
        Ok((sink.finish(), next))
    }

    /// Full-table scan (at the published commit epoch, like
    /// [`Database::scan_project`]).
    pub fn scan_all(&self, table: &str) -> FedResult<Table> {
        self.scan_project(table, &Predicate::True, None)
    }

    /// Run [`StoredTable::scan_into`] under the read lock, at `epoch` or —
    /// when `None` — at the commit epoch published when the lock was taken.
    fn scan_into<S: ScanSink>(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
        start_slot: RowId,
        max_rows: usize,
        epoch: Option<TxnId>,
    ) -> FedResult<(S, Option<RowId>)> {
        let tables = self.tables.read();
        let epoch = epoch.unwrap_or_else(|| self.commit_epoch.load(Ordering::Acquire));
        Self::resolve(&tables, table, &self.name)?
            .scan_into(predicate, projection, start_slot, max_rows, epoch)
    }

    /// Delete rows matching a predicate. Statement-atomic like the other
    /// mutations: an error mid-statement undoes the partial delete.
    pub fn delete_where(&self, table: &str, predicate: &Predicate) -> FedResult<usize> {
        self.mutate(table, |t, txn, undo| {
            t.delete_where(predicate, txn, undo)
                .map_err(|e| e.with_context(format!("deleting from table {table}")))
        })
    }

    /// One statement-atomic UPDATE: the rows matching `predicate` are
    /// selected first, then each gets `assignments` (column name, new
    /// value) applied left to right. On error the table is left untouched
    /// (rows *and* index entries), via undo over the version chains.
    pub fn update_set(
        &self,
        table: &str,
        predicate: &Predicate,
        assignments: &[(&str, Value)],
    ) -> FedResult<usize> {
        self.mutate(table, |t, txn, undo| {
            t.update_where(predicate, assignments, txn, undo)
                .map_err(|e| e.with_context(format!("updating table {table}")))
        })
    }

    /// [`Database::update_set`] with one assignment, `column := value`.
    pub fn update_where(
        &self,
        table: &str,
        predicate: &Predicate,
        column: &str,
        value: Value,
    ) -> FedResult<usize> {
        self.update_set(table, predicate, &[(column, value)])
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
        let (Some(d), Some(c)) = (&self.durability, &self.committer) else {
            return Err(FedError::recovery(format!(
                "database {} is in-memory only: nothing to checkpoint",
                self.name
            )));
        };
        let mut tables = self.tables.write();
        // Drain the pending batch *while holding the write lock*: every
        // statement ever submitted was applied (and submitted) under this
        // lock, so after the flush the WAL holds nothing newer than what
        // the snapshot below will capture — the truncate cannot eat a
        // commit that is pending or mid-batch, and the epoch we record
        // covers every statement left in (and removed from) the log.
        c.flush(&self.commit_epoch)
            .map_err(|e| e.with_context("draining the pending batch before checkpoint"))?;
        debug_assert_eq!(c.pending(), 0, "flush drained every pending statement");
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
            let (snap_epoch, snap_tables) = decode_snapshot(&bytes).map_err(wal::as_recovery)?;
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
        self.commit_epoch = AtomicU64::new(epoch);
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
        fn known<'a>(
            tables: &'a mut BTreeMap<Ident, StoredTable>,
            name: &str,
        ) -> FedResult<&'a mut StoredTable> {
            tables
                .get_mut(&Ident::new(name))
                .ok_or_else(|| FedError::recovery(format!("WAL references unknown table {name}")))
        }
        let mut undo = UndoLog::new();
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
                known(tables, table)?.create_index(
                    index.clone(),
                    column,
                    wal::index_kind_from_unique(*unique),
                )?;
            }
            WalRecord::Insert { table, row } => {
                known(tables, table)?.insert(Row::new(row.clone()), txn, &mut undo)?;
            }
            WalRecord::Update {
                table,
                slot,
                column,
                value,
            } => {
                known(tables, table)?.update_slot(
                    *slot as usize,
                    *column as usize,
                    value,
                    txn,
                    &mut undo,
                )?;
            }
            WalRecord::Delete { table, slot } => {
                known(tables, table)?.delete_slot(*slot as usize, txn, &mut undo)?;
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
    let mut body = WireWriter::with_capacity(1024);
    body.put_u64(epoch);
    body.put_u32(tables.len() as u32);
    for t in tables.values() {
        body.put_str(t.name().as_str());
        body.put_schema(t.schema());
        let indexes = t.index_defs();
        body.put_u32(indexes.len() as u32);
        for (name, column, kind) in indexes {
            body.put_str(&name);
            body.put_u32(column as u32);
            body.put_bool(wal::index_kind_unique(kind));
        }
        body.put_u64(t.slot_count());
        let live: Vec<_> = t.iter().collect();
        body.put_u64(live.len() as u64);
        for (slot, row) in live {
            body.put_u64(slot);
            body.put_u32(row.len() as u32);
            for v in row.values() {
                body.put_value(v);
            }
        }
    }
    let body = body.into_bytes();
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode_snapshot(bytes: &[u8]) -> FedResult<(TxnId, BTreeMap<Ident, StoredTable>)> {
    let rest = bytes
        .strip_prefix(SNAPSHOT_MAGIC.as_slice())
        .ok_or_else(|| FedError::recovery("snapshot file has the wrong magic"))?;
    let mut r = WireReader::new(rest);
    let crc = r.get_u32()?;
    if crc32(&rest[4..]) != crc {
        return Err(FedError::recovery("snapshot file fails its checksum"));
    }
    let epoch = r.get_u64()?;
    let n_tables = r.get_u32()?;
    let mut tables = BTreeMap::new();
    for _ in 0..n_tables {
        let name = Ident::new(r.get_str()?);
        let schema: SchemaRef = Arc::new(r.get_schema()?);
        let n_indexes = r.get_u32()?;
        let mut indexes = Vec::with_capacity((n_indexes as usize).min(r.remaining()));
        for _ in 0..n_indexes {
            let iname = r.get_str()?;
            let column = r.get_u32()? as usize;
            let kind = wal::index_kind_from_unique(r.get_bool()?);
            indexes.push((iname, column, kind));
        }
        let slot_count = r.get_u64()?;
        let n_live = r.get_u64()?;
        let mut rows = Vec::with_capacity((n_live as usize).min(r.remaining()));
        for _ in 0..n_live {
            let slot = r.get_u64()?;
            let width = r.get_u32()? as usize;
            let mut values = Vec::with_capacity(width.min(r.remaining()));
            for _ in 0..width {
                values.push(r.get_value()?);
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
    use crate::wal::{LogSink, MemorySink, MemorySnapshots, SnapshotStore};
    use fedwf_types::sync::{Condvar, Mutex};
    use fedwf_types::{DataType, ErrorLayer, Schema};
    use std::sync::atomic::AtomicBool;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

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

    /// A snapshot whose checksum holds but whose body ends early (every
    /// cut, with the CRC recomputed) fails recovery as `[recovery]`.
    #[test]
    fn a_cut_snapshot_body_is_a_recovery_error() {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        let db = durable_db(&log, &snaps);
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
        db.insert(
            "Components",
            Row::new(vec![Value::Int(1), Value::str("bolt")]),
        )
        .unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let bytes = snaps.load().unwrap().unwrap();
        let body = &bytes[SNAPSHOT_MAGIC.len() + 4..];
        for cut in 0..body.len() {
            let mut damaged = SNAPSHOT_MAGIC.to_vec();
            damaged.extend_from_slice(&crc32(&body[..cut]).to_le_bytes());
            damaged.extend_from_slice(&body[..cut]);
            snaps.store(&damaged).unwrap();
            let durability = Durability::in_memory(log.clone(), snaps.clone());
            let err = Database::open_with("stock", durability).unwrap_err();
            assert_eq!(err.layer, ErrorLayer::Recovery, "cut at {cut}: {err}");
        }
        snaps.store(&bytes).unwrap();
        assert_eq!(
            durable_db(&log, &snaps)
                .scan_all("Components")
                .unwrap()
                .row_count(),
            1
        );
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

    /// A DOUBLE key does not probe an integer column's index: 2^53 and
    /// 2^53 + 1 both equal 2^53 as f64, which the index's exact integer
    /// order cannot answer in one lookup, so the scan walks and matches
    /// both, as `sql_cmp` does. An integer key keeps the index.
    #[test]
    fn double_key_walks_an_integer_index() {
        let db = Database::new("wide");
        db.create_table("W", Arc::new(Schema::of(&[("B", DataType::BigInt)])))
            .unwrap();
        db.create_index("W", "w_b", "B", IndexKind::NonUnique)
            .unwrap();
        let two_pow_53: i64 = 1 << 53;
        for b in [two_pow_53, two_pow_53 + 1, 7] {
            db.insert("W", Row::new(vec![Value::BigInt(b)])).unwrap();
        }
        let by_double = Predicate::eq(0, Value::Double(two_pow_53 as f64));
        assert!(!db.index_serves("W", &by_double).unwrap());
        assert_eq!(
            db.scan_project("W", &by_double, None).unwrap().row_count(),
            2
        );
        let by_integer = Predicate::eq(0, Value::BigInt(two_pow_53));
        assert!(db.index_serves("W", &by_integer).unwrap());
        assert_eq!(
            db.scan_project("W", &by_integer, None).unwrap().row_count(),
            1
        );
    }

    /// The chunk cursor answers a pull that can match at most one row, a
    /// unique-index lookup, with that row, and streams larger pulls in
    /// column vectors.
    #[test]
    fn scan_chunk_answers_a_one_row_pull_in_a_row() {
        let db = db();
        for i in 0..10 {
            db.insert("Components", Row::new(vec![Value::Int(i), Value::str("x")]))
                .unwrap();
        }
        let epoch = db.snapshot_epoch();
        let (point, next) = db
            .scan_chunk_columnar("Components", &Predicate::eq(0, 7), None, 0, 4, epoch)
            .unwrap();
        assert!(matches!(point, ScanChunk::Rows(_)), "{point:?}");
        assert_eq!(
            point.to_rows(),
            [Row::new(vec![Value::Int(7), Value::str("x")])]
        );
        assert_eq!(next, None);
        let (walk, next) = db
            .scan_chunk_columnar("Components", &Predicate::True, None, 0, 4, epoch)
            .unwrap();
        assert!(matches!(walk, ScanChunk::Cols(_)), "{walk:?}");
        assert_eq!((walk.len(), next), (4, Some(4)));
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
            db.scan_project("Components", &Predicate::eq(0, Value::Int(7)), None)
                .unwrap()
                .row_count(),
            0
        );
        for k in [1, 2] {
            assert_eq!(
                db.scan_project("Components", &Predicate::eq(0, Value::Int(k)), None)
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
                db.scan_project("Components", &Predicate::eq(0, Value::Int(k)), None)
                    .unwrap()
                    .row_count(),
                1
            );
        }
    }

    #[test]
    fn equality_scan_is_an_index_probe_with_residual() {
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
            .scan_project("Components", &Predicate::eq(0, Value::Int(2)), None)
            .unwrap();
        assert_eq!(hit.row_count(), 1);
        assert_eq!(hit.value(0, "Name"), Some(&Value::str("nut")));
        // Residual still filters the probed rows.
        let miss = db
            .scan_project(
                "Components",
                &Predicate::eq(0, Value::Int(2)).and(Predicate::eq(1, Value::str("bolt"))),
                None,
            )
            .unwrap();
        assert_eq!(miss.row_count(), 0);
        // NULL key matches nothing under SQL three-valued logic.
        let null = db
            .scan_project("Components", &Predicate::eq(0, Value::Null), None)
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
            .scan_chunk_columnar("Components", &Predicate::True, None, 0, 4, epoch)
            .unwrap();
        db.update_where("Components", &Predicate::True, "Name", Value::str("new"))
            .unwrap();
        let mut rows = first.to_rows();
        let mut cursor = next;
        while let Some(start) = cursor {
            let (chunk, n) = db
                .scan_chunk_columnar("Components", &Predicate::True, None, start, 4, epoch)
                .unwrap();
            rows.extend(chunk.to_rows());
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
        assert_eq!(
            db.scan_project("T", &Predicate::eq(0, 99), None)
                .unwrap()
                .row_count(),
            1
        );
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
        assert_eq!(db.commit_stats(), None);
    }

    /// A sink whose every sync is slow, so concurrent commits pile up
    /// behind a batch and batches actually form.
    #[derive(Debug)]
    struct SlowSink {
        inner: Arc<MemorySink>,
        delay: Duration,
    }

    impl LogSink for SlowSink {
        fn append(&self, bytes: &[u8]) -> FedResult<()> {
            self.inner.append(bytes)
        }
        fn sync(&self) -> FedResult<()> {
            std::thread::sleep(self.delay);
            Ok(())
        }
        fn read_all(&self) -> FedResult<Vec<u8>> {
            self.inner.read_all()
        }
        fn truncate_to(&self, len: u64) -> FedResult<()> {
            self.inner.truncate_to(len)
        }
    }

    /// A memory sink whose `sync` blocks while its gate is closed, and
    /// fails once `fail` is set: it holds a leader inside its sync for as
    /// long as a test needs.
    #[derive(Debug, Default)]
    struct GatedSink {
        inner: MemorySink,
        /// Whether the gate is open, and how many syncs wait at it.
        gate: Mutex<(bool, usize)>,
        opened: Condvar,
        fail: AtomicBool,
    }

    impl GatedSink {
        fn new() -> Arc<GatedSink> {
            Arc::new(GatedSink {
                gate: Mutex::new((true, 0)),
                ..GatedSink::default()
            })
        }

        fn close(&self) {
            self.gate.lock().0 = false;
        }

        fn open(&self) {
            self.gate.lock().0 = true;
            self.opened.notify_all();
        }

        fn blocked(&self) -> usize {
            self.gate.lock().1
        }
    }

    impl LogSink for GatedSink {
        fn append(&self, bytes: &[u8]) -> FedResult<()> {
            self.inner.append(bytes)
        }
        fn sync(&self) -> FedResult<()> {
            let mut gate = self.gate.lock();
            gate.1 += 1;
            while !gate.0 {
                gate = self.opened.wait(gate);
            }
            gate.1 -= 1;
            if self.fail.load(Ordering::Relaxed) {
                return Err(FedError::storage("disk on fire"));
            }
            Ok(())
        }
        fn read_all(&self) -> FedResult<Vec<u8>> {
            self.inner.read_all()
        }
        fn truncate_to(&self, len: u64) -> FedResult<()> {
            self.inner.truncate_to(len)
        }
    }

    /// A durable database over `sink` holding an empty one-column table
    /// `T` (one committed statement).
    fn table_over(sink: Arc<dyn LogSink>) -> Arc<Database> {
        let durability = Durability {
            wal: Wal::new(sink),
            snapshots: MemorySnapshots::new(),
        };
        let db = Database::open_with("stock", durability).unwrap();
        db.create_table("T", Arc::new(Schema::of(&[("a", DataType::Int)])))
            .unwrap();
        Arc::new(db)
    }

    fn insert_on_thread(db: &Arc<Database>, k: i32) -> JoinHandle<FedResult<RowId>> {
        let db = Arc::clone(db);
        std::thread::spawn(move || db.insert("T", Row::new(vec![Value::Int(k)])))
    }

    /// Poll `holds` until it is true; fail the test after ten seconds.
    fn wait_until(what: &str, holds: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !holds() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_lone_writer_syncs_each_statement_alone() {
        let db = durable_db(&MemorySink::new(), &MemorySnapshots::new());
        db.create_table("T", Arc::new(Schema::of(&[("a", DataType::Int)])))
            .unwrap();
        for i in 0..5 {
            db.insert("T", Row::new(vec![Value::Int(i)])).unwrap();
        }
        assert_eq!(
            db.commit_stats().unwrap(),
            CommitStats {
                commits: 6,
                batches: 6,
                syncs: 6,
                max_batch: 1
            }
        );
    }

    /// Writer A leads a batch and blocks in its sync; seven writers
    /// submit behind it. Nothing they wrote becomes visible while A's sync
    /// is blocked, and once it returns one of them leads a batch of exactly
    /// the seven.
    #[test]
    fn writers_arriving_during_a_sync_share_the_next_batch() {
        let sink = GatedSink::new();
        let db = table_over(sink.clone());
        sink.close();
        let a = insert_on_thread(&db, 0);
        wait_until("writer A blocks in its sync", || sink.blocked() == 1);
        let epoch = db.snapshot_epoch();
        let followers: Vec<_> = (1..=7).map(|k| insert_on_thread(&db, k)).collect();
        let committer = db.committer.as_ref().unwrap();
        wait_until("seven statements are pending", || committer.pending() == 7);
        assert_eq!(db.snapshot_epoch(), epoch, "visible before its sync");
        assert_eq!(db.scan_all("T").unwrap().row_count(), 0);
        sink.open();
        a.join().unwrap().unwrap();
        for f in followers {
            f.join().unwrap().unwrap();
        }
        assert_eq!(db.snapshot_epoch(), epoch + 8);
        assert_eq!(db.scan_all("T").unwrap().row_count(), 8);
        assert_eq!(
            db.commit_stats().unwrap(),
            CommitStats {
                commits: 9,
                batches: 3,
                syncs: 3,
                max_batch: 7
            }
        );
    }

    /// A failed sync kills the committer: its batch, the statements that
    /// queued behind it and every later commit fail as `[shutdown]`, and
    /// the epoch stays where it was.
    #[test]
    fn a_failed_sync_fails_its_batch_and_every_later_commit() {
        let sink = GatedSink::new();
        let db = table_over(sink.clone());
        sink.close();
        let a = insert_on_thread(&db, 0);
        wait_until("writer A blocks in its sync", || sink.blocked() == 1);
        let epoch = db.snapshot_epoch();
        let mut writers: Vec<_> = (1..=3).map(|k| insert_on_thread(&db, k)).collect();
        let committer = db.committer.as_ref().unwrap();
        wait_until("three statements are pending", || committer.pending() == 3);
        sink.fail.store(true, Ordering::Relaxed);
        sink.open();
        writers.push(a);
        for w in writers {
            let err = w.join().unwrap().unwrap_err();
            assert!(err.is_shutdown(), "{err}");
        }
        // Later statements are refused at submit and undone under the lock.
        let err = db.insert("T", Row::new(vec![Value::Int(9)])).unwrap_err();
        assert!(err.is_shutdown(), "{err}");
        let schema = Arc::new(Schema::of(&[("b", DataType::Int)]));
        assert!(db.create_table("U", schema).unwrap_err().is_shutdown());
        assert!(!db.has_table("U"));
        assert!(db.checkpoint().unwrap_err().is_shutdown());
        assert_eq!(db.snapshot_epoch(), epoch);
        assert_eq!(db.scan_all("T").unwrap().row_count(), 0);
        assert_eq!(db.commit_stats().unwrap().commits, 1, "only the DDL");
    }

    #[test]
    fn concurrent_writers_all_commit_and_recover() {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        {
            let db = Arc::new(durable_db(&log, &snaps));
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
            let stats = db.commit_stats().unwrap();
            assert_eq!(stats.commits, 41);
            assert!(stats.syncs <= stats.commits);
        } // drop = crash; every acked statement is already durable
        let db = durable_db(&log, &snaps);
        assert_eq!(db.scan_all("T").unwrap().row_count(), 40);
    }

    #[test]
    fn checkpoint_is_safe_against_concurrently_committing_writers() {
        // Writers commit through a *slow* sync while the main thread
        // checkpoints repeatedly. Draining the pending batch under the
        // table lock must guarantee a checkpoint never truncates a pending
        // commit and never snapshots state it then loses — whatever
        // interleaving happens, reopening recovers every acked insert.
        let inner = MemorySink::new();
        let snaps = MemorySnapshots::new();
        let slow: Arc<dyn LogSink> = Arc::new(SlowSink {
            inner: Arc::clone(&inner),
            delay: Duration::from_micros(300),
        });
        let durability = Durability {
            wal: Wal::new(slow),
            snapshots: snaps.clone() as Arc<dyn SnapshotStore>,
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
}
