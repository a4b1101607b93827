//! Write-ahead logging and snapshot persistence for [`crate::Database`].
//!
//! The log is a flat sequence of *frames*, each `[len: u32 LE][crc32: u32
//! LE][payload]` with the CRC taken over the payload. One committed
//! statement is a run of redo records followed by a `Commit` record
//! carrying the statement's transaction id. A batch of whole statements is
//! written with one [`LogSink::append`] and one [`LogSink::sync`] by the
//! [`GroupCommitter`], which the committing threads take turns leading.
//! Replay tolerates a torn tail: it stops at the first short or
//! checksum-failing frame and discards any buffered records that never
//! reached their commit marker, so a crash mid-append can only lose
//! statements that were never acknowledged.
//!
//! Persistence is pluggable behind [`LogSink`] / [`SnapshotStore`] so tests
//! (and the 1-core CI) can run against shared in-memory buffers and
//! "crash" by dropping the `Database` while keeping the sink.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};

use fedwf_types::sync::{Condvar, Mutex};
use fedwf_types::wire::{crc32, WireReader, WireWriter};
use fedwf_types::{ErrorLayer, FedError, FedResult, Schema, TxnId, Value};

use crate::index::IndexKind;
use crate::table::RowId;

/// WAL records and checkpoint snapshots are encoded with the shared
/// [`fedwf_types::wire`] primitives. A payload its reader rejects (a
/// `[protocol]` error) is a damaged log or snapshot: report it as
/// `[recovery]`.
pub(crate) fn as_recovery(mut e: FedError) -> FedError {
    if e.layer == ErrorLayer::Protocol {
        e.layer = ErrorLayer::Recovery;
    }
    e
}

// ---------------------------------------------------------------------------
// Redo records.
// ---------------------------------------------------------------------------

/// One physical redo record. A statement is a run of these followed by a
/// [`WalRecord::Commit`] marker; replay applies a statement only once its
/// marker has been read intact.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    CreateTable {
        table: String,
        schema: Schema,
    },
    DropTable {
        table: String,
    },
    CreateIndex {
        table: String,
        index: String,
        column: String,
        unique: bool,
    },
    /// Row inserted; replay re-inserts it, which reallocates the same slot
    /// because aborted statements fully undo their slot allocations.
    Insert {
        table: String,
        row: Vec<Value>,
    },
    /// Single-column update of the row in `slot`.
    Update {
        table: String,
        slot: RowId,
        column: u32,
        value: Value,
    },
    Delete {
        table: String,
        slot: RowId,
    },
    /// Commit marker: everything since the previous marker belongs to `txn`.
    Commit {
        txn: TxnId,
    },
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_DROP_TABLE: u8 = 2;
const TAG_CREATE_INDEX: u8 = 3;
const TAG_INSERT: u8 = 4;
const TAG_UPDATE: u8 = 5;
const TAG_DELETE: u8 = 6;
const TAG_COMMIT: u8 = 7;

impl WalRecord {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            WalRecord::CreateTable { table, schema } => {
                w.put_u8(TAG_CREATE_TABLE);
                w.put_str(table);
                w.put_schema(schema);
            }
            WalRecord::DropTable { table } => {
                w.put_u8(TAG_DROP_TABLE);
                w.put_str(table);
            }
            WalRecord::CreateIndex {
                table,
                index,
                column,
                unique,
            } => {
                w.put_u8(TAG_CREATE_INDEX);
                w.put_str(table);
                w.put_str(index);
                w.put_str(column);
                w.put_bool(*unique);
            }
            WalRecord::Insert { table, row } => {
                w.put_u8(TAG_INSERT);
                w.put_str(table);
                w.put_u32(row.len() as u32);
                for v in row {
                    w.put_value(v);
                }
            }
            WalRecord::Update {
                table,
                slot,
                column,
                value,
            } => {
                w.put_u8(TAG_UPDATE);
                w.put_str(table);
                w.put_u64(*slot);
                w.put_u32(*column);
                w.put_value(value);
            }
            WalRecord::Delete { table, slot } => {
                w.put_u8(TAG_DELETE);
                w.put_str(table);
                w.put_u64(*slot);
            }
            WalRecord::Commit { txn } => {
                w.put_u8(TAG_COMMIT);
                w.put_u64(*txn);
            }
        }
    }

    fn decode(payload: &[u8]) -> FedResult<WalRecord> {
        Self::read(&mut WireReader::new(payload)).map_err(as_recovery)
    }

    fn read(r: &mut WireReader) -> FedResult<WalRecord> {
        let rec = match r.get_u8()? {
            TAG_CREATE_TABLE => WalRecord::CreateTable {
                table: r.get_str()?,
                schema: r.get_schema()?,
            },
            TAG_DROP_TABLE => WalRecord::DropTable {
                table: r.get_str()?,
            },
            TAG_CREATE_INDEX => WalRecord::CreateIndex {
                table: r.get_str()?,
                index: r.get_str()?,
                column: r.get_str()?,
                unique: r.get_bool()?,
            },
            TAG_INSERT => {
                let table = r.get_str()?;
                let n = r.get_u32()? as usize;
                let mut row = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    row.push(r.get_value()?);
                }
                WalRecord::Insert { table, row }
            }
            TAG_UPDATE => WalRecord::Update {
                table: r.get_str()?,
                slot: r.get_u64()?,
                column: r.get_u32()?,
                value: r.get_value()?,
            },
            TAG_DELETE => WalRecord::Delete {
                table: r.get_str()?,
                slot: r.get_u64()?,
            },
            TAG_COMMIT => WalRecord::Commit { txn: r.get_u64()? },
            other => {
                return Err(FedError::recovery(format!(
                    "unknown WAL record tag {other}"
                )))
            }
        };
        if !r.is_exhausted() {
            return Err(FedError::recovery("trailing bytes after WAL record"));
        }
        Ok(rec)
    }
}

/// Convert an [`IndexKind`] to the `unique` flag a `CreateIndex` record carries.
pub(crate) fn index_kind_unique(kind: IndexKind) -> bool {
    kind == IndexKind::Unique
}

pub(crate) fn index_kind_from_unique(unique: bool) -> IndexKind {
    if unique {
        IndexKind::Unique
    } else {
        IndexKind::NonUnique
    }
}

// ---------------------------------------------------------------------------
// Pluggable persistence.
// ---------------------------------------------------------------------------

/// Append-only destination of WAL frames. The [`GroupCommitter`] writes
/// one batch at a time, so only truncation races matter.
pub trait LogSink: Send + Sync + Debug {
    /// Write `bytes` after everything appended before. They need not be
    /// durable until the next [`LogSink::sync`].
    fn append(&self, bytes: &[u8]) -> FedResult<()>;
    /// Make every append so far durable.
    fn sync(&self) -> FedResult<()>;
    /// The full current contents of the log.
    fn read_all(&self) -> FedResult<Vec<u8>>;
    /// Cut the log down to its first `len` bytes (drop a torn tail, or
    /// everything after a checkpoint with `len == 0`).
    fn truncate_to(&self, len: u64) -> FedResult<()>;
}

/// Durable storage slot for checkpoint snapshots: at most one snapshot,
/// replaced atomically.
pub trait SnapshotStore: Send + Sync + Debug {
    fn load(&self) -> FedResult<Option<Vec<u8>>>;
    fn store(&self, bytes: &[u8]) -> FedResult<()>;
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> FedError {
    FedError::storage(format!("{what} {}: {e}", path.display()))
}

/// Fsync the parent directory of `path`, making a just-created or
/// just-renamed directory entry durable. Creating or renaming a file writes
/// the *entry* into the directory, and that entry is itself buffered: until
/// the directory is synced, a crash can resurface the old name (or no name
/// at all) even though the file's own contents were fsynced.
fn sync_parent_dir(path: &Path) -> FedResult<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsyncing parent directory of", path, e))
}

/// File-backed log sink: appends with `O_APPEND` semantics, and `sync` is
/// one `fdatasync`, so a committed statement survives process death. The
/// parent directory is fsynced once at open so the log file's *directory
/// entry* is as durable as its contents.
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    file: Mutex<File>,
}

impl FileSink {
    pub fn open(path: impl Into<PathBuf>) -> FedResult<FileSink> {
        let path = path.into();
        let existed = path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| io_err("opening WAL file", &path, e))?;
        if !existed {
            sync_parent_dir(&path)?;
        }
        Ok(FileSink {
            path,
            file: Mutex::new(file),
        })
    }
}

impl LogSink for FileSink {
    fn append(&self, bytes: &[u8]) -> FedResult<()> {
        let mut file = self.file.lock();
        file.write_all(bytes)
            .map_err(|e| io_err("appending to WAL file", &self.path, e))
    }

    fn sync(&self) -> FedResult<()> {
        let file = self.file.lock();
        file.sync_data()
            .map_err(|e| io_err("syncing WAL file", &self.path, e))
    }

    fn read_all(&self) -> FedResult<Vec<u8>> {
        let _guard = self.file.lock();
        std::fs::read(&self.path).map_err(|e| io_err("reading WAL file", &self.path, e))
    }

    fn truncate_to(&self, len: u64) -> FedResult<()> {
        let file = self.file.lock();
        // `sync_all`, not `sync_data`: a length change is metadata, and
        // `fdatasync` is allowed to skip metadata that doesn't affect
        // reading back already-written data — which a *shrunk* length does.
        file.set_len(len)
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err("truncating WAL file", &self.path, e))
    }
}

/// In-memory log sink. Shared via `Arc`, it survives the `Database` that
/// writes it — tests "crash" by dropping the database and reopening with
/// the same sink, optionally tearing bytes off the tail first.
#[derive(Debug, Default)]
pub struct MemorySink {
    buf: Mutex<Vec<u8>>,
}

impl MemorySink {
    pub fn new() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// Current log length in bytes.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulate a torn write: drop the last `n` bytes (saturating).
    pub fn tear_tail(&self, n: usize) {
        let mut buf = self.buf.lock();
        let keep = buf.len().saturating_sub(n);
        buf.truncate(keep);
    }

    /// Simulate media corruption: flip one byte at `offset` if it exists.
    pub fn corrupt_byte(&self, offset: usize) {
        let mut buf = self.buf.lock();
        if let Some(b) = buf.get_mut(offset) {
            *b ^= 0xFF;
        }
    }
}

impl LogSink for MemorySink {
    fn append(&self, bytes: &[u8]) -> FedResult<()> {
        self.buf.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> FedResult<()> {
        Ok(())
    }

    fn read_all(&self) -> FedResult<Vec<u8>> {
        Ok(self.buf.lock().clone())
    }

    fn truncate_to(&self, len: u64) -> FedResult<()> {
        let mut buf = self.buf.lock();
        let keep = (len as usize).min(buf.len());
        buf.truncate(keep);
        Ok(())
    }
}

/// The filesystem operations the snapshot-install protocol is written
/// against. Factoring them out lets the *same* protocol run over the real
/// OS ([`OsFs`]) and over a simulated filesystem ([`SimFs`]) whose `crash()`
/// drops directory entries that were never `sync_dir`ed — which is exactly
/// how a real kernel loses a rename on power failure.
pub trait SnapshotFs: Send + Sync + Debug {
    /// Write `bytes` to `path` (replacing it) and fsync the *file data*.
    fn write_file_synced(&self, path: &Path, bytes: &[u8]) -> FedResult<()>;
    /// Atomically rename `from` over `to`. The new directory entry is NOT
    /// durable until [`SnapshotFs::sync_dir`].
    fn rename(&self, from: &Path, to: &Path) -> FedResult<()>;
    /// Fsync the directory containing `path`, making its entries durable.
    fn sync_dir(&self, path: &Path) -> FedResult<()>;
    /// Read `path` fully; `Ok(None)` if it does not exist.
    fn read(&self, path: &Path) -> FedResult<Option<Vec<u8>>>;
}

/// The real filesystem.
#[derive(Debug, Default)]
pub struct OsFs;

impl SnapshotFs for OsFs {
    fn write_file_synced(&self, path: &Path, bytes: &[u8]) -> FedResult<()> {
        let mut f =
            File::create(path).map_err(|e| io_err("creating snapshot temp file", path, e))?;
        f.write_all(bytes)
            .and_then(|()| f.sync_all())
            .map_err(|e| io_err("writing snapshot temp file", path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> FedResult<()> {
        std::fs::rename(from, to).map_err(|e| io_err("installing snapshot file", to, e))
    }

    fn sync_dir(&self, path: &Path) -> FedResult<()> {
        sync_parent_dir(path)
    }

    fn read(&self, path: &Path) -> FedResult<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("reading snapshot file", path, e)),
        }
    }
}

/// A simulated filesystem with the durability semantics that matter for the
/// snapshot-install protocol: file *contents* written through
/// `write_file_synced` are durable, but directory *entries* created by
/// `rename` live in a pending set until `sync_dir` — and [`SimFs::crash`]
/// rolls every pending entry back to what the directory durably held.
///
/// Setting `ignore_sync_dir` models the buggy protocol (rename without the
/// directory fsync): `sync_dir` becomes a no-op, so the test that crashes
/// after `store()` sees the *old* snapshot reappear — the regression the
/// real [`FileSnapshots`] had.
#[derive(Debug, Default)]
pub struct SimFs {
    /// Directory entries a crash preserves.
    durable: Mutex<BTreeMap<PathBuf, Vec<u8>>>,
    /// Entries renamed into place but not yet covered by a `sync_dir`,
    /// mapped to what the durable directory held before (`None` = nothing).
    pending: Mutex<BTreeMap<PathBuf, Option<Vec<u8>>>>,
    /// Staged temp files (contents durable, but irrelevant after rename).
    staged: Mutex<BTreeMap<PathBuf, Vec<u8>>>,
    /// Model the broken protocol: drop `sync_dir` calls on the floor.
    pub ignore_sync_dir: std::sync::atomic::AtomicBool,
}

impl SimFs {
    pub fn new() -> Arc<SimFs> {
        Arc::new(SimFs::default())
    }

    /// Simulate power failure: un-synced directory entries revert to what
    /// the directory durably held before the rename.
    pub fn crash(&self) {
        let mut durable = self.durable.lock();
        for (path, before) in std::mem::take(&mut *self.pending.lock()) {
            match before {
                Some(old) => {
                    durable.insert(path, old);
                }
                None => {
                    durable.remove(&path);
                }
            }
        }
        self.staged.lock().clear();
    }
}

impl SnapshotFs for SimFs {
    fn write_file_synced(&self, path: &Path, bytes: &[u8]) -> FedResult<()> {
        self.staged
            .lock()
            .insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> FedResult<()> {
        let bytes = self.staged.lock().remove(from).ok_or_else(|| {
            FedError::storage(format!("rename source missing: {}", from.display()))
        })?;
        let mut durable = self.durable.lock();
        let mut pending = self.pending.lock();
        // Remember what a crash should roll back to: only the oldest
        // durable value matters if several renames pile up un-synced.
        pending
            .entry(to.to_path_buf())
            .or_insert_with(|| durable.get(to).cloned());
        durable.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn sync_dir(&self, _path: &Path) -> FedResult<()> {
        if !self.ignore_sync_dir.load(Ordering::Relaxed) {
            self.pending.lock().clear();
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> FedResult<Option<Vec<u8>>> {
        Ok(self.durable.lock().get(path).cloned())
    }
}

/// File-backed snapshot store: writes to a sibling temp file, fsyncs, then
/// renames over the snapshot and fsyncs the parent directory — readers see
/// the old or the new snapshot, never a half-written one, and the *new* one
/// is what a crash after `store()` returns leaves behind. (Without the
/// directory fsync the rename itself could be lost, silently resurrecting
/// the previous snapshot plus an already-truncated WAL.)
#[derive(Debug)]
pub struct FileSnapshots {
    path: PathBuf,
    fs: Arc<dyn SnapshotFs>,
}

impl FileSnapshots {
    pub fn new(path: impl Into<PathBuf>) -> FileSnapshots {
        FileSnapshots::over(path, Arc::new(OsFs))
    }

    /// The same install protocol over a pluggable filesystem — tests use
    /// [`SimFs`] to prove the protocol survives a crash that drops
    /// un-fsynced directory entries.
    pub fn over(path: impl Into<PathBuf>, fs: Arc<dyn SnapshotFs>) -> FileSnapshots {
        FileSnapshots {
            path: path.into(),
            fs,
        }
    }
}

impl SnapshotStore for FileSnapshots {
    fn load(&self) -> FedResult<Option<Vec<u8>>> {
        self.fs.read(&self.path)
    }

    fn store(&self, bytes: &[u8]) -> FedResult<()> {
        let tmp = self.path.with_extension("tmp");
        self.fs.write_file_synced(&tmp, bytes)?;
        self.fs.rename(&tmp, &self.path)?;
        self.fs.sync_dir(&self.path)
    }
}

/// In-memory snapshot store, `Arc`-shared like [`MemorySink`].
#[derive(Debug, Default)]
pub struct MemorySnapshots {
    snap: Mutex<Option<Vec<u8>>>,
}

impl MemorySnapshots {
    pub fn new() -> Arc<MemorySnapshots> {
        Arc::new(MemorySnapshots::default())
    }
}

impl SnapshotStore for MemorySnapshots {
    fn load(&self) -> FedResult<Option<Vec<u8>>> {
        Ok(self.snap.lock().clone())
    }

    fn store(&self, bytes: &[u8]) -> FedResult<()> {
        *self.snap.lock() = Some(bytes.to_vec());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The log itself.
// ---------------------------------------------------------------------------

/// What a replay recovered from the log.
#[derive(Debug)]
pub struct Replay {
    /// Committed statements in commit order.
    pub statements: Vec<(TxnId, Vec<WalRecord>)>,
    /// Byte length of the log prefix covering those statements. Anything
    /// past it is a torn or uncommitted tail the caller should truncate
    /// before appending again.
    pub committed_len: u64,
    /// Whether bytes past `committed_len` were present and discarded.
    pub discarded_tail: bool,
}

/// The write-ahead log: framing and commit-marker discipline over a
/// [`LogSink`].
#[derive(Debug)]
pub struct Wal {
    sink: Arc<dyn LogSink>,
}

impl Wal {
    pub fn new(sink: Arc<dyn LogSink>) -> Wal {
        Wal { sink }
    }

    fn frame(out: &mut Vec<u8>, record: &WalRecord) {
        let mut payload = WireWriter::with_capacity(32);
        record.encode(&mut payload);
        let payload = payload.into_bytes();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Frame one committed statement — its redo records plus the trailing
    /// commit marker — into one byte run. The committing thread encodes it
    /// and [`GroupCommitter::submit`]s it, which concatenates whole
    /// statements into batches.
    pub fn encode_statement(txn: TxnId, records: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 * (records.len() + 1));
        for r in records {
            Self::frame(&mut out, r);
        }
        Self::frame(&mut out, &WalRecord::Commit { txn });
        out
    }

    /// The sink this log writes through (the group committer appends
    /// batches to it directly).
    pub fn sink(&self) -> Arc<dyn LogSink> {
        Arc::clone(&self.sink)
    }

    /// Read the log back, yielding only statements whose commit marker is
    /// intact. A short or checksum-failing frame ends the replay (torn
    /// tail); records after the last commit marker are discarded.
    pub fn replay(&self) -> FedResult<Replay> {
        let bytes = self.sink.read_all()?;
        let mut statements = Vec::new();
        let mut pending: Vec<WalRecord> = Vec::new();
        let mut pos = 0usize;
        let mut committed_len = 0u64;
        while let Some(frame_end) = frame_bounds(&bytes, pos) {
            let payload = &bytes[pos + 8..frame_end];
            let Ok(record) = WalRecord::decode(payload) else {
                break;
            };
            pos = frame_end;
            if let WalRecord::Commit { txn } = record {
                statements.push((txn, std::mem::take(&mut pending)));
                committed_len = pos as u64;
            } else {
                pending.push(record);
            }
        }
        let discarded_tail = (bytes.len() as u64) > committed_len;
        Ok(Replay {
            statements,
            committed_len,
            discarded_tail,
        })
    }

    /// Drop the torn/uncommitted tail a [`Wal::replay`] reported, so the
    /// next append continues from a clean frame boundary.
    pub fn truncate_to(&self, len: u64) -> FedResult<()> {
        self.sink.truncate_to(len)
    }

    /// Empty the log entirely (after a checkpoint made it redundant).
    pub fn truncate(&self) -> FedResult<()> {
        self.sink.truncate_to(0)
    }
}

/// If a whole, checksum-valid frame starts at `pos`, return its end offset.
fn frame_bounds(bytes: &[u8], pos: usize) -> Option<usize> {
    let header = bytes.get(pos..pos + 8)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let end = pos.checked_add(8)?.checked_add(len)?;
    let payload = bytes.get(pos + 8..end)?;
    (crc32(payload) == crc).then_some(end)
}

// ---------------------------------------------------------------------------
// Group commit, led by the committing threads.
// ---------------------------------------------------------------------------

/// Commit counters; `syncs < commits` means writers shared syncs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Statements made durable.
    pub commits: u64,
    /// Batches written, each with one append.
    pub batches: u64,
    /// `fdatasync` calls issued.
    pub syncs: u64,
    /// Largest number of statements written in one batch.
    pub max_batch: u64,
}

#[derive(Debug, Default)]
struct CommitterState {
    /// Encoded statements waiting for the next batch, in txn order.
    pending: Vec<u8>,
    /// How many statements `pending` holds.
    pending_statements: u64,
    /// Txn of the newest submitted statement.
    last_submitted: TxnId,
    /// A leader is writing a batch outside the mutex.
    writing: bool,
    /// Followers parked until the current batch finishes.
    parked: usize,
    /// Set when an append or sync failed: no later statement may be
    /// acknowledged past a hole in the log.
    dead: Option<FedError>,
    stats: CommitStats,
}

/// Group commit led by the committing threads, which take turns writing
/// the log.
///
/// A writer applies its statement and [`GroupCommitter::submit`]s the
/// encoded bytes *while holding* the table write lock, so pending order,
/// txn order and log order all agree. It then releases the lock and
/// [`GroupCommitter::wait`]s. If no batch is being written, it leads: it
/// takes every pending statement, writes them with one append and one
/// sync outside the mutex, and publishes `commit_epoch` to the batch's
/// last txn. Otherwise it parks until the current batch finishes and looks
/// again; its statement may be in the next batch, which it may lead. So a
/// batch holds exactly the statements that arrived while the previous one
/// was syncing, and a lone writer syncs its own statement with no
/// hand-off. MVCC visibility never runs ahead of durability.
///
/// If the sink fails, the committer is *dead*: the failing batch's waiters
/// and every later submit get a [`FedError::shutdown`]-layer error, and the
/// epoch never advances past the failure. A statement already applied when
/// its batch fails stays invisible forever, the only sound option once the
/// table lock has been released (no undo).
#[derive(Debug)]
pub struct GroupCommitter {
    sink: Arc<dyn LogSink>,
    state: Mutex<CommitterState>,
    /// Signalled when a batch finishes and a follower is parked.
    batch_done: Condvar,
}

impl GroupCommitter {
    pub fn new(sink: Arc<dyn LogSink>) -> GroupCommitter {
        GroupCommitter {
            sink,
            state: Mutex::new(CommitterState::default()),
            batch_done: Condvar::new(),
        }
    }

    fn dead_error(e: &FedError) -> FedError {
        FedError::shutdown(format!("committer is dead: {}", e.message))
    }

    /// Queue an encoded statement for the next batch. Call with the table
    /// write lock held and [`GroupCommitter::wait`] after releasing it. An
    /// error (a dead committer) queues nothing: undo the statement.
    pub fn submit(&self, txn: TxnId, bytes: Vec<u8>) -> FedResult<()> {
        let mut state = self.state.lock();
        if let Some(e) = &state.dead {
            return Err(Self::dead_error(e));
        }
        if state.pending.is_empty() {
            state.pending = bytes;
        } else {
            state.pending.extend_from_slice(&bytes);
        }
        state.pending_statements += 1;
        state.last_submitted = txn;
        Ok(())
    }

    /// Block until the submitted statement `txn` is durable and `epoch`
    /// covers it, leading batches while none is being written.
    pub fn wait(&self, txn: TxnId, epoch: &AtomicU64) -> FedResult<()> {
        let mut state = self.state.lock();
        loop {
            if epoch.load(Ordering::Acquire) >= txn {
                return Ok(());
            }
            if let Some(e) = &state.dead {
                return Err(Self::dead_error(e));
            }
            if state.writing {
                state.parked += 1;
                state = self.batch_done.wait(state);
                state.parked -= 1;
            } else {
                state = self.lead(state, epoch);
            }
        }
    }

    /// Make every statement submitted so far durable, leading a batch if
    /// needed.
    pub fn flush(&self, epoch: &AtomicU64) -> FedResult<()> {
        let last = self.state.lock().last_submitted;
        self.wait(last, epoch)
    }

    /// Write the whole pending batch with one append and one sync, outside
    /// the mutex, then publish it.
    fn lead<'a>(
        &'a self,
        mut state: MutexGuard<'a, CommitterState>,
        epoch: &AtomicU64,
    ) -> MutexGuard<'a, CommitterState> {
        let batch = std::mem::take(&mut state.pending);
        let statements = std::mem::take(&mut state.pending_statements);
        let last = state.last_submitted;
        state.writing = true;
        drop(state);
        let result = self.sink.append(&batch).and_then(|()| self.sink.sync());
        let mut state = self.state.lock();
        state.writing = false;
        match result {
            Ok(()) => {
                let stats = &mut state.stats;
                stats.commits += statements;
                stats.batches += 1;
                stats.syncs += 1;
                stats.max_batch = stats.max_batch.max(statements);
                // Release pairs with the Acquire loads of the epoch in
                // `wait` and in the readers that pin it.
                epoch.fetch_max(last, Ordering::Release);
            }
            Err(e) => state.dead = Some(e),
        }
        if state.parked > 0 {
            self.batch_done.notify_all();
        }
        state
    }

    /// Statements submitted but not yet taken by a leader.
    pub fn pending(&self) -> u64 {
        self.state.lock().pending_statements
    }

    pub fn stats(&self) -> CommitStats {
        self.state.lock().stats
    }
}

// ---------------------------------------------------------------------------
// Durability bundle.
// ---------------------------------------------------------------------------

/// The persistence pair a durable [`crate::Database`] writes through: a WAL
/// for redo and a snapshot slot for checkpoints.
#[derive(Debug)]
pub struct Durability {
    pub wal: Wal,
    pub snapshots: Arc<dyn SnapshotStore>,
}

impl Durability {
    /// File-backed durability inside `dir` (created if missing):
    /// `dir/wal.log` and `dir/snapshot.bin`.
    pub fn at_path(dir: impl AsRef<Path>) -> FedResult<Durability> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating database dir", dir, e))?;
        Ok(Durability {
            wal: Wal::new(Arc::new(FileSink::open(dir.join("wal.log"))?)),
            snapshots: Arc::new(FileSnapshots::new(dir.join("snapshot.bin"))),
        })
    }

    /// In-memory durability over the given shared sinks — the test harness
    /// keeps the `Arc`s, drops the database, and reopens to simulate a
    /// crash.
    pub fn in_memory(log: Arc<MemorySink>, snapshots: Arc<MemorySnapshots>) -> Durability {
        Durability {
            wal: Wal::new(log),
            snapshots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::DataType;

    /// Append one committed statement the way a batch of one writes it.
    fn append_statement(wal: &Wal, txn: TxnId, records: &[WalRecord]) {
        wal.sink()
            .append(&Wal::encode_statement(txn, records))
            .unwrap();
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                table: "T".into(),
                schema: Schema::of(&[("a", DataType::Int), ("b", DataType::Varchar)]),
            },
            WalRecord::Insert {
                table: "T".into(),
                row: vec![Value::Int(1), Value::str("x")],
            },
            WalRecord::Update {
                table: "T".into(),
                slot: 0,
                column: 1,
                value: Value::str("y"),
            },
            WalRecord::Delete {
                table: "T".into(),
                slot: 0,
            },
            WalRecord::CreateIndex {
                table: "T".into(),
                index: "pk".into(),
                column: "a".into(),
                unique: true,
            },
            WalRecord::DropTable { table: "T".into() },
        ]
    }

    #[test]
    fn damaged_records_are_recovery_errors() {
        for rec in sample_records() {
            let mut w = WireWriter::new();
            rec.encode(&mut w);
            let mut payload = w.into_bytes();
            for cut in 0..payload.len() {
                let err = WalRecord::decode(&payload[..cut]).unwrap_err();
                assert_eq!(
                    err.layer,
                    ErrorLayer::Recovery,
                    "{rec:?} cut at {cut}: {err}"
                );
            }
            payload.push(0);
            let err = WalRecord::decode(&payload).unwrap_err();
            assert_eq!(err.layer, ErrorLayer::Recovery, "{rec:?} + 1 byte: {err}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn records_roundtrip() {
        for rec in sample_records() {
            let mut payload = WireWriter::new();
            rec.encode(&mut payload);
            assert_eq!(WalRecord::decode(&payload.into_bytes()).unwrap(), rec);
        }
    }

    #[test]
    fn replay_returns_only_committed_statements() {
        let sink = MemorySink::new();
        let wal = Wal::new(sink.clone());
        append_statement(&wal, 1, &sample_records()[..2]);
        // An uncommitted run: records appended raw, no commit marker.
        let mut torn = vec![];
        Wal::frame(&mut torn, &sample_records()[3]);
        sink.append(&torn).unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.statements.len(), 1);
        assert_eq!(replay.statements[0].0, 1);
        assert_eq!(replay.statements[0].1.len(), 2);
        assert!(replay.discarded_tail);
        assert!(replay.committed_len < sink.len() as u64);
    }

    #[test]
    fn replay_tolerates_torn_final_frame() {
        let sink = MemorySink::new();
        let wal = Wal::new(sink.clone());
        append_statement(&wal, 1, &sample_records()[..1]);
        append_statement(&wal, 2, &sample_records()[1..3]);
        sink.tear_tail(5); // rip into statement 2's commit marker
        let replay = wal.replay().unwrap();
        assert_eq!(replay.statements.len(), 1, "statement 2 lost its marker");
        assert!(replay.discarded_tail);
    }

    #[test]
    fn replay_stops_at_corrupt_frame() {
        let sink = MemorySink::new();
        let wal = Wal::new(sink.clone());
        append_statement(&wal, 1, &sample_records()[..1]);
        let stmt1_len = sink.len();
        append_statement(&wal, 2, &sample_records()[..1]);
        sink.corrupt_byte(stmt1_len + 10);
        let replay = wal.replay().unwrap();
        assert_eq!(replay.statements.len(), 1);
        assert_eq!(replay.committed_len, stmt1_len as u64);
    }

    #[test]
    fn truncating_the_reported_tail_makes_the_log_clean() {
        let sink = MemorySink::new();
        let wal = Wal::new(sink.clone());
        append_statement(&wal, 1, &sample_records()[..2]);
        append_statement(&wal, 2, &sample_records()[..1]);
        sink.tear_tail(3);
        let replay = wal.replay().unwrap();
        wal.truncate_to(replay.committed_len).unwrap();
        // Appending after the truncation yields a fully clean log again.
        append_statement(&wal, 2, &sample_records()[..1]);
        let replay = wal.replay().unwrap();
        assert_eq!(replay.statements.len(), 2);
        assert!(!replay.discarded_tail);
    }

    /// A sink that can be switched into a failing state, for dead-committer
    /// tests.
    #[derive(Debug, Default)]
    struct FlakySink {
        inner: MemorySink,
        broken: std::sync::atomic::AtomicBool,
    }

    impl LogSink for FlakySink {
        fn append(&self, bytes: &[u8]) -> FedResult<()> {
            if self.broken.load(Ordering::Relaxed) {
                return Err(FedError::storage("disk on fire"));
            }
            self.inner.append(bytes)
        }
        fn sync(&self) -> FedResult<()> {
            Ok(())
        }
        fn read_all(&self) -> FedResult<Vec<u8>> {
            self.inner.read_all()
        }
        fn truncate_to(&self, len: u64) -> FedResult<()> {
            self.inner.truncate_to(len)
        }
    }

    #[test]
    fn sim_fs_snapshot_protocol_survives_crash() {
        let fs = SimFs::new();
        let store = FileSnapshots::over("/db/snapshot.bin", Arc::clone(&fs) as Arc<dyn SnapshotFs>);
        store.store(b"v1").unwrap();
        fs.crash();
        assert_eq!(store.load().unwrap().unwrap(), b"v1");
        store.store(b"v2").unwrap();
        fs.crash();
        assert_eq!(store.load().unwrap().unwrap(), b"v2");
    }

    #[test]
    fn missing_dir_fsync_resurrects_old_snapshot() {
        // The regression FileSnapshots::store had: rename without fsyncing
        // the directory. The protocol *without* the final sync_dir loses
        // the rename on crash and the previous snapshot reappears.
        let fs = SimFs::new();
        let store = FileSnapshots::over("/db/snapshot.bin", Arc::clone(&fs) as Arc<dyn SnapshotFs>);
        store.store(b"v1").unwrap();
        fs.ignore_sync_dir.store(true, Ordering::Relaxed);
        store.store(b"v2").unwrap();
        fs.crash();
        assert_eq!(
            store.load().unwrap().unwrap(),
            b"v1",
            "un-fsynced rename must roll back — this is the hole the fix closes"
        );
    }

    #[test]
    fn group_committer_publishes_epoch_after_durability_in_order() {
        let sink = MemorySink::new();
        let epoch = AtomicU64::new(0);
        let gc = GroupCommitter::new(sink.clone() as Arc<dyn LogSink>);
        for txn in 1..=8u64 {
            gc.submit(txn, Wal::encode_statement(txn, &sample_records()[..1]))
                .unwrap();
        }
        assert_eq!(gc.pending(), 8);
        assert_eq!(epoch.load(Ordering::Acquire), 0, "nothing synced yet");
        // The first waiter leads: one batch carries all eight statements.
        gc.wait(1, &epoch).unwrap();
        assert_eq!(epoch.load(Ordering::Acquire), 8);
        for txn in 2..=8u64 {
            gc.wait(txn, &epoch).unwrap();
        }
        let wal = Wal::new(sink as Arc<dyn LogSink>);
        let replay = wal.replay().unwrap();
        let txns: Vec<TxnId> = replay.statements.iter().map(|(t, _)| *t).collect();
        assert_eq!(txns, (1..=8).collect::<Vec<_>>(), "log order == txn order");
        let stats = gc.stats();
        assert_eq!(
            stats,
            CommitStats {
                commits: 8,
                batches: 1,
                syncs: 1,
                max_batch: 8
            }
        );
        // Nothing pending: a flush returns without writing.
        gc.flush(&epoch).unwrap();
        assert_eq!(gc.stats().batches, 1);
    }

    #[test]
    fn dead_committer_fails_current_and_later_commits() {
        let sink = Arc::new(FlakySink::default());
        let epoch = AtomicU64::new(0);
        let gc = GroupCommitter::new(Arc::clone(&sink) as Arc<dyn LogSink>);
        sink.broken.store(true, Ordering::Relaxed);
        gc.submit(1, Wal::encode_statement(1, &sample_records()[..1]))
            .unwrap();
        let err = gc.wait(1, &epoch).unwrap_err();
        assert!(err.is_shutdown(), "commit on a dying sink: {err}");
        assert_eq!(epoch.load(Ordering::Acquire), 0, "no visibility published");
        // Later submissions are rejected at the door.
        let err = gc
            .submit(2, Wal::encode_statement(2, &sample_records()[..1]))
            .unwrap_err();
        assert!(err.is_shutdown());
        assert!(gc.flush(&epoch).unwrap_err().is_shutdown());
        assert_eq!(gc.stats(), CommitStats::default());
    }

    #[test]
    fn file_sink_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fedwf-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Durability::at_path(&dir).unwrap();
        append_statement(&d.wal, 1, &sample_records()[..2]);
        d.snapshots.store(b"snapshot-bytes").unwrap();
        let replay = d.wal.replay().unwrap();
        assert_eq!(replay.statements.len(), 1);
        assert_eq!(d.snapshots.load().unwrap().unwrap(), b"snapshot-bytes");
        d.wal.truncate().unwrap();
        assert_eq!(d.wal.replay().unwrap().statements.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
