//! Write-ahead logging and snapshot persistence for [`crate::Database`].
//!
//! The log is a flat sequence of *frames*, each `[len: u32 LE][crc32: u32
//! LE][payload]` with the CRC taken over the payload. One committed
//! statement is a run of redo records followed by a `Commit` record
//! carrying the statement's transaction id; the whole run is appended with
//! a single [`LogSink::append`] call. Replay tolerates a torn tail: it
//! stops at the first short or checksum-failing frame and discards any
//! buffered records that never reached their commit marker, so a crash
//! mid-append can only lose the statement that was being written.
//!
//! Persistence is pluggable behind [`LogSink`] / [`SnapshotStore`] so tests
//! (and the 1-core CI) can run against shared in-memory buffers and
//! "crash" by dropping the `Database` while keeping the sink.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedwf_types::sync::{Condvar, Mutex};
use fedwf_types::wire::{crc32, WireReader, WireWriter};
use fedwf_types::{CommitMode, ErrorLayer, FedError, FedResult, Schema, TxnId, Value};

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

/// Append-only destination of WAL frames. `append` must be atomic with
/// respect to other appends (the database serializes writers, so in
/// practice only truncation races matter) and durable once it returns.
pub trait LogSink: Send + Sync + Debug {
    fn append(&self, bytes: &[u8]) -> FedResult<()>;
    /// Buffered append: the bytes are written in order but need not be
    /// durable until the next [`LogSink::sync`]. The async commit mode's
    /// flusher writes through this; the default forwards to the durable
    /// [`LogSink::append`], which is always correct, just never faster.
    fn append_nosync(&self, bytes: &[u8]) -> FedResult<()> {
        self.append(bytes)
    }
    /// Make every buffered append durable. Default: nothing buffered.
    fn sync(&self) -> FedResult<()> {
        Ok(())
    }
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

/// File-backed log sink: appends with `O_APPEND` semantics and fsyncs each
/// append, so a committed statement survives process death. The parent
/// directory is fsynced once at open so the log file's *directory entry*
/// is as durable as its contents.
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
            .and_then(|()| file.sync_data())
            .map_err(|e| io_err("appending to WAL file", &self.path, e))
    }

    fn append_nosync(&self, bytes: &[u8]) -> FedResult<()> {
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
    /// commit marker — into the byte run a single sink append would write.
    /// The group committer encodes on the submitting thread and hands the
    /// bytes to the log writer, which concatenates whole batches.
    pub fn encode_statement(txn: TxnId, records: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 * (records.len() + 1));
        for r in records {
            Self::frame(&mut out, r);
        }
        Self::frame(&mut out, &WalRecord::Commit { txn });
        out
    }

    /// Append one committed statement: its redo records plus the trailing
    /// commit marker, in a single sink append.
    pub fn append_statement(&self, txn: TxnId, records: &[WalRecord]) -> FedResult<()> {
        self.sink.append(&Self::encode_statement(txn, records))
    }

    /// The sink this log writes through (the group committer appends
    /// coalesced batches to it directly).
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
// Group commit: the log-writer thread.
// ---------------------------------------------------------------------------

/// Counters the log writer keeps; `syncs < commits` is the whole point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Statements made durable (or acked, in async mode).
    pub commits: u64,
    /// Batches the log writer drained.
    pub batches: u64,
    /// `fdatasync` calls issued.
    pub syncs: u64,
    /// Largest number of statements coalesced into one batch.
    pub max_batch: u64,
}

#[derive(Debug, Default)]
struct StatsCells {
    commits: AtomicU64,
    batches: AtomicU64,
    syncs: AtomicU64,
    max_batch: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> CommitStats {
        CommitStats {
            commits: self.commits.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
        }
    }

    fn record_batch(&self, statements: u64) {
        self.commits.fetch_add(statements, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(statements, Ordering::Relaxed);
    }
}

/// One-shot completion cell a committing thread blocks on after releasing
/// the table lock: the log writer completes it once the statement's batch
/// is durable (or failed).
#[derive(Debug, Default)]
struct WaitCell {
    done: Mutex<Option<FedResult<()>>>,
    cv: Condvar,
}

impl WaitCell {
    fn complete(&self, result: FedResult<()>) {
        *self.done.lock() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> FedResult<()> {
        let mut done = self.done.lock();
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self.cv.wait(done);
        }
    }
}

#[derive(Debug)]
enum Payload {
    /// An encoded statement (redo frames + commit marker) for `txn`.
    Statement { txn: TxnId, bytes: Vec<u8> },
    /// Durability barrier: complete once everything queued before it is
    /// synced. Contributes no bytes.
    Flush,
}

#[derive(Debug)]
struct Submission {
    payload: Payload,
    waiter: Option<Arc<WaitCell>>,
}

#[derive(Debug, Default)]
struct CommitterState {
    queue: VecDeque<Submission>,
    shutdown: bool,
    /// Set when a sink append/sync failed: the log writer refuses further
    /// work so no later statement can be acked past a hole in the log.
    dead: Option<FedError>,
}

#[derive(Debug)]
struct CommitterShared {
    state: Mutex<CommitterState>,
    /// Signaled when the queue gains work or shutdown is requested.
    work: Condvar,
    /// Signaled when the queue drains below capacity (back-pressure).
    space: Condvar,
}

/// Soft bound on queued submissions; writers block in
/// [`GroupCommitter::wait_for_space`] *before* taking the table lock, so a
/// slow disk throttles producers without ever stalling readers.
const QUEUE_CAPACITY: usize = 256;

/// The group-commit engine: a dedicated log-writer thread drains a bounded
/// queue of encoded commit records, coalescing every waiter present at
/// wakeup into **one** contiguous sink append + **one** `fdatasync`, then
/// releases them all.
///
/// Commit protocol (two-phase publish): the writer applies its statement to
/// the in-memory tables and enqueues here *while still holding* the table
/// write lock — so queue order, txn order and log order all agree — then
/// releases the lock and blocks on its [`CommitTicket`]. Only after the batch
/// is durable does the log writer advance `commit_epoch` (in enqueue
/// order), so MVCC snapshot visibility never runs ahead of durability.
///
/// If the sink fails, the committer goes *dead*: the failing batch and all
/// later submissions are completed with a [`FedError::shutdown`]-layer
/// error, and the epoch is never advanced past the failure — the applied
/// but unpublished in-memory versions stay invisible forever, which is the
/// only sound option once the table lock has been released (no undo).
#[derive(Debug)]
pub struct GroupCommitter {
    shared: Arc<CommitterShared>,
    stats: Arc<StatsCells>,
    handle: Mutex<Option<JoinHandle<()>>>,
    mode: CommitMode,
}

impl GroupCommitter {
    /// Spawn the log-writer thread. `commit_epoch` is the database's
    /// visibility epoch, advanced only after durability (group mode).
    pub fn start(
        sink: Arc<dyn LogSink>,
        mode: CommitMode,
        commit_epoch: Arc<AtomicU64>,
    ) -> GroupCommitter {
        let shared = Arc::new(CommitterShared {
            state: Mutex::new(CommitterState::default()),
            work: Condvar::new(),
            space: Condvar::new(),
        });
        let stats = Arc::new(StatsCells::default());
        let worker = LogWriter {
            shared: Arc::clone(&shared),
            stats: Arc::clone(&stats),
            sink,
            mode,
            commit_epoch,
            linger_on: true,
            solo_drains: 0,
        };
        let handle = std::thread::Builder::new()
            .name("fedwf-log-writer".into())
            .spawn(move || worker.run())
            .expect("spawning log-writer thread");
        GroupCommitter {
            shared,
            stats,
            handle: Mutex::new(Some(handle)),
            mode,
        }
    }

    pub fn mode(&self) -> CommitMode {
        self.mode
    }

    /// Block until the queue has room (or the committer is dead/stopping —
    /// then the subsequent submit reports the real error). Called *before*
    /// the table write lock so back-pressure never blocks readers; the
    /// bound is soft because several writers may pass the gate together.
    pub fn wait_for_space(&self) {
        let mut state = self.shared.state.lock();
        while state.queue.len() >= QUEUE_CAPACITY && state.dead.is_none() && !state.shutdown {
            state = self.shared.space.wait(state);
        }
    }

    fn dead_error(e: &FedError) -> FedError {
        FedError::shutdown(format!("log writer is dead: {}", e.message))
    }

    /// Enqueue an encoded statement. Returns the cell to block on for
    /// durability, or `None` in async mode (acked at enqueue). Call with
    /// the table write lock held; wait on the cell *after* releasing it.
    pub fn submit(&self, txn: TxnId, bytes: Vec<u8>) -> FedResult<Option<CommitTicket>> {
        let mut state = self.shared.state.lock();
        if let Some(e) = &state.dead {
            return Err(Self::dead_error(e));
        }
        if state.shutdown {
            return Err(FedError::shutdown("log writer is shutting down"));
        }
        let waiter = if matches!(self.mode, CommitMode::Async { .. }) {
            None
        } else {
            Some(Arc::new(WaitCell::default()))
        };
        state.queue.push_back(Submission {
            payload: Payload::Statement { txn, bytes },
            waiter: waiter.clone(),
        });
        drop(state);
        self.shared.work.notify_all();
        Ok(waiter.map(|cell| CommitTicket { cell }))
    }

    /// Durability barrier: returns once everything submitted before the
    /// call is on disk (forces a sync even in async mode).
    pub fn flush(&self) -> FedResult<()> {
        let cell = Arc::new(WaitCell::default());
        {
            let mut state = self.shared.state.lock();
            if let Some(e) = &state.dead {
                return Err(Self::dead_error(e));
            }
            if state.shutdown {
                return Err(FedError::shutdown("log writer is shutting down"));
            }
            state.queue.push_back(Submission {
                payload: Payload::Flush,
                waiter: Some(Arc::clone(&cell)),
            });
        }
        self.shared.work.notify_all();
        cell.wait()
    }

    /// Statements currently queued (not yet drained by the log writer).
    pub fn pending(&self) -> usize {
        self.shared
            .state
            .lock()
            .queue
            .iter()
            .filter(|s| matches!(s.payload, Payload::Statement { .. }))
            .count()
    }

    pub fn stats(&self) -> CommitStats {
        self.stats.snapshot()
    }
}

impl Drop for GroupCommitter {
    /// Clean shutdown drains the queue: every already-submitted statement
    /// is synced (and its waiter released) before the thread exits — a
    /// dropped database loses nothing it ever acked, and in async mode
    /// nothing it ever accepted.
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Handle a group-mode committer returns from submit: block on it after
/// releasing the table lock; `Ok` means the statement is on disk.
#[derive(Debug)]
pub struct CommitTicket {
    cell: Arc<WaitCell>,
}

impl CommitTicket {
    pub fn wait(&self) -> FedResult<()> {
        self.cell.wait()
    }
}

/// The log-writer thread body.
struct LogWriter {
    shared: Arc<CommitterShared>,
    stats: Arc<StatsCells>,
    sink: Arc<dyn LogSink>,
    mode: CommitMode,
    commit_epoch: Arc<AtomicU64>,
    /// Adaptive group-commit linger: whether the Phase-2 straggler wait is
    /// currently armed. Starts on; disarmed after `SOLO_DRAIN_DISARM`
    /// consecutive single-submission drains (a lone writer gains nothing
    /// from waiting, so the fixed linger would just tax its latency);
    /// re-armed the moment a drain catches ≥2 submissions, i.e. the
    /// arrival rate shows concurrent writers again.
    linger_on: bool,
    /// Consecutive drains that found exactly one submission.
    solo_drains: u32,
}

/// Single-submission drains tolerated before the group linger disarms.
const SOLO_DRAIN_DISARM: u32 = 2;

/// Adapt the group-commit linger to the observed arrival rate, given how
/// many submissions the drain just took. Back-to-back solo drains mean a
/// single writer is paying the full wait for nothing — turn the linger
/// off; any multi-submission drain means batching is earning its keep
/// again — turn it back on.
fn adapt_linger(linger_on: &mut bool, solo_drains: &mut u32, take: usize) {
    if take >= 2 {
        *solo_drains = 0;
        *linger_on = true;
    } else if take == 1 {
        *solo_drains = solo_drains.saturating_add(1);
        if *solo_drains >= SOLO_DRAIN_DISARM {
            *linger_on = false;
        }
    }
}

impl LogWriter {
    fn run(mut self) {
        let mut unsynced = false;
        loop {
            let batch = match self.next_batch(&mut unsynced) {
                Some(batch) => batch,
                None => {
                    // Shutdown with an empty queue: leave nothing buffered.
                    if unsynced {
                        let _ = self.sink.sync();
                    }
                    return;
                }
            };
            self.process(batch, &mut unsynced);
        }
    }

    /// Wait for work, then drain a batch. Group mode lingers up to
    /// `max_wait_us` for stragglers once it has at least one submission and
    /// caps the batch at `max_batch` — unless recent drains show a lone
    /// writer, in which case the linger is skipped until concurrency
    /// returns; async mode syncs on its cadence while idle. Returns `None`
    /// on shutdown with an empty queue.
    fn next_batch(&mut self, unsynced: &mut bool) -> Option<Vec<Submission>> {
        let mut state = self.shared.state.lock();
        // Phase 1: wait for at least one submission (or shutdown).
        loop {
            if !state.queue.is_empty() {
                break;
            }
            if state.shutdown {
                return None;
            }
            match self.mode {
                CommitMode::Async { flush_interval_us } => {
                    let (g, timed_out) = self
                        .shared
                        .work
                        .wait_timeout(state, Duration::from_micros(flush_interval_us.max(1)));
                    state = g;
                    if timed_out && *unsynced {
                        drop(state);
                        if self.sink.sync().is_ok() {
                            *unsynced = false;
                            self.stats.syncs.fetch_add(1, Ordering::Relaxed);
                        }
                        state = self.shared.state.lock();
                    }
                }
                _ => state = self.shared.work.wait(state),
            }
        }
        // Phase 2 (group): linger briefly so concurrent writers that are a
        // hair behind still make this sync.
        let max_batch = if let CommitMode::Group {
            max_wait_us,
            max_batch,
        } = self.mode
        {
            if max_wait_us > 0 && self.linger_on {
                let deadline = Instant::now() + Duration::from_micros(max_wait_us);
                while state.queue.len() < max_batch && !state.shutdown {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (g, timed_out) = self.shared.work.wait_timeout(state, deadline - now);
                    state = g;
                    if timed_out {
                        break;
                    }
                }
            }
            max_batch.max(1)
        } else {
            usize::MAX
        };
        let take = state.queue.len().min(max_batch);
        let batch: Vec<Submission> = state.queue.drain(..take).collect();
        drop(state);
        self.shared.space.notify_all();
        adapt_linger(&mut self.linger_on, &mut self.solo_drains, take);
        Some(batch)
    }

    fn process(&self, batch: Vec<Submission>, unsynced: &mut bool) {
        // A dead committer fails everything immediately.
        let dead = self.shared.state.lock().dead.clone();
        if let Some(e) = dead {
            let err = GroupCommitter::dead_error(&e);
            for sub in &batch {
                if let Some(w) = &sub.waiter {
                    w.complete(Err(err.clone()));
                }
            }
            return;
        }

        let mut bytes = Vec::new();
        let mut statements = 0u64;
        let mut last_txn = None;
        let mut has_flush = false;
        for sub in &batch {
            match &sub.payload {
                Payload::Statement { txn, bytes: b } => {
                    bytes.extend_from_slice(b);
                    statements += 1;
                    last_txn = Some(*txn);
                }
                Payload::Flush => has_flush = true,
            }
        }

        let result = self.write_batch(&bytes, has_flush, unsynced);
        match result {
            Ok(()) => {
                if statements > 0 {
                    self.stats.record_batch(statements);
                    // Publish visibility only now that the bytes are as
                    // durable as the mode promises, in enqueue order.
                    if let Some(txn) = last_txn {
                        if !matches!(self.mode, CommitMode::Async { .. }) {
                            self.commit_epoch.fetch_max(txn, Ordering::Release);
                        }
                    }
                }
                for sub in &batch {
                    if let Some(w) = &sub.waiter {
                        w.complete(Ok(()));
                    }
                }
            }
            Err(e) => {
                {
                    let mut state = self.shared.state.lock();
                    state.dead = Some(e.clone());
                }
                // Wake producers parked on back-pressure so they observe
                // the death instead of hanging.
                self.shared.space.notify_all();
                let err = GroupCommitter::dead_error(&e);
                for sub in &batch {
                    if let Some(w) = &sub.waiter {
                        w.complete(Err(err.clone()));
                    }
                }
            }
        }
    }

    /// One contiguous append for the whole batch, plus the mode's sync:
    /// immediate for group mode, cadence-driven (or flush-forced) for async.
    fn write_batch(&self, bytes: &[u8], has_flush: bool, unsynced: &mut bool) -> FedResult<()> {
        if !bytes.is_empty() {
            self.sink.append_nosync(bytes)?;
            *unsynced = true;
        }
        let sync_now = match self.mode {
            CommitMode::Async { .. } => has_flush,
            _ => true,
        };
        if sync_now && *unsynced {
            self.sink.sync()?;
            *unsynced = false;
            self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Durability bundle.
// ---------------------------------------------------------------------------

/// The persistence pair a durable [`crate::Database`] writes through: a WAL
/// for redo and a snapshot slot for checkpoints, plus the [`CommitMode`]
/// governing how commits are acknowledged.
#[derive(Debug)]
pub struct Durability {
    pub wal: Wal,
    pub snapshots: Arc<dyn SnapshotStore>,
    pub mode: CommitMode,
}

impl Durability {
    /// File-backed durability inside `dir` (created if missing):
    /// `dir/wal.log` and `dir/snapshot.bin`. Commit mode defaults to
    /// [`CommitMode::Sync`]; chain [`Durability::with_commit_mode`].
    pub fn at_path(dir: impl AsRef<Path>) -> FedResult<Durability> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating database dir", dir, e))?;
        Ok(Durability {
            wal: Wal::new(Arc::new(FileSink::open(dir.join("wal.log"))?)),
            snapshots: Arc::new(FileSnapshots::new(dir.join("snapshot.bin"))),
            mode: CommitMode::Sync,
        })
    }

    /// In-memory durability over the given shared sinks — the test harness
    /// keeps the `Arc`s, drops the database, and reopens to simulate a
    /// crash.
    pub fn in_memory(log: Arc<MemorySink>, snapshots: Arc<MemorySnapshots>) -> Durability {
        Durability {
            wal: Wal::new(log),
            snapshots,
            mode: CommitMode::Sync,
        }
    }

    /// Select how commits are acknowledged (see [`CommitMode`]).
    pub fn with_commit_mode(mut self, mode: CommitMode) -> Durability {
        self.mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::DataType;

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
        wal.append_statement(1, &sample_records()[..2]).unwrap();
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
        wal.append_statement(1, &sample_records()[..1]).unwrap();
        wal.append_statement(2, &sample_records()[1..3]).unwrap();
        sink.tear_tail(5); // rip into statement 2's commit marker
        let replay = wal.replay().unwrap();
        assert_eq!(replay.statements.len(), 1, "statement 2 lost its marker");
        assert!(replay.discarded_tail);
    }

    #[test]
    fn replay_stops_at_corrupt_frame() {
        let sink = MemorySink::new();
        let wal = Wal::new(sink.clone());
        wal.append_statement(1, &sample_records()[..1]).unwrap();
        let stmt1_len = sink.len();
        wal.append_statement(2, &sample_records()[..1]).unwrap();
        sink.corrupt_byte(stmt1_len + 10);
        let replay = wal.replay().unwrap();
        assert_eq!(replay.statements.len(), 1);
        assert_eq!(replay.committed_len, stmt1_len as u64);
    }

    #[test]
    fn truncating_the_reported_tail_makes_the_log_clean() {
        let sink = MemorySink::new();
        let wal = Wal::new(sink.clone());
        wal.append_statement(1, &sample_records()[..2]).unwrap();
        wal.append_statement(2, &sample_records()[..1]).unwrap();
        sink.tear_tail(3);
        let replay = wal.replay().unwrap();
        wal.truncate_to(replay.committed_len).unwrap();
        // Appending after the truncation yields a fully clean log again.
        wal.append_statement(2, &sample_records()[..1]).unwrap();
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
            self.append_nosync(bytes)
        }
        fn append_nosync(&self, bytes: &[u8]) -> FedResult<()> {
            if self.broken.load(Ordering::Relaxed) {
                return Err(FedError::storage("disk on fire"));
            }
            self.inner.append(bytes)
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
        let epoch = Arc::new(AtomicU64::new(0));
        let gc = GroupCommitter::start(
            sink.clone() as Arc<dyn LogSink>,
            CommitMode::group(),
            Arc::clone(&epoch),
        );
        let mut tickets = vec![];
        for txn in 1..=8u64 {
            let bytes = Wal::encode_statement(txn, &sample_records()[..1]);
            tickets.push(gc.submit(txn, bytes).unwrap().expect("group mode waits"));
        }
        for t in &tickets {
            t.wait().unwrap();
        }
        assert_eq!(epoch.load(Ordering::Acquire), 8);
        let wal = Wal::new(sink as Arc<dyn LogSink>);
        let replay = wal.replay().unwrap();
        let txns: Vec<TxnId> = replay.statements.iter().map(|(t, _)| *t).collect();
        assert_eq!(txns, (1..=8).collect::<Vec<_>>(), "log order == txn order");
        let stats = gc.stats();
        assert_eq!(stats.commits, 8);
        assert!(stats.syncs >= 1 && stats.syncs <= stats.commits);
    }

    #[test]
    fn linger_adapts_to_arrival_rate() {
        let (mut on, mut solo) = (true, 0u32);
        // Two consecutive solo drains disarm the straggler wait…
        adapt_linger(&mut on, &mut solo, 1);
        assert!(on, "one solo drain is not yet a pattern");
        adapt_linger(&mut on, &mut solo, 1);
        assert!(!on, "a lone writer must stop paying the linger");
        adapt_linger(&mut on, &mut solo, 1);
        assert!(!on);
        // …and the first drain that catches a group re-arms it.
        adapt_linger(&mut on, &mut solo, 2);
        assert!(on, "concurrent arrivals re-arm the linger");
        // Flush-only drains (take == 0 cannot happen; empty batches are
        // guarded by Phase 1) leave the state alone.
        adapt_linger(&mut on, &mut solo, 0);
        assert!(on);
    }

    #[test]
    fn lone_writer_group_commit_sheds_the_linger() {
        let sink = MemorySink::new();
        let epoch = Arc::new(AtomicU64::new(0));
        let gc = GroupCommitter::start(
            sink.clone() as Arc<dyn LogSink>,
            CommitMode::Group {
                max_wait_us: 200,
                max_batch: 128,
            },
            Arc::clone(&epoch),
        );
        // A lone writer commits strictly back to back: every drain takes
        // exactly one submission, so after two drains the 200 µs linger
        // must disarm and later commits complete at handoff speed.
        let mut latencies = vec![];
        for txn in 1..=40u64 {
            let start = Instant::now();
            gc.submit(txn, Wal::encode_statement(txn, &sample_records()[..1]))
                .unwrap()
                .expect("group mode waits")
                .wait()
                .unwrap();
            latencies.push(start.elapsed());
        }
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_micros(150),
            "single-writer group commit still pays the full 200 µs linger: median {median:?}"
        );
        assert_eq!(gc.stats().commits, 40);
        assert_eq!(epoch.load(Ordering::Acquire), 40);
    }

    #[test]
    fn dead_committer_fails_current_and_later_commits() {
        let sink = Arc::new(FlakySink::default());
        let epoch = Arc::new(AtomicU64::new(0));
        let gc = GroupCommitter::start(
            Arc::clone(&sink) as Arc<dyn LogSink>,
            CommitMode::group(),
            Arc::clone(&epoch),
        );
        sink.broken.store(true, Ordering::Relaxed);
        let t = gc
            .submit(1, Wal::encode_statement(1, &sample_records()[..1]))
            .unwrap()
            .unwrap();
        let err = t.wait().unwrap_err();
        assert!(err.is_shutdown(), "commit on a dying sink: {err}");
        assert_eq!(epoch.load(Ordering::Acquire), 0, "no visibility published");
        // Later submissions are rejected at the door.
        let err = gc
            .submit(2, Wal::encode_statement(2, &sample_records()[..1]))
            .unwrap_err();
        assert!(err.is_shutdown());
        assert!(gc.flush().unwrap_err().is_shutdown());
    }

    #[test]
    fn async_committer_acks_immediately_and_flush_forces_durability() {
        let sink = MemorySink::new();
        let epoch = Arc::new(AtomicU64::new(0));
        let gc = GroupCommitter::start(
            sink.clone() as Arc<dyn LogSink>,
            CommitMode::Async {
                flush_interval_us: 60_000_000, // park the cadence; flush drives it
            },
            Arc::clone(&epoch),
        );
        for txn in 1..=4u64 {
            let ticket = gc
                .submit(txn, Wal::encode_statement(txn, &sample_records()[..1]))
                .unwrap();
            assert!(ticket.is_none(), "async mode acks at enqueue");
        }
        gc.flush().unwrap();
        let wal = Wal::new(sink as Arc<dyn LogSink>);
        assert_eq!(wal.replay().unwrap().statements.len(), 4);
    }

    #[test]
    fn dropping_the_committer_drains_the_queue() {
        let sink = MemorySink::new();
        let epoch = Arc::new(AtomicU64::new(0));
        let gc = GroupCommitter::start(
            sink.clone() as Arc<dyn LogSink>,
            CommitMode::asynchronous(),
            Arc::clone(&epoch),
        );
        for txn in 1..=3u64 {
            gc.submit(txn, Wal::encode_statement(txn, &sample_records()[..1]))
                .unwrap();
        }
        drop(gc);
        let wal = Wal::new(sink as Arc<dyn LogSink>);
        assert_eq!(
            wal.replay().unwrap().statements.len(),
            3,
            "clean shutdown loses nothing it accepted"
        );
    }

    #[test]
    fn file_sink_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fedwf-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Durability::at_path(&dir).unwrap();
        d.wal.append_statement(1, &sample_records()[..2]).unwrap();
        d.snapshots.store(b"snapshot-bytes").unwrap();
        let replay = d.wal.replay().unwrap();
        assert_eq!(replay.statements.len(), 1);
        assert_eq!(d.snapshots.load().unwrap().unwrap(), b"snapshot-bytes");
        d.wal.truncate().unwrap();
        assert_eq!(d.wal.replay().unwrap().statements.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
