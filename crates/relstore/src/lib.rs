//! # fedwf-relstore
//!
//! An embedded relational storage engine. It plays two roles in the
//! reproduction:
//!
//! 1. the databases *inside* the simulated application systems (stock
//!    keeping, purchasing, product data management) — each system owns a
//!    private [`Database`] that its predefined local functions query;
//! 2. the SQL sources federated by the FDBS — each remote SQL source is a
//!    `Database` behind a wrapper that accepts pushed-down subqueries.
//!
//! The engine offers typed heap tables with slot-stable row ids, unique and
//! secondary B-tree indexes kept consistent through inserts / updates /
//! deletes, predicate scans with index selection, per-table statistics for
//! the FDBS optimizer, MVCC row-version chains for lock-free snapshot
//! reads, and optional durability through a CRC-framed write-ahead log
//! plus checkpoint snapshots (see [`wal`]).

#![forbid(unsafe_code)]

pub mod database;
pub mod index;
pub mod predicate;
pub mod table;
pub mod wal;

pub use database::Database;
pub use index::{Index, IndexKind};
pub use predicate::{CmpOp, Predicate};
pub use table::{RowId, ScanChunk, StoredTable, TableStats, UndoLog};
pub use wal::{
    CommitStats, Durability, FileSink, FileSnapshots, GroupCommitter, LogSink, MemorySink,
    MemorySnapshots, OsFs, Replay, SimFs, SnapshotFs, SnapshotStore, Wal, WalRecord,
};
