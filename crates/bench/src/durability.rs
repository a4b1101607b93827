//! E16 — what durability costs and what recovery buys.
//!
//! Four questions, each answered against the same synthetic table:
//!
//! 1. **Write amplification** — single-writer insert throughput with the
//!    WAL on versus a plain in-memory database, on both a memory sink
//!    (isolates the commit protocol: encode the redo records, CRC-frame
//!    them, submit, lead a batch of one, bump the epoch) and a file sink
//!    (adds the `fdatasync` per commit that makes the statement actually
//!    durable — expect orders of magnitude, that is the price of the D in
//!    ACID).
//! 2. **Read-path tax** — scan throughput through an epoch-pinned snapshot
//!    read versus the live view, both pulled through the streaming
//!    executor's cursor (`Database::scan_chunk_columnar`, 256-row chunks).
//!    The MVCC version chains sit on the scan's hot path, so this bounds
//!    what every reader pays for writers never blocking them. The two
//!    loops alternate within each round and each keeps its best round.
//!    The acceptance bar is snapshot reads within 15% of the in-memory
//!    scan (a ratio of two ~20 ns/row loops; it moves several points with
//!    binary layout alone).
//! 3. **Contended commit** — 8 writer threads on one durable database:
//!    the statements that arrive while one batch syncs share the next
//!    `fdatasync`, so the per-row cost falls below the single writer's.
//! 4. **Recovery latency** — `Database::open_with` wall time as a function
//!    of WAL length, measured on logs of growing statement counts. Replay
//!    is linear in the log, so the interesting number is the per-statement
//!    slope (and that a checkpoint resets it).

use std::sync::Arc;
use std::time::Duration;

use fedwf_relstore::{CommitStats, Database, Durability, MemorySink, MemorySnapshots, Predicate};
use fedwf_sim::WallClock;
use fedwf_types::{DataType, Row, Schema, Value};

const TABLE: &str = "Events";

fn schema() -> Arc<Schema> {
    Arc::new(Schema::of(&[
        ("id", DataType::Int),
        ("payload", DataType::Varchar),
    ]))
}

fn row(i: i32) -> Row {
    Row::new(vec![Value::Int(i), Value::str("payload-payload-payload")])
}

fn mem_db() -> Database {
    let db = Database::new("e16");
    db.create_table(TABLE, schema()).unwrap();
    db
}

fn wal_db() -> Database {
    let db = Database::open_with(
        "e16",
        Durability::in_memory(MemorySink::new(), MemorySnapshots::new()),
    )
    .unwrap();
    db.create_table(TABLE, schema()).unwrap();
    db
}

fn file_db(dir: &std::path::Path) -> Database {
    let db = Database::open(dir).unwrap();
    if db.scan_all(TABLE).is_err() {
        db.create_table(TABLE, schema()).unwrap();
    }
    db
}

/// Best-of-`rounds` wall time of `f`, the standard defence against
/// scheduler noise on short windows.
fn best_of(rounds: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..rounds).map(|_| f()).min().expect("rounds > 0")
}

/// One insert-throughput side: `rows` single-row statements into a fresh
/// database built by `make`.
fn insert_side(rows: i32, make: &dyn Fn() -> Database) -> Duration {
    let db = make();
    let clock = WallClock::start();
    for i in 0..rows {
        db.insert(TABLE, row(i)).unwrap();
    }
    clock.elapsed()
}

/// Insert throughput: in-memory vs memory-sink WAL vs file-sink WAL.
#[derive(Debug, Clone)]
pub struct InsertThroughputRow {
    pub rows: i32,
    pub in_memory: Duration,
    pub wal_memory: Duration,
    pub wal_file: Duration,
}

impl InsertThroughputRow {
    /// Wall time per row of the file-sink run, in µs: the lone writer's
    /// cost of one durable commit.
    pub fn wal_file_us_per_row(&self) -> f64 {
        self.wal_file.as_nanos() as f64 / self.rows as f64 / 1000.0
    }

    /// Multiplier of the WAL-on file run over the in-memory run.
    pub fn file_slowdown(&self) -> f64 {
        self.wal_file.as_secs_f64() / self.in_memory.as_secs_f64().max(1e-9)
    }

    pub fn render(&self) -> String {
        let per = |d: Duration| d.as_nanos() as f64 / self.rows as f64 / 1000.0;
        format!(
            "insert x{:<6} mem {:>7.2} us/row   wal(mem) {:>7.2} us/row   wal(file) {:>7.2} us/row   ({:.2}x)",
            self.rows,
            per(self.in_memory),
            per(self.wal_memory),
            per(self.wal_file),
            self.file_slowdown()
        )
    }
}

pub fn insert_throughput(rows: i32, rounds: usize) -> InsertThroughputRow {
    let dir = scratch_dir("insert");
    let in_memory = best_of(rounds, || insert_side(rows, &mem_db));
    let wal_memory = best_of(rounds, || insert_side(rows, &wal_db));
    let wal_file = best_of(rounds, || {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        insert_side(rows, &|| file_db(&dir))
    });
    std::fs::remove_dir_all(&dir).ok();
    InsertThroughputRow {
        rows,
        in_memory,
        wal_memory,
        wal_file,
    }
}

/// Scan throughput: live view vs epoch-pinned snapshot read over version
/// chains left behind by an update pass.
#[derive(Debug, Clone)]
pub struct ScanThroughputRow {
    pub rows: i32,
    pub scans: usize,
    pub live: Duration,
    pub snapshot: Duration,
}

impl ScanThroughputRow {
    /// Snapshot-read cost relative to the live scan, in percent overhead.
    pub fn snapshot_overhead_pct(&self) -> f64 {
        (self.snapshot.as_secs_f64() / self.live.as_secs_f64().max(1e-9) - 1.0) * 100.0
    }

    pub fn render(&self) -> String {
        format!(
            "scan   x{:<6} live {:>8} us   snapshot {:>8} us   overhead {:>5.1}%",
            self.scans,
            self.live.as_micros(),
            self.snapshot.as_micros(),
            self.snapshot_overhead_pct()
        )
    }
}

pub fn scan_throughput(rows: i32, scans: usize, rounds: usize) -> ScanThroughputRow {
    let db = mem_db();
    db.insert_all(TABLE, (0..rows).map(row).collect()).unwrap();
    // Pin the pristine epoch, then overwrite every row so the snapshot
    // read has to walk past a newer version on every slot.
    let epoch = db.snapshot_epoch();
    db.update_where(TABLE, &Predicate::True, "payload", Value::str("v2"))
        .unwrap();
    let live_epoch = db.snapshot_epoch();

    let run = |at| {
        let clock = WallClock::start();
        for _ in 0..scans {
            let mut cursor = Some(0);
            let mut n = 0usize;
            while let Some(start) = cursor {
                let (batch, next) = db
                    .scan_chunk_columnar(TABLE, &Predicate::True, None, start, 256, at)
                    .unwrap();
                n += batch.len();
                cursor = next;
            }
            assert_eq!(n, rows as usize);
        }
        clock.elapsed()
    };
    // The two loops alternate within each round, the side that leads
    // alternating too, so a drift of the host (clock, a neighbour's load)
    // lands on both alike; each side keeps its best round.
    let (mut live, mut snapshot) = (Duration::MAX, Duration::MAX);
    for round in 0..rounds {
        for side in [round % 2, 1 - round % 2] {
            if side == 0 {
                live = live.min(run(live_epoch));
            } else {
                snapshot = snapshot.min(run(epoch));
            }
        }
    }
    ScanThroughputRow {
        rows,
        scans,
        live,
        snapshot,
    }
}

/// Recovery time for a WAL holding `statements` single-row inserts.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    pub statements: i32,
    pub log_bytes: usize,
    pub recovery: Duration,
    /// Same log after a checkpoint: recovery replays (almost) nothing.
    pub recovery_after_checkpoint: Duration,
}

impl RecoveryRow {
    pub fn render(&self) -> String {
        format!(
            "recover x{:<6} log {:>8} B   replay {:>7} us   after checkpoint {:>6} us",
            self.statements,
            self.log_bytes,
            self.recovery.as_micros(),
            self.recovery_after_checkpoint.as_micros()
        )
    }
}

pub fn recovery_time(statements: i32, rounds: usize) -> RecoveryRow {
    let log = MemorySink::new();
    let snaps = MemorySnapshots::new();
    let durability = || Durability::in_memory(Arc::clone(&log), Arc::clone(&snaps));
    {
        let db = Database::open_with("e16", durability()).unwrap();
        db.create_table(TABLE, schema()).unwrap();
        for i in 0..statements {
            db.insert(TABLE, row(i)).unwrap();
        }
    }
    let log_bytes = log.len();
    let recovery = best_of(rounds, || {
        let clock = WallClock::start();
        let db = Database::open_with("e16", durability()).unwrap();
        assert_eq!(db.scan_all(TABLE).unwrap().row_count(), statements as usize);
        clock.elapsed()
    });
    // Checkpoint once; recovery now loads the snapshot and replays an
    // empty tail.
    Database::open_with("e16", durability())
        .unwrap()
        .checkpoint()
        .unwrap();
    let recovery_after_checkpoint = best_of(rounds, || {
        let clock = WallClock::start();
        let db = Database::open_with("e16", durability()).unwrap();
        assert_eq!(db.scan_all(TABLE).unwrap().row_count(), statements as usize);
        clock.elapsed()
    });
    RecoveryRow {
        statements,
        log_bytes,
        recovery,
        recovery_after_checkpoint,
    }
}

/// One contended-commit side: `writers` threads each insert `per_writer`
/// distinct rows through a shared durable database built by `make`. Every
/// insert is durable when it returns, so the timed window ends at the
/// last join.
fn contended_side(
    writers: usize,
    per_writer: i32,
    make: &dyn Fn() -> Database,
) -> (Duration, CommitStats) {
    let db = Arc::new(make());
    let clock = WallClock::start();
    let threads: Vec<_> = (0..writers)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let base = w as i32 * 1_000_000;
                for i in 0..per_writer {
                    db.insert(TABLE, row(base + i)).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = clock.elapsed();
    assert_eq!(
        db.scan_all(TABLE).unwrap().row_count(),
        writers * per_writer as usize
    );
    let stats = db
        .commit_stats()
        .expect("a durable database counts commits");
    (elapsed, stats)
}

/// Best-of-`rounds` contended run, keeping the stats of the best round.
fn best_contended(
    rounds: usize,
    writers: usize,
    per_writer: i32,
    reset: &dyn Fn(),
    make: &dyn Fn() -> Database,
) -> (Duration, CommitStats) {
    let mut best: Option<(Duration, CommitStats)> = None;
    for _ in 0..rounds {
        reset();
        let run = contended_side(writers, per_writer, make);
        if best.as_ref().is_none_or(|b| run.0 < b.0) {
            best = Some(run);
        }
    }
    best.expect("rounds > 0")
}

/// Contended commit: N writer threads hammering one durable database. This
/// is the workload group commit exists for: while one writer syncs a
/// batch, the others submit behind it, and the next of them to wait writes
/// all of their statements with one append and one `fdatasync`.
#[derive(Debug, Clone)]
pub struct ContendedCommitRow {
    pub writers: usize,
    pub per_writer: i32,
    /// File sink: real appends and `fdatasync`s.
    pub file: Duration,
    /// Memory sink: the commit protocol with the disk taken out.
    pub memory: Duration,
    /// Commit counters from the best file-sink round.
    pub stats: CommitStats,
}

impl ContendedCommitRow {
    fn us_per_row(&self, d: Duration) -> f64 {
        d.as_nanos() as f64 / (self.writers as f64 * self.per_writer as f64) / 1000.0
    }

    /// Wall time per committed row of the file-sink run, in µs.
    pub fn file_us_per_row(&self) -> f64 {
        self.us_per_row(self.file)
    }

    /// Statements each `fdatasync` made durable, on average.
    pub fn statements_per_sync(&self) -> f64 {
        self.stats.commits as f64 / self.stats.syncs.max(1) as f64
    }

    pub fn render(&self) -> String {
        format!(
            "commit {}wx{:<5} wal(file) {:>7.2} us/row   wal(mem) {:>6.2} us/row   [{:.1} statements per sync, max batch {}]",
            self.writers,
            self.per_writer,
            self.file_us_per_row(),
            self.us_per_row(self.memory),
            self.statements_per_sync(),
            self.stats.max_batch
        )
    }
}

pub fn contended_commit(writers: usize, per_writer: i32, rounds: usize) -> ContendedCommitRow {
    let dir = scratch_dir("contended");
    let reset_dir = || {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
    };
    let (file, stats) = best_contended(rounds, writers, per_writer, &reset_dir, &|| file_db(&dir));
    let (memory, _) = best_contended(rounds, writers, per_writer, &|| {}, &wal_db);
    std::fs::remove_dir_all(&dir).ok();
    ContendedCommitRow {
        writers,
        per_writer,
        file,
        memory,
        stats,
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fedwf-e16-{tag}-{}", std::process::id()))
}

/// The full E16 sweep at a given scale.
pub struct E16 {
    pub insert: InsertThroughputRow,
    pub scan: ScanThroughputRow,
    pub contended: ContendedCommitRow,
    pub recovery: Vec<RecoveryRow>,
}

pub fn run_e16(quick: bool) -> E16 {
    let (rows, scans, rounds) = if quick {
        (2_000, 40, 3)
    } else {
        (20_000, 200, 5)
    };
    let (writers, per_writer, commit_rounds) = if quick { (8, 25, 2) } else { (8, 200, 3) };
    let recovery_sizes: &[i32] = if quick {
        &[500, 2_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    E16 {
        insert: insert_throughput(rows, rounds),
        scan: scan_throughput(rows, scans, rounds),
        contended: contended_commit(writers, per_writer, commit_rounds),
        recovery: recovery_sizes
            .iter()
            .map(|&n| recovery_time(n, rounds))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_scan_close_to_live_scan() {
        // Correctness-shaped smoke test at a tiny scale: the snapshot read
        // returns the pinned version and the harness plumbing works. The
        // 15% throughput bar is checked by the bench binary where the
        // windows are long enough to mean something.
        let row = scan_throughput(500, 10, 3);
        assert!(row.live.as_nanos() > 0 && row.snapshot.as_nanos() > 0);
    }

    #[test]
    fn recovery_scales_with_log_and_checkpoint_resets_it() {
        let small = recovery_time(50, 2);
        let big = recovery_time(1_000, 2);
        assert!(big.log_bytes > small.log_bytes);
        assert!(
            big.recovery_after_checkpoint < big.recovery,
            "checkpoint must shorten replay: {big:?}"
        );
    }

    #[test]
    fn wal_insert_path_works_end_to_end() {
        let row = insert_throughput(200, 2);
        assert!(row.wal_memory >= Duration::ZERO && row.wal_file.as_nanos() > 0);
    }

    #[test]
    fn contended_commit_lands_every_row_on_both_sinks() {
        // contended_side asserts the row count per run; here we only need
        // the harness to survive both sinks and report stats.
        let row = contended_commit(4, 10, 1);
        assert!(row.file.as_nanos() > 0 && row.memory.as_nanos() > 0);
        // 40 inserts + 1 CREATE TABLE all went through the committer.
        assert_eq!(row.stats.commits, 41);
        assert_eq!(row.stats.batches, row.stats.syncs);
        assert!(row.stats.syncs <= row.stats.commits);
    }
}
