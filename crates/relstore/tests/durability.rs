//! Crash-recovery and snapshot-isolation suite.
//!
//! The recovery invariant under test: after a crash (simulated by dropping
//! the database while keeping its `Arc`-shared in-memory log and snapshot
//! store, optionally ripping bytes off the log tail), reopening yields
//! exactly the state after some *prefix of committed statements* — every
//! statement whose commit marker survived is fully visible, no failed or
//! torn statement leaves any trace (rows, row-id allocation, or index
//! entries), and the cut never lands mid-statement.
//!
//! The snapshot-isolation half: a reader that pins an epoch sees one
//! consistent version of the table no matter how many statements commit
//! while it scans.

use std::sync::Arc;

use fedwf_relstore::{
    Database, Durability, IndexKind, LogSink, MemorySink, MemorySnapshots, Predicate,
    SnapshotStore, Wal, WalRecord,
};
use fedwf_types::rng::Rng;
use fedwf_types::{check, Column, DataType, Row, Schema, Value};

const KEY_SPACE: i32 = 12;

fn open(log: &Arc<MemorySink>, snaps: &Arc<MemorySnapshots>) -> Database {
    Database::open_with(
        "crash",
        Durability::in_memory(Arc::clone(log), Arc::clone(snaps)),
    )
    .expect("recovery")
}

fn fresh(log: &Arc<MemorySink>, snaps: &Arc<MemorySnapshots>) -> Database {
    let db = open(log, snaps);
    db.create_table(
        "T",
        Arc::new(Schema::of(&[("k", DataType::Int), ("v", DataType::Int)])),
    )
    .unwrap();
    db.create_index("T", "pk", "k", IndexKind::Unique).unwrap();
    db
}

/// Slot-ordered oracle of the table: `None` is a deleted (or never
/// committed) slot. Mirrors exactly what a committed-prefix replay must
/// reconstruct, including row-id allocation.
#[derive(Debug, Clone, PartialEq, Default)]
struct Oracle {
    slots: Vec<Option<(i32, i32)>>,
}

impl Oracle {
    fn live(&self) -> Vec<(i32, i32)> {
        self.slots.iter().filter_map(|s| *s).collect()
    }

    fn has_key(&self, k: i32) -> bool {
        self.slots.iter().any(|s| s.map(|(sk, _)| sk) == Some(k))
    }

    fn assert_matches(&self, db: &Database) {
        let t = db.scan_all("T").unwrap();
        let got: Vec<(i32, i32)> = t
            .rows()
            .iter()
            .map(|r| {
                let v = r.values();
                match (&v[0], &v[1]) {
                    (Value::Int(k), Value::Int(x)) => (*k, *x),
                    other => panic!("unexpected row {other:?}"),
                }
            })
            .collect();
        assert_eq!(got, self.live(), "recovered rows diverge from the oracle");
        // The unique index must probe exactly the live keys.
        for k in 0..KEY_SPACE {
            let hits = db
                .scan_project("T", &Predicate::eq(0, Value::Int(k)), None)
                .unwrap()
                .row_count();
            assert_eq!(
                hits,
                self.has_key(k) as usize,
                "index probe for key {k} disagrees with the oracle"
            );
        }
    }
}

/// Apply one random statement to both the database and the oracle; the
/// oracle changes only when the statement commits. Returns whether the
/// statement committed.
fn random_statement(rng: &mut Rng, db: &Database, oracle: &mut Oracle) -> bool {
    match rng.next_below(10) {
        // Single insert; fails (and must leave nothing) on duplicate key.
        0..=3 => {
            let k = rng.range_i32(0, KEY_SPACE - 1);
            let v = rng.range_i32(0, 999);
            let res = db.insert("T", Row::new(vec![Value::Int(k), Value::Int(v)]));
            if oracle.has_key(k) {
                assert!(res.is_err(), "duplicate key {k} must be rejected");
                false
            } else {
                assert_eq!(res.unwrap() as usize, oracle.slots.len(), "row-id drift");
                oracle.slots.push(Some((k, v)));
                true
            }
        }
        // Bulk insert: all-or-nothing, may trip over itself or existing keys.
        4..=5 => {
            let n = rng.range_usize(2, 4);
            let batch: Vec<(i32, i32)> = (0..n)
                .map(|_| (rng.range_i32(0, KEY_SPACE - 1), rng.range_i32(0, 999)))
                .collect();
            let rows = batch
                .iter()
                .map(|(k, v)| Row::new(vec![Value::Int(*k), Value::Int(*v)]))
                .collect();
            let mut distinct = batch.clone();
            distinct.sort_unstable_by_key(|(k, _)| *k);
            distinct.dedup_by_key(|(k, _)| *k);
            let ok =
                distinct.len() == batch.len() && batch.iter().all(|(k, _)| !oracle.has_key(*k));
            let res = db.insert_all("T", rows);
            assert_eq!(res.is_ok(), ok, "batch {batch:?} vs oracle {oracle:?}");
            if ok {
                oracle.slots.extend(batch.into_iter().map(Some));
            }
            ok
        }
        // Point update of the payload column — always commits.
        6..=7 => {
            let k = rng.range_i32(0, KEY_SPACE - 1);
            let v = rng.range_i32(0, 999);
            let n = db
                .update_where("T", &Predicate::eq(0, k), "v", Value::Int(v))
                .unwrap();
            let mut hit = 0;
            for (sk, sv) in oracle.slots.iter_mut().flatten() {
                if *sk == k {
                    *sv = v;
                    hit += 1;
                }
            }
            assert_eq!(n, hit);
            n > 0
        }
        // Key update through the unique index; fails when the target key
        // is already taken by another row.
        8 => {
            let from = rng.range_i32(0, KEY_SPACE - 1);
            let to = rng.range_i32(0, KEY_SPACE - 1);
            let res = db.update_where("T", &Predicate::eq(0, from), "k", Value::Int(to));
            let ok = !oracle.has_key(from) || to == from || !oracle.has_key(to);
            assert_eq!(res.is_ok(), ok, "key move {from}->{to} vs {oracle:?}");
            if ok {
                for (sk, _) in oracle.slots.iter_mut().flatten() {
                    if *sk == from {
                        *sk = to;
                    }
                }
            }
            res.is_ok() && res.unwrap() > 0
        }
        // Point delete — always commits.
        _ => {
            let k = rng.range_i32(0, KEY_SPACE - 1);
            let n = db.delete_where("T", &Predicate::eq(0, k)).unwrap();
            let mut hit = 0;
            for slot in oracle.slots.iter_mut() {
                if slot.map(|(sk, _)| sk) == Some(k) {
                    *slot = None;
                    hit += 1;
                }
            }
            assert_eq!(n, hit);
            n > 0
        }
    }
}

/// Committed statements survive a clean crash (drop without checkpoint),
/// failed statements never surface, and occasional checkpoints do not
/// change what recovery sees.
#[test]
fn committed_statements_survive_any_crash_point() {
    check::cases(24, |rng| {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        let mut oracle = Oracle::default();
        {
            let db = fresh(&log, &snaps);
            for _ in 0..rng.range_usize(5, 30) {
                random_statement(rng, &db, &mut oracle);
                if rng.gen_bool(0.1) {
                    db.checkpoint().unwrap();
                }
            }
        } // crash
        let db = open(&log, &snaps);
        oracle.assert_matches(&db);
        // Recovery preserves row-id allocation: the next insert lands on
        // the next never-reused slot, exactly as the oracle predicts.
        let free = (0..KEY_SPACE).find(|k| !oracle.has_key(*k));
        if let Some(k) = free {
            let id = db
                .insert("T", Row::new(vec![Value::Int(k), Value::Int(-1)]))
                .unwrap();
            assert_eq!(
                id as usize,
                oracle.slots.len(),
                "row-id drift after recovery"
            );
        }
    });
}

/// Rip a random number of bytes off the WAL tail ("torn write mid
/// statement") — recovery must land exactly on a committed-statement
/// boundary: the newest boundary that still fits in the surviving bytes.
#[test]
fn torn_tail_recovers_to_a_statement_boundary() {
    check::cases(24, |rng| {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        // Boundary i = (log length, oracle) after the i-th committed DML.
        let mut boundaries: Vec<(usize, Oracle)> = Vec::new();
        {
            let db = fresh(&log, &snaps);
            let mut oracle = Oracle::default();
            boundaries.push((log.len(), oracle.clone()));
            for _ in 0..rng.range_usize(4, 16) {
                if random_statement(rng, &db, &mut oracle) {
                    boundaries.push((log.len(), oracle.clone()));
                }
            }
        } // crash
          // Tear anywhere in the DML region (cutting into the DDL prefix
          // would just lose the table, which the oracle cannot express).
        let ddl_len = boundaries[0].0;
        let torn = rng.range_usize(0, log.len() - ddl_len);
        log.tear_tail(torn);
        let surviving = log.len();
        let expected = boundaries
            .iter()
            .rev()
            .find(|(len, _)| *len <= surviving)
            .map(|(_, oracle)| oracle.clone())
            .expect("boundary 0 always fits");
        let db = open(&log, &snaps);
        expected.assert_matches(&db);
        // The torn tail was truncated at reopen: new statements commit and
        // survive the next crash.
        drop(db);
        let db = open(&log, &snaps);
        expected.assert_matches(&db);
    });
}

/// A reader that pins an epoch before a bulk update sees the pre-update
/// table on every chunk, even when the chunks are pulled *after* the
/// update committed — and concurrent writers never make any pinned reader
/// observe a half-updated (mixed-version) table.
#[test]
fn pinned_readers_never_see_mixed_versions() {
    const ROWS: i32 = 64;
    const ROUNDS: i32 = 40;
    let db = Arc::new(Database::new("mvcc"));
    db.create_table(
        "T",
        Arc::new(Schema::of(&[("k", DataType::Int), ("v", DataType::Int)])),
    )
    .unwrap();
    db.insert_all(
        "T",
        (0..ROWS)
            .map(|k| Row::new(vec![Value::Int(k), Value::Int(0)]))
            .collect(),
    )
    .unwrap();

    // Deterministic interleave first: pin, update, then pull every chunk.
    let epoch = db.snapshot_epoch();
    db.update_where("T", &Predicate::True, "v", Value::Int(-7))
        .unwrap();
    let mut cursor = Some(0);
    let mut seen = 0;
    while let Some(start) = cursor {
        let (batch, next) = db
            .scan_chunk_columnar("T", &Predicate::True, None, start, 7, epoch)
            .unwrap();
        for r in batch.to_rows() {
            assert_eq!(r.values()[1], Value::Int(0), "pinned reader saw the update");
            seen += 1;
        }
        cursor = next;
    }
    assert_eq!(seen, ROWS);

    // Threaded: one writer bumps every row to the round number, readers
    // re-pin and demand a uniform value per pinned scan.
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for round in 1..=ROUNDS {
                db.update_where("T", &Predicate::True, "v", Value::Int(round))
                    .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for _ in 0..60 {
                    let epoch = db.snapshot_epoch();
                    let mut values = Vec::with_capacity(ROWS as usize);
                    let mut cursor = Some(0);
                    while let Some(start) = cursor {
                        let (batch, next) = db
                            .scan_chunk_columnar("T", &Predicate::True, None, start, 5, epoch)
                            .unwrap();
                        values.extend(batch.to_rows().into_iter().map(|r| r.values()[1].clone()));
                        cursor = next;
                    }
                    assert_eq!(values.len(), ROWS as usize);
                    assert!(
                        values.windows(2).all(|w| w[0] == w[1]),
                        "mixed versions in one pinned scan: {values:?}"
                    );
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    // Final state: every row carries the last round's value.
    let t = db.scan_all("T").unwrap();
    assert!(t.rows().iter().all(|r| r.values()[1] == Value::Int(ROUNDS)));
}

/// Multi-writer schedules under group commit: N threads commit
/// concurrently, taking turns leading the batches, the process "crashes"
/// with a torn WAL tail (ripping into whatever batch was last being
/// written), and recovery must yield a *prefix of the durability-ack
/// order* — which equals log order, because statements are submitted under
/// the table lock.
/// Never a superset: no row (or index entry) appears that wasn't in the
/// surviving prefix, and the slot allocation of the prefix is intact.
#[test]
fn concurrent_group_commits_recover_to_an_ack_order_prefix() {
    const WRITERS: i32 = 8;
    const PER_WRITER: i32 = 6;
    check::cases(10, |rng| {
        let log = MemorySink::new();
        let snaps = MemorySnapshots::new();
        let ddl_len;
        {
            let db = Arc::new(open(&log, &snaps));
            db.create_table(
                "T",
                Arc::new(Schema::of(&[("k", DataType::Int), ("v", DataType::Int)])),
            )
            .unwrap();
            db.create_index("T", "pk", "k", IndexKind::Unique).unwrap();
            ddl_len = log.len();
            let threads: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let db = Arc::clone(&db);
                    std::thread::spawn(move || {
                        for i in 0..PER_WRITER {
                            // Distinct keys per writer: every statement commits.
                            db.insert("T", Row::new(vec![Value::Int(w * 100 + i), Value::Int(i)]))
                                .unwrap();
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            // Acked implies visible: the epoch has caught up with every ack.
            assert_eq!(
                db.scan_all("T").unwrap().row_count(),
                (WRITERS * PER_WRITER) as usize
            );
            let stats = db.commit_stats().unwrap();
            assert_eq!(stats.commits, (WRITERS * PER_WRITER) as u64 + 2);
            assert!(stats.syncs <= stats.commits);
        } // crash: everything acked is already on "disk"
          // The ack order IS the log order; read it back before tearing.
        let full_order: Vec<(i32, i32)> = Wal::new(Arc::clone(&log) as Arc<dyn LogSink>)
            .replay()
            .unwrap()
            .statements
            .iter()
            .flat_map(|(_, records)| records.iter())
            .filter_map(|r| match r {
                WalRecord::Insert { row, .. } => match (&row[0], &row[1]) {
                    (Value::Int(k), Value::Int(v)) => Some((*k, *v)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(full_order.len(), (WRITERS * PER_WRITER) as usize);
        // Crash mid-batch: tear anywhere inside the DML region.
        let torn = rng.range_usize(0, log.len() - ddl_len);
        log.tear_tail(torn);
        let db = open(&log, &snaps);
        let recovered: Vec<(i32, i32)> = db
            .scan_all("T")
            .unwrap()
            .rows()
            .iter()
            .map(|r| match (&r.values()[0], &r.values()[1]) {
                (Value::Int(k), Value::Int(v)) => (*k, *v),
                other => panic!("unexpected row {other:?}"),
            })
            .collect();
        // Exactly a prefix: same rows, same order (slot order == log
        // order), nothing extra (never a superset of acked commits).
        assert_eq!(
            recovered.as_slice(),
            &full_order[..recovered.len()],
            "recovered state must be a prefix of durability-ack order"
        );
        // The epoch restarts at DDL + surviving statements.
        assert_eq!(db.snapshot_epoch(), 2 + recovered.len() as u64);
        // Index probes agree with the prefix: recovered keys hit exactly
        // once, lost keys miss.
        let recovered_keys: Vec<i32> = recovered.iter().map(|(k, _)| *k).collect();
        for w in 0..WRITERS {
            for i in 0..PER_WRITER {
                let k = w * 100 + i;
                let hits = db
                    .scan_project("T", &Predicate::eq(0, Value::Int(k)), None)
                    .unwrap()
                    .row_count();
                assert_eq!(hits, recovered_keys.contains(&k) as usize, "probe for {k}");
            }
        }
    });
}

/// Durable databases work on real files too: statements survive a process
/// "crash" through `Database::open` on a directory.
#[test]
fn file_backed_database_round_trips() {
    let dir = std::env::temp_dir().join(format!(
        "fedwf-durability-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    {
        let db = Database::open(&dir).unwrap();
        db.create_table(
            "T",
            Arc::new(Schema::of(&[
                ("k", DataType::Int),
                ("v", DataType::Varchar),
            ])),
        )
        .unwrap();
        db.insert_all(
            "T",
            vec![
                Row::new(vec![Value::Int(1), Value::str("a")]),
                Row::new(vec![Value::Int(2), Value::str("b")]),
            ],
        )
        .unwrap();
        db.checkpoint().unwrap();
        db.insert("T", Row::new(vec![Value::Int(3), Value::str("c")]))
            .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.scan_all("T").unwrap().row_count(), 3);
        db.delete_where("T", &Predicate::eq(0, 2)).unwrap();
    }
    let db = Database::open(&dir).unwrap();
    let t = db.scan_all("T").unwrap();
    assert_eq!(t.row_count(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The bytes a fixed statement sequence writes to the log and to a
/// checkpoint snapshot, pinned as constants: every value type (NULLs,
/// extremes, non-ASCII text), a NOT NULL column, a unique and a non-unique
/// index, an UPDATE, a DELETE, a checkpoint and one insert after it. A
/// codec change that alters a single on-disk byte fails here; recovery
/// from those bytes must also reproduce the table.
#[test]
fn wal_and_snapshot_bytes_are_pinned() {
    let log = MemorySink::new();
    let snaps = MemorySnapshots::new();
    let db = open(&log, &snaps);
    db.create_table(
        "Every",
        Arc::new(Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("big", DataType::BigInt),
            Column::new("score", DataType::Double),
            Column::new("name", DataType::Varchar),
            Column::new("ok", DataType::Boolean),
        ])),
    )
    .unwrap();
    db.create_index("Every", "pk", "id", IndexKind::Unique)
        .unwrap();
    db.create_index("Every", "by_name", "name", IndexKind::NonUnique)
        .unwrap();
    let row = |id: i32, big: Value, score: Value, name: Value, ok: Value| {
        Row::new(vec![Value::Int(id), big, score, name, ok])
    };
    db.insert_all(
        "Every",
        vec![
            row(
                1,
                Value::BigInt(i64::MIN),
                Value::Double(3.25),
                Value::str("Grüße, 東京 🚀"),
                Value::Boolean(true),
            ),
            row(2, Value::Null, Value::Null, Value::Null, Value::Null),
            row(
                i32::MAX,
                Value::BigInt(1 << 40),
                Value::Double(-0.5),
                Value::str(""),
                Value::Boolean(false),
            ),
        ],
    )
    .unwrap();
    db.update_where("Every", &Predicate::eq(0, 2), "name", Value::str("ß"))
        .unwrap();
    db.delete_where("Every", &Predicate::eq(0, i32::MAX))
        .unwrap();
    let log_before_checkpoint = log.read_all().unwrap();
    db.checkpoint().unwrap();
    let snapshot = snaps.load().unwrap().expect("checkpoint stored a snapshot");
    db.insert(
        "Every",
        row(
            -7,
            Value::BigInt(i64::MAX),
            Value::Double(1e300),
            Value::str("naïve"),
            Value::Null,
        ),
    )
    .unwrap();
    let log_after_checkpoint = log.read_all().unwrap();

    assert_bytes(
        "log before the checkpoint",
        &log_before_checkpoint,
        LOG_BEFORE_CHECKPOINT,
    );
    assert_bytes("snapshot", &snapshot, SNAPSHOT);
    assert_bytes(
        "log after the checkpoint",
        &log_after_checkpoint,
        LOG_AFTER_CHECKPOINT,
    );

    let expected = db.scan_all("Every").unwrap();
    drop(db);
    let recovered = open(&log, &snaps).scan_all("Every").unwrap();
    assert_eq!(recovered, expected);
    assert_eq!(recovered.row_count(), 3);
}

fn assert_bytes(what: &str, got: &[u8], expected_hex: &str) {
    let hex: String = got.iter().map(|b| format!("{b:02x}")).collect();
    assert!(
        hex == expected_hex,
        "{what} changed ({} bytes):\n{hex}",
        got.len()
    );
}

const LOG_BEFORE_CHECKPOINT: &str = concat!(
    "3c0000007aa0ef4a010500000045766572790500000002000000696400000300",
    "000062696701010500000073636f72650201040000006e616d65030102000000",
    "6f6b040109000000f979c24e070100000000000000170000002c40b1c0030500",
    "0000457665727902000000706b02000000696401090000001a7e4dc007020000",
    "00000000001e0000007bc5915c030500000045766572790700000062795f6e61",
    "6d65040000006e616d650009000000847ee70c07030000000000000040000000",
    "f011ed5b04050000004576657279050000000101000000020000000000000080",
    "030000000000000a4004140000004772c3bcc39f652c20e69db1e4baac20f09f",
    "9a800501170000006fcd08450405000000457665727905000000010200000000",
    "0000002c000000ce0f4363040500000045766572790500000001ffffff7f0200",
    "0000000001000003000000000000e0bf04000000000500090000009d77220607",
    "04000000000000001d0000004075f89805050000004576657279010000000000",
    "0000030000000402000000c39f09000000037788ca0705000000000000001200",
    "0000c484063b06050000004576657279020000000000000009000000e0700744",
    "070600000000000000",
);
const SNAPSHOT: &str = concat!(
    "4657534e41503100bf7c09c60600000000000000010000000500000045766572",
    "790500000002000000696400000300000062696701010500000073636f726502",
    "01040000006e616d650301020000006f6b04010200000002000000706b000000",
    "00010700000062795f6e616d6503000000000300000000000000020000000000",
    "0000000000000000000005000000010100000002000000000000008003000000",
    "0000000a4004140000004772c3bcc39f652c20e69db1e4baac20f09f9a800501",
    "010000000000000005000000010200000000000402000000c39f00",
);
const LOG_AFTER_CHECKPOINT: &str = concat!(
    "31000000080703df040500000045766572790500000001f9ffffff02ffffffff",
    "ffffff7f039c7500883ce4377e04060000006e61c3af766500090000007e70ad",
    "88070700000000000000",
);
