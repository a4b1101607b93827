//! The `ingest` workload: a durable FDBS local store (`CommitMode::Group`,
//! files in a fresh directory per set-up) holding a table keyed by a
//! unique index and preloaded with 10 000 rows. Each client issues 40 %
//! single-row INSERT, 10 % 16-row INSERT, 10 % UPDATE by key and 40 % point
//! SELECT by key, on keys of its own; reads and updates favour recently
//! inserted keys.
//!
//! Every client keeps a model of its keys: reads must return what the
//! model holds, and at the end the table must hold exactly the preloaded
//! plus the acknowledged rows, before and after reopening the WAL.

use std::collections::HashMap;
use std::sync::Arc;

use fedwf_core::{IntegrationServer, Request};
use fedwf_relstore::{Database, IndexKind, Predicate};
use fedwf_types::rng::Rng;
use fedwf_types::{DataType, FedError, FedResult, Row, Schema, Table, Value};

pub const TABLE: &str = "Ingest";
pub const PRELOAD: i32 = 10_000;
const READ_SQL: &str = "SELECT I.V, I.Payload FROM Ingest AS I WHERE I.K = pk";
const MULTI_ROWS: usize = 16;
/// Reads and updates pick among this many most recent own keys 80 % of
/// the time.
const RECENT: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Insert,
    InsertMany,
    Update,
    Read,
}

impl Kind {
    pub fn is_write(self) -> bool {
        self != Kind::Read
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::InsertMany => "insert16",
            Kind::Update => "update",
            Kind::Read => "read",
        }
    }
}

/// A pre-generated operation: its kind and the random draw that picks its
/// key and value.
#[derive(Debug, Clone, Copy)]
pub struct Draw {
    pub kind: Kind,
    pub r: u64,
}

/// Per-client operation sequences, drawn from the seed.
pub fn draws(seed: u64, clients: usize, len: usize) -> Vec<Vec<Draw>> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x1A6E);
    (0..clients)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let kind = match rng.next_below(10) {
                        0..=3 => Kind::Insert,
                        4 => Kind::InsertMany,
                        5 => Kind::Update,
                        _ => Kind::Read,
                    };
                    Draw {
                        kind,
                        r: rng.next_u64(),
                    }
                })
                .collect()
        })
        .collect()
}

fn payload(key: i32) -> String {
    format!("row {key}")
}

fn row(key: i32, v: i32) -> Row {
    Row::new(vec![
        Value::Int(key),
        Value::Int(v),
        Value::str(payload(key)),
        Value::BigInt(i64::from(key)),
    ])
}

/// Create and preload the table on the server's durable local store.
pub fn load(server: &IntegrationServer) -> FedResult<()> {
    let local = server.fdbs().catalog().local();
    local.create_table(
        TABLE,
        Arc::new(Schema::of(&[
            ("K", DataType::Int),
            ("V", DataType::Int),
            ("Payload", DataType::Varchar),
            ("Ts", DataType::BigInt),
        ])),
    )?;
    local.create_index(TABLE, "ingest_pk", "K", IndexKind::Unique)?;
    local.insert_all(TABLE, (0..PRELOAD).map(|k| row(k, k % 1000)).collect())?;
    server.fdbs().analyze()?;
    Ok(())
}

/// What a prepared operation expects.
#[derive(Debug, Clone)]
pub enum Expect {
    Inserted(Vec<(i32, i32)>),
    Updated(i32, i32),
    Read(i32),
}

/// One prepared request, in the forms each rung of the ladder needs.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub request: Request,
    pub sql: String,
    pub params: Vec<(String, Value)>,
    pub expect: Expect,
}

/// One client's model of its own keys.
#[derive(Debug)]
pub struct Model {
    client: usize,
    next: i32,
    /// Own keys in insertion order (own preloaded keys first).
    keys: Vec<i32>,
    values: HashMap<i32, i32>,
    preloaded: usize,
    /// Rows whose INSERT was acknowledged.
    pub acked_rows: u64,
}

impl Model {
    pub fn new(client: usize, clients: usize) -> Model {
        let keys: Vec<i32> = (0..PRELOAD)
            .filter(|k| *k as usize % clients == client)
            .collect();
        let values = keys.iter().map(|&k| (k, k % 1000)).collect();
        Model {
            client,
            next: 0,
            preloaded: keys.len(),
            keys,
            values,
            acked_rows: 0,
        }
    }

    fn fresh_key(&mut self) -> i32 {
        self.next += 1;
        (self.client as i32 + 1) * 10_000_000 + self.next
    }

    fn pick_key(&self, r: u64) -> i32 {
        let inserted = self.keys.len() - self.preloaded;
        let at = if r % 10 < 8 && inserted > 0 {
            self.keys.len() - 1 - ((r >> 8) as usize % inserted.min(RECENT))
        } else {
            (r >> 8) as usize % self.keys.len()
        };
        self.keys[at]
    }

    /// Prepare the operation for `draw`. Inserts take fresh keys, so every
    /// call (including a re-issue at a lower rung) writes new rows.
    pub fn prepare(&mut self, draw: Draw) -> Op {
        let value = ((draw.r >> 32) % 1_000_000) as i32;
        match draw.kind {
            Kind::Insert | Kind::InsertMany => {
                let n = if draw.kind == Kind::Insert {
                    1
                } else {
                    MULTI_ROWS
                };
                let rows: Vec<(i32, i32)> = (0..n)
                    .map(|i| (self.fresh_key(), value + i as i32))
                    .collect();
                let values: Vec<String> = rows
                    .iter()
                    .map(|(k, v)| format!("({k}, {v}, '{}', {k})", payload(*k)))
                    .collect();
                let sql = format!("INSERT INTO {TABLE} VALUES {}", values.join(", "));
                Op {
                    kind: draw.kind,
                    request: Request::sql(sql.clone()),
                    sql,
                    params: Vec::new(),
                    expect: Expect::Inserted(rows),
                }
            }
            Kind::Update => {
                let key = self.pick_key(draw.r);
                let sql = format!("UPDATE {TABLE} SET V = {value} WHERE K = {key}");
                Op {
                    kind: draw.kind,
                    request: Request::sql(sql.clone()),
                    sql,
                    params: Vec::new(),
                    expect: Expect::Updated(key, value),
                }
            }
            Kind::Read => {
                let key = self.pick_key(draw.r);
                Op {
                    kind: draw.kind,
                    request: Request::sql(READ_SQL).bind("pk", Value::Int(key)),
                    sql: READ_SQL.to_string(),
                    params: vec![("pk".to_string(), Value::Int(key))],
                    expect: Expect::Read(key),
                }
            }
        }
    }

    /// Fold an acknowledged operation into the model.
    pub fn ack(&mut self, expect: &Expect) {
        match expect {
            Expect::Inserted(rows) => {
                for &(k, v) in rows {
                    self.keys.push(k);
                    self.values.insert(k, v);
                }
                self.acked_rows += rows.len() as u64;
            }
            Expect::Updated(k, v) => {
                self.values.insert(*k, *v);
            }
            Expect::Read(_) => {}
        }
    }

    /// Whether a read's reply holds the modelled row.
    pub fn read_matches(&self, key: i32, table: &Table) -> bool {
        let want = [Value::Int(self.values[&key]), Value::str(payload(key))];
        table.rows().len() == 1 && table.rows()[0].values() == want
    }

    /// Every modelled key and value.
    pub fn rows(&self) -> impl Iterator<Item = (i32, i32)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// Re-issue an operation directly on the relstore local store (the
/// ladder's lowest write/read rung).
pub fn relstore_rung(local: &Database, op: &Op) -> FedResult<()> {
    match &op.expect {
        Expect::Inserted(rows) => local
            .insert_all(TABLE, rows.iter().map(|(k, v)| row(*k, *v)).collect())
            .map(drop),
        Expect::Updated(k, v) => local
            .update_where(TABLE, &Predicate::eq(0, *k), "V", Value::Int(*v))
            .map(drop),
        Expect::Read(k) => local
            .scan_project_columnar(TABLE, &Predicate::eq(0, *k), Some(&[1, 2]))
            .map(drop),
    }
}

/// End-of-run durability check: reopen the store directory and confirm
/// it holds exactly the preloaded rows plus every acknowledged one, with
/// the acknowledged values.
pub fn verify_reopened(dir: &std::path::Path, models: &[Model]) -> FedResult<()> {
    let db = Database::open(dir)?;
    let table = db.scan_all(TABLE)?;
    let mut found: HashMap<i32, i32> = HashMap::with_capacity(table.row_count());
    for r in table.rows() {
        let (Some(k), Some(v)) = (r.values()[0].as_i64(), r.values()[1].as_i64()) else {
            return Err(FedError::execution("reopened row with NULL key or value"));
        };
        found.insert(k as i32, v as i32);
    }
    let expected: usize =
        PRELOAD as usize + models.iter().map(|m| m.acked_rows as usize).sum::<usize>();
    if found.len() != expected || table.row_count() != expected {
        return Err(FedError::execution(format!(
            "reopened store holds {} rows, expected {expected}",
            table.row_count()
        )));
    }
    for model in models {
        for (k, v) in model.rows() {
            if found.get(&k) != Some(&v) {
                return Err(FedError::execution(format!(
                    "reopened store lost acknowledged key {k} = {v}"
                )));
            }
        }
    }
    Ok(())
}
