//! Generated scan equivalence: the three public scan entry points —
//! `scan_project`, `scan_project_columnar` and the `scan_chunk_columnar`
//! cursor — must return the same rows in the same order for any table
//! state, predicate, projection, chunk size and pinned epoch, and those
//! rows must be exactly the versions a brute-force filter of the table's
//! history says are visible.
//!
//! Each case builds a table with one unique and one non-unique index, runs
//! random inserts, one- and two-column updates and deletes (recording the
//! visible state after every committed statement), then scans it with
//! random predicates — index-served or not, NULL keys included — and
//! random projections, where an out-of-range column must come back as a
//! typed storage error.

use std::sync::Arc;

use fedwf_relstore::{CmpOp, Database, IndexKind, Predicate};
use fedwf_types::rng::Rng;
use fedwf_types::{check, DataType, ErrorLayer, FedResult, Row, Schema, TxnId, Value};

const TABLE: &str = "T";
/// Columns: `k` (unique index), `g` (non-unique index), `s`, `x`.
const WIDTH: usize = 4;

fn schema() -> Arc<Schema> {
    Arc::new(Schema::of(&[
        ("k", DataType::Int),
        ("g", DataType::Int),
        ("s", DataType::Varchar),
        ("x", DataType::Double),
    ]))
}

fn maybe_null(rng: &mut Rng, v: Value) -> Value {
    if rng.gen_bool(0.1) {
        Value::Null
    } else {
        v
    }
}

fn gen_value(rng: &mut Rng, column: usize) -> Value {
    let v = match column {
        0 => Value::Int(rng.range_i32(0, 40)),
        1 => Value::Int(rng.range_i32(0, 5)),
        2 => Value::str(rng.ascii_string(b"ab", 2)),
        _ => Value::Double(f64::from(rng.range_i32(-20, 20)) / 4.0),
    };
    maybe_null(rng, v)
}

fn gen_row(rng: &mut Rng) -> Row {
    Row::new((0..WIDTH).map(|c| gen_value(rng, c)).collect())
}

/// A leaf comparison on any column; equality on `k` or `g` is what the
/// store can answer from an index.
fn gen_leaf(rng: &mut Rng) -> Predicate {
    let column = rng.range_usize(0, WIDTH);
    match rng.range_usize(0, 6) {
        0 | 1 => Predicate::eq(column, gen_value(rng, column)),
        2 => Predicate::cmp(
            column,
            *rng.pick(&[CmpOp::NotEq, CmpOp::Lt, CmpOp::LtEq, CmpOp::Gt, CmpOp::GtEq]),
            gen_value(rng, column),
        ),
        3 => Predicate::IsNull(column),
        4 => Predicate::IsNotNull(column),
        _ => Predicate::eq(column, Value::Null),
    }
}

fn gen_predicate(rng: &mut Rng, depth: usize) -> Predicate {
    if depth == 0 {
        return gen_leaf(rng);
    }
    match rng.range_usize(0, 6) {
        0 => Predicate::True,
        1 | 2 => gen_predicate(rng, depth - 1).and(gen_predicate(rng, depth - 1)),
        3 => gen_predicate(rng, depth - 1).or(gen_predicate(rng, depth - 1)),
        4 => gen_predicate(rng, depth - 1).negate(),
        _ => gen_leaf(rng),
    }
}

/// `None`, or a projection that may reorder, repeat or drop columns.
fn gen_projection(rng: &mut Rng, allow_out_of_range: bool) -> Option<Vec<usize>> {
    if rng.gen_bool(0.25) {
        return None;
    }
    let hi = if allow_out_of_range { WIDTH + 3 } else { WIDTH };
    let n = rng.range_usize(0, WIDTH + 2);
    Some((0..n).map(|_| rng.range_usize(0, hi)).collect())
}

/// Apply one random mutation to the database and, when it commits, to the
/// model. Failed statements (unique violations) must leave both alone.
fn mutate(rng: &mut Rng, db: &Database, model: &mut Vec<Row>) {
    match rng.range_usize(0, 5) {
        0..=2 => {
            let row = gen_row(rng);
            if db.insert(TABLE, row.clone()).is_ok() {
                model.push(row);
            }
        }
        3 => {
            // One assignment through `update_where` or two through
            // `update_set`: the predicate selects the rows first, then
            // each gets the assignments left to right.
            let predicate = gen_predicate(rng, 1);
            let assignments: Vec<(usize, Value)> = (0..rng.range_usize(1, 3))
                .map(|_| {
                    let column = rng.range_usize(0, WIDTH);
                    (column, gen_value(rng, column))
                })
                .collect();
            let named: Vec<(&str, Value)> = assignments
                .iter()
                .map(|(column, value)| (["k", "g", "s", "x"][*column], value.clone()))
                .collect();
            let result = match &named[..] {
                [(name, value)] => db.update_where(TABLE, &predicate, name, value.clone()),
                _ => db.update_set(TABLE, &predicate, &named),
            };
            if let Ok(n) = result {
                let mut updated = 0;
                for row in model.iter_mut() {
                    if predicate.selects(row).unwrap() {
                        let mut values = row.clone().into_values();
                        for (column, value) in &assignments {
                            values[*column] = value.clone();
                        }
                        *row = Row::new(values);
                        updated += 1;
                    }
                }
                assert_eq!(n, updated, "update count diverges from the model");
            }
        }
        _ => {
            let predicate = gen_predicate(rng, 1);
            let n = db.delete_where(TABLE, &predicate).unwrap();
            let before = model.len();
            model.retain(|row| !predicate.selects(row).unwrap());
            assert_eq!(
                n,
                before - model.len(),
                "delete count diverges from the model"
            );
        }
    }
}

/// Concatenate the chunks of a `scan_chunk_columnar` cursor.
fn chunked(
    db: &Database,
    predicate: &Predicate,
    projection: Option<&[usize]>,
    chunk: usize,
    epoch: TxnId,
) -> FedResult<Vec<Row>> {
    let mut rows = Vec::new();
    let mut start = 0;
    loop {
        let (batch, next) =
            db.scan_chunk_columnar(TABLE, predicate, projection, start, chunk, epoch)?;
        assert!(
            next.is_none() || batch.len() <= chunk,
            "a resumable chunk holds at most {chunk} rows, got {}",
            batch.len()
        );
        rows.extend(batch.to_rows());
        match next {
            Some(s) => {
                assert!(s > start, "the cursor must advance");
                start = s;
            }
            None => return Ok(rows),
        }
    }
}

/// The brute-force answer: filter the visible rows, then project.
fn expected(model: &[Row], predicate: &Predicate, projection: Option<&[usize]>) -> Vec<Row> {
    model
        .iter()
        .filter(|row| predicate.selects(row).unwrap())
        .map(|row| match projection {
            Some(p) => row.project(p),
            None => row.clone(),
        })
        .collect()
}

fn sorted(rows: &[Row]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values())).collect();
    keys.sort();
    keys
}

#[test]
fn scan_entry_points_agree_with_each_other_and_with_brute_force() {
    check::cases(200, |rng| {
        let db = Database::new("scans");
        db.create_table(TABLE, schema()).unwrap();
        db.create_index(TABLE, "pk", "k", IndexKind::Unique)
            .unwrap();
        db.create_index(TABLE, "by_g", "g", IndexKind::NonUnique)
            .unwrap();
        let mut model: Vec<Row> = Vec::new();
        // Visible state after every committed statement, by epoch.
        let mut history: Vec<(TxnId, Vec<Row>)> = vec![(db.snapshot_epoch(), Vec::new())];
        for _ in 0..rng.range_usize(0, 40) {
            mutate(rng, &db, &mut model);
            let epoch = db.snapshot_epoch();
            if history.last().map(|(e, _)| *e) != Some(epoch) {
                history.push((epoch, model.clone()));
            }
        }
        let (latest, _) = history.last().cloned().unwrap();

        for _ in 0..12 {
            let predicate = gen_predicate(rng, 2);
            let projection = gen_projection(rng, false);
            let proj = projection.as_deref();
            let chunk = rng.range_usize(1, model.len() + 2);
            let want = expected(&model, &predicate, proj);

            // At the published epoch all three entry points answer, row
            // for row, what the brute-force filter answers as a multiset.
            let rows = db.scan_project(TABLE, &predicate, proj).unwrap();
            let cols = db
                .scan_project_columnar(TABLE, &predicate, proj)
                .unwrap()
                .to_rows();
            let chunks = chunked(&db, &predicate, proj, chunk, latest).unwrap();
            assert_eq!(
                rows.rows(),
                &cols[..],
                "scan_project vs columnar: {predicate:?}"
            );
            assert_eq!(cols, chunks, "columnar vs chunked ({chunk}): {predicate:?}");
            assert_eq!(
                sorted(&cols),
                sorted(&want),
                "vs brute force: {predicate:?}"
            );
            assert_eq!(rows.schema().len(), proj.map_or(WIDTH, <[usize]>::len));

            // A cursor pinned before the last mutation sees exactly that
            // statement's visible set, whatever committed since.
            let (epoch, past) = rng.pick(&history).clone();
            let pinned = chunked(&db, &predicate, proj, chunk, epoch).unwrap();
            let whole = chunked(&db, &predicate, proj, usize::MAX, epoch).unwrap();
            assert_eq!(
                pinned, whole,
                "chunking changes a pinned scan: {predicate:?}"
            );
            assert_eq!(
                sorted(&pinned),
                sorted(&expected(&past, &predicate, proj)),
                "pinned epoch {epoch} of {latest}: {predicate:?}"
            );
        }
    });
}

#[test]
fn bad_projections_and_predicates_are_typed_storage_errors() {
    check::cases(64, |rng| {
        let db = Database::new("scan_err");
        db.create_table(TABLE, schema()).unwrap();
        db.create_index(TABLE, "pk", "k", IndexKind::Unique)
            .unwrap();
        for _ in 0..rng.range_usize(0, 8) {
            let _ = db.insert(TABLE, gen_row(rng));
        }
        let epoch = db.snapshot_epoch();
        let projection = gen_projection(rng, true);
        let proj = projection.as_deref();
        let bad_projection = proj.is_some_and(|p| p.iter().any(|&c| c >= WIDTH));
        let bad_predicate = rng.gen_bool(0.3);
        let predicate = if bad_predicate {
            gen_predicate(rng, 1).and(Predicate::IsNull(WIDTH + rng.range_usize(0, 3)))
        } else {
            gen_predicate(rng, 1)
        };
        let results = [
            db.scan_project(TABLE, &predicate, proj)
                .map(|t| t.into_rows()),
            db.scan_project_columnar(TABLE, &predicate, proj)
                .map(|b| b.to_rows()),
            db.scan_chunk_columnar(TABLE, &predicate, proj, 0, 1, epoch)
                .map(|(b, _)| b.to_rows()),
        ];
        for result in results {
            match result {
                Ok(_) => assert!(!bad_projection && !bad_predicate),
                Err(e) => {
                    assert!(bad_projection || bad_predicate, "unexpected error {e}");
                    assert_eq!(e.layer, ErrorLayer::Storage, "{e}");
                    // The predicate is validated before the projection.
                    let culprit = if bad_predicate {
                        "predicate"
                    } else {
                        "projection"
                    };
                    assert!(e.message.contains(culprit), "{e}");
                }
            }
        }
    });
}
