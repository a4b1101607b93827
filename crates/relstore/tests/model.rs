//! Model-based testing: random insert/update/delete/scan sequences against
//! a naive Vec-backed oracle. The storage engine (with its indexes and
//! tombstoned slots) must agree with the oracle after every operation.

use std::sync::Arc;

use fedwf_relstore::{CmpOp, Database, IndexKind, Predicate};
use fedwf_types::check;
use fedwf_types::rng::Rng;
use fedwf_types::{DataType, Row, Schema, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert { key: i32, payload: i32 },
    DeleteWhereKeyEq(i32),
    DeleteWherePayloadLt(i32),
    UpdatePayload { key: i32, new_payload: i32 },
    ScanKeyEq(i32),
    ScanPayloadGtEq(i32),
    CountAll,
}

fn gen_op(rng: &mut Rng) -> Op {
    let key = rng.range_i32(0, 29);
    let payload = rng.range_i32(-50, 49);
    match rng.range_usize(0, 7) {
        0 => Op::Insert { key, payload },
        1 => Op::DeleteWhereKeyEq(key),
        2 => Op::DeleteWherePayloadLt(payload),
        3 => Op::UpdatePayload {
            key,
            new_payload: payload,
        },
        4 => Op::ScanKeyEq(key),
        5 => Op::ScanPayloadGtEq(payload),
        _ => Op::CountAll,
    }
}

/// The oracle: rows as (key, payload) pairs with the same uniqueness rule.
#[derive(Default)]
struct Oracle {
    rows: Vec<(i32, i32)>,
}

impl Oracle {
    fn insert(&mut self, key: i32, payload: i32) -> bool {
        if self.rows.iter().any(|(k, _)| *k == key) {
            return false; // unique violation
        }
        self.rows.push((key, payload));
        true
    }
}

#[test]
fn storage_agrees_with_oracle() {
    check::cases(128, |rng| {
        let n_ops = rng.range_usize(1, 60);
        let ops: Vec<Op> = (0..n_ops).map(|_| gen_op(rng)).collect();

        let db = Database::new("model");
        db.create_table(
            "T",
            Arc::new(Schema::of(&[("k", DataType::Int), ("p", DataType::Int)])),
        )
        .unwrap();
        db.create_index("T", "pk", "k", IndexKind::Unique).unwrap();
        db.create_index("T", "by_p", "p", IndexKind::NonUnique)
            .unwrap();
        let mut oracle = Oracle::default();

        for op in &ops {
            match op {
                Op::Insert { key, payload } => {
                    let expected_ok = oracle.insert(*key, *payload);
                    let actual =
                        db.insert("T", Row::new(vec![Value::Int(*key), Value::Int(*payload)]));
                    assert_eq!(
                        actual.is_ok(),
                        expected_ok,
                        "insert({key},{payload}) divergence"
                    );
                }
                Op::DeleteWhereKeyEq(key) => {
                    let expected = oracle.rows.iter().filter(|(k, _)| k == key).count();
                    oracle.rows.retain(|(k, _)| k != key);
                    let actual = db.delete_where("T", &Predicate::eq(0, *key)).unwrap();
                    assert_eq!(actual, expected);
                }
                Op::DeleteWherePayloadLt(bound) => {
                    let expected = oracle.rows.iter().filter(|(_, p)| p < bound).count();
                    oracle.rows.retain(|(_, p)| p >= bound);
                    let actual = db
                        .delete_where("T", &Predicate::cmp(1, CmpOp::Lt, *bound))
                        .unwrap();
                    assert_eq!(actual, expected);
                }
                Op::UpdatePayload { key, new_payload } => {
                    let mut expected = 0;
                    for (k, p) in &mut oracle.rows {
                        if k == key {
                            *p = *new_payload;
                            expected += 1;
                        }
                    }
                    let actual = db
                        .update_where("T", &Predicate::eq(0, *key), "p", Value::Int(*new_payload))
                        .unwrap();
                    assert_eq!(actual, expected);
                }
                Op::ScanKeyEq(key) => {
                    let mut expected: Vec<i32> = oracle
                        .rows
                        .iter()
                        .filter(|(k, _)| k == key)
                        .map(|(_, p)| *p)
                        .collect();
                    let got = db.scan_project("T", &Predicate::eq(0, *key), None).unwrap();
                    let mut actual: Vec<i32> = got
                        .rows()
                        .iter()
                        .map(|r| r.values()[1].as_i64().unwrap() as i32)
                        .collect();
                    actual.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(actual, expected);
                }
                Op::ScanPayloadGtEq(bound) => {
                    let expected = oracle.rows.iter().filter(|(_, p)| p >= bound).count();
                    let got = db
                        .scan_project("T", &Predicate::cmp(1, CmpOp::GtEq, *bound), None)
                        .unwrap();
                    assert_eq!(got.row_count(), expected);
                }
                Op::CountAll => {
                    let got = db.scan_all("T").unwrap();
                    assert_eq!(got.row_count(), oracle.rows.len());
                    assert_eq!(db.table_stats("T").unwrap().row_count, oracle.rows.len());
                }
            }
        }
    });
}
