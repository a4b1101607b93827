//! B-tree indexes over stored tables.

use std::collections::BTreeMap;

use fedwf_types::{FedError, FedResult, Value};

use crate::table::RowId;

/// A total-order wrapper over [`Value`] so it can key a `BTreeMap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexKey(pub Value);

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &IndexKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &IndexKey) -> std::cmp::Ordering {
        self.0.index_cmp(&other.0)
    }
}

/// Whether an index enforces key uniqueness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Unique,
    NonUnique,
}

/// A single-column B-tree index mapping key values to row ids.
///
/// NULL keys are not indexed (SQL unique indexes admit any number of NULLs;
/// lookups for NULL always go through a scan).
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    pub column: usize,
    pub kind: IndexKind,
    entries: BTreeMap<IndexKey, Vec<RowId>>,
}

impl Index {
    pub fn new(name: impl Into<String>, column: usize, kind: IndexKind) -> Index {
        Index {
            name: name.into(),
            column,
            kind,
            entries: BTreeMap::new(),
        }
    }

    /// Insert a key → row id mapping. Fails on a unique violation.
    pub fn insert(&mut self, key: &Value, row_id: RowId) -> FedResult<()> {
        if key.is_null() {
            return Ok(());
        }
        let bucket = self.entries.entry(IndexKey(key.clone())).or_default();
        if self.kind == IndexKind::Unique && !bucket.is_empty() {
            return Err(FedError::storage(format!(
                "unique index {} violated by duplicate key {}",
                self.name, key
            )));
        }
        bucket.push(row_id);
        Ok(())
    }

    /// Remove a key → row id mapping (no-op if absent).
    pub fn remove(&mut self, key: &Value, row_id: RowId) {
        if key.is_null() {
            return;
        }
        if let Some(bucket) = self.entries.get_mut(&IndexKey(key.clone())) {
            bucket.retain(|&id| id != row_id);
            if bucket.is_empty() {
                self.entries.remove(&IndexKey(key.clone()));
            }
        }
    }

    /// Row ids for an exact key (none for NULL, which is never indexed).
    pub fn lookup(&self, key: &Value) -> &[RowId] {
        if key.is_null() {
            return &[];
        }
        self.entries
            .get(&IndexKey(key.clone()))
            .map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut idx = Index::new("pk", 0, IndexKind::Unique);
        idx.insert(&Value::Int(1), 10).unwrap();
        assert!(idx.insert(&Value::Int(1), 11).is_err());
        assert!(idx.insert(&Value::Int(2), 11).is_ok());
    }

    #[test]
    fn non_unique_index_accumulates() {
        let mut idx = Index::new("sec", 1, IndexKind::NonUnique);
        idx.insert(&Value::str("a"), 1).unwrap();
        idx.insert(&Value::str("a"), 2).unwrap();
        assert_eq!(idx.lookup(&Value::str("a")), [1, 2]);
        assert_eq!(idx.entries.len(), 1);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let mut idx = Index::new("u", 0, IndexKind::Unique);
        idx.insert(&Value::Null, 1).unwrap();
        idx.insert(&Value::Null, 2).unwrap(); // no unique violation
        assert!(idx.lookup(&Value::Null).is_empty());
        assert!(idx.entries.is_empty());
    }

    #[test]
    fn remove_cleans_buckets() {
        let mut idx = Index::new("sec", 0, IndexKind::NonUnique);
        idx.insert(&Value::Int(5), 1).unwrap();
        idx.insert(&Value::Int(5), 2).unwrap();
        idx.remove(&Value::Int(5), 1);
        assert_eq!(idx.lookup(&Value::Int(5)), [2]);
        idx.remove(&Value::Int(5), 2);
        assert!(idx.entries.is_empty());
        // Removing a missing entry is a no-op.
        idx.remove(&Value::Int(5), 99);
    }

    #[test]
    fn mixed_numeric_keys_order_correctly() {
        let mut idx = Index::new("m", 0, IndexKind::NonUnique);
        idx.insert(&Value::BigInt(10), 1).unwrap();
        idx.insert(&Value::Int(5), 2).unwrap();
        idx.insert(&Value::Double(7.5), 3).unwrap();
        let ordered: Vec<RowId> = idx.entries.values().flatten().copied().collect();
        assert_eq!(ordered, [2, 3, 1]);
        // Cross-type lookup: Int(10) equals BigInt(10) under index order.
        assert_eq!(idx.lookup(&Value::Int(10)), [1]);
    }
}
