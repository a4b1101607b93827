//! SQL/MED-style wrapper interfaces (Management of External Data).
//!
//! The paper's architecture connects the FDBS to external systems through
//! wrappers "according to the draft of SQL/MED". Two wrapper flavours
//! matter here:
//!
//! * [`ForeignServer`] — a remote *SQL source* the FDBS federates: the FDBS
//!   pushes a subquery (predicate + projection) down and gets a table back.
//!   [`RelstoreServer`] adapts an embedded [`fedwf_relstore::Database`].
//! * foreign *functions* are handled through the UDTF machinery
//!   ([`crate::udtf::Udtf`] with a native body); the `fedwf-wrapper` crate
//!   provides the implementation that bridges to the workflow engine.

use std::sync::Arc;

use fedwf_relstore::{Database, Predicate};
use fedwf_types::{ColumnBatch, FedResult, SchemaRef, Table};

use crate::stats::TableStatistics;

/// A remote SQL source reachable through a wrapper.
pub trait ForeignServer: Send + Sync {
    /// Server name (for catalog bookkeeping and error messages).
    fn name(&self) -> &str;

    /// Schema of a remote table.
    fn table_schema(&self, table: &str) -> FedResult<SchemaRef>;

    /// Execute a pushed-down subquery: scan `table` applying `predicate`
    /// remotely. The FDBS keeps residual predicates it could not push.
    fn scan(&self, table: &str, predicate: &Predicate) -> FedResult<Table>;

    /// Pushed-down subquery with a projection: return only the columns named
    /// by `projection` (indexes into the remote table's full layout, which
    /// the `predicate` also uses). The default implementation scans the full
    /// rows and prunes on the FDBS side — a wrapper that can push the
    /// projection across the wire (like [`RelstoreServer`]) should override
    /// it so the pruned columns never travel.
    fn scan_project(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<Table> {
        let full = self.scan(table, predicate)?;
        match projection {
            None => Ok(full),
            Some(proj) => {
                let schema = Arc::new(full.schema().project(proj));
                let mut out = Table::new(schema);
                for row in full.rows() {
                    out.push_unchecked(row.project(proj));
                }
                Ok(out)
            }
        }
    }

    /// Columnar pushed-down subquery: the result set crosses the wrapper
    /// boundary as one typed [`ColumnBatch`], so transfer cost is measured
    /// in column-vector bytes rather than boxed rows. The default adapts
    /// the row-producing [`ForeignServer::scan_project`]; a wrapper whose
    /// remote side is column-native (like [`RelstoreServer`]) should
    /// override it so no intermediate rows exist at all.
    fn scan_project_columnar(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<ColumnBatch> {
        Ok(ColumnBatch::from_table(
            &self.scan_project(table, predicate, projection)?,
        ))
    }

    /// Remote cardinality estimate (row count) for optimizer use.
    fn estimate_rows(&self, table: &str) -> FedResult<usize>;

    /// ANALYZE support: collect full optimizer statistics (row count,
    /// per-column NDV, null fraction, min/max) for a remote table. The
    /// default ships the whole table across the wrapper once and profiles
    /// it on the FDBS side; a wrapper whose remote end can compute
    /// statistics natively should override this. Foreign statistics carry
    /// no mutation epoch — they stay valid until the next ANALYZE.
    fn collect_statistics(&self, table: &str) -> FedResult<TableStatistics> {
        Ok(TableStatistics::from_table(
            &self.scan(table, &Predicate::True)?,
        ))
    }
}

/// Adapter exposing an embedded relstore database as a foreign SQL source.
pub struct RelstoreServer {
    name: String,
    db: Arc<Database>,
}

impl RelstoreServer {
    pub fn new(name: impl Into<String>, db: Arc<Database>) -> RelstoreServer {
        RelstoreServer {
            name: name.into(),
            db,
        }
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }
}

impl ForeignServer for RelstoreServer {
    fn name(&self) -> &str {
        &self.name
    }

    fn table_schema(&self, table: &str) -> FedResult<SchemaRef> {
        self.db.table_schema(table)
    }

    fn scan(&self, table: &str, predicate: &Predicate) -> FedResult<Table> {
        self.db.scan_project(table, predicate, None)
    }

    fn scan_project(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<Table> {
        // Push the projection all the way into the remote storage engine:
        // the pruned columns are never cloned out of the heap table.
        self.db.scan_project(table, predicate, projection)
    }

    fn scan_project_columnar(
        &self,
        table: &str,
        predicate: &Predicate,
        projection: Option<&[usize]>,
    ) -> FedResult<ColumnBatch> {
        // Column-native end to end: storage appends matching values
        // straight into typed vectors; no row is built on either side.
        self.db.scan_project_columnar(table, predicate, projection)
    }

    fn estimate_rows(&self, table: &str) -> FedResult<usize> {
        Ok(self.db.table_stats(table)?.row_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::{DataType, Row, Schema, Value};

    fn server() -> RelstoreServer {
        let db = Database::new("remote");
        db.create_table(
            "Parts",
            Arc::new(Schema::of(&[
                ("PartNo", DataType::Int),
                ("Name", DataType::Varchar),
            ])),
        )
        .unwrap();
        db.insert("Parts", Row::new(vec![Value::Int(1), Value::str("bolt")]))
            .unwrap();
        db.insert("Parts", Row::new(vec![Value::Int(2), Value::str("nut")]))
            .unwrap();
        RelstoreServer::new("erp", Arc::new(db))
    }

    #[test]
    fn pushdown_scan() {
        let s = server();
        let t = s.scan("Parts", &Predicate::eq(0, 2)).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.value(0, "Name"), Some(&Value::str("nut")));
    }

    #[test]
    fn pushdown_scan_with_projection() {
        let s = server();
        // Predicate numbers the full layout; only Name comes back.
        let t = s
            .scan_project("Parts", &Predicate::eq(0, 2), Some(&[1]))
            .unwrap();
        assert_eq!(t.schema().len(), 1);
        assert_eq!(t.value(0, "Name"), Some(&Value::str("nut")));
    }

    #[test]
    fn default_scan_project_prunes_wrapper_side() {
        // A wrapper that only implements `scan` still honors projections
        // through the default FDBS-side pruning.
        struct Plain(RelstoreServer);
        impl ForeignServer for Plain {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn table_schema(&self, table: &str) -> FedResult<SchemaRef> {
                self.0.table_schema(table)
            }
            fn scan(&self, table: &str, predicate: &Predicate) -> FedResult<Table> {
                self.0.scan(table, predicate)
            }
            fn estimate_rows(&self, table: &str) -> FedResult<usize> {
                self.0.estimate_rows(table)
            }
        }
        let s = Plain(server());
        let t = s
            .scan_project("Parts", &Predicate::True, Some(&[1]))
            .unwrap();
        assert_eq!(t.schema().len(), 1);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, "Name"), Some(&Value::str("bolt")));
    }

    #[test]
    fn columnar_boundary_matches_row_boundary() {
        let s = server();
        let rows = s
            .scan_project("Parts", &Predicate::True, Some(&[1]))
            .unwrap();
        let cols = s
            .scan_project_columnar("Parts", &Predicate::True, Some(&[1]))
            .unwrap();
        assert_eq!(cols.to_rows(), rows.rows().to_vec());
        // The default (row-adapting) implementation agrees too.
        struct Plain(RelstoreServer);
        impl ForeignServer for Plain {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn table_schema(&self, table: &str) -> FedResult<SchemaRef> {
                self.0.table_schema(table)
            }
            fn scan(&self, table: &str, predicate: &Predicate) -> FedResult<Table> {
                self.0.scan(table, predicate)
            }
            fn estimate_rows(&self, table: &str) -> FedResult<usize> {
                self.0.estimate_rows(table)
            }
        }
        let p = Plain(server());
        let cols = p
            .scan_project_columnar("Parts", &Predicate::True, Some(&[1]))
            .unwrap();
        assert_eq!(cols.to_rows(), rows.rows().to_vec());
    }

    #[test]
    fn schema_and_estimate() {
        let s = server();
        assert_eq!(s.table_schema("Parts").unwrap().len(), 2);
        assert_eq!(s.estimate_rows("Parts").unwrap(), 2);
        assert!(s.table_schema("Nope").is_err());
    }
}
