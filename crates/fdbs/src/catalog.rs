//! The FDBS catalog: local tables, foreign tables, table functions.

use std::collections::BTreeMap;
use std::sync::Arc;

use fedwf_relstore::Database;
use fedwf_types::sync::RwLock;
use fedwf_types::{FedError, FedResult, Ident, SchemaRef};

use crate::sqlmed::ForeignServer;
use crate::stats::TableStatistics;
use crate::udtf::Udtf;

/// Where a table name resolves to.
#[derive(Clone)]
pub enum TableOrigin {
    /// A table in the FDBS's own storage.
    Local,
    /// A table at a foreign SQL source.
    Foreign {
        server: Arc<dyn ForeignServer>,
        remote_name: String,
    },
}

impl std::fmt::Debug for TableOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableOrigin::Local => write!(f, "Local"),
            TableOrigin::Foreign {
                server,
                remote_name,
            } => write!(f, "Foreign({}/{remote_name})", server.name()),
        }
    }
}

/// The catalog. Local table storage lives in an embedded relstore
/// [`Database`]; foreign tables map to [`ForeignServer`]s; table functions
/// are [`Udtf`]s.
pub struct Catalog {
    local: Database,
    foreign_tables: RwLock<BTreeMap<Ident, ForeignTableEntry>>,
    udtfs: RwLock<BTreeMap<Ident, Arc<Udtf>>>,
    /// ANALYZE output, keyed by the table's catalog name. Local entries
    /// carry the mutation epoch they were collected at and go stale when
    /// the table mutates past it; foreign entries stay until re-ANALYZE.
    stats: RwLock<BTreeMap<Ident, Arc<TableStatistics>>>,
}

/// A foreign-table registration: the server plus the remote table name.
type ForeignTableEntry = (Arc<dyn ForeignServer>, String);

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog::new()
    }
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::with_local(Database::new("fdbs"))
    }

    /// A catalog over an explicit local store — the integration server
    /// passes a durable (WAL-backed) [`Database`] here when configured
    /// with a data directory.
    pub fn with_local(local: Database) -> Catalog {
        Catalog {
            local,
            foreign_tables: RwLock::new(BTreeMap::new()),
            udtfs: RwLock::new(BTreeMap::new()),
            stats: RwLock::new(BTreeMap::new()),
        }
    }

    /// The FDBS's own storage.
    pub fn local(&self) -> &Database {
        &self.local
    }

    /// Register a foreign table: `local_name` resolves to
    /// `remote_name` at `server`.
    pub fn register_foreign_table(
        &self,
        local_name: impl Into<Ident>,
        server: Arc<dyn ForeignServer>,
        remote_name: impl Into<String>,
    ) -> FedResult<()> {
        let local_name = local_name.into();
        let remote_name = remote_name.into();
        // Validate eagerly: the remote table must exist.
        server.table_schema(&remote_name)?;
        if self.local.has_table(local_name.as_str()) {
            return Err(FedError::catalog(format!(
                "cannot register foreign table {local_name}: a local table of that name exists"
            )));
        }
        let mut tables = self.foreign_tables.write();
        if tables.contains_key(&local_name) {
            return Err(FedError::catalog(format!(
                "foreign table {local_name} already registered"
            )));
        }
        tables.insert(local_name, (server, remote_name));
        Ok(())
    }

    /// Resolve a table name to its origin and schema.
    pub fn resolve_table(&self, name: &Ident) -> FedResult<(TableOrigin, SchemaRef)> {
        if self.local.has_table(name.as_str()) {
            return Ok((TableOrigin::Local, self.local.table_schema(name.as_str())?));
        }
        if let Some((server, remote)) = self.foreign_tables.read().get(name) {
            let schema = server.table_schema(remote)?;
            return Ok((
                TableOrigin::Foreign {
                    server: server.clone(),
                    remote_name: remote.clone(),
                },
                schema,
            ));
        }
        Err(FedError::catalog(format!("unknown table {name}")))
    }

    /// Register a table function. Replaces nothing: re-registration errors.
    pub fn register_udtf(&self, udtf: Udtf) -> FedResult<()> {
        let mut udtfs = self.udtfs.write();
        if udtfs.contains_key(&udtf.name) {
            return Err(FedError::catalog(format!(
                "function {} already registered",
                udtf.name
            )));
        }
        udtfs.insert(udtf.name.clone(), Arc::new(udtf));
        Ok(())
    }

    /// Drop a table function.
    pub fn drop_udtf(&self, name: &Ident) -> FedResult<()> {
        if self.udtfs.write().remove(name).is_none() {
            return Err(FedError::catalog(format!("unknown function {name}")));
        }
        Ok(())
    }

    pub fn udtf(&self, name: &Ident) -> FedResult<Arc<Udtf>> {
        self.udtfs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| FedError::catalog(format!("unknown function {name}")))
    }

    pub fn has_udtf(&self, name: &Ident) -> bool {
        self.udtfs.read().contains_key(name)
    }

    /// ANALYZE one table: collect full statistics and store them. Local
    /// tables are stamped with their mutation epoch (read *before* the
    /// scan, so a concurrent mutation makes the entry stale rather than
    /// silently wrong); foreign statistics carry no epoch.
    pub fn analyze_table(&self, name: &Ident) -> FedResult<Arc<TableStatistics>> {
        let (origin, _) = self.resolve_table(name)?;
        let collected = match origin {
            TableOrigin::Local => {
                let epoch = self.local.table_mutation_epoch(name.as_str())?;
                let table = self.local.scan_all(name.as_str())?;
                TableStatistics::from_table(&table).with_epoch(epoch)
            }
            TableOrigin::Foreign {
                server,
                remote_name,
            } => server.collect_statistics(&remote_name)?,
        };
        let stats = Arc::new(collected);
        self.stats.write().insert(name.clone(), stats.clone());
        Ok(stats)
    }

    /// ANALYZE every table in the catalog (local and foreign). Returns
    /// the number of tables analyzed.
    pub fn analyze(&self) -> FedResult<usize> {
        let mut names: Vec<Ident> = self
            .local
            .table_names()
            .into_iter()
            .map(Ident::new)
            .collect();
        names.extend(self.foreign_tables.read().keys().cloned());
        for name in &names {
            self.analyze_table(name)?;
        }
        Ok(names.len())
    }

    /// Fresh statistics for a table, if any. A local entry whose source
    /// has mutated past the collection epoch is dropped and `None` is
    /// returned — the optimizer then falls back to live row counts.
    pub fn statistics(&self, name: &Ident) -> Option<Arc<TableStatistics>> {
        let entry = self.stats.read().get(name).cloned()?;
        if let Some(epoch) = entry.epoch {
            let fresh = self
                .local
                .table_mutation_epoch(name.as_str())
                .map(|current| current <= epoch)
                .unwrap_or(false);
            if !fresh {
                self.stats.write().remove(name);
                return None;
            }
        }
        Some(entry)
    }

    /// Drop any stored statistics for one table (DDL invalidation).
    pub fn invalidate_statistics(&self, name: &Ident) {
        self.stats.write().remove(name);
    }

    pub fn udtf_names(&self) -> Vec<String> {
        self.udtfs
            .read()
            .values()
            .map(|u| u.name.as_str().to_string())
            .collect()
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("local_tables", &self.local.table_names())
            .field(
                "foreign_tables",
                &self
                    .foreign_tables
                    .read()
                    .keys()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>(),
            )
            .field("udtfs", &self.udtf_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sqlmed::RelstoreServer;
    use fedwf_types::{DataType, Schema, Table, Value};

    fn catalog_with_foreign() -> Catalog {
        let cat = Catalog::new();
        let remote = Database::new("remote");
        remote
            .create_table("T", Arc::new(Schema::of(&[("a", DataType::Int)])))
            .unwrap();
        let server = Arc::new(RelstoreServer::new("erp", Arc::new(remote)));
        cat.register_foreign_table("RemoteT", server, "T").unwrap();
        cat
    }

    #[test]
    fn local_table_resolution() {
        let cat = Catalog::new();
        cat.local()
            .create_table("L", Arc::new(Schema::of(&[("x", DataType::Int)])))
            .unwrap();
        let (origin, schema) = cat.resolve_table(&Ident::new("l")).unwrap();
        assert!(matches!(origin, TableOrigin::Local));
        assert_eq!(schema.len(), 1);
    }

    #[test]
    fn foreign_table_resolution() {
        let cat = catalog_with_foreign();
        let (origin, _) = cat.resolve_table(&Ident::new("remotet")).unwrap();
        assert!(matches!(origin, TableOrigin::Foreign { .. }));
        assert!(cat.resolve_table(&Ident::new("nope")).is_err());
    }

    #[test]
    fn foreign_registration_validates_remote() {
        let cat = Catalog::new();
        let remote = Database::new("remote");
        let server = Arc::new(RelstoreServer::new("erp", Arc::new(remote)));
        assert!(cat.register_foreign_table("X", server, "Missing").is_err());
    }

    #[test]
    fn analyze_collects_and_mutations_invalidate() {
        use fedwf_types::Row;
        let cat = catalog_with_foreign();
        cat.local()
            .create_table(
                "L",
                Arc::new(Schema::of(&[("k", DataType::Int), ("v", DataType::Int)])),
            )
            .unwrap();
        for k in 0..10 {
            cat.local()
                .insert("L", Row::new(vec![Value::Int(k), Value::Int(k % 3)]))
                .unwrap();
        }
        // The foreign remote table is empty but analyzable.
        assert_eq!(cat.analyze().unwrap(), 2);
        let l = cat.statistics(&Ident::new("L")).unwrap();
        assert_eq!(l.row_count, 10);
        assert_eq!(l.columns[0].ndv, 10);
        assert_eq!(l.columns[1].ndv, 3);
        assert!(l.epoch.is_some());
        let f = cat.statistics(&Ident::new("RemoteT")).unwrap();
        assert_eq!(f.row_count, 0);
        assert!(f.epoch.is_none());
        // A mutation bumps the table's epoch past the collection stamp.
        cat.local()
            .insert("L", Row::new(vec![Value::Int(99), Value::Int(0)]))
            .unwrap();
        assert!(cat.statistics(&Ident::new("L")).is_none());
        // Foreign entries carry no epoch and survive local churn.
        assert!(cat.statistics(&Ident::new("RemoteT")).is_some());
        // Explicit invalidation drops the entry.
        cat.invalidate_statistics(&Ident::new("RemoteT"));
        assert!(cat.statistics(&Ident::new("RemoteT")).is_none());
    }

    #[test]
    fn udtf_registration_and_drop() {
        let cat = Catalog::new();
        let udtf = Udtf::native(
            "F",
            vec![],
            Arc::new(Schema::of(&[("x", DataType::Int)])),
            |_, _| Ok(Table::scalar("x", Value::Int(1))),
        );
        cat.register_udtf(udtf).unwrap();
        assert!(cat.has_udtf(&Ident::new("f")));
        let dup = Udtf::native(
            "F",
            vec![],
            Arc::new(Schema::of(&[("x", DataType::Int)])),
            |_, _| Ok(Table::scalar("x", Value::Int(1))),
        );
        assert!(cat.register_udtf(dup).is_err());
        cat.drop_udtf(&Ident::new("F")).unwrap();
        assert!(!cat.has_udtf(&Ident::new("f")));
        assert!(cat.drop_udtf(&Ident::new("F")).is_err());
    }
}
