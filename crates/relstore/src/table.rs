//! Heap tables with slot-stable row ids, index maintenance, and MVCC row
//! versions.
//!
//! Every slot holds a *version chain* (oldest first). A mutation by
//! statement `txn` closes the live version (`end = txn`) and/or pushes a new
//! one (`begin = txn, end = ∞`); nothing is overwritten in place, so a
//! reader pinned to epoch `e` reconstructs the exact post-statement-`e`
//! state with [`fedwf_types::txn::version_visible`]. Most chains hold a
//! single version — the copy-on-write cost is paid only by rows that were
//! actually updated since the last checkpoint pruned dead versions.
//!
//! Statement atomicity is undo-based: each mutation appends an [`UndoLog`]
//! entry, and [`StoredTable::abort`] replays the log backwards, restoring
//! rows *and index entries* bit-identically — no more whole-table backup
//! clones at the database layer.

use std::ops::Range;

use fedwf_types::txn::version_visible;
use fedwf_types::{
    ColumnBatch, ColumnBuilder, DataType, FedError, FedResult, Ident, Row, SchemaRef, Table, TxnId,
    Value, TXN_EPOCH_ZERO, TXN_INFINITY,
};

use crate::index::{Index, IndexKind};
use crate::predicate::Predicate;
use crate::wal::WalRecord;

/// Stable identifier of a row slot within one table.
pub type RowId = u64;

/// Where [`StoredTable::scan_into`] appends matching rows, each projected
/// onto the scan's columns (all of them when the projection is `None`).
pub(crate) trait ScanSink {
    /// An empty output of `schema`, opened once the scan has chosen its
    /// access path; that path visits at most `max_rows` candidate rows.
    fn open(schema: SchemaRef, max_rows: usize) -> Self;
    /// Append the matching `row`, which the scan found in `slot`.
    fn emit(&mut self, slot: usize, row: &Row, projection: Option<&[usize]>);
    fn len(&self) -> usize;
}

/// Slot output: the rows a DML statement selects, as slot numbers in the
/// order the scan visits them.
impl ScanSink for Vec<usize> {
    fn open(_schema: SchemaRef, _max_rows: usize) -> Vec<usize> {
        Vec::new()
    }

    fn emit(&mut self, slot: usize, _row: &Row, _projection: Option<&[usize]>) {
        self.push(slot);
    }

    fn len(&self) -> usize {
        self.len()
    }
}

/// Row output: each emitted row costs one refcount bump (or, projected,
/// one refcount bump per kept value). Rows grow on demand instead of
/// reserving `max_rows`: the bound counts candidates, not matches, and row
/// consumers such as the FDBS index-probe cache keep what was reserved.
impl ScanSink for Table {
    fn open(schema: SchemaRef, _max_rows: usize) -> Table {
        Table::new(schema)
    }

    fn emit(&mut self, _slot: usize, row: &Row, projection: Option<&[usize]>) {
        self.push_unchecked(match projection {
            Some(proj) => row.project(proj),
            None => row.clone(),
        });
    }

    fn len(&self) -> usize {
        self.row_count()
    }
}

/// Columnar output: one typed builder per projected column. Values are
/// appended straight out of the stored rows (VARCHAR payloads are
/// byte-copied, never re-boxed), so a columnar scan allocates nothing per
/// row.
pub(crate) struct ColumnSink {
    builders: Vec<ColumnBuilder>,
    rows: usize,
}

impl ScanSink for ColumnSink {
    fn open(schema: SchemaRef, max_rows: usize) -> ColumnSink {
        ColumnSink {
            builders: schema
                .columns()
                .iter()
                .map(|c| ColumnBuilder::with_capacity(Some(c.data_type), max_rows))
                .collect(),
            rows: 0,
        }
    }

    fn emit(&mut self, _slot: usize, row: &Row, projection: Option<&[usize]>) {
        match projection {
            Some(proj) => {
                for (b, &i) in self.builders.iter_mut().zip(proj) {
                    b.push(&row.values()[i]);
                }
            }
            None => {
                for (b, v) in self.builders.iter_mut().zip(row.values()) {
                    b.push(v);
                }
            }
        }
        self.rows += 1;
    }

    fn len(&self) -> usize {
        self.rows
    }
}

impl ColumnSink {
    pub(crate) fn finish(self) -> ColumnBatch {
        ColumnBatch::new(
            self.rows,
            self.builders
                .into_iter()
                .map(|b| std::sync::Arc::new(b.finish()))
                .collect(),
        )
    }
}

/// One pull of the chunk cursor ([`crate::Database::scan_chunk_columnar`]):
/// a row when the pull can match at most one (a unique-index point lookup,
/// a walk's last slot), column vectors otherwise. One row costs a refcount
/// bump where a batch builds one vector per column; from a few rows on,
/// the columnar kernels that take a batch are as fast or faster.
#[derive(Debug, Clone)]
pub enum ScanChunk {
    Rows(Table),
    Cols(ColumnBatch),
}

impl ScanChunk {
    pub fn len(&self) -> usize {
        match self {
            ScanChunk::Rows(t) => t.row_count(),
            ScanChunk::Cols(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn to_rows(&self) -> Vec<Row> {
        match self {
            ScanChunk::Rows(t) => t.rows().to_vec(),
            ScanChunk::Cols(b) => b.to_rows(),
        }
    }
}

/// The chunk cursor's sink: a [`ScanChunk`] of the form the pull's bound on
/// candidate rows picks.
pub(crate) enum ChunkSink {
    Rows(Table),
    Cols(ColumnSink),
}

impl ScanSink for ChunkSink {
    fn open(schema: SchemaRef, max_rows: usize) -> ChunkSink {
        if max_rows <= 1 {
            ChunkSink::Rows(Table::open(schema, max_rows))
        } else {
            ChunkSink::Cols(ColumnSink::open(schema, max_rows))
        }
    }

    fn emit(&mut self, slot: usize, row: &Row, projection: Option<&[usize]>) {
        match self {
            ChunkSink::Rows(t) => t.emit(slot, row, projection),
            ChunkSink::Cols(c) => c.emit(slot, row, projection),
        }
    }

    fn len(&self) -> usize {
        match self {
            ChunkSink::Rows(t) => ScanSink::len(t),
            ChunkSink::Cols(c) => c.len(),
        }
    }
}

impl ChunkSink {
    pub(crate) fn finish(self) -> ScanChunk {
        match self {
            ChunkSink::Rows(t) => ScanChunk::Rows(t),
            ChunkSink::Cols(c) => ScanChunk::Cols(c.finish()),
        }
    }
}

/// Optimizer-facing statistics for one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    pub row_count: usize,
    pub index_count: usize,
}

/// One version of a row: visible to epochs in `[begin, end)`.
#[derive(Debug, Clone)]
struct Version {
    begin: TxnId,
    end: TxnId,
    row: Row,
}

impl Version {
    fn live(begin: TxnId, row: Row) -> Version {
        Version {
            begin,
            end: TXN_INFINITY,
            row,
        }
    }

    fn is_live(&self) -> bool {
        self.end == TXN_INFINITY
    }
}

/// One reversible step of a statement. Entries are appended as the
/// statement mutates the table and popped (in reverse) by
/// [`StoredTable::abort`].
#[derive(Debug)]
enum UndoEntry {
    /// `insert` pushed a brand-new slot with one live version.
    Insert { slot: usize },
    /// `update_slot` closed the prior version and pushed a new one; the
    /// updated column's index entries moved `old_key -> new_key`.
    Update {
        slot: usize,
        column: usize,
        old_key: Value,
        new_key: Value,
    },
    /// `delete_slot` closed the live version and dropped its index entries.
    Delete { slot: usize },
}

/// The undo side of one statement. Also the statement's change record:
/// the database reads the statement's WAL redo records off its entries,
/// which list exactly what changed, in order.
#[derive(Debug, Default)]
pub struct UndoLog {
    entries: Vec<UndoEntry>,
}

impl UndoLog {
    pub fn new() -> UndoLog {
        UndoLog::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A heap table: schema, versioned row slots and the indexes over the
/// *live* versions (historic versions are found via sequential visibility
/// scans).
#[derive(Debug, Clone)]
pub struct StoredTable {
    name: Ident,
    schema: SchemaRef,
    slots: Vec<Vec<Version>>,
    live_rows: usize,
    indexes: Vec<Index>,
    /// Transaction id of the latest mutation. Index probes are valid for a
    /// pinned epoch only when `epoch >= last_mutation` (the indexes track
    /// live versions, which then coincide with the epoch's visible set).
    last_mutation: TxnId,
}

impl StoredTable {
    pub fn new(name: impl Into<Ident>, schema: SchemaRef) -> StoredTable {
        StoredTable {
            name: name.into(),
            schema,
            slots: vec![],
            live_rows: 0,
            indexes: vec![],
            last_mutation: TXN_EPOCH_ZERO,
        }
    }

    pub fn name(&self) -> &Ident {
        &self.name
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn stats(&self) -> TableStats {
        TableStats {
            row_count: self.live_rows,
            index_count: self.indexes.len(),
        }
    }

    /// Transaction id of the latest mutation. Derived artifacts (optimizer
    /// statistics, cached probe results) collected at epoch `e` remain
    /// valid while `last_mutation_epoch() <= e`.
    pub fn last_mutation_epoch(&self) -> TxnId {
        self.last_mutation
    }

    fn live_row(chain: &[Version]) -> Option<&Row> {
        chain.last().filter(|v| v.is_live()).map(|v| &v.row)
    }

    fn row_at(chain: &[Version], epoch: TxnId) -> Option<&Row> {
        chain
            .iter()
            .rev()
            .find(|v| version_visible(v.begin, v.end, epoch))
            .map(|v| &v.row)
    }

    /// Create an index over an existing column, back-filling current rows.
    pub fn create_index(
        &mut self,
        index_name: impl Into<String>,
        column_name: &str,
        kind: IndexKind,
    ) -> FedResult<()> {
        let column = self
            .schema
            .index_of(&Ident::new(column_name))
            .ok_or_else(|| {
                FedError::storage(format!(
                    "cannot index unknown column {column_name} of table {}",
                    self.name
                ))
            })?;
        self.build_index(index_name.into(), column, kind)
    }

    pub(crate) fn build_index(
        &mut self,
        index_name: String,
        column: usize,
        kind: IndexKind,
    ) -> FedResult<()> {
        if self.indexes.iter().any(|i| i.name == index_name) {
            return Err(FedError::storage(format!(
                "index {index_name} already exists on table {}",
                self.name
            )));
        }
        let mut index = Index::new(index_name, column, kind);
        for (slot, chain) in self.slots.iter().enumerate() {
            if let Some(row) = Self::live_row(chain) {
                index.insert(&row.values()[column], slot as RowId)?;
            }
        }
        self.indexes.push(index);
        Ok(())
    }

    /// Remove an index again (undo of a failed `CREATE INDEX` statement).
    pub(crate) fn drop_index(&mut self, index_name: &str) {
        self.indexes.retain(|i| i.name != index_name);
    }

    /// Insert a row as statement `txn`; returns its row id. All indexes are
    /// maintained; a unique violation rolls the insert back before
    /// returning (nothing is appended to `undo` for a failed insert).
    pub fn insert(&mut self, row: Row, txn: TxnId, undo: &mut UndoLog) -> FedResult<RowId> {
        self.schema.check_row(&row)?;
        let row_id = self.slots.len() as RowId;
        for (i, index) in self.indexes.iter_mut().enumerate() {
            if let Err(e) = index.insert(&row.values()[index.column], row_id) {
                // Roll back entries added to earlier indexes.
                for earlier in &mut self.indexes[..i] {
                    earlier.remove(&row.values()[earlier.column], row_id);
                }
                return Err(e);
            }
        }
        self.slots.push(vec![Version::live(txn, row)]);
        self.live_rows += 1;
        self.last_mutation = txn;
        undo.entries.push(UndoEntry::Insert {
            slot: row_id as usize,
        });
        Ok(row_id)
    }

    /// Fetch the live row by id.
    pub fn get(&self, row_id: RowId) -> Option<&Row> {
        Self::live_row(self.slots.get(row_id as usize)?)
    }

    /// Close the live version of `slot` as deleted by `txn`.
    pub(crate) fn delete_slot(
        &mut self,
        slot: usize,
        txn: TxnId,
        undo: &mut UndoLog,
    ) -> FedResult<()> {
        let chain = self.slots.get_mut(slot).ok_or_else(|| {
            FedError::storage(format!("slot {slot} out of range in table {}", self.name))
        })?;
        let Some(live) = chain.last_mut().filter(|v| v.is_live()) else {
            return Err(FedError::storage(format!(
                "slot {slot} of table {} has no live row to delete",
                self.name
            )));
        };
        live.end = txn;
        let row = live.row.clone();
        for index in &mut self.indexes {
            index.remove(&row.values()[index.column], slot as RowId);
        }
        self.live_rows -= 1;
        self.last_mutation = txn;
        undo.entries.push(UndoEntry::Delete { slot });
        Ok(())
    }

    /// The live slots matching `predicate`, ascending. The one read loop
    /// selects them at [`TXN_INFINITY`], through an index when one serves,
    /// so a DML statement finds its rows the way a SELECT of the same
    /// predicate would, and selects every row before it changes one.
    fn select_slots(&self, predicate: &Predicate) -> FedResult<Vec<usize>> {
        let (mut slots, _) =
            self.scan_into::<Vec<usize>>(predicate, None, 0, usize::MAX, TXN_INFINITY)?;
        slots.sort_unstable();
        Ok(slots)
    }

    /// Delete rows matching the predicate as statement `txn`; returns how
    /// many were removed.
    pub fn delete_where(
        &mut self,
        predicate: &Predicate,
        txn: TxnId,
        undo: &mut UndoLog,
    ) -> FedResult<usize> {
        let slots = self.select_slots(predicate)?;
        for &slot in &slots {
            self.delete_slot(slot, txn, undo)?;
        }
        Ok(slots.len())
    }

    /// Update one slot's `column` to `value` as statement `txn`, moving
    /// index entries on that column. A unique violation restores the
    /// touched index entries before returning, leaving the slot untouched.
    pub(crate) fn update_slot(
        &mut self,
        slot: usize,
        column: usize,
        value: &Value,
        txn: TxnId,
        undo: &mut UndoLog,
    ) -> FedResult<()> {
        let chain = self.slots.get(slot).ok_or_else(|| {
            FedError::storage(format!("slot {slot} out of range in table {}", self.name))
        })?;
        let Some(old_row) = Self::live_row(chain) else {
            return Err(FedError::storage(format!(
                "slot {slot} of table {} has no live row to update",
                self.name
            )));
        };
        let old_key = old_row.values()[column].clone();
        let mut new_values = old_row.clone().into_values();
        new_values[column] = value.clone();
        let row_id = slot as RowId;
        // Move index entries on the updated column; on a unique violation
        // restore every entry this row already moved.
        let affected: Vec<usize> = (0..self.indexes.len())
            .filter(|&i| self.indexes[i].column == column)
            .collect();
        for (n, &i) in affected.iter().enumerate() {
            self.indexes[i].remove(&old_key, row_id);
            if let Err(e) = self.indexes[i].insert(value, row_id) {
                self.indexes[i]
                    .insert(&old_key, row_id)
                    .expect("restoring a previously held key cannot violate uniqueness");
                for &earlier in &affected[..n] {
                    self.indexes[earlier].remove(value, row_id);
                    self.indexes[earlier]
                        .insert(&old_key, row_id)
                        .expect("restoring a previously held key cannot violate uniqueness");
                }
                return Err(e);
            }
        }
        let chain = &mut self.slots[slot];
        chain.last_mut().expect("live row checked above").end = txn;
        chain.push(Version::live(txn, Row::new(new_values)));
        self.last_mutation = txn;
        undo.entries.push(UndoEntry::Update {
            slot,
            column,
            old_key,
            new_key: value.clone(),
        });
        Ok(())
    }

    /// The column an UPDATE assigns `value` to, checked against the
    /// column's type and nullability.
    fn assigned_column(&self, column_name: &str, value: &Value) -> FedResult<usize> {
        let column = self
            .schema
            .index_of(&Ident::new(column_name))
            .ok_or_else(|| {
                FedError::storage(format!(
                    "unknown column {column_name} in table {}",
                    self.name
                ))
            })?;
        let col_meta = self.schema.column(column).expect("index validated");
        if let Some(dt) = value.data_type() {
            if dt != col_meta.data_type {
                return Err(FedError::schema(format!(
                    "column {} expects {} but update supplies {}",
                    col_meta.name, col_meta.data_type, dt
                )));
            }
        } else if !col_meta.nullable {
            return Err(FedError::schema(format!(
                "column {} is NOT NULL",
                col_meta.name
            )));
        }
        Ok(column)
    }

    /// Apply `assignments` (column name, new value) left to right to every
    /// row matching the predicate, as statement `txn`; returns the number
    /// of updated rows. The rows are selected before any changes, and every
    /// assignment is checked before any row changes. The statement is
    /// atomic at this level: an error mid-way undoes the rows already
    /// updated — rows *and* index entries come back bit-identical.
    pub fn update_where(
        &mut self,
        predicate: &Predicate,
        assignments: &[(&str, Value)],
        txn: TxnId,
        undo: &mut UndoLog,
    ) -> FedResult<usize> {
        let slots = self.select_slots(predicate)?;
        let columns = assignments
            .iter()
            .map(|(name, value)| self.assigned_column(name, value))
            .collect::<FedResult<Vec<usize>>>()?;
        let mark = undo.len();
        for &slot in &slots {
            for (&column, (_, value)) in columns.iter().zip(assignments) {
                if let Err(e) = self.update_slot(slot, column, value, txn, undo) {
                    self.abort_to(undo, mark);
                    return Err(e);
                }
            }
        }
        Ok(slots.len())
    }

    /// Undo everything the current statement logged: pop entries in reverse
    /// until the log is back to length `mark`, restoring versions, slot
    /// count and index entries exactly.
    pub(crate) fn abort_to(&mut self, undo: &mut UndoLog, mark: usize) {
        while undo.entries.len() > mark {
            match undo.entries.pop().expect("len checked") {
                UndoEntry::Insert { slot } => {
                    let version = self.slots[slot].pop().expect("undone insert has a version");
                    for index in &mut self.indexes {
                        index.remove(&version.row.values()[index.column], slot as RowId);
                    }
                    // Inserts only ever append, and undo runs in reverse, so
                    // the slot is the last one — popping it restores the
                    // next insert's row id too.
                    if self.slots[slot].is_empty() && slot + 1 == self.slots.len() {
                        self.slots.pop();
                    }
                    self.live_rows -= 1;
                }
                UndoEntry::Update {
                    slot,
                    column,
                    old_key,
                    new_key,
                } => {
                    self.slots[slot].pop().expect("undone update has a version");
                    self.slots[slot]
                        .last_mut()
                        .expect("undone update has a prior version")
                        .end = TXN_INFINITY;
                    for index in &mut self.indexes {
                        if index.column == column {
                            index.remove(&new_key, slot as RowId);
                            index
                                .insert(&old_key, slot as RowId)
                                .expect("undo restores a previously valid key");
                        }
                    }
                }
                UndoEntry::Delete { slot } => {
                    let version = self.slots[slot]
                        .last_mut()
                        .expect("undone delete has a version");
                    version.end = TXN_INFINITY;
                    let row = version.row.clone();
                    for index in &mut self.indexes {
                        index
                            .insert(&row.values()[index.column], slot as RowId)
                            .expect("undo restores a previously valid key");
                    }
                    self.live_rows += 1;
                }
            }
        }
    }

    /// Undo the whole statement the log describes.
    pub fn abort(&mut self, undo: &mut UndoLog) {
        self.abort_to(undo, 0);
    }

    /// The WAL redo records of a successful statement, in order, read off
    /// its undo log.
    pub(crate) fn redo_records(&self, undo: &UndoLog) -> Vec<WalRecord> {
        let table = self.name.as_str();
        undo.entries
            .iter()
            .map(|e| match e {
                UndoEntry::Insert { slot } => WalRecord::Insert {
                    table: table.to_string(),
                    row: self
                        .get(*slot as RowId)
                        .expect("freshly inserted row is live")
                        .values()
                        .to_vec(),
                },
                UndoEntry::Update {
                    slot,
                    column,
                    new_key,
                    ..
                } => WalRecord::Update {
                    table: table.to_string(),
                    slot: *slot as RowId,
                    column: *column as u32,
                    value: new_key.clone(),
                },
                UndoEntry::Delete { slot } => WalRecord::Delete {
                    table: table.to_string(),
                    slot: *slot as RowId,
                },
            })
            .collect()
    }

    /// Row of `chain` visible at `epoch`; the live row when `epoch` is
    /// [`TXN_INFINITY`] (a live uncommitted version has `begin <= epoch`
    /// trivially, which is correct because the writer holding the lock is
    /// the only one who can observe it).
    fn version_at(chain: &[Version], epoch: TxnId) -> Option<&Row> {
        if epoch == TXN_INFINITY {
            Self::live_row(chain)
        } else {
            Self::row_at(chain, epoch)
        }
    }

    /// The one read loop behind every scan: rows visible at `epoch` that
    /// satisfy `predicate`, projected onto `projection` (all columns when
    /// `None`) and appended to a fresh sink `S`. The predicate keeps the
    /// table's full column numbering; it is validated first, then the
    /// projection, both before any row is emitted.
    ///
    /// Returns the sink plus the slot to resume from, or `None` when the
    /// table is exhausted — the pull-based cursor behind the streaming
    /// executor. A walk visits slots from `start_slot` on and stops once
    /// `max_rows` rows matched; because the caller pins `epoch`, a
    /// multi-chunk scan sees one consistent snapshot even when statements
    /// commit between pulls. An index-served predicate is answered entirely
    /// by the first pull (index result sets are already small and bounded).
    pub(crate) fn scan_into<S: ScanSink>(
        &self,
        predicate: &Predicate,
        projection: Option<&[usize]>,
        start_slot: RowId,
        max_rows: usize,
        epoch: TxnId,
    ) -> FedResult<(S, Option<RowId>)> {
        predicate.validate(&self.schema)?;
        let schema = self.projected_schema(projection)?;
        let (probe, walk, limit): (&[RowId], Range<usize>, usize) =
            match self.pick_index_at(predicate, epoch) {
                Some((index, key)) if start_slot == 0 => (index.lookup(key), 0..0, usize::MAX),
                Some(_) => (&[], 0..0, usize::MAX),
                None => (&[], start_slot as usize..self.slots.len(), max_rows),
            };
        let mut sink = S::open(schema, probe.len() + walk.len().min(limit));
        let mut resume = walk.start;
        for slot in probe.iter().map(|&id| id as usize).chain(walk.clone()) {
            if sink.len() >= limit {
                break;
            }
            resume = slot + 1;
            if let Some(row) = self
                .slots
                .get(slot)
                .and_then(|c| Self::version_at(c, epoch))
            {
                if predicate.selects(row)? {
                    sink.emit(slot, row, projection);
                }
            }
        }
        Ok((sink, (resume < walk.end).then_some(resume as RowId)))
    }

    fn projected_schema(&self, projection: Option<&[usize]>) -> FedResult<SchemaRef> {
        match projection {
            None => Ok(self.schema.clone()),
            Some(proj) => {
                if let Some(&bad) = proj.iter().find(|&&i| i >= self.schema.len()) {
                    return Err(FedError::storage(format!(
                        "projection column {bad} out of range for table {} (width {})",
                        self.name,
                        self.schema.len()
                    )));
                }
                Ok(std::sync::Arc::new(self.schema.project(proj)))
            }
        }
    }

    /// Whether a scan of `predicate` would be served by an index.
    pub fn index_serves(&self, predicate: &Predicate) -> bool {
        self.pick_index_at(predicate, TXN_INFINITY).is_some()
    }

    /// Index usable for this predicate at this epoch: the indexes cover
    /// live versions only, so a pinned epoch must be no older than the last
    /// mutation for the probe to be complete.
    ///
    /// A DOUBLE key never probes an integer column: the index orders
    /// integers exactly but a DOUBLE as f64, which is not transitive across
    /// the two (2^53 and 2^53 + 1 both equal 2^53 as f64), so the lookup
    /// would find one of the keys the scan's `sql_cmp` matches. An integer
    /// key against a DOUBLE column compares as f64 throughout and may probe.
    fn pick_index_at<'a>(
        &'a self,
        predicate: &'a Predicate,
        epoch: TxnId,
    ) -> Option<(&'a Index, &'a Value)> {
        if epoch < self.last_mutation {
            return None;
        }
        let (column, key) = predicate.equality_binding()?;
        let index = self.indexes.iter().find(|i| i.column == column)?;
        if matches!(key, Value::Double(_))
            && self.schema.columns()[column].data_type != DataType::Double
        {
            return None;
        }
        Some((index, key))
    }

    /// Clone-free iteration over live rows, for engine-internal use.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, chain)| Self::live_row(chain).map(|r| (slot as RowId, r)))
    }

    // -- checkpoint / recovery support -------------------------------------

    /// Total slot count including tombstoned slots — snapshots must record
    /// it so recovered inserts keep allocating the same row ids.
    pub(crate) fn slot_count(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Index definitions, for snapshot encoding.
    pub(crate) fn index_defs(&self) -> Vec<(String, usize, IndexKind)> {
        self.indexes
            .iter()
            .map(|i| (i.name.clone(), i.column, i.kind))
            .collect()
    }

    /// Rebuild a table from checkpoint state: live rows at their original
    /// slots (version chains collapse to a single epoch-zero version) and
    /// back-filled indexes.
    pub(crate) fn from_snapshot(
        name: Ident,
        schema: SchemaRef,
        slot_count: u64,
        rows: Vec<(RowId, Row)>,
        indexes: Vec<(String, usize, IndexKind)>,
    ) -> FedResult<StoredTable> {
        let mut slots: Vec<Vec<Version>> = vec![Vec::new(); slot_count as usize];
        let mut live_rows = 0;
        for (slot, row) in rows {
            let chain = slots.get_mut(slot as usize).ok_or_else(|| {
                FedError::recovery(format!(
                    "snapshot row slot {slot} out of range for table {name} ({slot_count} slots)"
                ))
            })?;
            if !chain.is_empty() {
                return Err(FedError::recovery(format!(
                    "snapshot holds two rows for slot {slot} of table {name}"
                )));
            }
            schema.check_row(&row)?;
            chain.push(Version::live(TXN_EPOCH_ZERO, row));
            live_rows += 1;
        }
        let mut t = StoredTable {
            name,
            schema,
            slots,
            live_rows,
            indexes: vec![],
            last_mutation: TXN_EPOCH_ZERO,
        };
        for (index_name, column, kind) in indexes {
            t.build_index(index_name, column, kind)?;
        }
        Ok(t)
    }

    /// Drop versions no reader can need anymore: every chain collapses to
    /// its live version (or empties, for deleted rows). Called under the
    /// database write lock at checkpoint time; epoch-pinned cursors opened
    /// *before* the checkpoint must not be resumed across it.
    pub(crate) fn prune_versions(&mut self) {
        for chain in &mut self.slots {
            if chain.len() > 1 || chain.last().is_some_and(|v| !v.is_live()) {
                let live = chain.pop().filter(Version::is_live);
                chain.clear();
                chain.extend(live);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::{DataType, Schema};
    use std::sync::Arc;

    /// Insert committing immediately, for tests that don't exercise undo.
    fn ins(t: &mut StoredTable, txn: TxnId, row: Row) -> FedResult<RowId> {
        t.insert(row, txn, &mut UndoLog::new())
    }

    /// One whole scan through the read loop as of `epoch`.
    fn scan_at(
        t: &StoredTable,
        predicate: &Predicate,
        projection: Option<&[usize]>,
        epoch: TxnId,
    ) -> FedResult<Table> {
        let (out, next) = t.scan_into(predicate, projection, 0, usize::MAX, epoch)?;
        assert_eq!(next, None, "an unbounded scan finishes in one pull");
        Ok(out)
    }

    /// Live-view scan of whole rows.
    fn scan(t: &StoredTable, predicate: &Predicate) -> FedResult<Table> {
        scan_at(t, predicate, None, TXN_INFINITY)
    }

    fn suppliers() -> StoredTable {
        let schema = Arc::new(Schema::of(&[
            ("SupplierNo", DataType::Int),
            ("Name", DataType::Varchar),
            ("Reliability", DataType::Int),
        ]));
        let mut t = StoredTable::new("Suppliers", schema);
        t.create_index("pk", "SupplierNo", IndexKind::Unique)
            .unwrap();
        t.create_index("by_name", "Name", IndexKind::NonUnique)
            .unwrap();
        for (txn, (no, name, rel)) in [(1, "Acme", 80), (2, "Bolt", 95), (3, "Cog", 70)]
            .into_iter()
            .enumerate()
        {
            ins(
                &mut t,
                txn as TxnId + 1,
                Row::new(vec![Value::Int(no), Value::str(name), Value::Int(rel)]),
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_and_scan_all() {
        let t = suppliers();
        let all = scan(&t, &Predicate::True).unwrap();
        assert_eq!(all.row_count(), 3);
        assert_eq!(t.stats().row_count, 3);
        assert_eq!(t.stats().index_count, 2);
    }

    #[test]
    fn unique_index_enforced_with_rollback() {
        let mut t = suppliers();
        let err = ins(
            &mut t,
            4,
            Row::new(vec![Value::Int(1), Value::str("Dup"), Value::Int(1)]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unique"));
        // The failed insert must not leave residue in the name index.
        let found = scan(&t, &Predicate::eq(1, "Dup")).unwrap();
        assert_eq!(found.row_count(), 0);
        assert_eq!(t.stats().row_count, 3);
    }

    #[test]
    fn indexed_scan_matches_full_scan() {
        let t = suppliers();
        let p = Predicate::eq(0, 2);
        assert!(t.index_serves(&p));
        let via_index = scan(&t, &p).unwrap();
        assert_eq!(via_index.row_count(), 1);
        assert_eq!(via_index.value(0, "Name"), Some(&Value::str("Bolt")));
    }

    #[test]
    fn scan_with_residual_predicate_over_index() {
        let t = suppliers();
        // Equality on the indexed column AND an extra condition that fails.
        let p = Predicate::eq(0, 2).and(Predicate::eq(2, 1));
        let got = scan(&t, &p).unwrap();
        assert_eq!(got.row_count(), 0);
    }

    #[test]
    fn delete_maintains_indexes_and_count() {
        let mut t = suppliers();
        let n = t
            .delete_where(&Predicate::eq(1, "Bolt"), 4, &mut UndoLog::new())
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.stats().row_count, 2);
        assert_eq!(scan(&t, &Predicate::eq(0, 2)).unwrap().row_count(), 0);
        // Row id 2 is untouched.
        assert_eq!(scan(&t, &Predicate::eq(0, 3)).unwrap().row_count(), 1);
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = suppliers();
        let n = t
            .update_where(
                &Predicate::eq(0, 3),
                &[("Name", Value::str("Cogs Inc"))],
                4,
                &mut UndoLog::new(),
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(scan(&t, &Predicate::eq(1, "Cog")).unwrap().row_count(), 0);
        assert_eq!(
            scan(&t, &Predicate::eq(1, "Cogs Inc")).unwrap().row_count(),
            1
        );
    }

    #[test]
    fn update_type_mismatch_rejected() {
        let mut t = suppliers();
        assert!(t
            .update_where(
                &Predicate::True,
                &[("Reliability", Value::str("high"))],
                4,
                &mut UndoLog::new()
            )
            .is_err());
    }

    #[test]
    fn failed_multi_row_update_restores_rows_and_indexes() {
        let mut t = suppliers();
        // Setting every Name to "Bolt" dies on the unique pk? No — Name is
        // non-unique. Provoke the failure on the unique pk instead.
        let err = t
            .update_where(
                &Predicate::True,
                &[("SupplierNo", Value::Int(7))],
                4,
                &mut UndoLog::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("unique"));
        // Rows are back exactly.
        let all = scan(&t, &Predicate::True).unwrap();
        let keys: Vec<_> = all.rows().iter().map(|r| r.values()[0].clone()).collect();
        assert_eq!(keys, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        // The index is back exactly too: probing the aborted key finds
        // nothing, probing the original keys finds each row.
        assert_eq!(scan(&t, &Predicate::eq(0, 7)).unwrap().row_count(), 0);
        for k in 1..=3 {
            assert_eq!(scan(&t, &Predicate::eq(0, k)).unwrap().row_count(), 1);
        }
    }

    #[test]
    fn create_index_on_unknown_column_fails() {
        let mut t = suppliers();
        assert!(t
            .create_index("x", "Missing", IndexKind::NonUnique)
            .is_err());
        assert!(t.create_index("pk", "Name", IndexKind::NonUnique).is_err());
    }

    #[test]
    fn scan_project_prunes_columns_but_filters_on_full_layout() {
        let t = suppliers();
        // Predicate on Reliability (col 2), projection keeps only Name.
        let p = Predicate::cmp(2, crate::predicate::CmpOp::GtEq, 80);
        let got = scan_at(&t, &p, Some(&[1]), TXN_INFINITY).unwrap();
        assert_eq!(got.schema().len(), 1);
        assert_eq!(got.row_count(), 2);
        assert_eq!(got.value(0, "Name"), Some(&Value::str("Acme")));
        // Out-of-range projection fails loudly.
        assert!(scan_at(&t, &Predicate::True, Some(&[7]), TXN_INFINITY).is_err());
    }

    #[test]
    fn scan_chunk_resumes_and_matches_full_scan() {
        let t = suppliers();
        let mut rows = vec![];
        let mut cursor = Some(0);
        let mut chunks = 0;
        while let Some(start) = cursor {
            let (chunk, next) = t
                .scan_into::<Table>(&Predicate::True, Some(&[0]), start, 2, TXN_INFINITY)
                .unwrap();
            rows.extend(chunk.into_rows());
            cursor = next;
            chunks += 1;
        }
        assert_eq!(chunks, 2, "3 rows at 2 per chunk takes two pulls");
        let full = scan_at(&t, &Predicate::True, Some(&[0]), TXN_INFINITY).unwrap();
        assert_eq!(rows, full.rows().to_vec());
    }

    #[test]
    fn scan_chunk_serves_indexed_predicate_in_one_pull() {
        let t = suppliers();
        let p = Predicate::eq(0, 2);
        let (rows, next) = t.scan_into::<Table>(&p, None, 0, 1, TXN_INFINITY).unwrap();
        assert_eq!(rows.row_count(), 1);
        assert_eq!(next, None);
    }

    #[test]
    fn backfilled_index_sees_existing_rows() {
        let schema = Arc::new(Schema::of(&[("a", DataType::Int)]));
        let mut t = StoredTable::new("T", schema);
        ins(&mut t, 1, Row::new(vec![Value::Int(9)])).unwrap();
        t.create_index("late", "a", IndexKind::Unique).unwrap();
        assert!(t.index_serves(&Predicate::eq(0, 9)));
        assert_eq!(scan(&t, &Predicate::eq(0, 9)).unwrap().row_count(), 1);
    }

    #[test]
    fn pinned_epoch_sees_pre_update_state() {
        let mut t = suppliers();
        let epoch = 3; // after the three inserts
        t.update_where(
            &Predicate::True,
            &[("Reliability", Value::Int(0))],
            4,
            &mut UndoLog::new(),
        )
        .unwrap();
        // Live view: all zero.
        let live = scan(&t, &Predicate::eq(2, 0)).unwrap();
        assert_eq!(live.row_count(), 3);
        // Pinned epoch 3: the old reliabilities, via the version chains.
        let old = scan_at(&t, &Predicate::eq(2, 0), None, epoch).unwrap();
        assert_eq!(old.row_count(), 0);
        let acme = scan_at(&t, &Predicate::eq(0, 1), None, epoch).unwrap();
        assert_eq!(acme.value(0, "Reliability"), Some(&Value::Int(80)));
    }

    #[test]
    fn pinned_epoch_resurrects_deleted_rows() {
        let mut t = suppliers();
        t.delete_where(&Predicate::True, 4, &mut UndoLog::new())
            .unwrap();
        assert_eq!(scan(&t, &Predicate::True).unwrap().row_count(), 0);
        let before = scan_at(&t, &Predicate::True, None, 3).unwrap();
        assert_eq!(before.row_count(), 3);
        // And an epoch before any insert sees nothing.
        let empty = scan_at(&t, &Predicate::True, None, 0).unwrap();
        assert_eq!(empty.row_count(), 0);
    }

    #[test]
    fn abort_restores_inserts_and_row_ids() {
        let mut t = suppliers();
        let mut undo = UndoLog::new();
        ins(
            &mut t,
            4,
            Row::new(vec![Value::Int(9), Value::str("X"), Value::Int(1)]),
        )
        .ok();
        let before = t.slot_count();
        t.insert(
            Row::new(vec![Value::Int(10), Value::str("Y"), Value::Int(1)]),
            5,
            &mut undo,
        )
        .unwrap();
        t.abort(&mut undo);
        assert_eq!(t.slot_count(), before, "aborted insert frees its slot");
        assert_eq!(scan(&t, &Predicate::eq(0, 10)).unwrap().row_count(), 0);
        // The freed row id is reused by the next insert.
        let id = ins(
            &mut t,
            6,
            Row::new(vec![Value::Int(11), Value::str("Z"), Value::Int(1)]),
        )
        .unwrap();
        assert_eq!(id, before);
    }

    #[test]
    fn prune_collapses_chains_but_keeps_live_state() {
        let mut t = suppliers();
        t.update_where(
            &Predicate::True,
            &[("Reliability", Value::Int(1))],
            4,
            &mut UndoLog::new(),
        )
        .unwrap();
        t.delete_where(&Predicate::eq(0, 2), 5, &mut UndoLog::new())
            .unwrap();
        t.prune_versions();
        assert_eq!(scan(&t, &Predicate::True).unwrap().row_count(), 2);
        assert_eq!(t.stats().row_count, 2);
        // Historic epochs are gone after pruning.
        assert_eq!(
            scan_at(&t, &Predicate::True, None, 3).unwrap().row_count(),
            0
        );
    }
}
