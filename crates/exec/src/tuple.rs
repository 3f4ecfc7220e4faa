//! Tuples, schemas, and columnar batches for intermediate results.
//!
//! The executor moves data in [`TupleBatch`]es — column-major arrays
//! of [`Entry`] values sharing one [`Schema`] — rather than one
//! heap-allocated row at a time. A materialized query result keeps
//! the root operator's batches as emitted ([`Rows`]), so no path from
//! a join to the caller allocates per row. Row-major [`Tuple`]s remain
//! only at the edges (test fixtures, [`crate::ops::VecInput`]).

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use sjos_pattern::PnId;
use sjos_xml::{NodeId, Region};

/// Default number of rows per [`TupleBatch`]: large enough to
/// amortize virtual dispatch and atomic metric updates over ~1K rows,
/// small enough that a batch of a few columns stays cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// One column value: the bound element's identity and region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The bound element.
    pub node: NodeId,
    /// Its region encoding (kept inline so joins never chase the
    /// document).
    pub region: Region,
}

/// A row of an intermediate result: one [`Entry`] per schema column.
pub type Tuple = Vec<Entry>;

/// Column layout of an intermediate result: which pattern node each
/// column binds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<PnId>,
}

impl Schema {
    /// Single-column schema.
    pub fn singleton(id: PnId) -> Schema {
        Schema { columns: vec![id] }
    }

    /// Build from explicit columns.
    ///
    /// # Panics
    /// Panics if a pattern node repeats.
    pub fn new(columns: Vec<PnId>) -> Schema {
        let mut sorted = columns.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), columns.len(), "duplicate column in schema");
        Schema { columns }
    }

    /// Concatenation `self ++ other` (as a join produces it).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend_from_slice(&other.columns);
        Schema::new(columns)
    }

    /// Columns in layout order.
    pub fn columns(&self) -> &[PnId] {
        &self.columns
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Position of the column binding `id`.
    pub fn position(&self, id: PnId) -> Option<usize> {
        self.columns.iter().position(|&c| c == id)
    }

    /// True if the schema binds `id`.
    pub fn binds(&self, id: PnId) -> bool {
        self.position(id).is_some()
    }
}

/// A column-major batch of rows sharing one [`Schema`].
///
/// Invariant: every column vector has the same length (`len()`).
/// Batches produced by operators are never empty — end-of-stream is
/// signalled by `None` from [`crate::ops::Operator::next_batch`], not
/// by an empty batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleBatch {
    schema: Arc<Schema>,
    columns: Vec<Vec<Entry>>,
}

impl TupleBatch {
    /// Empty batch for `schema` with no reserved capacity.
    pub fn new(schema: Arc<Schema>) -> TupleBatch {
        TupleBatch::with_capacity(schema, 0)
    }

    /// Empty batch for `schema`, each column pre-reserving `cap` rows.
    pub fn with_capacity(schema: Arc<Schema>, cap: usize) -> TupleBatch {
        let width = schema.width();
        TupleBatch { schema, columns: (0..width).map(|_| Vec::with_capacity(cap)).collect() }
    }

    /// Build a batch from row-major tuples (each must match the
    /// schema width).
    pub fn from_rows<'a, I>(schema: Arc<Schema>, rows: I) -> TupleBatch
    where
        I: IntoIterator<Item = &'a [Entry]>,
    {
        let mut batch = TupleBatch::new(schema);
        for row in rows {
            batch.push_row(row);
        }
        batch
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns (schema width).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `col` as a contiguous slice.
    pub fn column(&self, col: usize) -> &[Entry] {
        &self.columns[col]
    }

    /// Entry at (`col`, `row`).
    pub fn entry(&self, col: usize, row: usize) -> Entry {
        self.columns[col][row]
    }

    /// Row `row` materialized as a row-major [`Tuple`].
    pub fn row(&self, row: usize) -> Tuple {
        self.columns.iter().map(|c| c[row]).collect()
    }

    /// Append a row-major row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the schema width.
    pub fn push_row(&mut self, row: &[Entry]) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        for (col, &e) in self.columns.iter_mut().zip(row) {
            col.push(e);
        }
    }

    /// Copy row `row` onto the end of a flat row-major buffer (one
    /// entry per column) — how the merge join keeps its current left
    /// row without allocating a [`Tuple`].
    pub(crate) fn append_row_to(&self, row: usize, out: &mut Vec<Entry>) {
        out.extend(self.columns.iter().map(|c| c[row]));
    }

    /// Rows the batch holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.columns.iter().map(Vec::capacity).min().unwrap_or(0)
    }

    /// Make room for at least `additional` more rows in every column
    /// without the doubling slack of amortized growth — for a batch
    /// about to overshoot its target by a known amount and then be
    /// kept.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        for col in &mut self.columns {
            col.reserve_exact(additional);
        }
    }

    /// Bulk-append entries to a single column. The caller must bring
    /// all columns back to equal lengths before the batch is read —
    /// this is the gather/emission primitive for sort and joins.
    pub(crate) fn extend_column<I: IntoIterator<Item = Entry>>(&mut self, col: usize, entries: I) {
        self.columns[col].extend(entries);
    }

    /// Mutable access to one column (same caveat as
    /// [`TupleBatch::extend_column`]).
    pub(crate) fn column_mut(&mut self, col: usize) -> &mut Vec<Entry> {
        &mut self.columns[col]
    }

    /// True if column `col` is non-decreasing in `(region.start,
    /// region.end)` — the document order every operator boundary
    /// promises for its `ordered_col`.
    pub fn is_sorted_by(&self, col: usize) -> bool {
        self.columns[col]
            .windows(2)
            .all(|w| (w[0].region.start, w[0].region.end) <= (w[1].region.start, w[1].region.end))
    }
}

/// The rows of a materialized result, held as the root operator's
/// batches exactly as they were emitted: collecting a result moves
/// batches, never rows. Equality and `Debug` see only the row
/// sequence, so two results compare equal however their batches
/// break.
#[derive(Clone, Default)]
pub struct Rows {
    batches: Vec<TupleBatch>,
    len: usize,
}

impl Rows {
    /// No rows.
    pub fn new() -> Rows {
        Rows::default()
    }

    /// Wrap a batch sequence (kept as is — empty batches included, so
    /// a lint can still see them).
    pub fn from_batches(batches: Vec<TupleBatch>) -> Rows {
        let len = batches.iter().map(TupleBatch::len).sum();
        Rows { batches, len }
    }

    /// Append one batch.
    pub fn push(&mut self, batch: TupleBatch) {
        self.len += batch.len();
        self.batches.push(batch);
    }

    /// Append every batch of `other`, in order (no row is copied).
    pub fn append(&mut self, other: Rows) {
        self.len += other.len;
        self.batches.extend(other.batches);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The batches, in emission order.
    pub fn batches(&self) -> &[TupleBatch] {
        &self.batches
    }

    /// Give up the batches, in emission order.
    pub fn into_batches(self) -> Vec<TupleBatch> {
        self.batches
    }

    /// Rows in order; each item indexes by column to an [`Entry`].
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> + '_ {
        self.batches.iter().flat_map(|batch| (0..batch.len()).map(move |row| RowRef { batch, row }))
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Rows {}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One row of a [`Rows`], borrowed from its batch. `row[i]` is the
/// entry of column `i`.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    batch: &'a TupleBatch,
    row: usize,
}

impl RowRef<'_> {
    /// The row's entries, in column order.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        self.batch.columns.iter().map(|c| c[self.row])
    }
}

impl Index<usize> for RowRef<'_> {
    type Output = Entry;

    fn index(&self, col: usize) -> &Entry {
        &self.batch.columns[col][self.row]
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        self.batch.width() == other.batch.width() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_schema() {
        let s = Schema::singleton(PnId(3));
        assert_eq!(s.width(), 1);
        assert_eq!(s.position(PnId(3)), Some(0));
        assert!(!s.binds(PnId(0)));
    }

    #[test]
    fn concat_preserves_order() {
        let a = Schema::new(vec![PnId(0), PnId(2)]);
        let b = Schema::new(vec![PnId(1)]);
        let c = a.concat(&b);
        assert_eq!(c.columns(), &[PnId(0), PnId(2), PnId(1)]);
        assert_eq!(c.position(PnId(1)), Some(2));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        let a = Schema::new(vec![PnId(0)]);
        let _ = a.concat(&Schema::new(vec![PnId(0)]));
    }

    fn e(start: u32, end: u32) -> Entry {
        Entry { node: NodeId(start), region: Region { start, end, level: 1 } }
    }

    #[test]
    fn batch_round_trip() {
        let schema = Arc::new(Schema::new(vec![PnId(0), PnId(1)]));
        let mut b = TupleBatch::with_capacity(schema.clone(), 4);
        assert!(b.is_empty());
        b.push_row(&[e(1, 10), e(2, 3)]);
        b.push_row(&[e(4, 9), e(5, 6)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.width(), 2);
        assert_eq!(b.entry(1, 0), e(2, 3));
        assert_eq!(b.row(1), vec![e(4, 9), e(5, 6)]);
        assert_eq!(b.column(0), &[e(1, 10), e(4, 9)]);
    }

    #[test]
    fn rows_compare_by_sequence_not_batching() {
        let schema = Arc::new(Schema::new(vec![PnId(0), PnId(1)]));
        let all = [[e(1, 10), e(2, 3)], [e(4, 9), e(5, 6)], [e(11, 14), e(12, 13)]];
        let batch = |rows: &[[Entry; 2]]| {
            TupleBatch::from_rows(schema.clone(), rows.iter().map(<[Entry; 2]>::as_slice))
        };
        let one = Rows::from_batches(vec![batch(&all)]);
        let mut split = Rows::from_batches(vec![batch(&all[..1])]);
        split.append(Rows::from_batches(vec![batch(&all[1..2]), batch(&all[2..])]));
        assert_eq!(one.len(), 3);
        assert_eq!(split.batches().len(), 3);
        assert_eq!(one, split);
        assert_eq!(format!("{one:?}"), format!("{split:?}"));
        let starts: Vec<u32> = split.iter().map(|t| t[0].region.start).collect();
        assert_eq!(starts, vec![1, 4, 11]);
        assert_eq!(split.iter().count(), 3);
        assert_eq!(split.iter().nth(1).unwrap().iter().collect::<Vec<_>>(), all[1].to_vec());
        let short = Rows::from_batches(vec![batch(&all[..2])]);
        assert_ne!(one, short);
        assert!(Rows::new().is_empty());
        assert_eq!(Rows::new(), Rows::from_batches(vec![TupleBatch::new(schema.clone())]));
    }

    #[test]
    fn batch_sortedness_check() {
        let schema = Arc::new(Schema::singleton(PnId(0)));
        let mut b = TupleBatch::new(schema);
        b.push_row(&[e(1, 10)]);
        b.push_row(&[e(1, 12)]);
        b.push_row(&[e(4, 9)]);
        assert!(b.is_sorted_by(0));
        b.push_row(&[e(2, 3)]);
        assert!(!b.is_sorted_by(0));
    }
}
