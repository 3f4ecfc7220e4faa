//! Tuples, schemas, and columnar batches for intermediate results.
//!
//! The executor moves data in [`TupleBatch`]es — column-major arrays
//! sharing one [`Schema`] — rather than one heap-allocated row at a
//! time. A materialized query result keeps the root operator's batches
//! as emitted ([`Rows`]), so no path from a join to the caller
//! allocates per row. Row-major [`Tuple`]s remain only at the edges
//! (test fixtures, [`crate::ops::VecInput`]).
//!
//! ## Column layout
//!
//! A column is a node vector plus, while the column is *wide*, a
//! parallel region vector. A structural join needs a column's region
//! only to test containment, so a plan keeps it exactly as long as
//! some operator above still reads it (see
//! [`crate::plan::PlanNode::region_liveness`]); after its last reader
//! the column is *narrow* — 4 B per entry instead of 16 B. The schema
//! records which columns are wide, and every batch of that schema
//! holds a region vector of full length for each wide column and none
//! for a narrow one. Order checks on a narrow column compare node ids:
//! elements are numbered in document order, so `NodeId` order equals
//! `(region.start, region.end)` order.

use std::fmt;
use std::mem::size_of;
use std::ops::{Index, Range};
use std::sync::Arc;

use sjos_pattern::{NodeSet, PnId};
use sjos_xml::{NodeId, Region};

/// Default number of rows per [`TupleBatch`]: large enough to
/// amortize virtual dispatch and atomic metric updates over ~1K rows,
/// small enough that a batch of a few columns stays cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// Bytes one entry of a wide column occupies: its node and its region.
pub const WIDE_BYTES: usize = size_of::<NodeId>() + size_of::<Region>();

/// Bytes one entry of a narrow column occupies: its node alone.
pub const NARROW_BYTES: usize = size_of::<NodeId>();

/// Bytes of one row of `width` columns, `wide` of them wide — the unit
/// of every live-byte account and of planck's certificates.
pub fn row_bytes(width: usize, wide: usize) -> usize {
    wide * WIDE_BYTES + (width - wide) * NARROW_BYTES
}

/// One wide column value: the bound element's identity and region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The bound element.
    pub node: NodeId,
    /// Its region encoding (kept inline so joins never chase the
    /// document).
    pub region: Region,
}

/// One column value as a result row exposes it: the bound element
/// (`row[i].node`). Its region, if needed, is `doc.region(node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Binding {
    /// The bound element.
    pub node: NodeId,
}

/// A row of an intermediate result: one [`Entry`] per schema column.
pub type Tuple = Vec<Entry>;

/// Column layout of an intermediate result: which pattern node each
/// column binds, and which columns are wide (still carry regions).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<PnId>,
    wide: NodeSet,
}

impl Schema {
    /// Single wide column.
    pub fn singleton(id: PnId) -> Schema {
        Schema { columns: vec![id], wide: NodeSet::singleton(id) }
    }

    /// Build from explicit columns, all wide.
    ///
    /// # Panics
    /// Panics if a pattern node repeats.
    pub fn new(columns: Vec<PnId>) -> Schema {
        let mut sorted = columns.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), columns.len(), "duplicate column in schema");
        let wide = columns.iter().fold(NodeSet::empty(), |s, &c| s.union(NodeSet::singleton(c)));
        Schema { columns, wide }
    }

    /// Concatenation `self ++ other` (as a join produces it), each
    /// column as wide as in its source.
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend_from_slice(&other.columns);
        let wide = self.wide.union(other.wide);
        Schema { wide, ..Schema::new(columns) }
    }

    /// The same columns, keeping regions only for those in `wide` (a
    /// column already narrow stays narrow: a dropped region cannot
    /// come back).
    #[must_use]
    pub fn narrowed(&self, wide: NodeSet) -> Schema {
        Schema { columns: self.columns.clone(), wide: self.wide.intersect(wide) }
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

    /// True if column `col` carries regions.
    pub fn is_wide(&self, col: usize) -> bool {
        self.wide.contains(self.columns[col])
    }

    /// Bytes of one row in this layout.
    pub fn row_bytes(&self) -> usize {
        row_bytes(self.width(), self.wide.len())
    }
}

/// One column of a batch: nodes, plus regions while it is wide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Column {
    pub(crate) wide: bool,
    pub(crate) nodes: Vec<Binding>,
    /// Parallel to `nodes` when `wide`; empty otherwise.
    pub(crate) regions: Vec<Region>,
}

impl Column {
    fn with_capacity(wide: bool, cap: usize) -> Column {
        Column {
            wide,
            nodes: Vec::with_capacity(cap),
            regions: Vec::with_capacity(if wide { cap } else { 0 }),
        }
    }

    /// Append one value (dropping `region` if the column is narrow).
    #[inline]
    pub(crate) fn push(&mut self, node: NodeId, region: Region) {
        self.nodes.push(Binding { node });
        if self.wide {
            self.regions.push(region);
        }
    }

    /// Append `src`'s rows `rows` (a narrow destination drops their
    /// regions).
    #[inline]
    fn extend_from(&mut self, src: &Column, rows: Range<usize>) {
        if self.wide {
            self.regions.extend_from_slice(&src.regions[rows.clone()]);
        }
        self.nodes.extend_from_slice(&src.nodes[rows]);
    }

    /// Append `n` copies of `src`'s row `row`.
    #[inline]
    fn fill_from(&mut self, src: &Column, row: usize, n: usize) {
        self.nodes.resize(self.nodes.len() + n, src.nodes[row]);
        if self.wide {
            self.regions.resize(self.regions.len() + n, src.regions[row]);
        }
    }

    #[inline]
    fn push_from(&mut self, src: &Column, row: usize) {
        self.nodes.push(src.nodes[row]);
        if self.wide {
            self.regions.push(src.regions[row]);
        }
    }

    fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len);
        self.regions.truncate(len);
    }

    fn reserve_exact(&mut self, additional: usize) {
        self.nodes.reserve_exact(additional);
        if self.wide {
            self.regions.reserve_exact(additional);
        }
    }

    /// The document-order key of row `row`: `(start, end)` packed
    /// into one word when wide, the node id when narrow. Within one
    /// column the two orders agree (module docs).
    #[inline]
    fn key(&self, row: usize) -> u64 {
        if self.wide {
            let r = self.regions[row];
            (u64::from(r.start) << 32) | u64::from(r.end)
        } else {
            u64::from(self.nodes[row].node.0)
        }
    }
}

/// A column-major batch of rows sharing one [`Schema`].
///
/// Invariant: every node vector has the same length (`len()`), and so
/// does the region vector of every wide column. Batches produced by
/// operators are never empty — end-of-stream is signalled by `None`
/// from [`crate::ops::Operator::next_batch`], not by an empty batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleBatch {
    schema: Arc<Schema>,
    columns: Vec<Column>,
}

impl TupleBatch {
    /// Empty batch for `schema` with no reserved capacity.
    pub fn new(schema: Arc<Schema>) -> TupleBatch {
        TupleBatch::with_capacity(schema, 0)
    }

    /// Empty batch for `schema`, each column pre-reserving `cap` rows.
    pub fn with_capacity(schema: Arc<Schema>, cap: usize) -> TupleBatch {
        let columns =
            (0..schema.width()).map(|c| Column::with_capacity(schema.is_wide(c), cap)).collect();
        TupleBatch { schema, columns }
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
        self.columns.first().map_or(0, |c| c.nodes.len())
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns (schema width).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `col`'s regions as a contiguous slice — empty when the
    /// column is narrow.
    pub fn regions(&self, col: usize) -> &[Region] {
        &self.columns[col].regions
    }

    /// Node at (`col`, `row`).
    #[inline]
    pub fn node(&self, col: usize, row: usize) -> NodeId {
        self.columns[col].nodes[row].node
    }

    /// Region at (`col`, `row`).
    ///
    /// # Panics
    /// Panics if column `col` is narrow.
    #[inline]
    pub fn region(&self, col: usize, row: usize) -> Region {
        self.columns[col].regions[row]
    }

    /// Entry at (`col`, `row`).
    ///
    /// # Panics
    /// Panics if column `col` is narrow.
    pub fn entry(&self, col: usize, row: usize) -> Entry {
        Entry { node: self.node(col, row), region: self.region(col, row) }
    }

    /// Row `row` materialized as a row-major [`Tuple`].
    ///
    /// # Panics
    /// Panics if any column is narrow.
    pub fn row(&self, row: usize) -> Tuple {
        (0..self.width()).map(|c| self.entry(c, row)).collect()
    }

    /// Append a row-major row; narrow columns keep only its nodes.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the schema width.
    pub fn push_row(&mut self, row: &[Entry]) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        for (col, e) in self.columns.iter_mut().zip(row) {
            col.push(e.node, e.region);
        }
    }

    /// A new batch of the same schema holding rows `rows` of this one,
    /// in that order.
    pub fn gather<I>(&self, rows: I) -> TupleBatch
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let columns = self
            .columns
            .iter()
            .map(|c| Column {
                wide: c.wide,
                nodes: rows.clone().map(|r| c.nodes[r]).collect(),
                regions: if c.wide { rows.clone().map(|r| c.regions[r]).collect() } else { vec![] },
            })
            .collect();
        TupleBatch { schema: Arc::clone(&self.schema), columns }
    }

    /// The document-order key of (`col`, `row`): `(region.start,
    /// region.end)` packed into one word when the column is wide, the
    /// node id when it is narrow. Comparable with keys of the same
    /// column only.
    #[inline]
    pub fn order_key(&self, col: usize, row: usize) -> u64 {
        self.columns[col].key(row)
    }

    /// Append one value to column `col` (dropping `region` if the
    /// column is narrow). The caller must bring all columns back to
    /// equal lengths before the batch is read.
    #[inline]
    pub(crate) fn push_value(&mut self, col: usize, node: NodeId, region: Region) {
        self.columns[col].push(node, region);
    }

    /// Column `col`, for a loop that appends to it alone (same caveat).
    #[inline]
    pub(crate) fn column_mut(&mut self, col: usize) -> &mut Column {
        &mut self.columns[col]
    }

    /// Append row `row` of `src` to columns `dst..dst + src.width()`
    /// (same caveat as [`Self::push_value`]).
    #[inline]
    pub(crate) fn push_from(&mut self, dst: usize, src: &TupleBatch, row: usize) {
        for (d, s) in self.columns[dst..dst + src.width()].iter_mut().zip(&src.columns) {
            d.push_from(s, row);
        }
    }

    /// Append rows `rows` of `src`'s column `src_col` to column
    /// `dst` as one slice copy per vector (same caveat).
    #[inline]
    pub(crate) fn extend_column_from(
        &mut self,
        dst: usize,
        src: &TupleBatch,
        src_col: usize,
        rows: Range<usize>,
    ) {
        self.columns[dst].extend_from(&src.columns[src_col], rows);
    }

    /// Append `n` copies of (`src_col`, `row`) of `src` to column `dst`
    /// (same caveat).
    #[inline]
    pub(crate) fn fill_column_from(
        &mut self,
        dst: usize,
        src: &TupleBatch,
        src_col: usize,
        row: usize,
        n: usize,
    ) {
        self.columns[dst].fill_from(&src.columns[src_col], row, n);
    }

    /// Append every row of `src` (same schema).
    pub(crate) fn append(&mut self, src: &TupleBatch) {
        let n = src.len();
        for (d, s) in self.columns.iter_mut().zip(&src.columns) {
            d.extend_from(s, 0..n);
        }
    }

    /// Keep the first `len` rows.
    pub(crate) fn truncate(&mut self, len: usize) {
        for col in &mut self.columns {
            col.truncate(len);
        }
    }

    /// Rows the batch holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.columns.iter().map(|c| c.nodes.capacity()).min().unwrap_or(0)
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

    /// True if column `col` is non-decreasing in document order — by
    /// `(region.start, region.end)` when the column is wide, by node id
    /// when it is narrow — the order every operator boundary promises
    /// for its `ordered_col`.
    pub fn is_sorted_by(&self, col: usize) -> bool {
        let c = &self.columns[col];
        if c.wide {
            c.regions.windows(2).all(|w| (w[0].start, w[0].end) <= (w[1].start, w[1].end))
        } else {
            c.nodes.windows(2).all(|w| w[0] <= w[1])
        }
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

    /// Rows in order; each item indexes by column to a [`Binding`].
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
/// binding of column `i`.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    batch: &'a TupleBatch,
    row: usize,
}

impl RowRef<'_> {
    /// The row's bindings, in column order.
    pub fn iter(&self) -> impl Iterator<Item = Binding> + '_ {
        self.batch.columns.iter().map(|c| c.nodes[self.row])
    }
}

impl Index<usize> for RowRef<'_> {
    type Output = Binding;

    fn index(&self, col: usize) -> &Binding {
        &self.batch.columns[col].nodes[self.row]
    }
}

/// Rows compare by their nodes: a region is a function of its node,
/// so a wide row and its narrowed copy are equal.
impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        self.batch.width() == other.batch.width() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|b| b.node.0)).finish()
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
        assert!(s.is_wide(0));
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

    #[test]
    fn narrowing_drops_regions_and_never_widens() {
        let s = Schema::new(vec![PnId(0), PnId(1), PnId(2)]);
        assert_eq!(s.row_bytes(), 3 * WIDE_BYTES);
        let n = s.narrowed(NodeSet::singleton(PnId(1)));
        assert!(!n.is_wide(0) && n.is_wide(1) && !n.is_wide(2));
        assert_eq!(n.row_bytes(), WIDE_BYTES + 2 * NARROW_BYTES);
        assert_eq!(n.narrowed(NodeSet::full(3)), n, "a dropped region cannot come back");
        let c = n.concat(&Schema::singleton(PnId(3)));
        assert_eq!((0..4).map(|i| c.is_wide(i)).collect::<Vec<_>>(), [false, true, false, true]);
        assert_eq!((WIDE_BYTES, NARROW_BYTES), (16, 4));
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
        assert_eq!(b.regions(0), &[e(1, 10).region, e(4, 9).region]);
        assert_eq!(b.gather([1, 0]).row(0), b.row(1));
    }

    #[test]
    fn narrow_columns_keep_nodes_only() {
        let wide = Arc::new(Schema::new(vec![PnId(0), PnId(1)]));
        let narrow = Arc::new(wide.narrowed(NodeSet::singleton(PnId(1))));
        let rows = [[e(1, 10), e(2, 3)], [e(4, 9), e(5, 6)]];
        let w = TupleBatch::from_rows(wide, rows.iter().map(<[Entry; 2]>::as_slice));
        let n = TupleBatch::from_rows(narrow.clone(), rows.iter().map(<[Entry; 2]>::as_slice));
        assert!(n.regions(0).is_empty());
        assert_eq!(n.regions(1).len(), 2);
        assert_eq!(n.node(0, 1), NodeId(4));
        let mut copied = TupleBatch::new(narrow);
        copied.push_from(0, &w, 1);
        assert_eq!(copied.node(0, 0), NodeId(4));
        assert_eq!(copied.region(1, 0), e(5, 6).region);
        assert_eq!(Rows::from_batches(vec![w]), Rows::from_batches(vec![n]), "equal by nodes");
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
        let starts: Vec<u32> = split.iter().map(|t| t[0].node.0).collect();
        assert_eq!(starts, vec![1, 4, 11]);
        assert_eq!(split.iter().count(), 3);
        let second: Vec<NodeId> = split.iter().nth(1).unwrap().iter().map(|b| b.node).collect();
        assert_eq!(second, vec![NodeId(4), NodeId(5)]);
        let short = Rows::from_batches(vec![batch(&all[..2])]);
        assert_ne!(one, short);
        assert!(Rows::new().is_empty());
        assert_eq!(Rows::new(), Rows::from_batches(vec![TupleBatch::new(schema.clone())]));
    }

    #[test]
    fn batch_sortedness_check() {
        let schema = Arc::new(Schema::singleton(PnId(0)));
        let mut b = TupleBatch::new(schema.clone());
        b.push_row(&[e(1, 10)]);
        b.push_row(&[e(1, 12)]);
        b.push_row(&[e(4, 9)]);
        assert!(b.is_sorted_by(0));
        b.push_row(&[e(2, 3)]);
        assert!(!b.is_sorted_by(0));
        // A narrow column is checked by node id.
        let mut n = TupleBatch::new(Arc::new(schema.narrowed(NodeSet::empty())));
        n.push_row(&[e(1, 10)]);
        n.push_row(&[e(4, 9)]);
        assert!(n.is_sorted_by(0));
        n.push_row(&[e(2, 3)]);
        assert!(!n.is_sorted_by(0));
    }
}
