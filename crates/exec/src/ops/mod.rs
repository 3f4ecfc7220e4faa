//! Volcano-style physical operators, vectorized: each pull returns a
//! columnar [`TupleBatch`] instead of a single tuple.
//!
//! Every operator declares via [`Operator::ordered_col`] which output
//! column it keeps in document order — `(region.start, region.end)`
//! on a wide column, node id on a narrow one (the same order; see
//! [`crate::tuple`]). Debug builds verify that promise on every batch
//! crossing an operator boundary (see [`OrderingCheck`]); release
//! builds pay nothing.

pub mod join;
pub mod merge;
pub mod scan;
pub mod sort;

pub use join::StackTreeJoinOp;
pub use merge::MergeJoinOp;
pub use scan::IndexScanOp;
pub use sort::{SortOp, SpillPolicy};

use std::sync::Arc;

use crate::error::EngineError;
use crate::tuple::{Schema, Tuple, TupleBatch, BATCH_ROWS};

/// A pull-based operator producing columnar batches.
///
/// Contract: batches are never empty; end-of-stream is `Ok(None)`. The
/// column at [`Operator::ordered_col`] is non-decreasing in document
/// order within each batch and across consecutive batches. An `Err` is terminal: a storage fault or a
/// guard breach propagated up the tree — callers must not pull again.
pub trait Operator {
    /// Column layout of produced batches.
    fn schema(&self) -> &Arc<Schema>;

    /// Index of the output column this operator keeps in document
    /// order (every physical operator here orders by exactly one
    /// column — scans and sorts by construction, joins by the
    /// stack/merge algorithm's emission rule).
    fn ordered_col(&self) -> usize;

    /// Produce the next batch, `Ok(None)` when exhausted, or a
    /// typed error when storage or a resource guard fails the pull.
    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EngineError>;
}

/// Boxed operator with the executor's lifetime.
pub type BoxedOperator<'a> = Box<dyn Operator + Send + 'a>;

/// Debug-only verifier of the ordering contract at one operator
/// boundary: each batch internally sorted by the ordered column, and
/// the first row of a batch not before the last row of the previous
/// one. Compiles to a no-op struct in release builds.
#[derive(Debug, Default)]
pub struct OrderingCheck {
    #[cfg(debug_assertions)]
    last: Option<u64>,
}

impl OrderingCheck {
    /// Fresh checker (no batch seen yet).
    pub fn new() -> OrderingCheck {
        OrderingCheck::default()
    }

    /// Assert (debug builds only) that `batch` honours the ordering
    /// contract on column `col`, continuing from previous batches.
    #[inline]
    pub fn check(&mut self, batch: &TupleBatch, col: usize) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(batch.is_sorted_by(col), "batch not sorted by ordered column {col}");
            if let Some(last_row) = batch.len().checked_sub(1) {
                let key = batch.order_key(col, 0);
                debug_assert!(
                    self.last.is_none_or(|last| last <= key),
                    "batch regresses across boundary on ordered column {col}"
                );
                self.last = Some(batch.order_key(col, last_row));
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (batch, col);
        }
    }
}

/// Cursor over an operator's batch stream, exposing per-row access so
/// the join algorithms can keep their tuple-granular control flow
/// while their inputs move in batches.
///
/// `required_col` is the column the *consumer* needs ordered (the
/// join's own input requirement, derived from the plan) — each pulled
/// batch is ordering-checked against it in debug builds.
pub(crate) struct InputCursor<'a> {
    op: BoxedOperator<'a>,
    check: OrderingCheck,
    required_col: usize,
    batch: Option<TupleBatch>,
    pos: usize,
    /// End-of-stream seen: later peeks return `None` without pulling
    /// the producer again, so one operator boundary sees at most one
    /// `None` pull — the invariant the static batch-pull bound
    /// (planck's PL063/PL064) counts on.
    done: bool,
}

impl<'a> InputCursor<'a> {
    pub(crate) fn new(op: BoxedOperator<'a>, required_col: usize) -> InputCursor<'a> {
        InputCursor {
            op,
            check: OrderingCheck::new(),
            required_col,
            batch: None,
            pos: 0,
            done: false,
        }
    }

    /// Current row, pulling the next batch if needed. `Ok(None)` at
    /// end-of-stream; a pull failure propagates.
    pub(crate) fn peek(&mut self) -> Result<Option<(&TupleBatch, usize)>, EngineError> {
        loop {
            if self.done {
                return Ok(None);
            }
            match &self.batch {
                Some(b) if self.pos < b.len() => break,
                _ => match self.op.next_batch()? {
                    Some(next) => {
                        self.check.check(&next, self.required_col);
                        self.batch = Some(next);
                        self.pos = 0;
                    }
                    None => {
                        self.done = true;
                        return Ok(None);
                    }
                },
            }
        }
        Ok(Some((self.batch.as_ref().expect("batch present"), self.pos)))
    }

    /// True when the next [`Self::peek`] will pull the producer — the
    /// current batch is used up and end-of-stream has not been seen.
    #[inline]
    pub(crate) fn must_pull(&self) -> bool {
        !self.done && self.batch.as_ref().is_none_or(|b| self.pos >= b.len())
    }

    /// Advance past the current row.
    pub(crate) fn advance(&mut self) {
        self.pos += 1;
    }

    /// Drain the rest of the stream, discarding rows.
    ///
    /// Called when the consumer terminates early (e.g. a join whose
    /// other input ran out): the producer still runs to completion, so
    /// the work every operator performs — and with it every metric
    /// counter — is identical at every batch granularity. Without
    /// this, an abandoned producer would have done work rounded up to
    /// its batch size, making counters drift with `batch_rows`.
    pub(crate) fn exhaust(&mut self) -> Result<(), EngineError> {
        self.batch = None;
        self.pos = 0;
        if self.done {
            return Ok(());
        }
        while let Some(next) = self.op.next_batch()? {
            self.check.check(&next, self.required_col);
        }
        self.done = true;
        Ok(())
    }
}

/// An operator over a pre-materialized tuple vector — useful for
/// testing operators in isolation and for the cost-model calibration
/// harness (which must time joins without scan overhead).
pub struct VecInput {
    schema: Arc<Schema>,
    rows: Vec<Tuple>,
    next_row: usize,
    batch_rows: usize,
}

impl VecInput {
    /// Wrap `rows` (which must already satisfy any ordering the
    /// consumer expects) with the given schema.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> VecInput {
        VecInput { schema: Arc::new(schema), rows, next_row: 0, batch_rows: BATCH_ROWS }
    }

    /// Single-column input from entries.
    pub fn single(column: sjos_pattern::PnId, entries: Vec<crate::tuple::Entry>) -> VecInput {
        VecInput::new(Schema::singleton(column), entries.into_iter().map(|e| vec![e]).collect())
    }

    /// Override the batch granularity (default [`BATCH_ROWS`]).
    #[must_use]
    pub fn with_batch_rows(mut self, batch_rows: usize) -> VecInput {
        self.batch_rows = batch_rows.max(1);
        self
    }
}

impl Operator for VecInput {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn ordered_col(&self) -> usize {
        0
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EngineError> {
        if self.next_row >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.next_row + self.batch_rows).min(self.rows.len());
        let mut batch = TupleBatch::with_capacity(self.schema.clone(), end - self.next_row);
        for row in &self.rows[self.next_row..end] {
            batch.push_row(row);
        }
        self.next_row = end;
        Ok(Some(batch))
    }
}
