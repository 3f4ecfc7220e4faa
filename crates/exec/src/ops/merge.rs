//! MPMGJN — the multi-predicate merge join of Zhang et al., *On
//! Supporting Containment Queries in Relational Database Management
//! Systems* (SIGMOD 2001): the pre-stack-tree structural join.
//!
//! Both inputs arrive in document order of their join columns. For
//! each ancestor tuple, the descendant input is scanned from a
//! *mark* that only moves forward with the ancestor's start; nested
//! ancestors re-scan the same descendant window — the quadratic-ish
//! behavior that motivated the stack-tree algorithms, reproduced
//! faithfully here (and priced by the cost model's rescan term).
//! Output is ordered by the ancestor column.
//!
//! The descendant buffer is kept columnar, in the right input's layout,
//! so rescans walk a dense region array, and the rescan/output
//! counters are flushed to the shared metrics once per batch. Buffer
//! growth is reported to the attached [`QueryGuard`] (if any) at the
//! same per-batch granularity. Output columns take the widths the
//! plan's liveness gives them ([`MergeJoinOp::narrowed`]).

use std::sync::Arc;

use sjos_pattern::{Axis, NodeSet, PnId};

use crate::error::EngineError;
use crate::guard::QueryGuard;
use crate::metrics::ExecMetrics;
use crate::ops::{BoxedOperator, InputCursor, Operator};
use crate::tuple::{Schema, TupleBatch, BATCH_ROWS};

/// Merge-based structural join; output ordered by the ancestor.
pub struct MergeJoinOp<'a> {
    left: InputCursor<'a>,
    right: InputCursor<'a>,
    left_col: usize,
    right_col: usize,
    left_width: usize,
    axis: Axis,
    schema: Arc<Schema>,
    metrics: Arc<ExecMetrics>,
    guard: Option<Arc<QueryGuard>>,

    /// Buffered descendant tuples (grows lazily).
    right_buf: TupleBatch,
    right_done: bool,
    /// First buffered row that can still join a future ancestor.
    mark: usize,
    /// Scan position within the current ancestor's window.
    scan: usize,
    /// The current ancestor row, reused across rows; empty once the
    /// left input is exhausted.
    cur_left: TupleBatch,
    started: bool,
    batch_rows: usize,

    /// Local rescan counter, flushed once per batch.
    c_rescans: u64,
    /// Buffered rows already reported to the guard.
    reserved_rows: usize,
    /// Live buffer bytes accounted to [`ExecMetrics`] (released on
    /// drop — the descendant buffer never shrinks while running).
    metrics_reserved_bytes: u64,
}

impl<'a> MergeJoinOp<'a> {
    /// Join `left` (binding/ordered by `anc`) with `right`
    /// (binding/ordered by `desc`).
    ///
    /// # Errors
    /// [`EngineError::InvalidPlan`] if an input does not bind its
    /// join node — an optimizer bug, reported instead of panicking.
    pub fn new(
        left: BoxedOperator<'a>,
        right: BoxedOperator<'a>,
        anc: PnId,
        desc: PnId,
        axis: Axis,
        metrics: Arc<ExecMetrics>,
    ) -> Result<Self, EngineError> {
        let left_col = left.schema().position(anc).ok_or_else(|| {
            EngineError::InvalidPlan(format!("left merge-join input does not bind {anc:?}"))
        })?;
        let right_col = right.schema().position(desc).ok_or_else(|| {
            EngineError::InvalidPlan(format!("right merge-join input does not bind {desc:?}"))
        })?;
        let schema = Arc::new(left.schema().concat(right.schema()));
        let left_width = left.schema().width();
        let right_buf = TupleBatch::new(Arc::clone(right.schema()));
        let cur_left = TupleBatch::new(Arc::clone(left.schema()));
        Ok(MergeJoinOp {
            left: InputCursor::new(left, left_col),
            right: InputCursor::new(right, right_col),
            left_col,
            right_col,
            left_width,
            axis,
            schema,
            metrics,
            guard: None,
            right_buf,
            right_done: false,
            mark: 0,
            scan: 0,
            cur_left,
            started: false,
            batch_rows: BATCH_ROWS,
            c_rescans: 0,
            reserved_rows: 0,
            metrics_reserved_bytes: 0,
        })
    }

    /// Override the batch granularity (default [`BATCH_ROWS`]).
    #[must_use]
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// Report descendant-buffer growth to `guard`'s memory budget.
    #[must_use]
    pub fn with_guard(mut self, guard: Arc<QueryGuard>) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Keep regions only for the output columns in `wide` (default:
    /// every column as wide as its input).
    #[must_use]
    pub fn narrowed(mut self, wide: NodeSet) -> Self {
        self.schema = Arc::new(self.schema.narrowed(wide));
        self
    }

    fn right_len(&self) -> usize {
        self.right_buf.len()
    }

    fn fill_right_until(&mut self, pos: u32) -> Result<(), EngineError> {
        while !self.right_done {
            let need_more =
                self.right_buf.regions(self.right_col).last().is_none_or(|r| r.start < pos);
            if !need_more {
                break;
            }
            match self.right.peek()? {
                Some((batch, row)) => {
                    self.right_buf.push_from(0, batch, row);
                    self.right.advance();
                }
                None => self.right_done = true,
            }
        }
        Ok(())
    }

    fn advance_left(&mut self) -> Result<(), EngineError> {
        self.cur_left.truncate(0);
        match self.left.peek()? {
            Some((batch, row)) => {
                self.cur_left.push_from(0, batch, row);
                self.left.advance();
            }
            // No future ancestor exists; run the abandoned right side
            // out so total work is batch-size-independent.
            None => self.right.exhaust()?,
        }
        if !self.cur_left.is_empty() {
            let a_region = self.cur_left.region(self.left_col, 0);
            // Move the mark past descendants that precede this (and
            // therefore every later) ancestor.
            self.fill_right_until(a_region.start)?;
            while self.mark < self.right_len()
                && self.right_buf.region(self.right_col, self.mark).start < a_region.start
            {
                self.mark += 1;
            }
            // Rescan from the mark: nested ancestors revisit tuples.
            self.scan = self.mark;
            // Make sure the whole window is buffered.
            self.fill_right_until(a_region.end)?;
        }
        Ok(())
    }

    fn flush_rescans(&mut self) {
        if self.c_rescans > 0 {
            ExecMetrics::add(&self.metrics.merge_rescans, self.c_rescans);
            self.c_rescans = 0;
        }
    }

    /// Account newly buffered descendant rows against the guard's
    /// memory budget and the live-bytes metric (once per output
    /// batch).
    fn reserve_buffer(&mut self) -> Result<(), EngineError> {
        let rows = self.right_len();
        if rows > self.reserved_rows {
            let bytes = (rows - self.reserved_rows) * self.right_buf.schema().row_bytes();
            self.metrics.reserve_bytes(bytes as u64);
            self.metrics_reserved_bytes += bytes as u64;
            if let Some(guard) = &self.guard {
                guard.reserve(bytes)?;
            }
            self.reserved_rows = rows;
        }
        Ok(())
    }
}

impl Drop for MergeJoinOp<'_> {
    fn drop(&mut self) {
        self.metrics.release_bytes(self.metrics_reserved_bytes);
    }
}

impl Operator for MergeJoinOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn ordered_col(&self) -> usize {
        self.left_col
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EngineError> {
        if !self.started {
            self.started = true;
            if let Err(e) = self.advance_left() {
                self.flush_rescans();
                return Err(e);
            }
        }
        let mut out = TupleBatch::with_capacity(self.schema.clone(), self.batch_rows);
        while out.len() < self.batch_rows {
            if self.cur_left.is_empty() {
                break;
            }
            let a_region = self.cur_left.region(self.left_col, 0);
            let in_window = self.scan < self.right_len()
                && self.right_buf.region(self.right_col, self.scan).start < a_region.end;
            if !in_window {
                if let Err(e) = self.advance_left() {
                    self.flush_rescans();
                    return Err(e);
                }
                continue;
            }
            let row = self.scan;
            let d_region = self.right_buf.region(self.right_col, row);
            self.scan += 1;
            self.c_rescans += 1;
            // Window membership implies containment (regions nest);
            // only the level test remains for `/`.
            debug_assert!(d_region.start <= a_region.start || a_region.contains(d_region));
            if d_region.start <= a_region.start {
                continue; // same element (self-join edge case)
            }
            if self.axis == Axis::Child && a_region.level + 1 != d_region.level {
                continue;
            }
            out.push_from(0, &self.cur_left, 0);
            out.push_from(self.left_width, &self.right_buf, row);
        }
        self.flush_rescans();
        self.reserve_buffer()?;
        if out.is_empty() {
            return Ok(None);
        }
        ExecMetrics::add(&self.metrics.produced_tuples, out.len() as u64);
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GuardBreach;
    use crate::ops::VecInput;
    use crate::tuple::Entry;
    use sjos_xml::{NodeId, Region};

    fn fixed(col: PnId, regions: Vec<Region>) -> VecInput {
        let entries = regions
            .into_iter()
            .enumerate()
            .map(|(i, r)| Entry { node: NodeId(i as u32), region: r })
            .collect();
        VecInput::single(col, entries)
    }

    fn r(start: u32, end: u32, level: u16) -> Region {
        Region { start, end, level }
    }

    fn drain(op: &mut MergeJoinOp<'_>) -> Vec<(u32, u32)> {
        let mut out = vec![];
        while let Some(b) = op.next_batch().unwrap() {
            assert!(!b.is_empty(), "batches are never empty");
            assert!(b.is_sorted_by(op.ordered_col()));
            for row in 0..b.len() {
                out.push((b.entry(0, row).region.start, b.entry(1, row).region.start));
            }
        }
        out
    }

    fn run(ancs: Vec<Region>, descs: Vec<Region>, axis: Axis) -> Vec<(u32, u32)> {
        let m = ExecMetrics::new();
        let mut op = MergeJoinOp::new(
            Box::new(fixed(PnId(0), ancs)),
            Box::new(fixed(PnId(1), descs)),
            PnId(0),
            PnId(1),
            axis,
            m,
        )
        .unwrap();
        drain(&mut op)
    }

    #[test]
    fn finds_all_pairs_in_ancestor_order() {
        let ancs = vec![r(0, 11, 0), r(1, 6, 1), r(12, 15, 0)];
        let descs = vec![r(2, 3, 2), r(4, 5, 2), r(7, 8, 1), r(13, 14, 1)];
        let got = run(ancs, descs, Axis::Descendant);
        assert_eq!(got, vec![(0, 2), (0, 4), (0, 7), (1, 2), (1, 4), (12, 13)]);
    }

    #[test]
    fn parent_child_level_filter() {
        let ancs = vec![r(0, 11, 0), r(1, 6, 1)];
        let descs = vec![r(2, 3, 2), r(7, 8, 1)];
        let got = run(ancs, descs, Axis::Child);
        assert_eq!(got, vec![(0, 7), (1, 2)]);
    }

    #[test]
    fn empty_inputs() {
        assert!(run(vec![], vec![r(1, 2, 1)], Axis::Descendant).is_empty());
        assert!(run(vec![r(0, 3, 0)], vec![], Axis::Descendant).is_empty());
    }

    #[test]
    fn self_join_excludes_identity() {
        let list = vec![r(0, 7, 0), r(1, 6, 1), r(2, 3, 2)];
        let got = run(list.clone(), list, Axis::Descendant);
        assert_eq!(got, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn batch_size_never_changes_output_or_rescans() {
        let ancs = vec![r(0, 11, 0), r(1, 6, 1), r(12, 15, 0)];
        let descs = vec![r(2, 3, 2), r(4, 5, 2), r(7, 8, 1), r(13, 14, 1)];
        let base = run(ancs.clone(), descs.clone(), Axis::Descendant);
        for rows in [1usize, 2, 3] {
            let m = ExecMetrics::new();
            let mut op = MergeJoinOp::new(
                Box::new(fixed(PnId(0), ancs.clone()).with_batch_rows(rows)),
                Box::new(fixed(PnId(1), descs.clone()).with_batch_rows(rows)),
                PnId(0),
                PnId(1),
                Axis::Descendant,
                Arc::clone(&m),
            )
            .unwrap()
            .with_batch_rows(rows);
            assert_eq!(drain(&mut op), base, "output differs at batch_rows={rows}");
        }
    }

    #[test]
    fn rescans_are_counted() {
        // Two nested ancestors re-scan the same descendants.
        let ancs = vec![r(0, 9, 0), r(1, 8, 1)];
        let descs = vec![r(2, 3, 2), r(4, 5, 2)];
        let m = ExecMetrics::new();
        let mut op = MergeJoinOp::new(
            Box::new(fixed(PnId(0), ancs)),
            Box::new(fixed(PnId(1), descs)),
            PnId(0),
            PnId(1),
            Axis::Descendant,
            Arc::clone(&m),
        )
        .unwrap();
        while op.next_batch().unwrap().is_some() {}
        assert_eq!(m.snapshot().merge_rescans, 4, "each ancestor scans both");
    }

    #[test]
    fn unbound_join_column_is_a_typed_error() {
        let m = ExecMetrics::new();
        let err = MergeJoinOp::new(
            Box::new(fixed(PnId(0), vec![r(0, 3, 0)])),
            Box::new(fixed(PnId(1), vec![r(1, 2, 1)])),
            PnId(7),
            PnId(1),
            Axis::Descendant,
            m,
        )
        .err()
        .expect("unbound ancestor column");
        assert!(matches!(err, EngineError::InvalidPlan(_)));
    }

    #[test]
    fn memory_budget_bounds_descendant_buffer() {
        // One wide ancestor forces the whole descendant list into the
        // buffer; a 32-byte budget stops that almost immediately.
        let ancs = vec![r(0, 100, 0)];
        let descs: Vec<Region> = (0..20).map(|i| r(2 * i + 1, 2 * i + 2, 1)).collect();
        let m = ExecMetrics::new();
        let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(32));
        let mut op = MergeJoinOp::new(
            Box::new(fixed(PnId(0), ancs)),
            Box::new(fixed(PnId(1), descs)),
            PnId(0),
            PnId(1),
            Axis::Descendant,
            m,
        )
        .unwrap()
        .with_guard(guard);
        let mut saw_breach = false;
        loop {
            match op.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(EngineError::Guard { breach: GuardBreach::MemoryBudget { .. }, .. }) => {
                    saw_breach = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(saw_breach, "buffer growth must trip the memory budget");
    }
}
