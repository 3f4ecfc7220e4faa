//! Blocking sort operator, with an optional spill-to-disk external
//! sort for memory-budgeted execution.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use sjos_pattern::PnId;
use sjos_storage::{BufferPool, Page, SpillSegment, TempPages, PAGE_SIZE};
use sjos_xml::{NodeId, Region};

use crate::error::EngineError;
use crate::guard::QueryGuard;
use crate::metrics::ExecMetrics;
use crate::ops::{BoxedOperator, Operator};
use crate::tuple::{Entry, Schema, TupleBatch, BATCH_ROWS};

/// Bytes of one [`Entry`] when encoded on a temp page: `u32` node id,
/// `u32` region start, `u32` region end, `u16` level — denser than the
/// padded in-memory layout, and stable across platforms. A narrow
/// column is encoded the same way with a zero region, so a run's page
/// count does not depend on the column layout.
const ENTRY_ENC_BYTES: usize = 14;

/// What a narrow column's entry carries on a temp page.
const NO_REGION: Region = Region { start: 0, end: 0, level: 0 };

/// Temp-page header: `u16` row count at offset 0; bytes 4..8 are the
/// page checksum field stamped by the pool's write-through path.
const RUN_PAGE_HEADER: usize = 8;

/// Knobs for [`SortOp`]'s spill mode.
///
/// A spilling sort keeps at most `threshold_bytes` of input buffered;
/// beyond that it flushes the buffer as a sorted *run* of temp pages
/// and merges runs back at emission time, at most `fan_in` at once
/// (more runs trigger cascade merges). The worst-case resident
/// footprint is therefore *static*: threshold plus the merge cursors
/// plus one writer page — the quantity
/// [`SpillPolicy::resident_bound`] computes and planck's spill rules
/// certify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillPolicy {
    /// Flush the in-memory buffer as a sorted run once appending the
    /// next batch would grow it past this many bytes.
    pub threshold_bytes: usize,
    /// Maximum runs merged in one pass (≥ 2). Each merge cursor keeps
    /// one decoded page resident.
    pub fan_in: usize,
}

impl SpillPolicy {
    /// Default merge fan-in: 8 cursors ≈ 64 KiB of merge buffers.
    pub const DEFAULT_FAN_IN: usize = 8;

    /// A policy with the given flush threshold and the default fan-in.
    pub fn with_threshold(threshold_bytes: usize) -> SpillPolicy {
        SpillPolicy { threshold_bytes, fan_in: Self::DEFAULT_FAN_IN }
    }

    /// Override the merge fan-in (clamped to at least 2).
    #[must_use]
    pub fn with_fan_in(mut self, fan_in: usize) -> SpillPolicy {
        self.fan_in = fan_in.max(2);
        self
    }

    /// Rows of `width` columns that fit on one temp page. Zero means
    /// a single row overflows a page — a plan too wide to spill,
    /// rejected as invalid rather than encoded incorrectly.
    pub fn rows_per_page(&self, width: usize) -> usize {
        (PAGE_SIZE - RUN_PAGE_HEADER) / (width.max(1) * ENTRY_ENC_BYTES)
    }

    /// Worst-case resident bytes of one merge cursor over rows of
    /// `width` columns, `row_bytes` bytes each in the sort's layout
    /// ([`Schema::row_bytes`]): a full temp page decoded to that
    /// layout.
    pub fn cursor_bytes(&self, width: usize, row_bytes: usize) -> usize {
        self.rows_per_page(width) * row_bytes
    }

    /// Worst-case resident bytes of a spilling sort over rows of
    /// `width` columns and `row_bytes` bytes, pulled in
    /// `batch_rows`-row batches: the buffer (threshold, or a single
    /// oversized batch), the merge cursors, and one run-writer page.
    /// This is the bound the static spill admission certifies against
    /// a memory budget, in the bytes the sort charges.
    pub fn resident_bound(&self, width: usize, row_bytes: usize, batch_rows: usize) -> usize {
        let batch = batch_rows * row_bytes;
        self.threshold_bytes + batch + self.fan_in * self.cursor_bytes(width, row_bytes) + PAGE_SIZE
    }

    /// Derive the largest policy whose [`SpillPolicy::resident_bound`]
    /// fits inside `budget_bytes`, or `None` when even a zero
    /// threshold (flush every batch) cannot fit — the budget is too
    /// small for the merge machinery itself, and the query must be
    /// rejected rather than degraded.
    pub fn for_budget(
        budget_bytes: usize,
        width: usize,
        row_bytes: usize,
        batch_rows: usize,
    ) -> Option<SpillPolicy> {
        let floor = SpillPolicy::with_threshold(0).resident_bound(width, row_bytes, batch_rows);
        let threshold = budget_bytes.checked_sub(floor)?;
        Some(SpillPolicy::with_threshold(threshold))
    }
}

fn encode_entry(page: &mut Page, off: usize, e: Entry) {
    page.write_u32(off, e.node.0);
    page.write_u32(off + 4, e.region.start);
    page.write_u32(off + 8, e.region.end);
    page.write_u16(off + 12, e.region.level);
}

fn decode_entry(page: &Page, off: usize) -> Entry {
    Entry {
        node: NodeId(page.read_u32(off)),
        region: Region {
            start: page.read_u32(off + 4),
            end: page.read_u32(off + 8),
            level: page.read_u16(off + 12),
        },
    }
}

/// One sorted run of temp pages. The [`TempPages`] handle keeps the
/// pages alive; dropping the run returns them to the segment.
struct SpillRun<'a> {
    pages: TempPages<'a>,
    rows: usize,
}

/// Encodes sorted rows onto temp pages, one page at a time.
struct RunWriter<'a> {
    segment: &'a SpillSegment,
    pages: TempPages<'a>,
    page: Box<Page>,
    in_page: usize,
    rows: usize,
    width: usize,
    rows_per_page: usize,
}

impl<'a> RunWriter<'a> {
    fn new(segment: &'a SpillSegment, width: usize, rows_per_page: usize) -> RunWriter<'a> {
        RunWriter {
            segment,
            pages: TempPages::new(segment),
            page: Page::zeroed(),
            in_page: 0,
            rows: 0,
            width,
            rows_per_page,
        }
    }

    /// Encode row `row` of `src` (the sort's layout).
    fn push_row(
        &mut self,
        pool: &BufferPool,
        src: &TupleBatch,
        row: usize,
    ) -> Result<(), EngineError> {
        if self.in_page == self.rows_per_page {
            self.flush_page(pool)?;
        }
        let base = RUN_PAGE_HEADER + self.in_page * self.width * ENTRY_ENC_BYTES;
        for c in 0..self.width {
            // A narrow column has no region vector to read.
            let region = src.regions(c).get(row).copied().unwrap_or(NO_REGION);
            let e = Entry { node: src.node(c, row), region };
            encode_entry(&mut self.page, base + c * ENTRY_ENC_BYTES, e);
        }
        self.in_page += 1;
        self.rows += 1;
        Ok(())
    }

    fn flush_page(&mut self, pool: &BufferPool) -> Result<(), EngineError> {
        self.page.write_u16(0, self.in_page as u16);
        let id = self.pages.allocate(pool)?;
        self.segment.write(pool, id, &self.page)?;
        self.page = Page::zeroed();
        self.in_page = 0;
        Ok(())
    }

    fn finish(mut self, pool: &BufferPool) -> Result<SpillRun<'a>, EngineError> {
        if self.in_page > 0 {
            self.flush_page(pool)?;
        }
        Ok(SpillRun { pages: self.pages, rows: self.rows })
    }
}

/// Read cursor over one run: decodes a page's rows at a time into the
/// sort's layout (the pin is dropped immediately, so a merge never
/// holds more than one pin).
struct RunCursor<'a> {
    run: SpillRun<'a>,
    next_page: usize,
    buf: TupleBatch,
    pos: usize,
}

impl<'a> RunCursor<'a> {
    fn new(
        run: SpillRun<'a>,
        schema: &Arc<Schema>,
        pool: &BufferPool,
        segment: &SpillSegment,
    ) -> Result<RunCursor<'a>, EngineError> {
        let buf = TupleBatch::new(Arc::clone(schema));
        let mut cursor = RunCursor { run, next_page: 0, buf, pos: 0 };
        cursor.refill(pool, segment)?;
        Ok(cursor)
    }

    fn refill(&mut self, pool: &BufferPool, segment: &SpillSegment) -> Result<(), EngineError> {
        self.buf.truncate(0);
        self.pos = 0;
        if self.next_page >= self.run.pages.len() {
            return Ok(());
        }
        let id = self.run.pages.pages()[self.next_page];
        self.next_page += 1;
        let page = segment.read(pool, id)?;
        let count = page.read_u16(0) as usize;
        let width = self.buf.width();
        self.buf.reserve_exact(count);
        for r in 0..count {
            let base = RUN_PAGE_HEADER + r * width * ENTRY_ENC_BYTES;
            for c in 0..width {
                let e = decode_entry(&page, base + c * ENTRY_ENC_BYTES);
                self.buf.push_value(c, e.node, e.region);
            }
        }
        Ok(())
    }

    fn key(&self, col: usize) -> Option<u64> {
        (self.pos < self.buf.len()).then(|| self.buf.order_key(col, self.pos))
    }

    fn advance(&mut self, pool: &BufferPool, segment: &SpillSegment) -> Result<(), EngineError> {
        self.pos += 1;
        if self.pos >= self.buf.len() {
            self.refill(pool, segment)?;
        }
        Ok(())
    }
}

/// K-way merge over run cursors, keyed `(document order, run index)`.
/// The run-index tiebreak makes the merge equivalent to one stable
/// sort over the whole input: equal keys surface from earlier runs
/// first, and runs are flushed in input order.
struct MergeState<'a> {
    cursors: Vec<RunCursor<'a>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl<'a> MergeState<'a> {
    fn new(
        runs: Vec<SpillRun<'a>>,
        schema: &Arc<Schema>,
        col: usize,
        pool: &BufferPool,
        segment: &SpillSegment,
    ) -> Result<MergeState<'a>, EngineError> {
        let mut cursors = Vec::with_capacity(runs.len());
        for run in runs {
            cursors.push(RunCursor::new(run, schema, pool, segment)?);
        }
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter().enumerate() {
            if let Some(key) = c.key(col) {
                heap.push(Reverse((key, i)));
            }
        }
        Ok(MergeState { cursors, heap })
    }

    /// Hand the globally-next row to `emit` as (cursor page, row).
    /// `Ok(false)` when every run is exhausted.
    fn pop(
        &mut self,
        pool: &BufferPool,
        segment: &SpillSegment,
        col: usize,
        emit: impl FnOnce(&TupleBatch, usize) -> Result<(), EngineError>,
    ) -> Result<bool, EngineError> {
        let Some(Reverse((_, idx))) = self.heap.pop() else {
            return Ok(false);
        };
        let cursor = &mut self.cursors[idx];
        emit(&cursor.buf, cursor.pos)?;
        cursor.advance(pool, segment)?;
        if let Some(key) = cursor.key(col) {
            self.heap.push(Reverse((key, idx)));
        }
        Ok(true)
    }
}

/// Spill-mode state attached by [`SortOp::with_spill`].
struct SpillCtx<'a> {
    policy: SpillPolicy,
    pool: &'a BufferPool,
    segment: &'a SpillSegment,
    /// Runs flushed so far, in input order.
    runs: Vec<SpillRun<'a>>,
    /// Final merge, set once materialization finishes with spilled
    /// runs present.
    merge: Option<MergeState<'a>>,
}

/// Materializes its input and re-orders it by the `by` column's
/// document position. This is the blocking point the paper's
/// non-fully-pipelined plans pay for (`n log n * f_s` in the cost
/// model), and what the FP algorithm avoids entirely.
///
/// The buffer is kept columnar, in the input's layout: input batches
/// append straight onto its column vectors, a sort permutation is
/// computed over the key column only, and output batches gather
/// through that permutation. A wide key column is ordered by
/// `(region.start, region.end)`, a narrow one by node id — the same
/// order, so the sort never keeps a region only to key on it.
///
/// As an unboundedly-buffering operator, the sort reports its
/// materialization to the [`QueryGuard`] (when one is attached) one
/// input batch at a time, so a memory budget trips mid-
/// materialization rather than after the fact.
///
/// With [`SortOp::with_spill`], the sort degrades instead of
/// breaching: when the buffer would pass the [`SpillPolicy`]
/// threshold — or the guard's remaining headroom — it is sorted,
/// encoded onto temp pages as a run, and its bytes released; emission
/// k-way-merges the runs back. Output is bit-identical to the
/// in-memory sort at every batch size (the merge's run-index tiebreak
/// reproduces stable-sort order). Only a single input batch larger
/// than the whole budget still breaches.
pub struct SortOp<'a> {
    input: Option<BoxedOperator<'a>>,
    schema: Arc<Schema>,
    col: usize,
    /// Materialized input, column-major.
    buffer: TupleBatch,
    /// Row indices of `buffer` in sorted order (in-memory path only).
    perm: Vec<u32>,
    /// Next position in `perm` to emit.
    emitted: usize,
    metrics: Arc<ExecMetrics>,
    guard: Option<Arc<QueryGuard>>,
    batch_rows: usize,
    /// Live buffer bytes accounted to [`ExecMetrics`] (released when
    /// the operator drops).
    reserved_bytes: u64,
    /// Live bytes charged to the guard (released on flush and on drop
    /// in spill mode; cumulative otherwise).
    guard_reserved: usize,
    /// Bytes currently buffered in `buffer` (spill bookkeeping).
    buffered_bytes: usize,
    spill: Option<SpillCtx<'a>>,
}

impl<'a> SortOp<'a> {
    /// Sort `input` by the column binding `by`.
    ///
    /// # Errors
    /// [`EngineError::InvalidPlan`] if `input` does not bind `by` —
    /// an optimizer bug, reported instead of panicking.
    pub fn new(
        input: BoxedOperator<'a>,
        by: PnId,
        metrics: Arc<ExecMetrics>,
    ) -> Result<Self, EngineError> {
        let schema = input.schema().clone();
        let col = schema
            .position(by)
            .ok_or_else(|| EngineError::InvalidPlan(format!("sort by unbound column {by:?}")))?;
        Ok(SortOp {
            input: Some(input),
            buffer: TupleBatch::new(Arc::clone(&schema)),
            schema,
            col,
            perm: Vec::new(),
            emitted: 0,
            metrics,
            guard: None,
            batch_rows: BATCH_ROWS,
            reserved_bytes: 0,
            guard_reserved: 0,
            buffered_bytes: 0,
            spill: None,
        })
    }

    /// Override the batch granularity (default [`BATCH_ROWS`]).
    #[must_use]
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// Report buffer growth to `guard`'s memory budget.
    #[must_use]
    pub fn with_guard(mut self, guard: Arc<QueryGuard>) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Enable spilling: flush sorted runs to `segment` through `pool`
    /// under `policy` instead of buffering without bound. With a
    /// guard attached, flushing also happens whenever the guard's
    /// remaining headroom could not absorb the next batch — the sort
    /// degrades to disk instead of breaching the budget.
    #[must_use]
    pub fn with_spill(
        mut self,
        pool: &'a BufferPool,
        segment: &'a SpillSegment,
        policy: SpillPolicy,
    ) -> Self {
        self.spill = Some(SpillCtx { policy, pool, segment, runs: Vec::new(), merge: None });
        self
    }

    /// Charge `bytes` to metrics and (when present) the guard.
    fn track_reserve(&mut self, bytes: usize) -> Result<(), EngineError> {
        self.metrics.reserve_bytes(bytes as u64);
        self.reserved_bytes += bytes as u64;
        if let Some(guard) = &self.guard {
            guard.reserve(bytes)?;
            self.guard_reserved += bytes;
        }
        Ok(())
    }

    /// Release `bytes` from metrics, and from the guard in spill mode
    /// (the guard stays cumulative otherwise — see
    /// [`QueryGuard::release`]).
    fn track_release(&mut self, bytes: usize) {
        self.metrics.release_bytes(bytes as u64);
        self.reserved_bytes = self.reserved_bytes.saturating_sub(bytes as u64);
        if self.spill.is_some() {
            if let Some(guard) = &self.guard {
                guard.release(bytes);
            }
            self.guard_reserved = self.guard_reserved.saturating_sub(bytes);
        }
    }

    /// Flush the buffer as a sorted run if appending `incoming` bytes
    /// would cross the spill threshold or the guard's headroom.
    fn maybe_flush(&mut self, incoming: usize) -> Result<(), EngineError> {
        let Some(ctx) = &self.spill else { return Ok(()) };
        if self.buffered_bytes == 0 {
            return Ok(());
        }
        let over_threshold = self.buffered_bytes + incoming > ctx.policy.threshold_bytes;
        let over_headroom = self.guard.as_ref().is_some_and(|g| g.memory_headroom() < incoming);
        if over_threshold || over_headroom {
            self.flush_run()?;
        }
        Ok(())
    }

    /// Sort the current buffer and write it to temp pages as one run,
    /// then release its bytes.
    fn flush_run(&mut self) -> Result<(), EngineError> {
        let ctx = self.spill.as_ref().expect("flush_run requires spill mode");
        let (pool, segment, policy) = (ctx.pool, ctx.segment, ctx.policy);
        let width = self.schema.width();
        let rows_per_page = policy.rows_per_page(width);
        if rows_per_page == 0 {
            return Err(EngineError::InvalidPlan(format!(
                "schema of {width} columns is too wide to spill (row exceeds a page)"
            )));
        }
        let perm = self.permutation();
        // The writer's page buffer is resident while the run encodes.
        self.track_reserve(PAGE_SIZE)?;
        let mut writer = RunWriter::new(segment, width, rows_per_page);
        for &r in &perm {
            writer.push_row(pool, &self.buffer, r as usize)?;
        }
        let run = writer.finish(pool)?;
        ExecMetrics::add(&self.metrics.spilled_runs, 1);
        ExecMetrics::add(&self.metrics.spilled_bytes, (run.rows * width * ENTRY_ENC_BYTES) as u64);
        self.spill.as_mut().expect("spill mode").runs.push(run);
        self.track_release(PAGE_SIZE);
        let freed = self.buffered_bytes;
        self.buffer.truncate(0);
        self.buffered_bytes = 0;
        self.track_release(freed);
        Ok(())
    }

    /// Row indices of `buffer` in stable sorted order of the key
    /// column.
    fn permutation(&self) -> Vec<u32> {
        let rows = u32::try_from(self.buffer.len()).expect("sort buffer row count fits u32");
        let mut perm: Vec<u32> = (0..rows).collect();
        perm.sort_by_key(|&r| self.buffer.order_key(self.col, r as usize));
        perm
    }

    /// Cascade-merge runs down to the fan-in, then stand up the final
    /// streaming merge. Returns the total row count across runs.
    fn finish_spill(&mut self) -> Result<u64, EngineError> {
        let ctx = self.spill.as_ref().expect("finish_spill requires spill mode");
        let (pool, segment, policy) = (ctx.pool, ctx.segment, ctx.policy);
        let schema = Arc::clone(&self.schema);
        let width = schema.width();
        let col = self.col;
        // A cursor decodes one page of its run at a time: at most a
        // page's rows, and never more than the run holds — so the
        // cursors of any set of runs hold at most those runs' bytes.
        let rows_per_page = policy.rows_per_page(width);
        let cursors_bytes = |runs: &[SpillRun<'a>]| -> usize {
            runs.iter().map(|r| r.rows.min(rows_per_page) * schema.row_bytes()).sum()
        };
        let mut runs = std::mem::take(&mut self.spill.as_mut().expect("spill mode").runs);
        while runs.len() > policy.fan_in {
            // One cascade round: merge consecutive groups of `fan_in`
            // runs left to right. Groups preserve input order across
            // runs, so the run-index tiebreak keeps reproducing
            // stable-sort order, and each round shrinks the run count
            // by the fan-in factor (logarithmically many rounds).
            let mut next = Vec::with_capacity(runs.len().div_ceil(policy.fan_in));
            let mut pending = std::mem::take(&mut runs).into_iter().peekable();
            while pending.peek().is_some() {
                let head: Vec<SpillRun<'a>> = pending.by_ref().take(policy.fan_in).collect();
                if head.len() == 1 {
                    // A lone trailing run needs no rewrite.
                    next.extend(head);
                    continue;
                }
                let reserved = cursors_bytes(&head) + PAGE_SIZE;
                self.track_reserve(reserved)?;
                let mut merge = MergeState::new(head, &schema, col, pool, segment)?;
                let mut writer = RunWriter::new(segment, width, rows_per_page);
                while merge.pop(pool, segment, col, |src, r| writer.push_row(pool, src, r))? {}
                let merged = writer.finish(pool)?;
                ExecMetrics::add(&self.metrics.spill_merge_passes, 1);
                ExecMetrics::add(
                    &self.metrics.spilled_bytes,
                    (merged.rows * width * ENTRY_ENC_BYTES) as u64,
                );
                drop(merge); // frees the consumed runs' pages for recycling
                self.track_release(reserved);
                next.push(merged);
            }
            runs = next;
        }
        let total: u64 = runs.iter().map(|r| r.rows as u64).sum();
        // The final merge's cursors stay resident until the operator
        // drops (emission is streaming).
        self.track_reserve(cursors_bytes(&runs))?;
        let merge = MergeState::new(runs, &schema, col, pool, segment)?;
        self.spill.as_mut().expect("spill mode").merge = Some(merge);
        Ok(total)
    }

    fn materialize(&mut self) -> Result<(), EngineError> {
        let Some(mut input) = self.input.take() else { return Ok(()) };
        let row_bytes = self.schema.row_bytes();
        while let Some(batch) = input.next_batch()? {
            let bytes = batch.len() * row_bytes;
            self.maybe_flush(bytes)?;
            self.track_reserve(bytes)?;
            self.buffered_bytes += bytes;
            self.buffer.append(&batch);
        }
        let rows = self.buffer.len();
        let total = if self.spill.as_ref().is_some_and(|s| !s.runs.is_empty()) {
            if rows > 0 {
                self.flush_run()?;
            }
            self.finish_spill()?
        } else {
            self.perm = self.permutation();
            rows as u64
        };
        ExecMetrics::add(&self.metrics.sort_operations, 1);
        ExecMetrics::add(&self.metrics.sorted_tuples, total);
        Ok(())
    }

    /// Emit the next batch from the final k-way merge.
    fn next_merged_batch(&mut self) -> Result<Option<TupleBatch>, EngineError> {
        let schema = self.schema.clone();
        let (col, cap) = (self.col, self.batch_rows);
        let ctx = self.spill.as_mut().expect("merge emission requires spill mode");
        let (pool, segment) = (ctx.pool, ctx.segment);
        let merge = ctx.merge.as_mut().expect("merge emission requires a merge");
        let mut batch = TupleBatch::with_capacity(schema, cap);
        while batch.len() < cap
            && merge.pop(pool, segment, col, |src, r| {
                batch.push_from(0, src, r);
                Ok(())
            })?
        {}
        if batch.is_empty() {
            return Ok(None);
        }
        ExecMetrics::add(&self.metrics.produced_tuples, batch.len() as u64);
        Ok(Some(batch))
    }
}

impl Drop for SortOp<'_> {
    fn drop(&mut self) {
        self.metrics.release_bytes(self.reserved_bytes);
        if self.spill.is_some() {
            if let Some(guard) = &self.guard {
                guard.release(self.guard_reserved);
            }
        }
    }
}

impl Operator for SortOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn ordered_col(&self) -> usize {
        self.col
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EngineError> {
        if self.input.is_some() {
            self.materialize()?;
        }
        if self.spill.as_ref().is_some_and(|s| s.merge.is_some()) {
            return self.next_merged_batch();
        }
        if self.emitted >= self.perm.len() {
            return Ok(None);
        }
        let end = (self.emitted + self.batch_rows).min(self.perm.len());
        let batch = self.buffer.gather(self.perm[self.emitted..end].iter().map(|&r| r as usize));
        self.emitted = end;
        ExecMetrics::add(&self.metrics.produced_tuples, batch.len() as u64);
        Ok(Some(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GuardBreach;
    use crate::ops::VecInput;
    use crate::tuple::{Tuple, WIDE_BYTES};

    fn two_col_rows(pairs: &[(u32, u32)]) -> VecInput {
        let rows: Vec<Tuple> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                vec![
                    Entry {
                        node: NodeId(i as u32),
                        region: Region { start: a, end: a + 1, level: 0 },
                    },
                    Entry {
                        node: NodeId(100 + i as u32),
                        region: Region { start: b, end: b + 1, level: 1 },
                    },
                ]
            })
            .collect();
        VecInput::new(Schema::new(vec![PnId(0), PnId(1)]), rows)
    }

    #[test]
    fn sorts_by_requested_column() {
        let m = ExecMetrics::new();
        let input = two_col_rows(&[(5, 10), (1, 30), (3, 20)]);
        let mut op = SortOp::new(Box::new(input), PnId(1), Arc::clone(&m)).unwrap();
        let mut seen = vec![];
        while let Some(b) = op.next_batch().unwrap() {
            assert!(b.is_sorted_by(op.ordered_col()));
            seen.extend(b.regions(1).iter().map(|r| r.start));
        }
        assert_eq!(seen, vec![10, 20, 30]);
        let s = m.snapshot();
        assert_eq!(s.sort_operations, 1);
        assert_eq!(s.sorted_tuples, 3);
        assert_eq!(s.produced_tuples, 3);
    }

    #[test]
    fn sorted_output_respects_batch_granularity() {
        let m = ExecMetrics::new();
        let input = two_col_rows(&[(5, 10), (1, 30), (3, 20)]);
        let mut op =
            SortOp::new(Box::new(input), PnId(0), Arc::clone(&m)).unwrap().with_batch_rows(2);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| op.next_batch().unwrap().map(|b| b.len())).collect();
        assert_eq!(sizes, vec![2, 1]);
        assert_eq!(m.snapshot().produced_tuples, 3);
    }

    #[test]
    fn empty_input_sorts_empty() {
        let m = ExecMetrics::new();
        let input = two_col_rows(&[]);
        let mut op = SortOp::new(Box::new(input), PnId(0), m.clone()).unwrap();
        assert!(op.next_batch().unwrap().is_none());
        assert_eq!(m.snapshot().sort_operations, 1);
    }

    #[test]
    fn peak_bytes_track_the_materialized_buffer() {
        use std::sync::atomic::Ordering;
        let m = ExecMetrics::new();
        let input = two_col_rows(&[(5, 10), (1, 30), (3, 20)]);
        {
            let mut op = SortOp::new(Box::new(input), PnId(0), Arc::clone(&m)).unwrap();
            while op.next_batch().unwrap().is_some() {}
            let live = 3 * 2 * std::mem::size_of::<Entry>() as u64;
            assert_eq!(m.cur_bytes.load(Ordering::Relaxed), live);
        }
        assert_eq!(m.cur_bytes.load(Ordering::Relaxed), 0, "released on drop");
        assert!(m.snapshot().peak_bytes > 0);
    }

    #[test]
    fn sorting_unbound_column_is_a_typed_error() {
        let m = ExecMetrics::new();
        let input = two_col_rows(&[(1, 2)]);
        let err = SortOp::new(Box::new(input), PnId(9), m).err().expect("unbound column");
        assert!(matches!(err, EngineError::InvalidPlan(msg) if msg.contains("unbound column")));
    }

    #[test]
    fn memory_budget_stops_materialization() {
        let m = ExecMetrics::new();
        let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(16));
        let input = two_col_rows(&[(5, 10), (1, 30), (3, 20)]).with_batch_rows(1);
        let mut op =
            SortOp::new(Box::new(input), PnId(0), m).unwrap().with_batch_rows(1).with_guard(guard);
        let err = op.next_batch().unwrap_err();
        assert!(matches!(err, EngineError::Guard { breach: GuardBreach::MemoryBudget { .. }, .. }));
    }

    // ---- spill mode ----

    fn spill_env(frames: usize) -> (BufferPool, SpillSegment) {
        let stats = Arc::new(sjos_storage::IoStats::new());
        let disk = Arc::new(sjos_storage::InMemoryDisk::new(Arc::clone(&stats)));
        (BufferPool::new(disk, stats, frames), SpillSegment::new())
    }

    /// `n` rows whose keys are a pseudo-shuffle with many duplicates —
    /// duplicates are what distinguish a stable merge from an unstable
    /// one.
    fn shuffled_pairs(n: u32) -> Vec<(u32, u32)> {
        (0..n).map(|i| ((i * 7919) % 97, (i * 31) % 13)).collect()
    }

    fn drain_rows(op: &mut SortOp<'_>) -> Vec<Tuple> {
        let mut rows = Vec::new();
        while let Some(b) = op.next_batch().unwrap() {
            assert!(b.is_sorted_by(op.ordered_col()));
            rows.extend((0..b.len()).map(|r| b.row(r)));
        }
        rows
    }

    #[test]
    fn spilled_sort_is_bit_identical_to_in_memory_at_every_batch_size() {
        let pairs = shuffled_pairs(5_000);
        for &batch_rows in &[1usize, 3, 1024] {
            let m = ExecMetrics::new();
            let mut baseline = SortOp::new(
                Box::new(two_col_rows(&pairs).with_batch_rows(batch_rows)),
                PnId(1),
                Arc::clone(&m),
            )
            .unwrap()
            .with_batch_rows(batch_rows);
            let expected = drain_rows(&mut baseline);

            let (pool, segment) = spill_env(64);
            let m2 = ExecMetrics::new();
            let mut spilled = SortOp::new(
                Box::new(two_col_rows(&pairs).with_batch_rows(batch_rows)),
                PnId(1),
                Arc::clone(&m2),
            )
            .unwrap()
            .with_batch_rows(batch_rows)
            // Tiny threshold: every input batch becomes its own run.
            .with_spill(
                &pool,
                &segment,
                SpillPolicy::with_threshold(64).with_fan_in(3),
            );
            let got = drain_rows(&mut spilled);

            assert_eq!(got, expected, "batch_rows={batch_rows}");
            let s = m2.snapshot();
            assert!(s.spilled_runs > 1, "batch_rows={batch_rows}: expected spilling");
            assert!(s.spilled_bytes > 0);
            drop(spilled);
            assert_eq!(segment.live_pages(), 0, "all temp pages returned");
        }
    }

    #[test]
    fn cascade_merge_kicks_in_past_the_fan_in() {
        let pairs = shuffled_pairs(400);
        let (pool, segment) = spill_env(64);
        let m = ExecMetrics::new();
        let mut op =
            SortOp::new(Box::new(two_col_rows(&pairs).with_batch_rows(8)), PnId(0), Arc::clone(&m))
                .unwrap()
                .with_spill(&pool, &segment, SpillPolicy::with_threshold(0).with_fan_in(2));
        let rows = drain_rows(&mut op);
        assert_eq!(rows.len(), 400);
        let s = m.snapshot();
        assert!(s.spill_merge_passes > 0, "fan-in 2 over many runs must cascade");
        drop(op);
        assert_eq!(segment.live_pages(), 0);
    }

    #[test]
    fn starved_guard_spills_instead_of_breaching() {
        let pairs = shuffled_pairs(10_000);
        let row_bytes = 2 * std::mem::size_of::<Entry>();
        let total_bytes = pairs.len() * row_bytes;
        let budget =
            SpillPolicy::with_threshold(0).resident_bound(2, row_bytes, 64) + 4 * row_bytes * 64;
        assert!(budget < total_bytes, "budget must starve the in-memory sort");
        let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(budget));

        // Without spill the same budget breaches.
        let m0 = ExecMetrics::new();
        let mut plain =
            SortOp::new(Box::new(two_col_rows(&pairs).with_batch_rows(64)), PnId(0), m0)
                .unwrap()
                .with_batch_rows(64)
                .with_guard(Arc::clone(&guard));
        let err = plain.next_batch().unwrap_err();
        assert!(matches!(err, EngineError::Guard { breach: GuardBreach::MemoryBudget { .. }, .. }));
        drop(plain);

        let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(budget));
        let policy =
            SpillPolicy::for_budget(budget, 2, row_bytes, 64).expect("budget fits the machinery");
        let (pool, segment) = spill_env(64);
        let m = ExecMetrics::new();
        let mut op = SortOp::new(
            Box::new(two_col_rows(&pairs).with_batch_rows(64)),
            PnId(0),
            Arc::clone(&m),
        )
        .unwrap()
        .with_batch_rows(64)
        .with_guard(Arc::clone(&guard))
        .with_spill(&pool, &segment, policy);
        let rows = drain_rows(&mut op);
        assert_eq!(rows.len(), pairs.len());
        let s = m.snapshot();
        assert!(s.spilled_runs > 0, "the starved budget must force spilling");
        assert!(
            (s.peak_bytes as usize) <= policy.resident_bound(2, row_bytes, 64),
            "peak {} exceeds the certified bound {}",
            s.peak_bytes,
            policy.resident_bound(2, row_bytes, 64)
        );
        drop(op);
        assert_eq!(segment.live_pages(), 0, "no leaked temp pages");
        assert_eq!(guard.bytes_reserved(), 0, "spill mode releases the guard on drop");
    }

    #[test]
    fn oversized_single_batch_still_breaches_typed() {
        let pairs = shuffled_pairs(512);
        let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(256));
        let (pool, segment) = spill_env(16);
        let m = ExecMetrics::new();
        // One 512-row batch (~16 KiB) against a 256-byte budget: no
        // threshold can help, the reservation itself must fail.
        let mut op = SortOp::new(Box::new(two_col_rows(&pairs)), PnId(0), m)
            .unwrap()
            .with_guard(guard)
            .with_spill(&pool, &segment, SpillPolicy::with_threshold(0));
        let err = op.next_batch().unwrap_err();
        assert!(matches!(err, EngineError::Guard { breach: GuardBreach::MemoryBudget { .. }, .. }));
        drop(op);
        assert_eq!(segment.live_pages(), 0, "error path frees temp pages");
    }

    #[test]
    fn spill_policy_budget_round_trip() {
        let row_bytes = 2 * WIDE_BYTES;
        let policy = SpillPolicy::for_budget(1 << 20, 2, row_bytes, BATCH_ROWS).unwrap();
        assert!(policy.resident_bound(2, row_bytes, BATCH_ROWS) <= 1 << 20);
        assert!(
            SpillPolicy::for_budget(1024, 2, row_bytes, BATCH_ROWS).is_none(),
            "too small to spill"
        );
        assert_eq!(SpillPolicy::with_threshold(0).with_fan_in(0).fan_in, 2, "fan-in clamps");
    }

    #[test]
    fn entry_page_encoding_round_trips() {
        let mut page = Page::zeroed();
        let e = Entry {
            node: NodeId(0xDEAD_BEEF),
            region: Region { start: 17, end: u32::MAX - 3, level: 9 },
        };
        encode_entry(&mut page, RUN_PAGE_HEADER, e);
        assert_eq!(decode_entry(&page, RUN_PAGE_HEADER), e);
    }
}
