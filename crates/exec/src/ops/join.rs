//! Stack-tree structural joins over batched tuple streams.
//!
//! Both algorithms come from Al-Khalifa et al., *Structural Joins: A
//! Primitive for Efficient XML Query Pattern Matching* (ICDE 2002),
//! generalized from node lists to tuple lists: the left input binds
//! the ancestor-side pattern node (and is ordered by it), the right
//! input binds the descendant-side node (ordered by it). A stack of
//! left tuples tracks the current ancestor chain.
//!
//! * **Stack-Tree-Desc** emits each output pair the moment the
//!   descendant tuple is consumed — fully streaming, output ordered
//!   by the descendant node.
//! * **Stack-Tree-Anc** must emit in ancestor order, so pairs are
//!   parked on per-stack-entry *self* and *inherit* lists and released
//!   when the stack bottom pops (the buffering that gives the
//!   algorithm its extra I/O cost term in the paper's model).
//!
//! The merge loop itself stays tuple-granular (the algorithms are
//! inherently cursor-based), but inputs arrive and output leaves in
//! columnar [`TupleBatch`]es, and the stack/buffer/output metric
//! counters are accumulated locally and flushed with one atomic add
//! per counter per batch — the totals are bit-identical to the
//! tuple-at-a-time engine for every batch size.
//!
//! Nothing in the merge loop allocates per row. Stack rows live in one
//! flat `Vec<Entry>` (stride = left width), copied straight from the
//! input batch. Anc's pairs live in one append-only `PairArena`;
//! the self, inherit and ready lists are linked lists over it, so
//! handing a popped entry's pairs down the stack is an O(1) splice, as
//! in the paper, rather than a copy per nesting level. The arena
//! empties whenever `ready` drains: pairs reach `ready` only when the
//! stack bottom pops, so at that moment no stack entry holds a pair.
//!
//! The merge loop additionally keeps its counters *partition-exact*:
//! every left tuple consumed is pushed (and eventually popped) even
//! after the right stream ends, so `stack_pushes` equals the number
//! of left tuples and `stack_pops` equals `stack_pushes` for any
//! input. Because a region-range morsel's inputs are exactly the
//! serial inputs restricted to its range — and a valid cut is one no
//! scanned interval straddles, so the serial stack is empty at every
//! cut — per-morsel counters sum bit-identically to the serial run
//! (planck rule PL068 re-verifies this dynamically).

use std::sync::Arc;

use sjos_pattern::{Axis, PnId};

use crate::error::EngineError;
use crate::guard::QueryGuard;
use crate::metrics::ExecMetrics;
use crate::ops::{BoxedOperator, InputCursor, Operator};
use crate::plan::JoinAlgo;
use crate::tuple::{Entry, Schema, TupleBatch, BATCH_ROWS};

/// Link terminating a [`PairList`].
const NIL: u32 = u32::MAX;

/// A singly linked list of pairs in a [`PairArena`]: O(1) append and
/// O(1) concatenation.
#[derive(Clone, Copy)]
struct PairList {
    head: u32,
    tail: u32,
    len: usize,
}

impl PairList {
    const EMPTY: PairList = PairList { head: NIL, tail: NIL, len: 0 };
}

/// Append-only storage for Stack-Tree-Anc's buffered output pairs:
/// pair `k` is `entries[k * width..(k + 1) * width]`, and `next[k]`
/// links it to the following pair of whichever list holds it.
struct PairArena {
    width: usize,
    entries: Vec<Entry>,
    next: Vec<u32>,
}

impl PairArena {
    fn new(width: usize) -> PairArena {
        PairArena { width, entries: Vec::new(), next: Vec::new() }
    }

    /// Store the pair `anc ++ desc` at the end of `list`.
    fn push(&mut self, list: &mut PairList, anc: &[Entry], desc: &[Entry]) {
        let k = u32::try_from(self.next.len())
            .ok()
            .filter(|&k| k < NIL)
            .expect("pair arena index overflow");
        self.entries.extend_from_slice(anc);
        self.entries.extend_from_slice(desc);
        self.next.push(NIL);
        *list = self.concat(*list, PairList { head: k, tail: k, len: 1 });
    }

    /// `a ++ b`, splicing `b` after `a`'s tail.
    fn concat(&mut self, a: PairList, b: PairList) -> PairList {
        if a.len == 0 {
            return b;
        }
        if b.len == 0 {
            return a;
        }
        self.next[a.tail as usize] = b.head;
        PairList { head: a.head, tail: b.tail, len: a.len + b.len }
    }

    fn pair(&self, k: u32) -> &[Entry] {
        let k = k as usize;
        &self.entries[k * self.width..(k + 1) * self.width]
    }

    /// Drop every pair, keeping the capacity for reuse.
    fn clear(&mut self) {
        self.entries.clear();
        self.next.clear();
    }
}

/// Stack-Tree-Anc's pair lists for one stack entry.
#[derive(Clone, Copy)]
struct AncLists {
    /// Pairs with this entry as the ancestor.
    own: PairList,
    /// Ordered pairs inherited from popped descendants.
    inherited: PairList,
}

/// A structural join operator (either stack-tree variant).
pub struct StackTreeJoinOp<'a> {
    left: InputCursor<'a>,
    right: InputCursor<'a>,
    /// Column index of the ancestor-side join node in the left input.
    left_col: usize,
    /// Column index of the descendant-side join node in the right
    /// input.
    right_col: usize,
    /// Width of the left input (offset of right columns in output).
    left_width: usize,
    axis: Axis,
    algo: JoinAlgo,
    schema: Arc<Schema>,
    metrics: Arc<ExecMetrics>,
    guard: Option<Arc<QueryGuard>>,

    /// The ancestor stack: row `i` is `stack[i * left_width..]`.
    stack: Vec<Entry>,
    /// Anc: the pair lists of each stack entry (parallel to `stack`).
    lists: Vec<AncLists>,
    /// Anc: every buffered pair.
    arena: PairArena,
    /// Anc: completed output awaiting delivery.
    ready: PairList,
    /// Reused copy of the right tuple being consumed.
    scratch_right: Vec<Entry>,
    done: bool,
    batch_rows: usize,

    /// Local metric accumulators, flushed once per batch.
    c_pushes: u64,
    c_pops: u64,
    c_buffered: u64,
    /// Anc pairs created over the operator's lifetime / already
    /// reported to the guard — the delta is reserved once per batch.
    pairs_created: u64,
    pairs_reserved: u64,
    /// Bytes currently accounted to [`ExecMetrics`] as live (stack
    /// entries plus buffered Anc pairs); the remainder is released on
    /// drop. Unlike the guard's cumulative reservation this tracks
    /// the instantaneous footprint, so it shrinks as pairs leave via
    /// `ready` and stack entries pop.
    metrics_live_bytes: u64,
}

impl<'a> StackTreeJoinOp<'a> {
    /// Join `left` (binding/ordered by `anc`) with `right`
    /// (binding/ordered by `desc`).
    ///
    /// # Errors
    /// [`EngineError::InvalidPlan`] if an input does not bind its
    /// join node, or if `algo` is [`JoinAlgo::MergeJoin`] (which is
    /// implemented by `MergeJoinOp`) — optimizer bugs, reported
    /// instead of panicking.
    pub fn new(
        left: BoxedOperator<'a>,
        right: BoxedOperator<'a>,
        anc: PnId,
        desc: PnId,
        axis: Axis,
        algo: JoinAlgo,
        metrics: Arc<ExecMetrics>,
    ) -> Result<Self, EngineError> {
        let left_col = left.schema().position(anc).ok_or_else(|| {
            EngineError::InvalidPlan(format!("left join input does not bind {anc:?}"))
        })?;
        let right_col = right.schema().position(desc).ok_or_else(|| {
            EngineError::InvalidPlan(format!("right join input does not bind {desc:?}"))
        })?;
        if algo == JoinAlgo::MergeJoin {
            return Err(EngineError::InvalidPlan(
                "MergeJoin is implemented by MergeJoinOp, not the stack-tree operator".into(),
            ));
        }
        let schema = Arc::new(left.schema().concat(right.schema()));
        let left_width = left.schema().width();
        Ok(StackTreeJoinOp {
            left: InputCursor::new(left, left_col),
            right: InputCursor::new(right, right_col),
            left_col,
            right_col,
            left_width,
            axis,
            algo,
            arena: PairArena::new(schema.width()),
            schema,
            metrics,
            guard: None,
            stack: Vec::new(),
            lists: Vec::new(),
            ready: PairList::EMPTY,
            scratch_right: Vec::new(),
            done: false,
            batch_rows: BATCH_ROWS,
            c_pushes: 0,
            c_pops: 0,
            c_buffered: 0,
            pairs_created: 0,
            pairs_reserved: 0,
            metrics_live_bytes: 0,
        })
    }

    /// Override the batch granularity (default [`BATCH_ROWS`]). A
    /// batch may overshoot the target by the stack depth because one
    /// descendant's matches are always emitted together.
    #[must_use]
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// Report Anc pair-buffer growth to `guard`'s memory budget.
    #[must_use]
    pub fn with_guard(mut self, guard: Arc<QueryGuard>) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Start of the current left tuple's ancestor-column region.
    fn left_start(&mut self) -> Result<Option<u32>, EngineError> {
        let col = self.left_col;
        Ok(self.left.peek()?.map(|(b, r)| b.entry(col, r).region.start))
    }

    /// Start of the current right tuple's descendant-column region.
    fn right_start(&mut self) -> Result<Option<u32>, EngineError> {
        let col = self.right_col;
        Ok(self.right.peek()?.map(|(b, r)| b.entry(col, r).region.start))
    }

    /// Number of entries on the stack.
    #[inline]
    fn depth(&self) -> usize {
        self.stack.len() / self.left_width
    }

    /// Bytes of one stack entry's tuple.
    #[inline]
    fn stack_entry_bytes(&self) -> u64 {
        (self.left_width * std::mem::size_of::<Entry>()) as u64
    }

    /// Bytes of one buffered output pair.
    #[inline]
    fn pair_bytes(&self) -> u64 {
        (self.schema.width() * std::mem::size_of::<Entry>()) as u64
    }

    #[inline]
    fn reserve_live(&mut self, bytes: u64) {
        if bytes > 0 {
            self.metrics.reserve_bytes(bytes);
            self.metrics_live_bytes += bytes;
        }
    }

    #[inline]
    fn release_live(&mut self, bytes: u64) {
        if bytes > 0 {
            self.metrics.release_bytes(bytes);
            self.metrics_live_bytes = self.metrics_live_bytes.saturating_sub(bytes);
        }
    }

    /// Pop every stack entry whose interval ends before `pos`.
    fn pop_before(&mut self, pos: u32) {
        let mut popped = 0u64;
        while let Some(top) = self.stack.len().checked_sub(self.left_width) {
            if self.stack[top + self.left_col].region.end < pos {
                self.pop_one();
                popped += 1;
            } else {
                break;
            }
        }
        // Releases only lower the live total, so one release for the
        // whole run leaves the peak exactly as per-entry releases do.
        self.release_live(popped * self.stack_entry_bytes());
    }

    /// Pop the top entry, routing its buffered pairs (Anc). The
    /// caller releases the entry's live bytes.
    fn pop_one(&mut self) {
        // Invariant: both call sites check the stack is non-empty
        // (`pop_before` peeks the top, `step` pops `depth()` times).
        let top = self.stack.len().checked_sub(self.left_width).expect("pop from empty stack");
        self.stack.truncate(top);
        self.c_pops += 1;
        if self.algo == JoinAlgo::StackTreeAnc {
            let entry = self.lists.pop().expect("pair lists parallel the stack");
            let pairs = self.arena.concat(entry.own, entry.inherited);
            match self.lists.last_mut() {
                Some(below) => {
                    self.c_buffered += pairs.len as u64;
                    below.inherited = self.arena.concat(below.inherited, pairs);
                }
                None => self.ready = self.arena.concat(self.ready, pairs),
            }
        }
    }

    /// Push the current left row (the caller has peeked it).
    fn push_left(&mut self) -> Result<(), EngineError> {
        let (batch, row) = self.left.peek()?.expect("left row present");
        batch.append_row_to(row, &mut self.stack);
        self.left.advance();
        self.c_pushes += 1;
        self.reserve_live(self.stack_entry_bytes());
        if self.algo == JoinAlgo::StackTreeAnc {
            self.lists.push(AncLists { own: PairList::EMPTY, inherited: PairList::EMPTY });
        }
        Ok(())
    }

    /// One step of the merge loop: consume one input tuple, emitting
    /// Desc pairs into `out`. Sets `done` when no further output can
    /// exist (buffered Anc output may still be in `ready`).
    fn step(&mut self, out: &mut TupleBatch) -> Result<(), EngineError> {
        match (self.left_start()?, self.right_start()?) {
            (Some(a_start), Some(d_start)) => {
                if a_start < d_start {
                    self.pop_before(a_start);
                    self.push_left()?;
                } else {
                    self.consume_right(out)?;
                }
            }
            (None, Some(_)) => {
                self.consume_right(out)?;
                // Once the stack is empty with the left side done, no
                // later descendant can match; run the abandoned right
                // side out so total work is batch-size-independent.
                if self.stack.is_empty() {
                    self.right.exhaust()?;
                    self.done = true;
                }
            }
            // No descendants left, but ancestors remain: keep them on
            // the normal push/pop path (they cannot produce output,
            // but this keeps stack traffic equal to the number of
            // left tuples consumed — the invariant that makes metric
            // totals decompose exactly over region-range morsels,
            // where a morsel's descendant slice may end before its
            // ancestor slice does).
            (Some(a_start), None) => {
                self.pop_before(a_start);
                self.push_left()?;
            }
            // Both sides done: flush the remaining stack (Anc pair
            // routing included) and stop.
            (None, None) => {
                let depth = self.depth() as u64;
                for _ in 0..depth {
                    self.pop_one();
                }
                self.release_live(depth * self.stack_entry_bytes());
                self.done = true;
            }
        }
        Ok(())
    }

    /// Process the current right tuple against the stack.
    fn consume_right(&mut self, out: &mut TupleBatch) -> Result<(), EngineError> {
        // Invariant: every caller has just peeked a right row.
        let d_start = self.right_start()?.expect("right row present");
        self.pop_before(d_start);
        {
            let (batch, row) = self.right.peek()?.expect("right row present");
            self.scratch_right.clear();
            batch.append_row_to(row, &mut self.scratch_right);
        }
        self.right.advance();
        let lw = self.left_width;
        // Containment is implied by stack membership; only the level
        // test remains for `/`.
        let d_level = self.scratch_right[self.right_col].region.level;
        let (axis, left_col) = (self.axis, self.left_col);
        let axis_ok =
            |a: &[Entry]| axis == Axis::Descendant || a[left_col].region.level + 1 == d_level;
        match self.algo {
            JoinAlgo::StackTreeDesc => {
                // Emit bottom-up so each descendant's pairs leave in
                // ancestor order, matching the tuple-engine's lazy
                // stack walk. The capacity starts at the target, so
                // matches that do not fit end the batch: grow once, by
                // exactly their number, and a kept batch carries no
                // doubling slack. Matches are counted only when the
                // stack depth, their upper bound, would not fit.
                if out.len() + self.depth() > out.capacity() {
                    let matches = self.stack.chunks_exact(lw).filter(|a| axis_ok(a)).count();
                    if out.len() + matches > out.capacity() {
                        out.reserve_exact(matches);
                    }
                }
                for a in self.stack.chunks_exact(lw) {
                    if axis_ok(a) {
                        out.push_concat(a, &self.scratch_right);
                    }
                }
            }
            JoinAlgo::StackTreeAnc => {
                let mut created = 0u64;
                for (a, lists) in self.stack.chunks_exact(lw).zip(&mut self.lists) {
                    if axis_ok(a) {
                        self.arena.push(&mut lists.own, a, &self.scratch_right);
                        created += 1;
                    }
                }
                self.c_buffered += created;
                self.pairs_created += created;
                // No release happens in between, so one reservation
                // for this descendant's pairs reaches the same peak.
                self.reserve_live(created * self.pair_bytes());
            }
            JoinAlgo::MergeJoin => unreachable!("rejected in the constructor"),
        }
        Ok(())
    }

    /// Move pairs from the head of `ready` into `out` until it is full,
    /// emptying the arena once `ready` drains.
    fn drain_ready(&mut self, out: &mut TupleBatch) {
        let n = (self.batch_rows - out.len()).min(self.ready.len);
        let mut k = self.ready.head;
        for _ in 0..n {
            out.push_row(self.arena.pair(k));
            k = self.arena.next[k as usize];
        }
        self.ready.head = k;
        self.ready.len -= n;
        self.release_live(n as u64 * self.pair_bytes());
        if self.ready.len == 0 {
            // Pairs reach `ready` only when the stack bottom pops, and
            // none are created until it drains: no other list holds a
            // pair now.
            debug_assert!(self.lists.iter().all(|l| l.own.len == 0 && l.inherited.len == 0));
            self.ready = PairList::EMPTY;
            self.arena.clear();
        }
    }

    /// Flush local counters to the shared metrics — one atomic add
    /// per touched counter per batch.
    fn flush_metrics(&mut self) {
        if self.c_pushes > 0 {
            ExecMetrics::add(&self.metrics.stack_pushes, self.c_pushes);
            self.c_pushes = 0;
        }
        if self.c_pops > 0 {
            ExecMetrics::add(&self.metrics.stack_pops, self.c_pops);
            self.c_pops = 0;
        }
        if self.c_buffered > 0 {
            ExecMetrics::add(&self.metrics.buffered_pairs, self.c_buffered);
            self.c_buffered = 0;
        }
    }

    /// Account newly created Anc pairs against the guard's memory
    /// budget (once per output batch). Pairs moving between inherit
    /// lists and `ready` are not counted again — only creation
    /// allocates.
    fn reserve_buffered(&mut self) -> Result<(), EngineError> {
        if self.pairs_created > self.pairs_reserved {
            if let Some(guard) = &self.guard {
                let pair_bytes = self.schema.width() * std::mem::size_of::<Entry>();
                let fresh = (self.pairs_created - self.pairs_reserved) as usize;
                guard.reserve(fresh * pair_bytes)?;
            }
            self.pairs_reserved = self.pairs_created;
        }
        Ok(())
    }
}

impl Drop for StackTreeJoinOp<'_> {
    fn drop(&mut self) {
        self.metrics.release_bytes(self.metrics_live_bytes);
    }
}

impl Operator for StackTreeJoinOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn ordered_col(&self) -> usize {
        match self.algo {
            JoinAlgo::StackTreeDesc => self.left_width + self.right_col,
            _ => self.left_col,
        }
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EngineError> {
        let mut out = TupleBatch::with_capacity(self.schema.clone(), self.batch_rows);
        while out.len() < self.batch_rows {
            if self.ready.len > 0 {
                self.drain_ready(&mut out);
                continue;
            }
            if self.done {
                break;
            }
            if let Err(e) = self.step(&mut out) {
                // Flush before propagating so partial metrics are
                // accurate at the moment of failure.
                self.flush_metrics();
                return Err(e);
            }
        }
        self.flush_metrics();
        self.reserve_buffered()?;
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
    use crate::ops::VecInput;
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

    /// Document shape:
    /// a1=(0,11,0) contains a2=(1,6,1), d1=(2,3,2), d2=(4,5,2), d3=(7,8,1);
    /// a3=(12,15,0) contains d4=(13,14,1).
    fn ancestors() -> Vec<Region> {
        vec![r(0, 11, 0), r(1, 6, 1), r(12, 15, 0)]
    }

    fn descendants() -> Vec<Region> {
        vec![r(2, 3, 2), r(4, 5, 2), r(7, 8, 1), r(13, 14, 1)]
    }

    fn drain(op: &mut StackTreeJoinOp<'_>) -> Vec<(u32, u32)> {
        let mut out = vec![];
        while let Some(b) = op.next_batch().unwrap() {
            assert!(!b.is_empty(), "batches are never empty");
            for row in 0..b.len() {
                out.push((b.entry(0, row).region.start, b.entry(1, row).region.start));
            }
        }
        out
    }

    fn run_batched(
        algo: JoinAlgo,
        axis: Axis,
        batch_rows: usize,
    ) -> (Vec<(u32, u32)>, Arc<ExecMetrics>) {
        let m = ExecMetrics::new();
        let left = Box::new(fixed(PnId(0), ancestors()).with_batch_rows(batch_rows));
        let right = Box::new(fixed(PnId(1), descendants()).with_batch_rows(batch_rows));
        let mut op =
            StackTreeJoinOp::new(left, right, PnId(0), PnId(1), axis, algo, Arc::clone(&m))
                .unwrap()
                .with_batch_rows(batch_rows);
        (drain(&mut op), m)
    }

    fn run(algo: JoinAlgo, axis: Axis) -> (Vec<(u32, u32)>, Arc<ExecMetrics>) {
        run_batched(algo, axis, BATCH_ROWS)
    }

    #[test]
    fn desc_finds_all_ancestor_descendant_pairs() {
        let (out, _) = run(JoinAlgo::StackTreeDesc, Axis::Descendant);
        // Expected pairs (anc.start, desc.start):
        // d1(2): a1, a2; d2(4): a1, a2; d3(7): a1; d4(13): a3.
        let mut expected = vec![(0, 2), (1, 2), (0, 4), (1, 4), (0, 7), (12, 13)];
        let mut got = out.clone();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
        // Desc order: primary key = descendant start.
        let desc_starts: Vec<u32> = out.iter().map(|p| p.1).collect();
        assert!(desc_starts.windows(2).all(|w| w[0] <= w[1]), "{desc_starts:?}");
    }

    #[test]
    fn anc_output_is_ancestor_ordered() {
        let (out, _) = run(JoinAlgo::StackTreeAnc, Axis::Descendant);
        let anc_starts: Vec<u32> = out.iter().map(|p| p.0).collect();
        assert!(anc_starts.windows(2).all(|w| w[0] <= w[1]), "{anc_starts:?}");
        let mut got = out;
        got.sort_unstable();
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn anc_and_desc_agree_on_the_pair_set() {
        let (mut a, _) = run(JoinAlgo::StackTreeAnc, Axis::Descendant);
        let (mut d, _) = run(JoinAlgo::StackTreeDesc, Axis::Descendant);
        a.sort_unstable();
        d.sort_unstable();
        assert_eq!(a, d);
    }

    #[test]
    fn parent_child_filters_by_level() {
        let (mut out, _) = run(JoinAlgo::StackTreeDesc, Axis::Child);
        out.sort_unstable();
        // Parent pairs: a2(level1)->d1(level2), a2->d2, a1(level0)->d3(level1), a3->d4.
        assert_eq!(out, vec![(0, 7), (1, 2), (1, 4), (12, 13)]);
    }

    #[test]
    fn empty_inputs_produce_nothing() {
        let m = ExecMetrics::new();
        let left = Box::new(fixed(PnId(0), vec![]));
        let right = Box::new(fixed(PnId(1), descendants()));
        let mut op = StackTreeJoinOp::new(
            left,
            right,
            PnId(0),
            PnId(1),
            Axis::Descendant,
            JoinAlgo::StackTreeDesc,
            m,
        )
        .unwrap();
        assert!(op.next_batch().unwrap().is_none());
    }

    #[test]
    fn unbound_join_column_is_a_typed_error() {
        let m = ExecMetrics::new();
        let err = StackTreeJoinOp::new(
            Box::new(fixed(PnId(0), ancestors())),
            Box::new(fixed(PnId(1), descendants())),
            PnId(0),
            PnId(9),
            Axis::Descendant,
            JoinAlgo::StackTreeDesc,
            m,
        )
        .err()
        .expect("unbound descendant column");
        assert!(matches!(err, EngineError::InvalidPlan(_)));
    }

    #[test]
    fn anc_memory_budget_bounds_pair_buffering() {
        use crate::error::GuardBreach;
        // Nested ancestors make Anc buffer every pair; a tiny budget
        // trips once the self-lists grow.
        let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(64));
        let m = ExecMetrics::new();
        let mut op = StackTreeJoinOp::new(
            Box::new(fixed(PnId(0), ancestors())),
            Box::new(fixed(PnId(1), descendants())),
            PnId(0),
            PnId(1),
            Axis::Descendant,
            JoinAlgo::StackTreeAnc,
            m,
        )
        .unwrap()
        .with_batch_rows(1)
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
        assert!(saw_breach, "pair buffering must trip the memory budget");
    }

    #[test]
    fn metrics_count_stack_traffic() {
        let (_, m) = run(JoinAlgo::StackTreeDesc, Axis::Descendant);
        let s = m.snapshot();
        assert_eq!(s.stack_pushes, 3, "each ancestor pushed once");
        assert_eq!(s.stack_pops, 3);
        assert_eq!(s.produced_tuples, 6);
        assert_eq!(s.buffered_pairs, 0, "Desc never buffers");
        let (_, m2) = run(JoinAlgo::StackTreeAnc, Axis::Descendant);
        assert!(m2.snapshot().buffered_pairs >= 6, "Anc buffers every pair");
    }

    #[test]
    fn batch_size_never_changes_output_or_metrics() {
        for algo in [JoinAlgo::StackTreeDesc, JoinAlgo::StackTreeAnc] {
            let (base_out, base_m) = run_batched(algo, Axis::Descendant, BATCH_ROWS);
            let base = base_m.snapshot();
            for rows in [1, 2, 3] {
                let (out, m) = run_batched(algo, Axis::Descendant, rows);
                assert_eq!(out, base_out, "{algo:?} output differs at batch_rows={rows}");
                let s = m.snapshot();
                assert_eq!(s.stack_pushes, base.stack_pushes);
                assert_eq!(s.stack_pops, base.stack_pops);
                assert_eq!(s.buffered_pairs, base.buffered_pairs);
                assert_eq!(s.produced_tuples, base.produced_tuples);
            }
        }
    }

    #[test]
    fn peak_bytes_rise_while_running_and_release_on_drop() {
        use std::sync::atomic::Ordering;
        let (_, m) = run(JoinAlgo::StackTreeAnc, Axis::Descendant);
        let s = m.snapshot();
        let pair = 2 * std::mem::size_of::<Entry>() as u64;
        assert!(s.peak_bytes >= pair, "Anc buffering must register a peak: {}", s.peak_bytes);
        assert_eq!(m.cur_bytes.load(Ordering::Relaxed), 0, "all buffers released after drop");
    }

    #[test]
    fn self_join_excludes_identity() {
        // Same list on both sides (e.g. manager//manager).
        let regions = vec![r(0, 7, 0), r(1, 6, 1), r(2, 3, 2)];
        let m = ExecMetrics::new();
        let left = Box::new(fixed(PnId(0), regions.clone()));
        let right = Box::new(fixed(PnId(1), regions));
        let mut op = StackTreeJoinOp::new(
            left,
            right,
            PnId(0),
            PnId(1),
            Axis::Descendant,
            JoinAlgo::StackTreeDesc,
            m,
        )
        .unwrap();
        let mut out = drain(&mut op);
        out.sort_unstable();
        assert_eq!(out, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn deep_nesting_keeps_whole_chain_on_stack() {
        let n = 50u32;
        let ancs: Vec<Region> = (0..n).map(|i| r(i, 2 * n + 1 - i, i as u16)).collect();
        let descs = vec![r(n, n + 1, n as u16)];
        let m = ExecMetrics::new();
        let left = Box::new(fixed(PnId(0), ancs));
        let right = Box::new(fixed(PnId(1), descs));
        let mut op = StackTreeJoinOp::new(
            left,
            right,
            PnId(0),
            PnId(1),
            Axis::Descendant,
            JoinAlgo::StackTreeDesc,
            m,
        )
        .unwrap();
        let count: usize = std::iter::from_fn(|| op.next_batch().unwrap().map(|b| b.len())).sum();
        assert_eq!(count as u32, n, "every ancestor matches the single leaf");
    }

    /// Two nested ancestor chains (depth 8 and 4) with descendants at
    /// several depths, plus a trailing childless ancestor.
    fn deep_chain() -> (Vec<Region>, Vec<Region>) {
        let mut ancs: Vec<Region> = (0..8).map(|i| r(10 * i, 1000 - 10 * i, i as u16)).collect();
        ancs.extend((0..4).map(|j| r(2000 + 10 * j, 2100 - 10 * j, j as u16)));
        ancs.push(r(3000, 3001, 0));
        let descs = vec![
            r(1, 2, 1),
            r(21, 22, 3),
            r(51, 52, 6),
            r(71, 72, 8),
            r(942, 943, 6),
            r(983, 984, 2),
            r(2031, 2032, 4),
            r(2072, 2073, 3),
        ];
        (ancs, descs)
    }

    /// Nesting 8 deep (deeper than the 1- and 3-row batches) makes
    /// Anc splice pair lists down several levels and drain `ready`
    /// across batch boundaries. The expected values were recorded
    /// from the earlier implementation, which kept a `Vec<Tuple>` per
    /// list and re-moved every pair once per nesting level.
    #[test]
    fn anc_nesting_deeper_than_batch_matches_recorded_trace() {
        let by_anc: [(u32, &[u32]); 12] = [
            (0, &[1, 21, 51, 71, 942, 983]),
            (10, &[21, 51, 71, 942, 983]),
            (20, &[21, 51, 71, 942]),
            (30, &[51, 71, 942]),
            (40, &[51, 71, 942]),
            (50, &[51, 71, 942]),
            (60, &[71]),
            (70, &[71]),
            (2000, &[2031, 2072]),
            (2010, &[2031, 2072]),
            (2020, &[2031, 2072]),
            (2030, &[2031]),
        ];
        let expected: Vec<(u32, u32)> =
            by_anc.iter().flat_map(|&(a, ds)| ds.iter().map(move |&d| (a, d))).collect();
        // Guard bytes reserved after each batch: 26 pairs of 32 B from
        // the first chain, then 7 more from the second.
        let reserved_at = |batch_rows: usize| -> Vec<usize> {
            match batch_rows {
                1 => [vec![832; 26], vec![1056; 7]].concat(),
                3 => [vec![832; 8], vec![1056; 3]].concat(),
                _ => vec![1056],
            }
        };
        for batch_rows in [1, 3, 1024] {
            let (ancs, descs) = deep_chain();
            let m = ExecMetrics::new();
            let guard = Arc::new(QueryGuard::unlimited());
            let left = Box::new(fixed(PnId(0), ancs).with_batch_rows(batch_rows));
            let right = Box::new(fixed(PnId(1), descs).with_batch_rows(batch_rows));
            let mut op = StackTreeJoinOp::new(
                left,
                right,
                PnId(0),
                PnId(1),
                Axis::Descendant,
                JoinAlgo::StackTreeAnc,
                Arc::clone(&m),
            )
            .unwrap()
            .with_batch_rows(batch_rows)
            .with_guard(Arc::clone(&guard));
            let mut pairs = vec![];
            let mut reserved = vec![];
            while let Some(b) = op.next_batch().unwrap() {
                for row in 0..b.len() {
                    pairs.push((b.entry(0, row).region.start, b.entry(1, row).region.start));
                }
                reserved.push(guard.bytes_reserved());
            }
            drop(op);
            assert_eq!(pairs, expected, "pair order at batch_rows={batch_rows}");
            assert_eq!(reserved, reserved_at(batch_rows), "guard at batch_rows={batch_rows}");
            let s = m.snapshot();
            assert_eq!(s.stack_pushes, 13, "batch_rows={batch_rows}");
            assert_eq!(s.stack_pops, 13, "batch_rows={batch_rows}");
            assert_eq!(s.buffered_pairs, 104, "batch_rows={batch_rows}");
            assert_eq!(s.peak_bytes, 864, "batch_rows={batch_rows}");
            assert_eq!(s.produced_tuples, 33, "batch_rows={batch_rows}");
        }
    }
}
