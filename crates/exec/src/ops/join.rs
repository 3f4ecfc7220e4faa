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
//! The merge loop stays tuple-granular on its *inputs* (the algorithms
//! are inherently cursor-based), but it emits column at a time. The
//! stack is a column-major batch in the left input's layout — its
//! ancestor column wide, since the loop tests that region — and a
//! descendant's matches are always one contiguous range at the top of
//! it: every stack entry is a proper ancestor of the descendant, so
//! for `//` the range is the whole stack, and for `/` it is the top
//! run whose ancestor level is the descendant's level minus one (lower
//! entries have strictly smaller levels; equal levels only repeat one
//! node, as when the left input carries an ancestor row once per
//! earlier match). Stack-Tree-Desc therefore emits one descendant's
//! matches with one slice copy per left column vector and one fill per
//! right column vector, and Stack-Tree-Anc creates pairs for exactly
//! that range. Output columns take the widths the plan's liveness
//! gives them ([`StackTreeJoinOp::narrowed`]): a join column no later
//! join reads leaves without its region, and Anc's buffered pairs are
//! kept at that output width.
//!
//! Nothing in the merge loop allocates per row or touches an atomic
//! per row. The stack/buffer/output counters are accumulated locally
//! and flushed with one atomic add per counter per batch, and the
//! live-byte changes (stack entries, buffered Anc pairs) are kept as a
//! local net sum and running high point (`LiveBytes`) that reach
//! [`ExecMetrics`] as one reserve and one release before any child
//! pull, before a batch or an error returns, and on drop. No other
//! operator of the same execution runs between those points, so
//! `peak_bytes` and the final total come out exactly as per-row
//! updates leave them, at every batch size. Anc's pairs live in one
//! append-only `PairArena`; the self, inherit and ready lists are
//! linked lists over it, so handing a popped entry's pairs down the
//! stack is an O(1) splice, as in the paper, rather than a copy per
//! nesting level. The arena empties whenever `ready` drains: pairs
//! reach `ready` only when the stack bottom pops, so at that moment no
//! stack entry holds a pair.
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

use sjos_pattern::{Axis, NodeSet, PnId};
use sjos_xml::{NodeId, Region};

use crate::error::EngineError;
use crate::guard::QueryGuard;
use crate::metrics::ExecMetrics;
use crate::ops::{BoxedOperator, InputCursor, Operator};
use crate::plan::JoinAlgo;
use crate::tuple::{Binding, Schema, TupleBatch, BATCH_ROWS};

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

/// Append-only storage for Stack-Tree-Anc's buffered output pairs,
/// row-major in the join's output layout so that draining a list —
/// which visits pairs out of arena order — touches one contiguous
/// record per pair: pair `k` is `words[k * stride..(k + 1) * stride]`,
/// per output column its node id and, for a wide column, its region's
/// start, end and level (exactly [`Schema::row_bytes`] per pair).
/// `next[k]` links pair `k` to the following pair of whichever list
/// holds it.
struct PairArena {
    /// Per output column: does it keep its region?
    wide: Vec<bool>,
    stride: usize,
    words: Vec<u32>,
    next: Vec<u32>,
}

impl PairArena {
    fn new(schema: &Schema) -> PairArena {
        let wide: Vec<bool> = (0..schema.width()).map(|c| schema.is_wide(c)).collect();
        let stride = wide.iter().map(|&w| if w { 4 } else { 1 }).sum();
        PairArena { wide, stride, words: Vec::new(), next: Vec::new() }
    }

    /// Store the pair `stack[anc] ++ desc[row]` at the end of `list`.
    fn push(
        &mut self,
        list: &mut PairList,
        stack: &TupleBatch,
        anc: usize,
        desc: &TupleBatch,
        row: usize,
    ) {
        let k = u32::try_from(self.next.len())
            .ok()
            .filter(|&k| k < NIL)
            .expect("pair arena index overflow");
        let (anc_wide, desc_wide) = self.wide.split_at(stack.width());
        for (src, row, wide) in [(stack, anc, anc_wide), (desc, row, desc_wide)] {
            for (col, &wide) in wide.iter().enumerate() {
                self.words.push(src.node(col, row).0);
                if wide {
                    let r = src.region(col, row);
                    self.words.extend_from_slice(&[r.start, r.end, u32::from(r.level)]);
                }
            }
        }
        self.next.push(NIL);
        *list = self.concat(*list, PairList { head: k, tail: k, len: 1 });
    }

    /// Append pairs `ks`, in order, to `out` (same layout), one
    /// column vector at a time.
    fn emit(&self, ks: &[u32], out: &mut TupleBatch) {
        let (words, stride) = (&self.words, self.stride);
        let at = move |k: u32, off: usize| words[k as usize * stride + off];
        let mut off = 0;
        for (c, &wide) in self.wide.iter().enumerate() {
            let col = out.column_mut(c);
            col.nodes.extend(ks.iter().map(|&k| Binding { node: NodeId(at(k, off)) }));
            if wide {
                col.regions.extend(ks.iter().map(|&k| Region {
                    start: at(k, off + 1),
                    end: at(k, off + 2),
                    // Stored from a `u16`.
                    level: at(k, off + 3) as u16,
                }));
                off += 4;
            } else {
                off += 1;
            }
        }
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

    /// Drop every pair, keeping the capacity for reuse.
    fn clear(&mut self) {
        self.words.clear();
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

/// The join's live-byte changes not yet applied to [`ExecMetrics`]:
/// a net sum and its running high point since the last flush.
#[derive(Default)]
struct LiveBytes {
    /// Bytes already applied as live (released on drop).
    applied: u64,
    /// Net change since the last flush.
    net: i64,
    /// Highest value `net` reached since the last flush (never below
    /// zero: the flush point itself counts).
    high: i64,
}

impl LiveBytes {
    #[inline]
    fn reserve(&mut self, bytes: u64) {
        self.net += bytes as i64;
        self.high = self.high.max(self.net);
    }

    #[inline]
    fn release(&mut self, bytes: u64) {
        self.net -= bytes as i64;
    }

    /// Apply the pending changes as one reserve (to the high point)
    /// and one release (back down to the net): the shared total and
    /// its peak end exactly where per-change updates would leave them.
    fn flush(&mut self, metrics: &ExecMetrics) {
        if self.high > 0 {
            metrics.reserve_bytes(self.high as u64);
        }
        if self.high > self.net {
            metrics.release_bytes((self.high - self.net) as u64);
        }
        self.applied = self.applied.saturating_add_signed(self.net);
        self.net = 0;
        self.high = 0;
    }
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
    axis: Axis,
    algo: JoinAlgo,
    schema: Arc<Schema>,
    metrics: Arc<ExecMetrics>,
    guard: Option<Arc<QueryGuard>>,

    /// The ancestor stack in the left input's layout: row `i` is the
    /// `i`-th entry from the bottom.
    stack: TupleBatch,
    /// Anc: the pair lists of each stack entry (parallel to `stack`).
    lists: Vec<AncLists>,
    /// Anc: every buffered pair.
    arena: PairArena,
    /// Anc: completed output awaiting delivery.
    ready: PairList,
    /// Anc: the pairs one drain takes from `ready` (reused buffer).
    draining: Vec<u32>,
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
    /// Live bytes of stack entries plus buffered Anc pairs. Unlike
    /// the guard's cumulative reservation this tracks the
    /// instantaneous footprint, so it shrinks as pairs leave via
    /// `ready` and stack entries pop.
    live: LiveBytes,
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
        let stack = TupleBatch::new(Arc::clone(left.schema()));
        Ok(StackTreeJoinOp {
            left: InputCursor::new(left, left_col),
            right: InputCursor::new(right, right_col),
            left_col,
            right_col,
            axis,
            algo,
            arena: PairArena::new(&schema),
            schema,
            metrics,
            guard: None,
            stack,
            lists: Vec::new(),
            ready: PairList::EMPTY,
            draining: Vec::new(),
            done: false,
            batch_rows: BATCH_ROWS,
            c_pushes: 0,
            c_pops: 0,
            c_buffered: 0,
            pairs_created: 0,
            pairs_reserved: 0,
            live: LiveBytes::default(),
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

    /// Keep regions only for the output columns in `wide` (default:
    /// every column as wide as its input). Anc's buffered pairs take
    /// the same layout.
    #[must_use]
    pub fn narrowed(mut self, wide: NodeSet) -> Self {
        self.schema = Arc::new(self.schema.narrowed(wide));
        self.arena = PairArena::new(&self.schema);
        self
    }

    /// Start of the current left tuple's ancestor-column region. A
    /// pull may run the operators below, so pending live bytes are
    /// applied first.
    fn left_start(&mut self) -> Result<Option<u32>, EngineError> {
        if self.left.must_pull() {
            self.live.flush(&self.metrics);
        }
        let col = self.left_col;
        Ok(self.left.peek()?.map(|(b, r)| b.region(col, r).start))
    }

    /// Start of the current right tuple's descendant-column region
    /// (flushing live bytes before a pull, as [`Self::left_start`]).
    fn right_start(&mut self) -> Result<Option<u32>, EngineError> {
        if self.right.must_pull() {
            self.live.flush(&self.metrics);
        }
        let col = self.right_col;
        Ok(self.right.peek()?.map(|(b, r)| b.region(col, r).start))
    }

    /// Number of entries on the stack.
    #[inline]
    fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Bytes of one stack entry's tuple.
    #[inline]
    fn stack_entry_bytes(&self) -> u64 {
        self.stack.schema().row_bytes() as u64
    }

    /// Bytes of one buffered output pair.
    #[inline]
    fn pair_bytes(&self) -> u64 {
        self.schema.row_bytes() as u64
    }

    /// Pop every stack entry whose interval ends before `pos`.
    fn pop_before(&mut self, pos: u32) {
        let ancs = self.stack.regions(self.left_col);
        let keep = ancs.iter().rposition(|a| a.end >= pos).map_or(0, |i| i + 1);
        self.pop_to(keep);
    }

    /// Pop entries until `keep` remain, routing their buffered pairs
    /// (Anc) and releasing their live bytes.
    fn pop_to(&mut self, keep: usize) {
        let popped = self.depth() - keep;
        if popped == 0 {
            return;
        }
        self.stack.truncate(keep);
        self.c_pops += popped as u64;
        self.live.release(popped as u64 * self.stack_entry_bytes());
        if self.algo == JoinAlgo::StackTreeAnc {
            // Top down: each popped entry's pairs follow those it
            // inherited, and go to the entry below it.
            for _ in 0..popped {
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
    }

    /// Push the current left row (the caller has peeked it).
    fn push_left(&mut self) -> Result<(), EngineError> {
        let (batch, row) = self.left.peek()?.expect("left row present");
        self.stack.push_from(0, batch, row);
        self.left.advance();
        self.c_pushes += 1;
        self.live.reserve(self.stack_entry_bytes());
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
                    self.consume_right(d_start, out)?;
                }
            }
            (None, Some(d_start)) => {
                self.consume_right(d_start, out)?;
                // Once the stack is empty with the left side done, no
                // later descendant can match; run the abandoned right
                // side out so total work is batch-size-independent.
                if self.depth() == 0 {
                    self.live.flush(&self.metrics);
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
                self.pop_to(0);
                self.done = true;
            }
        }
        Ok(())
    }

    /// Process the current right tuple (starting at `d_start`) against
    /// the stack.
    fn consume_right(&mut self, d_start: u32, out: &mut TupleBatch) -> Result<(), EngineError> {
        self.pop_before(d_start);
        // Invariant: every caller has just peeked a right row, so this
        // peek does not pull.
        let (batch, row) = self.right.peek()?.expect("right row present");
        // Every stack entry now contains the descendant, so the
        // matches are a top range of the stack (module docs).
        let ancs = self.stack.regions(self.left_col);
        let first = match self.axis {
            Axis::Descendant => 0,
            Axis::Child => {
                let parent = batch.region(self.right_col, row).level.checked_sub(1);
                ancs.iter().rposition(|a| Some(a.level) != parent).map_or(0, |i| i + 1)
            }
        };
        let depth = ancs.len();
        let matches = depth - first;
        match self.algo {
            JoinAlgo::StackTreeDesc => {
                // Emit bottom-up so each descendant's pairs leave in
                // ancestor order. The capacity starts at the target,
                // so matches that do not fit end the batch: grow once,
                // by exactly their number, and a kept batch carries no
                // doubling slack.
                if out.len() + matches > out.capacity() {
                    out.reserve_exact(matches);
                }
                let left_width = self.stack.width();
                for c in 0..left_width {
                    out.extend_column_from(c, &self.stack, c, first..depth);
                }
                for c in 0..batch.width() {
                    out.fill_column_from(left_width + c, batch, c, row, matches);
                }
            }
            JoinAlgo::StackTreeAnc => {
                let (stack, arena) = (&self.stack, &mut self.arena);
                for (i, lists) in self.lists.iter_mut().enumerate().skip(first) {
                    arena.push(&mut lists.own, stack, i, batch, row);
                }
                let created = matches as u64;
                self.c_buffered += created;
                self.pairs_created += created;
                self.live.reserve(created * self.pair_bytes());
            }
            JoinAlgo::MergeJoin => unreachable!("rejected in the constructor"),
        }
        self.right.advance();
        Ok(())
    }

    /// Move pairs from the head of `ready` into `out` until it is full,
    /// emptying the arena once `ready` drains.
    fn drain_ready(&mut self, out: &mut TupleBatch) {
        let n = (self.batch_rows - out.len()).min(self.ready.len);
        let mut k = self.ready.head;
        self.draining.clear();
        for _ in 0..n {
            self.draining.push(k);
            k = self.arena.next[k as usize];
        }
        self.arena.emit(&self.draining, out);
        self.ready.head = k;
        self.ready.len -= n;
        self.live.release(n as u64 * self.pair_bytes());
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
    /// per touched counter per batch — and apply pending live bytes.
    fn flush_metrics(&mut self) {
        self.live.flush(&self.metrics);
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
                let fresh = self.pairs_created - self.pairs_reserved;
                guard.reserve((fresh * self.pair_bytes()) as usize)?;
            }
            self.pairs_reserved = self.pairs_created;
        }
        Ok(())
    }
}

impl Drop for StackTreeJoinOp<'_> {
    fn drop(&mut self) {
        self.live.flush(&self.metrics);
        self.metrics.release_bytes(self.live.applied);
    }
}

impl Operator for StackTreeJoinOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn ordered_col(&self) -> usize {
        match self.algo {
            JoinAlgo::StackTreeDesc => self.stack.width() + self.right_col,
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
    use crate::tuple::Entry;

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
