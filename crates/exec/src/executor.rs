//! Plan execution against an [`XmlStore`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use sjos_pattern::{Pattern, PnId, ValuePredicate};
use sjos_storage::index::RecordCursor;
use sjos_storage::record::value_digest;
use sjos_storage::XmlStore;

use crate::error::EngineError;
use crate::guard::{GuardedOp, QueryGuard};
use crate::metrics::{ExecMetrics, MetricsSnapshot};
use crate::ops::{
    BoxedOperator, IndexScanOp, MergeJoinOp, OrderingCheck, SortOp, SpillPolicy, StackTreeJoinOp,
};
use crate::plan::PlanNode;
use crate::tuple::{Rows, Schema, BATCH_ROWS};

/// The materialized answer of one query execution.
#[derive(Debug)]
pub struct QueryResult {
    /// Column layout of `tuples`.
    pub schema: Schema,
    /// All matches, in the order the plan produced them — the root
    /// operator's batches as emitted, which is also what planck's
    /// executed-plan lint (PL034) inspects.
    pub tuples: Rows,
    /// Operator-level counters.
    pub metrics: MetricsSnapshot,
    /// Storage-level counters (delta over this execution).
    pub io: sjos_storage::iostats::IoSnapshot,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

impl QueryResult {
    /// Number of matches (valid in counting mode too, where `tuples`
    /// stays empty).
    pub fn len(&self) -> usize {
        self.metrics.output_tuples as usize
    }

    /// True when the query matched nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows as `(pattern node -> element NodeId)` bindings in
    /// canonical pattern-node order, sorted — a stable form for
    /// comparing results across plans.
    pub fn canonical_rows(&self) -> Vec<Vec<sjos_xml::NodeId>> {
        let mut order: Vec<usize> = (0..self.schema.width()).collect();
        order.sort_by_key(|&i| self.schema.columns()[i]);
        let mut rows: Vec<Vec<sjos_xml::NodeId>> =
            self.tuples.iter().map(|t| order.iter().map(|&i| t[i].node).collect()).collect();
        rows.sort_unstable();
        rows
    }
}

/// Execute `plan` for `pattern` against `store`, materializing every
/// result tuple.
///
/// The plan is validated first (every pattern node bound exactly once,
/// join inputs correctly ordered, axes matching); a malformed plan is
/// an optimizer bug surfaced as [`EngineError::InvalidPlan`]. A
/// storage fault that survives the buffer pool's retries surfaces as
/// [`EngineError::Storage`] — never a panic, never a silently wrong
/// answer.
pub fn execute(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, true, BATCH_ROWS, &Arc::new(QueryGuard::unlimited()), None)
}

/// [`execute`] under an explicit resource [`QueryGuard`]: deadline,
/// batch budget, memory budget, and cancellation are checked at every
/// batch boundary of the operator tree. On a breach the returned
/// [`EngineError::Guard`] carries the metrics accumulated so far.
pub fn execute_guarded(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    guard: &Arc<QueryGuard>,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, true, BATCH_ROWS, guard, None)
}

/// [`execute_guarded`] in *spill mode*: every sort in the plan may
/// degrade to a spill-to-disk external sort under `policy` instead of
/// breaching the guard's memory budget. Results are bit-identical to
/// the in-memory execution; the price is temp-page I/O, visible in
/// the result's metrics (`spilled_runs`, `spilled_bytes`) and I/O
/// counters (`spill_page_writes`, `spill_page_reads`). This is the
/// entry point the service's degraded admission path uses.
pub fn execute_guarded_spill(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    guard: &Arc<QueryGuard>,
    policy: SpillPolicy,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, true, BATCH_ROWS, guard, Some(policy))
}

/// [`execute_guarded_spill`] without result materialization.
pub fn execute_counting_guarded_spill(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    guard: &Arc<QueryGuard>,
    policy: SpillPolicy,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, false, BATCH_ROWS, guard, Some(policy))
}

/// [`execute_guarded_spill`] with an explicit batch granularity — the
/// spill twin of [`execute_guarded_with_batch_rows`], used by the
/// differential suites to prove spilling is invisible in the answer
/// at every batch size.
pub fn execute_spill_with_batch_rows(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    batch_rows: usize,
    guard: &Arc<QueryGuard>,
    policy: SpillPolicy,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, true, batch_rows, guard, Some(policy))
}

/// Like [`execute`], but discard tuples as they are produced (the
/// result's `tuples` is empty; `metrics.output_tuples` still counts
/// them). Use for measurement runs whose result sets would not fit
/// comfortably in memory — the plan still performs all its work.
pub fn execute_counting(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, false, BATCH_ROWS, &Arc::new(QueryGuard::unlimited()), None)
}

/// [`execute_counting`] under an explicit resource [`QueryGuard`].
pub fn execute_counting_guarded(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    guard: &Arc<QueryGuard>,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, false, BATCH_ROWS, guard, None)
}

/// [`execute_counting`] with an explicit batch granularity.
///
/// `batch_rows = 1` degenerates to the tuple-at-a-time engine this
/// refactor replaced (one dispatch and one metrics flush per tuple) —
/// the before/after knob the pipeline benchmark uses. Metrics totals
/// are identical for every batch size.
pub fn execute_counting_with_batch_rows(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    batch_rows: usize,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, false, batch_rows, &Arc::new(QueryGuard::unlimited()), None)
}

/// [`execute`] with an explicit batch granularity — the materializing
/// twin of [`execute_counting_with_batch_rows`], used by the
/// differential tests to prove batching is invisible in the answer.
pub fn execute_with_batch_rows(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    batch_rows: usize,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, true, batch_rows, &Arc::new(QueryGuard::unlimited()), None)
}

/// [`execute_guarded`] with an explicit batch granularity — the
/// entry point planck's bound-soundness lint (PL064) replays plans
/// through, so the guard's pull counter and the metrics' peak-bytes
/// high-water mark are both observable at any batch size.
pub fn execute_guarded_with_batch_rows(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    batch_rows: usize,
    guard: &Arc<QueryGuard>,
) -> Result<QueryResult, EngineError> {
    execute_opts(store, pattern, plan, true, batch_rows, guard, None)
}

/// Replace a guard breach's placeholder snapshot with the real
/// counters, so callers see how far the plan got before the stop.
pub(crate) fn attach_partial(e: EngineError, metrics: &ExecMetrics) -> EngineError {
    match e {
        EngineError::Guard { breach, .. } => {
            EngineError::Guard { breach, partial: Box::new(metrics.snapshot()) }
        }
        other => other,
    }
}

pub(crate) fn execute_opts(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    materialize: bool,
    batch_rows: usize,
    guard: &Arc<QueryGuard>,
    spill: Option<SpillPolicy>,
) -> Result<QueryResult, EngineError> {
    plan.validate(pattern).map_err(EngineError::InvalidPlan)?;
    let metrics = ExecMetrics::new();
    let io_before = store.stats().snapshot();
    let started = Instant::now();
    let mut root = build_operator(store, pattern, plan, &metrics, batch_rows, guard, spill, None)?;
    let mut tuples = Rows::new();
    let mut count: u64 = 0;
    let ordered_col = root.ordered_col();
    let mut check = OrderingCheck::new();
    loop {
        match root.next_batch() {
            Ok(Some(batch)) => {
                debug_assert!(!batch.is_empty(), "operators must not emit empty batches");
                check.check(&batch, ordered_col);
                count += batch.len() as u64;
                if materialize {
                    tuples.push(batch);
                }
            }
            Ok(None) => break,
            Err(e) => {
                ExecMetrics::add(&metrics.output_tuples, count);
                return Err(attach_partial(e, &metrics));
            }
        }
    }
    let elapsed = started.elapsed();
    ExecMetrics::add(&metrics.output_tuples, count);
    let schema = root.schema().as_ref().clone();
    drop(root);
    Ok(QueryResult {
        schema,
        tuples,
        metrics: metrics.snapshot(),
        io: store.stats().snapshot().since(&io_before),
        elapsed,
    })
}

/// Build the physical tree for `plan`, wrapping every operator in a
/// [`GuardedOp`] so guard checks run at each batch boundary (a
/// blocking sort's *input* pulls are guarded too — a runaway plan
/// stops within one batch even while materializing). Buffering
/// operators additionally report their growth to the guard's memory
/// budget.
///
/// `range` restricts every leaf scan to binding-list records whose
/// `region.start` falls in `[lo, hi)` — how the parallel executor
/// instantiates one morsel's pipeline (see [`crate::parallel`]).
/// `None` scans everything.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_operator<'a>(
    store: &'a XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    metrics: &Arc<ExecMetrics>,
    batch_rows: usize,
    guard: &Arc<QueryGuard>,
    spill: Option<SpillPolicy>,
    range: Option<(u32, u32)>,
) -> Result<BoxedOperator<'a>, EngineError> {
    let op: BoxedOperator<'a> = match plan {
        PlanNode::IndexScan { pnode } => {
            Box::new(build_scan(store, pattern, *pnode, metrics, range).with_batch_rows(batch_rows))
        }
        PlanNode::Sort { input, by } => {
            let child =
                build_operator(store, pattern, input, metrics, batch_rows, guard, spill, range)?;
            let mut sort = SortOp::new(child, *by, Arc::clone(metrics))?
                .with_batch_rows(batch_rows)
                .with_guard(Arc::clone(guard));
            if let Some(policy) = spill {
                sort = sort.with_spill(store.pool(), store.spill(), policy);
            }
            Box::new(sort)
        }
        PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
            let l = build_operator(store, pattern, left, metrics, batch_rows, guard, spill, range)?;
            let r =
                build_operator(store, pattern, right, metrics, batch_rows, guard, spill, range)?;
            match algo {
                crate::plan::JoinAlgo::MergeJoin => Box::new(
                    MergeJoinOp::new(l, r, *anc, *desc, *axis, Arc::clone(metrics))?
                        .with_batch_rows(batch_rows)
                        .with_guard(Arc::clone(guard)),
                ),
                _ => Box::new(
                    StackTreeJoinOp::new(l, r, *anc, *desc, *axis, *algo, Arc::clone(metrics))?
                        .with_batch_rows(batch_rows)
                        .with_guard(Arc::clone(guard)),
                ),
            }
        }
    };
    Ok(Box::new(GuardedOp::new(op, Arc::clone(guard))))
}

fn build_scan<'a>(
    store: &'a XmlStore,
    pattern: &Pattern,
    pnode: PnId,
    metrics: &Arc<ExecMetrics>,
    range: Option<(u32, u32)>,
) -> IndexScanOp<'a> {
    let pat_node = pattern.node(pnode);
    let filter = pat_node.predicate.as_ref().map(|p| match p {
        ValuePredicate::Equals(v) => value_digest(v),
    });
    let cursor = if pat_node.is_wildcard() {
        // Wildcard: every element, via the heap file. The partitioner
        // never cuts a wildcard plan (the root's interval straddles
        // any cut), but a range here stays correct regardless: the
        // cursor drops the heap records outside it.
        match range {
            None => store.scan_all(),
            Some((lo, hi)) => store.scan_all_range(lo, hi),
        }
    } else {
        match store.document().tag(&pat_node.tag) {
            Some(t) => match range {
                None => store.scan_tag(t),
                Some((lo, hi)) => store.scan_tag_range(t, lo, hi),
            },
            // A tag absent from the document scans an empty list.
            None => RecordCursor::empty(store.pool()),
        }
    };
    IndexScanOp::new(pnode, cursor, filter, Arc::clone(metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GuardBreach;
    use crate::plan::JoinAlgo;
    use sjos_pattern::{parse_pattern, Axis};
    use sjos_xml::Document;

    fn store() -> XmlStore {
        let doc = Document::parse(
            "<db>\
               <dept><emp><name>ada</name></emp><emp><name>bob</name></emp></dept>\
               <dept><emp><name>cat</name></emp></dept>\
             </db>",
        )
        .unwrap();
        XmlStore::load(doc)
    }

    fn scan(i: u16) -> PlanNode {
        PlanNode::IndexScan { pnode: PnId(i) }
    }

    fn two_way_plan() -> PlanNode {
        PlanNode::StructuralJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Descendant,
            algo: JoinAlgo::StackTreeDesc,
        }
    }

    #[test]
    fn two_way_join_end_to_end() {
        let st = store();
        let pat = parse_pattern("//dept//emp").unwrap();
        let res = execute(&st, &pat, &two_way_plan()).unwrap();
        assert_eq!(res.len(), 3);
        assert_eq!(res.metrics.output_tuples, 3);
        assert!(res.io.record_reads > 0, "scans must flow through storage");
    }

    #[test]
    fn three_way_pipeline_matches_expected_count() {
        let st = store();
        let pat = parse_pattern("//dept/emp/name").unwrap();
        // ((dept ⋈ emp) ordered by emp) ⋈ name
        let inner = PlanNode::StructuralJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        let plan = PlanNode::StructuralJoin {
            left: Box::new(inner),
            right: Box::new(scan(2)),
            anc: PnId(1),
            desc: PnId(2),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        let res = execute(&st, &pat, &plan).unwrap();
        assert_eq!(res.len(), 3);
        assert!(plan.is_fully_pipelined());
    }

    #[test]
    fn sort_enables_order_mismatched_join() {
        let st = store();
        let pat = parse_pattern("//dept/emp/name").unwrap();
        // (dept ⋈ emp) ordered by dept (Anc), then SORT by emp, then ⋈ name.
        let inner = PlanNode::StructuralJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeAnc,
        };
        let plan = PlanNode::StructuralJoin {
            left: Box::new(PlanNode::Sort { input: Box::new(inner), by: PnId(1) }),
            right: Box::new(scan(2)),
            anc: PnId(1),
            desc: PnId(2),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        let res = execute(&st, &pat, &plan).unwrap();
        assert_eq!(res.len(), 3);
        assert_eq!(res.metrics.sort_operations, 1);
        assert!(!plan.is_fully_pipelined());
    }

    #[test]
    fn plans_with_different_shapes_agree() {
        let st = store();
        let pat = parse_pattern("//dept/emp/name").unwrap();
        let pipelined = PlanNode::StructuralJoin {
            left: Box::new(PlanNode::StructuralJoin {
                left: Box::new(scan(0)),
                right: Box::new(scan(1)),
                anc: PnId(0),
                desc: PnId(1),
                axis: Axis::Child,
                algo: JoinAlgo::StackTreeDesc,
            }),
            right: Box::new(scan(2)),
            anc: PnId(1),
            desc: PnId(2),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        // name joined first: (emp ⋈ name) ordered by emp (Anc), then dept.
        let right_first = PlanNode::StructuralJoin {
            left: Box::new(scan(0)),
            right: Box::new(PlanNode::StructuralJoin {
                left: Box::new(scan(1)),
                right: Box::new(scan(2)),
                anc: PnId(1),
                desc: PnId(2),
                axis: Axis::Child,
                algo: JoinAlgo::StackTreeAnc,
            }),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        let a = execute(&st, &pat, &pipelined).unwrap();
        let b = execute(&st, &pat, &right_first).unwrap();
        assert_eq!(a.canonical_rows(), b.canonical_rows());
    }

    #[test]
    fn value_predicate_filters_results() {
        let st = store();
        let pat = parse_pattern("//emp/name[text()='ada']").unwrap();
        let plan = PlanNode::StructuralJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        let res = execute(&st, &pat, &plan).unwrap();
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn unknown_tag_yields_empty_result() {
        let st = store();
        let pat = parse_pattern("//dept//ghost").unwrap();
        let res = execute(&st, &pat, &two_way_plan()).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn invalid_plan_is_rejected_not_executed() {
        let st = store();
        let pat = parse_pattern("//dept/emp/name").unwrap();
        let plan = PlanNode::StructuralJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        let err = execute(&st, &pat, &plan).unwrap_err();
        assert!(matches!(err, EngineError::InvalidPlan(_)));
    }

    #[test]
    fn batch_rows_one_matches_default_engine() {
        let st = store();
        let pat = parse_pattern("//dept/emp/name").unwrap();
        let inner = PlanNode::StructuralJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        let plan = PlanNode::StructuralJoin {
            left: Box::new(inner),
            right: Box::new(scan(2)),
            anc: PnId(1),
            desc: PnId(2),
            axis: Axis::Child,
            algo: JoinAlgo::StackTreeDesc,
        };
        let wide = execute_counting(&st, &pat, &plan).unwrap();
        let narrow = execute_counting_with_batch_rows(&st, &pat, &plan, 1).unwrap();
        assert_eq!(wide.metrics.output_tuples, narrow.metrics.output_tuples);
        assert_eq!(wide.metrics.produced_tuples, narrow.metrics.produced_tuples);
        assert_eq!(wide.metrics.stack_pushes, narrow.metrics.stack_pushes);
        assert_eq!(wide.metrics.stack_pops, narrow.metrics.stack_pops);
        assert_eq!(wide.metrics.scanned_records, narrow.metrics.scanned_records);
    }

    #[test]
    fn result_keeps_the_ordered_root_batches() {
        let st = store();
        let pat = parse_pattern("//dept//emp").unwrap();
        let res = execute_with_batch_rows(&st, &pat, &two_way_plan(), 2).unwrap();
        let batches = res.tuples.batches();
        assert_eq!(batches.len(), 2, "3 rows at 2 rows per batch");
        let rows: usize = batches.iter().map(crate::tuple::TupleBatch::len).sum();
        assert_eq!(rows as u64, res.metrics.output_tuples);
        assert_eq!(res.tuples.len(), 3);
        let col = res.schema.position(PnId(1)).unwrap();
        assert!(batches.iter().all(|b| b.is_sorted_by(col)));
        let wide = execute(&st, &pat, &two_way_plan()).unwrap();
        assert_eq!(wide.tuples.batches().len(), 1);
        assert_eq!(res.tuples, wide.tuples, "equality ignores batch breaks");
    }

    #[test]
    fn batch_budget_halts_plan_with_partial_metrics() {
        let st = store();
        let pat = parse_pattern("//dept//emp").unwrap();
        // Budget of 1: the first join pull (which itself pulls scans)
        // exceeds it within one batch.
        let guard = Arc::new(QueryGuard::unlimited().with_batch_budget(1));
        let err = execute_guarded(&st, &pat, &two_way_plan(), &guard).unwrap_err();
        match err {
            EngineError::Guard { breach: GuardBreach::BatchBudget { limit }, .. } => {
                assert_eq!(limit, 1);
            }
            other => panic!("expected a batch-budget breach, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_stops_execution_and_reports_partial_metrics() {
        let st = store();
        let pat = parse_pattern("//dept//emp").unwrap();
        let guard = Arc::new(QueryGuard::unlimited());
        guard.cancel_token().cancel();
        let err = execute_guarded(&st, &pat, &two_way_plan(), &guard).unwrap_err();
        assert!(matches!(err, EngineError::Guard { breach: GuardBreach::Cancelled, .. }));
    }

    #[test]
    fn expired_deadline_stops_execution() {
        let st = store();
        let pat = parse_pattern("//dept//emp").unwrap();
        let guard = Arc::new(QueryGuard::unlimited().with_deadline(Duration::ZERO));
        let err = execute_guarded(&st, &pat, &two_way_plan(), &guard).unwrap_err();
        assert!(matches!(err, EngineError::Guard { breach: GuardBreach::Deadline { .. }, .. }));
    }

    #[test]
    fn unlimited_guard_matches_plain_execution() {
        let st = store();
        let pat = parse_pattern("//dept//emp").unwrap();
        let guard = Arc::new(QueryGuard::unlimited());
        let guarded = execute_guarded(&st, &pat, &two_way_plan(), &guard).unwrap();
        let plain = execute(&st, &pat, &two_way_plan()).unwrap();
        assert_eq!(guarded.canonical_rows(), plain.canonical_rows());
        assert!(guard.batches_pulled() > 0, "guard observed the batch traffic");
    }

    #[test]
    fn guarded_faulty_store_reports_storage_error_not_panic() {
        use sjos_storage::{FaultPlan, RetryPolicy, StoreConfig};
        let doc = Document::parse(
            "<db><dept><emp><name>ada</name></emp><emp><name>bob</name></emp></dept></db>",
        )
        .unwrap();
        let st = XmlStore::load_faulty(
            doc,
            StoreConfig { retry: RetryPolicy::no_backoff(2), ..StoreConfig::default() },
            FaultPlan { seed: 11, sticky_corrupt: 1.0, ..FaultPlan::none() },
        );
        let pat = parse_pattern("//dept//emp").unwrap();
        let err = execute(&st, &pat, &two_way_plan()).unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)), "got {err:?}");
    }
}
