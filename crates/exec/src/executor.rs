//! Plan execution against an [`XmlStore`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sjos_pattern::{NodeSet, Pattern, PnId, ValuePredicate};
use sjos_storage::index::RecordCursor;
use sjos_storage::record::value_digest;
use sjos_storage::XmlStore;

use crate::error::EngineError;
use crate::guard::{GuardedOp, QueryGuard};
use crate::metrics::{ExecMetrics, MetricsSnapshot};
use crate::ops::{
    BoxedOperator, IndexScanOp, MergeJoinOp, OrderingCheck, SortOp, SpillPolicy, StackTreeJoinOp,
};
use crate::parallel::{plan_partition, run_morsels, RegionPartition};
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

/// How one execution runs. [`execute`] takes it, and planck derives a
/// plan's certificate from the same value (`analyze_bounds`, `admit`)
/// and replays the plan under it (`replay`), so an admitted plan runs
/// under exactly the options it was certified for.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Resource guard checked at every batch boundary of every morsel:
    /// deadline, batch budget, memory budget, cancellation. Its
    /// counters are the aggregate across all workers. `None` runs
    /// under a fresh unlimited guard on each call, so its pull
    /// counters start at zero.
    pub guard: Option<Arc<QueryGuard>>,
    /// Target rows per batch. Every metric total except `peak_bytes`
    /// is independent of it; `peak_bytes` counts in-flight batches,
    /// which grow with it. `1` reproduces the tuple-at-a-time engine.
    pub batch_rows: usize,
    /// Materialize the result's tuples. When `false` they are
    /// discarded as produced (`tuples` stays empty, while
    /// `metrics.output_tuples` still counts them): the plan does all
    /// its work without holding its answer.
    pub collect: bool,
    /// Let every sort degrade to a spill-to-disk external sort under
    /// this policy instead of breaching the guard's memory budget.
    /// Results are bit-identical to the in-memory run; the price is
    /// temp-page I/O (`spilled_runs`, `spilled_bytes`,
    /// `spill_page_writes`, `spill_page_reads`). A spilling run
    /// executes as one morsel whatever `threads` says. `None` keeps
    /// every sort in memory.
    pub spill: Option<SpillPolicy>,
    /// Worker threads. Above 1 the plan is split into region-disjoint
    /// morsels when a valid cut exists (see [`crate::parallel`]).
    pub threads: usize,
    /// Drop each column's region after the last operator that reads
    /// it ([`PlanNode::region_liveness`]), so buffers and the result
    /// hold 4 B per narrow entry instead of 16 B. `false` keeps every
    /// column wide: the reference layout differential tests compare
    /// against. Rows, their order and every counter except
    /// `peak_bytes` are the same either way.
    pub narrow: bool,
}

impl Default for ExecOptions {
    /// Serial, materializing, in-memory, narrowing, [`BATCH_ROWS`] per
    /// batch, under a fresh unlimited guard.
    fn default() -> ExecOptions {
        ExecOptions {
            guard: None,
            batch_rows: BATCH_ROWS,
            collect: true,
            spill: None,
            threads: 1,
            narrow: true,
        }
    }
}

impl ExecOptions {
    /// The wide columns of every operator of `plan` under these
    /// options, in pre-order: [`PlanNode::region_liveness`] when
    /// narrowing, every column otherwise. The executor lays its
    /// columns out by this and planck's certificates count the same
    /// bytes.
    pub fn wide_columns(&self, plan: &PlanNode) -> Vec<NodeSet> {
        if self.narrow {
            plan.region_liveness()
        } else {
            plan.liveness_under(NodeSet(u64::MAX))
        }
    }

    /// The most morsel pipelines a run under these options keeps live
    /// at once: `threads`, or 1 when sorts may spill (a spilling run
    /// is one morsel). Static bounds scale by this factor.
    pub fn workers(&self) -> usize {
        if self.spill.is_some() {
            1
        } else {
            self.threads.max(1)
        }
    }
}

/// The answer of one execution: the merged [`QueryResult`] plus the
/// partition evidence (cut points and per-morsel snapshots) that
/// planck's PL068 and the benches audit.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Merged result: tuples concatenated in morsel (document) order,
    /// metrics summed per [`MetricsSnapshot::merged`].
    pub result: QueryResult,
    /// Interior cut points the partitioner chose (empty = one morsel).
    pub cuts: Vec<u32>,
    /// Per-morsel metric snapshots, in morsel order.
    pub morsel_snapshots: Vec<MetricsSnapshot>,
}

impl ExecOutcome {
    /// Number of morsels the query ran as (1 = serial).
    pub fn morsel_count(&self) -> usize {
        self.morsel_snapshots.len()
    }
}

/// Morsels targeted per worker thread: more than one keeps the pool
/// busy when morsel sizes are skewed (work stealing via the shared
/// morsel counter).
const MORSELS_PER_THREAD: usize = 4;

/// Execute `plan` for `pattern` against `store` under `opts`.
///
/// The plan is validated first (every pattern node bound exactly once,
/// join inputs correctly ordered, axes matching); a malformed plan is
/// an optimizer bug surfaced as [`EngineError::InvalidPlan`]. A
/// storage fault that survives the buffer pool's retries surfaces as
/// [`EngineError::Storage`] — never a panic, never a silently wrong
/// answer. On a guard breach the returned [`EngineError::Guard`]
/// carries the metrics accumulated so far, summed over every morsel.
///
/// A serial run is the one-morsel case of the parallel one. With more
/// than one worker the partitioner first looks for valid cuts; when it
/// finds none (wildcard, root-binding query, tiny corpus) the plan runs
/// as one morsel on the calling thread, and the result's I/O and
/// elapsed time leave the partition pre-pass out.
pub fn execute(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    opts: &ExecOptions,
) -> Result<ExecOutcome, EngineError> {
    plan.validate(pattern).map_err(EngineError::InvalidPlan)?;
    let guard = opts.guard.clone().unwrap_or_else(|| Arc::new(QueryGuard::unlimited()));
    let mut io_before = store.stats().snapshot();
    let mut started = Instant::now();
    let workers = opts.workers();
    let partition = if workers > 1 {
        plan_partition(store, pattern, plan, workers * MORSELS_PER_THREAD, Some(&guard))?
    } else {
        RegionPartition::serial()
    };
    let outs = if partition.morsel_count() == 1 {
        if workers > 1 {
            // No valid cut: the run's I/O and time leave the pre-pass out.
            io_before = store.stats().snapshot();
            started = Instant::now();
        }
        let alone = AtomicBool::new(false);
        let out = run_morsel(store, pattern, plan, opts, &guard, None, &alone)?;
        vec![out.expect("nothing aborts a lone morsel")]
    } else {
        run_morsels(store, pattern, plan, opts, &guard, &partition.ranges())?
    };
    // Ranges ascend the start axis, so concatenating the morsels'
    // batch lists is the serial emission order (no row is copied).
    let schema = outs[0].schema.clone();
    let mut tuples = Rows::new();
    let mut snapshots = Vec::with_capacity(outs.len());
    for out in outs {
        tuples.append(out.tuples);
        snapshots.push(out.snapshot);
    }
    let result = QueryResult {
        schema,
        tuples,
        metrics: MetricsSnapshot::merged(&snapshots),
        io: store.stats().snapshot().since(&io_before),
        elapsed: started.elapsed(),
    };
    Ok(ExecOutcome { result, cuts: partition.cuts, morsel_snapshots: snapshots })
}

/// Replace a guard breach's placeholder snapshot with the real
/// counters, so callers see how far the plan got before the stop.
fn attach_partial(e: EngineError, metrics: &ExecMetrics) -> EngineError {
    match e {
        EngineError::Guard { breach, .. } => {
            EngineError::Guard { breach, partial: Box::new(metrics.snapshot()) }
        }
        other => other,
    }
}

/// What one morsel's pipeline produced.
pub(crate) struct MorselOut {
    pub(crate) schema: Schema,
    pub(crate) tuples: Rows,
    pub(crate) snapshot: MetricsSnapshot,
}

/// Run one morsel's pipeline to exhaustion: the plan with every leaf
/// scan restricted to `range` (`None` scans everything), its own
/// [`ExecMetrics`], the shared guard. Returns `Ok(None)` when a
/// sibling's failure set `abort` mid-drain.
pub(crate) fn run_morsel(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    opts: &ExecOptions,
    guard: &Arc<QueryGuard>,
    range: Option<(u32, u32)>,
    abort: &AtomicBool,
) -> Result<Option<MorselOut>, EngineError> {
    let metrics = ExecMetrics::new();
    let wide = opts.wide_columns(plan);
    let mut root =
        build_operator(store, pattern, plan, &mut wide.iter(), &metrics, opts, guard, range)?;
    let mut tuples = Rows::new();
    let mut count: u64 = 0;
    let ordered_col = root.ordered_col();
    let mut check = OrderingCheck::new();
    loop {
        if abort.load(Ordering::Relaxed) {
            return Ok(None);
        }
        match root.next_batch() {
            Ok(Some(batch)) => {
                debug_assert!(!batch.is_empty(), "operators must not emit empty batches");
                check.check(&batch, ordered_col);
                count += batch.len() as u64;
                if opts.collect {
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
    ExecMetrics::add(&metrics.output_tuples, count);
    let schema = root.schema().as_ref().clone();
    drop(root);
    Ok(Some(MorselOut { schema, tuples, snapshot: metrics.snapshot() }))
}

/// Build the physical tree for `plan`, wrapping every operator in a
/// [`GuardedOp`] so guard checks run at each batch boundary (a
/// blocking sort's *input* pulls are guarded too — a runaway plan
/// stops within one batch even while materializing). Buffering
/// operators additionally report their growth to the guard's memory
/// budget.
///
/// `wide` yields each operator's wide columns in pre-order (from
/// [`ExecOptions::wide_columns`]); a scan or join emits exactly those
/// with regions, and a sort keeps its input's layout, which liveness
/// makes the same.
///
/// `range` restricts every leaf scan to binding-list records whose
/// `region.start` falls in `[lo, hi)` — how the parallel executor
/// instantiates one morsel's pipeline (see [`crate::parallel`]).
/// `None` scans everything.
#[allow(clippy::too_many_arguments)]
fn build_operator<'a>(
    store: &'a XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    wide: &mut std::slice::Iter<'_, NodeSet>,
    metrics: &Arc<ExecMetrics>,
    opts: &ExecOptions,
    guard: &Arc<QueryGuard>,
    range: Option<(u32, u32)>,
) -> Result<BoxedOperator<'a>, EngineError> {
    let batch_rows = opts.batch_rows;
    let out_wide = *wide.next().expect("one liveness set per operator");
    let op: BoxedOperator<'a> = match plan {
        PlanNode::IndexScan { pnode } => Box::new(
            build_scan(store, pattern, *pnode, metrics, range)
                .with_batch_rows(batch_rows)
                .narrowed(out_wide),
        ),
        PlanNode::Sort { input, by } => {
            let child = build_operator(store, pattern, input, wide, metrics, opts, guard, range)?;
            let mut sort = SortOp::new(child, *by, Arc::clone(metrics))?
                .with_batch_rows(batch_rows)
                .with_guard(Arc::clone(guard));
            if let Some(policy) = opts.spill {
                sort = sort.with_spill(store.pool(), store.spill(), policy);
            }
            Box::new(sort)
        }
        PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
            let l = build_operator(store, pattern, left, wide, metrics, opts, guard, range)?;
            let r = build_operator(store, pattern, right, wide, metrics, opts, guard, range)?;
            match algo {
                crate::plan::JoinAlgo::MergeJoin => Box::new(
                    MergeJoinOp::new(l, r, *anc, *desc, *axis, Arc::clone(metrics))?
                        .with_batch_rows(batch_rows)
                        .with_guard(Arc::clone(guard))
                        .narrowed(out_wide),
                ),
                _ => Box::new(
                    StackTreeJoinOp::new(l, r, *anc, *desc, *axis, *algo, Arc::clone(metrics))?
                        .with_batch_rows(batch_rows)
                        .with_guard(Arc::clone(guard))
                        .narrowed(out_wide),
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

    fn run(
        st: &XmlStore,
        pat: &Pattern,
        plan: &PlanNode,
        opts: ExecOptions,
    ) -> Result<QueryResult, EngineError> {
        execute(st, pat, plan, &opts).map(|o| o.result)
    }

    fn guarded(guard: &Arc<QueryGuard>) -> ExecOptions {
        ExecOptions { guard: Some(Arc::clone(guard)), ..ExecOptions::default() }
    }

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
        let res = run(&st, &pat, &two_way_plan(), ExecOptions::default()).unwrap();
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
        let res = run(&st, &pat, &plan, ExecOptions::default()).unwrap();
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
        let res = run(&st, &pat, &plan, ExecOptions::default()).unwrap();
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
        let a = run(&st, &pat, &pipelined, ExecOptions::default()).unwrap();
        let b = run(&st, &pat, &right_first, ExecOptions::default()).unwrap();
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
        let res = run(&st, &pat, &plan, ExecOptions::default()).unwrap();
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn unknown_tag_yields_empty_result() {
        let st = store();
        let pat = parse_pattern("//dept//ghost").unwrap();
        let res = run(&st, &pat, &two_way_plan(), ExecOptions::default()).unwrap();
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
        let err = run(&st, &pat, &plan, ExecOptions::default()).unwrap_err();
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
        let wide = run(&st, &pat, &plan, ExecOptions { collect: false, ..ExecOptions::default() });
        let narrow = run(
            &st,
            &pat,
            &plan,
            ExecOptions { collect: false, batch_rows: 1, ..ExecOptions::default() },
        );
        let (wide, narrow) = (wide.unwrap(), narrow.unwrap());
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
        let two = ExecOptions { batch_rows: 2, ..ExecOptions::default() };
        let res = run(&st, &pat, &two_way_plan(), two).unwrap();
        let batches = res.tuples.batches();
        assert_eq!(batches.len(), 2, "3 rows at 2 rows per batch");
        let rows: usize = batches.iter().map(crate::tuple::TupleBatch::len).sum();
        assert_eq!(rows as u64, res.metrics.output_tuples);
        assert_eq!(res.tuples.len(), 3);
        let col = res.schema.position(PnId(1)).unwrap();
        assert!(batches.iter().all(|b| b.is_sorted_by(col)));
        let wide = run(&st, &pat, &two_way_plan(), ExecOptions::default()).unwrap();
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
        let err = run(&st, &pat, &two_way_plan(), guarded(&guard)).unwrap_err();
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
        let err = run(&st, &pat, &two_way_plan(), guarded(&guard)).unwrap_err();
        assert!(matches!(err, EngineError::Guard { breach: GuardBreach::Cancelled, .. }));
    }

    #[test]
    fn expired_deadline_stops_execution() {
        let st = store();
        let pat = parse_pattern("//dept//emp").unwrap();
        let guard = Arc::new(QueryGuard::unlimited().with_deadline(Duration::ZERO));
        let err = run(&st, &pat, &two_way_plan(), guarded(&guard)).unwrap_err();
        assert!(matches!(err, EngineError::Guard { breach: GuardBreach::Deadline { .. }, .. }));
    }

    #[test]
    fn unlimited_guard_matches_plain_execution() {
        let st = store();
        let pat = parse_pattern("//dept//emp").unwrap();
        let guard = Arc::new(QueryGuard::unlimited());
        let guarded = run(&st, &pat, &two_way_plan(), guarded(&guard)).unwrap();
        let plain = run(&st, &pat, &two_way_plan(), ExecOptions::default()).unwrap();
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
        let err = run(&st, &pat, &two_way_plan(), ExecOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)), "got {err:?}");
    }
}
