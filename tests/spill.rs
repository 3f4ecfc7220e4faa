//! Spill-to-disk external sort: differential and degraded-admission
//! tests.
//!
//! The contract under test has three clauses. *Transparency*: a
//! spilling execution returns exactly the tuples — same values, same
//! order — the in-memory execution returns, at every batch
//! granularity and every flush threshold. *Degradation*: a query
//! whose in-memory certificate breaches a starved [`QueryGuard`]
//! completes bit-identically under the *same* budget once its sorts
//! may spill (the paper's plans stay admissible under memory pressure
//! instead of being rejected). *Hygiene*: no execution — successful,
//! guard-stopped, or cancelled — leaves temp pages live in the spill
//! segment or frames pinned in the buffer pool.

use std::sync::Arc;

use proptest::prelude::*;

use sjos::datagen::{fold_document, paper_queries, pers::pers, DataSet, GenConfig};
use sjos::{
    Algorithm, Database, EngineError, ExecOptions, GuardBreach, PlanNode, QueryGuard, QueryResult,
    SpillPolicy,
};
use sjos_exec::tuple::WIDE_BYTES;
use sjos_exec::{naive, CancelToken, JoinAlgo, BATCH_ROWS};
use sjos_pattern::{Axis, Pattern, PnId};
use sjos_xml::{Document, DocumentBuilder};

/// Granularities under test: the tuple-at-a-time degenerate case, an
/// awkward size that never divides the row counts, and production.
const BATCH_SIZES: [usize; 3] = [1, 3, BATCH_ROWS];

/// Flush thresholds under test: spill everything, spill some, and a
/// threshold so large nothing ever spills (the policy must then be
/// invisible even in the metrics).
const THRESHOLDS: [usize; 3] = [0, 4 * 1024, usize::MAX / 2];

/// Run `plan` under `opts`, keeping the engine's typed error.
fn run(
    db: &Database,
    pattern: &Pattern,
    plan: &PlanNode,
    opts: &ExecOptions,
) -> Result<QueryResult, EngineError> {
    sjos::execute(db.store(), pattern, plan, opts).map(|o| o.result)
}

/// `policy` spill mode under `guard`, at the default batch size.
fn spilling(guard: Arc<QueryGuard>, policy: SpillPolicy) -> ExecOptions {
    ExecOptions { guard: Some(guard), spill: Some(policy), ..ExecOptions::default() }
}

/// After every execution — however it ended — the spill segment must
/// hold zero live temp pages and the pool zero pinned frames.
fn assert_no_residue(db: &Database, context: &str) {
    assert_eq!(
        db.store().spill().live_pages(),
        0,
        "{context}: temp pages leaked in the spill segment"
    );
    assert_eq!(db.store().pool().pinned_frames(), 0, "{context}: buffer frames left pinned");
}

/// Wrap a plan in a blocking sort on the pattern root, forcing a
/// buffering operator the spill machinery can engage. The optimizers
/// rarely emit sorts on these corpora (stack-tree ordering usually
/// suffices), so the suites plant one deliberately.
fn sort_wrapped(db: &Database, pattern: &Pattern) -> PlanNode {
    let optimized = db.optimize(pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes");
    PlanNode::Sort { input: Box::new(optimized.plan), by: PnId(0) }
}

/// A flat document wide enough that one sort materializes far more
/// than the spill policy's resident floor — the shape that makes
/// degraded admission genuinely cheaper than in-memory admission.
fn wide_doc(emps: usize) -> Document {
    let mut b = DocumentBuilder::new();
    b.start_element("db");
    b.start_element("dept");
    for _ in 0..emps {
        b.start_element("emp");
        b.end_element();
    }
    b.end_element();
    b.end_element();
    b.finish()
}

fn wide_sort_plan() -> PlanNode {
    let inner = PlanNode::StructuralJoin {
        left: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
        right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
        anc: PnId(0),
        desc: PnId(1),
        axis: Axis::Descendant,
        algo: JoinAlgo::StackTreeDesc,
    };
    PlanNode::Sort { input: Box::new(inner), by: PnId(0) }
}

/// Transparency: over the Pers Table-1 workload, a sort-rooted plan
/// executed in spill mode returns the in-memory execution's tuples
/// bit for bit — same values, same order — at every batch granularity
/// and every flush threshold, and the canonical rows still match the
/// naive evaluator. Threshold 0 must actually spill; the huge
/// threshold must not.
#[test]
fn spilled_sorts_match_in_memory_bit_for_bit() {
    let doc = pers(GenConfig::sized(1_500));
    let expected_naive: Vec<_> = paper_queries()
        .into_iter()
        .filter(|q| q.dataset == DataSet::Pers)
        .map(|q| {
            let pattern = q.pattern();
            let rows = naive::evaluate(&doc, &pattern);
            (q.id, pattern, rows)
        })
        .collect();
    assert!(!expected_naive.is_empty(), "Pers workload must not be empty");
    let db = Database::from_document(doc);
    let unlimited = Arc::new(QueryGuard::unlimited());

    for (id, pattern, expected) in &expected_naive {
        let plan = sort_wrapped(&db, pattern);
        for &rows in &BATCH_SIZES {
            let base = run(
                &db,
                pattern,
                &plan,
                &ExecOptions { batch_rows: rows, ..ExecOptions::default() },
            )
            .unwrap_or_else(|e| panic!("{id} in-memory at batch_rows={rows}: {e}"));
            assert_eq!(&base.canonical_rows(), expected, "{id} diverged from naive");
            for &threshold in &THRESHOLDS {
                let policy = SpillPolicy::with_threshold(threshold);
                let opts =
                    ExecOptions { batch_rows: rows, ..spilling(Arc::clone(&unlimited), policy) };
                let spilled = run(&db, pattern, &plan, &opts).unwrap_or_else(|e| {
                    panic!("{id} spill at batch_rows={rows} threshold={threshold}: {e}")
                });
                assert_eq!(
                    spilled.tuples, base.tuples,
                    "{id} at batch_rows={rows} threshold={threshold}: spill changed the answer"
                );
                if threshold == 0 && !base.tuples.is_empty() {
                    assert!(
                        spilled.metrics.spilled_runs > 0,
                        "{id} at batch_rows={rows}: threshold 0 never spilled"
                    );
                    assert!(spilled.io.spill_page_writes > 0, "{id}: runs spilled without I/O");
                }
                if threshold == usize::MAX / 2 {
                    assert_eq!(
                        spilled.metrics.spilled_runs, 0,
                        "{id} at batch_rows={rows}: unreachable threshold spilled anyway"
                    );
                }
                assert_no_residue(&db, &format!("{id} batch_rows={rows} threshold={threshold}"));
            }
        }
    }
}

/// Spilling runs as one morsel whatever `threads` says. On a folded
/// corpus whose in-memory runs split into morsels, a 2-thread spill
/// run is one morsel and matches the serial spill run row for row and
/// counter for counter at every batch size.
#[test]
fn spill_with_two_threads_runs_as_one_morsel() {
    let db = Database::from_document(fold_document(&pers(GenConfig::sized(600)), 5));
    let policy = SpillPolicy::with_threshold(0);
    let mut split_in_memory = false;
    for q in paper_queries().into_iter().filter(|q| q.dataset == DataSet::Pers) {
        let pattern = q.pattern();
        let plan = sort_wrapped(&db, &pattern);
        for batch_rows in [1, 7, BATCH_ROWS] {
            let serial = ExecOptions { batch_rows, spill: Some(policy), ..ExecOptions::default() };
            let two = ExecOptions { threads: 2, ..serial.clone() };
            let a = sjos::execute(db.store(), &pattern, &plan, &serial).unwrap();
            let b = sjos::execute(db.store(), &pattern, &plan, &two).unwrap();
            let at = format!("{} at batch_rows={batch_rows}", q.id);
            assert_eq!(b.morsel_count(), 1, "{at}: a spilling run must be one morsel");
            assert_eq!(b.result.tuples, a.result.tuples, "{at}: rows diverged");
            assert_eq!(b.result.metrics, a.result.metrics, "{at}: counters diverged");
            assert_no_residue(&db, &at);
        }
        let in_memory = ExecOptions { threads: 2, ..ExecOptions::default() };
        split_in_memory |=
            sjos::execute(db.store(), &pattern, &plan, &in_memory).unwrap().morsel_count() > 1;
    }
    assert!(split_in_memory, "the corpus must split when sorts stay in memory");
}

/// Degradation — the acceptance criterion: a sort whose full
/// materialization breaches a starved guard in plain mode completes
/// bit-identically under the *same* memory budget once it may spill,
/// and the measured resident peak honors the budget the whole way.
/// A mid-point budget, halfway up to the in-memory certificate, spills
/// less eagerly and must stay within its own policy's certificate.
#[test]
fn starved_guard_query_completes_bit_identically_via_spill() {
    let db = Database::from_document(wide_doc(80_000));
    let pattern = sjos::parse_pattern("//db//emp").unwrap();
    let plan = wide_sort_plan();

    // Budget exactly at the spill-mode certificate: far below the full
    // materialization, honest about the degraded residency.
    let (floor, _) = db.admit(
        &pattern,
        &plan,
        &spilling(Arc::new(QueryGuard::unlimited()), SpillPolicy::with_threshold(0)),
    );
    let full = db.resource_bounds(&pattern, &plan);
    assert!(
        floor.peak_bytes < full.peak_bytes,
        "corpus too small to starve: spill floor {} ≥ full bound {}",
        floor.peak_bytes,
        full.peak_bytes
    );
    let budget = usize::try_from(floor.peak_bytes).unwrap();

    let baseline = db.execute(&pattern, &plan, &ExecOptions::default()).expect("unguarded run");

    // Plain mode under the starved budget: a typed memory breach, not
    // a panic, not a wrong answer.
    let starved = Arc::new(QueryGuard::unlimited().with_memory_budget(budget));
    let err =
        run(&db, &pattern, &plan, &ExecOptions { guard: Some(starved), ..ExecOptions::default() })
            .unwrap_err();
    assert!(
        matches!(err, EngineError::Guard { breach: GuardBreach::MemoryBudget { .. }, .. }),
        "starved in-memory run must breach the memory budget, got: {err}"
    );
    assert_no_residue(&db, "starved in-memory run");

    // Same budget, spill allowed: the query completes, bit-identical,
    // actually spilling, with the resident peak inside the certificate.
    // The mid-point run is held to its own policy's certificate.
    // The sort prices its input rows as certified.
    let row_bytes = usize::try_from(floor.operators[1].row_bytes).unwrap();
    let spill_at = |budget: usize| {
        let policy = SpillPolicy::for_budget(budget, 2, row_bytes, BATCH_ROWS)
            .expect("a budget at or above the spill certificate admits a policy");
        spilling(Arc::new(QueryGuard::unlimited().with_memory_budget(budget)), policy)
    };
    let mid = budget + usize::try_from(full.peak_bytes - floor.peak_bytes).unwrap() / 2;
    let (mid_bounds, _) = db.admit(&pattern, &plan, &spill_at(mid));
    for (name, budget, certified) in
        [("starved", budget, floor.peak_bytes), ("mid-point", mid, mid_bounds.peak_bytes)]
    {
        let spilled = run(&db, &pattern, &plan, &spill_at(budget))
            .unwrap_or_else(|e| panic!("spill run under the {name} budget: {e}"));
        assert_eq!(spilled.tuples, baseline.tuples, "{name}: spill changed the answer");
        assert!(spilled.metrics.spilled_runs > 0, "{name} run never spilled");
        assert!(
            spilled.metrics.peak_bytes <= certified,
            "{name}: measured resident peak {} escaped the certified spill bound {certified}",
            spilled.metrics.peak_bytes,
        );
        assert!(spilled.io.spill_page_writes > 0 && spilled.io.spill_page_reads > 0);
        assert_no_residue(&db, &format!("{name} spill run"));
    }
}

/// Hygiene on every abnormal exit: cancellation, a batch-budget stop,
/// and a memory breach *inside* spill mode each surface as the typed
/// guard error and leave no temp pages or pinned frames behind.
#[test]
fn guard_stops_and_cancellation_leave_no_residue() {
    let db = Database::from_document(wide_doc(3_000));
    let pattern = sjos::parse_pattern("//db//emp").unwrap();
    let plan = wide_sort_plan();
    let policy = SpillPolicy::with_threshold(0);

    let token = CancelToken::new();
    token.cancel();
    let guard = Arc::new(QueryGuard::unlimited().with_cancel_token(token));
    let err = run(&db, &pattern, &plan, &spilling(guard, policy)).unwrap_err();
    assert!(
        matches!(err, EngineError::Guard { breach: GuardBreach::Cancelled, .. }),
        "pre-cancelled run must stop on the token, got: {err}"
    );
    assert_no_residue(&db, "cancelled spill run");

    let guard = Arc::new(QueryGuard::unlimited().with_batch_budget(2));
    let err = run(&db, &pattern, &plan, &spilling(guard, policy)).unwrap_err();
    assert!(
        matches!(err, EngineError::Guard { breach: GuardBreach::BatchBudget { .. }, .. }),
        "two pulls cannot finish this plan, got: {err}"
    );
    assert_no_residue(&db, "batch-budget spill stop");

    // A budget below even one output batch: the breach fires *after*
    // runs have gone to disk, the classic mid-spill abort.
    let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(16));
    let err = run(&db, &pattern, &plan, &spilling(guard, policy)).unwrap_err();
    assert!(
        matches!(err, EngineError::Guard { breach: GuardBreach::MemoryBudget { .. }, .. }),
        "a 16-byte budget must breach, got: {err}"
    );
    assert_no_residue(&db, "mid-spill memory breach");
}

// ---------------------------------------------------------------------
// Property-based differential: arbitrary documents × patterns ×
// budgets × batch sizes. Every spill-mode execution either returns
// exactly what the naive evaluator finds or stops with a typed
// memory breach — and never leaves residue either way.
// ---------------------------------------------------------------------

const TAGS: &[&str] = &["t0", "t1", "t2", "t3"];

#[derive(Debug, Clone)]
struct TreeNode {
    tag: usize,
    children: Vec<TreeNode>,
}

fn tree_strategy() -> impl Strategy<Value = TreeNode> {
    let leaf = (0..TAGS.len()).prop_map(|tag| TreeNode { tag, children: vec![] });
    leaf.prop_recursive(4, 48, 4, |inner| {
        (0..TAGS.len(), prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, children)| TreeNode { tag, children })
    })
}

fn build_doc(root: &TreeNode) -> Document {
    fn rec(n: &TreeNode, b: &mut DocumentBuilder) {
        b.start_element(TAGS[n.tag]);
        for c in &n.children {
            rec(c, b);
        }
        b.end_element();
    }
    let mut b = DocumentBuilder::new();
    b.start_element("root");
    rec(root, &mut b);
    b.end_element();
    b.finish()
}

#[derive(Debug, Clone)]
struct PatNode {
    tag: usize,
    axis_from_parent: bool,
    children: Vec<PatNode>,
}

fn pattern_strategy() -> impl Strategy<Value = PatNode> {
    let leaf = (0..TAGS.len(), any::<bool>()).prop_map(|(tag, ax)| PatNode {
        tag,
        axis_from_parent: ax,
        children: vec![],
    });
    leaf.prop_recursive(3, 5, 2, |inner| {
        (0..TAGS.len(), any::<bool>(), prop::collection::vec(inner, 0..3))
            .prop_map(|(tag, ax, children)| PatNode { tag, axis_from_parent: ax, children })
    })
}

fn build_pattern(root: &PatNode) -> Pattern {
    fn rec(n: &PatNode, parent: PnId, p: &mut Pattern) {
        for c in &n.children {
            let axis = if c.axis_from_parent { Axis::Descendant } else { Axis::Child };
            let id = p.add_child(parent, axis, TAGS[c.tag]);
            rec(c, id, p);
        }
    }
    let mut p = Pattern::with_root(TAGS[root.tag]);
    let r = p.root();
    rec(root, r, &mut p);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_budgets_spill_or_fail_typed(
        tree in tree_strategy(),
        pat in pattern_strategy(),
        budget in 64usize..200_000,
        batch_idx in 0usize..3,
    ) {
        let doc = build_doc(&tree);
        let pattern = build_pattern(&pat);
        let expected = naive::evaluate(&doc, &pattern);
        let db = Database::from_document(doc);
        let plan = sort_wrapped(&db, &pattern);
        let batch_rows = BATCH_SIZES[batch_idx];
        let width = pattern.len();

        let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(budget));
        // Priced wide: an upper bound for any column layout.
        let policy = SpillPolicy::for_budget(budget, width, width * WIDE_BYTES, batch_rows)
            .unwrap_or_else(|| SpillPolicy::with_threshold(0));
        match run(&db, &pattern, &plan, &ExecOptions { batch_rows, ..spilling(guard, policy) }) {
            Ok(result) => {
                prop_assert_eq!(
                    result.canonical_rows(),
                    expected,
                    "spill run diverged from naive at budget {} batch_rows {}",
                    budget,
                    batch_rows
                );
            }
            Err(EngineError::Guard { breach: GuardBreach::MemoryBudget { .. }, .. }) => {}
            Err(e) => {
                panic!("budget {budget} batch_rows {batch_rows}: untyped failure: {e}")
            }
        }
        prop_assert_eq!(db.store().spill().live_pages(), 0, "temp pages leaked");
        prop_assert_eq!(db.store().pool().pinned_frames(), 0, "frames left pinned");
    }
}
