//! Property-based tests over the whole stack: for *arbitrary*
//! documents and patterns, every optimizer's executed plan agrees
//! with the naive evaluator; region encodings keep their invariants;
//! folding scales exactly linearly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sjos::core::random_plan;
use sjos::datagen::fold_document;
use sjos::{Algorithm, Database, ExecOptions, PlanNode};
use sjos_exec::{naive, JoinAlgo, MetricsSnapshot, QueryResult, BATCH_ROWS};
use sjos_pattern::{Axis, Pattern, PnId};
use sjos_xml::{Document, DocumentBuilder, NodeId};

const TAGS: &[&str] = &["t0", "t1", "t2", "t3"];

/// A random element tree (tags drawn from a tiny alphabet so that
/// joins actually produce matches).
#[derive(Debug, Clone)]
struct TreeNode {
    tag: usize,
    text: Option<usize>,
    children: Vec<TreeNode>,
}

fn tree_strategy() -> impl Strategy<Value = TreeNode> {
    let leaf = (0..TAGS.len(), proptest::option::of(0..3usize)).prop_map(|(tag, text)| TreeNode {
        tag,
        text,
        children: vec![],
    });
    leaf.prop_recursive(4, 48, 4, |inner| {
        (0..TAGS.len(), proptest::option::of(0..3usize), prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, text, children)| TreeNode { tag, text, children })
    })
}

fn build_doc(root: &TreeNode) -> Document {
    fn rec(n: &TreeNode, b: &mut DocumentBuilder) {
        b.start_element(TAGS[n.tag]);
        if let Some(v) = n.text {
            b.text(&format!("v{v}"));
        }
        for c in &n.children {
            rec(c, b);
        }
        b.end_element();
    }
    let mut b = DocumentBuilder::new();
    // A fixed synthetic root guarantees a single-root document.
    b.start_element("root");
    rec(root, &mut b);
    b.end_element();
    b.finish()
}

/// A random pattern tree over the same alphabet (2..=5 nodes).
#[derive(Debug, Clone)]
struct PatNode {
    tag: usize,
    axis_from_parent: bool, // true = descendant
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
    fn rec(n: &PatNode, parent: sjos_pattern::PnId, p: &mut Pattern) {
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

/// Run `plan` at batch sizes 1, 3 and [`BATCH_ROWS`]: the stack-tree
/// kernel emits a descendant's matches together, so these sizes put
/// batch boundaries inside, between and far beyond those runs.
fn run_at_every_batch_size(db: &Database, pattern: &Pattern, plan: &PlanNode) -> Vec<QueryResult> {
    [1, 3, BATCH_ROWS]
        .into_iter()
        .map(|batch_rows| {
            db.execute(pattern, plan, &ExecOptions { batch_rows, ..ExecOptions::default() })
                .unwrap()
        })
        .collect()
}

/// Rows equal the naive evaluator's; the emitted row sequence and every
/// work counter are the same at every batch size. `peak_bytes` is left
/// out: batch boundaries decide which operators' buffers are live at
/// once (a sort holding its input while a join stack above it grows),
/// so the peak legitimately moves with the batch size;
/// `tests/recorded_counters.rs` pins it per batch size instead.
fn check_batch_invariance(
    db: &Database,
    pattern: &Pattern,
    plan: &PlanNode,
    expected: &[Vec<sjos_xml::NodeId>],
) {
    let runs = run_at_every_batch_size(db, pattern, plan);
    assert_eq!(runs[0].canonical_rows(), expected, "{plan}");
    let work = |r: &QueryResult| MetricsSnapshot { peak_bytes: 0, ..r.metrics };
    for run in &runs[1..] {
        assert_eq!(run.tuples, runs[0].tuples, "{plan}");
        assert_eq!(work(run), work(&runs[0]), "{plan}");
    }
}

#[test]
fn child_joins_over_repeated_ancestor_rows() {
    // `t0` nests in `t0`, and each `t0` has several `t1` children, so
    // the left input of the `t0/t2` join repeats each `t0` row once per
    // `t1` child: the `/` match run at the top of the stack then holds
    // several copies of one node, above an outer `t0` that must not
    // match.
    let doc = Document::parse(
        "<t0><t1/><t1/><t2/><t0><t1/><t1/><t1/><t2/><t2/><t3><t2/></t3></t0><t2/></t0>",
    )
    .unwrap();
    let pattern = sjos::parse_pattern("//t0[./t1]/t2").unwrap();
    let expected = naive::evaluate(&doc, &pattern);
    assert!(!expected.is_empty());
    let db = Database::from_document(doc);
    let scan = |id: u16| Box::new(PlanNode::IndexScan { pnode: PnId(id) });
    for inner in [JoinAlgo::StackTreeAnc, JoinAlgo::StackTreeDesc] {
        let mut left = PlanNode::StructuralJoin {
            left: scan(0),
            right: scan(1),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Child,
            algo: inner,
        };
        if inner == JoinAlgo::StackTreeDesc {
            left = PlanNode::Sort { input: Box::new(left), by: PnId(0) };
        }
        for outer in [JoinAlgo::StackTreeAnc, JoinAlgo::StackTreeDesc] {
            let plan = PlanNode::StructuralJoin {
                left: Box::new(left.clone()),
                right: scan(2),
                anc: PnId(0),
                desc: PnId(2),
                axis: Axis::Child,
                algo: outer,
            };
            plan.validate(&pattern).unwrap();
            check_batch_invariance(&db, &pattern, &plan, &expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_plans_are_exact_at_every_batch_size(
        tree in tree_strategy(),
        pat in pattern_strategy(),
        seed in any::<u64>(),
    ) {
        let doc = build_doc(&tree);
        let pattern = build_pattern(&pat);
        let expected = naive::evaluate(&doc, &pattern);
        let db = Database::from_document(doc);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let plan = random_plan(&pattern, &mut rng);
            check_batch_invariance(&db, &pattern, &plan, &expected);
        }
    }

    #[test]
    fn every_optimizer_matches_naive(tree in tree_strategy(), pat in pattern_strategy()) {
        let doc = build_doc(&tree);
        let pattern = build_pattern(&pat);
        let expected = naive::evaluate(&doc, &pattern);
        let db = Database::from_document(doc);
        for alg in [
            Algorithm::Dpp { lookahead: true },
            Algorithm::Fp,
            Algorithm::DpapLd,
            Algorithm::WorstRandom { samples: 3, seed: 5 },
        ] {
            let optimized = db.optimize(&pattern, alg).unwrap();
            let result = db.execute(&pattern, &optimized.plan, &ExecOptions::default()).unwrap();
            prop_assert_eq!(result.canonical_rows(), expected.clone(), "{}", alg.name());
        }
    }

    #[test]
    fn region_encoding_invariants(tree in tree_strategy(), k in 1usize..4) {
        // Intervals nest or are disjoint; arena order == start order,
        // so `NodeId` order is `(start, end)` order — what the order
        // checks on narrow (region-less) columns rely on. Folded
        // corpora (the benchmark's Pers ×10) must keep it too.
        let doc = build_doc(&tree);
        for doc in [fold_document(&doc, k), doc] {
            let nodes = doc.nodes();
            for (i, a) in nodes.iter().enumerate() {
                prop_assert_eq!(doc.region(NodeId(i as u32)), a.region);
                prop_assert!(a.region.start < a.region.end);
                if i + 1 < nodes.len() {
                    prop_assert!(a.region.start < nodes[i + 1].region.start);
                }
                for b in nodes.iter().skip(i + 1) {
                    let nested = a.region.contains(b.region);
                    let disjoint = a.region.precedes(b.region) || b.region.precedes(a.region);
                    prop_assert!(nested ^ disjoint, "intervals must nest xor be disjoint");
                }
            }
        }
    }

    #[test]
    fn serialization_roundtrips(tree in tree_strategy()) {
        let doc = build_doc(&tree);
        let text = sjos::xml::serialize::to_xml(&doc);
        let doc2 = Document::parse(&text).unwrap();
        prop_assert_eq!(doc.len(), doc2.len());
        for (a, b) in doc.nodes().iter().zip(doc2.nodes()) {
            prop_assert_eq!(a.region, b.region);
            prop_assert_eq!(doc.tag_name(a.tag), doc2.tag_name(b.tag));
            prop_assert_eq!(&a.text, &b.text);
        }
    }

    #[test]
    fn folding_scales_matches_linearly(tree in tree_strategy(), k in 1usize..4) {
        let doc = build_doc(&tree);
        let pattern = sjos::parse_pattern(&format!("//root//{}", TAGS[0])).unwrap();
        let base = naive::evaluate(&doc, &pattern).len();
        let folded = fold_document(&doc, k);
        let scaled = naive::evaluate(&folded, &pattern).len();
        prop_assert_eq!(scaled, base * k);
    }

    #[test]
    fn estimates_are_finite_and_nonnegative(tree in tree_strategy(), pat in pattern_strategy()) {
        let doc = build_doc(&tree);
        let pattern = build_pattern(&pat);
        let db = Database::from_document(doc);
        let est = db.estimates(&pattern);
        for id in pattern.node_ids() {
            let c = est.node_cardinality(id);
            prop_assert!(c.is_finite() && c >= 0.0);
        }
        let full = est.cluster_cardinality(&pattern, pattern.all_nodes());
        prop_assert!(full.is_finite() && full >= 0.0);
    }
}
