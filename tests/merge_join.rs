//! The MPMGJN merge join as a third algorithm in the optimizer's
//! toolbox: plans using it must produce identical results, and the
//! optimizer must pick it exactly when the cost model says it wins.

use sjos::datagen::{pers::pers, GenConfig};
use sjos::exec::{JoinAlgo, PlanNode};
use sjos::pattern::PnId;
use sjos::{Algorithm, Database, ExecOptions};
use sjos_exec::naive;

fn count_algo(plan: &PlanNode, algo: JoinAlgo) -> usize {
    match plan {
        PlanNode::IndexScan { .. } => 0,
        PlanNode::Sort { input, .. } => count_algo(input, algo),
        PlanNode::StructuralJoin { left, right, algo: a, .. } => {
            usize::from(*a == algo) + count_algo(left, algo) + count_algo(right, algo)
        }
    }
}

#[test]
fn merge_join_plans_execute_correctly() {
    let db = Database::from_document(pers(GenConfig::sized(1_500)));
    let pattern = sjos::parse_pattern("//manager//department").unwrap();
    let expected = naive::evaluate(db.document(), &pattern);
    // Hand-build a MergeJoin plan.
    let plan = PlanNode::StructuralJoin {
        left: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
        right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
        anc: PnId(0),
        desc: PnId(1),
        axis: sjos::pattern::Axis::Descendant,
        algo: JoinAlgo::MergeJoin,
    };
    let res = db.execute(&pattern, &plan, &ExecOptions::default()).unwrap();
    assert_eq!(res.canonical_rows(), expected);
    assert!(res.metrics.merge_rescans > 0, "merge join must count rescans");
    assert_eq!(res.metrics.stack_pushes, 0, "no stacks involved");
}

#[test]
fn merge_join_output_is_ancestor_ordered() {
    let db = Database::from_document(pers(GenConfig::sized(1_500)));
    let pattern = sjos::parse_pattern("//manager//employee").unwrap();
    let plan = PlanNode::StructuralJoin {
        left: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
        right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
        anc: PnId(0),
        desc: PnId(1),
        axis: sjos::pattern::Axis::Descendant,
        algo: JoinAlgo::MergeJoin,
    };
    assert_eq!(plan.ordered_by(), PnId(0));
    let res = db.execute(&pattern, &plan, &ExecOptions::default()).unwrap();
    let col = res.schema.position(PnId(0)).unwrap();
    let starts: Vec<u32> =
        res.tuples.iter().map(|t| db.document().region(t[col].node).start).collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn merge_join_in_larger_plans_agrees_with_stack_tree() {
    let db = Database::from_document(pers(GenConfig::sized(2_000)));
    let q = "//manager[.//employee/name][./department]";
    let pattern = sjos::parse_pattern(q).unwrap();
    let expected = naive::evaluate(db.document(), &pattern);
    // Take the DPP plan and rewrite every ancestor-ordered stack-tree
    // join into a merge join; results must not change.
    fn rewrite(plan: &PlanNode) -> PlanNode {
        match plan {
            PlanNode::IndexScan { pnode } => PlanNode::IndexScan { pnode: *pnode },
            PlanNode::Sort { input, by } => {
                PlanNode::Sort { input: Box::new(rewrite(input)), by: *by }
            }
            PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
                PlanNode::StructuralJoin {
                    left: Box::new(rewrite(left)),
                    right: Box::new(rewrite(right)),
                    anc: *anc,
                    desc: *desc,
                    axis: *axis,
                    algo: if *algo == JoinAlgo::StackTreeAnc { JoinAlgo::MergeJoin } else { *algo },
                }
            }
        }
    }
    let optimized = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
    let rewritten = rewrite(&optimized.plan);
    let a = db.execute(&pattern, &optimized.plan, &ExecOptions::default()).unwrap();
    let b = db.execute(&pattern, &rewritten, &ExecOptions::default()).unwrap();
    assert_eq!(a.canonical_rows(), expected);
    assert_eq!(b.canonical_rows(), expected);
}

#[test]
fn optimizer_picks_merge_join_when_model_prefers_it() {
    // Make Anc buffering catastrophically expensive: MPMGJN (priced
    // in stack ops) becomes the cheaper ancestor-ordered option.
    let doc = pers(GenConfig::sized(2_000));
    let expensive_io = sjos::CostModel {
        factors: sjos::core::CostFactors { f_i: 1.0, f_s: 1.5, f_io: 1_000.0, f_st: 1.0 },
        desc_variant: Default::default(),
    };
    let db = Database::from_document_with(doc, sjos::StoreConfig::default(), expensive_io);
    let pattern = sjos::parse_pattern("//manager[.//employee/name][./department]").unwrap();
    let optimized = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
    let mj = count_algo(&optimized.plan, JoinAlgo::MergeJoin);
    let anc = count_algo(&optimized.plan, JoinAlgo::StackTreeAnc);
    assert!(
        mj > 0 || anc == 0,
        "with f_io=1000, no plain Stack-Tree-Anc should survive: {}",
        optimized.plan
    );
    // And the plan still runs correctly.
    let expected = naive::evaluate(db.document(), &pattern);
    let res = db.execute(&pattern, &optimized.plan, &ExecOptions::default()).unwrap();
    assert_eq!(res.canonical_rows(), expected);
}

#[test]
fn default_model_prefers_stack_tree_on_large_outputs() {
    let db = Database::from_document(pers(GenConfig::sized(3_000)));
    // Q.Pers.3.d has large intermediate outputs, where MPMGJN's
    // rescan term dominates; the default model should avoid it.
    let pattern =
        sjos::parse_pattern("//manager[.//employee/name][.//manager/department/name]").unwrap();
    let optimized = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
    assert_eq!(count_algo(&optimized.plan, JoinAlgo::MergeJoin), 0, "{}", optimized.plan);
}

/// Why MPMGJN stays in the toolbox: a value predicate shrinks the
/// descendant list to a handful of matches, where MPMGJN's rescans
/// cost less than stack maintenance, so the default model picks it;
/// the same join without the predicate stays on Stack-Tree.
#[test]
fn default_model_picks_merge_join_on_a_predicated_join() {
    let db = Database::from_document(pers(GenConfig::sized(5_000)));
    let doc = db.document();
    let manager = doc.elements_with_tag(doc.tag("manager").unwrap())[0];
    let name = doc
        .children(manager)
        .find(|&c| doc.tag_name(doc.node(c).tag) == "name")
        .expect("a manager has a name child");
    let literal = doc.node(name).text.trim();
    let dpp = Algorithm::Dpp { lookahead: true };
    let merge_joins = |query: &str| {
        let pattern = sjos::parse_pattern(query).unwrap();
        let plan = db.optimize(&pattern, dpp).unwrap().plan;
        (count_algo(&plan, JoinAlgo::MergeJoin), plan.join_count())
    };
    let predicated = format!("//manager[./name[text()='{literal}']]");
    assert_eq!(merge_joins(&predicated), (1, 1), "{predicated}");
    assert_eq!(merge_joins("//manager[./name]"), (0, 1));
}
