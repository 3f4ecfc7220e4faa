//! The Fully-Pipelined algorithm (paper §3.4).
//!
//! Only sort-free plans are considered. For each candidate result
//! ordering the pattern tree is "picked up" at that node; the node's
//! neighbor subtrees are optimized recursively (memoized on
//! `(sub-pattern, root)`), and all join orders of the subtrees into
//! the node's own binding list are enumerated. Output order is
//! preserved at every join by picking Stack-Tree-Anc when the pick-up
//! node is the edge's ancestor side and Stack-Tree-Desc when it is
//! the descendant side — so no sort is ever needed (Theorem 3.1
//! guarantees such a plan exists for every ordering).

use std::collections::HashMap;

use sjos_exec::{JoinAlgo, PlanNode};
use sjos_pattern::{NodeSet, PnId};

use crate::error::OptimizerError;
use crate::status::SearchContext;

/// A memoized sub-solution: the cheapest fully-pipelined plan for one
/// sub-pattern with output ordered by its root.
#[derive(Debug, Clone)]
struct SubPlan {
    plan: PlanNode,
    /// Total cost (scans + joins of the whole sub-plan).
    cost: f64,
    /// Estimated output cardinality.
    card: f64,
}

/// Run the FP search, returning the cheapest fully-pipelined plan and
/// its estimated cost. When the pattern has an order-by node, only
/// plans producing that order are considered; otherwise every node is
/// tried as the result ordering.
///
/// # Errors
/// [`OptimizerError::EmptyPattern`] if the pattern has no nodes to
/// try as the result ordering.
pub fn optimize_fp(ctx: &mut SearchContext<'_>) -> Result<(PlanNode, f64), OptimizerError> {
    let full = ctx.pattern.all_nodes();
    let mut memo: HashMap<(u64, u16), SubPlan> = HashMap::new();
    let roots: Vec<PnId> = match ctx.pattern.order_by() {
        Some(w) => vec![w],
        None => ctx.pattern.node_ids().collect(),
    };
    let mut best: Option<SubPlan> = None;
    for root in roots {
        let sp = best_rooted(ctx, full, root, &mut memo);
        if best.as_ref().is_none_or(|b| sp.cost < b.cost) {
            best = Some(sp);
        }
    }
    let best = best.ok_or(OptimizerError::EmptyPattern)?;
    debug_assert!(best.plan.is_fully_pipelined());
    debug_assert!(
        best.plan.validate(ctx.pattern).is_ok(),
        "FP produced an invalid plan: {}",
        best.plan.validate(ctx.pattern).unwrap_err()
    );
    Ok((best.plan, best.cost))
}

fn best_rooted(
    ctx: &mut SearchContext<'_>,
    component: NodeSet,
    root: PnId,
    memo: &mut HashMap<(u64, u16), SubPlan>,
) -> SubPlan {
    let key = (component.0, root.0);
    if let Some(hit) = memo.get(&key) {
        return hit.clone();
    }
    let scan_cost = ctx.model.index_access(ctx.estimates.scan_cardinality(root));
    let root_card = ctx.estimates.node_cardinality(root);
    let result = if component.len() == 1 {
        SubPlan { plan: PlanNode::IndexScan { pnode: root }, cost: scan_cost, card: root_card }
    } else {
        // Carve the neighbor subtrees.
        let neighbors: Vec<PnId> =
            ctx.pattern.neighbors(root).into_iter().filter(|n| component.contains(*n)).collect();
        let subs: Vec<(PnId, NodeSet, SubPlan)> = neighbors
            .iter()
            .map(|&u| {
                let sub_set = ctx.pattern.component_without(u, root);
                debug_assert!(sub_set.is_subset(component));
                let sp = best_rooted(ctx, sub_set, u, memo);
                (u, sub_set, sp)
            })
            .collect();
        let fixed_cost: f64 = scan_cost + subs.iter().map(|(_, _, sp)| sp.cost).sum::<f64>();

        // Enumerate the join order of the subtrees into `root`.
        let mut best: Option<SubPlan> = None;
        let mut order: Vec<usize> = (0..subs.len()).collect();
        permute(&mut order, 0, &mut |perm: &[usize]| {
            let mut acc_plan = PlanNode::IndexScan { pnode: root };
            let mut acc_set = NodeSet::singleton(root);
            let mut acc_card = root_card;
            let mut total = fixed_cost;
            for &i in perm {
                let (u, sub_set, sp) = &subs[i];
                // Invariant: `u` came from `pattern.neighbors(root)`,
                // so the edge between them exists by construction.
                let edge = ctx.pattern.edge_between(root, *u).expect("neighbor edge exists");
                let out_set = acc_set.union(*sub_set);
                let out_card = ctx.estimates.cluster_cardinality(ctx.pattern, out_set);
                ctx.plans_considered += 1;
                let (join_cost, plan) = if edge.parent == root {
                    // root is the ancestor side: keep its order with Anc.
                    (
                        ctx.model.stj_anc(acc_card, sp.card, out_card),
                        PlanNode::StructuralJoin {
                            left: Box::new(acc_plan.clone()),
                            right: Box::new(sp.plan.clone()),
                            anc: root,
                            desc: *u,
                            axis: edge.axis,
                            algo: JoinAlgo::StackTreeAnc,
                        },
                    )
                } else {
                    // root is the descendant side: keep its order with Desc.
                    (
                        ctx.model.stj_desc(sp.card, acc_card, out_card),
                        PlanNode::StructuralJoin {
                            left: Box::new(sp.plan.clone()),
                            right: Box::new(acc_plan.clone()),
                            anc: *u,
                            desc: root,
                            axis: edge.axis,
                            algo: JoinAlgo::StackTreeDesc,
                        },
                    )
                };
                total += join_cost;
                acc_plan = plan;
                acc_set = out_set;
                acc_card = out_card;
            }
            if best.as_ref().is_none_or(|b| total < b.cost) {
                best = Some(SubPlan { plan: acc_plan, cost: total, card: acc_card });
            }
        });
        // Invariant: `permute` always invokes the closure at least
        // once (even for an empty order list), so `best` is set.
        best.expect("at least one permutation")
    };
    ctx.statuses_generated += 1;
    memo.insert(key, result.clone());
    result
}

/// Heap's-style permutation enumeration calling `f` on each order.
fn permute(items: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::dpp::{optimize_dpp, DppConfig};
    use crate::status::SearchContext;
    use sjos_pattern::parse_pattern;
    use sjos_stats::{Catalog, PatternEstimates};
    use sjos_xml::Document;

    const XML: &str = "<a>\
        <b><c>x</c><c>y</c><e/></b>\
        <b><c>z</c></b>\
        <d><e/><e/></d>\
        <d><e/></d>\
    </a>";

    fn parts(pat: &str) -> (sjos_pattern::Pattern, PatternEstimates, CostModel) {
        let doc = Document::parse(XML).unwrap();
        let pattern = parse_pattern(pat).unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        (pattern, est, CostModel::default())
    }

    #[test]
    fn fp_plans_are_fully_pipelined_and_valid() {
        for pat in ["//a/b", "//a/b/c", "//a[./b/c][./d]", "//a[./b[./c][./e]][./d/e]"] {
            let (pattern, est, model) = parts(pat);
            let mut ctx = SearchContext::new(&pattern, &est, &model);
            let (plan, cost) = optimize_fp(&mut ctx).unwrap();
            plan.validate(&pattern).unwrap();
            assert!(plan.is_fully_pipelined(), "{pat}: {plan}");
            assert!(cost > 0.0);
        }
    }

    #[test]
    fn fp_cost_is_at_least_the_global_optimum() {
        for pat in ["//a/b/c", "//a[./b/c][./d]"] {
            let (pattern, est, model) = parts(pat);
            let mut dpp_ctx = SearchContext::new(&pattern, &est, &model);
            let (_, opt) = optimize_dpp(&mut dpp_ctx, DppConfig::default(), None).unwrap();
            let mut fp_ctx = SearchContext::new(&pattern, &est, &model);
            let (_, fp_cost) = optimize_fp(&mut fp_ctx).unwrap();
            assert!(fp_cost >= opt - 1e-6, "{pat}: fp {fp_cost} < opt {opt}");
        }
    }

    #[test]
    fn fp_is_optimal_among_pipelined_plans() {
        // Cross-check: DPP restricted by filtering final plans isn't
        // directly available, but FP must never lose to the global
        // optimum when that optimum happens to be pipelined.
        let (pattern, est, model) = parts("//a/b/c");
        let mut dpp_ctx = SearchContext::new(&pattern, &est, &model);
        let (opt_plan, opt_cost) = optimize_dpp(&mut dpp_ctx, DppConfig::default(), None).unwrap();
        if opt_plan.is_fully_pipelined() {
            let mut fp_ctx = SearchContext::new(&pattern, &est, &model);
            let (_, fp_cost) = optimize_fp(&mut fp_ctx).unwrap();
            assert!((fp_cost - opt_cost).abs() < 1e-6, "fp {fp_cost} opt {opt_cost}");
        }
    }

    #[test]
    fn fp_considers_few_plans() {
        let (pattern, est, model) = parts("//a[./b[./c][./e]][./d/e]");
        let mut fp_ctx = SearchContext::new(&pattern, &est, &model);
        optimize_fp(&mut fp_ctx).unwrap();
        let mut dpp_ctx = SearchContext::new(&pattern, &est, &model);
        optimize_dpp(&mut dpp_ctx, DppConfig::default(), None).unwrap();
        assert!(
            fp_ctx.plans_considered < dpp_ctx.plans_considered,
            "FP {} !< DPP {}",
            fp_ctx.plans_considered,
            dpp_ctx.plans_considered
        );
    }

    #[test]
    fn order_by_forces_output_ordering() {
        let doc = Document::parse(XML).unwrap();
        for target in 0..3u16 {
            let mut pattern = parse_pattern("//a/b/c").unwrap();
            pattern.set_order_by(sjos_pattern::PnId(target));
            let catalog = Catalog::build(&doc);
            let est = PatternEstimates::new(&catalog, &doc, &pattern);
            let model = CostModel::default();
            let mut ctx = SearchContext::new(&pattern, &est, &model);
            let (plan, _) = optimize_fp(&mut ctx).unwrap();
            assert_eq!(plan.ordered_by(), sjos_pattern::PnId(target));
            assert!(plan.is_fully_pipelined());
            plan.validate(&pattern).unwrap();
        }
    }

    #[test]
    fn single_node_pattern_is_a_scan() {
        let (pattern, est, model) = parts("//e");
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let (plan, _) = optimize_fp(&mut ctx).unwrap();
        assert!(matches!(plan, PlanNode::IndexScan { .. }));
    }
}
