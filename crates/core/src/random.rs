//! Random plan generation — the paper's "bad plan" baseline.
//!
//! Table 1's last column quantifies what an optimizer buys: random
//! (but valid) plans, with the worst of a sample shown. A random plan
//! joins the pattern's edges in a uniformly random order with random
//! algorithm choices, inserting input sorts wherever the accumulated
//! ordering does not match the next join — exactly the plans a naive
//! or unlucky system might run.

use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sjos_exec::{JoinAlgo, PlanNode};
use sjos_pattern::{Axis, NodeSet, Pattern, PnId};
use sjos_stats::PatternEstimates;

use crate::cost::CostModel;

/// Generate one uniformly random valid plan for `pattern`.
pub fn random_plan(pattern: &Pattern, rng: &mut impl Rng) -> PlanNode {
    struct Part {
        nodes: NodeSet,
        plan: PlanNode,
    }
    let mut parts: Vec<Part> = pattern
        .node_ids()
        .map(|id| Part { nodes: NodeSet::singleton(id), plan: PlanNode::IndexScan { pnode: id } })
        .collect();
    let mut remaining: Vec<usize> = (0..pattern.edge_count()).collect();
    while !remaining.is_empty() {
        let pick = rng.gen_range(0..remaining.len());
        let edge_idx = remaining.swap_remove(pick);
        let edge = pattern.edges()[edge_idx];
        let iu = parts.iter().position(|p| p.nodes.contains(edge.parent)).unwrap();
        let iv = parts.iter().position(|p| p.nodes.contains(edge.child)).unwrap();
        debug_assert_ne!(iu, iv, "tree edges never join a cluster to itself");
        let (first, second) = (iu.min(iv), iu.max(iv));
        let pv = parts.swap_remove(second);
        let pu = parts.swap_remove(first);
        let (anc_part, desc_part) =
            if pu.nodes.contains(edge.parent) { (pu, pv) } else { (pv, pu) };
        // Sort inputs into the order the stack-tree join requires.
        let left = ensure_order(anc_part.plan, edge.parent);
        let right = ensure_order(desc_part.plan, edge.child);
        let algo = if rng.gen_bool(0.5) { JoinAlgo::StackTreeAnc } else { JoinAlgo::StackTreeDesc };
        parts.push(Part {
            nodes: anc_part.nodes.union(desc_part.nodes),
            plan: PlanNode::StructuralJoin {
                left: Box::new(left),
                right: Box::new(right),
                anc: edge.parent,
                desc: edge.child,
                axis: edge.axis,
                algo,
            },
        });
    }
    let mut plan = parts.pop().expect("one part remains").plan;
    if let Some(w) = pattern.order_by() {
        plan = ensure_order(plan, w);
    }
    debug_assert!(
        plan.validate(pattern).is_ok(),
        "random_plan produced an invalid plan: {}",
        plan.validate(pattern).unwrap_err()
    );
    plan
}

/// A deliberate plan corruption, used to exercise the `planck` lints
/// (each mutation is caught by a specific rule).
///
/// Every variant except [`PlanMutation::WrapRootSort`] produces a plan
/// that fails [`PlanNode::validate`]; `WrapRootSort` keeps the plan
/// valid but blocking, which breaks only the fully-pipelined contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanMutation {
    /// Swap a join's inputs without swapping `anc`/`desc` — the left
    /// input no longer binds the ancestor node.
    SwapJoinInputs,
    /// Swap a join's `anc`/`desc` fields — the edge orientation is
    /// reversed.
    FlipOrientation,
    /// Re-target a join at a node pair with no pattern edge.
    RewireJoin,
    /// Flip a join's axis (`/` ↔ `//`).
    FlipAxis,
    /// Delete a sort operator, leaving its consumer mis-ordered.
    DropSort,
    /// Re-target a sort at a column its input does not bind.
    RetargetSort,
    /// Sort a join input by the wrong column.
    InsertInputSort,
    /// Replace one index scan's pattern node with another node's,
    /// breaking the binding partition.
    DuplicateLeaf,
    /// Add a redundant blocking sort above the root. The plan stays
    /// valid but is no longer fully pipelined.
    WrapRootSort,
}

impl PlanMutation {
    /// Every mutation, for exhaustive harnesses.
    pub const ALL: [PlanMutation; 9] = [
        PlanMutation::SwapJoinInputs,
        PlanMutation::FlipOrientation,
        PlanMutation::RewireJoin,
        PlanMutation::FlipAxis,
        PlanMutation::DropSort,
        PlanMutation::RetargetSort,
        PlanMutation::InsertInputSort,
        PlanMutation::DuplicateLeaf,
        PlanMutation::WrapRootSort,
    ];

    /// The mutation's command-line spelling (`planlint --mutate`).
    pub fn name(self) -> &'static str {
        match self {
            PlanMutation::SwapJoinInputs => "swap-join-inputs",
            PlanMutation::FlipOrientation => "flip-orientation",
            PlanMutation::RewireJoin => "rewire-join",
            PlanMutation::FlipAxis => "flip-axis",
            PlanMutation::DropSort => "drop-sort",
            PlanMutation::RetargetSort => "retarget-sort",
            PlanMutation::InsertInputSort => "insert-input-sort",
            PlanMutation::DuplicateLeaf => "duplicate-leaf",
            PlanMutation::WrapRootSort => "wrap-root-sort",
        }
    }
}

impl FromStr for PlanMutation {
    type Err = String;

    /// Parse a [`PlanMutation::name`] spelling.
    fn from_str(name: &str) -> Result<PlanMutation, String> {
        PlanMutation::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("unknown mutation {name}"))
    }
}

/// Apply `mutation` to (a copy of) `plan`, returning `None` when the
/// plan has no site the mutation applies to.
pub fn mutate_plan(pattern: &Pattern, plan: &PlanNode, mutation: PlanMutation) -> Option<PlanNode> {
    match mutation {
        PlanMutation::SwapJoinInputs => map_first(plan, &mut |node| match node {
            PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
                Some(PlanNode::StructuralJoin {
                    left: right.clone(),
                    right: left.clone(),
                    anc: *anc,
                    desc: *desc,
                    axis: *axis,
                    algo: *algo,
                })
            }
            _ => None,
        }),
        PlanMutation::FlipOrientation => map_first(plan, &mut |node| match node {
            PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
                Some(PlanNode::StructuralJoin {
                    left: left.clone(),
                    right: right.clone(),
                    anc: *desc,
                    desc: *anc,
                    axis: *axis,
                    algo: *algo,
                })
            }
            _ => None,
        }),
        PlanMutation::RewireJoin => map_first(plan, &mut |node| match node {
            PlanNode::StructuralJoin { left, right, axis, algo, .. } => {
                // A tree pattern has exactly one edge between the two
                // input components, so any other cross pair is edgeless.
                for x in left.bound_nodes() {
                    for y in right.bound_nodes() {
                        if pattern.edge_between(x, y).is_none() {
                            return Some(PlanNode::StructuralJoin {
                                left: left.clone(),
                                right: right.clone(),
                                anc: x,
                                desc: y,
                                axis: *axis,
                                algo: *algo,
                            });
                        }
                    }
                }
                None
            }
            _ => None,
        }),
        PlanMutation::FlipAxis => map_first(plan, &mut |node| match node {
            PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
                let flipped = match axis {
                    Axis::Child => Axis::Descendant,
                    Axis::Descendant => Axis::Child,
                };
                Some(PlanNode::StructuralJoin {
                    left: left.clone(),
                    right: right.clone(),
                    anc: *anc,
                    desc: *desc,
                    axis: flipped,
                    algo: *algo,
                })
            }
            _ => None,
        }),
        PlanMutation::DropSort => map_first(plan, &mut |node| match node {
            PlanNode::Sort { input, .. } => Some(input.as_ref().clone()),
            _ => None,
        }),
        PlanMutation::RetargetSort => map_first(plan, &mut |node| match node {
            PlanNode::Sort { input, .. } => {
                let bound = input.bound_nodes();
                let unbound = pattern.node_ids().find(|id| !bound.contains(id))?;
                Some(PlanNode::Sort { input: input.clone(), by: unbound })
            }
            _ => None,
        }),
        PlanMutation::InsertInputSort => map_first(plan, &mut |node| match node {
            PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
                let wrong = left.bound_nodes().into_iter().find(|id| id != anc)?;
                Some(PlanNode::StructuralJoin {
                    left: Box::new(PlanNode::Sort { input: left.clone(), by: wrong }),
                    right: right.clone(),
                    anc: *anc,
                    desc: *desc,
                    axis: *axis,
                    algo: *algo,
                })
            }
            _ => None,
        }),
        PlanMutation::DuplicateLeaf => {
            if pattern.len() < 2 {
                return None;
            }
            map_first(plan, &mut |node| match node {
                PlanNode::IndexScan { pnode } => {
                    let other = PnId((pnode.0 + 1) % pattern.len() as u16);
                    Some(PlanNode::IndexScan { pnode: other })
                }
                _ => None,
            })
        }
        PlanMutation::WrapRootSort => {
            Some(PlanNode::Sort { input: Box::new(plan.clone()), by: plan.ordered_by() })
        }
    }
}

/// Rebuild `plan` with `f` applied to the first node (pre-order) it
/// accepts; `None` when `f` accepts no node.
fn map_first(
    plan: &PlanNode,
    f: &mut impl FnMut(&PlanNode) -> Option<PlanNode>,
) -> Option<PlanNode> {
    if let Some(new) = f(plan) {
        return Some(new);
    }
    match plan {
        PlanNode::IndexScan { .. } => None,
        PlanNode::Sort { input, by } => {
            map_first(input, f).map(|inner| PlanNode::Sort { input: Box::new(inner), by: *by })
        }
        PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
            let rebuild = |l: PlanNode, r: PlanNode| PlanNode::StructuralJoin {
                left: Box::new(l),
                right: Box::new(r),
                anc: *anc,
                desc: *desc,
                axis: *axis,
                algo: *algo,
            };
            if let Some(nl) = map_first(left, f) {
                Some(rebuild(nl, right.as_ref().clone()))
            } else {
                map_first(right, f).map(|nr| rebuild(left.as_ref().clone(), nr))
            }
        }
    }
}

fn ensure_order(plan: PlanNode, by: PnId) -> PlanNode {
    if plan.ordered_by() == by {
        plan
    } else {
        PlanNode::Sort { input: Box::new(plan), by }
    }
}

/// Generate `samples` random plans (deterministic in `seed`) and
/// return the one with the *worst* estimated cost, with that cost.
pub fn worst_random_plan(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    samples: usize,
    seed: u64,
) -> (PlanNode, f64) {
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut worst: Option<(PlanNode, f64)> = None;
    for _ in 0..samples {
        let plan = random_plan(pattern, &mut rng);
        let (cost, _) = model.plan_cost(&plan, pattern, estimates);
        if worst.as_ref().is_none_or(|(_, c)| cost > *c) {
            worst = Some((plan, cost));
        }
    }
    worst.expect("samples > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjos_pattern::parse_pattern;
    use sjos_stats::Catalog;
    use sjos_xml::Document;

    const XML: &str = "<a><b><c/><c/></b><b><c/></b><d><e/></d></a>";

    fn parts(pat: &str) -> (Pattern, PatternEstimates) {
        let doc = Document::parse(XML).unwrap();
        let pattern = parse_pattern(pat).unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        (pattern, est)
    }

    #[test]
    fn random_plans_are_always_valid() {
        let (pattern, _) = parts("//a[./b/c][./d/e]");
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let plan = random_plan(&pattern, &mut rng);
            plan.validate(&pattern).unwrap();
            assert_eq!(plan.join_count(), pattern.edge_count());
        }
    }

    #[test]
    fn random_plans_vary() {
        let (pattern, _) = parts("//a[./b/c][./d/e]");
        let mut rng = StdRng::seed_from_u64(11);
        let plans: Vec<String> =
            (0..30).map(|_| random_plan(&pattern, &mut rng).to_string()).collect();
        let mut unique = plans.clone();
        unique.sort();
        unique.dedup();
        assert!(unique.len() > 5, "only {} distinct plans", unique.len());
    }

    #[test]
    fn worst_random_is_deterministic_in_seed() {
        let (pattern, est) = parts("//a/b/c");
        let model = CostModel::default();
        let (p1, c1) = worst_random_plan(&pattern, &est, &model, 50, 42);
        let (p2, c2) = worst_random_plan(&pattern, &est, &model, 50, 42);
        assert_eq!(p1, p2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn worst_random_is_no_cheaper_than_any_sampled_plan() {
        let (pattern, est) = parts("//a/b/c");
        let model = CostModel::default();
        let (_, worst) = worst_random_plan(&pattern, &est, &model, 100, 3);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let plan = random_plan(&pattern, &mut rng);
            let (cost, _) = model.plan_cost(&plan, &pattern, &est);
            assert!(cost <= worst + 1e-9);
        }
    }

    #[test]
    fn mutation_names_parse_back() {
        for mutation in PlanMutation::ALL {
            assert_eq!(mutation.name().parse::<PlanMutation>(), Ok(mutation));
        }
        assert_eq!("flip".parse::<PlanMutation>(), Err("unknown mutation flip".to_string()));
    }

    #[test]
    fn every_mutation_eventually_applies_and_breaks_the_plan() {
        let (pattern, _) = parts("//a[./b/c][./d/e]");
        for mutation in PlanMutation::ALL {
            let mut rng = StdRng::seed_from_u64(17);
            let mutated = (0..300)
                .find_map(|_| mutate_plan(&pattern, &random_plan(&pattern, &mut rng), mutation))
                .unwrap_or_else(|| panic!("{mutation:?} never applied"));
            if mutation == PlanMutation::WrapRootSort {
                // Stays valid, but is no longer pipelined.
                mutated.validate(&pattern).unwrap();
                assert!(!mutated.is_fully_pipelined());
            } else {
                assert!(
                    mutated.validate(&pattern).is_err(),
                    "{mutation:?} left the plan valid: {mutated}"
                );
            }
        }
    }

    #[test]
    fn order_by_is_respected() {
        let doc = Document::parse(XML).unwrap();
        let mut pattern = parse_pattern("//a/b/c").unwrap();
        pattern.set_order_by(PnId(1));
        let catalog = Catalog::build(&doc);
        let _est = PatternEstimates::new(&catalog, &doc, &pattern);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let plan = random_plan(&pattern, &mut rng);
            assert_eq!(plan.ordered_by(), PnId(1));
        }
    }
}
