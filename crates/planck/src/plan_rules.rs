//! Static checks over physical plan trees (rules PL001–PL013).

use sjos_core::{Algorithm, CostModel};
use sjos_exec::PlanNode;
use sjos_pattern::{NodeSet, Pattern, PnId};
use sjos_stats::PatternEstimates;

use crate::diag::{Report, Rule};

/// Optimizer-specific claims to verify on top of plain validity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanExpectations {
    /// The plan is claimed fully pipelined (FP output): rule PL008.
    pub fully_pipelined: bool,
    /// The plan is claimed left-deep (DPAP-LD output): rule PL009.
    pub left_deep: bool,
}

impl PlanExpectations {
    /// What `algorithm` claims of its plans beyond validity: DPAP-LD
    /// plans are left-deep, FP plans fully pipelined, and every other
    /// algorithm claims nothing more.
    pub fn of(algorithm: Algorithm) -> PlanExpectations {
        PlanExpectations {
            fully_pipelined: algorithm == Algorithm::Fp,
            left_deep: algorithm == Algorithm::DpapLd,
        }
    }
}

/// Lint `plan` structurally against `pattern` (rules PL001–PL007 and
/// PL013). No cost model needed; cost rules are skipped.
pub fn lint_plan(pattern: &Pattern, plan: &PlanNode) -> Report {
    lint_plan_with(pattern, plan, PlanExpectations::default(), None)
}

/// Lint `plan` with optimizer expectations and (optionally) cost
/// sanity checks (PL010–PL012) priced by `costing`.
pub fn lint_plan_with(
    pattern: &Pattern,
    plan: &PlanNode,
    expect: PlanExpectations,
    costing: Option<(&PatternEstimates, &CostModel)>,
) -> Report {
    let mut report = Report::default();
    walk(pattern, plan, "root", costing, &mut report);

    // PL001: the root output must bind each pattern node exactly once.
    let mut bound = plan.bound_nodes();
    bound.sort_unstable();
    let expected: Vec<PnId> = pattern.node_ids().collect();
    if bound != expected {
        let missing: Vec<PnId> =
            expected.iter().filter(|id| !bound.contains(id)).copied().collect();
        let mut duplicated: Vec<PnId> =
            bound.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
        duplicated.dedup();
        report.push(
            Rule::BindingPartition,
            "root",
            format!("plan binds {bound:?}; missing {missing:?}, duplicated {duplicated:?}"),
        );
    }

    // PL007: requested result ordering.
    if let Some(w) = pattern.order_by() {
        if plan.ordered_by() != w {
            report.push(
                Rule::OrderBy,
                "root",
                format!("pattern orders results by {w:?}, plan delivers {:?}", plan.ordered_by()),
            );
        }
    }

    // PL008 / PL009: optimizer claims.
    if expect.fully_pipelined && plan.sort_count() > 0 {
        report.push(
            Rule::Pipelined,
            "root",
            format!("claimed fully-pipelined plan contains {} blocking sort(s)", plan.sort_count()),
        );
    }
    if expect.left_deep && !plan.is_left_deep() {
        report.push(Rule::LeftDeep, "root", "claimed left-deep plan is bushy");
    }

    report
}

/// Per-subtree facts accumulated bottom-up.
struct Info {
    bound: Vec<PnId>,
    /// Cumulative cost of the subtree; meaningful only with costing.
    cost: f64,
    /// Output cardinality; meaningful only with costing.
    card: f64,
    /// All bound ids are in-range and distinct (costing is reliable).
    costable: bool,
}

fn walk(
    pattern: &Pattern,
    plan: &PlanNode,
    path: &str,
    costing: Option<(&PatternEstimates, &CostModel)>,
    report: &mut Report,
) -> Info {
    let info = match plan {
        PlanNode::IndexScan { pnode } => {
            let in_range = pnode.index() < pattern.len();
            if !in_range {
                report.push(
                    Rule::BindingPartition,
                    path,
                    format!("scan of unknown pattern node {pnode:?}"),
                );
            }
            let (cost, card) = match costing {
                Some((est, model)) if in_range => {
                    (model.index_access(est.scan_cardinality(*pnode)), est.node_cardinality(*pnode))
                }
                _ => (0.0, 0.0),
            };
            Info { bound: vec![*pnode], cost, card, costable: in_range }
        }
        PlanNode::Sort { input, by } => {
            let inner = walk(pattern, input, &format!("{path}.in"), costing, report);
            if !inner.bound.contains(by) {
                report.push(
                    Rule::SortBound,
                    path,
                    format!("sort by {by:?}, input binds only {:?}", inner.bound),
                );
            }
            let cost = match costing {
                Some((_, model)) if inner.costable => inner.cost + model.sort(inner.card),
                _ => inner.cost,
            };
            Info { bound: inner.bound, cost, card: inner.card, costable: inner.costable }
        }
        PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
            let l = walk(pattern, left, &format!("{path}.left"), costing, report);
            let r = walk(pattern, right, &format!("{path}.right"), costing, report);

            match pattern.edge_between(*anc, *desc) {
                None => {
                    report.push(
                        Rule::EdgeExists,
                        path,
                        format!("no pattern edge between {anc:?} and {desc:?}"),
                    );
                }
                Some(edge) => {
                    if edge.parent != *anc || edge.child != *desc {
                        report.push(
                            Rule::EdgeOrientation,
                            path,
                            format!(
                                "edge runs {:?}->{:?}, join treats {anc:?} as ancestor",
                                edge.parent, edge.child
                            ),
                        );
                    }
                    if edge.axis != *axis {
                        report.push(
                            Rule::AxisMatch,
                            path,
                            format!("join axis {axis:?}, pattern edge axis {:?}", edge.axis),
                        );
                    }
                }
            }
            if !l.bound.contains(anc) {
                report.push(
                    Rule::JoinInputBinding,
                    path,
                    format!("left input does not bind ancestor {anc:?}"),
                );
            }
            if !r.bound.contains(desc) {
                report.push(
                    Rule::JoinInputBinding,
                    path,
                    format!("right input does not bind descendant {desc:?}"),
                );
            }
            if left.ordered_by() != *anc {
                report.push(
                    Rule::InputOrder,
                    path,
                    format!("left input ordered by {:?}, join requires {anc:?}", left.ordered_by()),
                );
            }
            if right.ordered_by() != *desc {
                report.push(
                    Rule::InputOrder,
                    path,
                    format!(
                        "right input ordered by {:?}, join requires {desc:?}",
                        right.ordered_by()
                    ),
                );
            }

            let mut bound = l.bound;
            bound.extend_from_slice(&r.bound);
            let distinct = {
                let mut b = bound.clone();
                b.sort_unstable();
                b.windows(2).all(|w| w[0] != w[1])
            };
            let costable = l.costable && r.costable && distinct;
            let (cost, card) = match costing {
                Some((est, model)) if costable => {
                    let set: NodeSet = bound.iter().copied().collect();
                    let out = est.cluster_cardinality(pattern, set);
                    (l.cost + r.cost + model.join(*algo, l.card, r.card, out), out)
                }
                _ => (l.cost + r.cost, 0.0),
            };
            Info { bound, cost, card, costable }
        }
    };

    if costing.is_some() && info.costable {
        if !info.cost.is_finite() || info.cost < 0.0 {
            report.push(Rule::CostFinite, path, format!("cumulative cost is {}", info.cost));
        }
        if !info.card.is_finite() || info.card < 0.0 {
            report.push(
                Rule::CardFinite,
                path,
                format!("output cardinality estimate is {}", info.card),
            );
        }
        // PL011: a child subtree costing more than its parent means
        // some operator was priced negative.
        let children: Vec<&PlanNode> = match plan {
            PlanNode::IndexScan { .. } => vec![],
            PlanNode::Sort { input, .. } => vec![input.as_ref()],
            PlanNode::StructuralJoin { left, right, .. } => {
                vec![left.as_ref(), right.as_ref()]
            }
        };
        if let Some((est, model)) = costing {
            for child in &children {
                let (child_cost, _) = model.plan_cost(child, pattern, est);
                if child_cost > info.cost + 1e-9 && child_cost.is_finite() {
                    report.push(
                        Rule::CostMonotone,
                        path,
                        format!("cumulative cost {} below input's cost {child_cost}", info.cost),
                    );
                }
            }
        }
    }
    info
}
