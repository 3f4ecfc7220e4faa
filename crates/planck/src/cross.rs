//! Optimizer cross-checks (rules PL030–PL033).
//!
//! These lints *run* the optimizers (but never execute a plan) and
//! compare their answers: DPP must agree with exhaustive DP, no
//! heuristic may undercut the optimum, FP must be the cheapest
//! sort-free stack-tree plan, and the DPP priority estimate `ubCost`
//! must be a sane lower-bound shape. All checks are gated on small
//! patterns ([`MAX_CROSS_CHECK_NODES`]) because DP and the sort-free
//! enumeration are exponential — the gate matches the paper's own
//! query sizes (≤ 6 nodes).

use std::collections::{HashMap, HashSet};

use sjos_core::status::SearchContext;
use sjos_core::{optimize, Algorithm, CostModel, StatusKey};
use sjos_pattern::{NodeSet, Pattern, PnId};
use sjos_stats::PatternEstimates;

use crate::diag::{Report, Rule};
use crate::plan_rules::{lint_plan, lint_plan_with, PlanExpectations};

/// Largest pattern the exponential cross-checks run on.
pub const MAX_CROSS_CHECK_NODES: usize = 6;

/// Cap on statuses visited by the `ubCost` sweep.
const MAX_STATUSES_SWEPT: usize = 4096;

fn tol(x: f64) -> f64 {
    1e-6 * x.abs().max(1.0)
}

/// Run every optimizer over `pattern` and lint both the produced
/// plans (PL001–PL013 with cost sanity) and the optimizers' mutual
/// agreement (PL030–PL032), plus the search-space sweep (PL033).
///
/// Patterns larger than [`MAX_CROSS_CHECK_NODES`] get only the plan
/// lints for the polynomial algorithms (DPP, heuristics), skipping
/// DP-relative checks.
pub fn lint_optimizers(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
) -> Report {
    let mut report = Report::default();
    let costing = Some((estimates, model));
    let small = pattern.len() <= MAX_CROSS_CHECK_NODES;

    let dp_cost = if small {
        match optimize(pattern, estimates, model, Algorithm::Dp) {
            Ok(dp) => {
                report.absorb(
                    "DP",
                    lint_plan_with(pattern, &dp.plan, PlanExpectations::of(Algorithm::Dp), costing),
                );
                Some(dp.estimated_cost)
            }
            Err(e) => {
                report.push(Rule::ErrorSurfaced, "DP", format!("optimizer failed: {e}"));
                None
            }
        }
    } else {
        None
    };

    for lookahead in [true, false] {
        let algorithm = Algorithm::Dpp { lookahead };
        let name = algorithm.name();
        let dpp = match optimize(pattern, estimates, model, algorithm) {
            Ok(dpp) => dpp,
            Err(e) => {
                report.push(Rule::ErrorSurfaced, name, format!("optimizer failed: {e}"));
                continue;
            }
        };
        let expect = PlanExpectations::of(algorithm);
        report.absorb(name, lint_plan_with(pattern, &dpp.plan, expect, costing));
        if let Some(dp_cost) = dp_cost {
            if (dpp.estimated_cost - dp_cost).abs() > tol(dp_cost) {
                report.push(
                    Rule::DppMatchesDp,
                    name,
                    format!("DP optimum {dp_cost}, {name} found {} instead", dpp.estimated_cost),
                );
            }
        }
    }

    for alg in [Algorithm::DpapEb { te: 2 }, Algorithm::DpapLd, Algorithm::Fp] {
        let name = alg.name();
        let h = match optimize(pattern, estimates, model, alg) {
            Ok(h) => h,
            Err(e) => {
                report.push(Rule::ErrorSurfaced, name, format!("optimizer failed: {e}"));
                continue;
            }
        };
        report.absorb(name, lint_plan_with(pattern, &h.plan, PlanExpectations::of(alg), costing));
        if let Some(dp_cost) = dp_cost {
            if h.estimated_cost < dp_cost - tol(dp_cost) {
                report.push(
                    Rule::HeuristicNotBelowOptimal,
                    name,
                    format!(
                        "{name} claims cost {} below the DP optimum {dp_cost}",
                        h.estimated_cost
                    ),
                );
            }
        }
        if alg == Algorithm::Fp && small {
            if let Some(best_pipelined) = min_pipelined_cost(pattern, estimates, model) {
                if h.estimated_cost > best_pipelined + tol(best_pipelined) {
                    report.push(
                        Rule::FpCheapestPipelined,
                        name,
                        format!(
                            "FP found cost {}, but a sort-free stack-tree plan \
                             of cost {best_pipelined} exists",
                            h.estimated_cost
                        ),
                    );
                }
            }
        }
    }

    match optimize(pattern, estimates, model, Algorithm::WorstRandom { samples: 8, seed: 0xC0FFEE })
    {
        Ok(bad) => report.absorb("bad-plan", lint_plan(pattern, &bad.plan)),
        Err(e) => report.push(Rule::ErrorSurfaced, "bad-plan", format!("optimizer failed: {e}")),
    }

    if small {
        report.absorb("search", lint_search_space(pattern, estimates, model));
    }
    report
}

/// Sweep the status space checking `ubCost` sanity (PL033): finite and
/// non-negative everywhere, exactly zero at final statuses, and
/// finalization never *reduces* cost. Visits at most
/// `MAX_STATUSES_SWEPT` (4096) distinct statuses.
pub fn lint_search_space(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
) -> Report {
    let mut report = Report::default();
    let mut ctx = SearchContext::new(pattern, estimates, model);
    let start = ctx.start_status();
    let mut seen: HashSet<StatusKey> = HashSet::new();
    seen.insert(start.key());
    let mut queue = vec![start];
    let mut visited = 0usize;
    while let Some(status) = queue.pop() {
        if visited >= MAX_STATUSES_SWEPT {
            break;
        }
        visited += 1;
        let level = status.level(pattern);
        let ub = ctx.ub_cost(&status);
        if !ub.is_finite() || ub < 0.0 {
            report.push(
                Rule::UbCostSane,
                format!("status@level{level}"),
                format!("ubCost is {ub}"),
            );
        }
        if status.is_final() {
            if ub != 0.0 {
                report.push(
                    Rule::UbCostSane,
                    format!("status@level{level}"),
                    format!("final status has non-zero ubCost {ub}"),
                );
            }
            let (_, final_cost) = ctx.finalize(&status);
            if final_cost + 1e-9 < status.cost {
                report.push(
                    Rule::UbCostSane,
                    format!("status@level{level}"),
                    format!("finalize reduced cost from {} to {final_cost}", status.cost),
                );
            }
        } else {
            for succ in ctx.expand(&status, false) {
                if seen.insert(succ.key()) {
                    queue.push(succ);
                }
            }
        }
    }
    report
}

/// The cost of the cheapest sort-free plan built from Stack-Tree-Anc/
/// Desc joins only (the FP plan space, §3.4), found by exhaustive
/// dynamic programming over `(partition, orderings)` states. Honors
/// the pattern's order-by. `None` when no sort-free plan delivers the
/// required ordering (cannot happen for tree patterns — Theorem 3.1 —
/// but the type is honest).
pub fn min_pipelined_cost(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
) -> Option<f64> {
    #[derive(Clone)]
    struct Part {
        nodes: NodeSet,
        ordered: PnId,
        card: f64,
    }
    type Key = Vec<(u64, u16)>;
    fn key_of(parts: &[Part]) -> Key {
        let mut k: Key = parts.iter().map(|p| (p.nodes.0, p.ordered.0)).collect();
        k.sort_unstable();
        k
    }

    let start_parts: Vec<Part> = pattern
        .node_ids()
        .map(|id| Part {
            nodes: NodeSet::singleton(id),
            ordered: id,
            card: estimates.node_cardinality(id),
        })
        .collect();
    let start_cost: f64 =
        pattern.node_ids().map(|id| model.index_access(estimates.scan_cardinality(id))).sum();
    let mut level: HashMap<Key, (Vec<Part>, f64)> = HashMap::new();
    level.insert(key_of(&start_parts), (start_parts, start_cost));

    for _ in 0..pattern.edge_count() {
        let mut next: HashMap<Key, (Vec<Part>, f64)> = HashMap::new();
        for (parts, cost) in level.values() {
            for edge in pattern.edges().iter().copied() {
                let iu = parts.iter().position(|p| p.nodes.contains(edge.parent))?;
                let iv = parts.iter().position(|p| p.nodes.contains(edge.child))?;
                if iu == iv {
                    continue;
                }
                let (pu, pv) = (&parts[iu], &parts[iv]);
                // Sort-free joins demand both inputs already ordered by
                // the edge's endpoints.
                if pu.ordered != edge.parent || pv.ordered != edge.child {
                    continue;
                }
                let merged = pu.nodes.union(pv.nodes);
                let out = estimates.cluster_cardinality(pattern, merged);
                for (ordered, join_cost) in [
                    (edge.parent, model.stj_anc(pu.card, pv.card, out)),
                    (edge.child, model.stj_desc(pu.card, pv.card, out)),
                ] {
                    let mut nparts: Vec<Part> = parts
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != iu && i != iv)
                        .map(|(_, p)| p.clone())
                        .collect();
                    nparts.push(Part { nodes: merged, ordered, card: out });
                    let ncost = cost + join_cost;
                    let k = key_of(&nparts);
                    match next.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            if ncost < e.get().1 {
                                e.insert((nparts, ncost));
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert((nparts, ncost));
                        }
                    }
                }
            }
        }
        level = next;
    }

    level
        .values()
        .filter(|(parts, _)| {
            parts.len() == 1 && pattern.order_by().is_none_or(|w| parts[0].ordered == w)
        })
        .map(|&(_, c)| c)
        .min_by(f64::total_cmp)
}
