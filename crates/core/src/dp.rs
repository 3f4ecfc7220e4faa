//! Exhaustive dynamic programming (paper §3.1).
//!
//! Level-by-level sweep: no status on level `k` is expanded until all
//! of level `k-1` is done; duplicate statuses (same partition + same
//! orderings) keep only their cheapest derivation; every surviving
//! status is expanded, including dead ends and statuses that can no
//! longer beat the best plan — that indiscriminateness is exactly
//! what DPP later prunes.

use std::collections::HashMap;

use sjos_exec::PlanNode;

use crate::error::OptimizerError;
use crate::status::{SearchContext, Status, StatusKey};
use crate::trace::{SearchTrace, TraceEvent};

/// Run the DP search, returning the optimal plan and its estimated
/// cost. With a [`SearchTrace`] attached, every status kept and every
/// duplicate derivation discarded is recorded for offline
/// admissibility certification, and on success the trace's `optimum`
/// is set to the returned cost.
///
/// # Errors
/// [`OptimizerError::NoPlanFound`] if the level sweep strands without
/// any final status — impossible for a well-formed pattern, reported
/// instead of panicking.
pub fn optimize_dp(
    ctx: &mut SearchContext<'_>,
    mut trace: Option<&mut SearchTrace>,
) -> Result<(PlanNode, f64), OptimizerError> {
    fn emit(trace: &mut Option<&mut SearchTrace>, event: TraceEvent) {
        if let Some(t) = trace.as_deref_mut() {
            t.record(event);
        }
    }
    let tracing = trace.is_some();
    let start = ctx.start_status();
    if tracing {
        let event = TraceEvent::Generated {
            key: start.key(),
            level: start.level(ctx.pattern),
            cost: start.cost,
            ub: ctx.ub_cost(&start),
        };
        emit(&mut trace, event);
    }
    if start.is_final() {
        let (plan, cost) = ctx.finalize(&start);
        emit(&mut trace, TraceEvent::Finalized { key: start.key(), cost });
        if let Some(t) = trace.as_deref_mut() {
            t.optimum = cost;
        }
        return Ok((plan, cost));
    }
    // Each level keeps its statuses in first-derivation order (the map
    // only indexes into the vector), so which of two equal-cost
    // derivations survives, and which tied final status wins, is the
    // same on every run.
    let mut current: Vec<Status> = vec![start];
    let levels = ctx.pattern.edge_count();
    for _lv in 0..levels {
        let mut next: Vec<Status> = Vec::new();
        let mut index: HashMap<StatusKey, usize> = HashMap::new();
        for status in &current {
            for succ in ctx.expand_all_orderings(status) {
                // Snapshot the trace fields before the entry consumes
                // the status; the untraced path pays nothing.
                let snapshot = if tracing {
                    Some((succ.key(), succ.level(ctx.pattern), succ.cost, ctx.ub_cost(&succ)))
                } else {
                    None
                };
                let dominated_by = match index.entry(succ.key()) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let kept = &mut next[*e.get()];
                        if succ.cost < kept.cost {
                            *kept = succ;
                            None
                        } else {
                            Some(kept.cost)
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(next.len());
                        next.push(succ);
                        None
                    }
                };
                if let Some((key, level, cost, ub)) = snapshot {
                    let event = match dominated_by {
                        Some(known) => TraceEvent::Dominated { key, cost, known },
                        None => TraceEvent::Generated { key, level, cost, ub },
                    };
                    emit(&mut trace, event);
                }
            }
        }
        current = next;
    }
    let mut finalized = Vec::with_capacity(current.len());
    for status in &current {
        let (plan, cost) = ctx.finalize(status);
        emit(&mut trace, TraceEvent::Finalized { key: status.key(), cost });
        finalized.push((plan, cost));
    }
    let best = finalized
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or(OptimizerError::NoPlanFound { algorithm: "DP" })?;
    if let Some(t) = trace {
        t.optimum = best.1;
    }
    debug_assert!(
        best.0.validate(ctx.pattern).is_ok(),
        "DP produced an invalid plan: {}",
        best.0.validate(ctx.pattern).unwrap_err()
    );
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use sjos_pattern::parse_pattern;
    use sjos_stats::{Catalog, PatternEstimates};
    use sjos_xml::Document;

    fn run(xml: &str, pat: &str) -> (PlanNode, f64, u64) {
        let doc = Document::parse(xml).unwrap();
        let pattern = parse_pattern(pat).unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        let model = CostModel::default();
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let (plan, cost) = optimize_dp(&mut ctx, None).unwrap();
        plan.validate(&pattern).unwrap();
        (plan, cost, ctx.plans_considered)
    }

    const XML: &str = "<a><b><c/><c/></b><b><c/></b><d/></a>";

    #[test]
    fn single_node_pattern_is_a_scan() {
        let (plan, cost, _) = run(XML, "//b");
        assert!(matches!(plan, PlanNode::IndexScan { .. }));
        assert!(cost > 0.0);
    }

    #[test]
    fn two_node_pattern_joins_once() {
        let (plan, _, considered) = run(XML, "//a/b");
        assert_eq!(plan.join_count(), 1);
        assert!(considered >= 2, "both orderings priced");
    }

    #[test]
    fn chain_pattern_finds_valid_three_way_plan() {
        let (plan, cost, considered) = run(XML, "//a/b/c");
        assert_eq!(plan.join_count(), 2);
        assert!(cost > 0.0);
        assert!(considered > 4);
    }

    #[test]
    fn branching_pattern_explores_bushy_space() {
        let (plan, _, _) = run(XML, "//a[./b/c][./d]");
        assert_eq!(plan.join_count(), 3);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_every_level() {
        let doc = Document::parse(XML).unwrap();
        let pattern = parse_pattern("//a[./b/c][./d]").unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        let model = CostModel::default();
        let mut plain_ctx = SearchContext::new(&pattern, &est, &model);
        let (_, plain_cost) = optimize_dp(&mut plain_ctx, None).unwrap();
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let mut trace = crate::trace::SearchTrace::new("DP");
        let (_, cost) = optimize_dp(&mut ctx, Some(&mut trace)).unwrap();
        assert!((cost - plain_cost).abs() < 1e-9);
        assert_eq!(trace.optimum, cost);
        for level in 0..=pattern.edge_count() {
            assert!(
                trace.events.iter().any(|e| matches!(
                    e,
                    crate::trace::TraceEvent::Generated { level: l, .. } if *l == level
                )),
                "no Generated event at level {level}"
            );
        }
        let finals = trace.count(|e| matches!(e, crate::trace::TraceEvent::Finalized { .. }));
        assert!(finals >= 1);
    }

    #[test]
    fn traced_single_node_pattern_records_generation_and_finalize() {
        let doc = Document::parse(XML).unwrap();
        let pattern = parse_pattern("//b").unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        let model = CostModel::default();
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let mut trace = crate::trace::SearchTrace::new("DP");
        let (_, cost) = optimize_dp(&mut ctx, Some(&mut trace)).unwrap();
        assert_eq!(trace.optimum, cost);
        assert_eq!(trace.events.len(), 2, "{:?}", trace.events);
    }

    #[test]
    fn order_by_is_honored() {
        let doc = Document::parse(XML).unwrap();
        let mut pattern = parse_pattern("//a/b/c").unwrap();
        pattern.set_order_by(sjos_pattern::PnId(2));
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        let model = CostModel::default();
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let (plan, _) = optimize_dp(&mut ctx, None).unwrap();
        assert_eq!(plan.ordered_by(), sjos_pattern::PnId(2));
    }
}
