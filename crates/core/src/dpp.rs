//! Dynamic programming with pruning — DPP, DPP', DPAP-EB, DPAP-LD
//! (paper §3.2–3.3).
//!
//! Best-first search over statuses: the un-expanded status with the
//! lowest `Cost + ubCost` is always expanded next (*Expanding Rule*);
//! a status is dead once its `Cost` alone exceeds the cheapest
//! complete plan found so far (*Pruning Rule*); with the *Lookahead
//! Rule* enabled, dead-end successors are discarded at generation
//! time. The aggressive variants add, respectively, a per-level
//! expansion budget `T_e` (DPAP-EB) and the left-deep-only status
//! restriction (DPAP-LD).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use sjos_exec::PlanNode;

use crate::error::OptimizerError;
use crate::status::{SearchContext, Status, StatusKey};
use crate::trace::{SearchTrace, TraceEvent};

/// Configuration of the pruned search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DppConfig {
    /// Apply the Lookahead Rule (discard dead-end successors).
    pub lookahead: bool,
    /// DPAP-EB: maximum statuses expanded per level (`T_e`).
    pub expansion_bound: Option<usize>,
    /// DPAP-LD: restrict to left-deep statuses.
    pub left_deep_only: bool,
    /// Order the priority queue by `Cost + ubCost` (the paper's
    /// Expanding Rule). With `false` the queue orders by `Cost` alone
    /// — an ablation showing what the look-ahead estimate buys.
    pub use_ub_cost: bool,
}

impl Default for DppConfig {
    /// Plain DPP.
    fn default() -> Self {
        DppConfig {
            lookahead: true,
            expansion_bound: None,
            left_deep_only: false,
            use_ub_cost: true,
        }
    }
}

/// Priority-queue entry ordered by ascending `Cost + ubCost`.
struct QueueEntry {
    priority: f64,
    status: Status,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for min-priority behavior.
        other.priority.total_cmp(&self.priority)
    }
}

/// Run the pruned search, returning the best plan found and its
/// estimated cost. With `expansion_bound: None` and `left_deep_only:
/// false` the result is optimal (same plan cost as [`crate::dp`]).
///
/// A very small `T_e` can cut off *every* path to a final status (all
/// surviving branches strand in configurations whose orderings fit no
/// remaining edge). When that happens the bound is doubled and the
/// search re-runs — the retries' effort still accumulates in the
/// context's counters, so DPAP-EB pays for a too-aggressive setting,
/// exactly the trade-off Figure 7/8 of the paper explores.
///
/// With a [`SearchTrace`] attached, every search decision is recorded
/// for offline admissibility certification. The trace is cleared at
/// each DPAP-EB retry, so only the successful attempt's decisions
/// remain, and on success its `optimum` is set to the returned cost.
///
/// # Errors
/// [`OptimizerError::NoPlanFound`] if an *unbounded* search strands
/// without reaching a final status — impossible for a well-formed
/// pattern, reported instead of panicking (bounded searches retry
/// with a doubled `T_e` instead).
pub fn optimize_dpp(
    ctx: &mut SearchContext<'_>,
    config: DppConfig,
    mut trace: Option<&mut SearchTrace>,
) -> Result<(PlanNode, f64), OptimizerError> {
    let mut config = config;
    loop {
        if let Some(t) = trace.as_deref_mut() {
            t.clear();
        }
        if let Some(found) = optimize_dpp_once(ctx, config, trace.as_deref_mut()) {
            debug_assert!(
                found.0.validate(ctx.pattern).is_ok(),
                "DPP produced an invalid plan: {}",
                found.0.validate(ctx.pattern).unwrap_err()
            );
            debug_assert!(
                !config.left_deep_only || found.0.is_left_deep(),
                "DPAP-LD produced a bushy plan: {}",
                found.0
            );
            if let Some(t) = trace.as_deref_mut() {
                t.optimum = found.1;
            }
            return Ok(found);
        }
        // Only an expansion bound can cut off every path to a final
        // status; an unbounded miss is a search bug.
        let te = config.expansion_bound.ok_or(OptimizerError::NoPlanFound {
            algorithm: if config.left_deep_only { "DPAP-LD" } else { "DPP" },
        })?;
        // `max(1)` so a degenerate `T_e = 0` still makes progress.
        config.expansion_bound = Some((te * 2).max(1));
    }
}

/// Record `event` if a trace is attached; the closure keeps event
/// construction (notably `ub_cost` calls) off the untraced hot path.
fn emit(trace: &mut Option<&mut SearchTrace>, event: impl FnOnce() -> TraceEvent) {
    if let Some(t) = trace.as_deref_mut() {
        t.record(event());
    }
}

fn optimize_dpp_once(
    ctx: &mut SearchContext<'_>,
    config: DppConfig,
    mut trace: Option<&mut SearchTrace>,
) -> Option<(PlanNode, f64)> {
    let start = ctx.start_status();
    emit(&mut trace, || TraceEvent::Generated {
        key: start.key(),
        level: start.level(ctx.pattern),
        cost: start.cost,
        ub: ctx.ub_cost(&start),
    });
    if start.is_final() {
        let (plan, cost) = ctx.finalize(&start);
        emit(&mut trace, || TraceEvent::Finalized { key: start.key(), cost });
        return Some((plan, cost));
    }
    let mut best_cost: HashMap<StatusKey, f64> = HashMap::new();
    let mut heap: BinaryHeap<QueueEntry> = BinaryHeap::new();
    let mut expansions_per_level = vec![0usize; ctx.pattern.len()];
    let mut min_cost = f64::INFINITY;
    let mut best: Option<(PlanNode, f64)> = None;

    best_cost.insert(start.key(), start.cost);
    let prio = start.cost + if config.use_ub_cost { ctx.ub_cost(&start) } else { 0.0 };
    heap.push(QueueEntry { priority: prio, status: start });

    while let Some(QueueEntry { status, .. }) = heap.pop() {
        // Stale entry: a cheaper derivation of the same status was
        // found after this one was enqueued.
        if let Some(&known) = best_cost.get(&status.key()) {
            if status.cost > known {
                emit(&mut trace, || TraceEvent::Dominated {
                    key: status.key(),
                    cost: status.cost,
                    known,
                });
                continue;
            }
        }
        // Pruning Rule: dead once it cannot beat the best full plan.
        if status.cost >= min_cost {
            emit(&mut trace, || TraceEvent::Pruned {
                key: status.key(),
                cost: status.cost,
                bound: min_cost,
            });
            continue;
        }
        if status.is_final() {
            let (plan, cost) = ctx.finalize(&status);
            emit(&mut trace, || TraceEvent::Finalized { key: status.key(), cost });
            if cost < min_cost {
                min_cost = cost;
                best = Some((plan, cost));
            }
            continue;
        }
        let level = status.level(ctx.pattern);
        if let Some(te) = config.expansion_bound {
            if expansions_per_level[level] >= te {
                emit(&mut trace, || TraceEvent::BudgetSkipped { level });
                continue;
            }
            expansions_per_level[level] += 1;
        }
        for succ in ctx.expand(&status, config.left_deep_only) {
            if config.lookahead && !succ.is_final() && ctx.is_deadend(&succ) {
                emit(&mut trace, || TraceEvent::LookaheadSkipped {
                    key: succ.key(),
                    cost: succ.cost,
                });
                continue;
            }
            if succ.cost >= min_cost {
                emit(&mut trace, || TraceEvent::Pruned {
                    key: succ.key(),
                    cost: succ.cost,
                    bound: min_cost,
                });
                continue;
            }
            let key = succ.key();
            let known = best_cost.get(&key).copied().unwrap_or(f64::INFINITY);
            if succ.cost >= known {
                emit(&mut trace, || TraceEvent::Dominated { key, cost: succ.cost, known });
                continue;
            }
            best_cost.insert(key, succ.cost);
            emit(&mut trace, || TraceEvent::Generated {
                key: succ.key(),
                level: succ.level(ctx.pattern),
                cost: succ.cost,
                ub: ctx.ub_cost(&succ),
            });
            let priority = succ.cost + if config.use_ub_cost { ctx.ub_cost(&succ) } else { 0.0 };
            heap.push(QueueEntry { priority, status: succ });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::dp::optimize_dp;
    use sjos_pattern::parse_pattern;
    use sjos_stats::{Catalog, PatternEstimates};
    use sjos_xml::Document;

    const XML: &str = "<a>\
        <b><c>x</c><c>y</c><e/></b>\
        <b><c>z</c></b>\
        <d><e/><e/></d>\
        <d><e/></d>\
    </a>";

    fn ctx_parts(xml: &str, pat: &str) -> (sjos_pattern::Pattern, PatternEstimates, CostModel) {
        let doc = Document::parse(xml).unwrap();
        let pattern = parse_pattern(pat).unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        (pattern, est, CostModel::default())
    }

    #[test]
    fn dpp_matches_dp_cost_on_several_patterns() {
        for pat in ["//a/b", "//a/b/c", "//a[./b/c][./d]", "//a[./b[./c][./e]][./d/e]"] {
            let (pattern, est, model) = ctx_parts(XML, pat);
            let mut dp_ctx = SearchContext::new(&pattern, &est, &model);
            let (_, dp_cost) = optimize_dp(&mut dp_ctx, None).unwrap();
            let mut dpp_ctx = SearchContext::new(&pattern, &est, &model);
            let (plan, dpp_cost) = optimize_dpp(&mut dpp_ctx, DppConfig::default(), None).unwrap();
            plan.validate(&pattern).unwrap();
            assert!(
                (dp_cost - dpp_cost).abs() < 1e-6 * dp_cost.max(1.0),
                "{pat}: DP {dp_cost} vs DPP {dpp_cost}"
            );
        }
    }

    #[test]
    fn dpp_considers_fewer_plans_than_dp() {
        let (pattern, est, model) = ctx_parts(XML, "//a[./b[./c][./e]][./d/e]");
        let mut dp_ctx = SearchContext::new(&pattern, &est, &model);
        optimize_dp(&mut dp_ctx, None).unwrap();
        let mut dpp_ctx = SearchContext::new(&pattern, &est, &model);
        optimize_dpp(&mut dpp_ctx, DppConfig::default(), None).unwrap();
        assert!(
            dpp_ctx.plans_considered < dp_ctx.plans_considered,
            "DPP {} !< DP {}",
            dpp_ctx.plans_considered,
            dp_ctx.plans_considered
        );
    }

    #[test]
    fn lookahead_reduces_work_without_changing_result() {
        let (pattern, est, model) = ctx_parts(XML, "//a[./b/c][./d/e]");
        let mut with = SearchContext::new(&pattern, &est, &model);
        let (_, cost_with) = optimize_dpp(&mut with, DppConfig::default(), None).unwrap();
        let mut without = SearchContext::new(&pattern, &est, &model);
        let (_, cost_without) = optimize_dpp(
            &mut without,
            DppConfig { lookahead: false, ..DppConfig::default() },
            None,
        )
        .unwrap();
        assert!((cost_with - cost_without).abs() < 1e-9);
        assert!(
            with.statuses_expanded <= without.statuses_expanded,
            "lookahead must not expand more"
        );
    }

    #[test]
    fn expansion_bound_caps_work() {
        let (pattern, est, model) = ctx_parts(XML, "//a[./b[./c][./e]][./d/e]");
        let mut unbounded = SearchContext::new(&pattern, &est, &model);
        let (_, opt_cost) = optimize_dpp(&mut unbounded, DppConfig::default(), None).unwrap();
        let mut bounded = SearchContext::new(&pattern, &est, &model);
        let (plan, bounded_cost) = optimize_dpp(
            &mut bounded,
            DppConfig { expansion_bound: Some(1), ..DppConfig::default() },
            None,
        )
        .unwrap();
        plan.validate(&pattern).unwrap();
        assert!(bounded.statuses_expanded <= unbounded.statuses_expanded);
        assert!(bounded_cost >= opt_cost - 1e-9, "bounded can only be worse");
    }

    #[test]
    fn large_expansion_bound_recovers_optimum() {
        let (pattern, est, model) = ctx_parts(XML, "//a[./b/c][./d]");
        let mut full = SearchContext::new(&pattern, &est, &model);
        let (_, opt) = optimize_dpp(&mut full, DppConfig::default(), None).unwrap();
        let mut eb = SearchContext::new(&pattern, &est, &model);
        let (_, eb_cost) = optimize_dpp(
            &mut eb,
            DppConfig { expansion_bound: Some(10_000), ..DppConfig::default() },
            None,
        )
        .unwrap();
        assert!((opt - eb_cost).abs() < 1e-9);
    }

    #[test]
    fn left_deep_plans_are_left_deep_and_no_better_than_optimal() {
        let (pattern, est, model) = ctx_parts(XML, "//a[./b[./c][./e]][./d/e]");
        let mut full = SearchContext::new(&pattern, &est, &model);
        let (_, opt) = optimize_dpp(&mut full, DppConfig::default(), None).unwrap();
        let mut ld = SearchContext::new(&pattern, &est, &model);
        let (plan, ld_cost) =
            optimize_dpp(&mut ld, DppConfig { left_deep_only: true, ..DppConfig::default() }, None)
                .unwrap();
        plan.validate(&pattern).unwrap();
        assert!(plan.is_left_deep(), "{plan}");
        assert!(ld_cost >= opt - 1e-9);
    }

    #[test]
    fn zero_expansion_bound_still_terminates() {
        // Regression: te=0 used to retry forever (0 * 2 == 0).
        let (pattern, est, model) = ctx_parts(XML, "//a/b/c");
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let (plan, _) = optimize_dpp(
            &mut ctx,
            DppConfig { expansion_bound: Some(0), ..DppConfig::default() },
            None,
        )
        .unwrap();
        plan.validate(&pattern).unwrap();
    }

    #[test]
    fn traced_run_matches_untraced_and_prunes_admissibly() {
        let (pattern, est, model) = ctx_parts(XML, "//a[./b[./c][./e]][./d/e]");
        let mut plain = SearchContext::new(&pattern, &est, &model);
        let (_, plain_cost) = optimize_dpp(&mut plain, DppConfig::default(), None).unwrap();
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let mut trace = SearchTrace::new("DPP");
        let (_, cost) = optimize_dpp(&mut ctx, DppConfig::default(), Some(&mut trace)).unwrap();
        assert!((cost - plain_cost).abs() < 1e-9 * plain_cost.max(1.0));
        assert_eq!(trace.optimum, cost);
        assert!(trace.count(|e| matches!(e, TraceEvent::Generated { .. })) > 0);
        assert!(trace.count(|e| matches!(e, TraceEvent::Finalized { .. })) >= 1);
        // Every prune decision was justified: the discarded status's
        // sunk cost already met the recorded bound, and no bound was
        // below the final optimum.
        for event in &trace.events {
            if let TraceEvent::Pruned { cost: c, bound, .. } = event {
                assert!(*c >= *bound - 1e-9, "pruned below bound");
                assert!(*bound >= trace.optimum - 1e-9, "bound below optimum");
            }
        }
    }

    #[test]
    fn traced_eb_retry_keeps_only_final_attempt() {
        let (pattern, est, model) = ctx_parts(XML, "//a[./b/c][./d/e]");
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let mut trace = SearchTrace::new("DPAP-EB");
        let config = DppConfig { expansion_bound: Some(0), ..DppConfig::default() };
        let (plan, cost) = optimize_dpp(&mut ctx, config, Some(&mut trace)).unwrap();
        plan.validate(&pattern).unwrap();
        assert_eq!(trace.optimum, cost);
        // The successful attempt starts from a fresh root generation.
        assert!(matches!(trace.events.first(), Some(TraceEvent::Generated { level: 0, .. })));
    }

    #[test]
    fn single_node_pattern() {
        let (pattern, est, model) = ctx_parts(XML, "//c");
        let mut ctx = SearchContext::new(&pattern, &est, &model);
        let (plan, _) = optimize_dpp(&mut ctx, DppConfig::default(), None).unwrap();
        assert!(matches!(plan, PlanNode::IndexScan { .. }));
    }
}
