//! Search-trace admissibility certification (rules PL050–PL053).
//!
//! The DP-family optimizers can record a [`SearchTrace`] of every
//! decision they make ([`sjos_core::optimize_traced`], the search
//! [`sjos_core::optimize`] runs). Because a
//! [`sjos_core::StatusKey`] is a *complete* status identity — cluster
//! cardinality is a pure function of the node set — this module can
//! replay each decision against the status lattice without re-running
//! the search, turning "DPP found the optimum on this dataset" into
//! "this specific search provably could not have missed it":
//!
//! * **PL050** `prune-admissible` — every Pruning-Rule discard had a
//!   sunk cost at least the recorded bound, the bound was witnessed by
//!   an earlier finalized plan, and no bound undercuts the final
//!   optimum; every duplicate elimination was witnessed by an earlier,
//!   cheaper generation of the same status key;
//! * **PL051** `lookahead-admissible` — every Lookahead-Rule skip
//!   discarded a replay-verified Definition-6 dead end;
//! * **PL052** `trace-consistent` — status keys satisfy Definition 4,
//!   recorded levels and `ubCost` values match what the lattice
//!   recomputes (an inflated `ubCost` is rejected here), finalized
//!   statuses are final, and the recorded optimum equals the best
//!   finalized cost;
//! * **PL053** `trace-complete` — at least one status was finalized
//!   with a finite optimum, every level of the lattice was generated,
//!   and no expansion budget cut branches off.

use std::collections::{HashMap, HashSet};
use std::str::FromStr;

use sjos_core::status::SearchContext;
use sjos_core::{
    optimize_traced, Algorithm, CostModel, OptimizedPlan, SearchTrace, StatusKey, TraceEvent,
};
use sjos_pattern::Pattern;
use sjos_stats::PatternEstimates;

use crate::diag::{Report, Rule};
use crate::status_rules::lint_status_key;

/// Comparison slack for replayed floating-point quantities.
fn tol(x: f64) -> f64 {
    1e-6 * x.abs().max(1.0)
}

/// Optimize the pattern with `algorithm` exactly as
/// [`sjos_core::optimize`] does, returning the chosen plan together
/// with the recorded search trace.
///
/// # Errors
/// A human-readable message when the algorithm does not perform a
/// traceable status search (FP, the random baseline) or the search
/// itself fails.
pub fn record_search_trace(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    algorithm: Algorithm,
) -> Result<(OptimizedPlan, SearchTrace), String> {
    if matches!(algorithm, Algorithm::Fp | Algorithm::WorstRandom { .. }) {
        return Err(format!(
            "{} does not perform a status search, so there is no trace to record",
            algorithm.name()
        ));
    }
    let mut trace = SearchTrace::new(algorithm.name());
    let optimized = optimize_traced(pattern, estimates, model, algorithm, Some(&mut trace))
        .map_err(|e| e.to_string())?;
    Ok((optimized, trace))
}

/// Replay `trace` against the status lattice of `pattern` and certify
/// its admissibility. A clean report means no recorded decision could
/// have discarded the optimum.
pub fn certify_trace(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    trace: &SearchTrace,
) -> Report {
    let mut report = Report::default();
    let ctx = SearchContext::new(pattern, estimates, model);

    let mut generated_best: HashMap<StatusKey, f64> = HashMap::new();
    let mut levels_seen: HashSet<usize> = HashSet::new();
    let mut min_finalized = f64::INFINITY;
    let mut finalized_count = 0usize;
    let mut budget_count = 0usize;
    let mut malformed = 0usize;

    for (i, event) in trace.events.iter().enumerate() {
        let at = format!("event[{i}]");
        if let Some(key) = event_key(event) {
            let key_report = lint_status_key(pattern, key);
            if !key_report.is_clean() {
                malformed += 1;
                report.absorb(&at, key_report);
                continue;
            }
        }
        match event {
            TraceEvent::Generated { key, level, cost, ub } => {
                if *level != key.level(pattern) {
                    report.push(
                        Rule::TraceConsistent,
                        &at,
                        format!(
                            "recorded level {level}, but the key has {} clusters (level {})",
                            key.parts().len(),
                            key.level(pattern)
                        ),
                    );
                }
                if !cost.is_finite() || *cost < 0.0 {
                    report.push(
                        Rule::TraceConsistent,
                        &at,
                        format!("generated with non-finite or negative cost {cost}"),
                    );
                }
                match ctx.ub_cost_key(key) {
                    Some(expected) if (ub - expected).abs() > tol(expected) => report.push(
                        Rule::TraceConsistent,
                        &at,
                        format!("recorded ubCost {ub}, replay computes {expected}"),
                    ),
                    None => report.push(
                        Rule::TraceConsistent,
                        &at,
                        "ubCost is not replayable from the status key".to_string(),
                    ),
                    Some(_) => {}
                }
                let entry = generated_best.entry(key.clone()).or_insert(f64::INFINITY);
                *entry = entry.min(*cost);
                levels_seen.insert(key.level(pattern));
            }
            TraceEvent::Pruned { cost, bound, .. } => {
                if *cost < *bound - tol(*bound) {
                    report.push(
                        Rule::PruneAdmissible,
                        &at,
                        format!("pruned at cost {cost}, below the recorded bound {bound}"),
                    );
                }
                if *bound < trace.optimum - tol(trace.optimum) {
                    report.push(
                        Rule::PruneAdmissible,
                        &at,
                        format!(
                            "prune bound {bound} undercuts the final optimum {} — the \
                             optimal plan could have been discarded",
                            trace.optimum
                        ),
                    );
                }
                if min_finalized > *bound + tol(*bound) {
                    report.push(
                        Rule::PruneAdmissible,
                        &at,
                        format!(
                            "prune bound {bound} is not witnessed by any earlier finalized plan"
                        ),
                    );
                }
            }
            TraceEvent::Dominated { key, cost, known } => {
                if *cost < *known - tol(*known) {
                    report.push(
                        Rule::PruneAdmissible,
                        &at,
                        format!("derivation of cost {cost} discarded against costlier {known}"),
                    );
                }
                let witness = generated_best.get(key).copied().unwrap_or(f64::INFINITY);
                if witness > *known + tol(*known) {
                    report.push(
                        Rule::PruneAdmissible,
                        &at,
                        format!(
                            "dominating derivation of cost {known} was never generated \
                             (best witnessed: {witness})"
                        ),
                    );
                }
            }
            TraceEvent::LookaheadSkipped { key, .. } => {
                if key.is_final() {
                    report.push(
                        Rule::LookaheadAdmissible,
                        &at,
                        "a final status was skipped as a dead end".to_string(),
                    );
                } else {
                    match ctx.is_deadend_key(key) {
                        Some(true) => {}
                        Some(false) => report.push(
                            Rule::LookaheadAdmissible,
                            &at,
                            "replay shows the skipped status is joinable — not a \
                             Definition-6 dead end"
                                .to_string(),
                        ),
                        None => report.push(
                            Rule::LookaheadAdmissible,
                            &at,
                            "dead-end replay is impossible for this status key".to_string(),
                        ),
                    }
                }
            }
            TraceEvent::BudgetSkipped { .. } => budget_count += 1,
            TraceEvent::Finalized { key, cost } => {
                if !key.is_final() {
                    report.push(
                        Rule::TraceConsistent,
                        &at,
                        format!("finalized a status with {} clusters", key.parts().len()),
                    );
                }
                min_finalized = min_finalized.min(*cost);
                finalized_count += 1;
            }
        }
    }

    if malformed > 0 {
        report.push(
            Rule::TraceConsistent,
            "trace",
            format!("{malformed} event(s) carry status keys violating Definition 4"),
        );
    }
    if finalized_count > 0 && (trace.optimum - min_finalized).abs() > tol(min_finalized) {
        report.push(
            Rule::TraceConsistent,
            "trace",
            format!(
                "recorded optimum {} differs from the best finalized cost {min_finalized}",
                trace.optimum
            ),
        );
    }
    if finalized_count == 0 {
        report.push(
            Rule::TraceComplete,
            "trace",
            "the search never finalized a status — no complete plan is witnessed".to_string(),
        );
    } else if !trace.optimum.is_finite() {
        report.push(
            Rule::TraceComplete,
            "trace",
            format!("recorded optimum {} is not finite", trace.optimum),
        );
    }
    if budget_count > 0 {
        report.push(
            Rule::TraceComplete,
            "trace",
            format!(
                "{budget_count} expansion-budget cutoff(s): coverage of the status \
                 space is not provable"
            ),
        );
    }
    for level in 0..=pattern.edge_count() {
        if !levels_seen.contains(&level) {
            report.push(
                Rule::TraceComplete,
                "trace",
                format!("no status was ever generated at level {level}"),
            );
        }
    }
    report
}

/// The status key an event is about, if it has one.
fn event_key(event: &TraceEvent) -> Option<&StatusKey> {
    match event {
        TraceEvent::Generated { key, .. }
        | TraceEvent::Pruned { key, .. }
        | TraceEvent::Dominated { key, .. }
        | TraceEvent::LookaheadSkipped { key, .. }
        | TraceEvent::Finalized { key, .. } => Some(key),
        TraceEvent::BudgetSkipped { .. } => None,
    }
}

/// Deliberate trace corruptions, used to prove the certifier rejects
/// bad evidence (`planlint certify --corrupt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCorruption {
    /// Inflate the first generation's recorded `ubCost` — the exact
    /// lie that would let an inadmissible Expanding Rule masquerade as
    /// admissible. Rejected by PL052.
    InflateUbCost,
    /// Drop every finalization, leaving prune bounds unwitnessed and
    /// the optimum without evidence. Rejected by PL050/PL053.
    DropFinalized,
    /// Rewrite the first prune to discard a status cheaper than its
    /// bound — a prune that could have discarded the optimum. Rejected
    /// by PL050.
    CheapPrune,
}

impl TraceCorruption {
    /// Every corruption, for exhaustive harnesses.
    pub const ALL: [TraceCorruption; 3] = [
        TraceCorruption::InflateUbCost,
        TraceCorruption::DropFinalized,
        TraceCorruption::CheapPrune,
    ];

    /// The corruption's command-line spelling (`planlint --corrupt`).
    pub fn name(self) -> &'static str {
        match self {
            TraceCorruption::InflateUbCost => "inflate-ubcost",
            TraceCorruption::DropFinalized => "drop-finalized",
            TraceCorruption::CheapPrune => "cheap-prune",
        }
    }
}

impl FromStr for TraceCorruption {
    type Err = String;

    /// Parse a [`TraceCorruption::name`] spelling.
    fn from_str(name: &str) -> Result<TraceCorruption, String> {
        TraceCorruption::ALL
            .into_iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| format!("unknown corruption {name}"))
    }
}

/// Apply `corruption` to a copy of `trace`.
pub fn corrupt_trace(trace: &SearchTrace, corruption: TraceCorruption) -> SearchTrace {
    let mut out = trace.clone();
    match corruption {
        TraceCorruption::InflateUbCost => {
            for event in &mut out.events {
                if let TraceEvent::Generated { ub, .. } = event {
                    *ub = *ub * 10.0 + 100.0;
                    break;
                }
            }
        }
        TraceCorruption::DropFinalized => {
            out.events.retain(|e| !matches!(e, TraceEvent::Finalized { .. }));
        }
        TraceCorruption::CheapPrune => {
            let mut rewritten = false;
            for event in &mut out.events {
                if let TraceEvent::Pruned { cost, bound, .. } = event {
                    *cost = *bound - bound.abs().max(1.0);
                    rewritten = true;
                    break;
                }
            }
            if !rewritten {
                // Traces without prunes (e.g. DP's) get a fabricated
                // prune whose bound undercuts the optimum.
                if let Some(TraceEvent::Generated { key, cost, .. }) = out.events.first().cloned() {
                    out.events.push(TraceEvent::Pruned {
                        key,
                        cost,
                        bound: out.optimum - out.optimum.abs().max(1.0),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjos_pattern::{parse_pattern, NodeSet, PnId};
    use sjos_stats::Catalog;
    use sjos_xml::Document;

    const XML: &str = "<a>\
        <b><c>x</c><c>y</c><e/></b>\
        <b><c>z</c></b>\
        <d><e/><e/></d>\
        <d><e/></d>\
    </a>";

    fn parts(pat: &str) -> (Pattern, PatternEstimates, CostModel) {
        let doc = Document::parse(XML).unwrap();
        let pattern = parse_pattern(pat).unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        (pattern, est, CostModel::default())
    }

    #[test]
    fn honest_traces_certify_clean() {
        for pat in ["//c", "//a/b", "//a[./b/c][./d/e]", "//a[./b[./c][./e]][./d/e]"] {
            let (pattern, est, model) = parts(pat);
            for algo in [Algorithm::Dp, Algorithm::Dpp { lookahead: true }] {
                let (_, trace) = record_search_trace(&pattern, &est, &model, algo).unwrap();
                let report = certify_trace(&pattern, &est, &model, &trace);
                assert!(report.is_clean(), "{pat} / {}: {report}", algo.name());
            }
        }
    }

    #[test]
    fn dpp_prime_traces_certify_clean_too() {
        let (pattern, est, model) = parts("//a[./b/c][./d/e]");
        let (_, trace) =
            record_search_trace(&pattern, &est, &model, Algorithm::Dpp { lookahead: false })
                .unwrap();
        let report = certify_trace(&pattern, &est, &model, &trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn untraceable_algorithms_are_refused() {
        let (pattern, est, model) = parts("//a/b");
        let err = record_search_trace(&pattern, &est, &model, Algorithm::Fp).unwrap_err();
        assert!(err.contains("FP"), "{err}");
    }

    #[test]
    fn inflated_ubcost_is_rejected_as_inconsistent() {
        let (pattern, est, model) = parts("//a[./b/c][./d/e]");
        let (_, trace) =
            record_search_trace(&pattern, &est, &model, Algorithm::Dpp { lookahead: true })
                .unwrap();
        let bad = corrupt_trace(&trace, TraceCorruption::InflateUbCost);
        let report = certify_trace(&pattern, &est, &model, &bad);
        assert!(report.violates(Rule::TraceConsistent), "{report}");
    }

    #[test]
    fn dropping_finalizations_breaks_completeness() {
        let (pattern, est, model) = parts("//a[./b/c][./d/e]");
        let (_, trace) =
            record_search_trace(&pattern, &est, &model, Algorithm::Dpp { lookahead: true })
                .unwrap();
        let bad = corrupt_trace(&trace, TraceCorruption::DropFinalized);
        let report = certify_trace(&pattern, &est, &model, &bad);
        assert!(report.violates(Rule::TraceComplete), "{report}");
    }

    #[test]
    fn cheap_prune_is_rejected_as_inadmissible() {
        let (pattern, est, model) = parts("//a[./b[./c][./e]][./d/e]");
        for algo in [Algorithm::Dp, Algorithm::Dpp { lookahead: true }] {
            let (_, trace) = record_search_trace(&pattern, &est, &model, algo).unwrap();
            let bad = corrupt_trace(&trace, TraceCorruption::CheapPrune);
            let report = certify_trace(&pattern, &est, &model, &bad);
            assert!(report.violates(Rule::PruneAdmissible), "{}: {report}", algo.name());
        }
    }

    #[test]
    fn skipping_a_live_status_violates_lookahead_admissibility() {
        let (pattern, est, model) = parts("//a/b/c");
        let (_, mut trace) =
            record_search_trace(&pattern, &est, &model, Algorithm::Dpp { lookahead: true })
                .unwrap();
        // {a,b} ordered by b next to {c}: the b/c edge is joinable, so
        // this status is alive and skipping it is inadmissible.
        let live = StatusKey::from_parts(vec![
            (NodeSet::from_iter([PnId(0), PnId(1)]), PnId(1)),
            (NodeSet::from_iter([PnId(2)]), PnId(2)),
        ]);
        trace.record(TraceEvent::LookaheadSkipped { key: live, cost: 1.0 });
        let report = certify_trace(&pattern, &est, &model, &trace);
        assert!(report.violates(Rule::LookaheadAdmissible), "{report}");
    }

    #[test]
    fn malformed_keys_are_reported_with_definition_4_rules() {
        let (pattern, est, model) = parts("//a/b");
        let (_, mut trace) = record_search_trace(&pattern, &est, &model, Algorithm::Dp).unwrap();
        // A key that binds node 0 twice and never binds node 1.
        let bad = StatusKey::from_parts(vec![
            (NodeSet::from_iter([PnId(0)]), PnId(0)),
            (NodeSet::from_iter([PnId(0)]), PnId(0)),
        ]);
        trace.record(TraceEvent::Generated { key: bad, level: 0, cost: 1.0, ub: 0.0 });
        let report = certify_trace(&pattern, &est, &model, &trace);
        assert!(report.violates(Rule::TraceConsistent), "{report}");
        assert!(report.violates(Rule::ClusterPartition) || report.violates(Rule::ClusterOverlap));
    }

    #[test]
    fn corruption_names_parse_back() {
        for corruption in TraceCorruption::ALL {
            assert_eq!(corruption.name().parse::<TraceCorruption>(), Ok(corruption));
        }
        assert_eq!("forge".parse::<TraceCorruption>(), Err("unknown corruption forge".to_string()));
    }
}
