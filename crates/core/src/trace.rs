//! Machine-checkable search traces.
//!
//! The DP-family optimizers can record every decision their search
//! makes — statuses generated with their `Cost` and `ubCost`, prune
//! decisions with the bound that justified them, duplicate
//! eliminations, lookahead skips, and expansion-budget cutoffs. The
//! resulting [`SearchTrace`] is *replayable*: a [`crate::StatusKey`]
//! is a complete status identity, and cluster cardinality is a pure
//! function of the node set, so an external checker (the `planck`
//! crate's `certify_trace`) can recompute every quantity the search
//! used and verify that no prune decision could have discarded the
//! optimum.

use crate::status::StatusKey;

/// One recorded search decision.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A status was materialized and enqueued (or, for DP, kept in the
    /// level table) with the given accumulated cost and `ubCost`.
    Generated {
        /// Status identity.
        key: StatusKey,
        /// The paper's level (joins performed).
        level: usize,
        /// Accumulated cost at generation.
        cost: f64,
        /// The `ubCost` estimate at generation.
        ub: f64,
    },
    /// A status was discarded under the Pruning Rule: its cost already
    /// reached `bound`, the cost of a complete plan found earlier.
    Pruned {
        /// Status identity.
        key: StatusKey,
        /// The discarded status's accumulated cost.
        cost: f64,
        /// The complete-plan cost that justified the prune.
        bound: f64,
    },
    /// A status was discarded because a cheaper derivation of the same
    /// key (cost `known`) was already on record.
    Dominated {
        /// Status identity.
        key: StatusKey,
        /// The discarded derivation's cost.
        cost: f64,
        /// The surviving derivation's cost.
        known: f64,
    },
    /// A successor was discarded by the Lookahead Rule: it is a
    /// Definition-6 dead end.
    LookaheadSkipped {
        /// Status identity.
        key: StatusKey,
        /// The skipped status's accumulated cost.
        cost: f64,
    },
    /// DPAP-EB refused to expand a status because the per-level
    /// expansion budget `T_e` was exhausted. A trace containing this
    /// event cannot certify optimality.
    BudgetSkipped {
        /// Level whose budget ran out.
        level: usize,
    },
    /// A final status was turned into a complete plan of cost `cost`
    /// (order-by sort included).
    Finalized {
        /// Status identity.
        key: StatusKey,
        /// The complete plan's cost.
        cost: f64,
    },
}

/// A complete record of one optimizer run's search decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchTrace {
    /// Which algorithm produced the trace (`DP`, `DPP`, …).
    pub algorithm: String,
    /// Every decision, in the order the search made them.
    pub events: Vec<TraceEvent>,
    /// The cost of the plan the search returned.
    pub optimum: f64,
}

impl SearchTrace {
    /// An empty trace for `algorithm`, optimum not yet known.
    pub fn new(algorithm: &str) -> SearchTrace {
        SearchTrace { algorithm: algorithm.to_string(), events: Vec::new(), optimum: f64::NAN }
    }

    /// Append one event.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Drop all recorded events (DPAP-EB restarts its search with a
    /// doubled budget; only the final attempt's decisions count).
    pub fn clear(&mut self) {
        self.events.clear();
        self.optimum = f64::NAN;
    }

    /// Number of events matching `f`.
    pub fn count(&self, f: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| f(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjos_pattern::{NodeSet, PnId};

    fn key(parts: &[(u64, u16)]) -> StatusKey {
        StatusKey::from_parts(parts.iter().map(|&(n, b)| (NodeSet(n), PnId(b))).collect())
    }

    fn sample() -> SearchTrace {
        SearchTrace {
            algorithm: "DPP".to_string(),
            optimum: 171.5,
            events: vec![
                TraceEvent::Generated {
                    key: key(&[(1, 0), (2, 1), (4, 2)]),
                    level: 0,
                    cost: 9.0,
                    ub: 220.125,
                },
                TraceEvent::Generated {
                    key: key(&[(3, 1), (4, 2)]),
                    level: 1,
                    cost: 55.0,
                    ub: 90.0,
                },
                TraceEvent::Dominated { key: key(&[(3, 1), (4, 2)]), cost: 60.0, known: 55.0 },
                TraceEvent::LookaheadSkipped { key: key(&[(3, 0), (4, 2)]), cost: 50.0 },
                TraceEvent::Finalized { key: key(&[(7, 1)]), cost: 171.5 },
                TraceEvent::Pruned { key: key(&[(3, 1), (4, 2)]), cost: 180.0, bound: 171.5 },
                TraceEvent::BudgetSkipped { level: 1 },
            ],
        }
    }

    #[test]
    fn count_filters_events() {
        let trace = sample();
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Generated { .. })), 2);
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::BudgetSkipped { .. })), 1);
    }

    #[test]
    fn clear_resets_for_retry() {
        let mut trace = sample();
        trace.clear();
        assert!(trace.events.is_empty());
        assert!(trace.optimum.is_nan());
    }
}
