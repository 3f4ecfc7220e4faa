//! # sjos-planck
//!
//! A **plan-invariant static analyzer** for the sjos optimizer stack.
//! Without executing a single join, `planck` verifies that:
//!
//! * physical plan trees are structurally sound — the binding
//!   partition, pattern-edge, orientation, axis, and input-ordering
//!   rules the stack-tree algorithms assume (PL001–PL007, PL013);
//! * optimizer-specific claims hold — FP plans are non-blocking,
//!   DPAP-LD plans are left-deep (PL008–PL009);
//! * costs are sane — finite, non-negative, monotone up the tree
//!   (PL010–PL012);
//! * statuses satisfy the paper's Definition 4 (PL020–PL023, by
//!   mapping [`sjos_core::check_status`] onto stable rule ids);
//! * the optimizers agree where theory says they must — DPP equals
//!   DP, heuristics never undercut the optimum, FP is the cheapest
//!   sort-free stack-tree plan, `ubCost` is well-shaped (PL030–PL033);
//! * the vectorized engine honors its batch contract — the *dynamic*
//!   rules check a [`Replay`], one execution that [`replay`] records
//!   (the only place planck runs a plan): PL034 ([`lint_replayed`])
//!   checks that root batches arrive sorted by the claimed ordering
//!   node and that batch row counts reconcile with the tuple counters,
//!   and PL035 ([`lint_error_surfacing`]) replays the plan on a
//!   fault-armed store copy and demands a typed storage error;
//! * physical order properties are *provable*, not just declared — an
//!   order-property dataflow pass ([`analyze_plan`]) propagates
//!   sorted-by/duplicate-free/document-order/blocking-free facts
//!   bottom-up and flags redundant sorts, unprovably-sorted join
//!   inputs, unfounded order contracts, and FP plans that cannot be
//!   proved pipeline-safe statically (PL040–PL043);
//! * recorded optimizer search traces are admissible — the certifier
//!   ([`certify_trace`]) replays every prune, duplicate elimination,
//!   and lookahead skip against the status lattice and proves no
//!   decision could have discarded the optimum (PL050–PL053);
//! * resource consumption is *provably bounded before execution* — a
//!   resource-bound abstract interpretation ([`analyze_bounds`])
//!   propagates guaranteed cardinality intervals bottom-up from the
//!   catalog's exact index statistics and derives worst-case peak
//!   buffering bytes and batch-pull counts, which [`admit`] compares
//!   against [`sjos_exec::QueryGuard`] budgets as a static admission
//!   predicate; one dynamic rule ([`Replay::within`]) certifies a
//!   replay never exceeded the bounds (PL060–PL064);
//! * memory pressure degrades gracefully instead of rejecting — given
//!   [`sjos_exec::ExecOptions`] that carry a
//!   [`sjos_exec::SpillPolicy`], the same analysis caps every sort at
//!   its resident footprint, [`admit`] turns that into a second-tier
//!   *degraded* admission predicate for plans the in-memory bound
//!   rejects, and the same check certifies the spill cap is a real
//!   upper bound (PL066–PL067);
//! * morsel-driven parallel runs are exact, not approximately right —
//!   [`ResourceBounds::scaled`] multiplies the static bounds by the
//!   options' worker count before a parallel admission, and a dynamic rule
//!   ([`Replay::matches`], PL068) compares a partitioned replay with a
//!   serial one, proves no scanned interval straddles a cut, and
//!   demands outputs and summed work counters match the
//!   single-threaded run bit for bit;
//! * the concurrent service stack is interleaving-sound — a
//!   source-level pass ([`lint_concurrency`]) lexes the first-party
//!   crates, builds the lock acquisition graph, and enforces acyclic
//!   lock order, no latch held across buffer-pool/disk I/O,
//!   guard-checked pull loops, balanced reserve/release protocols,
//!   no blocking `std::sync` primitives on per-batch hot paths, and
//!   `IoTap` reinstallation at every engine spawn site
//!   (PL070–PL075); a deterministic bounded-preemption interleaving
//!   explorer ([`explore()`]) exhaustively schedules small models of
//!   the admission, plan-cache, guard-debit, and spill free-list
//!   protocols and certifies no budget overshoot, double-free, lost
//!   wakeup, or stale plan on any schedule (PL076).
//!
//! Every rule carries a stable `PL0xx` id ([`Rule::id`]), a short
//! name, and a prose explanation citing the paper section that
//! justifies it — see [`Rule::explanation`]. The `planlint` binary in
//! the workspace root renders [`Report`]s next to the plan under
//! analysis; the same checks back the optimizers' `debug_assert!`
//! hooks through [`sjos_core::check_status`].
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod conc;
pub mod cross;
pub mod dataflow;
pub mod diag;
pub mod exec_rules;
pub mod plan_rules;
pub mod status_rules;
pub mod trace;

pub use bounds::{
    admit, analyze_bounds, lint_bounds, revalidate_cached, CardInterval, OperatorBounds,
    ResourceBounds, DEFAULT_MEMORY_BUDGET,
};
pub use conc::{
    apply_static_mutation, collect_sources, explore, lint_concurrency, lint_sources, ExploreConfig,
    ExploreOutcome, Model, ModelCondvar, ModelMutex, StaticMutation, Violation,
};
pub use cross::{lint_optimizers, lint_search_space, min_pipelined_cost, MAX_CROSS_CHECK_NODES};
pub use dataflow::{
    analyze_plan, holistic_properties, lint_dataflow, DataflowAnalysis, OrderFact, PlanProperties,
};
pub use diag::{rule_catalog_json, Diagnostic, Report, Rule, Severity};
pub use exec_rules::{lint_batches, lint_error_surfacing, lint_replayed, replay, Replay};
pub use plan_rules::{lint_plan, lint_plan_with, PlanExpectations};
pub use status_rules::{lint_status, lint_status_key};
pub use trace::{certify_trace, corrupt_trace, record_search_trace, TraceCorruption};
