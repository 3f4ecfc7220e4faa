//! Executed-plan checks (PL034, PL035, PL068): the lints that run a
//! plan.
//!
//! The static rules (PL001–PL013) prove a plan *claims* the right
//! invariants; this module executes it through the vectorized engine
//! and verifies the engine *delivered* them at the root boundary:
//!
//! * every root batch is non-empty and internally sorted by the
//!   column [`PlanNode::ordered_by`] claims orders the output;
//! * the ordering is monotone *across* batches — batching must be
//!   invisible to a consumer;
//! * root batch rows sum exactly to `output_tuples`, operators never
//!   report fewer `produced_tuples` than reach the root, and the
//!   engine ran exactly the plan's [`PlanNode::sort_count`] sorts.
//!
//! Interior operator boundaries are covered at runtime by the
//! executor's debug-only ordering checks; this lint is the
//! release-mode, externally-observable half of the same contract.
//!
//! [`lint_partition`] (PL068) extends the contract to morsel-driven
//! parallel runs: it executes the plan serially and partitioned,
//! re-scans every binding list to prove no record straddles a chosen
//! cut, and demands the concatenated morsel outputs and the summed
//! per-morsel work counters match the serial run bit for bit.

use sjos_exec::{execute, EngineError, ExecOptions, PlanNode, QueryResult};
use sjos_pattern::Pattern;
use sjos_storage::{FaultPlan, RetryPolicy, StoreConfig, XmlStore};

use crate::diag::{Report, Rule};

/// Execute `plan` against `store` and lint the emitted batch stream
/// (rule PL034). Plans that fail the executor's validation are
/// reported under PL034 too — an unexecutable plan cannot honor the
/// batch contract. In a debug build the executor's own asserts stop an
/// empty or unsorted root batch first, with a panic; a release build
/// reports those as PL034 diagnostics.
pub fn lint_execution(store: &XmlStore, pattern: &Pattern, plan: &PlanNode) -> Report {
    match execute(store, pattern, plan, &ExecOptions::default()) {
        Ok(outcome) => lint_batches(&outcome.result, plan),
        Err(e) => {
            let mut report = Report::default();
            report.push(Rule::BatchContract, "root", format!("plan failed validation: {e}"));
            report
        }
    }
}

/// Execute `plan` twice — once against `store`, once against a copy
/// whose every page read stays corrupt past the retry budget — and
/// check the engine's error discipline (rule PL035): the clean run
/// must succeed, and the fault-armed run must report a typed storage
/// error rather than succeeding silently or failing with something
/// unrelated. Plans that touch no storage at all (the clean run scans
/// zero records) are skipped — there is nothing to corrupt.
pub fn lint_error_surfacing(store: &XmlStore, pattern: &Pattern, plan: &PlanNode) -> Report {
    let mut report = Report::default();
    let clean = match execute(store, pattern, plan, &ExecOptions::default()) {
        Ok(o) => o.result,
        Err(e) => {
            report.push(
                Rule::ErrorSurfaced,
                "root",
                format!("baseline run failed on a healthy store: {e}"),
            );
            return report;
        }
    };
    if clean.metrics.scanned_records == 0 {
        return report;
    }
    let faulty = XmlStore::load_faulty(
        (**store.document()).clone(),
        StoreConfig { retry: RetryPolicy::no_backoff(2), ..StoreConfig::default() },
        FaultPlan { seed: 0x51_05, sticky_corrupt: 1.0, ..FaultPlan::none() },
    );
    match execute(&faulty, pattern, plan, &ExecOptions::default()) {
        Err(EngineError::Storage(_)) => {}
        Err(e) => report.push(
            Rule::ErrorSurfaced,
            "root",
            format!("fault-armed run failed, but not with a storage error: {e}"),
        ),
        Ok(r) => report.push(
            Rule::ErrorSurfaced,
            "root",
            format!(
                "fault-armed store produced {} rows with no error — the engine \
                 swallowed a storage fault",
                r.result.len()
            ),
        ),
    }
    report
}

/// Execute `plan` serially and as a `threads`-way morsel-partitioned
/// parallel run, and check the partition contract (rule PL068):
///
/// * the partitioner's cuts are strictly increasing and *valid* — no
///   record of any scanned binding list straddles one (verified by
///   re-scanning the lists, not by trusting the partitioner);
/// * the concatenated morsel outputs equal the serial output
///   *sequence* (order included, not just the set);
/// * the per-morsel work counters — cardinalities, stack traffic,
///   buffered pairs, sorted tuples, scanned records, merge rescans —
///   sum bit-identically to the single-threaded run, and each sort
///   operator ran exactly once per morsel.
///
/// Serial-fallback runs (no valid cut) pass vacuously: one morsel
/// *is* the serial execution.
pub fn lint_partition(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    threads: usize,
) -> Report {
    let mut report = Report::default();
    let serial = match execute(store, pattern, plan, &ExecOptions::default()) {
        Ok(o) => o.result,
        Err(e) => {
            report.push(Rule::PartitionSound, "root", format!("serial baseline failed: {e}"));
            return report;
        }
    };
    let par =
        match execute(store, pattern, plan, &ExecOptions { threads, ..ExecOptions::default() }) {
            Ok(p) => p,
            Err(e) => {
                report.push(
                    Rule::PartitionSound,
                    "root",
                    format!("parallel run failed where the serial run succeeded: {e}"),
                );
                return report;
            }
        };

    if !par.cuts.windows(2).all(|w| w[0] < w[1]) {
        report.push(
            Rule::PartitionSound,
            "partition",
            format!("cuts are not strictly increasing: {:?}", par.cuts),
        );
    }
    // Validity, from the ground truth: re-scan every binding list the
    // plan reads and look for an interval straddling a cut.
    if !par.cuts.is_empty() {
        for pnode in plan.bound_nodes() {
            let pat_node = pattern.node(pnode);
            if pat_node.is_wildcard() {
                report.push(
                    Rule::PartitionSound,
                    format!("scan[{}]", pnode.index()),
                    "a wildcard scan was partitioned — the document root straddles every cut",
                );
                continue;
            }
            let Some(tag) = store.document().tag(&pat_node.tag) else { continue };
            for rec in store.scan_tag(tag) {
                let Ok(rec) = rec else { break };
                let r = rec.region;
                if let Some(&c) = par.cuts.iter().find(|&&c| r.start < c && c <= r.end) {
                    report.push(
                        Rule::PartitionSound,
                        format!("scan[{}]", pnode.index()),
                        format!(
                            "record ({}, {}) of tag `{}` straddles cut {c} — its \
                             descendants land in a different morsel",
                            r.start, r.end, pat_node.tag
                        ),
                    );
                    break;
                }
            }
        }
    }

    if par.result.tuples != serial.tuples {
        report.push(
            Rule::PartitionSound,
            "root",
            format!(
                "concatenated morsel outputs differ from the serial sequence \
                 ({} rows parallel vs {} serial)",
                par.result.tuples.len(),
                serial.tuples.len()
            ),
        );
    }
    let s = &serial.metrics;
    let p = &par.result.metrics;
    for ((name, serial_v), (_, parallel_v)) in
        s.exact_counters().into_iter().zip(p.exact_counters())
    {
        if serial_v != parallel_v {
            report.push(
                Rule::PartitionSound,
                "metrics",
                format!(
                    "{name} does not sum exactly across {} morsels: serial {serial_v}, \
                     parallel total {parallel_v}",
                    par.morsel_count()
                ),
            );
        }
    }
    // Sorts are structural: every morsel runs its own copy of each
    // sort operator.
    let expected_sorts = s.sort_operations * par.morsel_count() as u64;
    if p.sort_operations != expected_sorts {
        report.push(
            Rule::PartitionSound,
            "metrics",
            format!(
                "sort_operations: expected {expected_sorts} ({} per morsel × {}), got {}",
                s.sort_operations,
                par.morsel_count(),
                p.sort_operations
            ),
        );
    }
    report
}

/// Lint an already-executed result's root batch stream against the
/// plan that produced it. Split out from [`lint_execution`] so
/// corrupted streams can be checked directly (the engine itself never
/// emits one).
pub fn lint_batches(result: &QueryResult, plan: &PlanNode) -> Report {
    let mut report = Report::default();
    let ordering = plan.ordered_by();
    let Some(col) = result.schema.position(ordering) else {
        report.push(
            Rule::BatchContract,
            "root",
            format!("output schema does not bind the claimed ordering node {ordering:?}"),
        );
        return report;
    };

    // A wide column orders by `(start, end)`, a narrow one by node id
    // (the same order: elements are numbered in document order).
    let mut rows: u64 = 0;
    let mut prev_last: Option<u64> = None;
    for (i, batch) in result.tuples.batches().iter().enumerate() {
        if batch.is_empty() {
            report.push(
                Rule::BatchContract,
                format!("root.batch[{i}]"),
                "empty batch emitted (end-of-stream must be None, not an empty batch)",
            );
            continue;
        }
        if !batch.is_sorted_by(col) {
            report.push(
                Rule::BatchContract,
                format!("root.batch[{i}]"),
                format!("batch not sorted by claimed ordering column {col} ({ordering:?})"),
            );
        }
        let first = batch.order_key(col, 0);
        if let Some(last) = prev_last {
            if first < last {
                report.push(
                    Rule::BatchContract,
                    format!("root.batch[{i}]"),
                    format!(
                        "ordering regresses across batches: starts at order key {first:#x} \
                         after previous batch ended at {last:#x}"
                    ),
                );
            }
        }
        prev_last = Some(batch.order_key(col, batch.len() - 1));
        rows += batch.len() as u64;
    }

    let m = &result.metrics;
    if rows != m.output_tuples {
        report.push(
            Rule::BatchContract,
            "root",
            format!("root batches hold {rows} rows but output_tuples reports {}", m.output_tuples),
        );
    }
    if m.produced_tuples < m.output_tuples {
        report.push(
            Rule::BatchContract,
            "root",
            format!(
                "produced_tuples {} below output_tuples {} — an operator under-counted",
                m.produced_tuples, m.output_tuples
            ),
        );
    }
    let expected_sorts = plan.sort_count() as u64;
    if m.sort_operations != expected_sorts {
        report.push(
            Rule::BatchContract,
            "root",
            format!(
                "plan contains {expected_sorts} sort operators but the engine recorded {}",
                m.sort_operations
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjos_core::{optimize, Algorithm, CostModel};
    use sjos_exec::Rows;
    use sjos_pattern::parse_pattern;
    use sjos_stats::{Catalog, PatternEstimates};
    use sjos_xml::Document;

    const XML: &str = "<a>\
        <b><c>x</c><c>y</c><e/></b>\
        <b><c>z</c><e/></b>\
        <d><e/><e/></d>\
    </a>";

    fn setup(query: &str) -> (XmlStore, Pattern, PlanNode) {
        let doc = Document::parse(XML).unwrap();
        let pattern = parse_pattern(query).unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        let model = CostModel::default();
        let plan =
            optimize(&pattern, &est, &model, Algorithm::Dpp { lookahead: true }).unwrap().plan;
        (XmlStore::load(doc), pattern, plan)
    }

    #[test]
    fn engine_output_is_clean_for_every_optimizer() {
        let doc = Document::parse(XML).unwrap();
        let pattern = parse_pattern("//a/b/c").unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        let model = CostModel::default();
        let store = XmlStore::load(doc);
        for alg in [
            Algorithm::Dp,
            Algorithm::Dpp { lookahead: true },
            Algorithm::DpapEb { te: 2 },
            Algorithm::DpapLd,
            Algorithm::Fp,
        ] {
            let plan = optimize(&pattern, &est, &model, alg).unwrap().plan;
            let report = lint_execution(&store, &pattern, &plan);
            assert!(report.is_clean(), "{}: {}", alg.name(), report.render());
        }
    }

    #[test]
    fn partition_lint_is_clean_across_thread_counts() {
        // A corpus with many root-level subtrees so cuts exist.
        let mut xml = String::from("<a>");
        for i in 0..32 {
            xml.push_str(&format!("<b><c>x{i}</c><e/></b>"));
        }
        xml.push_str("</a>");
        let doc = Document::parse(&xml).unwrap();
        let pattern = parse_pattern("//b/c").unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        let plan =
            optimize(&pattern, &est, &CostModel::default(), Algorithm::Dpp { lookahead: true })
                .unwrap()
                .plan;
        let store = XmlStore::load(doc);
        for threads in [1, 2, 4, 8] {
            let report = lint_partition(&store, &pattern, &plan, threads);
            assert!(report.is_clean(), "threads={threads}: {}", report.render());
        }
    }

    #[test]
    fn partition_lint_fires_on_a_broken_parallel_story() {
        // An invalid plan makes both runs fail; the lint must report
        // under PL068, not panic.
        let (store, pattern, _) = setup("//a/b/c");
        let bogus = PlanNode::IndexScan { pnode: sjos_pattern::PnId(0) };
        let report = lint_partition(&store, &pattern, &bogus, 4);
        assert!(report.violates(Rule::PartitionSound), "{}", report.render());
    }

    #[test]
    fn error_surfacing_is_clean_for_the_real_engine() {
        let (store, pattern, plan) = setup("//a/b/c");
        let report = lint_error_surfacing(&store, &pattern, &plan);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn error_surfacing_skips_planless_storage() {
        // A pattern whose tag never occurs scans nothing, so there is
        // no fault to surface and the lint must not fire.
        let (store, _, _) = setup("//a/b/c");
        let pattern = parse_pattern("//zzz").unwrap();
        let plan = PlanNode::IndexScan { pnode: sjos_pattern::PnId(0) };
        let report = lint_error_surfacing(&store, &pattern, &plan);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn invalid_plan_is_reported_not_panicked() {
        let (store, pattern, _) = setup("//a/b/c");
        let bogus = PlanNode::IndexScan { pnode: sjos_pattern::PnId(0) };
        let report = lint_execution(&store, &pattern, &bogus);
        assert!(report.violates(Rule::BatchContract), "{}", report.render());
    }

    #[test]
    fn corrupted_stream_fires_each_check() {
        let (store, pattern, plan) = setup("//a/b/c");
        let clean = execute(&store, &pattern, &plan, &ExecOptions::default()).unwrap().result;
        assert!(lint_batches(&clean, &plan).is_clean());
        assert!(!clean.tuples.is_empty(), "fixture query must match");

        // Unsorted within a batch: reverse the rows of the first batch.
        let mut unsorted =
            execute(&store, &pattern, &plan, &ExecOptions::default()).unwrap().result;
        let mut batches = std::mem::take(&mut unsorted.tuples).into_batches();
        batches[0] = batches[0].gather((0..batches[0].len()).rev());
        unsorted.tuples = Rows::from_batches(batches);
        let report = lint_batches(&unsorted, &plan);
        assert!(report.violates(Rule::BatchContract), "{}", report.render());

        // Row counts out of step with output_tuples.
        let mut short = execute(&store, &pattern, &plan, &ExecOptions::default()).unwrap().result;
        let mut batches = std::mem::take(&mut short.tuples).into_batches();
        batches.pop();
        short.tuples = Rows::from_batches(batches);
        let report = lint_batches(&short, &plan);
        assert!(
            report.diagnostics.iter().any(|d| d.message.contains("output_tuples")),
            "{}",
            report.render()
        );

        // Ordering regressing across batches: duplicate the stream.
        let mut doubled = execute(&store, &pattern, &plan, &ExecOptions::default()).unwrap().result;
        let copy = doubled.tuples.clone();
        doubled.tuples.append(copy);
        let report = lint_batches(&doubled, &plan);
        assert!(
            report.diagnostics.iter().any(|d| d.message.contains("regresses")),
            "{}",
            report.render()
        );
    }
}
