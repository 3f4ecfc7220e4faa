//! The replay harness and the executing rules (PL034, PL035, PL064,
//! PL067, PL068).
//!
//! The static rules prove a plan *claims* the right invariants; the
//! executing rules check that the engine *delivered* them. Running the
//! plan and checking the run are separate steps: [`replay`] is the one
//! place planck executes a plan, and every executing rule is a check
//! over one or two [`Replay`]s:
//!
//! * PL034, [`lint_replayed`] over [`lint_batches`]: every root batch is non-empty and
//!   internally sorted by the column [`PlanNode::ordered_by`] claims
//!   orders the output, the ordering is monotone *across* batches,
//!   root rows sum exactly to `output_tuples`, operators never report
//!   fewer `produced_tuples` than reach the root, and the engine ran
//!   exactly the plan's [`PlanNode::sort_count`] sorts;
//! * PL035, [`lint_error_surfacing`]: next to a healthy replay, a
//!   replay on a fault-armed copy of the store fails with a typed
//!   storage error;
//! * PL064/PL067, [`Replay::within`]: the run stayed inside the
//!   plan's static resource bounds and released its temp pages;
//! * PL068, [`Replay::matches`]: a run under one set of
//!   [`ExecOptions`] (typically partitioned across workers) reproduces
//!   a reference run under another bit for bit, and its cuts are
//!   valid against the stored binding lists.
//!
//! Interior operator boundaries are covered at runtime by the
//! executor's debug-only ordering checks; PL034 is the release-mode,
//! externally-observable half of the same contract.

use std::sync::Arc;

use sjos_exec::{
    execute, EngineError, ExecOptions, ExecOutcome, PlanNode, QueryGuard, QueryResult,
};
use sjos_pattern::Pattern;
use sjos_storage::{FaultPlan, RetryPolicy, StoreConfig, XmlStore};

use crate::bounds::ResourceBounds;
use crate::diag::{Report, Rule};

/// One execution of a plan, with the evidence the executing rules
/// check.
#[derive(Debug)]
pub struct Replay {
    /// What the engine returned: rows, merged metrics, cuts and
    /// per-morsel snapshots.
    pub outcome: ExecOutcome,
    /// Batch pulls the run's guard counted during the run.
    pub pulls: u64,
    /// Temp pages live in the store's spill segment before the run.
    pub pages_before: u64,
    /// Temp pages live in the store's spill segment after the run.
    pub pages_after: u64,
}

/// Execute `plan` against `store` under `opts` and keep the evidence.
/// The run uses `opts.guard` when set (pulls are counted from the call
/// on), else a fresh unlimited one.
///
/// # Errors
/// The engine's [`EngineError`]: an invalid plan, a storage fault, a
/// guard breach.
pub fn replay(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    opts: &ExecOptions,
) -> Result<Replay, EngineError> {
    let guard = opts.guard.clone().unwrap_or_else(|| Arc::new(QueryGuard::unlimited()));
    let pulled_before = guard.batches_pulled();
    let pages_before = store.spill().live_pages();
    let run = ExecOptions { guard: Some(Arc::clone(&guard)), ..opts.clone() };
    let outcome = execute(store, pattern, plan, &run)?;
    Ok(Replay {
        outcome,
        pulls: guard.batches_pulled() - pulled_before,
        pages_before,
        pages_after: store.spill().live_pages(),
    })
}

/// A copy of `store` whose every page read stays corrupt past the
/// retry budget.
fn fault_armed(store: &XmlStore) -> XmlStore {
    XmlStore::load_faulty(
        (**store.document()).clone(),
        StoreConfig { retry: RetryPolicy::no_backoff(2), ..StoreConfig::default() },
        FaultPlan { seed: 0x51_05, sticky_corrupt: 1.0, ..FaultPlan::none() },
    )
}

/// Check the engine's error discipline (rule PL035). `healthy` is a
/// replay of `plan` on `store` under the default options: it must have
/// succeeded, and a replay on a copy of `store` whose every page read
/// stays corrupt past the retry budget must report a typed storage
/// error rather than succeed silently or fail with something
/// unrelated. Plans that touch no storage at all (the healthy run
/// scans zero records) are skipped — there is nothing to corrupt.
pub fn lint_error_surfacing(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    healthy: &Result<Replay, EngineError>,
) -> Report {
    let mut report = Report::default();
    let message = match healthy {
        Err(e) => format!("baseline run failed on a healthy store: {e}"),
        Ok(run) if run.outcome.result.metrics.scanned_records == 0 => return report,
        Ok(_) => match replay(&fault_armed(store), pattern, plan, &ExecOptions::default()) {
            Err(EngineError::Storage(_)) => return report,
            Err(e) => format!("fault-armed run failed, but not with a storage error: {e}"),
            Ok(r) => format!(
                "fault-armed store produced {} rows with no error — the engine \
                 swallowed a storage fault",
                r.outcome.result.len()
            ),
        },
    };
    report.push(Rule::ErrorSurfaced, "root", message);
    report
}

impl Replay {
    /// Check the run against the static resource bounds (rule PL064,
    /// or PL067 under a spill policy): every morsel's observed peak
    /// buffering stays inside `bounds`, the batch pulls inside
    /// [`ResourceBounds::scaled`], and the output cardinality inside
    /// the root interval. A spill-mode run must also release every
    /// temp page it borrowed.
    ///
    /// `opts` are the options the replay ran under, and `bounds` must
    /// come from [`crate::analyze_bounds`] with the same options, or
    /// the comparison is meaningless.
    pub fn within(&self, bounds: &ResourceBounds, opts: &ExecOptions) -> Report {
        let (rule, peak_what, bound_what) = if opts.spill.is_some() {
            (Rule::SpillBoundSound, "observed resident peak", "spill-capped static bound")
        } else {
            (Rule::BoundSound, "observed peak", "static bound")
        };
        let mut report = Report::default();
        let mut fail = |message: String| report.push(rule, "root", message);
        let peak = self.outcome.morsel_snapshots.iter().map(|m| m.peak_bytes).max().unwrap_or(0);
        if peak > bounds.peak_bytes {
            fail(format!("{peak_what} {peak} B exceeds the {bound_what} {} B", bounds.peak_bytes));
        }
        let (_, pull_bound) = bounds.scaled(opts);
        if self.pulls > pull_bound {
            fail(format!(
                "observed {} batch pulls exceed the static bound {pull_bound}",
                self.pulls
            ));
        }
        let root = bounds.root_rows();
        let rows = self.outcome.result.metrics.output_tuples;
        if rows < root.lo || rows > root.hi {
            fail(format!(
                "{rows} output rows fall outside the root interval [{}, {}]",
                root.lo, root.hi
            ));
        }
        let (before, after) = (self.pages_before, self.pages_after);
        if opts.spill.is_some() && after > before {
            fail(format!(
                "run leaked {} temp pages ({before} live before, {after} after)",
                after - before
            ));
        }
        report
    }

    /// Check that this run reproduces `reference`, a run of the same
    /// `plan` under other options (rule PL068):
    ///
    /// * the cuts are strictly increasing and *valid* — no record of
    ///   any binding list the plan scans straddles one (verified by
    ///   re-scanning the lists in `store`, not by trusting the
    ///   partitioner; a failed re-scan is reported, not skipped);
    /// * the output is the reference's row *sequence* (order
    ///   included, not just the set);
    /// * the work counters — cardinalities, stack traffic, buffered
    ///   pairs, sorted tuples, scanned records, merge rescans — sum
    ///   over the morsels to exactly the reference's, and each sort
    ///   operator ran once per morsel.
    ///
    /// A run that found no valid cut passes the cut checks vacuously:
    /// one morsel *is* the serial execution.
    pub fn matches(
        &self,
        reference: &Replay,
        store: &XmlStore,
        pattern: &Pattern,
        plan: &PlanNode,
    ) -> Report {
        let (run, serial) = (&self.outcome, &reference.outcome);
        let mut report = Report::default();
        let mut fail = |location: &str, message: String| {
            report.push(Rule::PartitionSound, location, message);
        };
        if !run.cuts.windows(2).all(|w| w[0] < w[1]) {
            fail("partition", format!("cuts are not strictly increasing: {:?}", run.cuts));
        }
        if !run.cuts.is_empty() {
            lint_cuts(store, pattern, plan, &run.cuts, &mut fail);
        }
        if run.result.tuples != serial.result.tuples {
            fail(
                "root",
                format!(
                    "concatenated morsel outputs differ from the serial sequence \
                     ({} rows parallel vs {} serial)",
                    run.result.tuples.len(),
                    serial.result.tuples.len()
                ),
            );
        }
        let (s, p) = (&serial.result.metrics, &run.result.metrics);
        for ((name, serial_v), (_, parallel_v)) in
            s.exact_counters().into_iter().zip(p.exact_counters())
        {
            if serial_v != parallel_v {
                let morsels = run.morsel_count();
                fail(
                    "metrics",
                    format!(
                        "{name} does not sum exactly across {morsels} morsels: serial \
                         {serial_v}, parallel total {parallel_v}"
                    ),
                );
            }
        }
        // Sorts are structural: every morsel runs its own copy of each
        // sort operator.
        let per_morsel = s.sort_operations / serial.morsel_count() as u64;
        let expected_sorts = per_morsel * run.morsel_count() as u64;
        if p.sort_operations != expected_sorts {
            fail(
                "metrics",
                format!(
                    "sort_operations: expected {expected_sorts} ({per_morsel} per morsel × {}), \
                     got {}",
                    run.morsel_count(),
                    p.sort_operations
                ),
            );
        }
        report
    }
}

/// Re-scan every binding list `plan` reads and `fail` each one that
/// cannot be read back or in which a record straddles one of `cuts`
/// (PL068).
fn lint_cuts(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    cuts: &[u32],
    fail: &mut dyn FnMut(&str, String),
) {
    for pnode in plan.bound_nodes() {
        let pat_node = pattern.node(pnode);
        let location = format!("scan[{}]", pnode.index());
        if pat_node.is_wildcard() {
            let message = "a wildcard scan was partitioned — the document root straddles every cut";
            fail(&location, message.to_string());
            continue;
        }
        let Some(tag) = store.document().tag(&pat_node.tag) else { continue };
        let tag_name = &pat_node.tag;
        let found = store.scan_tag(tag).find_map(|rec| match rec {
            Err(e) => {
                Some(format!("re-scan of tag `{tag_name}` failed, so its cuts are unchecked: {e}"))
            }
            Ok(rec) => {
                let r = rec.region;
                let c = cuts.iter().find(|&&c| r.start < c && c <= r.end)?;
                Some(format!(
                    "record ({}, {}) of tag `{tag_name}` straddles cut {c} — its \
                     descendants land in a different morsel",
                    r.start, r.end
                ))
            }
        });
        if let Some(message) = found {
            fail(&location, message);
        }
    }
}

/// Lint the batch stream a replay of `plan` emitted (rule PL034): a
/// plan the engine refused is a PL034 finding too — an unexecutable
/// plan cannot honor the batch contract.
pub fn lint_replayed(run: &Result<Replay, EngineError>, plan: &PlanNode) -> Report {
    match run {
        Ok(run) => lint_batches(&run.outcome.result, plan),
        Err(e) => {
            let mut report = Report::default();
            report.push(Rule::BatchContract, "root", format!("plan failed validation: {e}"));
            report
        }
    }
}

/// Lint a replayed result's root batch stream against the plan that
/// produced it (rule PL034). In a debug build the executor's own
/// asserts stop an empty or unsorted root batch first, with a panic; a
/// release build reports those here. Tests doctor a result to check
/// each branch (the engine itself never emits a corrupted stream).
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
    use crate::bounds::analyze_bounds;
    use sjos_core::{optimize, Algorithm, CostModel};
    use sjos_exec::{Rows, SpillPolicy};
    use sjos_pattern::parse_pattern;
    use sjos_stats::{Catalog, PatternEstimates};
    use sjos_xml::Document;

    const XML: &str = "<a>\
        <b><c>x</c><c>y</c><e/></b>\
        <b><c>z</c><e/></b>\
        <d><e/><e/></d>\
    </a>";

    /// The store, pattern, estimates and DPP plan of `query` over `xml`.
    fn fixture(xml: &str, query: &str) -> (XmlStore, Pattern, PatternEstimates, PlanNode) {
        let doc = Document::parse(xml).unwrap();
        let pattern = parse_pattern(query).unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        let model = CostModel::default();
        let plan =
            optimize(&pattern, &est, &model, Algorithm::Dpp { lookahead: true }).unwrap().plan;
        (XmlStore::load(doc), pattern, est, plan)
    }

    fn setup(query: &str) -> (XmlStore, Pattern, PlanNode) {
        let (store, pattern, _, plan) = fixture(XML, query);
        (store, pattern, plan)
    }

    /// A corpus with many root-level subtrees, so cuts exist.
    fn partitionable() -> String {
        let mut xml = String::from("<a>");
        for i in 0..32 {
            xml.push_str(&format!("<b><c>x{i}</c><e/></b>"));
        }
        xml.push_str("</a>");
        xml
    }

    fn on_threads(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    /// Assert `report` holds exactly one diagnostic, under `rule`,
    /// whose message contains `needle`.
    fn fires(report: &Report, rule: Rule, needle: &str) {
        assert_eq!(report.rules(), [rule], "{report}");
        assert_eq!(report.diagnostics.len(), 1, "{report}");
        assert!(report.diagnostics[0].message.contains(needle), "{report}");
    }

    #[test]
    fn engine_output_is_clean_for_every_optimizer() {
        let (store, pattern, est, _) = fixture(XML, "//a/b/c");
        for alg in [
            Algorithm::Dp,
            Algorithm::Dpp { lookahead: true },
            Algorithm::DpapEb { te: 2 },
            Algorithm::DpapLd,
            Algorithm::Fp,
        ] {
            let plan = optimize(&pattern, &est, &CostModel::default(), alg).unwrap().plan;
            let run = replay(&store, &pattern, &plan, &ExecOptions::default());
            let report = lint_replayed(&run, &plan);
            assert!(report.is_clean(), "{}: {}", alg.name(), report.render());
        }
    }

    #[test]
    fn partition_lint_is_clean_across_thread_counts() {
        let (store, pattern, _, plan) = fixture(&partitionable(), "//b/c");
        let serial = replay(&store, &pattern, &plan, &ExecOptions::default()).unwrap();
        for threads in [1, 2, 4, 8] {
            let run = replay(&store, &pattern, &plan, &on_threads(threads)).unwrap();
            assert_eq!(run.outcome.cuts.is_empty(), threads == 1, "threads={threads}");
            let report = run.matches(&serial, &store, &pattern, &plan);
            assert!(report.is_clean(), "threads={threads}: {}", report.render());
        }
    }

    #[test]
    fn doctored_parallel_replays_fire_pl068() {
        let (store, pattern, _, plan) = fixture(&partitionable(), "//b/c");
        let serial = replay(&store, &pattern, &plan, &ExecOptions::default()).unwrap();
        let doctored = |doctor: &dyn Fn(&mut Replay)| {
            let mut run = replay(&store, &pattern, &plan, &on_threads(4)).unwrap();
            assert!(run.outcome.morsel_count() > 1, "fixture must split");
            doctor(&mut run);
            run.matches(&serial, &store, &pattern, &plan)
        };
        assert!(doctored(&|_| {}).is_clean());

        // Reordered rows: the morsels' batches concatenated backwards.
        let report = doctored(&|run| {
            let mut batches = std::mem::take(&mut run.outcome.result.tuples).into_batches();
            batches.reverse();
            run.outcome.result.tuples = Rows::from_batches(batches);
        });
        fires(&report, Rule::PartitionSound, "differ from the serial sequence");

        // One exact counter off by one.
        let report = doctored(&|run| run.outcome.result.metrics.stack_pushes += 1);
        fires(&report, Rule::PartitionSound, "stack_pushes does not sum exactly");

        // A sort count that is not one per morsel.
        let report = doctored(&|run| run.outcome.result.metrics.sort_operations += 1);
        fires(&report, Rule::PartitionSound, "sort_operations: expected");

        // A cut inside the first stored `b` record.
        let tag = store.document().tag("b").unwrap();
        let first = store.scan_tag(tag).next().unwrap().unwrap().region;
        assert!(first.start < first.end);
        let report = doctored(&|run| run.outcome.cuts = vec![first.end]);
        fires(&report, Rule::PartitionSound, "straddles cut");
    }

    #[test]
    fn failed_cut_rescan_is_reported_under_pl068() {
        let (store, pattern, _, plan) = fixture(&partitionable(), "//b/c");
        let serial = replay(&store, &pattern, &plan, &ExecOptions::default()).unwrap();
        let run = replay(&store, &pattern, &plan, &on_threads(4)).unwrap();
        assert!(!run.outcome.cuts.is_empty(), "fixture must split");
        let report = run.matches(&serial, &fault_armed(&store), &pattern, &plan);
        assert_eq!(report.rules(), [Rule::PartitionSound], "{report}");
        assert!(
            report.diagnostics.iter().all(|d| d.message.contains("re-scan of tag")),
            "{report}"
        );
    }

    #[test]
    fn doctored_replays_fire_pl064_and_pl067() {
        let (store, pattern, est, plan) = fixture(XML, "//a/b/c");
        let model = CostModel::default();
        let doctored = |opts: &ExecOptions, doctor: &dyn Fn(&mut Replay, &ResourceBounds)| {
            let bounds = analyze_bounds(&pattern, &est, &model, &plan, opts);
            let mut run = replay(&store, &pattern, &plan, opts).unwrap();
            doctor(&mut run, &bounds);
            run.within(&bounds, opts)
        };
        let serial = ExecOptions::default();
        assert!(doctored(&serial, &|_, _| {}).is_clean());

        let report = doctored(&serial, &|run, b| {
            run.outcome.morsel_snapshots[0].peak_bytes = b.peak_bytes + 1;
        });
        fires(&report, Rule::BoundSound, "exceeds the static bound");
        let report = doctored(&serial, &|run, b| run.pulls = b.batch_pulls + 1);
        fires(&report, Rule::BoundSound, "batch pulls exceed");
        let report = doctored(&serial, &|run, b| {
            run.outcome.result.metrics.output_tuples = b.root_rows().hi + 1;
        });
        fires(&report, Rule::BoundSound, "outside the root interval");

        // A leaked temp page counts only under a spill policy.
        let leak = |run: &mut Replay, _: &ResourceBounds| run.pages_after = run.pages_before + 1;
        assert!(doctored(&serial, &leak).is_clean());
        let spill = ExecOptions { spill: Some(SpillPolicy::with_threshold(0)), ..serial };
        assert!(doctored(&spill, &|_, _| {}).is_clean());
        fires(&doctored(&spill, &leak), Rule::SpillBoundSound, "leaked 1 temp pages");
    }

    #[test]
    fn error_surfacing_is_clean_for_the_real_engine() {
        let (store, pattern, plan) = setup("//a/b/c");
        let healthy = replay(&store, &pattern, &plan, &ExecOptions::default());
        let report = lint_error_surfacing(&store, &pattern, &plan, &healthy);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn error_surfacing_skips_planless_storage() {
        // A pattern whose tag never occurs scans nothing, so there is
        // no fault to surface and the lint must not fire.
        let (store, _, _) = setup("//a/b/c");
        let pattern = parse_pattern("//zzz").unwrap();
        let plan = PlanNode::IndexScan { pnode: sjos_pattern::PnId(0) };
        let healthy = replay(&store, &pattern, &plan, &ExecOptions::default());
        let report = lint_error_surfacing(&store, &pattern, &plan, &healthy);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn invalid_plan_is_reported_not_panicked() {
        let (store, pattern, _) = setup("//a/b/c");
        let bogus = PlanNode::IndexScan { pnode: sjos_pattern::PnId(0) };
        let failed = replay(&store, &pattern, &bogus, &ExecOptions::default());
        assert!(matches!(failed, Err(EngineError::InvalidPlan(_))), "{failed:?}");
        fires(&lint_replayed(&failed, &bogus), Rule::BatchContract, "plan failed validation");
        let report = lint_error_surfacing(&store, &pattern, &bogus, &failed);
        fires(&report, Rule::ErrorSurfaced, "baseline run failed");
    }

    #[test]
    fn corrupted_stream_fires_each_check() {
        let (store, pattern, plan) = setup("//a/b/c");
        let run =
            || replay(&store, &pattern, &plan, &ExecOptions::default()).unwrap().outcome.result;
        let clean = run();
        assert!(lint_batches(&clean, &plan).is_clean());
        assert!(!clean.tuples.is_empty(), "fixture query must match");

        // Unsorted within a batch: reverse the rows of the first batch.
        let mut unsorted = run();
        let mut batches = std::mem::take(&mut unsorted.tuples).into_batches();
        batches[0] = batches[0].gather((0..batches[0].len()).rev());
        unsorted.tuples = Rows::from_batches(batches);
        let report = lint_batches(&unsorted, &plan);
        assert!(report.violates(Rule::BatchContract), "{}", report.render());

        // Row counts out of step with output_tuples.
        let mut short = run();
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
        let mut doubled = run();
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
