//! Resource-bound abstract interpretation over physical plans
//! (PL060–PL067).
//!
//! A bottom-up dataflow pass propagates *guaranteed* cardinality
//! intervals per operator — derived from the catalog's exact index
//! list lengths and per-tag depth statistics, **not** from the cost
//! model's point estimates — and from them worst-case peak buffering
//! bytes and a worst-case guarded batch-pull count for the whole
//! plan. The bounds are sound: no execution of the plan on the
//! cataloged document can exceed them (PL064 replays executions to
//! check exactly that), so comparing them against a [`QueryGuard`]'s
//! budgets *before* running anything yields a static admission
//! decision (PL062/PL063) instead of a mid-flight `GuardBreach`.
//!
//! Every entry point takes the [`ExecOptions`] the plan will run
//! under, so a certificate and its execution are built from the same
//! value. A second, *degraded* admission tier covers plans the
//! in-memory bound rejects: with a [`SpillPolicy`] in the options,
//! [`analyze_bounds`] caps every sort at the policy's resident
//! footprint (the rest of the input lives in temp pages), [`admit`]
//! compares that resident bound against the same budgets (PL066), and
//! [`Replay::within`] checks spill-mode replays to certify the cap is a
//! real upper bound (PL067). With more than one worker,
//! [`ResourceBounds::scaled`] multiplies the bounds by the worker
//! count before either comparison.
//!
//! [`SpillPolicy`]: sjos_exec::SpillPolicy
//! [`Replay::within`]: crate::Replay::within
//!
//! ## The interval lattice
//!
//! Each sub-plan is summarized by
//!
//! * `rows = [lo, hi]` — guaranteed bounds on its output cardinality
//!   (saturating `u64` arithmetic; `lo ≤ hi` always, PL060);
//! * per bound column, `mult_hi` — an upper bound on how many output
//!   tuples can share one value of that column.
//!
//! Scans are exact: `hi` is the index list length and `mult_hi = 1`
//! (an element occurs once in its tag list); a value predicate drops
//! `lo` to 0. For a structural join `L ⋈ R` on edge `a → d`, the key
//! inequality is *structural*: any two distinct ancestors of one
//! element sit at distinct tree levels, so one descendant binding has
//! at most `depth_levels(a)` ancestors tagged `a` (1 for `/`), and at
//! most `mult_hi(L, a)` left tuples carry each of them:
//!
//! ```text
//! anc_matches ≤ depth_levels(a) · mult_hi(L, a)     (// axis)
//! rows(J) ≤ min(rows(L) · rows(R), rows(R) · anc_matches)
//! ```
//!
//! This keeps bounds near-linear on flat corpora (`depth_levels = 1`)
//! instead of the astronomically useless `Π |tag|` product.
//!
//! ## From intervals to bytes and pulls
//!
//! Per operator, worst-case live buffering follows the executor's
//! accounting exactly: a sort holds its whole input, Stack-Tree holds
//! a stack of nested left tuples (bounded by the same depth-levels
//! argument) plus — for the Anc variant — every not-yet-emitted
//! output pair, MPMGJN holds the buffered descendant window (which
//! never shrinks). In-flight [`TupleBatch`]es add a per-operator
//! `batch_rows`-proportional term. Every row is priced at its
//! operator's column layout — 16 B per wide entry, 4 B per narrow one —
//! from the same [`ExecOptions::wide_columns`] the executor lays its
//! columns out by, so a certificate shrinks exactly as much as the
//! accounting does. Batch pulls: every operator
//! boundary is a [`GuardedOp`], mid-stream batches carry at least
//! `batch_rows` rows, and end-of-stream is observed at most once per
//! boundary, so each operator is pulled at most
//! `rows_hi / batch_rows + 2` times.
//!
//! [`GuardedOp`]: sjos_exec::GuardedOp
//! [`TupleBatch`]: sjos_exec::TupleBatch
#![warn(clippy::cast_possible_truncation)]

use std::collections::HashMap;

use sjos_core::CostModel;
use sjos_exec::tuple::row_bytes;
use sjos_exec::{ExecOptions, JoinAlgo, PlanNode, QueryGuard};
use sjos_pattern::{Axis, NodeSet, Pattern, PnId};
use sjos_stats::PatternEstimates;
use sjos_storage::PAGE_SIZE;

use crate::diag::{Report, Rule};

/// Default admission memory budget: comfortably above every paper
/// workload's worst-case bound at production batch size (the largest
/// Table-1 plan bounds in the tens of MiB on the generated corpora)
/// while still small enough to reject a genuinely explosive plan on a
/// multi-query server.
pub const DEFAULT_MEMORY_BUDGET: u64 = 256 * 1024 * 1024;

/// A guaranteed `[lo, hi]` cardinality interval (saturating `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardInterval {
    /// Guaranteed minimum output rows.
    pub lo: u64,
    /// Guaranteed maximum output rows.
    pub hi: u64,
}

impl CardInterval {
    /// Does the interval contain `point` (within floating tolerance)?
    pub fn contains(&self, point: f64) -> bool {
        if !point.is_finite() {
            return false;
        }
        let lo = self.lo as f64;
        let hi = self.hi as f64;
        point >= lo - lo.abs() * 1e-9 - 1e-9 && point <= hi + hi.abs() * 1e-6 + 1e-6
    }
}

/// Static resource bounds for one operator of the plan.
#[derive(Debug, Clone)]
pub struct OperatorBounds {
    /// Plan-tree path (`root`, `root.left`, `root.in`, …).
    pub location: String,
    /// Short operator description (`Scan n#0`, `STJ-A`, `Sort`, …).
    pub label: String,
    /// Guaranteed output-cardinality interval.
    pub rows: CardInterval,
    /// The estimator's ceiling: the product of the sub-plan's node
    /// index-list lengths. The histogram estimate is a product of
    /// per-node cardinalities (each at most the list length) and
    /// `[0, 1]` edge selectivities, so it can never exceed this —
    /// while it *can* exceed `rows.hi`, whose structural depth-levels
    /// tightening the estimator does not see. PL061 checks the
    /// estimate against `[rows.lo, est_hi]`.
    pub est_hi: u64,
    /// The cost model's point estimate for the same operator.
    pub point_estimate: f64,
    /// Bytes of one output row in the operator's column layout.
    pub row_bytes: u64,
    /// Worst-case bytes this operator keeps live in long-lived
    /// buffers (sort buffer, join stack, pair lists, merge window).
    pub buffer_bytes: u64,
    /// Worst-case bytes of in-flight batches this operator holds (its
    /// output batch under construction plus one cached batch per
    /// input).
    pub batch_bytes: u64,
    /// Worst-case guarded pulls of this operator boundary.
    pub pulls: u64,
}

/// Whole-plan resource bounds — what admission control compares
/// against a [`QueryGuard`]'s budgets.
#[derive(Debug, Clone)]
pub struct ResourceBounds {
    /// Per-operator bounds, pre-order (root first).
    pub operators: Vec<OperatorBounds>,
    /// Worst-case peak live bytes across the whole plan (sum of every
    /// operator's buffer and batch terms — all buffers can be live at
    /// once in the worst case).
    pub peak_bytes: u64,
    /// Worst-case total guarded batch pulls.
    pub batch_pulls: u64,
    /// The batch granularity the bounds were derived for.
    pub batch_rows: usize,
}

impl ResourceBounds {
    /// Worst-case aggregate `(peak bytes, batch pulls)` of a run under
    /// `opts`: these bounds times [`ExecOptions::workers`].
    ///
    /// Sound because each morsel is the same plan over a *subset* of
    /// every binding list, and the per-operator bounds are monotone in
    /// their input cardinalities: one morsel's resident peak never
    /// exceeds the serial bound, and at most `workers` morsels are
    /// resident at once. The batch bound scales the same way: the
    /// aggregate pull count of a partitioned run can exceed the serial
    /// worst case (each morsel rounds its final partial batches up),
    /// but never `workers ×` it, since every worker's own pull
    /// sequence is bounded by its morsel's (≤ serial) worst case.
    /// Conservative by design: a plan admitted serially may be
    /// rejected at high parallelism; the service then falls back to
    /// the serial path rather than risking an unsound admission.
    pub fn scaled(&self, opts: &ExecOptions) -> (u64, u64) {
        let workers = opts.workers() as u64;
        (self.peak_bytes.saturating_mul(workers), self.batch_pulls.saturating_mul(workers))
    }

    /// The root operator's output-cardinality interval.
    pub fn root_rows(&self) -> CardInterval {
        self.operators.first().map_or(CardInterval { lo: 0, hi: 0 }, |o| o.rows)
    }

    /// Render the bounds as a JSON object (embeddable in `planlint`
    /// output).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"batch_rows\":{},\"peak_bytes\":{},\"batch_pulls\":{},\"operators\":[",
            self.batch_rows, self.peak_bytes, self.batch_pulls
        );
        for (i, op) in self.operators.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"location\":\"{}\",\"op\":\"{}\",\"rows_lo\":{},\"rows_hi\":{},\
                 \"est_hi\":{},\"point_estimate\":{:.1},\"row_bytes\":{},\"buffer_bytes\":{},\
                 \"batch_bytes\":{},\"pulls\":{}}}",
                op.location,
                op.label,
                op.rows.lo,
                op.rows.hi,
                op.est_hi,
                op.point_estimate,
                op.row_bytes,
                op.buffer_bytes,
                op.batch_bytes,
                op.pulls
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Interval + per-column multiplicity summary of one sub-plan.
struct SubBounds {
    rows: CardInterval,
    /// Product of node index-list lengths — the estimator's ceiling.
    est_hi: u64,
    /// Upper bound on tuples sharing one value of each bound column.
    mult_hi: HashMap<PnId, u64>,
    width: usize,
    /// Bytes of one output row in this sub-plan's column layout.
    row_bytes: u64,
}

/// Derive guaranteed resource bounds for `plan` run under `opts`: at
/// its `batch_rows` granularity and, when it carries a spill policy,
/// with every sort's buffer term capped at the policy's *resident*
/// bound — flush threshold plus one output batch plus the merge
/// fan-in's decoded cursor buffers plus one run page — because an
/// external sort parks everything past the threshold in temp pages.
/// All other operators are unchanged (only sorts spill), so under a
/// spill policy `peak_bytes` is the worst-case resident footprint a
/// degraded admission decision (PL066) compares against the budget.
/// The bounds are per morsel; [`ResourceBounds::scaled`] gives the
/// aggregate over `opts`' workers.
pub fn analyze_bounds(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    plan: &PlanNode,
    opts: &ExecOptions,
) -> ResourceBounds {
    let mut operators = Vec::new();
    let wide = opts.wide_columns(plan);
    walk(pattern, estimates, model, plan, "root", opts, &wide, &mut operators);
    let peak_bytes = operators
        .iter()
        .fold(0u64, |acc, o| acc.saturating_add(o.buffer_bytes).saturating_add(o.batch_bytes));
    let batch_pulls = operators.iter().fold(0u64, |acc, o| acc.saturating_add(o.pulls));
    ResourceBounds { operators, peak_bytes, batch_pulls, batch_rows: opts.batch_rows.max(1) }
}

/// `wide` holds every operator's wide columns in pre-order, indexed by
/// the operator's slot in `out`.
#[allow(clippy::too_many_arguments)]
fn walk(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    plan: &PlanNode,
    path: &str,
    opts: &ExecOptions,
    wide: &[NodeSet],
    out: &mut Vec<OperatorBounds>,
) -> SubBounds {
    let batch_rows = opts.batch_rows.max(1) as u64;
    // Reserve this operator's pre-order slot before recursing.
    let slot = out.len();
    // Bytes of one output row of `width` columns in this operator's
    // layout (its wide columns are among the ones it binds).
    let out_row_bytes = |width: usize| row_bytes(width, wide[slot].len()) as u64;
    out.push(OperatorBounds {
        location: path.to_string(),
        label: String::new(),
        rows: CardInterval { lo: 0, hi: 0 },
        est_hi: 0,
        point_estimate: 0.0,
        row_bytes: 0,
        buffer_bytes: 0,
        batch_bytes: 0,
        pulls: 0,
    });
    let (point_estimate, _) = {
        let (_, card) = model.plan_cost(plan, pattern, estimates);
        (card, ())
    };
    let (label, sub, buffer_bytes, extra_out_rows, child_row_bytes) = match plan {
        PlanNode::IndexScan { pnode } => {
            let (lo, hi) = estimates.node_bounds(*pnode);
            let sub = SubBounds {
                rows: CardInterval { lo, hi },
                est_hi: hi,
                mult_hi: HashMap::from([(*pnode, 1u64)]),
                width: 1,
                row_bytes: out_row_bytes(1),
            };
            (format!("Scan {}#{}", pattern.node(*pnode).tag, pnode.0), sub, 0u64, 0u64, vec![])
        }
        PlanNode::Sort { input, by } => {
            let inner =
                walk(pattern, estimates, model, input, &format!("{path}.in"), opts, wide, out);
            // The sort materializes its whole input — unless it may
            // spill, in which case at most the policy's resident
            // bound stays in memory at once and the rest lives in
            // temp pages. A spilling sort never holds more than its
            // input's bytes plus the run writer's page (its merge
            // cursors hold at most the rows of their runs), so a small
            // input keeps that tighter bound.
            let full = inner.rows.hi.saturating_mul(inner.row_bytes);
            let buffer = match opts.spill {
                Some(policy) => full.saturating_add(PAGE_SIZE as u64).min(policy.resident_bound(
                    inner.width,
                    usize::try_from(inner.row_bytes).expect("a row's bytes fit usize"),
                    opts.batch_rows.max(1),
                ) as u64),
                None => full,
            };
            let input_bytes = inner.row_bytes;
            let sub = SubBounds {
                rows: inner.rows,
                est_hi: inner.est_hi,
                mult_hi: inner.mult_hi,
                width: inner.width,
                row_bytes: out_row_bytes(inner.width),
            };
            (format!("Sort by #{}", by.0), sub, buffer, 0u64, vec![input_bytes])
        }
        PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
            let l = walk(pattern, estimates, model, left, &format!("{path}.left"), opts, wide, out);
            let r =
                walk(pattern, estimates, model, right, &format!("{path}.right"), opts, wide, out);

            // Structural key inequality: one descendant element has at
            // most `depth_levels(anc)` ancestors with the anc tag
            // (distinct ancestors sit at distinct levels), exactly one
            // parent for `/`.
            let levels = match axis {
                Axis::Descendant => estimates.node_depth_levels(*anc).max(1),
                Axis::Child => 1,
            };
            let l_mult_anc = l.mult_hi.get(anc).copied().unwrap_or(l.rows.hi);
            let anc_matches = l_mult_anc.saturating_mul(levels);
            let rows_hi =
                l.rows.hi.saturating_mul(r.rows.hi).min(r.rows.hi.saturating_mul(anc_matches));
            let rows = CardInterval { lo: 0, hi: rows_hi };

            // Multiplicities of the joined output.
            let mut mult_hi = HashMap::with_capacity(l.mult_hi.len() + r.mult_hi.len());
            for (&col, &m) in &l.mult_hi {
                mult_hi.insert(col, m.saturating_mul(r.rows.hi).min(rows_hi));
            }
            for (&col, &m) in &r.mult_hi {
                mult_hi.insert(col, m.saturating_mul(anc_matches).min(rows_hi));
            }

            // Stack bound: entries hold nested left tuples — distinct
            // anc elements on the stack nest, so there are at most
            // `depth_levels(anc)` of them regardless of axis, times
            // the left multiplicity of the anc column.
            let nest_levels = estimates.node_depth_levels(*anc).max(1);
            let stack_rows = l.rows.hi.min(nest_levels.saturating_mul(l_mult_anc));
            let width = l.width + r.width;
            let pair_bytes = out_row_bytes(width);
            // The stack keeps left rows in the left input's layout.
            let stack_bytes = stack_rows.saturating_mul(l.row_bytes);
            let buffer = match algo {
                // Anc additionally parks every not-yet-emitted output
                // pair (in the output layout).
                JoinAlgo::StackTreeAnc => {
                    stack_bytes.saturating_add(rows_hi.saturating_mul(pair_bytes))
                }
                JoinAlgo::StackTreeDesc => stack_bytes,
                // MPMGJN buffers the descendant window, which never
                // shrinks over the operator's lifetime.
                JoinAlgo::MergeJoin => r.rows.hi.saturating_mul(r.row_bytes),
            };
            let label = match algo {
                JoinAlgo::StackTreeAnc => "STJ-A",
                JoinAlgo::StackTreeDesc => "STJ-D",
                JoinAlgo::MergeJoin => "MPMGJN",
            };
            let sub = SubBounds {
                rows,
                est_hi: l.est_hi.saturating_mul(r.est_hi),
                mult_hi,
                width,
                row_bytes: pair_bytes,
            };
            // A stack-tree batch may overshoot `batch_rows` by the
            // stack depth (one descendant's matches leave together).
            let overshoot = match algo {
                JoinAlgo::MergeJoin => 0,
                _ => stack_rows,
            };
            (
                format!(
                    "{label}({}{}{})",
                    anc.0,
                    if *axis == Axis::Child { "/" } else { "//" },
                    desc.0
                ),
                sub,
                buffer,
                overshoot,
                vec![l.row_bytes, r.row_bytes],
            )
        }
    };

    // In-flight batches: this operator's output batch under
    // construction plus one cached input batch per child cursor.
    let out_batch_rows = batch_rows.saturating_add(extra_out_rows);
    let mut batch_bytes = out_batch_rows.saturating_mul(sub.row_bytes);
    for bytes in child_row_bytes {
        batch_bytes = batch_bytes.saturating_add(batch_rows.saturating_mul(bytes));
    }

    // Pull bound: mid-stream batches carry ≥ batch_rows rows and the
    // terminal `None` is observed at most once per boundary.
    let pulls = (sub.rows.hi / batch_rows).saturating_add(2);

    out[slot] = OperatorBounds {
        location: path.to_string(),
        label,
        rows: sub.rows,
        est_hi: sub.est_hi,
        point_estimate,
        row_bytes: sub.row_bytes,
        buffer_bytes,
        batch_bytes,
        pulls,
    };
    sub
}

/// PL060 + PL061: check the bound lattice itself — well-ordered,
/// non-saturated intervals that grow monotonically up the tree, each
/// containing the cost model's point estimate. Returns the bounds so
/// callers lint and admit with one analysis.
pub fn lint_bounds(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    plan: &PlanNode,
    batch_rows: usize,
) -> (ResourceBounds, Report) {
    let opts = ExecOptions { batch_rows, ..ExecOptions::default() };
    let bounds = analyze_bounds(pattern, estimates, model, plan, &opts);
    let mut report = Report::default();
    for op in &bounds.operators {
        if op.rows.lo > op.rows.hi {
            report.push(
                Rule::BoundArithmetic,
                op.location.clone(),
                format!("interval is inverted: lo {} > hi {}", op.rows.lo, op.rows.hi),
            );
        }
        if op.rows.hi == u64::MAX || op.buffer_bytes == u64::MAX || op.pulls == u64::MAX {
            report.push(
                Rule::BoundArithmetic,
                op.location.clone(),
                "bound arithmetic saturated u64 — the bound is vacuous and cannot admit anything"
                    .to_string(),
            );
        }
        let coarse = CardInterval { lo: op.rows.lo, hi: op.est_hi };
        if !coarse.contains(op.point_estimate) {
            report.push(
                Rule::BoundContainsEstimate,
                op.location.clone(),
                format!(
                    "cost model estimates {:.1} rows outside [{}, {}] (guaranteed lower bound, \
                     product of index-list lengths)",
                    op.point_estimate, coarse.lo, coarse.hi
                ),
            );
        }
        if op.rows.hi > op.est_hi {
            report.push(
                Rule::BoundArithmetic,
                op.location.clone(),
                format!(
                    "tightened bound {} exceeds the coarse product bound {}",
                    op.rows.hi, op.est_hi
                ),
            );
        }
    }
    // Monotonicity: a parent's cumulative byte/pull bound includes its
    // subtree's, so the root totals dominate every operator's own
    // terms.
    for op in &bounds.operators {
        let own = op.buffer_bytes.saturating_add(op.batch_bytes);
        if own > bounds.peak_bytes || op.pulls > bounds.batch_pulls {
            report.push(
                Rule::BoundArithmetic,
                op.location.clone(),
                format!(
                    "bounds shrink up the tree: operator needs {own} B / {} pulls but the plan \
                     total is {} B / {} pulls",
                    op.pulls, bounds.peak_bytes, bounds.batch_pulls
                ),
            );
        }
    }
    (bounds, report)
}

/// PL062 + PL063, or PL066 + PL063 under a spill policy: the
/// admission predicate. Compares `bounds` (from [`analyze_bounds`]
/// with the same `opts`), scaled to `opts`' workers, against the
/// budgets of `opts.guard`; no guard means unlimited. A clean report
/// admits the plan.
///
/// With a spill policy a clean report admits the plan in spill mode
/// even when its in-memory bound was rejected; a PL066 violation
/// means not even spilling saves it (the budget is below the merge
/// machinery's floor or a non-sort operator alone exceeds it).
pub fn admit(bounds: &ResourceBounds, opts: &ExecOptions) -> Report {
    let workers = opts.workers();
    let (peak, pulls) = bounds.scaled(opts);
    let guard = opts.guard.as_deref();
    let mut report = Report::default();
    if let Some(limit) = guard.and_then(QueryGuard::memory_budget).map(|b| b as u64) {
        if peak > limit {
            let (rule, message) = if opts.spill.is_some() {
                (
                    Rule::SpillAdmissible,
                    format!(
                        "worst-case resident peak {peak} B under spill still exceeds the {limit} \
                         B memory budget"
                    ),
                )
            } else if workers > 1 {
                (
                    Rule::MemoryAdmissible,
                    format!(
                        "worst-case aggregate peak {peak} B across {workers} workers exceeds the \
                         {limit} B memory budget (serial peak {} B)",
                        bounds.peak_bytes
                    ),
                )
            } else {
                (
                    Rule::MemoryAdmissible,
                    format!("worst-case peak {peak} B exceeds the {limit} B memory budget"),
                )
            };
            report.push(rule, "root", message);
        }
    }
    if let Some(limit) = guard.and_then(QueryGuard::batch_budget) {
        if pulls > limit {
            let message = if workers > 1 {
                format!(
                    "worst-case aggregate {pulls} batch pulls across {workers} workers exceed \
                     the {limit} pull budget (serial bound {})",
                    bounds.batch_pulls
                )
            } else {
                format!("worst-case {pulls} batch pulls exceed the {limit} pull budget")
            };
            report.push(Rule::BatchAdmissible, "root", message);
        }
    }
    report
}

/// PL065: the cache-revalidation predicate. A plan cached under
/// catalog generation (`cached_version`, `cached_fingerprint`) may be
/// served against the live catalog only when the versions match; on
/// mismatch the report names the drift so the cache re-derives the
/// plan and its bounds instead of serving them. The fingerprint
/// distinguishes a content change (statistics actually moved — the
/// stale bounds may be unsound) from a pure generation bump
/// (recalibration over identical statistics — still a forced
/// re-derivation, because the cost model the plan was priced under
/// changed).
pub fn revalidate_cached(
    cached_version: u64,
    cached_fingerprint: u64,
    live_version: u64,
    live_fingerprint: u64,
) -> Report {
    let mut report = Report::default();
    if cached_version != live_version {
        let drift = if cached_fingerprint == live_fingerprint {
            "statistics content unchanged, but the generation advanced"
        } else {
            "statistics content drifted"
        };
        report.push(
            Rule::CacheRevalidated,
            "cache",
            format!(
                "plan cached under catalog v{cached_version} served against v{live_version} \
                 ({drift}); bounds must be re-derived"
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_rules::replay;
    use sjos_exec::tuple::{NARROW_BYTES, WIDE_BYTES};
    use sjos_exec::{SpillPolicy, BATCH_ROWS};
    use sjos_pattern::parse_pattern;
    use sjos_stats::Catalog;
    use sjos_storage::XmlStore;
    use sjos_xml::Document;
    use std::sync::Arc;

    fn setup(xml: &str, query: &str) -> (XmlStore, Pattern, PatternEstimates, CostModel) {
        let doc = Document::parse(xml).unwrap();
        let pattern = parse_pattern(query).unwrap();
        let catalog = Catalog::build(&doc);
        let estimates = PatternEstimates::new(&catalog, &doc, &pattern);
        (XmlStore::load(doc), pattern, estimates, CostModel::default())
    }

    fn scan(i: u16) -> PlanNode {
        PlanNode::IndexScan { pnode: PnId(i) }
    }

    fn join(
        left: PlanNode,
        right: PlanNode,
        a: u16,
        d: u16,
        axis: Axis,
        algo: JoinAlgo,
    ) -> PlanNode {
        PlanNode::StructuralJoin {
            left: Box::new(left),
            right: Box::new(right),
            anc: PnId(a),
            desc: PnId(d),
            axis,
            algo,
        }
    }

    fn at(batch_rows: usize) -> ExecOptions {
        ExecOptions { batch_rows, ..ExecOptions::default() }
    }

    const XML: &str = "<db>\
        <dept><emp><name>ada</name></emp><emp><name>bob</name></emp></dept>\
        <dept><emp><name>cat</name></emp></dept>\
      </db>";

    #[test]
    fn revalidation_is_clean_only_when_versions_match() {
        assert!(revalidate_cached(7, 0xabc, 7, 0xabc).is_clean());
        let drifted = revalidate_cached(7, 0xabc, 9, 0xdef);
        assert!(drifted.violates(Rule::CacheRevalidated));
        assert!(drifted.diagnostics[0].message.contains("drifted"));
        // A pure generation bump (same fingerprint) still forces a
        // re-derivation, with a message that says the content held.
        let bumped = revalidate_cached(7, 0xabc, 8, 0xabc);
        assert!(bumped.violates(Rule::CacheRevalidated));
        assert!(bumped.diagnostics[0].message.contains("unchanged"));
    }

    #[test]
    fn scan_bounds_are_exact() {
        let (_, pattern, est, model) = setup(XML, "//dept//emp");
        let b = analyze_bounds(&pattern, &est, &model, &scan(0), &at(BATCH_ROWS));
        assert_eq!(b.root_rows(), CardInterval { lo: 2, hi: 2 });
        assert_eq!(b.operators[0].buffer_bytes, 0, "scans buffer nothing");
        assert!(b.batch_pulls >= 2);
    }

    #[test]
    fn depth_levels_tighten_the_join_bound() {
        let (_, pattern, est, model) = setup(XML, "//dept//emp");
        let plan = join(scan(0), scan(1), 0, 1, Axis::Descendant, JoinAlgo::StackTreeDesc);
        let b = analyze_bounds(&pattern, &est, &model, &plan, &at(BATCH_ROWS));
        // dept occurs at one level, so each emp has ≤ 1 dept ancestor:
        // the bound is |emp| · 1 = 3, not |dept| · |emp| = 6.
        assert_eq!(b.root_rows().hi, 3);
        assert_eq!(b.root_rows().lo, 0);
    }

    #[test]
    fn lattice_is_clean_and_contains_estimates() {
        let (_, pattern, est, model) = setup(XML, "//dept/emp/name");
        let plan = join(
            join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeDesc),
            scan(2),
            1,
            2,
            Axis::Child,
            JoinAlgo::StackTreeDesc,
        );
        let (bounds, report) = lint_bounds(&pattern, &est, &model, &plan, BATCH_ROWS);
        assert!(report.is_clean(), "{report}");
        assert_eq!(bounds.operators.len(), 5, "pre-order covers every operator");
        assert_eq!(bounds.operators[0].location, "root");
        assert_eq!(bounds.operators[1].location, "root.left");
    }

    #[test]
    fn corrupted_bounds_fire_pl060() {
        let (_, pattern, est, model) = setup(XML, "//dept//emp");
        let plan = join(scan(0), scan(1), 0, 1, Axis::Descendant, JoinAlgo::StackTreeDesc);
        let (mut bounds, _) = lint_bounds(&pattern, &est, &model, &plan, BATCH_ROWS);
        // Invert an interval and re-run just the lattice checks via a
        // hand-rolled report (lint_bounds recomputes, so check the
        // helper predicate directly).
        bounds.operators[0].rows = CardInterval { lo: 10, hi: 3 };
        assert!(bounds.operators[0].rows.lo > bounds.operators[0].rows.hi);
        assert!(!bounds.operators[0].rows.contains(5.0), "inverted interval contains nothing");
    }

    #[test]
    fn sort_buffers_its_whole_input() {
        let (_, pattern, est, model) = setup(XML, "//dept//emp");
        let inner = join(scan(0), scan(1), 0, 1, Axis::Descendant, JoinAlgo::StackTreeAnc);
        let plan = PlanNode::Sort { input: Box::new(inner), by: PnId(1) };
        let b = analyze_bounds(&pattern, &est, &model, &plan, &at(BATCH_ROWS));
        let sort = &b.operators[0];
        // Nothing above the root reads a region, so both columns are
        // narrow.
        assert_eq!(sort.buffer_bytes, 3 * 2 * NARROW_BYTES as u64, "3 rows × 2 narrow cols");
        let wide = analyze_bounds(
            &pattern,
            &est,
            &model,
            &plan,
            &ExecOptions { narrow: false, ..at(BATCH_ROWS) },
        );
        assert_eq!(wide.operators[0].buffer_bytes, 3 * 2 * WIDE_BYTES as u64, "3 rows × 2 cols");
    }

    /// Q.Pers.3.d, the paper's Fig. 1 pattern: manager#0 //
    /// employee#1 / name#2, and manager#0 // manager#3 / department#4
    /// / name#5.
    const PERS_3D: &str = "//manager[.//employee/name][.//manager/department/name]";

    const PERS_XML: &str = "<company><manager>\
        <employee><name>a</name></employee>\
        <manager><department><name>d</name></department><employee><name>b</name></employee>\
        </manager></manager></company>";

    #[test]
    fn certificates_price_each_column_at_its_liveness_width() {
        use sjos_core::{optimize, Algorithm};
        let (store, pattern, est, model) = setup(PERS_XML, PERS_3D);
        // A hand-built pipeline: (((manager ⋈ (employee ⋈ name)) ⋈
        // manager) ⋈ department) ⋈ name.
        let inner = join(scan(1), scan(2), 1, 2, Axis::Child, JoinAlgo::StackTreeAnc);
        let b = join(scan(0), inner, 0, 1, Axis::Descendant, JoinAlgo::StackTreeAnc);
        let c = join(b, scan(3), 0, 3, Axis::Descendant, JoinAlgo::StackTreeDesc);
        let d = join(c, scan(4), 3, 4, Axis::Child, JoinAlgo::StackTreeDesc);
        let plan = join(d, scan(5), 4, 5, Axis::Child, JoinAlgo::StackTreeDesc);
        plan.validate(&pattern).unwrap();
        let opts = at(BATCH_ROWS);
        let bounds = analyze_bounds(&pattern, &est, &model, &plan, &opts);
        let bytes: Vec<u64> = bounds.operators.iter().map(|o| o.row_bytes).collect();
        let (w, n) = (WIDE_BYTES as u64, NARROW_BYTES as u64);
        // Pre-order: root, d, c, b, scan 0, inner, scan 1, scan 2, then
        // scans 3, 4, 5. The mid-plan join c drops manager#0's region
        // (it was its last reader) but keeps manager#3 wide for d; the
        // root is 6 narrow columns.
        assert_eq!(bounds.operators[0].location, "root");
        assert_eq!(
            bytes,
            vec![6 * n, w + 4 * n, w + 3 * n, w + 2 * n, w, w + n, w, w, w, w, w],
            "{}",
            bounds.to_json()
        );
        let wide = analyze_bounds(
            &pattern,
            &est,
            &model,
            &plan,
            &ExecOptions { narrow: false, ..opts.clone() },
        );
        assert_eq!(wide.operators[0].row_bytes, 6 * w);
        assert!(bounds.peak_bytes < wide.peak_bytes);
        let report = replay(&store, &pattern, &plan, &opts).unwrap().within(&bounds, &opts);
        assert!(report.is_clean(), "{report}");
        // Whatever the optimizer picks, the certified root row is
        // 6 × 4 B.
        for alg in [Algorithm::Dpp { lookahead: true }, Algorithm::Fp] {
            let plan = optimize(&pattern, &est, &model, alg).unwrap().plan;
            let bounds = analyze_bounds(&pattern, &est, &model, &plan, &opts);
            assert_eq!(bounds.operators[0].row_bytes, 6 * n, "{alg:?}");
        }
    }

    #[test]
    fn replayed_execution_stays_inside_the_bounds() {
        let (store, pattern, est, model) = setup(XML, "//dept/emp/name");
        for algo in [JoinAlgo::StackTreeDesc, JoinAlgo::StackTreeAnc, JoinAlgo::MergeJoin] {
            let inner = join(scan(0), scan(1), 0, 1, Axis::Child, algo);
            let left = PlanNode::Sort { input: Box::new(inner), by: PnId(1) };
            let plan = join(left, scan(2), 1, 2, Axis::Child, JoinAlgo::StackTreeDesc);
            for rows in [1usize, 3, BATCH_ROWS] {
                let b = analyze_bounds(&pattern, &est, &model, &plan, &at(rows));
                let report =
                    replay(&store, &pattern, &plan, &at(rows)).unwrap().within(&b, &at(rows));
                assert!(report.is_clean(), "{algo:?} at batch_rows={rows}: {report}");
            }
        }
    }

    /// A corpus wide enough that a sort's full-materialization bound
    /// dwarfs a spill policy's resident bound.
    fn wide_xml(emps: usize) -> String {
        let mut xml = String::from("<db><dept>");
        for _ in 0..emps {
            xml.push_str("<emp><name>x</name></emp>");
        }
        xml.push_str("</dept></db>");
        xml
    }

    fn spill_at(batch_rows: usize, policy: SpillPolicy) -> ExecOptions {
        ExecOptions { spill: Some(policy), ..at(batch_rows) }
    }

    fn wide_sort_plan() -> PlanNode {
        let inner = join(scan(0), scan(1), 0, 1, Axis::Descendant, JoinAlgo::StackTreeDesc);
        PlanNode::Sort { input: Box::new(inner), by: PnId(0) }
    }

    #[test]
    fn spill_caps_the_sort_buffer_at_the_resident_bound() {
        let (_, pattern, est, model) = setup(&wide_xml(12_000), "//dept//emp");
        let plan = wide_sort_plan();
        let policy = SpillPolicy::with_threshold(0);
        let full = analyze_bounds(&pattern, &est, &model, &plan, &at(3));
        let spilled = analyze_bounds(&pattern, &est, &model, &plan, &spill_at(3, policy));
        let resident = policy.resident_bound(2, 2 * NARROW_BYTES, 3) as u64;
        assert!(
            full.operators[0].buffer_bytes > resident,
            "corpus too small to exercise the cap: full {} ≤ resident {resident}",
            full.operators[0].buffer_bytes
        );
        assert_eq!(spilled.operators[0].buffer_bytes, resident);
        assert!(spilled.peak_bytes < full.peak_bytes);
    }

    /// `opts` with a guard carrying the given budgets.
    fn budgeted(opts: &ExecOptions, memory: Option<u64>, pulls: Option<u64>) -> ExecOptions {
        let mut guard = QueryGuard::unlimited();
        if let Some(bytes) = memory {
            guard = guard.with_memory_budget(usize::try_from(bytes).expect("test budget fits"));
        }
        if let Some(pulls) = pulls {
            guard = guard.with_batch_budget(pulls);
        }
        ExecOptions { guard: Some(Arc::new(guard)), ..opts.clone() }
    }

    #[test]
    fn admit_follows_the_options() {
        let (_, pattern, est, model) = setup(&wide_xml(12_000), "//dept//emp");
        let plan = wide_sort_plan();
        let serial = at(3);
        let two = ExecOptions { threads: 2, ..serial.clone() };
        let spill = spill_at(3, SpillPolicy::with_threshold(0));
        let spill_two = ExecOptions { threads: 2, ..spill.clone() };
        let full = analyze_bounds(&pattern, &est, &model, &plan, &serial);
        let resident = analyze_bounds(&pattern, &est, &model, &plan, &spill);
        assert!(resident.peak_bytes < full.peak_bytes, "spilling must shrink the certificate");
        assert_eq!(full.scaled(&two), (2 * full.peak_bytes, 2 * full.batch_pulls));
        // Spilling runs as one morsel, so its certificate is unscaled.
        assert_eq!(resident.scaled(&spill_two), (resident.peak_bytes, resident.batch_pulls));
        let (peak, pulls) = (full.peak_bytes, full.batch_pulls);
        let floor = resident.peak_bytes;
        let cases = [
            ("serial, no guard", &full, serial.clone(), None),
            ("serial, exact budgets", &full, budgeted(&serial, Some(peak), Some(pulls)), None),
            (
                "serial, one byte short",
                &full,
                budgeted(&serial, Some(peak - 1), None),
                Some(Rule::MemoryAdmissible),
            ),
            (
                "serial, one pull short",
                &full,
                budgeted(&serial, None, Some(pulls - 1)),
                Some(Rule::BatchAdmissible),
            ),
            (
                "2 workers, serial bytes",
                &full,
                budgeted(&two, Some(peak), None),
                Some(Rule::MemoryAdmissible),
            ),
            (
                "2 workers, serial pulls",
                &full,
                budgeted(&two, None, Some(pulls)),
                Some(Rule::BatchAdmissible),
            ),
            ("2 workers, doubled", &full, budgeted(&two, Some(2 * peak), Some(2 * pulls)), None),
            (
                "in memory at the spill floor",
                &full,
                budgeted(&serial, Some(floor), None),
                Some(Rule::MemoryAdmissible),
            ),
            ("spill at its floor", &resident, budgeted(&spill, Some(floor), None), None),
            (
                "spill below its floor",
                &resident,
                budgeted(&spill, Some(floor - 1), None),
                Some(Rule::SpillAdmissible),
            ),
            (
                "spill, 2 threads, at its floor",
                &resident,
                budgeted(&spill_two, Some(floor), None),
                None,
            ),
            (
                "spill, 2 threads, below its floor",
                &resident,
                budgeted(&spill_two, Some(floor - 1), None),
                Some(Rule::SpillAdmissible),
            ),
            ("starved", &full, budgeted(&serial, Some(1), None), Some(Rule::MemoryAdmissible)),
            (
                "starved under spill",
                &resident,
                budgeted(&spill, Some(1), None),
                Some(Rule::SpillAdmissible),
            ),
        ];
        for (name, bounds, opts, expect) in cases {
            let report = admit(bounds, &opts);
            match expect {
                None => assert!(report.is_clean(), "{name}: {report}"),
                Some(rule) => {
                    assert!(report.violates(rule), "{name}: {report}");
                    assert_eq!(report.diagnostics.len(), 1, "{name}: {report}");
                }
            }
        }
    }

    #[test]
    fn spill_replay_stays_inside_the_spill_bounds() {
        let (store, pattern, est, model) = setup(&wide_xml(3_000), "//dept//emp");
        let plan = wide_sort_plan();
        for threshold in [0, 4096] {
            for rows in [1, 3, BATCH_ROWS] {
                let opts = spill_at(rows, SpillPolicy::with_threshold(threshold));
                let b = analyze_bounds(&pattern, &est, &model, &plan, &opts);
                let report = replay(&store, &pattern, &plan, &opts).unwrap().within(&b, &opts);
                assert!(report.is_clean(), "threshold={threshold} batch_rows={rows}: {report}");
                assert_eq!(store.spill().live_pages(), 0, "replay leaked temp pages");
            }
        }
    }

    #[test]
    fn value_predicates_zero_the_lower_bound() {
        let (_, pattern, est, model) = setup(XML, "//emp/name[text()='ada']");
        let b = analyze_bounds(&pattern, &est, &model, &scan(1), &at(BATCH_ROWS));
        assert_eq!(b.root_rows().lo, 0, "a predicate may filter everything");
        assert_eq!(b.root_rows().hi, 3, "…but never adds rows");
    }
}
