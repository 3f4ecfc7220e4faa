//! Multi-line plan rendering with cardinality estimates — the
//! `EXPLAIN` half of the CLI and a debugging aid for optimizer work.

use sjos_core::CostModel;
use sjos_exec::{JoinAlgo, PlanNode};
use sjos_pattern::{Axis, NodeSet, Pattern};
use sjos_stats::PatternEstimates;

/// Render `plan` as an indented tree, annotating every operator with
/// the estimated output cardinality, its cost contribution under
/// `model`, its output order, and its *wide* columns — those whose
/// regions its output still carries because a later join reads them
/// ([`PlanNode::region_liveness`]; `-` when none), so it shows where
/// each region is dropped. For example:
///
/// ```text
/// STJ-Desc manager#0//employee#1    ~9037 rows  cost 21700  ordered by employee#1  wide: -
/// ├─ Scan manager#0                  ~750 rows  cost 750  ordered by manager#0  wide: manager#0
/// └─ Scan employee#1                ~1125 rows  cost 1125  ordered by employee#1  wide: employee#1
/// ```
pub fn explain(
    plan: &PlanNode,
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
) -> String {
    let mut out = String::new();
    let wide = plan.region_liveness();
    render(plan, pattern, estimates, model, &mut wide.iter(), "", "", &mut out);
    out
}

fn node_label(pattern: &Pattern, id: sjos_pattern::PnId) -> String {
    format!("{}#{}", pattern.node(id).tag, id.0)
}

#[allow(clippy::too_many_arguments)]
fn render(
    plan: &PlanNode,
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    wide: &mut std::slice::Iter<'_, NodeSet>,
    prefix: &str,
    child_prefix: &str,
    out: &mut String,
) {
    let (cost, rows) = model.plan_cost(plan, pattern, estimates);
    let line = match plan {
        PlanNode::IndexScan { pnode } => {
            let mut s = format!("Scan {}", node_label(pattern, *pnode));
            if pattern.node(*pnode).predicate.is_some() {
                s.push_str(" [filtered]");
            }
            s
        }
        PlanNode::Sort { by, .. } => {
            format!("Sort by {}", node_label(pattern, *by))
        }
        PlanNode::StructuralJoin { anc, desc, axis, algo, .. } => {
            let alg = match algo {
                JoinAlgo::StackTreeAnc => "STJ-Anc",
                JoinAlgo::StackTreeDesc => "STJ-Desc",
                JoinAlgo::MergeJoin => "MPMGJN",
            };
            let ax = match axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            };
            format!("{alg} {}{ax}{}", node_label(pattern, *anc), node_label(pattern, *desc))
        }
    };
    let ordered = node_label(pattern, plan.ordered_by());
    let kept = *wide.next().expect("one liveness set per operator");
    let wide_cols = if kept.is_empty() {
        "-".to_string()
    } else {
        kept.iter().map(|id| node_label(pattern, id)).collect::<Vec<_>>().join(" ")
    };
    out.push_str(&format!(
        "{prefix}{line:<40} ~{rows:.0} rows  cost {cost:.0}  ordered by {ordered}  wide: \
         {wide_cols}\n"
    ));
    let children: Vec<&PlanNode> = match plan {
        PlanNode::IndexScan { .. } => vec![],
        PlanNode::Sort { input, .. } => vec![input],
        PlanNode::StructuralJoin { left, right, .. } => vec![left, right],
    };
    let n = children.len();
    for (i, child) in children.into_iter().enumerate() {
        let last = i + 1 == n;
        let (head, tail) = if last {
            (format!("{child_prefix}└─ "), format!("{child_prefix}   "))
        } else {
            (format!("{child_prefix}├─ "), format!("{child_prefix}│  "))
        };
        render(child, pattern, estimates, model, wide, &head, &tail, out);
    }
}

/// A one-paragraph summary of an executed query: plan class, work
/// counters, and storage traffic. The `EXPLAIN ANALYZE` companion to
/// [`explain`]. The counters are flushed batch-at-a-time by the
/// vectorized operators but their totals are exact per tuple. When a
/// sort spilled, a second segment reports the external-sort traffic;
/// in-memory executions keep the classic one-line shape.
pub fn analyze_summary(result: &sjos_exec::QueryResult) -> String {
    let m = &result.metrics;
    let mut s = format!(
        "matches: {}  | operator tuples: {} | scanned: {} | stack push/pop: {}/{} | \
         buffered pairs: {} | rescans: {} | sorts: {} ({} tuples) | peak buffered: {} B | \
         io: {} hits, {} reads, {} evictions | elapsed: {:.3} ms",
        m.output_tuples,
        m.produced_tuples,
        m.scanned_records,
        m.stack_pushes,
        m.stack_pops,
        m.buffered_pairs,
        m.merge_rescans,
        m.sort_operations,
        m.sorted_tuples,
        m.peak_bytes,
        result.io.buffer_hits,
        result.io.disk_reads,
        result.io.evictions,
        result.elapsed.as_secs_f64() * 1e3,
    );
    if m.spilled_runs > 0 {
        s.push_str(&format!(
            " | spill: {} runs, {} B, {} merge passes, {} pages written, {} pages read",
            m.spilled_runs,
            m.spilled_bytes,
            m.spill_merge_passes,
            result.io.spill_page_writes,
            result.io.spill_page_reads,
        ));
    }
    s
}

/// Sanity helper: estimated rows of the full pattern (what `explain`
/// shows at the plan root).
pub fn estimated_matches(pattern: &Pattern, estimates: &PatternEstimates) -> f64 {
    estimates.cluster_cardinality(pattern, NodeSet::full(pattern.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Database};

    fn setup() -> (Database, Pattern) {
        let db =
            Database::from_xml("<dept><emp><name>a</name></emp><emp><name>b</name></emp></dept>")
                .unwrap();
        let pattern = crate::parse_pattern("//dept/emp/name").unwrap();
        (db, pattern)
    }

    #[test]
    fn explain_renders_every_operator() {
        let (db, pattern) = setup();
        let optimized = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
        let est = db.estimates(&pattern);
        let text = explain(&optimized.plan, &pattern, &est, db.cost_model());
        assert_eq!(text.matches("Scan").count(), 3, "three scans expected:\n{text}");
        assert!(text.contains("STJ-"), "{text}");
        assert!(text.contains("rows"), "{text}");
        assert!(text.contains("dept#0"), "{text}");
    }

    #[test]
    fn explain_marks_where_each_region_is_dropped() {
        // Q.Pers.3.d, the paper's Fig. 1 pattern.
        let db = Database::from_xml(
            "<company><manager><employee><name>a</name></employee>\
             <manager><department><name>d</name></department></manager></manager></company>",
        )
        .unwrap();
        let pattern =
            crate::parse_pattern("//manager[.//employee/name][.//manager/department/name]")
                .unwrap();
        let est = db.estimates(&pattern);
        for alg in [Algorithm::Dpp { lookahead: true }, Algorithm::Fp] {
            let plan = db.optimize(&pattern, alg).unwrap().plan;
            let text = explain(&plan, &pattern, &est, db.cost_model());
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(text.matches("Scan ").count(), 6, "{text}");
            assert_eq!(text.matches("STJ-").count(), 5, "{text}");
            assert!(lines[0].ends_with("wide: -"), "the root drops every region:\n{text}");
            // Every scan feeds a join, which reads its region.
            for line in lines.iter().filter(|l| l.contains("Scan ")) {
                let label = line.split("Scan ").nth(1).unwrap().split_whitespace().next().unwrap();
                assert!(line.ends_with(&format!("wide: {label}")), "{line}\n{text}");
            }
            // Below the root, a join still carries the regions a later
            // join reads.
            assert!(
                lines[1..].iter().any(|l| l.contains("STJ") && !l.ends_with("wide: -")),
                "{text}"
            );
        }
    }

    #[test]
    fn explain_marks_filtered_scans() {
        let db = Database::from_xml("<e><n>x</n><n>y</n></e>").unwrap();
        let pattern = crate::parse_pattern("//e/n[text()='x']").unwrap();
        let optimized = db.optimize(&pattern, Algorithm::Fp).unwrap();
        let est = db.estimates(&pattern);
        let text = explain(&optimized.plan, &pattern, &est, db.cost_model());
        assert!(text.contains("[filtered]"), "{text}");
    }

    #[test]
    fn analyze_summary_reports_counters() {
        let (db, _) = setup();
        let out = db.query("//dept/emp/name").unwrap();
        let s = analyze_summary(&out.result);
        assert!(s.contains("matches: 2"), "{s}");
        assert!(s.contains("peak buffered"), "{s}");
        assert!(s.contains("elapsed"), "{s}");
    }

    #[test]
    fn analyze_summary_reports_spill_traffic_only_when_spilled() {
        use sjos_exec::{ExecOptions, JoinAlgo, PlanNode, SpillPolicy};
        use sjos_pattern::{Axis, PnId};

        let mut xml = String::from("<dept>");
        for _ in 0..3_000 {
            xml.push_str("<emp/>");
        }
        xml.push_str("</dept>");
        let db = Database::from_xml(&xml).unwrap();
        let pattern = crate::parse_pattern("//dept//emp").unwrap();
        let inner = PlanNode::StructuralJoin {
            left: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
            right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Descendant,
            algo: JoinAlgo::StackTreeDesc,
        };
        let plan = PlanNode::Sort { input: Box::new(inner), by: PnId(0) };
        let spill =
            ExecOptions { spill: Some(SpillPolicy::with_threshold(0)), ..ExecOptions::default() };
        let spilled = db.execute(&pattern, &plan, &spill).unwrap();
        let s = analyze_summary(&spilled);
        assert!(s.contains("spill:"), "{s}");
        assert!(s.contains("pages written"), "{s}");

        let resident = db.execute(&pattern, &plan, &ExecOptions::default()).unwrap();
        let s = analyze_summary(&resident);
        assert!(!s.contains("spill:"), "in-memory summary must keep the classic shape: {s}");
    }

    #[test]
    fn estimated_matches_is_positive_for_matching_patterns() {
        let (db, pattern) = setup();
        let est = db.estimates(&pattern);
        assert!(estimated_matches(&pattern, &est) > 0.0);
    }
}
