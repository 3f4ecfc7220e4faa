//! End-to-end static analysis over the paper's Table-1 workloads:
//! the order-property dataflow pass proves FP plans pipeline-safe
//! without execution (and execution agrees), the search traces of the
//! optimizer that runs certify admissible on all three generated
//! corpora, doctored traces
//! are rejected with typed diagnostics, and seeded plan mutations are
//! caught statically by the PL04x rules.

use sjos::core::{mutate_plan, optimize, Algorithm, OptimizerStats, PlanMutation, TraceEvent};
use sjos::datagen::{dblp::dblp, mbench::mbench, paper_queries, pers::pers, DataSet, GenConfig};
use sjos::{Database, ExecOptions};
use sjos_planck::{
    analyze_plan, certify_trace, corrupt_trace, lint_replayed, record_search_trace, replay,
    PlanExpectations, Rule, TraceCorruption,
};

fn databases() -> [(DataSet, Database); 3] {
    [
        (DataSet::Pers, Database::from_document(pers(GenConfig::sized(3_000)))),
        (DataSet::Dblp, Database::from_document(dblp(GenConfig::sized(3_000)))),
        (DataSet::Mbench, Database::from_document(mbench(GenConfig::sized(1_500)))),
    ]
}

/// FP plans over every paper query are proved non-blocking by the
/// dataflow pass (PL042 stays quiet), and running them confirms the
/// proof (PL034 stays quiet): the static and dynamic verdicts agree.
#[test]
fn fp_plans_proved_pipelined_statically_and_dynamically() {
    let dbs = databases();
    for q in paper_queries() {
        let db = &dbs.iter().find(|(ds, _)| *ds == q.dataset).unwrap().1;
        let pattern = q.pattern();
        let plan = db.optimize(&pattern, Algorithm::Fp).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let analysis = analyze_plan(&pattern, &plan.plan, PlanExpectations::of(Algorithm::Fp));
        assert!(analysis.proved_pipelined, "{}: FP plan not proved pipelined", q.id);
        assert!(
            !analysis.report.violates(Rule::StaticNonBlocking),
            "{}: {}",
            q.id,
            analysis.report.render()
        );
        let run = replay(db.store(), &pattern, &plan.plan, &ExecOptions::default());
        let dynamic = lint_replayed(&run, &plan.plan);
        assert!(
            !dynamic.violates(Rule::BatchContract),
            "{}: execution contradicts the static proof\n{}",
            q.id,
            dynamic.render()
        );
    }
}

/// Search traces are recorded by the `optimize` that runs: over every
/// paper query on all three corpora, the traced run returns the plan,
/// cost and search counters of an untraced one, and its trace's
/// optimum is that cost. The DP, DPP, DPP′ and DPAP-LD traces certify
/// admissible; a DPAP-EB trace whose expansion budget cut branches off
/// is reported under PL053 (`trace-complete`) and nothing else.
#[test]
fn search_traces_certify_clean_on_all_datasets() {
    let dbs = databases();
    let (mut clean, mut budget_cut) = (0, 0);
    for q in paper_queries() {
        let db = &dbs.iter().find(|(ds, _)| *ds == q.dataset).unwrap().1;
        let pattern = q.pattern();
        let estimates = db.estimates(&pattern);
        let model = *db.cost_model();
        for algorithm in [
            Algorithm::Dp,
            Algorithm::Dpp { lookahead: true },
            Algorithm::Dpp { lookahead: false },
            Algorithm::DpapLd,
            Algorithm::DpapEb { te: 1 },
            Algorithm::DpapEb { te: 2 },
        ] {
            let at = format!("{}/{algorithm:?}", q.id);
            let (traced, trace) = record_search_trace(&pattern, &estimates, &model, algorithm)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            let plain = optimize(&pattern, &estimates, &model, algorithm).unwrap();
            assert_eq!(traced.plan, plain.plan, "{at}: tracing changed the plan");
            assert_eq!(
                traced.estimated_cost, plain.estimated_cost,
                "{at}: tracing changed the cost"
            );
            let effort = |s: &OptimizerStats| {
                (s.plans_considered, s.statuses_generated, s.statuses_expanded)
            };
            assert_eq!(effort(&traced.stats), effort(&plain.stats), "{at}: tracing changed effort");
            assert_eq!(trace.optimum, plain.estimated_cost, "{at}: trace optimum");
            assert!(!trace.events.is_empty(), "{at}: empty trace");
            let report = certify_trace(&pattern, &estimates, &model, &trace);
            if trace.count(|e| matches!(e, TraceEvent::BudgetSkipped { .. })) > 0 {
                assert!(matches!(algorithm, Algorithm::DpapEb { .. }), "{at}: budget cutoff");
                assert_eq!(report.rules(), [Rule::TraceComplete], "{at}\n{}", report.render());
                budget_cut += 1;
            } else {
                assert!(report.is_clean(), "{at}: honest trace rejected\n{}", report.render());
                clean += 1;
            }
        }
    }
    assert_eq!((clean, budget_cut), (34, 14), "traces certified clean / cut by the budget");
}

/// A trace whose ubCost entries were inflated after the fact — the
/// forged evidence that "the bound justified this prune" — is
/// rejected with a typed PL052 diagnostic naming the recomputed value.
#[test]
fn corrupted_traces_are_rejected_with_typed_diagnostics() {
    let dbs = databases();
    for (ds, db) in &dbs {
        let q = paper_queries().into_iter().find(|q| q.dataset == *ds).unwrap();
        let pattern = q.pattern();
        let estimates = db.estimates(&pattern);
        let model = *db.cost_model();
        let (_, honest) =
            record_search_trace(&pattern, &estimates, &model, Algorithm::Dpp { lookahead: true })
                .unwrap();
        for corruption in TraceCorruption::ALL {
            let name = corruption.name();
            let doctored = corrupt_trace(&honest, corruption);
            let report = certify_trace(&pattern, &estimates, &model, &doctored);
            assert!(!report.is_clean(), "{}: {name} corruption certified clean", q.id);
            let expected = match corruption {
                TraceCorruption::InflateUbCost => Rule::TraceConsistent,
                TraceCorruption::DropFinalized => Rule::TraceComplete,
                TraceCorruption::CheapPrune => Rule::PruneAdmissible,
            };
            assert!(
                report.violates(expected),
                "{}: {name} caught by {:?}, expected {expected:?}",
                q.id,
                report.rules()
            );
        }
    }
}

/// At least one seeded plan mutation per paper query is rejected by
/// the *static* dataflow rules alone — before any execution.
#[test]
fn plan_mutations_rejected_statically_by_dataflow() {
    let dbs = databases();
    for q in paper_queries() {
        let db = &dbs.iter().find(|(ds, _)| *ds == q.dataset).unwrap().1;
        let pattern = q.pattern();
        let base = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap().plan;
        let mut rejected = 0usize;
        for mutation in PlanMutation::ALL {
            let Some(mutated) = mutate_plan(&pattern, &base, mutation) else {
                continue;
            };
            let expect = PlanExpectations {
                fully_pipelined: mutation == PlanMutation::WrapRootSort,
                left_deep: false,
            };
            let analysis = analyze_plan(&pattern, &mutated, expect);
            let dataflow_hit = [
                Rule::RedundantSort,
                Rule::UnsortedMergeInput,
                Rule::StaticNonBlocking,
                Rule::OrderContractMismatch,
            ]
            .iter()
            .any(|r| analysis.report.violates(*r));
            if dataflow_hit {
                rejected += 1;
            }
        }
        assert!(rejected >= 1, "{}: no mutation caught by PL040-PL043", q.id);
    }
}
