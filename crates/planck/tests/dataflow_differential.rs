//! Differential test: the order-property dataflow pass (static,
//! PL040–PL043) against the executed batch contract (dynamic, PL034).
//! The static pass claims to *prove* order facts without running the
//! plan; the dynamic rule runs the plan and measures them. The two
//! must agree:
//!
//! * a plan the dataflow pass proves sorted-by-root executes with
//!   sorted root batches (static proof ⇒ dynamic pass);
//! * a mutated plan that executes unsorted is flagged statically —
//!   execution is never the first line of defense.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sjos_core::{mutate_plan, optimize, random_plan, Algorithm, CostModel, PlanMutation};
use sjos_exec::{ExecOptions, PlanNode};
use sjos_pattern::{parse_pattern, Pattern};
use sjos_planck::{analyze_plan, lint_replayed, replay, OrderFact, PlanExpectations, Report, Rule};
use sjos_stats::{Catalog, PatternEstimates};
use sjos_storage::XmlStore;
use sjos_xml::{Document, DocumentBuilder};

fn doc() -> Document {
    let mut b = DocumentBuilder::new();
    b.start_element("a");
    for i in 0..12 {
        b.start_element("b");
        for _ in 0..(1 + (i * 3 + 1) % 4) {
            b.start_element("c");
            b.leaf("d", "v");
            b.end_element();
        }
        if i % 2 == 0 {
            b.start_element("e");
            b.end_element();
        }
        b.end_element();
    }
    b.end_element();
    b.finish()
}

struct Fixture {
    store: XmlStore,
    pattern: Pattern,
    estimates: PatternEstimates,
    model: CostModel,
}

fn fixture(query: &str) -> Fixture {
    let doc = doc();
    let pattern = parse_pattern(query).expect("query parses");
    let catalog = Catalog::build(&doc);
    let estimates = PatternEstimates::new(&catalog, &doc, &pattern);
    Fixture { store: XmlStore::load(doc), pattern, estimates, model: CostModel::default() }
}

/// PL034 over one replay of `plan` under the default options.
fn batch_contract(fx: &Fixture, plan: &PlanNode) -> Report {
    lint_replayed(&replay(&fx.store, &fx.pattern, plan, &ExecOptions::default()), plan)
}

const QUERIES: [&str; 4] = ["//a/b/c", "//a//c/d", "//a[./b/c][.//e]", "//a/b/c/d order by a"];

/// Whenever the dataflow pass proves the root stream sorted by the
/// plan's claimed ordering, execution confirms it: no PL034.
#[test]
fn static_sorted_proof_is_never_contradicted_by_execution() {
    for query in QUERIES {
        let fx = fixture(query);
        for algorithm in
            [Algorithm::Dp, Algorithm::Dpp { lookahead: true }, Algorithm::Fp, Algorithm::DpapLd]
        {
            let plan =
                optimize(&fx.pattern, &fx.estimates, &fx.model, algorithm).expect("optimizes").plan;
            let analysis = analyze_plan(&fx.pattern, &plan, PlanExpectations::default());
            assert_eq!(
                analysis.root.order,
                OrderFact::Sorted(plan.ordered_by()),
                "{query}/{}: dataflow must prove the declared ordering",
                algorithm.name()
            );
            let dynamic = batch_contract(&fx, &plan);
            assert!(
                !dynamic.violates(Rule::BatchContract),
                "{query}/{}: static proof contradicted at runtime\n{}",
                algorithm.name(),
                dynamic.render()
            );
        }
    }
}

/// Random *valid* plans (sorts inserted wherever order is missing)
/// must also agree: statically proved sorted, dynamically sorted.
#[test]
fn random_valid_plans_agree_static_and_dynamic() {
    let fx = fixture("//a/b/c/d");
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20 {
        let plan = random_plan(&fx.pattern, &mut rng);
        let analysis = analyze_plan(&fx.pattern, &plan, PlanExpectations::default());
        assert!(
            !analysis.report.violates(Rule::UnsortedMergeInput),
            "random_plan inserts sorts; nothing should be unproved\n{}",
            analysis.report.render()
        );
        let dynamic = batch_contract(&fx, &plan);
        assert!(!dynamic.violates(Rule::BatchContract), "{}", dynamic.render());
    }
}

/// Order-corrupting mutations are caught *statically*: every mutated
/// plan that the dynamic rule would flag as delivering unsorted
/// batches (or that cannot execute at all) already carries a
/// PL040–PL043 diagnostic before execution.
#[test]
fn order_corrupting_mutations_are_flagged_before_execution() {
    let fx = fixture("//a/b/c");
    let base = optimize(&fx.pattern, &fx.estimates, &fx.model, Algorithm::Dpp { lookahead: true })
        .expect("optimizes")
        .plan;
    // Mutations that break order contracts specifically (others break
    // structure and are PL00x territory).
    let order_breaking =
        [PlanMutation::SwapJoinInputs, PlanMutation::InsertInputSort, PlanMutation::WrapRootSort];
    let mut caught = 0usize;
    for mutation in order_breaking {
        let Some(mutated) = mutate_plan(&fx.pattern, &base, mutation) else {
            continue;
        };
        let expect = PlanExpectations {
            fully_pipelined: mutation == PlanMutation::WrapRootSort,
            left_deep: false,
        };
        let analysis = analyze_plan(&fx.pattern, &mutated, expect);
        let statically_flagged = [
            Rule::RedundantSort,
            Rule::UnsortedMergeInput,
            Rule::StaticNonBlocking,
            Rule::OrderContractMismatch,
        ]
        .iter()
        .any(|r| analysis.report.violates(*r));
        assert!(
            statically_flagged,
            "{mutation:?} escaped the dataflow pass\n{}",
            analysis.report.render()
        );
        caught += 1;
    }
    assert!(caught >= 2, "too few applicable order-breaking mutations ({caught})");
}

/// The static and dynamic verdicts stay consistent across the whole
/// mutation battery: if the dataflow pass proves the root sorted and
/// the plan executes, execution agrees it is sorted.
#[test]
fn mutation_battery_static_proofs_hold_dynamically() {
    let fx = fixture("//a/b/c");
    let base = optimize(&fx.pattern, &fx.estimates, &fx.model, Algorithm::Dpp { lookahead: true })
        .expect("optimizes")
        .plan;
    for mutation in PlanMutation::ALL {
        let Some(mutated) = mutate_plan(&fx.pattern, &base, mutation) else {
            continue;
        };
        let analysis = analyze_plan(&fx.pattern, &mutated, PlanExpectations::default());
        let proved_sorted = analysis.root.order == OrderFact::Sorted(mutated.ordered_by())
            && !analysis.report.violates(Rule::UnsortedMergeInput);
        if !proved_sorted {
            continue;
        }
        // Static proof stands: if the mutant still executes, its root
        // batches must be sorted by the claimed node. (Structural
        // breakage surfaces as validation failure under PL034, which
        // is fine — the proof is about *order*, conditional on
        // executability; an "unsorted root batch" message would be a
        // genuine contradiction.)
        let dynamic = batch_contract(&fx, &mutated);
        for d in &dynamic.diagnostics {
            assert!(
                !d.message.contains("unsorted"),
                "{mutation:?}: static sorted proof contradicted: {}",
                d.message
            );
        }
    }
}
