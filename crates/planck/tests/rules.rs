//! Table-driven rule tests: every plan rule has at least one fixture
//! that passes and at least one seeded violation caught by its stable
//! id. The violations come from three sources — the
//! [`sjos_core::PlanMutation`] battery over optimizer plans, corrupted
//! cost-model factors, and hand-built Definition-4 status fixtures.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sjos_core::status::SearchContext;
use sjos_core::{
    mutate_plan, optimize, random_plan, Algorithm, Cluster, CostFactors, CostModel, PlanMutation,
    Status,
};
use sjos_pattern::{parse_pattern, NodeSet, Pattern, PnId};
use sjos_planck::{
    lint_optimizers, lint_plan, lint_plan_with, lint_search_space, lint_status, min_pipelined_cost,
    PlanExpectations, Rule,
};
use sjos_stats::{Catalog, PatternEstimates};
use sjos_xml::{Document, DocumentBuilder};

/// A small document with enough fan-out under tags a–e that the
/// optimizers face real cardinality trade-offs.
fn doc() -> Document {
    let mut b = DocumentBuilder::new();
    b.start_element("a");
    for i in 0..12 {
        b.start_element("b");
        for j in 0..(1 + (i * j_mix(i)) % 4) {
            b.start_element("c");
            b.leaf("d", &format!("v{}", (i + j) % 5));
            b.end_element();
        }
        if i % 3 != 0 {
            b.start_element("e");
            b.end_element();
        }
        b.end_element();
    }
    for _ in 0..5 {
        b.start_element("e");
        b.leaf("d", "w");
        b.end_element();
    }
    b.end_element();
    b.finish()
}

fn j_mix(i: usize) -> usize {
    (i * 7 + 3) % 5
}

struct Fixture {
    doc: Document,
    pattern: Pattern,
    estimates: PatternEstimates,
    model: CostModel,
}

fn fixture(query: &str) -> Fixture {
    let doc = doc();
    let pattern = parse_pattern(query).expect("query parses");
    let catalog = Catalog::build_with_grid(&doc, 64);
    let estimates = PatternEstimates::new(&catalog, &doc, &pattern);
    Fixture { doc, pattern, estimates, model: CostModel::default() }
}

const QUERIES: [&str; 5] =
    ["//a/b/c", "//a//c/d", "//a[./b/c][.//e]", "//b[./c/d][./e]", "//a/b/c/d order by a"];

/// Every optimizer's plan for every fixture query lints clean,
/// including the optimizer-specific claims and the cost rules.
#[test]
fn optimizer_plans_lint_clean() {
    for query in QUERIES {
        let fx = fixture(query);
        let _ = &fx.doc;
        for alg in [
            Algorithm::Dp,
            Algorithm::Dpp { lookahead: true },
            Algorithm::Dpp { lookahead: false },
            Algorithm::DpapEb { te: 2 },
            Algorithm::DpapLd,
            Algorithm::Fp,
            Algorithm::WorstRandom { samples: 8, seed: 99 },
        ] {
            let optimized = optimize(&fx.pattern, &fx.estimates, &fx.model, alg).unwrap();
            let report = lint_plan_with(
                &fx.pattern,
                &optimized.plan,
                PlanExpectations::of(alg),
                Some((&fx.estimates, &fx.model)),
            );
            assert!(
                report.is_clean(),
                "{} plan for {query} dirty:\n{}",
                alg.name(),
                report.render()
            );
        }
    }
}

/// Plans from the random generator (the executor's fuzzing source)
/// lint clean too — sorts inserted where orderings do not line up.
#[test]
fn random_plans_lint_clean() {
    for query in QUERIES {
        let fx = fixture(query);
        let mut rng = StdRng::seed_from_u64(0xF1D0);
        for _ in 0..40 {
            let plan = random_plan(&fx.pattern, &mut rng);
            let report = lint_plan_with(
                &fx.pattern,
                &plan,
                PlanExpectations::default(),
                Some((&fx.estimates, &fx.model)),
            );
            assert!(
                report.is_clean(),
                "random plan for {query} dirty: {plan}\n{}",
                report.render()
            );
        }
    }
}

/// The mutation battery: each seeded corruption is caught, and caught
/// by the rule that names it. The plans come from the random generator
/// (up to 300 draws per mutation, so sort-bearing shapes appear for
/// the sort mutations).
#[test]
fn each_mutation_is_caught_by_its_rule() {
    // (mutation, rules of which at least one must fire)
    let table: [(PlanMutation, &[Rule]); 9] = [
        (PlanMutation::SwapJoinInputs, &[Rule::JoinInputBinding]),
        (PlanMutation::FlipOrientation, &[Rule::EdgeOrientation]),
        (PlanMutation::RewireJoin, &[Rule::EdgeExists]),
        (PlanMutation::FlipAxis, &[Rule::AxisMatch]),
        (PlanMutation::DropSort, &[Rule::InputOrder, Rule::OrderBy]),
        (PlanMutation::RetargetSort, &[Rule::SortBound]),
        (PlanMutation::InsertInputSort, &[Rule::InputOrder]),
        (PlanMutation::DuplicateLeaf, &[Rule::BindingPartition]),
        (PlanMutation::WrapRootSort, &[Rule::Pipelined]),
    ];
    let fx = fixture("//a/b/c/d order by a");
    let mut distinct_rules: Vec<Rule> = Vec::new();
    for (mutation, expected) in table {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut applied = false;
        for _ in 0..300 {
            let plan = random_plan(&fx.pattern, &mut rng);
            let Some(mutated) = mutate_plan(&fx.pattern, &plan, mutation) else {
                continue;
            };
            applied = true;
            let expect = PlanExpectations {
                // WrapRootSort yields a *valid* plan that merely stops
                // being pipelined; it is only wrong as an FP claim.
                fully_pipelined: mutation == PlanMutation::WrapRootSort,
                left_deep: false,
            };
            let report =
                lint_plan_with(&fx.pattern, &mutated, expect, Some((&fx.estimates, &fx.model)));
            let fired = report.rules();
            assert!(
                expected.iter().any(|r| fired.contains(r)),
                "{mutation:?} expected one of {expected:?}, fired {fired:?}\n\
                 plan: {plan}\nmutated: {mutated}"
            );
            for rule in expected {
                if fired.contains(rule) && !distinct_rules.contains(rule) {
                    distinct_rules.push(*rule);
                }
            }
            break;
        }
        assert!(applied, "{mutation:?} never applied in 300 random plans");
    }
    // The acceptance bar: at least 8 distinct rules demonstrably fire.
    assert!(
        distinct_rules.len() >= 8,
        "only {} distinct rules fired: {distinct_rules:?}",
        distinct_rules.len()
    );
}

/// A NaN cost factor propagates to a non-finite plan cost: PL010.
#[test]
fn nan_cost_factor_fires_cost_finite() {
    let fx = fixture("//a/b/c");
    let plan = optimize(&fx.pattern, &fx.estimates, &fx.model, Algorithm::Dp).unwrap().plan;
    let broken = CostModel::new(CostFactors { f_st: f64::NAN, ..CostFactors::default() });
    let report = lint_plan_with(
        &fx.pattern,
        &plan,
        PlanExpectations::default(),
        Some((&fx.estimates, &broken)),
    );
    assert!(report.violates(Rule::CostFinite), "{}", report.render());
}

/// Negative join factors price an operator below zero, so a subtree
/// gets cheaper than its input: PL011 (and PL010 once cumulative cost
/// dips negative).
#[test]
fn negative_cost_factor_fires_cost_monotone() {
    let fx = fixture("//a/b/c");
    let plan = optimize(&fx.pattern, &fx.estimates, &fx.model, Algorithm::Dp).unwrap().plan;
    let broken = CostModel::new(CostFactors { f_io: -10.0, f_st: -10.0, ..CostFactors::default() });
    let report = lint_plan_with(
        &fx.pattern,
        &plan,
        PlanExpectations::default(),
        Some((&fx.estimates, &broken)),
    );
    assert!(report.violates(Rule::CostMonotone), "{}", report.render());
}

/// A plan that is valid but bushy trips PL009 only under the left-deep
/// claim, and a plan with a sort trips PL008 only under the FP claim —
/// expectations are opt-in, not ambient.
#[test]
fn expectation_rules_are_opt_in() {
    let fx = fixture("//a[./b/c][.//e]");
    let dp = optimize(&fx.pattern, &fx.estimates, &fx.model, Algorithm::Dp).unwrap().plan;
    let plain = lint_plan(&fx.pattern, &dp);
    assert!(plain.is_clean(), "{}", plain.render());
    if !dp.is_left_deep() {
        let claimed = lint_plan_with(
            &fx.pattern,
            &dp,
            PlanExpectations { left_deep: true, fully_pipelined: false },
            None,
        );
        assert!(claimed.violates(Rule::LeftDeep));
    }
    if dp.sort_count() > 0 {
        let claimed = lint_plan_with(
            &fx.pattern,
            &dp,
            PlanExpectations { fully_pipelined: true, left_deep: false },
            None,
        );
        assert!(claimed.violates(Rule::Pipelined));
    }
}

// ---- status rules (PL020–PL023) ------------------------------------

/// Statuses reachable by the optimizer's own expansion lint clean.
#[test]
fn reachable_statuses_lint_clean() {
    let fx = fixture("//a[./b/c][.//e]");
    let mut ctx = SearchContext::new(&fx.pattern, &fx.estimates, &fx.model);
    let start = ctx.start_status();
    assert!(lint_status(&fx.pattern, &start).is_clean());
    let mut frontier = vec![start];
    for _ in 0..3 {
        let mut next = Vec::new();
        for status in &frontier {
            for succ in ctx.expand(status, false) {
                let report = lint_status(&fx.pattern, &succ);
                assert!(report.is_clean(), "{}", report.render());
                next.push(succ);
            }
        }
        frontier = next;
    }
}

fn scan_cluster(fx: &Fixture, id: u16) -> Cluster {
    let id = PnId(id);
    Cluster {
        nodes: NodeSet::singleton(id),
        ordered_by: id,
        card: fx.estimates.node_cardinality(id),
        plan: sjos_exec::PlanNode::IndexScan { pnode: id },
    }
}

/// Hand-built Definition-4 violations, one per status rule.
#[test]
fn status_fixtures_fire_their_rules() {
    let fx = fixture("//a/b/c");

    // PL020 + PL024: node 2 missing, node 0 bound twice — the missing
    // and overlapping halves of "not a partition" each get their own
    // stable id.
    let not_partition = Status {
        clusters: vec![scan_cluster(&fx, 0), scan_cluster(&fx, 0), scan_cluster(&fx, 1)],
        cost: 3.0,
    };
    let report = lint_status(&fx.pattern, &not_partition);
    assert!(report.violates(Rule::ClusterPartition), "{}", report.render());
    assert!(report.violates(Rule::ClusterOverlap), "{}", report.render());

    // PL024 alone: every node bound, but node 1 twice ({a,b} ∪ {b,c}).
    let mut left = scan_cluster(&fx, 0);
    left.nodes = left.nodes.union(NodeSet::singleton(PnId(1)));
    let mut right = scan_cluster(&fx, 1);
    right.nodes = right.nodes.union(NodeSet::singleton(PnId(2)));
    let overlapping = Status { clusters: vec![left, right], cost: 3.0 };
    let report = lint_status(&fx.pattern, &overlapping);
    assert!(report.violates(Rule::ClusterOverlap), "{}", report.render());
    assert!(!report.violates(Rule::ClusterPartition), "{}", report.render());

    // PL021: {a, c} skips b, so the cluster is disconnected.
    let mut gap = scan_cluster(&fx, 0);
    gap.nodes = gap.nodes.union(NodeSet::singleton(PnId(2)));
    let disconnected = Status { clusters: vec![gap, scan_cluster(&fx, 1)], cost: 3.0 };
    let report = lint_status(&fx.pattern, &disconnected);
    assert!(report.violates(Rule::ClusterConnected), "{}", report.render());

    // PL022: cluster {b} claims to be ordered by a.
    let mut misordered = scan_cluster(&fx, 1);
    misordered.ordered_by = PnId(0);
    let bad_order = Status {
        clusters: vec![scan_cluster(&fx, 0), misordered, scan_cluster(&fx, 2)],
        cost: 3.0,
    };
    let report = lint_status(&fx.pattern, &bad_order);
    assert!(report.violates(Rule::ClusterOrderMember), "{}", report.render());

    // PL023: non-finite status cost.
    let nan_cost = Status {
        clusters: vec![scan_cluster(&fx, 0), scan_cluster(&fx, 1), scan_cluster(&fx, 2)],
        cost: f64::NAN,
    };
    let report = lint_status(&fx.pattern, &nan_cost);
    assert!(report.violates(Rule::StatusCostSane), "{}", report.render());

    // PL025: one cluster's cardinality estimate is NaN; the status
    // cost itself stays sane, so only the cluster rule may fire.
    let mut nan_card_cluster = scan_cluster(&fx, 1);
    nan_card_cluster.card = f64::NAN;
    let nan_card = Status {
        clusters: vec![scan_cluster(&fx, 0), nan_card_cluster, scan_cluster(&fx, 2)],
        cost: 3.0,
    };
    let report = lint_status(&fx.pattern, &nan_card);
    assert!(report.violates(Rule::ClusterCardFinite), "{}", report.render());
    assert!(!report.violates(Rule::StatusCostSane), "{}", report.render());
}

// ---- cross-checks (PL030–PL033) ------------------------------------

/// The real optimizers agree with each other on every fixture query —
/// no cross-check rule fires.
#[test]
fn cross_checks_clean_on_real_optimizers() {
    for query in QUERIES {
        let fx = fixture(query);
        let report = lint_optimizers(&fx.pattern, &fx.estimates, &fx.model);
        assert!(report.is_clean(), "cross-checks for {query} dirty:\n{}", report.render());
    }
}

/// FP finds exactly the cheapest sort-free stack-tree plan — its cost
/// matches the exhaustive enumeration used by PL031.
#[test]
fn fp_matches_pipelined_enumeration() {
    for query in QUERIES {
        let fx = fixture(query);
        let fp = optimize(&fx.pattern, &fx.estimates, &fx.model, Algorithm::Fp).unwrap();
        let best = min_pipelined_cost(&fx.pattern, &fx.estimates, &fx.model)
            .expect("tree patterns always admit a sort-free plan");
        assert!(
            (fp.estimated_cost - best).abs() <= 1e-6 * best.abs().max(1.0),
            "{query}: FP found {}, enumeration found {best}",
            fp.estimated_cost
        );
    }
}

/// The ubCost sweep accepts the real search space.
#[test]
fn search_space_sweep_is_clean() {
    for query in ["//a/b/c", "//a[./b/c][.//e]"] {
        let fx = fixture(query);
        let report = lint_search_space(&fx.pattern, &fx.estimates, &fx.model);
        assert!(report.is_clean(), "{query}:\n{}", report.render());
    }
}
