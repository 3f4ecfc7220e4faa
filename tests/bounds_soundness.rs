//! Differential soundness of the static resource bounds (PL060–PL064):
//! over the paper's Table 1 queries on all three generated corpora —
//! plus hundreds of seeded random valid plans — the bound lattice must
//! be clean (intervals well-ordered and containing the cost model's
//! point estimates), and *every* execution at every batch granularity
//! must stay inside the statically derived peak-byte and batch-pull
//! bounds. Admission control must gate exactly at the bound: a budget
//! one byte (or one pull) below it rejects, the bound itself admits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sjos::core::random_plan;
use sjos::datagen::{dblp::dblp, mbench::mbench, paper_queries, pers::pers, DataSet, GenConfig};
use std::sync::Arc;

use sjos::{Algorithm, Database, ExecOptions, Pattern, PlanNode, QueryGuard, BATCH_ROWS};
use sjos_planck::{admit, lint_bounds, replay, Rule, DEFAULT_MEMORY_BUDGET};

/// Granularities under test: degenerate tuple-at-a-time, an awkward
/// size that never divides the row counts, and production.
const BATCH_SIZES: [usize; 3] = [1, 3, BATCH_ROWS];

/// Default options under a guard with the given budgets.
fn budgets(memory: Option<u64>, pulls: Option<u64>) -> ExecOptions {
    let mut guard = QueryGuard::unlimited();
    if let Some(bytes) = memory {
        guard = guard.with_memory_budget(usize::try_from(bytes).unwrap());
    }
    if let Some(pulls) = pulls {
        guard = guard.with_batch_budget(pulls);
    }
    ExecOptions { guard: Some(Arc::new(guard)), ..ExecOptions::default() }
}

fn corpus(dataset: DataSet) -> Database {
    let config = GenConfig::sized(1_200);
    Database::from_document(match dataset {
        DataSet::Mbench => mbench(config),
        DataSet::Dblp => dblp(config),
        DataSet::Pers => pers(config),
    })
}

/// Lint the bound lattice and replay the plan at every granularity;
/// any diagnostic — inverted interval, estimate outside the interval,
/// or an execution escaping its static bound — fails the test.
fn check_plan(db: &Database, pattern: &Pattern, plan: &PlanNode, label: &str) {
    let estimates = db.estimates(pattern);
    let model = *db.cost_model();
    for &rows in &BATCH_SIZES {
        let (bounds, report) = lint_bounds(pattern, &estimates, &model, plan, rows);
        assert!(report.is_clean(), "{label} at batch_rows={rows}: {report}");
        let opts = ExecOptions { batch_rows: rows, ..ExecOptions::default() };
        let report = replay(db.store(), pattern, plan, &opts)
            .unwrap_or_else(|e| panic!("{label} at batch_rows={rows}: {e}"))
            .within(&bounds, &opts);
        assert!(report.is_clean(), "{label} at batch_rows={rows}: {report}");
    }
}

#[test]
fn paper_plans_are_bounded_and_admissible() {
    for dataset in [DataSet::Mbench, DataSet::Dblp, DataSet::Pers] {
        let db = corpus(dataset);
        for q in paper_queries().into_iter().filter(|q| q.dataset == dataset) {
            let pattern = q.pattern();
            for algorithm in [Algorithm::Dpp { lookahead: true }, Algorithm::Fp] {
                let plan = db.optimize(&pattern, algorithm).unwrap().plan;
                check_plan(&db, &pattern, &plan, q.id);

                // Every Table 1 plan must pass admission at the
                // default production budget.
                let bounds = db.resource_bounds(&pattern, &plan);
                let verdict = admit(&bounds, &budgets(Some(DEFAULT_MEMORY_BUDGET), None));
                assert!(
                    verdict.is_clean(),
                    "{} ({}) rejected at the default budget: {verdict}",
                    q.id,
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn admission_gates_exactly_at_the_bound() {
    let db = corpus(DataSet::Pers);
    let pattern = sjos::parse_pattern("//manager//employee/name").unwrap();
    let plan = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap().plan;
    let bounds = db.resource_bounds(&pattern, &plan);
    assert!(bounds.peak_bytes > 0 && bounds.batch_pulls > 0);

    let starved = admit(&bounds, &budgets(Some(bounds.peak_bytes - 1), None));
    assert!(starved.violates(Rule::MemoryAdmissible), "{starved}");
    let throttled = admit(&bounds, &budgets(None, Some(bounds.batch_pulls - 1)));
    assert!(throttled.violates(Rule::BatchAdmissible), "{throttled}");
    let exact = admit(&bounds, &budgets(Some(bounds.peak_bytes), Some(bounds.batch_pulls)));
    assert!(exact.is_clean(), "{exact}");
    let unlimited = admit(&bounds, &ExecOptions::default());
    assert!(unlimited.is_clean(), "{unlimited}");
}

/// Run `count` seeded random valid plans per query through the full
/// lattice + replay check.
fn random_plans(db: &Database, queries: &[&str], count: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for query in queries {
        let pattern = sjos::parse_pattern(query).unwrap();
        for i in 0..count {
            let plan = random_plan(&pattern, &mut rng);
            check_plan(db, &pattern, &plan, &format!("{query} random#{i} (seed {seed})"));
        }
    }
}

#[test]
fn random_pers_plans_stay_inside_their_bounds() {
    let db = corpus(DataSet::Pers);
    random_plans(
        &db,
        &[
            "//manager//employee/name",
            "//manager[.//employee/name][./department/name]",
            "//department[./name[text()='sales']]/employee/name",
        ],
        60,
        101,
    );
}

#[test]
fn random_dblp_plans_stay_inside_their_bounds() {
    let db = corpus(DataSet::Dblp);
    random_plans(
        &db,
        &["//dblp/article[./author][./title]", "//dblp[./article/author][./inproceedings/title]"],
        60,
        202,
    );
}

#[test]
fn random_mbench_plans_stay_inside_their_bounds() {
    let db = corpus(DataSet::Mbench);
    random_plans(&db, &["//eNest/eNest/eOccasional", "//mbench/eNest//eOccasional"], 60, 303);
}

/// Recursive nesting is where naive cardinality bounds explode and
/// where the depth-levels argument earns its keep: eNest nests in
/// eNest, so stack depths exceed one — the bounds must still hold.
#[test]
fn recursive_nesting_stays_inside_its_bounds() {
    let db = corpus(DataSet::Mbench);
    random_plans(&db, &["//eNest//eNest//eNest"], 40, 404);
}
