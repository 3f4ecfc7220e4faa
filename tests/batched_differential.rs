//! Differential testing of the batched executor: over seeded generated
//! documents, every optimizer's plan — plus seeded random valid plans —
//! replayed at several batch granularities must return exactly the
//! bindings the naive navigational evaluator finds, and the replays
//! must match each other under planck's PL068 check: the same row
//! sequence and the same exact work counters whatever the batch size.
//! A query result keeps the root's batches as emitted, so result
//! equality must not see where those batches break — across
//! granularities or morsels.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sjos::core::random_plan;
use sjos::datagen::{
    dblp::dblp, fold_document, mbench::mbench, paper_queries, pers::pers, GenConfig,
};
use sjos::planck::{replay, Replay};
use sjos::{Algorithm, Database, ExecOptions, PlanNode};
use sjos_exec::{naive, JoinAlgo, BATCH_ROWS};

/// Granularities under test: the tuple-at-a-time degenerate case, an
/// awkward size that never divides the row counts, and production.
const BATCH_SIZES: [usize; 3] = [1, 3, BATCH_ROWS];

fn optimizers() -> Vec<Algorithm> {
    vec![
        Algorithm::Dp,
        Algorithm::Dpp { lookahead: true },
        Algorithm::DpapEb { te: 2 },
        Algorithm::DpapLd,
        Algorithm::Fp,
    ]
}

fn check(db: &Database, query: &str, seed: u64) {
    let pattern = sjos::parse_pattern(query).unwrap();
    let expected = naive::evaluate(db.document(), &pattern);

    let mut plans: Vec<(String, PlanNode)> = optimizers()
        .into_iter()
        .map(|alg| (alg.name().to_string(), db.optimize(&pattern, alg).unwrap().plan))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..2 {
        plans.push((format!("random#{i}"), random_plan(&pattern, &mut rng)));
    }

    for (name, plan) in &plans {
        let mut reference: Option<Replay> = None;
        for &rows in &BATCH_SIZES {
            let at = format!("{query} via {name} at batch_rows={rows} (seed {seed})");
            let opts = ExecOptions { batch_rows: rows, ..ExecOptions::default() };
            let run =
                replay(db.store(), &pattern, plan, &opts).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(run.outcome.result.canonical_rows(), expected, "{at}");
            match &reference {
                Some(first) => {
                    let report = run.matches(first, db.store(), &pattern, plan);
                    assert!(report.is_clean(), "{at}: counters or rows moved:\n{report}");
                }
                None => reference = Some(run),
            }
        }
    }
}

#[test]
fn pers_documents_across_seeds() {
    for seed in [1u64, 7, 42] {
        let db = Database::from_document(pers(GenConfig { target_nodes: 1_200, seed }));
        check(&db, "//manager//employee/name", seed);
        check(&db, "//manager[.//employee/name][./department/name]", seed);
        check(&db, "//manager//manager//employee", seed);
    }
}

#[test]
fn dblp_documents_across_seeds() {
    for seed in [3u64, 11] {
        let db = Database::from_document(dblp(GenConfig { target_nodes: 1_500, seed }));
        check(&db, "//dblp/article[./author][./title]", seed);
        check(&db, "//dblp[./article/author][./inproceedings/title]", seed);
    }
}

#[test]
fn mbench_documents_across_seeds() {
    for seed in [5u64, 23] {
        let db = Database::from_document(mbench(GenConfig { target_nodes: 1_000, seed }));
        check(&db, "//eNest/eNest/eOccasional", seed);
        check(&db, "//mbench/eNest//eOccasional", seed);
    }
}

#[test]
fn value_predicates_across_batch_sizes() {
    let db = Database::from_document(pers(GenConfig { target_nodes: 1_500, seed: 9 }));
    check(&db, "//department[./name[text()='sales']]/employee/name", 9);
}

fn uses_anc(plan: &PlanNode) -> bool {
    match plan {
        PlanNode::IndexScan { .. } => false,
        PlanNode::Sort { input, .. } => uses_anc(input),
        PlanNode::StructuralJoin { left, right, algo, .. } => {
            *algo == JoinAlgo::StackTreeAnc || uses_anc(left) || uses_anc(right)
        }
    }
}

/// One Pers and one Mbench query (the two whose collection cost
/// dominated before results kept their batches), run at batch_rows
/// 1, 7 and 1024 and as a 2-worker morsel run: the results hold
/// differently broken batch lists yet must compare equal, row for
/// row (the row-sequence half of PL068), and give identical canonical
/// rows.
#[test]
fn results_compare_equal_however_batches_break() {
    let mut saw_anc = false;
    for id in ["Q.Pers.3.d", "Q.Mbench.2.b"] {
        let q = paper_queries().into_iter().find(|q| q.id == id).expect("Table-1 query");
        let doc = if id.starts_with("Q.Pers") {
            pers(GenConfig::sized(600))
        } else {
            mbench(GenConfig::sized(700))
        };
        // Folded copies give the partitioner clean cuts.
        let db = Database::from_document(fold_document(&doc, 5));
        let pattern = q.pattern();
        for alg in [Algorithm::Dpp { lookahead: true }, Algorithm::Fp] {
            let plan = db.optimize(&pattern, alg).expect("optimizes").plan;
            saw_anc |= uses_anc(&plan);
            let run = |opts: &ExecOptions| replay(db.store(), &pattern, &plan, opts).unwrap();
            let base = run(&ExecOptions::default());
            let rows_of = |r: &Replay| r.outcome.result.canonical_rows();
            assert!(base.outcome.result.len() > 7, "{id}: fixture must span several 7-row batches");
            let canonical = rows_of(&base);
            let mut batch_counts = Vec::new();
            for rows in [1, 7, BATCH_ROWS] {
                let r = run(&ExecOptions { batch_rows: rows, ..ExecOptions::default() });
                batch_counts.push(r.outcome.result.tuples.batches().len());
                let report = r.matches(&base, db.store(), &pattern, &plan);
                assert!(
                    report.is_clean(),
                    "{id} via {} at batch_rows={rows}: {report}",
                    alg.name()
                );
                assert_eq!(rows_of(&r), canonical, "{id} at batch_rows={rows}");
            }
            // A Desc batch overshoots its target by one descendant's
            // matches, so 1 and 7 may break alike; 1 and 1024 cannot.
            assert!(
                batch_counts[0] > batch_counts[2],
                "{id}: the batch lists must break differently: {batch_counts:?}"
            );
            let par = run(&ExecOptions { threads: 2, ..ExecOptions::default() });
            assert!(par.outcome.morsel_count() > 1, "{id}: folded corpus must split");
            let report = par.matches(&base, db.store(), &pattern, &plan);
            assert!(report.is_clean(), "{id} via {}: 2 workers: {report}", alg.name());
            assert_eq!(rows_of(&par), canonical, "{id}: 2 workers");
        }
    }
    assert!(saw_anc, "at least one plan must exercise Stack-Tree-Anc");
}
