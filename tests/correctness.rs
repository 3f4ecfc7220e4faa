//! End-to-end correctness: every optimizer's plan, executed through
//! the full storage + executor stack, must return exactly the matches
//! the naive navigational evaluator finds.

use sjos::datagen::{dblp::dblp, mbench::mbench, pers::pers, GenConfig};
use sjos::{Algorithm, Database, ExecOptions};
use sjos_exec::naive;

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Dp,
        Algorithm::Dpp { lookahead: true },
        Algorithm::Dpp { lookahead: false },
        Algorithm::DpapEb { te: 1 },
        Algorithm::DpapEb { te: 4 },
        Algorithm::DpapLd,
        Algorithm::Fp,
        Algorithm::WorstRandom { samples: 5, seed: 99 },
    ]
}

fn check_queries(db: &Database, queries: &[&str]) {
    for q in queries {
        let pattern = sjos::parse_pattern(q).unwrap();
        let expected = naive::evaluate(db.document(), &pattern);
        for alg in algorithms() {
            let out = db.query_with(q, alg).unwrap();
            let got = out.result.canonical_rows();
            assert_eq!(
                got.len(),
                expected.len(),
                "{q} via {}: {} rows, naive {}",
                alg.name(),
                got.len(),
                expected.len()
            );
            assert_eq!(got, expected, "{q} via {}", alg.name());
        }
    }
}

#[test]
fn pers_queries_match_naive_evaluation() {
    let db = Database::from_document(pers(GenConfig::sized(2_000)));
    check_queries(
        &db,
        &[
            "//manager//employee/name",
            "//manager[.//employee/name][./department/name]",
            "//manager[.//employee/name][.//manager/department/name]",
            "//manager[.//department/name][.//manager/employee/name]",
            "//manager//manager//employee",
            "//personnel//department/employee",
        ],
    );
}

#[test]
fn dblp_queries_match_naive_evaluation() {
    let db = Database::from_document(dblp(GenConfig::sized(2_000)));
    check_queries(
        &db,
        &[
            "//dblp/article[./author][./title]",
            "//dblp[./article/author][./inproceedings/title]",
            "//article/author",
            "//inproceedings[./cite]/year",
        ],
    );
}

#[test]
fn mbench_queries_match_naive_evaluation() {
    let db = Database::from_document(mbench(GenConfig::sized(1_200)));
    check_queries(
        &db,
        &[
            "//eNest/eNest/eOccasional",
            "//eNest[./eOccasional]/eNest/eNest",
            "//mbench/eNest//eOccasional",
        ],
    );
}

#[test]
fn value_predicates_match_naive_evaluation() {
    let db = Database::from_document(pers(GenConfig::sized(1_500)));
    check_queries(
        &db,
        &[
            "//manager/department[./name[text()='research']]",
            "//department[./name[text()='sales']]/employee/name",
        ],
    );
}

#[test]
fn order_by_plans_deliver_sorted_output() {
    let db = Database::from_document(pers(GenConfig::sized(1_500)));
    let mut pattern = sjos::parse_pattern("//manager//employee/name").unwrap();
    for target in 0..3u16 {
        pattern.set_order_by(sjos::pattern::PnId(target));
        for alg in [Algorithm::Dpp { lookahead: true }, Algorithm::Fp] {
            let optimized = db.optimize(&pattern, alg).unwrap();
            let result = db.execute(&pattern, &optimized.plan, &ExecOptions::default()).unwrap();
            let col =
                result.schema.position(sjos::pattern::PnId(target)).expect("order-by column bound");
            let starts: Vec<u32> =
                result.tuples.iter().map(|t| db.document().region(t[col].node).start).collect();
            assert!(
                starts.windows(2).all(|w| w[0] <= w[1]),
                "{} output not ordered by node {target}",
                alg.name()
            );
        }
    }
}

#[test]
fn tiny_buffer_pool_does_not_change_answers() {
    let doc = pers(GenConfig::sized(4_000));
    let expected = {
        let db = Database::from_document(doc.clone());
        db.query("//manager//employee/name").unwrap().result.canonical_rows()
    };
    // A two-frame pool forces constant eviction; answers must not
    // change (operators buffer one page of records at a time and never
    // hold pins across steps).
    let db_small = Database::from_document_with(
        doc,
        sjos::StoreConfig {
            buffer_pool_bytes: 2 * sjos::storage::PAGE_SIZE,
            ..sjos::StoreConfig::default()
        },
        sjos::CostModel::default(),
    );
    let got = db_small.query("//manager//employee/name").unwrap();
    assert_eq!(got.result.canonical_rows(), expected);
    assert!(got.result.io.evictions > 0, "small pool must actually evict");
}
