//! Wildcard (`*`) pattern nodes and the `order by` query clause,
//! end-to-end across every evaluation strategy.

use sjos::datagen::{pers::pers, GenConfig};
use sjos::{Algorithm, Database};
use sjos_exec::naive;

fn db() -> Database {
    Database::from_document(pers(GenConfig::sized(1_200)))
}

#[test]
fn wildcard_queries_match_naive() {
    let db = db();
    for q in [
        "//manager/*",
        "//manager/*/name",
        "//*/employee",
        "//manager[./*/name]//employee",
        "//personnel//*//name",
    ] {
        let pattern = sjos::parse_pattern(q).unwrap();
        let expected = naive::evaluate(db.document(), &pattern);
        for alg in [Algorithm::Dpp { lookahead: true }, Algorithm::Fp] {
            let got = db.query_with(q, alg).unwrap().result.canonical_rows();
            assert_eq!(got, expected, "{q} via {}", alg.name());
        }
        let twig = db.holistic(&pattern).unwrap();
        assert_eq!(twig.rows, expected, "{q} via holistic");
    }
}

#[test]
fn wildcard_scan_uses_the_heap_file() {
    let db = db();
    let out = db.query("//manager/*").unwrap();
    // A wildcard scan must read every element record once.
    assert!(
        out.result.metrics.scanned_records >= db.document().len() as u64,
        "{} scanned < {} elements",
        out.result.metrics.scanned_records,
        db.document().len()
    );
}

#[test]
fn wildcard_estimates_use_total_cardinality() {
    let db = db();
    let pattern = sjos::parse_pattern("//*").unwrap();
    let est = db.estimates(&pattern);
    assert_eq!(est.node_cardinality(sjos::pattern::PnId(0)), db.document().len() as f64);
}

#[test]
fn order_by_clause_orders_execution_output() {
    let db = db();
    for (q, col_pn) in [
        ("//manager//employee/name order by #0", 0usize),
        ("//manager//employee/name order by employee", 1),
        ("//manager//employee/name order by name", 2),
    ] {
        let pattern = sjos::parse_pattern(q).unwrap();
        assert_eq!(pattern.order_by(), Some(sjos::pattern::PnId(col_pn as u16)));
        for alg in [Algorithm::Dpp { lookahead: true }, Algorithm::Fp] {
            let out = db.query_with(q, alg).unwrap();
            let col = out.result.schema.position(sjos::pattern::PnId(col_pn as u16)).unwrap();
            let starts: Vec<u32> =
                out.result.tuples.iter().map(|t| db.document().region(t[col].node).start).collect();
            assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{q} via {} not ordered", alg.name());
        }
    }
}

#[test]
fn wildcard_with_value_predicate() {
    let db = Database::from_xml("<r><a>x</a><b>x</b><c>y</c><d><e>x</e></d></r>").unwrap();
    let q = "//r/*[text()='x']";
    let pattern = sjos::parse_pattern(q).unwrap();
    let expected = naive::evaluate(db.document(), &pattern);
    assert_eq!(expected.len(), 2, "a and b only (e is not a child of r)");
    let got = db.query(q).unwrap().result.canonical_rows();
    assert_eq!(got, expected);
}
