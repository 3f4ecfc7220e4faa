//! Querying the DBLP-shaped bibliography: value predicates, order-by,
//! and what the statistics module believes about the data.
//!
//! ```sh
//! cargo run --release --example bibliography [node_count]
//! ```

use sjos::datagen::{dblp::dblp, GenConfig};
use sjos::pattern::PnId;
use sjos::{Algorithm, Database};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(50_000);
    let doc = dblp(GenConfig::sized(nodes));
    println!("bibliography with {} elements", doc.len());
    let db = Database::from_document(doc);

    // What does the catalog know?
    println!("\ncatalog cardinalities:");
    for tag in ["article", "inproceedings", "author", "title", "year", "cite"] {
        if let Some(t) = db.document().tag(tag) {
            println!("  {:<14} {:>8}", tag, db.catalog().cardinality(t));
        }
    }

    // 1. Articles by a specific author.
    let q1 = "//article[./author[text()='wu']]/title";
    let out1 = db.query(q1)?;
    println!("\n{q1}\n  plan {}\n  {} matches", out1.optimized.plan, out1.result.len());

    // 2. Estimated vs actual cardinality for the same query.
    let pattern = sjos::parse_pattern(q1)?;
    let est = db.estimates(&pattern);
    let predicted = est.cluster_cardinality(&pattern, pattern.all_nodes());
    println!("  estimator predicted {predicted:.1} matches");

    // 3. An order-by query: titles of cited publications, ordered by
    //    the publication (pattern node 0).
    let mut ordered = sjos::parse_pattern("//inproceedings[./cite]/title")?;
    ordered.set_order_by(PnId(0));
    let plan = db.optimize(&ordered, Algorithm::Fp).expect("optimizes");
    let res = db.execute(&ordered, &plan.plan, &sjos::ExecOptions::default())?;
    println!(
        "\n//inproceedings[./cite]/title order by node 0\n  plan {} (pipelined: {})\n  {} matches, {} sorts",
        plan.plan,
        plan.plan.is_fully_pipelined(),
        res.len(),
        res.metrics.sort_operations
    );

    // 4. Show a couple of bound titles.
    for row in res.canonical_rows().iter().take(3) {
        let title = db.document().node(row[2]);
        println!("  e.g. \"{}\"", title.text);
    }
    Ok(())
}
