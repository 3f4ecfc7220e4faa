//! The paper's running scenario end-to-end: generate the personnel
//! data set, optimize the Fig. 1 query with all five algorithms plus
//! the random baseline, execute every plan, and compare.
//!
//! ```sh
//! cargo run --release --example personnel [node_count]
//! ```

use std::time::Instant;

use sjos::datagen::{pers::pers, GenConfig};
use sjos::{Algorithm, Database};

fn main() {
    let nodes: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    println!("generating Pers with ~{nodes} elements ...");
    let doc = pers(GenConfig::sized(nodes));
    println!("loading {} elements into the store ...", doc.len());
    let db = Database::from_document(doc);

    let query = "//manager[.//employee/name][.//manager/department/name]";
    println!("\nquery: {query} (the paper's Fig. 1 pattern)\n");
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>12} {:>9}  plan",
        "algorithm", "opt (ms)", "est. cost", "eval (ms)", "tuples", "sorts"
    );

    let algorithms = [
        Algorithm::Dp,
        Algorithm::Dpp { lookahead: true },
        Algorithm::DpapEb { te: 6 },
        Algorithm::DpapLd,
        Algorithm::Fp,
        Algorithm::BAD_PLAN,
    ];
    let mut reference: Option<usize> = None;
    for alg in algorithms {
        let t0 = Instant::now();
        let pattern = sjos::parse_pattern(query).unwrap();
        let optimized = db.optimize(&pattern, alg).expect("optimizes");
        let opt_ms = t0.elapsed().as_secs_f64() * 1e3;
        let result = db.execute(&pattern, &optimized.plan, &sjos::ExecOptions::default()).unwrap();
        match reference {
            Some(n) => assert_eq!(n, result.len(), "all plans must agree"),
            None => reference = Some(result.len()),
        }
        println!(
            "{:<12} {:>10.2} {:>12.0} {:>10.2} {:>12} {:>9}  {}",
            alg.name(),
            opt_ms,
            optimized.estimated_cost,
            result.elapsed.as_secs_f64() * 1e3,
            result.metrics.produced_tuples,
            result.metrics.sort_operations,
            optimized.plan,
        );
    }
    println!("\nmatches: {}", reference.unwrap());
}
