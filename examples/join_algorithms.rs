//! Comparing the three binary structural join algorithms and the
//! holistic twig join on one query — the "plug in new access methods"
//! story of the paper's §2.2 and §6.
//!
//! ```sh
//! cargo run --release --example join_algorithms [node_count]
//! ```

use std::time::Instant;

use sjos::datagen::{pers::pers, GenConfig};
use sjos::exec::{JoinAlgo, PlanNode};
use sjos::pattern::PnId;
use sjos::Database;

fn main() {
    let nodes: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(50_000);
    let db = Database::from_document(pers(GenConfig::sized(nodes)));
    let pattern = sjos::parse_pattern("//manager//employee").unwrap();

    println!("binary join //manager//employee on ~{nodes} elements:\n");
    println!(
        "{:<16} {:>10} {:>12} {:>10} {:>12}",
        "algorithm", "time (ms)", "pairs", "sorted", "extra work"
    );
    for (label, algo) in [
        ("Stack-Tree-Desc", JoinAlgo::StackTreeDesc),
        ("Stack-Tree-Anc", JoinAlgo::StackTreeAnc),
        ("MPMGJN", JoinAlgo::MergeJoin),
    ] {
        let plan = PlanNode::StructuralJoin {
            left: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
            right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
            anc: PnId(0),
            desc: PnId(1),
            axis: sjos::pattern::Axis::Descendant,
            algo,
        };
        let t0 = Instant::now();
        let res = db.execute(&pattern, &plan, &sjos::ExecOptions::default()).unwrap();
        let extra = match algo {
            JoinAlgo::StackTreeDesc => format!("{} stack ops", res.metrics.stack_pushes * 2),
            JoinAlgo::StackTreeAnc => format!("{} buffered", res.metrics.buffered_pairs),
            JoinAlgo::MergeJoin => format!("{} rescans", res.metrics.merge_rescans),
        };
        println!(
            "{:<16} {:>10.2} {:>12} {:>10} {:>12}",
            label,
            t0.elapsed().as_secs_f64() * 1e3,
            res.len(),
            match algo {
                JoinAlgo::StackTreeDesc => "by desc",
                _ => "by anc",
            },
            extra,
        );
    }

    // The holistic alternative evaluates whole twigs without join
    // ordering at all.
    let twig_query = "//manager[.//employee/name][.//department/name]";
    let twig_pattern = sjos::parse_pattern(twig_query).unwrap();
    println!("\nwhole-twig evaluation of {twig_query}:");
    let t0 = Instant::now();
    let out = db.query(twig_query).unwrap();
    println!(
        "  binary plan (DPP): {:>8.2} ms, {} matches — {}",
        t0.elapsed().as_secs_f64() * 1e3,
        out.result.len(),
        out.optimized.plan
    );
    let t1 = Instant::now();
    let twig = db.holistic(&twig_pattern).expect("holistic evaluates");
    println!(
        "  TwigStack:         {:>8.2} ms, {} matches — {} path solutions",
        t1.elapsed().as_secs_f64() * 1e3,
        twig.metrics.matches,
        twig.metrics.path_solutions
    );
    assert_eq!(twig.metrics.matches as usize, out.result.len());
}
