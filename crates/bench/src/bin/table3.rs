//! Table 3: plan execution time vs data size (folding factor) for
//! query Q.Pers.3.d — the experiment behind the paper's §4.3 finding
//! that the optimal plan shifts from left-deep to fully-pipelined
//! bushy as data grows.
//!
//! ```sh
//! cargo run --release -p sjos-bench --bin table3          # folds 1, 10, 100
//! SJOS_BENCH_FULL=1 cargo run --release -p sjos-bench --bin table3   # adds 500
//! ```

use std::process::ExitCode;

use sjos_bench::{corpus_override, print_row, resolve_te, secs, Bench};
use sjos_core::Algorithm;
use sjos_datagen::{fold_document, paper_queries, pers::pers, DataSet, GenConfig};

fn main() -> ExitCode {
    let override_doc = match corpus_override() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let q = paper_queries().into_iter().find(|q| q.id == "Q.Pers.3.d").expect("catalog query");
    let pattern = q.pattern();
    println!("Table 3: data size vs plan execution time (s) for {}\n", q.id);

    let folds: Vec<usize> =
        if sjos_bench::full_scale() { vec![1, 10, 100, 500] } else { vec![1, 10, 100] };
    let base = match override_doc {
        Some(doc) => doc,
        None => pers(GenConfig::sized(sjos_bench::dataset_size(DataSet::Pers))),
    };

    let algorithms = [
        Algorithm::Dp,
        Algorithm::Dpp { lookahead: true },
        Algorithm::DpapEb { te: 0 },
        Algorithm::DpapLd,
        Algorithm::Fp,
        Algorithm::BAD_PLAN,
    ];

    let mut widths = vec![12usize];
    let mut header = vec!["".to_string()];
    for f in &folds {
        header.push(format!("x{f}"));
        widths.push(12);
    }
    header.push("plan shape trend".into());
    widths.push(40);
    print_row(&header, &widths);

    // Pre-load the folded instances once.
    let benches: Vec<(usize, Bench)> = folds
        .iter()
        .map(|&f| {
            eprintln!("loading fold x{f} ...");
            (f, Bench::load(fold_document(&base, f)))
        })
        .collect();

    for alg in algorithms {
        let alg = resolve_te(alg, &pattern);
        let mut cells = vec![alg.name().to_string()];
        let mut shapes = Vec::new();
        for (_, bench) in &benches {
            let m = bench.measure(&pattern, alg, 3);
            cells.push(secs(m.eval_time));
            shapes.push(if m.pipelined { "FP" } else { "blk" });
        }
        cells.push(shapes.join(" -> "));
        print_row(&cells, &widths);
    }
    println!(
        "\nExpected shape (paper): all optimizers track each other at x1; as the fold\n\
         grows, DPAP-LD's left-deep plan falls behind the pipelined bushy optimum that\n\
         DP/DPP/FP choose, and the bad plan degrades fastest of all."
    );
    ExitCode::SUCCESS
}
