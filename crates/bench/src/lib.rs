//! # sjos-bench
//!
//! Harness utilities shared by the table/figure binaries that
//! regenerate the paper's evaluation (§4):
//!
//! | binary  | reproduces |
//! |---------|-----------|
//! | `table1`| Table 1 — optimization + plan-evaluation times, 8 queries × 5 algorithms + bad plan |
//! | `table2`| Table 2 — optimization time and # plans considered for Q.Pers.3.d |
//! | `table3`| Table 3 — plan execution time vs folding factor (×1/×10/×100/×500) |
//! | `fig7`  | Figure 7 — DPAP-EB `T_e` sweep at folding ×100 |
//! | `fig8`  | Figure 8 — DPAP-EB `T_e` sweep at folding ×1 |
//! | `extended` | optimization cost vs pattern size (beyond the paper) |
//!
//! Scale control: by default the corpora are generated at reduced
//! sizes so the full suite finishes in minutes; set `SJOS_BENCH_FULL=1`
//! for the paper's node counts (Mbench 740 K, DBLP 500 K, Pers 5 K)
//! and the ×500 folding point.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sjos_core::{optimize, Algorithm, CostModel, OptimizedPlan};
use sjos_datagen::{dblp::dblp, fold_document, mbench::mbench, pers::pers};
use sjos_datagen::{paper_sizes, DataSet, GenConfig, Workload};
use sjos_exec::{execute, ExecOptions};
use sjos_pattern::Pattern;
use sjos_stats::{Catalog, PatternEstimates};
use sjos_storage::XmlStore;
use sjos_xml::Document;

/// Whether the harness runs at the paper's full data sizes.
pub fn full_scale() -> bool {
    std::env::var("SJOS_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// Node-count target for one data set at the current scale.
pub fn dataset_size(ds: DataSet) -> usize {
    let full = full_scale();
    match ds {
        DataSet::Mbench => {
            if full {
                paper_sizes::MBENCH
            } else {
                60_000
            }
        }
        DataSet::Dblp => {
            if full {
                paper_sizes::DBLP
            } else {
                60_000
            }
        }
        // Pers is tiny in the paper already.
        DataSet::Pers => paper_sizes::PERS,
    }
}

/// Generate one corpus at the current scale.
pub fn generate(ds: DataSet) -> Document {
    let config = GenConfig::sized(dataset_size(ds));
    match ds {
        DataSet::Mbench => mbench(config),
        DataSet::Dblp => dblp(config),
        DataSet::Pers => pers(config),
    }
}

/// The corpus file a bench binary was pointed at, if any.
///
/// Binaries default to generating the paper's corpora in memory, but
/// an operator can aim them at an on-disk document with `--xml <path>`
/// (or the `SJOS_BENCH_XML` environment variable; the flag wins). The
/// file is read and parsed eagerly here so a missing, unreadable, or
/// malformed file comes back as a clean `Err` the binary can print
/// and turn into a nonzero exit — never a panic halfway through a
/// benchmark run.
pub fn corpus_override() -> Result<Option<Document>, String> {
    let mut path = std::env::var("SJOS_BENCH_XML").ok().filter(|p| !p.is_empty());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--xml" => {
                path = Some(args.next().ok_or("--xml requires a file path")?);
            }
            other => {
                return Err(format!(
                    "unrecognized argument `{other}` (only --xml <file> is accepted)"
                ));
            }
        }
    }
    let Some(path) = path else { return Ok(None) };
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read corpus {path}: {e}"))?;
    let doc = Document::parse(&text).map_err(|e| format!("corrupt corpus {path}: {e}"))?;
    Ok(Some(doc))
}

/// A loaded corpus ready for measurement.
pub struct Bench {
    store: XmlStore,
    catalog: Catalog,
}

impl Bench {
    /// Load a document.
    pub fn load(doc: Document) -> Bench {
        let catalog = Catalog::build(&doc);
        let store = XmlStore::load(doc);
        Bench { store, catalog }
    }

    /// Load one of the paper's corpora at the current scale.
    pub fn dataset(ds: DataSet) -> Bench {
        Self::load(generate(ds))
    }

    /// The underlying store.
    pub fn store(&self) -> &XmlStore {
        &self.store
    }

    /// Cardinality estimates for a pattern.
    pub fn estimates(&self, pattern: &Pattern) -> PatternEstimates {
        PatternEstimates::new(&self.catalog, self.store.document(), pattern)
    }

    /// Optimize, timing over `reps` repetitions (median).
    pub fn time_optimize(
        &self,
        pattern: &Pattern,
        algorithm: Algorithm,
        reps: usize,
    ) -> (OptimizedPlan, Duration) {
        let est = self.estimates(pattern);
        let model = CostModel::default();
        let mut times = Vec::with_capacity(reps.max(1));
        let mut out = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let o = optimize(pattern, &est, &model, algorithm);
            times.push(t0.elapsed());
            out = Some(o.expect("benchmark patterns are well-formed and must optimize"));
        }
        times.sort();
        (out.expect("reps >= 1"), times[times.len() / 2])
    }

    /// One Table-1-style measurement: optimize (median of `reps`) and
    /// execute once.
    pub fn measure(&self, pattern: &Pattern, algorithm: Algorithm, reps: usize) -> Measurement {
        let (optimized, opt_time) = self.time_optimize(pattern, algorithm, reps);
        // Count rather than collect: folded corpora can produce tens
        // of millions of matches.
        let counting = ExecOptions { collect: false, ..ExecOptions::default() };
        let result = execute(&self.store, pattern, &optimized.plan, &counting)
            .expect("optimizer plans are valid")
            .result;
        Measurement {
            algorithm,
            opt_time,
            eval_time: result.elapsed,
            matches: result.len() as u64,
            plans_considered: optimized.stats.plans_considered,
            statuses_expanded: optimized.stats.statuses_expanded,
            estimated_cost: optimized.estimated_cost,
            plan: optimized.plan.to_string(),
            pipelined: result.metrics.sort_operations == 0,
        }
    }
}

/// One (query, algorithm) measurement row.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Median optimization time.
    pub opt_time: Duration,
    /// Plan execution wall time.
    pub eval_time: Duration,
    /// Result cardinality.
    pub matches: u64,
    /// Alternatives priced during the search.
    pub plans_considered: u64,
    /// Statuses expanded during the search.
    pub statuses_expanded: u64,
    /// Model cost of the chosen plan.
    pub estimated_cost: f64,
    /// Plan rendering.
    pub plan: String,
    /// True when execution performed no sorts.
    pub pipelined: bool,
}

/// Format a `Duration` in seconds with millisecond resolution, like
/// the paper's tables.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// The standard algorithm line-up of Table 1.
pub fn table1_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Dp,
        Algorithm::Dpp { lookahead: true },
        Algorithm::DpapEb { te: 0 }, // placeholder; per-query Te = edge count
        Algorithm::DpapLd,
        Algorithm::Fp,
        Algorithm::WorstRandom { samples: 64, seed: 2003 },
    ]
}

/// Resolve the per-query DPAP-EB `T_e` (the paper sets it to the
/// pattern's edge count in Table 1).
pub fn resolve_te(alg: Algorithm, pattern: &Pattern) -> Algorithm {
    match alg {
        Algorithm::DpapEb { te: 0 } => Algorithm::DpapEb { te: pattern.edge_count() },
        other => other,
    }
}

/// Cache of generated corpora so several queries share one instance.
#[derive(Default)]
pub struct CorpusCache {
    cache: HashMap<&'static str, Bench>,
}

impl CorpusCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or build the bench for a workload's data set.
    pub fn bench(&mut self, w: &Workload) -> &Bench {
        self.cache.entry(w.dataset.name()).or_insert_with(|| Bench::dataset(w.dataset))
    }
}

/// Shared driver for the Figure 7 / Figure 8 `T_e` sweeps.
pub mod figures {
    use super::*;
    use sjos_datagen::paper_queries;

    /// Run the DPAP-EB `T_e` sweep of Figures 7/8 on Q.Pers.3.d at
    /// the given folding factor, printing optimization, evaluation,
    /// and total time per configuration plus the fixed algorithms for
    /// comparison.
    pub fn te_sweep(fold: usize, title: &str) {
        let q = paper_queries().into_iter().find(|q| q.id == "Q.Pers.3.d").expect("catalog query");
        let pattern = q.pattern();
        println!("{title}: opt/eval/total time for {}\n", q.id);
        eprintln!("loading Pers at fold x{fold} ...");
        let base = pers(GenConfig::sized(dataset_size(DataSet::Pers)));
        let bench = Bench::load(fold_document(&base, fold));

        let widths = [14usize, 12, 12, 12, 10];
        print_row(
            &[
                "config".into(),
                "opt (ms)".into(),
                "eval (ms)".into(),
                "total (ms)".into(),
                "bar".into(),
            ],
            &widths,
        );
        let mut rows: Vec<(String, Duration, Duration)> = Vec::new();
        for te in 1..=pattern.len() {
            let m = bench.measure(&pattern, Algorithm::DpapEb { te }, 9);
            rows.push((format!("DPAP-EB({te})"), m.opt_time, m.eval_time));
        }
        for alg in
            [Algorithm::DpapLd, Algorithm::Dpp { lookahead: true }, Algorithm::Dp, Algorithm::Fp]
        {
            let m = bench.measure(&pattern, alg, 9);
            rows.push((alg.name().to_string(), m.opt_time, m.eval_time));
        }
        let max_total =
            rows.iter().map(|(_, o, e)| o.as_secs_f64() + e.as_secs_f64()).fold(0.0f64, f64::max);
        for (name, opt, eval) in rows {
            let total = opt.as_secs_f64() + eval.as_secs_f64();
            let bar_len =
                if max_total > 0.0 { ((total / max_total) * 24.0).ceil() as usize } else { 0 };
            print_row(
                &[
                    name,
                    format!("{:.3}", opt.as_secs_f64() * 1e3),
                    format!("{:.3}", eval.as_secs_f64() * 1e3),
                    format!("{:.3}", total * 1e3),
                    "#".repeat(bar_len.max(1)),
                ],
                &widths,
            );
        }
        println!(
            "\nExpected shape (paper): evaluation time falls as T_e grows and plateaus at\n\
             the optimum while optimization time keeps rising toward DPP's; at small data\n\
             sizes (Figure 8) the total shows a \"U\" and FP is the best overall."
        );
    }
}

/// Write measurement rows as CSV under `target/sjos-bench/` so runs
/// can be diffed and plotted; returns the path written.
pub fn write_csv(
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target/sjos-bench");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        out.push_str(&escaped.join(","));
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Render one line of a fixed-width table.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjos_datagen::paper_queries;

    #[test]
    fn scales_are_sane() {
        for ds in [DataSet::Mbench, DataSet::Dblp, DataSet::Pers] {
            assert!(dataset_size(ds) >= 5_000);
        }
    }

    #[test]
    fn measure_runs_end_to_end_on_a_small_corpus() {
        let doc = pers(GenConfig::sized(1_000));
        let bench = Bench::load(doc);
        let q = paper_queries().into_iter().find(|q| q.id == "Q.Pers.1.a").unwrap();
        let pattern = q.pattern();
        let m = bench.measure(&pattern, Algorithm::Fp, 3);
        assert!(m.matches > 0);
        assert!(m.plans_considered > 0);
        assert!(m.pipelined);
    }

    #[test]
    fn te_placeholder_resolves_to_edge_count() {
        let q = paper_queries().into_iter().find(|q| q.id == "Q.Pers.3.d").unwrap();
        let pattern = q.pattern();
        match resolve_te(Algorithm::DpapEb { te: 0 }, &pattern) {
            Algorithm::DpapEb { te } => assert_eq!(te, 5),
            other => panic!("{other:?}"),
        }
        assert_eq!(resolve_te(Algorithm::Fp, &pattern), Algorithm::Fp);
    }

    #[test]
    fn fold_document_reachable_from_bench() {
        let doc = pers(GenConfig::sized(500));
        let folded = fold_document(&doc, 3);
        let bench = Bench::load(folded);
        assert!(bench.store().document().len() > 1_000);
    }
}
