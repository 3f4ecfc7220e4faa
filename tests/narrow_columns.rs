//! Differential test of column narrowing: a column drops its region
//! after the last join that reads it, and that must change nothing but
//! memory. Every Table-1 query under DPP, FP and two seeded random
//! plans (which mix Stack-Tree-Anc, Stack-Tree-Desc, MPMGJN-free sorts
//! and bushy shapes), at every batch size, thread count and spill
//! setting, runs once narrow (the default) and once with every column
//! wide. The two replays must match under planck's PL068 check (the
//! same rows in the same order, exact counters, valid cuts), cut the
//! same morsels, and agree on every counter — per morsel and merged,
//! spill page traffic included — except `peak_bytes`, which narrowing
//! may only lower.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sjos::core::random_plan;
use sjos::datagen::{
    dblp::dblp, fold_document, mbench::mbench, paper_queries, pers::pers, DataSet, GenConfig,
};
use sjos::planck::replay;
use sjos::{Algorithm, Database, ExecOptions, PlanNode, SpillPolicy};
use sjos_exec::{MetricsSnapshot, BATCH_ROWS};

const BATCH_SIZES: [usize; 3] = [1, 3, BATCH_ROWS];

/// `(threads, spill)` settings. A spilling run is one morsel whatever
/// its thread count, so spilling is run once, serially.
fn settings() -> [(usize, Option<SpillPolicy>); 4] {
    [(1, None), (2, None), (4, None), (1, Some(SpillPolicy::with_threshold(0)))]
}

/// Folded corpora, as in the parallel tests, so that multi-threaded
/// runs really split into morsels.
fn corpus(ds: DataSet) -> Database {
    let doc = match ds {
        DataSet::Mbench => mbench(GenConfig::sized(300)),
        DataSet::Dblp => dblp(GenConfig::sized(300)),
        DataSet::Pers => pers(GenConfig::sized(300)),
    };
    Database::from_document(fold_document(&doc, 3))
}

/// `m` with the wide run's peak, so the rest compares exactly.
fn with_peak(m: MetricsSnapshot, peak_bytes: u64) -> MetricsSnapshot {
    MetricsSnapshot { peak_bytes, ..m }
}

fn check_dataset(ds: DataSet) {
    let db = corpus(ds);
    let mut split = false;
    let mut spilled = false;
    let mut narrower = false;
    for q in paper_queries().into_iter().filter(|q| q.dataset == ds) {
        let pattern = q.pattern();
        let optimized = |alg| db.optimize(&pattern, alg).unwrap().plan;
        let mut rng = StdRng::seed_from_u64(20);
        let plans: [(&str, PlanNode); 4] = [
            ("DPP", optimized(Algorithm::Dpp { lookahead: true })),
            ("FP", optimized(Algorithm::Fp)),
            ("random#0", random_plan(&pattern, &mut rng)),
            ("random#1", random_plan(&pattern, &mut rng)),
        ];
        for (name, plan) in &plans {
            for batch_rows in BATCH_SIZES {
                for (threads, spill) in settings() {
                    // Only sorts spill: without one, the spill setting
                    // repeats the serial run.
                    if spill.is_some() && plan.is_fully_pipelined() {
                        continue;
                    }
                    let at = format!(
                        "{} via {name} at batch_rows {batch_rows}, {threads} threads, \
                         spill {spill:?}",
                        q.id
                    );
                    let run = |narrow| {
                        let opts = ExecOptions {
                            batch_rows,
                            threads,
                            spill,
                            narrow,
                            ..ExecOptions::default()
                        };
                        replay(db.store(), &pattern, plan, &opts)
                            .unwrap_or_else(|e| panic!("{at} (narrow {narrow}): {e}"))
                    };
                    let (n, w) = (run(true), run(false));
                    let report = n.matches(&w, db.store(), &pattern, plan);
                    assert!(report.is_clean(), "{at}: rows, order or counters differ:\n{report}");
                    let (n, w) = (n.outcome, w.outcome);
                    assert_eq!(n.cuts, w.cuts, "{at}: morsels differ");
                    assert_eq!(n.morsel_count(), w.morsel_count(), "{at}");
                    for (k, (nm, wm)) in
                        n.morsel_snapshots.iter().zip(&w.morsel_snapshots).enumerate()
                    {
                        assert!(nm.peak_bytes <= wm.peak_bytes, "{at}: morsel {k} peak rose");
                        assert_eq!(with_peak(*nm, wm.peak_bytes), *wm, "{at}: morsel {k}");
                    }
                    let (nr, wr) = (&n.result, &w.result);
                    assert!(nr.metrics.peak_bytes <= wr.metrics.peak_bytes, "{at}: peak rose");
                    assert_eq!(with_peak(nr.metrics, wr.metrics.peak_bytes), wr.metrics, "{at}");
                    assert_eq!(nr.io.spill_page_writes, wr.io.spill_page_writes, "{at}");
                    assert_eq!(nr.io.spill_page_reads, wr.io.spill_page_reads, "{at}");
                    split |= n.morsel_count() > 1;
                    spilled |= nr.metrics.spilled_runs > 0;
                    narrower |= nr.metrics.peak_bytes < wr.metrics.peak_bytes;
                }
            }
        }
    }
    assert!(split, "{}: no run split into morsels", ds.name());
    assert!(spilled, "{}: no run spilled", ds.name());
    assert!(narrower, "{}: narrowing never lowered a peak", ds.name());
}

#[test]
fn narrow_columns_match_wide_on_mbench() {
    check_dataset(DataSet::Mbench);
}

#[test]
fn narrow_columns_match_wide_on_dblp() {
    check_dataset(DataSet::Dblp);
}

#[test]
fn narrow_columns_match_wide_on_pers() {
    check_dataset(DataSet::Pers);
}
