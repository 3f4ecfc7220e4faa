//! Morsel-driven parallel execution: differential and property tests.
//!
//! The contract under test is *partition soundness* (planck rule
//! PL068): a parallel execution over region-range morsels returns
//! exactly the tuples — same values, same order — the serial engine
//! returns, at every thread count and every batch granularity, and
//! its eight exact work counters sum bit-identically to the serial
//! totals. The partitioner's own guarantees (cuts are valid, morsels
//! cover everything exactly once, one morsel degenerates to the
//! serial engine) are checked as properties over arbitrary region
//! lists, and per-session I/O attribution must survive the hop onto
//! worker threads.

use std::sync::Arc;

use proptest::prelude::*;

use sjos::datagen::{
    dblp::dblp, fold_document, mbench::mbench, paper_queries, pers::pers, DataSet, GenConfig,
};
use sjos::{Algorithm, Database, EngineError, ExecOptions, GuardBreach, QueryGuard, BATCH_ROWS};
use sjos_exec::{partition_regions, scatter, stitch, straddles_every_cut};
use sjos_storage::{Extent, IoStats, IoTap};
use sjos_xml::Region;

/// Worker counts under test; 1 must be the serial engine itself.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Granularities under test: the tuple-at-a-time degenerate case, an
/// awkward size that never divides the row counts, and production.
const BATCH_SIZES: [usize; 3] = [1, 3, BATCH_ROWS];

/// Default options across `threads` workers.
fn on_threads(threads: usize) -> ExecOptions {
    ExecOptions { threads, ..ExecOptions::default() }
}

/// The eight counters PL068 demands sum exactly across morsels.
fn exact_counters(m: &sjos_exec::MetricsSnapshot) -> [u64; 8] {
    [
        m.output_tuples,
        m.produced_tuples,
        m.stack_pushes,
        m.stack_pops,
        m.buffered_pairs,
        m.sorted_tuples,
        m.scanned_records,
        m.merge_rescans,
    ]
}

/// Small folded corpora: folding replicates each data set's content
/// under one shared root, so the document has clean seams between
/// copies — without it Mbench is one giant `eNest` whose interval
/// spans everything and no valid cut exists (a legitimate, but
/// untestably boring, serial fallback).
fn corpus(ds: DataSet) -> Database {
    let doc = match ds {
        DataSet::Mbench => mbench(GenConfig::sized(700)),
        DataSet::Dblp => dblp(GenConfig::sized(700)),
        DataSet::Pers => pers(GenConfig::sized(600)),
    };
    Database::from_document(fold_document(&doc, 5))
}

/// Differential sweep: every Table-1 query, optimized by DPP, executed
/// at every (threads × batch_rows) combination, must reproduce the
/// serial result — tuple values, tuple order, and all eight exact
/// counters — bit for bit.
#[test]
fn parallel_matches_serial_across_threads_and_granularities() {
    for ds in [DataSet::Mbench, DataSet::Dblp, DataSet::Pers] {
        let db = corpus(ds);
        let mut split_somewhere = false;
        for q in paper_queries().into_iter().filter(|q| q.dataset == ds) {
            let pattern = q.pattern();
            let plan =
                db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes").plan;
            let serial = db
                .execute(&pattern, &plan, &ExecOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", q.id));
            let serial_counters = exact_counters(&serial.metrics);
            for threads in THREAD_COUNTS {
                for batch_rows in BATCH_SIZES {
                    let opts = ExecOptions { batch_rows, threads, ..ExecOptions::default() };
                    let out = sjos::execute(db.store(), &pattern, &plan, &opts)
                        .unwrap_or_else(|e| panic!("{} @ {threads}t/{batch_rows}b: {e}", q.id));
                    split_somewhere |= out.morsel_count() > 1;
                    assert_eq!(
                        out.result.tuples, serial.tuples,
                        "{} @ {threads} threads, batch_rows={batch_rows}: tuple sequence diverged",
                        q.id
                    );
                    assert_eq!(
                        exact_counters(&out.result.metrics),
                        serial_counters,
                        "{} @ {threads} threads, batch_rows={batch_rows}: counters diverged",
                        q.id
                    );
                    if threads <= 1 {
                        assert_eq!(out.morsel_count(), 1, "{}: threads=1 must stay serial", q.id);
                    }
                }
            }
        }
        // Root-binding queries (e.g. Q.DBLP.1.b binds the shared
        // `dblp` root, whose interval spans the whole document) can
        // never split — but every data set must have at least one
        // query that genuinely partitions.
        assert!(split_somewhere, "{}: no query ever split into more than one morsel", ds.name());
    }
}

/// PL068 certifies every Table-1 query on its own corpus at every
/// thread count — the lint re-derives cut validity from the stored
/// binding lists, so a clean report is ground truth, not the
/// partitioner grading its own homework.
#[test]
fn partition_lint_is_clean_on_the_paper_workload() {
    for ds in [DataSet::Mbench, DataSet::Dblp, DataSet::Pers] {
        let db = corpus(ds);
        for q in paper_queries().into_iter().filter(|q| q.dataset == ds) {
            let pattern = q.pattern();
            let plan =
                db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes").plan;
            for threads in [2, 8] {
                let report = sjos::planck::lint_partition(db.store(), &pattern, &plan, threads);
                assert!(
                    report.is_clean(),
                    "{} @ {threads} threads: PL068 violations:\n{report}",
                    q.id
                );
            }
        }
    }
}

/// Per-session I/O attribution survives the hop onto worker threads:
/// a tap installed on the session thread sees the record reads the
/// workers issue while draining their morsels.
#[test]
fn worker_thread_io_lands_in_the_session_tap() {
    let db = corpus(DataSet::Pers);
    let q = paper_queries().into_iter().find(|q| q.id == "Q.Pers.1.a").expect("catalog query");
    let pattern = q.pattern();
    let plan = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes").plan;

    let stats = Arc::new(IoStats::default());
    let before = stats.snapshot();
    let outcome = {
        let _tap = IoTap::install(Arc::clone(&stats));
        sjos::execute(db.store(), &pattern, &plan, &on_threads(4)).expect("parallel run")
    };
    let after = stats.snapshot();
    assert!(outcome.morsel_count() > 1, "query must actually split for this test to bite");
    assert!(
        after.record_reads > before.record_reads,
        "worker-thread record reads never reached the session tap"
    );
    assert_eq!(
        outcome.result.io.record_reads,
        after.record_reads - before.record_reads,
        "result attribution and tap delta disagree"
    );
}

/// A deadline that has already passed surfaces as the typed guard
/// breach from the parallel path too — with partial metrics attached,
/// never a panic or a wrong answer.
#[test]
fn expired_deadline_surfaces_as_guard_breach() {
    let db = corpus(DataSet::Pers);
    let q = paper_queries().into_iter().find(|q| q.id == "Q.Pers.1.a").expect("catalog query");
    let pattern = q.pattern();
    let plan = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes").plan;
    let guard = Arc::new(QueryGuard::unlimited().with_deadline(std::time::Duration::ZERO));
    let opts = ExecOptions { guard: Some(guard), ..on_threads(4) };
    let err = sjos::execute(db.store(), &pattern, &plan, &opts)
        .expect_err("an expired deadline must stop the query");
    match err {
        EngineError::Guard { breach: GuardBreach::Deadline { .. }, .. } => {}
        other => panic!("expected a deadline breach, got {other}"),
    }
}

/// Strategy: a well-formed region list sorted by start with strictly
/// increasing, non-repeating starts (document order), arbitrary
/// nesting of the end points.
fn region_lists() -> impl Strategy<Value = Vec<Vec<Region>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..5_000, 0u32..400), 0..120).prop_map(|raw| {
            let mut list: Vec<Region> = raw
                .into_iter()
                .map(|(s, len)| Region { start: s, end: s.saturating_add(len), level: 0 })
                .collect();
            list.sort_by_key(|r| r.start);
            list.dedup_by_key(|r| r.start);
            list
        }),
        1..4,
    )
}

/// [`region_lists`] with every start moved up by one and, in front
/// of the first list, a record at start 0 whose end is drawn across
/// the whole axis — so the directory refusal fires in a good share of
/// cases and misses narrowly in others.
fn lists_with_leading_span() -> impl Strategy<Value = Vec<Vec<Region>>> {
    (region_lists(), 0u32..6_000).prop_map(|(mut lists, end)| {
        for r in lists.iter_mut().flatten() {
            r.start += 1;
            r.end += 1;
        }
        lists[0].insert(0, Region { start: 0, end, level: 0 });
        lists
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The directory-only refusal is exact: whenever the lists'
    /// extents say no cut can exist, the streaming chooser finds none.
    #[test]
    fn directory_refusal_implies_no_cut(lists in lists_with_leading_span(), target in 2usize..12) {
        let extents: Vec<Extent> = lists
            .iter()
            .filter_map(|l| Some(Extent { first: *l.first()?, last_start: l.last()?.start }))
            .collect();
        if straddles_every_cut(&extents) {
            prop_assert!(partition_regions(&lists, target).cuts.is_empty());
        }
    }

    /// The partitioner's cuts are strictly increasing and *valid*: no
    /// record in any input list straddles any cut, so scattering by
    /// the partition's ranges produces zero seam replicas and every
    /// record lands in exactly one morsel.
    #[test]
    fn partitioner_cuts_are_valid_and_replica_free(lists in region_lists(), target in 1usize..12) {
        let partition = partition_regions(&lists, target);
        prop_assert!(partition.cuts.windows(2).all(|w| w[0] < w[1]), "cuts not increasing");
        for &c in &partition.cuts {
            for list in &lists {
                for r in list {
                    prop_assert!(
                        !(r.start < c && c <= r.end),
                        "record [{}, {}] straddles cut {c}", r.start, r.end
                    );
                }
            }
        }
        let ranges = partition.ranges();
        for list in &lists {
            let parts = scatter(list, &ranges);
            let scattered: usize = parts.iter().map(Vec::len).sum();
            prop_assert_eq!(scattered, list.len(), "seam replicas under the partitioner's own cuts");
            prop_assert_eq!(&stitch(&parts, &ranges), list);
        }
    }

    /// Coverage round-trip for *arbitrary* cuts, not just the
    /// partitioner's: scatter may replicate records across seams, but
    /// stitch recovers the original list exactly.
    #[test]
    fn scatter_stitch_round_trips_arbitrary_cuts(
        lists in region_lists(),
        mut cuts in prop::collection::vec(1u32..6_000, 0..6),
    ) {
        cuts.sort_unstable();
        cuts.dedup();
        let partition = sjos_exec::RegionPartition { cuts, total_records: 0 };
        let ranges = partition.ranges();
        for list in &lists {
            let parts = scatter(list, &ranges);
            prop_assert_eq!(&stitch(&parts, &ranges), list);
        }
    }

    /// One target morsel is the identity partition: no cuts, one range
    /// spanning the whole start axis.
    #[test]
    fn single_morsel_target_is_the_identity(lists in region_lists()) {
        let partition = partition_regions(&lists, 1);
        prop_assert!(partition.cuts.is_empty());
        prop_assert_eq!(partition.ranges(), vec![(0u32, u32::MAX)]);
    }
}

/// The tap partition is *exact* at every worker count: with one
/// session tapped and nothing else running, the session tap's delta
/// equals the global store delta bit for bit — every worker thread
/// reinstalled the tap, and no read escaped attribution.
#[test]
fn tap_delta_partitions_the_global_delta_at_every_thread_count() {
    let db = corpus(DataSet::Pers);
    let q = paper_queries().into_iter().find(|q| q.id == "Q.Pers.1.a").expect("catalog query");
    let pattern = q.pattern();
    let plan = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes").plan;

    for n in [2usize, 8] {
        let stats = Arc::new(IoStats::default());
        let global_before = db.store().stats().snapshot();
        let tap_before = stats.snapshot();
        {
            let _tap = IoTap::install(Arc::clone(&stats));
            sjos::execute(db.store(), &pattern, &plan, &on_threads(n)).expect("parallel run");
        }
        let global = db.store().stats().snapshot().since(&global_before);
        let tapped = stats.snapshot().since(&tap_before);
        assert!(tapped.record_reads > 0, "{n} threads: no attributed reads");
        assert_eq!(
            (tapped.record_reads, tapped.buffer_hits, tapped.disk_reads),
            (global.record_reads, global.buffer_hits, global.disk_reads),
            "{n} threads: a worker's I/O escaped the session tap"
        );
    }
}

/// The error-exit path keeps attribution exact too: when a worker
/// dies mid-query on a guard breach, every read it issued before
/// dying — and every read its aborted siblings issued — still lands
/// in the session tap. Nothing leaks to the void on the abort path.
/// The breach's `partial` is a lower bound on progress: which morsels
/// finished first varies run to run, but no exact counter may exceed
/// the unguarded serial run's.
#[test]
fn dying_worker_io_still_lands_in_the_session_tap() {
    let db = corpus(DataSet::Pers);
    let q = paper_queries().into_iter().find(|q| q.id == "Q.Pers.1.a").expect("catalog query");
    let pattern = q.pattern();
    let plan = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes").plan;
    let serial = db.execute(&pattern, &plan, &ExecOptions::default()).expect("serial run");
    let serial = exact_counters(&serial.metrics);

    for threads in [2, 4] {
        let unguarded = Arc::new(QueryGuard::unlimited());
        let opts = ExecOptions { guard: Some(Arc::clone(&unguarded)), ..on_threads(threads) };
        sjos::execute(db.store(), &pattern, &plan, &opts).expect("unguarded parallel run");
        // A memory budget tiny enough that a worker breaches
        // mid-morsel, but not so tiny the run dies before the workers
        // touch storage; and a batch budget one pull short of the
        // whole run, so the breach comes after most morsels finished.
        let guards = [
            ("memory", QueryGuard::unlimited().with_memory_budget(512)),
            ("batch", QueryGuard::unlimited().with_batch_budget(unguarded.batches_pulled() - 1)),
        ];
        for (kind, guard) in guards {
            let stats = Arc::new(IoStats::default());
            let global_before = db.store().stats().snapshot();
            let err = {
                let _tap = IoTap::install(Arc::clone(&stats));
                let opts = ExecOptions { guard: Some(Arc::new(guard)), ..on_threads(threads) };
                sjos::execute(db.store(), &pattern, &plan, &opts)
                    .expect_err("the budget must breach")
            };
            let at = format!("{threads} threads, {err}");
            let partial = match (kind, err) {
                (
                    "memory",
                    EngineError::Guard { breach: GuardBreach::MemoryBudget { .. }, partial },
                )
                | (
                    "batch",
                    EngineError::Guard { breach: GuardBreach::BatchBudget { .. }, partial },
                ) => exact_counters(&partial),
                (kind, other) => panic!("{at}: expected a {kind} breach, got {other}"),
            };
            let global = db.store().stats().snapshot().since(&global_before);
            let tapped = stats.snapshot();
            assert_eq!(
                (tapped.record_reads, tapped.buffer_hits, tapped.disk_reads),
                (global.record_reads, global.buffer_hits, global.disk_reads),
                "{at}: a dying worker's I/O escaped the session tap on the abort path"
            );
            assert!(
                tapped.record_reads + tapped.buffer_hits > 0,
                "{at}: the workers died before doing any I/O — the error path ran vacuously"
            );
            assert!(
                partial.iter().zip(&serial).all(|(p, s)| p <= s),
                "{at}: partial {partial:?} exceeds the serial counters {serial:?}"
            );
        }
    }
}
