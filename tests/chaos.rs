//! Chaos suite: the paper's Table-1 queries executed under hundreds
//! of seeded storage fault plans.
//!
//! The discipline under test is the robustness contract of the whole
//! stack: a query against a misbehaving disk either *recovers* (the
//! buffer pool's retries absorb the faults and the answer is
//! bit-identical to the fault-free run) or *fails with a typed
//! storage error* — never a panic, never a silently wrong answer.

use sjos::datagen::{paper_queries, pers::pers, DataSet, GenConfig};
use sjos::storage::{FaultPlan, RetryPolicy, StoreConfig, XmlStore};
use sjos::{Algorithm, Database, EngineError, ExecOptions};

/// Seeds swept per fault preset; two presets per seed gives the suite
/// its ≥200 distinct seeded fault plans.
const SEEDS: u64 = 100;

#[test]
fn table1_queries_survive_two_hundred_seeded_fault_plans() {
    let doc = pers(GenConfig::sized(1_500));
    let db = Database::from_document(doc.clone());

    // Optimize each Pers query and record its fault-free answer once.
    let cases: Vec<_> = paper_queries()
        .into_iter()
        .filter(|q| q.dataset == DataSet::Pers)
        .map(|q| {
            let pattern = q.pattern();
            let optimized =
                db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes");
            let baseline = db
                .execute(&pattern, &optimized.plan, &ExecOptions::default())
                .expect("clean run")
                .canonical_rows();
            (q.id, pattern, optimized.plan, baseline)
        })
        .collect();
    assert!(!cases.is_empty(), "Pers workload must not be empty");

    let store = XmlStore::load_faulty(
        doc,
        StoreConfig { retry: RetryPolicy::no_backoff(4), ..StoreConfig::default() },
        FaultPlan::none(),
    );
    let fault = store.fault().expect("faulty store exposes its fault handle").clone();

    let mut plans_run = 0u32;
    let mut recovered = 0u32;
    let mut failed = 0u32;
    for seed in 0..SEEDS {
        for plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
            // Quiesce, drop every cached frame so the next queries hit
            // physical reads again, then arm the seeded plan.
            fault.set_plan(FaultPlan::none());
            store.pool().reset_cache().expect("cache reset on a quiet disk");
            fault.set_plan(plan);
            plans_run += 1;
            for (id, pattern, plan_node, baseline) in &cases {
                match sjos::execute(&store, pattern, plan_node, &ExecOptions::default())
                    .map(|o| o.result)
                {
                    Ok(res) => {
                        assert_eq!(
                            &res.canonical_rows(),
                            baseline,
                            "{id} diverged from the fault-free answer after recovery \
                             (seed {seed})"
                        );
                        recovered += 1;
                    }
                    Err(EngineError::Storage(_)) => failed += 1,
                    Err(e) => {
                        panic!("{id}: non-storage failure under disk faults (seed {seed}): {e}")
                    }
                }
            }
        }
    }

    assert_eq!(plans_run, 2 * SEEDS as u32);
    assert!(recovered > 0, "no query ever recovered — retry budget is broken");
    assert!(failed > 0, "no fault plan ever defeated the retries — injection is broken");
}

/// The concurrent variant of the contract: eight sessions hammer ONE
/// shared faulty store at once. Every execution must still end
/// bit-identical to the fault-free baseline or in a typed storage
/// error — never a panic, a wrong answer, or a deadlock (a hang here
/// fails the suite via the harness timeout).
#[test]
fn eight_concurrent_sessions_survive_seeded_faults_on_one_shared_store() {
    let doc = pers(GenConfig::sized(1_500));
    let db = Database::from_document(doc.clone());
    let cases: Vec<_> = paper_queries()
        .into_iter()
        .filter(|q| q.dataset == DataSet::Pers)
        .map(|q| {
            let pattern = q.pattern();
            let optimized =
                db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes");
            let baseline = db
                .execute(&pattern, &optimized.plan, &ExecOptions::default())
                .expect("clean run")
                .canonical_rows();
            (q.id, pattern, optimized.plan, baseline)
        })
        .collect();

    let store = XmlStore::load_faulty(
        doc,
        StoreConfig { retry: RetryPolicy::no_backoff(4), ..StoreConfig::default() },
        FaultPlan::none(),
    );
    let fault = store.fault().expect("faulty store exposes its fault handle").clone();

    const THREADS: usize = 8;
    const ROUNDS: u64 = 8;
    const PASSES: usize = 2;
    let mut recovered = 0u64;
    let mut failed = 0u64;
    for round in 0..ROUNDS {
        // Re-arm between rounds only, while the store is quiescent:
        // the cache reset needs an unpinned pool, and all threads have
        // joined by the end of the previous round.
        fault.set_plan(FaultPlan::none());
        store.pool().reset_cache().expect("cache reset on a quiet disk");
        fault.set_plan(if round.is_multiple_of(2) {
            FaultPlan::light(round)
        } else {
            FaultPlan::heavy(round)
        });

        let (rec, fail) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let store = &store;
                    let cases = &cases;
                    scope.spawn(move || {
                        let mut rec = 0u64;
                        let mut fail = 0u64;
                        for _ in 0..PASSES {
                            for (id, pattern, plan_node, baseline) in cases {
                                match sjos::execute(
                                    store,
                                    pattern,
                                    plan_node,
                                    &ExecOptions::default(),
                                )
                                .map(|o| o.result)
                                {
                                    Ok(res) => {
                                        assert_eq!(
                                            &res.canonical_rows(),
                                            baseline,
                                            "{id} diverged from the fault-free answer under \
                                             concurrent faults (round {round})"
                                        );
                                        rec += 1;
                                    }
                                    Err(EngineError::Storage(_)) => fail += 1,
                                    Err(e) => panic!(
                                        "{id}: non-storage failure under concurrent disk \
                                         faults (round {round}): {e}"
                                    ),
                                }
                            }
                        }
                        (rec, fail)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .fold((0u64, 0u64), |acc, x| (acc.0 + x.0, acc.1 + x.1))
        });
        recovered += rec;
        failed += fail;
    }

    let total = ROUNDS * (THREADS * PASSES * cases.len()) as u64;
    assert_eq!(recovered + failed, total, "every execution reached a verdict");
    assert!(recovered > 0, "no query ever recovered under concurrency");
}

/// Spill executions against a disk that fails *writes*: the external
/// sort pushes every run through the buffer pool to temp pages, so
/// transient write failures, short writes, failed allocations, and
/// silently corrupted write images all land in the spill path. The
/// contract is unchanged — recover bit-identically or fail with a
/// typed storage error — plus one spill-specific clause: whatever the
/// verdict, every temp page is back on the free list afterwards.
#[test]
fn spilling_queries_survive_seeded_write_faults() {
    use std::sync::Arc;

    use sjos::pattern::PnId;
    use sjos::{PlanNode, QueryGuard, SpillPolicy};

    let doc = pers(GenConfig::sized(1_500));
    let db = Database::from_document(doc.clone());
    let cases: Vec<_> = paper_queries()
        .into_iter()
        .filter(|q| q.dataset == DataSet::Pers)
        .map(|q| {
            let pattern = q.pattern();
            let optimized =
                db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes");
            // Plant a sort so the spill machinery engages; threshold 0
            // below maximizes temp-page traffic.
            let plan = PlanNode::Sort { input: Box::new(optimized.plan), by: PnId(0) };
            let baseline = db
                .execute(&pattern, &plan, &ExecOptions::default())
                .expect("clean run")
                .canonical_rows();
            (q.id, pattern, plan, baseline)
        })
        .collect();

    let store = XmlStore::load_faulty(
        doc,
        StoreConfig { retry: RetryPolicy::no_backoff(4), ..StoreConfig::default() },
        FaultPlan::none(),
    );
    let fault = store.fault().expect("faulty store exposes its fault handle").clone();
    let opts = ExecOptions {
        guard: Some(Arc::new(QueryGuard::unlimited())),
        batch_rows: 64,
        spill: Some(SpillPolicy::with_threshold(0)),
        ..ExecOptions::default()
    };

    let mut recovered = 0u32;
    let mut failed = 0u32;
    let mut runs_spilled = 0u64;
    for seed in 0..40u64 {
        let write_light = FaultPlan {
            seed,
            transient_write: 0.10,
            short_write: 0.05,
            transient_allocate: 0.05,
            ..FaultPlan::none()
        };
        let write_heavy = FaultPlan {
            seed,
            transient_write: 0.30,
            short_write: 0.15,
            corrupt_write: 0.10,
            transient_allocate: 0.15,
            ..FaultPlan::none()
        };
        for plan in [write_light, write_heavy] {
            fault.set_plan(FaultPlan::none());
            store.pool().reset_cache().expect("cache reset on a quiet disk");
            fault.set_plan(plan);
            for (id, pattern, plan_node, baseline) in &cases {
                match sjos::execute(&store, pattern, plan_node, &opts).map(|o| o.result) {
                    Ok(res) => {
                        assert_eq!(
                            &res.canonical_rows(),
                            baseline,
                            "{id} diverged from the fault-free answer after write-fault \
                             recovery (seed {seed})"
                        );
                        runs_spilled += res.metrics.spilled_runs;
                        recovered += 1;
                    }
                    Err(EngineError::Storage(_)) => failed += 1,
                    Err(e) => {
                        panic!("{id}: non-storage failure under write faults (seed {seed}): {e}")
                    }
                }
                assert_eq!(
                    store.spill().live_pages(),
                    0,
                    "{id}: temp pages leaked under write faults (seed {seed})"
                );
            }
        }
    }

    assert!(recovered > 0, "no spilling query ever recovered — write retries are broken");
    assert!(failed > 0, "no write-fault plan ever defeated the retries — injection is broken");
    assert!(runs_spilled > 0, "recovered runs never actually spilled — the test is vacuous");
}

/// The morsel-parallel variant of the contract: a query split across
/// 4 worker threads against a misbehaving disk either recovers with
/// the fault-free answer — tuple-for-tuple, counters summed
/// bit-identically — or fails with a typed storage error from
/// whichever worker (or the partitioner's pre-pass) hit the disk
/// first. Never a panic, a deadlock, or a silently wrong merge.
#[test]
fn parallel_queries_survive_seeded_fault_plans() {
    use sjos::datagen::fold_document;

    let doc = fold_document(&pers(GenConfig::sized(600)), 5);
    let db = Database::from_document(doc.clone());
    let cases: Vec<_> = paper_queries()
        .into_iter()
        .filter(|q| q.dataset == DataSet::Pers)
        .map(|q| {
            let pattern = q.pattern();
            let optimized =
                db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).expect("optimizes");
            let baseline =
                db.execute(&pattern, &optimized.plan, &ExecOptions::default()).expect("clean run");
            (q.id, pattern, optimized.plan, baseline)
        })
        .collect();

    let store = XmlStore::load_faulty(
        doc,
        StoreConfig { retry: RetryPolicy::no_backoff(4), ..StoreConfig::default() },
        FaultPlan::none(),
    );
    let fault = store.fault().expect("faulty store exposes its fault handle").clone();

    let mut recovered = 0u32;
    let mut failed = 0u32;
    let mut split_runs = 0u32;
    for seed in 0..30u64 {
        for plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
            fault.set_plan(FaultPlan::none());
            store.pool().reset_cache().expect("cache reset on a quiet disk");
            fault.set_plan(plan);
            for (id, pattern, plan_node, baseline) in &cases {
                let four = ExecOptions { threads: 4, ..ExecOptions::default() };
                match sjos::execute(&store, pattern, plan_node, &four) {
                    Ok(out) => {
                        assert_eq!(
                            out.result.tuples, baseline.tuples,
                            "{id} diverged from the fault-free answer after parallel \
                             recovery (seed {seed})"
                        );
                        assert_eq!(
                            out.result.metrics.stack_pushes, baseline.metrics.stack_pushes,
                            "{id}: merged stack traffic diverged under faults (seed {seed})"
                        );
                        if out.morsel_count() > 1 {
                            split_runs += 1;
                        }
                        recovered += 1;
                    }
                    Err(EngineError::Storage(_)) => failed += 1,
                    Err(e) => panic!(
                        "{id}: non-storage failure under parallel disk faults (seed {seed}): {e}"
                    ),
                }
            }
        }
    }

    assert!(recovered > 0, "no parallel query ever recovered — retry budget is broken");
    assert!(failed > 0, "no fault plan ever defeated the parallel path — injection is broken");
    assert!(split_runs > 0, "recovered runs never actually partitioned — the test is vacuous");
}

#[test]
fn sticky_corruption_names_the_page_in_the_error() {
    let doc = pers(GenConfig::sized(400));
    let store = XmlStore::load_faulty(
        doc,
        StoreConfig { retry: RetryPolicy::no_backoff(2), ..StoreConfig::default() },
        FaultPlan { seed: 7, sticky_corrupt: 1.0, ..FaultPlan::none() },
    );
    let db_doc = store.document().clone();
    let pattern = sjos::parse_pattern("//manager//employee/name").unwrap();
    let catalog = sjos::Catalog::build(&db_doc);
    let est = sjos::PatternEstimates::new(&catalog, &db_doc, &pattern);
    let optimized = sjos::optimize(
        &pattern,
        &est,
        &sjos::CostModel::default(),
        Algorithm::Dpp { lookahead: true },
    )
    .unwrap();
    let err =
        sjos::execute(&store, &pattern, &optimized.plan, &ExecOptions::default()).unwrap_err();
    let rendered = err.to_string();
    assert!(
        matches!(err, EngineError::Storage(_)),
        "total corruption must surface as a storage error, got: {rendered}"
    );
    assert!(rendered.contains("page"), "error should name the failing page: {rendered}");
}
