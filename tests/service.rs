//! Integration tests for the concurrent query service: admission
//! soundness under real concurrency, typed overload behavior, plan
//! caching, and per-session I/O attribution.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use sjos::datagen::{fold_document, paper_queries, pers::pers, DataSet, GenConfig, Workload};
use sjos::service::RejectReason;
use sjos::{Algorithm, Database, QueryService, ServiceConfig, ServiceError};

const DPP: Algorithm = Algorithm::Dpp { lookahead: true };

fn pers_db(nodes: usize, fold: usize) -> Arc<Database> {
    let doc = pers(GenConfig::sized(nodes));
    let doc = if fold > 1 { fold_document(&doc, fold) } else { doc };
    Arc::new(Database::from_document(doc))
}

fn pers_queries() -> Vec<Workload> {
    paper_queries().into_iter().filter(|w| w.dataset == DataSet::Pers).collect()
}

/// The certified peak of the most expensive query in the mix, used to
/// size budgets deterministically.
fn max_certificate(db: &Database, queries: &[Workload]) -> u64 {
    queries
        .iter()
        .map(|w| {
            let pattern = w.pattern();
            let plan = db.optimize(&pattern, DPP).expect("optimizes").plan;
            db.resource_bounds(&pattern, &plan).peak_bytes
        })
        .max()
        .expect("non-empty workload")
}

/// The headline soundness property: N admitted queries running
/// simultaneously can never, in aggregate, exceed the global budget.
/// The proof chain is (1) the controller's reservation high-water
/// `peak_in_use` never exceeds the budget, and (2) every query's
/// measured `peak_bytes` stays at or below its certified reservation
/// (zero bound violations). Both are asserted exactly.
#[test]
fn concurrent_admitted_queries_respect_the_global_budget() {
    let db = pers_db(3_000, 4);
    let queries = pers_queries();
    // 1.5x the largest certificate: any two concurrent heavy queries
    // contend, but every query fits alone.
    let max_cert = max_certificate(&db, &queries);
    let budget = max_cert + max_cert / 2;
    let service = QueryService::new(
        Arc::clone(&db),
        ServiceConfig {
            memory_budget: budget,
            queue_capacity: 64,
            queue_timeout: Duration::from_secs(30),
            ..ServiceConfig::default()
        },
    );

    const THREADS: usize = 8;
    const PER_THREAD: usize = 12;
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let session = service.session();
            let queries = &queries;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    let w = &queries[(worker + i) % queries.len()];
                    let out = session.query_with(w.query, DPP).expect("generous queue admits");
                    assert!(
                        out.result.metrics.peak_bytes <= out.plan.bounds.peak_bytes,
                        "{}: measured {} B escaped certificate {} B",
                        w.id,
                        out.result.metrics.peak_bytes,
                        out.plan.bounds.peak_bytes
                    );
                }
            });
        }
    });

    let adm = service.admission_snapshot();
    let m = service.metrics();
    assert_eq!(adm.admitted, (THREADS * PER_THREAD) as u64, "every query ran");
    assert_eq!(adm.rejected, 0);
    assert_eq!(adm.in_use, 0, "all reservations released");
    assert!(
        adm.peak_in_use <= budget,
        "aggregate certified reservation peaked at {} B over the {} B budget",
        adm.peak_in_use,
        budget
    );
    assert!(adm.peak_in_use > 0, "queries actually reserved bytes");
    assert_eq!(
        m.bound_violations.load(Ordering::Relaxed),
        0,
        "a measured peak escaped its certificate — the admission guarantee is falsified"
    );
    assert!(
        m.max_measured_peak.load(Ordering::Relaxed) <= m.max_certified_peak.load(Ordering::Relaxed)
    );
    // Non-vacuity: with a budget of 1.5x the largest certificate and
    // 8 threads, the run must have seen real concurrency — either two
    // reservations overlapped (peak above any single certificate) or
    // somebody had to queue.
    assert!(
        adm.peak_in_use > max_cert || adm.queued > 0,
        "no two reservations ever overlapped — the soundness check ran vacuously"
    );
}

/// A certificate larger than the whole budget is rejected before any
/// queueing, with the typed reason.
#[test]
fn undersized_budget_rejects_with_typed_overloaded() {
    let db = pers_db(2_000, 1);
    let service = QueryService::new(
        Arc::clone(&db),
        ServiceConfig { memory_budget: 16, ..ServiceConfig::default() },
    );
    let session = service.session();
    let err = session.query("//manager//employee/name").unwrap_err();
    match err {
        ServiceError::Overloaded(r) => {
            assert_eq!(r.reason, RejectReason::NeverFits);
            assert_eq!(r.budget, 16);
            assert!(r.certified_bytes > 16);
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    let adm = service.admission_snapshot();
    assert_eq!(adm.rejected, 1);
    assert_eq!(adm.admitted, 0);
}

/// A budget that fits exactly one query at a time: while one session
/// holds the whole budget, a second arrival with no patience gets the
/// typed queue-then-`Overloaded` verdict, and succeeds once the
/// holder drains.
#[test]
fn contended_budget_yields_queue_then_overloaded() {
    let db = pers_db(3_000, 8);
    let queries = pers_queries();
    let budget = max_certificate(&db, &queries);
    let service = QueryService::new(
        Arc::clone(&db),
        ServiceConfig {
            memory_budget: budget,
            queue_capacity: 4,
            // No patience: a contended arrival times out immediately
            // instead of waiting for the holder.
            queue_timeout: Duration::ZERO,
            ..ServiceConfig::default()
        },
    );

    // The heaviest query holds the entire budget while it runs.
    let heavy = queries
        .iter()
        .map(|w| w.query)
        .max_by_key(|q| {
            let pattern = sjos::parse_pattern(q).unwrap();
            let plan = db.optimize(&pattern, DPP).unwrap().plan;
            db.resource_bounds(&pattern, &plan).peak_bytes
        })
        .unwrap();

    let mut saw_overload = false;
    std::thread::scope(|scope| {
        // The holder alone is patient: when the probe wins the budget
        // first, the holder retries its timed-out arrival until the
        // probe drains, so each of its runs ends clean.
        let holder_session = service.session();
        let holder = scope.spawn(move || {
            for _ in 0..6 {
                let result = loop {
                    match holder_session.query_with(heavy, DPP) {
                        Err(ServiceError::Overloaded(r)) if r.reason == RejectReason::TimedOut => {
                            std::thread::yield_now();
                        }
                        result => break result,
                    }
                };
                result.expect("holder runs clean");
            }
        });
        let session = service.session();
        // Probe while the holder's reservation is visible; the zero
        // timeout turns any contended arrival into a typed rejection.
        while !holder.is_finished() {
            if service.admission_snapshot().in_use > 0 {
                match session.query_with(heavy, DPP) {
                    Err(ServiceError::Overloaded(r)) => {
                        assert_eq!(r.reason, RejectReason::TimedOut);
                        saw_overload = true;
                    }
                    Ok(_) => {}
                    Err(other) => panic!("unexpected error under contention: {other}"),
                }
            }
            std::thread::yield_now();
        }
        holder.join().unwrap();
    });
    assert!(saw_overload, "no arrival ever overlapped the holder's reservation");

    // Once the budget is free the same query is admitted.
    let session = service.session();
    session.query_with(heavy, DPP).expect("uncontended query admits");
    assert!(service.admission_snapshot().rejected > 0);
    assert_eq!(service.metrics().bound_violations.load(Ordering::Relaxed), 0);
}

/// The algorithm is part of the cache key: the same pattern under a
/// different optimizer is a fresh entry, not a wrong-plan hit.
#[test]
fn cache_distinguishes_algorithms() {
    let db = pers_db(2_000, 1);
    let service = QueryService::new(Arc::clone(&db), ServiceConfig::default());
    let session = service.session();
    let q = "//manager//employee/name";
    assert!(!session.query_with(q, DPP).unwrap().cache_hit);
    let fp = session.query_with(q, Algorithm::Fp).unwrap();
    assert!(!fp.cache_hit, "FP must not be served DPP's cached plan");
    assert!(session.query_with(q, DPP).unwrap().cache_hit);
    assert!(session.query_with(q, Algorithm::Fp).unwrap().cache_hit);
    let cache = service.cache_snapshot();
    assert_eq!((cache.hits, cache.misses), (2, 2));
    assert_eq!(cache.len, 2);
}

/// Recalibration bumps the catalog version, so plans cached before it
/// can never be served after it (their key is unreachable).
#[test]
fn calibration_invalidates_cached_plans_by_version() {
    let db = pers_db(2_000, 1);
    let v0 = db.catalog().version();
    let doc = pers(GenConfig::sized(2_000));
    let (calibrated, _report) = Database::from_document(doc).with_calibrated_model();
    assert!(calibrated.catalog().version() > v0, "calibration must advance the version");

    let service = QueryService::new(Arc::new(calibrated), ServiceConfig::default());
    let session = service.session();
    assert!(!session.query("//manager//employee/name").unwrap().cache_hit);
    assert!(session.query("//manager//employee/name").unwrap().cache_hit);
}

/// Per-session I/O attribution: each session sees exactly its own
/// traffic, and the sessions' record reads sum to the engine-global
/// delta.
#[test]
fn sessions_attribute_their_own_io() {
    let db = pers_db(3_000, 2);
    let service = QueryService::new(Arc::clone(&db), ServiceConfig::default());
    let global_before = db.store().stats().snapshot();

    let s1 = service.session();
    let s2 = service.session();
    let out1 = s1.query("//manager//employee/name").unwrap();
    let out2 = s2.query("//manager//employee/name").unwrap();
    let out3 = s2.query("//manager/secretary").unwrap();

    assert!(out1.io.record_reads > 0, "query I/O must be attributed");
    assert_eq!(out2.io.record_reads + out3.io.record_reads, s2.io_snapshot().record_reads);
    assert_eq!(s1.io_snapshot().record_reads, out1.io.record_reads);

    let global_delta = db.store().stats().snapshot().since(&global_before);
    assert_eq!(
        s1.io_snapshot().record_reads + s2.io_snapshot().record_reads,
        global_delta.record_reads,
        "session attribution must partition the global record-read delta"
    );
    // The second identical query is served from the warm buffer pool:
    // its session observes hits, not fresh disk reads.
    assert!(out2.io.buffer_hits > 0, "warm pool traffic attributed to session 2");
}

/// Concurrent sessions partition the global record-read delta with no
/// loss or double counting.
#[test]
fn concurrent_io_attribution_sums_to_the_global_delta() {
    let db = pers_db(3_000, 2);
    let service = QueryService::new(Arc::clone(&db), ServiceConfig::default());
    let queries = pers_queries();
    let global_before = db.store().stats().snapshot();

    let per_session: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|worker| {
                let session = service.session();
                let queries = &queries;
                scope.spawn(move || {
                    for i in 0..8 {
                        let w = &queries[(worker + i) % queries.len()];
                        session.query_with(w.query, DPP).expect("runs clean");
                    }
                    session.io_snapshot().record_reads
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let global_delta = db.store().stats().snapshot().since(&global_before);
    let summed: u64 = per_session.iter().sum();
    assert_eq!(
        summed, global_delta.record_reads,
        "per-session record reads must sum to the global delta"
    );
    assert!(per_session.iter().all(|&r| r > 0), "every session did real work");
}

/// The service surface renders its observability JSON with every
/// advertised section present.
#[test]
fn metrics_json_has_all_sections() {
    let db = pers_db(2_000, 1);
    let service = QueryService::new(Arc::clone(&db), ServiceConfig::default());
    let session = service.session();
    session.query("//manager//employee/name").unwrap();
    session.query("//manager//employee/name").unwrap();
    let json = service.metrics_json();
    for needle in [
        "\"queries\"",
        "\"plan_cache\"",
        "\"admission\"",
        "\"latency\"",
        "\"sessions\"",
        "\"hit_rate\"",
        "\"bound_violations\":0",
        "\"p99_ms\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}

/// Satellite regression for the queue-timeout edge: a deadline-
/// timed-out waiter must leave the admission state exactly as it
/// found it — ticket gone from the queue, `in_use` untouched, and
/// (the high-water witness) `peak_in_use` unchanged. The queue must
/// not be wedged for the next arrival.
#[test]
fn timed_out_waiter_leaves_no_trace_in_the_admission_state() {
    use sjos::service::AdmissionController;

    let ctl = AdmissionController::new(100, 4);
    let held = ctl.admit(90, Duration::ZERO).expect("fits the empty budget");
    let before = ctl.snapshot();
    assert_eq!(before.peak_in_use, 90);

    let err = ctl.admit(20, Duration::from_millis(30)).expect_err("cannot fit behind 90");
    assert_eq!(err.reason, RejectReason::TimedOut);

    let after = ctl.snapshot();
    assert_eq!(after.waiting, 0, "the timed-out ticket must leave the queue");
    assert_eq!(after.in_use, 90, "a rejected waiter must not hold bytes");
    assert_eq!(
        after.peak_in_use, before.peak_in_use,
        "high-water witness moved: the expired waiter took a reservation"
    );
    assert_eq!(after.rejected, before.rejected + 1);

    // The departure must not wedge the queue for the next arrival.
    drop(held);
    let next = ctl.admit(20, Duration::ZERO).expect("freed budget admits immediately");
    assert_eq!(next.certified_bytes(), 20);
    assert_eq!(ctl.snapshot().peak_in_use, 90, "20 B after the release never beats the 90 B peak");
}

/// Hammer the release-vs-deadline race the fixed admit loop closes:
/// the holder's release lands right around the waiter's expiry. On
/// every outcome the admission state must stay exact — a granted
/// waiter releases normally, a timed-out waiter vanishes without
/// touching `peak_in_use`, and the high-water mark never exceeds the
/// single holder's 90 bytes (the waiter's 20 can only ever be
/// reserved after the 90 left).
#[test]
fn release_racing_the_deadline_never_corrupts_the_high_water_mark() {
    use sjos::service::AdmissionController;

    let ctl = Arc::new(AdmissionController::new(100, 4));
    let mut timeouts = 0u32;
    let mut grants = 0u32;
    for round in 0..40 {
        let held = ctl.admit(90, Duration::ZERO).expect("budget starts free");
        let c = Arc::clone(&ctl);
        // Stagger the deadline across rounds so the release lands
        // before, around, and after expiry.
        let limit = Duration::from_micros(200 * (round % 5));
        let waiter = std::thread::spawn(move || c.admit(20, limit).map(|p| p.certified_bytes()));
        std::thread::sleep(Duration::from_micros(300));
        drop(held);
        match waiter.join().expect("waiter thread survives") {
            Ok(bytes) => {
                assert_eq!(bytes, 20);
                grants += 1;
            }
            Err(rej) => {
                assert_eq!(rej.reason, RejectReason::TimedOut);
                timeouts += 1;
            }
        }
        let snap = ctl.snapshot();
        assert_eq!(snap.waiting, 0, "round {round}: a ticket was left behind");
        assert_eq!(snap.in_use, 0, "round {round}: a reservation leaked");
        assert_eq!(
            snap.peak_in_use, 90,
            "round {round}: the high-water mark moved — an expired waiter was granted \
             while the holder still held its 90 bytes"
        );
    }
    // Both edges of the race must actually occur for the hammering to
    // mean anything; with deadlines from 0 to 800us around a 300us
    // release, each side shows up well before 40 rounds.
    assert!(timeouts > 0, "no waiter ever timed out — the race window never opened");
    assert!(grants > 0, "no waiter was ever granted — the release path went untested");
}
