//! A concurrent multi-session query service over one shared engine.
//!
//! [`QueryService`] wraps one [`Database`] — one `XmlStore`, one
//! buffer pool, one catalog — and serves many [`Session`]s at once,
//! each typically owned by one worker thread. Three mechanisms make
//! the sharing safe and observable:
//!
//! 1. **Global admission control** ([`admission`]). Every query's
//!    plan carries a *certified* worst-case peak-memory bound from
//!    [`sjos_planck::analyze_bounds`]; the controller admits queries
//!    only while the sum of in-flight certificates fits the
//!    service-wide budget, queueing (bounded FIFO, deadline-aware
//!    timeout) or rejecting with [`ServiceError::Overloaded`]
//!    otherwise. Because each query then runs under a
//!    [`QueryGuard`] whose memory budget equals its certificate, and
//!    certificates are sound upper bounds (PL064), the aggregate
//!    *measured* footprint of admitted queries provably cannot exceed
//!    the budget. A certificate that can *never* fit degrades instead
//!    of failing: the plan is re-certified under
//!    [`ExecOptions`] with a spill policy (PL066), where sorts park
//!    their buffers in temp pages, and admitted under the smaller
//!    resident certificate — the query runs slower but answers
//!    bit-identically.
//! 2. **Plan caching** ([`plan_cache`]). Plans are cached under
//!    (pattern signature, algorithm, catalog version) with an LRU
//!    bound, so repeated patterns skip DP/DPP entirely; every hit is
//!    revalidated against the live catalog generation (PL065).
//! 3. **Intra-query parallelism** ([`ServiceConfig::parallelism`]).
//!    Above 1, non-degraded queries run morsel-partitioned through
//!    [`sjos_exec::execute`]: admission reserves `parallelism ×` the
//!    plan's certificate ([`sjos_planck::ResourceBounds::scaled`], the
//!    aggregate a shared-guard morsel run is bounded by), falling back
//!    to serial admission when the scaled reservation does not fit;
//!    results and metric totals stay bit-identical to the serial run
//!    (PL068).
//! 4. **Observability** ([`metrics`]). Per-session and aggregate
//!    counters — admitted/queued/rejected, cache hit rate, latency
//!    percentiles, certified vs. measured peaks — export as JSON via
//!    [`QueryService::metrics_json`]. Per-session I/O uses the
//!    storage layer's thread-local [`sjos_storage::IoTap`], so each
//!    session sees its own buffer-pool and disk traffic even though
//!    the underlying counters are engine-global.

pub mod admission;
pub mod metrics;
pub mod models;
pub mod plan_cache;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sjos_core::Algorithm;
use sjos_exec::{ExecOptions, PlanNode, QueryGuard, QueryResult, SpillPolicy};
use sjos_pattern::{parse_pattern, Pattern};
use sjos_storage::{IoSnapshot, IoTap};

use crate::{Database, Error};

pub use admission::{AdmissionController, AdmissionSnapshot, RejectReason, Rejection};
pub use metrics::{LatencySummary, ServiceMetrics, SessionMetrics};
pub use plan_cache::{CachedPlan, PlanCache, PlanCacheSnapshot, PlanKey};

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Service-wide budget of certified peak bytes across all
    /// in-flight queries.
    pub memory_budget: u64,
    /// Maximum queries waiting for admission before new arrivals are
    /// rejected outright.
    pub queue_capacity: usize,
    /// Maximum time a query waits in the admission queue (a query
    /// deadline shortens this further).
    pub queue_timeout: Duration,
    /// Maximum resident plan-cache entries.
    pub plan_cache_capacity: usize,
    /// Algorithm used by [`Session::query`] (the paper's
    /// recommendation, DPP, by default).
    pub default_algorithm: Algorithm,
    /// Worker threads per query (1 = serial, the default). Above 1,
    /// non-degraded queries run morsel-partitioned: admission
    /// reserves `parallelism ×` the plan's certificate (the sound
    /// aggregate bound — see [`sjos_planck::ResourceBounds::scaled`]) and
    /// falls back to serial admission when that scaled reservation
    /// does not fit. Degraded (spill) queries always run serially.
    pub parallelism: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            memory_budget: sjos_planck::DEFAULT_MEMORY_BUDGET,
            queue_capacity: 64,
            queue_timeout: Duration::from_secs(2),
            plan_cache_capacity: 256,
            default_algorithm: Algorithm::Dpp { lookahead: true },
            parallelism: 1,
        }
    }
}

/// Everything that can go wrong for a query passing through the
/// service.
#[derive(Debug)]
pub enum ServiceError {
    /// Parse, optimize, or execution failure from the engine.
    Engine(Error),
    /// Admission control turned the query away: the budget is
    /// saturated (after queueing up to the wait limit), the queue is
    /// full, or the certificate can never fit.
    Overloaded(Rejection),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::Overloaded(r) => write!(
                f,
                "overloaded ({:?}): certified {} B against a {} B budget after waiting {:?}",
                r.reason, r.certified_bytes, r.budget, r.waited
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Error> for ServiceError {
    fn from(e: Error) -> ServiceError {
        ServiceError::Engine(e)
    }
}

/// One successfully served query.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The executed result (rows, executor metrics, elapsed time).
    pub result: QueryResult,
    /// The plan that ran, with its certified bounds.
    pub plan: Arc<CachedPlan>,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the query ran in degraded (spill) mode: its in-memory
    /// certificate could never fit the budget, but a spill-mode
    /// re-certification (PL066) did, so its sorts spilled to temp
    /// pages instead of the query being rejected.
    pub degraded: bool,
    /// Time spent queued for admission, summed over the attempts (a
    /// failed parallel-first attempt included); `Duration::ZERO` when
    /// every grant took the fast path.
    pub waited: Duration,
    /// This query's own I/O traffic (session-tap attributed).
    pub io: IoSnapshot,
    /// Morsels the query ran as: 1 for serial execution (including
    /// degraded mode and parallel runs with no valid cut), more when
    /// the morsel partitioner actually split the work.
    pub morsels: usize,
}

struct ServiceInner {
    db: Arc<Database>,
    config: ServiceConfig,
    admission: AdmissionController,
    cache: PlanCache,
    metrics: ServiceMetrics,
    sessions: Mutex<Vec<Arc<SessionMetrics>>>,
    next_session: AtomicU64,
}

/// A shareable handle to the concurrent query service. Cloning is
/// cheap (an `Arc` bump); all clones serve the same engine, budget,
/// and cache.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl fmt::Debug for QueryService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueryService({:?}, budget {} B)", self.inner.db, self.inner.admission.budget())
    }
}

impl QueryService {
    /// Serve `db` under `config`. The database is taken as an `Arc`
    /// so a CLI or test can keep using the same handle directly.
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> QueryService {
        let admission = AdmissionController::new(config.memory_budget, config.queue_capacity);
        let cache = PlanCache::new(config.plan_cache_capacity);
        QueryService {
            inner: Arc::new(ServiceInner {
                db,
                config,
                admission,
                cache,
                metrics: ServiceMetrics::new(),
                sessions: Mutex::new(Vec::new()),
                next_session: AtomicU64::new(0),
            }),
        }
    }

    /// The shared database under the service.
    pub fn database(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Open a session. Sessions are `Send` — hand one to each worker
    /// thread; a session's queries execute on the calling thread and
    /// its I/O counters attribute that thread's traffic.
    pub fn session(&self) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let metrics = Arc::new(SessionMetrics::new(id));
        self.inner.sessions.lock().expect("session registry poisoned").push(Arc::clone(&metrics));
        Session { inner: Arc::clone(&self.inner), metrics }
    }

    /// Admission counters and reservation state.
    pub fn admission_snapshot(&self) -> AdmissionSnapshot {
        self.inner.admission.snapshot()
    }

    /// Plan-cache counters.
    pub fn cache_snapshot(&self) -> PlanCacheSnapshot {
        self.inner.cache.snapshot()
    }

    /// Aggregate outcome counters and latency reservoir.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }

    /// The full observability surface as one JSON object: query
    /// outcomes, plan-cache counters, admission state (budget vs.
    /// peak reservation, certified vs. measured peaks, bound
    /// violations), latency percentiles, and one entry per session.
    pub fn metrics_json(&self) -> String {
        let m = &self.inner.metrics;
        let adm = self.admission_snapshot();
        let cache = self.cache_snapshot();
        let latency = m.latency_summary();
        let sessions = self.inner.sessions.lock().expect("session registry poisoned");
        let session_objs: Vec<String> = sessions.iter().map(|s| metrics::session_json(s)).collect();
        format!(
            "{{\n  \"queries\":{{\"admitted\":{},\"queued\":{},\"rejected\":{},\
             \"completed\":{},\"failed\":{}}},\n  \
             \"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"invalidations\":{},\"hit_rate\":{:.4},\"len\":{},\"capacity\":{}}},\n  \
             \"admission\":{{\"budget_bytes\":{},\"in_use_bytes\":{},\
             \"peak_reserved_bytes\":{},\"max_certified_peak_bytes\":{},\
             \"max_measured_peak_bytes\":{},\"bound_violations\":{}}},\n  \
             \"spill\":{{\"degraded_admissions\":{},\"spilled_queries\":{},\
             \"spilled_runs\":{},\"spilled_bytes\":{},\"merge_passes\":{}}},\n  \
             \"latency\":{},\n  \"sessions\":[{}]\n}}",
            adm.admitted,
            adm.queued,
            adm.rejected,
            m.completed.load(Ordering::Relaxed),
            m.failed.load(Ordering::Relaxed),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.invalidations,
            cache.hit_rate(),
            cache.len,
            cache.capacity,
            adm.budget,
            adm.in_use,
            adm.peak_in_use,
            m.max_certified_peak.load(Ordering::Relaxed),
            m.max_measured_peak.load(Ordering::Relaxed),
            m.bound_violations.load(Ordering::Relaxed),
            m.degraded_admissions.load(Ordering::Relaxed),
            m.spilled_queries.load(Ordering::Relaxed),
            m.spilled_runs.load(Ordering::Relaxed),
            m.spilled_bytes.load(Ordering::Relaxed),
            m.spill_merge_passes.load(Ordering::Relaxed),
            metrics::latency_json(&latency),
            session_objs.join(",")
        )
    }
}

/// One client's handle on the service. Queries run synchronously on
/// the calling thread; open one session per worker.
pub struct Session {
    inner: Arc<ServiceInner>,
    metrics: Arc<SessionMetrics>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Session#{}", self.metrics.id)
    }
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.metrics.id
    }

    /// This session's private I/O counters (tap-attributed).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.metrics.io.snapshot()
    }

    /// Serve a query with the service's default algorithm and no
    /// deadline.
    pub fn query(&self, query: &str) -> Result<ServiceOutcome, ServiceError> {
        let algorithm = self.inner.config.default_algorithm;
        self.query_opts(query, algorithm, None)
    }

    /// Serve a query with an explicit algorithm.
    pub fn query_with(
        &self,
        query: &str,
        algorithm: Algorithm,
    ) -> Result<ServiceOutcome, ServiceError> {
        self.query_opts(query, algorithm, None)
    }

    /// Serve a query with an explicit algorithm and an end-to-end
    /// deadline covering both the admission wait and execution.
    pub fn query_opts(
        &self,
        query: &str,
        algorithm: Algorithm,
        deadline: Option<Duration>,
    ) -> Result<ServiceOutcome, ServiceError> {
        let outcome = self.serve(query, algorithm, deadline);
        match &outcome {
            Ok(_) => {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::Engine(_)) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::Overloaded(_)) => {
                // The controller's `rejected` counter owns this case.
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    fn serve(
        &self,
        query: &str,
        algorithm: Algorithm,
        deadline: Option<Duration>,
    ) -> Result<ServiceOutcome, ServiceError> {
        let inner = &*self.inner;
        let started = Instant::now();
        let pattern = parse_pattern(query).map_err(|e| ServiceError::Engine(Error::Query(e)))?;
        let catalog = inner.db.catalog();
        let key = PlanKey {
            signature: pattern.to_string(),
            algorithm,
            catalog_version: catalog.version(),
        };

        // Plan: cache hit (PL065-revalidated) or optimize + certify.
        let (cached, cache_hit) =
            match inner.cache.get(&key, catalog.version(), catalog.fingerprint()) {
                Some(plan) => {
                    inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                    (plan, true)
                }
                None => {
                    let optimized =
                        inner.db.optimize(&pattern, algorithm).map_err(ServiceError::Engine)?;
                    let bounds = inner.db.resource_bounds(&pattern, &optimized.plan);
                    let plan = Arc::new(CachedPlan {
                        plan: optimized.plan,
                        estimated_cost: optimized.estimated_cost,
                        bounds,
                        catalog_version: catalog.version(),
                        catalog_fingerprint: catalog.fingerprint(),
                    });
                    inner.cache.insert(key, Arc::clone(&plan));
                    (plan, false)
                }
            };

        // Admission: reserve the certificate against the global
        // budget, waiting at most the configured timeout (shortened
        // by the query deadline, if any). A certificate that can
        // *never* fit gets one more chance: re-certified in spill
        // mode (PL066), where sorts park their buffers in temp pages
        // and only the resident footprint counts.
        let wait_limit = match deadline {
            Some(d) => inner.config.queue_timeout.min(d),
            None => inner.config.queue_timeout,
        };
        // Parallel-first: a `parallelism > 1` service reserves the
        // certificate scaled to its workers, the aggregate a
        // shared-guard morsel run is bounded by. If the scaled
        // reservation does not fit, the query falls through to the
        // plain serial path below rather than being rejected.
        let parallel =
            ExecOptions { threads: inner.config.parallelism.max(1), ..ExecOptions::default() };
        let mut waited = Duration::ZERO;
        let mut grant = None;
        if parallel.threads > 1 {
            let (scaled, _) = cached.bounds.scaled(&parallel);
            match inner.admission.admit(scaled, wait_limit) {
                Ok(permit) => grant = Some((permit, scaled, parallel)),
                Err(rejection) => waited = rejection.waited,
            }
        }
        let remaining_wait = wait_limit.saturating_sub(started.elapsed());
        let (permit, certified, opts) = match grant {
            Some(granted) => granted,
            None => match inner.admission.admit(cached.bounds.peak_bytes, remaining_wait) {
                Ok(permit) => (permit, cached.bounds.peak_bytes, ExecOptions::default()),
                Err(rejection) if rejection.reason == RejectReason::NeverFits => {
                    let budget = inner.admission.budget();
                    let Some((spill, bounds)) =
                        degraded_certificate(&inner.db, &pattern, &cached.plan, budget)
                    else {
                        // No sort to spill, or not even the spill
                        // floor fits: the rejection stands.
                        return Err(ServiceError::Overloaded(rejection));
                    };
                    let remaining = wait_limit.saturating_sub(started.elapsed());
                    let permit = inner
                        .admission
                        .admit(bounds.peak_bytes, remaining)
                        .map_err(ServiceError::Overloaded)?;
                    inner.metrics.degraded_admissions.fetch_add(1, Ordering::Relaxed);
                    self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                    (permit, bounds.peak_bytes, spill)
                }
                Err(rejection) => return Err(ServiceError::Overloaded(rejection)),
            },
        };
        waited += permit.waited();

        // Execute under a guard whose memory budget *is* the
        // certificate: the static admission theorem (PL062/PL064)
        // says this run cannot breach it.
        let mut guard = QueryGuard::unlimited()
            .with_memory_budget(usize::try_from(certified).unwrap_or(usize::MAX));
        if let Some(d) = deadline {
            guard = guard.with_deadline(d.saturating_sub(started.elapsed()));
        }
        let opts = ExecOptions { guard: Some(Arc::new(guard)), ..opts };
        let io_before = self.metrics.io.snapshot();
        let result = {
            // The tap is installed on this session thread; the
            // parallel executor mirrors it onto every worker
            // (IoTap::current), so attribution survives the hop.
            let _tap = IoTap::install(Arc::clone(&self.metrics.io));
            sjos_exec::execute(inner.db.store(), &pattern, &cached.plan, &opts)
        };
        drop(permit);
        let io = self.metrics.io.snapshot().since(&io_before);

        match result {
            Ok(outcome) => {
                let morsels = outcome.morsel_count();
                let result = outcome.result;
                inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
                inner.metrics.record_latency(started.elapsed());
                inner.metrics.record_peaks(result.metrics.peak_bytes, certified);
                inner.metrics.record_spill(&result.metrics);
                Ok(ServiceOutcome {
                    result,
                    plan: cached,
                    cache_hit,
                    degraded: opts.spill.is_some(),
                    waited,
                    io,
                    morsels,
                })
            }
            Err(e) => Err(ServiceError::Engine(Error::Exec(e))),
        }
    }
}

/// Find spill-mode options under which `plan`'s resident certificate
/// fits `budget`, if any exist. The certificate at a zero flush
/// threshold is the floor: a plan with no sort has nothing to spill,
/// and a floor above the budget cannot be degraded. Otherwise start
/// from the threshold that spends the budget's headroom above the
/// floor (keeping as much of the sort in memory as possible), and
/// while the certificate still overshoots — several sorts each grow by
/// the threshold — shrink the threshold by the overshoot, down to
/// zero. The resident peak is monotone in the threshold, so a
/// handful of strictly-decreasing steps either certifies (PL066) or
/// proves not even the floor fits.
fn degraded_certificate(
    db: &Database,
    pattern: &Pattern,
    plan: &PlanNode,
    budget: u64,
) -> Option<(ExecOptions, sjos_planck::ResourceBounds)> {
    if plan.is_fully_pipelined() {
        return None;
    }
    let budget_usize = usize::try_from(budget).unwrap_or(usize::MAX);
    let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(budget_usize));
    let spilling_at = |threshold| ExecOptions {
        guard: Some(Arc::clone(&guard)),
        spill: Some(SpillPolicy::with_threshold(threshold)),
        ..ExecOptions::default()
    };
    let (floor, _) = db.admit(pattern, plan, &spilling_at(0));
    let headroom = budget.checked_sub(floor.peak_bytes)?;
    let mut threshold = usize::try_from(headroom).unwrap_or(usize::MAX);
    for _ in 0..4 {
        let opts = spilling_at(threshold);
        let (bounds, report) = db.admit(pattern, plan, &opts);
        if report.is_clean() {
            return Some((opts, bounds));
        }
        if threshold == 0 {
            return None;
        }
        let over = usize::try_from(bounds.peak_bytes.saturating_sub(budget)).unwrap_or(usize::MAX);
        threshold = threshold.saturating_sub(over.max(1));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_are_shareable() {
        assert_send_sync::<Database>();
        assert_send_sync::<QueryService>();
        assert_send_sync::<Session>();
        assert_send_sync::<ServiceError>();
        assert_send_sync::<ServiceOutcome>();
    }

    #[test]
    fn never_fits_query_degrades_to_spill_instead_of_rejecting() {
        use sjos_pattern::PnId;

        // A corpus whose sort input dwarfs the spill machinery's
        // resident floor, so spilling genuinely shrinks the
        // certificate.
        let mut xml = String::from("<db><dept>");
        for _ in 0..20_000 {
            xml.push_str("<emp/>");
        }
        xml.push_str("</dept></db>");
        let db = Arc::new(Database::from_xml(&xml).unwrap());
        let query = "//dept//emp";
        let pattern = parse_pattern(query).unwrap();
        let algorithm = Algorithm::Dpp { lookahead: true };
        let base = db.optimize(&pattern, algorithm).unwrap();
        let plan = sjos_exec::PlanNode::Sort { input: Box::new(base.plan.clone()), by: PnId(0) };
        let full = db.resource_bounds(&pattern, &plan);
        let spill_floor =
            ExecOptions { spill: Some(SpillPolicy::with_threshold(0)), ..ExecOptions::default() };
        let (floor, _) = db.admit(&pattern, &plan, &spill_floor);
        assert!(
            floor.peak_bytes < full.peak_bytes,
            "corpus too small: spilling must shrink the certificate \
             ({} vs {})",
            floor.peak_bytes,
            full.peak_bytes
        );

        // A budget the in-memory certificate can never fit, but the
        // spill floor can.
        let service = QueryService::new(
            Arc::clone(&db),
            ServiceConfig { memory_budget: floor.peak_bytes, ..ServiceConfig::default() },
        );
        // Seed the cache with the sort-rooted plan so the service
        // serves exactly this shape.
        let catalog = db.catalog();
        service.inner.cache.insert(
            PlanKey {
                signature: pattern.to_string(),
                algorithm,
                catalog_version: catalog.version(),
            },
            Arc::new(CachedPlan {
                plan: plan.clone(),
                estimated_cost: base.estimated_cost,
                bounds: full,
                catalog_version: catalog.version(),
                catalog_fingerprint: catalog.fingerprint(),
            }),
        );

        let session = service.session();
        let out = session.query(query).unwrap();
        assert!(out.degraded, "the query must be admitted in spill mode");
        assert!(out.result.metrics.spilled_runs > 0, "the sort must actually spill");
        assert_eq!(
            out.result.canonical_rows(),
            db.execute(&pattern, &plan, &ExecOptions::default()).unwrap().canonical_rows(),
            "degraded execution must answer bit-identically"
        );
        assert_eq!(db.store().spill().live_pages(), 0, "no leaked temp pages");

        let m = service.metrics();
        assert_eq!(m.degraded_admissions.load(Ordering::Relaxed), 1);
        assert_eq!(m.spilled_queries.load(Ordering::Relaxed), 1);
        assert!(m.spilled_runs.load(Ordering::Relaxed) > 0);
        assert_eq!(m.bound_violations.load(Ordering::Relaxed), 0);
        let json = service.metrics_json();
        assert!(json.contains("\"degraded_admissions\":1"), "{json}");
        assert!(json.contains("\"spill_page_writes\""), "{json}");
    }

    #[test]
    fn parallel_service_splits_queries_and_answers_identically() {
        let mut xml = String::from("<db>");
        for i in 0..64 {
            xml.push_str(&format!("<dept><emp><name>p{i}</name></emp></dept>"));
        }
        xml.push_str("</db>");
        let db = Arc::new(Database::from_xml(&xml).unwrap());
        let serial = QueryService::new(Arc::clone(&db), ServiceConfig::default());
        let parallel = QueryService::new(
            Arc::clone(&db),
            ServiceConfig { parallelism: 4, ..ServiceConfig::default() },
        );
        let query = "//dept//emp";
        let s = serial.session().query(query).unwrap();
        let p = parallel.session().query(query).unwrap();
        assert_eq!(s.morsels, 1);
        assert!(p.morsels > 1, "the forest corpus must split into morsels");
        assert_eq!(p.result.canonical_rows(), s.result.canonical_rows());
        assert_eq!(p.result.metrics.output_tuples, s.result.metrics.output_tuples);
        assert_eq!(p.result.metrics.stack_pushes, s.result.metrics.stack_pushes);
        // Admission reserved the scaled certificate, not the serial one.
        assert!(
            parallel.admission_snapshot().peak_in_use
                >= 4 * serial.admission_snapshot().peak_in_use
        );
        // The worker-side I/O still lands in this session's tap.
        assert!(p.io.record_reads > 0, "worker record reads must attribute to the session");
    }

    #[test]
    fn uncontended_queries_report_no_admission_wait() {
        let db = Arc::new(
            Database::from_xml(
                "<dept><emp><name>ada</name></emp><emp><name>bob</name></emp></dept>",
            )
            .unwrap(),
        );
        for parallelism in [1, 2] {
            let config = ServiceConfig { parallelism, ..ServiceConfig::default() };
            let service = QueryService::new(Arc::clone(&db), config);
            let out = service.session().query("//dept/emp/name").unwrap();
            assert_eq!(out.waited, Duration::ZERO, "parallelism {parallelism}");
            assert_eq!(service.admission_snapshot().queued, 0);
        }
    }

    #[test]
    fn second_arrival_of_a_pattern_hits_the_cache() {
        let db = Arc::new(
            Database::from_xml(
                "<dept><emp><name>ada</name></emp><emp><name>bob</name></emp></dept>",
            )
            .unwrap(),
        );
        let service = QueryService::new(db, ServiceConfig::default());
        let session = service.session();
        let first = session.query("//dept/emp/name").unwrap();
        assert!(!first.cache_hit);
        let second = session.query("//dept/emp/name").unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.result.canonical_rows(), second.result.canonical_rows());
        let cache = service.cache_snapshot();
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert_eq!(service.admission_snapshot().admitted, 2);
        assert_eq!(service.metrics().bound_violations.load(Ordering::Relaxed), 0);
    }
}
