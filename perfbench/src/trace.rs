//! The traced run: the service's `serve()` sequence rebuilt from
//! public parts, with a span around each call into a layer, and the
//! per-layer metrics derived from those spans, the counts attached to
//! them, and a few untimed probes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sjos::exec::{execute_counting, execute_parallel_counting, ParallelPolicy};
use sjos::planck::DEFAULT_MEMORY_BUDGET;
use sjos::service::{AdmissionController, CachedPlan, PlanCache, PlanKey, RejectReason};
use sjos::storage::{IoStats, IoTap};
use sjos::{Database, QueryGuard, ServiceConfig};

use crate::drive::{closed_loop, Class, LoopRun, Outcome, Record};
use crate::util::{mean, median, metric, quantile, ratio, Metric};
use crate::workloads::{Corpus, Request, StreamSource};

/// The layer spans under each `request` root, in call order.
pub const LAYERS: [&str; 7] = [
    "pattern.parse",
    "service.plan_cache",
    "stats.estimate",
    "core.optimize",
    "planck.bounds",
    "service.admit",
    "exec.execute",
];

/// One timed call. `parent` is the id of the enclosing span (`None`
/// for a `request` root); ids are unique within a run.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one corpus's rebuilt service holds: the same parts, under the
/// same configuration, as `QueryService`.
pub struct TracedService {
    db: Arc<Database>,
    config: ServiceConfig,
    cache: PlanCache,
    admission: AdmissionController,
}

impl TracedService {
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> TracedService {
        TracedService {
            cache: PlanCache::new(config.plan_cache_capacity),
            admission: AdmissionController::new(config.memory_budget, config.queue_capacity),
            db,
            config,
        }
    }
}

/// One traced client: its I/O tap, its spans, and the plans it used.
pub struct TracedClient {
    client: u64,
    epoch: Instant,
    tap: Arc<IoStats>,
    next_request: u64,
    next_span: u64,
    pub spans: Vec<Span>,
    /// The plan each (corpus, query, algorithm) ran with.
    pub plans: HashMap<(usize, String, &'static str), Arc<CachedPlan>>,
    /// Executions whose measured peak exceeded the admitted
    /// certificate (the service's `bound_violations`).
    pub bound_violations: u64,
}

impl TracedClient {
    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name` under `parent`.
    fn span<R>(
        &mut self,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, &mut Span) {
        let start_ns = self.ns();
        let out = f();
        let end_ns = self.ns();
        self.next_span += 1;
        let id = (self.client << 40) | self.next_span;
        let request = (self.client << 40) | self.next_request;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            request,
            name,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        });
        (out, self.spans.last_mut().expect("just pushed"))
    }

    /// The service's `serve()` for one request, call by call.
    fn serve(&mut self, services: &[TracedService], r: &Request) -> Outcome {
        self.next_request += 1;
        self.next_span += 1;
        let root = (self.client << 40) | self.next_span;
        let root_index = self.spans.len();
        self.spans.push(Span {
            id: root,
            parent: None,
            request: (self.client << 40) | self.next_request,
            name: "request",
            start_ns: self.ns(),
            end_ns: 0,
            attrs: Vec::new(),
        });
        let started = Instant::now();
        let outcome = self.serve_in(&services[r.corpus], r, root, started);
        self.spans[root_index].end_ns = self.ns();
        outcome
    }

    fn serve_in(
        &mut self,
        svc: &TracedService,
        r: &Request,
        root: u64,
        started: Instant,
    ) -> Outcome {
        let (parsed, _) = self.span(root, "pattern.parse", || sjos::parse_pattern(&r.text));
        let pattern = match parsed {
            Ok(p) => p,
            Err(e) => return Outcome::Failed(e.to_string()),
        };
        let catalog = svc.db.catalog();
        let key = PlanKey {
            signature: pattern.to_string(),
            algorithm: r.algorithm,
            catalog_version: catalog.version(),
        };
        let (hit, span) = self.span(root, "service.plan_cache", || {
            svc.cache.get(&key, catalog.version(), catalog.fingerprint())
        });
        span.attrs.push(("hit", f64::from(u8::from(hit.is_some()))));
        let cached = match hit {
            Some(plan) => plan,
            None => {
                let (est, _) = self.span(root, "stats.estimate", || svc.db.estimates(&pattern));
                let (optimized, span) = self.span(root, "core.optimize", || {
                    sjos::optimize(&pattern, &est, svc.db.cost_model(), r.algorithm)
                });
                let optimized = match optimized {
                    Ok(o) => o,
                    Err(e) => return Outcome::Failed(e.to_string()),
                };
                span.attrs.push(("plans_considered", optimized.stats.plans_considered as f64));
                let (bounds, span) = self.span(root, "planck.bounds", || {
                    svc.db.resource_bounds(&pattern, &optimized.plan)
                });
                span.attrs.push(("certified_bytes", bounds.peak_bytes as f64));
                let plan = Arc::new(CachedPlan {
                    plan: optimized.plan,
                    estimated_cost: optimized.estimated_cost,
                    bounds,
                    catalog_version: catalog.version(),
                    catalog_fingerprint: catalog.fingerprint(),
                });
                self.span(root, "service.plan_cache", || svc.cache.insert(key, Arc::clone(&plan)));
                plan
            }
        };
        self.plans
            .entry((r.corpus, r.text.clone(), r.algorithm.name()))
            .or_insert_with(|| Arc::clone(&cached));
        let serial = cached.bounds.peak_bytes;

        // Admission, parallel-first as in `serve()`: reserve
        // `workers ×` the certificate, else fall back to serial.
        let wait_limit = svc.config.queue_timeout;
        let workers = svc.config.parallelism.max(1);
        let (admitted, _) = self.span(root, "service.admit", || {
            if workers > 1 {
                let scaled = serial.saturating_mul(workers as u64);
                if let Ok(permit) = svc.admission.admit(scaled, wait_limit) {
                    return Ok((permit, scaled, true));
                }
            }
            let remaining = wait_limit.saturating_sub(started.elapsed());
            svc.admission.admit(serial, remaining).map(|permit| (permit, serial, false))
        });
        let (permit, certified, parallel) = match admitted {
            Ok(granted) => granted,
            Err(rej) => return Outcome::Refused { reason: rej.reason, certified: serial },
        };

        let guard = Arc::new(
            QueryGuard::unlimited()
                .with_memory_budget(usize::try_from(certified).unwrap_or(usize::MAX)),
        );
        let tap = Arc::clone(&self.tap);
        let (executed, span) = self.span(root, "exec.execute", || {
            let before = tap.snapshot();
            let _tap = IoTap::install(Arc::clone(&tap));
            let result = if parallel {
                sjos::exec::execute_parallel_guarded(
                    svc.db.store(),
                    &pattern,
                    &cached.plan,
                    &guard,
                    ParallelPolicy::with_threads(workers),
                )
                .map(|p| {
                    let morsels = p.morsel_count();
                    (p.result, morsels)
                })
            } else {
                sjos::exec::execute_guarded(svc.db.store(), &pattern, &cached.plan, &guard)
                    .map(|r| (r, 1))
            };
            (result, tap.snapshot().since(&before))
        });
        drop(permit);
        let (result, io) = executed;
        match result {
            Ok((result, morsels)) => {
                let violated = result.metrics.peak_bytes > certified;
                span.attrs.extend([
                    ("rows", result.tuples.len() as f64),
                    ("buffer_hits", io.buffer_hits as f64),
                    ("disk_reads", io.disk_reads as f64),
                    ("record_reads", io.record_reads as f64),
                    ("peak_bytes", result.metrics.peak_bytes as f64),
                    ("certified_bytes", certified as f64),
                    ("morsels", morsels as f64),
                ]);
                self.bound_violations += u64::from(violated);
                Outcome::Done {
                    result: Box::new(result),
                    io,
                    morsels,
                    degraded: false,
                    certified: serial,
                }
            }
            Err(e) => Outcome::Failed(e.to_string()),
        }
    }
}

/// Run the traced loop; returns the run and each client's spans and
/// plans.
pub fn traced(
    clients: usize,
    source: &StreamSource,
    duration: Duration,
    services: &[TracedService],
) -> (LoopRun, Vec<TracedClient>) {
    let epoch = Instant::now();
    let open = |c: usize| TracedClient {
        client: c as u64,
        epoch,
        tap: Arc::new(IoStats::new()),
        next_request: 0,
        next_span: 0,
        spans: Vec::new(),
        plans: HashMap::new(),
        bound_violations: 0,
    };
    closed_loop(clients, source, duration, open, |client: &mut TracedClient, r: &Request| {
        client.serve(services, r)
    })
}

/// Self time per span name, summed over all requests: a span's
/// duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut totals = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *totals.entry(s.name).or_default() += own;
    }
    totals
}

fn span_durations(spans: &[Span], name: &str, scale: f64) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * scale).collect()
}

fn attr(spans: &[Span], name: &str, key: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
        .collect()
}

/// Requests whose signature (exact, or with literals emptied) was
/// seen earlier in the run, over all clients in send order.
pub fn repeat_shares(run: &LoopRun) -> (f64, f64) {
    let mut records: Vec<_> = run.records().collect();
    records.sort_by_key(|r| r.sent);
    let (mut exact, mut shape) = (HashSet::new(), HashSet::new());
    let (mut exact_repeats, mut shape_repeats) = (0usize, 0usize);
    for r in &records {
        let (corpus, text, alg) = r.request.signature();
        exact_repeats += usize::from(!exact.insert((corpus, text.to_string(), alg)));
        shape_repeats += usize::from(!shape.insert(r.request.shape_signature()));
    }
    let n = records.len() as f64;
    (ratio(exact_repeats as f64, n), ratio(shape_repeats as f64, n))
}

/// Per-layer metrics from the traced loop (with its spans), the
/// untraced loop of the same run, and the probes.
pub fn layer_metrics(
    untraced: &LoopRun,
    traced: &LoopRun,
    clients: &[TracedClient],
    services: &[TracedService],
    probes: &Probes,
    setup: &crate::workloads::SetupTimes,
) -> Vec<Metric> {
    let spans: Vec<Span> = clients.iter().flat_map(|c| c.spans.iter().cloned()).collect();
    let done: Vec<&Record> = traced.records().filter(|r| r.class == Class::Done).collect();
    let attempted = traced.attempted() as f64;
    let per_q = |f: &dyn Fn(&Record) -> u64| {
        ratio(done.iter().map(|&r| f(r) as f64).sum(), done.len() as f64)
    };
    let share = |f: &dyn Fn(&Record) -> bool| {
        ratio(traced.records().filter(|&r| f(r)).count() as f64, attempted)
    };
    let (hits, reads) = (per_q(&|r| r.io.buffer_hits), per_q(&|r| r.io.disk_reads));
    let (cache_hits, cache_misses, queued) = services.iter().fold((0, 0, 0), |(h, m, q), s| {
        let c = s.cache.snapshot();
        (h + c.hits, m + c.misses, q + s.admission.snapshot().queued)
    });
    let slack_logs: Vec<f64> = done
        .iter()
        .map(|r| (r.certified.max(1) as f64).ln() - (r.exec.peak_bytes.max(1) as f64).ln())
        .collect();
    let us = |name| median(&span_durations(&spans, name, 1e-3));
    let optimize_us = span_durations(&spans, "core.optimize", 1e-3);
    let execute_ms = span_durations(&spans, "exec.execute", 1e-6);
    let (repeat, shape_repeat) = repeat_shares(untraced);
    let selfs = self_times(&spans);
    let request_ns: u64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum();
    let catalog_s = median(&setup.catalog);

    let mut m = vec![
        metric("xml.parse_s", median(&setup.parse), "s"),
        metric("storage.load_s", median(&setup.from_document) - catalog_s, "s"),
        metric("storage.hit_rate", ratio(hits, hits + reads), "ratio"),
        metric("storage.disk_reads_per_q", reads, "pages"),
        metric("storage.evictions_per_q", per_q(&|r| r.io.evictions), "pages"),
        metric("storage.records_per_q", per_q(&|r| r.io.record_reads), "records"),
        metric("storage.scan_cold_ns_per_page", probes.scan_cold_ns_per_page, "ns"),
        metric("storage.scan_warm_ns_per_page", probes.scan_warm_ns_per_page, "ns"),
        metric("storage.spill_pages_per_q", per_q(&|r| r.io.spill_page_writes), "pages"),
        metric("stats.catalog_build_s", catalog_s, "s"),
        metric("stats.estimate_us", us("stats.estimate"), "us"),
        metric("pattern.parse_us", us("pattern.parse"), "us"),
        metric("core.optimize_us", median(&optimize_us), "us"),
        metric("core.optimize_p90_us", quantile(&optimize_us, 0.9), "us"),
        metric(
            "core.plans_considered",
            mean(&attr(&spans, "core.optimize", "plans_considered")),
            "count",
        ),
        metric("planck.bounds_us", us("planck.bounds"), "us"),
        metric("planck.bound_slack", mean(&slack_logs).exp(), "ratio"),
        metric("planck.over_budget_frac", share(&|r| r.certified > DEFAULT_MEMORY_BUDGET), "frac"),
        metric(
            "service.cache_hit_rate",
            ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
            "ratio",
        ),
        metric("service.admit_us", us("service.admit"), "us"),
        metric("service.queued_frac", ratio(queued as f64, attempted), "frac"),
        metric(
            "service.refused_never_fits_frac",
            share(&|r| r.class == Class::Refused(RejectReason::NeverFits)),
            "frac",
        ),
        metric(
            "service.refused_timed_out_frac",
            share(&|r| r.class == Class::Refused(RejectReason::TimedOut)),
            "frac",
        ),
        metric(
            "service.refused_queue_full_frac",
            share(&|r| r.class == Class::Refused(RejectReason::QueueFull)),
            "frac",
        ),
        metric("exec.execute_ms", median(&execute_ms), "ms"),
        metric("exec.execute_p90_ms", quantile(&execute_ms, 0.9), "ms"),
        metric("exec.count_ms", probes.count_ms, "ms"),
        metric("exec.rows_per_q", per_q(&|r| r.rows), "rows"),
        metric(
            "exec.stack_ops_per_q",
            per_q(&|r| r.exec.stack_pushes + r.exec.stack_pops),
            "count",
        ),
        metric("exec.scanned_records_per_q", per_q(&|r| r.exec.scanned_records), "records"),
        metric(
            "exec.peak_bytes_max",
            done.iter().map(|r| r.exec.peak_bytes).max().unwrap_or(0) as f64,
            "B",
        ),
        metric("exec.morsels_per_q", per_q(&|r| r.morsels as u64), "count"),
        metric("exec.parallel_read_amp", probes.parallel_read_amp, "ratio"),
        metric("trace.overhead_frac", 1.0 - ratio(traced.qps(), untraced.qps()), "frac"),
    ];
    for name in std::iter::once("request").chain(LAYERS) {
        let own = selfs.get(name).copied().unwrap_or(0);
        m.push(metric(
            format!("trace.self_share.{name}"),
            ratio(own as f64, request_ns as f64),
            "frac",
        ));
    }
    m.push(metric("workload.repeat_share", repeat, "frac"));
    m.push(metric("workload.shape_repeat_share", shape_repeat, "frac"));
    m
}

/// Layer work that cannot be separated from outside the calls, probed
/// after the request loops.
#[derive(Debug, Default)]
pub struct Probes {
    /// Median over traced requests of their plan's counting-mode
    /// execution time.
    pub count_ms: f64,
    pub scan_cold_ns_per_page: f64,
    pub scan_warm_ns_per_page: f64,
    /// Records decoded by 2-worker execution over serial execution,
    /// same plans, cold pool each time.
    pub parallel_read_amp: f64,
}

/// Requests (and distinct plans) the probes cover, bounding their
/// cost on workloads with many distinct plans.
const PROBE_REQUESTS: usize = 200;
const PROBE_PLANS: usize = 16;

pub fn probe(
    corpora: &[Corpus],
    traced: &LoopRun,
    clients: &[TracedClient],
) -> Result<Probes, String> {
    let plans: HashMap<_, _> = clients.iter().flat_map(|c| c.plans.iter()).collect();
    let requests: Vec<_> = traced
        .records()
        .filter(|r| r.class == Class::Done)
        .take(PROBE_REQUESTS)
        .map(|r| (r.request.corpus, r.request.text.clone(), r.request.algorithm.name()))
        .collect();
    let mut distinct: Vec<_> = requests.clone();
    distinct.sort();
    distinct.dedup();
    let engine = |e: sjos::EngineError| e.to_string();

    let mut count_ms: HashMap<_, f64> = HashMap::new();
    for key in &distinct {
        let (db, plan) = (&corpora[key.0].db, &plans[key]);
        let pattern = sjos::parse_pattern(&key.1).map_err(|e| e.to_string())?;
        let t = Instant::now();
        execute_counting(db.store(), &pattern, &plan.plan).map_err(engine)?;
        count_ms.insert(key.clone(), t.elapsed().as_secs_f64() * 1e3);
    }
    let counted: Vec<f64> = requests.iter().map(|k| count_ms[k]).collect();

    let (mut serial_records, mut parallel_records) = (0u64, 0u64);
    for key in distinct.iter().take(PROBE_PLANS) {
        let (store, plan) = (corpora[key.0].db.store(), &plans[key].plan);
        let pattern = sjos::parse_pattern(&key.1).map_err(|e| e.to_string())?;
        let records = |run: &dyn Fn() -> Result<(), sjos::EngineError>| {
            store.pool().reset_cache().map_err(|e| e.to_string())?;
            let before = store.stats().snapshot();
            run().map_err(engine)?;
            Ok::<u64, String>(store.stats().snapshot().since(&before).record_reads)
        };
        serial_records += records(&|| execute_counting(store, &pattern, plan).map(drop))?;
        parallel_records +=
            records(&|| execute_parallel_counting(store, &pattern, plan, 2).map(drop))?;
    }

    // Scan every tag the workload's queries name, cold then warm.
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..3 {
        let (mut cold_ns, mut warm_ns, mut pages) = (0u128, 0u128, 0usize);
        for (c, corpus) in corpora.iter().enumerate() {
            let store = corpus.db.store();
            let mut tags: Vec<_> = distinct
                .iter()
                .filter(|k| k.0 == c)
                .filter_map(|k| sjos::parse_pattern(&k.1).ok())
                .flat_map(|p| p.tags().into_iter().map(str::to_string).collect::<Vec<_>>())
                .filter_map(|t| corpus.db.document().tag(&t))
                .collect();
            tags.sort();
            tags.dedup();
            store.pool().reset_cache().map_err(|e| e.to_string())?;
            for pass in [&mut cold_ns, &mut warm_ns] {
                let t = Instant::now();
                for &tag in &tags {
                    for rec in store.scan_tag(tag) {
                        std::hint::black_box(rec.map_err(|e| e.to_string())?);
                    }
                }
                *pass += t.elapsed().as_nanos();
            }
            pages += tags.iter().map(|&t| store.index().pages(t).len()).sum::<usize>();
        }
        cold.push(ratio(cold_ns as f64, pages as f64));
        warm.push(ratio(warm_ns as f64, pages as f64));
    }
    Ok(Probes {
        count_ms: median(&counted),
        scan_cold_ns_per_page: median(&cold),
        scan_warm_ns_per_page: median(&warm),
        parallel_read_amp: ratio(parallel_records as f64, serial_records as f64),
    })
}

/// The spans as JSON lines, one object per span.
pub fn spans_jsonl(clients: &[TracedClient]) -> String {
    let mut out = String::new();
    for s in clients.iter().flat_map(|c| c.spans.iter()) {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            s.name,
            s.start_ns,
            s.end_ns
        );
        for (k, v) in &s.attrs {
            let _ = write!(out, ",\"{k}\":{}", crate::util::json_num(*v));
        }
        out.push_str("}\n");
    }
    out
}
