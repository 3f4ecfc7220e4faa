//! Service-level observability: per-session and aggregate counters,
//! latency percentiles, and the JSON export the service and CLI
//! surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sjos_exec::MetricsSnapshot;
use sjos_storage::{IoSnapshot, IoStats};

/// Aggregate query-outcome counters plus the latency reservoir.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Queries that ran to completion.
    pub completed: AtomicU64,
    /// Queries that failed in parse/optimize/execute (admission
    /// rejections are counted by the controller, not here).
    pub failed: AtomicU64,
    /// Plan-cache hits observed by sessions (mirrors the cache's own
    /// counter; kept here so one snapshot struct carries everything).
    pub cache_hits: AtomicU64,
    /// Completed queries whose measured `peak_bytes` exceeded their
    /// certified bound — must stay 0; anything else falsifies the
    /// bound analysis (PL064) and the admission guarantee with it.
    pub bound_violations: AtomicU64,
    /// Largest measured per-query `peak_bytes` seen.
    pub max_measured_peak: AtomicU64,
    /// Largest certified per-query peak admitted.
    pub max_certified_peak: AtomicU64,
    /// Queries the in-memory certificate could never fit that were
    /// re-certified and admitted in spill mode (PL066).
    pub degraded_admissions: AtomicU64,
    /// Completed queries whose sorts actually spilled at least one
    /// run to temp pages.
    pub spilled_queries: AtomicU64,
    /// Sorted runs flushed to temp pages across all queries.
    pub spilled_runs: AtomicU64,
    /// Buffered bytes released to temp pages across all queries.
    pub spilled_bytes: AtomicU64,
    /// Cascade merge passes performed across all queries.
    pub spill_merge_passes: AtomicU64,
    /// Completed-query latencies in microseconds.
    latencies_us: Mutex<Vec<u64>>,
}

impl ServiceMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::default()
    }

    /// Record one completed query's wall-clock latency.
    pub fn record_latency(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.latencies_us.lock().expect("latency mutex poisoned").push(us);
    }

    /// Record a completed query's measured vs. certified peak bytes,
    /// counting a violation if the measurement escaped the bound.
    pub fn record_peaks(&self, measured: u64, certified: u64) {
        self.max_measured_peak.fetch_max(measured, Ordering::Relaxed);
        self.max_certified_peak.fetch_max(certified, Ordering::Relaxed);
        if measured > certified {
            self.bound_violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fold one completed query's spill counters into the aggregates.
    pub fn record_spill(&self, m: &MetricsSnapshot) {
        if m.spilled_runs > 0 {
            self.spilled_queries.fetch_add(1, Ordering::Relaxed);
        }
        self.spilled_runs.fetch_add(m.spilled_runs, Ordering::Relaxed);
        self.spilled_bytes.fetch_add(m.spilled_bytes, Ordering::Relaxed);
        self.spill_merge_passes.fetch_add(m.spill_merge_passes, Ordering::Relaxed);
    }

    /// Latency percentiles over everything recorded so far.
    pub fn latency_summary(&self) -> LatencySummary {
        let mut us = self.latencies_us.lock().expect("latency mutex poisoned").clone();
        us.sort_unstable();
        LatencySummary::from_sorted(&us)
    }
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of recorded latencies.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarize an ascending-sorted latency vector (nearest-rank
    /// percentiles).
    pub fn from_sorted(sorted_us: &[u64]) -> LatencySummary {
        if sorted_us.is_empty() {
            return LatencySummary::default();
        }
        let pick = |p: f64| {
            let rank = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
            sorted_us[rank - 1]
        };
        LatencySummary {
            count: sorted_us.len() as u64,
            p50_us: pick(0.50),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            max_us: sorted_us[sorted_us.len() - 1],
        }
    }
}

/// Per-session accounting: identity, outcome counters, and the
/// session-local I/O attribution tap target.
#[derive(Debug)]
pub struct SessionMetrics {
    /// Session id (assigned at creation, dense from 0).
    pub id: u64,
    /// Queries this session completed.
    pub completed: AtomicU64,
    /// Queries this session failed (including admission rejections).
    pub failed: AtomicU64,
    /// Queries this session ran in degraded (spill) mode.
    pub degraded: AtomicU64,
    /// The session's private I/O counters — every bump the session's
    /// thread performs during execution is mirrored here via
    /// [`sjos_storage::IoTap`].
    pub io: Arc<IoStats>,
}

impl SessionMetrics {
    /// Fresh metrics for session `id`.
    pub fn new(id: u64) -> SessionMetrics {
        SessionMetrics {
            id,
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            io: Arc::new(IoStats::new()),
        }
    }
}

fn io_json(io: &IoSnapshot) -> String {
    format!(
        "{{\"buffer_hits\":{},\"disk_reads\":{},\"disk_writes\":{},\"evictions\":{},\
         \"record_reads\":{},\"read_retries\":{},\"write_retries\":{},\
         \"spill_page_writes\":{},\"spill_page_reads\":{}}}",
        io.buffer_hits,
        io.disk_reads,
        io.disk_writes,
        io.evictions,
        io.record_reads,
        io.read_retries,
        io.write_retries,
        io.spill_page_writes,
        io.spill_page_reads
    )
}

/// Render one session's metrics as a JSON object.
pub fn session_json(s: &SessionMetrics) -> String {
    format!(
        "{{\"id\":{},\"completed\":{},\"failed\":{},\"degraded\":{},\"io\":{}}}",
        s.id,
        s.completed.load(Ordering::Relaxed),
        s.failed.load(Ordering::Relaxed),
        s.degraded.load(Ordering::Relaxed),
        io_json(&s.io.snapshot())
    )
}

/// Render a latency summary as a JSON object (milliseconds, 3 decimal
/// places).
pub fn latency_json(l: &LatencySummary) -> String {
    let ms = |us: u64| us as f64 / 1000.0;
    format!(
        "{{\"count\":{},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3}}}",
        l.count,
        ms(l.p50_us),
        ms(l.p95_us),
        ms(l.p99_us),
        ms(l.max_us)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let us: Vec<u64> = (1..=100).collect();
        let l = LatencySummary::from_sorted(&us);
        assert_eq!(l.p50_us, 50);
        assert_eq!(l.p95_us, 95);
        assert_eq!(l.p99_us, 99);
        assert_eq!(l.max_us, 100);
        assert_eq!(l.count, 100);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(LatencySummary::from_sorted(&[]), LatencySummary::default());
    }

    #[test]
    fn bound_violation_is_counted_only_when_measured_escapes() {
        let m = ServiceMetrics::new();
        m.record_peaks(100, 200);
        assert_eq!(m.bound_violations.load(Ordering::Relaxed), 0);
        m.record_peaks(300, 200);
        assert_eq!(m.bound_violations.load(Ordering::Relaxed), 1);
        assert_eq!(m.max_measured_peak.load(Ordering::Relaxed), 300);
        assert_eq!(m.max_certified_peak.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn spill_counters_accumulate_and_count_spilling_queries_once() {
        let m = ServiceMetrics::new();
        m.record_spill(&MetricsSnapshot::default());
        assert_eq!(m.spilled_queries.load(Ordering::Relaxed), 0, "no runs, no spilled query");
        m.record_spill(&MetricsSnapshot {
            spilled_runs: 3,
            spilled_bytes: 4096,
            spill_merge_passes: 1,
            ..Default::default()
        });
        assert_eq!(m.spilled_queries.load(Ordering::Relaxed), 1);
        assert_eq!(m.spilled_runs.load(Ordering::Relaxed), 3);
        assert_eq!(m.spilled_bytes.load(Ordering::Relaxed), 4096);
        assert_eq!(m.spill_merge_passes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn latency_json_renders_milliseconds() {
        let m = ServiceMetrics::new();
        m.record_latency(Duration::from_micros(1500));
        let j = latency_json(&m.latency_summary());
        assert!(j.contains("\"count\":1"), "{j}");
        assert!(j.contains("\"p50_ms\":1.500"), "{j}");
    }
}
