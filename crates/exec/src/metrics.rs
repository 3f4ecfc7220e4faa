//! Execution metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters accumulated while a plan runs. Shared (`Arc`) between all
/// operators of one execution.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    /// Tuples produced by the plan root.
    pub output_tuples: AtomicU64,
    /// Tuples produced by all operators (root included) — the paper's
    /// "intermediate result sizes" in aggregate.
    pub produced_tuples: AtomicU64,
    /// Stack push operations across all structural joins.
    pub stack_pushes: AtomicU64,
    /// Stack pop operations across all structural joins.
    pub stack_pops: AtomicU64,
    /// Pairs buffered by Stack-Tree-Anc (self/inherit list appends);
    /// the source of its `2|AB| f_IO` cost term.
    pub buffered_pairs: AtomicU64,
    /// Tuples that passed through explicit sort operators.
    pub sorted_tuples: AtomicU64,
    /// Number of explicit sort operators executed.
    pub sort_operations: AtomicU64,
    /// Records delivered by index scans.
    pub scanned_records: AtomicU64,
    /// Descendant-window tuples visited by merge joins (MPMGJN's
    /// rescan traffic).
    pub merge_rescans: AtomicU64,
    /// Bytes of operator buffering currently live (reservations minus
    /// releases) — unlike [`crate::QueryGuard`]'s cumulative
    /// reservation counter, this tracks the instantaneous footprint.
    pub cur_bytes: AtomicU64,
    /// High-water mark of [`Self::cur_bytes`]: the peak instantaneous
    /// buffering the execution reached. The static resource-bound
    /// analysis (planck's PL064) checks its worst-case bound against
    /// this observation.
    pub peak_bytes: AtomicU64,
    /// Sorted runs flushed to temp pages by spilling sorts.
    pub spilled_runs: AtomicU64,
    /// Payload bytes written to temp pages by spilling sorts
    /// (initial run flushes plus cascade-merge rewrites).
    pub spilled_bytes: AtomicU64,
    /// Cascade merge passes performed when a spill produced more runs
    /// than the merge fan-in.
    pub spill_merge_passes: AtomicU64,
}

/// Point-in-time copy of [`ExecMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Tuples emitted at the plan root.
    pub output_tuples: u64,
    /// Tuples produced by all operators, including intermediates.
    pub produced_tuples: u64,
    /// Stack push operations across the stack-tree joins.
    pub stack_pushes: u64,
    /// Stack pop operations across the stack-tree joins.
    pub stack_pops: u64,
    /// Pairs buffered by Stack-Tree-Anc for in-order emission.
    pub buffered_pairs: u64,
    /// Tuples passed through sort operators.
    pub sorted_tuples: u64,
    /// Number of sort operators executed.
    pub sort_operations: u64,
    /// Records delivered by index scans.
    pub scanned_records: u64,
    /// Descendant-window tuples revisited by merge joins.
    pub merge_rescans: u64,
    /// Peak instantaneous operator-buffer footprint in bytes.
    pub peak_bytes: u64,
    /// Sorted runs flushed to temp pages by spilling sorts.
    pub spilled_runs: u64,
    /// Payload bytes written to temp pages by spilling sorts.
    pub spilled_bytes: u64,
    /// Cascade merge passes over spilled runs.
    pub spill_merge_passes: u64,
}

impl MetricsSnapshot {
    /// Sum per-morsel (per-worker) snapshots into the totals of the
    /// whole parallel execution.
    ///
    /// For the *work* counters — output/produced tuples, stack
    /// traffic, buffered pairs, sorted tuples, scanned records, merge
    /// rescans, spill counters — the sum is bit-identical to the
    /// single-threaded run of the same plan, because region-range
    /// partitioning restricts every operator's input to a range no
    /// scanned interval straddles (the PL068 contract). Two counters
    /// are *not* part of that exact contract and merge conservatively:
    /// `sort_operations` is structural (each morsel runs its own copy
    /// of every sort operator, so the sum is `morsels ×` the serial
    /// count), and `peak_bytes` is interleaving-dependent (the sum of
    /// per-worker peaks over-approximates the true aggregate peak, the
    /// safe direction for budget comparisons).
    pub fn merged(parts: &[MetricsSnapshot]) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for p in parts {
            total.output_tuples += p.output_tuples;
            total.produced_tuples += p.produced_tuples;
            total.stack_pushes += p.stack_pushes;
            total.stack_pops += p.stack_pops;
            total.buffered_pairs += p.buffered_pairs;
            total.sorted_tuples += p.sorted_tuples;
            total.sort_operations += p.sort_operations;
            total.scanned_records += p.scanned_records;
            total.merge_rescans += p.merge_rescans;
            total.peak_bytes += p.peak_bytes;
            total.spilled_runs += p.spilled_runs;
            total.spilled_bytes += p.spilled_bytes;
            total.spill_merge_passes += p.spill_merge_passes;
        }
        total
    }

    /// The eight work counters, by name, whose per-morsel values must
    /// sum exactly to the serial run's (the PL068 contract).
    pub fn exact_counters(&self) -> [(&'static str, u64); 8] {
        [
            ("output_tuples", self.output_tuples),
            ("produced_tuples", self.produced_tuples),
            ("stack_pushes", self.stack_pushes),
            ("stack_pops", self.stack_pops),
            ("buffered_pairs", self.buffered_pairs),
            ("sorted_tuples", self.sorted_tuples),
            ("scanned_records", self.scanned_records),
            ("merge_rescans", self.merge_rescans),
        ]
    }
}

impl ExecMetrics {
    /// Fresh shared metrics.
    pub fn new() -> Arc<ExecMetrics> {
        Arc::new(ExecMetrics::default())
    }

    /// Copy current values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            output_tuples: self.output_tuples.load(Ordering::Relaxed),
            produced_tuples: self.produced_tuples.load(Ordering::Relaxed),
            stack_pushes: self.stack_pushes.load(Ordering::Relaxed),
            stack_pops: self.stack_pops.load(Ordering::Relaxed),
            buffered_pairs: self.buffered_pairs.load(Ordering::Relaxed),
            sorted_tuples: self.sorted_tuples.load(Ordering::Relaxed),
            sort_operations: self.sort_operations.load(Ordering::Relaxed),
            scanned_records: self.scanned_records.load(Ordering::Relaxed),
            merge_rescans: self.merge_rescans.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            spilled_runs: self.spilled_runs.load(Ordering::Relaxed),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            spill_merge_passes: self.spill_merge_passes.load(Ordering::Relaxed),
        }
    }

    /// Account `bytes` of newly live operator buffering and advance
    /// the peak high-water mark.
    pub fn reserve_bytes(&self, bytes: u64) {
        let cur = self.cur_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(cur, Ordering::Relaxed);
    }

    /// Release `bytes` of operator buffering (buffer dropped or its
    /// contents handed downstream). Saturates at zero so a release
    /// raced against a snapshot can never wrap.
    pub fn release_bytes(&self, bytes: u64) {
        let mut cur = self.cur_bytes.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.cur_bytes.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let m = ExecMetrics::new();
        ExecMetrics::add(&m.stack_pushes, 3);
        ExecMetrics::add(&m.output_tuples, 1);
        let s = m.snapshot();
        assert_eq!(s.stack_pushes, 3);
        assert_eq!(s.output_tuples, 1);
        assert_eq!(s.sort_operations, 0);
    }

    #[test]
    fn peak_bytes_is_a_high_water_mark() {
        let m = ExecMetrics::new();
        m.reserve_bytes(100);
        m.reserve_bytes(50);
        m.release_bytes(120);
        m.reserve_bytes(10);
        let s = m.snapshot();
        assert_eq!(s.peak_bytes, 150, "peak is the maximum, not the final value");
        assert_eq!(m.cur_bytes.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn merged_sums_work_counters() {
        let a = MetricsSnapshot {
            output_tuples: 3,
            stack_pushes: 10,
            peak_bytes: 100,
            sort_operations: 1,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            output_tuples: 4,
            stack_pushes: 7,
            peak_bytes: 60,
            sort_operations: 1,
            ..MetricsSnapshot::default()
        };
        let m = MetricsSnapshot::merged(&[a, b]);
        assert_eq!(m.output_tuples, 7);
        assert_eq!(m.stack_pushes, 17);
        assert_eq!(m.peak_bytes, 160);
        assert_eq!(m.sort_operations, 2);
        assert_eq!(MetricsSnapshot::merged(&[]), MetricsSnapshot::default());
    }

    #[test]
    fn release_saturates_at_zero() {
        let m = ExecMetrics::new();
        m.reserve_bytes(10);
        m.release_bytes(1_000);
        assert_eq!(m.cur_bytes.load(Ordering::Relaxed), 0);
        m.reserve_bytes(5);
        assert_eq!(m.snapshot().peak_bytes, 10);
    }
}
