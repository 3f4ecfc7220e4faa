//! Resource governance for plan execution.
//!
//! A [`QueryGuard`] bounds one execution by wall-clock deadline,
//! batch-pull budget, and memory-reservation budget, and carries a
//! cooperative [`CancelToken`]. The executor wraps every physical
//! operator in a [`GuardedOp`], so the guard is consulted at *every*
//! [`TupleBatch`] boundary in the tree — a runaway plan stops within
//! one batch of the breach even when the root is blocked inside a
//! materializing operator (the blocking sort's input pulls are
//! guarded too). Buffering operators additionally call
//! [`QueryGuard::reserve`] as their buffers grow, so an
//! intermediate-result explosion trips the memory budget long before
//! the process feels it.
//!
//! All checks are lock-free reads/adds; an unlimited guard costs a
//! few relaxed atomic operations per batch.
//!
//! Every field is atomic, so one `Arc<QueryGuard>` is safely shared by
//! all workers of a parallel execution (see [`crate::parallel`]): the
//! batch and memory counters then accumulate the *aggregate* across
//! workers — the budgets bound the whole query's footprint, not one
//! worker's — and cancellation/deadline breaches are observed at the
//! next batch boundary of every worker independently, so cancellation
//! latency stays within one batch regardless of parallelism. Note the
//! aggregate batch count of a morsel-partitioned run can exceed the
//! serial run's (each morsel rounds up its final partial batches), so
//! parallel admission scales the batch bound by the worker count (see
//! `sjos-planck`'s `ResourceBounds::scaled`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{EngineError, GuardBreach};
use crate::ops::{BoxedOperator, Operator};
use crate::tuple::{Schema, TupleBatch};

/// Shared cancellation flag. Clone it, hand it to another thread, and
/// call [`CancelToken::cancel`]; the running query observes the flag
/// at its next batch boundary and stops with
/// [`GuardBreach::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Limits governing one execution, checked at batch boundaries.
///
/// Build with [`QueryGuard::unlimited`] and narrow with the `with_*`
/// methods, then share behind an `Arc`:
///
/// ```
/// use std::time::Duration;
/// use sjos_exec::QueryGuard;
/// let guard = std::sync::Arc::new(
///     QueryGuard::unlimited()
///         .with_deadline(Duration::from_secs(5))
///         .with_batch_budget(10_000),
/// );
/// # let _ = guard;
/// ```
#[derive(Debug)]
pub struct QueryGuard {
    /// Absolute deadline plus the limit it was derived from (the
    /// limit is reported in the breach).
    deadline: Option<(Instant, Duration)>,
    batch_budget: Option<u64>,
    memory_budget: Option<usize>,
    cancel: CancelToken,
    /// Batches pulled across all guarded operator boundaries.
    batches: AtomicU64,
    /// Bytes of operator buffering currently charged against the
    /// memory budget. In-memory operators only reserve, so for them
    /// this is the conservative cumulative total; spilling sorts call
    /// [`QueryGuard::release`] when a run leaves memory for temp
    /// pages, so under spill the counter tracks the *resident*
    /// footprint — the quantity a memory budget is actually meant to
    /// bound.
    reserved: AtomicUsize,
}

impl Default for QueryGuard {
    fn default() -> QueryGuard {
        QueryGuard::unlimited()
    }
}

impl QueryGuard {
    /// A guard with no limits: every check passes, only the counters
    /// accumulate. This is what the plain `execute` entry points use.
    pub fn unlimited() -> QueryGuard {
        QueryGuard {
            deadline: None,
            batch_budget: None,
            memory_budget: None,
            cancel: CancelToken::new(),
            batches: AtomicU64::new(0),
            reserved: AtomicUsize::new(0),
        }
    }

    /// Stop the query once `limit` wall-clock time has elapsed
    /// (measured from this call).
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> QueryGuard {
        // A limit so large the Instant overflows is no limit at all.
        self.deadline = Instant::now().checked_add(limit).map(|at| (at, limit));
        self
    }

    /// Stop the query after `limit` batch pulls across all operator
    /// boundaries (engine-wide, not per operator).
    #[must_use]
    pub fn with_batch_budget(mut self, limit: u64) -> QueryGuard {
        self.batch_budget = Some(limit.max(1));
        self
    }

    /// Stop the query once buffering operators have reserved more
    /// than `limit_bytes` in total.
    #[must_use]
    pub fn with_memory_budget(mut self, limit_bytes: usize) -> QueryGuard {
        self.memory_budget = Some(limit_bytes);
        self
    }

    /// Use `token` for cancellation instead of a fresh one.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> QueryGuard {
        self.cancel = token;
        self
    }

    /// The guard's cancellation token (clone it to another thread).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The memory budget in bytes, if one is set — exposed so a
    /// static admission check (planck's resource-bound pass) can
    /// compare a plan's worst-case footprint against the budget
    /// *before* execution.
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// The batch-pull budget, if one is set (see
    /// [`Self::memory_budget`] for the static-admission use case).
    pub fn batch_budget(&self) -> Option<u64> {
        self.batch_budget
    }

    /// Batches pulled so far across guarded boundaries.
    pub fn batches_pulled(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Total bytes reserved so far by buffering operators.
    pub fn bytes_reserved(&self) -> usize {
        self.reserved.load(Ordering::Relaxed)
    }

    /// One batch-boundary check: cancellation, deadline, batch
    /// budget. Called by [`GuardedOp`] before every pull.
    pub fn check_batch(&self) -> Result<(), GuardBreach> {
        if self.cancel.is_cancelled() {
            return Err(GuardBreach::Cancelled);
        }
        if let Some((at, limit)) = self.deadline {
            if Instant::now() >= at {
                return Err(GuardBreach::Deadline { limit });
            }
        }
        let pulled = self.batches.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.batch_budget {
            if pulled > limit {
                return Err(GuardBreach::BatchBudget { limit });
            }
        }
        Ok(())
    }

    /// A checkpoint that consults only cancellation and the deadline,
    /// without consuming batch budget — for long pre-execution passes
    /// (the parallel partitioner's cut-selection scan) that must stay
    /// responsive to cancellation but pull no operator batches.
    pub fn check_point(&self) -> Result<(), GuardBreach> {
        if self.cancel.is_cancelled() {
            return Err(GuardBreach::Cancelled);
        }
        if let Some((at, limit)) = self.deadline {
            if Instant::now() >= at {
                return Err(GuardBreach::Deadline { limit });
            }
        }
        Ok(())
    }

    /// Account `bytes` of operator buffering against the memory
    /// budget. In-memory operators never release, so their
    /// reservations accumulate (a conservative over-count); spilling
    /// operators pair this with [`QueryGuard::release`] so only the
    /// resident footprint counts.
    pub fn reserve(&self, bytes: usize) -> Result<(), GuardBreach> {
        let total = self.reserved.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(limit) = self.memory_budget {
            if total > limit {
                return Err(GuardBreach::MemoryBudget {
                    limit_bytes: limit,
                    requested_bytes: total,
                });
            }
        }
        Ok(())
    }

    /// Return `bytes` previously [`QueryGuard::reserve`]d — called by
    /// spilling sorts when a sorted run moves from memory to temp
    /// pages, so the budget governs resident bytes instead of
    /// cumulative traffic. Saturates at zero so a release raced
    /// against a snapshot can never wrap.
    pub fn release(&self, bytes: usize) {
        let mut cur = self.reserved.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.reserved.compare_exchange_weak(
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

    /// Bytes of budget headroom left, `usize::MAX` when unbudgeted —
    /// what a spilling sort consults to flush *before* a reservation
    /// would breach.
    pub fn memory_headroom(&self) -> usize {
        match self.memory_budget {
            Some(limit) => limit.saturating_sub(self.reserved.load(Ordering::Relaxed)),
            None => usize::MAX,
        }
    }
}

/// Wraps an operator so every `next_batch` pull first passes
/// [`QueryGuard::check_batch`]. The executor inserts one around each
/// node of the physical tree.
pub struct GuardedOp<'a> {
    inner: BoxedOperator<'a>,
    guard: Arc<QueryGuard>,
}

impl<'a> GuardedOp<'a> {
    /// Guard `inner` with `guard`.
    pub fn new(inner: BoxedOperator<'a>, guard: Arc<QueryGuard>) -> GuardedOp<'a> {
        GuardedOp { inner, guard }
    }
}

impl Operator for GuardedOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn ordered_col(&self) -> usize {
        self.inner.ordered_col()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EngineError> {
        self.guard.check_batch()?;
        self.inner.next_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_always_passes() {
        let g = QueryGuard::unlimited();
        for _ in 0..10_000 {
            g.check_batch().unwrap();
        }
        g.reserve(usize::MAX / 2).unwrap();
        assert_eq!(g.batches_pulled(), 10_000);
    }

    #[test]
    fn batch_budget_trips_after_limit() {
        let g = QueryGuard::unlimited().with_batch_budget(3);
        for _ in 0..3 {
            g.check_batch().unwrap();
        }
        assert_eq!(g.check_batch().unwrap_err(), GuardBreach::BatchBudget { limit: 3 });
    }

    #[test]
    fn memory_budget_trips_on_overshoot() {
        let g = QueryGuard::unlimited().with_memory_budget(100);
        g.reserve(60).unwrap();
        let err = g.reserve(60).unwrap_err();
        assert_eq!(err, GuardBreach::MemoryBudget { limit_bytes: 100, requested_bytes: 120 });
    }

    #[test]
    fn release_restores_headroom() {
        let g = QueryGuard::unlimited().with_memory_budget(100);
        g.reserve(80).unwrap();
        assert_eq!(g.memory_headroom(), 20);
        g.release(60);
        assert_eq!(g.memory_headroom(), 80);
        g.reserve(70).unwrap();
        g.release(1_000);
        assert_eq!(g.bytes_reserved(), 0, "release saturates at zero");
        assert_eq!(QueryGuard::unlimited().memory_headroom(), usize::MAX);
    }

    #[test]
    fn check_point_observes_cancel_without_spending_batches() {
        let g = QueryGuard::unlimited().with_batch_budget(1);
        g.check_point().unwrap();
        g.check_point().unwrap();
        assert_eq!(g.batches_pulled(), 0, "checkpoints must not consume batch budget");
        g.cancel_token().cancel();
        assert_eq!(g.check_point().unwrap_err(), GuardBreach::Cancelled);
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let g = QueryGuard::unlimited().with_deadline(Duration::ZERO);
        assert!(matches!(g.check_batch().unwrap_err(), GuardBreach::Deadline { .. }));
    }

    #[test]
    fn cancellation_is_observed_cross_handle() {
        let g = QueryGuard::unlimited();
        let token = g.cancel_token();
        g.check_batch().unwrap();
        token.cancel();
        assert_eq!(g.check_batch().unwrap_err(), GuardBreach::Cancelled);
    }
}
