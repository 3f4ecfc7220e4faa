//! Global admission control over certified peak-memory bytes.
//!
//! Every query entering the service carries a *certified* worst-case
//! peak-buffering bound from [`sjos_planck::analyze_bounds`] — a
//! guaranteed upper bound, not an estimate (PL060–PL064). The
//! controller admits a query only while the sum of certified peaks of
//! all in-flight queries stays within the service-wide budget, so the
//! aggregate *measured* footprint provably cannot exceed the budget
//! either: each query runs under a [`sjos_exec::QueryGuard`] whose
//! memory budget equals its certified peak, and PR 6's soundness
//! invariant keeps every measured peak at or below its certificate.
//!
//! Queries that do not fit immediately wait in a bounded FIFO with a
//! deadline-aware timeout; a full queue or an expired wait is a typed
//! [`crate::service::ServiceError::Overloaded`], never an unbounded
//! stall. The queue is strictly FIFO — a small query arriving behind a
//! large one waits its turn rather than barging, so admission is
//! starvation-free.
//!
//! This module deliberately uses `std::sync::{Mutex, Condvar}` (not
//! the workspace's `parking_lot` stub, which has no condition
//! variable); the buffer pool underneath keeps its `parking_lot`
//! discipline untouched.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why an admission request was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The certificate alone exceeds the whole budget; the query can
    /// never run on this service.
    NeverFits,
    /// The wait queue was already at capacity.
    QueueFull,
    /// The request waited its full limit without the budget freeing.
    TimedOut,
}

/// A rejected admission request, with the numbers behind the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Why the request was rejected.
    pub reason: RejectReason,
    /// The certified peak bytes the query asked to reserve.
    pub certified_bytes: u64,
    /// The service-wide budget.
    pub budget: u64,
    /// How long the request waited before giving up.
    pub waited: Duration,
}

#[derive(Debug, Default)]
struct AdmState {
    /// Sum of certified peak bytes of currently admitted queries.
    in_use: u64,
    /// High-water mark of `in_use` — the invariant witness: it must
    /// never exceed the budget.
    peak_in_use: u64,
    /// FIFO of waiting tickets (front is next to be admitted).
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// Monotonic admission counters plus the current reservation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Service-wide certified-bytes budget.
    pub budget: u64,
    /// Certified bytes currently reserved by in-flight queries.
    pub in_use: u64,
    /// High-water mark of `in_use` since the controller was built.
    pub peak_in_use: u64,
    /// Requests admitted (immediately or after queueing).
    pub admitted: u64,
    /// Requests that had to wait in the queue before their verdict.
    pub queued: u64,
    /// Requests rejected (never-fits, full queue, or timeout).
    pub rejected: u64,
    /// Requests currently waiting.
    pub waiting: u64,
}

/// The global admission controller (see the module docs for the
/// protocol).
#[derive(Debug)]
pub struct AdmissionController {
    budget: u64,
    queue_capacity: usize,
    state: Mutex<AdmState>,
    cond: Condvar,
    admitted: AtomicU64,
    queued: AtomicU64,
    rejected: AtomicU64,
}

impl AdmissionController {
    /// A controller over `budget` certified bytes with a wait queue of
    /// at most `queue_capacity` requests.
    pub fn new(budget: u64, queue_capacity: usize) -> AdmissionController {
        AdmissionController {
            budget,
            queue_capacity,
            state: Mutex::new(AdmState::default()),
            cond: Condvar::new(),
            admitted: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The service-wide budget in certified bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Try to reserve `certified_bytes` of the budget, waiting at most
    /// `wait_limit` in the FIFO. On success the returned permit holds
    /// the reservation until dropped.
    pub fn admit(
        &self,
        certified_bytes: u64,
        wait_limit: Duration,
    ) -> Result<AdmissionPermit<'_>, Rejection> {
        let started = Instant::now();
        let reject = |reason: RejectReason, waited: Duration| {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            Rejection { reason, certified_bytes, budget: self.budget, waited }
        };
        if certified_bytes > self.budget {
            return Err(reject(RejectReason::NeverFits, Duration::ZERO));
        }
        let mut state = self.state.lock().expect("admission mutex poisoned");
        // Fast path: nobody waiting and the reservation fits now. The
        // fit test subtracts (`in_use <= budget` always holds) instead
        // of adding, which could wrap near `u64::MAX`.
        if state.queue.is_empty() && certified_bytes <= self.budget - state.in_use {
            return Ok(self.grant(&mut state, certified_bytes, Duration::ZERO));
        }
        if state.queue.len() >= self.queue_capacity {
            return Err(reject(RejectReason::QueueFull, Duration::ZERO));
        }
        // Queue up and wait for our turn at the head.
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(ticket);
        self.queued.fetch_add(1, Ordering::Relaxed);
        loop {
            // Deadline first, grant second: a waiter woken at or past
            // its deadline must leave — never take a reservation (and
            // bump `peak_in_use`) its caller already gave up on. The
            // reverse order had a race where a release landing in the
            // expiry window granted an expired ticket.
            let waited = started.elapsed();
            if waited >= wait_limit {
                state.queue.retain(|&t| t != ticket);
                // Our departure may unblock the ticket behind us.
                self.cond.notify_all();
                return Err(reject(RejectReason::TimedOut, waited));
            }
            let at_head = state.queue.front() == Some(&ticket);
            if at_head && certified_bytes <= self.budget - state.in_use {
                state.queue.pop_front();
                let permit = self.grant(&mut state, certified_bytes, waited);
                // The next waiter may also fit in what remains.
                self.cond.notify_all();
                return Ok(permit);
            }
            let (next, timeout) = self
                .cond
                .wait_timeout(state, wait_limit - waited)
                .expect("admission mutex poisoned");
            state = next;
            let _ = timeout; // re-checked via `started.elapsed()` above
        }
    }

    fn grant<'c>(
        &'c self,
        state: &mut AdmState,
        certified_bytes: u64,
        waited: Duration,
    ) -> AdmissionPermit<'c> {
        state.in_use += certified_bytes;
        state.peak_in_use = state.peak_in_use.max(state.in_use);
        debug_assert!(state.in_use <= self.budget, "admission invariant violated");
        self.admitted.fetch_add(1, Ordering::Relaxed);
        AdmissionPermit { controller: self, certified_bytes, waited }
    }

    /// Counters and current reservation state.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let state = self.state.lock().expect("admission mutex poisoned");
        AdmissionSnapshot {
            budget: self.budget,
            in_use: state.in_use,
            peak_in_use: state.peak_in_use,
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            waiting: state.queue.len() as u64,
        }
    }
}

/// An admitted reservation of certified bytes. Dropping it returns the
/// bytes to the budget and wakes the queue head.
#[derive(Debug)]
pub struct AdmissionPermit<'c> {
    controller: &'c AdmissionController,
    certified_bytes: u64,
    waited: Duration,
}

impl AdmissionPermit<'_> {
    /// The certified bytes this permit reserves.
    pub fn certified_bytes(&self) -> u64 {
        self.certified_bytes
    }

    /// How long the request queued before the grant
    /// (`Duration::ZERO` on the fast path).
    pub fn waited(&self) -> Duration {
        self.waited
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = self.controller.state.lock().expect("admission mutex poisoned");
        state.in_use = state.in_use.saturating_sub(self.certified_bytes);
        drop(state);
        self.controller.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fast_path_admits_and_releases() {
        let ctl = AdmissionController::new(100, 4);
        let p = ctl.admit(60, Duration::from_millis(10)).unwrap();
        assert_eq!(ctl.snapshot().in_use, 60);
        drop(p);
        let snap = ctl.snapshot();
        assert_eq!(snap.in_use, 0);
        assert_eq!(snap.peak_in_use, 60);
        assert_eq!(snap.admitted, 1);
    }

    #[test]
    fn oversized_request_is_rejected_immediately() {
        let ctl = AdmissionController::new(100, 4);
        let err = ctl.admit(101, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.reason, RejectReason::NeverFits);
        assert!(err.waited < Duration::from_secs(1), "no pointless waiting");
    }

    #[test]
    fn starved_budget_queues_then_times_out() {
        let ctl = AdmissionController::new(100, 4);
        let _held = ctl.admit(90, Duration::ZERO).unwrap();
        let err = ctl.admit(20, Duration::from_millis(30)).unwrap_err();
        assert_eq!(err.reason, RejectReason::TimedOut);
        assert!(err.waited >= Duration::from_millis(30));
        let snap = ctl.snapshot();
        assert_eq!(snap.queued, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.waiting, 0, "timed-out ticket left the queue");
    }

    #[test]
    fn full_queue_rejects_without_waiting() {
        let ctl = Arc::new(AdmissionController::new(100, 1));
        let _held = ctl.admit(100, Duration::ZERO).unwrap();
        // Fill the single queue slot from another thread.
        let c = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || c.admit(10, Duration::from_millis(200)).is_err());
        while ctl.snapshot().waiting == 0 {
            std::thread::yield_now();
        }
        let err = ctl.admit(10, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.reason, RejectReason::QueueFull);
        assert!(waiter.join().unwrap(), "the queued request times out too");
    }

    #[test]
    fn release_admits_the_waiting_head() {
        let ctl = Arc::new(AdmissionController::new(100, 4));
        let held = ctl.admit(80, Duration::ZERO).unwrap();
        let c = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            let p = c.admit(50, Duration::from_secs(10)).unwrap();
            p.certified_bytes()
        });
        while ctl.snapshot().waiting == 0 {
            std::thread::yield_now();
        }
        drop(held);
        assert_eq!(waiter.join().unwrap(), 50);
        assert_eq!(ctl.snapshot().admitted, 2);
    }

    #[test]
    fn huge_certificates_do_not_wrap_the_fit_test() {
        let ctl = AdmissionController::new(u64::MAX, 4);
        let big = u64::MAX / 2 + 1;
        let _held = ctl.admit(big, Duration::ZERO).unwrap();
        let err = ctl.admit(big, Duration::ZERO).unwrap_err();
        assert_eq!(err.reason, RejectReason::TimedOut);
        let snap = ctl.snapshot();
        assert_eq!(snap.in_use, big);
        assert_eq!(snap.peak_in_use, big, "the second certificate was never granted");
        assert_eq!(snap.admitted, 1);
    }

    #[test]
    fn concurrent_reservations_never_exceed_the_budget() {
        let ctl = Arc::new(AdmissionController::new(64, 64));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let c = Arc::clone(&ctl);
                std::thread::spawn(move || {
                    let mut granted = 0u32;
                    for _ in 0..50 {
                        if let Ok(p) = c.admit(16 + (i % 3) * 8, Duration::from_millis(50)) {
                            granted += 1;
                            std::thread::yield_now();
                            drop(p);
                        }
                    }
                    granted
                })
            })
            .collect();
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "some requests must get through");
        let snap = ctl.snapshot();
        assert_eq!(snap.in_use, 0, "all permits released");
        assert!(snap.peak_in_use <= 64, "peak {} exceeded the budget", snap.peak_in_use);
    }
}
