//! Typed execution errors.
//!
//! Everything that can go wrong while a plan runs is an
//! [`EngineError`]: a malformed plan (an optimizer bug), a storage
//! fault that survived the buffer pool's retries, or a resource-guard
//! breach. Operators propagate these as `Result`s — a fault in the
//! middle of a join surfaces as a typed error at the executor entry
//! point, never as a panic or a silently wrong answer.

use std::fmt;
use std::time::Duration;

use sjos_storage::StorageError;

use crate::metrics::MetricsSnapshot;

/// Why a [`crate::guard::QueryGuard`] stopped an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardBreach {
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured time limit.
        limit: Duration,
    },
    /// The engine pulled more batches than budgeted.
    BatchBudget {
        /// The configured batch-pull limit.
        limit: u64,
    },
    /// A buffering operator asked for more memory than budgeted.
    MemoryBudget {
        /// The configured reservation limit in bytes.
        limit_bytes: usize,
        /// Total bytes reserved including the rejected request.
        requested_bytes: usize,
    },
    /// The cooperative cancellation token was triggered.
    Cancelled,
}

impl fmt::Display for GuardBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardBreach::Deadline { limit } => {
                write!(f, "deadline of {limit:?} exceeded")
            }
            GuardBreach::BatchBudget { limit } => {
                write!(f, "batch budget of {limit} batches exhausted")
            }
            GuardBreach::MemoryBudget { limit_bytes, requested_bytes } => {
                write!(
                    f,
                    "memory budget of {limit_bytes} bytes exceeded \
                     (reservation reached {requested_bytes} bytes)"
                )
            }
            GuardBreach::Cancelled => write!(f, "execution cancelled"),
        }
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The plan does not correctly evaluate the pattern.
    InvalidPlan(String),
    /// A storage fault survived the buffer pool's retry policy.
    Storage(StorageError),
    /// A resource guard stopped the execution. `partial` holds the
    /// metrics accumulated up to the stop — the executor entry points
    /// fill it in so callers can see how far the plan got. Under
    /// `threads > 1` it is a lower bound on progress that may vary
    /// from run to run (see `run_morsels` in the parallel module).
    Guard {
        /// What limit was breached.
        breach: GuardBreach,
        /// Operator counters at the moment the guard fired
        /// (boxed to keep the `Err` variant small — clippy
        /// `result_large_err`).
        partial: Box<MetricsSnapshot>,
    },
}

/// Backwards-compatible name: the executor's error type started out
/// as a one-variant `ExecError` before the robustness work widened it.
pub type ExecError = EngineError;

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::Storage(e) => write!(f, "storage fault during execution: {e}"),
            EngineError::Guard { breach, partial } => {
                write!(
                    f,
                    "query stopped by resource guard: {breach} \
                     ({} tuples produced before the stop)",
                    partial.produced_tuples
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> EngineError {
        EngineError::Storage(e)
    }
}

impl From<GuardBreach> for EngineError {
    /// Wrap a breach with empty partial metrics; the executor entry
    /// points replace `partial` with the real snapshot on the way out.
    fn from(breach: GuardBreach) -> EngineError {
        EngineError::Guard { breach, partial: Box::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_fault() {
        let e =
            EngineError::Storage(StorageError::ChecksumMismatch { page: sjos_storage::PageId(3) });
        assert!(e.to_string().contains("checksum"));
        let g = EngineError::from(GuardBreach::BatchBudget { limit: 10 });
        assert!(g.to_string().contains("batch budget"));
        let c = EngineError::from(GuardBreach::Cancelled);
        assert!(c.to_string().contains("cancelled"));
    }

    #[test]
    fn storage_source_is_exposed() {
        use std::error::Error;
        let e = EngineError::from(StorageError::PoolExhausted { capacity: 1 });
        assert!(e.source().is_some());
        assert!(EngineError::InvalidPlan("x".into()).source().is_none());
    }
}
