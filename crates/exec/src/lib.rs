//! # sjos-exec
//!
//! The physical layer: plan trees, Volcano-style operators, and the
//! executor that runs a structural-join plan against an
//! [`sjos_storage::XmlStore`].
//!
//! Execution is *vectorized*: operators exchange columnar
//! [`tuple::TupleBatch`]es (target [`tuple::BATCH_ROWS`] rows) rather
//! than single tuples, so per-item costs — virtual dispatch, bounds
//! checks, and above all the shared atomic metric counters — are paid
//! once per batch. Every metric total except `peak_bytes` is exact and
//! independent of batch size (`peak_bytes` counts in-flight batches,
//! which grow with it); `batch_rows = 1` reproduces the original
//! tuple-at-a-time engine for before/after measurement.
//!
//! [`execute`] is the one way to run a plan: an [`ExecOptions`] value
//! picks the guard, batch size, collect-vs-count, spill policy, and
//! worker threads.
//!
//! Operators:
//! * [`ops::IndexScanOp`] — streams one tag's binding list from the
//!   tag index (document order), applying the node's value predicate.
//! * [`ops::StackTreeJoinOp`] — the Stack-Tree-Desc and
//!   Stack-Tree-Anc structural join algorithms of Al-Khalifa et al.
//!   (ICDE 2002), generalized to tuple inputs: Desc streams output in
//!   descendant order; Anc buffers (self/inherit lists) to emit in
//!   ancestor order.
//! * [`ops::SortOp`] — blocking sort of an intermediate result by any
//!   bound pattern node.
//!
//! [`parallel`] adds morsel-driven intra-query parallelism: valid
//! cuts on the region `start` axis split every binding list into
//! region-disjoint morsels whose independent executions reproduce the
//! serial answer — and the serial metric totals — bit for bit.
//!
//! [`naive`] holds a navigational evaluator used as ground truth in
//! tests (and as the paper's Example 2.2 "scan the subtree" cautionary
//! baseline).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compat;
pub mod error;
pub mod executor;
pub mod guard;
pub mod holistic;
pub mod metrics;
pub mod naive;
pub mod ops;
pub mod parallel;
pub mod plan;
pub mod tuple;

pub use compat::{
    execute_counting, execute_guarded, execute_parallel_counting, execute_parallel_guarded,
    ParallelPolicy,
};
pub use error::{EngineError, ExecError, GuardBreach};
pub use executor::{execute, ExecOptions, ExecOutcome, QueryResult};
pub use guard::{CancelToken, GuardedOp, QueryGuard};
pub use metrics::{ExecMetrics, MetricsSnapshot};
pub use ops::SpillPolicy;
pub use parallel::{
    partition_regions, plan_partition, scatter, stitch, straddles_every_cut, RegionPartition,
};
pub use plan::{JoinAlgo, OperatorContract, PlanNode};
pub use tuple::{Binding, Entry, RowRef, Rows, Schema, Tuple, TupleBatch, BATCH_ROWS};

#[cfg(test)]
mod thread_safety {
    //! The concurrent query service shares one engine across sessions;
    //! these assertions pin the `Send`/`Sync` audit at compile time so
    //! a regression (an `Rc`, a non-`Send` trait object) fails here,
    //! with a readable message, rather than deep inside the service.
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn execution_state_is_shareable() {
        assert_send_sync::<guard::QueryGuard>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<ExecMetrics>();
        assert_send_sync::<MetricsSnapshot>();
        assert_send_sync::<EngineError>();
        assert_send_sync::<QueryResult>();
        assert_send_sync::<PlanNode>();
        assert_send::<ops::BoxedOperator<'static>>();
        assert_send::<GuardedOp<'static>>();
        assert_send_sync::<ExecOptions>();
        assert_send_sync::<RegionPartition>();
        assert_send_sync::<ExecOutcome>();
    }
}
