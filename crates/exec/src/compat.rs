//! Entry points the repository benchmark (`perfbench/`) still
//! imports, kept so it builds unchanged. Each is one call of
//! [`execute`]; new code calls [`execute`] with [`ExecOptions`]. The
//! next benchmark change moves perfbench to [`execute`] and deletes
//! this module.

use std::sync::Arc;

use sjos_pattern::Pattern;
use sjos_storage::XmlStore;

use crate::error::EngineError;
use crate::executor::{execute, ExecOptions, ExecOutcome, QueryResult};
use crate::guard::QueryGuard;
use crate::plan::PlanNode;

/// Worker threads for [`execute_parallel_guarded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelPolicy {
    /// Worker threads (1 = serial).
    pub threads: usize,
}

impl ParallelPolicy {
    /// `threads` workers.
    pub fn with_threads(threads: usize) -> ParallelPolicy {
        ParallelPolicy { threads }
    }
}

/// [`execute`] with `collect: false`.
pub fn execute_counting(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
) -> Result<QueryResult, EngineError> {
    let opts = ExecOptions { collect: false, ..ExecOptions::default() };
    execute(store, pattern, plan, &opts).map(|o| o.result)
}

/// [`execute`] under `guard`.
pub fn execute_guarded(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    guard: &Arc<QueryGuard>,
) -> Result<QueryResult, EngineError> {
    let opts = ExecOptions { guard: Some(Arc::clone(guard)), ..ExecOptions::default() };
    execute(store, pattern, plan, &opts).map(|o| o.result)
}

/// [`execute`] with `collect: false` across `threads` workers.
pub fn execute_parallel_counting(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    threads: usize,
) -> Result<ExecOutcome, EngineError> {
    execute(
        store,
        pattern,
        plan,
        &ExecOptions { collect: false, threads, ..ExecOptions::default() },
    )
}

/// [`execute`] under `guard` across `policy.threads` workers.
pub fn execute_parallel_guarded(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    guard: &Arc<QueryGuard>,
    policy: ParallelPolicy,
) -> Result<ExecOutcome, EngineError> {
    let opts = ExecOptions {
        guard: Some(Arc::clone(guard)),
        threads: policy.threads,
        ..ExecOptions::default()
    };
    execute(store, pattern, plan, &opts)
}
