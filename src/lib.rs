//! # sjos — Structural Join Order Selection for XML Query Optimization
//!
//! A full reproduction of Wu, Patel & Jagadish, *Structural Join
//! Order Selection for XML Query Optimization* (ICDE 2003): a
//! miniature native XML database (parser, region-encoded storage,
//! buffer pool, tag indexes, positional-histogram statistics,
//! stack-tree structural join executor) and the paper's five
//! cost-based join-order optimizers (DP, DPP, DPAP-EB, DPAP-LD, FP).
//!
//! ## Quickstart
//!
//! ```
//! use sjos::Database;
//!
//! let db = Database::from_xml(
//!     "<dept><emp><name>ada</name></emp><emp><name>bob</name></emp></dept>",
//! ).unwrap();
//! let outcome = db.query("//dept/emp/name").unwrap();
//! assert_eq!(outcome.result.len(), 2);
//! println!("plan: {}", outcome.optimized.plan);
//! ```
//!
//! The heavy lifting lives in the member crates, re-exported here:
//!
//! * [`xml`] — parsing, document model, region encoding
//! * [`storage`] — pages, buffer pool, heap file, tag index
//! * [`pattern`] — query pattern trees and the query parser
//! * [`stats`] — positional histograms and cardinality estimation
//! * [`exec`] — physical plans, stack-tree joins, and the vectorized
//!   executor (operators exchange columnar [`TupleBatch`]es of
//!   [`BATCH_ROWS`] rows; metric totals stay exact per tuple)
//! * [`core`] — the cost model and the five optimizers
//! * [`datagen`] — Pers/DBLP/Mbench-shaped generators and the
//!   benchmark query catalog
//! * [`planck`] — the static plan analyzer, including the
//!   resource-bound admission pass behind [`Database::resource_bounds`]
//!   and [`Database::admit`]
//!
//! For serving many queries concurrently over one engine, see
//! [`service::QueryService`]: shared-engine sessions with global
//! certified-bytes admission control, an LRU plan cache keyed by
//! catalog version, and a JSON observability surface.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explain;
pub mod service;

use std::fmt;
use std::sync::Arc;

pub use sjos_core as core;
pub use sjos_datagen as datagen;
pub use sjos_exec as exec;
pub use sjos_pattern as pattern;
pub use sjos_planck as planck;
pub use sjos_stats as stats;
pub use sjos_storage as storage;
pub use sjos_xml as xml;

pub use sjos_core::OptimizerError;
pub use sjos_core::{optimize, Algorithm, CostModel, OptimizedPlan};
pub use sjos_exec::{
    execute, CancelToken, EngineError, ExecOptions, ExecOutcome, GuardBreach, PlanNode, QueryGuard,
    QueryResult, SpillPolicy, TupleBatch, BATCH_ROWS,
};
pub use sjos_pattern::{parse_pattern, Pattern};
pub use sjos_stats::{Catalog, PatternEstimates};
pub use sjos_storage::{StoreConfig, XmlStore};
pub use sjos_xml::Document;

pub use service::{QueryService, ServiceConfig, ServiceError, ServiceOutcome, Session};

/// Anything that can go wrong between query text and query result.
#[derive(Debug)]
pub enum Error {
    /// XML text failed to parse.
    Xml(sjos_xml::ParseError),
    /// Query text failed to parse.
    Query(sjos_pattern::PatternParseError),
    /// The optimizer failed to produce a usable plan (broken
    /// estimates or an internal search bug).
    Optimize(sjos_core::OptimizerError),
    /// Execution failed: invalid plan, storage fault, or a resource-
    /// guard breach.
    Exec(sjos_exec::EngineError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Xml(e) => write!(f, "{e}"),
            Error::Query(e) => write!(f, "{e}"),
            Error::Optimize(e) => write!(f, "{e}"),
            Error::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<sjos_xml::ParseError> for Error {
    fn from(e: sjos_xml::ParseError) -> Self {
        Error::Xml(e)
    }
}
impl From<sjos_pattern::PatternParseError> for Error {
    fn from(e: sjos_pattern::PatternParseError) -> Self {
        Error::Query(e)
    }
}
impl From<sjos_core::OptimizerError> for Error {
    fn from(e: sjos_core::OptimizerError) -> Self {
        Error::Optimize(e)
    }
}
impl From<sjos_exec::EngineError> for Error {
    fn from(e: sjos_exec::EngineError) -> Self {
        Error::Exec(e)
    }
}

/// A query's optimization artifacts plus its materialized answer.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The plan the optimizer chose, with search-effort statistics.
    pub optimized: OptimizedPlan,
    /// The executed result.
    pub result: QueryResult,
}

/// A loaded XML database: storage + statistics + optimizer + executor
/// behind one handle.
pub struct Database {
    store: XmlStore,
    catalog: Catalog,
    model: CostModel,
}

impl Database {
    /// Parse and load XML text.
    pub fn from_xml(text: &str) -> Result<Database, Error> {
        Ok(Self::from_document(Document::parse(text)?))
    }

    /// Load an already-parsed document with default configuration
    /// (16 MiB buffer pool, default cost model).
    pub fn from_document(doc: Document) -> Database {
        Self::from_document_with(doc, StoreConfig::default(), CostModel::default())
    }

    /// Load with explicit storage and cost-model configuration.
    pub fn from_document_with(
        doc: Document,
        store_config: StoreConfig,
        model: CostModel,
    ) -> Database {
        let catalog = Catalog::build(&doc);
        let store = XmlStore::load_with(doc, store_config);
        Database { store, catalog, model }
    }

    /// The stored document.
    pub fn document(&self) -> &Arc<Document> {
        self.store.document()
    }

    /// The storage engine handle.
    pub fn store(&self) -> &XmlStore {
        &self.store
    }

    /// The statistics catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Cardinality estimates for a pattern against this database.
    pub fn estimates(&self, pattern: &Pattern) -> PatternEstimates {
        PatternEstimates::new(&self.catalog, self.document(), pattern)
    }

    /// Optimize a pattern with the given algorithm.
    pub fn optimize(
        &self,
        pattern: &Pattern,
        algorithm: Algorithm,
    ) -> Result<OptimizedPlan, Error> {
        let est = self.estimates(pattern);
        Ok(optimize(pattern, &est, &self.model, algorithm)?)
    }

    /// Execute an explicit plan for a pattern under `opts`: its guard
    /// (deadline, batch and memory budgets, cancellation — checked at
    /// every batch boundary, so a runaway plan stops within one batch
    /// and the error carries the metrics accumulated so far), batch
    /// size, collect-vs-count, spill policy, and worker threads.
    pub fn execute(
        &self,
        pattern: &Pattern,
        plan: &PlanNode,
        opts: &ExecOptions,
    ) -> Result<QueryResult, Error> {
        Ok(execute(&self.store, pattern, plan, opts)?.result)
    }

    /// Measure this machine's cost factors against the loaded data
    /// (see [`fn@sjos_core::calibrate`]) and return a database handle
    /// whose optimizer uses them. The paper's factors are
    /// implementation-specific constants; this derives them
    /// empirically.
    pub fn with_calibrated_model(mut self) -> (Database, sjos_core::CalibrationReport) {
        let report = sjos_core::calibrate(&self.store, 20_000, 5);
        self.model = report.model();
        // Plans are priced under the model: recalibration invalidates
        // anything cached against the old catalog generation.
        self.catalog.bump_version();
        (self, report)
    }

    /// Derive guaranteed resource bounds for an explicit plan under
    /// [`ExecOptions::default`] (serial, in memory, [`BATCH_ROWS`] per
    /// batch): cardinality intervals per operator
    /// plus worst-case peak buffering bytes and batch-pull counts,
    /// computed from the catalog's exact index statistics without
    /// executing anything (planck's PL060–PL064 family).
    pub fn resource_bounds(
        &self,
        pattern: &Pattern,
        plan: &PlanNode,
    ) -> sjos_planck::ResourceBounds {
        let est = self.estimates(pattern);
        sjos_planck::analyze_bounds(pattern, &est, &self.model, plan, &ExecOptions::default())
    }

    /// Static admission control: derive `plan`'s bounds under `opts`
    /// and decide *before execution* whether a run under the same
    /// `opts` can breach its guard's memory or batch budgets. A clean
    /// report means no such run on this database can trip the guard;
    /// running it is then breach-free by construction rather than by
    /// mid-flight termination. With a spill policy in `opts` this is
    /// the degraded tier (PL066): a clean report admits in spill mode
    /// a plan whose in-memory bound the guard rejected.
    pub fn admit(
        &self,
        pattern: &Pattern,
        plan: &PlanNode,
        opts: &ExecOptions,
    ) -> (sjos_planck::ResourceBounds, sjos_planck::Report) {
        let est = self.estimates(pattern);
        let bounds = sjos_planck::analyze_bounds(pattern, &est, &self.model, plan, opts);
        let report = sjos_planck::admit(&bounds, opts);
        (bounds, report)
    }

    /// Evaluate a pattern with the holistic twig join (TwigStack)
    /// instead of a binary structural join plan — the multi-way
    /// alternative the paper's future work points at. Returns
    /// canonical rows plus twig-level counters.
    pub fn holistic(&self, pattern: &Pattern) -> Result<sjos_exec::holistic::TwigResult, Error> {
        Ok(sjos_exec::holistic::evaluate(&self.store, pattern)?)
    }

    /// Parse, optimize (with DPP — the paper's recommendation for
    /// optimal plans), and execute a query.
    pub fn query(&self, query: &str) -> Result<QueryOutcome, Error> {
        self.query_with(query, Algorithm::Dpp { lookahead: true })
    }

    /// Parse, optimize with a chosen algorithm, and execute.
    pub fn query_with(&self, query: &str, algorithm: Algorithm) -> Result<QueryOutcome, Error> {
        let pattern = parse_pattern(query)?;
        let optimized = self.optimize(&pattern, algorithm)?;
        let result = self.execute(&pattern, &optimized.plan, &ExecOptions::default())?;
        Ok(QueryOutcome { optimized, result })
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Database({} elements, {} tags)",
            self.document().len(),
            self.document().tags().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XML: &str = "<dept><emp><name>ada</name></emp><emp><name>bob</name></emp></dept>";

    #[test]
    fn end_to_end_query() {
        let db = Database::from_xml(XML).unwrap();
        let out = db.query("//dept/emp/name").unwrap();
        assert_eq!(out.result.len(), 2);
        out.optimized.plan.validate(&parse_pattern("//dept/emp/name").unwrap()).unwrap();
    }

    #[test]
    fn bad_xml_is_an_error() {
        assert!(matches!(Database::from_xml("<a><b></a>"), Err(Error::Xml(_))));
    }

    #[test]
    fn bad_query_is_an_error() {
        let db = Database::from_xml(XML).unwrap();
        assert!(matches!(db.query("//dept["), Err(Error::Query(_))));
    }

    #[test]
    fn admission_gates_on_the_static_bound() {
        let db = Database::from_xml(XML).unwrap();
        let pattern = parse_pattern("//dept//name").unwrap();
        let plan = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap().plan;
        let bounds = db.resource_bounds(&pattern, &plan);
        assert!(bounds.peak_bytes > 0);

        let under = |guard: QueryGuard| ExecOptions {
            guard: Some(Arc::new(guard)),
            ..ExecOptions::default()
        };
        let starved = under(QueryGuard::unlimited().with_memory_budget(1));
        let (_, report) = db.admit(&pattern, &plan, &starved);
        assert!(!report.is_clean(), "a 1-byte budget must reject the plan");

        let roomy = under(QueryGuard::unlimited().with_memory_budget(bounds.peak_bytes as usize));
        let (_, report) = db.admit(&pattern, &plan, &roomy);
        assert!(report.is_clean(), "{report}");
        // Admission is a guarantee: the admitted plan runs to
        // completion under the same options.
        db.execute(&pattern, &plan, &roomy).unwrap();
    }

    #[test]
    fn all_algorithms_agree_on_results() {
        let db = Database::from_xml(XML).unwrap();
        let baseline = db.query("//dept//name").unwrap().result.canonical_rows();
        for alg in [
            Algorithm::Dp,
            Algorithm::DpapEb { te: 2 },
            Algorithm::DpapLd,
            Algorithm::Fp,
            Algorithm::WorstRandom { samples: 10, seed: 1 },
        ] {
            let out = db.query_with("//dept//name", alg).unwrap();
            assert_eq!(out.result.canonical_rows(), baseline, "{}", alg.name());
        }
    }
}
