//! # sjos-core
//!
//! Cost-based **structural join order selection**, the contribution of
//! Wu, Patel & Jagadish (ICDE 2003). Given a query pattern, per-node
//! cardinality estimates, and a cost model, the optimizers in this
//! crate search the space of structural-join evaluation plans:
//!
//! | Algorithm | Entry point | Guarantees |
//! |-----------|------------|------------|
//! | DP        | [`Algorithm::Dp`] | optimal plan; exhaustive level-by-level dynamic programming |
//! | DPP       | [`Algorithm::Dpp`] | optimal plan; best-first with pruning + dead-end lookahead |
//! | DPP'      | `Algorithm::Dpp { lookahead: false }` | optimal plan; no lookahead (Table 2 comparison) |
//! | DPAP-EB   | [`Algorithm::DpapEb`] | heuristic; at most `T_e` expansions per level |
//! | DPAP-LD   | [`Algorithm::DpapLd`] | heuristic; left-deep statuses only |
//! | FP        | [`Algorithm::Fp`] | cheapest fully-pipelined (sort-free) plan |
//!
//! The search space is the paper's *status* model (§3.1.1): a status
//! partitions the pattern into joined clusters, each cluster knowing
//! which node its intermediate result is ordered by; a *move*
//! evaluates one pattern edge with a stack-tree algorithm and
//! optionally re-sorts the output.
//!
//! ```
//! use sjos_core::{optimize, Algorithm, CostModel};
//! use sjos_pattern::parse_pattern;
//! use sjos_stats::{Catalog, PatternEstimates};
//! use sjos_xml::Document;
//!
//! let doc = Document::parse("<a><b><c/></b><b><c/><c/></b></a>").unwrap();
//! let pattern = parse_pattern("//a//b/c").unwrap();
//! let catalog = Catalog::build(&doc);
//! let est = PatternEstimates::new(&catalog, &doc, &pattern);
//! let best = optimize(&pattern, &est, &CostModel::default(), Algorithm::Dpp { lookahead: true })
//!     .expect("well-formed pattern optimizes");
//! assert_eq!(best.plan.join_count(), 2);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod cost;
pub mod dp;
pub mod dpp;
pub mod error;
pub mod fp;
pub mod optimizer;
pub mod random;
pub mod status;
pub mod trace;

pub use calibrate::{calibrate, CalibrationReport};
pub use cost::{CostFactors, CostModel, DescCostVariant};
pub use error::OptimizerError;
pub use optimizer::{optimize, optimize_traced, Algorithm, OptimizedPlan, OptimizerStats};
pub use random::{mutate_plan, random_plan, worst_random_plan, PlanMutation};
pub use status::{check_key, check_status, Cluster, Status, StatusKey, StatusViolation};
pub use trace::{SearchTrace, TraceEvent};
