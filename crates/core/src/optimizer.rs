//! Unified optimizer entry point.

use std::str::FromStr;
use std::time::{Duration, Instant};

use sjos_exec::PlanNode;
use sjos_pattern::Pattern;
use sjos_stats::PatternEstimates;

use crate::cost::CostModel;
use crate::dp::optimize_dp;
use crate::dpp::{optimize_dpp, DppConfig};
use crate::error::OptimizerError;
use crate::fp::optimize_fp;
use crate::random::worst_random_plan;
use crate::status::SearchContext;
use crate::trace::SearchTrace;

/// The structural join order selection algorithms of the paper, plus
/// the random "bad plan" baseline from its evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exhaustive level-by-level dynamic programming (§3.1).
    Dp,
    /// Dynamic programming with pruning (§3.2); `lookahead: false`
    /// is the paper's DPP' (Table 2).
    Dpp {
        /// Apply the dead-end Lookahead Rule.
        lookahead: bool,
    },
    /// DPAP with an expansion bound of `te` statuses per level
    /// (§3.3.1).
    DpapEb {
        /// The `T_e` tuning parameter.
        te: usize,
    },
    /// DPAP restricted to left-deep plans (§3.3.2).
    DpapLd,
    /// Fully-pipelined plans only (§3.4).
    Fp,
    /// Worst of `samples` random valid plans (Table 1's "bad plan").
    WorstRandom {
        /// Number of random plans to draw.
        samples: usize,
        /// RNG seed (deterministic).
        seed: u64,
    },
}

impl Algorithm {
    /// Table 1's "bad plan": the worst of 64 random plans at seed 2003.
    pub const BAD_PLAN: Algorithm = Algorithm::WorstRandom { samples: 64, seed: 2003 };

    /// Every spelling [`Algorithm::from_str`] accepts, for usage text.
    pub const SPELLINGS: &'static str = "dp|dpp|dpp-nl|dpap-eb:<te>|dpap-ld|fp|random:<seed>|bad";

    /// The paper's name for the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Dp => "DP",
            Algorithm::Dpp { lookahead: true } => "DPP",
            Algorithm::Dpp { lookahead: false } => "DPP'",
            Algorithm::DpapEb { .. } => "DPAP-EB",
            Algorithm::DpapLd => "DPAP-LD",
            Algorithm::Fp => "FP",
            Algorithm::WorstRandom { .. } => "bad plan",
        }
    }
}

impl FromStr for Algorithm {
    type Err = String;

    /// Parse one of [`Algorithm::SPELLINGS`]: `dpp-nl` is DPP′,
    /// `random:<seed>` is one seeded random plan, and `bad` is
    /// [`Algorithm::BAD_PLAN`].
    fn from_str(name: &str) -> Result<Algorithm, String> {
        Ok(match name {
            "dp" => Algorithm::Dp,
            "dpp" => Algorithm::Dpp { lookahead: true },
            "dpp-nl" => Algorithm::Dpp { lookahead: false },
            "dpap-ld" => Algorithm::DpapLd,
            "fp" => Algorithm::Fp,
            "bad" => Algorithm::BAD_PLAN,
            other => {
                if let Some(te) = other.strip_prefix("dpap-eb:") {
                    Algorithm::DpapEb { te: te.parse().map_err(|_| format!("bad T_e in {other}"))? }
                } else if let Some(seed) = other.strip_prefix("random:") {
                    let seed = seed.parse().map_err(|_| format!("bad seed in {other}"))?;
                    Algorithm::WorstRandom { samples: 1, seed }
                } else {
                    return Err(format!(
                        "unknown algorithm {other} (expected {})",
                        Self::SPELLINGS
                    ));
                }
            }
        })
    }
}

/// Search-effort counters, plus wall-clock optimization time.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerStats {
    /// (Algorithm, ordering) alternatives priced — the paper's
    /// "# of Plans" in Table 2.
    pub plans_considered: u64,
    /// Statuses materialized during the search.
    pub statuses_generated: u64,
    /// Statuses whose moves were enumerated.
    pub statuses_expanded: u64,
    /// Time spent optimizing.
    pub elapsed: Duration,
}

/// The outcome of one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The chosen physical plan (valid for the pattern it was built
    /// from).
    pub plan: PlanNode,
    /// Its estimated cost under the cost model used.
    pub estimated_cost: f64,
    /// Search effort.
    pub stats: OptimizerStats,
}

/// Optimize `pattern` with `algorithm`.
///
/// DP and DPP return the cost-optimal plan; DPAP-EB/DPAP-LD/FP return
/// their restricted optima; `WorstRandom` returns the *worst* sampled
/// plan (a baseline, not an optimizer).
///
/// # Errors
/// [`OptimizerError::NoPlanFound`] if the search strands without a
/// complete plan (an internal bug — every well-formed pattern has
/// one, and `WorstRandom` needs `samples > 0`), and
/// [`OptimizerError::NonFiniteCost`] when the chosen plan prices at
/// NaN or infinity, which means the cardinality estimates were broken.
pub fn optimize(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    algorithm: Algorithm,
) -> Result<OptimizedPlan, OptimizerError> {
    optimize_traced(pattern, estimates, model, algorithm, None)
}

/// [`optimize`], recording the search into `trace` when one is given.
/// DP, DPP, DPP′, DPAP-EB and DPAP-LD record every status decision
/// (see [`crate::trace`]); FP and `WorstRandom` perform no status
/// search and leave the trace untouched.
///
/// # Errors
/// Same as [`optimize`].
pub fn optimize_traced(
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    algorithm: Algorithm,
    trace: Option<&mut SearchTrace>,
) -> Result<OptimizedPlan, OptimizerError> {
    let started = Instant::now();
    let mut ctx = SearchContext::new(pattern, estimates, model);
    let (plan, estimated_cost) = match algorithm {
        Algorithm::Dp => optimize_dp(&mut ctx, trace)?,
        Algorithm::Dpp { lookahead } => {
            optimize_dpp(&mut ctx, DppConfig { lookahead, ..DppConfig::default() }, trace)?
        }
        Algorithm::DpapEb { te } => optimize_dpp(
            &mut ctx,
            DppConfig { expansion_bound: Some(te), ..DppConfig::default() },
            trace,
        )?,
        Algorithm::DpapLd => optimize_dpp(
            &mut ctx,
            DppConfig { left_deep_only: true, ..DppConfig::default() },
            trace,
        )?,
        Algorithm::Fp => optimize_fp(&mut ctx)?,
        Algorithm::WorstRandom { samples, seed } => {
            if samples == 0 {
                return Err(OptimizerError::NoPlanFound { algorithm: "bad plan" });
            }
            let (plan, cost) = worst_random_plan(pattern, estimates, model, samples, seed);
            ctx.plans_considered += samples as u64;
            (plan, cost)
        }
    };
    if !estimated_cost.is_finite() {
        return Err(OptimizerError::NonFiniteCost {
            algorithm: algorithm.name(),
            cost: estimated_cost,
        });
    }
    debug_assert!(plan.validate(pattern).is_ok(), "optimizer produced invalid plan");
    Ok(OptimizedPlan {
        plan,
        estimated_cost,
        stats: OptimizerStats {
            plans_considered: ctx.plans_considered,
            statuses_generated: ctx.statuses_generated,
            statuses_expanded: ctx.statuses_expanded,
            elapsed: started.elapsed(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjos_pattern::parse_pattern;
    use sjos_stats::Catalog;
    use sjos_xml::Document;

    const XML: &str = "<a>\
        <b><c>x</c><c>y</c><e/></b>\
        <b><c>z</c></b>\
        <d><e/><e/></d>\
    </a>";

    fn parts(pat: &str) -> (Pattern, PatternEstimates, CostModel) {
        let doc = Document::parse(XML).unwrap();
        let pattern = parse_pattern(pat).unwrap();
        let catalog = Catalog::build(&doc);
        let est = PatternEstimates::new(&catalog, &doc, &pattern);
        (pattern, est, CostModel::default())
    }

    #[test]
    fn all_algorithms_produce_valid_plans() {
        let (pattern, est, model) = parts("//a[./b/c][./d/e]");
        for alg in [
            Algorithm::Dp,
            Algorithm::Dpp { lookahead: true },
            Algorithm::Dpp { lookahead: false },
            Algorithm::DpapEb { te: 3 },
            Algorithm::DpapLd,
            Algorithm::Fp,
            Algorithm::WorstRandom { samples: 20, seed: 1 },
        ] {
            let out = optimize(&pattern, &est, &model, alg).unwrap();
            out.plan.validate(&pattern).unwrap();
            assert!(out.estimated_cost > 0.0, "{}", alg.name());
            assert!(out.stats.plans_considered > 0, "{}", alg.name());
        }
    }

    #[test]
    fn exact_algorithms_agree_heuristics_never_beat_them() {
        let (pattern, est, model) = parts("//a[./b[./c][./e]][./d/e]");
        let dp = optimize(&pattern, &est, &model, Algorithm::Dp).unwrap();
        let dpp = optimize(&pattern, &est, &model, Algorithm::Dpp { lookahead: true }).unwrap();
        let dpp_nl = optimize(&pattern, &est, &model, Algorithm::Dpp { lookahead: false }).unwrap();
        assert!((dp.estimated_cost - dpp.estimated_cost).abs() < 1e-6);
        assert!((dp.estimated_cost - dpp_nl.estimated_cost).abs() < 1e-6);
        for alg in [Algorithm::DpapEb { te: 2 }, Algorithm::DpapLd, Algorithm::Fp] {
            let h = optimize(&pattern, &est, &model, alg).unwrap();
            assert!(h.estimated_cost >= dp.estimated_cost - 1e-6, "{} beat DP", alg.name());
        }
    }

    #[test]
    fn bad_plan_is_much_worse_than_optimal() {
        let (pattern, est, model) = parts("//a[./b/c][./d/e]");
        let dp = optimize(&pattern, &est, &model, Algorithm::Dp).unwrap();
        let bad =
            optimize(&pattern, &est, &model, Algorithm::WorstRandom { samples: 100, seed: 9 })
                .unwrap();
        assert!(bad.estimated_cost >= dp.estimated_cost);
    }

    #[test]
    fn effort_ordering_matches_the_paper() {
        // Table 2's qualitative ordering (DP > DPP' > DPP > … > FP).
        // On a tiny uniform document the cost-based Pruning Rule has
        // little to bite on (all plans cost nearly the same), so here
        // we assert the data-independent parts: lookahead can only
        // shrink the search, and FP explores the least by far. The
        // full ordering is exercised on realistic data by the Table 2
        // harness and integration tests.
        let (pattern, est, model) = parts("//a[./b[./c][./e]][./d/e]");
        let count = |alg| optimize(&pattern, &est, &model, alg).unwrap().stats.plans_considered;
        let dp = count(Algorithm::Dp);
        let dpp_nl = count(Algorithm::Dpp { lookahead: false });
        let dpp = count(Algorithm::Dpp { lookahead: true });
        let fp = count(Algorithm::Fp);
        assert!(dpp_nl >= dpp, "DPP' {dpp_nl} < DPP {dpp}");
        assert!(fp < dpp, "FP {fp} >= DPP {dpp}");
        assert!(fp < dp, "FP {fp} >= DP {dp}");
    }

    #[test]
    fn zero_random_samples_is_a_typed_error() {
        let (pattern, est, model) = parts("//a/b");
        let err = optimize(&pattern, &est, &model, Algorithm::WorstRandom { samples: 0, seed: 1 })
            .unwrap_err();
        assert!(matches!(err, crate::error::OptimizerError::NoPlanFound { .. }));
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Algorithm::Dp.name(), "DP");
        assert_eq!(Algorithm::Dpp { lookahead: true }.name(), "DPP");
        assert_eq!(Algorithm::Dpp { lookahead: false }.name(), "DPP'");
        assert_eq!(Algorithm::DpapEb { te: 1 }.name(), "DPAP-EB");
        assert_eq!(Algorithm::DpapLd.name(), "DPAP-LD");
        assert_eq!(Algorithm::Fp.name(), "FP");
    }

    #[test]
    fn every_spelling_parses_to_its_variant() {
        let table = [
            ("dp", Algorithm::Dp),
            ("dpp", Algorithm::Dpp { lookahead: true }),
            ("dpp-nl", Algorithm::Dpp { lookahead: false }),
            ("dpap-eb:3", Algorithm::DpapEb { te: 3 }),
            ("dpap-ld", Algorithm::DpapLd),
            ("fp", Algorithm::Fp),
            ("random:7", Algorithm::WorstRandom { samples: 1, seed: 7 }),
            ("bad", Algorithm::WorstRandom { samples: 64, seed: 2003 }),
        ];
        for (spelling, algorithm) in table {
            assert_eq!(spelling.parse::<Algorithm>(), Ok(algorithm), "{spelling}");
        }
        assert_eq!(table.len(), Algorithm::SPELLINGS.split('|').count());
        for rejected in ["ld", "eb:2", "dpap-eb:x", "random:", "DP", ""] {
            assert!(rejected.parse::<Algorithm>().is_err(), "{rejected} parsed");
        }
    }
}
