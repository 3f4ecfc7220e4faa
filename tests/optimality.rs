//! Optimizer-quality guarantees on realistic generated data: DP and
//! DPP agree on the optimum, heuristics never beat it, plan-class
//! restrictions hold, and the search-effort ordering of Table 2
//! emerges.

use sjos::datagen::{paper_queries, pers::pers, DataSet, GenConfig};
use sjos::{Algorithm, Database, ExecOptions};

fn pers_db() -> Database {
    Database::from_document(pers(GenConfig::sized(5_000)))
}

#[test]
fn dp_and_dpp_find_the_same_cost_on_all_pers_queries() {
    let db = pers_db();
    for q in paper_queries().into_iter().filter(|q| q.dataset == DataSet::Pers) {
        let pattern = q.pattern();
        let dp = db.optimize(&pattern, Algorithm::Dp).unwrap();
        let dpp = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
        let dpp_nl = db.optimize(&pattern, Algorithm::Dpp { lookahead: false }).unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / a.max(b).max(1.0);
        assert!(rel(dp.estimated_cost, dpp.estimated_cost) < 1e-9, "{}", q.id);
        assert!(rel(dp.estimated_cost, dpp_nl.estimated_cost) < 1e-9, "{}", q.id);
    }
}

#[test]
fn heuristics_never_beat_the_optimum() {
    let db = pers_db();
    for q in paper_queries().into_iter().filter(|q| q.dataset == DataSet::Pers) {
        let pattern = q.pattern();
        let opt = db.optimize(&pattern, Algorithm::Dp).unwrap().estimated_cost;
        for alg in [
            Algorithm::DpapEb { te: 1 },
            Algorithm::DpapEb { te: 3 },
            Algorithm::DpapLd,
            Algorithm::Fp,
        ] {
            let h = db.optimize(&pattern, alg).unwrap().estimated_cost;
            assert!(h >= opt - 1e-6, "{} via {}: {h} < {opt}", q.id, alg.name());
        }
    }
}

#[test]
fn fp_plans_are_pipelined_ld_plans_are_left_deep() {
    let db = pers_db();
    for q in paper_queries().into_iter().filter(|q| q.dataset == DataSet::Pers) {
        let pattern = q.pattern();
        let fp = db.optimize(&pattern, Algorithm::Fp).unwrap();
        assert!(fp.plan.is_fully_pipelined(), "{}: {}", q.id, fp.plan);
        let ld = db.optimize(&pattern, Algorithm::DpapLd).unwrap();
        assert!(ld.plan.is_left_deep(), "{}: {}", q.id, ld.plan);
    }
}

#[test]
fn search_effort_ordering_on_the_fig1_query() {
    // Table 2's ordering on Q.Pers.3.d: DP > DPP' > DPP > DPAP-EB >
    // DPAP-LD > FP in plans considered.
    let db = pers_db();
    let pattern = paper_queries().into_iter().find(|q| q.id == "Q.Pers.3.d").unwrap().pattern();
    let count = |alg| db.optimize(&pattern, alg).unwrap().stats.plans_considered;
    let dp = count(Algorithm::Dp);
    let dpp_nl = count(Algorithm::Dpp { lookahead: false });
    let dpp = count(Algorithm::Dpp { lookahead: true });
    let eb = count(Algorithm::DpapEb { te: 5 });
    let fp = count(Algorithm::Fp);
    assert!(dp > dpp, "DP {dp} !> DPP {dpp}");
    assert!(dpp_nl >= dpp, "DPP' {dpp_nl} !>= DPP {dpp}");
    assert!(eb <= dpp, "EB {eb} !<= DPP {dpp}");
    assert!(fp < dpp, "FP {fp} !< DPP {dpp}");
    assert!(fp < dp / 2, "FP {fp} must explore far less than DP {dp}");
}

#[test]
fn growing_te_converges_to_dpp() {
    let db = pers_db();
    let pattern = paper_queries().into_iter().find(|q| q.id == "Q.Pers.3.d").unwrap().pattern();
    let opt = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
    let mut costs = vec![];
    for te in 1..=pattern.len() {
        let eb = db.optimize(&pattern, Algorithm::DpapEb { te }).unwrap();
        costs.push(eb.estimated_cost);
    }
    // Larger Te: plan quality is (weakly) increasing towards optimal.
    let last = *costs.last().unwrap();
    assert!(last >= opt.estimated_cost - 1e-6);
    let best_seen = costs.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(best_seen >= opt.estimated_cost - 1e-6, "EB can never beat DPP");
}

#[test]
fn bad_plans_are_worse_than_optimized_plans() {
    let db = pers_db();
    for q in paper_queries().into_iter().filter(|q| q.dataset == DataSet::Pers) {
        let pattern = q.pattern();
        let opt = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
        let bad =
            db.optimize(&pattern, Algorithm::WorstRandom { samples: 64, seed: 2003 }).unwrap();
        assert!(
            bad.estimated_cost >= opt.estimated_cost,
            "{}: bad {} < opt {}",
            q.id,
            bad.estimated_cost,
            opt.estimated_cost
        );
    }
}

#[test]
fn optimal_plan_executes_faster_than_bad_plan_at_scale() {
    // The headline claim: optimization pays. Measured on a folded
    // Pers instance where intermediate results diverge.
    use sjos::datagen::fold_document;
    let base = pers(GenConfig::sized(5_000));
    let doc = fold_document(&base, 4);
    let db = Database::from_document(doc);
    let pattern = paper_queries().into_iter().find(|q| q.id == "Q.Pers.3.d").unwrap().pattern();
    let opt = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
    let bad = db.optimize(&pattern, Algorithm::WorstRandom { samples: 64, seed: 7 }).unwrap();
    let opt_res = db.execute(&pattern, &opt.plan, &ExecOptions::default()).unwrap();
    let bad_res = db.execute(&pattern, &bad.plan, &ExecOptions::default()).unwrap();
    assert_eq!(opt_res.canonical_rows(), bad_res.canonical_rows());
    // Compare work, not wall clock (robust in CI): the bad plan must
    // shuffle at least as many tuples through its operators.
    assert!(
        bad_res.metrics.produced_tuples >= opt_res.metrics.produced_tuples,
        "bad {} < opt {}",
        bad_res.metrics.produced_tuples,
        opt_res.metrics.produced_tuples
    );
}

#[test]
fn dp_breaks_cost_ties_the_same_way_on_every_run() {
    // Two `b` branches over the same list price every mirror-image
    // plan identically, so DP meets equal-cost derivations and tied
    // final statuses; the winner must not depend on hash order.
    let db = Database::from_xml("<a><b><c/></b><b/><d><b/><a><b/><b/></a></d></a>").unwrap();
    let pattern = sjos::parse_pattern("//a[./b][./b][.//d]").unwrap();
    let first = db.optimize(&pattern, Algorithm::Dp).unwrap();
    for _ in 0..20 {
        let again = db.optimize(&pattern, Algorithm::Dp).unwrap();
        assert_eq!(again.plan.to_string(), first.plan.to_string());
        assert_eq!(again.estimated_cost.to_bits(), first.estimated_cost.to_bits());
    }
}
