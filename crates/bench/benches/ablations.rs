//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * the DPP **Lookahead Rule** on/off (the paper's DPP vs DPP'),
//! * the **ubCost** priority term on/off (Expanding Rule vs plain
//!   uniform-cost order),
//! * the **Stack-Tree-Desc cost formula**: paper-literal vs
//!   calibrated (see `sjos_core::cost::DescCostVariant`).

use criterion::{criterion_group, criterion_main, Criterion};

use sjos_core::dpp::{optimize_dpp, DppConfig};
use sjos_core::status::SearchContext;
use sjos_core::CostModel;
use sjos_datagen::{paper_queries, pers::pers, GenConfig};
use sjos_stats::{Catalog, PatternEstimates};

fn fixture() -> (sjos_pattern::Pattern, PatternEstimates) {
    let doc = pers(GenConfig::sized(5_000));
    let catalog = Catalog::build(&doc);
    let pattern = paper_queries().into_iter().find(|q| q.id == "Q.Pers.3.d").unwrap().pattern();
    let est = PatternEstimates::new(&catalog, &doc, &pattern);
    (pattern, est)
}

fn bench_lookahead(c: &mut Criterion) {
    let (pattern, est) = fixture();
    let model = CostModel::default();
    let mut group = c.benchmark_group("ablation_lookahead");
    for (label, lookahead) in [("with_lookahead", true), ("without_lookahead", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut ctx = SearchContext::new(&pattern, &est, &model);
                optimize_dpp(&mut ctx, DppConfig { lookahead, ..DppConfig::default() }, None)
                    .unwrap()
                    .1
            });
        });
    }
    group.finish();
}

fn bench_ub_cost(c: &mut Criterion) {
    let (pattern, est) = fixture();
    let model = CostModel::default();
    let mut group = c.benchmark_group("ablation_ub_cost");
    for (label, use_ub_cost) in [("with_ub", true), ("without_ub", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut ctx = SearchContext::new(&pattern, &est, &model);
                optimize_dpp(&mut ctx, DppConfig { use_ub_cost, ..DppConfig::default() }, None)
                    .unwrap()
                    .1
            });
        });
    }
    group.finish();
}

fn bench_cost_model_variant(c: &mut Criterion) {
    let (pattern, est) = fixture();
    let mut group = c.benchmark_group("ablation_desc_cost_formula");
    for (label, model) in
        [("calibrated", CostModel::default()), ("paper_literal", CostModel::paper_literal())]
    {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut ctx = SearchContext::new(&pattern, &est, &model);
                optimize_dpp(&mut ctx, DppConfig::default(), None).unwrap().1
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookahead, bench_ub_cost, bench_cost_model_variant);
criterion_main!(benches);
