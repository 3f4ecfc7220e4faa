//! Micro-benchmarks of the structural join operators: Stack-Tree-Desc
//! vs Stack-Tree-Anc across input sizes, and the sort operator they
//! compete against — the primitives whose relative costs the paper's
//! cost model (§2.2.2) prices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use sjos_core::Algorithm;
use sjos_datagen::{pers::pers, GenConfig};
use sjos_exec::{execute, ExecOptions, JoinAlgo, PlanNode};
use sjos_pattern::{parse_pattern, PnId};
use sjos_storage::XmlStore;

fn store_of(nodes: usize) -> XmlStore {
    XmlStore::load(pers(GenConfig::sized(nodes)))
}

fn all_algorithms() -> [(&'static str, JoinAlgo); 3] {
    [
        ("desc", JoinAlgo::StackTreeDesc),
        ("anc", JoinAlgo::StackTreeAnc),
        ("mpmgjn", JoinAlgo::MergeJoin),
    ]
}

fn join_plan(algo: JoinAlgo) -> PlanNode {
    PlanNode::StructuralJoin {
        left: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
        right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
        anc: PnId(0),
        desc: PnId(1),
        axis: sjos_pattern::Axis::Descendant,
        algo,
    }
}

fn bench_stack_tree(c: &mut Criterion) {
    let pattern = parse_pattern("//manager//employee").unwrap();
    let mut group = c.benchmark_group("stack_tree_join");
    for nodes in [2_000usize, 10_000, 50_000] {
        let store = store_of(nodes);
        group.throughput(Throughput::Elements(nodes as u64));
        for (label, algo) in all_algorithms() {
            let plan = join_plan(algo);
            group.bench_with_input(BenchmarkId::new(label, nodes), &store, |b, store| {
                b.iter(|| {
                    execute(store, &pattern, &plan, &ExecOptions::default()).unwrap().result.len()
                });
            });
        }
    }
    group.finish();
}

fn bench_sort_vs_pipelined(c: &mut Criterion) {
    // The same 2-way join, consumed either pipelined or through an
    // explicit sort — the choice at the heart of blocking vs FP plans.
    let pattern = parse_pattern("//manager//employee").unwrap();
    let store = store_of(20_000);
    let pipelined = join_plan(JoinAlgo::StackTreeDesc);
    let sorted =
        PlanNode::Sort { input: Box::new(join_plan(JoinAlgo::StackTreeDesc)), by: PnId(0) };
    let mut group = c.benchmark_group("pipelined_vs_sorted");
    group.bench_function("pipelined", |b| {
        b.iter(|| {
            execute(&store, &pattern, &pipelined, &ExecOptions::default()).unwrap().result.len()
        });
    });
    group.bench_function("with_sort", |b| {
        b.iter(|| {
            execute(&store, &pattern, &sorted, &ExecOptions::default()).unwrap().result.len()
        });
    });
    group.finish();
}

fn bench_full_query(c: &mut Criterion) {
    // End-to-end Q.Pers.3.d with the optimal and the worst random
    // plan — the headline gap of Table 1.
    let store = store_of(10_000);
    let catalog = sjos_stats::Catalog::build(store.document());
    let pattern = parse_pattern("//manager[.//employee/name][.//manager/department/name]").unwrap();
    let est = sjos_stats::PatternEstimates::new(&catalog, store.document(), &pattern);
    let model = sjos_core::CostModel::default();
    let good =
        sjos_core::optimize(&pattern, &est, &model, Algorithm::Dpp { lookahead: true }).unwrap();
    let bad = sjos_core::optimize(&pattern, &est, &model, Algorithm::BAD_PLAN).unwrap();
    let mut group = c.benchmark_group("q_pers_3d_execution");
    group.sample_size(10);
    group.bench_function("optimal_plan", |b| {
        b.iter(|| {
            execute(&store, &pattern, &good.plan, &ExecOptions::default()).unwrap().result.len()
        });
    });
    group.bench_function("bad_plan", |b| {
        b.iter(|| {
            execute(&store, &pattern, &bad.plan, &ExecOptions::default()).unwrap().result.len()
        });
    });
    group.finish();
}

fn bench_holistic_vs_binary(c: &mut Criterion) {
    // Binary structural-join plan (the paper's subject) vs the
    // holistic twig join (its cited future-work alternative) on the
    // same twig query.
    let store = store_of(10_000);
    let catalog = sjos_stats::Catalog::build(store.document());
    let pattern = parse_pattern("//manager[.//employee/name][.//manager/department/name]").unwrap();
    let est = sjos_stats::PatternEstimates::new(&catalog, store.document(), &pattern);
    let model = sjos_core::CostModel::default();
    let plan = sjos_core::optimize(&pattern, &est, &model, Algorithm::Dpp { lookahead: true })
        .unwrap()
        .plan;
    let counting = ExecOptions { collect: false, ..ExecOptions::default() };
    let mut group = c.benchmark_group("holistic_vs_binary");
    group.sample_size(10);
    group.bench_function("binary_optimal", |b| {
        b.iter(|| execute(&store, &pattern, &plan, &counting).unwrap().result.len());
    });
    group.bench_function("twigstack", |b| {
        b.iter(|| sjos_exec::holistic::evaluate(&store, &pattern).unwrap().rows.len());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stack_tree,
    bench_sort_vs_pipelined,
    bench_full_query,
    bench_holistic_vs_binary
);
criterion_main!(benches);
