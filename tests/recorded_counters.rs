//! Recorded work counters: every Table-1 query under DPP, FP and two
//! seeded random plans (which mix Stack-Tree-Anc, Stack-Tree-Desc and
//! sorts), on small fixed corpora and at two batch sizes, must
//! reproduce the full `MetricsSnapshot` (`peak_bytes` included) and
//! the emitted row sequence recorded from the row-at-a-time stack-tree
//! kernel. A change to how joins or scans move rows must leave every
//! number here as it is.
//!
//! Each row is recorded twice: with narrow columns (the default, where
//! a column drops its region after its last join) and with every
//! column wide, the layout the kernel was first recorded in. The two
//! runs must emit the same rows in the same order with the same
//! counters, except that the narrow `peak_bytes` may only be lower.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sjos::core::random_plan;
use sjos::datagen::{dblp::dblp, mbench::mbench, paper_queries, pers::pers, DataSet, GenConfig};
use sjos::exec::MetricsSnapshot;
use sjos::{Algorithm, Database, ExecOptions, PlanNode, BATCH_ROWS};

/// `(query id, plan, batch rows, rows, FNV-1a digest of the rows' node
/// ids in emission order, metrics with narrow columns, peak_bytes with
/// every column wide)`.
type Recorded = (&'static str, &'static str, usize, usize, u64, MetricsSnapshot, u64);

#[allow(clippy::too_many_arguments)]
const fn snap(
    output_tuples: u64,
    produced_tuples: u64,
    stack_pushes: u64,
    stack_pops: u64,
    buffered_pairs: u64,
    sorted_tuples: u64,
    sort_operations: u64,
    scanned_records: u64,
    merge_rescans: u64,
    peak_bytes: u64,
) -> MetricsSnapshot {
    MetricsSnapshot {
        output_tuples,
        produced_tuples,
        stack_pushes,
        stack_pops,
        buffered_pairs,
        sorted_tuples,
        sort_operations,
        scanned_records,
        merge_rescans,
        peak_bytes,
        spilled_runs: 0,
        spilled_bytes: 0,
        spill_merge_passes: 0,
    }
}

#[rustfmt::skip]
const RECORDED: &[Recorded] = &[
    ("Q.Mbench.1.a", "DPP", 7, 6507, 0xc36569760cea0439, snap(6507, 12505, 5104, 5104, 6954, 0, 0, 5551, 0, 9196), 14560),
    ("Q.Mbench.1.a", "DPP", 1024, 6507, 0xc36569760cea0439, snap(6507, 12505, 5104, 5104, 6954, 0, 0, 5551, 0, 9196), 14560),
    ("Q.Mbench.1.a", "FP", 7, 6507, 0xc36569760cea0439, snap(6507, 12505, 5104, 5104, 6954, 0, 0, 5551, 0, 9196), 14560),
    ("Q.Mbench.1.a", "FP", 1024, 6507, 0xc36569760cea0439, snap(6507, 12505, 5104, 5104, 6954, 0, 0, 5551, 0, 9196), 14560),
    ("Q.Mbench.1.a", "random#0", 7, 6507, 0xc36569760cea0439, snap(6507, 85910, 39478, 39478, 989360, 36926, 1, 5551, 0, 819004), 1497808),
    ("Q.Mbench.1.a", "random#0", 1024, 6507, 0xc36569760cea0439, snap(6507, 85910, 39478, 39478, 989360, 36926, 1, 5551, 0, 819004), 1497808),
    ("Q.Mbench.1.a", "random#1", 7, 6507, 0x0c1e8a378deb0a89, snap(6507, 12505, 5104, 5104, 57830, 0, 0, 5551, 0, 78340), 312592),
    ("Q.Mbench.1.a", "random#1", 1024, 6507, 0x0c1e8a378deb0a89, snap(6507, 12505, 5104, 5104, 57830, 0, 0, 5551, 0, 78340), 312592),
    ("Q.Mbench.2.b", "DPP", 7, 409, 0x96acb3866ac1facf, snap(409, 11510, 5551, 5551, 43880, 0, 0, 8103, 0, 60076), 95968),
    ("Q.Mbench.2.b", "DPP", 1024, 409, 0x96acb3866ac1facf, snap(409, 11510, 5551, 5551, 43880, 0, 0, 8103, 0, 51276), 81888),
    ("Q.Mbench.2.b", "FP", 7, 409, 0x96acb3866ac1facf, snap(409, 11510, 5551, 5551, 43880, 0, 0, 8103, 0, 60076), 95968),
    ("Q.Mbench.2.b", "FP", 1024, 409, 0x96acb3866ac1facf, snap(409, 11510, 5551, 5551, 43880, 0, 0, 8103, 0, 51276), 81888),
    ("Q.Mbench.2.b", "random#0", 7, 409, 0x96acb3866ac1facf, snap(409, 9673, 3356, 3356, 9506, 357, 1, 8103, 0, 15208), 43504),
    ("Q.Mbench.2.b", "random#0", 1024, 409, 0x96acb3866ac1facf, snap(409, 9673, 3356, 3356, 9506, 357, 1, 8103, 0, 15208), 43504),
    ("Q.Mbench.2.b", "random#1", 7, 409, 0x3e531025d1b79877, snap(409, 11777, 5460, 5460, 46516, 357, 1, 8103, 0, 81888), 82128),
    ("Q.Mbench.2.b", "random#1", 1024, 409, 0x3e531025d1b79877, snap(409, 11777, 5460, 5460, 46516, 357, 1, 8103, 0, 81888), 81888),
    ("Q.DBLP.1.b", "DPP", 7, 465, 0xb1a7b2f78ac89914, snap(465, 2402, 373, 373, 186, 0, 0, 1565, 0, 84), 144),
    ("Q.DBLP.1.b", "DPP", 1024, 465, 0xb1a7b2f78ac89914, snap(465, 2402, 373, 373, 186, 0, 0, 1565, 0, 44), 80),
    ("Q.DBLP.1.b", "FP", 7, 465, 0xb1a7b2f78ac89914, snap(465, 2402, 373, 373, 186, 0, 0, 1565, 0, 84), 144),
    ("Q.DBLP.1.b", "FP", 1024, 465, 0xb1a7b2f78ac89914, snap(465, 2402, 373, 373, 186, 0, 0, 1565, 0, 44), 80),
    ("Q.DBLP.1.b", "random#0", 7, 465, 0x3b8b01fce05774b0, snap(465, 2867, 652, 652, 1593, 186, 1, 1565, 0, 3972), 6576),
    ("Q.DBLP.1.b", "random#0", 1024, 465, 0x3b8b01fce05774b0, snap(465, 2867, 652, 652, 1593, 186, 1, 1565, 0, 3880), 6400),
    ("Q.DBLP.1.b", "random#1", 7, 465, 0x3b8b01fce05774b0, snap(465, 3425, 652, 652, 930, 465, 1, 1565, 0, 11256), 22512),
    ("Q.DBLP.1.b", "random#1", 1024, 465, 0x3b8b01fce05774b0, snap(465, 3425, 652, 652, 930, 465, 1, 1565, 0, 11256), 22512),
    ("Q.DBLP.2.c", "DPP", 7, 256, 0x40d322ad6e3a8cff, snap(256, 2765, 693, 693, 507, 0, 0, 2002, 0, 212), 416),
    ("Q.DBLP.2.c", "DPP", 1024, 256, 0x40d322ad6e3a8cff, snap(256, 2765, 693, 693, 507, 0, 0, 2002, 0, 104), 224),
    ("Q.DBLP.2.c", "FP", 7, 256, 0x40d322ad6e3a8cff, snap(256, 2765, 693, 693, 507, 0, 0, 2002, 0, 212), 416),
    ("Q.DBLP.2.c", "FP", 1024, 256, 0x40d322ad6e3a8cff, snap(256, 2765, 693, 693, 507, 0, 0, 2002, 0, 104), 224),
    ("Q.DBLP.2.c", "random#0", 7, 256, 0xc0bbedac7b266843, snap(256, 3747, 1163, 1163, 2516, 512, 2, 2002, 0, 16400), 28672),
    ("Q.DBLP.2.c", "random#0", 1024, 256, 0xc0bbedac7b266843, snap(256, 3747, 1163, 1163, 2516, 512, 2, 2002, 0, 16384), 28672),
    ("Q.DBLP.2.c", "random#1", 7, 256, 0xed8a3f062a74e8ab, snap(256, 4091, 1335, 1335, 465, 684, 2, 2002, 0, 15636), 29520),
    ("Q.DBLP.2.c", "random#1", 1024, 256, 0xed8a3f062a74e8ab, snap(256, 4091, 1335, 1335, 465, 684, 2, 2002, 0, 15636), 29520),
    ("Q.Pers.1.a", "DPP", 7, 3660, 0xdd140d840333d4b5, snap(3660, 5514, 614, 614, 480, 0, 0, 1374, 0, 244), 256),
    ("Q.Pers.1.a", "DPP", 1024, 3660, 0xdd140d840333d4b5, snap(3660, 5514, 614, 614, 480, 0, 0, 1374, 0, 208), 208),
    ("Q.Pers.1.a", "FP", 7, 3660, 0xdd140d840333d4b5, snap(3660, 5514, 614, 614, 480, 0, 0, 1374, 0, 244), 256),
    ("Q.Pers.1.a", "FP", 1024, 3660, 0xdd140d840333d4b5, snap(3660, 5514, 614, 614, 480, 0, 0, 1374, 0, 208), 208),
    ("Q.Pers.1.a", "random#0", 7, 3660, 0xdd140d840333d4b5, snap(3660, 12354, 3794, 3794, 36210, 3660, 1, 1374, 0, 73616), 118160),
    ("Q.Pers.1.a", "random#0", 1024, 3660, 0xdd140d840333d4b5, snap(3660, 12354, 3794, 3794, 36210, 3660, 1, 1374, 0, 73616), 118160),
    ("Q.Pers.1.a", "random#1", 7, 3660, 0x3e4c2da36196f809, snap(3660, 5514, 614, 614, 18585, 0, 0, 1374, 0, 28808), 114992),
    ("Q.Pers.1.a", "random#1", 1024, 3660, 0x3e4c2da36196f809, snap(3660, 5514, 614, 614, 18585, 0, 0, 1374, 0, 28808), 114992),
    ("Q.Pers.2.c", "DPP", 7, 4817, 0x75bbedc23fcc0e57, snap(4817, 7869, 906, 906, 1727, 0, 0, 2280, 0, 2392), 4672),
    ("Q.Pers.2.c", "DPP", 1024, 4817, 0x75bbedc23fcc0e57, snap(4817, 7869, 906, 906, 1727, 0, 0, 2280, 0, 2200), 4288),
    ("Q.Pers.2.c", "FP", 7, 4817, 0x75bbedc23fcc0e57, snap(4817, 7869, 906, 906, 1727, 0, 0, 2280, 0, 2392), 4672),
    ("Q.Pers.2.c", "FP", 1024, 4817, 0x75bbedc23fcc0e57, snap(4817, 7869, 906, 906, 1727, 0, 0, 2280, 0, 2200), 4288),
    ("Q.Pers.2.c", "random#0", 7, 4817, 0xf42712f661b317eb, snap(4817, 31371, 12271, 12271, 3363672, 12137, 3, 2280, 0, 248764), 535648),
    ("Q.Pers.2.c", "random#0", 1024, 4817, 0xf42712f661b317eb, snap(4817, 31371, 12271, 12271, 3363672, 12137, 3, 2280, 0, 240392), 516512),
    ("Q.Pers.2.c", "random#1", 7, 4817, 0xe32c8deff6118367, snap(4817, 20683, 8757, 8757, 18105, 4963, 2, 2280, 0, 174296), 347552),
    ("Q.Pers.2.c", "random#1", 1024, 4817, 0xe32c8deff6118367, snap(4817, 20683, 8757, 8757, 18105, 4963, 2, 2280, 0, 158584), 313120),
    ("Q.Pers.3.d", "DPP", 7, 110998, 0xded42eea5234e56f, snap(110998, 115139, 1849, 1849, 6088, 0, 0, 2414, 0, 20300), 46256),
    ("Q.Pers.3.d", "DPP", 1024, 110998, 0xded42eea5234e56f, snap(110998, 115139, 1849, 1849, 6088, 0, 0, 2414, 0, 17556), 39984),
    ("Q.Pers.3.d", "FP", 7, 110998, 0xded42eea5234e56f, snap(110998, 115139, 1849, 1849, 6088, 0, 0, 2414, 0, 20300), 46256),
    ("Q.Pers.3.d", "FP", 1024, 110998, 0xded42eea5234e56f, snap(110998, 115139, 1849, 1849, 6088, 0, 0, 2414, 0, 17556), 39984),
    ("Q.Pers.3.d", "random#0", 7, 110998, 0x0ebbe82236aa516b, snap(110998, 115139, 1849, 1849, 14710227, 0, 0, 2414, 0, 1981960), 7917568),
    ("Q.Pers.3.d", "random#0", 1024, 110998, 0x0ebbe82236aa516b, snap(110998, 115139, 1849, 1849, 14710227, 0, 0, 2414, 0, 1981960), 7917568),
    ("Q.Pers.3.d", "random#1", 7, 110998, 0xcd90a8584b8585c7, snap(110998, 423666, 206626, 206626, 12783789, 103762, 3, 2414, 0, 3189432), 7288128),
    ("Q.Pers.3.d", "random#1", 1024, 110998, 0xcd90a8584b8585c7, snap(110998, 423666, 206626, 206626, 12783789, 103762, 3, 2414, 0, 3189432), 7288128),
    ("Q.Pers.4.d", "DPP", 7, 62819, 0x93d238de35195851, snap(62819, 67229, 1995, 1995, 8148, 0, 0, 2414, 0, 23456), 46832),
    ("Q.Pers.4.d", "DPP", 1024, 62819, 0x93d238de35195851, snap(62819, 67229, 1995, 1995, 8148, 0, 0, 2414, 0, 17152), 34192),
    ("Q.Pers.4.d", "FP", 7, 62819, 0x93d238de35195851, snap(62819, 67229, 1995, 1995, 8148, 0, 0, 2414, 0, 23456), 46832),
    ("Q.Pers.4.d", "FP", 1024, 62819, 0x93d238de35195851, snap(62819, 67229, 1995, 1995, 8148, 0, 0, 2414, 0, 17152), 34192),
    ("Q.Pers.4.d", "random#0", 7, 62819, 0x6c6c9d4d828de33d, snap(62819, 67919, 2685, 2685, 15672136, 0, 0, 2414, 0, 1139848), 4539328),
    ("Q.Pers.4.d", "random#0", 1024, 62819, 0x6c6c9d4d828de33d, snap(62819, 67919, 2685, 2685, 15672136, 0, 0, 2414, 0, 1139848), 4539328),
    ("Q.Pers.4.d", "random#1", 7, 62819, 0x0bccd71a6d62b809, snap(62819, 161028, 63542, 63542, 3858969, 32387, 3, 2414, 0, 975264), 2222592),
    ("Q.Pers.4.d", "random#1", 1024, 62819, 0x0bccd71a6d62b809, snap(62819, 161028, 63542, 63542, 3858969, 32387, 3, 2414, 0, 975264), 2222592),
];

fn corpus(ds: DataSet) -> Database {
    let doc = match ds {
        DataSet::Mbench => mbench(GenConfig::sized(3_000)),
        DataSet::Dblp => dblp(GenConfig::sized(3_000)),
        DataSet::Pers => pers(GenConfig::sized(2_000)),
    };
    Database::from_document(doc)
}

fn digest(result: &sjos::QueryResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in result.tuples.iter() {
        for e in row.iter() {
            for b in e.node.0.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn literal((id, plan, batch, rows, digest, m, wide_peak): &Recorded) -> String {
    format!(
        "    (\"{id}\", \"{plan}\", {batch}, {rows}, {digest:#018x}, \
         snap({}, {}, {}, {}, {}, {}, {}, {}, {}, {}), {wide_peak}),",
        m.output_tuples,
        m.produced_tuples,
        m.stack_pushes,
        m.stack_pops,
        m.buffered_pairs,
        m.sorted_tuples,
        m.sort_operations,
        m.scanned_records,
        m.merge_rescans,
        m.peak_bytes,
    )
}

#[test]
fn table1_counters_match_the_recorded_run() {
    let mut actual = Vec::new();
    for ds in [DataSet::Mbench, DataSet::Dblp, DataSet::Pers] {
        let db = corpus(ds);
        for q in paper_queries().into_iter().filter(|q| q.dataset == ds) {
            let pattern = q.pattern();
            let optimized = |alg| db.optimize(&pattern, alg).unwrap().plan;
            let mut rng = StdRng::seed_from_u64(20);
            let plans: [(&str, PlanNode); 4] = [
                ("DPP", optimized(Algorithm::Dpp { lookahead: true })),
                ("FP", optimized(Algorithm::Fp)),
                ("random#0", random_plan(&pattern, &mut rng)),
                ("random#1", random_plan(&pattern, &mut rng)),
            ];
            for (name, plan) in &plans {
                for batch in [7, BATCH_ROWS] {
                    let run = |narrow| {
                        let opts = ExecOptions { batch_rows: batch, narrow, ..Default::default() };
                        db.execute(&pattern, plan, &opts)
                            .unwrap_or_else(|e| panic!("{} via {name}: {e}", q.id))
                    };
                    let (result, wide) = (run(true), run(false));
                    let at = format!("{} via {name} at batch_rows {batch}", q.id);
                    assert_eq!(result.tuples, wide.tuples, "{at}: narrowing changed the rows");
                    assert_eq!(digest(&result), digest(&wide), "{at}");
                    let peak = wide.metrics.peak_bytes;
                    assert!(result.metrics.peak_bytes <= peak, "{at}: narrowing raised the peak");
                    let same = MetricsSnapshot { peak_bytes: peak, ..result.metrics };
                    assert_eq!(same, wide.metrics, "{at}: narrowing changed a counter");
                    let rows = result.tuples.len();
                    actual.push((q.id, *name, batch, rows, digest(&result), result.metrics, peak));
                }
            }
        }
    }
    let text: Vec<String> = actual.iter().map(literal).collect();
    assert_eq!(actual.len(), RECORDED.len(), "recorded table:\n{}", text.join("\n"));
    for (got, want) in actual.iter().zip(RECORDED) {
        assert_eq!(got, want, "recorded table:\n{}", text.join("\n"));
        assert!(want.5.peak_bytes <= want.6, "narrow peak above the wide one: {}", literal(want));
    }
}
