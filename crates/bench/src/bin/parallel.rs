//! `parallel` — scaling and exactness of the morsel-driven parallel
//! structural join engine.
//!
//! Runs the Table 1 query set over folded corpora at 1/2/4/8 worker
//! threads. The 1-thread leg is the serial engine and the ground
//! truth: every multi-threaded run must reproduce its cardinality and
//! its eight exact work counters (output/produced tuples, stack
//! pushes/pops, buffered pairs, sorted tuples, scanned records, merge
//! rescans) to the bit, per the PL068 partition-sound contract. The
//! headline output is `BENCH_parallel.json`: per-query morsel counts,
//! median times, and speedups per thread count, plus per-dataset
//! geometric means at the widest configuration.
//!
//! Speedups here are honest wall-clock measurements on whatever
//! hardware runs the bench — on a single-CPU container the workers
//! time-slice one core and the speedup hovers near (or below) 1×; the
//! JSON records `cpus` so readers can tell. The correctness half of
//! the story (bit-identical answers and counters at every thread
//! count) is hardware-independent and is what `--smoke` gates.
//!
//! ```sh
//! cargo run --release -p sjos-bench --bin parallel             # full run
//! cargo run --release -p sjos-bench --bin parallel -- --smoke  # CI smoke
//! ```
//!
//! `--smoke` shrinks the corpora and exits nonzero unless at least
//! one query actually split into ≥ 2 morsels, zero runs disagreed
//! with the serial engine, and a speedup was recorded for every
//! (query, threads) cell. It leaves `BENCH_parallel.json` as it is.

use std::process::ExitCode;
use std::time::Duration;

use sjos_bench::{print_row, Bench};
use sjos_core::Algorithm;
use sjos_datagen::{
    dblp::dblp, fold_document, mbench::mbench, paper_queries, pers::pers, DataSet, GenConfig,
};
use sjos_exec::{ExecOptions, MetricsSnapshot};

/// Thread counts swept per query; the first entry must be 1 (serial
/// ground truth).
const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Args {
    smoke: bool,
    reps: usize,
    fold: usize,
    base_nodes: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { smoke: false, reps: 5, fold: 100, base_nodes: 20_000 };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--reps" => {
                args.reps = it
                    .next()
                    .ok_or("--reps needs a count")?
                    .parse()
                    .map_err(|_| "bad rep count")?;
            }
            "--fold" => {
                args.fold = it
                    .next()
                    .ok_or("--fold needs a factor")?
                    .parse()
                    .map_err(|_| "bad fold factor")?;
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    if args.smoke {
        args.reps = 2;
        args.fold = 10;
        args.base_nodes = 2_000;
    }
    if args.reps == 0 || args.fold == 0 {
        return Err("--reps and --fold must be at least 1".into());
    }
    Ok(args)
}

/// The eight exact counters PL068 demands sum bit-for-bit across
/// morsels (everything except the structural `sort_operations`, the
/// conservative `peak_bytes`, and the spill family, which the
/// parallel path never exercises).
fn exact_counters(m: &MetricsSnapshot) -> [u64; 8] {
    [
        m.output_tuples,
        m.produced_tuples,
        m.stack_pushes,
        m.stack_pops,
        m.buffered_pairs,
        m.sorted_tuples,
        m.scanned_records,
        m.merge_rescans,
    ]
}

/// One (thread count) measurement cell for a query.
struct Cell {
    threads: usize,
    morsels: usize,
    median_ms: f64,
    speedup: f64,
    mismatched: bool,
}

struct QueryRow {
    id: &'static str,
    dataset: &'static str,
    matches: u64,
    cells: Vec<Cell>,
}

fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: parallel [--smoke] [--reps <n>] [--fold <n>]");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "parallel bench: Table 1 queries, fold x{}, threads {THREADS:?}, {} reps, \
         {cpus} cpu(s){}",
        args.fold,
        args.reps,
        if args.smoke { " [smoke]" } else { "" }
    );

    // One folded corpus per data set, shared by its queries.
    let config = GenConfig::sized(args.base_nodes);
    let mut rows: Vec<QueryRow> = Vec::new();
    let mut mismatches = 0usize;
    let mut split_queries = 0usize;
    for ds in [DataSet::Mbench, DataSet::Dblp, DataSet::Pers] {
        eprintln!("loading {} at fold x{} ...", ds.name(), args.fold);
        let base = match ds {
            DataSet::Mbench => mbench(config),
            DataSet::Dblp => dblp(config),
            DataSet::Pers => pers(config),
        };
        let bench = Bench::load(fold_document(&base, args.fold));
        for q in paper_queries().into_iter().filter(|q| q.dataset == ds) {
            let pattern = q.pattern();
            let plan = bench.time_optimize(&pattern, Algorithm::Dpp { lookahead: true }, 1).0.plan;

            let mut cells: Vec<Cell> = Vec::new();
            let mut serial: Option<(u64, [u64; 8], f64)> = None;
            for threads in THREADS {
                let mut times = Vec::with_capacity(args.reps);
                let mut last = None;
                for _ in 0..args.reps {
                    let opts = ExecOptions { collect: false, threads, ..ExecOptions::default() };
                    let out = bench.run(&pattern, &plan, &opts);
                    times.push(out.result.elapsed);
                    last = Some(out);
                }
                let out = last.expect("reps >= 1");
                let ms = median_ms(&mut times);
                let counters = exact_counters(&out.result.metrics);
                let (_, serial_counters, serial_ms) =
                    *serial.get_or_insert((out.result.metrics.output_tuples, counters, ms));
                let mismatched = counters != serial_counters;
                if mismatched {
                    mismatches += 1;
                    eprintln!(
                        "MISMATCH {} @ {threads} threads: counters {counters:?} \
                         vs serial {serial_counters:?}",
                        q.id
                    );
                }
                if threads > 1 && out.morsel_count() > 1 {
                    split_queries += 1;
                }
                cells.push(Cell {
                    threads,
                    morsels: out.morsel_count(),
                    median_ms: ms,
                    speedup: if ms > 0.0 { serial_ms / ms } else { 1.0 },
                    mismatched,
                });
            }
            rows.push(QueryRow {
                id: q.id,
                dataset: ds.name(),
                matches: serial.expect("at least one thread count ran").0,
                cells,
            });
        }
    }

    let widths = [14usize, 8, 10, 8, 8, 10, 9];
    print_row(
        &[
            "query".into(),
            "dataset".into(),
            "matches".into(),
            "threads".into(),
            "morsels".into(),
            "median ms".into(),
            "speedup".into(),
        ],
        &widths,
    );
    for r in &rows {
        for c in &r.cells {
            print_row(
                &[
                    r.id.to_string(),
                    r.dataset.to_string(),
                    r.matches.to_string(),
                    c.threads.to_string(),
                    c.morsels.to_string(),
                    format!("{:.3}", c.median_ms),
                    format!("{:.2}x", c.speedup),
                ],
                &widths,
            );
        }
    }

    // Per-dataset geometric-mean speedup at the widest configuration.
    let widest = *THREADS.last().expect("THREADS is non-empty");
    let mut summary: Vec<(String, f64)> = Vec::new();
    for ds in ["Mbench", "DBLP", "Pers"] {
        let speedups: Vec<f64> = rows
            .iter()
            .filter(|r| r.dataset == ds)
            .flat_map(|r| &r.cells)
            .filter(|c| c.threads == widest)
            .map(|c| c.speedup)
            .collect();
        if speedups.is_empty() {
            continue;
        }
        let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
        println!(
            "{ds}: geometric-mean speedup {geomean:.2}x at {widest} threads \
             over {} queries",
            speedups.len()
        );
        summary.push((ds.to_string(), geomean));
    }

    if args.smoke {
        // The CI gate: partitioning must actually happen and must be
        // invisible; scaling numbers are recorded, not thresholded
        // (single-CPU runners cannot promise wall-clock speedup).
        if split_queries == 0 {
            eprintln!("SMOKE FAIL: no query ever split into more than one morsel");
            return ExitCode::FAILURE;
        }
        if mismatches > 0 {
            eprintln!("SMOKE FAIL: {mismatches} parallel runs disagreed with the serial engine");
            return ExitCode::FAILURE;
        }
        let cells = rows.iter().map(|r| r.cells.len()).sum::<usize>();
        let expected = rows.len() * THREADS.len();
        if cells != expected {
            eprintln!("SMOKE FAIL: {cells} measurement cells recorded, expected {expected}");
            return ExitCode::FAILURE;
        }
        println!(
            "smoke ok: {split_queries} multi-morsel runs, 0 mismatches, \
             {cells} speedup cells recorded"
        );
        return ExitCode::SUCCESS;
    }

    let json = render_json(&args, cpus, &rows, &summary, widest);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} parallel runs disagreed with the serial engine");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Hand-rolled JSON (the workspace deliberately carries no serde):
/// every value is a number or a string with no escapes needed.
fn render_json(
    args: &Args,
    cpus: usize,
    rows: &[QueryRow],
    summary: &[(String, f64)],
    widest: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"parallel\",\n  \"fold\": {},\n  \"reps\": {},\n  \"cpus\": {cpus},\n",
        args.fold, args.reps
    ));
    out.push_str(&format!("  \"threads\": [{}],\n", THREADS.map(|t| t.to_string()).join(", ")));
    out.push_str(
        "  \"command\": \"cargo run --release -p sjos-bench --bin parallel\",\n  \"queries\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"dataset\": \"{}\", \"matches\": {}, \"runs\": [",
            r.id, r.dataset, r.matches
        ));
        for (j, c) in r.cells.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"threads\": {}, \"morsels\": {}, \"median_ms\": {:.3}, \
                 \"speedup\": {:.3}, \"exact\": {}}}",
                if j == 0 { "" } else { ", " },
                c.threads,
                c.morsels,
                c.median_ms,
                c.speedup,
                !c.mismatched
            ));
        }
        out.push_str(&format!("]}}{}\n", if i + 1 == rows.len() { "" } else { "," }));
    }
    out.push_str(&format!("  ],\n  \"geomean_speedup_at_{widest}_threads\": {{\n"));
    for (i, (ds, s)) in summary.iter().enumerate() {
        out.push_str(&format!(
            "    \"{ds}\": {s:.3}{}\n",
            if i + 1 == summary.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}
