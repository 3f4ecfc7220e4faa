//! Before/after benchmark for the vectorized engine: runs the Table 1
//! query set with the engine forced to `batch_rows = 1` (exactly the
//! tuple-at-a-time pull loop this codebase used before vectorization)
//! and at the production [`sjos_exec::BATCH_ROWS`] granularity, checks
//! that batching changed nothing observable (result cardinalities and
//! stack push/pop counts are bit-identical), and writes a
//! machine-readable comparison to `BENCH_pipeline.json` at the repo
//! root.
//!
//! ```sh
//! cargo run --release -p sjos-bench --bin pipeline
//! SJOS_BENCH_FULL=1 cargo run --release -p sjos-bench --bin pipeline
//! cargo run --release -p sjos-bench --bin pipeline -- --threads 4
//! ```
//!
//! `--threads <n>` (or `SJOS_BENCH_THREADS`; the flag wins) runs both
//! granularities through the morsel-partitioned parallel engine at
//! `n` workers — the invisibility contract must hold there too, and
//! the thread count is recorded in the JSON.
//!
//! Exit status is non-zero if any query's batched run disagrees with
//! the tuple-at-a-time run on cardinality or stack traffic.

use std::process::ExitCode;
use std::time::Duration;

use sjos_bench::{corpus_override, print_row, threads_override, CorpusCache};
use sjos_core::Algorithm;
use sjos_datagen::paper_queries;
use sjos_exec::{ExecOptions, BATCH_ROWS};

/// Repetitions per (query, granularity); the median is reported.
const REPS: usize = 5;

struct Row {
    id: &'static str,
    dataset: &'static str,
    matches: u64,
    stack_pushes: u64,
    stack_pops: u64,
    peak_bytes: u64,
    tuple_ms: f64,
    batched_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.batched_ms > 0.0 {
            self.tuple_ms / self.batched_ms
        } else {
            1.0
        }
    }
}

fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let override_doc = match corpus_override() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = match threads_override() {
        Ok(t) => t.unwrap_or(1),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("pipeline: tuple-at-a-time (batch_rows=1) vs vectorized (batch_rows={BATCH_ROWS})");
    println!(
        "scale: {} (set SJOS_BENCH_FULL=1 for paper sizes), {REPS} reps, median, \
         {threads} thread(s)\n",
        if sjos_bench::full_scale() { "paper" } else { "reduced" }
    );

    let mut cache = CorpusCache::with_override(override_doc);
    let mut rows: Vec<Row> = Vec::new();
    let mut mismatches = 0usize;

    for q in paper_queries() {
        let pattern = q.pattern();
        let bench = cache.bench(&q);
        let plan = bench.time_optimize(&pattern, Algorithm::Dpp { lookahead: true }, 1).0.plan;

        let run = |batch_rows: usize| {
            let mut times = Vec::with_capacity(REPS);
            let mut last = None;
            for _ in 0..REPS {
                let opts =
                    ExecOptions { collect: false, batch_rows, threads, ..ExecOptions::default() };
                let r = bench.run(&pattern, &plan, &opts).result;
                times.push(r.elapsed);
                last = Some(r);
            }
            (median_ms(&mut times), last.expect("REPS >= 1"))
        };
        let (tuple_ms, tuple_run) = run(1);
        let (batched_ms, batched_run) = run(BATCH_ROWS);

        // Batching must be invisible: same answer, same join work.
        let tm = &tuple_run.metrics;
        let bm = &batched_run.metrics;
        if tm.output_tuples != bm.output_tuples
            || tm.stack_pushes != bm.stack_pushes
            || tm.stack_pops != bm.stack_pops
        {
            eprintln!(
                "MISMATCH {}: tuple run {}t {}push/{}pop, batched run {}t {}push/{}pop",
                q.id,
                tm.output_tuples,
                tm.stack_pushes,
                tm.stack_pops,
                bm.output_tuples,
                bm.stack_pushes,
                bm.stack_pops
            );
            mismatches += 1;
        }
        rows.push(Row {
            id: q.id,
            dataset: q.dataset.name(),
            matches: bm.output_tuples,
            stack_pushes: bm.stack_pushes,
            stack_pops: bm.stack_pops,
            peak_bytes: bm.peak_bytes,
            tuple_ms,
            batched_ms,
        });
    }

    let widths = [14usize, 8, 10, 12, 12, 9];
    print_row(
        &[
            "query".into(),
            "dataset".into(),
            "matches".into(),
            "tuple (ms)".into(),
            "batch (ms)".into(),
            "speedup".into(),
        ],
        &widths,
    );
    for r in &rows {
        print_row(
            &[
                r.id.to_string(),
                r.dataset.to_string(),
                r.matches.to_string(),
                format!("{:.3}", r.tuple_ms),
                format!("{:.3}", r.batched_ms),
                format!("{:.2}x", r.speedup()),
            ],
            &widths,
        );
    }

    let mut summary: Vec<(String, f64)> = Vec::new();
    for ds in ["Mbench", "DBLP", "Pers"] {
        let speedups: Vec<f64> =
            rows.iter().filter(|r| r.dataset == ds).map(Row::speedup).collect();
        if speedups.is_empty() {
            continue;
        }
        let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
        println!("{ds}: geometric-mean speedup {geomean:.2}x over {} queries", speedups.len());
        summary.push((ds.to_string(), geomean));
    }

    let json = render_json(&rows, &summary, threads);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("error: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} queries disagreed between granularities");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Hand-rolled JSON (the workspace deliberately carries no serde):
/// every value is a number or a string with no escapes needed.
fn render_json(rows: &[Row], summary: &[(String, f64)], threads: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"batch_rows\": {BATCH_ROWS},\n  \"reps\": {REPS},\n  \
         \"threads\": {threads},\n",
        if sjos_bench::full_scale() { "paper" } else { "reduced" }
    ));
    out.push_str("  \"command\": \"cargo run --release -p sjos-bench --bin pipeline\",\n");
    out.push_str("  \"queries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"dataset\": \"{}\", \"matches\": {}, \
             \"stack_pushes\": {}, \"stack_pops\": {}, \"peak_bytes\": {}, \
             \"tuple_at_a_time_ms\": {:.3}, \
             \"batched_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            r.id,
            r.dataset,
            r.matches,
            r.stack_pushes,
            r.stack_pops,
            r.peak_bytes,
            r.tuple_ms,
            r.batched_ms,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"geomean_speedup\": {\n");
    for (i, (ds, s)) in summary.iter().enumerate() {
        out.push_str(&format!(
            "    \"{ds}\": {s:.3}{}\n",
            if i + 1 == summary.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}
