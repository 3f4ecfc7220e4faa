//! The sjos benchmark: closed-loop workloads through the real
//! `sjos::QueryService` path.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload twice, each for half of `--seconds`: once untraced and
//! once through a rebuild of the service's serve path with a span
//! around every layer call, and reports the per-layer metrics. Spans
//! and the per-layer table are written under `perfbench/out/`.
//!
//! Every run checks its answers against the holistic twig join, the
//! certified memory bounds, and leaked temp pages. The last line of
//! standard output is one JSON object; on a failed check the process
//! prints it with `"correct": false` and exits with status 1.

mod drive;
mod trace;
mod util;
mod workloads;

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use sjos::QueryService;

use crate::drive::{Class, LoopRun};
use crate::util::{json_num, json_str, metric, ratio, Metric};
use crate::workloads::{Corpus, Kind, StreamSource};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1, 30.0_f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { kind, seed, seconds, trace })
}

/// The outcome of the checks that make a run's numbers trustworthy.
#[derive(Default)]
struct Verdict {
    problems: Vec<String>,
    /// Engine errors plus wrong answers.
    failed: usize,
}

impl Verdict {
    fn check_loop(&mut self, run: &LoopRun) {
        for c in &run.clients {
            self.failed += c.errors.len();
            self.problems.extend(c.errors.iter().map(|e| format!("engine error: {e}")));
        }
        let degraded = run.records().filter(|r| r.degraded).count();
        if degraded > 0 {
            self.problems.push(format!("{degraded} queries ran degraded; spill is not a workload"));
        }
    }

    fn check_answers(&mut self, corpora: &[Corpus], runs: &[&LoopRun]) {
        let wrong = drive::gate(corpora, runs);
        self.failed += wrong.len();
        self.problems.extend(wrong.into_iter().map(|w| format!("wrong answer: {w}")));
        for c in corpora {
            let live = c.db.store().spill().live_pages();
            if live != 0 {
                self.problems.push(format!("{}: {live} leaked temp pages", c.name));
            }
        }
    }
}

fn reset_pools(corpora: &[Corpus]) -> Result<(), String> {
    for c in corpora {
        c.db.store().pool().reset_cache().map_err(|e| format!("{}: {e}", c.name))?;
    }
    Ok(())
}

fn served_frac(run: &LoopRun) -> f64 {
    ratio(run.completed() as f64, run.attempted() as f64)
}

fn run(args: &Args, verdict: &mut Verdict) -> Result<(Vec<Metric>, usize), String> {
    let kind = args.kind;
    let (corpora, setup) = workloads::set_up(kind, args.trace)?;
    for c in &corpora {
        eprintln!(
            "{}: {} elements, {} pages ({} pool frames)",
            c.name,
            c.db.document().len(),
            c.db.store().total_pages(),
            c.db.store().pool().capacity()
        );
    }
    let source = StreamSource::new(kind, args.seed, &corpora)?;
    let services: Vec<QueryService> = corpora
        .iter()
        .map(|c| QueryService::new(Arc::clone(&c.db), kind.service_config()))
        .collect();
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let duration = Duration::from_secs_f64(seconds);

    reset_pools(&corpora)?;
    let rss_reset = util::reset_peak_rss();
    let untraced = drive::untraced(kind.clients(), &source, duration, &services);
    let peak_rss = util::peak_rss_mb();
    if !rss_reset {
        eprintln!("warning: peak RSS could not be reset; it covers set-up too");
    }
    verdict.check_loop(&untraced);
    report_refusals(&untraced);
    for s in &services {
        let violations = s.metrics().bound_violations.load(Ordering::Relaxed);
        if violations > 0 {
            verdict.problems.push(format!("{violations} bound violations in the service"));
        }
    }

    if !args.trace {
        verdict.check_answers(&corpora, &[&untraced]);
        eprintln!(
            "{}: {} attempted, {} completed in {:.2} s",
            kind.name(),
            untraced.attempted(),
            untraced.completed(),
            untraced.wall.as_secs_f64()
        );
        let metrics = vec![
            metric("setup_s", setup.setup_s(), "s"),
            metric("qps", untraced.qps(), "1/s"),
            metric("lat_p50_ms", untraced.latency_ms(0.5), "ms"),
            metric("lat_p90_ms", untraced.latency_ms(0.9), "ms"),
            metric("served_frac", served_frac(&untraced), "frac"),
            metric("peak_rss_mb", peak_rss, "MiB"),
        ];
        return Ok((metrics, untraced.attempted()));
    }

    let traced_services: Vec<_> = corpora
        .iter()
        .map(|c| trace::TracedService::new(Arc::clone(&c.db), kind.service_config()))
        .collect();
    reset_pools(&corpora)?;
    let (traced, clients) = trace::traced(kind.clients(), &source, duration, &traced_services);
    verdict.check_loop(&traced);
    let violations: u64 = clients.iter().map(|c| c.bound_violations).sum();
    if violations > 0 {
        verdict.problems.push(format!("{violations} measured peaks above their certificates"));
    }
    compare_runs(kind, &untraced, &traced, verdict);
    let probes = trace::probe(&corpora, &traced, &clients)?;
    verdict.check_answers(&corpora, &[&untraced, &traced]);

    let metrics =
        trace::layer_metrics(&untraced, &traced, &clients, &traced_services, &probes, &setup);
    write_trace_files(args, &clients, &metrics)?;
    Ok((metrics, untraced.attempted() + traced.attempted()))
}

/// Print which queries admission refused, how often, and the
/// certificate it refused.
fn report_refusals(run: &LoopRun) {
    let mut refused: std::collections::BTreeMap<_, (usize, u64)> = Default::default();
    for r in run.records() {
        if let Class::Refused(reason) = r.class {
            let e = refused.entry((r.request.text.clone(), format!("{reason:?}"))).or_default();
            *e = (e.0 + 1, r.certified);
        }
    }
    for ((text, reason), (n, certified)) in refused {
        eprintln!(
            "refused {reason}: {text} ({n} of {} requests, certified {certified} B)",
            run.attempted()
        );
    }
}

/// The traced rebuild must do what the service does: the same
/// outcome for every query, and on one client the same buffer hits
/// and disk reads request by request.
fn compare_runs(kind: Kind, untraced: &LoopRun, traced: &LoopRun, verdict: &mut Verdict) {
    let classes = |run: &LoopRun| {
        let mut m = std::collections::HashMap::new();
        for r in run.records() {
            m.entry(r.request.signature().1.to_string()).or_insert(r.class);
        }
        m
    };
    let (a, b) = (classes(untraced), classes(traced));
    for (text, class) in &b {
        if let Some(other) = a.get(text) {
            if other != class && !matches!((other, class), (Class::Refused(_), Class::Refused(_))) {
                verdict.problems.push(format!("{text}: {other:?} untraced, {class:?} traced"));
            }
        }
    }
    if kind.clients() == 1 {
        let pairs = untraced.clients[0].records.iter().zip(&traced.clients[0].records);
        for (i, (u, t)) in pairs.enumerate() {
            if (u.io.buffer_hits, u.io.disk_reads) != (t.io.buffer_hits, t.io.disk_reads) {
                verdict.problems.push(format!(
                    "request {i}: untraced {} hits / {} reads, traced {} hits / {} reads",
                    u.io.buffer_hits, u.io.disk_reads, t.io.buffer_hits, t.io.disk_reads
                ));
                break;
            }
        }
    }
}

fn write_trace_files(
    args: &Args,
    clients: &[trace::TracedClient],
    metrics: &[Metric],
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.kind.name(), args.seed);
    let mut table = String::new();
    for m in metrics {
        table.push_str(&format!("{:<40} {:>16.6} {}\n", m.name, m.value, m.unit));
    }
    eprint!("{table}");
    for (name, body) in [
        (format!("{stem}-spans.jsonl"), trace::spans_jsonl(clients)),
        (format!("{stem}-layers.txt"), table),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    eprintln!("spans and layer table in {}", dir.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-mix|adhoc-twigs|scan-bound> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut verdict = Verdict::default();
    let (metrics, attempted) = match run(&args, &mut verdict) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &verdict.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = verdict.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            println!("{} {} {}", m.name, json_num(m.value), m.unit);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
