//! `sjos-cli` — an interactive shell over the sjos engine.
//!
//! ```sh
//! # load an XML file
//! cargo run --release --bin sjos-cli -- data.xml
//! # or generate a corpus in-process
//! cargo run --release --bin sjos-cli -- --gen pers:20000
//! ```
//!
//! Then type tree-pattern queries (`//manager//employee/name`) or
//! commands (`\help`).

use std::io::{BufRead, Write};
use std::sync::Arc;

use sjos::datagen::{dblp::dblp, fold_document, mbench::mbench, pers::pers, GenConfig};
use sjos::explain::{analyze_summary, explain};
use sjos::{Algorithm, Database, Document, QueryService, ServiceConfig};

struct Session {
    db: Arc<Database>,
    algorithm: Algorithm,
    limit: usize,
    /// Lazily started concurrent query service sharing `db` (the
    /// `\service` command).
    service: Option<(QueryService, sjos::service::Session)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let db = match load(&args) {
        Ok(db) => db,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: sjos-cli <file.xml> | --gen pers:<n>|dblp:<n>|mbench:<n> [--fold <k>]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "loaded {} elements, {} distinct tags. \\help for commands.",
        db.document().len(),
        db.document().tags().len()
    );
    let mut session = Session {
        db: Arc::new(db),
        algorithm: Algorithm::Dpp { lookahead: true },
        limit: 10,
        service: None,
    };
    let stdin = std::io::stdin();
    loop {
        print!("sjos> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        dispatch(&mut session, line);
    }
}

fn load(args: &[String]) -> Result<Database, String> {
    let mut file: Option<&str> = None;
    let mut gen: Option<&str> = None;
    let mut fold: usize = 1;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gen" => gen = Some(it.next().ok_or("--gen needs a spec")?),
            "--fold" => {
                fold = it
                    .next()
                    .ok_or("--fold needs a factor")?
                    .parse()
                    .map_err(|_| "bad fold factor")?;
            }
            other => file = Some(other),
        }
    }
    let doc: Document = match (file, gen) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Document::parse(&text).map_err(|e| e.to_string())?
        }
        (None, Some(spec)) => {
            let (kind, n) = spec.split_once(':').ok_or("gen spec is kind:count")?;
            let n: usize = n.parse().map_err(|_| "bad node count")?;
            let config = GenConfig::sized(n);
            match kind {
                "pers" => pers(config),
                "dblp" => dblp(config),
                "mbench" => mbench(config),
                other => return Err(format!("unknown generator {other}")),
            }
        }
        _ => return Err("provide exactly one of <file.xml> or --gen".into()),
    };
    let doc = if fold > 1 { fold_document(&doc, fold) } else { doc };
    Ok(Database::from_document(doc))
}

fn dispatch(session: &mut Session, line: &str) {
    if let Some(rest) = line.strip_prefix('\\') {
        command(session, rest);
    } else {
        run_query(session, line, Mode::Query);
    }
}

fn command(session: &mut Session, rest: &str) {
    let (cmd, arg) = match rest.split_once(' ') {
        Some((c, a)) => (c, a.trim()),
        None => (rest, ""),
    };
    match cmd {
        "help" => {
            println!(
                "\\algo <algorithm>                        choose the optimizer (now: {})\n\
                 \\explain <query>                         show the chosen plan\n\
                 \\analyze <query>                         plan + execution counters\n\
                 \\holistic <query>                        evaluate with the TwigStack twig join\n\
                 \\calibrate                               measure cost factors on this machine\n\
                 \\service <query>                         serve via the admission-controlled service\n\
                 \\service                                 print service metrics as JSON\n\
                 \\stats                                   tag cardinalities\n\
                 \\limit <n>                               rows to print (now: {})\n\
                 \\quit                                    exit\n\
                 algorithms: {}",
                session.algorithm.name(),
                session.limit,
                Algorithm::SPELLINGS
            );
        }
        "algo" => match arg.parse::<Algorithm>() {
            Ok(a) => {
                session.algorithm = a;
                println!("optimizer: {}", a.name());
            }
            Err(e) => println!("{e}"),
        },
        "limit" => match arg.parse::<usize>() {
            Ok(n) => session.limit = n,
            Err(_) => println!("bad limit {arg:?}"),
        },
        "stats" => {
            let doc = session.db.document();
            let mut tags: Vec<(String, u64)> = doc
                .tags()
                .iter()
                .map(|(t, name)| (name.to_owned(), session.db.catalog().cardinality(t)))
                .collect();
            tags.sort_by_key(|t| std::cmp::Reverse(t.1));
            for (name, card) in tags {
                println!("{card:>10}  {name}");
            }
        }
        "explain" => run_query(session, arg, Mode::Explain),
        "analyze" => run_query(session, arg, Mode::Analyze),
        "calibrate" => {
            let report = sjos::core::calibrate(session.db.store(), 20_000, 5);
            let f = report.factors;
            println!(
                "measured over {} elements: f_I={:.3} f_s={:.3} f_IO={:.3} f_st={:.3} \
                 (ns/unit: {:.1}/{:.1}/{:.1}/{:.1})",
                report.sample_size,
                f.f_i,
                f.f_s,
                f.f_io,
                f.f_st,
                report.nanos_per_unit[0],
                report.nanos_per_unit[1],
                report.nanos_per_unit[3],
                report.nanos_per_unit[2],
            );
            println!("(factors are informational; restart with Database::with_calibrated_model to apply)");
        }
        "service" => {
            let (service, svc_session) = session.service.get_or_insert_with(|| {
                let service = QueryService::new(Arc::clone(&session.db), ServiceConfig::default());
                let svc_session = service.session();
                (service, svc_session)
            });
            if arg.is_empty() {
                println!("{}", service.metrics_json());
            } else {
                match svc_session.query_with(arg, session.algorithm) {
                    Ok(out) => {
                        let mode = if out.degraded {
                            format!(
                                " | DEGRADED: spilled {} runs ({} B, {} merge passes)",
                                out.result.metrics.spilled_runs,
                                out.result.metrics.spilled_bytes,
                                out.result.metrics.spill_merge_passes,
                            )
                        } else {
                            String::new()
                        };
                        println!(
                            "{} rows | cache {} | waited {:.3} ms | certified {} B, measured {} B \
                             | {} disk reads, {} buffer hits (this query){mode}",
                            out.result.len(),
                            if out.cache_hit { "hit" } else { "miss" },
                            out.waited.as_secs_f64() * 1e3,
                            out.plan.bounds.peak_bytes,
                            out.result.metrics.peak_bytes,
                            out.io.disk_reads,
                            out.io.buffer_hits,
                        );
                    }
                    Err(e) => println!("service error: {e}"),
                }
            }
        }
        "holistic" => match sjos::parse_pattern(arg) {
            Ok(pattern) => {
                let t0 = std::time::Instant::now();
                match session.db.holistic(&pattern) {
                    Ok(res) => println!(
                        "holistic twig join: {} matches in {:.3} ms \
                         ({} stream elements, {} path solutions, {} pushes)",
                        res.metrics.matches,
                        t0.elapsed().as_secs_f64() * 1e3,
                        res.metrics.stream_elements,
                        res.metrics.path_solutions,
                        res.metrics.stack_pushes,
                    ),
                    Err(e) => println!("holistic evaluation failed: {e}"),
                }
            }
            Err(e) => println!("{e}"),
        },
        other => println!("unknown command \\{other} (try \\help)"),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Plan only — no execution.
    Explain,
    /// Plan + execution counters, no rows.
    Analyze,
    /// Plan + counters + rows.
    Query,
}

fn run_query(session: &Session, query: &str, mode: Mode) {
    if query.is_empty() {
        println!("empty query");
        return;
    }
    let pattern = match sjos::parse_pattern(query) {
        Ok(p) => p,
        Err(e) => {
            println!("{e}");
            return;
        }
    };
    let optimized = match session.db.optimize(&pattern, session.algorithm) {
        Ok(o) => o,
        Err(e) => {
            println!("optimization failed: {e}");
            return;
        }
    };
    let est = session.db.estimates(&pattern);
    println!(
        "-- {} | {:.3} ms | {} plans considered",
        session.algorithm.name(),
        optimized.stats.elapsed.as_secs_f64() * 1e3,
        optimized.stats.plans_considered
    );
    print!("{}", explain(&optimized.plan, &pattern, &est, session.db.cost_model()));
    if mode == Mode::Explain {
        return;
    }
    match session.db.execute(&pattern, &optimized.plan, &sjos::ExecOptions::default()) {
        Ok(result) => {
            println!("{}", analyze_summary(&result));
            if mode == Mode::Query {
                let doc = session.db.document();
                for row in result.canonical_rows().iter().take(session.limit) {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|&id| {
                            let node = doc.node(id);
                            let tag = doc.tag_name(node.tag);
                            let text = node.text.trim();
                            if text.is_empty() {
                                format!("{tag}@{}", doc.region(id).start)
                            } else {
                                format!("{tag}={text}")
                            }
                        })
                        .collect();
                    println!("  {}", cells.join(" | "));
                }
                if result.len() > session.limit {
                    println!("  ... {} more", result.len() - session.limit);
                }
            }
        }
        Err(e) => println!("execution error: {e}"),
    }
}
