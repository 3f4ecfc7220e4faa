//! `planlint` — static analysis of structural-join plans.
//!
//! Optimizes a tree-pattern query (or corrupts the plan on request),
//! then lints the plan against the `planck` rule set without executing
//! it, printing the annotated plan and a diagnostic report:
//!
//! ```sh
//! # lint the DPP plan for a query against a generated corpus
//! cargo run --bin planlint -- --gen pers:5000 --query '//manager//employee/name'
//! # prove the linter catches a seeded bug
//! cargo run --bin planlint -- --query '//a/b/c' --mutate flip-axis
//! # optimizer cross-checks (DPP==DP, FP optimality, ubCost shape)
//! cargo run --bin planlint -- --query '//a/b/c' --cross
//! # order-property dataflow: prove the FP plan pipeline-safe statically
//! cargo run --bin planlint -- dataflow --query '//a/b/c' --algo fp
//! # record a DPP search trace and certify its admissibility
//! cargo run --bin planlint -- certify --gen pers:5000 --query '//manager//employee'
//! # prove the certifier rejects doctored evidence
//! cargo run --bin planlint -- certify --query '//a/b/c' --corrupt inflate-ubcost
//! # static admission control: certify the plan fits a memory budget
//! cargo run --bin planlint -- admit --query '//a/b/c' --memory-budget 64MiB --json
//! # the machine-readable rule catalog
//! cargo run --bin planlint -- rules --json
//! # the full battery: mutations, dataflow, certification, bounds
//! cargo run --bin planlint -- --query '//a/b/c' --selftest
//! ```
//!
//! `--json` switches any mode's report to machine-readable JSON (rule
//! id, severity, plan node path, message) for CI annotation.
//!
//! Exit status: 0 when clean, 1 when any rule fired, 2 on usage
//! errors.

use sjos::core::{mutate_plan, Algorithm, PlanMutation, TraceEvent};
use sjos::datagen::{dblp::dblp, mbench::mbench, pers::pers, GenConfig};
use sjos::explain::explain;
use sjos::service::models::{healthy_models, mutated_models};
use sjos::{Database, Document, ExecOptions, QueryGuard};
use sjos_planck::{
    admit, analyze_plan, apply_static_mutation, certify_trace, collect_sources, corrupt_trace,
    explore, lint_bounds, lint_dataflow, lint_error_surfacing, lint_optimizers, lint_plan_with,
    lint_replayed, lint_sources, record_search_trace, replay, rule_catalog_json, ExploreConfig,
    PlanExpectations, Report, Rule, StaticMutation, TraceCorruption, DEFAULT_MEMORY_BUDGET,
};

/// Fallback document when neither `--xml` nor `--gen` is given: big
/// enough that the optimizers make non-trivial choices.
const SAMPLE: &str = "<a>\
    <b><c>x</c><c>y</c><e/></b>\
    <b><c>z</c><e/></b>\
    <b><c/></b>\
    <d><e/><e/></d>\
    <d><e/></d>\
</a>";

/// Which analysis mode to run (leading positional argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Structural lint + dynamic cross-check (the default).
    Lint,
    /// Order-property dataflow only (PL040–PL043).
    Dataflow,
    /// Record and certify a search trace (PL050–PL053).
    Certify,
    /// Resource-bound admission control (PL060–PL064).
    Admit,
    /// Print the rule catalog (no plan needed).
    Rules,
    /// Concurrency certification: the static pass (PL070–PL075) plus
    /// the bounded interleaving explorer (PL076). Needs no plan.
    Conc,
}

struct Options {
    command: Command,
    xml: Option<String>,
    gen: Option<String>,
    query: String,
    algo: String,
    mutate: Option<String>,
    corrupt: Option<String>,
    cross: bool,
    selftest: bool,
    json: bool,
    memory_budget: Option<u64>,
    batch_budget: Option<u64>,
    batch_rows: usize,
    root: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: planlint [dataflow|certify|admit|rules|conc] \
                 [--xml <file> | --gen pers:<n>|dblp:<n>|mbench:<n>] \
                 --query <pattern> [--algo {}] \
                 [--mutate <mutation>] [--corrupt {}] \
                 [--memory-budget <bytes|KiB|MiB|GiB>] [--batch-budget <pulls>] \
                 [--batch-rows <n>] [--root <dir>] \
                 [--cross] [--selftest] [--json]",
                Algorithm::SPELLINGS,
                TraceCorruption::ALL.map(TraceCorruption::name).join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(clean) => std::process::exit(if clean { 0 } else { 1 }),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: Command::Lint,
        xml: None,
        gen: None,
        query: String::new(),
        algo: "dpp".to_string(),
        mutate: None,
        corrupt: None,
        cross: false,
        selftest: false,
        json: false,
        memory_budget: None,
        batch_budget: None,
        batch_rows: sjos::exec::BATCH_ROWS,
        root: None,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        match first.as_str() {
            "dataflow" => {
                opts.command = Command::Dataflow;
                it.next();
            }
            "certify" => {
                opts.command = Command::Certify;
                it.next();
            }
            "admit" => {
                opts.command = Command::Admit;
                it.next();
            }
            "rules" => {
                opts.command = Command::Rules;
                it.next();
            }
            "conc" => {
                opts.command = Command::Conc;
                it.next();
            }
            _ => {}
        }
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--xml" => opts.xml = Some(it.next().ok_or("--xml needs a file")?.clone()),
            "--gen" => opts.gen = Some(it.next().ok_or("--gen needs a spec")?.clone()),
            "--query" => opts.query = it.next().ok_or("--query needs a pattern")?.clone(),
            "--algo" => opts.algo = it.next().ok_or("--algo needs a name")?.clone(),
            "--mutate" => opts.mutate = Some(it.next().ok_or("--mutate needs a name")?.clone()),
            "--corrupt" => opts.corrupt = Some(it.next().ok_or("--corrupt needs a kind")?.clone()),
            "--cross" => opts.cross = true,
            "--selftest" => opts.selftest = true,
            "--json" => opts.json = true,
            "--memory-budget" => {
                let spec = it.next().ok_or("--memory-budget needs a size")?;
                opts.memory_budget = Some(parse_size(spec)?);
            }
            "--batch-budget" => {
                let n = it.next().ok_or("--batch-budget needs a count")?;
                opts.batch_budget = Some(n.parse().map_err(|_| "bad batch budget")?);
            }
            "--batch-rows" => {
                let n = it.next().ok_or("--batch-rows needs a count")?;
                let n: usize = n.parse().map_err(|_| "bad batch rows")?;
                if n == 0 {
                    return Err("--batch-rows must be at least 1".into());
                }
                opts.batch_rows = n;
            }
            "--root" => opts.root = Some(it.next().ok_or("--root needs a directory")?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.query.is_empty() && !matches!(opts.command, Command::Rules | Command::Conc) {
        return Err("--query is required".into());
    }
    if opts.root.is_some() && opts.command != Command::Conc {
        return Err("--root only applies to the conc command".into());
    }
    if opts.corrupt.is_some() && opts.command != Command::Certify {
        return Err("--corrupt only applies to the certify command".into());
    }
    if opts.mutate.is_some() && opts.command == Command::Certify {
        return Err("certify records a fresh search trace; --mutate does not apply".into());
    }
    if (opts.memory_budget.is_some() || opts.batch_budget.is_some())
        && opts.command != Command::Admit
    {
        return Err("budget flags only apply to the admit command".into());
    }
    Ok(opts)
}

/// Parse a byte size: a bare number of bytes, or a number suffixed
/// with `B`, `KiB`, `MiB`, or `GiB` (binary units).
fn parse_size(spec: &str) -> Result<u64, String> {
    let (digits, unit): (&str, u64) = if let Some(n) = spec.strip_suffix("GiB") {
        (n, 1024 * 1024 * 1024)
    } else if let Some(n) = spec.strip_suffix("MiB") {
        (n, 1024 * 1024)
    } else if let Some(n) = spec.strip_suffix("KiB") {
        (n, 1024)
    } else if let Some(n) = spec.strip_suffix('B') {
        (n, 1)
    } else {
        (spec, 1)
    };
    let n: u64 = digits.trim().parse().map_err(|_| format!("bad size {spec}"))?;
    n.checked_mul(unit).ok_or_else(|| format!("size {spec} overflows"))
}

fn load(opts: &Options) -> Result<Database, String> {
    let doc: Document = match (&opts.xml, &opts.gen) {
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
        (None, None) => Document::parse(SAMPLE).expect("sample parses"),
        _ => return Err("provide at most one of --xml and --gen".into()),
    };
    Ok(Database::from_document(doc))
}

/// Print `report` in the selected format and return its cleanliness.
fn finish(opts: &Options, report: &Report) -> bool {
    if opts.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    report.is_clean()
}

fn run(opts: &Options) -> Result<bool, String> {
    if opts.command == Command::Rules {
        return run_rules(opts);
    }
    if opts.command == Command::Conc {
        return run_conc(opts);
    }
    let db = load(opts)?;
    let pattern = sjos::parse_pattern(&opts.query).map_err(|e| e.to_string())?;
    let estimates = db.estimates(&pattern);
    let model = *db.cost_model();

    if opts.selftest {
        return selftest(&db, &pattern);
    }
    if opts.command == Command::Certify {
        return run_certify(opts, &pattern, &estimates, &model);
    }
    if opts.command == Command::Admit {
        return run_admit(opts, &db, &pattern);
    }

    let algorithm: Algorithm = opts.algo.parse()?;
    let mut expect = PlanExpectations::of(algorithm);
    let optimized = db.optimize(&pattern, algorithm).map_err(|e| e.to_string())?;
    let mut plan = optimized.plan;
    if let Some(name) = &opts.mutate {
        let mutation: PlanMutation = name.parse()?;
        plan = mutate_plan(&pattern, &plan, mutation)
            .ok_or_else(|| format!("mutation {name} does not apply to this plan"))?;
        if mutation == PlanMutation::WrapRootSort {
            // The mutated plan is only wrong *as* an FP claim.
            expect.fully_pipelined = true;
        }
        if !opts.json {
            println!("plan ({}, mutated by {name}):", algorithm.name());
        }
    } else if !opts.json {
        println!("plan ({}, estimated cost {:.1}):", algorithm.name(), optimized.estimated_cost);
    }

    // `explain` resolves node labels through the pattern; fall back to
    // the compact rendering when a corrupted plan references unknown
    // nodes.
    if !opts.json {
        let renderable = plan.bound_nodes().iter().all(|id| id.index() < pattern.len());
        if renderable {
            print!("{}", explain(&plan, &pattern, &estimates, &model));
        } else {
            println!("{plan}");
        }
        println!();
    }

    if opts.command == Command::Dataflow {
        let analysis = analyze_plan(&pattern, &plan, expect);
        if !opts.json {
            let p = analysis.root;
            println!(
                "dataflow: order {:?}, duplicate-free {}, document-order {}, blocking-free {}, \
                 proved pipelined {}",
                p.order,
                p.duplicate_free,
                p.document_order,
                p.blocking_free,
                analysis.proved_pipelined
            );
        }
        return Ok(finish(opts, &analysis.report));
    }

    let mut report = lint_plan_with(&pattern, &plan, expect, Some((&estimates, &model)));
    // The order-property dataflow pass runs in every lint: redundant
    // sorts and unprovable order contracts are plan defects whichever
    // mode asked.
    report.absorb("dataflow", lint_dataflow(&pattern, &plan, expect));
    if opts.mutate.is_none() {
        // Dynamic half: replay the plan once. PL034 checks that its
        // batch stream delivers what the static rules proved it
        // claims; PL035 replays it on a fault-armed store copy, which
        // must fail with a typed storage error.
        let run = replay(db.store(), &pattern, &plan, &ExecOptions::default());
        report.absorb("exec", lint_replayed(&run, &plan));
        report.absorb("exec", lint_error_surfacing(db.store(), &pattern, &plan, &run));
    }
    if opts.cross {
        let cross = lint_optimizers(&pattern, &estimates, &model);
        report.absorb("cross", cross);
    }
    Ok(finish(opts, &report))
}

/// Record a search trace for the requested algorithm, optionally
/// corrupt it, and certify its admissibility.
fn run_certify(
    opts: &Options,
    pattern: &sjos::Pattern,
    estimates: &sjos::stats::PatternEstimates,
    model: &sjos::core::CostModel,
) -> Result<bool, String> {
    let (_, mut trace) = record_search_trace(pattern, estimates, model, opts.algo.parse()?)?;
    let mut label = String::new();
    if let Some(kind) = &opts.corrupt {
        trace = corrupt_trace(&trace, kind.parse()?);
        label = format!(", corrupted by {kind}");
    }
    if !opts.json {
        println!(
            "trace ({}, {} events, optimum {:.1}{label}):",
            trace.algorithm,
            trace.events.len(),
            trace.optimum
        );
    }
    let report = certify_trace(pattern, estimates, model, &trace);
    Ok(finish(opts, &report))
}

/// Print the rule catalog: every stable rule id with its severity,
/// name, and (in JSON) explanation. Needs no document or query.
#[expect(clippy::unnecessary_wraps, reason = "uniform run_* signature for the dispatch table")]
fn run_rules(opts: &Options) -> Result<bool, String> {
    if opts.json {
        println!("{}", rule_catalog_json());
    } else {
        for rule in sjos_planck::Rule::ALL {
            println!("{:<6} {:<9} {}", rule.id(), format!("[{}]", rule.severity()), rule.name());
        }
    }
    Ok(true)
}

/// Concurrency certification (PL070–PL076): run the static source
/// pass over the workspace, then exhaustively explore the four
/// service-protocol models under the bounded-preemption scheduler.
/// `--selftest` additionally proves non-vacuity: every seeded static
/// mutation and every model defect mode must be caught.
fn run_conc(opts: &Options) -> Result<bool, String> {
    // `CARGO_MANIFEST_DIR` is the workspace root (the sjos package
    // lives there); `--root` overrides for out-of-tree runs.
    let root = opts.root.clone().unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").to_string());
    let root = std::path::Path::new(&root);
    let sources = collect_sources(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    if sources.is_empty() {
        return Err(format!("no sources under {} (bad --root?)", root.display()));
    }
    let mut report = lint_sources(&sources);

    let config = ExploreConfig::default();
    let mut outcomes = Vec::new();
    for model in healthy_models() {
        let outcome = explore(&model, config);
        if let Some(v) = &outcome.violation {
            report.push(
                Rule::InterleavingSound,
                format!("model:{}", outcome.model),
                format!("{} [schedule {}]", v.message, render_trace(&v.trace)),
            );
        }
        if outcome.truncated {
            report.push(
                Rule::InterleavingSound,
                format!("model:{}", outcome.model),
                format!(
                    "exploration truncated at {} schedules — inconclusive",
                    config.max_schedules
                ),
            );
        }
        outcomes.push(outcome);
    }

    if opts.json {
        let models: Vec<String> = outcomes
            .iter()
            .map(|o| {
                format!(
                    "{{\"model\":\"{}\",\"schedules\":{},\"max_depth\":{},\"clean\":{}}}",
                    o.model,
                    o.schedules,
                    o.max_depth,
                    o.is_clean()
                )
            })
            .collect();
        println!(
            "{{\"files\":{},\"explorer\":[{}],\"report\":{}}}",
            sources.len(),
            models.join(","),
            report.to_json()
        );
    } else {
        println!(
            "static pass: {} source files, {} diagnostics",
            sources.len(),
            report.diagnostics.len()
        );
        for o in &outcomes {
            println!(
                "explorer: {:<16} {} schedules, depth {}, {}",
                o.model,
                o.schedules,
                o.max_depth,
                if o.is_clean() { "clean" } else { "VIOLATION" }
            );
        }
        print!("{}", report.render());
    }

    if opts.selftest {
        let mut ok = report.is_clean();
        println!("== seeded static mutations (expected caught) ==");
        for mutation in StaticMutation::ALL {
            let mut doctored = sources.clone();
            apply_static_mutation(&mut doctored, mutation);
            let dirty = lint_sources(&doctored);
            if dirty.violates(mutation.expected_rule()) {
                println!("  {:<22} caught by {}", mutation.name(), mutation.expected_rule().id());
            } else {
                println!("  {:<22} MISSED", mutation.name());
                ok = false;
            }
        }
        println!("== seeded model defects (expected caught) ==");
        for (name, model) in mutated_models() {
            let outcome = explore(&model, config);
            match &outcome.violation {
                Some(v) => println!("  {name:<22} caught: {}", v.message),
                None => {
                    println!("  {name:<22} MISSED");
                    ok = false;
                }
            }
        }
        return Ok(ok);
    }
    Ok(report.is_clean())
}

/// Render an explorer trace as `T0 T1 T0 ...`.
fn render_trace(trace: &[usize]) -> String {
    let steps: Vec<String> = trace.iter().map(|t| format!("T{t}")).collect();
    steps.join(" ")
}

/// `run` under a guard carrying the given budgets.
fn budgeted(run: &ExecOptions, memory_budget: u64, batch_budget: Option<u64>) -> ExecOptions {
    let mut guard = QueryGuard::unlimited()
        .with_memory_budget(usize::try_from(memory_budget).unwrap_or(usize::MAX));
    if let Some(pulls) = batch_budget {
        guard = guard.with_batch_budget(pulls);
    }
    ExecOptions { guard: Some(std::sync::Arc::new(guard)), ..run.clone() }
}

/// Static admission control: derive guaranteed resource bounds for the
/// optimized plan, lint the bound lattice (PL060/PL061), compare it
/// against the budgets (PL062/PL063), and replay one execution to
/// certify the bounds dynamically (PL064).
fn run_admit(opts: &Options, db: &Database, pattern: &sjos::Pattern) -> Result<bool, String> {
    let estimates = db.estimates(pattern);
    let model = *db.cost_model();
    let algorithm: Algorithm = opts.algo.parse()?;
    let optimized = db.optimize(pattern, algorithm).map_err(|e| e.to_string())?;
    let plan = optimized.plan;
    let memory_budget = opts.memory_budget.unwrap_or(DEFAULT_MEMORY_BUDGET);

    let (bounds, mut report) = lint_bounds(pattern, &estimates, &model, &plan, opts.batch_rows);
    let run = ExecOptions { batch_rows: opts.batch_rows, ..ExecOptions::default() };
    report.absorb("admit", admit(&bounds, &budgeted(&run, memory_budget, opts.batch_budget)));
    let replayed = replay(db.store(), pattern, &plan, &run).map_err(|e| e.to_string())?;
    report.absorb("replay", replayed.within(&bounds, &run));

    if opts.json {
        println!(
            "{{\"bounds\":{},\"memory_budget\":{memory_budget},\"batch_budget\":{},\"report\":{}}}",
            bounds.to_json(),
            opts.batch_budget.map_or("null".to_string(), |b| b.to_string()),
            report.to_json()
        );
        return Ok(report.is_clean());
    }

    println!("plan ({}, estimated cost {:.1}):", algorithm.name(), optimized.estimated_cost);
    print!("{}", explain(&plan, pattern, &estimates, &model));
    println!();
    let root = bounds.root_rows();
    println!(
        "bounds at batch_rows {}: output rows in [{}, {}], worst-case peak {} B, \
         worst-case {} batch pulls",
        bounds.batch_rows, root.lo, root.hi, bounds.peak_bytes, bounds.batch_pulls
    );
    match opts.batch_budget {
        Some(b) => println!("budget: {memory_budget} B memory, {b} batch pulls"),
        None => println!("budget: {memory_budget} B memory"),
    }
    println!("verdict: {}", if report.is_clean() { "ADMITTED" } else { "REJECTED" });
    println!();
    Ok(finish(opts, &report))
}

/// Lint every optimizer's plan (must be clean), then every mutation of
/// the DPP plan (must be caught). Each optimizer's plan is replayed
/// once, and every executing rule checks that replay. Returns overall
/// success.
fn selftest(db: &Database, pattern: &sjos::Pattern) -> Result<bool, String> {
    let estimates = db.estimates(pattern);
    let model = *db.cost_model();
    let mut ok = true;

    let algorithms = [
        Algorithm::Dp,
        Algorithm::Dpp { lookahead: true },
        Algorithm::Dpp { lookahead: false },
        Algorithm::DpapEb { te: 2 },
        Algorithm::DpapLd,
        Algorithm::Fp,
        Algorithm::WorstRandom { samples: 16, seed: 42 },
    ];
    println!("== optimizer plans (expected clean) ==");
    let mut replays = Vec::new();
    for alg in algorithms {
        let expect = PlanExpectations::of(alg);
        let plan = match db.optimize(pattern, alg) {
            Ok(o) => o.plan,
            Err(e) => {
                println!("  {:<12} FAILED to optimize: {e}", alg.name());
                ok = false;
                continue;
            }
        };
        let mut report = lint_plan_with(pattern, &plan, expect, Some((&estimates, &model)));
        report.absorb("dataflow", lint_dataflow(pattern, &plan, expect));
        let run = replay(db.store(), pattern, &plan, &ExecOptions::default());
        report.absorb("exec", lint_replayed(&run, &plan));
        let verdict = if report.is_clean() { "clean" } else { "DIRTY" };
        println!("  {:<12} {verdict}", alg.name());
        if !report.is_clean() {
            print!("{}", report.render());
            ok = false;
        }
        replays.push((alg, plan, run));
    }
    let replayed =
        |alg: Algorithm| replays.iter().find(|(a, ..)| *a == alg).map(|(_, plan, run)| (plan, run));

    println!("== order-property dataflow (PL042, FP proved non-blocking statically) ==");
    match replayed(Algorithm::Fp) {
        Some((fp, _)) => {
            let expect = PlanExpectations::of(Algorithm::Fp);
            let analysis = analyze_plan(pattern, fp, expect);
            if analysis.proved_pipelined && analysis.report.is_clean() {
                println!("  clean (pipeline safety proved without execution)");
            } else {
                print!("{}", analysis.report.render());
                ok = false;
            }
        }
        None => {
            println!("  FAILED to optimize with FP");
            ok = false;
        }
    }

    println!("== error surfacing (PL035, expected clean) ==");
    let Some((base, base_run)) = replayed(Algorithm::Dpp { lookahead: true }) else {
        return Err("the DPP plan is needed for the rest of the selftest".into());
    };
    let surfacing = lint_error_surfacing(db.store(), pattern, base, base_run);
    ok &= expect_clean(&surfacing, "clean (fault-armed execution reports a typed storage error)");

    println!("== mutated plans (expected caught) ==");
    for mutation in PlanMutation::ALL {
        let name = mutation.name();
        let Some(mutated) = mutate_plan(pattern, base, mutation) else {
            println!("  {name:<18} (not applicable to this plan)");
            continue;
        };
        let expect = PlanExpectations {
            fully_pipelined: mutation == PlanMutation::WrapRootSort,
            left_deep: false,
        };
        let mut report = lint_plan_with(pattern, &mutated, expect, Some((&estimates, &model)));
        report.absorb("dataflow", lint_dataflow(pattern, &mutated, expect));
        ok &= expect_caught(&report, &format!("{name:<18}"), "caught by");
    }

    println!("== search-trace certification (expected clean) ==");
    for algorithm in [
        Algorithm::Dp,
        Algorithm::Dpp { lookahead: true },
        Algorithm::Dpp { lookahead: false },
        Algorithm::DpapLd,
    ] {
        match record_search_trace(pattern, &estimates, &model, algorithm) {
            Ok((_, trace)) => {
                let report = certify_trace(pattern, &estimates, &model, &trace);
                let certified = format!("certified ({} events)", trace.events.len());
                ok &= expect_clean(&report, format!("{:<12} {certified}", algorithm.name()));
            }
            Err(e) => {
                println!("  {:<12} FAILED to record a trace: {e}", algorithm.name());
                ok = false;
            }
        }
    }

    println!("== budget-cut search trace (T_e = 1, expected PL053 alone) ==");
    let eb = Algorithm::DpapEb { te: 1 };
    let (_, cut) = record_search_trace(pattern, &estimates, &model, eb)?;
    let cutoffs = cut.count(|e| matches!(e, TraceEvent::BudgetSkipped { .. }));
    let report = certify_trace(pattern, &estimates, &model, &cut);
    if cutoffs == 0 {
        println!("  {:<12} (no expansion-budget cutoff on this query)", eb.name());
    } else if report.rules() == [Rule::TraceComplete] {
        println!("  {:<12} reported by PL053 ({cutoffs} expansion-budget cutoff(s))", eb.name());
    } else {
        println!("  {:<12} MISSED", eb.name());
        print!("{}", report.render());
        ok = false;
    }

    println!("== corrupted traces (expected caught) ==");
    let (_, honest) =
        record_search_trace(pattern, &estimates, &model, Algorithm::Dpp { lookahead: true })?;
    for corruption in TraceCorruption::ALL {
        let name = corruption.name();
        let doctored = corrupt_trace(&honest, corruption);
        let report = certify_trace(pattern, &estimates, &model, &doctored);
        ok &= expect_caught(&report, &format!("{name:<18}"), "caught by");
    }

    println!("== optimizer cross-checks ==");
    ok &= expect_clean(&lint_optimizers(pattern, &estimates, &model), "clean");

    println!("== resource bounds (PL060-PL064, expected admissible) ==");
    let run = ExecOptions::default();
    for algorithm in [Algorithm::Dpp { lookahead: true }, Algorithm::Fp] {
        let Some((plan, Ok(replayed))) = replayed(algorithm) else {
            println!("  {:<12} FAILED to optimize or replay", algorithm.name());
            ok = false;
            continue;
        };
        let (bounds, mut report) =
            lint_bounds(pattern, &estimates, &model, plan, sjos::exec::BATCH_ROWS);
        report.absorb("admit", admit(&bounds, &budgeted(&run, DEFAULT_MEMORY_BUDGET, None)));
        report.absorb("replay", replayed.within(&bounds, &run));
        let admitted =
            format!("admitted (peak bound {} B, {} pulls)", bounds.peak_bytes, bounds.batch_pulls);
        ok &= expect_clean(&report, format!("{:<12} {admitted}", algorithm.name()));
    }

    println!("== starved budget (expected rejected) ==");
    let (bounds, _) = lint_bounds(pattern, &estimates, &model, base, sjos::exec::BATCH_ROWS);
    let starved = admit(&bounds, &budgeted(&run, 1, Some(1)));
    ok &= expect_caught(&starved, "1 B / 1 pull budget", "rejected by");
    Ok(ok)
}

/// Print `clean` when `report` is clean, else the report; returns
/// whether it was clean.
fn expect_clean(report: &Report, clean: impl std::fmt::Display) -> bool {
    if report.is_clean() {
        println!("  {clean}");
    } else {
        print!("{}", report.render());
    }
    report.is_clean()
}

/// Print the rules that `verb` the seeded defect `label`, or MISSED
/// when `report` came back clean; returns whether it was caught.
fn expect_caught(report: &Report, label: &str, verb: &str) -> bool {
    let rules: Vec<&str> = report.rules().iter().map(|r| r.id()).collect();
    if rules.is_empty() {
        println!("  {label} MISSED");
    } else {
        println!("  {label} {verb} {}", rules.join(", "));
    }
    !rules.is_empty()
}
