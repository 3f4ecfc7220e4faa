//! The source-level concurrency pass: rules PL070–PL075.
//!
//! Walks the workspace's first-party sources (`crates/*/src/**` and
//! `src/**`, with `#[cfg(test)]` modules stripped), tracks lock-guard
//! lifetimes through a linear token interpreter, builds the global
//! lock acquisition graph, and enforces the concurrency protocol
//! anchors the service stack depends on.
//!
//! ## Heuristics, stated plainly
//!
//! This is a lexer-level analysis, not a type checker. It recognizes
//! the locking idioms the workspace actually uses and errs toward
//! *under*-reporting on constructs it cannot see through:
//!
//! * An acquisition is `recv.lock()`, `recv.read()`, or
//!   `recv.write()` with empty argument lists (parking_lot and
//!   `std::sync` both fit, the latter via a trailing
//!   `.expect(..)`/`.unwrap()`).
//! * A guard is **bound** (held to end of scope or `drop(var)`) when
//!   the acquisition is the entire right-hand side of a
//!   `let var = ...;` statement; any other acquisition is
//!   **statement-scoped** and released at the next `;` (or at the `{`
//!   opening a condition's block — the 2024-edition rule; under the
//!   2021 edition an `if let` temporary lives slightly longer, which
//!   can only under-report).
//! * Lock identity is `module::field` — the last non-`self` segment
//!   of the receiver path, qualified by the defining module. Two
//!   locks sharing a field name in one module would alias; the
//!   workspace has none.
//!
//! The pass is deliberately conservative where the cost of a false
//! positive is a spurious CI failure; the mutation harness
//! ([`StaticMutation`]) proves each rule still fires on the seeded
//! defect it exists to catch.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use super::lexer::{lex, Tok, TokKind};
use crate::diag::{Report, Rule};

/// Methods that reach the buffer pool or disk: holding any latch
/// across one serializes contending threads behind device latency.
const IO_METHODS: [&str; 10] = [
    "read_page",
    "write_page",
    "allocate_page",
    "read_verified",
    "write_verified",
    "write_through",
    "flush_all",
    "with_page",
    "with_page_mut",
    "fetch",
];

/// Modules whose own latch *is* the documented I/O serialization
/// point — the buffer pool holds its latch across (possibly retried)
/// reads by design, and the disk/fault layers' file locks are the
/// device. PL071 exempts them and only them.
const IO_LAYER: [&str; 3] = ["storage::buffer", "storage::disk", "storage::fault"];

/// Receivers whose `lock()` is not an engine latch (io handles).
const RECEIVER_EXCLUDE: [&str; 3] = ["stdout", "stderr", "stdin"];

/// Pull-or-check identifiers: an unbounded `loop` inside an
/// `Operator::next_batch` must either consult the guard or pull
/// through a guarded boundary each iteration.
const PULL_OR_CHECK: [&str; 6] =
    ["check_batch", "check_point", "next_batch", "peek", "pop_into", "exhaust"];

/// One scanned source file: tokens with `#[cfg(test)]` items removed.
struct SourceFile {
    path: String,
    module: String,
    toks: Vec<Tok>,
}

/// One function body extracted from a file.
struct FnItem {
    name: String,
    line: u32,
    body: Vec<Tok>,
}

/// A held-guard record in the token interpreter.
struct Acq {
    lock: String,
    var: Option<String>,
    depth: u32,
}

/// One lock-ordering edge: `to` acquired while `from` was held.
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: u32,
}

/// One BufferPool/Disk call issued while a latch was held.
struct IoSite {
    module: String,
    file: String,
    line: u32,
    call: String,
}

/// Walk `root` (the workspace directory) and collect every
/// first-party source file: `crates/*/src/**/*.rs` plus `src/**/*.rs`.
/// Vendored stubs (`vendor/`) and build outputs are never visited.
/// Paths are workspace-relative, `/`-separated, sorted.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in sorted_entries(&crates)? {
            let src = entry.join("src");
            if src.is_dir() {
                walk_rs(&src, root, &mut files)?;
            }
        }
    }
    let src = root.join("src");
    if src.is_dir() {
        walk_rs(&src, root, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    let mut entries: Vec<_> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    Ok(entries)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Map a workspace-relative path onto a module id: rule scopes key on
/// these (`storage::buffer`, `service::admission`, `exec::ops::sort`).
fn module_id(rel: &str) -> String {
    let trimmed = rel.strip_suffix(".rs").unwrap_or(rel);
    let parts: Vec<&str> = trimmed.split('/').collect();
    let segs: Vec<&str> = if parts.first() == Some(&"crates") && parts.get(2) == Some(&"src") {
        // crates/<k>/src/<rest> → <k>::<rest>
        let mut v = vec![parts[1]];
        v.extend(&parts[3..]);
        v
    } else if parts.first() == Some(&"src") {
        // src/<rest> → <rest>; src/lib.rs → sjos
        if parts.len() == 2 && parts[1] == "lib" {
            vec!["sjos"]
        } else {
            parts[1..].to_vec()
        }
    } else {
        parts
    };
    let mut segs: Vec<&str> = segs.into_iter().filter(|s| !s.is_empty()).collect();
    if segs.last() == Some(&"mod") || segs.last() == Some(&"lib") {
        segs.pop();
    }
    segs.join("::")
}

/// Remove `#[cfg(test)]`/`#[test]`-attributed items (and the
/// attribute chains in front of them) from a token stream: test
/// modules spawn bare threads and take locks in ways production code
/// must not, and the rules only govern production code.
fn strip_test_items(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].punct("#") && toks.get(i + 1).is_some_and(|t| t.punct("[")) {
            let (end, is_test) = scan_attr(&toks, i + 1);
            if is_test {
                // Swallow any further attributes, then the item.
                let mut j = end;
                while toks.get(j).is_some_and(|t| t.punct("#"))
                    && toks.get(j + 1).is_some_and(|t| t.punct("["))
                {
                    j = scan_attr(&toks, j + 1).0;
                }
                i = skip_item(&toks, j);
                continue;
            }
            out.extend(toks[i..end].iter().cloned());
            i = end;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Scan an attribute group starting at its `[`; returns (index past
/// the closing `]`, whether the group marks test-only code). A group
/// is test-marked when it mentions `test` outside a `not(..)`.
fn scan_attr(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0;
    let mut is_test = false;
    let mut negated = false;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.punct("[") {
            depth += 1;
        } else if t.punct("]") {
            depth -= 1;
            if depth == 0 {
                return (i + 1, is_test && !negated);
            }
        } else if t.is("not") {
            negated = true;
        } else if t.is("test") {
            is_test = true;
        }
        i += 1;
    }
    (i, false)
}

/// Skip one item starting at `start`: past the first `;` seen before
/// any `{`, or past the matching `}` of the first `{`.
fn skip_item(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    while i < toks.len() {
        if toks[i].punct(";") {
            return i + 1;
        }
        if toks[i].punct("{") {
            let d = toks[i].depth;
            let mut k = i + 1;
            while k < toks.len() && !(toks[k].punct("}") && toks[k].depth == d) {
                k += 1;
            }
            return k + 1;
        }
        i += 1;
    }
    i
}

/// Extract `fn` items (name, line, body tokens) from a file's tokens.
fn extract_fns(toks: &[Tok]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            let mut j = i + 2;
            let mut open = None;
            while j < toks.len() {
                if toks[j].punct(";") {
                    break;
                }
                if toks[j].punct("{") {
                    open = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(o) = open {
                let d = toks[o].depth;
                let mut k = o + 1;
                while k < toks.len() && !(toks[k].punct("}") && toks[k].depth == d) {
                    k += 1;
                }
                fns.push(FnItem { name, line, body: toks[o + 1..k.min(toks.len())].to_vec() });
                i = (k + 1).min(toks.len());
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    fns
}

/// Parse the receiver path chain ending at the separator token
/// `sep` (a `.` or `::`), outermost segment first. Bracket and paren
/// groups (`slots[i]`, `store.pool()`) are skipped over.
fn receiver_segments(body: &[Tok], sep: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut j = sep;
    while j > 0 {
        let k = j - 1;
        let t = &body[k];
        if t.kind == TokKind::Ident || t.kind == TokKind::Number {
            segs.push(t.text.clone());
            if k >= 1 && (body[k - 1].punct(".") || body[k - 1].punct("::")) {
                j = k - 1;
                continue;
            }
            break;
        } else if t.punct("]") || t.punct(")") {
            let (open, close) = if t.punct("]") { ("[", "]") } else { ("(", ")") };
            let mut depth = 1;
            let mut m = k;
            while m > 0 && depth > 0 {
                m -= 1;
                if body[m].punct(close) {
                    depth += 1;
                } else if body[m].punct(open) {
                    depth -= 1;
                }
            }
            if depth > 0 {
                break;
            }
            j = m;
            continue;
        }
        break;
    }
    segs.reverse();
    segs
}

/// The lock's short name: the segment nearest the call that isn't
/// `self` (so `self.controller.state.lock()` and `self.state.lock()`
/// both name `state`).
fn lock_name(segs: &[String]) -> Option<String> {
    segs.iter().rev().find(|s| s.as_str() != "self").cloned()
}

/// If the acquisition at `acq` (index of the `lock`/`read`/`write`
/// ident) is the whole right-hand side of a `let var = ...;`
/// statement starting at `stmt_start`, return the bound variable.
fn binding_var(body: &[Tok], stmt_start: usize, acq: usize) -> Option<String> {
    if !body.get(stmt_start)?.is("let") {
        return None;
    }
    let eq = (stmt_start..acq).find(|&k| body[k].punct("="))?;
    let var = body.get(eq.checked_sub(1)?)?;
    if var.kind != TokKind::Ident {
        return None;
    }
    // The rhs must start with a plain path (not `*temp` / `&temp`).
    if body.get(eq + 1).is_none_or(|t| t.kind != TokKind::Ident) {
        return None;
    }
    // ... and end right after the acquisition, modulo
    // `.expect(..)`/`.unwrap()` trailers.
    let mut j = acq + 3; // past `lock ( )`
    loop {
        if body.get(j).is_some_and(|t| t.punct("."))
            && body.get(j + 1).is_some_and(|t| t.is("expect") || t.is("unwrap"))
            && body.get(j + 2).is_some_and(|t| t.punct("("))
        {
            let mut depth = 1;
            let mut m = j + 3;
            while m < body.len() && depth > 0 {
                if body[m].punct("(") {
                    depth += 1;
                } else if body[m].punct(")") {
                    depth -= 1;
                }
                m += 1;
            }
            j = m;
            continue;
        }
        break;
    }
    if body.get(j).is_some_and(|t| t.punct(";")) {
        Some(var.text.clone())
    } else {
        None
    }
}

/// Interpret one function body: track guard lifetimes, record lock
/// ordering edges and I/O-under-latch sites.
fn walk_fn(
    item: &FnItem,
    module: &str,
    file: &str,
    edges: &mut Vec<LockEdge>,
    io_sites: &mut Vec<IoSite>,
) {
    let body = &item.body;
    let mut guards: Vec<Acq> = Vec::new();
    let mut stmt_start = 0usize;
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if t.punct(";") || t.punct("{") {
            // Statement-scoped (unbound) guards die at statement end;
            // condition temporaries die at the block brace.
            guards.retain(|g| g.var.is_some() || g.depth != t.depth);
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.punct("}") {
            guards.retain(|g| g.depth <= t.depth);
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.is("drop")
            && body.get(i + 1).is_some_and(|x| x.punct("("))
            && body.get(i + 2).is_some_and(|x| x.kind == TokKind::Ident)
            && body.get(i + 3).is_some_and(|x| x.punct(")"))
        {
            let var = &body[i + 2].text;
            guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
            i += 4;
            continue;
        }
        let is_acquire = (t.is("lock") || t.is("read") || t.is("write"))
            && i > 0
            && body[i - 1].punct(".")
            && body.get(i + 1).is_some_and(|x| x.punct("("))
            && body.get(i + 2).is_some_and(|x| x.punct(")"));
        if is_acquire {
            let segs = receiver_segments(body, i - 1);
            if let Some(name) = lock_name(&segs) {
                if !RECEIVER_EXCLUDE.contains(&name.as_str()) {
                    let lock = format!("{module}::{name}");
                    for g in &guards {
                        if g.lock != lock {
                            edges.push(LockEdge {
                                from: g.lock.clone(),
                                to: lock.clone(),
                                file: file.to_string(),
                                line: t.line,
                            });
                        }
                    }
                    let var = binding_var(body, stmt_start, i);
                    guards.push(Acq { lock, var, depth: t.depth });
                }
            }
            i += 3;
            continue;
        }
        if !guards.is_empty()
            && t.kind == TokKind::Ident
            && body.get(i + 1).is_some_and(|x| x.punct("("))
            && i > 0
            && (body[i - 1].punct(".") || body[i - 1].punct("::"))
        {
            let mut is_io = IO_METHODS.contains(&t.text.as_str());
            if !is_io {
                let segs = receiver_segments(body, i - 1);
                is_io = segs.iter().any(|s| s == "pool" || s == "disk");
            }
            if is_io {
                io_sites.push(IoSite {
                    module: module.to_string(),
                    file: file.to_string(),
                    line: t.line,
                    call: t.text.clone(),
                });
            }
        }
        i += 1;
    }
}

/// Find a cycle in the acquisition graph, if any: returns the node
/// sequence `a -> b -> ... -> a`. Recursion depth is bounded by the
/// number of distinct locks, which is tiny.
fn find_cycle(edges: &[LockEdge]) -> Option<Vec<String>> {
    fn visit<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        color: &mut BTreeMap<&'a str, u8>,
        path: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        color.insert(node, 1);
        path.push(node);
        for &succ in adj.get(node).into_iter().flatten() {
            match color.get(succ).copied().unwrap_or(0) {
                1 => {
                    // Back edge: the cycle is the path suffix from
                    // `succ`, closed back on itself.
                    let pos = path.iter().position(|&n| n == succ).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        path[pos..].iter().map(|n| (*n).to_string()).collect();
                    cycle.push(succ.to_string());
                    return Some(cycle);
                }
                0 => {
                    if let Some(c) = visit(succ, adj, color, path) {
                        return Some(c);
                    }
                }
                _ => {}
            }
        }
        path.pop();
        color.insert(node, 2);
        None
    }

    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for start in nodes {
        if color.get(start).copied().unwrap_or(0) == 0 {
            if let Some(c) = visit(start, &adj, &mut color, &mut Vec::new()) {
                return Some(c);
            }
        }
    }
    None
}

/// Run the full static concurrency pass over in-memory sources. Each
/// entry is `(workspace-relative path, contents)`. This is the
/// mutation-friendly entry point: [`lint_concurrency`] feeds it the
/// real tree, the selftest feeds it doctored copies.
pub fn lint_sources(files: &[(String, String)]) -> Report {
    let mut report = Report::default();
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile {
            path: path.clone(),
            module: module_id(path),
            toks: strip_test_items(lex(text)),
        })
        .collect();

    let mut edges: Vec<LockEdge> = Vec::new();
    let mut io_sites: Vec<IoSite> = Vec::new();
    let mut fns: Vec<(usize, FnItem)> = Vec::new(); // (source index, item)
    for (si, sf) in sources.iter().enumerate() {
        for item in extract_fns(&sf.toks) {
            walk_fn(&item, &sf.module, &sf.path, &mut edges, &mut io_sites);
            fns.push((si, item));
        }
    }

    // PL070: the acquisition graph must be acyclic.
    if let Some(cycle) = find_cycle(&edges) {
        let mut sites = Vec::new();
        for pair in cycle.windows(2) {
            if let Some(e) = edges.iter().find(|e| e.from == pair[0] && e.to == pair[1]) {
                sites.push(format!("{} after {} at {}:{}", e.to, e.from, e.file, e.line));
            }
        }
        report.push(
            Rule::LockOrderAcyclic,
            "lock-graph",
            format!("acquisition cycle {} ({})", cycle.join(" -> "), sites.join("; ")),
        );
    }

    // PL071: no latch held across a BufferPool/Disk call outside the
    // I/O serialization layer itself.
    for site in &io_sites {
        if IO_LAYER.contains(&site.module.as_str()) {
            continue;
        }
        report.push(
            Rule::NoLockAcrossIo,
            format!("{}:{}", site.file, site.line),
            format!("`{}` called while a latch is held (module {})", site.call, site.module),
        );
    }

    let module_of = |si: usize| sources[si].module.as_str();
    let has_module = |m: &str| sources.iter().any(|s| s.module == m);
    let body_has = |item: &FnItem, word: &str| item.body.iter().any(|t| t.is(word));
    let body_has_seq = |item: &FnItem, words: &[&str]| {
        item.body.windows(words.len()).any(|w| w.iter().zip(words).all(|(t, s)| t.text == *s))
    };

    // PL072(a): GuardedOp's pull must consult the guard.
    if has_module("exec::guard") {
        let anchors: Vec<&FnItem> = fns
            .iter()
            .filter(|(si, f)| module_of(*si) == "exec::guard" && f.name == "next_batch")
            .map(|(_, f)| f)
            .collect();
        if anchors.is_empty() {
            report.push(
                Rule::GuardCheckedPulls,
                "exec::guard",
                "no GuardedOp::next_batch found — the guarded pull boundary is gone",
            );
        }
        for f in anchors {
            if !body_has(f, "check_batch") {
                report.push(
                    Rule::GuardCheckedPulls,
                    format!("exec::guard::next_batch:{}", f.line),
                    "GuardedOp::next_batch does not call check_batch before delegating",
                );
            }
        }
    }

    // PL072(b): the executor must wrap every operator it builds.
    if has_module("exec::executor") {
        let build = fns
            .iter()
            .find(|(si, f)| module_of(*si) == "exec::executor" && f.name == "build_operator");
        match build {
            Some((_, f)) if body_has_seq(f, &["GuardedOp", "::", "new"]) => {}
            Some((_, f)) => report.push(
                Rule::GuardCheckedPulls,
                format!("exec::executor::build_operator:{}", f.line),
                "build_operator no longer wraps operators in GuardedOp::new",
            ),
            None => report.push(
                Rule::GuardCheckedPulls,
                "exec::executor",
                "build_operator not found — cannot prove operators are guard-wrapped",
            ),
        }
    }

    // PL072(c): no unbounded pull loop that neither checks the guard
    // nor pulls through a guarded input.
    for (si, f) in &fns {
        let module = module_of(*si);
        if !module.starts_with("exec") || f.name != "next_batch" {
            continue;
        }
        if body_has(f, "loop") && !PULL_OR_CHECK.iter().any(|w| body_has(f, w)) {
            report.push(
                Rule::GuardCheckedPulls,
                format!("{module}::next_batch:{}", f.line),
                "unbounded `loop` in a pull path with no guard check and no guarded input pull",
            );
        }
    }

    // PL073: every reservation protocol pairs acquire with release.
    if has_module("service::admission") {
        let balanced = fns.iter().any(|(si, f)| {
            module_of(*si) == "service::admission"
                && f.name == "drop"
                && body_has(f, "in_use")
                && (body_has(f, "saturating_sub")
                    || body_has(f, "fetch_sub")
                    || body_has_seq(f, &["-", "="]))
                && body_has(f, "notify_all")
        });
        if !balanced {
            report.push(
                Rule::ReserveReleaseBalanced,
                "service::admission",
                "AdmissionPermit's Drop no longer returns its bytes to in_use and wakes waiters",
            );
        }
    }
    if has_module("exec::guard") {
        let reserve_ok = fns.iter().any(|(si, f)| {
            module_of(*si) == "exec::guard" && f.name == "reserve" && body_has(f, "fetch_add")
        });
        let release_ok = fns.iter().any(|(si, f)| {
            module_of(*si) == "exec::guard"
                && f.name == "release"
                && f.body.iter().any(|t| {
                    t.kind == TokKind::Ident
                        && (t.text == "fetch_sub" || t.text.starts_with("compare_exchange"))
                })
        });
        if !(reserve_ok && release_ok) {
            report.push(
                Rule::ReserveReleaseBalanced,
                "exec::guard",
                "QueryGuard reserve/release pair broken: reserve must debit atomically and \
                 release must credit back",
            );
        }
    }
    if has_module("storage::spill") {
        let release_ok = fns.iter().any(|(si, f)| {
            module_of(*si) == "storage::spill"
                && f.name == "release"
                && body_has(f, "free")
                && body_has(f, "push")
                && body_has(f, "fetch_sub")
        });
        let drop_ok = fns.iter().any(|(si, f)| {
            module_of(*si) == "storage::spill" && f.name == "drop" && body_has(f, "release")
        });
        if !(release_ok && drop_ok) {
            report.push(
                Rule::ReserveReleaseBalanced,
                "storage::spill",
                "temp-page protocol broken: TempPages must release on drop and release must \
                 return pages to the free list",
            );
        }
    }
    for (si, sf) in sources.iter().enumerate() {
        if sf.module != "exec::ops::sort" {
            continue;
        }
        let file_fns: Vec<&FnItem> = fns.iter().filter(|(i, _)| *i == si).map(|(_, f)| f).collect();
        let reserves = file_fns.iter().any(|f| body_has_seq(f, &["guard", ".", "reserve"]));
        let releases = file_fns.iter().any(|f| body_has_seq(f, &["guard", ".", "release"]));
        if reserves && !releases {
            report.push(
                Rule::ReserveReleaseBalanced,
                sf.path.clone(),
                "spilling sort debits the guard but never credits flushed bytes back",
            );
        }
    }

    // PL074: no blocking std::sync primitive in hot-path modules.
    for sf in &sources {
        if !hot_path(&sf.module) {
            continue;
        }
        for (line, prim) in std_sync_blocking(&sf.toks) {
            report.push(
                Rule::NoBareMutexHotPath,
                format!("{}:{line}", sf.path),
                format!(
                    "std::sync::{prim} in hot-path module {} — use atomics or parking_lot",
                    sf.module
                ),
            );
        }
    }

    // PL075: engine-side spawn sites must reinstall the IoTap.
    for sf in &sources {
        let scoped = sf.module.starts_with("exec")
            || sf.module.starts_with("storage")
            || sf.module.starts_with("service");
        if !scoped {
            continue;
        }
        for (line, ok) in spawn_sites(&sf.toks) {
            if !ok {
                report.push(
                    Rule::SpawnReinstallsTap,
                    format!("{}:{line}", sf.path),
                    "thread spawn without an IoTap::install in the worker closure — \
                     per-session I/O attribution is dropped on this thread",
                );
            }
        }
    }

    report
}

/// Is `module` per-batch/per-record hot-path code? The coordination
/// plane (`exec::parallel`'s once-per-morsel slots, the service's
/// queue — which needs `Condvar`, absent from the parking_lot stub)
/// is deliberately out of scope; see DESIGN.md §13.
fn hot_path(module: &str) -> bool {
    module.starts_with("exec::ops")
        || matches!(
            module,
            "exec::guard" | "exec::executor" | "exec::holistic" | "exec::tuple" | "exec::metrics"
        )
        || module.starts_with("storage")
}

/// Find `std::sync::{Mutex,RwLock,Condvar}` mentions (direct paths or
/// inside a `use std::sync::{...}` group). Atomics and `Arc` pass.
fn std_sync_blocking(toks: &[Tok]) -> Vec<(u32, String)> {
    const BLOCKING: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
    let mut hits = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        let from_std = toks[i].is("std") && toks[i + 1].punct("::") && toks[i + 2].is("sync");
        let bare_sync = toks[i].is("sync") && !(i >= 2 && toks[i - 1].punct("::"));
        let sync_at = if from_std {
            Some(i + 2)
        } else if bare_sync {
            Some(i)
        } else {
            None
        };
        if let Some(s) = sync_at {
            if toks.get(s + 1).is_some_and(|t| t.punct("::")) {
                match toks.get(s + 2) {
                    Some(t) if BLOCKING.contains(&t.text.as_str()) => {
                        hits.push((t.line, t.text.clone()));
                    }
                    Some(t) if t.punct("{") => {
                        let d = t.depth;
                        let mut k = s + 3;
                        while k < toks.len() && !(toks[k].punct("}") && toks[k].depth == d) {
                            if BLOCKING.contains(&toks[k].text.as_str()) {
                                hits.push((toks[k].line, toks[k].text.clone()));
                            }
                            k += 1;
                        }
                    }
                    _ => {}
                }
            }
            i = s + 1;
            continue;
        }
        i += 1;
    }
    hits
}

/// Find `*.spawn(..)` call sites; for each, report whether the
/// argument (the worker closure) mentions `IoTap` and `install`.
fn spawn_sites(toks: &[Tok]) -> Vec<(u32, bool)> {
    let mut sites = Vec::new();
    let mut i = 1;
    while i + 1 < toks.len() {
        if toks[i].is("spawn")
            && (toks[i - 1].punct(".") || toks[i - 1].punct("::"))
            && toks[i + 1].punct("(")
        {
            let mut depth = 1;
            let mut k = i + 2;
            let mut has_tap = false;
            let mut has_install = false;
            while k < toks.len() && depth > 0 {
                if toks[k].punct("(") {
                    depth += 1;
                } else if toks[k].punct(")") {
                    depth -= 1;
                } else if toks[k].is("IoTap") {
                    has_tap = true;
                } else if toks[k].is("install") {
                    has_install = true;
                }
                k += 1;
            }
            sites.push((toks[i].line, has_tap && has_install));
            i = k;
            continue;
        }
        i += 1;
    }
    sites
}

/// Run the static concurrency pass over the real workspace rooted at
/// `root` (the directory holding `Cargo.toml`, `crates/`, `src/`).
pub fn lint_concurrency(root: &Path) -> io::Result<Report> {
    Ok(lint_sources(&collect_sources(root)?))
}

/// A seeded defect for the non-vacuity harness: each mutation doctors
/// an in-memory copy of the scanned sources (the tree on disk is
/// never touched) and names the rule that must catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticMutation {
    /// Two functions take the same pair of latches in opposite
    /// orders.
    LockOrderInversion,
    /// A storage path calls into the buffer pool while holding its
    /// own latch.
    LockAcrossIo,
    /// An operator gains an unbounded pull loop with no guard check.
    UncheckedPullLoop,
    /// The executor stops wrapping operators in `GuardedOp`.
    SkippedGuardWrap,
    /// `AdmissionPermit::drop` forgets to return its bytes.
    DroppedRelease,
    /// A blocking `std::sync::Mutex` appears in a per-batch module.
    BareMutexInHotPath,
    /// A parallel worker closure stops reinstalling the `IoTap`.
    SkippedTapInstall,
}

impl StaticMutation {
    /// Every static mutation, in a fixed order.
    pub const ALL: [StaticMutation; 7] = [
        StaticMutation::LockOrderInversion,
        StaticMutation::LockAcrossIo,
        StaticMutation::UncheckedPullLoop,
        StaticMutation::SkippedGuardWrap,
        StaticMutation::DroppedRelease,
        StaticMutation::BareMutexInHotPath,
        StaticMutation::SkippedTapInstall,
    ];

    /// Stable kebab-case name (CLI surface).
    pub fn name(self) -> &'static str {
        match self {
            StaticMutation::LockOrderInversion => "lock-order-inversion",
            StaticMutation::LockAcrossIo => "lock-across-io",
            StaticMutation::UncheckedPullLoop => "unchecked-pull-loop",
            StaticMutation::SkippedGuardWrap => "skipped-guard-wrap",
            StaticMutation::DroppedRelease => "dropped-release",
            StaticMutation::BareMutexInHotPath => "bare-mutex-hot-path",
            StaticMutation::SkippedTapInstall => "skipped-tap-install",
        }
    }

    /// The rule that must fire on this mutation.
    pub fn expected_rule(self) -> Rule {
        match self {
            StaticMutation::LockOrderInversion => Rule::LockOrderAcyclic,
            StaticMutation::LockAcrossIo => Rule::NoLockAcrossIo,
            StaticMutation::UncheckedPullLoop | StaticMutation::SkippedGuardWrap => {
                Rule::GuardCheckedPulls
            }
            StaticMutation::DroppedRelease => Rule::ReserveReleaseBalanced,
            StaticMutation::BareMutexInHotPath => Rule::NoBareMutexHotPath,
            StaticMutation::SkippedTapInstall => Rule::SpawnReinstallsTap,
        }
    }
}

/// Apply `mutation` to an in-memory source set (as produced by
/// [`collect_sources`]). Replacement-style mutations require their
/// target file to be present; synthetic-file mutations append a new
/// (never-compiled, only-lexed) source.
pub fn apply_static_mutation(files: &mut Vec<(String, String)>, mutation: StaticMutation) {
    fn replace_in(files: &mut [(String, String)], suffix: &str, from: &str, to: &str) {
        for (path, text) in files.iter_mut() {
            if path.ends_with(suffix) {
                assert!(text.contains(from), "mutation anchor `{from}` missing from {path}");
                *text = text.replace(from, to);
                return;
            }
        }
        panic!("mutation target {suffix} not in source set");
    }
    match mutation {
        StaticMutation::LockOrderInversion => files.push((
            "crates/exec/src/zz_mutant_lock_order.rs".to_string(),
            "fn first(&self) { let ga = self.alpha.lock(); let gb = self.beta.lock(); \
             drop(gb); drop(ga); }\n\
             fn second(&self) { let gb = self.beta.lock(); let ga = self.alpha.lock(); \
             drop(ga); drop(gb); }\n"
                .to_string(),
        )),
        StaticMutation::LockAcrossIo => files.push((
            "crates/storage/src/zz_mutant_latch_io.rs".to_string(),
            "fn bad(&self) { let g = self.inner.lock(); self.pool.fetch(1); drop(g); }\n"
                .to_string(),
        )),
        StaticMutation::UncheckedPullLoop => files.push((
            "crates/exec/src/ops/zz_mutant_spin.rs".to_string(),
            "fn next_batch(&mut self) { loop { self.spins += 1; } }\n".to_string(),
        )),
        StaticMutation::SkippedGuardWrap => replace_in(
            files,
            "crates/exec/src/executor.rs",
            "GuardedOp::new",
            "unguarded_passthrough",
        ),
        StaticMutation::DroppedRelease => {
            replace_in(files, "src/service/admission.rs", "saturating_sub", "wrapping_keep");
        }
        StaticMutation::BareMutexInHotPath => {
            replace_in(
                files,
                "crates/exec/src/ops/sort.rs",
                "use std::sync::Arc;",
                "use std::sync::Arc;\nuse std::sync::Mutex as HotMutex;",
            );
        }
        StaticMutation::SkippedTapInstall => {
            replace_in(files, "crates/exec/src/parallel.rs", "IoTap::install", "drop");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_for(files: &[(&str, &str)]) -> Report {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, t)| ((*p).to_string(), (*t).to_string())).collect();
        lint_sources(&owned)
    }

    #[test]
    fn module_ids_map_paths() {
        assert_eq!(module_id("crates/storage/src/buffer.rs"), "storage::buffer");
        assert_eq!(module_id("crates/exec/src/ops/sort.rs"), "exec::ops::sort");
        assert_eq!(module_id("crates/exec/src/ops/mod.rs"), "exec::ops");
        assert_eq!(module_id("crates/planck/src/lib.rs"), "planck");
        assert_eq!(module_id("src/service/admission.rs"), "service::admission");
        assert_eq!(module_id("src/lib.rs"), "sjos");
        assert_eq!(module_id("src/bin/planlint.rs"), "bin::planlint");
    }

    #[test]
    fn clean_nested_locks_in_one_order_pass() {
        let r = report_for(&[(
            "crates/storage/src/a.rs",
            "fn f(&self) { let g = self.outer.lock(); let h = self.inner.lock(); \
             drop(h); drop(g); }\n\
             fn g(&self) { let g = self.outer.lock(); let h = self.inner.lock(); }\n",
        )]);
        assert!(!r.violates(Rule::LockOrderAcyclic), "{r}");
    }

    #[test]
    fn opposite_order_acquisitions_fire_pl070() {
        let r = report_for(&[(
            "crates/storage/src/a.rs",
            "fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             fn g(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n",
        )]);
        assert!(r.violates(Rule::LockOrderAcyclic), "{r}");
    }

    #[test]
    fn statement_scoped_guard_does_not_span_following_io() {
        // `let recycled = self.free.lock().pop();` releases at the
        // semicolon — the pool call on the next line is latch-free.
        let r = report_for(&[(
            "crates/storage/src/spillish.rs",
            "fn allocate(&self) { let recycled = self.free.lock().pop(); \
             let id = self.pool.allocate_page(); }\n",
        )]);
        assert!(!r.violates(Rule::NoLockAcrossIo), "{r}");
    }

    #[test]
    fn bound_guard_across_pool_call_fires_pl071() {
        let r = report_for(&[(
            "crates/storage/src/spillish.rs",
            "fn allocate(&self) { let g = self.free.lock(); \
             let id = self.pool.allocate_page(); drop(g); }\n",
        )]);
        assert!(r.violates(Rule::NoLockAcrossIo), "{r}");
    }

    #[test]
    fn buffer_pool_is_exempt_from_pl071() {
        let r = report_for(&[(
            "crates/storage/src/buffer.rs",
            "fn fetch(&self) { let mut inner = self.inner.lock(); \
             let page = self.read_verified(1); }\n",
        )]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn drop_releases_guard_before_io() {
        let r = report_for(&[(
            "crates/storage/src/spillish.rs",
            "fn allocate(&self) { let g = self.free.lock(); drop(g); \
             let id = self.pool.allocate_page(); }\n",
        )]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unchecked_pull_loop_fires_pl072() {
        let r = report_for(&[(
            "crates/exec/src/ops/spin.rs",
            "fn next_batch(&mut self) { loop { self.n += 1; } }\n",
        )]);
        assert!(r.violates(Rule::GuardCheckedPulls), "{r}");
    }

    #[test]
    fn pull_loop_that_pulls_through_guarded_input_passes() {
        let r = report_for(&[(
            "crates/exec/src/ops/okay.rs",
            "fn next_batch(&mut self) { loop { let b = self.input.next_batch(); } }\n",
        )]);
        assert!(!r.violates(Rule::GuardCheckedPulls), "{r}");
    }

    #[test]
    fn std_mutex_in_hot_path_fires_pl074_but_atomics_pass() {
        let r = report_for(&[(
            "crates/exec/src/ops/hot.rs",
            "use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n",
        )]);
        assert!(r.is_clean(), "{r}");
        let r = report_for(&[("crates/exec/src/ops/hot.rs", "use std::sync::{Arc, Mutex};\n")]);
        assert!(r.violates(Rule::NoBareMutexHotPath), "{r}");
        // The coordination plane is out of scope.
        let r = report_for(&[("crates/exec/src/parallel.rs", "use std::sync::{Arc, Mutex};\n")]);
        assert!(!r.violates(Rule::NoBareMutexHotPath), "{r}");
    }

    #[test]
    fn spawn_without_tap_fires_pl075() {
        let r = report_for(&[(
            "crates/exec/src/par.rs",
            "fn run(scope: &S) { scope.spawn(|| { work(); }); }\n",
        )]);
        assert!(r.violates(Rule::SpawnReinstallsTap), "{r}");
        let r = report_for(&[(
            "crates/exec/src/par.rs",
            "fn run(scope: &S) { scope.spawn(|| { let _t = tap.clone().map(IoTap::install); \
             work(); }); }\n",
        )]);
        assert!(!r.violates(Rule::SpawnReinstallsTap), "{r}");
    }

    #[test]
    fn test_modules_are_stripped() {
        let r = report_for(&[(
            "crates/exec/src/par.rs",
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n fn t(scope: &S) { \
             scope.spawn(|| { work(); }); }\n}\n",
        )]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn every_static_mutation_is_caught_on_a_minimal_tree() {
        // A minimal healthy tree containing each mutation's target.
        let base: Vec<(String, String)> = vec![
            (
                "crates/exec/src/executor.rs".to_string(),
                "fn build_operator() { Ok(Box::new(GuardedOp::new(op, guard))) }\n".to_string(),
            ),
            (
                "crates/exec/src/guard.rs".to_string(),
                "fn next_batch(&mut self) { self.guard.check_batch(); self.inner.next_batch() }\n\
                 fn reserve(&self) { self.reserved.fetch_add(1); }\n\
                 fn release(&self) { self.reserved.fetch_sub(1); }\n"
                    .to_string(),
            ),
            (
                "crates/exec/src/parallel.rs".to_string(),
                "fn run(scope: &S) { scope.spawn(|| { let _t = tap.clone().map(IoTap::install); \
                 }); }\n"
                    .to_string(),
            ),
            (
                "crates/exec/src/ops/sort.rs".to_string(),
                "use std::sync::Arc;\nfn flush(&self) { guard.reserve(1); guard.release(1); }\n"
                    .to_string(),
            ),
            (
                "src/service/admission.rs".to_string(),
                "fn drop(&mut self) { state.in_use = state.in_use.saturating_sub(self.b); \
                 self.controller.cond.notify_all(); }\n"
                    .to_string(),
            ),
            (
                "crates/storage/src/spill.rs".to_string(),
                "fn release(&self, id: PageId) { self.live.fetch_sub(1); \
                 self.free.lock().push(id); }\n\
                 fn drop(&mut self) { self.segment.release(self.id); }\n"
                    .to_string(),
            ),
        ];
        assert!(lint_sources(&base).is_clean(), "healthy base tree: {}", lint_sources(&base));
        for m in StaticMutation::ALL {
            let mut doctored = base.clone();
            apply_static_mutation(&mut doctored, m);
            let r = lint_sources(&doctored);
            assert!(
                r.violates(m.expected_rule()),
                "mutation {} must fire {}: {r}",
                m.name(),
                m.expected_rule().id()
            );
        }
    }
}
