//! Integration tests pinning `planlint`'s command-line contract:
//! exit status 0 when every rule passes, 1 when any rule fires, 2 on
//! usage or I/O errors — across every subcommand — plus the shape of
//! the machine-readable `--json` output CI depends on.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn planlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_planlint")).args(args).output().expect("planlint binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("planlint exits normally")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_lint_exits_zero() {
    let out = planlint(&["--query", "//a/b/c"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn mutated_plan_exits_one() {
    let out = planlint(&["--query", "//a/b/c", "--mutate", "flip-axis"]);
    assert_eq!(code(&out), 1);
    assert!(stdout(&out).contains("PL0"), "a rule id names the violation");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &[] as &[&str],
        &["--query"],
        &["--bogus-flag"],
        &["--query", "//a/b/c", "--gen", "nope:100"],
        &["--query", "//a/b/c", "--xml", "/nonexistent/file.xml"],
        &["certify", "--query", "//a/b/c", "--mutate", "drop-sort"],
        &["--query", "//a/b/c", "--corrupt", "cheap-prune"],
        &["--query", "//a/b/c", "--memory-budget", "64MiB"],
        &["admit", "--query", "//a/b/c", "--memory-budget", "64QiB"],
        &["admit", "--query", "//a/b/c", "--batch-rows", "0"],
    ] {
        let out = planlint(args);
        assert_eq!(code(&out), 2, "args {args:?} must be a usage error");
    }
}

/// Both binaries read algorithm names through the one spelling table
/// in core, so they reject an unknown name with the same message; the
/// interactive shell's former short forms are unknown names too.
#[test]
fn cli_and_planlint_reject_the_same_unknown_algorithm() {
    let message = "bogus".parse::<sjos::Algorithm>().unwrap_err();
    let out = planlint(&["--query", "//a/b/c", "--algo", "bogus"]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains(&message), "planlint: {out:?}");

    let mut cli = Command::new(env!("CARGO_BIN_EXE_sjos-cli"))
        .args(["--gen", "pers:200"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("sjos-cli binary runs");
    cli.stdin
        .take()
        .expect("piped stdin")
        .write_all(b"\\algo bogus\n\\algo ld\n\\algo eb:2\n\\algo dpap-eb:2\n\\quit\n")
        .expect("stdin accepts the script");
    let out = cli.wait_with_output().expect("sjos-cli exits");
    assert!(out.status.success());
    let shown = stdout(&out);
    assert!(shown.contains(&message), "sjos-cli: {shown}");
    for short in ["ld", "eb:2"] {
        let rejected = short.parse::<sjos::Algorithm>().unwrap_err();
        assert!(shown.contains(&rejected), "sjos-cli accepted {short}: {shown}");
    }
    assert!(shown.contains("optimizer: DPAP-EB"), "sjos-cli: {shown}");
}

#[test]
fn dataflow_subcommand_follows_the_contract() {
    let out = planlint(&["dataflow", "--query", "//a/b/c", "--algo", "fp"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = planlint(&["dataflow", "--query", "//a/b/c", "--mutate", "insert-input-sort"]);
    assert_eq!(code(&out), 1);
}

#[test]
fn certify_subcommand_follows_the_contract() {
    let out = planlint(&["certify", "--query", "//a/b/c"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = planlint(&["certify", "--query", "//a/b/c", "--corrupt", "inflate-ubcost"]);
    assert_eq!(code(&out), 1);
}

#[test]
fn admit_subcommand_follows_the_contract() {
    // The sample document fits the default budget comfortably.
    let out = planlint(&["admit", "--query", "//a/b/c"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("ADMITTED"), "{}", stdout(&out));

    // A starved budget is a finding (exit 1), not a usage error.
    let out = planlint(&["admit", "--query", "//a/b/c", "--memory-budget", "16B"]);
    assert_eq!(code(&out), 1);
    assert!(stdout(&out).contains("REJECTED"), "{}", stdout(&out));

    let out = planlint(&["admit", "--query", "//a/b/c", "--batch-budget", "1"]);
    assert_eq!(code(&out), 1);
}

#[test]
fn admit_json_carries_bounds_and_report() {
    let out = planlint(&["admit", "--query", "//a/b/c", "--memory-budget", "64MiB", "--json"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    for key in [
        "\"bounds\"",
        "\"peak_bytes\"",
        "\"batch_pulls\"",
        "\"memory_budget\":67108864",
        "\"clean\":true",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
}

#[test]
fn rules_subcommand_needs_no_query() {
    let out = planlint(&["rules"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    for id in ["PL001", "PL034", "PL050", "PL060", "PL064"] {
        assert!(text.contains(id), "missing {id}");
    }
}

#[test]
fn rules_json_lists_the_whole_catalog() {
    let out = planlint(&["rules", "--json"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("\"id\":\"PL060\""), "{text}");
    assert!(text.contains("\"name\":\"bound-sound\""), "{text}");
    assert!(text.contains("\"severity\":\"warning\""), "redundant-sort is a warning");
    // One entry per rule, ids unique.
    let count = text.matches("\"id\":\"PL0").count();
    assert_eq!(count, sjos::planck::Rule::ALL.len());
}

#[test]
fn json_report_is_emitted_on_findings() {
    let out = planlint(&["--query", "//a/b/c", "--mutate", "flip-axis", "--json"]);
    assert_eq!(code(&out), 1);
    let text = stdout(&out);
    assert!(text.contains("\"clean\":false"), "{text}");
    assert!(text.contains("\"rule\":"), "{text}");
}

#[test]
fn conc_subcommand_certifies_the_workspace_clean() {
    let out = planlint(&["conc"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("static pass"), "names the static prong: {text}");
    assert!(text.contains("explorer"), "names the dynamic prong: {text}");
}

#[test]
fn conc_json_reports_files_and_explorer_outcomes() {
    let out = planlint(&["conc", "--json"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    for field in ["\"files\":", "\"explorer\":", "\"schedules\":", "\"clean\":true"] {
        assert!(text.contains(field), "{field} missing from conc --json: {text}");
    }
}

/// The explorer's search order is seed-pinned: two runs over the same
/// tree must emit byte-identical JSON (schedule counts included), so
/// CI replays the identical schedule set every time.
#[test]
fn conc_json_is_deterministic_across_runs() {
    let a = planlint(&["conc", "--json"]);
    let b = planlint(&["conc", "--json"]);
    assert_eq!(code(&a), 0);
    assert_eq!(stdout(&a), stdout(&b), "conc --json must be run-to-run deterministic");
}

#[test]
fn conc_selftest_proves_non_vacuity() {
    let out = planlint(&["conc", "--selftest"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn conc_usage_errors_exit_two() {
    // An empty --root has no sources to certify; --root outside conc
    // is a flag misuse.
    for args in [
        &["conc", "--root", "/nonexistent/dir"] as &[&str],
        &["--query", "//a/b/c", "--root", "."],
        &["rules", "--root", "."],
    ] {
        let out = planlint(args);
        assert_eq!(code(&out), 2, "args {args:?} must be a usage error");
    }
}
