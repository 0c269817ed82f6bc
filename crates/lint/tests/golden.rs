//! End-to-end tests against a fixture tree with known violations: golden
//! finding list, `[[allow]]` budgets that absorb it, CLI exit codes, and a
//! guard that the repository itself stays clean under its committed
//! configuration.

use byom_lint::{config, engine};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_config() -> config::Config {
    config::load(&fixture_root().join("lint.toml")).expect("fixture config parses")
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("byom_lint_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// The complete expected finding list for the fixture tree, one
/// `rule<TAB>path:line` per entry. Keep sorted the way `engine::scan`
/// sorts (by path, then line, then rule).
const GOLDEN: &[&str] = &[
    "float-reduction-order\tsrc/float_reduction.rs:5",
    "panic-surface\tsrc/panics.rs:4",
    "panic-surface\tsrc/panics.rs:5",
    "panic-surface\tsrc/panics.rs:7",
    "panic-surface\tsrc/panics.rs:9",
    "no-unseeded-rng\tsrc/rng.rs:6",
    "no-unseeded-rng\tsrc/rng.rs:7",
    "no-unordered-iteration\tsrc/unordered.rs:6",
    "no-unordered-iteration\tsrc/unordered.rs:9",
    // `for … in grouped(values)` — the taint tracker follows function
    // return types, not just local declarations.
    "no-unordered-iteration\tsrc/unordered.rs:25",
    // The `use std::time::{.., SystemTime}` import is flagged too: any
    // mention of SystemTime outside crates/bench is suspect by design.
    "no-wall-clock\tsrc/wall_clock.rs:2",
    "no-wall-clock\tsrc/wall_clock.rs:5",
    "no-wall-clock\tsrc/wall_clock.rs:6",
];

#[test]
fn fixture_findings_match_golden_list() {
    let (files, findings) = engine::scan(&fixture_root(), &fixture_config()).expect("scan");
    assert_eq!(files, 6, "all six fixture files are scanned");
    let got: Vec<String> = findings
        .iter()
        .map(|f| format!("{}\t{}:{}", f.rule, f.path, f.line))
        .collect();
    let want: Vec<String> = GOLDEN.iter().map(|s| s.to_string()).collect();
    assert_eq!(got, want);
}

#[test]
fn clean_fixture_produces_no_findings() {
    let (_, findings) = engine::scan(&fixture_root(), &fixture_config()).expect("scan");
    assert!(
        findings.iter().all(|f| f.path != "src/clean.rs"),
        "clean.rs must stay free of findings: {findings:#?}"
    );
}

#[test]
fn allow_budgets_absorb_the_fixture_findings_exactly() {
    let root = fixture_root();

    // Without [[allow]] entries every finding is new.
    let before = engine::check(&root, &fixture_config()).expect("check");
    assert_eq!(before.new_findings.len(), GOLDEN.len());
    assert_eq!(before.allowed_findings, 0);

    // One exact budget per (rule, file) group: the tree checks clean with
    // every finding allowed and no slack.
    let mut budgets = std::collections::BTreeMap::new();
    for entry in GOLDEN {
        let (rule, at) = entry.split_once('\t').expect("rule<TAB>path:line");
        let path = at.rsplit_once(':').expect("path:line").0;
        *budgets.entry((rule, path)).or_insert(0) += 1;
    }
    let mut source = String::from("roots = [\"src\"]\n");
    for ((rule, path), max) in &budgets {
        source.push_str(&format!(
            "[[allow]]\nrule = \"{rule}\"\npath = \"{path}\"\nmax = {max}\nreason = \"fixture\"\n"
        ));
    }
    let cfg = config::parse(&source).expect("allow config parses");
    let after = engine::check(&root, &cfg).expect("check");
    assert!(after.new_findings.is_empty(), "{after:#?}");
    assert_eq!(after.allowed_findings, GOLDEN.len());
    assert_eq!(after.allow_entries_used, budgets.len());
    assert!(after.notes.is_empty(), "exact budgets have no slack");
}

#[test]
fn cli_reports_violations_with_exit_code_one() {
    let bin = env!("CARGO_BIN_EXE_byom_lint");
    let output = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run byom_lint");
    assert_eq!(
        output.status.code(),
        Some(1),
        "violations must fail the check"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("panic-surface"),
        "report names the rule:\n{stdout}"
    );
    assert!(
        stdout.contains("src/panics.rs"),
        "report names the file:\n{stdout}"
    );
}

#[test]
fn cli_check_of_a_clean_tree_exits_zero_and_json_is_well_formed() {
    let bin = env!("CARGO_BIN_EXE_byom_lint");
    // Scan only the fixture's violation-free file.
    let config = temp_file("clean_only.toml");
    std::fs::write(&config, "roots = [\"src/clean.rs\"]\n").expect("write config");

    let check = Command::new(bin)
        .args(["check", "--json", "--root"])
        .arg(fixture_root())
        .arg("--config")
        .arg(&config)
        .output()
        .expect("run byom_lint check");
    assert_eq!(check.status.code(), Some(0), "a clean tree checks clean");
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(
        stdout.contains("\"files_scanned\":1,\"total_findings\":0"),
        "JSON report:\n{stdout}"
    );
    assert!(
        stdout.contains("\"new_findings\":[]"),
        "JSON report:\n{stdout}"
    );
    assert!(stdout.contains("\"ok\":true"), "JSON report:\n{stdout}");

    let _ = std::fs::remove_file(&config);
}

/// The acceptance criterion for the linter itself: the repository checks
/// clean under its committed `lint.toml`. Any violation anywhere in the
/// workspace beyond an `[[allow]]` budget fails this test.
#[test]
fn repository_tree_checks_clean() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let cfg = config::load(&repo.join("lint.toml")).expect("repo lint.toml parses");
    let outcome = engine::check(&repo, &cfg).expect("check");
    assert!(
        outcome.new_findings.is_empty(),
        "repository must check clean; new findings:\n{:#?}",
        outcome.new_findings
    );
}
