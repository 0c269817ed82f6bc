//! File walking, rule dispatch, and allowlist accounting.

use crate::config::Config;
use crate::lexer;
use crate::rules::{self, Finding};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The result of a `check` run.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    pub files_scanned: usize,
    /// Every finding, before any suppression.
    pub total_findings: usize,
    /// Findings covered by `[[allow]]` budgets.
    pub allowed_findings: usize,
    /// Number of `[[allow]]` entries that matched at least one finding.
    pub allow_entries_used: usize,
    /// Findings beyond all budgets. Non-empty means the check fails. When a
    /// `(rule, path)` group exceeds its budget, *all* of the group's findings
    /// are listed (a token-level analyzer cannot tell which one is new).
    pub new_findings: Vec<Finding>,
    /// Budget-slack and stale-entry diagnostics (never affect the exit
    /// code).
    pub notes: Vec<String>,
}

/// Recursively collect the repo-relative paths of every `.rs` file under the
/// configured roots, in sorted order (so runs are deterministic).
pub fn collect_files(root: &Path, config: &Config) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for top in &config.roots {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, config, &mut files)?;
        } else if dir.is_file() && top.ends_with(".rs") && !config.is_excluded(top) {
            files.push(top.clone());
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, config: &Config, out: &mut Vec<String>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if config.is_excluded(&rel) {
            continue;
        }
        if path.is_dir() {
            // Never descend into build output.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(root, &path, config, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Lex every file and run each rule that is in scope for it. Returns the
/// number of files scanned and all findings, sorted.
pub fn scan(root: &Path, config: &Config) -> Result<(usize, Vec<Finding>), String> {
    let files = collect_files(root, config)?;
    let mut findings = Vec::new();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        let lexed = lexer::lex(&source);
        for &rule in rules::ALL_RULES {
            if !config.scope(rule).applies_to(rel) {
                continue;
            }
            for mut f in rules::run_rule(rule, &lexed) {
                f.path = rel.clone();
                findings.push(f);
            }
        }
    }
    findings.sort();
    Ok((files.len(), findings))
}

/// Aggregate findings into per-`(rule, path)` counts.
fn count(findings: &[Finding]) -> BTreeMap<(String, String), usize> {
    let mut counts = BTreeMap::new();
    for f in findings {
        *counts
            .entry((f.rule.to_string(), f.path.clone()))
            .or_insert(0) += 1;
    }
    counts
}

/// Run a full check: scan, then charge each `(rule, path)` group against
/// its `[[allow]]` budget; whatever is left is a new violation. An entry
/// with unused budget gets a slack note, and one that matches no finding at
/// all gets a stale note.
pub fn check(root: &Path, config: &Config) -> Result<CheckOutcome, String> {
    let (files_scanned, findings) = scan(root, config)?;
    let counts = count(&findings);

    let mut outcome = CheckOutcome {
        files_scanned,
        total_findings: findings.len(),
        ..CheckOutcome::default()
    };

    let mut matched_allow_entries = std::collections::BTreeSet::new();
    let mut used_allow_entries = std::collections::BTreeSet::new();
    for ((rule, path), &n) in &counts {
        let allow = config.allow_for(rule, path);
        let allow_budget = allow.map_or(0, |a| a.max.unwrap_or(usize::MAX));
        let covered_by_allow = n.min(allow_budget);
        if let Some(a) = allow {
            let entry = (a.rule.as_str(), a.path.as_str());
            matched_allow_entries.insert(entry);
            if covered_by_allow > 0 {
                used_allow_entries.insert(entry);
            }
            if let Some(max) = a.max {
                if n < max {
                    outcome.notes.push(format!(
                        "allow budget slack: {rule} in {path} permits {max} but only {n} \
                         remain — tighten `max` in lint.toml"
                    ));
                }
            }
        }
        outcome.allowed_findings += covered_by_allow;
        if n > covered_by_allow {
            outcome.new_findings.extend(
                findings
                    .iter()
                    .filter(|f| f.rule == rule && &f.path == path)
                    .cloned(),
            );
        }
    }
    outcome.allow_entries_used = used_allow_entries.len();
    for a in &config.allow {
        if !matched_allow_entries.contains(&(a.rule.as_str(), a.path.as_str())) {
            outcome.notes.push(format!(
                "stale allow: {} in {} matches no finding — delete the entry from lint.toml",
                a.rule, a.path
            ));
        }
    }
    outcome.new_findings.sort();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    fn write(dir: &Path, rel: &str, contents: &str) {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, contents).unwrap();
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("byom_lint_engine_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CONFIG: &str = r#"
roots = ["src"]
exclude = []
[[allow]]
rule = "panic-surface"
path = "src/allowed.rs"
max = 1
reason = "test fixture"
"#;

    #[test]
    fn check_charges_allow_budgets_then_fails() {
        let root = temp_root("charge");
        write(&root, "src/allowed.rs", "fn f() { g().unwrap(); }\n");
        write(
            &root,
            "src/hot.rs",
            "fn f() { g().unwrap(); h().unwrap(); }\n",
        );
        let cfg = config::parse(CONFIG).unwrap();

        // allowed.rs is covered by its [[allow]] budget, hot.rs has none.
        let out = check(&root, &cfg).unwrap();
        assert_eq!(out.total_findings, 3);
        assert_eq!(out.allowed_findings, 1);
        assert_eq!(out.allow_entries_used, 1);
        assert_eq!(out.new_findings.len(), 2);
        assert!(out.new_findings.iter().all(|f| f.path == "src/hot.rs"));

        // A violation beyond the budget fails, and the whole group is
        // reported.
        write(
            &root,
            "src/allowed.rs",
            "fn f() { g().unwrap(); h().unwrap(); }\n",
        );
        let out = check(&root, &cfg).unwrap();
        assert_eq!(out.allowed_findings, 1);
        assert_eq!(out.new_findings.len(), 4);
        assert_eq!(
            out.new_findings
                .iter()
                .filter(|f| f.path == "src/allowed.rs")
                .count(),
            2,
            "whole group is reported"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fixed_violations_surface_as_budget_slack_notes() {
        let root = temp_root("slack");
        write(
            &root,
            "src/allowed.rs",
            "fn f() { g().unwrap(); h().unwrap(); }\n",
        );
        let cfg = config::parse(&CONFIG.replace("max = 1", "max = 2")).unwrap();
        let out = check(&root, &cfg).unwrap();
        assert!(out.new_findings.is_empty());
        assert!(out.notes.is_empty(), "an exact budget has no slack");

        write(&root, "src/allowed.rs", "fn f() { g().unwrap(); }\n");
        let out = check(&root, &cfg).unwrap();
        assert!(out.new_findings.is_empty());
        assert_eq!(out.notes.len(), 1, "{:?}", out.notes);
        assert!(out.notes[0].contains("allow budget slack"));
        assert!(out.notes[0].contains("permits 2 but only 1"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_allow_entry_without_findings_surfaces_as_a_stale_note() {
        let root = temp_root("stale");
        write(&root, "src/allowed.rs", "fn f() {}\n");
        let cfg = config::parse(&CONFIG.replace("max = 1", "max = 3")).unwrap();
        let out = check(&root, &cfg).unwrap();
        assert!(out.new_findings.is_empty());
        assert_eq!(out.allow_entries_used, 0);
        assert_eq!(
            out.notes,
            vec![
                "stale allow: panic-surface in src/allowed.rs matches no finding — delete the \
                 entry from lint.toml"
                    .to_string()
            ]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn files_are_collected_sorted_and_exclusions_hold() {
        let root = temp_root("walk");
        write(&root, "src/b.rs", "");
        write(&root, "src/a.rs", "");
        write(&root, "src/skip/c.rs", "");
        let cfg = config::parse("roots = [\"src\"]\nexclude = [\"src/skip\"]\n").unwrap();
        let files = collect_files(&root, &cfg).unwrap();
        assert_eq!(files, vec!["src/a.rs".to_string(), "src/b.rs".to_string()]);
        let _ = std::fs::remove_dir_all(&root);
    }
}
