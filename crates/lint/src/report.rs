//! Human-readable and JSON reporters.

use crate::engine::CheckOutcome;
use crate::rules::Finding;

/// Render the outcome for terminals: one `path:line: [rule] message` per new
/// finding, then the budget notes and a summary.
pub fn human(outcome: &CheckOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.new_findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    if !outcome.new_findings.is_empty() {
        out.push('\n');
    }
    for note in &outcome.notes {
        out.push_str(&format!("note: {note}\n"));
    }
    out.push_str(&format!(
        "{} file(s) scanned, {} finding(s) total, {} allowed ({} suppression budget(s)), \
         {} NEW\n",
        outcome.files_scanned,
        outcome.total_findings,
        outcome.allowed_findings,
        outcome.allow_entries_used,
        outcome.new_findings.len(),
    ));
    if outcome.new_findings.is_empty() {
        out.push_str("OK: no new violations\n");
    } else {
        out.push_str(
            "FAIL: new violations — fix them, or justify them with an [[allow]] entry \
             in lint.toml\n",
        );
    }
    out
}

/// Render the outcome as a single JSON object (hand-rolled writer; the lint
/// crate is dependency-free by policy).
pub fn json(outcome: &CheckOutcome) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"files_scanned\":{},\"total_findings\":{},\"allowed_findings\":{},\
         \"new_findings\":[",
        outcome.files_scanned, outcome.total_findings, outcome.allowed_findings,
    ));
    for (i, f) in outcome.new_findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_finding(f));
    }
    out.push_str("],\"notes\":[");
    for (i, n) in outcome.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(n));
    }
    out.push_str(&format!("],\"ok\":{}}}", outcome.new_findings.is_empty()));
    out
}

fn render_finding(f: &Finding) -> String {
    format!(
        "{{\"path\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
        escape(&f.path),
        f.line,
        escape(f.rule),
        escape(&f.message)
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(finding: Option<Finding>) -> CheckOutcome {
        CheckOutcome {
            files_scanned: 3,
            total_findings: finding.iter().count(),
            allowed_findings: 0,
            allow_entries_used: 0,
            new_findings: finding.into_iter().collect(),
            notes: vec!["a \"note\"".into()],
        }
    }

    #[test]
    fn human_report_says_ok_when_clean() {
        let r = human(&outcome_with(None));
        assert!(r.contains("OK: no new violations"));
        assert!(r.contains("3 file(s) scanned"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let f = Finding {
            path: "a/b.rs".into(),
            line: 7,
            rule: "panic-surface",
            message: "say \"no\"".into(),
        };
        let j = json(&outcome_with(Some(f)));
        assert!(j.contains("\"ok\":false"));
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("a \\\"note\\\""));
    }
}
