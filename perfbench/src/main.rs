//! Layered benchmark for the BYOM storage-placement reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <online|retrain|sweep> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run generates its traces from `--seed`, times the workload's phases
//! by calling the repository crates' public APIs, checks the outputs, and
//! prints one JSON object as its last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from spans
//! around each layer's calls) with `--trace 1`. A full record with run
//! stamps, every metric and the spans is written to `perfbench/results/`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod probe;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Metric, Outcome};

const USAGE: &str =
    "usage: byom_perfbench --workload <online|retrain|sweep> --seed <n> --seconds <n> --trace <0|1>";

/// Command-line arguments, all required.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("invalid value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|_| format!("invalid --seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::Workload::named(&args.workload) else {
        eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let outcome = match workload::run(&w, args.seed, args.seconds, args.trace, started) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: workload {} failed: {e}", w.name);
            return ExitCode::from(1);
        }
    };

    let mut stamps = outcome.stamps.clone();
    stamps.push(("git_rev", git_rev()));
    let record = record_json(&args, &stamps, &outcome);
    match write_record(&args, &record) {
        Ok(path) => eprintln!("record: {}", path.display()),
        Err(e) => eprintln!("warning: could not write the result record: {e}"),
    }
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    for (k, v) in &stamps {
        eprintln!("{k}: {v}");
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        eprintln!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    );
    ExitCode::SUCCESS
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The full result record: stamps, both metric sets, failures, and (for a
/// traced run) the per-name span summary and every span.
fn record_json(args: &Args, stamps: &[(&str, String)], o: &Outcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"workload\": {},", quote(&args.workload));
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", num(args.seconds));
    let _ = writeln!(s, "  \"trace\": {},", args.trace);
    let stamp_body: Vec<String> = stamps
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let _ = writeln!(s, "  \"stamps\": {{{}}},", stamp_body.join(", "));
    let _ = writeln!(s, "  \"correct\": {},", o.failed == 0);
    let _ = writeln!(s, "  \"attempted\": {},", o.attempted);
    let _ = writeln!(s, "  \"failed\": {},", o.failed);
    let failures: Vec<String> = o.failures.iter().map(|f| quote(f)).collect();
    let _ = writeln!(s, "  \"failures\": [{}],", failures.join(", "));
    let _ = writeln!(s, "  \"end_to_end\": {},", metrics_json(&o.end_to_end));
    let _ = writeln!(s, "  \"per_layer\": {},", metrics_json(&o.per_layer));
    let summary: Vec<String> = o
        .tracer
        .summary()
        .iter()
        .map(|(name, t)| {
            format!(
                "    {}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                quote(name),
                t.count,
                num(t.total_ns as f64 / 1e6),
                num(t.self_ns as f64 / 1e6)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"span_summary\": {{\n{}\n  }},", summary.join(",\n"));
    // Spans as [name, start_ns, end_ns, parent index or -1].
    s.push_str("  \"spans\": [");
    for (i, sp) in o.tracer.spans().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "\n    [{}, {}, {}, {}]",
            quote(sp.name),
            sp.start_ns,
            sp.end_ns,
            parent
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn write_record(args: &Args, record: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record)?;
    Ok(path)
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory when there is one.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "online",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "online");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args(&["--workload", "online", "--seed", "7", "--seconds", "10"]).is_err());
        assert!(args(&[
            "--workload",
            "online",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "online",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn every_declared_metric_is_named_in_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in workload::END_TO_END
            .iter()
            .chain(workload::PER_LAYER.iter())
        {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }
}
