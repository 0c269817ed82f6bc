//! CLI entry point: `byom_lint check [--json]`.

#![forbid(unsafe_code)]

use byom_lint::{config, engine, report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
byom_lint — determinism & panic-surface analyzer for this workspace

USAGE:
    cargo run -p byom_lint -- check [OPTIONS]

COMMANDS:
    check    scan the tree and fail (exit 1) on violations beyond the
             lint.toml [[allow]] budgets

OPTIONS:
    --root <DIR>        repository root to scan        [default: .]
    --config <FILE>     configuration file             [default: <root>/lint.toml]
    --json              emit a JSON report instead of text
";

struct Args {
    command: String,
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(|| "missing command".to_string())?;
    let mut parsed = Args {
        command,
        root: PathBuf::from("."),
        config: None,
        json: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => parsed.root = take_value(&mut args, "--root")?.into(),
            "--config" => parsed.config = Some(take_value(&mut args, "--config")?.into()),
            "--json" => parsed.json = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(parsed)
}

fn take_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.command != "check" {
        eprintln!("error: unknown command `{}`\n\n{USAGE}", args.command);
        return ExitCode::from(2);
    }
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("lint.toml"));
    let config = match config::load(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    match engine::check(&args.root, &config) {
        Ok(outcome) => {
            if args.json {
                println!("{}", report::json(&outcome));
            } else {
                print!("{}", report::human(&outcome));
            }
            if outcome.new_findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
