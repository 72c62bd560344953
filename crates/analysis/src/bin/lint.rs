//! Workspace lint driver.
//!
//! ```text
//! cargo run -p cloudlet-analysis --bin lint [-- --root DIR] [--json] [--allowlist FILE]
//! ```
//!
//! Scans every Rust source file under the workspace root, applies
//! rules R1–R6 (see `analysis` crate docs), filters through the
//! committed `lint.allow`, and reports what remains. The root is
//! `--root`, or else resolved at run time by `analysis::default_root`
//! (Cargo's `CARGO_MANIFEST_DIR`, then the current directory).
//!
//! * Human-readable findings go to **stderr**; `--json` additionally
//!   prints a machine-readable array to **stdout**.
//! * Exit 0: clean. Exit 1: findings. Exit 2: operational error
//!   (unreadable file, malformed allowlist).

use std::path::PathBuf;
use std::process::ExitCode;

use analysis::report::render_json;
use analysis::{analyze_workspace, load_allowlist};

struct Args {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: analysis::default_root(),
        allowlist: None,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root =
                    PathBuf::from(it.next().ok_or_else(|| "--root needs a value".to_owned())?);
            }
            "--allowlist" => {
                args.allowlist = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--allowlist needs a value".to_owned())?,
                ));
            }
            "--json" => args.json = true,
            "--help" | "-h" => {
                return Err("usage: lint [--root DIR] [--allowlist FILE] [--json]".to_owned());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("lint: {message}");
            return ExitCode::from(2);
        }
    };
    let allow_path = args
        .allowlist
        .clone()
        .unwrap_or_else(|| args.root.join("lint.allow"));
    let mut allow = match load_allowlist(&allow_path) {
        Ok(allow) => allow,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = match analyze_workspace(&args.root, &mut allow) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        println!("{}", render_json(&findings));
    }
    for finding in &findings {
        eprintln!("{}", finding.human());
    }
    for entry in allow.unused() {
        eprintln!(
            "lint: note: allowlist entry at lint.allow:{} matched nothing ({})",
            entry.line, entry.reason
        );
    }
    if findings.is_empty() {
        eprintln!("lint: clean ({} allowlist entries)", allow.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {} finding(s)", findings.len());
        ExitCode::from(1)
    }
}
