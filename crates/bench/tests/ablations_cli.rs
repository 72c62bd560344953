//! Argument checks of the `ablations`, `figures` and `tables` binaries
//! that must fire before any section runs.

use std::process::Command;

/// Runs the binary at `exe` with `args`, returning its exit code, stdout
/// and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .expect("the binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Runs `ablations` with `args`, returning its exit code and stderr.
fn ablations(args: &[&str]) -> (Option<i32>, String) {
    let (code, _, stderr) = run(env!("CARGO_BIN_EXE_ablations"), args);
    (code, stderr)
}

#[test]
fn out_with_more_than_one_study_exits_2_and_writes_nothing() {
    let out = std::env::temp_dir().join(format!("ablations-cli-{}.json", std::process::id()));
    let out_arg = out.to_str().expect("utf-8 temp path");
    for studies in [
        &["--study", "fleet", "--study", "arbiter"][..],
        &["--study", "all"][..],
    ] {
        let mut args = studies.to_vec();
        args.extend(["--scale", "test", "--out", out_arg]);
        let (code, stderr) = ablations(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--out takes one study"), "{stderr}");
        assert!(!out.exists(), "{args:?} wrote {}", out.display());
    }
}

#[test]
fn out_with_a_study_that_writes_no_artifact_exits_2_and_writes_nothing() {
    let out = std::env::temp_dir().join(format!("ablations-cli-none-{}.json", std::process::id()));
    let out_arg = out.to_str().expect("utf-8 temp path");
    for study in ["lambda", "fleet"] {
        let (code, stdout, stderr) = run(
            env!("CARGO_BIN_EXE_ablations"),
            &["--study", study, "--scale", "test", "--out", out_arg],
        );
        assert_eq!(code, Some(2), "{study}: {stderr}");
        assert!(stdout.is_empty(), "{study} printed {stdout:?}");
        assert!(
            stderr.contains(&format!("study \"{study}\" writes no artifact")),
            "{stderr}"
        );
        assert!(!out.exists(), "{study} wrote {}", out.display());
    }
}

#[test]
fn unknown_study_exits_2() {
    let (code, stderr) = ablations(&["--study", "hotpath"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown study \"hotpath\""), "{stderr}");
}

#[test]
fn bad_ids_and_flag_values_exit_2_before_any_output() {
    let figures = env!("CARGO_BIN_EXE_figures");
    let tables = env!("CARGO_BIN_EXE_tables");
    let ablations = env!("CARGO_BIN_EXE_ablations");
    for (exe, args, message) in [
        (figures, &["--fig", "99"][..], "unknown figure \"99\""),
        (tables, &["--table", "7"][..], "unknown table \"7\""),
        (ablations, &["--seed", "x"][..], "--seed needs a number"),
        (tables, &["--seed"][..], "--seed needs a value"),
        (figures, &["--scale", "huge"][..], "unknown scale \"huge\""),
        (
            ablations,
            &["--study", "fleet", "--scale"][..],
            "--scale needs a value",
        ),
    ] {
        let (code, stdout, stderr) = run(exe, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn out_into_a_missing_directory_exits_2_before_any_output() {
    let missing = std::env::temp_dir()
        .join(format!("ablations-cli-missing-{}", std::process::id()))
        .join("x.json");
    let out_arg = missing.to_str().expect("utf-8 temp path");
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_ablations"),
        &["--study", "arbiter", "--scale", "test", "--out", out_arg],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "printed {stdout:?}");
    assert!(stderr.contains("no such directory"), "{stderr}");
}

#[test]
fn a_failed_out_write_names_the_path_and_exits_1() {
    // The directory itself exists, so the argument checks pass; writing
    // a file over it fails only once the study has run.
    let dir = std::env::temp_dir();
    let out_arg = dir.to_str().expect("utf-8 temp path");
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_ablations"),
        &["--study", "arbiter", "--scale", "test", "--out", out_arg],
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stdout.is_empty(), "the study ran before the write");
    assert!(
        stderr.contains(&format!("cannot write --out {out_arg:?}")),
        "{stderr}"
    );
}
