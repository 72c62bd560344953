//! Argument checks of the `ablations` binary that must fire before any
//! study runs.

use std::process::Command;

/// Runs `ablations` with `args`, returning its exit code and stderr.
fn ablations(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .args(args)
        .output()
        .expect("ablations runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
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
fn unknown_study_exits_2() {
    let (code, stderr) = ablations(&["--study", "hotpath"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown study \"hotpath\""), "{stderr}");
}
