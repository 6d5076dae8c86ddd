//! The `reproduce` command line: a mistyped target must fail the run
//! (exit 2, target list on stderr) instead of running nothing.

use std::process::Command;

#[test]
fn unknown_target_exits_2_and_lists_targets() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fleeet", "--smoke"])
        .output()
        .expect("reproduce runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target 'fleeet'"), "{stderr}");
    assert!(
        stderr.contains("fleet") && stderr.contains("check-regression"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn help_lists_the_same_targets() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--help")
        .output()
        .expect("reproduce runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("targets: table1 "), "{stdout}");
    assert!(stdout.contains(" check-regression all\n"), "{stdout}");
}
