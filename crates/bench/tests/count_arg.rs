//! The artifact binaries that take a count reject a bad one before any
//! simulation runs: nonzero exit, nothing on stdout, a usage line on
//! stderr.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"))
}

#[test]
fn bad_counts_exit_nonzero_before_any_output() {
    for exe in [
        env!("CARGO_BIN_EXE_fig6"),
        env!("CARGO_BIN_EXE_fig7"),
        env!("CARGO_BIN_EXE_rowhammer"),
    ] {
        for args in [&["0"][..], &["abc"], &["1", "2"]] {
            let out = run(exe, args);
            assert!(!out.status.success(), "{exe} {args:?} exited 0");
            assert!(out.stdout.is_empty(), "{exe} {args:?} printed to stdout");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("usage:"), "{exe} {args:?}: {stderr}");
        }
    }
}

#[test]
fn a_positive_count_runs() {
    let out = run(env!("CARGO_BIN_EXE_rowhammer"), &["10"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(10 blind attacks per row)"), "{stdout}");
}
