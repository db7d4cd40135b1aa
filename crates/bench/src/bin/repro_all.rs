//! Runs every experiment binary in sequence (the full reproduction pass).
//!
//! `cargo build --release -p muse-bench --bins && ./target/release/repro_all`
//! (it launches the binaries from its own directory, so build them all).

use std::process::Command;

use muse_bench::ARTIFACT_BINARIES;

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for bin in ARTIFACT_BINARIES {
        println!("\n######## {bin} ########");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
    }
    println!("\nAll experiments completed.");
}
