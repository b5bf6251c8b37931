//! `cargo test` for the benchmark package: every workload at a 0.5 s
//! window, the layer walk, the traced runs and the micro loops, against a
//! freshly built `minos-noded`. A refactor that breaks the bound surface
//! (see README.md) fails here, in about a minute, rather than in a full
//! benchmark run.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke() {
    let bench = Path::new(env!("CARGO_BIN_EXE_minos-benchmark"));
    // <target>/<profile>/minos-benchmark
    let target = bench.ancestors().nth(2).expect("target directory");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");

    let built = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .args(["-p", "minos-cluster", "--bin", "minos-noded"])
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("run cargo");
    assert!(built.success(), "building minos-noded failed");

    let out = Command::new(bench)
        .arg("--smoke")
        .arg("--noded")
        .arg(target.join("release/minos-noded"))
        .output()
        .expect("run minos-benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\":true,"),
        "unexpected result line: {last}"
    );
    for workload in [
        "tcp-ycsb-a",
        "tcp-ycsb-c",
        "tcp-pipe-ycsb-a",
        "threaded-ycsb-a",
        "des-b-ycsb-a",
        "des-o-ycsb-a",
    ] {
        assert!(
            last.contains(&format!("\"{workload}/ops_per_s\"")),
            "{workload} missing from the result line"
        );
    }
}
