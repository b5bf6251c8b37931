//! Pins every `minos-trace` rendering byte for byte: the default report,
//! `--assemble`, `--stats` and `--perfetto`, each on two inputs —
//!
//! * `tests/data/tcp_shard{0,1,2}.jsonl`: a committed 3-process TCP
//!   cluster trace (one JSONL shard per `minos-noded --trace-out`, each
//!   on its own clock epoch; four replicated puts through each of two
//!   coordinators, the `ci.sh` trace-assembly recipe);
//! * a seeded single-clock DES trace (MINOS-B, `<Lin, Strict>`, open-loop
//!   YCSB-A over 8 hot keys, so ops overlap) generated here.
//!
//! The expected renderings live next to the inputs as
//! `tests/data/<input>.<rendering>`. On a mismatch the test writes what
//! it rendered to the temp directory and names the file in its panic.

use minos_core::obs::{shared, JsonlWriter, SharedSink, TraceSink};
use minos_net::{run_open_loop_sharded_traced, Arch, ParMode};
use minos_types::{DdpModel, PersistencyModel, ShardMap, SimConfig};
use minos_workload::openloop::{OpenLoopSpec, Scenario};
use std::path::{Path, PathBuf};
use std::process::Command;

fn data(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("minos-trace-outputs-{}-{name}", std::process::id()))
}

/// Runs `minos-trace` over `inputs` with `flags` and returns its stdout.
fn minos_trace(flags: &[&str], inputs: &[PathBuf]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_minos-trace"))
        .args(flags)
        .args(inputs)
        .output()
        .expect("run minos-trace");
    assert!(
        out.status.success(),
        "minos-trace {flags:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Compares `actual` with the expected file `name`.
fn assert_pinned(name: &str, actual: &str) {
    let expected = std::fs::read_to_string(data(name)).unwrap_or_default();
    if expected != actual {
        let dump = temp(name);
        std::fs::write(&dump, actual).expect("write actual rendering");
        panic!(
            "rendering {name} differs from tests/data/{name}; this tree's output is in {}",
            dump.display()
        );
    }
}

/// Pins all four renderings of the trace in `inputs` under `prefix`.
fn pin_renderings(prefix: &str, inputs: &[PathBuf]) {
    let perfetto = temp(&format!("{prefix}.perfetto.json"));
    let perfetto_arg = perfetto.to_str().expect("utf-8 temp path");
    let report = minos_trace(&["--ops", "1000", "--perfetto", perfetto_arg], inputs);
    assert_pinned(&format!("{prefix}.report.txt"), &report);
    let exported = std::fs::read_to_string(&perfetto).expect("perfetto written");
    let _ = std::fs::remove_file(&perfetto);
    assert_pinned(&format!("{prefix}.perfetto.json"), &exported);
    let assembly = minos_trace(&["--ops", "1000", "--assemble"], inputs);
    assert_pinned(&format!("{prefix}.assemble.txt"), &assembly);
    let stats = minos_trace(&["--stats"], inputs);
    assert_pinned(&format!("{prefix}.stats.txt"), &stats);
}

#[test]
fn tcp_sample_renderings_are_pinned() {
    let shards: Vec<PathBuf> = (0..3)
        .map(|i| data(&format!("tcp_shard{i}.jsonl")))
        .collect();
    for s in &shards {
        let text = std::fs::read_to_string(s).expect("committed sample shard");
        assert!(text.ends_with('\n'), "{}: torn last line", s.display());
    }
    pin_renderings("tcp", &shards);
}

#[test]
fn des_trace_renderings_are_pinned() {
    let path = temp("des.jsonl");
    let writer = shared(JsonlWriter::create(&path).expect("create trace file"));
    let mut cfg = SimConfig::paper_defaults();
    cfg.nodes = 3;
    let spec = OpenLoopSpec::new(Scenario::YcsbA, 250_000.0)
        .with_records(8)
        .with_sessions(8)
        .with_total_ops(40);
    let sinks_for = |_group: u32| -> Vec<SharedSink> { vec![writer.clone()] };
    let run = run_open_loop_sharded_traced(
        Arch::baseline(),
        &cfg,
        DdpModel::lin(PersistencyModel::Strict),
        &spec,
        7,
        &ShardMap::uniform(1, 3, 3),
        ParMode::Single,
        Some(&sinks_for),
    );
    assert_eq!(run.result.completed, 40, "DES run left ops incomplete");
    writer.lock().unwrap().flush();
    pin_renderings("des", std::slice::from_ref(&path));
    let _ = std::fs::remove_file(&path);
}
