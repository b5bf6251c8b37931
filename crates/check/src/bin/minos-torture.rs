//! Seeded chaos-schedule torture over the live runtimes.
//!
//! ```text
//! minos-torture [--runtime threaded|tcp] [--model synch|strict|renf|event|scope|all]
//!     [--seeds N] [--start-seed S] [--nodes N] [--clients N] [--ops N] [--keys N]
//!     [--injections N] [--shards S] [--replicas K] [--no-crash] [--max-crashes N]
//!     [--workload ycsb-a|ycsb-b|ycsb-c|ycsb-d|ycsb-e|ycsb-f|compose|skew|geo]
//!     [--fault skip-inv@NODE|phantom-persist@NODE] [--expect-violation]
//! ```
//!
//! Runs `--seeds` consecutive seeds per selected model. Each seed derives
//! a deterministic chaos schedule: message delays/reorders plus up to
//! `--max-crashes` crash/rejoin points — a rolling restart when several
//! chain. Each seed then drives concurrent client traffic under it, and
//! checks the run for linearizability, persistency conformance and
//! liveness ([`minos_check::torture`] describes a run step by step, and
//! what `--runtime` changes). On the first violation the schedule is
//! greedily shrunk and the reproducing seed plus minimal schedule are
//! printed; exit status 1.
//!
//! `--shards S` sorts the key space into `S` shards placed uniformly at
//! `--replicas K` copies each (threaded runtime only): nodes host only
//! their shards, clients route through the cluster facade, the workload
//! mixes in multi-key cross-shard writes, and the checkers audit
//! durability per the placement map.
//!
//! `--workload` shapes the client mix after one of the open-loop
//! scenarios (RMW for YCSB A/F, scans for E, compose flows, the hot-key
//! skew storm, the WAN geo profile — the latter raises the threaded
//! cluster's wire latency to a 500 µs hop). Scenario ops decompose into
//! the primitive reads and writes the checkers already audit.
//!
//! `--fault` arms a deliberate protocol bug (requires a binary built
//! with `--features fault-injection`) — the mutation smoke mode used by
//! `ci.sh --chaos`, where `--expect-violation` inverts the exit status:
//! the checker *must* find the bug.

use minos_check::torture::{run_tcp, run_threaded, torture, TortureOptions};
use minos_types::{FaultKind, FaultSpec, PersistencyModel};
use minos_workload::openloop::Scenario;

fn usage() -> ! {
    eprintln!(
        "usage: minos-torture [--runtime threaded|tcp] \
         [--model synch|strict|renf|event|scope|all] [--seeds N] \
         [--start-seed S] [--nodes N] [--clients N] [--ops N] [--keys N] \
         [--injections N] [--shards S] [--replicas K] [--no-crash] \
         [--max-crashes N] \
         [--workload ycsb-a..ycsb-f|compose|skew|geo] \
         [--fault skip-inv@NODE|phantom-persist@NODE] \
         [--expect-violation]"
    );
    std::process::exit(2);
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == flag)?;
    if idx + 1 >= args.len() {
        eprintln!("{flag} requires an argument");
        usage();
    }
    let value = args.remove(idx + 1);
    args.remove(idx);
    Some(value)
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let present = args.iter().any(|a| a == flag);
    args.retain(|a| a != flag);
    present
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad {what}: {s}");
        usage();
    })
}

fn parse_fault(s: &str) -> FaultSpec {
    let Some((kind, node)) = s.split_once('@') else {
        eprintln!("bad --fault (want kind@node): {s}");
        usage();
    };
    let kind = match kind {
        "skip-inv" => FaultKind::SkipInv,
        "phantom-persist" => FaultKind::PhantomPersist,
        other => {
            eprintln!("unknown fault kind: {other}");
            usage();
        }
    };
    FaultSpec {
        node: parse_num(node, "fault node"),
        kind,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let runtime = take_flag(&mut args, "--runtime").unwrap_or_else(|| "threaded".into());
    let model_arg = take_flag(&mut args, "--model").unwrap_or_else(|| "all".into());
    let seeds: u64 = parse_num(
        &take_flag(&mut args, "--seeds").unwrap_or_else(|| "20".into()),
        "--seeds",
    );
    let start: u64 = parse_num(
        &take_flag(&mut args, "--start-seed").unwrap_or_else(|| "1".into()),
        "--start-seed",
    );
    let nodes: u16 = parse_num(
        &take_flag(&mut args, "--nodes").unwrap_or_else(|| "3".into()),
        "--nodes",
    );
    let clients: u16 = parse_num(
        &take_flag(&mut args, "--clients").unwrap_or_else(|| "3".into()),
        "--clients",
    );
    let ops: u32 = parse_num(
        &take_flag(&mut args, "--ops").unwrap_or_else(|| "15".into()),
        "--ops",
    );
    let keys: u64 = parse_num(
        &take_flag(&mut args, "--keys").unwrap_or_else(|| "4".into()),
        "--keys",
    );
    let injections: u32 = parse_num(
        &take_flag(&mut args, "--injections").unwrap_or_else(|| "5".into()),
        "--injections",
    );
    let shards: u32 = parse_num(
        &take_flag(&mut args, "--shards").unwrap_or_else(|| "0".into()),
        "--shards",
    );
    let replicas: u16 = parse_num(
        &take_flag(&mut args, "--replicas").unwrap_or_else(|| "2".into()),
        "--replicas",
    );
    let no_crash = take_switch(&mut args, "--no-crash");
    let max_crashes: u32 = parse_num(
        &take_flag(&mut args, "--max-crashes").unwrap_or_else(|| "2".into()),
        "--max-crashes",
    );
    let workload = take_flag(&mut args, "--workload").map(|s| {
        Scenario::from_flag(&s).unwrap_or_else(|| {
            eprintln!("unknown workload: {s}");
            usage();
        })
    });
    let fault = take_flag(&mut args, "--fault").map(|s| parse_fault(&s));
    let expect_violation = take_switch(&mut args, "--expect-violation");
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {args:?}");
        usage();
    }

    if fault.is_some() && !cfg!(feature = "fault-injection") {
        eprintln!(
            "--fault requires a binary built with --features fault-injection \
             (this one carries the correct protocol only)"
        );
        std::process::exit(2);
    }

    let models: Vec<PersistencyModel> = match model_arg.as_str() {
        "synch" => vec![PersistencyModel::Synchronous],
        "strict" => vec![PersistencyModel::Strict],
        "renf" => vec![PersistencyModel::ReadEnforced],
        "event" => vec![PersistencyModel::Eventual],
        "scope" => vec![PersistencyModel::Scope],
        "all" => vec![
            PersistencyModel::Synchronous,
            PersistencyModel::Strict,
            PersistencyModel::ReadEnforced,
            PersistencyModel::Eventual,
            PersistencyModel::Scope,
        ],
        other => {
            eprintln!("unknown model: {other}");
            usage();
        }
    };
    let tcp = match runtime.as_str() {
        "threaded" => false,
        "tcp" => true,
        other => {
            eprintln!("unknown runtime: {other}");
            usage();
        }
    };

    let mut found_violation = false;
    let mut total_ops = 0usize;
    for model in models {
        let mut opts = TortureOptions::new(model);
        opts.nodes = nodes;
        opts.clients = clients;
        opts.ops_per_client = ops;
        opts.keys = keys;
        opts.injections = injections;
        opts.allow_crash = !no_crash;
        opts.max_crashes = max_crashes;
        opts.fault = fault;
        opts.workload = workload;
        if shards > 0 {
            if tcp {
                eprintln!("--shards requires --runtime threaded");
                std::process::exit(2);
            }
            opts = opts.sharded(shards, replicas);
        }

        let runner = if tcp { run_tcp } else { run_threaded };
        let result = torture(start, seeds, &opts, runner, true);
        total_ops += result.ops_checked;
        if let Some(f) = result.failure {
            found_violation = true;
            println!();
            println!(
                "FAILED: {model:?} on {runtime} — seed {seed:#018x} \
                 (shrunk in {runs} re-runs)",
                seed = f.seed,
                runs = f.shrink_runs,
            );
            for v in &f.violations {
                println!("  violation: {v}");
            }
            print!("{}", f.shrunk);
            println!(
                "reproduce: minos-torture --runtime {runtime} --model \
                 {model} --seeds 1 --start-seed {seed}{shard_arg}{workload_arg}{fault_arg}",
                model = model_label(model),
                seed = f.seed,
                shard_arg = if shards > 0 {
                    format!(" --nodes {nodes} --shards {shards} --replicas {replicas}")
                } else {
                    String::new()
                },
                workload_arg = workload
                    .map(|w| format!(" --workload {}", w.label()))
                    .unwrap_or_default(),
                fault_arg = fault
                    .map(|f| format!(" --fault {}@{}", f.kind.label(), f.node))
                    .unwrap_or_default(),
            );
            break; // no point hammering the remaining models
        }
    }

    if found_violation {
        if expect_violation {
            println!("mutation smoke: violation found and shrunk, as expected");
            std::process::exit(0);
        }
        std::process::exit(1);
    }
    println!("all seeds clean ({total_ops} completed ops checked)");
    if expect_violation {
        eprintln!("mutation smoke FAILED: the armed fault was never detected");
        std::process::exit(1);
    }
}

fn model_label(m: PersistencyModel) -> &'static str {
    match m {
        PersistencyModel::Synchronous => "synch",
        PersistencyModel::Strict => "strict",
        PersistencyModel::ReadEnforced => "renf",
        PersistencyModel::Eventual => "event",
        PersistencyModel::Scope => "scope",
    }
}
