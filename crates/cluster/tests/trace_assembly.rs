//! End-to-end distributed tracing over the real-socket runtime: three
//! `minos-noded` *processes* (each with its own clock epoch) write one
//! JSONL trace shard apiece; the assembler must merge them into
//! skew-corrected per-op timelines with causally ordered hops.

use minos_cluster::tcp::TcpClient;
use minos_core::obs::{assemble, parse_jsonl, Category, OpKind};
use minos_types::Key;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
        })
        .collect()
}

#[test]
fn three_process_shards_assemble_into_causal_timelines() {
    let bin = env!("CARGO_BIN_EXE_minos-noded");
    let peers = free_addrs(3);
    let clients = free_addrs(3);
    let peer_args: Vec<String> = peers.iter().map(ToString::to_string).collect();
    let shard_paths: Vec<PathBuf> = (0..3)
        .map(|i| {
            std::env::temp_dir().join(format!(
                "minos-trace-shard-{}-{i}.jsonl",
                std::process::id()
            ))
        })
        .collect();
    for p in &shard_paths {
        let _ = std::fs::remove_file(p);
    }

    let mut children: Vec<std::process::Child> = (0..3)
        .map(|i| {
            std::process::Command::new(bin)
                .arg("--trace-out")
                .arg(&shard_paths[i])
                .arg(i.to_string())
                .arg("synch")
                .arg(clients[i].to_string())
                .args(&peer_args)
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn minos-noded")
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut conn = loop {
        match TcpClient::connect(clients[0]) {
            Ok(c) => break Some(c),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => break None,
        }
    }
    .expect("node 0 client port never came up");
    std::thread::sleep(Duration::from_millis(200));

    // Replicated writes through two different coordinators, so shards
    // from every process carry both sends and receives (the offset fit
    // needs traffic in both directions).
    for i in 0..5u64 {
        conn.put(Key(i), format!("v{i}").as_bytes(), None).unwrap();
    }
    let mut conn2 = TcpClient::connect(clients[2]).unwrap();
    for i in 0..5u64 {
        conn2.put(Key(i), format!("w{i}").as_bytes(), None).unwrap();
    }
    assert_eq!(conn.get(Key(4)).unwrap(), b"w4");

    // The engine loop flushes its JSONL sink after every input batch, so
    // a hard kill must still leave complete shards behind.
    std::thread::sleep(Duration::from_millis(200));
    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }

    let mut records = Vec::new();
    for p in &shard_paths {
        let text = std::fs::read_to_string(p).expect("read trace shard");
        records.extend(parse_jsonl(&text));
    }
    records.sort_by_key(|r| r.at_ns);
    let asm = assemble(&records);

    // Every assembled hop must be causally ordered after correction.
    assert_eq!(asm.causal_violations(), 0, "reversed hops after skew fit");
    assert!(asm.fit.samples > 0, "no cross-node offset samples");

    // The writes must have assembled into complete cross-node timelines.
    let complete: Vec<_> = asm
        .timelines
        .iter()
        .filter(|t| t.complete_ns.is_some())
        .collect();
    assert!(
        complete.len() >= 10,
        "expected >=10 completed timelines, got {}",
        complete.len()
    );
    let cross_node = complete
        .iter()
        .filter(|t| t.hops.iter().any(|h| h.from != h.to))
        .count();
    assert!(cross_node >= 10, "writes produced no cross-node hops");

    for t in complete.iter().filter(|t| t.op == OpKind::Write) {
        // A replicated synch write crosses the wire at least twice:
        // INV fan-out out, ACKs back.
        assert!(
            t.hops.len() >= 2,
            "trace {:#x} has {} hops",
            t.trace_id,
            t.hops.len()
        );
        // Fig. 4 segments tile [admit, complete] exactly.
        let tiled: u64 = t.segments.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(
            tiled,
            t.total_ns(),
            "segments do not tile [admit, complete] for trace {:#x}",
            t.trace_id
        );
        // A synchronous write waits on the network and on NVM persists;
        // both must show up in the attribution.
        let bd: u64 = t
            .segments
            .iter()
            .filter(|(c, _)| *c == Category::Communication)
            .map(|&(_, ns)| ns)
            .sum();
        assert!(
            bd > 0,
            "trace {:#x} shows no communication time",
            t.trace_id
        );
    }

    for p in &shard_paths {
        let _ = std::fs::remove_file(p);
    }
}
