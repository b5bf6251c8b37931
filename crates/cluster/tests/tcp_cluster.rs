//! The real-socket runtime: in-process TCP nodes and genuine
//! multi-process clusters via the `minos-noded` binary.

use minos_cluster::tcp::{ShardedTcpClient, TcpClient, TcpNode, TcpNodeConfig};
use minos_types::{DdpModel, Key, NodeId, PersistencyModel, ScopeId, ShardMap};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Reserves `n` distinct loopback ports (racy in theory, fine for tests).
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

fn spawn_tcp_cluster(n: usize, model: DdpModel) -> (Vec<TcpNode>, Vec<SocketAddr>) {
    spawn_tcp_cluster_full(n, model, false, false, None)
}

fn spawn_tcp_cluster_with(
    n: usize,
    model: DdpModel,
    batching: bool,
    broadcast: bool,
) -> (Vec<TcpNode>, Vec<SocketAddr>) {
    spawn_tcp_cluster_full(n, model, batching, broadcast, None)
}

fn spawn_tcp_cluster_full(
    n: usize,
    model: DdpModel,
    batching: bool,
    broadcast: bool,
    placement: Option<ShardMap>,
) -> (Vec<TcpNode>, Vec<SocketAddr>) {
    // A probed port can be taken before it is bound — as the ephemeral
    // end of a connection a parallel test opens — so a failed bind
    // retries the whole cluster on fresh ports.
    for _ in 0..8 {
        let peers = free_addrs(n);
        let clients = free_addrs(n);
        let nodes: Vec<TcpNode> = (0..n)
            .map_while(|i| {
                TcpNode::serve(TcpNodeConfig {
                    node: NodeId(i as u16),
                    model,
                    peers: peers.clone(),
                    client_addr: clients[i],
                    persist_ns_per_kb: 1295,
                    batching,
                    broadcast,
                    trace_out: None,
                    metrics_out: None,
                    metrics_interval: Duration::from_secs(1),
                    chaos: None,
                    fault: None,
                    placement: placement.clone(),
                    nvm_log: None,
                    rejoin_donor: None,
                })
                .ok()
            })
            .collect();
        if nodes.len() == n {
            let client_addrs = nodes.iter().map(TcpNode::client_addr).collect();
            return (nodes, client_addrs);
        }
        nodes.into_iter().for_each(TcpNode::shutdown);
    }
    panic!("could not bind a TCP cluster in 8 attempts");
}

#[test]
fn tcp_put_then_get_from_every_node() {
    let (nodes, clients) = spawn_tcp_cluster(3, DdpModel::lin(PersistencyModel::Synchronous));

    let mut c0 = TcpClient::connect(clients[0]).unwrap();
    let ts = c0.put(Key(7), b"hello-tcp", None).unwrap();
    assert_eq!(ts, minos_types::Ts::new(NodeId(0), 1));

    for &addr in &clients {
        let mut c = TcpClient::connect(addr).unwrap();
        assert_eq!(c.get(Key(7)).unwrap(), b"hello-tcp");
    }
    for n in nodes {
        n.shutdown();
    }
}

/// A replicated put or a get is tens of microseconds of work on
/// loopback. A frame sent in two writes without `TCP_NODELAY` stalls each
/// exchange on a delayed ACK instead (about 44 ms on Linux); the median
/// keeps one scheduler stall from deciding the verdict.
#[test]
fn tcp_ops_are_not_held_behind_delayed_acks() {
    let (nodes, clients) = spawn_tcp_cluster(3, DdpModel::lin(PersistencyModel::Synchronous));
    let mut c = TcpClient::connect(clients[0]).unwrap();
    let value = vec![b'x'; 1024];
    let mut lat = Vec::new();
    for k in 0..60u64 {
        let began = Instant::now();
        c.put(Key(k % 8), &value, None).unwrap();
        lat.push(began.elapsed());
        let began = Instant::now();
        assert_eq!(c.get(Key(k % 8)).unwrap(), value);
        lat.push(began.elapsed());
    }
    lat.sort();
    let median = lat[lat.len() / 2];
    assert!(median < Duration::from_millis(10), "median op {median:?}");
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn tcp_writes_from_multiple_coordinators() {
    let (nodes, clients) = spawn_tcp_cluster(3, DdpModel::lin(PersistencyModel::Eventual));
    let mut c0 = TcpClient::connect(clients[0]).unwrap();
    let mut c2 = TcpClient::connect(clients[2]).unwrap();

    c0.put(Key(1), b"first", None).unwrap();
    c2.put(Key(1), b"second", None).unwrap();

    // Lin: after the second put returns, every node serves it.
    for &addr in &clients {
        let mut c = TcpClient::connect(addr).unwrap();
        assert_eq!(c.get(Key(1)).unwrap(), b"second", "stale read via {addr}");
    }
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn tcp_scope_model_with_persist() {
    let (nodes, clients) = spawn_tcp_cluster(2, DdpModel::lin(PersistencyModel::Scope));
    let mut c = TcpClient::connect(clients[0]).unwrap();
    let sc = ScopeId(3);
    c.put(Key(1), b"a", Some(sc)).unwrap();
    c.put(Key(2), b"b", Some(sc)).unwrap();
    c.persist_scope(sc).unwrap();
    assert_eq!(c.get(Key(1)).unwrap(), b"a");
    for n in nodes {
        n.shutdown();
    }
}

/// Same workload as `tcp_many_sequential_writes_converge`, but with the
/// batching + broadcast NIC capabilities on: replicated frames carry whole
/// dispatch batches and fan-outs are encoded once. The protocol outcome
/// must be identical.
#[test]
fn tcp_batched_broadcast_cluster_converges() {
    let (nodes, clients) =
        spawn_tcp_cluster_with(3, DdpModel::lin(PersistencyModel::Strict), true, true);
    let mut conns: Vec<TcpClient> = clients
        .iter()
        .map(|&a| TcpClient::connect(a).unwrap())
        .collect();
    for i in 0..20u32 {
        let c = (i % 3) as usize;
        conns[c]
            .put(Key(9), format!("b{i}").as_bytes(), None)
            .unwrap();
    }
    for c in &mut conns {
        assert_eq!(c.get(Key(9)).unwrap(), b"b19");
    }
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn tcp_many_sequential_writes_converge() {
    let (nodes, clients) = spawn_tcp_cluster(3, DdpModel::lin(PersistencyModel::Synchronous));
    let mut conns: Vec<TcpClient> = clients
        .iter()
        .map(|&a| TcpClient::connect(a).unwrap())
        .collect();
    for i in 0..30u32 {
        let c = (i % 3) as usize;
        conns[c]
            .put(Key(5), format!("v{i}").as_bytes(), None)
            .unwrap();
    }
    for c in &mut conns {
        assert_eq!(c.get(Key(5)).unwrap(), b"v29");
    }
    for n in nodes {
        n.shutdown();
    }
}

/// The genuine multi-process deployment: three `minos-noded` processes on
/// localhost, driven by a TCP client from the test process.
#[test]
fn three_process_cluster_end_to_end() {
    let bin = env!("CARGO_BIN_EXE_minos-noded");
    let peers = free_addrs(3);
    let clients = free_addrs(3);
    let peer_args: Vec<String> = peers.iter().map(ToString::to_string).collect();
    let metrics_path =
        std::env::temp_dir().join(format!("minos-noded-metrics-{}.prom", std::process::id()));
    let _ = std::fs::remove_file(&metrics_path);

    let mut children: Vec<std::process::Child> = (0..3)
        .map(|i| {
            let mut cmd = std::process::Command::new(bin);
            if i == 0 {
                // Node 0 also exercises the --metrics-out exporter.
                cmd.arg("--metrics-out").arg(&metrics_path);
            }
            cmd.arg(i.to_string())
                .arg("synch")
                .arg(clients[i].to_string())
                .args(&peer_args)
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn minos-noded")
        })
        .collect();

    // Wait for the client ports to come up.
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

    // Give peers a moment to bind before the first replicated write.
    std::thread::sleep(Duration::from_millis(200));

    let ts = conn.put(Key(42), b"multiprocess", None).unwrap();
    assert_eq!(ts.node, NodeId(0));

    // Read the replica from a *different process*.
    let mut conn2 = TcpClient::connect(clients[2]).unwrap();
    assert_eq!(conn2.get(Key(42)).unwrap(), b"multiprocess");

    // A second write through node 2, read back via node 1.
    conn2.put(Key(42), b"round-two", None).unwrap();
    let mut conn1 = TcpClient::connect(clients[1]).unwrap();
    assert_eq!(conn1.get(Key(42)).unwrap(), b"round-two");

    // Node 0 coordinated a write, so its periodic Prometheus dump must
    // eventually show a nonzero op count.
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        if let Ok(text) = std::fs::read_to_string(&metrics_path) {
            if text.contains("minos_op_latency_ns_count") {
                break text;
            }
        }
        assert!(
            Instant::now() < deadline,
            "metrics dump never appeared at {}",
            metrics_path.display()
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(
        metrics.contains(r#"model="synch""#),
        "metrics missing model label:\n{metrics}"
    );

    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }
    let _ = std::fs::remove_file(&metrics_path);
}

#[test]
fn sharded_tcp_cluster_routes_and_partitions() {
    // 2 shards × 2 replicas over 4 nodes: groups {0,1} {2,3}.
    let map = ShardMap::uniform(2, 4, 2);
    let (nodes, clients) = spawn_tcp_cluster_full(
        4,
        DdpModel::lin(PersistencyModel::Synchronous),
        false,
        false,
        Some(map.clone()),
    );

    // A client attached at node 0 routes every op to its key's shard.
    let mut c = ShardedTcpClient::new(map.clone(), NodeId(0), clients.clone());
    for k in 0..6u64 {
        c.put(Key(k), format!("s{k}").as_bytes(), None).unwrap();
    }
    for k in 0..6u64 {
        assert_eq!(c.get(Key(k)).unwrap(), format!("s{k}").as_bytes());
    }
    // Durability follows the placement: a node's NVM log holds exactly
    // the keys of the shards it replicates.
    for n in 0..4u16 {
        let keys: Vec<Key> = c
            .dump_durable(NodeId(n))
            .unwrap()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        for k in 0..6u64 {
            assert_eq!(
                keys.contains(&Key(k)),
                map.is_replica(NodeId(n), Key(k)),
                "key {k} durable on node {n}"
            );
        }
    }
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn sharded_tcp_scope_flush_follows_routed_writes() {
    let map = ShardMap::uniform(2, 4, 2);
    let (nodes, clients) = spawn_tcp_cluster_full(
        4,
        DdpModel::lin(PersistencyModel::Scope),
        false,
        false,
        Some(map.clone()),
    );
    let mut c = ShardedTcpClient::new(map.clone(), NodeId(0), clients);
    let sc = ScopeId(5);
    // Key 0 stays local (shard 0), key 1 routes to shard 1's home.
    c.put(Key(0), b"local", Some(sc)).unwrap();
    c.put(Key(1), b"remote", Some(sc)).unwrap();
    c.persist_scope(sc).unwrap();
    for k in [0u64, 1] {
        let durable = map.replicas_of_key(Key(k)).iter().any(|&r| {
            c.dump_durable(r)
                .unwrap()
                .iter()
                .any(|&(key, _)| key == Key(k))
        });
        assert!(durable, "scoped key {k} not durable in its group");
    }
    for n in nodes {
        n.shutdown();
    }
}

/// The full TCP crash → rejoin cycle in-process: a node with an on-disk
/// NVM log is shut down (its ports are released), survivors are told via
/// the peer-status admin op and keep serving with a shrunk quorum, and
/// the node is then re-served on the *same* addresses with
/// `rejoin_donor` set — replaying its own log file, catching up the
/// down-window writes from the donor, and serving them locally. The
/// donor crashes the moment `serve` returns: catch-up is part of start-up,
/// so it must be complete by then.
#[test]
fn tcp_node_rejoins_with_log_replay_and_donor_catchup() {
    let model = DdpModel::lin(PersistencyModel::Synchronous);
    let peers = free_addrs(3);
    let client_addrs = free_addrs(3);
    let log_path = std::env::temp_dir().join(format!(
        "minos-tcp-rejoin-{}-{:?}.nvmlog",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let cfg_for = |i: u16| TcpNodeConfig {
        node: NodeId(i),
        model,
        peers: peers.clone(),
        client_addr: client_addrs[i as usize],
        persist_ns_per_kb: 1295,
        batching: false,
        broadcast: false,
        trace_out: None,
        metrics_out: None,
        metrics_interval: Duration::from_secs(1),
        chaos: None,
        fault: None,
        placement: None,
        nvm_log: (i == 2).then(|| log_path.clone()),
        rejoin_donor: None,
    };
    let n0 = TcpNode::serve(cfg_for(0)).unwrap();
    let n1 = TcpNode::serve(cfg_for(1)).unwrap();
    let n2 = TcpNode::serve(cfg_for(2)).unwrap();
    let clients: Vec<SocketAddr> = [&n0, &n1, &n2].iter().map(|n| n.client_addr()).collect();

    let mut c0 = TcpClient::connect(clients[0]).unwrap();
    c0.put(Key(1), b"pre", None).unwrap();

    // Crash node 2 (ports released) and tell the survivors — the TCP
    // runtime's failure detection is the control plane's job.
    n2.shutdown();
    c0.set_peer_status(NodeId(2), false).unwrap();
    TcpClient::connect(clients[1])
        .unwrap()
        .set_peer_status(NodeId(2), false)
        .unwrap();

    // The down-window write: completes against the shrunk quorum, and
    // node 2 must learn it during catch-up (it never saw the frames).
    c0.put(Key(2), b"during", None).unwrap();

    // Rejoin: same node id, same addresses, own log + donor catch-up.
    let n2 = TcpNode::serve(TcpNodeConfig {
        rejoin_donor: Some(clients[1]),
        ..cfg_for(2)
    })
    .unwrap();
    n1.shutdown();
    c0.set_peer_status(NodeId(2), true).unwrap();
    c0.set_peer_status(NodeId(1), false).unwrap();
    let mut c2 = TcpClient::connect(n2.client_addr()).unwrap();
    c2.set_peer_status(NodeId(1), false).unwrap();

    // The rejoined node serves both its replayed and caught-up versions.
    assert_eq!(c2.get(Key(1)).unwrap(), b"pre", "own-log replay");
    assert_eq!(c2.get(Key(2)).unwrap(), b"during", "donor catch-up");
    // And both are in its durable log (the catch-up was persisted).
    let durable: Vec<Key> = c2
        .dump_durable()
        .unwrap()
        .iter()
        .map(|&(key, _)| key)
        .collect();
    assert!(durable.contains(&Key(1)) && durable.contains(&Key(2)));

    // The node is a full replica again: a new write reaches it.
    c0.put(Key(3), b"post", None).unwrap();
    assert_eq!(c2.get(Key(3)).unwrap(), b"post");

    for n in [n0, n2] {
        n.shutdown();
    }
    let _ = std::fs::remove_file(&log_path);
}

/// A write sent to a node that does not replicate its key is refused
/// (status 0) instead of being dropped: the client gets an error naming
/// the reason, and the connection stays usable. (Before the fix the
/// node kept the request pending forever and the blocking client hung,
/// hence the watchdog thread.)
#[test]
fn misrouted_tcp_write_is_refused_not_dropped() {
    // 2 shards × 2 replicas over 4 nodes: odd keys live on {2,3} only.
    let map = ShardMap::uniform(2, 4, 2);
    let (nodes, clients) = spawn_tcp_cluster_full(
        4,
        DdpModel::lin(PersistencyModel::Synchronous),
        false,
        false,
        Some(map.clone()),
    );
    assert!(!map.is_replica(NodeId(0), Key(1)) && map.is_replica(NodeId(0), Key(2)));

    let (tx, rx) = std::sync::mpsc::channel();
    let addr = clients[0];
    std::thread::spawn(move || {
        let mut c = TcpClient::connect(addr).unwrap();
        let misrouted = c.put(Key(1), b"lost?", None);
        let routed = c.put(Key(2), b"fine", None);
        let _ = tx.send((misrouted, routed));
    });
    let (misrouted, routed) = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("a mis-routed put must be answered, not left hanging");
    let err = misrouted.expect_err("node 0 does not replicate key 1");
    assert!(err.to_string().contains("not a replica"), "{err}");
    routed.expect("the connection survives a refused op");

    // Nothing of the refused write was applied anywhere.
    let mut c = ShardedTcpClient::new(map, NodeId(0), clients);
    assert_eq!(c.get(Key(1)).unwrap(), b"");
    assert_eq!(c.get(Key(2)).unwrap(), b"fine");
    for n in nodes {
        n.shutdown();
    }
}
