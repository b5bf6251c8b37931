//! The same protocol engines run under five harnesses (loopback cluster,
//! discrete-event simulator, threaded cluster, TCP cluster, model
//! checker). These tests pin down that the harnesses agree on protocol
//! outcomes.

use minos::check::HistoryRecorder;
use minos::cluster::tcp::{TcpClient, TcpNode, TcpNodeConfig};
use minos::cluster::Cluster;
use minos::core::loopback::{BCluster, LoopProtocol, Loopback, OCluster};
use minos::core::obs::{shared, OpKind, RingRecorder, SharedSink};
use minos::core::runtime::{Baseline, Engine, Offload};
use minos::kv::hash_key;
use minos::mc::{check_baseline, check_offload, Workload};
use minos::net::{Arch, BSim, CompletionKind, CostModel, OSim, Sim};
use minos::types::{
    ClusterConfig, DdpModel, Key, NodeId, PersistencyModel, ScopeId, ShardMap, SimConfig, Ts, Value,
};
use std::collections::BTreeMap;

fn all_models() -> [DdpModel; 5] {
    DdpModel::all_lin()
}

/// Two concurrent conflicting writes, submitted identically at nodes
/// `a` and `b` of an `n`-node loopback cluster and DES: both harnesses
/// must converge to the same winner (read back at `observer`) — the
/// timestamp order is protocol-determined, not harness-determined.
fn loopback_and_simulator_converge_identically<P: LoopProtocol + CostModel>(
    arch: Arch,
    n: usize,
    [a, b, observer]: [NodeId; 3],
) {
    for model in all_models() {
        if model.persistency == PersistencyModel::Scope {
            continue;
        }
        let key = hash_key("x");
        let mut loopback = Loopback::<P>::new(n, model);
        let mut sim = Sim::<P>::new(SimConfig::paper_defaults().with_nodes(n), arch, model);
        loopback.submit_write(a, key, "a".into(), None);
        loopback.submit_write(b, key, "b".into(), None);
        sim.submit_write(0, a, key, "a".into(), None);
        sim.submit_write(0, b, key, "b".into(), None);
        loopback.run();
        sim.run_to_idle();
        let lw = loopback.engine(observer).record_value(key).unwrap();
        let sw = sim.engine(observer).record_value(key).unwrap();
        assert_eq!(lw, sw, "{model}: harness-dependent winner");
    }
}

#[test]
fn loopback_and_simulator_converge_identically_for_b() {
    let nodes = [NodeId(1), NodeId(3), NodeId(0)];
    loopback_and_simulator_converge_identically::<Baseline>(Arch::baseline(), 4, nodes);
}

#[test]
fn loopback_and_simulator_converge_identically_for_o() {
    let nodes = [NodeId(0), NodeId(2), NodeId(1)];
    loopback_and_simulator_converge_identically::<Offload>(Arch::minos_o(), 3, nodes);
}

/// One step of the parity workload.
enum POp {
    Write(NodeId, Key, &'static str),
    Read(NodeId, Key),
    PersistScope(NodeId),
}

/// The shared parity workload: per-key write/read interleavings across
/// all three nodes, every read preceded by at least one write to its key.
fn parity_ops() -> Vec<POp> {
    use POp::{PersistScope, Read, Write};
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let (k1, k2, k3) = (Key(101), Key(202), Key(303));
    vec![
        Write(n0, k1, "a0"),
        Write(n1, k1, "a1"),
        Read(n2, k1),
        Write(n2, k2, "b0"),
        Read(n0, k2),
        Write(n1, k2, "b1"),
        Read(n2, k2),
        Write(n0, k3, "c0"),
        Write(n0, k3, "c1"),
        Read(n1, k3),
        Write(n2, k1, "a2"),
        Read(n0, k1),
        PersistScope(n0),
        PersistScope(n1),
        PersistScope(n2),
    ]
}

/// The scope a node's writes are tagged with under `<Lin, Scope>`.
fn scope_of(node: NodeId) -> ScopeId {
    ScopeId(u32::from(node.0) + 1)
}

/// Per-key completion sequence: operation kind and version, in
/// submission order, plus the value each completed write installed.
#[derive(Debug, Default, PartialEq, Eq)]
struct ParityTrace {
    per_key: BTreeMap<Key, Vec<(char, Ts)>>,
    write_values: BTreeMap<(Key, Ts), Value>,
}

impl ParityTrace {
    fn write(&mut self, key: Key, ts: Ts, value: Value) {
        self.per_key.entry(key).or_default().push(('W', ts));
        self.write_values.insert((key, ts), value);
    }

    fn read(&mut self, key: Key, ts: Ts, value: Option<&Value>) {
        self.per_key.entry(key).or_default().push(('R', ts));
        if let Some(v) = value {
            // The observed value must be the one installed at `ts`.
            assert_eq!(Some(v), self.write_values.get(&(key, ts)));
        }
    }
}

fn loopback_trace<P: LoopProtocol>(model: DdpModel, scoped: bool) -> ParityTrace {
    use minos::core::loopback::Completion;
    let mut cl = Loopback::<P>::new(3, model);
    let mut trace = ParityTrace::default();
    let mut seen = 0;
    for op in parity_ops() {
        match op {
            POp::Write(node, key, v) => {
                cl.submit_write(node, key, v.into(), scoped.then(|| scope_of(node)));
            }
            POp::Read(node, key) => {
                cl.submit_read(node, key);
            }
            POp::PersistScope(node) => {
                if !scoped {
                    continue;
                }
                cl.submit_persist_scope(node, scope_of(node));
            }
        }
        cl.run();
        for c in &cl.completions()[seen..] {
            match c {
                Completion::Write { key, ts, .. } => {
                    let POp::Write(_, _, v) = op else {
                        panic!("{model}: write completion for a non-write")
                    };
                    trace.write(*key, *ts, v.into());
                }
                Completion::Read { key, value, ts, .. } => {
                    trace.read(*key, *ts, Some(value));
                }
                Completion::PersistScope { .. } => {}
                Completion::MultiWrite { .. } => {
                    unreachable!("no multi-key writes in the parity workload")
                }
            }
        }
        seen = cl.completions().len();
    }
    trace
}

fn simulator_trace<P: CostModel>(arch: Arch, model: DdpModel, scoped: bool) -> ParityTrace {
    let mut sim = Sim::<P>::new(SimConfig::paper_defaults().with_nodes(3), arch, model);
    let mut trace = ParityTrace::default();
    let mut t = 0;
    for op in parity_ops() {
        let submitted = match op {
            POp::Write(node, key, v) => {
                Some(sim.submit_write(t, node, key, v.into(), scoped.then(|| scope_of(node))))
            }
            POp::Read(node, key) => Some(sim.submit_read(t, node, key)),
            POp::PersistScope(node) => {
                scoped.then(|| sim.submit_persist_scope(t, node, scope_of(node)))
            }
        };
        let Some(req) = submitted else { continue };
        sim.run_to_idle();
        for rec in sim.drain_completions() {
            if rec.req != req {
                continue;
            }
            t = rec.at + 1;
            match rec.kind {
                CompletionKind::Write => {
                    let POp::Write(_, _, v) = op else {
                        panic!("{model}: write completion for a non-write")
                    };
                    trace.write(rec.key.unwrap(), rec.ts, v.into());
                }
                // The simulator's completion records carry no payload;
                // the version pins the value via `write_values`.
                CompletionKind::Read => trace.read(rec.key.unwrap(), rec.ts, None),
                CompletionKind::PersistScope => {}
                CompletionKind::MultiWrite => {
                    unreachable!("no multi-key writes in the parity workload")
                }
            }
        }
    }
    trace
}

fn threaded_trace(model: DdpModel, scoped: bool) -> ParityTrace {
    let mut cfg = ClusterConfig::cloudlab().with_nodes(3);
    cfg.wire_latency_ns = 20_000;
    let cl = Cluster::spawn(cfg, model);
    let mut trace = ParityTrace::default();
    for op in parity_ops() {
        match op {
            POp::Write(node, key, v) => {
                let ts = cl
                    .put_scoped(node, key, v.into(), scoped.then(|| scope_of(node)))
                    .unwrap();
                trace.write(key, ts, v.into());
            }
            POp::Read(node, key) => {
                let (value, ts) = cl.get_versioned(node, key).unwrap();
                trace.read(key, ts, Some(&value));
            }
            POp::PersistScope(node) => {
                if !scoped {
                    continue;
                }
                cl.persist_scope(node, scope_of(node)).unwrap();
            }
        }
    }
    cl.shutdown();
    trace
}

/// The live-node leg over real sockets: three in-process TCP nodes, one
/// blocking client per node.
fn tcp_trace(model: DdpModel, scoped: bool) -> ParityTrace {
    let free_addrs = || -> Vec<std::net::SocketAddr> {
        let bind = |_| std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        (0..3).map(bind).map(|l| l.local_addr().unwrap()).collect()
    };
    let (peers, client_addrs) = (free_addrs(), free_addrs());
    let nodes: Vec<TcpNode> = (0..3)
        .map(|i| {
            TcpNode::serve(TcpNodeConfig {
                node: NodeId(i as u16),
                model,
                peers: peers.clone(),
                client_addr: client_addrs[i],
                persist_ns_per_kb: 1295,
                batching: false,
                broadcast: false,
                trace_out: None,
                metrics_out: None,
                metrics_interval: std::time::Duration::from_secs(1),
                chaos: None,
                fault: None,
                placement: None,
                nvm_log: None,
                rejoin_donor: None,
            })
            .expect("bind node")
        })
        .collect();
    let mut conns: Vec<TcpClient> = client_addrs
        .iter()
        .map(|&a| TcpClient::connect(a).unwrap())
        .collect();
    let mut trace = ParityTrace::default();
    for op in parity_ops() {
        match op {
            POp::Write(node, key, v) => {
                let scope = scoped.then(|| scope_of(node));
                let ts = conns[node.0 as usize]
                    .put(key, v.as_bytes(), scope)
                    .unwrap();
                trace.write(key, ts, v.into());
            }
            POp::Read(node, key) => {
                let (value, ts) = conns[node.0 as usize].get_versioned(key).unwrap();
                trace.read(key, ts, Some(&Value::from(value)));
            }
            POp::PersistScope(node) => {
                if scoped {
                    conns[node.0 as usize]
                        .persist_scope(scope_of(node))
                        .unwrap();
                }
            }
        }
    }
    for n in nodes {
        n.shutdown();
    }
    trace
}

/// One step of the sharded parity workload (2 shards × 2 replicas over
/// 4 nodes; even keys → shard 0 = {0,1}, odd keys → shard 1 = {2,3}).
enum SOp {
    Write(NodeId, Key, &'static str),
    Multi(NodeId, &'static [(u64, &'static str)]),
    Read(NodeId, Key),
    PersistScope(NodeId),
}

/// The sharded parity workload: singles and reads routed across both
/// shard groups plus cross-shard multi-key batches, from every node.
fn sharded_parity_ops() -> Vec<SOp> {
    use SOp::{Multi, PersistScope, Read, Write};
    let (n0, n1, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let (k0, k1, k2, k3) = (Key(100), Key(201), Key(302), Key(403));
    vec![
        Write(n0, k0, "a0"),
        Write(n2, k1, "b0"),
        Read(n3, k0),
        Multi(n1, &[(100, "m0"), (201, "m1")]), // crosses both shards
        Read(n0, k1),
        Write(n3, k2, "c0"),
        Multi(n0, &[(302, "m2"), (403, "m3")]),
        Read(n1, k3),
        Read(n2, k2),
        Write(n1, k0, "a1"),
        Read(n0, k0),
        PersistScope(n0),
        PersistScope(n2),
    ]
}

/// Per-key completion structure of a sharded run: single writes ('W')
/// and reads ('R') carry their protocol timestamps; a multi-key barrier
/// marks each of its keys with ('M', zero) at its release point.
#[derive(Debug, Default, PartialEq, Eq)]
struct ShardedTrace {
    per_key: BTreeMap<Key, Vec<(char, Ts)>>,
}

impl ShardedTrace {
    fn push(&mut self, key: Key, kind: char, ts: Ts) {
        self.per_key.entry(key).or_default().push((kind, ts));
    }
}

/// The converged value at each key's replica group.
fn converged_values<F: Fn(NodeId, Key) -> Option<Value>>(
    map: &ShardMap,
    read: F,
) -> BTreeMap<Key, Value> {
    [100u64, 201, 302, 403]
        .into_iter()
        .map(|k| {
            let key = Key(k);
            let replicas = map.replicas_of_key(key);
            let value = read(replicas[0], key).expect("replica holds the key");
            // Every replica of the group agrees.
            for &r in &replicas[1..] {
                assert_eq!(read(r, key).as_ref(), Some(&value), "split group at {key}");
            }
            (key, value)
        })
        .collect()
}

fn sharded_loopback_trace(
    model: DdpModel,
    scoped: bool,
    map: &ShardMap,
) -> (ShardedTrace, BTreeMap<Key, Value>) {
    use minos::core::loopback::Completion;
    let mut cl = BCluster::with_placement(map.clone(), model);
    let mut trace = ShardedTrace::default();
    let mut seen = 0;
    for op in sharded_parity_ops() {
        match op {
            SOp::Write(node, key, v) => {
                cl.submit_write(node, key, v.into(), scoped.then(|| scope_of(node)));
            }
            SOp::Multi(node, kvs) => {
                let writes = kvs.iter().map(|&(k, v)| (Key(k), v.into())).collect();
                cl.submit_write_multi(node, writes, scoped.then(|| scope_of(node)));
            }
            SOp::Read(node, key) => {
                cl.submit_read(node, key);
            }
            SOp::PersistScope(node) => {
                if !scoped {
                    continue;
                }
                cl.submit_persist_scope(node, scope_of(node));
            }
        }
        cl.run();
        for c in &cl.completions()[seen..] {
            match c {
                Completion::Write { key, ts, .. } => trace.push(*key, 'W', *ts),
                Completion::Read { key, ts, .. } => trace.push(*key, 'R', *ts),
                Completion::MultiWrite { keys, .. } => {
                    for k in keys {
                        trace.push(*k, 'M', Ts::zero());
                    }
                }
                Completion::PersistScope { .. } => {}
            }
        }
        seen = cl.completions().len();
    }
    let values = converged_values(map, |n, k| cl.engine(n).record_value(k));
    (trace, values)
}

fn sharded_simulator_trace(
    model: DdpModel,
    scoped: bool,
    map: &ShardMap,
) -> (ShardedTrace, BTreeMap<Key, Value>) {
    let mut sim = BSim::with_placement(
        SimConfig::paper_defaults().with_nodes(4),
        Arch::baseline(),
        model,
        map.clone(),
    );
    let mut trace = ShardedTrace::default();
    let mut t = 0;
    for op in sharded_parity_ops() {
        let submitted = match op {
            SOp::Write(node, key, v) => {
                Some(sim.submit_write(t, node, key, v.into(), scoped.then(|| scope_of(node))))
            }
            SOp::Multi(node, kvs) => {
                let writes = kvs.iter().map(|&(k, v)| (Key(k), v.into())).collect();
                Some(sim.submit_write_multi(t, node, writes, scoped.then(|| scope_of(node))))
            }
            SOp::Read(node, key) => Some(sim.submit_read(t, node, key)),
            SOp::PersistScope(node) => {
                scoped.then(|| sim.submit_persist_scope(t, node, scope_of(node)))
            }
        };
        let Some(req) = submitted else { continue };
        sim.run_to_idle();
        for rec in sim.drain_completions() {
            if rec.req != req {
                continue;
            }
            t = rec.at + 1;
            match rec.kind {
                CompletionKind::Write => trace.push(rec.key.unwrap(), 'W', rec.ts),
                CompletionKind::Read => trace.push(rec.key.unwrap(), 'R', rec.ts),
                CompletionKind::MultiWrite => {
                    let SOp::Multi(_, kvs) = op else {
                        panic!("{model}: barrier completion for a non-multi op")
                    };
                    for &(k, _) in kvs {
                        trace.push(Key(k), 'M', Ts::zero());
                    }
                }
                CompletionKind::PersistScope => {}
            }
        }
    }
    let values = converged_values(map, |n, k| sim.engine(n).record_value(k));
    (trace, values)
}

#[test]
fn sharded_dispatch_parity_loopback_vs_simulator() {
    // The sharded counterpart of the dispatch-parity guarantee: routed
    // singles, cross-shard multi-key barriers, and scope flushes produce
    // identical per-key completion structure and identical converged
    // replica state on the loopback cluster and the DES kernel, under
    // every persistency model.
    let map = ShardMap::uniform(2, 4, 2);
    for model in all_models() {
        let scoped = model.persistency == PersistencyModel::Scope;
        let (lo, lo_vals) = sharded_loopback_trace(model, scoped, &map);
        let (sim, sim_vals) = sharded_simulator_trace(model, scoped, &map);
        assert_eq!(lo, sim, "{model}: sharded loopback vs DES divergence");
        assert_eq!(lo_vals, sim_vals, "{model}: converged values diverge");
    }
}

#[test]
fn dispatch_parity_across_loopback_threaded_and_simulator() {
    // The tentpole guarantee of the shared runtime dispatcher: one
    // workload replayed through four harnesses produces identical
    // per-key value/version completion sequences under every
    // persistency model.
    for model in all_models() {
        let scoped = model.persistency == PersistencyModel::Scope;
        let lo = loopback_trace::<Baseline>(model, scoped);
        let sim = simulator_trace::<Baseline>(Arch::baseline(), model, scoped);
        let th = threaded_trace(model, scoped);
        let tcp = tcp_trace(model, scoped);
        assert_eq!(lo, sim, "{model}: loopback vs simulator divergence");
        assert_eq!(lo, th, "{model}: loopback vs threaded divergence");
        assert_eq!(lo, tcp, "{model}: loopback vs TCP divergence");
        // MINOS-O has no live runtime yet: its leg is loopback vs DES.
        let lo = loopback_trace::<Offload>(model, scoped);
        let sim = simulator_trace::<Offload>(Arch::minos_o(), model, scoped);
        assert_eq!(lo, sim, "{model}: MINOS-O loopback vs simulator divergence");
    }
}

/// The harness surface the crash/rejoin observer test needs, so one body
/// runs on both frames of both protocols.
trait CrashHarness {
    fn build(model: DdpModel) -> Self;
    fn attach(&mut self, sinks: Vec<SharedSink>);
    /// Submits a write at `node` and runs to quiescence.
    fn write(&mut self, node: NodeId, key: Key, value: &'static str);
    /// Crashes `node`, rejoins it from `donor`, and runs to quiescence.
    fn crash_and_rejoin(&mut self, node: NodeId, donor: NodeId);
}

impl<P: LoopProtocol> CrashHarness for Loopback<P> {
    fn build(model: DdpModel) -> Self {
        Loopback::new(3, model)
    }
    fn attach(&mut self, sinks: Vec<SharedSink>) {
        self.attach_tracer(sinks);
    }
    fn write(&mut self, node: NodeId, key: Key, value: &'static str) {
        self.submit_write(node, key, value.into(), None);
        self.run();
    }
    fn crash_and_rejoin(&mut self, node: NodeId, donor: NodeId) {
        self.crash_node(node);
        self.rejoin_node(node, donor);
    }
}

impl<P: CostModel> CrashHarness for Sim<P> {
    fn build(model: DdpModel) -> Self {
        let arch = if P::OFFLOAD {
            Arch::minos_o()
        } else {
            Arch::baseline()
        };
        Sim::new(SimConfig::paper_defaults().with_nodes(3), arch, model)
    }
    fn attach(&mut self, sinks: Vec<SharedSink>) {
        self.attach_tracer(sinks);
    }
    fn write(&mut self, node: NodeId, key: Key, value: &'static str) {
        self.submit_write(self.now() + 1, node, key, value.into(), None);
        self.run_to_idle();
    }
    fn crash_and_rejoin(&mut self, node: NodeId, donor: NodeId) {
        self.schedule_crash(self.now() + 1_000, node);
        self.schedule_rejoin(self.now() + 2_000, node, donor);
        self.run_to_idle();
    }
}

/// A crash loses the node's volatile state, not its observers: after a
/// rejoin the node keeps emitting trace records, and a history recorder
/// pairs the admit/complete of a write it coordinates.
fn observers_survive_a_crash<H: CrashHarness>(what: &str) {
    let n2 = NodeId(2);
    let ring = shared(RingRecorder::new(4096));
    let history = shared(HistoryRecorder::new());
    let mut h = H::build(DdpModel::lin(PersistencyModel::Synchronous));
    h.attach(vec![ring.clone(), history.clone()]);
    let at_n2 = || {
        let ring = ring.lock().unwrap();
        ring.records().filter(|r| r.node == n2).count()
    };

    h.write(n2, Key(1), "before");
    let before = at_n2();
    assert!(before > 0, "{what}: node 2 traced its first write");
    h.crash_and_rejoin(n2, NodeId(0));
    h.write(n2, Key(1), "after");
    assert!(
        at_n2() > before,
        "{what}: node 2 stopped tracing after its crash ({before} records before and after)"
    );
    let ops = history.lock().unwrap().snapshot().ops;
    let writes_at_n2 = ops
        .iter()
        .filter(|op| op.node == n2 && op.kind == OpKind::Write && op.is_complete())
        .count();
    assert_eq!(writes_at_n2, 2, "{what}: both writes paired: {ops:?}");
}

#[test]
fn observers_survive_a_crash_on_every_frame_of_both_protocols() {
    observers_survive_a_crash::<BCluster>("loopback/b");
    observers_survive_a_crash::<OCluster>("loopback/o");
    observers_survive_a_crash::<BSim>("des/b");
    observers_survive_a_crash::<OSim>("des/o");
}

#[test]
fn model_checker_verifies_synch_quickly() {
    // A smoke-sized exhaustive check runs in the normal test suite; the
    // full sweep lives in the verify_protocols example and Table 1 bench.
    let model = DdpModel::lin(PersistencyModel::Synchronous);
    let b = check_baseline(model, &Workload::two_conflicting_writes(), 1_000_000);
    assert!(b.ok(), "MINOS-B <Lin,Synch>: {b}");
    assert!(b.terminal_states > 0);
}

#[test]
fn model_checker_verifies_offload_synch() {
    // 2 nodes: the MINOS-O state space (PCIe + FIFO drains) stays
    // exhaustively explorable; the 3-node bounded sweep lives in the
    // Table 1 bench.
    let model = DdpModel::lin(PersistencyModel::Synchronous);
    let o = check_offload(model, &Workload::two_conflicting_writes_2n(), 2_000_000);
    assert!(o.ok(), "MINOS-O <Lin,Synch>: {o}");
}

#[test]
fn model_checker_verifies_two_keys() {
    let model = DdpModel::lin(PersistencyModel::Eventual);
    let b = check_baseline(model, &Workload::two_keys_three_writes(), 2_000_000);
    assert!(b.ok(), "MINOS-B <Lin,Event> two keys: {b}");
}
