//! Seeded torture runs over the live runtimes.
//!
//! One *run* = one seed: derive a [`Schedule`] from the seed, stand up a
//! fresh cluster with the schedule's message injections installed in its
//! transport, drive concurrent client traffic while the schedule's
//! crash/rejoin points fire, then hand the recorded history and the
//! end-of-run durable logs to every checker: the necessary-condition
//! pre-pass, the complete per-key linearizability search, the model's
//! persistency oracles, and a value-consistency sweep against what the
//! clients actually wrote.
//!
//! # One driver, two targets
//!
//! Everything a run *does* is written once, in the private `drive`, and
//! this section is the one place that describes it:
//!
//! 1. **Warm-up** — each key is written once, sequentially, before
//!    concurrency starts. Sequential writes are overlap-free, which puts
//!    the persistency oracles in their *exact* containment form (see
//!    [`crate::persistency`]) — this is what makes the armed-fault
//!    mutation smoke deterministic: a fault that skips an INV or fakes a
//!    persist during warm-up is caught on the very first seed, whatever
//!    the chaos schedule does.
//! 2. **Client mix** — [`TortureOptions::clients`] threads each draw a
//!    coordinator, a key and an op per iteration from a per-client seeded
//!    [`Rng`] (see *Workload* below).
//! 3. **Crash controller** — the driver thread executes the schedule's
//!    crash points in order, keyed on completed-op count so schedules
//!    replay stably; a point aimed at a node that is already down is
//!    skipped. Before a rejoin the clients are paused and drained — the
//!    catch-up ships the donor's *durable* log, so whatever is in flight
//!    must land first.
//! 4. **Post-run rejoin** — every node the schedule left down is
//!    rejoined: the rejoin machinery is part of what is under test.
//! 5. **Probe pass** — a sequential read of every key at every node.
//!    Probes enter the same history, so a replica left stale by a
//!    protocol bug (or a bad catch-up) fails the linearizability search
//!    even if no concurrent client read happened to catch it.
//! 6. **Audit** — each node's durable log is handed to the persistency
//!    oracles with the [`AuditMode`] its membership history earned: full
//!    for a node that served the whole run, everything invoked since the
//!    readmission for a rejoined one, phantom-entry only for one that
//!    never made it back.
//!
//! A client call has three outcomes: answered; *lost* — its coordinator
//! is down or went down under it, and a write it had admitted stays
//! pending in the history; or *timed out* — unanswered after
//! [`OP_TIMEOUT`]. A timed-out op stays pending too, and unless its
//! coordinator crashed under it the run also fails with a `liveness:`
//! violation: once membership excludes a dead node, an op at a live
//! coordinator must finish.
//!
//! What differs between the runtimes sits behind the private `Target`
//! trait (and its per-thread `Client`), with exactly two
//! implementations, instantiated by [`run_threaded`] and [`run_tcp`]:
//!
//! * **Start.** Threaded: a [`ClusterConfig`] (20 µs wire, 40 ms
//!   failure timeout; the geo scenario's WAN profile) handed to
//!   `Cluster::spawn_observed`. TCP: one `TcpNode::serve` per node on
//!   fresh loopback ports, each with an on-disk NVM log when the
//!   schedule carries crash points.
//! * **Client calls and the history.** Threaded: the [`Cluster`] facade
//!   (which routes when sharded); the history is a [`HistoryRecorder`]
//!   tapping the observability layer — server-side `[admit, complete]`
//!   intervals. TCP: one lazily reconnected [`TcpClient`] per node; the
//!   client records the history itself, around each blocking call.
//! * **Multi-key batches.** Threaded: `put_multi`, mixed in under a
//!   sharded placement and the compose scenario. TCP: none.
//! * **Crash.** Threaded: `crash_node`, then `await_failure_detection`.
//!   TCP: [`TcpNode::shutdown`] — threads stopped, ports released, the
//!   log file surviving — and a `set_peer_status` notice to every
//!   survivor (the TCP runtime has no failure detector of its own).
//! * **Rejoin.** Threaded: `rejoin_node`, the facade picking a donor from
//!   the node's placement group. TCP: the node is re-served on its old
//!   addresses — own-log replay, catch-up from any live donor — and
//!   readmitted over `set_peer_status`.
//! * **"Now" on the history clock** (a rejoin's audit watermark).
//!   Threaded: the latest stamp the recorder has seen. TCP: the clock the
//!   clients stamp their calls with.
//! * **Durable log.** Threaded: `Cluster::durable_log` (works on a crashed
//!   node too). TCP: the `dump-durable` client op.
//! * **Per-client RNG salt.** Each runtime keeps the constant it always
//!   had, so a seed replays the op mix it always replayed.
//!
//! The history *source* stays per target on purpose. Every TCP node has
//! its own trace epoch, so node-side stamps are incomparable and the
//! client-side interval — a superset of the true one, hence sound — is
//! the only shared clock; the threaded cluster has one epoch, and its
//! tighter server-side intervals constrain the linearizability search
//! more. Merging the two would weaken one check or break the other.
//!
//! Sharded placement runs on the threaded target only: a restarted TCP
//! node catches up from any live donor, not from a peer of its replica
//! group. Schedules stick to delay/reorder injections on both (no
//! retransmission on the live wire).
//!
//! # Workload
//!
//! The client mix is either the classic torture roll or, with
//! [`TortureOptions::workload`] set, one of the open-loop scenario
//! shapes ([`Scenario`]): YCSB A–F (RMW for A/F, scans for E), the
//! compose flows, the hot-key skew storm, or the WAN geo profile.
//! Scenario ops decompose into the primitive reads and writes the
//! history already records, so the checkers need no scenario knowledge.

use crate::history::{ClientOp, History, HistoryRecorder};
use crate::persistency::{AuditMode, NodeLog};
use crate::schedule::{generate, shrink, Rng, Schedule, ScheduleOptions};
use crate::{linearize, persistency, prepass};
use minos_cluster::tcp::{TcpClient, TcpNode, TcpNodeConfig};
use minos_cluster::{Cluster, OP_TIMEOUT};
use minos_core::obs::{OpKind, SharedSink};
use minos_types::{
    ClusterConfig, DdpModel, FaultSpec, Key, MinosError, MsgChaos, NodeId, PersistencyModel,
    ScopeId, ShardMap, Ts, Value,
};
use minos_workload::openloop::Scenario;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload and cluster knobs for one torture campaign.
#[derive(Debug, Clone)]
pub struct TortureOptions {
    /// Persistency model under test (consistency is always `Lin`).
    pub model: PersistencyModel,
    /// Cluster size.
    pub nodes: u16,
    /// Concurrent client threads.
    pub clients: u16,
    /// Ops per client thread (after warm-up).
    pub ops_per_client: u32,
    /// Key-space size (small on purpose: contention is the point).
    pub keys: u64,
    /// Message injections per generated schedule.
    pub injections: u32,
    /// Allow crash/rejoin points.
    pub allow_crash: bool,
    /// Most crash points per schedule (≥2 yields rolling restarts).
    pub max_crashes: u32,
    /// Deliberate protocol bug to arm (mutation smoke). Ignored unless
    /// the engines were compiled with `fault-injection`.
    pub fault: Option<FaultSpec>,
    /// Key-space placement: when set, nodes replicate only their shards,
    /// clients route through the facade, the workload mixes in multi-key
    /// cross-shard writes, recovery donors come from the crashed node's
    /// replica group, and the persistency oracles audit per the map.
    /// Threaded runtime only: a restarted TCP node catches up from any
    /// live donor, not from a peer of its replica group.
    pub placement: Option<ShardMap>,
    /// Scenario shaping the client mix ([`Scenario`] from the open-loop
    /// library). `None` keeps the classic torture mix. Scenario ops
    /// decompose into the history's primitive reads and writes — an RMW
    /// is a read plus a dependent write, a scan a fan-out of point reads
    /// — so every checker and oracle applies unchanged. The skew storm
    /// biases key choice onto a hot head; the geo profile additionally
    /// raises the threaded cluster's wire latency to a WAN hop.
    pub workload: Option<Scenario>,
}

impl TortureOptions {
    /// Defaults sized so one run takes well under a second.
    #[must_use]
    pub fn new(model: PersistencyModel) -> Self {
        TortureOptions {
            model,
            nodes: 3,
            clients: 3,
            ops_per_client: 15,
            keys: 4,
            injections: 5,
            allow_crash: true,
            max_crashes: 2,
            fault: None,
            placement: None,
            workload: None,
        }
    }

    /// Shapes the client mix after `scenario` (see [`Scenario`]).
    #[must_use]
    pub fn with_workload(mut self, scenario: Scenario) -> Self {
        self.workload = Some(scenario);
        self
    }

    /// Shards the cluster `shards` ways at `replicas` copies per shard,
    /// keeping `self.nodes` as the cluster size.
    #[must_use]
    pub fn sharded(mut self, shards: u32, replicas: u16) -> Self {
        self.placement = Some(ShardMap::uniform(shards, self.nodes as usize, replicas));
        self
    }

    /// Total client ops a run attempts (warm-up included).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.keys + u64::from(self.clients) * u64::from(self.ops_per_client)
    }

    /// Schedule-generation knobs matching this workload, the same for
    /// both runtimes.
    #[must_use]
    pub fn schedule_options(&self) -> ScheduleOptions {
        ScheduleOptions {
            nodes: self.nodes,
            injections: self.injections,
            // Rough messages-per-op upper bound keeps injections inside
            // the run's actual traffic.
            max_nth: self.total_ops() * 6,
            // The live runtimes have no retransmission: drops would
            // wedge writes by design, so schedules stay delay/reorder.
            kinds: vec![MsgChaos::DelayToFlush, MsgChaos::ReorderNext],
            allow_crash: self.allow_crash,
            max_crashes: self.max_crashes,
            total_ops: self.total_ops(),
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Every violation any checker found (empty = the run conforms).
    pub violations: Vec<String>,
    /// Client ops the run completed.
    pub ops: usize,
}

/// A reproduced, shrunk failure.
#[derive(Debug)]
pub struct Failure {
    /// The seed that produced the violating schedule.
    pub seed: u64,
    /// The greedily-shrunk schedule that still fails.
    pub shrunk: Schedule,
    /// The violations of the final (shrunk) reproduction run.
    pub violations: Vec<String>,
    /// Re-runs the shrinker spent.
    pub shrink_runs: usize,
}

/// A whole campaign's result.
#[derive(Debug)]
pub struct TortureResult {
    /// The first failure found, if any.
    pub failure: Option<Failure>,
    /// Seeds actually run (stops early on failure).
    pub seeds_run: u64,
    /// Completed ops checked across all clean runs.
    pub ops_checked: usize,
}

/// What a client thread decides to do next.
enum Roll {
    Write,
    MultiWrite,
    Read,
    /// Read-modify-write: a read followed by a dependent write of the
    /// same key. Decomposes into two primitive history ops.
    Rmw,
    /// A fan-out of point reads over this many adjacent keys.
    Scan(u64),
    Flush,
}

/// Picks the next op. `multi_ok` gates batched multi-key writes (the
/// threaded facade routes them; the TCP client does not).
fn roll(
    rng: &mut Rng,
    model: PersistencyModel,
    multi_ok: bool,
    workload: Option<Scenario>,
) -> Roll {
    let Some(w) = workload else {
        // The classic torture mix.
        return match rng.below(100) {
            0..=47 => Roll::Write,
            48..=54 if multi_ok => Roll::MultiWrite,
            48..=92 => Roll::Read,
            _ if model == PersistencyModel::Scope => Roll::Flush,
            _ => Roll::Read,
        };
    };
    // Scope-model runs keep a slice of flushes whatever the scenario, so
    // the scope machinery stays under test.
    if model == PersistencyModel::Scope && rng.chance(1, 16) {
        return Roll::Flush;
    }
    let pct = rng.below(100);
    match w {
        // YCSB-A is 50% RMW under torture (the update half becomes a
        // dependent read-then-write); F is the same mix drawn uniform.
        Scenario::YcsbA | Scenario::YcsbF => {
            if pct < 50 {
                Roll::Rmw
            } else {
                Roll::Read
            }
        }
        // B, D and the geo profile share a 95/5 read-heavy point mix;
        // geo's WAN latency comes from the cluster config, not the mix.
        Scenario::YcsbB | Scenario::YcsbD | Scenario::Geo => {
            if pct < 5 {
                Roll::Write
            } else {
                Roll::Read
            }
        }
        Scenario::YcsbC => Roll::Read,
        Scenario::YcsbE => {
            if pct < 95 {
                Roll::Scan(1 + rng.below(3))
            } else {
                Roll::Write
            }
        }
        // Compose alternates post composition (a burst of adjacent
        // writes — batched when the runtime can) with timeline fan-ins.
        Scenario::Compose => match pct % 3 {
            0 if multi_ok => Roll::MultiWrite,
            0 => Roll::Write,
            1 => Roll::Read,
            _ => Roll::Scan(2),
        },
        // The skew storm's heat lives in pick_key; the mix is half/half.
        Scenario::Skew => {
            if pct < 50 {
                Roll::Write
            } else {
                Roll::Read
            }
        }
    }
}

/// Key choice for the next op: uniform, except the skew storm sends 60%
/// of traffic to a two-key hot head.
fn pick_key(rng: &mut Rng, keys: u64, workload: Option<Scenario>) -> Key {
    if workload == Some(Scenario::Skew) && rng.chance(3, 5) {
        return Key(rng.below(2.min(keys)));
    }
    Key(rng.below(keys))
}

/// What a client call came to.
enum Reply<T> {
    Answered(T),
    /// The coordinator is down, or went down under the call (the text is
    /// the runtime's reason). A write it had admitted stays pending in
    /// the history.
    Lost(String),
    /// The named coordinator stayed silent for [`OP_TIMEOUT`]; the op
    /// stays pending in the history.
    TimedOut(NodeId),
}

impl<T> From<minos_types::Result<T>> for Reply<T> {
    fn from(r: minos_types::Result<T>) -> Self {
        match r {
            Ok(v) => Reply::Answered(v),
            Err(MinosError::TimedOut(at)) => Reply::TimedOut(at),
            Err(e) => Reply::Lost(e.to_string()),
        }
    }
}

/// One client thread's way of reaching the cluster: `node` is where the
/// op is submitted.
trait Client: Send {
    fn put(&mut self, node: NodeId, key: Key, value: &[u8], scope: Option<ScopeId>) -> Reply<Ts>;
    /// Only called on a [`Target`] with [`Target::BATCHES`]; one without
    /// keeps this body.
    fn put_multi(&mut self, _: NodeId, _: &[(Key, Vec<u8>)], _: Option<ScopeId>) -> Reply<Vec<Ts>> {
        unreachable!("this target has no batches")
    }
    fn get(&mut self, node: NodeId, key: Key) -> Reply<(Vec<u8>, Ts)>;
    fn flush(&mut self, node: NodeId, scope: ScopeId) -> Reply<()>;
}

/// A live cluster under torture: what genuinely differs between the
/// runtimes (see the module docs). Starting one is each implementation's
/// `start`; everything a run does with it is [`drive`].
trait Target {
    type Client: Client;
    /// Per-client RNG salt. Each runtime keeps the value it has always
    /// had, so `--start-seed S` replays the op mix it always replayed.
    const SALT: u64;
    /// Whether [`Client::put_multi`] is available.
    const BATCHES: bool = false;
    /// A fresh client, for one thread.
    fn client(&self) -> Self::Client;
    /// Completed ops in the history so far — the progress clock crash
    /// points are keyed on.
    fn completed(&self) -> u64;
    /// "Now" on the history's clock (a rejoin's audit watermark).
    fn now(&self) -> u64;
    /// Crashes `node` (which is up) and has the survivors exclude it.
    fn crash(&mut self, node: NodeId) -> Result<(), String>;
    /// Rejoins `node` (which is down): own-log replay, donor catch-up,
    /// readmission at every survivor.
    fn rejoin(&mut self, node: NodeId) -> Result<(), String>;
    /// Which versions `node`'s durable log holds, in append order.
    fn durable_log(&mut self, node: NodeId) -> Result<Vec<(Key, Ts)>, String>;
    /// Stops the cluster and yields the run's history.
    fn finish(self) -> History;
}

/// One node's membership over the run, kept by the crash controller.
#[derive(Clone, Copy, Default)]
struct Member {
    /// When the node last crashed; `None` = it served the whole run.
    crashed: Option<Instant>,
    /// History-clock time of its readmission since that crash; `None`
    /// while it is down.
    rejoined: Option<u64>,
}

impl Member {
    fn is_down(self) -> bool {
        self.crashed.is_some() && self.rejoined.is_none()
    }

    /// Up now, and not crashed at any point since `t`.
    fn up_since(self, t: Instant) -> bool {
        !self.is_down() && self.crashed.is_none_or(|crash| crash < t)
    }
}

/// What the client threads, the crash controller and the audit share.
#[derive(Default)]
struct Ledger {
    /// Values written, keyed by the protocol-assigned `(key, ts)` — the
    /// ground truth reads are audited against.
    written: Mutex<HashMap<(Key, Ts), Vec<u8>>>,
    /// Reads observed: `(key, observed ts, observed bytes)`.
    reads: Mutex<Vec<(Key, Ts, Vec<u8>)>>,
    violations: Mutex<Vec<String>>,
    members: Mutex<Vec<Member>>,
    /// The pause gate, and how many clients are past it mid-iteration.
    paused: AtomicBool,
    busy: AtomicU32,
    done_clients: AtomicU32,
}

impl Ledger {
    fn violation(&self, v: String) {
        self.violations.lock().unwrap().push(v);
    }

    fn member(&self, node: NodeId) -> Member {
        self.members.lock().unwrap()[node.0 as usize]
    }

    /// Passes the pause gate. `busy` is raised *before* the gate is
    /// read, so once the controller has set `paused` and seen `busy`
    /// at zero, no client is mid-iteration and none can start one.
    fn enter(&self) {
        loop {
            self.busy.fetch_add(1, Ordering::SeqCst);
            if !self.paused.load(Ordering::SeqCst) {
                return;
            }
            self.busy.fetch_sub(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Quiesces the clients, rejoins `node` and records when.
    fn rejoin<T: Target>(&self, target: &mut T, node: NodeId) {
        // Rejoin replicates from the *donor's durable log*, so in-flight
        // writes (and, under the background-persist models, persists
        // still in the device) must land first or the rejoiner would
        // serve genuinely stale data. A wedged op is not waited out.
        self.paused.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.busy.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(25));
        match target.rejoin(node) {
            Ok(()) => {
                self.members.lock().unwrap()[node.0 as usize].rejoined = Some(target.now());
            }
            Err(e) => self.violation(format!("rejoin of {node} failed: {e}")),
        }
        self.paused.store(false, Ordering::SeqCst);
    }
}

/// One thread's client plus the run's ledger: the primitive ops every
/// arm of the mix, the warm-up and the probe pass are made of.
struct Session<'a, C> {
    client: C,
    run: &'a Ledger,
}

impl<C: Client> Session<'_, C> {
    /// Makes one client call. `Err` carries why there is no answer; a
    /// time-out is a liveness violation unless the coordinator crashed
    /// between call and return.
    fn call<T>(
        &mut self,
        what: std::fmt::Arguments<'_>,
        op: impl FnOnce(&mut C) -> Reply<T>,
    ) -> Result<T, String> {
        let called = Instant::now();
        match op(&mut self.client) {
            Reply::Answered(v) => Ok(v),
            Reply::Lost(why) => Err(why),
            Reply::TimedOut(at) => {
                if self.run.member(at).up_since(called) {
                    self.run.violation(format!(
                        "liveness: {what} at {at} unanswered after {} s while {at} stayed up",
                        OP_TIMEOUT.as_secs()
                    ));
                }
                Err("timed out".into())
            }
        }
    }

    fn write(
        &mut self,
        node: NodeId,
        key: Key,
        value: Vec<u8>,
        scope: Option<ScopeId>,
    ) -> Result<(), String> {
        let ts = self.call(format_args!("put {key}"), |c| {
            c.put(node, key, &value, scope)
        })?;
        self.run.written.lock().unwrap().insert((key, ts), value);
        Ok(())
    }

    fn write_multi(&mut self, node: NodeId, batch: Vec<(Key, Vec<u8>)>, scope: Option<ScopeId>) {
        let first = batch[0].0;
        let reply = self.call(format_args!("multi-put from {first}"), |c| {
            c.put_multi(node, &batch, scope)
        });
        if let Ok(tss) = reply {
            let mut w = self.run.written.lock().unwrap();
            for ((k, v), ts) in batch.into_iter().zip(tss) {
                w.insert((k, ts), v);
            }
        }
    }

    fn read(&mut self, node: NodeId, key: Key) {
        if let Ok((v, ts)) = self.call(format_args!("get {key}"), |c| c.get(node, key)) {
            self.run.reads.lock().unwrap().push((key, ts, v));
        }
    }

    fn flush(&mut self, node: NodeId, scope: ScopeId) {
        let _ = self.call(format_args!("flush {scope:?}"), |c| c.flush(node, scope));
    }

    /// Client thread `c`'s share of the mix.
    fn mix<T: Target>(mut self, c: u16, seed: u64, opts: &TortureOptions) {
        let mut rng = Rng::new(seed ^ (T::SALT + u64::from(c) * 0x9E3779B9));
        // Scope-model clients pin their coordinator: scopes are
        // registered per (origin, sc), so the flush must go through the
        // node that coordinated the scoped writes.
        let pinned = NodeId(c % opts.nodes);
        let scope = ScopeId(u32::from(c));
        let scoped = opts.model == PersistencyModel::Scope;
        let multi_ok =
            T::BATCHES && (opts.placement.is_some() || opts.workload == Some(Scenario::Compose));
        for i in 0..opts.ops_per_client {
            self.run.enter();
            let node = if scoped {
                pinned
            } else {
                NodeId(rng.below(u64::from(opts.nodes)) as u16)
            };
            let key = pick_key(&mut rng, opts.keys, opts.workload);
            // A failed op (crashed coordinator, wedged write) leaves at
            // most a pending op in the history; the mix moves on.
            match roll(&mut rng, opts.model, multi_ok, opts.workload) {
                Roll::Write => {
                    let value = format!("s{seed:x}-c{c}-i{i}").into_bytes();
                    let sc = (scoped && rng.chance(2, 3)).then_some(scope);
                    let _ = self.write(node, key, value, sc);
                }
                Roll::MultiWrite => {
                    // 2–3 adjacent keys: consecutive keys land on
                    // consecutive shards, so the batch crosses a shard
                    // boundary whenever the map has one.
                    let count = (2 + u64::from(rng.chance(1, 2))).min(opts.keys);
                    let batch = (0..count)
                        .map(|j| {
                            let k = Key((key.0 + j) % opts.keys);
                            (k, format!("s{seed:x}-c{c}-i{i}-m{j}").into_bytes())
                        })
                        .collect();
                    let sc = (scoped && rng.chance(2, 3)).then_some(scope);
                    self.write_multi(node, batch, sc);
                }
                Roll::Read => self.read(node, key),
                Roll::Rmw => {
                    // Read, then the dependent write: two primitive
                    // history ops, so every oracle applies as-is.
                    self.read(node, key);
                    let value = format!("s{seed:x}-c{c}-i{i}-rmw").into_bytes();
                    let _ = self.write(node, key, value, None);
                }
                Roll::Scan(len) => {
                    // Each scan leg is an ordinary point read.
                    for j in 0..len {
                        self.read(node, Key((key.0 + j) % opts.keys));
                    }
                }
                Roll::Flush => self.flush(pinned, scope),
            }
            self.run.busy.fetch_sub(1, Ordering::SeqCst);
        }
        self.run.done_clients.fetch_add(1, Ordering::Release);
    }
}

/// Everything a finished run hands the checkers: the history, each
/// node's durable log, and the ledger — what the clients wrote and read,
/// and what the driver itself saw go wrong (a failed warm-up, rejoin or
/// log snapshot, a liveness violation).
struct Evidence {
    history: History,
    logs: Vec<NodeLog>,
    run: Ledger,
}

/// One run of `target` under `schedule`: steps 1–6 of the module docs,
/// short of the checkers.
fn drive<T: Target>(mut target: T, schedule: &Schedule, opts: &TortureOptions) -> Evidence {
    let run = Ledger::default();
    *run.members.lock().unwrap() = vec![Member::default(); opts.nodes as usize];
    let mut driver = Session {
        client: target.client(),
        run: &run,
    };

    for k in 0..opts.keys {
        let node = NodeId((k % u64::from(opts.nodes)) as u16);
        let value = format!("warmup-k{k}").into_bytes();
        if let Err(e) = driver.write(node, Key(k), value, None) {
            run.violation(format!("warm-up write of k{k} via {node} failed: {e}"));
        }
    }

    std::thread::scope(|s| {
        for c in 0..opts.clients {
            let session = Session {
                client: target.client(),
                run: &run,
            };
            s.spawn(move || session.mix::<T>(c, schedule.seed, opts));
        }

        // The driver thread doubles as the crash controller, keyed on
        // protocol progress so schedules replay stably. Points run in
        // order — a rolling restart when the windows chain across nodes.
        let await_ops = |target: &T, ops: u64| {
            while target.completed() < ops
                && run.done_clients.load(Ordering::Acquire) < u32::from(opts.clients)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        for cp in &schedule.crashes {
            let node = NodeId(cp.node % opts.nodes);
            await_ops(&target, cp.after_ops);
            if run.member(node).is_down() {
                // Shrinking can drop an earlier rejoin and leave this
                // point aimed at a node that is already down.
                continue;
            }
            run.members.lock().unwrap()[node.0 as usize] = Member {
                crashed: Some(Instant::now()),
                rejoined: None,
            };
            if let Err(e) = target.crash(node) {
                run.violation(e);
            }
            if let Some(after) = cp.recover_after_ops {
                await_ops(&target, after);
                run.rejoin(&mut target, node);
            }
        }
    });

    for node in (0..opts.nodes).map(NodeId) {
        if run.member(node).is_down() {
            run.rejoin(&mut target, node);
        }
    }

    std::thread::sleep(Duration::from_millis(10));
    for k in 0..opts.keys {
        for n in 0..opts.nodes {
            driver.read(NodeId(n), Key(k));
        }
    }
    drop(driver);

    // Durable-log snapshots, each with the audit mode its node's
    // membership history earned.
    let mut logs = Vec::new();
    for node in (0..opts.nodes).map(NodeId) {
        let m = run.member(node);
        let mode = match (m.crashed, m.rejoined) {
            (None, _) => AuditMode::Full,
            (Some(_), Some(since)) => AuditMode::Rejoined { since },
            (Some(_), None) => AuditMode::Excused,
        };
        match target.durable_log(node) {
            Ok(entries) => logs.push(NodeLog {
                node,
                entries,
                mode,
            }),
            Err(e) => run.violation(format!("durable-log snapshot of {node} failed: {e}")),
        }
    }

    Evidence {
        history: target.finish(),
        logs,
        run,
    }
}

/// Runs all checkers over a finished run.
fn check_everything(ev: Evidence, opts: &TortureOptions) -> RunReport {
    let mut v = ev.run.violations.into_inner().unwrap();
    let written = ev.run.written.into_inner().unwrap();
    v.extend(prepass::audit(&ev.history));
    v.extend(linearize::check(&ev.history));
    let placement = opts.placement.as_ref();
    let durability = persistency::check_placed(opts.model, &ev.history, &ev.logs, placement);
    v.extend(durability);
    for (k, ts, got) in &ev.run.reads.into_inner().unwrap() {
        if ts.version == 0 {
            if !got.is_empty() {
                v.push(format!(
                    "value violation: a read of {k} observed the initial \
                     version yet returned {} bytes",
                    got.len()
                ));
            }
        } else if let Some(expect) = written.get(&(*k, *ts)) {
            if got != expect {
                v.push(format!(
                    "value violation: read of ({k}, {ts}) returned {:?}, \
                     but that version wrote {:?}",
                    String::from_utf8_lossy(got),
                    String::from_utf8_lossy(expect),
                ));
            }
        }
    }
    RunReport {
        violations: v,
        ops: ev.history.completed().count(),
    }
}

/// One run of a started `target` under `schedule`, checked.
fn run<T: Target>(target: T, schedule: &Schedule, opts: &TortureOptions) -> RunReport {
    check_everything(drive(target, schedule, opts), opts)
}

/// One threaded-cluster run under `schedule`.
#[must_use]
pub fn run_threaded(schedule: &Schedule, opts: &TortureOptions) -> RunReport {
    run(Threaded::start(schedule, opts), schedule, opts)
}

/// One TCP-cluster run under `schedule`.
#[must_use]
pub fn run_tcp(schedule: &Schedule, opts: &TortureOptions) -> RunReport {
    run(Tcp::start(schedule, opts), schedule, opts)
}

/// The in-process threaded cluster and the recorder tapping it.
struct Threaded {
    cluster: Arc<Cluster>,
    recorder: Arc<Mutex<HistoryRecorder>>,
}

impl Threaded {
    fn start(schedule: &Schedule, opts: &TortureOptions) -> Self {
        let mut cfg = ClusterConfig::cloudlab().with_nodes(opts.nodes as usize);
        if let Some(map) = &opts.placement {
            assert_eq!(
                map.n_nodes(),
                opts.nodes as usize,
                "placement map sized for a different cluster"
            );
            cfg = cfg.with_placement(map.clone());
        }
        cfg.wire_latency_ns = 20_000;
        cfg.failure_timeout_ns = 40_000_000;
        if opts.workload == Some(Scenario::Geo) {
            // WAN profile: every hop pays a 500 µs geo link, and the
            // failure detector backs off to match.
            cfg.wire_latency_ns = 500_000;
            cfg.failure_timeout_ns = 200_000_000;
        }
        if !schedule.injections.is_empty() {
            cfg = cfg.with_chaos(schedule.spec());
        }
        if let Some(f) = opts.fault {
            cfg = cfg.with_fault(f);
        }
        let recorder = minos_core::obs::shared(HistoryRecorder::new());
        let sink: SharedSink = recorder.clone();
        let cluster = Cluster::spawn_observed(cfg, DdpModel::lin(opts.model), vec![sink]);
        Threaded {
            cluster: Arc::new(cluster),
            recorder,
        }
    }
}

impl Target for Threaded {
    type Client = ThreadedClient;
    const SALT: u64 = 0xC1E27;
    const BATCHES: bool = true;

    fn client(&self) -> ThreadedClient {
        ThreadedClient(Arc::clone(&self.cluster))
    }

    fn completed(&self) -> u64 {
        self.recorder.lock().unwrap().completed_count() as u64
    }

    /// The recorder's clock ticks inside the node threads; the latest
    /// stamp it has seen is "now" on it.
    fn now(&self) -> u64 {
        let snap = self.recorder.lock().unwrap().snapshot();
        snap.ops
            .iter()
            .map(|o| o.ret.unwrap_or(o.call))
            .max()
            .unwrap_or(0)
    }

    fn crash(&mut self, node: NodeId) -> Result<(), String> {
        self.cluster.crash_node(node);
        let patience = Duration::from_secs(5);
        if self.cluster.await_failure_detection(node, patience) {
            Ok(())
        } else {
            Err(format!("failure detection never reported {node}"))
        }
    }

    /// The facade picks the donor: an alive placement-group peer, or any
    /// alive node when fully replicated.
    fn rejoin(&mut self, node: NodeId) -> Result<(), String> {
        let rejoined = self.cluster.rejoin_node(node);
        rejoined.map(drop).map_err(|e| e.to_string())
    }

    /// Works on a crashed node too: NVM survives.
    fn durable_log(&mut self, node: NodeId) -> Result<Vec<(Key, Ts)>, String> {
        let log = self.cluster.durable_log(node).map_err(|e| e.to_string())?;
        Ok(log.into_iter().map(|e| (e.key, e.ts)).collect())
    }

    /// Dropping the last handle stops the cluster.
    fn finish(self) -> History {
        self.recorder.lock().unwrap().snapshot()
    }
}

/// Calls through the cluster facade; the history is the recorder's.
struct ThreadedClient(Arc<Cluster>);

impl Client for ThreadedClient {
    fn put(&mut self, node: NodeId, key: Key, value: &[u8], scope: Option<ScopeId>) -> Reply<Ts> {
        self.0
            .put_scoped(node, key, Value::copy_from_slice(value), scope)
            .into()
    }

    fn put_multi(
        &mut self,
        node: NodeId,
        writes: &[(Key, Vec<u8>)],
        scope: Option<ScopeId>,
    ) -> Reply<Vec<Ts>> {
        let writes = writes.iter().map(|(k, v)| (*k, v.clone().into())).collect();
        self.0.put_multi(node, writes, scope).into()
    }

    fn get(&mut self, node: NodeId, key: Key) -> Reply<(Vec<u8>, Ts)> {
        let got = self.0.get_versioned(node, key);
        got.map(|(v, ts)| (v.to_vec(), ts)).into()
    }

    fn flush(&mut self, node: NodeId, scope: ScopeId) -> Reply<()> {
        self.0.persist_scope(node, scope).into()
    }
}

/// An in-process TCP cluster on loopback sockets: node handles (`None`
/// while crashed), the address plan, the per-node on-disk NVM logs
/// (present only when the schedule carries crash points), and the
/// client-side history with its clock.
struct Tcp {
    nodes: Vec<Option<TcpNode>>,
    client_addrs: Vec<SocketAddr>,
    log_paths: Vec<Option<std::path::PathBuf>>,
    /// Node 0's config; [`Tcp::config`] derives every node's from it.
    template: TcpNodeConfig,
    history: Arc<Mutex<History>>,
    epoch: Instant,
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tcp {
    /// Brings the cluster up on fresh ports. All probe listeners are
    /// held simultaneously before any port is reused (a sequentially
    /// probed port can be handed right back by the kernel), and the
    /// whole bind phase retries on a collision — a port released by a
    /// probe can still be grabbed by another process between probe and
    /// bind.
    fn start(schedule: &Schedule, opts: &TortureOptions) -> Self {
        assert!(
            opts.placement.is_none(),
            "sharded torture runs on the threaded runtime (a restarted TCP \
             node's donor is any live node, not a replica-group peer)"
        );
        let n = opts.nodes as usize;
        // Crash schedules need every node's NVM to survive its process:
        // an on-disk log per node, cleaned of any stale content from a
        // previous (possibly aborted) run of the same seed.
        let log_paths: Vec<Option<std::path::PathBuf>> = (0..n)
            .map(|i| {
                (!schedule.crashes.is_empty()).then(|| {
                    let path = std::env::temp_dir().join(format!(
                        "minos-torture-{}-{:x}-n{i}.nvmlog",
                        std::process::id(),
                        schedule.seed,
                    ));
                    let _ = std::fs::remove_file(&path);
                    path
                })
            })
            .collect();
        'attempt: for _ in 0..16 {
            let probes: Vec<std::net::TcpListener> = (0..2 * n)
                .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("probe port"))
                .collect();
            let addrs: Vec<SocketAddr> = probes.iter().map(|l| l.local_addr().unwrap()).collect();
            drop(probes);
            let (peers, client_addrs) = addrs.split_at(n);
            let mut tcp = Tcp {
                nodes: Vec::with_capacity(n),
                client_addrs: client_addrs.to_vec(),
                log_paths: log_paths.clone(),
                template: TcpNodeConfig {
                    node: NodeId(0),
                    model: DdpModel::lin(opts.model),
                    peers: peers.to_vec(),
                    client_addr: client_addrs[0],
                    persist_ns_per_kb: 1295,
                    batching: false,
                    broadcast: false,
                    trace_out: None,
                    metrics_out: None,
                    metrics_interval: Duration::from_secs(1),
                    chaos: (!schedule.injections.is_empty()).then(|| schedule.spec()),
                    fault: opts.fault,
                    placement: None,
                    nvm_log: None,
                    rejoin_donor: None,
                },
                history: Arc::default(),
                epoch: Instant::now(),
            };
            for i in 0..n {
                match TcpNode::serve(tcp.config(i, None)) {
                    Ok(node) => tcp.nodes.push(Some(node)),
                    Err(_) => {
                        for node in tcp.nodes.into_iter().flatten() {
                            node.shutdown();
                        }
                        continue 'attempt;
                    }
                }
            }
            return tcp;
        }
        panic!("could not bind a TCP cluster after 16 attempts");
    }

    /// The config for (re-)serving node `i`.
    fn config(&self, i: usize, rejoin_donor: Option<SocketAddr>) -> TcpNodeConfig {
        TcpNodeConfig {
            node: NodeId(i as u16),
            client_addr: self.client_addrs[i],
            nvm_log: self.log_paths[i].clone(),
            rejoin_donor,
            ..self.template.clone()
        }
    }

    /// Tells node `to` that `peer` went down or came back. The TCP
    /// runtime has no in-band failure detector: view changes arrive over
    /// this admin op.
    fn tell(&self, to: usize, peer: usize, up: bool) {
        if let Ok(mut c) = TcpClient::connect(self.client_addrs[to]) {
            let _ = c.set_peer_status(NodeId(peer as u16), up);
        }
    }

    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&j| self.nodes[j].is_some())
    }
}

impl Target for Tcp {
    type Client = TcpConns;
    const SALT: u64 = 0x7C11;

    fn client(&self) -> TcpConns {
        TcpConns {
            addrs: self.client_addrs.clone(),
            conns: self.client_addrs.iter().map(|_| None).collect(),
            history: Arc::clone(&self.history),
            epoch: self.epoch,
        }
    }

    fn completed(&self) -> u64 {
        self.history.lock().unwrap().completed().count() as u64
    }

    fn now(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Stops the node outright — threads stopped, ports released, peers
    /// seeing dead sockets, its NVM log file surviving on disk — and
    /// alerts the survivors, which shrink their quorums and complete any
    /// write wedged on the dead peer.
    fn crash(&mut self, node: NodeId) -> Result<(), String> {
        let ni = node.0 as usize;
        let handle = self.nodes[ni].take().expect("crash of a node that is up");
        handle.shutdown();
        for j in self.live() {
            self.tell(j, ni, false);
        }
        Ok(())
    }

    /// Re-serves the node on its original addresses: own-log replay from
    /// the surviving NVM file, catch-up from the first live peer, then
    /// notifications so every survivor re-admits it (dropping any cached
    /// connection to its dead pre-crash sockets) and the rejoiner learns
    /// which peers are still down.
    fn rejoin(&mut self, node: NodeId) -> Result<(), String> {
        let ni = node.0 as usize;
        let donor = self.live().next().map(|j| self.client_addrs[j]);
        let cfg = self.config(ni, donor);
        // The old listener's port is released by shutdown, but give the
        // kernel a few tries in case another process squats it briefly.
        let served = (0..10).find_map(|_| {
            TcpNode::serve(cfg.clone())
                .inspect_err(|_| std::thread::sleep(Duration::from_millis(10)))
                .ok()
        });
        self.nodes[ni] = Some(served.ok_or("could not rebind its ports")?);
        for j in 0..self.nodes.len() {
            if self.nodes[j].is_none() {
                self.tell(ni, j, false);
            } else if j != ni {
                self.tell(j, ni, true);
            }
        }
        Ok(())
    }

    fn durable_log(&mut self, node: NodeId) -> Result<Vec<(Key, Ts)>, String> {
        let conn = TcpClient::connect(self.client_addrs[node.0 as usize]);
        let dump = conn.and_then(|mut c| c.dump_durable());
        dump.map_err(|e| e.to_string())
    }

    fn finish(self) -> History {
        for node in self.nodes.into_iter().flatten() {
            node.shutdown();
        }
        for path in self.log_paths.into_iter().flatten() {
            let _ = std::fs::remove_file(path);
        }
        std::mem::take(&mut *self.history.lock().unwrap())
    }
}

/// One client thread's connections, one per node, and the history it
/// records around each blocking call.
struct TcpConns {
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<TcpClient>>,
    history: Arc<Mutex<History>>,
    epoch: Instant,
}

impl TcpConns {
    /// One blocking call at `node`, entered into the history. `call`
    /// also reports the timestamp the op carried, if any.
    fn exchange<T>(
        &mut self,
        node: NodeId,
        kind: OpKind,
        key: Option<Key>,
        scope: Option<ScopeId>,
        call: impl FnOnce(&mut TcpClient) -> std::io::Result<(T, Option<Ts>)>,
    ) -> Reply<T> {
        let ni = node.0 as usize;
        let called = ns_since(self.epoch);
        // Connections are lazy and re-established after an error: a
        // crashed node kills its sockets, and the rejoined node listens
        // on a fresh listener at the same address.
        let conn = match &mut self.conns[ni] {
            Some(conn) => conn,
            slot => match TcpClient::connect(self.addrs[ni]) {
                Ok(conn) => slot.insert(conn),
                // Node down: nothing was invoked.
                Err(e) => return Reply::Lost(e.to_string()),
            },
        };
        let mut op = ClientOp {
            node,
            req: called,
            kind,
            key,
            scope,
            call: called,
            ret: None,
            ts: None,
            obsolete: false,
        };
        let reply = match call(conn) {
            Ok((v, ts)) => {
                op.ret = Some(ns_since(self.epoch));
                op.ts = ts;
                Reply::Answered(v)
            }
            Err(e) => {
                self.conns[ni] = None;
                match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        Reply::TimedOut(node)
                    }
                    _ => Reply::Lost(e.to_string()),
                }
            }
        };
        // An unanswered write may still have taken effect: it stays in
        // the history, pending. An unanswered read or flush has no
        // effect anyone could observe.
        if op.is_complete() || kind == OpKind::Write {
            self.history.lock().unwrap().ops.push(op);
        }
        reply
    }
}

impl Client for TcpConns {
    fn put(&mut self, node: NodeId, key: Key, value: &[u8], scope: Option<ScopeId>) -> Reply<Ts> {
        self.exchange(node, OpKind::Write, Some(key), scope, |c| {
            c.put(key, value, scope).map(|ts| (ts, Some(ts)))
        })
    }

    fn get(&mut self, node: NodeId, key: Key) -> Reply<(Vec<u8>, Ts)> {
        self.exchange(node, OpKind::Read, Some(key), None, |c| {
            c.get_versioned(key).map(|(v, ts)| ((v, ts), Some(ts)))
        })
    }

    fn flush(&mut self, node: NodeId, scope: ScopeId) -> Reply<()> {
        self.exchange(node, OpKind::PersistScope, None, Some(scope), |c| {
            c.persist_scope(scope).map(|()| ((), None))
        })
    }
}

/// Runs `count` seeds starting at `start`, stopping (and shrinking) on
/// the first violation. `runner` is [`run_threaded`] or [`run_tcp`];
/// `verbose` prints per-seed progress to stdout — the `minos-torture`
/// binary's output.
pub fn torture(
    start: u64,
    count: u64,
    opts: &TortureOptions,
    runner: fn(&Schedule, &TortureOptions) -> RunReport,
    verbose: bool,
) -> TortureResult {
    let sched_opts = opts.schedule_options();
    let workload = opts.workload.map(|w| format!("/{w}")).unwrap_or_default();
    let mut ops_checked = 0;
    for i in 0..count {
        let seed = start.wrapping_add(i);
        let schedule = generate(seed, &sched_opts);
        let report = runner(&schedule, opts);
        if report.violations.is_empty() {
            ops_checked += report.ops;
            if verbose {
                println!(
                    "seed {seed:#018x} {model:?}{workload}: ok ({ops} ops, {w} injections{crash})",
                    model = opts.model,
                    ops = report.ops,
                    w = schedule.injections.len(),
                    crash = match schedule.crashes.len() {
                        0 => String::new(),
                        1 => ", 1 crash".into(),
                        k => format!(", {k} crashes"),
                    },
                );
            }
            continue;
        }
        if verbose {
            println!(
                "seed {seed:#018x} {:?}{workload}: VIOLATION — shrinking…",
                opts.model
            );
            for v in &report.violations {
                println!("  {v}");
            }
        }
        let (shrunk, shrink_runs) =
            shrink(&schedule, |s| !runner(s, opts).violations.is_empty(), 40);
        let final_report = runner(&shrunk, opts);
        let violations = if final_report.violations.is_empty() {
            report.violations
        } else {
            final_report.violations
        };
        return TortureResult {
            failure: Some(Failure {
                seed,
                shrunk,
                violations,
                shrink_runs,
            }),
            seeds_run: i + 1,
            ops_checked,
        };
    }
    TortureResult {
        failure: None,
        seeds_run: count,
        ops_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::CrashPoint;
    use std::sync::{Condvar, MutexGuard};

    /// The one thing a [`FakeTarget`] gets wrong.
    #[derive(Clone, Copy, PartialEq)]
    enum Flaw {
        None,
        /// A rejoined node serves what it held when it crashed.
        StaleRejoin,
        /// Node 0's log holds a version nobody wrote.
        PhantomLog,
        /// This node cannot rejoin.
        RejoinFails(NodeId),
        /// The first put after the warm-up is never answered.
        PutTimesOut,
        /// The first put after the warm-up finds its coordinator gone.
        PutLost,
    }

    /// An in-memory cluster: one max-register per key, a log per node, an
    /// up/down set. Every op is one atomic step between two ticks of the
    /// history clock, so a flawless fake's history is sequential.
    struct Fake {
        flaw: Flaw,
        clock: u64,
        store: HashMap<Key, (Ts, Vec<u8>)>,
        logs: Vec<Vec<(Key, Ts)>>,
        up: Vec<bool>,
        /// [`Flaw::StaleRejoin`]: what each crashed node held.
        frozen: HashMap<NodeId, HashMap<Key, (Ts, Vec<u8>)>>,
        history: History,
        warmup_puts: u64,
        puts: u64,
        crashes: Vec<NodeId>,
        rejoins: Vec<(NodeId, u64)>,
        /// While set, no op starts once this many have completed: client
        /// traffic cannot outrun the schedule's first crash point, which
        /// makes "ops during the outage" certain instead of likely.
        hold_at: Option<u64>,
    }

    impl Fake {
        fn completed(&self) -> u64 {
            self.history.completed().count() as u64
        }

        fn record(&mut self, node: NodeId, kind: OpKind, key: Key, call: u64, ts: Option<Ts>) {
            self.clock += 1;
            self.history.ops.push(ClientOp {
                node,
                req: call,
                kind,
                key: Some(key),
                scope: None,
                call,
                ret: ts.map(|_| self.clock),
                ts,
                obsolete: false,
            });
        }
    }

    #[derive(Clone)]
    struct FakeTarget(Arc<(Mutex<Fake>, Condvar)>);

    impl FakeTarget {
        fn start(schedule: &Schedule, opts: &TortureOptions, flaw: Flaw) -> Self {
            let n = opts.nodes as usize;
            let fake = Fake {
                flaw,
                clock: 0,
                store: HashMap::new(),
                logs: vec![Vec::new(); n],
                up: vec![true; n],
                frozen: HashMap::new(),
                history: History::default(),
                warmup_puts: opts.keys,
                puts: 0,
                crashes: Vec::new(),
                rejoins: Vec::new(),
                hold_at: schedule.crashes.first().map(|c| c.after_ops.max(opts.keys)),
            };
            FakeTarget(Arc::new((Mutex::new(fake), Condvar::new())))
        }

        fn state(&self) -> MutexGuard<'_, Fake> {
            self.0 .0.lock().unwrap()
        }

        /// Starts an op at `node`, stamping its call; `None` = node down.
        fn enter(&self, node: NodeId) -> Option<(MutexGuard<'_, Fake>, u64)> {
            let (state, crash_fired) = &*self.0;
            let held = |f: &mut Fake| f.hold_at.is_some_and(|at| f.completed() >= at);
            let mut f = crash_fired.wait_while(state.lock().unwrap(), held).unwrap();
            if !f.up[node.0 as usize] {
                return None;
            }
            f.clock += 1;
            let call = f.clock;
            Some((f, call))
        }
    }

    impl Client for FakeTarget {
        fn put(&mut self, node: NodeId, key: Key, value: &[u8], _: Option<ScopeId>) -> Reply<Ts> {
            let Some((mut f, call)) = self.enter(node) else {
                return Reply::Lost("down".into());
            };
            f.puts += 1;
            if f.puts == f.warmup_puts + 1 && matches!(f.flaw, Flaw::PutTimesOut | Flaw::PutLost) {
                f.record(node, OpKind::Write, key, call, None);
                return match f.flaw {
                    Flaw::PutLost => Reply::Lost("coordinator gone".into()),
                    _ => Reply::TimedOut(node),
                };
            }
            let ts = f.store.get(&key).map_or(Ts::zero(), |held| held.0);
            let ts = ts.next_version(node);
            f.store.insert(key, (ts, value.to_vec()));
            for n in 0..f.up.len() {
                if f.up[n] {
                    f.logs[n].push((key, ts));
                }
            }
            f.record(node, OpKind::Write, key, call, Some(ts));
            Reply::Answered(ts)
        }

        fn get(&mut self, node: NodeId, key: Key) -> Reply<(Vec<u8>, Ts)> {
            let Some((mut f, call)) = self.enter(node) else {
                return Reply::Lost("down".into());
            };
            let held = f.frozen.get(&node).unwrap_or(&f.store);
            let (ts, value) = held.get(&key).cloned().unwrap_or_default();
            f.record(node, OpKind::Read, key, call, Some(ts));
            Reply::Answered((value, ts))
        }

        fn flush(&mut self, _: NodeId, _: ScopeId) -> Reply<()> {
            unreachable!("the fake runs no scope model")
        }
    }

    impl Target for FakeTarget {
        type Client = FakeTarget;
        const SALT: u64 = 0xFA4E;

        fn client(&self) -> FakeTarget {
            self.clone()
        }

        fn completed(&self) -> u64 {
            self.state().completed()
        }

        fn now(&self) -> u64 {
            self.state().clock
        }

        fn crash(&mut self, node: NodeId) -> Result<(), String> {
            let mut f = self.state();
            f.up[node.0 as usize] = false;
            f.crashes.push(node);
            if f.flaw == Flaw::StaleRejoin {
                let held = f.store.clone();
                f.frozen.insert(node, held);
            }
            f.hold_at = None;
            self.0 .1.notify_all();
            Ok(())
        }

        fn rejoin(&mut self, node: NodeId) -> Result<(), String> {
            let mut f = self.state();
            if f.flaw == Flaw::RejoinFails(node) {
                return Err("no donor".into());
            }
            f.up[node.0 as usize] = true;
            f.clock += 1;
            let at = f.clock;
            f.rejoins.push((node, at));
            Ok(())
        }

        fn durable_log(&mut self, node: NodeId) -> Result<Vec<(Key, Ts)>, String> {
            let f = self.state();
            let mut log = f.logs[node.0 as usize].clone();
            if f.flaw == Flaw::PhantomLog && node == NodeId(0) {
                log.push((Key(0), Ts::new(NodeId(2), 99)));
            }
            Ok(log)
        }

        fn finish(self) -> History {
            self.state().history.clone()
        }
    }

    /// EXPERIMENTS.md's worked example: 3 nodes, 4 keys, 2 clients × 8.
    fn small() -> TortureOptions {
        let mut opts = TortureOptions::new(PersistencyModel::Synchronous);
        opts.clients = 2;
        opts.ops_per_client = 8;
        opts
    }

    fn crash(node: u16, after_ops: u64, recover_after_ops: Option<u64>) -> CrashPoint {
        CrashPoint {
            node,
            after_ops,
            recover_after_ops,
        }
    }

    /// Node 1 goes down right after the warm-up and is never recovered by
    /// the schedule; a second point aims at it again; node 2 restarts
    /// mid-run.
    fn outage_schedule() -> Schedule {
        Schedule {
            crashes: vec![crash(1, 4, None), crash(1, 6, None), crash(2, 8, Some(10))],
            ..Schedule::empty(7)
        }
    }

    #[test]
    fn flawless_fake_runs_clean_and_every_op_is_counted() {
        let opts = small();
        let schedule = Schedule::empty(1);
        let report = run(
            FakeTarget::start(&schedule, &opts, Flaw::None),
            &schedule,
            &opts,
        );
        assert_eq!(report.violations, Vec::<String>::new());
        // Classic mix, no batches: one primitive op per iteration, plus
        // the warm-up (in total_ops) and a probe per key per node.
        assert_eq!(report.ops as u64, opts.total_ops() + opts.keys * 3);
        assert_eq!(report.ops, 32);

        // Crash schedules included.
        let runner =
            |s: &Schedule, o: &TortureOptions| run(FakeTarget::start(s, o, Flaw::None), s, o);
        let result = torture(1, 10, &opts, runner, false);
        assert!(result.failure.is_none(), "{:?}", result.failure);
        assert_eq!(result.seeds_run, 10);
    }

    #[test]
    fn node_left_down_is_rejoined_post_run_and_probed() {
        let (opts, schedule) = (small(), outage_schedule());
        let fake = FakeTarget::start(&schedule, &opts, Flaw::None);
        let ev = drive(fake.clone(), &schedule, &opts);
        let f = fake.state();
        // The second point at n1 found it down and was skipped.
        assert_eq!(f.crashes, [NodeId(1), NodeId(2)]);
        let rejoined: Vec<NodeId> = f.rejoins.iter().map(|r| r.0).collect();
        assert_eq!(rejoined, [NodeId(2), NodeId(1)]);
        let modes: Vec<AuditMode> = ev.logs.iter().map(|l| l.mode).collect();
        let since = |i: usize| AuditMode::Rejoined {
            since: f.rejoins[i].1,
        };
        assert_eq!(modes, [AuditMode::Full, since(1), since(0)]);
        let probes =
            ev.history.ops.iter().filter(|o| {
                o.node == NodeId(1) && o.kind == OpKind::Read && o.call > f.rejoins[1].1
            });
        assert_eq!(probes.count() as u64, opts.keys);
        drop(f);
        assert_eq!(check_everything(ev, &opts).violations, Vec::<String>::new());
    }

    #[test]
    fn node_that_cannot_rejoin_is_reported_and_excused() {
        let (opts, schedule) = (small(), outage_schedule());
        let fake = FakeTarget::start(&schedule, &opts, Flaw::RejoinFails(NodeId(1)));
        let ev = drive(fake.clone(), &schedule, &opts);
        let since = fake.state().rejoins[0].1;
        let modes: Vec<AuditMode> = ev.logs.iter().map(|l| l.mode).collect();
        assert_eq!(
            modes,
            [
                AuditMode::Full,
                AuditMode::Excused,
                AuditMode::Rejoined { since }
            ]
        );
        assert_eq!(
            check_everything(ev, &opts).violations,
            ["rejoin of n1 failed: no donor"]
        );
    }

    #[test]
    fn stale_rejoiner_is_a_linearizability_violation_and_shrinks() {
        let mut opts = TortureOptions::new(PersistencyModel::Synchronous);
        opts.max_crashes = 1;
        let runner = |s: &Schedule, o: &TortureOptions| {
            run(FakeTarget::start(s, o, Flaw::StaleRejoin), s, o)
        };
        let failure = torture(1, 20, &opts, runner, false)
            .failure
            .expect("no crash schedule in 20 seeds");
        assert!(
            failure
                .violations
                .iter()
                .any(|v| v.contains("no valid linearization exists")),
            "{:?}",
            failure.violations
        );
        // The fake ignores injections and is stale with or without a
        // scheduled rejoin (the driver rejoins post-run): what remains
        // is the bare crash point.
        assert_eq!(failure.shrunk.weight(), 1, "{}", failure.shrunk);
        assert_eq!(failure.shrunk.crashes.len(), 1);
    }

    #[test]
    fn invented_log_entry_is_a_phantom_violation() {
        let (opts, schedule) = (small(), Schedule::empty(1));
        let fake = FakeTarget::start(&schedule, &opts, Flaw::PhantomLog);
        let violations = run(fake, &schedule, &opts).violations;
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("phantom durable entry: n0's log holds (k0, <n2,v99>)"));
    }

    #[test]
    fn timed_out_put_is_a_liveness_violation_and_a_lost_one_is_not() {
        let (opts, schedule) = (small(), Schedule::empty(1));
        for (flaw, expect_liveness) in [(Flaw::PutTimesOut, 1), (Flaw::PutLost, 0)] {
            let ev = drive(FakeTarget::start(&schedule, &opts, flaw), &schedule, &opts);
            // Either way the unanswered write stays in the history.
            let pending = ev.history.ops.iter().filter(|o| !o.is_complete());
            assert_eq!(pending.count(), 1);
            let violations = check_everything(ev, &opts).violations;
            assert_eq!(violations.len(), expect_liveness, "{violations:?}");
            for v in violations {
                assert!(v.starts_with("liveness: put k"), "{v}");
                assert!(v.contains("unanswered after 10 s while n"), "{v}");
            }
        }
    }

    #[test]
    fn time_out_is_excused_only_by_a_crash_under_the_call() {
        let before = Instant::now();
        let called = before + Duration::from_secs(1);
        let after = called + Duration::from_secs(1);
        let member = |crashed, rejoined| Member { crashed, rejoined };
        assert!(member(None, None).up_since(called));
        // Restarted before the call: it was up throughout.
        assert!(member(Some(before), Some(5)).up_since(called));
        // Crashed under the call, back by the time it returned — or not.
        assert!(!member(Some(after), Some(5)).up_since(called));
        assert!(!member(Some(after), None).up_since(called));
        assert!(!member(Some(before), None).up_since(called));
    }
}
