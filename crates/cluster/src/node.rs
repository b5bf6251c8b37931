//! The live MINOS-B node.
//!
//! [`NodeCore`] is everything a running node is apart from what carries
//! its messages: the protocol engine, the shared
//! [`minos_core::runtime`] dispatcher, the durable state, the seeded
//! chaos schedule and the Fig. 12 batching/broadcast policy. Both live
//! runtimes drive one — the threaded [`NodeLoop`] below and the socket
//! loop in [`crate::tcp`] — and each names what genuinely differs
//! between them in a [`Port`].
//!
//! The two *loops* stay two on purpose. Their inboxes differ
//! ([`NodeMsg`] has crash / heartbeat / log-shipping arms, the TCP inbox
//! has connection-tagged client ops) and so do their completion paths (a
//! cluster-shared `Mutex<HashMap>` plus a channel per op here; an
//! engine-thread-local map with no lock there). Those are exactly what
//! ROADMAP items 1(b)/(c) measure next, and a shared loop would either
//! branch on which runtime called it or put this runtime's lock on the
//! TCP hot path.

use crate::cluster::{CompletionMap, Outcome};
use crate::timer::Scheduler;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use minos_core::obs::{GaugeKind, GaugeSet, SharedGauges, Tracer};
use minos_core::runtime::{
    ActionSink, BatchPolicy, Batched, ChaosNet, ChaosState, DispatchStats, Dispatcher,
    FrameTransport, Transport, TransportCounters,
};
use minos_core::{Action, DelayClass, Event, NodeEngine, ReqId};
use minos_kv::recovery::recover_into;
use minos_kv::DurableState;
use minos_nvm::LogEntry;
use minos_types::wire::TraceCtx;
use minos_types::{ClusterConfig, DdpModel, Key, Message, NodeId, ScopeId, ShardMap, Ts, Value};
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What differs between the live runtimes, as seen from a dispatch: how
/// a frame leaves (the [`FrameTransport`] half), how an event comes back
/// later, and how a client learns its result. Ports outlive dispatches;
/// the trace context installed by [`FrameTransport::set_ctx`] stamps
/// every frame *and* every event the current dispatch emits.
pub(crate) trait Port: FrameTransport {
    /// Feeds `event` back into this node's inbox after `ns` nanoseconds
    /// (0 = a local dispatch hop).
    fn after(&mut self, ns: u64, event: Event);

    /// Hands the client behind `req` its result and forgets the request.
    fn complete(&mut self, req: ReqId, outcome: Outcome);

    /// A client op reached this node, which does not replicate its key;
    /// `to` does.
    fn redirect(&mut self, to: NodeId, event: Event);

    /// Copies just-persisted entries to storage that outlives the
    /// process. The emulated NVM device needs none.
    fn mirror(&mut self, _entries: &[LogEntry]) {}
}

/// The one dispatch handler of the live runtimes: frames go out through
/// the port, persists go through the emulated NVM device and come back
/// as [`Event::PersistDone`] after the device latency, completions wake
/// the client.
struct Sink<'a, P> {
    port: &'a mut P,
    durable: &'a mut DurableState,
}

// `Batched` wants one handler that is both halves, and coherence forbids
// implementing `ActionSink` for a bare `P: Port`: hence this pass-through.
impl<P: Port> FrameTransport for Sink<'_, P> {
    fn deposit(&mut self, to: NodeId, msgs: Vec<Message>) {
        self.port.deposit(to, msgs);
    }
    fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>) {
        self.port.deposit_all(dests, msgs);
    }
    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.port.set_ctx(ctx);
    }
}

impl<P: Port> ActionSink for Sink<'_, P> {
    fn persist(&mut self, key: Key, ts: Ts, value: Value, _background: bool) {
        let ns = self.durable.device().persist_ns(value.len() as u64);
        let lsn = self.durable.persist(key, ts, value.clone());
        self.port.mirror(&[LogEntry {
            lsn,
            key,
            ts,
            value,
        }]);
        self.port.after(ns, Event::PersistDone { key, ts });
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        self.port.redirect(to, event);
    }

    fn defer(&mut self, event: Event, _class: DelayClass) {
        self.port.after(0, event);
    }

    fn write_done(&mut self, req: ReqId, _key: Key, ts: Ts, obsolete: bool) {
        self.port.complete(req, Outcome::Write { ts, obsolete });
    }

    fn read_done(&mut self, req: ReqId, _key: Key, value: Value, ts: Ts) {
        self.port.complete(req, Outcome::Read { value, ts });
    }

    fn persist_scope_done(&mut self, req: ReqId, scope: ScopeId) {
        self.port.complete(req, Outcome::PersistScope { scope });
    }
}

/// What one pass through the dispatch stack interprets.
enum Work {
    Event(Event, Option<TraceCtx>),
    Actions(Vec<Action>),
}

/// One live MINOS-B node, minus its transport (see the module docs).
pub(crate) struct NodeCore {
    pub(crate) engine: NodeEngine,
    pub(crate) dispatcher: Dispatcher,
    pub(crate) durable: DurableState,
    /// Seeded chaos bookkeeping (`ClusterConfig::chaos`); persists across
    /// dispatches so injection indices count whole-run outbound traffic.
    chaos: Option<ChaosState>,
    policy: BatchPolicy,
    pub(crate) counters: TransportCounters,
}

impl NodeCore {
    /// The node `node` of the cluster `cfg` describes: placement set,
    /// fault armed (fault-injection builds), chaos schedule loaded.
    pub(crate) fn new(
        node: NodeId,
        model: DdpModel,
        cfg: &ClusterConfig,
        tracer: Option<Tracer>,
    ) -> NodeCore {
        let mut engine = NodeEngine::new(node, cfg.nodes, model);
        engine.set_placement(cfg.placement.clone());
        #[cfg(feature = "fault-injection")]
        if let Some(f) = cfg.fault {
            if f.node == node.0 {
                engine.arm_fault(f.kind);
            }
        }
        let mut dispatcher = Dispatcher::new();
        dispatcher.set_tracer(tracer);
        NodeCore {
            engine,
            dispatcher,
            durable: DurableState::with_persist_latency(cfg.nvm_persist_ns_per_kb),
            chaos: cfg.chaos.as_ref().map(|spec| ChaosState::new(spec, node)),
            policy: BatchPolicy {
                batching: cfg.batching,
                broadcast: cfg.broadcast,
            },
            counters: TransportCounters::default(),
        }
    }

    /// The one place the handler stack is assembled: chaos (when
    /// scheduled) above batching above the port. Chaos sits *above*
    /// batching so injection indices count protocol messages, not
    /// frames — a schedule replays the same whatever the NIC
    /// capabilities. Returns this pass's transport counters, already
    /// merged into the node's totals.
    fn run<P: Port>(&mut self, work: Work, port: &mut P) -> TransportCounters {
        fn interpret<H: Transport + ActionSink>(
            dispatcher: &mut Dispatcher,
            engine: &mut NodeEngine,
            work: Work,
            handler: &mut H,
        ) {
            match work {
                Work::Event(ev, ctx) => dispatcher.dispatch_ctx(engine, ev, ctx, handler),
                Work::Actions(actions) => dispatcher.run_actions(engine, actions, handler),
            }
        }
        let sink = Sink {
            port,
            durable: &mut self.durable,
        };
        let mut stack = Batched::new(sink, self.policy);
        match self.chaos.as_mut() {
            Some(chaos) => {
                let mut net = ChaosNet::new(&mut stack, chaos);
                interpret(&mut self.dispatcher, &mut self.engine, work, &mut net);
            }
            None => interpret(&mut self.dispatcher, &mut self.engine, work, &mut stack),
        }
        let (_, c) = stack.into_parts();
        self.counters.merge(&c);
        c
    }

    /// Feeds one event (arriving under trace context `ctx`) to the
    /// engine and performs everything it asks for through `port`.
    /// Returns the batch fill — messages per frame — when batching is on
    /// and the dispatch put frames on the wire: the `BatchFill` gauge.
    pub(crate) fn dispatch<P: Port>(
        &mut self,
        ev: Event,
        ctx: Option<TraceCtx>,
        port: &mut P,
    ) -> Option<u64> {
        let c = self.run(Work::Event(ev, ctx), port);
        (self.policy.batching && c.deposits > 0).then(|| c.protocol_msgs / c.deposits)
    }

    /// A view change: shrink (`up = false`) or regrow the replication
    /// quorum by `peer`, then drain whatever the change unblocked —
    /// writes that were waiting on the failed peer's ACK complete here.
    pub(crate) fn view_change<P: Port>(&mut self, peer: NodeId, up: bool, port: &mut P) {
        if up {
            self.engine.mark_recovered(peer);
        } else {
            self.engine.mark_failed(peer);
        }
        let mut out = Vec::new();
        self.engine.poll_now(&mut out);
        // Not a dispatch: nothing installs a fresh context, and the last
        // dispatch's must not leak onto these frames.
        port.set_ctx(None);
        self.run(Work::Actions(out), port);
    }

    /// §III-E recovery: replays shipped `entries` into durable state and
    /// raises the volatile replica to it. `fresh_engine` says a crash
    /// wiped the volatile state: the engine is then rebuilt from scratch
    /// first, so no stale transaction or lock survives.
    pub(crate) fn recover(&mut self, entries: &[LogEntry], fresh_engine: bool) {
        if fresh_engine {
            let old = &self.engine;
            let mut engine = NodeEngine::new(old.node(), old.n_nodes(), old.model());
            engine.set_placement(old.placement().cloned());
            self.engine = engine;
        }
        recover_into(&mut self.durable, entries, &mut self.engine);
    }

    /// Samples the level gauges: in-flight client ops (`inflight` yields
    /// each one's shard tag), records holding locks, inbox depth. The
    /// lock scan is O(records), so callers pace this off the per-event
    /// path. Sharded nodes key the levels by (node, shard) so hot shards
    /// are visible; hosted shards with no locks sample an explicit zero.
    pub(crate) fn sample(
        &self,
        g: &mut GaugeSet,
        inflight: impl Iterator<Item = Option<u32>>,
        inbox: usize,
    ) {
        let node = u32::from(self.engine.node().0);
        let mut total = 0;
        let mut by_shard: HashMap<u32, u64> = HashMap::new();
        for shard in inflight {
            total += 1;
            if let Some(sh) = shard {
                *by_shard.entry(sh).or_default() += 1;
            }
        }
        g.observe(GaugeKind::InflightTxs, node, total);
        for (sh, v) in by_shard {
            g.observe_shard(GaugeKind::InflightTxs, node, sh, v);
        }
        match self.engine.placement() {
            Some(map) => {
                let locked = self.engine.locked_records_by_shard(map);
                for sh in map.shards_on(self.engine.node()) {
                    let v = locked.get(&sh.0).copied().unwrap_or(0);
                    g.observe_shard(GaugeKind::LockTableSize, node, sh.0, v as u64);
                }
            }
            None => {
                let locked = self.engine.locked_records();
                g.observe(GaugeKind::LockTableSize, node, locked as u64);
            }
        }
        g.observe(GaugeKind::HostSendQueue, node, inbox as u64);
    }
}

/// Messages a node thread accepts.
#[derive(Debug)]
pub(crate) enum NodeMsg {
    /// A protocol or client event, with the trace context of the
    /// dispatch that caused it (`None` for client submissions).
    Ev(Event, Option<TraceCtx>),
    /// Framed peer traffic: one transport deposit carrying one or more
    /// protocol messages from `from`.
    Frame {
        /// Sending peer.
        from: NodeId,
        /// The batched messages, in emission order.
        msgs: Vec<Message>,
        /// The sending dispatch's trace context, if traced.
        ctx: Option<TraceCtx>,
    },
    /// Liveness beacon from a peer.
    Heartbeat {
        /// The beaconing peer.
        from: NodeId,
    },
    /// Donor side of recovery, and the durability audit: ship the whole
    /// durable log.
    ShipLog {
        /// Where to send it.
        reply: Sender<Vec<LogEntry>>,
    },
    /// Rejoiner side of catch-up, step 1: report the newest durable
    /// version per key (served from NVM even while crashed — this *is*
    /// the "replay your own log first" step: the summary is what local
    /// replay reconstructs).
    QuerySummary {
        /// Where to send the summary.
        reply: Sender<Vec<(Key, Ts)>>,
    },
    /// Donor side of catch-up, step 2: ship the durable records the
    /// rejoiner's summary shows it missed.
    ShipDelta {
        /// The rejoiner's per-key durable high-water marks.
        have: Vec<(Key, Ts)>,
        /// Where to send the missing versions.
        reply: Sender<Vec<LogEntry>>,
    },
    /// Re-replication cutover: adopt `map` iff its placement epoch is
    /// newer, installing `entries` (the background copy) first when this
    /// node is the new replica.
    InstallPlacement {
        /// The new placement, epoch included.
        map: ShardMap,
        /// Copied records for a node joining a group (empty for
        /// bystanders, who only swap their routing map).
        entries: Vec<LogEntry>,
        /// Signaled once the install is visible (new-replica side).
        done: Option<Sender<()>>,
    },
    /// Rejoiner side of recovery: replay shipped entries, install the
    /// rebuilt records, resume service.
    Revive {
        /// The shipped log suffix.
        entries: Vec<LogEntry>,
        /// Signaled when the node is serving again.
        done: Sender<()>,
    },
    /// Report the node's dispatch and transport counters.
    QueryStats {
        /// Where to send them.
        reply: Sender<(DispatchStats, TransportCounters)>,
    },
    /// Simulate a crash: stop processing (messages drain unhandled).
    Crash,
    /// Membership notice: `node` was detected failed by the cluster.
    PeerFailed {
        /// The failed peer.
        node: NodeId,
    },
    /// Membership notice: `node` rejoined.
    PeerRecovered {
        /// The recovered peer.
        node: NodeId,
    },
    /// Terminate the thread.
    Shutdown,
}

pub(crate) struct NodeThread {
    pub(crate) tx: Sender<NodeMsg>,
    pub(crate) handle: Option<JoinHandle<()>>,
}

/// Spawns the worker thread for `node`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_node(
    node: NodeId,
    cfg: ClusterConfig,
    model: DdpModel,
    rx: Receiver<NodeMsg>,
    tx: Sender<NodeMsg>,
    scheduler: Scheduler<NodeMsg>,
    completions: CompletionMap,
    failure_tx: Sender<NodeId>,
    tracer: Option<Tracer>,
    gauges: SharedGauges,
) -> NodeThread {
    let handle = std::thread::Builder::new()
        .name(format!("minos-node-{}", node.0))
        .spawn(move || {
            NodeLoop {
                core: NodeCore::new(node, model, &cfg, tracer),
                port: ThreadedPort {
                    node,
                    ctx: None,
                    wire_latency_ns: cfg.wire_latency_ns,
                    scheduler,
                    completions,
                    inflight: HashMap::new(),
                },
                failure_timeout: Duration::from_nanos(cfg.failure_timeout_ns),
                rx,
                failure_tx,
                last_seen: HashMap::new(),
                crashed: false,
                gauges,
                dispatches: 0,
            }
            .run();
        })
        .expect("spawn node thread");
    NodeThread {
        tx,
        handle: Some(handle),
    }
}

struct NodeLoop {
    core: NodeCore,
    port: ThreadedPort,
    failure_timeout: Duration,
    rx: Receiver<NodeMsg>,
    failure_tx: Sender<NodeId>,
    last_seen: HashMap<NodeId, Instant>,
    crashed: bool,
    /// Cluster-shared resource telemetry: in-flight ops, lock-table
    /// size, inbox depth (sampled every [`GAUGE_SAMPLE_DISPATCHES`]
    /// dispatches) and the batch fill at each flush.
    gauges: SharedGauges,
    /// Dispatches handled so far — the gauge sampling pacer.
    dispatches: u64,
}

/// Sample the level gauges once per this many dispatches: the lock-table
/// scan is O(records), so it stays off the per-event hot path.
const GAUGE_SAMPLE_DISPATCHES: u64 = 32;

/// The threaded runtime's [`Port`]: frames and events ride the delay
/// wheel into crossbeam inboxes, completions wake the client thread
/// blocked in `Cluster::submit`.
struct ThreadedPort {
    node: NodeId,
    /// The current dispatch's trace context.
    ctx: Option<TraceCtx>,
    wire_latency_ns: u64,
    scheduler: Scheduler<NodeMsg>,
    completions: CompletionMap,
    /// Client requests admitted here and not yet completed, each tagged
    /// with the shard its key belongs to (`None` when unsharded or
    /// keyless). Severed (reply senders dropped) on [`NodeMsg::Crash`] so
    /// blocked `Cluster::submit` callers observe the crash immediately
    /// instead of timing out.
    inflight: HashMap<ReqId, Option<u32>>,
}

impl ThreadedPort {
    fn frame(&self, msgs: Vec<Message>) -> NodeMsg {
        NodeMsg::Frame {
            from: self.node,
            msgs,
            ctx: self.ctx,
        }
    }
}

impl FrameTransport for ThreadedPort {
    fn deposit(&mut self, to: NodeId, msgs: Vec<Message>) {
        self.scheduler
            .send_after(self.wire_latency_ns, to, self.frame(msgs));
    }

    fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>) {
        // Native broadcast: one wheel entry expands to every destination
        // at expiry.
        let deliveries = dests
            .iter()
            .map(|&to| (to, self.frame(msgs.clone())))
            .collect();
        self.scheduler
            .send_after_many(self.wire_latency_ns, deliveries);
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.ctx = ctx;
    }
}

impl Port for ThreadedPort {
    fn after(&mut self, ns: u64, event: Event) {
        self.scheduler
            .send_after(ns, self.node, NodeMsg::Ev(event, self.ctx));
    }

    fn complete(&mut self, req: ReqId, outcome: Outcome) {
        self.inflight.remove(&req);
        if let Some(tx) = self.completions.lock().remove(&req) {
            let _ = tx.send(outcome);
        }
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        self.scheduler
            .send_after(self.wire_latency_ns, to, NodeMsg::Ev(event, self.ctx));
    }
}

impl NodeLoop {
    fn run(mut self) {
        let heartbeat_every = (self.failure_timeout / 4).max(Duration::from_millis(1));
        let mut next_beat = Instant::now();
        let boot = Instant::now();
        loop {
            let wait = next_beat.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(wait.max(Duration::from_micros(100))) {
                Ok(NodeMsg::Shutdown) => {
                    if let Some(tr) = self.core.dispatcher.tracer_mut() {
                        tr.flush_sinks();
                    }
                    return;
                }
                Ok(NodeMsg::Crash) => {
                    self.crashed = true;
                    // A crash loses every op this coordinator had in
                    // flight: drop their reply senders so the blocked
                    // clients fail fast rather than waiting out the
                    // submit timeout. (The completion map is shared by
                    // all nodes, so only our own requests are removed.)
                    let mut map = self.port.completions.lock();
                    for (req, _) in self.port.inflight.drain() {
                        map.remove(&req);
                    }
                }
                Ok(NodeMsg::Revive { entries, done }) => {
                    self.core.recover(&entries, true);
                    self.crashed = false;
                    self.last_seen.clear();
                    let _ = done.send(());
                }
                Ok(NodeMsg::QueryStats { reply }) => {
                    let _ = reply.send((*self.core.dispatcher.stats(), self.core.counters));
                }
                Ok(NodeMsg::ShipLog { reply }) => {
                    // Served even while crashed: the log lives in NVM,
                    // which survives the crash — this is what makes both
                    // recovery and post-crash durability audits possible.
                    let _ = reply.send(self.core.durable.entries_since(0));
                }
                Ok(NodeMsg::QuerySummary { reply }) => {
                    // Also served while crashed: the summary is derived
                    // from the durable database the node's own log replay
                    // reconstructs.
                    let _ = reply.send(self.core.durable.summary());
                }
                Ok(NodeMsg::ShipDelta { have, reply }) => {
                    let _ = reply.send(self.core.durable.delta_against(&have));
                }
                Ok(NodeMsg::InstallPlacement { map, entries, done }) if !self.crashed => {
                    self.install_placement(map, &entries);
                    if let Some(done) = done {
                        let _ = done.send(());
                    }
                }
                Ok(msg) if self.crashed => {
                    // A crashed node silently drains its inbox — but a
                    // client op racing the crash (sent before the failed
                    // flag was visible) must still fail fast, so its
                    // reply sender is dropped here just as `Crash` does
                    // for ops already admitted.
                    if let NodeMsg::Ev(
                        Event::ClientWrite { req, .. }
                        | Event::ClientRead { req, .. }
                        | Event::ClientPersistScope { req, .. },
                        _,
                    ) = msg
                    {
                        self.port.completions.lock().remove(&req);
                    }
                }
                // Unreachable in practice (the guarded arms above cover
                // both crashed and alive), but guards don't count toward
                // exhaustiveness.
                Ok(NodeMsg::InstallPlacement { .. }) => {}
                Ok(NodeMsg::Ev(ev, ctx)) => self.handle_event(ev, ctx),
                Ok(NodeMsg::Frame { from, msgs, ctx }) => {
                    for msg in msgs {
                        self.handle_event(Event::Message { from, msg }, ctx);
                    }
                }
                Ok(NodeMsg::Heartbeat { from }) => {
                    self.last_seen.insert(from, Instant::now());
                }
                Ok(NodeMsg::PeerFailed { node }) => {
                    self.core.view_change(node, false, &mut self.port);
                }
                Ok(NodeMsg::PeerRecovered { node }) => {
                    self.core.view_change(node, true, &mut self.port);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }

            // Heartbeating + failure detection (§III-E timeouts).
            if !self.crashed && Instant::now() >= next_beat {
                next_beat = Instant::now() + heartbeat_every;
                let peers = self.core.engine.alive_peers();
                for &peer in &peers {
                    self.port.scheduler.send_after(
                        self.port.wire_latency_ns,
                        peer,
                        NodeMsg::Heartbeat {
                            from: self.port.node,
                        },
                    );
                }
                // Grace period: peers we have never heard from are only
                // suspect once the cluster has been up for a full timeout.
                if boot.elapsed() > self.failure_timeout {
                    for peer in peers {
                        let silent = self
                            .last_seen
                            .get(&peer)
                            .is_none_or(|t| t.elapsed() > self.failure_timeout);
                        if silent {
                            // Report to the cluster monitor, which alerts
                            // all other nodes (including us, via
                            // PeerFailed).
                            let _ = self.failure_tx.send(peer);
                        }
                    }
                }
            }
        }
    }

    fn handle_event(&mut self, ev: Event, ctx: Option<TraceCtx>) {
        match &ev {
            Event::ClientWrite { req, key, .. } | Event::ClientRead { req, key, .. } => {
                let shard = self.core.engine.placement().map(|m| m.shard_of(*key).0);
                self.port.inflight.insert(*req, shard);
            }
            Event::ClientPersistScope { req, .. } => {
                self.port.inflight.insert(*req, None);
            }
            _ => {}
        }
        // Telemetry: batch fill at every flush (batching runs only),
        // level gauges on the dispatch-count pacer.
        let node = u32::from(self.port.node.0);
        if let Some(fill) = self.core.dispatch(ev, ctx, &mut self.port) {
            let mut g = self.gauges.lock().expect("gauge lock");
            g.observe(GaugeKind::BatchFill, node, fill);
        }
        self.dispatches += 1;
        // `% N == 1` rather than `== 0`: short runs still get a sample.
        if self.dispatches % GAUGE_SAMPLE_DISPATCHES == 1 {
            let mut g = self.gauges.lock().expect("gauge lock");
            let inflight = self.port.inflight.values().copied();
            self.core.sample(&mut g, inflight, self.rx.len());
        }
    }

    /// Re-replication cutover at this node: install the copied records
    /// (when joining the group), then adopt the new map iff its epoch is
    /// newer than the one in force — a stale cutover racing a newer view
    /// change must lose.
    fn install_placement(&mut self, map: ShardMap, entries: &[LogEntry]) {
        let in_force = self.core.engine.placement();
        if in_force.is_none_or(|m| map.epoch() > m.epoch()) {
            self.core.recover(entries, false);
            self.core.engine.set_placement(Some(map));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_types::{ChaosSpec, MsgChaos, MsgInjection, PersistencyModel};
    use std::collections::VecDeque;

    /// A recording [`Port`]: nothing leaves the test.
    #[derive(Default)]
    struct FakePort {
        ctx: Option<TraceCtx>,
        /// Every deposit: destination set, messages, context in force.
        frames: Vec<(Vec<NodeId>, Vec<Message>, Option<TraceCtx>)>,
        /// Events scheduled back into the node, in order (delays ignored).
        events: VecDeque<Event>,
        done: Vec<(ReqId, Outcome)>,
        mirrored: Vec<LogEntry>,
    }

    impl FrameTransport for FakePort {
        fn deposit(&mut self, to: NodeId, msgs: Vec<Message>) {
            self.frames.push((vec![to], msgs, self.ctx));
        }
        fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>) {
            self.frames.push((dests.to_vec(), msgs, self.ctx));
        }
        fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
            self.ctx = ctx;
        }
    }

    impl Port for FakePort {
        fn after(&mut self, _ns: u64, event: Event) {
            self.events.push_back(event);
        }
        fn complete(&mut self, req: ReqId, outcome: Outcome) {
            self.done.push((req, outcome));
        }
        fn redirect(&mut self, _to: NodeId, _event: Event) {
            unreachable!("fully replicated tests never redirect");
        }
        fn mirror(&mut self, entries: &[LogEntry]) {
            self.mirrored.extend_from_slice(entries);
        }
    }

    fn synch() -> DdpModel {
        DdpModel::lin(PersistencyModel::Synchronous)
    }

    fn write(key: u64, req: u64) -> Event {
        Event::ClientWrite {
            key: Key(key),
            value: format!("v{req}").into(),
            scope: None,
            req: ReqId(req),
        }
    }

    /// Three cores wired through their fake ports by one FIFO queue.
    struct Net {
        cores: Vec<NodeCore>,
        ports: Vec<FakePort>,
        queue: VecDeque<(usize, Event)>,
        /// What reached each node over the "wire", as `from>message`.
        delivered: Vec<Vec<String>>,
    }

    impl Net {
        fn new(cfg: &ClusterConfig) -> Net {
            Net {
                cores: (0..3)
                    .map(|i| NodeCore::new(NodeId(i), synch(), cfg, None))
                    .collect(),
                ports: (0..3).map(|_| FakePort::default()).collect(),
                queue: VecDeque::new(),
                delivered: vec![Vec::new(); 3],
            }
        }

        /// Admits `ev` at `node` and runs the cluster until nothing is
        /// in flight.
        fn run(&mut self, node: usize, ev: Event) {
            self.queue.push_back((node, ev));
            while let Some((i, ev)) = self.queue.pop_front() {
                self.cores[i].dispatch(ev, None, &mut self.ports[i]);
                let port = &mut self.ports[i];
                self.queue.extend(port.events.drain(..).map(|ev| (i, ev)));
                for (dests, msgs, _) in port.frames.drain(..) {
                    for to in dests {
                        for msg in &msgs {
                            self.delivered[to.0 as usize].push(format!("{i}>{msg:?}"));
                            let from = NodeId(i as u16);
                            let msg = msg.clone();
                            self.queue
                                .push_back((to.0 as usize, Event::Message { from, msg }));
                        }
                    }
                }
            }
        }
    }

    /// Runs a fixed four-write workload; returns node 0's chaos
    /// bookkeeping, the (sorted) traffic each node received, node 0's
    /// transport counters and the number of completed writes.
    fn chaos_run(
        policy: BatchPolicy,
        chaos: &ChaosSpec,
    ) -> (String, Vec<Vec<String>>, TransportCounters, usize) {
        let mut cfg = ClusterConfig::cloudlab().with_nodes(3);
        (cfg.batching, cfg.broadcast) = (policy.batching, policy.broadcast);
        cfg.chaos = Some(chaos.clone());
        let mut net = Net::new(&cfg);
        for (req, (node, key)) in [(0, 1), (1, 2), (0, 3), (2, 4)].into_iter().enumerate() {
            net.run(node, write(key, req as u64 + 1));
        }
        for d in &mut net.delivered {
            d.sort();
        }
        let done = net.ports.iter().map(|p| p.done.len()).sum();
        let chaos = format!("{:?}", net.cores[0].chaos);
        (chaos, net.delivered, net.cores[0].counters, done)
    }

    #[test]
    fn chaos_fires_the_same_injections_with_batching_on_and_off() {
        // Node 0's outbound protocol messages, by index: 0 = INV of its
        // first write, 1 = that write's VAL, 2 = ACK of node 1's write, …
        let inject = |nth, kind| MsgInjection { node: 0, nth, kind };
        let spec = ChaosSpec {
            seed: 0,
            injections: vec![
                inject(0, MsgChaos::DelayToFlush),
                inject(1, MsgChaos::Drop),
                inject(3, MsgChaos::ReorderNext),
            ],
        };
        let (chaos_off, got_off, frames_off, done_off) = chaos_run(BatchPolicy::off(), &spec);
        let (chaos_on, got_on, frames_on, done_on) = chaos_run(BatchPolicy::full(), &spec);
        assert_eq!(chaos_off, chaos_on, "injection bookkeeping diverged");
        assert_eq!(got_off, got_on, "different messages reached the peers");
        assert_eq!((done_off, done_on), (4, 4));
        // The two runs really did frame their traffic differently…
        assert_eq!(frames_off.protocol_msgs, frames_on.protocol_msgs);
        assert!(frames_on.deposits < frames_off.deposits);
        // …and the schedule really did fire: exactly the dropped VAL is
        // missing at both followers.
        let (_, clean, _, _) = chaos_run(BatchPolicy::off(), &ChaosSpec::default());
        for node in [1, 2] {
            let missing: Vec<_> = clean[node]
                .iter()
                .filter(|m| !got_on[node].contains(m))
                .collect();
            assert_eq!(missing.len(), 1, "node {node}: {missing:?}");
            assert!(missing[0].starts_with("0>Val"), "node {node}: {missing:?}");
        }
        assert_eq!(got_on[0], clean[0]);
    }

    #[test]
    fn view_change_completes_a_write_waiting_on_the_failed_peer() {
        let cfg = ClusterConfig::cloudlab().with_nodes(3);
        let mut core = NodeCore::new(NodeId(0), synch(), &cfg, None);
        let mut port = FakePort::default();
        core.dispatch(write(7, 1), None, &mut port);
        while let Some(ev) = port.events.pop_front() {
            core.dispatch(ev, None, &mut port); // StartWrite, PersistDone
        }
        assert_eq!(port.mirrored.len(), 1, "the local persist was mirrored");
        let Some(Message::Inv { key, ts, .. }) = port.frames[0].1.first().cloned() else {
            panic!("the write opened with an INV: {:?}", port.frames);
        };
        // Node 1 acknowledges under some trace context; node 2 never does.
        let ctx = TraceCtx {
            trace_id: 9,
            span: 9,
            origin_ns: 9,
        };
        let ack = Event::Message {
            from: NodeId(1),
            msg: Message::Ack { key, ts },
        };
        core.dispatch(ack, Some(ctx), &mut port);
        assert!(port.done.is_empty(), "still waiting on node 2's ACK");
        port.frames.clear();

        core.view_change(NodeId(2), false, &mut port);
        let outcome = Outcome::Write {
            ts,
            obsolete: false,
        };
        assert_eq!(port.done, vec![(ReqId(1), outcome)]);
        // The VAL goes to the survivor only, and not under the context
        // of the dispatch that happened to run last.
        assert_eq!(port.frames.len(), 1, "{:?}", port.frames);
        let (dests, msgs, frame_ctx) = &port.frames[0];
        assert_eq!((dests.as_slice(), *frame_ctx), (&[NodeId(1)][..], None));
        assert!(matches!(msgs[..], [Message::Val { .. }]));
    }

    #[test]
    fn recover_raises_the_volatile_replica_to_the_durable_state() {
        let ts = |n, v| Ts::new(NodeId(n), v);
        let mut donor = DurableState::new();
        donor.persist(Key(1), ts(0, 1), "old".into());
        donor.persist(Key(2), ts(2, 1), "other".into());
        donor.persist(Key(1), ts(0, 2), "new".into());
        let entries = donor.entries_since(0);

        let map = ShardMap::uniform(1, 3, 3);
        let cfg = ClusterConfig::cloudlab().with_placement(map);
        for fresh_engine in [true, false] {
            let mut core = NodeCore::new(NodeId(1), synch(), &cfg, None);
            let mut port = FakePort::default();
            core.dispatch(write(9, 1), None, &mut port); // left in flight
            core.recover(&entries, fresh_engine);
            for e in &entries {
                let (dts, dv) = core.durable.durable(e.key).expect("replayed");
                assert_eq!(core.engine.record_value(e.key).as_ref(), Some(dv));
                assert_eq!(core.engine.record_meta(e.key).volatile_ts, *dts);
            }
            assert_eq!(core.engine.record_value(Key(1)).unwrap(), "new");
            // Only a crash wipes what was in flight; the placement
            // survives either way.
            assert_eq!(core.engine.is_quiescent(), fresh_engine);
            assert!(core.engine.placement().is_some());
        }
    }
}
